//! Seeded input generation.
//!
//! A workload is a list of units.  Each unit names one program (`.loop`
//! source text) and one parameter binding.  The seed draws the corpus
//! nests, one size from each stratum of a fixed range per program, and
//! the order.  Because the strata are fixed, every seed carries about the
//! same total work, and a run-to-run spread measures the program, not the
//! draw.

use rcp_depend::is_coupled_access;
use rcp_loopir::Program;
use rcp_session::{Config, Session};
use rcp_workloads::{bundled_loop, random_nest, SmallRng};

/// One program of a workload, as the text the pipeline parses.
pub struct Source {
    pub name: String,
    pub text: String,
}

/// One unit of work: a program and the binding it is compiled and run at.
pub struct Unit {
    pub label: String,
    pub program: usize,
    pub params: Vec<(String, i64)>,
}

pub struct Inputs {
    pub programs: Vec<Source>,
    pub units: Vec<Unit>,
}

/// Instantiable corpus nests drawn by `chains` and `bindings`.
const CORPUS_NESTS: usize = 8;
/// Bindings drawn per example nest on `bindings`.  The corpus nests, four
/// times as many as on `chains` so that no few of them sway the total, get
/// two each; with these, `bind_ms.p90` has well over ten samples beyond it
/// even in a single pass.
const BINDINGS_PER_NEST: usize = 16;

/// `chains`: nests whose plan is symbolic, at sizes where one unit takes
/// up to a few tenths of a second.
pub fn chains(seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = UnitList::default();
    // The examples' sizes are a fixed grid: somewhere inside these ranges
    // the executor switches from running inline to its worker pool, and a
    // drawn size would make that switch, and `run_s` with it, depend on the
    // seed.
    let ex1 = b.bundled("example1");
    for n1 in [36, 43, 51, 58, 66, 73, 81, 88] {
        b.unit(ex1, &[("N1", n1), ("N2", 2 * n1)]);
    }
    let ex2 = b.bundled("example2");
    for n in [44, 52, 60, 68, 76, 84, 92, 100] {
        b.unit(ex2, &[("N", n)]);
    }
    let uniform = b.bundled("uniform_chain");
    for n in stratified(&mut rng, 2500, 13000, 6) {
        b.unit(uniform, &[("N", n)]);
    }
    let (coupled, uncoupled) = corpus_nests(&mut rng, CORPUS_NESTS / 2);
    let sizes = stratified(&mut rng, 44, 68, CORPUS_NESTS);
    for (nest, n) in coupled.into_iter().chain(uncoupled).zip(sizes) {
        let program = b.source(nest);
        b.unit(program, &[("N", n)]);
    }
    b.finish(&mut rng)
}

/// One program of `dataflow`: its fixed parameters, the extent parameters
/// set to each drawn size, the size range and how many units it gets.
type Sweep = (
    &'static str,
    &'static [(&'static str, i64)],
    &'static [&'static str],
    i64,
    i64,
    usize,
);

/// `dataflow`: nests that take the concrete (dataflow) fallback, each at
/// a few extents drawn from strata of a range; shape parameters are
/// fixed.
pub fn dataflow(seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = UnitList::default();
    let grid: &[Sweep] = &[
        (
            "cholesky",
            &[("NMAT", 2), ("M", 3), ("NRHS", 1)],
            &["N"],
            9,
            13,
            2,
        ),
        ("lu", &[], &["N"], 10, 15, 4),
        ("jacobi1d", &[("TSTEPS", 10)], &["N"], 32, 48, 4),
        ("mvt", &[], &["N"], 14, 22, 4),
        ("tomcatv", &[], &["N"], 16, 24, 4),
        ("example3", &[], &["N"], 18, 30, 4),
        ("wavefront", &[], &["N"], 50, 90, 4),
        ("applu", &[], &["N"], 10, 16, 4),
        ("syr2k", &[("M", 8)], &["N"], 16, 24, 4),
        ("swim", &[], &["M", "N"], 20, 32, 4),
    ];
    for &(name, fixed, extents, lo, hi, count) in grid {
        let program = b.bundled(name);
        for n in stratified(&mut rng, lo, hi, count) {
            let mut params = fixed.to_vec();
            params.extend(extents.iter().map(|&param| (param, n)));
            b.unit(program, &params);
        }
    }
    b.finish(&mut rng)
}

/// `bindings`: example1 and example2 bound at many sizes, and many
/// instantiable corpus nests at two sizes each.  Sizes are stratified over
/// a range (one draw per stratum), so the latency distribution has no gap
/// for a percentile to sit in.
pub fn bindings(seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = UnitList::default();
    let ex1 = b.bundled("example1");
    for n1 in stratified(&mut rng, 16, 48, BINDINGS_PER_NEST) {
        b.unit(ex1, &[("N1", n1), ("N2", 2 * n1)]);
    }
    let ex2 = b.bundled("example2");
    for n in stratified(&mut rng, 24, 72, BINDINGS_PER_NEST) {
        b.unit(ex2, &[("N", n)]);
    }
    // Each shape spans the whole size range.
    let (coupled, uncoupled) = corpus_nests(&mut rng, 2 * CORPUS_NESTS);
    for shape in [coupled, uncoupled] {
        let mut sizes = stratified(&mut rng, 20, 64, 2 * shape.len());
        shuffle(&mut rng, &mut sizes);
        for (nest, pair) in shape.into_iter().zip(sizes.chunks(2)) {
            let program = b.source(nest);
            for &n in pair {
                b.unit(program, &[("N", n)]);
            }
        }
    }
    b.finish(&mut rng)
}

#[derive(Default)]
struct UnitList {
    programs: Vec<Source>,
    units: Vec<Unit>,
}

impl UnitList {
    fn bundled(&mut self, name: &str) -> usize {
        let source = bundled_loop(name).expect("every workload program is bundled");
        self.source(Source {
            name: name.to_string(),
            text: source.source.to_string(),
        })
    }

    fn source(&mut self, source: Source) -> usize {
        self.programs.push(source);
        self.programs.len() - 1
    }

    fn unit(&mut self, program: usize, params: &[(&str, i64)]) {
        let binding: Vec<String> = params.iter().map(|(p, v)| format!("{p}={v}")).collect();
        self.units.push(Unit {
            label: format!("{}[{}]", self.programs[program].name, binding.join(",")),
            program,
            params: params.iter().map(|(p, v)| (p.to_string(), *v)).collect(),
        });
    }

    fn finish(mut self, rng: &mut SmallRng) -> Inputs {
        shuffle(rng, &mut self.units);
        Inputs {
            programs: self.programs,
            units: self.units,
        }
    }
}

/// Corpus nests analysed per draw.  A fixed number (rather than "until
/// enough are instantiable") keeps the set-up work the same for every seed.
const CORPUS_CANDIDATES: usize = 40;

/// Draws at least [`CORPUS_CANDIDATES`] corpus nests and keeps the first
/// `per_shape` instantiable ones whose write subscripts are coupled and the
/// first `per_shape` whose are not, rendered back to `.loop` text.  The two
/// shapes differ about twofold in partitioning cost, so a fixed mix keeps
/// every seed's total work alike.
fn corpus_nests(rng: &mut SmallRng, per_shape: usize) -> (Vec<Source>, Vec<Source>) {
    let session = Session::with_config(Config::new().with_cold_caches());
    let (mut coupled, mut uncoupled) = (Vec::new(), Vec::new());
    let mut id = 0;
    while coupled.len() < per_shape || uncoupled.len() < per_shape || id < CORPUS_CANDIDATES {
        let nest = random_nest(rng, 0.45, id);
        id += 1;
        let text = rcp_lang::pretty(&nest);
        let instantiable = session
            .parse(&text, &nest.name)
            .is_ok_and(|analyzed| analyzed.symbolic_instantiability().is_none());
        let shape = if writes_coupled(&nest) {
            &mut coupled
        } else {
            &mut uncoupled
        };
        if instantiable && shape.len() < per_shape {
            shape.push(Source {
                name: nest.name,
                text,
            });
        }
    }
    (coupled, uncoupled)
}

/// True when a loop index appears in more than one dimension of the
/// nest's write reference.
fn writes_coupled(nest: &Program) -> bool {
    nest.statements().iter().any(|info| {
        info.stmt
            .refs
            .iter()
            .filter(|r| r.is_write())
            .any(|r| is_coupled_access(&nest.loop_access(info, r).matrix))
    })
}

/// One uniform draw from each of `count` equal strata of `lo..=hi`, in
/// stratum order, except that the last is `hi` itself: the largest unit,
/// which sets the peak memory, is the same for every seed.
fn stratified(rng: &mut SmallRng, lo: i64, hi: i64, count: usize) -> Vec<i64> {
    let count = count as i64;
    let width = (hi - lo + 1) as f64 / count as f64;
    (0..count)
        .map(|k| {
            let start = lo + (k as f64 * width).floor() as i64;
            let end = (lo + ((k + 1) as f64 * width).floor() as i64 - 1).max(start);
            if k == count - 1 {
                hi
            } else {
                rng.gen_range(start..=end)
            }
        })
        .collect()
}

fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i as i64) as usize;
        items.swap(i, j);
    }
}
