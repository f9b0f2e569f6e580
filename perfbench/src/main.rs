//! `perfbench`: the recurrence-chains pipeline measured end to end and
//! layer by layer.  See `README.md` beside this crate for the workloads,
//! the metrics and how to read a traced run.
//!
//! ```text
//! perfbench --workload chains|dataflow|bindings --seed N --seconds S --trace 0|1
//!           [--threads T] [--out DIR] [--commit ID]
//! ```
//!
//! A run is a closed loop: the seeded unit list is run in passes, one unit
//! at a time, until `--seconds` have passed (the first pass always
//! completes; a traced run completes two).  Every sum is over one pass of
//! the list, each unit contributing the median of its passes, so a faster
//! program reads lower and a longer run reads steadier, never larger.
//! Every time is taken at a reference machine speed (see `calib`).  The
//! last line of standard output is the result object.

mod calib;
mod inputs;
mod pipeline;
mod report;
mod spans;

use pipeline::{Counts, Pipeline, Sample, Start, EXEC_PAIRS};
use rcp_json::{json, Json, ToJson};
use rcp_session::{Analyzed, Config, Session};
use report::{median, percentile, Metric};
use spans::Recorder;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The seed tuned against while changing the program.
const DEVELOPMENT_SEED: u64 = 1;
/// The seed a performance claim must also hold on, never tuned against.
const HELD_OUT_SEED: u64 = 2004;
/// Set-up runs this many times per run; `setup_s` is their median at the
/// reference speed.
const SETUP_REPEATS: usize = 15;

const USAGE: &str = "usage: perfbench --workload chains|dataflow|bindings --seed N \
                     --seconds S --trace 0|1 [--threads T] [--out DIR] [--commit ID]";

/// The layers a traced run attributes self time to, in pipeline order;
/// `check` is the benchmark's own reference replay, `uncovered` the part
/// of a unit no span covers.
const LAYERS: [&str; 8] = [
    "lang",
    "depend",
    "core",
    "codegen",
    "session",
    "runtime",
    "check",
    "uncovered",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Chains,
    Dataflow,
    Bindings,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "chains" => Some(Workload::Chains),
            "dataflow" => Some(Workload::Dataflow),
            "bindings" => Some(Workload::Bindings),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Chains => "chains",
            Workload::Dataflow => "dataflow",
            Workload::Bindings => "bindings",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: Option<usize>,
    out: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let mut take = |name: &str| flags.remove(name);
    let required =
        |value: Option<String>, name: &str| value.ok_or_else(|| format!("`--{name}` is required"));
    let workload_name = required(take("workload"), "workload")?;
    let workload = Workload::parse(&workload_name)
        .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
    let seed = required(take("seed"), "seed")?
        .parse()
        .map_err(|_| "`--seed` must be a non-negative integer".to_string())?;
    let seconds: u64 = required(take("seconds"), "seconds")?
        .parse()
        .map_err(|_| "`--seconds` must be a positive integer".to_string())?;
    if seconds == 0 {
        return Err("`--seconds` must be at least 1".to_string());
    }
    let trace = match required(take("trace"), "trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("`--trace` must be 0 or 1, not `{other}`")),
    };
    let threads = take("threads")
        .map(|t| t.parse::<usize>())
        .transpose()
        .map_err(|_| "`--threads` must be a positive integer".to_string())?;
    let out = PathBuf::from(take("out").unwrap_or_else(|| "perfbench/out".to_string()));
    let commit = take("commit").unwrap_or_else(|| "unknown".to_string());
    if let Some(unknown) = flags.keys().next() {
        return Err(format!("unknown flag `--{unknown}`"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        threads,
        out,
        commit,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = args.threads.unwrap_or(nproc);
    if threads == 0 || threads > nproc {
        eprintln!(
            "perfbench: refusing {threads} threads on a machine with {nproc} hardware threads"
        );
        return ExitCode::from(2);
    }
    match run(&args, threads, nproc) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The set-up result: the inputs, plus (on `bindings`) every nest analysed
/// and planned, with its screen counts.
struct Prepared {
    inputs: inputs::Inputs,
    analyzed: Vec<Analyzed>,
    pairs: usize,
    survivors: usize,
}

fn set_up(workload: Workload, seed: u64, session: &Session) -> Result<Prepared, String> {
    let inputs = match workload {
        Workload::Chains => inputs::chains(seed),
        Workload::Dataflow => inputs::dataflow(seed),
        Workload::Bindings => inputs::bindings(seed),
    };
    let mut prepared = Prepared {
        inputs,
        analyzed: Vec::new(),
        pairs: 0,
        survivors: 0,
    };
    if workload != Workload::Bindings {
        // Malformed generated input fails the run here, not as a unit.
        for source in &prepared.inputs.programs {
            rcp_lang::parse_program(&source.text)
                .map_err(|e| format!("set-up: {}: {e}", source.name))?;
        }
    } else {
        for source in &prepared.inputs.programs {
            let analyzed = session
                .parse(&source.text, &source.name)
                .map_err(|e| format!("set-up: {}: {e}", source.name))?;
            analyzed
                .plan()
                .map_err(|e| format!("set-up: {}: {e}", source.name))?;
            let screen = &analyzed
                .symbolic_analysis()
                .ok_or_else(|| format!("set-up: {} has no symbolic analysis", source.name))?
                .screen;
            prepared.pairs += screen.n_pairs;
            prepared.survivors += screen.n_pairs - screen.screened();
            prepared.analyzed.push(analyzed);
        }
    }
    Ok(prepared)
}

/// Solver-cache hits and misses seen during one unit.
#[derive(Default)]
struct CacheTally {
    emptiness: (u64, u64),
    solver: (u64, u64),
}

impl CacheTally {
    fn read() -> CacheTally {
        let snap = rcp_trace::snapshot();
        let c = |name: &str| snap.counter(name);
        CacheTally {
            emptiness: (
                c("presburger.cache.emptiness.hits"),
                c("presburger.cache.emptiness.misses"),
            ),
            solver: (
                c("intlin.cache.hnf.hits") + c("intlin.cache.dio.hits"),
                c("intlin.cache.hnf.misses") + c("intlin.cache.dio.misses"),
            ),
        }
    }

    fn add(&mut self, other: &CacheTally) {
        self.emptiness.0 += other.emptiness.0;
        self.emptiness.1 += other.emptiness.1;
        self.solver.0 += other.solver.0;
        self.solver.1 += other.solver.1;
    }

    fn minus(&self, before: &CacheTally) -> CacheTally {
        CacheTally {
            emptiness: (
                self.emptiness.0.saturating_sub(before.emptiness.0),
                self.emptiness.1.saturating_sub(before.emptiness.1),
            ),
            solver: (
                self.solver.0.saturating_sub(before.solver.0),
                self.solver.1.saturating_sub(before.solver.1),
            ),
        }
    }
}

fn hit_rate((hits, misses): (u64, u64)) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn run(args: &Args, threads: usize, nproc: usize) -> Result<(), String> {
    let origin = Instant::now();
    // Cold solver caches: every unit pays what a fresh `rcp run` pays, so
    // repeating a unit measures the same work each pass.  No partition
    // memo: every binding is partitioned afresh.
    let session = Session::with_config(
        Config::new()
            .with_threads(threads)
            .with_cold_caches()
            .without_partition_reuse(),
    );

    let (mut setup_times, mut raw_setup_times) = (Vec::new(), Vec::new());
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let factor = calib::factor();
        let start = Instant::now();
        let result = std::hint::black_box(set_up(args.workload, args.seed, &session)?);
        let elapsed = start.elapsed().as_secs_f64();
        raw_setup_times.push(elapsed);
        setup_times.push(elapsed * factor);
        prepared = Some(result);
    }
    let prepared = prepared.expect("SETUP_REPEATS is at least one");
    let units = &prepared.inputs.units;

    let pipeline = Pipeline { session, threads };
    let mut rec = Recorder::new(origin);
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); units.len()];
    let mut counts: Vec<Option<Counts>> = vec![None; units.len()];
    let mut cache = CacheTally::default();
    let mut peak_rss = Vec::new();
    let mut factors = BTreeMap::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let budget = Duration::from_secs(args.seconds);
    let min_passes = if args.trace { 2 } else { 1 };
    let loop_start = Instant::now();
    let mut pass = 0;
    'passes: loop {
        // A traced run alternates traced and untraced passes, so the
        // tracing overhead is measured on the same units in one process.
        let traced = args.trace && pass % 2 == 0;
        rcp_trace::set_enabled(traced);
        report::reset_peak_rss();
        for (index, unit) in units.iter().enumerate() {
            if pass >= min_passes && loop_start.elapsed() >= budget {
                break 'passes;
            }
            let start = match prepared.analyzed.get(unit.program) {
                Some(analyzed) => Start::Analyzed(analyzed),
                None => Start::Text(&prepared.inputs.programs[unit.program].text),
            };
            let factor = calib::factor();
            factors.insert((index, pass), factor);
            let before = CacheTally::read();
            rec.set_context(traced, index, pass);
            let root = rec.begin("unit");
            let depth = rec.depth();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                pipeline.run(&start, &unit.params, &mut rec)
            }));
            rec.close_to(depth);
            rec.end(root);
            let after = CacheTally::read();
            // Analysing a unit resets the counters with the caches, so
            // what they hold afterwards is that unit's; a bound unit
            // analyses nothing and reads a difference.
            cache.add(&match start {
                Start::Text(_) => after,
                Start::Analyzed(_) => after.minus(&before),
            });
            attempted += 1;
            let outcome = match outcome {
                Ok(result) => result,
                Err(payload) => Err(format!("panic: {}", panic_message(&*payload))),
            };
            let outcome = outcome.and_then(|(sample, unit_counts)| match &counts[index] {
                Some(first) if *first != unit_counts => Err(format!(
                    "counts changed between passes: {first:?} → {unit_counts:?}"
                )),
                _ => Ok((sample, unit_counts)),
            });
            match outcome {
                Ok((mut sample, unit_counts)) => {
                    sample.pass = pass;
                    sample.scale_to_reference(factor);
                    samples[index].push(sample);
                    counts[index] = Some(unit_counts);
                }
                Err(reason) => {
                    failed += 1;
                    if failed <= 10 {
                        eprintln!("perfbench: {} failed: {reason}", unit.label);
                    }
                }
            }
        }
        pass += 1;
        peak_rss.push(report::peak_rss_mb());
        if pass >= min_passes && loop_start.elapsed() >= budget {
            break;
        }
    }
    rcp_trace::set_enabled(false);

    let total_counts = sum_counts(&counts, &prepared);
    // Complete passes only, so every unit weighs the same in the
    // percentiles.
    let bind_ms: Vec<f64> = samples
        .iter()
        .flatten()
        .filter(|s| s.pass < pass && (!args.trace || s.traced))
        .map(|s| s.bind() * 1e3)
        .collect();
    let bind_p90 = percentile(&bind_ms, 0.9);
    let env = json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seed_role": seed_role(args.seed),
        "seconds": args.seconds,
        "trace": u8::from(args.trace),
        "nproc": nproc,
        "threads": threads,
        "profile": build_profile(),
        "commit": args.commit.as_str(),
        "units": units.len(),
        "passes": pass,
        "exec_pairs": EXEC_PAIRS,
        "attempted": attempted,
        "checked": attempted - failed,
        "failed": failed,
        "bind_samples": bind_ms.len(),
        "bind_samples_beyond_p90": bind_ms.iter().filter(|&&ms| ms > bind_p90).count(),
    });
    println!("env {env}");
    let counts_json = counts_json(&total_counts);
    println!("counts {counts_json}");

    let all = |s: &Sample| !args.trace || s.traced;
    let metrics = if args.trace {
        let self_times = layer_self_times(&rec.self_times(), &factors, units.len());
        print_self_times(&self_times);
        let program_spans = rcp_trace::span_tree();
        print_program_spans(&program_spans);
        let traced_total = sum_of_medians(&samples, |s| s.traced, total_of);
        let untraced_total = sum_of_medians(&samples, |s| !s.traced, total_of);
        let overhead = if untraced_total > 0.0 {
            traced_total / untraced_total - 1.0
        } else {
            0.0
        };
        println!("trace.overhead_frac {overhead:.4} (traced {traced_total:.4} s, untraced {untraced_total:.4} s per pass)");
        let traced = |s: &Sample| s.traced;
        let phase_ms: Vec<f64> = samples
            .iter()
            .flatten()
            .filter(|s| s.traced)
            .flat_map(|s| s.phase_ms.iter().copied())
            .collect();
        let frac = |n: usize| n as f64 / units.len().max(1) as f64;
        let mut m = vec![
            Metric::new(
                "lang.parse_s",
                sum_of_medians(&samples, traced, |s| s.parse),
                "s",
            ),
            Metric::new(
                "depend.analyze_s",
                sum_of_medians(&samples, traced, |s| s.analyze),
                "s",
            ),
            Metric::new("depend.pairs", total_counts.pairs as f64, "count"),
            Metric::new("depend.survivors", total_counts.survivors as f64, "count"),
            Metric::new(
                "presburger.emptiness_hit_rate",
                hit_rate(cache.emptiness),
                "frac",
            ),
            Metric::new("intlin.solver_hit_rate", hit_rate(cache.solver), "frac"),
            Metric::new(
                "core.plan_s",
                sum_of_medians(&samples, traced, |s| s.plan),
                "s",
            ),
            Metric::new(
                "core.partition_s",
                sum_of_medians(&samples, traced, |s| s.partition),
                "s",
            ),
            Metric::new(
                "core.instantiated_frac",
                frac(total_counts.instantiated),
                "frac",
            ),
            Metric::new("core.instances", total_counts.instances as f64, "count"),
            Metric::new(
                "core.critical_path",
                total_counts.critical_path as f64,
                "count",
            ),
            Metric::new(
                "codegen.schedule_s",
                sum_of_medians(&samples, traced, |s| s.schedule),
                "s",
            ),
            Metric::new("codegen.phases", total_counts.phases as f64, "count"),
            Metric::new(
                "codegen.sequential_s",
                sum_of_medians(&samples, traced, |s| s.sequential),
                "s",
            ),
            Metric::new(
                "runtime.exec_par_s",
                sum_of_list_medians(&samples, traced, |s| &s.par),
                "s",
            ),
            Metric::new(
                "runtime.exec_t1_s",
                sum_of_medians(&samples, traced, |s| s.t1.unwrap_or(0.0)),
                "s",
            ),
            Metric::new(
                "runtime.exec_seq_s",
                sum_of_list_medians(&samples, traced, |s| &s.seq),
                "s",
            ),
            Metric::new("runtime.pool_frac", frac(total_counts.pool), "frac"),
            Metric::new("runtime.phase_ms.p50", percentile(&phase_ms, 0.5), "ms"),
            Metric::new("runtime.phase_ms.p90", percentile(&phase_ms, 0.9), "ms"),
            Metric::new(
                "runtime.store_elems",
                total_counts.store_elems as f64,
                "count",
            ),
            Metric::new(
                "runtime.diff_s",
                sum_of_medians(&samples, traced, |s| s.diff),
                "s",
            ),
        ];
        for layer in LAYERS {
            let name = match layer {
                "check" => "trace.check_s".to_string(),
                "uncovered" => "trace.uncovered_s".to_string(),
                _ => format!("{layer}.self_s"),
            };
            m.push(Metric::new(&name, self_times[layer], "s"));
        }
        m.push(Metric::new("trace.overhead_frac", overhead, "frac"));
        write_trace_files(args, &rec, &program_spans, &self_times)?;
        m
    } else {
        let compile = sum_of_medians(&samples, all, Sample::compile);
        let run_s = sum_of_list_medians(&samples, all, |s| &s.par);
        let seq = sum_of_list_medians(&samples, all, |s| &s.seq);
        let verify = sum_of_medians(&samples, all, Sample::verification);
        vec![
            Metric::new("setup_s", median(&setup_times), "s"),
            Metric::new("compile_s", compile, "s"),
            Metric::new("run_s", run_s, "s"),
            Metric::new("speedup", seq / run_s, "x"),
            Metric::new("verify_s", verify, "s"),
            Metric::new("total_s", compile + run_s + verify, "s"),
            Metric::new("bind_ms.p50", percentile(&bind_ms, 0.5), "ms"),
            Metric::new("bind_ms.p90", bind_p90, "ms"),
            Metric::new("peak_rss_mb", median(&peak_rss), "MiB"),
            Metric::new(
                "pass_frac",
                (attempted - failed) as f64 / attempted.max(1) as f64,
                "frac",
            ),
        ]
    };

    // Wall-clock figures behind the reference-speed ones, for the record.
    let wall_clock = json!({
        "speed_factor_median": median(&factors.values().copied().collect::<Vec<_>>()),
        "compile_s": sum_of_medians(&samples, all, |s| s.compile() / s.factor),
        "verify_s": sum_of_medians(&samples, all, |s| s.verification() / s.factor),
        "setup_s": median(&raw_setup_times),
    });
    println!("wall-clock {wall_clock}");
    let metrics = report::metrics_json(&metrics);
    let units_json: Vec<Json> = units.iter().zip(&samples).map(unit_row).collect();
    let doc = json!({
        "env": env,
        "counts": counts_json,
        "metrics": metrics,
        "wall_clock": wall_clock,
        "units": units_json,
    });
    write_file(args, &format!("{}.json", file_stem(args)), &doc.to_string())?;
    let result = json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    });
    println!("{result}");
    Ok(())
}

fn seed_role(seed: u64) -> &'static str {
    match seed {
        DEVELOPMENT_SEED => "development",
        HELD_OUT_SEED => "held-out",
        _ => "other",
    }
}

fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_string())
}

/// Compile + parallel run + verification of one pass of one unit.
fn total_of(s: &Sample) -> f64 {
    s.compile() + median(&s.par) + s.verification()
}

/// Σ over units of the median over that unit's selected passes.
fn sum_of_medians(
    samples: &[Vec<Sample>],
    select: impl Fn(&Sample) -> bool,
    value: impl Fn(&Sample) -> f64,
) -> f64 {
    samples
        .iter()
        .map(|unit| {
            let values: Vec<f64> = unit.iter().filter(|s| select(s)).map(&value).collect();
            median(&values)
        })
        .sum()
}

/// Like [`sum_of_medians`], for quantities measured several times a pass.
fn sum_of_list_medians(
    samples: &[Vec<Sample>],
    select: impl Fn(&Sample) -> bool,
    values: impl Fn(&Sample) -> &[f64],
) -> f64 {
    samples
        .iter()
        .map(|unit| {
            let all: Vec<f64> = unit
                .iter()
                .filter(|s| select(s))
                .flat_map(|s| values(s).iter().copied())
                .collect();
            median(&all)
        })
        .sum()
}

/// Counts over one pass of the unit list.
#[derive(Default)]
struct TotalCounts {
    pairs: usize,
    survivors: usize,
    instances: usize,
    critical_path: usize,
    instantiated: usize,
    phases: usize,
    pool: usize,
    store_elems: usize,
}

fn sum_counts(counts: &[Option<Counts>], prepared: &Prepared) -> TotalCounts {
    let mut total = TotalCounts {
        pairs: prepared.pairs,
        survivors: prepared.survivors,
        ..TotalCounts::default()
    };
    let bound = !prepared.analyzed.is_empty();
    for c in counts.iter().flatten() {
        // On `bindings` the analysis ran once per nest in set-up; every
        // binding of a nest shares it.
        if !bound {
            total.pairs += c.pairs;
            total.survivors += c.survivors;
        }
        total.instances += c.instances;
        total.critical_path += c.critical_path;
        total.instantiated += usize::from(c.instantiated);
        total.phases += c.phases;
        total.pool += usize::from(c.pool);
        total.store_elems += c.store_elems;
    }
    total
}

fn counts_json(c: &TotalCounts) -> Json {
    json!({
        "depend.pairs": c.pairs,
        "depend.survivors": c.survivors,
        "core.instances": c.instances,
        "core.critical_path": c.critical_path,
        "core.instantiated": c.instantiated,
        "codegen.phases": c.phases,
        "runtime.pool": c.pool,
        "runtime.store_elems": c.store_elems,
    })
}

/// Per layer: Σ over units of the median over that unit's traced passes
/// of the layer's self time, at the reference speed.
fn layer_self_times(
    table: &BTreeMap<(usize, usize), BTreeMap<&'static str, f64>>,
    factors: &BTreeMap<(usize, usize), f64>,
    n_units: usize,
) -> BTreeMap<&'static str, f64> {
    let mut per_unit: Vec<BTreeMap<&'static str, Vec<f64>>> = vec![BTreeMap::new(); n_units];
    for (key, layers) in table {
        let factor = factors.get(key).copied().unwrap_or(1.0);
        for layer in LAYERS {
            per_unit[key.0]
                .entry(layer)
                .or_default()
                .push(layers.get(layer).copied().unwrap_or(0.0) * factor);
        }
    }
    LAYERS
        .iter()
        .map(|&layer| {
            let total = per_unit
                .iter()
                .map(|unit| unit.get(layer).map_or(0.0, |v| median(v)))
                .sum();
            (layer, total)
        })
        .collect()
}

fn print_self_times(self_times: &BTreeMap<&'static str, f64>) {
    let total: f64 = self_times.values().sum();
    println!("self time per pass at the reference speed (Σ over units of per-unit medians over traced passes):");
    for layer in LAYERS {
        let secs = self_times[layer];
        let share = if total > 0.0 { secs / total * 1e2 } else { 0.0 };
        let note = match layer {
            "depend" => "  (presburger and intlin run inside depend's calls)",
            "session" => "  (Scheduled::verify: sequential run, racing parallel run, diff)",
            "check" => "  (benchmark's own reference replay)",
            "uncovered" => "  (part of a unit no span covers)",
            _ => "",
        };
        println!("  {layer:<10} {secs:>10.4} s {share:>6.1}%{note}");
    }
    println!("  {:<10} {total:>10.4} s", "unit");
}

fn print_program_spans(nodes: &[rcp_trace::SpanNode]) {
    fn walk(nodes: &[rcp_trace::SpanNode], depth: usize) {
        for node in nodes {
            println!(
                "  {:indent$}{} x{} {:.4} s",
                "",
                node.name,
                node.count,
                node.total_ns as f64 * 1e-9,
                indent = depth * 2
            );
            walk(&node.children, depth + 1);
        }
    }
    if !nodes.is_empty() {
        println!("program spans (totals over traced passes):");
        walk(nodes, 0);
    }
}

fn program_spans_json(nodes: &[rcp_trace::SpanNode]) -> Json {
    Json::Array(
        nodes
            .iter()
            .map(|node| {
                json!({
                    "name": node.name,
                    "count": node.count,
                    "total_s": node.total_ns as f64 * 1e-9,
                    "children": program_spans_json(&node.children),
                })
            })
            .collect(),
    )
}

fn file_stem(args: &Args) -> String {
    format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    )
}

fn write_file(args: &Args, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let path = args.out.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn write_trace_files(
    args: &Args,
    rec: &Recorder,
    program_spans: &[rcp_trace::SpanNode],
    self_times: &BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    write_file(
        args,
        &format!("{}.spans.jsonl", file_stem(args)),
        &rec.to_jsonl(),
    )?;
    let doc = json!({
        "self_s": self_times.to_json(),
        "program_spans": program_spans_json(program_spans),
    });
    write_file(
        args,
        &format!("{}.layers.json", file_stem(args)),
        &doc.to_string(),
    )
}

/// One unit's row in the result file: its medians and its per-pass values.
fn unit_row((unit, samples): (&inputs::Unit, &Vec<Sample>)) -> Json {
    let med = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let per_pass = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    json!({
        "unit": unit.label.as_str(),
        "passes": samples.len(),
        "compile_s": med(Sample::compile),
        "bind_s": med(Sample::bind),
        "verify_s": med(Sample::verification),
        "par_s": med(|s| median(&s.par)),
        "seq_s": med(|s| median(&s.seq)),
        "compile_s_by_pass": per_pass(Sample::compile),
        "verify_s_by_pass": per_pass(Sample::verification),
        "par_s_by_pass": per_pass(|s| median(&s.par)),
        "factor_by_pass": per_pass(|s| s.factor),
    })
}
