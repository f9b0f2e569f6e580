//! The dense array store behaves like the sparse map it replaced, and every
//! execution route leaves bit-identical stores.
//!
//! * A seeded stream of writes and reads — negative subscripts, boxes
//!   growing in every direction, writes far enough out to make an array
//!   sparse, ranks 1 to 3 and one name used at two ranks — is applied both
//!   to `ArrayStore` and to a
//!   `HashMap<(String, IVec), f64>` model.  `get`, `written_len`, `diff`
//!   (mismatches and their order) and `==` must agree with the model.
//! * Every bundled `examples/loops/*.loop` file at small bindings and
//!   generated fuzz nests run through `execute_sequential`, the
//!   race-detecting executor (default and pool forced) and the trusted
//!   pool path (race detection off, pool forced, 2 and 4 threads, batches
//!   of 1 and of the default size); the stores must agree bit for bit.
//! * A nest whose writes lie 100000 apart, whose bounding box no memory
//!   could hold densely, runs on every route too.

use std::collections::HashMap;
use std::path::PathBuf;

use recurrence_chains::fuzz::generate;
use recurrence_chains::intlin::IVec;
use recurrence_chains::lang::parse_program;
use recurrence_chains::loopir::Program;
use recurrence_chains::runtime::{
    execute_schedule, execute_sequential, Array, ArrayStore, Footprint, ParallelExecutor,
};
use recurrence_chains::session::{Config, Session};
use recurrence_chains::workloads::SmallRng;

/// The campaign seed the generated nests are drawn from (the CLI's default
/// fuzz seed).
const FUZZ_SEED: u64 = 0xC0FFEE;

/// Number of generated nests checked.
const FUZZ_NESTS: usize = 120;

/// The sparse model: one map over every `(array, index)` written.
type Model = HashMap<(String, IVec), f64>;

/// `(name, rank)` of every array the model test touches: `a` at two ranks.
const ARRAYS: [(&str, usize); 4] = [("a", 1), ("a", 2), ("b", 3), ("c", 1)];

fn random_index(rng: &mut SmallRng, rank: usize, reach: i64) -> IVec {
    (0..rank).map(|_| rng.gen_range(-reach..=reach)).collect()
}

/// Applies `n` random writes (values from a small set, so two stores often
/// agree on an element) to both a store and the model.
fn random_writes(rng: &mut SmallRng, n: usize, store: &mut ArrayStore, model: &mut Model) {
    for _ in 0..n {
        let (name, rank) = ARRAYS[rng.gen_range(0..=3) as usize];
        // The reach widens as writes go on, so boxes keep growing in both
        // directions of every dimension; one write in sixteen lands far
        // out, which turns its array into a map of its elements.
        let reach = 2 + rng.gen_range(0..=12);
        let mut index = random_index(rng, rank, reach);
        if rng.gen_range(0..=15) == 0 {
            index[0] *= 1_000_000;
        }
        let value = rng.gen_range(0..=3) as f64 * 0.5;
        store.set(name, &index, value);
        model.insert((name.to_string(), index), value);
    }
}

fn model_get(model: &Model, name: &str, index: &[i64]) -> f64 {
    model
        .get(&(name.to_string(), index.to_vec()))
        .copied()
        .unwrap_or_else(|| Array::initial_value(index))
}

/// The sparse store's diff: the sorted union of written keys.
fn model_diff(left: &Model, right: &Model, tolerance: f64) -> Vec<(String, IVec, f64, f64)> {
    let mut keys: Vec<&(String, IVec)> = left.keys().chain(right.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter_map(|(name, index)| {
            let a = model_get(left, name, index);
            let b = model_get(right, name, index);
            ((a - b).abs() > tolerance).then(|| (name.clone(), index.clone(), a, b))
        })
        .collect()
}

fn assert_reads_agree(rng: &mut SmallRng, store: &ArrayStore, model: &Model) {
    for (name, rank) in ARRAYS {
        for _ in 0..50 {
            let index = random_index(rng, rank, 20);
            assert_eq!(
                store.get(name, &index).to_bits(),
                model_get(model, name, &index).to_bits(),
                "{name}{index:?}"
            );
        }
    }
    for (name, index) in model.keys() {
        assert_eq!(store.get(name, index), model_get(model, name, index));
    }
    assert_eq!(store.written_len(), model.len());
}

#[test]
fn dense_store_agrees_with_the_sparse_model() {
    let mut rng = SmallRng::seed_from_u64(0x5107E);
    let mut equal_pairs = 0;
    let mut sparse_arrays = 0;
    for round in 0..200 {
        let mut left = ArrayStore::new();
        let mut left_model = Model::new();
        random_writes(&mut rng, 40, &mut left, &mut left_model);
        assert_reads_agree(&mut rng, &left, &left_model);
        sparse_arrays += ARRAYS
            .iter()
            .filter_map(|&(name, rank)| left.array(name, rank))
            .filter(|array| !array.is_dense())
            .count();

        // The right store replays the left's elements in reverse order into
        // a footprint-sized or a growing store, then maybe diverges.
        let mut right = if round % 2 == 0 {
            let mut footprint = Footprint::new();
            for (name, index) in left_model.keys() {
                footprint.include(name, index);
            }
            ArrayStore::with_footprint(&footprint)
        } else {
            ArrayStore::new()
        };
        let mut right_model = Model::new();
        let mut elements: Vec<(&(String, IVec), &f64)> = left_model.iter().collect();
        elements.sort_by(|x, y| y.0.cmp(x.0));
        for ((name, index), &value) in elements {
            right.set(name, index, value);
            right_model.insert((name.clone(), index.clone()), value);
        }
        if round % 3 != 0 {
            let n = rng.gen_range(1..=10) as usize;
            random_writes(&mut rng, n, &mut right, &mut right_model);
        }
        assert_reads_agree(&mut rng, &right, &right_model);

        assert_eq!(left == right, left_model == right_model, "round {round}");
        equal_pairs += usize::from(left == right);
        for tolerance in [0.0, 0.6] {
            assert_eq!(
                left.diff(&right, tolerance),
                model_diff(&left_model, &right_model, tolerance),
                "round {round}, tolerance {tolerance}"
            );
        }
        assert_eq!(
            right.diff(&left, 0.0),
            model_diff(&right_model, &left_model, 0.0)
        );
    }
    assert!(
        equal_pairs > 0 && equal_pairs < 200,
        "{equal_pairs} equal pairs"
    );
    assert!(
        sparse_arrays > 0 && sparse_arrays < 200 * ARRAYS.len(),
        "{sparse_arrays} sparse arrays"
    );
}

/// Every written element of `store`, as `(array, index, value bits)` in
/// order, over the arrays `program` references.
fn store_bits(program: &Program, store: &ArrayStore) -> Vec<(String, IVec, u64)> {
    let mut keys: Vec<(String, usize)> = program
        .statements()
        .iter()
        .flat_map(|info| info.stmt.refs.iter().map(|r| (r.array.clone(), r.rank())))
        .collect();
    keys.sort();
    keys.dedup();
    let mut bits = Vec::new();
    for (name, rank) in keys {
        if let Some(array) = store.array(&name, rank) {
            array.for_each_written(|index, value| {
                bits.push((name.clone(), index.to_vec(), value.to_bits()));
            });
        }
    }
    assert_eq!(bits.len(), store.written_len(), "{}", program.name);
    bits
}

/// Runs the nest's default schedule through every route and asserts the
/// stores are bit-identical; returns the number of written elements.
fn assert_routes_agree(label: &str, program: &Program, params: &[(String, i64)]) -> usize {
    let config = Config {
        params: params.to_vec(),
        ..Config::default()
    };
    let scheduled = Session::with_config(config)
        .load(program.clone())
        .and_then(|analyzed| analyzed.partition())
        .and_then(|stage| stage.schedule())
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    let runtime_program = scheduled.partitioned().runtime_program().clone();
    let kernel = scheduled.kernel();
    let schedule = scheduled.schedule();
    let reference = execute_sequential(scheduled.sequential(), &kernel);
    let expected = store_bits(&runtime_program, &reference);

    let mut routes = vec![
        (
            "race-detecting".to_string(),
            execute_schedule(schedule, &kernel, 2),
        ),
        (
            "race-detecting pool".to_string(),
            ParallelExecutor::new(2)
                .with_sequential_fallback(false)
                .execute(schedule, &kernel),
        ),
    ];
    for threads in [2, 4] {
        for batch in [1, ParallelExecutor::DEFAULT_MIN_BATCH_INSTANCES] {
            let executor = ParallelExecutor::new(threads)
                .with_race_detection(false)
                .with_sequential_fallback(false)
                .with_min_batch_instances(batch);
            assert!(executor.uses_pool(schedule), "{label}: pool forced");
            routes.push((
                format!("trusted pool, {threads} threads, batch {batch}"),
                executor.execute(schedule, &kernel),
            ));
        }
    }
    for (route, result) in routes {
        assert!(result.race_free(), "{label}: {route} raced");
        assert_eq!(
            store_bits(&runtime_program, &result.store),
            expected,
            "{label}: {route} differs from execute_sequential"
        );
    }
    expected.len()
}

/// Small bindings for a bundled file: every parameter at `value`, except
/// Cholesky, whose four parameters get the golden-file binding scaled down.
fn bindings(program: &Program) -> Vec<Vec<(String, i64)>> {
    if program.params.len() == 4 {
        return vec![[("NMAT", 3), ("M", 2), ("N", 6), ("NRHS", 2)]
            .iter()
            .map(|(name, value)| (name.to_string(), *value))
            .collect()];
    }
    [1, 4, 7]
        .iter()
        .map(|&value| {
            program
                .params
                .iter()
                .map(|name| (name.clone(), value))
                .collect()
        })
        .collect()
}

#[test]
fn bundled_loops_leave_identical_stores_on_every_route() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/loops");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "loop"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 14, "bundled .loop files");
    let mut written = 0;
    for path in &files {
        let source = std::fs::read_to_string(path).unwrap();
        let program = parse_program(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for params in bindings(&program) {
            let label = format!("{} at {params:?}", path.display());
            written += assert_routes_agree(&label, &program, &params);
        }
    }
    assert!(written > 0);
}

#[test]
fn generated_nests_leave_identical_stores_on_every_route() {
    let mut written = 0;
    for id in 0..FUZZ_NESTS {
        let case = generate(FUZZ_SEED, id);
        let label = format!("fuzz case {id} ({})", case.program.name);
        written += assert_routes_agree(&label, &case.program, &case.params);
    }
    assert!(written > 0);
}

/// Writes `a(100000*I, 100000*J)`: a hundred elements over a box of about
/// 1e12 slots, and one rank-1 array strided the same way.
const FAR_APART: &str = "PROGRAM far_apart
PARAM N
DO I = 1, N
  DO J = 1, N
    S: a(100000 * I, 100000 * J) = a(100000 * I - 100000, 100000 * J), b(100000 * J)
  ENDDO
  T: b(100000 * I) = a(100000 * I, 100000 * N)
ENDDO
END
";

#[test]
fn far_apart_writes_leave_identical_stores_on_every_route() {
    let program = parse_program(FAR_APART).unwrap();
    let params = vec![("N".to_string(), 10)];
    assert_eq!(assert_routes_agree("far_apart", &program, &params), 110);
    let scheduled = Session::with_config(Config {
        params,
        ..Config::default()
    })
    .load(program)
    .and_then(|analyzed| analyzed.partition())
    .and_then(|stage| stage.schedule())
    .unwrap();
    let store = execute_sequential(scheduled.sequential(), &scheduled.kernel());
    assert!(!store.array("a", 2).unwrap().is_dense());
    let verdict = scheduled.verify_checked().unwrap();
    assert!(verdict.passed());
}
