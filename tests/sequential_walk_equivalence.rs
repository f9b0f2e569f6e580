//! The loop-tree walk that builds program order is item-for-item identical
//! to the unified-space route it replaced.
//!
//! `Schedule::sequential` is built from `Program::enumerate_instances`, a
//! direct walk of the loop tree, and partition points are expanded into
//! work items by one `PointExpander` per schedule.  The route they replace
//! — enumerate the statement-level Presburger space
//! (`unified_iteration_space().bind_params(..).enumerate()`) and decode
//! every point with `decode_instance`, re-deriving the program's statement
//! layout per point — lives on only here, as the oracle.  Both are checked
//! on every bundled `examples/loops/*.loop` file at small bindings and on
//! generated fuzz nests:
//!
//! * the sequential schedule equals the unified-space route in content and
//!   order;
//! * the expander equals the per-point expansion on every point of the
//!   nest's partition, at each granularity the session accepts.

use std::path::PathBuf;

use recurrence_chains::codegen::{Phase, PointExpander, Schedule, WorkItem};
use recurrence_chains::core::ConcretePartition;
use recurrence_chains::depend::{DependenceAnalysis, Granularity};
use recurrence_chains::fuzz::generate;
use recurrence_chains::intlin::IVec;
use recurrence_chains::lang::parse_program;
use recurrence_chains::loopir::Program;
use recurrence_chains::session::{Config, GranularityChoice, Session};

/// The campaign seed the generated nests are drawn from (the CLI's default
/// fuzz seed).
const FUZZ_SEED: u64 = 0xC0FFEE;

/// Number of generated nests checked.
const FUZZ_NESTS: usize = 120;

/// The unified-space route: every point of the bound statement-level
/// iteration space, in lexicographic order, decoded into an instance.
fn unified_route(program: &Program, values: &[i64]) -> Vec<WorkItem> {
    program
        .unified_iteration_space()
        .bind_params(values)
        .enumerate()
        .into_iter()
        .map(|point| {
            let (stmt, indices) = program
                .decode_instance(&point)
                .unwrap_or_else(|| panic!("{}: {point:?} decodes to nothing", program.name));
            WorkItem::single(stmt, indices)
        })
        .collect()
}

/// Asserts `Schedule::sequential` is the unified-space route, item for
/// item; returns the number of instances.
fn assert_sequential_matches(label: &str, program: &Program, values: &[i64]) -> usize {
    let schedule = Schedule::sequential(program, values);
    assert_eq!(schedule.name, format!("{}-sequential", program.name));
    let [Phase::ChainSet(chains)] = schedule.phases.as_slice() else {
        panic!("{label}: sequential schedule is not one chain set");
    };
    let [chain] = chains.as_slice() else {
        panic!("{label}: sequential schedule is not one chain");
    };
    let oracle = unified_route(program, values);
    assert_eq!(chain.len(), oracle.len(), "{label}: instance counts differ");
    for (k, (walked, decoded)) in chain.iter().zip(&oracle).enumerate() {
        assert_eq!(walked, decoded, "{label}: item {k} differs");
    }
    chain.len()
}

/// The per-point expansion the expander replaced: the program's statement
/// layout is re-derived for every point.
fn expand_per_point(analysis: &DependenceAnalysis, values: &[i64], point: &IVec) -> WorkItem {
    let program = &analysis.program;
    match (analysis.granularity, analysis.view.groups()) {
        (Granularity::LoopLevel, Some(groups)) => {
            let group = groups
                .iter()
                .find(|g| g.group as i64 == point[0])
                .expect("aggregated point names a loop group");
            WorkItem {
                instances: program.enumerate_group_instances(
                    group,
                    &point[1..1 + group.depth()],
                    values,
                ),
            }
        }
        (Granularity::LoopLevel, None) => WorkItem {
            instances: program
                .statements()
                .iter()
                .map(|info| (info.id, point.clone()))
                .collect(),
        },
        (Granularity::StatementLevel, _) => {
            let (stmt, indices) = program
                .decode_instance(point)
                .expect("partition point decodes to a statement instance");
            WorkItem::single(stmt, indices)
        }
    }
}

/// Every point of a concrete partition, in schedule order.
fn partition_points(partition: &ConcretePartition) -> Vec<IVec> {
    match partition {
        ConcretePartition::RecurrenceChains { p1, chains, p3, .. } => p1
            .iter()
            .cloned()
            .chain(chains.iter().flat_map(|c| c.iterations.iter().cloned()))
            .chain(p3.iter().cloned())
            .collect(),
        ConcretePartition::Dataflow { stages } => stages
            .stages
            .iter()
            .flat_map(|stage| stage.iter().cloned())
            .collect(),
    }
}

/// Which expansion shapes the expander checks reached.
#[derive(Default)]
struct Shapes {
    nest: usize,
    groups: usize,
    statements: usize,
}

/// Stages the nest at every granularity the session accepts and asserts
/// the expander equals the per-point expansion on every partition point.
fn assert_expander_matches(
    label: &str,
    program: &Program,
    params: &[(String, i64)],
    shapes: &mut Shapes,
) {
    for granularity in [
        GranularityChoice::Auto,
        GranularityChoice::Loop,
        GranularityChoice::Statement,
    ] {
        let config = Config {
            params: params.to_vec(),
            granularity,
            ..Config::default()
        };
        let Ok(stage) = Session::with_config(config)
            .load(program.clone())
            .and_then(|analyzed| analyzed.partition())
        else {
            // Loop level is refused, with a typed error, for programs with
            // no loop-level view.
            assert_eq!(granularity, GranularityChoice::Loop, "{label}");
            continue;
        };
        let analysis = stage.analysis();
        let values = stage.runtime_values();
        match (analysis.granularity, analysis.view.groups()) {
            (Granularity::LoopLevel, Some(_)) => shapes.groups += 1,
            (Granularity::LoopLevel, None) => shapes.nest += 1,
            (Granularity::StatementLevel, _) => shapes.statements += 1,
        }
        let expander = PointExpander::new(analysis, values);
        let points = partition_points(stage.partition());
        // An aggregated point may execute no instance (its inner loops are
        // zero-trip), so only a program with instances must have points.
        assert!(
            !points.is_empty() || stage.runtime_program().count_instances(values) == 0,
            "{label} ({granularity:?}): no partition points"
        );
        for point in &points {
            assert_eq!(
                expander.expand(point),
                expand_per_point(analysis, values, point),
                "{label} ({granularity:?}): point {point:?} expands differently"
            );
        }
    }
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
    [1, 3, 6]
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
fn bundled_loops_walk_like_the_unified_space() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/loops");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "loop"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 14, "bundled .loop files");
    let mut shapes = Shapes::default();
    for path in &files {
        let source = std::fs::read_to_string(path).unwrap();
        let program = parse_program(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for params in bindings(&program) {
            let label = format!("{} at {params:?}", path.display());
            let values: Vec<i64> = params.iter().map(|(_, value)| *value).collect();
            assert_sequential_matches(&label, &program, &values);
            assert_expander_matches(&label, &program, &params, &mut shapes);
        }
    }
    assert!(shapes.nest > 0 && shapes.groups > 0 && shapes.statements > 0);
}

#[test]
fn generated_nests_walk_like_the_unified_space() {
    let mut shapes = Shapes::default();
    let mut instances = 0;
    for id in 0..FUZZ_NESTS {
        let case = generate(FUZZ_SEED, id);
        let label = format!("fuzz case {id} ({})", case.program.name);
        instances += assert_sequential_matches(&label, &case.program, &case.values());
        assert_expander_matches(&label, &case.program, &case.params, &mut shapes);
    }
    assert!(instances > 0);
    assert!(shapes.nest > 0 && shapes.groups > 0 && shapes.statements > 0);
}
