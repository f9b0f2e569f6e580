//! The count metrics depend only on the inputs, so two runs of one seed
//! must print the same counts; later count-based claims rest on this.
//! Also checks that a thread count above the machine's is refused.

use rcp_json::Json;
use std::process::Command;

fn run(workload: &str, seed: &str, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", "0", "--out", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("the benchmark binary runs")
}

fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    for workload in ["chains", "dataflow", "bindings"] {
        let mut seen = Vec::new();
        for _ in 0..2 {
            let out = run(workload, "7", &[]);
            assert!(out.status.success(), "{workload}: {out:?}");
            let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            assert_eq!(
                result["correct"].as_bool(),
                Some(true),
                "{workload}: {last}"
            );
            assert_eq!(result["failed"].as_u64(), Some(0), "{workload}: {last}");
            seen.push(line(&stdout, "counts ").to_string());
        }
        assert_eq!(seen[0], seen[1], "{workload}: counts differ between runs");
    }
}

#[test]
fn more_threads_than_the_machine_has_are_refused() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let out = run("chains", "7", &["--threads", &(nproc + 1).to_string()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "no result may be printed: {out:?}");
}
