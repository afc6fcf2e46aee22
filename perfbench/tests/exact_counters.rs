//! The per-layer counters a later change may claim a count change on must
//! repeat exactly: two traced runs with one seed report identical values.

use rasa_sim::JsonValue;
use std::process::Command;

/// Per-layer metrics that are deterministic counts or ratios of counts.
const EXACT: [&str; 12] = [
    "cpu.visited_cycle_frac",
    "cpu.completion_events",
    "simulator.spec_forks",
    "simulator.spec_commit_rate",
    "simulator.peak_resident_instr",
    "runner.hit_rate",
    "runner.evictions",
    "serve.mean_batch",
    "net.router_hit_rate",
    "net.retries",
    "net.failovers",
    "net.remote_errors",
];

/// Runs one traced workload and returns its result line.
fn traced_run(workload: &str, seed: &str) -> JsonValue {
    let output = Command::new(env!("CARGO_BIN_EXE_rasa-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            seed,
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload} exited with {}",
        output.status
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = JsonValue::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
    result
}

fn exact_values(result: &JsonValue) -> Vec<(&'static str, f64)> {
    let metrics = result.get("metrics").expect("metrics");
    EXACT
        .iter()
        .map(|&name| {
            let value = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("no metric {name}"));
            (name, value)
        })
        .collect()
}

fn assert_repeats(workload: &str) {
    let first = exact_values(&traced_run(workload, "7"));
    let second = exact_values(&traced_run(workload, "7"));
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        assert!(
            a.to_bits() == b.to_bits(),
            "{workload}: {name} read {a} then {b} with one seed"
        );
    }
}

#[test]
fn fullcell_counters_repeat() {
    assert_repeats("fullcell");
}

#[test]
fn serve_hot_counters_repeat() {
    assert_repeats("serve_hot");
}

#[test]
fn serve_miss_counters_repeat() {
    assert_repeats("serve_miss");
}
