//! End-to-end and per-layer benchmark of the RASA simulator and its
//! serving tier.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 27 --trace 0
//! ```
//!
//! Three workloads, one process each (so CPU time and peak RSS cover
//! every thread of the workload and nothing else):
//!
//! - `fullcell` — full-fidelity ResNet50-2 cells through
//!   `Simulator::run_layer`, alternating BASELINE and RASA-DMDB-WLS;
//! - `serve_hot` — a seeded Zipf stream over 792 cell keys through an
//!   in-process two-shard tier (router cache + shard runner cache hits);
//! - `serve_miss` — a seeded shuffle of unique keys through the same tier
//!   (every request simulates one capped cell).
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! same inputs through successively lower public entry points, records
//! spans, and reports the per-layer metrics. `DESIGN.md` beside this
//! crate records why each workload exists and what every metric means.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod fullcell;
mod layers;
mod measure;
mod serve;
mod spans;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main` for printing.
#[derive(Default)]
pub struct Outcome {
    /// Ops issued (timed and traced windows).
    pub attempted: u64,
    /// Ops that errored or whose output failed a correctness check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

const USAGE: &str = "usage: rasa-perfbench --workload fullcell|serve_hot|serve_miss \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Ops whose spans a traced run writes out (every op's spans feed the
/// per-layer metrics).
const DUMPED_OPS: u64 = 5000;

/// Writes a traced run's spans to `out/` beside this crate's manifest. A
/// failed write loses the span dump, not the run's metrics.
pub fn write_spans(tracer: &spans::Tracer, args: &Args) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match tracer.write_jsonl(&path, DUMPED_OPS) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(error) => eprintln!("warning: writing {}: {error}", path.display()),
    }
}

/// Renders the result line. Values are printed with every digit Rust's
/// shortest round-trip formatting gives; a non-finite value is a bug.
fn result_json(correct: bool, outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let outcome = match args.workload.as_str() {
        "fullcell" => fullcell::run(&args, started),
        "serve_hot" => serve::run(serve::Mix::Hot, &args, started),
        "serve_miss" => serve::run(serve::Mix::Miss, &args, started),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed={} trace={} attempted={} failed={} ({:.4} failed share)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for m in &outcome.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!("{}", result_json(correct, &outcome));
    ExitCode::SUCCESS
}
