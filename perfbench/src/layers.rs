//! The per-layer metrics of a traced run. Every traced run reports every
//! metric, in one order; a layer that does no work in a workload's ops
//! reports 0 there.

use crate::spans::Tracer;
use crate::Outcome;
use rasa_sim::SimReport;

/// Layers a span's self time can be charged to, in report order. The
/// traced op's root span charges its own remainder to `unattributed`.
const SELF_LAYERS: [(&str, &str); 8] = [
    ("net", "self.net_ms"),
    ("json", "self.json_ms"),
    ("serve", "self.serve_ms"),
    ("runner", "self.runner_ms"),
    ("simulator", "self.simulator_ms"),
    ("trace", "self.trace_ms"),
    ("cpu", "self.cpu_ms"),
    ("unattributed", "self.unattributed_ms"),
];

/// Deterministic counters over the first ops of the traced window (a
/// fixed count, so they repeat exactly for a fixed seed).
#[derive(Default)]
pub struct Exact {
    pub visited_cycles: u64,
    pub simulated_cycles: u64,
    pub completion_events: u64,
    pub spec_forks: u64,
    pub spec_commits: u64,
    pub peak_resident: u64,
    pub runner_hits: u64,
    pub runner_misses: u64,
    pub runner_evictions: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub router_hits: u64,
    pub router_probes: u64,
    pub retries: u64,
    pub failovers: u64,
    pub remote_errors: u64,
}

impl Exact {
    /// Adds one simulated cell's scheduler and pipeline counters.
    pub fn add_cell(&mut self, report: &SimReport) {
        self.visited_cycles += report.sched.visited_cycles;
        self.simulated_cycles += report.simulated_core_cycles;
        self.completion_events += report.sched.completion_events;
        self.spec_forks += report.pipeline.spec_forks;
        self.spec_commits += report.pipeline.spec_commits;
        self.peak_resident = self
            .peak_resident
            .max(report.pipeline.peak_resident_instructions);
    }
}

/// Measurements a traced run takes outside the spans.
#[derive(Default)]
pub struct Extra {
    /// Instructions retired by the `cpu.run` replays.
    pub cpu_instructions: u64,
    /// Queue wait reported by `GemmResponse::latency`, summed.
    pub queue_seconds: f64,
    /// Allocations per op in the untraced window of the traced run.
    pub allocs_per_op: f64,
    /// Ops per second of op time in the untraced window of the traced
    /// run (the base of the tracing overhead).
    pub untraced_ops_per_s: f64,
    /// Nearest-rank p99 op latency of that untraced window.
    pub untraced_p99_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn emit(out: &mut Outcome, tracer: &Tracer, exact: &Exact, extra: &Extra) {
    let us = |name: &str| tracer.mean_seconds(name) * 1e6;
    let ms = |name: &str| tracer.mean_seconds(name) * 1e3;
    let total = |name: &str| tracer.total_seconds(name);
    let count = |name: &str| tracer.spans().iter().filter(|s| s.name == name).count() as f64;
    let selves = tracer.self_times();

    out.metric("trace.gen_ms", ms("trace.gemm"), "ms");
    out.metric("cpu.run_ms", ms("cpu.run"), "ms");
    out.metric(
        "cpu.sim_minstr_per_s",
        ratio(extra.cpu_instructions as f64 / 1e6, total("cpu.run")),
        "Minstr/s",
    );
    out.metric(
        "cpu.visited_cycle_frac",
        ratio(exact.visited_cycles as f64, exact.simulated_cycles as f64),
        "frac",
    );
    out.metric(
        "cpu.completion_events",
        exact.completion_events as f64,
        "count",
    );
    out.metric("simulator.cell_ms", ms("simulator.run_layer"), "ms");
    out.metric(
        "simulator.overlap",
        ratio(
            total("trace.gemm") + total("cpu.run"),
            total("simulator.run_layer"),
        ),
        "ratio",
    );
    out.metric("simulator.spec_forks", exact.spec_forks as f64, "count");
    out.metric(
        "simulator.spec_commit_rate",
        ratio(exact.spec_commits as f64, exact.spec_forks as f64),
        "frac",
    );
    out.metric(
        "simulator.peak_resident_instr",
        exact.peak_resident as f64,
        "count",
    );
    out.metric("runner.hit_us", us("runner.run_job"), "us");
    out.metric(
        "runner.hit_rate",
        ratio(
            exact.runner_hits as f64,
            (exact.runner_hits + exact.runner_misses) as f64,
        ),
        "frac",
    );
    out.metric("runner.evictions", exact.runner_evictions as f64, "count");
    out.metric("serve.submit_wait_us", us("serve.submit_wait"), "us");
    out.metric(
        "serve.queue_us",
        ratio(extra.queue_seconds * 1e6, count("serve.submit_wait")),
        "us",
    );
    out.metric(
        "serve.mean_batch",
        ratio(exact.batched_requests as f64, exact.batches as f64),
        "count",
    );
    out.metric("net.client_us", us("net.client"), "us");
    out.metric("net.route_hit_us", us("net.route_hit"), "us");
    out.metric("net.route_miss_us", us("net.route_miss"), "us");
    out.metric(
        "net.client_hop_us",
        ratio(
            (total("net.client") - total("net.route_hit") - total("net.route_miss")) * 1e6,
            count("net.client"),
        ),
        "us",
    );
    out.metric(
        "net.router_hit_rate",
        ratio(exact.router_hits as f64, exact.router_probes as f64),
        "frac",
    );
    out.metric("net.frame_encode_us", us("net.frame_encode"), "us");
    out.metric("net.frame_decode_us", us("net.frame_decode"), "us");
    out.metric("net.retries", exact.retries as f64, "count");
    out.metric("net.failovers", exact.failovers as f64, "count");
    out.metric("net.remote_errors", exact.remote_errors as f64, "count");
    out.metric("json.render_us", us("json.render"), "us");
    out.metric("json.parse_us", us("json.parse"), "us");
    out.metric("proc.allocs_per_op", extra.allocs_per_op, "count");
    out.metric(
        "proc.unattributed_frac",
        ratio(selves.per_op("unattributed"), selves.per_op_total()),
        "frac",
    );
    out.metric(
        "proc.tracing_overhead",
        1.0 - ratio(
            ratio(selves.ops as f64, selves.op_seconds),
            extra.untraced_ops_per_s,
        ),
        "frac",
    );
    out.metric("proc.p99_ms", extra.untraced_p99_s * 1e3, "ms");
    out.metric("self.op_ms", selves.per_op_total() * 1e3, "ms");
    for (layer, name) in SELF_LAYERS {
        out.metric(name, selves.per_op(layer) * 1e3, "ms");
    }
}
