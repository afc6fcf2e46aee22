//! `fullcell`: one full-fidelity ResNet50-2 cell per op, alternating
//! BASELINE and RASA-DMDB-WLS, through `Simulator::run_layer` on the
//! default pipeline (streamed; uncapped cells speculate). The serving
//! tier is absent. The inputs are fixed, so the seed is not used.

use crate::layers::{self, Exact, Extra};
use crate::measure::{self, Slicer, SLICE_S};
use crate::spans::Tracer;
use crate::{Args, Outcome};
use rasa_cpu::CpuCore;
use rasa_sim::{DesignPoint, SimReport, Simulator};
use rasa_systolic::MatrixEngine;
use rasa_trace::{GemmKernelConfig, TraceGenerator};
use rasa_workloads::{resnet50_layers, LayerSpec};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median. One set-up is
/// two cells, whose wall time varies by a fifth from cell to cell.
const SETUP_REPEATS: usize = 7;

/// Cells whose counters the exact per-layer metrics cover: one per design.
const EXACT_OPS: u64 = 2;

/// What every ResNet50-2 cell must report, per design.
struct Pinned {
    design: fn() -> DesignPoint,
    core_cycles: u64,
    retired_instructions: u64,
}

const RASA_MM: u64 = 451_584;

const PINNED: [Pinned; 2] = [
    Pinned {
        design: DesignPoint::baseline,
        core_cycles: 171_601_980,
        retired_instructions: 1_404_928,
    },
    Pinned {
        design: DesignPoint::rasa_dmdb_wls,
        core_cycles: 28_901_568,
        retired_instructions: 1_404_928,
    },
];

fn layer() -> LayerSpec {
    resnet50_layers()
        .into_iter()
        .find(|l| l.name() == "ResNet50-2")
        .expect("Table I has ResNet50-2")
}

/// The two simulators, uncapped.
fn simulators() -> Result<Vec<Simulator>, String> {
    PINNED
        .iter()
        .map(|p| {
            Simulator::new((p.design)())
                .and_then(|s| s.with_matmul_cap(None))
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// Whether a cell matches the pinned counts; prints the divergence.
fn check(report: &SimReport, pinned: &Pinned) -> bool {
    let ok = report.core_cycles == pinned.core_cycles
        && report.cpu.retired_instructions == pinned.retired_instructions
        && report.simulated_matmuls == RASA_MM
        && report.total_matmuls == RASA_MM
        && report.cpu.retired_matmuls == RASA_MM;
    if !ok {
        eprintln!(
            "fullcell: {} diverged: core_cycles {} (pinned {}), retired_instructions {} \
             (pinned {}), rasa_mm {}/{} retired {} (pinned {RASA_MM})",
            report.design,
            report.core_cycles,
            pinned.core_cycles,
            report.cpu.retired_instructions,
            pinned.retired_instructions,
            report.simulated_matmuls,
            report.total_matmuls,
            report.cpu.retired_matmuls
        );
    }
    ok
}

/// Builds the simulators and runs one warm-up cell per design (counted
/// in `out`'s attempted and failed ops).
fn set_up(layer: &LayerSpec, out: &mut Outcome) -> Result<Vec<Simulator>, String> {
    let sims = simulators()?;
    for (sim, pinned) in sims.iter().zip(&PINNED) {
        let report = sim.run_layer(layer).map_err(|e| e.to_string())?;
        out.attempted += 1;
        out.failed += u64::from(!check(&report, pinned));
    }
    Ok(sims)
}

/// Runs cells, alternating the designs, until `slices` slices of
/// `slice_s` seconds are complete.
fn timed_cells(
    sims: &[Simulator],
    layer: &LayerSpec,
    slice_s: f64,
    slices: usize,
    failed: &mut u64,
) -> Result<Slicer, String> {
    let mut slicer = Slicer::start(slice_s)?;
    let mut op = 0usize;
    while slicer.slices.len() < slices {
        let d = op % 2;
        let t = Instant::now();
        let report = sims[d].run_layer(layer).map_err(|e| e.to_string())?;
        slicer.record(t.elapsed().as_secs_f64())?;
        *failed += u64::from(!check(&report, &PINNED[d]));
        op += 1;
    }
    Ok(slicer)
}

pub fn run(args: &Args, started: Instant) -> Result<Outcome, String> {
    let layer = layer();
    let mut out = Outcome::default();
    if args.trace {
        return traced(args, &layer, out);
    }
    let mut setups = Vec::new();
    let mut since = started;
    let mut sims = Vec::new();
    for _ in 0..SETUP_REPEATS {
        sims = set_up(&layer, &mut out)?;
        setups.push(since.elapsed().as_secs_f64());
        since = Instant::now();
    }
    let slices = ((args.seconds / SLICE_S).round() as usize).max(1);
    let slicer = timed_cells(&sims, &layer, SLICE_S, slices, &mut out.failed)?;
    let peak_rss = measure::peak_rss_mb()?;
    out.attempted += slicer.all.len() as u64;
    println!(
        "fullcell: {} cells in {} slices of {SLICE_S} s",
        slicer.all.len(),
        slicer.slices.len()
    );
    let (ops_per_s, p50, cpu_per_op) = measure::slice_medians(&slicer.slices);
    out.metric("setup_s", measure::median(&setups), "s");
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("p50_ms", p50 * 1e3, "ms");
    out.metric("cpu_per_op_ms", cpu_per_op * 1e3, "ms");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    Ok(out)
}

/// The traced run: each cell is the root span; its inputs are replayed
/// through `TraceGenerator::gemm` (materialized) and `CpuCore::run`.
fn traced(args: &Args, layer: &LayerSpec, mut out: Outcome) -> Result<Outcome, String> {
    let sims = set_up(layer, &mut out)?;
    let kernel = GemmKernelConfig {
        max_matmuls: None,
        ..GemmKernelConfig::default()
    };
    let generator = TraceGenerator::amx_like()
        .with_kernel(kernel)
        .map_err(|e| e.to_string())?;
    let shape = layer.gemm_shape();
    let mut tracer = Tracer::new();
    let mut exact = Exact::default();
    let mut extra = Extra::default();
    let start = Instant::now();
    let mut op = 0u64;
    while op < EXACT_OPS || op % 2 == 1 || start.elapsed().as_secs_f64() < args.seconds * 2.0 / 3.0
    {
        let d = (op % 2) as usize;
        let (report, root) = tracer.span("simulator.run_layer", "simulator", op, None, || {
            sims[d].run_layer(layer)
        });
        let report = report.map_err(|e| e.to_string())?;
        out.failed += u64::from(!check(&report, &PINNED[d]));
        let (program, _) = tracer.span("trace.gemm", "trace", op, Some(root), || {
            generator.gemm(shape, layer.name())
        });
        let program = program.map_err(|e| e.to_string())?;
        let design = (PINNED[d].design)();
        let mut core = CpuCore::new(*design.cpu(), MatrixEngine::new(*design.systolic()));
        let (stats, _) = tracer.span("cpu.run", "cpu", op, Some(root), || core.run(&program));
        let stats = stats.map_err(|e| e.to_string())?;
        drop(program);
        // The replayed core must agree with the cell it stands in for.
        out.failed += u64::from(stats != report.cpu);
        extra.cpu_instructions += stats.retired_instructions;
        if op < EXACT_OPS {
            exact.add_cell(&report);
        }
        op += 1;
    }
    let allocs = rasa_bench::prof::allocations();
    let slicer = timed_cells(&sims, layer, args.seconds / 3.0, 1, &mut out.failed)?;
    let untraced_ops = slicer.all.len() as u64;
    extra.allocs_per_op = (rasa_bench::prof::allocations() - allocs) as f64 / untraced_ops as f64;
    extra.untraced_ops_per_s = untraced_ops as f64 / slicer.all.iter().sum::<f64>();
    extra.untraced_p99_s = measure::percentile(&slicer.all, 99.0);
    out.attempted += op + untraced_ops;
    layers::emit(&mut out, &tracer, &exact, &extra);
    crate::write_spans(&tracer, args);
    Ok(out)
}
