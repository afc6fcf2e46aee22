use crate::prof::{self, Stage};
use crate::{DesignPoint, PipelineStats, SimError, SimReport};
use rasa_cpu::{CpuCore, CpuStats, SchedStats, SpecDelta, SpeculativeRun, StreamStats};
use rasa_isa::{Program, ProgramSegment};
use rasa_numeric::{GemmShape, TileGrid};
use rasa_power::{EngineActivitySummary, PowerReport};
use rasa_systolic::MatrixEngine;
use rasa_trace::{
    GemmKernelConfig, ProgramSource, TraceError, TraceGenerator, DEFAULT_SEGMENT_SIZE,
};
use rasa_workloads::LayerSpec;
use rayon::prelude::*;
use std::ops::Range;
use std::sync::mpsc;

/// Default cap on the number of `rasa_mm` instructions simulated per
/// workload. The Table I layers contain up to hundreds of thousands of
/// register tiles; simulating a few thousand reaches steady state, and the
/// full-workload runtime is extrapolated at the observed throughput (the
/// [`SimReport`] records both numbers).
pub(crate) const DEFAULT_MATMUL_CAP: usize = 4096;

/// Segments buffered in the bounded producer→consumer channel of a
/// streamed run. Together with the shard wave this bounds the resident
/// trace to a handful of segments, whatever the workload size.
const STREAM_CHANNEL_SEGMENTS: usize = 4;

/// Register-block shards generated concurrently per wave when an uncapped
/// trace is fanned out over the worker pool. Small on purpose: a streamed
/// cell may itself be one job of an already-parallel experiment matrix.
const SHARD_WAVE: usize = 4;

/// Speculative workers per fork/join wave (worker 0 is the authoritative
/// continuation; the rest are predicted). The value is part of the
/// deterministic schedule — pipeline statistics must not depend on the
/// machine's core count — so it is a constant, not a CPU probe.
const DEFAULT_SPEC_DEPTH: usize = 6;

/// Strides the speculative scheduler probes for a confirmed periodic state
/// delta before giving up and running the cell sequentially.
const SPEC_PROBE_STRIDES: usize = 8;

/// The deterministic fork/join schedule of a speculative run: how many
/// register blocks one speculative segment spans and where the uniform
/// (periodic) region of the block walk ends.
#[derive(Debug, Clone, Copy)]
struct SpecPlan {
    /// Register blocks per speculative segment — a multiple of the block
    /// walk's structural period, so every segment carries identical work.
    stride_blocks: usize,
    /// Blocks `>= uniform_end` (a ragged final block column) never
    /// speculate; they are fed sequentially after the last wave.
    uniform_end: usize,
}

/// End-to-end simulator for one design point.
///
/// A `Simulator` owns the trace generator and the CPU/engine configuration;
/// each `run_*` call generates the workload trace, executes it on a fresh
/// core and returns a [`SimReport`].
///
/// The trace→simulate path is a **streaming pipeline**: a producer thread
/// generates bounded instruction segments (in parallel register-block
/// shards when the trace is uncapped) into a bounded channel while the
/// resumable core consumes them, so trace generation overlaps timing
/// simulation and the resident trace stays O(segment) instead of
/// O(workload). Uncapped cells long enough to amortize a fork/join wave
/// additionally run through the speculative segment scheduler. The
/// simulated statistics are bit-identical to the one-shot
/// [`Simulator::run_program`] of the whole trace; [`SimReport::pipeline`]
/// records what the stream kept resident.
#[derive(Debug, Clone)]
pub struct Simulator {
    design: DesignPoint,
    generator: TraceGenerator,
    speculation: bool,
    spec_depth: usize,
}

impl Simulator {
    /// Creates a simulator for a design point with the default trace
    /// generator, matmul cap and streaming pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the kernel configuration is invalid
    /// for the ISA (it never is for the built-in design points).
    pub fn new(design: DesignPoint) -> Result<Self, SimError> {
        // The scheme-derived default kernel (capped): every layer that needs
        // "the" kernel goes through `GemmKernelConfig::default()`.
        let generator = TraceGenerator::amx_like()
            .with_kernel(GemmKernelConfig::default().with_max_matmuls(DEFAULT_MATMUL_CAP))?;
        Ok(Simulator {
            design,
            generator,
            speculation: true,
            spec_depth: DEFAULT_SPEC_DEPTH,
        })
    }

    /// Overrides the cap on simulated `rasa_mm` instructions (`None` removes
    /// it and simulates every tile of the workload).
    ///
    /// The cap lives in the kernel configuration — the single source of
    /// truth the trace generator, the cache keys and
    /// [`Simulator::matmul_cap`] all read.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the resulting kernel configuration is
    /// invalid (a cap of zero).
    pub fn with_matmul_cap(mut self, cap: Option<usize>) -> Result<Self, SimError> {
        let mut kernel = *self.generator.kernel();
        kernel.max_matmuls = cap;
        self.generator = self.generator.with_kernel(kernel)?;
        Ok(self)
    }

    /// Overrides the full kernel configuration (tiling, scalar overhead,
    /// `rasa_mm` emission order and cap) used to generate traces — the hook
    /// the kernel-blocking ablation uses.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Trace`] if the kernel configuration is invalid for
    /// the ISA.
    pub fn with_kernel(mut self, kernel: GemmKernelConfig) -> Result<Self, SimError> {
        self.generator = self.generator.with_kernel(kernel)?;
        Ok(self)
    }

    /// Enables (default) or disables the speculative fork/join segment
    /// scheduler for streamed, uncapped runs. Speculation is a wall-clock
    /// optimization only: the simulated statistics are bit-identical either
    /// way (mispredicted segments replay sequentially), which the parity
    /// tests and CI enforce.
    #[must_use]
    pub const fn with_speculation(mut self, speculation: bool) -> Self {
        self.speculation = speculation;
        self
    }

    /// Overrides the speculative workers per fork/join wave, which is
    /// [`DEFAULT_SPEC_DEPTH`] everywhere outside this crate's tests.
    #[cfg(test)]
    const fn with_spec_depth(mut self, spec_depth: usize) -> Self {
        self.spec_depth = spec_depth;
        self
    }

    /// Whether runs may use the speculative fork/join segment scheduler.
    #[must_use]
    pub const fn is_speculative(&self) -> bool {
        self.speculation
    }

    /// The design point being simulated.
    #[must_use]
    pub const fn design(&self) -> &DesignPoint {
        &self.design
    }

    /// The configured matmul cap, if any — read from the kernel
    /// configuration, its single source of truth.
    #[must_use]
    pub fn matmul_cap(&self) -> Option<usize> {
        self.generator.kernel().max_matmuls
    }

    /// Simulates an arbitrary GEMM.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation and CPU errors.
    pub fn run_gemm(&self, shape: GemmShape) -> Result<SimReport, SimError> {
        let name = format!("GEMM-{}x{}x{}", shape.m, shape.k, shape.n);
        self.run_shape(shape, &name)
    }

    /// Simulates one DNN layer (convolutions are lowered via im2col).
    ///
    /// # Errors
    ///
    /// Propagates trace-generation and CPU errors.
    pub fn run_layer(&self, layer: &LayerSpec) -> Result<SimReport, SimError> {
        self.run_shape(layer.gemm_shape(), layer.name())
    }

    /// Simulates one DNN layer on the cycle-stepping **reference** core
    /// ([`CpuCore::run_reference`]) instead of the event-driven scheduler.
    ///
    /// The architectural statistics (`report.cpu`) must be bit-identical to
    /// [`Simulator::run_layer`]; the scheduler counters (`report.sched`)
    /// are zero because the reference loop does not use the event heap.
    /// This exists for parity checks and the `run_all` timing comparison.
    /// The reference core always consumes a materialized program.
    ///
    /// # Errors
    ///
    /// Propagates trace-generation and CPU errors.
    pub fn run_layer_reference(&self, layer: &LayerSpec) -> Result<SimReport, SimError> {
        let shape = layer.gemm_shape();
        let gen = prof::time(Stage::TraceGen);
        let program = self.generator.gemm(shape, layer.name())?;
        drop(gen);
        let total = self.generator.matmul_count(shape)?;
        self.run_program_on(&program, total as u64, layer.name(), true)
    }

    /// Generates and simulates `shape` through the streaming pipeline,
    /// speculatively when [`Simulator::spec_plan`] finds a schedule.
    fn run_shape(&self, shape: GemmShape, name: &str) -> Result<SimReport, SimError> {
        let total = self.generator.matmul_count(shape)? as u64;
        if let Some(plan) = self.spec_plan(shape)? {
            return self.run_speculative(shape, name, total, plan);
        }
        self.run_streamed(shape, name, total)
    }

    /// Runs an already-generated program on the one-shot [`CpuCore::run`],
    /// extrapolating to `total_matmuls` when the program is a truncated
    /// trace of a larger workload. Parity tests use it as the whole-trace
    /// counterpart of the streamed path.
    ///
    /// # Errors
    ///
    /// Propagates CPU-model errors.
    pub fn run_program(
        &self,
        program: &Program,
        total_matmuls: u64,
        workload: &str,
    ) -> Result<SimReport, SimError> {
        self.run_program_on(program, total_matmuls, workload, false)
    }

    fn run_program_on(
        &self,
        program: &Program,
        total_matmuls: u64,
        workload: &str,
        reference: bool,
    ) -> Result<SimReport, SimError> {
        let engine = MatrixEngine::new(*self.design.systolic());
        let mut core = CpuCore::new(*self.design.cpu(), engine);
        let cpu_stats = if reference {
            core.run_reference(program)?
        } else {
            core.run(program)?
        };
        let sched = *core.sched_stats();
        // A whole program is held (and fed) at once: one segment,
        // everything resident.
        let pipeline = PipelineStats {
            streamed: false,
            segments: 1,
            fed_instructions: program.len() as u64,
            peak_resident_instructions: program.len() as u64,
            ..PipelineStats::default()
        };
        Ok(self.report(cpu_stats, sched, pipeline, total_matmuls, workload))
    }

    /// The streaming trace→simulate pipeline: a producer thread generates
    /// bounded segments into a bounded channel while the resumable core
    /// consumes them. Uncapped traces are additionally fanned out as
    /// register-block shards generated in parallel waves through the rayon
    /// pool, so a single heavy `--full` workload no longer serializes its
    /// whole trace generation behind one thread.
    fn run_streamed(
        &self,
        shape: GemmShape,
        name: &str,
        total_matmuls: u64,
    ) -> Result<SimReport, SimError> {
        let engine = MatrixEngine::new(*self.design.systolic());
        let mut core = CpuCore::new(*self.design.cpu(), engine);
        let generator = &self.generator;
        let segment_size = self.effective_segment_size();
        let blocks = generator.block_count(shape)?;
        // Shards only pay off when the trace is uncapped (the cap is a
        // sequential prefix property) and wide enough to split.
        let shard_blocks = if generator.kernel().max_matmuls.is_none() && blocks > SHARD_WAVE {
            Some(self.blocks_per_shard(shape, segment_size)?)
        } else {
            None
        };

        let (cpu_stats, sched, stream) = std::thread::scope(
            |scope| -> Result<(CpuStats, SchedStats, StreamStats), SimError> {
                let (tx, rx) = mpsc::sync_channel::<Result<ProgramSegment, TraceError>>(
                    STREAM_CHANNEL_SEGMENTS,
                );
                scope.spawn(move || {
                    let outcome = produce_segments(
                        generator,
                        shape,
                        name,
                        blocks,
                        shard_blocks,
                        segment_size,
                        &tx,
                    );
                    if let Err(error) = outcome {
                        // The consumer surfaces the error; if it already
                        // hung up, there is nobody left to care.
                        let _ = tx.send(Err(error));
                    }
                });
                let mut run = core.begin_run(generator.isa())?;
                for message in rx {
                    let segment = message?;
                    core.feed_segment(&mut run, &segment)?;
                }
                let cpu_stats = core.run_to_quiescence(run)?;
                Ok((cpu_stats, *core.sched_stats(), *core.stream_stats()))
            },
        )?;

        let pipeline = PipelineStats {
            streamed: true,
            segments: stream.segments,
            fed_instructions: stream.fed_instructions,
            peak_resident_instructions: stream.peak_resident as u64,
            ..PipelineStats::default()
        };
        Ok(self.report(cpu_stats, sched, pipeline, total_matmuls, name))
    }

    /// The deterministic fork/join schedule for speculating `shape`, or
    /// `None` when the cell must run sequentially: speculation is off, the
    /// trace is capped (the cap is a sequential prefix property), or the
    /// uniform block region is too short to amortize a probe and a wave.
    fn spec_plan(&self, shape: GemmShape) -> Result<Option<SpecPlan>, SimError> {
        if !self.speculation || self.generator.kernel().max_matmuls.is_some() {
            return Ok(None);
        }
        let kernel = self.generator.kernel();
        let grid = TileGrid::new(shape, kernel.tiling)?;
        let (mt, kt, nt) = (grid.m_tiles(), grid.k_tiles(), grid.n_tiles());
        let blocks = self.generator.block_count(shape)?;
        let block = kernel.scheme.block;
        let mb_count = block.m_blocks(mt);
        // The block walk is n-major: a column of `mb_count` row blocks per
        // block-width tile-column. An `mt` that does not divide by the
        // block height makes the last block of every column ragged — the
        // walk is still periodic, with period one column instead of one
        // block. An `nt` that does not divide by the block width makes the
        // entire last column ragged; it is excluded from speculation
        // outright.
        let base_period = if mt % block.m != 0 { mb_count } else { 1 };
        let uniform_end = if nt % block.n != 0 {
            blocks - mb_count
        } else {
            blocks
        };
        // One stride spans a couple of segments' worth of blocks (the same
        // scale as the shard-parallel producer), rounded up to a whole
        // number of structural periods.
        let block_len = kernel.block_len_estimate(kt);
        let target = (2 * self.effective_segment_size())
            .div_ceil(block_len)
            .max(1);
        let stride_blocks = target.div_ceil(base_period) * base_period;
        // Worth it only when the uniform region holds the warm-up stride,
        // a couple of probe strides and at least one full wave.
        if uniform_end < stride_blocks * (3 + self.spec_depth) {
            return Ok(None);
        }
        Ok(Some(SpecPlan {
            stride_blocks,
            uniform_end,
        }))
    }

    /// Generates blocks `[lo, hi)` of `shape` and feeds them into the
    /// authoritative speculative run.
    fn feed_blocks(
        &self,
        spec: &mut SpeculativeRun,
        shape: GemmShape,
        name: &str,
        lo: usize,
        hi: usize,
    ) -> Result<(), SimError> {
        let mut shard =
            self.generator
                .gemm_blocks(shape, name, lo..hi, self.effective_segment_size())?;
        while let Some(segment) = shard.next_segment()? {
            spec.feed_segment(&segment)?;
        }
        Ok(())
    }

    /// The speculative fork/join pipeline for streamed, uncapped cells.
    ///
    /// Protocol (mechanism in `rasa_cpu::SpeculativeRun`): warm up one
    /// stride, slide a probe until one block-stride boundary is an exact
    /// translation of its predecessor (a *confirmed* periodic
    /// [`SpecDelta`]), then repeatedly fork `spec_depth` workers seeded
    /// with predicted states `j · delta` ahead, simulate their strides in
    /// parallel on the rayon pool (each worker generating its own trace
    /// shard), and join in order — committing validated workers, replaying
    /// mispredicted ones sequentially. The ragged tail past the uniform
    /// region feeds sequentially.
    ///
    /// The schedule (stride, depth, wave boundaries) derives only from the
    /// shape and the kernel — never from thread timing — so the
    /// statistics, including the speculation counters, are
    /// deterministic and machine-independent; and the architectural
    /// statistics are bit-identical to the sequential streamed path by the
    /// commit-validation argument.
    fn run_speculative(
        &self,
        shape: GemmShape,
        name: &str,
        total_matmuls: u64,
        plan: SpecPlan,
    ) -> Result<SimReport, SimError> {
        let engine = MatrixEngine::new(*self.design.systolic());
        let core = CpuCore::new(*self.design.cpu(), engine);
        let blocks = self.generator.block_count(shape)?;
        let stride = plan.stride_blocks;
        let mut spec = SpeculativeRun::begin(core, self.generator.isa())?;

        // Warm-up: one stride to move the pipeline off the cold-start
        // transient before probing.
        self.feed_blocks(&mut spec, shape, name, 0, stride)?;
        let mut next = stride;

        // Probe: slide stride by stride until a boundary is an exact
        // translation of its predecessor. The structural check is what
        // buys the deterministic commit rate — see
        // `SpecCheckpoint::shifted_matches`.
        let mut seed = spec.checkpoint();
        let mut delta: Option<SpecDelta> = None;
        for _ in 0..SPEC_PROBE_STRIDES {
            if next + stride > plan.uniform_end {
                break;
            }
            self.feed_blocks(&mut spec, shape, name, next, next + stride)?;
            next += stride;
            let cp = spec.checkpoint();
            if let Some(candidate) = SpecDelta::between(&seed, &cp) {
                if seed.shifted_matches(&candidate, &cp) {
                    delta = Some(candidate);
                    seed = cp;
                    break;
                }
            }
            seed = cp;
        }

        // Fork/join waves across the uniform region.
        if let Some(delta) = delta {
            let depth = self.spec_depth;
            while next + depth * stride <= plan.uniform_end {
                let mut workers: Vec<(usize, rasa_cpu::SpeculativeWorker)> = (0..depth)
                    .map(|j| (next + j * stride, spec.fork(&seed, &delta, j as u64)))
                    .collect();
                workers
                    .par_iter_mut()
                    .try_for_each(|(lo, worker)| -> Result<(), SimError> {
                        let mut shard = self.generator.gemm_blocks(
                            shape,
                            name,
                            *lo..*lo + stride,
                            self.effective_segment_size(),
                        )?;
                        while let Some(segment) = shard.next_segment()? {
                            worker.feed_segment(&segment)?;
                        }
                        Ok(())
                    })?;
                for (lo, worker) in workers {
                    if !spec.try_commit(worker) {
                        self.feed_blocks(&mut spec, shape, name, lo, lo + stride)?;
                    }
                }
                next += depth * stride;
                seed = spec.checkpoint();
            }
        }

        // Sequential tail: the uniform remainder plus any ragged column.
        if next < blocks {
            self.feed_blocks(&mut spec, shape, name, next, blocks)?;
        }
        let (cpu_stats, sched, stream) = spec.finish()?;
        let pipeline = PipelineStats {
            streamed: true,
            segments: stream.segments,
            fed_instructions: stream.fed_instructions,
            peak_resident_instructions: stream.peak_resident as u64,
            spec_forks: stream.spec_forks,
            spec_commits: stream.spec_commits,
            spec_replays: stream.spec_replays,
        };
        Ok(self.report(cpu_stats, sched, pipeline, total_matmuls, name))
    }

    /// Register blocks per generation shard: sized so one shard amounts to
    /// a couple of segments, derived deterministically from the shape (so
    /// segment boundaries — and hence pipeline statistics — do not depend
    /// on the machine's parallelism).
    fn blocks_per_shard(&self, shape: GemmShape, segment_size: usize) -> Result<usize, SimError> {
        let kt = rasa_numeric::TileGrid::new(shape, self.generator.kernel().tiling)?.k_tiles();
        // The scheme's own estimate of one full register block — the single
        // source of truth shared with the speculative fork points.
        let block_len = self.generator.kernel().block_len_estimate(kt);
        Ok((2 * segment_size).div_ceil(block_len).max(1))
    }

    /// The segment size streams actually use: the kernel scheme's hint, or
    /// [`DEFAULT_SEGMENT_SIZE`]. The shard and speculation schedules derive
    /// from this one value.
    fn effective_segment_size(&self) -> usize {
        self.generator
            .kernel()
            .scheme
            .segment_size
            .unwrap_or(DEFAULT_SEGMENT_SIZE)
    }

    fn report(
        &self,
        cpu_stats: CpuStats,
        sched: SchedStats,
        pipeline: PipelineStats,
        total_matmuls: u64,
        workload: &str,
    ) -> SimReport {
        let simulated_matmuls = cpu_stats.retired_matmuls;
        let simulated_cycles = cpu_stats.cycles;
        let core_cycles = if simulated_matmuls > 0 && total_matmuls > simulated_matmuls {
            // Extrapolate at the observed steady-state throughput.
            let per_mm = simulated_cycles as f64 / simulated_matmuls as f64;
            (per_mm * total_matmuls as f64).round() as u64
        } else {
            simulated_cycles
        };

        let activity = EngineActivitySummary::from_engine_stats(&cpu_stats.engine);
        let power = PowerReport::new(self.design.systolic(), &activity, simulated_cycles);

        SimReport {
            design: self.design.name().to_string(),
            workload: workload.to_string(),
            core_cycles,
            simulated_core_cycles: simulated_cycles,
            simulated_matmuls,
            total_matmuls: total_matmuls.max(simulated_matmuls),
            runtime_seconds: self.design.cpu().cycles_to_seconds(core_cycles),
            cpu: cpu_stats,
            sched,
            pipeline,
            power,
        }
    }
}

/// Producer half of the streaming pipeline: pushes the trace of `shape`
/// into `tx` as validated segments, either sequentially or as
/// wave-parallel register-block shards. A send failure means the consumer
/// hung up (success or error); either way there is nothing left to do.
fn produce_segments(
    generator: &TraceGenerator,
    shape: GemmShape,
    name: &str,
    blocks: usize,
    shard_blocks: Option<usize>,
    segment_size: usize,
    tx: &mpsc::SyncSender<Result<ProgramSegment, TraceError>>,
) -> Result<(), TraceError> {
    let Some(shard_blocks) = shard_blocks else {
        let mut stream = generator.gemm_stream(shape, name, segment_size)?;
        loop {
            let gen = prof::time(Stage::TraceGen);
            let segment = stream.next_segment()?;
            drop(gen);
            let Some(segment) = segment else {
                return Ok(());
            };
            if tx.send(Ok(segment)).is_err() {
                return Ok(());
            }
        }
    };

    // Wave-parallel sharding: generate SHARD_WAVE shards concurrently,
    // then forward their segments in block order while the core simulates.
    // Memory stays bounded by (wave + channel) segments.
    let mut start = 0usize;
    while start < blocks {
        let ranges: Vec<Range<usize>> = (0..SHARD_WAVE)
            .map(|i| {
                let lo = (start + i * shard_blocks).min(blocks);
                let hi = (start + (i + 1) * shard_blocks).min(blocks);
                lo..hi
            })
            .filter(|r| !r.is_empty())
            .collect();
        start = (start + SHARD_WAVE * shard_blocks).min(blocks);
        let gen = prof::time(Stage::TraceGen);
        let wave: Result<Vec<Vec<ProgramSegment>>, TraceError> = ranges
            .par_iter()
            .map(|range| {
                generator
                    .gemm_blocks(shape, name, range.clone(), segment_size)?
                    .collect()
            })
            .collect();
        drop(gen);
        for shard in wave? {
            for segment in shard {
                if tx.send(Ok(segment)).is_err() {
                    return Ok(());
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasa_trace::KernelSchemeBuilder;
    use rasa_workloads::WorkloadSuite;

    /// An uncapped simulator whose kernel scheme asks for `segment_size`
    /// instruction segments, so small test traces still span many.
    fn small_segment_sim(design: DesignPoint, segment_size: usize) -> Simulator {
        let kernel = KernelSchemeBuilder::new()
            .with_segment_size(segment_size)
            .build()
            .unwrap();
        Simulator::new(design).unwrap().with_kernel(kernel).unwrap()
    }

    /// The one-shot counterpart of a streamed run: the whole trace
    /// generated up front and fed to `CpuCore::run`.
    fn one_shot(sim: &Simulator, shape: GemmShape) -> SimReport {
        let program = sim.generator.gemm(shape, "one-shot").unwrap();
        let total = sim.generator.matmul_count(shape).unwrap() as u64;
        sim.run_program(&program, total, "one-shot").unwrap()
    }

    #[test]
    fn small_gemm_runs_exactly() {
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        let report = sim.run_gemm(GemmShape::new(64, 64, 64)).unwrap();
        assert_eq!(report.total_matmuls, 32);
        assert_eq!(report.simulated_matmuls, 32);
        assert!(!report.is_extrapolated());
        // 32 serialized matmuls at 380 core cycles each dominate the run.
        assert!(report.core_cycles > 32 * 380);
        assert!(report.runtime_seconds > 0.0);
    }

    #[test]
    fn large_layer_is_extrapolated() {
        let sim = Simulator::new(DesignPoint::rasa_dmdb_wls())
            .unwrap()
            .with_matmul_cap(Some(512))
            .unwrap();
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-1").unwrap();
        let report = sim.run_layer(layer).unwrap();
        assert!(report.is_extrapolated());
        assert_eq!(
            report.total_matmuls,
            (512 / 16 * 1024 / 32 * 1024 / 16) as u64
        );
        assert!(report.core_cycles > report.simulated_core_cycles);
        assert_eq!(report.workload, "DLRM-1");
    }

    #[test]
    fn designs_preserve_the_expected_ordering_on_a_layer() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("BERT-1").unwrap();
        let mut cycles = Vec::new();
        for design in [
            DesignPoint::baseline(),
            DesignPoint::rasa_pipe(),
            DesignPoint::rasa_wlbp(),
            DesignPoint::rasa_dm_wlbp(),
            DesignPoint::rasa_db_wls(),
            DesignPoint::rasa_dmdb_wls(),
        ] {
            let sim = Simulator::new(design)
                .unwrap()
                .with_matmul_cap(Some(768))
                .unwrap();
            cycles.push(sim.run_layer(layer).unwrap().core_cycles);
        }
        for pair in cycles.windows(2) {
            assert!(pair[0] >= pair[1], "expected improvement: {cycles:?}");
        }
        // End-to-end speedup of the best design is large.
        assert!(cycles[0] as f64 / *cycles.last().unwrap() as f64 > 2.5);
    }

    #[test]
    fn reference_core_matches_event_driven_core() {
        let suite = WorkloadSuite::mlperf();
        let layer = suite.layer("DLRM-2").unwrap();
        for design in [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()] {
            let sim = Simulator::new(design)
                .unwrap()
                .with_matmul_cap(Some(256))
                .unwrap();
            let event = sim.run_layer(layer).unwrap();
            let reference = sim.run_layer_reference(layer).unwrap();
            assert_eq!(event.cpu, reference.cpu, "architectural stats diverge");
            assert_eq!(event.core_cycles, reference.core_cycles);
            // The event-driven core reports scheduler activity, the
            // reference loop reports none.
            assert!(event.sched.completion_events > 0);
            assert!(event.sched.skip_rate() > 0.0);
            assert_eq!(reference.sched, rasa_cpu::SchedStats::default());
            // The flat summary surfaces the event counts.
            let summary = event.summary();
            assert_eq!(summary.sched_events, event.sched.completion_events);
            assert_eq!(summary.visited_cycles, event.sched.visited_cycles);
        }
    }

    #[test]
    fn streamed_and_materialized_paths_are_bit_identical() {
        // The streamed pipeline against the whole materialized trace fed to
        // the one-shot `CpuCore::run`.
        let dlrm = WorkloadSuite::mlperf()
            .layer("DLRM-1")
            .unwrap()
            .gemm_shape();
        for (cap, segment_size) in [(Some(2000), 512), (None, 128)] {
            let sim = small_segment_sim(DesignPoint::rasa_wlbp(), segment_size)
                .with_matmul_cap(cap)
                .unwrap();
            // Keep the uncapped case tractable: a small GEMM with enough
            // register blocks to trigger the shard-parallel producer.
            let shape = if cap.is_none() {
                let shape = GemmShape::new(256, 64, 256);
                assert!(sim.generator.block_count(shape).unwrap() > SHARD_WAVE);
                shape
            } else {
                dlrm
            };
            let streamed = sim.run_gemm(shape).unwrap();
            let whole = one_shot(&sim, shape);
            // Architectural and scheduler statistics are bit-identical;
            // only the pipeline diagnostics differ.
            assert_eq!(streamed.cpu, whole.cpu);
            assert_eq!(streamed.sched, whole.sched);
            assert_eq!(streamed.core_cycles, whole.core_cycles);
            assert!(streamed.pipeline.streamed);
            assert!(!whole.pipeline.streamed);
            assert_eq!(
                streamed.pipeline.fed_instructions,
                whole.pipeline.fed_instructions
            );
            assert!(streamed.pipeline.segments > 1);
            assert_eq!(whole.pipeline.segments, 1);
            // The whole point: the stream never holds the full trace.
            assert!(
                streamed.pipeline.peak_resident_instructions
                    < streamed.pipeline.fed_instructions / 2,
                "peak resident {} of {} fed",
                streamed.pipeline.peak_resident_instructions,
                streamed.pipeline.fed_instructions
            );
        }
    }

    #[test]
    fn speculative_path_is_bit_identical_and_commits() {
        // The tentpole invariant: the speculative fork/join scheduler
        // produces architectural and scheduler statistics bit-identical to
        // the sequential streamed path and the one-shot run of the whole
        // trace, while actually committing speculative segments.
        let shape = GemmShape::new(256, 64, 512);
        for design in [DesignPoint::baseline(), DesignPoint::rasa_dmdb_wls()] {
            let sim = small_segment_sim(design, 128);
            let speculative = sim.run_gemm(shape).unwrap();
            let sequential = sim.clone().with_speculation(false).run_gemm(shape).unwrap();
            let whole = one_shot(&sim, shape);
            assert_eq!(speculative.cpu, sequential.cpu);
            assert_eq!(speculative.sched, sequential.sched);
            assert_eq!(speculative.cpu, whole.cpu);
            assert_eq!(speculative.sched, whole.sched);
            assert_eq!(speculative.core_cycles, sequential.core_cycles);
            assert_eq!(speculative.core_cycles, whole.core_cycles);
            assert_eq!(
                speculative.pipeline.fed_instructions,
                sequential.pipeline.fed_instructions
            );
            // The scheduler engaged and the confirmed-delta probe makes
            // every predicted worker commit on this uniform trace.
            assert!(speculative.pipeline.spec_forks > 0);
            assert_eq!(
                speculative.pipeline.spec_commits,
                speculative.pipeline.spec_forks
            );
            assert_eq!(speculative.pipeline.spec_replays, 0);
            assert_eq!(sequential.pipeline.spec_forks, 0);
        }
    }

    #[test]
    fn four_paths_are_bit_identical_on_a_non_default_kernel_scheme() {
        // Satellite of the kernel-scheme refactor: the speculative,
        // sequential-streamed, one-shot and cycle-stepping reference paths
        // must agree bit for bit even when the kernel is nothing like
        // Algorithm 1 — a 1×3 block, interleaved matmuls, accumulators
        // spilled around every K step and a lean scalar model.
        use rasa_trace::LoopOrder;
        let kernel = KernelSchemeBuilder::new()
            .with_block(1, 3)
            .with_matmul_order(rasa_trace::MatmulOrder::Interleaved)
            .with_loop_order(LoopOrder::NInnermost)
            .with_scalar_ops_per_step(1)
            .with_segment_size(128)
            .build()
            .unwrap();
        let layer = rasa_workloads::LayerSpec::fc("scheme-parity", 256, 64, 512);
        let sim = Simulator::new(DesignPoint::rasa_dmdb_wls())
            .unwrap()
            .with_kernel(kernel)
            .unwrap();
        let speculative = sim.run_layer(&layer).unwrap();
        let sequential = sim
            .clone()
            .with_speculation(false)
            .run_layer(&layer)
            .unwrap();
        let whole = one_shot(&sim, layer.gemm_shape());
        let reference = sim.run_layer_reference(&layer).unwrap();
        assert_eq!(speculative.cpu, sequential.cpu);
        assert_eq!(speculative.cpu, whole.cpu);
        assert_eq!(speculative.cpu, reference.cpu);
        assert_eq!(speculative.core_cycles, reference.core_cycles);
        assert_eq!(speculative.sched, sequential.sched);
        assert_eq!(speculative.sched, whole.sched);
        // The non-default scheme still speculates (the plan generalizes
        // beyond the 2×2 walk) and commits on this uniform trace.
        assert!(speculative.pipeline.spec_forks > 0);
        assert_eq!(
            speculative.pipeline.spec_commits,
            speculative.pipeline.spec_forks
        );
    }

    #[test]
    fn speculative_runs_are_deterministic() {
        // The fork/join schedule derives from the shape, kernel and depth
        // alone — never from thread timing — so the speculation counters
        // themselves are reproducible.
        let sim = small_segment_sim(DesignPoint::rasa_wlbp(), 128).with_spec_depth(3);
        let shape = GemmShape::new(256, 64, 256);
        let a = sim.run_gemm(shape).unwrap();
        let b = sim.run_gemm(shape).unwrap();
        assert_eq!(a, b);
        assert!(a.pipeline.spec_forks > 0);
    }

    #[test]
    fn capped_runs_never_speculate() {
        // A matmul cap is a sequential-prefix property, so the planner
        // must refuse to fork no matter how large the trace is.
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(sim.is_speculative());
        let plan = sim.spec_plan(GemmShape::new(1024, 1024, 1024)).unwrap();
        assert!(plan.is_none());
    }

    #[test]
    fn short_traces_fall_back_to_sequential_streaming() {
        let sim = Simulator::new(DesignPoint::baseline())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap();
        let report = sim.run_gemm(GemmShape::new(64, 64, 64)).unwrap();
        assert_eq!(report.pipeline.spec_forks, 0);
    }

    #[test]
    fn streamed_pipeline_stats_are_deterministic() {
        // Segment boundaries derive from the shape and kernel alone, never
        // from scheduling, so repeated runs agree exactly.
        let sim = small_segment_sim(DesignPoint::baseline(), 300);
        let shape = GemmShape::new(192, 64, 192);
        let a = sim.run_gemm(shape).unwrap();
        let b = sim.run_gemm(shape).unwrap();
        assert_eq!(a, b);
        assert!(a.pipeline.segments > 1);
    }

    #[test]
    fn cap_can_be_removed() {
        let sim = Simulator::new(DesignPoint::rasa_wlbp())
            .unwrap()
            .with_matmul_cap(None)
            .unwrap();
        assert_eq!(sim.matmul_cap(), None);
        let report = sim.run_gemm(GemmShape::new(128, 128, 128)).unwrap();
        assert!(!report.is_extrapolated());
        assert_eq!(report.simulated_matmuls, 8 * 4 * 8);
    }

    #[test]
    fn matmul_cap_has_a_single_source_of_truth() {
        // The cap reported by the simulator is read from the kernel
        // configuration, so a kernel override cannot leave a stale copy.
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert_eq!(sim.matmul_cap(), Some(DEFAULT_MATMUL_CAP));
        let sim = sim
            .with_kernel(GemmKernelConfig::amx_like().with_max_matmuls(123))
            .unwrap();
        assert_eq!(sim.matmul_cap(), Some(123));
        let sim = sim.with_kernel(GemmKernelConfig::amx_like()).unwrap();
        assert_eq!(sim.matmul_cap(), None);
    }

    #[test]
    fn zero_cap_is_rejected() {
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(sim.with_matmul_cap(Some(0)).is_err());
    }

    #[test]
    fn empty_gemm_is_rejected() {
        let sim = Simulator::new(DesignPoint::baseline()).unwrap();
        assert!(sim.run_gemm(GemmShape::new(0, 1, 1)).is_err());
    }
}
