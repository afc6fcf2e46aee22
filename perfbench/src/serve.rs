//! `serve_hot` and `serve_miss`: the serving tier — two `ShardServer`s
//! and a `Router` on loopback, each with its default configuration — in
//! this process, driven closed-loop by one `NetClient` over one
//! connection. An op is one request.
//!
//! - `serve_hot` draws a seeded Zipf stream (`TrafficGenerator`) over the
//!   9 Table I layers × 11 Fig. 7 batch sizes × 8 paper designs = 792
//!   keys: more than the router's 256-entry cache holds, fewer than the
//!   two shards' 1024-entry runner caches. Set-up sends every key once,
//!   so the timed window never simulates; it measures the tier's own
//!   overhead on router-cache and shard-cache hits.
//! - `serve_miss` sends a seeded shuffle of 9 layers × batch 1..=256 × 8
//!   designs, each key once, so every request misses every cache and
//!   simulates one capped cell. Set-up sends keys until the router cache
//!   and both shard runner caches are full, so every timed insert evicts.

use crate::layers::{self, Exact, Extra};
use crate::measure::{self, Slicer, SLICE_S};
use crate::spans::Tracer;
use crate::{Args, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rasa_cpu::CpuCore;
use rasa_sim::net::{
    Frame, FrameKind, NetClient, NetError, Router, RouterConfig, ShardConfig, ShardServer,
    WireRequest, WireResponse,
};
use rasa_sim::serve::{GemmRequest, GemmServer, ServeConfig};
use rasa_sim::{
    DesignPoint, ExperimentRunner, FromJson, JsonValue, SimJob, SimReport, Simulator, ToJson,
};
use rasa_systolic::MatrixEngine;
use rasa_trace::{GemmKernelConfig, TraceGenerator};
use rasa_workloads::{fig7_batch_sizes, table1_layers, LayerSpec, TrafficGenerator};
use std::collections::HashMap;
use std::time::Instant;

/// Which request stream drives the tier.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Miss,
}

const SHARDS: u32 = 2;

/// Tiers per untraced run; `setup_s` is the median of their set-ups.
const REPEATS: usize = 3;

/// `serve_miss` batch sizes are 1..=this.
const MISS_MAX_BATCH: usize = 256;

/// `serve_miss` checks one key in this many (chosen by a seeded hash)
/// against a direct `ExperimentRunner` result.
const MISS_SAMPLE_ONE_IN: u64 = 50;

impl Mix {
    /// Ops whose counters the exact per-layer metrics cover.
    fn exact_ops(self) -> u64 {
        match self {
            Mix::Hot => 2000,
            Mix::Miss => 200,
        }
    }
}

/// One distinct cell key.
struct Key {
    design: usize,
    layer: LayerSpec,
}

/// The seeded request stream and the key universe it draws from.
struct Stream {
    mix: Mix,
    designs: Vec<DesignPoint>,
    keys: Vec<Key>,
    /// `serve_hot`: the Zipf shape sampler, the design sampler and the
    /// shape-name → shape-index map.
    hot: Option<(TrafficGenerator, StdRng, HashMap<String, usize>)>,
    /// `serve_miss`: the next position in `keys` (already shuffled).
    pos: usize,
    seed: u64,
    next_id: u64,
}

impl Stream {
    fn new(mix: Mix, seed: u64) -> Stream {
        let designs = DesignPoint::paper_designs();
        let mut keys = Vec::new();
        let mut hot = None;
        match mix {
            Mix::Hot => {
                let traffic = TrafficGenerator::new(&table1_layers(), &fig7_batch_sizes(), seed)
                    .expect("Table I × Fig. 7 is a non-empty universe");
                let mut index = HashMap::new();
                for (shape, layer) in traffic.shapes().iter().enumerate() {
                    index.insert(layer.name().to_string(), shape);
                    for design in 0..designs.len() {
                        keys.push(Key {
                            design,
                            layer: layer.clone(),
                        });
                    }
                }
                let design_rng = StdRng::seed_from_u64(seed ^ 0x5eed_d351_9a5e_0001);
                hot = Some((traffic, design_rng, index));
            }
            Mix::Miss => {
                for layer in table1_layers() {
                    for batch in 1..=MISS_MAX_BATCH {
                        for design in 0..designs.len() {
                            keys.push(Key {
                                design,
                                layer: layer.with_batch(batch),
                            });
                        }
                    }
                }
                let mut rng = StdRng::seed_from_u64(seed);
                for i in (1..keys.len()).rev() {
                    keys.swap(i, rng.gen_range(0..=i));
                }
            }
        }
        Stream {
            mix,
            designs,
            keys,
            hot,
            pos: 0,
            seed,
            next_id: 0,
        }
    }

    fn request(&mut self, key: usize) -> WireRequest {
        self.next_id += 1;
        let k = &self.keys[key];
        WireRequest::new(self.next_id, self.designs[k.design].name(), k.layer.clone())
    }

    /// The next request and its key index (`None` once `serve_miss` has
    /// sent every key).
    fn next(&mut self) -> Option<(usize, WireRequest)> {
        let key = match &mut self.hot {
            Some((traffic, design_rng, index)) => {
                let layer = traffic.next_request();
                let design = design_rng.gen_range(0..self.designs.len());
                index[layer.name()] * self.designs.len() + design
            }
            None => {
                let key = (self.pos < self.keys.len()).then_some(self.pos)?;
                self.pos += 1;
                key
            }
        };
        Some((key, self.request(key)))
    }

    /// Whether answers for `key` are checked against a direct
    /// `ExperimentRunner` result: every key in `serve_hot`; in
    /// `serve_miss`, a sample chosen by a hash of seed and key.
    fn checked(&self, key: usize) -> bool {
        if self.mix == Mix::Hot {
            return true;
        }
        let mut z = self.seed ^ (key as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % MISS_SAMPLE_ONE_IN == 0
    }

    fn job(&self, key: usize) -> SimJob {
        let k = &self.keys[key];
        SimJob::new(self.designs[k.design].clone(), k.layer.clone())
    }
}

/// Shard-side counters summed over the shards.
#[derive(Clone, Copy, Default)]
struct ShardTotals {
    hits: u64,
    misses: u64,
    evictions: u64,
    batches: u64,
    completed: u64,
}

/// The tier under test.
struct Tier {
    shards: Vec<ShardServer>,
    router: Router,
    client: NetClient,
}

impl Tier {
    fn start() -> Result<Tier, String> {
        let designs = DesignPoint::paper_designs();
        let shards = (0..SHARDS)
            .map(|shard_id| {
                let config = ShardConfig {
                    shard_id,
                    serve: ServeConfig::default(),
                };
                ShardServer::bind("127.0.0.1:0", config, &designs)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
        let router = Router::bind("127.0.0.1:0", &addrs, RouterConfig::default())
            .map_err(|e| e.to_string())?;
        let addr = router
            .local_addr()
            .expect("a bound router has an address")
            .to_string();
        Ok(Tier {
            shards,
            router,
            client: NetClient::new(vec![addr]),
        })
    }

    fn shard_totals(&self) -> ShardTotals {
        self.shards
            .iter()
            .map(ShardServer::health)
            .fold(ShardTotals::default(), |t, h| ShardTotals {
                hits: t.hits + h.cache.hits,
                misses: t.misses + h.cache.misses,
                evictions: t.evictions + h.cache.evictions,
                batches: t.batches + h.serve.batches,
                completed: t.completed + h.serve.completed,
            })
    }

    /// Whether the router's result cache and every shard's runner cache
    /// hold as many entries as they can. The router does not report its
    /// entry count; with unique keys every miss inserts one entry.
    fn caches_full(&self) -> bool {
        let router_full = self.router.stats().cache_misses
            >= RouterConfig::default().result_cache_capacity as u64;
        router_full
            && self
                .shards
                .iter()
                .map(|s| s.health().cache)
                .all(|cache| cache.entries == cache.capacity)
    }

    fn shutdown(self) {
        drop(self.client);
        self.router.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
    }
}

/// Per-op correctness bookkeeping.
struct Checks {
    /// The first answer per checked key; every later answer for the key
    /// must equal it.
    first: Vec<Option<SimReport>>,
    /// Ops that returned each checked key's answer (all of them fail if
    /// the first answer differs from the direct result).
    uses: Vec<u64>,
}

impl Checks {
    fn new(keys: usize) -> Checks {
        Checks {
            first: vec![None; keys],
            uses: vec![0; keys],
        }
    }

    /// Checks one answer; returns whether it is correct.
    fn record(
        &mut self,
        stream: &Stream,
        key: usize,
        request: &WireRequest,
        answer: &Result<WireResponse, NetError>,
    ) -> bool {
        let Ok(response) = answer else {
            return false;
        };
        if response.id != request.id
            || response.report.design != request.design
            || response.report.workload != request.workload.name()
        {
            return false;
        }
        if !stream.checked(key) {
            return true;
        }
        self.uses[key] += 1;
        match &self.first[key] {
            Some(first) => *first == response.report,
            None => {
                self.first[key] = Some(response.report.clone());
                true
            }
        }
    }

    /// Compares every checked key's first answer with a direct
    /// `ExperimentRunner` result (outside any timed window). Returns the
    /// ops that fail.
    fn verify(&self, stream: &Stream) -> Result<u64, String> {
        let keys: Vec<usize> = (0..stream.keys.len())
            .filter(|&k| self.first[k].is_some())
            .collect();
        let jobs: Vec<SimJob> = keys.iter().map(|&k| stream.job(k)).collect();
        let reference = ExperimentRunner::new()
            .run_jobs(&jobs)
            .map_err(|e| e.to_string())?;
        let mut failed = 0;
        for (&k, want) in keys.iter().zip(&reference) {
            if self.first[k].as_ref() != Some(&**want) {
                eprintln!("key {k} differs from a direct ExperimentRunner result");
                failed += self.uses[k];
            }
        }
        Ok(failed)
    }
}

/// Set-up: binds the tier and fills its caches (see the module docs).
/// Its requests count in `out`'s attempted and failed ops.
fn set_up(stream: &mut Stream, checks: &mut Checks, out: &mut Outcome) -> Result<Tier, String> {
    let mut tier = Tier::start()?;
    let mut failed = 0;
    let mut sent = 0;
    match stream.mix {
        Mix::Hot => {
            // Coldest keys first, so the router cache ends holding the
            // hottest 256 keys, as it does in steady state.
            for key in (0..stream.keys.len()).rev() {
                let request = stream.request(key);
                let answer = tier.client.request(&request);
                failed += u64::from(!checks.record(stream, key, &request, &answer));
                sent += 1;
            }
        }
        Mix::Miss => {
            while !tier.caches_full() {
                let Some((key, request)) = stream.next() else {
                    return Err("serve_miss ran out of keys during set-up".to_string());
                };
                let answer = tier.client.request(&request);
                failed += u64::from(!checks.record(stream, key, &request, &answer));
                sent += 1;
            }
        }
    }
    out.attempted += sent;
    out.failed += failed;
    Ok(tier)
}

/// Closed loop until `slices` slices of `slice_s` seconds are complete
/// (or `serve_miss` runs out of keys). Returns the slicer and failures.
fn timed_ops(
    tier: &mut Tier,
    stream: &mut Stream,
    checks: &mut Checks,
    slice_s: f64,
    slices: usize,
) -> Result<(Slicer, u64), String> {
    let mut slicer = Slicer::start(slice_s)?;
    let mut failed = 0;
    while slicer.slices.len() < slices {
        let Some((key, request)) = stream.next() else {
            break;
        };
        let t = Instant::now();
        let answer = tier.client.request(&request);
        slicer.record(t.elapsed().as_secs_f64())?;
        failed += u64::from(!checks.record(stream, key, &request, &answer));
    }
    Ok((slicer, failed))
}

pub fn run(mix: Mix, args: &Args, started: Instant) -> Result<Outcome, String> {
    let mut stream = Stream::new(mix, args.seed);
    let mut checks = Checks::new(stream.keys.len());
    let mut out = Outcome::default();
    if args.trace {
        return traced(args, stream, checks, out);
    }
    // Each repeat binds a fresh tier (new threads, sockets and heap
    // layout), fills its caches and measures an equal share of the slices
    // from the same seeded stream; the metrics are medians over the
    // slices of all tiers.
    let mut setups = Vec::new();
    let mut slices = Vec::new();
    let (mut hits, mut probes) = (0, 0);
    let per_tier = ((args.seconds / SLICE_S / REPEATS as f64).round() as usize).max(1);
    let mut since = started;
    for _ in 0..REPEATS {
        stream = Stream::new(mix, args.seed);
        let mut tier = set_up(&mut stream, &mut checks, &mut out)?;
        setups.push(since.elapsed().as_secs_f64());
        let router_before = tier.router.stats();
        let (slicer, failed) = timed_ops(&mut tier, &mut stream, &mut checks, SLICE_S, per_tier)?;
        let router = tier.router.stats();
        let client = tier.client.stats();
        tier.shutdown();
        since = Instant::now();
        out.failed += failed;
        out.attempted += slicer.all.len() as u64;
        hits += router.cache_hits - router_before.cache_hits;
        probes += router.cache_hits + router.cache_misses
            - router_before.cache_hits
            - router_before.cache_misses;
        println!(
            "{}: tier {}: {} ops in {} slices; client retries {} failed {}; router failovers {} \
             remote_errors {}",
            args.workload,
            setups.len(),
            slicer.all.len(),
            slicer.slices.len(),
            client.retries,
            client.failed,
            router.failovers,
            router.remote_errors
        );
        slices.extend(slicer.slices);
    }
    if slices.is_empty() {
        return Err(format!("{}: no complete timed slice", args.workload));
    }
    let peak_rss = measure::peak_rss_mb()?;
    out.failed += checks.verify(&stream)?;
    println!(
        "{}: router-cache hit share {:.4}; {} slices of {SLICE_S} s",
        args.workload,
        hits as f64 / probes.max(1) as f64,
        slices.len()
    );
    let (ops_per_s, p50, cpu_per_op) = measure::slice_medians(&slices);
    out.metric("setup_s", measure::median(&setups), "s");
    out.metric("ops_per_s", ops_per_s, "1/s");
    out.metric("p50_ms", p50 * 1e3, "ms");
    out.metric("cpu_per_op_ms", cpu_per_op * 1e3, "ms");
    out.metric("peak_rss_mb", peak_rss, "MiB");
    Ok(out)
}

/// The probes a traced run replays requests through: a router without a
/// result cache over one shard of its own (so a replayed router miss
/// takes the same path as the real one), and an in-process `GemmServer`.
struct Shadow {
    shard: ShardServer,
    router: Router,
    server: GemmServer,
    simulators: Vec<Simulator>,
    generator: TraceGenerator,
}

impl Shadow {
    fn start(stream: &mut Stream) -> Result<Shadow, String> {
        let designs = DesignPoint::paper_designs();
        let shard = ShardServer::bind("127.0.0.1:0", ShardConfig::default(), &designs)
            .map_err(|e| e.to_string())?;
        let config = RouterConfig {
            result_cache_capacity: 0,
            ..RouterConfig::default()
        };
        let router =
            Router::new(&[shard.local_addr().to_string()], config).map_err(|e| e.to_string())?;
        let server =
            GemmServer::new(ServeConfig::default(), &designs).map_err(|e| e.to_string())?;
        let simulators = designs
            .iter()
            .map(|d| Simulator::new(d.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let kernel = GemmKernelConfig {
            max_matmuls: ServeConfig::default().matmul_cap,
            ..GemmKernelConfig::default()
        };
        let generator = TraceGenerator::amx_like()
            .with_kernel(kernel)
            .map_err(|e| e.to_string())?;
        if stream.mix == Mix::Hot {
            // The tier's shards and runners hold every key; so must the
            // probes, or a replayed hit would simulate.
            let mut handles = Vec::new();
            for key in 0..stream.keys.len() {
                let request = stream.request(key);
                router.route(&request).map_err(|e| e.to_string())?;
                let k = &stream.keys[key];
                let gemm = GemmRequest::new(designs[k.design].clone(), k.layer.clone());
                handles.push(server.submit(gemm).map_err(|e| e.to_string())?);
            }
            for handle in handles {
                handle.wait().map_err(|e| e.to_string())?;
            }
        }
        Ok(Shadow {
            shard,
            router,
            server,
            simulators,
            generator,
        })
    }

    fn shutdown(self) {
        self.server.shutdown();
        self.router.shutdown();
        self.shard.shutdown();
    }
}

/// Replays one wire hop's payload work on `response`: JSON render and
/// parse, frame encode and decode (no socket). Returns whether the
/// round trip reproduced the response.
fn wire_stages(tracer: &mut Tracer, op: u64, parent: usize, response: &WireResponse) -> bool {
    let (text, _) = tracer.span("json.render", "json", op, Some(parent), || {
        let mut text = String::new();
        response.to_json().write_compact(&mut text);
        text
    });
    let (parsed, _) = tracer.span("json.parse", "json", op, Some(parent), || {
        JsonValue::parse(&text)
            .ok()
            .and_then(|json| WireResponse::from_json(&json).ok())
    });
    let frame = Frame {
        kind: FrameKind::Response,
        payload: text.into_bytes(),
    };
    let (bytes, _) = tracer.span("net.frame_encode", "net", op, Some(parent), || {
        frame.encode()
    });
    let (decoded, _) = tracer.span("net.frame_decode", "net", op, Some(parent), || {
        Frame::decode(&bytes)
    });
    parsed.as_ref() == Some(response)
        && decoded.is_ok_and(|(f, used)| used == bytes.len() && f == frame)
}

/// The traced run: each request is the root span; a router-cache hit is
/// replayed through `Router::route` on the tier's router, a miss through
/// the shadow router, the shadow `GemmServer` and (for `serve_hot`) its
/// runner or (for `serve_miss`) `Simulator::run_layer`,
/// `TraceGenerator::gemm` and `CpuCore::run`.
fn traced(
    args: &Args,
    mut stream: Stream,
    mut checks: Checks,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mix = stream.mix;
    let mut tier = set_up(&mut stream, &mut checks, &mut out)?;
    let shadow = Shadow::start(&mut stream)?;
    let mut tracer = Tracer::new();
    let mut exact = Exact::default();
    let mut extra = Extra::default();
    let shards_before = tier.shard_totals();
    let client_before = tier.client.stats();
    let router_before = tier.router.stats();
    let start = Instant::now();
    let mut op = 0u64;
    while op < mix.exact_ops() || start.elapsed().as_secs_f64() < args.seconds * 2.0 / 3.0 {
        let Some((key, request)) = stream.next() else {
            break;
        };
        let hits_before = tier.router.stats().cache_hits;
        let (answer, root) = tracer.span("net.client", "unattributed", op, None, || {
            tier.client.request(&request)
        });
        let hit = tier.router.stats().cache_hits > hits_before;
        if op < mix.exact_ops() {
            exact.router_probes += 1;
            exact.router_hits += u64::from(hit);
        }
        let mut ok = checks.record(&stream, key, &request, &answer);
        if let Ok(response) = &answer {
            if hit {
                let (replayed, _) = tracer.span("net.route_hit", "net", op, Some(root), || {
                    tier.router.route(&request)
                });
                ok &= replayed.is_ok_and(|r| r.report == response.report);
                ok &= wire_stages(&mut tracer, op, root, response);
            } else {
                let (replayed, route) =
                    tracer.span("net.route_miss", "net", op, Some(root), || {
                        shadow.router.route(&request)
                    });
                ok &= replayed.is_ok_and(|r| r.report == response.report);
                ok &= wire_stages(&mut tracer, op, root, response);
                ok &= wire_stages(&mut tracer, op, route, response);
                let k = &stream.keys[key];
                let design = &stream.designs[k.design];
                let gemm = GemmRequest::new(design.clone(), k.layer.clone());
                let (served, serve) =
                    tracer.span("serve.submit_wait", "serve", op, Some(route), || {
                        shadow.server.submit(gemm).and_then(|handle| handle.wait())
                    });
                let served = served.map_err(|e| e.to_string())?;
                extra.queue_seconds += served.latency.queue_seconds;
                match mix {
                    Mix::Hot => {
                        let job = stream.job(key);
                        let (report, _) =
                            tracer.span("runner.run_job", "runner", op, Some(serve), || {
                                shadow.server.runner().run_job(&job)
                            });
                        ok &= report.is_ok_and(|r| *r == response.report);
                    }
                    Mix::Miss => {
                        let (report, cell) = tracer.span(
                            "simulator.run_layer",
                            "simulator",
                            op,
                            Some(serve),
                            || shadow.simulators[k.design].run_layer(&k.layer),
                        );
                        let report = report.map_err(|e| e.to_string())?;
                        let (program, _) =
                            tracer.span("trace.gemm", "trace", op, Some(cell), || {
                                shadow.generator.gemm(k.layer.gemm_shape(), k.layer.name())
                            });
                        let program = program.map_err(|e| e.to_string())?;
                        let mut core =
                            CpuCore::new(*design.cpu(), MatrixEngine::new(*design.systolic()));
                        let (stats, _) =
                            tracer.span("cpu.run", "cpu", op, Some(cell), || core.run(&program));
                        let stats = stats.map_err(|e| e.to_string())?;
                        extra.cpu_instructions += stats.retired_instructions;
                        ok &= stats == report.cpu && report == response.report;
                        if op < mix.exact_ops() {
                            exact.add_cell(&report);
                        }
                    }
                }
            }
        }
        out.failed += u64::from(!ok);
        op += 1;
        if op == mix.exact_ops() {
            let shards = tier.shard_totals();
            let client = tier.client.stats();
            let router = tier.router.stats();
            exact.runner_hits = shards.hits - shards_before.hits;
            exact.runner_misses = shards.misses - shards_before.misses;
            exact.runner_evictions = shards.evictions - shards_before.evictions;
            exact.batches = shards.batches - shards_before.batches;
            exact.batched_requests = shards.completed - shards_before.completed;
            exact.retries = client.retries - client_before.retries;
            exact.failovers = router.failovers - router_before.failovers;
            exact.remote_errors = router.remote_errors - router_before.remote_errors;
        }
    }
    if op < mix.exact_ops() {
        return Err(format!(
            "{}: the stream ended after {op} traced ops, before the {} the exact counters cover",
            args.workload,
            mix.exact_ops()
        ));
    }
    shadow.shutdown();
    let allocs = rasa_bench::prof::allocations();
    let (slicer, failed) = timed_ops(&mut tier, &mut stream, &mut checks, args.seconds / 3.0, 1)?;
    let latencies = slicer.all;
    extra.allocs_per_op =
        (rasa_bench::prof::allocations() - allocs) as f64 / latencies.len() as f64;
    tier.shutdown();
    out.failed += failed + checks.verify(&stream)?;
    extra.untraced_ops_per_s = latencies.len() as f64 / latencies.iter().sum::<f64>();
    extra.untraced_p99_s = measure::percentile(&latencies, 99.0);
    out.attempted += op + latencies.len() as u64;
    layers::emit(&mut out, &tracer, &exact, &extra);
    crate::write_spans(&tracer, args);
    Ok(out)
}
