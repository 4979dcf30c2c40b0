//! The benchmark's only door into the workspace. Every call into
//! sp-workloads, sp-trace, sp-core, sp-cachesim and sp-serve is made
//! here, so an API change in those crates (collapsing the `run_*` /
//! `sweep_*` families into one entry point, say) is absorbed in this
//! file and the drivers, load generator and reporting stay as they are.
//!
//! The rest of the benchmark sees plain types: kernel names as their
//! wire spelling, counters as integers, replies as strings.

use sp_cachesim::events::{default_early_threshold, Event, EventSink, SummarySink};
use sp_cachesim::mshr::InFlight;
use sp_cachesim::prefetcher::{
    DplPrefetcher, HwPrefetcher, PerceptronPrefetcher, PointerChasePrefetcher, StreamPrefetcher,
};
use sp_cachesim::replacement::PolicyEngine;
use sp_cachesim::{
    Bus, CacheConfig, CacheGeometry, Cycle, Entity, EpochSink, HitClass, HwBackend, MshrFile,
    SetAssocCache, DEFAULT_EPOCH_LEN,
};
use sp_core::{EngineOptions, RunResult, SpParams};
use sp_serve::{Json, Request, ResultCache, Server, ServerConfig, SimEngine};
use sp_trace::{AccessKind, CompiledTrace, HotLoopTrace, SiteId};
use sp_workloads::{KernelKind, ScaleTier, WorkloadBuilder};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// FNV-1a over `bytes` — the digest sp-serve keys its cache with, used
/// for every output check in the benchmark.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    sp_serve::fnv1a64(bytes)
}

/// The wire spelling of every workload-builder kernel, in builder order.
pub fn kernel_names() -> Vec<&'static str> {
    KernelKind::ALL.iter().map(|k| k.flag()).collect()
}

fn kernel(name: &str) -> KernelKind {
    KernelKind::parse(name).expect("the benchmark names only builder kernels")
}

/// The simulated machines the sim workloads run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// `CacheConfig::scaled_default()`: 4 KB/8-way L1s, 256 KB/16-way
    /// L2, streamer + DPL prefetchers.
    Scaled,
    /// The scaled machine with an 8 KB/4-way L2 and the pointer-chase
    /// backend, so the LDS footprints overflow the L2.
    SmallL2PointerChase,
}

impl Machine {
    fn config(self) -> CacheConfig {
        match self {
            Machine::Scaled => CacheConfig::scaled_default(),
            Machine::SmallL2PointerChase => {
                let mut cfg =
                    CacheConfig::scaled_default().with_hw_backend(HwBackend::PointerChase);
                cfg.l2 = CacheGeometry::new(8 * 1024, 4, cfg.l2.line_size);
                cfg.validate();
                cfg
            }
        }
    }
}

/// A synthesized hot-loop trace (the workloads layer's output).
pub struct Workload {
    trace: HotLoopTrace,
}

/// Synthesize `kernel` at the scaled tier with the given layout seed.
pub fn build(kernel_name: &str, seed: u64) -> Workload {
    let trace = WorkloadBuilder::new(kernel(kernel_name))
        .tier(ScaleTier::Scaled)
        .seed(seed)
        .trace();
    Workload { trace }
}

impl Workload {
    /// References in one pass of the hot loop.
    pub fn refs(&self) -> u64 {
        self.trace.total_refs() as u64
    }
}

/// Main-thread references in one pass of `kernel_name`'s test-scale
/// trace — the trace sp-serve simulates for `"scale":"test"` requests.
pub fn test_trace_refs(kernel_name: &str) -> u64 {
    WorkloadBuilder::new(kernel(kernel_name))
        .tier(ScaleTier::Tiny)
        .trace()
        .total_refs() as u64
}

/// A trace compiled for one machine's address mapping (the trace layer's
/// output), shared by every grid point.
pub struct Compiled {
    ct: Arc<CompiledTrace>,
    cfg: CacheConfig,
}

/// Compile `w` for `machine`.
pub fn compile(w: &Workload, machine: Machine) -> Compiled {
    let cfg = machine.config();
    Compiled {
        ct: Arc::new(sp_core::compile_trace(&w.trace, &cfg)),
        cfg,
    }
}

/// Counters of one simulated run that the benchmark reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Demand references simulated (main + helper thread).
    pub refs: u64,
    /// Main-thread completion time, simulated cycles.
    pub sim_cycles: u64,
    pub helper_waits: u64,
    pub helper_jumps: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l2_partial_hits: u64,
    pub l2_misses: u64,
    pub l2_fills: u64,
    pub l2_evictions: u64,
    pub writebacks: u64,
    pub bus_busy_cycles: u64,
    pub bus_queued: u64,
    pub pollution: u64,
    pub dead_prefetches: u64,
    /// Per prefetch class, in [`PF_CLASSES`] order.
    pub pf_issued: [u64; 5],
    pub pf_useful: [u64; 5],
}

/// Prefetch classes, in the order of the per-class counter arrays.
pub const PF_CLASSES: [&str; 5] = ["helper", "stream", "dpl", "pchase", "perceptron"];

impl Counters {
    /// Element-wise sum.
    pub fn add(&mut self, o: &Counters) {
        let scalars = [
            (&mut self.refs, o.refs),
            (&mut self.sim_cycles, o.sim_cycles),
            (&mut self.helper_waits, o.helper_waits),
            (&mut self.helper_jumps, o.helper_jumps),
            (&mut self.l1_hits, o.l1_hits),
            (&mut self.l2_hits, o.l2_hits),
            (&mut self.l2_partial_hits, o.l2_partial_hits),
            (&mut self.l2_misses, o.l2_misses),
            (&mut self.l2_fills, o.l2_fills),
            (&mut self.l2_evictions, o.l2_evictions),
            (&mut self.writebacks, o.writebacks),
            (&mut self.bus_busy_cycles, o.bus_busy_cycles),
            (&mut self.bus_queued, o.bus_queued),
            (&mut self.pollution, o.pollution),
            (&mut self.dead_prefetches, o.dead_prefetches),
        ];
        for (mine, theirs) in scalars {
            *mine += theirs;
        }
        for c in 0..5 {
            self.pf_issued[c] += o.pf_issued[c];
            self.pf_useful[c] += o.pf_useful[c];
        }
    }
}

/// One simulated run: its reported counters, every statistic the run
/// produced (for the output digest), and the epoch series when the
/// recorder was attached.
#[derive(Debug, Clone)]
pub struct Run {
    pub counters: Counters,
    pub stat_words: Vec<u64>,
    pub epochs_ndjson: Option<String>,
}

fn run_of(r: &RunResult, epochs_ndjson: Option<String>) -> Run {
    let s = &r.stats;
    let thread = |t: &sp_cachesim::ThreadStats| {
        [
            t.l1_hits,
            t.total_hits,
            t.partial_hits,
            t.total_misses,
            t.stall_cycles,
        ]
    };
    let mut words = vec![
        r.runtime,
        r.helper_runtime,
        r.outer_iters as u64,
        r.helper_waits,
        r.helper_jumps,
    ];
    words.extend(thread(&s.main));
    words.extend(thread(&s.helper));
    words.extend(s.prefetches_issued);
    words.extend(s.prefetches_useful);
    words.push(s.l2_fills);
    words.extend(s.l2_fills_by);
    words.extend([s.l2_evictions, s.writebacks, s.l1_writeback_misses]);
    words.extend([
        s.pollution.reuse_evictions,
        s.pollution.unused_helper_evictions,
        s.pollution.unused_hw_evictions,
        s.pollution.dead_prefetches,
    ]);
    words.extend([s.bus_busy_cycles, s.bus_queued]);
    let both = |f: fn(&sp_cachesim::ThreadStats) -> u64| f(&s.main) + f(&s.helper);
    Run {
        counters: Counters {
            refs: s.main.demand_accesses() + s.helper.demand_accesses(),
            sim_cycles: r.runtime,
            helper_waits: r.helper_waits,
            helper_jumps: r.helper_jumps,
            l1_hits: both(|t| t.l1_hits),
            l2_hits: both(|t| t.total_hits),
            l2_partial_hits: both(|t| t.partial_hits),
            l2_misses: both(|t| t.total_misses),
            l2_fills: s.l2_fills,
            l2_evictions: s.l2_evictions,
            writebacks: s.writebacks,
            bus_busy_cycles: s.bus_busy_cycles,
            bus_queued: s.bus_queued,
            pollution: s.pollution.total(),
            dead_prefetches: s.pollution.dead_prefetches,
            pf_issued: s.prefetches_issued,
            pf_useful: s.prefetches_useful,
        },
        stat_words: words,
        epochs_ndjson,
    }
}

/// A whole distance sweep: the baseline run first, then one run per
/// distance, plus the fan-out executor's timing.
pub struct SweepOut {
    pub runs: Vec<Run>,
    pub runner_busy: Duration,
    pub runner_wall: Duration,
    /// Worker threads the executor used.
    pub runner_workers: usize,
}

/// Run the paper's sweep over `c` through the sweep entry point: the
/// plain one, or the epoch-recording one at the default window when
/// `epochs` is set.
pub fn sweep(c: &Compiled, distances: &[u32], rp: f64, jobs: usize, epochs: bool) -> SweepOut {
    let opts = EngineOptions::default();
    let (runs, report) = if epochs {
        let (s, e, report) = sp_core::sweep_epochs_compiled_jobs_with(
            &c.ct,
            c.cfg,
            rp,
            distances,
            opts,
            DEFAULT_EPOCH_LEN,
            jobs,
        )
        .expect("compiled for this machine");
        let mut runs = vec![run_of(&s.baseline, Some(e.baseline.to_ndjson("")))];
        for (p, series) in s.points.iter().zip(&e.points) {
            runs.push(run_of(&p.run, Some(series.to_ndjson(""))));
        }
        (runs, report)
    } else {
        let (s, report) =
            sp_core::sweep_compiled_jobs_with(&c.ct, c.cfg, rp, distances, opts, jobs)
                .expect("compiled for this machine");
        let mut runs = vec![run_of(&s.baseline, None)];
        runs.extend(s.points.iter().map(|p| run_of(&p.run, None)));
        (runs, report)
    };
    SweepOut {
        runs,
        runner_busy: report.busy,
        runner_wall: report.wall,
        runner_workers: report.workers,
    }
}

/// One grid point: the original program, or SP at a distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    Baseline,
    Distance(u32),
}

fn run_point_with<S: EventSink>(c: &Compiled, p: Point, rp: f64, sink: &mut S) -> RunResult {
    match p {
        Point::Baseline => sp_core::run_original_passes_compiled_ev(&c.ct, c.cfg, 1, sink),
        Point::Distance(d) => sp_core::run_sp_with_compiled_ev(
            &c.ct,
            c.cfg,
            SpParams::from_distance_rp(d, rp),
            EngineOptions::default(),
            sink,
        ),
    }
    .expect("compiled for this machine")
}

fn epoch_sink(cfg: &CacheConfig) -> EpochSink {
    EpochSink::new(DEFAULT_EPOCH_LEN, default_early_threshold(&cfg.latency))
}

/// One grid point run on its own, exactly as the sweep runs it (with the
/// epoch recorder when `epochs` is set).
pub fn run_point(c: &Compiled, p: Point, rp: f64, epochs: bool) -> Run {
    if epochs {
        let mut sink = epoch_sink(&c.cfg);
        let r = run_point_with(c, p, rp, &mut sink);
        run_of(&r, Some(sink.finish().to_ndjson("")))
    } else {
        run_of(&run_point_with(c, p, rp, &mut sp_cachesim::NullSink), None)
    }
}

/// Memory systems built so far in this process (a parked simulator that
/// is reused does not count).
pub fn sim_builds() -> u64 {
    sp_cachesim::sim_build_count()
}

/// One observation the memory system hands an event sink, in order.
enum Captured {
    Event(Event),
    Tick(Entity, HitClass, u32, usize, Cycle),
}

/// A sink that keeps the whole stream, so it can be fed to the
/// recorders afterwards and the recorders timed on their own.
struct CaptureSink(Vec<Captured>);

impl EventSink for CaptureSink {
    const ENABLED: bool = true;
    const DEMAND_TICKS: bool = true;

    fn emit(&mut self, ev: Event) {
        self.0.push(Captured::Event(ev));
    }

    fn demand_tick(&mut self, e: Entity, class: HitClass, set: u32, mshr: usize, at: Cycle) {
        self.0.push(Captured::Tick(e, class, set, mshr, at));
    }
}

/// The event-stream rung of one grid point: how many events the run
/// emits, and the host time the epoch and summary recorders take per
/// observation when fed the captured stream.
#[derive(Debug, Clone, Copy, Default)]
pub struct EventRung {
    /// Events emitted (not counting demand ticks).
    pub events: u64,
    /// Demand ticks emitted.
    pub ticks: u64,
    /// Demand references the run simulated.
    pub refs: u64,
    /// Host time `EpochSink` spent on events and ticks.
    pub epoch_time: Duration,
    /// Host time `SummarySink` spent on events.
    pub summary_time: Duration,
}

/// Capture the event stream of one grid point, then replay it into an
/// `EpochSink` and a `SummarySink`. Panics if the replayed epoch series
/// differs from the one the run records live — the capture must be
/// lossless for the timing to mean anything.
pub fn event_rung(c: &Compiled, p: Point, rp: f64) -> EventRung {
    let mut cap = CaptureSink(Vec::new());
    let r = run_point_with(c, p, rp, &mut cap);
    let live = run_point(c, p, rp, true).epochs_ndjson;

    let mut epoch = epoch_sink(&c.cfg);
    let t = Instant::now();
    for rec in &cap.0 {
        match *rec {
            Captured::Event(ev) => epoch.emit(ev),
            Captured::Tick(e, class, set, mshr, at) => epoch.demand_tick(e, class, set, mshr, at),
        }
    }
    let replayed = epoch.finish();
    let epoch_time = t.elapsed();
    assert_eq!(
        Some(replayed.to_ndjson("")),
        live,
        "replayed event stream must fold to the live epoch series"
    );

    let mut summary = SummarySink::new(default_early_threshold(&c.cfg.latency));
    let t = Instant::now();
    for rec in &cap.0 {
        if let Captured::Event(ev) = *rec {
            summary.emit(ev);
        }
    }
    black_box(&summary);
    let summary_time = t.elapsed();

    let ticks = cap
        .0
        .iter()
        .filter(|r| matches!(r, Captured::Tick(..)))
        .count() as u64;
    EventRung {
        events: cap.0.len() as u64 - ticks,
        ticks,
        refs: run_of(&r, None).counters.refs,
        epoch_time,
        summary_time,
    }
}

/// Hardware prefetcher backends the prefetcher rung drives.
pub const PREFETCHERS: [&str; 4] = ["stream", "dpl", "pchase", "perceptron"];

/// Time `pass` repeatedly until `budget` has elapsed (at least three
/// passes) and return the median host nanoseconds per operation.
fn median_ns_per_op(budget: Duration, ops: usize, mut pass: impl FnMut()) -> f64 {
    let mut per_op = Vec::new();
    let start = Instant::now();
    while per_op.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        pass();
        per_op.push(t.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    per_op.sort_by(f64::total_cmp);
    per_op[per_op.len() / 2]
}

/// A workload's main-thread reference stream, prepared for replay
/// through single cachesim components (the layer rungs). Each rung
/// reports host nanoseconds per operation, the median over repeated
/// passes lasting about `budget` in all.
pub struct RungStreams {
    cfg: CacheConfig,
    /// `(address, site, is_store)` in program order.
    refs: Vec<(u64, u32, bool)>,
    /// Replacement decisions of an L2 replay of the L1 miss stream:
    /// `(set, Some(way))` for a hit, `(set, None)` for a fill.
    repl_ops: Vec<(usize, Option<usize>)>,
    /// The L2 miss stream, `(block, is_store)`.
    misses: Vec<(u64, bool)>,
    budget: Duration,
}

/// Cycles between consecutive L2 misses in the MSHR and bus rungs:
/// short against the memory latency, so the MSHR file runs near
/// capacity as it does under a miss-heavy stream.
const MISS_GAP: Cycle = 8;

impl RungStreams {
    /// Prepare the streams of `ws` on `machine` (untimed).
    pub fn new(ws: &[&Workload], machine: Machine, budget: Duration) -> RungStreams {
        let cfg = machine.config();
        let refs: Vec<(u64, u32, bool)> = ws
            .iter()
            .flat_map(|w| w.trace.iters.iter().flat_map(|it| it.refs()))
            .map(|r| (r.vaddr, r.site.0, r.kind == AccessKind::Store))
            .collect();
        let mut l1 = SetAssocCache::new(cfg.l1, cfg.policy);
        let mut l2 = SetAssocCache::new(cfg.l2, cfg.policy);
        let mut repl_ops = Vec::new();
        let mut misses = Vec::new();
        for &(addr, _, store) in &refs {
            if l1.touch(addr, store, true).is_some() {
                continue;
            }
            l1.fill(addr, Entity::Main, false);
            let set = cfg.l2.set_of(addr) as usize;
            match l2.probe(addr) {
                Some(way) => {
                    l2.touch(addr, store, true);
                    repl_ops.push((set, Some(way)));
                }
                None => {
                    l2.fill(addr, Entity::Main, false);
                    repl_ops.push((set, None));
                    misses.push((cfg.l2.block_of(addr), store));
                }
            }
        }
        RungStreams {
            cfg,
            refs,
            repl_ops,
            misses,
            budget,
        }
    }

    /// `SetAssocCache` touch, and fill on a miss, on the L1 geometry
    /// and then (for L1 misses) the L2 geometry; per cache access.
    pub fn cache(&self) -> f64 {
        let cfg = &self.cfg;
        let mut l1 = SetAssocCache::new(cfg.l1, cfg.policy);
        let mut l2 = SetAssocCache::new(cfg.l2, cfg.policy);
        let accesses = self.refs.len() + self.repl_ops.len();
        median_ns_per_op(self.budget, accesses, || {
            l1.reset();
            l2.reset();
            for &(addr, _, store) in &self.refs {
                if l1.touch(addr, store, true).is_none() {
                    l1.fill(addr, Entity::Main, false);
                    if l2.touch(addr, store, true).is_none() {
                        black_box(l2.fill(addr, Entity::Main, false));
                    }
                }
            }
        })
    }

    /// `PolicyEngine` hit promotion, or victim choice plus fill, per L2
    /// access.
    pub fn replacement(&self) -> f64 {
        let g = self.cfg.l2;
        let mut engine = PolicyEngine::new(self.cfg.policy, g.sets() as usize, g.ways as usize);
        median_ns_per_op(self.budget, self.repl_ops.len(), || {
            engine.reset();
            for &(set, way) in &self.repl_ops {
                match way {
                    Some(w) => engine.on_hit(set, w),
                    None => {
                        let v = engine.victim(set);
                        engine.on_fill(set, v);
                    }
                }
            }
            black_box(&engine);
        })
    }

    /// `MshrFile` drain, lookup and allocate (or demand merge) per L2
    /// miss.
    pub fn mshr(&self) -> f64 {
        let mut mshr = MshrFile::new(self.cfg.mshr_entries);
        let mem = self.cfg.latency.mem;
        median_ns_per_op(self.budget, self.misses.len(), || {
            mshr.reset();
            for (i, &(block, store)) in self.misses.iter().enumerate() {
                let now = i as Cycle * MISS_GAP;
                while mshr.pop_earliest_ready(now).is_some() {}
                if mshr.lookup(block).is_some() {
                    black_box(mshr.merge_demand(block, store));
                    continue;
                }
                if mshr.is_full() {
                    let ready = mshr.earliest_ready().expect("a full file has entries");
                    black_box(mshr.pop_earliest_ready(ready));
                }
                let entry = InFlight {
                    block,
                    ready_at: now + mem,
                    requester: Entity::Main,
                    prefetch: false,
                    store,
                };
                mshr.allocate(entry).expect("room was made");
            }
        })
    }

    /// `Bus::request` per L2 miss.
    pub fn bus(&self) -> f64 {
        let mut bus = Bus::new(self.cfg.latency.bus_service);
        median_ns_per_op(self.budget, self.misses.len(), || {
            bus.reset();
            for i in 0..self.misses.len() {
                black_box(bus.request(i as Cycle * MISS_GAP));
            }
        })
    }

    /// `HwPrefetcher::observe` per demand reference, for the backend
    /// named `name` (one of [`PREFETCHERS`]), built as the memory
    /// system builds it.
    pub fn prefetcher(&self, name: &str) -> f64 {
        let c = &self.cfg;
        let line = c.l2.line_size;
        match name {
            "stream" => self.observe(StreamPrefetcher::new(c.stream_slots, c.stream_degree, line)),
            "dpl" => self.observe(DplPrefetcher::new(c.dpl_entries, c.dpl_degree, line)),
            "pchase" => self.observe(PointerChasePrefetcher::new(
                c.pchase_entries,
                c.pchase_depth,
            )),
            "perceptron" => self.observe(PerceptronPrefetcher::new(
                c.dpl_entries,
                32,
                c.dpl_degree,
                line,
            )),
            other => panic!("unknown prefetcher rung {other}"),
        }
    }

    fn observe<P: HwPrefetcher>(&self, mut pf: P) -> f64 {
        let line = self.cfg.l2.line_size;
        let mut out = Vec::new();
        median_ns_per_op(self.budget, self.refs.len(), || {
            pf.reset();
            for &(addr, site, _) in &self.refs {
                pf.observe(SiteId(site), addr & !(line - 1), &mut out);
                black_box(&out);
                out.clear();
            }
        })
    }
}

/// A parsed JSON document (sp-serve's codec).
#[derive(Debug, Clone)]
pub struct JsonDoc(Json);

/// Parse one JSON document.
pub fn parse_json(text: &str) -> Result<JsonDoc, String> {
    Json::parse(text).map(JsonDoc)
}

impl JsonDoc {
    fn at(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(&self.0, |v, k| v.get(k))
    }

    /// The number at `path` (object keys from the root).
    pub fn num(&self, path: &[&str]) -> Option<f64> {
        self.at(path).and_then(Json::as_f64)
    }

    /// The string at `path`.
    pub fn str(&self, path: &[&str]) -> Option<&str> {
        self.at(path).and_then(Json::as_str)
    }

    /// The elements of the array at `path` (empty when absent).
    pub fn items(&self, path: &[&str]) -> Vec<JsonDoc> {
        self.at(path)
            .and_then(Json::as_arr)
            .map_or_else(Vec::new, |xs| xs.iter().cloned().map(JsonDoc).collect())
    }
}

/// An in-process sp-serve daemon on a loopback port.
pub struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
}

/// Bind a fresh daemon on `127.0.0.1:0` with one pool worker and the
/// default result cache, and start serving on a thread of its own.
pub fn start_daemon() -> std::io::Result<Daemon> {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    Ok(Daemon { addr, thread })
}

impl Daemon {
    /// Where the daemon listens.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the daemon to drain and wait until it has exited. Close every
    /// client connection first, or the drain waits for its read timeout.
    pub fn stop(self) -> std::io::Result<()> {
        let mut s = TcpStream::connect(self.addr)?;
        s.write_all(b"{\"type\":\"shutdown\"}\n")?;
        let mut reply = String::new();
        BufReader::new(&s).read_line(&mut reply)?;
        drop(s);
        self.thread
            .join()
            .expect("the daemon thread does not panic")
    }
}

/// A parsed request line.
pub struct Parsed(Request);

/// Parse one request line with the daemon's own parser.
pub fn parse(line: &str) -> Result<Parsed, String> {
    Request::parse(line).map(Parsed)
}

impl Parsed {
    /// The daemon's result-cache key for this request (`None` when the
    /// request is never cached).
    pub fn cache_key(&self) -> Option<String> {
        self.0.cache_key()
    }
}

/// The daemon's simulation engine, driven directly (no socket, no pool).
pub struct Engine(SimEngine);

impl Engine {
    pub fn new() -> Engine {
        Engine(SimEngine::new())
    }

    /// Execute a parsed request, returning the encoded `result` payload.
    pub fn execute(&self, req: &Parsed) -> Result<String, String> {
        self.0.execute(&req.0.cmd)
    }
}

/// The daemon's result cache, driven directly.
pub struct LocalCache(ResultCache);

impl LocalCache {
    /// A cache with the daemon's default capacity and sharding.
    pub fn new() -> LocalCache {
        let d = ServerConfig::default();
        LocalCache(ResultCache::new(d.cache_entries, d.shards))
    }

    pub fn get(&self, key: &str) -> Option<String> {
        self.0.get(key)
    }

    pub fn put(&self, key: &str, value: String) {
        self.0.put(key, value)
    }
}
