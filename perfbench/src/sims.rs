//! The two simulation workloads: `em3d-sweep` and `lds-epochs`. Both are
//! closed loops with one caller that repeats the workload's sweep round
//! back to back.

use crate::adapter::{self, Compiled, Machine, Point, SweepOut, Workload, PF_CLASSES, PREFETCHERS};
use crate::measure::{host_probe_ns, median, peak_rss_mb, tail, Digest, Report, PROBE_NOMINAL_NS};
use crate::span::{in_span, span};
use crate::Outcome;
use std::time::{Duration, Instant};

/// A simulation workload: which kernels, on which machine, over which
/// distance grid, and the digests its outputs must reproduce.
pub struct SimSpec {
    pub name: &'static str,
    kernels: &'static [&'static str],
    machine: Machine,
    distances: &'static [u32],
    /// Fan-out width of each sweep call.
    jobs: usize,
    /// Attach the epoch recorder (the epoch sweep entry point).
    epochs: bool,
    /// Pinned output digests, `[seed variant][kernel]`.
    digests: &'static [&'static [u64]],
    /// The traced run also drives the serve layer (see `serve_mix`).
    serve_layers: bool,
}

/// Prefetch ratio of every sweep (the paper's RP for all three
/// benchmarks).
const RP: f64 = 0.5;

/// The seed argument selects one of this many pinned input variants
/// (`seed % SEED_VARIANTS`), so every input has a pinned output digest.
pub const SEED_VARIANTS: u64 = 8;

/// The workload-layout seed of a variant.
fn layout_seed(variant: u64) -> u64 {
    0x5EED_0000 + variant
}

/// Setup (trace synthesis + compile) repetitions; `setup_s` is their
/// median.
const SETUP_REPS: usize = 5;

/// Fewest timed rounds a run reports, however short `--seconds` is.
const MIN_ROUNDS: usize = 5;

/// The Fig. 2 grid: baseline + these distances, 9 runs per sweep.
const DISTANCES_EM3D: &[u32] = &[2, 5, 10, 20, 40, 80, 160, 320];
const DISTANCES_LDS: &[u32] = &[2, 4, 8, 16, 32, 64, 128, 256];

pub const EM3D_SWEEP: SimSpec = SimSpec {
    name: "em3d-sweep",
    kernels: &["em3d"],
    machine: Machine::Scaled,
    distances: DISTANCES_EM3D,
    jobs: 1,
    epochs: false,
    serve_layers: false,
    digests: &[
        &[0x1368_710a_82bd_b5e8],
        &[0x40d0_8736_4cb3_98da],
        &[0xdc4c_eb01_2890_9dd3],
        &[0xce0f_3dea_d342_7787],
        &[0x3c51_118e_6358_85b3],
        &[0x2b20_9964_be69_0190],
        &[0x2c0a_cc6d_1f40_b0f1],
        &[0xc913_bc5f_012c_bad3],
    ],
};

pub const LDS_EPOCHS: SimSpec = SimSpec {
    name: "lds-epochs",
    kernels: &["hashjoin", "bfs", "skiplist", "btree"],
    machine: Machine::SmallL2PointerChase,
    distances: DISTANCES_LDS,
    jobs: 2,
    epochs: true,
    serve_layers: true,
    digests: &[
        &[
            0xf220_1b17_45d1_2de8,
            0x4642_edcf_07f7_70e2,
            0xfc0e_f54e_4ce1_1ed5,
            0x9bbe_72b8_379d_c1be,
        ],
        &[
            0x1008_6798_b0e6_be1b,
            0x4fbf_8706_8aee_b545,
            0x1134_4353_df6e_1be8,
            0x8df2_28cd_f5dd_11dd,
        ],
        &[
            0x02a0_20c3_ab5b_e043,
            0x6892_60cd_b6ff_9051,
            0x42ce_88bb_d7fc_126d,
            0xd819_c2bb_250b_4a11,
        ],
        &[
            0x8415_450c_8cbd_5292,
            0x4e80_7a56_2a63_289b,
            0x73d0_f23b_74ba_2c0b,
            0x0e16_02d6_d751_26ab,
        ],
        &[
            0x7666_a41f_d187_8031,
            0xea26_78d2_27c1_70ba,
            0xb5fe_aba8_7d2c_6ce6,
            0x1b13_89b2_be07_9cf5,
        ],
        &[
            0xf90a_121a_d218_64a4,
            0xa610_1cf0_6dfb_bc8b,
            0xef55_d3bb_aae9_2aee,
            0x2a81_429e_2694_977a,
        ],
        &[
            0x3734_859c_be10_e369,
            0x0540_5b2d_f79c_87ee,
            0x694d_c8a0_3a51_bdab,
            0x8757_d3d5_268e_7017,
        ],
        &[
            0xc48a_e3db_6b47_cd53,
            0x98d6_e529_c148_9429,
            0x295d_be7b_769f_e14b,
            0xb33e_644b_945a_5b05,
        ],
    ],
};

/// Digest of a sweep's per-run statistics (and epoch NDJSON), baseline
/// first, in grid order.
pub fn runs_digest<'a>(runs: impl IntoIterator<Item = &'a adapter::Run>) -> u64 {
    let mut d = Digest::new();
    for r in runs {
        d.words(&r.stat_words);
        if let Some(nd) = &r.epochs_ndjson {
            d.bytes(nd.as_bytes());
        }
    }
    d.value()
}

/// Compare a digest with the pinned one; report a mismatch on stderr.
pub fn check_digest(what: &str, actual: u64, expected: u64) -> bool {
    if actual != expected {
        eprintln!("perfbench: {what}: output digest {actual:#018x}, pinned {expected:#018x}");
    }
    actual == expected
}

/// Outputs checked so far.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn sweep(&mut self, spec: &SimSpec, variant: u64, k: usize, runs: &[adapter::Run]) {
        let what = format!("{} variant {variant} kernel {}", spec.name, spec.kernels[k]);
        let ok = check_digest(&what, runs_digest(runs), spec.digests[variant as usize][k]);
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// One round: a sweep of every kernel, timed as a whole, and the mean of
/// the host probe run right before and right after it.
struct Round {
    secs: f64,
    probe_ns: f64,
    outs: Vec<SweepOut>,
}

impl Round {
    /// Host time scaled to the probe's nominal speed.
    fn norm_secs(&self) -> f64 {
        self.secs * PROBE_NOMINAL_NS / self.probe_ns
    }
}

fn round(spec: &SimSpec, compiled: &[Compiled], traced: bool) -> Round {
    let before = host_probe_ns();
    let t = Instant::now();
    let outs = compiled
        .iter()
        .map(|c| {
            let _s = if traced { span("core", "sweep") } else { None };
            adapter::sweep(c, spec.distances, RP, spec.jobs, spec.epochs)
        })
        .collect();
    let secs = t.elapsed().as_secs_f64();
    Round {
        secs,
        probe_ns: (before + host_probe_ns()) / 2.0,
        outs,
    }
}

/// Rounds back to back until `budget` has passed, each checked. With
/// `alternate`, every other round records a span per sweep call, so the
/// plain rounds and the traced ones (second list) see the same machine.
fn timed_rounds(
    spec: &SimSpec,
    variant: u64,
    compiled: &[Compiled],
    budget: Duration,
    alternate: bool,
    checks: &mut Checks,
) -> (Vec<Round>, Vec<Round>) {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while plain.len() < MIN_ROUNDS || start.elapsed() < budget {
        for with_spans in [false, true].into_iter().take(1 + usize::from(alternate)) {
            let r = round(spec, compiled, with_spans);
            for (k, out) in r.outs.iter().enumerate() {
                checks.sweep(spec, variant, k, &out.runs);
            }
            if with_spans {
                traced.push(r);
            } else {
                plain.push(r);
            }
        }
    }
    (plain, traced)
}

fn round_refs(r: &Round) -> u64 {
    r.outs
        .iter()
        .flat_map(|o| &o.runs)
        .map(|run| run.counters.refs)
        .sum()
}

/// Median simulated refs per second of host time over `rounds`, at the
/// nominal host speed (`norm`) or as measured.
fn refs_per_s(rounds: &[Round], norm: bool) -> f64 {
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| round_refs(r) as f64 / if norm { r.norm_secs() } else { r.secs })
        .collect();
    median(&rates)
}

/// Run `spec` for about `seconds` with inputs from `seed`.
pub fn run(spec: &SimSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let variant = seed % SEED_VARIANTS;
    if traced {
        crate::span::enable();
    }
    let mut report = Report::default();
    let mut checks = Checks::default();

    // Set up several times; keep the last build, report the medians.
    let (mut build_s, mut compile_s, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut built: Option<(Vec<Workload>, Vec<Compiled>)> = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let scale = PROBE_NOMINAL_NS / host_probe_ns();
        let t = Instant::now();
        let ws: Vec<Workload> = in_span("workloads", "build", || {
            spec.kernels
                .iter()
                .map(|k| adapter::build(k, layout_seed(variant)))
                .collect()
        });
        let tb = t.elapsed().as_secs_f64();
        let cs: Vec<Compiled> = in_span("trace", "compile", || {
            ws.iter()
                .map(|w| adapter::compile(w, spec.machine))
                .collect()
        });
        let total = t.elapsed().as_secs_f64();
        build_s.push(tb);
        compile_s.push(total - tb);
        setup_s.push(total * scale);
        built = Some((ws, cs));
    }
    let (workloads, compiled) = built.expect("at least one setup");

    // Warm up: parks each worker's simulator before anything is timed.
    let warm = round(spec, &compiled, false);
    for (k, out) in warm.outs.iter().enumerate() {
        checks.sweep(spec, variant, k, &out.runs);
    }

    let budget = Duration::from_secs_f64(seconds);
    let builds_before = adapter::sim_builds();
    let (rounds, traced_rounds) =
        timed_rounds(spec, variant, &compiled, budget, traced, &mut checks);
    let builds = adapter::sim_builds() - builds_before;

    let round_ms: Vec<f64> = rounds.iter().map(|r| r.norm_secs() * 1e3).collect();
    let lat = tail(&round_ms, 99.0);
    let untraced_rate = refs_per_s(&rounds, true);

    if !traced {
        report.put("sim_refs_per_s", untraced_rate, "refs/s");
        report.put("setup_s", median(&setup_s), "s");
        report.put("peak_rss_mb", peak_rss_mb(), "MiB");
        report.put("lat_p50_ms", lat.p50, "ms");
        report.put("lat_p99_ms", lat.value, "ms");
        return Outcome {
            report,
            attempted: checks.attempted,
            failed: checks.failed,
        };
    }

    // Traced run: the rounds above alternated with rounds recording a
    // span per sweep call; then every grid point on its own, then the
    // component rungs.
    report.put(
        "obs.trace_overhead",
        refs_per_s(&traced_rounds, true) / untraced_rate,
        "ratio",
    );
    report.put("core.host_refs_per_s", refs_per_s(&rounds, false), "refs/s");
    let probes: Vec<f64> = rounds.iter().map(|r| r.probe_ns).collect();
    report.put("host.probe_ns", median(&probes), "ns");
    report.put("core.rounds", rounds.len() as f64, "count");
    report.put("core.round_pct", lat.pct, "pct");

    report.put("workloads.build_s", median(&build_s), "s");
    report.put("trace.compile_s", median(&compile_s), "s");
    report.put(
        "workloads.refs",
        workloads.iter().map(Workload::refs).sum::<u64>() as f64,
        "count",
    );

    // Counters of one round (the whole grid of every kernel); exact.
    let mut sum = adapter::Counters::default();
    for run in rounds[0].outs.iter().flat_map(|o| &o.runs) {
        sum.add(&run.counters);
    }
    put_counters(&mut report, &sum);
    // Per round, so the count does not depend on how many rounds fit.
    let all_rounds = (rounds.len() + traced_rounds.len()) as f64;
    report.put("cachesim.sim_builds", builds as f64 / all_rounds, "count");

    let busy: f64 = rounds
        .iter()
        .flat_map(|r| &r.outs)
        .map(|o| o.runner_busy.as_secs_f64())
        .sum();
    let wall: f64 = rounds
        .iter()
        .flat_map(|r| &r.outs)
        .map(|o| o.runner_wall.as_secs_f64())
        .sum();
    let capacity: f64 = rounds
        .iter()
        .flat_map(|r| &r.outs)
        .map(|o| o.runner_wall.as_secs_f64() * o.runner_workers as f64)
        .sum();
    report.put("runner.busy_s", busy, "s");
    report.put("runner.wall_s", wall, "s");
    report.put("runner.utilization", busy / capacity, "ratio");

    point_calls(spec, variant, &compiled, &mut report, &mut checks);
    component_rungs(spec, &workloads, &compiled, &mut report);
    if spec.serve_layers {
        let (attempted, failed) = crate::serve_mix::layer_section(seed, seconds / 2.0, &mut report);
        checks.attempted += attempted;
        checks.failed += failed;
    }

    Outcome {
        report,
        attempted: checks.attempted,
        failed: checks.failed,
    }
}

fn put_counters(report: &mut Report, c: &adapter::Counters) {
    report.put("core.sim_cycles", c.sim_cycles as f64, "cycles");
    report.put("core.helper_waits", c.helper_waits as f64, "count");
    report.put("core.helper_jumps", c.helper_jumps as f64, "count");
    let counts = [
        ("l1_hits", c.l1_hits),
        ("l2_hits", c.l2_hits),
        ("l2_partial_hits", c.l2_partial_hits),
        ("l2_misses", c.l2_misses),
        ("l2_fills", c.l2_fills),
        ("l2_evictions", c.l2_evictions),
        ("writebacks", c.writebacks),
        ("bus_queued", c.bus_queued),
        ("pollution", c.pollution),
        ("dead_prefetches", c.dead_prefetches),
    ];
    for (name, v) in counts {
        report.put(format!("cachesim.{name}"), v as f64, "count");
    }
    report.put(
        "cachesim.bus_busy_cycles",
        c.bus_busy_cycles as f64,
        "cycles",
    );
    for (i, class) in PF_CLASSES.iter().enumerate() {
        let (issued, useful) = (c.pf_issued[i], c.pf_useful[i]);
        report.put(
            format!("cachesim.pf_issued.{class}"),
            issued as f64,
            "count",
        );
        report.put(
            format!("cachesim.pf_useful.{class}"),
            useful as f64,
            "count",
        );
        let accuracy = if issued == 0 {
            0.0
        } else {
            useful as f64 / issued as f64
        };
        report.put(format!("cachesim.pf_accuracy.{class}"), accuracy, "ratio");
    }
}

/// Every grid point called on its own (baseline first), timed and
/// checked against the same pinned digest as the sweep.
fn point_calls(
    spec: &SimSpec,
    variant: u64,
    compiled: &[Compiled],
    report: &mut Report,
    checks: &mut Checks,
) {
    let points: Vec<Point> = std::iter::once(Point::Baseline)
        .chain(spec.distances.iter().map(|&d| Point::Distance(d)))
        .collect();
    let mut point_ms = Vec::new();
    let (mut base_ns, mut base_refs, mut sp_ns, mut sp_refs) = (0.0, 0u64, 0.0, 0u64);
    for (k, c) in compiled.iter().enumerate() {
        let mut runs = Vec::new();
        for &p in &points {
            let _s = span("core", "point");
            let t = Instant::now();
            let run = adapter::run_point(c, p, RP, spec.epochs);
            let ns = t.elapsed().as_nanos() as f64;
            point_ms.push(ns / 1e6);
            if p == Point::Baseline {
                base_ns += ns;
                base_refs += run.counters.refs;
            } else {
                sp_ns += ns;
                sp_refs += run.counters.refs;
            }
            runs.push(run);
        }
        checks.sweep(spec, variant, k, &runs);
    }
    let t = tail(&point_ms, 100.0);
    report.put("core.baseline_ns_per_ref", base_ns / base_refs as f64, "ns");
    report.put("core.sp_ns_per_ref", sp_ns / sp_refs as f64, "ns");
    report.put("core.point_ms.p50", t.p50, "ms");
    report.put(
        "core.point_ms.max",
        point_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
}

/// The cachesim component rungs over the workload's own streams, and
/// the event-stream rung over every grid point.
fn component_rungs(
    spec: &SimSpec,
    workloads: &[Workload],
    compiled: &[Compiled],
    report: &mut Report,
) {
    let ws: Vec<&Workload> = workloads.iter().collect();
    let streams = adapter::RungStreams::new(&ws, spec.machine, Duration::from_millis(150));
    let rung = |name: &'static str, f: &dyn Fn() -> f64| in_span("cachesim", name, f);
    report.put(
        "cachesim.cache.ns_per_access",
        rung("cache", &|| streams.cache()),
        "ns",
    );
    report.put(
        "cachesim.replacement.ns_per_op",
        rung("replacement", &|| streams.replacement()),
        "ns",
    );
    report.put(
        "cachesim.mshr.ns_per_op",
        rung("mshr", &|| streams.mshr()),
        "ns",
    );
    report.put(
        "cachesim.bus.ns_per_request",
        rung("bus", &|| streams.bus()),
        "ns",
    );
    for name in PREFETCHERS {
        let ns = rung("prefetcher", &|| streams.prefetcher(name));
        report.put(
            format!("cachesim.prefetcher.ns_per_observe.{name}"),
            ns,
            "ns",
        );
    }

    let mut ev = adapter::EventRung::default();
    for c in compiled {
        let points = std::iter::once(Point::Baseline)
            .chain(spec.distances.iter().map(|&d| Point::Distance(d)));
        for p in points {
            let r = in_span("cachesim", "events", || adapter::event_rung(c, p, RP));
            ev.events += r.events;
            ev.ticks += r.ticks;
            ev.refs += r.refs;
            ev.epoch_time += r.epoch_time;
            ev.summary_time += r.summary_time;
        }
    }
    report.put(
        "cachesim.events_per_ref",
        ev.events as f64 / ev.refs as f64,
        "ratio",
    );
    report.put(
        "cachesim.epoch.ns_per_event",
        ev.epoch_time.as_nanos() as f64 / (ev.events + ev.ticks) as f64,
        "ns",
    );
    report.put(
        "cachesim.summary.ns_per_event",
        ev.summary_time.as_nanos() as f64 / ev.events as f64,
        "ns",
    );
}
