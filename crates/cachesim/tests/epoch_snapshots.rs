//! Differential test of the epoch recorder's two paths: a live
//! [`EpochSink`] builds every window from counter snapshots and sees no
//! event, while the same recorder fed the run's events and demand ticks
//! folds them. Both must produce the same series, window for window —
//! counts, timeliness split, fills by origin, MSHR occupancy, `top_sets`
//! and `fill_histogram` included — and neither may perturb the run.
//!
//! Seeded sp-testkit cases draw a kernel (paper trio and LDS frontier,
//! tiny tier), a machine (no prefetcher or one of the five hardware
//! backends; scaled or small L2 with evictions; exclusive or inclusive),
//! a schedule (original program, SP at a distance, or the adaptive
//! controller), 1–3 passes, either helper model, an epoch length and an
//! early threshold (the default or another). Release builds run eight
//! times the debug case budget.

use sp_cachesim::{
    default_early_threshold, CacheConfig, CacheGeometry, Cycle, Entity, EpochSeries, EpochSink,
    Event, EventSink, HitClass, HwBackend, LifecycleCounts, NullSink,
};
use sp_core::{
    compile_trace, run, AdaptiveSchedule, EngineOptions, FeedbackController, HelperSchedule,
    RunResult, SpParams,
};
use sp_testkit::{check, SmallRng};
use sp_trace::CompiledTrace;
use sp_workloads::{KernelKind, ScaleTier, WorkloadBuilder};
use std::sync::Mutex;

/// Debug builds run this many cases; release builds eight times as many.
const CASES: u64 = if cfg!(debug_assertions) { 32 } else { 256 };

/// Kernels the cases draw from: the paper trio and two LDS kernels.
const KERNELS: [KernelKind; 5] = [
    KernelKind::Em3d,
    KernelKind::Mcf,
    KernelKind::Mst,
    KernelKind::HashJoin,
    KernelKind::SkipList,
];

/// The reference path: the recorder fed every event and demand tick the
/// memory system emits, as a captured stream would be replayed into it.
struct Folded(EpochSink);

impl EventSink for Folded {
    const ENABLED: bool = true;
    const DEMAND_TICKS: bool = true;

    fn emit(&mut self, ev: Event) {
        self.0.emit(ev);
    }

    fn demand_tick(&mut self, entity: Entity, class: HitClass, set: u32, mshr: usize, at: Cycle) {
        self.0.demand_tick(entity, class, set, mshr, at);
    }
}

/// A machine: no prefetcher or one backend, on the scaled L2 or a small
/// one that evicts, either inclusion policy.
fn machine(rng: &mut SmallRng) -> CacheConfig {
    let base = CacheConfig::scaled_default();
    let mut cfg = match rng.gen_range(0u32..6) {
        0 => base.without_hw_prefetchers(),
        1 => base.with_hw_backend(HwBackend::StreamerDpl),
        2 => base.with_hw_backend(HwBackend::Streamer),
        3 => base.with_hw_backend(HwBackend::Dpl),
        4 => base.with_hw_backend(HwBackend::PointerChase),
        _ => base.with_hw_backend(HwBackend::Perceptron),
    };
    if rng.gen_range(0u32..3) > 0 {
        let kb = [4u64, 8, 16][rng.gen_range(0usize..3)];
        let ways = [2u32, 4][rng.gen_range(0usize..2)];
        cfg.l2 = CacheGeometry::new(kb * 1024, ways, cfg.l2.line_size);
    }
    if rng.gen_range(0u32..2) == 0 {
        cfg = cfg.inclusive();
    }
    cfg.validate();
    cfg
}

/// The helper schedule of one run: none (the original program), SP at
/// a distance, or the adaptive controller. Each run builds its own,
/// since an adaptive schedule keeps state.
#[derive(Debug, Clone, Copy)]
enum Plan {
    Original,
    Sp(u32),
    Adaptive(u32, usize),
}

impl Plan {
    fn draw(rng: &mut SmallRng) -> Plan {
        match rng.gen_range(0u32..4) {
            0 => Plan::Original,
            1 => Plan::Adaptive(rng.gen_range(2u32..64), rng.gen_range(8usize..64)),
            _ => Plan::Sp(1 << rng.gen_range(0u32..8)),
        }
    }

    fn run<S: EventSink>(
        self,
        ct: &CompiledTrace,
        cfg: CacheConfig,
        opts: EngineOptions,
        sink: &mut S,
    ) -> RunResult {
        match self {
            Plan::Original => run(ct, cfg, None, opts, sink),
            Plan::Sp(d) => {
                let mut p = SpParams::from_distance_rp(d, 0.5);
                run(ct, cfg, Some(&mut p as &mut dyn HelperSchedule), opts, sink)
            }
            Plan::Adaptive(d, epoch) => {
                let mut s = AdaptiveSchedule::new(FeedbackController::new(d, 0.5), epoch);
                run(ct, cfg, Some(&mut s as &mut dyn HelperSchedule), opts, sink)
            }
        }
    }
}

#[test]
fn live_snapshot_series_equal_the_folded_stream() {
    let traces: Vec<(KernelKind, CompiledTrace)> = KERNELS
        .iter()
        .map(|&k| {
            let trace = WorkloadBuilder::new(k).tier(ScaleTier::Tiny).trace();
            (k, compile_trace(&trace, &CacheConfig::scaled_default()))
        })
        .collect();
    let seen = Mutex::new(LifecycleCounts::default());
    check(CASES, |rng| {
        let (kind, ct) = &traces[rng.gen_range(0..traces.len())];
        let cfg = machine(rng);
        let plan = Plan::draw(rng);
        let opts = EngineOptions {
            blocking_helper: rng.gen_range(0u32..2) == 0,
            passes: rng.gen_range(1usize..4),
        };
        let epoch_len = [1u64, 7, 64, 500, 4096][rng.gen_range(0usize..5)];
        let default = default_early_threshold(&cfg.latency);
        let threshold = [default, 0, 40, default / 16, 3 * default][rng.gen_range(0usize..5)];
        let case = format!("{kind:?} {plan:?} {opts:?} len {epoch_len} thr {threshold} {cfg:?}");

        let mut live = EpochSink::new(epoch_len, threshold);
        let live_run = plan.run(ct, cfg, opts, &mut live);
        let live: EpochSeries = live.finish();
        let mut folded = Folded(EpochSink::new(epoch_len, threshold));
        let folded_run = plan.run(ct, cfg, opts, &mut folded);
        let folded = folded.0.finish();
        let plain_run = plan.run(ct, cfg, opts, &mut NullSink);

        assert_eq!(live_run, plain_run, "{case}: snapshots perturbed the run");
        assert_eq!(folded_run, plain_run, "{case}: events perturbed the run");
        assert_eq!(live.len(), folded.len(), "{case}: window count");
        for (l, f) in live.epochs.iter().zip(&folded.epochs) {
            assert_eq!(l, f, "{case}: window {}", f.index);
        }
        assert_eq!(live, folded, "{case}");
        assert!(!live.is_empty(), "{case}: the run must record windows");
        *seen.lock().unwrap() += live.totals().counts;
    });
    // The cases must reach every path the snapshots derive, or equal
    // series would prove little.
    let seen = seen.into_inner().unwrap();
    assert!(
        seen.late > 0 && seen.on_time > 0 && seen.early > 0,
        "{seen:?}"
    );
    assert!(seen.evicted_unused.iter().sum::<u64>() > 0, "{seen:?}");
    assert!(seen.pollution.iter().all(|&n| n > 0), "{seen:?}");
    assert!(seen.filled[1..].iter().sum::<u64>() > 0, "{seen:?}");
}
