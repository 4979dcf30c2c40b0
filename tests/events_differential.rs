//! Satellite differential suite: the event layer must be a *lossless
//! decomposition* of the aggregate counters. For each benchmark, the
//! fold of the emitted eviction-attribution events must equal the
//! simulator's own `PollutionStats` exactly, the lifecycle counts must
//! equal the prefetch counters, and attaching a sink must not perturb
//! the simulation at all (`RunResult` equality against the sink-free
//! path).

use sp_cachesim::{default_early_threshold, CacheConfig, RingSink};
use sp_core::prelude::*;
use sp_workloads::{Benchmark, Workload};

/// Distances chosen to push past each tiny-scale bound so the pollution
/// cases actually fire where the workload allows it.
fn distances(b: Benchmark) -> Vec<u32> {
    match b {
        Benchmark::Em3d => vec![2, 16, 64],
        Benchmark::Mcf => vec![8, 128, 512],
        Benchmark::Mst => vec![3, 27, 81],
    }
}

#[test]
fn pollution_stats_equal_the_fold_of_eviction_events() {
    let cfg = CacheConfig::scaled_default(); // hardware prefetchers on
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let trace = Workload::tiny(b).trace();
        let ct = compile_trace(&trace, &cfg);
        for d in distances(b) {
            let mut params = SpParams::from_distance_rp(d, 0.5);
            let opts = EngineOptions::default();
            let plain = run(&ct, cfg, Some(&mut params), opts, &mut NullSink);
            // A one-event ring: the run-level fold plus per-set pressure.
            let mut sink = RingSink::new(1, default_early_threshold(&cfg.latency));
            let observed = run(&ct, cfg, Some(&mut params), opts, &mut sink);
            // The sink must not perturb the simulation in any way.
            assert_eq!(plain, observed, "{b:?} d={d}: sink changed the run");
            let s = &sink.summary.counts;
            // The differential checks: aggregate counters == event folds.
            assert_eq!(
                s.pollution_stats(),
                observed.stats.pollution,
                "{b:?} d={d}: pollution fold"
            );
            assert_eq!(
                s.issued, observed.stats.prefetches_issued,
                "{b:?} d={d}: issued fold"
            );
            assert_eq!(
                s.first_uses, observed.stats.prefetches_useful,
                "{b:?} d={d}: first-use fold"
            );
            // Timeliness partitions the resolved first uses.
            let resolved: u64 = s.late + s.on_time + s.early;
            assert_eq!(
                resolved,
                s.first_uses.iter().sum::<u64>(),
                "{b:?} d={d}: timeliness must partition first uses"
            );
            // Per-set fills sum to the run's L2 fills.
            let set_fills: u64 = sink.per_set.values().map(|p| p.total_fills()).sum();
            assert_eq!(
                set_fills, observed.stats.l2_fills,
                "{b:?} d={d}: per-set fill fold"
            );
        }
    }
}

#[test]
fn original_runs_fold_consistently_too() {
    // No helper thread: only hardware prefetchers emit. The fold must
    // still match, and a bounded ring must keep the fold exact even
    // when it drops buffered events.
    let cfg = CacheConfig::scaled_default();
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let trace = Workload::tiny(b).trace();
        let ct = compile_trace(&trace, &cfg);
        let opts = EngineOptions {
            passes: 2,
            ..EngineOptions::default()
        };
        let plain = run(&ct, cfg, None, opts, &mut NullSink);
        let mut sink = RingSink::new(16, default_early_threshold(&cfg.latency));
        let observed = run(&ct, cfg, None, opts, &mut sink);
        assert_eq!(plain, observed, "{b:?}: sink changed the original run");
        assert!(sink.len() <= 16, "{b:?}: ring respects its bound");
        let s = &sink.summary.counts;
        assert_eq!(s.pollution_stats(), observed.stats.pollution, "{b:?}");
        assert_eq!(s.issued, observed.stats.prefetches_issued, "{b:?}");
        assert_eq!(s.issued[0], 0, "{b:?}: no helper prefetches");
        assert_eq!(s.first_uses, observed.stats.prefetches_useful, "{b:?}");
    }
}
