//! End-to-end pipeline tests: workload -> trace -> profiling -> Set
//! Affinity -> distance bound -> co-simulation, across crates.

use sp_prefetch::cachesim::{CacheConfig, CacheGeometry};
use sp_prefetch::core::prelude::*;
use sp_prefetch::profiler::rank_delinquent_loads;
use sp_prefetch::workloads::{Benchmark, Workload};

mod common;

/// A small cache so the tiny workloads still pressure the sets.
fn test_cfg() -> CacheConfig {
    CacheConfig {
        l1: CacheGeometry::new(1024, 4, 64),
        l2: CacheGeometry::new(16 * 1024, 8, 64),
        ..CacheConfig::scaled_default()
    }
}

#[test]
fn full_pipeline_runs_for_every_benchmark() {
    let cfg = test_cfg();
    for b in Benchmark::ALL {
        let w = Workload::tiny(b);
        let trace = w.trace();

        // Profiling stages all accept the trace.
        let ranked = rank_delinquent_loads(&trace, cfg.l2, cfg.policy);
        assert!(!ranked.is_empty(), "{}: delinquent ranking", b.name());

        // Distance bound and a bounded SP run.
        let rec = recommend_distance(&trace, &cfg);
        let d = controlled_distance(1_000_000, &rec);
        let params = SpParams::from_distance_rp(d.min(64), 0.5);
        let baseline = common::original(&trace, cfg);
        let sp = common::sp(&trace, cfg, params);
        assert_eq!(
            sp.stats.main.demand_accesses(),
            baseline.stats.main.demand_accesses(),
            "{}: the main thread must execute identical references",
            b.name()
        );
        assert!(
            sp.stats.prefetches_issued[0] > 0,
            "{}: helper must prefetch",
            b.name()
        );
    }
}

#[test]
fn main_thread_hit_classes_partition_accesses() {
    let cfg = test_cfg();
    for b in Benchmark::ALL {
        let w = Workload::tiny(b);
        let trace = w.trace();
        let r = common::original(&trace, cfg);
        let s = &r.stats.main;
        assert_eq!(
            s.l1_hits + s.total_hits + s.partial_hits + s.total_misses,
            trace.total_refs() as u64,
            "{}",
            b.name()
        );
    }
}

#[test]
fn sp_within_bound_beats_oversized_distance() {
    let cfg = test_cfg();
    // EM3D at tiny scale still has enough set pressure on the 16KB L2.
    let w = Workload::tiny(Benchmark::Em3d);
    let trace = w.trace();
    let rec = recommend_distance(&trace, &cfg);
    let bound = rec.max_distance.expect("tiny EM3D overflows a 16KB L2");
    let inside = common::sp(
        &trace,
        cfg,
        SpParams::from_distance_rp((bound / 2).max(1), 0.5),
    );
    let outside = common::sp(&trace, cfg, SpParams::from_distance_rp(bound * 8, 0.5));
    assert!(
        inside.runtime < outside.runtime,
        "bounded distance must win: {} vs {}",
        inside.runtime,
        outside.runtime
    );
    assert!(
        inside.stats.main.total_misses <= outside.stats.main.total_misses,
        "bounded distance must not miss more"
    );
}

#[test]
fn helper_set_affinity_is_at_most_original() {
    let cfg = test_cfg();
    for b in Benchmark::ALL {
        let trace = Workload::tiny(b).trace();
        let orig = original_set_affinity(&trace, cfg.l2);
        let helper = helper_set_affinity(&trace, cfg.l2, SpParams::new(8, 8));
        for (set, sa_h) in &helper.per_set {
            if let Some(sa_o) = orig.per_set.get(set) {
                assert!(
                    sa_h <= sa_o,
                    "{}: set {set}: helper SA {sa_h} > original {sa_o}",
                    b.name()
                );
            }
        }
    }
}

#[test]
fn pollution_grows_with_distance() {
    let cfg = test_cfg();
    let trace = Workload::tiny(Benchmark::Em3d).trace();
    let small = common::sp(&trace, cfg, SpParams::new(2, 2));
    let large = common::sp(&trace, cfg, SpParams::new(64, 64));
    assert!(
        large.stats.pollution.total() > small.stats.pollution.total(),
        "distance 64 must pollute more than 2: {} vs {}",
        large.stats.pollution.total(),
        small.stats.pollution.total()
    );
}

#[test]
fn cross_crate_determinism() {
    let cfg = test_cfg();
    let t1 = Workload::tiny(Benchmark::Mcf).trace();
    let t2 = Workload::tiny(Benchmark::Mcf).trace();
    let r1 = common::sp(&t1, cfg, SpParams::new(4, 4));
    let r2 = common::sp(&t2, cfg, SpParams::new(4, 4));
    assert_eq!(r1, r2);
}
