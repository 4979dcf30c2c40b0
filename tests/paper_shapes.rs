//! Paper-shape assertions at the default scaled configuration — the
//! qualitative criteria of DESIGN.md §4 that define a successful
//! reproduction. These use the same workload/cache presets as the
//! `reproduce` binary, with reduced sweep grids to stay test-fast.

use sp_prefetch::cachesim::CacheConfig;
use sp_prefetch::core::prelude::*;
use sp_prefetch::workloads::{Benchmark, Workload};

mod common;

fn cfg() -> CacheConfig {
    CacheConfig::scaled_default()
}

/// Table 2 shape: EM3D's Set Affinity is far below MCF's and MST's, so
/// its tolerated prefetch distance is far smaller.
#[test]
fn table2_affinity_ordering() {
    let min_sa = |b: Benchmark| {
        let trace = Workload::scaled(b).trace();
        recommend_distance(&trace, &cfg())
            .affinity
            .min()
            .expect("overflow")
    };
    let (em3d, mcf, mst) = (
        min_sa(Benchmark::Em3d),
        min_sa(Benchmark::Mcf),
        min_sa(Benchmark::Mst),
    );
    assert!(em3d * 4 < mcf, "EM3D {em3d} vs MCF {mcf}");
    assert!(em3d * 4 < mst, "EM3D {em3d} vs MST {mst}");
}

/// Figure 2 shape: EM3D's normalized runtime, memory accesses, and hot
/// misses all rise as the prefetch distance grows past the bound.
#[test]
fn fig2_curves_rise_with_distance() {
    let trace = Workload::scaled(Benchmark::Em3d).trace();
    let rec = recommend_distance(&trace, &cfg());
    let bound = rec.max_distance.unwrap();
    let sweep = common::sweep_jobs(&trace, cfg(), 0.5, &[bound / 2, bound * 4], 1).0;
    let (inside, outside) = (&sweep.points[0], &sweep.points[1]);
    assert!(
        outside.runtime_norm > inside.runtime_norm + 0.05,
        "runtime must rise"
    );
    assert!(
        outside.memory_accesses_norm > inside.memory_accesses_norm,
        "accesses must rise"
    );
    assert!(
        outside.hot_misses_norm > inside.hot_misses_norm,
        "misses must rise"
    );
}

/// Figure 4 shape: SP on EM3D eliminates a large share of totally misses
/// at a bounded distance; an oversized distance erodes totally hits.
#[test]
fn fig4_em3d_behavior_shape() {
    let trace = Workload::scaled(Benchmark::Em3d).trace();
    let rec = recommend_distance(&trace, &cfg());
    let bound = rec.max_distance.unwrap();
    let sweep = common::sweep_jobs(&trace, cfg(), 0.5, &[bound / 2, bound * 4], 1).0;
    let inside = &sweep.points[0];
    let outside = &sweep.points[1];
    // Large miss elimination inside the bound (paper: up to 41%).
    assert!(
        inside.behavior.totally_miss_pct < -25.0,
        "in-bound SP must eliminate a large share of misses, got {:+.1}%",
        inside.behavior.totally_miss_pct
    );
    // Totally hits fall as distance grows (the pollution signature).
    assert!(
        outside.behavior.totally_hit_pct < inside.behavior.totally_hit_pct,
        "totally hits must fall with distance: {:+.1}% -> {:+.1}%",
        inside.behavior.totally_hit_pct,
        outside.behavior.totally_hit_pct
    );
    // And the pollution counters confirm the mechanism.
    assert!(outside.pollution.stats.total() > inside.pollution.stats.total());
}

/// Figure 5/6 shape: MCF and MST tolerate far larger distances than
/// EM3D — their runtime at EM3D-breaking distances is still good.
#[test]
fn fig56_mcf_mst_less_sensitive_than_em3d() {
    let degradation_at = |b: Benchmark, d: u32| {
        let trace = Workload::scaled(b).trace();
        let sweep = common::sweep_jobs(&trace, cfg(), 0.5, &[d], 1).0;
        sweep.points[0].runtime_norm
    };
    // Distance 320 wrecks EM3D (~1.0, no gain) but MCF and MST still win.
    let em3d = degradation_at(Benchmark::Em3d, 320);
    let mcf = degradation_at(Benchmark::Mcf, 320);
    let mst = degradation_at(Benchmark::Mst, 320);
    assert!(
        em3d > 0.95,
        "EM3D at 320 must have lost its gain, got {em3d:.3}"
    );
    assert!(mcf < 0.9, "MCF at 320 must still win, got {mcf:.3}");
    assert!(mst < 0.9, "MST at 320 must still win, got {mst:.3}");
}

/// The headline claim: controlling the distance to the Set-Affinity
/// bound preserves SP's speedup on every benchmark.
#[test]
fn bounded_distance_preserves_speedup_everywhere() {
    for b in Benchmark::ALL {
        let trace = Workload::scaled(b).trace();
        let rec = recommend_distance(&trace, &cfg());
        let bound = rec.max_distance.unwrap();
        let d = controlled_distance(bound / 2, &rec);
        let sweep = common::sweep_jobs(&trace, cfg(), 0.5, &[d], 1).0;
        let p = &sweep.points[0];
        assert!(
            p.runtime_norm < 0.9,
            "{}: bounded SP must beat the original, got {:.3}",
            b.name(),
            p.runtime_norm
        );
    }
}
