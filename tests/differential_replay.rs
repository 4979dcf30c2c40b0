//! End-to-end differential: runs of a trace compiled afresh for every
//! run against runs of one compiled trace reused across runs and cache
//! configurations, the path sweeps and services take. Counters must be
//! bit-identical — sharing a compiled trace, or the parked simulator
//! swapping configurations between runs, may not leak state.

use sp_cachesim::{CacheConfig, CacheGeometry, NullSink};
use sp_core::{run, EngineOptions, RunResult, SpParams};
use sp_trace::CompiledTrace;
use sp_workloads::{Benchmark, Workload};

mod common;

const BENCHES: [Benchmark; 3] = [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst];

/// The baseline over two passes (`None`), or one pass of SP at a
/// distance with RP 0.5.
fn replay(ct: &CompiledTrace, cfg: CacheConfig, distance: Option<u32>) -> RunResult {
    let Some(d) = distance else {
        let opts = EngineOptions {
            passes: 2,
            ..EngineOptions::default()
        };
        return run(ct, cfg, None, opts, &mut NullSink);
    };
    let mut params = SpParams::from_distance_rp(d, 0.5);
    run(
        ct,
        cfg,
        Some(&mut params),
        EngineOptions::default(),
        &mut NullSink,
    )
}

/// For EM3D, MCF and MST, runs at each point of a trace compiled afresh
/// per run (what the trace-taking entry points once did per call) must
/// equal runs of one compiled trace reused across runs. The reused trace
/// alternates the scaled machine and a 16 KB/4-way L2, so every run after
/// the first swaps the parked simulator's configuration; the two machines
/// must also disagree, or the swap would go unseen.
fn assert_fresh_compiles_equal_reuse(points: &[Option<u32>]) {
    let scaled = CacheConfig::scaled_default();
    let small_l2 = CacheConfig {
        l2: CacheGeometry::new(16 * 1024, 4, 64),
        ..scaled
    };
    for b in BENCHES {
        let trace = Workload::tiny(b).trace();
        let reused = CompiledTrace::compile(&trace);
        for &point in points {
            let [on_scaled, on_small] = [scaled, small_l2].map(|cfg| {
                let fresh = replay(&CompiledTrace::compile(&trace), cfg, point);
                assert_eq!(
                    fresh,
                    replay(&reused, cfg, point),
                    "{b:?} {point:?}: reused compiled trace diverged"
                );
                fresh
            });
            assert_ne!(on_scaled, on_small, "{b:?} {point:?}: machines agree");
            assert!(
                on_scaled.stats.main.total_misses > 0,
                "{b:?} {point:?}: degenerate trace"
            );
        }
    }
}

#[test]
fn original_passes_scalar_equals_compiled() {
    assert_fresh_compiles_equal_reuse(&[None]);
}

#[test]
fn sp_runs_scalar_equal_compiled_across_distances() {
    assert_fresh_compiles_equal_reuse(&[Some(2), Some(16), Some(128)]);
}

#[test]
fn sweep_is_deterministic_across_repeats_and_jobs() {
    // The compiled sweep shares one Arc'd trace across grid points and
    // reuses parked simulators; neither may leak state between runs.
    let cfg = CacheConfig::scaled_default();
    let trace = Workload::tiny(Benchmark::Mcf).trace();
    let distances = [4u32, 32, 256];
    let (first, _) = common::sweep_jobs(&trace, cfg, 0.5, &distances, 1);
    let (second, _) = common::sweep_jobs(&trace, cfg, 0.5, &distances, 1);
    let (fanned, _) = common::sweep_jobs(&trace, cfg, 0.5, &distances, 2);
    assert_eq!(first, second, "repeat sweep diverged");
    assert_eq!(first, fanned, "jobs=2 sweep diverged from jobs=1");
}
