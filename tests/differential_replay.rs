//! End-to-end differential: the trace-taking engine entry points (which
//! compile a fresh trace per call) against replays of one compiled trace
//! shared across runs, the path sweeps and services take. Counters must
//! be bit-identical — sharing a compiled trace may not leak state.

use sp_cachesim::CacheConfig;
use sp_core::{
    compile_trace, run_original_passes, run_original_passes_compiled, run_sp_with,
    run_sp_with_compiled, sweep_distances_jobs, EngineOptions, SpParams,
};
use sp_workloads::{Benchmark, Workload};

const BENCHES: [Benchmark; 3] = [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst];

#[test]
fn original_passes_scalar_equals_compiled() {
    let cfg = CacheConfig::scaled_default();
    for b in BENCHES {
        let trace = Workload::tiny(b).trace();
        let scalar = run_original_passes(&trace, cfg, 2);
        let ct = compile_trace(&trace, &cfg);
        let Ok(compiled) = run_original_passes_compiled(&ct, cfg, 2);
        assert_eq!(scalar, compiled, "{b:?}: original passes diverged");
        assert!(
            scalar.stats.main.total_misses > 0,
            "{b:?}: degenerate trace"
        );
    }
}

#[test]
fn sp_runs_scalar_equal_compiled_across_distances() {
    let cfg = CacheConfig::scaled_default();
    let opts = EngineOptions::default();
    for b in BENCHES {
        let trace = Workload::tiny(b).trace();
        let ct = compile_trace(&trace, &cfg);
        for d in [2u32, 16, 128] {
            let params = SpParams::from_distance_rp(d, 0.5);
            let scalar = run_sp_with(&trace, cfg, params, opts);
            let Ok(compiled) = run_sp_with_compiled(&ct, cfg, params, opts);
            assert_eq!(scalar, compiled, "{b:?} d={d}: SP runs diverged");
        }
    }
}

#[test]
fn sweep_is_deterministic_across_repeats_and_jobs() {
    // The compiled sweep shares one Arc'd trace across grid points and
    // reuses parked simulators; neither may leak state between runs.
    let cfg = CacheConfig::scaled_default();
    let trace = Workload::tiny(Benchmark::Mcf).trace();
    let distances = [4u32, 32, 256];
    let (first, _) = sweep_distances_jobs(&trace, cfg, 0.5, &distances, 1);
    let (second, _) = sweep_distances_jobs(&trace, cfg, 0.5, &distances, 1);
    let (fanned, _) = sweep_distances_jobs(&trace, cfg, 0.5, &distances, 2);
    assert_eq!(first, second, "repeat sweep diverged");
    assert_eq!(first, fanned, "jobs=2 sweep diverged from jobs=1");
}
