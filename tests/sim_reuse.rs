//! Pins the allocation-reuse contract: repeated jobs=1 sweeps must not
//! rebuild the simulator. `sim_build_count` is a process-global, so this
//! lives in its own integration binary — other tests in the same process
//! would perturb the counter — and the tests below take [`SERIAL`] so
//! one test's builds never land inside another's counting window when
//! the harness runs them on parallel threads.

use sp_cachesim::{sim_build_count, CacheConfig};
use sp_core::{sweep_distances_batched_jobs_with, sweep_distances_jobs, EngineOptions};
use sp_workloads::{Benchmark, Workload};
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

/// Hold the counter for the rest of a test. A poisoned lock only means
/// another test failed; the counter itself is still consistent.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn jobs1_sweeps_reuse_one_parked_simulator() {
    let _serial = serial();
    let cfg = CacheConfig::scaled_default();
    let trace = Workload::tiny(Benchmark::Em3d).trace();
    let distances = [2u32, 8, 32];

    // First sweep may build the thread-local parked simulator.
    sweep_distances_jobs(&trace, cfg, 0.5, &distances, 1);
    let after_first = sim_build_count();
    assert!(after_first >= 1, "first sweep should build a simulator");

    // Every subsequent same-geometry sweep must reuse it — zero builds,
    // regardless of distance grid or workload.
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let t = Workload::tiny(b).trace();
        sweep_distances_jobs(&t, cfg, 0.5, &[4, 16, 64, 256], 1);
    }
    assert_eq!(
        sim_build_count(),
        after_first,
        "jobs=1 sweeps must reuse the parked simulator instead of rebuilding"
    );
}

#[test]
fn batched_sweeps_reuse_parked_lane_batches() {
    let _serial = serial();
    let cfg = CacheConfig::scaled_default();
    let trace = Workload::tiny(Benchmark::Em3d).trace();
    let opts = EngineOptions::default();
    let distances = [2u32, 8, 32, 64, 128]; // 6 grid points with baseline

    // The first batched sweep may build its lane-batch shapes: one full
    // 4-lane batch plus the ragged 2-lane remainder.
    sweep_distances_batched_jobs_with(&trace, cfg, 0.5, &distances, opts, 1, 4);
    let after_first = sim_build_count();
    assert!(after_first >= 1, "first batched sweep should build");

    // Repeated batched sweeps of the same shape — across passes and
    // workloads — must run entirely on the parked batches: zero builds.
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let t = Workload::tiny(b).trace();
        sweep_distances_batched_jobs_with(&t, cfg, 0.5, &distances, opts, 1, 4);
    }
    assert_eq!(
        sim_build_count(),
        after_first,
        "batched sweeps must reuse parked lane-batch simulators"
    );

    // A different lane width is a different shape: it may build once,
    // then must park and reuse as well.
    sweep_distances_batched_jobs_with(&trace, cfg, 0.5, &distances, opts, 1, 3);
    let after_resize = sim_build_count();
    sweep_distances_batched_jobs_with(&trace, cfg, 0.5, &distances, opts, 1, 3);
    assert_eq!(
        sim_build_count(),
        after_resize,
        "re-running at the same lane width must not rebuild"
    );
}
