//! Pins the allocation-reuse contract: repeated jobs=1 sweeps must not
//! rebuild the simulator. `sim_build_count` is a process-global, so this
//! lives in its own integration binary — other tests in the same process
//! would perturb the counter — and the tests below take [`SERIAL`] so
//! one test's builds never land inside another's counting window when
//! the harness runs them on parallel threads.

use sp_cachesim::{sim_build_count, CacheConfig};
use sp_workloads::{Benchmark, Workload};
use std::sync::{Mutex, MutexGuard};

mod common;

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
    common::sweep_jobs(&trace, cfg, 0.5, &distances, 1);
    let after_first = sim_build_count();
    assert!(after_first >= 1, "first sweep should build a simulator");

    // Every subsequent same-geometry sweep must reuse it — zero builds,
    // regardless of distance grid or workload.
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let t = Workload::tiny(b).trace();
        common::sweep_jobs(&t, cfg, 0.5, &[4, 16, 64, 256], 1);
    }
    assert_eq!(
        sim_build_count(),
        after_first,
        "jobs=1 sweeps must reuse the parked simulator instead of rebuilding"
    );
}
