//! Satellite regression suite: the `sp_runner` fan-out must be a pure
//! scheduling optimisation. For each selected benchmark the full
//! `RunResult` vector produced by a parallel distance sweep (`--jobs 2`
//! and `--jobs 4`) must *exactly* equal the serial one (`--jobs 1`) —
//! not "statistically close": the simulations are pure functions of
//! their inputs and the runner reassembles results in submission order,
//! so any divergence is a bug.

use sp_cachesim::{CacheConfig, HwBackend};
use sp_core::prelude::*;
use sp_workloads::{Benchmark, KernelKind, ScaleTier, Workload, WorkloadBuilder};

mod common;

fn grid(b: Benchmark) -> Vec<u32> {
    // Small per-benchmark grids spanning below/above each tiny-scale
    // bound — enough points to give every worker several jobs.
    match b {
        Benchmark::Em3d => vec![1, 2, 4, 8, 16, 32],
        Benchmark::Mcf => vec![2, 8, 32, 128, 512],
        Benchmark::Mst => vec![1, 3, 9, 27, 81],
    }
}

fn sweeps_identical(b: Benchmark) {
    let cfg = sp_cachesim::CacheConfig::scaled_default();
    let trace = Workload::tiny(b).trace();
    let ds = grid(b);
    let (serial, rep1) = common::sweep_jobs(&trace, cfg, 0.5, &ds, 1);
    assert_eq!(rep1.jobs, ds.len() + 1, "baseline + one job per distance");
    assert_eq!(rep1.workers, 1);
    for jobs in [2, 4] {
        let (parallel, rep) = common::sweep_jobs(&trace, cfg, 0.5, &ds, jobs);
        assert_eq!(rep.jobs, ds.len() + 1);
        // Full structural equality: baseline RunResult, and per-point
        // distance, normalized metrics, behaviour deltas and pollution.
        assert_eq!(
            serial, parallel,
            "{b:?}: sweep at --jobs {jobs} diverged from serial"
        );
    }
}

#[test]
fn em3d_parallel_sweep_equals_serial() {
    sweeps_identical(Benchmark::Em3d);
}

#[test]
fn mcf_parallel_sweep_equals_serial() {
    sweeps_identical(Benchmark::Mcf);
}

#[test]
fn mst_parallel_sweep_equals_serial() {
    sweeps_identical(Benchmark::Mst);
}

/// The LDS frontier obeys the same contract: for every
/// linked-data-structure kernel, under each of the *learned-state*
/// backends (the ones with cross-access history most likely to betray
/// a scheduling dependence), the parallel sweep must equal the serial
/// one exactly — and the trace handed to every width must be the same
/// bytes (builder digest equality).
#[test]
fn lds_parallel_sweeps_equal_serial_under_new_backends() {
    for kind in KernelKind::LDS {
        let trace = WorkloadBuilder::new(kind).tier(ScaleTier::Tiny).trace();
        assert_eq!(
            sp_trace::codec::digest(&trace),
            sp_trace::codec::digest(&WorkloadBuilder::new(kind).tier(ScaleTier::Tiny).trace()),
            "{}: builder digest unstable",
            kind.name()
        );
        for backend in [HwBackend::PointerChase, HwBackend::Perceptron] {
            let cfg = CacheConfig::scaled_default().with_hw_backend(backend);
            let ds = vec![2, 4, 8, 16, 32];
            let (serial, _) = common::sweep_jobs(&trace, cfg, 0.5, &ds, 1);
            for jobs in [2, 4] {
                let (parallel, _) = common::sweep_jobs(&trace, cfg, 0.5, &ds, jobs);
                assert_eq!(
                    serial,
                    parallel,
                    "{} under {}: --jobs {jobs} diverged from serial",
                    kind.name(),
                    backend.name()
                );
            }
        }
    }
}

/// The raw `RunResult`s (not just the normalized sweep) must match too:
/// run the same distance grid through the runner as independent jobs
/// and compare against direct serial calls.
#[test]
fn raw_run_results_equal_serial_at_any_width() {
    let cfg = sp_cachesim::CacheConfig::scaled_default();
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let trace = Workload::tiny(b).trace();
        let expected: Vec<RunResult> = grid(b)
            .iter()
            .map(|&d| common::sp(&trace, cfg, SpParams::from_distance_rp(d, 0.5)))
            .collect();
        for jobs in [1, 2, 4] {
            let (got, _) = sp_core::map_jobs(
                grid(b),
                |d| common::sp(&trace, cfg, SpParams::from_distance_rp(d, 0.5)),
                jobs,
            );
            assert_eq!(expected, got, "{b:?} at --jobs {jobs}");
        }
    }
}
