//! Replay helpers the integration tests share: each compiles a
//! [`HotLoopTrace`] afresh and drives it through `sp_core::run` or
//! `sp_core::sweep` with no event sink.

#![allow(dead_code)] // each test binary uses its own subset

use sp_cachesim::{CacheConfig, NullSink};
use sp_core::{run, sweep, EngineOptions, RunResult, RunnerReport, SpParams, Sweep};
use sp_trace::{CompiledTrace, HotLoopTrace};
use std::sync::Arc;

/// The original program: the main thread alone, one pass.
pub fn original(trace: &HotLoopTrace, cfg: CacheConfig) -> RunResult {
    let ct = CompiledTrace::compile(trace);
    run(&ct, cfg, None, EngineOptions::default(), &mut NullSink)
}

/// SP at `params` with the default (blocking-helper) model.
pub fn sp(trace: &HotLoopTrace, cfg: CacheConfig, mut params: SpParams) -> RunResult {
    let ct = CompiledTrace::compile(trace);
    run(
        &ct,
        cfg,
        Some(&mut params),
        EngineOptions::default(),
        &mut NullSink,
    )
}

/// A plain distance sweep at `rp` on up to `jobs` workers.
pub fn sweep_jobs(
    trace: &HotLoopTrace,
    cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    jobs: usize,
) -> (Sweep, RunnerReport) {
    let ct = Arc::new(CompiledTrace::compile(trace));
    let opts = EngineOptions::default();
    let (s, _, report) = sweep(&ct, cfg, rp, distances, opts, jobs, || NullSink, |_| ());
    (s, report)
}
