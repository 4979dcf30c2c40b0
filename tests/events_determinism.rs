//! Satellite regression suite for the observability layer: the event
//! stream must be a pure function of the simulated run, so replaying a
//! benchmark under any `--jobs` width must produce *identical* event
//! sequences — and identical NDJSON bytes — not just matching
//! aggregates. Styled on `parallel_determinism.rs`: exact equality,
//! because any divergence is a scheduling leak into the simulation.

use sp_cachesim::{default_early_threshold, CacheConfig, EventSummary, RingSink, SummarySink};
use sp_core::prelude::*;
use sp_core::{PerPoint, RunnerReport, Sweep};
use sp_trace::CompiledTrace;
use sp_workloads::{Benchmark, Workload};
use std::sync::Arc;

fn grid(b: Benchmark) -> Vec<u32> {
    match b {
        Benchmark::Em3d => vec![1, 2, 4, 8, 16, 32],
        Benchmark::Mcf => vec![2, 8, 32, 128, 512],
        Benchmark::Mst => vec![1, 3, 9, 27, 81],
    }
}

/// One SP run with an unbounded ring sink: the full NDJSON stream plus
/// the running fold.
fn eventful_run(ct: &CompiledTrace, cfg: CacheConfig, d: u32) -> (String, EventSummary) {
    let mut sink = RingSink::new(0, default_early_threshold(&cfg.latency));
    let mut params = SpParams::from_distance_rp(d, 0.5);
    run(
        ct,
        cfg,
        Some(&mut params),
        EngineOptions::default(),
        &mut sink,
    );
    (sink.to_ndjson(), sink.summary)
}

/// A sweep of `ct` over `ds` with a summary sink on every point.
fn observed(
    ct: &Arc<CompiledTrace>,
    cfg: CacheConfig,
    ds: &[u32],
    jobs: usize,
) -> (Sweep, PerPoint<EventSummary>, RunnerReport) {
    let threshold = default_early_threshold(&cfg.latency);
    let new_sink = move || SummarySink::new(threshold);
    let opts = EngineOptions::default();
    sweep(ct, cfg, 0.5, ds, opts, jobs, new_sink, |k| k.summary)
}

#[test]
fn event_streams_are_byte_identical_at_any_jobs_width() {
    let cfg = CacheConfig::scaled_default();
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let trace = Workload::tiny(b).trace();
        let ct = Arc::new(compile_trace(&trace, &cfg));
        let ds = grid(b);
        let expected: Vec<(String, EventSummary)> =
            ds.iter().map(|&d| eventful_run(&ct, cfg, d)).collect();
        assert!(
            expected.iter().all(|(nd, _)| !nd.is_empty()),
            "{b:?}: every distance must emit events"
        );
        for jobs in [2, 4] {
            let (got, _) = sp_core::map_jobs(ds.clone(), |d| eventful_run(&ct, cfg, d), jobs);
            // Byte-identical NDJSON and identical folds, per distance.
            assert_eq!(
                expected, got,
                "{b:?}: event stream diverged at --jobs {jobs}"
            );
        }
    }
}

#[test]
fn event_sweeps_are_identical_at_any_jobs_width() {
    let cfg = CacheConfig::scaled_default();
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let trace = Workload::tiny(b).trace();
        let ct = Arc::new(compile_trace(&trace, &cfg));
        let ds = grid(b);
        let (serial_sweep, serial_events, rep) = observed(&ct, cfg, &ds, 1);
        assert_eq!(rep.jobs, ds.len() + 1, "baseline + one job per distance");
        for jobs in [2, 4] {
            let (sweep, events, _) = observed(&ct, cfg, &ds, jobs);
            assert_eq!(
                serial_sweep, sweep,
                "{b:?}: sweep diverged at --jobs {jobs}"
            );
            assert_eq!(
                serial_events, events,
                "{b:?}: event folds diverged at --jobs {jobs}"
            );
        }
    }
}
