//! Determinism + refinement suite for the epoch flight recorder: the
//! per-window series must be a pure function of the simulated run, so
//! an epoch sweep must produce *byte-identical* NDJSON at any `--jobs`
//! width — and every series must fold
//! back to the run-aggregate counters exactly (the epoch↔counter
//! self-check, mirroring `events_determinism.rs` / the event↔counter
//! check of the events layer).

use sp_cachesim::{
    default_early_threshold, CacheConfig, CacheGeometry, EpochSeries, EpochSink, HwBackend,
    SummarySink,
};
use sp_core::{compile_trace, sweep, EngineOptions, PerPoint, RunnerReport, Sweep};
use sp_trace::CompiledTrace;
use sp_workloads::{Benchmark, KernelKind, ScaleTier, Workload, WorkloadBuilder};
use std::sync::Arc;

const EPOCH_LEN: u64 = 128;

fn grid(b: Benchmark) -> Vec<u32> {
    match b {
        Benchmark::Em3d => vec![1, 2, 4, 8, 16, 32],
        Benchmark::Mcf => vec![2, 8, 32, 128, 512],
        Benchmark::Mst => vec![1, 3, 9, 27, 81],
    }
}

/// An epoch-recorded sweep of `ct` over `ds` on up to `jobs` workers.
fn recorded(
    ct: &Arc<CompiledTrace>,
    cfg: CacheConfig,
    ds: &[u32],
    jobs: usize,
) -> (Sweep, PerPoint<EpochSeries>, RunnerReport) {
    let threshold = default_early_threshold(&cfg.latency);
    let new_sink = move || EpochSink::new(EPOCH_LEN, threshold);
    let opts = EngineOptions::default();
    sweep(ct, cfg, 0.5, ds, opts, jobs, new_sink, EpochSink::finish)
}

fn ndjson(s: &Sweep, e: &PerPoint<EpochSeries>) -> String {
    let mut out = e.baseline.to_ndjson("\"distance\":null,");
    for (p, series) in s.points.iter().zip(&e.points) {
        out.push_str(&series.to_ndjson(&format!("\"distance\":{},", p.distance)));
    }
    out
}

#[test]
fn epoch_series_are_byte_identical_at_any_jobs_width() {
    let cfg = CacheConfig::scaled_default();
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let trace = Workload::tiny(b).trace();
        let ct = Arc::new(compile_trace(&trace, &cfg));
        let ds = grid(b);
        let (sweep, epochs, rep) = recorded(&ct, cfg, &ds, 1);
        assert_eq!(rep.jobs, ds.len() + 1, "baseline + one job per distance");
        let expected = ndjson(&sweep, &epochs);
        assert!(
            epochs.points.iter().all(|s| !s.is_empty()),
            "{b:?}: every distance must record windows"
        );
        for jobs in [2, 4, 8] {
            let (s, e, _) = recorded(&ct, cfg, &ds, jobs);
            assert_eq!(sweep, s, "{b:?}: sweep diverged at --jobs {jobs}");
            assert_eq!(
                expected,
                ndjson(&s, &e),
                "{b:?}: epoch NDJSON diverged at --jobs {jobs}"
            );
        }
    }
}

#[test]
fn epoch_totals_fold_exactly_to_the_run_counters() {
    let cfg = CacheConfig::scaled_default();
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let trace = Workload::tiny(b).trace();
        let ct = Arc::new(compile_trace(&trace, &cfg));
        let (sweep, epochs, _) = recorded(&ct, cfg, &grid(b), 2);
        let runs = std::iter::once(&sweep.baseline).chain(sweep.points.iter().map(|p| &p.run));
        for (series, run) in epochs.iter().zip(runs) {
            let t = series.totals();
            let m = &run.stats.main;
            assert_eq!(
                t.main,
                [m.l1_hits, m.total_hits, m.partial_hits, m.total_misses],
                "{b:?}: main-thread hit classes must fold exactly"
            );
            let h = &run.stats.helper;
            assert_eq!(
                t.helper,
                [h.l1_hits, h.total_hits, h.partial_hits, h.total_misses],
                "{b:?}: helper-thread hit classes must fold exactly"
            );
            assert_eq!(
                t.counts.issued, run.stats.prefetches_issued,
                "{b:?}: issued"
            );
            assert_eq!(
                t.counts.first_uses, run.stats.prefetches_useful,
                "{b:?}: first uses"
            );
            assert_eq!(
                series.pollution_stats(),
                run.stats.pollution,
                "{b:?}: displacement cases must fold exactly"
            );
            // Window bookkeeping: every window but the last is full, and
            // indices are dense.
            for (i, w) in series.epochs.iter().enumerate() {
                assert_eq!(w.index, i as u64, "{b:?}: window indices are dense");
            }
            for w in &series.epochs[..series.len().saturating_sub(1)] {
                assert_eq!(w.refs, EPOCH_LEN, "{b:?}: only the last window is partial");
            }
        }
    }
}

/// `SummarySink`'s fold of one run's event stream and the epoch
/// recorder's counter snapshots of the same run must agree counter for
/// counter, including the fields no run counter pins (`filled`,
/// `evicted_unused` and the timeliness split). Covers the original trio on the scaled machine
/// and an LDS kernel on the 8 KB/4-way pointer-chase L2.
#[test]
fn summary_and_epoch_folds_agree_per_run() {
    let scaled = CacheConfig::scaled_default();
    let mut small = scaled.with_hw_backend(HwBackend::PointerChase);
    small.l2 = CacheGeometry::new(8 * 1024, 4, small.l2.line_size);
    let mut cases: Vec<(String, CacheConfig, Arc<CompiledTrace>, Vec<u32>)> = Vec::new();
    for b in [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst] {
        let ct = Arc::new(compile_trace(&Workload::tiny(b).trace(), &scaled));
        cases.push((format!("{b:?}"), scaled, ct, grid(b)));
    }
    let lds = WorkloadBuilder::new(KernelKind::HashJoin)
        .tier(ScaleTier::Tiny)
        .trace();
    let ct = Arc::new(compile_trace(&lds, &small));
    cases.push(("hashjoin/8KB pchase".into(), small, ct, vec![1, 4, 16, 64]));

    for (name, cfg, ct, ds) in cases {
        let threshold = default_early_threshold(&cfg.latency);
        let new_sink = move || SummarySink::new(threshold);
        let opts = EngineOptions::default();
        let finish = |k: SummarySink| k.summary.counts;
        let (plain, summaries, _) = sweep(&ct, cfg, 0.5, &ds, opts, 2, new_sink, finish);
        let (recorded_sweep, epochs, _) = recorded(&ct, cfg, &ds, 2);
        assert_eq!(plain, recorded_sweep, "{name}: the sinks must not perturb");
        let mut pollution = 0;
        for (counts, series) in summaries.iter().zip(epochs.iter()) {
            assert_eq!(*counts, series.totals().counts, "{name}: lifecycle counts");
            pollution += counts.total_pollution();
        }
        if name.starts_with("hashjoin") {
            assert!(pollution > 0, "{name}: the small L2 must pollute");
        }
    }
}
