//! Prefetch-distance control: the sweep harness behind Figures 2 and
//! 4–6, and the bound-driven distance recommendation.

use crate::affinity::{original_set_affinity, SetAffinityReport};
use crate::engine::{run, EngineOptions, HelperSchedule, RunResult};
use crate::params::SpParams;
use crate::pollution::{BehaviorChange, PollutionSummary};
use sp_cachesim::epoch::{EpochSeries, EpochSink};
use sp_cachesim::events::{default_early_threshold, EventSink, NullSink};
use sp_cachesim::CacheConfig;
use sp_runner::{run_jobs, Job, RunnerReport};
use sp_trace::{CompiledTrace, HotLoopTrace};
use std::convert::Infallible;
use std::sync::Arc;

/// One point of a prefetch-distance sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The prefetch distance (`A_SKI`) of this run.
    pub distance: u32,
    /// The full parameter set used.
    pub params: SpParams,
    /// Runtime normalized to the original run (Fig. 2 / 4b / 5b / 6b).
    pub runtime_norm: f64,
    /// Main-thread memory accesses normalized to the original (Fig. 2).
    pub memory_accesses_norm: f64,
    /// Main-thread totally L2 misses normalized to the original —
    /// the paper's "hot misses" curve (Fig. 2).
    pub hot_misses_norm: f64,
    /// The behaviour-change triple (Fig. 4a / 5a / 6a).
    pub behavior: BehaviorChange,
    /// Pollution summary at this distance.
    pub pollution: PollutionSummary,
    /// The raw SP run.
    pub run: RunResult,
}

/// A complete distance sweep of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The original (no-helper) run everything is normalized to.
    pub baseline: RunResult,
    /// One point per requested distance, in the given order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// The distance with the lowest normalized runtime.
    pub fn best_distance(&self) -> Option<u32> {
        self.points
            .iter()
            .min_by(|a, b| a.runtime_norm.total_cmp(&b.runtime_norm))
            .map(|p| p.distance)
    }

    /// The point measured at `distance`, if swept.
    pub fn at(&self, distance: u32) -> Option<&SweepPoint> {
        self.points.iter().find(|p| p.distance == distance)
    }
}

/// Per-point outputs of a sweep's sinks, parallel to [`Sweep`]: the
/// baseline's, then one per swept distance in the given order.
#[derive(Debug, Clone, PartialEq)]
pub struct PerPoint<T> {
    /// The original (no-helper) run's output.
    pub baseline: T,
    /// One output per swept distance, in the given order.
    pub points: Vec<T>,
}

impl<T> PerPoint<T> {
    /// The baseline's output, then each distance's, in sweep order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        std::iter::once(&self.baseline).chain(&self.points)
    }
}

/// Run the paper's sweep over `ct` on `cache_cfg`: the original program
/// once, then SP at each `distance` with the prefetch ratio fixed at `rp`
/// (the paper uses `RP = 0.5` for all three benchmarks, §V.B). Baseline
/// and SP points share `opts.passes`, so the normalizations stay
/// apples-to-apples.
///
/// Every grid point attaches a fresh sink from `new_sink` and reduces it
/// with `finish` to that point's output: `|| NullSink` and `|_| ()` for a
/// plain sweep, a [`sp_cachesim::SummarySink`] to report *why* a distance
/// crossed the `SA/2` bound (which displacement case fired, how
/// timeliness shifted), an [`sp_cachesim::EpochSink`] to report *when*.
///
/// The baseline and each distance are independent jobs on up to `jobs`
/// worker threads (`0` = all cores), submitted baseline first; each
/// worker reuses one parked simulator across the points it claims, and
/// all share the `Arc`'d trace. The runner returns results in submission
/// order, so the sweep and its outputs are **identical** whatever `jobs`
/// is (see `tests/parallel_determinism.rs`).
#[allow(clippy::too_many_arguments)]
pub fn sweep<K, T>(
    ct: &Arc<CompiledTrace>,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    opts: EngineOptions,
    jobs: usize,
    new_sink: impl Fn() -> K + Copy + Send + 'static,
    finish: fn(K) -> T,
) -> (Sweep, PerPoint<T>, RunnerReport)
where
    K: EventSink + 'static,
    T: Send + 'static,
{
    // Each grid point gets a deterministic child of the caller's
    // correlation ID (baseline = .1, distance i = .i+2), captured here
    // and re-established inside the job so spans recorded on pool
    // threads still correlate with the originating request.
    let corr = sp_obs::corr::current();
    let _sp = sp_obs::span!("sweep", points = distances.len());
    let points = std::iter::once(None).chain(distances.iter().copied().map(Some));
    let grid: Vec<Job<'static, (RunResult, T)>> = points
        .enumerate()
        .map(|(i, distance)| {
            let ct = Arc::clone(ct);
            Box::new(move || {
                let _cg = corr.map(|c| sp_obs::corr::set_current(c.child(i as u32 + 1)));
                let _sp = match distance {
                    None => sp_obs::span!("point", baseline = true),
                    Some(d) => sp_obs::span!("point", distance = d),
                };
                let mut sink = new_sink();
                let mut params = distance.map(|d| SpParams::from_distance_rp(d, rp));
                let helper = params.as_mut().map(|p| p as &mut dyn HelperSchedule);
                let run = run(&ct, cache_cfg, helper, opts, &mut sink);
                (run, finish(sink))
            }) as Job<'static, (RunResult, T)>
        })
        .collect();
    let (results, report) = run_jobs(grid, jobs);
    let (mut runs, mut points): (Vec<RunResult>, Vec<T>) = results.into_iter().unzip();
    let baseline = runs.remove(0);
    let outputs = PerPoint {
        baseline: points.remove(0),
        points,
    };
    (
        assemble_sweep(baseline, distances, rp, runs),
        outputs,
        report,
    )
}

/// A plain [`sweep`]. Frozen for `perfbench/src/adapter.rs`, the
/// benchmark's only caller; deleted with the other three shims by the
/// ROADMAP item that gates CI on perfbench op counts and frees the
/// adapter.
#[doc(hidden)]
pub fn sweep_compiled_jobs_with(
    ct: &Arc<CompiledTrace>,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    opts: EngineOptions,
    jobs: usize,
) -> Result<(Sweep, RunnerReport), Infallible> {
    let (swept, _, report) = sweep(
        ct,
        cache_cfg,
        rp,
        distances,
        opts,
        jobs,
        || NullSink,
        |_| (),
    );
    Ok((swept, report))
}

/// A [`sweep`] recording every point with an [`EpochSink`] of
/// `epoch_len` main-thread references. Frozen for
/// `perfbench/src/adapter.rs`, the benchmark's only caller; deleted with
/// the other three shims by the ROADMAP item that gates CI on perfbench
/// op counts and frees the adapter.
#[doc(hidden)]
pub fn sweep_epochs_compiled_jobs_with(
    ct: &Arc<CompiledTrace>,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    opts: EngineOptions,
    epoch_len: u64,
    jobs: usize,
) -> Result<(Sweep, PerPoint<EpochSeries>, RunnerReport), Infallible> {
    let threshold = default_early_threshold(&cache_cfg.latency);
    let new_sink = move || EpochSink::new(epoch_len, threshold);
    Ok(sweep(
        ct,
        cache_cfg,
        rp,
        distances,
        opts,
        jobs,
        new_sink,
        EpochSink::finish,
    ))
}

/// Normalize a grid of SP runs against the baseline.
fn assemble_sweep(baseline: RunResult, distances: &[u32], rp: f64, runs: Vec<RunResult>) -> Sweep {
    let base_rt = baseline.runtime.max(1) as f64;
    let base_ma = baseline.stats.main.memory_accesses().max(1) as f64;
    let base_miss = baseline.stats.main.total_misses.max(1) as f64;
    let points = distances
        .iter()
        .zip(runs)
        .map(|(&d, run)| SweepPoint {
            distance: d,
            params: SpParams::from_distance_rp(d, rp),
            runtime_norm: run.runtime as f64 / base_rt,
            memory_accesses_norm: run.stats.main.memory_accesses() as f64 / base_ma,
            hot_misses_norm: run.stats.main.total_misses as f64 / base_miss,
            behavior: BehaviorChange::between(&baseline, &run),
            pollution: PollutionSummary::from_run(&run),
            run,
        })
        .collect();
    Sweep { baseline, points }
}

/// The full distance-control pipeline of the paper:
/// profile → Set Affinity → bound.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceRecommendation {
    /// The Set Affinity report the bound came from.
    pub affinity: SetAffinityReport,
    /// The paper's upper limit: `min SA / 2` (exclusive), i.e. the
    /// maximum allowed distance. `None` when no set overflows.
    pub max_distance: Option<u32>,
}

/// Compute the Set-Affinity-based distance bound for a hot loop on a
/// cache configuration (using the **original** stream and the L2
/// geometry, per Definitions 1–2).
pub fn recommend_distance(trace: &HotLoopTrace, cache_cfg: &CacheConfig) -> DistanceRecommendation {
    let affinity = original_set_affinity(trace, cache_cfg.l2);
    let max_distance = affinity.distance_bound();
    DistanceRecommendation {
        affinity,
        max_distance,
    }
}

/// Clamp a requested distance to the recommendation (the controller the
/// paper's conclusion advocates: "controlling prefetch distance within
/// the estimated range").
pub fn controlled_distance(requested: u32, rec: &DistanceRecommendation) -> u32 {
    match rec.max_distance {
        Some(max) => requested.min(max),
        None => requested,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::cfg;
    use sp_cachesim::{CacheGeometry, LifecycleCounts, SummarySink};
    use sp_trace::synth;

    /// A plain sweep of `t`, compiled fresh.
    fn plain_with(
        t: &HotLoopTrace,
        c: CacheConfig,
        ds: &[u32],
        opts: EngineOptions,
        jobs: usize,
    ) -> (Sweep, RunnerReport) {
        let ct = Arc::new(CompiledTrace::compile(t));
        let (s, _, rep) = sweep(&ct, c, 0.5, ds, opts, jobs, || NullSink, |_| ());
        (s, rep)
    }

    fn plain(t: &HotLoopTrace, ds: &[u32]) -> Sweep {
        plain_with(t, cfg(), ds, EngineOptions::default(), 1).0
    }

    #[test]
    fn sweep_produces_one_point_per_distance() {
        let t = synth::sequential(800, 2, 0, 64, 0);
        let s = plain(&t, &[1, 4, 16]);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.points[0].distance, 1);
        assert!(s.at(4).is_some());
        assert!(s.at(99).is_none());
        assert!(s.best_distance().is_some());
    }

    #[test]
    fn normalizations_are_relative_to_the_baseline() {
        let t = synth::sequential(800, 2, 0, 64, 0);
        let s = plain(&t, &[4]);
        let p = &s.points[0];
        let expect = p.run.runtime as f64 / s.baseline.runtime as f64;
        assert!((p.runtime_norm - expect).abs() < 1e-12);
        assert!(p.runtime_norm > 0.0);
    }

    #[test]
    fn recommendation_uses_l2_geometry() {
        let c = cfg();
        let g = c.l2;
        // Hammer set 0 with one new block per iteration: SA = ways + 1.
        let t = synth::set_hammer(100, 1, 0, g.sets(), g.line_size);
        let rec = recommend_distance(&t, &c);
        assert_eq!(rec.affinity.min(), Some(g.ways + 1));
        assert_eq!(rec.max_distance, rec.affinity.distance_bound());
    }

    #[test]
    fn controlled_distance_clamps() {
        let rec = DistanceRecommendation {
            affinity: SetAffinityReport::default(),
            max_distance: Some(10),
        };
        assert_eq!(controlled_distance(5, &rec), 5);
        assert_eq!(controlled_distance(50, &rec), 10);
        let unbounded = DistanceRecommendation {
            affinity: SetAffinityReport::default(),
            max_distance: None,
        };
        assert_eq!(controlled_distance(50, &unbounded), 50);
    }

    #[test]
    fn sweep_is_deterministic() {
        let t = synth::random(300, 3, 0, 1 << 20, 23, 2);
        assert_eq!(plain(&t, &[2, 8]), plain(&t, &[2, 8]));
    }

    #[test]
    fn multi_pass_sweeps_share_passes_with_the_baseline() {
        let t = synth::sequential(600, 2, 0, 64, 0);
        let one = plain(&t, &[2, 8]);
        // Non-default options change the simulation (multi-pass baseline
        // warms the cache), but the point count and normalization basis
        // stay consistent.
        let opts = EngineOptions {
            passes: 2,
            ..EngineOptions::default()
        };
        let (multi, _) = plain_with(&t, cfg(), &[2, 8], opts, 1);
        assert_eq!(multi.points.len(), 2);
        assert_eq!(multi.baseline.outer_iters, 2 * one.baseline.outer_iters);
        assert!(multi.baseline.runtime > one.baseline.runtime);
    }

    #[test]
    fn one_compiled_sweep_serves_every_geometry() {
        let t = synth::random(300, 3, 0, 1 << 20, 23, 2);
        let ct = Arc::new(CompiledTrace::compile(&t));
        let other = CacheConfig {
            l2: CacheGeometry::new(32 * 1024, 4, 64),
            ..cfg()
        };
        for c in [cfg(), other] {
            let (fresh, _) = plain_with(&t, c, &[2, 8], EngineOptions::default(), 1);
            let opts = EngineOptions::default();
            let (reused, _, rep) = sweep(&ct, c, 0.5, &[2, 8], opts, 1, || NullSink, |_| ());
            assert_eq!(fresh, reused);
            assert_eq!(rep.jobs, 3);
        }
    }

    fn summaries(
        ct: &Arc<CompiledTrace>,
        c: CacheConfig,
        jobs: usize,
    ) -> (Sweep, PerPoint<LifecycleCounts>) {
        let threshold = default_early_threshold(&c.latency);
        let new_sink = move || SummarySink::new(threshold);
        let opts = EngineOptions::default();
        let finish = |k: SummarySink| k.summary.counts;
        let (s, events, _) = sweep(ct, c, 0.5, &[2, 8], opts, jobs, new_sink, finish);
        (s, events)
    }

    #[test]
    fn events_sweep_matches_plain_sweep_and_folds_to_the_counters() {
        let t = synth::random(300, 3, 0, 1 << 20, 23, 2);
        let c = cfg();
        let ct = Arc::new(CompiledTrace::compile(&t));
        let (observed, events) = summaries(&ct, c, 1);
        assert_eq!(
            plain(&t, &[2, 8]),
            observed,
            "observing a sweep must not change it"
        );
        assert_eq!(events.points.len(), 2);
        assert_eq!(
            events.baseline.pollution_stats(),
            observed.baseline.stats.pollution
        );
        for (summary, point) in events.points.iter().zip(&observed.points) {
            assert_eq!(summary.pollution_stats(), point.run.stats.pollution);
            assert_eq!(summary.issued, point.run.stats.prefetches_issued);
            assert_eq!(summary.first_uses, point.run.stats.prefetches_useful);
        }
        // Event folds are jobs-width deterministic like the sweep itself.
        assert_eq!(summaries(&ct, c, 4), (observed, events));
    }

    #[test]
    fn epoch_sweep_matches_plain_sweep_and_totals_fold_to_the_counters() {
        let t = synth::random(300, 3, 0, 1 << 20, 23, 2);
        let c = cfg();
        let ct = Arc::new(CompiledTrace::compile(&t));
        let threshold = default_early_threshold(&c.latency);
        let opts = EngineOptions::default();
        let record = |jobs| {
            let new_sink = move || EpochSink::new(64, threshold);
            sweep(
                &ct,
                c,
                0.5,
                &[2, 8],
                opts,
                jobs,
                new_sink,
                EpochSink::finish,
            )
        };
        let (recorded, epochs, _) = record(1);
        assert_eq!(
            plain(&t, &[2, 8]),
            recorded,
            "recording a sweep must not change it"
        );
        assert_eq!(epochs.points.len(), 2);
        // Every window but the last is exactly the epoch length, and the
        // series totals are the run-aggregate counters, refined in time.
        for (series, run) in std::iter::once((&epochs.baseline, &recorded.baseline)).chain(
            epochs
                .points
                .iter()
                .zip(recorded.points.iter().map(|p| &p.run)),
        ) {
            for w in &series.epochs[..series.len().saturating_sub(1)] {
                assert_eq!(w.refs, 64);
            }
            let t = series.totals();
            let m = &run.stats.main;
            assert_eq!(
                t.main,
                [m.l1_hits, m.total_hits, m.partial_hits, m.total_misses]
            );
            let h = &run.stats.helper;
            assert_eq!(
                t.helper,
                [h.l1_hits, h.total_hits, h.partial_hits, h.total_misses]
            );
            assert_eq!(t.counts.issued, run.stats.prefetches_issued);
            assert_eq!(t.counts.first_uses, run.stats.prefetches_useful);
            assert_eq!(series.pollution_stats(), run.stats.pollution);
        }
        // Epoch series are jobs-width deterministic like the sweep.
        let par = record(4);
        assert_eq!(par.0, recorded);
        assert_eq!(par.1, epochs);
    }

    #[test]
    fn parallel_sweep_matches_serial_and_reports_every_job() {
        let t = synth::random(300, 3, 0, 1 << 20, 23, 2);
        let serial = plain(&t, &[1, 4, 16, 64]);
        for jobs in [2usize, 4] {
            let (par, rep) = plain_with(&t, cfg(), &[1, 4, 16, 64], EngineOptions::default(), jobs);
            assert_eq!(par, serial);
            assert_eq!(rep.jobs, 5, "baseline + one job per distance");
            assert!(rep.workers <= jobs);
        }
    }
}
