//! Prefetch-distance control: the sweep harness behind Figures 2 and
//! 4–6, and the bound-driven distance recommendation.

use crate::affinity::{original_set_affinity, SetAffinityReport};
use crate::engine::{
    compile_trace, run_original_passes_compiled_ev, run_sp_with_compiled_ev, EngineOptions,
    RunResult,
};
use crate::params::SpParams;
use crate::pollution::{BehaviorChange, PollutionSummary};
use sp_cachesim::epoch::{EpochSeries, EpochSink};
use sp_cachesim::events::{
    default_early_threshold, EventSink, EventSummary, NullSink, SummarySink,
};
use sp_cachesim::CacheConfig;
use sp_obs::span::SpanGuard;
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

/// Run the paper's sweep: the original program once, then SP at each
/// `distance` with the prefetch ratio fixed at `rp` (the paper uses
/// `RP = 0.5` for all three benchmarks, §V.B).
pub fn sweep_distances(
    trace: &HotLoopTrace,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
) -> Sweep {
    sweep_distances_jobs(trace, cache_cfg, rp, distances, 1).0
}

/// [`sweep_distances`] fanned out on up to `jobs` worker threads
/// (`0` = all cores), plus the executor's timing report.
///
/// Every grid point (the baseline and each distance) owns its
/// `MemorySystem` and shares nothing, so the jobs are independent; the
/// runner returns them in submission order, making the assembled
/// `Sweep` **identical** to the serial one whatever `jobs` is (see
/// `tests/parallel_determinism.rs`).
pub fn sweep_distances_jobs(
    trace: &HotLoopTrace,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    jobs: usize,
) -> (Sweep, RunnerReport) {
    sweep_distances_jobs_with(
        trace,
        cache_cfg,
        rp,
        distances,
        EngineOptions::default(),
        jobs,
    )
}

/// [`sweep_distances_jobs`] with explicit [`EngineOptions`] — the form
/// sp-serve executes, where a request may select the idealized helper
/// model or multi-pass runs. Baseline and SP points share the same
/// `opts.passes`, so the normalizations stay apples-to-apples.
pub fn sweep_distances_jobs_with(
    trace: &HotLoopTrace,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    opts: EngineOptions,
    jobs: usize,
) -> (Sweep, RunnerReport) {
    let ct = Arc::new(compile_trace(trace, &cache_cfg));
    let Ok(swept) = sweep_compiled_jobs_with(&ct, cache_cfg, rp, distances, opts, jobs);
    swept
}

/// [`sweep_distances_jobs_with`] over an already-compiled trace — the
/// form long-lived services use, compiling once per trace and sweeping
/// many times, on any cache configuration. All grid points share the
/// `Arc`'d references; each worker thread reuses one parked simulator
/// across the grid points it claims. Never fails; the `Infallible`
/// error type only keeps existing `Result` callers compiling.
pub fn sweep_compiled_jobs_with(
    ct: &Arc<CompiledTrace>,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    opts: EngineOptions,
    jobs: usize,
) -> Result<(Sweep, RunnerReport), Infallible> {
    let (sweep, (), _, report) = sweep_grid(
        ct,
        cache_cfg,
        rp,
        distances,
        opts,
        jobs,
        None,
        || NullSink,
        |_| (),
    );
    Ok((sweep, report))
}

/// Per-point event summaries of an observed sweep, parallel to
/// [`Sweep::points`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepEvents {
    /// The original (no-helper) run's fold.
    pub baseline: EventSummary,
    /// One fold per swept distance, in the given order.
    pub points: Vec<EventSummary>,
}

/// [`sweep_compiled_jobs_with`] with a [`SummarySink`] attached to every
/// grid point, so the sweep can report *why* a distance crossed the
/// `SA/2` bound — which displacement case fired, in which sets, and how
/// prefetch timeliness shifted — instead of just that hits dropped.
/// Event folds ride in each job's return value, so the result is
/// submission-order deterministic at any `jobs` width like the plain
/// sweep. Early/on-time classification uses
/// [`default_early_threshold`] of the configuration's latencies.
pub fn sweep_events_compiled_jobs_with(
    ct: &Arc<CompiledTrace>,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    opts: EngineOptions,
    jobs: usize,
) -> Result<(Sweep, SweepEvents, RunnerReport), Infallible> {
    let threshold = default_early_threshold(&cache_cfg.latency);
    let (sweep, baseline, points, report) = sweep_grid(
        ct,
        cache_cfg,
        rp,
        distances,
        opts,
        jobs,
        Some("events"),
        move || SummarySink::new(threshold),
        |sink| sink.summary,
    );
    Ok((sweep, SweepEvents { baseline, points }, report))
}

/// Per-point epoch telemetry series of a recorded sweep, parallel to
/// [`Sweep::points`]. Named `SweepEpochs` (windows are
/// [`sp_cachesim::EpochWindow`]s) — distinct from the adaptive
/// controller's coarse per-interval [`crate::adaptive::EpochRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepEpochs {
    /// The original (no-helper) run's series.
    pub baseline: EpochSeries,
    /// One series per swept distance, in the given order.
    pub points: Vec<EpochSeries>,
}

/// [`sweep_compiled_jobs_with`] with an [`EpochSink`] recording every
/// grid point, so the sweep reports *when* pollution happens — the
/// per-window displacement/timeliness/pressure series `spt report`
/// renders and the adaptive controller will steer on — not just the
/// run totals. `epoch_len` is the window length in main-thread
/// references ([`sp_cachesim::DEFAULT_EPOCH_LEN`] ≈ 10k); series ride
/// each job's return value, so the result is submission-order
/// deterministic at any `jobs` width.
#[allow(clippy::type_complexity)]
pub fn sweep_epochs_compiled_jobs_with(
    ct: &Arc<CompiledTrace>,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    opts: EngineOptions,
    epoch_len: u64,
    jobs: usize,
) -> Result<(Sweep, SweepEpochs, RunnerReport), Infallible> {
    let threshold = default_early_threshold(&cache_cfg.latency);
    let (sweep, baseline, points, report) = sweep_grid(
        ct,
        cache_cfg,
        rp,
        distances,
        opts,
        jobs,
        Some("epochs"),
        move || EpochSink::new(epoch_len, threshold),
        EpochSink::finish,
    );
    Ok((sweep, SweepEpochs { baseline, points }, report))
}

/// The one sweep driver behind the plain, event-observed and recorded
/// sweeps. The baseline and one SP run per distance are independent
/// runner jobs, submitted baseline first; each attaches a fresh sink
/// from `new_sink` and reduces it with `finish` to that point's output.
/// Returns the assembled sweep, the baseline's output, and one output
/// per distance. `flavour` tags the `sweep` span (`events = true`, …).
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn sweep_grid<K, T>(
    ct: &Arc<CompiledTrace>,
    cache_cfg: CacheConfig,
    rp: f64,
    distances: &[u32],
    opts: EngineOptions,
    jobs: usize,
    flavour: Option<&'static str>,
    new_sink: impl Fn() -> K + Copy + Send + 'static,
    finish: fn(K) -> T,
) -> (Sweep, T, Vec<T>, RunnerReport)
where
    K: EventSink + 'static,
    T: Send + 'static,
{
    // Each grid point gets a deterministic child of the caller's
    // correlation ID (baseline = .1, distance i = .i+2), captured here
    // and re-established inside the job so spans recorded on pool
    // threads still correlate with the originating request.
    let corr = sp_obs::corr::current();
    let _sp = SpanGuard::enter("sweep", || {
        let mut fields = vec![("points", distances.len().to_string())];
        fields.extend(flavour.map(|f| (f, true.to_string())));
        fields
    });
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
                let Ok(run) = match distance {
                    None => run_original_passes_compiled_ev(&ct, cache_cfg, opts.passes, &mut sink),
                    Some(d) => {
                        let params = SpParams::from_distance_rp(d, rp);
                        run_sp_with_compiled_ev(&ct, cache_cfg, params, opts, &mut sink)
                    }
                };
                (run, finish(sink))
            }) as Job<'static, (RunResult, T)>
        })
        .collect();
    let (results, report) = run_jobs(grid, jobs);
    let (mut runs, mut outputs): (Vec<RunResult>, Vec<T>) = results.into_iter().unzip();
    let baseline = runs.remove(0);
    let base_output = outputs.remove(0);
    let sweep = assemble_sweep(baseline, distances, rp, runs);
    (sweep, base_output, outputs, report)
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
    use sp_cachesim::CacheGeometry;
    use sp_trace::synth;

    fn cfg() -> CacheConfig {
        CacheConfig {
            cores: 2,
            l1: CacheGeometry::new(1024, 2, 64),
            l2: CacheGeometry::new(16 * 1024, 4, 64),
            hw_prefetchers: false,
            ..CacheConfig::scaled_default()
        }
    }

    #[test]
    fn sweep_produces_one_point_per_distance() {
        let t = synth::sequential(800, 2, 0, 64, 0);
        let s = sweep_distances(&t, cfg(), 0.5, &[1, 4, 16]);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.points[0].distance, 1);
        assert!(s.at(4).is_some());
        assert!(s.at(99).is_none());
        assert!(s.best_distance().is_some());
    }

    #[test]
    fn normalizations_are_relative_to_the_baseline() {
        let t = synth::sequential(800, 2, 0, 64, 0);
        let s = sweep_distances(&t, cfg(), 0.5, &[4]);
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
        let a = sweep_distances(&t, cfg(), 0.5, &[2, 8]);
        let b = sweep_distances(&t, cfg(), 0.5, &[2, 8]);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_with_default_options_equals_plain_sweep() {
        let t = synth::sequential(600, 2, 0, 64, 0);
        let plain = sweep_distances(&t, cfg(), 0.5, &[2, 8]);
        let (with, _) =
            sweep_distances_jobs_with(&t, cfg(), 0.5, &[2, 8], EngineOptions::default(), 1);
        assert_eq!(plain, with);
        // Non-default options change the simulation (multi-pass baseline
        // warms the cache), but the point count and normalization basis
        // stay consistent.
        let opts = EngineOptions {
            passes: 2,
            ..EngineOptions::default()
        };
        let (multi, _) = sweep_distances_jobs_with(&t, cfg(), 0.5, &[2, 8], opts, 1);
        assert_eq!(multi.points.len(), 2);
        assert!(multi.baseline.runtime > plain.baseline.runtime);
    }

    #[test]
    fn one_compiled_sweep_serves_every_geometry() {
        let t = synth::random(300, 3, 0, 1 << 20, 23, 2);
        let ct = std::sync::Arc::new(crate::engine::compile_trace(&t, &cfg()));
        let other = CacheConfig {
            l2: CacheGeometry::new(32 * 1024, 4, 64),
            ..cfg()
        };
        for c in [cfg(), other] {
            let plain = sweep_distances(&t, c, 0.5, &[2, 8]);
            let Ok((compiled, rep)) =
                sweep_compiled_jobs_with(&ct, c, 0.5, &[2, 8], EngineOptions::default(), 1);
            assert_eq!(plain, compiled);
            assert_eq!(rep.jobs, 3);
        }
    }

    #[test]
    fn events_sweep_matches_plain_sweep_and_folds_to_the_counters() {
        let t = synth::random(300, 3, 0, 1 << 20, 23, 2);
        let c = cfg();
        let ct = std::sync::Arc::new(crate::engine::compile_trace(&t, &c));
        let Ok((plain, _)) =
            sweep_compiled_jobs_with(&ct, c, 0.5, &[2, 8], EngineOptions::default(), 1);
        let Ok((observed, events, _)) =
            sweep_events_compiled_jobs_with(&ct, c, 0.5, &[2, 8], EngineOptions::default(), 1);
        assert_eq!(plain, observed, "observing a sweep must not change it");
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
        let Ok(par) =
            sweep_events_compiled_jobs_with(&ct, c, 0.5, &[2, 8], EngineOptions::default(), 4);
        assert_eq!(par.0, observed);
        assert_eq!(par.1, events);
    }

    #[test]
    fn epoch_sweep_matches_plain_sweep_and_totals_fold_to_the_counters() {
        let t = synth::random(300, 3, 0, 1 << 20, 23, 2);
        let c = cfg();
        let ct = std::sync::Arc::new(crate::engine::compile_trace(&t, &c));
        let Ok((plain, _)) =
            sweep_compiled_jobs_with(&ct, c, 0.5, &[2, 8], EngineOptions::default(), 1);
        let Ok((recorded, epochs, _)) =
            sweep_epochs_compiled_jobs_with(&ct, c, 0.5, &[2, 8], EngineOptions::default(), 64, 1);
        assert_eq!(plain, recorded, "recording a sweep must not change it");
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
            assert_eq!(t.issued, run.stats.prefetches_issued);
            assert_eq!(t.first_uses, run.stats.prefetches_useful);
            assert_eq!(series.pollution_stats(), run.stats.pollution);
        }
        // Epoch series are jobs-width deterministic like the sweep.
        let Ok(par) =
            sweep_epochs_compiled_jobs_with(&ct, c, 0.5, &[2, 8], EngineOptions::default(), 64, 4);
        assert_eq!(par.0, recorded);
        assert_eq!(par.1, epochs);
    }

    #[test]
    fn parallel_sweep_matches_serial_and_reports_every_job() {
        let t = synth::random(300, 3, 0, 1 << 20, 23, 2);
        let serial = sweep_distances(&t, cfg(), 0.5, &[1, 4, 16, 64]);
        for jobs in [2usize, 4] {
            let (par, rep) = sweep_distances_jobs(&t, cfg(), 0.5, &[1, 4, 16, 64], jobs);
            assert_eq!(par, serial);
            assert_eq!(rep.jobs, 5, "baseline + one job per distance");
            assert!(rep.workers <= jobs);
        }
    }
}
