//! Drivers for every table, figure and ablation of the paper.
//!
//! Every driver takes a `jobs` width, fans its independent simulations
//! out on the `sp_runner` executor, and returns the executor's timing
//! report alongside the artifact. `jobs = 1` is the serial reference;
//! the artifact is identical at any width.

use sp_cachesim::{default_early_threshold, CacheConfig, EpochSeries, EpochSink, Policy};
use sp_core::prelude::*;
use sp_core::{
    estimate_calr, map_jobs, run_jobs, sampled_set_affinity, AdaptiveSchedule, FeedbackController,
    PerPoint, RunnerReport, Sweep,
};
use sp_profiler::{select_benchmarks, Burst, BurstSampler, SelectionRow};
use sp_trace::{CompiledTrace, HotLoopTrace};
use sp_workloads::{Benchmark, Candidate, KernelKind, ScaleTier, Workload, WorkloadBuilder};
use std::iter::once;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Which input sizes the drivers simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `Workload::tiny` inputs — seconds-fast, used by the golden-output
    /// tests and `reproduce --smoke`.
    Test,
    /// `Workload::scaled` inputs — the default reproduction scale.
    Scaled,
}

impl Scale {
    /// Build `b` at this scale.
    pub fn workload(self, b: Benchmark) -> Workload {
        match self {
            Scale::Test => Workload::tiny(b),
            Scale::Scaled => Workload::scaled(b),
        }
    }

    /// The workload-builder tier this scale maps to.
    pub fn tier(self) -> ScaleTier {
        match self {
            Scale::Test => ScaleTier::Tiny,
            Scale::Scaled => ScaleTier::Scaled,
        }
    }
}

/// Distance grid for the EM3D sweeps (Figures 2 and 4). The paper sweeps
/// 2..22 around its bound of 20; our scaled bound is ~64, so the grid
/// brackets it the same way (several points below, several above).
pub const DISTANCES_EM3D: &[u32] = &[2, 5, 10, 20, 40, 80, 160, 320];

/// Distance grid for the MCF sweep (Figure 5; paper shows up to 2000,
/// bound < 1500 — ours is ~1300).
pub const DISTANCES_MCF: &[u32] = &[10, 50, 200, 400, 800, 1600, 3200];

/// Distance grid for the MST sweep (Figure 6; paper shows up to 100 with
/// flattening past 30 — our scaled bound is ~330, bracketed likewise).
pub const DISTANCES_MST: &[u32] = &[5, 15, 30, 60, 120, 240, 480, 960];

/// Distance grid shared by the extension kernels (TreeAdd, Health,
/// MatMul, and the four LDS kernels): their working sets — and hence
/// Set-Affinity bounds — sit well below the trio's, so a shorter
/// log-spaced grid brackets every bound.
pub const DISTANCES_LDS: &[u32] = &[2, 4, 8, 16, 32, 64, 128, 256];

/// The sweep grid for a benchmark.
pub fn distances_for(b: Benchmark) -> &'static [u32] {
    distances_for_kernel(KernelKind::from_benchmark(b))
}

/// The sweep grid for any workload-builder kernel.
pub fn distances_for_kernel(k: KernelKind) -> &'static [u32] {
    match k {
        KernelKind::Em3d => DISTANCES_EM3D,
        KernelKind::Mcf => DISTANCES_MCF,
        KernelKind::Mst => DISTANCES_MST,
        _ => DISTANCES_LDS,
    }
}

/// One row of Table 2 (benchmark characteristics).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Benchmark name as the paper spells it.
    pub benchmark: &'static str,
    /// Input description (Table 2, column 2).
    pub input: String,
    /// Iterations of the outer hot loop (column 3).
    pub iterations: usize,
    /// `SA(L, Sx)` range from the full stream (column 4).
    pub sa_range: Option<(u32, u32)>,
    /// `SA(L, Sx)` range estimated from burst samples (the paper's
    /// low-overhead profiling path, §IV.C).
    pub sa_sampled: Option<(u32, u32)>,
    /// The derived prefetch-distance upper limit (`min SA / 2`, §V.A).
    pub distance_bound: Option<u32>,
    /// Measured CALR of the hot loop (drives `RP`; all three are ~0).
    pub calr: f64,
    /// The RP the selection rule picks.
    pub rp: f64,
}

/// One kernel's Table 2 row: the full profile → Set Affinity →
/// distance-bound pipeline. Shared by [`table2`] (which fans the
/// paper's three benchmarks out) and the sp-serve `affinity` request
/// handler; it applies unchanged to every workload-builder kernel.
pub fn kernel_row(cfg: &CacheConfig, scale: Scale, kind: KernelKind) -> Table2Row {
    let w = WorkloadBuilder::new(kind).tier(scale.tier()).build();
    let trace = w.trace();
    let rec = recommend_distance(&trace, cfg);
    // Adaptive burst sampling: a burst can only observe Set
    // Affinities shorter than itself, so double the burst length
    // (at a fixed 50% duty cycle) until overflow is observed.
    let mut sampled = sp_core::SetAffinityReport::default();
    for on in [512usize, 2048, 8192, 32768, 131_072] {
        let bursts = BurstSampler::new(on, on).sample(&trace);
        sampled = sampled_set_affinity(&bursts, cfg.l2);
        if sampled.range().is_some() {
            break;
        }
    }
    let calr = estimate_calr(&trace, cfg).calr;
    Table2Row {
        benchmark: kind.name(),
        input: w.input_description(),
        iterations: w.hot_iterations(),
        sa_range: rec.affinity.range(),
        sa_sampled: sampled.range(),
        distance_bound: rec.max_distance,
        calr,
        rp: select_rp(calr),
    }
}

/// Regenerate Table 2 on the given cache configuration, one fan-out job
/// per benchmark.
pub fn table2(cfg: &CacheConfig, scale: Scale, jobs: usize) -> (Vec<Table2Row>, RunnerReport) {
    let row = |b| kernel_row(cfg, scale, KernelKind::from_benchmark(b));
    map_jobs(Benchmark::ALL.to_vec(), row, jobs)
}

/// One row of the **paper-scale** Table 2: Set Affinity measured on the
/// real Core 2 geometry (4MB 16-way L2) with the paper's input sizes,
/// with each kernel streaming its references straight into the analysis
/// (the traces would not fit in memory materialized). Comparable 1:1
/// with the paper's SA column.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2PaperRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Input description.
    pub input: String,
    /// Measured `SA(L, Sx)` range.
    pub sa_range: Option<(u32, u32)>,
    /// Derived distance bound.
    pub distance_bound: Option<u32>,
    /// The paper's published range, for the printout.
    pub paper_range: &'static str,
    /// The paper's published bound.
    pub paper_bound: &'static str,
}

/// Regenerate Table 2 at **paper scale**: paper inputs on the
/// `core2_q6600` L2. Slow (~10^8 references for EM3D/MST) but runs in
/// constant memory. `mst_nodes` lets callers shrink MST (its full trace
/// is O(n^2) iterations); pass 10_000 for the paper's input. The three
/// benchmark streams are independent jobs — each builds its own layout
/// and streams its own references.
pub fn table2_paper(mst_nodes: usize, jobs: usize) -> (Vec<Table2PaperRow>, RunnerReport) {
    use sp_core::runner::Job;
    use sp_core::SetAffinityAnalyzer;
    use sp_workloads::{Em3d, Em3dConfig, Mcf, McfConfig, Mst, MstConfig};
    let l2 = CacheConfig::core2_q6600().l2;

    let grid: Vec<Job<'static, (String, SetAffinityReport)>> = vec![
        Box::new(move || {
            let w = Em3d::build(Em3dConfig::paper());
            let input = format!("{} nodes, arity {}", w.config().nodes, w.config().degree);
            let mut sa = SetAffinityAnalyzer::new(l2);
            w.emit(&mut sa);
            (input, sa.report())
        }),
        Box::new(move || {
            let w = Mcf::build(McfConfig::paper());
            let input = format!("{} arcs, {} nodes", w.config().arcs, w.config().nodes);
            let mut sa = SetAffinityAnalyzer::new(l2);
            w.emit(&mut sa);
            (input, sa.report())
        }),
        Box::new(move || {
            let w = Mst::build(MstConfig {
                nodes: mst_nodes,
                ..MstConfig::paper()
            });
            let input = format!("{} nodes", w.config().nodes);
            let mut sa = SetAffinityAnalyzer::new(l2);
            w.emit(&mut sa);
            (input, sa.report())
        }),
    ];
    let paper = [
        ("EM3D", "[40, 360]", "< 20"),
        ("MCF", "[3000, 46000]", "< 1500"),
        ("MST", "[6300, 10000]", "< 3150"),
    ];
    let (reports, runner) = run_jobs(grid, jobs);
    let rows = paper.into_iter().zip(reports).map(
        |((benchmark, paper_range, paper_bound), (input, r))| Table2PaperRow {
            benchmark,
            input,
            sa_range: r.range(),
            distance_bound: r.distance_bound(),
            paper_range,
            paper_bound,
        },
    );
    (rows.collect(), runner)
}

/// The L2-miss cycle share above which a candidate is "memory intensive"
/// (paper §IV.B keeps applications with a "significant number of cycles
/// attributed to the L2 cache misses").
pub const SELECTION_THRESHOLD: f64 = 0.3;

/// The paper's benchmark-selection screen (§IV.B) over the candidate
/// pool: the three selected applications plus screened-out contrasts.
/// The candidate traces are built in parallel (the expensive part; the
/// screen itself is a cheap pass over the traces).
pub fn selection(cfg: &CacheConfig, jobs: usize) -> (Vec<SelectionRow>, RunnerReport) {
    let (candidates, report) = map_jobs(
        Candidate::ALL.to_vec(),
        |c| (c.name().to_string(), c.trace_scaled()),
        jobs,
    );
    (
        select_benchmarks(&candidates, cfg, SELECTION_THRESHOLD),
        report,
    )
}

/// Epoch window length of the fig5-MCF flight-recorder fixture.
pub const FIG5_EPOCH_LEN: u64 = 256;

/// L2 geometry of the fig5-MCF flight-recorder fixture: 16KB 2-way —
/// small enough that the *tiny* MCF working set overflows it the way
/// the paper's full-size MCF overflows a 4MB L2, so the sweep crosses
/// the SA/2 bound inside the grid and the displacement cases switch on
/// past it.
pub const FIG5_EPOCH_L2_KB: u64 = 16;
/// See [`FIG5_EPOCH_L2_KB`].
pub const FIG5_EPOCH_L2_WAYS: u32 = 2;

/// The fig5-MCF epoch fixture: the Figure 5 grid re-run with the epoch
/// flight recorder on the tiny input and the [`FIG5_EPOCH_L2_KB`]
/// geometry, plus the SA/2 bound for the report annotation. Always
/// test scale — the artifacts (`results/fig5_mcf_epochs.ndjson`,
/// `results/fig5_mcf_epoch_report.md`) are golden-pinned byte-for-byte
/// (`tests/report_golden.rs`, the CI `report-smoke` diff), so they
/// must be cheap to regenerate and independent of `--smoke`. Identical
/// to what `spt report --bench mcf --size tiny --l2-kb 16 --ways 2
/// --epoch-len 256` computes.
pub fn fig5_epoch_fixture(
    jobs: usize,
) -> (Sweep, PerPoint<EpochSeries>, Option<u32>, RunnerReport) {
    let mut cfg = CacheConfig::scaled_default();
    cfg.l2 = sp_cachesim::CacheGeometry::new(
        FIG5_EPOCH_L2_KB * 1024,
        FIG5_EPOCH_L2_WAYS,
        cfg.l2.line_size,
    );
    cfg.validate();
    let trace = Scale::Test.workload(Benchmark::Mcf).trace();
    let bound = recommend_distance(&trace, &cfg).max_distance;
    let ct = Arc::new(CompiledTrace::compile(&trace));
    let threshold = default_early_threshold(&cfg.latency);
    let (sweep, epochs, report) = sweep(
        &ct,
        cfg,
        0.5,
        distances_for(Benchmark::Mcf),
        EngineOptions::default(),
        jobs,
        move || EpochSink::new(FIG5_EPOCH_LEN, threshold),
        EpochSink::finish,
    );
    (sweep, epochs, bound, report)
}

/// The behaviour series of Figures 4(a)/5(a)/6(a) plus the runtime curve
/// of 4(b)/5(b)/6(b) for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviorSeries {
    /// Which benchmark.
    pub benchmark: &'static str,
    /// The underlying sweep.
    pub sweep: Sweep,
    /// The Set-Affinity distance bound for this benchmark (vertical line
    /// the curves should bend around).
    pub bound: Option<u32>,
}

/// Figures 4, 5, 6: full behaviour sweep for `b` (RP = 0.5, §V.B), one
/// fan-out job per grid point. Figure 2 plots EM3D's normalized hot-loop
/// L2 misses, memory accesses and runtime from the same sweep.
pub fn fig_behavior(
    b: Benchmark,
    cfg: CacheConfig,
    scale: Scale,
    jobs: usize,
) -> (BehaviorSeries, RunnerReport) {
    let w = scale.workload(b);
    let trace = w.trace();
    let rec = recommend_distance(&trace, &cfg);
    let ct = Arc::new(CompiledTrace::compile(&trace));
    let opts = EngineOptions::default();
    let (sweep, _, report) = sweep(
        &ct,
        cfg,
        0.5,
        distances_for(b),
        opts,
        jobs,
        || NullSink,
        |_| (),
    );
    (
        BehaviorSeries {
            benchmark: b.name(),
            sweep,
            bound: rec.max_distance,
        },
        report,
    )
}

// Ablations. Each tests a mechanism the paper's argument rests on: a
// driver returns typed rows, and its `check_*` function is the finding
// EXPERIMENTS.md states, as a pure predicate over those rows (`Err`
// says what failed). The findings are stated for the scaled machine,
// so `reproduce ablations` checks them at that tier only.

/// Return `Err(format!(..))` from the enclosing check unless `cond` holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    };
}

/// The first of `rows` that `pick` accepts, or an error naming `what`.
fn row<'a, R>(rows: &'a [R], what: &str, pick: impl Fn(&R) -> bool) -> Result<&'a R, String> {
    rows.iter()
        .find(|r| pick(r))
        .ok_or_else(|| format!("no {what} row"))
}

fn norm(value: u64, base: u64) -> f64 {
    value as f64 / base as f64
}

/// The in-bound EM3D distance of the SP runs in the RP,
/// hardware-prefetcher and replacement ablations (the bound is 67).
pub const ABLATION_DISTANCE: u32 = 20;
/// The out-of-bound distance the replacement ablation compares against.
pub const ABLATION_FAR_DISTANCE: u32 = 320;

/// One SP run of an ablation, normalized to the original run on the
/// same machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SpRow {
    /// Which variant: an RP, a replacement policy, a helper model, or
    /// hardware prefetchers on/off.
    pub variant: &'static str,
    /// `A_SKI` (the distance) and `A_PRE`.
    pub params: SpParams,
    /// Runtime over the original run's.
    pub runtime_norm: f64,
    /// Main-thread L2 misses over the original run's.
    pub miss_norm: f64,
    /// Pollution events.
    pub pollution: u64,
    /// Main-thread hits on fills still in flight (late prefetches).
    pub partial_hits: u64,
    /// Hardware prefetches issued.
    pub hw_prefetches: u64,
    /// Times the helper waited at the sync window.
    pub helper_waits: u64,
    /// Times the helper fell behind and jumped forward.
    pub helper_jumps: u64,
}

/// One SP run to make: variant name, machine, parameters, helper model.
type Variant = (&'static str, CacheConfig, SpParams, EngineOptions);

/// Run each variant and the original program once per distinct machine,
/// one fan-out job per run, all replaying one compiled `trace`.
fn sp_rows(trace: &HotLoopTrace, variants: &[Variant], jobs: usize) -> (Vec<SpRow>, RunnerReport) {
    let mut machines: Vec<CacheConfig> = Vec::new();
    let base_of: Vec<usize> = variants
        .iter()
        .map(|&(_, cfg, ..)| {
            machines.iter().position(|&m| m == cfg).unwrap_or_else(|| {
                machines.push(cfg);
                machines.len() - 1
            })
        })
        .collect();
    let runs = machines.iter().map(|&cfg| (cfg, None));
    let runs = runs.chain(variants.iter().map(|&(_, cfg, p, o)| (cfg, Some((p, o)))));
    let ct = CompiledTrace::compile(trace);
    let (runs, report) = map_jobs(
        runs.collect(),
        |(cfg, sp)| match sp {
            None => run(&ct, cfg, None, EngineOptions::default(), &mut NullSink),
            Some((mut params, opts)) => run(&ct, cfg, Some(&mut params), opts, &mut NullSink),
        },
        jobs,
    );
    let rows = variants.iter().zip(&base_of).zip(&runs[machines.len()..]);
    let rows = rows.map(|((&(variant, _, params, _), &base), r)| {
        let base = &runs[base];
        SpRow {
            variant,
            params,
            runtime_norm: norm(r.runtime, base.runtime),
            miss_norm: norm(r.stats.main.total_misses, base.stats.main.total_misses),
            pollution: r.stats.pollution.total(),
            partial_hits: r.stats.main.partial_hits,
            hw_prefetches: r.stats.prefetches_issued[1..].iter().sum(),
            helper_waits: r.helper_waits,
            helper_jumps: r.helper_jumps,
        }
    });
    (rows.collect(), report)
}

/// The RP ablation: SP on EM3D at [`ABLATION_DISTANCE`] for RP 0.25, 0.5
/// and 0.75, and conventional helper prefetching (RP 1: the helper
/// skips nothing and covers every delinquent load).
pub fn ablation_rp(scale: Scale, jobs: usize) -> (Vec<SpRow>, RunnerReport) {
    let cfg = CacheConfig::scaled_default();
    let opts = EngineOptions::default();
    let at = |rp| SpParams::from_distance_rp(ABLATION_DISTANCE, rp);
    let variants = [
        ("0.25", cfg, at(0.25), opts),
        ("0.50", cfg, at(0.5), opts),
        ("0.75", cfg, at(0.75), opts),
        ("1.00", cfg, SpParams::conventional(), opts),
    ];
    sp_rows(&scale.workload(Benchmark::Em3d).trace(), &variants, jobs)
}

/// The RP finding: conventional prefetching (RP 1) is the slowest ratio
/// and the paper's RP 0.5 the fastest.
pub fn check_rp(rows: &[SpRow]) -> Result<(), String> {
    let by_runtime = |a: &&SpRow, b: &&SpRow| a.runtime_norm.total_cmp(&b.runtime_norm);
    let slowest = rows.iter().max_by(by_runtime).map(|r| r.variant);
    let fastest = rows.iter().min_by(by_runtime).map(|r| r.variant);
    let found = (slowest, fastest);
    ensure!(
        found == (Some("1.00"), Some("0.50")),
        "slowest and fastest RP: {found:?}"
    );
    Ok(())
}

/// The helper distance of the hardware-prefetcher ablation's Set
/// Affinity stream.
pub const HELPER_SA_DISTANCE: u32 = 16;

/// One benchmark of the hardware-prefetcher ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct HwPrefetcherRow {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Original Set Affinity range (Definition 2: main thread only).
    pub sa_orig: Option<(u32, u32)>,
    /// Set Affinity range with the helper's prefetches at
    /// [`HELPER_SA_DISTANCE`] interleaved (Definition 3).
    pub sa_helper: Option<(u32, u32)>,
    /// SP at [`ABLATION_DISTANCE`] with the hardware prefetchers on,
    /// then off.
    pub sp: [SpRow; 2],
}

/// The hardware-prefetcher ablation, per benchmark.
pub fn ablation_hw_prefetchers(scale: Scale, jobs: usize) -> (Vec<HwPrefetcherRow>, RunnerReport) {
    let on = CacheConfig::scaled_default();
    let [sp, helper] =
        [ABLATION_DISTANCE, HELPER_SA_DISTANCE].map(|d| SpParams::from_distance_rp(d, 0.5));
    let opts = EngineOptions::default();
    let variants = [
        ("hw on", on, sp, opts),
        ("hw off", on.without_hw_prefetchers(), sp, opts),
    ];
    let mut total = RunnerReport::empty();
    let rows = Benchmark::ALL.map(|b| {
        let trace = scale.workload(b).trace();
        let (sp, report) = sp_rows(&trace, &variants, jobs);
        total.absorb(&report);
        let sp = sp.try_into().expect("one row per variant");
        HwPrefetcherRow {
            benchmark: b.name(),
            sa_orig: original_set_affinity(&trace, on.l2).range(),
            sa_helper: helper_set_affinity(&trace, on.l2, helper).range(),
            sp,
        }
    });
    (rows.into(), total)
}

/// The hardware-prefetcher finding as measured. The helper touches only
/// blocks the main thread touches, at most its distance earlier, so
/// `SA_orig - HELPER_SA_DISTANCE <= SA_helper <= SA_orig` (minimum SA).
/// The paper's halving, `SA_helper * 2 <= SA_orig`, is a documented
/// deviation.
pub fn check_hw_prefetchers(rows: &[HwPrefetcherRow]) -> Result<(), String> {
    for r in rows {
        let (orig, helper) = (r.sa_orig.map(|s| s.0), r.sa_helper.map(|s| s.0));
        let shift = orig.zip(helper).map(|(o, h)| i64::from(o) - i64::from(h));
        let within = shift.is_some_and(|s| (0..=i64::from(HELPER_SA_DISTANCE)).contains(&s));
        ensure!(within, "{}: min SA {orig:?} -> {helper:?}", r.benchmark);
    }
    Ok(())
}

/// The replacement ablation: SP on EM3D at [`ABLATION_DISTANCE`] and
/// [`ABLATION_FAR_DISTANCE`] under each L2 replacement policy.
pub fn ablation_replacement(scale: Scale, jobs: usize) -> (Vec<SpRow>, RunnerReport) {
    let policies = [
        ("lru", Policy::Lru),
        ("fifo", Policy::Fifo),
        ("random", Policy::Random { seed: 0xC0FFEE }),
        ("plru", Policy::PlruTree),
    ];
    let variants: Vec<Variant> = policies
        .into_iter()
        .flat_map(|(name, policy)| {
            let cfg = CacheConfig::scaled_default().with_policy(policy);
            [ABLATION_DISTANCE, ABLATION_FAR_DISTANCE].map(|d| {
                (
                    name,
                    cfg,
                    SpParams::from_distance_rp(d, 0.5),
                    EngineOptions::default(),
                )
            })
        })
        .collect();
    sp_rows(&scale.workload(Benchmark::Em3d).trace(), &variants, jobs)
}

/// The runtime of `variant` at distance `d` among `rows`.
fn runtime_at(rows: &[SpRow], variant: &str, d: u32) -> Result<f64, String> {
    let what = format!("{variant} distance {d}");
    row(rows, &what, |r| r.variant == variant && r.params.a_ski == d).map(|r| r.runtime_norm)
}

/// The share of LRU's runtime knee a recency policy must show to "keep
/// the knee".
pub const KNEE_KEPT: f64 = 0.9;

/// The replacement finding: the runtime knee (runtime at
/// [`ABLATION_FAR_DISTANCE`] minus at [`ABLATION_DISTANCE`]) is positive
/// under LRU, FIFO and tree-PLRU keep [`KNEE_KEPT`] of it, and random
/// replacement blurs it below every recency policy's.
pub fn check_replacement(rows: &[SpRow]) -> Result<(), String> {
    let knee = |policy| -> Result<f64, String> {
        Ok(runtime_at(rows, policy, ABLATION_FAR_DISTANCE)?
            - runtime_at(rows, policy, ABLATION_DISTANCE)?)
    };
    let (lru, fifo, plru, random) = (knee("lru")?, knee("fifo")?, knee("plru")?, knee("random")?);
    let knees = format!("LRU {lru:.3}, FIFO {fifo:.3}, PLRU {plru:.3}, random {random:.3}");
    ensure!(
        lru > 0.0 && fifo.min(plru) >= KNEE_KEPT * lru,
        "recency knees lost: {knees}"
    );
    ensure!(
        random < lru.min(fifo).min(plru),
        "random keeps its knee: {knees}"
    );
    Ok(())
}

/// One burst length of the sampling ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingRow {
    /// Burst length in outer iterations; `None` is the full stream.
    pub burst: Option<usize>,
    /// Fraction of iterations recorded.
    pub duty: f64,
    /// Outer iterations recorded.
    pub recorded_iters: usize,
    /// Estimated `SA(L, Sx)` range.
    pub sa: Option<(u32, u32)>,
    /// Estimated distance bound.
    pub bound: Option<u32>,
}

/// The sampling ablation: EM3D's Set Affinity from bursts of 64 to 4096
/// iterations at a 50% duty cycle, and from the full stream.
pub fn ablation_sampling(scale: Scale, jobs: usize) -> (Vec<SamplingRow>, RunnerReport) {
    let trace = scale.workload(Benchmark::Em3d).trace();
    let l2 = CacheConfig::scaled_default().l2;
    let estimate = |burst: Option<usize>| {
        let sampler = BurstSampler::new(burst.unwrap_or(trace.outer_iters()), burst.unwrap_or(0));
        let bursts = sampler.sample(&trace);
        let report = match burst {
            Some(_) => sampled_set_affinity(&bursts, l2),
            None => original_set_affinity(&trace, l2),
        };
        SamplingRow {
            burst,
            duty: sampler.duty_cycle(),
            recorded_iters: bursts.iter().map(Burst::len).sum(),
            sa: report.range(),
            bound: report.distance_bound(),
        }
    };
    let bursts = [Some(64), Some(256), Some(1024), Some(4096), None];
    map_jobs(bursts.to_vec(), estimate, jobs)
}

/// The sampling finding: a burst shorter than the full stream's minimum
/// Set Affinity observes no set overflow, so it yields no estimate.
pub fn check_sampling(rows: &[SamplingRow]) -> Result<(), String> {
    let full = row(rows, "full-stream", |r| r.burst.is_none())?;
    let min_sa = full.sa.ok_or("the full stream shows no overflow")?.0 as usize;
    for r in rows.iter().filter(|r| r.burst.is_some_and(|b| b < min_sa)) {
        ensure!(
            r.sa.is_none(),
            "burst {:?} < {min_sa} sees {:?}",
            r.burst,
            r.sa
        );
    }
    Ok(())
}

/// EM3D's trace at `scale` and its Set-Affinity bound, or `None` when
/// it fits the L2 (as at the test scale) and so has no bound.
fn em3d_bound(scale: Scale) -> Option<(HotLoopTrace, u32)> {
    let trace = scale.workload(Benchmark::Em3d).trace();
    let bound = recommend_distance(&trace, &CacheConfig::scaled_default()).max_distance?;
    Some((trace, bound))
}

/// The helper-model ablation: SP on EM3D at half and four times its
/// bound, with the faithful blocking helper and the idealized
/// fire-and-forget one; with the bound, or `None` without one.
pub fn ablation_helper_model(scale: Scale, jobs: usize) -> Option<(Vec<SpRow>, u32, RunnerReport)> {
    let (trace, bound) = em3d_bound(scale)?;
    let cfg = CacheConfig::scaled_default();
    let variants: Vec<Variant> = [("blocking", true), ("idealized", false)]
        .into_iter()
        .flat_map(|(model, blocking_helper)| {
            let opts = EngineOptions {
                blocking_helper,
                ..EngineOptions::default()
            };
            [bound / 2, bound * 4].map(|d| (model, cfg, SpParams::from_distance_rp(d, 0.5), opts))
        })
        .collect();
    let (rows, report) = sp_rows(&trace, &variants, jobs);
    Some((rows, bound, report))
}

/// How far apart two normalized runtimes may be and still count as "the
/// same": 2% of the original runtime, against a knee of about 0.4.
pub const SAME_RUNTIME: f64 = 0.02;

/// The helper-model finding: at each distance the two helper models run
/// within [`SAME_RUNTIME`] of each other, and both slow down from the
/// in-bound distance to the out-of-bound one.
pub fn check_helper_model(rows: &[SpRow]) -> Result<(), String> {
    let near = rows.iter().map(|r| r.params.a_ski).min().ok_or("no rows")?;
    let far = rows.iter().map(|r| r.params.a_ski).max().ok_or("no rows")?;
    for d in [near, far] {
        let blocking = runtime_at(rows, "blocking", d)?;
        let idealized = runtime_at(rows, "idealized", d)?;
        let gap = (blocking - idealized).abs();
        ensure!(
            gap <= SAME_RUNTIME,
            "the models differ by {gap:.3} at distance {d}"
        );
    }
    for model in ["blocking", "idealized"] {
        let slows = runtime_at(rows, model, far)? > runtime_at(rows, model, near)?;
        ensure!(
            slows,
            "{model} does not slow down from distance {near} to {far}"
        );
    }
    Ok(())
}

/// Epoch length (outer iterations) of the adaptive-control ablation.
pub const ADAPTIVE_EPOCH: usize = 128;

/// One policy of the adaptive-control ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRow {
    /// `"static"` (half the bound), `"dynamic"` (the feedback controller
    /// started at 8x the bound) or `"dynamic+bound"` (the same, clamped
    /// by the bound).
    pub policy: &'static str,
    /// Runtime over the original run's.
    pub runtime_norm: f64,
    /// The distance of each epoch, the initial one first (a static run
    /// has one).
    pub distances: Vec<u32>,
}

/// The adaptive-control ablation on EM3D, with the bound, or `None`
/// without one.
pub fn ablation_adaptive(
    scale: Scale,
    jobs: usize,
) -> Option<(Vec<AdaptiveRow>, u32, RunnerReport)> {
    let (trace, bound) = em3d_bound(scale)?;
    let cfg = CacheConfig::scaled_default();
    let free = FeedbackController::new(bound * 8, 0.5);
    let policies = [
        ("static", None),
        ("dynamic", Some(free.clone())),
        ("dynamic+bound", Some(free.bounded(bound))),
    ];
    let runs = once(None).chain(policies.iter().map(|(_, c)| Some(c.clone())));
    let ct = CompiledTrace::compile(&trace);
    let opts = EngineOptions::default();
    let (runs, report) = map_jobs(
        runs.collect(),
        |policy| match policy {
            None => (run(&ct, cfg, None, opts, &mut NullSink), vec![]),
            Some(None) => {
                let mut params = SpParams::from_distance_rp(bound / 2, 0.5);
                let r = run(&ct, cfg, Some(&mut params), opts, &mut NullSink);
                (r, vec![bound / 2])
            }
            Some(Some(c)) => {
                let start = c.distance();
                let mut schedule = AdaptiveSchedule::new(c, ADAPTIVE_EPOCH);
                let r = run(&ct, cfg, Some(&mut schedule), opts, &mut NullSink);
                let epochs = schedule.into_epochs();
                (
                    r,
                    once(start)
                        .chain(epochs.iter().map(|e| e.next_distance))
                        .collect(),
                )
            }
        },
        jobs,
    );
    let rows = policies
        .iter()
        .zip(&runs[1..])
        .map(|(&(policy, _), (run, distances))| AdaptiveRow {
            policy,
            runtime_norm: norm(run.runtime, runs[0].0.runtime),
            distances: distances.clone(),
        });
    Some((rows.collect(), bound, report))
}

/// The share of the dynamic controller's runtime loss that clamping it
/// by the bound must recover: "about three quarters", read as 0.5–1.
pub const CLAMP_RECOVERS: RangeInclusive<f64> = 0.5..=1.0;

/// The adaptive finding: the dynamic controller walks down to the bound
/// by itself (its last distance is `bound`) but runs slower than the
/// static half-bound distance; clamped by the bound, it never exceeds
/// it and recovers a [`CLAMP_RECOVERS`] share of that loss.
pub fn check_adaptive(rows: &[AdaptiveRow], bound: u32) -> Result<(), String> {
    let policy = |p: &str| row(rows, p, |r| r.policy == p);
    let (fixed, free, clamped) = (
        policy("static")?,
        policy("dynamic")?,
        policy("dynamic+bound")?,
    );
    let last = free.distances.last();
    ensure!(
        last == Some(&bound),
        "dynamic control ends at {last:?}, not {bound}"
    );
    let loss = free.runtime_norm - fixed.runtime_norm;
    ensure!(loss > 0.0, "dynamic control is not slower than static");
    let peak = clamped.distances.iter().max();
    ensure!(
        peak <= Some(&bound),
        "clamped control reaches {peak:?}, past {bound}"
    );
    let recovered = (free.runtime_norm - clamped.runtime_norm) / loss;
    ensure!(
        CLAMP_RECOVERS.contains(&recovered),
        "the clamp recovers {recovered:.2}"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_grids_bracket_each_bound() {
        let cfg = CacheConfig::scaled_default();
        for row in table2(&cfg, Scale::Scaled, 2).0 {
            let ds = match row.benchmark {
                "EM3D" => distances_for(Benchmark::Em3d),
                "MCF" => distances_for(Benchmark::Mcf),
                "MST" => distances_for(Benchmark::Mst),
                _ => unreachable!(),
            };
            let bound = row.distance_bound.expect("all three workloads overflow");
            assert!(
                ds.iter().any(|&d| d < bound),
                "{}: need points below {bound}",
                row.benchmark
            );
            assert!(
                ds.iter().any(|&d| d > bound),
                "{}: need points above {bound}",
                row.benchmark
            );
        }
    }

    #[test]
    fn selection_accepts_paper_trio_and_rejects_matmul() {
        let cfg = CacheConfig::scaled_default();
        let rows = selection(&cfg, 2).0;
        assert_eq!(rows.len(), sp_workloads::Candidate::ALL.len());
        for r in &rows {
            match r.name.as_str() {
                "EM3D" | "MCF" | "MST" => {
                    assert!(
                        r.selected,
                        "{} must be selected ({:.2})",
                        r.name,
                        r.profile.miss_share()
                    )
                }
                "MatMul" => {
                    assert!(
                        !r.selected,
                        "MatMul must be rejected ({:.2})",
                        r.profile.miss_share()
                    )
                }
                _ => {}
            }
        }
    }

    #[test]
    fn parallel_drivers_match_serial_at_test_scale() {
        let cfg = CacheConfig::scaled_default();
        let serial = table2(&cfg, Scale::Test, 1).0;
        let (parallel, rep) = table2(&cfg, Scale::Test, 4);
        assert_eq!(parallel, serial);
        assert_eq!(rep.jobs, Benchmark::ALL.len());

        let fig_serial = fig_behavior(Benchmark::Em3d, cfg, Scale::Test, 1).0;
        let (fig_parallel, rep) = fig_behavior(Benchmark::Em3d, cfg, Scale::Test, 4);
        assert_eq!(fig_parallel, fig_serial);
        assert_eq!(rep.jobs, distances_for(Benchmark::Em3d).len() + 1);
    }

    #[test]
    fn table2_matches_paper_shape() {
        let cfg = CacheConfig::scaled_default();
        let rows = table2(&cfg, Scale::Scaled, 2).0;
        assert_eq!(rows.len(), 3);
        let sa_min = |r: &Table2Row| r.sa_range.unwrap().0;
        let em3d = &rows[0];
        let mcf = &rows[1];
        let mst = &rows[2];
        // The paper's ordering: EM3D's Set Affinity is far below MCF's
        // and MST's, so its tolerated distance is far smaller.
        assert!(sa_min(em3d) * 4 < sa_min(mcf));
        assert!(sa_min(em3d) * 4 < sa_min(mst));
        // All three hot loops are memory-bound: CALR ~ 0 => RP = 0.5.
        for r in &rows {
            assert!(r.calr < 0.25, "{}: calr {}", r.benchmark, r.calr);
            // CALR ~ 0 => RP ~ 0.5 (the rule interpolates, so allow the
            // small CALR-proportional excess).
            assert!((r.rp - 0.5).abs() < 0.05, "{}: rp {}", r.benchmark, r.rp);
        }
    }
    #[test]
    fn ablations_are_identical_at_any_jobs_width_and_skip_the_bound_series_at_test_scale() {
        let (rp, rep) = ablation_rp(Scale::Test, 1);
        assert_eq!(ablation_rp(Scale::Test, 3).0, rp);
        assert_eq!(rep.jobs, 4 + 1, "four RPs and one original run");
        let hw = ablation_hw_prefetchers(Scale::Test, 1).0;
        assert_eq!(ablation_hw_prefetchers(Scale::Test, 3).0, hw);
        let replacement = ablation_replacement(Scale::Test, 1).0;
        assert_eq!(ablation_replacement(Scale::Test, 3).0, replacement);
        let sampling = ablation_sampling(Scale::Test, 1).0;
        assert_eq!(ablation_sampling(Scale::Test, 3).0, sampling);
        // Tiny EM3D fits the L2, so there is no bound to place these at.
        assert!(ablation_helper_model(Scale::Test, 2).is_none());
        assert!(ablation_adaptive(Scale::Test, 2).is_none());
    }

    // Each check passes on hand-built rows carrying the measured
    // scaled-tier numbers, and fails on rows that break its finding.

    fn sp_row(variant: &'static str, distance: u32, runtime_norm: f64) -> SpRow {
        SpRow {
            variant,
            params: SpParams::new(distance, distance),
            runtime_norm,
            miss_norm: 0.5,
            pollution: 0,
            partial_hits: 0,
            hw_prefetches: 0,
            helper_waits: 0,
            helper_jumps: 0,
        }
    }

    fn rp_rows(runtimes: &[f64]) -> Vec<SpRow> {
        let rps = ["0.25", "0.50", "0.75", "1.00"];
        let rows = rps.into_iter().zip(runtimes);
        rows.map(|(rp, &runtime)| sp_row(rp, ABLATION_DISTANCE, runtime))
            .collect()
    }

    #[test]
    fn check_rp_needs_rp_1_slowest_and_rp_half_fastest() {
        assert_eq!(check_rp(&rp_rows(&[0.752, 0.590, 0.751, 1.000])), Ok(()));
        assert!(check_rp(&rp_rows(&[0.752, 0.590, 1.100, 1.000])).is_err());
        assert!(check_rp(&rp_rows(&[0.580, 0.590, 0.751, 1.000])).is_err());
        assert!(check_rp(&rp_rows(&[0.752, 0.590, 0.751])).is_err());
    }

    fn hw_row(orig: u32, helper: Option<u32>) -> HwPrefetcherRow {
        HwPrefetcherRow {
            benchmark: "EM3D",
            sa_orig: Some((orig, 712)),
            sa_helper: helper.map(|h| (h, 712)),
            sp: [sp_row("hw on", 20, 0.590), sp_row("hw off", 20, 0.563)],
        }
    }

    #[test]
    fn check_hw_prefetchers_bounds_the_helper_sa_shift_by_the_distance() {
        let measured = [hw_row(136, Some(130)), hw_row(2627, Some(2627))];
        assert_eq!(check_hw_prefetchers(&measured), Ok(()));
        assert!(check_hw_prefetchers(&[hw_row(136, Some(137))]).is_err());
        assert!(check_hw_prefetchers(&[hw_row(136, Some(68))]).is_err());
        assert!(check_hw_prefetchers(&[hw_row(136, None)]).is_err());
    }

    fn replacement_rows(runtimes: [(f64, f64); 4]) -> Vec<SpRow> {
        let policies = ["lru", "fifo", "random", "plru"];
        let rows = policies.into_iter().zip(runtimes);
        rows.flat_map(|(policy, (near, far))| {
            [
                sp_row(policy, ABLATION_DISTANCE, near),
                sp_row(policy, ABLATION_FAR_DISTANCE, far),
            ]
        })
        .collect()
    }

    #[test]
    fn check_replacement_needs_recency_knees_kept_and_random_blurred() {
        let lru = (0.590, 1.027);
        let measured = [lru, (0.600, 1.024), (0.637, 0.997), (0.591, 1.022)];
        assert_eq!(check_replacement(&replacement_rows(measured)), Ok(()));
        // Random replacement evicting like LRU keeps the full knee.
        let random_as_lru = [lru, (0.600, 1.024), lru, (0.591, 1.022)];
        assert!(check_replacement(&replacement_rows(random_as_lru)).is_err());
        let fifo_flat = [lru, (0.600, 0.700), (0.637, 0.997), (0.591, 1.022)];
        assert!(check_replacement(&replacement_rows(fifo_flat)).is_err());
        let no_knee = [(0.6, 0.6), (0.6, 0.6), (0.6, 0.5), (0.6, 0.6)];
        assert!(check_replacement(&replacement_rows(no_knee)).is_err());
    }

    fn sampling_rows(short: Option<(u32, u32)>, full: Option<(u32, u32)>) -> Vec<SamplingRow> {
        [
            (Some(64), short),
            (Some(256), Some((120, 256))),
            (None, full),
        ]
        .into_iter()
        .map(|(burst, sa)| SamplingRow {
            burst,
            duty: 0.5,
            recorded_iters: 2048,
            sa,
            bound: None,
        })
        .collect()
    }

    #[test]
    fn check_sampling_needs_bursts_below_min_sa_to_see_no_overflow() {
        let full = Some((136, 712));
        assert_eq!(check_sampling(&sampling_rows(None, full)), Ok(()));
        assert!(check_sampling(&sampling_rows(Some((60, 64)), full)).is_err());
        assert!(check_sampling(&sampling_rows(None, None)).is_err());
    }

    fn helper_rows(blocking: [f64; 2], idealized: [f64; 2]) -> Vec<SpRow> {
        let models = [("blocking", blocking), ("idealized", idealized)];
        let rows = models
            .into_iter()
            .flat_map(|(model, [near, far])| [sp_row(model, 33, near), sp_row(model, 268, far)]);
        rows.collect()
    }

    #[test]
    fn check_helper_model_needs_equal_models_that_both_degrade() {
        let measured = helper_rows([0.590, 1.008], [0.589, 0.997]);
        assert_eq!(check_helper_model(&measured), Ok(()));
        assert!(check_helper_model(&helper_rows([0.590, 1.008], [0.589, 0.900])).is_err());
        assert!(check_helper_model(&helper_rows([0.560, 1.008], [0.589, 0.997])).is_err());
        assert!(check_helper_model(&helper_rows([0.6, 0.6], [0.6, 0.6])).is_err());
    }

    fn adaptive_rows(dynamic: (f64, &[u32]), clamped: (f64, &[u32])) -> Vec<AdaptiveRow> {
        let policies = [
            ("static", (0.590, &[33][..])),
            ("dynamic", dynamic),
            ("dynamic+bound", clamped),
        ];
        let rows = policies
            .into_iter()
            .map(|(policy, (runtime_norm, d))| AdaptiveRow {
                policy,
                runtime_norm,
                distances: d.to_vec(),
            });
        rows.collect()
    }

    #[test]
    fn check_adaptive_needs_the_walk_to_the_bound_and_a_recovering_clamp() {
        let walk: &[u32] = &[536, 268, 134, 268, 134, 67];
        let measured = adaptive_rows((0.718, walk), (0.623, &[67, 67]));
        assert_eq!(check_adaptive(&measured, 67), Ok(()));
        // A clamp that does not clamp runs exactly like the free controller.
        assert!(check_adaptive(&adaptive_rows((0.718, walk), (0.718, walk)), 67).is_err());
        // Clamped, but recovering only a fifth of the loss.
        assert!(check_adaptive(&adaptive_rows((0.718, walk), (0.692, &[67])), 67).is_err());
        assert!(check_adaptive(&adaptive_rows((0.718, &[536, 134]), (0.623, &[67])), 67).is_err());
        assert!(check_adaptive(&adaptive_rows((0.580, walk), (0.575, &[67])), 67).is_err());
    }
}
