//! Drivers for every table and figure of the paper.
//!
//! Every driver has a `*_jobs` (or `*_at`) form that fans its
//! independent simulations out on the `sp_runner` executor and returns
//! the executor's timing report alongside the artifact; the plain forms
//! are serial (`jobs = 1`) wrappers kept for callers that don't care.

use sp_cachesim::{CacheConfig, HwBackend};
use sp_core::prelude::*;
use sp_core::{estimate_calr, map_jobs, run_jobs, sampled_set_affinity, RunnerReport, Sweep};
use sp_profiler::{select_benchmarks, BurstSampler, SelectionRow};
use sp_workloads::{Benchmark, Candidate, KernelKind, ScaleTier, Workload, WorkloadBuilder};

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

/// Regenerate Table 2 on the given cache configuration.
pub fn table2(cfg: &CacheConfig) -> Vec<Table2Row> {
    table2_at(cfg, Scale::Scaled, 1).0
}

/// One benchmark's Table 2 row: the full profile → Set Affinity →
/// distance-bound pipeline. Shared by [`table2_at`] (which fans the
/// three benchmarks out) and the sp-serve `affinity` request handler.
pub fn table2_row(cfg: &CacheConfig, scale: Scale, b: Benchmark) -> Table2Row {
    kernel_row(cfg, scale, KernelKind::from_benchmark(b))
}

/// [`table2_row`] generalized over every workload-builder kernel: the
/// same profile pipeline applies unchanged to the extension kernels,
/// so the sp-serve `affinity` handler and the LDS drivers reuse it.
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
    let calr = estimate_calr(&trace, cfg.l1, cfg.l2, cfg.policy, cfg.latency).calr;
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

/// [`table2`] at an explicit scale, one fan-out job per benchmark.
pub fn table2_at(cfg: &CacheConfig, scale: Scale, jobs: usize) -> (Vec<Table2Row>, RunnerReport) {
    map_jobs(Benchmark::ALL.to_vec(), |b| table2_row(cfg, scale, b), jobs)
}

/// One row of the **paper-scale** Table 2: Set Affinity measured on the
/// real Core 2 geometry (4MB 16-way L2) with the paper's input sizes,
/// via the streaming reference iterators (the traces would not fit in
/// memory materialized). Comparable 1:1 with the paper's SA column.
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
/// is O(n^2) iterations); pass 10_000 for the paper's input.
pub fn table2_paper(mst_nodes: usize) -> Vec<Table2PaperRow> {
    table2_paper_jobs(mst_nodes, 1).0
}

/// [`table2_paper`] with the three benchmark streams fanned out as
/// independent jobs — each builds its own layout and streams its own
/// references, so the minute-long analysis parallelizes cleanly.
pub fn table2_paper_jobs(mst_nodes: usize, jobs: usize) -> (Vec<Table2PaperRow>, RunnerReport) {
    use sp_core::runner::Job;
    use sp_core::set_affinity_stream;
    use sp_workloads::{Em3d, Em3dConfig, Mcf, McfConfig, Mst, MstConfig};
    let l2 = CacheConfig::core2_q6600().l2;

    let grid: Vec<Job<'static, Table2PaperRow>> = vec![
        Box::new(move || {
            let em3d = Em3d::build(Em3dConfig::paper());
            let r = set_affinity_stream(em3d.ref_iter().map(|(i, m)| (i, m.vaddr)), l2);
            Table2PaperRow {
                benchmark: "EM3D",
                input: format!(
                    "{} nodes, arity {}",
                    em3d.config().nodes,
                    em3d.config().degree
                ),
                sa_range: r.range(),
                distance_bound: r.distance_bound(),
                paper_range: "[40, 360]",
                paper_bound: "< 20",
            }
        }),
        Box::new(move || {
            let mcf = Mcf::build(McfConfig::paper());
            let r = set_affinity_stream(mcf.ref_iter().map(|(i, m)| (i, m.vaddr)), l2);
            Table2PaperRow {
                benchmark: "MCF",
                input: format!("{} arcs, {} nodes", mcf.config().arcs, mcf.config().nodes),
                sa_range: r.range(),
                distance_bound: r.distance_bound(),
                paper_range: "[3000, 46000]",
                paper_bound: "< 1500",
            }
        }),
        Box::new(move || {
            let mst = Mst::build(MstConfig {
                nodes: mst_nodes,
                ..MstConfig::paper()
            });
            let r = set_affinity_stream(mst.ref_iter().map(|(i, m)| (i, m.vaddr)), l2);
            Table2PaperRow {
                benchmark: "MST",
                input: format!("{} nodes", mst.config().nodes),
                sa_range: r.range(),
                distance_bound: r.distance_bound(),
                paper_range: "[6300, 10000]",
                paper_bound: "< 3150",
            }
        }),
    ];
    run_jobs(grid, jobs)
}

/// The L2-miss cycle share above which a candidate is "memory intensive"
/// (paper §IV.B keeps applications with a "significant number of cycles
/// attributed to the L2 cache misses").
pub const SELECTION_THRESHOLD: f64 = 0.3;

/// The paper's benchmark-selection screen (§IV.B) over the candidate
/// pool: the three selected applications plus screened-out contrasts.
pub fn selection(cfg: &CacheConfig) -> Vec<SelectionRow> {
    selection_jobs(cfg, 1).0
}

/// [`selection`] with the candidate traces built in parallel (the
/// expensive part; the screen itself is a cheap pass over the traces).
pub fn selection_jobs(cfg: &CacheConfig, jobs: usize) -> (Vec<SelectionRow>, RunnerReport) {
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

/// Figure 2: EM3D's normalized hot-loop L2 misses, memory accesses, and
/// runtime over the distance grid.
pub fn fig2(cfg: CacheConfig) -> Sweep {
    fig2_at(cfg, Scale::Scaled, 1).0
}

/// [`fig2`] at an explicit scale, one fan-out job per grid point.
pub fn fig2_at(cfg: CacheConfig, scale: Scale, jobs: usize) -> (Sweep, RunnerReport) {
    let w = scale.workload(Benchmark::Em3d);
    sweep_distances_jobs(&w.trace(), cfg, 0.5, distances_for(Benchmark::Em3d), jobs)
}

/// [`fig2_at`] with the epoch flight recorder attached at the default
/// window length ([`sp_cachesim::DEFAULT_EPOCH_LEN`]). The
/// `epoch_overhead` bench suite times this against `fig2_em3d_sweep`
/// to pin the enabled-recorder cost; the recorder-disabled path is
/// compiled out entirely and gated by the other suites.
#[allow(clippy::type_complexity)]
pub fn fig2_epochs_at(
    cfg: CacheConfig,
    scale: Scale,
    jobs: usize,
) -> (Sweep, sp_core::SweepEpochs, RunnerReport) {
    let w = scale.workload(Benchmark::Em3d);
    let ct = std::sync::Arc::new(sp_core::compile_trace(&w.trace(), &cfg));
    sp_core::sweep_epochs_compiled_jobs_with(
        &ct,
        cfg,
        0.5,
        distances_for(Benchmark::Em3d),
        sp_core::EngineOptions::default(),
        sp_cachesim::DEFAULT_EPOCH_LEN,
        jobs,
    )
    .expect("compiled against this geometry")
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
#[allow(clippy::type_complexity)]
pub fn fig5_epoch_fixture(jobs: usize) -> (Sweep, sp_core::SweepEpochs, Option<u32>, RunnerReport) {
    let mut cfg = CacheConfig::scaled_default();
    cfg.l2 = sp_cachesim::CacheGeometry::new(
        FIG5_EPOCH_L2_KB * 1024,
        FIG5_EPOCH_L2_WAYS,
        cfg.l2.line_size,
    );
    cfg.validate();
    let trace = Scale::Test.workload(Benchmark::Mcf).trace();
    let bound = recommend_distance(&trace, &cfg).max_distance;
    let ct = std::sync::Arc::new(sp_core::compile_trace(&trace, &cfg));
    let (sweep, epochs, report) = sp_core::sweep_epochs_compiled_jobs_with(
        &ct,
        cfg,
        0.5,
        distances_for(Benchmark::Mcf),
        sp_core::EngineOptions::default(),
        FIG5_EPOCH_LEN,
        jobs,
    )
    .expect("compiled against this geometry");
    (sweep, epochs, bound, report)
}

/// The LDS extension sweep: the hash-join probe kernel on the
/// pointer-chase backend over the LDS grid — the benchmark suite's
/// pinned sample of the workload-builder and backend paths (the other
/// kernels and backends are covered by the CI smoke matrix).
pub fn lds_sweep_at(cfg: CacheConfig, scale: Scale, jobs: usize) -> (Sweep, RunnerReport) {
    let cfg = cfg.with_hw_backend(HwBackend::PointerChase);
    let trace = WorkloadBuilder::new(KernelKind::HashJoin)
        .tier(scale.tier())
        .trace();
    sweep_distances_jobs(
        &trace,
        cfg,
        0.5,
        distances_for_kernel(KernelKind::HashJoin),
        jobs,
    )
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

/// Figures 4, 5, 6: full behaviour sweep for `b` (RP = 0.5, §V.B).
pub fn fig_behavior(b: Benchmark, cfg: CacheConfig) -> BehaviorSeries {
    fig_behavior_at(b, cfg, Scale::Scaled, 1).0
}

/// [`fig_behavior`] at an explicit scale, one fan-out job per grid point.
pub fn fig_behavior_at(
    b: Benchmark,
    cfg: CacheConfig,
    scale: Scale,
    jobs: usize,
) -> (BehaviorSeries, RunnerReport) {
    let w = scale.workload(b);
    let trace = w.trace();
    let rec = recommend_distance(&trace, &cfg);
    let (sweep, report) = sweep_distances_jobs(&trace, cfg, 0.5, distances_for(b), jobs);
    (
        BehaviorSeries {
            benchmark: b.name(),
            sweep,
            bound: rec.max_distance,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_grids_bracket_each_bound() {
        let cfg = CacheConfig::scaled_default();
        for row in table2(&cfg) {
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
        let rows = selection(&cfg);
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
        let serial = table2_at(&cfg, Scale::Test, 1).0;
        let (parallel, rep) = table2_at(&cfg, Scale::Test, 4);
        assert_eq!(parallel, serial);
        assert_eq!(rep.jobs, Benchmark::ALL.len());

        let fig_serial = fig2_at(cfg, Scale::Test, 1).0;
        let (fig_parallel, rep) = fig2_at(cfg, Scale::Test, 4);
        assert_eq!(fig_parallel, fig_serial);
        assert_eq!(rep.jobs, distances_for(Benchmark::Em3d).len() + 1);
    }

    #[test]
    fn table2_matches_paper_shape() {
        let cfg = CacheConfig::scaled_default();
        let rows = table2(&cfg);
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
}
