//! # sp-bench
//!
//! Experiment drivers shared by the Criterion benches and the
//! `reproduce` binary. One module per paper artifact:
//!
//! * `reproduce table1` — the hardware configuration (simulated).
//! * [`experiments::table2`] — benchmark characteristics: outer-hot-loop
//!   iterations and the Set Affinity range `SA(L, Sx)` per application.
//! * [`experiments::fig2`] — EM3D: normalized hot misses / memory
//!   accesses / runtime vs. prefetch distance.
//! * [`experiments::fig_behavior`] — Figures 4–6: per-benchmark access
//!   behaviour change and normalized runtime vs. prefetch distance.
//!
//! Every driver is deterministic; the `reproduce` binary prints aligned
//! text tables and writes CSV files under `results/`.

pub mod experiments;
pub mod harness;
pub mod plot;
pub mod report;

pub use experiments::{
    distances_for, distances_for_kernel, fig2, fig2_at, fig5_epoch_fixture, fig_behavior,
    fig_behavior_at, kernel_row, table2, table2_at, table2_row, BehaviorSeries, Scale, Table2Row,
    DISTANCES_EM3D, DISTANCES_LDS, DISTANCES_MCF, DISTANCES_MST, FIG5_EPOCH_L2_KB,
    FIG5_EPOCH_L2_WAYS, FIG5_EPOCH_LEN,
};
pub use plot::{line_chart, save_svg, ChartConfig, Series};
pub use report::{
    csv_string, epoch_ndjson, epoch_report_markdown, paper_sa_range, render_runner_summary,
    render_table, sparkline, sweep_rows, table2_rows, write_atomic, write_csv, EpochReportMeta,
    SWEEP_HEADER, TABLE2_HEADER,
};
