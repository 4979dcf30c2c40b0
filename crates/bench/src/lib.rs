//! # sp-bench
//!
//! Experiment drivers behind the `reproduce` binary, plus the text,
//! CSV and SVG reporting it and `spt` share. One driver per paper
//! artifact:
//!
//! * `reproduce table1` — the hardware configuration (simulated).
//! * [`experiments::table2`] — benchmark characteristics: outer-hot-loop
//!   iterations and the Set Affinity range `SA(L, Sx)` per application.
//! * [`experiments::fig_behavior`] — Figures 4–6: per-benchmark access
//!   behaviour change and normalized runtime vs. prefetch distance. Its
//!   EM3D sweep is also Figure 2 (normalized hot misses / memory
//!   accesses / runtime), so `reproduce all` simulates it once.
//! * `experiments::ablation_*` — the six ablations, each with a
//!   `check_*` function that is the finding EXPERIMENTS.md states.
//!
//! Every driver is deterministic; the `reproduce` binary prints aligned
//! text tables and writes CSV files under `results/`.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod plot;
pub mod report;

pub use experiments::{
    distances_for, distances_for_kernel, fig5_epoch_fixture, fig_behavior, kernel_row, table2,
    BehaviorSeries, Scale, Table2Row, DISTANCES_EM3D, DISTANCES_LDS, DISTANCES_MCF, DISTANCES_MST,
    FIG5_EPOCH_L2_KB, FIG5_EPOCH_L2_WAYS, FIG5_EPOCH_LEN,
};
pub use plot::{line_chart, save_svg, ChartConfig, Series};
pub use report::{
    csv_string, epoch_ndjson, epoch_report_markdown, paper_sa_range, render_runner_summary,
    render_table, sparkline, sweep_rows, table2_rows, write_atomic, write_csv, CsvRow,
    EpochReportMeta, SWEEP_HEADER, TABLE2_HEADER,
};
