//! # sp-core
//!
//! The paper's contribution: **Skip helper-threaded Prefetching (SP)**
//! with a **Set-Affinity-bounded prefetch distance**.
//!
//! * [`params`] — `A_SKI` (prefetch distance), `A_PRE` (degree), and
//!   `RP = A_PRE / (A_SKI + A_PRE)` (ratio).
//! * [`calr`] — CALR profiling and the paper's RP-selection rule.
//! * [`skip`] — the SP transformation: which outer iterations the helper
//!   skips vs. pre-executes, and which loads become prefetches.
//! * [`engine`] — [`run`]: two-core co-simulation of main + helper on
//!   the shared memory system from `sp-cachesim` (no helper = the
//!   original program).
//! * [`affinity`] — the Fig. 3 Set Affinity algorithm, Definitions 1–3,
//!   and the `distance < min SA / 2` bound.
//! * [`pollution`] — the paper's behaviour-change metric and pollution
//!   summaries.
//! * [`distance`] — [`sweep`]: the harness behind Figures 2 and 4–6, and
//!   the bound-driven distance controller.
//!
//! ## Quick start
//!
//! ```
//! use sp_core::prelude::*;
//! use sp_cachesim::CacheConfig;
//! use sp_workloads::{Benchmark, Workload};
//!
//! // Build a (tiny) EM3D instance and profile its hot loop.
//! let w = Workload::tiny(Benchmark::Em3d);
//! let trace = w.trace();
//! let cfg = CacheConfig::scaled_default();
//!
//! // The paper's pipeline: Set Affinity -> distance bound -> SP run.
//! let rec = recommend_distance(&trace, &cfg);
//! let d = controlled_distance(64, &rec); // clamp a requested distance
//! let mut params = SpParams::from_distance_rp(d, 0.5);
//! let ct = compile_trace(&trace, &cfg);
//! let opts = EngineOptions::default();
//! let baseline = run(&ct, cfg, None, opts, &mut NullSink);
//! let sp = run(&ct, cfg, Some(&mut params), opts, &mut NullSink);
//! assert!(sp.stats.prefetches_issued[0] > 0);
//! assert_eq!(baseline.outer_iters, sp.outer_iters);
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod affinity;
pub mod calr;
pub mod distance;
pub mod engine;
pub mod params;
pub mod pollution;
pub mod skip;

pub use adaptive::{
    AdaptivePolicy, AdaptiveSchedule, EpochFeedback, EpochRecord, FeedbackController,
};
pub use affinity::{
    helper_set_affinity, original_set_affinity, sampled_set_affinity, SetAffinityAnalyzer,
    SetAffinityReport,
};
pub use calr::{estimate_calr, select_params, select_rp, CalrProfile};
pub use distance::{
    controlled_distance, recommend_distance, sweep, DistanceRecommendation, PerPoint, Sweep,
    SweepPoint,
};
pub use distance::{sweep_compiled_jobs_with, sweep_epochs_compiled_jobs_with};
pub use engine::{compile_trace, run, EngineOptions, HelperSchedule, RunResult};
pub use engine::{run_original_passes_compiled_ev, run_sp_with_compiled_ev};
pub use params::{ParamsError, SpParams};
pub use pollution::{BehaviorChange, PollutionSummary};
pub use skip::{helper_refs, plan, summarize, HelperStep, PlanSummary};

/// The deterministic fan-out executor the sweep harness runs on,
/// re-exported so downstream drivers can submit their own job grids.
pub use sp_runner as runner;
pub use sp_runner::{
    map_jobs, resolve_jobs, run_jobs, JobMetric, RunnerReport, SubmitError, WorkerPool, WorkerStat,
};

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::affinity::{helper_set_affinity, original_set_affinity, SetAffinityReport};
    pub use crate::calr::{estimate_calr, select_rp};
    pub use crate::distance::{
        controlled_distance, recommend_distance, sweep, DistanceRecommendation,
    };
    pub use crate::engine::{compile_trace, run, EngineOptions, RunResult};
    pub use crate::params::SpParams;
    pub use crate::pollution::{BehaviorChange, PollutionSummary};
    pub use sp_cachesim::NullSink;
}
