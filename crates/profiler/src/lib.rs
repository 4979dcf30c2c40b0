//! # sp-profiler
//!
//! The paper's profiling methodology (§IV.C), reimplemented over traces:
//!
//! 1. **Interval-based burst sampling** ([`sampling`]): record short
//!    bursts of the reference stream at regular intervals instead of the
//!    whole stream ("low-overhead profile run").
//! 2. **Delinquent-load ranking** ([`delinquent`]): which static sites
//!    cause the L2 misses — the loads the helper thread should cover
//!    (paper §II.A; the original SP work selects hot loops by their L2
//!    miss profile, collected with VTune).
//! 3. **Benchmark selection** ([`selection`]): screen candidate
//!    applications by L2-miss cycle share (paper §IV.B).
//!
//! The Set Affinity analysis itself lives in `sp-core::affinity`; it
//! accepts either the full stream or the sampled bursts produced here.

#![forbid(unsafe_code)]

pub mod delinquent;
pub mod reuse;
pub mod sampling;
pub mod selection;

pub use delinquent::{rank_delinquent_loads, SiteMissStats};
pub use reuse::{reuse_histogram, ReuseHistogram};
pub use sampling::{Burst, BurstSampler};
pub use selection::{miss_cycle_profile, select_benchmarks, MissCycleProfile, SelectionRow};
