//! # sp-prefetch
//!
//! Umbrella crate for the reproduction of *"Reducing Cache Pollution of
//! Threaded Prefetching by Controlling Prefetch Distance"* (IPDPSW 2012).
//!
//! This crate re-exports the public API of the workspace members so that
//! examples and downstream users need a single dependency:
//!
//! * [`cachesim`] — CMP memory-hierarchy simulator (private L1s, shared L2,
//!   MSHRs, hardware prefetchers, bus contention).
//! * [`trace`] — memory-reference stream representation and synthetic
//!   stream generators.
//! * [`workloads`] — EM3D, MCF, and MST kernels (the paper's benchmarks).
//! * [`profiler`] — interval-based burst sampling and phase detection.
//! * [`core`] — the paper's contribution: Skip helper-threaded Prefetching
//!   (SP), Set Affinity analysis, and prefetch-distance control.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! per-figure reproduction record.

#![forbid(unsafe_code)]

pub use sp_cachesim as cachesim;
pub use sp_core as core;
pub use sp_obs as obs;
pub use sp_profiler as profiler;
pub use sp_trace as trace;
pub use sp_workloads as workloads;
