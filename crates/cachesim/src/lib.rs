//! # sp-cachesim
//!
//! A cycle-approximate CMP memory-hierarchy simulator: per-core private L1
//! data caches, a shared set-associative L2 (last-level) cache with MSHRs,
//! per-core hardware prefetchers (a sequential **streamer** and an
//! IP-indexed stride **DPL** prefetcher, mirroring the Core 2's), and a
//! shared memory bus with queueing contention.
//!
//! The paper ran on a real Intel Core 2 Quad (Q6600) and measured L2
//! behaviour with VTune; this crate is the substitution substrate (see
//! `DESIGN.md` §2). It reproduces the paper's observables exactly:
//!
//! * **Totally cache hit** — the demanded data is held in the L2
//!   ([`HitClass::TotalHit`]).
//! * **Partially cache hit** — the demanded data arrives in cache after
//!   its memory request was issued but before it is serviced, i.e. the
//!   access hits an in-flight MSHR fill ([`HitClass::PartialHit`]).
//! * **Totally cache miss** — the data doesn't arrive until the access's
//!   own memory request is serviced ([`HitClass::TotalMiss`]).
//! * **Memory access** — totally misses + partially hits (both leave the
//!   L2 unsatisfied at issue time).
//!
//! Pollution accounting implements the paper's three displacement cases
//! (§II.C): a prefetched block displacing (1) data later reused by the
//! main thread, (2) a not-yet-used helper-prefetched block, (3) a
//! not-yet-used hardware-prefetched block. See [`stats::PollutionStats`].
//!
//! The simulator is deterministic: identical inputs produce identical
//! counter values, which is what lets the experiment harness assert the
//! paper's figure *shapes* in tests.

#![forbid(unsafe_code)]

pub mod bus;
pub mod cache;
pub mod clock;
pub mod config;
pub mod epoch;
pub mod events;
pub mod geometry;
pub mod hierarchy;
pub mod mshr;
pub mod prefetcher;
pub mod replacement;
pub mod stats;

pub use bus::Bus;
pub use cache::SetAssocCache;
pub use clock::{Cycle, LatencyConfig};
pub use config::{CacheConfig, ConfigError, HwBackend, Inclusion};
pub use epoch::{EpochSeries, EpochSink, EpochWindow, DEFAULT_EPOCH_LEN};
pub use events::{
    default_early_threshold, Event, EventSink, EventSummary, FillOrigin, LifecycleCounts, NullSink,
    PfClass, PollutionCase, QuartileRow, RingSink, SetPressure, Snapshot, SnapshotPlan,
    SummarySink, Timeliness,
};
pub use geometry::{CacheGeometry, MAX_CACHE_BYTES, MAX_WAYS};
pub use hierarchy::{sim_build_count, AccessResult, Entity, HitClass, MemorySystem};
pub use mshr::MshrFile;
pub use replacement::Policy;
pub use stats::{MemStats, PollutionStats, SnapshotCounters, ThreadStats};
