//! # sp-serve
//!
//! A std-only simulation service daemon: long-running TCP server that
//! accepts simulation requests — distance sweeps, single-point runs,
//! Set-Affinity/Table-2 profiles — as newline-delimited JSON, answers
//! repeats from a sharded LRU result cache, and schedules misses onto a
//! bounded [`sp_runner::WorkerPool`] with explicit backpressure (a full
//! admission queue answers `busy` instead of stalling the client).
//!
//! The pieces, bottom-up:
//!
//! * [`json`] — hand-rolled deterministic JSON (the workspace builds
//!   offline with zero external crates).
//! * [`protocol`] — request parsing, canonical cache keys, response
//!   envelopes. Keys are built from *resolved* values, so every spelling
//!   of the same request shares one cache entry.
//! * [`cache`] — the sharded LRU result cache.
//! * [`metrics`] — request/cache/queue counters and log-linear latency
//!   and stage histograms, declared once as metric families and
//!   rendered both as the `stats` reply and as the Prometheus text
//!   exposition the `metrics` request serves (with the aggregate
//!   prefetch-event and epoch totals).
//! * [`engine`] — executes commands against the sp-core simulation
//!   stack, memoizing workload traces.
//! * [`server`] — the accept loop, per-connection handlers, deadlines,
//!   and graceful drain (shutdown request, SIGINT, or SIGTERM).
//!
//! The `spt serve` and `spt loadgen` subcommands (crates/cli) are the
//! daemon's front ends; `tests/serve_smoke.rs` drives a real server over
//! loopback.
//!
//! The crate denies `unsafe` code; the one allowed item is the signal
//! handler install in [`server`].

#![deny(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use cache::{fnv1a64, ResultCache};
pub use engine::{EpochTotals, EventTotals, SimEngine};
pub use json::Json;
pub use metrics::{Metrics, StageTimes, STAGES};
pub use protocol::{error_response, ok_response, Command, Request, SimSpec};
pub use server::{Server, ServerConfig, MAX_CONNECTIONS};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Lock `m`, recovering the guard if a panicking holder poisoned it:
/// the guarded maps and counters stay valid across a panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_recovers_a_poisoned_mutex() {
        let m = Mutex::new(1);
        let _ = std::panic::catch_unwind(|| {
            let _guard = lock(&m);
            panic!("poison the lock");
        });
        assert!(m.is_poisoned());
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 2);
    }
}
