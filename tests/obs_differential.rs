//! Observability differential, mirroring `events_differential.rs` for
//! the tracing layer: enabling the span recorder must not perturb
//! simulation results in any way (bit-exact `Sweep` equality against
//! the recording-disabled path), disabling it again must leave nothing
//! behind in the collector, and the `NullSubscriber` path must compile
//! the span layer out while still running the observed closure.
//!
//! One `#[test]` on purpose: recording and the collector are
//! process-global, so concurrent tests in this binary would steal each
//! other's spans.

use sp_cachesim::{CacheConfig, NullSink};
use sp_core::{compile_trace, sweep, EngineOptions};
use sp_obs::Subscriber;
use sp_workloads::{Benchmark, Workload};
use std::sync::Arc;

#[test]
fn recording_does_not_perturb_sweep_results() {
    let cfg = CacheConfig::scaled_default();
    let trace = Workload::tiny(Benchmark::Em3d).trace();
    let ct = Arc::new(compile_trace(&trace, &cfg));
    let ds = [2u32, 8, 32];
    let opts = EngineOptions::default();

    let plain = || sweep(&ct, cfg, 0.5, &ds, opts, 2, || NullSink, |_| ()).0;

    // Reference run: recording disabled (the default build mode).
    let off = plain();

    // Same sweep with the recorder on and a correlation ID in scope.
    sp_obs::span::start_recording();
    let corr = sp_obs::CorrId::next_root();
    let on = {
        let _cg = sp_obs::corr::set_current(corr);
        plain()
    };
    let spans = sp_obs::span::drain();
    sp_obs::span::stop_recording();

    assert_eq!(off, on, "recording spans changed the simulation");
    assert!(!spans.is_empty(), "recording captured no spans");
    assert!(
        spans.iter().any(|s| s.name == "simulate"),
        "simulate spans missing: {:?}",
        spans.iter().map(|s| s.name).collect::<Vec<_>>()
    );

    // Disabled again: identical results, and nothing reaches the
    // collector.
    let again = plain();
    assert_eq!(off, again, "post-recording run drifted");
    assert!(
        sp_obs::span::drain().is_empty(),
        "spans recorded while disabled"
    );

    // The NullSubscriber monomorphizes the span away entirely but still
    // runs the closure (same contract as `events::NullSink`).
    const _: () = assert!(!<sp_obs::NullSubscriber as Subscriber>::ENABLED);
    let out = sp_obs::span::observed(sp_obs::NullSubscriber, "noop", || 41 + 1);
    assert_eq!(out, 42);
    assert!(sp_obs::span::drain().is_empty());
}
