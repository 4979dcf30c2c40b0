//! Span-tree determinism across `--jobs` widths: the same sweep run
//! serially and on four workers must record the same tree — same span
//! names, same nesting, same per-point correlation sub-indices — with
//! only the volatile parts (span IDs, timestamps, thread IDs, which
//! worker ran which point) differing.
//!
//! One `#[test]` on purpose: recording and the collector are
//! process-global, so concurrent tests in this binary would steal each
//! other's spans.

use sp_cachesim::{CacheConfig, NullSink};
use sp_core::{compile_trace, sweep, EngineOptions};
use sp_trace::CompiledTrace;
use sp_workloads::{Benchmark, Workload};
use std::collections::HashMap;
use std::sync::Arc;

/// The normalized span tree: one `(name, corr_sub, parent_name)` row
/// per span, sorted. Span IDs are process-global and timestamps are
/// wall-clock, so identity is by name; the parent of a "job" span is
/// normalized away because it is the one structural difference between
/// widths (serial jobs nest under the sweep span, parallel jobs are
/// worker-thread roots).
fn tree(ct: &Arc<CompiledTrace>, cfg: CacheConfig, jobs: usize) -> Vec<(String, u32, String)> {
    sp_obs::span::start_recording();
    let corr = sp_obs::CorrId::next_root();
    {
        let _cg = sp_obs::corr::set_current(corr);
        let opts = EngineOptions::default();
        sweep(ct, cfg, 0.5, &[2, 8, 32], opts, jobs, || NullSink, |_| ());
    }
    let spans = sp_obs::span::drain();
    sp_obs::span::stop_recording();

    let names: HashMap<u64, &'static str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let mut rows: Vec<(String, u32, String)> = spans
        .iter()
        .map(|s| {
            let parent = if s.name == "job" {
                "-"
            } else {
                names.get(&s.parent).copied().unwrap_or("-")
            };
            (
                s.name.to_string(),
                s.corr.map(|c| c.sub()).unwrap_or(0),
                parent.to_string(),
            )
        })
        .collect();
    rows.sort();
    rows
}

#[test]
fn span_tree_is_identical_across_jobs_widths() {
    let cfg = CacheConfig::scaled_default();
    let trace = Workload::tiny(Benchmark::Em3d).trace();
    let ct = Arc::new(compile_trace(&trace, &cfg));

    let serial = tree(&ct, cfg, 1);
    let parallel = tree(&ct, cfg, 4);
    assert_eq!(serial, parallel, "span tree depends on --jobs width");

    // Shape checks on the tree itself: one sweep span, a baseline plus
    // one point per distance (correlation children 1..=4), and every
    // point's simulate nested under it.
    let count = |name: &str| serial.iter().filter(|(n, _, _)| n == name).count();
    assert_eq!(count("sweep"), 1, "{serial:?}");
    assert_eq!(count("point"), 4, "baseline + 3 distances: {serial:?}");
    assert_eq!(count("simulate"), 4, "{serial:?}");
    let subs: Vec<u32> = serial
        .iter()
        .filter(|(n, _, _)| n == "point")
        .map(|&(_, sub, _)| sub)
        .collect();
    assert_eq!(subs, vec![1, 2, 3, 4], "deterministic corr sub-indices");
    assert!(
        serial
            .iter()
            .filter(|(n, _, _)| n == "simulate")
            .all(|(_, _, p)| p == "point"),
        "{serial:?}"
    );
}
