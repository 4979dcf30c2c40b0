//! Chrome trace-event export, end to end: run a real (tiny) traced
//! sweep, export the recorded spans with `sp_obs::chrome::trace_json`,
//! and validate the document against the trace-event schema with the
//! workspace's own JSON parser — the same check Perfetto's importer
//! effectively performs.
//!
//! One `#[test]` on purpose: recording and the collector are
//! process-global, so concurrent tests in this binary would steal each
//! other's spans.

use sp_cachesim::{CacheConfig, NullSink};
use sp_core::{compile_trace, sweep, EngineOptions};
use sp_serve::Json;
use sp_workloads::{Benchmark, Workload};
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn export_is_valid_trace_event_json_with_correlated_pipeline() {
    // Record the full pipeline the way `spt trace` does: load, compile,
    // sweep (simulate + fold per point), all under one correlation root.
    sp_obs::span::start_recording();
    let corr = sp_obs::CorrId::next_root();
    let cfg = CacheConfig::scaled_default();
    {
        let _cg = sp_obs::corr::set_current(corr);
        let trace = {
            let _sp = sp_obs::span!("load");
            Workload::tiny(Benchmark::Em3d).trace()
        };
        let ct = Arc::new(compile_trace(&trace, &cfg));
        let opts = EngineOptions::default();
        sweep(&ct, cfg, 0.5, &[2, 8], opts, 2, || NullSink, |_| ());
    }
    let spans = sp_obs::span::drain();
    sp_obs::span::stop_recording();

    let doc = sp_obs::chrome::trace_json(&spans);
    let v = Json::parse(&doc).expect("export parses as JSON");

    assert_eq!(
        v.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms"),
        "{doc}"
    );
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert_eq!(events.len(), spans.len(), "one event per span");

    // Every event is a complete event with the mandatory fields, and
    // every instrumented span carries the sweep's correlation root.
    let mut id_to_name: HashMap<String, String> = HashMap::new();
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"), "{e:?}");
        assert_eq!(e.get("cat").and_then(Json::as_str), Some("sp"), "{e:?}");
        assert_eq!(e.get("pid").and_then(Json::as_u64), Some(1), "{e:?}");
        assert!(e.get("tid").and_then(Json::as_u64).is_some(), "{e:?}");
        assert!(e.get("ts").and_then(Json::as_u64).is_some(), "{e:?}");
        assert!(e.get("dur").and_then(Json::as_u64).is_some(), "{e:?}");
        let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
        let args = e.get("args").expect("args object");
        // Every pipeline stage carries the sweep's correlation root (the
        // runner's generic "job" grouping span predates the per-point ID
        // and legitimately has none).
        let root = args.get("corr_root").and_then(Json::as_str);
        if let Some(root) = root {
            assert_eq!(root, corr.root_tag(), "{name}: foreign root: {e:?}");
        }
        if ["load", "compile", "sweep", "point", "simulate", "fold"].contains(&name.as_str()) {
            assert!(root.is_some(), "{name}: missing correlation root: {e:?}");
        }
        let span = args.get("span").and_then(Json::as_str).unwrap();
        id_to_name.insert(span.to_string(), name);
    }

    // The whole pipeline is present…
    let names: Vec<&str> = id_to_name.values().map(String::as_str).collect();
    for stage in ["load", "compile", "sweep", "point", "simulate", "fold"] {
        assert!(names.contains(&stage), "missing {stage}: {names:?}");
    }
    // …and nested: every fold hangs off a simulate span.
    let folds = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("fold"));
    for e in folds {
        let parent = e
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(Json::as_str)
            .expect("fold has a parent");
        assert_eq!(
            id_to_name.get(parent).map(String::as_str),
            Some("simulate"),
            "{e:?}"
        );
    }
}
