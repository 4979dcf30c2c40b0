//! Request execution: turn a parsed [`Command`] into the encoded
//! `result` payload the daemon caches and returns.
//!
//! The engine is shared by every pool worker. Each workload trace is
//! memoized per `(kernel, scale tier)` — trace synthesis is
//! deterministic, so regenerating one per request would only burn time,
//! and the handful of distinct traces is far smaller than the result
//! cache. A trace is stored once, as the columns replay reads, so a
//! request's compiled form is a shared handle to them; it carries no
//! cache geometry, so one entry serves every L2 a client asks for.

use crate::json::Json;
use crate::lock;
use crate::protocol::{scale_name, Command, SimSpec};
use sp_bench::{kernel_row, Scale};
use sp_cachesim::{
    default_early_threshold, EpochSeries, EpochSink, LifecycleCounts, NullSink, PfClass,
    PollutionCase, SummarySink, DEFAULT_EPOCH_LEN,
};
use sp_core::{compile_trace, recommend_distance, sweep, PerPoint, Sweep};
use sp_trace::HotLoopTrace;
use sp_workloads::{KernelKind, ScaleTier, WorkloadBuilder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Aggregate prefetch-lifecycle counters folded over every eventful run
/// the daemon has executed — the source behind the `sp_events_*` series
/// of the Prometheus exposition. Cache hits replay a stored payload
/// without re-simulating, so they do not re-record here: the totals
/// count simulation work actually performed, not requests answered.
#[derive(Debug, Default)]
pub struct EventTotals {
    /// Eventful runs folded in (baseline plus one per sweep point).
    pub runs: AtomicU64,
    /// Their summed lifecycle counts.
    pub counts: Mutex<LifecycleCounts>,
}

impl EventTotals {
    /// Fold one run's lifecycle counts into the totals.
    pub fn record(&self, c: &LifecycleCounts) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        *lock(&self.counts) += *c;
    }
}

/// Aggregate epoch-telemetry counters folded over every epoch-recorded
/// run — the source behind the `sp_epoch_*` families of the Prometheus
/// exposition, which render the displacement cases and the timeliness
/// split. Epoch requests bypass the result cache, so every one of them
/// records here.
#[derive(Debug, Default)]
pub struct EpochTotals {
    /// Epoch-recorded runs folded in (baseline plus one per point).
    pub runs: AtomicU64,
    /// Epoch windows recorded across those runs.
    pub windows: AtomicU64,
    /// Main-thread references covered by those windows.
    pub refs: AtomicU64,
    /// The runs' summed lifecycle counts.
    pub counts: Mutex<LifecycleCounts>,
}

impl EpochTotals {
    /// Fold one run's epoch series into the totals.
    pub fn record(&self, s: &EpochSeries) {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.windows.fetch_add(s.len() as u64, Ordering::Relaxed);
        let t = s.totals();
        self.refs.fetch_add(t.refs, Ordering::Relaxed);
        *lock(&self.counts) += t.counts;
    }
}

/// The daemon's simulation executor: a workload memo plus the encoding
/// of each result kind. Stateless apart from the memo and the event
/// totals, so any number of pool workers can execute through one shared
/// instance.
#[derive(Default)]
pub struct SimEngine {
    memo: Mutex<HashMap<(KernelKind, ScaleTier), Arc<HotLoopTrace>>>,
    events: EventTotals,
    epochs: EpochTotals,
}

impl SimEngine {
    /// A fresh engine with an empty trace memo.
    pub fn new() -> SimEngine {
        SimEngine::default()
    }

    /// The aggregate event counters (for the Prometheus exposition).
    pub fn event_totals(&self) -> &EventTotals {
        &self.events
    }

    /// The aggregate epoch counters (for the Prometheus exposition).
    pub fn epoch_totals(&self) -> &EpochTotals {
        &self.epochs
    }

    /// The trace of `bench` at `scale`, built on first use and shared by
    /// every later request.
    fn workload(&self, bench: KernelKind, scale: Scale) -> Arc<HotLoopTrace> {
        let key = (bench, scale.tier());
        if let Some(memoized) = lock(&self.memo).get(&key) {
            return memoized.clone();
        }
        // Build outside the lock — scaled traces take a while, and a
        // second thread racing to the same key just recomputes the
        // identical (deterministic) trace.
        let t = {
            let _sp = sp_obs::span!("load", bench = bench.name(), scale = format!("{scale:?}"));
            WorkloadBuilder::new(bench).tier(key.1).trace()
        };
        lock(&self.memo)
            .entry(key)
            .or_insert_with(|| Arc::new(t))
            .clone()
    }

    /// Execute one command, returning the encoded `result` JSON.
    ///
    /// `ping`/`stats`/`shutdown` never reach the engine — the server
    /// answers them inline — so they are an error here.
    pub fn execute(&self, cmd: &Command) -> Result<String, String> {
        match cmd {
            Command::Sweep { spec, distances } => Ok(self.run_sweep(spec, distances)),
            Command::Point { spec, distance } => Ok(self.run_sweep(spec, &[*distance])),
            Command::Affinity {
                bench,
                scale,
                cache,
            } => Ok(affinity_json(&kernel_row(&cache.config, *scale, *bench)).encode()),
            Command::Burn { ms } => {
                // Occupy this worker for a fixed wall-clock interval —
                // the load generator's tool for exercising backpressure.
                let start = Instant::now();
                while start.elapsed() < Duration::from_millis(*ms) {
                    std::hint::spin_loop();
                }
                Ok(format!("{{\"burned_ms\":{ms}}}"))
            }
            Command::Ping | Command::Stats | Command::Metrics | Command::Shutdown => {
                Err("command is handled by the server, not the engine".into())
            }
        }
    }

    fn run_sweep(&self, spec: &SimSpec, distances: &[u32]) -> String {
        let trace = self.workload(spec.bench, spec.scale);
        let bound = recommend_distance(&trace, &spec.cache.config).max_distance;
        // Requests parallelize across the pool, not within a job
        // (jobs = 1).
        let (cfg, rp, opts) = (spec.cache.config, spec.rp, spec.opts);
        let compiled = Arc::new(compile_trace(&trace, &cfg));
        let threshold = default_early_threshold(&cfg.latency);
        let (swept, events, epochs) = if spec.epochs {
            let new_sink = move || EpochSink::new(DEFAULT_EPOCH_LEN, threshold);
            let (swept, epochs, _) = sweep(
                &compiled,
                cfg,
                rp,
                distances,
                opts,
                1,
                new_sink,
                EpochSink::finish,
            );
            epochs.iter().for_each(|series| self.epochs.record(series));
            (swept, None, Some(epochs))
        } else if spec.events {
            let new_sink = move || SummarySink::new(threshold);
            let (swept, events, _) = sweep(&compiled, cfg, rp, distances, opts, 1, new_sink, |k| {
                k.summary.counts
            });
            events.iter().for_each(|counts| self.events.record(counts));
            (swept, Some(events), None)
        } else {
            let (swept, _, _) = sweep(&compiled, cfg, rp, distances, opts, 1, || NullSink, |_| ());
            (swept, None, None)
        };
        let _sp = sp_obs::span!("serialize");
        sweep_json(spec, bound, &swept, events.as_ref(), epochs.as_ref()).encode()
    }
}

/// Encode a sweep. Point field names mirror [`sp_bench::SWEEP_HEADER`]
/// so CSV consumers and protocol consumers read the same vocabulary.
/// With `events`, each point additionally carries its lifecycle /
/// timeliness / pollution-case summary; with `epochs`, a compact
/// columnar epoch series (both `points` vectors are index-aligned with
/// `Sweep::points`; the parser guarantees at most one is present).
fn sweep_json(
    spec: &SimSpec,
    bound: Option<u32>,
    sweep: &Sweep,
    events: Option<&PerPoint<LifecycleCounts>>,
    epochs: Option<&PerPoint<EpochSeries>>,
) -> Json {
    let points = sweep
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut point = Json::obj()
                .push("distance", Json::num(p.distance))
                .push("runtime_norm", Json::num(p.runtime_norm))
                .push("mem_accesses_norm", Json::num(p.memory_accesses_norm))
                .push("hot_misses_norm", Json::num(p.hot_misses_norm))
                .push("d_totally_hit_pct", Json::num(p.behavior.totally_hit_pct))
                .push("d_totally_miss_pct", Json::num(p.behavior.totally_miss_pct))
                .push(
                    "d_partially_hit_pct",
                    Json::num(p.behavior.partially_hit_pct),
                )
                .push(
                    "pollution_events",
                    Json::num(p.pollution.stats.total() as f64),
                )
                .push(
                    "dead_prefetch_rate",
                    Json::num(p.pollution.dead_prefetch_rate),
                );
            if let Some(ev) = events {
                point = point.push("events", event_summary_json(&ev.points[i]));
            }
            if let Some(ep) = epochs {
                point = point.push("epochs", epoch_series_json(&ep.points[i]));
            }
            point
        })
        .collect();
    let mut out = Json::obj()
        .push("bench", Json::str(spec.bench.name()))
        .push("scale", Json::str(scale_name(spec.scale)))
        .push("rp", Json::num(spec.rp))
        .push("baseline_runtime", Json::num(sweep.baseline.runtime as f64))
        .push("distance_bound", opt_u32(bound))
        .push("best_distance", opt_u32(sweep.best_distance()));
    if let Some(ev) = events {
        out = out.push("baseline_events", event_summary_json(&ev.baseline));
    }
    if let Some(ep) = epochs {
        out = out.push("baseline_epochs", epoch_series_json(&ep.baseline));
    }
    out.push("points", Json::Arr(points))
}

/// Encode one run's epoch series in columnar form — one array per
/// metric, index-aligned by window — which keeps a long series compact
/// on the wire (no per-window key repetition) and trivially plottable.
fn epoch_series_json(s: &EpochSeries) -> Json {
    let col = |f: &dyn Fn(&sp_cachesim::EpochWindow) -> u64| {
        Json::Arr(s.epochs.iter().map(|w| Json::num(f(w) as f64)).collect())
    };
    Json::obj()
        .push("epoch_len", Json::num(s.epoch_len as f64))
        .push("windows", Json::num(s.len() as f64))
        .push("refs", col(&|w| w.refs))
        .push("misses", col(&|w| w.main[3]))
        .push("partial_hits", col(&|w| w.main[2]))
        .push("issued", col(&|w| w.counts.issued.iter().sum()))
        .push("first_uses", col(&|w| w.counts.first_uses.iter().sum()))
        .push("pollution", col(&|w| w.counts.total_pollution()))
        .push("late", col(&|w| w.counts.late))
        .push("on_time", col(&|w| w.counts.on_time))
        .push("early", col(&|w| w.counts.early))
        .push("l2_fills", col(&|w| w.l2_fills.iter().sum()))
        .push("mshr_peak", col(&|w| w.mshr_peak))
}

/// Encode one run's event summary: lifecycle counts by prefetch class,
/// pollution evictions by case, and the first-use timeliness split.
fn event_summary_json(s: &LifecycleCounts) -> Json {
    let by_class = |vals: &[u64; 5]| {
        let mut o = Json::obj();
        for c in PfClass::ALL {
            o = o.push(c.name(), Json::num(vals[c.index()] as f64));
        }
        o
    };
    let mut pollution = Json::obj();
    for case in PollutionCase::ALL {
        pollution = pollution.push(case.name(), Json::num(s.pollution[case.index()] as f64));
    }
    Json::obj()
        .push("issued", by_class(&s.issued))
        .push("filled", by_class(&s.filled))
        .push("first_uses", by_class(&s.first_uses))
        .push("evicted_unused", by_class(&s.evicted_unused))
        .push("pollution", pollution)
        .push(
            "timeliness",
            Json::obj()
                .push("late", Json::num(s.late as f64))
                .push("on_time", Json::num(s.on_time as f64))
                .push("early", Json::num(s.early as f64)),
        )
        .push("helper_accuracy", Json::num(s.accuracy(PfClass::Helper)))
}

fn opt_u32(v: Option<u32>) -> Json {
    v.map_or(Json::Null, Json::num)
}

fn opt_range(r: Option<(u32, u32)>) -> Json {
    r.map_or(Json::Null, |(lo, hi)| {
        Json::Arr(vec![Json::num(lo), Json::num(hi)])
    })
}

/// Encode a Table 2 profile row (field names match the struct).
fn affinity_json(row: &sp_bench::Table2Row) -> Json {
    Json::obj()
        .push("benchmark", Json::str(row.benchmark))
        .push("input", Json::str(row.input.clone()))
        .push("iterations", Json::num(row.iterations as f64))
        .push("sa_range", opt_range(row.sa_range))
        .push("sa_sampled", opt_range(row.sa_sampled))
        .push("distance_bound", opt_u32(row.distance_bound))
        .push("calr", Json::num(row.calr))
        .push("rp", Json::num(row.rp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;

    fn command(line: &str) -> Command {
        Request::parse(line).unwrap().cmd
    }

    #[test]
    fn point_results_are_deterministic_and_reuse_the_trace_memo() {
        let engine = SimEngine::new();
        let cmd = command("{\"type\":\"point\",\"bench\":\"em3d\",\"distance\":8}");
        let first = engine.execute(&cmd).unwrap();
        let second = engine.execute(&cmd).unwrap();
        assert_eq!(first, second, "same command, byte-identical payloads");
        assert_eq!(lock(&engine.memo).len(), 1, "workload memoized once");
        // Other L2s replay the same compiled trace; the 8 KB one is small
        // enough to change the tiny EM3D result.
        for l2_kb in [128, 8] {
            let other = command(&format!(
                "{{\"type\":\"point\",\"bench\":\"em3d\",\"distance\":8,\"l2_kb\":{l2_kb}}}"
            ));
            let payload = engine.execute(&other).unwrap();
            assert_eq!(payload == first, l2_kb == 128, "l2_kb {l2_kb}: {payload}");
        }
        assert_eq!(
            lock(&engine.memo).len(),
            1,
            "one compiled trace serves every L2"
        );
        let v = Json::parse(&first).unwrap();
        assert_eq!(v.get("bench").and_then(Json::as_str), Some("EM3D"));
        let points = v.get("points").and_then(Json::as_arr).unwrap();
        assert_eq!(points.len(), 1);
        assert_eq!(
            points[0].get("distance").and_then(Json::as_u64),
            Some(8),
            "payload {first}"
        );
        assert!(
            points[0]
                .get("runtime_norm")
                .and_then(Json::as_f64)
                .is_some(),
            "payload {first}"
        );
    }

    #[test]
    fn eventful_point_carries_summaries_and_feeds_the_totals() {
        let engine = SimEngine::new();
        let plain = engine
            .execute(&command(
                "{\"type\":\"point\",\"bench\":\"em3d\",\"distance\":8}",
            ))
            .unwrap();
        assert_eq!(engine.events.runs.load(Ordering::Relaxed), 0);
        let eventful = engine
            .execute(&command(
                "{\"type\":\"point\",\"bench\":\"em3d\",\"distance\":8,\"events\":true}",
            ))
            .unwrap();
        // Baseline + one point folded into the daemon totals.
        assert_eq!(engine.events.runs.load(Ordering::Relaxed), 2);
        assert!(
            lock(&engine.events.counts).issued[0] > 0,
            "helper prefetches must be issued"
        );
        let v = Json::parse(&eventful).unwrap();
        assert!(v.get("baseline_events").is_some(), "payload {eventful}");
        let points = v.get("points").and_then(Json::as_arr).unwrap();
        let ev = points[0].get("events").expect("per-point events");
        let issued = ev
            .get("issued")
            .and_then(|i| i.get("helper"))
            .and_then(Json::as_u64)
            .unwrap();
        assert!(issued > 0, "payload {eventful}");
        assert!(ev.get("timeliness").is_some(), "payload {eventful}");
        assert!(ev.get("pollution").is_some(), "payload {eventful}");
        // The plain payload stays event-free, and the headline numbers
        // agree between the two paths (the sink must not perturb them).
        let pv = Json::parse(&plain).unwrap();
        assert!(pv.get("baseline_events").is_none());
        let pp = pv.get("points").and_then(Json::as_arr).unwrap();
        assert!(pp[0].get("events").is_none());
        assert_eq!(
            pp[0].get("runtime_norm").and_then(Json::as_f64),
            points[0].get("runtime_norm").and_then(Json::as_f64),
        );
        assert_eq!(
            pp[0].get("pollution_events").and_then(Json::as_u64),
            points[0].get("pollution_events").and_then(Json::as_u64),
        );
    }

    #[test]
    fn epoch_point_carries_a_columnar_series_and_feeds_the_totals() {
        let engine = SimEngine::new();
        let plain = engine
            .execute(&command(
                "{\"type\":\"point\",\"bench\":\"em3d\",\"distance\":8}",
            ))
            .unwrap();
        assert_eq!(engine.epochs.runs.load(Ordering::Relaxed), 0);
        let recorded = engine
            .execute(&command(
                "{\"type\":\"point\",\"bench\":\"em3d\",\"distance\":8,\"epochs\":true}",
            ))
            .unwrap();
        // Baseline + one point folded into the daemon totals.
        assert_eq!(engine.epochs.runs.load(Ordering::Relaxed), 2);
        assert!(engine.epochs.windows.load(Ordering::Relaxed) >= 2);
        assert!(engine.epochs.refs.load(Ordering::Relaxed) > 0);
        let v = Json::parse(&recorded).unwrap();
        let base = v.get("baseline_epochs").expect("baseline series");
        assert_eq!(
            base.get("epoch_len").and_then(Json::as_u64),
            Some(DEFAULT_EPOCH_LEN)
        );
        let points = v.get("points").and_then(Json::as_arr).unwrap();
        let ep = points[0].get("epochs").expect("per-point series");
        let windows = ep.get("windows").and_then(Json::as_u64).unwrap();
        assert!(windows >= 1);
        // Columnar: every metric array is index-aligned by window.
        for key in [
            "refs",
            "misses",
            "partial_hits",
            "issued",
            "first_uses",
            "pollution",
            "late",
            "on_time",
            "early",
            "l2_fills",
            "mshr_peak",
        ] {
            let col = ep.get(key).and_then(Json::as_arr).unwrap_or_else(|| {
                panic!("missing column {key}: {recorded}");
            });
            assert_eq!(col.len() as u64, windows, "ragged column {key}");
        }
        // The headline numbers agree with the unrecorded path (the
        // recorder must not perturb the simulation).
        let pv = Json::parse(&plain).unwrap();
        assert!(pv.get("baseline_epochs").is_none());
        let pp = pv.get("points").and_then(Json::as_arr).unwrap();
        assert!(pp[0].get("epochs").is_none());
        assert_eq!(
            pp[0].get("runtime_norm").and_then(Json::as_f64),
            points[0].get("runtime_norm").and_then(Json::as_f64),
        );
        assert_eq!(
            pp[0].get("pollution_events").and_then(Json::as_u64),
            points[0].get("pollution_events").and_then(Json::as_u64),
        );
    }

    #[test]
    fn affinity_payload_carries_the_table2_fields() {
        let engine = SimEngine::new();
        let cmd = command("{\"type\":\"affinity\",\"bench\":\"em3d\",\"scale\":\"test\"}");
        let payload = engine.execute(&cmd).unwrap();
        let v = Json::parse(&payload).unwrap();
        assert_eq!(v.get("benchmark").and_then(Json::as_str), Some("EM3D"));
        assert!(v.get("iterations").and_then(Json::as_u64).unwrap() > 0);
        assert!(v.get("rp").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn burn_reports_its_duration_and_inline_commands_are_rejected() {
        let engine = SimEngine::new();
        let payload = engine
            .execute(&command("{\"type\":\"burn\",\"ms\":1}"))
            .unwrap();
        assert_eq!(payload, "{\"burned_ms\":1}");
        for inline in [
            "{\"type\":\"ping\"}",
            "{\"type\":\"stats\"}",
            "{\"type\":\"metrics\"}",
            "{\"type\":\"shutdown\"}",
        ] {
            assert!(engine.execute(&command(inline)).is_err());
        }
    }
}
