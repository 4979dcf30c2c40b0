//! The daemon's observability surface: the counters and histograms the
//! daemon keeps (lock-free atomics, safe to read under load), the
//! metric families declared over them, and the two renderers that turn
//! one family list into the `stats` JSON reply and the Prometheus text
//! exposition (format version 0.0.4) the `metrics` request serves.
//!
//! Each family is declared once in `daemon_families` (the loadgen
//! list lives beside `spt loadgen`), with its Prometheus name, help
//! and type, its label key, its `stats` location, and its current
//! value. A value only one surface carries is still one entry: a
//! family with no Prometheus name is `stats`-only, one with no `stats`
//! location is Prometheus-only. [`lint`] checks every declared family
//! against the exposition's naming and unit conventions.
//!
//! Latency and per-stage distributions record into the shared
//! [`sp_obs::LogLinearHist`]; the JSON `latency_us` rows and the
//! Prometheus `le` series both fold from its
//! [`LogLinearHist::nonzero_buckets`] table, so the two surfaces cannot
//! disagree on bounds or counts. Only occupied buckets emit `le`
//! series; the `+Inf` bucket always appears, so `histogram_quantile`
//! stays well-formed at zero samples.

use crate::engine::{EpochTotals, EventTotals};
use crate::json::Json;
use crate::lock;
use sp_cachesim::{PfClass, PollutionCase};
use sp_obs::LogLinearHist;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// Request kinds the per-type counters distinguish (wire `type` names).
pub const KINDS: [&str; 8] = [
    "sweep", "point", "affinity", "burn", "stats", "metrics", "ping", "shutdown",
];

/// Pipeline stages folded into the per-stage wall-time histograms — the
/// span names the request path emits (see `sp-obs` and DESIGN.md §9).
/// Spans with other names (e.g. `request`, `sweep`, `point`) are
/// covered by the latency histogram or are grouping-only and are not
/// folded.
pub const STAGES: [&str; 8] = [
    "load",
    "compile",
    "simulate",
    "fold",
    "serialize",
    "cache_lookup",
    "queue_wait",
    "execute",
];

/// Per-stage wall-time histograms, one [`LogLinearHist`] per [`STAGES`]
/// entry, recorded in microseconds (the sp-obs span clock).
#[derive(Debug)]
pub struct StageTimes {
    hists: [LogLinearHist; STAGES.len()],
}

impl Default for StageTimes {
    fn default() -> StageTimes {
        StageTimes {
            hists: std::array::from_fn(|_| LogLinearHist::default()),
        }
    }
}

impl StageTimes {
    /// Fold one span duration into its stage. Unknown stage names are
    /// ignored — the span stream also carries grouping spans.
    pub fn record_us(&self, stage: &str, micros: u64) {
        if let Some(idx) = STAGES.iter().position(|&s| s == stage) {
            self.hists[idx].record(micros);
        }
    }

    /// Iterate `(stage, histogram)` in [`STAGES`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &LogLinearHist)> {
        STAGES.iter().copied().zip(self.hists.iter())
    }
}

/// Pool, cache and clock readings taken when a `stats` or `metrics`
/// request renders; [`Metrics`] holds the daemon's own counters.
#[derive(Debug, Default)]
pub(crate) struct Gauges {
    /// Daemon uptime, milliseconds.
    pub(crate) uptime_ms: u64,
    /// Result-cache entries currently held.
    pub(crate) cache_entries: u64,
    /// Result-cache capacity.
    pub(crate) cache_capacity: u64,
    /// Admission-queue depth.
    pub(crate) queue_depth: u64,
    /// Admission-queue capacity.
    pub(crate) queue_capacity: u64,
    /// Submissions the pool turned away with a full queue.
    pub(crate) rejected: u64,
    /// Pool workers.
    pub(crate) workers: u64,
    /// Jobs the pool has completed.
    pub(crate) completed: u64,
    /// Jobs that panicked on a pool worker.
    pub(crate) panicked: u64,
    /// Busy time over workers × wall time, from the pool's report.
    pub(crate) utilization: f64,
}

/// All daemon counters.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total requests received (including malformed ones).
    pub requests: AtomicU64,
    /// Requests by kind, indexed like [`KINDS`].
    pub by_kind: [AtomicU64; KINDS.len()],
    /// Result-cache hits.
    pub cache_hits: AtomicU64,
    /// Result-cache misses (cacheable requests only).
    pub cache_misses: AtomicU64,
    /// Requests shed with a `busy` reply (admission queue full), and
    /// connections turned away over the connection cap.
    pub busy_rejections: AtomicU64,
    /// Requests that hit their deadline before the simulation finished.
    pub timeouts: AtomicU64,
    /// Malformed or failed requests.
    pub errors: AtomicU64,
    /// End-to-end request latency histogram.
    pub latency: LogLinearHist,
}

impl Metrics {
    /// Count one request of `kind` (must be a [`KINDS`] member; unknown
    /// kinds count only toward the total).
    pub fn count_request(&self, kind: &str) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(idx) = KINDS.iter().position(|&k| k == kind) {
            self.by_kind[idx].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cache hit ratio over all cacheable lookups so far (0 when none).
    pub fn hit_ratio(&self) -> f64 {
        let hits = self.cache_hits.load(Ordering::Relaxed) as f64;
        let misses = self.cache_misses.load(Ordering::Relaxed) as f64;
        if hits + misses <= 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

/// A family's Prometheus type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// A cumulative count; the name ends `_total`.
    Counter,
    /// An instantaneous value.
    Gauge,
    /// A [`LogLinearHist`]; the name ends `_us` or `_seconds`, which
    /// sets the unit its bounds and sum render in.
    Histogram,
}

/// A family's current value.
#[derive(Debug)]
pub(crate) enum Value<'a> {
    /// One integer sample.
    Int(u64),
    /// One float sample.
    Float(f64),
    /// One integer sample per value of the family's label.
    Labelled(Vec<(&'static str, u64)>),
    /// One histogram.
    Hist(&'a LogLinearHist),
    /// One histogram per value of the family's label.
    LabelledHists(Vec<(&'static str, &'a LogLinearHist)>),
    /// The constant 1 of an `_info` family, whose content is this
    /// rendered label set.
    Info(&'static str),
}

/// One declared metric family.
#[derive(Debug)]
pub struct Family<'a> {
    /// Prometheus family name; `None` for a value only `stats` carries.
    pub(crate) name: Option<&'static str>,
    /// Prometheus help text.
    pub(crate) help: &'static str,
    /// Prometheus type.
    pub(crate) kind: Kind,
    /// The label key of a labelled value.
    pub(crate) label: Option<&'static str>,
    /// Dot-separated location in the `stats` reply, if it carries one.
    pub(crate) stats: Option<&'static str>,
    /// The value at render time.
    pub(crate) value: Value<'a>,
}

impl<'a> Family<'a> {
    /// A Prometheus family; add its help text with [`Family::help`].
    pub(crate) fn new(name: &'static str, kind: Kind, value: Value<'a>) -> Family<'a> {
        Family {
            name: Some(name),
            help: "",
            kind,
            label: None,
            stats: None,
            value,
        }
    }

    /// A counter.
    pub fn counter(name: &'static str, v: u64) -> Family<'a> {
        Family::new(name, Kind::Counter, Value::Int(v))
    }

    /// An integer gauge.
    pub fn gauge(name: &'static str, v: u64) -> Family<'a> {
        Family::new(name, Kind::Gauge, Value::Int(v))
    }

    /// A float gauge.
    pub fn gauge_f64(name: &'static str, v: f64) -> Family<'a> {
        Family::new(name, Kind::Gauge, Value::Float(v))
    }

    /// A counter with one sample per value of `label`.
    pub fn labelled(
        name: &'static str,
        label: &'static str,
        samples: Vec<(&'static str, u64)>,
    ) -> Family<'a> {
        Family::new(name, Kind::Counter, Value::Labelled(samples)).label(label)
    }

    /// A histogram.
    pub fn histogram(name: &'static str, h: &'a LogLinearHist) -> Family<'a> {
        Family::new(name, Kind::Histogram, Value::Hist(h))
    }

    /// A value only the `stats` reply carries, at `path`.
    pub(crate) fn stat(path: &'static str, kind: Kind, value: Value<'a>) -> Family<'a> {
        Family {
            name: None,
            stats: Some(path),
            ..Family::new("", kind, value)
        }
    }

    /// Set the Prometheus help text.
    pub fn help(self, help: &'static str) -> Family<'a> {
        Family { help, ..self }
    }

    /// Set the label key of a labelled value.
    pub(crate) fn label(self, key: &'static str) -> Family<'a> {
        Family {
            label: Some(key),
            ..self
        }
    }

    /// Also place this family in the `stats` reply, at `path`.
    pub(crate) fn at(self, path: &'static str) -> Family<'a> {
        Family {
            stats: Some(path),
            ..self
        }
    }
}

/// The `sp_build_info` identity gauge: constant value 1, the content in
/// the `version` label and the `git` label (the checkout's
/// `git describe`, set by the build script) — the Prometheus `*_info`
/// convention. Both process roles expose it.
pub fn build_info() -> Family<'static> {
    const LABELS: &str = concat!(
        "version=\"",
        env!("CARGO_PKG_VERSION"),
        "\",git=\"",
        env!("SP_GIT_DESCRIBE"),
        "\""
    );
    Family::new("sp_build_info", Kind::Gauge, Value::Info(LABELS))
        .help("Build identity; value is constant 1, see the version/git labels.")
}

fn load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

/// One `(label value, count)` sample per key.
fn samples(
    keys: impl IntoIterator<Item = &'static str>,
    counts: impl IntoIterator<Item = u64>,
) -> Vec<(&'static str, u64)> {
    keys.into_iter().zip(counts).collect()
}

/// Every daemon family, in `stats` key order, Prometheus-only families
/// placed beside the values they explain. The event and epoch totals
/// stay zero until an eventful (`"events":true`) or epoch-recorded
/// (`"epochs":true`) run executes; cache hits do not re-record.
pub(crate) fn daemon_families<'a>(
    m: &'a Metrics,
    stages: &'a StageTimes,
    ev: &EventTotals,
    ep: &EpochTotals,
    g: &Gauges,
) -> Vec<Family<'a>> {
    const TIMELINESS: [&str; 3] = ["late", "on_time", "early"];
    let class = PfClass::ALL.map(PfClass::name);
    let case = PollutionCase::ALL.map(PollutionCase::name);
    let (evc, epc) = (*lock(&ev.counts), *lock(&ep.counts));
    vec![
        build_info(),
        Family::gauge("sp_uptime_ms", g.uptime_ms)
            .help("Daemon uptime in milliseconds.")
            .at("uptime_ms"),
        Family::counter("sp_requests_total", load(&m.requests))
            .help("Requests received, including malformed ones.")
            .at("requests.total"),
        Family::labelled(
            "sp_requests_by_kind_total",
            "kind",
            samples(KINDS, m.by_kind.iter().map(load)),
        )
        .help("Requests by wire type.")
        .at("requests.by_kind"),
        Family::counter("sp_busy_rejections_total", load(&m.busy_rejections))
            .help("Requests shed with a busy reply.")
            .at("requests.busy"),
        Family::counter("sp_timeouts_total", load(&m.timeouts))
            .help("Requests that hit their deadline.")
            .at("requests.timeouts"),
        Family::counter("sp_errors_total", load(&m.errors))
            .help("Malformed or failed requests.")
            .at("requests.errors"),
        Family::gauge("sp_cache_entries", g.cache_entries)
            .help("Result-cache entries currently held.")
            .at("cache.entries"),
        Family::gauge("sp_cache_capacity", g.cache_capacity)
            .help("Result-cache capacity.")
            .at("cache.capacity"),
        Family::counter("sp_cache_hits_total", load(&m.cache_hits))
            .help("Result-cache hits.")
            .at("cache.hits"),
        Family::counter("sp_cache_misses_total", load(&m.cache_misses))
            .help("Result-cache misses (cacheable requests only).")
            .at("cache.misses"),
        Family::stat("cache.hit_ratio", Kind::Gauge, Value::Float(m.hit_ratio())),
        Family::gauge("sp_queue_depth", g.queue_depth)
            .help("Admission-queue depth.")
            .at("queue.depth"),
        Family::gauge("sp_queue_capacity", g.queue_capacity)
            .help("Admission-queue capacity.")
            .at("queue.capacity"),
        Family::stat("queue.rejected", Kind::Counter, Value::Int(g.rejected)),
        Family::gauge("sp_workers", g.workers)
            .help("Pool workers.")
            .at("workers.count"),
        Family::counter("sp_jobs_completed_total", g.completed)
            .help("Jobs the pool has completed.")
            .at("workers.completed"),
        Family::stat("workers.panicked", Kind::Counter, Value::Int(g.panicked)),
        Family::stat(
            "workers.utilization",
            Kind::Gauge,
            Value::Float(g.utilization),
        ),
        Family::histogram("sp_request_latency_us", &m.latency)
            .help("End-to-end request latency, microseconds.")
            .at("latency"),
        Family::new(
            "sp_stage_seconds",
            Kind::Histogram,
            Value::LabelledHists(stages.iter().collect()),
        )
        .label("stage")
        .help("Wall-clock time per pipeline stage, seconds (folded from runtime spans)."),
        Family::counter("sp_events_runs_total", load(&ev.runs))
            .help("Simulation runs folded into the event totals."),
        Family::labelled(
            "sp_events_prefetch_issued_total",
            "class",
            samples(class, evc.issued),
        )
        .help("Prefetches issued, by class."),
        Family::labelled(
            "sp_events_prefetch_filled_total",
            "class",
            samples(class, evc.filled),
        )
        .help("Prefetch L2 fills, by class."),
        Family::labelled(
            "sp_events_prefetch_first_use_total",
            "class",
            samples(class, evc.first_uses),
        )
        .help("Prefetched blocks first used by the main thread, by class."),
        Family::labelled(
            "sp_events_prefetch_evicted_unused_total",
            "class",
            samples(class, evc.evicted_unused),
        )
        .help("Prefetched blocks evicted before any use, by class."),
        Family::labelled(
            "sp_events_pollution_total",
            "case",
            samples(case, evc.pollution),
        )
        .help("Pollution evictions, by displacement case."),
        Family::labelled(
            "sp_events_timeliness_total",
            "timeliness",
            samples(TIMELINESS, [evc.late, evc.on_time, evc.early]),
        )
        .help("Prefetch first uses, by timeliness."),
        Family::counter("sp_epoch_runs_total", load(&ep.runs))
            .help("Simulation runs folded into the epoch totals."),
        Family::counter("sp_epoch_windows_total", load(&ep.windows))
            .help("Epoch windows recorded across those runs."),
        Family::counter("sp_epoch_refs_total", load(&ep.refs))
            .help("Main-thread references covered by recorded windows."),
        Family::labelled(
            "sp_epoch_pollution_total",
            "case",
            samples(case, epc.pollution),
        )
        .help("Pollution evictions in epoch-recorded runs, by displacement case."),
        Family::labelled(
            "sp_epoch_timeliness_total",
            "timeliness",
            samples(TIMELINESS, [epc.late, epc.on_time, epc.early]),
        )
        .help("Prefetch first uses in epoch-recorded runs, by timeliness."),
    ]
}

/// Render `families` as a Prometheus text exposition body, in list
/// order. Families without a Prometheus name are skipped.
pub fn render_prometheus(families: &[Family]) -> String {
    let mut out = String::new();
    for f in families {
        if let Some(name) = f.name {
            write_family(&mut out, name, f).expect("writing to a String cannot fail");
        }
    }
    out
}

fn write_family(out: &mut String, name: &str, f: &Family) -> std::fmt::Result {
    let kind = match f.kind {
        Kind::Counter => "counter",
        Kind::Gauge => "gauge",
        Kind::Histogram => "histogram",
    };
    writeln!(out, "# HELP {name} {}\n# TYPE {name} {kind}", f.help)?;
    let label = f.label.unwrap_or_default();
    match &f.value {
        Value::Int(v) => writeln!(out, "{name} {v}"),
        Value::Float(v) => writeln!(out, "{name} {v}"),
        Value::Info(labels) => writeln!(out, "{name}{{{labels}}} 1"),
        Value::Labelled(samples) => samples
            .iter()
            .try_for_each(|(key, v)| writeln!(out, "{name}{{{label}=\"{key}\"}} {v}")),
        Value::Hist(h) => hist_series(out, name, "", h),
        Value::LabelledHists(hists) => hists
            .iter()
            .try_for_each(|(key, h)| hist_series(out, name, &format!("{label}=\"{key}\""), h)),
    }
}

/// The cumulative `_bucket{le=..}` series over the **occupied** buckets
/// (the table's overflow slot folds into `+Inf`), then `_sum` and
/// `_count`, for one histogram with an optional rendered `label`. A
/// `_seconds` name renders bounds and sum in seconds — `f64` `Display`
/// prints the shortest round-tripping form, so bounds stay stable
/// literals (`120` → `0.00012`) — and any other name in the recorded
/// microseconds.
fn hist_series(out: &mut String, name: &str, label: &str, h: &LogLinearHist) -> std::fmt::Result {
    let unit = |us: u64| match name.ends_with("_seconds") {
        true => (us as f64 / 1e6).to_string(),
        false => us.to_string(),
    };
    let (sep, braced) = match label {
        "" => ("", String::new()),
        _ => (",", format!("{{{label}}}")),
    };
    let mut cumulative = 0;
    for (bound, count) in h.nonzero_buckets() {
        if bound == u64::MAX {
            break;
        }
        cumulative += count;
        let le = unit(bound);
        writeln!(out, "{name}_bucket{{{label}{sep}le=\"{le}\"}} {cumulative}")?;
    }
    let total = h.count();
    writeln!(out, "{name}_bucket{{{label}{sep}le=\"+Inf\"}} {total}")?;
    writeln!(out, "{name}_sum{braced} {}", unit(h.sum()))?;
    writeln!(out, "{name}_count{braced} {total}")
}

/// Render the `stats` reply from `families`: each family with a `stats`
/// location lands at its dot-separated path, objects nesting in
/// first-appearance order. A histogram at `latency` writes the
/// `latency_us` bucket rows and then the `latency` summary.
pub(crate) fn render_stats(families: &[Family]) -> Json {
    let mut root = Json::obj();
    for f in families {
        let Some(path) = f.stats else { continue };
        match &f.value {
            Value::Int(v) => insert(&mut root, path, Json::num(*v as f64)),
            Value::Float(v) => insert(&mut root, path, Json::num(*v)),
            Value::Labelled(samples) => {
                let obj = samples
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::num(*v as f64)));
                insert(&mut root, path, Json::Obj(obj.collect()));
            }
            Value::Hist(h) => {
                insert(&mut root, &format!("{path}_us"), hist_rows_json(h));
                insert(&mut root, path, hist_summary_json(h));
            }
            // `lint` rejects a `stats` location on these.
            Value::LabelledHists(_) | Value::Info(_) => {}
        }
    }
    root
}

/// Place `value` at the dot-separated `path` under the object `obj`,
/// creating intermediate objects on first use.
fn insert(obj: &mut Json, path: &str, value: Json) {
    let Json::Obj(pairs) = obj else {
        panic!("stats path {path:?} crosses a non-object");
    };
    let Some((head, rest)) = path.split_once('.') else {
        pairs.push((path.to_string(), value));
        return;
    };
    let i = match pairs.iter().position(|(k, _)| k == head) {
        Some(i) => i,
        None => {
            pairs.push((head.to_string(), Json::obj()));
            pairs.len() - 1
        }
    };
    insert(&mut pairs[i].1, rest, value);
}

/// A histogram as a JSON array of `{le_us, count}` rows — one per
/// **occupied** bucket (ascending, non-cumulative), so the row count
/// tracks the data's spread rather than the bucket table size. A
/// bucket whose bound is `u64::MAX` renders as the string `"inf"`.
fn hist_rows_json(h: &LogLinearHist) -> Json {
    Json::Arr(
        h.nonzero_buckets()
            .into_iter()
            .map(|(bound, count)| {
                let le = if bound == u64::MAX {
                    Json::str("inf")
                } else {
                    Json::num(bound as f64)
                };
                Json::obj()
                    .push("le_us", le)
                    .push("count", Json::num(count as f64))
            })
            .collect(),
    )
}

/// A histogram's headline summary as a JSON object:
/// `{count, sum_us, min_us, max_us, p50_us, p90_us, p99_us, p999_us}`.
fn hist_summary_json(h: &LogLinearHist) -> Json {
    let p = h.percentiles();
    Json::obj()
        .push("count", Json::num(h.count() as f64))
        .push("sum_us", Json::num(h.sum() as f64))
        .push("min_us", Json::num(h.min() as f64))
        .push("max_us", Json::num(h.max() as f64))
        .push("p50_us", Json::num(p.p50 as f64))
        .push("p90_us", Json::num(p.p90 as f64))
        .push("p99_us", Json::num(p.p99 as f64))
        .push("p999_us", Json::num(p.p999 as f64))
}

/// The naming and unit lint every declared family must pass. Names are
/// `sp_`-prefixed lowercase; counters end `_total`; histograms carry a
/// unit suffix (`_us` or `_seconds`, which also picks their rendering
/// scale); gauges are instantaneous and never end `_total`; every
/// Prometheus family has help text. A family reaches at least one
/// surface, its value matches its type and label, and only scalar,
/// labelled-count and histogram values have a `stats` location.
pub fn lint(f: &Family) -> Result<(), String> {
    let id = f.name.or(f.stats).unwrap_or("<unnamed>");
    let hist = matches!(f.value, Value::Hist(_) | Value::LabelledHists(_));
    let labelled = matches!(f.value, Value::Labelled(_) | Value::LabelledHists(_));
    if f.name.is_none() && f.stats.is_none() {
        return Err(format!("{id} reaches neither stats nor Prometheus"));
    }
    if hist != (f.kind == Kind::Histogram) || labelled != f.label.is_some() {
        return Err(format!("{id}: value does not match its type or label"));
    }
    if f.stats.is_some() && matches!(f.value, Value::LabelledHists(_) | Value::Info(_)) {
        return Err(format!("{id}: the stats reply has no shape for this value"));
    }
    let Some(name) = f.name else { return Ok(()) };
    if f.help.is_empty() {
        return Err(format!("family {name} has no help text"));
    }
    let lowercase = name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    if !name.starts_with("sp_") || !lowercase {
        return Err(format!("family {name} must be sp_-prefixed lowercase"));
    }
    match f.kind {
        Kind::Counter if !name.ends_with("_total") => {
            Err(format!("counter {name} must end in _total"))
        }
        Kind::Histogram if !(name.ends_with("_us") || name.ends_with("_seconds")) => Err(format!(
            "histogram {name} must carry a unit suffix (_us/_seconds)"
        )),
        Kind::Gauge if name.ends_with("_total") => {
            Err(format!("gauge {name} must not use the counter suffix"))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_rows_skip_empty_buckets_and_mark_overflow() {
        let h = LogLinearHist::default();
        h.record(50);
        h.record(50);
        h.record(101);
        h.record(u64::MAX);
        let json = hist_rows_json(&h).encode();
        // Three occupied buckets, not the full 7296-slot table.
        assert_eq!(json.matches("le_us").count(), 3, "got {json}");
        assert!(json.contains("\"le_us\":50,\"count\":2"), "got {json}");
        assert!(json.contains("\"le_us\":101,\"count\":1"), "got {json}");
        assert!(json.contains("\"le_us\":\"inf\",\"count\":1"), "got {json}");
    }

    #[test]
    fn hist_summary_reports_exact_aggregates_and_percentiles() {
        let h = LogLinearHist::default();
        for v in [100u64, 200, 300, 10_000] {
            h.record(v);
        }
        let json = hist_summary_json(&h).encode();
        assert!(json.contains("\"count\":4"), "got {json}");
        assert!(json.contains("\"sum_us\":10600"), "got {json}");
        assert!(json.contains("\"min_us\":100"), "got {json}");
        assert!(json.contains("\"max_us\":10000"), "got {json}");
        // Linear-region values are exact (p = 7 keeps 0..128 exact; 200
        // and 300 sit in the log region but p50 lands on 200's bucket).
        assert!(json.contains("\"p999_us\":"), "got {json}");
    }

    #[test]
    fn stage_times_fold_known_stages_only() {
        let s = StageTimes::default();
        s.record_us("simulate", 1_000);
        s.record_us("simulate", 3_000_000);
        s.record_us("request", 5); // grouping span, not a stage
        let (_, h) = s.iter().find(|(name, _)| *name == "simulate").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3_001_000);
        assert_eq!(s.iter().map(|(_, h)| h.count()).sum::<u64>(), 2);
        assert_eq!(s.iter().map(|(name, _)| name).collect::<Vec<_>>(), STAGES);
    }

    #[test]
    fn counters_and_hit_ratio() {
        let m = Metrics::default();
        assert_eq!(m.hit_ratio(), 0.0);
        m.count_request("sweep");
        m.count_request("sweep");
        m.count_request("stats");
        m.count_request("unknown-kind");
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        assert_eq!(m.requests.load(Ordering::Relaxed), 4);
        assert_eq!(m.by_kind[0].load(Ordering::Relaxed), 2);
        assert!((m.hit_ratio() - 0.75).abs() < 1e-12);
    }

    /// A fixed counter state: every counter, labelled counter and
    /// histogram holds its own non-zero value, and the scrape gauges are
    /// fixed (uptime and utilization included, so nothing needs masking
    /// but the build's git label).
    struct Pinned {
        m: Metrics,
        stages: StageTimes,
        ev: EventTotals,
        ep: EpochTotals,
        g: Gauges,
    }

    fn pinned() -> Pinned {
        let p = Pinned {
            m: Metrics::default(),
            stages: StageTimes::default(),
            ev: Default::default(),
            ep: Default::default(),
            g: Gauges {
                uptime_ms: 1234,
                cache_entries: 17,
                cache_capacity: 256,
                queue_depth: 2,
                queue_capacity: 64,
                rejected: 19,
                workers: 4,
                completed: 23,
                panicked: 1,
                utilization: 0.625,
            },
        };
        let mut n = 0u64;
        let mut next = || {
            n += 1;
            1000 + 7 * n
        };
        let (m, ev, ep) = (&p.m, &p.ev, &p.ep);
        let atomics = std::iter::once(&m.requests).chain(&m.by_kind).chain([
            &m.cache_hits,
            &m.cache_misses,
            &m.busy_rejections,
            &m.timeouts,
            &m.errors,
            &ev.runs,
        ]);
        atomics.for_each(|a| a.store(next(), Ordering::Relaxed));
        let mut evc = lock(&ev.counts);
        let c = &mut *evc;
        for arr in [
            &mut c.issued,
            &mut c.filled,
            &mut c.first_uses,
            &mut c.evicted_unused,
        ] {
            arr.iter_mut().for_each(|v| *v = next());
        }
        for v in c
            .pollution
            .iter_mut()
            .chain([&mut c.late, &mut c.on_time, &mut c.early])
        {
            *v = next();
        }
        for a in [&ep.runs, &ep.windows, &ep.refs] {
            a.store(next(), Ordering::Relaxed);
        }
        let mut epc = lock(&ep.counts);
        let c = &mut *epc;
        for v in c
            .pollution
            .iter_mut()
            .chain([&mut c.late, &mut c.on_time, &mut c.early])
        {
            *v = next();
        }
        drop((evc, epc));
        for v in [50, 120, 4_500, 9_999_999] {
            m.latency.record(v);
        }
        for (i, stage) in STAGES.iter().enumerate() {
            let i = i as u64 + 1;
            p.stages.record_us(stage, 13 * i);
            p.stages.record_us(stage, 250_007 * i);
        }
        p
    }

    /// Replace the value of the `git` label, which tracks the checkout.
    fn mask_git(body: &str) -> String {
        let Some(at) = body.find("git=\"") else {
            return body.to_string();
        };
        let start = at + "git=\"".len();
        let end = start + body[start..].find('"').expect("closed git label");
        format!("{}GIT{}", &body[..start], &body[end..])
    }

    /// The body's lines in sorted order: family order may change, the
    /// set of lines may not.
    fn sorted_lines(body: &str) -> String {
        let mut lines: Vec<&str> = body.lines().collect();
        lines.sort_unstable();
        lines.join("\n") + "\n"
    }

    /// Compare `got` with the fixture at `tests/fixtures/{name}`; with
    /// `SP_BLESS` set, rewrite the fixture instead.
    fn assert_fixture(name: &str, got: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(name);
        if std::env::var_os("SP_BLESS").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, got).unwrap();
            return;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(want == got, "{name} drifted; got:\n{got}");
    }

    #[test]
    fn stats_and_prometheus_bodies_are_pinned() {
        let p = pinned();
        let families = daemon_families(&p.m, &p.stages, &p.ev, &p.ep, &p.g);
        let stats = render_stats(&families).encode() + "\n";
        let prom = render_prometheus(&families);
        assert_fixture("stats.json", &stats);
        assert_fixture("metrics.prom", &sorted_lines(&mask_git(&prom)));
    }

    /// The `result` payloads of eventful and epoch-recorded sweeps (tiny
    /// EM3D on the default machine, hash-join on an 8 KB/4-way
    /// pointer-chase L2), one per line, and the non-zero
    /// `sp_events_*`/`sp_epoch_*` samples those runs leave behind.
    #[test]
    fn eventful_replies_and_their_totals_are_pinned() {
        let engine = crate::engine::SimEngine::new();
        let mut replies = String::new();
        for kind in ["events", "epochs"] {
            for spec in [
                "\"bench\":\"em3d\",\"distances\":[2,8,32]",
                "\"bench\":\"hashjoin\",\"l2_kb\":8,\"ways\":4,\
                 \"prefetcher\":\"pointer-chase\",\"distances\":[1,4,16]",
            ] {
                let line = format!("{{\"type\":\"sweep\",{spec},\"{kind}\":true}}");
                let cmd = crate::protocol::Request::parse(&line).unwrap().cmd;
                replies.push_str(&engine.execute(&cmd).unwrap());
                replies.push('\n');
            }
        }
        let (m, stages, g) = (Metrics::default(), StageTimes::default(), Gauges::default());
        let (ev, ep) = (engine.event_totals(), engine.epoch_totals());
        let prom = render_prometheus(&daemon_families(&m, &stages, ev, ep, &g));
        let totals: String = prom
            .lines()
            .filter(|l| l.starts_with("sp_events_") || l.starts_with("sp_epoch_"))
            .filter(|l| !l.ends_with(" 0"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_fixture("eventful_replies.ndjson", &replies);
        assert_fixture("eventful_totals.prom", &totals);
    }

    /// Render the families of a zeroed daemon with `f` applied first.
    fn zeroed_body(f: impl FnOnce(&Pinned)) -> String {
        let p = Pinned {
            m: Metrics::default(),
            stages: StageTimes::default(),
            ev: EventTotals::default(),
            ep: EpochTotals::default(),
            g: Gauges::default(),
        };
        f(&p);
        render_prometheus(&daemon_families(&p.m, &p.stages, &p.ev, &p.ep, &p.g))
    }

    #[test]
    fn exposition_is_well_formed() {
        let body = zeroed_body(|p| {
            p.m.count_request("metrics");
            p.m.latency.record(120);
            p.stages.record_us("simulate", 120);
        });
        // Every non-comment line is `name{labels} value` with a numeric
        // value.
        for line in body.lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment {line:?}"
                );
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "non-numeric sample {line:?}");
        }
        assert!(
            body.contains("sp_requests_by_kind_total{kind=\"metrics\"} 1"),
            "got {body}"
        );
        assert!(
            body.contains("sp_events_pollution_total{case=\"reuse\"} 0"),
            "got {body}"
        );
        assert!(
            body.contains(&format!(
                "sp_build_info{{version=\"{}\",git=",
                env!("CARGO_PKG_VERSION")
            )),
            "got {body}"
        );
    }

    #[test]
    fn every_daemon_family_passes_the_lint() {
        let p = pinned();
        let families = daemon_families(&p.m, &p.stages, &p.ev, &p.ep, &p.g);
        for f in &families {
            lint(f).unwrap();
        }
        let prom = families.iter().filter(|f| f.name.is_some()).count();
        let stats_only = families.len() - prom;
        assert_eq!((prom, stats_only), (29, 4));
    }

    #[test]
    fn lint_rejects_a_bad_counter_name_and_a_unitless_histogram() {
        let h = LogLinearHist::default();
        let rejects = |f: Family, why: &str| {
            let err = lint(&f.help("help.")).unwrap_err();
            assert!(err.contains(why), "{err}");
        };
        rejects(Family::counter("sp_requests", 1), "must end in _total");
        rejects(Family::counter("requests_total", 1), "sp_-prefixed");
        rejects(Family::histogram("sp_request_latency", &h), "unit suffix");
        rejects(Family::gauge("sp_queue_total", 1), "counter suffix");
        let err = lint(&Family::counter("sp_requests_total", 1)).unwrap_err();
        assert!(err.contains("no help text"), "{err}");
        let hists = || Value::LabelledHists(vec![("load", &h)]);
        let stage = Family::new("sp_stage_seconds", Kind::Histogram, hists()).help("help.");
        rejects(stage, "does not match its type or label");
        let stage = Family::new("sp_stage_seconds", Kind::Histogram, hists()).help("help.");
        lint(&stage.label("stage")).unwrap();
        let stage = Family::new("sp_stage_seconds", Kind::Histogram, hists()).label("stage");
        rejects(stage.at("stages"), "no shape");
    }

    #[test]
    fn histogram_series_are_cumulative_over_occupied_buckets() {
        let h = LogLinearHist::default();
        for v in [50, 120, 9_999_999] {
            h.record(v);
        }
        let out = render_prometheus(&[Family::histogram("h_us", &h)]);
        // Occupied buckets only: 50 (linear, exact), 120's bucket, the
        // slow outlier's bucket, then +Inf at the total.
        assert!(out.contains("h_us_bucket{le=\"50\"} 1"), "got {out}");
        assert!(out.contains("h_us_bucket{le=\"+Inf\"} 3"), "got {out}");
        assert!(out.contains(&format!("h_us_sum {}", 50 + 120 + 9_999_999)));
        assert!(out.contains("h_us_count 3"), "got {out}");
        // One line per occupied bucket plus +Inf — not the full table.
        assert_eq!(out.matches("h_us_bucket{").count(), 4, "got {out}");
        // Cumulative counts are non-decreasing in render order.
        let mut prev = 0u64;
        for line in out.lines().filter(|l| l.starts_with("h_us_bucket{")) {
            let v: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
            assert!(v >= prev, "cumulative dip at {line}");
            prev = v;
        }
    }

    #[test]
    fn empty_histogram_still_renders_inf_sum_count() {
        let h = LogLinearHist::default();
        let out = render_prometheus(&[Family::histogram("h_us", &h)]);
        assert!(out.contains("h_us_bucket{le=\"+Inf\"} 0"), "got {out}");
        assert!(out.contains("h_us_sum 0"), "got {out}");
        assert!(out.contains("h_us_count 0"), "got {out}");
    }

    #[test]
    fn stage_seconds_renders_every_stage_with_seconds_bounds() {
        let out = zeroed_body(|p| {
            p.stages.record_us("simulate", 120); // 0.00012 s
            p.stages.record_us("queue_wait", 9_999_999);
        });
        assert!(
            out.contains("sp_stage_seconds_bucket{stage=\"simulate\",le=\"0.00012\"} 1"),
            "got {out}"
        );
        assert!(
            out.contains("sp_stage_seconds_bucket{stage=\"simulate\",le=\"+Inf\"} 1"),
            "got {out}"
        );
        assert!(out.contains("sp_stage_seconds_sum{stage=\"simulate\"} 0.00012"));
        assert!(out.contains("sp_stage_seconds_count{stage=\"queue_wait\"} 1"));
        // Stable label set: every stage appears even with zero counts.
        for stage in STAGES {
            assert!(
                out.contains(&format!("sp_stage_seconds_count{{stage=\"{stage}\"}}")),
                "missing stage {stage}"
            );
        }
    }

    #[test]
    fn stats_paths_nest_in_first_appearance_order() {
        let h = LogLinearHist::default();
        h.record(7);
        let families = [
            Family::stat("a.x", Kind::Gauge, Value::Int(1)),
            Family::stat("b", Kind::Gauge, Value::Float(0.5)),
            Family::stat("a.y", Kind::Counter, Value::Labelled(vec![("k", 2)])),
            Family::histogram("sp_t_us", &h).at("a.t"),
        ];
        let json = render_stats(&families).encode();
        assert!(
            json.starts_with("{\"a\":{\"x\":1,\"y\":{\"k\":2},\"t_us\":[{\"le_us\":7,"),
            "got {json}"
        );
        assert!(json.contains("],\"t\":{\"count\":1,"), "got {json}");
        assert!(json.ends_with("},\"b\":0.5}"), "got {json}");
    }
}
