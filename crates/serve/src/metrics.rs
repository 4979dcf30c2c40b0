//! The daemon's observability surface: request counters, cache hit
//! counters, and the end-to-end latency histogram — all lock-free
//! atomics, safe to read while the server is under load.
//!
//! The latency and per-stage distributions record into the shared
//! [`sp_obs::LogLinearHist`] (the workspace's single percentile
//! implementation); this module only owns the counters and the JSON
//! shapes the `stats` reply renders from.

use crate::json::Json;
use sp_obs::LogLinearHist;
use std::sync::atomic::{AtomicU64, Ordering};

/// Request kinds the per-type counters distinguish (wire `type` names).
pub const KINDS: [&str; 8] = [
    "sweep", "point", "affinity", "burn", "stats", "metrics", "ping", "shutdown",
];

/// Render a histogram as a JSON array of `{le_us, count}` rows — one
/// per **occupied** bucket (ascending, non-cumulative), so the row
/// count tracks the data's spread rather than the bucket table size.
/// A bucket whose bound is `u64::MAX` renders as the string `"inf"`,
/// matching the fixed-bucket overflow row this shape replaced.
pub fn hist_rows_json(h: &LogLinearHist) -> Json {
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

/// Render a histogram's headline summary as a JSON object:
/// `{count, sum_us, min_us, max_us, p50_us, p90_us, p99_us, p999_us}`.
/// This is the `latency` block `stats` serves alongside the bucket rows.
pub fn hist_summary_json(h: &LogLinearHist) -> Json {
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

/// Pipeline stages folded into the `sp_stage_seconds` histograms — the
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
/// entry. Recorded in microseconds (the sp-obs span clock); the
/// Prometheus renderer converts bounds to seconds for the
/// `sp_stage_seconds` family.
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

    /// The histogram for `stage`, when it is a [`STAGES`] member.
    pub fn get(&self, stage: &str) -> Option<&LogLinearHist> {
        STAGES
            .iter()
            .position(|&s| s == stage)
            .map(|idx| &self.hists[idx])
    }

    /// Iterate `(stage, histogram)` in [`STAGES`] order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &LogLinearHist)> {
        STAGES.iter().copied().zip(self.hists.iter())
    }
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

    /// Render the request-side counters as a JSON object.
    pub fn to_json(&self) -> Json {
        let mut kinds = Json::obj();
        for (i, &k) in KINDS.iter().enumerate() {
            kinds = kinds.push(k, Json::num(self.by_kind[i].load(Ordering::Relaxed) as f64));
        }
        Json::obj()
            .push(
                "total",
                Json::num(self.requests.load(Ordering::Relaxed) as f64),
            )
            .push("by_kind", kinds)
            .push(
                "busy",
                Json::num(self.busy_rejections.load(Ordering::Relaxed) as f64),
            )
            .push(
                "timeouts",
                Json::num(self.timeouts.load(Ordering::Relaxed) as f64),
            )
            .push(
                "errors",
                Json::num(self.errors.load(Ordering::Relaxed) as f64),
            )
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
        let h = s.get("simulate").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 3_001_000);
        assert!(s.get("request").is_none());
        assert_eq!(s.iter().count(), STAGES.len());
        assert!(s.iter().all(|(name, _)| STAGES.contains(&name)));
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
        let json = m.to_json().encode();
        assert!(json.contains("\"sweep\":2"), "got {json}");
        assert!(json.contains("\"total\":4"), "got {json}");
    }
}
