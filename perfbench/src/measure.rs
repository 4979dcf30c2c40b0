//! Statistics, output checks and the result line the benchmark prints.

use std::fmt::Write as _;

/// A timing distribution summarized by the benchmark's percentile rule:
/// the median, and the highest percentile up to the one asked for that
/// still has at least [`TAIL_SAMPLES`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub p50: f64,
    /// The percentile actually reported (≤ the one asked for).
    pub pct: f64,
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank quantile of sorted data: the smallest value with at
/// least `p`% of the samples at or below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarize `samples` by the percentile rule, asking for `want`
/// (e.g. 99). With too few samples for any tail (≤ [`TAIL_SAMPLES`]),
/// the tail is the median.
pub fn tail(samples: &[f64], want: f64) -> Tail {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let p50 = nearest_rank(&s, 50.0);
    // Nearest rank k = ceil(p·n/100) leaves n - k samples beyond it, so
    // p may go up to 100·(n - TAIL_SAMPLES)/n.
    let limit = 100.0 * n.saturating_sub(TAIL_SAMPLES) as f64 / n as f64;
    let pct = want.min(limit).max(50.0);
    Tail {
        p50,
        pct,
        value: nearest_rank(&s, pct),
        n,
    }
}

/// Median of unsorted data (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    tail(samples, 50.0).p50
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host-speed probe's nanoseconds per operation on an uncontended
/// 2.0 GHz Xeon vCPU: host times are reported scaled to this speed.
pub const PROBE_NOMINAL_NS: f64 = 10.0;

/// Host-speed probe: nanoseconds per pseudo-random read-modify-write
/// over a 4 MiB table, about 3 ms of work. It is benchmark-owned code,
/// so it does not change when the workspace does; run next to each
/// timed operation, it measures how fast the shared host is running
/// right then, and `PROBE_NOMINAL_NS / probe` rescales the operation's
/// host time to the nominal speed. On hosts whose co-tenants slow every
/// run by up to 1.7×, this cuts the run-to-run spread about threefold.
pub fn host_probe_ns() -> f64 {
    use std::sync::Mutex;
    static TABLE: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let mut table = TABLE.lock().expect("probe table lock");
    const WORDS: usize = 1 << 19;
    if table.is_empty() {
        table.resize(WORDS, 1);
    }
    const OPS: u64 = 1 << 18;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let t = std::time::Instant::now();
    for _ in 0..OPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (WORDS - 1);
        table[i] = table[i].wrapping_add(x);
    }
    std::hint::black_box(&*table);
    t.elapsed().as_nanos() as f64 / OPS as f64
}

/// Streaming FNV-1a: the digest of everything fed so far equals
/// `fnv1a64` of the concatenated bytes (words little-endian).
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn words(&mut self, ws: &[u64]) {
        for w in ws {
            self.bytes(&w.to_le_bytes());
        }
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}

/// `true` when `name` fits the metric-name grammar `[A-Za-z0-9_.-]+`
/// and starts with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics of one run, in the order they were reported.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Record one metric. Panics on a malformed name, a duplicate, or a
    /// value that is not a finite number — all bugs in the benchmark.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: impl Into<String>) {
        let name = name.into();
        assert!(valid_metric_name(&name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| *n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value, unit.into()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn unit(&self, name: &str) -> Option<&str> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, _, u)| u.as_str())
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(n, _, _)| n.as_str())
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,
    /// "metrics":{name:{"value":..,"unit":..},..}}`. Values print in
    /// Rust's shortest round-trip form, so every measured digit is kept.
    pub fn line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_reports_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // 200 samples: p99 would leave 2 beyond, so the rule falls back
        // to p95 (10 beyond).
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs, 99.0);
        assert_eq!((t.pct, t.value), (95.0, 190.0));
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_SAMPLES);
        assert_eq!(t.p50, 100.0);

        // Too few for any tail beyond the median.
        let t = tail(&[3.0, 1.0, 2.0], 99.0);
        assert_eq!((t.pct, t.value, t.p50, t.n), (50.0, 2.0, 2.0, 3));
    }

    #[test]
    fn tail_is_order_independent() {
        let a = [5.0, 1.0, 4.0, 2.0, 3.0];
        let mut b = a;
        b.reverse();
        assert_eq!(tail(&a, 90.0), tail(&b, 90.0));
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "lat_p99_ms.hi",
            "cachesim.pf_issued.pchase",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "a b", "x/y", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "bad metric name")]
    fn report_rejects_a_malformed_name() {
        Report::default().put("lat p50", 1.0, "ms");
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let d = |ws: &[u64], s: &str| {
            let mut d = Digest::new();
            d.words(ws);
            d.bytes(s.as_bytes());
            d.value()
        };
        assert_eq!(d(&[1, 2, 3], "x"), d(&[1, 2, 3], "x"));
        assert_ne!(d(&[1, 2, 3], "x"), d(&[3, 2, 1], "x"));
        assert_ne!(d(&[1, 2, 3], "x"), d(&[1, 2, 3], "y"));
        // The streaming form is sp-serve's fnv1a64 over the concatenation.
        assert_eq!(
            d(&[7], "ab"),
            crate::adapter::fnv1a64(&[7, 0, 0, 0, 0, 0, 0, 0, b'a', b'b'])
        );
    }

    #[test]
    fn result_line_is_one_json_object_with_units() {
        let mut r = Report::default();
        r.put("latency_ms", 1.25, "ms");
        r.put("count", 3.0, "count");
        assert_eq!(
            r.line(true, 4, 0),
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"count\":{\"value\":3,\"unit\":\"count\"}}}"
        );
    }
}
