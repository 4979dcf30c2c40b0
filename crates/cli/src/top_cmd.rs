//! `spt top` — a live terminal dashboard over a running sp-serve
//! daemon: polls the NDJSON `stats` command, keeps short histories, and
//! redraws in place with plain ANSI (cursor-up + line-clear — no
//! terminal library) and [`sp_bench::sparkline`] history rows. The
//! `--once --json` shape is golden-pinned by `tests/top_snapshot.rs`.

use sp_cli::args::Args;
use sp_serve::Json;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// History depth for the sparkline rows.
const HISTORY: usize = 32;

/// One decoded `stats` snapshot.
#[derive(Debug)]
struct Sample {
    uptime_ms: u64,
    requests_total: u64,
    busy: u64,
    timeouts: u64,
    errors: u64,
    cache_entries: u64,
    hit_ratio: f64,
    queue_depth: u64,
    queue_capacity: u64,
    workers: u64,
    completed: u64,
    utilization: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
}

/// The value at the dot-separated `path` of a `stats` object, read by
/// `as_t`.
fn field<T>(v: &Json, path: &str, as_t: fn(&Json) -> Option<T>) -> Result<T, String> {
    path.split('.')
        .try_fold(v, |v, key| v.get(key))
        .and_then(as_t)
        .ok_or_else(|| format!("stats missing {path}"))
}

impl Sample {
    fn decode(v: &Json) -> Result<Sample, String> {
        let int = |path| field(v, path, Json::as_u64);
        let float = |path| field(v, path, Json::as_f64);
        Ok(Sample {
            uptime_ms: int("uptime_ms")?,
            requests_total: int("requests.total")?,
            busy: int("requests.busy")?,
            timeouts: int("requests.timeouts")?,
            errors: int("requests.errors")?,
            cache_entries: int("cache.entries")?,
            hit_ratio: float("cache.hit_ratio")?,
            queue_depth: int("queue.depth")?,
            queue_capacity: int("queue.capacity")?,
            workers: int("workers.count")?,
            completed: int("workers.completed")?,
            utilization: float("workers.utilization")?,
            p50_us: int("latency.p50_us")?,
            p90_us: int("latency.p90_us")?,
            p99_us: int("latency.p99_us")?,
            p999_us: int("latency.p999_us")?,
            max_us: int("latency.max_us")?,
        })
    }
}

/// One `stats` round trip on a fresh connection; returns the reply's
/// `result` object.
fn poll_stats(addr: &str) -> Result<Json, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"type\":\"stats\"}\n")
        .map_err(|e| format!("send stats: {e}"))?;
    let mut reply = String::new();
    let n = reader
        .read_line(&mut reply)
        .map_err(|e| format!("recv stats: {e}"))?;
    if n == 0 {
        return Err("recv stats: connection closed".into());
    }
    let v = Json::parse(reply.trim()).map_err(|e| format!("bad stats reply: {e}"))?;
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("stats refused: {}", reply.trim()));
    }
    v.get("result")
        .cloned()
        .ok_or_else(|| "stats reply missing result".into())
}

/// Bounded history ring for one sparkline row.
struct Ring(VecDeque<u64>);

impl Ring {
    fn new() -> Ring {
        Ring(VecDeque::with_capacity(HISTORY))
    }

    fn push(&mut self, v: u64) {
        if self.0.len() == HISTORY {
            self.0.pop_front();
        }
        self.0.push_back(v);
    }

    fn spark(&self) -> String {
        sp_bench::sparkline(&self.0.iter().copied().collect::<Vec<_>>())
    }
}

/// Per-metric histories the live view scrolls through.
struct Histories {
    throughput: Ring,
    hit_ratio: Ring,
    queue: Ring,
    util: Ring,
    p99: Ring,
}

impl Histories {
    fn new() -> Histories {
        Histories {
            throughput: Ring::new(),
            hit_ratio: Ring::new(),
            queue: Ring::new(),
            util: Ring::new(),
            p99: Ring::new(),
        }
    }
}

/// Render one frame; returns the text and its line count. Every line
/// opens with an erase-line escape when `ansi` is set, so in-place
/// redraws never leave stale tails.
fn render_frame(
    addr: &str,
    s: &Sample,
    throughput: f64,
    h: &Histories,
    ansi: bool,
) -> (String, usize) {
    let clear = if ansi { "\x1b[2K" } else { "" };
    let mut out = String::new();
    let mut lines = 0;
    let row = |text: String, out: &mut String| {
        out.push_str(clear);
        out.push_str(&text);
        out.push('\n');
    };
    row(
        format!("spt top — {addr}   uptime {:.1}s", s.uptime_ms as f64 / 1e3),
        &mut out,
    );
    lines += 1;
    row(
        format!(
            "  requests  {:>8} total  {throughput:>8.1} req/s  {}",
            s.requests_total,
            h.throughput.spark()
        ),
        &mut out,
    );
    lines += 1;
    row(
        format!(
            "  outcomes  busy {} timeouts {} errors {}",
            s.busy, s.timeouts, s.errors
        ),
        &mut out,
    );
    lines += 1;
    row(
        format!(
            "  cache     {:>8} entries  hit_ratio {:.2}  {}",
            s.cache_entries,
            s.hit_ratio,
            h.hit_ratio.spark()
        ),
        &mut out,
    );
    lines += 1;
    row(
        format!(
            "  queue     {:>4}/{:<4} depth  {}",
            s.queue_depth,
            s.queue_capacity,
            h.queue.spark()
        ),
        &mut out,
    );
    lines += 1;
    row(
        format!(
            "  workers   {:>4} util {:.2}  completed {}  {}",
            s.workers,
            s.utilization,
            s.completed,
            h.util.spark()
        ),
        &mut out,
    );
    lines += 1;
    row(
        format!(
            "  latency   p50 {}us p90 {}us p99 {}us p999 {}us max {}us  {}",
            s.p50_us,
            s.p90_us,
            s.p99_us,
            s.p999_us,
            s.max_us,
            h.p99.spark()
        ),
        &mut out,
    );
    lines += 1;
    (out, lines)
}

/// `spt top`: live dashboard, or `--once [--json]` snapshot.
pub fn top(a: &Args) -> Result<(), String> {
    let addr = a.get("addr").unwrap_or("127.0.0.1:7077").to_string();
    let once = a.switch("once");
    let json = a.switch("json");
    let interval_ms: u64 = a.get_or("interval-ms", 1_000)?;
    let count: u64 = a.get_or("count", 0)?;
    if json && !once {
        return Err("--json needs --once (live mode is for terminals)".into());
    }
    if once {
        let v = poll_stats(&addr)?;
        if json {
            println!("{}", v.encode());
        } else {
            let s = Sample::decode(&v)?;
            let (frame, _) = render_frame(&addr, &s, 0.0, &Histories::new(), false);
            print!("{frame}");
        }
        return Ok(());
    }
    let mut h = Histories::new();
    let mut prev: Option<Sample> = None;
    let mut drawn_lines = 0usize;
    let mut frames = 0u64;
    loop {
        let v = poll_stats(&addr)?;
        let s = Sample::decode(&v)?;
        // Throughput from the requests-total delta over the uptime
        // delta, so a missed poll can't inflate the rate.
        let throughput = match &prev {
            Some(p) if s.uptime_ms > p.uptime_ms => {
                (s.requests_total.saturating_sub(p.requests_total)) as f64
                    / ((s.uptime_ms - p.uptime_ms) as f64 / 1e3)
            }
            _ => 0.0,
        };
        h.throughput.push(throughput.round() as u64);
        h.hit_ratio.push((s.hit_ratio * 100.0).round() as u64);
        h.queue.push(s.queue_depth);
        h.util.push((s.utilization * 100.0).round() as u64);
        h.p99.push(s.p99_us);
        if drawn_lines > 0 {
            print!("\x1b[{drawn_lines}A");
        }
        let (frame, lines) = render_frame(&addr, &s, throughput, &h, true);
        print!("{frame}");
        let _ = std::io::stdout().flush();
        drawn_lines = lines;
        prev = Some(s);
        frames += 1;
        if count > 0 && frames >= count {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_fixture() -> Json {
        Json::parse(
            r#"{"uptime_ms":5000,
                "requests":{"total":42,"by_kind":{"ping":40},"busy":1,"timeouts":0,"errors":1},
                "cache":{"entries":3,"capacity":256,"hits":9,"misses":3,"hit_ratio":0.75},
                "queue":{"depth":2,"capacity":64,"rejected":1},
                "workers":{"count":4,"completed":12,"panicked":0,"utilization":0.5},
                "latency_us":[{"le_us":100,"count":40}],
                "latency":{"count":42,"sum_us":4200,"min_us":10,"max_us":900,
                           "p50_us":90,"p90_us":200,"p99_us":700,"p999_us":900}}"#,
        )
        .unwrap()
    }

    #[test]
    fn sample_decodes_the_stats_shape() {
        let s = Sample::decode(&stats_fixture()).unwrap();
        assert_eq!(s.requests_total, 42);
        assert_eq!(s.queue_depth, 2);
        assert_eq!(s.p99_us, 700);
        assert!((s.hit_ratio - 0.75).abs() < 1e-12);
    }

    #[test]
    fn sample_decode_reports_the_missing_field() {
        let mut v = stats_fixture();
        if let Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "latency");
        }
        let err = Sample::decode(&v).unwrap_err();
        assert!(err.contains("latency"), "got {err}");
    }

    #[test]
    fn frame_renders_without_ansi_when_static() {
        let s = Sample::decode(&stats_fixture()).unwrap();
        let (frame, lines) = render_frame("127.0.0.1:1", &s, 12.5, &Histories::new(), false);
        assert_eq!(lines, frame.lines().count());
        assert!(!frame.contains('\x1b'), "static frame must be ANSI-free");
        assert!(frame.contains("p99 700us"), "got {frame}");
        assert!(frame.contains("hit_ratio 0.75"), "got {frame}");
    }

    #[test]
    fn frame_clears_lines_in_live_mode() {
        let s = Sample::decode(&stats_fixture()).unwrap();
        let (frame, lines) = render_frame("127.0.0.1:1", &s, 0.0, &Histories::new(), true);
        assert_eq!(frame.matches("\x1b[2K").count(), lines);
    }

    #[test]
    fn ring_is_bounded() {
        let mut r = Ring::new();
        for i in 0..(HISTORY as u64 + 10) {
            r.push(i);
        }
        assert_eq!(r.0.len(), HISTORY);
        assert_eq!(r.0.front().copied(), Some(10));
    }
}
