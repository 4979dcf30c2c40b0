//! The serve-mix layer section of the traced `lds-epochs` run: a fresh
//! in-process sp-serve daemon per phase, driven open-loop over one
//! connection by one sender and one receiver thread, with seeded Poisson
//! arrivals. Latency is timed from each request's intended send time, so
//! a stall charges every request queued behind it.

use crate::adapter::{self, Engine, JsonDoc, LocalCache, Parsed};
use crate::measure::{median, tail, Report};
use crate::span::{in_span, span};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Offered rate of the `lo` phase, requests/s (about half of capacity).
pub const LO_RPS: f64 = 1000.0;
/// Offered rate of the `hi` phase, requests/s (about four-fifths).
pub const HI_RPS: f64 = 1600.0;

/// Fewest requests a phase sends, whatever `--seconds` says.
const MIN_REQUESTS: usize = 1000;
/// A phase's latency figures are medians over consecutive chunks of this
/// many requests (each chunk's p99 has 10 samples beyond it), so one
/// burst of host contention moves one chunk, not the run's figure.
const CHUNK: usize = 1000;
/// Latency charged to a failed request: it misses any limit.
const FAILED_MS: f64 = 1e9;

/// Keyspace: `point` runs over this distance range and two backends,
/// short `sweep` grids, and `affinity` profiles, for all ten kernels.
/// 520 keys against the daemon's 256-entry cache put the steady hit
/// ratio near one half.
const POINT_DISTANCES: std::ops::RangeInclusive<u32> = 1..=20;
const BACKENDS: [&str; 2] = ["streamer+dpl", "pointer-chase"];
const SWEEP_GRIDS: [&[u32]; 10] = [
    &[2, 8],
    &[4, 16],
    &[2, 8, 32],
    &[1, 4],
    &[8, 32],
    &[3, 12],
    &[6, 24],
    &[2, 32],
    &[16, 64],
    &[5, 10, 20],
];
/// Every this many requests, one is a `stats` scrape…
const STATS_EVERY: usize = 200;
/// …and every this many, a `metrics` scrape.
const METRICS_EVERY: usize = 500;
/// Set-up requests use a distance the timed mix never asks for, so they
/// warm the daemon's trace/compile memo without seeding its result
/// cache with timed keys.
const WARM_DISTANCE: u32 = 100;

/// SplitMix64: the benchmark's own generator, so the mix does not move
/// when a workspace RNG changes.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Salts that decorrelate the mix and arrival streams of one seed.
const MIX_SALT: u64 = 0x6D69_785F_7361_6C74;
const ARRIVAL_SALT: u64 = 0x6172_7269_7661_6C73;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    Point,
    Sweep,
    Affinity,
    Stats,
    Metrics,
}

/// One request of the mix.
#[derive(Debug, Clone)]
pub struct Req {
    pub id: u64,
    /// The request line, newline-terminated.
    pub line: String,
    pub kind: Kind,
    /// Main-thread references the request simulates: one pass of its
    /// kernel's test trace per run (baseline + each distance).
    pub kernel: usize,
    pub runs: u64,
}

/// The request mix of one phase: `n` requests with ids from `first_id`.
pub fn mix(seed: u64, phase: u64, n: usize, first_id: u64) -> Vec<Req> {
    let kernels = adapter::kernel_names();
    let nk = kernels.len();
    let points = nk * POINT_DISTANCES.count() * BACKENDS.len();
    let sweeps = nk * SWEEP_GRIDS.len();
    let keys = points + sweeps + nk * BACKENDS.len();
    let mut rng = Rng::new(seed ^ MIX_SALT ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n)
        .map(|i| {
            let id = first_id + i as u64;
            let scrape = |kind, ty| Req {
                id,
                line: format!("{{\"id\":{id},\"type\":\"{ty}\"}}\n"),
                kind,
                kernel: 0,
                runs: 0,
            };
            if i % METRICS_EVERY == METRICS_EVERY - 1 {
                return scrape(Kind::Metrics, "metrics");
            }
            if i % STATS_EVERY == STATS_EVERY - 1 {
                return scrape(Kind::Stats, "stats");
            }
            let k = rng.below(keys as u64) as usize;
            if k < points {
                let kernel = k % nk;
                let rest = k / nk;
                let backend = BACKENDS[rest % BACKENDS.len()];
                let d = POINT_DISTANCES.start() + (rest / BACKENDS.len()) as u32;
                Req {
                    id,
                    line: format!(
                        "{{\"id\":{id},\"type\":\"point\",\"bench\":\"{}\",\"scale\":\"test\",\
                         \"distance\":{d},\"prefetcher\":\"{backend}\"}}\n",
                        kernels[kernel]
                    ),
                    kind: Kind::Point,
                    kernel,
                    runs: 2,
                }
            } else if k < points + sweeps {
                let k = k - points;
                let (kernel, grid) = (k % nk, SWEEP_GRIDS[k / nk]);
                let ds: Vec<String> = grid.iter().map(u32::to_string).collect();
                Req {
                    id,
                    line: format!(
                        "{{\"id\":{id},\"type\":\"sweep\",\"bench\":\"{}\",\"scale\":\"test\",\
                         \"distances\":[{}]}}\n",
                        kernels[kernel],
                        ds.join(",")
                    ),
                    kind: Kind::Sweep,
                    kernel,
                    runs: 1 + grid.len() as u64,
                }
            } else {
                let k = k - points - sweeps;
                let (kernel, backend) = (k % nk, BACKENDS[k / nk]);
                Req {
                    id,
                    line: format!(
                        "{{\"id\":{id},\"type\":\"affinity\",\"bench\":\"{}\",\"scale\":\"test\",\
                         \"prefetcher\":\"{backend}\"}}\n",
                        kernels[kernel]
                    ),
                    kind: Kind::Affinity,
                    kernel,
                    runs: 0,
                }
            }
        })
        .collect()
}

/// Digest of a mix (its request lines, in order).
pub fn mix_digest(reqs: &[Req]) -> u64 {
    let mut d = crate::measure::Digest::new();
    for r in reqs {
        d.bytes(r.line.as_bytes());
    }
    d.value()
}

/// Intended send offsets, microseconds from the phase start: seeded
/// Poisson arrivals (exponential gaps, mean `1/rate`).
pub fn arrivals(seed: u64, phase: u64, n: usize, rate: f64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ ARRIVAL_SALT ^ phase.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let gap_us = 1e6 / rate;
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() * gap_us;
            t as u64
        })
        .collect()
}

/// The warm-up lines a fresh daemon is set up with.
fn warm_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for (i, k) in adapter::kernel_names().iter().enumerate() {
        for (j, backend) in BACKENDS.iter().enumerate() {
            lines.push(format!(
                "{{\"id\":{},\"type\":\"point\",\"bench\":\"{k}\",\"scale\":\"test\",\
                 \"distance\":{WARM_DISTANCE},\"prefetcher\":\"{backend}\"}}\n",
                i * BACKENDS.len() + j
            ));
        }
    }
    lines
}

/// One reply, split into the parts the benchmark checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `ok:true`, with the encoded `result` payload.
    Ok(String),
    /// `ok:false`, with the error code (`busy`, `timeout`, ...).
    Err(String),
}

/// The encoded `result` payload of an ok reply line (the envelope puts
/// `result` last).
fn result_payload(line: &str) -> Option<&str> {
    let line = line.trim_end();
    let at = line.find(",\"result\":")?;
    line.get(at + 10..line.len().checked_sub(1)?)
}

/// Split a reply line. `None` when the line is not a reply envelope for
/// request `id`.
pub fn parse_reply(line: &str, id: u64) -> Option<Reply> {
    let head = &line[..line.find(",\"result\":").unwrap_or(line.len())];
    let id_at = head.find("\"id\":")? + 5;
    let digits: String = head[id_at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    if digits.parse::<u64>().ok()? != id {
        return None;
    }
    if head.contains("\"ok\":true") {
        result_payload(line).map(|r| Reply::Ok(r.to_string()))
    } else {
        let at = line.find("\"error\":\"")? + 9;
        let code: String = line[at..].chars().take_while(|&c| c != '"').collect();
        Some(Reply::Err(code))
    }
}

/// What one open-loop phase observed.
struct PhaseOut {
    /// Per request: the reply, or `None` for a malformed/misordered one.
    replies: Vec<Option<Reply>>,
    /// Per request: milliseconds from intended send to reply.
    lat_ms: Vec<f64>,
    /// Per request: how late the sender was, ms.
    lag_ms: Vec<f64>,
    /// Requests unanswered when the last one was sent.
    backlog_end: usize,
    /// The realized offered rate (requests over the send schedule).
    offered_rps: f64,
}

/// Send `reqs` on their schedule over one connection while this thread
/// reads the replies (the daemon answers a connection in order).
fn open_loop(addr: SocketAddr, reqs: &[Req], offsets_us: &[u64]) -> io::Result<PhaseOut> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // Bound every wait, so a wedged daemon fails the run instead of
    // hanging it.
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let mut writer = stream.try_clone()?;
    let n = reqs.len();
    let received = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_micros(offsets_us[i]);

    let (sent, got) = std::thread::scope(|s| {
        let sender = s.spawn(|| -> io::Result<(Vec<f64>, usize)> {
            let mut lag_ms = Vec::with_capacity(n);
            for (i, r) in reqs.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                lag_ms.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3);
                writer.write_all(r.line.as_bytes())?;
            }
            Ok((lag_ms, n - received.load(Ordering::SeqCst)))
        });
        let mut reader = BufReader::new(&stream);
        let mut got = Vec::with_capacity(n);
        let read = (|| -> io::Result<()> {
            for _ in 0..n {
                let mut line = String::new();
                if reader.read_line(&mut line)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed",
                    ));
                }
                got.push((Instant::now(), line));
                received.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        })();
        if read.is_err() {
            // Unblock the sender if it is stuck on a full socket.
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().expect("sender thread does not panic");
        read.map(|()| (sent, got))
    })?;
    let (lag_ms, backlog_end) = sent?;

    let mut replies = Vec::with_capacity(n);
    let mut lat_ms = Vec::with_capacity(n);
    for (i, (at, line)) in got.iter().enumerate() {
        let reply = parse_reply(line, reqs[i].id);
        let ms = at.saturating_duration_since(due(i)).as_secs_f64() * 1e3;
        lat_ms.push(if matches!(reply, Some(Reply::Ok(_))) {
            ms
        } else {
            FAILED_MS
        });
        replies.push(reply);
    }
    Ok(PhaseOut {
        replies,
        lat_ms,
        lag_ms,
        backlog_end,
        offered_rps: n as f64 / (offsets_us[n - 1].max(1) as f64 / 1e6),
    })
}

/// Send `lines` one at a time over a new connection, returning the
/// reply lines.
fn closed_loop(addr: SocketAddr, lines: &[String]) -> io::Result<Vec<String>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = Vec::with_capacity(lines.len());
    for l in lines {
        stream.write_all(l.as_bytes())?;
        let mut reply = String::new();
        reader.read_line(&mut reply)?;
        out.push(reply);
    }
    Ok(out)
}

/// One phase: a fresh daemon set up, the mix sent at `rate`, and (when
/// asked) a final `stats` and `metrics` scrape.
struct Phase {
    reqs: Vec<Req>,
    out: PhaseOut,
    setup_s: f64,
    stats: Option<JsonDoc>,
    metrics_body: Option<String>,
}

fn run_phase(name: &'static str, seed: u64, phase: u64, rate: f64, n: usize) -> io::Result<Phase> {
    let reqs = mix(seed, phase, n, phase * 10_000_000);
    let offsets = arrivals(seed, phase, n, rate);
    eprintln!(
        "perfbench: serve-mix {name}: {n} requests at {rate} req/s, mix digest {:#018x}",
        mix_digest(&reqs)
    );

    let t = Instant::now();
    let daemon = in_span("serve", "setup", || -> io::Result<adapter::Daemon> {
        let d = adapter::start_daemon()?;
        for reply in closed_loop(d.addr(), &warm_lines())? {
            if !reply.contains("\"ok\":true") {
                return Err(io::Error::other(format!("warm-up failed: {reply}")));
            }
        }
        Ok(d)
    })?;
    let setup_s = t.elapsed().as_secs_f64();

    let out = in_span("loadgen", name, || {
        open_loop(daemon.addr(), &reqs, &offsets)
    })?;

    let lines = [
        "{\"type\":\"stats\"}\n".to_string(),
        "{\"type\":\"metrics\"}\n".to_string(),
    ];
    let replies = closed_loop(daemon.addr(), &lines)?;
    let stats = result_payload(&replies[0]).and_then(|r| adapter::parse_json(r).ok());
    let metrics_body = result_payload(&replies[1])
        .and_then(|r| adapter::parse_json(r).ok())
        .and_then(|j| j.str(&["body"]).map(str::to_string));
    in_span("serve", "stop", || daemon.stop())?;
    Ok(Phase {
        reqs,
        out,
        setup_s,
        stats,
        metrics_body,
    })
}

/// A phase's latency: the medians, over its whole chunks of [`CHUNK`]
/// requests, of each chunk's p50 and p99.
pub fn chunked_latency(lat_ms: &[f64]) -> (f64, f64) {
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = lat_ms
        .chunks_exact(CHUNK)
        .map(|c| {
            let t = tail(c, 99.0);
            (t.p50, t.value)
        })
        .unzip();
    (median(&p50s), median(&p99s))
}

/// Requests in a phase at `rate` that gets `share` of the run's time.
fn phase_len(seconds: f64, share: f64, rate: f64) -> usize {
    ((seconds * share * rate) as usize).max(MIN_REQUESTS)
}

/// The engine's results for every distinct request of the run, from
/// calling it directly on the same lines, with the host time of each
/// call.
struct Direct {
    expected: HashMap<String, String>,
    /// `(kind, main refs simulated, seconds)` per execution, all passes.
    calls: Vec<(Kind, u64, f64)>,
    /// Simulated main refs per second of execute time, per pass.
    pass_rates: Vec<f64>,
    mismatches: u64,
}

/// Passes over the distinct requests; the rate is their median.
const DIRECT_PASSES: usize = 3;

fn direct(reqs: &[&Req], trace_refs: &[u64], passes: usize) -> Direct {
    let mut unique: Vec<(String, &Req, Parsed)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for r in reqs {
        let parsed = adapter::parse(r.line.trim_end()).expect("the mix is well-formed");
        if let Some(key) = parsed.cache_key() {
            if seen.insert(key.clone()) {
                unique.push((key, r, parsed));
            }
        }
    }
    // One canonical order, so every seed replays the same work sequence.
    unique.sort_by(|a, b| a.0.cmp(&b.0));
    let mut d = Direct {
        expected: HashMap::new(),
        calls: Vec::new(),
        pass_rates: Vec::new(),
        mismatches: 0,
    };
    for pass in 0..passes {
        let engine = Engine::new();
        for l in warm_lines() {
            let p = adapter::parse(l.trim_end()).expect("warm-up lines are well-formed");
            engine.execute(&p).expect("warm-up executes");
        }
        let (mut refs, mut secs) = (0u64, 0.0);
        for (key, r, parsed) in &unique {
            let _s = span("serve", "execute");
            let t = Instant::now();
            let result = engine
                .execute(parsed)
                .unwrap_or_else(|e| format!("error: {e}"));
            let dt = t.elapsed().as_secs_f64();
            let main_refs = r.runs * trace_refs[r.kernel];
            d.calls.push((r.kind, main_refs, dt));
            if r.runs > 0 {
                refs += main_refs;
                secs += dt;
            }
            if pass == 0 {
                d.expected.insert(key.clone(), result);
            } else if d.expected[key] != result {
                eprintln!("perfbench: serve-mix: direct execution of {key} is not deterministic");
                d.mismatches += 1;
            }
        }
        d.pass_rates.push(refs as f64 / secs);
    }
    d
}

/// Failures in a phase: non-ok or malformed replies, and ok replies
/// whose result differs from the engine's direct result. Also returns
/// the XOR digests of `fnv1a64("{id}:{result}")` over ok replies, as
/// served and as computed directly.
fn check_phase(p: &Phase, expected: &HashMap<String, String>) -> (u64, u64, u64) {
    let (mut failed, mut served, mut direct) = (0, 0, 0);
    for (r, reply) in p.reqs.iter().zip(&p.out.replies) {
        match reply {
            Some(Reply::Ok(result)) => {
                if matches!(r.kind, Kind::Stats | Kind::Metrics) {
                    continue;
                }
                let key = adapter::parse(r.line.trim_end())
                    .ok()
                    .and_then(|q| q.cache_key())
                    .expect("mix requests are cacheable");
                let want = &expected[&key];
                served ^= adapter::fnv1a64(format!("{}:{result}", r.id).as_bytes());
                direct ^= adapter::fnv1a64(format!("{}:{want}", r.id).as_bytes());
                if result != want {
                    failed += 1;
                }
            }
            Some(Reply::Err(code)) => {
                eprintln!("perfbench: serve-mix: request {} failed: {code}", r.id);
                failed += 1;
            }
            None => failed += 1,
        }
    }
    (failed, served, direct)
}

/// Drive the serve layer for about `seconds` with inputs from `seed`
/// and put its per-layer metrics in `report`. Returns the requests
/// attempted and failed. Call it last in a run: binding a daemon turns
/// sp-obs span recording on for the whole process.
pub fn layer_section(seed: u64, seconds: f64, report: &mut Report) -> (u64, u64) {
    match section(seed, seconds, report) {
        Ok(counts) => counts,
        Err(e) => {
            eprintln!("perfbench: serve layer: {e}");
            std::process::exit(1);
        }
    }
}

fn section(seed: u64, seconds: f64, report: &mut Report) -> io::Result<(u64, u64)> {
    let trace_refs: Vec<u64> = adapter::kernel_names()
        .iter()
        .map(|k| adapter::test_trace_refs(k))
        .collect();
    let lo = run_phase("lo", seed, 1, LO_RPS, phase_len(seconds, 0.25, LO_RPS))?;
    let hi = run_phase("hi", seed, 2, HI_RPS, phase_len(seconds, 0.25, HI_RPS))?;

    let all: Vec<&Req> = lo.reqs.iter().chain(&hi.reqs).collect();
    let d = direct(&all, &trace_refs, DIRECT_PASSES);
    let mut failed = d.mismatches;
    let mut attempted = 0u64;
    for p in [&lo, &hi] {
        let (f, served, direct) = check_phase(p, &d.expected);
        if served != direct {
            eprintln!(
                "perfbench: serve layer: result digest {served:#018x}, direct {direct:#018x}"
            );
        }
        failed += f;
        attempted += p.reqs.len() as u64;
    }

    for (name, p) in [("lo", &lo), ("hi", &hi)] {
        let (p50, p99) = chunked_latency(&p.out.lat_ms);
        report.put(format!("serve.lat_p50_ms.{name}"), p50, "ms");
        report.put(format!("serve.lat_p99_ms.{name}"), p99, "ms");
    }
    report.put("serve.setup_s", median(&[lo.setup_s, hi.setup_s]), "s");
    report.put("serve.sim_refs_per_s", median(&d.pass_rates), "refs/s");
    traced_layers(report, &lo, &hi, &d);
    Ok((attempted, failed))
}

/// Per-layer metrics of the traced run.
fn traced_layers(report: &mut Report, lo: &Phase, hi: &Phase, d: &Direct) {
    let timed: Vec<&Req> = lo.reqs.iter().chain(&hi.reqs).collect();

    // Request::parse and ResultCache::get on the same lines.
    let parse_us: Vec<f64> = in_span("serve", "parse", || {
        timed
            .iter()
            .map(|r| {
                let t = Instant::now();
                std::hint::black_box(adapter::parse(r.line.trim_end()).is_ok());
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect()
    });
    report.put("serve.parse_us.p50", median(&parse_us), "us");
    let cache = LocalCache::new();
    let get_us: Vec<f64> = in_span("serve", "cache_get", || {
        timed
            .iter()
            .filter_map(|r| adapter::parse(r.line.trim_end()).ok()?.cache_key())
            .map(|key| {
                let t = Instant::now();
                let hit = cache.get(&key);
                let us = t.elapsed().as_secs_f64() * 1e6;
                if hit.is_none() {
                    cache.put(&key, d.expected[&key].clone());
                }
                us
            })
            .collect()
    });
    report.put("serve.cache_get_us.p50", median(&get_us), "us");

    // SimEngine::execute per kind, over the untraced passes.
    for (kind, name) in [
        (Kind::Point, "point"),
        (Kind::Sweep, "sweep"),
        (Kind::Affinity, "affinity"),
    ] {
        let ms: Vec<f64> = d
            .calls
            .iter()
            .filter(|c| c.0 == kind)
            .map(|c| c.2 * 1e3)
            .collect();
        let t = tail(&ms, 99.0);
        report.put(format!("serve.execute_ms.{name}.p50"), t.p50, "ms");
        report.put(format!("serve.execute_ms.{name}.p99"), t.value, "ms");
        report.put(format!("serve.execute_n.{name}"), t.n as f64, "count");
    }
    // From the daemons' own stats replies (lo + hi) and the last
    // metrics scrape.
    let stat = |p: &Phase, path: &[&str]| p.stats.as_ref().and_then(|s| s.num(path)).unwrap_or(0.0);
    let sum = |path: &[&str]| stat(lo, path) + stat(hi, path);
    let lookups = sum(&["cache", "hits"]) + sum(&["cache", "misses"]);
    report.put(
        "serve.hit_ratio",
        sum(&["cache", "hits"]) / lookups.max(1.0),
        "ratio",
    );
    report.put("serve.cache_lookups", lookups, "count");
    report.put(
        "serve.worker_utilization",
        stat(hi, &["workers", "utilization"]),
        "ratio",
    );
    report.put("serve.busy", sum(&["requests", "busy"]), "count");
    report.put("serve.timeouts", sum(&["requests", "timeouts"]), "count");
    report.put("serve.errors", sum(&["requests", "errors"]), "count");
    let body = hi.metrics_body.as_deref().unwrap_or("");
    report.put(
        "serve.queue_wait_ms.p99",
        stage_quantile_ms(body, "queue_wait", 0.99),
        "ms",
    );
    for stage in ["load", "compile", "simulate", "serialize"] {
        report.put(
            format!("serve.stage_ms.{stage}.p50"),
            stage_quantile_ms(body, stage, 0.5),
            "ms",
        );
    }

    // Scrapes inside the timed mix, client-timed from intended send.
    for (kind, name) in [(Kind::Stats, "stats"), (Kind::Metrics, "metrics")] {
        let ms: Vec<f64> = [lo, hi]
            .iter()
            .flat_map(|p| p.reqs.iter().zip(&p.out.lat_ms))
            .filter(|(r, _)| r.kind == kind)
            .map(|(_, &ms)| ms)
            .collect();
        report.put(format!("serve.scrape_ms.{name}"), median(&ms), "ms");
    }

    let lags: Vec<f64> = lo
        .out
        .lag_ms
        .iter()
        .chain(&hi.out.lag_ms)
        .copied()
        .collect();
    report.put("loadgen.send_lag_ms.p99", tail(&lags, 99.0).value, "ms");
    report.put("loadgen.offered_rps", hi.out.offered_rps, "req/s");
    report.put("loadgen.backlog_end", hi.out.backlog_end as f64, "count");
    report.put("loadgen.samples.lo", lo.out.lat_ms.len() as f64, "count");
    report.put("loadgen.samples.hi", hi.out.lat_ms.len() as f64, "count");
}

/// The `q` quantile of one stage of the `sp_stage_seconds` histogram in
/// a Prometheus text body, ms (the upper bound of the bucket holding
/// it); 0 when the stage recorded nothing.
pub fn stage_quantile_ms(body: &str, stage: &str, q: f64) -> f64 {
    let prefix = format!("sp_stage_seconds_bucket{{stage=\"{stage}\",le=\"");
    let buckets: Vec<(f64, f64)> = body
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect();
    let total = buckets.last().map_or(0.0, |b| b.1);
    if total <= 0.0 {
        return 0.0;
    }
    buckets
        .iter()
        .find(|(_, cumulative)| *cumulative >= q * total)
        .filter(|(le, _)| le.is_finite())
        .map_or(0.0, |(le, _)| le * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_per_seed_and_phase() {
        let a = mix(7, 1, 600, 0);
        assert_eq!(mix_digest(&a), mix_digest(&mix(7, 1, 600, 0)));
        assert_ne!(mix_digest(&a), mix_digest(&mix(8, 1, 600, 0)));
        assert_ne!(mix_digest(&a), mix_digest(&mix(7, 2, 600, 0)));
        assert_eq!(arrivals(7, 1, 50, 1000.0), arrivals(7, 1, 50, 1000.0));
        assert_ne!(arrivals(7, 1, 50, 1000.0), arrivals(8, 1, 50, 1000.0));
    }

    #[test]
    fn mix_covers_every_kind_and_kernel_and_parses() {
        let reqs = mix(3, 1, 3000, 0);
        for kind in [
            Kind::Point,
            Kind::Sweep,
            Kind::Affinity,
            Kind::Stats,
            Kind::Metrics,
        ] {
            assert!(reqs.iter().any(|r| r.kind == kind), "{kind:?}");
        }
        for (k, name) in adapter::kernel_names().iter().enumerate() {
            assert!(
                reqs.iter().any(|r| r.kernel == k && r.line.contains(name)),
                "{name}"
            );
        }
        assert!(reqs
            .iter()
            .all(|r| adapter::parse(r.line.trim_end()).is_ok()));
        assert_eq!(reqs.iter().filter(|r| r.kind == Kind::Stats).count(), 12);
        assert_eq!(reqs.iter().filter(|r| r.kind == Kind::Metrics).count(), 6);
        // Set-up keys never collide with the timed mix's.
        let timed: std::collections::HashSet<String> = reqs
            .iter()
            .filter_map(|r| adapter::parse(r.line.trim_end()).ok()?.cache_key())
            .collect();
        for l in warm_lines() {
            let key = adapter::parse(l.trim_end()).unwrap().cache_key().unwrap();
            assert!(!timed.contains(&key), "{key}");
        }
    }

    #[test]
    fn arrival_and_mix_streams_are_decorrelated() {
        // Same seed, same phase: the gap sequence must not be a function
        // of the key sequence (distinct salts).
        let mut a = Rng::new(5 ^ MIX_SALT ^ 1u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut b = Rng::new(5 ^ ARRIVAL_SALT ^ 1u64.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn replies_split_into_result_or_error() {
        let ok = "{\"corr\":\"c1\",\"id\":42,\"ok\":true,\"cached\":false,\"micros\":9,\"result\":{\"a\":1}}\n";
        assert_eq!(parse_reply(ok, 42), Some(Reply::Ok("{\"a\":1}".into())));
        assert_eq!(parse_reply(ok, 41), None);
        let err = "{\"corr\":\"c2\",\"id\":7,\"ok\":false,\"error\":\"busy\",\"detail\":\"x\"}";
        assert_eq!(parse_reply(err, 7), Some(Reply::Err("busy".into())));
    }

    #[test]
    fn stage_quantile_reads_cumulative_buckets() {
        let body = "sp_stage_seconds_bucket{stage=\"simulate\",le=\"0.001\"} 2\n\
                    sp_stage_seconds_bucket{stage=\"simulate\",le=\"0.004\"} 9\n\
                    sp_stage_seconds_bucket{stage=\"simulate\",le=\"+Inf\"} 10\n";
        assert_eq!(stage_quantile_ms(body, "simulate", 0.5), 4.0);
        assert_eq!(stage_quantile_ms(body, "simulate", 0.1), 1.0);
        assert_eq!(stage_quantile_ms(body, "load", 0.5), 0.0);
    }
}
