//! End-to-end daemon tests over a real loopback socket: cache
//! miss→hit, backpressure, deadlines, stats, graceful drain.

use sp_serve::{Json, Server, ServerConfig, MAX_CONNECTIONS};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Start a server on an ephemeral port; returns its address and the
/// thread running the accept loop (joins once the server drains).
fn start(cfg: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..cfg
    };
    let server = Server::bind(&cfg).expect("bind loopback");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "unterminated reply {line:?}");
        Json::parse(line.trim()).expect("reply is JSON")
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }

    /// True when the server closed the connection (clean EOF).
    fn at_eof(&mut self) -> bool {
        let mut line = String::new();
        matches!(self.reader.read_line(&mut line), Ok(0))
    }
}

fn ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
}

fn cached(v: &Json) -> Option<bool> {
    v.get("cached").and_then(Json::as_bool)
}

fn result_text(v: &Json) -> String {
    v.get("result").expect("result field").encode()
}

#[test]
fn serves_caches_reports_and_drains() {
    let (addr, server) = start(ServerConfig {
        workers: 2,
        queue: 8,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);

    // Liveness, with the id echoed back.
    let pong = c.roundtrip("{\"id\":1,\"type\":\"ping\"}");
    assert!(ok(&pong), "{pong:?}");
    assert_eq!(pong.get("id").and_then(Json::as_u64), Some(1));

    // A sweep computes once, then repeats are served from cache with a
    // byte-identical result payload.
    let sweep = "{\"id\":2,\"type\":\"sweep\",\"bench\":\"em3d\",\"distances\":[2,4]}";
    let first = c.roundtrip(sweep);
    assert!(ok(&first), "{first:?}");
    assert_eq!(cached(&first), Some(false));
    let second = c.roundtrip(sweep);
    assert!(ok(&second), "{second:?}");
    assert_eq!(cached(&second), Some(true), "identical repeat must hit");
    assert_eq!(result_text(&first), result_text(&second));

    // A default-spelled variant of the same request also hits (keys are
    // built from resolved values, not raw text).
    let spelled = "{\"id\":3,\"type\":\"sweep\",\"bench\":\"em3d\",\"scale\":\"test\",\
                   \"rp\":0.5,\"distances\":[2,4],\"cache\":\"scaled\"}";
    let third = c.roundtrip(spelled);
    assert_eq!(cached(&third), Some(true), "{third:?}");

    // Malformed input gets a bad_request error, not a dropped connection.
    let bad = c.roundtrip("{\"type\":\"warp\"}");
    assert!(!ok(&bad));
    assert_eq!(bad.get("error").and_then(Json::as_str), Some("bad_request"));

    // Stats reflect everything above.
    let stats = c.roundtrip("{\"type\":\"stats\"}");
    assert!(ok(&stats), "{stats:?}");
    let r = stats.get("result").unwrap();
    let total = r
        .get("requests")
        .and_then(|q| q.get("total"))
        .and_then(Json::as_u64)
        .unwrap();
    assert!(total >= 6, "stats total {total}");
    let hits = r
        .get("cache")
        .and_then(|cch| cch.get("hits"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(hits, 2, "two cache hits recorded");
    assert!(
        r.get("latency_us").and_then(Json::as_arr).is_some(),
        "latency histogram present"
    );

    // An eventful sweep keys separately from the plain one (miss, not
    // hit) and its points carry event summaries.
    let eventful = c.roundtrip(
        "{\"id\":4,\"type\":\"sweep\",\"bench\":\"em3d\",\"distances\":[2,4],\"events\":true}",
    );
    assert!(ok(&eventful), "{eventful:?}");
    assert_eq!(cached(&eventful), Some(false), "events=true is a new key");
    let points = eventful
        .get("result")
        .and_then(|r| r.get("points"))
        .and_then(Json::as_arr)
        .unwrap();
    assert!(
        points.iter().all(|p| p.get("events").is_some()),
        "{eventful:?}"
    );

    // The Prometheus exposition reflects the daemon and event counters.
    let prom = c.roundtrip("{\"type\":\"metrics\"}");
    assert!(ok(&prom), "{prom:?}");
    let r = prom.get("result").unwrap();
    assert_eq!(
        r.get("content_type").and_then(Json::as_str),
        Some("text/plain; version=0.0.4")
    );
    let body = r.get("body").and_then(Json::as_str).unwrap();
    assert!(body.contains("# TYPE sp_request_latency_us histogram"));
    assert!(
        body.contains("sp_request_latency_us_bucket{le=\"+Inf\"}"),
        "histogram buckets exposed"
    );
    assert!(body.contains("sp_cache_hits_total 2"), "got {body}");
    // The eventful sweep above fed the aggregate event totals: a
    // baseline plus two points.
    assert!(body.contains("sp_events_runs_total 3"), "got {body}");
    let issued_line = body
        .lines()
        .find(|l| l.starts_with("sp_events_prefetch_issued_total{class=\"helper\"}"))
        .expect("helper issued series");
    let issued: u64 = issued_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(issued > 0, "eventful runs issued helper prefetches");

    // Per-stage wall-time histograms, folded from the runtime spans.
    // cache_lookup spans flush with the handler's request span before
    // the reply is written, so the sweeps above are already folded.
    assert!(
        body.contains("# TYPE sp_stage_seconds histogram"),
        "got {body}"
    );
    let lookup_line = body
        .lines()
        .find(|l| l.starts_with("sp_stage_seconds_count{stage=\"cache_lookup\"}"))
        .expect("cache_lookup stage series");
    let lookups: u64 = lookup_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(lookups > 0, "cache lookups folded, got {body}");
    assert!(
        body.contains("sp_stage_seconds_bucket{stage=\"simulate\",le=\"+Inf\"}"),
        "simulate stage exposed, got {body}"
    );

    // Graceful drain: shutdown is acknowledged, the connection closes,
    // and the accept loop exits cleanly.
    let bye = c.roundtrip("{\"type\":\"shutdown\"}");
    assert!(ok(&bye), "{bye:?}");
    assert!(c.at_eof(), "server closes the connection after shutdown");
    server.join().unwrap().unwrap();
}

#[test]
fn sheds_load_with_busy_instead_of_stalling() {
    // One worker, one queue slot: a third in-flight request must be
    // rejected immediately, not stalled behind the others.
    let (addr, server) = start(ServerConfig {
        workers: 1,
        queue: 1,
        ..ServerConfig::default()
    });
    let mut c1 = Client::connect(addr);
    let mut c2 = Client::connect(addr);
    let mut c3 = Client::connect(addr);

    c1.send("{\"id\":1,\"type\":\"burn\",\"ms\":600}");
    // Let the worker dequeue c1's burn so the queue is empty again.
    std::thread::sleep(Duration::from_millis(200));
    c2.send("{\"id\":2,\"type\":\"burn\",\"ms\":100}"); // parks in the queue
    std::thread::sleep(Duration::from_millis(100));
    c3.send("{\"id\":3,\"type\":\"burn\",\"ms\":100}"); // queue full -> busy

    let rejected = c3.recv();
    assert!(!ok(&rejected), "{rejected:?}");
    assert_eq!(
        rejected.get("error").and_then(Json::as_str),
        Some("busy"),
        "{rejected:?}"
    );

    // The queued work still completes in order.
    let first = c1.recv();
    assert!(ok(&first), "{first:?}");
    let second = c2.recv();
    assert!(ok(&second), "{second:?}");

    // The shed request is visible in stats, and a retry now succeeds.
    let stats = c3.roundtrip("{\"type\":\"stats\"}");
    let busy = stats
        .get("result")
        .and_then(|r| r.get("requests"))
        .and_then(|q| q.get("busy"))
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(busy, 1, "{stats:?}");
    let retry = c3.roundtrip("{\"id\":4,\"type\":\"burn\",\"ms\":1}");
    assert!(ok(&retry), "{retry:?}");

    c1.roundtrip("{\"type\":\"shutdown\"}");
    server.join().unwrap().unwrap();
}

#[test]
fn deadline_overruns_get_a_timeout_reply() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);
    let reply = c.roundtrip("{\"id\":9,\"type\":\"burn\",\"ms\":400,\"timeout_ms\":20}");
    assert!(!ok(&reply), "{reply:?}");
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("timeout"));
    assert_eq!(reply.get("id").and_then(Json::as_u64), Some(9));

    // The connection survives a timeout; later requests still work.
    let pong = c.roundtrip("{\"type\":\"ping\"}");
    assert!(ok(&pong), "{pong:?}");

    c.roundtrip("{\"type\":\"shutdown\"}");
    server.join().unwrap().unwrap();
}

/// Poll `stats` on `c` until `path` (a chain of object keys) reads at
/// least `want`.
fn wait_for_stat(c: &mut Client, path: &[&str], want: u64) {
    for _ in 0..3000 {
        let stats = c.roundtrip("{\"type\":\"stats\"}");
        let mut v = stats.get("result").expect("stats result");
        for key in path {
            v = v
                .get(key)
                .unwrap_or_else(|| panic!("no {key} in {stats:?}"));
        }
        if v.as_u64().expect("a count") >= want {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("stats {path:?} never reached {want}");
}

#[test]
fn timed_out_result_is_still_cached_for_the_retry() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);
    // Occupy the single worker first, so the point below must queue
    // behind the burn and cannot finish within its zero deadline.
    let mut blocker = Client::connect(addr);
    blocker.send("{\"type\":\"burn\",\"ms\":300}");
    // The burn is counted just before it is submitted to the pool; the
    // short sleep covers that gap.
    wait_for_stat(&mut c, &["requests", "by_kind", "burn"], 1);
    std::thread::sleep(Duration::from_millis(50));

    // The reply times out, but the worker finishes and fills the cache
    // anyway.
    let q = "{\"type\":\"point\",\"bench\":\"em3d\",\"distance\":4,\"timeout_ms\":0}";
    let reply = c.roundtrip(q);
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("timeout"));
    assert!(ok(&blocker.recv()));

    // Wait for the worker to finish the point (burn + point), then retry
    // without a deadline.
    wait_for_stat(&mut c, &["workers", "completed"], 2);
    let retry = c.roundtrip("{\"type\":\"point\",\"bench\":\"em3d\",\"distance\":4}");
    assert!(ok(&retry), "{retry:?}");
    assert_eq!(cached(&retry), Some(true), "retry served from cache");

    c.roundtrip("{\"type\":\"shutdown\"}");
    server.join().unwrap().unwrap();
}

#[test]
fn deeply_nested_request_is_a_bad_request_not_a_crash() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    // Unbounded recursion on this line would overflow the connection
    // thread's stack and abort the whole daemon. (It stays under the
    // 64 KiB line cap, so it reaches the JSON parser.)
    let mut c = Client::connect(addr);
    let reply = c.roundtrip(&"[".repeat(60_000));
    assert!(!ok(&reply), "{reply:?}");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("bad_request"),
        "{reply:?}"
    );

    // The daemon is still up and serving.
    let mut fresh = Client::connect(addr);
    let stats = fresh.roundtrip("{\"type\":\"stats\"}");
    assert!(ok(&stats), "{stats:?}");

    fresh.roundtrip("{\"type\":\"shutdown\"}");
    server.join().unwrap().unwrap();
}

/// The `errors` counter of a `stats` reply.
fn error_count(c: &mut Client) -> u64 {
    let stats = c.roundtrip("{\"type\":\"stats\"}");
    stats
        .get("result")
        .and_then(|r| r.get("requests"))
        .and_then(|q| q.get("errors"))
        .and_then(Json::as_u64)
        .expect("stats carry an error count")
}

/// Send `shutdown`, expect its reply to be the next one on the wire (so
/// nothing earlier was answered twice), then the close.
fn shut_down(mut c: Client, server: std::thread::JoinHandle<std::io::Result<()>>) {
    let bye = c.roundtrip("{\"type\":\"shutdown\"}");
    assert_eq!(
        bye.get("result").map(Json::encode).as_deref(),
        Some("{\"draining\":true}"),
        "{bye:?}"
    );
    assert!(c.at_eof(), "no reply may follow the shutdown reply");
    server.join().unwrap().unwrap();
}

#[test]
fn oversized_line_is_answered_once_without_waiting_for_its_newline() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);
    // 1 MiB and no newline: the daemon must answer once the line
    // overflows its buffer, not buffer the whole thing.
    c.writer.write_all(&vec![b'x'; 1 << 20]).unwrap();
    let reply = c.recv();
    assert!(!ok(&reply), "{reply:?}");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("line_too_long"),
        "{reply:?}"
    );
    // The newline ending the oversized line gets no second reply; the
    // connection stays open for the next request.
    c.writer.write_all(b"\n").unwrap();
    let pong = c.roundtrip("{\"type\":\"ping\"}");
    assert!(ok(&pong), "{pong:?}");
    assert_eq!(error_count(&mut c), 1);
    shut_down(c, server);
}

#[test]
fn non_utf8_line_is_a_bad_request_and_the_connection_survives() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);
    c.writer
        .write_all(b"{\"type\":\"ping\",\"id\":\"\xff\xfe\"}\n")
        .unwrap();
    let reply = c.recv();
    assert!(!ok(&reply), "{reply:?}");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("bad_request"),
        "{reply:?}"
    );
    let pong = c.roundtrip("{\"type\":\"ping\"}");
    assert!(ok(&pong), "{pong:?}");
    assert_eq!(error_count(&mut c), 1);
    shut_down(c, server);
}

/// The `busy` counter of a `stats` reply.
fn busy_count(c: &mut Client) -> u64 {
    let stats = c.roundtrip("{\"type\":\"stats\"}");
    stats
        .get("result")
        .and_then(|r| r.get("requests"))
        .and_then(|q| q.get("busy"))
        .and_then(Json::as_u64)
        .expect("stats carry a busy count")
}

/// Connect one past the cap: expect a single `busy` line, then EOF.
/// Returns false when the daemon served the connection instead.
fn refused(addr: SocketAddr) -> bool {
    let mut c = Client::connect(addr);
    c.reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut line = String::new();
    if c.reader.read_line(&mut line).is_err() {
        return false; // nothing sent: the daemon is waiting for a request
    }
    let reply = Json::parse(line.trim()).expect("reply is JSON");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("busy"),
        "{reply:?}"
    );
    assert!(c.at_eof(), "a refused connection must be closed");
    true
}

#[test]
fn connections_over_the_cap_are_answered_busy_and_closed() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    // Fill the cap with idle connections, each confirmed live by a ping.
    // Connecting in batches lets the accept loop take a whole batch per
    // wake-up while staying inside the listen backlog.
    let mut idle: Vec<Client> = Vec::new();
    while idle.len() < MAX_CONNECTIONS {
        let batch = (MAX_CONNECTIONS - idle.len()).min(64);
        let mut fresh: Vec<Client> = (0..batch).map(|_| Client::connect(addr)).collect();
        for c in &mut fresh {
            assert!(ok(&c.roundtrip("{\"type\":\"ping\"}")));
        }
        idle.append(&mut fresh);
    }
    assert!(
        refused(addr),
        "connection {} was served",
        MAX_CONNECTIONS + 1
    );
    assert_eq!(busy_count(&mut idle[0]), 1);

    // Closing one idle connection frees a slot: a new connection is
    // served once its handler has exited (refusals until then count).
    drop(idle.pop());
    let mut refusals = 1;
    let mut fresh = loop {
        let mut c = Client::connect(addr);
        c.reader
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        c.send("{\"type\":\"ping\"}");
        let mut line = String::new();
        match c.reader.read_line(&mut line) {
            Ok(_) if line.contains("\"busy\"") => {
                refusals += 1;
                assert!(refusals < 100, "the freed slot was never reused");
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(_) => {
                let pong = Json::parse(line.trim()).expect("reply is JSON");
                assert!(ok(&pong), "{pong:?}");
                break c;
            }
            Err(_) => {
                // Refused with our ping unread: the close may reset.
                refusals += 1;
                assert!(refusals < 100, "the freed slot was never reused");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    assert_eq!(busy_count(&mut fresh), refusals);
    drop(idle);
    shut_down(fresh, server);
}

/// The value at `path` (dot-separated object keys) of a `stats` result.
fn stat(stats: &Json, path: &str) -> u64 {
    let mut v = stats;
    for key in path.split('.') {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("no {path} in {stats:?}"));
    }
    v.as_u64().expect("a count")
}

/// The value of the exposition sample whose series is exactly `series`.
fn sample(body: &str, series: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {series} in {body}"))
        .parse()
        .expect("an integer sample")
}

#[test]
fn stats_and_metrics_agree_on_every_shared_value() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);
    let point = "{\"type\":\"point\",\"bench\":\"em3d\",\"distance\":8}";
    assert_eq!(cached(&c.roundtrip(point)), Some(false), "scripted miss");
    assert_eq!(cached(&c.roundtrip(point)), Some(true), "scripted hit");
    assert!(!ok(&c.roundtrip("{\"type\":\"warp\"}")), "scripted error");
    // The pool counts a job done after its reply is sent; wait for it
    // so the two scrapes below see the same completed count.
    wait_for_stat(&mut c, &["workers", "completed"], 1);

    let stats = c.roundtrip("{\"type\":\"stats\"}");
    let stats = stats.get("result").expect("stats result");
    let metrics = c.roundtrip("{\"type\":\"metrics\"}");
    let body = metrics
        .get("result")
        .and_then(|r| r.get("body"))
        .and_then(Json::as_str)
        .expect("metrics body");
    // (stats path, exposition series, what the metrics request itself
    // adds): the scrape counts as one more request of kind `metrics`,
    // and the latency histogram has since recorded the `stats` request.
    let mut pairs = vec![
        (
            "requests.total".to_string(),
            "sp_requests_total".to_string(),
            1,
        ),
        ("requests.busy".into(), "sp_busy_rejections_total".into(), 0),
        ("requests.timeouts".into(), "sp_timeouts_total".into(), 0),
        ("requests.errors".into(), "sp_errors_total".into(), 0),
        ("cache.entries".into(), "sp_cache_entries".into(), 0),
        ("cache.capacity".into(), "sp_cache_capacity".into(), 0),
        ("cache.hits".into(), "sp_cache_hits_total".into(), 0),
        ("cache.misses".into(), "sp_cache_misses_total".into(), 0),
        ("queue.depth".into(), "sp_queue_depth".into(), 0),
        ("queue.capacity".into(), "sp_queue_capacity".into(), 0),
        ("workers.count".into(), "sp_workers".into(), 0),
        (
            "workers.completed".into(),
            "sp_jobs_completed_total".into(),
            0,
        ),
        (
            "latency.count".into(),
            "sp_request_latency_us_count".into(),
            1,
        ),
    ];
    for kind in [
        "sweep", "point", "affinity", "burn", "stats", "metrics", "ping", "shutdown",
    ] {
        pairs.push((
            format!("requests.by_kind.{kind}"),
            format!("sp_requests_by_kind_total{{kind=\"{kind}\"}}"),
            u64::from(kind == "metrics"),
        ));
    }
    for (path, series, scrape) in &pairs {
        assert_eq!(
            stat(stats, path) + scrape,
            sample(body, series),
            "{path} vs {series}"
        );
    }
    assert_eq!(stat(stats, "cache.hits"), 1);
    assert_eq!(stat(stats, "cache.misses"), 1);
    assert_eq!(stat(stats, "requests.errors"), 1);
    assert!(sample(body, "sp_uptime_ms") >= stat(stats, "uptime_ms"));
    assert!(sample(body, "sp_request_latency_us_sum") >= stat(stats, "latency.sum_us"));
    shut_down(c, server);
}

#[test]
fn unschedulable_and_oversized_requests_are_bad_requests_before_any_job() {
    let (addr, server) = start(ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(addr);
    for line in [
        // RP 1 leaves no room to skip: only distance 0 is a schedule.
        "{\"type\":\"point\",\"bench\":\"em3d\",\"scale\":\"test\",\"distance\":8,\"rp\":1}",
        "{\"type\":\"sweep\",\"bench\":\"em3d\",\"scale\":\"test\",\"distances\":[0,4],\"rp\":1}",
        // A_SKI + A_PRE would overflow a u32.
        "{\"type\":\"point\",\"bench\":\"em3d\",\"scale\":\"test\",\"distance\":4294967295}",
        // Just above the capacity cap: a 512 MiB L2.
        "{\"type\":\"point\",\"bench\":\"em3d\",\"scale\":\"test\",\"l2_kb\":524288}",
        // Past the associativity cap: recency ranks are one byte.
        "{\"type\":\"point\",\"bench\":\"em3d\",\"scale\":\"test\",\"ways\":256}",
    ] {
        let reply = c.roundtrip(line);
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{line} -> {reply:?}"
        );
    }
    let stats = c.roundtrip("{\"type\":\"stats\"}");
    let stats = stats.get("result").expect("stats result");
    assert_eq!(stat(stats, "workers.panicked"), 0, "{stats:?}");
    assert_eq!(stat(stats, "requests.timeouts"), 0, "{stats:?}");
    assert_eq!(stat(stats, "workers.completed"), 0, "no job was queued");
    shut_down(c, server);
}
