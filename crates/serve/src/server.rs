//! The sp-serve daemon: a TCP accept loop, per-connection handler
//! threads, and the admission path gluing protocol → cache → pool →
//! engine together.
//!
//! ## Request path
//!
//! ```text
//! accept ── over MAX_CONNECTIONS: one busy line, close
//! read line ── parse ──┬─ ping/stats/shutdown: answered inline
//!   (≤ 64 KiB, UTF-8)  ├─ oversized / malformed: error reply
//!                      └─ sweep/point/affinity/burn:
//!                           cache hit ───────────────► reply cached:true
//!                           cache miss ─ try_submit ─┬─ queued: wait
//!                           (bounded, never blocks)  └─ full: reply busy
//! ```
//!
//! A queued job computes on a pool worker, **inserts into the cache
//! itself**, then notifies the waiting handler. The insert happens on
//! the worker so a request that hits its deadline does not lose the
//! result — the client's retry finds it cached.
//!
//! ## Shutdown
//!
//! A `shutdown` request, SIGINT, or SIGTERM raises the drain flag. The
//! accept loop stops accepting; handler threads notice within one read
//! timeout and close; the pool finishes queued work and joins. Nothing
//! in flight is abandoned.

use crate::cache::ResultCache;
use crate::engine::SimEngine;
use crate::json::Json;
use crate::metrics::{
    daemon_families, render_prometheus, render_stats, Family, Gauges, Metrics, StageTimes,
};
use crate::protocol::{error_response, ok_response, with_corr, Command, Request};
use sp_obs::CorrId;
use sp_runner::{SubmitError, WorkerPool};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

/// Unix signal plumbing without a libc dependency: `signal(2)` is in
/// libc, which std already links, so declare just that symbol and park
/// a flag-setting handler on SIGINT/SIGTERM (async-signal-safe: one
/// relaxed atomic store).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        REQUESTED.store(true, Ordering::Relaxed);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    #[allow(unsafe_code)]
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: the declaration matches C's `sighandler_t signal(int,
        // sighandler_t)` at the ABI level (an `int`, a function pointer,
        // a pointer-sized return), and both arguments are valid: a
        // signal number and an `extern "C"` function that lives for the
        // whole program. The handler only does a relaxed store to a
        // static atomic, which is async-signal-safe: it takes no lock,
        // allocates nothing and touches no other state.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn requested() -> bool {
        REQUESTED.load(Ordering::Relaxed)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn requested() -> bool {
        false
    }
}

/// Daemon tunables. `Default` is what `spt serve` starts with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Pool workers (`0` = all cores).
    pub workers: usize,
    /// Admission-queue slots; a full queue answers `busy`.
    pub queue: usize,
    /// Result-cache entries.
    pub cache_entries: usize,
    /// Result-cache shards.
    pub shards: usize,
    /// Deadline for requests that don't set `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Requests slower than this log their access line at `warn`
    /// instead of `info`.
    pub slow_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7077".to_string(),
            workers: 0,
            queue: 64,
            cache_entries: 256,
            shards: 8,
            default_timeout_ms: 30_000,
            slow_ms: 1_000,
        }
    }
}

/// Per-stage wall-time histograms, process-wide. Spans are collected in
/// one process-global buffer (see `sp_obs::span`), so the fold lives at
/// the same scope; every `Server` in the process exposes the same
/// stage histograms, exactly as every server shares one span stream.
fn stage_times() -> &'static StageTimes {
    static STAGES: OnceLock<StageTimes> = OnceLock::new();
    STAGES.get_or_init(StageTimes::default)
}

/// Drain the span collector and fold stage durations into the
/// process-wide histograms. Called after each request and before each
/// `metrics` render, so scrapes see the freshest completed spans.
fn fold_stages() {
    for rec in sp_obs::span::drain() {
        stage_times().record_us(rec.name, rec.dur_us);
    }
}

/// Everything a connection handler needs, behind one `Arc`.
struct Shared {
    engine: SimEngine,
    cache: ResultCache,
    metrics: Metrics,
    pool: WorkerPool,
    draining: AtomicBool,
    default_timeout_ms: u64,
    slow_ms: u64,
    started: Instant,
    /// Test seam: the next queued job panics on its worker.
    #[cfg(test)]
    panic_next: AtomicBool,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed) || sig::requested()
    }
}

/// The sp-serve daemon. [`Server::bind`], then [`Server::run`] — which
/// blocks until a `shutdown` request, SIGINT, or SIGTERM drains it.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the listen socket and build the worker pool. The daemon is
    /// not serving until [`run`](Server::run).
    pub fn bind(cfg: &ServerConfig) -> std::io::Result<Server> {
        // The daemon leaves span recording on: spans are coarse (one
        // per pipeline stage, not per access) and feed the per-stage
        // histograms and the access log's queue attribution.
        sp_obs::logger::init_from_env();
        sp_obs::span::start_recording();
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            local_addr,
            shared: Arc::new(Shared {
                engine: SimEngine::new(),
                cache: ResultCache::new(cfg.cache_entries, cfg.shards),
                metrics: Metrics::default(),
                pool: WorkerPool::new(cfg.workers, cfg.queue),
                draining: AtomicBool::new(false),
                default_timeout_ms: cfg.default_timeout_ms,
                slow_ms: cfg.slow_ms,
                started: Instant::now(),
                #[cfg(test)]
                panic_next: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of pool workers (after `0` → core-count resolution).
    pub fn workers(&self) -> usize {
        self.shared.pool.workers()
    }

    /// Accept and serve until drained. Installs the SIGINT/SIGTERM
    /// handler, so ctrl-c and `kill` drain instead of aborting.
    pub fn run(self) -> std::io::Result<()> {
        sig::install();
        sp_obs::log_info!(
            "serve",
            "listening",
            addr = self.local_addr,
            workers = self.shared.pool.workers(),
            queue = self.shared.pool.capacity(),
            cache_entries = self.shared.cache.capacity(),
        );
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    handlers.retain(|h| !h.is_finished());
                    if handlers.len() >= MAX_CONNECTIONS {
                        // One `busy` line, counted with the admission-queue
                        // rejections, then close.
                        let m = &self.shared.metrics;
                        m.busy_rejections.fetch_add(1, Ordering::Relaxed);
                        let reply = error_response(&None, "busy", "connection limit reached");
                        let mut stream = stream;
                        let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                        let _ = writeln!(stream, "{reply}");
                        continue;
                    }
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || {
                        handle_connection(stream, shared)
                    }));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
            // Reap finished handlers so a long-lived daemon's handle
            // list stays bounded by the number of *live* connections.
            handlers.retain(|h| !h.is_finished());
        }
        sp_obs::log_info!(
            "serve",
            "draining",
            live_connections = handlers.iter().filter(|h| !h.is_finished()).count(),
            queued = self.shared.pool.queue_depth(),
        );
        for h in handlers {
            let _ = h.join();
        }
        self.shared.pool.shutdown();
        sp_obs::log_info!("serve", "drained", completed = self.shared.pool.completed());
        Ok(())
    }
}

/// Most connections served at once (one handler thread each). One more
/// is answered with a single `busy` line and closed, so idle sockets
/// cannot grow the daemon's thread count without bound.
pub const MAX_CONNECTIONS: usize = 256;

/// Longest request line the daemon buffers, newline included. A longer
/// line is answered `line_too_long` as soon as it overflows, and the
/// rest of it is discarded up to its newline.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Per-connection loop: accumulate bytes into a line buffer, serve each
/// complete line. The buffer never holds more than `MAX_LINE_BYTES + 1`
/// bytes, whatever the client sends. The 250 ms read timeout is the
/// drain poll interval — on timeout the partial line is kept, never
/// discarded.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    // Inside an oversized line that has already been answered.
    let mut skipping = false;
    loop {
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {
                let complete = line.ends_with(b"\n");
                if !complete && line.len() <= MAX_LINE_BYTES {
                    continue; // partial line; keep accumulating
                }
                let answered = std::mem::replace(&mut skipping, !complete);
                if !answered {
                    let (reply, close) = serve_line(&shared, &line);
                    if writer
                        .write_all(reply.as_bytes())
                        .and_then(|()| writer.write_all(b"\n"))
                        .is_err()
                    {
                        return;
                    }
                    if close {
                        return;
                    }
                }
                line.clear();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.draining() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// What the access log reports about one request, filled in along the
/// request path.
struct ReqCtx {
    /// The client's `id` field, re-encoded (JSON), when present.
    id: Option<String>,
    /// Wire `type`; `invalid` until the line parses.
    kind: &'static str,
    /// Served from the result cache?
    cached: bool,
    /// Admission-queue wait, microseconds (0 for inline answers).
    queue_us: u64,
    /// `ok`, or the error code sent back.
    outcome: &'static str,
}

impl ReqCtx {
    fn new() -> ReqCtx {
        ReqCtx {
            id: None,
            kind: "invalid",
            cached: false,
            queue_us: 0,
            outcome: "ok",
        }
    }
}

/// Serve one request line; returns `(reply, close_connection)`.
///
/// Wraps the real work in a correlation ID and a `request` span, then —
/// once the span tree has flushed — folds stage durations into the
/// process histograms and emits one structured access-log line
/// (escalated to `warn` past the configured `slow_ms`).
fn serve_line(shared: &Arc<Shared>, line: &[u8]) -> (String, bool) {
    let start = Instant::now();
    let corr = CorrId::next_root();
    let _cg = sp_obs::corr::set_current(corr);
    let mut ctx = ReqCtx::new();
    let (reply, close) = {
        let _sp = sp_obs::span!("request");
        serve_request(shared, line, start, &mut ctx)
    };
    // Echo the correlation ID in every reply so clients (loadgen slow-
    // request exemplars in particular) can join replies against the
    // access log and `spt trace` spans.
    let reply = with_corr(&reply, corr);
    let total_us = start.elapsed().as_micros() as u64;
    shared.metrics.latency.record(total_us);
    fold_stages();
    let level = if total_us >= shared.slow_ms.saturating_mul(1_000) {
        sp_obs::Level::Warn
    } else {
        sp_obs::Level::Info
    };
    sp_obs::sp_log!(
        level,
        "access",
        "request",
        id = ctx.id.as_deref().unwrap_or("-"),
        kind = ctx.kind,
        cached = ctx.cached,
        queue_us = ctx.queue_us,
        total_us = total_us,
        outcome = ctx.outcome,
    );
    (reply, close)
}

/// The request path proper: frame and parse, answer inline kinds, or
/// go through cache → pool → engine. Mutates `ctx` for
/// [`serve_line`]'s access log.
fn serve_request(
    shared: &Arc<Shared>,
    line: &[u8],
    start: Instant,
    ctx: &mut ReqCtx,
) -> (String, bool) {
    let parsed = if line.len() > MAX_LINE_BYTES {
        Err((
            "line_too_long",
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ))
    } else {
        match std::str::from_utf8(line) {
            Ok(text) => Request::parse(text.trim()).map_err(|detail| ("bad_request", detail)),
            Err(e) => Err((
                "bad_request",
                format!("request line is not UTF-8 (byte {})", e.valid_up_to()),
            )),
        }
    };
    let req = match parsed {
        Ok(req) => req,
        Err((code, detail)) => {
            shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            ctx.outcome = code;
            return (error_response(&None, code, &detail), false);
        }
    };
    shared.metrics.count_request(req.kind());
    ctx.kind = req.kind();
    ctx.id = req.id.as_ref().map(|id| id.encode());
    match &req.cmd {
        Command::Ping => {
            let micros = start.elapsed().as_micros() as u64;
            (
                ok_response(&req.id, false, micros, "{\"pong\":true}"),
                false,
            )
        }
        Command::Stats => {
            let payload = render_stats(&families(shared)).encode();
            let micros = start.elapsed().as_micros() as u64;
            (ok_response(&req.id, false, micros, &payload), false)
        }
        Command::Metrics => {
            let payload = metrics_payload(shared);
            let micros = start.elapsed().as_micros() as u64;
            (ok_response(&req.id, false, micros, &payload), false)
        }
        Command::Shutdown => {
            shared.draining.store(true, Ordering::Relaxed);
            let micros = start.elapsed().as_micros() as u64;
            (
                ok_response(&req.id, false, micros, "{\"draining\":true}"),
                true,
            )
        }
        cmd => {
            let key = req.cache_key();
            let hit = {
                let _sp = sp_obs::span!("cache_lookup");
                key.as_deref().and_then(|k| shared.cache.get(k))
            };
            if let Some(hit) = hit {
                shared.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                ctx.cached = true;
                let micros = start.elapsed().as_micros() as u64;
                return (ok_response(&req.id, true, micros, &hit), false);
            }
            if key.is_some() {
                shared.metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            (
                execute_queued(shared, &req, cmd.clone(), key, start, ctx),
                false,
            )
        }
    }
}

/// The miss path: schedule on the pool with backpressure, wait with a
/// deadline. The worker fills the cache before notifying, so a timed-out
/// request's work is kept — the retry hits the cache.
fn execute_queued(
    shared: &Arc<Shared>,
    req: &Request,
    cmd: Command,
    key: Option<String>,
    start: Instant,
    ctx: &mut ReqCtx,
) -> String {
    let (tx, rx) = mpsc::channel::<Result<String, String>>();
    // Written by the worker when it claims the task, so the handler can
    // report queue wait in the access log even though the span stream is
    // folded asynchronously.
    let queue_us = Arc::new(AtomicU64::new(0));
    let task = {
        // The handler may have given up by the time this runs; a dead
        // receiver is fine, the cache insert already happened.
        let shared = Arc::clone(shared);
        let queue_us = Arc::clone(&queue_us);
        let submitted = Instant::now();
        // Re-establish the request's correlation ID on the worker so
        // the engine's spans (and the runner's queue_wait attribution)
        // correlate with this request.
        let corr = sp_obs::corr::current();
        Box::new(move || {
            queue_us.store(submitted.elapsed().as_micros() as u64, Ordering::Relaxed);
            let _cg = corr.map(sp_obs::corr::set_current);
            let _sp = sp_obs::span!("execute");
            #[cfg(test)]
            if shared.panic_next.swap(false, Ordering::Relaxed) {
                panic!("injected worker panic");
            }
            let outcome = shared.engine.execute(&cmd);
            if let (Some(k), Ok(payload)) = (&key, &outcome) {
                shared.cache.put(k, payload.clone());
            }
            let _ = tx.send(outcome);
        })
    };
    match shared.pool.try_submit(task) {
        Ok(()) => {}
        Err(SubmitError::Busy) => {
            shared
                .metrics
                .busy_rejections
                .fetch_add(1, Ordering::Relaxed);
            ctx.outcome = "busy";
            return error_response(&req.id, "busy", "admission queue full; retry later");
        }
        Err(SubmitError::ShuttingDown) => {
            ctx.outcome = "shutting_down";
            return error_response(&req.id, "shutting_down", "server is draining");
        }
    }
    let deadline = Duration::from_millis(req.timeout_ms.unwrap_or(shared.default_timeout_ms));
    let reply = match rx.recv_timeout(deadline) {
        Ok(Ok(payload)) => {
            let micros = start.elapsed().as_micros() as u64;
            ok_response(&req.id, false, micros, &payload)
        }
        Ok(Err(detail)) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            ctx.outcome = "internal";
            error_response(&req.id, "internal", &detail)
        }
        // The pool caught a panic and dropped the task's sender: no
        // result is coming, so this is not a timeout.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
            ctx.outcome = "internal";
            error_response(&req.id, "internal", "worker panicked")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            ctx.outcome = "timeout";
            error_response(
                &req.id,
                "timeout",
                "deadline reached; result will be cached when the run finishes",
            )
        }
    };
    ctx.queue_us = queue_us.load(Ordering::Relaxed);
    reply
}

/// The `metrics` payload: the Prometheus body rendered from the same
/// family list as `stats`, carried as an escaped string so it fits the
/// one-line NDJSON envelope. A scraping bridge unwraps `body` and
/// serves it under the declared `content_type`.
fn metrics_payload(shared: &Shared) -> String {
    // Fold whatever the span collector holds right now, so a scrape
    // reflects every request whose span tree has flushed.
    fold_stages();
    Json::obj()
        .push("content_type", Json::str("text/plain; version=0.0.4"))
        .push("body", Json::str(render_prometheus(&families(shared))))
        .encode()
}

/// Every daemon family over the current counters, with the pool, cache
/// and clock sampled now.
fn families(shared: &Shared) -> Vec<Family<'_>> {
    let pool = &shared.pool;
    let gauges = Gauges {
        uptime_ms: shared.started.elapsed().as_millis() as u64,
        cache_entries: shared.cache.len() as u64,
        cache_capacity: shared.cache.capacity() as u64,
        queue_depth: pool.queue_depth() as u64,
        queue_capacity: pool.capacity() as u64,
        rejected: pool.rejected(),
        workers: pool.workers() as u64,
        completed: pool.completed(),
        panicked: pool.panicked(),
        utilization: pool.report().utilization(),
    };
    daemon_families(
        &shared.metrics,
        stage_times(),
        shared.engine.event_totals(),
        shared.engine.epoch_totals(),
        &gauges,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker panic is in `stats` by the time its `internal` reply
    /// reaches the client: the pool counts the panic before the task's
    /// reply sender drops.
    #[test]
    fn stats_count_a_worker_panic_before_its_reply() {
        let server = Server::bind(&ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let shared = Arc::clone(&server.shared);
        let daemon = std::thread::spawn(move || server.run());
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut ask = |line: &str| {
            writeln!(writer, "{line}").unwrap();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            Json::parse(reply.trim_end()).unwrap()
        };
        let stat = |reply: &Json, group: &str, key: &str| {
            let result = reply.get("result").expect("stats result");
            result
                .get(group)
                .and_then(|g| g.get(key))
                .and_then(Json::as_u64)
        };
        // Prove the daemon is up before arming the seam.
        assert_eq!(
            stat(&ask("{\"type\":\"stats\"}"), "workers", "panicked"),
            Some(0)
        );
        for round in 1..=3 {
            shared.panic_next.store(true, Ordering::Relaxed);
            let reply = ask("{\"type\":\"burn\",\"ms\":1}");
            assert_eq!(reply.get("error").and_then(Json::as_str), Some("internal"));
            assert_eq!(
                reply.get("detail").and_then(Json::as_str),
                Some("worker panicked"),
                "{reply:?}"
            );
            let stats = ask("{\"type\":\"stats\"}");
            assert_eq!(
                stat(&stats, "workers", "panicked"),
                Some(round),
                "{stats:?}"
            );
        }
        ask("{\"type\":\"shutdown\"}");
        daemon.join().unwrap().unwrap();
    }
}
