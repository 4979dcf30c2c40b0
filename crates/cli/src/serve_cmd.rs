//! `spt serve` — run the sp-serve daemon — and `spt loadgen` — drive a
//! seeded request mix against one, closed- or open-loop, and report
//! throughput, outcome counters, and latency percentiles from the
//! shared [`sp_obs::LogLinearHist`]. Their flags and the two arrival
//! models are described on their help pages ([`sp_cli::help::COMMANDS`]).
//! The optional Prometheus body holds the `sp_loadgen_*` families of
//! [`loadgen_families`], rendered and linted by sp-serve's metrics
//! module like the daemon's; the SLO gate is [`crate::slo`].

use crate::slo::{Measured, Slo};
use sp_cli::args::Args;
use sp_obs::LogLinearHist;
use sp_serve::metrics::{build_info, render_prometheus, Family};
use sp_serve::{fnv1a64, Json, Server, ServerConfig};
use sp_trace::rng::SmallRng;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `spt serve`: bind, print the resolved address, serve until drained.
pub fn serve(a: &Args) -> Result<(), String> {
    let cfg = ServerConfig {
        addr: a.get("addr").unwrap_or("127.0.0.1:7077").to_string(),
        workers: a.get_or("workers", 0)?,
        queue: a.get_or("queue", 64)?,
        cache_entries: a.get_or("cache-entries", 256)?,
        shards: a.get_or("shards", 8)?,
        default_timeout_ms: a.get_or("timeout-ms", 30_000)?,
        slow_ms: a.get_or("slow-ms", 1_000)?,
    };
    let server = Server::bind(&cfg).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    println!(
        "sp-serve listening on {} ({} workers, queue {}, cache {} entries)",
        server.local_addr(),
        server.workers(),
        cfg.queue,
        cfg.cache_entries
    );
    println!("drain with a {{\"type\":\"shutdown\"}} request, SIGINT, or SIGTERM");
    server.run().map_err(|e| format!("serve: {e}"))
}

/// The seeded request mix. Deterministic for a given seed: two loadgen
/// runs with the same `--seed` issue byte-identical request lines.
fn request_mix(seed: u64, requests: usize) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let benches = ["em3d", "mcf", "mst"];
    let distances = [2u32, 4, 8, 16, 32];
    (0..requests)
        .map(|id| {
            let bench = benches[rng.gen_range(0..benches.len())];
            match rng.gen_range(0..10u32) {
                // Weighted toward point runs: small keyspace, so repeats
                // exercise the result cache.
                0..=5 => {
                    let d = distances[rng.gen_range(0..distances.len())];
                    format!(
                        "{{\"id\":{id},\"type\":\"point\",\"bench\":\"{bench}\",\
                         \"scale\":\"test\",\"distance\":{d}}}"
                    )
                }
                6..=7 => format!(
                    "{{\"id\":{id},\"type\":\"sweep\",\"bench\":\"{bench}\",\
                     \"scale\":\"test\",\"distances\":[2,4]}}"
                ),
                8 => format!(
                    "{{\"id\":{id},\"type\":\"affinity\",\"bench\":\"{bench}\",\
                     \"scale\":\"test\"}}"
                ),
                _ => format!("{{\"id\":{id},\"type\":\"ping\"}}"),
            }
        })
        .collect()
}

/// Intended send offsets (microseconds from run start) for the open
/// loop. Constant spacing or seeded-Poisson gaps (exponential
/// inter-arrivals, mean `1/rate`); the Poisson stream is derived from
/// `--seed` but decorrelated from the request-mix stream.
fn arrival_offsets_us(n: usize, rate: f64, poisson: bool, seed: u64) -> Vec<u64> {
    let gap_us = 1e6 / rate;
    if !poisson {
        return (0..n).map(|i| (i as f64 * gap_us) as u64).collect();
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xa55a_5a5a_d15e_a5e5);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // Inverse-CDF exponential; 1-u is in (0, 1] so ln is finite.
            t += -(1.0 - rng.gen_f64()).ln() * gap_us;
            t as u64
        })
        .collect()
}

/// How a reply was classified. Only [`Outcome::Ok`] latencies feed the
/// percentile histograms — busy/timeout/error replies are counted but
/// never mixed into latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ok,
    Busy,
    Timeout,
    Error,
}

/// One request's life, in run-relative second buckets — the unit the
/// per-second NDJSON series aggregates over.
struct Completion {
    send_sec: u64,
    done_sec: u64,
    latency_us: u64,
    outcome: Outcome,
}

/// Keep the top slow successful requests for exemplar joining: the
/// server echoes `corr` in every reply, so a slow latency here can be
/// grepped in the daemon's access log and `spt trace` spans.
const EXEMPLARS: usize = 3;

/// What one client connection observed.
struct ClientResult {
    /// Latencies of ok replies only.
    hist: LogLinearHist,
    completions: Vec<Completion>,
    ok: u64,
    cached: u64,
    busy: u64,
    timeouts: u64,
    errors: u64,
    /// XOR of per-request `fnv1a64("{id}:{result}")` — order-independent,
    /// so the combined digest is stable however threads interleave.
    digest: u64,
    /// `(latency_us, id, corr)` of the slowest ok replies, descending.
    exemplars: Vec<(u64, String, String)>,
}

impl ClientResult {
    fn new() -> ClientResult {
        ClientResult {
            hist: LogLinearHist::default(),
            completions: Vec::new(),
            ok: 0,
            cached: 0,
            busy: 0,
            timeouts: 0,
            errors: 0,
            digest: 0,
            exemplars: Vec::new(),
        }
    }

    /// Classify one reply and fold it in. `latency_us` is from the
    /// actual send in closed-loop mode, from the intended send in open
    /// loop.
    fn absorb(
        &mut self,
        reply: &str,
        latency_us: u64,
        send_sec: u64,
        done_sec: u64,
    ) -> Result<(), String> {
        let v = Json::parse(reply.trim()).map_err(|e| format!("bad reply {reply:?}: {e}"))?;
        let outcome = if v.get("ok").and_then(Json::as_bool) == Some(true) {
            self.ok += 1;
            if v.get("cached").and_then(Json::as_bool) == Some(true) {
                self.cached += 1;
            }
            let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
            let result = v.get("result").map(Json::encode).unwrap_or_default();
            self.digest ^= fnv1a64(format!("{id}:{result}").as_bytes());
            self.hist.record(latency_us);
            let corr = v
                .get("corr")
                .and_then(Json::as_str)
                .unwrap_or("-")
                .to_string();
            self.exemplars.push((latency_us, id.to_string(), corr));
            self.exemplars.sort_by_key(|e| std::cmp::Reverse(e.0));
            self.exemplars.truncate(EXEMPLARS);
            Outcome::Ok
        } else {
            match v.get("error").and_then(Json::as_str) {
                Some("busy") => {
                    self.busy += 1;
                    Outcome::Busy
                }
                Some("timeout") => {
                    self.timeouts += 1;
                    Outcome::Timeout
                }
                _ => {
                    self.errors += 1;
                    Outcome::Error
                }
            }
        };
        self.completions.push(Completion {
            send_sec,
            done_sec,
            latency_us,
            outcome,
        });
        Ok(())
    }

    fn fold_into(self, total: &mut ClientResult) -> Result<(), String> {
        total.hist.merge(&self.hist)?;
        total.completions.extend(self.completions);
        total.ok += self.ok;
        total.cached += self.cached;
        total.busy += self.busy;
        total.timeouts += self.timeouts;
        total.errors += self.errors;
        total.digest ^= self.digest;
        total.exemplars.extend(self.exemplars);
        total.exemplars.sort_by_key(|e| std::cmp::Reverse(e.0));
        total.exemplars.truncate(EXEMPLARS);
        Ok(())
    }
}

/// One closed-loop client: send, wait for the reply, send the next.
/// Latency is measured from the actual send — by construction this
/// client never queues more than one request, which is exactly the
/// coordinated-omission blind spot the open loop corrects.
fn run_closed_client(
    addr: &str,
    lines: Vec<String>,
    start: Instant,
) -> Result<ClientResult, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut res = ClientResult::new();
    let mut reply = String::new();
    for line in lines {
        let send_sec = start.elapsed().as_secs();
        let sent = Instant::now();
        writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        reply.clear();
        let n = reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("recv: connection closed".into());
        }
        let latency_us = sent.elapsed().as_micros() as u64;
        res.absorb(&reply, latency_us, send_sec, start.elapsed().as_secs())?;
    }
    Ok(res)
}

/// One open-loop connection: a writer thread fires requests at their
/// intended times while this thread reads replies in order (the daemon
/// serializes replies per connection), charging each reply the time
/// since its **intended** send — queueing delay included.
fn run_open_client(
    addr: &str,
    items: Vec<(u64, String)>,
    start: Instant,
) -> Result<ClientResult, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let expected = items.len();
    let (tx, rx) = mpsc::channel::<u64>();
    let send = std::thread::spawn(move || -> Result<(), String> {
        for (intended_us, line) in items {
            let target = start + Duration::from_micros(intended_us);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.write_all(b"\n"))
                .map_err(|e| format!("send: {e}"))?;
            // The reader learns the intended time only after the write
            // succeeded, so in-order reply matching can't skew.
            if tx.send(intended_us).is_err() {
                return Err("reader hung up".into());
            }
        }
        Ok(())
    });
    let mut res = ClientResult::new();
    let mut reply = String::new();
    let mut read_err = None;
    for _ in 0..expected {
        reply.clear();
        let n = match reader.read_line(&mut reply) {
            Ok(n) => n,
            Err(e) => {
                read_err = Some(format!("recv: {e}"));
                break;
            }
        };
        if n == 0 {
            read_err = Some("recv: connection closed".into());
            break;
        }
        let Ok(intended_us) = rx.recv() else {
            read_err = Some("writer hung up".into());
            break;
        };
        let now_us = start.elapsed().as_micros() as u64;
        let latency_us = now_us.saturating_sub(intended_us);
        res.absorb(
            &reply,
            latency_us,
            intended_us / 1_000_000,
            now_us / 1_000_000,
        )?;
    }
    let send_res = send.join().map_err(|_| "send thread panicked")?;
    send_res?;
    if let Some(e) = read_err {
        return Err(e);
    }
    Ok(res)
}

/// Render the per-second NDJSON time series: offered sends, per-outcome
/// completions, end-of-second inflight, and interval latency
/// percentiles (ok replies completing in that second).
fn series_ndjson(completions: &[Completion]) -> String {
    let mut out = String::new();
    if completions.is_empty() {
        return out;
    }
    let last = completions
        .iter()
        .map(|c| c.done_sec.max(c.send_sec))
        .max()
        .unwrap_or(0);
    for sec in 0..=last {
        let offered = completions.iter().filter(|c| c.send_sec == sec).count();
        let (mut ok, mut busy, mut timeout, mut error) = (0u64, 0u64, 0u64, 0u64);
        let ih = LogLinearHist::default();
        for c in completions.iter().filter(|c| c.done_sec == sec) {
            match c.outcome {
                Outcome::Ok => {
                    ok += 1;
                    ih.record(c.latency_us);
                }
                Outcome::Busy => busy += 1,
                Outcome::Timeout => timeout += 1,
                Outcome::Error => error += 1,
            }
        }
        let inflight_end = completions
            .iter()
            .filter(|c| c.send_sec <= sec && c.done_sec > sec)
            .count();
        let p = ih.percentiles();
        let _ = writeln!(
            out,
            "{{\"sec\":{sec},\"offered\":{offered},\"ok\":{ok},\"busy\":{busy},\
             \"timeout\":{timeout},\"error\":{error},\"inflight_end\":{inflight_end},\
             \"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
            p.p50, p.p90, p.p99, p.max
        );
    }
    out
}

/// The loadgen `--prom` families for one run: outcome counts, the
/// offered schedule, rates, and the latency of ok replies (open loop:
/// from the intended send time). `rate` is the open-loop arrival rate,
/// `None` in closed-loop mode.
fn loadgen_families(
    total: &ClientResult,
    offered: u64,
    rate: Option<f64>,
    achieved_rate: f64,
) -> Vec<Family<'_>> {
    let outcomes = vec![
        ("ok", total.ok),
        ("busy", total.busy),
        ("timeout", total.timeouts),
        ("error", total.errors),
    ];
    vec![
        build_info(),
        Family::labelled("sp_loadgen_requests_total", "outcome", outcomes)
            .help("Loadgen requests by outcome."),
        Family::counter("sp_loadgen_offered_total", offered)
            .help("Requests the arrival schedule offered."),
        Family::gauge_f64("sp_loadgen_offered_rate", rate.unwrap_or(0.0))
            .help("Offered arrival rate, requests/second (0 in closed-loop mode)."),
        Family::gauge_f64("sp_loadgen_achieved_rate", achieved_rate)
            .help("Achieved completion rate, requests/second."),
        Family::gauge("sp_loadgen_open_loop", u64::from(rate.is_some()))
            .help("1 when the run used the open-loop arrival model, else 0."),
        Family::histogram("sp_loadgen_latency_us", &total.hist).help(
            "Latency of successful replies, microseconds (open loop: from intended send time).",
        ),
    ]
}

/// `spt loadgen`: drive the seeded mix closed-loop (default) or
/// open-loop (`--rate`), with optional NDJSON series, Prometheus body,
/// and SLO gating.
pub fn loadgen(a: &Args) -> Result<(), String> {
    let addr = a.get("addr").unwrap_or("127.0.0.1:7077").to_string();
    let requests: usize = a.get_or("requests", 50)?;
    let concurrency: usize = a.get_or("concurrency", 4)?;
    let seed: u64 = a.get_or("seed", 1)?;
    let shutdown = a.get("shutdown") == Some("on");
    let rate = a
        .get("rate")
        .map(|v| match v.parse::<f64>() {
            Ok(r) if r.is_finite() && r > 0.0 => Ok(r),
            _ => Err(format!(
                "--rate must be a positive requests/second, got {v:?}"
            )),
        })
        .transpose()?;
    let poisson = a.get("arrivals") == Some("poisson");
    if poisson && rate.is_none() {
        return Err("--arrivals needs --rate (open-loop mode)".into());
    }
    let slo = a.get("slo").map(Slo::parse).transpose()?;
    let mix = request_mix(seed, requests);
    let mix_digest = mix
        .iter()
        .fold(0u64, |acc, line| acc ^ fnv1a64(line.as_bytes()));

    // Deal requests round-robin so every connection sees an interleaved
    // slice of the mix (and, open loop, an increasing schedule).
    let clients = concurrency.min(requests);
    let started = Instant::now();
    let handles: Vec<_> = if let Some(rate) = rate {
        let offsets = arrival_offsets_us(requests, rate, poisson, seed);
        let mut slices: Vec<Vec<(u64, String)>> = vec![Vec::new(); clients];
        for (i, (line, off)) in mix.into_iter().zip(offsets).enumerate() {
            slices[i % clients].push((off, line));
        }
        slices
            .into_iter()
            .map(|items| {
                let addr = addr.clone();
                std::thread::spawn(move || run_open_client(&addr, items, started))
            })
            .collect()
    } else {
        let mut slices: Vec<Vec<String>> = vec![Vec::new(); clients];
        for (i, line) in mix.into_iter().enumerate() {
            slices[i % clients].push(line);
        }
        slices
            .into_iter()
            .map(|lines| {
                let addr = addr.clone();
                std::thread::spawn(move || run_closed_client(&addr, lines, started))
            })
            .collect()
    };
    let mut total = ClientResult::new();
    for h in handles {
        let t = h.join().map_err(|_| "client thread panicked")??;
        t.fold_into(&mut total)?;
    }
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let replies = total.ok + total.busy + total.timeouts + total.errors;
    let achieved_rate = replies as f64 / wall;
    let p = total.hist.percentiles();

    println!("loadgen: {requests} requests, concurrency {concurrency}, seed {seed}");
    match rate {
        Some(r) => println!(
            "  mode open-loop, rate {r} req/s, arrivals {}",
            if poisson { "poisson" } else { "constant" }
        ),
        None => println!("  mode closed-loop"),
    }
    println!(
        "  ok {} (cached {}), busy {}, timeouts {}, errors {}",
        total.ok, total.cached, total.busy, total.timeouts, total.errors
    );
    println!(
        "  throughput {achieved_rate:.1} req/s over {wall:.2}s{}",
        match rate {
            Some(r) => format!(" (offered {r:.1} req/s)"),
            None => String::new(),
        }
    );
    println!(
        "  latency_us p50 {} p90 {} p99 {} p999 {} max {}",
        p.p50, p.p90, p.p99, p.p999, p.max
    );
    for (lat, id, corr) in &total.exemplars {
        println!("  slowest {lat}us id {id} corr {corr}");
    }
    println!(
        "  mix_digest {mix_digest:016x}  result_digest {:016x}",
        total.digest
    );

    if let Some(path) = a.get("series") {
        let body = series_ndjson(&total.completions);
        sp_bench::write_atomic(std::path::Path::new(path), &body)
            .map_err(|e| format!("--series {path}: {e}"))?;
        println!("  series {} rows -> {path}", body.lines().count());
    }
    if let Some(path) = a.get("prom") {
        let body = render_prometheus(&loadgen_families(
            &total,
            requests as u64,
            rate,
            achieved_rate,
        ));
        sp_bench::write_atomic(std::path::Path::new(path), &body)
            .map_err(|e| format!("--prom {path}: {e}"))?;
        println!("  prom -> {path}");
    }

    let mut slo_failed = false;
    if let Some(slo) = &slo {
        let failed = total.busy + total.timeouts + total.errors;
        let verdict = slo.evaluate(&Measured {
            p50_us: p.p50,
            p90_us: p.p90,
            p99_us: p.p99,
            p999_us: p.p999,
            max_us: p.max,
            error_rate: if replies == 0 {
                1.0
            } else {
                failed as f64 / replies as f64
            },
        });
        println!("slo_verdict {}", verdict.to_json().encode());
        slo_failed = !verdict.pass;
    }

    if shutdown {
        let mut c = run_shutdown(&addr)?;
        println!("  drain acknowledged: {}", c.remove(0));
    }
    if total.errors > 0 {
        return Err(format!("{} protocol errors", total.errors));
    }
    if slo_failed {
        return Err("slo violated (see slo_verdict above)".into());
    }
    Ok(())
}

fn run_shutdown(addr: &str) -> Result<Vec<String>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    writer
        .write_all(b"{\"type\":\"shutdown\"}\n")
        .map_err(|e| format!("send shutdown: {e}"))?;
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .map_err(|e| format!("recv shutdown ack: {e}"))?;
    Ok(vec![reply.trim().to_string()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_arrivals_are_evenly_spaced() {
        let offs = arrival_offsets_us(5, 100.0, false, 1);
        assert_eq!(offs, vec![0, 10_000, 20_000, 30_000, 40_000]);
    }

    #[test]
    fn poisson_arrivals_are_seeded_and_monotone() {
        let a = arrival_offsets_us(50, 200.0, true, 7);
        let b = arrival_offsets_us(50, 200.0, true, 7);
        let c = arrival_offsets_us(50, 200.0, true, 8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets monotone");
        // The mean gap approximates 1/rate = 5ms over 50 arrivals.
        let mean_gap = *a.last().unwrap() as f64 / (a.len() - 1) as f64;
        assert!(
            (1_000.0..25_000.0).contains(&mean_gap),
            "mean gap {mean_gap}us wildly off 5000us"
        );
    }

    #[test]
    fn mix_is_deterministic_per_seed() {
        assert_eq!(request_mix(3, 20), request_mix(3, 20));
        assert_ne!(request_mix(3, 20), request_mix(4, 20));
    }

    #[test]
    fn absorb_classifies_outcomes_and_excludes_failures_from_latency() {
        let mut r = ClientResult::new();
        r.absorb(
            "{\"corr\":\"c7\",\"id\":1,\"ok\":true,\"cached\":false,\"micros\":10,\"result\":{\"x\":1}}",
            1_000,
            0,
            0,
        )
        .unwrap();
        r.absorb(
            "{\"corr\":\"c8\",\"id\":2,\"ok\":false,\"error\":\"busy\",\"detail\":\"full\"}",
            9_000_000,
            0,
            1,
        )
        .unwrap();
        r.absorb(
            "{\"corr\":\"c9\",\"id\":3,\"ok\":false,\"error\":\"timeout\",\"detail\":\"t\"}",
            9_000_000,
            1,
            1,
        )
        .unwrap();
        assert_eq!((r.ok, r.busy, r.timeouts, r.errors), (1, 1, 1, 0));
        // Only the ok reply's latency is in the histogram.
        assert_eq!(r.hist.count(), 1);
        assert_eq!(r.hist.max(), 1_000);
        assert_eq!(r.exemplars.len(), 1);
        assert_eq!(r.exemplars[0].2, "c7");
        assert_eq!(r.completions.len(), 3);
    }

    #[test]
    fn series_rows_cover_every_second_with_the_full_schema() {
        let completions = vec![
            Completion {
                send_sec: 0,
                done_sec: 0,
                latency_us: 500,
                outcome: Outcome::Ok,
            },
            Completion {
                send_sec: 0,
                done_sec: 2,
                latency_us: 2_100_000,
                outcome: Outcome::Ok,
            },
            Completion {
                send_sec: 1,
                done_sec: 1,
                latency_us: 9,
                outcome: Outcome::Busy,
            },
        ];
        let body = series_ndjson(&completions);
        let rows: Vec<&str> = body.lines().collect();
        assert_eq!(rows.len(), 3, "one row per second 0..=2");
        for (i, row) in rows.iter().enumerate() {
            let v = Json::parse(row).unwrap();
            assert_eq!(v.get("sec").and_then(Json::as_u64), Some(i as u64));
            for key in [
                "offered",
                "ok",
                "busy",
                "timeout",
                "error",
                "inflight_end",
                "p50_us",
                "p90_us",
                "p99_us",
                "max_us",
            ] {
                assert!(v.get(key).is_some(), "row {i} missing {key}: {row}");
            }
        }
        // Second 0: two sends, one ok done; the slow one still in flight.
        let v = Json::parse(rows[0]).unwrap();
        assert_eq!(v.get("offered").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("ok").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("inflight_end").and_then(Json::as_u64), Some(1));
        // Second 1: busy completion counted, not in percentiles.
        let v = Json::parse(rows[1]).unwrap();
        assert_eq!(v.get("busy").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("p50_us").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn series_is_empty_for_no_completions() {
        assert_eq!(series_ndjson(&[]), "");
    }

    /// A fixed loadgen outcome: distinct non-zero counts and rates, and
    /// an ok-latency histogram over both bucket regions.
    fn pinned_run() -> (ClientResult, u64, Option<f64>, f64) {
        let mut total = ClientResult::new();
        (total.ok, total.busy, total.timeouts, total.errors) = (41, 3, 2, 1);
        for v in [50, 120, 4_500, 9_999_999] {
            total.hist.record(v);
        }
        (total, 47, Some(250.5), 123.25)
    }

    #[test]
    fn prom_body_is_pinned() {
        let (total, offered, rate, achieved_rate) = pinned_run();
        let body = render_prometheus(&loadgen_families(&total, offered, rate, achieved_rate));
        // Mask the checkout-dependent `git` label, then compare the
        // sorted line set: family order may change, the lines may not.
        let start = body.find("git=\"").expect("git label") + "git=\"".len();
        let end = start + body[start..].find('"').unwrap();
        let body = format!("{}GIT{}", &body[..start], &body[end..]);
        let mut lines: Vec<&str> = body.lines().collect();
        lines.sort_unstable();
        let got = lines.join("\n") + "\n";
        let path =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/loadgen.prom");
        if std::env::var_os("SP_BLESS").is_some() {
            std::fs::write(&path, &got).unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), got);
    }

    #[test]
    fn every_loadgen_family_passes_the_lint() {
        let (total, offered, rate, achieved_rate) = pinned_run();
        let families = loadgen_families(&total, offered, rate, achieved_rate);
        for f in &families {
            sp_serve::metrics::lint(f).unwrap();
        }
        assert_eq!(families.len(), 7);
    }

    #[test]
    fn closed_loop_body_reports_outcomes_and_rates() {
        let (total, offered, _, _) = pinned_run();
        let body = render_prometheus(&loadgen_families(&total, offered, None, 42.5));
        assert!(
            body.contains("sp_loadgen_requests_total{outcome=\"busy\"} 3"),
            "got {body}"
        );
        assert!(body.contains("sp_loadgen_open_loop 0"), "got {body}");
        assert!(body.contains("sp_loadgen_offered_rate 0"), "got {body}");
        assert!(body.contains("sp_loadgen_achieved_rate 42.5"), "got {body}");
    }
}
