//! Per-command `--help` pages. One page per subcommand; the snapshot
//! test (`tests/help_snapshot.rs`) pins every page plus the top-level
//! usage, so flag changes must update the fixture deliberately.

/// Every `spt` subcommand, in the order the top-level usage lists them.
pub const COMMANDS: [&str; 14] = [
    "affinity",
    "sweep",
    "delinquent",
    "phases",
    "reuse",
    "adaptive",
    "selection",
    "dump",
    "events",
    "trace",
    "report",
    "serve",
    "loadgen",
    "top",
];

const COMMON: &str = "\
COMMON FLAGS:
  --bench KERNEL             workload (default em3d); one of
                             em3d|mcf|mst|treeadd|health|matmul|
                             hashjoin|bfs|skiplist|btree
  --size scaled|tiny         input size (default scaled)
  --trace FILE               replay a trace recorded with `spt dump`
  --cache scaled|core2       geometry preset (default scaled)
  --l2-kb N                  L2 capacity override, KiB
  --ways N                   L2 associativity override
  --line N                   L2 line size override, bytes
  --hw-prefetch on|off       hardware prefetchers (default on)
  --prefetcher NAME          hardware-prefetcher backend (default
                             streamer+dpl): streamer+dpl|streamer|dpl|
                             pointer-chase|perceptron
";

/// The help page for `cmd`, or `None` if it is not a command.
pub fn command_help(cmd: &str) -> Option<String> {
    let (synopsis, body): (&str, &str) = match cmd {
        "affinity" => (
            "spt affinity [flags]",
            "Report the hot loop's Set Affinity — sets touched, overflowed\n\
             sets, the SA(L,Sx) range — and the derived prefetch-distance\n\
             bound (min SA / 2), plus the burst-sampled estimate.\n",
        ),
        "sweep" => (
            "spt sweep [flags]",
            "Sweep prefetch distance and print normalized runtime, hot\n\
             misses, behaviour deltas, and pollution per distance.\n\
             Distances past the Set-Affinity bound are marked with `!`.\n\
             \n\
             FLAGS:\n  \
             --rp R                   prefetch ratio (default 0.5)\n  \
             --distances d1,d2,...    grid (default brackets the bound)\n  \
             --jobs N                 fan out on N threads (0 = all cores;\n                           \
             output identical whatever N is)\n  \
             --events                 attach event sinks and also report\n                           \
             pollution cases and prefetch timeliness\n                           \
             per distance\n  \
             --svg FILE               also write an SVG chart\n",
        ),
        "delinquent" => (
            "spt delinquent [flags]",
            "Rank the hot loop's reference sites by L2 misses (the\n\
             delinquent-load screen used to pick prefetch targets).\n",
        ),
        "phases" => (
            "spt phases [flags]",
            "Detect access phases of the hot loop (refs/iteration and new\n\
             blocks/iteration per phase).\n",
        ),
        "reuse" => (
            "spt reuse [flags]",
            "LRU stack-distance histogram of the hot loop, and the miss\n\
             ratio the loop would see at each associativity.\n",
        ),
        "adaptive" => (
            "spt adaptive [flags]",
            "Run the FDP-style dynamic distance controller and print the\n\
             per-epoch feedback trail.\n\
             \n\
             FLAGS:\n  \
             --start D                initial distance (default 4x bound)\n  \
             --epoch N                iterations per epoch (default 128)\n  \
             --bounded on|off         clamp to the SA bound (default on)\n  \
             --rp R                   prefetch ratio (default 0.5)\n",
        ),
        "selection" => (
            "spt selection [flags]",
            "Screen candidate workloads by L2-miss cycle share and report\n\
             which pass the paper's selection threshold.\n\
             \n\
             FLAGS:\n  \
             --threshold F            minimum miss-cycle share (default 0.3)\n",
        ),
        "dump" => (
            "spt dump --out FILE [flags]",
            "Record a workload's hot-loop trace to FILE for later replay\n\
             with --trace.\n\
             \n\
             FLAGS:\n  \
             --out FILE               destination path (required)\n",
        ),
        "events" => (
            "spt events [flags]",
            "Replay one run with the prefetch-lifecycle event sink\n\
             attached and report the full observability picture: issued /\n\
             filled / first-use / evicted-unused counts per prefetch\n\
             class, first-use timeliness (late / on-time / early), the\n\
             paper's three pollution displacement cases, and per-set\n\
             pressure by fill-count quartile. The command self-checks\n\
             that the folded eviction events equal the simulator's\n\
             pollution counters exactly, and exits non-zero on mismatch.\n\
             \n\
             FLAGS:\n  \
             --distance D             prefetch distance (default: SA bound)\n  \
             --rp R                   prefetch ratio (default 0.5)\n  \
             --passes N               hot-loop passes (default 1)\n  \
             --original               original (no-helper) run instead of SP\n  \
             --out FILE               write the event stream as NDJSON\n  \
             --limit N                keep at most N events in the buffer\n                           \
             (0 = unbounded; the summary always\n                           \
             folds every event)\n",
        ),
        "trace" => (
            "spt trace --out FILE [flags]",
            "Run a distance sweep with the runtime span recorder enabled\n\
             and export the collected wall-clock spans as Chrome\n\
             trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or\n\
             chrome://tracing. Spans cover the whole pipeline — trace\n\
             load, compile, per-point simulate, event fold — nested under\n\
             one correlation ID, with worker threads on separate rows. A\n\
             per-stage wall-time table is printed on exit.\n\
             \n\
             FLAGS:\n  \
             --out FILE               Chrome trace JSON destination (required)\n  \
             --rp R                   prefetch ratio (default 0.5)\n  \
             --distances d1,d2,...    grid (default brackets the bound)\n  \
             --jobs N                 fan out on N threads (0 = all cores)\n",
        ),
        "report" => (
            "spt report [flags]",
            "Run an epoch-recorded distance sweep — the cache flight\n\
             recorder — and render the telemetry: every run is windowed\n\
             into fixed epochs of main-thread references carrying hit /\n\
             displacement / timeliness / set-pressure / MSHR series, and\n\
             the report shows *when* pollution happens, not just totals.\n\
             Emits a self-contained markdown report (per-distance unicode\n\
             sparklines, a distances-by-epochs displacement heatmap, the\n\
             SA/2 bound annotated) to --out or stdout, and the raw\n\
             per-window series as NDJSON to --ndjson. The series is\n\
             self-checked to fold exactly to the run counters; the\n\
             command exits non-zero on mismatch.\n\
             \n\
             FLAGS:\n  \
             --rp R                   prefetch ratio (default 0.5)\n  \
             --distances d1,d2,...    grid (default: the benchmark's\n                           \
             reproduction grid)\n  \
             --epoch-len N            window length in main-thread refs\n                           \
             (default 10000)\n  \
             --jobs N                 fan out on N threads (0 = all cores)\n  \
             --out FILE               write the markdown report here\n                           \
             (default: print to stdout)\n  \
             --ndjson FILE            write the per-window series as NDJSON\n",
        ),
        "serve" => (
            "spt serve [flags]",
            "Run the sp-serve simulation daemon: accepts sweep / point /\n\
             affinity requests as newline-delimited JSON over TCP, answers\n\
             repeats from an LRU result cache, sheds load with `busy`\n\
             replies when the admission queue is full, and drains cleanly\n\
             on a shutdown request, SIGINT, or SIGTERM.\n\
             \n\
             FLAGS:\n  \
             --addr HOST:PORT         listen address (default 127.0.0.1:7077)\n  \
             --workers N              pool workers (default 0 = all cores)\n  \
             --queue N                admission-queue slots (default 64)\n  \
             --cache-entries N        result-cache entries (default 256)\n  \
             --shards N               result-cache shards (default 8)\n  \
             --timeout-ms N           default request deadline (default 30000)\n  \
             --slow-ms N              access-log lines for requests slower\n                           \
             than this escalate to warn (default 1000)\n\
             \n\
             LOGGING:\n  \
             SP_LOG=info enables the per-request access log on stderr;\n  \
             SP_LOG_FORMAT=ndjson switches it to structured NDJSON.\n",
        ),
        "loadgen" => (
            "spt loadgen [flags]",
            "Load generator: drive a seeded request mix against a running\n\
             daemon and print throughput, per-outcome counters (busy /\n\
             timeout / error replies are counted separately and never\n\
             mixed into latency), latency percentiles from the shared\n\
             log-linear histogram, and an order-independent result digest\n\
             (stable across runs with the same seed).\n\
             \n\
             Closed loop (default): each client waits for a reply before\n\
             the next send — queueing delay under overload is hidden\n\
             (coordinated omission). Open loop (--rate): requests launch\n\
             on a fixed schedule and every latency is measured from its\n\
             intended send time, so tail percentiles include the wait.\n\
             \n\
             FLAGS:\n  \
             --addr HOST:PORT         daemon address (default 127.0.0.1:7077)\n  \
             --requests N             total requests (default 50)\n  \
             --concurrency N          parallel connections (default 4)\n  \
             --seed N                 mix + arrival seed (default 1)\n  \
             --rate R                 open loop: offered arrivals/second\n  \
             --arrivals MODEL         constant|poisson (default constant;\n                           \
             needs --rate)\n  \
             --series FILE            per-second NDJSON time series (offered,\n                           \
             outcomes, inflight, interval percentiles;\n                           \
             written atomically)\n  \
             --prom FILE              Prometheus body (sp_loadgen_* families)\n  \
             --slo SPEC               gate: \"p99<=5ms,p999<=20ms,\n                           \
             error_rate<=0.1%\"; metrics p50|p90|p99|\n                           \
             p999|max (us/ms/s) and error_rate (% or\n                           \
             ratio); prints slo_verdict JSON and exits\n                           \
             non-zero on violation\n  \
             --shutdown on|off        drain the daemon afterwards (default off)\n",
        ),
        "top" => (
            "spt top [flags]",
            "Live terminal dashboard over a running daemon: polls the\n\
             stats command at an interval and redraws in place (plain\n\
             ANSI) with throughput, cache hit ratio, queue depth, worker\n\
             utilization, and latency percentiles, each with a sparkline\n\
             history row.\n\
             \n\
             FLAGS:\n  \
             --addr HOST:PORT         daemon address (default 127.0.0.1:7077)\n  \
             --interval-ms N          poll interval (default 1000)\n  \
             --count N                stop after N frames (default 0 = run\n                           \
             until interrupted)\n  \
             --once                   poll once, print one static frame\n  \
             --json                   with --once: print the raw stats\n                           \
             result object (machine-readable)\n",
        ),
        _ => return None,
    };
    let common = match cmd {
        "serve" | "loadgen" | "top" | "selection" => "",
        _ => COMMON,
    };
    Some(format!("USAGE:\n  {synopsis}\n\n{body}{common}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_has_a_page_and_unknowns_do_not() {
        for cmd in COMMANDS {
            let page = command_help(cmd).unwrap_or_else(|| panic!("no help for {cmd}"));
            assert!(page.starts_with("USAGE:\n  spt "), "{cmd}: {page}");
            assert!(page.contains(cmd), "{cmd} page names itself");
        }
        assert!(command_help("warp").is_none());
    }
}
