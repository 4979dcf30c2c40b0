//! Every `spt` command, declared once: its help prose and its flag
//! table, from which [`Command::help`] renders the page. The snapshot
//! test (`tests/help_snapshot.rs`) pins every page byte for byte.

use crate::args::Kind::*;
use crate::args::{one_of, Flag, CACHE_FLAGS, WORKLOAD_FLAGS};

/// One `spt` command.
#[derive(Debug)]
pub struct Command {
    /// The `USAGE` line, `spt <name> ...`.
    pub synopsis: &'static str,
    /// What the command does.
    pub about: &'static str,
    /// The command's own flags (`FLAGS` block).
    pub flags: &'static [Flag],
    /// Text after the `FLAGS` block.
    pub after: &'static str,
    /// Shared flag groups (`COMMON FLAGS` block).
    pub common: &'static [&'static [Flag]],
}

impl Command {
    /// The command name: the word after `spt` in the synopsis.
    pub fn name(&self) -> &'static str {
        self.synopsis.split(' ').nth(1).unwrap_or_default()
    }

    /// The help page: usage, prose, and the flag blocks rendered from
    /// the table.
    pub fn help(&self) -> String {
        let mut page = format!("USAGE:\n  {}\n\n{}", self.synopsis, self.about);
        if !self.flags.is_empty() {
            page.push_str("\nFLAGS:\n");
            render(&mut page, self.flags, 25);
        }
        page.push_str(self.after);
        if !self.common.is_empty() {
            page.push_str("COMMON FLAGS:\n");
            for group in self.common {
                render(&mut page, group, 27);
            }
        }
        page
    }

    /// The declared flag named `name`, if any.
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags
            .iter()
            .chain(self.common.iter().copied().flatten())
            .find(|f| f.name == name)
    }
}

/// The defaults of a trace-analysis page: no flags of its own, no
/// trailer, and the workload and cache flags in `COMMON FLAGS`.
const ANALYSIS: Command = Command {
    synopsis: "",
    about: "",
    flags: &[],
    after: "",
    common: &[WORKLOAD_FLAGS, CACHE_FLAGS],
};

/// Every `spt` command, in the order the top-level usage lists them.
pub const COMMANDS: [Command; 13] = [
    Command {
        synopsis: "spt affinity [flags]",
        about: "Report the hot loop's Set Affinity — sets touched, overflowed\n\
                sets, the SA(L,Sx) range — and the derived prefetch-distance\n\
                bound (min SA / 2), plus the burst-sampled estimate.\n",
        ..ANALYSIS
    },
    Command {
        synopsis: "spt sweep [flags]",
        about: "Sweep prefetch distance and print normalized runtime, hot\n\
                misses, behaviour deltas, and pollution per distance.\n\
                Distances past the Set-Affinity bound are marked with `!`.\n",
        flags: flags! {
            "rp" "R" Ratio => "prefetch ratio (default 0.5)";
            "distances" "d1,d2,..." List => "grid (default brackets the bound)";
            "jobs" "N" Count => "fan out on N threads (0 = all cores;"
                                "output identical whatever N is)";
            "events" "" Switch => "attach event sinks and also report"
                                  "pollution cases and prefetch timeliness"
                                  "per distance";
            "svg" "FILE" Path => "also write an SVG chart";
        },
        ..ANALYSIS
    },
    Command {
        synopsis: "spt delinquent [flags]",
        about: "Rank the hot loop's reference sites by L2 misses (the\n\
                delinquent-load screen used to pick prefetch targets).\n",
        ..ANALYSIS
    },
    Command {
        synopsis: "spt reuse [flags]",
        about: "LRU stack-distance histogram of the hot loop, and the miss\n\
                ratio the loop would see at each associativity.\n",
        ..ANALYSIS
    },
    Command {
        synopsis: "spt adaptive [flags]",
        about: "Run the FDP-style dynamic distance controller and print the\n\
                per-epoch feedback trail.\n",
        flags: flags! {
            "start" "D" Count => "initial distance (default 4x bound)";
            "epoch" "N" Positive => "iterations per epoch (default 128)";
            "bounded" "on|off" OnOff => "clamp to the SA bound (default on)";
            "rp" "R" Ratio => "prefetch ratio (default 0.5)";
        },
        ..ANALYSIS
    },
    Command {
        synopsis: "spt selection [flags]",
        about: "Screen candidate workloads by L2-miss cycle share and report\n\
                which pass the paper's selection threshold.\n",
        flags: flags! {
            "threshold" "F" Ratio => "minimum miss-cycle share (default 0.3)";
        },
        common: &[CACHE_FLAGS],
        ..ANALYSIS
    },
    Command {
        synopsis: "spt dump --out FILE [flags]",
        about: "Record a workload's hot-loop trace to FILE for later replay\n\
                with --trace.\n",
        flags: flags! {
            "out" "FILE" Path => "destination path (required)";
        },
        ..ANALYSIS
    },
    Command {
        synopsis: "spt events [flags]",
        about: "Replay one run with the prefetch-lifecycle event sink\n\
                attached and report the full observability picture: issued /\n\
                filled / first-use / evicted-unused counts per prefetch\n\
                class, first-use timeliness (late / on-time / early), the\n\
                paper's three pollution displacement cases, and per-set\n\
                pressure by fill-count quartile. The command self-checks\n\
                that the folded eviction events equal the simulator's\n\
                pollution counters exactly, and exits non-zero on mismatch.\n",
        flags: flags! {
            "distance" "D" Count => "prefetch distance (default: SA bound)";
            "rp" "R" Ratio => "prefetch ratio (default 0.5)";
            "passes" "N" Positive => "hot-loop passes (default 1)";
            "original" "" Switch => "original (no-helper) run instead of SP";
            "out" "FILE" Path => "write the event stream as NDJSON";
            "limit" "N" Count => "keep at most N events in the buffer"
                                 "(0 = unbounded; the summary always"
                                 "folds every event)";
        },
        ..ANALYSIS
    },
    Command {
        synopsis: "spt trace --out FILE [flags]",
        about: "Run a distance sweep with the runtime span recorder enabled\n\
                and export the collected wall-clock spans as Chrome\n\
                trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or\n\
                chrome://tracing. Spans cover the whole pipeline — trace\n\
                load, compile, per-point simulate, event fold — nested under\n\
                one correlation ID, with worker threads on separate rows. A\n\
                per-stage wall-time table is printed on exit.\n",
        flags: flags! {
            "out" "FILE" Path => "Chrome trace JSON destination (required)";
            "rp" "R" Ratio => "prefetch ratio (default 0.5)";
            "distances" "d1,d2,..." List => "grid (default brackets the bound)";
            "jobs" "N" Count => "fan out on N threads (0 = all cores)";
        },
        ..ANALYSIS
    },
    Command {
        synopsis: "spt report [flags]",
        about: "Run an epoch-recorded distance sweep — the cache flight\n\
                recorder — and render the telemetry: every run is windowed\n\
                into fixed epochs of main-thread references carrying hit /\n\
                displacement / timeliness / set-pressure / MSHR series, and\n\
                the report shows *when* pollution happens, not just totals.\n\
                Emits a self-contained markdown report (per-distance unicode\n\
                sparklines, a distances-by-epochs displacement heatmap, the\n\
                SA/2 bound annotated) to --out or stdout, and the raw\n\
                per-window series as NDJSON to --ndjson. The series is\n\
                self-checked to fold exactly to the run counters; the\n\
                command exits non-zero on mismatch.\n",
        flags: flags! {
            "rp" "R" Ratio => "prefetch ratio (default 0.5)";
            "distances" "d1,d2,..." List => "grid (default: the benchmark's"
                                            "reproduction grid)";
            "epoch-len" "N" Positive => "window length in main-thread refs"
                                        "(default 10000)";
            "jobs" "N" Count => "fan out on N threads (0 = all cores)";
            "out" "FILE" Path => "write the markdown report here"
                                 "(default: print to stdout)";
            "ndjson" "FILE" Path => "write the per-window series as NDJSON";
        },
        ..ANALYSIS
    },
    Command {
        synopsis: "spt serve [flags]",
        about: "Run the sp-serve simulation daemon: accepts sweep / point /\n\
                affinity requests as newline-delimited JSON over TCP, answers\n\
                repeats from an LRU result cache, sheds load with `busy`\n\
                replies when the admission queue is full, and drains cleanly\n\
                on a shutdown request, SIGINT, or SIGTERM.\n",
        flags: flags! {
            "addr" "HOST:PORT" Text => "listen address (default 127.0.0.1:7077)";
            "workers" "N" Count => "pool workers (default 0 = all cores)";
            "queue" "N" Count => "admission-queue slots (default 64)";
            "cache-entries" "N" Count => "result-cache entries (default 256)";
            "shards" "N" Count => "result-cache shards (default 8)";
            "timeout-ms" "N" Count => "default request deadline (default 30000)";
            "slow-ms" "N" Count => "access-log lines for requests slower"
                                   "than this escalate to warn (default 1000)";
        },
        after: "\n\
                LOGGING:\n  \
                SP_LOG=info enables the per-request access log on stderr;\n  \
                SP_LOG_FORMAT=ndjson switches it to structured NDJSON.\n",
        common: &[],
    },
    Command {
        synopsis: "spt loadgen [flags]",
        about: "Load generator: drive a seeded request mix against a running\n\
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
                intended send time, so tail percentiles include the wait.\n",
        flags: flags! {
            "addr" "HOST:PORT" Text => "daemon address (default 127.0.0.1:7077)";
            "requests" "N" Positive => "total requests (default 50)";
            "concurrency" "N" Positive => "parallel connections (default 4)";
            "seed" "N" Count => "mix + arrival seed (default 1)";
            "rate" "R" Text => "open loop: offered arrivals/second";
            "arrivals" "MODEL" Enum(|v| one_of(v, &["constant", "poisson"]))
                => "constant|poisson (default constant;"
                   "needs --rate)";
            "series" "FILE" Path => "per-second NDJSON time series (offered,"
                                    "outcomes, inflight, interval percentiles;"
                                    "written atomically)";
            "prom" "FILE" Path => "Prometheus body (sp_loadgen_* families)";
            "slo" "SPEC" Text => "gate: \"p99<=5ms,p999<=20ms,"
                                 "error_rate<=0.1%\"; metrics p50|p90|p99|"
                                 "p999|max (us/ms/s) and error_rate (% or"
                                 "ratio); prints slo_verdict JSON and exits"
                                 "non-zero on violation";
            "shutdown" "on|off" OnOff => "drain the daemon afterwards (default off)";
        },
        common: &[],
        ..ANALYSIS
    },
    Command {
        synopsis: "spt top [flags]",
        about: "Live terminal dashboard over a running daemon: polls the\n\
                stats command at an interval and redraws in place (plain\n\
                ANSI) with throughput, cache hit ratio, queue depth, worker\n\
                utilization, and latency percentiles, each with a sparkline\n\
                history row.\n",
        flags: flags! {
            "addr" "HOST:PORT" Text => "daemon address (default 127.0.0.1:7077)";
            "interval-ms" "N" Positive => "poll interval (default 1000)";
            "count" "N" Count => "stop after N frames (default 0 = run"
                                 "until interrupted)";
            "once" "" Switch => "poll once, print one static frame";
            "json" "" Switch => "with --once: print the raw stats"
                                "result object (machine-readable)";
        },
        common: &[],
        ..ANALYSIS
    },
];

/// The command named `name`, if any.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name() == name)
}

/// Render `flags` as a help block whose text column starts `width`
/// characters after the two-space indent.
fn render(out: &mut String, flags: &[Flag], width: usize) {
    for f in flags {
        let left = format!("--{} {}", f.name, f.value);
        for (i, line) in f.help.iter().enumerate() {
            let lead = if i == 0 { left.trim_end() } else { "" };
            out.push_str(&format!("  {lead:<width$}{line}\n"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_has_a_page_and_unknowns_do_not() {
        for c in &COMMANDS {
            let page = c.help();
            assert!(page.starts_with("USAGE:\n  spt "), "{}: {page}", c.name());
            assert!(page.contains(c.name()), "{} page names itself", c.name());
        }
        assert!(command("warp").is_none());
    }

    #[test]
    fn no_command_declares_a_flag_twice() {
        for c in &COMMANDS {
            let names: Vec<&str> = c
                .flags
                .iter()
                .chain(c.common.iter().copied().flatten())
                .map(|f| f.name)
                .collect();
            for (i, n) in names.iter().enumerate() {
                assert!(!names[..i].contains(n), "{} declares --{n} twice", c.name());
            }
        }
    }
}
