//! Flag kinds, the shared flag groups, and the parser that checks a
//! command line against a command's declared table (the workspace
//! deliberately carries no CLI dependency).

use crate::help::Command;
use sp_cachesim::{CacheConfig, CacheGeometry, ConfigError, HwBackend};
use sp_core::SpParams;
use sp_trace::HotLoopTrace;
use sp_workloads::{KernelKind, ScaleTier, WorkloadBuilder};
use Kind::*;

/// What a flag's value must be.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Stands alone (`--events`), or takes `on` or `off`.
    Switch,
    /// `on` or `off`.
    OnOff,
    /// An integer of at least 1.
    Positive,
    /// An integer of at least 0.
    Count,
    /// A number in `[0, 1]`.
    Ratio,
    /// One name of a fixed set: the function parses it, and its error
    /// lists the set.
    Enum(fn(&str) -> Result<(), String>),
    /// Comma-separated distances.
    List,
    /// A file path.
    Path,
    /// Free text the command checks itself.
    Text,
}

impl Kind {
    /// Check that `v` is a value of this kind.
    fn check(self, v: &str) -> Result<(), String> {
        let (ok, expected) = match self {
            Switch | OnOff => (matches!(v, "on" | "off"), "on|off"),
            Positive => (v.parse::<u64>().is_ok_and(|n| n > 0), "a positive integer"),
            Count => (v.parse::<u64>().is_ok(), "a non-negative integer"),
            Ratio => (
                v.parse::<f64>().is_ok_and(|r| (0.0..=1.0).contains(&r)),
                "a number in [0, 1]",
            ),
            Enum(parse) => return parse(v),
            List => (
                v.split(',').all(|d| d.trim().parse::<u32>().is_ok()),
                "comma-separated distances",
            ),
            Path => (!v.is_empty(), "a path"),
            Text => (true, ""),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("expected {expected}, got {v:?}"))
        }
    }
}

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// The value placeholder the help page shows (empty for a switch).
    pub value: &'static str,
    /// What the value must be.
    pub kind: Kind,
    /// Help text, one entry per rendered line.
    pub help: &'static [&'static str],
}

/// `Kind::Enum` over a literal set of names.
pub fn one_of(v: &str, names: &[&str]) -> Result<(), String> {
    if names.contains(&v) {
        Ok(())
    } else {
        Err(format!("expected {}, got {v:?}", names.join("|")))
    }
}

/// The workload flags [`Args::trace`] and [`Args::kernel`] read.
pub const WORKLOAD_FLAGS: &[Flag] = flags! {
    "bench" "KERNEL" Enum(|v| KernelKind::parse(v).map(drop))
        => "workload (default em3d); one of"
           "em3d|mcf|mst|treeadd|health|matmul|"
           "hashjoin|bfs|skiplist|btree";
    "size" "scaled|tiny" Enum(|v| one_of(v, &["scaled", "tiny"])) => "input size (default scaled)";
    "trace" "FILE" Path => "replay a trace recorded with `spt dump`";
};

/// The cache flags [`Args::cache_config`] reads.
pub const CACHE_FLAGS: &[Flag] = flags! {
    "cache" "scaled|core2" Enum(|v| one_of(v, &["scaled", "core2"]))
        => "geometry preset (default scaled)";
    "l2-kb" "N" Count => "L2 capacity override, KiB";
    "ways" "N" Count => "L2 associativity override";
    "line" "N" Count => "L2 line size override, bytes";
    "hw-prefetch" "on|off" OnOff => "hardware prefetchers (default on)";
    "prefetcher" "NAME" Enum(|v| HwBackend::parse(v).map(drop))
        => "hardware-prefetcher backend (default"
           "streamer+dpl): streamer+dpl|streamer|dpl|"
           "pointer-chase|perceptron";
};

/// A parsed command line: the command and its checked `--key value`
/// flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// The command whose table the flags were checked against.
    pub command: &'static Command,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse the flags after the command name against `command`'s table.
    pub fn parse(
        command: &'static Command,
        input: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut it = input.into_iter().peekable();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {a}"))?;
            let flag = command.flag(key).ok_or_else(|| {
                format!(
                    "unknown flag --{key} for {0}; see `spt {0} --help`",
                    command.name()
                )
            })?;
            // A switch may stand alone; everything else is strict
            // `--key value`.
            let value = match flag.kind {
                Kind::Switch if it.peek().is_none_or(|next| next.starts_with("--")) => {
                    "on".to_string()
                }
                _ => it.next().ok_or_else(|| format!("--{key} needs a value"))?,
            };
            flag.kind
                .check(&value)
                .map_err(|e| format!("--{key}: {e}"))?;
            flags.push((flag.name, value));
        }
        Ok(Args { command, flags })
    }

    /// True when the switch `--key` was given (bare or as `--key on`).
    pub fn switch(&self, key: &str) -> bool {
        self.get(key) == Some("on")
    }

    /// The raw value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.command.flag(key).is_some(),
            "{} reads undeclared flag --{key}",
            self.command.name()
        );
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Parse `--key` as `T`, with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    /// The `--bench` selection (default em3d): any workload-builder
    /// kernel, including the LDS extension kernels.
    pub fn kernel(&self) -> Result<KernelKind, String> {
        KernelKind::parse(self.get("bench").unwrap_or("em3d"))
    }

    /// Obtain the trace to analyze: `--trace FILE` replays a recorded
    /// trace; otherwise the `--bench`/`--size` workload is built fresh.
    pub fn trace(&self) -> Result<HotLoopTrace, String> {
        if let Some(path) = self.get("trace") {
            return sp_trace::load_trace(std::path::Path::new(path))
                .map_err(|e| format!("--trace {path}: {e}"));
        }
        let tier = match self.get("size") {
            Some("tiny") => ScaleTier::Tiny,
            _ => ScaleTier::Scaled,
        };
        Ok(WorkloadBuilder::new(self.kernel()?).tier(tier).trace())
    }

    /// The cache configuration from `--cache`, `--l2-kb`, `--ways`,
    /// `--line`, `--prefetcher NAME` and `--hw-prefetch on|off`
    /// (defaults: the scaled preset).
    pub fn cache_config(&self) -> Result<CacheConfig, String> {
        let mut cfg = match self.get("cache") {
            Some("core2") => CacheConfig::core2_q6600(),
            _ => CacheConfig::scaled_default(),
        };
        let l2_kb: u64 = self.get_or("l2-kb", cfg.l2.size_bytes / 1024)?;
        let ways: u32 = self.get_or("ways", cfg.l2.ways)?;
        let line: u64 = self.get_or("line", cfg.l2.line_size)?;
        let geometry = |e: ConfigError| {
            format!("L2 geometry --l2-kb {l2_kb} --ways {ways} --line {line}: {e}")
        };
        cfg.l2 = l2_kb
            .checked_mul(1024)
            .ok_or(ConfigError::SizeTooLarge)
            .and_then(|bytes| CacheGeometry::try_new(bytes, ways, line))
            .map_err(geometry)?;
        if let Some(pf) = self.get("prefetcher") {
            cfg.hw_backend = HwBackend::parse(pf)?;
        }
        if let Some(hw) = self.get("hw-prefetch") {
            cfg.hw_prefetchers = hw == "on";
        }
        cfg.check().map_err(geometry)?;
        Ok(cfg)
    }

    /// Comma-separated `--distances` list.
    pub fn distances(&self, default: &[u32]) -> Result<Vec<u32>, String> {
        match self.get("distances") {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|d| d.trim().parse().map_err(|_| format!("bad distance {d:?}")))
                .collect(),
        }
    }

    /// The `--rp` ratio (default 0.5), checked against every distance
    /// it will schedule.
    pub fn rp_for(&self, distances: &[u32]) -> Result<f64, String> {
        let rp: f64 = self.get_or("rp", 0.5)?;
        for &d in distances {
            SpParams::try_from_distance_rp(d, rp)
                .map_err(|e| format!("--rp {rp} at distance {d}: {e}"))?;
        }
        Ok(rp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::help;

    fn args(s: &str) -> Result<Args, String> {
        let mut words = s.split_whitespace().map(String::from);
        let cmd = help::command(&words.next().unwrap()).unwrap();
        Args::parse(cmd, words)
    }

    #[test]
    fn parses_declared_flags() {
        let a = args("sweep --bench mcf --rp 0.5").unwrap();
        assert_eq!(a.command.name(), "sweep");
        assert_eq!(a.get("bench"), Some("mcf"));
        assert_eq!(a.get_or("rp", 0.0).unwrap(), 0.5);
        assert_eq!(a.get_or("jobs", 7u32).unwrap(), 7);
    }

    #[test]
    fn later_flags_override_earlier() {
        let a = args("sweep --jobs 1 --jobs 2").unwrap();
        assert_eq!(a.get("jobs"), Some("2"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(args("sweep --jobs").is_err());
        assert!(args("sweep positional").is_err());
    }

    #[test]
    fn rejects_undeclared_flags_naming_the_command() {
        let err = args("affinity --l2kb 8").unwrap_err();
        assert!(err.contains("unknown flag --l2kb for affinity"), "{err}");
        // Declared on one page is not declared on another.
        assert!(args("affinity --jobs 2").is_err());
        assert!(args("selection --size tiny").is_err());
        assert!(args("selection --ways 8").is_ok());
    }

    #[test]
    fn rejects_values_of_the_wrong_kind() {
        for bad in [
            "sweep --jobs abc",
            "sweep --jobs -1",
            "events --passes 0",
            "sweep --rp 2",
            "sweep --rp nan",
            "sweep --distances 4,x",
            "sweep --events maybe",
            "adaptive --bounded yes",
            "sweep --size huge",
            "sweep --bench quake",
            "sweep --prefetcher markov",
        ] {
            let err = args(bad).unwrap_err();
            let flag = bad.split_whitespace().nth(1).unwrap();
            assert!(err.starts_with(&format!("{flag}:")), "{bad}: {err}");
        }
    }

    #[test]
    fn switches_stand_alone_or_take_on_off() {
        let a = args("top --once --json").unwrap();
        assert!(a.switch("once"));
        assert!(a.switch("json"));
        let a = args("top --once --addr 127.0.0.1:7077").unwrap();
        assert!(a.switch("once"));
        assert_eq!(a.get("addr"), Some("127.0.0.1:7077"));
        assert!(!args("top --once off").unwrap().switch("once"));
        assert!(!args("top").unwrap().switch("once"));
        let a = args("sweep --events --jobs 2").unwrap();
        assert!(a.switch("events"));
        assert_eq!(a.get("jobs"), Some("2"));
    }

    #[test]
    fn kernel_mapping_covers_every_builder_kernel() {
        assert_eq!(
            args("sweep --bench mst").unwrap().kernel().unwrap(),
            KernelKind::Mst
        );
        assert_eq!(args("sweep").unwrap().kernel().unwrap(), KernelKind::Em3d);
        for k in KernelKind::ALL {
            let line = format!("sweep --bench {}", k.flag());
            assert_eq!(args(&line).unwrap().kernel().unwrap(), k);
        }
        let err = args("sweep --bench nope").unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
    }

    #[test]
    fn cache_overrides_apply() {
        let a = args("sweep --l2-kb 64 --ways 8").unwrap();
        let c = a.cache_config().unwrap();
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert!(
            !args("sweep --hw-prefetch off")
                .unwrap()
                .cache_config()
                .unwrap()
                .hw_prefetchers
        );
    }

    #[test]
    fn bad_geometry_is_an_error_naming_the_flags() {
        for bad in [
            "--l2-kb 0",
            "--l2-kb 3",
            "--l2-kb 18014398509481984",
            "--l2-kb 524288",
            "--ways 0",
            "--ways 3",
            "--ways 256",
            "--line 7",
            "--line 128",
            "--l2-kb 1 --ways 64",
        ] {
            let err = args(&format!("affinity {bad}"))
                .unwrap()
                .cache_config()
                .unwrap_err();
            assert!(err.starts_with("L2 geometry --l2-kb"), "{bad}: {err}");
        }
    }

    #[test]
    fn prefetcher_selects_a_backend_and_rejects_unknowns() {
        let c = args("sweep").unwrap().cache_config().unwrap();
        assert_eq!(c.hw_backend, HwBackend::StreamerDpl);
        let c = args("sweep --prefetcher pointer-chase")
            .unwrap()
            .cache_config()
            .unwrap();
        assert_eq!(c.hw_backend, HwBackend::PointerChase);
        let err = args("sweep --prefetcher markov").unwrap_err();
        assert!(err.contains("unknown prefetcher markov"), "{err}");
        for b in HwBackend::ALL {
            assert!(err.contains(b.name()), "{err} missing {}", b.name());
        }
    }

    #[test]
    fn distances_parse() {
        let a = args("sweep --distances 1,2,30").unwrap();
        assert_eq!(a.distances(&[9]).unwrap(), vec![1, 2, 30]);
        assert_eq!(args("sweep").unwrap().distances(&[9]).unwrap(), vec![9]);
    }

    #[test]
    fn rp_is_checked_against_every_distance() {
        assert_eq!(args("sweep").unwrap().rp_for(&[4, 8]).unwrap(), 0.5);
        assert!(args("sweep --rp 1").unwrap().rp_for(&[0]).is_ok());
        for (line, ds) in [
            ("sweep --rp 1", &[0, 4][..]),
            ("sweep --rp 0", &[4][..]),
            ("sweep --rp 0.5", &[u32::MAX][..]),
        ] {
            let err = args(line).unwrap().rp_for(ds).unwrap_err();
            assert!(err.starts_with("--rp"), "{line}: {err}");
        }
    }
}
