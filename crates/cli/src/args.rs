//! Tiny hand-rolled flag parser (the workspace deliberately carries no
//! CLI dependency).

use sp_cachesim::{CacheConfig, CacheGeometry, HwBackend};
use sp_trace::HotLoopTrace;
use sp_workloads::{KernelKind, ScaleTier, WorkloadBuilder};

/// Flags that may appear without a value (`spt sweep --events`,
/// `spt events --original`, `spt top --once --json`).
const BOOLEAN_FLAGS: [&str; 4] = ["events", "original", "once", "json"];

/// Parsed command line: subcommand, positional args, `--key value` flags.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parse `std::env::args`-style input (without the program name).
    pub fn parse(input: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut it = input.into_iter();
        let command = it.next().ok_or("missing subcommand")?;
        if command.starts_with('-') {
            return Err(format!("expected a subcommand, got flag {command}"));
        }
        let mut flags = Vec::new();
        let mut it = it.peekable();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {a}"))?
                .to_string();
            // Boolean switches may stand alone; everything else is
            // strict `--key value`.
            if BOOLEAN_FLAGS.contains(&key.as_str())
                && it.peek().is_none_or(|next| next.starts_with("--"))
            {
                flags.push((key, "on".to_string()));
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            flags.push((key, value));
        }
        Ok(Args { command, flags })
    }

    /// True when the boolean switch `--key` was given (bare or as
    /// `--key on`).
    pub fn switch(&self, key: &str) -> bool {
        matches!(self.get(key), Some("on") | Some("true") | Some("1"))
    }

    /// The raw value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
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
        let k = self.kernel()?;
        let tier = match self.get("size").unwrap_or("scaled") {
            "scaled" => ScaleTier::Scaled,
            "tiny" => ScaleTier::Tiny,
            other => return Err(format!("unknown size {other}; expected scaled|tiny")),
        };
        Ok(WorkloadBuilder::new(k).tier(tier).trace())
    }

    /// The cache configuration from `--l2-kb`, `--ways`, `--line`,
    /// `--prefetcher NAME`, `--hw-prefetch on|off` (defaults: the
    /// scaled preset).
    pub fn cache_config(&self) -> Result<CacheConfig, String> {
        let mut cfg = match self.get("cache").unwrap_or("scaled") {
            "scaled" => CacheConfig::scaled_default(),
            "core2" => CacheConfig::core2_q6600(),
            other => {
                return Err(format!(
                    "unknown cache preset {other}; expected scaled|core2"
                ))
            }
        };
        let l2_kb: u64 = self.get_or("l2-kb", cfg.l2.size_bytes / 1024)?;
        let ways: u32 = self.get_or("ways", cfg.l2.ways)?;
        let line: u64 = self.get_or("line", cfg.l2.line_size)?;
        cfg.l2 = CacheGeometry::new(l2_kb * 1024, ways, line);
        if let Some(pf) = self.get("prefetcher") {
            cfg.hw_backend = HwBackend::parse(pf)?;
        }
        match self.get("hw-prefetch") {
            None => {}
            Some("on") => cfg.hw_prefetchers = true,
            Some("off") => cfg.hw_prefetchers = false,
            Some(other) => return Err(format!("--hw-prefetch: expected on|off, got {other}")),
        }
        cfg.validate();
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let a = args("sweep --bench mcf --rp 0.5").unwrap();
        assert_eq!(a.command, "sweep");
        assert_eq!(a.get("bench"), Some("mcf"));
        assert_eq!(a.get_or("rp", 0.0).unwrap(), 0.5);
        assert_eq!(a.get_or("missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn later_flags_override_earlier() {
        let a = args("x --k 1 --k 2").unwrap();
        assert_eq!(a.get("k"), Some("2"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(args("").is_err());
        assert!(args("--flag v").is_err());
        assert!(args("cmd --dangling").is_err());
        assert!(args("cmd positional").is_err());
    }

    #[test]
    fn boolean_switches_stand_alone() {
        let a = args("top --once --json").unwrap();
        assert!(a.switch("once"));
        assert!(a.switch("json"));
        let a = args("top --once --addr 127.0.0.1:7077").unwrap();
        assert!(a.switch("once"));
        assert_eq!(a.get("addr"), Some("127.0.0.1:7077"));
        let a = args("top --once off").unwrap();
        assert!(!a.switch("once"));
        assert!(!args("top").unwrap().switch("once"));
        let a = args("sweep --events --jobs 2").unwrap();
        assert!(a.switch("events"));
        assert_eq!(a.get("jobs"), Some("2"));
    }

    #[test]
    fn kernel_mapping_covers_every_builder_kernel() {
        assert_eq!(
            args("x --bench mst").unwrap().kernel().unwrap(),
            KernelKind::Mst
        );
        assert_eq!(args("x").unwrap().kernel().unwrap(), KernelKind::Em3d);
        for k in KernelKind::ALL {
            let line = format!("x --bench {}", k.flag());
            assert_eq!(args(&line).unwrap().kernel().unwrap(), k);
        }
        let err = args("x --bench nope").unwrap().kernel().unwrap_err();
        assert!(err.contains("unknown benchmark"), "{err}");
    }

    #[test]
    fn cache_overrides_apply() {
        let a = args("x --l2-kb 64 --ways 8").unwrap();
        let c = a.cache_config().unwrap();
        assert_eq!(c.l2.size_bytes, 64 * 1024);
        assert_eq!(c.l2.ways, 8);
        assert!(
            !args("x --hw-prefetch off")
                .unwrap()
                .cache_config()
                .unwrap()
                .hw_prefetchers
        );
    }

    #[test]
    fn prefetcher_selects_a_backend_and_rejects_unknowns() {
        let c = args("x").unwrap().cache_config().unwrap();
        assert_eq!(c.hw_backend, HwBackend::StreamerDpl);
        let c = args("x --prefetcher pointer-chase")
            .unwrap()
            .cache_config()
            .unwrap();
        assert_eq!(c.hw_backend, HwBackend::PointerChase);
        let err = args("x --prefetcher markov")
            .unwrap()
            .cache_config()
            .unwrap_err();
        assert!(err.contains("unknown prefetcher markov"), "{err}");
        for b in HwBackend::ALL {
            assert!(err.contains(b.name()), "{err} missing {}", b.name());
        }
    }

    #[test]
    fn distances_parse() {
        let a = args("x --distances 1,2,30").unwrap();
        assert_eq!(a.distances(&[9]).unwrap(), vec![1, 2, 30]);
        assert_eq!(args("x").unwrap().distances(&[9]).unwrap(), vec![9]);
        assert!(args("x --distances a").unwrap().distances(&[]).is_err());
    }
}
