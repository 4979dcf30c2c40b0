//! Whole-system configuration and presets.

use crate::clock::LatencyConfig;
use crate::geometry::CacheGeometry;
use crate::replacement::Policy;

/// L1/L2 inclusion policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Inclusion {
    /// Evicting an L2 line back-invalidates it from every L1 (the Core 2
    /// family's inclusive LLC). Under this policy, L2 pollution evicts
    /// L1-resident data too — pollution bites slightly harder.
    Inclusive,
    /// L1s may keep lines the L2 evicted (default: simpler and the
    /// counters the paper measures are L2-side either way).
    #[default]
    NonInclusive,
}

/// Which hardware-prefetcher backend the per-core slots run.
///
/// The paper's machine pairs a streamer with a DPL stride prefetcher
/// per core ([`HwBackend::StreamerDpl`], the default); the other
/// variants swap that pair for a single backend so sweeps can compare
/// prefetching strategies on the same workload. Selection is
/// orthogonal to [`CacheConfig::hw_prefetchers`], which turns the
/// hardware path off entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HwBackend {
    /// The Core 2 pair: streaming + DPL stride prefetchers (default).
    #[default]
    StreamerDpl,
    /// Streaming (sequential) prefetcher only.
    Streamer,
    /// DPL (IP-indexed stride) prefetcher only.
    Dpl,
    /// Pointer-chase (content-directed) prefetcher: learns block
    /// successor edges and chases them to a depth budget.
    PointerChase,
    /// Perceptron-gated stride prefetcher: stride candidates filtered
    /// by a learned feature-weight gate.
    Perceptron,
}

impl HwBackend {
    /// Every backend, in wire order.
    pub const ALL: [HwBackend; 5] = [
        HwBackend::StreamerDpl,
        HwBackend::Streamer,
        HwBackend::Dpl,
        HwBackend::PointerChase,
        HwBackend::Perceptron,
    ];

    /// Wire/flag spelling (`--prefetcher` values, serve request keys).
    pub fn name(self) -> &'static str {
        match self {
            HwBackend::StreamerDpl => "streamer+dpl",
            HwBackend::Streamer => "streamer",
            HwBackend::Dpl => "dpl",
            HwBackend::PointerChase => "pointer-chase",
            HwBackend::Perceptron => "perceptron",
        }
    }

    /// Parse a wire spelling; the error lists every valid backend.
    pub fn parse(s: &str) -> Result<HwBackend, String> {
        HwBackend::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = HwBackend::ALL.iter().map(|b| b.name()).collect();
                format!("unknown prefetcher {s}; expected {}", names.join("|"))
            })
    }
}

/// Configuration of the simulated CMP memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of cores sharing the L2 (the SP experiments use 2: main +
    /// helper, like one die of the paper's Q6600).
    pub cores: u8,
    /// Private L1D geometry (per core).
    pub l1: CacheGeometry,
    /// Shared L2 (last-level) geometry.
    pub l2: CacheGeometry,
    /// L2 replacement policy (L1s always use LRU).
    pub policy: Policy,
    /// L1/L2 inclusion policy.
    pub inclusion: Inclusion,
    /// Latency model.
    pub latency: LatencyConfig,
    /// L2 MSHR entries (outstanding fills).
    pub mshr_entries: usize,
    /// Whether the per-core hardware prefetchers are enabled. The paper's
    /// *Original Set Affinity* is measured with these disabled ("L2
    /// prefetchers are all disabled", Definition 2).
    pub hw_prefetchers: bool,
    /// Streaming-prefetcher slots per core.
    pub stream_slots: usize,
    /// Blocks prefetched ahead per streamer trigger.
    pub stream_degree: u32,
    /// DPL (stride) table entries per core.
    pub dpl_entries: usize,
    /// Strides prefetched ahead per DPL trigger.
    pub dpl_degree: u32,
    /// Which backend the hardware-prefetcher slots run.
    pub hw_backend: HwBackend,
    /// Pointer-chase correlation-table entries per core.
    pub pchase_entries: usize,
    /// Blocks the pointer-chase backend chases per trigger.
    pub pchase_depth: u32,
}

impl CacheConfig {
    /// The default, **scaled** configuration used by the reproduction:
    /// the paper's geometry shrunk 16x (L2 4MB -> 256KB, L1 32KB -> 4KB)
    /// so the scaled workloads exert the same per-set pressure as the
    /// paper's full-size inputs did on the real machine (DESIGN.md §2).
    pub fn scaled_default() -> Self {
        CacheConfig {
            cores: 2,
            l1: CacheGeometry::new(4 * 1024, 8, 64),
            l2: CacheGeometry::new(256 * 1024, 16, 64),
            policy: Policy::Lru,
            inclusion: Inclusion::NonInclusive,
            latency: LatencyConfig::default(),
            mshr_entries: 16,
            hw_prefetchers: true,
            stream_slots: 8,
            stream_degree: 2,
            dpl_entries: 16,
            dpl_degree: 2,
            hw_backend: HwBackend::StreamerDpl,
            pchase_entries: 256,
            pchase_depth: 2,
        }
    }

    /// The paper's hardware (Table 1): Intel Core 2 Quad Q6600 — per die,
    /// two cores with 32KB 8-way L1Ds sharing a 4MB 16-way unified L2,
    /// 64-byte lines.
    pub fn core2_q6600() -> Self {
        CacheConfig {
            l1: CacheGeometry::new(32 * 1024, 8, 64),
            l2: CacheGeometry::new(4 * 1024 * 1024, 16, 64),
            ..Self::scaled_default()
        }
    }

    /// The same configuration with hardware prefetchers disabled (the
    /// paper's *original* run mode, Definition 2).
    pub fn without_hw_prefetchers(mut self) -> Self {
        self.hw_prefetchers = false;
        self
    }

    /// Replace the L2 replacement policy (for the replacement ablation,
    /// `results/ablation_replacement.csv`).
    pub fn with_policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Select the hardware-prefetcher backend (and enable the hardware
    /// path, which a backend choice implies).
    pub fn with_hw_backend(mut self, backend: HwBackend) -> Self {
        self.hw_backend = backend;
        self.hw_prefetchers = true;
        self
    }

    /// Make the L2 inclusive (back-invalidating), as on the real Core 2.
    pub fn inclusive(mut self) -> Self {
        self.inclusion = Inclusion::Inclusive;
        self
    }

    /// Check the configuration's cross-field rules, for constants.
    ///
    /// # Panics
    /// On any [`check`](Self::check) error.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Check the configuration's cross-field rules: one line size for L1
    /// and L2 (the hierarchy moves whole L2 lines), and non-zero cores,
    /// MSHR entries and pointer-chase table. Each level's own shape is
    /// [`CacheGeometry::try_new`]'s to check.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.l1.line_size != self.l2.line_size {
            return Err(ConfigError::LineMismatch);
        }
        let counts = [self.cores as usize, self.mshr_entries, self.pchase_entries];
        if counts.contains(&0) || self.pchase_depth == 0 {
            return Err(ConfigError::ZeroCount);
        }
        Ok(())
    }
}

/// A broken rule of [`CacheGeometry::try_new`] or [`CacheConfig::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The capacity is zero or not a power of two.
    SizeNotPowerOfTwo,
    /// The associativity is zero or not a power of two.
    WaysNotPowerOfTwo,
    /// The line size is zero or not a power of two.
    LineNotPowerOfTwo,
    /// The capacity holds fewer lines than one set has ways.
    NoFullSet,
    /// The capacity exceeds [`crate::geometry::MAX_CACHE_BYTES`].
    SizeTooLarge,
    /// The associativity exceeds [`crate::geometry::MAX_WAYS`].
    TooManyWays,
    /// L1 and L2 line sizes differ.
    LineMismatch,
    /// Zero cores, MSHR entries, or pointer-chase table entries or depth.
    ZeroCount,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConfigError::SizeNotPowerOfTwo => "cache size must be a power of two",
            ConfigError::WaysNotPowerOfTwo => "associativity must be a power of two",
            ConfigError::LineNotPowerOfTwo => "line size must be a power of two",
            ConfigError::NoFullSet => "cache must hold at least one set",
            ConfigError::SizeTooLarge => "cache size must be at most 256 MiB",
            ConfigError::TooManyWays => "associativity must be at most 128",
            ConfigError::LineMismatch => "L1 and L2 must share a line size",
            ConfigError::ZeroCount => "cores, MSHRs and the pointer-chase table must be non-zero",
        })
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self::scaled_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        CacheConfig::scaled_default().validate();
        CacheConfig::core2_q6600().validate();
    }

    #[test]
    fn paper_l2_matches_table1() {
        let c = CacheConfig::core2_q6600();
        assert_eq!(c.l2.size_bytes, 4 * 1024 * 1024);
        assert_eq!(c.l2.ways, 16);
        assert_eq!(c.l2.line_size, 64);
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.ways, 8);
    }

    #[test]
    fn scaled_l2_is_16x_smaller_same_shape() {
        let s = CacheConfig::scaled_default();
        let p = CacheConfig::core2_q6600();
        assert_eq!(p.l2.size_bytes / s.l2.size_bytes, 16);
        assert_eq!(s.l2.ways, p.l2.ways);
        assert_eq!(s.l2.line_size, p.l2.line_size);
    }

    #[test]
    fn builder_helpers() {
        let c = CacheConfig::scaled_default().without_hw_prefetchers();
        assert!(!c.hw_prefetchers);
        let c = c.with_policy(Policy::Fifo);
        assert_eq!(c.policy, Policy::Fifo);
        assert_eq!(
            c.inclusion,
            Inclusion::NonInclusive,
            "non-inclusive by default"
        );
        assert_eq!(c.inclusive().inclusion, Inclusion::Inclusive);
    }

    #[test]
    fn backend_names_round_trip_and_unknowns_list_the_valid_set() {
        for b in HwBackend::ALL {
            assert_eq!(HwBackend::parse(b.name()), Ok(b));
        }
        assert_eq!(HwBackend::default(), HwBackend::StreamerDpl);
        let err = HwBackend::parse("markov").unwrap_err();
        assert!(err.contains("unknown prefetcher markov"), "{err}");
        for b in HwBackend::ALL {
            assert!(err.contains(b.name()), "{err} missing {}", b.name());
        }
    }

    #[test]
    fn with_hw_backend_selects_and_enables() {
        let c = CacheConfig::scaled_default()
            .without_hw_prefetchers()
            .with_hw_backend(HwBackend::PointerChase);
        assert_eq!(c.hw_backend, HwBackend::PointerChase);
        assert!(c.hw_prefetchers, "choosing a backend implies enabling");
        c.validate();
    }

    #[test]
    #[should_panic(expected = "share a line size")]
    fn validate_rejects_mismatched_lines() {
        // `check` names each broken rule; `validate` panics with it.
        let broken = |f: fn(&mut CacheConfig)| {
            let mut c = CacheConfig::scaled_default();
            f(&mut c);
            c.check().unwrap_err()
        };
        assert_eq!(broken(|c| c.cores = 0), ConfigError::ZeroCount);
        assert_eq!(broken(|c| c.mshr_entries = 0), ConfigError::ZeroCount);
        assert_eq!(broken(|c| c.pchase_entries = 0), ConfigError::ZeroCount);
        assert_eq!(broken(|c| c.pchase_depth = 0), ConfigError::ZeroCount);
        assert_eq!(CacheConfig::core2_q6600().check(), Ok(()));
        let mut c = CacheConfig::scaled_default();
        c.l1 = CacheGeometry::new(4 * 1024, 8, 32);
        assert_eq!(c.check(), Err(ConfigError::LineMismatch));
        c.validate();
    }
}
