//! Cache geometry and address mapping.

use crate::config::ConfigError;
use sp_trace::VAddr;

/// Geometry of one cache level: capacity, associativity, line size.
///
/// All three must be powers of two and consistent
/// (`size = sets * ways * line_size` with `sets >= 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (lines per set).
    pub ways: u32,
    /// Line (block) size in bytes.
    pub line_size: u64,
}

/// Largest capacity [`CacheGeometry::try_new`] accepts: 256 MiB, 64× the
/// Core 2's 4 MiB L2. The simulator allocates per-line state up front.
pub const MAX_CACHE_BYTES: u64 = 256 << 20;

/// Most ways [`CacheGeometry::try_new`] accepts: replacement keeps one
/// `u8` recency rank per way.
pub const MAX_WAYS: u32 = 128;

impl CacheGeometry {
    /// Build a geometry from constants.
    ///
    /// # Panics
    /// On any [`try_new`](Self::try_new) error.
    pub fn new(size_bytes: u64, ways: u32, line_size: u64) -> Self {
        Self::try_new(size_bytes, ways, line_size).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a geometry, checking every rule: capacity, associativity and
    /// line size are non-zero powers of two, the capacity holds at least
    /// one full set, and neither capacity nor associativity passes its
    /// cap ([`MAX_CACHE_BYTES`], [`MAX_WAYS`]). Rules are checked in that
    /// order; the first broken one is returned.
    pub fn try_new(size_bytes: u64, ways: u32, line_size: u64) -> Result<Self, ConfigError> {
        // Every rule is evaluated; `max(1)` keeps a zero line (reported
        // by the rule before) from dividing by zero.
        let rules = [
            (size_bytes.is_power_of_two(), ConfigError::SizeNotPowerOfTwo),
            (ways.is_power_of_two(), ConfigError::WaysNotPowerOfTwo),
            (line_size.is_power_of_two(), ConfigError::LineNotPowerOfTwo),
            (
                size_bytes / line_size.max(1) >= ways as u64,
                ConfigError::NoFullSet,
            ),
            (size_bytes <= MAX_CACHE_BYTES, ConfigError::SizeTooLarge),
            (ways <= MAX_WAYS, ConfigError::TooManyWays),
        ];
        if let Some((_, broken)) = rules.into_iter().find(|(holds, _)| !holds) {
            return Err(broken);
        }
        Ok(CacheGeometry {
            size_bytes,
            ways,
            line_size,
        })
    }

    /// `log2(line_size)` — the offset-bit count.
    #[inline]
    pub fn line_shift(&self) -> u32 {
        self.line_size.trailing_zeros()
    }

    /// `log2(line_size * sets)` — the shift that isolates the tag bits.
    #[inline]
    pub fn tag_shift(&self) -> u32 {
        self.line_shift() + self.sets().trailing_zeros()
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> u64 {
        // All three parameters are powers of two (asserted in `new`), so
        // the division is a shift — this is on the per-access hot path.
        self.size_bytes >> (self.line_shift() + self.ways.trailing_zeros())
    }

    /// Total number of lines.
    #[inline]
    pub fn lines(&self) -> u64 {
        self.size_bytes >> self.line_shift()
    }

    /// Block-aligned address of `addr`.
    #[inline]
    pub fn block_of(&self, addr: VAddr) -> VAddr {
        addr & !(self.line_size - 1)
    }

    /// Index of the set `addr` maps to.
    #[inline]
    pub fn set_of(&self, addr: VAddr) -> u64 {
        (addr >> self.line_shift()) & (self.sets() - 1)
    }

    /// Tag of `addr` (the block address bits above the set index).
    #[inline]
    pub fn tag_of(&self, addr: VAddr) -> u64 {
        addr >> self.tag_shift()
    }

    /// Reconstruct the block address from a `(set, tag)` pair — the
    /// inverse of [`set_of`](Self::set_of)/[`tag_of`](Self::tag_of).
    #[inline]
    pub fn block_from(&self, set: u64, tag: u64) -> VAddr {
        ((tag << self.sets().trailing_zeros()) | set) << self.line_shift()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 32KB, 8-way, 64B lines — the paper's L1D (Table 1).
    fn l1() -> CacheGeometry {
        CacheGeometry::new(32 * 1024, 8, 64)
    }

    #[test]
    fn l1_has_64_sets() {
        assert_eq!(l1().sets(), 64);
        assert_eq!(l1().lines(), 512);
    }

    #[test]
    fn paper_l2_has_4096_sets() {
        // 4MB, 16-way, 64B — the paper's shared L2 (Table 1).
        let l2 = CacheGeometry::new(4 * 1024 * 1024, 16, 64);
        assert_eq!(l2.sets(), 4096);
    }

    #[test]
    fn set_and_tag_roundtrip() {
        let g = l1();
        for addr in [0u64, 64, 4096, 0xdead_bec0, 0xffff_ffc0] {
            let block = g.block_of(addr);
            let (s, t) = (g.set_of(addr), g.tag_of(addr));
            assert_eq!(g.block_from(s, t), block, "addr {addr:#x}");
        }
    }

    #[test]
    fn consecutive_blocks_map_to_consecutive_sets() {
        let g = l1();
        let s0 = g.set_of(0);
        let s1 = g.set_of(64);
        assert_eq!((s0 + 1) % g.sets(), s1);
    }

    #[test]
    fn same_set_different_tag_conflict() {
        let g = l1();
        let a = 0u64;
        let b = g.sets() * g.line_size; // one full way-stride apart
        assert_eq!(g.set_of(a), g.set_of(b));
        assert_ne!(g.tag_of(a), g.tag_of(b));
    }

    #[test]
    fn block_of_strips_offset_bits() {
        let g = l1();
        assert_eq!(g.block_of(0x1043), 0x1040);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_size() {
        // `try_new` names the first broken rule; `new` panics with it.
        let err = |s, w, l| CacheGeometry::try_new(s, w, l).unwrap_err();
        assert_eq!(err(0, 4, 64), ConfigError::SizeNotPowerOfTwo);
        assert_eq!(err(3000, 4, 64), ConfigError::SizeNotPowerOfTwo);
        assert_eq!(err(4096, 0, 64), ConfigError::WaysNotPowerOfTwo);
        assert_eq!(err(4096, 3, 64), ConfigError::WaysNotPowerOfTwo);
        assert_eq!(err(4096, 4, 0), ConfigError::LineNotPowerOfTwo);
        assert_eq!(err(4096, 4, 7), ConfigError::LineNotPowerOfTwo);
        // 2 lines < 4 ways.
        assert_eq!(err(128, 4, 64), ConfigError::NoFullSet);
        assert_eq!(err(MAX_CACHE_BYTES * 2, 16, 64), ConfigError::SizeTooLarge);
        assert!(CacheGeometry::try_new(MAX_CACHE_BYTES, 16, 64).is_ok());
        assert_eq!(err(1 << 20, 256, 64), ConfigError::TooManyWays);
        assert!(CacheGeometry::try_new(1 << 20, MAX_WAYS, 64).is_ok());
        // Earlier rules win: a bad size is reported before bad ways.
        assert_eq!(err(3000, 3, 7), ConfigError::SizeNotPowerOfTwo);
        let _ = CacheGeometry::new(3000, 4, 64);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn rejects_too_small_cache() {
        let _ = CacheGeometry::new(128, 4, 64); // 2 lines < 4 ways
    }
}
