//! Replacement policies.
//!
//! The Core 2's caches are (pseudo-)LRU; the paper's Set Affinity bound
//! implicitly assumes LRU-like behaviour ("the cached data in this
//! specific set will be replaced by new reference when the program
//! executes N iterations"). LRU is therefore the default; FIFO, Random,
//! and tree-PLRU are provided for the replacement ablation
//! (`reproduce ablations`, `results/ablation_replacement.csv`), which
//! checks how sensitive the pollution result is to the policy.

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// True least-recently-used (default).
    #[default]
    Lru,
    /// First-in-first-out (fill order, ignores hits).
    Fifo,
    /// Uniform random victim, deterministic from the given seed.
    Random {
        /// Seed for the xorshift generator (must be non-zero).
        seed: u64,
    },
    /// Binary-tree pseudo-LRU (what real L2s approximate).
    PlruTree,
}

/// Ranks per fixed-width lane block of a [`Recency`] row.
const LANES: usize = 16;
/// Rank of the padding past `ways`: above every live rank, so it never
/// ages and never reads as least recent.
const PAD: u8 = u8::MAX;

/// Rank-order recency over `rows` rows of `ways` ways: one `u8` rank per
/// (row, way), 0 = most recent, `ways - 1` = least recent.
///
/// Each row is always a permutation of `0..ways`, so ranks encode the
/// exact order of last touches — no two ways ever tie — without a
/// global counter or a min-scan. The pristine rank of way `w` is `w`:
/// an untouched row lists its lowest way as most recent and its highest
/// as least recent. Every least-recently-used choice in the crate — the
/// cache replacement engine and the prefetchers' tracking tables — goes
/// through this one table.
///
/// Rows are whole [`LANES`]-byte blocks padded with [`PAD`], so
/// [`touch`](Self::touch) is a fixed-width, branch-free (vectorised) pass
/// and [`lru`](Self::lru) tests one block per step.
#[derive(Debug, Clone)]
pub(crate) struct Recency {
    ways: usize,
    /// Lane blocks per row.
    blocks: usize,
    /// Flat `row * blocks + way / LANES`, then `way % LANES`.
    ranks: Vec<[u8; LANES]>,
}

impl Recency {
    /// `rows` pristine rows of `ways` ways (`ways` must fit a `u8` rank).
    pub(crate) fn new(rows: usize, ways: usize) -> Self {
        assert!(ways > 0 && ways <= 255, "ways must fit in u8");
        let blocks = ways.div_ceil(LANES);
        let mut r = Recency {
            ways,
            blocks,
            ranks: vec![[PAD; LANES]; rows * blocks],
        };
        r.reset();
        r
    }

    /// Ways per row.
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// Restore every row to the pristine order without reallocating.
    pub(crate) fn reset(&mut self) {
        for row in self.ranks.chunks_exact_mut(self.blocks) {
            for (w, r) in row.as_flattened_mut().iter_mut().enumerate() {
                *r = if w < self.ways { w as u8 } else { PAD };
            }
        }
    }

    /// Make `way` the most recent of `row`: every rank below its old rank
    /// ages by one and the way itself takes rank 0, in one fixed-width,
    /// branch-free pass per block (one store per block, so the next
    /// read of the row forwards straight from it).
    #[inline(always)]
    pub(crate) fn touch(&mut self, row: usize, way: usize) {
        let ranks = &mut self.ranks[row * self.blocks..][..self.blocks];
        let old = ranks[way / LANES][way % LANES];
        for block in ranks {
            for r in block {
                // `way` is the only rank equal to `old`.
                *r = if *r == old {
                    0
                } else {
                    *r + u8::from(*r < old)
                };
            }
        }
    }

    /// The least recent way of `row` (the one ranked `ways - 1`).
    #[inline]
    pub(crate) fn lru(&self, row: usize) -> usize {
        // Per block, as one 128-bit word: XOR zeroes the byte ranked
        // last, and the borrow trick flags the lowest zero byte (exact,
        // since a row holds only one such byte).
        const ONES: u128 = u128::MAX / 0xff;
        let last = ONES * u128::from(self.ways as u8 - 1);
        let ranks = &self.ranks[row * self.blocks..][..self.blocks];
        for (b, block) in ranks.iter().enumerate() {
            let x = u128::from_le_bytes(*block) ^ last;
            let zero = x.wrapping_sub(ONES) & !x & (ONES << 7);
            if zero != 0 {
                return b * LANES + zero.trailing_zeros() as usize / 8;
            }
        }
        unreachable!("a recency row is a permutation of 0..ways")
    }
}

/// Per-cache replacement-policy state: recency/fill order per set.
///
/// The engine is deliberately self-contained — it tracks its own order
/// structures keyed by `(set, way)` and never inspects line contents —
/// so it can be unit-tested in isolation from the cache.
///
/// LRU/FIFO order is one `Recency` rank row per set: promoting a way ages
/// the younger ways of its set in one branch-free pass, and the victim
/// is the way ranked last. An untouched set evicts its highest way
/// first — exactly the order an explicit `[0, 1, .., w-1]`
/// most-to-least-recent list yields.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    policy: Policy,
    ways: usize,
    /// For LRU/FIFO: one recency row per set (empty otherwise).
    order: Recency,
    /// For tree-PLRU: per-set direction bits.
    plru: Vec<u64>,
    /// Xorshift state for `Policy::Random`.
    rng: u64,
}

impl PolicyEngine {
    /// Create the engine for a cache with `sets` sets of `ways` ways.
    pub fn new(policy: Policy, sets: usize, ways: usize) -> Self {
        assert!(ways > 0 && ways <= 255, "ways must fit in u8");
        if matches!(policy, Policy::PlruTree) {
            assert!(
                ways.is_power_of_two(),
                "tree-PLRU requires power-of-two ways"
            );
        }
        if let Policy::Random { seed } = policy {
            assert!(seed != 0, "xorshift seed must be non-zero");
        }
        let lists = matches!(policy, Policy::Lru | Policy::Fifo);
        let mut engine = PolicyEngine {
            policy,
            ways,
            order: Recency::new(if lists { sets } else { 0 }, ways),
            plru: vec![0; sets],
            rng: 0,
        };
        engine.reset();
        engine
    }

    /// Restore the freshly-constructed state without reallocating the
    /// recency ranks.
    pub fn reset(&mut self) {
        self.order.reset();
        self.plru.fill(0);
        self.rng = match self.policy {
            Policy::Random { seed } => seed,
            _ => 1,
        };
    }

    /// Record a demand hit on `(set, way)`.
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize) {
        match self.policy {
            Policy::Lru => self.order.touch(set, way),
            Policy::Fifo | Policy::Random { .. } => {}
            Policy::PlruTree => self.plru_touch(set, way),
        }
    }

    /// Record a fill into `(set, way)`.
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        match self.policy {
            Policy::Lru | Policy::Fifo => self.order.touch(set, way),
            Policy::Random { .. } => {}
            Policy::PlruTree => self.plru_touch(set, way),
        }
    }

    /// Choose the victim way for a fill into a full `set`.
    pub fn victim(&mut self, set: usize) -> usize {
        match self.policy {
            Policy::Lru | Policy::Fifo => self.order.lru(set),
            Policy::Random { .. } => {
                // xorshift64
                let mut x = self.rng;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                self.rng = x;
                (x % self.ways as u64) as usize
            }
            Policy::PlruTree => self.plru_victim(set),
        }
    }

    /// Walk the PLRU tree towards `way`, flipping each internal node to
    /// point *away* from the taken direction.
    fn plru_touch(&mut self, set: usize, way: usize) {
        let mut node = 0usize; // tree nodes in heap order, 0-based
        let mut lo = 0usize;
        let mut hi = self.ways;
        let bits = &mut self.plru[set];
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                *bits |= 1 << node; // point to the right (away)
                node = 2 * node + 1;
                hi = mid;
            } else {
                *bits &= !(1 << node); // point to the left (away)
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    /// Follow the PLRU direction bits to the pseudo-LRU way.
    fn plru_victim(&self, set: usize) -> usize {
        let bits = self.plru[set];
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if bits & (1 << node) != 0 {
                node = 2 * node + 2; // bit set: victim on the right
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_touched() {
        let mut e = PolicyEngine::new(Policy::Lru, 1, 4);
        for w in 0..4 {
            e.on_fill(0, w);
        }
        // Recency now 3,2,1,0 (most..least). Touch 0 -> LRU is 1.
        e.on_hit(0, 0);
        assert_eq!(e.victim(0), 1);
        e.on_hit(0, 1);
        assert_eq!(e.victim(0), 2);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut e = PolicyEngine::new(Policy::Fifo, 1, 4);
        for w in 0..4 {
            e.on_fill(0, w);
        }
        e.on_hit(0, 0); // FIFO must not promote on hit
        assert_eq!(e.victim(0), 0);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = PolicyEngine::new(Policy::Random { seed: 9 }, 1, 8);
        let mut b = PolicyEngine::new(Policy::Random { seed: 9 }, 1, 8);
        let va: Vec<usize> = (0..32).map(|_| a.victim(0)).collect();
        let vb: Vec<usize> = (0..32).map(|_| b.victim(0)).collect();
        assert_eq!(va, vb);
        assert!(va.iter().all(|&w| w < 8));
        // Not constant (would indicate a broken generator).
        assert!(va.iter().any(|&w| w != va[0]));
    }

    #[test]
    fn plru_victim_avoids_recently_touched_way() {
        let mut e = PolicyEngine::new(Policy::PlruTree, 1, 4);
        e.on_fill(0, 2);
        // Victim must not be the way just touched.
        assert_ne!(e.victim(0), 2);
        e.on_fill(0, 0);
        assert_ne!(e.victim(0), 0);
    }

    #[test]
    fn plru_cycles_through_all_ways_under_round_robin_touches() {
        // Touch the victim each time: over `ways` rounds every way must be
        // chosen at least once (PLRU's fairness property).
        let ways = 8;
        let mut e = PolicyEngine::new(Policy::PlruTree, 1, ways);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..ways * 2 {
            let v = e.victim(0);
            seen.insert(v);
            e.on_fill(0, v);
        }
        assert_eq!(seen.len(), ways);
    }

    #[test]
    fn per_set_state_is_independent() {
        let mut e = PolicyEngine::new(Policy::Lru, 2, 2);
        e.on_fill(0, 0);
        e.on_fill(0, 1);
        e.on_fill(1, 1);
        e.on_fill(1, 0);
        assert_eq!(e.victim(0), 0);
        assert_eq!(e.victim(1), 1);
    }

    #[test]
    fn reset_matches_fresh_engine() {
        for policy in [
            Policy::Lru,
            Policy::Fifo,
            Policy::Random { seed: 9 },
            Policy::PlruTree,
        ] {
            let mut used = PolicyEngine::new(policy, 2, 4);
            for w in [3, 1, 2, 0] {
                used.on_fill(0, w);
                used.on_hit(1, w);
                let _ = used.victim(0);
            }
            used.reset();
            let mut fresh = PolicyEngine::new(policy, 2, 4);
            for set in 0..2 {
                assert_eq!(used.victim(set), fresh.victim(set), "{policy:?}");
            }
        }
    }

    #[test]
    fn touch_keeps_every_row_a_permutation() {
        sp_testkit::check(64, |rng| {
            let (rows, ways) = (3, rng.gen_range(1usize..=128));
            let mut r = Recency::new(rows, ways);
            for _ in 0..rng.gen_range(0usize..400) {
                r.touch(rng.gen_range(0..rows), rng.gen_range(0..ways));
            }
            for (i, row) in r.ranks.chunks_exact(r.blocks).enumerate() {
                let (live, pad) = row.as_flattened().split_at(ways);
                let mut sorted = live.to_vec();
                sorted.sort_unstable();
                assert!(sorted.iter().copied().eq(0..ways as u8), "{live:?}");
                assert!(pad.iter().all(|&p| p == PAD), "padding aged");
                assert_eq!(live[r.lru(i)] as usize, ways - 1);
            }
        });
    }

    #[test]
    fn pristine_rows_rank_each_way_by_its_index() {
        for ways in [1, 4, 16, 17, 128, 255] {
            let mut r = Recency::new(2, ways);
            assert_eq!(r.lru(1), ways - 1, "untouched rows evict the top way");
            r.touch(1, ways - 1);
            r.reset();
            for row in r.ranks.chunks_exact(r.blocks) {
                let live = &row.as_flattened()[..ways];
                assert!(live.iter().copied().eq(0..ways as u8));
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_pow2_ways() {
        let _ = PolicyEngine::new(Policy::PlruTree, 1, 3);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn random_rejects_zero_seed() {
        let _ = PolicyEngine::new(Policy::Random { seed: 0 }, 1, 4);
    }
}
