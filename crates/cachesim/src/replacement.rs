//! Replacement policies.
//!
//! The Core 2's caches are (pseudo-)LRU; the paper's Set Affinity bound
//! implicitly assumes LRU-like behaviour ("the cached data in this
//! specific set will be replaced by new reference when the program
//! executes N iterations"). LRU is therefore the default; FIFO, Random,
//! and tree-PLRU are provided for the `ablation_replacement` bench, which
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

/// Per-cache replacement-policy state: recency/fill order per set.
///
/// The engine is deliberately self-contained — it tracks its own order
/// structures keyed by `(set, way)` and never inspects line contents —
/// so it can be unit-tested in isolation from the cache.
///
/// LRU/FIFO order is kept as one flat recency **stamp** per line (larger
/// = more recent) instead of per-set order lists: promoting a way is a
/// single store, and only the (much rarer) victim choice scans the set.
/// Stamps start in descending way order, so an untouched set evicts its
/// highest way first — exactly the order an explicit `[0, 1, .., w-1]`
/// most-to-least-recent list yields.
#[derive(Debug, Clone)]
pub struct PolicyEngine {
    policy: Policy,
    ways: usize,
    /// For LRU/FIFO: per-(set, way) recency stamp, flat `set * ways + way`.
    stamps: Vec<u64>,
    /// Monotonic counter behind the stamps; strictly increasing, so no
    /// two lines ever tie.
    clock: u64,
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
        let stamps = match policy {
            Policy::Lru | Policy::Fifo => Self::pristine_stamps(sets, ways),
            _ => Vec::new(),
        };
        let seed = match policy {
            Policy::Random { seed } => {
                assert!(seed != 0, "xorshift seed must be non-zero");
                seed
            }
            _ => 1,
        };
        PolicyEngine {
            policy,
            ways,
            stamps,
            clock: ways as u64,
            plru: vec![0; sets],
            rng: seed,
        }
    }

    fn pristine_stamps(sets: usize, ways: usize) -> Vec<u64> {
        let mut stamps = vec![0; sets * ways];
        for set in 0..sets {
            for w in 0..ways {
                stamps[set * ways + w] = (ways - 1 - w) as u64;
            }
        }
        stamps
    }

    /// Restore the freshly-constructed state without reallocating the
    /// stamp array.
    pub fn reset(&mut self) {
        let ways = self.ways;
        for (i, s) in self.stamps.iter_mut().enumerate() {
            *s = (ways - 1 - i % ways) as u64;
        }
        self.clock = ways as u64;
        self.plru.fill(0);
        let seed = match self.policy {
            Policy::Random { seed } => seed,
            _ => 1,
        };
        self.rng = seed;
    }

    /// Record a demand hit on `(set, way)`.
    #[inline]
    pub fn on_hit(&mut self, set: usize, way: usize) {
        match self.policy {
            Policy::Lru => self.move_to_front(set, way),
            Policy::Fifo | Policy::Random { .. } => {}
            Policy::PlruTree => self.plru_touch(set, way),
        }
    }

    /// Record a fill into `(set, way)`.
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: usize) {
        match self.policy {
            Policy::Lru | Policy::Fifo => self.move_to_front(set, way),
            Policy::Random { .. } => {}
            Policy::PlruTree => self.plru_touch(set, way),
        }
    }

    /// Choose the victim way for a fill into a full `set`.
    pub fn victim(&mut self, set: usize) -> usize {
        match self.policy {
            Policy::Lru | Policy::Fifo => {
                let base = set * self.ways;
                let stamps = &self.stamps[base..base + self.ways];
                let mut victim = 0;
                for (w, &s) in stamps.iter().enumerate() {
                    if s < stamps[victim] {
                        victim = w;
                    }
                }
                victim
            }
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

    #[inline]
    fn move_to_front(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
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
