//! LRU stack-distance (reuse-distance) analysis — Mattson et al.'s
//! classic one-pass algorithm.
//!
//! Set Affinity (paper §III.B) is a *first-overflow* summary of set
//! pressure; the stack-distance histogram is the complete picture: the
//! number of distinct blocks mapped to the same set since the previous
//! access to a block determines whether that access hits in an LRU set
//! of any given associativity. One profiling pass therefore yields the
//! exact LRU miss count for **every** associativity simultaneously
//! (Mattson's inclusion property), which this crate uses to
//!
//! * cross-validate the cache simulator (an independent oracle — see
//!   `miss_count` tests and `prop_profiler.rs`), and
//! * let users size the L2 for a workload before running any sweep.
//!
//! Distances are computed **per cache set** over block addresses, which
//! is exactly the domain the Set Affinity argument lives in.

use sp_cachesim::CacheGeometry;
use sp_trace::{HotLoopTrace, VAddr};
use std::collections::HashMap;

/// A per-set LRU stack distance histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReuseHistogram {
    /// `histogram[d]` = accesses whose stack distance is exactly `d`
    /// (0 = re-access with no intervening distinct block in the set).
    pub histogram: Vec<u64>,
    /// First-touch (cold) accesses: infinite distance.
    pub cold: u64,
    /// Total accesses analyzed.
    pub total: u64,
}

impl ReuseHistogram {
    /// Exact LRU miss count for a cache of this geometry with `ways`
    /// associativity (Mattson): an access misses iff its stack distance
    /// is `>= ways` (or cold).
    pub fn miss_count(&self, ways: u32) -> u64 {
        let hits: u64 = self.histogram.iter().take(ways as usize).sum();
        self.total - hits
    }

    /// Miss ratio for `ways` associativity.
    pub fn miss_ratio(&self, ways: u32) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.miss_count(ways) as f64 / self.total as f64
        }
    }

    /// The smallest associativity achieving `target` miss ratio or
    /// better, if any associativity up to the histogram length does.
    pub fn ways_for_miss_ratio(&self, target: f64) -> Option<u32> {
        (1..=self.histogram.len() as u32 + 1).find(|&w| self.miss_ratio(w) <= target)
    }
}

/// One-pass per-set stack-distance analysis of `trace` against the sets
/// of `geo` (associativity is *not* consumed — that is the point).
///
/// ```
/// use sp_cachesim::CacheGeometry;
/// use sp_profiler::reuse_histogram;
/// use sp_trace::synth;
///
/// let geo = CacheGeometry::new(4 * 1024, 4, 64);
/// // A pure streaming scan never reuses a block: every access is cold.
/// let h = reuse_histogram(&synth::sequential(100, 4, 0, 64, 0), geo);
/// assert_eq!(h.miss_ratio(16), 1.0);
/// ```
///
/// Implementation: per set, an ordered list of resident blocks in
/// recency order; the distance of an access is its block's index in the
/// list (then the block moves to the front). Lists grow to the set's
/// distinct-block count; for the workloads here that is a few hundred
/// entries, so the O(distance) scan is faster than a tree.
pub fn reuse_histogram(trace: &HotLoopTrace, geo: CacheGeometry) -> ReuseHistogram {
    let mut stacks: HashMap<u64, Vec<VAddr>> = HashMap::new();
    let mut h = ReuseHistogram::default();
    for (_, r) in trace.tagged_refs() {
        let block = geo.block_of(r.vaddr);
        let set = geo.set_of(r.vaddr);
        let stack = stacks.entry(set).or_default();
        h.total += 1;
        match stack.iter().position(|&b| b == block) {
            Some(d) => {
                if h.histogram.len() <= d {
                    h.histogram.resize(d + 1, 0);
                }
                h.histogram[d] += 1;
                stack.remove(d);
                stack.insert(0, block);
            }
            None => {
                h.cold += 1;
                stack.insert(0, block);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cachesim::{Entity, Policy, SetAssocCache};
    use sp_trace::synth;
    use sp_trace::TraceSink;

    fn geo() -> CacheGeometry {
        CacheGeometry::new(4 * 1024, 4, 64) // 16 sets x 4 ways
    }

    /// Count misses by actually simulating an LRU cache of `ways`.
    fn simulated_misses(trace: &HotLoopTrace, ways: u32) -> u64 {
        let g = geo();
        let sim_geo = CacheGeometry::new(g.sets() * ways as u64 * g.line_size, ways, g.line_size);
        assert_eq!(sim_geo.sets(), g.sets(), "same set count, different ways");
        let mut c = SetAssocCache::new(sim_geo, Policy::Lru);
        let mut misses = 0;
        for (_, r) in trace.tagged_refs() {
            if c.demand_touch(r.vaddr, false).is_none() {
                misses += 1;
                c.fill(r.vaddr, Entity::Main, false);
            }
        }
        misses
    }

    use sp_trace::HotLoopTrace;

    #[test]
    fn histogram_counts_partition_accesses() {
        let t = synth::random(300, 5, 0, 1 << 14, 7, 0);
        let h = reuse_histogram(&t, geo());
        let in_hist: u64 = h.histogram.iter().sum();
        assert_eq!(in_hist + h.cold, h.total);
        assert_eq!(h.total, t.total_refs() as u64);
    }

    #[test]
    fn mattson_matches_simulation_for_every_associativity() {
        let t = synth::random(400, 6, 0, 1 << 14, 13, 0);
        let h = reuse_histogram(&t, geo());
        for ways in [1u32, 2, 4, 8] {
            assert_eq!(
                h.miss_count(ways),
                simulated_misses(&t, ways),
                "ways = {ways}"
            );
        }
    }

    #[test]
    fn inclusion_property_miss_count_monotone_in_ways() {
        let t = synth::random(500, 4, 0, 1 << 15, 21, 0);
        let h = reuse_histogram(&t, geo());
        for w in 1..16u32 {
            assert!(h.miss_count(w + 1) <= h.miss_count(w));
        }
    }

    #[test]
    fn streaming_trace_is_all_cold() {
        let t = synth::sequential(100, 4, 0, 64, 0);
        let h = reuse_histogram(&t, geo());
        assert_eq!(h.cold, h.total);
        assert_eq!(h.miss_count(16), h.total);
        assert_eq!(h.miss_ratio(16), 1.0);
    }

    #[test]
    fn single_block_rereference_has_distance_zero() {
        let t = HotLoopTrace::record("t", &[], |s| {
            for _ in 0..50 {
                s.iteration(&[], &[sp_trace::MemRef::anon(0x40)], 0);
            }
        });
        let h = reuse_histogram(&t, geo());
        assert_eq!(h.cold, 1);
        assert_eq!(h.histogram[0], 49);
        assert_eq!(
            h.miss_count(1),
            1,
            "one cold miss, everything else hits at 1 way"
        );
    }

    #[test]
    fn ways_for_miss_ratio_finds_the_knee() {
        // Cycle over 3 conflicting blocks in one set: distance 2 each
        // after warmup -> needs 3 ways for ~0 misses.
        let g = geo();
        let t = HotLoopTrace::record("t", &[], |s| {
            for i in 0..90u64 {
                let b = i % 3;
                s.iteration(
                    &[],
                    &[sp_trace::MemRef::anon(b * g.sets() * g.line_size)],
                    0,
                );
            }
        });
        let h = reuse_histogram(&t, g);
        assert!(h.miss_ratio(2) > 0.9, "2 ways thrash");
        assert!(h.miss_ratio(3) < 0.05, "3 ways hold the cycle");
        assert_eq!(h.ways_for_miss_ratio(0.1), Some(3));
    }

    #[test]
    fn empty_trace() {
        let h = reuse_histogram(&HotLoopTrace::default(), geo());
        assert_eq!(h.total, 0);
        assert_eq!(h.miss_ratio(4), 0.0);
    }
}
