//! Skip-list search — batched lookups over a probabilistic tower LDS.
//!
//! A skip list keeps sorted keys in a linked list with geometric
//! express-lane towers. The hot loop drains a batch of queries: each
//! query reads its key from a sequential query array (strided), then
//! descends from the head tower — at each visited node it reads the
//! node's key and forward pointer for the current level, dropping a
//! level when the next key overshoots. The descent addresses are
//! fragmented-heap node records revisited across queries (the upper
//! levels especially), which is what gives content-directed prefetchers
//! repeated pointer transitions to learn.

use crate::arena::Arena;
use sp_trace::SmallRng;
use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};

/// Reference-site ids used in skip-list traces.
pub mod sites {
    use sp_trace::SiteId;
    /// Sequential query-array read `queries[i]` (backbone).
    pub const QUERY: SiteId = SiteId(0);
    /// Head-tower read `head->forward[lvl]`.
    pub const HEAD: SiteId = SiteId(1);
    /// Node read during the descent `x->key / x->forward[lvl]`.
    pub const NODE: SiteId = SiteId(2);
}

/// Skip-list build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipListConfig {
    /// Element count (distinct keys `0, 2, 4, ...` — even values, so
    /// odd queries miss deterministically).
    pub nodes: usize,
    /// Maximum tower height.
    pub max_level: usize,
    /// Number of searches the hot loop performs.
    pub searches: usize,
    /// RNG seed for tower heights, heap layout, and query keys.
    pub seed: u64,
    /// Computation cycles per search (key compares).
    pub compute_per_search: u64,
}

impl SkipListConfig {
    /// Default scaled input matched to the scaled cache config.
    pub fn scaled() -> Self {
        SkipListConfig {
            nodes: 4096,
            max_level: 12,
            searches: 4096,
            seed: 0x5C1,
            compute_per_search: 8,
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        SkipListConfig {
            nodes: 128,
            max_level: 7,
            searches: 96,
            ..Self::scaled()
        }
    }
}

/// A built skip list plus its query batch.
#[derive(Debug, Clone)]
pub struct SkipList {
    cfg: SkipListConfig,
    /// Simulated address of the head tower.
    head_addr: VAddr,
    /// Simulated base address of the query array (8B entries).
    query_base: VAddr,
    /// Simulated address of each node record.
    node_addr: Vec<VAddr>,
    /// `forward[lvl][i]` = index of node `i`'s successor at `lvl`
    /// (`u32::MAX` = end of list). Index 0.. are the sorted nodes.
    forward: Vec<Vec<u32>>,
    /// `head_fwd[lvl]` = first node at `lvl` (`u32::MAX` = empty level).
    head_fwd: Vec<u32>,
    /// The query keys, in batch order.
    queries: Vec<u64>,
}

impl SkipList {
    /// Node `i` holds key `2 * i` (sorted by construction).
    fn key_of(i: u32) -> u64 {
        2 * i as u64
    }

    /// Build the list and the query batch.
    pub fn build(cfg: SkipListConfig) -> Self {
        assert!(cfg.nodes >= 2);
        assert!(cfg.max_level >= 1 && cfg.max_level <= 32);
        assert!(cfg.searches >= 1);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arena = Arena::fragmented(0xB00_0000, 128, cfg.seed ^ 0x5EA);
        let head_addr = arena.alloc(64, 64);
        let query_base = arena.alloc_array(cfg.searches as u64, 8, 64);
        let node_addr: Vec<VAddr> = (0..cfg.nodes).map(|_| arena.alloc(64, 64)).collect();
        // Geometric tower heights (p = 1/2), capped at max_level.
        let level: Vec<u8> = (0..cfg.nodes)
            .map(|_| {
                let mut l = 1u8;
                while (l as usize) < cfg.max_level && rng.gen_bool(0.5) {
                    l += 1;
                }
                l
            })
            .collect();
        // Nodes are already sorted (key = 2i); link each level.
        let mut forward = vec![vec![u32::MAX; cfg.nodes]; cfg.max_level];
        let mut head_fwd = vec![u32::MAX; cfg.max_level];
        for (lvl, fwd) in forward.iter_mut().enumerate() {
            let mut prev: Option<usize> = None;
            for (i, &l) in level.iter().enumerate() {
                if (l as usize) > lvl {
                    match prev {
                        Some(p) => fwd[p] = i as u32,
                        None => head_fwd[lvl] = i as u32,
                    }
                    prev = Some(i);
                }
            }
        }
        // Query mix: ~half present (even), ~half absent (odd).
        let queries = (0..cfg.searches)
            .map(|_| rng.gen_range(0..2 * cfg.nodes as u64))
            .collect();
        SkipList {
            cfg,
            head_addr,
            query_base,
            node_addr,
            forward,
            head_fwd,
            queries,
        }
    }

    /// This instance's configuration.
    pub fn config(&self) -> SkipListConfig {
        self.cfg
    }

    /// Outer-hot-loop iterations: one per search.
    pub fn hot_iterations(&self) -> usize {
        self.cfg.searches
    }

    /// First node at `lvl` (the head's forward pointer), if any.
    fn head_forward(&self, lvl: usize) -> u32 {
        self.head_fwd[lvl]
    }

    /// Walk one search, invoking `visit(node_index, level)` per node
    /// read; returns whether the key was found.
    fn search_with(&self, key: u64, mut visit: impl FnMut(u32, usize)) -> bool {
        let mut at: Option<u32> = None; // None = head
        for lvl in (0..self.cfg.max_level).rev() {
            loop {
                let next = match at {
                    None => self.head_forward(lvl),
                    Some(i) => self.forward[lvl][i as usize],
                };
                if next == u32::MAX || Self::key_of(next) > key {
                    break;
                }
                visit(next, lvl);
                if Self::key_of(next) == key {
                    return true;
                }
                at = Some(next);
            }
        }
        false
    }

    /// Push the query batch's reference stream into `s`, one search
    /// per outer iteration.
    pub fn emit(&self, s: &mut impl TraceSink) {
        for (i, &key) in self.queries.iter().enumerate() {
            s.backbone(MemRef::load(self.query_base + i as u64 * 8, sites::QUERY));
            s.inner(MemRef::load(self.head_addr, sites::HEAD));
            self.search_with(key, |node, _| {
                s.inner(MemRef::load(self.node_addr[node as usize], sites::NODE));
            });
            s.end_iter(self.cfg.compute_per_search);
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record(
            "skiplist::search",
            &["queries[i]", "head->forward[lvl]", "x->forward[lvl]"],
            |s| self.emit(s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(found, miss)` counts over the query batch.
    fn search_counts(s: &SkipList) -> (u64, u64) {
        let found = s
            .queries
            .iter()
            .filter(|&&q| s.search_with(q, |_, _| {}))
            .count() as u64;
        (found, s.cfg.searches as u64 - found)
    }

    #[test]
    fn build_is_deterministic() {
        let a = SkipList::build(SkipListConfig::tiny());
        let b = SkipList::build(SkipListConfig::tiny());
        assert_eq!(a.forward, b.forward);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.node_addr, b.node_addr);
    }

    #[test]
    fn search_agrees_with_key_parity() {
        let s = SkipList::build(SkipListConfig::tiny());
        for &q in &s.queries {
            let hit = s.search_with(q, |_, _| {});
            let expect = q % 2 == 0 && q < 2 * s.cfg.nodes as u64;
            assert_eq!(hit, expect, "query {q}");
        }
        let (found, miss) = search_counts(&s);
        assert!(found > 0 && miss > 0, "mix must contain hits and misses");
    }

    #[test]
    fn descents_are_logarithmic_not_linear() {
        let s = SkipList::build(SkipListConfig::tiny());
        let t = s.trace();
        assert_eq!(t.outer_iters(), s.hot_iterations());
        let worst = t.iters.iter().map(|it| it.inner().len()).max().unwrap();
        // A linear scan would visit ~nodes; towers keep it far smaller.
        assert!(
            worst < s.cfg.nodes / 2,
            "worst descent {worst} looks linear"
        );
    }

    #[test]
    fn query_reads_are_strided() {
        let s = SkipList::build(SkipListConfig::tiny());
        let t = s.trace();
        let reads: Vec<VAddr> = t
            .tagged_refs()
            .filter(|(_, r)| r.site == sites::QUERY)
            .map(|(_, r)| r.vaddr)
            .collect();
        for w in reads.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
    }

    #[test]
    fn node_reads_are_record_bases() {
        let s = SkipList::build(SkipListConfig::tiny());
        let t = s.trace();
        for (_, r) in t.tagged_refs().filter(|(_, r)| r.site == sites::NODE) {
            assert!(s.node_addr.contains(&r.vaddr));
        }
    }
}
