//! B-tree range scan — descend to a leaf, then walk the leaf chain.
//!
//! A bulk-loaded B+-tree over sorted keys: inner nodes hold fanout-many
//! child pointers, leaves hold key runs and a next-leaf pointer. The
//! hot loop drains a batch of range queries: read the query bounds from
//! a sequential array (strided), descend root→leaf (one node record
//! read per level, pointer-chased on a fragmented heap), then walk
//! `span` leaves through the sibling chain, touching each leaf's key
//! area block by block (strided *within* a leaf, irregular *across*
//! leaves — the same regular/irregular split as the other LDS kernels,
//! with the leaf chain giving content-directed prefetchers a stable
//! successor edge to learn).

use crate::arena::Arena;
use sp_trace::SmallRng;
use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};

/// Reference-site ids used in B-tree traces.
pub mod sites {
    use sp_trace::SiteId;
    /// Sequential query-array read `ranges[i]` (backbone).
    pub const QUERY: SiteId = SiteId(0);
    /// Inner-node read during the descent `node->child[k]`.
    pub const INNER: SiteId = SiteId(1);
    /// Leaf-header read `leaf->next` (the sibling chain).
    pub const LEAF: SiteId = SiteId(2);
    /// Leaf key-area read `leaf->keys[k]`.
    pub const KEYS: SiteId = SiteId(3);
}

/// B-tree build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTreeConfig {
    /// Total key count (keys are `0..keys`, bulk-loaded in order).
    pub keys: usize,
    /// Keys per leaf and children per inner node.
    pub fanout: usize,
    /// Number of range scans the hot loop performs.
    pub scans: usize,
    /// Leaves walked per scan (range width).
    pub span: usize,
    /// RNG seed for heap layout and scan start keys.
    pub seed: u64,
    /// Computation cycles per scanned leaf (key aggregation).
    pub compute_per_leaf: u64,
}

impl BTreeConfig {
    /// Default scaled input matched to the scaled cache config.
    pub fn scaled() -> Self {
        BTreeConfig {
            keys: 8192,
            fanout: 16,
            scans: 2048,
            span: 4,
            seed: 0xB3E,
            compute_per_leaf: 6,
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        BTreeConfig {
            keys: 256,
            fanout: 8,
            scans: 64,
            span: 3,
            ..Self::scaled()
        }
    }
}

/// A built B-tree plus its range-scan batch.
#[derive(Debug, Clone)]
pub struct BTree {
    cfg: BTreeConfig,
    /// Simulated base address of the query array (16B per range).
    query_base: VAddr,
    /// Simulated address of each leaf record (header + key area).
    leaf_addr: Vec<VAddr>,
    /// Per-level inner-node addresses, `inner_addr[0]` = the root's
    /// level, deeper levels follow; an empty vec for a single-leaf tree.
    inner_addr: Vec<Vec<VAddr>>,
    /// First leaf index of each scan.
    scan_start: Vec<u32>,
}

impl BTree {
    /// Bytes per leaf record: a 64B header then the key area.
    const HEADER: u64 = 64;

    /// Build the tree layout and the scan batch.
    pub fn build(cfg: BTreeConfig) -> Self {
        assert!(cfg.keys >= 1);
        assert!(cfg.fanout >= 2, "fanout must be at least 2");
        assert!(cfg.scans >= 1 && cfg.span >= 1);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arena = Arena::fragmented(0xC00_0000, 128, cfg.seed ^ 0xB7E);
        let query_base = arena.alloc_array(cfg.scans as u64, 16, 64);
        let leaves = cfg.keys.div_ceil(cfg.fanout);
        let leaf_bytes = Self::HEADER + cfg.fanout as u64 * 8;
        let leaf_addr: Vec<VAddr> = (0..leaves).map(|_| arena.alloc(leaf_bytes, 64)).collect();
        // Inner levels, bottom-up: each level groups `fanout` children.
        let mut inner_addr: Vec<Vec<VAddr>> = Vec::new();
        let mut width = leaves;
        while width > 1 {
            width = width.div_ceil(cfg.fanout);
            inner_addr.push((0..width).map(|_| arena.alloc(128, 64)).collect());
        }
        inner_addr.reverse(); // root level first
        let scan_start = (0..cfg.scans)
            .map(|_| rng.gen_range(0..leaves as u32))
            .collect();
        BTree {
            cfg,
            query_base,
            leaf_addr,
            inner_addr,
            scan_start,
        }
    }

    /// This instance's configuration.
    pub fn config(&self) -> BTreeConfig {
        self.cfg
    }

    /// Outer-hot-loop iterations: one per range scan.
    pub fn hot_iterations(&self) -> usize {
        self.cfg.scans
    }

    /// Number of leaves.
    pub fn leaves(&self) -> usize {
        self.leaf_addr.len()
    }

    /// Tree depth in inner levels (0 = the root is a leaf).
    pub fn depth(&self) -> usize {
        self.inner_addr.len()
    }

    /// Push the scan batch's reference stream into `s`, one range scan
    /// per outer iteration.
    pub fn emit(&self, s: &mut impl TraceSink) {
        let line_blocks = (self.cfg.fanout as u64 * 8).div_ceil(64);
        for (i, &start) in self.scan_start.iter().enumerate() {
            s.backbone(MemRef::load(self.query_base + i as u64 * 16, sites::QUERY));
            // Descent: at each inner level read the node covering the
            // target leaf.
            for lvl in self.inner_addr.iter() {
                let per_node = self.leaf_addr.len().div_ceil(lvl.len());
                let node = (start as usize / per_node.max(1)).min(lvl.len() - 1);
                s.inner(MemRef::load(lvl[node], sites::INNER));
            }
            // Leaf walk: header (chain pointer) then the key area.
            for l in 0..self.cfg.span {
                let leaf = (start as usize + l) % self.leaf_addr.len();
                let base = self.leaf_addr[leaf];
                s.inner(MemRef::load(base, sites::LEAF));
                for blk in 0..line_blocks {
                    s.inner(MemRef::load(base + Self::HEADER + blk * 64, sites::KEYS));
                }
            }
            s.end_iter(self.cfg.compute_per_leaf * self.cfg.span as u64);
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record(
            "btree::range_scan",
            &["ranges[i]", "node->child[k]", "leaf->next", "leaf->keys[k]"],
            |s| self.emit(s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = BTree::build(BTreeConfig::tiny());
        let b = BTree::build(BTreeConfig::tiny());
        assert_eq!(a.leaf_addr, b.leaf_addr);
        assert_eq!(a.scan_start, b.scan_start);
    }

    #[test]
    fn tree_shape_matches_fanout() {
        let t = BTree::build(BTreeConfig::tiny());
        assert_eq!(t.leaves(), t.cfg.keys.div_ceil(t.cfg.fanout));
        // 256 keys / fanout 8 = 32 leaves -> 4 inner -> 1 root.
        assert_eq!(t.depth(), 2);
    }

    #[test]
    fn every_scan_descends_then_walks_span_leaves() {
        let b = BTree::build(BTreeConfig::tiny());
        let t = b.trace();
        assert_eq!(t.outer_iters(), b.hot_iterations());
        for it in t.iters.iter() {
            assert_eq!(it.backbone().len(), 1);
            let inner = it.inner().filter(|r| r.site == sites::INNER).count();
            let leafs = it.inner().filter(|r| r.site == sites::LEAF).count();
            assert_eq!(inner, b.depth(), "one inner read per level");
            assert_eq!(leafs, b.cfg.span, "one header read per walked leaf");
        }
    }

    #[test]
    fn key_reads_stay_inside_their_leaf() {
        let b = BTree::build(BTreeConfig::tiny());
        let t = b.trace();
        let leaf_bytes = BTree::HEADER + b.cfg.fanout as u64 * 8;
        for (_, r) in t.tagged_refs().filter(|(_, r)| r.site == sites::KEYS) {
            let ok = b
                .leaf_addr
                .iter()
                .any(|&base| r.vaddr >= base + BTree::HEADER && r.vaddr < base + leaf_bytes);
            assert!(ok, "key read at {:#x} outside every leaf", r.vaddr);
        }
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn degenerate_fanout_rejected() {
        let _ = BTree::build(BTreeConfig {
            fanout: 1,
            ..BTreeConfig::tiny()
        });
    }
}
