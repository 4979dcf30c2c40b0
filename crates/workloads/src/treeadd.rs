//! TreeAdd (Olden) — recursive sum over a binary tree.
//!
//! Not one of the paper's three evaluated benchmarks, but part of the
//! Olden suite the paper screened (§IV.B: the authors ran the entire
//! SPEC2006 and Olden suites and *selected* the applications whose cycles
//! are dominated by L2 misses). TreeAdd's post-order walk over a
//! heap-scattered tree is memory-bound once the tree outgrows the L2, so
//! the selection experiment accepts it — and it doubles as a fourth LDS
//! workload for exercising the SP API beyond the paper's trio.
//!
//! The hot "outer loop" is the post-order node visit sequence: one node
//! header load per iteration (the backbone — the recursion must
//! dereference the node to find its children).

use crate::arena::Arena;
use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};

/// Reference-site ids used in TreeAdd traces.
pub mod sites {
    use sp_trace::SiteId;
    /// `node->left` / `node->right` dereference (backbone).
    pub const NODE: SiteId = SiteId(0);
    /// `node->value` load.
    pub const VALUE: SiteId = SiteId(1);
}

/// TreeAdd build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeAddConfig {
    /// Tree depth; the tree has `2^depth - 1` nodes.
    pub depth: u32,
    /// Seed for the fragmented heap layout.
    pub seed: u64,
    /// Computation cycles per visited node (the addition).
    pub compute_per_node: u64,
}

impl TreeAddConfig {
    /// Default scaled input: 2^15 - 1 nodes (~2MB of 64-byte nodes, 8x
    /// the scaled L2).
    pub fn scaled() -> Self {
        TreeAddConfig {
            depth: 15,
            seed: 0x7EE,
            compute_per_node: 1,
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        TreeAddConfig {
            depth: 7,
            ..Self::scaled()
        }
    }
}

/// A built TreeAdd instance.
#[derive(Debug, Clone)]
pub struct TreeAdd {
    cfg: TreeAddConfig,
    /// Simulated node addresses, in heap-allocation (pre-order) order.
    node_addr: Vec<VAddr>,
}

impl TreeAdd {
    /// Build the tree (Olden allocates it pre-order, one node at a time,
    /// so siblings end up scattered by the recursion's other subtrees).
    pub fn build(cfg: TreeAddConfig) -> Self {
        assert!(
            cfg.depth >= 1 && cfg.depth <= 26,
            "depth must be in [1, 26]"
        );
        let n = (1usize << cfg.depth) - 1;
        let mut arena = Arena::fragmented(0x4000_0000, 96, cfg.seed);
        let mut node_addr = vec![0; n];
        // Pre-order allocation: node i's children are 2i+1 and 2i+2 in
        // heap-index terms, but allocation order follows the recursion.
        fn alloc(idx: usize, n: usize, arena: &mut Arena, out: &mut Vec<VAddr>) {
            if idx >= n {
                return;
            }
            out[idx] = arena.alloc(64, 64);
            alloc(2 * idx + 1, n, arena, out);
            alloc(2 * idx + 2, n, arena, out);
        }
        alloc(0, n, &mut arena, &mut node_addr);
        TreeAdd { cfg, node_addr }
    }

    /// This instance's configuration.
    pub fn config(&self) -> TreeAddConfig {
        self.cfg
    }

    /// Nodes in the tree.
    pub fn nodes(&self) -> usize {
        self.node_addr.len()
    }

    /// Outer-hot-loop iterations of one full walk (= node count).
    pub fn hot_iterations(&self) -> usize {
        self.nodes()
    }

    /// Push the reference stream of one post-order `TreeAdd` walk into
    /// `s`, one node per outer iteration.
    pub fn emit(&self, s: &mut impl TraceSink) {
        let n = self.nodes();
        // Iterative post-order to avoid recursion depth limits on big
        // trees.
        let mut stack = vec![(0usize, false)];
        while let Some((idx, expanded)) = stack.pop() {
            if idx >= n {
                continue;
            }
            if expanded {
                s.backbone(MemRef::load(self.node_addr[idx], sites::NODE));
                s.inner(MemRef::load(self.node_addr[idx] + 8, sites::VALUE));
                s.end_iter(self.cfg.compute_per_node);
            } else {
                stack.push((idx, true));
                stack.push((2 * idx + 2, false));
                stack.push((2 * idx + 1, false));
            }
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record(
            "treeadd::TreeAdd",
            &["node->left/right", "node->value"],
            |s| self.emit(s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_count_matches_depth() {
        let t = TreeAdd::build(TreeAddConfig::tiny());
        assert_eq!(t.nodes(), 127);
        assert_eq!(t.hot_iterations(), 127);
    }

    #[test]
    fn trace_visits_every_node_exactly_once() {
        let tree = TreeAdd::build(TreeAddConfig::tiny());
        let trace = tree.trace();
        assert_eq!(trace.outer_iters(), tree.nodes());
        let mut seen = std::collections::HashSet::new();
        for it in trace.iters.iter() {
            assert_eq!(it.backbone().len(), 1);
            assert_eq!(it.inner().len(), 1);
            assert!(
                seen.insert(it.backbone().next().unwrap().vaddr),
                "node visited twice"
            );
        }
    }

    #[test]
    fn trace_is_post_order() {
        let tree = TreeAdd::build(TreeAddConfig {
            depth: 3,
            ..TreeAddConfig::tiny()
        });
        let trace = tree.trace();
        // Post-order of a 7-node heap tree: 3,4,1,5,6,2,0 (heap indices).
        let order: Vec<usize> = trace
            .iters
            .iter()
            .map(|it| {
                tree.node_addr
                    .iter()
                    .position(|&a| a == it.backbone().next().unwrap().vaddr)
                    .unwrap()
            })
            .collect();
        assert_eq!(order, vec![3, 4, 1, 5, 6, 2, 0]);
    }

    #[test]
    fn build_is_deterministic() {
        let a = TreeAdd::build(TreeAddConfig::tiny());
        let b = TreeAdd::build(TreeAddConfig::tiny());
        assert_eq!(a.node_addr, b.node_addr);
    }

    #[test]
    #[should_panic(expected = "depth must be")]
    fn zero_depth_rejected() {
        let _ = TreeAdd::build(TreeAddConfig {
            depth: 0,
            ..TreeAddConfig::tiny()
        });
    }
}
