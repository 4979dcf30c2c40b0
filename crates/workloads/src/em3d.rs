//! EM3D (Olden) — electromagnetic wave propagation on a bipartite graph.
//!
//! The paper's running example (Fig. 1): the hot loop walks the node list
//! (`curr_node = curr_node->next`) and, per node, an inner loop walks the
//! `from_values` dependency array and dereferences each referenced node —
//! the two delinquent loads. EM3D has the *smallest* Set Affinity of the
//! three benchmarks (paper Table 2: range [40, 360]) because each outer
//! iteration touches many distinct blocks (the node, its `from_values`
//! and `coeffs` arrays, and `degree` scattered remote nodes).

use crate::arena::Arena;
use sp_trace::SmallRng;
use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};

/// Reference-site ids used in EM3D traces.
pub mod sites {
    use sp_trace::SiteId;
    /// `curr_node = curr_node->next` (outer-loop backbone).
    pub const NEXT: SiteId = SiteId(0);
    /// `other_node = curr_node->from_values[j]` (delinquent: array elem).
    pub const FROM_VALUES: SiteId = SiteId(1);
    /// `... = other_node->value` (delinquent: remote node field).
    pub const OTHER_VALUE: SiteId = SiteId(2);
    /// `... = curr_node->coeffs[j]`.
    pub const COEFF: SiteId = SiteId(3);
    /// `curr_node->value = acc` (result store).
    pub const VALUE_STORE: SiteId = SiteId(4);
}

/// EM3D build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Em3dConfig {
    /// Total node count (both halves of the bipartite graph).
    pub nodes: usize,
    /// In-degree of every node ("arity").
    pub degree: usize,
    /// RNG seed for graph wiring and heap layout.
    pub seed: u64,
    /// Model heap fragmentation (random inter-allocation gaps).
    pub fragmented: bool,
    /// Pure computation cycles per inner-loop element (the multiply-add);
    /// EM3D's CALR is very low, so this is small.
    pub compute_per_edge: u64,
}

impl Em3dConfig {
    /// Default scaled input, matched to
    /// [`CacheConfig::scaled_default`](../../sp_cachesim/config/struct.CacheConfig.html):
    /// per-set block pressure in the paper's EM3D regime.
    pub fn scaled() -> Self {
        Em3dConfig {
            nodes: 4096,
            degree: 16,
            seed: 0xE3D,
            fragmented: true,
            compute_per_edge: 2,
        }
    }

    /// The paper's input (Table 2): 4x10^5 nodes, arity 128. Big — only
    /// for explicitly requested paper-scale runs.
    pub fn paper() -> Self {
        Em3dConfig {
            nodes: 400_000,
            degree: 128,
            ..Self::scaled()
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        Em3dConfig {
            nodes: 128,
            degree: 4,
            ..Self::scaled()
        }
    }
}

/// A built EM3D graph: the simulated heap layout and its wiring.
#[derive(Debug, Clone)]
pub struct Em3d {
    cfg: Em3dConfig,
    /// Simulated address of each node header.
    node_addr: Vec<VAddr>,
    /// Simulated base address of each node's `from_values` array.
    fv_addr: Vec<VAddr>,
    /// Simulated base address of each node's `coeffs` array.
    coeff_addr: Vec<VAddr>,
    /// Flattened neighbour indices: node `i`'s neighbours are
    /// `from[i*degree .. (i+1)*degree]`, all in the opposite half.
    pub from: Vec<u32>,
}

impl Em3d {
    /// Build the graph (the Olden `make_graph` phase).
    pub fn build(cfg: Em3dConfig) -> Self {
        assert!(
            cfg.nodes >= 2 && cfg.nodes.is_multiple_of(2),
            "need an even node count >= 2"
        );
        assert!(cfg.degree >= 1);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arena = if cfg.fragmented {
            Arena::fragmented(0x10_0000, 192, cfg.seed ^ 0x5EED)
        } else {
            Arena::new(0x10_0000)
        };
        let n = cfg.nodes;
        let half = n / 2;
        let mut node_addr = Vec::with_capacity(n);
        let mut fv_addr = Vec::with_capacity(n);
        let mut coeff_addr = Vec::with_capacity(n);
        // Olden allocates each node together with its arrays; nodes end up
        // interleaved with their adjacency data on the heap.
        for _ in 0..n {
            node_addr.push(arena.alloc(64, 64));
            fv_addr.push(arena.alloc_array(cfg.degree as u64, 8, 8));
            coeff_addr.push(arena.alloc_array(cfg.degree as u64, 8, 8));
        }
        let mut from = Vec::with_capacity(n * cfg.degree);
        for i in 0..n {
            // E nodes (first half) depend on H nodes (second half) and
            // vice versa.
            let (lo, hi) = if i < half { (half, n) } else { (0, half) };
            for _ in 0..cfg.degree {
                from.push(rng.gen_range(lo..hi) as u32);
            }
        }
        Em3d {
            cfg,
            node_addr,
            fv_addr,
            coeff_addr,
            from,
        }
    }

    /// This graph's configuration.
    pub fn config(&self) -> Em3dConfig {
        self.cfg
    }

    /// Number of outer-hot-loop iterations of one `compute_nodes` pass
    /// (= node count; paper Table 2 column 3).
    pub fn hot_iterations(&self) -> usize {
        self.cfg.nodes
    }

    /// Push the reference stream of one `compute_nodes` pass — the
    /// paper's hot loop (Fig. 1(a)) — into `s`, one node per outer
    /// iteration. Nothing is stored here, so a paper-scale input (a
    /// 4x10^5 node, arity-128 stream of several GB) streams straight
    /// into an analysis.
    pub fn emit(&self, s: &mut impl TraceSink) {
        let d = self.cfg.degree;
        for i in 0..self.cfg.nodes {
            s.backbone(MemRef::load(self.node_addr[i], sites::NEXT));
            for j in 0..d {
                s.inner(MemRef::load(
                    self.fv_addr[i] + 8 * j as u64,
                    sites::FROM_VALUES,
                ));
                let other = self.from[i * d + j] as usize;
                s.inner(MemRef::load(self.node_addr[other], sites::OTHER_VALUE));
                s.inner(MemRef::load(
                    self.coeff_addr[i] + 8 * j as u64,
                    sites::COEFF,
                ));
            }
            s.inner(MemRef::store(self.node_addr[i], sites::VALUE_STORE));
            s.end_iter(self.cfg.compute_per_edge * d as u64);
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record(
            "em3d::compute_nodes",
            &[
                "curr_node->next",
                "curr_node->from_values[j]",
                "other_node->value",
                "curr_node->coeffs[j]",
                "curr_node->value (store)",
            ],
            |s| self.emit(s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = Em3d::build(Em3dConfig::tiny());
        let b = Em3d::build(Em3dConfig::tiny());
        assert_eq!(a.from, b.from);
        assert_eq!(a.node_addr, b.node_addr);
    }

    #[test]
    fn graph_is_bipartite() {
        let g = Em3d::build(Em3dConfig::tiny());
        let (half, d) = (g.cfg.nodes / 2, g.cfg.degree);
        for i in 0..g.cfg.nodes {
            for &o in &g.from[i * d..(i + 1) * d] {
                let o = o as usize;
                assert_ne!(i < half, o < half, "edges must cross the partition");
            }
        }
    }

    #[test]
    fn trace_shape_matches_fig1() {
        let g = Em3d::build(Em3dConfig::tiny());
        let t = g.trace();
        assert_eq!(t.outer_iters(), g.hot_iterations());
        for it in t.iters.iter() {
            assert_eq!(
                it.backbone().len(),
                1,
                "one next-pointer chase per iteration"
            );
            // degree * (from_values + other + coeff) + the value store.
            assert_eq!(it.inner().len(), 3 * g.cfg.degree + 1);
            assert_eq!(
                it.compute_cycles(),
                g.cfg.compute_per_edge * g.cfg.degree as u64
            );
        }
    }

    #[test]
    fn from_values_loads_are_sequential_within_an_iteration() {
        let g = Em3d::build(Em3dConfig::tiny());
        let t = g.trace();
        let fv: Vec<u64> = t
            .iters
            .at(0)
            .inner()
            .filter(|r| r.site == sites::FROM_VALUES)
            .map(|r| r.vaddr)
            .collect();
        assert_eq!(fv.len(), g.cfg.degree);
        for w in fv.windows(2) {
            assert_eq!(w[1] - w[0], 8);
        }
    }

    #[test]
    fn remote_loads_hit_opposite_half_headers() {
        let g = Em3d::build(Em3dConfig::tiny());
        let t = g.trace();
        for (i, it) in t.iters.iter().enumerate() {
            for r in it.inner().filter(|r| r.site == sites::OTHER_VALUE) {
                let target = g.node_addr.iter().position(|&a| a == r.vaddr).unwrap();
                let half = g.cfg.nodes / 2;
                assert_ne!(i < half, target < half);
            }
        }
    }

    #[test]
    #[should_panic(expected = "even node count")]
    fn odd_node_count_rejected() {
        let _ = Em3d::build(Em3dConfig {
            nodes: 3,
            ..Em3dConfig::tiny()
        });
    }

    #[test]
    fn fragmented_layout_differs_from_contiguous() {
        let f = Em3d::build(Em3dConfig::tiny());
        let c = Em3d::build(Em3dConfig {
            fragmented: false,
            ..Em3dConfig::tiny()
        });
        assert_ne!(f.node_addr, c.node_addr);
    }
}
