//! MCF (SPEC CPU2006 429.mcf) — network-simplex pricing kernel.
//!
//! The cycle-dominant hot loop of MCF is `primal_bea_mpp`: a linear scan
//! over the arc array that, per arc, reads the arc record and dereferences
//! the `tail` and `head` node structures to compute the reduced cost
//! `red_cost = cost - tail->potential + head->potential`. The arc scan is
//! sequential (streamer-friendly) but the node dereferences are irregular.
//!
//! Per outer iteration (one arc examined) only ~half a new block enters
//! any cache set, so MCF's Set Affinity is large (paper Table 2:
//! [3000, 46000]) and its tolerated prefetch distance correspondingly
//! long (paper §V.A: < 1500).

use crate::arena::Arena;
use sp_trace::SmallRng;
use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};

/// Reference-site ids used in MCF traces.
pub mod sites {
    use sp_trace::SiteId;
    /// `arc = &arcs[i]` record read (sequential scan).
    pub const ARC: SiteId = SiteId(0);
    /// `arc->tail->potential`.
    pub const TAIL_POT: SiteId = SiteId(1);
    /// `arc->head->potential`.
    pub const HEAD_POT: SiteId = SiteId(2);
    /// Basket insert (write to the candidate-list entry).
    pub const BASKET: SiteId = SiteId(3);
}

/// MCF build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McfConfig {
    /// Number of arcs scanned by one pricing pass.
    pub arcs: usize,
    /// Number of network nodes.
    pub nodes: usize,
    /// RNG seed for the network wiring.
    pub seed: u64,
    /// Computation cycles per arc (the reduced-cost arithmetic).
    pub compute_per_arc: u64,
    /// Fraction of arcs entering the basket, as 1-in-N (Olden-style
    /// deterministic substitute for the pricing test).
    pub basket_one_in: usize,
}

impl McfConfig {
    /// Default scaled input matched to the scaled cache config.
    pub fn scaled() -> Self {
        McfConfig {
            arcs: 40_000,
            nodes: 2_560,
            seed: 0x4CF,
            compute_per_arc: 6,
            basket_one_in: 16,
        }
    }

    /// A rough stand-in for the `ref` input's pricing-pass size (the real
    /// input has ~2.4M arcs; this keeps the same arcs:nodes ratio).
    pub fn paper() -> Self {
        McfConfig {
            arcs: 2_400_000,
            nodes: 150_000,
            ..Self::scaled()
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        McfConfig {
            arcs: 512,
            nodes: 64,
            ..Self::scaled()
        }
    }
}

/// A built MCF pricing problem.
#[derive(Debug, Clone)]
pub struct Mcf {
    cfg: McfConfig,
    /// Base simulated address of the arc array (32-byte records).
    arc_base: VAddr,
    /// Simulated address of each node structure (64-byte records).
    node_addr: Vec<VAddr>,
    /// Per-arc endpoints `(tail, head)`.
    pub endpoints: Vec<(u32, u32)>,
    /// Base simulated address of the basket (candidate list).
    basket_base: VAddr,
}

/// Size of one simulated arc record, bytes (cost, endpoints, ident —
/// mcf's `arc` struct packs to two per 64-byte line).
pub const ARC_BYTES: u64 = 32;

impl Mcf {
    /// Build the network.
    pub fn build(cfg: McfConfig) -> Self {
        assert!(cfg.nodes >= 2 && cfg.arcs >= 1);
        assert!(cfg.basket_one_in >= 1);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arena = Arena::new(0x100_0000);
        let arc_base = arena.alloc_array(cfg.arcs as u64, ARC_BYTES, 64);
        let node_addr: Vec<VAddr> = (0..cfg.nodes).map(|_| arena.alloc(64, 64)).collect();
        let basket_base = arena.alloc_array(cfg.arcs as u64 / 8 + 1, 16, 64);
        let endpoints = (0..cfg.arcs)
            .map(|_| {
                let t = rng.gen_range(0..cfg.nodes as u32);
                let mut h = rng.gen_range(0..cfg.nodes as u32);
                if h == t {
                    h = (h + 1) % cfg.nodes as u32;
                }
                (t, h)
            })
            .collect();
        Mcf {
            cfg,
            arc_base,
            node_addr,
            endpoints,
            basket_base,
        }
    }

    /// This problem's configuration.
    pub fn config(&self) -> McfConfig {
        self.cfg
    }

    /// Outer-hot-loop iterations of one pricing pass (= arcs scanned).
    pub fn hot_iterations(&self) -> usize {
        self.cfg.arcs
    }

    /// Push the reference stream of one `primal_bea_mpp` pricing pass
    /// into `s`, one arc per outer iteration.
    ///
    /// The outer "backbone" is empty: the scan advances by array index,
    /// so a skipping helper thread pays nothing for skipped arcs (unlike
    /// EM3D's pointer chase).
    pub fn emit(&self, s: &mut impl TraceSink) {
        for i in 0..self.cfg.arcs {
            let (tail, head) = self.endpoints[i];
            s.inner(MemRef::load(
                self.arc_base + i as u64 * ARC_BYTES,
                sites::ARC,
            ));
            s.inner(MemRef::load(self.node_addr[tail as usize], sites::TAIL_POT));
            s.inner(MemRef::load(self.node_addr[head as usize], sites::HEAD_POT));
            if i % self.cfg.basket_one_in == 0 {
                // Basket slot index: one entry per `basket_one_in` arcs.
                let basket_len = (i / self.cfg.basket_one_in) as u64;
                s.inner(MemRef::store(
                    self.basket_base + basket_len * 16,
                    sites::BASKET,
                ));
            }
            s.end_iter(self.cfg.compute_per_arc);
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record(
            "mcf::primal_bea_mpp",
            &[
                "arcs[i]",
                "arc->tail->potential",
                "arc->head->potential",
                "basket insert",
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
        let a = Mcf::build(McfConfig::tiny());
        let b = Mcf::build(McfConfig::tiny());
        assert_eq!(a.endpoints, b.endpoints);
    }

    #[test]
    fn no_self_loops() {
        let m = Mcf::build(McfConfig::tiny());
        assert!(m.endpoints.iter().all(|&(t, h)| t != h));
    }

    #[test]
    fn arc_scan_is_sequential() {
        let m = Mcf::build(McfConfig::tiny());
        let t = m.trace();
        let arcs: Vec<u64> = t
            .tagged_refs()
            .filter(|(_, r)| r.site == sites::ARC)
            .map(|(_, r)| r.vaddr)
            .collect();
        assert_eq!(arcs.len(), m.hot_iterations());
        for w in arcs.windows(2) {
            assert_eq!(w[1] - w[0], ARC_BYTES);
        }
    }

    #[test]
    fn backbone_is_empty_index_based_scan() {
        let m = Mcf::build(McfConfig::tiny());
        let t = m.trace();
        assert!(t.iters.iter().all(|it| it.backbone().next().is_none()));
    }

    #[test]
    fn node_loads_point_at_node_records() {
        let m = Mcf::build(McfConfig::tiny());
        let t = m.trace();
        for (i, it) in t.iters.iter().enumerate() {
            let (tail, head) = m.endpoints[i];
            assert_eq!(it.inner().nth(1).unwrap().vaddr, m.node_addr[tail as usize]);
            assert_eq!(it.inner().nth(2).unwrap().vaddr, m.node_addr[head as usize]);
        }
    }

    #[test]
    fn basket_stores_are_periodic() {
        let m = Mcf::build(McfConfig::tiny());
        let t = m.trace();
        let n_stores = t
            .tagged_refs()
            .filter(|(_, r)| r.site == sites::BASKET)
            .count();
        assert_eq!(n_stores, m.cfg.arcs.div_ceil(m.cfg.basket_one_in));
    }
}
