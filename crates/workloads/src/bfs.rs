//! Graph BFS over CSR with pointer-chased per-vertex properties.
//!
//! The topology lives in two contiguous CSR arrays (`row_ptr`,
//! `col_idx`) — the regular half of the kernel, friendly to stride
//! prefetchers. The per-vertex property records live behind one pointer
//! indirection each on a fragmented heap, so every edge relaxation
//! dereferences an effectively random address — the irregular half.
//! The hot loop visits vertices in BFS order from vertex 0: pop from
//! the frontier (a sequential array read), read the vertex's CSR row
//! bounds, then per edge read the neighbour id and chase its property
//! record.

use crate::arena::Arena;
use sp_trace::SmallRng;
use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};

/// Reference-site ids used in BFS traces.
pub mod sites {
    use sp_trace::SiteId;
    /// Frontier-array pop `frontier[head]` (backbone).
    pub const FRONTIER: SiteId = SiteId(0);
    /// CSR row-bound read `row_ptr[u]`.
    pub const ROWPTR: SiteId = SiteId(1);
    /// CSR neighbour-id read `col_idx[e]`.
    pub const COLIDX: SiteId = SiteId(2);
    /// Pointer-chased property read `prop[v]->dist`.
    pub const PROP: SiteId = SiteId(3);
}

/// BFS build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BfsConfig {
    /// Vertex count.
    pub nodes: usize,
    /// Out-degree of every vertex (one edge is reserved to keep the
    /// graph connected, the rest are random).
    pub degree: usize,
    /// RNG seed for edge targets and heap layout.
    pub seed: u64,
    /// Computation cycles per visited vertex (depth bookkeeping).
    pub compute_per_visit: u64,
}

impl BfsConfig {
    /// Default scaled input matched to the scaled cache config.
    pub fn scaled() -> Self {
        BfsConfig {
            nodes: 3072,
            degree: 8,
            seed: 0xBF5,
            compute_per_visit: 4,
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        BfsConfig {
            nodes: 96,
            degree: 4,
            ..Self::scaled()
        }
    }
}

/// A built BFS instance: CSR topology, property layout, visit order.
#[derive(Debug, Clone)]
pub struct Bfs {
    cfg: BfsConfig,
    /// Simulated base address of `row_ptr` (8B entries).
    row_base: VAddr,
    /// Simulated base address of `col_idx` (8B entries).
    col_base: VAddr,
    /// Simulated base address of the frontier array (8B entries).
    frontier_base: VAddr,
    /// Simulated address of each vertex's property record.
    prop_addr: Vec<VAddr>,
    /// CSR adjacency: `adj[row_ptr[u]..row_ptr[u+1]]` conceptually;
    /// stored dense (`degree` edges per vertex).
    adj: Vec<u32>,
    /// BFS visit order from vertex 0 (precomputed, deterministic).
    order: Vec<u32>,
}

impl Bfs {
    /// Build the graph and precompute the BFS traversal.
    pub fn build(cfg: BfsConfig) -> Self {
        assert!(cfg.nodes >= 2);
        assert!(cfg.degree >= 1);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arena = Arena::fragmented(0xA00_0000, 128, cfg.seed ^ 0xCB5);
        let n = cfg.nodes;
        let row_base = arena.alloc_array(n as u64 + 1, 8, 64);
        let col_base = arena.alloc_array((n * cfg.degree) as u64, 8, 64);
        let frontier_base = arena.alloc_array(n as u64, 8, 64);
        let prop_addr: Vec<VAddr> = (0..n).map(|_| arena.alloc(64, 64)).collect();
        let mut adj = Vec::with_capacity(n * cfg.degree);
        for u in 0..n {
            // First edge closes a ring so BFS from 0 reaches everyone;
            // the rest are uniform random targets.
            adj.push(((u + 1) % n) as u32);
            for _ in 1..cfg.degree {
                adj.push(rng.gen_range(0..n as u32));
            }
        }
        // Precompute the BFS itself (visit order).
        let mut seen = vec![false; n];
        let mut order = Vec::with_capacity(n);
        seen[0] = true;
        order.push(0u32);
        let mut head = 0usize;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            for &v in &adj[u * cfg.degree..(u + 1) * cfg.degree] {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    order.push(v);
                }
            }
        }
        Bfs {
            cfg,
            row_base,
            col_base,
            frontier_base,
            prop_addr,
            adj,
            order,
        }
    }

    /// This instance's configuration.
    pub fn config(&self) -> BfsConfig {
        self.cfg
    }

    /// Outer-hot-loop iterations: one per visited vertex (the ring edge
    /// makes the graph connected, so every vertex is visited).
    pub fn hot_iterations(&self) -> usize {
        self.order.len()
    }

    /// Push the traversal's reference stream into `s`, one visited
    /// vertex per outer iteration.
    pub fn emit(&self, s: &mut impl TraceSink) {
        let d = self.cfg.degree;
        for (pos, &u) in self.order.iter().enumerate() {
            let u = u as usize;
            s.backbone(MemRef::load(
                self.frontier_base + pos as u64 * 8,
                sites::FRONTIER,
            ));
            s.inner(MemRef::load(self.row_base + u as u64 * 8, sites::ROWPTR));
            for (e, &v) in self.adj[u * d..(u + 1) * d].iter().enumerate() {
                s.inner(MemRef::load(
                    self.col_base + (u * d + e) as u64 * 8,
                    sites::COLIDX,
                ));
                s.inner(MemRef::load(self.prop_addr[v as usize], sites::PROP));
            }
            s.end_iter(self.cfg.compute_per_visit);
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record(
            "bfs::visit",
            &[
                "frontier[head]",
                "row_ptr[u]",
                "col_idx[e]",
                "prop[v]->dist",
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
        let a = Bfs::build(BfsConfig::tiny());
        let b = Bfs::build(BfsConfig::tiny());
        assert_eq!(a.adj, b.adj);
        assert_eq!(a.order, b.order);
        assert_eq!(a.prop_addr, b.prop_addr);
    }

    #[test]
    fn ring_edge_makes_every_vertex_reachable() {
        let g = Bfs::build(BfsConfig::tiny());
        assert_eq!(g.hot_iterations(), g.cfg.nodes);
        let mut visited = g.order.clone();
        visited.sort_unstable();
        assert!(visited.iter().copied().eq(0..g.cfg.nodes as u32));
    }

    #[test]
    fn every_visit_reads_degree_neighbours_and_properties() {
        let g = Bfs::build(BfsConfig::tiny());
        let t = g.trace();
        assert_eq!(t.outer_iters(), g.hot_iterations());
        for it in t.iters.iter() {
            assert_eq!(it.backbone().len(), 1);
            let cols = it.inner().filter(|r| r.site == sites::COLIDX).count();
            let props = it.inner().filter(|r| r.site == sites::PROP).count();
            assert_eq!((cols, props), (g.cfg.degree, g.cfg.degree));
        }
    }

    #[test]
    fn frontier_reads_are_strided() {
        let g = Bfs::build(BfsConfig::tiny());
        let t = g.trace();
        let pops: Vec<VAddr> = t
            .tagged_refs()
            .filter(|(_, r)| r.site == sites::FRONTIER)
            .map(|(_, r)| r.vaddr)
            .collect();
        for w in pops.windows(2) {
            assert_eq!(w[1] - w[0], 8, "frontier pops must be 8B-strided");
        }
    }

    #[test]
    fn property_reads_stay_inside_allocated_records() {
        let g = Bfs::build(BfsConfig::tiny());
        let t = g.trace();
        for (_, r) in t.tagged_refs().filter(|(_, r)| r.site == sites::PROP) {
            assert!(
                g.prop_addr.contains(&r.vaddr),
                "property read at {:#x} is not a record base",
                r.vaddr
            );
        }
    }
}
