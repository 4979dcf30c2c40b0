//! Blocked dense matrix multiply — the compute-bound *reject* of the
//! benchmark-selection experiment.
//!
//! The paper screens the entire SPEC2006 + Olden suites and keeps only
//! applications with "significant number of cycles attributed to the L2
//! cache misses" (§IV.B). A well-blocked matmul is the canonical
//! counter-example: its working set per block fits in the L1/L2 and its
//! arithmetic density is high, so its L2-miss cycle share is tiny and the
//! selection must reject it (and its CALR is high, so the RP rule would
//! degenerate to conventional prefetching anyway).

use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};

/// Reference-site ids used in matmul traces.
pub mod sites {
    use sp_trace::SiteId;
    /// `a[i][k]` loads.
    pub const A: SiteId = SiteId(0);
    /// `b[k][j]` loads.
    pub const B: SiteId = SiteId(1);
    /// `c[i][j]` update.
    pub const C: SiteId = SiteId(2);
}

/// Matmul parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulConfig {
    /// Matrix dimension (`n x n`, f64 elements).
    pub n: usize,
    /// Block (tile) edge length.
    pub block: usize,
    /// Computation cycles per multiply-add.
    pub compute_per_fma: u64,
}

impl MatmulConfig {
    /// Default scaled input: 96x96 with 16x16 tiles — each tile triple
    /// (3 * 2KB) sits comfortably in the scaled 4KB L1 + 256KB L2.
    pub fn scaled() -> Self {
        MatmulConfig {
            n: 96,
            block: 16,
            compute_per_fma: 4,
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        MatmulConfig {
            n: 16,
            block: 8,
            ..Self::scaled()
        }
    }
}

/// A built matmul instance (addresses only; the kernel itself is not the
/// point — its reference stream is).
#[derive(Debug, Clone)]
pub struct Matmul {
    cfg: MatmulConfig,
    a_base: VAddr,
    b_base: VAddr,
    c_base: VAddr,
}

impl Matmul {
    /// Lay out the three matrices contiguously.
    pub fn build(cfg: MatmulConfig) -> Self {
        assert!(cfg.n > 0 && cfg.block > 0 && cfg.block <= cfg.n);
        assert_eq!(cfg.n % cfg.block, 0, "block must divide n");
        let bytes = (cfg.n * cfg.n * 8) as u64;
        Matmul {
            cfg,
            a_base: 0x1000_0000,
            b_base: 0x1000_0000 + bytes,
            c_base: 0x1000_0000 + 2 * bytes,
        }
    }

    /// This instance's configuration.
    pub fn config(&self) -> MatmulConfig {
        self.cfg
    }

    /// Outer-hot-loop iterations: one per `(i, j, k)` tile triple.
    pub fn hot_iterations(&self) -> usize {
        let t = self.cfg.n / self.cfg.block;
        t * t * t
    }

    fn elem(&self, base: VAddr, r: usize, c: usize) -> VAddr {
        base + ((r * self.cfg.n + c) * 8) as u64
    }

    /// Push the reference stream of one blocked multiply into `s`. One
    /// outer iteration = one tile triple; within it, one representative
    /// row sweep per tile row (full element enumeration would be enormous
    /// and adds nothing: reuse within a tile is the point).
    pub fn emit(&self, s: &mut impl TraceSink) {
        let (n, bl) = (self.cfg.n, self.cfg.block);
        let tiles = n / bl;
        for ti in 0..tiles {
            for tj in 0..tiles {
                for tk in 0..tiles {
                    for r in 0..bl {
                        // Touch each cache line of the three tiles' rows.
                        for col in (0..bl).step_by(8) {
                            s.inner(MemRef::load(
                                self.elem(self.a_base, ti * bl + r, tk * bl + col),
                                sites::A,
                            ));
                            s.inner(MemRef::load(
                                self.elem(self.b_base, tk * bl + r, tj * bl + col),
                                sites::B,
                            ));
                            s.inner(MemRef::store(
                                self.elem(self.c_base, ti * bl + r, tj * bl + col),
                                sites::C,
                            ));
                        }
                    }
                    // bl^3 fused multiply-adds per tile triple.
                    s.end_iter(self.cfg.compute_per_fma * (bl * bl * bl) as u64);
                }
            }
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record("matmul::blocked", &["a[i][k]", "b[k][j]", "c[i][j]"], |s| {
            self.emit(s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_count_matches() {
        let m = Matmul::build(MatmulConfig::tiny());
        assert_eq!(m.hot_iterations(), 8); // (16/8)^3
        assert_eq!(m.trace().outer_iters(), 8);
    }

    #[test]
    fn compute_dominates_references() {
        let m = Matmul::build(MatmulConfig::tiny());
        let t = m.trace();
        let compute: u64 = t.iters.iter().map(|it| it.compute_cycles()).sum();
        // CALR proxy: compute cycles per reference is large.
        assert!(compute as f64 / t.total_refs() as f64 > 10.0);
    }

    #[test]
    fn footprint_is_three_matrices() {
        let m = Matmul::build(MatmulConfig::tiny());
        let blocks: std::collections::HashSet<u64> =
            m.trace().tagged_refs().map(|(_, r)| r.block(64)).collect();
        let expect = 3 * 16 * 16 * 8 / 64; // bytes / line
        assert_eq!(blocks.len(), expect);
    }

    #[test]
    #[should_panic(expected = "block must divide")]
    fn indivisible_block_rejected() {
        let _ = Matmul::build(MatmulConfig {
            n: 10,
            block: 3,
            compute_per_fma: 1,
        });
    }
}
