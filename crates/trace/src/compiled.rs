//! Precompiled traces: a [`HotLoopTrace`] flattened for replay.
//!
//! A distance sweep replays the identical trace once per grid point. A
//! [`CompiledTrace`] flattens the trace once into struct-of-arrays
//! storage — three columns per reference (`vaddr`, `site`, `kind`: 13
//! bytes) plus per-iteration metadata — and the result is shared (`Arc`)
//! across all grid points, all passes, and repeated service requests.
//!
//! A compiled trace knows nothing of caches: [`CompiledTrace::get`]
//! returns the plain [`MemRef`], and the memory system projects it onto
//! its own sets and tags. One compiled trace therefore replays against
//! any cache configuration, and the address mapping lives in exactly one
//! place (`sp_cachesim::CacheGeometry`).

use crate::record::{AccessKind, MemRef, SiteId, VAddr};
use crate::stream::HotLoopTrace;
use std::ops::Range;

/// A [`HotLoopTrace`] flattened for replay: struct-of-arrays
/// per-reference columns plus per-iteration metadata (reference ranges,
/// backbone split, compute cycles).
///
/// Build once with [`CompiledTrace::compile`], wrap in an `Arc`, and
/// replay from every grid point / pass / request.
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    // Per-reference SoA columns, indexed by flat reference position.
    vaddr: Vec<VAddr>,
    site: Vec<SiteId>,
    kind: Vec<AccessKind>,
    // Per-iteration metadata. `ref_start` has `outer_iters + 1` entries;
    // iteration `i`'s references are `ref_start[i]..ref_start[i+1]`, the
    // first `backbone_len[i]` of which are backbone references.
    ref_start: Vec<u32>,
    backbone_len: Vec<u32>,
    compute_cycles: Vec<u64>,
}

impl CompiledTrace {
    /// Compile `trace`. Deterministic: the same trace always produces
    /// identical arrays.
    pub fn compile(trace: &HotLoopTrace) -> Self {
        let n = trace.total_refs();
        let iters = trace.outer_iters();
        let mut c = CompiledTrace {
            vaddr: Vec::with_capacity(n),
            site: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            ref_start: Vec::with_capacity(iters + 1),
            backbone_len: Vec::with_capacity(iters),
            compute_cycles: Vec::with_capacity(iters),
        };
        c.ref_start.push(0);
        for it in &trace.iters {
            for r in it.refs() {
                c.vaddr.push(r.vaddr);
                c.site.push(r.site);
                c.kind.push(r.kind);
            }
            c.ref_start.push(c.vaddr.len() as u32);
            c.backbone_len.push(it.backbone.len() as u32);
            c.compute_cycles.push(it.compute_cycles);
        }
        c
    }

    /// Number of outer-loop iterations.
    pub fn outer_iters(&self) -> usize {
        self.backbone_len.len()
    }

    /// Total number of references.
    pub fn total_refs(&self) -> usize {
        self.vaddr.len()
    }

    /// Flat index range of iteration `it`'s references (backbone first,
    /// program order — same order as [`crate::IterRecord::refs`]).
    #[inline]
    pub fn iter_refs(&self, it: usize) -> Range<usize> {
        self.ref_start[it] as usize..self.ref_start[it + 1] as usize
    }

    /// How many of iteration `it`'s references are backbone references.
    #[inline]
    pub fn backbone_len(&self, it: usize) -> usize {
        self.backbone_len[it] as usize
    }

    /// Flat index range of iteration `it`'s backbone references.
    #[inline]
    pub fn iter_backbone(&self, it: usize) -> Range<usize> {
        let start = self.ref_start[it] as usize;
        start..start + self.backbone_len[it] as usize
    }

    /// Flat index range of iteration `it`'s inner references.
    #[inline]
    pub fn iter_inner(&self, it: usize) -> Range<usize> {
        let start = self.ref_start[it] as usize + self.backbone_len[it] as usize;
        start..self.ref_start[it + 1] as usize
    }

    /// Compute cycles attributed to iteration `it`.
    #[inline]
    pub fn compute_cycles(&self, it: usize) -> u64 {
        self.compute_cycles[it]
    }

    /// The reference at flat index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> MemRef {
        MemRef {
            vaddr: self.vaddr[i],
            site: self.site[i],
            kind: self.kind[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::IterRecord;
    use crate::synth;

    #[test]
    fn replay_yields_the_trace_refs_in_order() {
        let t = synth::pointer_chase(40, 64, 7, 3);
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.outer_iters(), t.outer_iters());
        assert_eq!(c.total_refs(), t.total_refs());
        let replayed: Vec<MemRef> = (0..c.total_refs()).map(|i| c.get(i)).collect();
        let walked: Vec<MemRef> = t.tagged_refs().map(|(_, r)| *r).collect();
        assert_eq!(replayed, walked);
    }

    #[test]
    fn per_reference_columns_are_vaddr_site_and_kind() {
        let t = synth::pointer_chase(40, 64, 7, 3);
        let c = CompiledTrace::compile(&t);
        // Exhaustive: a new column fails to compile here until it is
        // accounted for below.
        let CompiledTrace {
            vaddr,
            site,
            kind,
            ref_start,
            backbone_len,
            compute_cycles,
        } = &c;
        let n = c.total_refs();
        assert!(n > 0);
        let per_ref = size_of::<VAddr>() + size_of::<SiteId>() + size_of::<AccessKind>();
        assert_eq!(per_ref, 13);
        assert_eq!(
            size_of_val(&vaddr[..]) + size_of_val(&site[..]) + size_of_val(&kind[..]),
            n * per_ref
        );
        // The rest is per iteration, not per reference.
        assert_eq!(ref_start.len(), c.outer_iters() + 1);
        assert_eq!(backbone_len.len(), c.outer_iters());
        assert_eq!(compute_cycles.len(), c.outer_iters());
    }

    #[test]
    fn iteration_ranges_split_backbone_and_inner() {
        let mut t = HotLoopTrace::new("split");
        t.iters.push(IterRecord {
            backbone: vec![MemRef::anon(0), MemRef::anon(64)],
            inner: vec![MemRef::anon(128)],
            compute_cycles: 5,
        });
        t.iters.push(IterRecord {
            backbone: vec![MemRef::anon(256)],
            inner: vec![],
            compute_cycles: 9,
        });
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.iter_refs(0), 0..3);
        assert_eq!(c.iter_backbone(0), 0..2);
        assert_eq!(c.iter_inner(0), 2..3);
        assert_eq!(c.iter_refs(1), 3..4);
        assert_eq!(c.iter_inner(1), 4..4);
        assert_eq!(c.compute_cycles(0), 5);
        assert_eq!(c.compute_cycles(1), 9);
    }

    #[test]
    fn compilation_is_deterministic() {
        let t = synth::random(30, 5, 0, 1 << 24, 11, 2);
        let a = CompiledTrace::compile(&t);
        let b = CompiledTrace::compile(&t);
        assert_eq!(a.total_refs(), b.total_refs());
        for i in 0..a.total_refs() {
            assert_eq!(a.get(i), b.get(i));
        }
    }

    #[test]
    fn empty_trace_compiles() {
        let c = CompiledTrace::compile(&HotLoopTrace::new("empty"));
        assert_eq!(c.outer_iters(), 0);
        assert_eq!(c.total_refs(), 0);
    }
}
