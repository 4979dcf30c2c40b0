//! The one stored form of a trace: three struct-of-arrays columns per
//! reference (`vaddr`, `site`, `kind`: 13 bytes) plus per-iteration
//! metadata.
//!
//! Workloads push references into a [`TraceBuilder`], which appends them
//! as they arrive. [`TraceBuilder::finish`] seals the columns into a
//! [`CompiledTrace`], the shared handle a
//! [`HotLoopTrace`](crate::HotLoopTrace) carries as its `iters` and that
//! every grid point, pass and service request replays from. Compiling a
//! trace for replay clones that handle; it never copies the columns.
//!
//! A compiled trace knows nothing of caches: [`TraceColumns::get`]
//! returns the plain [`MemRef`], and the memory system projects it onto
//! its own sets and tags. One trace therefore replays against any cache
//! configuration, and the address mapping lives in exactly one place
//! (`sp_cachesim::CacheGeometry`).

use crate::record::{AccessKind, MemRef, SiteId, VAddr};
use crate::stream::TraceSink;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// Flat reference columns and per-iteration metadata of one trace,
/// reached through a [`CompiledTrace`]. The replay loop borrows it once
/// per run, so each access reads a column directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceColumns {
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

impl Default for TraceColumns {
    fn default() -> Self {
        TraceColumns {
            vaddr: Vec::new(),
            site: Vec::new(),
            kind: Vec::new(),
            ref_start: vec![0],
            backbone_len: Vec::new(),
            compute_cycles: Vec::new(),
        }
    }
}

impl TraceColumns {
    /// Number of outer-loop iterations.
    pub fn outer_iters(&self) -> usize {
        self.backbone_len.len()
    }

    /// Total number of references.
    pub fn total_refs(&self) -> usize {
        self.vaddr.len()
    }

    /// Flat index range of iteration `it`'s references (backbone first,
    /// program order).
    #[inline]
    pub fn iter_refs(&self, it: usize) -> Range<usize> {
        self.ref_start[it] as usize..self.ref_start[it + 1] as usize
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

    /// A view of iteration `it`.
    pub fn at(&self, it: usize) -> Iteration<'_> {
        Iteration { cols: self, it }
    }

    /// Every iteration, in program order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Iteration<'_>> + '_ {
        (0..self.outer_iters()).map(|it| self.at(it))
    }
}

/// One outer-loop iteration of a trace, viewed in place.
///
/// The split between backbone and inner references mirrors the
/// structure the SP transformation needs (paper Fig. 1): in a *skipped*
/// iteration the helper thread still executes the backbone (it must
/// chase `curr_node->next` to advance) but omits the inner loop; in a
/// *pre-executed* iteration it executes both.
#[derive(Debug, Clone, Copy)]
pub struct Iteration<'a> {
    cols: &'a TraceColumns,
    it: usize,
}

impl<'a> Iteration<'a> {
    /// This iteration's index in the outer loop.
    pub fn index(self) -> usize {
        self.it
    }

    /// Pure computation cycles attributed to this iteration (arithmetic
    /// between accesses). Together with the access latencies this
    /// defines the loop's CALR (computation/access-latency ratio).
    pub fn compute_cycles(self) -> u64 {
        self.cols.compute_cycles(self.it)
    }

    /// All references of the iteration, backbone first (program order).
    pub fn refs(self) -> impl ExactSizeIterator<Item = MemRef> + 'a {
        self.cols.iter_refs(self.it).map(|i| self.cols.get(i))
    }

    /// References required to advance the outer loop (the LDS pointer
    /// chase through the node list).
    pub fn backbone(self) -> impl ExactSizeIterator<Item = MemRef> + 'a {
        self.cols.iter_backbone(self.it).map(|i| self.cols.get(i))
    }

    /// Inner-loop references — the delinquent loads the helper
    /// prefetches.
    pub fn inner(self) -> impl ExactSizeIterator<Item = MemRef> + 'a {
        self.cols.iter_inner(self.it).map(|i| self.cols.get(i))
    }

    /// Push this iteration into `s`, as its producer did.
    pub fn emit(self, s: &mut impl TraceSink) {
        self.backbone().for_each(|r| s.backbone(r));
        self.inner().for_each(|r| s.inner(r));
        s.end_iter(self.compute_cycles());
    }
}

/// Two iterations are equal when their backbone references, inner
/// references and compute cycles are, wherever they sit.
impl PartialEq for Iteration<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.backbone().eq(other.backbone())
            && self.inner().eq(other.inner())
            && self.compute_cycles() == other.compute_cycles()
    }
}

/// A trace's columns behind a shared handle (cloning shares them);
/// derefs to [`TraceColumns`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompiledTrace(Arc<TraceColumns>);

impl Deref for CompiledTrace {
    type Target = TraceColumns;

    fn deref(&self) -> &TraceColumns {
        &self.0
    }
}

impl CompiledTrace {
    /// The replay form of `trace`: its own columns, shared, not copied.
    pub fn compile(trace: &crate::HotLoopTrace) -> Self {
        trace.iters.clone()
    }

    /// A new trace holding a copy of iterations `iters` (burst sampling
    /// records windows of the hot loop).
    pub fn slice(&self, iters: Range<usize>) -> CompiledTrace {
        let mut b = TraceBuilder::new();
        iters.for_each(|it| self.at(it).emit(&mut b));
        b.finish()
    }
}

/// The column builder: a [`TraceSink`] that appends each reference to
/// the flat columns as it arrives.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    cols: TraceColumns,
    // Backbone references of the open iteration so far.
    open_backbone: u32,
}

impl TraceBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    #[inline]
    fn push(&mut self, r: MemRef) {
        self.cols.vaddr.push(r.vaddr);
        self.cols.site.push(r.site);
        self.cols.kind.push(r.kind);
    }

    /// References of the open iteration so far.
    fn open_refs(&self) -> usize {
        self.cols.vaddr.len() - *self.cols.ref_start.last().expect("starts at 0") as usize
    }

    /// Seal the columns. Panics if an iteration is still open.
    pub fn finish(self) -> CompiledTrace {
        assert_eq!(self.open_refs(), 0, "trace ends inside an iteration");
        CompiledTrace(Arc::new(self.cols))
    }
}

impl TraceSink for TraceBuilder {
    #[inline]
    fn backbone(&mut self, r: MemRef) {
        debug_assert_eq!(
            self.open_refs(),
            self.open_backbone as usize,
            "backbone reference after an inner one"
        );
        self.push(r);
        self.open_backbone += 1;
    }

    #[inline]
    fn inner(&mut self, r: MemRef) {
        self.push(r);
    }

    fn end_iter(&mut self, compute_cycles: u64) {
        let end = u32::try_from(self.cols.vaddr.len()).expect("a trace holds at most 2^32 refs");
        self.cols.ref_start.push(end);
        self.cols.backbone_len.push(self.open_backbone);
        self.cols.compute_cycles.push(compute_cycles);
        self.open_backbone = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{synth, HotLoopTrace};

    #[test]
    fn replay_yields_the_trace_refs_in_order() {
        let t = synth::pointer_chase(40, 64, 7, 3);
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.outer_iters(), t.outer_iters());
        assert_eq!(c.total_refs(), t.total_refs());
        let replayed: Vec<MemRef> = (0..c.total_refs()).map(|i| c.get(i)).collect();
        let walked: Vec<MemRef> = t.tagged_refs().map(|(_, r)| r).collect();
        assert_eq!(replayed, walked);
    }

    #[test]
    fn compile_shares_the_trace_columns() {
        let t = synth::random(30, 5, 0, 1 << 24, 11, 2);
        let c = CompiledTrace::compile(&t);
        assert!(std::ptr::eq(c.vaddr.as_ptr(), t.iters.vaddr.as_ptr()));
    }

    #[test]
    fn per_reference_columns_are_vaddr_site_and_kind() {
        let t = synth::pointer_chase(40, 64, 7, 3);
        let c = CompiledTrace::compile(&t);
        // Exhaustive: a new column fails to compile here until it is
        // accounted for below.
        let TraceColumns {
            vaddr,
            site,
            kind,
            ref_start,
            backbone_len,
            compute_cycles,
        } = &*c;
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
        let t = HotLoopTrace::record("split", &[], |s| {
            s.iteration(
                &[MemRef::anon(0), MemRef::anon(64)],
                &[MemRef::anon(128)],
                5,
            );
            s.iteration(&[MemRef::anon(256)], &[], 9);
        });
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.iter_refs(0), 0..3);
        assert_eq!(c.iter_backbone(0), 0..2);
        assert_eq!(c.iter_inner(0), 2..3);
        assert_eq!(c.iter_refs(1), 3..4);
        assert_eq!(c.iter_inner(1), 4..4);
        assert_eq!(c.compute_cycles(0), 5);
        assert_eq!(c.compute_cycles(1), 9);
        let it = c.at(0);
        assert_eq!(it.backbone().map(|r| r.vaddr).collect::<Vec<_>>(), [0, 64]);
        assert_eq!(it.inner().map(|r| r.vaddr).collect::<Vec<_>>(), [128]);
        assert_eq!((it.refs().len(), it.compute_cycles()), (3, 5));
    }

    #[test]
    fn slice_copies_a_window_of_iterations() {
        let t = synth::random(30, 5, 0, 1 << 24, 11, 2);
        let w = t.iters.slice(10..20);
        assert_eq!(w.outer_iters(), 10);
        assert!(w.iter().eq(t.iters.iter().skip(10).take(10)));
        assert_eq!(t.iters.slice(0..30), t.iters);
        assert_eq!(t.iters.slice(30..30).total_refs(), 0);
    }

    #[test]
    fn empty_trace_compiles() {
        let c = CompiledTrace::compile(&HotLoopTrace::default());
        assert_eq!(c.outer_iters(), 0);
        assert_eq!(c.total_refs(), 0);
    }

    #[test]
    #[should_panic(expected = "inside an iteration")]
    fn unfinished_iteration_is_rejected() {
        let mut b = TraceBuilder::new();
        b.inner(MemRef::anon(0));
        let _ = b.finish();
    }
}
