//! Hot-loop traces: per-outer-iteration reference streams, and the sink
//! every producer pushes them into.

use crate::compiled::{CompiledTrace, TraceBuilder};
use crate::record::MemRef;

/// Receives a hot loop's references in program order, one outer
/// iteration at a time: first its backbone references, then its inner
/// references, then [`end_iter`](TraceSink::end_iter).
///
/// Every workload kernel emits into this trait. [`TraceBuilder`] stores
/// the stream as a trace's columns; a streaming analysis (the Set
/// Affinity analyzer in `sp-core`) consumes it without storing it.
pub trait TraceSink {
    /// A backbone reference of the open iteration (the pointer chase
    /// that advances the outer loop). All of an iteration's backbone
    /// references come before its inner ones.
    fn backbone(&mut self, r: MemRef);

    /// An inner-loop reference of the open iteration.
    fn inner(&mut self, r: MemRef);

    /// Close the open iteration, attributing `compute_cycles` of pure
    /// computation to it.
    fn end_iter(&mut self, compute_cycles: u64);

    /// One whole iteration at once.
    fn iteration(&mut self, backbone: &[MemRef], inner: &[MemRef], compute_cycles: u64) {
        backbone.iter().for_each(|&r| self.backbone(r));
        inner.iter().for_each(|&r| self.inner(r));
        self.end_iter(compute_cycles);
    }
}

/// A profiled hot loop: its name, its reference sites and its
/// iterations, stored once as flat columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HotLoopTrace {
    /// Human-readable name of the hot function (e.g. `"em3d::compute_nodes"`).
    pub name: String,
    /// Names of the static reference sites, indexed by
    /// [`SiteId`](crate::SiteId) value.
    pub site_names: Vec<String>,
    /// The iterations of the outer hot loop, in program order. This is
    /// the replay form itself: compiling the trace shares it.
    pub iters: CompiledTrace,
}

impl HotLoopTrace {
    /// Record a trace: `emit` pushes every iteration into the column
    /// builder.
    pub fn record(
        name: impl Into<String>,
        site_names: &[&str],
        emit: impl FnOnce(&mut TraceBuilder),
    ) -> Self {
        let mut b = TraceBuilder::new();
        emit(&mut b);
        HotLoopTrace {
            name: name.into(),
            site_names: site_names.iter().map(|s| s.to_string()).collect(),
            iters: b.finish(),
        }
    }

    /// Number of outer-loop iterations.
    pub fn outer_iters(&self) -> usize {
        self.iters.outer_iters()
    }

    /// Total number of references across all iterations.
    pub fn total_refs(&self) -> usize {
        self.iters.total_refs()
    }

    /// Iterate over `(outer_iteration, reference)` pairs in program order.
    ///
    /// This is the flat stream the Set Affinity analysis (paper Fig. 3)
    /// walks: each reference carries the iteration count of the outer hot
    /// loop at which it was issued.
    pub fn tagged_refs(&self) -> impl Iterator<Item = (u32, MemRef)> + '_ {
        self.iters
            .iter()
            .flat_map(|it| it.refs().map(move |r| (it.index() as u32, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{SiteId, VAddr};

    fn trace_2x2() -> HotLoopTrace {
        HotLoopTrace::record("t", &[], |s| {
            s.iteration(
                &[MemRef::load(0, SiteId(0))],
                &[MemRef::load(64, SiteId(1)), MemRef::store(128, SiteId(2))],
                10,
            );
            s.iteration(
                &[MemRef::load(256, SiteId(0))],
                &[MemRef::load(64, SiteId(1))],
                5,
            );
        })
    }

    #[test]
    fn tagged_refs_preserve_program_order_and_iteration_tags() {
        let t = trace_2x2();
        let tags: Vec<(u32, VAddr)> = t.tagged_refs().map(|(i, r)| (i, r.vaddr)).collect();
        assert_eq!(tags, vec![(0, 0), (0, 64), (0, 128), (1, 256), (1, 64)]);
    }

    #[test]
    fn record_keeps_empty_iterations_and_site_names() {
        let t = HotLoopTrace::record("e", &["a"], |s| s.end_iter(0));
        assert_eq!((t.outer_iters(), t.total_refs()), (1, 0));
        assert_eq!(t.site_names, ["a"]);
    }
}
