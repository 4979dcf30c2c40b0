//! Precompiled traces: a [`HotLoopTrace`] flattened for replay against
//! one cache geometry.
//!
//! A distance sweep replays the identical trace once per grid point. A
//! [`CompiledTrace`] flattens the trace once into struct-of-arrays
//! storage — three columns per reference (`vaddr`, `site`, `kind`: 13
//! bytes) plus per-iteration metadata — and the result is shared (`Arc`)
//! across all grid points, all passes, and repeated service requests.
//! The cache projections (`block / set / tag`) are not stored:
//! [`CompiledTrace::get`] derives them from `vaddr` with the shifts and
//! masks of the trace's [`TraceGeometry`].
//!
//! The projections are only valid for the geometry the trace was
//! compiled for, so every consumer must call
//! [`CompiledTrace::ensure_geometry`] (or compare
//! [`CompiledTrace::geometry`]) before replaying — a mismatch is a typed
//! [`GeometryMismatch`] error, never a silently wrong simulation.

use crate::codec;
use crate::record::{AccessKind, MemRef, SiteId, VAddr};
use crate::stream::HotLoopTrace;
use std::fmt;
use std::ops::Range;

/// Address-mapping parameters of one cache level: line size and set
/// count, both powers of two. This is the projection-relevant subset of
/// a full cache geometry (capacity and associativity do not affect the
/// block/set/tag split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelGeometry {
    /// Line (block) size in bytes.
    pub line_size: u64,
    /// Number of sets.
    pub sets: u64,
}

impl LevelGeometry {
    /// Build and validate a level geometry.
    ///
    /// # Panics
    /// If either parameter is zero or not a power of two.
    pub fn new(line_size: u64, sets: u64) -> Self {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        LevelGeometry { line_size, sets }
    }

    /// Block-aligned address of `addr`.
    #[inline]
    pub fn block_of(self, addr: VAddr) -> VAddr {
        addr & !(self.line_size - 1)
    }

    /// Index of the set `addr` maps to.
    #[inline]
    pub fn set_of(self, addr: VAddr) -> u64 {
        (addr >> self.line_size.trailing_zeros()) & (self.sets - 1)
    }

    /// Tag of `addr` (the block address bits above the set index).
    #[inline]
    pub fn tag_of(self, addr: VAddr) -> u64 {
        addr >> (self.line_size.trailing_zeros() + self.sets.trailing_zeros())
    }
}

/// The two-level mapping a trace is compiled against (private L1 and
/// shared L2). Hashable, so it can key compiled-trace memo tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceGeometry {
    /// Per-core private L1 mapping.
    pub l1: LevelGeometry,
    /// Shared L2 mapping.
    pub l2: LevelGeometry,
}

/// A compiled trace was offered to a simulator with a different
/// geometry. Using the projections anyway would silently index the
/// wrong sets, so this is a hard, typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeometryMismatch {
    /// Geometry the trace was compiled for.
    pub compiled_for: TraceGeometry,
    /// Geometry the consumer wanted to run against.
    pub requested: TraceGeometry,
}

impl fmt::Display for GeometryMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace compiled for {:?} cannot run against {:?}",
            self.compiled_for, self.requested
        )
    }
}

impl std::error::Error for GeometryMismatch {}

/// One reference with its cache projections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledRef {
    /// Simulated virtual address (hardware prefetchers train on it).
    pub vaddr: VAddr,
    /// L2-block-aligned address (MSHR / pollution bookkeeping key).
    pub block: VAddr,
    /// L1 set index.
    pub l1_set: u32,
    /// L1 tag.
    pub l1_tag: u64,
    /// L2 set index.
    pub l2_set: u32,
    /// L2 tag.
    pub l2_tag: u64,
    /// Operation kind.
    pub kind: AccessKind,
    /// Static reference site.
    pub site: SiteId,
}

impl CompiledRef {
    /// The scalar reference this record was compiled from.
    pub fn mem_ref(&self) -> MemRef {
        MemRef {
            vaddr: self.vaddr,
            site: self.site,
            kind: self.kind,
        }
    }
}

/// A [`HotLoopTrace`] compiled for one [`TraceGeometry`]: flat
/// struct-of-arrays per-reference columns plus per-iteration metadata
/// (reference ranges, backbone split, compute cycles).
///
/// Build once with [`CompiledTrace::compile`], wrap in an `Arc`, and
/// replay from every grid point / pass / request.
#[derive(Debug, Clone)]
pub struct CompiledTrace {
    geometry: TraceGeometry,
    digest: u64,
    name: String,
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
    /// Compile `trace` for `geometry`. Deterministic: the same trace and
    /// geometry always produce identical arrays.
    pub fn compile(trace: &HotLoopTrace, geometry: TraceGeometry) -> Self {
        let n = trace.total_refs();
        let iters = trace.outer_iters();
        let mut c = CompiledTrace {
            geometry,
            digest: codec::digest(trace),
            name: trace.name.clone(),
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

    /// The geometry this trace was compiled for.
    pub fn geometry(&self) -> TraceGeometry {
        self.geometry
    }

    /// Content digest of the source trace ([`codec::digest`]).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Name of the source trace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of outer-loop iterations.
    pub fn outer_iters(&self) -> usize {
        self.backbone_len.len()
    }

    /// Total number of references.
    pub fn total_refs(&self) -> usize {
        self.vaddr.len()
    }

    /// Guard against replaying with the wrong projections: `Ok` only if
    /// `requested` matches the compiled geometry.
    pub fn ensure_geometry(&self, requested: TraceGeometry) -> Result<(), GeometryMismatch> {
        if self.geometry == requested {
            Ok(())
        } else {
            Err(GeometryMismatch {
                compiled_for: self.geometry,
                requested,
            })
        }
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

    /// The reference at flat index `i`, with its projections derived
    /// from `vaddr` under the compiled geometry.
    #[inline]
    pub fn get(&self, i: usize) -> CompiledRef {
        let vaddr = self.vaddr[i];
        let TraceGeometry { l1, l2 } = self.geometry;
        CompiledRef {
            vaddr,
            block: l2.block_of(vaddr),
            l1_set: l1.set_of(vaddr) as u32,
            l1_tag: l1.tag_of(vaddr),
            l2_set: l2.set_of(vaddr) as u32,
            l2_tag: l2.tag_of(vaddr),
            kind: self.kind[i],
            site: self.site[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::IterRecord;
    use crate::synth;

    fn geo() -> TraceGeometry {
        TraceGeometry {
            l1: LevelGeometry::new(64, 64),
            l2: LevelGeometry::new(64, 4096),
        }
    }

    #[test]
    fn level_geometry_matches_division_mapping() {
        let g = LevelGeometry::new(64, 64);
        for addr in [0u64, 63, 64, 4096, 0xdead_beef, u64::MAX - 63] {
            assert_eq!(g.block_of(addr), addr & !63);
            assert_eq!(g.set_of(addr), (addr / 64) % 64);
            assert_eq!(g.tag_of(addr), addr / 64 / 64);
        }
    }

    #[test]
    fn compiled_projections_match_scalar_walk() {
        let t = synth::pointer_chase(40, 64, 7, 3);
        let g = geo();
        let c = CompiledTrace::compile(&t, g);
        assert_eq!(c.outer_iters(), t.outer_iters());
        assert_eq!(c.total_refs(), t.total_refs());
        let mut i = 0usize;
        for (_, r) in t.tagged_refs() {
            let cr = c.get(i);
            assert_eq!(cr.mem_ref(), *r);
            assert_eq!(cr.block, g.l2.block_of(r.vaddr));
            assert_eq!(cr.l1_set as u64, g.l1.set_of(r.vaddr));
            assert_eq!(cr.l1_tag, g.l1.tag_of(r.vaddr));
            assert_eq!(cr.l2_set as u64, g.l2.set_of(r.vaddr));
            assert_eq!(cr.l2_tag, g.l2.tag_of(r.vaddr));
            i += 1;
        }
        assert_eq!(i, c.total_refs());
    }

    #[test]
    fn per_reference_columns_are_vaddr_site_and_kind() {
        let t = synth::pointer_chase(40, 64, 7, 3);
        let c = CompiledTrace::compile(&t, geo());
        // Exhaustive: a new column fails to compile here until it is
        // accounted for below.
        let CompiledTrace {
            geometry: _,
            digest: _,
            name: _,
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
        let c = CompiledTrace::compile(&t, geo());
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
        let a = CompiledTrace::compile(&t, geo());
        let b = CompiledTrace::compile(&t, geo());
        assert_eq!(a.digest(), b.digest());
        for i in 0..a.total_refs() {
            assert_eq!(a.get(i), b.get(i));
        }
    }

    #[test]
    fn digest_survives_codec_roundtrip() {
        let t = synth::sequential(64, 4, 0x8000, 64, 3);
        let mut buf = Vec::new();
        codec::write_trace(&t, &mut buf).unwrap();
        let back = codec::read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(codec::digest(&t), codec::digest(&back));
        assert_eq!(
            CompiledTrace::compile(&t, geo()).digest(),
            CompiledTrace::compile(&back, geo()).digest()
        );
        // Distinct traces get distinct digests.
        let other = synth::sequential(64, 4, 0x8040, 64, 3);
        assert_ne!(codec::digest(&t), codec::digest(&other));
    }

    #[test]
    fn geometry_mismatch_is_a_typed_error() {
        let t = synth::pointer_chase(8, 64, 5, 0);
        let c = CompiledTrace::compile(&t, geo());
        assert_eq!(c.ensure_geometry(geo()), Ok(()));
        let other = TraceGeometry {
            l1: LevelGeometry::new(64, 64),
            l2: LevelGeometry::new(64, 2048),
        };
        let err = c.ensure_geometry(other).unwrap_err();
        assert_eq!(err.compiled_for, geo());
        assert_eq!(err.requested, other);
        let msg = err.to_string();
        assert!(msg.contains("compiled for"), "{msg}");
    }

    #[test]
    fn empty_trace_compiles() {
        let c = CompiledTrace::compile(&HotLoopTrace::new("empty"), geo());
        assert_eq!(c.outer_iters(), 0);
        assert_eq!(c.total_refs(), 0);
        assert_eq!(c.name(), "empty");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_sets() {
        let _ = LevelGeometry::new(64, 3);
    }
}
