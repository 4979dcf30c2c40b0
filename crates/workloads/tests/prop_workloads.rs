//! Property tests: workload construction invariants across input sizes.
//!
//! Deterministic randomized cases via `sp_testkit::check` (std-only).

use sp_testkit::{check, gen_vec};
use sp_workloads::{em3d, mcf, mst, Em3d, Em3dConfig, Mcf, McfConfig, Mst, MstConfig};

/// EM3D stays bipartite and its trace matches the configured shape
/// for arbitrary (small) sizes and seeds.
#[test]
fn em3d_shape() {
    check(32, |rng| {
        let half = rng.gen_range(2usize..40);
        let degree = rng.gen_range(1usize..8);
        let seed = rng.gen_range(0u64..100);
        let frag = rng.gen_bool(0.5);
        let cfg = Em3dConfig {
            nodes: half * 2,
            degree,
            seed,
            fragmented: frag,
            compute_per_edge: 2,
        };
        let g = Em3d::build(cfg);
        let t = g.trace();
        assert_eq!(t.outer_iters(), cfg.nodes);
        for (i, it) in t.iters.iter().enumerate() {
            assert_eq!(it.backbone.len(), 1);
            assert_eq!(it.inner.len(), 3 * degree + 1);
            for &o in &g.from[i * degree..(i + 1) * degree] {
                assert_ne!(i < half, (o as usize) < half, "edge must cross partition");
            }
        }
        // Node addresses are 64-byte aligned and distinct.
        let mut seen = std::collections::HashSet::new();
        for (_, r) in t.tagged_refs().filter(|(_, r)| r.site == em3d::sites::NEXT) {
            assert_eq!(r.vaddr % 64, 0);
            seen.insert(r.vaddr);
        }
        assert_eq!(seen.len(), cfg.nodes);
    });
}

/// MCF: the arc scan is sequential, endpoints are valid and never
/// self-loops, and the trace has one iteration per arc.
#[test]
fn mcf_shape() {
    check(32, |rng| {
        let arcs = rng.gen_range(1usize..400);
        let nodes = rng.gen_range(2usize..64);
        let seed = rng.gen_range(0u64..100);
        let cfg = McfConfig {
            arcs,
            nodes,
            seed,
            compute_per_arc: 3,
            basket_one_in: 7,
        };
        let m = Mcf::build(cfg);
        let t = m.trace();
        assert_eq!(t.outer_iters(), arcs);
        for &(tail, head) in &m.endpoints {
            assert!(tail != head);
            assert!((tail as usize) < nodes && (head as usize) < nodes);
        }
        let arcs_refs: Vec<u64> = t
            .tagged_refs()
            .filter(|(_, r)| r.site == mcf::sites::ARC)
            .map(|(_, r)| r.vaddr)
            .collect();
        for w in arcs_refs.windows(2) {
            assert_eq!(w[1] - w[0], mcf::ARC_BYTES);
        }
        let baskets = t
            .tagged_refs()
            .filter(|(_, r)| r.site == mcf::sites::BASKET)
            .count();
        assert_eq!(baskets, arcs.div_ceil(cfg.basket_one_in));
    });
}

/// MST: the trace is triangular and every bucket read is word-aligned.
#[test]
fn mst_shape() {
    check(32, |rng| {
        let nodes = rng.gen_range(3usize..24);
        let seed = rng.gen_range(0u64..100);
        let cfg = MstConfig {
            nodes,
            buckets: 8,
            seed,
            compute_per_visit: 2,
        };
        let m = Mst::build(cfg);
        let t = m.trace();
        assert_eq!(t.outer_iters(), nodes * (nodes - 1) / 2);
        // Every iteration probes exactly one bucket within bounds.
        for (_, r) in t
            .tagged_refs()
            .filter(|(_, r)| r.site == mst::sites::BUCKET)
        {
            assert_eq!(r.vaddr % 8, 0);
        }
    });
}

/// The arena never hands out overlapping allocations.
#[test]
fn arena_no_overlap() {
    check(32, |rng| {
        let sizes = gen_vec(rng, 1..60, |r| r.gen_range(1u64..256));
        let gap = rng.gen_range(0u64..128);
        let seed = rng.gen_range(0u64..50);
        let mut a = sp_workloads::Arena::fragmented(0x1000, gap, seed);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for s in sizes {
            let p = a.alloc(s, 8);
            assert_eq!(p % 8, 0);
            for &(q, len) in &regions {
                assert!(p >= q + len || p + s <= q, "overlap at {p:#x}");
            }
            regions.push((p, s));
        }
    });
}

mod streaming_equivalence {
    use super::*;

    /// The streaming iterators must produce exactly the materialized
    /// trace for every workload (the paper-scale analyses rely on this).
    #[test]
    fn iter_records_equal_trace() {
        let em3d = Em3d::build(Em3dConfig::tiny());
        assert!(em3d.iter_records().eq(em3d.trace().iters.into_iter()));
        let mcf = Mcf::build(McfConfig::tiny());
        assert!(mcf.iter_records().eq(mcf.trace().iters.into_iter()));
        let mst = Mst::build(MstConfig::tiny());
        assert!(mst.iter_records().eq(mst.trace().iters.into_iter()));
    }

    #[test]
    fn ref_iter_equals_tagged_refs() {
        let em3d = Em3d::build(Em3dConfig::tiny());
        let t = em3d.trace();
        let a: Vec<(u32, sp_trace::MemRef)> = em3d.ref_iter().collect();
        let b: Vec<(u32, sp_trace::MemRef)> = t.tagged_refs().map(|(i, r)| (i, *r)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn layout_only_builds_still_stream() {
        // Builds off the default sizes must still produce the full
        // reference stream.
        let cfg = Em3dConfig {
            nodes: 64,
            degree: 4,
            ..Em3dConfig::tiny()
        };
        let g = Em3d::build(cfg);
        assert_eq!(g.ref_iter().count(), g.trace().total_refs());
        let mcfg = MstConfig {
            nodes: 16,
            ..MstConfig::tiny()
        };
        let m = Mst::build(mcfg);
        assert!(m.iter_records().count() > 0);
    }
}
