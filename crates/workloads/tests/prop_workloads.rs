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
            assert_eq!(it.backbone().len(), 1);
            assert_eq!(it.inner().len(), 3 * degree + 1);
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
    use sp_cachesim::CacheGeometry;
    use sp_core::{original_set_affinity, SetAffinityAnalyzer, SetAffinityReport};
    use sp_workloads::{KernelKind, ScaleTier, WorkloadBuilder};

    /// An L2 small enough that every tiny kernel overflows some set.
    fn geo() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 4, 64)
    }

    fn streamed(emit: impl FnOnce(&mut SetAffinityAnalyzer)) -> SetAffinityReport {
        let mut sa = SetAffinityAnalyzer::new(geo());
        emit(&mut sa);
        sa.report()
    }

    /// Streaming a kernel into the Set-Affinity sink gives the report of
    /// the analysis over its stored trace, for every kernel and two
    /// layout seeds (paper-scale Table 2 relies on this).
    #[test]
    fn streamed_affinity_equals_stored_trace_affinity() {
        let mut overflowed = 0;
        for kind in KernelKind::ALL {
            for seed in [0x5EED_0001, 0x5EED_0002] {
                let k = WorkloadBuilder::new(kind)
                    .tier(ScaleTier::Tiny)
                    .seed(seed)
                    .build();
                let want = original_set_affinity(&k.trace(), geo());
                assert_eq!(streamed(|sa| k.emit(sa)), want, "{} {seed:#x}", kind.name());
                overflowed += usize::from(want.min().is_some());
            }
        }
        assert!(overflowed > 0, "no kernel overflowed a set: vacuous");
    }

    #[test]
    fn layout_only_builds_still_stream() {
        // Builds off the default sizes stream exactly their stored trace.
        let g = Em3d::build(Em3dConfig {
            nodes: 64,
            degree: 4,
            ..Em3dConfig::tiny()
        });
        assert_eq!(
            streamed(|sa| g.emit(sa)),
            original_set_affinity(&g.trace(), geo())
        );
        let m = Mst::build(MstConfig {
            nodes: 16,
            ..MstConfig::tiny()
        });
        assert_eq!(
            streamed(|sa| m.emit(sa)),
            original_set_affinity(&m.trace(), geo())
        );
        let c = Mcf::build(McfConfig::tiny());
        assert_eq!(
            streamed(|sa| c.emit(sa)),
            original_set_affinity(&c.trace(), geo())
        );
    }
}
