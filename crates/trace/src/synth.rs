//! Deterministic synthetic reference streams.
//!
//! These generators exist so that the cache simulator, the Set Affinity
//! analysis, and the SP transformation can be tested against streams whose
//! properties are known *by construction* — e.g. a [`set_hammer`] stream
//! has an exactly computable Set Affinity.

use crate::record::{MemRef, SiteId};
use crate::rng::SmallRng;
use crate::stream::{HotLoopTrace, TraceSink};

/// A block-sequential scan: iteration `i` touches `refs_per_iter`
/// consecutive blocks starting at `base + i * refs_per_iter * stride`.
///
/// With `stride == line_size` this is the classic streaming pattern that
/// hardware streamers catch.
pub fn sequential(
    outer_iters: usize,
    refs_per_iter: usize,
    base: u64,
    stride: u64,
    compute_cycles: u64,
) -> HotLoopTrace {
    HotLoopTrace::record("synth::sequential", &[], |s| {
        for i in 0..outer_iters {
            let start = base + (i * refs_per_iter) as u64 * stride;
            for j in 0..refs_per_iter {
                s.inner(MemRef::anon(start + j as u64 * stride));
            }
            s.end_iter(compute_cycles);
        }
    })
}

/// A constant-stride stream with one reference per outer iteration —
/// the pattern an IP-indexed DPL (stride) prefetcher locks onto.
pub fn strided(outer_iters: usize, base: u64, stride: i64, compute_cycles: u64) -> HotLoopTrace {
    HotLoopTrace::record("synth::strided", &[], |s| {
        for i in 0..outer_iters {
            let addr = (base as i64 + i as i64 * stride) as u64;
            s.inner(MemRef::load(addr, SiteId(0)));
            s.end_iter(compute_cycles);
        }
    })
}

/// Uniform-random references over `[base, base + span)`, `refs_per_iter`
/// per outer iteration. Deterministic for a given `seed`.
pub fn random(
    outer_iters: usize,
    refs_per_iter: usize,
    base: u64,
    span: u64,
    seed: u64,
    compute_cycles: u64,
) -> HotLoopTrace {
    assert!(span > 0, "address span must be non-empty");
    let mut rng = SmallRng::seed_from_u64(seed);
    HotLoopTrace::record("synth::random", &[], |s| {
        for _ in 0..outer_iters {
            for _ in 0..refs_per_iter {
                s.inner(MemRef::anon(base + rng.gen_range(0..span)));
            }
            s.end_iter(compute_cycles);
        }
    })
}

/// A pointer-chase through `nodes` nodes of `node_size` bytes laid out in
/// a (seeded) shuffled order: iteration `i` loads the header of node
/// `perm[i]` as its backbone, modelling `curr = curr->next` over a
/// fragmented heap.
pub fn pointer_chase(nodes: usize, node_size: u64, seed: u64, compute_cycles: u64) -> HotLoopTrace {
    let mut perm: Vec<u64> = (0..nodes as u64).collect();
    // Fisher–Yates with a seeded RNG.
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    HotLoopTrace::record("synth::pointer_chase", &[], |s| {
        for &p in &perm {
            s.backbone(MemRef::load(p * node_size, SiteId(0)));
            s.end_iter(compute_cycles);
        }
    })
}

/// A stream that hammers a single cache set: every reference maps to set
/// `set_index` of a cache with `num_sets` sets and `line_size`-byte lines,
/// and every reference is a *distinct* block.
///
/// With `blocks_per_iter` new blocks per outer iteration and an
/// associativity of `ways`, the Set Affinity of the hammered set is
/// exactly `ceil((ways + 1) / blocks_per_iter) - 1` iterations completed
/// before the `(ways+1)`-th distinct block lands — i.e. the analysis must
/// report the iteration index at which the set first overflows. Tests in
/// `sp-core::affinity` rely on this closed form.
pub fn set_hammer(
    outer_iters: usize,
    blocks_per_iter: usize,
    set_index: u64,
    num_sets: u64,
    line_size: u64,
) -> HotLoopTrace {
    assert!(num_sets.is_power_of_two() && line_size.is_power_of_two());
    assert!(set_index < num_sets);
    let set_stride = num_sets * line_size; // consecutive blocks in one set
    let mut block = 0u64;
    HotLoopTrace::record("synth::set_hammer", &[], |s| {
        for _ in 0..outer_iters {
            for _ in 0..blocks_per_iter {
                s.inner(MemRef::anon(set_index * line_size + block * set_stride));
                block += 1;
            }
            s.end_iter(0);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_addresses_are_consecutive() {
        let t = sequential(3, 2, 0, 64, 7);
        let addrs: Vec<u64> = t.tagged_refs().map(|(_, r)| r.vaddr).collect();
        assert_eq!(addrs, vec![0, 64, 128, 192, 256, 320]);
        assert!(t.iters.iter().all(|it| it.compute_cycles() == 7));
    }

    #[test]
    fn strided_supports_negative_stride() {
        let t = strided(3, 1000, -64, 0);
        let addrs: Vec<u64> = t.tagged_refs().map(|(_, r)| r.vaddr).collect();
        assert_eq!(addrs, vec![1000, 936, 872]);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = random(10, 4, 0, 1 << 20, 42, 0);
        let b = random(10, 4, 0, 1 << 20, 42, 0);
        let c = random(10, 4, 0, 1 << 20, 43, 0);
        let va: Vec<u64> = a.tagged_refs().map(|(_, r)| r.vaddr).collect();
        let vb: Vec<u64> = b.tagged_refs().map(|(_, r)| r.vaddr).collect();
        let vc: Vec<u64> = c.tagged_refs().map(|(_, r)| r.vaddr).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn random_addresses_stay_in_span() {
        let t = random(50, 3, 4096, 8192, 1, 0);
        assert!(t
            .tagged_refs()
            .all(|(_, r)| (4096..4096 + 8192).contains(&r.vaddr)));
    }

    #[test]
    fn pointer_chase_visits_every_node_once() {
        let t = pointer_chase(100, 64, 9, 0);
        let mut addrs: Vec<u64> = t.tagged_refs().map(|(_, r)| r.vaddr).collect();
        addrs.sort_unstable();
        let expect: Vec<u64> = (0..100u64).map(|i| i * 64).collect();
        assert_eq!(addrs, expect);
        // Backbone refs, not inner: the chase advances the outer loop.
        assert!(t
            .iters
            .iter()
            .all(|it| it.backbone().len() == 1 && it.inner().next().is_none()));
    }

    #[test]
    fn set_hammer_blocks_all_map_to_the_target_set_and_are_distinct() {
        let (num_sets, line) = (64u64, 64u64);
        let t = set_hammer(10, 3, 5, num_sets, line);
        let mut blocks = std::collections::HashSet::new();
        for (_, r) in t.tagged_refs() {
            let block = r.block(line);
            assert_eq!((block / line) % num_sets, 5, "block must map to set 5");
            assert!(blocks.insert(block), "blocks must be distinct");
        }
        assert_eq!(blocks.len(), 30);
    }

    #[test]
    #[should_panic(expected = "span must be non-empty")]
    fn random_rejects_empty_span() {
        let _ = random(1, 1, 0, 0, 0, 0);
    }
}
