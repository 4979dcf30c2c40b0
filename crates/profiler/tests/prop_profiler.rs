//! Property tests: burst sampling and delinquent-load ranking
//! invariants.
//!
//! Deterministic randomized cases via `sp_testkit::check` (std-only).

use sp_cachesim::{CacheGeometry, Policy};
use sp_profiler::{rank_delinquent_loads, BurstSampler};
use sp_testkit::{check, gen_vec, SmallRng};
use sp_trace::{synth, HotLoopTrace, MemRef, SiteId, TraceSink};

fn arb_trace(rng: &mut SmallRng) -> HotLoopTrace {
    let iters = rng.gen_range(0usize..80);
    HotLoopTrace::record("arb", &[], |s| {
        for _ in 0..iters {
            let inner = gen_vec(rng, 0..6, |r| {
                MemRef::load(r.gen_range(0u64..(1 << 16)), SiteId(r.gen_range(0u32..5)))
            });
            s.iteration(&[], &inner, rng.gen_range(0u64..20));
        }
    })
}

/// Bursts are disjoint, ordered, within bounds, and exactly tile the
/// on/off schedule.
#[test]
fn bursts_are_well_formed() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let on = rng.gen_range(1usize..20);
        let off = rng.gen_range(0usize..20);
        let s = BurstSampler::new(on, off);
        let bursts = s.sample(&t);
        let mut prev_end = 0usize;
        for (i, b) in bursts.iter().enumerate() {
            assert!(b.len() <= on);
            assert!(b.start_iter + b.len() <= t.outer_iters());
            if i > 0 {
                assert_eq!(b.start_iter, prev_end + off);
            } else {
                assert_eq!(b.start_iter, 0);
            }
            prev_end = b.start_iter + b.len();
            // Burst contents match the trace window exactly.
            for (k, it) in b.iters.iter().enumerate() {
                assert_eq!(it, t.iters.at(b.start_iter + k));
            }
        }
        assert_eq!(
            s.recorded_iters(&t),
            bursts.iter().map(|b| b.len()).sum::<usize>()
        );
    });
}

/// With off = 0 the sampler records the entire trace.
#[test]
fn zero_off_records_everything() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let on = rng.gen_range(1usize..20);
        let s = BurstSampler::new(on, 0);
        assert_eq!(s.recorded_iters(&t), t.outer_iters());
    });
}

/// Delinquent ranking conserves references, bounds misses, and is
/// sorted by miss count.
#[test]
fn ranking_invariants() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let ranked = rank_delinquent_loads(&t, CacheGeometry::new(2048, 2, 64), Policy::Lru);
        let total: u64 = ranked.iter().map(|s| s.refs).sum();
        assert_eq!(total, t.total_refs() as u64);
        for s in &ranked {
            assert!(s.misses <= s.refs);
        }
        for w in ranked.windows(2) {
            assert!(w[0].misses >= w[1].misses);
        }
    });
}

/// A strictly streaming trace misses on every distinct block exactly
/// once per eviction cycle; the ranking's total misses equal at least
/// the distinct blocks beyond the cache capacity.
#[test]
fn streaming_trace_misses() {
    check(64, |rng| {
        let iters = rng.gen_range(1usize..100);
        let t = synth::sequential(iters, 4, 0, 64, 0);
        let geo = CacheGeometry::new(2048, 2, 64);
        let ranked = rank_delinquent_loads(&t, geo, Policy::Lru);
        let misses: u64 = ranked.iter().map(|s| s.misses).sum();
        // Pure streaming with distinct blocks: every ref is a miss.
        assert_eq!(misses, t.total_refs() as u64);
    });
}

mod reuse_props {
    use super::*;
    use sp_cachesim::{CacheGeometry, Entity, SetAssocCache};
    use sp_profiler::reuse_histogram;

    fn geo() -> CacheGeometry {
        CacheGeometry::new(2 * 1024, 2, 64) // 16 sets x 2 ways
    }

    fn simulated_misses(t: &HotLoopTrace, ways: u32) -> u64 {
        let g = geo();
        let sim = CacheGeometry::new(g.sets() * ways as u64 * g.line_size, ways, g.line_size);
        let mut c = SetAssocCache::new(sim, Policy::Lru);
        let mut misses = 0;
        for (_, r) in t.tagged_refs() {
            if c.demand_touch(r.vaddr, false).is_none() {
                misses += 1;
                c.fill(r.vaddr, Entity::Main, false);
            }
        }
        misses
    }

    /// Mattson's one-pass histogram predicts the simulator's LRU miss
    /// count exactly, for arbitrary traces and associativities — a
    /// differential test between two independent implementations.
    #[test]
    fn mattson_equals_simulation() {
        check(64, |rng| {
            let t = arb_trace(rng);
            let ways = 1u32 << rng.gen_range(0u32..4);
            let h = reuse_histogram(&t, geo());
            assert_eq!(h.miss_count(ways), simulated_misses(&t, ways));
        });
    }

    /// Histogram counts partition the accesses; miss counts are
    /// monotone in associativity (the inclusion property).
    #[test]
    fn histogram_invariants() {
        check(64, |rng| {
            let t = arb_trace(rng);
            let h = reuse_histogram(&t, geo());
            let in_hist: u64 = h.histogram.iter().sum();
            assert_eq!(in_hist + h.cold, h.total);
            for w in 1..12u32 {
                assert!(h.miss_count(w + 1) <= h.miss_count(w));
            }
            // Cold misses are a floor at any associativity.
            assert!(h.miss_count(64) >= h.cold.min(h.total));
        });
    }
}
