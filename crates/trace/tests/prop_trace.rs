//! Property tests: trace views, the codec and synthetic-stream guarantees.
//!
//! Deterministic randomized cases via `sp_testkit::check` (std-only; see
//! that crate for the replay workflow).

use sp_testkit::{check, gen_vec, SmallRng};
use sp_trace::{synth, HotLoopTrace, MemRef, TraceSink};
use std::collections::HashSet;

fn arb_trace(rng: &mut SmallRng) -> HotLoopTrace {
    let iters = rng.gen_range(0usize..50);
    HotLoopTrace::record("arb", &[], |s| {
        for _ in 0..iters {
            let backbone = gen_vec(rng, 0..4, |r| MemRef::anon(r.gen_range(0u64..(1 << 20))));
            let inner = gen_vec(rng, 0..8, |r| MemRef::anon(r.gen_range(0u64..(1 << 20))));
            s.iteration(&backbone, &inner, rng.gen_range(0u64..100));
        }
    })
}

/// `tagged_refs` yields exactly the trace's references in iteration
/// order with non-decreasing tags.
#[test]
fn tagged_refs_in_order() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let mut count = 0usize;
        let mut last_tag = 0u32;
        for (tag, _) in t.tagged_refs() {
            assert!(tag >= last_tag);
            assert!((tag as usize) < t.outer_iters());
            last_tag = tag;
            count += 1;
        }
        assert_eq!(count, t.total_refs());
    });
}

/// A slice is an exact window of the trace's iterations.
#[test]
fn slice_is_a_window() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let n = t.outer_iters();
        let a = rng.gen_range(0..=n);
        let b = rng.gen_range(a..=n);
        let w = t.iters.slice(a..b);
        assert!(w.iter().eq(t.iters.iter().skip(a).take(b - a)));
    });
}

/// `set_hammer` delivers exactly `iters * blocks_per_iter` distinct
/// blocks, all mapped to the requested set.
#[test]
fn set_hammer_guarantees() {
    check(64, |rng| {
        let iters = rng.gen_range(1usize..40);
        let bpi = rng.gen_range(1usize..6);
        let sets = 1u64 << rng.gen_range(3u32..9);
        let set = (1u64 << rng.gen_range(0u32..8)).min(sets - 1);
        let t = synth::set_hammer(iters, bpi, set, sets, 64);
        let mut blocks = HashSet::new();
        for (_, r) in t.tagged_refs() {
            assert_eq!((r.block(64) / 64) % sets, set);
            assert!(blocks.insert(r.block(64)));
        }
        assert_eq!(blocks.len(), iters * bpi);
    });
}

/// `pointer_chase` visits each node exactly once, whatever the seed.
#[test]
fn pointer_chase_is_a_permutation() {
    check(64, |rng| {
        let n = rng.gen_range(1usize..200);
        let seed = rng.gen_range(0u64..1000);
        let t = synth::pointer_chase(n, 64, seed, 0);
        let mut seen = HashSet::new();
        for (_, r) in t.tagged_refs() {
            assert!(r.vaddr % 64 == 0);
            assert!(seen.insert(r.vaddr / 64));
        }
        assert_eq!(seen.len(), n);
    });
}

/// `sequential` produces strictly increasing addresses at the stride.
#[test]
fn sequential_is_monotone() {
    check(64, |rng| {
        let iters = rng.gen_range(1usize..50);
        let rpi = rng.gen_range(1usize..8);
        let stride = 1u64 << rng.gen_range(3u32..8);
        let t = synth::sequential(iters, rpi, 1 << 30, stride, 0);
        let addrs: Vec<u64> = t.tagged_refs().map(|(_, r)| r.vaddr).collect();
        for w in addrs.windows(2) {
            assert_eq!(w[1] - w[0], stride);
        }
    });
}

mod codec_props {
    use super::*;
    use sp_trace::codec::{read_trace, write_trace};

    /// Serialization roundtrips exactly for arbitrary traces.
    #[test]
    fn codec_roundtrip() {
        check(64, |rng| {
            let t = arb_trace(rng);
            let mut buf = Vec::new();
            write_trace(&t, &mut buf).unwrap();
            let back = read_trace(&mut buf.as_slice()).unwrap();
            assert_eq!(back, t);
            assert_eq!(sp_trace::codec::digest(&back), sp_trace::codec::digest(&t));
        });
    }

    /// Corrupting any single byte never panics — it either still parses
    /// (the flipped bit may land in an address delta) or errors cleanly.
    #[test]
    fn corruption_never_panics() {
        check(64, |rng| {
            let t = arb_trace(rng);
            let pos_seed = rng.gen_range(0usize..10_000);
            let flip = rng.gen_range(1u32..255) as u8;
            let mut buf = Vec::new();
            write_trace(&t, &mut buf).unwrap();
            if buf.len() > 5 {
                let pos = 5 + pos_seed % (buf.len() - 5);
                buf[pos] ^= flip;
                let _ = read_trace(&mut buf.as_slice()); // must not panic
            }
        });
    }
}
