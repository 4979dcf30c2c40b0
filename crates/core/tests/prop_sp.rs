//! Property tests: SP plan tiling, Set Affinity laws, and engine
//! conservation invariants.
//!
//! Deterministic randomized cases via `sp_testkit::check` (std-only).

use sp_cachesim::{CacheConfig, CacheGeometry};
use sp_core::prelude::*;
use sp_core::{plan, HelperSchedule, HelperStep, SetAffinityAnalyzer};
use sp_testkit::{check, gen_vec, SmallRng};
use sp_trace::{synth, HotLoopTrace, MemRef, TraceSink};

fn tiny_cfg() -> CacheConfig {
    CacheConfig {
        cores: 2,
        l1: CacheGeometry::new(512, 2, 64),
        l2: CacheGeometry::new(4 * 1024, 4, 64),
        hw_prefetchers: false,
        mshr_entries: 4,
        ..CacheConfig::scaled_default()
    }
}

/// Replay `t` on `cfg`: the original program, or SP at `params`.
fn replay(t: &HotLoopTrace, cfg: CacheConfig, params: Option<SpParams>) -> RunResult {
    let ct = compile_trace(t, &cfg);
    let mut params = params;
    let helper = params.as_mut().map(|p| p as &mut dyn HelperSchedule);
    run(&ct, cfg, helper, EngineOptions::default(), &mut NullSink)
}

fn arb_trace(rng: &mut SmallRng) -> HotLoopTrace {
    let iters = rng.gen_range(1usize..60);
    HotLoopTrace::record("arb", &[], |s| {
        for _ in 0..iters {
            let backbone = gen_vec(rng, 0..2, |r| MemRef::anon(r.gen_range(0u64..(1 << 16))));
            let inner = gen_vec(rng, 0..6, |r| MemRef::anon(r.gen_range(0u64..(1 << 16))));
            s.iteration(&backbone, &inner, rng.gen_range(0u64..30));
        }
    })
}

/// Every full round of the plan contains exactly `a_ski` chases then
/// `a_pre` prefetches, in that order.
#[test]
fn plan_round_tiling() {
    check(64, |rng| {
        let a_ski = rng.gen_range(0u32..10);
        let a_pre = rng.gen_range(1u32..10);
        let rounds = rng.gen_range(1usize..10);
        let p = SpParams::new(a_ski, a_pre);
        let n = rounds * p.round_len() as usize;
        let steps = plan(p, n);
        for r in 0..rounds {
            let base = r * p.round_len() as usize;
            for k in 0..p.round_len() as usize {
                let expect = if (k as u32) < a_ski {
                    HelperStep::Chase
                } else {
                    HelperStep::Prefetch
                };
                assert_eq!(steps[base + k], expect, "round {r}, offset {k}");
            }
        }
        // Coverage over full rounds is exactly RP.
        let covered = steps.iter().filter(|s| **s == HelperStep::Prefetch).count();
        assert_eq!(covered, rounds * a_pre as usize);
    });
}

/// `from_distance_rp` honours the requested ratio within integer
/// rounding: |achieved - requested| <= 1/(a_ski + a_pre).
#[test]
fn rp_roundtrip() {
    check(64, |rng| {
        let d = rng.gen_range(1u32..2000);
        let rp = rng.gen_range(5u32..96) as f64 / 100.0;
        let p = SpParams::from_distance_rp(d, rp);
        assert_eq!(p.a_ski, d);
        let tol = 1.0 / p.round_len() as f64;
        assert!(
            (p.rp() - rp).abs() <= tol,
            "rp {} vs requested {}",
            p.rp(),
            rp
        );
    });
}

/// Set Affinity never decreases when associativity grows (same sets).
#[test]
fn affinity_monotone_in_ways() {
    check(64, |rng| {
        let seed = rng.gen_range(0u64..500);
        let small = CacheGeometry::new(4 * 1024, 4, 64); // 16 sets
        let big = CacheGeometry::new(8 * 1024, 8, 64); // 16 sets, 8 ways
        let t = synth::random(120, 6, 0, 1 << 16, seed, 0);
        let rs = original_set_affinity(&t, small);
        let rb = original_set_affinity(&t, big);
        for (set, sa_big) in &rb.per_set {
            let sa_small = rs
                .per_set
                .get(set)
                .expect("8-way overflow implies 4-way overflow");
            assert!(sa_small <= sa_big);
        }
    });
}

/// Extending a stream never changes the affinity recorded on its
/// prefix (first-overflow is a prefix property).
#[test]
fn affinity_is_prefix_stable() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let extra = arb_trace(rng);
        let geo = CacheGeometry::new(2 * 1024, 2, 64);
        let r1 = original_set_affinity(&t, geo);
        let combined = HotLoopTrace::record("combined", &[], |s| {
            t.iters
                .iter()
                .chain(extra.iters.iter())
                .for_each(|it| it.emit(s));
        });
        let r2 = original_set_affinity(&combined, geo);
        for (set, sa) in &r1.per_set {
            assert_eq!(r2.per_set.get(set), Some(sa), "set {set} changed");
        }
        assert!(r2.per_set.len() >= r1.per_set.len());
    });
}

/// The analyzer fed `(iteration, address)` pairs agrees with the
/// analysis of the trace, which feeds it as a sink.
#[test]
fn stream_and_trace_agree() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let geo = CacheGeometry::new(2 * 1024, 2, 64);
        let mut sa = SetAffinityAnalyzer::new(geo);
        t.tagged_refs().for_each(|(i, r)| sa.observe(i, r.vaddr));
        assert_eq!(original_set_affinity(&t, geo), sa.report());
    });
}

/// Engine conservation: the main thread executes exactly the trace,
/// original and SP runs agree on that count, and runtime covers the
/// compute cycles.
#[test]
fn engine_conservation() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let a_ski = rng.gen_range(0u32..8);
        let a_pre = rng.gen_range(1u32..8);
        let cfg = tiny_cfg();
        let orig = replay(&t, cfg, None);
        let sp = replay(&t, cfg, Some(SpParams::new(a_ski, a_pre)));
        let refs = t.total_refs() as u64;
        assert_eq!(orig.stats.main.demand_accesses(), refs);
        assert_eq!(sp.stats.main.demand_accesses(), refs);
        let compute: u64 = t.iters.iter().map(|it| it.compute_cycles()).sum();
        assert!(orig.runtime >= compute);
        assert!(sp.runtime >= compute);
    });
}

/// SP runs are deterministic for arbitrary traces and parameters.
#[test]
fn engine_deterministic() {
    check(64, |rng| {
        let t = arb_trace(rng);
        let a_ski = rng.gen_range(0u32..6);
        let a_pre = rng.gen_range(1u32..6);
        let cfg = tiny_cfg();
        let p = Some(SpParams::new(a_ski, a_pre));
        assert_eq!(replay(&t, cfg, p), replay(&t, cfg, p));
    });
}

/// The distance controller never exceeds the bound and is the
/// identity below it.
#[test]
fn controller_clamps() {
    check(64, |rng| {
        let requested = rng.gen_range(0u32..10_000);
        let bound = if rng.gen_bool(0.5) {
            Some(rng.gen_range(1u32..5000))
        } else {
            None
        };
        let rec = DistanceRecommendation {
            affinity: SetAffinityReport::default(),
            max_distance: bound,
        };
        let d = controlled_distance(requested, &rec);
        match bound {
            Some(b) => {
                assert!(d <= b);
                if requested <= b {
                    assert_eq!(d, requested);
                }
            }
            None => assert_eq!(d, requested),
        }
    });
}
