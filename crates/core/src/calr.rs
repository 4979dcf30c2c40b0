//! CALR (Computation/Access-Latency Ratio) estimation and the RP rule.
//!
//! The paper (§II.A–B): `CALR` is "the ratio of cycles for computation
//! over cycles for data accesses in hot loop", and drives the prefetch
//! ratio: *"for our targeted applications with CALR close to 0, we have
//! RP = 0.5 (A_SKI = A_PRE) ... for applications with CALR higher than 1,
//! RP = 1 (A_SKI = 0)"*.

use crate::params::SpParams;
use sp_cachesim::CacheConfig;
use sp_profiler::selection::miss_cycle_profile;
use sp_trace::HotLoopTrace;

/// Result of a CALR profile run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalrProfile {
    /// Total pure-computation cycles in the hot loop.
    pub compute_cycles: u64,
    /// Total data-access cycles (unloaded latencies, from a single-core
    /// replay with no prefetching — the paper's original profile run).
    pub access_cycles: u64,
    /// The ratio `compute_cycles / access_cycles`.
    pub calr: f64,
}

/// Estimate the loop's CALR from the same private-L1 + L2 replay (no
/// prefetchers, no helper) that screens benchmarks: its compute cycles
/// over the sum of its three access-cycle buckets.
pub fn estimate_calr(trace: &HotLoopTrace, cfg: &CacheConfig) -> CalrProfile {
    let p = miss_cycle_profile(trace, cfg);
    let access_cycles = p.l1_cycles + p.l2_hit_cycles + p.miss_cycles;
    let calr = if access_cycles == 0 {
        f64::INFINITY
    } else {
        p.compute_cycles as f64 / access_cycles as f64
    };
    CalrProfile {
        compute_cycles: p.compute_cycles,
        access_cycles,
        calr,
    }
}

/// The paper's RP selection rule, with linear interpolation between the
/// two published anchor points (`CALR -> 0 => RP = 0.5`,
/// `CALR >= 1 => RP = 1`); the paper only states the endpoints.
pub fn select_rp(calr: f64) -> f64 {
    if calr <= 0.0 {
        0.5
    } else if calr >= 1.0 {
        1.0
    } else {
        0.5 + 0.5 * calr
    }
}

/// Full parameter selection: RP from CALR, then `(A_SKI, A_PRE)` from the
/// chosen prefetch distance. With `RP = 1` the distance collapses to 0
/// (conventional helper prefetching), matching the paper.
pub fn select_params(calr: f64, distance: u32) -> SpParams {
    let rp = select_rp(calr);
    if (rp - 1.0).abs() < 1e-12 {
        SpParams::conventional()
    } else {
        SpParams::from_distance_rp(distance, rp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cachesim::{CacheGeometry, Policy};
    use sp_trace::synth;
    use sp_trace::TraceSink;

    fn cfg() -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry::new(1024, 2, 64),
            l2: CacheGeometry::new(8192, 4, 64),
            policy: Policy::Lru,
            ..CacheConfig::scaled_default()
        }
    }

    #[test]
    fn pure_streaming_loop_has_low_calr() {
        let t = synth::sequential(256, 8, 0, 64, /*compute*/ 1);
        let p = estimate_calr(&t, &cfg());
        assert!(p.calr < 0.1, "calr = {}", p.calr);
        assert_eq!(p.compute_cycles, 256);
        assert!(p.access_cycles > 0);
    }

    #[test]
    fn compute_heavy_loop_has_high_calr() {
        // One L1-resident block, huge compute per iteration.
        let t = sp_trace::HotLoopTrace::record("hot", &[], |s| {
            for _ in 0..100 {
                s.iteration(&[], &[sp_trace::MemRef::anon(0)], 1000);
            }
        });
        let p = estimate_calr(&t, &cfg());
        assert!(p.calr > 100.0, "calr = {}", p.calr);
    }

    #[test]
    fn empty_access_stream_gives_infinite_calr() {
        let t = sp_trace::HotLoopTrace::record("noaccess", &[], |s| s.end_iter(10));
        let p = estimate_calr(&t, &cfg());
        assert!(p.calr.is_infinite());
    }

    #[test]
    fn rp_rule_matches_paper_endpoints() {
        assert_eq!(select_rp(0.0), 0.5);
        assert_eq!(select_rp(-1.0), 0.5);
        assert_eq!(select_rp(1.0), 1.0);
        assert_eq!(select_rp(5.0), 1.0);
        let mid = select_rp(0.5);
        assert!(mid > 0.5 && mid < 1.0);
    }

    #[test]
    fn select_params_low_calr_is_balanced() {
        let p = select_params(0.0, 8);
        assert_eq!((p.a_ski, p.a_pre), (8, 8));
    }

    #[test]
    fn select_params_high_calr_is_conventional() {
        let p = select_params(2.0, 8);
        assert_eq!(p, SpParams::conventional());
    }

    #[test]
    fn calr_is_deterministic() {
        let t = synth::random(200, 4, 0, 1 << 20, 5, 3);
        let a = estimate_calr(&t, &cfg());
        let b = estimate_calr(&t, &cfg());
        assert_eq!(a, b);
    }
}
