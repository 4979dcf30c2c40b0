//! Benchmark selection by L2-miss cycle share (paper §IV.B).
//!
//! *"To decide the benchmarks used in our experiments, we first run
//! entire SPEC2006 and Olden suite on VTune and collect the L2 cache miss
//! profiles. Then we select those applications that have significant
//! number of cycles attributed to the L2 cache misses."*
//!
//! This module replays a candidate's hot-loop trace through the
//! single-core hierarchy model, attributes every cycle to computation,
//! L1/L2 hits, or L2-miss stalls, and selects candidates whose L2-miss
//! share clears a threshold.

use sp_cachesim::{CacheConfig, Entity, LatencyConfig, SetAssocCache};
use sp_trace::HotLoopTrace;

/// Cycle attribution of one candidate's hot loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissCycleProfile {
    /// Pure-computation cycles.
    pub compute_cycles: u64,
    /// Cycles in L1 hits.
    pub l1_cycles: u64,
    /// Cycles in L2 hits.
    pub l2_hit_cycles: u64,
    /// Cycles stalled on L2 misses.
    pub miss_cycles: u64,
}

impl MissCycleProfile {
    /// Total attributed cycles.
    pub fn total(&self) -> u64 {
        self.compute_cycles + self.l1_cycles + self.l2_hit_cycles + self.miss_cycles
    }

    /// Fraction of cycles attributed to L2 misses — the paper's
    /// selection criterion.
    pub fn miss_share(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.miss_cycles as f64 / t as f64
        }
    }
}

/// Replay `trace` through the (original, single-core) hierarchy model
/// and attribute cycles.
pub fn miss_cycle_profile(trace: &HotLoopTrace, cfg: &CacheConfig) -> MissCycleProfile {
    let lat: LatencyConfig = cfg.latency;
    let mut l1 = SetAssocCache::new(cfg.l1, sp_cachesim::Policy::Lru);
    let mut l2 = SetAssocCache::new(cfg.l2, cfg.policy);
    let mut p = MissCycleProfile {
        compute_cycles: 0,
        l1_cycles: 0,
        l2_hit_cycles: 0,
        miss_cycles: 0,
    };
    for it in trace.iters.iter() {
        p.compute_cycles += it.compute_cycles();
        for r in it.refs() {
            let store = r.kind == sp_trace::AccessKind::Store;
            if l1.demand_touch(r.vaddr, store).is_some() {
                p.l1_cycles += lat.l1_hit;
            } else if l2.demand_touch(r.vaddr, store).is_some() {
                l1.fill(r.vaddr, Entity::Main, false);
                p.l2_hit_cycles += lat.l2_total();
            } else {
                l2.fill(r.vaddr, Entity::Main, false);
                l1.fill(r.vaddr, Entity::Main, false);
                p.miss_cycles += lat.full_miss();
            }
        }
    }
    p
}

/// One candidate's screening verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRow {
    /// Candidate name.
    pub name: String,
    /// Its cycle attribution.
    pub profile: MissCycleProfile,
    /// Whether it clears the threshold.
    pub selected: bool,
}

/// Screen `candidates` (name, trace) at `threshold` L2-miss cycle share.
/// Rows are returned sorted by miss share, descending.
pub fn select_benchmarks(
    candidates: &[(String, HotLoopTrace)],
    cfg: &CacheConfig,
    threshold: f64,
) -> Vec<SelectionRow> {
    let mut rows: Vec<SelectionRow> = candidates
        .iter()
        .map(|(name, trace)| {
            let profile = miss_cycle_profile(trace, cfg);
            SelectionRow {
                name: name.clone(),
                selected: profile.miss_share() >= threshold,
                profile,
            }
        })
        .collect();
    rows.sort_by(|a, b| b.profile.miss_share().total_cmp(&a.profile.miss_share()));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_cachesim::CacheGeometry;
    use sp_trace::synth;
    use sp_trace::TraceSink;

    fn cfg() -> CacheConfig {
        CacheConfig {
            l1: CacheGeometry::new(1024, 4, 64),
            l2: CacheGeometry::new(16 * 1024, 8, 64),
            ..CacheConfig::scaled_default()
        }
    }

    #[test]
    fn streaming_loop_is_miss_dominated() {
        let t = synth::sequential(500, 4, 0, 64, 1);
        let p = miss_cycle_profile(&t, &cfg());
        assert!(p.miss_share() > 0.9, "share {}", p.miss_share());
        assert_eq!(
            p.total(),
            p.compute_cycles + p.l1_cycles + p.l2_hit_cycles + p.miss_cycles
        );
    }

    #[test]
    fn compute_loop_is_not_miss_dominated() {
        // One resident block, heavy compute.
        let t = sp_trace::HotLoopTrace::record("hot", &[], |s| {
            for _ in 0..200 {
                s.iteration(&[], &[sp_trace::MemRef::anon(0)], 500);
            }
        });
        let p = miss_cycle_profile(&t, &cfg());
        assert!(p.miss_share() < 0.01, "share {}", p.miss_share());
    }

    #[test]
    fn selection_sorts_and_thresholds() {
        let mem_bound = synth::sequential(300, 4, 0, 64, 1);
        let cpu_bound = sp_trace::HotLoopTrace::record("cpu", &[], |s| {
            for _ in 0..100 {
                s.iteration(&[], &[sp_trace::MemRef::anon(0)], 1000);
            }
        });
        let rows = select_benchmarks(
            &[("cpu".into(), cpu_bound), ("mem".into(), mem_bound)],
            &cfg(),
            0.3,
        );
        assert_eq!(rows[0].name, "mem");
        assert!(rows[0].selected);
        assert!(!rows[1].selected);
    }

    #[test]
    fn empty_trace_has_zero_share() {
        let t = sp_trace::HotLoopTrace::default();
        let p = miss_cycle_profile(&t, &cfg());
        assert_eq!(p.miss_share(), 0.0);
        assert_eq!(p.total(), 0);
    }
}
