//! Pollution metrics and the paper's access-behaviour deltas.
//!
//! Figures 4(a), 5(a), 6(a) plot the *change of access behaviour*: the
//! difference in totally hits / totally misses / partially hits between
//! the SP run and the original run, **normalized to the original run's
//! memory accesses** (paper §V.B: "The results ... are normalized to the
//! memory accesses of the original programs"), in percent.

use crate::engine::RunResult;
use sp_cachesim::PollutionStats;

/// The paper's behaviour-change triple for one SP configuration, in
/// percent of the original run's memory accesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehaviorChange {
    /// Δ totally L2 cache hits (positive = SP gained hits).
    pub totally_hit_pct: f64,
    /// Δ totally L2 cache misses (negative = SP eliminated misses).
    pub totally_miss_pct: f64,
    /// Δ partially L2 cache hits.
    pub partially_hit_pct: f64,
}

impl BehaviorChange {
    /// Compute the deltas between an SP run and the original run of the
    /// same trace.
    ///
    /// # Panics
    /// If the original run has no memory accesses (nothing to normalize
    /// by — the paper's metric is undefined there).
    pub fn between(orig: &RunResult, sp: &RunResult) -> Self {
        let base = orig.stats.main.memory_accesses();
        assert!(base > 0, "original run must have memory accesses");
        let base = base as f64;
        let d = |a: u64, b: u64| (b as f64 - a as f64) / base * 100.0;
        BehaviorChange {
            totally_hit_pct: d(orig.stats.main.total_hits, sp.stats.main.total_hits),
            totally_miss_pct: d(orig.stats.main.total_misses, sp.stats.main.total_misses),
            partially_hit_pct: d(orig.stats.main.partial_hits, sp.stats.main.partial_hits),
        }
    }

    /// `true` when SP traded misses for hits (its success criterion:
    /// "decrease totally cache misses and increase cache hits").
    pub fn is_improvement(&self) -> bool {
        self.totally_miss_pct < 0.0 && (self.totally_hit_pct > 0.0 || self.partially_hit_pct > 0.0)
    }
}

/// Pollution summary for a run, with rates relative to L2 fills.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PollutionSummary {
    /// Raw counters.
    pub stats: PollutionStats,
    /// Pollution events per L2 fill.
    pub per_fill: f64,
    /// Never-used prefetched lines per issued prefetch (all entities).
    pub dead_prefetch_rate: f64,
}

impl PollutionSummary {
    /// Derive the summary from a run.
    pub fn from_run(run: &RunResult) -> Self {
        let fills = run.stats.l2_fills.max(1) as f64;
        let issued: u64 = run.stats.prefetches_issued.iter().sum();
        PollutionSummary {
            stats: run.stats.pollution,
            per_fill: run.stats.pollution.total() as f64 / fills,
            dead_prefetch_rate: if issued == 0 {
                0.0
            } else {
                run.stats.pollution.dead_prefetches as f64 / issued as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{cfg, original, sp};
    use crate::params::SpParams;
    use sp_trace::synth;

    #[test]
    fn behaviour_change_zero_against_itself() {
        let t = synth::sequential(500, 2, 0, 64, 0);
        let orig = original(&t, cfg());
        let b = BehaviorChange::between(&orig, &orig);
        assert_eq!(b.totally_hit_pct, 0.0);
        assert_eq!(b.totally_miss_pct, 0.0);
        assert_eq!(b.partially_hit_pct, 0.0);
        assert!(!b.is_improvement());
    }

    #[test]
    fn sp_on_streaming_trace_is_an_improvement() {
        let t = synth::sequential(2000, 2, 0, 64, 0);
        let orig = original(&t, cfg());
        let sp = sp(&t, cfg(), SpParams::new(8, 8));
        let b = BehaviorChange::between(&orig, &sp);
        assert!(b.is_improvement(), "{b:?}");
        assert!(b.totally_miss_pct < 0.0);
    }

    #[test]
    fn deltas_are_percentages_of_original_memory_accesses() {
        let t = synth::sequential(1000, 1, 0, 64, 0);
        let orig = original(&t, cfg());
        let sp = sp(&t, cfg(), SpParams::new(4, 4));
        let b = BehaviorChange::between(&orig, &sp);
        let base = orig.stats.main.memory_accesses() as f64;
        let expect = (sp.stats.main.total_misses as f64 - orig.stats.main.total_misses as f64)
            / base
            * 100.0;
        assert!((b.totally_miss_pct - expect).abs() < 1e-9);
    }

    #[test]
    fn pollution_summary_rates_are_bounded() {
        let t = synth::sequential(1000, 2, 0, 64, 0);
        let sp = sp(&t, cfg(), SpParams::new(16, 16));
        let p = PollutionSummary::from_run(&sp);
        assert!(p.per_fill >= 0.0);
        assert!((0.0..=1.0).contains(&p.dead_prefetch_rate));
    }

    #[test]
    fn no_prefetches_means_zero_dead_rate() {
        let t = synth::sequential(100, 1, 0, 64, 0);
        let orig = original(&t, cfg());
        let p = PollutionSummary::from_run(&orig);
        assert_eq!(p.dead_prefetch_rate, 0.0);
        assert_eq!(p.stats.total(), 0);
    }
}
