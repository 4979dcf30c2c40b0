//! The SP transformation: main-thread hot loop -> helper-thread schedule.
//!
//! Paper Fig. 1(b): per round the helper executes `A_SKI` iterations of
//! the outer loop *omitting the inner loops* (it still chases the
//! backbone pointer — `node_index = node_index->next` — because the list
//! cannot be advanced otherwise), then pre-executes `A_PRE` full
//! iterations whose inner-loop loads become prefetches.

use crate::engine::HelperSchedule;
use crate::params::SpParams;
use sp_trace::{HotLoopTrace, MemRef};

/// What the helper thread does with one outer-loop iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperStep {
    /// Skip: execute only the backbone (advance the pointer chase).
    Chase,
    /// Pre-execute: backbone plus inner-loop loads issued as prefetches.
    Prefetch,
}

/// The helper's per-iteration schedule for a hot loop of `n_iters`
/// outer iterations.
pub fn plan(params: SpParams, n_iters: usize) -> Vec<HelperStep> {
    (0..n_iters).map(|i| params.step(i)).collect()
}

/// The prefetch references the helper issues for one pre-executed
/// iteration: every *load* of the inner loop, converted to a prefetch
/// (the helper "executes only the load's computation" — stores and
/// non-loads are dropped).
pub fn helper_refs(iter_inner: impl Iterator<Item = MemRef>) -> impl Iterator<Item = MemRef> {
    iter_inner
        .filter(|r| r.kind.helper_visible())
        .map(MemRef::as_prefetch)
}

/// Summary of an SP plan over a concrete trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSummary {
    /// Outer iterations whose inner loops the helper covers.
    pub covered_iters: usize,
    /// Outer iterations the helper merely chases through.
    pub skipped_iters: usize,
    /// Inner-loop loads converted to prefetches, total.
    pub prefetch_refs: usize,
    /// Achieved coverage ratio (covered / total) — converges to `RP`.
    pub coverage: f64,
}

/// Summarize what `params` would make the helper do on `trace`.
pub fn summarize(params: SpParams, trace: &HotLoopTrace) -> PlanSummary {
    let mut covered = 0usize;
    let mut prefetch_refs = 0usize;
    for it in trace.iters.iter() {
        if params.step(it.index()) == HelperStep::Prefetch {
            covered += 1;
            prefetch_refs += helper_refs(it.inner()).count();
        }
    }
    let n = trace.outer_iters().max(1);
    PlanSummary {
        covered_iters: covered,
        skipped_iters: trace.outer_iters() - covered,
        prefetch_refs,
        coverage: covered as f64 / n as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_trace::{AccessKind, SiteId, TraceSink};

    #[test]
    fn round_structure_is_skip_then_prefetch() {
        let p = SpParams::new(2, 3);
        let steps = plan(p, 12);
        use HelperStep::*;
        assert_eq!(
            steps,
            vec![
                Chase, Chase, Prefetch, Prefetch, Prefetch, Chase, Chase, Prefetch, Prefetch,
                Prefetch, Chase, Chase
            ]
        );
    }

    #[test]
    fn conventional_prefetches_everything() {
        let steps = plan(SpParams::conventional(), 7);
        assert!(steps.iter().all(|s| *s == HelperStep::Prefetch));
    }

    #[test]
    fn coverage_converges_to_rp() {
        let p = SpParams::new(5, 5);
        let t = HotLoopTrace::record("t", &[], |s| {
            for i in 0..1000u64 {
                s.backbone(MemRef::load(i * 64, SiteId(0)));
                s.inner(MemRef::load(i * 64 + 8, SiteId(1)));
                s.end_iter(0);
            }
        });
        let s = summarize(p, &t);
        assert!(
            (s.coverage - p.rp()).abs() < 0.01,
            "coverage {}",
            s.coverage
        );
        assert_eq!(s.covered_iters + s.skipped_iters, 1000);
        assert_eq!(s.prefetch_refs, s.covered_iters);
    }

    #[test]
    fn helper_refs_drop_stores_and_convert_loads() {
        let inner = vec![
            MemRef::load(0, SiteId(1)),
            MemRef::store(64, SiteId(2)),
            MemRef::load(128, SiteId(3)),
        ];
        let out: Vec<MemRef> = helper_refs(inner.into_iter()).collect();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|r| r.kind == AccessKind::Prefetch));
        assert_eq!(out[0].vaddr, 0);
        assert_eq!(out[1].vaddr, 128);
    }

    #[test]
    fn plan_length_matches_trace() {
        assert_eq!(plan(SpParams::new(3, 1), 10).len(), 10);
        assert!(plan(SpParams::new(3, 1), 0).is_empty());
    }

    #[test]
    fn partial_final_round_is_well_formed() {
        let steps = plan(SpParams::new(4, 4), 10);
        // Final (partial) round: 2 chase steps.
        assert_eq!(steps[8..], [HelperStep::Chase, HelperStep::Chase]);
    }
}
