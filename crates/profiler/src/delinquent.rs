//! Delinquent-load identification.
//!
//! Helper-threaded prefetching targets the few static loads that cause
//! most last-level misses (the paper's Fig. 1 marks them `/* delinquent
//! load */`). This module replays a hot-loop trace through a standalone
//! L2 model (no prefetchers, no helper — the "original" configuration)
//! and ranks the reference sites by the misses they cause.

use sp_cachesim::{CacheGeometry, Entity, Policy, SetAssocCache};
use sp_trace::{HotLoopTrace, SiteId};
use std::collections::HashMap;

/// Per-site miss profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteMissStats {
    /// The static reference site.
    pub site: SiteId,
    /// References issued by the site.
    pub refs: u64,
    /// L2 misses caused by the site.
    pub misses: u64,
}

impl SiteMissStats {
    /// Miss rate of this site.
    pub fn miss_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.misses as f64 / self.refs as f64
        }
    }
}

/// Replay `trace` through an L2 of the given geometry and rank sites by
/// miss count, descending (ties broken by site id for determinism).
pub fn rank_delinquent_loads(
    trace: &HotLoopTrace,
    l2: CacheGeometry,
    policy: Policy,
) -> Vec<SiteMissStats> {
    let mut cache = SetAssocCache::new(l2, policy);
    let mut per_site: HashMap<SiteId, (u64, u64)> = HashMap::new();
    for (_, r) in trace.tagged_refs() {
        let e = per_site.entry(r.site).or_insert((0, 0));
        e.0 += 1;
        if cache.demand_touch(r.vaddr, false).is_none() {
            e.1 += 1;
            cache.fill(r.vaddr, Entity::Main, false);
        }
    }
    let mut out: Vec<SiteMissStats> = per_site
        .into_iter()
        .map(|(site, (refs, misses))| SiteMissStats { site, refs, misses })
        .collect();
    out.sort_by(|a, b| b.misses.cmp(&a.misses).then(a.site.cmp(&b.site)));
    out
}

/// The sites that together account for at least `coverage` (0..=1) of all
/// misses — the set the helper thread should prefetch.
pub fn delinquent_sites(ranked: &[SiteMissStats], coverage: f64) -> Vec<SiteId> {
    let total: u64 = ranked.iter().map(|s| s.misses).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut acc = 0u64;
    let mut out = Vec::new();
    for s in ranked {
        if s.misses == 0 {
            break;
        }
        out.push(s.site);
        acc += s.misses;
        if acc as f64 / total as f64 >= coverage {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_trace::TraceSink;
    use sp_workloads::{Em3d, Em3dConfig};

    fn small_l2() -> CacheGeometry {
        CacheGeometry::new(8 * 1024, 4, 64)
    }

    #[test]
    fn em3d_delinquent_load_is_the_remote_node_dereference() {
        let g = Em3d::build(Em3dConfig::tiny());
        let ranked = rank_delinquent_loads(&g.trace(), small_l2(), Policy::Lru);
        // The irregular remote dereference must out-miss the sequential
        // array walks (the paper's delinquent loads are exactly these).
        let top = ranked[0];
        assert_eq!(top.site, sp_workloads::em3d::sites::OTHER_VALUE);
        assert!(top.misses > 0);
    }

    #[test]
    fn miss_counts_never_exceed_ref_counts() {
        let g = Em3d::build(Em3dConfig::tiny());
        let ranked = rank_delinquent_loads(&g.trace(), small_l2(), Policy::Lru);
        for s in &ranked {
            assert!(s.misses <= s.refs, "{:?}", s);
            assert!(s.miss_rate() <= 1.0);
        }
    }

    #[test]
    fn every_site_appears_exactly_once() {
        let g = Em3d::build(Em3dConfig::tiny());
        let t = g.trace();
        let ranked = rank_delinquent_loads(&t, small_l2(), Policy::Lru);
        let mut sites: Vec<u32> = ranked.iter().map(|s| s.site.0).collect();
        sites.sort_unstable();
        sites.dedup();
        assert_eq!(sites.len(), ranked.len());
        // Total refs across sites equals the trace's refs.
        let total: u64 = ranked.iter().map(|s| s.refs).sum();
        assert_eq!(total, t.total_refs() as u64);
    }

    #[test]
    fn coverage_selection_is_prefix_of_ranking() {
        let g = Em3d::build(Em3dConfig::tiny());
        let ranked = rank_delinquent_loads(&g.trace(), small_l2(), Policy::Lru);
        let chosen = delinquent_sites(&ranked, 0.8);
        assert!(!chosen.is_empty());
        for (i, s) in chosen.iter().enumerate() {
            assert_eq!(*s, ranked[i].site);
        }
        // Full coverage includes every missing site.
        let all = delinquent_sites(&ranked, 1.0);
        assert!(all.len() >= chosen.len());
        assert!(all.len() <= ranked.len());
    }

    #[test]
    fn miss_free_trace_selects_nothing() {
        // One block re-touched forever: after the cold miss the trace has
        // one missing site; coverage of it is total. Use a huge cache and
        // a single ref to get a ranking with a single cold miss.
        let t = sp_trace::synth::sequential(1, 1, 0, 64, 0);
        let ranked = rank_delinquent_loads(&t, small_l2(), Policy::Lru);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].misses, 1);
        // Re-touching trace: all hits after warmup.
        let t2 = sp_trace::HotLoopTrace::record("hits", &[], |s| {
            for _ in 0..10 {
                s.iteration(&[], &[sp_trace::MemRef::anon(0)], 0);
            }
        });
        let ranked2 = rank_delinquent_loads(&t2, small_l2(), Policy::Lru);
        assert_eq!(ranked2[0].misses, 1, "only the cold miss");
    }
}
