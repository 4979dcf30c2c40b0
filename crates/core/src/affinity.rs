//! Set Affinity analysis (paper §III.B, Fig. 3) and the prefetch-distance
//! upper bound.
//!
//! **Definition 1 (Set Affinity).** Given a cache set, its Set Affinity
//! is the iteration count of the outer hot loop at which the distinct
//! accessed blocks mapped to that set exceed the set's capacity
//! (associativity).
//!
//! **Definition 2 (Original Set Affinity).** Set Affinity measured from
//! an application running alone (no hardware prefetchers, no helper).
//!
//! **Definition 3 (Set Affinity with Helper Thread).** Set Affinity with
//! helper-thread prefetching applied.
//!
//! The paper's bound (§III.B): once the helper (and hardware prefetchers)
//! are active, `SA_helper * 2 <= SA_original`, so to keep prefetched data
//! from being displaced (or displacing reusable data) before use:
//!
//! ```text
//! prefetch distance < SA_with_helper,  i.e.  distance < SA_original / 2
//! ```
//!
//! with the binding value being the *minimum* Set Affinity over all
//! touched sets.

use crate::engine::HelperSchedule;
use crate::params::SpParams;
use crate::skip::{helper_refs, HelperStep};
use sp_cachesim::CacheGeometry;
use sp_profiler::Burst;
use sp_trace::{HotLoopTrace, MemRef, TraceColumns, TraceSink, VAddr};
use std::collections::{HashMap, HashSet};

/// Per-set outcome of the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SetState {
    distinct_blocks: u32,
    /// Iteration at which the set overflowed, once recorded.
    affinity: Option<u32>,
}

/// Result of a Set Affinity analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SetAffinityReport {
    /// Set index -> Set Affinity (outer-iteration count at overflow), for
    /// every set that overflowed.
    pub per_set: HashMap<u64, u32>,
    /// Number of sets touched at least once.
    pub sets_touched: usize,
}

impl SetAffinityReport {
    /// Smallest Set Affinity over all overflowed sets — the binding value
    /// for the distance bound. `None` if no set ever overflowed (the
    /// loop's footprint fits; any distance is safe).
    pub fn min(&self) -> Option<u32> {
        self.per_set.values().copied().min()
    }

    /// Largest recorded Set Affinity.
    pub fn max(&self) -> Option<u32> {
        self.per_set.values().copied().max()
    }

    /// The paper's range notation `SA(L, Sx)` (Table 2, last column).
    pub fn range(&self) -> Option<(u32, u32)> {
        Some((self.min()?, self.max()?))
    }

    /// Fraction of touched sets that overflowed.
    pub fn overflow_fraction(&self) -> f64 {
        if self.sets_touched == 0 {
            0.0
        } else {
            self.per_set.len() as f64 / self.sets_touched as f64
        }
    }

    /// The paper's prefetch-distance upper limit:
    /// `distance < min(SA_original) / 2`. Returns the largest *allowed*
    /// distance, or `None` if unbounded (no set overflowed).
    pub fn distance_bound(&self) -> Option<u32> {
        self.min().map(|sa| (sa / 2).saturating_sub(1).max(1))
    }

    /// Merge another report (used to combine per-burst analyses): the
    /// per-set affinity keeps the smaller (more conservative) value.
    pub fn merge(&mut self, other: &SetAffinityReport) {
        for (&set, &sa) in &other.per_set {
            self.per_set
                .entry(set)
                .and_modify(|v| *v = (*v).min(sa))
                .or_insert(sa);
        }
        self.sets_touched = self.sets_touched.max(other.sets_touched);
    }
}

/// The Fig. 3 algorithm, fed one reference at a time.
///
/// For each touched set, track the distinct blocks mapped to it; when the
/// count first *exceeds* the set's associativity, record the current
/// outer-iteration count (1-based, "the program executes N iterations")
/// as that set's affinity.
///
/// As a [`TraceSink`] it numbers the iterations itself, so a workload
/// kernel can stream its references straight into the analysis without
/// storing them — the path that paper-scale Table 2 takes through about
/// 2x10^8 references.
#[derive(Debug, Clone)]
pub struct SetAffinityAnalyzer {
    geo: CacheGeometry,
    sets: HashMap<u64, SetState>,
    blocks: HashSet<VAddr>,
    // Outer iteration of the open iteration, when fed as a sink.
    iter: u32,
}

impl SetAffinityAnalyzer {
    /// An analyzer for a cache of geometry `geo` that has seen nothing.
    pub fn new(geo: CacheGeometry) -> Self {
        SetAffinityAnalyzer {
            geo,
            sets: HashMap::new(),
            blocks: HashSet::new(),
            iter: 0,
        }
    }

    /// Account one access to `addr` issued in outer iteration `iter`
    /// (0-based, non-decreasing).
    ///
    /// Once a set has overflowed, no new block there can change the
    /// report, so its blocks stop being tracked: the analyzer holds at
    /// most `sets × (ways + 1)` blocks however long the stream.
    pub fn observe(&mut self, iter: u32, addr: VAddr) {
        let st = self.sets.entry(self.geo.set_of(addr)).or_insert(SetState {
            distinct_blocks: 0,
            affinity: None,
        });
        if st.affinity.is_some() || !self.blocks.insert(self.geo.block_of(addr)) {
            return; // overflowed set, or an already-seen block
        }
        st.distinct_blocks += 1;
        if st.distinct_blocks > self.geo.ways {
            st.affinity = Some(iter + 1); // 1-based iteration count
        }
    }

    /// The analysis of everything observed so far.
    pub fn report(self) -> SetAffinityReport {
        SetAffinityReport {
            sets_touched: self.sets.len(),
            per_set: self
                .sets
                .into_iter()
                .filter_map(|(s, st)| st.affinity.map(|a| (s, a)))
                .collect(),
        }
    }
}

impl TraceSink for SetAffinityAnalyzer {
    fn backbone(&mut self, r: MemRef) {
        self.observe(self.iter, r.vaddr);
    }

    fn inner(&mut self, r: MemRef) {
        self.observe(self.iter, r.vaddr);
    }

    fn end_iter(&mut self, _compute_cycles: u64) {
        self.iter += 1;
    }
}

/// The Fig. 3 analysis of a stored trace's iterations.
fn analyze(iters: &TraceColumns, geo: CacheGeometry) -> SetAffinityReport {
    let mut sa = SetAffinityAnalyzer::new(geo);
    iters.iter().for_each(|it| it.emit(&mut sa));
    sa.report()
}

/// **Original Set Affinity** (Definition 2): the full main-thread stream,
/// no helper, no hardware prefetchers.
///
/// ```
/// use sp_cachesim::CacheGeometry;
/// use sp_core::original_set_affinity;
/// use sp_trace::synth;
///
/// // One new block lands in set 5 per outer iteration of a 4-way cache:
/// // the set overflows (5th distinct block) in iteration 5.
/// let geo = CacheGeometry::new(16 * 1024, 4, 64);
/// let trace = synth::set_hammer(50, 1, 5, geo.sets(), geo.line_size);
/// let report = original_set_affinity(&trace, geo);
/// assert_eq!(report.range(), Some((5, 5)));
/// assert_eq!(report.distance_bound(), Some(1)); // min SA / 2, exclusive
/// ```
pub fn original_set_affinity(trace: &HotLoopTrace, geo: CacheGeometry) -> SetAffinityReport {
    analyze(&trace.iters, geo)
}

/// **Set Affinity with Helper Thread** (Definition 3): the interleaved
/// stream in which, while the main thread executes iteration `i`, the
/// helper (running `A_SKI` iterations ahead) prefetches the inner loads
/// of iteration `i + A_SKI` according to its skip/pre-execute plan.
pub fn helper_set_affinity(
    trace: &HotLoopTrace,
    geo: CacheGeometry,
    params: SpParams,
) -> SetAffinityReport {
    let iters = &trace.iters;
    let n = iters.outer_iters();
    let lead = params.a_ski as usize;
    let mut sa = SetAffinityAnalyzer::new(geo);
    for i in 0..n {
        for r in iters.at(i).refs() {
            sa.observe(i as u32, r.vaddr);
        }
        let helper_iter = i + lead;
        if helper_iter < n && params.step(helper_iter) == HelperStep::Prefetch {
            for r in helper_refs(iters.at(helper_iter).inner()) {
                sa.observe(i as u32, r.vaddr);
            }
        }
    }
    sa.report()
}

/// Estimate Set Affinity from burst samples (the paper's low-overhead
/// profile run, §IV.C). Each burst is analyzed independently with
/// iteration counts relative to the burst start; sets whose affinity
/// exceeds the burst length are not observable within that burst, so the
/// estimate is the merge over all bursts (conservative per set).
pub fn sampled_set_affinity(bursts: &[Burst], geo: CacheGeometry) -> SetAffinityReport {
    let mut report = SetAffinityReport::default();
    for b in bursts {
        report.merge(&analyze(&b.iters, geo));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_trace::synth;

    fn geo() -> CacheGeometry {
        // 64 sets x 4 ways x 64B.
        CacheGeometry::new(16 * 1024, 4, 64)
    }

    /// One new block of set 0 every 10 iterations, over 600 iterations.
    fn slow_trace(g: CacheGeometry) -> HotLoopTrace {
        HotLoopTrace::record("slow", &[], |s| {
            for i in 0..600u64 {
                if i % 10 == 0 {
                    s.inner(MemRef::anon((i / 10) * g.sets() * g.line_size));
                }
                s.end_iter(0);
            }
        })
    }

    #[test]
    fn tracked_blocks_are_bounded_by_sets_times_ways_plus_one() {
        let g = geo();
        let mut a = SetAffinityAnalyzer::new(g);
        // Every seen block kept, as a reference for the report.
        let mut seen = HashSet::new();
        let mut distinct: HashMap<u64, u32> = HashMap::new();
        let mut expected: HashMap<u64, u32> = HashMap::new();
        let mut rng = sp_trace::SmallRng::seed_from_u64(7);
        for iter in 0..2000u32 {
            for _ in 0..50 {
                let addr = rng.gen_range(0..1u64 << 24);
                a.observe(iter, addr);
                if seen.insert(g.block_of(addr)) {
                    let n = distinct.entry(g.set_of(addr)).or_insert(0);
                    *n += 1;
                    if *n == g.ways + 1 {
                        expected.insert(g.set_of(addr), iter + 1);
                    }
                }
            }
        }
        let bound = (g.sets() * (u64::from(g.ways) + 1)) as usize;
        assert!(seen.len() > 10 * bound, "the stream must be long");
        assert!(a.blocks.len() <= bound, "{} blocks tracked", a.blocks.len());
        let r = a.report();
        assert_eq!(r.sets_touched, distinct.len());
        assert_eq!(r.per_set, expected);
    }

    #[test]
    fn set_hammer_has_closed_form_affinity() {
        let g = geo();
        // 1 new block in set 5 per iteration: the 5th distinct block
        // (> 4 ways) arrives in iteration index 4 -> SA = 5 (1-based).
        let t = synth::set_hammer(20, 1, 5, g.sets(), g.line_size);
        let r = original_set_affinity(&t, g);
        assert_eq!(r.per_set.len(), 1);
        assert_eq!(r.per_set[&5], 5);
        assert_eq!(r.min(), Some(5));
        assert_eq!(r.range(), Some((5, 5)));
    }

    #[test]
    fn hammer_rate_scales_affinity_inversely() {
        let g = geo();
        // 2 new blocks per iteration: 5th block arrives in iteration 2
        // (0-based index 2) -> SA = 3.
        let t = synth::set_hammer(20, 2, 9, g.sets(), g.line_size);
        let r = original_set_affinity(&t, g);
        assert_eq!(r.per_set[&9], 3);
    }

    #[test]
    fn repeated_blocks_do_not_advance_affinity() {
        let g = geo();
        // Touch the same 4 blocks of one set forever: never overflows.
        let t = sp_trace::HotLoopTrace::record("t", &[], |s| {
            for _ in 0..100 {
                for b in 0..4u64 {
                    s.inner(MemRef::anon(b * g.sets() * g.line_size));
                }
                s.end_iter(0);
            }
        });
        let r = original_set_affinity(&t, g);
        assert!(r.per_set.is_empty());
        assert_eq!(r.min(), None);
        assert_eq!(r.distance_bound(), None, "footprint fits: unbounded");
        assert_eq!(r.sets_touched, 1);
    }

    #[test]
    fn more_ways_never_decrease_affinity() {
        let small = CacheGeometry::new(16 * 1024, 4, 64);
        let big = CacheGeometry::new(32 * 1024, 8, 64); // same 64 sets, 8 ways
        assert_eq!(small.sets(), big.sets());
        let t = synth::random(400, 8, 0, 1 << 22, 11, 0);
        let rs = original_set_affinity(&t, small);
        let rb = original_set_affinity(&t, big);
        for (set, sa_big) in &rb.per_set {
            let sa_small = rs
                .per_set
                .get(set)
                .expect("overflowed at 8 ways => at 4 ways");
            assert!(sa_small <= sa_big, "set {set}: {sa_small} > {sa_big}");
        }
    }

    #[test]
    fn distance_bound_is_half_min_sa() {
        let g = geo();
        let t = synth::set_hammer(200, 1, 0, g.sets(), g.line_size);
        let r = original_set_affinity(&t, g);
        assert_eq!(r.min(), Some(5));
        // floor(5/2) - 1 = 1 -> max(1) = 1.
        assert_eq!(r.distance_bound(), Some(1));
        // A larger SA gives a proportionally larger bound.
        let t2 = slow_trace(g);
        let r2 = original_set_affinity(&t2, g);
        assert_eq!(
            r2.min(),
            Some(41),
            "5th distinct block at iteration 40 (1-based 41)"
        );
        assert_eq!(r2.distance_bound(), Some(19));
    }

    #[test]
    fn helper_stream_halves_affinity_for_rp_half() {
        let g = geo();
        // Main touches 1 new block of set 0 per iteration; with the
        // helper running distance d ahead at RP 0.5, the combined stream
        // brings in roughly 1.5 new blocks per iteration -> SA drops.
        let t = synth::set_hammer(400, 1, 0, g.sets(), g.line_size);
        let orig = original_set_affinity(&t, g);
        let with_helper = helper_set_affinity(&t, g, SpParams::new(8, 8));
        let (o, h) = (orig.per_set[&0], with_helper.per_set[&0]);
        assert!(h < o, "helper must reduce SA: orig {o}, helper {h}");
        assert!(
            h * 2 <= o + 2,
            "paper's halving bound (±1 rounding): orig {o}, helper {h}"
        );
    }

    #[test]
    fn sampled_estimate_matches_full_for_small_affinity() {
        let g = geo();
        let t = synth::set_hammer(1000, 2, 3, g.sets(), g.line_size);
        let full = original_set_affinity(&t, g);
        let sampler = sp_profiler::BurstSampler::new(50, 150);
        let bursts = sampler.sample(&t);
        let est = sampled_set_affinity(&bursts, g);
        // The hammer is homogeneous: every burst sees the same overflow
        // pace, so the estimate equals the full-stream value.
        assert_eq!(est.per_set[&3], full.per_set[&3]);
    }

    #[test]
    fn sampled_estimate_misses_sets_slower_than_the_burst() {
        let g = geo();
        // SA = 41 > burst length 20: unobservable.
        let t = slow_trace(g);
        let bursts = sp_profiler::BurstSampler::new(20, 20).sample(&t);
        let est = sampled_set_affinity(&bursts, g);
        assert!(
            est.per_set.is_empty(),
            "20-iteration bursts cannot observe SA = 41"
        );
    }

    #[test]
    fn merge_keeps_conservative_minimum() {
        let mut a = SetAffinityReport {
            per_set: [(1u64, 10u32)].into_iter().collect(),
            sets_touched: 4,
        };
        let b = SetAffinityReport {
            per_set: [(1u64, 7u32), (2, 99)].into_iter().collect(),
            sets_touched: 2,
        };
        a.merge(&b);
        assert_eq!(a.per_set[&1], 7);
        assert_eq!(a.per_set[&2], 99);
        assert_eq!(a.sets_touched, 4);
    }

    #[test]
    fn overflow_fraction_bounds() {
        let g = geo();
        let t = synth::set_hammer(100, 1, 0, g.sets(), g.line_size);
        let r = original_set_affinity(&t, g);
        assert!((r.overflow_fraction() - 1.0).abs() < 1e-12);
        let empty = SetAffinityReport::default();
        assert_eq!(empty.overflow_fraction(), 0.0);
    }
}
