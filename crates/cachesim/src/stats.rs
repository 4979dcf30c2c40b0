//! Access entities, hit classification, and simulation statistics.

use crate::clock::Cycle;

/// Who issued a memory request.
///
/// The paper (§III.B) counts "at least six data access entities" once
/// helper-threaded prefetching is enabled: the main thread, the helper
/// thread, two streaming prefetchers and two DPL prefetchers (one pair
/// per core). This enum is that taxonomy plus the two extension
/// backends ([`crate::config::HwBackend`]): per-core pointer-chase and
/// perceptron-gated prefetchers. At most one backend's entities appear
/// in any single run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Entity {
    /// The main computation thread.
    Main,
    /// The helper (prefetching) thread.
    Helper,
    /// The hardware streaming prefetcher of the given core.
    HwStream(u8),
    /// The hardware DPL (stride) prefetcher of the given core.
    HwDpl(u8),
    /// The pointer-chase (content-directed) prefetcher of the given core.
    HwPchase(u8),
    /// The perceptron-gated stride prefetcher of the given core.
    HwPerceptron(u8),
}

impl Entity {
    /// `true` for every entity that brings data in *speculatively*
    /// (helper-thread software prefetches and hardware prefetchers).
    pub fn is_prefetcher(self) -> bool {
        !matches!(self, Entity::Main)
    }

    /// `true` for the hardware prefetchers.
    pub fn is_hw(self) -> bool {
        matches!(
            self,
            Entity::HwStream(_) | Entity::HwDpl(_) | Entity::HwPchase(_) | Entity::HwPerceptron(_)
        )
    }
}

/// Classification of one L2-reaching demand access, matching the paper's
/// measurement notation (§V.B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitClass {
    /// Satisfied by the private L1 (never reaches the L2; not part of the
    /// paper's L2 counters but reported for completeness).
    L1Hit,
    /// "Totally cache hit": the demanded data is held in the L2.
    TotalHit,
    /// "Partially cache hit": the demanded data arrives in cache after its
    /// memory request was issued but before it is serviced (MSHR hit on an
    /// in-flight fill) — a *late* prefetch that still hides part of the
    /// latency.
    PartialHit,
    /// "Totally cache miss": the access pays the full memory latency.
    TotalMiss,
}

/// Counters for one thread's demand accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Demand accesses satisfied in the private L1.
    pub l1_hits: u64,
    /// Totally L2 cache hits.
    pub total_hits: u64,
    /// Partially L2 cache hits (in-flight MSHR hits).
    pub partial_hits: u64,
    /// Totally L2 cache misses.
    pub total_misses: u64,
    /// Cycles this thread spent stalled on memory.
    pub stall_cycles: Cycle,
}

impl ThreadStats {
    /// Demand accesses that reached the L2 (did not hit in L1).
    pub fn l2_accesses(&self) -> u64 {
        self.total_hits + self.partial_hits + self.total_misses
    }

    /// The paper's "memory accesses": demand accesses the L2 could not
    /// satisfy at issue time (totally misses + partially hits).
    pub fn memory_accesses(&self) -> u64 {
        self.total_misses + self.partial_hits
    }

    /// All demand accesses, including L1 hits.
    pub fn demand_accesses(&self) -> u64 {
        self.l1_hits + self.l2_accesses()
    }
}

/// The paper's three cache-pollution displacement cases (§II.C), counted
/// at the shared L2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollutionStats {
    /// Case 1: a prefetched block displaced data that the main thread
    /// later re-missed on (detected lazily at the re-miss).
    pub reuse_evictions: u64,
    /// Case 2: a prefetched block displaced a helper-prefetched block
    /// that had not yet been used.
    pub unused_helper_evictions: u64,
    /// Case 3: a prefetched block displaced a hardware-prefetched block
    /// that had not yet been used.
    pub unused_hw_evictions: u64,
    /// Prefetched lines evicted without ever being demanded (wasted
    /// bandwidth, regardless of who evicted them).
    pub dead_prefetches: u64,
}

impl PollutionStats {
    /// Total pollution events across the three cases.
    pub fn total(&self) -> u64 {
        self.reuse_evictions + self.unused_helper_evictions + self.unused_hw_evictions
    }
}

/// Full simulation statistics for a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemStats {
    /// Main-thread demand counters.
    pub main: ThreadStats,
    /// Helper-thread demand counters (its loads, not its prefetches).
    pub helper: ThreadStats,
    /// Prefetches issued, per entity class:
    /// `[helper, stream, dpl, pchase, perceptron]`.
    pub prefetches_issued: [u64; 5],
    /// Prefetched L2 lines that were later demanded (useful prefetches),
    /// per entity class: `[helper, stream, dpl, pchase, perceptron]`.
    pub prefetches_useful: [u64; 5],
    /// L2 fills performed (demand + prefetch).
    pub l2_fills: u64,
    /// L2 fills broken down by filler:
    /// `[main, helper, stream, dpl, pchase, perceptron]`.
    pub l2_fills_by: [u64; 6],
    /// L2 evictions of valid lines.
    pub l2_evictions: u64,
    /// Dirty L2 lines written back to memory (each occupies the bus).
    pub writebacks: u64,
    /// Dirty L1 victims whose block was no longer in the L2
    /// (non-inclusive hierarchy): written back directly to memory.
    pub l1_writeback_misses: u64,
    /// Pollution accounting.
    pub pollution: PollutionStats,
    /// Cycles the shared bus spent busy.
    pub bus_busy_cycles: Cycle,
    /// Requests that found the bus busy and queued.
    pub bus_queued: u64,
}

/// The counters a window needs that [`MemStats`] does not keep. The
/// memory system counts them only for a sink that opts into snapshots
/// ([`crate::events::EventSink::SNAPSHOTS`]), at the program points
/// where it emits the matching events, and shows them with its
/// `MemStats` in every [`crate::events::Snapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotCounters {
    /// Speculative L2 fills, by class
    /// `[helper, stream, dpl, pchase, perceptron]`.
    pub filled: [u64; 5],
    /// Never-used prefetches evicted, by class (they sum to
    /// [`PollutionStats::dead_prefetches`]).
    pub evicted_unused: [u64; 5],
    /// Useful prefetches first used while their fill was in flight.
    pub late: u64,
    /// Useful prefetches whose line idled in the L2 longer than the
    /// sink's early threshold before its first use.
    pub early: u64,
    /// L2 fills by set (sized to the L2 on the first fill).
    pub fills_by_set: Vec<u64>,
    /// MSHR occupancy summed over every completed demand access.
    pub mshr_sum: u64,
    /// Highest MSHR occupancy at a completed demand access since the
    /// previous snapshot: a high-water mark, not a running count, so the
    /// memory system clears it after each snapshot it hands out.
    pub mshr_peak: u64,
}

impl SnapshotCounters {
    /// Zero every counter, keeping the per-set allocation.
    pub(crate) fn reset(&mut self) {
        let mut sets = std::mem::take(&mut self.fills_by_set);
        sets.fill(0);
        *self = SnapshotCounters {
            fills_by_set: sets,
            ..SnapshotCounters::default()
        };
    }
}

/// Index into the per-entity prefetch arrays of [`MemStats`].
pub fn prefetch_class(e: Entity) -> Option<usize> {
    match e {
        Entity::Main => None,
        Entity::Helper => Some(0),
        Entity::HwStream(_) => Some(1),
        Entity::HwDpl(_) => Some(2),
        Entity::HwPchase(_) => Some(3),
        Entity::HwPerceptron(_) => Some(4),
    }
}

impl MemStats {
    /// Useful-prefetch ratio for an entity class (0.0 if none issued).
    pub fn prefetch_accuracy(&self, class: usize) -> f64 {
        if self.prefetches_issued[class] == 0 {
            0.0
        } else {
            self.prefetches_useful[class] as f64 / self.prefetches_issued[class] as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_taxonomy() {
        assert!(!Entity::Main.is_prefetcher());
        assert!(Entity::Helper.is_prefetcher());
        assert!(Entity::HwStream(0).is_prefetcher());
        assert!(Entity::HwDpl(1).is_hw());
        assert!(Entity::HwPchase(0).is_hw());
        assert!(Entity::HwPerceptron(1).is_hw());
        assert!(!Entity::Helper.is_hw());
    }

    #[test]
    fn thread_stats_sums() {
        let s = ThreadStats {
            l1_hits: 10,
            total_hits: 5,
            partial_hits: 3,
            total_misses: 2,
            stall_cycles: 0,
        };
        assert_eq!(s.l2_accesses(), 10);
        assert_eq!(s.memory_accesses(), 5);
        assert_eq!(s.demand_accesses(), 20);
    }

    #[test]
    fn pollution_total_sums_three_cases() {
        let p = PollutionStats {
            reuse_evictions: 1,
            unused_helper_evictions: 2,
            unused_hw_evictions: 3,
            dead_prefetches: 99,
        };
        assert_eq!(p.total(), 6);
    }

    #[test]
    fn prefetch_class_mapping() {
        assert_eq!(prefetch_class(Entity::Main), None);
        assert_eq!(prefetch_class(Entity::Helper), Some(0));
        assert_eq!(prefetch_class(Entity::HwStream(1)), Some(1));
        assert_eq!(prefetch_class(Entity::HwDpl(0)), Some(2));
        assert_eq!(prefetch_class(Entity::HwPchase(1)), Some(3));
        assert_eq!(prefetch_class(Entity::HwPerceptron(0)), Some(4));
    }

    #[test]
    fn prefetch_accuracy_handles_zero() {
        let mut m = MemStats::default();
        assert_eq!(m.prefetch_accuracy(0), 0.0);
        m.prefetches_issued[0] = 4;
        m.prefetches_useful[0] = 1;
        assert!((m.prefetch_accuracy(0) - 0.25).abs() < 1e-12);
    }
}
