//! Hardware prefetcher models.
//!
//! The Core 2 the paper ran on has, per core, a **streaming prefetcher**
//! (sequential/adjacent-line) and a **DPL** (Data Prefetch Logic,
//! IP-indexed stride) prefetcher; the paper counts them among the six
//! access entities that share the L2 (§III.B). Two further backends
//! extend the study beyond the Core 2 pair: a **pointer-chase**
//! (content-directed) prefetcher for linked data structures and a
//! **perceptron-gated** stride prefetcher that learns where issuing
//! pays off. All models observe the demand-access stream of their core
//! and emit candidate block addresses; the
//! [`MemorySystem`](crate::MemorySystem) turns candidates into L2
//! fills attributed to the matching [`Entity`](crate::Entity) variant.
//! Which backend a simulation runs is selected by
//! [`HwBackend`](crate::config::HwBackend).

pub mod dpl;
pub mod pchase;
pub mod perceptron;
pub mod streamer;

pub use dpl::DplPrefetcher;
pub use pchase::PointerChasePrefetcher;
pub use perceptron::PerceptronPrefetcher;
pub use streamer::StreamPrefetcher;

use crate::replacement::Recency;
use sp_trace::{SiteId, VAddr};

/// A hardware prefetcher observing one core's demand accesses.
pub trait HwPrefetcher {
    /// Observe a demand access (`site`, block-aligned `block`), appending
    /// block addresses to prefetch (possibly none) to `out`. Taking the
    /// candidate buffer from the caller keeps the access hot path free of
    /// per-access allocations — the memory system reuses one scratch
    /// buffer for every access it simulates.
    fn observe(&mut self, site: SiteId, block: VAddr, out: &mut Vec<VAddr>);

    /// Forget all learned state.
    fn reset(&mut self);
}

/// A prefetcher's fully associative tracking table with LRU
/// replacement. After a reset, entries fill the slots in index order
/// (so `entries.len()` is the fill count); once every slot is taken,
/// each insertion replaces the least recently touched entry, ranked by
/// one [`Recency`] row.
#[derive(Debug, Clone)]
struct LruTable<T> {
    entries: Vec<T>,
    order: Recency,
}

impl<T> LruTable<T> {
    fn new(slots: usize) -> Self {
        LruTable {
            entries: Vec::with_capacity(slots),
            order: Recency::new(1, slots),
        }
    }

    /// Mark entry `i` most recently used and return it.
    #[inline]
    fn touch(&mut self, i: usize) -> &mut T {
        self.order.touch(0, i);
        &mut self.entries[i]
    }

    /// Insert `entry` as the most recent one: into the first empty slot
    /// while the table is filling, else over the least recent entry.
    #[inline(always)]
    fn insert(&mut self, entry: T) {
        let slot = if self.entries.len() < self.order.ways() {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let lru = self.order.lru(0);
            self.entries[lru] = entry;
            lru
        };
        self.order.touch(0, slot);
    }

    /// Forget every entry.
    fn clear(&mut self) {
        self.entries.clear();
        self.order.reset();
    }
}
