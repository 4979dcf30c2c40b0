//! Miss-status holding registers (MSHRs) for the shared L2.
//!
//! An in-flight fill is what turns a would-be miss into the paper's
//! **partially cache hit**: the demanded data "arrives in cache after its
//! memory request is issued but before it is serviced". Any access (from
//! any entity) to a block with an allocated MSHR merges with the
//! outstanding request instead of issuing a new one.
//!
//! The file keeps its entries in completion (`ready_at`) order, ties in
//! allocation order: an allocation is inserted after every entry that
//! completes no later than it. The next fill to complete is therefore
//! always the front entry, and the drain guard, the stall bound and the
//! pop read it directly. Inside [`MemorySystem`](crate::MemorySystem)
//! every allocation completes after every outstanding fill, so the
//! insertion point is always the back; other callers may allocate in any
//! order.

use crate::clock::Cycle;
use crate::stats::Entity;
use sp_trace::VAddr;

/// An outstanding fill request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// Block being fetched.
    pub block: VAddr,
    /// Cycle at which the fill completes (data installed in the L2).
    pub ready_at: Cycle,
    /// Entity whose request allocated the entry.
    pub requester: Entity,
    /// Whether the original request was a prefetch. A demand access that
    /// merges with a prefetch MSHR clears this: the resulting fill is a
    /// (partially-hidden) demand fill whose prefetch was *useful*.
    pub prefetch: bool,
    /// Whether a store is waiting on this fill (the installed line starts
    /// dirty).
    pub store: bool,
}

/// A fixed-capacity MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Outstanding entries in `ready_at` order, ties in allocation order.
    entries: Vec<InFlight>,
    capacity: usize,
}

impl MshrFile {
    /// An empty file with room for `capacity` outstanding fills.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Drop every outstanding entry, keeping the allocation.
    pub fn reset(&mut self) {
        self.entries.clear();
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no fill is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` if no further request can be tracked.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Outstanding entries, in completion order (ties in allocation
    /// order).
    pub(crate) fn entries(&self) -> &[InFlight] {
        &self.entries
    }

    /// The outstanding entry for `block`, if any.
    pub fn lookup(&self, block: VAddr) -> Option<InFlight> {
        self.entries.iter().copied().find(|e| e.block == block)
    }

    /// Merge a demand access into an outstanding entry, marking the fill
    /// as demanded (useful, if it was a prefetch) and dirty if the access
    /// is a store. Returns the merged entry (with the *pre-merge*
    /// prefetch flag), or `None` if `block` has no entry.
    pub fn merge_demand(&mut self, block: VAddr, store: bool) -> Option<InFlight> {
        let e = self.entries.iter_mut().find(|e| e.block == block)?;
        let was_prefetch = e.prefetch;
        e.prefetch = false;
        e.store |= store;
        Some(InFlight {
            prefetch: was_prefetch,
            ..*e
        })
    }

    /// Track a new outstanding fill. Fails (returning the entry back) if
    /// the file is full or the block already has an entry.
    pub fn allocate(&mut self, entry: InFlight) -> Result<(), InFlight> {
        if self.is_full() || self.lookup(entry.block).is_some() {
            return Err(entry);
        }
        self.insert(entry);
        Ok(())
    }

    /// [`allocate`](Self::allocate) for callers that have already
    /// established there is room and no entry for the block — skips the
    /// duplicate lookup scan on the access hot path (checked in debug
    /// builds).
    pub fn allocate_unchecked(&mut self, entry: InFlight) {
        debug_assert!(!self.is_full(), "caller ensured MSHR room");
        debug_assert!(
            self.lookup(entry.block).is_none(),
            "caller ensured the block has no entry"
        );
        self.insert(entry);
    }

    /// Insert after every entry completing no later than `entry`.
    #[inline]
    fn insert(&mut self, entry: InFlight) {
        let at = self
            .entries
            .partition_point(|e| e.ready_at <= entry.ready_at);
        self.entries.insert(at, entry);
    }

    /// `true` if no outstanding fill has completed by `now` — the cheap
    /// guard that lets callers skip [`drain_ready`](Self::drain_ready)'s
    /// work on the (overwhelmingly common) nothing-to-do path.
    #[inline]
    pub fn none_ready(&self, now: Cycle) -> bool {
        self.entries.first().is_none_or(|e| e.ready_at > now)
    }

    /// Remove and return every entry whose fill has completed by `now`,
    /// in completion order.
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<InFlight> {
        let mut done = Vec::new();
        while let Some(e) = self.pop_earliest_ready(now) {
            done.push(e);
        }
        done
    }

    /// Remove and return the completed entry (`ready_at <= now`) with the
    /// earliest completion time, ties broken by allocation order — the
    /// allocation-free form of [`drain_ready`](Self::drain_ready): calling
    /// it until `None` yields exactly `drain_ready`'s sequence.
    #[inline]
    pub fn pop_earliest_ready(&mut self, now: Cycle) -> Option<InFlight> {
        if self.none_ready(now) {
            return None;
        }
        Some(self.entries.remove(0))
    }

    /// Earliest completion time among outstanding entries (used to decide
    /// how long a demand access must stall when the file is full).
    pub fn earliest_ready(&self) -> Option<Cycle> {
        self.entries.first().map(|e| e.ready_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fl(block: VAddr, ready_at: Cycle) -> InFlight {
        InFlight {
            block,
            ready_at,
            requester: Entity::Helper,
            prefetch: true,
            store: false,
        }
    }

    #[test]
    fn allocate_and_lookup() {
        let mut m = MshrFile::new(2);
        m.allocate(fl(0x40, 100)).unwrap();
        assert_eq!(m.lookup(0x40).unwrap().ready_at, 100);
        assert!(m.lookup(0x80).is_none());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn duplicate_block_rejected() {
        let mut m = MshrFile::new(2);
        m.allocate(fl(0x40, 100)).unwrap();
        assert!(m.allocate(fl(0x40, 200)).is_err());
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut m = MshrFile::new(1);
        m.allocate(fl(0x40, 100)).unwrap();
        assert!(m.is_full());
        assert!(m.allocate(fl(0x80, 100)).is_err());
    }

    #[test]
    fn merge_demand_clears_prefetch_and_reports_it() {
        let mut m = MshrFile::new(2);
        m.allocate(fl(0x40, 100)).unwrap();
        let merged = m.merge_demand(0x40, false).unwrap();
        assert!(merged.prefetch, "merge reports the pre-merge flag");
        assert!(
            !m.lookup(0x40).unwrap().prefetch,
            "entry is now a demand fill"
        );
        // Merging again reports prefetch = false; a store merge dirties.
        assert!(!m.merge_demand(0x40, true).unwrap().prefetch);
        assert!(m.lookup(0x40).unwrap().store);
        assert!(m.merge_demand(0x80, false).is_none());
    }

    #[test]
    fn drain_ready_pops_completed_in_order() {
        let mut m = MshrFile::new(4);
        m.allocate(fl(0x40, 300)).unwrap();
        m.allocate(fl(0x80, 100)).unwrap();
        m.allocate(fl(0xc0, 200)).unwrap();
        let done = m.drain_ready(250);
        assert_eq!(
            done.iter().map(|e| e.block).collect::<Vec<_>>(),
            vec![0x80, 0xc0]
        );
        assert_eq!(m.len(), 1);
        assert_eq!(m.earliest_ready(), Some(300));
        assert!(m.drain_ready(299).is_empty());
        assert_eq!(m.drain_ready(300).len(), 1);
        assert!(m.is_empty());
        assert_eq!(m.earliest_ready(), None);
    }

    #[test]
    fn pop_earliest_ready_matches_drain_order_with_ties() {
        let mut a = MshrFile::new(4);
        let mut b = MshrFile::new(4);
        for e in [fl(0x40, 200), fl(0x80, 100), fl(0xc0, 100), fl(0x100, 300)] {
            a.allocate(e).unwrap();
            b.allocate(e).unwrap();
        }
        let drained = a.drain_ready(250);
        let mut popped = Vec::new();
        while let Some(e) = b.pop_earliest_ready(250) {
            popped.push(e);
        }
        assert_eq!(drained, popped);
        assert_eq!(
            popped.iter().map(|e| e.block).collect::<Vec<_>>(),
            vec![0x80, 0xc0, 0x40],
            "completion order, allocation order on ties"
        );
        assert_eq!(a.len(), 1);
        assert!(b.pop_earliest_ready(299).is_none());
    }

    #[test]
    fn allocate_unchecked_tracks_like_allocate() {
        let mut m = MshrFile::new(2);
        m.allocate_unchecked(fl(0x40, 100));
        assert_eq!(m.lookup(0x40).unwrap().ready_at, 100);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn none_ready_agrees_with_drain() {
        let mut m = MshrFile::new(4);
        assert!(m.none_ready(u64::MAX));
        m.allocate(fl(0x40, 100)).unwrap();
        assert!(m.none_ready(99));
        assert!(!m.none_ready(100));
        m.reset();
        assert!(m.is_empty());
        assert!(m.none_ready(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = MshrFile::new(0);
    }
}
