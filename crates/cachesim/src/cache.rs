//! One set-associative cache level.
//!
//! Storage is struct-of-arrays: per-line tags, metadata flag bytes, and
//! filler entities live in three parallel flat vectors, indexed
//! `set * ways + way`. The way search ([`find_way`](SetAssocCache::find_way))
//! compares the set's contiguous `u64` tag slice eight ways at a time,
//! and every mutating operation does at most one such scan — callers get
//! the way index back and reuse it instead of re-probing. A caller that
//! already knows a block is absent (it just missed, or the block has an
//! in-flight fill) inserts it with [`insert_at`](SetAssocCache::insert_at),
//! which does no scan at all; [`fill_at`](SetAssocCache::fill_at) is
//! `find_way`, then a promotion or that same insertion.
//!
//! The `*_at` methods take a precomputed `(set, tag)` projection (the
//! memory system projects each reference once and reuses the pair for
//! its probe and fill); the address-taking methods are thin wrappers
//! that project first. Both paths share one implementation, so their
//! counter behaviour is identical by construction.

use crate::geometry::CacheGeometry;
use crate::replacement::{Policy, PolicyEngine};
use crate::stats::Entity;
use sp_trace::VAddr;

/// Metadata of one cache line (the assembled read-only view; storage is
/// the flag byte + tag + filler columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// Whether the line holds valid data.
    pub valid: bool,
    /// Tag of the cached block.
    pub tag: u64,
    /// Entity whose request filled the line.
    pub filler: Entity,
    /// `true` if the fill was speculative (software or hardware prefetch).
    pub prefetched: bool,
    /// `true` once a demand access has touched the line since its fill.
    pub used_since_fill: bool,
    /// `true` if the line has been written.
    pub dirty: bool,
}

/// What a fill displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block address of the displaced line.
    pub block: VAddr,
    /// Who had filled the displaced line.
    pub filler: Entity,
    /// Whether the displaced line had been brought in by a prefetch.
    pub prefetched: bool,
    /// Whether the displaced line had been demanded since its fill.
    pub used_since_fill: bool,
    /// Whether the displaced line was dirty.
    pub dirty: bool,
}

const FLAG_VALID: u8 = 1;
const FLAG_PREFETCHED: u8 = 2;
const FLAG_USED: u8 = 4;
const FLAG_DIRTY: u8 = 8;

/// A single set-associative cache level with pluggable replacement.
///
/// The tag column stores *keyed* tags — `(tag << 1) | 1` for a valid
/// line, an even value (0) otherwise — so the way probe compares one
/// `u64` per way with no second validity load. Tags are address bits
/// shifted right by at least the line offset, so the top bit lost to the
/// key shift can never be set.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geo: CacheGeometry,
    // Hot-path constants derived from `geo` once at construction.
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    // Parallel per-line columns, indexed `set * ways + way`.
    tags: Vec<u64>,
    meta: Vec<u8>,
    fillers: Vec<Entity>,
    // Valid lines per set, so a full set's fill skips the invalid-way
    // search. `ways <= 255` (asserted by the policy engine) fits a `u8`.
    valid: Vec<u8>,
    engine: PolicyEngine,
}

/// The stored form of a valid tag: odd, so it never equals an empty slot.
#[inline]
fn tag_key(tag: u64) -> u64 {
    (tag << 1) | 1
}

/// The index of `key` in `keys`, which holds it at most once. Each
/// block of eight keys folds its comparisons into one equality mask with
/// no early exit inside the block; the first non-zero mask names the
/// way. Keys past the last whole block are scanned plainly.
#[inline]
fn find_key(keys: &[u64], key: u64) -> Option<usize> {
    let mut blocks = keys.chunks_exact(8);
    for (b, block) in (&mut blocks).enumerate() {
        let mut mask = 0u32;
        for (w, &k) in block.iter().enumerate() {
            mask |= u32::from(k == key) << w;
        }
        if mask != 0 {
            return Some(b * 8 + mask.trailing_zeros() as usize);
        }
    }
    let rest = blocks.remainder();
    let way = rest.iter().position(|&k| k == key)?;
    Some(keys.len() - rest.len() + way)
}

impl SetAssocCache {
    /// An empty cache of the given geometry and policy.
    pub fn new(geo: CacheGeometry, policy: Policy) -> Self {
        let n = geo.lines() as usize;
        SetAssocCache {
            geo,
            ways: geo.ways as usize,
            line_shift: geo.line_shift(),
            set_mask: geo.sets() - 1,
            tag_shift: geo.tag_shift(),
            tags: vec![0; n],
            meta: vec![0; n],
            fillers: vec![Entity::Main; n],
            valid: vec![0; geo.sets() as usize],
            engine: PolicyEngine::new(policy, geo.sets() as usize, geo.ways as usize),
        }
    }

    /// This cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geo
    }

    /// Clear every line and the replacement state without reallocating
    /// any storage. Afterwards the cache is indistinguishable from a
    /// freshly built one.
    pub fn reset(&mut self) {
        // Fillers may stay stale: an even tag key marks the slot empty.
        self.tags.fill(0);
        self.meta.fill(0);
        self.valid.fill(0);
        self.engine.reset();
    }

    #[inline]
    fn set_of(&self, addr: VAddr) -> u32 {
        ((addr >> self.line_shift) & self.set_mask) as u32
    }

    #[inline]
    fn tag_of(&self, addr: VAddr) -> u64 {
        addr >> self.tag_shift
    }

    fn line_at(&self, idx: usize) -> Line {
        let m = self.meta[idx];
        Line {
            valid: m & FLAG_VALID != 0,
            tag: self.tags[idx] >> 1,
            filler: self.fillers[idx],
            prefetched: m & FLAG_PREFETCHED != 0,
            used_since_fill: m & FLAG_USED != 0,
            dirty: m & FLAG_DIRTY != 0,
        }
    }

    /// The way of `set` holding `tag`, if any — the single probe every
    /// operation is built on. It compares the set's keys eight ways per
    /// step into an equality mask, and the remainder plainly.
    #[inline]
    pub fn find_way(&self, set: u32, tag: u64) -> Option<usize> {
        let base = set as usize * self.ways;
        find_key(&self.tags[base..base + self.ways], tag_key(tag))
    }

    /// Find the way holding `addr`'s block, without touching any state.
    pub fn probe(&self, addr: VAddr) -> Option<usize> {
        self.find_way(self.set_of(addr), self.tag_of(addr))
    }

    /// `true` if `addr`'s block is cached.
    pub fn contains(&self, addr: VAddr) -> bool {
        self.probe(addr).is_some()
    }

    /// Record a demand access that hits. Returns the line's pre-touch
    /// metadata, or `None` on a miss (in which case nothing changes).
    ///
    /// On a hit the line is promoted per the replacement policy, its
    /// `used_since_fill` bit is set, and `is_store` marks it dirty.
    pub fn demand_touch(&mut self, addr: VAddr, is_store: bool) -> Option<Line> {
        self.touch(addr, is_store, true)
    }

    /// Like [`demand_touch`](Self::demand_touch), but with control over
    /// whether the touch counts as a *use* of the line. Helper-thread
    /// accesses promote the line but do not mark it used: the pollution
    /// cases of the paper (§II.C) are about data "used by the processor",
    /// i.e. the main thread.
    pub fn touch(&mut self, addr: VAddr, is_store: bool, mark_used: bool) -> Option<Line> {
        self.touch_at(self.set_of(addr), self.tag_of(addr), is_store, mark_used)
    }

    /// [`touch`](Self::touch) with the `(set, tag)` projection already
    /// computed. One way lookup, no re-probe.
    pub fn touch_at(
        &mut self,
        set: u32,
        tag: u64,
        is_store: bool,
        mark_used: bool,
    ) -> Option<Line> {
        let way = self.find_way(set, tag)?;
        let before = self.line_at(set as usize * self.ways + way);
        self.touch_way(set as usize, way, is_store, mark_used);
        Some(before)
    }

    /// [`touch_at`](Self::touch_at) returning only what the L2 demand
    /// path classifies a hit by: whether the line was a never-used
    /// prefetch before this touch, who filled it, and the line's index
    /// (`set * ways + way`, as [`insert_at`](Self::insert_at) returns
    /// it). Skips assembling the full pre-touch [`Line`].
    #[inline]
    pub fn touch_classify_at(
        &mut self,
        set: u32,
        tag: u64,
        is_store: bool,
        mark_used: bool,
    ) -> Option<(bool, Entity, usize)> {
        let way = self.find_way(set, tag)?;
        let idx = set as usize * self.ways + way;
        let m = self.meta[idx];
        let fresh_prefetch = m & FLAG_PREFETCHED != 0 && m & FLAG_USED == 0;
        let filler = self.fillers[idx];
        self.touch_way(set as usize, way, is_store, mark_used);
        Some((fresh_prefetch, filler, idx))
    }

    /// [`touch_at`](Self::touch_at) when the caller only needs to know
    /// whether the access hit: skips the pre-touch [`Line`] snapshot.
    /// The L1 demand path never inspects the displaced metadata, so it
    /// uses this form.
    #[inline]
    pub fn touch_hit_at(&mut self, set: u32, tag: u64, is_store: bool, mark_used: bool) -> bool {
        match self.find_way(set, tag) {
            Some(way) => {
                self.touch_way(set as usize, way, is_store, mark_used);
                true
            }
            None => false,
        }
    }

    #[inline]
    fn touch_way(&mut self, set: usize, way: usize, is_store: bool, mark_used: bool) {
        let idx = set * self.ways + way;
        let mut m = self.meta[idx];
        if mark_used {
            m |= FLAG_USED;
        }
        if is_store {
            m |= FLAG_DIRTY;
        }
        self.meta[idx] = m;
        self.engine.on_hit(set, way);
    }

    /// Fill `addr`'s block on behalf of `filler`.
    ///
    /// `prefetched` distinguishes speculative fills (their first demand
    /// touch counts as a *useful* prefetch; eviction before any touch
    /// counts as pollution). If the block is already present, the fill is
    /// a no-op other than a policy promotion and returns `None`.
    /// Otherwise, returns the displaced line's metadata if a valid line
    /// had to be evicted.
    pub fn fill(&mut self, addr: VAddr, filler: Entity, prefetched: bool) -> Option<Evicted> {
        self.fill_at(self.set_of(addr), self.tag_of(addr), filler, prefetched)
    }

    /// [`fill`](Self::fill) with the `(set, tag)` projection already
    /// computed: one probe, then a policy promotion of a present block
    /// or an [`insert_at`](Self::insert_at) of an absent one.
    pub fn fill_at(
        &mut self,
        set: u32,
        tag: u64,
        filler: Entity,
        prefetched: bool,
    ) -> Option<Evicted> {
        if let Some(w) = self.find_way(set, tag) {
            // Already present: policy promotion only.
            self.engine.on_fill(set as usize, w);
            return None;
        }
        self.insert_at(set, tag, filler, prefetched, false).1
    }

    /// Install `(set, tag)`, which the caller knows is absent (checked in
    /// debug builds), on behalf of `filler` — the one insertion path. A
    /// full set goes straight to the policy's victim; only a set below
    /// capacity scans for its first invalid way. A demand fill
    /// (`prefetched == false`) is used by the access that requested it;
    /// `dirty` starts the line dirty (a store waiting on the fill).
    /// Returns the index of the line it filled (`set * ways + way`, for
    /// callers that keep per-line state of their own) and the displaced
    /// line's metadata if a valid line was evicted.
    pub fn insert_at(
        &mut self,
        set: u32,
        tag: u64,
        filler: Entity,
        prefetched: bool,
        dirty: bool,
    ) -> (usize, Option<Evicted>) {
        debug_assert!(
            self.find_way(set, tag).is_none(),
            "insert_at of a resident block"
        );
        let base = set as usize * self.ways;
        let valid = &mut self.valid[set as usize];
        let way = if *valid as usize == self.ways {
            self.engine.victim(set as usize)
        } else {
            *valid += 1;
            self.tags[base..base + self.ways]
                .iter()
                .position(|&t| t & 1 == 0)
                .expect("a set below capacity has an invalid way")
        };
        let idx = base + way;
        let evicted = (self.tags[idx] & 1 != 0).then(|| {
            let old = self.line_at(idx);
            Evicted {
                block: self.geo.block_from(set as u64, old.tag),
                filler: old.filler,
                prefetched: old.prefetched,
                used_since_fill: old.used_since_fill,
                dirty: old.dirty,
            }
        });
        self.tags[idx] = tag_key(tag);
        self.fillers[idx] = filler;
        let use_flag = if prefetched {
            FLAG_PREFETCHED
        } else {
            FLAG_USED
        };
        let dirty_flag = if dirty { FLAG_DIRTY } else { 0 };
        self.meta[idx] = FLAG_VALID | use_flag | dirty_flag;
        self.engine.on_fill(set as usize, way);
        (idx, evicted)
    }

    /// Promote `(set, tag)` per the replacement policy if present (a
    /// prefetch hint to a cached block). Returns `true` if the block was
    /// there. Equivalent to the promotion-only branch of
    /// [`fill_at`](Self::fill_at).
    pub fn promote(&mut self, set: u32, tag: u64) -> bool {
        match self.find_way(set, tag) {
            Some(way) => {
                self.engine.on_fill(set as usize, way);
                true
            }
            None => false,
        }
    }

    /// Drop `addr`'s block if present; returns `true` if a line was
    /// invalidated.
    pub fn invalidate(&mut self, addr: VAddr) -> bool {
        let set = self.set_of(addr);
        match self.find_way(set, self.tag_of(addr)) {
            Some(way) => {
                let idx = set as usize * self.ways + way;
                self.tags[idx] = 0;
                self.meta[idx] &= !FLAG_VALID;
                self.valid[set as usize] -= 1;
                true
            }
            None => false,
        }
    }

    /// Number of valid lines in `set`.
    pub fn occupancy(&self, set: u64) -> usize {
        self.valid[set as usize] as usize
    }

    /// Block addresses currently cached in `set` (test/debug helper).
    pub fn set_blocks(&self, set: u64) -> Vec<VAddr> {
        let base = set as usize * self.ways;
        (0..self.ways)
            .filter(|w| self.meta[base + w] & FLAG_VALID != 0)
            .map(|w| self.geo.block_from(set, self.tags[base + w] >> 1))
            .collect()
    }

    /// Total valid lines in the cache.
    pub fn total_occupancy(&self) -> usize {
        self.meta.iter().filter(|&&m| m & FLAG_VALID != 0).count()
    }

    /// Metadata of `addr`'s line, if cached (read-only).
    pub fn line_meta(&self, addr: VAddr) -> Option<Line> {
        let set = self.set_of(addr);
        let way = self.find_way(set, self.tag_of(addr))?;
        Some(self.line_at(set as usize * self.ways + way))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B lines = 256B.
        SetAssocCache::new(CacheGeometry::new(256, 2, 64), Policy::Lru)
    }

    /// Two addresses mapping to set 0, distinct tags.
    fn s0(tag: u64) -> VAddr {
        tag * 2 * 64
    }

    #[test]
    fn fill_then_probe_hits() {
        let mut c = tiny();
        assert!(!c.contains(s0(0)));
        assert_eq!(c.fill(s0(0), Entity::Main, false), None);
        assert!(c.contains(s0(0)));
        assert_eq!(c.occupancy(0), 1);
        assert_eq!(c.occupancy(1), 0);
    }

    #[test]
    fn lru_eviction_returns_victim_metadata() {
        let mut c = tiny();
        c.fill(s0(0), Entity::Main, false);
        c.fill(s0(1), Entity::Helper, true);
        // Set 0 full; next fill evicts the LRU line (tag 0).
        let ev = c.fill(s0(2), Entity::Main, false).expect("eviction");
        assert_eq!(ev.block, s0(0));
        assert_eq!(ev.filler, Entity::Main);
        assert!(!ev.prefetched);
        assert!(ev.used_since_fill, "demand fills count as used");
        assert!(!c.contains(s0(0)));
        assert!(c.contains(s0(1)));
        assert!(c.contains(s0(2)));
    }

    #[test]
    fn demand_touch_promotes_and_marks_used() {
        let mut c = tiny();
        c.fill(s0(0), Entity::Main, false);
        c.fill(s0(1), Entity::Helper, true);
        let before = c.demand_touch(s0(0), false).expect("hit");
        assert!(before.used_since_fill);
        // Tag 0 is now MRU, so tag 1 (helper prefetch, never demanded)
        // gets evicted next.
        let ev = c.fill(s0(2), Entity::Main, false).unwrap();
        assert_eq!(ev.block, s0(1));
        assert!(ev.prefetched);
        assert!(!ev.used_since_fill);
    }

    #[test]
    fn prefetch_fill_unused_until_touched() {
        let mut c = tiny();
        c.fill(s0(0), Entity::Helper, true);
        let meta = c.line_meta(s0(0)).unwrap();
        assert!(meta.prefetched && !meta.used_since_fill);
        c.demand_touch(s0(0), false).unwrap();
        assert!(c.line_meta(s0(0)).unwrap().used_since_fill);
    }

    #[test]
    fn refill_of_present_block_is_noop() {
        let mut c = tiny();
        c.fill(s0(0), Entity::Main, false);
        assert_eq!(c.fill(s0(0), Entity::Helper, true), None);
        // Original metadata wins (the block was already there).
        assert_eq!(c.line_meta(s0(0)).unwrap().filler, Entity::Main);
        assert_eq!(c.occupancy(0), 1);
    }

    #[test]
    fn store_touch_marks_dirty_and_eviction_reports_it() {
        let mut c = tiny();
        c.fill(s0(0), Entity::Main, false);
        c.demand_touch(s0(0), true).unwrap();
        c.fill(s0(1), Entity::Main, false);
        let ev = c.fill(s0(2), Entity::Main, false).unwrap();
        assert_eq!(ev.block, s0(0));
        assert!(ev.dirty);
    }

    #[test]
    fn invalidate_removes_block() {
        let mut c = tiny();
        c.fill(s0(0), Entity::Main, false);
        assert!(c.invalidate(s0(0)));
        assert!(!c.contains(s0(0)));
        assert!(!c.invalidate(s0(0)));
    }

    #[test]
    fn miss_touch_changes_nothing() {
        let mut c = tiny();
        assert_eq!(c.demand_touch(s0(0), false), None);
        assert_eq!(c.total_occupancy(), 0);
    }

    #[test]
    fn set_isolation() {
        let mut c = tiny();
        c.fill(0, Entity::Main, false); // set 0
        c.fill(64, Entity::Main, false); // set 1
        assert_eq!(c.occupancy(0), 1);
        assert_eq!(c.occupancy(1), 1);
        assert_eq!(c.set_blocks(0), vec![0]);
        assert_eq!(c.set_blocks(1), vec![64]);
    }

    #[test]
    fn occupancy_never_exceeds_ways() {
        let mut c = tiny();
        for tag in 0..10 {
            c.fill(s0(tag), Entity::Main, false);
            assert!(c.occupancy(0) <= 2);
        }
        assert_eq!(c.occupancy(0), 2);
    }

    #[test]
    fn at_variants_match_address_variants() {
        let mut a = tiny();
        let mut b = tiny();
        let g = a.geometry();
        for (i, addr) in [s0(0), s0(1), s0(2), 64, s0(0), 192].iter().enumerate() {
            let set = g.set_of(*addr) as u32;
            let tag = g.tag_of(*addr);
            let pf = i % 2 == 1;
            assert_eq!(
                a.fill(*addr, Entity::Main, pf),
                b.fill_at(set, tag, Entity::Main, pf)
            );
            assert_eq!(
                a.touch(*addr, false, true),
                b.touch_at(set, tag, false, true)
            );
        }
    }

    #[test]
    fn promote_matches_fill_of_present_block() {
        let mut c = tiny();
        c.fill(s0(0), Entity::Main, false);
        c.fill(s0(1), Entity::Main, false);
        let g = c.geometry();
        // Promote tag 0 (making tag 1 the LRU), as fill-of-present would.
        assert!(c.promote(g.set_of(s0(0)) as u32, g.tag_of(s0(0))));
        let ev = c.fill(s0(2), Entity::Main, false).unwrap();
        assert_eq!(ev.block, s0(1));
        // Promoting an absent block reports false and changes nothing.
        assert!(!c.promote(g.set_of(s0(7)) as u32, g.tag_of(s0(7))));
    }

    /// `find_key` agrees with a plain `position` scan at every slice
    /// length up to `MAX_WAYS`, whole blocks of eight or not, for keys
    /// present anywhere and for absent keys.
    #[test]
    fn find_key_matches_position_at_every_width() {
        for ways in 1..=crate::geometry::MAX_WAYS as usize {
            sp_testkit::check(8, |rng| {
                // Distinct odd keys with some empty (zero) slots, as a set
                // holds them.
                let keys: Vec<u64> = (0..ways)
                    .map(|w| {
                        if rng.gen_bool(0.2) {
                            0
                        } else {
                            tag_key(w as u64 * 1000 + rng.gen_range(0u64..1000))
                        }
                    })
                    .collect();
                for &k in &keys {
                    let want = keys.iter().position(|&x| x == k);
                    assert_eq!(find_key(&keys, k), want, "ways {ways}");
                }
                let absent = tag_key(ways as u64 * 1000 + 1);
                assert_eq!(find_key(&keys, absent), None, "ways {ways}");
            });
        }
    }

    /// `find_way` agrees with a `position` scan of the set's stored keys
    /// at every associativity a geometry admits, through random fills
    /// and invalidations.
    #[test]
    fn find_way_matches_position_at_every_associativity() {
        for ways in (0..=7).map(|p| 1u32 << p) {
            let geo = CacheGeometry::new(4 * ways as u64 * 64, ways, 64);
            sp_testkit::check(8, |rng| {
                let mut c = SetAssocCache::new(geo, Policy::Lru);
                let span = geo.size_bytes * 3;
                for _ in 0..rng.gen_range(0usize..8 * ways as usize) {
                    let addr = rng.gen_range(0..span);
                    if rng.gen_bool(0.8) {
                        c.fill(addr, Entity::Main, false);
                    } else {
                        c.invalidate(addr);
                    }
                }
                for _ in 0..64 {
                    let addr = rng.gen_range(0..span);
                    let (set, tag) = (geo.set_of(addr) as u32, geo.tag_of(addr));
                    let base = set as usize * c.ways;
                    let want = c.tags[base..base + c.ways]
                        .iter()
                        .position(|&t| t == tag_key(tag));
                    assert_eq!(c.find_way(set, tag), want, "ways {ways}");
                }
            });
        }
    }

    #[test]
    fn reset_restores_pristine_state() {
        let mut c = tiny();
        c.fill(s0(0), Entity::Main, false);
        c.fill(s0(1), Entity::Helper, true);
        c.demand_touch(s0(1), true);
        c.reset();
        assert_eq!(c.total_occupancy(), 0);
        assert!(!c.contains(s0(0)));
        // Replacement state is fresh too: replay the LRU eviction test.
        c.fill(s0(0), Entity::Main, false);
        c.fill(s0(1), Entity::Helper, true);
        let ev = c.fill(s0(2), Entity::Main, false).expect("eviction");
        assert_eq!(ev.block, s0(0), "LRU order must restart from scratch");
    }
}
