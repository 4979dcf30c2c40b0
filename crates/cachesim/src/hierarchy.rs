//! The CMP memory system: per-core L1s, shared L2, MSHRs, hardware
//! prefetchers, and the shared bus, glued into a single access interface.
//!
//! # Model
//!
//! * Accesses arrive in **globally monotonic time order** (the co-sim
//!   engine in `sp-core` interleaves the two threads' timelines before
//!   calling in). Completed MSHR fills are drained lazily at each access.
//! * Demand accesses stall the issuing thread until their data is
//!   available; software prefetches cost only their issue cycles.
//! * L1s are fill-on-L2-hit: a demand miss that goes to memory installs
//!   the line in the L2; the L1 copy appears when a later access hits the
//!   L2. This keeps fills single-pointed without a future-event queue and
//!   has no effect on the L2 counters the paper measures.
//! * Hardware prefetchers observe their core's demand stream *post-L1*
//!   (L2-side prefetchers, as on the Core 2) and fill only the L2.
//!
//! # Pollution accounting
//!
//! Case 1 of the paper (§II.C) — a prefetched block displacing data that
//! the processor will reuse — cannot be decided at eviction time without
//! future knowledge. The system therefore records blocks evicted by
//! prefetch fills and counts a **reuse eviction** when the main thread
//! later misses on such a block (the standard lazy attribution used by
//! pollution studies). Cases 2 and 3 — displacing a not-yet-used helper-
//! or hardware-prefetched block — are decided at eviction time.
//!
//! # Observability
//!
//! The access paths are generic over an [`EventSink`] (see
//! [`crate::events`]): the `*_ev` entry points take a sink and emit
//! prefetch-lifecycle and eviction-attribution events at exactly the
//! program points where the corresponding counters increment. The
//! sink-free entry points delegate with [`NullSink`], whose
//! `ENABLED = false` constant compiles the whole event layer out — the
//! default path is bit- and speed-identical to a build without events.
//! A sink with `SNAPSHOTS` set instead reads the running counters at
//! window boundaries; only for it does the system keep the
//! [`SnapshotCounters`] ledger and each L2 line's fill cycle.

use crate::bus::Bus;
use crate::cache::SetAssocCache;
use crate::clock::Cycle;
use crate::config::{CacheConfig, HwBackend};
use crate::events::{Event, EventSink, FillOrigin, NullSink, PfClass, PollutionCase, Snapshot};
use crate::mshr::{InFlight, MshrFile};
use crate::prefetcher::{
    DplPrefetcher, HwPrefetcher, PerceptronPrefetcher, PointerChasePrefetcher, StreamPrefetcher,
};
use crate::stats::{prefetch_class, MemStats, SnapshotCounters};
use sp_trace::{AccessKind, MemRef, VAddr};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::stats::{Entity, HitClass};

/// Process-wide count of [`MemorySystem`] constructions.
static SIM_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Multiply-mix hasher for block addresses. The pollution candidate set
/// is touched on every main-thread miss, where the default SipHash is
/// measurable overhead; block addresses need no DoS resistance, so a
/// single multiply by a high-entropy odd constant (plus a fold of the
/// high bits into the low bucket-index bits) is enough.
#[derive(Default, Clone)]
struct BlockHasher(u64);

impl std::hash::Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
        self.0 ^= self.0 >> 32;
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 ^= self.0 >> 32;
    }
}

type BuildBlockHasher = std::hash::BuildHasherDefault<BlockHasher>;

/// How many `MemorySystem`s this process has built so far.
///
/// Each build allocates the full hierarchy (L1s, L2, MSHRs, prefetcher
/// tables), so the delta across a run is an allocations-per-run proxy
/// (perfbench's `cachesim.sim_builds`, `tests/sim_reuse.rs`): reusing
/// simulators via [`MemorySystem::reset`] keeps the count flat where
/// rebuilding grows it once per run.
pub fn sim_build_count() -> u64 {
    SIM_BUILDS.load(Ordering::Relaxed)
}

/// Outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// L2-level classification (the paper's measurement classes).
    pub class: HitClass,
    /// Simulated time at which the issuing thread may proceed.
    pub complete_at: Cycle,
}

impl AccessResult {
    /// Latency relative to the issue time.
    pub fn latency(&self, issued_at: Cycle) -> Cycle {
        self.complete_at - issued_at
    }
}

/// The simulated memory system.
///
/// ```
/// use sp_cachesim::{CacheConfig, Entity, HitClass, MemorySystem};
/// use sp_trace::MemRef;
///
/// let mut mem = MemorySystem::new(CacheConfig::scaled_default().without_hw_prefetchers());
/// // Cold miss, then (after the fill lands) a totally hit, then L1.
/// let r1 = mem.demand_access(Entity::Main, MemRef::anon(0x4000), 0);
/// assert_eq!(r1.class, HitClass::TotalMiss);
/// let r2 = mem.demand_access(Entity::Main, MemRef::anon(0x4000), r1.complete_at + 1);
/// assert_eq!(r2.class, HitClass::TotalHit);
/// let r3 = mem.demand_access(Entity::Main, MemRef::anon(0x4000), r2.complete_at + 1);
/// assert_eq!(r3.class, HitClass::L1Hit);
/// ```
pub struct MemorySystem {
    cfg: CacheConfig,
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    mshr: MshrFile,
    bus: Bus,
    // Hardware-prefetcher state is per core.
    streamers: Vec<StreamPrefetcher>,
    dpls: Vec<DplPrefetcher>,
    pchases: Vec<PointerChasePrefetcher>,
    perceptrons: Vec<PerceptronPrefetcher>,
    stats: MemStats,
    /// The ledger a snapshotting sink reads beside `stats`; untouched
    /// (and unallocated) for every other sink.
    snap: SnapshotCounters,
    /// Per L2 line (`set * ways + way`), the cycle its fill landed —
    /// kept, like `snap`, only for a snapshotting sink, which times first
    /// uses against it.
    l2_fill_at: Vec<Cycle>,
    /// Main-thread accesses since the last window snapshot.
    window_refs: u64,
    /// Blocks whose L2 eviction was caused by a prefetch fill and that
    /// held demanded data — candidates for a case-1 pollution re-miss.
    prefetch_victims: HashSet<VAddr, BuildBlockHasher>,
    /// Scratch buffer for hardware-prefetcher candidates, reused across
    /// accesses so the training path never allocates. Always empty
    /// between accesses.
    hw_cands: Vec<VAddr>,
    /// Latest access time seen (monotonicity debug check).
    last_now: Cycle,
}

impl MemorySystem {
    /// Build an empty memory system from `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        SIM_BUILDS.fetch_add(1, Ordering::Relaxed);
        let line = cfg.l2.line_size;
        let cores = cfg.cores as usize;
        MemorySystem {
            l1: (0..cfg.cores)
                .map(|_| SetAssocCache::new(cfg.l1, crate::replacement::Policy::Lru))
                .collect(),
            l2: SetAssocCache::new(cfg.l2, cfg.policy),
            mshr: MshrFile::new(cfg.mshr_entries),
            bus: Bus::new(cfg.latency.bus_service),
            streamers: (0..cores)
                .map(|_| StreamPrefetcher::new(cfg.stream_slots, cfg.stream_degree, line))
                .collect(),
            dpls: (0..cores)
                .map(|_| DplPrefetcher::new(cfg.dpl_entries, cfg.dpl_degree, line))
                .collect(),
            pchases: (0..cores)
                .map(|_| PointerChasePrefetcher::new(cfg.pchase_entries, cfg.pchase_depth))
                .collect(),
            perceptrons: (0..cores)
                .map(|_| PerceptronPrefetcher::new(cfg.dpl_entries, 32, cfg.dpl_degree, line))
                .collect(),
            stats: MemStats::default(),
            snap: SnapshotCounters::default(),
            l2_fill_at: Vec::new(),
            window_refs: 0,
            prefetch_victims: HashSet::default(),
            hw_cands: Vec::new(),
            cfg,
            last_now: 0,
        }
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Return the system to its freshly-built state — empty caches, idle
    /// bus, no outstanding fills, zeroed statistics —
    /// without releasing any of the allocations. Lets sweep runners and
    /// services reuse one simulator across runs instead of rebuilding the
    /// hierarchy each time; [`sim_build_count`] stays flat across `reset`
    /// calls.
    pub fn reset(&mut self) {
        for l1 in &mut self.l1 {
            l1.reset();
        }
        self.l2.reset();
        self.mshr.reset();
        self.bus.reset();
        for s in &mut self.streamers {
            s.reset();
        }
        for d in &mut self.dpls {
            d.reset();
        }
        for p in &mut self.pchases {
            p.reset();
        }
        for p in &mut self.perceptrons {
            p.reset();
        }
        self.stats = MemStats::default();
        self.snap.reset();
        self.window_refs = 0;
        self.prefetch_victims.clear();
        self.hw_cands.clear();
        self.last_now = 0;
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Read-only view of the shared L2 (tests, diagnostics).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// Which core an entity's demand accesses issue from: the main thread
    /// runs on core 0, the helper on core 1.
    pub fn core_of(entity: Entity) -> usize {
        match entity {
            Entity::Main => 0,
            Entity::Helper => 1,
            Entity::HwStream(c)
            | Entity::HwDpl(c)
            | Entity::HwPchase(c)
            | Entity::HwPerceptron(c) => c as usize,
        }
    }

    /// Install `block` in the L2 on behalf of `filler`, with full
    /// eviction/pollution accounting. The single point through which every
    /// L2 fill flows. Every pollution-counter increment here has exactly
    /// one matching event emission, so folding the stream reproduces the
    /// aggregates.
    ///
    /// `block` is the block of a completed MSHR entry, and a block with
    /// an outstanding entry is never L2-resident (entries are allocated
    /// only after an L2 miss, and this is the only way into the L2), so
    /// the fill inserts without probing. `dirty` starts the line dirty:
    /// a store was waiting on the fill (write-allocate).
    fn l2_install<S: EventSink>(
        &mut self,
        block: VAddr,
        filler: Entity,
        prefetched: bool,
        dirty: bool,
        now: Cycle,
        sink: &mut S,
    ) {
        let set = self.cfg.l2.set_of(block) as u32;
        let (line, evicted) =
            self.l2
                .insert_at(set, self.cfg.l2.tag_of(block), filler, prefetched, dirty);
        if S::SNAPSHOTS {
            self.ledger_fill(set, line, filler, prefetched, now);
        }
        if let Some(ev) = evicted {
            self.stats.l2_evictions += 1;
            if self.cfg.inclusion == crate::config::Inclusion::Inclusive {
                // Back-invalidate the victim from every private L1.
                for l1 in &mut self.l1 {
                    l1.invalidate(ev.block);
                }
            }
            if ev.dirty {
                // Dirty victim: the write-back occupies the shared bus
                // like any other line transfer.
                self.stats.writebacks += 1;
                self.bus.request(now);
            }
            let evictor_is_prefetch = prefetched && filler.is_prefetcher();
            if ev.prefetched && !ev.used_since_fill {
                // The victim was itself a never-used prefetch.
                self.stats.pollution.dead_prefetches += 1;
                if S::SNAPSHOTS {
                    if let Some(cls) = prefetch_class(ev.filler) {
                        self.snap.evicted_unused[cls] += 1;
                    }
                }
                if S::ENABLED {
                    if let Some(class) = PfClass::of(ev.filler) {
                        sink.emit(Event::PrefetchEvictedUnused {
                            class,
                            block: ev.block,
                            set,
                            at: now,
                        });
                    }
                }
                if evictor_is_prefetch {
                    match ev.filler {
                        Entity::Helper => {
                            self.stats.pollution.unused_helper_evictions += 1;
                            if S::ENABLED {
                                sink.emit(Event::PollutionEviction {
                                    case: PollutionCase::UnusedHelper,
                                    block: ev.block,
                                    set,
                                    at: now,
                                });
                            }
                        }
                        e if e.is_hw() => {
                            self.stats.pollution.unused_hw_evictions += 1;
                            if S::ENABLED {
                                sink.emit(Event::PollutionEviction {
                                    case: PollutionCase::UnusedHw,
                                    block: ev.block,
                                    set,
                                    at: now,
                                });
                            }
                        }
                        _ => {}
                    }
                }
            } else if evictor_is_prefetch {
                // The victim held demanded data; if the main thread
                // misses on it again, that's a case-1 pollution event.
                self.prefetch_victims.insert(ev.block);
            }
        }
        self.stats.l2_fills += 1;
        self.stats.l2_fills_by[match filler {
            Entity::Main => 0,
            Entity::Helper => 1,
            Entity::HwStream(_) => 2,
            Entity::HwDpl(_) => 3,
            Entity::HwPchase(_) => 4,
            Entity::HwPerceptron(_) => 5,
        }] += 1;
        if S::ENABLED {
            // Victim origin mirrors what its own fill was charged as
            // (the `prefetched` flag survives demand touches), so per-set
            // occupancy-by-origin balances fill-for-fill.
            let victim = evicted.map(|ev| FillOrigin::of(ev.filler, ev.prefetched));
            sink.emit(Event::L2Fill {
                origin: FillOrigin::of(filler, prefetched),
                victim,
                set,
                at: now,
            });
            if prefetched {
                if let Some(class) = PfClass::of(filler) {
                    sink.emit(Event::PrefetchFilled {
                        class,
                        block,
                        set,
                        at: now,
                    });
                }
            }
        }
        // The block is resident again; a future miss on it is a fresh one.
        // A main-thread miss took the block before launching this fill,
        // and an in-flight block cannot be victimised again.
        if filler == Entity::Main {
            debug_assert!(!self.prefetch_victims.contains(&block));
        } else {
            self.take_prefetch_victim(block);
        }
    }

    /// Count one L2 fill into the snapshot ledger: its set, its class if
    /// speculative, and the cycle it landed in `line`. Sizes the per-set
    /// and per-line columns on the first fill after construction.
    #[inline]
    fn ledger_fill(&mut self, set: u32, line: usize, filler: Entity, prefetched: bool, now: Cycle) {
        if self.l2_fill_at.is_empty() {
            self.l2_fill_at = vec![0; self.cfg.l2.lines() as usize];
            self.snap.fills_by_set = vec![0; self.cfg.l2.sets() as usize];
        }
        self.l2_fill_at[line] = now;
        self.snap.fills_by_set[set as usize] += 1;
        if prefetched {
            if let Some(cls) = prefetch_class(filler) {
                self.snap.filled[cls] += 1;
            }
        }
    }

    /// The snapshot half of a completed access's bookkeeping, at the
    /// demand-tick point: fold the MSHR occupancy into the ledger and, on
    /// the main-thread access that completes a window, hand the sink its
    /// snapshot.
    #[inline]
    fn snapshot_tick<S: EventSink>(&mut self, entity: Entity, sink: &mut S) {
        let mshr = self.mshr.len() as u64;
        self.snap.mshr_sum += mshr;
        self.snap.mshr_peak = self.snap.mshr_peak.max(mshr);
        if entity == Entity::Main {
            self.window_refs += 1;
            if self.window_refs == sink.snapshot_plan().every {
                self.window_refs = 0;
                self.deliver_snapshot(sink, false);
            }
        }
    }

    /// Show `sink` the counters so far, then restart the MSHR high-water
    /// mark for the next window.
    fn deliver_snapshot<S: EventSink>(&mut self, sink: &mut S, end: bool) {
        sink.snapshot(&Snapshot {
            stats: &self.stats,
            counters: &self.snap,
            end,
        });
        self.snap.mshr_peak = 0;
    }

    /// Remove `block` from the pollution-candidate set, reporting
    /// whether it was present. The set is empty for long stretches (no
    /// prefetch has evicted demanded data yet), so skip hashing entirely
    /// then.
    #[inline]
    fn take_prefetch_victim(&mut self, block: VAddr) -> bool {
        !self.prefetch_victims.is_empty() && self.prefetch_victims.remove(&block)
    }

    /// Drain every MSHR fill that has completed by `now` into the L2.
    fn drain<S: EventSink>(&mut self, now: Cycle, sink: &mut S) {
        // The overwhelmingly common case: nothing has completed yet.
        if self.mshr.none_ready(now) {
            return;
        }
        // Pop in completion order — installing fills never adds MSHR
        // entries, so the loop drains exactly the entries ready at `now`.
        while let Some(e) = self.mshr.pop_earliest_ready(now) {
            let at = e.ready_at.max(now);
            self.l2_install(e.block, e.requester, e.prefetch, e.store, at, sink);
        }
    }

    /// Start a memory fetch of `block` at `when`; returns its completion
    /// time. The caller must have checked the MSHR has room.
    fn launch_fill(
        &mut self,
        block: VAddr,
        when: Cycle,
        requester: Entity,
        prefetch: bool,
        store: bool,
    ) -> Cycle {
        let start = self.bus.request(when);
        if start > when {
            self.stats.bus_queued += 1;
        }
        let ready_at = start + self.cfg.latency.mem;
        // Bus grants strictly increase and memory latency is constant, so
        // each fill completes after every outstanding one: the MSHR file
        // holds its entries in `ready_at` order.
        debug_assert!(self
            .mshr
            .entries()
            .last()
            .is_none_or(|e| e.ready_at < ready_at));
        self.mshr.allocate_unchecked(InFlight {
            block,
            ready_at,
            requester,
            prefetch,
            store,
        });
        ready_at
    }

    /// Issue a demand access (load or store) by `entity` at `now`.
    ///
    /// # Panics
    /// In debug builds, if `now` is not monotonically non-decreasing
    /// across calls, or if `mref.kind` is `Prefetch` (use
    /// [`prefetch_access`](Self::prefetch_access)).
    pub fn demand_access(&mut self, entity: Entity, mref: MemRef, now: Cycle) -> AccessResult {
        self.access(entity, mref, now, false, &mut NullSink)
    }

    /// [`demand_access`](Self::demand_access) with an event sink
    /// attached. With [`NullSink`] this monomorphizes to exactly the
    /// sink-free path.
    pub fn demand_access_ev<S: EventSink>(
        &mut self,
        entity: Entity,
        mref: MemRef,
        now: Cycle,
        sink: &mut S,
    ) -> AccessResult {
        self.access(entity, mref, now, false, sink)
    }

    /// A helper-thread *load of a delinquent reference*: a real, blocking
    /// load on the helper core (the helper "executes the load's
    /// computation", paper §II.A), whose L2 fill is nevertheless
    /// **speculative** — the line is marked prefetched, its first *main-
    /// thread* touch counts as a useful prefetch, and its eviction before
    /// main-thread use counts as pollution.
    pub fn helper_load(&mut self, mref: MemRef, now: Cycle) -> AccessResult {
        self.helper_load_ev(mref, now, &mut NullSink)
    }

    /// [`helper_load`](Self::helper_load) with an event sink attached.
    pub fn helper_load_ev<S: EventSink>(
        &mut self,
        mref: MemRef,
        now: Cycle,
        sink: &mut S,
    ) -> AccessResult {
        self.stats.prefetches_issued[0] += 1;
        if S::ENABLED {
            sink.emit(Event::PrefetchIssued {
                class: PfClass::Helper,
                block: self.cfg.l2.block_of(mref.vaddr),
                at: now,
            });
        }
        self.access(Entity::Helper, mref, now, true, sink)
    }

    /// The one demand path: `mref` is projected onto this system's L1
    /// and L2 sets here, once per access.
    fn access<S: EventSink>(
        &mut self,
        entity: Entity,
        mref: MemRef,
        now: Cycle,
        speculative: bool,
        sink: &mut S,
    ) -> AccessResult {
        debug_assert!(mref.kind != AccessKind::Prefetch, "use prefetch_access");
        debug_assert!(now >= self.last_now, "accesses must arrive in time order");
        self.last_now = now;
        debug_assert!(matches!(entity, Entity::Main | Entity::Helper));
        self.drain(now, sink);

        let (l1, l2) = (self.cfg.l1, self.cfg.l2);
        let vaddr = mref.vaddr;
        let block = l2.block_of(vaddr);
        let (l1_set, l1_tag) = (l1.set_of(vaddr) as u32, l1.tag_of(vaddr));
        let (l2_set, l2_tag) = (l2.set_of(vaddr) as u32, l2.tag_of(vaddr));
        let core = Self::core_of(entity);
        let is_main = entity == Entity::Main;
        let lat = self.cfg.latency;
        let is_store = mref.kind == AccessKind::Store;

        // L1 probe.
        if self.l1[core].touch_hit_at(l1_set, l1_tag, is_store, true) {
            let result = AccessResult {
                class: HitClass::L1Hit,
                complete_at: now + lat.l1_hit,
            };
            self.note(entity, HitClass::L1Hit, result.latency(now));
            if S::DEMAND_TICKS {
                sink.demand_tick(entity, HitClass::L1Hit, l2_set, self.mshr.len(), now);
            }
            if S::SNAPSHOTS {
                self.snapshot_tick(entity, sink);
            }
            return result;
        }
        let t_l2 = now + lat.l1_hit;

        // L2 probe. Only main-thread touches mark the line *used* (the
        // paper's pollution cases are about data the processor reuses).
        let (class, complete_at) = if let Some((fresh_prefetch, filler, line)) =
            self.l2.touch_classify_at(l2_set, l2_tag, is_store, is_main)
        {
            if is_main && fresh_prefetch {
                if let Some(cls) = prefetch_class(filler) {
                    self.stats.prefetches_useful[cls] += 1;
                    // A never-used prefetched line is exactly a pending
                    // fill: its idle time decides on-time vs early.
                    if S::SNAPSHOTS
                        && now.saturating_sub(self.l2_fill_at[line])
                            > sink.snapshot_plan().early_threshold
                    {
                        self.snap.early += 1;
                    }
                }
                if S::ENABLED {
                    if let Some(class) = PfClass::of(filler) {
                        sink.emit(Event::PrefetchFirstUse {
                            class,
                            block,
                            set: l2_set,
                            at: now,
                        });
                    }
                }
            }
            // Install in the core's L1 (fill-on-L2-hit; the L1 probe
            // above missed, so no second probe); a dirty L1 victim writes
            // through to the L2 if still present there, otherwise
            // straight to memory (non-inclusive hierarchy).
            if let Some(l1_ev) = self.l1[core]
                .insert_at(l1_set, l1_tag, entity, false, false)
                .1
            {
                if l1_ev.dirty && self.l2.touch(l1_ev.block, true, false).is_none() {
                    self.stats.l1_writeback_misses += 1;
                    self.bus.request(t_l2);
                }
            }
            (HitClass::TotalHit, t_l2 + lat.l2_hit)
        } else if let Some(merged) = if is_main {
            // In-flight: the paper's *partially* cache hit. Only a main-
            // thread access converts the fill into a demanded (used) one
            // (a single MSHR scan either way: merge returns None when the
            // block has no entry).
            self.mshr.merge_demand(block, is_store)
        } else {
            self.mshr.lookup(block)
        } {
            if is_main && merged.prefetch {
                if let Some(cls) = prefetch_class(merged.requester) {
                    self.stats.prefetches_useful[cls] += 1;
                    if S::SNAPSHOTS {
                        self.snap.late += 1;
                    }
                }
                // No PrefetchFilled precedes this FirstUse (the fill is
                // still in flight): the summary fold classifies it late.
                if S::ENABLED {
                    if let Some(class) = PfClass::of(merged.requester) {
                        sink.emit(Event::PrefetchFirstUse {
                            class,
                            block,
                            set: l2_set,
                            at: now,
                        });
                    }
                }
            }
            if is_main && self.take_prefetch_victim(block) {
                // An in-flight refetch of a block a prefetch evicted
                // earlier still re-pays (part of) the memory latency.
                self.stats.pollution.reuse_evictions += 1;
                if S::ENABLED {
                    sink.emit(Event::PollutionEviction {
                        case: PollutionCase::Reuse,
                        block,
                        set: l2_set,
                        at: now,
                    });
                }
            }
            (HitClass::PartialHit, merged.ready_at.max(t_l2 + lat.l2_hit))
        } else {
            // Totally miss: wait for MSHR room if the file is full.
            let mut when = t_l2 + lat.l2_hit;
            while self.mshr.is_full() {
                let next = self.mshr.earliest_ready().expect("full file has entries");
                when = when.max(next);
                self.drain(when, sink);
            }
            if is_main && self.take_prefetch_victim(block) {
                self.stats.pollution.reuse_evictions += 1;
                if S::ENABLED {
                    sink.emit(Event::PollutionEviction {
                        case: PollutionCase::Reuse,
                        block,
                        set: l2_set,
                        at: now,
                    });
                }
            }
            let ready = self.launch_fill(block, when, entity, speculative, is_store);
            (HitClass::TotalMiss, ready)
        };

        let result = AccessResult { class, complete_at };
        self.note(entity, class, result.latency(now));
        if S::DEMAND_TICKS {
            sink.demand_tick(entity, class, l2_set, self.mshr.len(), now);
        }
        if S::SNAPSHOTS {
            self.snapshot_tick(entity, sink);
        }

        // Train the core's hardware prefetchers on the post-L1 stream,
        // collecting candidates into the reused scratch buffer (taken out
        // of `self` so issuing can borrow the system mutably). Learned
        // state lives per core.
        if self.cfg.hw_prefetchers {
            let mut cands = std::mem::take(&mut self.hw_cands);
            match self.cfg.hw_backend {
                HwBackend::StreamerDpl => {
                    self.streamers[core].observe(mref.site, block, &mut cands);
                    let n_stream = cands.len();
                    self.dpls[core].observe(mref.site, vaddr, &mut cands);
                    for (i, &b) in cands.iter().enumerate() {
                        let who = if i < n_stream {
                            Entity::HwStream(core as u8)
                        } else {
                            Entity::HwDpl(core as u8)
                        };
                        self.issue_prefetch_block(b, who, t_l2, sink);
                    }
                }
                HwBackend::Streamer => {
                    self.streamers[core].observe(mref.site, block, &mut cands);
                    for &b in &cands {
                        self.issue_prefetch_block(b, Entity::HwStream(core as u8), t_l2, sink);
                    }
                }
                HwBackend::Dpl => {
                    self.dpls[core].observe(mref.site, vaddr, &mut cands);
                    for &b in &cands {
                        self.issue_prefetch_block(b, Entity::HwDpl(core as u8), t_l2, sink);
                    }
                }
                HwBackend::PointerChase => {
                    self.pchases[core].observe(mref.site, block, &mut cands);
                    for &b in &cands {
                        self.issue_prefetch_block(b, Entity::HwPchase(core as u8), t_l2, sink);
                    }
                }
                HwBackend::Perceptron => {
                    self.perceptrons[core].observe(mref.site, vaddr, &mut cands);
                    for &b in &cands {
                        self.issue_prefetch_block(b, Entity::HwPerceptron(core as u8), t_l2, sink);
                    }
                }
            }
            cands.clear();
            self.hw_cands = cands;
        }
        result
    }

    /// Issue a software prefetch by the helper thread at `now`. The
    /// issuing core does not stall; the returned `complete_at` covers only
    /// the issue cost.
    pub fn prefetch_access(&mut self, mref: MemRef, now: Cycle) -> AccessResult {
        self.prefetch_access_ev(mref, now, &mut NullSink)
    }

    /// [`prefetch_access`](Self::prefetch_access) with an event sink
    /// attached.
    pub fn prefetch_access_ev<S: EventSink>(
        &mut self,
        mref: MemRef,
        now: Cycle,
        sink: &mut S,
    ) -> AccessResult {
        debug_assert!(now >= self.last_now, "accesses must arrive in time order");
        self.last_now = now;
        self.drain(now, sink);
        self.stats.prefetches_issued[0] += 1;
        let block = self.cfg.l2.block_of(mref.vaddr);
        // Issued is emitted even when the prefetch is dropped (already
        // cached, in flight, MSHR full) — mirroring `prefetches_issued`.
        if S::ENABLED {
            sink.emit(Event::PrefetchIssued {
                class: PfClass::Helper,
                block,
                at: now,
            });
        }
        self.issue_prefetch(block, Entity::Helper, now);
        AccessResult {
            class: HitClass::L1Hit,
            complete_at: now + self.cfg.latency.prefetch_issue,
        }
    }

    /// Route a hardware-prefetcher candidate into the L2.
    fn issue_prefetch_block<S: EventSink>(
        &mut self,
        block: VAddr,
        who: Entity,
        now: Cycle,
        sink: &mut S,
    ) {
        if let Some(cls) = prefetch_class(who) {
            self.stats.prefetches_issued[cls] += 1;
        }
        if S::ENABLED {
            if let Some(class) = PfClass::of(who) {
                sink.emit(Event::PrefetchIssued {
                    class,
                    block,
                    at: now,
                });
            }
        }
        self.issue_prefetch(block, who, now);
    }

    /// Shared prefetch path: drop if already cached, in flight, or no
    /// MSHR room (prefetches never stall anyone).
    fn issue_prefetch(&mut self, block: VAddr, who: Entity, now: Cycle) {
        let l2 = self.cfg.l2;
        if self.l2.promote(l2.set_of(block) as u32, l2.tag_of(block)) {
            // Present: promoted so an imminent reuse isn't evicted
            // (prefetch hint), exactly as a refill of a cached block would.
            return;
        }
        if self.mshr.lookup(block).is_some() || self.mshr.is_full() {
            return;
        }
        self.launch_fill(block, now, who, true, false);
    }

    fn note(&mut self, entity: Entity, class: HitClass, latency: Cycle) {
        let t = match entity {
            Entity::Main => &mut self.stats.main,
            Entity::Helper => &mut self.stats.helper,
            _ => return,
        };
        match class {
            HitClass::L1Hit => t.l1_hits += 1,
            HitClass::TotalHit => t.total_hits += 1,
            HitClass::PartialHit => t.partial_hits += 1,
            HitClass::TotalMiss => t.total_misses += 1,
        }
        t.stall_cycles += latency;
    }

    /// Finish outstanding fills and return the final statistics, leaving
    /// the system alive (typically to be [`reset`](Self::reset) and
    /// reused). The bus-occupancy snapshot is taken *before* the final
    /// drain, like [`finish`](Self::finish) always has.
    pub fn finish_stats(&mut self) -> MemStats {
        self.finish_stats_ev(&mut NullSink)
    }

    /// [`finish_stats`](Self::finish_stats) with an event sink attached;
    /// fills landing in this final drain carry `at = u64::MAX` (they
    /// complete after the last access). A snapshotting sink gets its
    /// final snapshot after the drain.
    pub fn finish_stats_ev<S: EventSink>(&mut self, sink: &mut S) -> MemStats {
        let _sp = sp_obs::span!("fold");
        self.stats.bus_busy_cycles = self.bus.busy_cycles();
        self.drain(Cycle::MAX, sink);
        if S::SNAPSHOTS {
            self.deliver_snapshot(sink, true);
        }
        self.stats.clone()
    }

    /// Finish outstanding fills and return the final statistics.
    pub fn finish(mut self) -> MemStats {
        self.finish_stats()
    }

    /// Snapshot of bus counters.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CacheGeometry;

    /// A tiny, prefetcher-free config for deterministic unit tests:
    /// L1 = 2 sets x 2 ways, L2 = 4 sets x 2 ways, 64B lines.
    fn tiny_cfg() -> CacheConfig {
        CacheConfig {
            cores: 2,
            l1: CacheGeometry::new(256, 2, 64),
            l2: CacheGeometry::new(512, 2, 64),
            hw_prefetchers: false,
            mshr_entries: 2,
            ..CacheConfig::scaled_default()
        }
    }

    fn load(addr: VAddr) -> MemRef {
        MemRef::anon(addr)
    }

    #[test]
    fn cold_miss_then_l2_hit_then_l1_hit() {
        let mut m = MemorySystem::new(tiny_cfg());
        let lat = m.config().latency;
        let r1 = m.demand_access(Entity::Main, load(0x1000), 0);
        assert_eq!(r1.class, HitClass::TotalMiss);
        assert_eq!(r1.complete_at, lat.full_miss());
        // After completion the block is in L2 (drained on next access);
        // the L1 fills on this L2 hit.
        let t2 = r1.complete_at + 10;
        let r2 = m.demand_access(Entity::Main, load(0x1000), t2);
        assert_eq!(r2.class, HitClass::TotalHit);
        assert_eq!(r2.complete_at, t2 + lat.l2_total());
        let t3 = r2.complete_at + 10;
        let r3 = m.demand_access(Entity::Main, load(0x1000), t3);
        assert_eq!(r3.class, HitClass::L1Hit);
        assert_eq!(r3.complete_at, t3 + lat.l1_hit);
        let s = m.finish();
        assert_eq!(s.main.total_misses, 1);
        assert_eq!(s.main.total_hits, 1);
        assert_eq!(s.main.l1_hits, 1);
        assert_eq!(s.main.memory_accesses(), 1);
    }

    #[test]
    fn helper_prefetch_turns_main_miss_into_total_hit() {
        let mut m = MemorySystem::new(tiny_cfg());
        let p = m.prefetch_access(load(0x2000), 0);
        assert_eq!(p.complete_at, m.config().latency.prefetch_issue);
        // Wait for the fill to land, then the main thread hits.
        let t = m.config().latency.mem + 100;
        let r = m.demand_access(Entity::Main, load(0x2000), t);
        assert_eq!(r.class, HitClass::TotalHit);
        let s = m.finish();
        assert_eq!(s.prefetches_issued[0], 1);
        assert_eq!(
            s.prefetches_useful[0], 1,
            "first demand touch counts usefulness"
        );
    }

    #[test]
    fn late_prefetch_gives_partial_hit() {
        let mut m = MemorySystem::new(tiny_cfg());
        m.prefetch_access(load(0x2000), 0);
        // Access while the fill is still in flight.
        let r = m.demand_access(Entity::Main, load(0x2000), 5);
        assert_eq!(r.class, HitClass::PartialHit);
        // Completion equals the prefetch's ready time (latency partly hidden).
        assert!(r.complete_at < 5 + m.config().latency.full_miss());
        let s = m.finish();
        assert_eq!(s.main.partial_hits, 1);
        assert_eq!(
            s.prefetches_useful[0], 1,
            "late prefetches are still useful"
        );
    }

    #[test]
    fn two_threads_same_block_merge_into_one_fill() {
        let mut m = MemorySystem::new(tiny_cfg());
        let r1 = m.demand_access(Entity::Helper, load(0x3000), 0);
        assert_eq!(r1.class, HitClass::TotalMiss);
        let r2 = m.demand_access(Entity::Main, load(0x3000), 1);
        assert_eq!(r2.class, HitClass::PartialHit);
        let s = m.finish();
        assert_eq!(s.l2_fills, 1, "one fill serves both");
    }

    #[test]
    fn mshr_full_stalls_demand_until_room() {
        let mut m = MemorySystem::new(tiny_cfg()); // 2 MSHRs
        let r1 = m.demand_access(Entity::Main, load(0x1000), 0);
        let _ = m.demand_access(Entity::Helper, load(0x2000), 0); // same cycle ok (>=)
                                                                  // Third distinct miss must wait for an earlier fill to complete.
        let r3 = m.demand_access(Entity::Main, load(0x4000), 1);
        assert_eq!(r3.class, HitClass::TotalMiss);
        assert!(
            r3.complete_at >= r1.complete_at,
            "stalled behind MSHR drain"
        );
    }

    #[test]
    fn bus_contention_delays_second_fill() {
        let mut m = MemorySystem::new(tiny_cfg());
        let lat = m.config().latency;
        let r1 = m.demand_access(Entity::Main, load(0x1000), 0);
        let r2 = m.demand_access(Entity::Main, load(0x8000), 0);
        assert_eq!(r2.complete_at, r1.complete_at + lat.bus_service);
        let s = m.finish();
        assert_eq!(s.bus_queued, 1);
    }

    #[test]
    fn pollution_case1_reuse_eviction_detected() {
        let mut m = MemorySystem::new(tiny_cfg());
        // L2: 4 sets x 2 ways. Blocks 0x0000, 0x0400, 0x0800 all map to set 0
        // (set stride = 4 sets * 64B = 256B; use multiples of 0x400 = 4*256).
        let a = 0x0000;
        let b = 0x1000;
        let c = 0x2000;
        assert_eq!(m.config().l2.set_of(a), m.config().l2.set_of(b));
        assert_eq!(m.config().l2.set_of(b), m.config().l2.set_of(c));
        // Main loads a and b (set 0 now full of demanded data).
        let r = m.demand_access(Entity::Main, load(a), 0);
        let mut t = r.complete_at + 1;
        let r = m.demand_access(Entity::Main, load(b), t);
        t = r.complete_at + 1;
        // Helper prefetches c -> evicts LRU (a), a case-1 candidate.
        m.prefetch_access(load(c), t);
        t += m.config().latency.mem + m.config().latency.bus_service + 10;
        // Main re-misses on a: counted as a reuse (case 1) pollution event.
        let r = m.demand_access(Entity::Main, load(a), t);
        assert_eq!(r.class, HitClass::TotalMiss);
        let s = m.finish();
        assert_eq!(s.pollution.reuse_evictions, 1);
    }

    #[test]
    fn pollution_case2_unused_helper_line_displaced_by_prefetch() {
        let mut m = MemorySystem::new(tiny_cfg());
        let (a, b, c) = (0x0000, 0x1000, 0x2000);
        // Helper prefetches a and b into set 0; never demanded.
        m.prefetch_access(load(a), 0);
        m.prefetch_access(load(b), 1);
        let mut t = m.config().latency.mem + 200;
        m.demand_access(Entity::Main, load(0x40), t); // unrelated; drains fills
        t += 1000;
        // Third helper prefetch evicts an unused helper line: case 2.
        m.prefetch_access(load(c), t);
        t += m.config().latency.mem + 200;
        m.demand_access(Entity::Main, load(0x40), t); // drain
        let s = m.finish();
        assert_eq!(s.pollution.unused_helper_evictions, 1);
        assert!(s.pollution.dead_prefetches >= 1);
    }

    #[test]
    fn eviction_by_demand_is_not_counted_as_pollution() {
        let mut m = MemorySystem::new(tiny_cfg());
        let (a, b, c) = (0x0000, 0x1000, 0x2000);
        let mut t = 0;
        for addr in [a, b, c] {
            let r = m.demand_access(Entity::Main, load(addr), t);
            t = r.complete_at + 1;
        }
        // c evicted a (demand evicting demand). Re-miss on a: no pollution.
        let r = m.demand_access(Entity::Main, load(a), t);
        assert_eq!(r.class, HitClass::TotalMiss);
        let s = m.finish();
        assert_eq!(s.pollution.reuse_evictions, 0);
        assert_eq!(s.pollution.total(), 0);
    }

    #[test]
    fn hw_streamer_prefetches_sequential_stream() {
        let mut cfg = tiny_cfg();
        cfg.hw_prefetchers = true;
        let mut m = MemorySystem::new(cfg);
        let mut t = 0;
        for i in 0..4u64 {
            let r = m.demand_access(Entity::Main, load(i * 64), t);
            t = r.complete_at + 1;
        }
        let s = m.finish();
        assert!(
            s.prefetches_issued[1] > 0,
            "streamer must fire on a sequential scan"
        );
    }

    #[test]
    fn stats_classes_partition_accesses() {
        let mut m = MemorySystem::new(tiny_cfg());
        let mut t = 0;
        for i in 0..50u64 {
            let r = m.demand_access(Entity::Main, load((i % 7) * 64 * 13), t);
            t = r.complete_at + 1;
        }
        let s = m.finish();
        assert_eq!(s.main.demand_accesses(), 50);
    }

    #[test]
    fn inclusive_l2_back_invalidates_l1() {
        let cfg = tiny_cfg().inclusive();
        let mut m = MemorySystem::new(cfg);
        // L2: 4 sets x 2 ways; set-0 conflicts at 0x1000 strides... use
        // three blocks mapping to the same L2 set.
        let (a, b, c) = (0x0000u64, 0x1000, 0x2000);
        assert_eq!(m.config().l2.set_of(a), m.config().l2.set_of(c));
        let mut t = 0;
        // Load a twice: second access L2-hits and fills the L1.
        for _ in 0..2 {
            let r = m.demand_access(Entity::Main, load(a), t);
            t = r.complete_at + 1;
        }
        let r = m.demand_access(Entity::Main, load(a), t);
        assert_eq!(r.class, HitClass::L1Hit, "a should now live in L1");
        t = r.complete_at + 1;
        // Fill b and c: c's fill evicts a from the L2, which must also
        // purge it from the L1 under inclusion.
        for addr in [b, c] {
            let r = m.demand_access(Entity::Main, load(addr), t);
            t = r.complete_at + 1;
        }
        let r = m.demand_access(Entity::Main, load(a), t);
        assert_eq!(
            r.class,
            HitClass::TotalMiss,
            "back-invalidation must have removed a from the L1 too"
        );
    }

    #[test]
    fn non_inclusive_l1_survives_l2_eviction() {
        let mut m = MemorySystem::new(tiny_cfg()); // non-inclusive default
        let (a, b, c) = (0x0000u64, 0x1000, 0x2000);
        let mut t = 0;
        for _ in 0..2 {
            let r = m.demand_access(Entity::Main, load(a), t);
            t = r.complete_at + 1;
        }
        for addr in [b, c] {
            let r = m.demand_access(Entity::Main, load(addr), t);
            t = r.complete_at + 1;
        }
        let r = m.demand_access(Entity::Main, load(a), t);
        assert_eq!(r.class, HitClass::L1Hit, "non-inclusive L1 keeps the line");
    }

    #[test]
    fn reset_reproduces_a_fresh_run_bit_for_bit() {
        let mut cfg = tiny_cfg();
        cfg.hw_prefetchers = true; // exercise prefetcher state too
        let run = |m: &mut MemorySystem| {
            let mut t = 0;
            for i in 0..40u64 {
                let r = m.demand_access(Entity::Main, load((i % 9) * 64 * 5), t);
                t = r.complete_at + 1;
                if i % 4 == 0 {
                    m.prefetch_access(load(i * 128), t);
                    t += 1;
                }
            }
            m.finish_stats()
        };
        let mut reused = MemorySystem::new(cfg);
        let first = run(&mut reused);
        reused.reset();
        let second = run(&mut reused);
        assert_eq!(first, second, "reset must erase all history");
        let fresh = run(&mut MemorySystem::new(cfg));
        assert_eq!(first, fresh, "reset must equal a fresh build");
    }

    /// Drive a mixed main/helper workload with conflict misses through a
    /// sink, returning the final stats and the sink.
    fn eventful_run<S: crate::events::EventSink>(m: &mut MemorySystem, sink: &mut S) -> MemStats {
        let mut t = 0;
        for i in 0..60u64 {
            let mref = load((i % 9) * 64 * 5);
            let r = match i % 3 {
                0 => m.demand_access_ev(Entity::Main, mref, t, sink),
                1 => m.helper_load_ev(mref, t, sink),
                _ => m.prefetch_access_ev(mref, t, sink),
            };
            t = r.complete_at + 1;
        }
        m.finish_stats_ev(sink)
    }

    #[test]
    fn event_fold_matches_counters_and_sink_does_not_perturb_stats() {
        let mut cfg = tiny_cfg();
        cfg.hw_prefetchers = true;
        let mut sink = crate::events::RingSink::new(0, 1600);
        let observed = eventful_run(&mut MemorySystem::new(cfg), &mut sink);
        let baseline = eventful_run(&mut MemorySystem::new(cfg), &mut crate::events::NullSink);
        assert_eq!(observed, baseline, "attaching a sink must not change stats");

        let s = &sink.summary.counts;
        assert_eq!(s.pollution_stats(), observed.pollution);
        assert_eq!(s.issued, observed.prefetches_issued);
        assert_eq!(s.first_uses, observed.prefetches_useful);
        let fills: u64 = sink
            .per_set
            .values()
            .map(crate::events::SetPressure::total_fills)
            .sum();
        assert_eq!(fills, observed.l2_fills);

        // Replaying the buffered stream reproduces the running fold and
        // the per-set tally.
        let mut refold = crate::events::RingSink::new(0, 1600);
        for ev in sink.events() {
            refold.emit(*ev);
        }
        assert_eq!(refold.summary, sink.summary);
        assert_eq!(refold.per_set, sink.per_set);
        assert!(s.issued[0] > 0 && fills > 0, "workload must be eventful");
    }

    #[test]
    fn case1_pollution_emits_reuse_eviction_event() {
        let mut m = MemorySystem::new(tiny_cfg());
        let mut sink = crate::events::RingSink::new(0, 1600);
        let (a, b, c) = (0x0000, 0x1000, 0x2000);
        let mut t = 0;
        for addr in [a, b] {
            t = m
                .demand_access_ev(Entity::Main, load(addr), t, &mut sink)
                .complete_at
                + 1;
        }
        m.prefetch_access_ev(load(c), t, &mut sink);
        t += m.config().latency.mem + m.config().latency.bus_service + 10;
        m.demand_access_ev(Entity::Main, load(a), t, &mut sink);
        let s = m.finish_stats_ev(&mut sink);
        assert_eq!(s.pollution.reuse_evictions, 1);
        let reuse_events: Vec<_> = sink
            .events()
            .filter(|e| {
                matches!(
                    e,
                    Event::PollutionEviction {
                        case: PollutionCase::Reuse,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(reuse_events.len(), 1);
        match reuse_events[0] {
            Event::PollutionEviction { block, set, .. } => {
                assert_eq!(*block, m.config().l2.block_of(a));
                assert_eq!(*set, m.config().l2.set_of(a) as u32);
            }
            _ => unreachable!(),
        }
    }

    /// Every MSHR allocation completes after every outstanding fill, so
    /// the file's allocation order is its `ready_at` order — on both
    /// benchmark machines, under seeded main/helper/prefetch streams that
    /// queue on the bus and fill the file.
    #[test]
    fn mshr_allocations_land_in_ready_order() {
        let mut small_l2 = CacheConfig::scaled_default().with_hw_backend(HwBackend::PointerChase);
        small_l2.l2 = crate::geometry::CacheGeometry::new(8 * 1024, 4, small_l2.l2.line_size);
        for cfg in [CacheConfig::scaled_default(), small_l2] {
            for seed in 0..4 {
                let mut m = MemorySystem::new(cfg);
                let mut rng = sp_trace::SmallRng::seed_from_u64(seed);
                let (mut t, mut full) = (0, 0);
                for _ in 0..20_000 {
                    // Short sequential runs (streamer food) over a
                    // footprint four times the L2.
                    let addr = rng.gen_range(0..cfg.l2.size_bytes * 4) & !63;
                    for k in 0..rng.gen_range(1u64..4) {
                        let mref = load(addr + 64 * k);
                        match rng.gen_range(0u32..4) {
                            0 | 1 => m.demand_access(Entity::Main, mref, t),
                            2 => m.helper_load(mref, t),
                            _ => m.prefetch_access(mref, t),
                        };
                        t += rng.gen_range(0u64..24);
                        let e = m.mshr.entries();
                        assert!(e.windows(2).all(|w| w[0].ready_at < w[1].ready_at));
                        full += u64::from(m.mshr.is_full());
                    }
                }
                assert!(full > 0, "the stream must fill the MSHR file");
                assert!(m.stats().bus_queued > 0, "the stream must queue on the bus");
            }
        }
    }

    #[test]
    fn prefetch_to_cached_block_is_a_noop_promotion() {
        let mut m = MemorySystem::new(tiny_cfg());
        let r = m.demand_access(Entity::Main, load(0x1000), 0);
        let t = r.complete_at + 1;
        let r2 = m.demand_access(Entity::Main, load(0x1000), t); // now in L2
        assert_eq!(r2.class, HitClass::TotalHit);
        let t = r2.complete_at + 1;
        m.prefetch_access(load(0x1000), t);
        let s = m.finish();
        assert_eq!(s.l2_fills, 1, "prefetch hit must not refill");
    }
}
