//! Executable specification of the memory hierarchy.
//!
//! [`SpecSystem`] is a slow, obviously correct model of
//! [`MemorySystem`]: per-set recency lists (front = most recent) for
//! the L1s and the L2, the in-flight fills as a plain list in allocation
//! order whose drain picks the earliest-completing entry by a scan, the
//! bus as one next-free cycle, and the pollution candidates as a plain
//! set. It has no SoA, no ranks, no cached minima, no ordered MSHR file
//! and no early exits; it reuses only the production hardware
//! prefetchers, which their own tests check.
//!
//! Seeded sp-testkit scripts mix main-thread and helper loads and
//! stores, helper prefetches and hardware-prefetcher traffic on small
//! random geometries (LRU or FIFO L2, MSHR files of 1–16 entries, both
//! inclusion policies, every hardware backend or none). Every call's
//! [`AccessResult`] and the final [`MemStats`] must agree. Release
//! builds run eight times the debug case budget.

use sp_cachesim::prefetcher::{
    DplPrefetcher, HwPrefetcher, PerceptronPrefetcher, PointerChasePrefetcher, StreamPrefetcher,
};
use sp_cachesim::{
    AccessResult, CacheConfig, CacheGeometry, Cycle, Entity, HitClass, HwBackend, Inclusion,
    MemStats, MemorySystem, Policy,
};
use sp_testkit::{check, SmallRng};
use sp_trace::{AccessKind, MemRef, SiteId, VAddr};
use std::collections::HashSet;

/// Debug builds run this many scripts per test; release builds eight
/// times as many.
const CASES: u64 = if cfg!(debug_assertions) { 128 } else { 1024 };

/// One cached line of the model.
#[derive(Debug, Clone, Copy)]
struct SpecLine {
    block: VAddr,
    filler: Entity,
    prefetched: bool,
    used: bool,
    dirty: bool,
}

/// One cache level: a recency list per set, most recent first.
struct SpecCache {
    geo: CacheGeometry,
    /// `true`: hits do not reorder (FIFO); fills and promotions do.
    fifo: bool,
    sets: Vec<Vec<SpecLine>>,
}

impl SpecCache {
    fn new(geo: CacheGeometry, policy: Policy) -> Self {
        let fifo = match policy {
            Policy::Lru => false,
            Policy::Fifo => true,
            _ => panic!("the spec models LRU and FIFO"),
        };
        SpecCache {
            geo,
            fifo,
            sets: vec![Vec::new(); geo.sets() as usize],
        }
    }

    fn set(&mut self, block: VAddr) -> &mut Vec<SpecLine> {
        &mut self.sets[self.geo.set_of(block) as usize]
    }

    fn pos(&mut self, block: VAddr) -> Option<usize> {
        self.set(block).iter().position(|l| l.block == block)
    }

    fn contains(&mut self, block: VAddr) -> bool {
        self.pos(block).is_some()
    }

    fn move_to_front(&mut self, block: VAddr, i: usize) {
        let set = self.set(block);
        let line = set.remove(i);
        set.insert(0, line);
    }

    /// A hit: returns the line as it was before the touch.
    fn touch(&mut self, block: VAddr, store: bool, mark_used: bool) -> Option<SpecLine> {
        let i = self.pos(block)?;
        let set = self.set(block);
        let before = set[i];
        set[i].dirty |= store;
        set[i].used |= mark_used;
        if !self.fifo {
            self.move_to_front(block, i);
        }
        Some(before)
    }

    /// A prefetch hint to a present block moves it to the front under
    /// either policy.
    fn promote(&mut self, block: VAddr) -> bool {
        match self.pos(block) {
            Some(i) => {
                self.move_to_front(block, i);
                true
            }
            None => false,
        }
    }

    /// Install an absent block at the front, evicting the back of a full
    /// set.
    fn insert(&mut self, line: SpecLine) -> Option<SpecLine> {
        assert!(
            !self.contains(line.block),
            "spec inserts absent blocks only"
        );
        let ways = self.geo.ways as usize;
        let set = self.set(line.block);
        let victim = if set.len() == ways { set.pop() } else { None };
        set.insert(0, line);
        victim
    }

    fn invalidate(&mut self, block: VAddr) {
        if let Some(i) = self.pos(block) {
            self.set(block).remove(i);
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct SpecFill {
    block: VAddr,
    ready_at: Cycle,
    requester: Entity,
    prefetch: bool,
    store: bool,
}

/// The whole hierarchy, modelled naively.
struct SpecSystem {
    cfg: CacheConfig,
    l1: Vec<SpecCache>,
    l2: SpecCache,
    /// Outstanding fills in allocation order.
    inflight: Vec<SpecFill>,
    bus_next_free: Cycle,
    bus_busy: Cycle,
    victims: HashSet<VAddr>,
    streamers: Vec<StreamPrefetcher>,
    dpls: Vec<DplPrefetcher>,
    pchases: Vec<PointerChasePrefetcher>,
    perceptrons: Vec<PerceptronPrefetcher>,
    stats: MemStats,
}

fn class_of(e: Entity) -> Option<usize> {
    match e {
        Entity::Main => None,
        Entity::Helper => Some(0),
        Entity::HwStream(_) => Some(1),
        Entity::HwDpl(_) => Some(2),
        Entity::HwPchase(_) => Some(3),
        Entity::HwPerceptron(_) => Some(4),
    }
}

impl SpecSystem {
    fn new(cfg: CacheConfig) -> Self {
        let line = cfg.l2.line_size;
        SpecSystem {
            cfg,
            l1: (0..cfg.cores)
                .map(|_| SpecCache::new(cfg.l1, Policy::Lru))
                .collect(),
            l2: SpecCache::new(cfg.l2, cfg.policy),
            inflight: Vec::new(),
            bus_next_free: 0,
            bus_busy: 0,
            victims: HashSet::new(),
            streamers: (0..cfg.cores)
                .map(|_| StreamPrefetcher::new(cfg.stream_slots, cfg.stream_degree, line))
                .collect(),
            dpls: (0..cfg.cores)
                .map(|_| DplPrefetcher::new(cfg.dpl_entries, cfg.dpl_degree, line))
                .collect(),
            pchases: (0..cfg.cores)
                .map(|_| PointerChasePrefetcher::new(cfg.pchase_entries, cfg.pchase_depth))
                .collect(),
            perceptrons: (0..cfg.cores)
                .map(|_| PerceptronPrefetcher::new(cfg.dpl_entries, 32, cfg.dpl_degree, line))
                .collect(),
            stats: MemStats::default(),
        }
    }

    /// One bus transfer requested at `now`; returns its start cycle.
    fn bus(&mut self, now: Cycle) -> Cycle {
        let start = now.max(self.bus_next_free);
        self.bus_next_free = start.saturating_add(self.cfg.latency.bus_service);
        self.bus_busy += self.cfg.latency.bus_service;
        start
    }

    fn install(&mut self, f: SpecFill, now: Cycle) {
        let line = SpecLine {
            block: f.block,
            filler: f.requester,
            prefetched: f.prefetch,
            used: !f.prefetch,
            dirty: f.store,
        };
        if let Some(ev) = self.l2.insert(line) {
            self.stats.l2_evictions += 1;
            if self.cfg.inclusion == Inclusion::Inclusive {
                for l1 in &mut self.l1 {
                    l1.invalidate(ev.block);
                }
            }
            if ev.dirty {
                self.stats.writebacks += 1;
                self.bus(now);
            }
            let by_prefetch = f.prefetch && f.requester != Entity::Main;
            if ev.prefetched && !ev.used {
                self.stats.pollution.dead_prefetches += 1;
                if by_prefetch {
                    match ev.filler {
                        Entity::Main => {}
                        Entity::Helper => self.stats.pollution.unused_helper_evictions += 1,
                        _ => self.stats.pollution.unused_hw_evictions += 1,
                    }
                }
            } else if by_prefetch {
                self.victims.insert(ev.block);
            }
        }
        self.stats.l2_fills += 1;
        self.stats.l2_fills_by[class_of(f.requester).map_or(0, |c| c + 1)] += 1;
        self.victims.remove(&f.block);
    }

    /// Install every fill completed by `now`, earliest first, ties in
    /// allocation order.
    fn drain(&mut self, now: Cycle) {
        loop {
            let mut best: Option<usize> = None;
            for (i, f) in self.inflight.iter().enumerate() {
                if f.ready_at <= now && best.is_none_or(|b| f.ready_at < self.inflight[b].ready_at)
                {
                    best = Some(i);
                }
            }
            let Some(i) = best else { return };
            let f = self.inflight.remove(i);
            self.install(f, f.ready_at.max(now));
        }
    }

    fn launch(
        &mut self,
        block: VAddr,
        when: Cycle,
        requester: Entity,
        prefetch: bool,
        store: bool,
    ) -> Cycle {
        let start = self.bus(when);
        if start > when {
            self.stats.bus_queued += 1;
        }
        let ready_at = start + self.cfg.latency.mem;
        self.inflight.push(SpecFill {
            block,
            ready_at,
            requester,
            prefetch,
            store,
        });
        ready_at
    }

    fn issue_prefetch(&mut self, block: VAddr, who: Entity, now: Cycle) {
        if self.l2.promote(block) {
            return;
        }
        if self.inflight.iter().any(|f| f.block == block)
            || self.inflight.len() >= self.cfg.mshr_entries
        {
            return;
        }
        self.launch(block, now, who, true, false);
    }

    fn note(&mut self, entity: Entity, class: HitClass, latency: Cycle) {
        let t = if entity == Entity::Main {
            &mut self.stats.main
        } else {
            &mut self.stats.helper
        };
        match class {
            HitClass::L1Hit => t.l1_hits += 1,
            HitClass::TotalHit => t.total_hits += 1,
            HitClass::PartialHit => t.partial_hits += 1,
            HitClass::TotalMiss => t.total_misses += 1,
        }
        t.stall_cycles += latency;
    }

    fn access(
        &mut self,
        entity: Entity,
        mref: MemRef,
        now: Cycle,
        speculative: bool,
    ) -> AccessResult {
        self.drain(now);
        let lat = self.cfg.latency;
        let block = self.cfg.l2.block_of(mref.vaddr);
        let core = usize::from(entity != Entity::Main);
        let is_main = entity == Entity::Main;
        let store = mref.kind == AccessKind::Store;

        if self.l1[core].touch(block, store, true).is_some() {
            let complete_at = now + lat.l1_hit;
            self.note(entity, HitClass::L1Hit, lat.l1_hit);
            return AccessResult {
                class: HitClass::L1Hit,
                complete_at,
            };
        }
        let t_l2 = now + lat.l1_hit;
        let (class, complete_at) = if let Some(before) = self.l2.touch(block, store, is_main) {
            if is_main && before.prefetched && !before.used {
                if let Some(c) = class_of(before.filler) {
                    self.stats.prefetches_useful[c] += 1;
                }
            }
            let fill = SpecLine {
                block,
                filler: entity,
                prefetched: false,
                used: true,
                dirty: false,
            };
            if let Some(ev) = self.l1[core].insert(fill) {
                if ev.dirty && self.l2.touch(ev.block, true, false).is_none() {
                    self.stats.l1_writeback_misses += 1;
                    self.bus(t_l2);
                }
            }
            (HitClass::TotalHit, t_l2 + lat.l2_hit)
        } else if let Some(i) = self.inflight.iter().position(|f| f.block == block) {
            let was_prefetch = self.inflight[i].prefetch;
            if is_main {
                self.inflight[i].prefetch = false;
                self.inflight[i].store |= store;
                if was_prefetch {
                    if let Some(c) = class_of(self.inflight[i].requester) {
                        self.stats.prefetches_useful[c] += 1;
                    }
                }
                if self.victims.remove(&block) {
                    self.stats.pollution.reuse_evictions += 1;
                }
            }
            let ready_at = self.inflight[i].ready_at;
            (HitClass::PartialHit, ready_at.max(t_l2 + lat.l2_hit))
        } else {
            let mut when = t_l2 + lat.l2_hit;
            while self.inflight.len() >= self.cfg.mshr_entries {
                let earliest = self.inflight.iter().map(|f| f.ready_at).min().unwrap();
                when = when.max(earliest);
                self.drain(when);
            }
            if is_main && self.victims.remove(&block) {
                self.stats.pollution.reuse_evictions += 1;
            }
            (
                HitClass::TotalMiss,
                self.launch(block, when, entity, speculative, store),
            )
        };
        self.note(entity, class, complete_at - now);

        if self.cfg.hw_prefetchers {
            let mut cands = Vec::new();
            let (site, vaddr) = (mref.site, mref.vaddr);
            let c = core as u8;
            let issue = |this: &mut Self, cands: &[VAddr], who: Entity| {
                for &b in cands {
                    this.stats.prefetches_issued[class_of(who).unwrap()] += 1;
                    this.issue_prefetch(b, who, t_l2);
                }
            };
            match self.cfg.hw_backend {
                HwBackend::StreamerDpl => {
                    self.streamers[core].observe(site, block, &mut cands);
                    let mut dpl = Vec::new();
                    self.dpls[core].observe(site, vaddr, &mut dpl);
                    issue(self, &cands, Entity::HwStream(c));
                    issue(self, &dpl, Entity::HwDpl(c));
                }
                HwBackend::Streamer => {
                    self.streamers[core].observe(site, block, &mut cands);
                    issue(self, &cands, Entity::HwStream(c));
                }
                HwBackend::Dpl => {
                    self.dpls[core].observe(site, vaddr, &mut cands);
                    issue(self, &cands, Entity::HwDpl(c));
                }
                HwBackend::PointerChase => {
                    self.pchases[core].observe(site, block, &mut cands);
                    issue(self, &cands, Entity::HwPchase(c));
                }
                HwBackend::Perceptron => {
                    self.perceptrons[core].observe(site, vaddr, &mut cands);
                    issue(self, &cands, Entity::HwPerceptron(c));
                }
            }
        }
        AccessResult { class, complete_at }
    }

    fn demand(&mut self, entity: Entity, mref: MemRef, now: Cycle) -> AccessResult {
        self.access(entity, mref, now, false)
    }

    fn helper_load(&mut self, mref: MemRef, now: Cycle) -> AccessResult {
        self.stats.prefetches_issued[0] += 1;
        self.access(Entity::Helper, mref, now, true)
    }

    fn prefetch(&mut self, mref: MemRef, now: Cycle) -> AccessResult {
        self.drain(now);
        self.stats.prefetches_issued[0] += 1;
        let block = self.cfg.l2.block_of(mref.vaddr);
        self.issue_prefetch(block, Entity::Helper, now);
        AccessResult {
            class: HitClass::L1Hit,
            complete_at: now + self.cfg.latency.prefetch_issue,
        }
    }

    /// Bus occupancy is read before the last fills land.
    fn finish(&mut self) -> MemStats {
        self.stats.bus_busy_cycles = self.bus_busy;
        self.drain(Cycle::MAX);
        self.stats.clone()
    }
}

/// A small random machine: LRU or FIFO L2, 1–16 MSHRs, either
/// inclusion policy, any hardware backend or none, and a random latency
/// model tight enough to queue on the bus and fill the MSHR file.
fn machine(rng: &mut SmallRng) -> CacheConfig {
    let pow2 = |rng: &mut SmallRng, max_log: u32| 1u64 << rng.gen_range(0..=max_log);
    let line = 64;
    let (l1_sets, l1_ways) = (pow2(rng, 2), pow2(rng, 2));
    let (l2_sets, l2_ways) = (pow2(rng, 3), pow2(rng, 4));
    let mut cfg = CacheConfig {
        cores: 2,
        l1: CacheGeometry::new(l1_sets * l1_ways * line, l1_ways as u32, line),
        l2: CacheGeometry::new(l2_sets * l2_ways * line, l2_ways as u32, line),
        policy: if rng.gen_bool(0.5) {
            Policy::Lru
        } else {
            Policy::Fifo
        },
        inclusion: if rng.gen_bool(0.5) {
            Inclusion::Inclusive
        } else {
            Inclusion::NonInclusive
        },
        mshr_entries: rng.gen_range(1usize..=16),
        hw_prefetchers: false,
        stream_slots: rng.gen_range(1usize..=4),
        dpl_entries: rng.gen_range(1usize..=8),
        pchase_entries: rng.gen_range(1usize..=16),
        ..CacheConfig::scaled_default()
    };
    cfg.latency.mem = rng.gen_range(20u64..=300);
    cfg.latency.bus_service = rng.gen_range(1u64..=40);
    if rng.gen_bool(0.75) {
        cfg = cfg.with_hw_backend(HwBackend::ALL[rng.gen_range(0..HwBackend::ALL.len())]);
    }
    cfg
}

/// What one scripted call does.
#[derive(Debug, Clone, Copy)]
enum Op {
    Demand(Entity, MemRef),
    HelperLoad(MemRef),
    Prefetch(MemRef),
}

/// A seeded script of `(op, gap)` steps over a footprint of about four
/// L2s: strided runs per site (streamer and stride food) mixed with
/// random blocks, loads and stores from both threads, and prefetches.
fn script(rng: &mut SmallRng, cfg: &CacheConfig) -> Vec<(Op, u64)> {
    let span = cfg.l2.size_bytes * 4;
    let mut cursor: Vec<(u64, u64)> = (0..4)
        .map(|_| (rng.gen_range(0..span), 64 * rng.gen_range(1u64..=3)))
        .collect();
    (0..rng.gen_range(50usize..600))
        .map(|_| {
            let s = rng.gen_range(0usize..4);
            // A strided run keeps its site's deltas exact; a random
            // block comes from a fifth site or an anonymous reference.
            let (vaddr, site) = if rng.gen_bool(0.6) {
                let c = &mut cursor[s];
                c.0 = (c.0 + c.1) % span;
                (c.0, SiteId(s as u32))
            } else if rng.gen_bool(0.8) {
                (rng.gen_range(0..span), SiteId(4))
            } else {
                (rng.gen_range(0..span), SiteId::ANON)
            };
            let mref = if rng.gen_bool(0.3) {
                MemRef::store(vaddr, site)
            } else {
                MemRef::load(vaddr, site)
            };
            let op = match rng.gen_range(0u32..10) {
                0..=4 => Op::Demand(Entity::Main, mref),
                5 => Op::Demand(Entity::Helper, mref),
                6 | 7 => Op::HelperLoad(mref),
                _ => Op::Prefetch(mref.as_prefetch()),
            };
            (op, rng.gen_range(0u64..48))
        })
        .collect()
}

/// Run one script on both systems, comparing every call and the final
/// statistics. Time follows the script's gaps and, half the time, waits
/// for the call to complete (so both stalls and overlap occur).
fn compare(cfg: CacheConfig, ops: &[(Op, u64)], rng: &mut SmallRng) -> MemStats {
    let mut real = MemorySystem::new(cfg);
    let mut spec = SpecSystem::new(cfg);
    let mut t: Cycle = 0;
    for (step, &(op, gap)) in ops.iter().enumerate() {
        let (got, want) = match op {
            Op::Demand(e, m) => (real.demand_access(e, m, t), spec.demand(e, m, t)),
            Op::HelperLoad(m) => (real.helper_load(m, t), spec.helper_load(m, t)),
            Op::Prefetch(m) => (real.prefetch_access(m, t), spec.prefetch(m, t)),
        };
        assert_eq!(got, want, "step {step} ({op:?} at {t}) of {cfg:?}");
        t += gap;
        if rng.gen_bool(0.5) {
            t = t.max(got.complete_at);
        }
    }
    let stats = real.finish_stats();
    assert_eq!(stats, spec.finish(), "final stats of {cfg:?}");
    stats
}

/// Reads one counter of a run's statistics.
type Counter = fn(&MemStats) -> u64;

/// Counters the random-machine scripts must each drive above zero in
/// some case, so every path the spec models is compared at least once.
const COVERAGE: [(&str, Counter); 18] = [
    ("main L1 hits", |s| s.main.l1_hits),
    ("main total hits", |s| s.main.total_hits),
    ("main partial hits", |s| s.main.partial_hits),
    ("main total misses", |s| s.main.total_misses),
    ("helper partial hits", |s| s.helper.partial_hits),
    ("L2 evictions", |s| s.l2_evictions),
    ("write-backs", |s| s.writebacks),
    ("L1 write-back misses", |s| s.l1_writeback_misses),
    ("bus queueing", |s| s.bus_queued),
    ("reuse evictions", |s| s.pollution.reuse_evictions),
    ("unused helper evictions", |s| {
        s.pollution.unused_helper_evictions
    }),
    ("unused hardware evictions", |s| {
        s.pollution.unused_hw_evictions
    }),
    ("dead prefetches", |s| s.pollution.dead_prefetches),
    ("useful helper prefetches", |s| s.prefetches_useful[0]),
    ("useful stream prefetches", |s| s.prefetches_useful[1]),
    ("useful DPL prefetches", |s| s.prefetches_useful[2]),
    ("useful pointer-chase prefetches", |s| {
        s.prefetches_useful[3]
    }),
    ("useful perceptron prefetches", |s| s.prefetches_useful[4]),
];

#[test]
fn memory_system_matches_the_spec_on_random_machines() {
    let reached = std::cell::RefCell::new([0u64; COVERAGE.len()]);
    check(CASES, |rng| {
        let cfg = machine(rng);
        let ops = script(rng, &cfg);
        let stats = compare(cfg, &ops, rng);
        for (n, (_, count)) in reached.borrow_mut().iter_mut().zip(COVERAGE) {
            *n += count(&stats);
        }
    });
    for (n, (what, _)) in reached.into_inner().iter().zip(COVERAGE) {
        assert!(*n > 0, "no script reached {what}");
    }
}

/// The same comparison on the scaled machine (4 KB/8-way L1s, default
/// latencies) with the 8 KB/4-way L2 of the `lds-epochs` benchmark, so
/// short scripts still evict, under every backend, MSHR size and
/// inclusion policy.
#[test]
fn memory_system_matches_the_spec_on_benchmark_shapes() {
    check(CASES / 4, |rng| {
        let mut cfg = CacheConfig::scaled_default()
            .with_hw_backend(HwBackend::ALL[rng.gen_range(0..HwBackend::ALL.len())]);
        cfg.l2 = CacheGeometry::new(8 * 1024, 4, 64);
        cfg.mshr_entries = rng.gen_range(1usize..=16);
        if rng.gen_bool(0.5) {
            cfg = cfg.inclusive();
        }
        let ops = script(rng, &cfg);
        compare(cfg, &ops, rng);
    });
}
