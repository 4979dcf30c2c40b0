//! Randomized equivalence of the two event folds against reference
//! models: [`EpochSink`] (dense per-set fill tallies, set-bucketed
//! pending fills) and [`EventSummary`]'s timeliness fold must produce
//! exactly what the straightforward `BTreeMap`/`HashMap` folds below
//! produce, on streams shaped like the hierarchy's — every block maps
//! to one fixed L2 set.
//!
//! Deterministic randomized cases via `sp_testkit::check` (std-only).

use sp_cachesim::epoch::{EPOCH_HIST_BUCKETS, EPOCH_TOP_SETS};
use sp_cachesim::{
    Cycle, Entity, EpochSeries, EpochSink, EpochWindow, Event, EventSink, EventSummary, FillOrigin,
    HitClass, PfClass, PollutionCase,
};
use sp_testkit::{check, SmallRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};

/// Reference timeliness fold: a block-keyed map of pending fill times.
#[derive(Default)]
struct RefPending {
    pending: HashMap<u64, Cycle>,
    late: u64,
    on_time: u64,
    early: u64,
}

impl RefPending {
    fn fill(&mut self, block: u64, at: Cycle) {
        self.pending.insert(block, at);
    }

    /// Returns `(late, on_time, early)` increments of this first use.
    fn first_use(&mut self, block: u64, at: Cycle, threshold: Cycle) -> (u64, u64, u64) {
        let d = match self.pending.remove(&block) {
            None => (1, 0, 0),
            Some(fill_at) if at.saturating_sub(fill_at) > threshold => (0, 0, 1),
            Some(_) => (0, 1, 0),
        };
        self.late += d.0;
        self.on_time += d.1;
        self.early += d.2;
        d
    }

    fn evict(&mut self, block: u64) {
        self.pending.remove(&block);
    }
}

fn class_index(c: HitClass) -> usize {
    match c {
        HitClass::L1Hit => 0,
        HitClass::TotalHit => 1,
        HitClass::PartialHit => 2,
        HitClass::TotalMiss => 3,
    }
}

/// Reference epoch recorder: sparse `BTreeMap` set tally, full sort
/// for the top-K sets, `HashMap` pending fills.
struct RefEpochs {
    epoch_len: u64,
    early_threshold: Cycle,
    cur: EpochWindow,
    cur_sets: BTreeMap<u32, u64>,
    pending: RefPending,
    done: Vec<EpochWindow>,
}

impl RefEpochs {
    fn new(epoch_len: u64, early_threshold: Cycle) -> RefEpochs {
        RefEpochs {
            epoch_len: epoch_len.max(1),
            early_threshold,
            cur: EpochWindow::default(),
            cur_sets: BTreeMap::new(),
            pending: RefPending::default(),
            done: Vec::new(),
        }
    }

    fn close_window(&mut self) {
        let sets = std::mem::take(&mut self.cur_sets);
        let mut hist = vec![0u64; EPOCH_HIST_BUCKETS];
        let mut ranked: Vec<(u32, u64)> = Vec::new();
        for (set, fills) in sets {
            let bucket = (63 - fills.leading_zeros() as usize).min(EPOCH_HIST_BUCKETS - 1);
            hist[bucket] += 1;
            ranked.push((set, fills));
        }
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(EPOCH_TOP_SETS);
        let next_index = self.cur.index + 1;
        let mut w = std::mem::take(&mut self.cur);
        w.top_sets = ranked;
        w.fill_histogram = hist;
        self.done.push(w);
        self.cur.index = next_index;
    }

    fn emit(&mut self, ev: Event) {
        match ev {
            Event::PrefetchIssued { class, .. } => self.cur.counts.issued[class.index()] += 1,
            Event::PrefetchFilled {
                class, block, at, ..
            } => {
                self.cur.counts.filled[class.index()] += 1;
                self.pending.fill(block, at);
            }
            Event::PrefetchFirstUse {
                class, block, at, ..
            } => {
                self.cur.counts.first_uses[class.index()] += 1;
                let (l, o, e) = self.pending.first_use(block, at, self.early_threshold);
                self.cur.counts.late += l;
                self.cur.counts.on_time += o;
                self.cur.counts.early += e;
            }
            Event::PrefetchEvictedUnused { class, block, .. } => {
                self.cur.counts.evicted_unused[class.index()] += 1;
                self.pending.evict(block);
            }
            Event::PollutionEviction { case, .. } => self.cur.counts.pollution[case.index()] += 1,
            Event::L2Fill { origin, set, .. } => {
                self.cur.l2_fills[origin.index()] += 1;
                *self.cur_sets.entry(set).or_insert(0) += 1;
            }
        }
    }

    fn demand_tick(&mut self, entity: Entity, class: HitClass, mshr: usize) {
        let i = class_index(class);
        self.cur.mshr_sum += mshr as u64;
        self.cur.mshr_peak = self.cur.mshr_peak.max(mshr as u64);
        if entity == Entity::Main {
            self.cur.refs += 1;
            self.cur.main[i] += 1;
            if self.cur.refs == self.epoch_len {
                self.close_window();
            }
        } else {
            self.cur.helper_refs += 1;
            self.cur.helper[i] += 1;
        }
    }

    fn finish(mut self) -> EpochSeries {
        let blank = EpochWindow {
            index: self.cur.index,
            ..EpochWindow::default()
        };
        if self.cur != blank || !self.cur_sets.is_empty() {
            self.close_window();
        }
        EpochSeries {
            epoch_len: self.epoch_len,
            early_threshold: self.early_threshold,
            epochs: self.done,
        }
    }
}

/// One step of a generated stream.
#[derive(Debug, Clone, Copy)]
enum Step {
    Ev(Event),
    Tick(Entity, HitClass, usize),
}

/// What a generated stream exercised, so the suite can prove every
/// case in its remit actually occurred.
#[derive(Default)]
struct Coverage {
    refills: u64,
    late: u64,
    cross_window_uses: u64,
    evicted_pending: u64,
    tie_bursts: u64,
    high_sets: u64,
}

const PF_CLASSES: [PfClass; 5] = PfClass::ALL;
const HIT_CLASSES: [HitClass; 4] = [
    HitClass::L1Hit,
    HitClass::TotalHit,
    HitClass::PartialHit,
    HitClass::TotalMiss,
];

fn pick<T: Copy>(rng: &mut SmallRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// Generate `(epoch_len, threshold, stream)`. Blocks are `k * 64` for
/// `k` in a small pool, each pinned to one random set out of up to
/// 4096, so set indices arrive in no particular order.
fn stream(rng: &mut SmallRng, cov: &mut Coverage) -> (u64, Cycle, Vec<Step>) {
    let n_sets = pick(rng, &[1u32, 4, 32, 256, 4096]);
    let pool = rng.gen_range(1usize..160);
    let set_of: Vec<u32> = (0..pool).map(|_| rng.gen_range(0..n_sets)).collect();
    let epoch_len = rng.gen_range(1u64..40);
    let threshold = rng.gen_range(0u64..400);
    let len = rng.gen_range(0usize..1500);

    let mut now: Cycle = 0;
    let mut steps = Vec::with_capacity(len);
    // Shadow state for coverage only: pending fills and the main-ref
    // count at fill time.
    let mut pending: HashMap<usize, u64> = HashMap::new();
    let mut main_refs = 0u64;
    while steps.len() < len {
        now += match rng.gen_range(0u32..10) {
            0 => rng.gen_range(0u64..2000), // idles past the threshold
            _ => rng.gen_range(0u64..20),
        };
        let k = rng.gen_range(0..pool);
        let (block, set) = (k as u64 * 64, set_of[k]);
        let class = pick(rng, &PF_CLASSES);
        let ev = match rng.gen_range(0u32..100) {
            0..=24 => {
                let ticks = rng.gen_range(1usize..6);
                for _ in 0..ticks {
                    let entity = if rng.gen_bool(0.75) {
                        main_refs += 1;
                        Entity::Main
                    } else {
                        Entity::Helper
                    };
                    steps.push(Step::Tick(
                        entity,
                        pick(rng, &HIT_CLASSES),
                        rng.gen_range(0usize..9),
                    ));
                }
                continue;
            }
            25..=31 => Event::PrefetchIssued {
                class,
                block,
                at: now,
            },
            32..=51 => {
                if pending.insert(k, main_refs).is_some() {
                    cov.refills += 1;
                }
                // End-of-run drains fill at `Cycle::MAX`.
                let at = if rng.gen_range(0u32..50) == 0 {
                    Cycle::MAX
                } else {
                    now
                };
                Event::PrefetchFilled {
                    class,
                    block,
                    set,
                    at,
                }
            }
            52..=71 => {
                match pending.remove(&k) {
                    None => cov.late += 1,
                    Some(at_refs) if at_refs / epoch_len != main_refs / epoch_len => {
                        cov.cross_window_uses += 1
                    }
                    Some(_) => {}
                }
                Event::PrefetchFirstUse {
                    class,
                    block,
                    set,
                    at: now,
                }
            }
            72..=79 => {
                if pending.remove(&k).is_some() {
                    cov.evicted_pending += 1;
                }
                Event::PrefetchEvictedUnused {
                    class,
                    block,
                    set,
                    at: now,
                }
            }
            80..=84 => Event::PollutionEviction {
                case: pick(rng, &PollutionCase::ALL),
                block,
                set,
                at: now,
            },
            85..=89 => {
                // Equal fill counts for several sets, in shuffled set
                // order: ties for the top-K slots.
                cov.tie_bursts += 1;
                let mut sets: Vec<u32> = (0..rng.gen_range(2usize..9))
                    .map(|_| rng.gen_range(0..n_sets))
                    .collect();
                sets.sort_unstable();
                sets.dedup();
                let reps = rng.gen_range(1usize..5);
                let mut burst: Vec<u32> = sets.iter().flat_map(|&s| vec![s; reps]).collect();
                rng.shuffle(&mut burst);
                for s in burst {
                    steps.push(Step::Ev(Event::L2Fill {
                        origin: pick(rng, &FillOrigin::ALL),
                        victim: None,
                        set: s,
                        at: now,
                    }));
                }
                continue;
            }
            _ => {
                if set >= 2048 {
                    cov.high_sets += 1;
                }
                Event::L2Fill {
                    origin: pick(rng, &FillOrigin::ALL),
                    victim: if rng.gen_bool(0.5) {
                        Some(pick(rng, &FillOrigin::ALL))
                    } else {
                        None
                    },
                    set,
                    at: now,
                }
            }
        };
        steps.push(Step::Ev(ev));
    }
    (epoch_len, threshold, steps)
}

/// Case counters summed over the whole `check` run.
#[derive(Default)]
struct Totals([AtomicU64; 7]);

impl Totals {
    fn add(&self, cov: &Coverage, early: u64) {
        let vals = [
            cov.refills,
            cov.late,
            cov.cross_window_uses,
            cov.evicted_pending,
            cov.tie_bursts,
            cov.high_sets,
            early,
        ];
        for (slot, v) in self.0.iter().zip(vals) {
            slot.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn assert_all_exercised(&self) {
        let names = [
            "re-fills of a pending block",
            "first uses with no fill",
            "first uses after a window boundary",
            "evicted-unused removals of pending blocks",
            "equal-count top-K bursts",
            "set indices >= 2048",
            "early first uses",
        ];
        for (slot, name) in self.0.iter().zip(names) {
            assert!(slot.load(Ordering::Relaxed) > 0, "never exercised: {name}");
        }
    }
}

#[test]
fn epoch_sink_matches_the_reference_fold() {
    let totals = Totals::default();
    check(200, |rng| {
        let mut cov = Coverage::default();
        let (epoch_len, threshold, steps) = stream(rng, &mut cov);
        let mut sink = EpochSink::new(epoch_len, threshold);
        let mut reference = RefEpochs::new(epoch_len, threshold);
        for step in &steps {
            match *step {
                Step::Ev(ev) => {
                    sink.emit(ev);
                    reference.emit(ev);
                }
                Step::Tick(entity, class, mshr) => {
                    sink.demand_tick(entity, class, 0, mshr, 0);
                    reference.demand_tick(entity, class, mshr);
                }
            }
        }
        let got = sink.finish();
        let want = reference.finish();
        assert_eq!(got, want, "epoch series diverged ({} steps)", steps.len());
        totals.add(&cov, want.totals().counts.early);
    });
    totals.assert_all_exercised();
}

#[test]
fn event_summary_timeliness_matches_the_reference_fold() {
    let totals = Totals::default();
    check(200, |rng| {
        let mut cov = Coverage::default();
        let (_, threshold, steps) = stream(rng, &mut cov);
        let mut summary = EventSummary::new(threshold);
        let mut reference = RefPending::default();
        let mut resolved = 0u64;
        for step in &steps {
            let Step::Ev(ev) = *step else { continue };
            summary.absorb(&ev);
            match ev {
                Event::PrefetchFilled { block, at, .. } => reference.fill(block, at),
                Event::PrefetchFirstUse { block, at, .. } => {
                    reference.first_use(block, at, threshold);
                    resolved += 1;
                }
                Event::PrefetchEvictedUnused { block, .. } => reference.evict(block),
                _ => {}
            }
            assert_eq!(summary.unresolved(), reference.pending.len());
        }
        assert_eq!(
            (
                summary.counts.late,
                summary.counts.on_time,
                summary.counts.early
            ),
            (reference.late, reference.on_time, reference.early)
        );
        assert_eq!(
            summary.counts.late + summary.counts.on_time + summary.counts.early,
            resolved
        );
        totals.add(&cov, reference.early);
    });
    totals.assert_all_exercised();
}
