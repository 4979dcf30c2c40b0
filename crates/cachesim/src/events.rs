//! Event-level observability: the prefetch lifecycle / eviction
//! attribution trace behind `spt events` and the serve-side metrics
//! surface.
//!
//! # Design
//!
//! The hot paths of [`crate::hierarchy::MemorySystem`] are generic over
//! an [`EventSink`]; every emission site is guarded by the sink's
//! associated `const ENABLED`, so the default [`NullSink`]
//! instantiation monomorphizes to *exactly* the code that existed
//! before events — no trait objects, no branches, no dead stores.
//! `tests/events_off.rs` enforces the guard itself: a sink with
//! `ENABLED = false` that counts every call reaching it must see none
//! across a Fig. 2 grid that evicts, pollutes and blocks.
//!
//! # Taxonomy
//!
//! Prefetch lifecycle (per prefetched block):
//!
//! ```text
//! Issued ──► Filled ──► FirstUse          (useful; late/on-time/early)
//!                  └──► EvictedUnused     (dead prefetch)
//! ```
//!
//! A `FirstUse` *without* a preceding `Filled` is the late-prefetch
//! signature: the main thread demanded the block while its fill was
//! still in flight (the paper's *partially cache hit*).
//!
//! Eviction attribution mirrors the paper's three displacement cases
//! (§II.C) one-to-one with the [`crate::stats::PollutionStats`]
//! counters: every counter increment has exactly one matching
//! [`Event::PollutionEviction`] emission, so folding a run's event
//! stream reproduces its aggregate pollution statistics *exactly*
//! (asserted by `tests/events_differential.rs`).
//!
//! [`LifecycleCounts`] declares the whole taxonomy once, with its one
//! fold: [`EventSummary`] runs it over a whole run, the epoch recorder
//! per window of a replayed stream. A live epoch recorder folds no
//! events: it reads counter snapshots ([`EventSink::SNAPSHOTS`]).
//!
//! [`Event::L2Fill`] carries the per-set pressure signal: which origin
//! (demand / helper prefetch / hardware prefetch) filled which set, and
//! whose line it displaced — enough to reconstruct occupancy-by-origin
//! and distinct-fill churn per set, making Set Affinity observable at
//! runtime instead of only profiled. [`RingSink`] tallies it per set.

use crate::clock::{Cycle, LatencyConfig};
use crate::stats::{Entity, HitClass, MemStats, PollutionStats, SnapshotCounters};
use sp_trace::VAddr;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Debug;
use std::ops::AddAssign;

/// Software/hardware prefetch class, indexing the same
/// `[helper, stream, dpl, pchase, perceptron]` arrays as
/// [`crate::stats::MemStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfClass {
    /// Helper-thread software prefetch (including speculative backbone
    /// loads).
    Helper,
    /// Hardware streaming prefetcher.
    Stream,
    /// Hardware DPL (stride) prefetcher.
    Dpl,
    /// Pointer-chase (content-directed) prefetcher.
    Pchase,
    /// Perceptron-gated stride prefetcher.
    Perceptron,
}

impl PfClass {
    /// The class of a prefetching entity (`None` for the main thread).
    pub fn of(e: Entity) -> Option<PfClass> {
        match e {
            Entity::Main => None,
            Entity::Helper => Some(PfClass::Helper),
            Entity::HwStream(_) => Some(PfClass::Stream),
            Entity::HwDpl(_) => Some(PfClass::Dpl),
            Entity::HwPchase(_) => Some(PfClass::Pchase),
            Entity::HwPerceptron(_) => Some(PfClass::Perceptron),
        }
    }

    /// Index into the `[helper, stream, dpl, pchase, perceptron]` stat
    /// arrays.
    pub fn index(self) -> usize {
        match self {
            PfClass::Helper => 0,
            PfClass::Stream => 1,
            PfClass::Dpl => 2,
            PfClass::Pchase => 3,
            PfClass::Perceptron => 4,
        }
    }

    /// Wire/label spelling.
    pub fn name(self) -> &'static str {
        match self {
            PfClass::Helper => "helper",
            PfClass::Stream => "stream",
            PfClass::Dpl => "dpl",
            PfClass::Pchase => "pchase",
            PfClass::Perceptron => "perceptron",
        }
    }

    /// All classes, in stat-array order.
    pub const ALL: [PfClass; 5] = [
        PfClass::Helper,
        PfClass::Stream,
        PfClass::Dpl,
        PfClass::Pchase,
        PfClass::Perceptron,
    ];
}

/// Provenance of an L2 line: who brought it in, and was it demanded or
/// speculative. This is the per-set occupancy taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOrigin {
    /// A demand fill (main thread, or a prefetch a demand merged into —
    /// the line holds demanded data either way).
    Demand,
    /// A still-speculative helper-thread prefetch fill.
    Helper,
    /// A still-speculative hardware-prefetcher fill.
    Hw,
}

impl FillOrigin {
    /// Classify a fill by its filler entity and speculation flag.
    pub fn of(filler: Entity, prefetched: bool) -> FillOrigin {
        if !prefetched {
            FillOrigin::Demand
        } else if filler == Entity::Helper {
            FillOrigin::Helper
        } else {
            FillOrigin::Hw
        }
    }

    /// Index into `[demand, helper, hw]` arrays.
    pub fn index(self) -> usize {
        match self {
            FillOrigin::Demand => 0,
            FillOrigin::Helper => 1,
            FillOrigin::Hw => 2,
        }
    }

    /// Wire/label spelling.
    pub fn name(self) -> &'static str {
        match self {
            FillOrigin::Demand => "demand",
            FillOrigin::Helper => "helper",
            FillOrigin::Hw => "hw",
        }
    }

    /// All origins, in index order.
    pub const ALL: [FillOrigin; 3] = [FillOrigin::Demand, FillOrigin::Helper, FillOrigin::Hw];
}

/// The paper's three pollution displacement cases (§II.C), aligned with
/// the [`PollutionStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollutionCase {
    /// Case 1: a prefetch displaced demanded data the main thread later
    /// re-missed on (attributed lazily, at the re-miss).
    Reuse,
    /// Case 2: a prefetch displaced a not-yet-used helper-prefetched
    /// block.
    UnusedHelper,
    /// Case 3: a prefetch displaced a not-yet-used hardware-prefetched
    /// block.
    UnusedHw,
}

impl PollutionCase {
    /// Index into `[case1, case2, case3]` arrays.
    pub fn index(self) -> usize {
        match self {
            PollutionCase::Reuse => 0,
            PollutionCase::UnusedHelper => 1,
            PollutionCase::UnusedHw => 2,
        }
    }

    /// Wire/label spelling.
    pub fn name(self) -> &'static str {
        match self {
            PollutionCase::Reuse => "reuse",
            PollutionCase::UnusedHelper => "unused_helper",
            PollutionCase::UnusedHw => "unused_hw",
        }
    }

    /// All cases, in index order.
    pub const ALL: [PollutionCase; 3] = [
        PollutionCase::Reuse,
        PollutionCase::UnusedHelper,
        PollutionCase::UnusedHw,
    ];
}

/// One observability event. Events are raw observations — timeliness
/// is *derived* by the [`LifecycleCounts`] fold and per-set pressure by
/// [`RingSink`], so the stream itself stays cheap to emit and encode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A prefetch was issued (whether or not it leads to a fill; dropped
    /// prefetches — already cached, in flight, MSHR full — issue but
    /// never fill). Mirrors `prefetches_issued`.
    PrefetchIssued {
        /// Issuing class.
        class: PfClass,
        /// Target block address.
        block: VAddr,
        /// Issue time.
        at: Cycle,
    },
    /// A speculative fill landed in the L2. Mirrors prefetch-flagged
    /// L2 installs.
    PrefetchFilled {
        /// Filling class.
        class: PfClass,
        /// Block address.
        block: VAddr,
        /// L2 set index.
        set: u32,
        /// Fill completion time (`u64::MAX` for fills drained at end of
        /// run, after the last access).
        at: Cycle,
    },
    /// First main-thread demand touch of a prefetched block. Mirrors
    /// `prefetches_useful`. Emitted with no preceding
    /// [`Event::PrefetchFilled`] when the fill was still in flight —
    /// the *late* prefetch signature.
    PrefetchFirstUse {
        /// Class of the prefetch being used.
        class: PfClass,
        /// Block address.
        block: VAddr,
        /// L2 set index.
        set: u32,
        /// Demand-touch time.
        at: Cycle,
    },
    /// A prefetched block was evicted without ever being demanded.
    /// Mirrors `dead_prefetches`.
    PrefetchEvictedUnused {
        /// Class of the dead prefetch.
        class: PfClass,
        /// Block address.
        block: VAddr,
        /// L2 set index.
        set: u32,
        /// Eviction time.
        at: Cycle,
    },
    /// One pollution displacement event, per the paper's three cases.
    /// Mirrors the [`PollutionStats`] case counters exactly. Case 1 is
    /// emitted at the main thread's re-miss (when the pollution is
    /// *detected*), cases 2 and 3 at the eviction itself.
    PollutionEviction {
        /// Which displacement case.
        case: PollutionCase,
        /// The victim block.
        block: VAddr,
        /// Its L2 set index.
        set: u32,
        /// Detection time.
        at: Cycle,
    },
    /// Any L2 fill, with origin and victim provenance — the per-set
    /// pressure signal. Mirrors `l2_fills`.
    L2Fill {
        /// Origin of the incoming line.
        origin: FillOrigin,
        /// Origin of the displaced line, if a valid line was evicted.
        victim: Option<FillOrigin>,
        /// L2 set index.
        set: u32,
        /// Fill time (`u64::MAX` for end-of-run drains).
        at: Cycle,
    },
}

impl Event {
    /// Encode as one NDJSON line (no trailing newline).
    pub fn ndjson(&self) -> String {
        match *self {
            Event::PrefetchIssued { class, block, at } => format!(
                "{{\"ev\":\"prefetch_issued\",\"class\":\"{}\",\"block\":{block},\"at\":{at}}}",
                class.name()
            ),
            Event::PrefetchFilled {
                class,
                block,
                set,
                at,
            } => format!(
                "{{\"ev\":\"prefetch_filled\",\"class\":\"{}\",\"block\":{block},\"set\":{set},\"at\":{at}}}",
                class.name()
            ),
            Event::PrefetchFirstUse {
                class,
                block,
                set,
                at,
            } => format!(
                "{{\"ev\":\"prefetch_first_use\",\"class\":\"{}\",\"block\":{block},\"set\":{set},\"at\":{at}}}",
                class.name()
            ),
            Event::PrefetchEvictedUnused {
                class,
                block,
                set,
                at,
            } => format!(
                "{{\"ev\":\"prefetch_evicted_unused\",\"class\":\"{}\",\"block\":{block},\"set\":{set},\"at\":{at}}}",
                class.name()
            ),
            Event::PollutionEviction {
                case,
                block,
                set,
                at,
            } => format!(
                "{{\"ev\":\"pollution\",\"case\":\"{}\",\"block\":{block},\"set\":{set},\"at\":{at}}}",
                case.name()
            ),
            Event::L2Fill {
                origin,
                victim,
                set,
                at,
            } => {
                let victim = match victim {
                    Some(v) => format!("\"{}\"", v.name()),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"ev\":\"l2_fill\",\"origin\":\"{}\",\"victim\":{victim},\"set\":{set},\"at\":{at}}}",
                    origin.name()
                )
            }
        }
    }
}

/// Where the memory system sends its events.
///
/// The contract that makes events free when disabled: every emission
/// site in the hot path is written `if S::ENABLED { sink.emit(..) }`,
/// so a sink with `ENABLED = false` compiles the entire event layer —
/// including the argument construction — out of the monomorphized
/// code. Implementations with `ENABLED = true` receive every event in
/// simulation order.
pub trait EventSink {
    /// Whether this sink observes anything. Emission sites are guarded
    /// by this constant, so `false` means zero overhead, not "called
    /// and ignored".
    const ENABLED: bool;

    /// Whether this sink also wants one [`EventSink::demand_tick`] per
    /// completed access. Separate from `ENABLED` so the existing
    /// event-stream sinks keep their exact behaviour (and cost): only
    /// sinks that opt in — the epoch recorder — pay for the tick, and
    /// the `false` default compiles the call sites out exactly like
    /// `ENABLED` does for `emit`.
    const DEMAND_TICKS: bool = false;

    /// Receive one event.
    fn emit(&mut self, ev: Event);

    /// Observe one completed access: who issued it, its hit class, the
    /// L2 set it indexed, the issuing core's MSHR occupancy at
    /// completion, and the access time. This is the epoch recorder's
    /// reference clock — demand-tick count, not cycles, advances epoch
    /// windows, so a window means "the next N references" at any
    /// distance. Default: ignored (see [`EventSink::DEMAND_TICKS`]).
    #[inline(always)]
    fn demand_tick(
        &mut self,
        _entity: Entity,
        _class: HitClass,
        _set: u32,
        _mshr: usize,
        _at: Cycle,
    ) {
    }

    /// Whether this sink reads the memory system's counters instead of
    /// folding its events. The memory system then keeps the
    /// [`SnapshotCounters`] ledger and calls
    /// [`EventSink::snapshot`] at two points: at the main-thread access
    /// that completes each [`SnapshotPlan::every`] references (after the
    /// access is classified and counted, before hardware-prefetcher
    /// training — the [`EventSink::demand_tick`] point), and once after
    /// the end-of-run drain. The `false` default compiles the channel
    /// and the ledger out exactly like `ENABLED` does for `emit`.
    const SNAPSHOTS: bool = false;

    /// When to snapshot and how to split timeliness; read only when
    /// [`EventSink::SNAPSHOTS`] is set.
    #[inline(always)]
    fn snapshot_plan(&self) -> SnapshotPlan {
        SnapshotPlan::NEVER
    }

    /// Receive one counter snapshot (see [`EventSink::SNAPSHOTS`]).
    /// Default: ignored.
    #[inline(always)]
    fn snapshot(&mut self, _snap: &Snapshot<'_>) {}
}

/// What a snapshotting sink asks of the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPlan {
    /// Main-thread references between two snapshots (≥ 1).
    pub every: u64,
    /// A first use of a prefetched line that idled in the L2 longer than
    /// this counts as [`SnapshotCounters::early`].
    pub early_threshold: Cycle,
}

impl SnapshotPlan {
    /// The plan of a sink that never snapshots.
    pub const NEVER: SnapshotPlan = SnapshotPlan {
        every: u64::MAX,
        early_threshold: Cycle::MAX,
    };
}

/// The memory system's counters at one snapshot point: running totals
/// since the run began, so the change over a window is the difference
/// of two snapshots.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot<'a> {
    /// The run statistics so far.
    pub stats: &'a MemStats,
    /// The snapshot-only ledger so far.
    pub counters: &'a SnapshotCounters,
    /// `true` for the snapshot taken after the end-of-run drain.
    pub end: bool,
}

/// The default sink: observes nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _ev: Event) {}
}

/// Fold-only sink: maintains an [`EventSummary`] without storing the
/// stream. The sweep harness uses this, so a whole distance grid costs
/// one summary per point instead of one event log per point.
#[derive(Debug, Clone, PartialEq)]
pub struct SummarySink {
    /// The running fold.
    pub summary: EventSummary,
}

impl SummarySink {
    /// A sink folding with the given early-use threshold (see
    /// [`EventSummary::new`]).
    pub fn new(early_threshold: Cycle) -> SummarySink {
        SummarySink {
            summary: EventSummary::new(early_threshold),
        }
    }
}

impl EventSink for SummarySink {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, ev: Event) {
        self.summary.absorb(&ev);
    }
}

/// Ring-buffer sink: stores the most recent `capacity` events (or every
/// event when unbounded) plus the running summary and per-set pressure.
/// `spt events` uses the unbounded form to export NDJSON.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSink {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    /// The running fold over *all* events, including dropped ones.
    pub summary: EventSummary,
    /// Per-set pressure over all events, keyed by L2 set index (only
    /// touched sets).
    pub per_set: BTreeMap<u32, SetPressure>,
}

impl RingSink {
    /// A ring keeping the last `capacity` events (`0` = unbounded).
    pub fn new(capacity: usize, early_threshold: Cycle) -> RingSink {
        RingSink {
            events: VecDeque::new(),
            capacity,
            dropped: 0,
            summary: EventSummary::new(early_threshold),
            per_set: BTreeMap::new(),
        }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped from the front of a bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Encode the buffered events as NDJSON (one event per line,
    /// trailing newline included when non-empty).
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.ndjson());
            out.push('\n');
        }
        out
    }

    /// Pollution by set quartile: touched sets ranked by fill pressure
    /// (hottest first, ties broken by set index for determinism) and
    /// split into four contiguous groups. Overflowed sets — the ones
    /// whose Set Affinity bounds the prefetch distance — land in Q1,
    /// so distances past `SA/2` show their pollution concentrating
    /// there.
    pub fn pollution_by_quartile(&self) -> [QuartileRow; 4] {
        let mut sets: Vec<(&u32, &SetPressure)> = self.per_set.iter().collect();
        // BTreeMap iteration is set-ascending, and the sort is stable,
        // so equal-pressure sets stay in index order.
        sets.sort_by_key(|(_, p)| std::cmp::Reverse(p.total_fills()));
        let mut rows = [QuartileRow::default(); 4];
        if sets.is_empty() {
            return rows;
        }
        let chunk = sets.len().div_ceil(4);
        for (i, (_, p)) in sets.iter().enumerate() {
            let row = &mut rows[(i / chunk).min(3)];
            row.sets += 1;
            row.fills += p.total_fills();
            for c in 0..3 {
                row.pollution[c] += p.pollution[c];
            }
            row.evicted_unused += p.evicted_unused;
        }
        rows
    }
}

impl EventSink for RingSink {
    const ENABLED: bool = true;

    fn emit(&mut self, ev: Event) {
        self.summary.absorb(&ev);
        match ev {
            Event::PrefetchEvictedUnused { set, .. } => {
                self.per_set.entry(set).or_default().evicted_unused += 1;
            }
            Event::PollutionEviction { case, set, .. } => {
                self.per_set.entry(set).or_default().pollution[case.index()] += 1;
            }
            Event::L2Fill {
                origin,
                victim,
                set,
                ..
            } => {
                let p = self.per_set.entry(set).or_default();
                p.fills[origin.index()] += 1;
                p.occupancy[origin.index()] += 1;
                if let Some(v) = victim {
                    p.occupancy[v.index()] -= 1;
                }
            }
            _ => {}
        }
        if self.capacity > 0 && self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }
}

/// Per-set pressure counters derived from the fill/eviction stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SetPressure {
    /// Fills into this set by origin `[demand, helper, hw]` — the
    /// distinct-fill churn of the set.
    pub fills: [u64; 3],
    /// Net lines currently resident by origin (fills minus evictions);
    /// at end of run this is the set's occupancy-by-origin.
    pub occupancy: [i64; 3],
    /// Pollution events attributed to this set, by case.
    pub pollution: [u64; 3],
    /// Never-used prefetches evicted from this set.
    pub evicted_unused: u64,
}

impl SetPressure {
    /// Total fills into the set (all origins).
    pub fn total_fills(&self) -> u64 {
        self.fills.iter().sum()
    }

    /// Total pollution events in the set (all cases).
    pub fn total_pollution(&self) -> u64 {
        self.pollution.iter().sum()
    }
}

/// One row of the pollution-by-set-quartile table: sets ranked by fill
/// pressure and split into four contiguous groups, hottest first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuartileRow {
    /// Sets in this quartile.
    pub sets: usize,
    /// Fills across the quartile's sets.
    pub fills: u64,
    /// Pollution events by case.
    pub pollution: [u64; 3],
    /// Dead prefetches evicted from the quartile's sets.
    pub evicted_unused: u64,
}

/// Prefetch timeliness, classified at first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timeliness {
    /// First use arrived before the fill completed (partial hit): part
    /// of the memory latency was exposed.
    Late,
    /// Fill completed before first use, within the early threshold.
    OnTime,
    /// The block sat unused past the early threshold before its first
    /// use — at risk of eviction the whole time.
    Early,
}

/// The default early-use threshold: a prefetch that sits unused for
/// more than eight memory latencies is classified *early*.
pub fn default_early_threshold(lat: &LatencyConfig) -> Cycle {
    lat.mem.saturating_mul(8)
}

/// Speculatively filled blocks awaiting their first use, with their
/// fill times: the timeliness state the [`LifecycleCounts`] fold
/// resolves first uses against.
///
/// Entries are bucketed by L2 set, so a lookup scans one set's live
/// prefetches instead of hashing the block address. In the
/// hierarchy's streams that is at most the associativity: a pending
/// block is resident, and leaves the tracker when it is used or
/// evicted. Buckets still grow past that if a stream says otherwise.
///
/// **Precondition:** every event naming a block carries that block's
/// L2 set — the set is a pure function of the block, as it is for the
/// events [`crate::hierarchy::MemorySystem`] emits. Under it the
/// tracker behaves exactly like a `HashMap<VAddr, Cycle>`: a re-fill
/// overwrites the stored fill time, and a lookup under the block's set
/// finds it wherever it was filled.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingFills {
    /// `by_set[s]` holds set `s`'s pending `(block, fill time)` pairs,
    /// in no particular order; grown on demand.
    by_set: Vec<Vec<(VAddr, Cycle)>>,
    len: usize,
}

impl PendingFills {
    /// Record a speculative fill of `block` (in L2 set `set`) at `at`,
    /// replacing any earlier pending fill of the same block.
    #[inline]
    pub(crate) fn fill(&mut self, set: u32, block: VAddr, at: Cycle) {
        let set = set as usize;
        if set >= self.by_set.len() {
            self.by_set.resize_with(set + 1, Vec::new);
        }
        let bucket = &mut self.by_set[set];
        match bucket.iter_mut().find(|(b, _)| *b == block) {
            Some(entry) => entry.1 = at,
            None => {
                bucket.push((block, at));
                self.len += 1;
            }
        }
    }

    /// Remove `block`'s pending fill, returning its fill time.
    #[inline]
    pub(crate) fn take(&mut self, set: u32, block: VAddr) -> Option<Cycle> {
        let bucket = self.by_set.get_mut(set as usize)?;
        let i = bucket.iter().position(|(b, _)| *b == block)?;
        self.len -= 1;
        Some(bucket.swap_remove(i).1)
    }

    /// Resolve the first use of `block` at `at`: no pending fill means
    /// the demand overtook the in-flight prefetch (late); otherwise the
    /// idle time since the fill decides on-time vs early.
    #[inline]
    pub(crate) fn first_use(
        &mut self,
        set: u32,
        block: VAddr,
        at: Cycle,
        early_threshold: Cycle,
    ) -> Timeliness {
        match self.take(set, block) {
            None => Timeliness::Late,
            Some(fill_at) if at.saturating_sub(fill_at) > early_threshold => Timeliness::Early,
            Some(_) => Timeliness::OnTime,
        }
    }

    /// Number of pending fills.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// Content equality, like the `HashMap` it replaces: bucket order and
/// trailing empty buckets are history, not state.
impl PartialEq for PendingFills {
    fn eq(&self, other: &PendingFills) -> bool {
        self.len == other.len
            && self.by_set.iter().enumerate().all(|(set, bucket)| {
                bucket.iter().all(|&(block, at)| {
                    other
                        .by_set
                        .get(set)
                        .is_some_and(|o| o.contains(&(block, at)))
                })
            })
    }
}

/// The prefetch-lifecycle ledger: per-class lifecycle counts, the
/// paper's three displacement cases and the timeliness split of first
/// uses. One block, folded by [`EventSummary`] over a whole run and by
/// the epoch recorder per window, and summed by sp-serve's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LifecycleCounts {
    /// Prefetches issued, by class.
    pub issued: [u64; 5],
    /// Speculative L2 fills, by class.
    pub filled: [u64; 5],
    /// First main-thread uses, by class (the useful prefetches).
    pub first_uses: [u64; 5],
    /// Never-used prefetches evicted, by class.
    pub evicted_unused: [u64; 5],
    /// Pollution events, by case `[reuse, unused_helper, unused_hw]`.
    pub pollution: [u64; 3],
    /// Useful prefetches whose fill was still in flight at first use.
    pub late: u64,
    /// Useful prefetches used within the early threshold of their fill.
    pub on_time: u64,
    /// Useful prefetches that idled past the early threshold.
    pub early: u64,
}

impl LifecycleCounts {
    /// Fold one event in, resolving timeliness against `pending` and
    /// `early_threshold`. [`Event::L2Fill`] counts nothing here: its
    /// origin and set go to `on_l2_fill`, for the sinks that tally
    /// them, from inside the one dispatch on the event.
    #[inline]
    pub(crate) fn fold(
        &mut self,
        ev: &Event,
        pending: &mut PendingFills,
        early_threshold: Cycle,
        on_l2_fill: impl FnOnce(FillOrigin, u32),
    ) {
        match *ev {
            Event::PrefetchIssued { class, .. } => self.issued[class.index()] += 1,
            Event::PrefetchFilled {
                class,
                block,
                set,
                at,
            } => {
                self.filled[class.index()] += 1;
                pending.fill(set, block, at);
            }
            Event::PrefetchFirstUse {
                class,
                block,
                set,
                at,
            } => {
                self.first_uses[class.index()] += 1;
                match pending.first_use(set, block, at, early_threshold) {
                    Timeliness::Late => self.late += 1,
                    Timeliness::OnTime => self.on_time += 1,
                    Timeliness::Early => self.early += 1,
                }
            }
            Event::PrefetchEvictedUnused {
                class, block, set, ..
            } => {
                self.evicted_unused[class.index()] += 1;
                pending.take(set, block);
            }
            Event::PollutionEviction { case, .. } => self.pollution[case.index()] += 1,
            Event::L2Fill { origin, set, .. } => on_l2_fill(origin, set),
        }
    }

    /// The aggregate [`PollutionStats`] these counts fold to. Must equal
    /// the simulator's own counters exactly — events are a refinement
    /// of the aggregates, not a second truth.
    pub fn pollution_stats(&self) -> PollutionStats {
        PollutionStats {
            reuse_evictions: self.pollution[PollutionCase::Reuse.index()],
            unused_helper_evictions: self.pollution[PollutionCase::UnusedHelper.index()],
            unused_hw_evictions: self.pollution[PollutionCase::UnusedHw.index()],
            dead_prefetches: self.evicted_unused.iter().sum(),
        }
    }

    /// The first counter of `stats` these counts fail to refine, with
    /// the folded and the counted value, or `None` when they match:
    /// `issued` against `prefetches_issued`, `first_uses` against
    /// `prefetches_useful`, and the three cases and the dead-prefetch
    /// count against `pollution`.
    pub fn first_mismatch(&self, stats: &MemStats) -> Option<(&'static str, String, String)> {
        fn check<T: PartialEq + Debug>(
            field: &'static str,
            folded: T,
            counted: T,
        ) -> Option<(&'static str, String, String)> {
            (folded != counted).then(|| (field, format!("{folded:?}"), format!("{counted:?}")))
        }
        let (f, c) = (self.pollution_stats(), stats.pollution);
        check("issued", self.issued, stats.prefetches_issued)
            .or_else(|| check("first_uses", self.first_uses, stats.prefetches_useful))
            .or_else(|| check("reuse_evictions", f.reuse_evictions, c.reuse_evictions))
            .or_else(|| {
                check(
                    "unused_helper_evictions",
                    f.unused_helper_evictions,
                    c.unused_helper_evictions,
                )
            })
            .or_else(|| {
                check(
                    "unused_hw_evictions",
                    f.unused_hw_evictions,
                    c.unused_hw_evictions,
                )
            })
            .or_else(|| check("dead_prefetches", f.dead_prefetches, c.dead_prefetches))
    }

    /// Total pollution events across the three cases.
    pub fn total_pollution(&self) -> u64 {
        self.pollution.iter().sum()
    }

    /// Useful-prefetch ratio for a class (0.0 when none issued), same
    /// definition as `MemStats::prefetch_accuracy`.
    pub fn accuracy(&self, class: PfClass) -> f64 {
        let i = class.index();
        if self.issued[i] == 0 {
            0.0
        } else {
            self.first_uses[i] as f64 / self.issued[i] as f64
        }
    }
}

/// Element-wise sum (series totals).
impl AddAssign for LifecycleCounts {
    fn add_assign(&mut self, other: LifecycleCounts) {
        for i in 0..PfClass::ALL.len() {
            self.issued[i] += other.issued[i];
            self.filled[i] += other.filled[i];
            self.first_uses[i] += other.first_uses[i];
            self.evicted_unused[i] += other.evicted_unused[i];
        }
        for i in 0..PollutionCase::ALL.len() {
            self.pollution[i] += other.pollution[i];
        }
        self.late += other.late;
        self.on_time += other.on_time;
        self.early += other.early;
    }
}

/// The deterministic fold over a run's event stream: its
/// [`LifecycleCounts`] plus the fills still awaiting first use. Equal
/// streams fold to equal summaries (`PartialEq`), which is what the
/// `--jobs` determinism test pins.
#[derive(Debug, Clone, PartialEq)]
pub struct EventSummary {
    /// First-use deltas above this are classified [`Timeliness::Early`].
    pub early_threshold: Cycle,
    /// The run's lifecycle counts.
    pub counts: LifecycleCounts,
    /// Blocks filled speculatively and neither used nor evicted yet.
    pending: PendingFills,
}

impl EventSummary {
    /// An empty summary classifying first-use deltas against
    /// `early_threshold` (see [`default_early_threshold`]).
    pub fn new(early_threshold: Cycle) -> EventSummary {
        EventSummary {
            early_threshold,
            counts: LifecycleCounts::default(),
            pending: PendingFills::default(),
        }
    }

    /// Fold one event in.
    pub fn absorb(&mut self, ev: &Event) {
        self.counts
            .fold(ev, &mut self.pending, self.early_threshold, |_, _| {});
    }

    /// Prefetched blocks still resident and unused at end of run
    /// (filled, never demanded, never evicted).
    pub fn unresolved(&self) -> usize {
        self.pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> EventSummary {
        EventSummary::new(100)
    }

    #[test]
    fn lifecycle_fold_counts_and_classifies_timeliness() {
        let mut s = summary();
        // On-time: filled at 10, used at 50 (delta 40 <= 100).
        s.absorb(&Event::PrefetchIssued {
            class: PfClass::Helper,
            block: 0x40,
            at: 0,
        });
        s.absorb(&Event::PrefetchFilled {
            class: PfClass::Helper,
            block: 0x40,
            set: 1,
            at: 10,
        });
        s.absorb(&Event::PrefetchFirstUse {
            class: PfClass::Helper,
            block: 0x40,
            set: 1,
            at: 50,
        });
        // Early: filled at 10, used at 500.
        s.absorb(&Event::PrefetchFilled {
            class: PfClass::Stream,
            block: 0x80,
            set: 2,
            at: 10,
        });
        s.absorb(&Event::PrefetchFirstUse {
            class: PfClass::Stream,
            block: 0x80,
            set: 2,
            at: 500,
        });
        // Late: first use with no fill seen.
        s.absorb(&Event::PrefetchFirstUse {
            class: PfClass::Helper,
            block: 0xc0,
            set: 3,
            at: 60,
        });
        let c = &s.counts;
        assert_eq!(c.issued, [1, 0, 0, 0, 0]);
        assert_eq!(c.filled, [1, 1, 0, 0, 0]);
        assert_eq!(c.first_uses, [2, 1, 0, 0, 0]);
        assert_eq!((c.late, c.on_time, c.early), (1, 1, 1));
        assert_eq!(s.unresolved(), 0);
        assert!((c.accuracy(PfClass::Helper) - 2.0).abs() < 1e-12);
        assert_eq!(c.accuracy(PfClass::Dpl), 0.0);
    }

    #[test]
    fn pending_fills_behave_like_a_block_keyed_map() {
        let mut a = PendingFills::default();
        a.fill(3, 0x40, 10);
        a.fill(3, 0x80, 20);
        a.fill(3, 0x40, 30); // re-fill overwrites, like HashMap::insert
        assert_eq!(a.len(), 2);
        assert_eq!(a.first_use(3, 0x40, 35, 100), Timeliness::OnTime);
        assert_eq!(a.first_use(3, 0x40, 36, 100), Timeliness::Late);
        assert_eq!(a.first_use(3, 0x80, 500, 100), Timeliness::Early);
        assert_eq!(a.take(9, 0x80), None, "unknown set");
        assert_eq!(a.len(), 0);

        // Equality is by content: insertion order and grown-but-empty
        // buckets don't matter, fill times do.
        let mut x = PendingFills::default();
        let mut y = PendingFills::default();
        x.fill(1, 0x40, 5);
        x.fill(1, 0x80, 6);
        y.fill(7, 0xc0, 1);
        y.take(7, 0xc0);
        y.fill(1, 0x80, 6);
        y.fill(1, 0x40, 5);
        assert_eq!(x, y);
        y.fill(1, 0x40, 4);
        assert_ne!(x, y);
    }

    #[test]
    fn pollution_fold_reproduces_pollution_stats() {
        let mut s = summary();
        s.absorb(&Event::PollutionEviction {
            case: PollutionCase::Reuse,
            block: 0,
            set: 0,
            at: 1,
        });
        s.absorb(&Event::PollutionEviction {
            case: PollutionCase::UnusedHelper,
            block: 64,
            set: 0,
            at: 2,
        });
        s.absorb(&Event::PrefetchEvictedUnused {
            class: PfClass::Helper,
            block: 64,
            set: 0,
            at: 2,
        });
        let p = s.counts.pollution_stats();
        assert_eq!(p.reuse_evictions, 1);
        assert_eq!(p.unused_helper_evictions, 1);
        assert_eq!(p.unused_hw_evictions, 0);
        assert_eq!(p.dead_prefetches, 1);
        assert_eq!(s.counts.total_pollution(), 2);
    }

    #[test]
    fn first_mismatch_names_each_drifted_counter() {
        let stats = MemStats {
            prefetches_issued: [5, 4, 3, 2, 1],
            prefetches_useful: [3, 2, 1, 1, 0],
            pollution: PollutionStats {
                reuse_evictions: 7,
                unused_helper_evictions: 6,
                unused_hw_evictions: 5,
                dead_prefetches: 4,
            },
            ..MemStats::default()
        };
        let counts = LifecycleCounts {
            issued: stats.prefetches_issued,
            first_uses: stats.prefetches_useful,
            evicted_unused: [1, 1, 2, 0, 0],
            pollution: [7, 6, 5],
            ..LifecycleCounts::default()
        };
        assert_eq!(counts.first_mismatch(&stats), None);
        type Drift = fn(&mut LifecycleCounts);
        let drifts: [(&str, Drift); 6] = [
            ("issued", |c| c.issued[4] += 1),
            ("first_uses", |c| c.first_uses[3] -= 1),
            ("reuse_evictions", |c| c.pollution[0] += 1),
            ("unused_helper_evictions", |c| c.pollution[1] -= 1),
            ("unused_hw_evictions", |c| c.pollution[2] += 1),
            ("dead_prefetches", |c| c.evicted_unused[4] += 1),
        ];
        for (field, drift) in drifts {
            let mut c = counts;
            drift(&mut c);
            assert_eq!(c.first_mismatch(&stats).map(|m| m.0), Some(field), "{c:?}");
        }
        let mut c = counts;
        c.issued[4] += 1;
        let drifted = ("issued", "[5, 4, 3, 2, 2]".into(), "[5, 4, 3, 2, 1]".into());
        assert_eq!(c.first_mismatch(&stats), Some(drifted));
        // Fills and timeliness have no run counter to refine.
        let mut c = counts;
        c.filled[0] += 1;
        c.late += 1;
        assert_eq!(c.first_mismatch(&stats), None);
    }

    #[test]
    fn per_set_pressure_tracks_fills_and_occupancy() {
        let mut r = RingSink::new(0, 100);
        r.emit(Event::L2Fill {
            origin: FillOrigin::Helper,
            victim: None,
            set: 5,
            at: 1,
        });
        r.emit(Event::L2Fill {
            origin: FillOrigin::Demand,
            victim: Some(FillOrigin::Helper),
            set: 5,
            at: 2,
        });
        let p = r.per_set.get(&5).unwrap();
        assert_eq!(p.fills, [1, 1, 0]);
        assert_eq!(p.occupancy, [1, 0, 0], "helper line displaced");
        assert_eq!(p.total_fills(), 2);
    }

    #[test]
    fn quartiles_rank_sets_by_fill_pressure() {
        let mut r = RingSink::new(0, 100);
        // Sets 0..8 with descending pressure: set k gets 8-k fills.
        for set in 0u32..8 {
            for _ in 0..(8 - set) {
                r.emit(Event::L2Fill {
                    origin: FillOrigin::Demand,
                    victim: None,
                    set,
                    at: 0,
                });
            }
            r.emit(Event::PollutionEviction {
                case: PollutionCase::Reuse,
                block: 0,
                set,
                at: 0,
            });
        }
        let q = r.pollution_by_quartile();
        assert_eq!(q.iter().map(|r| r.sets).sum::<usize>(), 8);
        assert_eq!(q[0].sets, 2);
        assert_eq!(q[0].fills, 8 + 7, "hottest two sets first");
        assert_eq!(q[3].fills, 2 + 1);
        assert_eq!(q.iter().map(|r| r.pollution[0]).sum::<u64>(), 8);
        // No events: all zero rows.
        assert_eq!(
            RingSink::new(0, 100).pollution_by_quartile(),
            [QuartileRow::default(); 4]
        );
    }

    #[test]
    fn ring_sink_bounds_and_drops_oldest() {
        let mut r = RingSink::new(2, 100);
        for i in 0..5u64 {
            r.emit(Event::PrefetchIssued {
                class: PfClass::Helper,
                block: i * 64,
                at: i,
            });
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
        assert_eq!(
            r.summary.counts.issued[0], 5,
            "summary folds every event, dropped or not"
        );
        let blocks: Vec<VAddr> = r
            .events()
            .map(|e| match e {
                Event::PrefetchIssued { block, .. } => *block,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(blocks, vec![192, 256], "oldest dropped first");
    }

    #[test]
    fn ndjson_lines_are_valid_and_distinct() {
        let evs = [
            Event::PrefetchIssued {
                class: PfClass::Helper,
                block: 64,
                at: 1,
            },
            Event::PrefetchFilled {
                class: PfClass::Stream,
                block: 64,
                set: 3,
                at: 2,
            },
            Event::PrefetchFirstUse {
                class: PfClass::Dpl,
                block: 64,
                set: 3,
                at: 3,
            },
            Event::PrefetchEvictedUnused {
                class: PfClass::Helper,
                block: 64,
                set: 3,
                at: 4,
            },
            Event::PollutionEviction {
                case: PollutionCase::UnusedHw,
                block: 64,
                set: 3,
                at: 5,
            },
            Event::L2Fill {
                origin: FillOrigin::Hw,
                victim: Some(FillOrigin::Demand),
                set: 3,
                at: 6,
            },
            Event::L2Fill {
                origin: FillOrigin::Demand,
                victim: None,
                set: 3,
                at: 7,
            },
        ];
        let mut seen = std::collections::HashSet::new();
        for ev in &evs {
            let line = ev.ndjson();
            assert!(
                line.starts_with("{\"ev\":\"") && line.ends_with('}'),
                "{line}"
            );
            assert!(!line.contains('\n'));
            assert!(seen.insert(line.clone()), "duplicate encoding {line}");
        }
        assert!(evs[5].ndjson().contains("\"victim\":\"demand\""));
        assert!(evs[6].ndjson().contains("\"victim\":null"));
    }

    #[test]
    fn taxonomy_labels_and_indices_are_consistent() {
        for (i, c) in PfClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, o) in FillOrigin::ALL.iter().enumerate() {
            assert_eq!(o.index(), i);
        }
        for (i, c) in PollutionCase::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(PfClass::of(Entity::Main), None);
        assert_eq!(PfClass::of(Entity::HwStream(1)), Some(PfClass::Stream));
        assert_eq!(FillOrigin::of(Entity::HwDpl(0), true), FillOrigin::Hw);
        assert_eq!(FillOrigin::of(Entity::HwDpl(0), false), FillOrigin::Demand);
        assert_eq!(
            default_early_threshold(&LatencyConfig::default()),
            8 * LatencyConfig::default().mem
        );
    }
}
