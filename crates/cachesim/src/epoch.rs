//! Epoch-windowed telemetry: the flight recorder for cache pollution.
//!
//! [`crate::stats::MemStats`] counters and
//! [`crate::events::EventSummary`] folds are *run aggregates*: they say
//! how much pollution happened, never *when*. The paper's argument is
//! temporal (prefetches land too far ahead of the main thread's
//! return), so this module windows the same taxonomy. Each
//! [`EpochWindow`] embeds the run-level [`LifecycleCounts`] block beside
//! what only a window has: hit classes per thread, L2 fills by origin,
//! MSHR occupancy and the window's set shape.
//!
//! [`EpochSink`] closes a window every `epoch_len` *main-thread
//! references*, not cycles: epoch `i` always means "the main thread's
//! references `[i*N, (i+1)*N)`", so series at different prefetch
//! distances line up reference-for-reference — exactly what the
//! per-distance epoch heatmap in `spt report` compares.
//!
//! # Two paths to one series
//!
//! * **Live: counter snapshots.** Attached to a run, the sink receives
//!   no events and no demand ticks. It opts into the memory system's
//!   snapshot channel ([`EventSink::SNAPSHOTS`]): at the main-thread
//!   access that ends a window, and once after the end-of-run drain, the
//!   memory system shows it its running counters — `MemStats` plus the
//!   small [`crate::stats::SnapshotCounters`] ledger (per-class prefetch
//!   fills and dead prefetches, late and early first uses, fills per
//!   set, MSHR occupancy) — and a window is the difference of two
//!   snapshots. Timeliness needs no pending-fill table: a pending fill
//!   *is* a resident, never-used prefetched L2 line, so the memory
//!   system times a first use against that line's fill cycle.
//! * **Reference: the event fold.** Fed a captured event stream and its
//!   demand ticks by hand, the same sink folds them into windows with
//!   the run-level fold. The differential suite and the benchmark's
//!   event rung check that both paths give the same series.
//!
//! Invariants the test suite pins:
//!
//! * **Zero cost disabled** — both channels are guarded by associated
//!   constants, so `NullSink` replays compile the recorder out entirely
//!   (`tests/events_off.rs` pins that no channel is called when all are
//!   off).
//! * **Non-perturbing enabled** — the sink only observes; counters are
//!   bit-identical with and without it (differential suites).
//! * **Exact refinement** — [`EpochSeries::totals`] folds back to the
//!   run-aggregate counters exactly: per-thread hit classes, issued /
//!   first-use prefetch counts, and the three displacement cases; its
//!   lifecycle block equals the run's `EventSummary` counts.
//! * **One series, two paths** — a live series equals the fold of the
//!   run's events and ticks, window for window
//!   (`crates/cachesim/tests/epoch_snapshots.rs`).

use crate::clock::Cycle;
use crate::events::{
    Event, EventSink, FillOrigin, LifecycleCounts, PendingFills, Snapshot, SnapshotPlan,
};
use crate::stats::{Entity, HitClass, PollutionStats, ThreadStats};

/// Default epoch length, in main-thread references.
pub const DEFAULT_EPOCH_LEN: u64 = 10_000;

/// How many of the hottest sets each window keeps (by fill pressure).
pub const EPOCH_TOP_SETS: usize = 4;

/// Log2 buckets in the per-set fill-count histogram: `[0]` counts sets
/// with exactly 1 fill, `[1]` sets with 2–3, `[2]` sets with 4–7, …
/// capped at `2^(LEN-1)` and up in the last bucket.
pub const EPOCH_HIST_BUCKETS: usize = 8;

/// Index into the `[l1, total_hit, partial, miss]` hit-class arrays.
fn class_index(c: HitClass) -> usize {
    match c {
        HitClass::L1Hit => 0,
        HitClass::TotalHit => 1,
        HitClass::PartialHit => 2,
        HitClass::TotalMiss => 3,
    }
}

/// One fixed-size window of the telemetry series. All counters cover
/// events observed while this window was current; `top_sets` and
/// `fill_histogram` are materialized from the window's per-set fill
/// tally when it closes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochWindow {
    /// Window number, starting at 0.
    pub index: u64,
    /// Main-thread references retired in this window (== the epoch
    /// length for every window but the final partial one).
    pub refs: u64,
    /// Helper-thread covered loads completed in this window.
    pub helper_refs: u64,
    /// Main-thread hit classes `[l1, total_hit, partial, miss]`.
    pub main: [u64; 4],
    /// Helper-thread hit classes `[l1, total_hit, partial, miss]`.
    pub helper: [u64; 4],
    /// The window's prefetch lifecycle, displacement cases and
    /// timeliness split.
    pub counts: LifecycleCounts,
    /// L2 fills by origin `[demand, helper, hw]`.
    pub l2_fills: [u64; 3],
    /// Peak per-core MSHR occupancy observed at access completion.
    pub mshr_peak: u64,
    /// Sum of MSHR occupancies over all ticks (divide by `refs +
    /// helper_refs` for the mean).
    pub mshr_sum: u64,
    /// The window's hottest sets: `(set, fills)` sorted by descending
    /// fills, ties by ascending set index. At most [`EPOCH_TOP_SETS`].
    pub top_sets: Vec<(u32, u64)>,
    /// Log2 histogram of per-set fill counts (see
    /// [`EPOCH_HIST_BUCKETS`]); index `b` counts sets with fills in
    /// `[2^b, 2^(b+1))`.
    pub fill_histogram: Vec<u64>,
}

impl EpochWindow {
    /// Total demand + helper ticks in this window.
    pub fn ticks(&self) -> u64 {
        self.refs + self.helper_refs
    }

    /// Main-thread miss rate (totally-missed fraction; 0.0 when empty).
    pub fn miss_rate(&self) -> f64 {
        if self.refs == 0 {
            0.0
        } else {
            self.main[class_index(HitClass::TotalMiss)] as f64 / self.refs as f64
        }
    }

    /// Mean MSHR occupancy at completion (0.0 when empty).
    pub fn mshr_mean(&self) -> f64 {
        let t = self.ticks();
        if t == 0 {
            0.0
        } else {
            self.mshr_sum as f64 / t as f64
        }
    }

    /// Fold `other`'s counters into this window (series totals; the
    /// set-shape fields don't aggregate and stay as they are).
    fn accumulate(&mut self, other: &EpochWindow) {
        self.refs += other.refs;
        self.helper_refs += other.helper_refs;
        for i in 0..4 {
            self.main[i] += other.main[i];
            self.helper[i] += other.helper[i];
        }
        self.counts += other.counts;
        for i in 0..3 {
            self.l2_fills[i] += other.l2_fills[i];
        }
        self.mshr_peak = self.mshr_peak.max(other.mshr_peak);
        self.mshr_sum += other.mshr_sum;
    }

    /// The counters of `self` minus those of `earlier`, for two
    /// running-total windows ([`EpochWindow::run_so_far`]) of one run:
    /// the change between their snapshots. `mshr_peak` is already a
    /// per-window high-water mark and is kept as it is.
    fn since(&self, earlier: &EpochWindow) -> EpochWindow {
        fn sub<const N: usize>(a: [u64; N], b: [u64; N]) -> [u64; N] {
            std::array::from_fn(|i| a[i] - b[i])
        }
        let (c, e) = (&self.counts, &earlier.counts);
        EpochWindow {
            index: self.index,
            refs: self.refs - earlier.refs,
            helper_refs: self.helper_refs - earlier.helper_refs,
            main: sub(self.main, earlier.main),
            helper: sub(self.helper, earlier.helper),
            counts: LifecycleCounts {
                issued: sub(c.issued, e.issued),
                filled: sub(c.filled, e.filled),
                first_uses: sub(c.first_uses, e.first_uses),
                evicted_unused: sub(c.evicted_unused, e.evicted_unused),
                pollution: sub(c.pollution, e.pollution),
                late: c.late - e.late,
                on_time: c.on_time - e.on_time,
                early: c.early - e.early,
            },
            l2_fills: sub(self.l2_fills, earlier.l2_fills),
            mshr_peak: self.mshr_peak,
            mshr_sum: self.mshr_sum - earlier.mshr_sum,
            top_sets: Vec::new(),
            fill_histogram: Vec::new(),
        }
    }

    /// The run so far as one window of running totals, read off a
    /// counter snapshot (set-shape fields empty). What the event fold
    /// tracks on its own follows from the counters:
    ///
    /// * a pending fill is a resident, never-used prefetched L2 line, so
    ///   a first use that merged into an in-flight prefetch is late, one
    ///   whose line idled past the threshold is early, and every other
    ///   first use is on time;
    /// * fills by origin are the L2 fills split by the per-class
    ///   prefetch fills — a prefetch a demand merged into lands as a
    ///   demand fill.
    fn run_so_far(snap: &Snapshot<'_>) -> EpochWindow {
        let (st, c) = (snap.stats, snap.counters);
        let classes = |t: &ThreadStats| [t.l1_hits, t.total_hits, t.partial_hits, t.total_misses];
        let (main, helper) = (classes(&st.main), classes(&st.helper));
        let p = &st.pollution;
        let useful: u64 = st.prefetches_useful.iter().sum();
        let hw_fills: u64 = c.filled[1..].iter().sum();
        EpochWindow {
            index: 0,
            refs: main.iter().sum(),
            helper_refs: helper.iter().sum(),
            main,
            helper,
            counts: LifecycleCounts {
                issued: st.prefetches_issued,
                filled: c.filled,
                first_uses: st.prefetches_useful,
                evicted_unused: c.evicted_unused,
                pollution: [
                    p.reuse_evictions,
                    p.unused_helper_evictions,
                    p.unused_hw_evictions,
                ],
                late: c.late,
                on_time: useful - c.late - c.early,
                early: c.early,
            },
            l2_fills: [st.l2_fills - c.filled[0] - hw_fills, c.filled[0], hw_fills],
            mshr_peak: c.mshr_peak,
            mshr_sum: c.mshr_sum,
            top_sets: Vec::new(),
            fill_histogram: Vec::new(),
        }
    }

    /// Encode as one NDJSON line (no trailing newline). `extra` is
    /// spliced verbatim after the opening brace — callers use it to
    /// prepend identifying fields (`"distance":8,`); pass `""` for
    /// none.
    pub fn ndjson(&self, extra: &str) -> String {
        let mut out = String::new();
        self.write_ndjson(&mut out, extra);
        out
    }

    /// Append [`EpochWindow::ndjson`]'s line to `out`, formatting every
    /// field in place (no per-field temporaries).
    fn write_ndjson(&self, out: &mut String, extra: &str) {
        use std::fmt::Write;
        fn arr(xs: &[u64]) -> JsonArray<'_, u64> {
            JsonArray(xs, |x, f| write!(f, "{x}"))
        }
        let tops = JsonArray(&self.top_sets, |(set, fills), f| {
            write!(f, "[{set},{fills}]")
        });
        write!(
            out,
            "{{{extra}\"epoch\":{},\"refs\":{},\"helper_refs\":{},\
             \"main\":{},\"helper\":{},\"issued\":{},\"filled\":{},\
             \"first_uses\":{},\"evicted_unused\":{},\"pollution\":{},\
             \"late\":{},\"on_time\":{},\"early\":{},\"l2_fills\":{},\
             \"mshr_peak\":{},\"mshr_sum\":{},\"top_sets\":{},\
             \"fill_histogram\":{}}}",
            self.index,
            self.refs,
            self.helper_refs,
            arr(&self.main),
            arr(&self.helper),
            arr(&self.counts.issued),
            arr(&self.counts.filled),
            arr(&self.counts.first_uses),
            arr(&self.counts.evicted_unused),
            arr(&self.counts.pollution),
            self.counts.late,
            self.counts.on_time,
            self.counts.early,
            arr(&self.l2_fills),
            self.mshr_peak,
            self.mshr_sum,
            tops,
            arr(&self.fill_histogram),
        )
        .expect("formatting into a String cannot fail");
    }
}

/// A slice as a JSON array, each element written by the function,
/// formatted straight into the destination.
struct JsonArray<'a, T>(
    &'a [T],
    fn(&T, &mut std::fmt::Formatter<'_>) -> std::fmt::Result,
);

impl<T> std::fmt::Display for JsonArray<'_, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("[")?;
        for (i, x) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            (self.1)(x, f)?;
        }
        f.write_str("]")
    }
}

/// A finished telemetry series: every closed window plus the final
/// partial one, in order. Equal runs produce equal series
/// (`PartialEq`), which is what the jobs-width determinism suite pins.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSeries {
    /// Window length in main-thread references.
    pub epoch_len: u64,
    /// The timeliness threshold the fold classified against.
    pub early_threshold: Cycle,
    /// The windows, in execution order.
    pub epochs: Vec<EpochWindow>,
}

impl EpochSeries {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// `true` when no window was recorded.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Fold the whole series into one window (index 0, set-shape
    /// fields empty). The numeric fields must equal the run-aggregate
    /// counters exactly — epochs are a refinement of the aggregates,
    /// not a second truth; `totals_match_run` spells out the mapping.
    pub fn totals(&self) -> EpochWindow {
        let mut t = EpochWindow::default();
        for w in &self.epochs {
            t.accumulate(w);
        }
        t
    }

    /// The aggregate [`PollutionStats`] this series folds to (see
    /// [`LifecycleCounts::pollution_stats`]).
    pub fn pollution_stats(&self) -> PollutionStats {
        self.totals().counts.pollution_stats()
    }

    /// Encode the series as NDJSON, one window per line (trailing
    /// newline included when non-empty). `extra` is spliced into every
    /// line — see [`EpochWindow::ndjson`]. The string is returned
    /// right-sized (capacity equal to length), so callers that keep many
    /// series hold no slack.
    pub fn to_ndjson(&self, extra: &str) -> String {
        let mut out = String::new();
        for w in &self.epochs {
            w.write_ndjson(&mut out, extra);
            out.push('\n');
        }
        out.shrink_to_fit();
        out
    }
}

/// The recorder: closes an [`EpochWindow`] every `epoch_len`
/// main-thread references. Call [`EpochSink::finish`] after the run's
/// final drain to collect the [`EpochSeries`] (the partial last window —
/// including the fills of the end-of-run drain — is closed unless it is
/// blank).
///
/// Attached to a run, it opts into counter snapshots only
/// ([`EventSink::SNAPSHOTS`]; no events, no demand ticks) and builds
/// each window as the difference of two snapshots. Its
/// [`EventSink::emit`] and [`EventSink::demand_tick`] still fold a
/// stream fed to them by hand into the same windows: that fold is the
/// reference a captured stream is checked against.
#[derive(Debug, Clone)]
pub struct EpochSink {
    epoch_len: u64,
    early_threshold: Cycle,
    cur: EpochWindow,
    /// Fills per set in the current window, indexed by set (grown on
    /// demand, zeroed when the window closes). Walking it in index
    /// order is what makes top-K/histogram materialization
    /// deterministic.
    cur_sets: Vec<u64>,
    /// Fold only: speculatively filled blocks awaiting first use —
    /// carried *across* windows so timeliness matches the run-level
    /// fold: a fill in epoch 3 first used in epoch 5 classifies (and
    /// counts) in epoch 5.
    pending: PendingFills,
    /// Snapshots only: the running totals and per-set fills at the
    /// previous snapshot.
    prev: EpochWindow,
    prev_sets: Vec<u64>,
    done: Vec<EpochWindow>,
}

impl EpochSink {
    /// A recorder with the given window length (clamped to ≥ 1) and
    /// early-use threshold (see
    /// [`crate::events::default_early_threshold`]).
    pub fn new(epoch_len: u64, early_threshold: Cycle) -> EpochSink {
        EpochSink {
            epoch_len: epoch_len.max(1),
            early_threshold,
            cur: EpochWindow::default(),
            cur_sets: Vec::new(),
            pending: PendingFills::default(),
            prev: EpochWindow::default(),
            prev_sets: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Materialize the current window's set shape and push it.
    fn close_window(&mut self) {
        let mut hist = vec![0u64; EPOCH_HIST_BUCKETS];
        let mut ranked: Vec<(u32, u64)> = Vec::with_capacity(EPOCH_TOP_SETS + 1);
        for (set, fills) in self.cur_sets.iter_mut().enumerate() {
            if *fills == 0 {
                continue;
            }
            let bucket = (63 - fills.leading_zeros() as usize).min(EPOCH_HIST_BUCKETS - 1);
            hist[bucket] += 1;
            // Hottest first; sets arrive in ascending index order, so
            // inserting after every equal count breaks ties toward the
            // lower set index (determinism).
            let at = ranked.partition_point(|&(_, f)| f >= *fills);
            if at < EPOCH_TOP_SETS {
                ranked.insert(at, (set as u32, *fills));
                ranked.truncate(EPOCH_TOP_SETS);
            }
            *fills = 0;
        }
        let next_index = self.cur.index + 1;
        let mut w = std::mem::take(&mut self.cur);
        w.top_sets = ranked;
        w.fill_histogram = hist;
        self.done.push(w);
        self.cur.index = next_index;
    }

    /// `true` when the current window has observed nothing at all.
    /// (Every per-set fill also counts in `cur.l2_fills`, so a blank
    /// window has an all-zero `cur_sets` too.)
    fn cur_is_blank(&self) -> bool {
        let z = EpochWindow {
            index: self.cur.index,
            ..EpochWindow::default()
        };
        self.cur == z
    }

    /// Finish recording: close the final partial window (if it saw
    /// anything) and return the series.
    pub fn finish(mut self) -> EpochSeries {
        if !self.cur_is_blank() {
            self.close_window();
        }
        EpochSeries {
            epoch_len: self.epoch_len,
            early_threshold: self.early_threshold,
            epochs: self.done,
        }
    }
}

impl EventSink for EpochSink {
    const ENABLED: bool = false;
    const SNAPSHOTS: bool = true;

    #[inline(always)]
    fn snapshot_plan(&self) -> SnapshotPlan {
        SnapshotPlan {
            every: self.epoch_len,
            early_threshold: self.early_threshold,
        }
    }

    /// Make the current window the change since the previous snapshot,
    /// then close it — except after the end-of-run drain, where
    /// [`EpochSink::finish`] closes it unless it is blank.
    fn snapshot(&mut self, snap: &Snapshot<'_>) {
        let now = EpochWindow::run_so_far(snap);
        self.cur = EpochWindow {
            index: self.cur.index,
            ..now.since(&self.prev)
        };
        self.prev = now;
        let sets = &snap.counters.fills_by_set;
        if self.prev_sets.len() < sets.len() {
            self.prev_sets.resize(sets.len(), 0);
            self.cur_sets.resize(sets.len(), 0);
        }
        for ((cur, prev), &total) in self.cur_sets.iter_mut().zip(&mut self.prev_sets).zip(sets) {
            *cur = total - *prev;
            *prev = total;
        }
        if !snap.end {
            self.close_window();
        }
    }

    fn emit(&mut self, ev: Event) {
        let (l2_fills, cur_sets) = (&mut self.cur.l2_fills, &mut self.cur_sets);
        let tally = |origin: FillOrigin, set: u32| {
            l2_fills[origin.index()] += 1;
            let set = set as usize;
            if set >= cur_sets.len() {
                cur_sets.resize(set + 1, 0);
            }
            cur_sets[set] += 1;
        };
        self.cur
            .counts
            .fold(&ev, &mut self.pending, self.early_threshold, tally);
    }

    fn demand_tick(&mut self, entity: Entity, class: HitClass, _set: u32, mshr: usize, _at: Cycle) {
        let i = class_index(class);
        self.cur.mshr_sum += mshr as u64;
        self.cur.mshr_peak = self.cur.mshr_peak.max(mshr as u64);
        match entity {
            Entity::Main => {
                self.cur.refs += 1;
                self.cur.main[i] += 1;
                // Only the main thread's progress advances the window:
                // epoch boundaries are positions in the *demanded*
                // reference stream, comparable across distances.
                if self.cur.refs == self.epoch_len {
                    self.close_window();
                }
            }
            _ => {
                self.cur.helper_refs += 1;
                self.cur.helper[i] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::PfClass;

    fn tick(sink: &mut EpochSink, n: u64, class: HitClass) {
        for _ in 0..n {
            sink.demand_tick(Entity::Main, class, 0, 2, 100);
        }
    }

    #[test]
    fn windows_close_on_main_refs_only() {
        let mut s = EpochSink::new(10, 1000);
        tick(&mut s, 25, HitClass::L1Hit);
        for _ in 0..7 {
            s.demand_tick(Entity::Helper, HitClass::TotalMiss, 3, 4, 50);
        }
        let series = s.finish();
        assert_eq!(series.len(), 3);
        assert_eq!(series.epochs[0].refs, 10);
        assert_eq!(series.epochs[1].refs, 10);
        assert_eq!(series.epochs[2].refs, 5);
        // Helper ticks never close a window: all seven arrive after the
        // 25th main tick, so they land in the final partial window.
        assert_eq!(series.epochs[2].helper_refs, 7);
        assert_eq!(series.epochs[2].helper[3], 7);
        let t = series.totals();
        assert_eq!(t.refs, 25);
        assert_eq!(t.helper_refs, 7);
        assert_eq!(t.main[0], 25);
        assert_eq!(t.mshr_peak, 4);
        assert_eq!(t.mshr_sum, 25 * 2 + 7 * 4);
    }

    #[test]
    fn exact_epoch_multiple_leaves_no_partial_window() {
        let mut s = EpochSink::new(5, 1000);
        tick(&mut s, 10, HitClass::TotalMiss);
        let series = s.finish();
        assert_eq!(series.len(), 2);
        assert!(series.epochs.iter().all(|w| w.refs == 5));
        assert_eq!(series.totals().main[3], 10);
        assert!((series.epochs[0].miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeliness_carries_across_window_boundaries() {
        let mut s = EpochSink::new(2, 100);
        s.emit(Event::PrefetchFilled {
            class: PfClass::Helper,
            block: 64,
            set: 1,
            at: 10,
        });
        tick(&mut s, 2, HitClass::L1Hit); // closes window 0
        s.emit(Event::PrefetchFirstUse {
            class: PfClass::Helper,
            block: 64,
            set: 1,
            at: 50,
        });
        // Unseen fill -> late; seen but idle past threshold -> early.
        s.emit(Event::PrefetchFirstUse {
            class: PfClass::Helper,
            block: 128,
            set: 1,
            at: 60,
        });
        let series = s.finish();
        assert_eq!(
            series.epochs[0].counts.on_time, 0,
            "fill alone is not a use"
        );
        assert_eq!(series.epochs[1].counts.on_time, 1, "classified where used");
        assert_eq!(series.epochs[1].counts.late, 1);
        let t = series.totals().counts;
        assert_eq!((t.late, t.on_time, t.early), (1, 1, 0));
    }

    #[test]
    fn set_shape_materializes_per_window() {
        let mut s = EpochSink::new(1, 100);
        for (set, n) in [(7u32, 5u64), (3, 5), (1, 2), (9, 1), (2, 1), (4, 1)] {
            for _ in 0..n {
                s.emit(Event::L2Fill {
                    origin: crate::events::FillOrigin::Demand,
                    victim: None,
                    set,
                    at: 1,
                });
            }
        }
        tick(&mut s, 1, HitClass::L1Hit);
        let series = s.finish();
        let w = &series.epochs[0];
        // Ties by fills break toward the lower set index.
        assert_eq!(w.top_sets, vec![(3, 5), (7, 5), (1, 2), (2, 1)]);
        // Histogram: three sets with 1 fill (bucket 0), one with 2
        // (bucket 1), two with 5 (bucket 2).
        assert_eq!(&w.fill_histogram[..3], &[3, 1, 2]);
        assert_eq!(w.l2_fills, [15, 0, 0]);
    }

    #[test]
    fn ndjson_splices_extra_fields_and_is_one_line_per_epoch() {
        let mut s = EpochSink::new(4, 100);
        tick(&mut s, 6, HitClass::TotalHit);
        let series = s.finish();
        let nd = series.to_ndjson("\"distance\":8,");
        assert_eq!(nd.lines().count(), 2);
        for line in nd.lines() {
            assert!(line.starts_with("{\"distance\":8,\"epoch\":"), "{line}");
            assert!(line.ends_with('}'), "{line}");
        }
        assert!(nd.contains("\"refs\":4"));
        assert!(nd.contains("\"refs\":2"));
    }

    #[test]
    fn ndjson_is_pinned_and_right_sized() {
        let w = EpochWindow {
            index: 3,
            refs: 10,
            helper_refs: 4,
            main: [1, 2, 3, 4],
            helper: [0, 1, 0, 3],
            counts: LifecycleCounts {
                issued: [5, 0, 0, 2, 0],
                filled: [4, 0, 0, 1, 0],
                first_uses: [3, 0, 0, 1, 0],
                evicted_unused: [1, 0, 0, 0, 0],
                pollution: [2, 1, 0],
                late: 1,
                on_time: 2,
                early: 1,
            },
            l2_fills: [6, 4, 1],
            mshr_peak: 3,
            mshr_sum: 17,
            top_sets: vec![(7, 3), (2, 1)],
            fill_histogram: vec![1, 1, 0],
        };
        let line = "{\"d\":1,\"epoch\":3,\"refs\":10,\"helper_refs\":4,\"main\":[1,2,3,4],\
                    \"helper\":[0,1,0,3],\"issued\":[5,0,0,2,0],\"filled\":[4,0,0,1,0],\
                    \"first_uses\":[3,0,0,1,0],\"evicted_unused\":[1,0,0,0,0],\
                    \"pollution\":[2,1,0],\"late\":1,\"on_time\":2,\"early\":1,\
                    \"l2_fills\":[6,4,1],\"mshr_peak\":3,\"mshr_sum\":17,\
                    \"top_sets\":[[7,3],[2,1]],\"fill_histogram\":[1,1,0]}";
        assert_eq!(w.ndjson("\"d\":1,"), line);
        let empty = EpochWindow::default().ndjson("");
        assert!(
            empty.contains("\"top_sets\":[],\"fill_histogram\":[]}"),
            "{empty}"
        );
        let series = EpochSeries {
            epoch_len: 10,
            early_threshold: 100,
            epochs: vec![w.clone(), w],
        };
        let nd = series.to_ndjson("\"d\":1,");
        assert_eq!(nd, format!("{line}\n{line}\n"));
        assert_eq!(nd.capacity(), nd.len(), "no slack kept per series");
    }

    #[test]
    fn empty_run_yields_empty_series() {
        let series = EpochSink::new(10, 100).finish();
        assert!(series.is_empty());
        assert_eq!(series.totals(), EpochWindow::default());
    }
}
