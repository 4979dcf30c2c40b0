//! Epoch-windowed telemetry: the flight recorder for cache pollution.
//!
//! Every surface built so far — [`crate::stats::MemStats`] counters,
//! [`crate::events::EventSummary`] folds, the Prometheus exposition —
//! is a *run aggregate*: it says how much pollution happened, never
//! *when*. The paper's argument is temporal (prefetches land too far
//! ahead of the main thread's return), and the planned adaptive
//! distance controller needs a phase-wise signal to steer on. This
//! module adds that signal without touching the aggregates.
//!
//! [`EpochSink`] is an [`EventSink`] that folds the event stream into
//! fixed-size windows of [`EpochWindow`]s. Windows advance on
//! *main-thread references* (via the sink's demand-tick channel), not
//! on cycles: epoch `i` always means "the main thread's references
//! `[i*N, (i+1)*N)`", so series at different prefetch distances line
//! up reference-for-reference — exactly what the per-distance epoch
//! heatmap in `spt report` compares.
//!
//! Invariants the test suite pins:
//!
//! * **Zero cost disabled** — the recorder rides the existing
//!   `EventSink` generic; `NullSink` replays compile it out entirely
//!   (the demand-tick guard mirrors the `ENABLED` guard, and
//!   `tests/events_off.rs` pins that neither channel is called when
//!   both are off).
//! * **Non-perturbing enabled** — the sink only observes; counters are
//!   bit-identical with and without it (differential suites).
//! * **Exact refinement** — [`EpochSeries::totals`] folds back to the
//!   run-aggregate counters exactly: per-thread hit classes, issued /
//!   first-use prefetch counts, and the three displacement cases.

use crate::clock::Cycle;
use crate::events::{Event, EventSink, PendingFills, Timeliness};
use crate::stats::{Entity, HitClass, PollutionStats};

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
    /// Prefetches issued, by class (see [`crate::events::PfClass`]).
    pub issued: [u64; 5],
    /// Speculative L2 fills, by class.
    pub filled: [u64; 5],
    /// First main-thread uses, by class.
    pub first_uses: [u64; 5],
    /// Never-used prefetches evicted, by class.
    pub evicted_unused: [u64; 5],
    /// The paper's displacement cases `[reuse, unused_helper,
    /// unused_hw]`.
    pub pollution: [u64; 3],
    /// First uses whose fill was still in flight.
    pub late: u64,
    /// First uses within the early threshold of their fill.
    pub on_time: u64,
    /// First uses past the early threshold (eviction-risk residency).
    pub early: u64,
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

    /// Total displacement events across the three cases.
    pub fn total_pollution(&self) -> u64 {
        self.pollution.iter().sum()
    }

    /// Timeliness bucket accessor by enum, for report loops.
    pub fn timeliness(&self, t: Timeliness) -> u64 {
        match t {
            Timeliness::Late => self.late,
            Timeliness::OnTime => self.on_time,
            Timeliness::Early => self.early,
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
        for i in 0..5 {
            self.issued[i] += other.issued[i];
            self.filled[i] += other.filled[i];
            self.first_uses[i] += other.first_uses[i];
            self.evicted_unused[i] += other.evicted_unused[i];
        }
        for i in 0..3 {
            self.pollution[i] += other.pollution[i];
            self.l2_fills[i] += other.l2_fills[i];
        }
        self.late += other.late;
        self.on_time += other.on_time;
        self.early += other.early;
        self.mshr_peak = self.mshr_peak.max(other.mshr_peak);
        self.mshr_sum += other.mshr_sum;
    }

    /// Encode as one NDJSON line (no trailing newline). `extra` is
    /// spliced verbatim after the opening brace — callers use it to
    /// prepend identifying fields (`"distance":8,`); pass `""` for
    /// none.
    pub fn ndjson(&self, extra: &str) -> String {
        fn arr(xs: &[u64]) -> String {
            let body: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
            format!("[{}]", body.join(","))
        }
        let tops: Vec<String> = self
            .top_sets
            .iter()
            .map(|(s, f)| format!("[{s},{f}]"))
            .collect();
        format!(
            "{{{extra}\"epoch\":{},\"refs\":{},\"helper_refs\":{},\
             \"main\":{},\"helper\":{},\"issued\":{},\"filled\":{},\
             \"first_uses\":{},\"evicted_unused\":{},\"pollution\":{},\
             \"late\":{},\"on_time\":{},\"early\":{},\"l2_fills\":{},\
             \"mshr_peak\":{},\"mshr_sum\":{},\"top_sets\":[{}],\
             \"fill_histogram\":{}}}",
            self.index,
            self.refs,
            self.helper_refs,
            arr(&self.main),
            arr(&self.helper),
            arr(&self.issued),
            arr(&self.filled),
            arr(&self.first_uses),
            arr(&self.evicted_unused),
            arr(&self.pollution),
            self.late,
            self.on_time,
            self.early,
            arr(&self.l2_fills),
            self.mshr_peak,
            self.mshr_sum,
            tops.join(","),
            arr(&self.fill_histogram),
        )
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

    /// The aggregate [`PollutionStats`] this series folds to (same
    /// contract as [`crate::events::EventSummary::pollution_stats`]).
    pub fn pollution_stats(&self) -> PollutionStats {
        let t = self.totals();
        PollutionStats {
            reuse_evictions: t.pollution[0],
            unused_helper_evictions: t.pollution[1],
            unused_hw_evictions: t.pollution[2],
            dead_prefetches: t.evicted_unused.iter().sum(),
        }
    }

    /// Encode the series as NDJSON, one window per line (trailing
    /// newline included when non-empty). `extra` is spliced into every
    /// line — see [`EpochWindow::ndjson`].
    pub fn to_ndjson(&self, extra: &str) -> String {
        let mut out = String::new();
        for w in &self.epochs {
            out.push_str(&w.ndjson(extra));
            out.push('\n');
        }
        out
    }
}

/// The recording sink: an [`EventSink`] with `DEMAND_TICKS` that folds
/// the stream into [`EpochWindow`]s and closes a window every
/// `epoch_len` main-thread references. Call [`EpochSink::finish`] after
/// the run's final drain to collect the [`EpochSeries`] (the partial
/// last window — including end-of-run `Cycle::MAX` drain events —
/// folds in).
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
    /// Speculatively filled blocks awaiting first use — carried
    /// *across* windows so timeliness matches the run-level fold: a
    /// fill in epoch 3 first used in epoch 5 classifies (and counts)
    /// in epoch 5.
    pending: PendingFills,
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
    const ENABLED: bool = true;
    const DEMAND_TICKS: bool = true;

    fn emit(&mut self, ev: Event) {
        match ev {
            Event::PrefetchIssued { class, .. } => self.cur.issued[class.index()] += 1,
            Event::PrefetchFilled {
                class,
                block,
                set,
                at,
            } => {
                self.cur.filled[class.index()] += 1;
                self.pending.fill(set, block, at);
            }
            Event::PrefetchFirstUse {
                class,
                block,
                set,
                at,
            } => {
                self.cur.first_uses[class.index()] += 1;
                match self.pending.first_use(set, block, at, self.early_threshold) {
                    Timeliness::Late => self.cur.late += 1,
                    Timeliness::OnTime => self.cur.on_time += 1,
                    Timeliness::Early => self.cur.early += 1,
                }
            }
            Event::PrefetchEvictedUnused {
                class, block, set, ..
            } => {
                self.cur.evicted_unused[class.index()] += 1;
                self.pending.take(set, block);
            }
            Event::PollutionEviction { case, .. } => {
                self.cur.pollution[case.index()] += 1;
            }
            Event::L2Fill { origin, set, .. } => {
                self.cur.l2_fills[origin.index()] += 1;
                let set = set as usize;
                if set >= self.cur_sets.len() {
                    self.cur_sets.resize(set + 1, 0);
                }
                self.cur_sets[set] += 1;
            }
        }
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
        assert_eq!(series.epochs[0].on_time, 0, "fill alone is not a use");
        assert_eq!(series.epochs[1].on_time, 1, "classified where used");
        assert_eq!(series.epochs[1].late, 1);
        let t = series.totals();
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
    fn empty_run_yields_empty_series() {
        let series = EpochSink::new(10, 100).finish();
        assert!(series.is_empty());
        assert_eq!(series.totals(), EpochWindow::default());
    }
}
