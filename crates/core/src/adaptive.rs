//! Feedback-directed (adaptive) prefetch-distance control.
//!
//! The paper selects the prefetch distance *offline* from the
//! Set-Affinity profile and lists runtime adaptation as future work; its
//! related-work section contrasts with feedback-directed prefetching
//! (Srinath et al., refs \[6\]/\[34\]), which throttles hardware prefetchers
//! from accuracy / lateness / pollution feedback. This module implements
//! both directions on top of the SP engine:
//!
//! * [`FeedbackController`] — an FDP-style controller: each epoch it
//!   reads the epoch's prefetch accuracy, lateness (partial hits among
//!   useful prefetches), and pollution rate, and grows or shrinks the
//!   distance accordingly. [`FeedbackController::bounded`] clamps it by
//!   the Set-Affinity bound, i.e. the paper's static analysis used as a
//!   safety ceiling for the dynamic policy (the natural synthesis of the
//!   two ideas).
//!
//! The controller plugs into the engine as an [`AdaptiveSchedule`], one
//! more [`crate::engine::HelperSchedule`].

use crate::engine::HelperSchedule;
use crate::params::SpParams;
use crate::skip::HelperStep;
use sp_cachesim::{Cycle, MemStats, MemorySystem};

/// Per-epoch feedback handed to an [`AdaptivePolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochFeedback {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Parameters that were active during the epoch.
    pub params: SpParams,
    /// Helper prefetches issued during the epoch.
    pub issued: u64,
    /// L2 lines the helper actually brought in during the epoch (the
    /// accuracy denominator — most helper loads hit cache and fill
    /// nothing).
    pub fills: u64,
    /// Helper prefetches first-used by the main thread during the epoch.
    pub useful: u64,
    /// Main-thread partial hits during the epoch (late prefetches).
    pub partial_hits: u64,
    /// Main-thread totally misses during the epoch.
    pub total_misses: u64,
    /// Pollution events during the epoch.
    pub pollution: u64,
}

impl EpochFeedback {
    /// Useful prefetches per helper-brought line (1.0 when the helper
    /// brought nothing, so an idle helper is never throttled).
    pub fn accuracy(&self) -> f64 {
        if self.fills == 0 {
            1.0
        } else {
            self.useful as f64 / self.fills as f64
        }
    }

    /// Partial hits per useful prefetch — high values mean prefetches
    /// arrive late (distance too short).
    pub fn lateness(&self) -> f64 {
        if self.useful == 0 {
            0.0
        } else {
            self.partial_hits as f64 / self.useful as f64
        }
    }

    /// Pollution events per issued prefetch — high values mean the
    /// distance is too long.
    pub fn pollution_rate(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.pollution as f64 / self.issued as f64
        }
    }
}

/// A policy that picks the next epoch's parameters from feedback.
pub trait AdaptivePolicy {
    /// Parameters for the first epoch.
    fn initial(&self) -> SpParams;
    /// Parameters for the epoch following `feedback`'s.
    fn adjust(&mut self, feedback: &EpochFeedback) -> SpParams;
}

/// FDP-style dynamic distance controller (see module docs).
#[derive(Debug, Clone)]
pub struct FeedbackController {
    /// Current prefetch distance.
    distance: u32,
    /// Prefetch ratio (fixed; the paper fixes RP per application).
    rp: f64,
    /// Inclusive distance range the controller moves within.
    pub min_distance: u32,
    /// Inclusive upper limit (`u32::MAX` when unclamped).
    pub max_distance: u32,
    /// Lateness above this grows the distance.
    pub lateness_hi: f64,
    /// Pollution rate above this shrinks the distance.
    pub pollution_hi: f64,
    /// Accuracy below this shrinks the distance (prefetches evicted or
    /// overshooting the loop — FDP's throttle-on-inaccuracy rule).
    pub accuracy_lo: f64,
}

impl FeedbackController {
    /// A controller starting at `distance` with ratio `rp`, moving in
    /// `[1, u32::MAX]`.
    pub fn new(distance: u32, rp: f64) -> Self {
        FeedbackController {
            distance: distance.max(1),
            rp,
            min_distance: 1,
            max_distance: u32::MAX,
            lateness_hi: 0.05,
            pollution_hi: 0.25,
            accuracy_lo: 0.5,
        }
    }

    /// Clamp the controller by the Set-Affinity bound (the paper's
    /// `min SA / 2` rule), yielding the hybrid static+dynamic policy.
    pub fn bounded(mut self, max_distance: u32) -> Self {
        self.max_distance = max_distance.max(self.min_distance);
        self.distance = self.distance.min(self.max_distance);
        self
    }

    /// The distance the controller currently sits at.
    pub fn distance(&self) -> u32 {
        self.distance
    }

    fn params(&self) -> SpParams {
        SpParams::from_distance_rp(self.distance, self.rp)
    }
}

impl AdaptivePolicy for FeedbackController {
    fn initial(&self) -> SpParams {
        self.params()
    }

    fn adjust(&mut self, fb: &EpochFeedback) -> SpParams {
        // FDP's decision order: pollution or inaccuracy dominate
        // (shrink), then lateness (grow); otherwise hold.
        if fb.pollution_rate() > self.pollution_hi || fb.accuracy() < self.accuracy_lo {
            self.distance = (self.distance / 2).max(self.min_distance);
        } else if fb.lateness() > self.lateness_hi {
            let grown = self
                .distance
                .saturating_mul(2)
                .min(self.max_distance)
                .max(1);
            // Grow only while a round of `grown` still fits a u32.
            if SpParams::try_from_distance_rp(grown, self.rp).is_ok() {
                self.distance = grown;
            }
        }
        self.params()
    }
}

/// One epoch as recorded by an adaptive run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// The feedback computed at the end of the epoch.
    pub feedback: EpochFeedback,
    /// The distance chosen for the *next* epoch.
    pub next_distance: u32,
}

/// The engine-facing schedule wrapping an [`AdaptivePolicy`]: pass it
/// to [`crate::run`] as the helper, then read the epoch log with
/// [`AdaptiveSchedule::into_epochs`].
pub struct AdaptiveSchedule<P: AdaptivePolicy> {
    policy: P,
    cur: SpParams,
    epoch_len: usize,
    /// Iteration at which the current epoch (and its round phase) began.
    epoch_start: usize,
    epoch_index: usize,
    last: MemStats,
    records: Vec<EpochRecord>,
}

impl<P: AdaptivePolicy> AdaptiveSchedule<P> {
    /// Steer SP with `policy`, adjusting every `epoch_len` outer
    /// iterations of the main thread.
    ///
    /// # Panics
    /// If `epoch_len == 0`.
    pub fn new(policy: P, epoch_len: usize) -> Self {
        assert!(epoch_len > 0, "epoch length must be positive");
        AdaptiveSchedule {
            cur: policy.initial(),
            policy,
            epoch_len,
            epoch_start: 0,
            epoch_index: 0,
            last: MemStats::default(),
            records: Vec::new(),
        }
    }

    /// Per-epoch feedback and decisions, in order.
    pub fn into_epochs(self) -> Vec<EpochRecord> {
        self.records
    }
}

impl<P: AdaptivePolicy> HelperSchedule for AdaptiveSchedule<P> {
    fn step(&self, iter: usize) -> HelperStep {
        // The static plan's rounds, phased from the epoch start so a
        // distance change restarts the rounds cleanly.
        self.cur.step(iter.saturating_sub(self.epoch_start))
    }

    fn window(&self) -> usize {
        self.cur.window()
    }

    fn jump_distance(&self) -> u32 {
        self.cur.jump_distance()
    }

    fn on_main_iter(&mut self, main_iter: usize, mem: &MemorySystem, _clock: Cycle) {
        if (main_iter + 1) < self.epoch_start + self.epoch_len {
            return;
        }
        let s = mem.stats();
        let fb = EpochFeedback {
            epoch: self.epoch_index,
            params: self.cur,
            issued: s.prefetches_issued[0] - self.last.prefetches_issued[0],
            fills: s.l2_fills_by[1] - self.last.l2_fills_by[1],
            useful: s.prefetches_useful[0] - self.last.prefetches_useful[0],
            partial_hits: s.main.partial_hits - self.last.main.partial_hits,
            total_misses: s.main.total_misses - self.last.main.total_misses,
            pollution: s.pollution.total() - self.last.pollution.total(),
        };
        self.cur = self.policy.adjust(&fb);
        self.records.push(EpochRecord {
            feedback: fb,
            next_distance: self.cur.a_ski,
        });
        self.last = s.clone();
        self.epoch_start = main_iter + 1;
        self.epoch_index += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::cfg;
    use crate::engine::{run, EngineOptions, RunResult};
    use sp_cachesim::NullSink;
    use sp_trace::{synth, CompiledTrace, HotLoopTrace};

    fn adaptive(
        t: &HotLoopTrace,
        policy: FeedbackController,
        epoch_len: usize,
    ) -> (RunResult, Vec<EpochRecord>) {
        let mut schedule = AdaptiveSchedule::new(policy, epoch_len);
        let ct = CompiledTrace::compile(t);
        let opts = EngineOptions::default();
        let r = run(&ct, cfg(), Some(&mut schedule), opts, &mut NullSink);
        (r, schedule.into_epochs())
    }

    #[test]
    fn epochs_cover_the_run() {
        let t = synth::sequential(1000, 2, 0, 64, 0);
        let (run, epochs) = adaptive(&t, FeedbackController::new(4, 0.5), 100);
        // 1000 iterations / 100 per epoch -> 10 boundary crossings, the
        // last at iteration 999 (no following epoch).
        assert_eq!(epochs.len(), 10);
        for (i, e) in epochs.iter().enumerate() {
            assert_eq!(e.feedback.epoch, i);
        }
        assert_eq!(run.outer_iters, 1000);
    }

    #[test]
    fn distance_stays_within_configured_range() {
        let t = synth::random(2000, 4, 0, 1 << 20, 3, 0);
        let (_, epochs) = adaptive(&t, FeedbackController::new(8, 0.5).bounded(32), 50);
        for e in &epochs {
            assert!(
                e.next_distance >= 1 && e.next_distance <= 32,
                "{:?}",
                e.next_distance
            );
        }
    }

    #[test]
    fn lateness_grows_the_distance() {
        let mut p = FeedbackController::new(2, 0.5);
        let fb = EpochFeedback {
            epoch: 0,
            params: SpParams::new(2, 2),
            issued: 100,
            fills: 90,
            useful: 80,
            partial_hits: 40, // 50% late
            total_misses: 10,
            pollution: 0,
        };
        let next = p.adjust(&fb);
        assert_eq!(next.a_ski, 4, "distance must double on high lateness");
        // At RP 0.5 a round of distance 2^31 is 2^32 iterations, past a
        // u32: hold at 2^30 instead of doubling.
        let mut p = FeedbackController::new(1 << 30, 0.5);
        assert_eq!(p.adjust(&fb).a_ski, 1 << 30);
    }

    #[test]
    fn pollution_shrinks_the_distance_and_dominates_lateness() {
        let mut p = FeedbackController::new(16, 0.5);
        let fb = EpochFeedback {
            epoch: 0,
            params: SpParams::new(16, 16),
            issued: 100,
            fills: 90,
            useful: 50,
            partial_hits: 50,
            total_misses: 40,
            pollution: 60, // 60% pollution
        };
        let next = p.adjust(&fb);
        assert_eq!(next.a_ski, 8, "pollution must halve the distance");
    }

    #[test]
    fn stable_epoch_holds_the_distance() {
        let mut p = FeedbackController::new(8, 0.5);
        let fb = EpochFeedback {
            epoch: 0,
            params: SpParams::new(8, 8),
            issued: 100,
            fills: 98,
            useful: 95,
            partial_hits: 1,
            total_misses: 5,
            pollution: 2,
        };
        assert_eq!(p.adjust(&fb).a_ski, 8);
    }

    #[test]
    fn accuracy_and_rates_handle_zero_denominators() {
        let fb = EpochFeedback {
            epoch: 0,
            params: SpParams::new(1, 1),
            issued: 0,
            fills: 0,
            useful: 0,
            partial_hits: 0,
            total_misses: 0,
            pollution: 0,
        };
        assert_eq!(fb.accuracy(), 1.0, "idle helper must not look inaccurate");
        assert_eq!(fb.lateness(), 0.0);
        assert_eq!(fb.pollution_rate(), 0.0);
    }

    #[test]
    fn adaptive_run_is_deterministic() {
        let t = synth::random(800, 3, 0, 1 << 18, 9, 2);
        let run = || adaptive(&t, FeedbackController::new(4, 0.5).bounded(64), 100);
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epoch_rejected() {
        let _ = AdaptiveSchedule::new(FeedbackController::new(1, 0.5), 0);
    }
}
