//! Interval-based burst sampling of the reference stream.
//!
//! The paper (§IV.C): *"the profiling mechanism in this paper is
//! implemented using an interval-based burst sampling technique ...
//! we get data access stream of each phase by interval-based burst
//! sampling"*. A burst records `on` consecutive outer iterations in full,
//! then skips `off` iterations, repeating over the whole hot loop.

use sp_trace::{CompiledTrace, HotLoopTrace};

/// One recorded burst: a contiguous window of the hot loop.
#[derive(Debug, Clone)]
pub struct Burst {
    /// Outer-loop iteration index at which the burst starts.
    pub start_iter: usize,
    /// The recorded iterations, in order (a copy of the window).
    pub iters: CompiledTrace,
}

impl Burst {
    /// Number of iterations recorded.
    pub fn len(&self) -> usize {
        self.iters.outer_iters()
    }

    /// `true` if the burst recorded nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Configuration of the interval-based burst sampler.
///
/// ```
/// use sp_profiler::BurstSampler;
/// use sp_trace::synth;
///
/// let trace = synth::sequential(100, 1, 0, 64, 0);
/// let sampler = BurstSampler::new(10, 40); // 10 on, 40 off
/// let bursts = sampler.sample(&trace);
/// assert_eq!(bursts.len(), 2);
/// assert_eq!(sampler.duty_cycle(), 0.2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstSampler {
    /// Iterations recorded per burst.
    pub on: usize,
    /// Iterations skipped between bursts.
    pub off: usize,
    /// Iterations skipped before the first burst (warm-up).
    pub start: usize,
}

impl BurstSampler {
    /// A sampler recording `on` iterations out of every `on + off`.
    pub fn new(on: usize, off: usize) -> Self {
        assert!(on > 0, "burst length must be positive");
        BurstSampler { on, off, start: 0 }
    }

    /// Default used by the reproduction: 512-iteration bursts every 2048
    /// iterations (a 25% sampling rate — long enough for the small-SA
    /// EM3D sets to overflow within one burst).
    pub fn default_profile() -> Self {
        BurstSampler::new(512, 1536)
    }

    /// Fraction of iterations recorded.
    pub fn duty_cycle(&self) -> f64 {
        self.on as f64 / (self.on + self.off) as f64
    }

    /// Record bursts from `trace`.
    pub fn sample(&self, trace: &HotLoopTrace) -> Vec<Burst> {
        let mut bursts = Vec::new();
        let mut i = self.start;
        let n = trace.outer_iters();
        while i < n {
            let end = (i + self.on).min(n);
            bursts.push(Burst {
                start_iter: i,
                iters: trace.iters.slice(i..end),
            });
            i = end + self.off;
        }
        bursts
    }

    /// Total iterations a sampling of `trace` would record.
    pub fn recorded_iters(&self, trace: &HotLoopTrace) -> usize {
        self.sample(trace).iter().map(Burst::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp_trace::synth;

    #[test]
    fn bursts_tile_the_trace_at_the_configured_interval() {
        let t = synth::sequential(100, 1, 0, 64, 0);
        let s = BurstSampler::new(10, 40);
        let bursts = s.sample(&t);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[0].start_iter, 0);
        assert_eq!(bursts[0].len(), 10);
        assert_eq!(bursts[1].start_iter, 50);
        assert_eq!(bursts[1].len(), 10);
    }

    #[test]
    fn final_partial_burst_is_kept() {
        let t = synth::sequential(55, 1, 0, 64, 0);
        let s = BurstSampler::new(10, 40);
        let bursts = s.sample(&t);
        assert_eq!(bursts.len(), 2);
        assert_eq!(bursts[1].len(), 5);
    }

    #[test]
    fn burst_contents_match_the_trace_window() {
        let t = synth::sequential(30, 2, 0, 64, 3);
        let s = BurstSampler::new(5, 10);
        let bursts = s.sample(&t);
        for b in &bursts {
            for (k, it) in b.iters.iter().enumerate() {
                assert_eq!(it, t.iters.at(b.start_iter + k));
            }
        }
    }

    #[test]
    fn warm_up_offset_is_honoured() {
        let t = synth::sequential(100, 1, 0, 64, 0);
        let s = BurstSampler {
            on: 10,
            off: 40,
            start: 7,
        };
        let bursts = s.sample(&t);
        assert_eq!(bursts[0].start_iter, 7);
    }

    #[test]
    fn duty_cycle_and_recorded_iters_agree() {
        let t = synth::sequential(1000, 1, 0, 64, 0);
        let s = BurstSampler::new(100, 300);
        assert!((s.duty_cycle() - 0.25).abs() < 1e-12);
        let rec = s.recorded_iters(&t);
        assert_eq!(rec, 300); // bursts at 0, 400, 800 -> 100 each
    }

    #[test]
    fn zero_off_records_everything() {
        let t = synth::sequential(42, 1, 0, 64, 0);
        let s = BurstSampler::new(10, 0);
        assert_eq!(s.recorded_iters(&t), 42);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_on_rejected() {
        let _ = BurstSampler::new(0, 10);
    }
}
