//! Perceptron-gated stride prefetcher.
//!
//! A classic stride core (site-indexed, two-confirmation — the same
//! detector as DPL) proposes candidates, but every candidate must pass
//! a **perceptron gate** before issue. The gate sums small signed
//! weights selected by a feature vector of the proposing context:
//!
//! * the reference **site** (hashed) — which load is asking,
//! * the prefetcher's **recent accuracy** (bucketed fraction of its
//!   last 32 gated candidates that were demanded) — how well it has
//!   been doing,
//! * the candidate's **set-pressure bucket** (how many recent issues
//!   already landed in the candidate's cache-set neighbourhood) — how
//!   crowded the target is.
//!
//! Candidates are issued iff the weight sum is non-negative; with
//! zeroed weights the gate starts open (optimistic) and learns to
//! close only where history says prefetches die. Feedback is
//! self-supervised through a small pending ring: a later demand on a
//! pending block trains its features up; falling off the ring unused
//! trains them down. This is the standard perceptron-filter design of
//! perceptron-based prefetch filtering (PPF), shrunk to trace scale.

use super::dpl::StrideTable;
use super::HwPrefetcher;
use sp_trace::{SiteId, VAddr};

/// Weight-table rows per feature (power of two).
const WEIGHT_ROWS: usize = 64;
/// Saturation bound for the signed weights.
const WEIGHT_CLAMP: i32 = 32;
/// Outcome-history window (bits of the accuracy shift register).
const HISTORY_BITS: u32 = 32;

/// A gated candidate awaiting its outcome.
#[derive(Debug, Clone, Copy)]
struct Pending {
    block: VAddr,
    features: [usize; 3],
    /// Set once a demand access touches `block` (positive outcome).
    used: bool,
    valid: bool,
}

/// Stride proposer + perceptron issue gate.
#[derive(Debug, Clone)]
pub struct PerceptronPrefetcher {
    table: StrideTable,
    degree: u32,
    line_size: u64,
    /// One weight row set per feature: `[site, accuracy, pressure]`.
    weights: [[i32; WEIGHT_ROWS]; 3],
    /// Ring of gated-and-issued candidates awaiting feedback.
    pending: Vec<Pending>,
    pending_head: usize,
    /// Shift register of resolved outcomes (1 = the proposal was
    /// demanded before eviction from the ring).
    history: u64,
    /// Count of recent issues per set-neighbourhood bucket, decayed by
    /// halving periodically so pressure reflects the recent window.
    set_issues: [u32; WEIGHT_ROWS],
    /// Issues since the last pressure decay.
    since_decay: u32,
}

impl PerceptronPrefetcher {
    /// A prefetcher with `entries` (at most 255) stride slots and
    /// `pending` feedback ring slots, proposing `degree` strides ahead
    /// per trigger.
    pub fn new(entries: usize, pending: usize, degree: u32, line_size: u64) -> Self {
        assert!(entries > 0 && pending > 0 && degree > 0);
        assert!(line_size.is_power_of_two());
        PerceptronPrefetcher {
            table: StrideTable::new(entries),
            degree,
            line_size,
            weights: [[0; WEIGHT_ROWS]; 3],
            pending: vec![
                Pending {
                    block: 0,
                    features: [0; 3],
                    used: false,
                    valid: false
                };
                pending
            ],
            pending_head: 0,
            history: 0,
            set_issues: [0; WEIGHT_ROWS],
            since_decay: 0,
        }
    }

    /// The fraction of recent stride proposals that were demanded.
    pub fn recent_accuracy(&self) -> f64 {
        self.history.count_ones() as f64 / HISTORY_BITS as f64
    }

    fn site_feature(site: SiteId) -> usize {
        ((site.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (WEIGHT_ROWS - 1)
    }

    fn pressure_bucket(&self, block: VAddr) -> usize {
        ((block / self.line_size) as usize) & (WEIGHT_ROWS - 1)
    }

    fn features(&self, site: SiteId, block: VAddr) -> [usize; 3] {
        let acc = self.history.count_ones() as usize * (WEIGHT_ROWS - 1) / HISTORY_BITS as usize;
        let bucket = self.pressure_bucket(block);
        // Map the raw issue count into a coarse pressure level so one
        // weight row serves "calm" vs "crowded", not every exact count.
        let pressure = (self.set_issues[bucket].min(WEIGHT_ROWS as u32 - 1)) as usize;
        [Self::site_feature(site), acc, pressure]
    }

    fn gate_sum(&self, f: &[usize; 3]) -> i32 {
        self.weights[0][f[0]] + self.weights[1][f[1]] + self.weights[2][f[2]]
    }

    fn train(&mut self, f: &[usize; 3], up: bool) {
        for (table, &row) in self.weights.iter_mut().zip(f.iter()) {
            let w = &mut table[row];
            *w = (*w + if up { 1 } else { -1 }).clamp(-WEIGHT_CLAMP, WEIGHT_CLAMP);
        }
        // Keep exactly HISTORY_BITS of outcome history: without the mask
        // the shift accumulates ones past the window and the accuracy
        // feature indexes off the end of the weight rows.
        self.history = ((self.history << 1) | u64::from(up)) & ((1 << HISTORY_BITS) - 1);
    }

    /// Retire the ring slot at `idx` if valid, training on its outcome.
    fn retire(&mut self, idx: usize) {
        if !self.pending[idx].valid {
            return;
        }
        let p = self.pending[idx];
        self.pending[idx].valid = false;
        self.train(&p.features, p.used);
    }

    /// Record a demand touch: any pending candidate on `block` becomes
    /// a positive outcome.
    fn note_demand(&mut self, block: VAddr) {
        for p in &mut self.pending {
            if p.valid && !p.used && p.block == block {
                p.used = true;
            }
        }
    }

    /// Gate one stride candidate. Every candidate — issued or rejected —
    /// enters the feedback ring, and training judges the *proposal* (was
    /// the block demanded soon after?), not the issue decision. That is
    /// what lets a closed gate reopen: rejected candidates that keep
    /// getting demanded train their features back up.
    fn gate(&mut self, site: SiteId, block: VAddr, out: &mut Vec<VAddr>, start: usize) {
        if out[start..].contains(&block) {
            return;
        }
        let f = self.features(site, block);
        let issue = self.gate_sum(&f) >= 0;
        let idx = self.pending_head;
        self.pending_head = (self.pending_head + 1) % self.pending.len();
        self.retire(idx);
        self.pending[idx] = Pending {
            block,
            features: f,
            used: false,
            valid: true,
        };
        if !issue {
            return;
        }
        let bucket = self.pressure_bucket(block);
        self.set_issues[bucket] = self.set_issues[bucket].saturating_add(1);
        self.since_decay += 1;
        if self.since_decay >= 2 * WEIGHT_ROWS as u32 {
            self.since_decay = 0;
            for c in &mut self.set_issues {
                *c >>= 1;
            }
        }
        out.push(block);
    }
}

impl HwPrefetcher for PerceptronPrefetcher {
    fn observe(&mut self, site: SiteId, addr: VAddr, out: &mut Vec<VAddr>) {
        let block = addr & !(self.line_size - 1);
        self.note_demand(block);
        if site == SiteId::ANON {
            // Anonymous references carry no IP to index on.
            return;
        }
        let Some((base, stride)) = self.table.train(site, addr) else {
            return;
        };
        let start = out.len();
        for d in 1..=self.degree as i64 {
            let target = base as i64 + stride * d;
            if target < 0 {
                break;
            }
            let cand = target as u64 & !(self.line_size - 1);
            self.gate(site, cand, out, start);
        }
    }

    fn reset(&mut self) {
        self.table.clear();
        for p in &mut self.pending {
            p.valid = false;
        }
        self.weights = [[0; WEIGHT_ROWS]; 3];
        self.pending_head = 0;
        self.history = 0;
        self.set_issues = [0; WEIGHT_ROWS];
        self.since_decay = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp() -> PerceptronPrefetcher {
        PerceptronPrefetcher::new(8, 16, 2, 64)
    }

    fn obs(p: &mut PerceptronPrefetcher, site: SiteId, addr: VAddr) -> Vec<VAddr> {
        let mut out = Vec::new();
        p.observe(site, addr, &mut out);
        out
    }

    #[test]
    fn gate_starts_open_on_confirmed_stride() {
        let mut p = pp();
        let s = SiteId(1);
        assert!(obs(&mut p, s, 0).is_empty()); // allocate
        assert!(obs(&mut p, s, 256).is_empty()); // learn stride (conf 0)
        let out = obs(&mut p, s, 512); // confirm -> gate (weights 0) passes
        assert_eq!(out, vec![768, 1024]);
    }

    #[test]
    fn demanded_candidates_count_as_positive_outcomes() {
        let mut p = pp();
        let s = SiteId(2);
        obs(&mut p, s, 0);
        obs(&mut p, s, 256);
        obs(&mut p, s, 512); // issues 768, 1024
        assert_eq!(p.recent_accuracy(), 0.0, "no outcome resolved yet");
        obs(&mut p, s, 768); // demand on a pending candidate
                             // Push enough candidates through the ring to retire the used one.
        for i in 1..=16u64 {
            obs(&mut p, SiteId(100 + i as u32), i * 0x10_000);
            obs(&mut p, SiteId(100 + i as u32), i * 0x10_000 + 512);
            obs(&mut p, SiteId(100 + i as u32), i * 0x10_000 + 1024);
        }
        assert!(
            p.recent_accuracy() > 0.0,
            "the demanded candidate must train up"
        );
    }

    /// Confirm a stride, fire once, then jump away so the candidate is
    /// never demanded — the always-wrong pattern for one site. Returns
    /// whether the confirmed access actually issued anything.
    fn dead_triple(p: &mut PerceptronPrefetcher, s: SiteId, base: VAddr) -> bool {
        obs(p, s, base);
        obs(p, s, base + 256);
        !obs(p, s, base + 512).is_empty()
    }

    #[test]
    fn repeated_dead_prefetches_close_the_gate() {
        let mut p = PerceptronPrefetcher::new(8, 2, 1, 64);
        let s = SiteId(3);
        // Every triple confirms a stride, proposes one candidate, and
        // jumps away; each ring eviction trains the features down until
        // the gate closes on this site.
        let mut closed = false;
        for t in 0..60u64 {
            if !dead_triple(&mut p, s, t * 0x100_000) && t > 2 {
                closed = true;
                break;
            }
        }
        assert!(closed, "an always-wrong site must eventually be gated off");
    }

    #[test]
    fn gate_reopens_after_good_outcomes() {
        let mut p = PerceptronPrefetcher::new(8, 2, 1, 64);
        let s = SiteId(4);
        // Close the gate with dead triples.
        for t in 0..60u64 {
            dead_triple(&mut p, s, t * 0x100_000);
        }
        // A long steady stride stream demands each proposal on the very
        // next access: rejected proposals resolve positive, weights
        // recover, and the gate reopens.
        let mut reopened = false;
        let mut addr = 0x4000_0000u64;
        for _ in 0..300 {
            if !obs(&mut p, s, addr).is_empty() {
                reopened = true;
                break;
            }
            addr += 256;
        }
        assert!(reopened, "positive outcomes must reopen the gate");
    }

    #[test]
    fn anonymous_site_is_ignored() {
        let mut p = pp();
        for i in 0..10u64 {
            assert!(obs(&mut p, SiteId::ANON, i * 64).is_empty());
        }
    }

    #[test]
    fn observe_appends_without_clearing() {
        let mut p = pp();
        let s = SiteId(5);
        obs(&mut p, s, 0);
        obs(&mut p, s, 256);
        let mut out = vec![7];
        p.observe(s, 512, &mut out);
        assert_eq!(out, vec![7, 768, 1024], "caller owns the buffer contents");
    }

    #[test]
    fn sub_line_strides_dedup_blocks() {
        let mut p = pp();
        let s = SiteId(6);
        obs(&mut p, s, 0);
        obs(&mut p, s, 16);
        let out = obs(&mut p, s, 32);
        assert_eq!(out, vec![0, 64], "same-block candidates deduped");
    }

    #[test]
    fn reset_forgets_everything() {
        let mut p = pp();
        let s = SiteId(7);
        obs(&mut p, s, 0);
        obs(&mut p, s, 256);
        assert!(!obs(&mut p, s, 512).is_empty());
        p.reset();
        obs(&mut p, s, 768);
        assert!(obs(&mut p, s, 1024).is_empty(), "must retrain after reset");
        assert_eq!(p.recent_accuracy(), 0.0);
    }
}
