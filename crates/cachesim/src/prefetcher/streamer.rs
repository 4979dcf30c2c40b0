//! Sequential ("streaming") prefetcher.

use super::{HwPrefetcher, LruTable};
use sp_trace::{SiteId, VAddr};

/// A multi-slot sequential prefetcher.
///
/// Each slot tracks a stream of consecutive cache blocks by the block
/// index of its last access. An access one block above or below a
/// tracked stream extends it and immediately prefetches the next
/// `degree` blocks in that step's direction; an access near no stream
/// allocates a slot and only trains.
#[derive(Debug, Clone)]
pub struct StreamPrefetcher {
    /// Block index (address / line size) of each stream's last access.
    streams: LruTable<u64>,
    /// log2 of the line size: block index = address >> `line_shift`.
    line_shift: u32,
    degree: u32,
}

impl StreamPrefetcher {
    /// A prefetcher with `slots` (at most 255) concurrent streams,
    /// prefetching `degree` blocks ahead on each stream step.
    pub fn new(slots: usize, degree: u32, line_size: u64) -> Self {
        assert!(slots > 0 && degree > 0);
        assert!(line_size.is_power_of_two());
        StreamPrefetcher {
            streams: LruTable::new(slots),
            line_shift: line_size.trailing_zeros(),
            degree,
        }
    }

    fn emit(&self, blk: u64, dir: i64, out: &mut Vec<VAddr>) {
        for d in 1..=self.degree as i64 {
            let target = blk as i64 + dir * d;
            if target >= 0 {
                out.push((target as u64) << self.line_shift);
            }
        }
    }
}

impl HwPrefetcher for StreamPrefetcher {
    fn observe(&mut self, _site: SiteId, block: VAddr, out: &mut Vec<VAddr>) {
        let blk = block >> self.line_shift;
        // The first stream this access extends (distance at most one
        // block), in index order.
        let delta_to = |last: u64| blk as i64 - last as i64;
        let near = |&last: &u64| delta_to(last).unsigned_abs() <= 1;
        let Some(i) = self.streams.entries.iter().position(near) else {
            // No matching stream: allocate a new one.
            self.streams.insert(blk);
            return;
        };
        let last = self.streams.touch(i);
        let delta = delta_to(*last);
        if delta == 0 {
            return; // same block re-access: no new info
        }
        *last = blk;
        self.emit(blk, delta, out);
    }

    fn reset(&mut self) {
        self.streams.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> StreamPrefetcher {
        StreamPrefetcher::new(4, 2, 64)
    }

    fn obs(p: &mut StreamPrefetcher, block: VAddr) -> Vec<VAddr> {
        let mut out = Vec::new();
        p.observe(SiteId::ANON, block, &mut out);
        out
    }

    #[test]
    fn second_sequential_access_triggers_prefetch() {
        let mut p = sp();
        assert!(obs(&mut p, 0).is_empty(), "first access only trains");
        let out = obs(&mut p, 64);
        assert_eq!(out, vec![128, 192], "prefetch the next `degree` blocks");
    }

    #[test]
    fn descending_stream_detected() {
        let mut p = sp();
        obs(&mut p, 640);
        let out = obs(&mut p, 576);
        assert_eq!(out, vec![512, 448]);
    }

    #[test]
    fn descending_stream_clamps_at_zero() {
        let mut p = sp();
        obs(&mut p, 128);
        let out = obs(&mut p, 64);
        assert_eq!(out, vec![0], "block -1 must not be emitted");
    }

    #[test]
    fn random_accesses_never_prefetch() {
        let mut p = sp();
        for &b in &[0u64, 4096, 64 * 100, 64 * 7, 64 * 55] {
            assert!(obs(&mut p, b).is_empty());
        }
    }

    #[test]
    fn repeat_access_is_ignored() {
        let mut p = sp();
        obs(&mut p, 0);
        obs(&mut p, 64); // stream established
        assert!(obs(&mut p, 64).is_empty());
        // Stream continues afterwards.
        assert_eq!(obs(&mut p, 128), vec![192, 256]);
    }

    #[test]
    fn tracks_multiple_interleaved_streams() {
        let mut p = sp();
        obs(&mut p, 0);
        obs(&mut p, 1 << 20);
        assert_eq!(obs(&mut p, 64), vec![128, 192]);
        assert_eq!(
            obs(&mut p, (1 << 20) + 64),
            vec![(1 << 20) + 128, (1 << 20) + 192]
        );
    }

    #[test]
    fn direction_reversal_retrains() {
        let mut p = sp();
        obs(&mut p, 640);
        assert_eq!(obs(&mut p, 704), vec![768, 832], "ascending step");
        // Stepping back down one block prefetches downward at once.
        assert_eq!(obs(&mut p, 640), vec![576, 512], "descending step");
        // Near block 0 the descending targets below zero are clamped away.
        obs(&mut p, 0);
        obs(&mut p, 64);
        assert!(obs(&mut p, 0).is_empty());
    }

    #[test]
    fn observe_appends_without_clearing() {
        let mut p = sp();
        let mut out = vec![7];
        p.observe(SiteId::ANON, 0, &mut out);
        p.observe(SiteId::ANON, 64, &mut out);
        assert_eq!(out, vec![7, 128, 192], "caller owns the buffer contents");
    }

    #[test]
    fn reset_forgets_streams() {
        let mut p = sp();
        obs(&mut p, 0);
        p.reset();
        assert!(obs(&mut p, 64).is_empty(), "must retrain after reset");
    }
}
