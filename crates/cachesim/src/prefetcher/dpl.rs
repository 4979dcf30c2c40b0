//! IP-indexed stride prefetcher (Intel's "DPL", Data Prefetch Logic).

use super::{HwPrefetcher, LruTable};
use sp_trace::{SiteId, VAddr};

#[derive(Debug, Clone, Copy)]
struct Entry {
    site: SiteId,
    last_addr: VAddr,
    stride: i64,
    conf: u32,
}

/// The site-indexed, two-confirmation stride detector behind both
/// [`DplPrefetcher`] and the perceptron prefetcher's proposer.
#[derive(Debug, Clone)]
pub(super) struct StrideTable(LruTable<Entry>);

impl StrideTable {
    pub(super) fn new(entries: usize) -> Self {
        StrideTable(LruTable::new(entries))
    }

    /// Train `site`'s entry on an access to `addr` (allocating one if the
    /// site has none). Returns `(addr, stride)` once the site's last two
    /// deltas agree (non-zero).
    #[inline(always)]
    pub(super) fn train(&mut self, site: SiteId, addr: VAddr) -> Option<(VAddr, i64)> {
        let Some(i) = self.0.entries.iter().position(|e| e.site == site) else {
            self.0.insert(Entry {
                site,
                last_addr: addr,
                stride: 0,
                conf: 0,
            });
            return None;
        };
        let e = self.0.touch(i);
        let delta = addr as i64 - e.last_addr as i64;
        if delta == 0 {
            return None;
        }
        if delta == e.stride {
            e.conf = e.conf.saturating_add(1);
        } else {
            e.stride = delta;
            e.conf = 0;
        }
        e.last_addr = addr;
        (e.conf >= 1).then_some((addr, delta))
    }

    pub(super) fn clear(&mut self) {
        self.0.clear();
    }
}

/// A stride prefetcher indexed by static reference site (the simulator's
/// stand-in for the load instruction pointer).
///
/// Classic two-confirmation design: a site whose last two deltas agree
/// (non-zero) prefetches `degree` strides ahead on every further access.
#[derive(Debug, Clone)]
pub struct DplPrefetcher {
    table: StrideTable,
    degree: u32,
    line_size: u64,
}

impl DplPrefetcher {
    /// A prefetcher with `entries` (at most 255) table slots and the
    /// given prefetch `degree` (strides ahead per trigger).
    pub fn new(entries: usize, degree: u32, line_size: u64) -> Self {
        assert!(entries > 0 && degree > 0);
        assert!(line_size.is_power_of_two());
        DplPrefetcher {
            table: StrideTable::new(entries),
            degree,
            line_size,
        }
    }

    fn emit(&self, addr: VAddr, stride: i64, out: &mut Vec<VAddr>) {
        let start = out.len();
        for d in 1..=self.degree as i64 {
            let target = addr as i64 + stride * d;
            if target < 0 {
                break;
            }
            let block = target as u64 & !(self.line_size - 1);
            // Small strides land repeatedly in one block; dedup against
            // what this emission already appended.
            if !out[start..].contains(&block) {
                out.push(block);
            }
        }
    }
}

impl HwPrefetcher for DplPrefetcher {
    fn observe(&mut self, site: SiteId, addr: VAddr, out: &mut Vec<VAddr>) {
        if site == SiteId::ANON {
            // Anonymous references carry no IP to index on.
            return;
        }
        if let Some((base, stride)) = self.table.train(site, addr) {
            self.emit(base, stride, out);
        }
    }

    fn reset(&mut self) {
        self.table.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dpl() -> DplPrefetcher {
        DplPrefetcher::new(8, 2, 64)
    }

    fn obs(p: &mut DplPrefetcher, site: SiteId, addr: VAddr) -> Vec<VAddr> {
        let mut out = Vec::new();
        p.observe(site, addr, &mut out);
        out
    }

    #[test]
    fn third_strided_access_triggers() {
        let mut p = dpl();
        let s = SiteId(1);
        assert!(obs(&mut p, s, 0).is_empty()); // allocate
        assert!(obs(&mut p, s, 256).is_empty()); // learn stride 256 (conf 0)
        let out = obs(&mut p, s, 512); // confirm (conf 1) -> fire
        assert_eq!(out, vec![768, 1024]);
    }

    #[test]
    fn sub_line_strides_dedup_blocks() {
        let mut p = dpl();
        let s = SiteId(2);
        obs(&mut p, s, 0);
        obs(&mut p, s, 16);
        let out = obs(&mut p, s, 32);
        // Targets 48 and 64 -> blocks 0 and 64; block 0 = current, still
        // emitted (harmless: it will hit in cache), but deduped to one.
        assert_eq!(out, vec![0, 64]);
    }

    #[test]
    fn dedup_is_scoped_to_one_emission() {
        // A pre-existing buffer entry must not suppress a candidate —
        // dedup only looks at what this call appended.
        let mut p = dpl();
        let s = SiteId(2);
        obs(&mut p, s, 0);
        obs(&mut p, s, 16);
        let mut out = vec![0];
        p.observe(s, 32, &mut out);
        assert_eq!(out, vec![0, 0, 64]);
    }

    #[test]
    fn negative_stride_supported() {
        let mut p = dpl();
        let s = SiteId(3);
        obs(&mut p, s, 10_000);
        obs(&mut p, s, 9_872); // stride -128
        let out = obs(&mut p, s, 9_744);
        assert_eq!(out, vec![(9_744 - 128) & !63, (9_744 - 256) & !63]);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = dpl();
        let s = SiteId(4);
        obs(&mut p, s, 0);
        obs(&mut p, s, 128);
        assert!(!obs(&mut p, s, 256).is_empty()); // trained
        assert!(
            obs(&mut p, s, 1000).is_empty(),
            "broken stride must not fire"
        );
        assert!(
            obs(&mut p, s, 2000).is_empty(),
            "stride 1000 seen once (conf 0)"
        );
        assert!(!obs(&mut p, s, 3000).is_empty(), "stride 1000 confirmed");
    }

    #[test]
    fn sites_are_tracked_independently() {
        let mut p = dpl();
        let (a, b) = (SiteId(5), SiteId(6));
        obs(&mut p, a, 0);
        obs(&mut p, b, 1 << 20);
        obs(&mut p, a, 64);
        obs(&mut p, b, (1 << 20) + 4096);
        assert_eq!(obs(&mut p, a, 128), vec![192, 256]);
        assert!(!obs(&mut p, b, (1 << 20) + 8192).is_empty());
    }

    #[test]
    fn anonymous_site_is_ignored() {
        let mut p = dpl();
        for i in 0..10u64 {
            assert!(obs(&mut p, SiteId::ANON, i * 64).is_empty());
        }
    }

    #[test]
    fn table_replacement_evicts_lru_site() {
        let mut p = DplPrefetcher::new(1, 1, 64);
        let (a, b) = (SiteId(1), SiteId(2));
        obs(&mut p, a, 0);
        obs(&mut p, a, 64);
        obs(&mut p, b, 0); // evicts a's entry
        obs(&mut p, a, 128); // re-allocates; old stride forgotten
        assert!(obs(&mut p, a, 192).is_empty(), "conf 0 after re-allocation");
    }

    #[test]
    fn reset_clears_table() {
        let mut p = dpl();
        let s = SiteId(9);
        obs(&mut p, s, 0);
        obs(&mut p, s, 64);
        p.reset();
        obs(&mut p, s, 128);
        assert!(obs(&mut p, s, 192).is_empty());
    }
}
