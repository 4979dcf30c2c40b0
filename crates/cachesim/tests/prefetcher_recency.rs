//! Differential tests for the prefetchers' rank-order slot replacement.
//!
//! `StampStreamer` and `StampDpl` below are the earlier stamp-based
//! implementations of [`StreamPrefetcher`] and [`DplPrefetcher`] — one
//! recency stamp per slot from a per-table clock, a fused scan that
//! matches and tracks the least-recent slot in one pass — kept verbatim
//! as executable specifications. Seeded streams drive each model and
//! the production prefetcher side by side and demand the identical
//! candidate list from every single `observe`.

use sp_cachesim::prefetcher::{DplPrefetcher, HwPrefetcher, StreamPrefetcher};
use sp_testkit::{check, SmallRng};
use sp_trace::{SiteId, VAddr};

const LINE: u64 = 64;

#[derive(Debug, Clone, Copy)]
struct Stream {
    last: u64,
    dir: i64,
    conf: u32,
    stamp: u64,
    valid: bool,
}

/// The stamp-and-scan streamer.
struct StampStreamer {
    slots: Vec<Stream>,
    line_size: u64,
    degree: u32,
    clock: u64,
}

impl StampStreamer {
    fn new(slots: usize, degree: u32, line_size: u64) -> Self {
        StampStreamer {
            slots: vec![
                Stream {
                    last: 0,
                    dir: 0,
                    conf: 0,
                    stamp: 0,
                    valid: false
                };
                slots
            ],
            line_size,
            degree,
            clock: 0,
        }
    }

    fn emit(&self, blk: u64, dir: i64, out: &mut Vec<VAddr>) {
        for d in 1..=self.degree as i64 {
            let target = blk as i64 + dir * d;
            if target >= 0 {
                out.push(target as u64 * self.line_size);
            }
        }
    }
}

impl HwPrefetcher for StampStreamer {
    fn observe(&mut self, _site: SiteId, block: VAddr, out: &mut Vec<VAddr>) {
        let blk = block / self.line_size;
        self.clock += 1;
        let mut victim = 0usize;
        let mut victim_key = u64::MAX;
        for (i, s) in self.slots.iter_mut().enumerate() {
            if !s.valid {
                if victim_key != 0 {
                    victim = i;
                    victim_key = 0;
                }
                continue;
            }
            let delta = blk as i64 - s.last as i64;
            if delta == 0 {
                s.stamp = self.clock;
                return;
            }
            if delta == 1 || delta == -1 {
                if s.dir == delta {
                    s.conf = s.conf.saturating_add(1);
                } else {
                    s.dir = delta;
                    s.conf = 1;
                }
                s.last = blk;
                s.stamp = self.clock;
                let (last, dir) = (s.last, s.dir);
                self.emit(last, dir, out);
                return;
            }
            if s.stamp < victim_key {
                victim = i;
                victim_key = s.stamp;
            }
        }
        self.slots[victim] = Stream {
            last: blk,
            dir: 0,
            conf: 0,
            stamp: self.clock,
            valid: true,
        };
    }

    fn reset(&mut self) {
        for s in &mut self.slots {
            s.valid = false;
        }
        self.clock = 0;
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    site: SiteId,
    last_addr: VAddr,
    stride: i64,
    conf: u32,
    stamp: u64,
    valid: bool,
}

/// The stamp-and-scan DPL stride table.
struct StampDpl {
    table: Vec<Entry>,
    degree: u32,
    line_size: u64,
    clock: u64,
}

impl StampDpl {
    fn new(entries: usize, degree: u32, line_size: u64) -> Self {
        StampDpl {
            table: vec![
                Entry {
                    site: SiteId::ANON,
                    last_addr: 0,
                    stride: 0,
                    conf: 0,
                    stamp: 0,
                    valid: false
                };
                entries
            ],
            degree,
            line_size,
            clock: 0,
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
            if !out[start..].contains(&block) {
                out.push(block);
            }
        }
    }
}

impl HwPrefetcher for StampDpl {
    fn observe(&mut self, site: SiteId, addr: VAddr, out: &mut Vec<VAddr>) {
        if site == SiteId::ANON {
            return;
        }
        self.clock += 1;
        let mut victim = 0usize;
        let mut victim_key = u64::MAX;
        for (i, e) in self.table.iter_mut().enumerate() {
            if !e.valid {
                if victim_key != 0 {
                    victim = i;
                    victim_key = 0;
                }
                continue;
            }
            if e.site == site {
                let delta = addr as i64 - e.last_addr as i64;
                if delta == 0 {
                    e.stamp = self.clock;
                    return;
                }
                if delta == e.stride {
                    e.conf = e.conf.saturating_add(1);
                } else {
                    e.stride = delta;
                    e.conf = 0;
                }
                e.last_addr = addr;
                e.stamp = self.clock;
                if e.conf >= 1 {
                    let (a, s) = (e.last_addr, e.stride);
                    self.emit(a, s, out);
                }
                return;
            }
            if e.stamp < victim_key {
                victim = i;
                victim_key = e.stamp;
            }
        }
        self.table[victim] = Entry {
            site,
            last_addr: addr,
            stride: 0,
            conf: 0,
            stamp: self.clock,
            valid: true,
        };
    }

    fn reset(&mut self) {
        for e in &mut self.table {
            e.valid = false;
        }
        self.clock = 0;
    }
}

/// One step of a generated stream: an access, or a reset.
enum Op {
    Access(SiteId, VAddr),
    Reset,
}

/// A seeded stream over `sites` sites (plus anonymous references) whose
/// addresses mostly step from the previous address of the same site by
/// 0 or ±1 block or a small repeated stride — so streams and strides
/// confirm, neighbouring streams straddle one block, and more streams
/// or sites are live than the table has slots — with rare resets.
fn gen_ops(rng: &mut SmallRng, sites: u32, len: usize) -> Vec<Op> {
    let mut last = vec![0u64; sites as usize + 1];
    let strides = [0i64, 1, -1, 2, 3, 16];
    (0..len)
        .map(|_| {
            if rng.gen_range(0u32..200) == 0 {
                return Op::Reset;
            }
            let s = rng.gen_range(0..=sites);
            let site = if s == sites { SiteId::ANON } else { SiteId(s) };
            let prev = &mut last[s as usize];
            *prev = if rng.gen_range(0u32..8) == 0 {
                rng.gen_range(0u64..64) * LINE + rng.gen_range(0u64..LINE)
            } else {
                let step = strides[rng.gen_range(0..strides.len())] * LINE as i64;
                prev.saturating_add_signed(step)
            };
            Op::Access(site, *prev)
        })
        .collect()
}

/// Drive `model` and `real` with one stream; every `observe` must append
/// the same candidates, and some must append any at all.
fn differential(ops: &[Op], model: &mut dyn HwPrefetcher, real: &mut dyn HwPrefetcher) {
    let (mut want, mut got) = (Vec::new(), Vec::new());
    let mut fired = 0;
    for (step, op) in ops.iter().enumerate() {
        match *op {
            Op::Reset => {
                model.reset();
                real.reset();
            }
            Op::Access(site, addr) => {
                want.clear();
                got.clear();
                model.observe(site, addr, &mut want);
                real.observe(site, addr, &mut got);
                assert_eq!(got, want, "observe diverged at step {step}");
                fired += usize::from(!got.is_empty());
            }
        }
    }
    assert!(fired > 0, "the stream never confirmed a pattern");
}

#[test]
fn streamer_matches_stamp_model() {
    check(48, |rng| {
        let slots = rng.gen_range(1usize..10);
        let degree = rng.gen_range(1u32..4);
        let sites = rng.gen_range(1u32..2 * slots as u32 + 2);
        let ops = gen_ops(rng, sites, 3_000);
        let mut model = StampStreamer::new(slots, degree, LINE);
        differential(
            &ops,
            &mut model,
            &mut StreamPrefetcher::new(slots, degree, LINE),
        );
    });
}

#[test]
fn dpl_matches_stamp_model() {
    check(48, |rng| {
        let entries = rng.gen_range(1usize..18);
        let degree = rng.gen_range(1u32..4);
        let sites = rng.gen_range(1u32..2 * entries as u32 + 2);
        let ops = gen_ops(rng, sites, 3_000);
        let mut model = StampDpl::new(entries, degree, LINE);
        differential(
            &ops,
            &mut model,
            &mut DplPrefetcher::new(entries, degree, LINE),
        );
    });
}

#[test]
fn streamer_prefers_the_first_of_two_matching_slots() {
    // Streams at blocks 10 and 12 both lie one block from 11: the
    // lower-index slot (block 10) must take it and stream upwards,
    // where the other slot would have streamed down to 10 and 9.
    let mut model = StampStreamer::new(4, 2, LINE);
    let mut real = StreamPrefetcher::new(4, 2, LINE);
    let outs: Vec<Vec<VAddr>> = [10u64, 12, 11, 13, 12, 40, 41, 11]
        .iter()
        .map(|&blk| {
            let (mut want, mut got) = (Vec::new(), Vec::new());
            model.observe(SiteId::ANON, blk * LINE, &mut want);
            real.observe(SiteId::ANON, blk * LINE, &mut got);
            assert_eq!(got, want, "block {blk}");
            got
        })
        .collect();
    assert_eq!(outs[2], vec![12 * LINE, 13 * LINE]);
}
