//! Property tests: set-associative cache, geometry, and MSHR invariants.
//!
//! Deterministic randomized cases via `sp_testkit::check` (std-only).

use sp_cachesim::mshr::InFlight;
use sp_cachesim::{CacheGeometry, Entity, MshrFile, Policy, SetAssocCache};
use sp_testkit::{check, gen_vec, SmallRng};

fn small_geo() -> CacheGeometry {
    CacheGeometry::new(4 * 1024, 4, 64) // 16 sets x 4 ways
}

/// Occupancy of any set never exceeds the associativity, and total
/// occupancy never exceeds the line count, for arbitrary mixes of
/// fills, touches, and invalidations.
#[test]
fn occupancy_bounded() {
    check(64, |rng| {
        let ops = gen_vec(rng, 1..400, |r| {
            (r.gen_range(0u32..3), r.gen_range(0u64..(1 << 18)))
        });
        let geo = small_geo();
        let mut c = SetAssocCache::new(geo, Policy::Lru);
        for (op, addr) in ops {
            match op {
                0 => {
                    c.fill(addr, Entity::Main, false);
                }
                1 => {
                    c.demand_touch(addr, false);
                }
                _ => {
                    c.invalidate(addr);
                }
            }
            assert!(c.total_occupancy() as u64 <= geo.lines());
        }
        for set in 0..geo.sets() {
            assert!(c.occupancy(set) <= geo.ways as usize);
            assert_eq!(c.occupancy(set), c.set_blocks(set).len());
        }
        let per_set: usize = (0..geo.sets()).map(|s| c.occupancy(s)).sum();
        assert_eq!(per_set, c.total_occupancy());
    });
}

/// A fill makes the block resident; a hit implies a prior fill.
#[test]
fn fill_then_contains() {
    check(64, |rng| {
        let addrs = gen_vec(rng, 1..200, |r| r.gen_range(0u64..(1 << 18)));
        let mut c = SetAssocCache::new(small_geo(), Policy::Lru);
        let mut filled = std::collections::HashSet::new();
        for a in addrs {
            let block = small_geo().block_of(a);
            if c.demand_touch(a, false).is_some() {
                // Hit: must have been filled at some point earlier.
                assert!(filled.contains(&block), "hit on never-filled {block:#x}");
            } else {
                c.fill(a, Entity::Main, false);
                filled.insert(block);
                assert!(c.contains(a), "fill must make the block resident");
            }
        }
    });
}

/// Under LRU, the most recently touched block of a set survives the
/// next fill into that set.
#[test]
fn lru_mru_survives_one_fill() {
    check(64, |rng| {
        let tags = gen_vec(rng, 5..60, |r| r.gen_range(0u64..32));
        let geo = small_geo();
        let mut c = SetAssocCache::new(geo, Policy::Lru);
        let addr_of = |tag: u64| geo.block_from(3, tag); // everything in set 3
        let mut last: Option<u64> = None;
        let mut fresh = 32u64;
        for tag in tags {
            let a = addr_of(tag);
            if c.demand_touch(a, false).is_none() {
                c.fill(a, Entity::Main, false);
            }
            if let Some(prev) = last {
                // A new, conflicting fill must never evict the block we
                // just touched... unless it *is* that block.
                fresh += 1;
                c.fill(addr_of(fresh), Entity::Main, false);
                assert!(c.contains(addr_of(prev)) || prev == fresh);
            }
            last = Some(tag);
        }
    });
}

/// Eviction metadata always names a block that was resident and that
/// is no longer resident afterwards.
#[test]
fn eviction_reports_real_victims() {
    check(64, |rng| {
        let addrs = gen_vec(rng, 1..300, |r| r.gen_range(0u64..(1 << 16)));
        let geo = small_geo();
        let mut c = SetAssocCache::new(geo, Policy::Lru);
        for a in addrs {
            let before: Vec<u64> = c.set_blocks(geo.set_of(a));
            if let Some(ev) = c.fill(a, Entity::Helper, true) {
                assert!(
                    before.contains(&ev.block),
                    "victim {:#x} was not resident",
                    ev.block
                );
                assert!(!c.contains(ev.block), "victim still resident");
            }
        }
    });
}

/// Geometry roundtrip holds, and the mapping is the division mapping,
/// for arbitrary addresses and shapes.
#[test]
fn geometry_roundtrip() {
    check(256, |rng| {
        let size = 1u64 << rng.gen_range(10u32..24);
        let ways = 1u32 << rng.gen_range(0u32..5);
        let line = 1u64 << rng.gen_range(5u32..8);
        if size / line < ways as u64 {
            return; // shape would have fewer lines than ways
        }
        let g = CacheGeometry::new(size, ways, line);
        let sets = g.sets();
        assert_eq!(sets * u64::from(ways) * line, size);
        // The shift/mask mapping is the division mapping, over the whole
        // address space up to the last block.
        let top = u64::MAX - line + 1;
        for addr in [
            rng.gen_range(0u64..(1 << 40)),
            rng.gen_range(0..=top),
            top,
            0,
        ] {
            let block = g.block_of(addr);
            assert_eq!(block, addr / line * line, "{addr:#x} in {g:?}");
            assert_eq!(g.set_of(addr), (addr / line) % sets, "{addr:#x} in {g:?}");
            assert_eq!(g.tag_of(addr), addr / line / sets, "{addr:#x} in {g:?}");
            assert_eq!(g.block_from(g.set_of(addr), g.tag_of(addr)), block);
        }
    });
}

/// The MSHR file conserves entries: everything allocated is drained
/// exactly once, in ready order.
#[test]
fn mshr_conserves_entries() {
    check(64, |rng| {
        let readies = gen_vec(rng, 1..40, |r| r.gen_range(1u64..1000));
        let mut m = MshrFile::new(64);
        let mut blocks = Vec::new();
        for (i, r) in readies.iter().enumerate() {
            let e = InFlight {
                block: (i as u64) * 64,
                ready_at: *r,
                requester: Entity::Main,
                prefetch: false,
                store: false,
            };
            m.allocate(e).unwrap();
            blocks.push(e.block);
        }
        let drained = m.drain_ready(u64::MAX);
        assert!(m.is_empty());
        assert_eq!(drained.len(), blocks.len());
        // Ready order.
        for w in drained.windows(2) {
            assert!(w[0].ready_at <= w[1].ready_at);
        }
        let mut got: Vec<u64> = drained.iter().map(|e| e.block).collect();
        got.sort_unstable();
        blocks.sort_unstable();
        assert_eq!(got, blocks);
    });
}

/// Partial drains never return entries that are not yet ready, and
/// never lose the rest.
#[test]
fn mshr_partial_drain() {
    check(64, |rng| {
        let readies = gen_vec(rng, 1..40, |r| r.gen_range(1u64..1000));
        let cut = rng.gen_range(1u64..1000);
        let mut m = MshrFile::new(64);
        for (i, r) in readies.iter().enumerate() {
            m.allocate(InFlight {
                block: (i as u64) * 64,
                ready_at: *r,
                requester: Entity::Helper,
                prefetch: true,
                store: false,
            })
            .unwrap();
        }
        let early = m.drain_ready(cut);
        assert!(early.iter().all(|e| e.ready_at <= cut));
        let late = m.drain_ready(u64::MAX);
        assert!(late.iter().all(|e| e.ready_at > cut));
        assert_eq!(early.len() + late.len(), readies.len());
    });
}

fn any_policy(rng: &mut SmallRng) -> Policy {
    match rng.gen_range(0u32..4) {
        0 => Policy::Lru,
        1 => Policy::Fifo,
        2 => Policy::Random {
            seed: rng.gen_range(1u64..1000),
        },
        _ => Policy::PlruTree,
    }
}

/// `fill_at` on an absent block is `insert_at` of a clean line, and on a
/// present one the promotion alone, under every policy: two caches, one
/// filled through `fill_at` and one through `insert_at`/`promote`,
/// report the same victims and end with the same contents.
#[test]
fn fill_at_is_probe_then_insert_at() {
    check(64, |rng| {
        let geo = CacheGeometry::new(2048, 1 << rng.gen_range(0u32..=3), 64);
        let policy = any_policy(rng);
        let mut a = SetAssocCache::new(geo, policy);
        let mut b = SetAssocCache::new(geo, policy);
        for _ in 0..rng.gen_range(1usize..400) {
            let addr = rng.gen_range(0..geo.size_bytes * 3);
            let (set, tag) = (geo.set_of(addr) as u32, geo.tag_of(addr));
            match rng.gen_range(0u32..5) {
                0 => assert_eq!(a.touch(addr, true, true), b.touch(addr, true, true)),
                1 => assert_eq!(a.invalidate(addr), b.invalidate(addr)),
                _ => {
                    let prefetched = rng.gen_bool(0.5);
                    let filler = if prefetched {
                        Entity::Helper
                    } else {
                        Entity::Main
                    };
                    let via_insert = if b.find_way(set, tag).is_some() {
                        assert!(b.promote(set, tag));
                        None
                    } else {
                        b.insert_at(set, tag, filler, prefetched, false).1
                    };
                    assert_eq!(a.fill_at(set, tag, filler, prefetched), via_insert);
                }
            }
        }
        for set in 0..geo.sets() {
            assert_eq!(a.set_blocks(set), b.set_blocks(set));
            for block in a.set_blocks(set) {
                assert_eq!(a.line_meta(block), b.line_meta(block));
            }
        }
    });
}

/// Inserting a line dirty equals inserting it clean and then touching it
/// as a store without marking it used — what the store-waiting L2 fill
/// used to do — under every policy: same metadata now, same victims
/// later.
#[test]
fn dirty_insert_equals_insert_then_store_touch() {
    check(64, |rng| {
        let geo = CacheGeometry::new(1024, 1 << rng.gen_range(0u32..=3), 64);
        let policy = any_policy(rng);
        let mut a = SetAssocCache::new(geo, policy);
        let mut b = SetAssocCache::new(geo, policy);
        for _ in 0..rng.gen_range(1usize..300) {
            let addr = rng.gen_range(0..geo.size_bytes * 4);
            let (set, tag) = (geo.set_of(addr) as u32, geo.tag_of(addr));
            if a.find_way(set, tag).is_some() {
                let store = rng.gen_bool(0.3);
                assert_eq!(a.touch(addr, store, true), b.touch(addr, store, true));
                continue;
            }
            let prefetched = rng.gen_bool(0.5);
            let dirty = rng.gen_bool(0.5);
            let ev = a.insert_at(set, tag, Entity::Helper, prefetched, dirty);
            assert_eq!(b.insert_at(set, tag, Entity::Helper, prefetched, false), ev);
            if dirty {
                assert!(b.touch_at(set, tag, true, false).is_some());
            }
            assert_eq!(a.line_meta(addr), b.line_meta(addr));
        }
        for set in 0..geo.sets() {
            assert_eq!(a.set_blocks(set), b.set_blocks(set));
        }
    });
}

/// Random out-of-order allocations, merges and pops agree with an
/// allocation-order list whose next completion is found by a stable
/// sort on `ready_at` (so ties complete in allocation order).
#[test]
fn mshr_matches_a_sorted_list() {
    check(128, |rng| {
        let capacity = rng.gen_range(1usize..=16);
        let mut m = MshrFile::new(capacity);
        let mut model: Vec<InFlight> = Vec::new();
        let by_ready = |model: &[InFlight]| {
            let mut sorted = model.to_vec();
            sorted.sort_by_key(|e| e.ready_at);
            sorted
        };
        let mut now = 0u64;
        for _ in 0..rng.gen_range(1usize..300) {
            let block = 64 * rng.gen_range(0u64..24);
            match rng.gen_range(0u32..6) {
                0 | 1 => {
                    let e = InFlight {
                        block,
                        // Few distinct times, so ties are common.
                        ready_at: now + 8 * rng.gen_range(0u64..8),
                        requester: Entity::Helper,
                        prefetch: rng.gen_bool(0.5),
                        store: false,
                    };
                    let fits = model.len() < capacity && model.iter().all(|x| x.block != block);
                    assert_eq!(m.allocate(e).is_ok(), fits);
                    if fits {
                        model.push(e);
                    }
                }
                2 => {
                    let store = rng.gen_bool(0.5);
                    let want = model.iter_mut().find(|x| x.block == block).map(|x| {
                        let before = *x;
                        x.prefetch = false;
                        x.store |= store;
                        InFlight {
                            store: x.store,
                            ..before
                        }
                    });
                    assert_eq!(m.merge_demand(block, store), want);
                }
                3 => {
                    now += rng.gen_range(0u64..24);
                    let want = by_ready(&model).into_iter().find(|e| e.ready_at <= now);
                    if let Some(w) = want {
                        let i = model.iter().position(|x| x.block == w.block).unwrap();
                        model.remove(i);
                    }
                    assert_eq!(m.pop_earliest_ready(now), want);
                }
                4 => {
                    now += rng.gen_range(0u64..24);
                    let (done, rest): (Vec<_>, Vec<_>) = by_ready(&model)
                        .into_iter()
                        .partition(|e| e.ready_at <= now);
                    model.retain(|x| rest.iter().any(|r| r.block == x.block));
                    assert_eq!(m.drain_ready(now), done);
                }
                _ => assert_eq!(
                    m.lookup(block),
                    model.iter().copied().find(|x| x.block == block)
                ),
            }
            let sorted = by_ready(&model);
            assert_eq!(m.len(), model.len());
            assert_eq!(m.is_full(), model.len() >= capacity);
            assert_eq!(m.earliest_ready(), sorted.first().map(|e| e.ready_at));
            assert_eq!(
                m.none_ready(now),
                sorted.first().is_none_or(|e| e.ready_at > now)
            );
        }
    });
}

mod reference_model {
    use super::*;
    use std::collections::HashMap;

    /// An obviously-correct LRU cache: per-set recency lists, no way
    /// bookkeeping, no policy engine — a second, independent
    /// implementation to differentially test `SetAssocCache` against.
    struct RefLru {
        geo: CacheGeometry,
        sets: HashMap<u64, Vec<u64>>, // set -> blocks, MRU first
    }

    impl RefLru {
        fn new(geo: CacheGeometry) -> Self {
            RefLru {
                geo,
                sets: HashMap::new(),
            }
        }

        /// Returns `true` on hit; updates recency / fills on miss.
        fn access(&mut self, addr: u64) -> bool {
            let block = self.geo.block_of(addr);
            let set = self.sets.entry(self.geo.set_of(addr)).or_default();
            if let Some(pos) = set.iter().position(|&b| b == block) {
                set.remove(pos);
                set.insert(0, block);
                true
            } else {
                set.insert(0, block);
                set.truncate(self.geo.ways as usize);
                false
            }
        }
    }

    /// `SetAssocCache` with LRU behaves identically to the reference
    /// model on arbitrary demand streams (hit/miss per access AND
    /// final contents).
    #[test]
    fn lru_matches_reference_model() {
        check(64, |rng: &mut SmallRng| {
            let addrs = gen_vec(rng, 1..500, |r| r.gen_range(0u64..(1 << 16)));
            let geo = small_geo();
            let mut real = SetAssocCache::new(geo, Policy::Lru);
            let mut reference = RefLru::new(geo);
            for a in addrs {
                let real_hit = real.demand_touch(a, false).is_some();
                if !real_hit {
                    real.fill(a, Entity::Main, false);
                }
                let ref_hit = reference.access(a);
                assert_eq!(real_hit, ref_hit, "divergence at {a:#x}");
            }
            // Final contents agree set by set.
            for set in 0..geo.sets() {
                let mut a: Vec<u64> = real.set_blocks(set);
                let mut b: Vec<u64> = reference.sets.get(&set).cloned().unwrap_or_default();
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "contents diverge in set {set}");
            }
        });
    }
}
