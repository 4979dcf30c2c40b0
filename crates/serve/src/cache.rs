//! Sharded LRU result cache.
//!
//! Keys are canonical request strings ([`crate::protocol::Request::cache_key`]),
//! values the encoded `result` JSON they produced. The map is split into
//! shards by key hash so concurrent connection handlers rarely contend
//! on one lock; each shard evicts its least-recently-used entry when
//! full (a linear min-scan — shards are small and bounded, so the scan
//! is a few hundred loads at worst, far below one simulation).
//!
//! Shard locks recover from poisoning — a panicking reader cannot break
//! a shard's invariants (plain maps and counters).

use crate::lock;
use std::collections::HashMap;
use std::sync::Mutex;

/// FNV-1a 64-bit — the workspace's deterministic, dependency-free hash.
/// Also used by `spt loadgen` to digest payloads.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Entry {
    key: String,
    value: String,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    tick: u64,
}

/// A bounded, sharded LRU map from canonical request key to encoded
/// result payload.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
}

impl ResultCache {
    /// A cache holding about `capacity` entries across `shards` shards
    /// (both floored at 1; per-shard capacity rounds up).
    pub fn new(capacity: usize, shards: usize) -> ResultCache {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.max(1).div_ceil(shards);
        ResultCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
        }
    }

    /// Total entries the cache can hold.
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).entries.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_for(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash % self.shards.len() as u64) as usize]
    }

    /// Look `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<String> {
        let hash = fnv1a64(key.as_bytes());
        let mut shard = lock(self.shard_for(hash));
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(&hash) {
            // A 64-bit hash collision maps two keys to one slot; verify
            // the full key so a collision is a miss, never a wrong answer.
            Some(e) if e.key == key => {
                e.last_used = tick;
                Some(e.value.clone())
            }
            _ => None,
        }
    }

    /// Insert (or refresh) `key -> value`, evicting the shard's
    /// least-recently-used entry if it is full.
    pub fn put(&self, key: &str, value: String) {
        let hash = fnv1a64(key.as_bytes());
        let mut shard = lock(self.shard_for(hash));
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.len() >= self.per_shard_capacity && !shard.entries.contains_key(&hash) {
            let oldest = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&h, _)| h);
            if let Some(h) = oldest {
                shard.entries.remove(&h);
            }
        }
        shard.entries.insert(
            hash,
            Entry {
                key: key.to_string(),
                value,
                last_used: tick,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_put_returns_the_value() {
        let c = ResultCache::new(8, 2);
        assert!(c.get("k").is_none());
        c.put("k", "v".into());
        assert_eq!(c.get("k").as_deref(), Some("v"));
        assert_eq!(c.len(), 1);
        assert!(!c.is_empty());
    }

    #[test]
    fn evicts_least_recently_used_within_a_shard() {
        // One shard, capacity 2: insert a, b; touch a; insert c -> b evicted.
        let c = ResultCache::new(2, 1);
        c.put("a", "1".into());
        c.put("b", "2".into());
        assert_eq!(c.get("a").as_deref(), Some("1")); // refresh a
        c.put("c", "3".into());
        assert_eq!(c.get("b"), None, "LRU entry evicted");
        assert_eq!(c.get("a").as_deref(), Some("1"));
        assert_eq!(c.get("c").as_deref(), Some("3"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn refresh_of_existing_key_does_not_evict() {
        let c = ResultCache::new(2, 1);
        c.put("a", "1".into());
        c.put("b", "2".into());
        c.put("a", "1b".into()); // overwrite, not a growth
        assert_eq!(c.get("a").as_deref(), Some("1b"));
        assert_eq!(c.get("b").as_deref(), Some("2"));
    }

    #[test]
    fn sharding_spreads_keys_and_respects_total_capacity() {
        let c = ResultCache::new(64, 8);
        assert_eq!(c.capacity(), 64);
        for i in 0..200 {
            c.put(&format!("key-{i}"), format!("v{i}"));
        }
        assert!(c.len() <= c.capacity());
        assert!(c.len() > 8, "more than one shard in use");
    }

    #[test]
    fn fnv_is_the_reference_function() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
