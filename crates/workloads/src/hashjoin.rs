//! Hash-join probe — the classic LDS kernel of in-memory databases.
//!
//! The build phase hashes the build-side tuples into a chained hash
//! table (bucket-head array + per-tuple chain entries on a fragmented
//! heap). The hot loop is the probe phase: a sequential scan of the
//! probe relation where every tuple hashes its key, reads the bucket
//! head, chases the entry chain until a key match or chain end, and on
//! a match dereferences the build tuple's payload. The probe-side scan
//! is perfectly strided (hardware streamers love it) while the bucket,
//! chain, and payload reads are pointer-chased — exactly the split the
//! paper's pollution analysis cares about.

use crate::arena::Arena;
use sp_trace::SmallRng;
use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};

/// Reference-site ids used in hash-join traces.
pub mod sites {
    use sp_trace::SiteId;
    /// Sequential probe-relation scan `probe[i].key` (backbone).
    pub const PROBE: SiteId = SiteId(0);
    /// Bucket-head read `table[h(key)]`.
    pub const BUCKET: SiteId = SiteId(1);
    /// Chain-entry read `ent->key / ent->next`.
    pub const ENTRY: SiteId = SiteId(2);
    /// Matched build-tuple payload read `ent->tuple->cols`.
    pub const PAYLOAD: SiteId = SiteId(3);
}

/// Hash-join build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashJoinConfig {
    /// Build-side tuple count (rows hashed into the table).
    pub build: usize,
    /// Probe-side tuple count (rows scanned by the hot loop).
    pub probe: usize,
    /// Bucket-head count (power of two).
    pub buckets: usize,
    /// Key universe: keys are drawn from `0..key_space`, so smaller
    /// spaces raise the match rate and lengthen the chains walked.
    pub key_space: u64,
    /// RNG seed for keys and heap layout.
    pub seed: u64,
    /// Computation cycles per probed tuple (hash + compares).
    pub compute_per_probe: u64,
}

impl HashJoinConfig {
    /// Default scaled input matched to the scaled cache config.
    pub fn scaled() -> Self {
        HashJoinConfig {
            build: 4096,
            probe: 8192,
            buckets: 1024,
            key_space: 6144,
            seed: 0x401,
            compute_per_probe: 6,
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        HashJoinConfig {
            build: 96,
            probe: 160,
            buckets: 32,
            key_space: 144,
            ..Self::scaled()
        }
    }
}

/// A built hash-join instance: table layout plus the probe key stream.
#[derive(Debug, Clone)]
pub struct HashJoin {
    cfg: HashJoinConfig,
    /// Simulated base address of the bucket-head array (8B per head).
    bucket_base: VAddr,
    /// Simulated base address of the probe relation (16B per tuple).
    probe_base: VAddr,
    /// Simulated address of each chain entry (one per build tuple).
    entry_addr: Vec<VAddr>,
    /// Simulated address of each build tuple's payload.
    payload_addr: Vec<VAddr>,
    /// Per-bucket chains: indices of build tuples, insertion order.
    chains: Vec<Vec<u32>>,
    /// Build-side keys.
    build_key: Vec<u64>,
    /// Probe-side keys.
    probe_key: Vec<u64>,
}

impl HashJoin {
    fn bucket_of(key: u64, buckets: usize) -> usize {
        // Multiplicative hash; buckets is a power of two.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (buckets - 1)
    }

    /// Build the hash table and the probe key stream.
    pub fn build(cfg: HashJoinConfig) -> Self {
        assert!(cfg.build >= 1 && cfg.probe >= 1);
        assert!(
            cfg.buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        assert!(cfg.key_space >= 1);
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arena = Arena::fragmented(0x900_0000, 128, cfg.seed ^ 0x101);
        let bucket_base = arena.alloc_array(cfg.buckets as u64, 8, 64);
        let probe_base = arena.alloc_array(cfg.probe as u64, 16, 64);
        let build_key: Vec<u64> = (0..cfg.build)
            .map(|_| rng.gen_range(0..cfg.key_space))
            .collect();
        let probe_key: Vec<u64> = (0..cfg.probe)
            .map(|_| rng.gen_range(0..cfg.key_space))
            .collect();
        let mut entry_addr = Vec::with_capacity(cfg.build);
        let mut payload_addr = Vec::with_capacity(cfg.build);
        let mut chains = vec![Vec::new(); cfg.buckets];
        for (i, &k) in build_key.iter().enumerate() {
            entry_addr.push(arena.alloc(16, 16));
            payload_addr.push(arena.alloc(32, 32));
            chains[Self::bucket_of(k, cfg.buckets)].push(i as u32);
        }
        HashJoin {
            cfg,
            bucket_base,
            probe_base,
            entry_addr,
            payload_addr,
            chains,
            build_key,
            probe_key,
        }
    }

    /// This instance's configuration.
    pub fn config(&self) -> HashJoinConfig {
        self.cfg
    }

    /// Outer-hot-loop iterations: one per probed tuple.
    pub fn hot_iterations(&self) -> usize {
        self.cfg.probe
    }

    /// Push the probe phase's reference stream into `s`, one probe per
    /// outer iteration.
    pub fn emit(&self, s: &mut impl TraceSink) {
        for (i, &key) in self.probe_key.iter().enumerate() {
            let b = Self::bucket_of(key, self.cfg.buckets);
            s.backbone(MemRef::load(self.probe_base + i as u64 * 16, sites::PROBE));
            s.inner(MemRef::load(self.bucket_base + b as u64 * 8, sites::BUCKET));
            for &e in &self.chains[b] {
                s.inner(MemRef::load(self.entry_addr[e as usize], sites::ENTRY));
                if self.build_key[e as usize] == key {
                    s.inner(MemRef::load(self.payload_addr[e as usize], sites::PAYLOAD));
                    break;
                }
            }
            s.end_iter(self.cfg.compute_per_probe);
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record(
            "hashjoin::probe",
            &["probe[i].key", "table[h]", "ent->key", "ent->tuple->cols"],
            |s| self.emit(s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes whose key finds a build tuple in its bucket's chain
    /// (first-match semantics, computed without the trace).
    fn matches(j: &HashJoin) -> u64 {
        j.probe_key
            .iter()
            .filter(|&&key| {
                j.chains[HashJoin::bucket_of(key, j.cfg.buckets)]
                    .iter()
                    .any(|&e| j.build_key[e as usize] == key)
            })
            .count() as u64
    }

    #[test]
    fn build_is_deterministic() {
        let a = HashJoin::build(HashJoinConfig::tiny());
        let b = HashJoin::build(HashJoinConfig::tiny());
        assert_eq!(a.build_key, b.build_key);
        assert_eq!(a.probe_key, b.probe_key);
        assert_eq!(a.entry_addr, b.entry_addr);
    }

    #[test]
    fn every_probe_reads_its_tuple_and_one_bucket() {
        let j = HashJoin::build(HashJoinConfig::tiny());
        let t = j.trace();
        assert_eq!(t.outer_iters(), j.hot_iterations());
        for it in t.iters.iter() {
            assert_eq!(it.backbone().len(), 1);
            assert_eq!(it.backbone().next().unwrap().site, sites::PROBE);
            let buckets = it.inner().filter(|r| r.site == sites::BUCKET).count();
            assert_eq!(buckets, 1);
        }
    }

    #[test]
    fn probe_scan_is_strided() {
        let j = HashJoin::build(HashJoinConfig::tiny());
        let t = j.trace();
        let probes: Vec<VAddr> = t
            .tagged_refs()
            .filter(|(_, r)| r.site == sites::PROBE)
            .map(|(_, r)| r.vaddr)
            .collect();
        for w in probes.windows(2) {
            assert_eq!(w[1] - w[0], 16, "probe scan must be 16B-strided");
        }
    }

    #[test]
    fn matches_carry_a_payload_read() {
        let j = HashJoin::build(HashJoinConfig::tiny());
        let matches = matches(&j);
        let t = j.trace();
        let payloads = t
            .tagged_refs()
            .filter(|(_, r)| r.site == sites::PAYLOAD)
            .count() as u64;
        assert_eq!(payloads, matches, "one payload read per first match");
        assert!(matches > 0, "tiny key space must produce matches");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_buckets_rejected() {
        let _ = HashJoin::build(HashJoinConfig {
            buckets: 12,
            ..HashJoinConfig::tiny()
        });
    }
}
