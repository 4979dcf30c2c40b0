//! MST (Olden) — Bentley's minimum-spanning-tree with per-vertex hash
//! tables.
//!
//! Olden's MST stores the edge weight between every vertex pair in a
//! per-vertex open-hash table. The hot function `BlueRule` walks the
//! remaining-vertex list (pointer chase) and, for each vertex, performs a
//! hash lookup of the just-inserted vertex: a bucket-array read followed
//! by a chain-entry read. The per-iteration *new*-block rate is low
//! (headers and buckets are revisited across BlueRule calls), so MST's
//! Set Affinity is large (paper Table 2: [6300, 10000]) and its tolerated
//! prefetch distance long (paper §V.A: < 3150).
//!
//! The trace covers the full MST construction: `nodes - 1` BlueRule
//! calls over a shrinking vertex list; each outer hot-loop iteration is
//! one vertex visited inside one BlueRule call.

use crate::arena::Arena;
use sp_trace::SmallRng;
use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};

/// Reference-site ids used in MST traces.
pub mod sites {
    use sp_trace::SiteId;
    /// `tmp = tmp->next` vertex-list chase (backbone).
    pub const VLIST: SiteId = SiteId(0);
    /// Bucket-array read `v->hash->array[h(key)]`.
    pub const BUCKET: SiteId = SiteId(1);
    /// Chain-entry read `ent->key` / `ent->entry`.
    pub const ENTRY: SiteId = SiteId(2);
    /// Second chain hop (collision).
    pub const ENTRY2: SiteId = SiteId(3);
}

/// MST build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MstConfig {
    /// Vertex count.
    pub nodes: usize,
    /// Buckets per per-vertex hash table.
    pub buckets: usize,
    /// RNG seed for layout and hash permutation.
    pub seed: u64,
    /// Computation cycles per visited vertex (distance compare).
    pub compute_per_visit: u64,
}

impl MstConfig {
    /// Default scaled input matched to the scaled cache config.
    pub fn scaled() -> Self {
        MstConfig {
            nodes: 768,
            buckets: 32,
            seed: 0x357,
            compute_per_visit: 4,
        }
    }

    /// The paper's input (Table 2): 10^4 nodes. The full trace is
    /// O(nodes^2) references — only for explicitly requested paper-scale
    /// runs.
    pub fn paper() -> Self {
        MstConfig {
            nodes: 10_000,
            ..Self::scaled()
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        MstConfig {
            nodes: 48,
            buckets: 8,
            ..Self::scaled()
        }
    }
}

/// A built MST problem instance.
#[derive(Debug, Clone)]
pub struct Mst {
    cfg: MstConfig,
    /// Simulated address of each vertex header.
    vertex_addr: Vec<VAddr>,
    /// Simulated base address of each vertex's bucket array.
    bucket_addr: Vec<VAddr>,
    /// Simulated base address of each vertex's entry pool (one 16-byte
    /// entry per potential neighbour).
    entry_addr: Vec<VAddr>,
    /// Hash permutation: `hash_of[u]` is vertex `u`'s bucket index.
    hash_of: Vec<u32>,
}

impl Mst {
    /// Build the instance (Olden's `MakeGraph` + `AddEdges`).
    pub fn build(cfg: MstConfig) -> Self {
        assert!(cfg.nodes >= 2);
        assert!(
            cfg.buckets.is_power_of_two(),
            "bucket count must be a power of two"
        );
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut arena = Arena::fragmented(0x800_0000, 128, cfg.seed ^ 0xA11);
        let n = cfg.nodes;
        let mut vertex_addr = Vec::with_capacity(n);
        let mut bucket_addr = Vec::with_capacity(n);
        let mut entry_addr = Vec::with_capacity(n);
        for _ in 0..n {
            vertex_addr.push(arena.alloc(64, 64));
            bucket_addr.push(arena.alloc_array(cfg.buckets as u64, 8, 64));
            entry_addr.push(arena.alloc_array(n as u64, 16, 64));
        }
        let hash_of = (0..n)
            .map(|_| rng.gen_range(0..cfg.buckets as u32))
            .collect();
        Mst {
            cfg,
            vertex_addr,
            bucket_addr,
            entry_addr,
            hash_of,
        }
    }

    /// This instance's configuration.
    pub fn config(&self) -> MstConfig {
        self.cfg
    }

    /// Total outer-hot-loop iterations across the whole construction:
    /// BlueRule call `k` (k = 1..nodes) scans `nodes - k` vertices.
    pub fn hot_iterations(&self) -> usize {
        let n = self.cfg.nodes;
        n * (n - 1) / 2
    }

    /// Push the reference stream of the full MST construction into `s`,
    /// one vertex visit per outer iteration (paper-scale MST has ~5x10^7
    /// of them).
    ///
    /// Deterministic simplification of Olden's control flow: vertices are
    /// inserted in index order (the access *pattern* — list chase + hash
    /// probe per visit — is what matters for cache behaviour, and it is
    /// identical regardless of insertion order).
    pub fn emit(&self, s: &mut impl TraceSink) {
        let n = self.cfg.nodes;
        for inserted in 0..n - 1 {
            let bucket = self.hash_of[inserted] as u64;
            // Model a chain collision: a second hop whenever the
            // inserted vertex shares its bucket with its predecessor.
            let collides = inserted > 0 && self.hash_of[inserted - 1] == self.hash_of[inserted];
            for v in inserted + 1..n {
                s.backbone(MemRef::load(self.vertex_addr[v], sites::VLIST));
                s.inner(MemRef::load(
                    self.bucket_addr[v] + bucket * 8,
                    sites::BUCKET,
                ));
                s.inner(MemRef::load(
                    self.entry_addr[v] + inserted as u64 * 16,
                    sites::ENTRY,
                ));
                if collides {
                    s.inner(MemRef::load(
                        self.entry_addr[v] + (inserted as u64 - 1) * 16,
                        sites::ENTRY2,
                    ));
                }
                s.end_iter(self.cfg.compute_per_visit);
            }
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record(
            "mst::BlueRule",
            &["tmp->next", "hash->array[j]", "ent->key", "ent->next->key"],
            |s| self.emit(s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = Mst::build(MstConfig::tiny());
        let b = Mst::build(MstConfig::tiny());
        assert_eq!(a.hash_of, b.hash_of);
        assert_eq!(a.vertex_addr, b.vertex_addr);
    }

    #[test]
    fn trace_has_triangular_iteration_count() {
        let m = Mst::build(MstConfig::tiny());
        let t = m.trace();
        assert_eq!(t.outer_iters(), m.hot_iterations());
    }

    #[test]
    fn every_iteration_probes_one_hash_table() {
        let m = Mst::build(MstConfig::tiny());
        let t = m.trace();
        for it in t.iters.iter() {
            assert_eq!(it.backbone().len(), 1);
            let buckets = it.inner().filter(|r| r.site == sites::BUCKET).count();
            let entries = it.inner().filter(|r| r.site == sites::ENTRY).count();
            assert_eq!((buckets, entries), (1, 1));
        }
    }

    #[test]
    fn bucket_reads_stay_inside_the_bucket_array() {
        let m = Mst::build(MstConfig::tiny());
        let t = m.trace();
        for (_, r) in t.tagged_refs().filter(|(_, r)| r.site == sites::BUCKET) {
            let ok = m
                .bucket_addr
                .iter()
                .any(|&b| r.vaddr >= b && r.vaddr < b + (m.cfg.buckets as u64) * 8);
            assert!(
                ok,
                "bucket read at {:#x} outside every bucket array",
                r.vaddr
            );
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_buckets_rejected() {
        let _ = Mst::build(MstConfig {
            buckets: 12,
            ..MstConfig::tiny()
        });
    }
}
