//! Declarative workload construction: the `WorkloadBuilder`/`KernelSpec`
//! layer.
//!
//! The original harness dispatched on the [`Benchmark`]
//! enum with one hard-coded match arm per (kernel, scale) pair — every
//! new kernel or scale doubled the copy-pasted constructors. This module
//! replaces that with a declarative spec: pick a [`KernelKind`], a
//! [`ScaleTier`], optionally a seed override, and [`KernelSpec::build`]
//! resolves the per-kernel config and returns a uniform [`BuiltKernel`]
//! handle. [`Workload`](crate::Workload) and
//! [`Candidate`] keep their old signatures as thin
//! shims over this layer.
//!
//! The kind space is the full workload frontier: the paper's trio, the
//! §IV.B screening candidates, and the four LDS kernels (hash-join
//! probe, BFS over CSR, skip-list search, B-tree range scan) added for
//! the prefetcher-backend comparison. Every kernel pushes a deterministic
//! reference stream with backbone/inner delinquent-load structure into a
//! [`TraceSink`] — stored as a [`HotLoopTrace`] by `trace()`, or
//! analysed in flight by `emit()` — so `recommend_distance` and the
//! Set-Affinity bound apply unchanged.

use crate::bfs::{Bfs, BfsConfig};
use crate::btree::{BTree, BTreeConfig};
use crate::em3d::{Em3d, Em3dConfig};
use crate::hashjoin::{HashJoin, HashJoinConfig};
use crate::health::{Health, HealthConfig};
use crate::matmul::{Matmul, MatmulConfig};
use crate::mcf::{Mcf, McfConfig};
use crate::mst::{Mst, MstConfig};
use crate::skiplist::{SkipList, SkipListConfig};
use crate::treeadd::{TreeAdd, TreeAddConfig};
use crate::{Benchmark, Candidate};
use sp_trace::{HotLoopTrace, TraceSink};

/// Every kernel the builder can construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Olden EM3D (paper trio).
    Em3d,
    /// SPEC2006 MCF pricing kernel (paper trio).
    Mcf,
    /// Olden MST (paper trio).
    Mst,
    /// Olden TreeAdd (screening candidate).
    TreeAdd,
    /// Olden Health (screening candidate).
    Health,
    /// Blocked dense matmul (screening candidate, compute-bound).
    Matmul,
    /// Hash-join probe (LDS frontier).
    HashJoin,
    /// BFS over CSR with pointer-chased properties (LDS frontier).
    Bfs,
    /// Skip-list search (LDS frontier).
    SkipList,
    /// B-tree range scan (LDS frontier).
    BTree,
}

impl KernelKind {
    /// Every kernel: paper trio, screening candidates, LDS frontier.
    pub const ALL: [KernelKind; 10] = [
        KernelKind::Em3d,
        KernelKind::Mcf,
        KernelKind::Mst,
        KernelKind::TreeAdd,
        KernelKind::Health,
        KernelKind::Matmul,
        KernelKind::HashJoin,
        KernelKind::Bfs,
        KernelKind::SkipList,
        KernelKind::BTree,
    ];

    /// The four LDS-frontier kernels, in sweep order.
    pub const LDS: [KernelKind; 4] = [
        KernelKind::HashJoin,
        KernelKind::Bfs,
        KernelKind::SkipList,
        KernelKind::BTree,
    ];

    /// Display name (the spelling tables and reports use).
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Em3d => "EM3D",
            KernelKind::Mcf => "MCF",
            KernelKind::Mst => "MST",
            KernelKind::TreeAdd => "TreeAdd",
            KernelKind::Health => "Health",
            KernelKind::Matmul => "MatMul",
            KernelKind::HashJoin => "HashJoin",
            KernelKind::Bfs => "BFS",
            KernelKind::SkipList => "SkipList",
            KernelKind::BTree => "BTree",
        }
    }

    /// Flag spelling (`--bench` values and serve request names).
    pub fn flag(self) -> &'static str {
        match self {
            KernelKind::Em3d => "em3d",
            KernelKind::Mcf => "mcf",
            KernelKind::Mst => "mst",
            KernelKind::TreeAdd => "treeadd",
            KernelKind::Health => "health",
            KernelKind::Matmul => "matmul",
            KernelKind::HashJoin => "hashjoin",
            KernelKind::Bfs => "bfs",
            KernelKind::SkipList => "skiplist",
            KernelKind::BTree => "btree",
        }
    }

    /// Parse a flag spelling; the error lists every valid kernel.
    pub fn parse(s: &str) -> Result<KernelKind, String> {
        KernelKind::ALL
            .into_iter()
            .find(|k| k.flag() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = KernelKind::ALL.iter().map(|k| k.flag()).collect();
                format!("unknown benchmark {s}; expected {}", names.join("|"))
            })
    }

    /// The paper [`Benchmark`] this kernel corresponds to, if any.
    pub fn benchmark(self) -> Option<Benchmark> {
        match self {
            KernelKind::Em3d => Some(Benchmark::Em3d),
            KernelKind::Mcf => Some(Benchmark::Mcf),
            KernelKind::Mst => Some(Benchmark::Mst),
            _ => None,
        }
    }

    /// The kernel for a paper [`Benchmark`].
    pub fn from_benchmark(b: Benchmark) -> KernelKind {
        match b {
            Benchmark::Em3d => KernelKind::Em3d,
            Benchmark::Mcf => KernelKind::Mcf,
            Benchmark::Mst => KernelKind::Mst,
        }
    }

    /// The kernel for a §IV.B screening [`Candidate`].
    pub fn from_candidate(c: Candidate) -> KernelKind {
        match c {
            Candidate::Em3d => KernelKind::Em3d,
            Candidate::Mcf => KernelKind::Mcf,
            Candidate::Mst => KernelKind::Mst,
            Candidate::TreeAdd => KernelKind::TreeAdd,
            Candidate::Health => KernelKind::Health,
            Candidate::Matmul => KernelKind::Matmul,
        }
    }

    /// `true` for the LDS-frontier kernels.
    pub fn is_lds(self) -> bool {
        KernelKind::LDS.contains(&self)
    }
}

/// Which input size a spec resolves to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleTier {
    /// Seconds-fast test inputs (`*Config::tiny()`).
    Tiny,
    /// The default reproduction scale (`*Config::scaled()`).
    Scaled,
}

/// A resolved kernel specification: kind + scale + optional seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelSpec {
    /// Which kernel.
    pub kind: KernelKind,
    /// Which input size.
    pub tier: ScaleTier,
    /// Seed override for layout/wiring randomness; `None` keeps the
    /// kernel's pinned default (MatMul is seedless — ignored there).
    pub seed: Option<u64>,
}

impl KernelSpec {
    /// Spec at the default reproduction scale.
    pub fn scaled(kind: KernelKind) -> Self {
        KernelSpec {
            kind,
            tier: ScaleTier::Scaled,
            seed: None,
        }
    }

    /// Spec at the fast test scale.
    pub fn tiny(kind: KernelKind) -> Self {
        KernelSpec {
            kind,
            tier: ScaleTier::Tiny,
            seed: None,
        }
    }

    /// Build the kernel instance this spec describes.
    pub fn build(&self) -> BuiltKernel {
        let tiny = self.tier == ScaleTier::Tiny;
        match self.kind {
            KernelKind::Em3d => {
                let mut c = if tiny {
                    Em3dConfig::tiny()
                } else {
                    Em3dConfig::scaled()
                };
                if let Some(s) = self.seed {
                    c.seed = s;
                }
                BuiltKernel::Em3d(Em3d::build(c))
            }
            KernelKind::Mcf => {
                let mut c = if tiny {
                    McfConfig::tiny()
                } else {
                    McfConfig::scaled()
                };
                if let Some(s) = self.seed {
                    c.seed = s;
                }
                BuiltKernel::Mcf(Mcf::build(c))
            }
            KernelKind::Mst => {
                let mut c = if tiny {
                    MstConfig::tiny()
                } else {
                    MstConfig::scaled()
                };
                if let Some(s) = self.seed {
                    c.seed = s;
                }
                BuiltKernel::Mst(Mst::build(c))
            }
            KernelKind::TreeAdd => {
                let mut c = if tiny {
                    TreeAddConfig::tiny()
                } else {
                    TreeAddConfig::scaled()
                };
                if let Some(s) = self.seed {
                    c.seed = s;
                }
                BuiltKernel::TreeAdd(TreeAdd::build(c))
            }
            KernelKind::Health => {
                let mut c = if tiny {
                    HealthConfig::tiny()
                } else {
                    HealthConfig::scaled()
                };
                if let Some(s) = self.seed {
                    c.seed = s;
                }
                BuiltKernel::Health(Health::build(c))
            }
            KernelKind::Matmul => {
                let c = if tiny {
                    MatmulConfig::tiny()
                } else {
                    MatmulConfig::scaled()
                };
                BuiltKernel::Matmul(Matmul::build(c))
            }
            KernelKind::HashJoin => {
                let mut c = if tiny {
                    HashJoinConfig::tiny()
                } else {
                    HashJoinConfig::scaled()
                };
                if let Some(s) = self.seed {
                    c.seed = s;
                }
                BuiltKernel::HashJoin(HashJoin::build(c))
            }
            KernelKind::Bfs => {
                let mut c = if tiny {
                    BfsConfig::tiny()
                } else {
                    BfsConfig::scaled()
                };
                if let Some(s) = self.seed {
                    c.seed = s;
                }
                BuiltKernel::Bfs(Bfs::build(c))
            }
            KernelKind::SkipList => {
                let mut c = if tiny {
                    SkipListConfig::tiny()
                } else {
                    SkipListConfig::scaled()
                };
                if let Some(s) = self.seed {
                    c.seed = s;
                }
                BuiltKernel::SkipList(SkipList::build(c))
            }
            KernelKind::BTree => {
                let mut c = if tiny {
                    BTreeConfig::tiny()
                } else {
                    BTreeConfig::scaled()
                };
                if let Some(s) = self.seed {
                    c.seed = s;
                }
                BuiltKernel::BTree(BTree::build(c))
            }
        }
    }

    /// Build and trace in one step.
    pub fn trace(&self) -> HotLoopTrace {
        self.build().trace()
    }
}

/// Fluent front end over [`KernelSpec`].
///
/// ```
/// use sp_workloads::{KernelKind, ScaleTier, WorkloadBuilder};
/// let trace = WorkloadBuilder::new(KernelKind::HashJoin)
///     .tier(ScaleTier::Tiny)
///     .seed(7)
///     .trace();
/// assert!(trace.total_refs() > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WorkloadBuilder {
    spec: KernelSpec,
}

impl WorkloadBuilder {
    /// Start a builder for `kind` at the default reproduction scale.
    pub fn new(kind: KernelKind) -> Self {
        WorkloadBuilder {
            spec: KernelSpec::scaled(kind),
        }
    }

    /// Select the input size.
    pub fn tier(mut self, tier: ScaleTier) -> Self {
        self.spec.tier = tier;
        self
    }

    /// Override the layout/wiring seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = Some(seed);
        self
    }

    /// The resolved spec.
    pub fn spec(self) -> KernelSpec {
        self.spec
    }

    /// Build the kernel instance.
    pub fn build(self) -> BuiltKernel {
        self.spec.build()
    }

    /// Build and trace in one step.
    pub fn trace(self) -> HotLoopTrace {
        self.spec.trace()
    }
}

/// A built kernel instance behind one uniform handle.
pub enum BuiltKernel {
    /// EM3D instance.
    Em3d(Em3d),
    /// MCF instance.
    Mcf(Mcf),
    /// MST instance.
    Mst(Mst),
    /// TreeAdd instance.
    TreeAdd(TreeAdd),
    /// Health instance.
    Health(Health),
    /// MatMul instance.
    Matmul(Matmul),
    /// Hash-join instance.
    HashJoin(HashJoin),
    /// BFS instance.
    Bfs(Bfs),
    /// Skip-list instance.
    SkipList(SkipList),
    /// B-tree instance.
    BTree(BTree),
}

impl BuiltKernel {
    /// Which kernel this is.
    pub fn kind(&self) -> KernelKind {
        match self {
            BuiltKernel::Em3d(_) => KernelKind::Em3d,
            BuiltKernel::Mcf(_) => KernelKind::Mcf,
            BuiltKernel::Mst(_) => KernelKind::Mst,
            BuiltKernel::TreeAdd(_) => KernelKind::TreeAdd,
            BuiltKernel::Health(_) => KernelKind::Health,
            BuiltKernel::Matmul(_) => KernelKind::Matmul,
            BuiltKernel::HashJoin(_) => KernelKind::HashJoin,
            BuiltKernel::Bfs(_) => KernelKind::Bfs,
            BuiltKernel::SkipList(_) => KernelKind::SkipList,
            BuiltKernel::BTree(_) => KernelKind::BTree,
        }
    }

    /// Push the hot loop's reference stream into `s` without storing it
    /// (what [`trace`](Self::trace) stores).
    pub fn emit(&self, s: &mut impl TraceSink) {
        match self {
            BuiltKernel::Em3d(w) => w.emit(s),
            BuiltKernel::Mcf(w) => w.emit(s),
            BuiltKernel::Mst(w) => w.emit(s),
            BuiltKernel::TreeAdd(w) => w.emit(s),
            BuiltKernel::Health(w) => w.emit(s),
            BuiltKernel::Matmul(w) => w.emit(s),
            BuiltKernel::HashJoin(w) => w.emit(s),
            BuiltKernel::Bfs(w) => w.emit(s),
            BuiltKernel::SkipList(w) => w.emit(s),
            BuiltKernel::BTree(w) => w.emit(s),
        }
    }

    /// The hot loop's reference stream, stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        match self {
            BuiltKernel::Em3d(w) => w.trace(),
            BuiltKernel::Mcf(w) => w.trace(),
            BuiltKernel::Mst(w) => w.trace(),
            BuiltKernel::TreeAdd(w) => w.trace(),
            BuiltKernel::Health(w) => w.trace(),
            BuiltKernel::Matmul(w) => w.trace(),
            BuiltKernel::HashJoin(w) => w.trace(),
            BuiltKernel::Bfs(w) => w.trace(),
            BuiltKernel::SkipList(w) => w.trace(),
            BuiltKernel::BTree(w) => w.trace(),
        }
    }

    /// Outer-hot-loop iterations.
    pub fn hot_iterations(&self) -> usize {
        match self {
            BuiltKernel::Em3d(w) => w.hot_iterations(),
            BuiltKernel::Mcf(w) => w.hot_iterations(),
            BuiltKernel::Mst(w) => w.hot_iterations(),
            BuiltKernel::TreeAdd(w) => w.hot_iterations(),
            BuiltKernel::Health(w) => w.hot_iterations(),
            BuiltKernel::Matmul(w) => w.hot_iterations(),
            BuiltKernel::HashJoin(w) => w.hot_iterations(),
            BuiltKernel::Bfs(w) => w.hot_iterations(),
            BuiltKernel::SkipList(w) => w.hot_iterations(),
            BuiltKernel::BTree(w) => w.hot_iterations(),
        }
    }

    /// Input description (Table 2 style) for reports.
    pub fn input_description(&self) -> String {
        match self {
            BuiltKernel::Em3d(w) => {
                let c = w.config();
                format!("{} nodes, arity {}", c.nodes, c.degree)
            }
            BuiltKernel::Mcf(w) => {
                let c = w.config();
                format!("{} arcs, {} nodes", c.arcs, c.nodes)
            }
            BuiltKernel::Mst(w) => format!("{} nodes", w.config().nodes),
            BuiltKernel::TreeAdd(w) => format!("depth {}", w.config().depth),
            BuiltKernel::Health(w) => {
                let c = w.config();
                format!("{} levels, {} steps", c.levels, c.steps)
            }
            BuiltKernel::Matmul(w) => {
                let c = w.config();
                format!("{}x{}, block {}", c.n, c.n, c.block)
            }
            BuiltKernel::HashJoin(w) => {
                let c = w.config();
                format!(
                    "{} build, {} probe, {} buckets",
                    c.build, c.probe, c.buckets
                )
            }
            BuiltKernel::Bfs(w) => {
                let c = w.config();
                format!("{} nodes, degree {}", c.nodes, c.degree)
            }
            BuiltKernel::SkipList(w) => {
                let c = w.config();
                format!("{} nodes, {} searches", c.nodes, c.searches)
            }
            BuiltKernel::BTree(w) => {
                let c = w.config();
                format!("{} keys, fanout {}, {} scans", c.keys, c.fanout, c.scans)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_traces_at_tiny_scale() {
        for kind in KernelKind::ALL {
            let k = KernelSpec::tiny(kind).build();
            assert_eq!(k.kind(), kind);
            let t = k.trace();
            assert!(t.total_refs() > 0, "{}", kind.name());
            assert_eq!(t.outer_iters(), k.hot_iterations(), "{}", kind.name());
            assert!(!k.input_description().is_empty());
        }
    }

    #[test]
    fn flags_round_trip_and_unknowns_list_the_valid_set() {
        for kind in KernelKind::ALL {
            assert_eq!(KernelKind::parse(kind.flag()), Ok(kind));
        }
        let err = KernelKind::parse("warp").unwrap_err();
        assert!(err.contains("unknown benchmark warp"), "{err}");
        for kind in KernelKind::ALL {
            assert!(err.contains(kind.flag()), "{err} missing {}", kind.flag());
        }
    }

    #[test]
    fn seed_override_changes_lds_layouts_deterministically() {
        for kind in KernelKind::LDS {
            let base = KernelSpec::tiny(kind).trace();
            let again = KernelSpec::tiny(kind).trace();
            assert_eq!(
                sp_trace::codec::digest(&base),
                sp_trace::codec::digest(&again),
                "{}: same spec must trace identically",
                kind.name()
            );
            let reseeded = WorkloadBuilder::new(kind)
                .tier(ScaleTier::Tiny)
                .seed(0xFEED)
                .trace();
            assert_ne!(
                sp_trace::codec::digest(&base),
                sp_trace::codec::digest(&reseeded),
                "{}: the seed override must reach the layout",
                kind.name()
            );
        }
    }

    /// Every builder kernel's trace, pinned by its codec digest at both
    /// tiers: a change to any `build` that moves one address, site or
    /// compute count fails here.
    #[test]
    fn trace_digests_are_pinned() {
        const PINNED: [(KernelKind, u64, u64); 10] = [
            (
                KernelKind::Em3d,
                0x45c4_bb82_43e0_f09d,
                0xf8ce_455c_22cb_f540,
            ),
            (
                KernelKind::Mcf,
                0x329a_8c39_e6b1_be18,
                0x9c6c_212a_d053_523e,
            ),
            (
                KernelKind::Mst,
                0x11d4_9aa4_6981_ad08,
                0x463b_a4a2_2612_294d,
            ),
            (
                KernelKind::TreeAdd,
                0x5a3e_fc0c_9432_2c4b,
                0x9669_d9c5_5f98_e6a6,
            ),
            (
                KernelKind::Health,
                0xd078_110d_774a_2d2d,
                0xdc25_e258_f37c_b0aa,
            ),
            (
                KernelKind::Matmul,
                0x5251_d857_e8d8_b645,
                0x78b8_d9f6_cbdd_debd,
            ),
            (
                KernelKind::HashJoin,
                0xc750_df18_c2d7_8a01,
                0x1495_257c_253c_38ec,
            ),
            (
                KernelKind::Bfs,
                0xbb2c_10a3_398d_cdd6,
                0x24e1_5631_efd9_3719,
            ),
            (
                KernelKind::SkipList,
                0xec1c_df88_f5f3_ca0f,
                0x0f75_29aa_e6db_38ba,
            ),
            (
                KernelKind::BTree,
                0xaab6_6ecf_014d_9cbd,
                0xc778_600c_3c6f_eb55,
            ),
        ];
        assert_eq!(PINNED.map(|(k, _, _)| k), KernelKind::ALL);
        for (kind, tiny, scaled) in PINNED {
            for (spec, want) in [
                (KernelSpec::tiny(kind), tiny),
                (KernelSpec::scaled(kind), scaled),
            ] {
                let got = sp_trace::codec::digest(&spec.trace());
                assert_eq!(got, want, "{} {:?}: {got:#018x}", kind.name(), spec.tier);
            }
        }
    }

    #[test]
    fn trio_and_candidate_mappings_agree() {
        for b in Benchmark::ALL {
            assert_eq!(KernelKind::from_benchmark(b).benchmark(), Some(b));
        }
        for c in Candidate::ALL {
            assert_eq!(KernelKind::from_candidate(c).name(), c.name());
        }
        assert!(KernelKind::HashJoin.is_lds());
        assert!(!KernelKind::Em3d.is_lds());
    }
}
