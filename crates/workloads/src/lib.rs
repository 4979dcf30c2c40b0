//! # sp-workloads
//!
//! The paper's three memory-intensive benchmarks, implemented from
//! scratch: **EM3D** and **MST** from the Olden suite and the **MCF**
//! pricing kernel from SPEC CPU2006 (see `DESIGN.md` §2 for the
//! substitution argument). Each workload builds its data structures over
//! a simulated heap ([`arena::Arena`]) and emits the reference stream of
//! its hot loop as a [`sp_trace::HotLoopTrace`]; nothing runs the kernels
//! on real data.
//!
//! [`Workload`] is the uniform handle the experiment harness uses;
//! [`builder::WorkloadBuilder`] is the declarative construction layer
//! behind it, which also covers the §IV.B screening candidates and the
//! LDS workload frontier (hash join, BFS, skip list, B-tree).

#![forbid(unsafe_code)]

pub mod arena;
pub mod bfs;
pub mod btree;
pub mod builder;
pub mod em3d;
pub mod hashjoin;
pub mod health;
pub mod matmul;
pub mod mcf;
pub mod mst;
pub mod skiplist;
pub mod treeadd;

pub use arena::Arena;
pub use bfs::{Bfs, BfsConfig};
pub use btree::{BTree, BTreeConfig};
pub use builder::{BuiltKernel, KernelKind, KernelSpec, ScaleTier, WorkloadBuilder};
pub use em3d::{Em3d, Em3dConfig};
pub use hashjoin::{HashJoin, HashJoinConfig};
pub use health::{Health, HealthConfig};
pub use matmul::{Matmul, MatmulConfig};
pub use mcf::{Mcf, McfConfig};
pub use mst::{Mst, MstConfig};
pub use skiplist::{SkipList, SkipListConfig};
pub use treeadd::{TreeAdd, TreeAddConfig};

use sp_trace::HotLoopTrace;

/// Which benchmark, for harness plumbing and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Olden EM3D (`compute_nodes`).
    Em3d,
    /// SPEC CPU2006 MCF (`primal_bea_mpp`).
    Mcf,
    /// Olden MST (`BlueRule`).
    Mst,
}

impl Benchmark {
    /// All three paper benchmarks, in the paper's order.
    pub const ALL: [Benchmark; 3] = [Benchmark::Em3d, Benchmark::Mcf, Benchmark::Mst];

    /// Display name as the paper spells it.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Em3d => "EM3D",
            Benchmark::Mcf => "MCF",
            Benchmark::Mst => "MST",
        }
    }
}

/// A built workload instance behind a uniform interface.
pub enum Workload {
    /// EM3D instance.
    Em3d(Em3d),
    /// MCF instance.
    Mcf(Mcf),
    /// MST instance.
    Mst(Mst),
}

impl Workload {
    /// Build a benchmark at the given scale tier via the builder layer.
    pub fn at(which: Benchmark, tier: ScaleTier) -> Workload {
        let spec = KernelSpec {
            kind: KernelKind::from_benchmark(which),
            tier,
            seed: None,
        };
        match spec.build() {
            BuiltKernel::Em3d(w) => Workload::Em3d(w),
            BuiltKernel::Mcf(w) => Workload::Mcf(w),
            BuiltKernel::Mst(w) => Workload::Mst(w),
            other => unreachable!("trio spec built {:?}", other.kind()),
        }
    }

    /// Build a benchmark at the default scaled size.
    pub fn scaled(which: Benchmark) -> Workload {
        Workload::at(which, ScaleTier::Scaled)
    }

    /// Build a benchmark at the fast test size.
    pub fn tiny(which: Benchmark) -> Workload {
        Workload::at(which, ScaleTier::Tiny)
    }

    /// Which benchmark this is.
    pub fn benchmark(&self) -> Benchmark {
        match self {
            Workload::Em3d(_) => Benchmark::Em3d,
            Workload::Mcf(_) => Benchmark::Mcf,
            Workload::Mst(_) => Benchmark::Mst,
        }
    }

    /// The hot loop's reference stream.
    pub fn trace(&self) -> HotLoopTrace {
        match self {
            Workload::Em3d(w) => w.trace(),
            Workload::Mcf(w) => w.trace(),
            Workload::Mst(w) => w.trace(),
        }
    }

    /// Outer-hot-loop iterations (paper Table 2, column 3).
    pub fn hot_iterations(&self) -> usize {
        match self {
            Workload::Em3d(w) => w.hot_iterations(),
            Workload::Mcf(w) => w.hot_iterations(),
            Workload::Mst(w) => w.hot_iterations(),
        }
    }

    /// The input description string for Table 2's second column.
    pub fn input_description(&self) -> String {
        match self {
            Workload::Em3d(w) => {
                let c = w.config();
                format!("{} nodes, arity {}", c.nodes, c.degree)
            }
            Workload::Mcf(w) => {
                let c = w.config();
                format!("{} arcs, {} nodes", c.arcs, c.nodes)
            }
            Workload::Mst(w) => format!("{} nodes", w.config().nodes),
        }
    }
}

/// A benchmark-selection candidate (paper §IV.B: the authors screened
/// the full SPEC2006 + Olden suites and kept the L2-miss-dominated
/// applications). This wider enum covers the paper's three selections
/// plus representatives of the screened-out space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Candidate {
    /// Olden EM3D (selected by the paper).
    Em3d,
    /// SPEC2006 MCF (selected by the paper).
    Mcf,
    /// Olden MST (selected by the paper).
    Mst,
    /// Olden TreeAdd (screened; memory-bound once the tree outgrows L2).
    TreeAdd,
    /// Olden Health (screened; irregular patient-list walks).
    Health,
    /// Blocked dense matmul (screened; compute-bound, gets rejected).
    Matmul,
}

impl Candidate {
    /// Every candidate, selections first.
    pub const ALL: [Candidate; 6] = [
        Candidate::Em3d,
        Candidate::Mcf,
        Candidate::Mst,
        Candidate::TreeAdd,
        Candidate::Health,
        Candidate::Matmul,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Candidate::Em3d => "EM3D",
            Candidate::Mcf => "MCF",
            Candidate::Mst => "MST",
            Candidate::TreeAdd => "TreeAdd",
            Candidate::Health => "Health",
            Candidate::Matmul => "MatMul",
        }
    }

    /// `true` for the three benchmarks the paper selected.
    pub fn selected_by_paper(self) -> bool {
        matches!(self, Candidate::Em3d | Candidate::Mcf | Candidate::Mst)
    }

    /// The kernel this candidate maps to in the builder layer.
    pub fn kind(self) -> KernelKind {
        KernelKind::from_candidate(self)
    }

    /// The hot-loop trace at the given scale tier.
    pub fn trace_at(self, tier: ScaleTier) -> HotLoopTrace {
        KernelSpec {
            kind: self.kind(),
            tier,
            seed: None,
        }
        .trace()
    }

    /// The hot-loop trace at the default scaled size.
    pub fn trace_scaled(self) -> HotLoopTrace {
        self.trace_at(ScaleTier::Scaled)
    }

    /// The hot-loop trace at the fast test size.
    pub fn trace_tiny(self) -> HotLoopTrace {
        self.trace_at(ScaleTier::Tiny)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_candidates_trace_at_tiny_size() {
        for c in Candidate::ALL {
            let t = c.trace_tiny();
            assert!(t.total_refs() > 0, "{}", c.name());
        }
        assert!(Candidate::Em3d.selected_by_paper());
        assert!(!Candidate::Matmul.selected_by_paper());
    }

    #[test]
    fn all_benchmarks_build_and_trace_at_tiny_size() {
        for b in Benchmark::ALL {
            let w = Workload::tiny(b);
            assert_eq!(w.benchmark(), b);
            let t = w.trace();
            assert_eq!(t.outer_iters(), w.hot_iterations());
            assert!(t.total_refs() > 0);
            assert!(!w.input_description().is_empty());
        }
    }

    #[test]
    fn benchmark_names_match_paper() {
        assert_eq!(Benchmark::Em3d.name(), "EM3D");
        assert_eq!(Benchmark::Mcf.name(), "MCF");
        assert_eq!(Benchmark::Mst.name(), "MST");
    }
}
