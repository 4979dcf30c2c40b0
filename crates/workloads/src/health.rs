//! Health (Olden) — Colombian health-care simulation over a 4-ary
//! village hierarchy.
//!
//! Another member of the Olden suite the paper screened (§IV.B). Each
//! village holds linked lists of patients; every simulation step walks
//! the village tree post-order, processes each village's waiting list,
//! and transfers a fraction of patients up the hierarchy. The reference
//! pattern is a tree chase (village headers) interleaved with scattered
//! patient-record loads — heavily irregular, and memory-bound once the
//! patient pool outgrows the L2, so the selection screen accepts it.
//!
//! One outer hot-loop iteration = one village visit in one simulation
//! step (the body of Olden's `sim` loop).

use crate::arena::Arena;
use sp_trace::SmallRng;
use sp_trace::{HotLoopTrace, MemRef, TraceSink, VAddr};
use std::collections::VecDeque;

/// Reference-site ids used in Health traces.
pub mod sites {
    use sp_trace::SiteId;
    /// Village header dereference (tree chase, backbone).
    pub const VILLAGE: SiteId = SiteId(0);
    /// Patient-record load while walking the waiting list.
    pub const PATIENT: SiteId = SiteId(1);
    /// Transfer: store to the parent village's list head.
    pub const TRANSFER: SiteId = SiteId(2);
}

/// Health build parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Depth of the 4-ary village tree (villages = (4^levels - 1) / 3).
    pub levels: u32,
    /// Simulation steps.
    pub steps: usize,
    /// New patients arriving per leaf village per step.
    pub arrivals_per_leaf: usize,
    /// One-in-N chance a processed patient transfers to the parent.
    pub transfer_one_in: usize,
    /// RNG seed (layout and patient routing).
    pub seed: u64,
    /// Computation cycles per processed patient.
    pub compute_per_patient: u64,
}

impl HealthConfig {
    /// Default scaled input: 341 villages, 60 steps.
    pub fn scaled() -> Self {
        HealthConfig {
            levels: 5,
            steps: 60,
            arrivals_per_leaf: 2,
            transfer_one_in: 4,
            seed: 0x4EA1,
            compute_per_patient: 3,
        }
    }

    /// A small input for fast tests.
    pub fn tiny() -> Self {
        HealthConfig {
            levels: 3,
            steps: 8,
            ..Self::scaled()
        }
    }

    /// Villages in the tree.
    pub fn villages(&self) -> usize {
        ((4usize.pow(self.levels)) - 1) / 3
    }
}

/// A built Health instance.
#[derive(Debug, Clone)]
pub struct Health {
    cfg: HealthConfig,
    /// Simulated address of each village header (level order).
    village_addr: Vec<VAddr>,
    /// Parent index per village (root points to itself).
    parent: Vec<u32>,
    /// Base address of the global patient pool.
    patient_base: VAddr,
}

/// Size of one simulated patient record, bytes.
const PATIENT_BYTES: u64 = 64;

impl Health {
    /// Build the village hierarchy.
    pub fn build(cfg: HealthConfig) -> Self {
        assert!((1..=9).contains(&cfg.levels), "levels must be in [1, 9]");
        assert!(cfg.transfer_one_in >= 1);
        let n = cfg.villages();
        let mut arena = Arena::fragmented(0x2000_0000, 128, cfg.seed);
        let village_addr: Vec<VAddr> = (0..n).map(|_| arena.alloc(64, 64)).collect();
        // Level-order 4-ary: children of i are 4i+1..4i+4.
        let parent = (0..n as u32)
            .map(|i| if i == 0 { 0 } else { (i - 1) / 4 })
            .collect();
        let patient_base = arena.alloc_array(
            (cfg.steps * cfg.arrivals_per_leaf * n + 1) as u64,
            PATIENT_BYTES,
            64,
        );
        Health {
            cfg,
            village_addr,
            parent,
            patient_base,
        }
    }

    /// This instance's configuration.
    pub fn config(&self) -> HealthConfig {
        self.cfg
    }

    /// Villages in the hierarchy.
    pub fn villages(&self) -> usize {
        self.village_addr.len()
    }

    /// `true` if village `v` is a leaf.
    pub fn is_leaf(&self, v: usize) -> bool {
        4 * v + 1 >= self.villages()
    }

    /// Outer-hot-loop iterations: villages x steps.
    pub fn hot_iterations(&self) -> usize {
        self.villages() * self.cfg.steps
    }

    /// Run the simulation, pushing the hot loop's reference stream into
    /// `s`, one village visit per outer iteration. Each processed patient
    /// is one `PATIENT` load.
    pub fn emit(&self, s: &mut impl TraceSink) {
        let cfg = self.cfg;
        let n = self.villages();
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x51);
        let mut waiting: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut next_patient = 0u64;
        for _ in 0..cfg.steps {
            // New arrivals at the leaves.
            for (v, queue) in waiting.iter_mut().enumerate() {
                if 4 * v + 1 >= n {
                    for _ in 0..cfg.arrivals_per_leaf {
                        queue.push_back(next_patient);
                        next_patient += 1;
                    }
                }
            }
            // Post-order visit = reverse level order for a complete tree.
            for v in (0..n).rev() {
                s.backbone(MemRef::load(self.village_addr[v], sites::VILLAGE));
                let count = waiting[v].len();
                let mut transfers = Vec::new();
                for _ in 0..count {
                    let p = waiting[v].pop_front().expect("counted");
                    s.inner(MemRef::load(
                        self.patient_base + p * PATIENT_BYTES,
                        sites::PATIENT,
                    ));
                    if v != 0 && rng.gen_range(0..cfg.transfer_one_in) == 0 {
                        // Escalate to the parent village.
                        s.inner(MemRef::store(
                            self.village_addr[self.parent[v] as usize] + 8,
                            sites::TRANSFER,
                        ));
                        transfers.push(p);
                    }
                }
                for p in transfers {
                    waiting[self.parent[v] as usize].push_back(p);
                }
                s.end_iter(cfg.compute_per_patient * count as u64);
            }
        }
    }

    /// The stream of [`emit`](Self::emit), stored as a trace.
    pub fn trace(&self) -> HotLoopTrace {
        HotLoopTrace::record(
            "health::sim",
            &["village->next", "patient->hosts", "parent list (store)"],
            |s| self.emit(s),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Patients processed over the run: one `PATIENT` load each.
    fn processed(t: &HotLoopTrace) -> usize {
        t.tagged_refs()
            .filter(|(_, r)| r.site == sites::PATIENT)
            .count()
    }

    #[test]
    fn village_count_matches_levels() {
        assert_eq!(
            HealthConfig {
                levels: 1,
                ..HealthConfig::tiny()
            }
            .villages(),
            1
        );
        assert_eq!(
            HealthConfig {
                levels: 3,
                ..HealthConfig::tiny()
            }
            .villages(),
            21
        );
        assert_eq!(HealthConfig::scaled().villages(), 341);
    }

    #[test]
    fn trace_has_one_iteration_per_village_visit() {
        let h = Health::build(HealthConfig::tiny());
        let t = h.trace();
        assert_eq!(t.outer_iters(), h.hot_iterations());
        for it in t.iters.iter() {
            assert_eq!(it.backbone().len(), 1, "one village-header chase per visit");
        }
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = Health::build(HealthConfig::tiny());
        let b = Health::build(HealthConfig::tiny());
        assert_eq!(a.trace(), b.trace());
        assert!(processed(&a.trace()) > 0);
    }

    #[test]
    fn patients_flow_toward_the_root() {
        let h = Health::build(HealthConfig::tiny());
        let t = h.trace();
        // The root (village 0) is visited last each step; by the end of
        // the run it must have processed transferred patients, i.e. some
        // root iterations have patient loads.
        let n = h.villages();
        let mut saw_root_patient = false;
        for (i, it) in t.iters.iter().enumerate() {
            let village_visited = n - 1 - (i % n); // reverse level order
            if village_visited == 0 && it.inner().any(|r| r.site == sites::PATIENT) {
                saw_root_patient = true;
            }
        }
        assert!(saw_root_patient, "patients must reach the root");
    }

    #[test]
    fn patient_loads_stay_in_the_pool() {
        let h = Health::build(HealthConfig::tiny());
        let t = h.trace();
        let lo = h.patient_base;
        for (_, r) in t.tagged_refs().filter(|(_, r)| r.site == sites::PATIENT) {
            assert!(r.vaddr >= lo, "patient load below the pool");
        }
    }

    #[test]
    fn conserved_patients_processed_at_least_arrivals() {
        let h = Health::build(HealthConfig::tiny());
        let processed = processed(&h.trace());
        let leaves = (0..h.villages()).filter(|&v| h.is_leaf(v)).count();
        let arrivals = leaves * h.cfg.arrivals_per_leaf * h.cfg.steps;
        // Every arrival is processed at least once (the step it arrives).
        assert!(processed >= arrivals, "{processed} < {arrivals}");
    }

    #[test]
    #[should_panic(expected = "levels must be")]
    fn zero_levels_rejected() {
        let _ = Health::build(HealthConfig {
            levels: 0,
            ..HealthConfig::tiny()
        });
    }
}
