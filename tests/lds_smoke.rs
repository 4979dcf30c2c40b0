//! Satellite smoke suite for the LDS workload frontier: every
//! linked-data-structure kernel must run under every hardware-prefetcher
//! backend at tiny scale, the selected backend must actually issue
//! prefetches under its own entity class (and *only* its own class),
//! and the event fold must equal the simulator's counters exactly —
//! the same lossless-decomposition contract the original trio obeys.
//! CI runs this file release-mode as the `lds-smoke` step.

use sp_cachesim::stats::prefetch_class;
use sp_cachesim::{default_early_threshold, CacheConfig, Entity, HwBackend, SummarySink};
use sp_core::prelude::*;
use sp_workloads::{KernelKind, ScaleTier, WorkloadBuilder};

mod common;

/// The prefetch-class indices a backend is allowed to emit under.
fn active_classes(backend: HwBackend) -> Vec<usize> {
    let stream = prefetch_class(Entity::HwStream(0)).unwrap();
    let dpl = prefetch_class(Entity::HwDpl(0)).unwrap();
    let pchase = prefetch_class(Entity::HwPchase(0)).unwrap();
    let perceptron = prefetch_class(Entity::HwPerceptron(0)).unwrap();
    match backend {
        HwBackend::StreamerDpl => vec![stream, dpl],
        HwBackend::Streamer => vec![stream],
        HwBackend::Dpl => vec![dpl],
        HwBackend::PointerChase => vec![pchase],
        HwBackend::Perceptron => vec![perceptron],
    }
}

/// All hardware prefetch classes (everything except the helper's 0).
fn hw_classes() -> Vec<usize> {
    [
        Entity::HwStream(0),
        Entity::HwDpl(0),
        Entity::HwPchase(0),
        Entity::HwPerceptron(0),
    ]
    .iter()
    .map(|&e| prefetch_class(e).unwrap())
    .collect()
}

/// 4 LDS kernels x every backend: nonzero activity in the backend's own
/// class, zero in every other hardware class, and an exact event fold.
#[test]
fn every_lds_kernel_runs_under_every_backend() {
    for kind in KernelKind::LDS {
        let trace = WorkloadBuilder::new(kind).tier(ScaleTier::Tiny).trace();
        for backend in HwBackend::ALL {
            let cfg = CacheConfig::scaled_default().with_hw_backend(backend);
            let ct = compile_trace(&trace, &cfg);
            let mut params = SpParams::from_distance_rp(8, 0.5);
            let opts = EngineOptions::default();
            let plain = run(&ct, cfg, Some(&mut params), opts, &mut NullSink);
            let mut sink = SummarySink::new(default_early_threshold(&cfg.latency));
            let observed = run(&ct, cfg, Some(&mut params), opts, &mut sink);
            let ctx = format!("{} under {}", kind.name(), backend.name());

            // The sink must not perturb the simulation.
            assert_eq!(plain, observed, "{ctx}: sink changed the run");

            // Backend exclusivity: only the selected backend's class may
            // issue; every other hardware class must stay silent.
            let issued = &observed.stats.prefetches_issued;
            let active = active_classes(backend);
            let active_total: u64 = active.iter().map(|&c| issued[c]).sum();
            assert!(active_total > 0, "{ctx}: backend issued no prefetches");
            for c in hw_classes() {
                if !active.contains(&c) {
                    assert_eq!(issued[c], 0, "{ctx}: class {c} issued while inactive");
                }
            }

            // Events <-> counter self-check: the fold is lossless.
            let s = &sink.summary.counts;
            assert_eq!(s.issued, observed.stats.prefetches_issued, "{ctx}: issued");
            assert_eq!(
                s.first_uses, observed.stats.prefetches_useful,
                "{ctx}: first uses"
            );
            assert_eq!(
                s.pollution_stats(),
                observed.stats.pollution,
                "{ctx}: pollution"
            );
            let resolved = s.late + s.on_time + s.early;
            assert_eq!(
                resolved,
                s.first_uses.iter().sum::<u64>(),
                "{ctx}: timeliness must partition first uses"
            );
        }
    }
}

/// Building the same LDS kernel twice must produce byte-identical
/// traces — the builder is a pure function of (kind, tier, seed).
#[test]
fn lds_traces_are_byte_identical_across_builds() {
    for kind in KernelKind::LDS {
        let a = WorkloadBuilder::new(kind).tier(ScaleTier::Tiny).trace();
        let b = WorkloadBuilder::new(kind).tier(ScaleTier::Tiny).trace();
        assert_eq!(
            sp_trace::codec::digest(&a),
            sp_trace::codec::digest(&b),
            "{}: tiny trace digest unstable",
            kind.name()
        );
        // A different seed must actually change the workload — the
        // digest would hide a builder that ignores its seed.
        let c = WorkloadBuilder::new(kind)
            .tier(ScaleTier::Tiny)
            .seed(99)
            .trace();
        assert_ne!(
            sp_trace::codec::digest(&a),
            sp_trace::codec::digest(&c),
            "{}: seed is ignored",
            kind.name()
        );
    }
}

/// The affinity pipeline (set-affinity report, distance bound) applies
/// to the LDS kernels unchanged: each tiny-scale kernel overflows the
/// scaled L2 enough to produce a finite bound.
#[test]
fn lds_kernels_flow_through_the_affinity_pipeline() {
    let cfg = CacheConfig::scaled_default();
    for kind in KernelKind::LDS {
        let trace = WorkloadBuilder::new(kind).tier(ScaleTier::Tiny).trace();
        let rec = recommend_distance(&trace, &cfg);
        let bound = rec.max_distance;
        let d = controlled_distance(64, &rec).max(1);
        let sp = common::sp(&trace, cfg, SpParams::from_distance_rp(d, 0.5));
        assert!(
            sp.stats.main.memory_accesses() > 0,
            "{}: empty run (bound {bound:?})",
            kind.name()
        );
    }
}
