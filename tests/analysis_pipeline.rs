//! Cross-crate integration of the analysis toolchain: record/replay
//! (codec), reuse-distance, adaptive control, and benchmark selection
//! working together on real workloads.

use sp_prefetch::cachesim::{CacheConfig, CacheGeometry};
use sp_prefetch::core::prelude::*;
use sp_prefetch::core::{AdaptiveSchedule, FeedbackController};
use sp_prefetch::profiler::{miss_cycle_profile, reuse_histogram, select_benchmarks};
use sp_prefetch::trace::{load_trace, save_trace};
use sp_prefetch::workloads::{Benchmark, Candidate, Workload};

mod common;

fn cfg() -> CacheConfig {
    CacheConfig {
        l1: CacheGeometry::new(1024, 4, 64),
        l2: CacheGeometry::new(16 * 1024, 8, 64),
        ..CacheConfig::scaled_default()
    }
}

/// Record a workload trace, replay it from disk, and verify every
/// analysis produces identical results on the replayed copy.
#[test]
fn recorded_traces_replay_identically() {
    let dir = std::env::temp_dir().join("sp_analysis_pipeline_test");
    std::fs::create_dir_all(&dir).unwrap();
    for b in Benchmark::ALL {
        let original = Workload::tiny(b).trace();
        let path = dir.join(format!("{}.spt", b.name()));
        save_trace(&original, &path).unwrap();
        let replayed = load_trace(&path).unwrap();

        // Set Affinity identical.
        let c = cfg();
        assert_eq!(
            recommend_distance(&original, &c).affinity,
            recommend_distance(&replayed, &c).affinity,
            "{}: SA must survive record/replay",
            b.name()
        );
        // Reuse histogram identical.
        assert_eq!(
            reuse_histogram(&original, c.l2),
            reuse_histogram(&replayed, c.l2),
            "{}: reuse histogram must survive record/replay",
            b.name()
        );
        // Co-simulation identical.
        assert_eq!(
            common::original(&original, c),
            common::original(&replayed, c),
            "{}: simulation must survive record/replay",
            b.name()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Mattson's reuse histogram predicts the delinquent-ranking replay: the
/// total misses of `rank_delinquent_loads` equal `miss_count(ways)`.
#[test]
fn reuse_histogram_predicts_delinquent_replay() {
    let c = cfg();
    for b in Benchmark::ALL {
        let trace = Workload::tiny(b).trace();
        let h = reuse_histogram(&trace, c.l2);
        let ranked = sp_prefetch::profiler::rank_delinquent_loads(&trace, c.l2, c.policy);
        let ranked_misses: u64 = ranked.iter().map(|s| s.misses).sum();
        assert_eq!(
            h.miss_count(c.l2.ways),
            ranked_misses,
            "{}: two independent L2 models must agree",
            b.name()
        );
    }
}

/// The adaptive controller, clamped by the recommendation, never exceeds
/// the bound on a real workload and ends within [1, bound].
#[test]
fn adaptive_controller_respects_recommended_bound() {
    let c = cfg();
    let trace = Workload::tiny(Benchmark::Em3d).trace();
    let rec = recommend_distance(&trace, &c);
    let bound = rec.max_distance.expect("tiny EM3D overflows a 16KB L2");
    let ctl = FeedbackController::new(bound * 8, 0.5).bounded(bound);
    let mut schedule = AdaptiveSchedule::new(ctl, 32);
    let ct = compile_trace(&trace, &c);
    run(
        &ct,
        c,
        Some(&mut schedule),
        EngineOptions::default(),
        &mut NullSink,
    );
    for e in &schedule.into_epochs() {
        assert!(
            e.next_distance <= bound,
            "epoch {} chose {}",
            e.feedback.epoch,
            e.next_distance
        );
        assert!(e.next_distance >= 1);
    }
}

/// Selection at tiny scale still ranks the memory-bound LDS candidates
/// above the blocked matmul. (At tiny scale matmul's short trace is
/// cold-miss dominated, so only the *ordering* is asserted here; the
/// accept/reject verdicts are asserted at scaled size in `sp-bench`.)
#[test]
fn tiny_scale_selection_ranks_matmul_last() {
    let c = cfg();
    let candidates: Vec<(String, sp_prefetch::trace::HotLoopTrace)> = Candidate::ALL
        .iter()
        .map(|&x| (x.name().to_string(), x.trace_tiny()))
        .collect();
    let rows = select_benchmarks(&candidates, &c, 0.3);
    let matmul = rows.iter().find(|r| r.name == "MatMul").unwrap();
    let em3d = rows.iter().find(|r| r.name == "EM3D").unwrap();
    assert!(em3d.profile.miss_share() > matmul.profile.miss_share());
    assert_eq!(rows.last().unwrap().name, "MatMul", "matmul must rank last");
}

/// Miss-cycle attribution is conserved: total equals the sum of parts
/// for every candidate.
#[test]
fn miss_cycle_profile_conserves_cycles() {
    let c = cfg();
    for x in Candidate::ALL {
        let t = x.trace_tiny();
        let p = miss_cycle_profile(&t, &c);
        assert_eq!(
            p.total(),
            p.compute_cycles + p.l1_cycles + p.l2_hit_cycles + p.miss_cycles,
            "{}",
            x.name()
        );
    }
}
