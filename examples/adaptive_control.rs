//! Adaptive (feedback-directed) prefetch-distance control — the paper's
//! future-work direction, end to end.
//!
//! ```text
//! cargo run --release --example adaptive_control [-- <start-distance>]
//! ```
//!
//! Starts the FDP-style controller at a deliberately polluting distance
//! (8x the Set-Affinity bound by default) and shows it walking down to
//! the bound, then compares three policies: the paper's static bound,
//! the free dynamic controller, and the hybrid (dynamic clamped by the
//! bound).

use sp_prefetch::cachesim::CacheConfig;
use sp_prefetch::core::prelude::*;
use sp_prefetch::core::{AdaptiveSchedule, FeedbackController};
use sp_prefetch::workloads::{Benchmark, Workload};

fn main() {
    let cfg = CacheConfig::scaled_default();
    let w = Workload::scaled(Benchmark::Em3d);
    let trace = w.trace();
    let rec = recommend_distance(&trace, &cfg);
    let bound = rec.max_distance.expect("EM3D overflows");
    let start: u32 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("start distance must be a number"))
        .unwrap_or(bound * 8);
    println!("EM3D: Set-Affinity bound {bound}; controller starts at {start}\n");

    let ct = compile_trace(&trace, &cfg);
    let opts = EngineOptions::default();
    let baseline = run(&ct, cfg, None, opts, &mut NullSink);
    let norm = |rt| rt as f64 / baseline.runtime as f64;

    // The paper's static policy.
    let mut params = SpParams::from_distance_rp(bound / 2, 0.5);
    let static_run = run(&ct, cfg, Some(&mut params), opts, &mut NullSink);

    // An adaptive run: the outcome plus the controller's epoch log.
    let adaptive = |ctl: FeedbackController| {
        let mut schedule = AdaptiveSchedule::new(ctl, 128);
        let r = run(&ct, cfg, Some(&mut schedule), opts, &mut NullSink);
        (r, schedule.into_epochs())
    };
    // Free dynamic controller.
    let (free, free_epochs) = adaptive(FeedbackController::new(start, 0.5));
    // Hybrid: dynamic, clamped by the bound.
    let (hybrid, hybrid_epochs) = adaptive(FeedbackController::new(start, 0.5).bounded(bound));

    println!("epoch-by-epoch distance (free controller):");
    println!(
        "{:>6} {:>9} {:>10} {:>10} {:>10}",
        "epoch", "distance", "accuracy", "lateness", "pollution"
    );
    for e in free_epochs.iter().take(12) {
        println!(
            "{:>6} {:>9} {:>10.2} {:>10.2} {:>10.2}",
            e.feedback.epoch,
            e.feedback.params.a_ski,
            e.feedback.accuracy(),
            e.feedback.lateness(),
            e.feedback.pollution_rate()
        );
    }
    println!("  ...\n");
    println!("policy comparison (normalized runtime, lower is better):");
    println!("  static at bound/2:      {:.3}", norm(static_run.runtime));
    println!(
        "  dynamic (start {start}):   {:.3}  (settled at distance {})",
        norm(free.runtime),
        free_epochs.last().map(|e| e.next_distance).unwrap_or(start)
    );
    println!(
        "  dynamic + bound clamp:  {:.3}  (settled at distance {})",
        norm(hybrid.runtime),
        hybrid_epochs
            .last()
            .map(|e| e.next_distance)
            .unwrap_or(start)
    );
    println!("\nThe static Set-Affinity analysis is right from iteration one;");
    println!("the dynamic controller re-discovers the same distance but pays");
    println!("for the exploration. Clamping it with the bound removes the risk.");
}
