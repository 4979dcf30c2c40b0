//! Prefetch-distance sweep over any benchmark — Figures 2/4/5/6 from the
//! command line.
//!
//! ```text
//! cargo run --release --example distance_sweep -- [em3d|mcf|mst] [d1 d2 ...]
//! ```
//!
//! Runs the original program once, then SP (RP = 0.5) at each distance,
//! printing the normalized curves and marking the Set-Affinity bound.

use sp_prefetch::cachesim::CacheConfig;
use sp_prefetch::core::prelude::*;
use sp_prefetch::workloads::{Benchmark, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bench = match args.first().map(String::as_str) {
        None | Some("em3d") => Benchmark::Em3d,
        Some("mcf") => Benchmark::Mcf,
        Some("mst") => Benchmark::Mst,
        Some(other) => {
            eprintln!("unknown benchmark {other}; expected em3d|mcf|mst");
            std::process::exit(2);
        }
    };
    let mut distances: Vec<u32> = args
        .iter()
        .skip(1)
        .map(|a| a.parse().expect("distance must be a number"))
        .collect();

    let cfg = CacheConfig::scaled_default();
    let w = Workload::scaled(bench);
    let trace = w.trace();
    let rec = recommend_distance(&trace, &cfg);
    let bound = rec.max_distance.unwrap_or(u32::MAX);
    if distances.is_empty() {
        // Default grid bracketing the bound, half below, half above.
        distances = [bound / 8, bound / 4, bound / 2, bound, bound * 2, bound * 4]
            .into_iter()
            .filter(|&d| d >= 1)
            .collect();
        distances.dedup();
    }

    println!(
        "{}: SA range {:?}, distance bound {} (paper rule: < min SA / 2)",
        bench.name(),
        rec.affinity.range(),
        bound
    );
    let ct = std::sync::Arc::new(compile_trace(&trace, &cfg));
    let opts = EngineOptions::default();
    let (sweep, _, _) = sweep(&ct, cfg, 0.5, &distances, opts, 1, || NullSink, |_| ());
    println!(
        "\n{:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "distance", "runtime", "mem_acc", "misses", "dTH%", "dTM%", "dPH%", "pollution"
    );
    for p in &sweep.points {
        let marker = if p.distance <= bound { " " } else { "!" };
        println!(
            "{marker}{:>8} {:>9.3} {:>9.3} {:>9.3} {:>+8.2} {:>+8.2} {:>+8.2} {:>10}",
            p.distance,
            p.runtime_norm,
            p.memory_accesses_norm,
            p.hot_misses_norm,
            p.behavior.totally_hit_pct,
            p.behavior.totally_miss_pct,
            p.behavior.partially_hit_pct,
            p.pollution.stats.total()
        );
    }
    println!("\n('!' marks distances beyond the Set-Affinity bound)");
    if let Some(best) = sweep.best_distance() {
        println!("best distance in this sweep: {best}");
    }
}
