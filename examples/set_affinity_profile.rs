//! Set Affinity profiling walkthrough — the paper's §IV methodology on
//! all three benchmarks.
//!
//! ```text
//! cargo run --release --example set_affinity_profile
//! ```
//!
//! For each workload: rank the delinquent loads
//! (the loads the helper thread should cover), burst-sample the stream,
//! and compare the sampled Set Affinity estimate with the full-stream
//! analysis and the paper's Table 2 ranges.

use sp_prefetch::cachesim::CacheConfig;
use sp_prefetch::core::{original_set_affinity, sampled_set_affinity};
use sp_prefetch::profiler::{rank_delinquent_loads, BurstSampler};
use sp_prefetch::workloads::{Benchmark, Workload};

fn main() {
    let cfg = CacheConfig::scaled_default();
    let paper = [
        ("EM3D", "[40, 360]"),
        ("MCF", "[3000, 46000]"),
        ("MST", "[6300, 10000]"),
    ];
    for (b, (_, paper_sa)) in Benchmark::ALL.into_iter().zip(paper) {
        let w = Workload::scaled(b);
        let trace = w.trace();
        println!("=== {} ({}) ===", b.name(), w.input_description());

        // Delinquent loads: which static sites miss the most.
        let ranked = rank_delinquent_loads(&trace, cfg.l2, cfg.policy);
        println!("  delinquent loads (L2 misses by site):");
        for s in ranked.iter().take(3) {
            let name = trace
                .site_names
                .get(s.site.0 as usize)
                .map(String::as_str)
                .unwrap_or("<anon>");
            println!(
                "    {:30} {:9} misses ({:5.1}% miss rate)",
                name,
                s.misses,
                100.0 * s.miss_rate()
            );
        }

        // Full-stream vs burst-sampled Set Affinity.
        let full = original_set_affinity(&trace, cfg.l2);
        let bursts = BurstSampler::new(1024, 1024).sample(&trace);
        let sampled = sampled_set_affinity(&bursts, cfg.l2);
        println!("  SA(L,Sx) full:    {:?}", full.range());
        println!(
            "  SA(L,Sx) sampled: {:?} (1024-iteration bursts, 50% duty)",
            sampled.range()
        );
        println!("  paper SA:         {paper_sa}");
        println!("  distance bound:   {:?}\n", full.distance_bound());
    }
}
