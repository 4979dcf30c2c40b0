//! Quickstart: the paper's whole pipeline on one workload, in ~40 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds EM3D, profiles its hot loop, derives the Set-Affinity prefetch
//! distance bound, and compares the original run against SP at an
//! in-bound and an out-of-bound distance.

use sp_prefetch::cachesim::CacheConfig;
use sp_prefetch::core::prelude::*;
use sp_prefetch::workloads::{Benchmark, Workload};

fn main() {
    // 1. Build the workload and record its hot loop's reference stream.
    let workload = Workload::scaled(Benchmark::Em3d);
    let trace = workload.trace();
    let cfg = CacheConfig::scaled_default();
    println!(
        "workload: {} ({})",
        workload.benchmark().name(),
        workload.input_description()
    );
    println!(
        "hot loop: {} outer iterations, {} references",
        trace.outer_iters(),
        trace.total_refs()
    );

    // 2. Set Affinity analysis (paper Fig. 3) -> prefetch distance bound.
    let rec = recommend_distance(&trace, &cfg);
    let bound = rec.max_distance.expect("EM3D overflows L2 sets");
    println!("Set Affinity range: {:?}", rec.affinity.range());
    println!("distance bound (min SA / 2): {bound}");

    // 3. Select RP from CALR (paper: CALR ~ 0 => RP ~ 0.5).
    let calr = estimate_calr(&trace, &cfg).calr;
    let rp = select_rp(calr);
    println!("CALR = {calr:.3} => RP = {rp:.2}");

    // 4. Run: original vs SP inside the bound vs SP far outside it, all
    //    replaying one compiled trace.
    let ct = compile_trace(&trace, &cfg);
    let opts = EngineOptions::default();
    let baseline = run(&ct, cfg, None, opts, &mut NullSink);
    println!(
        "\n{:>20} {:>12} {:>12} {:>12}",
        "", "runtime", "L2 misses", "pollution"
    );
    println!(
        "{:>20} {:>12} {:>12} {:>12}",
        "original",
        baseline.runtime,
        baseline.stats.main.total_misses,
        baseline.stats.pollution.total()
    );
    for (label, d) in [("SP (in bound)", bound / 2), ("SP (4x bound)", bound * 4)] {
        let mut params = SpParams::from_distance_rp(d, rp);
        let sp = run(&ct, cfg, Some(&mut params), opts, &mut NullSink);
        println!(
            "{:>20} {:>12} {:>12} {:>12}   ({:.2}x runtime, distance {})",
            label,
            sp.runtime,
            sp.stats.main.total_misses,
            sp.stats.pollution.total(),
            sp.runtime as f64 / baseline.runtime as f64,
            d
        );
    }
    println!("\nControlling the distance within the bound keeps the speedup and");
    println!("avoids the pollution that the oversized distance introduces.");
}
