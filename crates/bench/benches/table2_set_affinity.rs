//! Table 2 — benchmark characteristics.
//!
//! Prints the regenerated table (full-stream and burst-sampled Set
//! Affinity ranges, distance bounds, CALR/RP), then times the Fig. 3
//! Set Affinity analysis itself on each workload's hot-loop trace.

use sp_bench::experiments::table2;
use sp_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sp_cachesim::CacheConfig;
use sp_core::original_set_affinity;
use sp_workloads::{Benchmark, Workload};

fn print_table2() {
    let cfg = CacheConfig::scaled_default();
    println!("\n== Table 2 (regenerated) ==");
    for r in table2(&cfg) {
        println!(
            "  {:5} iters={:7} SA_full={:?} SA_sampled={:?} bound={:?} CALR={:.3} RP={:.2}",
            r.benchmark, r.iterations, r.sa_range, r.sa_sampled, r.distance_bound, r.calr, r.rp
        );
    }
    println!("  paper: EM3D [40,360], MCF [3000,46000], MST [6300,10000]\n");
}

fn bench_set_affinity(c: &mut Criterion) {
    print_table2();
    let cfg = CacheConfig::scaled_default();
    let mut g = c.benchmark_group("table2/set_affinity_analysis");
    g.sample_size(10);
    for b in Benchmark::ALL {
        let trace = Workload::scaled(b).trace();
        g.bench_with_input(BenchmarkId::from_parameter(b.name()), &trace, |bench, t| {
            bench.iter(|| original_set_affinity(t, cfg.l2))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_set_affinity);
criterion_main!(benches);
