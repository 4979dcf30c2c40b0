//! The events-off guarantee: with a sink whose `ENABLED` and
//! `DEMAND_TICKS` are both `false`, no emission site in the memory
//! system calls the sink at all. The sink below counts every call that
//! reaches it, and a Fig. 2 grid must leave the count at zero.
//!
//! The grid is chosen to reach every guarded site: tiny EM3D and MCF,
//! each on the scaled machine and on the small fig5 L2 (evictions, all
//! pollution cases, dead prefetches; EM3D there is what re-misses on a
//! prefetch victim while its refetch is still in flight), each with the
//! original run plus SP at both helper models (blocking loads and
//! fire-and-forget prefetches).

use sp_bench::{distances_for, FIG5_EPOCH_L2_KB, FIG5_EPOCH_L2_WAYS};
use sp_cachesim::{CacheConfig, CacheGeometry, Cycle, Entity, Event, EventSink, HitClass};
use sp_core::prelude::*;
use sp_core::{
    compile_trace, run_original_passes_compiled_ev, run_sp_with_compiled_ev, EngineOptions,
};
use sp_workloads::{Benchmark, Workload};

/// Disabled on both channels, but counts whatever still gets through.
#[derive(Default)]
struct CountingOffSink {
    calls: u64,
}

impl EventSink for CountingOffSink {
    const ENABLED: bool = false;

    fn emit(&mut self, _ev: Event) {
        self.calls += 1;
    }

    fn demand_tick(&mut self, _: Entity, _: HitClass, _: u32, _: usize, _: Cycle) {
        self.calls += 1;
    }
}

#[test]
fn disabled_sinks_are_never_called() {
    let mut small_l2 = CacheConfig::scaled_default();
    small_l2.l2 = CacheGeometry::new(
        FIG5_EPOCH_L2_KB * 1024,
        FIG5_EPOCH_L2_WAYS,
        small_l2.l2.line_size,
    );
    small_l2.validate();
    let mut sink = CountingOffSink::default();
    let mut pollution = 0;
    for b in [Benchmark::Em3d, Benchmark::Mcf] {
        for cfg in [CacheConfig::scaled_default(), small_l2] {
            let ct = compile_trace(&Workload::tiny(b).trace(), &cfg);
            run_original_passes_compiled_ev(&ct, cfg, 1, &mut sink).unwrap();
            for blocking_helper in [true, false] {
                let opts = EngineOptions {
                    blocking_helper,
                    ..EngineOptions::default()
                };
                for &d in distances_for(b) {
                    let params = SpParams::from_distance_rp(d, 0.5);
                    let r = run_sp_with_compiled_ev(&ct, cfg, params, opts, &mut sink).unwrap();
                    pollution += r.stats.pollution.total();
                }
            }
        }
    }
    // The grid must exercise the displacement paths, or a zero count
    // would prove nothing about their guards.
    assert!(pollution > 0, "grid caused no pollution");
    assert_eq!(sink.calls, 0, "a disabled sink was called");
}
