//! The events-off guarantee: with a sink whose `ENABLED`,
//! `DEMAND_TICKS` and `SNAPSHOTS` are all `false`, no emission or
//! snapshot site in the memory system calls the sink at all. The sink
//! below counts every call that reaches it, and a Fig. 2 grid must leave
//! the count at zero.
//!
//! The grid is chosen to reach every guarded site: tiny EM3D and MCF,
//! each on the scaled machine and on the small fig5 L2 (evictions, all
//! pollution cases, dead prefetches; EM3D there is what re-misses on a
//! prefetch victim while its refetch is still in flight), each with the
//! original run plus SP at both helper models (blocking loads and
//! fire-and-forget prefetches).

use sp_bench::{distances_for, FIG5_EPOCH_L2_KB, FIG5_EPOCH_L2_WAYS};
use sp_cachesim::{
    CacheConfig, CacheGeometry, Cycle, Entity, Event, EventSink, HitClass, Snapshot, SnapshotPlan,
};
use sp_core::prelude::*;
use sp_workloads::{Benchmark, Workload};
use std::cell::Cell;

/// Disabled on every channel, but counts whatever still gets through
/// (`snapshot_plan` takes `&self`, hence the `Cell`).
#[derive(Default)]
struct CountingOffSink {
    calls: Cell<u64>,
}

impl CountingOffSink {
    fn count(&self) {
        self.calls.set(self.calls.get() + 1);
    }
}

impl EventSink for CountingOffSink {
    const ENABLED: bool = false;

    fn emit(&mut self, _ev: Event) {
        self.count();
    }

    fn demand_tick(&mut self, _: Entity, _: HitClass, _: u32, _: usize, _: Cycle) {
        self.count();
    }

    fn snapshot_plan(&self) -> SnapshotPlan {
        self.count();
        // Were it read, this plan would snapshot on every access.
        SnapshotPlan {
            every: 1,
            early_threshold: 0,
        }
    }

    fn snapshot(&mut self, _: &Snapshot<'_>) {
        self.count();
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
            run(&ct, cfg, None, EngineOptions::default(), &mut sink);
            for blocking_helper in [true, false] {
                let opts = EngineOptions {
                    blocking_helper,
                    ..EngineOptions::default()
                };
                for &d in distances_for(b) {
                    let mut params = SpParams::from_distance_rp(d, 0.5);
                    let r = run(&ct, cfg, Some(&mut params), opts, &mut sink);
                    pollution += r.stats.pollution.total();
                }
            }
        }
    }
    // The grid must exercise the displacement paths, or a zero count
    // would prove nothing about their guards.
    assert!(pollution > 0, "grid caused no pollution");
    assert_eq!(sink.calls.get(), 0, "a disabled sink was called");
}
