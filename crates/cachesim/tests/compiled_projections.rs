//! A compiled trace stores only `vaddr`, `site` and `kind` per reference
//! and carries no cache geometry: [`CompiledTrace::get`] hands back the
//! trace's own [`MemRef`]s and [`MemorySystem`] projects them onto its
//! sets. So one compiled trace must replay as the trace itself on every
//! machine, for every kernel.

use sp_cachesim::{CacheConfig, CacheGeometry, Entity, HwBackend, MemStats, MemorySystem};
use sp_trace::{CompiledTrace, HotLoopTrace, MemRef};
use sp_workloads::{KernelKind, KernelSpec};

/// The two benchmark machines plus geometries at the edges of the
/// shift/mask arithmetic.
fn machines() -> Vec<(&'static str, CacheConfig)> {
    let scaled = CacheConfig::scaled_default();
    let with = |l1: CacheGeometry, l2: CacheGeometry| CacheConfig { l1, l2, ..scaled };
    let mut small_l2 = scaled.with_hw_backend(HwBackend::PointerChase);
    small_l2.l2 = CacheGeometry::new(8 * 1024, 4, 64);
    vec![
        ("scaled", scaled),
        ("8 KB L2 pointer-chase", small_l2),
        ("1-set L1", with(CacheGeometry::new(512, 8, 64), scaled.l2)),
        (
            "32 B lines",
            with(
                CacheGeometry::new(4 * 1024, 8, 32),
                CacheGeometry::new(256 * 1024, 16, 32),
            ),
        ),
        (
            "128 B lines",
            with(
                CacheGeometry::new(4 * 1024, 8, 128),
                CacheGeometry::new(256 * 1024, 16, 128),
            ),
        ),
        (
            "4096-set L2",
            with(scaled.l1, CacheGeometry::new(4 * 1024 * 1024, 16, 64)),
        ),
    ]
}

/// The engine's original (main-thread-only) replay done by hand: every
/// reference a blocking demand access, then the iteration's compute.
/// Returns the final clock and the counters.
fn hand_walk(trace: &HotLoopTrace, cfg: CacheConfig) -> (u64, MemStats) {
    let mut m = MemorySystem::new(cfg);
    let mut t = 0;
    for it in trace.iters.iter() {
        for r in it.refs() {
            t = m.demand_access(Entity::Main, r, t).complete_at;
        }
        t += it.compute_cycles();
    }
    (t, m.finish())
}

#[test]
fn compiled_replay_yields_the_trace_refs_on_every_machine() {
    let machines = machines();
    for kind in KernelKind::ALL {
        let trace = KernelSpec::tiny(kind).build().trace();
        let ct = CompiledTrace::compile(&trace);
        let walked: Vec<MemRef> = trace.iters.iter().flat_map(|it| it.refs()).collect();
        let replayed: Vec<MemRef> = (0..ct.total_refs()).map(|i| ct.get(i)).collect();
        assert_eq!(replayed, walked, "{}", kind.name());
        // One compiled trace serves every machine: the engine's replay
        // of it is the hand walk of the trace on each.
        for (name, cfg) in &machines {
            let opts = sp_core::EngineOptions::default();
            let run = sp_core::run(&ct, *cfg, None, opts, &mut sp_cachesim::NullSink);
            assert_eq!(
                (run.runtime, run.stats),
                hand_walk(&trace, *cfg),
                "{} on {name}",
                kind.name()
            );
        }
    }
}

#[test]
fn edge_geometries_are_what_they_claim() {
    let m = machines();
    assert_eq!(m[2].1.l1.sets(), 1);
    assert_eq!((m[3].1.l1.line_size, m[3].1.l2.line_size), (32, 32));
    assert_eq!((m[4].1.l1.line_size, m[4].1.l2.line_size), (128, 128));
    assert_eq!(m[5].1.l2.sets(), 4096);
    for (_, cfg) in &m {
        cfg.validate();
    }
}
