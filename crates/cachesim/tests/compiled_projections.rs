//! A compiled trace stores only `vaddr`, `site` and `kind` per reference
//! and derives `block / set / tag` on every [`CompiledTrace::get`]. Those
//! derived projections must equal what [`MemorySystem::project`] computes
//! for the same reference, for every kernel and every geometry a trace
//! can be compiled for.

use sp_cachesim::{CacheConfig, CacheGeometry, HwBackend, MemorySystem};
use sp_trace::CompiledTrace;
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

#[test]
fn derived_projections_match_the_scalar_projection() {
    let machines = machines();
    for kind in KernelKind::ALL {
        let trace = KernelSpec::tiny(kind).build().trace();
        for (name, cfg) in &machines {
            let ct = CompiledTrace::compile(&trace, cfg.trace_geometry());
            let m = MemorySystem::new(*cfg);
            let mut n = 0;
            for (i, r) in trace.iters.iter().flat_map(|it| it.refs()).enumerate() {
                assert_eq!(
                    ct.get(i),
                    m.project(*r),
                    "{} on {name}: reference {i}",
                    kind.name()
                );
                n += 1;
            }
            assert_eq!(n, ct.total_refs(), "{} on {name}", kind.name());
        }
    }
}

#[test]
fn edge_geometries_are_what_they_claim() {
    let sets = |g: CacheGeometry| g.level_geometry().sets;
    let lines = |g: CacheGeometry| g.level_geometry().line_size;
    let m = machines();
    assert_eq!(sets(m[2].1.l1), 1);
    assert_eq!((lines(m[3].1.l1), lines(m[3].1.l2)), (32, 32));
    assert_eq!((lines(m[4].1.l1), lines(m[4].1.l2)), (128, 128));
    assert_eq!(sets(m[5].1.l2), 4096);
    for (_, cfg) in &m {
        cfg.validate();
    }
}
