//! Beyond the paper's trio: the SP pipeline applies unchanged to the
//! screened-in extension workloads (TreeAdd, Health) — the API is not
//! specialized to the three evaluated benchmarks.

use sp_prefetch::cachesim::{CacheConfig, CacheGeometry};
use sp_prefetch::core::prelude::*;
use sp_prefetch::workloads::{Health, HealthConfig, TreeAdd, TreeAddConfig};

mod common;

fn cfg() -> CacheConfig {
    CacheConfig {
        l1: CacheGeometry::new(1024, 4, 64),
        l2: CacheGeometry::new(16 * 1024, 8, 64),
        ..CacheConfig::scaled_default()
    }
}

#[test]
fn treeadd_benefits_from_bounded_sp() {
    let tree = TreeAdd::build(TreeAddConfig {
        depth: 11,
        ..TreeAddConfig::tiny()
    });
    let trace = tree.trace();
    let rec = recommend_distance(&trace, &cfg());
    let bound = rec
        .max_distance
        .expect("2047-node tree overflows a 16KB L2");
    let base = common::original(&trace, cfg());
    let sp = common::sp(
        &trace,
        cfg(),
        SpParams::from_distance_rp((bound / 2).max(1), 0.5),
    );
    assert!(
        sp.runtime < base.runtime,
        "bounded SP must help TreeAdd: {} vs {}",
        sp.runtime,
        base.runtime
    );
    assert!(sp.stats.main.total_misses < base.stats.main.total_misses);
}

#[test]
fn health_benefits_from_bounded_sp() {
    let h = Health::build(HealthConfig {
        levels: 4,
        steps: 20,
        ..HealthConfig::tiny()
    });
    let trace = h.trace();
    let rec = recommend_distance(&trace, &cfg());
    let d = controlled_distance(16, &rec).max(1);
    let base = common::original(&trace, cfg());
    let sp = common::sp(&trace, cfg(), SpParams::from_distance_rp(d, 0.5));
    assert!(
        sp.stats.main.total_misses < base.stats.main.total_misses,
        "SP must cut Health's misses: {} vs {}",
        sp.stats.main.total_misses,
        base.stats.main.total_misses
    );
}

/// TreeAdd exposes the *other* regime of the paper's lateness/pollution
/// tradeoff: its single post-order traversal is a pure dependence chain,
/// so the helper is miss-bound at the same rate as the main thread and
/// physically cannot build a lead — prefetches arrive in flight (the
/// paper's "partially cache hits") instead of early, and pollution does
/// not grow with the configured distance. The distance bound is vacuous
/// here because the helper self-throttles.
#[test]
fn treeadd_is_lateness_bound_not_pollution_bound() {
    let tree = TreeAdd::build(TreeAddConfig {
        depth: 11,
        ..TreeAddConfig::tiny()
    });
    let trace = tree.trace();
    let rec = recommend_distance(&trace, &cfg());
    let bound = rec.max_distance.unwrap();
    let inside = common::sp(&trace, cfg(), SpParams::from_distance_rp(bound / 2, 0.5));
    let outside = common::sp(&trace, cfg(), SpParams::from_distance_rp(bound * 8, 0.5));
    // Main-thread would-be misses are absorbed in flight...
    assert!(
        outside.stats.main.partial_hits > outside.stats.main.total_misses,
        "partial hits must dominate: {} vs {}",
        outside.stats.main.partial_hits,
        outside.stats.main.total_misses
    );
    // ...and the chain-bound helper never gets far enough ahead for an
    // oversized distance to pollute any worse than an in-bound one —
    // beyond a negligible startup transient.
    assert_eq!(
        outside.stats.pollution.total(),
        inside.stats.pollution.total(),
        "pollution must not grow with distance"
    );
    assert!(
        outside.stats.pollution.total() <= 2,
        "a self-throttling helper cannot meaningfully pollute: {}",
        outside.stats.pollution.total()
    );
}
