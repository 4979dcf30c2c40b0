//! Golden-output tests: the Table 2 and Figure 2 artifacts at test
//! scale, compared **byte-for-byte** against checked-in fixture CSVs.
//!
//! The drivers are deterministic (fixed PRNG streams, pure simulations,
//! submission-order fan-out), so these pin the numbers themselves — a
//! change to any simulator constant, workload layout, or CSV formatting
//! shows up as a fixture diff, never as silent drift.
//!
//! To re-bless after an *intentional* change:
//!
//! ```text
//! SP_BLESS=1 cargo test -p sp-bench --test golden_outputs
//! ```

use sp_bench::experiments::{fig_behavior, table2, Scale};
use sp_bench::report::{csv_string, sweep_rows, table2_rows, SWEEP_HEADER, TABLE2_HEADER};
use sp_cachesim::CacheConfig;
use sp_workloads::Benchmark;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = fixture(name);
    if std::env::var_os("SP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with SP_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "{name} drifted from its fixture; if the change is intentional, \
         re-bless with SP_BLESS=1"
    );
}

#[test]
fn table2_rows_match_fixture() {
    let (rows, _) = table2(&CacheConfig::scaled_default(), Scale::Test, 1);
    check_golden(
        "table2_test_scale.csv",
        &csv_string(&TABLE2_HEADER, &table2_rows(&rows)),
    );
}

#[test]
fn fig2_rows_match_fixture() {
    let (series, _) = fig_behavior(
        Benchmark::Em3d,
        CacheConfig::scaled_default(),
        Scale::Test,
        1,
    );
    check_golden(
        "fig2_em3d_test_scale.csv",
        &csv_string(&SWEEP_HEADER, &sweep_rows(&series.sweep)),
    );
}

#[test]
fn fig5_mcf_rows_match_fixture() {
    let (series, _) = fig_behavior(
        Benchmark::Mcf,
        CacheConfig::scaled_default(),
        Scale::Test,
        1,
    );
    check_golden(
        "fig5_mcf_test_scale.csv",
        &csv_string(&SWEEP_HEADER, &sweep_rows(&series.sweep)),
    );
}

#[test]
fn fig6_mst_rows_match_fixture() {
    let (series, _) = fig_behavior(
        Benchmark::Mst,
        CacheConfig::scaled_default(),
        Scale::Test,
        1,
    );
    check_golden(
        "fig6_mst_test_scale.csv",
        &csv_string(&SWEEP_HEADER, &sweep_rows(&series.sweep)),
    );
}

/// The golden artifacts must be identical when produced by the parallel
/// path — the same property `tests/parallel_determinism.rs` checks on
/// raw results, asserted here at the final-CSV level.
#[test]
fn parallel_csv_bytes_equal_serial() {
    let cfg = CacheConfig::scaled_default();
    let em3d = |jobs| {
        let (series, _) = fig_behavior(Benchmark::Em3d, cfg, Scale::Test, jobs);
        csv_string(&SWEEP_HEADER, &sweep_rows(&series.sweep))
    };
    let serial = em3d(1);
    for jobs in [2, 4] {
        let par = em3d(jobs);
        assert_eq!(serial, par, "fig2 CSV at --jobs {jobs} diverged");
    }
    let t_serial = csv_string(
        &TABLE2_HEADER,
        &table2_rows(&table2(&cfg, Scale::Test, 1).0),
    );
    let t_par = csv_string(
        &TABLE2_HEADER,
        &table2_rows(&table2(&cfg, Scale::Test, 4).0),
    );
    assert_eq!(t_serial, t_par, "table2 CSV at --jobs 4 diverged");
}
