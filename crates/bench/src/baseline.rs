//! The tracked cachesim benchmark baseline behind `spt bench`.
//!
//! A pinned micro+macro suite measured in-process with repeated runs and
//! a median, so the numbers are comparable across commits:
//!
//! * `set_hammer` — a synthetic single-set conflict stream through
//!   [`run_original_passes`]: pure cache/replacement throughput, no
//!   prefetchers, no helper thread.
//! * `fig2_em3d_sweep` — the Figure 2 EM3D distance sweep at test scale,
//!   serial (`--jobs 1`): the full sweep hot path (compile + replay per
//!   grid point) as every figure driver runs it.
//! * `fig5_mcf_sweep` — the Figure 5 MCF distance sweep at test scale,
//!   serial: the acceptance benchmark of the hot-path overhaul.
//! * `lds` — the hash-join probe kernel on the pointer-chase backend at
//!   test scale, serial: pins the workload-builder and extension-backend
//!   paths into the same trajectory.
//! * `epoch_overhead` — the Figure 2 grid once more with the epoch
//!   flight recorder attached ([`crate::fig2_epochs_at`]): the
//!   enabled-recorder cost relative to `fig2_em3d_sweep`, kept in the
//!   same rolling-median gate so the recorder can't silently get more
//!   expensive. The recorder-*disabled* cost needs no suite of its
//!   own: the sink rides the `EventSink` generic the other suites
//!   already measure, compiled out entirely.
//!
//! Each entry reports median ns per simulated reference, the derived
//! refs/sec, the median per-run wall time, the number of `MemorySystem`
//! constructions per run (the allocations-per-run proxy — see
//! [`sp_cachesim::sim_build_count`]), and a per-stage wall-time
//! breakdown from one extra *traced* pass (the timed repetitions run
//! with span recording disabled, so refs/sec keeps measuring the
//! instrumented-but-disabled build the regression gate vouches for).
//! `spt bench` serializes the suite to `BENCH_cachesim.json`, the
//! repository's benchmark trajectory: the document's `entries` section
//! is the latest measurement (and what [`check_against`] reads), and
//! its `trajectory` section carries every prior committed measurement
//! forward as one point per line. CI re-runs the suite in smoke mode
//! and fails on a >20% refs/sec regression against the **rolling
//! median** of the last few committed trajectory points (not the single
//! newest point, whose own measurement noise would otherwise become the
//! gate).

use crate::experiments::{fig2_at, fig2_epochs_at, fig_behavior_at, lds_sweep_at, Scale};
use sp_cachesim::{sim_build_count, CacheConfig};
use sp_core::{run_original_passes, RunResult, Sweep};
use sp_trace::synth;
use sp_workloads::Benchmark;
use std::time::Instant;

/// One measured suite entry.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Suite name (one of [`SUITE_NAMES`]).
    pub suite: &'static str,
    /// Simulated references per run (demand accesses of every thread,
    /// summed over all grid points for the sweep suites). Identical
    /// pre/post optimization — the counters are bit-exact.
    pub refs: u64,
    /// Timed repetitions the median is taken over.
    pub runs: usize,
    /// Median wall time per simulated reference, nanoseconds.
    pub median_ns_per_ref: f64,
    /// `1e9 / median_ns_per_ref` — the regression-checked throughput.
    pub refs_per_sec: f64,
    /// Median wall time of one full run, milliseconds (for the sweep
    /// suites this is the sweep wall time at `--jobs 1`).
    pub wall_ms: f64,
    /// `MemorySystem` constructions per run (allocation proxy).
    pub sim_builds: u64,
    /// Per-stage `(name, total_us, spans)` wall-time breakdown of one
    /// extra traced pass, sorted by name (see
    /// [`sp_obs::span::stage_totals`]). Empty if the traced pass
    /// recorded nothing.
    pub spans: Vec<(&'static str, u64, u64)>,
}

/// Every suite the baseline runs, in order.
pub const SUITE_NAMES: [&str; 5] = [
    "set_hammer",
    "fig2_em3d_sweep",
    "fig5_mcf_sweep",
    "lds",
    "epoch_overhead",
];

/// Demand accesses simulated by one run (all threads, all grid points).
fn sweep_refs(s: &Sweep) -> u64 {
    let one = |r: &RunResult| r.stats.main.demand_accesses() + r.stats.helper.demand_accesses();
    one(&s.baseline) + s.points.iter().map(|p| one(&p.run)).sum::<u64>()
}

/// Time `f` over `runs` repetitions (after `warmup` untimed runs) and
/// fold the samples into a [`BenchEntry`]. `f` returns the number of
/// references the run simulated. At least one warmup always runs — it
/// establishes the per-run ref count, faults in the parked simulators,
/// and lets the host frequency settle before the timed repetitions.
fn measure(
    suite: &'static str,
    warmup: usize,
    runs: usize,
    mut f: impl FnMut() -> u64,
) -> BenchEntry {
    let refs = f(); // first warmup; also establishes the per-run ref count
    for _ in 1..warmup.max(1) {
        let got = f();
        assert_eq!(got, refs, "{suite}: runs must simulate identical work");
    }
    let builds_before = sim_build_count();
    let mut samples = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        let got = f();
        samples.push(t.elapsed().as_secs_f64());
        assert_eq!(got, refs, "{suite}: runs must simulate identical work");
    }
    let sim_builds = (sim_build_count() - builds_before) / runs as u64;
    // One extra pass with the span recorder on: the per-stage wall-time
    // breakdown. Kept out of the timed loop above so the median (and the
    // refs/sec regression gate) still measures the default
    // recording-disabled build.
    sp_obs::span::start_recording();
    let _ = f();
    let traced = sp_obs::span::drain();
    sp_obs::span::stop_recording();
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let median_ns_per_ref = median * 1e9 / refs.max(1) as f64;
    BenchEntry {
        suite,
        refs,
        runs,
        median_ns_per_ref,
        refs_per_sec: 1e9 / median_ns_per_ref.max(1e-9),
        wall_ms: median * 1e3,
        sim_builds,
        spans: sp_obs::span::stage_totals(&traced),
    }
}

/// Run the pinned suite. `smoke` keeps the workloads identical (so
/// refs/sec stays comparable to a full-mode baseline) but takes the
/// median over fewer repetitions.
pub fn run_baseline(smoke: bool) -> Vec<BenchEntry> {
    run_baseline_with(smoke, None, None)
}

/// [`run_baseline`] with explicit repetition counts: `runs` timed
/// repetitions (default 3 smoke / 9 full) after `warmup` untimed ones
/// (default 2). More warmup + more runs tightens the median on noisy
/// hosts — the bench-trajectory drift across committed points was run-
/// to-run machine noise, not hot-path change.
pub fn run_baseline_with(
    smoke: bool,
    runs: Option<usize>,
    warmup: Option<usize>,
) -> Vec<BenchEntry> {
    let runs = runs.unwrap_or(if smoke { 3 } else { 9 }).max(1);
    let warmup = warmup.unwrap_or(2);
    let cfg = CacheConfig::scaled_default();
    let hammer = synth::set_hammer(4096, 2, 0, cfg.l2.sets(), cfg.l2.line_size);
    vec![
        measure("set_hammer", warmup, runs, || {
            let r = run_original_passes(&hammer, cfg, 2);
            r.stats.main.demand_accesses()
        }),
        measure("fig2_em3d_sweep", warmup, runs, || {
            sweep_refs(&fig2_at(cfg, Scale::Test, 1).0)
        }),
        measure("fig5_mcf_sweep", warmup, runs, || {
            sweep_refs(&fig_behavior_at(Benchmark::Mcf, cfg, Scale::Test, 1).0.sweep)
        }),
        measure("lds", warmup, runs, || {
            sweep_refs(&lds_sweep_at(cfg, Scale::Test, 1).0)
        }),
        measure("epoch_overhead", warmup, runs, || {
            sweep_refs(&fig2_epochs_at(cfg, Scale::Test, 1).0)
        }),
    ]
}

/// One suite entry as a compact JSON object (no trailing newline).
fn entry_obj(e: &BenchEntry) -> String {
    let spans = e
        .spans
        .iter()
        .map(|(stage, total_us, count)| {
            format!("{{\"stage\":\"{stage}\",\"total_us\":{total_us},\"count\":{count}}}")
        })
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"suite\":\"{}\",\"refs\":{},\"runs\":{},\"median_ns_per_ref\":{:.3},\
         \"refs_per_sec\":{:.0},\"wall_ms\":{:.3},\"sim_builds\":{},\"spans\":[{spans}]}}",
        e.suite, e.refs, e.runs, e.median_ns_per_ref, e.refs_per_sec, e.wall_ms, e.sim_builds
    )
}

/// Serialize entries as the `BENCH_cachesim.json` document. The
/// `entries` section comes first — one entry per line, what
/// [`check_against`]'s line-wise parser reads (first occurrence wins) —
/// followed by a `trajectory` section: `prior` points carried forward
/// (use [`prior_trajectory`] on the previous document) plus this
/// measurement appended as the newest point, one point object per line.
pub fn bench_json(entries: &[BenchEntry], smoke: bool, prior: &[String]) -> String {
    let mode = if smoke { "smoke" } else { "full" };
    let mut out = String::from("{\n  \"schema\": \"sp-bench-cachesim-v2\",\n");
    out.push_str(&format!("  \"mode\": \"{mode}\",\n  \"entries\": [\n"));
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            entry_obj(e),
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"trajectory\": [\n");
    let current = format!(
        "{{\"point\":0,\"mode\":\"{mode}\",\"suites\":[{}]}}",
        entries.iter().map(entry_obj).collect::<Vec<_>>().join(",")
    );
    let points: Vec<&String> = prior.iter().chain(std::iter::once(&current)).collect();
    for (n, p) in points.iter().enumerate() {
        // Renumber sequentially: every point is `{"point":N,...}` by
        // construction, so splice in the position.
        let tail = p.find(',').map_or("}", |i| &p[i..]);
        out.push_str(&format!(
            "    {{\"point\":{n}{tail}{}\n",
            if n + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extract the trajectory points of an existing `BENCH_cachesim.json`
/// so [`bench_json`] can carry them forward. A v2 document contributes
/// its `trajectory` lines verbatim; a v1 document (flat entries, no
/// trajectory) contributes one synthesized point holding its entries.
/// Returns an empty vec for anything unrecognizable.
pub fn prior_trajectory(doc: &str) -> Vec<String> {
    let points: Vec<String> = doc
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"point\":"))
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .collect();
    if !points.is_empty() {
        return points;
    }
    // v1: entry objects sit one per line directly under "entries".
    let entries: Vec<String> = doc
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"suite\":"))
        .map(|l| l.trim().trim_end_matches(',').to_string())
        .collect();
    if entries.is_empty() {
        return Vec::new();
    }
    let mode = if doc.contains("\"mode\": \"smoke\"") {
        "smoke"
    } else {
        "full"
    };
    vec![format!(
        "{{\"point\":0,\"mode\":\"{mode}\",\"suites\":[{}]}}",
        entries.join(",")
    )]
}

/// Extract `(suite, refs_per_sec)` pairs from a `BENCH_cachesim.json`
/// document (the fixed format written by [`bench_json`]).
pub fn parse_refs_per_sec(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for chunk in json.split("\"suite\":\"").skip(1) {
        let Some(name_end) = chunk.find('"') else {
            continue;
        };
        let name = &chunk[..name_end];
        let Some(pos) = chunk.find("\"refs_per_sec\":") else {
            continue;
        };
        let rest = &chunk[pos + "\"refs_per_sec\":".len()..];
        let num: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+'))
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

/// Trajectory points a suite's rolling baseline is the median of.
pub const ROLLING_WINDOW: usize = 3;

/// Per-suite rolling baseline: each suite's **median refs/sec over the
/// last [`ROLLING_WINDOW`] trajectory points** of `doc` that measured
/// it. One outlier committed point (a loaded or thermally throttled
/// runner) then no longer becomes the sole reference the next check
/// regresses against — the drift across trajectory points 1→3 was
/// exactly that. Falls back to the entries section for documents with
/// no trajectory, and tolerates suites that only appear in recent
/// points (newly added suites contribute the points they have).
pub fn rolling_refs_per_sec(doc: &str) -> Vec<(String, f64)> {
    let points: Vec<&str> = doc
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"point\":"))
        .collect();
    let mut per_suite: Vec<(String, Vec<f64>)> = Vec::new();
    for p in points.iter().rev().take(ROLLING_WINDOW) {
        for (name, v) in parse_refs_per_sec(p) {
            match per_suite.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => per_suite.push((name, vec![v])),
            }
        }
    }
    if per_suite.is_empty() {
        return parse_refs_per_sec(doc);
    }
    per_suite
        .into_iter()
        .map(|(n, mut vs)| {
            vs.sort_by(f64::total_cmp);
            (n, vs[vs.len() / 2])
        })
        .collect()
}

/// Compare `current` against a committed baseline document: each
/// suite's refs/sec must stay within `tolerance` (a fraction, e.g. 0.2)
/// of its rolling trajectory median ([`rolling_refs_per_sec`]). Returns
/// one human-readable line per suite, or `Err` naming the first suite
/// that regressed.
pub fn check_against(
    baseline_json: &str,
    current: &[BenchEntry],
    tolerance: f64,
) -> Result<Vec<String>, String> {
    let baseline = rolling_refs_per_sec(baseline_json);
    if baseline.is_empty() {
        return Err("baseline contains no suite entries".into());
    }
    let mut lines = Vec::new();
    for e in current {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == e.suite) else {
            return Err(format!("baseline is missing suite {:?}", e.suite));
        };
        let ratio = e.refs_per_sec / base.max(1e-9);
        lines.push(format!(
            "{:<16} {:>12.0} refs/s vs baseline {:>12.0} ({:+.1}%)",
            e.suite,
            e.refs_per_sec,
            base,
            (ratio - 1.0) * 100.0
        ));
        if ratio < 1.0 - tolerance {
            return Err(format!(
                "{}: refs/sec regressed {:.1}% (current {:.0}, baseline {:.0}, tolerance {:.0}%)",
                e.suite,
                (1.0 - ratio) * 100.0,
                e.refs_per_sec,
                base,
                tolerance * 100.0
            ));
        }
    }
    Ok(lines)
}

/// Render the suite as an aligned text table.
pub fn render_entries(entries: &[BenchEntry]) -> String {
    let mut s = format!(
        "{:<16} {:>10} {:>6} {:>12} {:>14} {:>10} {:>11}\n",
        "suite", "refs/run", "runs", "ns/ref", "refs/sec", "wall ms", "sim builds"
    );
    for e in entries {
        s.push_str(&format!(
            "{:<16} {:>10} {:>6} {:>12.2} {:>14.0} {:>10.3} {:>11}\n",
            e.suite, e.refs, e.runs, e.median_ns_per_ref, e.refs_per_sec, e.wall_ms, e.sim_builds
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(suite: &'static str, rps: f64) -> BenchEntry {
        BenchEntry {
            suite,
            refs: 1000,
            runs: 3,
            median_ns_per_ref: 1e9 / rps,
            refs_per_sec: rps,
            wall_ms: 1.0,
            sim_builds: 1,
            spans: vec![("compile", 40, 1), ("simulate", 120, 6)],
        }
    }

    #[test]
    fn json_roundtrips_through_the_checker_parser() {
        let entries = vec![entry("set_hammer", 1e7), entry("fig2_em3d_sweep", 2e6)];
        let json = bench_json(&entries, false, &[]);
        assert!(json.contains("\"schema\": \"sp-bench-cachesim-v2\""));
        assert!(json.contains("\"mode\": \"full\""));
        assert!(
            json.contains("{\"stage\":\"simulate\",\"total_us\":120,\"count\":6}"),
            "{json}"
        );
        // Every suite appears twice (entries + the newest trajectory
        // point); the checker reads the first occurrence, the entries.
        let parsed = parse_refs_per_sec(&json);
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[0].0, "set_hammer");
        assert!((parsed[0].1 - 1e7).abs() < 1.0);
        assert!((parsed[1].1 - 2e6).abs() < 1.0);
    }

    #[test]
    fn trajectory_carries_prior_points_forward() {
        // A fresh document holds exactly one point.
        let first = bench_json(&[entry("set_hammer", 1e6)], false, &[]);
        assert!(first.contains("{\"point\":0,\"mode\":\"full\""), "{first}");
        assert_eq!(prior_trajectory(&first).len(), 1);

        // Re-benching on top of it appends point 1 and keeps point 0.
        let second = bench_json(&[entry("set_hammer", 2e6)], true, &prior_trajectory(&first));
        assert!(
            second.contains("{\"point\":0,\"mode\":\"full\""),
            "{second}"
        );
        assert!(
            second.contains("{\"point\":1,\"mode\":\"smoke\""),
            "{second}"
        );
        assert_eq!(prior_trajectory(&second).len(), 2);

        // The checker still reads the newest measurement: the entries
        // section precedes the trajectory, and first occurrence wins.
        let check = check_against(&second, &[entry("set_hammer", 2e6)], 0.01).unwrap();
        assert!(check[0].contains("+0.0%"), "{check:?}");

        // A v1 document (flat entries, no trajectory) synthesizes its
        // single point from the entry lines.
        let v1 = "{\n  \"schema\": \"sp-bench-cachesim-v1\",\n  \"mode\": \"full\",\n  \
                  \"entries\": [\n    {\"suite\":\"set_hammer\",\"refs\":10,\"runs\":3,\
                  \"median_ns_per_ref\":1.000,\"refs_per_sec\":1000000000,\"wall_ms\":0.001,\
                  \"sim_builds\":1}\n  ]\n}\n";
        let synth = prior_trajectory(v1);
        assert_eq!(synth.len(), 1);
        assert!(
            synth[0].starts_with(
                "{\"point\":0,\"mode\":\"full\",\"suites\":[{\"suite\":\"set_hammer\""
            ),
            "{synth:?}"
        );
        assert!(prior_trajectory("{}").is_empty());
    }

    #[test]
    fn smoke_suite_runs_and_serializes() {
        let entries = run_baseline(true);
        assert_eq!(entries.len(), SUITE_NAMES.len());
        for (e, want) in entries.iter().zip(SUITE_NAMES) {
            assert_eq!(e.suite, want);
            assert!(e.refs > 0 && e.refs_per_sec > 0.0, "{e:?}");
            // The extra traced pass sees the whole pipeline: every suite
            // compiles its trace and replays it.
            let stages: Vec<&str> = e.spans.iter().map(|(n, _, _)| *n).collect();
            assert!(stages.contains(&"compile"), "{e:?}");
            assert!(stages.contains(&"simulate"), "{e:?}");
        }
        let json = bench_json(&entries, true, &[]);
        assert_eq!(parse_refs_per_sec(&json).len(), 2 * SUITE_NAMES.len());
        assert!(check_against(&json, &entries, 0.99).is_ok());
        assert!(!render_entries(&entries).is_empty());
    }
}
