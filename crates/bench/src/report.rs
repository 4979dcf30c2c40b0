//! Plain-text table rendering, CSV output, the parallel-execution
//! summary for the `reproduce` binary, and the epoch-telemetry report
//! generators behind `spt report`.

use crate::experiments::{AdaptiveRow, HwPrefetcherRow, SamplingRow, SpRow, Table2Row};
use sp_cachesim::EpochSeries;
use sp_core::{PerPoint, RunnerReport, Sweep};
use std::io::Write;
use std::path::Path;

/// Render rows as an aligned text table. `header` and every row must
/// have the same number of columns.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (w, cell) in widths.iter_mut().zip(r) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(c);
            out.extend(std::iter::repeat_n(' ', w - c.len()));
        }
        // Trim trailing padding.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(
        &mut out,
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.extend(std::iter::repeat_n('-', rule));
    out.push('\n');
    for r in rows {
        line(&mut out, r);
    }
    out
}

/// Render rows as CSV text (naive quoting: fields containing commas or
/// quotes are double-quoted). The golden-output tests compare this
/// string byte-for-byte against checked-in fixtures, so it must stay
/// identical to what [`write_csv`] puts on disk.
pub fn csv_string(header: &[&str], rows: &[Vec<String>]) -> String {
    let quote = |s: &str| {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(
        &header
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in rows {
        out.push_str(&r.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Write `contents` to `path` atomically: the bytes go to a temp file
/// beside the target which is then renamed over it, so a crashed or
/// interrupted run can never leave a truncated artifact. Missing parent
/// directories are created. Every exported artifact — sweep CSVs,
/// epoch reports, event NDJSON streams — goes through here.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other(format!("{} has no file name", path.display())))?;
    let tmp = path.with_file_name(format!(
        ".{}.tmp-{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write = (|| {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        f.write_all(contents.as_bytes())?;
        f.flush()?;
        f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

/// Write rows as CSV ([`csv_string`]) through [`write_atomic`].
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    write_atomic(path, &csv_string(header, rows))
}

/// The CSV/table header every distance-sweep artifact (Figure 2 and
/// Figures 4–6) is reported under.
pub const SWEEP_HEADER: [&str; 9] = [
    "distance",
    "runtime_norm",
    "mem_accesses_norm",
    "hot_misses_norm",
    "d_totally_hit_pct",
    "d_totally_miss_pct",
    "d_partially_hit_pct",
    "pollution_events",
    "dead_prefetch_rate",
];

/// Format a sweep's points as [`SWEEP_HEADER`] rows — shared by the
/// `reproduce` binary and the golden-output tests so the fixtures pin
/// exactly what the binary writes.
pub fn sweep_rows(s: &Sweep) -> Vec<Vec<String>> {
    s.points
        .iter()
        .map(|p| {
            vec![
                p.distance.to_string(),
                format!("{:.4}", p.runtime_norm),
                format!("{:.4}", p.memory_accesses_norm),
                format!("{:.4}", p.hot_misses_norm),
                format!("{:.2}", p.behavior.totally_hit_pct),
                format!("{:.2}", p.behavior.totally_miss_pct),
                format!("{:.2}", p.behavior.partially_hit_pct),
                p.pollution.stats.total().to_string(),
                format!("{:.4}", p.pollution.dead_prefetch_rate),
            ]
        })
        .collect()
}

/// A Set Affinity range as the artifacts print it.
fn fmt_range(r: Option<(u32, u32)>) -> String {
    match r {
        Some((a, b)) => format!("[{a}, {b}]"),
        None => "(no overflow)".into(),
    }
}

/// An optional count, `-` when absent.
fn fmt_opt(v: Option<u32>) -> String {
    v.map(|d| d.to_string()).unwrap_or("-".into())
}

/// The CSV/table header Table 2 is reported under.
pub const TABLE2_HEADER: [&str; 9] = [
    "benchmark",
    "input (scaled)",
    "outer iters",
    "SA(L,Sx) full",
    "SA(L,Sx) sampled",
    "paper SA",
    "dist bound",
    "CALR",
    "RP",
];

/// The paper's published `SA(L, Sx)` range for a benchmark (Table 2,
/// column 4) — printed beside the measured one.
pub fn paper_sa_range(benchmark: &str) -> &'static str {
    match benchmark {
        "EM3D" => "[40, 360]",
        "MCF" => "[3000, 46000]",
        "MST" => "[6300, 10000]",
        _ => "-",
    }
}

/// Format Table 2 rows under [`TABLE2_HEADER`] — shared by the
/// `reproduce` binary and the golden-output tests so the fixtures pin
/// exactly what the binary writes.
pub fn table2_rows(rows: &[Table2Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                r.input.clone(),
                r.iterations.to_string(),
                fmt_range(r.sa_range),
                fmt_range(r.sa_sampled),
                paper_sa_range(r.benchmark).to_string(),
                fmt_opt(r.distance_bound),
                format!("{:.3}", r.calr),
                format!("{:.2}", r.rp),
            ]
        })
        .collect()
}

/// A typed artifact row that renders under a fixed CSV/table header —
/// how `reproduce ablations` prints and writes each ablation.
pub trait CsvRow {
    /// Column names.
    const HEADER: &'static [&'static str];
    /// This row's cells, one per [`Self::HEADER`] column.
    fn cells(&self) -> Vec<String>;
}

/// Implement [`CsvRow`] for `$ty` from `column => cell` pairs, where
/// each cell is an expression over the row `$r`.
macro_rules! csv_row {
    ($ty:ty, $r:ident => { $($column:literal => $cell:expr),+ $(,)? }) => {
        impl CsvRow for $ty {
            const HEADER: &'static [&'static str] = &[$($column),+];
            fn cells(&self) -> Vec<String> {
                let $r = self;
                vec![$($cell.to_string()),+]
            }
        }
    };
}

csv_row!(SpRow, r => {
    "variant" => r.variant,
    "A_SKI" => r.params.a_ski,
    "A_PRE" => r.params.a_pre,
    "runtime_norm" => format!("{:.3}", r.runtime_norm),
    "miss_norm" => format!("{:.3}", r.miss_norm),
    "pollution" => r.pollution,
    "partial_hits" => r.partial_hits,
    "hw_prefetches" => r.hw_prefetches,
    "helper_waits" => r.helper_waits,
    "helper_jumps" => r.helper_jumps,
});

csv_row!(HwPrefetcherRow, r => {
    "benchmark" => r.benchmark,
    "SA_orig" => fmt_range(r.sa_orig),
    "SA_helper" => fmt_range(r.sa_helper),
    "SA_helper*2 <= SA_orig" => r.sa_orig.zip(r.sa_helper).map_or("-", |(o, h)| {
        if h.0 * 2 <= o.0 { "yes" } else { "no" }
    }),
    "runtime_norm hw on" => format!("{:.3}", r.sp[0].runtime_norm),
    "runtime_norm hw off" => format!("{:.3}", r.sp[1].runtime_norm),
    "pollution hw on" => r.sp[0].pollution,
    "pollution hw off" => r.sp[1].pollution,
    "hw prefetches" => r.sp[0].hw_prefetches,
});

csv_row!(SamplingRow, r => {
    "burst" => r.burst.map_or("full".into(), |b| b.to_string()),
    "duty" => format!("{:.2}", r.duty),
    "recorded_iters" => r.recorded_iters,
    "SA_est" => fmt_range(r.sa),
    "bound_est" => fmt_opt(r.bound),
});

csv_row!(AdaptiveRow, r => {
    "policy" => r.policy,
    "start" => fmt_opt(r.distances.first().copied()),
    "runtime_norm" => format!("{:.3}", r.runtime_norm),
    "final distance" => fmt_opt(r.distances.last().copied()),
    "peak distance" => fmt_opt(r.distances.iter().max().copied()),
    "trajectory (first 12 epochs)" => match &r.distances[..] {
        [] | [_] => "-".to_string(),
        [_, epochs @ ..] => epochs.iter().take(12).map(u32::to_string).collect::<Vec<_>>().join(" "),
    },
});

/// Summary of a fan-out (or a live pool snapshot): how wide it ran and
/// what it bought. `busy` is the serial-equivalent cost (sum of per-job
/// wall times), so `busy / wall` is the realized speedup. The second
/// line renders the queue depth and per-worker utilization the sp-serve
/// `stats` reply reports, so both surfaces share this one source of
/// truth.
pub fn render_runner_summary(r: &RunnerReport) -> String {
    let mut out = format!(
        "parallel execution: {} jobs on {} workers; wall {:.2}s, serial-equivalent {:.2}s, speedup {:.2}x",
        r.jobs,
        r.workers,
        r.wall.as_secs_f64(),
        r.busy.as_secs_f64(),
        r.speedup()
    );
    if !r.per_worker.is_empty() {
        out.push_str(&format!(
            "\n  queue depth {}; utilization {:.0}%; per-worker",
            r.queue_depth,
            r.utilization() * 100.0
        ));
        for (w, stat) in r.per_worker.iter().enumerate() {
            out.push_str(&format!(
                " w{w}:{}j/{:.2}s",
                stat.jobs,
                stat.busy.as_secs_f64()
            ));
        }
    }
    out
}

/// The eight bar glyphs [`sparkline`] renders with, lowest to highest.
const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Render `values` as a unicode sparkline, each value normalized to
/// the series maximum (an all-zero or empty series renders flat).
/// Purely arithmetic — the same series always renders the same string,
/// so report fixtures can pin it byte-for-byte.
pub fn sparkline(values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 {
                SPARK[0]
            } else {
                // Round-to-nearest level so v == max hits the top bar.
                let level = (v as u128 * (SPARK.len() as u128 - 1) + max as u128 / 2) / max as u128;
                SPARK[level as usize]
            }
        })
        .collect()
}

/// Five-level shade for the displacement heatmap: `·` is exactly zero,
/// then quartiles of the sweep-wide peak.
fn shade(v: u64, max: u64) -> char {
    const CELLS: [char; 4] = ['░', '▒', '▓', '█'];
    if v == 0 || max == 0 {
        '·'
    } else {
        let level = (v as u128 * CELLS.len() as u128).div_ceil(max as u128);
        CELLS[(level as usize).clamp(1, CELLS.len()) - 1]
    }
}

/// Header metadata for [`epoch_report_markdown`] — everything the
/// report states that isn't derivable from the sweep itself.
pub struct EpochReportMeta<'a> {
    /// Benchmark name as printed (`"MCF"`).
    pub bench: &'a str,
    /// Scale tier as printed (`"test"`, `"tiny"`, `"full"`).
    pub scale: &'a str,
    /// Helper trigger rate used for the sweep.
    pub rp: f64,
    /// The SA/2 prefetch-distance bound, when one was computed —
    /// distances past it are flagged `!` in the heatmap.
    pub bound: Option<u32>,
}

/// Encode a sweep's epoch series as NDJSON: the baseline run's windows
/// first (tagged `"distance":null`), then each swept distance's
/// windows in sweep order (tagged `"distance":D`). One window per
/// line, so the stream greps and folds without a JSON parser.
pub fn epoch_ndjson(sweep: &Sweep, epochs: &PerPoint<EpochSeries>) -> String {
    assert_eq!(
        sweep.points.len(),
        epochs.points.len(),
        "sweep and epoch series disagree on the distance grid"
    );
    let mut out = epochs.baseline.to_ndjson("\"distance\":null,");
    for (p, s) in sweep.points.iter().zip(&epochs.points) {
        out.push_str(&s.to_ndjson(&format!("\"distance\":{},", p.distance)));
    }
    out
}

/// One sparkline row of a series block: label, bars, and the numbers
/// the bars are normalized to.
fn spark_row(label: &str, values: &[u64]) -> String {
    let max = values.iter().copied().max().unwrap_or(0);
    let total: u64 = values.iter().sum();
    format!(
        "{label:<10} {}  max {max}/epoch, total {total}\n",
        sparkline(values)
    )
}

/// Render a sweep's epoch telemetry as a self-contained markdown
/// report: per-distance sparklines for the miss / displacement / late
/// series, then a distances-by-epochs heatmap of total displacement
/// events with the SA/2 bound annotated. No timestamps, no host state
/// — the same sweep always renders the same bytes, which is what lets
/// CI pin the fig5-MCF report as a golden fixture.
pub fn epoch_report_markdown(
    meta: &EpochReportMeta<'_>,
    sweep: &Sweep,
    epochs: &PerPoint<EpochSeries>,
) -> String {
    assert_eq!(
        sweep.points.len(),
        epochs.points.len(),
        "sweep and epoch series disagree on the distance grid"
    );
    let mut out = format!(
        "# Epoch telemetry — {} ({} scale)\n\n",
        meta.bench, meta.scale
    );
    out.push_str(
        "Flight-recorder view of the distance sweep: every series below is \
         windowed\ninto fixed epochs of main-thread references, so the report \
         shows *when*\ncache pollution happens, not just the run totals.\n\n",
    );
    out.push_str(&format!(
        "- epoch length: {} main-thread references per window\n",
        epochs.baseline.epoch_len
    ));
    out.push_str(&format!("- helper trigger rate RP: {:.2}\n", meta.rp));
    match meta.bound {
        Some(b) => out.push_str(&format!(
            "- SA/2 distance bound: **{b}** — distances past it are marked `!`\n"
        )),
        None => out.push_str("- SA/2 distance bound: not computed for this run\n"),
    }
    out.push_str(&format!(
        "- paper SA range (Table 2): {}\n\n",
        paper_sa_range(meta.bench)
    ));

    out.push_str("## Per-distance series\n\n");
    let over = |d: u32| meta.bound.is_some_and(|b| d > b);
    let series_block = |out: &mut String, title: &str, s: &EpochSeries| {
        out.push_str(&format!("### {title}\n\n```\n"));
        let misses: Vec<u64> = s.epochs.iter().map(|w| w.main[3]).collect();
        let pollution: Vec<u64> = s
            .epochs
            .iter()
            .map(|w| w.counts.total_pollution())
            .collect();
        let late: Vec<u64> = s.epochs.iter().map(|w| w.counts.late).collect();
        out.push_str(&spark_row("misses", &misses));
        out.push_str(&spark_row("pollution", &pollution));
        out.push_str(&spark_row("late pf", &late));
        out.push_str("```\n\n");
    };
    series_block(&mut out, "baseline (no helper)", &epochs.baseline);
    for (p, s) in sweep.points.iter().zip(&epochs.points) {
        let flag = if over(p.distance) {
            " `!` over the SA/2 bound"
        } else {
            ""
        };
        series_block(&mut out, &format!("distance {}{}", p.distance, flag), s);
    }

    out.push_str("## Displacement heatmap\n\n");
    out.push_str(
        "Rows are prefetch distances, columns are epochs; each cell shades the\n\
         window's total displacement events (reuse + unused-helper + unused-hw\n\
         evictions) against the sweep-wide peak.\n\n",
    );
    let peak = epochs
        .points
        .iter()
        .flat_map(|s| s.epochs.iter())
        .map(|w| w.counts.total_pollution())
        .max()
        .unwrap_or(0);
    let width = sweep
        .points
        .iter()
        .map(|p| p.distance.to_string().len())
        .max()
        .unwrap_or(1);
    out.push_str("```\n");
    for (p, s) in sweep.points.iter().zip(&epochs.points) {
        let mark = if over(p.distance) { "!" } else { " " };
        let cells: String = s
            .epochs
            .iter()
            .map(|w| shade(w.counts.total_pollution(), peak))
            .collect();
        out.push_str(&format!(
            "{mark} {:>width$}  {cells}\n",
            p.distance,
            width = width
        ));
    }
    out.push_str("```\n\n");
    out.push_str(&format!(
        "Legend: `·` none, `░`/`▒`/`▓`/`█` quartiles of the peak \
         ({peak} events/epoch).\n"
    ));
    if meta.bound.is_some() {
        out.push_str("`!` marks distances over the SA/2 bound.\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let s = render_table(
            &["name", "v"],
            &[
                vec!["a".into(), "1".into()],
                vec!["longer".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "name    v");
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines[2], "a       1");
        assert_eq!(lines[3], "longer  22");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn runner_summary_reports_the_width_and_speedup() {
        let (_, rep) = sp_core::map_jobs((0..6).collect::<Vec<u32>>(), |x| x + 1, 2);
        let s = render_runner_summary(&rep);
        assert!(s.contains("6 jobs on 2 workers"), "got: {s}");
        assert!(s.contains("speedup"), "got: {s}");
        assert!(s.contains("queue depth 0"), "got: {s}");
        assert!(s.contains("utilization"), "got: {s}");
        assert!(s.contains("w0:"), "per-worker lane missing: {s}");
        assert!(s.contains("w1:"), "per-worker lane missing: {s}");
    }

    #[test]
    fn sparkline_normalizes_to_the_series_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0, 0]), "▁▁▁");
        let s = sparkline(&[0, 7, 14]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'), "zero renders the lowest bar: {s}");
        assert!(s.ends_with('█'), "the max renders the top bar: {s}");
        // Normalization is per-series: scaling every value leaves the
        // rendering unchanged.
        assert_eq!(sparkline(&[1, 2, 4]), sparkline(&[100, 200, 400]));
    }

    fn tiny_epoch_sweep() -> (Sweep, PerPoint<EpochSeries>) {
        let w = sp_workloads::Workload::tiny(sp_workloads::Benchmark::Em3d);
        let cfg = sp_cachesim::CacheConfig::scaled_default();
        let ct = std::sync::Arc::new(sp_trace::CompiledTrace::compile(&w.trace()));
        let threshold = sp_cachesim::default_early_threshold(&cfg.latency);
        let (sweep, epochs, _) = sp_core::sweep(
            &ct,
            cfg,
            0.5,
            &[2, 8],
            sp_core::EngineOptions::default(),
            1,
            move || sp_cachesim::EpochSink::new(256, threshold),
            sp_cachesim::EpochSink::finish,
        );
        (sweep, epochs)
    }

    #[test]
    fn epoch_ndjson_tags_every_window_with_its_distance() {
        let (sweep, epochs) = tiny_epoch_sweep();
        let nd = epoch_ndjson(&sweep, &epochs);
        let lines: Vec<&str> = nd.lines().collect();
        let windows: usize =
            epochs.baseline.len() + epochs.points.iter().map(|s| s.len()).sum::<usize>();
        assert_eq!(lines.len(), windows, "one line per window");
        assert!(lines[0].starts_with("{\"distance\":null,\"epoch\":0,"));
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.starts_with("{\"distance\":2,"))
                .count(),
            epochs.points[0].len()
        );
        assert!(
            lines.iter().all(|l| l.ends_with('}')),
            "one object per line"
        );
        for key in [
            "\"pollution\":",
            "\"late\":",
            "\"top_sets\":",
            "\"mshr_peak\":",
        ] {
            assert!(lines[0].contains(key), "missing {key} in: {}", lines[0]);
        }
    }

    #[test]
    fn epoch_report_flags_distances_over_the_bound() {
        let (sweep, epochs) = tiny_epoch_sweep();
        let meta = EpochReportMeta {
            bench: "EM3D",
            scale: "test",
            rp: 0.5,
            bound: Some(4),
        };
        let md = epoch_report_markdown(&meta, &sweep, &epochs);
        assert!(md.starts_with("# Epoch telemetry — EM3D (test scale)\n"));
        assert!(md.contains("- SA/2 distance bound: **4**"), "got:\n{md}");
        assert!(md.contains("paper SA range (Table 2): [40, 360]"));
        assert!(md.contains("### baseline (no helper)"));
        assert!(
            md.contains("### distance 2\n"),
            "in-bound distance unflagged"
        );
        assert!(
            md.contains("### distance 8 `!` over the SA/2 bound"),
            "over-bound distance must be flagged:\n{md}"
        );
        assert!(md.contains("! 8  "), "heatmap row marker missing:\n{md}");
        for label in ["misses", "pollution", "late pf"] {
            assert!(md.contains(label), "sparkline row {label} missing");
        }
        // Deterministic: no timestamps or host state leak in.
        assert_eq!(md, epoch_report_markdown(&meta, &sweep, &epochs));
        // Without a bound nothing is flagged.
        let unbounded = epoch_report_markdown(
            &EpochReportMeta {
                bound: None,
                ..meta
            },
            &sweep,
            &epochs,
        );
        assert!(unbounded.contains("not computed"));
        assert!(!unbounded.contains('!'), "no `!` markers without a bound");
    }

    #[test]
    fn csv_quotes_special_fields() {
        let dir = std::env::temp_dir().join("sp_bench_csv_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[
                vec!["x,y".into(), "plain".into()],
                vec!["q\"q".into(), "2".into()],
            ],
        )
        .unwrap();
        let s = std::fs::read_to_string(&path).unwrap();
        assert_eq!(s, "a,b\n\"x,y\",plain\n\"q\"\"q\",2\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_droppings() {
        let dir = std::env::temp_dir().join("sp_bench_write_atomic_test");
        let path = dir.join("events.ndjson");
        write_atomic(&path, "{\"ev\":\"a\"}\n").unwrap();
        write_atomic(&path, "{\"ev\":\"b\"}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ev\":\"b\"}\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        assert!(write_atomic(Path::new("/"), "x").is_err(), "no file name");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_csv_is_atomic_and_overwrites_cleanly() {
        let dir = std::env::temp_dir().join("sp_bench_csv_atomic_test");
        let path = dir.join("nested").join("t.csv");
        write_csv(&path, &["a"], &[vec!["1".into()]]).unwrap();
        // Overwriting an existing (e.g. longer) artifact replaces it
        // wholesale — rename semantics, never an in-place truncate.
        write_csv(&path, &["a"], &[vec!["22".into()], vec!["3".into()]]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\n22\n3\n");
        // No temp-file droppings beside the artifact.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains("tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
