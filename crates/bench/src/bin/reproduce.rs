//! Regenerate every table, figure and ablation of the paper.
//!
//! ```text
//! reproduce [ARTIFACT|all] [--out DIR] [--jobs N] [--smoke]
//! ```
//!
//! `ARTIFACT` names one row of the `ARTIFACTS` table below; `all` (the
//! default) runs every row marked as part of it. An unknown name exits
//! 2 and lists every artifact with what it writes.
//!
//! Prints aligned text tables (with the paper's reference values beside
//! the measured ones) and writes one CSV per artifact under `--out`
//! (default `results/`).
//!
//! `--jobs N` fans the independent simulations of each artifact out on
//! up to `N` worker threads (default: all cores; `--jobs 1` is the
//! serial reference). The output — stdout tables and CSV bytes — is
//! identical whatever `N` is; a summary line at the end reports the
//! realized parallel speedup. `--smoke` switches to the fast test-scale
//! inputs (what CI runs).
//!
//! `ablations` checks each ablation's rows against the finding
//! EXPERIMENTS.md states for it. The findings are stated for the scaled
//! inputs, so they are checked there only; a failed one makes
//! `reproduce` exit 1 once every artifact is written.

#![forbid(unsafe_code)]

use sp_bench::experiments::{
    ablation_adaptive, ablation_helper_model, ablation_hw_prefetchers, ablation_replacement,
    ablation_rp, ablation_sampling, check_adaptive, check_helper_model, check_hw_prefetchers,
    check_replacement, check_rp, check_sampling, fig5_epoch_fixture, fig_behavior, selection,
    table2, table2_paper, BehaviorSeries, Scale, ABLATION_DISTANCE, FIG5_EPOCH_L2_KB,
    FIG5_EPOCH_L2_WAYS, FIG5_EPOCH_LEN, HELPER_SA_DISTANCE, SELECTION_THRESHOLD,
};
use sp_bench::plot::{line_chart, save_svg, ChartConfig, Series};
use sp_bench::report::{
    epoch_ndjson, epoch_report_markdown, render_runner_summary, render_table, sweep_rows,
    table2_rows, write_atomic, write_csv, CsvRow, EpochReportMeta, SWEEP_HEADER, TABLE2_HEADER,
};
use sp_cachesim::CacheConfig;
use sp_core::{RunnerReport, Sweep, SweepPoint};
use sp_workloads::Benchmark;
use std::path::{Path, PathBuf};

/// Every artifact `reproduce` regenerates: its name, whether `all` runs
/// it, and what it writes under `--out`.
const ARTIFACTS: [(&str, bool, &str); 9] = [
    ("table1", true, "nothing (prints the simulated hardware)"),
    ("table2", true, "table2.csv"),
    ("selection", true, "selection.csv"),
    ("table2paper", false, "table2_paper.csv (slow)"),
    ("fig2", true, "fig2_em3d.csv and .svg"),
    ("fig4", true, "fig4_em3d.csv and two SVGs"),
    ("fig5", true, "fig5_mcf.csv, two SVGs, fig5_mcf_epoch*"),
    ("fig6", true, "fig6_mst.csv and two SVGs"),
    ("ablations", true, "ablation_*.csv, checking each finding"),
];

fn die(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut what = "all".to_string();
    let mut out = PathBuf::from("results");
    let mut jobs = 0usize; // 0 = all cores
    let mut scale = Scale::Scaled;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => die("--out needs a directory"),
            },
            "--jobs" => match it.next().map(|v| (v, v.parse())) {
                Some((_, Ok(n))) => jobs = n,
                Some((v, Err(_))) => die(&format!("--jobs: {v:?} is not a number")),
                None => die("--jobs needs a count"),
            },
            "--smoke" => scale = Scale::Test,
            other if !other.starts_with('-') => what = other.to_string(),
            other => die(&format!("unknown flag {other}")),
        }
    }
    if what != "all" && !ARTIFACTS.iter().any(|&(name, _, _)| name == what) {
        let mut msg = format!("unknown artifact {what}; expected one of:");
        for (name, in_all, writes) in ARTIFACTS {
            let note = if in_all { "" } else { "; not part of all" };
            msg += &format!("\n  {name:<12} writes {writes}{note}");
        }
        msg += "\n  all          every artifact above that is part of all";
        die(&msg);
    }
    let cfg = CacheConfig::scaled_default();
    let mut total = RunnerReport::empty();
    let mut failures = Vec::new();
    // Figures 2 and 4 plot one EM3D sweep: simulate it once.
    let mut em3d = None;
    for (name, in_all, _) in ARTIFACTS {
        if name != what && !(what == "all" && in_all) {
            continue;
        }
        let report = match name {
            "table1" => {
                print_table1(&cfg);
                RunnerReport::empty()
            }
            "table2" => print_table2(&cfg, scale, jobs, &out),
            "selection" => print_selection(&cfg, jobs, &out),
            "table2paper" => print_table2_paper(jobs, &out),
            "fig2" => {
                let (series, r) = em3d_sweep(&mut em3d, cfg, scale, jobs);
                print_fig2(&series.sweep, &out);
                r
            }
            "fig4" => {
                let (series, r) = em3d_sweep(&mut em3d, cfg, scale, jobs);
                print_fig_behavior(name, series, &out);
                r
            }
            "fig5" => {
                let (series, mut r) = fig_behavior(Benchmark::Mcf, cfg, scale, jobs);
                print_fig_behavior(name, &series, &out);
                r.absorb(&print_fig5_epochs(jobs, &out));
                r
            }
            "fig6" => {
                let (series, r) = fig_behavior(Benchmark::Mst, cfg, scale, jobs);
                print_fig_behavior(name, &series, &out);
                r
            }
            "ablations" => print_ablations(scale, jobs, &out, &mut failures),
            _ => unreachable!("every ARTIFACTS name has an arm"),
        };
        total.absorb(&report);
    }
    if total.jobs > 0 {
        println!("{}", render_runner_summary(&total));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("reproduce: finding failed: {f}");
        }
        std::process::exit(1);
    }
}

fn print_table1(cfg: &CacheConfig) {
    println!("== Table 1: hardware system (simulated substitute) ==\n");
    let paper = CacheConfig::core2_q6600();
    let geo = |c: &CacheConfig| {
        vec![
            format!(
                "{}KB, {}-way, {}B lines",
                c.l1.size_bytes / 1024,
                c.l1.ways,
                c.l1.line_size
            ),
            format!(
                "{}KB shared, {}-way, {}B lines ({} sets)",
                c.l2.size_bytes / 1024,
                c.l2.ways,
                c.l2.line_size,
                c.l2.sets()
            ),
        ]
    };
    let (p, s) = (geo(&paper), geo(cfg));
    let rows = vec![
        vec![
            "Processor".into(),
            "Intel Core 2 Quad Q6600".into(),
            "2-core CMP simulator".into(),
        ],
        vec!["L1 DCache".into(), p[0].clone(), s[0].clone()],
        vec!["L2 unified".into(), p[1].clone(), s[1].clone()],
        vec![
            "Latencies".into(),
            "(hardware)".into(),
            format!(
                "L1 {}cy, L2 {}cy, mem {}cy, bus {}cy/line",
                cfg.latency.l1_hit, cfg.latency.l2_hit, cfg.latency.mem, cfg.latency.bus_service
            ),
        ],
        vec![
            "Prefetchers".into(),
            "2x streamer + 2x DPL".into(),
            format!(
                "per-core streamer (deg {}) + DPL (deg {}), {}",
                cfg.stream_degree,
                cfg.dpl_degree,
                if cfg.hw_prefetchers {
                    "enabled"
                } else {
                    "disabled"
                }
            ),
        ],
        vec![
            "OS".into(),
            "Fedora 9, kernel 2.6.25".into(),
            "n/a (simulated)".into(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["component", "paper (Table 1)", "this reproduction"],
            &rows
        )
    );
}

fn print_table2(cfg: &CacheConfig, scale: Scale, jobs: usize, out: &Path) -> RunnerReport {
    println!("== Table 2: benchmark characteristics ==\n");
    let (rows_data, report) = table2(cfg, scale, jobs);
    let rows = table2_rows(&rows_data);
    println!("{}", render_table(&TABLE2_HEADER, &rows));
    write_csv(&out.join("table2.csv"), &TABLE2_HEADER, &rows).expect("write table2.csv");
    report
}

fn print_table2_paper(jobs: usize, out: &Path) -> RunnerReport {
    println!("== Table 2 at PAPER scale: paper inputs on the 4MB 16-way L2 ==");
    println!("   (streaming analysis; takes a minute)\n");
    let (rows_data, report) = table2_paper(10_000, jobs);
    let fmt = |r: Option<(u32, u32)>| match r {
        Some((a, b)) => format!("[{a}, {b}]"),
        None => "(no overflow)".into(),
    };
    let header = [
        "benchmark",
        "input",
        "SA(L,Sx) measured",
        "paper SA",
        "bound",
        "paper bound",
    ];
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.benchmark.to_string(),
                r.input.clone(),
                fmt(r.sa_range),
                r.paper_range.to_string(),
                r.distance_bound
                    .map(|d| format!("< {}", d + 1))
                    .unwrap_or("-".into()),
                r.paper_bound.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
    write_csv(&out.join("table2_paper.csv"), &header, &rows).expect("write table2_paper.csv");
    report
}

fn print_selection(cfg: &CacheConfig, jobs: usize, out: &Path) -> RunnerReport {
    println!(
        "== Benchmark selection (paper SIV.B): L2-miss cycle share, threshold {:.0}% ==\n",
        SELECTION_THRESHOLD * 100.0
    );
    let header = [
        "candidate",
        "miss cycles",
        "total cycles",
        "miss share",
        "verdict",
        "paper",
    ];
    let (selection_rows, report) = selection(cfg, jobs);
    let rows: Vec<Vec<String>> = selection_rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.profile.miss_cycles.to_string(),
                r.profile.total().to_string(),
                format!("{:.1}%", r.profile.miss_share() * 100.0),
                if r.selected {
                    "selected".into()
                } else {
                    "rejected".into()
                },
                match r.name.as_str() {
                    "EM3D" | "MCF" | "MST" => "selected".into(),
                    _ => "screened out".to_string(),
                },
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
    write_csv(&out.join("selection.csv"), &header, &rows).expect("write selection.csv");
    report
}

/// The EM3D behaviour sweep behind Figures 2 and 4, simulated on first
/// use; the runner report of that simulation comes back only then.
fn em3d_sweep(
    memo: &mut Option<BehaviorSeries>,
    cfg: CacheConfig,
    scale: Scale,
    jobs: usize,
) -> (&BehaviorSeries, RunnerReport) {
    let mut report = RunnerReport::empty();
    let series = memo.get_or_insert_with(|| {
        let (series, r) = fig_behavior(Benchmark::Em3d, cfg, scale, jobs);
        report = r;
        series
    });
    (series, report)
}

fn print_fig2(s: &Sweep, out: &Path) {
    println!("== Figure 2: EM3D performance vs prefetch distance ==");
    println!("   (paper: all three normalized curves rise with distance)\n");
    let rows = sweep_rows(s);
    println!("{}", render_table(&SWEEP_HEADER, &rows));
    write_csv(&out.join("fig2_em3d.csv"), &SWEEP_HEADER, &rows).expect("write fig2 csv");
    let series = [
        sweep_series("Normalized_Runtime", s, |p| p.runtime_norm),
        sweep_series("Normalized_MemoryAccesses", s, |p| p.memory_accesses_norm),
        sweep_series("Normalized_HotMisses", s, |p| p.hot_misses_norm),
    ];
    let svg = line_chart(
        "Fig. 2: EM3D performance vs prefetch distance",
        "prefetch distance (log)",
        "normalized to original",
        &series,
        ChartConfig::default(),
    );
    save_svg(&out.join("fig2_em3d.svg"), &svg).expect("write fig2 svg");
}

/// The fig5-MCF epoch flight-recorder fixture: always test scale (see
/// [`fig5_epoch_fixture`]), so the NDJSON + markdown artifacts are
/// byte-identical whatever `--smoke` or `--jobs` says — they are the
/// repository's golden epoch fixtures, pinned by
/// `tests/report_golden.rs` and the CI `report-smoke` diff.
fn print_fig5_epochs(jobs: usize, out: &Path) -> RunnerReport {
    println!(
        "== Figure 5 epochs: MCF flight recorder (tiny input, {FIG5_EPOCH_L2_KB}KB \
         {FIG5_EPOCH_L2_WAYS}-way L2, epoch {FIG5_EPOCH_LEN}) ==\n"
    );
    let (sweep, epochs, bound, report) = fig5_epoch_fixture(jobs);
    let meta = EpochReportMeta {
        bench: "MCF",
        scale: "tiny",
        rp: 0.5,
        bound,
    };
    write_atomic(
        &out.join("fig5_mcf_epochs.ndjson"),
        &epoch_ndjson(&sweep, &epochs),
    )
    .expect("write epoch ndjson");
    write_atomic(
        &out.join("fig5_mcf_epoch_report.md"),
        &epoch_report_markdown(&meta, &sweep, &epochs),
    )
    .expect("write epoch report");
    println!(
        "bound {:?}; {} baseline windows; wrote fig5_mcf_epochs.ndjson + fig5_mcf_epoch_report.md\n",
        bound,
        epochs.baseline.len()
    );
    report
}

fn print_fig_behavior(name: &str, series: &BehaviorSeries, out: &Path) {
    println!(
        "== Figure {}: {} behaviour change vs prefetch distance (bound = {:?}) ==\n",
        &name[3..],
        series.benchmark,
        series.bound
    );
    let rows = sweep_rows(&series.sweep);
    println!("{}", render_table(&SWEEP_HEADER, &rows));
    let stem = format!("{name}_{}", series.benchmark.to_lowercase());
    write_csv(&out.join(format!("{stem}.csv")), &SWEEP_HEADER, &rows).expect("write behaviour csv");
    let s = &series.sweep;
    let behaviour = [
        sweep_series("Totally_hit", s, |p| p.behavior.totally_hit_pct),
        sweep_series("Totally_miss", s, |p| p.behavior.totally_miss_pct),
        sweep_series("Partially_hit", s, |p| p.behavior.partially_hit_pct),
    ];
    let fig_no = &name[3..];
    let svg = line_chart(
        &format!(
            "Fig. {fig_no}(a): {} access-behaviour change (bound {:?})",
            series.benchmark, series.bound
        ),
        "prefetch distance (log)",
        "change, % of original memory accesses",
        &behaviour,
        ChartConfig::default(),
    );
    save_svg(&out.join(format!("{stem}_behavior.svg")), &svg).expect("write behaviour svg");
    let runtime = [sweep_series("Normalized runtime", s, |p| p.runtime_norm)];
    let svg = line_chart(
        &format!("Fig. {fig_no}(b): {} normalized runtime", series.benchmark),
        "prefetch distance (log)",
        "runtime / original",
        &runtime,
        ChartConfig::default(),
    );
    save_svg(&out.join(format!("{stem}_runtime.svg")), &svg).expect("write runtime svg");
}

/// One chart series of a sweep: `y` of each point against its distance.
fn sweep_series(label: &str, s: &Sweep, y: fn(&SweepPoint) -> f64) -> Series {
    let xs: Vec<f64> = s.points.iter().map(|p| p.distance as f64).collect();
    Series::new(label, &xs, &s.points.iter().map(y).collect::<Vec<_>>())
}

/// Print `rows` under `title` and write them to `ablation_{stem}.csv`.
fn emit<R: CsvRow>(out: &Path, stem: &str, title: &str, rows: &[R]) {
    println!("== Ablation: {title} ==\n");
    let cells: Vec<Vec<String>> = rows.iter().map(R::cells).collect();
    println!("{}", render_table(R::HEADER, &cells));
    write_csv(&out.join(format!("ablation_{stem}.csv")), R::HEADER, &cells)
        .expect("write ablation csv");
}

/// The six ablations: one CSV each, and at the scaled tier a check of
/// the finding EXPERIMENTS.md states for each. The helper-model and
/// adaptive series are placed around EM3D's Set-Affinity bound, so
/// they are skipped (and say so) where EM3D does not overflow the L2,
/// as at the `--smoke` tier.
fn print_ablations(
    scale: Scale,
    jobs: usize,
    out: &Path,
    failures: &mut Vec<String>,
) -> RunnerReport {
    let mut total = RunnerReport::empty();
    let mut finding = |stem: &str, statement: &str, verdict: Result<(), String>| match verdict {
        _ if scale != Scale::Scaled => {
            println!("finding ({statement}): not checked at this scale\n")
        }
        Ok(()) => println!("finding ({statement}): holds\n"),
        Err(e) => {
            println!("finding ({statement}): FAILS: {e}\n");
            failures.push(format!("ablation_{stem}: {e}"));
        }
    };
    let no_bound = "skipped: EM3D fits the L2 at this scale, so it has no Set-Affinity bound";

    let (rows, report) = ablation_rp(scale, jobs);
    emit(
        out,
        "rp",
        &format!("prefetch ratio (EM3D, distance {ABLATION_DISTANCE})"),
        &rows,
    );
    finding("rp", "RP 1 slowest, RP 0.5 fastest", check_rp(&rows));
    total.absorb(&report);

    let (rows, report) = ablation_hw_prefetchers(scale, jobs);
    let title =
        format!("hw prefetchers (SP distance {ABLATION_DISTANCE}, SA_helper {HELPER_SA_DISTANCE})");
    emit(out, "hw_prefetchers", &title, &rows);
    let statement = "SA_orig - helper distance <= SA_helper <= SA_orig";
    finding("hw_prefetchers", statement, check_hw_prefetchers(&rows));
    total.absorb(&report);

    let (rows, report) = ablation_replacement(scale, jobs);
    emit(out, "replacement", "L2 replacement policy (EM3D)", &rows);
    let statement = "FIFO and PLRU keep LRU's knee, random blurs it";
    finding("replacement", statement, check_replacement(&rows));
    total.absorb(&report);

    let (rows, report) = ablation_sampling(scale, jobs);
    emit(out, "sampling", "burst sampling (EM3D)", &rows);
    let statement = "bursts below the true min SA see no overflow";
    finding("sampling", statement, check_sampling(&rows));
    total.absorb(&report);

    match ablation_helper_model(scale, jobs) {
        Some((rows, bound, report)) => {
            emit(
                out,
                "helper_model",
                &format!("helper model (EM3D, bound {bound})"),
                &rows,
            );
            let statement = "both helper models gain and degrade the same";
            finding("helper_model", statement, check_helper_model(&rows));
            total.absorb(&report);
        }
        None => println!("== Ablation: helper model ==\n\n{no_bound}\n"),
    }

    match ablation_adaptive(scale, jobs) {
        Some((rows, bound, report)) => {
            emit(
                out,
                "adaptive",
                &format!("adaptive control (EM3D, bound {bound})"),
                &rows,
            );
            let statement = "dynamic control ends at the bound, slower; the clamp recovers most";
            finding("adaptive", statement, check_adaptive(&rows, bound));
            total.absorb(&report);
        }
        None => println!("== Ablation: adaptive control ==\n\n{no_bound}\n"),
    }
    total
}
