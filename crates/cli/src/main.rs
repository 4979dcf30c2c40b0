//! `spt` — command-line explorer for the Skip-Prefetching toolkit.
//!
//! ```text
//! spt affinity   [--bench B] [--size S] [--l2-kb N --ways N --line N]
//! spt sweep      [--bench B] [--rp R] [--distances d1,d2,...] [--jobs N] [--svg F]
//! spt delinquent [--bench B]
//! spt phases     [--bench B]
//! spt reuse      [--bench B]
//! spt adaptive   [--bench B] [--start D] [--epoch N] [--bounded on|off]
//! spt selection
//! spt dump       [--bench B] [--size S] --out trace.spt
//! spt events     [--bench B] [--distance D] [--rp R] [--original] [--out F.ndjson]
//! spt trace      [--bench B] [--distances d1,...] [--jobs N] --out profile.json
//! spt report     [--bench B] [--rp R] [--epoch-len N] [--ndjson F] [--out F.md]
//! ```
//!
//! Every analysis command also accepts `--trace FILE` to replay a trace
//! recorded with `spt dump` instead of building a workload.
//!
//! Common flags: `--bench` (any workload-builder kernel:
//! em3d|mcf|mst|treeadd|health|matmul|hashjoin|bfs|skiplist|btree),
//! `--size scaled|tiny`, `--cache scaled|core2`, `--hw-prefetch on|off`,
//! `--prefetcher streamer+dpl|streamer|dpl|pointer-chase|perceptron`,
//! `--l2-kb/--ways/--line` geometry overrides.

mod args;
mod help;
mod serve_cmd;
mod slo;
mod top_cmd;

use args::Args;
use sp_cachesim::CacheConfig;
use sp_core::prelude::*;
use sp_core::{run_sp_adaptive, sampled_set_affinity, FeedbackController};
use sp_profiler::{
    detect_phases, rank_delinquent_loads, reuse_histogram, select_benchmarks, BurstSampler,
    PhaseConfig,
};
use sp_workloads::Candidate;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print!("{}", USAGE);
        return;
    }
    // `spt <command> --help` prints the command's own page (handled
    // before Args::parse, which requires every `--flag` to have a value).
    if argv.iter().skip(1).any(|a| a == "--help" || a == "help") {
        match help::command_help(&argv[0]) {
            Some(page) => print!("{page}"),
            None => {
                eprintln!("spt: unknown command {}", argv[0]);
                std::process::exit(2);
            }
        }
        return;
    }
    sp_obs::logger::init_from_env();
    match Args::parse(argv).and_then(run) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("spt: {e}");
            eprintln!("run `spt help` for usage");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "\
spt — Skip-Prefetching toolkit explorer

USAGE:
  spt <command> [--flag value]...

COMMANDS:
  affinity     Set Affinity report + prefetch-distance bound
  sweep        distance sweep (normalized runtime/misses/behaviour);
               --jobs N fans distances out on N threads (default all
               cores; output is identical whatever N is)
  delinquent   rank reference sites by L2 misses
  phases       access-phase detection
  reuse        LRU stack-distance histogram + miss ratio vs associativity
  adaptive     run the FDP-style dynamic distance controller
  selection    benchmark screen by L2-miss cycle share (paper SIV.B)
  dump         record a workload's hot-loop trace to a file (--out F)
  events       replay one run with the prefetch-lifecycle event sink
               attached: timeliness, pollution cases, per-set pressure;
               --out writes the raw event stream as NDJSON
  trace        run a distance sweep with runtime spans recorded and
               export them as Chrome trace-event JSON (--out F, load
               into Perfetto / chrome://tracing)
  report       epoch-windowed flight recorder: sweep with per-window
               telemetry and render sparklines + displacement heatmap
               as markdown (--out F.md) and NDJSON series (--ndjson F)
  serve        run the simulation service daemon (NDJSON over TCP)
  loadgen      drive a seeded request mix against a running daemon:
               closed-loop or open-loop (--rate, coordinated-omission-
               free latency), NDJSON time series (--series), SLO gate
               (--slo \"p99<=5ms,error_rate<=0.1%\", non-zero exit on
               violation)
  top          live dashboard over a running daemon (throughput, hit
               ratio, queue, utilization, latency sparklines);
               --once --json prints one machine-readable snapshot

COMMON FLAGS:
  --bench KERNEL                        workload (default em3d); one of
                                        em3d|mcf|mst|treeadd|health|matmul|
                                        hashjoin|bfs|skiplist|btree
  --size scaled|tiny                    input size (default scaled)
  --cache scaled|core2                  geometry preset (default scaled)
  --l2-kb N / --ways N / --line N       L2 geometry overrides
  --hw-prefetch on|off                  hardware prefetchers
  --prefetcher NAME                     hardware-prefetcher backend:
                                        streamer+dpl|streamer|dpl|
                                        pointer-chase|perceptron

Run `spt <command> --help` for a command's full flag reference.
";

fn run(a: Args) -> Result<(), String> {
    match a.command.as_str() {
        "affinity" => affinity(&a),
        "sweep" => sweep(&a),
        "delinquent" => delinquent(&a),
        "phases" => phases(&a),
        "reuse" => reuse(&a),
        "adaptive" => adaptive(&a),
        "selection" => selection_cmd(&a),
        "dump" => dump(&a),
        "events" => events(&a),
        "trace" => trace_cmd(&a),
        "report" => report(&a),
        "serve" => serve_cmd::serve(&a),
        "loadgen" => serve_cmd::loadgen(&a),
        "top" => top_cmd::top(&a),
        other => Err(format!(
            "unknown command {other}; expected one of {}",
            help::COMMANDS.join("|")
        )),
    }
}

fn affinity(a: &Args) -> Result<(), String> {
    let cfg = a.cache_config()?;
    let trace = a.trace()?;
    let rec = recommend_distance(&trace, &cfg);
    println!(
        "hot loop: {} ({} iters, {} refs)",
        trace.name,
        trace.outer_iters(),
        trace.total_refs()
    );
    println!(
        "L2: {}KB {}-way, {} sets",
        cfg.l2.size_bytes / 1024,
        cfg.l2.ways,
        cfg.l2.sets()
    );
    println!("sets touched:        {}", rec.affinity.sets_touched);
    println!(
        "sets overflowed:     {} ({:.0}%)",
        rec.affinity.per_set.len(),
        rec.affinity.overflow_fraction() * 100.0
    );
    println!("SA(L,Sx) range:      {:?}", rec.affinity.range());
    println!("distance bound:      {:?}  (min SA / 2)", rec.max_distance);
    let bursts = BurstSampler::default_profile().sample(&trace);
    let est = sampled_set_affinity(&bursts, cfg.l2);
    println!("SA (burst-sampled):  {:?}", est.range());
    Ok(())
}

fn sweep(a: &Args) -> Result<(), String> {
    let cfg = a.cache_config()?;
    let trace = a.trace()?;
    let rec = recommend_distance(&trace, &cfg);
    let bound = rec.max_distance.unwrap_or(u32::MAX);
    let mut default: Vec<u32> = [
        bound / 4,
        bound / 2,
        bound,
        bound.saturating_mul(2),
        bound.saturating_mul(4),
    ]
    .into_iter()
    .filter(|&d| d >= 1)
    .collect();
    default.dedup(); // unbounded traces collapse to one u32::MAX entry
    let ds = a.distances(&default)?;
    let rp: f64 = a.get_or("rp", 0.5)?;
    let jobs: usize = a.get_or("jobs", 0)?; // 0 = all cores
    let (s, ev, rep) = if a.switch("events") {
        let ct = std::sync::Arc::new(sp_core::compile_trace(&trace, &cfg));
        let (s, ev, rep) = sp_core::sweep_events_compiled_jobs_with(
            &ct,
            cfg,
            rp,
            &ds,
            sp_core::EngineOptions::default(),
            jobs,
        )
        .map_err(|e| e.to_string())?;
        (s, Some(ev), rep)
    } else {
        let (s, rep) = sp_core::sweep_distances_jobs(&trace, cfg, rp, &ds, jobs);
        (s, None, rep)
    };
    println!("bound = {bound}; RP = {rp}");
    if let Some(svg_path) = a.get("svg") {
        use sp_bench::plot::{line_chart, save_svg, ChartConfig, Series};
        let xs: Vec<f64> = s.points.iter().map(|p| p.distance as f64).collect();
        let series = vec![
            Series::new(
                "runtime",
                &xs,
                &s.points.iter().map(|p| p.runtime_norm).collect::<Vec<_>>(),
            ),
            Series::new(
                "hot misses",
                &xs,
                &s.points
                    .iter()
                    .map(|p| p.hot_misses_norm)
                    .collect::<Vec<_>>(),
            ),
        ];
        let chart = line_chart(
            &format!("{} distance sweep (bound {bound})", trace.name),
            "prefetch distance (log)",
            "normalized to original",
            &series,
            ChartConfig::default(),
        );
        save_svg(std::path::Path::new(svg_path), &chart).map_err(|e| e.to_string())?;
        println!("(wrote {svg_path})");
    }
    println!(
        "{:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "distance", "runtime", "misses", "dTH%", "dTM%", "dPH%", "pollution"
    );
    for p in &s.points {
        println!(
            "{}{:>8} {:>9.3} {:>9.3} {:>+8.2} {:>+8.2} {:>+8.2} {:>10}",
            if p.distance <= bound { " " } else { "!" },
            p.distance,
            p.runtime_norm,
            p.hot_misses_norm,
            p.behavior.totally_hit_pct,
            p.behavior.totally_miss_pct,
            p.behavior.partially_hit_pct,
            p.pollution.stats.total(),
        );
    }
    // With --events, explain each point: which displacement case fired
    // and how prefetch timeliness shifted — the *why* behind a distance
    // crossing the SA/2 bound, not just that hits dropped.
    if let Some(ev) = &ev {
        println!(
            "\n{:>9} {:>8} {:>8} {:>8} {:>7} {:>8} {:>7} {:>7}",
            "distance", "reuse", "un.help", "un.hw", "dead", "late", "ontime", "early"
        );
        for (p, s) in s.points.iter().zip(&ev.points) {
            println!(
                "{}{:>8} {:>8} {:>8} {:>8} {:>7} {:>8} {:>7} {:>7}",
                if p.distance <= bound { " " } else { "!" },
                p.distance,
                s.pollution[0],
                s.pollution[1],
                s.pollution[2],
                s.evicted_unused.iter().sum::<u64>(),
                s.late,
                s.on_time,
                s.early,
            );
        }
    }
    println!("{}", sp_bench::render_runner_summary(&rep));
    Ok(())
}

/// `spt report`: run an epoch-recorded distance sweep — the cache
/// flight recorder — and render the artifacts: a per-window NDJSON
/// series (`--ndjson`) and a self-contained markdown report with
/// per-metric sparklines and the distances-by-epochs displacement
/// heatmap (`--out`, or stdout). The series is differentially
/// self-checked against the run-aggregate counters before anything
/// is written.
fn report(a: &Args) -> Result<(), String> {
    let cfg = a.cache_config()?;
    let trace = a.trace()?;
    let rec = recommend_distance(&trace, &cfg);
    let bound = rec.max_distance;
    let kernel = a.kernel()?;
    let ds = a.distances(sp_bench::distances_for_kernel(kernel))?;
    let rp: f64 = a.get_or("rp", 0.5)?;
    let epoch_len: u64 = a.get_or("epoch-len", sp_cachesim::DEFAULT_EPOCH_LEN)?;
    if epoch_len == 0 {
        return Err("--epoch-len 0: a window must cover at least one reference".into());
    }
    let jobs: usize = a.get_or("jobs", 0)?; // 0 = all cores
    let ct = std::sync::Arc::new(sp_core::compile_trace(&trace, &cfg));
    let (s, epochs, rep) = sp_core::sweep_epochs_compiled_jobs_with(
        &ct,
        cfg,
        rp,
        &ds,
        sp_core::EngineOptions::default(),
        epoch_len,
        jobs,
    )
    .map_err(|e| e.to_string())?;
    // Differential self-check: every series must fold back to its run's
    // aggregate counters exactly before the artifacts are published.
    for (series, run) in std::iter::once((&epochs.baseline, &s.baseline))
        .chain(epochs.points.iter().zip(s.points.iter().map(|p| &p.run)))
    {
        let t = series.totals();
        let m = &run.stats.main;
        if t.main != [m.l1_hits, m.total_hits, m.partial_hits, m.total_misses]
            || t.issued != run.stats.prefetches_issued
            || series.pollution_stats() != run.stats.pollution
        {
            return Err(
                "epoch series totals do not fold to the run counters (recorder drift)".into(),
            );
        }
    }
    let bench = match a.get("trace") {
        Some(_) => trace.name.clone(),
        None => kernel.name().to_string(),
    };
    let meta = sp_bench::EpochReportMeta {
        bench: &bench,
        scale: a.get("size").unwrap_or("scaled"),
        rp,
        bound,
    };
    println!(
        "bound = {}; RP = {rp}; epoch = {epoch_len} refs",
        bound.map(|b| b.to_string()).unwrap_or_else(|| "-".into())
    );
    println!(
        "{:>9} {:>8} {:>10} {:>8} {:>8}",
        "distance", "epochs", "pollution", "late", "early"
    );
    for (p, series) in s.points.iter().zip(&epochs.points) {
        let t = series.totals();
        println!(
            "{}{:>8} {:>8} {:>10} {:>8} {:>8}",
            if bound.is_none_or(|b| p.distance <= b) {
                " "
            } else {
                "!"
            },
            p.distance,
            series.len(),
            t.total_pollution(),
            t.late,
            t.early,
        );
    }
    if let Some(nd) = a.get("ndjson") {
        let text = sp_bench::epoch_ndjson(&s, &epochs);
        sp_bench::write_atomic(std::path::Path::new(nd), &text)
            .map_err(|e| format!("--ndjson {nd}: {e}"))?;
        println!("(wrote {} epoch lines to {nd})", text.lines().count());
    }
    let md = sp_bench::epoch_report_markdown(&meta, &s, &epochs);
    match a.get("out") {
        Some(out) => {
            sp_bench::write_atomic(std::path::Path::new(out), &md)
                .map_err(|e| format!("--out {out}: {e}"))?;
            println!("(wrote report to {out})");
        }
        None => print!("{md}"),
    }
    println!("{}", sp_bench::render_runner_summary(&rep));
    Ok(())
}

/// `spt trace`: run a distance sweep with the span recorder enabled and
/// export the collected spans as Chrome trace-event JSON (loadable in
/// Perfetto or chrome://tracing). Every span carries the same root
/// correlation ID, so the load → compile → simulate → fold pipeline for
/// each grid point can be followed across worker threads.
fn trace_cmd(a: &Args) -> Result<(), String> {
    let out = a
        .get("out")
        .ok_or("trace needs --out FILE (Chrome trace JSON)")?
        .to_string();
    let cfg = a.cache_config()?;
    let rp: f64 = a.get_or("rp", 0.5)?;
    let jobs: usize = a.get_or("jobs", 0)?; // 0 = all cores

    sp_obs::span::start_recording();
    let corr = sp_obs::CorrId::next_root();
    let (spans, n_points, rep) = {
        let _cg = sp_obs::corr::set_current(corr);
        let trace = {
            let _sp = sp_obs::span!("load");
            a.trace()?
        };
        let rec = recommend_distance(&trace, &cfg);
        let bound = rec.max_distance.unwrap_or(u32::MAX);
        let mut default: Vec<u32> = [
            bound / 4,
            bound / 2,
            bound,
            bound.saturating_mul(2),
            bound.saturating_mul(4),
        ]
        .into_iter()
        .filter(|&d| d >= 1)
        .collect();
        default.dedup();
        let ds = a.distances(&default)?;
        let ct = std::sync::Arc::new(sp_core::compile_trace(&trace, &cfg));
        let (s, rep) = sp_core::sweep_compiled_jobs_with(
            &ct,
            cfg,
            rp,
            &ds,
            sp_core::EngineOptions::default(),
            jobs,
        )
        .map_err(|e| e.to_string())?;
        (sp_obs::span::drain(), s.points.len(), rep)
    };
    sp_obs::span::stop_recording();

    sp_bench::write_atomic(
        std::path::Path::new(&out),
        &sp_obs::chrome::trace_json(&spans),
    )
    .map_err(|e| format!("--out {out}: {e}"))?;

    println!("{:>12} {:>12} {:>7}", "stage", "total_us", "spans");
    for (name, total_us, count) in sp_obs::span::stage_totals(&spans) {
        println!("{name:>12} {total_us:>12} {count:>7}");
    }
    println!(
        "(traced {n_points} grid points, correlation {corr}; wrote {} spans to {out})",
        spans.len()
    );
    println!("{}", sp_bench::render_runner_summary(&rep));
    Ok(())
}

fn events(a: &Args) -> Result<(), String> {
    use sp_cachesim::{default_early_threshold, PfClass, PollutionCase, RingSink};

    let cfg = a.cache_config()?;
    let trace = a.trace()?;
    let rec = recommend_distance(&trace, &cfg);
    let original = a.switch("original");
    let distance: u32 = a.get_or("distance", rec.max_distance.unwrap_or(8))?;
    let rp: f64 = a.get_or("rp", 0.5)?;
    let passes: usize = a.get_or("passes", 1)?;
    let limit: usize = a.get_or("limit", 0)?; // 0 = keep every event
    let ct = sp_core::compile_trace(&trace, &cfg);
    let mut sink = RingSink::new(limit, default_early_threshold(&cfg.latency));
    let run = if original {
        sp_core::run_original_passes_compiled_ev(&ct, cfg, passes, &mut sink)
    } else {
        let opts = sp_core::EngineOptions {
            passes,
            ..Default::default()
        };
        let params = SpParams::from_distance_rp(distance, rp);
        sp_core::run_sp_with_compiled_ev(&ct, cfg, params, opts, &mut sink)
    }
    .map_err(|e| e.to_string())?;

    if original {
        println!("{}: original run, passes {passes}", trace.name);
    } else {
        println!(
            "{}: SP run, distance {distance} (bound {}), RP {rp}, passes {passes}",
            trace.name,
            rec.max_distance
                .map(|b| b.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "events: {} buffered, {} dropped beyond --limit (summary folds all)",
        sink.len(),
        sink.dropped()
    );

    let s = &sink.summary;
    println!(
        "\n{:<8} {:>9} {:>9} {:>10} {:>8} {:>9}",
        "class", "issued", "filled", "first_use", "dead", "accuracy"
    );
    for c in PfClass::ALL {
        let i = c.index();
        println!(
            "{:<8} {:>9} {:>9} {:>10} {:>8} {:>8.2}%",
            c.name(),
            s.issued[i],
            s.filled[i],
            s.first_uses[i],
            s.evicted_unused[i],
            s.accuracy(c) * 100.0
        );
    }
    println!(
        "\ntimeliness of first uses: {} late, {} on-time, {} early ({} still pending at end)",
        s.late,
        s.on_time,
        s.early,
        s.unresolved()
    );
    println!("\npollution evictions (paper's three displacement cases):");
    for case in PollutionCase::ALL {
        println!(
            "  case {} {:<14} {:>8}",
            case.index() + 1,
            case.name(),
            s.pollution[case.index()]
        );
    }
    println!("  total {:>23}", s.total_pollution());
    println!(
        "\n{:<10} {:>6} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "quartile", "sets", "fills", "reuse", "un.help", "un.hw", "dead"
    );
    for (q, row) in s.pollution_by_quartile().iter().enumerate() {
        println!(
            "{:<10} {:>6} {:>10} {:>8} {:>8} {:>8} {:>8}",
            match q {
                0 => "hottest",
                1 => "2nd",
                2 => "3rd",
                _ => "coldest",
            },
            row.sets,
            row.fills,
            row.pollution[0],
            row.pollution[1],
            row.pollution[2],
            row.evicted_unused
        );
    }

    // Differential self-check: the fold of the emitted eviction events
    // must equal the simulator's own pollution counters exactly. A
    // mismatch means the event layer lost or double-counted something,
    // so fail loudly (CI leans on this exit code).
    let fold = s.pollution_stats();
    if fold != run.stats.pollution {
        return Err(format!(
            "event fold disagrees with simulator counters: folded {fold:?}, counted {:?}",
            run.stats.pollution
        ));
    }
    println!("\nself-check: event fold matches the simulator's pollution counters");

    if let Some(out) = a.get("out") {
        if sink.dropped() > 0 {
            println!(
                "(warning: --limit {limit} dropped {} events; the NDJSON stream is truncated)",
                sink.dropped()
            );
        }
        sp_bench::write_atomic(std::path::Path::new(out), &sink.to_ndjson())
            .map_err(|e| format!("--out {out}: {e}"))?;
        println!("(wrote {} events to {out})", sink.len());
    }
    Ok(())
}

fn delinquent(a: &Args) -> Result<(), String> {
    let cfg = a.cache_config()?;
    let trace = a.trace()?;
    let ranked = rank_delinquent_loads(&trace, cfg.l2, cfg.policy);
    println!(
        "{:<32} {:>10} {:>10} {:>8}",
        "site", "refs", "misses", "rate"
    );
    for s in ranked {
        let name = trace
            .site_names
            .get(s.site.0 as usize)
            .cloned()
            .unwrap_or_else(|| format!("site#{}", s.site.0));
        println!(
            "{:<32} {:>10} {:>10} {:>7.1}%",
            name,
            s.refs,
            s.misses,
            s.miss_rate() * 100.0
        );
    }
    Ok(())
}

fn phases(a: &Args) -> Result<(), String> {
    let trace = a.trace()?;
    let phases = detect_phases(&trace, PhaseConfig::default());
    println!(
        "{} phases over {} iterations",
        phases.len(),
        trace.outer_iters()
    );
    for p in phases {
        println!(
            "  [{:>8}, {:>8})  {:>7.1} refs/iter  {:>6.2} new blocks/iter",
            p.start_iter, p.end_iter, p.refs_per_iter, p.blocks_per_iter
        );
    }
    Ok(())
}

fn reuse(a: &Args) -> Result<(), String> {
    let cfg = a.cache_config()?;
    let trace = a.trace()?;
    let h = reuse_histogram(&trace, cfg.l2);
    println!("accesses: {} (cold: {})", h.total, h.cold);
    println!("{:>6} {:>12} {:>10}", "ways", "LRU misses", "miss rate");
    for ways in [1u32, 2, 4, 8, 16, 32] {
        println!(
            "{:>6} {:>12} {:>9.2}%",
            ways,
            h.miss_count(ways),
            h.miss_ratio(ways) * 100.0
        );
    }
    if let Some(w) = h.ways_for_miss_ratio(0.05) {
        println!("associativity for <=5% misses at this set count: {w}");
    }
    Ok(())
}

fn adaptive(a: &Args) -> Result<(), String> {
    let cfg = a.cache_config()?;
    let trace = a.trace()?;
    let rec = recommend_distance(&trace, &cfg);
    let start: u32 = a.get_or("start", rec.max_distance.map(|b| b * 4).unwrap_or(64))?;
    let epoch: usize = a.get_or("epoch", 128)?;
    let mut ctl = FeedbackController::new(start, a.get_or("rp", 0.5)?);
    let bounded = matches!(a.get("bounded"), Some("on")) || a.get("bounded").is_none();
    if bounded {
        if let Some(b) = rec.max_distance {
            ctl = ctl.bounded(b);
        }
    }
    let base = run_original(&trace, cfg);
    let r = run_sp_adaptive(&trace, cfg, &mut ctl, epoch);
    println!(
        "start {start}, epoch {epoch}, bound {:?} ({}); runtime {:.3} vs original",
        rec.max_distance,
        if bounded { "clamped" } else { "unclamped" },
        r.run.runtime as f64 / base.runtime as f64
    );
    println!(
        "{:>6} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "epoch", "distance", "accuracy", "lateness", "pollution", "next dist"
    );
    for e in r.epochs.iter().take(24) {
        println!(
            "{:>6} {:>9} {:>9.2} {:>9.2} {:>9.2} {:>10}",
            e.feedback.epoch,
            e.feedback.params.a_ski,
            e.feedback.accuracy(),
            e.feedback.lateness(),
            e.feedback.pollution_rate(),
            e.next_distance
        );
    }
    if r.epochs.len() > 24 {
        println!("  ... ({} more epochs)", r.epochs.len() - 24);
    }
    Ok(())
}

fn dump(a: &Args) -> Result<(), String> {
    let out = a.get("out").ok_or("dump needs --out FILE")?;
    let trace = a.trace()?;
    let path = std::path::Path::new(out);
    sp_prefetch_save(&trace, path)?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    println!(
        "wrote {} ({} iters, {} refs, {} bytes, {:.1} B/ref)",
        out,
        trace.outer_iters(),
        trace.total_refs(),
        bytes,
        bytes as f64 / trace.total_refs().max(1) as f64
    );
    Ok(())
}

fn sp_prefetch_save(t: &sp_trace::HotLoopTrace, path: &std::path::Path) -> Result<(), String> {
    sp_trace::save_trace(t, path).map_err(|e| e.to_string())
}

fn selection_cmd(a: &Args) -> Result<(), String> {
    let cfg: CacheConfig = a.cache_config()?;
    let threshold: f64 = a.get_or("threshold", 0.3)?;
    let candidates: Vec<(String, sp_trace::HotLoopTrace)> = Candidate::ALL
        .iter()
        .map(|&c| (c.name().to_string(), c.trace_scaled()))
        .collect();
    println!(
        "{:<10} {:>12} {:>12} {:>10}  verdict",
        "candidate", "miss cycles", "total", "share"
    );
    for r in select_benchmarks(&candidates, &cfg, threshold) {
        println!(
            "{:<10} {:>12} {:>12} {:>9.1}%  {}",
            r.name,
            r.profile.miss_cycles,
            r.profile.total(),
            r.profile.miss_share() * 100.0,
            if r.selected { "selected" } else { "rejected" }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_lists_exactly_the_help_commands_in_order() {
        // Entry lines of the COMMANDS: block are indented by exactly two
        // spaces; their continuation lines are indented further.
        let listed: Vec<&str> = USAGE
            .lines()
            .skip_while(|l| *l != "COMMANDS:")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .filter_map(|l| l.strip_prefix("  "))
            .filter(|l| !l.starts_with(' '))
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(listed, help::COMMANDS);
    }
}
