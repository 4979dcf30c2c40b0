//! The sp-prefetch benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload em3d-sweep|lds-epochs --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. With `--trace 0` the last stdout line
//! carries every end-to-end metric of `BENCHMARK.json`; with `--trace 1`
//! every per-layer metric, and the run's spans are written to
//! `perfbench/out/`. The process exits non-zero when any output check
//! fails. See `perfbench/README.md`.

mod adapter;
mod measure;
mod serve_mix;
mod sims;
mod span;

use measure::Report;

/// What a workload run produced.
pub struct Outcome {
    pub report: Report,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or whose output differed.
    pub failed: u64,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload em3d-sweep|lds-epochs --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The metrics `BENCHMARK.json` declares for this mode, `(name, unit)`
/// in declaration order: `end_to_end` untraced, `per_layer` traced.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = adapter::parse_json(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = if trace { "per_layer" } else { "end_to_end" };
    doc.items(&[list])
        .iter()
        .map(|m| match (m.str(&["name"]), m.str(&["unit"])) {
            (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
            _ => Err(format!("BENCHMARK.json: a {list} entry lacks name or unit")),
        })
        .collect()
}

/// Put the report in declaration order, checking that it reports only
/// declared metrics, with the declared units, and every end-to-end one.
/// A declared per-layer metric the workload does not exercise reads 0.
fn in_declared_order(report: &Report, declared: &[(String, String)], trace: bool) -> Report {
    let mut out = Report::default();
    for (name, unit) in declared {
        match report.get(name) {
            Some(v) => {
                assert_eq!(report.unit(name), Some(unit.as_str()), "unit of {name}");
                out.put(name.clone(), v, unit.clone());
            }
            None if trace => out.put(name.clone(), 0.0, unit.clone()),
            None => panic!("end-to-end metric {name} was not measured"),
        }
    }
    for name in report.names() {
        assert!(
            declared.iter().any(|(n, _)| n == name),
            "metric {name} is not declared in BENCHMARK.json"
        );
    }
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let declared = declared_metrics(args.trace).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let mut outcome = match args.workload.as_str() {
        "em3d-sweep" => sims::run(&sims::EM3D_SWEEP, args.seed, args.seconds, args.trace),
        "lds-epochs" => sims::run(&sims::LDS_EPOCHS, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.trace {
        let spans = span::take();
        for (layer, secs) in span::self_time_by_layer(&spans) {
            outcome.report.put(format!("{layer}.self_s"), secs, "s");
        }
        let path = format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload, args.seed
        );
        match std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, span::chrome_json(&spans)))
        {
            Ok(()) => eprintln!("perfbench: {} spans written to {path}", spans.len()),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    let report = in_declared_order(&outcome.report, &declared, args.trace);
    let correct = outcome.failed == 0;
    println!(
        "{}",
        report.line(correct, outcome.attempted, outcome.failed)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
