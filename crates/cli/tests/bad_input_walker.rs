//! Walks every `spt` command's declared flags with bad input and runs
//! the binary on each: an undeclared flag, a bad value of each declared
//! flag's kind, every broken L2-geometry rule, and an RP the distance
//! cannot schedule. Each run must exit 2 with exactly one `spt:` line
//! on stderr and no panic.
//!
//! The flags come from the same tables the parser and the help pages
//! use (`sp_cli::help::COMMANDS`), so a new flag is walked without
//! editing this test. The walker runs the `spt` binary cargo built for
//! the profile under test; `cargo test --release` walks the release
//! build.
//!
//! Every value passed to a thread or connection count (`--jobs`,
//! `--workers`, `--concurrency`) is one the parser rejects, so no run
//! starts a thread pool, a daemon or a client.

use sp_cli::args::Kind;
use sp_cli::help::{Command, COMMANDS};
use std::process::Command as Process;

/// Values the parser must reject for a flag of `kind`.
fn bad_values(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Switch | Kind::OnOff => &["maybe"],
        Kind::Positive => &["abc", "-1", "0"],
        Kind::Count => &["abc", "-1"],
        Kind::Ratio => &["abc", "2", "nan"],
        Kind::Enum(_) => &["abc"],
        Kind::List => &["abc", "-1"],
        Kind::Path => &[""],
        Kind::Text => &[],
    }
}

/// Geometry overrides each of which breaks one `CacheGeometry` or
/// `CacheConfig` rule: sizes that are zero, not a power of two, past
/// the cap or overflowing the KiB conversion; ways that are zero, not a
/// power of two or past the cap; 64 ways of 64-byte lines in 1 KiB; a
/// 128-byte L2 line beside the 64-byte L1 line.
const GEOMETRY_ROWS: &[&[&str]] = &[
    &["--l2-kb", "0"],
    &["--l2-kb", "3"],
    &["--l2-kb", "18014398509481984"],
    &["--l2-kb", "524288"],
    &["--ways", "0"],
    &["--ways", "3"],
    &["--ways", "256"],
    &["--line", "7"],
    &["--line", "128"],
    &["--l2-kb", "1", "--ways", "64"],
];

/// Flags every run of `cmd` carries so that only the bad input can stop
/// it: the tiny input size, and the destination a command requires.
fn base_args(cmd: &Command, out: &str) -> Vec<String> {
    let mut base = Vec::new();
    if cmd.flag("size").is_some() {
        base.extend(["--size".to_string(), "tiny".to_string()]);
    }
    if matches!(cmd.name(), "dump" | "trace") {
        base.extend(["--out".to_string(), out.to_string()]);
    }
    base
}

/// Run `spt <cmd> <base> <bad>` and check the exit-2 contract; the one
/// `spt:` line must mention `mention`.
fn expect_rejected(cmd: &Command, base: &[String], bad: &[&str], mention: &str) {
    let out = Process::new(env!("CARGO_BIN_EXE_spt"))
        .arg(cmd.name())
        .args(base)
        .args(bad)
        .output()
        .expect("run spt");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let shown = format!("spt {} {} {}", cmd.name(), base.join(" "), bad.join(" "));
    assert_eq!(out.status.code(), Some(2), "{shown}: stderr {stderr}");
    assert!(!stderr.contains("panicked"), "{shown}: {stderr}");
    let lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("spt:")).collect();
    assert_eq!(lines.len(), 1, "{shown}: {stderr}");
    assert!(
        lines[0].contains(mention),
        "{shown}: {} lacks {mention}",
        lines[0]
    );
}

#[test]
fn every_bad_flag_exits_2_with_one_line() {
    let dir = std::env::temp_dir().join(format!("spt-walker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("out").to_string_lossy().into_owned();
    let mut runs = 0;
    for cmd in &COMMANDS {
        let base = base_args(cmd, &out);
        expect_rejected(cmd, &base, &["--l2kb", "8"], "--l2kb");
        runs += 1;
        let declared = cmd.flags.iter().chain(cmd.common.iter().copied().flatten());
        for flag in declared {
            let name = format!("--{}", flag.name);
            for value in bad_values(flag.kind) {
                expect_rejected(cmd, &base, &[&name, value], &name);
                runs += 1;
            }
        }
        if cmd.flag("l2-kb").is_some() {
            for row in GEOMETRY_ROWS {
                expect_rejected(cmd, &base, row, row[0]);
                runs += 1;
            }
        }
    }
    let events = COMMANDS.iter().find(|c| c.name() == "events").unwrap();
    let base = base_args(events, &out);
    expect_rejected(events, &base, &["--rp", "1", "--distance", "4"], "--rp");
    assert!(runs > 300, "walked only {runs} runs");
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a rejected run wrote its output"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
