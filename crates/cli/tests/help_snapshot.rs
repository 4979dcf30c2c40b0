//! Snapshot test of every `spt` help page: the top-level usage plus
//! `spt <command> --help` for each subcommand, pinned byte-for-byte in
//! one fixture so any flag change is a deliberate fixture update.
//!
//! Re-bless after an intentional change:
//!
//! ```text
//! SP_BLESS=1 cargo test -p sp-cli --test help_snapshot
//! ```

use std::path::PathBuf;
use std::process::Command;

/// The command names listed in the `COMMANDS:` block of `spt --help`:
/// each entry line is indented by exactly two spaces, its continuation
/// lines by more. Reading them from the binary keeps one list, so a new
/// command's page joins the fixture without editing this test.
fn listed_commands() -> Vec<String> {
    let top = spt(&["--help"]);
    assert!(top.status.success(), "spt --help failed");
    let usage = String::from_utf8(top.stdout).unwrap();
    let commands: Vec<String> = usage
        .lines()
        .skip_while(|l| *l != "COMMANDS:")
        .skip(1)
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.strip_prefix("  "))
        .filter(|l| !l.starts_with(' '))
        .map(|l| l.split_whitespace().next().unwrap().to_string())
        .collect();
    assert!(!commands.is_empty(), "no COMMANDS: block in spt --help");
    commands
}

fn spt(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_spt"))
        .args(args)
        .output()
        .expect("run spt")
}

#[test]
fn help_pages_match_fixture() {
    let mut snapshot = String::new();
    let top = spt(&["--help"]);
    assert!(top.status.success(), "spt --help failed");
    snapshot.push_str("===== spt --help =====\n");
    snapshot.push_str(&String::from_utf8(top.stdout).unwrap());
    for cmd in listed_commands() {
        let out = spt(&[&cmd, "--help"]);
        assert!(out.status.success(), "spt {cmd} --help failed");
        assert!(out.stderr.is_empty(), "spt {cmd} --help wrote to stderr");
        snapshot.push_str(&format!("===== spt {cmd} --help =====\n"));
        snapshot.push_str(&String::from_utf8(out.stdout).unwrap());
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/help.txt");
    if std::env::var_os("SP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &snapshot).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); run with SP_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, snapshot,
        "help output drifted; if intentional, re-bless with SP_BLESS=1"
    );
}

#[test]
fn unknown_command_help_fails_cleanly() {
    let out = spt(&["warp", "--help"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"), "stderr: {err}");
}

#[test]
fn every_listed_command_is_dispatchable() {
    // A command with a help page but no dispatch arm (or vice versa)
    // would pass the snapshot; catch it by exercising the parser. An
    // unknown *flag-less* invocation of each command must not report
    // "unknown command" (anything else — missing flags, run output — is
    // command-specific and fine here).
    for cmd in listed_commands() {
        if cmd == "serve" || cmd == "loadgen" || cmd == "top" {
            continue; // would bind a socket / need a daemon
        }
        let out = spt(&[&cmd, "--bad-flag"]);
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            !err.contains("unknown command"),
            "spt {cmd} not dispatched: {err}"
        );
    }
}
