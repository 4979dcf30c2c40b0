//! The `reproduce` command line: an unknown artifact exits 2 before any
//! artifact runs, and its message lists every artifact name.

use std::process::Command;

#[test]
fn unknown_artifact_exits_2_listing_every_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("fig3")
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no artifact may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("reproduce: unknown artifact fig3"),
        "{stderr}"
    );
    for name in [
        "table1",
        "table2",
        "selection",
        "table2paper",
        "fig2",
        "fig4",
        "fig5",
        "fig6",
        "ablations",
        "all",
    ] {
        assert!(
            stderr
                .lines()
                .any(|l| l.split_whitespace().next() == Some(name)),
            "{name} missing from:\n{stderr}"
        );
    }
}
