//! Bakes the checkout's `git describe` into the binary for the
//! `sp_build_info` metric. Falls back to "unknown" outside a git
//! checkout (e.g. a source tarball) so builds never fail on it.

use std::path::Path;
use std::process::Command;

/// The trimmed stdout of a successful, non-empty `git` run.
fn git(args: &[&str]) -> Option<String> {
    Command::new("git")
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn main() {
    let describe = git(&["describe", "--tags", "--always", "--dirty"])
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=SP_GIT_DESCRIBE={describe}");
    // Re-run when the checkout moves: HEAD changes on a checkout, the
    // branch ref it names on a commit, and packed-refs when git packs
    // refs. Only existing paths are watched, since cargo re-runs a build
    // script on every build while a watched path is missing. A packed
    // branch ref has no file until the next commit writes one, so its
    // nearest existing directory stands in until then. `-dirty` is only
    // as fresh as the last re-run.
    let path_of = |name: &str| git(&["rev-parse", "--git-path", name]);
    let mut watch: Vec<String> = ["HEAD", "packed-refs"]
        .into_iter()
        .filter_map(path_of)
        .filter(|p| Path::new(p).exists())
        .collect();
    let branch = git(&["symbolic-ref", "-q", "HEAD"]).and_then(|r| path_of(&r));
    if let Some(branch) = branch {
        watch.extend(
            Path::new(&branch)
                .ancestors()
                .find(|p| p.exists())
                .map(|p| p.display().to_string()),
        );
    }
    for path in watch {
        println!("cargo:rerun-if-changed={path}");
    }
}
