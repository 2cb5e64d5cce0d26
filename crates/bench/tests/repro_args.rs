//! `repro` command-line errors: a malformed command line prints the
//! reason and the usage line and exits 2 — before any experiment runs,
//! and never through a panic (exit 101).

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

#[test]
fn malformed_command_lines_print_usage_and_exit_2() {
    let cases: [&[&str]; 13] = [
        &[],
        &["--out"],
        &["--threads"],
        &["--json"],
        &["--threads", "abc"],
        &["--effort"],
        &["--effort", "heroic"],
        &["fig5_2", "--out"],
        &["--bogus"],
        &["--quick"],
        &["--out", "x"],
        &["--effort", "quick"],
        &["--threads", "0"],
    ];
    for args in cases {
        let out = repro(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn unknown_id_exits_2_and_list_prints_the_registry() {
    let out = repro(&["fig99_9"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment id: fig99_9"));

    let out = repro(&["list"]);
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
        .collect();
    let ids: Vec<&str> = hpm_bench::registry().iter().map(|e| e.id).collect();
    assert_eq!(listed, ids);
}

/// Bare `--check` with no ids only checks an existing output directory:
/// it exits 0 and its summary line reports no negative zero.
#[test]
fn bare_check_exits_0_without_negative_zero() {
    let dir = std::env::temp_dir().join(format!("repro-bare-check-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 path");
    let run = repro(&["--effort", "quick", "--out", dir_arg, "faults", "recovery"]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let out = repro(&["--check", "--out", dir_arg]);
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(!stdout.contains("-0.0"), "{stdout}");
}
