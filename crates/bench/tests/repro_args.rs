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
