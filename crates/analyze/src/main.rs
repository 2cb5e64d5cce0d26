//! `hpm-analyze` — the determinism-contract source lint, as a binary.
//!
//! ```text
//! hpm-analyze --src [--root DIR] [--allowlist FILE]
//! ```
//!
//! Walks `crates/*/src` (plus the facade `src/`) under the workspace
//! root, reports every determinism-contract violation and every `pub`
//! item no non-test code names (`dead-pub`; `examples/` and
//! `benchmark/src` count as callers) not covered by the committed
//! allowlist, and every allowlist entry that covers none, and exits 1
//! on any of them — the CI
//! `analyze` job's first half. (The second half, the plan analyzer over
//! the experiment registry, runs as `repro analyze`; it lives in the
//! bench crate because only the registry knows every pattern and its
//! registered process count.)
//!
//! The same pass audits the keyed-stream label registry: every
//! `const *_LABEL: u64` declaration must appear in
//! `crates/analyze/stream_labels.txt` at its declared value, with no
//! two labels sharing a value (`--labels FILE` overrides the registry
//! path).

use hpm_analyze::lint;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut src_mode = false;
    let mut root = PathBuf::from(".");
    let mut allowlist: Option<PathBuf> = None;
    let mut labels: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--src" => src_mode = true,
            "--root" => root = value_of(&a, it.next()),
            "--allowlist" => allowlist = Some(value_of(&a, it.next())),
            "--labels" => labels = Some(value_of(&a, it.next())),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if !src_mode {
        usage();
    }
    let allow_path = allowlist.unwrap_or_else(|| root.join("crates/analyze/allowlist.txt"));
    let allow_text = std::fs::read_to_string(&allow_path).unwrap_or_else(|e| {
        eprintln!("cannot read allowlist {}: {e}", allow_path.display());
        std::process::exit(2);
    });
    let allow = lint::parse_allowlist(&allow_text);
    let raw = lint::scan_tree(&root).unwrap_or_else(|e| {
        eprintln!("scan failed under {}: {e}", root.display());
        std::process::exit(2);
    });
    let (findings, stale) = lint::apply_allowlist(&allow, raw);
    for f in &findings {
        println!("{f}");
    }
    for e in &stale {
        println!("{e}");
    }
    let labels_path = labels.unwrap_or_else(|| root.join("crates/analyze/stream_labels.txt"));
    let registry_text = std::fs::read_to_string(&labels_path).unwrap_or_else(|e| {
        eprintln!("cannot read label registry {}: {e}", labels_path.display());
        std::process::exit(2);
    });
    let registry = lint::parse_label_registry(&registry_text);
    let decls = lint::scan_labels_tree(&root).unwrap_or_else(|e| {
        eprintln!("label scan failed under {}: {e}", root.display());
        std::process::exit(2);
    });
    let label_errors = lint::check_labels(&decls, &registry);
    for e in &label_errors {
        println!("{e}");
    }
    if findings.is_empty() && stale.is_empty() && label_errors.is_empty() {
        let dead_pub = allow.iter().filter(|e| e.rule == lint::DEAD_PUB).count();
        println!(
            "source lint clean ({} allowlist entries, {dead_pub} of them dead-pub exemptions, {} stream labels audited)",
            allow.len(),
            decls.len()
        );
    } else {
        eprintln!(
            "{} source-lint findings, {} stale allowlist entries, {} stream-label errors",
            findings.len(),
            stale.len(),
            label_errors.len()
        );
        std::process::exit(1);
    }
}

/// The value after option `flag`; a missing one is a usage error.
fn value_of(flag: &str, value: Option<String>) -> PathBuf {
    value.map(PathBuf::from).unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        usage()
    })
}

/// Prints the usage line and exits 2.
fn usage() -> ! {
    eprintln!("usage: hpm-analyze --src [--root DIR] [--allowlist FILE] [--labels FILE]");
    std::process::exit(2);
}
