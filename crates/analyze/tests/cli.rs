//! The `hpm-analyze` binary end to end: its exit codes on a malformed
//! command line, on the workspace itself and on a small tree with a
//! `pub` item only a test calls.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn hpm_analyze(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hpm-analyze"))
        .args(args)
        .output()
        .expect("run hpm-analyze")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn an_option_without_its_value_prints_usage_and_exits_2() {
    for flag in ["--root", "--allowlist", "--labels"] {
        let out = hpm_analyze(&["--src", flag]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = text(&out.stderr);
        assert!(err.contains("usage: hpm-analyze --src"), "{flag}: {err}");
        assert!(
            err.contains(&format!("{flag} needs a value")),
            "{flag}: {err}"
        );
    }
    assert_eq!(hpm_analyze(&["--src", "--bogus"]).status.code(), Some(2));
    assert_eq!(hpm_analyze(&[]).status.code(), Some(2));
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn the_workspace_passes_its_own_source_lint() {
    let root = workspace_root();
    let out = hpm_analyze(&["--src", "--root", &root.to_string_lossy()]);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", text(&out.stderr));
    assert!(stdout.contains("dead-pub exemptions"), "{stdout}");
}

/// A `pub fn` that only its own `#[cfg(test)]` module calls fails the
/// lint, named by file, line and item; a call from `examples/` clears it.
#[test]
fn a_pub_item_only_tests_call_fails_until_an_example_calls_it() {
    let root = std::env::temp_dir().join(format!("hpm-analyze-cli-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let write = |rel: &str, body: &str| {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, body).expect("write");
    };
    write("crates/analyze/allowlist.txt", "");
    write("crates/analyze/stream_labels.txt", "");
    write(
        "crates/x/src/lib.rs",
        "//! A crate.\n\npub fn helper() -> u32 {\n    7\n}\n\n\
         #[cfg(test)]\nmod tests {\n    #[test]\n    fn seven() {\n        \
         assert_eq!(super::helper(), 7);\n    }\n}\n",
    );
    let root_arg = root.to_string_lossy().into_owned();
    let out = hpm_analyze(&["--src", "--root", &root_arg]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("crates/x/src/lib.rs:3: [dead-pub]") && stdout.contains("`helper`"),
        "{stdout}"
    );
    write("examples/demo.rs", "fn main() {\n    x::helper();\n}\n");
    let out = hpm_analyze(&["--src", "--root", &root_arg]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stdout));
    std::fs::remove_dir_all(&root).ok();
}
