//! Pass two: the determinism-contract source lint.
//!
//! The simulator's contract is bit-identical output at any thread and
//! lane count, from counter-based RNG streams keyed by (seed, label,
//! repetition). A handful of constructs silently break that contract
//! when they creep into simulation code:
//!
//! - **host clocks** (`std::time::Instant`, `SystemTime`) — wall-clock
//!   reads make output depend on the machine, not the seed;
//! - **hash collections** (`HashMap`, `HashSet`) — iteration order is
//!   randomized per process, so any iteration leaks nondeterminism
//!   (membership-only use is safe, but earns an explicit allowlist
//!   entry rather than a silent pass);
//! - **ambient RNG** (`thread_rng`, `from_entropy`, `OsRng`,
//!   `rand::random`) — draws outside the keyed-stream discipline;
//! - **`static mut`** — cross-thread mutable state with no ordering;
//! - **`unsafe`** — code the compiler no longer checks, which could
//!   break any of the above unseen. Each use is one audited allowlist
//!   entry, so a first `unsafe` in a file cannot land silently.
//!
//! [`scan_source`] is the pure core: it walks one file's lines, strips
//! `//` comments, skips `#[cfg(test)]` items (test code may time and
//! hash freely), and reports every token match. The `hpm-analyze --src`
//! binary applies it to every `crates/*/src/**.rs` file and then
//! [`apply_allowlist`]. Exemptions live in one committed file
//! (`crates/analyze/allowlist.txt`), one line per `path-prefix rule`
//! pair, so every exception to the contract is visible in review — and
//! an entry that suppresses no finding is itself an error, so an
//! exception outlives neither the code nor the rule it excused.

use std::path::Path;

/// One lint hit: file, 1-based line, rule name, offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub token: String,
}

impl std::fmt::Display for LintFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] forbidden token `{}`",
            self.path, self.line, self.rule, self.token
        )
    }
}

/// The rule table: rule name → forbidden tokens. Tokens match on
/// identifier boundaries (so `Instant` does not fire inside
/// `InstantArray`).
pub const RULES: &[(&str, &[&str])] = &[
    ("host-clock", &["Instant", "SystemTime"]),
    ("hash-collection", &["HashMap", "HashSet"]),
    (
        "ambient-rng",
        &["thread_rng", "from_entropy", "OsRng", "rand::random"],
    ),
    ("static-mut", &["static mut"]),
    ("unsafe-code", &["unsafe"]),
];

/// One allowlist entry: findings under `path_prefix` whose rule matches
/// `rule` (or `*`) are suppressed.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub path_prefix: String,
    pub rule: String,
}

/// Parses the committed allowlist format: one `path-prefix rule` pair
/// per line, `#` starts a comment, blank lines ignored.
#[must_use]
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let mut parts = l.split_whitespace();
            let path_prefix = parts.next().unwrap_or("").to_string();
            let rule = parts.next().unwrap_or("*").to_string();
            AllowEntry { path_prefix, rule }
        })
        .collect()
}

impl AllowEntry {
    /// True when this entry suppresses `f`.
    fn covers(&self, f: &LintFinding) -> bool {
        f.path.starts_with(&self.path_prefix) && (self.rule == "*" || self.rule == f.rule)
    }
}

/// Splits `raw`, the findings of a scan, by `allow`: returns the findings
/// no entry covers, and one error per entry that covers none — a stale
/// exemption, whose code or rule has gone.
#[must_use]
pub fn apply_allowlist(
    allow: &[AllowEntry],
    raw: Vec<LintFinding>,
) -> (Vec<LintFinding>, Vec<String>) {
    let stale = allow
        .iter()
        .filter(|e| !raw.iter().any(|f| e.covers(f)))
        .map(|e| {
            format!(
                "allowlist.txt: entry `{} {}` suppresses no finding",
                e.path_prefix, e.rule
            )
        })
        .collect();
    let kept = raw
        .into_iter()
        .filter(|f| !allow.iter().any(|e| e.covers(f)))
        .collect();
    (kept, stale)
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// True when `needle` occurs in `line` on identifier boundaries.
fn token_match(line: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok = at == 0 || !is_ident(line[..at].chars().next_back().unwrap_or(' '));
        let after = at + needle.len();
        let after_ok =
            after >= line.len() || !is_ident(line[after..].chars().next().unwrap_or(' '));
        if before_ok && after_ok {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Yields `(line_index, comment-stripped line)` for every line outside
/// `#[cfg(test)]` items. After the attribute (and any further
/// attributes), the next item is swallowed — brace-delimited (a `mod`
/// or `fn`) or `;`-terminated (a `use`). Shared by the token lint and
/// the stream-label scanner so both see the same "library source".
fn live_lines(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut pending_cfg_test = false;
    let mut skipping = false;
    let mut depth: i64 = 0;
    let mut seen_open = false;
    let track = |line: &str, depth: &mut i64, seen_open: &mut bool, skipping: &mut bool| {
        for c in line.chars() {
            match c {
                '{' => {
                    *depth += 1;
                    *seen_open = true;
                }
                '}' => *depth -= 1,
                ';' if !*seen_open && *depth == 0 => *skipping = false,
                _ => {}
            }
        }
        if *seen_open && *depth <= 0 {
            *skipping = false;
        }
    };
    for (idx, raw) in source.lines().enumerate() {
        let line = raw.split("//").next().unwrap_or("");
        if skipping {
            track(line, &mut depth, &mut seen_open, &mut skipping);
            continue;
        }
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            if trimmed.starts_with("#[") || trimmed.is_empty() {
                continue;
            }
            pending_cfg_test = false;
            skipping = true;
            depth = 0;
            seen_open = false;
            track(line, &mut depth, &mut seen_open, &mut skipping);
            continue;
        }
        out.push((idx, line.to_string()));
    }
    out
}

/// Scans one file's source text. `path` is the repo-relative label used
/// for reporting and allowlist matching.
#[must_use]
pub fn scan_source(path: &str, source: &str) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    for (idx, line) in live_lines(source) {
        for (rule, tokens) in RULES {
            for needle in *tokens {
                if token_match(&line, needle) {
                    findings.push(LintFinding {
                        path: path.to_string(),
                        line: idx + 1,
                        rule,
                        token: (*needle).to_string(),
                    });
                }
            }
        }
    }
    findings
}

/// Walks `root` for `crates/*/src/**.rs` plus the facade `src/*.rs` and
/// scans every file. Paths are visited in sorted order so the report is
/// deterministic.
pub fn scan_tree(root: &Path) -> std::io::Result<Vec<LintFinding>> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files)?;
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        // The contract covers library code: `src/` trees only. Bench
        // harnesses and integration tests may time and hash freely.
        if !(rel.starts_with("src/") || rel.contains("/src/")) {
            continue;
        }
        let source = std::fs::read_to_string(&f)?;
        findings.extend(scan_source(&rel, &source));
    }
    Ok(findings)
}

/// One keyed-stream label declaration: `const NAME_LABEL: u64 = VALUE;`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelDecl {
    pub path: String,
    pub line: usize,
    pub name: String,
    pub value: u64,
}

/// Extracts every `const *_LABEL: u64` declaration from one file's
/// source. Labels partition the SplitMix64 stream space (see DESIGN.md,
/// "The jitter engine"); this scanner feeds the registry audit that
/// keeps them collision-free.
#[must_use]
pub fn scan_labels(path: &str, source: &str) -> Vec<LabelDecl> {
    let mut out = Vec::new();
    for (idx, line) in live_lines(source) {
        let line = line.trim();
        let rest = line
            .strip_prefix("pub const ")
            .or_else(|| line.strip_prefix("pub(crate) const "))
            .or_else(|| line.strip_prefix("const "));
        let Some(rest) = rest else { continue };
        let Some((name, tail)) = rest.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if !name.ends_with("_LABEL") {
            continue;
        }
        let Some((ty, val)) = tail.split_once('=') else {
            continue;
        };
        if ty.trim() != "u64" {
            continue;
        }
        let val = val.trim().trim_end_matches(';').trim().replace('_', "");
        let value = if let Some(hex) = val.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).ok()
        } else {
            val.parse().ok()
        };
        if let Some(value) = value {
            out.push(LabelDecl {
                path: path.to_string(),
                line: idx + 1,
                name: name.to_string(),
                value,
            });
        }
    }
    out
}

/// Parses the committed label registry (`crates/analyze/stream_labels.txt`):
/// one `NAME VALUE` pair per line, `#` comments, `_` digit separators.
#[must_use]
pub fn parse_label_registry(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let name = parts.next()?.to_string();
            let val = parts.next()?.replace('_', "");
            let value = if let Some(hex) = val.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).ok()?
            } else {
                val.parse().ok()?
            };
            Some((name, value))
        })
        .collect()
}

/// Audits the declared labels against the committed registry. Errors:
/// a declaration missing from the registry, a registry/declaration
/// value mismatch, a stale registry entry with no declaration, and —
/// the one that actually corrupts physics — two labels sharing a value,
/// which silently correlates two subsystems' randomness.
#[must_use]
pub fn check_labels(decls: &[LabelDecl], registry: &[(String, u64)]) -> Vec<String> {
    let mut errors = Vec::new();
    for d in decls {
        match registry.iter().find(|(n, _)| *n == d.name) {
            None => errors.push(format!(
                "{}:{}: stream label {} = {:#x} is not registered in stream_labels.txt",
                d.path, d.line, d.name, d.value
            )),
            Some((_, v)) if *v != d.value => errors.push(format!(
                "{}:{}: stream label {} declares {:#x} but the registry records {v:#x}",
                d.path, d.line, d.name, d.value
            )),
            _ => {}
        }
    }
    for (n, _) in registry {
        if !decls.iter().any(|d| &d.name == n) {
            errors.push(format!(
                "stream_labels.txt: registered label {n} has no declaration in the source tree"
            ));
        }
    }
    for (i, a) in decls.iter().enumerate() {
        for b in &decls[i + 1..] {
            if a.value == b.value && a.name != b.name {
                errors.push(format!(
                    "stream label collision: {} ({}:{}) and {} ({}:{}) share {:#x}",
                    a.name, a.path, a.line, b.name, b.path, b.line, a.value
                ));
            }
        }
    }
    errors
}

/// Walks the same `crates/*/src` + facade tree as [`scan_tree`] and
/// collects every stream-label declaration, in sorted file order.
pub fn scan_labels_tree(root: &Path) -> std::io::Result<Vec<LabelDecl>> {
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files)?;
    collect_rs(&root.join("src"), &mut files)?;
    files.sort();
    let mut decls = Vec::new();
    for f in files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .replace('\\', "/");
        if !(rel.starts_with("src/") || rel.contains("/src/")) {
            continue;
        }
        let source = std::fs::read_to_string(&f)?;
        decls.extend(scan_labels(&rel, &source));
    }
    Ok(decls)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_hit(src: &str) -> Vec<&'static str> {
        scan_source("crates/x/src/lib.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn flags_each_rule() {
        assert_eq!(rules_hit("let t = Instant::now();"), vec!["host-clock"]);
        assert_eq!(rules_hit("let t = SystemTime::now();"), vec!["host-clock"]);
        assert_eq!(
            rules_hit("use std::collections::HashMap;"),
            vec!["hash-collection"]
        );
        assert_eq!(
            rules_hit("let s: HashSet<u32> = x;"),
            vec!["hash-collection"]
        );
        assert_eq!(
            rules_hit("let mut rng = thread_rng();"),
            vec!["ambient-rng"]
        );
        assert_eq!(
            rules_hit("let x: f64 = rand::random();"),
            vec!["ambient-rng"]
        );
        assert_eq!(
            rules_hit("static mut COUNTER: u64 = 0;"),
            vec!["static-mut"]
        );
        assert_eq!(rules_hit("let v = unsafe { *ptr };"), vec!["unsafe-code"]);
        assert_eq!(
            rules_hit("unsafe fn kernel(out: &mut [f64]) {"),
            vec!["unsafe-code"]
        );
    }

    #[test]
    fn token_boundaries_respected() {
        assert!(rules_hit("struct InstantArray;").is_empty());
        assert!(rules_hit("let my_hash_map_like = 1;").is_empty());
        assert!(rules_hit("fn instant() {}").is_empty());
        assert!(rules_hit("#![deny(unsafe_op_in_unsafe_fn)]").is_empty());
    }

    #[test]
    fn comments_do_not_fire() {
        assert!(rules_hit("// a HashMap would break determinism here").is_empty());
        assert!(rules_hit("/// never use Instant in the simulator").is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped() {
        let src = "\
#[cfg(test)]
mod tests {
    use std::time::Instant;
    #[test]
    fn times_something() {
        let t = Instant::now();
        let m = std::collections::HashMap::new();
    }
}
let live = 1;
";
        assert!(rules_hit(src).is_empty());
        // …but live code after the module is still scanned.
        let src2 = format!("{src}\nlet t = Instant::now();\n");
        assert_eq!(rules_hit(&src2), vec!["host-clock"]);
    }

    #[test]
    fn cfg_test_use_statement_is_skipped() {
        let src = "#[cfg(test)]\nuse std::collections::HashSet;\nlet live = HashMap::new();\n";
        let found = scan_source("crates/x/src/lib.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].token, "HashMap");
        assert_eq!(found[0].line, 3);
    }

    /// `apply_allowlist` over the findings of one file.
    fn allowed_scan(path: &str, src: &str, allow: &[AllowEntry]) -> Vec<LintFinding> {
        apply_allowlist(allow, scan_source(path, src)).0
    }

    #[test]
    fn allowlist_suppresses_by_prefix_and_rule() {
        let allow = parse_allowlist(
            "# exemptions\n\
             crates/compat/ host-clock  # vendored stand-ins\n\
             crates/x/src/special.rs *\n",
        );
        assert!(allowed_scan(
            "crates/compat/criterion/src/lib.rs",
            "Instant::now();",
            &allow
        )
        .is_empty());
        // Same rule elsewhere still fires.
        assert_eq!(
            allowed_scan("crates/y/src/lib.rs", "Instant::now();", &allow).len(),
            1
        );
        // The wildcard entry covers every rule for that file.
        assert!(
            allowed_scan("crates/x/src/special.rs", "static mut X: u8 = 0;", &allow).is_empty()
        );
        // …but only host-clock is exempt under compat.
        assert_eq!(
            allowed_scan("crates/compat/rand/src/lib.rs", "thread_rng();", &allow).len(),
            1
        );
    }

    #[test]
    fn allowlist_entry_that_suppresses_nothing_is_stale() {
        let allow = parse_allowlist(
            "crates/x/src/clock.rs host-clock\n\
             crates/x/src/clock.rs hash-collection  # no HashMap left\n\
             crates/gone/ *\n",
        );
        let raw = scan_source("crates/x/src/clock.rs", "let t = Instant::now();");
        let (kept, stale) = apply_allowlist(&allow, raw);
        assert!(kept.is_empty(), "{kept:?}");
        assert_eq!(
            stale,
            [
                "allowlist.txt: entry `crates/x/src/clock.rs hash-collection` suppresses no finding",
                "allowlist.txt: entry `crates/gone/ *` suppresses no finding",
            ]
        );
        // With no finding at all, every entry is stale.
        assert_eq!(apply_allowlist(&allow, Vec::new()).1.len(), 3);
    }

    #[test]
    fn findings_report_position() {
        let found = scan_source("crates/x/src/lib.rs", "let a = 1;\nlet t = Instant::now();");
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);
        assert_eq!(found[0].path, "crates/x/src/lib.rs");
        assert!(found[0].to_string().contains("host-clock"));
    }

    #[test]
    fn label_scanner_parses_declarations() {
        let src = "\
pub const SYNC_JITTER_LABEL: u64 = 0x5253_594E; // b\"RSYN\"
pub(crate) const DROP_LABEL: u64 = 99;
const NOT_A_LABEL: u32 = 7;
const OTHER_CONST: u64 = 3;
// const COMMENTED_LABEL: u64 = 1;
";
        let decls = scan_labels("crates/x/src/lib.rs", src);
        assert_eq!(decls.len(), 2);
        assert_eq!(decls[0].name, "SYNC_JITTER_LABEL");
        assert_eq!(decls[0].value, 0x5253_594E);
        assert_eq!(decls[0].line, 1);
        assert_eq!(decls[1].name, "DROP_LABEL");
        assert_eq!(decls[1].value, 99);
    }

    #[test]
    fn label_registry_audit_catches_drift() {
        let registry = parse_label_registry(
            "# comment\nA_LABEL 0x10\nB_LABEL 0x2_0 # inline\nSTALE_LABEL 0x30\n",
        );
        assert_eq!(registry.len(), 3);
        let decl = |name: &str, value: u64| LabelDecl {
            path: "crates/x/src/lib.rs".to_string(),
            line: 1,
            name: name.to_string(),
            value,
        };
        // Clean: both registered labels declared at their recorded values.
        let clean = [decl("A_LABEL", 0x10), decl("B_LABEL", 0x20)];
        let errors = check_labels(&clean, &registry);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("STALE_LABEL"));
        // Unregistered declaration, value mismatch, and a collision.
        let dirty = [
            decl("A_LABEL", 0x10),
            decl("B_LABEL", 0x99),
            decl("ROGUE_LABEL", 0x10),
            decl("STALE_LABEL", 0x30),
        ];
        let errors = check_labels(&dirty, &registry);
        assert!(errors
            .iter()
            .any(|e| e.contains("ROGUE_LABEL") && e.contains("not registered")));
        assert!(errors
            .iter()
            .any(|e| e.contains("B_LABEL") && e.contains("registry records")));
        assert!(errors.iter().any(|e| e.contains("collision")));
    }

    #[test]
    fn workspace_labels_match_committed_registry() {
        // The real tree against the real registry — the same audit the
        // CI binary runs, pinned as a unit test so a new stream label
        // cannot land without its registration.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .expect("workspace root")
            .to_path_buf();
        let registry_text = std::fs::read_to_string(root.join("crates/analyze/stream_labels.txt"))
            .expect("read stream_labels.txt");
        let registry = parse_label_registry(&registry_text);
        let decls = scan_labels_tree(&root).expect("scan workspace labels");
        assert!(!decls.is_empty(), "label scan found nothing");
        let errors = check_labels(&decls, &registry);
        assert!(errors.is_empty(), "{errors:#?}");
    }
}
