//! The acceptance gate as a test: every pattern reachable from the
//! `repro` registry analyzes clean, structurally and against its
//! knowledge goal — the same sweep `repro analyze` (and the CI
//! `analyze` job) runs.

use hpm_analyze::Severity;
use hpm_bench::analyze::{analyze_registry, pattern_registry};

#[test]
fn every_registry_pattern_analyzes_clean() {
    for (id, diags) in analyze_registry() {
        assert!(diags.is_empty(), "{id} has diagnostics: {diags:?}");
    }
}

#[test]
fn registry_warnings_also_gate() {
    // The gate is zero diagnostics, not zero errors: dead-rank warnings
    // count. Confirm the distinction is observable by breaking a plan.
    use hpm_core::plan::CompiledPattern;
    let lonely = CompiledPattern::from_stage_edges("lonely", 3, &[vec![(0, 1), (1, 0)]]);
    let diags = hpm_analyze::analyze(&lonely);
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
    assert!(!diags.is_empty());
}

#[test]
fn registry_reaches_the_scale_path() {
    // dissemination_plan at p = 4096 is the largest plan any experiment
    // executes; the analyzer must handle it (and its 16.7M-pair
    // knowledge tables) without blowing up.
    let reg = pattern_registry();
    let largest = reg
        .iter()
        .map(|r| r.plan.p())
        .max()
        .expect("registry is non-empty");
    assert_eq!(largest, 4096);
}

/// Golden pin of the k-crash verdicts (PR 16, struck on the parent's
/// counting recurrence): for every registry plan at p ≤ 256, every
/// sampled crash set of size 1 and 2, the `(root_crashed,
/// uninformed_pairs)` tuple. The verdict only asks whether a survivor
/// pair is reachable, so a reachability verifier must reproduce it
/// exactly.
#[test]
fn k_crash_verdicts_match_goldens() {
    use hpm_bench::analyze::crash_sets;
    let word = |h: u64, w: u64| (h ^ w).wrapping_mul(0x100000001b3);
    let mut analyzer = hpm_analyze::Analyzer::new();
    let mut h: u64 = 0xcbf29ce484222325;
    let mut verdicts = 0usize;
    for r in pattern_registry().iter().filter(|r| r.plan.p() <= 256) {
        for k in [1usize, 2] {
            for set in crash_sets(r.plan.p(), k) {
                let v = analyzer.k_crash_coverage(&r.plan, r.goal, &set);
                h = word(word(h, v.root_crashed as u64), v.uninformed_pairs as u64);
                verdicts += 1;
            }
        }
    }
    assert_eq!(verdicts, 30 * 2 * 64);
    assert_eq!(h, 0x9520e4aaa8084b0c, "a k-crash verdict moved");
}
