//! Property-based tests for the recovery layer's plan surgery:
//! `restrict_to_survivors` pruning and the `repair_plan` synthesizer,
//! cross-checked against the `hpm-analyze` rule set.

use hpm::analyze::{analyze, analyze_with_goal, Analyzer, Severity};
use hpm::barriers::patterns::{binary_tree, dissemination, linear, ring};
use hpm::model::knowledge::KnowledgeGoal;
use hpm::model::pattern::CommPattern;
use hpm::model::plan::CompiledPattern;
use hpm::model::recovery::{remap_goal, repair_plan};
use proptest::prelude::*;

/// SplitMix64 step — random structure sampling without growing the
/// vendored proptest's strategy surface.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A random staged pattern: `n_stages` stages of up to `2p` random
/// non-self edges each (duplicate draws are dropped here — the stage
/// builder rejects them).
fn random_plan(p: usize, n_stages: usize, seed: u64) -> CompiledPattern {
    let mut state = seed;
    let stage_edges: Vec<Vec<(usize, usize)>> = (0..n_stages)
        .map(|_| {
            let draws = 1 + (splitmix(&mut state) as usize) % (2 * p);
            let mut edges: Vec<(usize, usize)> = (0..draws)
                .map(|_| {
                    let i = (splitmix(&mut state) as usize) % p;
                    let j = (splitmix(&mut state) as usize) % p;
                    (i, j)
                })
                .filter(|&(i, j)| i != j)
                .collect();
            edges.sort_unstable();
            edges.dedup();
            edges
        })
        .collect();
    CompiledPattern::from_stage_edges("random", p, &stage_edges)
}

/// A random proper subset of `0..p` with `k` members.
fn random_crash_set(p: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut set = Vec::new();
    while set.len() < k {
        let r = (splitmix(&mut state) as usize) % p;
        if !set.contains(&r) {
            set.push(r);
        }
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pruning any random pattern to any proper survivor set yields a
    /// plan the structural analyzer accepts without a single
    /// error-severity diagnostic: every stage the surgery empties is
    /// dropped, not kept. The CSR invariants need no check here — the
    /// restriction rebuilds through `from_stage_edges`, which enforces
    /// them. (Dead-rank *warnings* are expected — isolating a survivor
    /// is legitimate post-crash shape.)
    #[test]
    fn restricted_plans_pass_structural_analysis(
        p in 2usize..48,
        n_stages in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let plan = random_plan(p, n_stages, seed);
        let k = 1 + (seed as usize) % (p - 1);
        let crashed = random_crash_set(p, k, seed ^ 0xDEAD);
        let restricted = plan.restrict_to_survivors(&crashed);
        prop_assert_eq!(restricted.p(), p - k);
        prop_assert!(restricted.total_signals() <= plan.total_signals());
        let errors: Vec<_> = analyze(&restricted)
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        prop_assert!(errors.is_empty(), "{errors:?}");
    }

    /// Wherever the static k-crash verdict says a *deployed* barrier
    /// survives a crash set, the repair synthesizer must also produce a
    /// plan (re-planning is at least as strong as pruning), and every
    /// synthesized plan must pass the full analyzer — structural rules
    /// and the remapped knowledge goal — with zero diagnostics.
    #[test]
    fn repair_is_at_least_as_strong_as_static_survival(
        p in 2usize..48,
        k in 1usize..3,
        seed in 0u64..1_000_000,
    ) {
        let k = k.min(p - 1);
        let crashed = random_crash_set(p, k, seed);
        let mut an = Analyzer::new();
        for (pattern, goal) in [
            (dissemination(p), KnowledgeGoal::AllToAll),
            (binary_tree(p), KnowledgeGoal::AllToAll),
            (ring(p), KnowledgeGoal::AllToAll),
            (linear(p, 0), KnowledgeGoal::RootGathers(0)),
        ] {
            let plan = pattern.plan();
            let verdict = an.k_crash_coverage(&plan, goal, &crashed);
            let repaired = repair_plan(p, goal, &crashed);
            if verdict.survives() {
                prop_assert!(
                    repaired.is_some(),
                    "{}: statically survivable {crashed:?} must be repairable",
                    plan.name()
                );
            }
            // The analyzer rule is the synthesizer run in the negative.
            prop_assert_eq!(
                an.unrecoverable_crash_set(&plan, goal, &crashed).is_some(),
                repaired.is_none()
            );
            if let Some(rp) = repaired {
                let remapped = remap_goal(goal, p, &crashed)
                    .expect("repairable set has a remappable goal");
                let diags = analyze_with_goal(&rp, remapped);
                prop_assert!(diags.is_empty(), "{}: {diags:?}", rp.name());
            }
        }
    }

    /// Rooted goals are repairable exactly when the root survives; the
    /// synthesized tree is rooted at the root's compacted rank.
    #[test]
    fn rooted_repairs_follow_the_root(
        p in 2usize..48,
        root in 0usize..48,
        seed in 0u64..1_000_000,
    ) {
        let root = root % p;
        let k = 1 + (seed as usize) % (p - 1);
        let crashed = random_crash_set(p, k, seed);
        for goal in [KnowledgeGoal::RootGathers(root), KnowledgeGoal::RootReaches(root)] {
            let repaired = repair_plan(p, goal, &crashed);
            prop_assert_eq!(repaired.is_some(), !crashed.contains(&root));
            if let Some(rp) = repaired {
                prop_assert_eq!(rp.p(), p - k);
                let compact_root = (0..root).filter(|r| !crashed.contains(r)).count();
                let expect = match goal {
                    KnowledgeGoal::RootGathers(_) => KnowledgeGoal::RootGathers(compact_root),
                    _ => KnowledgeGoal::RootReaches(compact_root),
                };
                prop_assert_eq!(remap_goal(goal, p, &crashed), Some(expect));
            }
        }
    }
}
