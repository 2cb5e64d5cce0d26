//! Property-based tests for the recovery layer's plan surgery:
//! `restrict_to_survivors` pruning and the `repair_plan` synthesizer,
//! cross-checked against the `hpm-analyze` rule set.

use hpm::analyze::{analyze, analyze_with_goal, Analyzer, Severity};
use hpm::barriers::patterns::{all_to_all, binary_tree, dissemination, kary_tree, linear, ring};
use hpm::collectives::catalog;
use hpm::model::knowledge::{KnowledgeGoal, VerifyScratch};
use hpm::model::pattern::CommPattern;
use hpm::model::plan::CompiledPattern;
use hpm::model::recovery::{repair_plan, SurvivorMap};
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
                let remapped = SurvivorMap::new(p, &crashed)
                    .goal(goal)
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
                prop_assert_eq!(SurvivorMap::new(p, &crashed).goal(goal), Some(expect));
            }
        }
    }
}

/// The k-crash count as the analyzer took it before it read a
/// [`SurvivorMap`]: every edge incident to a crashed rank pruned, but the
/// rank space and the emptied stages kept, the recurrence run over all
/// `p` ranks and the missing pairs counted between survivors. `None` when
/// the goal's root crashed or is not a rank of the plan.
fn uncompacted_uninformed(
    plan: &CompiledPattern,
    goal: KnowledgeGoal,
    crashed: &[usize],
) -> Option<usize> {
    let p = plan.p();
    let mut dead = vec![false; p];
    for &r in crashed {
        dead[r] = true;
    }
    if goal.root().is_some_and(|r| r >= p || dead[r]) {
        return None;
    }
    let stage_edges: Vec<Vec<(usize, usize)>> = (0..plan.stages())
        .map(|s| {
            let stage = plan.stage(s);
            (0..p)
                .filter(|&i| !dead[i])
                .flat_map(|i| stage.dsts(i).iter().map(move |&j| (i, j as usize)))
                .filter(|&(_, j)| !dead[j])
                .collect()
        })
        .collect();
    let pruned = CompiledPattern::from_stage_edges(plan.name(), p, &stage_edges);
    let missing = VerifyScratch::new()
        .verify(&pruned)
        .missing(goal)
        .filter(|&(i, j)| !dead[i] && !dead[j])
        .count();
    Some(missing)
}

/// `k_crash_coverage` verifies the compacted plan the survivor map
/// prunes to; the count it reports is the uncompacted prune's, pair for
/// pair. Checked over the registry barriers (all-to-all and prefix
/// goals), the collective catalog around a middle root (each with its own
/// goal) and random plans, for every crash set of one rank and every
/// third set of two, at p ∈ {9, 24}. A root outside the plan counts as
/// crashed.
#[test]
fn k_crash_coverage_counts_what_the_uncompacted_prune_counted() {
    let mut an = Analyzer::new();
    let (mut checked, mut lost) = (0usize, 0usize);
    for p in [9usize, 24] {
        let mut cases: Vec<(CompiledPattern, KnowledgeGoal)> = Vec::new();
        for plan in [
            linear(p, 0),
            dissemination(p),
            binary_tree(p),
            kary_tree(p, 4),
            ring(p),
            all_to_all(p),
        ] {
            cases.push((plan.clone(), KnowledgeGoal::Prefix));
            cases.push((plan, KnowledgeGoal::AllToAll));
        }
        for c in catalog(p, p / 2, 64) {
            cases.push((c.compiled().clone(), c.goal()));
        }
        for seed in 0..4 {
            let plan = random_plan(p, 2 + seed as usize, seed);
            cases.push((plan.clone(), KnowledgeGoal::RootReaches(p - 1)));
            cases.push((plan, KnowledgeGoal::AllToAll));
        }
        let singles = (0..p).map(|a| vec![a]);
        let pairs = (0..p)
            .flat_map(|a| (a + 1..p).map(move |b| vec![b, a]))
            .step_by(3);
        for crashed in singles.chain(pairs) {
            for (plan, goal) in &cases {
                let v = an.k_crash_coverage(plan, *goal, &crashed);
                let reference = uncompacted_uninformed(plan, *goal, &crashed);
                let what = format!("{} {goal:?} p={p} crashed {crashed:?}", plan.name());
                assert_eq!(v.root_crashed, reference.is_none(), "{what}");
                assert_eq!(v.uninformed_pairs, reference.unwrap_or(0), "{what}");
                let mut sorted = crashed.clone();
                sorted.sort_unstable();
                assert_eq!(v.crashed, sorted, "{what}");
                checked += 1;
                lost += usize::from(v.uninformed_pairs > 0);
            }
        }
        let plan = dissemination(p);
        let v = an.k_crash_coverage(&plan, KnowledgeGoal::RootGathers(p), &[0]);
        assert!(v.root_crashed && v.uninformed_pairs == 0, "root p={p}");
    }
    // The oracle compares non-zero counts too, not only survivals.
    assert!(
        lost > 0 && lost < checked,
        "{lost} of {checked} verdicts lost pairs"
    );
}
