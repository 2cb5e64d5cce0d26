//! Survivor re-planning: synthesize a fresh pattern over the ranks that
//! outlived a crash set.
//!
//! [`CompiledPattern::restrict_to_survivors`] repairs a plan by pruning —
//! which preserves the original pattern's shape but can sever the
//! knowledge flow (a dissemination relay that crashed leaves pairs
//! permanently uninformed, exactly what the analyzer's k-crash coverage
//! rule detects). [`repair_plan`] is the fallback: it ignores the broken
//! plan and re-plans from scratch over the `p' = p - |crashed|`
//! survivors, choosing the canonical shape for the goal —
//!
//! * [`KnowledgeGoal::AllToAll`] / [`KnowledgeGoal::Prefix`]: a
//!   dissemination pattern over the compacted rank space (⌈log₂ p'⌉
//!   stages of `i → (i + 2^s) mod p'`), the §5.5 shape whose knowledge
//!   recurrence saturates every pair;
//! * [`KnowledgeGoal::RootGathers`] / [`KnowledgeGoal::RootReaches`]: a
//!   binomial tree rotated around the surviving root's compacted rank —
//!   gather runs the stages leaf-to-root, broadcast root-to-leaf.
//!
//! The synthesized plan is verified against the remapped goal through
//! the Eq. 5.1/5.2 knowledge recurrence before it is returned, so a
//! `Some` answer is a *proof* the crash set is recoverable; `None` means
//! no survivor re-plan can attain the goal (no survivors at all, or a
//! rooted goal whose root crashed — the root's knowledge died with it).
//! The `unrecoverable-crash-set` analyzer rule is exactly this function
//! run in the negative.

use crate::knowledge::{KnowledgeGoal, VerifyScratch};
use crate::pattern::log2_ceil;
use crate::plan::CompiledPattern;

/// Translates a knowledge goal into the compacted survivor rank space:
/// rooted goals follow their root through the remap and become `None`
/// when the root itself crashed. `AllToAll` and `Prefix` are untouched
/// (prefix order is inherited from the ascending survivor renumbering).
///
/// # Panics
///
/// Panics when a crashed rank or the goal's root is out of range.
#[must_use]
pub fn remap_goal(goal: KnowledgeGoal, p: usize, crashed: &[usize]) -> Option<KnowledgeGoal> {
    let dead = dead_mask(p, crashed);
    let remap_root = |r: usize| {
        assert!(r < p, "goal root {r} out of range for p={p}");
        if dead[r] {
            None
        } else {
            Some(dead[..r].iter().filter(|&&d| !d).count())
        }
    };
    match goal {
        KnowledgeGoal::AllToAll => Some(KnowledgeGoal::AllToAll),
        KnowledgeGoal::Prefix => Some(KnowledgeGoal::Prefix),
        KnowledgeGoal::RootGathers(r) => remap_root(r).map(KnowledgeGoal::RootGathers),
        KnowledgeGoal::RootReaches(r) => remap_root(r).map(KnowledgeGoal::RootReaches),
    }
}

/// Re-plans a pattern attaining `goal` over the survivors of `crashed`
/// among ranks `0..p`, in the compacted rank space (ascending surviving
/// original ranks become `0..p'`). Returns `None` when no survivor
/// re-plan exists: every rank crashed, or a rooted goal's root did.
///
/// The returned plan is named `repair-<shape>` and has been verified to
/// attain the remapped goal; a single survivor yields the legal
/// zero-stage plan (its knowledge is trivially complete).
///
/// # Panics
///
/// Panics when a crashed rank or the goal's root is out of range.
#[must_use]
pub fn repair_plan(p: usize, goal: KnowledgeGoal, crashed: &[usize]) -> Option<CompiledPattern> {
    let dead = dead_mask(p, crashed);
    let np = dead.iter().filter(|&&d| !d).count();
    if np == 0 {
        return None;
    }
    let goal = remap_goal(goal, p, crashed)?;
    let stage_edges = match goal {
        KnowledgeGoal::AllToAll | KnowledgeGoal::Prefix => dissemination_edges(np),
        KnowledgeGoal::RootGathers(root) => binomial_gather_edges(np, root),
        KnowledgeGoal::RootReaches(root) => binomial_broadcast_edges(np, root),
    };
    let name = match goal {
        KnowledgeGoal::AllToAll | KnowledgeGoal::Prefix => "repair-dissemination",
        KnowledgeGoal::RootGathers(_) => "repair-binomial-gather",
        KnowledgeGoal::RootReaches(_) => "repair-binomial-broadcast",
    };
    let plan = CompiledPattern::from_stage_edges(name, np, &stage_edges);
    let attained = VerifyScratch::new().verify(&plan).satisfies(goal);
    debug_assert!(
        attained,
        "synthesized repair plan must attain its goal by construction"
    );
    attained.then_some(plan)
}

fn dead_mask(p: usize, crashed: &[usize]) -> Vec<bool> {
    let mut dead = vec![false; p];
    for &r in crashed {
        assert!(r < p, "crashed rank {r} out of range for p={p}");
        dead[r] = true;
    }
    dead
}

/// The classic dissemination stages `i → (i + 2^s) mod p`.
pub(crate) fn dissemination_edges(p: usize) -> Vec<Vec<(usize, usize)>> {
    (0..log2_ceil(p))
        .map(|s| (0..p).map(|i| (i, (i + (1 << s)) % p)).collect())
        .collect()
}

/// Binomial broadcast from `root`: in rotated coordinates
/// `v = (i - root) mod p`, stage s has every informed node `v < 2^s`
/// signal `v + 2^s` (when in range) — ⌈log₂ p⌉ stages, p − 1 edges.
fn binomial_broadcast_edges(p: usize, root: usize) -> Vec<Vec<(usize, usize)>> {
    let orig = |v: usize| (v + root) % p;
    (0..log2_ceil(p))
        .map(|s| {
            (0..1usize << s)
                .filter(|v| v + (1 << s) < p)
                .map(|v| (orig(v), orig(v + (1 << s))))
                .collect()
        })
        .collect()
}

/// Binomial gather to `root`: the broadcast stages reversed in time with
/// every edge flipped — children hand their accumulated knowledge up
/// until the root holds everything.
fn binomial_gather_edges(p: usize, root: usize) -> Vec<Vec<(usize, usize)>> {
    let mut stages = binomial_broadcast_edges(p, root);
    stages.reverse();
    for stage in &mut stages {
        for edge in stage.iter_mut() {
            *edge = (edge.1, edge.0);
        }
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_all_to_all_is_dissemination_over_survivors() {
        let plan = repair_plan(8, KnowledgeGoal::AllToAll, &[2, 5]).expect("recoverable");
        assert_eq!(plan.p(), 6);
        assert_eq!(plan.stages(), 3);
        assert_eq!(plan.name(), "repair-dissemination");
        let mut scratch = VerifyScratch::new();
        assert!(scratch.verify(&plan).synchronizes());
    }

    #[test]
    fn repair_rooted_goals_rotate_around_surviving_root() {
        // Root 4 survives the crash of {0, 2}: compacted root is 2.
        let plan = repair_plan(6, KnowledgeGoal::RootGathers(4), &[0, 2]).expect("recoverable");
        assert_eq!(plan.p(), 4);
        let mut scratch = VerifyScratch::new();
        assert!(scratch
            .verify(&plan)
            .satisfies(KnowledgeGoal::RootGathers(2)));
        let bcast = repair_plan(6, KnowledgeGoal::RootReaches(4), &[0, 2]).expect("recoverable");
        assert!(scratch
            .verify(&bcast)
            .satisfies(KnowledgeGoal::RootReaches(2)));
        // A binomial tree moves exactly p' − 1 signals.
        assert_eq!(bcast.total_signals(), 3);
    }

    #[test]
    fn crashed_root_is_unrecoverable() {
        assert!(repair_plan(8, KnowledgeGoal::RootGathers(3), &[3]).is_none());
        assert!(repair_plan(8, KnowledgeGoal::RootReaches(0), &[0, 5]).is_none());
        assert_eq!(remap_goal(KnowledgeGoal::RootGathers(3), 8, &[3]), None);
    }

    #[test]
    fn no_survivors_is_unrecoverable() {
        assert!(repair_plan(2, KnowledgeGoal::AllToAll, &[0, 1]).is_none());
    }

    #[test]
    fn single_survivor_yields_zero_stage_plan() {
        let plan = repair_plan(4, KnowledgeGoal::AllToAll, &[0, 1, 3]).expect("recoverable");
        assert_eq!(plan.p(), 1);
        assert_eq!(plan.stages(), 0);
        let rooted = repair_plan(4, KnowledgeGoal::RootReaches(2), &[0, 1, 3]).expect("root lives");
        assert_eq!(rooted.p(), 1);
    }

    #[test]
    fn remap_goal_follows_root_through_compaction() {
        assert_eq!(
            remap_goal(KnowledgeGoal::RootGathers(5), 8, &[1, 3]),
            Some(KnowledgeGoal::RootGathers(3))
        );
        assert_eq!(
            remap_goal(KnowledgeGoal::Prefix, 8, &[1]),
            Some(KnowledgeGoal::Prefix)
        );
    }

    /// Every goal × every k ≤ 2 crash set over small p: repair either
    /// proves recoverability (verified plan) or the root crashed.
    #[test]
    fn repair_exhaustive_small_p() {
        let mut scratch = VerifyScratch::new();
        for p in 2..9usize {
            for a in 0..p {
                for b in a..p {
                    let crashed: Vec<usize> = if a == b { vec![a] } else { vec![a, b] };
                    for goal in [
                        KnowledgeGoal::AllToAll,
                        KnowledgeGoal::Prefix,
                        KnowledgeGoal::RootGathers(p - 1),
                        KnowledgeGoal::RootReaches(0),
                    ] {
                        match repair_plan(p, goal, &crashed) {
                            Some(plan) => {
                                let remapped =
                                    remap_goal(goal, p, &crashed).expect("plan implies root lives");
                                assert!(
                                    scratch.verify(&plan).satisfies(remapped),
                                    "p={p} crashed={crashed:?} goal={goal:?}"
                                );
                            }
                            None => {
                                assert!(
                                    crashed.len() == p || remap_goal(goal, p, &crashed).is_none(),
                                    "None only for dead root or empty machine: \
                                     p={p} crashed={crashed:?} goal={goal:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
