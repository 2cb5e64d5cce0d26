//! The crash-set rule and survivor re-planning.
//!
//! [`SurvivorMap`] states the rule once: which ranks of `0..p` outlived
//! a crash set, their compacted numbering (the ascending survivors become
//! `0..p'`), a knowledge goal restated over it, and a plan pruned to it.
//! Pruning ([`SurvivorMap::restrict`]) preserves the original pattern's
//! shape but can sever the knowledge flow (a dissemination relay that
//! crashed leaves pairs permanently uninformed, exactly what the
//! analyzer's k-crash coverage rule detects). [`SurvivorMap::repair`] is
//! the fallback: it ignores the broken plan and re-plans from scratch
//! over the `p' = p - |crashed|` survivors, choosing the canonical shape
//! for the goal —
//!
//! * [`KnowledgeGoal::AllToAll`] / [`KnowledgeGoal::Prefix`]: a
//!   dissemination pattern over the compacted rank space (⌈log₂ p'⌉
//!   stages of `i → (i + 2^s) mod p'`), the §5.5 shape whose knowledge
//!   recurrence saturates every pair;
//! * [`KnowledgeGoal::RootGathers`] / [`KnowledgeGoal::RootReaches`]: a
//!   binomial tree rotated around the surviving root's compacted rank —
//!   gather runs the stages leaf-to-root, broadcast root-to-leaf.
//!
//! The synthesized plan is verified against the restated goal through
//! the Eq. 5.1/5.2 knowledge recurrence before it is returned, so a
//! `Some` answer is a *proof* the crash set is recoverable; `None` means
//! no survivor re-plan can attain the goal (no survivors at all, or a
//! rooted goal whose root crashed — the root's knowledge died with it).
//! The `unrecoverable-crash-set` analyzer rule is exactly this function
//! run in the negative.

use crate::knowledge::{KnowledgeGoal, VerifyScratch};
use crate::pattern::log2_ceil;
use crate::plan::CompiledPattern;

/// [`SurvivorMap`]'s index entry for a crashed rank.
const CRASHED: usize = usize::MAX;

/// The survivors of a crash set among ranks `0..p`, numbered `0..p'` in
/// ascending rank order. One map serves any number of crash sets: build
/// it with [`SurvivorMap::new`], or refill it in place with
/// [`SurvivorMap::refill`], which allocates nothing once the map has
/// held `p` ranks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SurvivorMap {
    /// `index[r]`: rank r's compacted index, or [`CRASHED`].
    index: Vec<usize>,
    /// The surviving ranks, ascending: compacted rank i is `ranks[i]`.
    ranks: Vec<usize>,
}

impl SurvivorMap {
    /// The survivors of `crashed` among ranks `0..p`. The crash list may
    /// be unordered and repeat a rank.
    ///
    /// # Panics
    ///
    /// Panics when a crashed rank is out of range.
    #[must_use]
    pub fn new(p: usize, crashed: &[usize]) -> SurvivorMap {
        let mut index = vec![0; p];
        for &r in crashed {
            assert!(r < p, "crashed rank {r} out of range for p={p}");
            index[r] = CRASHED;
        }
        let ranks = Vec::new();
        let mut map = SurvivorMap { index, ranks };
        map.compact();
        map
    }

    /// Refills the map with the ranks of `0..p` for which `survives`
    /// holds, reusing its buffers.
    pub fn refill(&mut self, p: usize, mut survives: impl FnMut(usize) -> bool) {
        self.index.clear();
        self.index
            .extend((0..p).map(|r| if survives(r) { 0 } else { CRASHED }));
        self.compact();
    }

    /// Numbers the surviving entries of `index` in ascending rank order.
    fn compact(&mut self) {
        self.ranks.clear();
        self.ranks.reserve(self.index.len());
        for (r, slot) in self.index.iter_mut().enumerate() {
            if *slot != CRASHED {
                *slot = self.ranks.len();
                self.ranks.push(r);
            }
        }
    }

    /// The surviving ranks, ascending: compacted rank `i` is `ranks()[i]`.
    #[must_use]
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// The crashed ranks, ascending and without repeats.
    pub fn crashed(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.index.len()).filter(|&r| self.index[r] == CRASHED)
    }

    /// The compacted index of rank `r`, or `None` when it crashed.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    #[must_use]
    pub fn index_of(&self, r: usize) -> Option<usize> {
        let p = self.index.len();
        assert!(r < p, "rank {r} out of range for p={p}");
        Some(self.index[r]).filter(|&i| i != CRASHED)
    }

    /// `goal` restated over the compacted survivors: a rooted goal
    /// follows its root through the numbering and becomes `None` when the
    /// root crashed. `AllToAll` and `Prefix` are unchanged (prefix order
    /// is inherited from the ascending numbering).
    ///
    /// # Panics
    ///
    /// Panics when the goal's root is out of range.
    #[must_use]
    pub fn goal(&self, goal: KnowledgeGoal) -> Option<KnowledgeGoal> {
        match goal {
            KnowledgeGoal::AllToAll | KnowledgeGoal::Prefix => Some(goal),
            KnowledgeGoal::RootGathers(r) => self.index_of(r).map(KnowledgeGoal::RootGathers),
            KnowledgeGoal::RootReaches(r) => self.index_of(r).map(KnowledgeGoal::RootReaches),
        }
    }

    /// `plan` pruned to the survivors: every edge incident to a crashed
    /// rank is dropped, the survivors are renumbered, and stages whose
    /// edge list empties out vanish (an empty stage is a structural error
    /// in the analyzer's rule set, and a stage the executor would pay
    /// entry overhead for without communicating). Rebuilt through
    /// [`CompiledPattern::from_stage_edges`], so its posted table and
    /// `jitter_draws` fit the compacted shape. An emptied stage changes
    /// no survivor's knowledge (Eqs. 5.1/5.2 with no edges are the
    /// identity), so this is the plan k-crash coverage verifies.
    ///
    /// # Panics
    ///
    /// Panics when the plan's `p` is not the map's, or when no rank
    /// survives (an empty machine has no plan).
    #[must_use]
    pub fn restrict(&self, plan: &CompiledPattern) -> CompiledPattern {
        assert_eq!(plan.p(), self.index.len(), "plan and map differ in p");
        assert!(!self.ranks.is_empty(), "every rank crashed");
        let mut stage_edges = Vec::with_capacity(plan.stages());
        for s in 0..plan.stages() {
            let stage = plan.stage(s);
            let mut edges = Vec::with_capacity(stage.edge_count());
            for (i, &r) in self.ranks.iter().enumerate() {
                let dsts = stage.dsts(r).iter().map(|&j| self.index_of(j as usize));
                edges.extend(dsts.flatten().map(|j| (i, j)));
            }
            if !edges.is_empty() {
                stage_edges.push(edges);
            }
        }
        let name = format!("{}-survivors", plan.name());
        CompiledPattern::from_stage_edges(&name, self.ranks.len(), &stage_edges)
    }

    /// Re-plans a pattern attaining `goal` over the survivors, in the
    /// compacted rank space: `None` when every rank crashed or a rooted
    /// goal's root did. The plan is named `repair-<shape>` and verified to
    /// attain the restated goal ([`SurvivorMap::goal`]); a single
    /// survivor yields the legal zero-stage plan.
    ///
    /// # Panics
    ///
    /// Panics when the goal's root is out of range.
    #[must_use]
    pub fn repair(&self, goal: KnowledgeGoal) -> Option<CompiledPattern> {
        let np = self.ranks.len();
        let goal = (np > 0).then(|| self.goal(goal)).flatten()?;
        let (name, stage_edges) = match goal {
            KnowledgeGoal::AllToAll | KnowledgeGoal::Prefix => {
                ("repair-dissemination", dissemination_edges(np))
            }
            KnowledgeGoal::RootGathers(r) => {
                ("repair-binomial-gather", binomial_gather_edges(np, r))
            }
            KnowledgeGoal::RootReaches(r) => {
                ("repair-binomial-broadcast", binomial_broadcast_edges(np, r))
            }
        };
        let plan = CompiledPattern::from_stage_edges(name, np, &stage_edges);
        let attained = VerifyScratch::new().verify(&plan).satisfies(goal);
        debug_assert!(
            attained,
            "a synthesized repair plan attains its goal by construction"
        );
        attained.then_some(plan)
    }
}

/// [`SurvivorMap::repair`] over the survivors of `crashed` among ranks
/// `0..p`.
///
/// # Panics
///
/// Panics when a crashed rank or the goal's root is out of range.
#[must_use]
pub fn repair_plan(p: usize, goal: KnowledgeGoal, crashed: &[usize]) -> Option<CompiledPattern> {
    SurvivorMap::new(p, crashed).repair(goal)
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
        let map = SurvivorMap::new(8, &[3]);
        assert_eq!(map.goal(KnowledgeGoal::RootGathers(3)), None);
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
    fn goal_follows_root_through_compaction() {
        let map = SurvivorMap::new(8, &[1, 3]);
        assert_eq!(
            map.goal(KnowledgeGoal::RootGathers(5)),
            Some(KnowledgeGoal::RootGathers(3))
        );
        assert_eq!(
            map.goal(KnowledgeGoal::RootReaches(0)),
            Some(KnowledgeGoal::RootReaches(0))
        );
        assert_eq!(map.goal(KnowledgeGoal::RootReaches(1)), None);
        assert_eq!(map.goal(KnowledgeGoal::Prefix), Some(KnowledgeGoal::Prefix));
        assert_eq!(
            map.goal(KnowledgeGoal::AllToAll),
            Some(KnowledgeGoal::AllToAll)
        );
    }

    #[test]
    #[should_panic(expected = "rank 8 out of range for p=8")]
    fn goal_rejects_a_root_out_of_range() {
        let _ = SurvivorMap::new(8, &[1]).goal(KnowledgeGoal::RootGathers(8));
    }

    #[test]
    #[should_panic(expected = "crashed rank 4 out of range for p=4")]
    fn map_rejects_a_crashed_rank_out_of_range() {
        let _ = SurvivorMap::new(4, &[1, 4]);
    }

    /// Survivors are numbered in ascending rank order, whatever order and
    /// repeats the crash list has; crashed ranks have no index.
    #[test]
    fn index_of_numbers_survivors_in_rank_order() {
        let map = SurvivorMap::new(7, &[5, 1, 5, 2]);
        assert_eq!(map.ranks(), &[0, 3, 4, 6]);
        assert_eq!(map.crashed().collect::<Vec<_>>(), [1, 2, 5]);
        let index: Vec<Option<usize>> = (0..7).map(|r| map.index_of(r)).collect();
        assert_eq!(
            index,
            [Some(0), None, None, Some(1), Some(2), None, Some(3)]
        );
        for (i, &r) in map.ranks().iter().enumerate() {
            assert_eq!(map.index_of(r), Some(i));
        }
    }

    /// A refill is the map `new` builds, and once the map has held `p`
    /// ranks a refill at `p` keeps both buffers: no allocation, whatever
    /// the survivor count.
    #[test]
    fn warm_refill_matches_new_and_reuses_its_buffers() {
        let mut map = SurvivorMap::default();
        map.refill(16, |_| true);
        let buffers = |m: &SurvivorMap| {
            (
                m.index.as_ptr(),
                m.index.capacity(),
                m.ranks.as_ptr(),
                m.ranks.capacity(),
            )
        };
        let warm = buffers(&map);
        for crashed in [vec![0], vec![3, 7, 15], (0..16).collect(), vec![]] {
            map.refill(16, |r| !crashed.contains(&r));
            assert_eq!(map, SurvivorMap::new(16, &crashed), "crashed {crashed:?}");
            assert_eq!(buffers(&map), warm, "crashed {crashed:?}");
        }
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
                                let remapped = SurvivorMap::new(p, &crashed)
                                    .goal(goal)
                                    .expect("plan implies root lives");
                                assert!(
                                    scratch.verify(&plan).satisfies(remapped),
                                    "p={p} crashed={crashed:?} goal={goal:?}"
                                );
                            }
                            None => {
                                assert!(
                                    crashed.len() == p
                                        || SurvivorMap::new(p, &crashed).goal(goal).is_none(),
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
