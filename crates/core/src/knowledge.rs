//! Knowledge verification (§5.5, Eqs. 5.1–5.2), generalized to rooted
//! and prefix knowledge goals.
//!
//! A barrier is correct iff no process can leave before every process has
//! arrived. The thesis checks this algebraically: let `K(i, j)` count the
//! acknowledgements process i holds of process j's arrival. Initially
//! every process knows itself; each stage propagates transitive
//! knowledge:
//!
//! ```text
//! K_i = K_{i−1} + K_{i−1} × S_i
//! ```
//!
//! After the final stage the barrier synchronizes iff `K` is all-nonzero.
//! Only *whether* an entry is nonzero is ever asked, so the verifier
//! keeps one bit per pair instead of a path count: `p` rows of `⌈p/64⌉`
//! words, and "i signals j" ORs i's row into j's. The counting form of
//! Eqs. 5.1–5.2 lives on as the test oracle, written in the thesis' own
//! algebra on [`crate::matrix::DMat`] (`tests/properties.rs`).
//!
//! Collective operations need weaker, *rooted* variants of the same test:
//! a reduce is correct when the root has a signal path from every process
//! (`K(root, ·)` all-nonzero), a broadcast when every process has a path
//! from the root (`K(·, root)` all-nonzero), and a prefix scan when every
//! process has a path from each of its predecessors (lower triangle
//! all-nonzero). [`KnowledgeGoal`] names these variants,
//! [`KnowledgeGoal::required_pairs`] is the one place that spells out
//! which pairs each demands, and [`VerifyScratch::satisfies`] checks
//! them, so every pattern — barrier or collective — flows through one
//! verifier.

use crate::plan::CompiledPattern;

/// What a pattern must guarantee to be correct: which knowledge pairs must
/// be established by its final stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnowledgeGoal {
    /// Every process knows of every arrival — barriers, allreduce,
    /// allgather, total exchange.
    AllToAll,
    /// The root knows of every arrival — reduce, gather.
    RootGathers(usize),
    /// Every process knows of the root's arrival — broadcast, scatter.
    RootReaches(usize),
    /// Process `i` knows of every arrival `j ≤ i` — prefix scans.
    Prefix,
}

impl KnowledgeGoal {
    /// The root of a rooted goal.
    #[must_use]
    pub fn root(self) -> Option<usize> {
        match self {
            KnowledgeGoal::RootGathers(r) | KnowledgeGoal::RootReaches(r) => Some(r),
            KnowledgeGoal::AllToAll | KnowledgeGoal::Prefix => None,
        }
    }

    /// The pairs `(i, j)` — "i must know of j's arrival" — this goal
    /// demands among `p` processes, row by row. The single definition of
    /// the goal → pairs mapping: satisfaction, the analyzer's diagnostics
    /// and its crash coverage all filter this enumeration.
    pub fn required_pairs(self, p: usize) -> impl Iterator<Item = (usize, usize)> {
        let rows = match self {
            KnowledgeGoal::RootGathers(r) => r..r + 1,
            _ => 0..p,
        };
        rows.flat_map(move |i| {
            let cols = match self {
                KnowledgeGoal::AllToAll | KnowledgeGoal::RootGathers(_) => 0..p,
                KnowledgeGoal::RootReaches(r) => r..r + 1,
                KnowledgeGoal::Prefix => 0..i + 1,
            };
            cols.map(move |j| (i, j))
        })
    }
}

/// The knowledge verifier: scratch and result in one. [`verify`] runs
/// the recurrence into the two bit tables held here and returns a borrow
/// of `self` to query — so a verify loop touches the heap only when the
/// process count grows, and there is no separate result type to copy
/// into. Two `p × ⌈p/64⌉` `u64` tables: 4.2 MB at p = 4096.
///
/// [`verify`]: VerifyScratch::verify
#[derive(Debug, Default)]
pub struct VerifyScratch {
    p: usize,
    /// Words per row, `⌈p/64⌉`.
    words: usize,
    /// Row `i`, bit `j`: process i knows of j's arrival. Padding bits of
    /// each row's last word stay zero.
    known: Vec<u64>,
    /// `known` as it stood when the current stage began.
    snapshot: Vec<u64>,
}

impl VerifyScratch {
    /// Empty scratch; the first verification sizes it.
    pub fn new() -> VerifyScratch {
        VerifyScratch::default()
    }

    /// Runs the recurrence over `plan` and returns `self` for querying.
    /// Allocation-free once the tables have grown to the largest process
    /// count seen.
    pub fn verify(&mut self, plan: &CompiledPattern) -> &VerifyScratch {
        let p = plan.p();
        let w = p.div_ceil(64);
        (self.p, self.words) = (p, w);
        self.known.clear();
        self.known.resize(p * w, 0);
        self.snapshot.resize(p * w, 0);
        for i in 0..p {
            self.known[i * w + i / 64] |= 1 << (i % 64);
        }
        for s in 0..plan.stages() {
            // When i signals j, everything i knew at stage entry flows to
            // j: K(j, ·) |= K(i, ·).
            self.snapshot.copy_from_slice(&self.known);
            let stage = plan.stage(s);
            for i in 0..p {
                let src = &self.snapshot[i * w..(i + 1) * w];
                for &j in stage.dsts(i) {
                    let dst = &mut self.known[j * w..(j + 1) * w];
                    dst.iter_mut().zip(src).for_each(|(d, k)| *d |= k);
                }
            }
        }
        self
    }

    /// True iff process i knows of process j's arrival.
    #[must_use]
    pub fn knows(&self, i: usize, j: usize) -> bool {
        assert!(i < self.p && j < self.p, "pair ({i},{j}) out of range");
        self.known[i * self.words + j / 64] >> (j % 64) & 1 == 1
    }

    /// The pairs `goal` requires that the recurrence left unknown — the
    /// failure trace §5.5 describes as a debugging aid.
    pub fn missing(&self, goal: KnowledgeGoal) -> impl Iterator<Item = (usize, usize)> + '_ {
        goal.required_pairs(self.p)
            .filter(|&(i, j)| !self.knows(i, j))
    }

    /// Checks a named goal. `AllToAll` compares whole words against the
    /// all-ones row (last word masked to `p mod 64` bits) instead of
    /// testing p² bits.
    #[must_use]
    pub fn satisfies(&self, goal: KnowledgeGoal) -> bool {
        if goal != KnowledgeGoal::AllToAll {
            return self.missing(goal).next().is_none();
        }
        let last = u64::MAX >> ((64 - self.p % 64) % 64);
        // `max(1)`: a scratch that has verified nothing holds no rows.
        self.known.chunks_exact(self.words.max(1)).all(|row| {
            let (tail, full) = row.split_last().expect("rows hold a word");
            *tail == last && full.iter().all(|&w| w == u64::MAX)
        })
    }

    /// True iff every process knows of every arrival.
    #[must_use]
    pub fn synchronizes(&self) -> bool {
        self.satisfies(KnowledgeGoal::AllToAll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StagePlan;

    fn linear(p: usize) -> CompiledPattern {
        let gather: Vec<(usize, usize)> = (1..p).map(|i| (i, 0)).collect();
        let gather = StagePlan::from_edges(p, &gather);
        let release = gather.transpose();
        CompiledPattern::from_stages("linear", p, vec![gather, release])
    }

    /// The first `stages` stages of the dissemination barrier.
    fn dissemination_stages(p: usize, stages: usize) -> Vec<Vec<(usize, usize)>> {
        let mut edges = crate::recovery::dissemination_edges(p);
        edges.truncate(stages);
        edges
    }

    fn dissemination(p: usize) -> CompiledPattern {
        let edges = crate::recovery::dissemination_edges(p);
        CompiledPattern::from_stage_edges("dissemination", p, &edges)
    }

    fn single_stage(name: &str, p: usize, edges: &[(usize, usize)]) -> CompiledPattern {
        CompiledPattern::from_stage_edges(name, p, &[edges.to_vec()])
    }

    #[test]
    fn linear_barrier_synchronizes() {
        let mut scratch = VerifyScratch::new();
        for p in [2, 3, 4, 8, 17] {
            assert!(scratch.verify(&linear(p)).synchronizes(), "linear p={p}");
        }
    }

    #[test]
    fn dissemination_synchronizes_for_all_counts() {
        let mut scratch = VerifyScratch::new();
        for p in 2..=40 {
            assert!(scratch.verify(&dissemination(p)).synchronizes(), "p={p}");
        }
    }

    #[test]
    fn broken_barrier_detected_with_trace() {
        // Gather without release: ranks 1..p never learn of each other.
        let b = single_stage("broken", 4, &[(1, 0), (2, 0), (3, 0)]);
        let mut scratch = VerifyScratch::new();
        let t = scratch.verify(&b);
        assert!(!t.synchronizes());
        let unknown: Vec<(usize, usize)> = t.missing(KnowledgeGoal::AllToAll).collect();
        assert!(unknown.contains(&(1, 2)), "1 must not know 2: {unknown:?}");
        assert!(unknown.contains(&(3, 1)));
        // But the master knows everyone.
        assert!(!unknown.iter().any(|&(i, _)| i == 0));
    }

    #[test]
    fn gather_alone_satisfies_only_the_rooted_goal() {
        // The broken barrier above is a perfectly good gather pattern:
        // the root knows all, nobody else learns anything new.
        let b = single_stage("gather", 4, &[(1, 0), (2, 0), (3, 0)]);
        let mut scratch = VerifyScratch::new();
        let t = scratch.verify(&b);
        assert!(t.satisfies(KnowledgeGoal::RootGathers(0)));
        assert!(!t.satisfies(KnowledgeGoal::RootReaches(0)));
        assert!(!t.satisfies(KnowledgeGoal::AllToAll));
        assert!(!t.satisfies(KnowledgeGoal::RootGathers(1)));
        assert!(!t.satisfies(KnowledgeGoal::Prefix));
    }

    #[test]
    fn release_alone_satisfies_only_the_broadcast_goal() {
        let b = single_stage("release", 4, &[(0, 1), (0, 2), (0, 3)]);
        let mut scratch = VerifyScratch::new();
        let t = scratch.verify(&b);
        assert!(t.satisfies(KnowledgeGoal::RootReaches(0)));
        assert!(!t.satisfies(KnowledgeGoal::RootGathers(0)));
        assert!(!t.satisfies(KnowledgeGoal::AllToAll));
    }

    #[test]
    fn chain_satisfies_the_prefix_goal() {
        // i → i+1 in sequence: exactly the inclusive-scan dependency.
        let p = 5;
        let stages: Vec<StagePlan> = (0..p - 1)
            .map(|i| StagePlan::from_edges(p, &[(i, i + 1)]))
            .collect();
        let b = CompiledPattern::from_stages("chain", p, stages);
        let mut scratch = VerifyScratch::new();
        let t = scratch.verify(&b);
        assert!(t.satisfies(KnowledgeGoal::Prefix));
        assert!(!t.satisfies(KnowledgeGoal::AllToAll));
        // The downward chain (p−1 → p−2 → … → 0, stages in that order)
        // funnels everything into rank 0 but is not a prefix pattern.
        let rev: Vec<StagePlan> = (1..p)
            .rev()
            .map(|i| StagePlan::from_edges(p, &[(i, i - 1)]))
            .collect();
        let r = CompiledPattern::from_stages("rev-chain", p, rev);
        let t = scratch.verify(&r);
        assert!(!t.satisfies(KnowledgeGoal::Prefix));
        assert!(t.satisfies(KnowledgeGoal::RootGathers(0)));
    }

    #[test]
    fn full_synchronization_implies_every_goal() {
        let mut scratch = VerifyScratch::new();
        let t = scratch.verify(&dissemination(9));
        for goal in [
            KnowledgeGoal::AllToAll,
            KnowledgeGoal::RootGathers(3),
            KnowledgeGoal::RootReaches(7),
            KnowledgeGoal::Prefix,
        ] {
            assert!(t.satisfies(goal), "{goal:?}");
            assert_eq!(t.missing(goal).count(), 0, "{goal:?}");
        }
    }

    #[test]
    fn required_pairs_enumerate_each_goal_row_major() {
        let pairs = |g: KnowledgeGoal| g.required_pairs(3).collect::<Vec<_>>();
        assert_eq!(pairs(KnowledgeGoal::AllToAll).len(), 9);
        assert_eq!(
            pairs(KnowledgeGoal::RootGathers(1)),
            [(1, 0), (1, 1), (1, 2)]
        );
        assert_eq!(
            pairs(KnowledgeGoal::RootReaches(2)),
            [(0, 2), (1, 2), (2, 2)]
        );
        assert_eq!(
            pairs(KnowledgeGoal::Prefix),
            [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
        );
        assert_eq!(KnowledgeGoal::RootGathers(1).root(), Some(1));
        assert_eq!(KnowledgeGoal::Prefix.root(), None);
    }

    #[test]
    fn one_stage_too_few_dissemination_fails() {
        // ceil(log2 p) − 1 stages cannot synchronize.
        let short = CompiledPattern::from_stage_edges("short", 8, &dissemination_stages(8, 2));
        assert!(!VerifyScratch::new().verify(&short).synchronizes());
    }

    #[test]
    fn self_knowledge_never_lost() {
        let mut scratch = VerifyScratch::new();
        let t = scratch.verify(&linear(6));
        for i in 0..6 {
            assert!(t.knows(i, i));
        }
    }

    /// The word-wise `AllToAll` test reads exactly `p` bits per row: a
    /// complete exchange missing one edge into the row's last word fails
    /// on precisely that pair, on either side of every word boundary.
    #[test]
    fn all_to_all_fast_path_masks_the_last_word() {
        let mut scratch = VerifyScratch::new();
        for p in [2usize, 63, 64, 65, 127, 128, 129] {
            let mut edges: Vec<(usize, usize)> = (0..p)
                .flat_map(|i| (0..p).filter(move |&j| j != i).map(move |j| (i, j)))
                .collect();
            let full = CompiledPattern::from_stage_edges("a2a", p, &[edges.clone()]);
            assert!(scratch.verify(&full).synchronizes(), "p={p}");
            edges.retain(|&e| e != (p - 1, 0));
            let holed = CompiledPattern::from_stage_edges("holed", p, &[edges]);
            let t = scratch.verify(&holed);
            assert!(!t.synchronizes(), "p={p}");
            let missing: Vec<_> = t.missing(KnowledgeGoal::AllToAll).collect();
            assert_eq!(missing, [(0, p - 1)], "p={p}");
        }
    }

    /// One scratch reused across patterns of different sizes — including
    /// shrinking ones — answers every pair as a fresh one does: no bit of
    /// an earlier, larger verification leaks into a later one.
    #[test]
    fn scratch_reuse_matches_fresh_verify() {
        let mut scratch = VerifyScratch::new();
        for (p, stages) in [(17usize, 5usize), (8, 2), (131, 8), (2, 1), (70, 3)] {
            let plan = CompiledPattern::from_stage_edges("d", p, &dissemination_stages(p, stages));
            let mut fresh = VerifyScratch::new();
            fresh.verify(&plan);
            let pooled = scratch.verify(&plan);
            assert_eq!(pooled.synchronizes(), fresh.synchronizes(), "p={p}");
            for (i, j) in KnowledgeGoal::AllToAll.required_pairs(p) {
                assert_eq!(pooled.knows(i, j), fresh.knows(i, j), "p={p} ({i},{j})");
            }
        }
    }

    /// What the counting form could not afford in a unit test: p = 4096
    /// in two 2 MB bit tables (the three `p×p` word tables were 402 MB).
    #[test]
    fn verifies_at_scale_in_bit_tables() {
        let p = 4096;
        let mut scratch = VerifyScratch::new();
        assert!(scratch.verify(&dissemination(p)).synchronizes());
        let short = CompiledPattern::from_stage_edges("short", p, &dissemination_stages(p, 11));
        assert!(!scratch.verify(&short).synchronizes());
        let bytes = (scratch.known.capacity() + scratch.snapshot.capacity()) * 8;
        assert!(bytes <= 2 * p * p.div_ceil(64) * 8, "{bytes} table bytes");
        let crashed = [0, 1, 4095];
        let repaired = crate::recovery::repair_plan(p, KnowledgeGoal::AllToAll, &crashed);
        assert_eq!(repaired.expect("recoverable").p(), p - 3);
    }
}
