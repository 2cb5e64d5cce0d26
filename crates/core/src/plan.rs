//! The one stage representation, from authoring to execution: CSR
//! adjacency in both directions, plus the whole-pattern compiled form.
//!
//! Every hot loop of this workspace (the Eq. 5.4 predictor, the knowledge
//! recurrence, the Fig. 5.5 staged executor) walks "the destinations of
//! rank i in stage s". [`StagePlan`] stores exactly that — flat index
//! arrays plus offsets, both directions — in O(p + E) space, so a
//! dissemination stage at p = 4096 is 64 KB where the `P×P` incidence
//! matrix of §5.5 is 16.7 MB. Pattern builders author stages straight
//! from edge lists ([`StagePlan::from_edges`]); nothing in production
//! passes through a dense matrix. The thesis' matrices survive as the
//! boolean incidence matrix of [`crate::matrix`], the oracle the property
//! tests hold this form against, and as the 0/1 grid [`StagePlan`]'s
//! `Display` prints for Figs. 5.2–5.4.
//!
//! [`CompiledPattern`] is a whole pattern's stages together with the
//! derived tables the predictor needs: per-rank last-transmission stages
//! and the §5.6.5 posted-receiver booleans. Barrier builders return one
//! directly; any other pattern is compiled once via
//! [`crate::pattern::CommPattern::plan`]. Then every enumeration is a
//! slice borrow and every posted test an indexed load.
//!
//! Both directions of every stage enumerate ascending; the RNG draw
//! order of the simulator is part of that contract (see DESIGN.md).

use std::fmt;

/// Jitter multipliers the staged executor consumes per signal: the
/// sender's `o_send`, the wire term, the receiver's `o_recv` and the
/// acknowledgement — in that order. Part of the draw-order contract the
/// batched jitter engine sizes its tables by (see DESIGN.md).
pub const SIGNAL_JITTER_DRAWS: usize = 4;

/// Jitter multipliers the staged executor consumes per process per
/// stage: the library call overhead at stage entry.
pub const ENTRY_JITTER_DRAWS: usize = 1;

/// One stage of a pattern in compressed sparse row form, both directions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePlan {
    p: usize,
    /// Destination lists of all ranks, concatenated in rank order.
    dsts: Vec<usize>,
    /// `dsts_off[i]..dsts_off[i+1]` delimits rank i's destinations.
    dsts_off: Vec<usize>,
    /// Source lists of all ranks, concatenated in rank order.
    srcs: Vec<usize>,
    /// `srcs_off[j]..srcs_off[j+1]` delimits rank j's sources.
    srcs_off: Vec<usize>,
}

impl StagePlan {
    /// Builds one stage from an edge list — O(p + E log E) time and
    /// O(p + E) storage. Edges are `(src, dst)` pairs; order is
    /// irrelevant, both directions enumerate ascending.
    ///
    /// # Panics
    ///
    /// Rejects malformed input up front rather than silently building a
    /// CSR the executors would misinterpret: panics on out-of-range
    /// ranks, duplicate edges (a signal would be double-counted in
    /// jitter-draw accounting), and self-sends (`i → i` is not a
    /// communication the staged model assigns a cost to).
    pub fn from_edges(p: usize, edges: &[(usize, usize)]) -> StagePlan {
        let mut es = edges.to_vec();
        es.sort_unstable();
        for w in es.windows(2) {
            assert!(
                w[0] != w[1],
                "duplicate edge ({},{}) — each signal must appear once",
                w[0].0,
                w[0].1
            );
        }
        let mut dsts = Vec::with_capacity(es.len());
        let mut dsts_off = Vec::with_capacity(p + 1);
        dsts_off.push(0);
        let mut in_deg = vec![0usize; p];
        for &(i, j) in &es {
            assert!(i < p && j < p, "edge ({i},{j}) out of range for p={p}");
            assert!(
                i != j,
                "self-send edge ({i},{j}) — ranks never signal themselves"
            );
            in_deg[j] += 1;
        }
        let mut srcs_off = Vec::with_capacity(p + 1);
        srcs_off.push(0);
        for j in 0..p {
            srcs_off.push(srcs_off[j] + in_deg[j]);
        }
        let mut srcs = vec![0usize; es.len()];
        let mut cursor = srcs_off[..p].to_vec();
        let mut next = 0usize;
        for rank in 0..p {
            while next < es.len() && es[next].0 == rank {
                let j = es[next].1;
                dsts.push(j);
                srcs[cursor[j]] = rank;
                cursor[j] += 1;
                next += 1;
            }
            dsts_off.push(dsts.len());
        }
        StagePlan {
            p,
            dsts,
            dsts_off,
            srcs,
            srcs_off,
        }
    }

    /// The complete exchange among `p` ranks: every ordered pair `i ≠ j`
    /// signals at once — the all-to-all barrier, the allgather phase, the
    /// total exchange.
    pub fn complete(p: usize) -> StagePlan {
        let edges: Vec<(usize, usize)> = (0..p)
            .flat_map(|i| (0..p).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        StagePlan::from_edges(p, &edges)
    }

    /// Assembles a stage from raw CSR parts, **unvalidated** — the
    /// adversarial-input route for the static analyzer's tests and the
    /// escape hatch pattern synthesis will use. Nothing checks that the
    /// offsets are monotone, the adjacency sorted, or the two directions
    /// mirrors of each other; run `hpm_analyze::analyze` over plans
    /// built this way before executing them.
    pub fn from_raw_csr(
        p: usize,
        dsts: Vec<usize>,
        dsts_off: Vec<usize>,
        srcs: Vec<usize>,
        srcs_off: Vec<usize>,
    ) -> StagePlan {
        StagePlan {
            p,
            dsts,
            dsts_off,
            srcs,
            srcs_off,
        }
    }

    /// The reversed stage, every `i → j` becoming `j → i`: the release
    /// stages of gather/release patterns are the transposed arrival
    /// stages in reverse order (§5.5). The CSR form stores both
    /// directions, so transposing swaps the two halves.
    #[must_use]
    pub fn transpose(&self) -> StagePlan {
        StagePlan {
            p: self.p,
            dsts: self.srcs.clone(),
            dsts_off: self.srcs_off.clone(),
            srcs: self.dsts.clone(),
            srcs_off: self.dsts_off.clone(),
        }
    }

    /// Process count.
    #[must_use]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Destinations signalled by `i`, ascending — a borrowed slice.
    #[must_use]
    pub fn dsts(&self, i: usize) -> &[usize] {
        &self.dsts[self.dsts_off[i]..self.dsts_off[i + 1]]
    }

    /// Sources signalling `j`, ascending — a borrowed slice.
    #[must_use]
    pub fn srcs(&self, j: usize) -> &[usize] {
        &self.srcs[self.srcs_off[j]..self.srcs_off[j + 1]]
    }

    /// Number of destinations `i` signals.
    #[must_use]
    pub fn out_degree(&self, i: usize) -> usize {
        self.dsts_off[i + 1] - self.dsts_off[i]
    }

    /// Number of sources signalling `j`.
    #[must_use]
    pub fn in_degree(&self, j: usize) -> usize {
        self.srcs_off[j + 1] - self.srcs_off[j]
    }

    /// Total edge count.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.dsts.len()
    }

    /// The concatenated destination lists, all ranks — the raw CSR index
    /// array behind [`StagePlan::dsts`]. Introspection hook for the
    /// static analyzer, which must inspect the arrays without trusting
    /// the sliced accessors' indexing to be in bounds.
    #[must_use]
    pub fn dst_indices(&self) -> &[usize] {
        &self.dsts
    }

    /// The destination offset array: `dst_offsets()[i]..[i + 1]`
    /// delimits rank i's span in [`StagePlan::dst_indices`].
    #[must_use]
    pub fn dst_offsets(&self) -> &[usize] {
        &self.dsts_off
    }

    /// The concatenated source lists, all ranks — the raw CSR index
    /// array behind [`StagePlan::srcs`].
    #[must_use]
    pub fn src_indices(&self) -> &[usize] {
        &self.srcs
    }

    /// The source offset array: `src_offsets()[j]..[j + 1]` delimits
    /// rank j's span in [`StagePlan::src_indices`].
    #[must_use]
    pub fn src_offsets(&self) -> &[usize] {
        &self.srcs_off
    }

    /// Jitter multipliers the staged executor consumes for this stage:
    /// one call-overhead draw per process plus [`SIGNAL_JITTER_DRAWS`]
    /// per signal. Every signal draws — self-loop and local signals
    /// included — so the count is exact, not an upper bound.
    #[must_use]
    pub fn jitter_draws(&self) -> usize {
        self.p * ENTRY_JITTER_DRAWS + self.edge_count() * SIGNAL_JITTER_DRAWS
    }
}

/// The stage as the `P×P` 0/1 incidence grid of Figs. 5.2–5.4: row `i`,
/// column `j` is 1 iff `i` signals `j`.
impl fmt::Display for StagePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.p {
            for j in 0..self.p {
                let set = self.dsts(i).contains(&j);
                f.write_str(if set { " 1" } else { " 0" })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A staged pattern compiled for flat execution: per-stage CSR adjacency
/// plus the derived tables of the §5.6.5 predictor refinements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPattern {
    name: String,
    p: usize,
    stages: Vec<StagePlan>,
    /// `posted[s * p + j]`: true when rank j is known to be awaiting
    /// signals at stage s (its last transmission, if any, ended at least
    /// two stages earlier) — refinement 2 of §5.6.5, precomputed.
    posted: Vec<bool>,
    /// `last_send[s * p + i]`: last stage index `< s` in which rank i
    /// transmitted, or `usize::MAX` when it had not yet. Row `s == 0` is
    /// all-MAX; the table has `stages + 1` rows so the final row answers
    /// "before the end of the pattern".
    last_send: Vec<usize>,
    /// Exact jitter draws one staged execution consumes, precomputed —
    /// the batched engine sizes its `JitterBuf` from this.
    jitter_draws: usize,
}

impl CompiledPattern {
    /// Compiles a pattern given as per-stage edge lists:
    /// [`StagePlan::from_edges`] per stage, then
    /// [`CompiledPattern::from_stages`].
    pub fn from_stage_edges(
        name: &str,
        p: usize,
        stage_edges: &[Vec<(usize, usize)>],
    ) -> CompiledPattern {
        let stages = stage_edges
            .iter()
            .map(|edges| StagePlan::from_edges(p, edges))
            .collect();
        CompiledPattern::from_stages(name, p, stages)
    }

    /// Assembles a compiled pattern from already-built stage plans and
    /// derives the §5.6.5 posted/last-send tables.
    pub fn from_stages(name: &str, p: usize, stages: Vec<StagePlan>) -> CompiledPattern {
        for (s, stage) in stages.iter().enumerate() {
            assert_eq!(stage.p(), p, "stage {s} has wrong dimension");
        }
        let n_stages = stages.len();
        let mut posted = vec![false; n_stages * p];
        let mut last_send = vec![usize::MAX; (n_stages + 1) * p];
        for s in 0..n_stages {
            for i in 0..p {
                let prev = last_send[s * p + i];
                // Posted iff the rank's last transmission (if any) ended
                // at least two stages ago; at stage 0 nothing is posted.
                posted[s * p + i] = s > 0 && (prev == usize::MAX || prev + 1 < s);
                last_send[(s + 1) * p + i] = if stages[s].out_degree(i) > 0 { s } else { prev };
            }
        }
        let jitter_draws = stages.iter().map(StagePlan::jitter_draws).sum();
        CompiledPattern {
            name: name.to_string(),
            p,
            stages,
            posted,
            last_send,
            jitter_draws,
        }
    }

    /// Assembles a compiled pattern from caller-supplied derived tables,
    /// **unvalidated** — the adversarial-input route for the static
    /// analyzer's tests: planting a wrong posted bit, last-send entry or
    /// draw count here is how each consistency rule gets its failing
    /// input. [`CompiledPattern::from_stages`] is the honest route that
    /// derives the tables itself.
    pub fn from_raw_tables(
        name: &str,
        p: usize,
        stages: Vec<StagePlan>,
        posted: Vec<bool>,
        last_send: Vec<usize>,
        jitter_draws: usize,
    ) -> CompiledPattern {
        CompiledPattern {
            name: name.to_string(),
            p,
            stages,
            posted,
            last_send,
            jitter_draws,
        }
    }

    /// Descriptive name inherited from the source pattern.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Process count.
    #[must_use]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of stages.
    #[must_use]
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Borrow one compiled stage.
    #[must_use]
    pub fn stage(&self, k: usize) -> &StagePlan {
        &self.stages[k]
    }

    /// Total signal count across all stages.
    #[must_use]
    pub fn total_signals(&self) -> usize {
        self.stages.iter().map(StagePlan::edge_count).sum()
    }

    /// The raw §5.6.5 posted table (`stages × p`, row-major) behind
    /// [`CompiledPattern::is_posted`] — introspection hook so the static
    /// analyzer can check the table's shape before indexing it.
    #[must_use]
    pub fn posted_table(&self) -> &[bool] {
        &self.posted
    }

    /// The raw last-transmission table (`(stages + 1) × p`, row-major)
    /// behind [`CompiledPattern::last_send_stage`]; `usize::MAX` encodes
    /// "has not transmitted yet".
    #[must_use]
    pub fn last_send_table(&self) -> &[usize] {
        &self.last_send
    }

    /// Exact jitter multipliers one staged execution (one repetition)
    /// consumes: per stage, [`ENTRY_JITTER_DRAWS`] per process plus
    /// [`SIGNAL_JITTER_DRAWS`] per signal slot. The batched engine
    /// allocates and fills its table from this number and the audit
    /// tests assert the executor consumes exactly it — a silent
    /// divergence between plan and engine trips either the test or the
    /// buffer's bounds check.
    #[must_use]
    pub fn jitter_draws(&self) -> usize {
        self.jitter_draws
    }

    /// True when rank `j` is known to be awaiting signals at stage `s` —
    /// the §5.6.5 posted-receiver refinement, as one indexed load.
    #[must_use]
    pub fn is_posted(&self, j: usize, s: usize) -> bool {
        self.posted[s * self.p + j]
    }

    /// The last stage index before `before` in which `i` transmitted, if
    /// any — one load from the precomputed table.
    #[must_use]
    pub fn last_send_stage(&self, i: usize, before: usize) -> Option<usize> {
        let row = before.min(self.stages.len());
        let s = self.last_send[row * self.p + i];
        (s != usize::MAX).then_some(s)
    }

    /// The survivor-compacted repair of this plan after the ranks in
    /// `crashed` failed: every edge incident to a crashed rank is
    /// dropped, the survivors are renumbered `0..p'` in ascending
    /// original-rank order, stages whose edge list empties out vanish
    /// entirely (an empty stage is a structural error in the analyzer's
    /// rule set — and a stage the executor would pay entry overhead for
    /// without communicating), and the result is rebuilt through the
    /// honest [`CompiledPattern::from_stage_edges`] route so the
    /// posted/last-send tables and the `jitter_draws` count are
    /// re-derived for the compacted shape. The static audit therefore
    /// holds on the repaired plan exactly as it does on a freshly
    /// authored one.
    ///
    /// Note the contrast with the analyzer's k-crash coverage check,
    /// which keeps the original `p` and merely isolates crashed ranks:
    /// this method produces the plan survivors would actually *execute*,
    /// so the rank space is compacted. Whether the compacted plan still
    /// attains its knowledge goal is a separate question — see
    /// [`crate::recovery::repair_plan`] for the re-planning fallback.
    ///
    /// # Panics
    ///
    /// Panics when a crashed rank is out of range or when no rank
    /// survives (an empty machine has no plan).
    #[must_use]
    pub fn restrict_to_survivors(&self, crashed: &[usize]) -> CompiledPattern {
        let p = self.p;
        let mut dead = vec![false; p];
        for &r in crashed {
            assert!(r < p, "crashed rank {r} out of range for p={p}");
            dead[r] = true;
        }
        let mut remap = vec![usize::MAX; p];
        let mut np = 0usize;
        for (i, &d) in dead.iter().enumerate() {
            if !d {
                remap[i] = np;
                np += 1;
            }
        }
        assert!(np > 0, "restrict_to_survivors: every rank crashed");
        let mut stage_edges: Vec<Vec<(usize, usize)>> = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            let mut edges = Vec::with_capacity(stage.edge_count());
            for i in 0..p {
                if dead[i] {
                    continue;
                }
                for &j in stage.dsts(i) {
                    if !dead[j] {
                        edges.push((remap[i], remap[j]));
                    }
                }
            }
            if !edges.is_empty() {
                stage_edges.push(edges);
            }
        }
        let name = format!("{}-survivors", self.name);
        CompiledPattern::from_stage_edges(&name, np, &stage_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::IMat;
    use crate::recovery::dissemination_edges;

    fn dissemination(p: usize) -> CompiledPattern {
        CompiledPattern::from_stage_edges("dissemination", p, &dissemination_edges(p))
    }

    /// The CSR form against the thesis' matrix form: same enumeration,
    /// same degrees, as the dense `IMat` built from the same edges.
    #[test]
    fn csr_matches_dense_enumeration() {
        let plan = dissemination(13);
        assert_eq!(plan.p(), 13);
        let edges = dissemination_edges(13);
        assert_eq!(plan.stages(), edges.len());
        assert_eq!(
            plan.total_signals(),
            edges.iter().map(Vec::len).sum::<usize>()
        );
        for (s, stage_edges) in edges.iter().enumerate() {
            let dense = IMat::from_edges(13, stage_edges);
            let flat = plan.stage(s);
            assert_eq!(flat.edge_count(), dense.edge_count());
            for r in 0..13 {
                assert_eq!(flat.dsts(r), dense.dsts(r).collect::<Vec<_>>(), "stage {s}");
                assert_eq!(flat.srcs(r), dense.srcs(r).collect::<Vec<_>>(), "stage {s}");
                assert_eq!(flat.out_degree(r), dense.out_degree(r));
                assert_eq!(flat.in_degree(r), dense.in_degree(r));
            }
        }
    }

    /// `transpose` swaps the CSR halves: an involution, and the same
    /// stage the dense `IMat::transpose` oracle describes.
    #[test]
    fn transpose_is_an_involution_and_matches_the_dense_oracle() {
        let edges = [(1, 0), (2, 0), (3, 1), (0, 4), (4, 2), (4, 3)];
        let stage = StagePlan::from_edges(5, &edges);
        let t = stage.transpose();
        assert_eq!(t.transpose(), stage);
        let flipped: Vec<(usize, usize)> = edges.iter().map(|&(i, j)| (j, i)).collect();
        assert_eq!(t, StagePlan::from_edges(5, &flipped));
        let dense = IMat::from_edges(5, &edges).transpose();
        for r in 0..5 {
            assert_eq!(t.dsts(r), dense.dsts(r).collect::<Vec<_>>());
            assert_eq!(t.srcs(r), dense.srcs(r).collect::<Vec<_>>());
        }
        assert_eq!(t.to_string(), dense.to_string());
    }

    #[test]
    fn last_send_stage_lookup() {
        // Fig. 5.2: gather to rank 0, then release.
        let plan = CompiledPattern::from_stage_edges(
            "linear",
            4,
            &[vec![(1, 0), (2, 0), (3, 0)], vec![(0, 1), (0, 2), (0, 3)]],
        );
        // Rank 1 sends only in stage 0.
        assert_eq!(plan.last_send_stage(1, 3), Some(0));
        assert_eq!(plan.last_send_stage(1, 2), Some(0));
        assert_eq!(plan.last_send_stage(1, 1), Some(0));
        assert_eq!(plan.last_send_stage(1, 0), None);
        // Rank 0 sends only in stage 1.
        assert_eq!(plan.last_send_stage(0, 1), None);
        assert_eq!(plan.last_send_stage(0, 2), Some(1));
    }

    #[test]
    fn posted_table_matches_definition() {
        // 3-stage pattern from the predictor's posted-receive test:
        // 1 → 0, then 2 → 1, then 1 → 0 again.
        let p = 3;
        let plan = CompiledPattern::from_stage_edges(
            "posted",
            p,
            &[vec![(1, 0)], vec![(2, 1)], vec![(1, 0)]],
        );
        // Stage 0: nothing posted yet.
        for j in 0..p {
            assert!(!plan.is_posted(j, 0));
        }
        // Stage 1: rank 0 never sent → posted; rank 1 sent in stage 0 →
        // not posted; rank 2 never sent → posted.
        assert!(plan.is_posted(0, 1));
        assert!(!plan.is_posted(1, 1));
        assert!(plan.is_posted(2, 1));
        // Stage 2: rank 0 idle since before stage 1 → posted; rank 1
        // last sent stage 0 (0 + 1 < 2) → posted; rank 2 sent stage 1 →
        // not posted.
        assert!(plan.is_posted(0, 2));
        assert!(plan.is_posted(1, 2));
        assert!(!plan.is_posted(2, 2));
    }

    #[test]
    fn jitter_draw_count_sums_entries_and_signals() {
        let plan = dissemination(13);
        let mut want = 0;
        for s in 0..plan.stages() {
            let stage = plan.stage(s);
            let stage_want = 13 * ENTRY_JITTER_DRAWS + stage.edge_count() * SIGNAL_JITTER_DRAWS;
            assert_eq!(stage.jitter_draws(), stage_want, "stage {s}");
            want += stage_want;
        }
        assert_eq!(plan.jitter_draws(), want);
        // Dissemination: every rank signals once per stage.
        assert_eq!(want, plan.stages() * (13 + 13 * SIGNAL_JITTER_DRAWS));
    }

    /// Edge order within a stage is irrelevant: both directions come out
    /// ascending however the builder listed the edges.
    #[test]
    fn edge_order_is_irrelevant() {
        for p in [2usize, 5, 13, 24, 64] {
            let mut reversed = dissemination_edges(p);
            for edges in &mut reversed {
                edges.reverse();
            }
            let shuffled = CompiledPattern::from_stage_edges("dissemination", p, &reversed);
            assert_eq!(shuffled, dissemination(p), "p={p}");
        }
    }

    #[test]
    #[should_panic]
    fn sparse_authoring_rejects_out_of_range_edges() {
        StagePlan::from_edges(4, &[(0, 4)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge (0,1)")]
    fn sparse_authoring_rejects_duplicate_edges() {
        StagePlan::from_edges(4, &[(0, 1), (2, 3), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "self-send edge (2,2)")]
    fn sparse_authoring_rejects_self_sends() {
        StagePlan::from_edges(4, &[(0, 1), (2, 2)]);
    }

    /// Survivor compaction drops exactly the edges incident to crashed
    /// ranks, renumbers the rest order-preservingly, and re-derives the
    /// tables: the restriction of dissemination(8) after rank 3 crashes
    /// equals the plan compiled directly from the translated edges.
    #[test]
    fn restrict_to_survivors_compacts_and_rederives() {
        let plan = dissemination(8);
        let pruned = plan.restrict_to_survivors(&[3]);
        assert_eq!(pruned.p(), 7);
        assert_eq!(pruned.name(), "dissemination-survivors");
        // Build the expected plan by hand: remap is identity below 3,
        // minus one above.
        let remap = |r: usize| if r < 3 { r } else { r - 1 };
        let mut want_edges: Vec<Vec<(usize, usize)>> = Vec::new();
        for s in 0..plan.stages() {
            let mut edges = Vec::new();
            for i in 0..8 {
                if i == 3 {
                    continue;
                }
                for &j in plan.stage(s).dsts(i) {
                    if j != 3 {
                        edges.push((remap(i), remap(j)));
                    }
                }
            }
            want_edges.push(edges);
        }
        let want = CompiledPattern::from_stage_edges("dissemination-survivors", 7, &want_edges);
        assert_eq!(pruned, want);
        // The re-derived draw count reflects the compacted shape.
        let edges: usize = (0..pruned.stages())
            .map(|s| pruned.stage(s).edge_count())
            .sum();
        assert_eq!(
            pruned.jitter_draws(),
            pruned.stages() * 7 * ENTRY_JITTER_DRAWS + edges * SIGNAL_JITTER_DRAWS
        );
    }

    /// Stages that lose every edge disappear instead of surviving as
    /// empty stages the executor would pay entry overhead for.
    #[test]
    fn restrict_to_survivors_drops_emptied_stages() {
        // Stage 0 only connects ranks 1 and 2; stage 1 connects 0 and 3.
        let edges = vec![vec![(1, 2), (2, 1)], vec![(0, 3), (3, 0)]];
        let plan = CompiledPattern::from_stage_edges("two", 4, &edges);
        let pruned = plan.restrict_to_survivors(&[1]);
        assert_eq!(pruned.p(), 3);
        assert_eq!(pruned.stages(), 1, "stage 0 must vanish entirely");
        assert_eq!(pruned.stage(0).dsts(0), &[2]);
        assert_eq!(pruned.stage(0).dsts(2), &[0]);
    }

    /// A crash set that severs everything leaves a legal zero-stage plan
    /// over the survivors; crashing every rank panics.
    #[test]
    fn restrict_to_survivors_degenerate_cases() {
        let plan = dissemination(4);
        let lonely = plan.restrict_to_survivors(&[0, 1, 2]);
        assert_eq!(lonely.p(), 1);
        assert_eq!(lonely.stages(), 0);
        assert_eq!(lonely.jitter_draws(), 0);
        // Unordered, duplicated crash lists are tolerated.
        let dup = plan.restrict_to_survivors(&[2, 0, 2]);
        assert_eq!(dup.p(), 2);
    }

    #[test]
    #[should_panic(expected = "every rank crashed")]
    fn restrict_to_survivors_rejects_total_loss() {
        let plan = dissemination(2);
        let _ = plan.restrict_to_survivors(&[0, 1]);
    }

    #[test]
    fn zero_stage_pattern_compiles() {
        use crate::pattern::CommPattern;
        struct Degenerate;
        impl CommPattern for Degenerate {
            fn name(&self) -> &str {
                "degenerate"
            }
            fn p(&self) -> usize {
                1
            }
            fn stages(&self) -> usize {
                0
            }
            fn stage(&self, _: usize) -> &StagePlan {
                unreachable!("no stages")
            }
        }
        let plan = Degenerate.plan();
        assert_eq!(plan.stages(), 0);
        assert_eq!(plan.total_signals(), 0);
        assert_eq!(plan.last_send_stage(0, 0), None);
    }
}
