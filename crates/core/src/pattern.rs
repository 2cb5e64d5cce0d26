//! Stage-sequenced communication patterns (§5.5).
//!
//! Any staged communication algorithm — a barrier, a broadcast, a
//! reduction — is a layered dependency graph: a sequence of stages
//! `S_0, S_1, …`, where `S_k(i, j) = 1` means "process i signals process
//! j in stage k". The encoding captures both the sequential dependencies
//! (the stage sequence) and the signals that may be in flight
//! simultaneously (within a stage) — everything a simulator or cost
//! predictor needs, independent of the algorithm that generated it.
//!
//! The thesis writes each `S_k` as a `P×P` incidence matrix; here a
//! stage is a [`StagePlan`] — the same edge set as sparse adjacency,
//! O(p + edges) instead of O(p²) — from the builder that authors it to
//! the executor that runs it. The matrix view is still one call away:
//! [`CommPattern::render`] prints the 0/1 grids of Figs. 5.2–5.4.
//!
//! [`CommPattern`] is the shared abstraction: anything exposing its
//! stages flows through the same knowledge verification
//! ([`crate::knowledge`]), critical-path cost prediction
//! ([`crate::predictor`]) and staged simulation unchanged.
//! [`BarrierPattern`] is the barrier-shaped implementation; the collective
//! operations of `hpm-collectives` provide another.

use crate::plan::{CompiledPattern, StagePlan};

/// A staged communication pattern: a sequence of sparse stages.
///
/// Implementors supply the four accessors; [`CommPattern::plan`] and
/// [`CommPattern::render`] come for free. The trait is object-safe so
/// heterogeneous pattern collections can be handled through `&dyn
/// CommPattern`.
pub trait CommPattern {
    /// Descriptive name (e.g. `dissemination`, `allreduce`).
    fn name(&self) -> &str;

    /// Process count.
    fn p(&self) -> usize;

    /// Number of stages. A zero-stage pattern is the degenerate
    /// single-process collective: nothing to communicate.
    fn stages(&self) -> usize;

    /// Borrow one stage.
    fn stage(&self, k: usize) -> &StagePlan;

    /// The pattern's execution form: its stages plus the precomputed
    /// §5.6.5 tables. Build once, then hand the result to the predictor,
    /// verifier and simulator hot paths.
    fn plan(&self) -> CompiledPattern {
        let stages = (0..self.stages()).map(|k| self.stage(k).clone());
        CompiledPattern::from_stages(self.name(), self.p(), stages.collect())
    }

    /// Renders all stages as `P×P` incidence matrices, in the layout of
    /// Figs. 5.2–5.4.
    fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for k in 0..self.stages() {
            writeln!(out, "S{k} =").expect("writing to a String cannot fail");
            write!(out, "{}", self.stage(k)).expect("writing to a String cannot fail");
        }
        out
    }
}

/// `⌈log₂ p⌉`: the stage depth of the binomial and dissemination-style
/// patterns — the single source of truth the pattern builders, payload
/// schedules and executors must agree on.
pub fn log2_ceil(p: usize) -> usize {
    assert!(p > 0, "log2_ceil requires a positive process count");
    usize::BITS as usize - (p - 1).leading_zeros() as usize
}

/// Validates a stage list: every stage must span `p` processes and be
/// non-empty (an empty stage is a semantic no-op that would distort
/// stage-count-based analysis). Shared by every pattern constructor.
pub fn validate_stages(p: usize, stages: &[StagePlan]) {
    assert!(p > 0, "pattern needs at least one process");
    for (k, s) in stages.iter().enumerate() {
        assert_eq!(s.p(), p, "stage {k} has wrong dimension");
        assert!(s.edge_count() > 0, "stage {k} is empty");
    }
}

/// A barrier algorithm encoded as a stage sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierPattern {
    name: String,
    p: usize,
    stages: Vec<StagePlan>,
}

impl BarrierPattern {
    /// Builds a pattern, validating that every stage spans `p` processes
    /// and that no stage is empty. Barriers always communicate, so at
    /// least one stage is required.
    pub fn new(name: &str, p: usize, stages: Vec<StagePlan>) -> BarrierPattern {
        assert!(!stages.is_empty(), "pattern needs at least one stage");
        validate_stages(p, &stages);
        BarrierPattern {
            name: name.to_string(),
            p,
            stages,
        }
    }

    /// The execution form of a pattern that is built only to be run: the
    /// stages move into the plan instead of being cloned as
    /// [`CommPattern::plan`] must.
    pub fn into_plan(self) -> CompiledPattern {
        CompiledPattern::from_stages(&self.name, self.p, self.stages)
    }
}

impl CommPattern for BarrierPattern {
    fn name(&self) -> &str {
        &self.name
    }

    fn p(&self) -> usize {
        self.p
    }

    fn stages(&self) -> usize {
        self.stages.len()
    }

    fn stage(&self, k: usize) -> &StagePlan {
        &self.stages[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::IMat;

    fn linear4() -> BarrierPattern {
        // Fig. 5.2: gather to rank 0, then release.
        let s0 = StagePlan::from_edges(4, &[(1, 0), (2, 0), (3, 0)]);
        let s1 = StagePlan::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        BarrierPattern::new("linear", 4, vec![s0, s1])
    }

    #[test]
    fn fig_5_2_linear_shape() {
        let b = linear4();
        assert_eq!(b.stages(), 2);
        assert_eq!(b.plan().total_signals(), 6);
        assert_eq!(b.stage(0).srcs(0), &[1, 2, 3]);
        assert_eq!(b.stage(1).dsts(0), &[1, 2, 3]);
    }

    #[test]
    fn release_is_transposed_gather() {
        let b = linear4();
        assert_eq!(b.stage(1), &b.stage(0).transpose());
    }

    /// `render()` prints exactly the thesis' incidence matrices: the
    /// same text `IMat`'s `Display` gives for the same edges.
    #[test]
    fn render_equals_the_dense_matrix_text() {
        let s0 = IMat::from_edges(4, &[(1, 0), (2, 0), (3, 0)]);
        let s1 = IMat::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(linear4().render(), format!("S0 =\n{s0}S1 =\n{s1}"));
    }

    #[test]
    fn trait_object_view_matches_concrete() {
        let b = linear4();
        let dyn_view: &dyn CommPattern = &b;
        assert_eq!(dyn_view.p(), 4);
        assert_eq!(dyn_view.stages(), 2);
        assert_eq!(dyn_view.plan(), b.plan());
        assert_eq!(b.clone().into_plan(), b.plan());
        assert_eq!(dyn_view.name(), "linear");
    }

    #[test]
    #[should_panic]
    fn empty_stage_rejected() {
        BarrierPattern::new("bad", 3, vec![StagePlan::from_edges(3, &[])]);
    }

    #[test]
    #[should_panic]
    fn wrong_dimension_rejected() {
        BarrierPattern::new("bad", 4, vec![StagePlan::from_edges(3, &[(0, 1)])]);
    }

    #[test]
    #[should_panic]
    fn zero_stages_rejected_for_barriers() {
        BarrierPattern::new("bad", 3, Vec::new());
    }
}
