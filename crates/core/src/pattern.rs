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
//! [`CompiledPattern::render`] prints the 0/1 grids of Figs. 5.2–5.4.
//!
//! Every pattern is one [`CompiledPattern`]: a barrier builder returns
//! it, and a collective of `hpm-collectives` holds it beside its payload
//! schedule and knowledge goal. Knowledge verification
//! ([`crate::knowledge`]), critical-path prediction
//! ([`crate::predictor`]) and staged simulation all read that one form.
//! [`CommPattern`] is only the owned-plan view the benchmark surface
//! takes of both kinds.

use crate::plan::{CompiledPattern, StagePlan};

/// A named pattern that hands out its compiled plan. Object-safe, so
/// barriers and collectives can sit behind one `&dyn CommPattern`.
pub trait CommPattern {
    /// Descriptive name (e.g. `dissemination`, `allreduce`).
    fn name(&self) -> &str;

    /// An owned copy of the pattern's compiled plan.
    fn plan(&self) -> CompiledPattern;
}

/// `⌈log₂ p⌉`: the stage depth of the binomial and dissemination-style
/// patterns — the single source of truth the pattern builders, payload
/// schedules and executors must agree on.
pub fn log2_ceil(p: usize) -> usize {
    assert!(p > 0, "log2_ceil requires a positive process count");
    usize::BITS as usize - (p - 1).leading_zeros() as usize
}

/// Validates a stage list: at least one process, and no empty stage (an
/// empty stage is a semantic no-op that would distort stage-count-based
/// analysis). Shared by every pattern constructor; each stage's width is
/// checked by [`CompiledPattern::from_stages`].
pub fn validate_stages(p: usize, stages: &[StagePlan]) {
    assert!(p > 0, "pattern needs at least one process");
    for (k, s) in stages.iter().enumerate() {
        assert!(s.edge_count() > 0, "stage {k} is empty");
    }
}

impl CommPattern for CompiledPattern {
    fn name(&self) -> &str {
        CompiledPattern::name(self)
    }

    /// Already the execution form: a copy, not a re-derivation.
    fn plan(&self) -> CompiledPattern {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear4() -> CompiledPattern {
        // Fig. 5.2: gather to rank 0, then release.
        let s0 = StagePlan::from_edges(4, &[(1, 0), (2, 0), (3, 0)]);
        let s1 = StagePlan::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        CompiledPattern::from_stages("linear", 4, vec![s0, s1])
    }

    #[test]
    fn fig_5_2_linear_shape() {
        let b = linear4();
        assert_eq!(b.stages(), 2);
        assert_eq!(b.total_signals(), 6);
        assert_eq!(b.stage(0).srcs(0), &[1, 2, 3]);
        assert_eq!(b.stage(1).dsts(0), &[1, 2, 3]);
    }

    #[test]
    fn release_is_transposed_gather() {
        let b = linear4();
        assert_eq!(b.stage(1), &b.stage(0).transpose());
    }

    /// A plan's trait view answers as the plan does, and its `plan()` is
    /// the plan itself, tables included.
    #[test]
    fn trait_object_view_matches_concrete() {
        let b = linear4();
        let dyn_view: &dyn CommPattern = &b;
        assert_eq!(dyn_view.plan(), b);
        assert_eq!(dyn_view.name(), "linear");
    }

    #[test]
    #[should_panic]
    fn empty_stage_rejected() {
        validate_stages(3, &[StagePlan::from_edges(3, &[])]);
    }
}
