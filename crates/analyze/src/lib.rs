//! Static analysis of compiled communication plans — verdicts without
//! execution.
//!
//! A [`CompiledPattern`] cannot be built malformed: `StagePlan::from_edges`
//! rejects out-of-range, duplicate and self edges and writes both CSR
//! directions sorted, and `CompiledPattern::from_stages` checks every
//! stage's `p` and derives the §5.6.5 tables and the jitter-draw count
//! itself. What is left to check statically is what a well-formed plan
//! can still get wrong. [`Analyzer::analyze`] reports legal but unusable
//! shapes (an empty stage, a rank that never communicates) as structured
//! [`Diagnostic`]s, and [`Analyzer::analyze_with_goal`] additionally decides
//! knowledge-goal attainability through the §5.5 recurrence — all
//! without running a single simulated repetition. A plan from a
//! builder or a search such as the greedy adaptive barrier is rejected
//! by rule name, not by a crashed simulation.
//!
//! The rule catalogue (see DESIGN.md, "The static analysis layer"):
//!
//! | rule | severity | checks |
//! |------|----------|--------|
//! | `rank-range` | error | a rooted goal's root is a rank of the plan |
//! | `empty-stage` | error | every stage carries at least one signal |
//! | `dead-rank` | warning | a rank neither sends nor receives in any stage |
//! | `goal-unattainable` | error | the knowledge recurrence reaches the declared [`KnowledgeGoal`] |
//! | `k-crash-coverage` | warning | the goal, restricted to survivors, outlives a pruned crash set ([`Analyzer::k_crash_coverage`]) |
//!
//! The companion [`lint`] module is pass two: a source scanner (exposed
//! as the `hpm-analyze --src` binary) that rejects
//! determinism-contract violations in the simulation crates' code
//! itself.

pub mod lint;

use hpm_core::knowledge::{KnowledgeGoal, VerifyScratch};
use hpm_core::plan::CompiledPattern;
use hpm_core::recovery::SurvivorMap;
use std::fmt;

/// How bad a finding is. `Error` findings make a plan unusable (an
/// executor would pay for a stage that communicates nothing, or the
/// plan misses its goal); `Warning` findings are legal but suspicious
/// shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl Severity {
    /// Lower-case display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The analyzer's rule catalogue. Every diagnostic names the rule that
/// produced it, so callers (and the tests) can match on the
/// violation kind rather than parse messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A rooted goal names a root outside `0..p` — malformed caller
    /// input, reported instead of panicked on.
    RankRange,
    /// A stage carries no signals.
    EmptyStage,
    /// A rank neither sends nor receives in any stage.
    DeadRank,
    /// The knowledge recurrence never establishes the declared goal.
    GoalUnattainable,
    /// After pruning a crashed rank set, the surviving ranks no longer
    /// attain the declared goal among themselves.
    KCrashCoverage,
}

impl Rule {
    /// Stable kebab-case rule name, as printed by `repro analyze`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::RankRange => "rank-range",
            Rule::EmptyStage => "empty-stage",
            Rule::DeadRank => "dead-rank",
            Rule::GoalUnattainable => "goal-unattainable",
            Rule::KCrashCoverage => "k-crash-coverage",
        }
    }
}

/// One analyzer finding: which rule fired, where, and why.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub severity: Severity,
    /// Stage the finding is anchored to, when it is stage-local.
    pub stage: Option<usize>,
    /// Ranks involved, capped at [`MAX_LISTED`] (the message carries the
    /// total when the list is truncated).
    pub ranks: Vec<usize>,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity.name(), self.rule.name())?;
        if let Some(s) = self.stage {
            write!(f, " stage {s}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// Rank/pair lists inside a single diagnostic are capped at this many
/// entries; the message records the uncapped total.
pub const MAX_LISTED: usize = 8;

/// The analyzer, holding the reusable knowledge-verification scratch.
/// Analyzing many plans through one `Analyzer` touches the heap only
/// when the process count grows — the same scratch-pooling contract as
/// [`VerifyScratch`] itself.
pub struct Analyzer {
    scratch: VerifyScratch,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl Analyzer {
    #[must_use]
    pub fn new() -> Analyzer {
        Analyzer {
            scratch: VerifyScratch::new(),
        }
    }

    /// Runs every structural rule over `plan` — everything except
    /// knowledge-goal attainability, which needs a declared goal (see
    /// [`Analyzer::analyze_with_goal`]). Returns an empty vector for a
    /// well-formed plan.
    #[must_use]
    pub fn analyze(&mut self, plan: &CompiledPattern) -> Vec<Diagnostic> {
        structural(plan)
    }

    /// Structural rules plus knowledge-goal attainability. The §5.5
    /// recurrence only runs when the structural pass found no errors —
    /// an empty stage already makes the plan unusable — and when the
    /// goal's root, if it has one, is a rank of the plan (a `rank-range`
    /// error otherwise).
    #[must_use]
    pub fn analyze_with_goal(
        &mut self,
        plan: &CompiledPattern,
        goal: KnowledgeGoal,
    ) -> Vec<Diagnostic> {
        let mut diags = structural(plan);
        if diags.iter().any(|d| d.severity == Severity::Error) {
            return diags;
        }
        if let Some(d) = root_out_of_range(plan.p(), goal) {
            diags.push(d);
            return diags;
        }
        let view = self.scratch.verify(plan);
        if !view.satisfies(goal) {
            diags.push(goal_diagnostic(view, goal));
        }
        diags
    }

    /// Static k-crash coverage: prunes the plan to the survivors of
    /// `crashed` ([`SurvivorMap::restrict`]), replays the §5.5 knowledge
    /// recurrence over it, and decides whether `goal` restated over the
    /// survivors ([`SurvivorMap::goal`]) is still attained. A rooted goal
    /// whose root crashed — or was never a rank of the plan — is lost by
    /// definition.
    ///
    /// The structural rules deliberately do not run on the pruned plan:
    /// pruning legitimately produces dead ranks, which are contract
    /// violations for an executable plan but the expected shape of a
    /// post-crash one. Only the recurrence is consulted.
    ///
    /// # Panics
    ///
    /// Panics when a crashed rank is out of range.
    #[must_use]
    pub fn k_crash_coverage(
        &mut self,
        plan: &CompiledPattern,
        goal: KnowledgeGoal,
        crashed: &[usize],
    ) -> CrashVerdict {
        let map = SurvivorMap::new(plan.p(), crashed);
        let survivor_goal = match goal.root() {
            Some(r) if r >= plan.p() => None,
            _ => map.goal(goal),
        };
        let uninformed_pairs = match survivor_goal {
            Some(g) if !map.ranks().is_empty() => {
                self.scratch.verify(&map.restrict(plan)).missing(g).count()
            }
            _ => 0,
        };
        CrashVerdict {
            crashed: map.crashed().collect(),
            goal,
            root_crashed: survivor_goal.is_none(),
            uninformed_pairs,
        }
    }
}

/// Verdict of one static crash scenario (see
/// [`Analyzer::k_crash_coverage`]): the pruned rank set and whether the
/// goal, restricted to the survivors, is still attained.
#[derive(Debug, Clone)]
pub struct CrashVerdict {
    /// The pruned ranks, sorted and deduplicated.
    pub crashed: Vec<usize>,
    /// The goal the verdict is about.
    pub goal: KnowledgeGoal,
    /// True when the goal is rooted and its root was pruned — lost by
    /// definition, without consulting the recurrence.
    pub root_crashed: bool,
    /// Survivor pairs the recurrence left uninformed (0 when the goal
    /// survives or the root crashed).
    pub uninformed_pairs: usize,
}

impl CrashVerdict {
    /// True when the surviving ranks still attain the goal.
    #[must_use]
    pub fn survives(&self) -> bool {
        !self.root_crashed && self.uninformed_pairs == 0
    }

    /// Renders a lost goal as a [`Rule::KCrashCoverage`] warning;
    /// `None` when the goal survives. Warning severity: crash
    /// vulnerability is a property being measured, not a malformed plan.
    #[must_use]
    pub fn diagnostic(&self) -> Option<Diagnostic> {
        if self.survives() {
            return None;
        }
        let listed: Vec<usize> = self.crashed.iter().copied().take(MAX_LISTED).collect();
        let why = if self.root_crashed {
            "the goal's root is among the crashed".to_string()
        } else {
            format!("{} survivor pairs stay uninformed", self.uninformed_pairs)
        };
        Some(Diagnostic {
            severity: Severity::Warning,
            stage: None,
            ranks: listed.clone(),
            rule: Rule::KCrashCoverage,
            message: format!(
                "{:?} lost after crashing {}: {why}",
                self.goal,
                capped("ranks", self.crashed.len(), &listed)
            ),
        })
    }
}

/// The `rank-range` error for a rooted goal whose root is not a rank
/// of a `p`-rank plan; `None` for an unrooted goal or a valid root.
fn root_out_of_range(p: usize, goal: KnowledgeGoal) -> Option<Diagnostic> {
    let root = goal.root().filter(|&r| r >= p)?;
    Some(Diagnostic {
        severity: Severity::Error,
        stage: None,
        ranks: vec![root],
        rule: Rule::RankRange,
        message: format!("{goal:?} names root {root} for p = {p}"),
    })
}

/// Renders a capped rank list plus total, e.g. `3 ranks: [0, 2, 5]`.
fn capped(label: &str, all: usize, listed: &[usize]) -> String {
    let ell = if all > listed.len() { ", …" } else { "" };
    let shown: Vec<String> = listed.iter().map(|r| r.to_string()).collect();
    format!("{all} {label}: [{}{ell}]", shown.join(", "))
}

/// The structural pass shared by [`Analyzer::analyze`] and
/// [`Analyzer::analyze_with_goal`]: empty stages, then dead ranks.
fn structural(plan: &CompiledPattern) -> Vec<Diagnostic> {
    let p = plan.p();
    let mut diags: Vec<Diagnostic> = (0..plan.stages())
        .filter(|&s| plan.stage(s).edge_count() == 0)
        .map(|s| Diagnostic {
            severity: Severity::Error,
            stage: Some(s),
            ranks: vec![],
            rule: Rule::EmptyStage,
            message: "stage carries no signals".to_string(),
        })
        .collect();

    // Dead ranks: legal (a zero-stage pattern at p = 1 is how collectives
    // degenerate) but suspicious in any staged pattern — a rank the
    // knowledge recurrence can never inform.
    if plan.stages() > 0 {
        let dead: Vec<usize> = (0..p)
            .filter(|&r| {
                (0..plan.stages())
                    .all(|s| plan.stage(s).out_degree(r) == 0 && plan.stage(s).in_degree(r) == 0)
            })
            .collect();
        if !dead.is_empty() {
            let listed: Vec<usize> = dead.iter().copied().take(MAX_LISTED).collect();
            diags.push(Diagnostic {
                severity: Severity::Warning,
                stage: None,
                ranks: listed.clone(),
                rule: Rule::DeadRank,
                message: capped("ranks never send or receive", dead.len(), &listed),
            });
        }
    }
    diags
}

/// Builds the `goal-unattainable` diagnostic: which required pairs the
/// recurrence never informed, phrased per goal.
fn goal_diagnostic(view: &VerifyScratch, goal: KnowledgeGoal) -> Diagnostic {
    let label = match goal {
        KnowledgeGoal::AllToAll => "pairs (i, j) where i never learns of j",
        KnowledgeGoal::RootGathers(_) => "ranks the root never hears from",
        KnowledgeGoal::RootReaches(_) => "ranks the root never reaches",
        KnowledgeGoal::Prefix => "prefix pairs (i, j ≤ i) where i never learns of j",
    };
    let failing: Vec<(usize, usize)> = view.missing(goal).collect();
    let shown: Vec<String> = failing
        .iter()
        .take(MAX_LISTED)
        .map(|&(i, j)| format!("({i}, {j})"))
        .collect();
    let ell = if failing.len() > MAX_LISTED {
        ", …"
    } else {
        ""
    };
    Diagnostic {
        severity: Severity::Error,
        stage: None,
        ranks: failing
            .iter()
            .take(MAX_LISTED / 2)
            .flat_map(|&(i, j)| [i, j])
            .collect(),
        rule: Rule::GoalUnattainable,
        message: format!(
            "{goal:?} not established: {} {label}: [{}{ell}]",
            failing.len(),
            shown.join(", ")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_core::plan::StagePlan;

    /// A well-formed 2-stage plan on 4 ranks: a gather to 0, then a
    /// broadcast from 0.
    fn clean_plan() -> CompiledPattern {
        CompiledPattern::from_stage_edges(
            "gather-bcast",
            4,
            &[vec![(1, 0), (2, 0), (3, 0)], vec![(0, 1), (0, 2), (0, 3)]],
        )
    }

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_plan_analyzes_clean() {
        assert!(Analyzer::new().analyze(&clean_plan()).is_empty());
        assert!(Analyzer::new()
            .analyze_with_goal(&clean_plan(), KnowledgeGoal::AllToAll)
            .is_empty());
    }

    #[test]
    fn zero_stage_plan_analyzes_clean() {
        // p = 1 collectives degenerate to zero stages — legal, and the
        // dead-rank rule must not fire on them.
        let plan = CompiledPattern::from_stage_edges("noop", 1, &[]);
        assert!(Analyzer::new().analyze(&plan).is_empty());
    }

    #[test]
    fn empty_stage_rule_fires() {
        let stage = StagePlan::from_edges(3, &[]);
        let plan = CompiledPattern::from_stages("hollow", 3, vec![stage]);
        let diags = Analyzer::new().analyze(&plan);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::EmptyStage && d.stage == Some(0)),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_rank_rule_warns() {
        // Rank 2 never participates in the 3-rank exchange 0 ↔ 1.
        let plan = CompiledPattern::from_stage_edges("pairwise", 3, &[vec![(0, 1), (1, 0)]]);
        let diags = Analyzer::new().analyze(&plan);
        assert_eq!(rules(&diags), vec![Rule::DeadRank], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].ranks, vec![2]);
    }

    #[test]
    fn goal_unattainable_rule_fires() {
        // A pure gather satisfies RootGathers(0) but not AllToAll.
        let gather = CompiledPattern::from_stage_edges("gather", 3, &[vec![(1, 0), (2, 0)]]);
        assert!(Analyzer::new()
            .analyze_with_goal(&gather, KnowledgeGoal::RootGathers(0))
            .is_empty());
        let diags = Analyzer::new().analyze_with_goal(&gather, KnowledgeGoal::AllToAll);
        assert_eq!(rules(&diags), vec![Rule::GoalUnattainable], "{diags:?}");
        assert!(
            diags[0].message.contains("AllToAll"),
            "{}",
            diags[0].message
        );

        // The broadcast-direction goals distinguish the two rooted cases.
        let diags = Analyzer::new().analyze_with_goal(&gather, KnowledgeGoal::RootReaches(0));
        assert_eq!(rules(&diags), vec![Rule::GoalUnattainable]);
    }

    /// A rooted goal naming a rank the plan does not have is malformed
    /// input, so it is reported, not panicked on: a `rank-range` error
    /// from the goal pass, a lost-by-definition verdict from coverage.
    #[test]
    fn out_of_range_root_is_a_diagnostic_not_a_panic() {
        let mut an = Analyzer::new();
        let plan = clean_plan();
        for goal in [KnowledgeGoal::RootGathers(4), KnowledgeGoal::RootReaches(9)] {
            let root = goal.root().expect("rooted");
            let diags = an.analyze_with_goal(&plan, goal);
            assert_eq!(rules(&diags), vec![Rule::RankRange], "{diags:?}");
            assert_eq!(diags[0].severity, Severity::Error);
            assert_eq!(diags[0].ranks, vec![root]);
            let msg = &diags[0].message;
            assert!(
                msg.contains(&format!("root {root}")) && msg.contains("p = 4"),
                "{msg}"
            );
            let v = an.k_crash_coverage(&plan, goal, &[1]);
            assert!(v.root_crashed && !v.survives(), "{v:?}");
            assert_eq!(v.uninformed_pairs, 0);
            assert!(v.diagnostic().expect("lost").message.contains("root"));
        }
        // The last valid rank is still a legal root.
        assert!(an
            .analyze_with_goal(&plan, KnowledgeGoal::RootGathers(3))
            .iter()
            .all(|d| d.rule != Rule::RankRange));
    }

    #[test]
    fn goal_pass_skips_malformed_plans() {
        // Structural errors must short-circuit the knowledge recurrence:
        // an empty stage (which also leaves every rank dead) on a plan
        // that cannot attain AllToAll reports only the structural pass.
        let stage = StagePlan::from_edges(2, &[]);
        let plan = CompiledPattern::from_stages("hollow", 2, vec![stage]);
        let diags = Analyzer::new().analyze_with_goal(&plan, KnowledgeGoal::AllToAll);
        assert_eq!(
            rules(&diags),
            vec![Rule::EmptyStage, Rule::DeadRank],
            "{diags:?}"
        );
    }

    #[test]
    fn diagnostics_render_with_rule_and_stage() {
        let stage = StagePlan::from_edges(3, &[]);
        let plan = CompiledPattern::from_stages("hollow", 3, vec![stage]);
        let diags = Analyzer::new().analyze(&plan);
        let rendered = diags[0].to_string();
        assert!(
            rendered.starts_with("error[empty-stage] stage 0:"),
            "{rendered}"
        );
    }

    /// Dissemination edges: stage `k` sends `i → (i + 2^k) mod p`.
    fn dissemination_edges(p: usize) -> Vec<Vec<(usize, usize)>> {
        let mut stages = Vec::new();
        let mut d = 1;
        while d < p {
            stages.push((0..p).map(|i| (i, (i + d) % p)).collect());
            d *= 2;
        }
        stages
    }

    #[test]
    fn k_crash_coverage_flags_severed_relays() {
        let mut an = Analyzer::new();
        let dis = CompiledPattern::from_stage_edges("dissem", 8, &dissemination_edges(8));
        // Zero crashes: trivially survives (and matches analyze_with_goal).
        assert!(an
            .k_crash_coverage(&dis, KnowledgeGoal::AllToAll, &[])
            .survives());
        // Dissemination relays knowledge along unique chains: crashing
        // rank 1 leaves some survivor ignorant of some other survivor
        // (e.g. rank 3 only hears of rank 0 via rank 1 or 2-then-1).
        let v = an.k_crash_coverage(&dis, KnowledgeGoal::AllToAll, &[1]);
        assert!(!v.survives(), "{v:?}");
        assert!(v.uninformed_pairs > 0);
        let d = v.diagnostic().expect("lost goal renders a diagnostic");
        assert_eq!(d.rule, Rule::KCrashCoverage);
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("survivor pairs"), "{}", d.message);
        // A single-stage complete exchange shrugs off any single crash.
        let p = 5;
        let edges: Vec<(usize, usize)> = (0..p)
            .flat_map(|i| (0..p).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let a2a = CompiledPattern::from_stage_edges("a2a", p, &[edges]);
        for r in 0..p {
            let v = an.k_crash_coverage(&a2a, KnowledgeGoal::AllToAll, &[r]);
            assert!(v.survives(), "crash {r}: {v:?}");
            assert!(v.diagnostic().is_none());
        }
    }

    #[test]
    fn crashed_root_loses_rooted_goals_by_definition() {
        let mut an = Analyzer::new();
        let gather =
            CompiledPattern::from_stage_edges("gather", 4, &[vec![(1, 0), (2, 0), (3, 0)]]);
        let v = an.k_crash_coverage(&gather, KnowledgeGoal::RootGathers(0), &[0]);
        assert!(v.root_crashed);
        assert!(!v.survives());
        assert!(
            v.diagnostic().expect("lost").message.contains("root"),
            "{v:?}"
        );
        // Crashing a leaf only removes that leaf from the goal's scope:
        // the root still gathers from every survivor.
        let v = an.k_crash_coverage(&gather, KnowledgeGoal::RootGathers(0), &[2]);
        assert!(v.survives(), "{v:?}");
    }

    #[test]
    fn analyzer_scratch_is_reusable() {
        let mut an = Analyzer::new();
        for p in [2usize, 4, 8] {
            let edges: Vec<(usize, usize)> = (0..p)
                .flat_map(|i| (0..p).filter(move |&j| j != i).map(move |j| (i, j)))
                .collect();
            let plan = CompiledPattern::from_stage_edges("a2a", p, &[edges]);
            assert!(an
                .analyze_with_goal(&plan, KnowledgeGoal::AllToAll)
                .is_empty());
        }
    }
}
