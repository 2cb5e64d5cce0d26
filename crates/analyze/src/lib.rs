//! Static analysis of compiled communication plans — verdicts without
//! execution.
//!
//! The workspace's hardest-won properties (bit-identical replay at any
//! lane count, exact jitter-draw accounting, allocation-free staged
//! execution) are enforced dynamically by goldens and audit tests: they
//! fire *after* a malformed plan has been executed. This crate is the
//! static counterpart. [`analyze`] walks a [`CompiledPattern`]'s CSR
//! stages and derived tables and reports every violation of the
//! compiled-form contract as a structured [`Diagnostic`], and
//! [`analyze_with_goal`] additionally decides knowledge-goal
//! attainability through the §5.5 recurrence — all without running a
//! single simulated repetition. A malformed plan, hand-written or
//! built by a search such as the greedy adaptive barrier, is rejected
//! by rule name, not by a crashed simulation.
//!
//! The rule catalogue (see DESIGN.md, "The static analysis layer"):
//!
//! | rule | severity | checks |
//! |------|----------|--------|
//! | `csr-offsets` | error | offset arrays: length `p + 1`, start 0, monotone, end at index-array length |
//! | `csr-order` | error | adjacency spans strictly ascending (sorted, deduplicated) |
//! | `csr-mirror` | error | `j ∈ dsts(i) ⇔ i ∈ srcs(j)`; Σ out-degree ≡ Σ in-degree ≡ edge count |
//! | `rank-range` | error | every endpoint in `0..p` |
//! | `self-send` | error | no `i → i` edges |
//! | `empty-stage` | error | every stage carries at least one signal |
//! | `dead-rank` | warning | a rank neither sends nor receives in any stage |
//! | `jitter-draws` | error | the precomputed draw count ≡ Σ per-stage `p·ENTRY + edges·SIGNAL` |
//! | `last-send-table` | error | the §5.6.5 last-transmission table matches a recomputation |
//! | `posted-table` | error | the §5.6.5 posted booleans match their definition |
//! | `goal-unattainable` | error | the knowledge recurrence reaches the declared [`KnowledgeGoal`] |
//! | `k-crash-coverage` | warning | the goal, restricted to survivors, outlives a pruned crash set ([`Analyzer::k_crash_coverage`]) |
//! | `unrecoverable-crash-set` | error | the survivor re-plan synthesizer can repair the crash set ([`Analyzer::unrecoverable_crash_set`]) |
//!
//! The jitter-draw rule is statically decidable because drawing is part
//! of the compiled-form contract, not of runtime control flow: the
//! batched engine consumes exactly [`ENTRY_JITTER_DRAWS`] per process
//! per stage plus [`SIGNAL_JITTER_DRAWS`] per signal slot, in plan
//! order, unconditionally. The count is a function of the CSR shape
//! alone, so the audit that used to live only in simnet's executor
//! tests (`consumed() == jitter_draws()`) has a static twin here.
//!
//! The companion [`lint`] module is pass two: a source scanner (exposed
//! as the `hpm-analyze --src` binary) that rejects
//! determinism-contract violations in the simulation crates' code
//! itself.

pub mod lint;

use hpm_core::knowledge::{KnowledgeGoal, VerifyScratch};
use hpm_core::plan::{CompiledPattern, ENTRY_JITTER_DRAWS, SIGNAL_JITTER_DRAWS};
use std::fmt;

/// How bad a finding is. `Error` findings make a plan unusable (an
/// executor would miscount draws, misroute signals or hang); `Warning`
/// findings are legal but suspicious shapes.
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
/// produced it, so callers (and the adversarial tests) can match on the
/// violation kind rather than parse messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// CSR offset arrays malformed: wrong length, non-monotone, or
    /// inconsistent with the index-array length.
    CsrOffsets,
    /// An adjacency span is not strictly ascending (unsorted or
    /// duplicated entries).
    CsrOrder,
    /// The two CSR directions disagree: an edge present in `dsts` is
    /// missing from `srcs` or vice versa.
    CsrMirror,
    /// An edge endpoint lies outside `0..p`.
    RankRange,
    /// A rank signals itself.
    SelfSend,
    /// A stage carries no signals.
    EmptyStage,
    /// A rank neither sends nor receives in any stage.
    DeadRank,
    /// The precomputed jitter-draw count disagrees with the CSR shape.
    JitterDraws,
    /// The precomputed last-transmission table disagrees with the
    /// out-degrees it is derived from.
    LastSendTable,
    /// The §5.6.5 posted table disagrees with its definition.
    PostedTable,
    /// The knowledge recurrence never establishes the declared goal.
    GoalUnattainable,
    /// After pruning a crashed rank set, the surviving ranks no longer
    /// attain the declared goal among themselves.
    KCrashCoverage,
    /// No survivor re-plan can attain the goal after the crash set: the
    /// repair synthesizer ([`hpm_core::recovery::repair_plan`]) returned
    /// nothing, so the runtime recovery layer cannot help either.
    UnrecoverableCrashSet,
}

impl Rule {
    /// Stable kebab-case rule name, as printed by `repro analyze`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::CsrOffsets => "csr-offsets",
            Rule::CsrOrder => "csr-order",
            Rule::CsrMirror => "csr-mirror",
            Rule::RankRange => "rank-range",
            Rule::SelfSend => "self-send",
            Rule::EmptyStage => "empty-stage",
            Rule::DeadRank => "dead-rank",
            Rule::JitterDraws => "jitter-draws",
            Rule::LastSendTable => "last-send-table",
            Rule::PostedTable => "posted-table",
            Rule::GoalUnattainable => "goal-unattainable",
            Rule::KCrashCoverage => "k-crash-coverage",
            Rule::UnrecoverableCrashSet => "unrecoverable-crash-set",
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
    /// a malformed CSR is not worth tracing knowledge through, and may
    /// not even be safe to index — and when the goal's root, if it has
    /// one, is a rank of the plan (a `rank-range` error otherwise).
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
        if let Some(root) = goal.root().filter(|&r| r >= plan.p()) {
            diags.push(Diagnostic {
                severity: Severity::Error,
                stage: None,
                ranks: vec![root],
                rule: Rule::RankRange,
                message: format!("{goal:?} names root {root} for p = {}", plan.p()),
            });
            return diags;
        }
        let view = self.scratch.verify(plan);
        if !view.satisfies(goal) {
            diags.push(goal_diagnostic(view, goal));
        }
        diags
    }

    /// Static k-crash coverage: prunes every signal a crashed rank sends
    /// or receives, replays the §5.5 knowledge recurrence over the
    /// surviving edges, and decides whether `goal` *restricted to the
    /// survivors* is still attained. A rooted goal whose root crashed —
    /// or was never a rank of the plan — is lost by definition.
    ///
    /// The structural rules deliberately do not run on the pruned plan:
    /// pruning legitimately produces empty stages and dead ranks, which
    /// are contract violations for an executable plan but the expected
    /// shape of a post-crash one. Only the recurrence is consulted.
    #[must_use]
    pub fn k_crash_coverage(
        &mut self,
        plan: &CompiledPattern,
        goal: KnowledgeGoal,
        crashed: &[usize],
    ) -> CrashVerdict {
        let p = plan.p();
        let mut dead = vec![false; p];
        for &r in crashed {
            assert!(r < p, "crashed rank {r} out of range for p = {p}");
            dead[r] = true;
        }
        let root_crashed = goal.root().is_some_and(|r| r >= p || dead[r]);
        let uninformed_pairs = if root_crashed {
            0
        } else {
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
            self.scratch
                .verify(&pruned)
                .missing(goal)
                .filter(|&(i, j)| !dead[i] && !dead[j])
                .count()
        };
        CrashVerdict {
            crashed: {
                let mut c: Vec<usize> = crashed.to_vec();
                c.sort_unstable();
                c.dedup();
                c
            },
            goal,
            root_crashed,
            uninformed_pairs,
        }
    }

    /// Runs the survivor re-plan synthesizer
    /// ([`hpm_core::recovery::repair_plan`]) against a crash set and
    /// reports the sets *no* re-plan can fix. This is the actionable
    /// promotion of [`Analyzer::k_crash_coverage`]: a warning there says
    /// the deployed plan loses the goal, while a diagnostic here says the
    /// runtime recovery layer cannot help either — today that means the
    /// root of a rooted goal crashed, or no rank survived at all.
    #[must_use]
    pub fn unrecoverable_crash_set(
        &mut self,
        plan: &CompiledPattern,
        goal: KnowledgeGoal,
        crashed: &[usize],
    ) -> Option<Diagnostic> {
        if hpm_core::recovery::repair_plan(plan.p(), goal, crashed).is_some() {
            return None;
        }
        let mut sorted: Vec<usize> = crashed.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let listed: Vec<usize> = sorted.iter().copied().take(MAX_LISTED).collect();
        let why = if sorted.len() >= plan.p() {
            "no rank survives"
        } else {
            "the goal cannot be restated over the survivors"
        };
        let message = format!(
            "{goal:?} unrecoverable after crashing {}: {why}",
            capped("ranks", sorted.len(), &listed)
        );
        Some(Diagnostic {
            severity: Severity::Error,
            stage: None,
            ranks: listed,
            rule: Rule::UnrecoverableCrashSet,
            message,
        })
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

/// One-shot structural analysis — convenience over [`Analyzer::analyze`]
/// for callers that do not amortize the scratch.
#[must_use]
pub fn analyze(plan: &CompiledPattern) -> Vec<Diagnostic> {
    Analyzer::new().analyze(plan)
}

/// One-shot structural + goal analysis.
#[must_use]
pub fn analyze_with_goal(plan: &CompiledPattern, goal: KnowledgeGoal) -> Vec<Diagnostic> {
    Analyzer::new().analyze_with_goal(plan, goal)
}

/// Describes how an offset array violates the CSR shape, or `None` when
/// it is well-formed: length `p + 1`, starts at 0, monotone
/// non-decreasing, ends at the index-array length.
fn offsets_error(off: &[u32], p: usize, indices_len: usize) -> Option<String> {
    if off.len() != p + 1 {
        return Some(format!(
            "offset array has {} entries, want p + 1 = {}",
            off.len(),
            p + 1
        ));
    }
    if off[0] != 0 {
        return Some(format!("offset array starts at {}, want 0", off[0]));
    }
    if let Some(i) = (0..p).find(|&i| off[i] > off[i + 1]) {
        return Some(format!(
            "offsets decrease at rank {i}: {} > {}",
            off[i],
            off[i + 1]
        ));
    }
    if off[p] as usize != indices_len {
        return Some(format!(
            "offsets end at {}, but the index array holds {} entries",
            off[p], indices_len
        ));
    }
    None
}

/// Renders a capped rank list plus total, e.g. `3 ranks: [0, 2, 5]`.
fn capped(label: &str, all: usize, listed: &[usize]) -> String {
    let ell = if all > listed.len() { ", …" } else { "" };
    let shown: Vec<String> = listed.iter().map(|r| r.to_string()).collect();
    format!("{all} {label}: [{}{ell}]", shown.join(", "))
}

/// The structural pass shared by [`Analyzer::analyze`] and
/// [`Analyzer::analyze_with_goal`].
fn structural(plan: &CompiledPattern) -> Vec<Diagnostic> {
    let p = plan.p();
    let mut diags = Vec::new();
    // Stages whose CSR arrays can be indexed safely; the derived-table
    // rules only run when every stage is trusted.
    let mut all_trusted = true;

    for s in 0..plan.stages() {
        let stage = plan.stage(s);
        let mut trusted = true;

        if stage.p() != p {
            diags.push(Diagnostic {
                severity: Severity::Error,
                stage: Some(s),
                ranks: vec![],
                rule: Rule::CsrOffsets,
                message: format!("stage declares p = {}, plan declares p = {}", stage.p(), p),
            });
            all_trusted = false;
            continue;
        }
        for (dir, off, len) in [
            ("dst", stage.dst_offsets(), stage.dst_indices().len()),
            ("src", stage.src_offsets(), stage.src_indices().len()),
        ] {
            if let Some(err) = offsets_error(off, p, len) {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    stage: Some(s),
                    ranks: vec![],
                    rule: Rule::CsrOffsets,
                    message: format!("{dir} {err}"),
                });
                trusted = false;
            }
        }
        if !trusted {
            all_trusted = false;
            continue;
        }

        // Per-span rules: order, range, self-sends. An out-of-range
        // endpoint poisons the mirror check (it has no span to mirror
        // into), so track it.
        let mut in_range = true;
        for (dir, spans) in [("dsts", false), ("srcs", true)] {
            for r in 0..p {
                let span = if spans { stage.srcs(r) } else { stage.dsts(r) };
                if span.windows(2).any(|w| w[0] >= w[1]) {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        stage: Some(s),
                        ranks: vec![r],
                        rule: Rule::CsrOrder,
                        message: format!("{dir}({r}) is not strictly ascending: {span:?}"),
                    });
                }
                let bad: Vec<usize> = span
                    .iter()
                    .map(|&x| x as usize)
                    .filter(|&x| x >= p)
                    .collect();
                if !bad.is_empty() {
                    in_range = false;
                    let listed: Vec<usize> = bad.iter().copied().take(MAX_LISTED).collect();
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        stage: Some(s),
                        ranks: vec![r],
                        rule: Rule::RankRange,
                        message: format!(
                            "{dir}({r}) holds {} for p = {p}",
                            capped("out-of-range ranks", bad.len(), &listed)
                        ),
                    });
                }
                if !spans && span.contains(&(r as u32)) {
                    diags.push(Diagnostic {
                        severity: Severity::Error,
                        stage: Some(s),
                        ranks: vec![r],
                        rule: Rule::SelfSend,
                        message: format!("rank {r} signals itself"),
                    });
                }
            }
        }

        // Mirror consistency: the two directions must enumerate the same
        // edge set. Only meaningful when every endpoint has a span.
        if in_range {
            let mut missing: Vec<(usize, usize)> = Vec::new();
            for i in 0..p {
                for &j in stage.dsts(i) {
                    let j = j as usize;
                    if !stage.srcs(j).contains(&(i as u32)) {
                        missing.push((i, j));
                    }
                }
            }
            for j in 0..p {
                for &i in stage.srcs(j) {
                    let i = i as usize;
                    if !stage.dsts(i).contains(&(j as u32)) {
                        missing.push((i, j));
                    }
                }
            }
            if stage.dst_indices().len() != stage.src_indices().len() {
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    stage: Some(s),
                    ranks: vec![],
                    rule: Rule::CsrMirror,
                    message: format!(
                        "Σ out-degree = {} but Σ in-degree = {}",
                        stage.dst_indices().len(),
                        stage.src_indices().len()
                    ),
                });
            }
            if !missing.is_empty() {
                let listed: Vec<usize> = missing
                    .iter()
                    .take(MAX_LISTED / 2)
                    .flat_map(|&(i, j)| [i, j])
                    .collect();
                let shown: Vec<String> = missing
                    .iter()
                    .take(MAX_LISTED / 2)
                    .map(|&(i, j)| format!("{i}→{j}"))
                    .collect();
                let ell = if missing.len() > MAX_LISTED / 2 {
                    ", …"
                } else {
                    ""
                };
                diags.push(Diagnostic {
                    severity: Severity::Error,
                    stage: Some(s),
                    ranks: listed,
                    rule: Rule::CsrMirror,
                    message: format!(
                        "{} edges present in one direction only: [{}{ell}]",
                        missing.len(),
                        shown.join(", ")
                    ),
                });
            }
        }

        if stage.edge_count() == 0 {
            diags.push(Diagnostic {
                severity: Severity::Error,
                stage: Some(s),
                ranks: vec![],
                rule: Rule::EmptyStage,
                message: "stage carries no signals".to_string(),
            });
        }
    }

    if !all_trusted {
        return diags;
    }

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

    // Jitter-draw accounting: the precomputed count the batched engine
    // sizes its tables from must equal the sum the staged executor will
    // actually consume — a pure function of the CSR shape.
    let want: usize = (0..plan.stages())
        .map(|s| p * ENTRY_JITTER_DRAWS + plan.stage(s).edge_count() * SIGNAL_JITTER_DRAWS)
        .sum();
    if plan.jitter_draws() != want {
        diags.push(Diagnostic {
            severity: Severity::Error,
            stage: None,
            ranks: vec![],
            rule: Rule::JitterDraws,
            message: format!(
                "plan reports {} jitter draws but the stages consume {want} \
                 ({ENTRY_JITTER_DRAWS}/process/stage + {SIGNAL_JITTER_DRAWS}/signal)",
                plan.jitter_draws()
            ),
        });
    }

    // §5.6.5 derived tables: recompute both from the out-degrees and
    // compare. `last_send` first — `posted` is defined in terms of it.
    let n_stages = plan.stages();
    let mut last_send = vec![u32::MAX; (n_stages + 1) * p];
    for s in 0..n_stages {
        for i in 0..p {
            let prev = last_send[s * p + i];
            last_send[(s + 1) * p + i] = if plan.stage(s).out_degree(i) > 0 {
                s as u32
            } else {
                prev
            };
        }
    }
    if plan.last_send_table() != last_send.as_slice() {
        let bad: Vec<(usize, usize)> = table_mismatches(plan.last_send_table(), &last_send, p);
        diags.push(Diagnostic {
            severity: Severity::Error,
            stage: bad.first().map(|&(s, _)| s),
            ranks: bad.iter().map(|&(_, i)| i).take(MAX_LISTED).collect(),
            rule: Rule::LastSendTable,
            message: table_message("last-send", plan.last_send_table().len(), &last_send, &bad),
        });
    }
    let mut posted = vec![false; n_stages * p];
    for s in 0..n_stages {
        for i in 0..p {
            let prev = last_send[s * p + i];
            posted[s * p + i] = s > 0 && (prev == u32::MAX || prev as usize + 1 < s);
        }
    }
    if plan.posted_table() != posted.as_slice() {
        let bad: Vec<(usize, usize)> = plan
            .posted_table()
            .iter()
            .zip(posted.iter())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(k, _)| (k / p, k % p))
            .collect();
        diags.push(Diagnostic {
            severity: Severity::Error,
            stage: bad.first().map(|&(s, _)| s),
            ranks: bad.iter().map(|&(_, i)| i).take(MAX_LISTED).collect(),
            rule: Rule::PostedTable,
            message: table_message("posted", plan.posted_table().len(), &posted, &bad),
        });
    }

    diags
}

/// `(row, rank)` positions where two same-shape tables differ; when the
/// shapes differ the answer is the whole table, represented empty.
fn table_mismatches(got: &[u32], want: &[u32], p: usize) -> Vec<(usize, usize)> {
    if got.len() != want.len() {
        return vec![];
    }
    got.iter()
        .zip(want.iter())
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(k, _)| (k / p, k % p))
        .collect()
}

/// Message for a derived-table mismatch: wrong shape, or the first few
/// wrong cells.
fn table_message<T>(label: &str, got_len: usize, want: &[T], bad: &[(usize, usize)]) -> String {
    if got_len != want.len() {
        return format!(
            "{label} table holds {got_len} entries, want {} (stages × p shape)",
            want.len()
        );
    }
    let shown: Vec<String> = bad
        .iter()
        .take(MAX_LISTED)
        .map(|&(s, i)| format!("(stage {s}, rank {i})"))
        .collect();
    let ell = if bad.len() > MAX_LISTED { ", …" } else { "" };
    format!(
        "{label} table disagrees with its definition at {} cells: [{}{ell}]",
        bad.len(),
        shown.join(", ")
    )
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

    /// Clones `plan`'s stages through the raw route so tests can plant a
    /// single wrong derived-table entry.
    fn raw_clone_with<F>(plan: &CompiledPattern, mutate: F) -> CompiledPattern
    where
        F: FnOnce(&mut Vec<bool>, &mut Vec<u32>, &mut usize),
    {
        let stages: Vec<StagePlan> = (0..plan.stages()).map(|s| plan.stage(s).clone()).collect();
        let mut posted = plan.posted_table().to_vec();
        let mut last_send = plan.last_send_table().to_vec();
        let mut draws = plan.jitter_draws();
        mutate(&mut posted, &mut last_send, &mut draws);
        CompiledPattern::from_raw_tables(plan.name(), plan.p(), stages, posted, last_send, draws)
    }

    fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_plan_analyzes_clean() {
        assert!(analyze(&clean_plan()).is_empty());
        assert!(analyze_with_goal(&clean_plan(), KnowledgeGoal::AllToAll).is_empty());
    }

    #[test]
    fn zero_stage_plan_analyzes_clean() {
        // p = 1 collectives degenerate to zero stages — legal, and the
        // dead-rank rule must not fire on them.
        let plan = CompiledPattern::from_stage_edges("noop", 1, &[]);
        assert!(analyze(&plan).is_empty());
    }

    #[test]
    fn csr_offsets_rule_fires() {
        // dst offsets end at 2 but only one index is stored.
        let stage = StagePlan::from_raw_csr(2, vec![1], vec![0, 2, 2], vec![0], vec![0, 0, 1]);
        let plan = CompiledPattern::from_stages("bad-off", 2, vec![stage]);
        let diags = analyze(&plan);
        assert_eq!(rules(&diags), vec![Rule::CsrOffsets], "{diags:?}");
        assert_eq!(diags[0].stage, Some(0));
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn csr_order_rule_fires() {
        // Rank 0's destinations are [2, 1]: present in both directions
        // (mirror-consistent) but unsorted.
        let stage = StagePlan::from_raw_csr(
            3,
            vec![2, 1],
            vec![0, 2, 2, 2],
            vec![0, 0],
            vec![0, 0, 1, 2],
        );
        let plan = CompiledPattern::from_stages("unsorted", 3, vec![stage]);
        let diags = analyze(&plan);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::CsrOrder && d.ranks == vec![0]),
            "{diags:?}"
        );
    }

    #[test]
    fn csr_mirror_rule_fires() {
        // dsts says 0 → 1, srcs says 2 signals 1: each direction is
        // internally well-formed but they describe different edges.
        let stage =
            StagePlan::from_raw_csr(3, vec![1], vec![0, 1, 1, 1], vec![2], vec![0, 0, 1, 1]);
        let plan = CompiledPattern::from_stages("split-brain", 3, vec![stage]);
        let diags = analyze(&plan);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::CsrMirror && d.ranks == vec![0, 1, 2, 1]),
            "{diags:?}"
        );
    }

    #[test]
    fn rank_range_rule_fires() {
        // 0 signals rank 7 in a p = 2 stage.
        let stage = StagePlan::from_raw_csr(2, vec![7], vec![0, 1, 1], vec![0], vec![0, 0, 1]);
        let plan = CompiledPattern::from_stages("oob", 2, vec![stage]);
        let diags = analyze(&plan);
        assert!(diags.iter().any(|d| d.rule == Rule::RankRange), "{diags:?}");
        // The mirror check must not run (and panic) on out-of-range input.
        assert!(diags.iter().all(|d| d.rule != Rule::CsrMirror));
    }

    #[test]
    fn self_send_rule_fires() {
        let stage =
            StagePlan::from_raw_csr(2, vec![0, 1], vec![0, 1, 2], vec![0, 1], vec![0, 1, 2]);
        let plan = CompiledPattern::from_stages("selfie", 2, vec![stage]);
        let diags = analyze(&plan);
        let selfs: Vec<&Diagnostic> = diags.iter().filter(|d| d.rule == Rule::SelfSend).collect();
        assert_eq!(selfs.len(), 2, "{diags:?}");
        assert_eq!(selfs[0].ranks, vec![0]);
        assert_eq!(selfs[1].ranks, vec![1]);
    }

    #[test]
    fn empty_stage_rule_fires() {
        let stage = StagePlan::from_edges(3, &[]);
        let plan = CompiledPattern::from_stages("hollow", 3, vec![stage]);
        let diags = analyze(&plan);
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
        let diags = analyze(&plan);
        assert_eq!(rules(&diags), vec![Rule::DeadRank], "{diags:?}");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert_eq!(diags[0].ranks, vec![2]);
    }

    #[test]
    fn jitter_draws_rule_fires() {
        let plan = raw_clone_with(&clean_plan(), |_, _, draws| *draws += 1);
        let diags = analyze(&plan);
        assert_eq!(rules(&diags), vec![Rule::JitterDraws], "{diags:?}");
    }

    #[test]
    fn last_send_table_rule_fires() {
        // Claim rank 0 transmitted in stage 0 (it only receives there —
        // the gather flows into it, its own sends start in stage 1).
        let plan = raw_clone_with(&clean_plan(), |_, last_send, _| {
            last_send[4] = 0;
        });
        let diags = analyze(&plan);
        assert_eq!(rules(&diags), vec![Rule::LastSendTable], "{diags:?}");
        assert_eq!(diags[0].stage, Some(1));
        assert_eq!(diags[0].ranks, vec![0]);
    }

    #[test]
    fn posted_table_rule_fires() {
        // Claim rank 1 is posted at stage 1 — it sent in stage 0, so the
        // §5.6.5 definition says it is not.
        let plan = raw_clone_with(&clean_plan(), |posted, _, _| {
            posted[4 + 1] = true;
        });
        let diags = analyze(&plan);
        assert_eq!(rules(&diags), vec![Rule::PostedTable], "{diags:?}");
        assert_eq!(diags[0].stage, Some(1));
        assert_eq!(diags[0].ranks, vec![1]);
    }

    #[test]
    fn goal_unattainable_rule_fires() {
        // A pure gather satisfies RootGathers(0) but not AllToAll.
        let gather = CompiledPattern::from_stage_edges("gather", 3, &[vec![(1, 0), (2, 0)]]);
        assert!(analyze_with_goal(&gather, KnowledgeGoal::RootGathers(0)).is_empty());
        let diags = analyze_with_goal(&gather, KnowledgeGoal::AllToAll);
        assert_eq!(rules(&diags), vec![Rule::GoalUnattainable], "{diags:?}");
        assert!(
            diags[0].message.contains("AllToAll"),
            "{}",
            diags[0].message
        );

        // The broadcast-direction goals distinguish the two rooted cases.
        let diags = analyze_with_goal(&gather, KnowledgeGoal::RootReaches(0));
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
        // Structural errors must short-circuit the knowledge recurrence.
        let stage = StagePlan::from_raw_csr(2, vec![7], vec![0, 1, 1], vec![0], vec![0, 0, 1]);
        let plan = CompiledPattern::from_stages("oob", 2, vec![stage]);
        let diags = analyze_with_goal(&plan, KnowledgeGoal::AllToAll);
        assert!(
            diags.iter().all(|d| d.rule != Rule::GoalUnattainable),
            "{diags:?}"
        );
        assert!(!diags.is_empty());
    }

    #[test]
    fn diagnostics_render_with_rule_and_stage() {
        let stage = StagePlan::from_edges(3, &[]);
        let plan = CompiledPattern::from_stages("hollow", 3, vec![stage]);
        let diags = analyze(&plan);
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
    fn unrecoverable_crash_set_promotes_only_hopeless_sets() {
        let mut an = Analyzer::new();
        let dis = CompiledPattern::from_stage_edges("dissem", 8, &dissemination_edges(8));
        // Crashing a relay loses the goal *under the deployed plan* (a
        // k-crash-coverage warning) but a survivor re-plan repairs it, so
        // the promotion stays silent.
        assert!(!an
            .k_crash_coverage(&dis, KnowledgeGoal::AllToAll, &[1])
            .survives());
        assert!(an
            .unrecoverable_crash_set(&dis, KnowledgeGoal::AllToAll, &[1])
            .is_none());
        // A crashed root is beyond repair: no survivor plan can gather to
        // a dead rank.
        let d = an
            .unrecoverable_crash_set(&dis, KnowledgeGoal::RootGathers(3), &[3])
            .expect("dead root is unrecoverable");
        assert_eq!(d.rule, Rule::UnrecoverableCrashSet);
        assert_eq!(d.rule.name(), "unrecoverable-crash-set");
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.ranks, vec![3]);
        assert!(d.message.contains("RootReaches") || d.message.contains("RootGathers"));
        // ... unless the root survives.
        assert!(an
            .unrecoverable_crash_set(&dis, KnowledgeGoal::RootGathers(3), &[2, 5])
            .is_none());
        // Everything-crashed is unrecoverable for any goal.
        let all: Vec<usize> = (0..8).collect();
        let d = an
            .unrecoverable_crash_set(&dis, KnowledgeGoal::AllToAll, &all)
            .expect("no survivors");
        assert!(d.message.contains("no rank survives"), "{}", d.message);
        // Whenever the static verdict survives, the repair synthesizer must
        // also succeed: recoverability is at least as strong.
        for r in 0..8 {
            if an
                .k_crash_coverage(&dis, KnowledgeGoal::AllToAll, &[r])
                .survives()
            {
                assert!(an
                    .unrecoverable_crash_set(&dis, KnowledgeGoal::AllToAll, &[r])
                    .is_none());
            }
        }
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
