//! The static-analysis gate over the experiment registry.
//!
//! `repro analyze` (and the CI `analyze` job behind it) runs the
//! `hpm-analyze` plan analyzer over every communication pattern the
//! experiments execute, each at its registered process count: the
//! barrier family and the eight collectives at the two validation
//! machines' full sizes (p = 64 Xeon, p = 144 Opteron, read off
//! `Machine::both`), the hybrid two-level barrier on its node
//! partition, and the dissemination barrier again at the scale
//! run's process counts (p ∈ {256, 1024, 4096}, read off `SCALE_PROCS`).
//! Every plan must analyze clean — zero diagnostics, warnings included —
//! before an experiment is allowed to spend simulation time on it.
//!
//! The pattern list is explicit rather than derived from
//! [`crate::experiments::registry`] because experiments construct
//! patterns internally at many sweep points; this module pins the full
//! set of pattern *shapes* at their *largest* registered scale, which
//! dominates every smaller sweep point of the same constructor.

use crate::experiments::{Machine, SCALE_PROCS};
use hpm_analyze::{Analyzer, Diagnostic};
use hpm_barriers::hybrid::flat_dissemination_hybrid;
use hpm_barriers::{all_to_all, binary_tree, dissemination, kary_tree, linear, ring};
use hpm_collectives::pattern::catalog;
use hpm_core::knowledge::KnowledgeGoal;
use hpm_core::pattern::CommPattern;
use hpm_core::plan::CompiledPattern;

/// One entry of the static-analysis registry: a compiled plan and the
/// knowledge goal it must attain.
pub struct RegisteredPlan {
    pub id: String,
    pub plan: CompiledPattern,
    pub goal: KnowledgeGoal,
}

/// Payload size the collectives are checked at; the knowledge structure
/// is payload-independent, so one size suffices.
const COLLECTIVE_BYTES: u64 = 1024;

/// Every pattern shape reachable from the experiment registry, compiled
/// at its largest registered process count.
#[must_use]
pub fn pattern_registry() -> Vec<RegisteredPlan> {
    let mut out = Vec::new();
    // The barrier and collective families at each full validation
    // machine.
    for p in Machine::both().map(|m| m.shape.total_cores()) {
        let barriers = [
            linear(p, 0),
            dissemination(p),
            binary_tree(p),
            kary_tree(p, 4),
            ring(p),
            all_to_all(p),
        ];
        for b in barriers {
            out.push(RegisteredPlan {
                id: format!("{}-p{p}", b.name()),
                plan: b,
                goal: KnowledgeGoal::AllToAll,
            });
        }
        for c in catalog(p, 0, COLLECTIVE_BYTES) {
            out.push(RegisteredPlan {
                id: format!("{}-p{p}", c.name()),
                goal: c.goal(),
                plan: c.plan(),
            });
        }
    }
    // The hybrid barrier as fig7_4 partitions it: round-robin residency
    // on the Xeon cluster's nodes.
    let xeon = Machine::xeon().shape;
    let (nodes, p) = (xeon.nodes(), xeon.total_cores());
    let mut groups = vec![Vec::new(); nodes];
    for r in 0..p {
        groups[r % nodes].push(r);
    }
    let hybrid = flat_dissemination_hybrid(p, &groups);
    out.push(RegisteredPlan {
        id: format!("{}-p{p}", hybrid.name()),
        plan: hybrid,
        goal: KnowledgeGoal::AllToAll,
    });
    // The scale run's process counts — analyze exactly what it executes.
    for p in SCALE_PROCS {
        out.push(RegisteredPlan {
            id: format!("dissemination-sparse-p{p}"),
            plan: dissemination(p),
            goal: KnowledgeGoal::AllToAll,
        });
    }
    out
}

/// Analyzes the full registry through one scratch-pooled [`Analyzer`].
/// Returns each plan's id with its diagnostics (empty = clean).
#[must_use]
pub fn analyze_registry() -> Vec<(String, Vec<Diagnostic>)> {
    let mut analyzer = Analyzer::new();
    pattern_registry()
        .into_iter()
        .map(|r| {
            let diags = analyzer.analyze_with_goal(&r.plan, r.goal);
            (r.id, diags)
        })
        .collect()
}

/// One pattern's k-crash coverage over its deterministic scenario
/// sample: how many crash sets the knowledge goal (restricted to the
/// survivors) outlived. A verdict, not a failure — `repro analyze`
/// prints these and only errors on unexpected structural diagnostics.
pub struct CrashCoverageSummary {
    pub id: String,
    /// Crash-set size of the sweep.
    pub k: usize,
    /// Scenarios sampled.
    pub scenarios: usize,
    /// Scenarios the goal survived.
    pub survived: usize,
    /// First lost scenario's diagnostic, when any goal was lost.
    pub example: Option<Diagnostic>,
}

/// Deterministically sampled size-`k` crash sets at `p` ranks: every
/// single rank anchors a set at small scales, evenly strided anchors at
/// large ones (64 at p ≤ 256, 8 beyond), each set taking `k` consecutive
/// ranks from its anchor. Pure function of `(p, k)` — the sweep is
/// reproducible by construction.
#[must_use]
pub fn crash_sets(p: usize, k: usize) -> Vec<Vec<usize>> {
    let anchors = if p <= 256 { p.min(64) } else { 8 };
    let stride = (p / anchors).max(1);
    (0..anchors)
        .map(|a| {
            let base = a * stride;
            (0..k.min(p)).map(|d| (base + d) % p).collect()
        })
        .collect()
}

/// Sweeps [`Analyzer::k_crash_coverage`] over the full registry with
/// size-`k` crash sets from [`crash_sets`], one summary per plan.
#[must_use]
pub fn crash_coverage_registry(k: usize) -> Vec<CrashCoverageSummary> {
    let mut analyzer = Analyzer::new();
    pattern_registry()
        .into_iter()
        .map(|r| {
            let sets = crash_sets(r.plan.p(), k);
            let mut survived = 0;
            let mut example = None;
            for set in &sets {
                let v = analyzer.k_crash_coverage(&r.plan, r.goal, set);
                if v.survives() {
                    survived += 1;
                } else if example.is_none() {
                    example = v.diagnostic();
                }
            }
            CrashCoverageSummary {
                id: r.id,
                k,
                scenarios: sets.len(),
                survived,
                example,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_families_and_scales() {
        let reg = pattern_registry();
        // 6 barriers + 8 collectives per machine scale, the hybrid, and
        // the three sparse scale plans.
        assert_eq!(reg.len(), 2 * (6 + 8) + 1 + 3);
        for p in SCALE_PROCS {
            assert!(
                reg.iter()
                    .any(|r| r.id == format!("dissemination-sparse-p{p}")),
                "missing scale entry at p = {p}"
            );
        }
        // The machine-sized families, at the sizes `Machine::both` yields.
        for id in ["dissemination-p64", "dissemination-p144"] {
            assert!(reg.iter().any(|r| r.id == id), "missing machine entry {id}");
        }
        let goals: Vec<KnowledgeGoal> = reg.iter().map(|r| r.goal).collect();
        assert!(goals.contains(&KnowledgeGoal::RootGathers(0)));
        assert!(goals.contains(&KnowledgeGoal::RootReaches(0)));
        assert!(goals.contains(&KnowledgeGoal::Prefix));
    }

    #[test]
    fn crash_sets_are_deterministic_and_scale_aware() {
        assert_eq!(crash_sets(64, 1).len(), 64);
        assert_eq!(crash_sets(144, 2).len(), 64);
        assert_eq!(crash_sets(4096, 1).len(), 8);
        assert_eq!(crash_sets(64, 1), crash_sets(64, 1));
        for set in crash_sets(144, 2) {
            assert_eq!(set.len(), 2);
            assert!(set.iter().all(|&r| r < 144));
        }
    }

    #[test]
    fn crash_coverage_sweep_summarizes_every_plan() {
        let summaries = crash_coverage_registry(1);
        assert_eq!(summaries.len(), pattern_registry().len());
        for s in &summaries {
            assert!(s.survived <= s.scenarios, "{}", s.id);
            assert_eq!(
                s.example.is_none(),
                s.survived == s.scenarios,
                "{}: example iff something was lost",
                s.id
            );
        }
        // The dense single-stage all-to-all barrier is the one shape
        // that shrugs off any single crash; dissemination relays through
        // unique chains and must lose scenarios.
        let a2a = summaries
            .iter()
            .find(|s| s.id == "all-to-all-p64")
            .expect("registry entry");
        assert_eq!(a2a.survived, a2a.scenarios, "all-to-all survives k = 1");
        let dis = summaries
            .iter()
            .find(|s| s.id == "dissemination-p64")
            .expect("registry entry");
        assert!(
            dis.survived < dis.scenarios,
            "dissemination must lose single-crash scenarios"
        );
    }
}
