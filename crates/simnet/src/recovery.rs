//! Fault *recovery*: survivors detect the crash set, agree on it, and
//! finish the collective over a repaired plan.
//!
//! [`crate::barrier::BarrierSim::run_once_recovering_into`] extends the
//! faulty executor with the ULFM-style shrink-and-continue discipline.
//! The repetition first runs exactly as
//! [`crate::barrier::BarrierSim::run_once_faulty_into`] would — same fault,
//! drop and jitter streams, same draw counts — and when every rank
//! completes, the recovery layer never touches a stream, so the
//! zero-crash run is *bitwise* the faulty run (neutrality by
//! construction, pinned by tests). When ranks fail, the survivors pay:
//!
//! 1. **Detection** — a failed signal is only evidence after the full
//!    retry budget; the detector closes at the last survivor's exit
//!    from the attempt plus one [`FaultModel::timeout`] budget.
//! 2. **Consensus** — survivors run a modeled agreement round on the
//!    crash set: ⌈log₂ n⌉ dissemination rounds of one remote
//!    zero-payload message each ([`consensus_cost`]), deliberately
//!    draw-free so it perturbs no stream.
//! 3. **Re-execution** — the attempt's [`SurvivorMap`] (refilled in
//!    place in [`RecoveryScratch`]) synthesizes a verified pattern over
//!    the survivors (a pure function of their count and the compacted
//!    goal, so [`RecoveryScratch`] keeps the last one and reuses it while
//!    that pair repeats), and the same scalar stage kernel that ran the
//!    attempt runs it fault-free: compacted plan ranks map back to
//!    machine ranks through the map's `ranks()[i]`, so link
//!    classification and in-flight [`NetState`] contention see the real
//!    machine. It starts from the common post-consensus instant with
//!    jitter from the dedicated `RECOVERY_JITTER_LABEL` stream — the
//!    attempt's streams are already closed, so recovery cannot shift any
//!    healthy-path draw — and consumes exactly the repaired plan's
//!    `jitter_draws()`, keeping the static draw audit whole.
//!
//! Timed-out ranks are *alive* (they gave up waiting, they did not
//! fail-stop), so they rejoin the repaired plan; only crashed ranks are
//! excluded. An unrecoverable crash set (a rooted goal whose root
//! crashed) leaves the attempt's outcomes standing and reports
//! `recovered = false` — exactly the sets the analyzer's
//! `unrecoverable-crash-set` rule flags statically.

use crate::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
use crate::faults::{last_exit, FaultReport, FaultScratch, RankOutcome};
use crate::net::{NetState, NoFaults};
use crate::params::PlatformParams;
use hpm_core::knowledge::KnowledgeGoal;
use hpm_core::pattern::log2_ceil;
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::PayloadSchedule;
use hpm_core::recovery::SurvivorMap;
use hpm_stats::fault::{FaultModel, FaultPlan};

/// Stream label (b"RCVR") for jitter drawn by the repaired-plan
/// execution — disjoint from every attempt-phase stream, so recovery
/// draws can never perturb a healthy run.
pub const RECOVERY_JITTER_LABEL: u64 = 0x5243_5652;

/// One recovering repetition: the faulty attempt's accounting plus what
/// the recovery layer did about it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// The underlying faulty attempt, verbatim — bitwise what
    /// `run_once_faulty_into` would have reported.
    pub attempt: FaultReport,
    /// Final per-rank outcome after recovery: survivors of a successful
    /// re-plan are `Completed` at their repaired exit (timed-out ranks
    /// rejoin), crashed ranks stay `Crashed`.
    pub outcomes: Vec<RankOutcome>,
    /// True when a repaired plan was executed over the survivors.
    pub replanned: bool,
    /// True when every non-crashed rank ended `Completed` — either the
    /// attempt needed no recovery, or the re-plan finished the job.
    pub recovered: bool,
    /// When the survivors had detected the failure: last survivor exit
    /// from the attempt plus one timeout budget. Zero when the attempt
    /// completed cleanly.
    pub detection_time: f64,
    /// Modeled agreement-round cost added on top of detection.
    pub consensus_cost: f64,
    /// Stages of the repaired plan executed (0 when none was).
    pub replan_stages: usize,
}

impl RecoveryReport {
    /// A fresh report for `p` ranks, ready to be filled by
    /// [`BarrierSim::run_once_recovering_into`].
    #[must_use]
    pub fn new(p: usize) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        report.reset(p);
        report
    }

    /// Resets to the fresh state for `p` ranks without shrinking
    /// capacity, so reports reused across repetitions stay
    /// allocation-free.
    pub fn reset(&mut self, p: usize) {
        self.attempt.reset(p);
        self.outcomes.clear();
        self.outcomes.resize(p, RankOutcome::Completed(0.0));
        self.replanned = false;
        self.recovered = false;
        self.detection_time = 0.0;
        self.consensus_cost = 0.0;
        self.replan_stages = 0;
    }

    /// Worst-case exit time over ranks that finished (completed or
    /// timed out); `NEG_INFINITY` if everyone crashed.
    #[must_use]
    pub fn total(&self) -> f64 {
        last_exit(&self.outcomes)
    }
}

/// Reusable per-worker state for the recovering executor: the faulty
/// attempt's [`FaultScratch`], the survivors the recovery phase reads off
/// the attempt and the last repaired plan.
#[derive(Debug, Default)]
pub struct RecoveryScratch {
    /// Scratch for the underlying faulty attempt.
    pub fault: FaultScratch,
    /// The attempt's survivors, refilled in place per recovering run.
    survivors: SurvivorMap,
    /// The last plan [`SurvivorMap::repair`] returned, keyed by what that
    /// plan is a function of: the survivor count and the goal in the
    /// survivors' compacted rank space. Repetitions with as many
    /// crashes towards the same goal reuse it instead of rebuilding and
    /// re-verifying it.
    repaired: Option<(usize, KnowledgeGoal, CompiledPattern)>,
}

impl RecoveryScratch {
    /// An empty scratch; buffers size themselves on first use.
    #[must_use]
    pub fn new() -> RecoveryScratch {
        RecoveryScratch::default()
    }
}

/// The modeled cost of the survivors' agreement round on the crash set:
/// ⌈log₂ n⌉ dissemination rounds, each one remote zero-payload message
/// (`call_overhead + o_send + latency + o_recv`). Deliberately
/// draw-free — consensus must not perturb any stream — and zero for a
/// lone survivor.
#[must_use]
pub fn consensus_cost(params: &PlatformParams, survivors: usize) -> f64 {
    if survivors <= 1 {
        return 0.0;
    }
    let rounds = log2_ceil(survivors) as f64;
    let lc = &params.remote;
    rounds * (params.call_overhead + lc.o_send + lc.latency + lc.o_recv)
}

impl BarrierSim<'_> {
    /// One recovering cold-start run: the faulty attempt, then — if
    /// ranks failed — detection, consensus and re-execution over the
    /// survivors. Allocation-free once `rs` is warm: a re-plan
    /// synthesizes a fresh [`CompiledPattern`], which allocates, only
    /// when the survivor count or the compacted goal differs from the
    /// last one `rs` repaired. The attempt phase is stream-for-stream
    /// [`BarrierSim::run_once_faulty_into`]; see the module docs for the
    /// recovery phases.
    #[allow(clippy::too_many_arguments)]
    pub fn run_once_recovering_into(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        goal: KnowledgeGoal,
        fault: &FaultModel,
        entry: &[f64],
        net: &mut NetState,
        seed: u64,
        label: u64,
        rep: u64,
        scratch: &mut SimScratch,
        rs: &mut RecoveryScratch,
        out: &mut RecoveryReport,
    ) {
        out.reset(plan.p());
        let (fs, attempt) = (&mut rs.fault, &mut out.attempt);
        self.run_once_faulty_into(
            plan, payload, fault, entry, net, seed, label, rep, scratch, fs, attempt,
        );
        self.finish_recovery(plan, goal, fault, net, seed, rep, scratch, rs, out);
    }

    /// Recovering run under a caller-supplied [`FaultPlan`] (e.g.
    /// [`FaultPlan::with_crashes`] for the deterministic registry
    /// sweep) instead of one realized from the fault stream.
    #[allow(clippy::too_many_arguments)]
    pub fn run_once_recovering_with(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        goal: KnowledgeGoal,
        fault: &FaultModel,
        fplan: &FaultPlan,
        entry: &[f64],
        net: &mut NetState,
        seed: u64,
        label: u64,
        rep: u64,
        scratch: &mut SimScratch,
        rs: &mut RecoveryScratch,
        out: &mut RecoveryReport,
    ) {
        out.reset(plan.p());
        let (book, attempt) = (&mut rs.fault.book, &mut out.attempt);
        self.run_faulty(
            plan, payload, fault, fplan, entry, net, seed, label, rep, scratch, book, attempt,
        );
        self.finish_recovery(plan, goal, fault, net, seed, rep, scratch, rs, out);
    }

    /// Detection → consensus → re-execution, given a finished attempt in
    /// `out.attempt`. A clean attempt returns before touching anything —
    /// the zero-crash neutrality guarantee rests on this early exit.
    #[allow(clippy::too_many_arguments)]
    fn finish_recovery(
        &self,
        plan: &CompiledPattern,
        goal: KnowledgeGoal,
        fault: &FaultModel,
        net: &mut NetState,
        seed: u64,
        rep: u64,
        scratch: &mut SimScratch,
        rs: &mut RecoveryScratch,
        out: &mut RecoveryReport,
    ) {
        out.outcomes.clear();
        out.outcomes.extend_from_slice(&out.attempt.outcomes);
        if out.attempt.all_completed() {
            out.recovered = true;
            return;
        }
        let outcomes = &out.attempt.outcomes;
        let map = &mut rs.survivors;
        map.refill(plan.p(), |r| {
            !matches!(outcomes[r], RankOutcome::Crashed(_))
        });
        let survivors = map.ranks();
        if survivors.is_empty() {
            return;
        }
        out.detection_time = out.attempt.total() + fault.timeout;
        out.consensus_cost = consensus_cost(self.params, survivors.len());
        let Some(key) = map.goal(goal) else {
            return;
        };
        let key = (survivors.len(), key);
        let repaired = match &mut rs.repaired {
            Some((n, g, repaired)) if (*n, *g) == key => &*repaired,
            cached => {
                let Some(repaired) = map.repair(goal) else {
                    return;
                };
                &cached.insert((key.0, key.1, repaired)).2
            }
        };
        out.replanned = true;
        out.replan_stages = repaired.stages();
        // The repaired plan runs through the stage kernel fault-free, its
        // compacted ranks mapped back to the survivors' machine ranks.
        debug_assert_eq!(repaired.p(), survivors.len());
        scratch.cur[..survivors.len()].fill(out.detection_time + out.consensus_cost);
        let sigma = self.params.jitter.sigma;
        let label = RECOVERY_JITTER_LABEL;
        let draws = repaired.jitter_draws();
        let none = PayloadSchedule::none();
        let rank_of = |i: usize| survivors[i];
        scratch.with_jitter(sigma, seed, label, rep, draws, |scratch, jit| {
            self.run_stages(repaired, &none, rank_of, net, jit, &mut NoFaults, scratch);
        });
        for (i, &r) in survivors.iter().enumerate() {
            out.outcomes[r] = RankOutcome::Completed(scratch.cur[i]);
        }
        out.recovered = true;
    }

    /// Repeated recovering cold-start runs with independent streams per
    /// repetition, fanned out on [`hpm_par`]. Repetition `r` is
    /// bit-identical to a lone [`BarrierSim::run_once_recovering_into`] at
    /// `rep = r` whatever the thread count.
    ///
    /// # Panics
    ///
    /// Panics when `fault` fails [`FaultModel::checked`], naming the
    /// offending knob.
    pub fn measure_recovering(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        goal: KnowledgeGoal,
        fault: &FaultModel,
        reps: usize,
        seed: u64,
    ) -> Vec<RecoveryReport> {
        let zeros = vec![0.0; plan.p()];
        self.measure_reps("measure_recovering", fault, reps, |scratch, net, rs, r| {
            let mut out = RecoveryReport::new(plan.p());
            self.run_once_recovering_into(
                plan,
                payload,
                goal,
                fault,
                &zeros,
                net,
                seed,
                BARRIER_JITTER_LABEL,
                r,
                scratch,
                rs,
                &mut out,
            );
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{dissemination, lone_faulty, sim_fixture};
    use crate::params::xeon_cluster_params;
    use hpm_stats::fault::DropProb;

    /// One lone recovering cold-start repetition from zero entry times
    /// on fresh state: under `forced` crashes when given, else under the
    /// plan realized from `fault`.
    fn lone_recovering(
        sim: &BarrierSim<'_>,
        plan: &CompiledPattern,
        goal: KnowledgeGoal,
        fault: &FaultModel,
        forced: Option<&[usize]>,
        seed: u64,
        rep: u64,
    ) -> RecoveryReport {
        let (p, payload, label) = (plan.p(), PayloadSchedule::none(), BARRIER_JITTER_LABEL);
        let (net, scratch) = (
            &mut NetState::new(sim.placement),
            &mut SimScratch::new(sim.placement),
        );
        let (rs, mut out) = (&mut RecoveryScratch::new(), RecoveryReport::new(p));
        let zeros = vec![0.0; p];
        match forced {
            Some(crashed) => {
                let fplan = FaultPlan::with_crashes(p, crashed);
                sim.run_once_recovering_with(
                    plan, &payload, goal, fault, &fplan, &zeros, net, seed, label, rep, scratch,
                    rs, &mut out,
                );
            }
            None => sim.run_once_recovering_into(
                plan, &payload, goal, fault, &zeros, net, seed, label, rep, scratch, rs, &mut out,
            ),
        }
        out
    }

    /// Crash-free faults (drops and stragglers) that every rank
    /// survives: the recovering run must be bitwise the faulty run.
    #[test]
    fn clean_attempt_is_bitwise_the_faulty_run() {
        let p = 24;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let fault = FaultModel {
            drop: DropProb::uniform(0.02),
            straggler_prob: 0.1,
            straggler_scale: 5e-5,
            straggler_alpha: 1.5,
            ..FaultModel::NONE
        };
        let goal = KnowledgeGoal::AllToAll;
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        for rep in 0..8u64 {
            let faulty = lone_faulty(&sim, &plan, &fault, 77, rep, &mut net, &mut scratch);
            assert!(faulty.all_completed(), "rep {rep}: fixture must be clean");
            let rec = lone_recovering(&sim, &plan, goal, &fault, None, 77, rep);
            assert_eq!(rec.attempt, faulty, "rep {rep}");
            assert_eq!(rec.outcomes, faulty.outcomes, "rep {rep}");
            assert!(!rec.replanned && rec.recovered);
            assert_eq!(rec.detection_time.to_bits(), 0.0f64.to_bits());
            assert_eq!(rec.total().to_bits(), faulty.total().to_bits());
        }
    }

    /// A fault report as words: each outcome's kind and time bits, the
    /// counters and the retry delay's bits — so two reports compare
    /// bitwise rather than by `f64` equality.
    fn report_words(r: &FaultReport) -> Vec<u64> {
        let mut words: Vec<u64> = r
            .outcomes
            .iter()
            .flat_map(|o| match *o {
                RankOutcome::Completed(t) => [0, t.to_bits()],
                RankOutcome::TimedOut(t) => [1, t.to_bits()],
                RankOutcome::Crashed(t) => [2, t.to_bits()],
            })
            .collect();
        words.extend([
            r.retries,
            r.retry_delay.to_bits(),
            r.lost_signals,
            r.suppressed_signals,
        ]);
        words
    }

    /// Crashes, drops and stragglers that send repetitions down the
    /// re-plan path: repetition `r` of `measure_recovering` carries as
    /// its attempt bitwise what repetition `r` of `measure_faulty`
    /// reports — recovery adds to a failed attempt, never perturbs it.
    #[test]
    fn recovering_attempt_is_bitwise_the_faulty_run() {
        let p = 20;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let fault = FaultModel {
            crash_count: 2,
            crash_window: 1e-4,
            drop: DropProb::uniform(0.02),
            straggler_prob: 0.1,
            straggler_scale: 5e-5,
            straggler_alpha: 1.5,
            timeout: 2e-4,
        };
        let goal = KnowledgeGoal::AllToAll;
        let faulty = sim.measure_faulty(&plan, &payload, &fault, 12, 31);
        let recovering = sim.measure_recovering(&plan, &payload, goal, &fault, 12, 31);
        assert!(
            recovering.iter().any(|r| r.replanned),
            "fixture must exercise the re-plan path"
        );
        assert!(faulty.iter().any(|f| f.retries > 0), "fixture must drop");
        assert_eq!(recovering.len(), faulty.len());
        for (r, (rec, f)) in recovering.iter().zip(&faulty).enumerate() {
            assert_eq!(report_words(&rec.attempt), report_words(f), "rep {r}");
        }
    }

    /// A recovery report as words: the attempt's, each final outcome's
    /// kind and time bits, then the recovery fields.
    fn recovery_words(r: &RecoveryReport) -> Vec<u64> {
        let mut words = report_words(&r.attempt);
        let outcomes = FaultReport {
            outcomes: r.outcomes.clone(),
            ..FaultReport::default()
        };
        words.extend(report_words(&outcomes));
        words.extend([
            u64::from(r.replanned),
            u64::from(r.recovered),
            r.detection_time.to_bits(),
            r.consensus_cost.to_bits(),
            r.replan_stages as u64,
        ]);
        words
    }

    /// One `RecoveryScratch` carried through crash sets of size 1, 2 and
    /// 1 (all-to-all, a gather, then a crashed root) and on through
    /// steps that hit and miss its cached repaired plan: every report is
    /// bitwise a fresh scratch's. Keying the cache by survivor count
    /// alone fails step 5 (the all-to-all plan served to a gather), and
    /// keying it by the goal as given rather than compacted fails step 7
    /// (the gather around compacted root 5 served for root 4).
    #[test]
    fn carried_recovery_scratch_matches_a_fresh_one_bitwise() {
        use KnowledgeGoal::{AllToAll, RootGathers};
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let (payload, label, none) = (
            PayloadSchedule::none(),
            BARRIER_JITTER_LABEL,
            FaultModel::NONE,
        );
        let zeros = vec![0.0; p];
        let (mut net, mut scratch) = (NetState::new(&placement), SimScratch::new(&placement));
        let (mut rs, mut out) = (RecoveryScratch::new(), RecoveryReport::new(p));
        let steps: [(&[usize], KnowledgeGoal); 8] = [
            (&[3], AllToAll),
            (&[3, 7], RootGathers(5)),
            (&[5], RootGathers(5)),
            (&[6], AllToAll),
            (&[9], AllToAll),
            (&[2], RootGathers(5)),
            (&[7, 9], RootGathers(5)),
            (&[2, 9], RootGathers(5)),
        ];
        for (step, &(crashed, goal)) in steps.iter().enumerate() {
            let (seed, rep) = (5, step as u64);
            let fplan = FaultPlan::with_crashes(p, crashed);
            net.reset();
            sim.run_once_recovering_with(
                &plan,
                &payload,
                goal,
                &none,
                &fplan,
                &zeros,
                &mut net,
                seed,
                label,
                rep,
                &mut scratch,
                &mut rs,
                &mut out,
            );
            assert_eq!(out.recovered, step != 2, "step {step}");
            let fresh = lone_recovering(&sim, &plan, goal, &none, Some(crashed), seed, rep);
            assert_eq!(recovery_words(&out), recovery_words(&fresh), "step {step}");
        }
    }

    /// A forced crash set: survivors pay detection + consensus, execute
    /// the repaired plan, and everyone alive completes after the crash.
    #[test]
    fn forced_crashes_recover_with_cost() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let (plan, goal, none) = (dissemination(p), KnowledgeGoal::AllToAll, FaultModel::NONE);
        let out = lone_recovering(&sim, &plan, goal, &none, Some(&[3, 7]), 5, 0);
        assert!(out.replanned && out.recovered);
        assert!(!out.attempt.all_completed());
        assert_eq!(out.replan_stages, 4, "ceil(log2(14)) survivor stages");
        assert!(out.detection_time > 0.0 && out.consensus_cost > 0.0);
        let t0 = out.detection_time + out.consensus_cost;
        for (r, o) in out.outcomes.iter().enumerate() {
            match o {
                RankOutcome::Crashed(_) => assert!(r == 3 || r == 7),
                RankOutcome::Completed(t) => assert!(*t >= t0, "rank {r} exits after re-plan"),
                RankOutcome::TimedOut(_) => panic!("rank {r} should have rejoined"),
            }
        }
        assert!(out.total() > out.attempt.total());
    }

    /// A crashed root makes rooted goals unrecoverable: the attempt's
    /// outcomes stand and the report says so.
    #[test]
    fn crashed_root_reports_unrecovered() {
        let p = 8;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let (plan, goal) = (dissemination(p), KnowledgeGoal::RootReaches(0));
        let out = lone_recovering(&sim, &plan, goal, &FaultModel::NONE, Some(&[0]), 5, 0);
        assert!(!out.replanned && !out.recovered);
        assert_eq!(out.replan_stages, 0);
        assert!(out.detection_time > 0.0, "detection still happened");
        assert_eq!(out.outcomes, out.attempt.outcomes);
    }

    /// Recovering repetitions are bit-identical at any thread count, and
    /// `measure_recovering` rep `r` equals a lone run at `rep = r`.
    #[test]
    fn recovering_measure_is_thread_invariant_and_rep_keyed() {
        let p = 20;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let fault = FaultModel {
            crash_count: 2,
            crash_window: 1e-4,
            drop: DropProb::uniform(0.02),
            timeout: 2e-4,
            ..FaultModel::NONE
        };
        let goal = KnowledgeGoal::AllToAll;
        let serial = hpm_par::with_threads(Some(1), || {
            sim.measure_recovering(&plan, &payload, goal, &fault, 10, 99)
        });
        assert!(
            serial.iter().any(|r| r.replanned),
            "fixture must exercise the re-plan path"
        );
        assert!(serial.iter().all(|r| r.recovered));
        for threads in [2usize, 8] {
            let par = hpm_par::with_threads(Some(threads), || {
                sim.measure_recovering(&plan, &payload, goal, &fault, 10, 99)
            });
            assert_eq!(serial, par, "threads {threads}");
        }
        for (r, rep_report) in serial.iter().enumerate() {
            let lone = lone_recovering(&sim, &plan, goal, &fault, None, 99, r as u64);
            assert_eq!(*rep_report, lone, "rep {r}");
        }
    }

    #[test]
    fn consensus_cost_scales_logarithmically() {
        let params = xeon_cluster_params();
        assert_eq!(consensus_cost(&params, 0), 0.0);
        assert_eq!(consensus_cost(&params, 1), 0.0);
        let one = consensus_cost(&params, 2);
        assert!(one > 0.0);
        assert_eq!(consensus_cost(&params, 64), 6.0 * one);
        assert_eq!(consensus_cost(&params, 65), 7.0 * one);
    }

    #[test]
    fn invalid_model_panics_at_entry() {
        let p = 8;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let bad = FaultModel {
            timeout: 0.0,
            ..FaultModel::NONE
        };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.measure_recovering(
                &plan,
                &PayloadSchedule::none(),
                KnowledgeGoal::AllToAll,
                &bad,
                1,
                1,
            )
        }))
        .expect_err("bad model must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("timeout"), "panic names the knob: {msg}");
    }
}
