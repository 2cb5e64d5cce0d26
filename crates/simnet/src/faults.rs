//! The fault-aware barrier executor: crashes, drops and stragglers over
//! the staged executor, with per-rank outcomes.
//!
//! [`crate::barrier::BarrierSim::run_once_faulty_into`] executes one
//! compiled pattern under a [`FaultModel`]: the repetition's faults are
//! realized into a [`FaultPlan`] from the stream `(seed, FAULT_LABEL,
//! rep)`, the jitter table fills exactly as on the healthy path, and the
//! one scalar stage kernel of [`crate::barrier`] runs under the fault
//! view defined here — every planned signal consumes one drop uniform
//! and the usual four jitter multipliers whatever its fate. Because every
//! stream is keyed by the repetition's own coordinates and consumption
//! counts are pure functions of the plan shape
//! ([`CompiledPattern::total_signals`] drop uniforms,
//! [`CompiledPattern::jitter_draws`] multipliers), faulty runs are
//! bit-identical at any thread count, and a [`FaultModel::is_none`]
//! model reproduces the fault-free executor bit-for-bit (all fault
//! arithmetic collapses to `+0.0`).
//!
//! A drop uniform becomes an attempt count without `ln` whenever that
//! count is provably 1 ([`attempts_from_uniform`]); attempt counts
//! saturate at `u32::MAX`.
//!
//! Unlike the healthy executor, global completion is not assumed: each
//! rank finishes as [`RankOutcome::Completed`], gives up waiting for a
//! signal that never arrives ([`RankOutcome::TimedOut`], after the
//! sender-symmetric retry budget [`FaultModel::loss_delay`]), or is
//! [`RankOutcome::Crashed`] outright.

use crate::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
use crate::net::{FaultView, NetState, SignalFate};
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::PayloadSchedule;
use hpm_stats::fault::{attempts_from_uniform, DropStream, FaultModel, FaultPlan};

/// How one rank left a faulty run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankOutcome {
    /// Exited the last stage at this time with all expected signals in.
    Completed(f64),
    /// Exited at this time, but gave up waiting on at least one signal
    /// along the way — its completion guarantee is void.
    TimedOut(f64),
    /// Crashed at this time and stopped participating.
    Crashed(f64),
}

/// Worst-case exit time over ranks that finished a run (completed or
/// timed out); `NEG_INFINITY` if everyone crashed.
pub(crate) fn last_exit(outcomes: &[RankOutcome]) -> f64 {
    outcomes.iter().fold(f64::NEG_INFINITY, |acc, o| match o {
        RankOutcome::Completed(t) | RankOutcome::TimedOut(t) => acc.max(*t),
        RankOutcome::Crashed(_) => acc,
    })
}

/// One repetition's fault accounting: per-rank outcomes plus the retry
/// and loss totals the repro experiment aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultReport {
    /// Per-rank outcome.
    pub outcomes: Vec<RankOutcome>,
    /// Retransmissions across all delivered signals.
    pub retries: u64,
    /// Total latency those retransmissions added.
    pub retry_delay: f64,
    /// Signals abandoned after the full retry budget (dropped beyond
    /// budget, or aimed at a crashed receiver).
    pub lost_signals: u64,
    /// Signals never emitted because their sender had crashed.
    pub suppressed_signals: u64,
}

impl FaultReport {
    /// A fresh all-completed-at-zero report for `p` ranks, ready to be
    /// filled by [`BarrierSim::run_once_faulty_into`].
    #[must_use]
    pub fn new(p: usize) -> FaultReport {
        let mut report = FaultReport::default();
        report.reset(p);
        report
    }

    /// Resets to the all-completed-at-zero state for `p` ranks without
    /// shrinking capacity, so reports reused across repetitions stay
    /// allocation-free.
    pub fn reset(&mut self, p: usize) {
        self.outcomes.clear();
        self.outcomes.resize(p, RankOutcome::Completed(0.0));
        self.retries = 0;
        self.retry_delay = 0.0;
        self.lost_signals = 0;
        self.suppressed_signals = 0;
    }

    /// Ranks that completed cleanly.
    pub fn completed_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RankOutcome::Completed(_)))
            .count()
    }

    /// True when every rank completed cleanly.
    pub fn all_completed(&self) -> bool {
        self.completed_count() == self.outcomes.len()
    }

    /// Worst-case exit time over ranks that finished the run (completed
    /// or timed out); `NEG_INFINITY` if everyone crashed.
    pub fn total(&self) -> f64 {
        last_exit(&self.outcomes)
    }
}

/// Reusable per-worker state for the faulty executor: the realized
/// fault plan plus the timeout/arrival bookkeeping of the fault view.
/// Buffers grow to the largest plan seen and are then reused, so repetition
/// loops over a fixed shape are allocation-free.
#[derive(Debug)]
pub struct FaultScratch {
    pub(crate) fplan: FaultPlan,
    pub(crate) book: FaultBook,
}

/// The fault view's per-rank bookkeeping, apart from the plan so a run
/// can borrow a caller's [`FaultPlan`] instead.
#[derive(Debug, Default)]
pub(crate) struct FaultBook {
    /// Per rank: gave up on a signal, as sender or as receiver.
    timed_out: Vec<bool>,
    /// Per rank: a signal it expected in the current stage is missing.
    missed: Vec<bool>,
}

impl Default for FaultScratch {
    fn default() -> FaultScratch {
        FaultScratch::new()
    }
}

impl FaultScratch {
    /// An empty scratch; buffers size themselves on first use.
    #[must_use]
    pub fn new() -> FaultScratch {
        FaultScratch {
            fplan: FaultPlan::neutral(0, 0),
            book: FaultBook::default(),
        }
    }
}

/// The fault view of one faulty repetition: the model and its realized
/// plan, the drop stream, and where outcomes are accounted. Only ever
/// run under the identity rank map, so plan ranks are machine ranks.
struct Faults<'a> {
    fault: &'a FaultModel,
    fplan: &'a FaultPlan,
    drops: DropStream,
    report: &'a mut FaultReport,
    book: &'a mut FaultBook,
}

impl FaultView for Faults<'_> {
    #[inline]
    fn drop_uniform(&mut self) -> f64 {
        self.drops.next_uniform()
    }

    #[inline]
    fn crashed_at(&self, rank: usize, t: f64) -> bool {
        self.fplan.crashed_at(rank, t)
    }

    #[inline]
    fn retransmit(&self, u: f64, send_done: f64) -> Option<(f64, u32, f64)> {
        let attempts = attempts_from_uniform(u, self.fault.drop.0);
        if attempts > FaultModel::MAX_RETRIES + 1 {
            return None;
        }
        let retry_delay = self.fault.retry_delay(attempts);
        Some((send_done + retry_delay, attempts - 1, retry_delay))
    }

    #[inline]
    fn loss_delay(&self) -> f64 {
        self.fault.loss_delay()
    }

    #[inline]
    fn record(&mut self, src: usize, dst: usize, fate: &SignalFate) {
        match *fate {
            // A first attempt would add `+0.0` to the retry delay.
            SignalFate::Delivered { retries: 0, .. } => return,
            SignalFate::Delivered {
                retries,
                retry_delay,
                ..
            } => {
                self.report.retries += retries as u64;
                self.report.retry_delay += retry_delay;
                return;
            }
            SignalFate::Lost { .. } => {
                self.report.lost_signals += 1;
                self.book.timed_out[src] = true;
            }
            SignalFate::SenderDead => self.report.suppressed_signals += 1,
        }
        self.book.missed[dst] = true;
    }

    /// A surviving rank missing an expected arrival waits out the
    /// sender-symmetric retry budget past its post, then gives up.
    #[inline]
    fn missing_arrival(&mut self, j: usize, posted: f64) -> Option<f64> {
        // Consumes the stage's mark: the next stage starts unmarked.
        if std::mem::take(&mut self.book.missed[j]) && self.fplan.crash_time[j] == f64::INFINITY {
            self.book.timed_out[j] = true;
            Some(posted + self.fault.loss_delay())
        } else {
            None
        }
    }
}

impl BarrierSim<'_> {
    /// One faulty cold-start run of a compiled pattern from per-rank
    /// entry times (realized straggler delays are added on top); the
    /// realized fault plan and the timeout/arrival bookkeeping live in
    /// `fs`, the outcomes in `report` — all reused across calls, so
    /// repetition loops are allocation-free.
    ///
    /// Jitter fills from `(seed, label, rep)` exactly like
    /// [`BarrierSim::run_once_batched`]; fault structure and drop
    /// decisions come from the disjoint `FAULT_LABEL`/`FAULT_DROP_LABEL`
    /// streams at the same `(seed, rep)`. With [`FaultModel::is_none`]
    /// the exits are bit-identical to the fault-free batched run.
    #[allow(clippy::too_many_arguments)]
    pub fn run_once_faulty_into(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        fault: &FaultModel,
        entry: &[f64],
        net: &mut NetState,
        seed: u64,
        label: u64,
        rep: u64,
        scratch: &mut SimScratch,
        fs: &mut FaultScratch,
        report: &mut FaultReport,
    ) {
        let nodes = self.placement.shape().nodes();
        fs.fplan.realize_into(fault, plan.p(), nodes, seed, rep);
        let FaultScratch { fplan, book } = fs;
        self.run_faulty(
            plan, payload, fault, fplan, entry, net, seed, label, rep, scratch, book, report,
        );
    }

    /// The faulty run proper, under a borrowed [`FaultPlan`] — the one
    /// [`BarrierSim::run_once_faulty_into`] realized from the fault
    /// stream, or one forced by the caller (e.g.
    /// [`FaultPlan::with_crashes`] for a deterministic crash-set sweep).
    /// The drop and jitter streams are consumed alike.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_faulty(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        fault: &FaultModel,
        fplan: &FaultPlan,
        entry: &[f64],
        net: &mut NetState,
        seed: u64,
        label: u64,
        rep: u64,
        scratch: &mut SimScratch,
        book: &mut FaultBook,
        report: &mut FaultReport,
    ) {
        let p = plan.p();
        assert_eq!(entry.len(), p, "entry vector length");
        assert_eq!(self.placement.nprocs(), p, "placement process count");
        assert_eq!(fplan.crash_time.len(), p, "fault plan rank count");
        for (c, (&e, &d)) in scratch
            .cur
            .iter_mut()
            .zip(entry.iter().zip(&fplan.straggler_delay))
        {
            *c = e + d;
        }
        report.reset(p);
        book.timed_out.clear();
        book.timed_out.resize(p, false);
        book.missed.clear();
        book.missed.resize(p, false);
        let mut view = Faults {
            fault,
            fplan,
            drops: DropStream::new(seed, rep),
            report,
            book,
        };
        let sigma = self.params.jitter.sigma;
        let draws = plan.jitter_draws();
        scratch.with_jitter(sigma, seed, label, rep, draws, |scratch, jit| {
            self.run_stages(plan, payload, |i| i, net, jit, &mut view, scratch);
        });
        debug_assert_eq!(
            view.drops.drawn(),
            plan.total_signals(),
            "faulty executor consumed a different drop-draw count than the plan reports"
        );
        for (i, out) in view.report.outcomes.iter_mut().enumerate() {
            *out = if fplan.crash_time[i] < f64::INFINITY {
                RankOutcome::Crashed(fplan.crash_time[i])
            } else if view.book.timed_out[i] {
                RankOutcome::TimedOut(scratch.cur[i])
            } else {
                RankOutcome::Completed(scratch.cur[i])
            };
        }
    }

    /// Cold-start repetitions `0..reps` under `fault`, fanned out on
    /// [`hpm_par`]: every worker carries one `(SimScratch, NetState, S)`
    /// across its share, and `run` gets them with the network reset.
    ///
    /// # Panics
    ///
    /// Panics when `fault` fails [`FaultModel::checked`], naming `what`
    /// and the offending knob — a sweep over user-supplied models dies
    /// at entry with a clear message instead of misbehaving mid-run.
    pub(crate) fn measure_reps<S: Default, R: Send>(
        &self,
        what: &str,
        fault: &FaultModel,
        reps: usize,
        run: impl Fn(&mut SimScratch, &mut NetState, &mut S, u64) -> R + Sync,
    ) -> Vec<R> {
        if let Err(e) = fault.checked() {
            panic!("{what}: invalid FaultModel: {e}");
        }
        let init = || {
            let scratch = SimScratch::new(self.placement);
            (scratch, NetState::new(self.placement), S::default())
        };
        hpm_par::par_map_indexed_with(reps, init, |(scratch, net, extra), r| {
            net.reset();
            run(scratch, net, extra, r as u64)
        })
    }

    /// Repeated faulty cold-start runs with independent fault and jitter
    /// streams per repetition, fanned out on [`hpm_par`]. Repetition `r`
    /// is bit-identical to a lone [`BarrierSim::run_once_faulty_into`] at
    /// `rep = r` — grouping into workers is invisible, exactly like the
    /// lane batching of the healthy `measure_compiled`.
    ///
    /// # Panics
    ///
    /// Panics when `fault` fails [`FaultModel::checked`], naming the
    /// offending knob.
    pub fn measure_faulty(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        fault: &FaultModel,
        reps: usize,
        seed: u64,
    ) -> Vec<FaultReport> {
        let zeros = vec![0.0; plan.p()];
        self.measure_reps("measure_faulty", fault, reps, |scratch, net, fs, r| {
            let mut report = FaultReport::new(plan.p());
            self.run_once_faulty_into(
                plan,
                payload,
                fault,
                &zeros,
                net,
                seed,
                BARRIER_JITTER_LABEL,
                r,
                scratch,
                fs,
                &mut report,
            );
            report
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{cold_total, dissemination, lone_faulty, sim_fixture};
    use hpm_stats::fault::DropProb;

    fn faulty_model() -> FaultModel {
        FaultModel {
            crash_count: 2,
            crash_window: 1e-4,
            drop: DropProb::uniform(0.05),
            straggler_prob: 0.1,
            straggler_scale: 5e-5,
            straggler_alpha: 1.5,
            ..FaultModel::NONE
        }
    }

    /// The fault view over caller-owned bookkeeping, for signal-level
    /// tests.
    fn view<'a>(
        fault: &'a FaultModel,
        fplan: &'a FaultPlan,
        report: &'a mut FaultReport,
        book: &'a mut FaultBook,
    ) -> Faults<'a> {
        let p = fplan.crash_time.len();
        book.timed_out.resize(p, false);
        book.missed.resize(p, false);
        Faults {
            fault,
            fplan,
            drops: DropStream::new(1, 0),
            report,
            book,
        }
    }

    /// A neutral fault plan routes a signal through arithmetic
    /// bit-identical to the fault-free instantiation.
    #[test]
    fn neutral_signal_matches_fault_free_bitwise() {
        use hpm_stats::rng::{derive_rng, ScalarJitter};
        let (params, placement) = sim_fixture(16);
        let fplan = FaultPlan::neutral(16, placement.shape().nodes());
        let (mut report, mut book) = (FaultReport::new(16), FaultBook::default());
        let mut faults = view(&FaultModel::NONE, &fplan, &mut report, &mut book);
        let mut rng_a = derive_rng(11, 0);
        let mut rng_b = derive_rng(11, 0);
        let mut jit_a = ScalarJitter::new(params.jitter, &mut rng_a);
        let mut jit_b = ScalarJitter::new(params.jitter, &mut rng_b);
        let mut net_a = NetState::new(&placement);
        let mut net_b = NetState::new(&placement);
        for (src, dst) in [(0usize, 1usize), (0, 2), (3, 12), (2, 1)] {
            let (ack, processed) =
                net_a.signal_round_trip(&params, &placement, &mut jit_a, src, dst, 1e-6, 64, 0.0);
            let fate = net_b.signal(
                &params,
                &placement,
                &mut jit_b,
                &mut faults,
                src,
                dst,
                1e-6,
                64,
                0.0,
            );
            assert_eq!(
                fate,
                SignalFate::Delivered {
                    ack,
                    processed,
                    retries: 0,
                    retry_delay: 0.0
                }
            );
        }
        assert_eq!(faults.drops.drawn(), 4);
    }

    /// Near-certain drop (attempts beyond the budget) loses the signal
    /// after the full backed-off budget; a crashed sender never emits,
    /// and both still consume their draws.
    #[test]
    fn hopeless_drops_and_dead_senders_lose_signals() {
        use hpm_stats::rng::JitterBuf;
        let (params, placement) = sim_fixture(16);
        let fault = FaultModel {
            drop: DropProb::uniform(0.999_999),
            timeout: 1e-3,
            ..FaultModel::NONE
        };
        let mut fplan = FaultPlan::neutral(16, placement.shape().nodes());
        fplan.crash_time[3] = 0.0;
        let (mut report, mut book) = (FaultReport::new(16), FaultBook::default());
        let mut faults = view(&fault, &fplan, &mut report, &mut book);
        let mut ones = JitterBuf::new();
        let mut net = NetState::new(&placement);
        match net.signal(
            &params,
            &placement,
            &mut ones,
            &mut faults,
            0,
            1,
            0.0,
            0,
            0.0,
        ) {
            // Full budget: timeout·(1 + 2 + 4 + 8) past the send.
            SignalFate::Lost { gave_up } => assert!(gave_up >= 15e-3, "gave_up {gave_up}"),
            other => panic!("near-certain drop must lose, got {other:?}"),
        }
        let fate = net.signal(
            &params,
            &placement,
            &mut ones,
            &mut faults,
            3,
            1,
            1.0,
            0,
            0.0,
        );
        assert_eq!(fate, SignalFate::SenderDead);
        assert_eq!(faults.drops.drawn(), 2);
    }

    /// The zero-fault property of the tentpole: a `FaultModel::NONE` run
    /// is bitwise identical to the fault-free batched engine, sample by
    /// sample.
    #[test]
    fn none_model_matches_fault_free_engine_bitwise() {
        let p = 32;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        for rep in 0..8u64 {
            let healthy = cold_total(&sim, &plan, &payload, 4242, rep, &mut net, &mut scratch);
            let none = FaultModel::NONE;
            let report = lone_faulty(&sim, &plan, &none, 4242, rep, &mut net, &mut scratch);
            assert!(report.all_completed());
            assert_eq!(report.retries, 0);
            assert_eq!(report.lost_signals, 0);
            assert_eq!(
                report.total().to_bits(),
                healthy.to_bits(),
                "rep {rep}: faulty-but-neutral diverged from the healthy engine"
            );
        }
    }

    /// The consumed-vs-planned audit extends to fault draws: a faulty
    /// run consumes exactly `total_signals()` drop uniforms and the
    /// plan's jitter draws — knob values notwithstanding.
    #[test]
    fn faulty_executor_consumes_exactly_the_plan_reported_draws() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        assert_eq!(
            plan.total_signals(),
            (0..plan.stages())
                .map(|s| plan.stage(s).edge_count())
                .sum::<usize>()
        );
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        for fault in [FaultModel::NONE, faulty_model()] {
            let _ = lone_faulty(&sim, &plan, &fault, 7, 0, &mut net, &mut scratch);
            // The debug asserts inside run_faulty enforce the counts; in
            // release builds this test still pins the jitter cursor
            // through the scratch.
            assert_eq!(scratch.jitter().consumed(), plan.jitter_draws());
        }
    }

    /// Faulty repetitions are bit-identical at any thread count, and
    /// `measure_faulty` rep `r` equals a lone `run_once_faulty_into` at
    /// `r`.
    #[test]
    fn faulty_measure_is_thread_invariant_and_rep_keyed() {
        let p = 24;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let fault = faulty_model();
        let serial = hpm_par::with_threads(Some(1), || {
            sim.measure_faulty(&plan, &payload, &fault, 12, 99)
        });
        for threads in [2usize, 8] {
            let par = hpm_par::with_threads(Some(threads), || {
                sim.measure_faulty(&plan, &payload, &fault, 12, 99)
            });
            assert_eq!(serial, par, "threads {threads}");
        }
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        for (r, rep_report) in serial.iter().enumerate() {
            let lone = lone_faulty(&sim, &plan, &fault, 99, r as u64, &mut net, &mut scratch);
            assert_eq!(*rep_report, lone, "rep {r}");
        }
    }

    /// Crashed ranks report as crashed; their expected receivers time
    /// out rather than hang; survivors still finish.
    #[test]
    fn crashes_surface_as_outcomes_not_hangs() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let fault = FaultModel {
            crash_count: 2,
            crash_window: 1e-5,
            ..FaultModel::NONE
        };
        let reports = sim.measure_faulty(&plan, &PayloadSchedule::none(), &fault, 6, 5);
        for (r, report) in reports.iter().enumerate() {
            let crashed: Vec<usize> = (0..p)
                .filter(|&i| matches!(report.outcomes[i], RankOutcome::Crashed(_)))
                .collect();
            assert_eq!(crashed.len(), 2, "rep {r}");
            assert!(report.suppressed_signals > 0, "rep {r}");
            // In a dissemination barrier every rank expects signals from
            // the crashed ranks eventually, so timeouts must appear.
            assert!(
                report
                    .outcomes
                    .iter()
                    .any(|o| matches!(o, RankOutcome::TimedOut(_))),
                "rep {r}: no rank timed out despite crashes"
            );
            assert!(report.total().is_finite());
        }
    }

    /// Drops slow the barrier down (retry latency) without changing who
    /// completes, and retries are reported.
    #[test]
    fn drops_cost_retries_and_inflate_completion() {
        let p = 32;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let clean = sim.measure_faulty(&plan, &payload, &FaultModel::NONE, 16, 21);
        let dropped = sim.measure_faulty(
            &plan,
            &payload,
            &FaultModel {
                drop: DropProb::uniform(0.08),
                ..FaultModel::NONE
            },
            16,
            21,
        );
        let mean =
            |rs: &[FaultReport]| rs.iter().map(FaultReport::total).sum::<f64>() / rs.len() as f64;
        let retries: u64 = dropped.iter().map(|r| r.retries).sum();
        assert!(retries > 0, "8% drop over 16 reps must retry at least once");
        assert!(dropped.iter().all(FaultReport::all_completed));
        assert!(
            mean(&dropped) > mean(&clean),
            "retries must inflate completion: {} vs {}",
            mean(&dropped),
            mean(&clean)
        );
    }

    /// A drop probability a hair below 1 passes `checked()`, and its
    /// attempt counts pass `u32::MAX`: they saturate, so every signal is
    /// lost after the full budget — none is delivered on wrapped counts.
    #[test]
    fn near_certain_drop_loses_every_signal() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let fault = FaultModel {
            drop: DropProb::uniform(1.0 - 1e-15),
            ..FaultModel::NONE
        };
        assert_eq!(fault.checked(), Ok(()));
        for report in sim.measure_faulty(&plan, &PayloadSchedule::none(), &fault, 4, 5) {
            assert_eq!(report.retries, 0);
            assert_eq!(report.lost_signals, plan.total_signals() as u64);
            assert_eq!(report.completed_count(), 0);
        }
    }

    /// Stragglers delay entry, and the delay propagates into completion
    /// times roughly like the §5.5 entry-skew experiment.
    #[test]
    fn stragglers_delay_completion() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(p);
        let payload = PayloadSchedule::none();
        let clean = sim.measure_faulty(&plan, &payload, &FaultModel::NONE, 16, 3);
        let straggly = sim.measure_faulty(
            &plan,
            &payload,
            &FaultModel {
                straggler_prob: 0.3,
                straggler_scale: 1e-3,
                straggler_alpha: 1.5,
                ..FaultModel::NONE
            },
            16,
            3,
        );
        let mean =
            |rs: &[FaultReport]| rs.iter().map(FaultReport::total).sum::<f64>() / rs.len() as f64;
        assert!(
            mean(&straggly) > 2.0 * mean(&clean),
            "millisecond-scale stragglers must dominate: {} vs {}",
            mean(&straggly),
            mean(&clean)
        );
    }

    /// A tail exponent the Pareto table cannot take fails the entry
    /// check, naming the field, instead of panicking inside a worker.
    #[test]
    #[should_panic(expected = "measure_faulty: invalid FaultModel: straggler_alpha")]
    fn zero_straggler_alpha_is_rejected_at_entry() {
        let p = 16;
        let (params, placement) = sim_fixture(p);
        let sim = BarrierSim::new(&params, &placement);
        let fault = FaultModel {
            straggler_alpha: 0.0,
            ..faulty_model()
        };
        sim.measure_faulty(&dissemination(p), &PayloadSchedule::none(), &fault, 4, 1);
    }
}
