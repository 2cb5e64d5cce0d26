//! The BSPlib runtime: SPMD execution, background communication and the
//! payload-carrying synchronization barrier (§6.2–6.5).
//!
//! Each superstep runs in two phases. First every process executes its
//! program code against a [`BspCtx`], which advances its virtual clock and
//! commits communication operations with their issue times. Then the
//! runtime resolves the superstep against the simulated network:
//!
//! 1. every operation's out-of-band header (and any put/send payload)
//!    transfers in the background from its issue time;
//! 2. get replies are issued by the data owner's communication thread as
//!    soon as the request header is processed;
//! 3. all processes enter the dissemination barrier, which carries the
//!    message-count map as payload (§6.4–6.5) so each knows how many
//!    inbound transfers remain;
//! 4. a process completes the sync when the barrier is done, all its
//!    inbound data landed *and* its own outbound transfers have released
//!    the sending CPU — communication committed early that finished
//!    during computation costs nothing extra, which is exactly the overlap
//!    the Fig. 1.2 processing model exposes; a transfer committed right
//!    before the sync still charges its sender-side `o_send` tail.
//!
//! Memory effects then apply in BSPlib order: gets read the pre-put state,
//! puts land (deterministically ordered), sends appear in next-superstep
//! queues, registrations commit.
//!
//! On the host, the runtime owns one operation log and one byte staging
//! buffer per superstep, shared by all processes: a put reserves a span of
//! the buffer and writes its payload there ([`BspCtx::put_with`]), the
//! memory phase copies the span into the target's registered buffer, and
//! the buffer is released before the next superstep's program code runs.
//! One staged copy per put, no allocation of its own; the log, the message
//! lists and the memory phase's bookkeeping are scratch reused across
//! supersteps. None of this touches virtual time: what a put charges is
//! decided in [`BspCtx`] before any byte moves.

use crate::ctx::BspCtx;
use crate::mem::{BsmpMsg, ProcMem, RegHandle};
use crate::ops::{CommOp, StepOutcome, HEADER_BYTES};
use hpm_barriers::patterns::dissemination;
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::PayloadSchedule;
use hpm_kernels::rate::ProcessorModel;
use hpm_simnet::barrier::{BarrierSim, SimScratch};
use hpm_simnet::exchange::{
    exchange_jitter_draws, resolve_exchange_into, ExchangeMsg, ExchangeResult, ExchangeScratch,
};
use hpm_simnet::faults::{FaultReport, FaultScratch, RankOutcome};
use hpm_simnet::net::NetState;
use hpm_simnet::params::PlatformParams;
use hpm_stats::fault::FaultModel;
use hpm_stats::rng::{derive_rng, JitterBuf};
use hpm_topology::Placement;
use std::ops::Range;

/// Stream label of the payload-carrying sync's jitter tables; `rep` is
/// the superstep index.
const SYNC_JITTER_LABEL: u64 = 0x5253_594E; // b"RSYN"

/// Stream label of the background-transfer resolutions; `rep` is
/// `2·superstep` for the header/payload pass and `2·superstep + 1` for
/// the get replies.
const EXCHANGE_JITTER_LABEL: u64 = 0x5245_5843; // b"REXC"

/// An SPMD program: one instance per process; each `superstep` call is the
/// code between two `bsp_sync`s.
pub trait BspProgram {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome;
}

/// Which barrier pattern the payload-carrying sync executes (§6.4).
///
/// The thesis' BSPlib sync is a dissemination barrier, but Ch. 5/7 study
/// linear and tree shapes on the same platforms; exposing the choice here
/// lets the runtime replay those comparisons end-to-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPattern {
    /// The §6.4 default: dissemination, carrying the exact §6.5
    /// message-count map schedule.
    #[default]
    Dissemination,
    /// Centralized gather to a root followed by its serial release.
    Linear { root: usize },
    /// Binary-tree gather/release.
    BinaryTree,
}

impl SyncPattern {
    /// Builds the pattern and its count-map payload schedule for `p`
    /// processes. Non-dissemination shapes carry one `4·p`-byte counter
    /// row per signal — an approximation of the aggregated map the exact
    /// §6.5 schedule spells out for dissemination.
    fn build(&self, p: usize) -> (Option<CompiledPattern>, PayloadSchedule) {
        use hpm_barriers::patterns::{binary_tree, linear};
        if p < 2 {
            return (None, PayloadSchedule::none());
        }
        match *self {
            SyncPattern::Dissemination => (
                Some(dissemination(p)),
                PayloadSchedule::dissemination_count_map(p),
            ),
            SyncPattern::Linear { root } => {
                let pat = linear(p, root);
                let payload = PayloadSchedule::uniform(pat.stages(), 4 * p as u64);
                (Some(pat), payload)
            }
            SyncPattern::BinaryTree => {
                let pat = binary_tree(p);
                let payload = PayloadSchedule::uniform(pat.stages(), 4 * p as u64);
                (Some(pat), payload)
            }
        }
    }
}

/// What the runtime does when a fault-injected sync fails on some
/// processes (ULFM-style error handling for the simulated machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Abort the run with [`BspError::SyncFailed`] — the pre-recovery
    /// behavior, and the default.
    #[default]
    FailFast,
    /// Shrink the process set to the sync's survivors, remap their pids
    /// to `0..n_survivors` (rank order preserved), rebuild the sync for
    /// the smaller machine, and resume the superstep loop from the
    /// post-consensus instant. What happened is surfaced on
    /// [`BspRunResult::recoveries`] instead of an error.
    ShrinkAndContinue,
}

/// One shrink event on a [`BspRunResult`]: which sync failed, who was
/// evicted, and what the survivors paid to agree on it. Pids are in the
/// numbering that was current *at that superstep* (earlier shrinks have
/// already renumbered).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// Superstep whose sync failed.
    pub superstep: usize,
    /// Processes evicted (crashed or timed out), in rank order.
    pub failed: Vec<usize>,
    /// Processes that continue, in rank order; survivor `survivors[i]`
    /// becomes pid `i` from the next superstep on.
    pub survivors: Vec<usize>,
    /// When the survivors had detected the failure: last survivor exit
    /// from the failed sync plus one retry-timeout budget.
    pub detection_time: f64,
    /// Modeled agreement-round cost the survivors paid on top.
    pub consensus_cost: f64,
    /// Process count after the shrink.
    pub nprocs_after: usize,
}

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct BspConfig {
    pub params: PlatformParams,
    pub placement: Placement,
    pub proc_model: ProcessorModel,
    pub seed: u64,
    /// Runaway guard: the run errors out beyond this many supersteps.
    pub max_supersteps: usize,
    /// Barrier shape the sync executes; dissemination unless overridden.
    pub sync: SyncPattern,
    /// Fault model injected into every sync; [`FaultModel::NONE`] (the
    /// default) keeps the run bit-identical to the fault-free runtime.
    pub fault: FaultModel,
    /// What a failed sync does to the run; [`RecoveryPolicy::FailFast`]
    /// (the default) preserves the pre-recovery abort behavior.
    pub recovery: RecoveryPolicy,
}

impl BspConfig {
    /// Standard configuration for a placement on a platform.
    pub fn new(
        params: PlatformParams,
        placement: Placement,
        proc_model: ProcessorModel,
        seed: u64,
    ) -> BspConfig {
        BspConfig {
            params,
            placement,
            proc_model,
            seed,
            max_supersteps: 100_000,
            sync: SyncPattern::default(),
            fault: FaultModel::NONE,
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Why a run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BspError {
    /// `bsp_abort` was called.
    Abort {
        pid: usize,
        superstep: usize,
        msg: String,
    },
    /// Some processes halted while others continued — `bsp_end` must be
    /// collective.
    MixedHalt { superstep: usize },
    /// The `max_supersteps` guard tripped.
    SuperstepLimit,
    /// The configured [`FaultModel`] failed [`FaultModel::checked`]; the
    /// message names the offending knob. Returned before the first
    /// superstep, so a bad user-supplied model cannot silently misbehave
    /// mid-run.
    InvalidFaultModel(String),
    /// A fault-injected sync could not complete on every process: some
    /// crashed or timed out waiting for signals that never arrived. The
    /// run stops at that superstep; `survivors` lists the processes that
    /// still completed the sync cleanly.
    SyncFailed {
        superstep: usize,
        /// Processes that crashed or timed out, in rank order.
        failed: Vec<usize>,
        /// Processes that completed the sync, in rank order.
        survivors: Vec<usize>,
    },
}

impl std::fmt::Display for BspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BspError::Abort {
                pid,
                superstep,
                msg,
            } => {
                write!(f, "bsp_abort from pid {pid} in superstep {superstep}: {msg}")
            }
            BspError::MixedHalt { superstep } => write!(
                f,
                "superstep {superstep}: some processes halted while others continued (bsp_end must be collective)"
            ),
            BspError::SuperstepLimit => write!(f, "superstep limit exceeded"),
            BspError::InvalidFaultModel(msg) => write!(f, "invalid fault model: {msg}"),
            BspError::SyncFailed {
                superstep,
                failed,
                survivors,
            } => write!(
                f,
                "superstep {superstep}: sync failed on {} of {} processes (failed ranks: {failed:?})",
                failed.len(),
                failed.len() + survivors.len()
            ),
        }
    }
}

impl std::error::Error for BspError {}

/// Timing trace of one superstep (absolute virtual times).
#[derive(Debug, Clone)]
pub struct SuperstepTrace {
    /// When each process finished its program code (sync entry).
    pub compute_end: Vec<f64>,
    /// When each process' last *outbound* transfer (one-sided header,
    /// put/send payload or get reply it served) released its CPU; equals
    /// `compute_end` for processes that sourced nothing.
    pub send_complete: Vec<f64>,
    /// When each process absorbed its last *inbound* transfer; equals
    /// `compute_end` for processes that received nothing.
    pub recv_complete: Vec<f64>,
    /// When each process left the dissemination protocol itself (equals
    /// `compute_end` when `p == 1` and no barrier runs). Useful for
    /// diagnosing which term binds `completion`.
    pub sync_exit: Vec<f64>,
    /// When each process completed the sync (next superstep entry). Never
    /// earlier than `send_complete` or `recv_complete`: a process may not
    /// leave the sync while its own issue tails or inbound data are still
    /// in flight.
    pub completion: Vec<f64>,
    /// Total payload bytes committed during the superstep.
    pub payload_bytes: u64,
    /// Number of one-sided/BSMP operations committed.
    pub ops: usize,
}

impl SuperstepTrace {
    /// Wall time of this superstep: latest completion minus earliest entry
    /// into it (the previous step's latest completion is the caller's
    /// reference; within a trace we report the collective span).
    pub fn span(&self, prev_max_completion: f64) -> f64 {
        let end = self
            .completion
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        end - prev_max_completion
    }
}

/// The outcome of a run: final program states and the timing record.
#[derive(Debug)]
pub struct BspRunResult<P> {
    /// Per-process program instances after the run.
    pub programs: Vec<P>,
    /// Total virtual time (latest completion of the final sync).
    pub total_time: f64,
    /// Per-superstep traces. A trace recorded before a shrink spans the
    /// process count that was current then.
    pub supersteps: Vec<SuperstepTrace>,
    /// Shrink events under [`RecoveryPolicy::ShrinkAndContinue`], in
    /// superstep order; empty on a clean run and always empty under
    /// [`RecoveryPolicy::FailFast`].
    pub recoveries: Vec<RecoveryEvent>,
}

impl<P> BspRunResult<P> {
    /// Number of supersteps executed.
    pub fn superstep_count(&self) -> usize {
        self.supersteps.len()
    }

    /// Wall time of superstep `k`.
    pub fn superstep_time(&self, k: usize) -> f64 {
        let prev = if k == 0 {
            0.0
        } else {
            self.supersteps[k - 1]
                .completion
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        };
        self.supersteps[k].span(prev)
    }
}

/// Runs an SPMD program built by `make(pid)` on the configured platform.
///
/// Returns [`BspError::InvalidFaultModel`] before the first superstep
/// when `cfg.fault` fails [`FaultModel::checked`]. Under
/// [`RecoveryPolicy::ShrinkAndContinue`] a failed sync evicts the
/// failed processes and the loop resumes over the renumbered survivors
/// (the halting superstep is re-executed by the survivors if the final
/// sync itself failed); each shrink is recorded on
/// [`BspRunResult::recoveries`].
pub fn run_spmd<P: BspProgram>(
    cfg: &BspConfig,
    mut make: impl FnMut(usize) -> P,
) -> Result<BspRunResult<P>, BspError> {
    if let Err(e) = cfg.fault.checked() {
        return Err(BspError::InvalidFaultModel(e.to_string()));
    }
    let mut p = cfg.placement.nprocs();
    let mut programs: Vec<P> = (0..p).map(&mut make).collect();
    let mut mems: Vec<ProcMem> = (0..p).map(|_| ProcMem::default()).collect();
    let mut clocks = vec![0.0f64; p];
    let mut rng = derive_rng(cfg.seed, 0xB5F);
    // The sync plan is built once and every superstep's barrier runs
    // over reused scratch. A shrink rebuilds everything sized or shaped
    // by the process count: the placement, the network, the sync plan
    // and its scratch.
    let mut placement = cfg.placement.clone();
    let mut net = NetState::new(&placement);
    let (mut compiled_sync, mut payload) = cfg.sync.build(p);
    let mut sync_scratch = SimScratch::new(&placement);
    // The faulty sync's fault plan, bookkeeping and report are reused
    // across supersteps (and resize themselves after a shrink).
    let mut fault_scratch = FaultScratch::new();
    let mut sync_report = FaultReport::new(p);
    let mut ex_scratch = ExchangeScratch::default();
    // Background transfers run on the batched jitter engine: one table
    // per resolution pass, filled to the message list's exact draw count
    // from a stream keyed by the superstep. (Program compute jitter
    // stays on the scalar path through `rng` — the draws arrive one at a
    // time as the program advances its clock.)
    let mut ex_jitter = JitterBuf::new();
    let mut r1 = ExchangeResult::default();
    let mut r2 = ExchangeResult::default();
    let mut supersteps = Vec::new();
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    // Per-process operation logs, cleared and refilled every superstep,
    // and the superstep's one payload staging buffer (see `ops`): every
    // process' puts and sends append to it during phase 1; phase 4 adds
    // the gets' snapshots, applies the bytes and releases them.
    let mut logs: Vec<Vec<CommOp>> = vec![Vec::new(); p];
    let mut staging: Vec<u8> = Vec::new();
    // Scratch of the resolution and memory phases, reused across
    // supersteps.
    let mut headers: Vec<ExchangeMsg> = Vec::new();
    let mut get_requests: Vec<(usize, usize, usize)> = Vec::new(); // (header idx, pid, op idx)
    let mut replies: Vec<ExchangeMsg> = Vec::new();
    let mut survives: Vec<bool> = Vec::new();
    // (requester, its destination buffer and offset, staged snapshot)
    let mut get_results: Vec<(usize, RegHandle, usize, Range<usize>)> = Vec::new();

    for step in 0..cfg.max_supersteps {
        let sim = BarrierSim::new(&cfg.params, &placement);
        // Phase 1: run program code, collect ops.
        let mut compute_end = vec![0.0f64; p];
        let mut halts = 0usize;
        logs.iter_mut().for_each(Vec::clear);
        for pid in 0..p {
            let mut ctx = BspCtx::new(
                pid,
                p,
                clocks[pid],
                &cfg.proc_model,
                cfg.params.jitter,
                &mut rng,
                &mut mems[pid],
                &mut logs[pid],
                &mut staging,
            );
            let outcome = programs[pid].superstep(&mut ctx);
            let (now, abort) = ctx.finish();
            if let Some(msg) = abort {
                return Err(BspError::Abort {
                    pid,
                    superstep: step,
                    msg,
                });
            }
            compute_end[pid] = now;
            if outcome == StepOutcome::Halt {
                halts += 1;
            }
            if pid == 0 {
                // SPMD: the others commit about as many operations as
                // process 0. Sized here in one pass, no log is allocated
                // between two growth steps of the staging buffer, where
                // it could force the next one to move (DESIGN.md, "The
                // BSPlib payload path").
                let hint = logs[0].len();
                logs[1..].iter_mut().for_each(|log| log.reserve(hint));
            }
        }
        if halts > 0 && halts < p {
            return Err(BspError::MixedHalt { superstep: step });
        }

        // Phase 2: resolve communication.
        headers.clear();
        get_requests.clear();
        let mut payload_bytes = 0u64;
        for (pid, ops) in logs.iter().enumerate() {
            for (i, op) in ops.iter().enumerate() {
                headers.push(ExchangeMsg {
                    src: pid,
                    dst: op.target(),
                    bytes: HEADER_BYTES,
                    issue: op.issue(),
                });
                payload_bytes += op.payload_bytes();
                match op {
                    CommOp::Put { .. } | CommOp::Send { .. } => headers.push(ExchangeMsg {
                        src: pid,
                        dst: op.target(),
                        bytes: op.payload_bytes(),
                        issue: op.issue(),
                    }),
                    CommOp::Get { .. } => get_requests.push((headers.len() - 1, pid, i)),
                }
            }
        }
        ex_jitter.fill(
            cfg.params.jitter.sigma,
            cfg.seed,
            EXCHANGE_JITTER_LABEL,
            2 * step as u64,
            exchange_jitter_draws(&headers),
        );
        resolve_exchange_into(
            &cfg.params,
            &placement,
            &headers,
            &mut net,
            &mut ex_jitter,
            &mut ex_scratch,
            &mut r1,
        );
        // Get replies: issued by the owner once the request is processed.
        replies.clear();
        replies.extend(get_requests.iter().map(|&(msg_idx, requester, i)| {
            let op = &logs[requester][i];
            ExchangeMsg {
                src: op.target(),
                dst: requester,
                bytes: op.payload_bytes(),
                issue: r1.processed[msg_idx],
            }
        }));
        ex_jitter.fill(
            cfg.params.jitter.sigma,
            cfg.seed,
            EXCHANGE_JITTER_LABEL,
            2 * step as u64 + 1,
            exchange_jitter_draws(&replies),
        );
        resolve_exchange_into(
            &cfg.params,
            &placement,
            &replies,
            &mut net,
            &mut ex_jitter,
            &mut ex_scratch,
            &mut r2,
        );

        // Phase 3: synchronize. Under a fault model the sync runs on the
        // faulty executor (same stream label and rep, so a zero-fault
        // model reproduces the healthy path bit-for-bit). A sync that
        // not every process completes aborts the run with the survivor
        // set under `FailFast`, or triggers a shrink below under
        // `ShrinkAndContinue`.
        let mut sync_failed = false;
        let barrier_exit = match &compiled_sync {
            Some(plan) if !cfg.fault.is_none() => {
                sim.run_once_faulty_into(
                    plan,
                    &payload,
                    &cfg.fault,
                    &compute_end,
                    &mut net,
                    cfg.seed,
                    SYNC_JITTER_LABEL,
                    step as u64,
                    &mut sync_scratch,
                    &mut fault_scratch,
                    &mut sync_report,
                );
                if !sync_report.all_completed() {
                    if cfg.recovery == RecoveryPolicy::FailFast {
                        return Err(BspError::SyncFailed {
                            superstep: step,
                            failed: sync_report.failed(),
                            survivors: sync_report.survivors(),
                        });
                    }
                    sync_failed = true;
                }
                sync_scratch.exits().to_vec()
            }
            Some(plan) => {
                sim.run_once_batched(
                    plan,
                    &payload,
                    &compute_end,
                    &mut net,
                    cfg.seed,
                    SYNC_JITTER_LABEL,
                    step as u64,
                    &mut sync_scratch,
                );
                sync_scratch.exits().to_vec()
            }
            None => compute_end.clone(),
        };
        // A process completes the sync when the barrier is done, all its
        // inbound data landed, AND its own outbound transfers' sender-side
        // cost has elapsed — a sender that issued an hp-put just before
        // the sync still owns its CPU for the `o_send` tail (and a get
        // owner for the reply it serves), exactly as the MPI stencil's
        // blocking stages account it.
        let send_complete: Vec<f64> = (0..p)
            .map(|i| compute_end[i].max(r1.last_out[i]).max(r2.last_out[i]))
            .collect();
        let recv_complete: Vec<f64> = (0..p)
            .map(|i| compute_end[i].max(r1.last_in[i]).max(r2.last_in[i]))
            .collect();
        let completion: Vec<f64> = (0..p)
            .map(|i| barrier_exit[i].max(recv_complete[i]).max(send_complete[i]))
            .collect();

        // Phase 4: memory effects in BSPlib order.
        // After a failed sync under ShrinkAndContinue, only effects
        // whose source and destination both survive commit — data to or
        // from an evicted process died with it.
        survives.clear();
        if sync_failed {
            survives.extend(
                sync_report
                    .outcomes
                    .iter()
                    .map(|o| matches!(o, RankOutcome::Completed(_))),
            );
        } else {
            survives.resize(p, true);
        }
        // Every operation with its issuing process, in `(pid, program
        // order)` — the order puts land in.
        let ops = || {
            logs.iter()
                .enumerate()
                .flat_map(|(pid, ops)| ops.iter().map(move |op| (pid, op)))
        };
        // Gets read the state at the end of computation, before puts:
        // their snapshots are staged behind the superstep's put and send
        // bytes and installed once the puts have landed.
        for (pid, op) in ops() {
            if let CommOp::Get {
                src,
                src_reg,
                src_offset,
                dst_reg,
                dst_offset,
                len,
                ..
            } = op
            {
                if !(survives[pid] && survives[*src]) {
                    continue;
                }
                let start = staging.len();
                staging
                    .extend_from_slice(&mems[*src].read(*src_reg)[*src_offset..*src_offset + *len]);
                get_results.push((pid, *dst_reg, *dst_offset, start..staging.len()));
            }
        }
        for (pid, op) in ops() {
            if let CommOp::Put {
                dst,
                reg,
                offset,
                data,
                ..
            } = op
            {
                if !(survives[pid] && survives[*dst]) {
                    continue;
                }
                mems[*dst].write(*reg)[*offset..*offset + data.len()]
                    .copy_from_slice(&staging[data.clone()]);
            }
        }
        for (pid, dst_reg, dst_offset, snapshot) in get_results.drain(..) {
            mems[pid].write(dst_reg)[dst_offset..dst_offset + snapshot.len()]
                .copy_from_slice(&staging[snapshot]);
        }
        for (pid, op) in ops() {
            if let CommOp::Send {
                dst, tag, payload, ..
            } = op
            {
                if !(survives[pid] && survives[*dst]) {
                    continue;
                }
                // The message's one owned copy is made at delivery.
                mems[*dst].arriving.push(BsmpMsg {
                    tag: staging[tag.clone()].to_vec(),
                    payload: staging[payload.clone()].to_vec(),
                });
            }
        }
        for mem in mems.iter_mut() {
            mem.commit_sync();
        }
        // The staged bytes are applied; give them back before the
        // programs run again. Kept across supersteps, a large exchange's
        // buffer would sit resident beside the data the programs then
        // unpack from their registered memory (see DESIGN.md).
        staging = Vec::new();

        clocks.clone_from(&completion);
        supersteps.push(SuperstepTrace {
            compute_end,
            send_complete,
            recv_complete,
            sync_exit: barrier_exit,
            completion,
            payload_bytes,
            ops: logs.iter().map(Vec::len).sum(),
        });

        if sync_failed {
            let report = &sync_report;
            // ShrinkAndContinue: evict the failed processes, renumber
            // the survivors to 0..n in rank order, rebuild everything
            // shaped by the process count, and resume from the
            // post-detection/consensus instant.
            let survivor_ranks = report.survivors();
            let failed = report.failed();
            if survivor_ranks.is_empty() {
                return Err(BspError::SyncFailed {
                    superstep: step,
                    failed,
                    survivors: survivor_ranks,
                });
            }
            let detection_time = report.total() + cfg.fault.timeout;
            let consensus = hpm_simnet::recovery::consensus_cost(&cfg.params, survivor_ranks.len());
            let t0 = detection_time + consensus;
            let mut keep = survives.iter();
            programs.retain(|_| *keep.next().expect("mask spans programs"));
            let mut keep = survives.iter();
            mems.retain(|_| *keep.next().expect("mask spans mems"));
            let mut keep = survives.iter();
            clocks.retain(|_| *keep.next().expect("mask spans clocks"));
            // Survivors resume no earlier than the agreement instant;
            // a transfer tail that outlived it keeps its later clock.
            for c in clocks.iter_mut() {
                *c = c.max(t0);
            }
            p = survivor_ranks.len();
            logs.truncate(p);
            recoveries.push(RecoveryEvent {
                superstep: step,
                failed,
                survivors: survivor_ranks,
                detection_time,
                consensus_cost: consensus,
                nprocs_after: p,
            });
            placement = Placement::new(placement.shape(), placement.policy(), p);
            net = NetState::new(&placement);
            (compiled_sync, payload) = cfg.sync.build(p);
            sync_scratch = SimScratch::new(&placement);
            continue;
        }

        if halts == p {
            let total_time = clocks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            return Ok(BspRunResult {
                programs,
                total_time,
                supersteps,
                recoveries,
            });
        }
    }
    Err(BspError::SuperstepLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_kernels::rate::xeon_core;
    use hpm_simnet::params::xeon_cluster_params;
    use hpm_topology::{cluster_8x2x4, PlacementPolicy};

    fn config(p: usize) -> BspConfig {
        BspConfig::new(
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
            xeon_core(),
            1234,
        )
    }

    /// Ring rotation by put: each process writes its pid into its right
    /// neighbour's buffer, twice, checking values between supersteps.
    #[derive(Debug)]
    struct RotatePut {
        step: usize,
        buf: Option<RegHandle>,
        seen: Vec<u8>,
    }

    impl BspProgram for RotatePut {
        fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
            let p = ctx.nprocs();
            match self.step {
                0 => {
                    let h = ctx.alloc(1);
                    ctx.push_reg(h);
                    self.buf = Some(h);
                    self.step = 1;
                    StepOutcome::Continue
                }
                1 => {
                    let h = self.buf.expect("allocated");
                    let dst = (ctx.pid() + 1) % p;
                    ctx.put(dst, h, 0, &[ctx.pid() as u8]);
                    self.step = 2;
                    StepOutcome::Continue
                }
                _ => {
                    let h = self.buf.expect("allocated");
                    self.seen = ctx.read_buf(h).to_vec();
                    StepOutcome::Halt
                }
            }
        }
    }

    #[test]
    fn put_data_arrives_after_sync() {
        let cfg = config(8);
        let res = run_spmd(&cfg, |_| RotatePut {
            step: 0,
            buf: None,
            seen: Vec::new(),
        })
        .expect("run succeeds");
        for (pid, prog) in res.programs.iter().enumerate() {
            let left = ((pid + 8) - 1) % 8;
            assert_eq!(prog.seen, vec![left as u8], "pid {pid}");
        }
        assert_eq!(res.superstep_count(), 3);
        assert!(res.total_time > 0.0);
    }

    /// Get-based neighbour read.
    struct NeighbourGet {
        step: usize,
        src: Option<RegHandle>,
        dst: Option<RegHandle>,
        got: u8,
    }

    impl BspProgram for NeighbourGet {
        fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
            match self.step {
                0 => {
                    let s = ctx.alloc(1);
                    let d = ctx.alloc(1);
                    ctx.write_buf(s)[0] = (ctx.pid() * 10) as u8;
                    ctx.push_reg(s);
                    ctx.push_reg(d);
                    self.src = Some(s);
                    self.dst = Some(d);
                    self.step = 1;
                    StepOutcome::Continue
                }
                1 => {
                    let p = ctx.nprocs();
                    let from = (ctx.pid() + 1) % p;
                    ctx.get(
                        from,
                        self.src.expect("reg"),
                        0,
                        self.dst.expect("reg"),
                        0,
                        1,
                    );
                    self.step = 2;
                    StepOutcome::Continue
                }
                _ => {
                    self.got = ctx.read_buf(self.dst.expect("reg"))[0];
                    StepOutcome::Halt
                }
            }
        }
    }

    #[test]
    fn get_reads_remote_values() {
        let cfg = config(4);
        let res = run_spmd(&cfg, |_| NeighbourGet {
            step: 0,
            src: None,
            dst: None,
            got: 0,
        })
        .expect("run succeeds");
        for (pid, prog) in res.programs.iter().enumerate() {
            assert_eq!(prog.got, (((pid + 1) % 4) * 10) as u8, "pid {pid}");
        }
    }

    /// BSMP: everyone sends its pid to rank 0 with a 4-byte tag.
    struct SendToZero {
        step: usize,
        received: Vec<u32>,
    }

    impl BspProgram for SendToZero {
        fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
            match self.step {
                0 => {
                    ctx.set_tagsize(4);
                    self.step = 1;
                    StepOutcome::Continue
                }
                1 => {
                    let tag = (ctx.pid() as u32).to_le_bytes();
                    ctx.send(0, &tag, &(ctx.pid() as u32 * 7).to_le_bytes());
                    self.step = 2;
                    StepOutcome::Continue
                }
                _ => {
                    if ctx.pid() == 0 {
                        while let Some(m) = ctx.move_msg() {
                            self.received
                                .push(u32::from_le_bytes(m.payload.try_into().expect("4B")));
                        }
                    }
                    StepOutcome::Halt
                }
            }
        }
    }

    #[test]
    fn bsmp_queue_delivers_all_messages() {
        let cfg = config(6);
        let res = run_spmd(&cfg, |_| SendToZero {
            step: 0,
            received: Vec::new(),
        })
        .expect("run succeeds");
        let mut got = res.programs[0].received.clone();
        got.sort_unstable();
        assert_eq!(got, vec![0, 7, 14, 21, 28, 35]);
    }

    /// Overlap witness: a big put issued early, followed by long compute,
    /// should cost (almost) nothing at sync compared to the same put
    /// issued at the end of the compute.
    struct OverlapProbe {
        step: usize,
        early: bool,
        buf: Option<RegHandle>,
    }

    const BIG: usize = 4 << 20;

    impl BspProgram for OverlapProbe {
        fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
            match self.step {
                0 => {
                    let h = ctx.alloc(BIG);
                    ctx.push_reg(h);
                    self.buf = Some(h);
                    self.step = 1;
                    StepOutcome::Continue
                }
                1 => {
                    let h = self.buf.expect("reg");
                    let data = vec![1u8; BIG];
                    let dst = (ctx.pid() + 1) % ctx.nprocs();
                    let compute = 0.1; // 100 ms of work
                    if self.early {
                        ctx.hpput(dst, h, 0, &data);
                        ctx.elapse(compute);
                    } else {
                        ctx.elapse(compute);
                        ctx.hpput(dst, h, 0, &data);
                    }
                    self.step = 2;
                    StepOutcome::Continue
                }
                _ => StepOutcome::Halt,
            }
        }
    }

    fn overlap_run(early: bool) -> f64 {
        // 16 processes span two nodes, so the ring put crosses the
        // gigabit link where a 4 MiB transfer costs ~35 ms.
        let cfg = config(16);
        let res = run_spmd(&cfg, |_| OverlapProbe {
            step: 0,
            early,
            buf: None,
        })
        .expect("run succeeds");
        res.superstep_time(1)
    }

    #[test]
    fn early_commitment_overlaps_communication() {
        let early = overlap_run(true);
        let late = overlap_run(false);
        // 4 MiB at ~118 MB/s is ~35 ms; early commitment hides it inside
        // the 100 ms of compute, late commitment pays it after.
        assert!(
            late > early + 0.02,
            "late {late} should exceed early {early} by the transfer time"
        );
    }

    /// Abort propagation.
    #[derive(Debug)]
    struct Aborter;
    impl BspProgram for Aborter {
        fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
            if ctx.pid() == 2 {
                ctx.abort("deliberate");
            }
            StepOutcome::Halt
        }
    }

    #[test]
    fn abort_surfaces_as_error() {
        let cfg = config(4);
        let err = run_spmd(&cfg, |_| Aborter).expect_err("must abort");
        assert_eq!(
            err,
            BspError::Abort {
                pid: 2,
                superstep: 0,
                msg: "deliberate".into()
            }
        );
    }

    /// Mixed halt detection.
    #[derive(Debug)]
    struct HalfHalt;
    impl BspProgram for HalfHalt {
        fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
            if ctx.pid() == 0 {
                StepOutcome::Halt
            } else {
                StepOutcome::Continue
            }
        }
    }

    #[test]
    fn mixed_halt_is_an_error() {
        let cfg = config(3);
        let err = run_spmd(&cfg, |_| HalfHalt).expect_err("must fail");
        assert_eq!(err, BspError::MixedHalt { superstep: 0 });
    }

    /// Infinite program trips the guard.
    #[derive(Debug)]
    struct Forever;
    impl BspProgram for Forever {
        fn superstep(&mut self, _ctx: &mut BspCtx) -> StepOutcome {
            StepOutcome::Continue
        }
    }

    #[test]
    fn superstep_limit_guards_runaways() {
        let mut cfg = config(2);
        cfg.max_supersteps = 10;
        let err = run_spmd(&cfg, |_| Forever).expect_err("must trip");
        assert_eq!(err, BspError::SuperstepLimit);
    }

    #[test]
    fn single_process_runs_without_barrier() {
        let cfg = BspConfig::new(
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 1),
            xeon_core(),
            9,
        );
        struct One {
            done: bool,
        }
        impl BspProgram for One {
            fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
                ctx.elapse(1e-3);
                self.done = true;
                StepOutcome::Halt
            }
        }
        let res = run_spmd(&cfg, |_| One { done: false }).expect("runs");
        assert!(res.programs[0].done);
        assert!(res.total_time >= 1e-3 * 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let t1 = overlap_run(true);
        let t2 = overlap_run(true);
        assert_eq!(t1, t2);
    }

    /// A platform where the sender-side message overhead of the
    /// cross-socket (same-node) link dominates every other cost, while
    /// same-socket signalling stays cheap. Noiseless, so every timing is
    /// an exact composition of these constants.
    fn send_tail_params() -> PlatformParams {
        use hpm_simnet::params::LinkCost;
        use hpm_stats::rng::JitterModel;
        let link = |o_send: f64, latency: f64| LinkCost {
            o_send,
            o_recv: 1e-8,
            latency,
            inv_bandwidth: 0.0,
        };
        PlatformParams {
            name: "send-tail".into(),
            call_overhead: 1e-8,
            same_socket: link(1e-8, 1e-9),
            same_node: link(1e-3, 2e-9),
            remote: link(1e-8, 3e-9),
            nic_gap: 0.0,
            ack_factor: 0.0,
            unexpected_penalty: 0.0,
            jitter: JitterModel::NONE,
        }
        .validated()
    }

    /// Process 1 computes, then commits one 1-byte hp-put to process 4
    /// right before the sync; everyone else enters the sync immediately.
    struct LateHpPut {
        step: usize,
        buf: Option<RegHandle>,
    }

    impl BspProgram for LateHpPut {
        fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
            match self.step {
                0 => {
                    let h = ctx.alloc(1);
                    ctx.push_reg(h);
                    self.buf = Some(h);
                    self.step = 1;
                    StepOutcome::Continue
                }
                1 => {
                    if ctx.pid() == 1 {
                        ctx.elapse(0.05);
                        let h = self.buf.expect("allocated");
                        ctx.hpput(4, h, 0, &[7]);
                    }
                    self.step = 2;
                    StepOutcome::Continue
                }
                _ => StepOutcome::Halt,
            }
        }
    }

    /// Five processes packed on one node: ranks 0–3 share socket 0, rank
    /// 4 sits on socket 1, so the 1→4 hp-put crosses the expensive
    /// cross-socket link while the rooted sync exchanges only cheap
    /// same-socket signals with rank 1.
    fn late_put_run(sync: SyncPattern) -> BspRunResult<LateHpPut> {
        let mut cfg = BspConfig::new(
            send_tail_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::Block, 5),
            xeon_core(),
            7,
        );
        cfg.sync = sync;
        run_spmd(&cfg, |_| LateHpPut { step: 0, buf: None }).expect("run succeeds")
    }

    /// Regression (the PR 3 headline bugfix): a process may not complete
    /// the sync before its own issued transfers' sender-side cost has
    /// elapsed. Pre-fix, `completion` ignored `send_done` entirely, so
    /// process 1 here left the rooted sync (whose signals never route
    /// through the put's receiver) while the hp-put's cross-socket
    /// `o_send` tail was still occupying its CPU.
    #[test]
    fn sync_waits_for_sender_side_tails() {
        let res = late_put_run(SyncPattern::Linear { root: 0 });
        let tr = &res.supersteps[1];
        let o_send_tail = 1e-3;
        // The late-issued hp-put's o_send tail extends past compute end …
        assert!(
            tr.send_complete[1] > tr.compute_end[1] + 0.5 * o_send_tail,
            "send tail {} vs compute end {}",
            tr.send_complete[1],
            tr.compute_end[1]
        );
        // … and past both other completion drivers (barrier exit and
        // inbound data), so only the sender-side accounting can cover it.
        assert!(
            tr.send_complete[1] > tr.sync_exit[1].max(tr.recv_complete[1]) + 0.25 * o_send_tail,
            "scenario must make the send tail the binding term: send {} sync {} recv {}",
            tr.send_complete[1],
            tr.sync_exit[1],
            tr.recv_complete[1]
        );
        // The teeth: completion must wait for the tail. The pre-fix
        // runtime computed completion = max(sync exit, inbound) and fails
        // here by ~o_send.
        assert!(
            tr.completion[1] >= tr.send_complete[1],
            "sync must wait for the sender-side tail: completion {} < send {}",
            tr.completion[1],
            tr.send_complete[1]
        );
    }

    /// The completion invariant over every sync shape, process and
    /// superstep: completion never precedes a process' own send tails,
    /// its inbound data, its barrier exit, or its compute end.
    #[test]
    fn completion_covers_send_and_recv_tails_for_all_sync_shapes() {
        for sync in [
            SyncPattern::Dissemination,
            SyncPattern::Linear { root: 0 },
            SyncPattern::Linear { root: 2 },
            SyncPattern::BinaryTree,
        ] {
            let res = late_put_run(sync);
            assert_eq!(res.superstep_count(), 3);
            for (k, tr) in res.supersteps.iter().enumerate() {
                for i in 0..tr.completion.len() {
                    assert!(
                        tr.completion[i] >= tr.send_complete[i],
                        "{sync:?} step {k} pid {i}: completion {} < send tail {}",
                        tr.completion[i],
                        tr.send_complete[i]
                    );
                    assert!(tr.completion[i] >= tr.recv_complete[i]);
                    assert!(tr.completion[i] >= tr.sync_exit[i]);
                    assert!(tr.completion[i] >= tr.compute_end[i]);
                }
            }
        }
    }

    /// A fault model with a benign drop probability (no crashes, retry
    /// budget far above the loss threshold) completes the run, still
    /// delivers every put, and can only ever push completion later than
    /// the fault-free run (retransmission delay is additive).
    #[test]
    fn faulty_sync_with_benign_drops_still_delivers() {
        use hpm_stats::fault::DropProb;
        let healthy = run_spmd(&config(8), |_| RotatePut {
            step: 0,
            buf: None,
            seen: Vec::new(),
        })
        .expect("healthy run succeeds");
        let mut cfg = config(8);
        cfg.fault = FaultModel {
            drop: DropProb::uniform(0.05),
            ..FaultModel::NONE
        };
        let res = run_spmd(&cfg, |_| RotatePut {
            step: 0,
            buf: None,
            seen: Vec::new(),
        })
        .expect("faulty run degrades gracefully");
        for (pid, prog) in res.programs.iter().enumerate() {
            let left = ((pid + 8) - 1) % 8;
            assert_eq!(prog.seen, vec![left as u8], "pid {pid}");
        }
        assert!(
            res.total_time >= healthy.total_time,
            "drops may only delay completion: faulty {} vs healthy {}",
            res.total_time,
            healthy.total_time
        );
    }

    /// Crashed processes surface as a structured [`BspError::SyncFailed`]
    /// carrying the superstep and the failed/survivor partition — not as
    /// a hang or a silent wrong answer.
    #[test]
    fn early_crash_fails_sync_with_survivor_set() {
        let mut cfg = config(8);
        cfg.fault = FaultModel {
            crash_count: 2,
            crash_window: 1e-9,
            ..FaultModel::NONE
        };
        let err = run_spmd(&cfg, |_| RotatePut {
            step: 0,
            buf: None,
            seen: Vec::new(),
        })
        .expect_err("crashed ranks must fail the sync");
        match err {
            BspError::SyncFailed {
                superstep,
                failed,
                survivors,
            } => {
                assert_eq!(superstep, 0, "the crash window opens at time zero");
                assert!(!failed.is_empty(), "crashed ranks must be reported");
                let mut all: Vec<usize> = failed.iter().chain(&survivors).copied().collect();
                all.sort_unstable();
                assert_eq!(all, (0..8).collect::<Vec<_>>(), "partition of ranks");
            }
            other => panic!("expected SyncFailed, got {other:?}"),
        }
    }

    /// A configuration that fails fast on its first lossy sync completes
    /// under `ShrinkAndContinue`: each failed sync evicts the processes
    /// that gave up, the survivors renumber and resume, and the shrink
    /// trail lands on the result. (Transient losses — a retry-less drop
    /// model — rather than crashes, so later syncs over the survivors
    /// can succeed and the run can finish.)
    #[test]
    fn shrink_and_continue_survives_what_failfast_aborts() {
        use hpm_stats::fault::DropProb;
        let mut cfg = config(8);
        cfg.seed = 0;
        cfg.fault = FaultModel {
            drop: DropProb::uniform(0.02),
            max_retries: 0,
            timeout: 2e-5,
            ..FaultModel::NONE
        };
        let make = |_| RotatePut {
            step: 0,
            buf: None,
            seen: Vec::new(),
        };
        assert!(matches!(
            run_spmd(&cfg, make).expect_err("fail-fast aborts"),
            BspError::SyncFailed { .. }
        ));
        cfg.recovery = RecoveryPolicy::ShrinkAndContinue;
        let res = run_spmd(&cfg, make).expect("survivors complete the run");
        assert!(!res.recoveries.is_empty(), "shrinks must be recorded");
        let mut nprocs = 8;
        for ev in &res.recoveries {
            assert!(!ev.failed.is_empty() && !ev.survivors.is_empty());
            assert_eq!(ev.failed.len() + ev.survivors.len(), nprocs);
            assert_eq!(ev.nprocs_after, ev.survivors.len());
            assert!(ev.detection_time > 0.0, "detection pays the timeout");
            assert!(
                ev.nprocs_after == 1 || ev.consensus_cost > 0.0,
                "agreement among >1 survivors costs time"
            );
            nprocs = ev.nprocs_after;
        }
        assert_eq!(res.programs.len(), nprocs, "result spans the survivors");
        assert!(res.total_time > res.recoveries[0].detection_time);
    }

    /// Regression: after a shrink the background transfers must resolve
    /// on the survivors' placement, like the sync does. Round-robin maps
    /// rank → node by `r mod nodes_used`, so 16 ranks alternate between
    /// two nodes while ≤ 8 renumbered survivors all sit on node 0. The
    /// rooted sync loses (nearly) every wire signal: the root and the odd
    /// ranks time out, the root's even node-mates survive. Their ring put
    /// in the next superstep crosses no wire; classified on the
    /// pre-shrink placement, every odd-distance hop paid the remote
    /// link's millisecond latency.
    #[test]
    fn exchange_after_shrink_resolves_on_the_survivor_placement() {
        use hpm_simnet::params::LinkCost;
        use hpm_stats::fault::DropProb;
        use hpm_stats::rng::JitterModel;
        const REMOTE_LATENCY: f64 = 1e-3;
        let link = |latency: f64| LinkCost {
            o_send: 1e-8,
            o_recv: 1e-8,
            latency,
            inv_bandwidth: 0.0,
        };
        let params = PlatformParams {
            name: "far-wire".into(),
            call_overhead: 1e-8,
            same_socket: link(1e-9),
            same_node: link(2e-9),
            remote: link(REMOTE_LATENCY),
            nic_gap: 0.0,
            ack_factor: 0.0,
            unexpected_penalty: 0.0,
            jitter: JitterModel::NONE,
        }
        .validated();
        let mut cfg = BspConfig::new(
            params,
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16),
            xeon_core(),
            3,
        );
        cfg.sync = SyncPattern::Linear { root: 0 };
        cfg.recovery = RecoveryPolicy::ShrinkAndContinue;
        cfg.fault = FaultModel {
            drop: DropProb {
                local: 0.0,
                remote: 0.999,
            },
            max_retries: 0,
            timeout: 2e-5,
            ..FaultModel::NONE
        };
        let res = run_spmd(&cfg, |_| RotatePut {
            step: 0,
            buf: None,
            seen: Vec::new(),
        })
        .expect("survivors complete the run");
        assert_eq!(res.recoveries.len(), 1, "one shrink, at the first sync");
        assert_eq!(res.recoveries[0].superstep, 0);
        assert_eq!(res.recoveries[0].survivors, vec![2, 4, 6, 8, 10, 12, 14]);
        // Superstep 1 is the survivors' ring put.
        let tr = &res.supersteps[1];
        assert_eq!((tr.ops, tr.compute_end.len()), (7, 7));
        for i in 0..7 {
            let inbound = tr.recv_complete[i] - tr.compute_end[i];
            assert!(
                inbound > 0.0 && inbound < 0.1 * REMOTE_LATENCY,
                "survivor {i} waited {inbound} s for an intra-node put"
            );
        }
    }

    /// With no faults configured, the recovery policy is inert: both
    /// policies produce bitwise identical runs and no recovery events.
    #[test]
    fn zero_fault_policies_are_bitwise_identical() {
        let make = |_| RotatePut {
            step: 0,
            buf: None,
            seen: Vec::new(),
        };
        let cfg = config(8);
        let fail_fast = run_spmd(&cfg, make).expect("clean run");
        let mut cfg2 = config(8);
        cfg2.recovery = RecoveryPolicy::ShrinkAndContinue;
        let shrink = run_spmd(&cfg2, make).expect("clean run");
        assert_eq!(fail_fast.total_time.to_bits(), shrink.total_time.to_bits());
        assert!(fail_fast.recoveries.is_empty() && shrink.recoveries.is_empty());
    }

    /// A bad fault model is rejected at entry with a structured error
    /// naming the knob, before any superstep runs.
    #[test]
    fn invalid_fault_model_is_rejected_at_entry() {
        let mut cfg = config(4);
        cfg.fault.backoff = 0.5;
        let err = run_spmd(&cfg, |_| RotatePut {
            step: 0,
            buf: None,
            seen: Vec::new(),
        })
        .expect_err("bad model must be rejected");
        match err {
            BspError::InvalidFaultModel(msg) => {
                assert!(msg.contains("backoff"), "names the knob: {msg}")
            }
            other => panic!("expected InvalidFaultModel, got {other:?}"),
        }
    }

    /// `BspError` is a real error type: `Display` carries the rank and
    /// superstep context, and it boxes into `dyn Error` so callers can
    /// `?` it.
    #[test]
    fn bsp_error_displays_and_boxes() {
        let err = BspError::SyncFailed {
            superstep: 3,
            failed: vec![1, 4],
            survivors: vec![0, 2, 3],
        };
        let msg = err.to_string();
        assert!(msg.contains("superstep 3"), "{msg}");
        assert!(msg.contains("2 of 5"), "{msg}");
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("failed ranks: [1, 4]"));
        assert_eq!(
            BspError::SuperstepLimit.to_string(),
            "superstep limit exceeded"
        );
        let abort = BspError::Abort {
            pid: 2,
            superstep: 0,
            msg: "deliberate".into(),
        };
        assert_eq!(
            abort.to_string(),
            "bsp_abort from pid 2 in superstep 0: deliberate"
        );
    }

    /// All sync shapes deliver the data and synchronize correctly: the
    /// ring-rotation program gives identical results under each.
    #[test]
    fn alternative_sync_patterns_deliver_puts() {
        for sync in [
            SyncPattern::Linear { root: 0 },
            SyncPattern::Linear { root: 3 },
            SyncPattern::BinaryTree,
        ] {
            let mut cfg = config(8);
            cfg.sync = sync;
            let res = run_spmd(&cfg, |_| RotatePut {
                step: 0,
                buf: None,
                seen: Vec::new(),
            })
            .expect("run succeeds");
            for (pid, prog) in res.programs.iter().enumerate() {
                let left = ((pid + 8) - 1) % 8;
                assert_eq!(prog.seen, vec![left as u8], "{sync:?} pid {pid}");
            }
        }
    }
}
