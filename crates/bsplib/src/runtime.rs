//! The BSPlib runtime: SPMD execution, background communication and the
//! payload-carrying synchronization barrier (§6.2–6.5).
//!
//! Each superstep runs in two phases. First every process executes its
//! program code against a [`BspCtx`], which advances its virtual clock and
//! commits puts with their issue times. Then the runtime resolves the
//! superstep against the simulated network:
//!
//! 1. every put's out-of-band header and payload transfer in the
//!    background from its issue time;
//! 2. all processes enter the dissemination barrier, which carries the
//!    message-count map as payload (§6.4–6.5) so each knows how many
//!    inbound transfers remain;
//! 3. a process completes the sync when the barrier is done, all its
//!    inbound data landed *and* its own outbound transfers have released
//!    the sending CPU — communication committed early that finished
//!    during computation costs nothing extra, which is exactly the overlap
//!    the Fig. 1.2 processing model exposes; a transfer committed right
//!    before the sync still charges its sender-side `o_send` tail.
//!
//! Steps 1 and 2 are resolved one after the other, each to completion,
//! over one shared network state: first every header and payload, then
//! the sync. They are not interleaved in event order, so a sync signal
//! can queue behind data that became ready after it. [`SuperstepNet`]
//! holds that network side — the shared state, the exchange and the
//! sync — and [`ExchangeResult::done`] is step 3's rule.
//!
//! Memory effects then apply in BSPlib order: puts land in `(pid, program
//! order)`, then registrations commit.
//!
//! The sync runs on the healthy machine, as the thesis models it: every
//! process completes every superstep. Fault injection belongs to the
//! barrier executors (`BarrierSim::measure_faulty` and
//! `BarrierSim::measure_recovering` in `hpm-simnet`).
//!
//! On the host, the runtime owns one operation log and one byte staging
//! buffer per superstep, shared by all processes: a put reserves a span of
//! the buffer and writes its payload there ([`BspCtx::put_with`]), the
//! memory phase copies the span into the target's registered buffer, and
//! the buffer is released before the next superstep's program code runs.
//! One staged copy per put, no allocation of its own; the log and the
//! message list are scratch reused across supersteps. None of this touches
//! virtual time: what a put charges is decided in [`BspCtx`] before any
//! byte moves.

use crate::ctx::BspCtx;
use crate::mem::ProcMem;
use crate::ops::{CommOp, StepOutcome, HEADER_BYTES};
use hpm_barriers::patterns::{binary_tree, dissemination, linear};
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::{predict_compiled_with, CostModel, PayloadSchedule};
use hpm_kernels::rate::ProcessorModel;
use hpm_simnet::barrier::{BarrierSim, SimScratch};
use hpm_simnet::exchange::{
    resolve_exchange_batched, ExchangeMsg, ExchangeResult, ExchangeScratch,
};
use hpm_simnet::net::NetState;
use hpm_simnet::params::PlatformParams;
use hpm_stats::rng::derive_rng;
use hpm_topology::Placement;

/// Stream label of the payload-carrying sync's jitter tables; `rep` is
/// the superstep index.
const SYNC_JITTER_LABEL: u64 = 0x5253_594E; // b"RSYN"

/// Stream label of the background-transfer resolution; `rep` is
/// `2·superstep`. The odd reps are unused: they keyed a get-reply pass
/// the runtime no longer has, and the even ones stay so no draw moves.
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
    /// The sync of `p` processes: its barrier plan and count-map payload
    /// schedule, or `None` below `p = 2`, where no barrier runs.
    /// Non-dissemination shapes carry one `4·p`-byte counter row per
    /// signal — an approximation of the aggregated map the exact §6.5
    /// schedule spells out for dissemination.
    pub fn plan(&self, p: usize) -> Option<(CompiledPattern, PayloadSchedule)> {
        if p < 2 {
            return None;
        }
        let pat = match *self {
            SyncPattern::Dissemination => dissemination(p),
            SyncPattern::Linear { root } => linear(p, root),
            SyncPattern::BinaryTree => binary_tree(p),
        };
        let payload = if *self == SyncPattern::Dissemination {
            PayloadSchedule::dissemination_count_map(p)
        } else {
            PayloadSchedule::uniform(pat.stages(), 4 * p as u64)
        };
        Some((pat, payload))
    }

    /// Predicted cost of the sync of `p` processes over `costs`: the
    /// [`SyncPattern::plan`]'s total, 0 below `p = 2`.
    pub fn predict<C: CostModel + ?Sized>(&self, p: usize, costs: &C) -> f64 {
        self.plan(p).map_or(0.0, |(plan, payload)| {
            predict_compiled_with(&plan, costs, &payload).total
        })
    }
}

/// The network side of a BSPlib superstep: one [`NetState`] shared by the
/// background transfers and the sync, the exchange's scratch and the
/// sync's plan with its executor scratch. Every simulated superstep —
/// [`run_spmd`]'s and the Fig. 8.18 ghost-width driver's — runs here.
/// Each call takes its jitter from the keyed stream `(seed, label, rep)`.
pub struct SuperstepNet<'a> {
    sim: BarrierSim<'a>,
    net: NetState,
    exchange: ExchangeScratch,
    sync: Option<(CompiledPattern, PayloadSchedule)>,
    sync_scratch: SimScratch,
}

impl<'a> SuperstepNet<'a> {
    /// A cold network for `placement`'s processes, syncing with `sync`.
    pub fn new(
        params: &'a PlatformParams,
        placement: &'a Placement,
        sync: SyncPattern,
    ) -> SuperstepNet<'a> {
        SuperstepNet {
            sim: BarrierSim::new(params, placement),
            net: NetState::new(placement),
            exchange: ExchangeScratch::default(),
            sync: sync.plan(placement.nprocs()),
            sync_scratch: SimScratch::new(placement),
        }
    }

    /// Resolves background transfers into `out`.
    pub fn exchange(
        &mut self,
        msgs: &[ExchangeMsg],
        stream: (u64, u64, u64),
        out: &mut ExchangeResult,
    ) {
        let (params, placement) = (self.sim.params, self.sim.placement);
        let (net, scratch) = (&mut self.net, &mut self.exchange);
        resolve_exchange_batched(params, placement, msgs, net, stream, scratch, out);
    }

    /// Runs the sync from the processes' entry times and returns their
    /// exits: the entries themselves when no barrier runs (`p < 2`).
    pub fn sync<'s>(
        &'s mut self,
        entry: &'s [f64],
        (seed, label, rep): (u64, u64, u64),
    ) -> &'s [f64] {
        let Some((plan, payload)) = &self.sync else {
            return entry;
        };
        let scratch = &mut self.sync_scratch;
        self.sim.run_once_batched(
            plan,
            payload,
            entry,
            &mut self.net,
            seed,
            label,
            rep,
            scratch,
        );
        scratch.exits()
    }
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
        }
    }
}

impl std::error::Error for BspError {}

/// Timing trace of one superstep (absolute virtual times).
#[derive(Debug, Clone)]
pub struct SuperstepTrace {
    /// When each process finished its program code (sync entry).
    pub compute_end: Vec<f64>,
    /// When each process' last *outbound* transfer (a put's header or
    /// payload) released its CPU; equals `compute_end` for processes that
    /// sourced nothing.
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
    /// Number of puts committed.
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
    /// Per-superstep traces.
    pub supersteps: Vec<SuperstepTrace>,
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
pub fn run_spmd<P: BspProgram>(
    cfg: &BspConfig,
    mut make: impl FnMut(usize) -> P,
) -> Result<BspRunResult<P>, BspError> {
    let placement = &cfg.placement;
    let p = placement.nprocs();
    let mut programs: Vec<P> = (0..p).map(&mut make).collect();
    let mut mems: Vec<ProcMem> = (0..p).map(|_| ProcMem::default()).collect();
    let mut clocks = vec![0.0f64; p];
    let mut rng = derive_rng(cfg.seed, 0xB5F);
    // The sync plan is built once and every superstep runs over reused
    // scratch. Background transfers and the sync draw from streams keyed
    // by the superstep; program compute jitter stays on the scalar path
    // through `rng` — the draws arrive one at a time as the program
    // advances its clock.
    let mut snet = SuperstepNet::new(&cfg.params, placement, cfg.sync);
    let mut exchanged = ExchangeResult::default();
    let mut supersteps = Vec::new();
    // Per-process operation logs, cleared and refilled every superstep,
    // and the superstep's one payload staging buffer (see `ops`): every
    // process' puts append to it during phase 1; phase 4 applies the
    // bytes and releases them.
    let mut logs: Vec<Vec<CommOp>> = vec![Vec::new(); p];
    let mut staging: Vec<u8> = Vec::new();
    // The resolution phase's message list, reused across supersteps.
    let mut msgs: Vec<ExchangeMsg> = Vec::new();

    for step in 0..cfg.max_supersteps {
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

        // Phase 2: resolve communication: each put's header, then its
        // payload.
        msgs.clear();
        let mut payload_bytes = 0u64;
        for (pid, ops) in logs.iter().enumerate() {
            for op in ops {
                let payload = op.data.len() as u64;
                payload_bytes += payload;
                for bytes in [HEADER_BYTES, payload] {
                    msgs.push(ExchangeMsg {
                        src: pid,
                        dst: op.dst,
                        bytes,
                        issue: op.issue,
                    });
                }
            }
        }
        let stream = (cfg.seed, EXCHANGE_JITTER_LABEL, 2 * step as u64);
        snet.exchange(&msgs, stream, &mut exchanged);

        // Phase 3: synchronize.
        let stream = (cfg.seed, SYNC_JITTER_LABEL, step as u64);
        let barrier_exit = snet.sync(&compute_end, stream).to_vec();
        // A process completes the sync when the barrier is done, all its
        // inbound data landed, AND its own outbound transfers' sender-side
        // cost has elapsed — a sender that issued an hp-put just before
        // the sync still owns its CPU for the `o_send` tail, exactly as
        // the MPI stencil's blocking stages account it. The barrier exit
        // is never earlier than the entry, so it stands in for
        // `compute_end` here.
        let send_complete: Vec<f64> = (0..p)
            .map(|i| compute_end[i].max(exchanged.last_out[i]))
            .collect();
        let recv_complete: Vec<f64> = (0..p)
            .map(|i| compute_end[i].max(exchanged.last_in[i]))
            .collect();
        let completion: Vec<f64> = (0..p).map(|i| exchanged.done(i, barrier_exit[i])).collect();

        // Phase 4: memory effects in BSPlib order: puts land in `(pid,
        // program order)`, then registrations commit.
        for op in logs.iter().flatten() {
            mems[op.dst].write(op.reg)[op.offset..op.offset + op.data.len()]
                .copy_from_slice(&staging[op.data.clone()]);
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

        if halts == p {
            let total_time = clocks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            return Ok(BspRunResult {
                programs,
                total_time,
                supersteps,
            });
        }
    }
    Err(BspError::SuperstepLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::RegHandle;
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

    /// `BspError` is a real error type: `Display` carries the rank and
    /// superstep context, and it boxes into `dyn Error` so callers can
    /// `?` it.
    #[test]
    fn bsp_error_displays_and_boxes() {
        let err = BspError::MixedHalt { superstep: 3 };
        let msg = err.to_string();
        assert!(msg.contains("superstep 3"), "{msg}");
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("bsp_end must be collective"));
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
