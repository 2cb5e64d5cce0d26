//! The pinned surface: the only file of the harness that names `hpm::*`
//! items. Every entry point the benchmark drives has one thin adapter
//! here, so a PR that collapses or renames the library's API edits this
//! file's imports (or keeps a re-export alive) and nothing else in the
//! harness moves. `benchmark/README.md` lists the pinned names.
//!
//! Two tiers:
//!
//! * **End-to-end tier** — what the six workloads call in their timed
//!   loops and set-ups: the `measure*` family, the pattern builders,
//!   `predict_compiled_with`, `VerifyScratch`, `Analyzer`, the
//!   `exec::run_*` collectives, `run_bsp_stencil`, `bspinprod`, the two
//!   microbenchmark fits, and (as a child process) the `repro` CLI.
//! * **Traced tier** — lower-level calls used only by the per-layer
//!   probes of a traced run: `run_batch_compiled`, `run_once_batched`,
//!   `run_once_faulty_into`, `run_once_recovering_into`,
//!   `NetState::signal_round_trip`, `JitterBuf::fill_lanes`,
//!   `FaultPlan::realize_into`, `resolve_exchange_into`, `repair_plan`,
//!   `restrict_to_survivors`, `hpm_par`.

use hpm::analyze::Analyzer;
use hpm::barriers::patterns::{
    all_to_all, binary_tree, dissemination, dissemination_plan, kary_tree, linear, ring,
};
use hpm::barriers::{greedy_adaptive_barrier, sss_clusters};
use hpm::bsplib::inprod::bspinprod;
use hpm::collectives::exec::{
    exchange_chunk, run_allreduce, run_scan, run_total_exchange, seed_vector,
};
use hpm::collectives::pattern::{self as coll, catalog};
use hpm::collectives::predict_collective;
use hpm::kernels::rate::xeon_core;
use hpm::model::knowledge::VerifyScratch;
use hpm::model::pattern::CommPattern;
use hpm::model::predictor::predict_compiled_with;
use hpm::model::recovery::repair_plan;
use hpm::simnet::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
use hpm::simnet::batch::LaneScratch;
use hpm::simnet::exchange::{resolve_exchange_into, ExchangeMsg, ExchangeResult, ExchangeScratch};
use hpm::simnet::faults::FaultReport;
use hpm::simnet::microbench::{bench_platform, bench_platform_classes, MicrobenchConfig};
use hpm::simnet::net::NetState;
use hpm::simnet::params::xeon_cluster_params;
use hpm::simnet::recovery::{RecoveryReport, RecoveryScratch};
use hpm::stats::fault::{DropProb, FaultPlan};
use hpm::stats::rng::JitterBuf;
use hpm::stencil::field::distributed_reference;
use hpm::stencil::{run_bsp_stencil, CommitDiscipline, Decomposition};
use hpm::topology::{
    cluster_128x2x4, cluster_32x2x4, cluster_512x2x4, cluster_8x2x4, PlacementPolicy,
};

pub use hpm::bsplib::runtime::BspConfig;
pub use hpm::model::knowledge::KnowledgeGoal as Goal;
pub use hpm::model::plan::CompiledPattern as Plan;
pub use hpm::model::predictor::{CommCosts as DenseCosts, PayloadSchedule as Payload};
pub use hpm::simnet::microbench::{ClassCosts, ClassProfile};
pub use hpm::simnet::params::PlatformParams;
pub use hpm::stats::fault::FaultModel;
pub use hpm::topology::Placement;

pub const ALL_TO_ALL: Goal = Goal::AllToAll;
pub const NO_FAULTS: FaultModel = FaultModel::NONE;

pub fn no_payload() -> Payload {
    Payload::none()
}

/// `CompiledPattern::total_signals`.
pub fn plan_signals(plan: &Plan) -> usize {
    plan.total_signals()
}

/// `CompiledPattern::jitter_draws`.
pub fn plan_draws(plan: &Plan) -> usize {
    plan.jitter_draws()
}

/// Pairs measured per link class by the sampled microbenchmark — the
/// `scale` experiment's setting.
const CLASS_PAIR_SAMPLE: usize = 16;

/// The simulated machine a workload runs on: the Xeon cluster preset
/// that hosts `p` ranks round-robin (8×2×4 up to 64, then 32×, 128×,
/// 512×2×4 — the `scale` experiment's shapes).
pub struct Platform {
    params: PlatformParams,
    placement: Placement,
}

impl Platform {
    pub fn new(p: usize) -> Platform {
        let shape = match p {
            0..=64 => cluster_8x2x4(),
            65..=256 => cluster_32x2x4(),
            257..=1024 => cluster_128x2x4(),
            _ => cluster_512x2x4(),
        };
        Platform {
            params: xeon_cluster_params(),
            placement: Placement::new(shape, PlacementPolicy::RoundRobin, p),
        }
    }

    /// The same machine with jitter off (σ = 0): every multiplier reads
    /// exactly 1.0, no table is filled or read.
    pub fn noiseless(&self) -> Platform {
        Platform {
            params: self.params.noiseless(),
            placement: self.placement.clone(),
        }
    }

    pub fn p(&self) -> usize {
        self.placement.nprocs()
    }

    pub fn nodes(&self) -> usize {
        self.placement.shape().nodes()
    }

    fn sim(&self) -> BarrierSim<'_> {
        BarrierSim::new(&self.params, &self.placement)
    }

    // ------------------------------------------------ end-to-end tier

    /// `BarrierSim::measure_compiled`: per-repetition worst-case times.
    pub fn measure(&self, plan: &Plan, payload: &Payload, reps: usize, seed: u64) -> Vec<f64> {
        self.sim()
            .measure_compiled(plan, payload, reps, seed)
            .samples
    }

    /// `BarrierSim::measure_faulty`, flattened to one row per repetition.
    pub fn measure_faulty(
        &self,
        plan: &Plan,
        fault: &FaultModel,
        reps: usize,
        seed: u64,
    ) -> Vec<FaultyRep> {
        self.sim()
            .measure_faulty(plan, &Payload::none(), fault, reps, seed)
            .iter()
            .map(FaultyRep::of)
            .collect()
    }

    /// `BarrierSim::measure_recovering` towards the all-to-all goal.
    pub fn measure_recovering(
        &self,
        plan: &Plan,
        fault: &FaultModel,
        reps: usize,
        seed: u64,
    ) -> Vec<RecoveringRep> {
        self.sim()
            .measure_recovering(plan, &Payload::none(), Goal::AllToAll, fault, reps, seed)
            .iter()
            .map(RecoveringRep::of)
            .collect()
    }

    /// Exhaustive §5.6.3 microbenchmark (`bench_platform`, every ordered
    /// pair, `repro`'s standard dimensions) → dense cost matrices.
    pub fn fit_dense(&self, seed: u64) -> DenseCosts {
        let cfg = MicrobenchConfig {
            reps: 7,
            max_requests: 4,
            size_exponents: (0, 14),
            pair_sample: None,
        };
        bench_platform(&self.params, &self.placement, &cfg, seed).costs
    }

    /// Sampled microbenchmark (`bench_platform_classes`, 16 pairs per
    /// link class) → the O(classes) profile of the scale path.
    pub fn fit_classes(&self, seed: u64) -> ClassProfile {
        let cfg = MicrobenchConfig::quick().with_pair_sample(CLASS_PAIR_SAMPLE);
        bench_platform_classes(&self.params, &self.placement, &cfg, seed)
    }

    pub fn class_costs(&self, profile: ClassProfile) -> ClassCosts<'_> {
        ClassCosts::new(&self.placement, profile)
    }

    /// A BSPlib runtime configuration on this machine (Xeon core model).
    pub fn bsp_config(&self, seed: u64) -> BspConfig {
        BspConfig::new(
            self.params.clone(),
            self.placement.clone(),
            xeon_core(),
            seed,
        )
    }

    // ---------------------------------------------------- traced tier

    /// `BarrierSim::run_batch_compiled`: `lanes` repetitions in SoA
    /// lanes; returns the sum of the lane totals (a sink for the
    /// optimiser, and a cheap equality witness).
    pub fn lane_batch(
        &self,
        plan: &Plan,
        seed: u64,
        first_rep: u64,
        lanes: usize,
        scratch: &mut LaneScratch,
    ) -> f64 {
        self.sim()
            .run_batch_compiled(plan, &Payload::none(), seed, first_rep, lanes, scratch)
            .iter()
            .sum()
    }

    /// `JitterBuf::fill_lanes` alone, with the draw count and stream
    /// naming `run_batch_compiled` uses for `plan`.
    pub fn fill_lanes(
        &self,
        plan: &Plan,
        seed: u64,
        first_rep: u64,
        lanes: usize,
        buf: &mut JitterBuf,
    ) {
        buf.fill_lanes(
            self.params.jitter.sigma,
            seed,
            BARRIER_JITTER_LABEL,
            first_rep,
            lanes,
            plan.jitter_draws(),
        );
    }

    /// `BarrierSim::run_once_batched`: one scalar repetition from zero
    /// entry times; returns the worst-case exit.
    pub fn scalar_rep(&self, plan: &Plan, seed: u64, rep: u64, s: &mut ScalarScratch) -> f64 {
        s.net.reset();
        self.sim().run_once_batched(
            plan,
            &Payload::none(),
            &s.zeros,
            &mut s.net,
            seed,
            BARRIER_JITTER_LABEL,
            rep,
            &mut s.sim,
        );
        s.sim
            .exits()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// `BarrierSim::run_once_faulty_into`: one faulty repetition.
    pub fn faulty_rep(
        &self,
        plan: &Plan,
        fault: &FaultModel,
        seed: u64,
        rep: u64,
        s: &mut ScalarScratch,
    ) -> FaultyRep {
        s.net.reset();
        self.sim().run_once_faulty_into(
            plan,
            &Payload::none(),
            fault,
            &s.zeros,
            &mut s.net,
            seed,
            BARRIER_JITTER_LABEL,
            rep,
            &mut s.sim,
            &mut s.recovery.fault,
            &mut s.fault_report,
        );
        FaultyRep::of(&s.fault_report)
    }

    /// `BarrierSim::run_once_recovering_into`: one recovering repetition.
    pub fn recovering_rep(
        &self,
        plan: &Plan,
        fault: &FaultModel,
        seed: u64,
        rep: u64,
        s: &mut ScalarScratch,
    ) -> RecoveringRep {
        s.net.reset();
        self.sim().run_once_recovering_into(
            plan,
            &Payload::none(),
            Goal::AllToAll,
            fault,
            &s.zeros,
            &mut s.net,
            seed,
            BARRIER_JITTER_LABEL,
            rep,
            &mut s.sim,
            &mut s.recovery,
            &mut s.recovery_report,
        );
        RecoveringRep::of(&s.recovery_report)
    }

    /// `NetState::signal_round_trip` alone: one noiseless signal from
    /// every rank to its `+stride` neighbour; returns the last ack.
    pub fn signal_ring(&self, stride: usize, s: &mut ScalarScratch) -> f64 {
        let p = self.p();
        s.net.reset();
        let mut ones = JitterBuf::new();
        let mut t = 0.0;
        for i in 0..p {
            let (ack, _) = s.net.signal_round_trip(
                &self.params,
                &self.placement,
                &mut ones,
                i,
                (i + stride) % p,
                t,
                0,
                0.0,
            );
            t = ack;
        }
        t
    }

    /// `resolve_exchange_into`: a `+stride` ring of `bytes`-sized
    /// one-sided transfers, noiseless; returns the latest absorption.
    pub fn exchange_ring(&self, stride: usize, bytes: u64, s: &mut ExchangeBufs) -> f64 {
        let p = self.p();
        s.msgs.clear();
        s.msgs.extend((0..p).map(|i| ExchangeMsg {
            src: i,
            dst: (i + stride) % p,
            bytes,
            issue: 0.0,
        }));
        s.net.reset();
        let mut ones = JitterBuf::new();
        resolve_exchange_into(
            &self.params,
            &self.placement,
            &s.msgs,
            &mut s.net,
            &mut ones,
            &mut s.scratch,
            &mut s.out,
        );
        s.out.last_in.iter().copied().fold(0.0, f64::max)
    }

    /// `Placement::link` over `n` pseudo-random pairs; returns the sum of
    /// class indices so the lookups cannot be optimised away.
    pub fn classify_pairs(&self, n: usize) -> usize {
        let p = self.p();
        let mut acc = 0usize;
        let mut x = 0x9E37_79B9usize;
        for _ in 0..n {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let (a, b) = ((x >> 33) % p, (x >> 13) % p);
            acc += self.placement.link(a, b).index();
        }
        acc
    }

    /// `Placement::storage_bytes`.
    pub fn placement_bytes(&self) -> usize {
        self.placement.storage_bytes()
    }
}

/// One faulty repetition, flattened from `FaultReport`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyRep {
    pub total: f64,
    pub retries: u64,
    pub lost_signals: u64,
    pub all_completed: bool,
}

impl FaultyRep {
    fn of(r: &FaultReport) -> FaultyRep {
        FaultyRep {
            total: r.total(),
            retries: r.retries,
            lost_signals: r.lost_signals,
            all_completed: r.all_completed(),
        }
    }
}

/// One recovering repetition, flattened from `RecoveryReport`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveringRep {
    pub total: f64,
    pub recovered: bool,
    pub replanned: bool,
}

impl RecoveringRep {
    fn of(r: &RecoveryReport) -> RecoveringRep {
        RecoveringRep {
            total: r.total(),
            recovered: r.recovered,
            replanned: r.replanned,
        }
    }
}

/// Scratch of the scalar executors (clean, faulty, recovering).
pub struct ScalarScratch {
    zeros: Vec<f64>,
    net: NetState,
    sim: SimScratch,
    recovery: RecoveryScratch,
    fault_report: FaultReport,
    recovery_report: RecoveryReport,
}

impl ScalarScratch {
    pub fn new(platform: &Platform) -> ScalarScratch {
        let p = platform.p();
        ScalarScratch {
            zeros: vec![0.0; p],
            net: NetState::new(&platform.placement),
            sim: SimScratch::new(&platform.placement),
            recovery: RecoveryScratch::new(),
            fault_report: FaultReport::new(p),
            recovery_report: RecoveryReport::new(p),
        }
    }
}

/// Buffers of [`Platform::exchange_ring`].
pub struct ExchangeBufs {
    msgs: Vec<ExchangeMsg>,
    net: NetState,
    scratch: ExchangeScratch,
    out: ExchangeResult,
}

impl ExchangeBufs {
    pub fn new(platform: &Platform) -> ExchangeBufs {
        ExchangeBufs {
            msgs: Vec::new(),
            net: NetState::new(&platform.placement),
            scratch: ExchangeScratch::default(),
            out: ExchangeResult::default(),
        }
    }
}

pub fn lane_scratch() -> LaneScratch {
    LaneScratch::new()
}

pub fn jitter_buf() -> JitterBuf {
    JitterBuf::new()
}

/// Lanes per `measure` batch (`MEASURE_LANES`).
pub const LANES: usize = hpm::simnet::barrier::MEASURE_LANES;

// ------------------------------------------------------------ builders

/// A pattern with the goal it must attain and the payload it carries.
pub struct Built {
    pub name: String,
    pub plan: Plan,
    pub goal: Goal,
    pub payload: Payload,
}

fn built_barrier<P: CommPattern>(pattern: &P) -> Built {
    Built {
        name: pattern.name().to_string(),
        plan: pattern.plan(),
        goal: Goal::AllToAll,
        payload: Payload::none(),
    }
}

/// The four barriers of the Ch. 5 sweeps, built dense and compiled:
/// dissemination, binary tree, linear, all-to-all.
pub fn core_barriers(p: usize) -> Vec<Built> {
    vec![
        built_barrier(&dissemination(p)),
        built_barrier(&binary_tree(p)),
        built_barrier(&linear(p, 0)),
        built_barrier(&all_to_all(p)),
    ]
}

/// The six registry barriers (`repro analyze`'s set), built and compiled.
pub fn registry_barriers(p: usize) -> Vec<Built> {
    let mut out = core_barriers(p);
    out.push(built_barrier(&kary_tree(p, 4)));
    out.push(built_barrier(&ring(p)));
    out
}

/// The eight `catalog` collectives, built and compiled.
pub fn collectives(p: usize, root: usize, bytes: u64) -> Vec<Built> {
    catalog(p, root, bytes)
        .iter()
        .map(|c| Built {
            name: c.name().to_string(),
            plan: c.plan(),
            goal: c.goal(),
            payload: c.payload().clone(),
        })
        .collect()
}

/// `dissemination_plan`: the sparse-authored scale barrier.
pub fn sparse_dissemination(p: usize) -> Plan {
    dissemination_plan(p)
}

// ------------------------------------------------------ modelling side

/// `predict_compiled_with` on dense costs; the predicted total.
pub fn predict_dense(plan: &Plan, costs: &DenseCosts, payload: &Payload) -> f64 {
    predict_compiled_with(plan, costs, payload).total
}

/// `predict_compiled_with` on per-class costs; the predicted total.
pub fn predict_classes(plan: &Plan, costs: &ClassCosts<'_>, payload: &Payload) -> f64 {
    predict_compiled_with(plan, costs, payload).total
}

/// `VerifyScratch::verify` + goal check, over reused scratch.
#[derive(Default)]
pub struct Verifier(VerifyScratch);

impl Verifier {
    pub fn attains(&mut self, plan: &Plan, goal: Goal) -> bool {
        self.0.verify(plan).satisfies(goal)
    }
}

/// `Analyzer::analyze_with_goal`; the number of diagnostics.
#[derive(Default)]
pub struct PlanAnalyzer(Analyzer);

impl PlanAnalyzer {
    pub fn diagnostics(&mut self, plan: &Plan, goal: Goal) -> usize {
        self.0.analyze_with_goal(plan, goal).len()
    }
}

/// `greedy_adaptive_barrier`: compiled plan and its predicted total.
pub fn greedy_barrier(costs: &DenseCosts) -> (Plan, f64) {
    let report = greedy_adaptive_barrier(costs);
    (report.pattern.plan(), report.predicted_total)
}

/// `sss_clusters` on the latency matrix; the number of groups.
pub fn sss_groups(costs: &DenseCosts) -> usize {
    sss_clusters(&costs.l).len()
}

/// `repair_plan` towards the all-to-all goal.
pub fn repair(p: usize, crashed: &[usize]) -> Option<Plan> {
    repair_plan(p, Goal::AllToAll, crashed)
}

/// `CompiledPattern::restrict_to_survivors`.
pub fn restrict(plan: &Plan, crashed: &[usize]) -> Plan {
    plan.restrict_to_survivors(crashed)
}

/// `FaultPlan::realize_into` over a reused plan; the crashed-rank count.
pub struct FaultRealizer(FaultPlan);

impl Default for FaultRealizer {
    fn default() -> FaultRealizer {
        FaultRealizer(FaultPlan::neutral(0, 0))
    }
}

impl FaultRealizer {
    pub fn realize(
        &mut self,
        fault: &FaultModel,
        p: usize,
        nodes: usize,
        seed: u64,
        rep: u64,
    ) -> usize {
        self.0.realize_into(fault, p, nodes, seed, rep);
        self.0.crashed_ranks_iter().count()
    }
}

/// The benchmark's fault model: 1 % drops on every link class, 10 %
/// stragglers (scale 1e-4 s, Pareto α = 1.5), one crash in the first
/// 1e-4 s, 2e-4 s timeout.
pub fn fault_model() -> FaultModel {
    FaultModel {
        crash_count: 1,
        crash_window: 1e-4,
        drop: DropProb::uniform(0.01),
        straggler_prob: 0.1,
        straggler_scale: 1e-4,
        straggler_alpha: 1.5,
        timeout: 2e-4,
        ..FaultModel::NONE
    }
}

// --------------------------------------------------------- BSP programs

/// One BSP application run: supersteps executed, simulated time, payload
/// values checked against the exact expected result.
pub struct AppRun {
    pub supersteps: usize,
    pub sim_time: f64,
    pub exact: bool,
}

/// `exec::run_allreduce`: every rank must hold Σ_r `seed_vector(r)`.
pub fn allreduce(cfg: &BspConfig, n: usize) -> AppRun {
    let p = cfg.placement.nprocs();
    let out = run_allreduce(cfg, n);
    let mut want = vec![0.0; n];
    for r in 0..p {
        for (w, v) in want.iter_mut().zip(seed_vector(r, n)) {
            *w += v;
        }
    }
    AppRun {
        supersteps: out.supersteps,
        sim_time: out.total_time,
        exact: out.values.len() == p && out.values.iter().all(|v| *v == want),
    }
}

/// `exec::run_scan`: rank `i` must hold Σ_{r ≤ i} `seed_vector(r)`.
pub fn scan(cfg: &BspConfig, n: usize) -> AppRun {
    let p = cfg.placement.nprocs();
    let out = run_scan(cfg, n);
    let mut prefix = vec![0.0; n];
    let mut exact = out.values.len() == p;
    for (r, got) in out.values.iter().enumerate() {
        for (w, v) in prefix.iter_mut().zip(seed_vector(r, n)) {
            *w += v;
        }
        exact &= *got == prefix;
    }
    AppRun {
        supersteps: out.supersteps,
        sim_time: out.total_time,
        exact,
    }
}

/// `exec::run_total_exchange`: rank `j` must hold chunk `i → j` at
/// offset `i·n` for every `i`.
pub fn total_exchange(cfg: &BspConfig, n: usize) -> AppRun {
    let p = cfg.placement.nprocs();
    let out = run_total_exchange(cfg, n);
    let exact = out.values.len() == p
        && out.values.iter().enumerate().all(|(j, got)| {
            got.len() == p * n
                && (0..p).all(|i| got[i * n..(i + 1) * n] == exchange_chunk(i, j, n)[..])
        });
    AppRun {
        supersteps: out.supersteps,
        sim_time: out.total_time,
        exact,
    }
}

/// `run_bsp_stencil` (early unbuffered commits, real field data): the
/// checksum must equal `want_checksum` (see [`stencil_reference`]).
pub fn stencil(cfg: &BspConfig, n: usize, iters: usize, want_checksum: f64) -> AppRun {
    let rep = run_bsp_stencil(cfg, n, iters, CommitDiscipline::EarlyUnbuffered, true);
    let got = rep.checksum.unwrap_or(f64::NAN);
    AppRun {
        // Registration and priming supersteps plus one per iteration.
        supersteps: iters + 2,
        sim_time: rep.total,
        exact: (got - want_checksum).abs() <= 1e-9 * want_checksum.abs(),
    }
}

/// The stencil checksum by `distributed_reference` (in-process exchange
/// by direct copies) with `run_bsp_stencil`'s initial field.
pub fn stencil_reference(p: usize, n: usize, iters: usize) -> f64 {
    let init = |x: usize, y: usize| ((x * 31 + y * 17) % 101) as f64 / 101.0;
    distributed_reference(&Decomposition::new(n, p), iters, init)
        .iter()
        .map(|f| f.owned_sum())
        .sum()
}

/// `bspinprod` of all-ones vectors: the result must be `n_total`.
pub fn inprod(cfg: &BspConfig, n_total: u64, reps: usize) -> AppRun {
    let m = bspinprod(cfg, n_total, reps);
    AppRun {
        supersteps: 3 * reps,
        sim_time: m.seconds,
        exact: m.result == n_total as f64,
    }
}

/// `predict_collective` for the three collectives the BSP workload runs,
/// at `n` doubles per rank: `[allreduce, scan, total_exchange]`.
pub fn predict_bsp_collectives(
    p: usize,
    n_reduce: usize,
    n_exchange: usize,
    costs: &DenseCosts,
) -> [f64; 3] {
    [
        predict_collective(&coll::allreduce(p, 8 * n_reduce as u64), costs).total,
        predict_collective(&coll::scan(p, 8 * n_reduce as u64), costs).total,
        predict_collective(&coll::total_exchange(p, 8 * n_exchange as u64), costs).total,
    ]
}

// ------------------------------------------------------------- hpm-par

/// `hpm_par::with_threads`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    hpm::par::with_threads(Some(threads), f)
}

/// `hpm_par::set_threads`.
pub fn set_threads(threads: usize) {
    hpm::par::set_threads(Some(threads));
}

/// `hpm_par::par_map_indexed` over `n` trivial items; returns their sum.
pub fn par_fanout(n: usize) -> usize {
    hpm::par::par_map_indexed(n, |k| k).iter().sum()
}
