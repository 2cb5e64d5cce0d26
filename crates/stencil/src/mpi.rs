//! MPI-style stencil implementations (§8.3.2, Fig. 8.3, Table 8.2).
//!
//! The reference implementation the thesis compares against: no BSPlib
//! runtime, no global synchronization — each iteration computes the whole
//! block and then runs the 2-stage blocking border exchange (rows first,
//! then columns), so skew propagates only through neighbours. The `MPI+R`
//! variant posts its transfers right after computing the borders and
//! overlaps the interior computation with them (the restructured program
//! of Table 8.2).
//!
//! These run directly on the message engine rather than through the BSP
//! runtime: the entire point of the comparison is the cost difference
//! between the runtimes' synchronization/one-sided machinery (headers,
//! count-map barrier) and bare neighbour exchanges.

use crate::decomp::{Decomposition, Side};
use crate::StencilReport;
use hpm_kernels::rate::ProcessorModel;
use hpm_kernels::stencil::Stencil5;
use hpm_simnet::exchange::{
    resolve_exchange_batched, ExchangeMsg, ExchangeResult, ExchangeScratch,
};
use hpm_simnet::net::NetState;
use hpm_simnet::params::PlatformParams;
use hpm_stats::rng::derive_rng;
use hpm_topology::Placement;

/// Stream label of the border-exchange resolutions; `rep` enumerates
/// `(iteration, stage)` — two stages per blocking iteration, one pass
/// per MPI+R iteration.
const STENCIL_JITTER_LABEL: u64 = 0x4D50_4958; // b"MPIX"

/// Which MPI-style program to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiVariant {
    /// Compute everything, then the Fig. 8.3 two-stage blocking exchange.
    Blocking2Stage,
    /// Borders first, requests posted early, interior overlapped (MPI+R).
    EarlyRequests,
}

impl MpiVariant {
    /// Label used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            MpiVariant::Blocking2Stage => "MPI",
            MpiVariant::EarlyRequests => "MPI+R",
        }
    }
}

/// Runs the MPI-style stencil on `placement` with per-core `proc_model`.
///
/// `speedup` scales the compute rate (used by the hybrid variant to model
/// intra-node threading); 1.0 for plain runs.
#[allow(clippy::too_many_arguments)]
pub fn run_mpi_stencil(
    params: &PlatformParams,
    placement: &Placement,
    proc_model: &ProcessorModel,
    n: usize,
    iters: usize,
    variant: MpiVariant,
    speedup: f64,
    seed: u64,
) -> StencilReport {
    assert!(speedup > 0.0);
    let p = placement.nprocs();
    let decomp = Decomposition::new(n, p);
    // Compute-time jitter stays scalar (draws arrive per rank as the
    // iteration advances); the border exchanges below run on the batched
    // engine with per-(iteration, stage) streams.
    let mut rng = derive_rng(seed, 0x4D50);
    let mut jitter = params.jitter;
    let mut net = NetState::new(placement);
    // Buffers reused by every iteration: the messages an exchange posts,
    // its resolver's scratch and result, and MPI+R's interior finish times.
    let mut msgs = Vec::new();
    let mut ex_scratch = ExchangeScratch::default();
    let mut res = ExchangeResult::default();
    let mut interior_done = vec![0.0f64; p];
    let mut t = vec![0.0f64; p];
    let mut iter_times = Vec::with_capacity(iters);
    let per_cell: Vec<f64> = (0..p)
        .map(|r| proc_model.secs_per_element(&Stencil5, decomp.block(r).cells()) / speedup)
        .collect();

    for it in 0..iters {
        let start_max = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        match variant {
            MpiVariant::Blocking2Stage => {
                // Whole-block compute.
                for (r, tr) in t.iter_mut().enumerate() {
                    let cells = decomp.block(r).cells() as f64;
                    *tr += cells * per_cell[r] * jitter.draw(&mut rng);
                }
                // Stage 1: north/south sendrecv; stage 2: west/east.
                for (stage, sides) in [
                    (0, [Side::North, Side::South]),
                    (1, [Side::West, Side::East]),
                ] {
                    exchange_stage(
                        params,
                        placement,
                        &decomp,
                        &mut t,
                        &mut net,
                        (seed, 2 * it as u64 + stage),
                        (&mut msgs, &mut ex_scratch, &mut res),
                        sides,
                    );
                }
            }
            MpiVariant::EarlyRequests => {
                // Borders first, post everything, interior overlapped.
                msgs.clear();
                for r in 0..p {
                    let regions = decomp.regions(r);
                    let border = regions.pre_comm() as f64 * per_cell[r] * jitter.draw(&mut rng);
                    let t_border = t[r] + border;
                    for (_, peer, cells) in decomp.faces(r) {
                        msgs.push(ExchangeMsg {
                            src: r,
                            dst: peer,
                            bytes: (cells * 8) as u64,
                            issue: t_border,
                        });
                    }
                    let rest = (regions.inner_ring + regions.interior) as f64
                        * per_cell[r]
                        * jitter.draw(&mut rng);
                    interior_done[r] = t_border + rest;
                }
                resolve_exchange_batched(
                    params,
                    placement,
                    &msgs,
                    &mut net,
                    (seed, STENCIL_JITTER_LABEL, it as u64),
                    &mut ex_scratch,
                    &mut res,
                );
                // The closing waitall covers the send requests too — the
                // next iteration reuses the border buffers — so an
                // iteration ends no earlier than the process' own send
                // tails (`last_out`), its inbound borders, and its
                // interior compute.
                for (r, tr) in t.iter_mut().enumerate() {
                    *tr = res.done(r, interior_done[r]);
                }
            }
        }
        let end_max = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        iter_times.push(end_max - start_max.max(0.0));
    }
    StencilReport {
        total: t.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        iter_times,
        checksum: None,
        decomp,
    }
}

/// One blocking sendrecv stage: every process exchanges across its faces
/// on `sides` (N/S or W/E); it proceeds once its sends are issued and its
/// inbound borders have arrived.
#[allow(clippy::too_many_arguments)]
fn exchange_stage(
    params: &PlatformParams,
    placement: &Placement,
    decomp: &Decomposition,
    t: &mut [f64],
    net: &mut NetState,
    (seed, rep): (u64, u64),
    (msgs, ex_scratch, res): (
        &mut Vec<ExchangeMsg>,
        &mut ExchangeScratch,
        &mut ExchangeResult,
    ),
    sides: [Side; 2],
) {
    msgs.clear();
    for (r, &tr) in t.iter().enumerate() {
        for (_, peer, cells) in decomp.faces(r).filter(|f| sides.contains(&f.0)) {
            msgs.push(ExchangeMsg {
                src: r,
                dst: peer,
                bytes: (cells * 8) as u64,
                issue: tr,
            });
        }
    }
    let stream = (seed, STENCIL_JITTER_LABEL, rep);
    resolve_exchange_batched(params, placement, msgs, net, stream, ex_scratch, res);
    // Blocking semantics: a process leaves the stage when its inbound
    // borders are in and its own sends have left the CPU.
    for (r, tr) in t.iter_mut().enumerate() {
        *tr = res.done(r, *tr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_kernels::rate::xeon_core;
    use hpm_simnet::params::xeon_cluster_params;
    use hpm_topology::{cluster_8x2x4, PlacementPolicy};

    fn setup(p: usize) -> (PlatformParams, Placement, ProcessorModel) {
        (
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
            xeon_core(),
        )
    }

    fn run(p: usize, n: usize, variant: MpiVariant) -> StencilReport {
        let (params, placement, model) = setup(p);
        run_mpi_stencil(&params, &placement, &model, n, 4, variant, 1.0, 3)
    }

    #[test]
    fn iteration_times_positive() {
        let rep = run(16, 2048, MpiVariant::Blocking2Stage);
        assert_eq!(rep.iter_times.len(), 4);
        assert!(rep.iter_times.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn early_requests_not_slower_than_blocking() {
        let blocking = run(16, 2048, MpiVariant::Blocking2Stage).mean_iter();
        let early = run(16, 2048, MpiVariant::EarlyRequests).mean_iter();
        assert!(
            early <= blocking * 1.02,
            "MPI+R {early} must not lose to MPI {blocking}"
        );
    }

    #[test]
    fn strong_scaling_reduces_iteration_time() {
        let t4 = run(4, 4096, MpiVariant::Blocking2Stage).mean_iter();
        let t64 = run(64, 4096, MpiVariant::Blocking2Stage).mean_iter();
        assert!(t64 < t4, "64 procs {t64} vs 4 procs {t4}");
    }

    #[test]
    fn compute_dominates_at_large_local_blocks() {
        // With one process the iteration is pure compute.
        let (params, placement, model) = setup(1);
        let rep = run_mpi_stencil(
            &params,
            &placement,
            &model,
            1024,
            2,
            MpiVariant::Blocking2Stage,
            1.0,
            3,
        );
        let expect = 1024.0 * 1024.0 * model.secs_per_element(&Stencil5, 1024 * 1024);
        let got = rep.mean_iter();
        assert!(
            (got - expect).abs() / expect < 0.2,
            "single-proc iteration {got} vs compute {expect}"
        );
    }

    #[test]
    fn speedup_scales_compute() {
        let (params, placement, model) = setup(1);
        let base = run_mpi_stencil(
            &params,
            &placement,
            &model,
            1024,
            2,
            MpiVariant::Blocking2Stage,
            1.0,
            3,
        )
        .mean_iter();
        let fast = run_mpi_stencil(
            &params,
            &placement,
            &model,
            1024,
            2,
            MpiVariant::Blocking2Stage,
            4.0,
            3,
        )
        .mean_iter();
        assert!(
            (base / fast - 4.0).abs() < 0.5,
            "speedup 4 expected: {base} vs {fast}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(8, 1024, MpiVariant::EarlyRequests);
        let b = run(8, 1024, MpiVariant::EarlyRequests);
        assert_eq!(a.iter_times, b.iter_times);
    }
}
