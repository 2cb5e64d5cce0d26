//! # hpm-simnet — simulated SMP-cluster substrate
//!
//! The thesis validates its models on real gigabit-ethernet clusters of
//! multi-socket multi-core nodes. This crate is the substitution for that
//! hardware (see DESIGN.md): a deterministic, seeded simulator of message
//! cost on such clusters, exposing exactly the behaviours the thesis'
//! models must capture —
//!
//! * hierarchical link classes (same-socket / same-node / remote) with
//!   separate CPU overheads, wire latencies and bandwidths;
//! * per-node NIC egress serialization (messages from cohabiting processes
//!   queue for the wire);
//! * per-message acknowledgement round trips for small signal messages,
//!   the behaviour the Eq. 5.4 factor 2 models;
//! * the posted-receive fast path: a message reaching a process that is
//!   already waiting avoids the unexpected-message buffer penalty;
//! * multiplicative log-normal OS jitter on every timed activity,
//!   delivered either scalar (`StdRng` + Box-Muller) or through the
//!   batched jitter engine: tables pre-filled to the compiled pattern's
//!   exact draw count, consumed by cursor, executed over SoA lanes
//!   ([`batch`]) — see DESIGN.md, "The jitter engine".
//!
//! On top of the raw message engine sit the Fig. 5.5 staged barrier
//! executor ([`barrier`] — one scalar stage kernel that the clean,
//! faulty ([`faults`]) and recovering ([`recovery`]) runs all
//! instantiate, beside the SoA lane loop of [`batch`]), the §5.6.3
//! platform microbenchmarks ([`microbench`]) which extract the `O`/`L`/`β`
//! matrices *exactly the way an application could* (medians and
//! regression over simulated timings, never by peeking at the true
//! parameters), and a background-transfer resolver ([`exchange`]) used by
//! the BSPlib runtime to model overlapped one-sided communication.
//!
//! The recovery layer ([`recovery`]) closes the fault loop: when the
//! faulty executor reports crashed ranks, survivors detect, agree, and
//! finish the collective over a survivor re-plan — see DESIGN.md, "The
//! recovery layer".

pub mod barrier;
pub mod batch;
pub mod exchange;
pub mod faults;
pub mod microbench;
pub mod net;
pub mod params;
pub mod recovery;

pub use barrier::{BarrierMeasurement, BarrierSim, SimScratch};
pub use batch::LaneScratch;
pub use exchange::{
    resolve_exchange_batched, resolve_exchange_into, ExchangeMsg, ExchangeResult, ExchangeScratch,
};
pub use faults::{FaultReport, FaultScratch, RankOutcome};
pub use microbench::{
    bench_platform, bench_platform_classes, ClassCosts, ClassProfile, MicrobenchConfig,
    PlatformProfile,
};
pub use net::NetState;
pub use params::{LinkCost, PlatformParams};
pub use recovery::{consensus_cost, RecoveryReport, RecoveryScratch, RECOVERY_JITTER_LABEL};

/// Fixtures shared by the unit tests of the executors.
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::barrier::{BarrierSim, SimScratch, BARRIER_JITTER_LABEL};
    use crate::faults::{FaultReport, FaultScratch};
    use crate::net::NetState;
    use crate::params::{xeon_cluster_params, PlatformParams};
    use hpm_core::plan::CompiledPattern;
    use hpm_core::predictor::PayloadSchedule;
    use hpm_stats::fault::FaultModel;
    use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

    /// The ⌈log₂ p⌉-stage dissemination barrier, authored sparsely.
    pub(crate) fn dissemination(p: usize) -> CompiledPattern {
        let stages = hpm_core::pattern::log2_ceil(p);
        let edges: Vec<Vec<(usize, usize)>> = (0..stages)
            .map(|s| (0..p).map(|i| (i, (i + (1 << s)) % p)).collect())
            .collect();
        CompiledPattern::from_stage_edges("dissemination", p, &edges)
    }

    /// The jittered Xeon cluster with `p` ranks placed round-robin.
    pub(crate) fn sim_fixture(p: usize) -> (PlatformParams, Placement) {
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        (xeon_cluster_params(), placement)
    }

    /// Worst-case exit of one scalar cold-start repetition from zero
    /// entry times on the batched engine — the reference the lane and
    /// faulty executors are compared against.
    pub(crate) fn cold_total(
        sim: &BarrierSim<'_>,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        seed: u64,
        rep: u64,
        net: &mut NetState,
        scratch: &mut SimScratch,
    ) -> f64 {
        net.reset();
        let zeros = vec![0.0; plan.p()];
        let label = BARRIER_JITTER_LABEL;
        sim.run_once_batched(plan, payload, &zeros, net, seed, label, rep, scratch);
        scratch.total()
    }

    /// One lone faulty cold-start repetition from zero entry times.
    pub(crate) fn lone_faulty(
        sim: &BarrierSim<'_>,
        plan: &CompiledPattern,
        fault: &FaultModel,
        seed: u64,
        rep: u64,
        net: &mut NetState,
        scratch: &mut SimScratch,
    ) -> FaultReport {
        let mut report = FaultReport::new(plan.p());
        net.reset();
        sim.run_once_faulty_into(
            plan,
            &PayloadSchedule::none(),
            fault,
            &vec![0.0; plan.p()],
            net,
            seed,
            BARRIER_JITTER_LABEL,
            rep,
            scratch,
            &mut FaultScratch::new(),
            &mut report,
        );
        report
    }
}
