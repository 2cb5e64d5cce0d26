//! Cross-validation of the Eq. 5.4 critical-path predictor against the
//! simulated platform for every collective pattern — the §5.6.6
//! experiment design extended from barriers to collectives: benchmark the
//! platform (`O`/`L`/`β` matrices via the §5.6.3 microbenchmarks, never
//! peeking at true parameters), predict each collective's cost from its
//! stage matrices and payload schedule, then measure by executing the
//! same pattern on the simulated cluster, and compare.
//!
//! Three topologies cover the heterogeneity spectrum:
//!
//! * **homogeneous** — 4 processes on one socket: a single link class;
//! * **heterogeneous-rate** — 16 processes round-robin over two nodes:
//!   same-socket, same-node and remote links mixed, with the ~20×
//!   latency spread that breaks the classic scalar model;
//! * **multi-cluster** — 64 processes over all 8 nodes.
//!
//! Stated accuracy bound (asserted below): the log-depth collectives
//! (binomial broadcast/reduce/gather, allreduce, scan, flat broadcast)
//! predict within a relative error of **0.6** on every topology; the
//! dense single-stage patterns (total exchange, the two-phase
//! broadcast's allgather stage) within **0.95**. The dense patterns'
//! under-prediction is the simulated executor's, not missing contention
//! in Eq. 5.4: it resolves a stage sender by sender in rank order, so a
//! later-ranked sender queues behind an earlier cohabiting sender's
//! whole sequence (see `hpm_simnet::net`). A noiseless total exchange at
//! p = 64 takes 10.45 ms in rank order against 1.543 ms in send-start
//! time order. The bound stays until the executor resolves stages in
//! time order.

use hpm_collectives::pattern::{catalog, CollectivePattern};
use hpm_collectives::predict::predict_collective;
use hpm_simnet::barrier::BarrierSim;
use hpm_simnet::microbench::{bench_platform, MicrobenchConfig};
use hpm_simnet::params::xeon_cluster_params;
use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

const PAYLOAD: u64 = 1024;
const REPS: usize = 8;
const SEED: u64 = 42;

struct Case {
    topology: &'static str,
    p: usize,
    name: String,
    predicted: f64,
    measured: f64,
}

fn run_cases() -> Vec<Case> {
    let params = xeon_cluster_params();
    let mut out = Vec::new();
    for (topology, p) in [
        ("homogeneous", 4usize),
        ("heterogeneous-rate", 16),
        ("multi-cluster", 64),
    ] {
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), SEED);
        let sim = BarrierSim::new(&params, &placement);
        for pat in catalog(p, 0, PAYLOAD) {
            let plan = pat.compiled();
            let predicted = predict_collective(&pat, &profile.costs).total;
            let measured = sim.measure_compiled(plan, pat.payload(), REPS, SEED).mean();
            out.push(Case {
                topology,
                p,
                name: plan.name().to_string(),
                predicted,
                measured,
            });
        }
    }
    out
}

#[test]
fn predictions_track_simulated_collectives_within_stated_bounds() {
    let cases = run_cases();
    for c in &cases {
        let rel = (c.predicted - c.measured) / c.measured;
        println!(
            "{:<18} P={:>3} {:<20} pred {:>10.3e}  meas {:>10.3e}  rel {:+.2}",
            c.topology, c.p, c.name, c.predicted, c.measured, rel
        );
    }
    for c in &cases {
        let rel = (c.predicted - c.measured).abs() / c.measured;
        let dense = c.name == "total-exchange" || c.name == "broadcast-two-phase";
        let bound = if dense { 0.95 } else { 0.6 };
        assert!(
            rel < bound,
            "{} P={} {}: relative error {rel:.2} out of band (pred {:.3e}, meas {:.3e})",
            c.topology,
            c.p,
            c.name,
            c.predicted,
            c.measured
        );
    }
}

#[test]
fn prediction_ranks_broadcast_variants_like_the_simulator() {
    // At full scale with a payload large enough for bandwidth to matter,
    // prediction and simulation must agree that the two-phase broadcast
    // beats the flat one, and both must agree on the ordering.
    let params = xeon_cluster_params();
    let p = 64;
    let bytes = 1 << 16; // 64 KiB vector
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
    let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), SEED);
    let sim = BarrierSim::new(&params, &placement);
    let eval = |pat: &CollectivePattern| {
        (
            predict_collective(pat, &profile.costs).total,
            sim.measure_compiled(pat.compiled(), pat.payload(), REPS, SEED)
                .mean(),
        )
    };
    let (flat_pred, flat_meas) = eval(&hpm_collectives::broadcast_flat(p, 0, bytes));
    let (two_pred, two_meas) = eval(&hpm_collectives::broadcast_two_phase(p, 0, bytes));
    assert!(
        flat_pred > two_pred,
        "prediction: flat {flat_pred} vs two-phase {two_pred}"
    );
    assert!(
        flat_meas > two_meas,
        "simulation: flat {flat_meas} vs two-phase {two_meas}"
    );
}

#[test]
fn heterogeneity_shifts_both_prediction_and_simulation() {
    // Moving the same 16-process allreduce from one node (shared memory
    // only) to two nodes (gigabit links on the critical path) must raise
    // both the predicted and the simulated cost by a large factor.
    let params = xeon_cluster_params();
    let pat = hpm_collectives::allreduce(16, PAYLOAD);
    let eval = |policy: PlacementPolicy| {
        let placement = Placement::new(cluster_8x2x4(), policy, 16);
        let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), SEED);
        (
            predict_collective(&pat, &profile.costs).total,
            BarrierSim::new(&params, &placement)
                .measure_compiled(pat.compiled(), pat.payload(), REPS, SEED)
                .mean(),
        )
    };
    // Block keeps all 16 ranks on one 8-core node? No — 16 > 8 cores, so
    // block also spans two nodes; use 8 ranks for the single-node case.
    let pat8 = hpm_collectives::allreduce(8, PAYLOAD);
    let placement8 = Placement::new(cluster_8x2x4(), PlacementPolicy::Block, 8);
    let profile8 = bench_platform(&params, &placement8, &MicrobenchConfig::quick(), SEED);
    let pred8 = predict_collective(&pat8, &profile8.costs).total;
    let meas8 = BarrierSim::new(&params, &placement8)
        .measure_compiled(pat8.compiled(), pat8.payload(), REPS, SEED)
        .mean();
    let (pred16, meas16) = eval(PlacementPolicy::RoundRobin);
    assert!(
        pred16 > 3.0 * pred8,
        "prediction must see the remote links: {pred16} vs {pred8}"
    );
    assert!(
        meas16 > 3.0 * meas8,
        "simulation must see the remote links: {meas16} vs {meas8}"
    );
}
