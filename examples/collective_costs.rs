//! Predicted vs simulated collective costs on a heterogeneous 2-cluster
//! topology.
//!
//! 16 processes placed round-robin over two gigabit-linked 2×4-core nodes
//! form the thesis' canonical heterogeneous setting: same-socket,
//! same-node and remote links differ by more than an order of magnitude,
//! which is what the matrix-composed model exists to capture. This
//! example runs the §5.6.3 microbenchmarks, predicts every collective in
//! the catalog from its stage matrices and payload schedule, executes the
//! same patterns on the simulated platform, and finally pushes a real
//! allreduce through the BSPlib runtime to show the numeric result is
//! right too.
//!
//! Run with: `cargo run --release --example collective_costs`

use hpm::bsplib::runtime::BspConfig;
use hpm::collectives::exec::{run_allreduce, seed_vector};
use hpm::collectives::pattern::catalog;
use hpm::collectives::predict::predict_collective;
use hpm::kernels::rate::xeon_core;
use hpm::simnet::barrier::BarrierSim;
use hpm::simnet::microbench::{bench_platform, MicrobenchConfig};
use hpm::simnet::params::xeon_cluster_params;
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};

fn main() {
    let p = 16;
    let bytes = 8 * 1024u64;
    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
    println!(
        "heterogeneous 2-cluster: {p} processes round-robin on two {}-core nodes of the {} machine\n",
        placement.shape().cores_per_node(),
        placement.shape()
    );

    println!("benchmarking the platform (O/L/beta matrices, par. 5.6.3) ...");
    let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 42);

    println!(
        "\n{:<22} {:>12} {:>12} {:>8}",
        "collective", "predicted", "simulated", "rel"
    );
    let sim = BarrierSim::new(&params, &placement);
    for pat in catalog(p, 0, bytes) {
        let plan = pat.compiled();
        let pred = predict_collective(&pat, &profile.costs).total;
        let meas = sim.measure_compiled(plan, pat.payload(), 16, 7).mean();
        println!(
            "{:<22} {:>10.3e} s {:>10.3e} s {:>+8.2}",
            plan.name(),
            pred,
            meas,
            (pred - meas) / meas
        );
    }

    // The same allreduce as a real program: payload moves through process
    // memories, synchronization is the count-map-carrying dissemination
    // barrier, and every rank must end holding the exact elementwise sum.
    let n = bytes as usize / 8;
    let cfg = BspConfig::new(params, placement, xeon_core(), 42);
    let run = run_allreduce(&cfg, n);
    let expect: Vec<f64> = (0..n)
        .map(|k| (0..p).map(|r| seed_vector(r, n)[k]).sum())
        .collect();
    let all_correct = run.values.iter().all(|v| v == &expect);
    println!(
        "\nallreduce through the BSPlib runtime: {:.3e} s over {} supersteps, results {}",
        run.total_time,
        run.supersteps,
        if all_correct {
            "exact on every rank"
        } else {
            "WRONG"
        }
    );
    assert!(all_correct, "allreduce produced wrong sums");
}
