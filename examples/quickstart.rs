//! Quickstart: model a heterogeneous platform and predict barrier cost.
//!
//! Builds the cost matrices of a small two-node machine by benchmarking a
//! simulated cluster, verifies three barrier algorithms algebraically,
//! predicts their cost with the critical-path model (Eq. 5.4), and checks
//! the predictions against simulated execution.
//!
//! Run with: `cargo run --release --example quickstart`

use hpm::barriers::patterns::{binary_tree, dissemination, linear};
use hpm::model::knowledge::VerifyScratch;
use hpm::model::predictor::{predict_compiled_with, PayloadSchedule};
use hpm::simnet::barrier::BarrierSim;
use hpm::simnet::microbench::{bench_platform, MicrobenchConfig};
use hpm::simnet::params::xeon_cluster_params;
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};

fn main() {
    let p = 16;
    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
    println!("platform: {} with {p} processes (round-robin)", params.name);

    // 1. Benchmark the platform: O/L/beta matrices (§5.6.3).
    let profile = bench_platform(&params, &placement, &MicrobenchConfig::default(), 42);
    println!(
        "benchmarked latency spread: local {:.2} us, remote {:.2} us",
        profile.costs.l.get(0, 2) * 1e6,
        profile.costs.l.get(0, 1) * 1e6
    );

    // 2. Verify and predict three barrier algorithms.
    let sim = BarrierSim::new(&params, &placement);
    println!(
        "{:<15} {:>12} {:>12} {:>8}",
        "barrier", "predicted", "measured", "error"
    );
    for pattern in [dissemination(p), binary_tree(p), linear(p, 0)] {
        assert!(
            VerifyScratch::new().verify(&pattern).synchronizes(),
            "{} must synchronize",
            pattern.name()
        );
        let predicted =
            predict_compiled_with(&pattern, &profile.costs, &PayloadSchedule::none()).total;
        let measured = sim
            .measure_compiled(&pattern, &PayloadSchedule::none(), 64, 7)
            .mean();
        println!(
            "{:<15} {:>10.2} us {:>10.2} us {:>+7.1}%",
            pattern.name(),
            predicted * 1e6,
            measured * 1e6,
            (predicted - measured) / measured * 100.0
        );
    }
}
