//! Automatic barrier adaptation (the Chapter 7 workflow).
//!
//! Benchmarks a 60-process placement on the 8×2×4 cluster, clusters the
//! latency matrix into subsets (SSS), greedily constructs a customized
//! hierarchical barrier, and compares it against the library defaults —
//! both by prediction and by simulated execution.
//!
//! Run with: `cargo run --release --example barrier_tuning`

use hpm::barriers::greedy::greedy_adaptive_barrier;
use hpm::barriers::patterns::{binary_tree, dissemination, linear};
use hpm::model::predictor::{predict_compiled_with, PayloadSchedule};
use hpm::simnet::barrier::BarrierSim;
use hpm::simnet::microbench::{bench_platform, MicrobenchConfig};
use hpm::simnet::params::xeon_cluster_params;
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};

fn main() {
    let p = 60;
    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
    let profile = bench_platform(&params, &placement, &MicrobenchConfig::default(), 11);

    // Subset clustering recovered from latency measurements alone.
    let report = greedy_adaptive_barrier(&profile.costs);
    println!("SSS clustering (Table 7.1 analogue):");
    print!("{}", report.clustering.render());
    for (k, (shape, cost)) in report.intra_choices.iter().enumerate() {
        println!(
            "  subset {k}: gather {:<7} predicted {:.2} us",
            shape.label(),
            cost * 1e6
        );
    }
    println!(
        "top level: {} — emitted '{}' predicted {:.2} us",
        report.inter_choice.0,
        report.pattern.name(),
        report.predicted_total * 1e6
    );

    // Head-to-head against the defaults.
    let sim = BarrierSim::new(&params, &placement);
    let payload = PayloadSchedule::none();
    println!("\n{:<22} {:>12} {:>12}", "barrier", "predicted", "measured");
    let mut rows = vec![("adapted".to_string(), report.pattern.clone())];
    rows.push(("dissemination".into(), dissemination(p)));
    rows.push(("binary tree".into(), binary_tree(p)));
    rows.push(("linear".into(), linear(p, 0)));
    for (name, pat) in rows {
        let predicted = predict_compiled_with(&pat, &profile.costs, &payload).total;
        let measured = sim.measure_compiled(&pat, &payload, 64, 23).mean();
        println!(
            "{:<22} {:>10.2} us {:>10.2} us",
            name,
            predicted * 1e6,
            measured * 1e6
        );
    }
}
