//! Cross-validation of the Eq. 5.4 critical-path predictor against the
//! simulated platform — the experiment design of §5.6.6: benchmark the
//! platform (O/L/β matrices), predict each barrier's cost, then measure by
//! executing the same pattern, and compare.
//!
//! The thesis finds predictions within tenths of milliseconds absolutely,
//! with relative errors from tens of percent at small scale (where call
//! overheads dominate) improving as process counts grow. The assertions
//! here encode those qualitative bounds.

use hpm_barriers::patterns::{binary_tree, dissemination, linear};
use hpm_core::predictor::{predict_compiled_with, PayloadSchedule};
use hpm_simnet::barrier::BarrierSim;
use hpm_simnet::microbench::{bench_platform, MicrobenchConfig};
use hpm_simnet::params::xeon_cluster_params;
use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

struct Case {
    p: usize,
    name: &'static str,
    predicted: f64,
    measured: f64,
}

fn run_cases(ps: &[usize]) -> Vec<Case> {
    let params = xeon_cluster_params();
    let mut out = Vec::new();
    for &p in ps {
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 42);
        let sim = BarrierSim::new(&params, &placement);
        for pat in [dissemination(p), binary_tree(p), linear(p, 0)] {
            let predicted =
                predict_compiled_with(&pat, &profile.costs, &PayloadSchedule::none()).total;
            let measured = sim
                .measure_compiled(&pat, &PayloadSchedule::none(), 16, 7)
                .mean();
            out.push(Case {
                p,
                name: match pat.name() {
                    "dissemination" => "D",
                    "tree-2" => "T",
                    _ => "L",
                },
                predicted,
                measured,
            });
        }
    }
    out
}

#[test]
fn predictions_track_measurements() {
    let cases = run_cases(&[8, 16, 32, 64]);
    for c in &cases {
        let rel = (c.predicted - c.measured) / c.measured;
        println!(
            "P={:>3} {}  pred {:>10.3e}  meas {:>10.3e}  rel {:+.2}",
            c.p, c.name, c.predicted, c.measured, rel
        );
    }
    // Relative error stays within the thesis' observed band (< ~2x at
    // small scale, tighter at large scale).
    for c in &cases {
        let rel = (c.predicted - c.measured).abs() / c.measured;
        let bound = if c.p <= 8 { 2.0 } else { 1.0 };
        assert!(
            rel < bound,
            "P={} {}: relative error {rel:.2} out of band (pred {:.3e}, meas {:.3e})",
            c.p,
            c.name,
            c.predicted,
            c.measured
        );
    }
    // At full scale the prediction must rank the linear barrier worst,
    // in both predicted and measured cost (the Fig. 5.6/5.7 agreement).
    let at64: Vec<&Case> = cases.iter().filter(|c| c.p == 64).collect();
    let get = |n: &str| at64.iter().find(|c| c.name == n).expect("case exists");
    assert!(get("L").predicted > get("D").predicted);
    assert!(get("L").predicted > get("T").predicted);
    assert!(get("L").measured > get("D").measured);
    assert!(get("L").measured > get("T").measured);
}

#[test]
fn relative_error_of_linear_improves_with_scale() {
    // Fig. 5.9's observation: the L-barrier's accumulated misprediction is
    // offset by its own growth, so the *relative* error shrinks with P.
    let cases = run_cases(&[8, 64]);
    let rel = |p: usize| {
        let c = cases
            .iter()
            .find(|c| c.p == p && c.name == "L")
            .expect("case exists");
        (c.predicted - c.measured).abs() / c.measured
    };
    assert!(
        rel(64) < rel(8),
        "relative error must improve: P=8 {:.2} vs P=64 {:.2}",
        rel(8),
        rel(64)
    );
}

#[test]
fn round_robin_parity_oscillation_is_predicted() {
    // §5.6.6: on two nodes, round-robin placement makes the dissemination
    // barrier oscillate between odd and even process counts, and the
    // prediction captures the effect. Check that prediction and
    // measurement agree on the *direction* of each odd/even step for
    // P in 9..16.
    let params = xeon_cluster_params();
    let mut agree = 0;
    let mut total = 0;
    let mut prev: Option<(f64, f64)> = None;
    for p in 9..=16 {
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 42);
        let sim = BarrierSim::new(&params, &placement);
        let pat = dissemination(p);
        let pred = predict_compiled_with(&pat, &profile.costs, &PayloadSchedule::none()).total;
        let meas = sim
            .measure_compiled(&pat, &PayloadSchedule::none(), 16, 11)
            .mean();
        println!("P={p}: pred {pred:.3e} meas {meas:.3e}");
        if let Some((pp, pm)) = prev {
            total += 1;
            if ((pred - pp) > 0.0) == ((meas - pm) > 0.0) {
                agree += 1;
            }
        }
        prev = Some((pred, meas));
    }
    assert!(
        agree * 3 >= total * 2,
        "prediction should track most oscillation steps: {agree}/{total}"
    );
}
