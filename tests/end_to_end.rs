//! Cross-crate integration: the full thesis pipeline from platform
//! benchmarking through prediction, simulation and adaptation.

use hpm::barriers::greedy::greedy_adaptive_barrier;
use hpm::barriers::patterns::{binary_tree, dissemination, linear, ring};
use hpm::bsplib::runtime::BspConfig;
use hpm::kernels::rate::{opteron_core, xeon_core};
use hpm::model::knowledge::VerifyScratch;
use hpm::model::predictor::{predict_compiled_with, PayloadSchedule};
use hpm::simnet::barrier::BarrierSim;
use hpm::simnet::microbench::{bench_platform, MicrobenchConfig};
use hpm::simnet::params::{opteron_cluster_params, xeon_cluster_params};
use hpm::stencil::bsp::{run_bsp_stencil, CommitDiscipline};
use hpm::stencil::predictor::predict_bsp_iteration;
use hpm::topology::{cluster_12x2x6, cluster_8x2x4, Placement, PlacementPolicy};

#[test]
fn adaptive_barrier_beats_or_matches_defaults_in_simulation() {
    // The Chapter 7 headline, end to end: benchmark the simulated
    // platform, generate a barrier, and verify by *execution* that it is
    // not worse than the library defaults (within noise).
    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 60);
    let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 1);
    let report = greedy_adaptive_barrier(&profile.costs);
    assert!(VerifyScratch::new().verify(&report.pattern).synchronizes());

    let sim = BarrierSim::new(&params, &placement);
    let payload = PayloadSchedule::none();
    let adapted = sim
        .measure_compiled(&report.pattern, &payload, 32, 2)
        .mean();
    for pat in [dissemination(60), binary_tree(60), linear(60, 0)] {
        let d = sim.measure_compiled(&pat, &payload, 32, 2).mean();
        assert!(
            adapted <= d * 1.10,
            "adapted {adapted:.3e} lost to {} ({d:.3e})",
            pat.name()
        );
    }
}

#[test]
fn prediction_tracks_simulation_on_the_opteron_cluster_too() {
    // The 12×2×6 configuration of Figs. 5.10–5.13 with the same pipeline.
    let params = opteron_cluster_params();
    let placement = Placement::new(cluster_12x2x6(), PlacementPolicy::RoundRobin, 96);
    let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 3);
    let sim = BarrierSim::new(&params, &placement);
    for pat in [dissemination(96), binary_tree(96)] {
        let predicted = predict_compiled_with(&pat, &profile.costs, &PayloadSchedule::none()).total;
        let measured = sim
            .measure_compiled(&pat, &PayloadSchedule::none(), 16, 4)
            .mean();
        let rel = (predicted - measured).abs() / measured;
        assert!(
            rel < 1.0,
            "{}: prediction {predicted:.3e} vs measurement {measured:.3e}",
            pat.name()
        );
    }
}

#[test]
fn stencil_prediction_tracks_bsp_measurement() {
    // The B-series agreement at one configuration: prediction within a
    // factor 2 of the simulated BSP stencil (thesis-level accuracy).
    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 32);
    let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 5);
    let model = xeon_core();
    let predicted = predict_bsp_iteration(&profile.costs, &model, &placement, 2048).total;
    let cfg = BspConfig::new(params, placement, model, 5);
    let measured =
        run_bsp_stencil(&cfg, 2048, 3, CommitDiscipline::EarlyUnbuffered, false).mean_iter();
    let ratio = predicted / measured;
    assert!(
        (0.5..2.0).contains(&ratio),
        "prediction {predicted:.3e} vs measurement {measured:.3e} (ratio {ratio:.2})"
    );
}

#[test]
fn extreme_patterns_synchronize_but_scale_poorly() {
    // §5.6.6's boundary cases: the ring barrier is correct but its
    // simulated cost dwarfs the dissemination barrier at scale.
    let p = 32;
    assert!(VerifyScratch::new().verify(&ring(p)).synchronizes());
    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
    let sim = BarrierSim::new(&params, &placement);
    let ring_t = sim
        .measure_compiled(&ring(p), &PayloadSchedule::none(), 8, 6)
        .mean();
    let diss_t = sim
        .measure_compiled(&dissemination(p), &PayloadSchedule::none(), 8, 6)
        .mean();
    assert!(
        ring_t > 3.0 * diss_t,
        "ring {ring_t:.3e} vs dissemination {diss_t:.3e}"
    );
}

#[test]
fn heterogeneous_processors_shift_the_stencil_balance() {
    // A mixed model sanity check: slower cores make the same prediction
    // strictly larger (compute term dominates at this size).
    let params = xeon_cluster_params();
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
    let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 7);
    let fast = predict_bsp_iteration(&profile.costs, &xeon_core(), &placement, 4096).total;
    let mut half_speed = xeon_core();
    half_speed.flops_per_sec *= 0.5;
    half_speed.dram_bytes_per_sec *= 0.5;
    for level in &mut half_speed.levels {
        level.bytes_per_sec *= 0.5;
    }
    let slow = predict_bsp_iteration(&profile.costs, &half_speed, &placement, 4096).total;
    assert!(slow > fast * 1.5, "slow {slow:.3e} vs fast {fast:.3e}");
    // And the Opteron model differs from the Xeon model.
    let opteron = predict_bsp_iteration(&profile.costs, &opteron_core(), &placement, 4096).total;
    assert!(opteron != fast);
}
