//! The Laplacian stencil case study (the Chapter 8 workflow).
//!
//! Compares the BSP (overlapping), MPI (blocking) and MPI+R (restructured)
//! implementations in strong scaling, checks the framework's prediction of
//! the BSP iteration time, and runs the model-driven ghost-width
//! adaptation.
//!
//! Run with: `cargo run --release --example stencil_overlap`

use hpm::bsplib::runtime::BspConfig;
use hpm::kernels::rate::xeon_core;
use hpm::simnet::microbench::{bench_platform, MicrobenchConfig};
use hpm::simnet::params::xeon_cluster_params;
use hpm::stencil::bsp::{run_bsp_stencil, CommitDiscipline};
use hpm::stencil::mpi::{run_mpi_stencil, MpiVariant};
use hpm::stencil::overlap_opt::optimize_ghost_width;
use hpm::stencil::predictor::predict_bsp_iteration;
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};

fn main() {
    let n = 2048;
    let params = xeon_cluster_params();
    let model = xeon_core();

    println!("strong scaling, N = {n} (seconds per iteration):");
    println!("{:>4} {:>12} {:>12} {:>12}", "P", "BSP", "MPI", "MPI+R");
    for p in [4usize, 16, 64] {
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let cfg = BspConfig::new(params.clone(), placement.clone(), model.clone(), 5);
        let bsp = run_bsp_stencil(&cfg, n, 4, CommitDiscipline::EarlyUnbuffered, false);
        let mpi = run_mpi_stencil(
            &params,
            &placement,
            &model,
            n,
            4,
            MpiVariant::Blocking2Stage,
            1.0,
            5,
        );
        let mpir = run_mpi_stencil(
            &params,
            &placement,
            &model,
            n,
            4,
            MpiVariant::EarlyRequests,
            1.0,
            5,
        );
        println!(
            "{:>4} {:>12.3e} {:>12.3e} {:>12.3e}",
            p,
            bsp.mean_iter(),
            mpi.mean_iter(),
            mpir.mean_iter()
        );
    }

    // Prediction vs measurement at full machine.
    let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
    let profile = bench_platform(&params, &placement, &MicrobenchConfig::default(), 5);
    let prediction = predict_bsp_iteration(&profile.costs, &model, &placement, n);
    let cfg = BspConfig::new(params.clone(), placement.clone(), model.clone(), 5);
    let measured = run_bsp_stencil(&cfg, n, 4, CommitDiscipline::EarlyUnbuffered, false);
    println!(
        "\nP=64 prediction {:.3e} s/iter vs measured {:.3e} s/iter (overlap saves {:.3e} s)",
        prediction.total,
        measured.mean_iter(),
        prediction.model.overlap_saving()
    );

    // Model-driven ghost-width adaptation (§8.6).
    let sweep = optimize_ghost_width(
        &params,
        &profile.costs,
        &model,
        &placement,
        n,
        &[1, 2, 3, 4, 6, 8],
        5,
    );
    println!("\nghost-width adaptation (s/iter):");
    println!("{:>3} {:>12} {:>12}", "w", "predicted", "measured");
    for (k, &w) in sweep.widths.iter().enumerate() {
        println!(
            "{:>3} {:>12.3e} {:>12.3e}",
            w, sweep.predicted[k], sweep.measured[k]
        );
    }
    println!(
        "model selects w = {}, measurement prefers w = {}",
        sweep.best_predicted(),
        sweep.best_measured()
    );
}
