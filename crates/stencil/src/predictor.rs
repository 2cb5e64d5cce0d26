//! The application model of the BSP stencil (§8.5, Figs. 8.8–8.9).
//!
//! The predictor program combines the framework's independently captured
//! pieces exactly as Fig. 8.8 lays out:
//!
//! * a `P×1` requirement matrix of stencil cells against a `P×1` cost
//!   matrix of per-cell rates at the local footprint (the Ch. 4 term);
//! * message counts and volumes against the benchmarked heterogeneous
//!   Hockney costs, `CostModel::pair`'s `l` and `beta` (the Ch. 5 term),
//!   with the §6.2 out-of-band header charged per operation — Fig. 8.8's
//!   `P×P` matrices have at most four nonzeros per row, so each process
//!   sums its neighbours' terms directly (`hpm_core::hockney::comm_times`
//!   is the dense oracle);
//! * the payload-carrying dissemination-barrier prediction (the Ch. 6
//!   term);
//!
//! composed through the fundamental equation (Eq. 1.4) with the overlap
//! structure of the early-commit discipline: everything after the outer
//! ring is maskable computation, all border traffic is maskable
//! communication.

use crate::decomp::Decomposition;
use hpm_bsplib::ops::HEADER_BYTES;
use hpm_bsplib::runtime::SyncPattern;
use hpm_core::compute::superstep_times;
use hpm_core::matrix::DMat;
use hpm_core::predictor::CostModel;
use hpm_core::superstep::SuperstepModel;
use hpm_kernels::rate::ProcessorModel;
use hpm_kernels::stencil::Stencil5;
use hpm_topology::Placement;

/// A per-iteration prediction for the BSP stencil.
#[derive(Debug, Clone)]
pub struct StencilPrediction {
    /// The assembled superstep model (per-process vectors inside).
    pub model: SuperstepModel,
    /// Predicted synchronization cost.
    pub sync: f64,
    /// Predicted wall time of one iteration.
    pub total: f64,
}

/// Builds the Fig. 8.8 matrices and evaluates the Fig. 8.9 predictor for
/// one Jacobi iteration on an `n×n` problem.
pub fn predict_bsp_iteration<C: CostModel + ?Sized>(
    costs: &C,
    proc_model: &ProcessorModel,
    placement: &Placement,
    n: usize,
) -> StencilPrediction {
    let p = placement.nprocs();
    let decomp = Decomposition::new(n, p);

    // Computation: R (cells) ⊗ C (seconds per cell at local footprint).
    let r_comp = DMat::from_fn(p, 1, |i, _| decomp.block(i).cells() as f64);
    let c_comp = DMat::from_fn(p, 1, |i, _| {
        proc_model.secs_per_element(&Stencil5, decomp.block(i).cells())
    });
    let comp = superstep_times(&r_comp, &c_comp);
    // Maskable: the inner ring and interior, computed after the commit.
    let comp_maskable: Vec<f64> = (0..p)
        .map(|i| {
            let regions = decomp.regions(i);
            let frac =
                (regions.inner_ring + regions.interior) as f64 / regions.total().max(1) as f64;
            comp[i] * frac
        })
        .collect();

    // Communication: per neighbour a header and a payload operation (two
    // latencies) carrying the border bytes plus the header, summed in
    // ascending rank order (N, W, E, S on the row-major grid) — the
    // order, and so the bits, of the dense row sum.
    let comm: Vec<f64> = (0..p)
        .map(|i| {
            let nb = decomp.neighbours(i);
            let ns = decomp.ns_exchange_bytes(i, 1);
            let we = decomp.we_exchange_bytes(i, 1);
            [(nb.north, ns), (nb.west, we), (nb.east, we), (nb.south, ns)]
                .into_iter()
                .filter_map(|(peer, bytes)| Some((peer?, bytes)))
                .fold(0.0, |t, (j, bytes)| {
                    let c = costs.pair(i, j);
                    t + (2.0 * c.l + (bytes + HEADER_BYTES) as f64 * c.beta)
                })
        })
        .collect();
    // Early commit: everything is exposed to overlap.
    let comm_maskable = comm.clone();

    // Synchronization: the payload-carrying barrier.
    let sync = SyncPattern::Dissemination.predict(p, costs);

    let model = SuperstepModel::new(comp, comp_maskable, comm, comm_maskable, sync);
    let total = model.total();
    StencilPrediction { model, sync, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_kernels::rate::xeon_core;
    use hpm_simnet::microbench::{bench_platform, MicrobenchConfig};
    use hpm_simnet::params::xeon_cluster_params;
    use hpm_topology::{cluster_8x2x4, PlacementPolicy};

    fn predict(p: usize, n: usize) -> StencilPrediction {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 21);
        predict_bsp_iteration(&profile.costs, &xeon_core(), &placement, n)
    }

    #[test]
    fn prediction_is_positive_and_bounded() {
        let pr = predict(16, 2048);
        assert!(pr.total > 0.0 && pr.total < 1.0, "total {}", pr.total);
        assert!(pr.sync > 0.0);
    }

    #[test]
    fn compute_dominates_large_problems() {
        // On a big grid the compute term dwarfs sync + comm.
        let pr = predict(16, 8192);
        let comp_max = pr
            .model
            .comp
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            comp_max > 5.0 * pr.sync,
            "compute {comp_max} should dominate sync {}",
            pr.sync
        );
    }

    #[test]
    fn sync_matters_for_small_problems_at_scale() {
        let pr = predict(64, 512);
        let comp_max = pr
            .model
            .comp
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            pr.sync > comp_max / 10.0,
            "sync {} should be significant vs compute {comp_max}",
            pr.sync
        );
    }

    #[test]
    fn strong_scaling_prediction_decreases_then_flattens() {
        let n = 4096;
        let t4 = predict(4, n).total;
        let t16 = predict(16, n).total;
        let t64 = predict(64, n).total;
        assert!(t16 < t4);
        let gain_a = t4 - t16;
        let gain_b = t16 - t64;
        assert!(gain_b < gain_a, "diminishing returns: {t4} {t16} {t64}");
    }

    #[test]
    fn overlap_saving_is_positive_when_comm_matters() {
        let pr = predict(64, 2048);
        assert!(
            pr.model.overlap_saving() > 0.0,
            "early commitment must be predicted to save time"
        );
    }
}
