//! Closed-form prediction of collective patterns.
//!
//! A [`CollectivePattern`] holds everything the Eq. 5.4 critical-path
//! predictor needs — its compiled plan plus payload schedule — so
//! prediction is a single call into `hpm-core`. The same pair drives the
//! Fig. 5.5 staged executor of `hpm-simnet`
//! (`hpm_simnet::barrier::BarrierSim::measure_compiled` on
//! [`CollectivePattern::compiled`]), which is what the predict-vs-sim
//! experiments compare against: the simulator is the stand-in for the
//! thesis' measured clusters.

use crate::pattern::CollectivePattern;
use hpm_core::predictor::{predict_compiled_with, BarrierPrediction, CostModel};

/// Predicts the collective's critical-path cost from benchmarked platform
/// costs (§5.6.3's `O`/`L`/`β`) — dense `CommCosts` matrices or any other
/// [`CostModel`].
pub fn predict_collective<C: CostModel + ?Sized>(
    pattern: &CollectivePattern,
    costs: &C,
) -> BarrierPrediction {
    predict_compiled_with(pattern.compiled(), costs, pattern.payload())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{allreduce, broadcast_flat, broadcast_two_phase, total_exchange};
    use hpm_core::predictor::CommCosts;
    use hpm_simnet::barrier::BarrierSim;
    use hpm_simnet::params::xeon_cluster_params;
    use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

    #[test]
    fn flat_broadcast_cost_is_linear_in_p_under_uniform_costs() {
        let c = 1e-6;
        let t8 = predict_collective(
            &broadcast_flat(8, 0, 0),
            &CommCosts::uniform(8, 0.0, 0.0, c),
        );
        let t32 = predict_collective(
            &broadcast_flat(32, 0, 0),
            &CommCosts::uniform(32, 0.0, 0.0, c),
        );
        // Root pays 2c per destination on the single stage.
        assert!((t8.total - 2.0 * c * 7.0).abs() < 1e-15);
        assert!((t32.total - 2.0 * c * 31.0).abs() < 1e-15);
    }

    #[test]
    fn allreduce_depth_is_logarithmic_under_uniform_costs() {
        let c = 1e-6;
        for p in [8usize, 16, 64] {
            let pred = predict_collective(&allreduce(p, 0), &CommCosts::uniform(p, 0.0, 0.0, c));
            let stages = 2.0 * crate::pattern::log2_ceil(p) as f64;
            assert!(
                (pred.total - 2.0 * c * stages).abs() < 1e-12,
                "p={p}: {} vs {}",
                pred.total,
                2.0 * c * stages
            );
        }
    }

    #[test]
    fn payload_term_separates_broadcast_variants() {
        // With pure bandwidth cost, the flat broadcast moves (p−1)·b bytes
        // through the root while the two-phase moves ~2·b in chunks.
        let p = 16;
        let b = 1 << 20;
        let mut costs = CommCosts::uniform(p, 0.0, 0.0, 0.0);
        costs.beta = hpm_core::matrix::DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { 1e-9 });
        let flat = predict_collective(&broadcast_flat(p, 0, b), &costs).total;
        let two = predict_collective(&broadcast_two_phase(p, 0, b), &costs).total;
        assert!(flat > 5.0 * two, "flat {flat} vs two-phase {two}");
    }

    #[test]
    fn simulation_is_deterministic_and_positive() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let pat = total_exchange(16, 1024);
        let sim = BarrierSim::new(&params, &placement);
        let measure = || {
            sim.measure_compiled(pat.compiled(), pat.payload(), 4, 99)
                .mean()
        };
        let (a, b) = (measure(), measure());
        assert_eq!(a, b);
        assert!(a > 0.0);
    }
}
