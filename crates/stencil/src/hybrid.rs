//! The hybrid (threads + message passing) stencil (§8.3.3).
//!
//! One process per node owns the node's share of the domain and fans the
//! sweep out over the node's cores (modeled as a compute-rate speedup with
//! a threading efficiency below 1 — fork/join and memory-bandwidth sharing
//! cost something). The network then carries only node-boundary exchanges:
//! fewer, larger messages over fewer NICs.

use crate::mpi::{run_mpi_stencil, MpiVariant};
use crate::StencilReport;
use hpm_kernels::rate::ProcessorModel;
use hpm_simnet::params::PlatformParams;
use hpm_topology::{ClusterShape, Placement, PlacementPolicy};

/// Intra-node threading efficiency (fraction of linear speedup attained).
pub const THREAD_EFFICIENCY: f64 = 0.85;

/// Runs the hybrid stencil using `total_cores` worth of hardware: one
/// process per node, each accelerated by its node's core count.
///
/// Panics unless `total_cores` is a whole number of nodes.
pub fn run_hybrid_stencil(
    params: &PlatformParams,
    shape: ClusterShape,
    proc_model: &ProcessorModel,
    n: usize,
    iters: usize,
    total_cores: usize,
    seed: u64,
) -> StencilReport {
    let cpn = shape.cores_per_node();
    assert!(
        total_cores.is_multiple_of(cpn) && total_cores > 0,
        "hybrid runs use whole nodes ({cpn} cores each), got {total_cores} cores"
    );
    let nodes = total_cores / cpn;
    assert!(nodes <= shape.nodes(), "not enough nodes");
    // One rank per node.
    let placement = Placement::new(shape, PlacementPolicy::Spread, nodes);
    debug_assert_eq!(placement.nodes_used(), nodes);
    let speedup = cpn as f64 * THREAD_EFFICIENCY;
    run_mpi_stencil(
        params,
        &placement,
        proc_model,
        n,
        iters,
        MpiVariant::EarlyRequests,
        speedup,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_kernels::rate::xeon_core;
    use hpm_simnet::params::xeon_cluster_params;
    use hpm_topology::cluster_8x2x4;

    #[test]
    fn hybrid_runs_one_rank_per_node() {
        let rep = run_hybrid_stencil(
            &xeon_cluster_params(),
            cluster_8x2x4(),
            &xeon_core(),
            2048,
            3,
            32, // 4 nodes
            5,
        );
        assert_eq!(rep.decomp.p(), 4);
        assert!(rep.mean_iter() > 0.0);
    }

    #[test]
    fn hybrid_flat_crossover_exists() {
        // The Roadrunner-style trade-off (§2.2.4, Ch. 8): when the network
        // dominates (small problems), one rank per node with fewer,
        // larger exchanges wins; when compute dominates (large problems),
        // flat MPI's perfect 64-way distribution beats the imperfect
        // thread speedup.
        let params = xeon_cluster_params();
        let model = xeon_core();
        let flat = |n: usize| {
            let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
            crate::mpi::run_mpi_stencil(
                &params,
                &placement,
                &model,
                n,
                3,
                MpiVariant::EarlyRequests,
                1.0,
                5,
            )
            .mean_iter()
        };
        let hybrid = |n: usize| {
            run_hybrid_stencil(&params, cluster_8x2x4(), &model, n, 3, 64, 5).mean_iter()
        };
        // Compute-bound regime: flat wins clearly (imperfect thread
        // speedup and larger node-boundary transfers).
        assert!(
            flat(2048) < hybrid(2048),
            "compute-bound: flat {} should beat hybrid {}",
            flat(2048),
            hybrid(2048)
        );
        // Network-bound regime: the gap closes to near parity — fewer,
        // larger messages compensate for the threading loss.
        let ratio_small = hybrid(256) / flat(256);
        let ratio_large = hybrid(2048) / flat(2048);
        assert!(
            ratio_small < ratio_large / 1.5,
            "hybrid must converge toward flat as the network dominates: \
             {ratio_small:.2}x at N=256 vs {ratio_large:.2}x at N=2048"
        );
        assert!(
            ratio_small < 1.3,
            "hybrid should be near parity on tiny problems: {ratio_small:.2}x"
        );
    }

    #[test]
    #[should_panic]
    fn partial_nodes_rejected() {
        run_hybrid_stencil(
            &xeon_cluster_params(),
            cluster_8x2x4(),
            &xeon_core(),
            1024,
            1,
            12,
            1,
        );
    }
}
