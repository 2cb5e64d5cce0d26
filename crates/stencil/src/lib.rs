//! # hpm-stencil — the Laplacian 5-point stencil case study (Ch. 8)
//!
//! A Jacobi iteration on an `N×N` grid, block-decomposed over a 2-D
//! process grid with one-deep ghost areas (Fig. 8.1), in four
//! implementations whose strong-scaling behaviour the thesis compares
//! (Figs. 8.4–8.7). Which faces of a block border a neighbour, and how
//! many cells each carries, is said once, by [`Decomposition::face`] and
//! [`Decomposition::faces`]; every implementation, both predictors and
//! the data-correctness harness ([`field::distributed_reference`]) read
//! them.
//!
//! * [`bsp`] — the BSPlib implementation: the local domain is split into
//!   the 17 regions of Fig. 8.2 (outer boundary ring: 4 corners + 4
//!   edges; inner ring: 8 segments; interior), computed outside-in so
//!   border `hpput`s commit as early as possible and overlap the interior
//!   computation.
//! * [`mpi`] — an MPI-style implementation with the 2-stage blocking
//!   border exchange of Fig. 8.3 (rows, then columns): no overlap, but
//!   also no global synchronization — skew propagates only via
//!   neighbours.
//! * [`mpi`]'s `MPI+R` variant — borders first, requests posted early,
//!   interior computed while transfers fly (Table 8.2's second column).
//! * [`hybrid`] — one process per node with intra-node threading: the
//!   network sees fewer, larger subdomains.
//!
//! [`predictor`] assembles the framework's model of the BSP implementation
//! (Figs. 8.8–8.9): kernel-rate requirement/cost matrices, heterogeneous
//! Hockney communication terms, the payload-carrying barrier prediction
//! and the Eq. 1.4 overlap composition — producing the B-series
//! prediction-vs-measurement comparisons. [`overlap_opt`] is the §8.6
//! model-driven optimization: choosing the ghost-zone (shadow region)
//! width that balances redundant computation against amortized
//! synchronization (Figs. 8.16–8.18). Both read communication costs
//! through any `hpm_core::CostModel`, dense or per link class.
//!
//! Every implementation returns one [`StencilReport`]. Which
//! implementations each Table 8.1 experiment compares, at which problem
//! size ([`configs`]), is said once, in `hpm_bench::experiments`.

pub mod bsp;
pub mod configs;
pub mod decomp;
pub mod field;
pub mod hybrid;
pub mod mpi;
pub mod overlap_opt;
pub mod predictor;

pub use bsp::{run_bsp_stencil, CommitDiscipline};
pub use decomp::{Decomposition, LocalBlock};
pub use hybrid::run_hybrid_stencil;
pub use mpi::{run_mpi_stencil, MpiVariant};
pub use overlap_opt::{optimize_ghost_width, GhostSweep};
pub use predictor::{predict_bsp_iteration, StencilPrediction};

/// Result of a stencil run, whichever implementation ran it.
#[derive(Debug, Clone)]
pub struct StencilReport {
    /// Wall time of each timed Jacobi iteration.
    pub iter_times: Vec<f64>,
    /// Total virtual run time.
    pub total: f64,
    /// Sum of owned cells over all processes after the run; `Some` only
    /// for a BSP run that carried real field data.
    pub checksum: Option<f64>,
    /// The decomposition used.
    pub decomp: Decomposition,
}

impl StencilReport {
    /// Mean per-iteration time.
    pub fn mean_iter(&self) -> f64 {
        self.iter_times.iter().sum::<f64>() / self.iter_times.len().max(1) as f64
    }
}
