//! # hpm-collectives — predicted BSP collective operations
//!
//! The thesis validates its matrix-composed performance model on two
//! communication workloads: barriers and a stencil halo exchange. This
//! crate extends the validated machinery to the standard collective
//! operations — broadcast (one-phase, binomial and two-phase
//! scatter-allgather), reduce, allreduce, prefix scan, gather and total
//! exchange — each in two coupled forms:
//!
//! * **a staged cost pattern** ([`pattern`]): the thesis' stage incidence
//!   matrices, held as sparse edge-list stages, plus a per-stage payload
//!   schedule (the Ch. 6.5 extension), flowing through the same knowledge
//!   verification (`hpm_core::knowledge`, generalized to *rooted* goals),
//!   Eq. 5.4 critical-path prediction ([`predict`]) and staged simulation
//!   as the barrier patterns do;
//! * **an executable SPMD implementation** ([`exec`]): BSPlib supersteps
//!   over [`hpm_bsplib::BspCtx`] that move real `f64` payload through the
//!   simulated cluster and produce numerically checkable results.
//!
//! The pairing is the point: the executable form establishes that the
//! algorithm computes the right answer on the runtime, while the pattern
//! form gives the closed-form heterogeneous prediction of what it costs —
//! and the predict-vs-sim test suite holds the two against each other
//! across homogeneous, heterogeneous-rate and multi-cluster topologies.

pub mod exec;
pub mod pattern;
pub mod predict;

pub use exec::{
    exchange_chunk, run_allreduce, run_broadcast_flat, run_broadcast_two_phase, run_gather,
    run_reduce, run_scan, run_total_exchange, seed_vector, CollectiveOutcome,
};
pub use pattern::{
    allreduce, broadcast_binomial, broadcast_flat, broadcast_two_phase, catalog, gather_binomial,
    log2_ceil, reduce_binomial, scan, total_exchange, CollectivePattern,
};
pub use predict::{predict_collective, simulate_collective};
