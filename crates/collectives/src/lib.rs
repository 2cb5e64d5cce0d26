//! # hpm-collectives — predicted BSP collective operations
//!
//! The thesis validates its matrix-composed performance model on two
//! communication workloads: barriers and a stencil halo exchange. This
//! crate extends the validated machinery to the standard collective
//! operations — broadcast (one-phase, binomial and two-phase
//! scatter-allgather), reduce, allreduce, prefix scan, gather and total
//! exchange — each defined **once**, as a staged pattern ([`pattern`]):
//! the thesis' stage incidence matrices, authored as sparse edge-list
//! stages and compiled once into the [`CollectivePattern`]'s
//! `CompiledPattern`, plus a per-stage payload schedule (the Ch. 6.5
//! extension). That one definition is all its three consumers need, and
//! each reads the held plan ([`CollectivePattern::compiled`]):
//!
//! * **verification** — `hpm_core::knowledge`, generalized to *rooted*
//!   goals, exactly as for the barrier patterns;
//! * **prediction** ([`predict`]) — the Eq. 5.4 critical path, validated
//!   against the staged simulator
//!   (`hpm_simnet::barrier::BarrierSim::measure_compiled`);
//! * **execution** ([`exec`]) — one SPMD program over
//!   [`hpm_bsplib::BspCtx`] that walks the stages and puts real `f64`
//!   payload along exactly their edges, with numerically checkable results.
//!
//! What the predictor charges and what the runtime moves cannot drift
//! apart; the predict-vs-sim suite holds prediction against simulation
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
pub use predict::predict_collective;
