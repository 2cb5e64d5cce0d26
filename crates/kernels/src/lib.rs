//! Numerical kernels, the Chapter-4 benchmark harness, and processor rate
//! models.
//!
//! Chapter 4 of the thesis establishes that computational rate is only
//! meaningful *per kernel*: extrapolating a DAXPY-derived flop rate to a
//! 5-point stencil mispredicts it badly (Figs. 4.3–4.4), and even with
//! uniform in-cache access the L1 BLAS routines differ by factors
//! (Fig. 4.5). This crate provides:
//!
//! * the kernels themselves — the single-precision-style level-1 BLAS set
//!   (`swap`, `scal`, `copy`, `axpy`, `dot`, `nrm2`, `asum`, `iamax`) and a
//!   5-point stencil — implemented as real Rust loops so host measurements
//!   are genuine;
//! * [`harness`]: the isolation benchmark of §4.1 (growing iteration
//!   counts, 30 samples each, Student-t outlier re-sampling, least-squares
//!   rate extraction);
//! * [`rate`]: a synthetic cache-aware processor model producing the
//!   deterministic per-kernel rates the cluster simulator uses, piecewise
//!   linear in the memory footprint as §4.3 prescribes.

pub mod blas1;
pub mod harness;
pub mod kernel;
pub mod rate;
pub mod stencil;

pub use harness::{BenchConfig, KernelProfile};
pub use kernel::{Kernel, KernelState, KernelTraits};
pub use rate::{CacheLevel, ProcessorModel};
