//! # hpm-bsplib — the BSPlib programming interface over the simulated
//! cluster
//!
//! Chapter 6 of the thesis implements the 20-primitive BSPlib interface
//! (Table 6.1) with a twist on the classic processing model: one-sided
//! communication is committed *as early as possible* and progresses in the
//! background (Fig. 1.2), so that an algorithm's overlap potential is
//! exploited automatically. Synchronization is a dissemination barrier
//! carrying the per-pair message-count map as payload (§6.4–6.5), which
//! lets every process know how many inbound transfers to await.
//!
//! This crate reproduces that runtime over `hpm-simnet`. SPMD programs
//! implement [`BspProgram`]; each call to
//! [`BspProgram::superstep`] is the code between two `bsp_sync`
//! calls, and the full primitive set of Table 6.1 is available on the
//! [`BspCtx`] handed to it:
//!
//! | BSPlib | here |
//! |---|---|
//! | `bsp_init/begin` | [`runtime::run_spmd`] |
//! | `bsp_end` | returning [`StepOutcome::Halt`] |
//! | `bsp_abort` | [`BspCtx::abort`] |
//! | `bsp_nprocs` / `bsp_pid` / `bsp_time` | [`BspCtx::nprocs`] / [`BspCtx::pid`] / [`BspCtx::time`] |
//! | `bsp_sync` | returning [`StepOutcome::Continue`] |
//! | `bsp_push_reg` / `bsp_pop_reg` | [`BspCtx::push_reg`] / [`BspCtx::pop_reg`] |
//! | `bsp_put` / `bsp_hpput` | [`BspCtx::put`] / [`BspCtx::hpput`] |
//! | — (same puts, payload written in place) | [`BspCtx::put_with`] / [`BspCtx::hpput_with`] |
//! | `bsp_get` / `bsp_hpget` | [`BspCtx::get`] / [`BspCtx::hpget`] |
//! | `bsp_set_tagsize` | [`BspCtx::set_tagsize`] |
//! | `bsp_send` | [`BspCtx::send`] |
//! | `bsp_qsize` / `bsp_get_tag` | [`BspCtx::qsize`] / [`BspCtx::get_tag`] |
//! | `bsp_move` / `bsp_hpmove` | [`BspCtx::move_msg`] / [`BspCtx::hpmove`] |
//!
//! Computation advances the virtual clock through
//! [`BspCtx::compute_kernel`] (rates from a processor model) or
//! [`BspCtx::elapse`]; payload data genuinely moves between process
//! memories, so programs compute real results while the simulator times
//! them. On the host a put is one copy into the runtime's per-superstep
//! staging buffer (see [`ops`]); the `*_with` row lets a program that
//! produces its bytes — marshalling `f64`s with [`mem::write_f64s`],
//! gathering a strided border — make that copy the only one.

pub mod bench;
pub mod ctx;
pub mod inprod;
pub mod mem;
pub mod ops;
pub mod runtime;

pub use ctx::BspCtx;
pub use mem::RegHandle;
pub use ops::StepOutcome;
pub use runtime::{run_spmd, BspConfig, BspError, BspProgram, BspRunResult};
