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
//! This crate reproduces that runtime over `hpm-simnet`, for what its
//! programs measure: BSPBench and the inner product (Table 3.1,
//! Fig. 3.2), the §6.4–6.5 sync, the Ch. 8 stencils and the collectives.
//! SPMD programs implement [`BspProgram`]; each call to
//! [`BspProgram::superstep`] is the code between two `bsp_sync` calls,
//! and the primitives of Table 6.1 those programs issue — 11 of its 20 —
//! are available on the [`BspCtx`] handed to it:
//!
//! | BSPlib | here |
//! |---|---|
//! | `bsp_init/begin` | [`runtime::run_spmd`] |
//! | `bsp_end` | returning [`StepOutcome::Halt`] |
//! | `bsp_abort` | [`BspCtx::abort`] |
//! | `bsp_nprocs` / `bsp_pid` / `bsp_time` | [`BspCtx::nprocs`] / [`BspCtx::pid`] / [`BspCtx::time`] |
//! | `bsp_sync` | returning [`StepOutcome::Continue`] |
//! | `bsp_push_reg` | [`BspCtx::push_reg`] |
//! | `bsp_put` / `bsp_hpput` | [`BspCtx::put`] / [`BspCtx::hpput`] |
//! | — (same puts, payload written in place) | [`BspCtx::put_with`] / [`BspCtx::hpput_with`] |
//!
//! Every one of those programs communicates by put and hp-put alone, and
//! none deregisters, so the other nine are not here: DRMA get and
//! hp-get, the six BSMP primitives (set tag size, send, queue size, get
//! tag, move, hp-move) and pop-reg. Before they went,
//! `grep -rnE "ctx\.(h?p?get|h?p?move|send|set_tag|q|pop_)"` over
//! `crates src tests examples benchmark/src` found their calls only in
//! test code: no experiment, example or benchmark workload issued one,
//! yet every superstep resolved a get-reply exchange for them. Adding one
//! back belongs with a program that issues it.
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
