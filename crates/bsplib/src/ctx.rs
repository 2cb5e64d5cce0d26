//! The superstep context: BSPlib's primitives as seen by program code.
//!
//! A `BspCtx` is handed to [`crate::BspProgram::superstep`] once per
//! superstep. Communication calls *commit* operations immediately (the
//! Fig. 1.2 early-communication model): the sender pays only the local
//! queue-handoff cost (§6.3's `sched_yield` handshake with the
//! communication thread), and the transfer progresses in the background
//! while the program keeps computing. Computation itself advances the
//! virtual clock through a processor rate model or explicit elapse calls.
//!
//! The context owns neither its operation log nor any payload: both are
//! borrowed from the runtime, which clears and reuses the log and keeps one
//! byte staging buffer per superstep for all processes. The data-bearing
//! primitive is [`BspCtx::put_with`]: it validates the target, charges the
//! put's virtual cost, reserves the payload's slot in the staging buffer
//! and lets the caller write the bytes there — one copy, no allocation.
//! `put` is its `copy_from_slice` wrapper.

use crate::mem::{ProcMem, RegHandle};
use crate::ops::CommOp;
use hpm_kernels::kernel::Kernel;
use hpm_kernels::rate::ProcessorModel;
use hpm_stats::rng::JitterModel;
use rand::rngs::StdRng;

/// CPU cost of handing one operation to the communication thread
/// (enqueue + `sched_yield`, §6.3).
pub const ENQUEUE_OVERHEAD: f64 = 0.2e-6;

/// Send-side copy cost per byte for *buffered* puts (the buffered variant
/// snapshots the data; `hpput` skips this, §6.1).
pub const BUFFER_COPY_PER_BYTE: f64 = 2.5e-10;

/// The per-superstep execution context: the Table 6.1 primitives the
/// runtime keeps (see the crate doc), except init/begin/end/sync, which
/// the runtime embodies.
pub struct BspCtx<'a> {
    pid: usize,
    nprocs: usize,
    now: f64,
    proc_model: &'a ProcessorModel,
    jitter: JitterModel,
    rng: &'a mut StdRng,
    mem: &'a mut ProcMem,
    /// This process' operation log for the superstep (runtime-owned).
    ops: &'a mut Vec<CommOp>,
    /// The superstep's payload bytes of all processes (runtime-owned).
    staging: &'a mut Vec<u8>,
    abort_msg: Option<String>,
}

impl<'a> BspCtx<'a> {
    /// Used by the runtime; not part of the BSPlib surface.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        pid: usize,
        nprocs: usize,
        now: f64,
        proc_model: &'a ProcessorModel,
        jitter: JitterModel,
        rng: &'a mut StdRng,
        mem: &'a mut ProcMem,
        ops: &'a mut Vec<CommOp>,
        staging: &'a mut Vec<u8>,
    ) -> BspCtx<'a> {
        BspCtx {
            pid,
            nprocs,
            now,
            proc_model,
            jitter,
            rng,
            mem,
            ops,
            staging,
            abort_msg: None,
        }
    }

    /// The clock at the end of the program code, and any `bsp_abort`.
    pub(crate) fn finish(self) -> (f64, Option<String>) {
        (self.now, self.abort_msg)
    }

    /// `bsp_nprocs`.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// `bsp_pid`.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// `bsp_time`: this process' virtual clock in seconds.
    pub fn time(&self) -> f64 {
        self.now
    }

    /// `bsp_abort`: record an error state; the runtime stops at this sync.
    pub fn abort(&mut self, msg: &str) {
        self.abort_msg = Some(msg.to_string());
    }

    /// Advances the clock by a raw duration (jittered).
    pub fn elapse(&mut self, seconds: f64) {
        assert!(seconds >= 0.0, "cannot elapse negative time");
        self.now += seconds * self.jitter.draw(self.rng);
    }

    /// Runs `applications` of a kernel at problem size `n` on the modeled
    /// processor, advancing the clock.
    pub fn compute_kernel(&mut self, kernel: &dyn Kernel, n: usize, applications: u64) {
        let t = self.proc_model.time_per_apply(kernel, n) * applications as f64;
        self.elapse(t);
    }

    /// Charges `elements` worth of a kernel whose working set is
    /// `footprint_n` elements — used when a kernel application is split
    /// into regions (the 17-region stencil superstep) but the cache
    /// behaviour is governed by the whole working set.
    pub fn compute_elements(&mut self, kernel: &dyn Kernel, footprint_n: usize, elements: usize) {
        let t = self.proc_model.secs_per_element(kernel, footprint_n) * elements as f64;
        self.elapse(t);
    }

    /// Allocates a process-local buffer (zero-filled).
    pub fn alloc(&mut self, bytes: usize) -> RegHandle {
        self.mem.alloc(bytes)
    }

    /// `bsp_push_reg`: registration becomes usable after the next sync.
    pub fn push_reg(&mut self, h: RegHandle) {
        self.mem.queue_push_reg(h);
        self.elapse(ENQUEUE_OVERHEAD);
    }

    /// Read a local buffer.
    pub fn read_buf(&self, h: RegHandle) -> &[u8] {
        self.mem.read(h)
    }

    /// Write a local buffer directly (local computation results).
    pub fn write_buf(&mut self, h: RegHandle) -> &mut [u8] {
        self.mem.write(h)
    }

    fn check_target(&self, pid: usize, reg: RegHandle, offset: usize, len: usize) {
        assert!(pid < self.nprocs, "target pid {pid} out of range");
        assert!(
            self.mem.is_registered(reg),
            "buffer {reg:?} not registered (push_reg takes effect after the next sync)"
        );
        assert!(
            offset + len <= self.mem.len(reg),
            "remote access [{offset}, {}) exceeds registration of {} bytes",
            offset + len,
            self.mem.len(reg)
        );
    }

    fn put_impl(
        &mut self,
        dst: usize,
        reg: RegHandle,
        offset: usize,
        len: usize,
        hp: bool,
        fill: impl FnOnce(&mut [u8]),
    ) {
        self.check_target(dst, reg, offset, len);
        let mut cost = ENQUEUE_OVERHEAD;
        if !hp {
            cost += len as f64 * BUFFER_COPY_PER_BYTE;
        }
        self.elapse(cost);
        let start = self.staging.len();
        self.staging.resize(start + len, 0);
        fill(&mut self.staging[start..]);
        self.ops.push(CommOp {
            issue: self.now,
            dst,
            reg,
            offset,
            data: start..start + len,
        });
    }

    /// `bsp_put` without a source buffer: a buffered one-sided write of
    /// `len` bytes into `(dst, reg, offset)`, visible there after the next
    /// sync. `fill` receives the put's (zeroed) slot in the runtime's
    /// staging buffer and writes the payload in place, so a program that
    /// produces its bytes — marshals `f64`s, gathers a strided border —
    /// pays one copy. The target is validated before the slot exists;
    /// virtual cost and clock are exactly [`BspCtx::put`]'s.
    pub fn put_with(
        &mut self,
        dst: usize,
        reg: RegHandle,
        offset: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) {
        self.put_impl(dst, reg, offset, len, false, fill);
    }

    /// `bsp_hpput` counterpart of [`BspCtx::put_with`].
    pub fn hpput_with(
        &mut self,
        dst: usize,
        reg: RegHandle,
        offset: usize,
        len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) {
        self.put_impl(dst, reg, offset, len, true, fill);
    }

    /// `bsp_put`: buffered one-sided write of `data` into
    /// `(dst, reg, offset)`, visible there after the next sync.
    pub fn put(&mut self, dst: usize, reg: RegHandle, offset: usize, data: &[u8]) {
        self.put_with(dst, reg, offset, data.len(), |slot| {
            slot.copy_from_slice(data)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_kernels::blas1::AXPY;
    use hpm_kernels::rate::xeon_core;
    use hpm_stats::rng::derive_rng;

    /// Runs `f` against a fresh pid-0-of-4 context; returns its result,
    /// the final clock, the op log and the staged bytes.
    fn with_ctx<R>(f: impl FnOnce(&mut BspCtx) -> R) -> (R, f64, Vec<CommOp>, Vec<u8>) {
        let model = xeon_core();
        let mut rng = derive_rng(1, 1);
        let mut mem = ProcMem::default();
        let (mut ops, mut staging) = (Vec::new(), Vec::new());
        let mut ctx = BspCtx::new(
            0,
            4,
            0.0,
            &model,
            JitterModel::NONE,
            &mut rng,
            &mut mem,
            &mut ops,
            &mut staging,
        );
        let r = f(&mut ctx);
        let (now, _) = ctx.finish();
        (r, now, ops, staging)
    }

    #[test]
    fn identity_and_clock() {
        let ((), now, ..) = with_ctx(|ctx| {
            assert_eq!(ctx.pid(), 0);
            assert_eq!(ctx.nprocs(), 4);
            assert_eq!(ctx.time(), 0.0);
            ctx.elapse(1e-3);
            assert!((ctx.time() - 1e-3).abs() < 1e-15);
        });
        assert!((now - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn compute_kernel_advances_clock_by_model_rate() {
        let model = xeon_core();
        let expect = model.time_per_apply(&AXPY, 1024) * 10.0;
        let ((), now, ..) = with_ctx(|ctx| ctx.compute_kernel(&AXPY, 1024, 10));
        assert!((now - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn put_requires_registration() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_ctx(|ctx| {
                let h = ctx.alloc(16);
                ctx.put(1, h, 0, &[1, 2, 3, 4]);
            })
        }));
        assert!(result.is_err(), "unregistered put must panic");
    }

    #[test]
    fn registered_put_is_recorded_with_issue_time() {
        let ((), _, ops, staging) = with_ctx(|ctx| {
            let h = ctx.alloc(16);
            ctx.push_reg(h);
            ctx.mem.commit_sync();
            ctx.elapse(5e-6);
            ctx.put(2, h, 4, &[9; 8]);
        });
        assert_eq!(ops.len(), 1);
        let CommOp {
            issue,
            dst,
            offset,
            data,
            ..
        } = &ops[0];
        assert!(*issue > 5e-6);
        assert_eq!(*dst, 2);
        assert_eq!(*offset, 4);
        assert_eq!(staging[data.clone()], [9; 8]);
    }

    #[test]
    fn hpput_is_cheaper_than_put() {
        let big = vec![0u8; 1 << 20];
        let ((), t_buffered, ..) = with_ctx(|ctx| {
            let h = ctx.alloc(1 << 20);
            ctx.push_reg(h);
            ctx.mem.commit_sync();
            ctx.put(1, h, 0, &big);
        });
        let ((), t_hp, ..) = with_ctx(|ctx| {
            let h = ctx.alloc(1 << 20);
            ctx.push_reg(h);
            ctx.mem.commit_sync();
            ctx.hpput_with(1, h, 0, big.len(), |s| s.copy_from_slice(&big));
        });
        assert!(t_hp < t_buffered, "hpput {t_hp} vs put {t_buffered}");
    }

    #[test]
    fn out_of_bounds_put_rejected() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_ctx(|ctx| {
                let h = ctx.alloc(4);
                ctx.push_reg(h);
                ctx.mem.commit_sync();
                ctx.put(1, h, 2, &[0; 4]);
            })
        }));
        assert!(result.is_err());
    }

    /// `put_with` validates like `put` — same messages — and does so
    /// before anything is committed: the fill closure never runs, no slot
    /// is reserved, no operation logged and no time charged.
    #[test]
    fn put_with_rejects_bad_targets_before_reserving_the_slot() {
        let model = xeon_core();
        let mut rng = derive_rng(1, 1);
        let mut mem = ProcMem::default();
        let unregistered = mem.alloc(16);
        let registered = mem.alloc(4);
        mem.queue_push_reg(registered);
        mem.commit_sync();
        let (mut ops, mut staging) = (Vec::new(), Vec::new());
        let mut ctx = BspCtx::new(
            0,
            4,
            0.0,
            &model,
            JitterModel::NONE,
            &mut rng,
            &mut mem,
            &mut ops,
            &mut staging,
        );
        let mut filled = false;
        let mut rejected = |dst: usize, reg: RegHandle, offset: usize, len: usize, hp: bool| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if hp {
                    ctx.hpput_with(dst, reg, offset, len, |_| filled = true);
                } else {
                    ctx.put_with(dst, reg, offset, len, |_| filled = true);
                }
            }))
            .expect_err("bad target must be rejected");
            *err.downcast::<String>().expect("assert message")
        };
        let msg = rejected(1, unregistered, 0, 4, false);
        assert!(
            msg.contains("not registered (push_reg takes effect"),
            "{msg}"
        );
        let msg = rejected(1, registered, 2, 4, true);
        assert_eq!(msg, "remote access [2, 6) exceeds registration of 4 bytes");
        let msg = rejected(4, registered, 0, 4, false);
        assert_eq!(msg, "target pid 4 out of range");
        assert_eq!(ctx.time(), 0.0, "a rejected put charges nothing");
        ctx.put_with(1, registered, 1, 3, |slot| slot.copy_from_slice(&[7, 8, 9]));
        drop(ctx);
        assert!(!filled, "fill ran for a rejected put");
        assert_eq!(staging, [7, 8, 9], "only the valid put reserved a slot");
        assert_eq!(ops.len(), 1);
    }

    #[test]
    fn abort_is_captured() {
        let model = xeon_core();
        let mut rng = derive_rng(2, 2);
        let mut mem = ProcMem::default();
        let (mut ops, mut staging) = (Vec::new(), Vec::new());
        let mut ctx = BspCtx::new(
            0,
            2,
            0.0,
            &model,
            JitterModel::NONE,
            &mut rng,
            &mut mem,
            &mut ops,
            &mut staging,
        );
        ctx.abort("boom");
        let (_, abort) = ctx.finish();
        assert_eq!(abort.as_deref(), Some("boom"));
    }
}
