//! Executable SPMD collective implementations over [`BspCtx`].
//!
//! Each collective here is the *runnable* twin of a matrix pattern in
//! [`crate::pattern`]: the same stage structure, expressed as BSPlib
//! supersteps that move real `f64` payload through the simulated cluster's
//! process memories. One superstep per communication stage; data committed
//! in stage `s` is visible at the start of superstep `s + 1`, so combining
//! steps (reduce, scan) fold their inbound staging buffer before issuing
//! the next stage's puts.
//!
//! All programs run on deterministic seed data ([`seed_vector`],
//! [`exchange_chunk`]): integer-valued `f64`s, so sums are exact and
//! independent of combining order, which lets the test suites assert
//! numeric equality rather than tolerances.
//!
//! Payload is marshalled in place: a program writes its `f64`s straight
//! into the put's slot ([`BspCtx::hpput_with`]) and folds or unpacks
//! straight from its registered bytes — no byte or `f64` temporary per
//! put or per stage.

use hpm_bsplib::ctx::BspCtx;
use hpm_bsplib::mem::{f64s, write_f64s, RegHandle};
use hpm_bsplib::ops::StepOutcome;
use hpm_bsplib::runtime::{run_spmd, BspConfig, BspProgram};

use crate::pattern::log2_ceil;

/// Result of running one collective through the BSPlib runtime.
#[derive(Debug, Clone)]
pub struct CollectiveOutcome {
    /// Total virtual time of the run (all supersteps, including syncs).
    pub total_time: f64,
    /// Supersteps executed.
    pub supersteps: usize,
    /// Per-process result vector at the end of the run.
    pub values: Vec<Vec<f64>>,
}

/// Deterministic per-rank input vector: element `k` of rank `r` is
/// `r·1000 + k`. Integer-valued, so every combining order yields the same
/// exact sum.
pub fn seed_vector(pid: usize, n: usize) -> Vec<f64> {
    seed_values(pid, n).collect()
}

fn seed_values(pid: usize, n: usize) -> impl ExactSizeIterator<Item = f64> {
    (0..n).map(move |k| (pid * 1000 + k) as f64)
}

/// Deterministic total-exchange chunk from `src` to `dst`.
pub fn exchange_chunk(src: usize, dst: usize, n: usize) -> Vec<f64> {
    chunk_values(src, dst, n).collect()
}

fn chunk_values(src: usize, dst: usize, n: usize) -> impl ExactSizeIterator<Item = f64> {
    (0..n).map(move |k| (src * 10_000 + dst * 100 + k) as f64)
}

/// Replaces `out` with the `f64`s stored in `bytes`.
fn load(out: &mut Vec<f64>, bytes: &[u8]) {
    out.clear();
    out.extend(f64s(bytes));
}

/// `hpput` of `vals` into `(dst, reg, offset)`, marshalled in the slot.
fn hpput_f64s(ctx: &mut BspCtx, dst: usize, reg: RegHandle, offset: usize, vals: &[f64]) {
    ctx.hpput_with(dst, reg, offset, vals.len() * 8, |slot| {
        write_f64s(vals.iter().copied(), slot)
    });
}

/// Virtual rank with the root rotated to 0.
fn vrank(pid: usize, root: usize, p: usize) -> usize {
    (pid + p - root) % p
}

/// Physical rank of a virtual rank.
fn prank(vr: usize, root: usize, p: usize) -> usize {
    (vr + root) % p
}

/// Binomial-tree roles at stage `s` (virtual rank space, root ≡ 0).
fn sends_in(vr: usize, s: usize) -> bool {
    vr % (2 << s) == (1 << s)
}

fn receives_in(vr: usize, s: usize, p: usize) -> bool {
    vr.is_multiple_of(2 << s) && vr + (1 << s) < p
}

fn finish<P: BspProgram>(
    res: hpm_bsplib::runtime::BspRunResult<P>,
    take: impl Fn(P) -> Vec<f64>,
) -> CollectiveOutcome {
    CollectiveOutcome {
        total_time: res.total_time,
        supersteps: res.superstep_count(),
        values: res.programs.into_iter().map(take).collect(),
    }
}

// ------------------------------------------------------------- broadcast

struct BcastFlat {
    root: usize,
    n: usize,
    step: usize,
    buf: Option<RegHandle>,
    out: Vec<f64>,
}

impl BspProgram for BcastFlat {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        match self.step {
            0 => {
                let h = ctx.alloc(self.n * 8);
                if ctx.pid() == self.root {
                    self.out = seed_vector(self.root, self.n);
                    write_f64s(self.out.iter().copied(), ctx.write_buf(h));
                }
                ctx.push_reg(h);
                self.buf = Some(h);
                self.step = 1;
                StepOutcome::Continue
            }
            1 => {
                if ctx.pid() == self.root && self.n > 0 {
                    let h = self.buf.expect("registered");
                    for dst in 0..ctx.nprocs() {
                        if dst != self.root {
                            hpput_f64s(ctx, dst, h, 0, &self.out);
                        }
                    }
                }
                self.step = 2;
                StepOutcome::Continue
            }
            _ => {
                load(&mut self.out, ctx.read_buf(self.buf.expect("registered")));
                StepOutcome::Halt
            }
        }
    }
}

/// One-phase broadcast: the root puts the full vector to every rank.
pub fn run_broadcast_flat(cfg: &BspConfig, root: usize, n: usize) -> CollectiveOutcome {
    let res = run_spmd(cfg, |_| BcastFlat {
        root,
        n,
        step: 0,
        buf: None,
        out: Vec::new(),
    })
    .expect("broadcast-flat run");
    finish(res, |prog| prog.out)
}

struct BcastTwoPhase {
    root: usize,
    n: usize,
    step: usize,
    buf: Option<RegHandle>,
    out: Vec<f64>,
}

impl BcastTwoPhase {
    /// Chunk of rank `j`: element range `[j·c, min((j+1)·c, n))`.
    fn chunk_range(&self, j: usize, p: usize) -> (usize, usize) {
        let c = self.n.div_ceil(p);
        ((j * c).min(self.n), ((j + 1) * c).min(self.n))
    }
}

impl BspProgram for BcastTwoPhase {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let p = ctx.nprocs();
        match self.step {
            0 => {
                let h = ctx.alloc(self.n * 8);
                if ctx.pid() == self.root {
                    self.out = seed_vector(self.root, self.n);
                    write_f64s(self.out.iter().copied(), ctx.write_buf(h));
                }
                ctx.push_reg(h);
                self.buf = Some(h);
                self.step = 1;
                StepOutcome::Continue
            }
            1 => {
                // Scatter: root sends chunk j to rank j.
                if ctx.pid() == self.root {
                    let h = self.buf.expect("registered");
                    for j in 0..p {
                        let (lo, hi) = self.chunk_range(j, p);
                        if j != self.root && lo < hi {
                            hpput_f64s(ctx, j, h, lo * 8, &self.out[lo..hi]);
                        }
                    }
                }
                self.step = 2;
                StepOutcome::Continue
            }
            2 => {
                // Allgather: every rank sends its own chunk (scattered
                // into its registered buffer) to all others.
                let h = self.buf.expect("registered");
                let (lo, hi) = self.chunk_range(ctx.pid(), p);
                if lo < hi {
                    load(&mut self.out, &ctx.read_buf(h)[lo * 8..hi * 8]);
                    for dst in 0..p {
                        if dst != ctx.pid() {
                            hpput_f64s(ctx, dst, h, lo * 8, &self.out);
                        }
                    }
                }
                self.step = 3;
                StepOutcome::Continue
            }
            _ => {
                load(&mut self.out, ctx.read_buf(self.buf.expect("registered")));
                StepOutcome::Halt
            }
        }
    }
}

/// Two-phase broadcast (scatter + allgather): `p`-fold less data through
/// the root at one extra stage of latency.
pub fn run_broadcast_two_phase(cfg: &BspConfig, root: usize, n: usize) -> CollectiveOutcome {
    let res = run_spmd(cfg, |_| BcastTwoPhase {
        root,
        n,
        step: 0,
        buf: None,
        out: Vec::new(),
    })
    .expect("broadcast-two-phase run");
    finish(res, |prog| prog.out)
}

// ------------------------------------------- combining trees (reduce &c)

/// Which collective a [`Combining`] program executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CombineKind {
    /// Binomial combining tree toward the root.
    Reduce,
    /// Reduce to rank 0 followed by the mirrored binomial broadcast.
    Allreduce,
    /// Hillis–Steele inclusive prefix scan.
    Scan,
}

/// Shared engine for the combining collectives: one superstep per stage,
/// each folding the staging buffer filled in the previous stage before
/// issuing its own puts.
struct Combining {
    kind: CombineKind,
    root: usize,
    n: usize,
    step: usize,
    staging: Option<RegHandle>,
    acc: Vec<f64>,
}

impl Combining {
    fn fold_add(&mut self, ctx: &BspCtx) {
        let inbound = f64s(ctx.read_buf(self.staging.expect("registered")));
        for (a, b) in self.acc.iter_mut().zip(inbound) {
            *a += b;
        }
    }

    fn replace(&mut self, ctx: &BspCtx) {
        load(
            &mut self.acc,
            ctx.read_buf(self.staging.expect("registered")),
        );
    }
}

impl BspProgram for Combining {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let p = ctx.nprocs();
        let s_total = log2_ceil(p);
        let vr = match self.kind {
            CombineKind::Scan => ctx.pid(),
            _ => vrank(ctx.pid(), self.root, p),
        };
        if self.step == 0 {
            let h = ctx.alloc(self.n * 8);
            ctx.push_reg(h);
            self.staging = Some(h);
            self.acc = seed_vector(ctx.pid(), self.n);
            self.step = 1;
            return StepOutcome::Continue;
        }
        let t = self.step; // superstep index: stage t−1 communicates now
                           // Fold what landed at the end of the previous superstep.
        if t >= 2 {
            let s_prev = t - 2;
            match self.kind {
                CombineKind::Reduce if s_prev < s_total && receives_in(vr, s_prev, p) => {
                    self.fold_add(ctx)
                }
                CombineKind::Scan if s_prev < s_total && vr >= (1 << s_prev) => self.fold_add(ctx),
                CombineKind::Allreduce => {
                    if s_prev < s_total {
                        // Up-phase receive.
                        if receives_in(vr, s_prev, p) {
                            self.fold_add(ctx);
                        }
                    } else if s_prev < 2 * s_total {
                        // Down-phase receive: the final value replaces acc.
                        let d = 1usize << (2 * s_total - 1 - s_prev);
                        if vr % (2 * d) == d {
                            self.replace(ctx);
                        }
                    }
                }
                _ => {}
            }
        }
        // Issue this superstep's stage, if any remains.
        let stages = match self.kind {
            CombineKind::Allreduce => 2 * s_total,
            _ => s_total,
        };
        if t <= stages {
            let s = t - 1;
            let h = self.staging.expect("registered");
            match self.kind {
                CombineKind::Reduce if sends_in(vr, s) => {
                    let dst = prank(vr - (1 << s), self.root, p);
                    hpput_f64s(ctx, dst, h, 0, &self.acc);
                }
                CombineKind::Scan if vr + (1 << s) < p => {
                    hpput_f64s(ctx, vr + (1 << s), h, 0, &self.acc);
                }
                CombineKind::Allreduce => {
                    if s < s_total {
                        if sends_in(vr, s) {
                            hpput_f64s(ctx, vr - (1 << s), h, 0, &self.acc);
                        }
                    } else {
                        let d = 1usize << (2 * s_total - 1 - s);
                        if vr % (2 * d) == 0 && vr + d < p {
                            hpput_f64s(ctx, vr + d, h, 0, &self.acc);
                        }
                    }
                }
                _ => {}
            }
            self.step += 1;
            StepOutcome::Continue
        } else {
            StepOutcome::Halt
        }
    }
}

fn run_combining(cfg: &BspConfig, kind: CombineKind, root: usize, n: usize) -> CollectiveOutcome {
    // Only the reduce arms map virtual ranks back through the root
    // rotation; allreduce and scan address peers by raw virtual rank.
    assert!(
        kind == CombineKind::Reduce || root == 0,
        "{kind:?} does not support a non-zero root"
    );
    let res = run_spmd(cfg, |_| Combining {
        kind,
        root,
        n,
        step: 0,
        staging: None,
        acc: Vec::new(),
    })
    .expect("combining collective run");
    finish(res, |prog| prog.acc)
}

/// Binomial-tree reduce: the root ends holding the elementwise sum.
pub fn run_reduce(cfg: &BspConfig, root: usize, n: usize) -> CollectiveOutcome {
    run_combining(cfg, CombineKind::Reduce, root, n)
}

/// Allreduce (reduce + mirrored broadcast): every rank ends holding the
/// elementwise sum.
pub fn run_allreduce(cfg: &BspConfig, n: usize) -> CollectiveOutcome {
    run_combining(cfg, CombineKind::Allreduce, 0, n)
}

/// Inclusive prefix scan: rank `i` ends holding the elementwise sum of
/// ranks `0..=i`.
pub fn run_scan(cfg: &BspConfig, n: usize) -> CollectiveOutcome {
    run_combining(cfg, CombineKind::Scan, 0, n)
}

// ----------------------------------------------------------------- gather

struct Gather {
    root: usize,
    n: usize,
    step: usize,
    buf: Option<RegHandle>,
    out: Vec<f64>,
}

impl BspProgram for Gather {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let p = ctx.nprocs();
        let s_total = log2_ceil(p);
        let vr = vrank(ctx.pid(), self.root, p);
        let block = self.n * 8;
        match self.step {
            0 => {
                let h = ctx.alloc(p * block);
                if block > 0 {
                    let pid = ctx.pid();
                    write_f64s(
                        seed_values(pid, self.n),
                        &mut ctx.write_buf(h)[pid * block..(pid + 1) * block],
                    );
                }
                ctx.push_reg(h);
                self.buf = Some(h);
                self.step = 1;
                StepOutcome::Continue
            }
            t if t <= s_total => {
                let s = t - 1;
                if sends_in(vr, s) && block > 0 {
                    // Held span after s completed stages: [vr, vr + 2^s)
                    // clipped to p, in virtual ranks; blocks live at their
                    // physical offsets.
                    let h = self.buf.expect("registered");
                    let dst = prank(vr - (1 << s), self.root, p);
                    let held = (1usize << s).min(p - vr);
                    for w in vr..vr + held {
                        let off = prank(w, self.root, p) * block;
                        load(&mut self.out, &ctx.read_buf(h)[off..off + block]);
                        hpput_f64s(ctx, dst, h, off, &self.out);
                    }
                }
                self.step += 1;
                StepOutcome::Continue
            }
            _ => {
                load(&mut self.out, ctx.read_buf(self.buf.expect("registered")));
                StepOutcome::Halt
            }
        }
    }
}

/// Binomial-tree gather: the root ends holding every rank's block, at
/// physical-rank offsets.
pub fn run_gather(cfg: &BspConfig, root: usize, n: usize) -> CollectiveOutcome {
    let res = run_spmd(cfg, |_| Gather {
        root,
        n,
        step: 0,
        buf: None,
        out: Vec::new(),
    })
    .expect("gather run");
    finish(res, |prog| prog.out)
}

// --------------------------------------------------------- total exchange

struct TotalExchange {
    n: usize,
    step: usize,
    buf: Option<RegHandle>,
    out: Vec<f64>,
}

impl BspProgram for TotalExchange {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let p = ctx.nprocs();
        let block = self.n * 8;
        match self.step {
            0 => {
                let h = ctx.alloc(p * block);
                if block > 0 {
                    let pid = ctx.pid();
                    write_f64s(
                        chunk_values(pid, pid, self.n),
                        &mut ctx.write_buf(h)[pid * block..(pid + 1) * block],
                    );
                }
                ctx.push_reg(h);
                self.buf = Some(h);
                self.step = 1;
                StepOutcome::Continue
            }
            1 => {
                if block > 0 {
                    let h = self.buf.expect("registered");
                    let src = ctx.pid();
                    for dst in 0..p {
                        if dst != src {
                            ctx.hpput_with(dst, h, src * block, block, |slot| {
                                write_f64s(chunk_values(src, dst, self.n), slot)
                            });
                        }
                    }
                }
                self.step = 2;
                StepOutcome::Continue
            }
            _ => {
                load(&mut self.out, ctx.read_buf(self.buf.expect("registered")));
                StepOutcome::Halt
            }
        }
    }
}

/// Total exchange: rank `j` ends holding chunk `i → j` at offset `i·n`,
/// for every `i`.
pub fn run_total_exchange(cfg: &BspConfig, n: usize) -> CollectiveOutcome {
    let res = run_spmd(cfg, |_| TotalExchange {
        n,
        step: 0,
        buf: None,
        out: Vec::new(),
    })
    .expect("total-exchange run");
    finish(res, |prog| prog.out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_kernels::rate::xeon_core;
    use hpm_simnet::params::xeon_cluster_params;
    use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

    fn cfg(p: usize) -> BspConfig {
        BspConfig::new(
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
            xeon_core(),
            4711,
        )
    }

    fn expected_sum(p: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| (0..p).map(|r| (r * 1000 + k) as f64).sum())
            .collect()
    }

    #[test]
    fn broadcast_flat_replicates_root_data() {
        for (p, root) in [(2, 0), (5, 3), (8, 0), (16, 7)] {
            let out = run_broadcast_flat(&cfg(p), root, 24);
            let want = seed_vector(root, 24);
            for (pid, v) in out.values.iter().enumerate() {
                assert_eq!(v, &want, "p={p} root={root} pid={pid}");
            }
            assert!(out.total_time > 0.0);
        }
    }

    #[test]
    fn broadcast_two_phase_replicates_root_data() {
        // Includes p ∤ n (ragged chunks) and p > n (empty chunks).
        for (p, root, n) in [(2, 1, 10), (5, 3, 17), (8, 0, 64), (16, 9, 7)] {
            let out = run_broadcast_two_phase(&cfg(p), root, n);
            let want = seed_vector(root, n);
            for (pid, v) in out.values.iter().enumerate() {
                assert_eq!(v, &want, "p={p} root={root} n={n} pid={pid}");
            }
        }
    }

    #[test]
    fn reduce_sums_at_root() {
        for (p, root) in [(1, 0), (2, 1), (6, 2), (8, 0), (16, 5)] {
            let out = run_reduce(&cfg(p), root, 16);
            assert_eq!(out.values[root], expected_sum(p, 16), "p={p} root={root}");
        }
    }

    #[test]
    fn allreduce_sums_everywhere() {
        for p in [1usize, 2, 3, 6, 8, 13, 16] {
            let out = run_allreduce(&cfg(p), 12);
            let want = expected_sum(p, 12);
            for (pid, v) in out.values.iter().enumerate() {
                assert_eq!(v, &want, "p={p} pid={pid}");
            }
        }
    }

    #[test]
    fn scan_yields_inclusive_prefixes() {
        for p in [1usize, 2, 5, 8, 11, 16] {
            let out = run_scan(&cfg(p), 8);
            for (pid, v) in out.values.iter().enumerate() {
                let want = expected_sum(pid + 1, 8);
                assert_eq!(v, &want, "p={p} pid={pid}");
            }
        }
    }

    #[test]
    fn gather_concatenates_at_root() {
        for (p, root) in [(2, 0), (6, 4), (8, 0), (16, 11)] {
            let n = 4;
            let out = run_gather(&cfg(p), root, n);
            let mut want = Vec::new();
            for r in 0..p {
                want.extend(seed_vector(r, n));
            }
            assert_eq!(out.values[root], want, "p={p} root={root}");
        }
    }

    #[test]
    fn total_exchange_transposes_chunks() {
        for p in [2usize, 5, 8] {
            let n = 3;
            let out = run_total_exchange(&cfg(p), n);
            for (dst, v) in out.values.iter().enumerate() {
                let mut want = Vec::new();
                for src in 0..p {
                    want.extend(exchange_chunk(src, dst, n));
                }
                assert_eq!(v, &want, "p={p} dst={dst}");
            }
        }
    }

    #[test]
    fn two_phase_broadcast_beats_flat_for_large_vectors() {
        // 16 ranks over two gigabit-linked nodes, 1 MiB vector: pushing
        // 15 full copies through the root's NIC must cost more than the
        // scatter+allgather's two rounds of 1/16-size chunks.
        let p = 16;
        let n = 1 << 17; // 1 MiB of f64s
        let flat = run_broadcast_flat(&cfg(p), 0, n).total_time;
        let two = run_broadcast_two_phase(&cfg(p), 0, n).total_time;
        assert!(flat > 1.5 * two, "flat {flat} should dwarf two-phase {two}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_allreduce(&cfg(9), 32);
        let b = run_allreduce(&cfg(9), 32);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn superstep_counts_match_stage_structure() {
        // Stage-per-superstep: register + ⌈log₂p⌉ stages + drain.
        let p = 8;
        assert_eq!(run_reduce(&cfg(p), 0, 4).supersteps, 2 + log2_ceil(p));
        assert_eq!(run_allreduce(&cfg(p), 4).supersteps, 2 + 2 * log2_ceil(p));
        assert_eq!(run_broadcast_flat(&cfg(p), 0, 4).supersteps, 3);
        assert_eq!(run_broadcast_two_phase(&cfg(p), 0, 4).supersteps, 4);
        assert_eq!(run_total_exchange(&cfg(p), 4).supersteps, 3);
    }
}
