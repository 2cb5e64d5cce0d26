//! Executable SPMD collectives over [`BspCtx`]: the patterns of
//! [`crate::pattern`], run.
//!
//! A collective is defined once, as the [`CollectivePattern`] the verifier
//! and the Eq. 5.4 predictor already consume. One private `BspProgram`
//! walks its compiled plan: superstep 0 allocates and registers the buffer inbound puts
//! land in; superstep `s + 1` first absorbs what stage `s − 1` delivered
//! (if `stage(s − 1).srcs(pid)` is non-empty), then puts to exactly
//! `stage(s).dsts(pid)`, in order; the superstep after the last stage
//! absorbs it and halts. Data committed in one superstep is visible at the
//! start of the next, so a combining step folds its inbox before it sends
//! again. A single process has no stages: it registers and halts.
//!
//! The program is parameterised only by what a pattern does not say: what
//! an edge carries and what its receiver does with it (the private `Carry`
//! enum — one variant per row of DESIGN.md's collectives table). Each
//! `run_*` builds the same `pattern::*` that [`crate::predict`] is handed
//! and runs it, so an edge the predictor charges is an edge the runtime
//! puts, by construction.
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

use crate::pattern::{self, CollectivePattern};

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

/// What a [`CollectivePattern`] leaves open: what an edge carries and what
/// its receiver does with it. Under [`Carry::Fold`] a rank's state is its
/// accumulator and the registered buffer is its inbox; under every other
/// variant the state *is* the registered buffer — an edge carries a range
/// of the sender's buffer to the same range of the receiver's, where it
/// needs no further handling, and an empty range is no message.
#[derive(Debug, Clone, Copy)]
enum Carry {
    /// The whole vector (flat broadcast).
    Replicate,
    /// Stage 0 carries the destination's chunk of the vector, stage 1 the
    /// sender's own (two-phase broadcast). Chunk `j` is the element range
    /// `[j·c, min((j+1)·c, n))` with `c = ⌈n/p⌉`.
    OwnChunk,
    /// The sender's accumulator, empty or not. Its receiver adds it to
    /// its own during the first `k` stages and adopts it from stage `k`
    /// on (reduce, scan: `k` = every stage; allreduce: the up phase).
    Fold(usize),
    /// Every block the sender holds — its own and those it was sent —
    /// one put per block (gather).
    HeldSpan,
    /// The chunk addressed to the destination, generated in the slot
    /// (total exchange).
    Personalised,
}

/// The one program: a [`CollectivePattern`] walked stage by stage.
struct Walk<'a> {
    pattern: &'a CollectivePattern,
    carry: Carry,
    /// Elements per vector (broadcasts, combining), block (gather) or
    /// chunk (total exchange).
    n: usize,
    step: usize,
    /// The registered buffer inbound puts land in.
    buf: Option<RegHandle>,
    /// [`Carry::Fold`]'s accumulator; otherwise forwarding scratch, and
    /// after the last superstep the buffer's contents.
    vals: Vec<f64>,
}

impl<'a> Walk<'a> {
    fn new(pattern: &'a CollectivePattern, carry: Carry, n: usize) -> Walk<'a> {
        Walk {
            pattern,
            carry,
            n,
            step: 0,
            buf: None,
            vals: Vec::new(),
        }
    }

    fn buf(&self) -> RegHandle {
        self.buf.expect("registered in superstep 0")
    }

    /// Superstep 0: allocate the buffer, place this rank's input, register.
    fn register(&mut self, ctx: &mut BspCtx) {
        let (pid, p, n) = (ctx.pid(), ctx.nprocs(), self.n);
        let blocks = match self.carry {
            Carry::HeldSpan | Carry::Personalised => p,
            _ => 1,
        };
        let buf = ctx.alloc(blocks * n * 8);
        let own = pid * n * 8..(pid + 1) * n * 8;
        match self.carry {
            Carry::Replicate | Carry::OwnChunk => {
                if self.pattern.root() == Some(pid) {
                    write_f64s(seed_values(pid, n), ctx.write_buf(buf));
                }
            }
            Carry::Fold(_) => self.vals = seed_vector(pid, n),
            Carry::HeldSpan => write_f64s(seed_values(pid, n), &mut ctx.write_buf(buf)[own]),
            Carry::Personalised => {
                write_f64s(chunk_values(pid, pid, n), &mut ctx.write_buf(buf)[own]);
            }
        }
        ctx.push_reg(buf);
        self.buf = Some(buf);
    }

    /// What a receiver of stage `s` does with what landed in its buffer.
    fn absorb(&mut self, ctx: &BspCtx, s: usize) {
        let inbound = ctx.read_buf(self.buf());
        match self.carry {
            Carry::Fold(k) if s < k => {
                for (a, b) in self.vals.iter_mut().zip(f64s(inbound)) {
                    *a += b;
                }
            }
            Carry::Fold(_) => load(&mut self.vals, inbound),
            _ => {}
        }
    }

    /// The puts of stage `s` from this rank to `dsts`, in order.
    fn send(&mut self, ctx: &mut BspCtx, s: usize, dsts: &[u32]) {
        let (pid, p, n) = (ctx.pid(), ctx.nprocs(), self.n);
        let chunk = |j: usize| {
            let c = n.div_ceil(p);
            ((j * c).min(n), ((j + 1) * c).min(n))
        };
        match self.carry {
            Carry::Replicate => self.forward(ctx, dsts, (0, n)),
            Carry::OwnChunk if s == 0 => {
                for &dst in dsts {
                    self.forward(ctx, &[dst], chunk(dst as usize));
                }
            }
            Carry::OwnChunk => self.forward(ctx, dsts, chunk(pid)),
            Carry::Fold(_) => {
                for &dst in dsts {
                    hpput_f64s(ctx, dst as usize, self.buf(), 0, &self.vals);
                }
            }
            Carry::HeldSpan => {
                // After s completed stages virtual rank vr (root ≡ 0)
                // holds the blocks of [vr, vr + 2^s), clipped to p; each
                // lives at its physical rank's offset.
                let root = self.pattern.root().expect("gather is rooted");
                let vr = (pid + p - root) % p;
                for w in vr..vr + (1usize << s).min(p - vr) {
                    let b = (w + root) % p;
                    self.forward(ctx, dsts, (b * n, (b + 1) * n));
                }
            }
            Carry::Personalised if n > 0 => {
                for &dst in dsts {
                    let dst = dst as usize;
                    ctx.hpput_with(dst, self.buf(), pid * n * 8, n * 8, |slot| {
                        write_f64s(chunk_values(pid, dst, n), slot)
                    });
                }
            }
            Carry::Personalised => {}
        }
    }

    /// Puts elements `lo..hi` of this rank's buffer to the same place at
    /// every one of `dsts`: unpacked into `vals` once, re-marshalled in
    /// each slot.
    fn forward(&mut self, ctx: &mut BspCtx, dsts: &[u32], (lo, hi): (usize, usize)) {
        if lo < hi && !dsts.is_empty() {
            let buf = self.buf();
            load(&mut self.vals, &ctx.read_buf(buf)[lo * 8..hi * 8]);
            for &dst in dsts {
                hpput_f64s(ctx, dst as usize, buf, lo * 8, &self.vals);
            }
        }
    }
}

impl BspProgram for Walk<'_> {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let (plan, pid) = (self.pattern.compiled(), ctx.pid());
        let step = self.step;
        self.step += 1;
        if step == 0 {
            self.register(ctx);
            return StepOutcome::Continue;
        }
        // Stage s communicates now; stage s − 1 landed at the last sync.
        let s = step - 1;
        if s > 0 && !plan.stage(s - 1).srcs(pid).is_empty() {
            self.absorb(ctx, s - 1);
        }
        if s == plan.stages() {
            if !matches!(self.carry, Carry::Fold(_)) {
                let buf = self.buf();
                load(&mut self.vals, ctx.read_buf(buf));
            }
            return StepOutcome::Halt;
        }
        self.send(ctx, s, plan.stage(s).dsts(pid));
        StepOutcome::Continue
    }
}

/// Runs `pattern` on `cfg`'s machine, `n` elements per vector, block or
/// chunk; each rank's result is the program's final `vals`.
fn run(cfg: &BspConfig, pattern: &CollectivePattern, carry: Carry, n: usize) -> CollectiveOutcome {
    let name = pattern.compiled().name();
    assert_eq!(
        pattern.compiled().p(),
        cfg.placement.nprocs(),
        "{name} is built for another process count than the placement's"
    );
    let res = run_spmd(cfg, |_| Walk::new(pattern, carry, n))
        .unwrap_or_else(|e| panic!("{name} run: {e}"));
    CollectiveOutcome {
        total_time: res.total_time,
        supersteps: res.superstep_count(),
        values: res.programs.into_iter().map(|w| w.vals).collect(),
    }
}

/// The pattern builders' `bytes` for `n` `f64`s.
fn bytes(n: usize) -> u64 {
    8 * n as u64
}

/// One-phase broadcast: the root puts the full vector to every rank.
pub fn run_broadcast_flat(cfg: &BspConfig, root: usize, n: usize) -> CollectiveOutcome {
    let pat = pattern::broadcast_flat(cfg.placement.nprocs(), root, bytes(n));
    run(cfg, &pat, Carry::Replicate, n)
}

/// Two-phase broadcast (scatter + allgather): `p`-fold less data through
/// the root at one extra stage of latency.
pub fn run_broadcast_two_phase(cfg: &BspConfig, root: usize, n: usize) -> CollectiveOutcome {
    let pat = pattern::broadcast_two_phase(cfg.placement.nprocs(), root, bytes(n));
    run(cfg, &pat, Carry::OwnChunk, n)
}

/// Binomial-tree reduce: the root ends holding the elementwise sum.
pub fn run_reduce(cfg: &BspConfig, root: usize, n: usize) -> CollectiveOutcome {
    let pat = pattern::reduce_binomial(cfg.placement.nprocs(), root, bytes(n));
    run(cfg, &pat, Carry::Fold(pat.compiled().stages()), n)
}

/// Allreduce (reduce + mirrored broadcast): every rank ends holding the
/// elementwise sum.
pub fn run_allreduce(cfg: &BspConfig, n: usize) -> CollectiveOutcome {
    let pat = pattern::allreduce(cfg.placement.nprocs(), bytes(n));
    run(cfg, &pat, Carry::Fold(pat.compiled().stages() / 2), n)
}

/// Inclusive prefix scan: rank `i` ends holding the elementwise sum of
/// ranks `0..=i`.
pub fn run_scan(cfg: &BspConfig, n: usize) -> CollectiveOutcome {
    let pat = pattern::scan(cfg.placement.nprocs(), bytes(n));
    run(cfg, &pat, Carry::Fold(pat.compiled().stages()), n)
}

/// Binomial-tree gather: the root ends holding every rank's block, at
/// physical-rank offsets.
pub fn run_gather(cfg: &BspConfig, root: usize, n: usize) -> CollectiveOutcome {
    let pat = pattern::gather_binomial(cfg.placement.nprocs(), root, bytes(n));
    run(cfg, &pat, Carry::HeldSpan, n)
}

/// Total exchange: rank `j` ends holding chunk `i → j` at offset `i·n`,
/// for every `i`.
pub fn run_total_exchange(cfg: &BspConfig, n: usize) -> CollectiveOutcome {
    let pat = pattern::total_exchange(cfg.placement.nprocs(), bytes(n));
    run(cfg, &pat, Carry::Personalised, n)
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

    /// The seven collectives as the `run_*` functions pair them: the
    /// pattern and what its edges carry.
    fn seven(p: usize, root: usize, n: usize) -> [(CollectivePattern, Carry); 7] {
        let b = bytes(n);
        // The adding stages are the first of the pattern's `phases`.
        let folding = |pat: CollectivePattern, phases: usize| {
            let k = pat.compiled().stages() / phases;
            (pat, Carry::Fold(k))
        };
        [
            (pattern::broadcast_flat(p, root, b), Carry::Replicate),
            (pattern::broadcast_two_phase(p, root, b), Carry::OwnChunk),
            folding(pattern::reduce_binomial(p, root, b), 1),
            folding(pattern::allreduce(p, b), 2),
            folding(pattern::scan(p, b), 1),
            (pattern::gather_binomial(p, root, b), Carry::HeldSpan),
            (pattern::total_exchange(p, b), Carry::Personalised),
        ]
    }

    fn supersteps_of_all_seven(p: usize, root: usize, n: usize) -> [usize; 7] {
        let c = &cfg(p);
        [
            run_broadcast_flat(c, root, n),
            run_broadcast_two_phase(c, root, n),
            run_reduce(c, root, n),
            run_allreduce(c, n),
            run_scan(c, n),
            run_gather(c, root, n),
            run_total_exchange(c, n),
        ]
        .map(|out| out.supersteps)
    }

    #[test]
    fn superstep_counts_match_stage_structure() {
        // Stage-per-superstep: register, one per stage, absorb-and-halt.
        for (p, root) in [(8, 0), (13, 5)] {
            let ran = supersteps_of_all_seven(p, root, 4);
            for ((pat, _), ran) in seven(p, root, 4).iter().zip(ran) {
                let plan = pat.compiled();
                assert_eq!(ran, 2 + plan.stages(), "{} p={p}", plan.name());
            }
        }
    }

    #[test]
    fn a_single_process_registers_and_halts() {
        // A zero-stage pattern is two supersteps for every collective.
        // Until PR 20 the hand-written flat broadcast, two-phase broadcast
        // and total exchange stepped through their fixed 1 / 2 / 1 stages
        // even at p = 1 (3 / 4 / 3 supersteps, the extra ones empty);
        // total time and values were and are the same either way.
        assert_eq!(supersteps_of_all_seven(1, 0, 4), [2; 7]);
        assert_eq!(
            run_broadcast_flat(&cfg(1), 0, 4).values,
            [seed_vector(0, 4)]
        );
        assert_eq!(
            run_total_exchange(&cfg(1), 4).values,
            [exchange_chunk(0, 0, 4)]
        );
    }

    /// Pattern ≡ program, superstep by superstep: superstep `s + 1`
    /// commits one put per edge of stage `s`, each of the payload
    /// schedule's size — what `predict_collective` charges is what the
    /// runtime moves. Gather is the one intended difference (DESIGN.md):
    /// the pattern models an edge as one message of the sender's whole
    /// span, the program puts the span block by block.
    #[test]
    fn every_superstep_commits_its_stage() {
        for p in [2usize, 3, 5, 8, 13, 16] {
            // p | n, so the two-phase chunks are the schedule's ⌈8n/p⌉.
            let (root, n) = (p - 1, 3 * p);
            for (pat, carry) in seven(p, root, n) {
                let res = run_spmd(&cfg(p), |_| Walk::new(&pat, carry, n)).expect("clean run");
                let (plan, name) = (pat.compiled(), pat.compiled().name());
                assert_eq!(res.superstep_count(), 2 + plan.stages(), "{name} p={p}");
                for (t, trace) in res.supersteps.iter().enumerate() {
                    let (ops, each) = match t.checked_sub(1).filter(|&s| s < plan.stages()) {
                        None => (0, 0),
                        Some(s) if matches!(carry, Carry::HeldSpan) => {
                            let stage = plan.stage(s);
                            let held = |i: usize| (1usize << s).min(p - (i + p - root) % p);
                            let senders = (0..p).filter(|&i| !stage.dsts(i).is_empty());
                            (senders.map(held).sum(), bytes(n))
                        }
                        Some(s) => (plan.stage(s).edge_count(), pat.payload().bytes(s)),
                    };
                    assert_eq!(trace.ops, ops, "{name} p={p} superstep {t}");
                    assert_eq!(
                        trace.payload_bytes,
                        ops as u64 * each,
                        "{name} p={p} superstep {t}"
                    );
                }
            }
        }
    }

    /// An out-of-range root is the pattern builder's to reject, before the
    /// first superstep. (The hand-written broadcasts ran it and returned
    /// all-zero vectors; reduce and gather overflowed.)
    #[test]
    #[should_panic(expected = "root out of range")]
    fn broadcast_flat_rejects_an_out_of_range_root() {
        run_broadcast_flat(&cfg(4), 7, 3);
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn broadcast_two_phase_rejects_an_out_of_range_root() {
        run_broadcast_two_phase(&cfg(4), 7, 3);
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn reduce_rejects_an_out_of_range_root() {
        run_reduce(&cfg(4), 7, 3);
    }

    #[test]
    #[should_panic(expected = "root out of range")]
    fn gather_rejects_an_out_of_range_root() {
        run_gather(&cfg(4), 7, 3);
    }

    #[test]
    #[should_panic(expected = "another process count")]
    fn a_pattern_for_another_process_count_is_rejected() {
        run(&cfg(4), &pattern::scan(5, 8), Carry::Fold(3), 1);
    }
}
