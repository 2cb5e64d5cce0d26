//! Property test of the BSPlib payload path.
//!
//! Random scripted programs — puts and hp-puts with overlapping targets,
//! self-puts, zero-length puts — run twice through `run_spmd` on the
//! jittered platform: once committing every buffered put with `put`, once
//! with `put_with`; hp-puts commit through `hpput_with` in both. The two
//! runs must be bitwise equal in total time, every `SuperstepTrace`
//! vector and final memory (same `elapse` sequence ⇒ same `rng` stream
//! ⇒ same simulated times), and both must match an oracle that applies
//! the BSPlib order directly: puts land in `(pid, program order)`.

use hpm::bsplib::runtime::{run_spmd, BspConfig, BspProgram, BspRunResult};
use hpm::bsplib::{BspCtx, RegHandle, StepOutcome};
use hpm::kernels::rate::xeon_core;
use hpm::simnet::params::xeon_cluster_params;
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};
use proptest::prelude::*;

/// Bytes of the registered buffer `A`, every put's target.
const BUF: usize = 48;

/// SplitMix64 step: the case's own generator.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone)]
enum Act {
    Put {
        hp: bool,
        dst: usize,
        offset: usize,
        len: usize,
    },
    Work(f64),
}

/// `script[t][pid]`: what `pid` does, in order, in communication
/// superstep `t`.
type Script = Vec<Vec<Vec<Act>>>;

/// Byte `k` of the payload of action `idx` of `pid` in superstep `t`.
fn payload_byte(t: usize, pid: usize, idx: usize, k: usize) -> u8 {
    (t * 131 + pid * 31 + idx * 7 + k * 3 + 1) as u8
}

fn payload(t: usize, pid: usize, idx: usize, len: usize) -> Vec<u8> {
    (0..len).map(|k| payload_byte(t, pid, idx, k)).collect()
}

fn initial_a(pid: usize) -> Vec<u8> {
    (0..BUF).map(|k| (pid * 17 + k) as u8 | 0x80).collect()
}

fn random_script(p: usize, rng: &mut u64) -> Script {
    let span = |rng: &mut u64| {
        // One in six spans is empty (a zero-length put).
        let len = match next(rng) % 6 {
            0 => 0,
            _ => 1 + next(rng) as usize % 16,
        };
        (next(rng) as usize % (BUF - len + 1), len)
    };
    let steps = 1 + next(rng) as usize % 4;
    (0..steps)
        .map(|_| {
            (0..p)
                .map(|pid| {
                    (0..next(rng) % 7)
                        .map(|_| {
                            // Half of all targets are a near neighbour or
                            // the process itself, so spans collide often.
                            let peer = match next(rng) % 4 {
                                0 => pid,
                                1 => (pid + 1) % p,
                                _ => next(rng) as usize % p,
                            };
                            // Four puts to one stretch of work, as before.
                            match next(rng) % 5 {
                                0..=3 => {
                                    let (offset, len) = span(rng);
                                    Act::Put {
                                        hp: next(rng).is_multiple_of(2),
                                        dst: peer,
                                        offset,
                                        len,
                                    }
                                }
                                _ => Act::Work((next(rng) % 2000) as f64 * 1e-9),
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

struct Scripted<'a> {
    script: &'a Script,
    /// Commit buffered puts through `put_with` instead of `put`.
    fill: bool,
    step: usize,
    buf: Option<RegHandle>,
    /// What the process observes: its buffer `A` after the last sync.
    seen: Vec<u8>,
}

impl BspProgram for Scripted<'_> {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let pid = ctx.pid();
        if self.step == 0 {
            let a = ctx.alloc(BUF);
            ctx.write_buf(a).copy_from_slice(&initial_a(pid));
            ctx.push_reg(a);
            self.buf = Some(a);
            self.step = 1;
            return StepOutcome::Continue;
        }
        let a = self.buf.expect("allocated");
        let t = self.step - 1;
        if t == self.script.len() {
            self.seen = ctx.read_buf(a).to_vec();
            return StepOutcome::Halt;
        }
        for (idx, act) in self.script[t][pid].iter().enumerate() {
            match *act {
                Act::Put {
                    hp,
                    dst,
                    offset,
                    len,
                } => {
                    let fill = |slot: &mut [u8]| {
                        assert!(slot.iter().all(|&b| b == 0), "slot must arrive zeroed");
                        for (k, byte) in slot.iter_mut().enumerate() {
                            *byte = payload_byte(t, pid, idx, k);
                        }
                    };
                    match (self.fill, hp) {
                        (_, true) => ctx.hpput_with(dst, a, offset, len, fill),
                        (true, false) => ctx.put_with(dst, a, offset, len, fill),
                        (false, false) => ctx.put(dst, a, offset, &payload(t, pid, idx, len)),
                    }
                }
                Act::Work(seconds) => ctx.elapse(seconds),
            }
        }
        self.step += 1;
        StepOutcome::Continue
    }
}

/// The BSPlib memory semantics applied directly to the script: every
/// process' buffer `A` after the last sync.
fn oracle(script: &Script, p: usize) -> Vec<Vec<u8>> {
    let mut a: Vec<Vec<u8>> = (0..p).map(initial_a).collect();
    for (t, step) in script.iter().enumerate() {
        for (pid, acts) in step.iter().enumerate() {
            for (idx, act) in acts.iter().enumerate() {
                if let Act::Put {
                    dst, offset, len, ..
                } = *act
                {
                    a[dst][offset..offset + len].copy_from_slice(&payload(t, pid, idx, len));
                }
            }
        }
    }
    a
}

/// Everything a run reports, as bits.
fn fingerprint(res: &BspRunResult<Scripted>) -> Vec<Vec<u64>> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut out = vec![vec![res.total_time.to_bits()]];
    for tr in &res.supersteps {
        out.push(vec![tr.payload_bytes, tr.ops as u64]);
        out.push(bits(&tr.compute_end));
        out.push(bits(&tr.send_complete));
        out.push(bits(&tr.recv_complete));
        out.push(bits(&tr.sync_exit));
        out.push(bits(&tr.completion));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn put_with_is_put_and_bsplib_order_holds(p in 1usize..10, seed in 0u64..1_000_000) {
        let mut rng = seed;
        let script = random_script(p, &mut rng);
        let cfg = BspConfig::new(
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
            xeon_core(),
            seed,
        );
        let run = |fill: bool| {
            run_spmd(&cfg, |_| Scripted {
                script: &script,
                fill,
                step: 0,
                buf: None,
                seen: Vec::new(),
            })
            .expect("scripted run")
        };
        let (copied, filled) = (run(false), run(true));
        prop_assert_eq!(copied.superstep_count(), script.len() + 2);
        prop_assert_eq!(fingerprint(&copied), fingerprint(&filled));
        let want = oracle(&script, p);
        for (pid, want) in want.iter().enumerate() {
            prop_assert_eq!(&copied.programs[pid].seen, want, "put, pid {}", pid);
            prop_assert_eq!(&filled.programs[pid].seen, want, "put_with, pid {}", pid);
        }
    }
}
