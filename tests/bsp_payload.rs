//! Property test of the BSPlib payload path.
//!
//! Random scripted programs — puts and hp-puts with overlapping targets,
//! self-puts, zero-length puts, gets of regions a put of the same
//! superstep overwrites, BSMP sends with tags — run twice through
//! `run_spmd` on the jittered platform: once committing every put with
//! `put`/`hpput`, once with `put_with`/`hpput_with`. The two runs must be
//! bitwise equal in total time, every `SuperstepTrace` vector and final
//! memory (same `elapse` sequence ⇒ same `rng` stream ⇒ same simulated
//! times), and both must match an oracle that applies the BSPlib order
//! directly: gets read the pre-put state, puts land in `(pid, program
//! order)`, get results are installed after the puts, messages arrive
//! sorted for the next superstep.

use hpm::bsplib::runtime::{run_spmd, BspConfig, BspProgram, BspRunResult};
use hpm::bsplib::{BspCtx, RegHandle, StepOutcome};
use hpm::kernels::rate::xeon_core;
use hpm::simnet::params::xeon_cluster_params;
use hpm::topology::{cluster_8x2x4, Placement, PlacementPolicy};
use proptest::prelude::*;

/// Bytes of the registered buffer `A` (put target, get source) and of
/// the local buffer `B` (get destination).
const BUF: usize = 48;
const TAG: usize = 4;

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
    Get {
        src: usize,
        src_offset: usize,
        dst_offset: usize,
        len: usize,
    },
    Send {
        dst: usize,
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
        // One in six spans is empty (a zero-length put or get).
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
                            match next(rng) % 8 {
                                0..=3 => {
                                    let (offset, len) = span(rng);
                                    Act::Put {
                                        hp: next(rng).is_multiple_of(2),
                                        dst: peer,
                                        offset,
                                        len,
                                    }
                                }
                                4 | 5 => {
                                    let (src_offset, len) = span(rng);
                                    Act::Get {
                                        src: peer,
                                        src_offset,
                                        dst_offset: next(rng) as usize % (BUF - len + 1),
                                        len,
                                    }
                                }
                                6 => Act::Send {
                                    dst: peer,
                                    len: next(rng) as usize % 12,
                                },
                                _ => Act::Work((next(rng) % 2000) as f64 * 1e-9),
                            }
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// What a process can observe: its two buffers after the last sync and
/// the messages it drained at the top of every superstep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Observed {
    a: Vec<u8>,
    b: Vec<u8>,
    inboxes: Vec<Vec<(Vec<u8>, Vec<u8>)>>,
}

struct Scripted<'a> {
    script: &'a Script,
    /// Commit puts through `put_with`/`hpput_with` instead of
    /// `put`/`hpput`.
    fill: bool,
    step: usize,
    bufs: Option<(RegHandle, RegHandle)>,
    seen: Observed,
}

impl BspProgram for Scripted<'_> {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let pid = ctx.pid();
        if self.step == 0 {
            let a = ctx.alloc(BUF);
            let b = ctx.alloc(BUF);
            ctx.write_buf(a).copy_from_slice(&initial_a(pid));
            ctx.push_reg(a);
            ctx.set_tagsize(TAG);
            self.bufs = Some((a, b));
            self.step = 1;
            return StepOutcome::Continue;
        }
        let (a, b) = self.bufs.expect("allocated");
        let mut inbox = Vec::new();
        while let Some(m) = ctx.move_msg() {
            inbox.push((m.tag, m.payload));
        }
        self.seen.inboxes.push(inbox);
        let t = self.step - 1;
        if t == self.script.len() {
            self.seen.a = ctx.read_buf(a).to_vec();
            self.seen.b = ctx.read_buf(b).to_vec();
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
                        (true, true) => ctx.hpput_with(dst, a, offset, len, fill),
                        (true, false) => ctx.put_with(dst, a, offset, len, fill),
                        (false, true) => ctx.hpput(dst, a, offset, &payload(t, pid, idx, len)),
                        (false, false) => ctx.put(dst, a, offset, &payload(t, pid, idx, len)),
                    }
                }
                Act::Get {
                    src,
                    src_offset,
                    dst_offset,
                    len,
                } => ctx.get(src, a, src_offset, b, dst_offset, len),
                Act::Send { dst, len } => {
                    let tag = [t as u8, pid as u8, idx as u8, 0xA5];
                    ctx.send(dst, &tag, &payload(t, pid, idx, len));
                }
                Act::Work(seconds) => ctx.elapse(seconds),
            }
        }
        self.step += 1;
        StepOutcome::Continue
    }
}

/// The BSPlib memory semantics applied directly to the script.
fn oracle(script: &Script, p: usize) -> Vec<Observed> {
    let mut a: Vec<Vec<u8>> = (0..p).map(initial_a).collect();
    let mut b = vec![vec![0u8; BUF]; p];
    // Superstep 1 drains what the registration superstep sent: nothing.
    let mut inboxes = vec![vec![Vec::new()]; p];
    for (t, step) in script.iter().enumerate() {
        let before = a.clone();
        let mut arriving = vec![Vec::new(); p];
        for (pid, acts) in step.iter().enumerate() {
            for (idx, act) in acts.iter().enumerate() {
                match *act {
                    Act::Put {
                        dst, offset, len, ..
                    } => a[dst][offset..offset + len].copy_from_slice(&payload(t, pid, idx, len)),
                    Act::Get {
                        src,
                        src_offset,
                        dst_offset,
                        len,
                    } => b[pid][dst_offset..dst_offset + len]
                        .copy_from_slice(&before[src][src_offset..src_offset + len]),
                    Act::Send { dst, len } => arriving[dst].push((
                        vec![t as u8, pid as u8, idx as u8, 0xA5],
                        payload(t, pid, idx, len),
                    )),
                    Act::Work(_) => {}
                }
            }
        }
        for (pid, mut msgs) in arriving.into_iter().enumerate() {
            msgs.sort();
            inboxes[pid].push(msgs);
        }
    }
    (0..p)
        .map(|pid| Observed {
            a: a[pid].clone(),
            b: b[pid].clone(),
            inboxes: inboxes[pid].clone(),
        })
        .collect()
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
                bufs: None,
                seen: Observed::default(),
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
