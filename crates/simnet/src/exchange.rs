//! Background one-sided transfer resolution.
//!
//! The BSPlib runtime commits puts/gets as early as possible during a
//! superstep (the Fig. 1.2 processing model); transfers then progress in
//! the background while the process keeps computing. Given the set of
//! messages a superstep committed — each with the virtual time its sender
//! issued it — this resolver computes when every message lands and when
//! each process has absorbed its last inbound byte, which is what the
//! synchronization has to wait for.

use crate::net::NetState;
use crate::params::PlatformParams;
use hpm_stats::rng::{JitterBuf, JitterSource};
use hpm_topology::Placement;

/// Jitter multipliers one non-self [`NetState::transfer`] consumes: the
/// sender's `o_send`, the wire term and the receiver's `o_recv`. Self
/// messages draw nothing (pure bandwidth, no transport).
pub const TRANSFER_JITTER_DRAWS: usize = 3;

/// Exact jitter draws [`resolve_exchange_into`] consumes for `msgs`:
/// [`TRANSFER_JITTER_DRAWS`] per message with distinct endpoints.
/// [`resolve_exchange_batched`] sizes its fill by this; the audit test
/// pins the equality.
fn exchange_jitter_draws(msgs: &[ExchangeMsg]) -> usize {
    msgs.iter().filter(|m| m.src != m.dst).count() * TRANSFER_JITTER_DRAWS
}

/// One committed one-sided message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeMsg {
    /// Sending process.
    pub src: usize,
    /// Receiving process.
    pub dst: usize,
    /// Payload size in bytes (headers are accounted by the caller).
    pub bytes: u64,
    /// Virtual time the sender committed the message.
    pub issue: f64,
}

/// Reusable scratch of the exchange resolvers: the issue-order
/// permutation and the jitter table [`resolve_exchange_batched`] refills
/// per exchange.
#[derive(Debug, Clone, Default)]
pub struct ExchangeScratch {
    order: Vec<usize>,
    jitter: JitterBuf,
}

/// Resolved timings of an exchange.
#[derive(Debug, Clone, Default)]
pub struct ExchangeResult {
    /// Per message (input order): when the receiver finished absorbing it.
    pub processed: Vec<f64>,
    /// Per message (input order): when the sender's CPU was released.
    pub send_done: Vec<f64>,
    /// Per process: time its last *inbound* message was absorbed; 0 when
    /// nothing was addressed to it. Sender-side completion is tracked
    /// separately in [`ExchangeResult::last_out`].
    pub last_in: Vec<f64>,
    /// Per process: when the last message it *sourced* released its CPU
    /// (the `send_done` of its latest-finishing outbound message); 0 when
    /// it sent nothing. A synchronization point must wait for this too —
    /// a process has not completed a superstep while its own issue tails
    /// are still running.
    pub last_out: Vec<f64>,
}

impl ExchangeResult {
    /// When process `r`, ready at `t`, is done with the exchange: its
    /// inbound data landed and its own sends released its CPU.
    pub fn done(&self, r: usize, t: f64) -> f64 {
        t.max(self.last_in[r]).max(self.last_out[r])
    }
}

/// [`resolve_exchange_into`] on the batched jitter engine: fills the
/// scratch's jitter table with the exchange's exact draw count from the
/// stream `(seed, label, rep)` and resolves over it.
pub fn resolve_exchange_batched(
    params: &PlatformParams,
    placement: &Placement,
    msgs: &[ExchangeMsg],
    net: &mut NetState,
    (seed, label, rep): (u64, u64, u64),
    scratch: &mut ExchangeScratch,
    out: &mut ExchangeResult,
) {
    let draws = exchange_jitter_draws(msgs);
    let mut jit = std::mem::take(&mut scratch.jitter);
    jit.fill(params.jitter.sigma, seed, label, rep, draws);
    resolve_exchange_into(params, placement, msgs, net, &mut jit, scratch, out);
    debug_assert!(params.jitter.sigma == 0.0 || jit.consumed() == draws);
    scratch.jitter = jit;
}

/// Resolves all messages of a superstep against the network state, over
/// caller-owned scratch and output buffers: after warmup the resolution
/// allocates nothing.
///
/// Messages are handled one at a time in issue order (ties broken by
/// input order), each taking its three draws as it is handled. A NIC or
/// a receive thread therefore serves messages in that order too: a
/// reception waits behind every earlier-issued message to the same
/// receiver, even one that arrives later. Receptions are not served in
/// arrival order.
#[allow(clippy::too_many_arguments)]
pub fn resolve_exchange_into<J: JitterSource>(
    params: &PlatformParams,
    placement: &Placement,
    msgs: &[ExchangeMsg],
    net: &mut NetState,
    jit: &mut J,
    scratch: &mut ExchangeScratch,
    out: &mut ExchangeResult,
) {
    let p = placement.nprocs();
    out.processed.clear();
    out.processed.resize(msgs.len(), 0.0);
    out.send_done.clear();
    out.send_done.resize(msgs.len(), 0.0);
    out.last_in.clear();
    out.last_in.resize(p, 0.0);
    out.last_out.clear();
    out.last_out.resize(p, 0.0);
    scratch.order.clear();
    scratch.order.extend(0..msgs.len());
    scratch.order.sort_by(|&a, &b| {
        msgs[a]
            .issue
            .partial_cmp(&msgs[b].issue)
            .expect("NaN issue time")
            .then(a.cmp(&b))
    });
    for &idx in &scratch.order {
        let m = &msgs[idx];
        assert!(m.src < p && m.dst < p, "message endpoints out of range");
        let (cpu, done) = net.transfer(params, placement, jit, m.src, m.dst, m.bytes, m.issue);
        out.processed[idx] = done;
        out.send_done[idx] = cpu;
        if done > out.last_in[m.dst] {
            out.last_in[m.dst] = done;
        }
        if cpu > out.last_out[m.src] {
            out.last_out[m.src] = cpu;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::xeon_cluster_params;
    use hpm_stats::rng::{derive_rng, ScalarJitter};
    use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

    /// One-shot [`resolve_exchange_into`] with fresh scratch and result.
    fn resolve_exchange<J: JitterSource>(
        params: &PlatformParams,
        placement: &Placement,
        msgs: &[ExchangeMsg],
        net: &mut NetState,
        jit: &mut J,
    ) -> ExchangeResult {
        let mut scratch = ExchangeScratch::default();
        let mut out = ExchangeResult::default();
        resolve_exchange_into(params, placement, msgs, net, jit, &mut scratch, &mut out);
        out
    }

    fn setup(n: usize) -> (PlatformParams, Placement) {
        (
            xeon_cluster_params().noiseless(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, n),
        )
    }

    #[test]
    fn empty_exchange_is_empty() {
        let (params, placement) = setup(8);
        let mut net = NetState::new(&placement);
        let mut rng = derive_rng(1, 0);
        let mut jit_rng = ScalarJitter::new(params.jitter, &mut rng);
        let r = resolve_exchange(&params, &placement, &[], &mut net, &mut jit_rng);
        assert!(r.processed.is_empty());
        assert!(r.last_in.iter().all(|&t| t == 0.0));
    }

    #[test]
    fn early_issue_overlaps_with_compute() {
        // A message issued at t=0 with the sync at t=1ms: the transfer
        // completes well before the superstep ends — full overlap.
        let (params, placement) = setup(16);
        let mut net = NetState::new(&placement);
        let mut rng = derive_rng(2, 0);
        let mut jit_rng = ScalarJitter::new(params.jitter, &mut rng);
        let msgs = [ExchangeMsg {
            src: 0,
            dst: 1,
            bytes: 10_000,
            issue: 0.0,
        }];
        let r = resolve_exchange(&params, &placement, &msgs, &mut net, &mut jit_rng);
        assert!(r.processed[0] < 1e-3, "10 kB must land within 1 ms");
        assert!(r.send_done[0] < r.processed[0]);
    }

    #[test]
    fn last_in_tracks_the_latest_arrival() {
        let (params, placement) = setup(16);
        let mut net = NetState::new(&placement);
        let mut rng = derive_rng(3, 0);
        let mut jit_rng = ScalarJitter::new(params.jitter, &mut rng);
        let msgs = [
            ExchangeMsg {
                src: 0,
                dst: 3,
                bytes: 100,
                issue: 0.0,
            },
            ExchangeMsg {
                src: 2,
                dst: 3,
                bytes: 1 << 20,
                issue: 0.0,
            },
        ];
        let r = resolve_exchange(&params, &placement, &msgs, &mut net, &mut jit_rng);
        assert_eq!(
            r.last_in[3],
            r.processed.iter().copied().fold(0.0, f64::max)
        );
        assert_eq!(r.last_in[0], 0.0);
    }

    #[test]
    fn last_out_tracks_sender_side_completion() {
        let (params, placement) = setup(16);
        let mut net = NetState::new(&placement);
        let mut rng = derive_rng(8, 0);
        let mut jit_rng = ScalarJitter::new(params.jitter, &mut rng);
        let msgs = [
            ExchangeMsg {
                src: 0,
                dst: 3,
                bytes: 100,
                issue: 0.0,
            },
            ExchangeMsg {
                src: 0,
                dst: 5,
                bytes: 100,
                issue: 1e-6,
            },
            ExchangeMsg {
                src: 2,
                dst: 3,
                bytes: 100,
                issue: 0.0,
            },
        ];
        let r = resolve_exchange(&params, &placement, &msgs, &mut net, &mut jit_rng);
        assert_eq!(r.last_out[0], r.send_done[0].max(r.send_done[1]));
        assert_eq!(r.last_out[2], r.send_done[2]);
        assert_eq!(r.last_out[3], 0.0, "pure receivers have no send tail");
        // A message is never absorbed before its sender's CPU released it.
        for k in 0..msgs.len() {
            assert!(r.processed[k] >= r.send_done[k]);
        }
    }

    #[test]
    fn issue_order_is_respected_at_the_nic() {
        // Two remote messages from the same node: the later issue departs
        // after the earlier one's NIC gap.
        let (params, placement) = setup(16);
        let mut net = NetState::new(&placement);
        let mut rng = derive_rng(4, 0);
        let mut jit_rng = ScalarJitter::new(params.jitter, &mut rng);
        let msgs = [
            ExchangeMsg {
                src: 0,
                dst: 1,
                bytes: 0,
                issue: 0.0,
            },
            ExchangeMsg {
                src: 2,
                dst: 1,
                bytes: 0,
                issue: 0.0,
            },
        ];
        let r = resolve_exchange(&params, &placement, &msgs, &mut net, &mut jit_rng);
        assert!(r.processed[1] > r.processed[0]);
    }

    /// Sorted and unsorted message lists, with ties, resolve through
    /// reused scratch/output buffers bitwise as through the one-shot API.
    #[test]
    fn scratch_reuse_and_unsorted_input_match_one_shot() {
        let (params, placement) = setup(16);
        // Deliberately unsorted issues with ties, across several rounds
        // to exercise buffer reuse (shrinking and growing lists).
        let rounds: Vec<Vec<ExchangeMsg>> = vec![
            (0..12)
                .map(|k| ExchangeMsg {
                    src: k % 5,
                    dst: (k + 3) % 16,
                    bytes: 64 * k as u64,
                    issue: [3e-6, 0.0, 1e-6, 1e-6][k % 4],
                })
                .collect(),
            vec![ExchangeMsg {
                src: 1,
                dst: 2,
                bytes: 10,
                issue: 5e-6,
            }],
            (0..20)
                .map(|k| ExchangeMsg {
                    src: (k * 7) % 16,
                    dst: (k * 11 + 1) % 16,
                    bytes: 1000,
                    issue: k as f64 * 1e-7, // already sorted
                })
                .collect(),
        ];
        let mut scratch = ExchangeScratch::default();
        let mut reused = ExchangeResult::default();
        let mut net_a = NetState::new(&placement);
        let mut net_b = NetState::new(&placement);
        for (k, msgs) in rounds.iter().enumerate() {
            let mut rng_a = derive_rng(42, k as u64);
            let mut rng_b = derive_rng(42, k as u64);
            let mut jit_a = ScalarJitter::new(params.jitter, &mut rng_a);
            let mut jit_b = ScalarJitter::new(params.jitter, &mut rng_b);
            net_a.reset();
            net_b.reset();
            let fresh = resolve_exchange(&params, &placement, msgs, &mut net_a, &mut jit_a);
            resolve_exchange_into(
                &params,
                &placement,
                msgs,
                &mut net_b,
                &mut jit_b,
                &mut scratch,
                &mut reused,
            );
            assert_eq!(fresh.processed, reused.processed, "round {k}");
            assert_eq!(fresh.send_done, reused.send_done, "round {k}");
            assert_eq!(fresh.last_in, reused.last_in, "round {k}");
            assert_eq!(fresh.last_out, reused.last_out, "round {k}");
        }
    }

    /// An unsorted list resolves exactly as the same list pre-sorted by
    /// `(issue, input order)`: the permutation is the schedule.
    #[test]
    fn unsorted_equals_presorted_schedule() {
        let (params, placement) = setup(16);
        let unsorted = [
            ExchangeMsg {
                src: 0,
                dst: 9,
                bytes: 500,
                issue: 2e-6,
            },
            ExchangeMsg {
                src: 2,
                dst: 9,
                bytes: 500,
                issue: 0.0,
            },
            ExchangeMsg {
                src: 4,
                dst: 9,
                bytes: 500,
                issue: 2e-6,
            },
        ];
        let sorted = [unsorted[1], unsorted[0], unsorted[2]];
        let mut net = NetState::new(&placement);
        let mut rng = derive_rng(9, 0);
        let mut jit_rng = ScalarJitter::new(params.jitter, &mut rng);
        let a = resolve_exchange(&params, &placement, &unsorted, &mut net, &mut jit_rng);
        net.reset();
        let mut rng = derive_rng(9, 0);
        let mut jit_rng = ScalarJitter::new(params.jitter, &mut rng);
        let b = resolve_exchange(&params, &placement, &sorted, &mut net, &mut jit_rng);
        // Input order differs, so compare per-process aggregates and the
        // permuted per-message times.
        assert_eq!(a.last_in, b.last_in);
        assert_eq!(a.last_out, b.last_out);
        assert_eq!(a.processed[1], b.processed[0]);
        assert_eq!(a.processed[0], b.processed[1]);
        assert_eq!(a.processed[2], b.processed[2]);
    }

    /// Draw-count audit: the resolver consumes exactly
    /// [`exchange_jitter_draws`] multipliers from a batch-filled buffer —
    /// self messages (which draw nothing) included in the message list —
    /// and [`resolve_exchange_batched`] is that fill and resolution,
    /// bit for bit.
    #[test]
    fn resolver_consumes_exactly_reported_draws() {
        use hpm_stats::rng::JitterModel;
        let (mut params, placement) = setup(16);
        params.jitter = JitterModel::new(0.05);
        let msgs: Vec<ExchangeMsg> = (0..14)
            .map(|k| ExchangeMsg {
                src: k % 7,
                dst: (k * 3) % 16, // k = 0 is a self message
                bytes: 64,
                issue: 0.0,
            })
            .collect();
        assert!(msgs.iter().any(|m| m.src == m.dst), "need a self message");
        let draws = exchange_jitter_draws(&msgs);
        assert_eq!(draws, 13 * TRANSFER_JITTER_DRAWS);
        let mut buf = JitterBuf::new();
        buf.fill(params.jitter.sigma, 1, 2, 3, draws);
        let mut net = NetState::new(&placement);
        let r = resolve_exchange(&params, &placement, &msgs, &mut net, &mut buf);
        assert_eq!(buf.consumed(), draws);
        assert!(r.processed.iter().all(|t| t.is_finite()));

        net.reset();
        let mut scratch = ExchangeScratch::default();
        let mut batched = ExchangeResult::default();
        resolve_exchange_batched(
            &params,
            &placement,
            &msgs,
            &mut net,
            (1, 2, 3),
            &mut scratch,
            &mut batched,
        );
        assert_eq!(scratch.jitter.consumed(), draws);
        assert_eq!(batched.processed, r.processed);
        assert_eq!(batched.send_done, r.send_done);
        assert_eq!(batched.last_in, r.last_in);
        assert_eq!(batched.last_out, r.last_out);
    }

    #[test]
    fn big_transfer_time_is_bandwidth_dominated() {
        let (params, placement) = setup(16);
        let mut net = NetState::new(&placement);
        let mut rng = derive_rng(5, 0);
        let mut jit_rng = ScalarJitter::new(params.jitter, &mut rng);
        let bytes = 10u64 << 20; // 10 MiB
        let msgs = [ExchangeMsg {
            src: 0,
            dst: 1,
            bytes,
            issue: 0.0,
        }];
        let r = resolve_exchange(&params, &placement, &msgs, &mut net, &mut jit_rng);
        let expect = bytes as f64 * params.remote.inv_bandwidth;
        assert!(
            (r.processed[0] - expect).abs() / expect < 0.05,
            "{} vs {expect}",
            r.processed[0]
        );
    }
}
