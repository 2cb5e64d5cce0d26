//! The message engine: NIC egress queues, receive serialization, signal
//! round trips and one-sided transfers.
//!
//! Two message disciplines exist, matching the two ways the thesis'
//! software stack moves data:
//!
//! * [`NetState::signal_round_trip`] — small control signals (barrier
//!   stages). The sender is occupied until the transport-level
//!   acknowledgement returns; this per-message round trip is the platform
//!   behaviour that the Eq. 5.4 factor 2 models. It is the fault-free
//!   instantiation of the one signal primitive, `NetState::signal`,
//!   which the stage kernel calls under whatever `FaultView` the run has.
//! * [`NetState::transfer`] — one-sided bulk transfers (BSPlib put/get
//!   payloads). Fire-and-forget from the sender's perspective; the
//!   receiving communication thread absorbs them in the background.
//!
//! Receive processing at each process is serialized (one communication
//! thread per process, §6.2); remote messages from cohabiting processes
//! serialize at their node's NIC egress. Within one resolution pass,
//! messages are handled in a deterministic global order (senders by rank,
//! sends by destination), a documented approximation of true event order
//! whose error is bounded by single `o_recv` magnitudes.
//!
//! Jitter multipliers arrive through a [`JitterSource`], never drawn
//! here: scalar callers pass a [`hpm_stats::rng::ScalarJitter`] over
//! their `StdRng`, hot paths pass a batch-filled
//! [`hpm_stats::rng::JitterBuf`]. A signal consumes
//! [`hpm_core::plan::SIGNAL_JITTER_DRAWS`] multipliers, a non-self
//! transfer [`crate::exchange::TRANSFER_JITTER_DRAWS`] — counts the
//! batched engine sizes its tables by.

use crate::params::PlatformParams;
use hpm_core::plan::StagePlan;
use hpm_stats::rng::JitterSource;
use hpm_topology::{LinkClass, Placement};

/// What became of one signal under a [`FaultView`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SignalFate {
    /// Delivered after `retries` retransmissions; `retry_delay` is the
    /// backed-off timeout latency those retransmissions added.
    Delivered {
        /// Acknowledgement time at the sender.
        ack: f64,
        /// Processing completion at the receiver.
        processed: f64,
        /// Retransmissions before the attempt that landed.
        retries: u32,
        /// Latency added by those retransmissions.
        retry_delay: f64,
    },
    /// Undeliverable — every attempt dropped, or the receiver crashed.
    /// The sender burned its full retry budget and moved on at `gave_up`.
    Lost {
        /// When the sender abandoned the signal.
        gave_up: f64,
    },
    /// The sender had crashed before it could emit this signal.
    SenderDead,
}

/// What one repetition's faults do to the stage kernel and to
/// [`NetState::signal`], sealed inside the crate. The provided bodies
/// *are* the fault-free executor: [`NoFaults`] overrides nothing, so it
/// draws no drop uniform, multiplies by a literal `1.0` and delivers
/// every signal — the clean loop, the fault branches gone after
/// monomorphisation. `crate::faults::Faults` overrides every method.
/// Ranks are machine ranks (what [`Placement`] and the fault plan index
/// by), except where a method says plan rank.
pub(crate) trait FaultView {
    /// This signal's drop uniform — consumed whatever its fate.
    #[inline(always)]
    fn drop_uniform(&mut self) -> f64 {
        0.0
    }

    /// Whether `rank` has crashed by time `t`.
    #[inline(always)]
    fn crashed_at(&self, _rank: usize, _t: f64) -> bool {
        false
    }

    /// Slow-period multiplier of the CPU overheads `rank`'s node pays.
    #[inline(always)]
    fn slow(&self, _placement: &Placement, _rank: usize) -> f64 {
        1.0
    }

    /// Degradation multiplier of the wire between two ranks' nodes.
    #[inline(always)]
    fn wire_mult(&self, _placement: &Placement, _src: usize, _dst: usize) -> f64 {
        1.0
    }

    /// Retransmissions of a signal ready at `send_done` whose drop
    /// uniform is `u`: `(ready to depart, retries, retry delay)`, or
    /// `None` when every attempt within the budget drops.
    #[inline(always)]
    fn retransmit(&self, _u: f64, _class: LinkClass, send_done: f64) -> Option<(f64, u32, f64)> {
        Some((send_done, 0, 0.0))
    }

    /// The retry budget after which a sender or a receiver gives up.
    #[inline(always)]
    fn loss_delay(&self) -> f64 {
        0.0
    }

    /// Accounts for the fate of plan rank `src`'s signal to `dst`.
    #[inline(always)]
    fn record(&mut self, _src: usize, _dst: usize, _fate: &SignalFate) {}

    /// End of `stage` at plan rank `j`, which posted its receives at
    /// `posted`: when a signal it expected never arrived, the time at
    /// which `j` stops waiting for it.
    #[inline(always)]
    fn missing_arrival(&mut self, _j: usize, _stage: &StagePlan, _posted: f64) -> Option<f64> {
        None
    }
}

/// The fault-free view: a ZST taking every default of [`FaultView`].
pub(crate) struct NoFaults;

impl FaultView for NoFaults {}

/// One message through a NIC egress queue free from `*nic_free` on:
/// ready at `ready`, it departs when the NIC frees up and holds it for
/// `gap`. The scalar engine's queue is a [`NetState`] entry, the lane
/// executor's one lane of its SoA state.
#[inline(always)]
pub(crate) fn egress(nic_free: &mut f64, gap: f64, ready: f64) -> f64 {
    let dep = ready.max(*nic_free);
    *nic_free = dep + gap;
    dep
}

/// The receive side of one signal arriving at `arrival` at a process
/// that posted its receives at `posted_at` and whose communication
/// thread is free from `*recv_busy` on: an arrival before the post pays
/// the unexpected-message penalty, processing (`o_recv`, already
/// jittered) queues behind earlier receptions, and the acknowledgement
/// flies back for `ack_flight`. Returns `(processed, ack)`. Shared by
/// the scalar primitive and every lane of [`crate::batch`], which is
/// what makes a lane the scalar recurrence verbatim.
#[inline(always)]
pub(crate) fn receive(
    params: &PlatformParams,
    arrival: f64,
    posted_at: f64,
    recv_busy: &mut f64,
    o_recv: f64,
    ack_flight: f64,
) -> (f64, f64) {
    let proc_start = if arrival < posted_at {
        posted_at + params.unexpected_penalty
    } else {
        arrival
    };
    let processed = proc_start.max(*recv_busy) + o_recv;
    *recv_busy = processed;
    (processed, processed + ack_flight)
}

/// Mutable network state: per-node NIC egress availability and per-process
/// receive-processing availability.
#[derive(Debug, Clone)]
pub struct NetState {
    nic_free: Vec<f64>,
    recv_busy: Vec<f64>,
}

impl NetState {
    /// Fresh state for a placement: everything available at time zero.
    pub fn new(placement: &Placement) -> NetState {
        NetState {
            nic_free: vec![0.0; placement.shape().nodes()],
            recv_busy: vec![0.0; placement.nprocs()],
        }
    }

    /// Resets all queues to time zero.
    pub fn reset(&mut self) {
        self.nic_free.iter_mut().for_each(|t| *t = 0.0);
        self.recv_busy.iter_mut().for_each(|t| *t = 0.0);
    }

    /// Resets only the two queues a `src → dst` signal reads: `dst`'s
    /// receive thread and `src`'s node NIC (read when the link is
    /// remote). The next such signal then computes what it would after
    /// [`NetState::reset`], bit for bit, in O(1) instead of O(p + nodes).
    pub(crate) fn reset_pair(&mut self, placement: &Placement, src: usize, dst: usize) {
        self.recv_busy[dst] = 0.0;
        self.nic_free[placement.node_of(src)] = 0.0;
    }

    /// Applies NIC egress serialization: a message of link class `class`
    /// ready at `ready` departs, when remote, once `src`'s node's NIC
    /// frees up.
    fn depart(
        &mut self,
        params: &PlatformParams,
        placement: &Placement,
        class: LinkClass,
        src: usize,
        ready: f64,
    ) -> f64 {
        if class == LinkClass::Remote {
            let nic_free = &mut self.nic_free[placement.node_of(src)];
            egress(nic_free, params.nic_gap, ready)
        } else {
            ready
        }
    }

    /// One signal message with acknowledgement round trip.
    ///
    /// * `start` — sender CPU time when it begins this message;
    /// * `bytes` — payload size (barrier payloads, §6.5);
    /// * `dst_posted_at` — when the receiver posted its receives; arrivals
    ///   before that pay the unexpected-message penalty.
    ///
    /// Returns `(ack_at_sender, processed_at_receiver)`.
    #[allow(clippy::too_many_arguments)]
    pub fn signal_round_trip<J: JitterSource>(
        &mut self,
        params: &PlatformParams,
        placement: &Placement,
        jit: &mut J,
        src: usize,
        dst: usize,
        start: f64,
        bytes: u64,
        dst_posted_at: f64,
    ) -> (f64, f64) {
        match self.signal(
            params,
            placement,
            jit,
            &mut NoFaults,
            src,
            dst,
            start,
            bytes,
            dst_posted_at,
        ) {
            SignalFate::Delivered { ack, processed, .. } => (ack, processed),
            _ => unreachable!("a fault-free signal is always delivered"),
        }
    }

    /// The one signal primitive: [`NetState::signal_round_trip`] under a
    /// [`FaultView`]. The signal may be dropped (timeout → retransmit →
    /// exponential backoff), slowed by its endpoints' slow periods,
    /// stretched by degraded links, or suppressed entirely by a crashed
    /// sender/receiver.
    ///
    /// Randomness contract: exactly **one** [`FaultView::drop_uniform`]
    /// and [`hpm_core::plan::SIGNAL_JITTER_DRAWS`] multipliers from `jit`
    /// (send, wire, receive, ack — in that order) are consumed per call,
    /// whatever the fate, so the cursor contracts of the batched engine
    /// extend to faults unchanged. A neutral fault plan multiplies by
    /// `1.0` and adds `+0.0` — IEEE-754 identities on the simulator's
    /// non-negative times — where [`NoFaults`] does not multiply or add
    /// at all, which is why the two agree bit for bit.
    ///
    /// Approximation: a signal lost beyond the retry budget does not
    /// occupy the NIC for its failed attempts (only delivered signals
    /// touch the egress queue).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn signal<J: JitterSource, V: FaultView>(
        &mut self,
        params: &PlatformParams,
        placement: &Placement,
        jit: &mut J,
        view: &mut V,
        src: usize,
        dst: usize,
        start: f64,
        bytes: u64,
        dst_posted_at: f64,
    ) -> SignalFate {
        // Fixed consumption up front, in draw order.
        let u = view.drop_uniform();
        let m_send = jit.next_mult();
        let m_wire = jit.next_mult();
        let m_recv = jit.next_mult();
        let m_ack = jit.next_mult();
        if view.crashed_at(src, start) {
            return SignalFate::SenderDead;
        }
        let class = placement.link(src, dst);
        let lc = params.link(class);
        let send_done = start + lc.o_send * m_send * view.slow(placement, src);
        let Some((ready, retries, retry_delay)) = view.retransmit(u, class, send_done) else {
            return SignalFate::Lost {
                gave_up: send_done + view.loss_delay(),
            };
        };
        let dep = self.depart(params, placement, class, src, ready);
        let wire_deg = view.wire_mult(placement, src, dst);
        let wire = (lc.latency + bytes as f64 * lc.inv_bandwidth) * m_wire * wire_deg;
        let arrival = dep + wire;
        if view.crashed_at(dst, arrival) {
            return SignalFate::Lost {
                gave_up: send_done + view.loss_delay(),
            };
        }
        let (processed, ack) = receive(
            params,
            arrival,
            dst_posted_at,
            &mut self.recv_busy[dst],
            lc.o_recv * m_recv * view.slow(placement, dst),
            lc.latency * params.ack_factor * m_ack * wire_deg,
        );
        SignalFate::Delivered {
            ack,
            processed,
            retries,
            retry_delay,
        }
    }

    /// One-sided bulk transfer: the sender pays only `o_send`; the message
    /// is absorbed by the receiver's communication thread when it arrives
    /// (serialized with that thread's other receptions).
    ///
    /// Returns `(send_cpu_done, processed_at_receiver)`.
    #[allow(clippy::too_many_arguments)]
    pub fn transfer<J: JitterSource>(
        &mut self,
        params: &PlatformParams,
        placement: &Placement,
        jit: &mut J,
        src: usize,
        dst: usize,
        bytes: u64,
        issue: f64,
    ) -> (f64, f64) {
        if src == dst {
            // Local memory move: charged as pure bandwidth on the
            // same-socket link, no transport — and no jitter draws, which
            // is why the exchange draw count excludes self messages.
            let lc = params.link(LinkClass::SameSocket);
            let done = issue + bytes as f64 * lc.inv_bandwidth;
            return (done, done);
        }
        let class = placement.link(src, dst);
        let lc = params.link(class);
        let send_done = issue + lc.o_send * jit.next_mult();
        let dep = self.depart(params, placement, class, src, send_done);
        let wire = (lc.latency + bytes as f64 * lc.inv_bandwidth) * jit.next_mult();
        let arrival = dep + wire;
        let processed = arrival.max(self.recv_busy[dst]) + lc.o_recv * jit.next_mult();
        self.recv_busy[dst] = processed;
        (send_done, processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::xeon_cluster_params;
    use hpm_core::plan::SIGNAL_JITTER_DRAWS;
    use hpm_stats::rng::{derive_rng, ScalarJitter};
    use hpm_topology::{cluster_8x2x4, PlacementPolicy};

    fn setup(n: usize) -> (PlatformParams, Placement) {
        let params = xeon_cluster_params().noiseless();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, n);
        (params, placement)
    }

    #[test]
    fn local_signal_is_cheap_remote_is_expensive() {
        let (params, placement) = setup(16);
        let mut rng = derive_rng(1, 0);
        let mut jit = ScalarJitter::new(params.jitter, &mut rng);
        // Ranks 0 and 2 share node 0; ranks 0 and 1 are on different nodes.
        let mut net = NetState::new(&placement);
        let (ack_local, _) =
            net.signal_round_trip(&params, &placement, &mut jit, 0, 2, 0.0, 0, 0.0);
        net.reset();
        let (ack_remote, _) =
            net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 0, 0.0);
        assert!(
            ack_remote > 5.0 * ack_local,
            "remote {ack_remote} vs local {ack_local}"
        );
    }

    #[test]
    fn nic_serializes_cohabiting_senders() {
        let (params, placement) = setup(16);
        let mut rng = derive_rng(2, 0);
        let mut jit = ScalarJitter::new(params.jitter, &mut rng);
        let mut net = NetState::new(&placement);
        // Ranks 0, 2, 4, 6 all live on node 0 (round-robin over 2 nodes);
        // they all signal remote peers at once.
        let mut arrivals = Vec::new();
        for &src in &[0usize, 2, 4, 6] {
            let (_, proc) =
                net.signal_round_trip(&params, &placement, &mut jit, src, src + 1, 0.0, 0, 0.0);
            arrivals.push(proc);
        }
        // Each successive departure is pushed back by nic_gap.
        for w in arrivals.windows(2) {
            assert!(
                w[1] >= w[0] + params.nic_gap * 0.99,
                "NIC must serialize: {arrivals:?}"
            );
        }
    }

    #[test]
    fn unexpected_message_pays_penalty() {
        let (params, placement) = setup(16);
        let mut rng = derive_rng(3, 0);
        let mut jit = ScalarJitter::new(params.jitter, &mut rng);
        let mut net = NetState::new(&placement);
        // Receiver posts late (at 1 ms): message waits and pays penalty.
        let (_, late) = net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 0, 1e-3);
        net.reset();
        let (_, posted) = net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 0, 0.0);
        assert!(late >= 1e-3 + params.unexpected_penalty);
        assert!(posted < 1e-3);
    }

    #[test]
    fn payload_bytes_cost_bandwidth() {
        let (params, placement) = setup(16);
        let mut rng = derive_rng(4, 0);
        let mut jit = ScalarJitter::new(params.jitter, &mut rng);
        let mut net = NetState::new(&placement);
        let (a0, _) = net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 0, 0.0);
        net.reset();
        let (a1, _) = net.signal_round_trip(&params, &placement, &mut jit, 0, 1, 0.0, 100_000, 0.0);
        let delta = a1 - a0;
        let expect = 100_000.0 * params.remote.inv_bandwidth;
        assert!(
            (delta - expect).abs() / expect < 1e-9,
            "bandwidth term {delta} vs {expect}"
        );
    }

    #[test]
    fn receiver_serializes_processing() {
        let (params, placement) = setup(16);
        let mut rng = derive_rng(5, 0);
        let mut jit = ScalarJitter::new(params.jitter, &mut rng);
        let mut net = NetState::new(&placement);
        // Two remote senders (ranks 0 and 2, both node 0) hit rank 5
        // (node 1) simultaneously.
        let (_, p1) = net.signal_round_trip(&params, &placement, &mut jit, 0, 5, 0.0, 0, 0.0);
        let (_, p2) = net.signal_round_trip(&params, &placement, &mut jit, 2, 5, 0.0, 0, 0.0);
        assert!(
            p2 >= p1 + params.remote.o_recv * 0.99,
            "second processing must queue behind the first"
        );
    }

    /// A ping after [`NetState::reset_pair`] on a dirty state is the
    /// ping after a full [`NetState::reset`], bit for bit, for every link
    /// class: the signal reads no queue besides the two reset.
    #[test]
    fn pair_reset_matches_full_reset_bitwise() {
        use hpm_stats::rng::JitterBuf;
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 32);
        // Round-robin over 8 nodes: 0 and 8 share a socket, 0 and 16 a
        // node on the other socket, 0 and 1 are remote.
        let pairs = [(0, 8), (0, 16), (0, 1)];
        let classes = pairs.map(|(i, j)| placement.link(i, j));
        assert_eq!(
            classes,
            [
                LinkClass::SameSocket,
                LinkClass::SameNode,
                LinkClass::Remote
            ]
        );
        let draws = 64 * SIGNAL_JITTER_DRAWS;
        let mut jit = JitterBuf::new();
        jit.fill(params.jitter.sigma, 9, 1, 0, draws);
        let mut dirty = NetState::new(&placement);
        for k in 0..64 {
            let (src, dst) = (k % 32, (k * 7 + 3) % 32);
            if src != dst {
                dirty.signal_round_trip(&params, &placement, &mut jit, src, dst, 1e-6, 64, 0.0);
            }
        }
        for (i, j) in pairs {
            let ping = |net: &mut NetState| {
                let mut jit = JitterBuf::new();
                jit.fill(
                    params.jitter.sigma,
                    9,
                    2,
                    (i * 32 + j) as u64,
                    SIGNAL_JITTER_DRAWS,
                );
                let (ack, processed) =
                    net.signal_round_trip(&params, &placement, &mut jit, i, j, 0.0, 256, 0.0);
                (ack.to_bits(), processed.to_bits())
            };
            let mut full = dirty.clone();
            full.reset();
            let mut pair = dirty.clone();
            pair.reset_pair(&placement, i, j);
            assert_eq!(ping(&mut pair), ping(&mut full), "pair ({i}, {j})");
            let node = placement.node_of(i);
            assert_eq!(pair.recv_busy[j].to_bits(), full.recv_busy[j].to_bits());
            assert_eq!(pair.nic_free[node].to_bits(), full.nic_free[node].to_bits());
        }
    }

    #[test]
    fn transfer_releases_sender_early() {
        let (params, placement) = setup(16);
        let mut rng = derive_rng(6, 0);
        let mut jit = ScalarJitter::new(params.jitter, &mut rng);
        let mut net = NetState::new(&placement);
        let (cpu_done, processed) = net.transfer(&params, &placement, &mut jit, 0, 1, 1 << 20, 0.0);
        // The sender is free long before the megabyte lands: overlap.
        assert!(cpu_done < processed / 100.0, "{cpu_done} vs {processed}");
    }

    #[test]
    fn self_transfer_is_memcpy_speed() {
        let (params, placement) = setup(8);
        let mut rng = derive_rng(7, 0);
        let mut jit = ScalarJitter::new(params.jitter, &mut rng);
        let mut net = NetState::new(&placement);
        let (_, done) = net.transfer(&params, &placement, &mut jit, 0, 0, 1 << 20, 0.0);
        let remote = params.remote.latency;
        assert!(done < remote * 100.0, "self transfer should be cheap");
    }
}
