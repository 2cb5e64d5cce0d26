//! The lane-parallel repetition executor: L independent barrier
//! repetitions advanced together over structure-of-arrays state.
//!
//! A measurement is hundreds of repetitions of the same compiled
//! pattern, differing only in their jitter multipliers. The scalar
//! executor walks them one at a time, paying the full pattern traversal
//! (stage bookkeeping, CSR walks, link-class lookups) per repetition.
//! This executor amortizes the traversal: every per-process time in
//! [`crate::barrier::SimScratch`] becomes a *lane vector* of L values
//! (`state[i·L + l]` = rank `i` in repetition `l`), the pattern is
//! walked once per batch, and each edge updates all L lanes in a short
//! contiguous loop of identical straight-line arithmetic — exactly the
//! shape compilers auto-vectorize.
//!
//! The jitter table is draw-major SoA too: row `d` holds draw `d` of
//! every lane, lane `l` from the per-repetition stream
//! `(seed, BARRIER_JITTER_LABEL, first_rep + l)`, consumed row-by-row in
//! executor order. It is never whole: the executor opens it with
//! [`JitterBuf::begin_lanes`], which computes a cache-sized window of
//! rows, row-major, each time the cursor runs off the previous one — at
//! p = 4096 the table would be 15.7 MB, the window is 16 KiB.
//!
//! Two equivalences pin the engine down (see the tests here and in
//! `tests/parallel_determinism.rs`):
//!
//! * per lane, the arithmetic is the scalar recurrence *verbatim* — so
//!   lane `l` of a batch is bit-identical to the one-at-a-time cold-start
//!   [`crate::barrier::BarrierSim::run_once_batched`] run of repetition
//!   `first_rep + l`, for every lane width;
//! * with jitter disabled every multiplier is exactly 1.0 and the
//!   recurrence collapses to the noiseless scalar path bit-for-bit —
//!   the flat core's noiseless goldens do not move.

use crate::barrier::{BarrierSim, BARRIER_JITTER_LABEL};
use crate::net::{egress, receive};
use crate::params::PlatformParams;
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::PayloadSchedule;
use hpm_stats::rng::JitterBuf;
use hpm_topology::LinkClass;

/// SoA scratch of the lane executor: per-(rank, lane) stage times,
/// per-(node, lane) NIC queues, per-(rank, lane) receive queues and the
/// per-lane totals — consecutive regions of one buffer, laid out per
/// run — plus the jitter window. One scratch serves any
/// pattern/lane-width; the buffer grows to the high-water mark and is
/// then reused allocation-free.
#[derive(Debug, Clone, Default)]
pub struct LaneScratch {
    /// `totals` (one per lane) first, where [`LaneScratch::totals`]
    /// finds them; then the regions [`LaneScratch::split`] names.
    state: Vec<f64>,
    /// Lane width of the most recent batch.
    lanes: usize,
    /// Window over the batch's draw-major jitter table.
    jitter: JitterBuf,
}

/// The regions of [`LaneScratch::state`] behind the totals.
struct LaneState<'a> {
    /// Stage entry times; final exits after a run.
    cur: &'a mut [f64],
    /// Stage exit times being accumulated.
    nxt: &'a mut [f64],
    /// Library-posted times within one stage.
    posted: &'a mut [f64],
    /// Latest inbound-signal processing times within one stage.
    last_arrival: &'a mut [f64],
    /// Per-(rank, lane) receive-processing availability.
    recv_busy: &'a mut [f64],
    /// Per-(node, lane) NIC egress availability.
    nic_free: &'a mut [f64],
    /// Per-lane acknowledgement chain of the rank currently sending.
    acks: &'a mut [f64],
}

impl LaneScratch {
    /// An empty scratch; the first run sizes it.
    pub fn new() -> LaneScratch {
        LaneScratch::default()
    }

    /// Per-lane totals of the most recent batch.
    pub fn totals(&self) -> &[f64] {
        &self.state[..self.lanes]
    }

    /// The jitter window of the most recent batch — lets audit tests
    /// compare consumed rows against the plan's reported draw count.
    pub fn jitter(&self) -> &JitterBuf {
        &self.jitter
    }

    /// Lays the buffer out for `p` ranks on `nodes` nodes in `lanes`
    /// lanes: `(totals, regions, jitter)`.
    fn split(
        &mut self,
        p: usize,
        nodes: usize,
        lanes: usize,
    ) -> (&mut [f64], LaneState<'_>, &mut JitterBuf) {
        let el = p * lanes;
        let need = lanes + 5 * el + nodes * lanes + lanes;
        if self.state.len() < need {
            self.state.resize(need, 0.0);
        }
        self.lanes = lanes;
        let (totals, rest) = self.state.split_at_mut(lanes);
        let (cur, rest) = rest.split_at_mut(el);
        let (nxt, rest) = rest.split_at_mut(el);
        let (posted, rest) = rest.split_at_mut(el);
        let (last_arrival, rest) = rest.split_at_mut(el);
        let (recv_busy, rest) = rest.split_at_mut(el);
        let (nic_free, rest) = rest.split_at_mut(nodes * lanes);
        let regions = LaneState {
            cur,
            nxt,
            posted,
            last_arrival,
            recv_busy,
            nic_free,
            acks: &mut rest[..lanes],
        };
        (totals, regions, &mut self.jitter)
    }
}

impl BarrierSim<'_> {
    /// Runs `lanes` cold-start repetitions of a compiled pattern
    /// simultaneously, repetition `first_rep + l` in lane `l`; returns
    /// the per-lane worst-case completion times (also available from
    /// [`LaneScratch::totals`]).
    ///
    /// Sample `l` is bit-identical to the worst-case exit of a cold-start
    /// [`BarrierSim::run_once_batched`] at `rep = first_rep + l` under
    /// [`BARRIER_JITTER_LABEL`] — lane width and batch grouping are
    /// invisible in the numbers.
    pub fn run_batch_compiled<'s>(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        seed: u64,
        first_rep: u64,
        lanes: usize,
        scratch: &'s mut LaneScratch,
    ) -> &'s [f64] {
        let p = plan.p();
        assert_eq!(self.placement.nprocs(), p, "placement process count");
        assert!(lanes >= 1, "at least one lane");
        let nodes = self.placement.shape().nodes();
        let (totals, mut st, jitter) = scratch.split(p, nodes, lanes);
        jitter.begin_lanes(
            self.params.jitter.sigma,
            seed,
            BARRIER_JITTER_LABEL,
            first_rep,
            lanes,
            plan.jitter_draws(),
        );
        st.cur.fill(0.0);
        st.nic_free.fill(0.0);
        st.recv_busy.fill(0.0);

        for s in 0..plan.stages() {
            run_stage_lanes(
                self.params,
                self.placement,
                plan,
                payload,
                s,
                lanes,
                &mut st,
                jitter,
            );
            std::mem::swap(&mut st.cur, &mut st.nxt);
        }

        for (l, total) in totals.iter_mut().enumerate() {
            let mut worst = f64::NEG_INFINITY;
            for i in 0..p {
                worst = worst.max(st.cur[i * lanes + l]);
            }
            *total = worst;
        }
        scratch.totals()
    }
}

/// One stage over all lanes: the scalar stage recurrence with every
/// per-process scalar widened to a lane vector. Multiplier rows are
/// consumed in the scalar executor's draw order (entry draws in rank
/// order, then per rank per edge the `o_send`/wire/`o_recv`/ack
/// quadruple), so the cursor position per lane matches the single-lane
/// fill exactly.
#[allow(clippy::too_many_arguments)]
fn run_stage_lanes(
    params: &PlatformParams,
    placement: &hpm_topology::Placement,
    plan: &CompiledPattern,
    payload: &PayloadSchedule,
    s: usize,
    lanes: usize,
    st: &mut LaneState<'_>,
    jitter: &mut JitterBuf,
) {
    let LaneState {
        cur,
        nxt,
        posted,
        last_arrival,
        recv_busy,
        nic_free,
        acks,
    } = st;
    let p = plan.p();
    let stage = plan.stage(s);
    let bytes = payload.bytes(s);
    let el = p * lanes;
    // Library call: posted = entry + call overhead, per rank per lane.
    for i in 0..p {
        let m = jitter.rows(1);
        let base = i * lanes;
        for l in 0..lanes {
            posted[base + l] = cur[base + l] + params.call_overhead * m[l];
        }
    }
    nxt.copy_from_slice(posted);
    last_arrival.fill(f64::NEG_INFINITY);
    for i in 0..p {
        acks.copy_from_slice(&posted[i * lanes..(i + 1) * lanes]);
        for &j in stage.dsts(i) {
            let j = j as usize;
            let link = placement.link(i, j);
            let lc = params.link(link);
            let wire_base = lc.latency + bytes as f64 * lc.inv_bandwidth;
            let ms = jitter.rows(4);
            let (m_send, rest) = ms.split_at(lanes);
            let (m_wire, rest) = rest.split_at(lanes);
            let (m_recv, m_ack) = rest.split_at(lanes);
            let (posted_j, rb, la) = (
                &posted[j * lanes..(j + 1) * lanes],
                &mut recv_busy[j * lanes..],
                &mut last_arrival[j * lanes..],
            );
            // Remote signals queue at the sender node's NIC, per lane.
            let mut nic =
                (link == LinkClass::Remote).then(|| &mut nic_free[placement.node_of(i) * lanes..]);
            // Per lane, the arithmetic of the scalar primitive
            // (`NetState::signal` under `NoFaults`) through the same
            // helpers; only the queues are lane vectors.
            for l in 0..lanes {
                let send_done = acks[l] + lc.o_send * m_send[l];
                let dep = match &mut nic {
                    Some(nic) => egress(&mut nic[l], params.nic_gap, send_done),
                    None => send_done,
                };
                let (processed, ack) = receive(
                    params,
                    dep + wire_base * m_wire[l],
                    posted_j[l],
                    &mut rb[l],
                    lc.o_recv * m_recv[l],
                    lc.latency * params.ack_factor * m_ack[l],
                );
                if processed > la[l] {
                    la[l] = processed;
                }
                acks[l] = ack;
            }
        }
        let base = i * lanes;
        for l in 0..lanes {
            if acks[l] > nxt[base + l] {
                nxt[base + l] = acks[l];
            }
        }
    }
    for je in 0..el {
        if last_arrival[je] > nxt[je] {
            nxt[je] = last_arrival[je];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::SimScratch;
    use crate::fixtures::{cold_total, dissemination};
    use crate::net::NetState;
    use crate::params::xeon_cluster_params;
    use hpm_stats::rng::{derive_rng, ScalarJitter};
    use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

    /// Every lane of a batch equals the one-at-a-time batched run of the
    /// same repetition — for several lane widths, including widths that
    /// do not divide the repetition count.
    #[test]
    fn lanes_match_single_repetition_runs_bitwise() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 24);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(24);
        let payload = hpm_core::predictor::PayloadSchedule::dissemination_count_map(24);
        let mut net = NetState::new(&placement);
        let mut scalar = SimScratch::new(&placement);
        let singles: Vec<f64> = (0..12)
            .map(|r| cold_total(&sim, &plan, &payload, 77, r, &mut net, &mut scalar))
            .collect();
        let mut scratch = LaneScratch::new();
        for lanes in [1usize, 3, 8, 12] {
            let mut got = Vec::new();
            let mut first = 0usize;
            while first < 12 {
                let l = lanes.min(12 - first);
                got.extend_from_slice(sim.run_batch_compiled(
                    &plan,
                    &payload,
                    77,
                    first as u64,
                    l,
                    &mut scratch,
                ));
                first += l;
            }
            assert_eq!(got, singles, "lane width {lanes}");
        }
    }

    /// With jitter off, the lane executor reproduces the scalar compiled
    /// executor bit for bit — the noiseless path does not move.
    #[test]
    fn noiseless_lanes_match_scalar_executor_bitwise() {
        let params = xeon_cluster_params().noiseless();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(16);
        let payload = hpm_core::predictor::PayloadSchedule::none();
        let mut net = NetState::new(&placement);
        let mut scalar = SimScratch::new(&placement);
        let mut rng = derive_rng(5, 0);
        let mut jit = ScalarJitter::new(params.jitter, &mut rng);
        sim.run_once_compiled(&plan, &payload, &[0.0; 16], &mut net, &mut jit, &mut scalar);
        let want = scalar.total();
        let mut scratch = LaneScratch::new();
        let got = sim.run_batch_compiled(&plan, &payload, 5, 0, 4, &mut scratch);
        assert!(got.iter().all(|&t| t.to_bits() == want.to_bits()));
    }

    /// Draw-count audit (both engines): the executor consumes exactly
    /// the draw count the compiled plan reports, per repetition. The
    /// plan derives that count from its CSR shape when it is compiled,
    /// so this ties the engines' dynamic accounting to the compiled
    /// form and the two can never drift apart silently.
    #[test]
    fn executor_consumes_exactly_the_plan_reported_draws() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 24);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(24);
        let payload = hpm_core::predictor::PayloadSchedule::dissemination_count_map(24);
        // Lane engine: rows consumed == draws, for every lane width.
        let mut scratch = LaneScratch::new();
        for lanes in [1usize, 5, 8] {
            sim.run_batch_compiled(&plan, &payload, 3, 0, lanes, &mut scratch);
            assert_eq!(
                scratch.jitter().consumed(),
                plan.jitter_draws(),
                "lane width {lanes}"
            );
        }
        // Scalar batched engine: same count.
        let mut net = NetState::new(&placement);
        let mut scalar = SimScratch::new(&placement);
        cold_total(&sim, &plan, &payload, 3, 0, &mut net, &mut scalar);
        assert_eq!(scalar.jitter().consumed(), plan.jitter_draws());
    }

    /// Statistical equivalence: the jittered median tracks the
    /// noise-free completion time (the log-normal multiplier has median
    /// 1; the max over processes skews the composite slightly upward).
    #[test]
    fn jittered_median_tracks_noise_free_value() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let jittered = BarrierSim::new(&params, &placement);
        let noiseless_params = params.noiseless();
        let noiseless = BarrierSim::new(&noiseless_params, &placement);
        let pat = dissemination(16);
        let payload = hpm_core::predictor::PayloadSchedule::none();
        let med = jittered.measure_compiled(&pat, &payload, 512, 9).median();
        let base = noiseless.measure_compiled(&pat, &payload, 1, 9).samples[0];
        let rel = (med - base) / base;
        assert!(
            (-0.02..0.15).contains(&rel),
            "median {med} vs noise-free {base} (rel {rel})"
        );
    }

    /// The old (scalar Box-Muller) and new (batched inverse-CDF) jitter
    /// engines describe the same physics: mean completion times agree
    /// within sampling tolerance.
    #[test]
    fn batched_and_scalar_measurements_agree_statistically() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(16);
        let payload = hpm_core::predictor::PayloadSchedule::none();
        let reps = 768;
        let batched = sim.measure_compiled(&plan, &payload, reps, 11).mean();
        // The scalar path, as PR 4's measure ran it: one derived StdRng
        // per repetition through the compiled executor.
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        let scalar_samples: Vec<f64> = (0..reps)
            .map(|r| {
                let mut rng = derive_rng(11, r as u64);
                let mut jit = ScalarJitter::new(params.jitter, &mut rng);
                net.reset();
                sim.run_once_compiled(
                    &plan,
                    &payload,
                    &[0.0; 16],
                    &mut net,
                    &mut jit,
                    &mut scratch,
                );
                assert_eq!(jit.drawn(), plan.jitter_draws());
                scratch.total()
            })
            .collect();
        let scalar = hpm_stats::mean(&scalar_samples);
        let rel = (batched - scalar).abs() / scalar;
        assert!(
            rel < 0.02,
            "batched mean {batched} vs scalar mean {scalar} (rel {rel})"
        );
    }
}
