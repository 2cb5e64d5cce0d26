//! The Fig. 5.5 staged barrier executor.
//!
//! The thesis' barrier simulator drives an arbitrary pattern through
//! `MPI_Startall`/`MPI_Waitall` per stage; the equivalent here executes
//! each stage against the message engine: every process pays the call
//! overhead, issues its signal vector as serial acknowledged round trips,
//! and leaves the stage when its own sends are acknowledged and its
//! expected receives are processed.
//!
//! The executor follows the compile-then-execute split of the flat
//! simulation core (see DESIGN.md): patterns are compiled once into
//! [`CompiledPattern`] CSR form, and every execution runs over a caller-
//! owned [`SimScratch`] — after warmup, [`BarrierSim::run_once_compiled`]
//! performs zero heap allocations per repetition.
//!
//! There is one scalar stage kernel, `BarrierSim::run_stages`, generic
//! over the jitter source, over a crate-private `FaultView` and over a
//! rank map. The clean entry points here instantiate it with `NoFaults`
//! and the identity map; [`crate::faults`] passes the view that carries
//! retries, timeouts and crashes; [`crate::recovery`] runs the repaired
//! plan through it with `survivors[i]` as the map. The only other
//! traversal is the SoA lane loop of [`crate::batch`], whose per-lane
//! arithmetic goes through the same `receive`/`egress` helpers of
//! [`crate::net`] (DESIGN.md, "One stage kernel").
//!
//! Stochastics come in through a [`JitterSource`]:
//! [`BarrierSim::run_once_compiled`] accepts any source, and
//! [`BarrierSim::run_once_batched`] batch-fills the scratch's
//! [`JitterBuf`] with exactly [`CompiledPattern::jitter_draws`]
//! multipliers from a counter-based stream keyed by `(seed, label, rep)`
//! before executing — the stage loop then touches no RNG at all.
//! [`BarrierSim::measure_compiled`] goes one step further and runs repetitions in
//! SoA lanes on the [`crate::batch::LaneScratch`] executor; because every
//! repetition's multipliers come from its own `(seed, rep)` stream, the
//! samples are identical however repetitions are grouped into lanes or
//! threads.

use crate::batch::LaneScratch;
use crate::net::{FaultView, NetState, NoFaults, SignalFate};
use crate::params::PlatformParams;
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::PayloadSchedule;
use hpm_stats::rng::{JitterBuf, JitterSource};
use hpm_topology::Placement;

/// Stream label of the staged barrier executor's jitter tables: every
/// repetition `r` of a measurement with seed `s` fills from the stream
/// `(s, BARRIER_JITTER_LABEL, r)`, whether it runs scalar-batched or as
/// one lane of the SoA executor.
pub const BARRIER_JITTER_LABEL: u64 = 0x4241_5252; // "BARR"

/// Lanes per batch of [`BarrierSim::measure_compiled`]: the width the jitter
/// fill has a fixed-width kernel for. A tuning knob, not a contract:
/// samples are bit-identical for any lane width because each repetition
/// owns its `(seed, rep)` jitter stream.
pub const MEASURE_LANES: usize = hpm_stats::stream::WIDE_LANES;

/// Aggregated timings of repeated barrier executions.
#[derive(Debug, Clone)]
pub struct BarrierMeasurement {
    /// Completion time (max over processes) of every run.
    pub samples: Vec<f64>,
}

impl BarrierMeasurement {
    /// Arithmetic mean of the per-run worst-case times — the statistic of
    /// Figs. 5.6/5.10 ("worst-case times were collected from 256 runs …
    /// and the arithmetic mean of these is reported").
    ///
    /// Computed directly from the samples slice; `hpm_stats::mean` steps
    /// the same Welford recurrence as `Summary`, so the value is
    /// bit-identical to the old build-a-`Summary` path without its
    /// insertion-sorted copy.
    pub fn mean(&self) -> f64 {
        hpm_stats::mean(&self.samples)
    }

    /// Median per-run worst-case time, computed directly from the
    /// samples slice by quickselect.
    pub fn median(&self) -> f64 {
        hpm_stats::quantile::median(&self.samples)
    }
}

/// Reusable per-execution buffers of the staged executor: stage entry and
/// exit times, library-posted times and inbound-arrival accumulators.
///
/// One scratch serves any pattern of at most its placement's process
/// count — a run over `p` ranks works on the first `p` entries of every
/// buffer; carry it across stages, repetitions and supersteps (the
/// measurement loop keeps one per worker) so the executor's inner loop
/// never touches the allocator.
#[derive(Debug, Clone)]
pub struct SimScratch {
    /// Entry times of the current stage; holds the final exits after a
    /// run ([`SimScratch::exits`]).
    pub(crate) cur: Vec<f64>,
    /// Exit times being accumulated for the current stage.
    pub(crate) nxt: Vec<f64>,
    /// Per-process library-posted times within one stage.
    pub(crate) posted: Vec<f64>,
    /// Per-process latest inbound-signal processing time within one stage.
    pub(crate) last_arrival: Vec<f64>,
    /// Jitter table of the batched entry points, refilled per run (the
    /// allocation is reused across fills).
    pub(crate) jitter: JitterBuf,
    /// Rank count of the most recent run: how much of `cur` is exits.
    ranks: usize,
}

impl SimScratch {
    /// Scratch sized for a placement's process count.
    pub fn new(placement: &Placement) -> SimScratch {
        let p = placement.nprocs();
        SimScratch {
            cur: vec![0.0; p],
            nxt: vec![0.0; p],
            posted: vec![0.0; p],
            last_arrival: vec![0.0; p],
            jitter: JitterBuf::new(),
            ranks: p,
        }
    }

    /// Per-process exit times of the most recent run — exactly its
    /// plan's `p` ranks, however many the scratch was built for.
    pub fn exits(&self) -> &[f64] {
        &self.cur[..self.ranks]
    }

    /// Worst-case exit time of the most recent run — the barrier's
    /// completion time.
    pub fn total(&self) -> f64 {
        self.exits()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The jitter table of the most recent batched run — lets audit
    /// tests compare [`JitterBuf::consumed`] against the plan's
    /// reported draw count.
    pub fn jitter(&self) -> &JitterBuf {
        &self.jitter
    }

    /// Fills the jitter table with `draws` multipliers from the stream
    /// `(seed, label, rep)` and lends it to `run` beside the rest of the
    /// scratch. Whatever ran must have consumed exactly `draws` — the
    /// plan ≡ engine draw-count contract, audited here for the clean,
    /// faulty and repaired executions alike.
    pub(crate) fn with_jitter(
        &mut self,
        sigma: f64,
        seed: u64,
        label: u64,
        rep: u64,
        draws: usize,
        run: impl FnOnce(&mut SimScratch, &mut JitterBuf),
    ) {
        let mut jit = std::mem::take(&mut self.jitter);
        jit.fill(sigma, seed, label, rep, draws);
        run(self, &mut jit);
        debug_assert!(
            sigma == 0.0 || jit.consumed() == draws,
            "executor consumed a different jitter-draw count than the plan reports"
        );
        self.jitter = jit;
    }
}

/// Executes barrier patterns on a simulated platform.
#[derive(Debug, Clone, Copy)]
pub struct BarrierSim<'a> {
    pub params: &'a PlatformParams,
    pub placement: &'a Placement,
}

impl<'a> BarrierSim<'a> {
    /// Creates an executor; the placement must match the platform.
    pub fn new(params: &'a PlatformParams, placement: &'a Placement) -> BarrierSim<'a> {
        BarrierSim { params, placement }
    }

    /// Runs one execution of a compiled pattern from per-process entry
    /// times, entirely within `scratch`; read the exit times from
    /// [`SimScratch::exits`]. Performs no heap allocation.
    ///
    /// `net` carries NIC/receiver queues across calls, so consecutive
    /// barriers in a superstep share contention state; reset it (a reset
    /// queue is indistinguishable from a fresh one) for a cold start.
    pub fn run_once_compiled<J: JitterSource>(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        entry: &[f64],
        net: &mut NetState,
        jit: &mut J,
        scratch: &mut SimScratch,
    ) {
        let p = plan.p();
        assert_eq!(entry.len(), p, "entry vector length");
        assert_eq!(self.placement.nprocs(), p, "placement process count");
        scratch.cur[..p].copy_from_slice(entry);
        self.run_stages(plan, payload, |i| i, net, jit, &mut NoFaults, scratch);
    }

    /// [`BarrierSim::run_once_compiled`] on the batched jitter engine:
    /// fills the scratch's [`JitterBuf`] with the plan's exact draw
    /// count from the stream `(seed, label, rep)` and executes over it —
    /// the stage loop consumes multipliers by cursor only. Callers own
    /// the stream naming: the BSPlib sync labels per run and uses the
    /// superstep index as `rep`, the measurement loop uses
    /// [`BARRIER_JITTER_LABEL`] and the repetition index. From zero entry
    /// times and a reset `net`, repetition `rep` under
    /// [`BARRIER_JITTER_LABEL`] is bit-identical to lane `rep - first_rep`
    /// of [`BarrierSim::run_batch_compiled`] — the lane executor performs
    /// the same arithmetic on the same multipliers, just strided.
    #[allow(clippy::too_many_arguments)]
    pub fn run_once_batched(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        entry: &[f64],
        net: &mut NetState,
        seed: u64,
        label: u64,
        rep: u64,
        scratch: &mut SimScratch,
    ) {
        let sigma = self.params.jitter.sigma;
        let draws = plan.jitter_draws();
        scratch.with_jitter(sigma, seed, label, rep, draws, |scratch, jit| {
            self.run_once_compiled(plan, payload, entry, net, jit, scratch);
        });
    }

    /// The scalar stage kernel — the Fig. 5.5 recurrence, once. Expects
    /// the entry times in `scratch.cur[..plan.p()]` and leaves the final
    /// exits there.
    ///
    /// `view` is what the repetition's faults do to it (see
    /// [`FaultView`]; [`NoFaults`] compiles to the clean loop).
    /// `rank_of` maps a plan rank to the machine rank that link
    /// classification and the [`NetState`] queues see: the identity, or
    /// `survivors[i]` when a repaired plan runs over compacted survivor
    /// indices.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_stages<J: JitterSource, V: FaultView>(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        rank_of: impl Fn(usize) -> usize,
        net: &mut NetState,
        jit: &mut J,
        view: &mut V,
        scratch: &mut SimScratch,
    ) {
        let p = plan.p();
        assert!(
            scratch.cur.len() >= p,
            "scratch holds fewer ranks than the plan"
        );
        scratch.ranks = p;
        for s in 0..plan.stages() {
            let stage = plan.stage(s);
            let bytes = payload.bytes(s);
            let (cur, nxt) = (&scratch.cur[..p], &mut scratch.nxt[..p]);
            let posted = &mut scratch.posted[..p];
            let last_arrival = &mut scratch.last_arrival[..p];
            // Every process calls into the library: posted time = entry +
            // call overhead; from then on its receives are posted.
            for (i, (post, &e)) in posted.iter_mut().zip(cur).enumerate() {
                let slow = view.slow(self.placement, rank_of(i));
                *post = e + self.params.call_overhead * jit.next_mult() * slow;
            }
            nxt.copy_from_slice(posted);
            // last_arrival[j] accumulates processing times of j's inbound
            // signals.
            last_arrival.fill(f64::NEG_INFINITY);
            for i in 0..p {
                let mut t = posted[i];
                for &j in stage.dsts(i) {
                    let fate = net.signal(
                        self.params,
                        self.placement,
                        jit,
                        view,
                        rank_of(i),
                        rank_of(j),
                        t,
                        bytes,
                        posted[j],
                    );
                    view.record(i, j, &fate);
                    match fate {
                        SignalFate::Delivered { ack, processed, .. } => {
                            t = ack;
                            if processed > last_arrival[j] {
                                last_arrival[j] = processed;
                            }
                        }
                        SignalFate::Lost { gave_up } => t = gave_up,
                        SignalFate::SenderDead => {}
                    }
                }
                if t > nxt[i] {
                    nxt[i] = t;
                }
            }
            for j in 0..p {
                if last_arrival[j] > nxt[j] {
                    nxt[j] = last_arrival[j];
                }
                if let Some(gave_up) = view.missing_arrival(j, stage, posted[j]) {
                    if gave_up > nxt[j] {
                        nxt[j] = gave_up;
                    }
                }
            }
            std::mem::swap(&mut scratch.cur, &mut scratch.nxt);
        }
    }

    /// Repeated runs with independent jitter streams, in SoA lanes.
    ///
    /// Repetitions execute [`MEASURE_LANES`] at a time on the
    /// lane-parallel executor: each batch runs every lane's repetition
    /// simultaneously over SoA state, reading a draw-major jitter table
    /// (lane `l` from the stream `(seed, BARRIER_JITTER_LABEL, rep)`)
    /// that is computed a cache-sized window ahead of the stage loop.
    /// Because a repetition's multipliers depend only on `(seed, rep)`
    /// and the per-lane arithmetic is the scalar recurrence verbatim, the
    /// samples are bit-identical to one-at-a-time cold-start
    /// [`BarrierSim::run_once_batched`] runs — at any lane width and any
    /// [`hpm_par`] thread count. Each worker carries one [`LaneScratch`]
    /// across its batches, and every batch writes its totals straight
    /// into its slice of the samples.
    pub fn measure_compiled(
        &self,
        plan: &CompiledPattern,
        payload: &PayloadSchedule,
        reps: usize,
        seed: u64,
    ) -> BarrierMeasurement {
        let mut samples = vec![0.0; reps];
        hpm_par::par_chunks_mut_with(
            &mut samples,
            MEASURE_LANES,
            LaneScratch::new,
            |scratch, b, out| {
                let first = (b * MEASURE_LANES) as u64;
                out.copy_from_slice(self.run_batch_compiled(
                    plan,
                    payload,
                    seed,
                    first,
                    out.len(),
                    scratch,
                ));
            },
        );
        BarrierMeasurement { samples }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::dissemination;
    use crate::params::xeon_cluster_params;
    use hpm_core::plan::StagePlan;
    use hpm_stats::rng::{derive_rng, ScalarJitter};
    use hpm_topology::{cluster_8x2x4, PlacementPolicy};

    fn linear(p: usize) -> CompiledPattern {
        let gather: Vec<(usize, usize)> = (1..p).map(|i| (i, 0)).collect();
        let gather = StagePlan::from_edges(p, &gather);
        let release = gather.transpose();
        CompiledPattern::from_stages("linear", p, vec![gather, release])
    }

    #[test]
    fn deterministic_given_seed() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 32);
        let sim = BarrierSim::new(&params, &placement);
        let a = sim.measure_compiled(&dissemination(32), &PayloadSchedule::none(), 5, 77);
        let b = sim.measure_compiled(&dissemination(32), &PayloadSchedule::none(), 5, 77);
        assert_eq!(a.samples, b.samples);
    }

    /// Parallel repetitions return the same samples, in the same order,
    /// as a serial loop — per-rep derived RNG streams make the schedule
    /// irrelevant.
    #[test]
    fn parallel_measure_matches_serial_bitwise() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 24);
        let sim = BarrierSim::new(&params, &placement);
        for seed in [7u64, 77, 777] {
            let serial = hpm_par::with_threads(Some(1), || {
                sim.measure_compiled(&dissemination(24), &PayloadSchedule::none(), 16, seed)
            });
            for threads in [2usize, 5, 16] {
                let par = hpm_par::with_threads(Some(threads), || {
                    sim.measure_compiled(&dissemination(24), &PayloadSchedule::none(), 16, seed)
                });
                assert_eq!(serial.samples, par.samples, "seed {seed} threads {threads}");
            }
        }
    }

    #[test]
    fn dissemination_beats_linear_at_scale() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
        let sim = BarrierSim::new(&params, &placement);
        let lin = sim
            .measure_compiled(&linear(64), &PayloadSchedule::none(), 8, 1)
            .mean();
        let dis = sim
            .measure_compiled(&dissemination(64), &PayloadSchedule::none(), 8, 1)
            .mean();
        assert!(lin > 2.0 * dis, "linear {lin} vs dissemination {dis}");
    }

    #[test]
    fn single_node_barrier_is_microseconds() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 8);
        let sim = BarrierSim::new(&params, &placement);
        let t = sim
            .measure_compiled(&dissemination(8), &PayloadSchedule::none(), 8, 2)
            .mean();
        assert!(t > 0.0 && t < 50e-6, "one-node dissemination {t}");
    }

    #[test]
    fn multi_node_barrier_is_submillisecond_but_larger() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
        let sim = BarrierSim::new(&params, &placement);
        let t = sim
            .measure_compiled(&dissemination(64), &PayloadSchedule::none(), 8, 3)
            .mean();
        assert!(
            t > 50e-6 && t < 2e-3,
            "full-cluster dissemination {t} out of expected band"
        );
    }

    #[test]
    fn payload_slows_the_barrier() {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
        let sim = BarrierSim::new(&params, &placement);
        let plain = sim
            .measure_compiled(&dissemination(64), &PayloadSchedule::none(), 8, 4)
            .mean();
        let mapped = sim
            .measure_compiled(
                &dissemination(64),
                &PayloadSchedule::dissemination_count_map(64),
                8,
                4,
            )
            .mean();
        assert!(mapped > plain, "payload {mapped} vs plain {plain}");
    }

    #[test]
    fn linear_scales_linearly_dissemination_logarithmically() {
        let params = xeon_cluster_params().noiseless();
        let placement64 = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 64);
        let placement16 = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let s64 = BarrierSim::new(&params, &placement64);
        let s16 = BarrierSim::new(&params, &placement16);
        let lin_ratio = s64
            .measure_compiled(&linear(64), &PayloadSchedule::none(), 3, 5)
            .mean()
            / s16
                .measure_compiled(&linear(16), &PayloadSchedule::none(), 3, 5)
                .mean();
        let dis_ratio = s64
            .measure_compiled(&dissemination(64), &PayloadSchedule::none(), 3, 5)
            .mean()
            / s16
                .measure_compiled(&dissemination(16), &PayloadSchedule::none(), 3, 5)
                .mean();
        // 4x process growth: linear should grow ~4x, dissemination ~6/4x.
        assert!(lin_ratio > 2.5, "linear ratio {lin_ratio}");
        assert!(dis_ratio < 2.5, "dissemination ratio {dis_ratio}");
    }

    #[test]
    fn entry_skew_delays_completion() {
        // Delaying one process delays the barrier by about the same amount
        // — the empirical verification §5.5 describes.
        let params = xeon_cluster_params().noiseless();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        let sim = BarrierSim::new(&params, &placement);
        let plan = dissemination(16);
        let mut net = NetState::new(&placement);
        let mut scratch = SimScratch::new(&placement);
        let mut total = |entry: &[f64]| {
            net.reset();
            let mut rng = derive_rng(9, 0);
            let mut jit = ScalarJitter::new(params.jitter, &mut rng);
            sim.run_once_compiled(
                &plan,
                &PayloadSchedule::none(),
                entry,
                &mut net,
                &mut jit,
                &mut scratch,
            );
            // The scalar twin of the batched consumed-vs-planned audit.
            assert_eq!(jit.drawn(), plan.jitter_draws());
            scratch.total()
        };
        let base = total(&[0.0; 16]);
        let mut entry = vec![0.0; 16];
        entry[7] = 500e-6;
        let delayed = total(&entry);
        assert!(
            delayed >= base + 400e-6,
            "delay must propagate: base {base}, delayed {delayed}"
        );
    }
}
