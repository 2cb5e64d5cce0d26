//! Model-driven optimization of the shadow-region width (§8.6,
//! Figs. 8.16–8.18).
//!
//! The adapted superstep trades redundant computation for amortized
//! synchronization: with ghost zones `w` deep, border exchange and the
//! global sync run once every `w` Jacobi iterations, at the price of
//! computing a shrinking halo of shadow cells redundantly (iteration `j`
//! of a superstep can still update cells up to `w−1−j` deep into the
//! ghost region). Per-iteration cost is therefore
//!
//! ```text
//! T(w)/w = [ Σ_j compute(expanded block at depth w−1−j)
//!            ⊕ overlap(border exchange of w-deep bands)
//!            + sync ] / w
//! ```
//!
//! — a U-shaped curve whose minimum the framework predicts from the same
//! matrices as Ch. 8.5, and which the C1 experiment validates against
//! simulated execution.

use crate::decomp::{Decomposition, Side};
use hpm_bsplib::ops::HEADER_BYTES;
use hpm_bsplib::runtime::{SuperstepNet, SyncPattern};
use hpm_core::predictor::CostModel;
use hpm_kernels::rate::ProcessorModel;
use hpm_kernels::stencil::Stencil5;
use hpm_simnet::exchange::{ExchangeMsg, ExchangeResult};
use hpm_simnet::params::PlatformParams;
use hpm_stats::rng::derive_rng;
use hpm_topology::Placement;

/// Stream labels of the adapted superstep's band exchange and sync; the
/// ghost width keys the label (one sweep point per width), the
/// superstep index keys `rep`.
const GHOST_EXCHANGE_JITTER_LABEL: u64 = 0x4757_4558; // b"GWEX"
const GHOST_SYNC_JITTER_LABEL: u64 = 0x4757_5359; // b"GWSY"

/// Cells computed by one process in one `w`-deep superstep: the block is
/// logically expanded by `w−1−j` cells on each interior face at iteration
/// `j` (boundary faces do not expand). Returns the per-superstep total.
fn superstep_cells(decomp: &Decomposition, rank: usize, w: usize) -> usize {
    let b = decomp.block(rank);
    let faces_on = |pair: [Side; 2]| decomp.faces(rank).filter(|f| pair.contains(&f.0)).count();
    let faces_x = faces_on([Side::West, Side::East]);
    let faces_y = faces_on([Side::North, Side::South]);
    (0..w)
        .map(|j| {
            let d = w - 1 - j;
            (b.width + faces_x * d) * (b.height + faces_y * d)
        })
        .sum()
}

/// Border band bytes for one face with `w`-deep ghost zones (band depth
/// `w`, length extended by the diagonal halo contribution).
fn band_bytes(side_len: usize, w: usize) -> u64 {
    ((side_len + 2 * w) * w * 8) as u64
}

/// Supersteps each candidate width is measured over by
/// [`optimize_ghost_width`]: the iterations Table 8.1 lists for C1.
pub const GHOST_SUPERSTEPS: usize = 6;

/// Sweep result: predicted and measured per-iteration times per width.
#[derive(Debug, Clone)]
pub struct GhostSweep {
    pub widths: Vec<usize>,
    pub predicted: Vec<f64>,
    pub measured: Vec<f64>,
}

impl GhostSweep {
    fn argmin(xs: &[f64]) -> usize {
        xs.iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN time"))
            .expect("non-empty sweep")
            .0
    }

    /// Width the model recommends.
    pub fn best_predicted(&self) -> usize {
        self.widths[Self::argmin(&self.predicted)]
    }

    /// Width the (simulated) measurement prefers.
    pub fn best_measured(&self) -> usize {
        self.widths[Self::argmin(&self.measured)]
    }
}

/// Predicts the per-iteration cost of a `w`-deep superstep.
pub fn predict_ghost_width<C: CostModel + ?Sized>(
    costs: &C,
    proc_model: &ProcessorModel,
    placement: &Placement,
    n: usize,
    w: usize,
) -> f64 {
    assert!(w >= 1);
    let p = placement.nprocs();
    let decomp = Decomposition::new(n, p);
    let sync = SyncPattern::Dissemination.predict(p, costs);
    let mut worst = 0.0f64;
    for r in 0..p {
        let cells = superstep_cells(&decomp, r, w);
        let per_cell = proc_model.secs_per_element(&Stencil5, decomp.block(r).cells());
        let comp = cells as f64 * per_cell;
        // Border compute before commit: the outer ring of the expanded
        // block at depth w−1 (approximated by the plain outer ring).
        let pre = decomp.regions(r).pre_comm() as f64 * per_cell;
        let mut comm = 0.0;
        for (_, peer, len) in decomp.faces(r) {
            let c = costs.pair(r, peer);
            let bytes = (band_bytes(len, w) + HEADER_BYTES) as f64;
            // The payload message, then the header message.
            comm += (c.l + c.beta * bytes) + c.l;
        }
        // Eq. 1.4 with all comm maskable against post-commit compute.
        let maskable_comp = comp - pre;
        let total = pre + maskable_comp.max(comm) + sync;
        worst = worst.max(total);
    }
    worst / w as f64
}

/// Simulates the adapted superstep for width `w`, returning the mean
/// per-iteration time over `supersteps` supersteps. Each superstep runs
/// on a [`SuperstepNet`]: the band exchange, then the dissemination sync.
///
/// # Panics
/// If `w` or `supersteps` is 0.
#[allow(clippy::too_many_arguments)]
pub fn measure_ghost_width(
    params: &PlatformParams,
    profile_placement: &Placement,
    proc_model: &ProcessorModel,
    n: usize,
    w: usize,
    supersteps: usize,
    seed: u64,
) -> f64 {
    assert!(w >= 1, "ghost width w must be at least 1");
    assert!(supersteps >= 1, "supersteps must be at least 1");
    let placement = profile_placement;
    let p = placement.nprocs();
    let decomp = Decomposition::new(n, p);
    // Fixed pattern for the whole sweep point: compile once, reuse the
    // network and its scratch across supersteps.
    let mut snet = SuperstepNet::new(params, placement, SyncPattern::Dissemination);
    let exchange_label = GHOST_EXCHANGE_JITTER_LABEL.wrapping_add(w as u64);
    let sync_label = GHOST_SYNC_JITTER_LABEL.wrapping_add(w as u64);
    let mut rng = derive_rng(seed, w as u64);
    let mut jitter = params.jitter;
    let mut res = ExchangeResult::default();
    let mut msgs: Vec<ExchangeMsg> = Vec::new();
    let mut compute_done = vec![0.0f64; p];
    let mut t = vec![0.0f64; p];
    for ss in 0..supersteps {
        msgs.clear();
        for r in 0..p {
            let cells = superstep_cells(&decomp, r, w);
            let per_cell = proc_model.secs_per_element(&Stencil5, decomp.block(r).cells());
            let pre = decomp.regions(r).pre_comm() as f64 * per_cell;
            let t_commit = t[r] + pre * jitter.draw(&mut rng);
            for (_, peer, len) in decomp.faces(r) {
                for bytes in [HEADER_BYTES, band_bytes(len, w)] {
                    msgs.push(ExchangeMsg {
                        src: r,
                        dst: peer,
                        bytes,
                        issue: t_commit,
                    });
                }
            }
            let rest = (cells as f64 * per_cell - pre).max(0.0);
            compute_done[r] = t_commit + rest * jitter.draw(&mut rng);
        }
        snet.exchange(&msgs, (seed, exchange_label, ss as u64), &mut res);
        let exits = snet.sync(&compute_done, (seed, sync_label, ss as u64));
        for (r, tr) in t.iter_mut().enumerate() {
            *tr = res.done(r, exits[r]);
        }
    }
    let total = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    total / (supersteps * w) as f64
}

/// Runs the full C1 experiment: predict and measure per-iteration cost for
/// each candidate width, each measured over [`GHOST_SUPERSTEPS`].
pub fn optimize_ghost_width<C: CostModel + ?Sized>(
    params: &PlatformParams,
    costs: &C,
    proc_model: &ProcessorModel,
    placement: &Placement,
    n: usize,
    widths: &[usize],
    seed: u64,
) -> GhostSweep {
    let predicted = widths
        .iter()
        .map(|&w| predict_ghost_width(costs, proc_model, placement, n, w))
        .collect();
    let measured = widths
        .iter()
        .map(|&w| measure_ghost_width(params, placement, proc_model, n, w, GHOST_SUPERSTEPS, seed))
        .collect();
    GhostSweep {
        widths: widths.to_vec(),
        predicted,
        measured,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_kernels::rate::xeon_core;
    use hpm_simnet::microbench::{bench_platform, MicrobenchConfig};
    use hpm_simnet::params::xeon_cluster_params;
    use hpm_topology::{cluster_8x2x4, PlacementPolicy};

    fn sweep(p: usize, n: usize) -> GhostSweep {
        let params = xeon_cluster_params();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        let profile = bench_platform(&params, &placement, &MicrobenchConfig::quick(), 33);
        optimize_ghost_width(
            &params,
            &profile.costs,
            &xeon_core(),
            &placement,
            n,
            &[1, 2, 3, 4, 6, 8],
            33,
        )
    }

    /// One noiseless measurement on the 8x2x4 cluster.
    fn measure(p: usize, n: usize, w: usize, supersteps: usize) -> f64 {
        let params = xeon_cluster_params().noiseless();
        let placement = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p);
        measure_ghost_width(&params, &placement, &xeon_core(), n, w, supersteps, 7)
    }

    /// At p = 1 no band is exchanged and no barrier runs, so a superstep
    /// costs its compute alone: one whole-block sweep per iteration.
    #[test]
    fn single_process_costs_its_compute_alone() {
        let n = 256;
        let want = (n * n) as f64 * xeon_core().secs_per_element(&Stencil5, n * n);
        for w in [1, 2, 3, 4, 6, 8] {
            let got = measure(1, n, w, 3);
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "w = {w}: {got} vs {want}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "ghost width w must be at least 1")]
    fn zero_width_is_rejected() {
        measure(4, 64, 0, 3);
    }

    #[test]
    #[should_panic(expected = "supersteps must be at least 1")]
    fn zero_supersteps_is_rejected() {
        measure(4, 64, 2, 0);
    }

    #[test]
    fn superstep_cells_grow_with_width() {
        let d = Decomposition::new(1024, 16);
        let base = superstep_cells(&d, 5, 1);
        assert_eq!(base, d.block(5).cells());
        assert!(superstep_cells(&d, 5, 2) > 2 * base - 1);
        assert!(superstep_cells(&d, 5, 4) > 4 * base);
    }

    #[test]
    fn boundary_blocks_expand_less() {
        let d = Decomposition::new(1024, 16);
        // Rank 0 is a corner (2 faces), rank 5 is interior (4 faces).
        assert!(superstep_cells(&d, 0, 4) < superstep_cells(&d, 5, 4));
    }

    #[test]
    fn deep_ghosts_amortize_sync_for_small_problems() {
        // Sync-dominated regime: widening the ghost zone must help at
        // first (w=2 beats w=1).
        let s = sweep(64, 1024);
        let at = |w: usize| s.predicted[s.widths.iter().position(|&x| x == w).expect("width")];
        assert!(
            at(2) < at(1),
            "w=2 ({}) should beat w=1 ({}) when sync dominates",
            at(2),
            at(1)
        );
    }

    #[test]
    fn redundant_compute_eventually_wins() {
        // The curve must turn back up: the widest setting should lose to
        // the predicted optimum.
        let s = sweep(64, 1024);
        let best = s.best_predicted();
        let widest = *s.widths.last().expect("non-empty");
        if best != widest {
            let t_best = s.predicted[s.widths.iter().position(|&x| x == best).expect("w")];
            let t_widest = s.predicted[s.widths.len() - 1];
            assert!(t_widest > t_best, "U-shape expected: {:?}", s.predicted);
        }
    }

    #[test]
    fn model_identifies_the_measured_optimum_region() {
        // The C1 claim: the predicted optimum is the measured optimum or
        // an adjacent candidate.
        let s = sweep(64, 1024);
        let bp = s.best_predicted();
        let bm = s.best_measured();
        let pos = |w: usize| s.widths.iter().position(|&x| x == w).expect("width");
        assert!(
            pos(bp).abs_diff(pos(bm)) <= 1,
            "predicted w={bp}, measured w={bm}, sweep {:?} vs {:?}",
            s.predicted,
            s.measured
        );
    }

    #[test]
    fn compute_bound_problems_prefer_shallow_ghosts() {
        // Large local blocks: redundant compute is expensive relative to
        // sync; the optimum stays at small w.
        let s = sweep(16, 8192);
        assert!(
            s.best_predicted() <= 2,
            "compute-bound problems should not deepen ghosts: {:?}",
            s.predicted
        );
    }
}
