//! The BSP implementation of the stencil (§8.3.1).
//!
//! One superstep per Jacobi iteration. The local block is treated as the
//! 17 regions of Fig. 8.2 and computed outside-in: outer ring (corners +
//! edges) first, so the four border `put`s commit as early as the data
//! exists; the inner ring and interior are computed while the transfers
//! fly. Ghost values land in registered buffers during the sync and are
//! installed at the top of the next superstep.
//!
//! Three commit disciplines exist for the A2 comparison of BSP variants:
//! unbuffered early commit (`hpput` right after the outer ring — the
//! thesis' preferred discipline), buffered early commit (`bsp_put`'s extra
//! copy), and late commit (everything computed before any communication —
//! the discipline the classic BSP processing model would use).

use crate::decomp::{Decomposition, Side};
use crate::field::LocalField;
use crate::StencilReport;
use hpm_bsplib::ctx::BspCtx;
use hpm_bsplib::mem::RegHandle;
use hpm_bsplib::ops::StepOutcome;
use hpm_bsplib::runtime::{run_spmd, BspConfig, BspProgram};
use hpm_kernels::stencil::Stencil5;

/// When and how border data is committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitDiscipline {
    /// `hpput` immediately after the outer ring is computed.
    EarlyUnbuffered,
    /// `bsp_put` immediately after the outer ring (extra sender copy).
    EarlyBuffered,
    /// All computation first, then `bsp_put` — no overlap exposed.
    Late,
}

impl CommitDiscipline {
    /// Label used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            CommitDiscipline::EarlyUnbuffered => "BSP-hp",
            CommitDiscipline::EarlyBuffered => "BSP-buf",
            CommitDiscipline::Late => "BSP-late",
        }
    }
}

/// The SPMD stencil program.
struct StencilProgram {
    decomp: Decomposition,
    iters: usize,
    discipline: CommitDiscipline,
    /// Real field data (None = timing-only run with dummy payloads).
    field: Option<LocalField>,
    step: usize,
    /// Receive buffers, indexed by `Side as usize`.
    ghosts: [Option<RegHandle>; 4],
    checksum: f64,
}

impl StencilProgram {
    fn commit_borders(&self, ctx: &mut BspCtx, buffered: bool) {
        for (side, peer, cells) in self.decomp.faces(ctx.pid()) {
            // My border for `side` lands in the peer's opposite ghost
            // buffer. Registration handles agree across processes because
            // allocation order is identical (SPMD).
            let peer_buf = self.ghosts[side.opposite() as usize].expect("registered");
            // The border is gathered straight into the put's slot; a
            // timing-only run leaves the slot's zeros as its dummy payload.
            let fill = |slot: &mut [u8]| {
                if let Some(f) = &self.field {
                    f.extract_border(side, slot);
                }
            };
            if buffered {
                ctx.put_with(peer, peer_buf, 0, cells * 8, fill);
            } else {
                ctx.hpput_with(peer, peer_buf, 0, cells * 8, fill);
            }
        }
    }

    fn install_ghosts(&mut self, ctx: &mut BspCtx) {
        let Some(field) = &mut self.field else {
            return;
        };
        for (side, _, _) in self.decomp.faces(ctx.pid()) {
            let buf = self.ghosts[side as usize].expect("registered");
            field.install_ghost(side, ctx.read_buf(buf));
        }
    }
}

impl BspProgram for StencilProgram {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let rank = ctx.pid();
        if self.step == 0 {
            // Registration superstep: one ghost buffer per side.
            for side in Side::ALL {
                let len = side.cells(&self.decomp.block(rank)) * 8;
                let h = ctx.alloc(len.max(8));
                ctx.push_reg(h);
                self.ghosts[side as usize] = Some(h);
            }
            self.step = 1;
            return StepOutcome::Continue;
        }
        if self.step == 1 {
            // Priming superstep: exchange generation-0 borders so the
            // first sweep sees its neighbours' initial values.
            self.commit_borders(ctx, false);
            self.step = 2;
            return StepOutcome::Continue;
        }
        let iter = self.step - 2;
        if iter >= self.iters {
            if let Some(f) = &self.field {
                self.checksum = f.owned_sum();
            }
            return StepOutcome::Halt;
        }
        // Top of the iteration: install ghosts delivered by last sync.
        self.install_ghosts(ctx);
        // Numerical sweep (data side, instantaneous; time is charged
        // through the region schedule below).
        if let Some(f) = &mut self.field {
            f.sweep();
        }
        // Region schedule: charge outer ring, commit, charge the rest.
        let regions = self.decomp.regions(rank);
        let cells = self.decomp.block(rank).cells();
        match self.discipline {
            CommitDiscipline::Late => {
                ctx.compute_elements(&Stencil5, cells, regions.total());
                self.commit_borders(ctx, true);
            }
            early => {
                ctx.compute_elements(&Stencil5, cells, regions.pre_comm());
                self.commit_borders(ctx, early == CommitDiscipline::EarlyBuffered);
                ctx.compute_elements(&Stencil5, cells, regions.inner_ring + regions.interior);
            }
        }
        self.step += 1;
        StepOutcome::Continue
    }
}

/// Runs the BSP stencil.
///
/// `carry_data`: move real field values through the runtime (small grids;
/// enables the checksum) or dummy payloads of identical size (large
/// timing-only runs).
pub fn run_bsp_stencil(
    cfg: &BspConfig,
    n: usize,
    iters: usize,
    discipline: CommitDiscipline,
    carry_data: bool,
) -> StencilReport {
    let p = cfg.placement.nprocs();
    let decomp = Decomposition::new(n, p);
    let init = |x: usize, y: usize| ((x * 31 + y * 17) % 101) as f64 / 101.0;
    let res = run_spmd(cfg, |rank| StencilProgram {
        decomp,
        iters,
        discipline,
        field: carry_data.then(|| LocalField::init(&decomp, rank, init)),
        step: 0,
        ghosts: [None; 4],
        checksum: 0.0,
    })
    .expect("stencil runs");
    // Supersteps 0 (registration) and 1 (priming exchange) are setup; the
    // timed iterations are supersteps 2..=iters+1.
    let iter_times: Vec<f64> = (2..=iters + 1).map(|k| res.superstep_time(k)).collect();
    let checksum = carry_data.then(|| res.programs.iter().map(|p| p.checksum).sum());
    StencilReport {
        iter_times,
        total: res.total_time,
        checksum,
        decomp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::sequential_reference;
    use hpm_kernels::rate::xeon_core;
    use hpm_simnet::params::xeon_cluster_params;
    use hpm_topology::{cluster_8x2x4, Placement, PlacementPolicy};

    fn cfg(p: usize) -> BspConfig {
        BspConfig::new(
            xeon_cluster_params(),
            Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, p),
            xeon_core(),
            31,
        )
    }

    #[test]
    fn bsp_stencil_matches_sequential_reference() {
        // Full end-to-end correctness: ghost data moved by bsp puts.
        let n = 20;
        let iters = 6;
        let init = |x: usize, y: usize| ((x * 31 + y * 17) % 101) as f64 / 101.0;
        let reference = sequential_reference(n, iters, init);
        let want: f64 = reference.iter().sum();
        let rep = run_bsp_stencil(&cfg(4), n, iters, CommitDiscipline::EarlyUnbuffered, true);
        let got = rep.checksum.expect("data mode");
        assert!(
            (got - want).abs() < 1e-9,
            "distributed {got} vs sequential {want}"
        );
    }

    #[test]
    fn all_disciplines_produce_identical_numerics() {
        let n = 16;
        let iters = 4;
        let a = run_bsp_stencil(&cfg(4), n, iters, CommitDiscipline::EarlyUnbuffered, true);
        let b = run_bsp_stencil(&cfg(4), n, iters, CommitDiscipline::EarlyBuffered, true);
        let c = run_bsp_stencil(&cfg(4), n, iters, CommitDiscipline::Late, true);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.checksum, c.checksum);
    }

    #[test]
    fn early_commit_is_not_slower_than_late() {
        // The A2 comparison at a size where transfers matter: early
        // disciplines overlap the border exchange with interior compute.
        let rep_early =
            run_bsp_stencil(&cfg(16), 2048, 4, CommitDiscipline::EarlyUnbuffered, false);
        let rep_late = run_bsp_stencil(&cfg(16), 2048, 4, CommitDiscipline::Late, false);
        assert!(
            rep_early.mean_iter() <= rep_late.mean_iter() * 1.05,
            "early {} vs late {}",
            rep_early.mean_iter(),
            rep_late.mean_iter()
        );
    }

    #[test]
    fn iteration_times_are_positive_and_plausible() {
        let rep = run_bsp_stencil(&cfg(8), 1024, 5, CommitDiscipline::EarlyUnbuffered, false);
        assert_eq!(rep.iter_times.len(), 5);
        for &t in &rep.iter_times {
            assert!(t > 0.0 && t < 1.0, "iteration time {t}");
        }
    }

    #[test]
    fn strong_scaling_reduces_iteration_time() {
        let t4 =
            run_bsp_stencil(&cfg(4), 2048, 3, CommitDiscipline::EarlyUnbuffered, false).mean_iter();
        let t32 = run_bsp_stencil(&cfg(32), 2048, 3, CommitDiscipline::EarlyUnbuffered, false)
            .mean_iter();
        assert!(t32 < t4, "32 procs {t32} should beat 4 procs {t4}");
    }
}
