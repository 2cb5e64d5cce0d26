//! The `bspbench` port (§3.1): extracting the classic `(p, r, g, l)`
//! parameters through the BSP library itself.
//!
//! `bspbench` measures the computation rate `r` by timing growing DAXPY
//! problems and taking a regression gradient, then measures `g` (flops per
//! communicated word) and `l` (synchronization cost in flops) as gradient
//! and intercept of a regression over growing h-relations (h = 0…255
//! words). The resulting Table 3.1 row feeds the classic model whose
//! misprediction motivates the heterogeneous framework.

use crate::ctx::BspCtx;
use crate::ops::StepOutcome;
use crate::runtime::{run_spmd, BspConfig, BspProgram};
use hpm_kernels::blas1::AXPY;
use hpm_kernels::kernel::Kernel;
use hpm_stats::regression::LinearFit;

/// One row of Table 3.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BspBenchResult {
    /// Level of parallelism.
    pub p: usize,
    /// Computation rate in flop/s.
    pub r: f64,
    /// Communication throughput in flop-equivalents per 8-byte word.
    pub g: f64,
    /// Synchronization cost in flop-equivalents.
    pub l: f64,
}

/// Rate phase: time DAXPY at growing vector sizes, all inside superstep 0.
struct RateProgram {
    /// `(flops, seconds)` samples collected on pid 0.
    samples: Vec<(f64, f64)>,
}

impl BspProgram for RateProgram {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        // bspbench grows vector sizes 1..=1024; we sample powers of two
        // with enough repetitions to integrate over jitter.
        for e in 0..=10u32 {
            let n = 1usize << e;
            let reps = 4096 / n.max(1) as u64 + 4;
            let t0 = ctx.time();
            ctx.compute_kernel(&AXPY, n, reps);
            let t1 = ctx.time();
            self.samples.push((AXPY.flops(n) * reps as f64, t1 - t0));
        }
        StepOutcome::Halt
    }
}

/// h-relation phase: every process puts `h` words cyclically over the
/// others, one superstep per measurement.
struct HRelProgram {
    h_values: Vec<usize>,
    step: usize,
    reg: Option<crate::mem::RegHandle>,
}

impl BspProgram for HRelProgram {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let p = ctx.nprocs();
        if self.step == 0 {
            // Registration superstep: a buffer big enough for any h.
            let max_h = *self.h_values.iter().max().expect("non-empty");
            let h = ctx.alloc(8 * max_h.max(1) * 2);
            ctx.push_reg(h);
            self.reg = Some(h);
            self.step = 1;
            return StepOutcome::Continue;
        }
        let idx = self.step - 1;
        if idx >= self.h_values.len() {
            return StepOutcome::Halt;
        }
        let h = self.h_values[idx];
        let reg = self.reg.expect("registered");
        let word = [0u8; 8];
        if p > 1 {
            for k in 0..h {
                let dst = (ctx.pid() + 1 + (k % (p - 1))) % p;
                let offset = 8 * (k / (p - 1).max(1));
                ctx.put(dst, reg, offset, &word);
            }
        }
        self.step += 1;
        StepOutcome::Continue
    }
}

/// Runs the full bspbench procedure on a configured platform.
pub fn bspbench(cfg: &BspConfig) -> BspBenchResult {
    let p = cfg.placement.nprocs();

    // Phase 1: computation rate r (flop/s) from the regression of time on
    // flops (bspbench takes the gradient of a least-squares line).
    let rate_run = run_spmd(cfg, |_| RateProgram {
        samples: Vec::new(),
    })
    .expect("rate phase runs");
    let pts: Vec<(f64, f64)> = rate_run.programs[0].samples.clone();
    let fit = LinearFit::fit(&pts);
    let r = if fit.slope > 0.0 {
        1.0 / fit.slope
    } else {
        0.0
    };

    // Phase 2: h-relations 0..=255 (sampled), regression in flop units.
    let h_values: Vec<usize> = (0..=255usize).step_by(17).collect();
    let hrel_run = run_spmd(cfg, |_| HRelProgram {
        h_values: h_values.clone(),
        step: 0,
        reg: None,
    })
    .expect("h-relation phase runs");
    // Superstep 0 is registration; measurements start at superstep 1.
    let mut comm_pts = Vec::new();
    for (k, &h) in h_values.iter().enumerate() {
        let t = hrel_run.superstep_time(k + 1);
        comm_pts.push((h as f64, t * r)); // seconds → flop equivalents
    }
    let cfit = LinearFit::fit(&comm_pts);
    BspBenchResult {
        p,
        r,
        g: cfit.nonneg_slope(),
        l: cfit.nonneg_intercept(),
    }
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
            77,
        )
    }

    #[test]
    fn rate_is_about_a_gigaflop() {
        let res = bspbench(&cfg(8));
        assert!(
            res.r > 0.5e9 && res.r < 3.0e9,
            "DAXPY rate {:.3e} out of calibrated band",
            res.r
        );
    }

    #[test]
    fn sync_cost_l_grows_with_scale() {
        // Table 3.1: l grows by orders of magnitude from 1 node to 8.
        let l8 = bspbench(&cfg(8)).l;
        let l64 = bspbench(&cfg(64)).l;
        assert!(
            l64 > 5.0 * l8,
            "l must grow strongly with scale: l(8)={l8:.1} l(64)={l64:.1}"
        );
    }

    #[test]
    fn multi_node_l_is_tens_of_thousands_of_flops() {
        // Table 3.1's magnitudes: l ranges from ~3e4 (1 node) into the
        // millions (8 nodes) at r ≈ 1 Gflop/s.
        let res = bspbench(&cfg(16));
        assert!(
            res.l > 1e4 && res.l < 1e7,
            "l = {:.3e} out of plausible band",
            res.l
        );
    }

    #[test]
    fn g_is_positive_on_multinode_runs() {
        let res = bspbench(&cfg(16));
        assert!(res.g > 0.0, "g = {}", res.g);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = bspbench(&cfg(8));
        let b = bspbench(&cfg(8));
        assert_eq!(a, b);
    }
}
