//! The `bspinprod` example computation (§3.1).
//!
//! A distributed inner product in two computation supersteps and one
//! communication step: local partial sums, a scatter of the scalar
//! partials to every process (a 1-relation), and a local accumulation.
//! The thesis uses it in strong-scaling mode (N = 10⁸, growing p) to show
//! the classic BSP model mispredicting by five orders of magnitude while
//! the measured curve follows Amdahl behaviour (Fig. 3.2).
//!
//! Vectors are modeled as all-ones (the numeric result is then `N`, which
//! the run verifies); the computation cost is charged through the `dot`
//! kernel at the local problem size, so cache effects at large `N/p` are
//! reflected.

use crate::ctx::BspCtx;
use crate::mem::{f64s, RegHandle};
use crate::ops::StepOutcome;
use crate::runtime::{run_spmd, BspConfig, BspProgram};
use hpm_kernels::blas1::DOT;
use hpm_stats::quantile::median;

/// The SPMD inner-product program.
pub struct InProd {
    n_total: u64,
    step: usize,
    partials: Option<RegHandle>,
    /// Final result (valid after the run).
    pub result: f64,
}

impl InProd {
    /// Local slice length for this process (block distribution).
    fn local_n(&self, pid: usize, p: usize) -> u64 {
        let base = self.n_total / p as u64;
        let extra = self.n_total % p as u64;
        base + if (pid as u64) < extra { 1 } else { 0 }
    }
}

impl BspProgram for InProd {
    fn superstep(&mut self, ctx: &mut BspCtx) -> StepOutcome {
        let p = ctx.nprocs();
        match self.step {
            0 => {
                // Registration superstep: a p-slot array of partial sums.
                let h = ctx.alloc(8 * p);
                ctx.push_reg(h);
                self.partials = Some(h);
                self.step = 1;
                StepOutcome::Continue
            }
            1 => {
                // Local dot product, then scatter the scalar partial to
                // everyone (committed immediately after computing — the
                // early-communication discipline).
                let n = self.local_n(ctx.pid(), p) as usize;
                ctx.compute_kernel(&DOT, n.max(1), 1);
                let partial = n as f64; // all-ones vectors
                let reg = self.partials.expect("registered");
                let bytes = partial.to_le_bytes();
                let me = ctx.pid();
                for dst in 0..p {
                    ctx.put(dst, reg, 8 * me, &bytes);
                }
                self.step = 2;
                StepOutcome::Continue
            }
            _ => {
                // Accumulate the p partials locally.
                let reg = self.partials.expect("registered");
                let mut acc = 0.0;
                for partial in f64s(ctx.read_buf(reg)) {
                    acc += partial;
                }
                ctx.elapse(p as f64 * 1e-9); // p additions
                self.result = acc;
                StepOutcome::Halt
            }
        }
    }
}

/// Outcome of a timed inner-product experiment.
#[derive(Debug, Clone)]
pub struct InProdMeasurement {
    /// Median wall time of the computation (supersteps 1–2, excluding the
    /// registration step), over the repetitions.
    pub seconds: f64,
    /// The computed inner product (must equal `n_total`).
    pub result: f64,
}

/// Runs the inner product `reps` times and reports the median time of the
/// computational part, mirroring §3.1's "median value of 100 repetitions".
pub fn bspinprod(cfg: &BspConfig, n_total: u64, reps: usize) -> InProdMeasurement {
    assert!(reps >= 1);
    let mut times = Vec::with_capacity(reps);
    let mut result = 0.0;
    for rep in 0..reps {
        let mut c = cfg.clone();
        c.seed = cfg.seed.wrapping_add(rep as u64);
        let run = run_spmd(&c, |_| InProd {
            n_total,
            step: 0,
            partials: None,
            result: 0.0,
        })
        .expect("inner product runs");
        times.push(run.superstep_time(1) + run.superstep_time(2));
        result = run.programs[0].result;
    }
    InProdMeasurement {
        seconds: median(&times),
        result,
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
            5,
        )
    }

    #[test]
    fn result_is_exact_for_all_process_counts() {
        for p in [1usize, 3, 8, 16] {
            let m = bspinprod(&cfg(p), 1_000_000, 1);
            assert_eq!(m.result, 1_000_000.0, "p={p}");
        }
    }

    #[test]
    fn uneven_division_still_exact() {
        let m = bspinprod(&cfg(7), 1_000_003, 1);
        assert_eq!(m.result, 1_000_003.0);
    }

    #[test]
    fn strong_scaling_compute_shrinks_but_asymptotes() {
        // Fig. 3.2's measured curve: time falls with p but flattens as
        // communication/sync dominate (no spurious minimum rebound of the
        // magnitude the classic model predicts).
        let n = 100_000_000u64;
        let t8 = bspinprod(&cfg(8), n, 3).seconds;
        let t32 = bspinprod(&cfg(32), n, 3).seconds;
        let t64 = bspinprod(&cfg(64), n, 3).seconds;
        assert!(t32 < t8, "more processes must help at this size");
        // Diminishing returns: the 32→64 gain is smaller than 8→32.
        let gain_a = t8 - t32;
        let gain_b = t32 - t64;
        assert!(
            gain_b < gain_a,
            "Amdahl flattening expected: {t8} {t32} {t64}"
        );
    }

    #[test]
    fn measured_time_is_far_from_classic_prediction() {
        // The headline of §3.1: the classic model misses by orders of
        // magnitude. With Table-3.1-like parameters the classic estimate
        // is ~milliseconds-scale flop counts; our measured time at p=8 and
        // N=1e8 is dominated by the ~0.05 s local dot.
        use hpm_core::classic::ClassicBsp;
        let n = 100_000_000u64;
        let measured = bspinprod(&cfg(8), n, 1).seconds;
        let classic = ClassicBsp::new(8, 991.695e6, 105.4, 30575.7).inner_product_seconds(n);
        // The classic estimate counts only flop equivalents; the measured
        // time includes realistic memory-bound rates and sync. They must
        // disagree visibly (the thesis reports 5 orders of magnitude on
        // log scale across the sweep; at p=8 the gap is smallest).
        assert!(
            measured / classic > 1.5 || classic / measured > 1.5,
            "classic {classic} vs measured {measured} suspiciously close"
        );
    }
}
