//! The kernel-isolation benchmark of §4.1.
//!
//! The thesis' procedure: for growing iteration counts (powers of two), time
//! batches of kernel applications, collect 30 samples per count, re-sample
//! outliers until every batch mean sits inside a 95 % Student-t interval,
//! then fit a least-squares line through the per-count means. The gradient
//! of that line is the steady-state cost of one kernel application; its
//! quality is assessed by the relative error of extrapolated predictions
//! (Figs. 4.3–4.4).
//!
//! Timing is pluggable: real experiments use the wall clock, while tests
//! and the simulator substitute deterministic timers — the extraction
//! logic is identical either way.

use crate::kernel::{Kernel, KernelState};
use hpm_stats::outlier::filter_outlier_means;
use hpm_stats::regression::LinearFit;

/// Confidence level of the outlier interval (§4.1).
pub const CONFIDENCE: f64 = 0.95;

/// Configuration of one benchmark run.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Problem size in elements.
    pub n: usize,
    /// Samples per iteration count (thesis: 30).
    pub samples: usize,
    /// Re-sampling pass budget before giving up (§4.1 discusses why runs
    /// needing ≥2 passes signal calibration problems).
    pub max_passes: usize,
    /// Iteration counts to measure: `2^lo ..= 2^hi`.
    pub iter_exponents: (u32, u32),
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            n: 1024,
            samples: 30,
            max_passes: 8,
            iter_exponents: (1, 12),
        }
    }
}

impl BenchConfig {
    /// A reduced configuration for fast tests and smoke runs.
    pub fn quick(n: usize) -> BenchConfig {
        BenchConfig {
            n,
            samples: 8,
            max_passes: 4,
            iter_exponents: (1, 6),
        }
    }
}

/// One measured point: iteration count and accepted mean batch time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchPoint {
    pub iterations: u64,
    /// Mean wall time of the whole batch (seconds).
    pub batch_seconds: f64,
    /// Batches that had to be re-collected for this point.
    pub resampled: usize,
}

/// The extracted steady-state profile of a kernel on this host.
#[derive(Debug, Clone)]
pub struct KernelProfile {
    /// Kernel name.
    pub kernel: String,
    /// Problem size in elements.
    pub n: usize,
    /// Memory footprint in bytes at `n`.
    pub footprint_bytes: usize,
    /// Regression of batch time on iteration count.
    pub fit: LinearFit,
    /// Measured points the fit ran through.
    pub points: Vec<BenchPoint>,
}

impl KernelProfile {
    /// Seconds per kernel application (the regression gradient, clamped
    /// non-negative).
    pub fn secs_per_apply(&self) -> f64 {
        self.fit.nonneg_slope()
    }

    /// Seconds per element at this problem size.
    pub fn secs_per_element(&self) -> f64 {
        self.secs_per_apply() / self.n as f64
    }

    /// Sustained Mflop/s given the kernel's flop count per application.
    pub fn mflops(&self, flops_per_apply: f64) -> f64 {
        let spa = self.secs_per_apply();
        if spa == 0.0 {
            f64::INFINITY
        } else {
            flops_per_apply / spa / 1e6
        }
    }

    /// Extrapolated total time for `iterations` applications.
    pub fn predict(&self, iterations: u64) -> f64 {
        self.fit.predict(iterations as f64)
    }
}

/// A pluggable batch timer: given a kernel, its state and an iteration
/// count, returns the batch duration in seconds.
pub trait BatchTimer {
    fn time_batch(&mut self, kernel: &dyn Kernel, state: &mut KernelState, iters: u64) -> f64;
}

/// Wall-clock timer: actually runs the kernel `iters` times.
#[derive(Debug, Default)]
pub struct WallClock {
    sink: f64,
}

impl WallClock {
    /// Consumes accumulated checksums so the optimizer cannot remove work.
    pub fn checksum(&self) -> f64 {
        self.sink
    }
}

impl BatchTimer for WallClock {
    fn time_batch(&mut self, kernel: &dyn Kernel, state: &mut KernelState, iters: u64) -> f64 {
        let start = std::time::Instant::now();
        let mut acc = 0.0;
        for _ in 0..iters {
            acc += kernel.apply(state);
        }
        let dt = start.elapsed().as_secs_f64();
        self.sink += acc;
        dt
    }
}

/// Runs the §4.1 benchmark with an arbitrary timer.
pub fn profile_kernel_with<T: BatchTimer>(
    kernel: &dyn Kernel,
    config: &BenchConfig,
    timer: &mut T,
) -> KernelProfile {
    let mut state = kernel.alloc(config.n);
    // Warm-up pass: touches every page, loads caches (the thesis pre-faults
    // and mlockall()s; in user space we approximate by a full application).
    timer.time_batch(kernel, &mut state, 2);

    let (lo, hi) = config.iter_exponents;
    assert!(lo <= hi, "iteration exponent range is empty");
    let mut points = Vec::new();
    for e in lo..=hi {
        let iters = 1u64 << e;
        let report = filter_outlier_means(config.samples, CONFIDENCE, config.max_passes, || {
            timer.time_batch(kernel, &mut state, iters)
        });
        points.push(BenchPoint {
            iterations: iters,
            batch_seconds: report.mean(),
            resampled: report.resampled,
        });
    }
    let fit = LinearFit::fit(
        &points
            .iter()
            .map(|p| (p.iterations as f64, p.batch_seconds))
            .collect::<Vec<_>>(),
    );
    KernelProfile {
        kernel: kernel.name().to_string(),
        n: config.n,
        footprint_bytes: kernel.footprint_bytes(config.n),
        fit,
        points,
    }
}

/// Runs the benchmark against the wall clock (a real measurement).
pub fn profile_kernel(kernel: &dyn Kernel, config: &BenchConfig) -> KernelProfile {
    let mut timer = WallClock::default();
    profile_kernel_with(kernel, config, &mut timer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas1::AXPY;
    use crate::stencil::Stencil5;

    /// Deterministic timer: linear in iterations with a fixed overhead and
    /// a small repeating perturbation.
    struct FakeTimer {
        per_iter: f64,
        overhead: f64,
        tick: usize,
    }

    impl BatchTimer for FakeTimer {
        fn time_batch(&mut self, _k: &dyn Kernel, _s: &mut KernelState, iters: u64) -> f64 {
            self.tick += 1;
            let noise = 1.0 + 0.001 * ((self.tick % 7) as f64 - 3.0);
            self.overhead + self.per_iter * iters as f64 * noise
        }
    }

    #[test]
    fn fake_timer_rate_recovered() {
        let mut t = FakeTimer {
            per_iter: 2e-6,
            overhead: 5e-7,
            tick: 0,
        };
        let cfg = BenchConfig {
            n: 1024,
            samples: 10,
            max_passes: 4,
            iter_exponents: (1, 10),
        };
        let p = profile_kernel_with(&AXPY, &cfg, &mut t);
        assert!(
            (p.secs_per_apply() - 2e-6).abs() / 2e-6 < 0.01,
            "slope {} should be ~2e-6",
            p.secs_per_apply()
        );
        assert!(p.fit.r_squared > 0.999);
        assert_eq!(p.points.len(), 10);
    }

    #[test]
    fn prediction_tracks_the_timer() {
        let mut t = FakeTimer {
            per_iter: 1e-6,
            overhead: 0.0,
            tick: 0,
        };
        let cfg = BenchConfig::quick(256);
        let p = profile_kernel_with(&AXPY, &cfg, &mut t);
        let pred = p.predict(1 << 16);
        let truth = 1e-6 * (1 << 16) as f64;
        assert!((pred - truth).abs() / truth < 0.05);
    }

    #[test]
    fn wall_clock_profile_is_positive_and_linear() {
        // A real measurement; assertions are deliberately loose.
        let cfg = BenchConfig {
            n: 1024,
            samples: 5,
            max_passes: 3,
            iter_exponents: (4, 9),
        };
        let p = profile_kernel(&AXPY, &cfg);
        assert!(p.secs_per_apply() > 0.0, "rate must be positive");
        assert!(
            p.fit.r_squared > 0.5,
            "time should grow roughly linearly with iterations (r2 = {})",
            p.fit.r_squared
        );
    }

    #[test]
    fn different_kernels_have_different_real_rates() {
        // The core claim of Ch. 4: per-kernel rates differ. DAXPY (2 vectors,
        // 2 flops/elem) and the 5-point stencil behave differently per
        // "application" because an application covers n elements vs a grid.
        let cfg = BenchConfig {
            n: 1024,
            samples: 5,
            max_passes: 3,
            iter_exponents: (4, 8),
        };
        let pa = profile_kernel(&AXPY, &cfg);
        let ps = profile_kernel(&Stencil5, &cfg);
        assert!(pa.secs_per_apply() > 0.0 && ps.secs_per_apply() > 0.0);
        // They must not be identical to within a percent — if they were,
        // the single-rate model the thesis rejects would be adequate.
        let ratio = pa.secs_per_apply() / ps.secs_per_apply();
        assert!(
            (ratio - 1.0).abs() > 0.01,
            "kernels implausibly identical: ratio {ratio}"
        );
    }

    #[test]
    fn mflops_inverts_rate() {
        let p = KernelProfile {
            kernel: "axpy".into(),
            n: 1000,
            footprint_bytes: 16000,
            fit: LinearFit {
                slope: 2e-6,
                intercept: 0.0,
                r_squared: 1.0,
                n: 5,
            },
            points: vec![],
        };
        // 2000 flops per apply at 2 µs → 1000 Mflop/s.
        assert!((p.mflops(2000.0) - 1000.0).abs() < 1e-9);
        assert!((p.secs_per_element() - 2e-9).abs() < 1e-18);
    }
}
