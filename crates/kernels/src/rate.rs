//! Synthetic cache-aware processor rate models.
//!
//! §4.3 concludes that computational rate must be modeled per kernel and
//! piecewise-linearly in the memory footprint: performance breaks away when
//! the working set leaves a cache level (Fig. 4.6). This module provides a
//! deterministic processor model with exactly that structure — a peak flop
//! rate plus a ladder of bandwidth levels — used by the cluster simulator
//! wherever a modeled (rather than measured) compute time is needed.
//!
//! The model is intentionally simple: the cost of one kernel application is
//! the larger of its flop time and its memory time, with the bandwidth
//! chosen by the smallest level that holds the footprint. That reproduces
//! the two observations the thesis builds on: (1) different kernels run at
//! different sustained rates even in cache (compute- vs movement-bound),
//! and (2) every kernel shows a knee when the footprint crosses a level
//! boundary.

use crate::kernel::{Kernel, KernelTraits};

/// One level of the memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevel {
    /// Capacity in bytes.
    pub capacity_bytes: usize,
    /// Sustained bandwidth in bytes per second for working sets that fit.
    pub bytes_per_sec: f64,
}

/// A processor with a peak flop rate and a memory-bandwidth ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorModel {
    /// Descriptive name.
    pub name: String,
    /// Peak floating-point rate (flops/second).
    pub flops_per_sec: f64,
    /// Cache levels, smallest first. Must be non-empty with strictly
    /// increasing capacities and non-increasing bandwidths.
    pub levels: Vec<CacheLevel>,
    /// Main-memory bandwidth for working sets that fit no cache level.
    pub dram_bytes_per_sec: f64,
}

impl ProcessorModel {
    /// Validates and constructs a model.
    pub fn new(
        name: &str,
        flops_per_sec: f64,
        levels: Vec<CacheLevel>,
        dram_bytes_per_sec: f64,
    ) -> ProcessorModel {
        assert!(flops_per_sec > 0.0, "flop rate must be positive");
        assert!(!levels.is_empty(), "need at least one cache level");
        assert!(dram_bytes_per_sec > 0.0, "DRAM bandwidth must be positive");
        for w in levels.windows(2) {
            assert!(
                w[0].capacity_bytes < w[1].capacity_bytes,
                "cache capacities must increase"
            );
            assert!(
                w[0].bytes_per_sec >= w[1].bytes_per_sec,
                "cache bandwidths must not increase outward"
            );
        }
        assert!(
            levels
                .last()
                .expect("levels verified non-empty above")
                .bytes_per_sec
                >= dram_bytes_per_sec,
            "DRAM cannot be faster than the outermost cache"
        );
        ProcessorModel {
            name: name.to_string(),
            flops_per_sec,
            levels,
            dram_bytes_per_sec,
        }
    }

    /// Bandwidth seen by a working set of `footprint` bytes.
    pub fn bandwidth_for(&self, footprint: usize) -> f64 {
        for lvl in &self.levels {
            if footprint <= lvl.capacity_bytes {
                return lvl.bytes_per_sec;
            }
        }
        self.dram_bytes_per_sec
    }

    /// Seconds for one application of a kernel with the given traits over
    /// `n` elements and `footprint` bytes: `max(flop time, memory time)`.
    pub fn time_traits(&self, traits: KernelTraits, n: usize, footprint: usize) -> f64 {
        let flop_time = traits.flops_per_element * n as f64 / self.flops_per_sec;
        let mem_time = traits.bytes_per_element * n as f64 / self.bandwidth_for(footprint);
        flop_time.max(mem_time)
    }

    /// Seconds for one application of `kernel` at problem size `n`.
    pub fn time_per_apply(&self, kernel: &dyn Kernel, n: usize) -> f64 {
        self.time_traits(kernel.traits(), n, kernel.footprint_bytes(n))
    }

    /// Seconds per element of `kernel` at problem size `n` — the entries of
    /// the model's computational cost matrices (§3.3).
    pub fn secs_per_element(&self, kernel: &dyn Kernel, n: usize) -> f64 {
        self.time_per_apply(kernel, n) / n as f64
    }

    /// A uniformly scaled copy (e.g. a 20 % faster part: `scaled(1.2)`).
    /// Capacities are preserved; all rates are multiplied.
    pub fn scaled(&self, factor: f64) -> ProcessorModel {
        assert!(factor > 0.0);
        ProcessorModel {
            name: format!("{}@x{factor}", self.name),
            flops_per_sec: self.flops_per_sec * factor,
            levels: self
                .levels
                .iter()
                .map(|l| CacheLevel {
                    capacity_bytes: l.capacity_bytes,
                    bytes_per_sec: l.bytes_per_sec * factor,
                })
                .collect(),
            dram_bytes_per_sec: self.dram_bytes_per_sec * factor,
        }
    }
}

/// The Xeon core of the 8×2×4 cluster, calibrated so DAXPY sustains
/// ≈ 1 Gflop/s in cache — the `r` of Table 3.1.
pub fn xeon_core() -> ProcessorModel {
    ProcessorModel::new(
        "xeon-2x4",
        4.0e9,
        vec![
            CacheLevel {
                capacity_bytes: 64 * 1024,
                bytes_per_sec: 12.0e9,
            },
            CacheLevel {
                capacity_bytes: 4 * 1024 * 1024,
                bytes_per_sec: 8.0e9,
            },
        ],
        4.0e9,
    )
}

/// The Opteron core of the 12×2×6 cluster: slightly lower clock, larger L2.
pub fn opteron_core() -> ProcessorModel {
    ProcessorModel::new(
        "opteron-2x6",
        3.5e9,
        vec![
            CacheLevel {
                capacity_bytes: 64 * 1024,
                bytes_per_sec: 10.5e9,
            },
            CacheLevel {
                capacity_bytes: 6 * 1024 * 1024,
                bytes_per_sec: 7.0e9,
            },
        ],
        3.5e9,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas1::{AXPY, DOT, SCAL};
    use crate::stencil::Stencil5;

    #[test]
    fn daxpy_sustains_about_a_gigaflop_on_xeon() {
        let p = xeon_core();
        // 1024 elements: 16 KiB footprint, in L1.
        let rate = AXPY.flops(1024) / p.time_per_apply(&AXPY, 1024);
        assert!(
            (rate - 1.0e9).abs() / 1.0e9 < 0.35,
            "expected ~1 Gflop/s, got {rate:.3e}"
        );
    }

    #[test]
    fn bandwidth_ladder_is_monotone() {
        let p = xeon_core();
        assert!(p.bandwidth_for(1024) >= p.bandwidth_for(1024 * 1024));
        assert!(p.bandwidth_for(1024 * 1024) >= p.bandwidth_for(64 * 1024 * 1024));
    }

    #[test]
    fn out_of_cache_knee_exists() {
        // Per-element time must strictly grow when the footprint leaves L1
        // (the Fig. 4.6 breakaway).
        let p = xeon_core();
        let small = p.secs_per_element(&AXPY, 2 * 1024); // 32 KiB
        let large = p.secs_per_element(&AXPY, 1024 * 1024); // 16 MiB
        assert!(
            large > small * 1.5,
            "expected a knee: in-cache {small:.3e}, out {large:.3e}"
        );
    }

    #[test]
    fn kernels_differ_in_cache() {
        // Fig. 4.5: axpy and dot differ even with uniform access cost.
        let p = xeon_core();
        let axpy = p.secs_per_element(&AXPY, 1024);
        let dot = p.secs_per_element(&DOT, 1024);
        assert!(axpy > dot, "axpy moves more bytes per element");
    }

    #[test]
    fn compute_bound_kernel_tracks_flop_rate() {
        // The stencil at tiny footprint is flop-bound on a slow-flop model.
        let slow_flops = ProcessorModel::new(
            "slow",
            0.5e9,
            vec![CacheLevel {
                capacity_bytes: 1 << 20,
                bytes_per_sec: 100.0e9,
            }],
            50.0e9,
        );
        let t = slow_flops.time_per_apply(&Stencil5, 1024);
        let expect = Stencil5.flops(1024) / 0.5e9;
        assert!((t - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn scaled_model_is_proportionally_faster() {
        let p = xeon_core();
        let f = p.scaled(2.0);
        let t1 = p.time_per_apply(&SCAL, 4096);
        let t2 = f.time_per_apply(&SCAL, 4096);
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn secs_per_element_consistent_with_time_per_apply() {
        let p = opteron_core();
        let n = 2048;
        assert!(
            (p.secs_per_element(&AXPY, n) * n as f64 - p.time_per_apply(&AXPY, n)).abs() < 1e-15
        );
    }

    #[test]
    #[should_panic]
    fn decreasing_capacity_rejected() {
        ProcessorModel::new(
            "bad",
            1e9,
            vec![
                CacheLevel {
                    capacity_bytes: 1024,
                    bytes_per_sec: 1e9,
                },
                CacheLevel {
                    capacity_bytes: 512,
                    bytes_per_sec: 1e9,
                },
            ],
            1e9,
        );
    }

    #[test]
    #[should_panic]
    fn dram_faster_than_cache_rejected() {
        ProcessorModel::new(
            "bad",
            1e9,
            vec![CacheLevel {
                capacity_bytes: 1024,
                bytes_per_sec: 1e9,
            }],
            2e9,
        );
    }
}
