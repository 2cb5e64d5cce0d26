//! The original BSP performance model (§3.1).
//!
//! Four scalars — `p` processes, computation rate `r`, router throughput
//! `g` and synchronization latency `l` — with all costs expressed in flop
//! equivalents. This model is retained as the baseline: its inner-product
//! prediction deviates from measurement by five orders of magnitude on the
//! 8×2×4 test cluster (Fig. 3.2), which is the motivation for the
//! heterogeneous extensions in the rest of the crate.

/// Classic BSP machine parameters, in the notation of Bisseling that the
/// thesis follows: `r` in flop/s, `g` and `l` in flop-equivalents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassicBsp {
    /// Level of parallelism.
    pub p: usize,
    /// Computation rate in flop/s.
    pub r: f64,
    /// Communication throughput in flops per transferred word.
    pub g: f64,
    /// Synchronization cost in flop equivalents.
    pub l: f64,
}

impl ClassicBsp {
    /// Creates a parameter set; all rates must be positive.
    pub fn new(p: usize, r: f64, g: f64, l: f64) -> ClassicBsp {
        assert!(p > 0, "need at least one process");
        assert!(r > 0.0 && g >= 0.0 && l >= 0.0, "invalid BSP parameters");
        ClassicBsp { p, r, g, l }
    }

    /// Seconds for a number of flop equivalents.
    pub fn seconds(&self, flops: f64) -> f64 {
        flops / self.r
    }

    /// The classic prediction for the two-superstep inner product of §3.1
    /// (Eq. 3.7): a local sum of `n/p` products, a 1-relation scatter and a
    /// `p`-term accumulation.
    pub fn inner_product_seconds(&self, n: u64) -> f64 {
        let local = (n as f64 / self.p as f64) * 2.0;
        let accum = self.p as f64;
        // Eq. 3.7: (N/p·2 + l + g + l + p) / r — the first superstep's
        // synchronization, the 1-relation scatter (g + l), then the local
        // accumulation.
        self.seconds(local + self.l + self.g + self.l + accum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_3_1_p8() -> ClassicBsp {
        // First row of Table 3.1: P = 8, r = 991.695 Mflop/s,
        // g = 105.4, l = 30575.7.
        ClassicBsp::new(8, 991.695e6, 105.4, 30575.7)
    }

    #[test]
    fn inner_product_prediction_matches_eq_3_7() {
        let m = table_3_1_p8();
        let n = 100_000_000u64;
        let by_hand = ((n as f64 / 8.0) * 2.0 + m.l + m.g + m.l + 8.0) / m.r;
        assert!((m.inner_product_seconds(n) - by_hand).abs() < 1e-15);
    }

    #[test]
    fn prediction_has_the_spurious_minimum() {
        // The classic model predicts a cost minimum in p (Fig. 3.2's
        // criticism): growing l with p eventually dominates the shrinking
        // local work. Emulate Table 3.1's l growth and verify the
        // non-monotonicity the thesis points out.
        let n = 100_000_000u64;
        let ls = [30575.7, 631365.8, 1450059.5, 1771331.3, 2500077.3];
        let ps = [8usize, 16, 24, 32, 40];
        let times: Vec<f64> = ps
            .iter()
            .zip(ls.iter())
            .map(|(&p, &l)| ClassicBsp::new(p, 991.695e6, 105.4, l).inner_product_seconds(n))
            .collect();
        let min_at = times
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("predicted times are finite"))
            .expect("times is non-empty")
            .0;
        assert!(
            min_at > 0 && min_at < times.len() - 1,
            "expected an interior minimum, times: {times:?}"
        );
    }

    #[test]
    #[should_panic]
    fn zero_processes_rejected() {
        ClassicBsp::new(0, 1.0, 1.0, 1.0);
    }
}
