//! Sample summaries: count, mean, standard deviation, extrema and median.

use crate::quantile::quantile_sorted;

/// Arithmetic mean of a slice via the Welford recurrence — the single
/// source of truth [`Summary::push`] also steps through, so
/// `mean(xs)` is bit-identical to `Summary::from_slice(xs).mean()`
/// without building a summary (and without allocating). 0 for an empty
/// slice.
pub fn mean(xs: &[f64]) -> f64 {
    let mut m = 0.0f64;
    for (n, &x) in xs.iter().enumerate() {
        m += welford_step(m, x, n + 1);
    }
    m
}

/// One Welford mean update: the increment to apply when observation `x`
/// arrives as the `count`-th sample (1-based) with running mean `mean`.
#[inline]
fn welford_step(mean: f64, x: f64, count: usize) -> f64 {
    (x - mean) / count as f64
}

/// A numerically stable summary of a sample of observations.
///
/// Means and standard deviations are accumulated with Welford's online
/// algorithm, so summaries can be built incrementally while a benchmark runs
/// without storing every observation. The median, which the thesis prefers
/// for latency statistics because of heavy-tailed OS noise (§5.6.3), reads
/// an insertion-maintained sorted copy of the retained observations, so
/// querying it repeatedly allocates and sorts nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    values: Vec<f64>,
    sorted: Vec<f64>,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            values: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// Builds a summary from a slice of observations.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Summary::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += welford_step(self.mean, x, self.count);
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
        self.values.push(x);
        let pos = self.sorted.partition_point(|&v| v < x);
        self.sorted.insert(pos, x);
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Arithmetic mean; 0 for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (n − 1 denominator); 0 when n < 2.
    ///
    /// Clamped at zero: catastrophic cancellation on near-constant samples
    /// riding a large offset can leave the Welford accumulator a tiny
    /// negative number, which would make `std_dev` NaN and poison every
    /// statistic derived from it downstream.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count as f64 - 1.0)).max(0.0)
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; +inf for an empty summary.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation; −inf for an empty summary.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sample median; 0 for an empty summary. Allocation-free: reads the
    /// maintained sorted copy.
    pub fn median(&self) -> f64 {
        quantile_sorted(&self.sorted, 0.5)
    }

    /// Linear-interpolated quantile of the retained observations;
    /// allocation-free for the same reason as [`Summary::median`].
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_sorted(&self.sorted, q)
    }

    /// Borrow the retained observations in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_benign() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.median(), 0.0);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_slice(&[42.0]);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
        assert_eq!(s.median(), 42.0);
    }

    #[test]
    fn known_mean_and_variance() {
        // Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population var 4,
        // sample var 32/7.
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn median_even_and_odd() {
        let odd = Summary::from_slice(&[3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), 2.0);
        let even = Summary::from_slice(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median(), 2.5);
    }

    /// The slice-level `mean` and the incremental `Summary` step the
    /// same recurrence, so their results are bit-identical — the
    /// property `BarrierMeasurement::mean` relies on.
    #[test]
    fn slice_mean_is_bit_identical_to_summary() {
        use rand::Rng;
        let mut rng = crate::rng::derive_rng(5, 9);
        for len in [0usize, 1, 2, 7, 100, 1000] {
            let xs: Vec<f64> = (0..len).map(|_| rng.gen::<f64>() * 1e-3 + 1e-5).collect();
            assert_eq!(mean(&xs), Summary::from_slice(&xs).mean(), "len {len}");
        }
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 1e6 + 1e9).collect();
        let s = Summary::from_slice(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() as f64 - 1.0);
        assert!((s.mean() - mean).abs() / mean.abs() < 1e-12);
        assert!((s.variance() - var).abs() / var < 1e-9);
    }

    /// Near-constant observations riding a large offset: floating-point
    /// cancellation must never surface as a negative variance or a NaN
    /// standard deviation.
    #[test]
    fn variance_never_negative_under_cancellation() {
        // A handful of adversarial shapes around 1e15–1e16 offsets.
        let offsets = [1e12, 1e15, 4.0 / 3.0 * 1e16];
        let wiggles = [0.0, 1e-3, 0.5, 1.0];
        for &off in &offsets {
            for &w in &wiggles {
                let mut s = Summary::new();
                for i in 0..1000 {
                    // Alternating ±w around the offset, plus a rounding-
                    // hostile irrational step.
                    let x = off + if i % 2 == 0 { w } else { -w } + (i as f64).sqrt() * 1e-9;
                    s.push(x);
                }
                assert!(
                    s.variance() >= 0.0,
                    "variance {} at offset {off} wiggle {w}",
                    s.variance()
                );
                assert!(
                    s.std_dev().is_finite() && s.std_dev() >= 0.0,
                    "std_dev {} at offset {off} wiggle {w}",
                    s.std_dev()
                );
            }
        }
        // The exact constant-large-value case, where m2 should be 0 but
        // cancellation may leave dust of either sign.
        let s = Summary::from_slice(&[1e16 + 1.0; 64]);
        assert!(s.variance() >= 0.0);
        assert!(s.std_dev() >= 0.0);
    }

    /// The maintained sorted copy matches a from-scratch sort at every
    /// prefix, so median/quantile queries stay allocation-free and right.
    #[test]
    fn sorted_cache_tracks_insertions() {
        use crate::quantile::{median, quantile};
        let mut rng = crate::rng::derive_rng(77, 1);
        use rand::Rng;
        let mut s = Summary::new();
        let mut all = Vec::new();
        for _ in 0..200 {
            let x = (rng.gen::<f64>() * 16.0).floor(); // duplicate-heavy
            s.push(x);
            all.push(x);
            assert_eq!(s.median(), median(&all));
            assert_eq!(s.quantile(0.9), quantile(&all, 0.9));
        }
        let mut expect = all.clone();
        expect.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        assert_eq!(s.sorted, expect);
        assert_eq!(s.values(), &all[..]);
    }
}
