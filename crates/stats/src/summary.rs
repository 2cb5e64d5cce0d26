//! Sample summaries: the Welford mean and variance of a slice.

/// Arithmetic mean of a slice via the Welford recurrence that
/// [`variance`] also steps through. 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    let mut m = 0.0f64;
    for (n, &x) in xs.iter().enumerate() {
        m += welford_step(m, x, n + 1);
    }
    m
}

/// Unbiased sample variance (n − 1 denominator) via Welford's
/// recurrence, stepping the running mean exactly as [`mean`] does; 0 when
/// n < 2.
///
/// Clamped at zero: catastrophic cancellation on near-constant samples
/// riding a large offset can leave the Welford accumulator a tiny
/// negative number, which would make the standard deviation NaN and
/// poison every statistic derived from it downstream.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (mut m, mut m2) = (0.0f64, 0.0f64);
    for (n, &x) in xs.iter().enumerate() {
        let delta = x - m;
        m += welford_step(m, x, n + 1);
        m2 += delta * (x - m);
    }
    (m2 / (xs.len() as f64 - 1.0)).max(0.0)
}

/// One Welford mean update: the increment to apply when observation `x`
/// arrives as the `count`-th sample (1-based) with running mean `mean`.
#[inline]
fn welford_step(mean: f64, x: f64, count: usize) -> f64 {
    (x - mean) / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_slices_have_zero_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(mean(&[42.0]), 42.0);
        assert_eq!(variance(&[42.0]), 0.0);
    }

    #[test]
    fn known_mean_and_variance() {
        // Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, population var 4,
        // sample var 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 1e6 + 1e9).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() as f64 - 1.0);
        assert!((super::mean(&xs) - mean).abs() / mean.abs() < 1e-12);
        assert!((variance(&xs) - var).abs() / var < 1e-9);
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
                // Alternating ±w around the offset, plus a rounding-
                // hostile irrational step.
                let xs: Vec<f64> = (0..1000)
                    .map(|i| off + if i % 2 == 0 { w } else { -w } + (i as f64).sqrt() * 1e-9)
                    .collect();
                let std_dev = variance(&xs).sqrt();
                assert!(
                    variance(&xs) >= 0.0,
                    "variance {} at offset {off} wiggle {w}",
                    variance(&xs)
                );
                assert!(
                    std_dev.is_finite() && std_dev >= 0.0,
                    "std_dev {} at offset {off} wiggle {w}",
                    std_dev
                );
            }
        }
        // The exact constant-large-value case, where m2 should be 0 but
        // cancellation may leave dust of either sign.
        let xs = [1e16 + 1.0; 64];
        assert!(variance(&xs) >= 0.0);
        assert!(variance(&xs).sqrt() >= 0.0);
    }
}
