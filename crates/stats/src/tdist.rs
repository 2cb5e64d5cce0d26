//! Student-t distribution by numerical integration.
//!
//! §4.1 of the thesis: *"The outlier filter of the benchmarking program
//! approximates normal distribution of the mean estimate using the Student-t
//! distribution. Critical values of the interval are found by integrating
//! its probability density using tgamma from the standard C library, using
//! the trapezoid method to the nearest interval of 1e-4, and approximating
//! the critical point by linear interpolation below this resolution."*
//!
//! We follow the same construction: a Lanczos log-gamma, the t density, a
//! trapezoid CDF and an interpolated inverse.

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
///
/// Accurate to ~1e-13 over the range used here (half-integer degrees of
/// freedom well below 10⁴).
pub fn ln_gamma(x: f64) -> f64 {
    // g = 7, n = 9 Lanczos coefficients, kept at published precision.
    #[allow(clippy::excessive_precision)]
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Student-t distribution with `nu` degrees of freedom.
#[derive(Debug, Clone, Copy)]
pub struct StudentT {
    nu: f64,
    log_norm: f64,
}

impl StudentT {
    /// Creates the distribution; `nu` must be positive.
    pub fn new(nu: f64) -> StudentT {
        assert!(nu > 0.0, "degrees of freedom must be positive, got {nu}");
        let log_norm = ln_gamma((nu + 1.0) / 2.0)
            - ln_gamma(nu / 2.0)
            - 0.5 * (nu * std::f64::consts::PI).ln();
        StudentT { nu, log_norm }
    }

    /// Probability density at `t`.
    pub fn pdf(&self, t: f64) -> f64 {
        (self.log_norm - (self.nu + 1.0) / 2.0 * (1.0 + t * t / self.nu).ln()).exp()
    }

    /// Cumulative distribution `P(T ≤ t)` by trapezoid integration from 0,
    /// exploiting symmetry. Step size 1e-4·max(1,|t|) keeps the error below
    /// ~1e-9 for the moderate `t` used in confidence intervals.
    pub fn cdf(&self, t: f64) -> f64 {
        if t < 0.0 {
            return 1.0 - self.cdf(-t);
        }
        let steps = ((t / 1e-4).ceil() as usize).clamp(1, 2_000_000);
        let h = t / steps as f64;
        let mut area = 0.0;
        let mut prev = self.pdf(0.0);
        for i in 1..=steps {
            let x = i as f64 * h;
            let cur = self.pdf(x);
            area += 0.5 * (prev + cur) * h;
            prev = cur;
        }
        0.5 + area
    }

    /// Two-sided critical value `t*` such that `P(|T| ≤ t*) = confidence`.
    ///
    /// Found by bracketing + bisection on the CDF with final linear
    /// interpolation, mirroring the thesis' procedure.
    pub fn critical_two_sided(&self, confidence: f64) -> f64 {
        assert!(
            (0.0..1.0).contains(&confidence),
            "confidence must be in [0,1), got {confidence}"
        );
        let target = 0.5 + confidence / 2.0;
        // Bracket.
        let mut hi = 1.0;
        while self.cdf(hi) < target {
            hi *= 2.0;
            if hi > 1e6 {
                return hi;
            }
        }
        let mut lo = 0.0;
        // Bisection to 1e-4, then interpolate.
        while hi - lo > 1e-4 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let flo = self.cdf(lo);
        let fhi = self.cdf(hi);
        if fhi > flo {
            lo + (target - flo) / (fhi - flo) * (hi - lo)
        } else {
            0.5 * (lo + hi)
        }
    }
}

/// Two-sided Student-t critical value for `n` samples (`n − 1` degrees of
/// freedom) at the given confidence level, e.g. 0.95.
pub fn student_t_critical(n: usize, confidence: f64) -> f64 {
    assert!(n >= 2, "need at least two samples, got {n}");
    StudentT::new((n - 1) as f64).critical_two_sided(confidence)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n−1)!
        let facts: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let x = (i + 1) as f64;
            assert!((ln_gamma(x) - f.ln()).abs() < 1e-10, "ln_gamma({x})");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn pdf_is_symmetric_and_normalized_enough() {
        let t = StudentT::new(5.0);
        assert!((t.pdf(1.3) - t.pdf(-1.3)).abs() < 1e-15);
        // CDF at a large value approaches 1.
        assert!(t.cdf(50.0) > 0.9999);
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cdf_monotone() {
        let t = StudentT::new(9.0);
        let mut prev = 0.0;
        for i in 0..40 {
            let x = -4.0 + i as f64 * 0.2;
            let c = t.cdf(x);
            assert!(c >= prev - 1e-12, "CDF must be nondecreasing");
            prev = c;
        }
    }

    #[test]
    fn critical_values_match_tables() {
        // Standard two-sided 95 % t critical values.
        let cases = [(2.0, 4.303), (5.0, 2.571), (10.0, 2.228), (29.0, 2.045)];
        for (nu, expect) in cases {
            let got = StudentT::new(nu).critical_two_sided(0.95);
            assert!(
                (got - expect).abs() < 5e-3,
                "nu={nu}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn critical_for_thirty_samples() {
        // The thesis samples 30 batches: dof 29, 95 % → 2.045.
        let t = student_t_critical(30, 0.95);
        assert!((t - 2.045).abs() < 5e-3, "got {t}");
    }

    #[test]
    fn critical_99_exceeds_95() {
        let d = StudentT::new(7.0);
        assert!(d.critical_two_sided(0.99) > d.critical_two_sided(0.95));
    }

    #[test]
    #[should_panic]
    fn zero_dof_rejected() {
        StudentT::new(0.0);
    }
}
