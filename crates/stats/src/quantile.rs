//! Order statistics: medians and linear-interpolated quantiles.
//!
//! Three entry points trade convenience against allocation:
//!
//! * [`quantile`] / [`median`] — borrow a slice, pay one scratch
//!   allocation, and *select* (no full sort) the needed order statistics;
//! * [`quantile_inplace`] — quantile over a caller-owned scratch buffer:
//!   no allocation at all, which is what the parallel measurement loops
//!   use on their per-worker buffers;
//! * [`quantile_sorted`] — O(1) lookup into an already-sorted slice, for
//!   callers that keep their samples ordered (e.g. `Summary`).

use std::cmp::Ordering;

fn cmp(a: &f64, b: &f64) -> Ordering {
    a.partial_cmp(b).expect("NaN in quantile input")
}

/// Sample median. Returns 0 for an empty slice.
///
/// The thesis reports barrier latencies as medians of repeated runs because
/// OS jitter produces a heavy right tail that distorts means (§5.6.3).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile (type-7 estimator, the R default).
///
/// `q` is clamped to `[0, 1]`. Returns 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    quantile_inplace(&mut v, q)
}

/// [`quantile`] over a caller-owned scratch buffer: allocation-free, and
/// selection-based (`select_nth_unstable`) rather than a full sort. The
/// buffer's element *order* is clobbered; its contents are preserved.
pub fn quantile_inplace(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let h = (xs.len() as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let (_, &mut lo_v, rest) = xs.select_nth_unstable_by(lo, cmp);
    if lo == hi {
        return lo_v;
    }
    // `hi == lo + 1`, so the interpolation partner is the smallest
    // element of the upper partition — a linear scan, not another select.
    let hi_v = rest.iter().copied().fold(f64::INFINITY, f64::min);
    lo_v + (h - lo as f64) * (hi_v - lo_v)
}

/// [`quantile`] of an ascending-sorted slice: no allocation, no data
/// movement, O(1).
pub fn quantile_sorted(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    debug_assert!(
        xs.windows(2).all(|w| w[0] <= w[1]),
        "quantile_sorted needs ascending input"
    );
    let q = q.clamp(0.0, 1.0);
    let h = (xs.len() as f64 - 1.0) * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        xs[lo]
    } else {
        xs[lo] + (h - lo as f64) * (xs[hi] - xs[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
        assert_eq!(quantile_inplace(&mut [], 0.5), 0.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }

    #[test]
    fn median_odd() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn median_even_interpolates() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn quantile_extremes_are_min_max() {
        let xs = [9.0, 2.0, 7.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 2.0);
        assert_eq!(quantile(&xs, 1.0), 9.0);
    }

    #[test]
    fn quantile_clamps_out_of_range() {
        let xs = [1.0, 2.0];
        assert_eq!(quantile(&xs, -3.0), 1.0);
        assert_eq!(quantile(&xs, 7.0), 2.0);
    }

    #[test]
    fn quartiles_of_uniform_grid() {
        let xs: Vec<f64> = (0..=100).map(|i| i as f64).collect();
        assert!((quantile(&xs, 0.25) - 25.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.75) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let xs = [10.0, -1.0, 4.0, 4.0, 2.0];
        assert_eq!(median(&xs), 4.0);
    }

    /// The three paths agree bit-for-bit on awkward sizes and duplicate-
    /// heavy data — the selection path must be a pure optimization.
    #[test]
    fn all_paths_agree() {
        let mut rng = crate::rng::derive_rng(404, 0);
        use rand::Rng;
        for n in 1..40usize {
            let xs: Vec<f64> = (0..n).map(|_| (rng.gen::<f64>() * 8.0).floor()).collect();
            let mut sorted = xs.clone();
            sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            for k in 0..=10u32 {
                let q = k as f64 / 10.0;
                let a = quantile(&xs, q);
                let mut scratch = xs.clone();
                let b = quantile_inplace(&mut scratch, q);
                let c = quantile_sorted(&sorted, q);
                assert_eq!(a, b, "n={n} q={q}");
                assert_eq!(a, c, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn inplace_reorders_but_preserves_contents() {
        let mut xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        let m = quantile_inplace(&mut xs, 0.5);
        assert_eq!(m, 3.0);
        let mut back = xs;
        back.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        assert_eq!(back, [1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    #[should_panic]
    fn nan_input_rejected() {
        quantile(&[1.0, f64::NAN, 2.0], 0.5);
    }
}
