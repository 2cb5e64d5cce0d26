//! Heterogeneous computation composition (§3.3).
//!
//! A parallel program's computational demand in one superstep is a `P×K`
//! *requirement matrix* `R` (how much of each of `K` kernels each process
//! applies, in elements), and the platform's capability is a `P×K` *cost
//! matrix* `C` (seconds per element of each kernel on each processor).
//! Their Hadamard product summed over kernels gives the per-process
//! superstep time vector (Eq. 3.13):
//!
//! ```text
//! t = (R ⊗ C) · s,   s = [1, 1, …]ᵀ
//! ```
//!
//! The spread of `t` exposes load imbalance (Eq. 3.11).

use crate::matrix::DMat;

/// Per-process superstep time vector `t = (R ⊗ C)·s` (Eq. 3.13).
///
/// `r` and `c` must both be `P×K`. Entries of `r` are workload sizes
/// (elements), entries of `c` are seconds per element.
pub fn superstep_times(r: &DMat, c: &DMat) -> Vec<f64> {
    assert_eq!(
        (r.rows(), r.cols()),
        (c.rows(), c.cols()),
        "requirement and cost matrices must agree in shape"
    );
    r.hadamard(c).row_sums()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Eq. 3.12/3.13: two DAXPY processes, the second
    /// processor halving add and multiply cost via fused multiply-add.
    fn eq_3_12_matrices(n: f64) -> (DMat, DMat) {
        let r = DMat::from_rows(&[&[n, n, n], &[n, n, n]]);
        let c = DMat::from_rows(&[&[1.0, 1.0, 1.0], &[1.0, 0.5, 0.5]]);
        (r, c)
    }

    #[test]
    fn eq_3_13_reproduced() {
        let (r, c) = eq_3_12_matrices(10.0);
        let t = superstep_times(&r, &c);
        assert_eq!(t, vec![30.0, 20.0]);
    }

    #[test]
    fn homogeneous_case_is_balanced() {
        let r = DMat::from_rows(&[&[5.0, 5.0], &[5.0, 5.0]]);
        let c = DMat::from_rows(&[&[2.0, 3.0], &[2.0, 3.0]]);
        let t = superstep_times(&r, &c);
        assert_eq!(t[0], t[1]);
    }

    #[test]
    fn eq_3_11_imbalance_detected() {
        // Process 0 runs DAXPY (=, +, *), process 1 a difference (=, −):
        // requirement rows differ, t exposes the mismatch.
        let r = DMat::from_rows(&[&[8.0, 8.0, 0.0, 8.0], &[8.0, 0.0, 8.0, 0.0]]);
        let c = DMat::from_rows(&[&[1.0, 1.0, 1.0, 1.0], &[1.0, 1.0, 1.0, 1.0]]);
        let t = superstep_times(&r, &c);
        assert_eq!(t, vec![24.0, 16.0]);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_rejected() {
        superstep_times(&DMat::zeros(2, 3), &DMat::zeros(3, 2));
    }
}
