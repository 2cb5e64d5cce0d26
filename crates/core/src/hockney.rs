//! The Hockney and heterogeneous Hockney communication models (§3.4).
//!
//! Hockney models a point-to-point transfer as `T = α + β·M` — startup
//! latency plus inverse bandwidth times message size. The heterogeneous
//! extension (after Lastovetsky et al., which the thesis adopts) records
//! `α` and `β` for every ordered pair of processes in `P×P` matrices,
//! turning topology into data instead of structure. Per-process superstep
//! communication time is then a pair of Hadamard compositions, the
//! communication half of Eq. 3.15:
//!
//! ```text
//! t_comm = (R_messages ⊗ C_latency + R_data ⊗ C_β) · s
//! ```

use crate::matrix::DMat;

/// Scalar Hockney model: `T(m) = α + β·m`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hockney {
    /// Startup latency in seconds.
    pub alpha: f64,
    /// Inverse bandwidth in seconds per byte.
    pub beta: f64,
}

impl Hockney {
    /// Transfer time for `m` bytes.
    pub fn cost(&self, m: usize) -> f64 {
        self.alpha + self.beta * m as f64
    }
}

/// Heterogeneous Hockney model: per-pair latency and inverse bandwidth,
/// a view over matrices its owner keeps (a benchmarked profile serves
/// one over its `L` and `β` cost matrices, so they are stored once).
///
/// Both matrices are `P×P`; diagonals are conventionally zero (a process
/// does not transport data to itself through the interconnect).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeteroHockney<'a> {
    /// `alpha.get(i, j)`: startup latency from i to j, seconds.
    pub alpha: &'a DMat,
    /// `beta.get(i, j)`: inverse bandwidth from i to j, seconds/byte.
    pub beta: &'a DMat,
}

impl<'a> HeteroHockney<'a> {
    /// Validates shapes and constructs the model.
    pub fn new(alpha: &'a DMat, beta: &'a DMat) -> HeteroHockney<'a> {
        assert_eq!(alpha.rows(), alpha.cols(), "alpha must be square");
        assert_eq!(
            (alpha.rows(), alpha.cols()),
            (beta.rows(), beta.cols()),
            "alpha and beta must agree in shape"
        );
        HeteroHockney { alpha, beta }
    }

    /// Number of processes.
    pub fn p(&self) -> usize {
        self.alpha.rows()
    }

    /// Transfer time of `m` bytes from `i` to `j`.
    pub fn cost(&self, i: usize, j: usize, m: usize) -> f64 {
        self.alpha.get(i, j) + self.beta.get(i, j) * m as f64
    }
}

/// Per-process communication time vector (Eq. 3.15, communication terms):
/// `(R_msg ⊗ α + R_data ⊗ β) · s`.
///
/// `msg_counts.get(i, j)` is the number of messages i sends to j in the
/// superstep; `volumes.get(i, j)` the bytes. Both must be `P×P` matching
/// the model.
pub fn comm_times(msg_counts: &DMat, volumes: &DMat, hh: &HeteroHockney<'_>) -> Vec<f64> {
    let p = hh.p();
    assert_eq!((msg_counts.rows(), msg_counts.cols()), (p, p));
    assert_eq!((volumes.rows(), volumes.cols()), (p, p));
    let latency_part = msg_counts.hadamard(hh.alpha);
    let bandwidth_part = volumes.hadamard(hh.beta);
    latency_part.add(&bandwidth_part).row_sums()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `(α, β)` matrices of [`HeteroHockney`] views in these tests.
    fn two_scale_model() -> (DMat, DMat) {
        // 4 processes: {0,1} and {2,3} are local pairs (1 µs), cross pairs
        // remote (50 µs); bandwidths 1 GB/s local, 100 MB/s remote.
        let local = 1e-6;
        let remote = 50e-6;
        let bl = 1e-9;
        let br = 1e-8;
        let alpha = DMat::from_fn(4, 4, |i, j| {
            if i == j {
                0.0
            } else if i / 2 == j / 2 {
                local
            } else {
                remote
            }
        });
        let beta = DMat::from_fn(4, 4, |i, j| {
            if i == j {
                0.0
            } else if i / 2 == j / 2 {
                bl
            } else {
                br
            }
        });
        (alpha, beta)
    }

    #[test]
    fn scalar_hockney() {
        let h = Hockney {
            alpha: 1e-5,
            beta: 1e-8,
        };
        assert!((h.cost(0) - 1e-5).abs() < 1e-18);
        assert!((h.cost(1000) - 2e-5).abs() < 1e-18);
    }

    #[test]
    fn pairwise_costs_respect_locality() {
        let (alpha, beta) = two_scale_model();
        let hh = HeteroHockney::new(&alpha, &beta);
        assert!(hh.cost(0, 1, 0) < hh.cost(0, 2, 0));
        // A large message is cheaper to a local peer despite equal size.
        assert!(hh.cost(0, 1, 1 << 20) < hh.cost(0, 3, 1 << 20));
    }

    #[test]
    fn comm_times_compose_latency_and_volume() {
        let (alpha, beta) = two_scale_model();
        let hh = HeteroHockney::new(&alpha, &beta);
        // Process 0 sends one 1000-byte message to 1 and one to 2.
        let mut counts = DMat::zeros(4, 4);
        counts.set(0, 1, 1.0);
        counts.set(0, 2, 1.0);
        let mut vols = DMat::zeros(4, 4);
        vols.set(0, 1, 1000.0);
        vols.set(0, 2, 1000.0);
        let t = comm_times(&counts, &vols, &hh);
        let expect = (1e-6 + 1000.0 * 1e-9) + (50e-6 + 1000.0 * 1e-8);
        assert!((t[0] - expect).abs() < 1e-15);
        assert_eq!(t[1], 0.0);
        assert_eq!(t[2], 0.0);
    }

    #[test]
    fn message_count_scales_latency_linearly() {
        let (alpha, beta) = two_scale_model();
        let hh = HeteroHockney::new(&alpha, &beta);
        let mut one = DMat::zeros(4, 4);
        one.set(0, 3, 1.0);
        let mut five = DMat::zeros(4, 4);
        five.set(0, 3, 5.0);
        let z = DMat::zeros(4, 4);
        let t1 = comm_times(&one, &z, &hh)[0];
        let t5 = comm_times(&five, &z, &hh)[0];
        assert!((t5 - 5.0 * t1).abs() < 1e-15);
    }

    #[test]
    #[should_panic]
    fn non_square_alpha_rejected() {
        HeteroHockney::new(&DMat::zeros(2, 3), &DMat::zeros(2, 3));
    }
}
