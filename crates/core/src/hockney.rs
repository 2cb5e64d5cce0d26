//! The heterogeneous Hockney communication model (§3.4).
//!
//! Hockney models a point-to-point transfer as `T = α + β·M` — startup
//! latency plus inverse bandwidth times message size. The heterogeneous
//! extension (after Lastovetsky et al., which the thesis adopts) records
//! `α` and `β` for every ordered pair of processes, turning topology into
//! data instead of structure. That model *is* [`CostModel::pair`]: the
//! `(l, beta)` of `pair(i, j)` are the `(α, β)` of the link `i → j`,
//! served from dense benchmarked matrices or per link class alike.
//! Per-process superstep communication time is then a pair of Hadamard
//! compositions, the communication half of Eq. 3.15:
//!
//! ```text
//! t_comm = (R_messages ⊗ C_latency + R_data ⊗ C_β) · s
//! ```
//!
//! [`comm_times`] evaluates it over dense `P×P` requirement matrices. It
//! is the test oracle of the stencil predictors, which sum the same terms
//! over each process' few neighbours instead.

use crate::matrix::DMat;
use crate::predictor::CostModel;

/// Per-process communication time vector (Eq. 3.15, communication terms):
/// `(R_msg ⊗ α + R_data ⊗ β) · s`, with `α_ij`/`β_ij` the `l`/`beta` of
/// `costs.pair(i, j)`.
///
/// `msg_counts.get(i, j)` is the number of messages i sends to j in the
/// superstep; `volumes.get(i, j)` the bytes. Both must be `P×P` matching
/// the model, with zero diagonals (a process does not transport data to
/// itself through the interconnect).
pub fn comm_times<C: CostModel + ?Sized>(msg_counts: &DMat, volumes: &DMat, costs: &C) -> Vec<f64> {
    let p = costs.p();
    assert_eq!((msg_counts.rows(), msg_counts.cols()), (p, p));
    assert_eq!((volumes.rows(), volumes.cols()), (p, p));
    (0..p)
        .map(|i| {
            assert_eq!((msg_counts.get(i, i), volumes.get(i, i)), (0.0, 0.0));
            (0..p).filter(|&j| j != i).fold(0.0, |t, j| {
                let c = costs.pair(i, j);
                t + (msg_counts.get(i, j) * c.l + volumes.get(i, j) * c.beta)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::CommCosts;

    fn two_scale_model() -> CommCosts {
        // 4 processes: {0,1} and {2,3} are local pairs (1 µs), cross pairs
        // remote (50 µs); bandwidths 1 GB/s local, 100 MB/s remote.
        let scale = |local: f64, remote: f64| {
            DMat::from_fn(4, 4, |i, j| {
                if i == j {
                    0.0
                } else if i / 2 == j / 2 {
                    local
                } else {
                    remote
                }
            })
        };
        CommCosts::new(DMat::zeros(4, 4), scale(1e-6, 50e-6), scale(1e-9, 1e-8))
    }

    #[test]
    fn comm_times_compose_latency_and_volume() {
        let costs = two_scale_model();
        // Process 0 sends one 1000-byte message to 1 and one to 2.
        let mut counts = DMat::zeros(4, 4);
        counts.set(0, 1, 1.0);
        counts.set(0, 2, 1.0);
        let mut vols = DMat::zeros(4, 4);
        vols.set(0, 1, 1000.0);
        vols.set(0, 2, 1000.0);
        let t = comm_times(&counts, &vols, &costs);
        let expect = (1e-6 + 1000.0 * 1e-9) + (50e-6 + 1000.0 * 1e-8);
        assert!((t[0] - expect).abs() < 1e-15);
        assert_eq!(t[1], 0.0);
        assert_eq!(t[2], 0.0);
    }

    #[test]
    fn message_count_scales_latency_linearly() {
        let costs = two_scale_model();
        let mut one = DMat::zeros(4, 4);
        one.set(0, 3, 1.0);
        let mut five = DMat::zeros(4, 4);
        five.set(0, 3, 5.0);
        let z = DMat::zeros(4, 4);
        let t1 = comm_times(&one, &z, &costs)[0];
        let t5 = comm_times(&five, &z, &costs)[0];
        assert!((t5 - 5.0 * t1).abs() < 1e-15);
    }
}
