//! The fundamental equation of modeling and the overlap term
//! (Eqs. 1.1–1.4, 3.15).
//!
//! With the computational superstep as the unit of work, total time splits
//! into non-maskable computation, non-maskable communication, the larger of
//! the two maskable parts, and synchronization:
//!
//! ```text
//! T_total = (T_comp − T'_comp) + (T_comm − T'_comm)
//!           + max(T'_comp, T'_comm) + T_sync          (Eq. 1.4)
//! ```

/// Per-process superstep cost decomposition.
///
/// All vectors are indexed by process; `sync` is the collective
/// synchronization cost (from the barrier predictor).
#[derive(Debug, Clone, PartialEq)]
pub struct SuperstepModel {
    /// Total computation time per process (`T_comp`).
    pub comp: Vec<f64>,
    /// The maskable part of computation (`T'_comp ≤ T_comp`).
    pub comp_maskable: Vec<f64>,
    /// Total communication time per process (`T_comm`).
    pub comm: Vec<f64>,
    /// The maskable part of communication (`T'_comm ≤ T_comm`).
    pub comm_maskable: Vec<f64>,
    /// Synchronization cost of the closing barrier.
    pub sync: f64,
}

impl SuperstepModel {
    /// Validates the decomposition invariants.
    pub fn new(
        comp: Vec<f64>,
        comp_maskable: Vec<f64>,
        comm: Vec<f64>,
        comm_maskable: Vec<f64>,
        sync: f64,
    ) -> SuperstepModel {
        let p = comp.len();
        assert!(p > 0, "need at least one process");
        assert_eq!(comp_maskable.len(), p, "comp_maskable length");
        assert_eq!(comm.len(), p, "comm length");
        assert_eq!(comm_maskable.len(), p, "comm_maskable length");
        assert!(sync >= 0.0, "sync cost cannot be negative");
        for i in 0..p {
            assert!(
                comp_maskable[i] <= comp[i] + 1e-15 && comp_maskable[i] >= 0.0,
                "proc {i}: maskable computation exceeds total"
            );
            assert!(
                comm_maskable[i] <= comm[i] + 1e-15 && comm_maskable[i] >= 0.0,
                "proc {i}: maskable communication exceeds total"
            );
        }
        SuperstepModel {
            comp,
            comp_maskable,
            comm,
            comm_maskable,
            sync,
        }
    }

    /// A fully sequential model: nothing maskable.
    pub fn without_overlap(comp: Vec<f64>, comm: Vec<f64>, sync: f64) -> SuperstepModel {
        let z = vec![0.0; comp.len()];
        SuperstepModel::new(comp, z.clone(), comm, z, sync)
    }

    /// Number of processes.
    pub fn p(&self) -> usize {
        self.comp.len()
    }

    /// Eq. 1.4 evaluated for one process.
    pub fn proc_total(&self, i: usize) -> f64 {
        (self.comp[i] - self.comp_maskable[i])
            + (self.comm[i] - self.comm_maskable[i])
            + self.comp_maskable[i].max(self.comm_maskable[i])
            + self.sync
    }

    /// The superstep cost: the slowest process (the barrier makes the step
    /// collective).
    pub fn total(&self) -> f64 {
        (0..self.p())
            .map(|i| self.proc_total(i))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Time saved by overlap relative to fully sequential execution.
    pub fn overlap_saving(&self) -> f64 {
        let sequential =
            SuperstepModel::without_overlap(self.comp.clone(), self.comm.clone(), self.sync);
        sequential.total() - self.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_sequential_total() {
        let m = SuperstepModel::without_overlap(vec![3.0, 2.0], vec![1.0, 2.5], 0.5);
        assert!((m.proc_total(0) - 4.5).abs() < 1e-12);
        assert!((m.proc_total(1) - 5.0).abs() < 1e-12);
        assert!((m.total() - 5.0).abs() < 1e-12);
        assert_eq!(m.overlap_saving(), 0.0);
    }

    #[test]
    fn full_overlap_bounded_by_max() {
        // Everything maskable: total = max(comp, comm) + sync.
        let m = SuperstepModel::new(vec![4.0], vec![4.0], vec![3.0], vec![3.0], 1.0);
        assert!((m.total() - 5.0).abs() < 1e-12);
        assert!((m.overlap_saving() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_interpolates() {
        // comp 4 (2 maskable), comm 3 (all maskable):
        // (4−2) + (3−3) + max(2,3) + 1 = 6.
        let m = SuperstepModel::new(vec![4.0], vec![2.0], vec![3.0], vec![3.0], 1.0);
        assert!((m.total() - 6.0).abs() < 1e-12);
        // Between sequential (8) and perfect (5).
        assert!(m.total() < 8.0 && m.total() > 5.0);
    }

    #[test]
    fn overlap_bisseling_factor_two_bound() {
        // §3.5 cites Bisseling: perfect overlap yields at most 2x speedup.
        let m = SuperstepModel::new(vec![5.0], vec![5.0], vec![5.0], vec![5.0], 0.0);
        let sequential = 10.0;
        assert!((sequential / m.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slowest_process_governs() {
        let m = SuperstepModel::new(
            vec![1.0, 10.0],
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            vec![0.0, 0.0],
            0.0,
        );
        assert!((m.total() - 11.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn maskable_exceeding_total_rejected() {
        SuperstepModel::new(vec![1.0], vec![2.0], vec![1.0], vec![0.0], 0.0);
    }
}
