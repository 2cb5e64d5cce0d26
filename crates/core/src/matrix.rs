//! Dense and incidence matrices.
//!
//! The framework deliberately trades sophisticated numerics for
//! transparency: every model term is a plain row-major `f64` matrix
//! ([`DMat`]) or a boolean incidence matrix ([`IMat`]), and every
//! composition rule of Ch. 3/5 is expressible with the handful of
//! operations here (sum, product, transpose, Hadamard product ⊗,
//! matrix–vector product with the all-ones vector).

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// Zero matrix of the given dimensions (both must be positive).
    pub fn zeros(rows: usize, cols: usize) -> DMat {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        DMat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> DMat {
        let mut m = DMat::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.data[i * cols + j] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from row slices; all rows must have equal length.
    pub fn from_rows(rows: &[&[f64]]) -> DMat {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "need at least one column");
        let mut m = DMat::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), cols, "ragged rows");
            m.data[i * cols..(i + 1) * cols].copy_from_slice(r);
        }
        m
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> DMat {
        DMat::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        self.data[i * self.cols + j] = v;
    }

    /// Borrow a row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The row-major backing storage: element `(i, j)` at `i * cols + j`.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Element-wise sum; dimensions must match.
    pub fn add(&self, other: &DMat) -> DMat {
        self.zip_with(other, |a, b| a + b)
    }

    /// Hadamard (element-wise) product — the `⊗` of Eq. 3.13.
    pub fn hadamard(&self, other: &DMat) -> DMat {
        self.zip_with(other, |a, b| a * b)
    }

    fn zip_with<F: Fn(f64, f64) -> f64>(&self, other: &DMat, f: F) -> DMat {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "dimension mismatch"
        );
        DMat {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, k: f64) -> DMat {
        DMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * k).collect(),
        }
    }

    /// Matrix product; inner dimensions must agree.
    pub fn matmul(&self, other: &DMat) -> DMat {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = DMat::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.data[k * other.cols + j];
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Product with the all-ones column vector: the row sums, i.e. the `·s`
    /// of Eq. 3.13 that turns a per-(proc, kernel) cost map into a
    /// per-process time vector.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Largest element.
    pub fn max(&self) -> f64 {
        self.data.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Applies a function to every element.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> DMat {
        DMat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// True if every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl std::fmt::Display for DMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:>10.3e}", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A square boolean incidence matrix encoding one stage of a communication
/// pattern: `get(i, j)` means "process i signals process j" (§5.5).
///
/// This is the thesis' own form of a stage, O(p²) per stage. Patterns are
/// authored and executed in the sparse [`crate::plan::StagePlan`] form;
/// this type is what that form is tested against (same enumeration, same
/// degrees, same transpose, same printed grid) and the `S_i` of the
/// Eq. 5.1–5.2 oracle via [`IMat::to_dmat`].
///
/// Per-row out-degrees, per-column in-degrees and the total edge count are
/// maintained on insertion, so degree queries are O(1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IMat {
    n: usize,
    data: Vec<bool>,
    out_deg: Vec<u32>,
    in_deg: Vec<u32>,
    edges: usize,
}

impl IMat {
    /// Empty (all-false) incidence matrix over `n` processes.
    pub fn empty(n: usize) -> IMat {
        assert!(n > 0, "incidence matrix needs at least one process");
        IMat {
            n,
            data: vec![false; n * n],
            out_deg: vec![0; n],
            in_deg: vec![0; n],
            edges: 0,
        }
    }

    /// Builds from directed edges `(src, dst)`. Self-loops are rejected —
    /// a process never signals itself in a barrier stage.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> IMat {
        let mut m = IMat::empty(n);
        for &(s, d) in edges {
            m.insert(s, d);
        }
        m
    }

    /// Process count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Tests an edge.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(i < self.n && j < self.n, "index ({i},{j}) out of range");
        self.data[i * self.n + j]
    }

    /// Inserts an edge; rejects self-loops and out-of-range indices.
    pub fn insert(&mut self, i: usize, j: usize) {
        assert!(i < self.n && j < self.n, "edge ({i},{j}) out of range");
        assert_ne!(
            i, j,
            "self-signal ({i},{i}) is meaningless in a barrier stage"
        );
        let cell = &mut self.data[i * self.n + j];
        if !*cell {
            *cell = true;
            self.out_deg[i] += 1;
            self.in_deg[j] += 1;
            self.edges += 1;
        }
    }

    /// Destinations signalled by `i`, ascending.
    pub fn dsts(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(i < self.n, "row {i} out of range");
        self.data[i * self.n..(i + 1) * self.n]
            .iter()
            .enumerate()
            .filter_map(|(j, &set)| set.then_some(j))
    }

    /// Sources signalling `j`, ascending. Allocation-free.
    pub fn srcs(&self, j: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(j < self.n, "column {j} out of range");
        (0..self.n).filter(move |&i| self.data[i * self.n + j])
    }

    /// Number of destinations `i` signals — O(1), maintained on insert.
    pub fn out_degree(&self, i: usize) -> usize {
        self.out_deg[i] as usize
    }

    /// Number of sources signalling `j` — O(1), maintained on insert.
    pub fn in_degree(&self, j: usize) -> usize {
        self.in_deg[j] as usize
    }

    /// Total edge count — O(1), maintained on insert.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Transpose — the release stages of hierarchical barriers are the
    /// transposed arrival stages in reverse order (§5.5).
    pub fn transpose(&self) -> IMat {
        let mut t = IMat::empty(self.n);
        for i in 0..self.n {
            for j in self.dsts(i) {
                t.insert(j, i);
            }
        }
        t
    }

    /// The matrix as a `DMat` of zeros and ones, for algebraic use.
    pub fn to_dmat(&self) -> DMat {
        DMat::from_fn(
            self.n,
            self.n,
            |i, j| if self.get(i, j) { 1.0 } else { 0.0 },
        )
    }
}

impl std::fmt::Display for IMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.n {
            for j in 0..self.n {
                write!(f, "{}", if self.get(i, j) { " 1" } else { " 0" })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn identity_is_neutral() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = DMat::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn hadamard_and_row_sums() {
        let r = DMat::from_rows(&[&[2.0, 3.0], &[4.0, 5.0]]);
        let c = DMat::from_rows(&[&[10.0, 100.0], &[1.0, 0.1]]);
        let t = r.hadamard(&c).row_sums();
        assert_eq!(t, vec![320.0, 4.5]);
    }

    #[test]
    fn transpose_involution() {
        let a = DMat::from_fn(3, 5, |i, j| (i * 7 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn scale_and_map() {
        let a = DMat::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.scale(3.0).row(0), &[3.0, -6.0]);
        assert_eq!(a.map(f64::abs).row(0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_add_panics() {
        DMat::zeros(2, 2).add(&DMat::zeros(2, 3));
    }

    #[test]
    #[should_panic]
    fn mismatched_matmul_panics() {
        DMat::zeros(2, 3).matmul(&DMat::zeros(2, 3));
    }

    #[test]
    fn imat_edges_and_degrees() {
        let m = IMat::from_edges(4, &[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(m.edge_count(), 3);
        assert_eq!(m.srcs(0).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(m.dsts(1).collect::<Vec<_>>(), vec![0]);
        assert_eq!(m.dsts(0).count(), 0);
        assert_eq!(m.in_degree(0), 3);
        assert_eq!(m.out_degree(0), 0);
        assert_eq!(m.out_degree(1), 1);
        assert_eq!(m.in_degree(1), 0);
    }

    #[test]
    fn imat_duplicate_insert_counted_once() {
        let mut m = IMat::empty(3);
        m.insert(0, 1);
        m.insert(0, 1);
        assert_eq!(m.edge_count(), 1);
        assert_eq!(m.out_degree(0), 1);
        assert_eq!(m.in_degree(1), 1);
        assert_eq!(m, IMat::from_edges(3, &[(0, 1)]));
    }

    #[test]
    fn imat_transpose_swaps_degrees() {
        let m = IMat::from_edges(5, &[(0, 1), (0, 2), (3, 2), (4, 0)]);
        let t = m.transpose();
        for r in 0..5 {
            assert_eq!(m.out_degree(r), t.in_degree(r), "rank {r}");
            assert_eq!(m.in_degree(r), t.out_degree(r), "rank {r}");
        }
        assert_eq!(t.edge_count(), m.edge_count());
    }

    #[test]
    fn imat_transpose_reverses_edges() {
        let m = IMat::from_edges(3, &[(0, 1), (1, 2)]);
        let t = m.transpose();
        assert!(t.get(1, 0));
        assert!(t.get(2, 1));
        assert!(!t.get(0, 1));
    }

    #[test]
    fn imat_to_dmat_is_zero_one() {
        let m = IMat::from_edges(2, &[(0, 1)]);
        let d = m.to_dmat();
        assert_eq!(d.get(0, 1), 1.0);
        assert_eq!(d.get(1, 0), 0.0);
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        IMat::from_edges(3, &[(1, 1)]);
    }
}
