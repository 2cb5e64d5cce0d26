//! Local field storage with ghost cells, and a sequential reference.
//!
//! The numerical side of the case study: each process owns a
//! `(width+2)×(height+2)` array (owned cells plus a one-deep ghost ring,
//! Fig. 8.1). A sweep computes the Jacobi update over owned cells reading
//! ghosts where needed; border extraction/injection moves the cells that
//! neighbouring processes need. Tests verify that the distributed
//! computation reproduces the sequential reference exactly, which is what
//! lets the timing experiments claim they time a *correct* program.

use crate::decomp::{Decomposition, LocalBlock, Side};
use hpm_bsplib::mem::{f64s, write_f64s};

/// A process-local field with a one-deep ghost ring.
#[derive(Debug, Clone)]
pub struct LocalField {
    pub block: LocalBlock,
    /// Row-major `(height+2) × (width+2)` storage, generation A.
    cur: Vec<f64>,
    /// Generation B.
    next: Vec<f64>,
}

impl LocalField {
    /// Stride of the padded array.
    fn stride(&self) -> usize {
        self.block.width + 2
    }

    /// Creates the local portion of a global field defined by `f(x, y)`
    /// over the `n×n` grid (zero outside — fixed boundary).
    pub fn init(
        decomp: &Decomposition,
        rank: usize,
        f: impl Fn(usize, usize) -> f64,
    ) -> LocalField {
        let block = decomp.block(rank);
        // Global offset of this block.
        let off = |n: usize, parts: usize, idx: usize| -> usize {
            (0..idx)
                .map(|k| n / parts + usize::from(k < n % parts))
                .sum()
        };
        let x0 = off(decomp.n, decomp.px, block.gx);
        let y0 = off(decomp.n, decomp.py, block.gy);
        let stride = block.width + 2;
        let mut cur = vec![0.0; stride * (block.height + 2)];
        for ly in 0..block.height {
            for lx in 0..block.width {
                cur[(ly + 1) * stride + lx + 1] = f(x0 + lx, y0 + ly);
            }
        }
        let next = cur.clone();
        LocalField { block, cur, next }
    }

    /// Owned cell value (local coordinates).
    pub fn get(&self, lx: usize, ly: usize) -> f64 {
        self.cur[(ly + 1) * self.stride() + lx + 1]
    }

    /// One Jacobi sweep over all owned cells (ghosts already in place).
    ///
    /// Each row is walked as five equal-length slices — the rows above and
    /// below, the row itself shifted left and right, and the output — so
    /// the loop carries no bounds checks and vectorises. The summation
    /// order `((up + down) + left) + right` is part of the contract: the
    /// result is bitwise that of the indexed formula.
    pub fn sweep(&mut self) {
        let s = self.stride();
        let w = self.block.width;
        for ly in 1..=self.block.height {
            let row = ly * s;
            let up = &self.cur[row - s + 1..][..w];
            let down = &self.cur[row + s + 1..][..w];
            let left = &self.cur[row..][..w];
            let right = &self.cur[row + 2..][..w];
            let out = &mut self.next[row + 1..][..w];
            for ((((o, u), d), l), r) in out.iter_mut().zip(up).zip(down).zip(left).zip(right) {
                *o = 0.25 * (((u + d) + l) + r);
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);
    }

    /// `(first index, stride, length)` of the cells along `side`: the
    /// owned border line, or the ghost line just beyond it.
    fn line(&self, side: Side, ghost: bool) -> (usize, usize, usize) {
        let s = self.stride();
        let (w, h) = (self.block.width, self.block.height);
        let g = usize::from(ghost);
        let (first, step) = match side {
            Side::North => ((1 - g) * s + 1, 1),
            Side::South => ((h + g) * s + 1, 1),
            Side::West => (s + 1 - g, s),
            Side::East => (s + w + g, s),
        };
        (first, step, side.cells(&self.block))
    }

    /// Writes the `side` ∈ {N, S, W, E} border of the owned area into
    /// `out` as little-endian bytes (eight per cell, [`Side::cells`]).
    pub fn extract_border(&self, side: Side, out: &mut [u8]) {
        let (first, step, len) = self.line(side, false);
        let cells = self.cur[first..].iter().step_by(step).take(len);
        write_f64s(cells.copied(), out);
    }

    /// Installs ghost bytes received from the `side` neighbour.
    pub fn install_ghost(&mut self, side: Side, bytes: &[u8]) {
        let (first, step, len) = self.line(side, true);
        let vals = f64s(bytes);
        assert_eq!(vals.len(), len);
        for (cell, v) in self.cur[first..].iter_mut().step_by(step).zip(vals) {
            *cell = v;
        }
    }

    /// Sum of owned cells (for checksums).
    pub fn owned_sum(&self) -> f64 {
        let mut acc = 0.0;
        for ly in 0..self.block.height {
            for lx in 0..self.block.width {
                acc += self.get(lx, ly);
            }
        }
        acc
    }
}

/// Sequential reference: `iters` Jacobi sweeps of the full `n×n` grid with
/// zero (fixed) boundary, initialized by `f`.
pub fn sequential_reference(n: usize, iters: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let s = n + 2;
    let mut cur = vec![0.0; s * s];
    for y in 0..n {
        for x in 0..n {
            cur[(y + 1) * s + x + 1] = f(x, y);
        }
    }
    let mut next = cur.clone();
    for _ in 0..iters {
        for y in 1..=n {
            for x in 1..=n {
                let i = y * s + x;
                next[i] = 0.25 * (cur[i - s] + cur[i + s] + cur[i - 1] + cur[i + 1]);
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    // Strip padding.
    let mut out = Vec::with_capacity(n * n);
    for y in 0..n {
        for x in 0..n {
            out.push(cur[(y + 1) * s + x + 1]);
        }
    }
    out
}

/// Runs the distributed sweep in-process (exchange by direct copies) —
/// the data-correctness harness used by tests and by the BSP program.
pub fn distributed_reference(
    decomp: &Decomposition,
    iters: usize,
    f: impl Fn(usize, usize) -> f64 + Copy,
) -> Vec<LocalField> {
    let p = decomp.p();
    let mut fields: Vec<LocalField> = (0..p).map(|r| LocalField::init(decomp, r, f)).collect();
    for _ in 0..iters {
        // Exchange all borders, then sweep.
        let mut transfers: Vec<(usize, Side, Vec<u8>)> = Vec::new();
        for (r, fld) in fields.iter().enumerate() {
            for (side, peer, cells) in decomp.faces(r) {
                let mut bytes = vec![0u8; 8 * cells];
                fld.extract_border(side, &mut bytes);
                transfers.push((peer, side.opposite(), bytes));
            }
        }
        for (dst, side, bytes) in transfers {
            fields[dst].install_ghost(side, &bytes);
        }
        for fld in fields.iter_mut() {
            fld.sweep();
        }
    }
    fields
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hill(x: usize, y: usize) -> f64 {
        ((x * 31 + y * 17) % 101) as f64 / 101.0
    }

    impl LocalField {
        /// The sweep as written before the row-slice form: five indexed
        /// accesses per cell. Kept as the bitwise oracle of [`sweep`].
        ///
        /// [`sweep`]: LocalField::sweep
        fn sweep_indexed(&mut self) {
            let s = self.stride();
            for ly in 1..=self.block.height {
                for lx in 1..=self.block.width {
                    let i = ly * s + lx;
                    self.next[i] = 0.25
                        * (self.cur[i - s] + self.cur[i + s] + self.cur[i - 1] + self.cur[i + 1]);
                }
            }
            std::mem::swap(&mut self.cur, &mut self.next);
        }
    }

    /// Ragged blocks: 1×n and n×1 strips, a single cell, width ≠ height,
    /// and the uneven blocks of p ∤ n decompositions. Ghost and owned
    /// cells all carry distinct non-trivial values, so every neighbour
    /// term is exercised.
    #[test]
    fn sweep_is_bitwise_the_indexed_formula() {
        let mut blocks: Vec<LocalBlock> =
            [(1, 9), (9, 1), (1, 1), (5, 3), (3, 8), (16, 16), (2, 7)]
                .iter()
                .map(|&(width, height)| LocalBlock {
                    gx: 0,
                    gy: 0,
                    width,
                    height,
                })
                .collect();
        for (n, p) in [(17, 4), (20, 6), (13, 3)] {
            let d = Decomposition::new(n, p);
            blocks.extend((0..p).map(|r| d.block(r)));
        }
        for block in blocks {
            let cells = (block.width + 2) * (block.height + 2);
            let cur: Vec<f64> = (0..cells)
                .map(|i| hill(i, 7 * i) * 1e3 + 1.0 / (i + 3) as f64)
                .collect();
            let mut a = LocalField {
                block,
                next: cur.clone(),
                cur,
            };
            let mut b = a.clone();
            for _ in 0..3 {
                a.sweep();
                b.sweep_indexed();
                let bits = |f: &LocalField| f.cur.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a), bits(&b), "{block:?}");
            }
        }
    }

    /// Every face's border lands in the matching ghost line of the
    /// neighbour, cell for cell, and nowhere else.
    #[test]
    fn borders_and_ghosts_address_the_right_lines() {
        let d = Decomposition::new(11, 6);
        let fld = LocalField::init(&d, 0, |x, y| (100 * y + x) as f64);
        let (w, h) = (fld.block.width, fld.block.height);
        assert_ne!(w, h, "the block must be ragged");
        let s = w + 2;
        for (side, owned, ghost) in [
            (
                Side::North,
                (1..=w).map(|x| s + x).collect::<Vec<_>>(),
                (1..=w).collect::<Vec<_>>(),
            ),
            (
                Side::South,
                (1..=w).map(|x| h * s + x).collect(),
                (1..=w).map(|x| (h + 1) * s + x).collect(),
            ),
            (
                Side::West,
                (1..=h).map(|y| y * s + 1).collect(),
                (1..=h).map(|y| y * s).collect(),
            ),
            (
                Side::East,
                (1..=h).map(|y| y * s + w).collect(),
                (1..=h).map(|y| y * s + w + 1).collect(),
            ),
        ] {
            let mut bytes = vec![0u8; 8 * side.cells(&fld.block)];
            fld.extract_border(side, &mut bytes);
            let want: Vec<f64> = owned.iter().map(|&i| fld.cur[i]).collect();
            assert_eq!(f64s(&bytes).collect::<Vec<_>>(), want, "{side:?} border");
            let mut other = fld.clone();
            other.cur.fill(-1.0);
            other.install_ghost(side, &bytes);
            for (i, v) in other.cur.iter().enumerate() {
                match ghost.iter().position(|&g| g == i) {
                    Some(k) => assert_eq!(*v, want[k], "{side:?} ghost cell {k}"),
                    None => assert_eq!(*v, -1.0, "{side:?} wrote outside its ghost line"),
                }
            }
        }
    }

    fn compare_with_reference(n: usize, p: usize, iters: usize) {
        let d = Decomposition::new(n, p);
        let reference = sequential_reference(n, iters, hill);
        let fields = distributed_reference(&d, iters, hill);
        let off = |nn: usize, parts: usize, idx: usize| -> usize {
            (0..idx)
                .map(|k| nn / parts + usize::from(k < nn % parts))
                .sum()
        };
        for (r, fld) in fields.iter().enumerate() {
            let b = fld.block;
            let x0 = off(n, d.px, b.gx);
            let y0 = off(n, d.py, b.gy);
            for ly in 0..b.height {
                for lx in 0..b.width {
                    let want = reference[(y0 + ly) * n + x0 + lx];
                    let got = fld.get(lx, ly);
                    assert!(
                        (want - got).abs() < 1e-12,
                        "rank {r} cell ({lx},{ly}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_matches_sequential_2x2() {
        compare_with_reference(16, 4, 5);
    }

    #[test]
    fn distributed_matches_sequential_3x2() {
        compare_with_reference(20, 6, 7);
    }

    #[test]
    fn distributed_matches_sequential_uneven_sizes() {
        compare_with_reference(17, 4, 4);
    }

    #[test]
    fn distributed_matches_sequential_single_proc() {
        compare_with_reference(12, 1, 3);
    }

    #[test]
    fn border_round_trip() {
        let d = Decomposition::new(16, 4);
        let fld = LocalField::init(&d, 0, hill);
        let mut east = vec![0u8; fld.block.height * 8];
        fld.extract_border(Side::East, &mut east);
        let mut other = LocalField::init(&d, 1, hill);
        other.install_ghost(Side::West, &east);
        // Rank 1's west ghost must now equal rank 0's east border.
        let s = other.block.width + 2;
        for (k, v) in f64s(&east).enumerate() {
            assert_eq!(other.cur[(k + 1) * s], v);
            assert_eq!(fld.get(fld.block.width - 1, k), v);
        }
    }

    #[test]
    fn sweep_preserves_uniform_field() {
        // All-ones with zero boundary decays at the edges but the centre
        // of a large block stays 1 after one sweep.
        let d = Decomposition::new(32, 1);
        let mut fld = LocalField::init(&d, 0, |_, _| 1.0);
        fld.sweep();
        assert_eq!(fld.get(16, 16), 1.0);
        assert!(fld.get(0, 0) < 1.0);
    }
}
