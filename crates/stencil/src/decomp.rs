//! Domain decomposition (§8.2).
//!
//! The global `N×N` grid is block-decomposed over a near-square `px×py`
//! process grid. Every process owns a rectangular block plus a ghost ring
//! one cell deep (or `w` deep for the §8.6 shadow-region variant); border
//! cells must reach the face neighbours each iteration.

/// The process-grid decomposition of a square domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    /// Global grid side (interior cells).
    pub n: usize,
    /// Process grid columns.
    pub px: usize,
    /// Process grid rows.
    pub py: usize,
}

/// One process' block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalBlock {
    /// Position in the process grid.
    pub gx: usize,
    pub gy: usize,
    /// Owned cells in each dimension.
    pub width: usize,
    pub height: usize,
}

impl LocalBlock {
    /// Owned cell count.
    pub fn cells(&self) -> usize {
        self.width * self.height
    }
}

/// Face neighbours of a block (ranks), in N/S/W/E order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Neighbours {
    pub north: Option<usize>,
    pub south: Option<usize>,
    pub west: Option<usize>,
    pub east: Option<usize>,
}

impl Neighbours {
    /// All present neighbours.
    pub fn iter(&self) -> impl Iterator<Item = usize> {
        [self.north, self.south, self.west, self.east]
            .into_iter()
            .flatten()
    }
}

impl Decomposition {
    /// Near-square factorization of `p` processes over an `n×n` grid: the
    /// factor pair `(px, py)` with `px·py = p` minimizing `|px − py|`.
    pub fn new(n: usize, p: usize) -> Decomposition {
        assert!(n >= 4, "grid too small");
        assert!(p >= 1, "need at least one process");
        let mut best: (usize, usize) = (1, p);
        for px in 1..=p {
            if p.is_multiple_of(px) {
                let py = p / px;
                if px.abs_diff(py) < best.0.abs_diff(best.1) {
                    best = (px, py);
                }
            }
        }
        let (px, py) = best;
        assert!(
            n / px >= 2 && n / py >= 2,
            "blocks would be thinner than two cells: {n} over {px}x{py}"
        );
        Decomposition { n, px, py }
    }

    /// Total process count.
    pub fn p(&self) -> usize {
        self.px * self.py
    }

    /// The block of a rank (row-major rank → (gx, gy); remainder cells go
    /// to the lower-indexed blocks).
    pub fn block(&self, rank: usize) -> LocalBlock {
        assert!(rank < self.p(), "rank out of range");
        let gx = rank % self.px;
        let gy = rank / self.px;
        let split = |n: usize, parts: usize, idx: usize| -> usize {
            n / parts + usize::from(idx < n % parts)
        };
        LocalBlock {
            gx,
            gy,
            width: split(self.n, self.px, gx),
            height: split(self.n, self.py, gy),
        }
    }

    /// Face neighbours of a rank.
    pub fn neighbours(&self, rank: usize) -> Neighbours {
        let gx = rank % self.px;
        let gy = rank / self.px;
        Neighbours {
            north: (gy > 0).then(|| rank - self.px),
            south: (gy + 1 < self.py).then(|| rank + self.px),
            west: (gx > 0).then(|| rank - 1),
            east: (gx + 1 < self.px).then(|| rank + 1),
        }
    }

    /// Bytes exchanged with one horizontal (N/S) neighbour per iteration
    /// with ghost width `w`: `w` rows of the block width.
    pub fn ns_exchange_bytes(&self, rank: usize, w: usize) -> u64 {
        (self.block(rank).width * w * 8) as u64
    }

    /// Bytes exchanged with one vertical (W/E) neighbour per iteration.
    pub fn we_exchange_bytes(&self, rank: usize, w: usize) -> u64 {
        (self.block(rank).height * w * 8) as u64
    }

    /// The 17-region split of Fig. 8.2 for a block: cell counts for the
    /// outer ring's 4 corners and 4 edges, the inner ring's 8 segments,
    /// and the interior. Regions are computed outside-in so communication
    /// can start as early as possible.
    pub fn regions(&self, rank: usize) -> Regions {
        let b = self.block(rank);
        let ring = |width: usize, height: usize| -> (usize, usize, usize) {
            // (corner cells total, horizontal edge cells, vertical edge cells)
            if width < 2 || height < 2 {
                return (width * height, 0, 0);
            }
            (4, 2 * width.saturating_sub(2), 2 * height.saturating_sub(2))
        };
        let (c1, h1, v1) = ring(b.width, b.height);
        let inner_w = b.width.saturating_sub(2);
        let inner_h = b.height.saturating_sub(2);
        let (c2, h2, v2) = ring(inner_w, inner_h);
        let outer = c1 + h1 + v1;
        let inner = c2 + h2 + v2;
        let interior = b.cells().saturating_sub(outer + inner);
        Regions {
            outer_corners: c1,
            outer_edges: h1 + v1,
            inner_ring: inner,
            interior,
        }
    }
}

/// Cell counts of the Fig. 8.2 region groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Regions {
    /// The 4 outer corner cells.
    pub outer_corners: usize,
    /// The 4 outer edge strips (excluding corners).
    pub outer_edges: usize,
    /// The 8 inner-ring segments.
    pub inner_ring: usize,
    /// The single interior region.
    pub interior: usize,
}

impl Regions {
    /// All owned cells.
    pub fn total(&self) -> usize {
        self.outer_corners + self.outer_edges + self.inner_ring + self.interior
    }

    /// Cells that must be computed before communication can start (the
    /// outer ring holds the values the neighbours need).
    pub fn pre_comm(&self) -> usize {
        self.outer_corners + self.outer_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_square_factorization() {
        assert_eq!(
            Decomposition::new(1024, 16),
            Decomposition {
                n: 1024,
                px: 4,
                py: 4
            }
        );
        let d = Decomposition::new(1024, 12);
        assert!((d.px, d.py) == (3, 4) || (d.px, d.py) == (4, 3));
        let d2 = Decomposition::new(1024, 7);
        assert_eq!(d2.px * d2.py, 7);
    }

    #[test]
    fn blocks_partition_the_grid() {
        let d = Decomposition::new(100, 6);
        let total: usize = (0..6).map(|r| d.block(r).cells()).sum();
        assert_eq!(total, 100 * 100);
    }

    #[test]
    fn remainder_goes_to_low_ranks() {
        let d = Decomposition::new(10, 4); // 2x2 grid, 10 = 5+5
        assert_eq!(d.block(0).width, 5);
        let d3 = Decomposition::new(11, 4);
        // 11 over 2: 6 and 5.
        assert_eq!(d3.block(0).width, 6);
        assert_eq!(d3.block(1).width, 5);
    }

    #[test]
    fn corner_block_has_two_neighbours() {
        let d = Decomposition::new(64, 9); // 3x3
        let n = d.neighbours(0);
        assert_eq!(n.north, None);
        assert_eq!(n.west, None);
        assert_eq!(n.south, Some(3));
        assert_eq!(n.east, Some(1));
        assert_eq!(n.iter().count(), 2);
    }

    #[test]
    fn centre_block_has_four_neighbours() {
        let d = Decomposition::new(64, 9);
        let n = d.neighbours(4);
        assert_eq!(n.iter().count(), 4);
        assert_eq!(n.north, Some(1));
        assert_eq!(n.south, Some(7));
        assert_eq!(n.west, Some(3));
        assert_eq!(n.east, Some(5));
    }

    #[test]
    fn neighbour_relation_is_symmetric() {
        let d = Decomposition::new(128, 12);
        for r in 0..12 {
            let n = d.neighbours(r);
            if let Some(e) = n.east {
                assert_eq!(d.neighbours(e).west, Some(r));
            }
            if let Some(s) = n.south {
                assert_eq!(d.neighbours(s).north, Some(r));
            }
        }
    }

    #[test]
    fn regions_sum_to_block() {
        let d = Decomposition::new(128, 4);
        for r in 0..4 {
            let regions = d.regions(r);
            assert_eq!(regions.total(), d.block(r).cells(), "rank {r}");
            assert_eq!(regions.outer_corners, 4);
            assert!(regions.interior > 0);
        }
    }

    #[test]
    fn exchange_bytes_scale_with_ghost_width() {
        let d = Decomposition::new(256, 16);
        assert_eq!(d.ns_exchange_bytes(0, 2), 2 * d.ns_exchange_bytes(0, 1));
        assert_eq!(d.we_exchange_bytes(0, 3), 3 * d.we_exchange_bytes(0, 1));
    }

    #[test]
    #[should_panic]
    fn too_thin_blocks_rejected() {
        Decomposition::new(8, 64);
    }
}
