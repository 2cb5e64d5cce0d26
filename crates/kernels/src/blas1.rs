//! Level-1 BLAS kernels.
//!
//! The vector/vector routines of Figs. 4.5–4.6, written as plain Rust loops
//! over `f64` slices. Operation counts follow the BLAS reference: `axpy`
//! does a multiply and an add per element, `dot` a multiply and an add,
//! `nrm2` a multiply and an add (plus one square root per call), `asum` an
//! absolute value and an add, `iamax` a compare per element.
//!
//! Footprints count the *distinct vectors touched* times the element size,
//! matching the thesis' bytes metric that makes `scal` (one vector) and
//! `axpy` (two vectors) comparable on the memory axis (§4.2).

use crate::kernel::{Kernel, KernelState, KernelTraits};

const ELEM: usize = std::mem::size_of::<f64>();

/// One level-1 BLAS routine: everything but the loop is data.
#[derive(Debug, Clone, Copy)]
pub struct Blas1 {
    name: &'static str,
    traits: KernelTraits,
    /// Distinct vectors the loop touches.
    vectors: usize,
    /// The scalar operand a fresh state starts with.
    a: f64,
    apply: fn(&mut KernelState) -> f64,
}

impl Kernel for Blas1 {
    fn name(&self) -> &'static str {
        self.name
    }
    fn traits(&self) -> KernelTraits {
        self.traits
    }
    fn footprint_bytes(&self, n: usize) -> usize {
        self.vectors * n * ELEM
    }
    fn alloc(&self, n: usize) -> KernelState {
        KernelState {
            a: self.a,
            ..KernelState::with_len(n, n)
        }
    }
    fn apply(&self, s: &mut KernelState) -> f64 {
        (self.apply)(s)
    }
}

/// Traits of a kernel doing `flops` operations and moving `elems`
/// vector elements per element processed.
const fn traits(flops: f64, elems: f64) -> KernelTraits {
    KernelTraits {
        flops_per_element: flops,
        bytes_per_element: elems * ELEM as f64,
    }
}

/// `x ↔ y`: element-wise swap; pure data movement (reads and writes
/// both vectors).
pub const SWAP: Blas1 = Blas1 {
    name: "swap",
    traits: traits(0.0, 4.0),
    vectors: 2,
    a: 1.5,
    apply: |s| {
        for (xi, yi) in s.x.iter_mut().zip(s.y.iter_mut()) {
            std::mem::swap(xi, yi);
        }
        s.x[0] + s.y[s.n - 1]
    },
};

/// `x ← a·x`: scaling in place; one multiply per element, one vector.
/// `a` stays finite over many applications.
pub const SCAL: Blas1 = Blas1 {
    name: "scal",
    traits: traits(1.0, 2.0),
    vectors: 1,
    a: 1.000_000_1,
    apply: |s| {
        let a = s.a;
        for xi in s.x.iter_mut() {
            *xi *= a;
        }
        s.x[s.n / 2]
    },
};

/// `y ← x`: copy; pure data movement over two vectors.
pub const COPY: Blas1 = Blas1 {
    name: "copy",
    traits: traits(0.0, 2.0),
    vectors: 2,
    a: 1.5,
    apply: |s| {
        s.y.copy_from_slice(&s.x);
        s.y[s.n - 1]
    },
};

/// `y ← y + a·x`: the DAXPY kernel of bspbench (§3.1); two
/// flops/element. `a` keeps `y` bounded across 2^24 applications.
pub const AXPY: Blas1 = Blas1 {
    name: "axpy",
    traits: traits(2.0, 3.0),
    vectors: 2,
    a: 1e-9,
    apply: |s| {
        let a = s.a;
        for (yi, xi) in s.y.iter_mut().zip(s.x.iter()) {
            *yi += a * *xi;
        }
        s.y[s.n / 3]
    },
};

/// `dot ← Σ xᵢ·yᵢ`: reduction over two vectors; two flops/element.
pub const DOT: Blas1 = Blas1 {
    name: "dot",
    traits: traits(2.0, 2.0),
    vectors: 2,
    a: 1.5,
    apply: |s| {
        let mut acc = 0.0;
        for (xi, yi) in s.x.iter().zip(s.y.iter()) {
            acc += xi * yi;
        }
        acc
    },
};

/// `nrm2 ← sqrt(Σ xᵢ²)`: Euclidean norm; two flops/element plus a root.
pub const NRM2: Blas1 = Blas1 {
    name: "nrm2",
    traits: traits(2.0, 1.0),
    vectors: 1,
    a: 1.5,
    apply: |s| {
        let mut acc = 0.0;
        for xi in s.x.iter() {
            acc += xi * xi;
        }
        acc.sqrt()
    },
};

/// `asum ← Σ |xᵢ|`: absolute sum; one add plus one abs per element.
pub const ASUM: Blas1 = Blas1 {
    name: "asum",
    traits: traits(2.0, 1.0),
    vectors: 1,
    a: 1.5,
    apply: |s| {
        let mut acc = 0.0;
        for xi in s.x.iter() {
            acc += xi.abs();
        }
        acc
    },
};

/// `iamax ← argmax |xᵢ|`: index of the largest magnitude; one compare
/// per element, counted as one op.
pub const IAMAX: Blas1 = Blas1 {
    name: "iamax",
    traits: traits(1.0, 1.0),
    vectors: 1,
    a: 1.5,
    apply: |s| {
        let mut best = 0usize;
        let mut best_val = f64::NEG_INFINITY;
        for (i, xi) in s.x.iter().enumerate() {
            let v = xi.abs();
            if v > best_val {
                best_val = v;
                best = i;
            }
        }
        best as f64
    },
};

/// All level-1 BLAS kernels in the order of Figs. 4.5–4.6.
pub const SUITE: [Blas1; 8] = [SWAP, SCAL, COPY, AXPY, DOT, NRM2, ASUM, IAMAX];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_computes_correctly() {
        let k = AXPY;
        let mut s = KernelState {
            n: 3,
            x: vec![1.0, 2.0, 3.0],
            y: vec![10.0, 20.0, 30.0],
            a: 2.0,
        };
        k.apply(&mut s);
        assert_eq!(s.y, vec![12.0, 24.0, 36.0]);
    }

    #[test]
    fn dot_known_value() {
        let k = DOT;
        let mut s = KernelState {
            n: 3,
            x: vec![1.0, 2.0, 3.0],
            y: vec![4.0, 5.0, 6.0],
            a: 0.0,
        };
        assert_eq!(k.apply(&mut s), 32.0);
    }

    #[test]
    fn nrm2_known_value() {
        let k = NRM2;
        let mut s = KernelState {
            n: 2,
            x: vec![3.0, 4.0],
            y: vec![],
            a: 0.0,
        };
        assert!((k.apply(&mut s) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn asum_handles_negatives() {
        let k = ASUM;
        let mut s = KernelState {
            n: 3,
            x: vec![-1.0, 2.0, -3.0],
            y: vec![],
            a: 0.0,
        };
        assert_eq!(k.apply(&mut s), 6.0);
    }

    #[test]
    fn iamax_finds_largest_magnitude() {
        let k = IAMAX;
        let mut s = KernelState {
            n: 4,
            x: vec![1.0, -9.0, 3.0, 8.0],
            y: vec![],
            a: 0.0,
        };
        assert_eq!(k.apply(&mut s), 1.0);
    }

    #[test]
    fn swap_round_trips() {
        let k = SWAP;
        let mut s = k.alloc(16);
        let (x0, y0) = (s.x.clone(), s.y.clone());
        k.apply(&mut s);
        assert_eq!(s.x, y0);
        k.apply(&mut s);
        assert_eq!(s.x, x0);
    }

    #[test]
    fn copy_duplicates() {
        let k = COPY;
        let mut s = k.alloc(16);
        k.apply(&mut s);
        assert_eq!(s.x, s.y);
    }

    #[test]
    fn scal_scales() {
        let k = SCAL;
        let mut s = KernelState {
            n: 2,
            x: vec![2.0, 4.0],
            y: vec![],
            a: 0.5,
        };
        k.apply(&mut s);
        assert_eq!(s.x, vec![1.0, 2.0]);
    }

    #[test]
    fn footprints_reflect_vector_counts() {
        assert_eq!(SCAL.footprint_bytes(1000), 8000);
        assert_eq!(AXPY.footprint_bytes(1000), 16000);
        assert_eq!(SWAP.footprint_bytes(1000), 16000);
        assert_eq!(NRM2.footprint_bytes(1000), 8000);
    }

    #[test]
    fn repeated_axpy_stays_finite() {
        let k = AXPY;
        let mut s = k.alloc(64);
        for _ in 0..100_000 {
            k.apply(&mut s);
        }
        assert!(s.y.iter().all(|v| v.is_finite()));
    }
}
