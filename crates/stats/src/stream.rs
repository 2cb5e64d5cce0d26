//! The batched jitter engine's number factory: a counter-based uniform
//! stream and tabulated multiplier quantile functions.
//!
//! The scalar jitter path ([`crate::rng::JitterModel::draw`]) costs one
//! `StdRng` step plus transcendental calls per draw — fine for occasional
//! draws, a hard floor for the simulator's hot loop, where a single
//! barrier repetition at p = 64 consumes ~2000 multipliers. This module
//! provides the batch alternative:
//!
//! * [`SplitMix64`] — a counter-based generator (`state += γ; mix(state)`)
//!   seedable per `(seed, label, rep)`. Being counter-based, it has no
//!   sequential carry chain: consecutive outputs are independent mixes of
//!   consecutive counters, which is exactly what a batch fill wants.
//! * [`norminv`] — the standard normal quantile function by Acklam's
//!   rational approximation (relative error < 1.2e-9). The central branch
//!   covers 95.15 % of the unit interval with ~20 branch-free flops; only
//!   deep tails fall back to `ln`/`sqrt`.
//! * [`fast_exp`] — `exp` as exponent-bit assembly plus a degree-7
//!   polynomial (relative error < 1e-8), pure arithmetic, no libm.
//! * [`QuantileTable`] — the composition `u ↦ exp(σ·Φ⁻¹(u))` (or the
//!   Pareto quantile function) tabulated once per parameter and served
//!   by interpolation, one draw at a time ([`QuantileTable::mult`]) or a
//!   block of rows at a time ([`QuantileTable::fill_rows`], what the
//!   hot-path `JitterBuf` fill runs). Where the CPU has AVX-512DQ/VL,
//!   eight-lane and one-lane fills alike run a vector kernel: a single
//!   stream is eight virtual lanes of itself, each row eight draws on,
//!   because a counter-based draw is a function of its index. The exact
//!   composition survives as the test-only `NormalSource` the
//!   equivalence tests compare against.
//!
//! One uniform becomes one normal (inverse-CDF), so there is no discarded
//! Box-Muller branch to regret; the classic both-outputs Box-Muller trick
//! remains in the scalar `JitterModel::draw` fallback, where calls arrive
//! one at a time and the second output is cached for the next call. The
//! approximation error of `norminv`/`fast_exp` is orders of magnitude
//! below sampling noise; the statistical-equivalence tests (here and in
//! `hpm-simnet`) pin the old and new streams to the same distribution.

use std::sync::{Mutex, PoisonError};

/// The SplitMix64 finalizer: a bijective avalanche mix of one word.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Weyl increment of the SplitMix64 counter (2⁶⁴/φ, odd).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Counter-based uniform stream: `next` advances a Weyl counter and
/// returns its mix. The same `(seed, label, rep)` always yields the same
/// stream; distinct parts yield uncorrelated streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream keyed by a bare seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: mix64(seed ^ GOLDEN),
        }
    }

    /// Stream keyed by `(seed, label, rep)` — the addressing scheme of
    /// the batched jitter engine: `label` names the consumer (barrier
    /// executor, exchange resolver, microbenchmark unit, …) and `rep`
    /// its repetition/superstep index, so every work item owns an
    /// independent stream derived from its coordinates alone.
    pub fn from_parts(seed: u64, label: u64, rep: u64) -> SplitMix64 {
        let mut s = seed;
        s = mix64(s.wrapping_add(GOLDEN).wrapping_add(label));
        s = mix64(s.wrapping_add(GOLDEN).wrapping_add(rep));
        SplitMix64 { state: s }
    }

    /// The next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// Uniform in the open interval (0, 1): cell midpoints `(k + ½)·2⁻⁵²`,
    /// so neither endpoint can occur and `norminv` stays finite.
    #[inline]
    pub fn next_unit_open(&mut self) -> f64 {
        unit_open(self.next_u64())
    }

    /// The stream `n` draws further on, in O(1): the state is a Weyl
    /// counter, so skipping is one multiply-add.
    #[inline]
    pub fn seek(self, n: u64) -> SplitMix64 {
        SplitMix64 {
            state: self.state.wrapping_add(n.wrapping_mul(GOLDEN)),
        }
    }
}

/// Maps 64 uniform bits to [`SplitMix64::next_unit_open`]'s value.
#[inline]
fn unit_open(x: u64) -> f64 {
    ((x >> 12) as f64 + 0.5) * (1.0 / (1u64 << 52) as f64)
}

// Acklam's rational approximation of the standard normal quantile
// function (public-domain coefficients). Relative error < 1.15e-9 over
// the whole open unit interval.
const A: [f64; 6] = [
    -3.969_683_028_665_376e1,
    2.209_460_984_245_205e2,
    -2.759_285_104_469_687e2,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e1,
    2.506_628_277_459_239,
];
const B: [f64; 5] = [
    -5.447_609_879_822_406e1,
    1.615_858_368_580_409e2,
    -1.556_989_798_598_866e2,
    6.680_131_188_771_972e1,
    -1.328_068_155_288_572e1,
];
const C: [f64; 6] = [
    -7.784_894_002_430_293e-3,
    -3.223_964_580_411_365e-1,
    -2.400_758_277_161_838,
    -2.549_732_539_343_734,
    4.374_664_141_464_968,
    2.938_163_982_698_783,
];
const D: [f64; 4] = [
    7.784_695_709_041_462e-3,
    3.224_671_290_700_398e-1,
    2.445_134_137_142_996,
    3.754_408_661_907_416,
];

/// Lower break point of the central branch; the central region covers
/// `p ∈ [0.02425, 0.97575]` — 95.15 % of all draws.
const P_LOW: f64 = 0.02425;

/// Standard normal quantile (inverse CDF) by Acklam's rational
/// approximation. `p` must lie in the open interval (0, 1).
///
/// The central branch is pure rational arithmetic (bit-identical on any
/// IEEE-754 platform); the two tail branches evaluate `ln`/`sqrt`
/// through libm, which is why absolute golden hashes over jittered
/// streams stay gated to the CI platform.
#[inline]
pub fn norminv(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "norminv domain is (0,1), got {p}");
    if p < P_LOW {
        // Lower tail.
        tail_quantile(p.ln())
    } else if p <= 1.0 - P_LOW {
        // Central region: odd rational in q = p − ½.
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        // Upper tail, by symmetry.
        -tail_quantile((1.0 - p).ln())
    }
}

/// The lower tail branch of [`norminv`] after its `ln`: the quantile at
/// `p` from `l = ln p`. Rational in `q = √(−2l)`.
#[inline]
fn tail_quantile(l: f64) -> f64 {
    let q = (-2.0 * l).sqrt();
    (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
        / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
}

/// `exp(x)` as pure arithmetic: split off the power of two
/// (`x·log₂e = k + f`), evaluate `e^(f·ln2)` by a degree-7 polynomial and
/// assemble `2^k` directly into the exponent bits. Relative error < 1e-8
/// for `|x| ≤ 700`; no libm, so the result is bit-identical across
/// platforms.
#[inline]
pub fn fast_exp(x: f64) -> f64 {
    debug_assert!(x.abs() <= 700.0, "fast_exp domain |x| <= 700, got {x}");
    let y = x * std::f64::consts::LOG2_E;
    // Round to nearest by the shifter trick: adding 1.5·2⁵² pushes the
    // fraction out of the mantissa. Pure FP (baseline x86-64 lowers
    // `f64::round` to a libm call — several times the cost of the whole
    // remaining pipeline) and exact for |y| < 2⁵¹.
    const SHIFTER: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    let k = (y + SHIFTER) - SHIFTER;
    let t = (y - k) * std::f64::consts::LN_2; // |t| ≤ ln2/2 ≈ 0.3466
    let poly = 1.0
        + t * (1.0
            + t * (0.5
                + t * (1.0 / 6.0
                    + t * (1.0 / 24.0
                        + t * (1.0 / 120.0 + t * (1.0 / 720.0 + t * (1.0 / 5040.0)))))));
    // 2^k via the exponent field; |k| ≤ 1010 keeps it normal.
    poly * f64::from_bits(((1023 + k as i64) as u64) << 52)
}

/// A median-1 multiplier quantile function `u ↦ q(u)` for one fixed
/// parameter, tabulated on a uniform grid and served by linear
/// interpolation: the log-normal `exp(σ·Φ⁻¹(u))` of the jitter engine
/// ([`QuantileTable::lognormal`]) or the Pareto `(2(1−u))^(−1/α)` of
/// the straggler model ([`QuantileTable::pareto`]).
///
/// A draw's cost is otherwise the exact function's latency chain
/// (`norminv` → `fast_exp`: ~50 flops with two divisions). The parameter
/// is fixed for a whole fill — in practice for a whole scratch lifetime —
/// so the function collapses into one table built once and read at a few
/// flops per draw. Draws landing within `margin` cells of either end,
/// where the function's curvature makes a linear cell sloppy, take the
/// exact path instead, so tails keep full accuracy; the
/// statistical-equivalence tests compare the table-served stream against
/// the exact one directly.
#[derive(Debug, Clone)]
pub struct QuantileTable {
    /// σ or α.
    param: f64,
    /// Which quantile function `param` parameterises.
    shape: Shape,
    /// Cells at each end served by the exact function.
    margin: usize,
    /// `knots[k] = q(k / CELLS)`; the first and last `margin` knots are
    /// NaN: [`QuantileTable::mult`] never reads them, and a cell of
    /// [`QuantileTable::fill_rows`] that did and missed its patch-up
    /// would show.
    knots: Box<Knots>,
}

/// The two quantile functions a [`QuantileTable`] tabulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `u ↦ exp(σ·Φ⁻¹(u))`.
    LogNormal,
    /// `u ↦ (2(1−u))^(−1/α)`.
    Pareto,
}

/// Grid cells of a [`QuantileTable`] (16 KiB of knots).
const CELLS: usize = 2048;

/// Per [`Shape`], the parameter bits and knots of the last table built.
/// A table is a pure function of its shape and parameter, and every
/// `measure_*` call builds its workers' tables anew (about 30 µs each),
/// so a rebuild for the same parameter copies the knots instead. The
/// cache is a static, not a heap object: a build allocates what it
/// always did, its one `Box`.
static LAST_KNOTS: Mutex<[Option<(u64, Knots)>; 2]> = Mutex::new([None, None]);

/// A [`QuantileTable`]'s knot grid.
type Knots = [f64; CELLS + 1];

/// Slow-margin cells of [`QuantileTable::lognormal`] at each end.
const LOGNORMAL_MARGIN: usize = 32;

// The log-normal margin lies inside `norminv`'s tail branches, so a
// slow-margin draw's exact value is `tail_quantile` of one `ln`.
const _: () = assert!((LOGNORMAL_MARGIN as f64) < P_LOW * CELLS as f64);

/// [`QuantileTable::pareto`] takes tail exponents above this floor only.
pub(crate) const MIN_PARETO_ALPHA: f64 = 0.05;

/// Lane width of the [`QuantileTable::fill_rows`] vector kernel, which
/// serves both eight-lane fills and single-lane ones (as eight virtual
/// lanes of the one stream). The scalar kernel is compiled for this
/// width and for one lane; any other width runs it with the width in a
/// register.
pub const WIDE_LANES: usize = 8;

/// Cells per [`QuantileTable::fill_rows`] block: 2 KiB of output, still
/// in L1 when the block's slow-margin draws are patched.
const FILL_BLOCK: usize = 256;

impl QuantileTable {
    /// The log-normal multiplier `u ↦ exp(σ·Φ⁻¹(u))` for `sigma` (must
    /// be positive). The slow margin is 32 cells, ≈ 3 % of the mass: the
    /// worst curvature left to the table (|z| ≈ 2.58) interpolates to
    /// better than 1e-3 in z.
    pub fn lognormal(sigma: f64) -> QuantileTable {
        assert!(sigma > 0.0, "table is for active jitter only");
        QuantileTable::build(sigma, Shape::LogNormal, LOGNORMAL_MARGIN)
    }

    /// The Pareto multiplier `u ↦ (2(1−u))^(−1/α)`, median 1, for tail
    /// exponent `alpha` (must exceed 0.05 so the exact path stays inside
    /// [`fast_exp`]'s domain) — the heavy-tailed sibling of the
    /// log-normal for straggler modeling.
    ///
    /// A Pareto tail with exponent α has survival `P(X > x) ∝ x^(−α)`:
    /// unlike the log-normal, whose tail thins super-polynomially, a
    /// small fraction of draws is *much* larger than the median — the
    /// empirical signature of stragglers. Normalizing the scale so the
    /// median is 1 keeps the multiplier convention of the jitter engine
    /// (median draw = noise-free value). The minimum multiplier is
    /// `2^(−1/α)` < 1, so the distribution straddles 1 like the
    /// log-normal does.
    ///
    /// The exact path evaluates `exp(−ln(2(1−u))/α)` via [`fast_exp`]
    /// and libm `ln` — like the `norminv` tail branches, `ln` keeps
    /// absolute golden hashes gated to the CI platform. The upper tail
    /// diverges as `u → 1`, so the slow margin is twice the log-normal's.
    pub fn pareto(alpha: f64) -> QuantileTable {
        assert!(
            alpha.is_finite() && alpha > MIN_PARETO_ALPHA,
            "pareto tail exponent must be finite and > {MIN_PARETO_ALPHA}, got {alpha}"
        );
        QuantileTable::build(alpha, Shape::Pareto, 64)
    }

    fn build(param: f64, shape: Shape, margin: usize) -> QuantileTable {
        assert!(margin <= CELLS / 2, "margins meet in the middle at most");
        let mut table = QuantileTable {
            param,
            shape,
            margin,
            knots: Box::new([f64::NAN; CELLS + 1]),
        };
        let lock = || LAST_KNOTS.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((bits, knots)) = &lock()[shape as usize] {
            if *bits == param.to_bits() {
                *table.knots = *knots;
                return table;
            }
        }
        for k in margin..=CELLS - margin {
            table.knots[k] = table.exact(k as f64 / CELLS as f64);
        }
        lock()[shape as usize] = Some((param.to_bits(), *table.knots));
        table
    }

    /// The quantile function at `u`, evaluated directly.
    #[inline]
    fn exact(&self, u: f64) -> f64 {
        match self.shape {
            Shape::LogNormal => fast_exp(self.param * norminv(u)),
            Shape::Pareto => fast_exp(-(2.0 * (1.0 - u)).ln() / self.param),
        }
    }

    /// The exact function's one `ln` at a slow-margin draw `u`, and the
    /// sign (`±0.0`) [`QuantileTable::exact_from_log`] gives its value.
    #[inline]
    fn slow_log(&self, u: f64) -> (f64, f64) {
        match self.shape {
            // Both tails through one `ln` call, the tail picked by a
            // select rather than a branch on a coin flip.
            Shape::LogNormal => {
                let upper = u >= 0.5;
                let p = if upper { 1.0 - u } else { u };
                (p.ln(), if upper { -0.0 } else { 0.0 })
            }
            Shape::Pareto => ((2.0 * (1.0 - u)).ln(), -0.0),
        }
    }

    /// The rest of the exact function: `exact(u)` from
    /// `(l, sign) = slow_log(u)`, bit for bit, for any slow-margin `u`.
    /// [`QuantileTable::exact_from_log_x4`] is this on four draws at once.
    #[inline]
    fn exact_from_log(&self, l: f64, sign: f64) -> f64 {
        let flip = |x: f64| f64::from_bits(x.to_bits() ^ sign.to_bits());
        match self.shape {
            Shape::LogNormal => fast_exp(self.param * flip(tail_quantile(l))),
            Shape::Pareto => fast_exp(flip(l) / self.param),
        }
    }

    /// The σ or α this table was built for.
    pub fn param(&self) -> f64 {
        self.param
    }

    /// Whether cell `k` is interpolated (else the exact path serves it):
    /// `margin ≤ k < CELLS − margin` as one unsigned comparison.
    #[inline]
    fn tabulated(&self, k: usize) -> bool {
        k.wrapping_sub(self.margin) < CELLS - 2 * self.margin
    }

    /// The multiplier at quantile `u ∈ (0, 1)`.
    #[inline]
    pub fn mult(&self, u: f64) -> f64 {
        let t = u * CELLS as f64;
        let k = t as usize;
        if !self.tabulated(k) {
            return self.exact(u);
        }
        let a = self.knots[k];
        let b = self.knots[k + 1];
        a + (t - k as f64) * (b - a)
    }

    /// Fills `out` — whole rows of `streams.len()` cells — so that the
    /// cell of row `r`, lane `l` is `mult` of draw `first_row + r` of
    /// `streams[l]`: bit for bit what
    /// `streams[l].seek(first_row + r).next_unit_open()` pushed through
    /// [`QuantileTable::mult`] gives, in row-major order.
    ///
    /// The streams are counter-based, so no lane waits for its previous
    /// draw: a row's cells are independent mixes, stored contiguously.
    /// The cell index is read off the integer bits — the draw is
    /// `u = (m + ½)·2⁻⁵²` with `m = x >> 12`, `u·CELLS` is exact, and its
    /// floor is `m >> 41 = x >> 53` — and the lerp is evaluated for every
    /// cell, NaN knots included, so the loop has no data-dependent
    /// branch. Cells whose index lies in the slow margin are noted and,
    /// once the block is done, recomputed from the counter by the exact
    /// function, as `mult` would have: one scalar `ln` each, the rest in
    /// batches, four cells at a time where the CPU has AVX-512DQ/VL.
    ///
    /// At [`WIDE_LANES`] on an `x86_64` CPU with AVX-512DQ/VL the rows
    /// are filled by a 256-bit vector kernel with the same cell values
    /// (see DESIGN.md, "The jitter engine"). A single lane runs the same
    /// kernel over eight virtual lanes of its one stream: lane `j` is the
    /// stream sought to draw `first_row + j`, and each row steps eight
    /// draws, so cell `(r, j)` is draw `first_row + 8r + j` and the rows
    /// come out in draw order. The scalar kernel fills the last
    /// `out.len() mod 8` cells, or all of them where the vector kernel
    /// does not run.
    pub fn fill_rows(&self, streams: &[SplitMix64], first_row: u64, out: &mut [f64]) {
        if let Ok(one) = <&[SplitMix64; 1]>::try_from(streams) {
            let lanes = std::array::from_fn(|j| one[0].seek(first_row.wrapping_add(j as u64)));
            let mut body = out.len() - out.len() % WIDE_LANES;
            if !self.fill_rows_vector(&lanes, 0, WIDE_LANES as u64, &mut out[..body]) {
                body = 0;
            }
            let tail_row = first_row.wrapping_add(body as u64);
            self.fill_rows_of(one, tail_row, 1, &mut out[body..]);
        } else if let Ok(wide) = <&[SplitMix64; WIDE_LANES]>::try_from(streams) {
            if !self.fill_rows_vector(wide, first_row, 1, out) {
                self.fill_rows_of(wide, first_row, 1, out);
            }
        } else {
            self.fill_rows_of(streams, first_row, 1, out);
        }
    }

    /// [`QuantileTable::fill_rows`] proper, with rows `stride` draws
    /// apart: the cell of row `r`, lane `l` is draw
    /// `(first_row + r)·stride` of `streams[l]`. Inlined into each
    /// caller so a width known there is a constant here.
    #[inline(always)]
    fn fill_rows_of(&self, streams: &[SplitMix64], first_row: u64, stride: u64, out: &mut [f64]) {
        let lanes = streams.len();
        assert!(
            lanes >= 1 && out.len().is_multiple_of(lanes),
            "whole rows of at least one lane"
        );
        let block_rows = (FILL_BLOCK / lanes).max(1);
        let mut stack = [0usize; FILL_BLOCK];
        let mut heap = Vec::new();
        let slow: &mut [usize] = if lanes <= FILL_BLOCK {
            &mut stack
        } else {
            heap.resize(lanes, 0);
            &mut heap
        };
        // The counter of the current row's draw, less the lane's state:
        // a running sum, one add per row.
        let delta = stride.wrapping_mul(GOLDEN);
        let mut step = first_row.wrapping_mul(delta).wrapping_add(GOLDEN);
        let mut row = first_row;
        let mut patch = Patch::new();
        for block in out.chunks_mut(block_rows * lanes) {
            let mut n_slow = 0;
            for (r, cells) in block.chunks_exact_mut(lanes).enumerate() {
                for (l, (cell, stream)) in cells.iter_mut().zip(streams).enumerate() {
                    let x = mix64(stream.state.wrapping_add(step));
                    let k = (x >> 53) as usize;
                    let t = unit_open(x) * CELLS as f64;
                    let (a, b) = (self.knots[k], self.knots[k + 1]);
                    *cell = a + (t - k as f64) * (b - a);
                    slow[n_slow] = r * lanes + l;
                    n_slow += usize::from(!self.tabulated(k));
                }
                step = step.wrapping_add(delta);
            }
            for &i in &slow[..n_slow] {
                let draw = row.wrapping_add((i / lanes) as u64).wrapping_mul(stride);
                let u = streams[i % lanes].seek(draw).next_unit_open();
                patch.push(self, block, i, u);
            }
            patch.flush(self, block);
            row = row.wrapping_add(block_rows as u64);
        }
    }

    /// Runs [`QuantileTable::fill_rows_x8`] if this CPU has its
    /// features; `false`, with `out` untouched, if it does not.
    #[inline]
    fn fill_rows_vector(
        &self,
        streams: &[SplitMix64; WIDE_LANES],
        first_row: u64,
        stride: u64,
        out: &mut [f64],
    ) -> bool {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512dq") && is_x86_feature_detected!("avx512vl") {
            // SAFETY: the kernel's one requirement is that the CPU has
            // AVX-512DQ and AVX-512VL, detected on the line above.
            unsafe { self.fill_rows_x8(streams, first_row, stride, out) };
            return true;
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (streams, first_row, stride, out);
        false
    }

    /// [`QuantileTable::fill_rows_of`] at [`WIDE_LANES`] on 256-bit
    /// registers: each row is two halves of four lanes, each half's
    /// counters one register that steps `stride·γ` per row. The mix is
    /// [`mix64`] with 64-bit lane multiplies, the cell index is `x >> 53`,
    /// and the lerp fraction is read off the same integer bits,
    /// `((x >> 12) mod 2⁴¹ + ½)·2⁻⁴¹`, which is exactly `t − k`. The lerp
    /// is a separate multiply and add, as in the scalar kernel, so each
    /// cell rounds the same. Slow-margin cells are one bit each in a
    /// per-row mask and are patched after each block.
    ///
    /// 512-bit registers are deliberately not used (DESIGN.md gives the
    /// measurements).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512DQ and AVX-512VL.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512dq,avx512vl")]
    unsafe fn fill_rows_x8(
        &self,
        streams: &[SplitMix64; WIDE_LANES],
        first_row: u64,
        stride: u64,
        out: &mut [f64],
    ) {
        use std::arch::x86_64::*;
        const HALF: usize = WIDE_LANES / 2;
        const BLOCK_ROWS: usize = FILL_BLOCK / WIDE_LANES;
        assert!(
            out.len().is_multiple_of(WIDE_LANES),
            "whole rows of {WIDE_LANES} lanes"
        );
        let splat = |v: u64| _mm256_set1_epi64x(v as i64);
        let half = |h: usize| {
            let s = &streams[h * HALF..][..HALF];
            _mm256_set_epi64x(
                s[3].state as i64,
                s[2].state as i64,
                s[1].state as i64,
                s[0].state as i64,
            )
        };
        let delta = stride.wrapping_mul(GOLDEN);
        let first = splat(first_row.wrapping_mul(delta).wrapping_add(GOLDEN));
        let mut counters = [half(0), half(1)].map(|state| _mm256_add_epi64(state, first));
        let delta = splat(delta);
        let (m1, m2) = (splat(0xBF58_476D_1CE4_E5B9), splat(0x94D0_49BB_1331_11EB));
        let margin = splat(self.margin as u64);
        let served = splat((CELLS - 2 * self.margin) as u64);
        let frac_bits = splat((1 << 41) - 1);
        let (one_half, frac_unit) = (
            _mm256_set1_pd(0.5),
            _mm256_set1_pd(1.0 / (1u64 << 41) as f64),
        );
        let (lo, hi) = (self.knots.as_ptr(), self.knots[1..].as_ptr());
        let mut row = first_row;
        let mut patch = Patch::new();
        for block in out.chunks_mut(FILL_BLOCK) {
            let mut slow = [0u8; BLOCK_ROWS];
            for (r, cells) in block.chunks_exact_mut(WIDE_LANES).enumerate() {
                // Four lanes' cells from their counters; returns their
                // slow-margin bits.
                let half_row = |mut x: __m256i, cells: &mut [f64]| {
                    x = _mm256_xor_si256(x, _mm256_srli_epi64::<30>(x));
                    x = _mm256_mullo_epi64(x, m1);
                    x = _mm256_xor_si256(x, _mm256_srli_epi64::<27>(x));
                    x = _mm256_mullo_epi64(x, m2);
                    x = _mm256_xor_si256(x, _mm256_srli_epi64::<31>(x));
                    let k = _mm256_srli_epi64::<53>(x);
                    let m = _mm256_and_si256(_mm256_srli_epi64::<12>(x), frac_bits);
                    let f =
                        _mm256_mul_pd(_mm256_add_pd(_mm256_cvtepi64_pd(m), one_half), frac_unit);
                    // SAFETY: k = x >> 53 ≤ 2047, so the gathers read
                    // knots k and k + 1 of 2049, and the store writes the
                    // four cells of `cells`.
                    let a = _mm256_i64gather_pd::<8>(lo, k);
                    let b = _mm256_i64gather_pd::<8>(hi, k);
                    let v = _mm256_add_pd(a, _mm256_mul_pd(f, _mm256_sub_pd(b, a)));
                    _mm256_storeu_pd(cells.as_mut_ptr(), v);
                    _mm256_cmpge_epu64_mask(_mm256_sub_epi64(k, margin), served)
                };
                let (left, right) = cells.split_at_mut(HALF);
                slow[r] = half_row(counters[0], left) | half_row(counters[1], right) << HALF;
                counters = counters.map(|c| _mm256_add_epi64(c, delta));
            }
            // Eight row masks read as one word are a bitmap of 64 cells
            // in cell order; walking words, not rows, takes fewer
            // mispredicted branches.
            for (w, rows) in slow.chunks_exact(8).enumerate() {
                let mut cells = u64::from_le_bytes(rows.try_into().expect("eight row masks"));
                while cells != 0 {
                    let i = 64 * w + cells.trailing_zeros() as usize;
                    cells &= cells - 1;
                    let draw = row
                        .wrapping_add((i / WIDE_LANES) as u64)
                        .wrapping_mul(stride);
                    let u = streams[i % WIDE_LANES].seek(draw).next_unit_open();
                    patch.push(self, block, i, u);
                }
            }
            patch.flush(self, block);
            row = row.wrapping_add(BLOCK_ROWS as u64);
        }
    }

    /// [`QuantileTable::exact_from_log`] on the first `n` of `log`/`sign`,
    /// four at a time on 256-bit registers, into `vals`: `sqrt`, both rational
    /// polynomials, the division and [`fast_exp`], each multiply and add
    /// a separate instruction as in the scalar code, so every value
    /// rounds the same.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512DQ and AVX-512VL.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512dq,avx512vl")]
    unsafe fn exact_from_log_x4(
        &self,
        log: &[f64; PATCH],
        sign: &[f64; PATCH],
        n: usize,
        vals: &mut [f64; PATCH],
    ) {
        use std::arch::x86_64::*;
        let splat = |v: f64| _mm256_set1_pd(v);
        let (add, mul) = (
            |a: __m256d, b: __m256d| _mm256_add_pd(a, b),
            |a: __m256d, b: __m256d| _mm256_mul_pd(a, b),
        );
        // Horner's rule, `c[0]·q + c[1]` first, as the scalar code nests.
        let horner = |c: &[f64], q: __m256d| {
            c[1..]
                .iter()
                .fold(splat(c[0]), |acc, &k| add(mul(acc, q), splat(k)))
        };
        let param = splat(self.param);
        let groups = log
            .chunks_exact(4)
            .zip(sign.chunks_exact(4))
            .zip(vals.chunks_exact_mut(4));
        for ((l, s), v) in groups.take(n.div_ceil(4)) {
            // SAFETY: each chunk holds exactly four f64.
            let (l, s) = (_mm256_loadu_pd(l.as_ptr()), _mm256_loadu_pd(s.as_ptr()));
            let x = match self.shape {
                Shape::LogNormal => {
                    let q = _mm256_sqrt_pd(mul(splat(-2.0), l));
                    let num = horner(&C, q);
                    let den = add(mul(horner(&D, q), q), splat(1.0));
                    mul(param, _mm256_xor_pd(_mm256_div_pd(num, den), s))
                }
                Shape::Pareto => _mm256_div_pd(_mm256_xor_pd(l, s), param),
            };
            // fast_exp, step for step.
            let y = mul(x, splat(std::f64::consts::LOG2_E));
            const SHIFTER: f64 = 6_755_399_441_055_744.0;
            let k = _mm256_sub_pd(add(y, splat(SHIFTER)), splat(SHIFTER));
            let t = mul(_mm256_sub_pd(y, k), splat(std::f64::consts::LN_2));
            let mut poly = add(splat(1.0 / 720.0), mul(t, splat(1.0 / 5040.0)));
            for c in [1.0 / 120.0, 1.0 / 24.0, 1.0 / 6.0, 0.5, 1.0, 1.0] {
                poly = add(splat(c), mul(t, poly));
            }
            let bits = _mm256_add_epi64(_mm256_cvttpd_epi64(k), _mm256_set1_epi64x(1023));
            let two_k = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(bits));
            _mm256_storeu_pd(v.as_mut_ptr(), mul(poly, two_k));
        }
    }
}

/// Slow-margin cells per [`Patch`] batch: four vectors of four.
const PATCH: usize = 16;

/// The slow-margin cells of one fill block, batched: a cell's `ln`, the
/// one libm call of its exact value, is taken when it is noted, and the
/// rest of the exact function runs over the noted cells at once (four
/// at a time on AVX-512DQ/VL, else cell by cell) when [`PATCH`] are
/// noted or the block ends. Both fill kernels patch through it.
struct Patch {
    n: usize,
    cell: [usize; PATCH],
    log: [f64; PATCH],
    sign: [f64; PATCH],
}

impl Patch {
    fn new() -> Patch {
        // Lanes past the noted cells compute on a stale `ln` or on this
        // `−1`; their values are discarded.
        Patch {
            n: 0,
            cell: [0; PATCH],
            log: [-1.0; PATCH],
            sign: [0.0; PATCH],
        }
    }

    /// Notes `out[cell]` as the slow-margin draw `u`; patches the batch
    /// when it is full.
    #[inline]
    fn push(&mut self, tab: &QuantileTable, out: &mut [f64], cell: usize, u: f64) {
        (self.log[self.n], self.sign[self.n]) = tab.slow_log(u);
        self.cell[self.n] = cell;
        self.n += 1;
        if self.n == PATCH {
            self.flush(tab, out);
        }
    }

    /// Writes the noted cells' exact values into `out` and empties the
    /// batch.
    fn flush(&mut self, tab: &QuantileTable, out: &mut [f64]) {
        let n = std::mem::take(&mut self.n);
        if n == 0 {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512dq") && is_x86_feature_detected!("avx512vl") {
            let mut vals = [0.0; PATCH];
            // SAFETY: the kernel's one requirement is that the CPU has
            // AVX-512DQ and AVX-512VL, detected on the line above.
            unsafe { tab.exact_from_log_x4(&self.log, &self.sign, n, &mut vals) };
            for (&cell, &v) in self.cell[..n].iter().zip(&vals) {
                out[cell] = v;
            }
            return;
        }
        for k in 0..n {
            out[self.cell[k]] = tab.exact_from_log(self.log[k], self.sign[k]);
        }
    }
}

/// The *exact* (non-tabulated) composition over a counter-based stream:
/// one uniform per normal through [`norminv`], `exp(σ·Z)` through
/// [`fast_exp`] — the reference the equivalence tests hold
/// [`QuantileTable::lognormal`] against.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct NormalSource {
    stream: SplitMix64,
}

#[cfg(test)]
impl NormalSource {
    /// Source keyed by `(seed, label, rep)` — see
    /// [`SplitMix64::from_parts`].
    pub(crate) fn new(seed: u64, label: u64, rep: u64) -> NormalSource {
        NormalSource {
            stream: SplitMix64::from_parts(seed, label, rep),
        }
    }

    /// Fills `out` with standard normals.
    pub(crate) fn fill_normal(&mut self, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = norminv(self.stream.next_unit_open());
        }
    }

    /// Fills `out` with log-normal multipliers `exp(σ·Z)`, median 1.
    pub(crate) fn fill_lognormal(&mut self, sigma: f64, out: &mut [f64]) {
        for slot in out.iter_mut() {
            *slot = fast_exp(sigma * norminv(self.stream.next_unit_open()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::quantile;

    #[test]
    fn stream_is_deterministic_per_parts() {
        let mut a = SplitMix64::from_parts(42, 7, 3);
        let mut b = SplitMix64::from_parts(42, 7, 3);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_parts_yield_distinct_streams() {
        let take = |mut s: SplitMix64| -> Vec<u64> { (0..8).map(|_| s.next_u64()).collect() };
        let base = take(SplitMix64::from_parts(42, 7, 3));
        assert_ne!(base, take(SplitMix64::from_parts(42, 7, 4)));
        assert_ne!(base, take(SplitMix64::from_parts(42, 8, 3)));
        assert_ne!(base, take(SplitMix64::from_parts(43, 7, 3)));
    }

    #[test]
    fn seek_lands_where_stepping_does() {
        let origin = SplitMix64::from_parts(9, 4, 1);
        let mut stepped = origin;
        for n in 0..2000u64 {
            let mut sought = origin.seek(n);
            assert_eq!(sought, stepped, "n = {n}");
            assert_eq!(sought.next_u64(), stepped.next_u64());
        }
        // Counters wrap like the stepping additions do.
        assert_eq!(origin.seek(u64::MAX).seek(1), origin);
    }

    #[test]
    fn unit_draws_stay_strictly_inside_the_interval() {
        let mut s = SplitMix64::new(5);
        for _ in 0..100_000 {
            let u = s.next_unit_open();
            assert!(u > 0.0 && u < 1.0, "u = {u}");
        }
    }

    #[test]
    fn norminv_matches_known_quantiles() {
        // Reference values of Φ⁻¹ to well beyond the approximation error.
        for (p, z) in [
            (0.5, 0.0),
            (0.975, 1.959_963_984_540_054),
            (0.025, -1.959_963_984_540_054),
            (0.8413447460685429, 1.0),
            (0.99865010196837, 3.0),
            (0.001349898031630095, -3.0),   // tail branch
            (1e-6, -4.753_424_308_822_899), // deep tail
        ] {
            let got = norminv(p);
            assert!(
                (got - z).abs() < 2e-8 * (1.0 + z.abs()),
                "norminv({p}) = {got}, want {z}"
            );
        }
    }

    #[test]
    fn norminv_is_antisymmetric() {
        for &p in &[0.01, 0.024, 0.1, 0.3, 0.49] {
            let lo = norminv(p);
            let hi = norminv(1.0 - p);
            assert!((lo + hi).abs() < 1e-9, "p = {p}: {lo} vs {hi}");
        }
    }

    #[test]
    fn fast_exp_tracks_libm_exp() {
        let mut worst = 0.0f64;
        let mut x = -30.0;
        while x <= 30.0 {
            let rel = (fast_exp(x) - x.exp()).abs() / x.exp();
            worst = worst.max(rel);
            x += 0.0137;
        }
        assert!(worst < 1e-8, "worst relative error {worst}");
    }

    #[test]
    fn normals_have_unit_moments() {
        let mut src = NormalSource::new(11, 0, 0);
        let mut buf = vec![0.0; 200_000];
        src.fill_normal(&mut buf);
        let n = buf.len() as f64;
        let mean = buf.iter().sum::<f64>() / n;
        let var = buf.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn lognormal_fill_has_median_one_and_positive_support() {
        let mut src = NormalSource::new(3, 1, 9);
        let mut buf = vec![0.0; 100_000];
        src.fill_lognormal(0.2, &mut buf);
        assert!(buf.iter().all(|&m| m > 0.0));
        let med = quantile(&buf, 0.5);
        assert!((med - 1.0).abs() < 0.01, "median {med}");
    }

    /// The tabulated quantile function tracks the exact composition to
    /// interpolation accuracy, central region and tails alike.
    #[test]
    fn quantile_table_tracks_exact_composition() {
        for sigma in [0.05, 0.2, 0.5] {
            let tab = QuantileTable::lognormal(sigma);
            let mut u = 1e-5;
            while u < 1.0 {
                let exact = fast_exp(sigma * norminv(u));
                let got = tab.mult(u);
                let rel = (got - exact).abs() / exact;
                assert!(rel < 1e-3, "sigma {sigma} u {u}: {got} vs {exact}");
                u += 3.33e-4;
            }
            // Median is exact to interpolation accuracy.
            assert!((tab.mult(0.5) - 1.0).abs() < 1e-6);
        }
    }

    /// `fill_rows` against its definition: every cell is `mult` of the
    /// lane's own sequential stream, bit for bit.
    fn assert_rows_match_mult(
        tab: &QuantileTable,
        seed: u64,
        lanes: usize,
        first_row: u64,
        rows: usize,
    ) {
        let streams: Vec<SplitMix64> = (0..lanes as u64)
            .map(|l| SplitMix64::from_parts(seed, 7, l))
            .collect();
        let mut got = vec![0.0; rows * lanes];
        tab.fill_rows(&streams, first_row, &mut got);
        for (l, stream) in streams.iter().enumerate() {
            let mut s = stream.seek(first_row);
            for r in 0..rows {
                let want = tab.mult(s.next_unit_open());
                assert_eq!(
                    got[r * lanes + l].to_bits(),
                    want.to_bits(),
                    "seed {seed} lanes {lanes} first row {first_row}: row {r} lane {l}"
                );
            }
        }
    }

    #[test]
    fn fill_rows_is_mult_of_each_lane_stream_bitwise() {
        // σ = 3 spreads the multipliers over five decades, so a cell
        // served by the wrong path or the wrong knot cannot round the
        // same.
        for sigma in [0.05, 0.5, 3.0] {
            let tab = QuantileTable::lognormal(sigma);
            for lanes in 1..=17 {
                let block_rows = (FILL_BLOCK / lanes).max(1);
                for rows in [0, 1, 2, block_rows - 1, block_rows, block_rows + 1, 1500] {
                    assert_rows_match_mult(&tab, 11 + rows as u64, lanes, 0, rows);
                }
                assert_rows_match_mult(&tab, 5, lanes, 1234, 3 * block_rows + 1);
            }
            // One lane's virtual lanes seek past a wrapping counter.
            assert_rows_match_mult(&tab, 9, 1, u64::MAX - 40, 1500);
        }
        let tab = QuantileTable::pareto(1.5);
        for lanes in [1, 8, 13] {
            assert_rows_match_mult(&tab, 3, lanes, 77, 700);
        }
    }

    /// Slow-margin draws on the first and the last cell of a block — the
    /// two ends of the patch-up list's index range — at both compiled
    /// widths and a generic one.
    #[test]
    fn fill_rows_patches_block_edges() {
        let tab = QuantileTable::lognormal(0.2);
        for lanes in [1, WIDE_LANES, 5] {
            let seed = block_edge_seed(&tab, lanes);
            assert_rows_match_mult(&tab, seed, lanes, 0, 2 * (FILL_BLOCK / lanes));
        }
    }

    /// The first seed whose `(seed, 7, lane)` streams draw slow-margin
    /// cells on the first and the last cell of the first block and on
    /// the first cell of the second.
    fn block_edge_seed(tab: &QuantileTable, lanes: usize) -> u64 {
        let slow = |s: SplitMix64, row: usize| {
            let k = (s.seek(row as u64).next_unit_open() * CELLS as f64) as usize;
            !tab.tabulated(k)
        };
        let block_rows = FILL_BLOCK / lanes;
        (0..)
            .find(|&seed| {
                let first = SplitMix64::from_parts(seed, 7, 0);
                let last = SplitMix64::from_parts(seed, 7, lanes as u64 - 1);
                slow(first, 0) && slow(last, block_rows - 1) && slow(first, block_rows)
            })
            .expect("some seed has slow draws on all three edge cells")
    }

    /// The batched patch against the per-cell exact path, bit for bit:
    /// slow-margin draws of both tails and both shapes, from the extreme
    /// uniforms inward, in batches that end short of a vector, fill one
    /// exactly and overflow it.
    #[test]
    fn patch_matches_the_exact_function_bitwise() {
        let tables = [
            QuantileTable::lognormal(0.05),
            QuantileTable::lognormal(3.0),
            QuantileTable::pareto(0.06),
            QuantileTable::pareto(1.5),
        ];
        for tab in &tables {
            let edge = tab.margin as f64 / CELLS as f64;
            let mut draws = vec![unit_open(0), unit_open(u64::MAX)];
            draws.extend((0..64).map(|k| edge * (k as f64 + 0.5) / 64.0));
            draws.extend((0..64).map(|k| 1.0 - edge * (k as f64 + 0.5) / 64.0));
            let mut s = SplitMix64::new(17);
            draws.extend(
                std::iter::repeat_with(|| s.next_unit_open())
                    .filter(|&u| !tab.tabulated((u * CELLS as f64) as usize))
                    .take(300),
            );
            for n in [
                1,
                3,
                4,
                5,
                PATCH - 1,
                PATCH,
                PATCH + 1,
                2 * PATCH + 3,
                draws.len(),
            ] {
                let mut out = vec![f64::NAN; n];
                let mut patch = Patch::new();
                for (cell, &u) in draws[..n].iter().enumerate() {
                    patch.push(tab, &mut out, cell, u);
                }
                patch.flush(tab, &mut out);
                for (&u, got) in draws.iter().zip(&out) {
                    let want = tab.exact(u);
                    assert_eq!(got.to_bits(), want.to_bits(), "param {} u {u}", tab.param);
                }
            }
        }
    }

    /// A first block holding more slow-margin cells than one patch batch
    /// takes, at one lane and at eight: the batch is patched mid-block
    /// and the block's remaining cells after it.
    #[test]
    fn fill_rows_patches_more_slow_cells_than_one_batch() {
        for tab in [QuantileTable::lognormal(0.2), QuantileTable::pareto(1.5)] {
            for lanes in [1, WIDE_LANES] {
                let block_rows = FILL_BLOCK / lanes;
                let slow_cells = |seed: u64| {
                    (0..lanes as u64)
                        .flat_map(|l| {
                            let s = SplitMix64::from_parts(seed, 7, l);
                            (0..block_rows as u64).map(move |r| s.seek(r).next_unit_open())
                        })
                        .filter(|&u| !tab.tabulated((u * CELLS as f64) as usize))
                        .count()
                };
                let seed = (0..)
                    .find(|&seed| slow_cells(seed) > PATCH)
                    .expect("some seed overflows one batch in the first block");
                assert_rows_match_mult(&tab, seed, lanes, 0, 3 * block_rows);
            }
        }
    }

    /// The counter identity behind one-lane fills, on the scalar kernel
    /// so on any CPU: eight virtual lanes of one stream, rows eight draws
    /// apart, read row-major, are the stream's draws in order.
    #[test]
    fn virtual_lanes_are_the_stream_in_draw_order() {
        let tab = QuantileTable::lognormal(0.5);
        let one = [SplitMix64::from_parts(block_edge_seed(&tab, 1), 7, 0)];
        for first_row in [0, 1234, u64::MAX - 40] {
            let lanes: [SplitMix64; WIDE_LANES] =
                std::array::from_fn(|j| one[0].seek(first_row.wrapping_add(j as u64)));
            let (mut want, mut got) = (vec![0.0; 1504], vec![1.0; 1504]);
            tab.fill_rows_of(&one, first_row, 1, &mut want);
            tab.fill_rows_of(&lanes, 0, WIDE_LANES as u64, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "first row {first_row}");
        }
    }

    /// The vector kernel against the scalar one on the same draws, every
    /// cell bit for bit: eight lanes called directly on identical inputs,
    /// and one stream through `fill_rows`' virtual lanes (rows eight
    /// draws apart, the scalar kernel on the tail) against the one-lane
    /// scalar kernel — with a row counter that wraps past `u64::MAX` and
    /// the block-edge patch seeds of both routes.
    #[test]
    fn vector_kernel_matches_scalar_kernel_bitwise() {
        let probe = QuantileTable::lognormal(0.2);
        let streams = [SplitMix64::new(0); WIDE_LANES];
        if !probe.fill_rows_vector(&streams, 0, 1, &mut []) {
            eprintln!("skipped: this CPU lacks AVX-512DQ/VL, so fill_rows runs the scalar kernel");
            return;
        }
        let edge_seed = block_edge_seed(&probe, WIDE_LANES);
        let tables = [
            QuantileTable::lognormal(0.05),
            QuantileTable::lognormal(0.5),
            QuantileTable::lognormal(3.0),
            QuantileTable::pareto(1.5),
        ];
        let assert_bits = |got: &[f64], want: &[f64], case: &str| {
            for (i, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(g.to_bits(), w.to_bits(), "{case}: cell {i}");
            }
        };
        for tab in &tables {
            for first_row in [0, 1234, u64::MAX - 40] {
                for seed in [1, 29, edge_seed, block_edge_seed(tab, WIDE_LANES)] {
                    let streams: [SplitMix64; WIDE_LANES] =
                        std::array::from_fn(|l| SplitMix64::from_parts(seed, 7, l as u64));
                    for rows in [0, 1, 31, 32, 33, 1500] {
                        let mut want = vec![0.0; rows * WIDE_LANES];
                        let mut got = vec![1.0; rows * WIDE_LANES];
                        tab.fill_rows_of(&streams, first_row, 1, &mut want);
                        assert!(tab.fill_rows_vector(&streams, first_row, 1, &mut got));
                        let case = format!(
                            "param {} seed {seed} first row {first_row} rows {rows}",
                            tab.param
                        );
                        assert_bits(&got, &want, &case);
                    }
                }
                // Edge seed: slow draws on cells 0, 255 and 256, the
                // first virtual block's two ends and the second's start.
                for seed in [1, 29, block_edge_seed(tab, 1)] {
                    let one = [SplitMix64::from_parts(seed, 7, 0)];
                    for cells in (0..=17).chain([255, 256, 257, 1500]) {
                        let mut want = vec![0.0; cells];
                        let mut got = vec![1.0; cells];
                        tab.fill_rows_of(&one, first_row, 1, &mut want);
                        tab.fill_rows(&one, first_row, &mut got);
                        let case = format!(
                            "param {} one lane seed {seed} first row {first_row} cells {cells}",
                            tab.param
                        );
                        assert_bits(&got, &want, &case);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// The vector kernel's lerp fraction, read off the integer bits,
        /// is exactly the scalar kernel's `t − k`.
        #[test]
        fn integer_bit_fraction_is_t_minus_k(x in 0u64..u64::MAX) {
            let frac = (((x >> 12) & ((1 << 41) - 1)) as f64 + 0.5) * (1.0 / (1u64 << 41) as f64);
            let t_minus_k = unit_open(x) * CELLS as f64 - (x >> 53) as f64;
            proptest::prop_assert_eq!(frac.to_bits(), t_minus_k.to_bits());
        }
    }

    /// The Pareto table tracks its exact composition the same way the
    /// log-normal table does, across the central region and both tails.
    #[test]
    fn pareto_table_tracks_exact_composition() {
        for alpha in [1.1, 2.5, 6.0] {
            let tab = QuantileTable::pareto(alpha);
            let mut u: f64 = 1e-5;
            while u < 1.0 {
                let exact = fast_exp(-(2.0 * (1.0 - u)).ln() / alpha);
                let got = tab.mult(u);
                let rel = (got - exact).abs() / exact;
                assert!(rel < 1e-3, "alpha {alpha} u {u}: {got} vs {exact}");
                u += 3.33e-4;
            }
            assert!((tab.mult(0.5) - 1.0).abs() < 1e-6);
        }
    }

    /// Pareto draws are heavy-tailed: the sample mean of a median-1
    /// Pareto stream sits well above the median, and far above the
    /// matching log-normal's, while the minimum stays at `2^(−1/α)`.
    #[test]
    fn pareto_draws_are_heavy_tailed_with_median_one() {
        let alpha = 1.5;
        let tab = QuantileTable::pareto(alpha);
        let mut s = SplitMix64::from_parts(77, 1, 0);
        let draws: Vec<f64> = (0..100_000).map(|_| tab.mult(s.next_unit_open())).collect();
        let floor = fast_exp(-std::f64::consts::LN_2 / alpha);
        assert!(draws.iter().all(|&m| m >= floor * (1.0 - 1e-12)));
        let med = quantile(&draws, 0.5);
        assert!((med - 1.0).abs() < 0.02, "median {med}");
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        // α = 1.5 has finite mean x_m·α/(α−1) = 2^(−2/3)·3 ≈ 1.89.
        assert!(mean > 1.5, "mean {mean} not heavy-tailed");
    }
}
