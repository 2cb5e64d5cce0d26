//! Deterministic RNG plumbing and jitter models.
//!
//! Every stochastic element of the simulator draws from an explicitly seeded
//! stream so that experiments reproduce bit-for-bit. Jitter is modeled as
//! a log-normal multiplier on service times: OS noise on the thesis' test
//! systems is strictly positive and heavy-tailed (§4.1, §5.6.3), which a
//! log-normal captures while keeping the median — the statistic the
//! benchmarks extract — equal to the noise-free value.
//!
//! Two delivery mechanisms exist behind the one [`JitterSource`] trait:
//!
//! * [`ScalarJitter`] — `StdRng` + [`JitterModel::draw`], for call sites
//!   that draw occasionally (program compute times, one-shot runs). The
//!   Box-Muller transform produces two normals per uniform pair; `draw`
//!   caches the sine-branch output and serves it on the next call, so the
//!   scalar path costs one transcendental set per *two* draws.
//! * [`JitterBuf`] — a table of multipliers computed from counter-based
//!   [`crate::stream::SplitMix64`] uniform streams through the tabulated
//!   quantile function ([`crate::stream::QuantileTable::lognormal`]),
//!   consumed by cursor. This is the hot-path engine: the executor
//!   announces its exact draw count up front
//!   (`CompiledPattern::jitter_draws` in `hpm-core`), the buffer computes
//!   rows a block at a time — the whole table at once, or a cache-sized
//!   window ahead of the cursor — and the inner simulation loop becomes
//!   pure indexed arithmetic.

use crate::stream::{QuantileTable, SplitMix64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives an independent child RNG from a base seed and a stream label.
///
/// Mixing uses SplitMix64 so that nearby labels produce uncorrelated
/// streams; the same `(seed, label)` always yields the same stream.
pub fn derive_rng(seed: u64, label: u64) -> StdRng {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(label)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&next().to_le_bytes());
    }
    StdRng::from_seed(key)
}

/// Multiplicative log-normal jitter with median 1.
///
/// Copies are cheap and carry their own Box-Muller cache; equality
/// compares the configuration (`sigma`) only.
#[derive(Debug, Clone, Copy)]
pub struct JitterModel {
    /// Standard deviation of the underlying normal (log-space sigma).
    /// 0 disables jitter entirely.
    pub sigma: f64,
    /// Cached second Box-Muller output (the sine branch), served on the
    /// next call so a pair of draws costs one transcendental set.
    spare: Option<f64>,
}

impl PartialEq for JitterModel {
    fn eq(&self, other: &JitterModel) -> bool {
        self.sigma == other.sigma
    }
}

impl JitterModel {
    /// No jitter: every draw returns exactly 1.
    pub const NONE: JitterModel = JitterModel {
        sigma: 0.0,
        spare: None,
    };

    /// Creates a jitter model; `sigma` must be non-negative and finite.
    pub fn new(sigma: f64) -> JitterModel {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "jitter sigma must be finite and non-negative, got {sigma}"
        );
        JitterModel { sigma, spare: None }
    }

    /// Draws a multiplier with median 1 (log-normal, `exp(sigma·Z)`).
    ///
    /// Box-Muller from two uniforms (rand's StandardNormal would need the
    /// rand_distr crate, which we avoid), using *both* outputs: the
    /// cosine branch is returned immediately, the sine branch is cached
    /// and served on the next call without touching `rng`.
    pub fn draw<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        let z = match self.spare.take() {
            Some(z) => z,
            None => {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen::<f64>();
                let r = (-2.0 * u1.ln()).sqrt();
                let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
                self.spare = Some(r * sin);
                r * cos
            }
        };
        (self.sigma * z).exp()
    }
}

/// A stream of jitter multipliers, as the message engine consumes them.
///
/// The simulator's timing loops are generic over this trait so the same
/// executor code runs on the scalar `StdRng` path and on batch-filled
/// tables; which one a caller picks decides the RNG draw-order contract
/// (see DESIGN.md, "The jitter engine").
pub trait JitterSource {
    /// The next multiplier (1.0 exactly when jitter is disabled).
    fn next_mult(&mut self) -> f64;

    /// The next `out.len()` multipliers, in draw order: what as many
    /// [`JitterSource::next_mult`] calls return, which is this default.
    /// The stage kernel reads a stage's entry draws and each signal's
    /// four draws this way, so a table-backed source serves each group
    /// as one slice.
    #[inline]
    fn next_mults(&mut self, out: &mut [f64]) {
        for m in out {
            *m = self.next_mult();
        }
    }
}

/// Scalar [`JitterSource`]: a [`JitterModel`] drawing from a borrowed
/// RNG. The model is held by value, so the Box-Muller pair cache lives
/// for this adapter's lifetime.
///
/// The adapter counts its `next_mult` calls (σ = 0 included — a draw
/// *slot* is consumed even when the multiplier short-circuits to 1.0),
/// so scalar executors can audit consumed-vs-planned draws against
/// `CompiledPattern::jitter_draws` exactly like the batched
/// [`JitterBuf`] path does.
pub struct ScalarJitter<'a, R: Rng + ?Sized> {
    model: JitterModel,
    rng: &'a mut R,
    drawn: usize,
}

impl<'a, R: Rng + ?Sized> ScalarJitter<'a, R> {
    /// Adapter over a model copy and a borrowed RNG.
    pub fn new(model: JitterModel, rng: &'a mut R) -> ScalarJitter<'a, R> {
        ScalarJitter {
            model,
            rng,
            drawn: 0,
        }
    }

    /// Multiplier slots consumed since construction.
    pub fn drawn(&self) -> usize {
        self.drawn
    }
}

impl<R: Rng + ?Sized> JitterSource for ScalarJitter<'_, R> {
    #[inline]
    fn next_mult(&mut self) -> f64 {
        self.drawn += 1;
        self.model.draw(self.rng)
    }
}

/// A table of jitter multipliers, consumed front to back.
///
/// The table holds `draws` *rows* of `lanes` multipliers in draw-major
/// (SoA) order: row `d` holds draw `d` of every lane contiguously, and
/// lane `l`'s multipliers come from the independent uniform stream
/// `(seed, label, first_rep + l)` pushed through the tabulated
/// log-normal quantile function
/// ([`crate::stream::QuantileTable::lognormal`]) — so a repetition's
/// multiplier sequence depends only on its own coordinates, never on
/// how repetitions were grouped into lanes.
///
/// Only a *window* of consecutive rows is ever in memory. The streams
/// are counter-based, so any row can be produced on its own:
/// [`JitterBuf::fill`]/[`JitterBuf::fill_lanes`] make the window the
/// whole table and compute it on the spot; [`JitterBuf::begin_lanes`]
/// keeps it cache-sized and lets the cursor recompute it, starting at
/// the cursor's row, whenever it runs past the end. Either way every
/// multiplier is the same `f64`, so which one a caller picks shows in
/// host time and memory only.
///
/// With `sigma == 0` the buffer stays inactive: nothing is computed,
/// every row reads as ones and the cursor never moves, mirroring the
/// scalar path's `NONE` short-circuit (and keeping the noiseless path
/// bit-identical and RNG-free).
///
/// Consuming past `draws` rows panics — the draw-count contract between
/// `CompiledPattern::jitter_draws` and the executors is enforced, not
/// assumed; [`JitterBuf::consumed`] lets tests audit the exact count.
#[derive(Debug, Clone)]
pub struct JitterBuf {
    /// Rows `win_start..win_end` of the table.
    mults: Vec<f64>,
    ones: Vec<f64>,
    /// Lane `l`'s uniform stream, positioned at row 0.
    streams: Vec<SplitMix64>,
    lanes: usize,
    draws: usize,
    row: usize,
    win_start: usize,
    win_end: usize,
    /// Rows per window (the last one may be shorter).
    win_rows: usize,
    active: bool,
    /// Tabulated `u ↦ exp(σ·Φ⁻¹(u))`, built on first active fill and
    /// reused while σ stays the same (it does, for a scratch lifetime).
    table: Option<QuantileTable>,
}

impl Default for JitterBuf {
    fn default() -> JitterBuf {
        JitterBuf::new()
    }
}

/// Multipliers per window of [`JitterBuf::begin_lanes`]: 16 KiB, which
/// with the 16 KiB of table knots leaves L1 room for the consumer's own
/// state. The samples do not depend on it.
const WINDOW: usize = 2048;

impl JitterBuf {
    /// An empty, inactive buffer; [`JitterBuf::fill`],
    /// [`JitterBuf::fill_lanes`] and [`JitterBuf::begin_lanes`] size it.
    /// Buffers reuse their allocations across fills.
    pub fn new() -> JitterBuf {
        // No allocations here: hot paths `mem::take` their buffer out of
        // a scratch (leaving this default behind) once per run.
        JitterBuf {
            mults: Vec::new(),
            ones: Vec::new(),
            streams: Vec::new(),
            lanes: 1,
            draws: 0,
            row: 0,
            win_start: 0,
            win_end: 0,
            win_rows: 0,
            active: false,
            table: None,
        }
    }

    /// Fills a single-lane table of `draws` multipliers from the stream
    /// `(seed, label, rep)` and rewinds the cursor.
    pub fn fill(&mut self, sigma: f64, seed: u64, label: u64, rep: u64, draws: usize) {
        self.fill_lanes(sigma, seed, label, rep, 1, draws);
    }

    /// Fills a `draws × lanes` table, lane `l` from the stream
    /// `(seed, label, first_rep + l)`, and rewinds the cursor. The whole
    /// table is computed here, before the first row is read.
    pub fn fill_lanes(
        &mut self,
        sigma: f64,
        seed: u64,
        label: u64,
        first_rep: u64,
        lanes: usize,
        draws: usize,
    ) {
        self.begin(sigma, seed, label, first_rep, lanes, draws, draws);
        if self.active {
            self.refill(0);
        }
    }

    /// [`JitterBuf::fill_lanes`] without the table: the same rows, each
    /// computed when the cursor first needs it, a cache-sized window at
    /// a time. For consumers that read every row once, in order, soon
    /// after — the table never exists and never leaves the cache.
    pub fn begin_lanes(
        &mut self,
        sigma: f64,
        seed: u64,
        label: u64,
        first_rep: u64,
        lanes: usize,
        draws: usize,
    ) {
        self.begin(sigma, seed, label, first_rep, lanes, draws, WINDOW / lanes);
    }

    #[allow(clippy::too_many_arguments)]
    fn begin(
        &mut self,
        sigma: f64,
        seed: u64,
        label: u64,
        first_rep: u64,
        lanes: usize,
        draws: usize,
        win_rows: usize,
    ) {
        assert!(lanes >= 1, "at least one lane");
        self.lanes = lanes;
        self.draws = draws;
        self.row = 0;
        (self.win_start, self.win_end) = (0, 0);
        self.win_rows = win_rows;
        self.active = sigma != 0.0;
        if !self.active {
            return;
        }
        if self.table.as_ref().is_none_or(|t| t.param() != sigma) {
            self.table = Some(QuantileTable::lognormal(sigma));
        }
        self.streams.clear();
        self.streams
            .extend((0..lanes as u64).map(|l| SplitMix64::from_parts(seed, label, first_rep + l)));
    }

    /// Moves the window to the cursor and computes it: at least the `k`
    /// rows the cursor is about to read, at most what is left of the
    /// table. The streams seek to the cursor's row in O(1).
    #[cold]
    fn refill(&mut self, k: usize) {
        let left = self.draws - self.row;
        assert!(
            k <= left,
            "jitter table over-consumed: {k} more rows wanted after {} of {} \
             (the plan's draw count and the executor disagree)",
            self.row,
            self.draws
        );
        let rows = left.min(self.win_rows.max(k));
        let n = rows
            .checked_mul(self.lanes)
            .expect("jitter window rows × lanes overflows usize");
        if self.mults.len() < n {
            self.mults.resize(n, 0.0);
        }
        let table = self.table.as_ref().expect("an active buffer has a table");
        table.fill_rows(&self.streams, self.row as u64, &mut self.mults[..n]);
        (self.win_start, self.win_end) = (self.row, self.row + rows);
    }

    /// Lane count of the current fill.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Rows consumed since the last fill (0 while inactive — the
    /// noiseless path draws nothing, exactly like the scalar
    /// short-circuit).
    pub fn consumed(&self) -> usize {
        self.row
    }

    /// The next `k` rows (`k·lanes` multipliers, draw-major). While
    /// inactive, returns ones without advancing.
    #[inline]
    pub fn rows(&mut self, k: usize) -> &[f64] {
        let n = k * self.lanes;
        if !self.active {
            if self.ones.len() < n {
                self.ones.resize(n, 1.0);
            }
            return &self.ones[..n];
        }
        if self.row + k > self.win_end {
            self.refill(k);
        }
        let start = (self.row - self.win_start) * self.lanes;
        self.row += k;
        &self.mults[start..start + n]
    }
}

impl JitterSource for JitterBuf {
    #[inline]
    fn next_mult(&mut self) -> f64 {
        if !self.active {
            return 1.0;
        }
        // A hard assert, like the over-consumption one in `refill`:
        // consuming a multi-lane fill element-wise would silently
        // interleave lanes into a wrong-but-plausible stream, and the
        // engine's contract is that plan/engine divergence cannot stay
        // silent.
        assert_eq!(self.lanes, 1, "scalar consumption needs a 1-lane fill");
        if self.row == self.win_end {
            self.refill(1);
        }
        let v = self.mults[self.row - self.win_start];
        self.row += 1;
        v
    }

    /// One cursor check and one copy for the whole group.
    #[inline]
    fn next_mults(&mut self, out: &mut [f64]) {
        if !self.active {
            out.fill(1.0);
            return;
        }
        assert_eq!(self.lanes, 1, "scalar consumption needs a 1-lane fill");
        let k = out.len();
        if self.row + k > self.win_end {
            self.refill(k);
        }
        let start = self.row - self.win_start;
        out.copy_from_slice(&self.mults[start..start + k]);
        self.row += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::median;

    #[test]
    fn same_seed_same_stream() {
        let mut a = derive_rng(42, 7);
        let mut b = derive_rng(42, 7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = derive_rng(42, 7);
        let mut b = derive_rng(42, 8);
        let av: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut rng = derive_rng(1, 1);
        let mut none = JitterModel::NONE;
        for _ in 0..10 {
            assert_eq!(none.draw(&mut rng), 1.0);
        }
    }

    #[test]
    fn jitter_is_positive_with_median_near_one() {
        let mut jm = JitterModel::new(0.2);
        let mut rng = derive_rng(9, 3);
        let draws: Vec<f64> = (0..20_000).map(|_| jm.draw(&mut rng)).collect();
        assert!(draws.iter().all(|&x| x > 0.0));
        let med = median(&draws);
        assert!((med - 1.0).abs() < 0.02, "median {med}");
    }

    #[test]
    fn jitter_mean_exceeds_median() {
        // Log-normal is right-skewed: mean e^{σ²/2} > 1.
        let mut jm = JitterModel::new(0.5);
        let mut rng = derive_rng(5, 5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| jm.draw(&mut rng)).sum::<f64>() / n as f64;
        assert!(mean > 1.05, "mean {mean}");
    }

    /// The Box-Muller pair cache: two draws consume exactly one uniform
    /// pair, and the pair is the cosine/sine split of one radius.
    #[test]
    fn consecutive_draws_share_one_transcendental_pair() {
        let mut jm = JitterModel::new(0.3);
        let mut rng = derive_rng(1, 2);
        let d1 = jm.draw(&mut rng);
        let d2 = jm.draw(&mut rng);
        // Exactly two uniforms consumed for the two draws.
        let mut reference = derive_rng(1, 2);
        let _: f64 = reference.gen_range(f64::MIN_POSITIVE..1.0);
        let _: f64 = reference.gen();
        assert_eq!(rng.gen::<u64>(), reference.gen::<u64>());
        // cos²θ + sin²θ = 1: the two z's recombine into the radius.
        let (z1, z2) = (d1.ln() / 0.3, d2.ln() / 0.3);
        let r2 = z1 * z1 + z2 * z2;
        assert!(r2 > 0.0 && r2.is_finite());
    }

    /// Copying a model mid-pair duplicates the cache: both copies serve
    /// the same cached sine branch on their next draw. Copy a model
    /// *before* drawing from it (as the adapters here do) if the
    /// streams must be independent.
    #[test]
    fn copies_duplicate_the_pair_cache() {
        let mut jm = JitterModel::new(0.3);
        let mut rng = derive_rng(4, 4);
        let _ = jm.draw(&mut rng);
        let mut copy = jm;
        let from_cache = jm.draw(&mut rng);
        let from_copy_cache = copy.draw(&mut rng);
        // Both serve the same cached sine branch without touching rng.
        assert_eq!(from_cache, from_copy_cache);
    }

    #[test]
    fn equality_ignores_the_cache() {
        let mut a = JitterModel::new(0.2);
        let b = JitterModel::new(0.2);
        let mut rng = derive_rng(6, 6);
        let _ = a.draw(&mut rng);
        assert_eq!(a, b);
    }

    #[test]
    fn scalar_jitter_source_matches_model_draws() {
        let mut rng_a = derive_rng(8, 1);
        let mut rng_b = derive_rng(8, 1);
        let mut model = JitterModel::new(0.1);
        let mut src = ScalarJitter::new(JitterModel::new(0.1), &mut rng_b);
        for _ in 0..10 {
            assert_eq!(model.draw(&mut rng_a), src.next_mult());
        }
        assert_eq!(src.drawn(), 10);
        // A fresh adapter over the advanced RNG opens a new audit window.
        assert_eq!(ScalarJitter::new(model, &mut rng_a).drawn(), 0);
    }

    /// The scalar draw counter counts slots, not RNG consumption: a
    /// σ = 0 adapter still tallies every call, so the audit holds on
    /// the noiseless path too.
    #[test]
    fn scalar_counter_counts_noiseless_slots() {
        let mut rng = derive_rng(2, 2);
        let mut src = ScalarJitter::new(JitterModel::NONE, &mut rng);
        for _ in 0..7 {
            assert_eq!(src.next_mult(), 1.0);
        }
        assert_eq!(src.drawn(), 7);
    }

    #[test]
    fn jitter_buf_rows_match_per_lane_streams() {
        let mut buf = JitterBuf::new();
        buf.fill_lanes(0.05, 9, 3, 10, 4, 17);
        assert_eq!(buf.lanes(), 4);
        let mut flat: Vec<Vec<f64>> = (0..4)
            .map(|l| {
                let mut one = JitterBuf::new();
                one.fill(0.05, 9, 3, 10 + l as u64, 17);
                (0..17).map(|_| one.next_mult()).collect()
            })
            .collect();
        for d in 0..17 {
            let row = buf.rows(1).to_vec();
            for (l, lane) in flat.iter_mut().enumerate() {
                assert_eq!(row[l], lane[d], "draw {d} lane {l}");
            }
        }
        assert_eq!(buf.consumed(), 17);
    }

    /// A windowed buffer serves the eager table's rows bit for bit, with
    /// `rows(4)` requests landing before, across and after window edges
    /// (the entry draws shift their phase) at compiled and generic lane
    /// widths, and counts the same consumption.
    #[test]
    fn windowed_rows_match_the_eager_table_bitwise() {
        for lanes in [1usize, 3, 8, 17] {
            let win_rows = WINDOW / lanes;
            for entry in 0..4 {
                let draws = entry + 4 * (3 * win_rows / 4 + 2);
                let mut eager = JitterBuf::new();
                eager.fill_lanes(0.07, 21, 5, 40, lanes, draws);
                let mut windowed = JitterBuf::new();
                windowed.begin_lanes(0.07, 21, 5, 40, lanes, draws);
                for _ in 0..entry {
                    assert_eq!(eager.rows(1), windowed.rows(1));
                }
                let mut straddled = 0;
                while eager.consumed() < draws {
                    let at = windowed.consumed();
                    straddled += usize::from(at / win_rows != (at + 3) / win_rows);
                    let (e, w) = (eager.rows(4), windowed.rows(4));
                    assert!(
                        e.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()),
                        "lanes {lanes} entry {entry} row {at}"
                    );
                }
                assert_eq!(windowed.consumed(), draws);
                assert!(straddled > 0 || entry == 0, "lanes {lanes} entry {entry}");
            }
        }
    }

    #[test]
    fn windowed_scalar_consumption_matches_eager() {
        let draws = 2 * WINDOW + 17;
        let mut eager = JitterBuf::new();
        eager.fill(0.1, 3, 1, 9, draws);
        let mut windowed = JitterBuf::new();
        windowed.begin_lanes(0.1, 3, 1, 9, 1, draws);
        for d in 0..draws {
            assert_eq!(
                eager.next_mult().to_bits(),
                windowed.next_mult().to_bits(),
                "draw {d}"
            );
        }
        assert_eq!(windowed.consumed(), draws);
    }

    #[test]
    #[should_panic(expected = "over-consumed")]
    fn overconsuming_a_windowed_buf_panics() {
        let mut buf = JitterBuf::new();
        buf.begin_lanes(0.1, 1, 1, 0, 8, 6);
        let _ = buf.rows(4);
        let _ = buf.rows(4);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn table_size_overflow_is_reported() {
        let mut buf = JitterBuf::new();
        buf.fill_lanes(0.1, 1, 1, 0, 3, usize::MAX / 2);
    }

    #[test]
    fn inactive_buf_serves_ones_without_consuming() {
        let mut buf = JitterBuf::new();
        buf.fill_lanes(0.0, 1, 1, 0, 3, 100);
        assert!(buf.rows(4).iter().all(|&m| m == 1.0));
        assert_eq!(buf.consumed(), 0);
        assert_eq!(buf.next_mult(), 1.0);
    }

    #[test]
    #[should_panic(expected = "over-consumed")]
    fn overconsuming_a_filled_buf_panics() {
        let mut buf = JitterBuf::new();
        buf.fill(0.1, 1, 1, 0, 2);
        let _ = buf.next_mult();
        let _ = buf.next_mult();
        let _ = buf.next_mult();
    }

    /// The scalar and batched streams describe the same distribution:
    /// their quantiles agree within sampling tolerance.
    #[test]
    fn batched_and_scalar_jitter_quantiles_agree() {
        use crate::quantile::quantile;
        let n = 60_000;
        let mut old_model = JitterModel::new(0.05);
        let mut rng = derive_rng(14, 0);
        let old: Vec<f64> = (0..n).map(|_| old_model.draw(&mut rng)).collect();
        let mut new = vec![0.0; n];
        crate::stream::NormalSource::new(14, 0, 0).fill_lognormal(0.05, &mut new);
        for q in [0.05, 0.25, 0.5, 0.75, 0.95] {
            let a = quantile(&old, q);
            let b = quantile(&new, q);
            assert!(
                (a - b).abs() / a < 0.02,
                "quantile {q}: scalar {a} vs batched {b}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn negative_sigma_rejected() {
        JitterModel::new(-0.1);
    }
}
