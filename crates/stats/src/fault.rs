//! Deterministic fault injection: the model and its per-repetition
//! realization.
//!
//! Real clusters crash, drop signals and straggle; the thesis models
//! healthy machines only. This module supplies the fault
//! layer's *randomness contract*, built exactly like the jitter engine
//! (see DESIGN.md, "The fault layer"): every fault decision is realized
//! from counter-based [`SplitMix64`] streams keyed
//! `(seed, label, rep)`, so a repetition's faults depend only on its own
//! coordinates — never on thread count, lane width or execution order —
//! and the zero-fault configuration draws from *disjoint* streams,
//! leaving the fault-free draw order untouched bit-for-bit.
//!
//! Two streams per repetition:
//!
//! * [`FAULT_LABEL`] — the **plan stream**: crash set and crash times,
//!   then per-rank Pareto-tailed straggler delays. Fixed draw order;
//!   realized once per repetition into a [`FaultPlan`].
//! * [`FAULT_DROP_LABEL`] — the **drop stream**: exactly one uniform per
//!   planned signal, converted to a retransmission-attempt count by the
//!   geometric inverse CDF (see [`attempts_from_uniform`]). One draw per
//!   signal — consumed even for suppressed (crashed-sender) signals —
//!   keeps the drop-draw count a pure function of the plan shape, which
//!   is what lets `hpm-analyze`'s draw audit extend to fault draws and
//!   keeps lane/thread invariance trivial.

use crate::stream::{QuantileTable, SplitMix64, MIN_PARETO_ALPHA};

/// Stream label of the per-repetition fault-plan realization ("FALT").
pub const FAULT_LABEL: u64 = 0x4641_4C54;

/// Stream label of the per-signal drop/attempt stream ("DROP").
pub const FAULT_DROP_LABEL: u64 = 0x4452_4F50;

/// The signal drop probability, the same on every link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DropProb(pub f64);

impl DropProb {
    /// No drops.
    pub const NONE: DropProb = DropProb(0.0);

    /// Drop probability `p` on every link class.
    pub fn uniform(p: f64) -> DropProb {
        DropProb(p)
    }
}

/// Why a [`FaultModel`] failed validation — one variant per knob class,
/// carrying the offending field name and value so sweep drivers can
/// surface exactly which configuration entry is bad instead of
/// panicking mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultModelError {
    /// A probability knob outside `[0, 1)`.
    ProbabilityOutOfRange { field: &'static str, value: f64 },
    /// The straggler tail exponent is not finite or not above
    /// [`QuantileTable::pareto`]'s floor of 0.05.
    StragglerAlphaOutOfRange { value: f64 },
    /// A duration knob below 0.
    NegativeDuration { field: &'static str, value: f64 },
    /// The retry timeout is not strictly positive.
    NonPositiveTimeout { value: f64 },
}

impl std::fmt::Display for FaultModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultModelError::ProbabilityOutOfRange { field, value } => {
                write!(f, "{field} must be in [0,1), got {value}")
            }
            FaultModelError::StragglerAlphaOutOfRange { value } => {
                write!(
                    f,
                    "straggler_alpha must be finite and > {MIN_PARETO_ALPHA}, got {value}"
                )
            }
            FaultModelError::NegativeDuration { field, value } => {
                write!(f, "{field} must be >= 0, got {value}")
            }
            FaultModelError::NonPositiveTimeout { value } => {
                write!(f, "timeout must be positive, got {value}")
            }
        }
    }
}

impl std::error::Error for FaultModelError {}

/// The fault configuration: what *can* go wrong and how often.
///
/// All knobs at their [`FaultModel::NONE`] values make every realized
/// [`FaultPlan`] neutral — no crashes, all delays exactly +0.0 — and the
/// faulty executor's arithmetic collapses to the fault-free path
/// bit-for-bit (`x + 0.0 ≡ x` in IEEE-754 for the finite non-negative
/// times the simulator produces).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    /// Ranks crashed per repetition (drawn without replacement).
    pub crash_count: usize,
    /// Crash times are uniform in `[0, crash_window)` seconds.
    pub crash_window: f64,
    /// Signal drop probability.
    pub drop: DropProb,
    /// Probability a rank straggles into the repetition.
    pub straggler_prob: f64,
    /// Scale (seconds) of the straggler entry delay.
    pub straggler_scale: f64,
    /// Pareto tail exponent of the straggler delay (smaller = heavier;
    /// finite and > 0.05).
    pub straggler_alpha: f64,
    /// Seconds a sender waits for an acknowledgement before
    /// retransmitting, and a receiver waits past its post before
    /// declaring a missing signal timed out.
    pub timeout: f64,
}

impl FaultModel {
    /// The healthy cluster: nothing fails, nothing straggles.
    pub const NONE: FaultModel = FaultModel {
        crash_count: 0,
        crash_window: 0.0,
        drop: DropProb::NONE,
        straggler_prob: 0.0,
        straggler_scale: 0.0,
        straggler_alpha: 2.0,
        timeout: 1e-3,
    };

    /// Retransmissions attempted before a signal is declared lost.
    pub const MAX_RETRIES: u32 = 3;

    /// True when every realized plan is neutral and no signal can drop —
    /// the executor may (but need not) skip fault bookkeeping entirely.
    pub fn is_none(&self) -> bool {
        self.crash_count == 0 && self.drop == DropProb::NONE && self.straggler_prob == 0.0
    }

    /// Validates the knob ranges (probabilities in [0,1), the straggler
    /// tail exponent finite and > 0.05, non-negative durations, positive
    /// timeout) without panicking — the faulty and recovering
    /// measurement loops call this on entry, so a bad model fails with a
    /// structured, clearly worded error instead of panicking inside a
    /// worker mid-sweep.
    pub fn checked(&self) -> Result<(), FaultModelError> {
        for (field, value) in [
            ("drop", self.drop.0),
            ("straggler_prob", self.straggler_prob),
        ] {
            if !(0.0..1.0).contains(&value) {
                return Err(FaultModelError::ProbabilityOutOfRange { field, value });
            }
        }
        if !(self.straggler_alpha.is_finite() && self.straggler_alpha > MIN_PARETO_ALPHA) {
            return Err(FaultModelError::StragglerAlphaOutOfRange {
                value: self.straggler_alpha,
            });
        }
        for (field, value) in [
            ("crash_window", self.crash_window),
            ("straggler_scale", self.straggler_scale),
        ] {
            if !(0.0..).contains(&value) {
                return Err(FaultModelError::NegativeDuration { field, value });
            }
        }
        if self.timeout.is_nan() || self.timeout <= 0.0 {
            return Err(FaultModelError::NonPositiveTimeout {
                value: self.timeout,
            });
        }
        Ok(())
    }

    /// Plan-stream draws consumed by [`FaultPlan::realize_into`] for `p`
    /// ranks on `nodes` nodes — the fault twin of
    /// `CompiledPattern::jitter_draws`, audited by the determinism
    /// tests. A pure function of the model and the machine shape.
    pub fn plan_draws(&self, p: usize, nodes: usize) -> usize {
        if self.is_none() {
            return 0;
        }
        2 * self.crash_count.min(p) + 2 * nodes + 2 * p
    }

    /// The added latency of `attempts − 1` retransmissions: the sender
    /// burns the full timeout of every failed attempt before the one
    /// that lands, each window twice the one before. Counts past the
    /// loss budget (`MAX_RETRIES + 2` attempts) cost what the budget
    /// does, so the loop runs at most `MAX_RETRIES + 1` times.
    pub fn retry_delay(&self, attempts: u32) -> f64 {
        let steps = attempts.saturating_sub(1).min(Self::MAX_RETRIES + 1);
        let mut delay = 0.0;
        let mut window = self.timeout;
        for _ in 0..steps {
            delay += window;
            window *= 2.0;
        }
        delay
    }

    /// The full retry budget: time burned when every attempt fails and
    /// the signal is declared lost (`MAX_RETRIES + 1` windows).
    pub fn loss_delay(&self) -> f64 {
        self.retry_delay(Self::MAX_RETRIES + 2)
    }
}

/// `1 + 2⁻²⁰`: [`attempts_from_uniform`] skips `ln` past `drop_p` times this.
const LN_FREE_MARGIN: f64 = 1.0 + 1.0 / (1u64 << 20) as f64;

/// Converts one uniform into a delivery-attempt count by the geometric
/// inverse CDF: `P(first n attempts all drop) = drop_p^n`, so
/// `attempts = 1 + ⌊ln(u)/ln(drop_p)⌋`. `drop_p ≤ 0` yields 1 attempt
/// (the caller consumes the uniform regardless, keeping the drop-draw
/// count independent of the knob values). Counts above
/// `MAX_RETRIES + 1` mean the signal was lost; the count saturates at
/// `u32::MAX`.
///
/// A `u` clearly above `drop_p` is 1 attempt without calling `ln`:
/// past the `2⁻²⁰` relative margin, `ln u` exceeds `ln drop_p` by
/// ~1e-6, far beyond libm's error, so the computed quotient is below 1
/// and the formula gives 1 as well (DESIGN.md, "The fault layer").
#[inline]
pub fn attempts_from_uniform(u: f64, drop_p: f64) -> u32 {
    if drop_p <= 0.0 || u > drop_p * LN_FREE_MARGIN {
        return 1;
    }
    debug_assert!(drop_p < 1.0, "drop probability must be < 1, got {drop_p}");
    let failures = (u.ln() / drop_p.ln()) as u32;
    failures.saturating_add(1)
}

/// The per-signal drop stream: one uniform per planned signal from
/// `(seed, FAULT_DROP_LABEL, rep)`, with a draw counter so executors can
/// audit consumed-vs-planned exactly like the jitter engine does.
#[derive(Debug, Clone)]
pub struct DropStream {
    stream: SplitMix64,
    drawn: usize,
}

impl DropStream {
    /// Stream for repetition `rep`.
    pub fn new(seed: u64, rep: u64) -> DropStream {
        DropStream {
            stream: SplitMix64::from_parts(seed, FAULT_DROP_LABEL, rep),
            drawn: 0,
        }
    }

    /// The next uniform in (0, 1); every planned signal consumes exactly
    /// one, dropped-or-not, crashed-sender-or-not.
    #[inline]
    pub fn next_uniform(&mut self) -> f64 {
        self.drawn += 1;
        self.stream.next_unit_open()
    }

    /// Uniforms consumed since construction.
    pub fn drawn(&self) -> usize {
        self.drawn
    }
}

/// One repetition's realized faults: which ranks crash when and which
/// ranks straggle — everything the executor needs, precomputed so the
/// hot loop reads arrays.
///
/// Equality compares the realized faults only, not the quantile table
/// a plan keeps between realizations.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Per-rank crash time; `f64::INFINITY` for surviving ranks.
    pub crash_time: Vec<f64>,
    /// Per-rank entry delay in seconds (+0.0 = on time).
    pub straggler_delay: Vec<f64>,
    /// Straggler magnitudes' Pareto quantiles, built by the first
    /// realization that needs them and kept while α stays the same.
    pareto: Option<QuantileTable>,
}

impl PartialEq for FaultPlan {
    fn eq(&self, other: &FaultPlan) -> bool {
        self.crash_time == other.crash_time && self.straggler_delay == other.straggler_delay
    }
}

impl FaultPlan {
    /// A neutral plan for `p` ranks: nobody crashes, every delay is
    /// exactly +0.0 — bitwise inert under IEEE-754. A plan holds no
    /// per-node state, so `_nodes` is unused; it keeps the signature
    /// existing callers use.
    pub fn neutral(p: usize, _nodes: usize) -> FaultPlan {
        FaultPlan {
            crash_time: vec![f64::INFINITY; p],
            straggler_delay: vec![0.0; p],
            pareto: None,
        }
    }

    /// Resets this plan to neutral (resizing its buffers when the
    /// machine shape changed) and realizes `model` for repetition `rep`
    /// from the plan stream `(seed, FAULT_LABEL, rep)`. The draw order
    /// is fixed — crash ranks, crash times, two per node, per-rank
    /// straggler gate + magnitude — and the draw count is
    /// [`FaultModel::plan_draws`] exactly. A [`FaultModel::is_none`]
    /// model leaves the plan neutral without touching the stream. Zero
    /// heap allocations once the buffers are sized and the straggler
    /// exponent's quantile table is built.
    pub fn realize_into(
        &mut self,
        model: &FaultModel,
        p: usize,
        nodes: usize,
        seed: u64,
        rep: u64,
    ) {
        self.crash_time.clear();
        self.crash_time.resize(p, f64::INFINITY);
        self.straggler_delay.clear();
        self.straggler_delay.resize(p, 0.0);
        if model.is_none() {
            return;
        }
        let mut s = SplitMix64::from_parts(seed, FAULT_LABEL, rep);
        // Crash set: k draws mapped onto ranks, collisions resolved by
        // upward linear probing so the draw count stays fixed at k.
        let k = model.crash_count.min(p);
        for _ in 0..k {
            let mut r = (s.next_u64() % p as u64) as usize;
            while self.crash_time[r] < f64::INFINITY {
                r = (r + 1) % p;
            }
            self.crash_time[r] = 0.0; // marked; time assigned below
        }
        // Crash times, in rank order so the assignment is deterministic.
        for t in self.crash_time.iter_mut() {
            if *t < f64::INFINITY {
                *t = s.next_unit_open() * model.crash_window;
            }
        }
        // The stream keeps two draws per node, which once gated per-node
        // slow periods and degraded links. Skipping them, not dropping
        // them, leaves every straggler draw where it always was: realized
        // plans and `plan_draws` stay the same.
        s = s.seek(2 * nodes as u64);
        // Per-rank stragglers: gate and Pareto magnitude, both always
        // drawn so the count is independent of the gate outcomes.
        let pareto = if model.straggler_prob > 0.0 && model.straggler_scale > 0.0 {
            let alpha = model.straggler_alpha;
            if self.pareto.as_ref().is_none_or(|t| t.param() != alpha) {
                self.pareto = Some(QuantileTable::pareto(alpha));
            }
            self.pareto.as_ref()
        } else {
            None
        };
        for d in self.straggler_delay.iter_mut() {
            let u_gate = s.next_unit_open();
            let u_mag = s.next_unit_open();
            if let Some(tab) = pareto {
                if u_gate < model.straggler_prob {
                    *d = model.straggler_scale * tab.mult(u_mag);
                }
            }
        }
    }

    /// A neutral plan with the given ranks force-crashed at time 0 — the
    /// deterministic "what if exactly this set fails" scenario the
    /// recovery sweep replays against every registry crash set, with no
    /// stream draws at all.
    ///
    /// # Panics
    ///
    /// Panics when a rank is out of range.
    pub fn with_crashes(p: usize, crashed: &[usize]) -> FaultPlan {
        let mut plan = FaultPlan::neutral(p, 0);
        for &r in crashed {
            assert!(r < p, "crashed rank {r} out of range for p={p}");
            plan.crash_time[r] = 0.0;
        }
        plan
    }

    /// True when rank `i` has crashed by time `t`.
    #[inline]
    pub fn crashed_at(&self, rank: usize, t: f64) -> bool {
        t >= self.crash_time[rank]
    }

    /// Ranks that crash at any time in this repetition, ascending —
    /// allocation-free.
    pub fn crashed_ranks_iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.crash_time
            .iter()
            .enumerate()
            .filter(|(_, &t)| t < f64::INFINITY)
            .map(|(r, _)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty_model() -> FaultModel {
        FaultModel {
            crash_count: 3,
            crash_window: 1e-3,
            drop: DropProb::uniform(0.05),
            straggler_prob: 0.1,
            straggler_scale: 1e-4,
            straggler_alpha: 1.5,
            ..FaultModel::NONE
        }
    }

    /// A fresh plan with `model` realized into it.
    fn realized(model: &FaultModel, p: usize, nodes: usize, seed: u64, rep: u64) -> FaultPlan {
        let mut plan = FaultPlan::neutral(p, nodes);
        plan.realize_into(model, p, nodes, seed, rep);
        plan
    }

    #[test]
    fn none_model_realizes_neutral_without_draws() {
        let plan = realized(&FaultModel::NONE, 16, 4, 42, 0);
        assert_eq!(plan, FaultPlan::neutral(16, 4));
        assert_eq!(FaultModel::NONE.plan_draws(16, 4), 0);
    }

    #[test]
    fn realization_is_deterministic_per_rep_and_distinct_across_reps() {
        let m = faulty_model();
        let a = realized(&m, 32, 8, 7, 5);
        let b = realized(&m, 32, 8, 7, 5);
        assert_eq!(a, b);
        let c = realized(&m, 32, 8, 7, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn crash_set_has_exactly_k_distinct_ranks_inside_the_window() {
        let m = faulty_model();
        for rep in 0..50 {
            let plan = realized(&m, 32, 8, 11, rep);
            let crashed: Vec<usize> = plan.crashed_ranks_iter().collect();
            assert_eq!(crashed.len(), 3, "rep {rep}");
            for &r in &crashed {
                let t = plan.crash_time[r];
                assert!(
                    (0.0..m.crash_window).contains(&t),
                    "rep {rep} rank {r} t {t}"
                );
            }
        }
    }

    #[test]
    fn crash_count_saturates_at_p() {
        let m = FaultModel {
            crash_count: 99,
            crash_window: 1.0,
            ..FaultModel::NONE
        };
        let plan = realized(&m, 8, 2, 1, 0);
        assert_eq!(plan.crashed_ranks_iter().count(), 8);
    }

    #[test]
    fn stragglers_hit_their_configured_rate() {
        let m = faulty_model();
        let reps = 2000usize;
        let p = 16;
        let mut plan = FaultPlan::neutral(p, 8);
        let mut strag = 0usize;
        for rep in 0..reps {
            plan.realize_into(&m, p, 8, 3, rep as u64);
            strag += plan.straggler_delay.iter().filter(|&&x| x > 0.0).count();
        }
        let rate = strag as f64 / (reps * p) as f64;
        assert!((rate - m.straggler_prob).abs() < 0.02);
    }

    #[test]
    fn geometric_attempts_match_drop_probability() {
        // P(attempts > 1) = drop_p; P(attempts > 2) = drop_p².
        let drop_p = 0.3;
        let mut s = SplitMix64::from_parts(9, 9, 9);
        let n = 100_000;
        let (mut retried, mut retried_twice) = (0usize, 0usize);
        for _ in 0..n {
            let a = attempts_from_uniform(s.next_unit_open(), drop_p);
            assert!(a >= 1);
            if a > 1 {
                retried += 1;
            }
            if a > 2 {
                retried_twice += 1;
            }
        }
        assert!((retried as f64 / n as f64 - drop_p).abs() < 0.01);
        assert!((retried_twice as f64 / n as f64 - drop_p * drop_p).abs() < 0.01);
    }

    #[test]
    fn zero_drop_probability_is_one_attempt() {
        assert_eq!(attempts_from_uniform(0.5, 0.0), 1);
        assert_eq!(attempts_from_uniform(1e-12, 0.0), 1);
    }

    /// The geometric inverse CDF evaluated in full, `ln` and all: the
    /// reference for the `ln`-free path.
    fn exact_attempts(u: f64, drop_p: f64) -> u32 {
        ((u.ln() / drop_p.ln()) as u32).saturating_add(1)
    }

    /// Asserts `attempts_from_uniform` ≡ the full formula at `drop_p`
    /// for each in-domain `u` of `us` and at the `ln`-free path's
    /// threshold and its two neighbours.
    fn assert_matches_exact(drop_p: f64, us: &[f64]) {
        let threshold = drop_p * LN_FREE_MARGIN;
        let edges = [threshold.next_down(), threshold, threshold.next_up()];
        for &u in us.iter().chain(&edges).filter(|&&u| u > 0.0 && u < 1.0) {
            assert_eq!(
                attempts_from_uniform(u, drop_p),
                exact_attempts(u, drop_p),
                "u {u:e} drop_p {drop_p:e}"
            );
        }
    }

    #[test]
    fn ln_free_path_matches_exact_formula_at_pinned_edges() {
        let us = [2f64.powi(-53), 0.01, 0.5, 1.0 - f64::EPSILON / 2.0];
        for drop_p in [
            5e-324,
            f64::MIN_POSITIVE,
            1e-300,
            0.01,
            0.5,
            1.0 - f64::EPSILON / 2.0,
        ] {
            assert_matches_exact(drop_p, &us);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(20_000))]

        /// Random drop probabilities over the whole range (log-uniform
        /// down to subnormals, and uniform), with `u` uniform, within a
        /// factor e of `drop_p`, and within 2⁻²² (relative) of the
        /// threshold.
        #[test]
        fn ln_free_path_matches_exact_formula(
            log_p in -744.0f64..0.0,
            flat_p in 0.0f64..1.0,
            unit in 0.0f64..1.0,
            scale in -1.0f64..1.0,
            near in -1.0f64..1.0
        ) {
            for drop_p in [log_p.exp(), flat_p] {
                let at_threshold = drop_p * LN_FREE_MARGIN * (1.0 + near / (1u64 << 22) as f64);
                assert_matches_exact(drop_p, &[unit, drop_p * scale.exp(), at_threshold]);
            }
        }
    }

    #[test]
    fn retry_delay_follows_exponential_backoff() {
        let m = FaultModel {
            timeout: 1.0,
            ..FaultModel::NONE
        };
        assert_eq!(m.retry_delay(1), 0.0);
        assert_eq!(m.retry_delay(2), 1.0);
        assert_eq!(m.retry_delay(3), 3.0);
        assert_eq!(m.retry_delay(4), 7.0);
        // Loss burns all MAX_RETRIES + 1 windows: 1 + 2 + 4 + 8, and no
        // attempt count costs more.
        assert_eq!(m.loss_delay(), 15.0);
        assert_eq!(m.retry_delay(u32::MAX), 15.0);
    }

    #[test]
    fn checked_reports_structured_errors() {
        assert_eq!(FaultModel::NONE.checked(), Ok(()));
        assert_eq!(faulty_model().checked(), Ok(()));
        let bad_prob = FaultModel {
            drop: DropProb::uniform(1.0),
            ..FaultModel::NONE
        };
        let err = bad_prob.checked().expect_err("certain drop is invalid");
        assert_eq!(
            err,
            FaultModelError::ProbabilityOutOfRange {
                field: "drop",
                value: 1.0
            }
        );
        assert_eq!(err.to_string(), "drop must be in [0,1), got 1");
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert!(boxed.to_string().contains("drop"));
        let bad_timeout = FaultModel {
            timeout: 0.0,
            ..FaultModel::NONE
        };
        assert_eq!(
            bad_timeout.checked(),
            Err(FaultModelError::NonPositiveTimeout { value: 0.0 })
        );
        // Every tail exponent `QuantileTable::pareto` would panic on is
        // rejected up front, naming the field; the floor itself is out.
        for alpha in [0.0, MIN_PARETO_ALPHA, -1.5, f64::NAN, f64::INFINITY] {
            let m = FaultModel {
                straggler_alpha: alpha,
                ..faulty_model()
            };
            let err = m.checked().expect_err("alpha out of the table's range");
            assert!(err.to_string().contains("straggler_alpha"), "{err}");
            match err {
                FaultModelError::StragglerAlphaOutOfRange { value } => {
                    assert_eq!(value.to_bits(), alpha.to_bits())
                }
                other => panic!("{other:?}"),
            }
        }
        let just_above = FaultModel {
            straggler_alpha: MIN_PARETO_ALPHA.next_up(),
            ..faulty_model()
        };
        assert_eq!(just_above.checked(), Ok(()));
        QuantileTable::pareto(just_above.straggler_alpha);
    }

    #[test]
    fn reused_plan_resizes_and_matches_a_fresh_one_bitwise() {
        let m = FaultModel {
            straggler_prob: 0.5,
            ..faulty_model()
        };
        let mut plan = FaultPlan::neutral(1, 1);
        plan.realize_into(&m, 32, 8, 7, 5);
        assert_eq!(plan, realized(&m, 32, 8, 7, 5));
        // The kept Pareto table serves the next repetition; a changed
        // exponent replaces it.
        plan.realize_into(&m, 32, 8, 7, 6);
        assert_eq!(plan, realized(&m, 32, 8, 7, 6));
        assert!(plan.straggler_delay.iter().any(|&d| d > 0.0));
        let steeper = FaultModel {
            straggler_alpha: 2.5,
            ..m
        };
        plan.realize_into(&steeper, 32, 8, 7, 6);
        assert_eq!(plan, realized(&steeper, 32, 8, 7, 6));
        // Reuse across shapes and models, including back to neutral.
        plan.realize_into(&FaultModel::NONE, 16, 4, 7, 5);
        assert_eq!(plan, FaultPlan::neutral(16, 4));
    }

    #[test]
    fn with_crashes_forces_exactly_the_given_set() {
        let plan = FaultPlan::with_crashes(8, &[1, 6]);
        assert!(plan.crashed_ranks_iter().eq([1, 6]));
        assert!(plan.crashed_at(1, 0.0) && plan.crashed_at(6, 0.0));
        assert!(!plan.crashed_at(0, f64::MAX));
        assert_eq!(FaultPlan::with_crashes(4, &[]), FaultPlan::neutral(4, 0));
    }

    #[test]
    fn drop_stream_counts_its_draws() {
        let mut d = DropStream::new(4, 2);
        for _ in 0..17 {
            let u = d.next_uniform();
            assert!(u > 0.0 && u < 1.0);
        }
        assert_eq!(d.drawn(), 17);
        // Same (seed, rep) → same stream.
        let mut e = DropStream::new(4, 2);
        let mut f = DropStream::new(4, 2);
        assert_eq!(e.next_uniform().to_bits(), f.next_uniform().to_bits());
    }

    #[test]
    fn plan_draw_count_matches_the_declared_formula() {
        let m = faulty_model();
        assert_eq!(m.plan_draws(32, 8), 2 * 3 + 2 * 8 + 2 * 32);
    }
}
