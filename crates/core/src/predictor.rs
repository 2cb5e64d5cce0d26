//! Critical-path barrier cost prediction (§5.6.5, Fig. 6.2, §6.5).
//!
//! Given a staged pattern and a [`CostModel`] of benchmarked platform
//! parameters — the dense [`CommCosts`] matrices, or a class-level model
//! whose storage is independent of p — the predictor computes the worst
//! path through the layered dependency graph. The cost a process adds to every path through its stage is
//! Eq. 5.4 extended with the Ch. 6.5 payload term:
//!
//! ```text
//! cost(s, i) = Σ_j S_s(i,j)·(2·L_ij + bytes_s·β_ij)  +  max_j(O_ij·S_s(i,j))
//! ```
//!
//! with two refinements (§5.6.5):
//!
//! 1. the max term is never below the invocation cost `O_ii`;
//! 2. when a destination `j` is known to be already awaiting the signal
//!    (its last transmission happened at least two stages earlier), its
//!    `O_ij` term is replaced by `O_jj` — the posted-receive fast path.
//!
//! The thesis describes a recursive search over all paths recording the
//! maximal arrival at the final stage; because the graph is layered, the
//! equivalent forward dynamic program used here visits each edge once:
//!
//! ```text
//! entry(j, s+1) = max( entry(j, s) + cost(s, j),
//!                      max_{i: S_s(i,j)} entry(i, s) + cost(s, i) )
//! ```

use crate::matrix::DMat;
use crate::pattern::CommPattern;
use crate::plan::CompiledPattern;

/// Benchmarked platform cost matrices (§5.6.3).
///
/// * `o` — overheads: the diagonal holds the invocation overhead `O_ii`
///   (an empty request-start/wait call), off-diagonals the per-request
///   overhead `O_ij` of adding a signal from i to j.
/// * `l` — pairwise one-way latencies `L_ij` (regression intercepts).
/// * `beta` — pairwise inverse bandwidths `β_ij` (regression slopes),
///   used only when a payload schedule supplies nonzero message sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct CommCosts {
    pub o: DMat,
    pub l: DMat,
    pub beta: DMat,
}

impl CommCosts {
    /// Validates that all three matrices are square and same-sized.
    pub fn new(o: DMat, l: DMat, beta: DMat) -> CommCosts {
        assert_eq!(o.rows(), o.cols(), "O must be square");
        assert_eq!((o.rows(), o.cols()), (l.rows(), l.cols()), "L shape");
        assert_eq!(
            (o.rows(), o.cols()),
            (beta.rows(), beta.cols()),
            "beta shape"
        );
        CommCosts { o, l, beta }
    }

    /// Process count.
    pub fn p(&self) -> usize {
        self.o.rows()
    }

    /// Uniform-cost model: `O_ii = o_call`, `O_ij = o_req`, `L_ij = lat`,
    /// zero beta — the homogeneous setting of the §5.4 textbook analysis.
    pub fn uniform(p: usize, o_call: f64, o_req: f64, lat: f64) -> CommCosts {
        let o = DMat::from_fn(p, p, |i, j| if i == j { o_call } else { o_req });
        let l = DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { lat });
        CommCosts::new(o, l, DMat::zeros(p, p))
    }
}

/// The point-to-point cost queries the predictor reads, abstracted over
/// storage — every predictor entry point takes any implementor.
/// [`CommCosts`] answers them from dense benchmarked matrices — O(p²)
/// floats, the right form when every pair was measured. Scale callers
/// answer them from a few per-link-class parameters plus the O(ranks)
/// placement hierarchy (see `hpm-simnet`'s `ClassCosts`), so a p = 4096
/// prediction never materializes a 16.7M-entry matrix.
pub trait CostModel {
    /// Process count the model covers.
    fn p(&self) -> usize;
    /// Overhead: invocation overhead `O_ii` on the diagonal, per-request
    /// overhead `O_ij` off it.
    fn o(&self, i: usize, j: usize) -> f64;
    /// One-way latency `L_ij` (zero on the diagonal).
    fn l(&self, i: usize, j: usize) -> f64;
    /// Inverse bandwidth `β_ij`.
    fn beta(&self, i: usize, j: usize) -> f64;
}

impl CostModel for CommCosts {
    fn p(&self) -> usize {
        CommCosts::p(self)
    }
    fn o(&self, i: usize, j: usize) -> f64 {
        self.o.get(i, j)
    }
    fn l(&self, i: usize, j: usize) -> f64 {
        self.l.get(i, j)
    }
    fn beta(&self, i: usize, j: usize) -> f64 {
        self.beta.get(i, j)
    }
}

/// Per-stage message payload sizes in bytes (§6.5). Stages beyond the
/// schedule's length carry zero payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadSchedule {
    bytes: Vec<u64>,
}

impl PayloadSchedule {
    /// Pure synchronization: no payload in any stage.
    pub fn none() -> PayloadSchedule {
        PayloadSchedule { bytes: Vec::new() }
    }

    /// The same payload in every stage.
    pub fn uniform(stages: usize, bytes: u64) -> PayloadSchedule {
        PayloadSchedule {
            bytes: vec![bytes; stages],
        }
    }

    /// Explicit per-stage sizes.
    pub fn from_bytes(bytes: Vec<u64>) -> PayloadSchedule {
        PayloadSchedule { bytes }
    }

    /// The message-count map of the BSPlib total exchange (§6.5): each
    /// process contributes a row of `P` 32-bit counters; the dissemination
    /// pattern doubles the carried rows per stage, with the final stage
    /// carrying the remainder `P − 2^(S−1)`.
    pub fn dissemination_count_map(p: usize) -> PayloadSchedule {
        assert!(p > 0);
        if p == 1 {
            return PayloadSchedule::none();
        }
        let stages = crate::pattern::log2_ceil(p);
        let row_bytes = 4 * p as u64;
        let bytes = (0..stages)
            .map(|s| {
                let known = 1u64 << s;
                let remaining = p as u64 - known.min(p as u64);
                known.min(remaining.max(1)) * row_bytes
            })
            .collect();
        PayloadSchedule { bytes }
    }

    /// Payload of stage `s` in bytes.
    pub fn bytes(&self, s: usize) -> u64 {
        self.bytes.get(s).copied().unwrap_or(0)
    }
}

/// Prediction result: stage-resolved entry times and the total.
#[derive(Debug, Clone)]
pub struct BarrierPrediction {
    /// `entry[s][i]`: time process i enters stage s; the last row is the
    /// exit from the final stage.
    pub entry: Vec<Vec<f64>>,
    /// `stage_cost[s][i]`: the Eq. 5.4 cost process i adds in stage s.
    pub stage_cost: Vec<Vec<f64>>,
    /// Worst-case completion over all processes.
    pub total: f64,
}

impl BarrierPrediction {
    /// Completion time of one process.
    pub fn completion(&self, i: usize) -> f64 {
        *self
            .entry
            .last()
            .expect("at least one row")
            .get(i)
            .expect("process index in range")
    }
}

/// Eq. 5.4 stage cost with payload extension and both refinements, over
/// the compiled pattern: destination slices from the CSR plan, posted
/// receivers from the precomputed table.
fn stage_cost<C: CostModel + ?Sized>(
    plan: &CompiledPattern,
    costs: &C,
    payload: &PayloadSchedule,
    s: usize,
    i: usize,
) -> f64 {
    let bytes = payload.bytes(s) as f64;
    let mut latency_term = 0.0;
    let mut max_term = costs.o(i, i); // refinement 1: floor at O_ii
    for &j in plan.stage(s).dsts(i) {
        latency_term += 2.0 * costs.l(i, j) + bytes * costs.beta(i, j);
        let o = if plan.is_posted(j, s) {
            costs.o(j, j) // refinement 2: posted receiver
        } else {
            costs.o(i, j)
        };
        if o > max_term {
            max_term = o;
        }
    }
    latency_term + max_term
}

/// Predicts the cost of executing `pattern` on a platform described by
/// `costs`, with per-stage payloads from `payload`.
///
/// Works on any [`CommPattern`] — barriers and collectives alike; the name
/// keeps the thesis' framing (the predictor was introduced for barriers,
/// §5.6.5) while the machinery is pattern-agnostic. Builds the pattern's
/// plan and delegates to [`predict_compiled_with`]; callers predicting the
/// same pattern repeatedly (parameter sweeps) should build the plan once
/// themselves.
pub fn predict_barrier<P: CommPattern + ?Sized, C: CostModel + ?Sized>(
    pattern: &P,
    costs: &C,
    payload: &PayloadSchedule,
) -> BarrierPrediction {
    predict_compiled_with(&pattern.plan(), costs, payload)
}

/// The forward dynamic program over a compiled pattern and any
/// [`CostModel`]: CSR slices and O(1) posted lookups, allocating only
/// the prediction it returns — O(p·stages + edges) in time and
/// O(p·stages) in its tables, so with a class-level model the whole
/// prediction is free of pairwise-dense anything.
pub fn predict_compiled_with<C: CostModel + ?Sized>(
    plan: &CompiledPattern,
    costs: &C,
    payload: &PayloadSchedule,
) -> BarrierPrediction {
    assert_eq!(
        plan.p(),
        costs.p(),
        "pattern and cost matrices must agree on process count"
    );
    let p = plan.p();
    let stages = plan.stages();
    let mut entry = vec![vec![0.0f64; p]];
    let mut stage_costs = Vec::with_capacity(stages);
    for s in 0..stages {
        let costs_s: Vec<f64> = (0..p)
            .map(|i| stage_cost(plan, costs, payload, s, i))
            .collect();
        let prev = entry.last().expect("entry starts non-empty").clone();
        let mut next: Vec<f64> = (0..p).map(|j| prev[j] + costs_s[j]).collect();
        let stage = plan.stage(s);
        for i in 0..p {
            let done = prev[i] + costs_s[i];
            for &j in stage.dsts(i) {
                if done > next[j] {
                    next[j] = done;
                }
            }
        }
        stage_costs.push(costs_s);
        entry.push(next);
    }
    let total = entry
        .last()
        .expect("non-empty")
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    BarrierPrediction {
        entry,
        stage_cost: stage_costs,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::BarrierPattern;
    use crate::plan::StagePlan;

    fn linear(p: usize) -> BarrierPattern {
        let gather: Vec<(usize, usize)> = (1..p).map(|i| (i, 0)).collect();
        let gather = StagePlan::from_edges(p, &gather);
        let release = gather.transpose();
        BarrierPattern::new("linear", p, vec![gather, release])
    }

    fn dissemination(p: usize) -> BarrierPattern {
        let stages = (0..crate::pattern::log2_ceil(p))
            .map(|s| {
                let edges: Vec<(usize, usize)> = (0..p).map(|i| (i, (i + (1 << s)) % p)).collect();
                StagePlan::from_edges(p, &edges)
            })
            .collect();
        BarrierPattern::new("dissemination", p, stages)
    }

    #[test]
    fn uniform_linear_matches_asymptotic_form() {
        // §5.4: T_linear = 2cP under uniform message cost c. With zero
        // overheads the prediction must be exactly 2c(P−1) + 2c·... — the
        // release stage dominates: master's stage-1 cost 2c(P−1); stage 0
        // adds one sender's 2c. Check the closed form.
        let p = 16;
        let c = 1e-6;
        let costs = CommCosts::uniform(p, 0.0, 0.0, c);
        let pred = predict_barrier(&linear(p), &costs, &PayloadSchedule::none());
        let expect = 2.0 * c + 2.0 * c * (p as f64 - 1.0);
        assert!(
            (pred.total - expect).abs() < 1e-15,
            "got {}, expect {expect}",
            pred.total
        );
    }

    #[test]
    fn uniform_dissemination_is_logarithmic() {
        let c = 1e-6;
        for p in [8usize, 16, 32, 64] {
            let costs = CommCosts::uniform(p, 0.0, 0.0, c);
            let pred = predict_barrier(&dissemination(p), &costs, &PayloadSchedule::none());
            let stages = crate::pattern::log2_ceil(p) as f64;
            let expect = 2.0 * c * stages;
            assert!(
                (pred.total - expect).abs() < 1e-12,
                "p={p}: got {}, expect {expect}",
                pred.total
            );
        }
    }

    #[test]
    fn linear_to_dissemination_ratio_grows_with_p() {
        let costs64 = CommCosts::uniform(64, 1e-7, 5e-7, 1e-6);
        let lin = predict_barrier(&linear(64), &costs64, &PayloadSchedule::none()).total;
        let dis = predict_barrier(&dissemination(64), &costs64, &PayloadSchedule::none()).total;
        assert!(lin > 5.0 * dis, "linear {lin} vs dissemination {dis}");
    }

    #[test]
    fn invocation_floor_applies_to_idle_processes() {
        // In stage 1 of the linear barrier, ranks 1..p only receive; their
        // stage cost must be exactly O_ii.
        let p = 4;
        let costs = CommCosts::uniform(p, 3e-7, 9e-7, 1e-6);
        let pred = predict_barrier(&linear(p), &costs, &PayloadSchedule::none());
        // Rank 1 cost in stage 1 = O_11.
        assert!((pred.stage_cost[1][1] - 3e-7).abs() < 1e-18);
    }

    #[test]
    fn posted_receive_refinement_reduces_cost() {
        // 3-stage pattern: 1 → 0 in stage 0; filler 2 → 1 keeps stage 1
        // non-empty; 1 → 0 again in stage 2. By stage 2, rank 0 has been
        // idle since before stage 1, so rank 1's max term uses O_00 < O_10.
        let p = 3;
        let s0 = StagePlan::from_edges(p, &[(1, 0)]);
        let s1 = StagePlan::from_edges(p, &[(2, 1)]);
        let s2 = StagePlan::from_edges(p, &[(1, 0)]);
        let pat = BarrierPattern::new("posted", p, vec![s0, s1, s2]);
        let costs = CommCosts::uniform(p, 1e-7, 8e-7, 1e-6);
        let pred = predict_barrier(&pat, &costs, &PayloadSchedule::none());
        // Stage 0: receiver not yet posted → O_10 = 8e-7 in the max term.
        assert!((pred.stage_cost[0][1] - (2e-6 + 8e-7)).abs() < 1e-15);
        // Stage 2: rank 0 posted → O_00 = 1e-7.
        assert!((pred.stage_cost[2][1] - (2e-6 + 1e-7)).abs() < 1e-15);
    }

    #[test]
    fn payload_adds_bandwidth_term() {
        let p = 8;
        let mut costs = CommCosts::uniform(p, 0.0, 0.0, 1e-6);
        costs.beta = DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { 1e-8 });
        let pat = dissemination(p);
        let no_payload = predict_barrier(&pat, &costs, &PayloadSchedule::none()).total;
        let payload = PayloadSchedule::dissemination_count_map(p);
        let with_payload = predict_barrier(&pat, &costs, &payload).total;
        // Payload bytes over the critical path: stage s carries
        // min(2^s, P−2^s)·4P bytes at β = 1e-8.
        let extra: f64 = (0..3)
            .map(|s: usize| {
                let rows = (1u64 << s).min(8 - (1u64 << s).min(8)).max(1);
                rows as f64 * 32.0 * 1e-8
            })
            .sum();
        assert!(
            (with_payload - no_payload - extra).abs() < 1e-12,
            "delta {} vs extra {extra}",
            with_payload - no_payload
        );
    }

    #[test]
    fn count_map_schedule_doubles_then_remainder() {
        let ps = PayloadSchedule::dissemination_count_map(8);
        // Rows carried: 1, 2, 4 → bytes 32, 64, 128.
        assert_eq!(ps.bytes(0), 32);
        assert_eq!(ps.bytes(1), 64);
        assert_eq!(ps.bytes(2), 128);
        assert_eq!(ps.bytes(3), 0);
        // Non-power-of-two: P = 5 → rows 1, 2, 1 (remainder).
        let p5 = PayloadSchedule::dissemination_count_map(5);
        assert_eq!(p5.bytes(0), 20);
        assert_eq!(p5.bytes(1), 40);
        assert_eq!(p5.bytes(2), 20);
    }

    #[test]
    fn completion_accessor_matches_total() {
        let p = 8;
        let costs = CommCosts::uniform(p, 1e-7, 5e-7, 1e-6);
        let pred = predict_barrier(&dissemination(p), &costs, &PayloadSchedule::none());
        let max = (0..p).map(|i| pred.completion(i)).fold(0.0, f64::max);
        assert_eq!(max, pred.total);
    }

    #[test]
    fn heterogeneous_latency_shifts_critical_path() {
        // Make rank 3's links 50x slower: the prediction must rise and the
        // slow rank must sit on the critical path.
        let p = 4;
        let uniform = CommCosts::uniform(p, 0.0, 0.0, 1e-6);
        let mut slow = uniform.clone();
        for j in 0..p {
            if j != 3 {
                slow.l.set(3, j, 50e-6);
                slow.l.set(j, 3, 50e-6);
            }
        }
        let pat = dissemination(p);
        let fast = predict_barrier(&pat, &uniform, &PayloadSchedule::none()).total;
        let slowed = predict_barrier(&pat, &slow, &PayloadSchedule::none()).total;
        assert!(slowed > 10.0 * fast, "{slowed} vs {fast}");
    }

    #[test]
    #[should_panic]
    fn mismatched_process_count_rejected() {
        let costs = CommCosts::uniform(4, 0.0, 0.0, 1e-6);
        predict_barrier(&linear(8), &costs, &PayloadSchedule::none());
    }

    /// A plan built once and reused across cost matrices yields the
    /// exact numbers the per-call entry point produces.
    #[test]
    fn reused_plan_matches_fresh_compilation() {
        let pat = dissemination(24);
        let plan = pat.plan();
        for seed in 0..4u64 {
            let o = 1e-7 * (seed + 1) as f64;
            let costs = CommCosts::uniform(24, o, 5.0 * o, 1e-6);
            let fresh = predict_barrier(&pat, &costs, &PayloadSchedule::none());
            let reused = predict_compiled_with(&plan, &costs, &PayloadSchedule::none());
            assert_eq!(fresh.total, reused.total);
            assert_eq!(fresh.entry, reused.entry);
            assert_eq!(fresh.stage_cost, reused.stage_cost);
        }
    }
}
