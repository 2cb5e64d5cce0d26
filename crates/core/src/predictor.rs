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
//! equivalent forward dynamic program used here visits each edge twice
//! per stage and keeps two p-length rows, nothing stage-resolved:
//!
//! ```text
//! done(i)  = entry(i) + cost(s, i)                      (out-CSR pass)
//! entry(j) = max( done(j), max_{i: S_s(i,j)} done(i) )  (in-CSR gather)
//! ```
//!
//! Only the total comes back. The value after stage `s` is the total of
//! the prefix plan `CompiledPattern::from_stages(.., stages[..=s])`: the
//! §5.6.5 posted table of a stage depends only on the stages before it,
//! so a prefix reproduces the first `s + 1` stages bit for bit.

use crate::matrix::DMat;
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

/// The link parameters of one edge `i → j`, `i ≠ j`: what the
/// predictor reads per signal, answered by one [`CostModel::pair`] query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCost {
    /// Per-request overhead `O_ij`.
    pub o: f64,
    /// One-way latency `L_ij`.
    pub l: f64,
    /// Inverse bandwidth `β_ij`.
    pub beta: f64,
}

/// The point-to-point cost queries the predictor reads, abstracted over
/// storage — every predictor entry point takes any implementor.
/// [`CommCosts`] answers them from dense benchmarked matrices — O(p²)
/// floats, the right form when every pair was measured. Scale callers
/// answer them from a few per-link-class parameters plus the O(ranks)
/// placement hierarchy (see `hpm-simnet`'s `ClassCosts`), so a p = 4096
/// prediction never materializes a 16.7M-entry matrix. One query per
/// edge: a class-level model classifies each link once.
pub trait CostModel {
    /// Process count the model covers.
    fn p(&self) -> usize;
    /// Invocation overhead `O_ii` (an empty request-start/wait call).
    fn o_self(&self, i: usize) -> f64;
    /// `O_ij`, `L_ij` and `β_ij` of the link `i → j`; only asked for
    /// `i ≠ j` (plans carry no self-sends).
    fn pair(&self, i: usize, j: usize) -> PairCost;
}

impl CostModel for CommCosts {
    fn p(&self) -> usize {
        CommCosts::p(self)
    }
    fn o_self(&self, i: usize) -> f64 {
        self.o.get(i, i)
    }
    fn pair(&self, i: usize, j: usize) -> PairCost {
        let p = self.p();
        assert!(i < p && j < p, "pair ({i},{j}) out of range");
        let k = i * p + j;
        PairCost {
            o: self.o.as_slice()[k],
            l: self.l.as_slice()[k],
            beta: self.beta.as_slice()[k],
        }
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

/// Prediction result: the worst-case completion over all processes.
#[derive(Debug, Clone)]
pub struct BarrierPrediction {
    /// Worst-case completion over all processes.
    pub total: f64,
}

/// The forward dynamic program over a compiled pattern and any
/// [`CostModel`]: CSR slices, O(1) posted lookups and two p-length rows —
/// O(p·stages + edges) in time and O(p) in memory, so with a class-level
/// model the whole prediction is free of pairwise-dense anything.
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
    let mut entry = vec![0.0f64; p];
    let mut done = vec![0.0f64; p];
    for s in 0..plan.stages() {
        let stage = plan.stage(s);
        let bytes = payload.bytes(s) as f64;
        let posted = &plan.posted_table()[s * p..(s + 1) * p];
        // Eq. 5.4 with the payload term and both refinements.
        for (i, (d, &e)) in done.iter_mut().zip(&entry).enumerate() {
            let mut latency_term = 0.0;
            let mut max_term = costs.o_self(i); // refinement 1: floor at O_ii
            for &j in stage.dsts(i) {
                let c = costs.pair(i, j);
                latency_term += 2.0 * c.l + bytes * c.beta;
                let o = if posted[j] {
                    costs.o_self(j) // refinement 2: posted receiver
                } else {
                    c.o
                };
                if o > max_term {
                    max_term = o;
                }
            }
            *d = e + (latency_term + max_term);
        }
        for (j, e) in entry.iter_mut().enumerate() {
            let mut t = done[j];
            for &i in stage.srcs(j) {
                if done[i] > t {
                    t = done[i];
                }
            }
            *e = t;
        }
    }
    BarrierPrediction {
        total: entry.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::StagePlan;

    fn linear(p: usize) -> CompiledPattern {
        let gather: Vec<(usize, usize)> = (1..p).map(|i| (i, 0)).collect();
        let gather = StagePlan::from_edges(p, &gather);
        let release = gather.transpose();
        CompiledPattern::from_stages("linear", p, vec![gather, release])
    }

    fn dissemination(p: usize) -> CompiledPattern {
        let stages = (0..crate::pattern::log2_ceil(p))
            .map(|s| {
                let edges: Vec<(usize, usize)> = (0..p).map(|i| (i, (i + (1 << s)) % p)).collect();
                StagePlan::from_edges(p, &edges)
            })
            .collect();
        CompiledPattern::from_stages("dissemination", p, stages)
    }

    /// Eq. 5.4 cost of process i in stage s, as the stage-resolved
    /// predictor computed it.
    fn oracle_stage_cost(
        plan: &CompiledPattern,
        costs: &CommCosts,
        payload: &PayloadSchedule,
        s: usize,
        i: usize,
    ) -> f64 {
        let bytes = payload.bytes(s) as f64;
        let mut latency_term = 0.0;
        let mut max_term = costs.o.get(i, i);
        for &j in plan.stage(s).dsts(i) {
            latency_term += 2.0 * costs.l.get(i, j) + bytes * costs.beta.get(i, j);
            let o = if plan.is_posted(j, s) {
                costs.o.get(j, j)
            } else {
                costs.o.get(i, j)
            };
            if o > max_term {
                max_term = o;
            }
        }
        latency_term + max_term
    }

    /// The stage-resolved dynamic program the predictor ran before it
    /// kept two rows, verbatim but for reading the dense matrices
    /// directly: the differential oracle. Returns `entry[s][i]`, the time
    /// process i enters stage s (the last row is the exit).
    fn oracle_entry(
        plan: &CompiledPattern,
        costs: &CommCosts,
        payload: &PayloadSchedule,
    ) -> Vec<Vec<f64>> {
        let p = plan.p();
        let mut entry = vec![vec![0.0f64; p]];
        for s in 0..plan.stages() {
            let costs_s: Vec<f64> = (0..p)
                .map(|i| oracle_stage_cost(plan, costs, payload, s, i))
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
            entry.push(next);
        }
        entry
    }

    fn row_max(row: &[f64]) -> f64 {
        row.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// The total of the plan's first `n` stages.
    fn prefix_total(plan: &CompiledPattern, n: usize, costs: &CommCosts) -> f64 {
        let stages = (0..n).map(|s| plan.stage(s).clone()).collect();
        let prefix = CompiledPattern::from_stages("prefix", plan.p(), stages);
        predict_compiled_with(&prefix, costs, &PayloadSchedule::none()).total
    }

    /// xorshift64*: the differential test's deterministic case stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// The two-row kernel against the stage-resolved oracle, bit for bit:
    /// random sparse plans over p = 1..=70 with empty stages, fan-in and
    /// fan-out above 1 and posted receivers, on random dense costs (the
    /// diagonal drawn on its own scale) and random payload schedules,
    /// some shorter than the plan.
    #[test]
    fn two_row_kernel_matches_stage_resolved_oracle() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut posted_hits, mut fan_in, mut fan_out) = (0, 0, 0);
        for case in 0..600 {
            let p = 1 + case % 70;
            let stages: Vec<StagePlan> = (0..rng.below(9))
                .map(|_| {
                    // A quarter of the stages are empty; the rest draw up to
                    // 3p edges, so some ranks send or receive several.
                    let n = if rng.below(4) == 0 || p == 1 {
                        0
                    } else {
                        rng.below(3 * p + 1)
                    };
                    let mut edges: Vec<(usize, usize)> = (0..n)
                        .map(|_| (rng.below(p), rng.below(p)))
                        .filter(|&(i, j)| i != j)
                        .collect();
                    edges.sort_unstable();
                    edges.dedup();
                    StagePlan::from_edges(p, &edges)
                })
                .collect();
            let plan = CompiledPattern::from_stages("random", p, stages);
            let mut draw = |scale: f64| DMat::from_fn(p, p, |_, _| scale * rng.unit());
            let (mut o, l, beta) = (draw(1e-6), draw(1e-5), draw(1e-9));
            for i in 0..p {
                o.set(i, i, 2e-7 * rng.unit());
            }
            let costs = CommCosts::new(o, l, beta);
            let payload = if rng.below(3) == 0 {
                PayloadSchedule::none()
            } else {
                let len = rng.below(plan.stages() + 2);
                PayloadSchedule::from_bytes((0..len).map(|_| rng.next() % 65_536).collect())
            };
            let entry = oracle_entry(&plan, &costs, &payload);
            let total = predict_compiled_with(&plan, &costs, &payload).total;
            let want = row_max(entry.last().expect("non-empty"));
            assert_eq!(total.to_bits(), want.to_bits(), "case {case}, p = {p}");
            for s in 0..plan.stages() {
                let stage = plan.stage(s);
                for r in 0..p {
                    posted_hits += usize::from(plan.is_posted(r, s) && stage.in_degree(r) > 0);
                    fan_in += usize::from(stage.in_degree(r) > 1);
                    fan_out += usize::from(stage.out_degree(r) > 1);
                }
            }
        }
        assert!(
            posted_hits > 0 && fan_in > 0 && fan_out > 0,
            "cases too thin"
        );
    }

    /// A prefix plan reproduces the stage-resolved entry times: its total
    /// is the worst entry after that many stages, bit for bit.
    #[test]
    fn prefix_totals_match_stage_resolved_entries() {
        let p = 8;
        let costs = CommCosts::uniform(p, 1e-7, 5e-7, 1e-6);
        let plan = dissemination(p);
        let entry = oracle_entry(&plan, &costs, &PayloadSchedule::none());
        for (n, row) in entry.iter().enumerate() {
            assert_eq!(prefix_total(&plan, n, &costs), row_max(row), "{n} stages");
        }
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
        let pred = predict_compiled_with(&linear(p), &costs, &PayloadSchedule::none());
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
            let pred = predict_compiled_with(&dissemination(p), &costs, &PayloadSchedule::none());
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
        let lin = predict_compiled_with(&linear(64), &costs64, &PayloadSchedule::none()).total;
        let dis =
            predict_compiled_with(&dissemination(64), &costs64, &PayloadSchedule::none()).total;
        assert!(lin > 5.0 * dis, "linear {lin} vs dissemination {dis}");
    }

    #[test]
    fn invocation_floor_applies_to_idle_processes() {
        // Free messages (L = 0, O_ij = 0) and O_00 = 1e-7 below every
        // other O_ii = 3e-7: in the linear barrier's release stage ranks
        // 1..p only receive, and their floor alone sets the total — the
        // release prefix adds exactly O_11 to the gather prefix.
        let p = 4;
        let o = DMat::from_fn(p, p, |i, j| match (i == j, i) {
            (true, 0) => 1e-7,
            (true, _) => 3e-7,
            (false, _) => 0.0,
        });
        let costs = CommCosts::new(o, DMat::zeros(p, p), DMat::zeros(p, p));
        let plan = linear(p);
        let gather = prefix_total(&plan, 1, &costs);
        let release = prefix_total(&plan, 2, &costs);
        assert!((gather - 3e-7).abs() < 1e-18, "gather {gather}");
        assert!((release - gather - 3e-7).abs() < 1e-18, "release {release}");
    }

    #[test]
    fn posted_receive_refinement_reduces_cost() {
        // 3-stage pattern: 1 → 0 in stage 0; filler 2 → 1 keeps stage 1
        // non-empty; 1 → 0 again in stage 2. By stage 2, rank 0 has been
        // idle since before stage 1, so rank 1's max term uses O_00 < O_10.
        // Rank 1 is on the critical path throughout, so each prefix adds
        // its stage cost to the total.
        let p = 3;
        let s0 = StagePlan::from_edges(p, &[(1, 0)]);
        let s1 = StagePlan::from_edges(p, &[(2, 1)]);
        let s2 = StagePlan::from_edges(p, &[(1, 0)]);
        let plan = CompiledPattern::from_stages("posted", p, vec![s0, s1, s2]);
        let costs = CommCosts::uniform(p, 1e-7, 8e-7, 1e-6);
        // Stage 0: receiver not yet posted → O_10 = 8e-7 in the max term.
        let first = prefix_total(&plan, 1, &costs);
        assert!((first - (2e-6 + 8e-7)).abs() < 1e-15, "stage 0 {first}");
        // Stage 2: rank 0 posted → O_00 = 1e-7.
        let last = prefix_total(&plan, 3, &costs) - prefix_total(&plan, 2, &costs);
        assert!((last - (2e-6 + 1e-7)).abs() < 1e-15, "stage 2 {last}");
    }

    #[test]
    fn payload_adds_bandwidth_term() {
        let p = 8;
        let mut costs = CommCosts::uniform(p, 0.0, 0.0, 1e-6);
        costs.beta = DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { 1e-8 });
        let pat = dissemination(p);
        let no_payload = predict_compiled_with(&pat, &costs, &PayloadSchedule::none()).total;
        let payload = PayloadSchedule::dissemination_count_map(p);
        let with_payload = predict_compiled_with(&pat, &costs, &payload).total;
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
        let fast = predict_compiled_with(&pat, &uniform, &PayloadSchedule::none()).total;
        let slowed = predict_compiled_with(&pat, &slow, &PayloadSchedule::none()).total;
        assert!(slowed > 10.0 * fast, "{slowed} vs {fast}");
    }

    #[test]
    #[should_panic]
    fn mismatched_process_count_rejected() {
        let costs = CommCosts::uniform(4, 0.0, 0.0, 1e-6);
        predict_compiled_with(&linear(8), &costs, &PayloadSchedule::none());
    }

    /// A plan built once and reused across cost matrices yields the
    /// exact numbers a freshly built plan produces.
    #[test]
    fn reused_plan_matches_fresh_compilation() {
        let plan = dissemination(24);
        for seed in 0..4u64 {
            let o = 1e-7 * (seed + 1) as f64;
            let costs = CommCosts::uniform(24, o, 5.0 * o, 1e-6);
            let fresh = predict_compiled_with(&dissemination(24), &costs, &PayloadSchedule::none());
            let reused = predict_compiled_with(&plan, &costs, &PayloadSchedule::none());
            assert_eq!(fresh.total.to_bits(), reused.total.to_bits());
        }
    }
}
