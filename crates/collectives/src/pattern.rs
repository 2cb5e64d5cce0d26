//! Collective operations as stage sequences.
//!
//! Every collective here is expressed exactly the way the thesis expresses
//! barriers (§5.5): a sequence of stages — which process signals which —
//! extended with the Ch. 6.5 payload schedule giving the per-message byte
//! count of each stage. Stages are authored as edge lists into the sparse
//! [`StagePlan`] form; the thesis' `P×P` incidence matrices are what
//! `render()` prints from it. The pair `(stages, payload)` is everything
//! the knowledge verifier, the Eq. 5.4 critical-path predictor and the
//! staged simulator need, so each builder yields a *closed-form
//! heterogeneous prediction* for free — the whole point of the
//! matrix-composed model.
//!
//! Conventions shared by all builders:
//!
//! * `p` is the process count; `p == 1` yields the degenerate zero-stage
//!   pattern (nothing to communicate).
//! * Rooted collectives take an explicit `root`; internally every rooted
//!   algorithm is built in *virtual rank* space (`vr = (r + p − root) mod
//!   p`, so the root is virtual rank 0) and mapped back, the standard
//!   rotation trick.
//! * `bytes` is the collective's vector size in bytes for
//!   broadcast/reduce/allreduce/scan, the per-rank block size for gather,
//!   and the per-destination chunk size for the total exchange. The
//!   payload schedule records the *per-message* size of each stage, which
//!   is what the Eq. 5.4 `bytes_s·β_ij` term consumes.

use hpm_core::knowledge::KnowledgeGoal;
pub use hpm_core::pattern::log2_ceil;
use hpm_core::pattern::{validate_stages, CommPattern};
use hpm_core::plan::StagePlan;
use hpm_core::predictor::PayloadSchedule;

/// A collective operation as a staged pattern: stages, per-stage payload and
/// the knowledge goal its correctness requires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CollectivePattern {
    name: String,
    p: usize,
    stages: Vec<StagePlan>,
    payload: PayloadSchedule,
    goal: KnowledgeGoal,
    root: Option<usize>,
}

impl CollectivePattern {
    /// Builds a pattern, validating stage dimensions and non-emptiness.
    /// Unlike barriers, a zero-stage pattern is legal: it is the `p == 1`
    /// degenerate case of every collective.
    pub fn new(
        name: &str,
        p: usize,
        stages: Vec<StagePlan>,
        payload: PayloadSchedule,
        goal: KnowledgeGoal,
        root: Option<usize>,
    ) -> CollectivePattern {
        validate_stages(p, &stages);
        if let Some(r) = root {
            assert!(r < p, "root {r} out of range for {p} processes");
        }
        CollectivePattern {
            name: name.to_string(),
            p,
            stages,
            payload,
            goal,
            root,
        }
    }

    /// Per-stage message payload sizes.
    pub fn payload(&self) -> &PayloadSchedule {
        &self.payload
    }

    /// The knowledge property this collective must establish.
    pub fn goal(&self) -> KnowledgeGoal {
        self.goal
    }

    /// Root rank for rooted collectives.
    pub fn root(&self) -> Option<usize> {
        self.root
    }
}

impl CommPattern for CollectivePattern {
    fn name(&self) -> &str {
        &self.name
    }

    fn p(&self) -> usize {
        self.p
    }

    fn stages(&self) -> usize {
        self.stages.len()
    }

    fn stage(&self, k: usize) -> &StagePlan {
        &self.stages[k]
    }
}

/// Maps a virtual rank (root ≡ 0) back to a physical rank.
fn phys(vr: usize, root: usize, p: usize) -> usize {
    (vr + root) % p
}

fn stage_from_virtual_edges(p: usize, root: usize, edges: &[(usize, usize)]) -> StagePlan {
    let mapped: Vec<(usize, usize)> = edges
        .iter()
        .map(|&(s, d)| (phys(s, root, p), phys(d, root, p)))
        .collect();
    StagePlan::from_edges(p, &mapped)
}

/// One-phase broadcast: the root sends the full vector to every other
/// process in a single stage — the minimum-depth, maximum-root-load
/// extremity.
pub fn broadcast_flat(p: usize, root: usize, bytes: u64) -> CollectivePattern {
    assert!(root < p, "root out of range");
    let (stages, payload) = if p == 1 {
        (Vec::new(), PayloadSchedule::none())
    } else {
        let edges: Vec<(usize, usize)> = (1..p).map(|vr| (0, vr)).collect();
        (
            vec![stage_from_virtual_edges(p, root, &edges)],
            PayloadSchedule::from_bytes(vec![bytes]),
        )
    };
    CollectivePattern::new(
        "broadcast-flat",
        p,
        stages,
        payload,
        KnowledgeGoal::RootReaches(root),
        Some(root),
    )
}

/// Binomial-tree broadcast: `⌈log₂ p⌉` stages of doubling coverage, each
/// message carrying the full vector.
pub fn broadcast_binomial(p: usize, root: usize, bytes: u64) -> CollectivePattern {
    assert!(root < p, "root out of range");
    let s = log2_ceil(p);
    let mut stages = Vec::new();
    for t in (0..s).rev() {
        let d = 1usize << t;
        let edges: Vec<(usize, usize)> = (0..p)
            .filter(|vr| vr % (2 * d) == 0 && vr + d < p)
            .map(|vr| (vr, vr + d))
            .collect();
        if !edges.is_empty() {
            stages.push(stage_from_virtual_edges(p, root, &edges));
        }
    }
    let payload = PayloadSchedule::from_bytes(vec![bytes; stages.len()]);
    CollectivePattern::new(
        "broadcast-binomial",
        p,
        stages,
        payload,
        KnowledgeGoal::RootReaches(root),
        Some(root),
    )
}

/// Two-phase BSP broadcast (scatter + allgather): stage 0 scatters `p`
/// chunks of `⌈bytes/p⌉`, stage 1 exchanges every chunk all-to-all. Twice
/// the latency depth of the flat broadcast but `p`-fold less data through
/// the root — the van-de-Geijn-style BSP optimal for large vectors.
pub fn broadcast_two_phase(p: usize, root: usize, bytes: u64) -> CollectivePattern {
    assert!(root < p, "root out of range");
    if p == 1 {
        return CollectivePattern::new(
            "broadcast-two-phase",
            p,
            Vec::new(),
            PayloadSchedule::none(),
            KnowledgeGoal::RootReaches(root),
            Some(root),
        );
    }
    let chunk = bytes.div_ceil(p as u64);
    let scatter: Vec<(usize, usize)> = (1..p).map(|vr| (0, vr)).collect();
    CollectivePattern::new(
        "broadcast-two-phase",
        p,
        vec![
            stage_from_virtual_edges(p, root, &scatter),
            StagePlan::complete(p),
        ],
        PayloadSchedule::from_bytes(vec![chunk, chunk]),
        KnowledgeGoal::RootReaches(root),
        Some(root),
    )
}

/// Binomial reduce edges in virtual rank space, leaves-first: at stage
/// `s`, virtual rank `vr` with `vr mod 2^(s+1) == 2^s` sends its partial
/// result to `vr − 2^s`.
fn reduce_stages(p: usize, root: usize) -> Vec<StagePlan> {
    let mut stages = Vec::new();
    for s in 0..log2_ceil(p) {
        let d = 1usize << s;
        let edges: Vec<(usize, usize)> = (0..p)
            .filter(|vr| vr % (2 * d) == d)
            .map(|vr| (vr, vr - d))
            .collect();
        if !edges.is_empty() {
            stages.push(stage_from_virtual_edges(p, root, &edges));
        }
    }
    stages
}

/// Binomial-tree reduce: `⌈log₂ p⌉` combining stages toward the root,
/// each message carrying the full vector.
pub fn reduce_binomial(p: usize, root: usize, bytes: u64) -> CollectivePattern {
    assert!(root < p, "root out of range");
    let stages = reduce_stages(p, root);
    let payload = PayloadSchedule::from_bytes(vec![bytes; stages.len()]);
    CollectivePattern::new(
        "reduce-binomial",
        p,
        stages,
        payload,
        KnowledgeGoal::RootGathers(root),
        Some(root),
    )
}

/// Allreduce as reduce-then-broadcast: the binomial combining tree toward
/// rank 0 followed by its transposed stages in reverse — the same
/// gather/release mirror structure as the tree barrier (§5.5), with every
/// message carrying the full vector.
pub fn allreduce(p: usize, bytes: u64) -> CollectivePattern {
    let up = reduce_stages(p, 0);
    let down: Vec<StagePlan> = up.iter().rev().map(StagePlan::transpose).collect();
    let mut stages = up;
    stages.extend(down);
    let payload = PayloadSchedule::from_bytes(vec![bytes; stages.len()]);
    CollectivePattern::new(
        "allreduce",
        p,
        stages,
        payload,
        KnowledgeGoal::AllToAll,
        None,
    )
}

/// Inclusive prefix scan (Hillis–Steele): stage `s` sends `i → i + 2^s`
/// for every `i` with `i + 2^s < p`, each message carrying the full
/// vector. After `⌈log₂ p⌉` stages process `i` holds the combination of
/// ranks `0..=i`.
pub fn scan(p: usize, bytes: u64) -> CollectivePattern {
    let mut stages = Vec::new();
    for s in 0..log2_ceil(p) {
        let d = 1usize << s;
        let edges: Vec<(usize, usize)> = (0..p.saturating_sub(d)).map(|i| (i, i + d)).collect();
        if !edges.is_empty() {
            stages.push(StagePlan::from_edges(p, &edges));
        }
    }
    let payload = PayloadSchedule::from_bytes(vec![bytes; stages.len()]);
    CollectivePattern::new("scan", p, stages, payload, KnowledgeGoal::Prefix, None)
}

/// Binomial-tree gather: the reduce stage structure, but stage `s`
/// messages carry the sender's accumulated span of up to `2^s` blocks of
/// `bytes` each — the growing-payload schedule that distinguishes gather
/// from reduce in the cost model.
pub fn gather_binomial(p: usize, root: usize, bytes: u64) -> CollectivePattern {
    assert!(root < p, "root out of range");
    let stages = reduce_stages(p, root);
    let payload = PayloadSchedule::from_bytes(
        (0..stages.len() as u32)
            .map(|s| {
                let span = (1u64 << s).min(p as u64 - (1u64 << s));
                span.max(1) * bytes
            })
            .collect(),
    );
    CollectivePattern::new(
        "gather-binomial",
        p,
        stages,
        payload,
        KnowledgeGoal::RootGathers(root),
        Some(root),
    )
}

/// Total exchange (all-to-all personalized): every ordered pair exchanges
/// a distinct chunk in a single stage — the maximum-concurrency extremity,
/// and the §6.5 communication core of the BSP sync's count map.
pub fn total_exchange(p: usize, bytes: u64) -> CollectivePattern {
    let (stages, payload) = if p == 1 {
        (Vec::new(), PayloadSchedule::none())
    } else {
        (
            vec![StagePlan::complete(p)],
            PayloadSchedule::from_bytes(vec![bytes]),
        )
    };
    CollectivePattern::new(
        "total-exchange",
        p,
        stages,
        payload,
        KnowledgeGoal::AllToAll,
        None,
    )
}

/// The full catalog of collective patterns at a process count and payload
/// size — what the verification suite, the predict-vs-sim experiments and
/// the benchmarks iterate over.
pub fn catalog(p: usize, root: usize, bytes: u64) -> Vec<CollectivePattern> {
    vec![
        broadcast_flat(p, root, bytes),
        broadcast_binomial(p, root, bytes),
        broadcast_two_phase(p, root, bytes),
        reduce_binomial(p, root, bytes),
        allreduce(p, bytes),
        scan(p, bytes),
        gather_binomial(p, root, bytes),
        total_exchange(p, bytes),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_core::knowledge::VerifyScratch;

    #[test]
    fn catalog_satisfies_knowledge_goals() {
        for p in 1..=17 {
            for root in [0, p / 2, p - 1] {
                for c in catalog(p, root, 256) {
                    assert!(
                        VerifyScratch::new().verify(&c.plan()).satisfies(c.goal()),
                        "{} p={p} root={root} violates {:?}",
                        c.name(),
                        c.goal()
                    );
                }
            }
        }
    }

    #[test]
    fn single_process_patterns_are_empty() {
        for c in catalog(1, 0, 1024) {
            assert_eq!(c.stages(), 0, "{}", c.name());
            assert_eq!(c.plan().total_signals(), 0);
        }
    }

    #[test]
    fn binomial_depth_is_log() {
        for p in [2usize, 3, 4, 7, 8, 9, 16, 33] {
            let s = log2_ceil(p);
            assert_eq!(broadcast_binomial(p, 0, 1).stages(), s, "bcast p={p}");
            assert_eq!(reduce_binomial(p, 0, 1).stages(), s, "reduce p={p}");
            assert_eq!(scan(p, 1).stages(), s, "scan p={p}");
            assert_eq!(allreduce(p, 1).stages(), 2 * s, "allreduce p={p}");
        }
    }

    #[test]
    fn reduce_signal_count_is_p_minus_one() {
        // A combining tree delivers exactly one message per non-root.
        for p in 2..=33 {
            assert_eq!(
                reduce_binomial(p, 0, 1).plan().total_signals(),
                p - 1,
                "p={p}"
            );
            assert_eq!(
                broadcast_binomial(p, 0, 1).plan().total_signals(),
                p - 1,
                "p={p}"
            );
        }
    }

    #[test]
    fn allreduce_is_reduce_mirrored() {
        let a = allreduce(12, 64);
        let s = a.stages();
        for k in 0..s / 2 {
            assert_eq!(
                a.stage(s - 1 - k),
                &a.stage(k).transpose(),
                "stage {k} must mirror"
            );
        }
    }

    #[test]
    fn total_exchange_is_single_complete_stage() {
        let t = total_exchange(6, 128);
        assert_eq!(t.stages(), 1);
        assert_eq!(t.stage(0).edge_count(), 30);
        assert_eq!(t.payload().bytes(0), 128);
    }

    #[test]
    fn two_phase_broadcast_splits_payload() {
        let b = broadcast_two_phase(8, 0, 4096);
        assert_eq!(b.stages(), 2);
        assert_eq!(b.payload().bytes(0), 512);
        assert_eq!(b.payload().bytes(1), 512);
        // Non-dividing size rounds up.
        let c = broadcast_two_phase(8, 0, 4097);
        assert_eq!(c.payload().bytes(0), 513);
    }

    #[test]
    fn gather_payload_grows_geometrically() {
        let g = gather_binomial(16, 0, 100);
        assert_eq!(g.payload().bytes(0), 100);
        assert_eq!(g.payload().bytes(1), 200);
        assert_eq!(g.payload().bytes(2), 400);
        assert_eq!(g.payload().bytes(3), 800);
        // Final stage of a non-power-of-two gather carries the remainder.
        let g6 = gather_binomial(6, 0, 100);
        assert_eq!(g6.stages(), 3);
        assert_eq!(g6.payload().bytes(2), 200); // span min(4, 6-4) = 2
    }

    #[test]
    fn rooted_patterns_rotate_with_the_root() {
        let b = broadcast_flat(5, 3, 64);
        assert_eq!(b.stage(0).dsts(3), &[0, 1, 2, 4]);
        assert_eq!(b.stage(0).in_degree(3), 0);
        let r = reduce_binomial(5, 2, 64);
        let plan = r.plan();
        assert!(VerifyScratch::new()
            .verify(&plan)
            .satisfies(KnowledgeGoal::RootGathers(2)));
        assert_eq!(r.root(), Some(2));
    }

    #[test]
    fn scan_respects_boundaries() {
        let s = scan(5, 8);
        // Stage 0: i -> i+1 for i in 0..4.
        assert_eq!(s.stage(0).edge_count(), 4);
        // Stage 2 (shift 4): only 0 -> 4.
        assert_eq!(s.stage(2).edge_count(), 1);
        assert_eq!(s.stage(2).dsts(0), &[4]);
    }

    #[test]
    #[should_panic]
    fn root_out_of_range_rejected() {
        broadcast_flat(4, 4, 1);
    }
}
