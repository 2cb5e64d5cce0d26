//! Greedy, adaptive barrier construction (§7.3, Fig. 7.3).
//!
//! Fully automatic barrier generation from a platform profile: cluster the
//! latency matrix into subsets (§7.2), greedily choose the cheapest gather
//! shape for every subset using the cost predictor on the subset's own
//! view of the cost model, then choose the top-level pattern by predicting
//! the cost of each complete composition. The thesis' Chapter-7 result is
//! that the barriers this procedure emits equal or outperform the library
//! defaults on both test clusters (Figs. 7.6–7.7).

use crate::hybrid::{hybrid_barrier, GatherShape};
use crate::patterns;
use crate::sss::{sss_clusters, Clustering};
use hpm_core::matrix::DMat;
use hpm_core::plan::CompiledPattern;
use hpm_core::predictor::{predict_compiled_with, CostModel, PairCost, PayloadSchedule};

/// The constructed barrier plus the decisions that produced it.
#[derive(Debug, Clone)]
pub struct GreedyReport {
    /// The generated pattern.
    pub pattern: CompiledPattern,
    /// The latency clustering the construction was based on.
    pub clustering: Clustering,
    /// Chosen gather shape and predicted subset cost per group.
    pub intra_choices: Vec<(GatherShape, f64)>,
    /// Name and predicted total of the winning top-level pattern.
    pub inter_choice: (String, f64),
    /// Predicted total cost of the emitted barrier.
    pub predicted_total: f64,
}

/// A cost model restricted to a subset of ranks: local rank `i` is
/// global rank `ranks[i]`.
struct Subset<'a, C: ?Sized> {
    costs: &'a C,
    ranks: &'a [usize],
}

impl<C: CostModel + ?Sized> CostModel for Subset<'_, C> {
    fn p(&self) -> usize {
        self.ranks.len()
    }
    fn o_self(&self, i: usize) -> f64 {
        self.costs.o_self(self.ranks[i])
    }
    fn pair(&self, i: usize, j: usize) -> PairCost {
        self.costs.pair(self.ranks[i], self.ranks[j])
    }
}

/// Predicted cost of a standalone `shape` gather+release barrier over
/// `ranks` (at least two), in isolation from the other processes.
pub fn subset_cost<C: CostModel + ?Sized>(costs: &C, ranks: &[usize], shape: GatherShape) -> f64 {
    let plan = match shape {
        GatherShape::Flat => patterns::linear(ranks.len(), 0),
        GatherShape::Tree(d) => patterns::kary_tree(ranks.len(), d),
    };
    predict_compiled_with(&plan, &Subset { costs, ranks }, &PayloadSchedule::none()).total
}

/// Candidate gather shapes for a subset of `n` members.
fn intra_candidates(n: usize) -> Vec<GatherShape> {
    if n <= 3 {
        vec![GatherShape::Flat]
    } else {
        vec![
            GatherShape::Flat,
            GatherShape::Tree(2),
            GatherShape::Tree(4),
        ]
    }
}

/// Constructs a customized barrier for the platform described by `costs`.
pub fn greedy_adaptive_barrier<C: CostModel + ?Sized>(costs: &C) -> GreedyReport {
    let p = costs.p();
    assert!(p >= 2, "a barrier needs at least two processes");
    // SSS never reads the diagonal.
    let latency = DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { costs.pair(i, j).l });
    let clustering = sss_clusters(&latency);
    let payload = PayloadSchedule::none();

    // Degenerate single-scale platform: pick the best flat algorithm.
    if clustering.len() == p || clustering.len() == 1 {
        let candidates: Vec<CompiledPattern> = vec![
            patterns::linear(p, 0),
            patterns::binary_tree(p),
            patterns::kary_tree(p, 4),
            patterns::dissemination(p),
        ];
        let (best, cost) = candidates
            .into_iter()
            .map(|b| {
                let c = predict_compiled_with(&b, costs, &payload).total;
                (b, c)
            })
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN prediction"))
            .expect("non-empty candidates");
        let name = best.name().to_string();
        return GreedyReport {
            pattern: best,
            clustering,
            intra_choices: Vec::new(),
            inter_choice: (name, cost),
            predicted_total: cost,
        };
    }

    // Greedy per-subset gather choice.
    let mut shapes = Vec::with_capacity(clustering.len());
    let mut intra_choices = Vec::with_capacity(clustering.len());
    for group in &clustering.groups {
        if group.len() == 1 {
            shapes.push(GatherShape::Flat);
            intra_choices.push((GatherShape::Flat, 0.0));
            continue;
        }
        let (shape, cost) = intra_candidates(group.len())
            .into_iter()
            .map(|s| (s, subset_cost(costs, group, s)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN prediction"))
            .expect("non-empty candidates");
        shapes.push(shape);
        intra_choices.push((shape, cost));
    }

    // Top-level choice by full-composition prediction.
    let m = clustering.len();
    let inter_candidates: Vec<CompiledPattern> = if m == 2 {
        vec![patterns::linear(2, 0)]
    } else {
        vec![
            patterns::linear(m, 0),
            patterns::binary_tree(m),
            patterns::dissemination(m),
        ]
    };
    let mut candidates: Vec<(CompiledPattern, String, f64)> = inter_candidates
        .into_iter()
        .map(|inter| {
            let name = inter.name().to_string();
            let full = hybrid_barrier(p, &clustering.groups, &shapes, Some(&inter));
            let t = predict_compiled_with(&full, costs, &payload).total;
            (full, name, t)
        })
        .collect();
    // The flat defaults compete too: on placements where a default
    // pattern's shifts happen to stay subset-local (e.g. dissemination
    // under round-robin with power-of-two node counts), it can beat any
    // hierarchical composition, and the constructor must never emit a
    // barrier worse than a library default it can predict.
    for flat in [
        patterns::linear(p, 0),
        patterns::binary_tree(p),
        patterns::kary_tree(p, 4),
        patterns::dissemination(p),
    ] {
        let t = predict_compiled_with(&flat, costs, &payload).total;
        let name = flat.name().to_string();
        candidates.push((flat, name, t));
    }
    let (pattern, inter_name, total) = candidates
        .into_iter()
        .min_by(|a, b| a.2.partial_cmp(&b.2).expect("NaN prediction"))
        .expect("non-empty candidates");

    GreedyReport {
        pattern,
        clustering,
        intra_choices,
        inter_choice: (inter_name, total),
        predicted_total: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_core::knowledge::VerifyScratch;
    use hpm_core::predictor::CommCosts;

    /// Two-scale synthetic cost model: `nodes` groups by `rank % nodes`.
    fn synthetic_costs(p: usize, nodes: usize) -> CommCosts {
        let local = 1e-6;
        let remote = 1e-5;
        let l = DMat::from_fn(p, p, |i, j| {
            if i == j {
                0.0
            } else if i % nodes == j % nodes {
                local
            } else {
                remote
            }
        });
        let o = DMat::from_fn(p, p, |i, j| if i == j { 3e-7 } else { 5e-7 });
        CommCosts::new(o, l, DMat::zeros(p, p))
    }

    #[test]
    fn generated_barrier_synchronizes() {
        for (p, nodes) in [(16usize, 2usize), (24, 3), (60, 8), (31, 4)] {
            let rep = greedy_adaptive_barrier(&synthetic_costs(p, nodes));
            assert!(
                VerifyScratch::new().verify(&rep.pattern).synchronizes(),
                "p={p} nodes={nodes}"
            );
        }
    }

    #[test]
    fn clustering_matches_synthetic_structure() {
        let rep = greedy_adaptive_barrier(&synthetic_costs(24, 3));
        assert_eq!(rep.clustering.len(), 3);
        assert_eq!(rep.intra_choices.len(), 3);
    }

    #[test]
    fn prediction_not_worse_than_defaults() {
        // The construction is chosen by predicted cost, so its prediction
        // must be ≤ every flat default's prediction on the same model.
        let costs = synthetic_costs(32, 4);
        let rep = greedy_adaptive_barrier(&costs);
        let payload = PayloadSchedule::none();
        for pat in [
            patterns::linear(32, 0),
            patterns::binary_tree(32),
            patterns::dissemination(32),
        ] {
            let d = predict_compiled_with(&pat, &costs, &payload).total;
            assert!(
                rep.predicted_total <= d * 1.001,
                "adaptive {} must not lose to {} ({d})",
                rep.predicted_total,
                pat.name()
            );
        }
    }

    #[test]
    fn single_scale_platform_falls_back_to_flat_choice() {
        let p = 12;
        let l = DMat::from_fn(p, p, |i, j| if i == j { 0.0 } else { 2e-6 });
        let o = DMat::from_fn(p, p, |i, j| if i == j { 1e-7 } else { 2e-7 });
        let costs = CommCosts::new(o, l, DMat::zeros(p, p));
        let rep = greedy_adaptive_barrier(&costs);
        assert!(VerifyScratch::new().verify(&rep.pattern).synchronizes());
        assert!(rep.intra_choices.is_empty());
        // On a uniform platform the log-depth patterns win.
        assert_ne!(rep.inter_choice.0, "linear");
    }

    #[test]
    fn large_subsets_prefer_trees_over_flat_when_overhead_dominates() {
        // Make per-request overhead huge relative to latency: a flat
        // 16-member gather serializes 15 round trips at the rep, while a
        // tree spreads them — the predictor must notice.
        let p = 32;
        let l = DMat::from_fn(p, p, |i, j| {
            if i == j {
                0.0
            } else if i % 2 == j % 2 {
                5e-6
            } else {
                5e-5
            }
        });
        let o = DMat::from_fn(p, p, |_, _| 1e-7);
        let costs = CommCosts::new(o, l, DMat::zeros(p, p));
        let rep = greedy_adaptive_barrier(&costs);
        assert_eq!(rep.clustering.len(), 2);
        for (shape, _) in &rep.intra_choices {
            assert_ne!(*shape, GatherShape::Flat, "16-member subsets should tree");
        }
    }
}
