//! Hierarchical hybrid barrier composition (§7.1, Fig. 7.2).
//!
//! A hybrid barrier synchronizes each subset internally (gathering to a
//! representative), synchronizes the representatives with an arbitrary
//! top-level pattern, and releases each subset (the transposed gather in
//! reverse). Subsets of different depth are aligned so that all gathers
//! finish together: gather stages are right-aligned before the top-level
//! phase, release stages left-aligned after it.

use crate::patterns;
use hpm_core::plan::{CompiledPattern, StagePlan};

/// How a subset gathers to (and is released by) its representative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherShape {
    /// Every member signals the representative directly in one stage.
    Flat,
    /// A `degree`-ary tree over the subset (heap indexing in subset
    /// order), one stage per level.
    Tree(usize),
}

impl GatherShape {
    /// Human-readable label.
    pub fn label(&self) -> String {
        match self {
            GatherShape::Flat => "flat".into(),
            GatherShape::Tree(d) => format!("tree-{d}"),
        }
    }
}

/// Gather stages for one subset: edges in *global* ranks, deepest level
/// first, everything flowing to `group[0]`.
fn gather_stages(group: &[usize], shape: GatherShape) -> Vec<Vec<(usize, usize)>> {
    let n = group.len();
    if n <= 1 {
        return Vec::new();
    }
    match shape {
        GatherShape::Flat => {
            vec![(1..n).map(|k| (group[k], group[0])).collect()]
        }
        GatherShape::Tree(degree) => {
            assert!(degree >= 1, "tree degree must be at least 1");
            let depth_of = |k: usize| -> usize {
                let mut d = 0;
                let mut node = k;
                while node > 0 {
                    node = (node - 1) / degree;
                    d += 1;
                }
                d
            };
            let max_depth = (0..n).map(depth_of).max().expect("non-empty");
            (1..=max_depth)
                .rev()
                .map(|level| {
                    (1..n)
                        .filter(|&k| depth_of(k) == level)
                        .map(|k| (group[k], group[(k - 1) / degree]))
                        .collect::<Vec<_>>()
                })
                .filter(|edges: &Vec<_>| !edges.is_empty())
                .collect()
        }
    }
}

/// Composes a hierarchical hybrid barrier.
///
/// * `p` — total process count; `groups` must partition `0..p`;
/// * `shapes` — one gather shape per group;
/// * `inter` — top-level pattern over *group indices* (its process count
///   must equal `groups.len()`); `None` only when there is a single group.
pub fn hybrid_barrier(
    p: usize,
    groups: &[Vec<usize>],
    shapes: &[GatherShape],
    inter: Option<&CompiledPattern>,
) -> CompiledPattern {
    assert!(!groups.is_empty(), "need at least one group");
    assert_eq!(groups.len(), shapes.len(), "one shape per group");
    // Partition check.
    let mut seen = vec![false; p];
    for g in groups {
        assert!(!g.is_empty(), "empty group");
        for w in g.windows(2) {
            assert!(w[0] < w[1], "group members must be sorted ascending");
        }
        for &r in g {
            assert!(r < p, "rank {r} out of range");
            assert!(!seen[r], "rank {r} appears in two groups");
            seen[r] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "groups must cover every rank");
    match inter {
        Some(ip) => assert_eq!(
            ip.p(),
            groups.len(),
            "inter pattern must span exactly the representatives"
        ),
        None => assert_eq!(groups.len(), 1, "multiple groups need an inter pattern"),
    }

    let per_group: Vec<Vec<Vec<(usize, usize)>>> = groups
        .iter()
        .zip(shapes.iter())
        .map(|(g, &s)| gather_stages(g, s))
        .collect();
    let max_depth = per_group.iter().map(|s| s.len()).max().unwrap_or(0);

    let mut stages: Vec<StagePlan> = Vec::new();
    // Gather phase, right-aligned.
    for k in 0..max_depth {
        let mut edges = Vec::new();
        for gs in &per_group {
            let offset = max_depth - gs.len();
            if k >= offset {
                edges.extend_from_slice(&gs[k - offset]);
            }
        }
        if !edges.is_empty() {
            stages.push(StagePlan::from_edges(p, &edges));
        }
    }
    // Top-level phase over representatives.
    if let Some(ip) = inter {
        let reps: Vec<usize> = groups.iter().map(|g| g[0]).collect();
        for s in 0..ip.stages() {
            let mut edges = Vec::new();
            for a in 0..ip.p() {
                for &b in ip.stage(s).dsts(a) {
                    edges.push((reps[a], reps[b]));
                }
            }
            stages.push(StagePlan::from_edges(p, &edges));
        }
    }
    // Release phase, left-aligned: transposed gathers in reverse order.
    for k in 0..max_depth {
        let mut edges = Vec::new();
        for gs in &per_group {
            // Reverse order: release stage k corresponds to gather stage
            // len−1−k of this group.
            if k < gs.len() {
                let src_stage = &gs[gs.len() - 1 - k];
                edges.extend(src_stage.iter().map(|&(a, b)| (b, a)));
            }
        }
        if !edges.is_empty() {
            stages.push(StagePlan::from_edges(p, &edges));
        }
    }
    let inter_name = inter.map(|i| i.name().to_string()).unwrap_or_default();
    let shape_names: Vec<String> = shapes.iter().map(|s| s.label()).collect();
    patterns::barrier(
        &format!("hybrid[{}|{}]", shape_names.join(","), inter_name),
        p,
        stages,
    )
}

/// Convenience: one group per node-like cluster, flat gathers, a
/// dissemination top level — the common-sense hierarchical default the
/// greedy constructor competes with.
pub fn flat_dissemination_hybrid(p: usize, groups: &[Vec<usize>]) -> CompiledPattern {
    let shapes = vec![GatherShape::Flat; groups.len()];
    if groups.len() == 1 {
        hybrid_barrier(p, groups, &shapes, None)
    } else {
        let inter = patterns::dissemination(groups.len());
        hybrid_barrier(p, groups, &shapes, Some(&inter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_core::knowledge::VerifyScratch;

    fn groups_round_robin(p: usize, nodes: usize) -> Vec<Vec<usize>> {
        let mut g = vec![Vec::new(); nodes];
        for r in 0..p {
            g[r % nodes].push(r);
        }
        g.retain(|v| !v.is_empty());
        g
    }

    #[test]
    fn hybrid_synchronizes_for_many_partitions() {
        for p in [4usize, 7, 12, 16, 24] {
            for nodes in [2usize, 3, 4] {
                if nodes >= p {
                    continue;
                }
                let groups = groups_round_robin(p, nodes);
                let b = flat_dissemination_hybrid(p, &groups);
                assert!(
                    VerifyScratch::new().verify(&b).synchronizes(),
                    "p={p} nodes={nodes}"
                );
            }
        }
    }

    #[test]
    fn tree_gather_hybrid_synchronizes() {
        let p = 18;
        let groups = groups_round_robin(p, 3);
        let shapes = vec![GatherShape::Tree(2); 3];
        let inter = patterns::binary_tree(3);
        let b = hybrid_barrier(p, &groups, &shapes, Some(&inter));
        assert!(VerifyScratch::new().verify(&b).synchronizes());
    }

    #[test]
    fn mixed_shapes_and_uneven_groups() {
        let groups = vec![vec![0, 1, 2, 3, 4, 5, 6], vec![7, 8], vec![9]];
        let shapes = vec![GatherShape::Tree(2), GatherShape::Flat, GatherShape::Flat];
        let inter = patterns::linear(3, 0);
        let b = hybrid_barrier(10, &groups, &shapes, Some(&inter));
        assert!(VerifyScratch::new().verify(&b).synchronizes());
    }

    #[test]
    fn single_group_needs_no_inter() {
        let b = hybrid_barrier(6, &[vec![0, 1, 2, 3, 4, 5]], &[GatherShape::Tree(2)], None);
        assert!(VerifyScratch::new().verify(&b).synchronizes());
    }

    #[test]
    fn stage_count_right_aligns_gathers() {
        // Groups of depth 1 (flat pairs) and depth 2 (tree of 4): total
        // gather depth is 2, inter adds its stages, release adds 2.
        let groups = vec![vec![0, 1, 2, 3], vec![4, 5]];
        let shapes = vec![GatherShape::Tree(2), GatherShape::Flat];
        let inter = patterns::linear(2, 0);
        let b = hybrid_barrier(6, &groups, &shapes, Some(&inter));
        assert_eq!(b.stages(), 2 + 2 + 2);
        assert!(VerifyScratch::new().verify(&b).synchronizes());
    }

    #[test]
    fn signals_flow_to_representatives_first() {
        let groups = vec![vec![0, 2, 4], vec![1, 3, 5]];
        let b = flat_dissemination_hybrid(6, &groups);
        // Stage 0: members signal reps 0 and 1.
        assert_eq!(b.stage(0).srcs(0), &[2, 4]);
        assert_eq!(b.stage(0).srcs(1), &[3, 5]);
    }

    #[test]
    #[should_panic]
    fn overlapping_groups_rejected() {
        hybrid_barrier(
            4,
            &[vec![0, 1], vec![1, 2, 3]],
            &[GatherShape::Flat, GatherShape::Flat],
            Some(&patterns::linear(2, 0)),
        );
    }

    #[test]
    #[should_panic]
    fn incomplete_cover_rejected() {
        hybrid_barrier(
            5,
            &[vec![0, 1], vec![2, 3]],
            &[GatherShape::Flat, GatherShape::Flat],
            Some(&patterns::linear(2, 0)),
        );
    }
}
