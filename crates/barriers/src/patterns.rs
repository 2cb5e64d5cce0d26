//! Builders for the standard barrier algorithms (§5.3, Figs. 5.2–5.4).
//!
//! Each builder authors its stages as edge lists, straight into the
//! sparse [`StagePlan`] form (the matrices of Figs. 5.2–5.4 are what
//! `render()` prints from it). The linear and tree barriers follow the
//! gather/release structure whose release stages are the transposed
//! arrival stages in reverse order; the dissemination barrier is the
//! cyclic-shift pattern `i → (i + 2^s) mod P`. The ring and all-to-all
//! patterns are the §5.6.6 extremities of the design space (minimum and
//! maximum concurrent communication), included because the thesis
//! discusses them as the boundary cases where prediction quality
//! degrades. Every builder returns the pattern's [`CompiledPattern`].

use hpm_core::pattern::{log2_ceil, validate_stages};
use hpm_core::plan::{CompiledPattern, StagePlan};

/// Compiles a barrier's stages after the checks every barrier must pass:
/// at least one process, at least one stage (barriers always
/// communicate), and every stage `p` wide and non-empty.
pub(crate) fn barrier(name: &str, p: usize, stages: Vec<StagePlan>) -> CompiledPattern {
    assert!(!stages.is_empty(), "pattern needs at least one stage");
    validate_stages(p, &stages);
    CompiledPattern::from_stages(name, p, stages)
}

/// The linear barrier (Fig. 5.2): every process signals `root`, then
/// `root` signals everyone.
pub fn linear(p: usize, root: usize) -> CompiledPattern {
    assert!(p >= 2, "a barrier needs at least two processes");
    assert!(root < p, "root out of range");
    let gather: Vec<(usize, usize)> = (0..p).filter(|&i| i != root).map(|i| (i, root)).collect();
    let gather = StagePlan::from_edges(p, &gather);
    let release = gather.transpose();
    barrier("linear", p, vec![gather, release])
}

/// The dissemination barrier (Fig. 5.3): `⌈log₂P⌉` stages of cyclic shifts,
/// stage `s` signalling `i → (i + 2^s) mod P`.
pub fn dissemination(p: usize) -> CompiledPattern {
    assert!(p >= 2, "a barrier needs at least two processes");
    let stages = (0..log2_ceil(p))
        .map(|s| {
            let edges: Vec<(usize, usize)> = (0..p).map(|i| (i, (i + (1 << s)) % p)).collect();
            StagePlan::from_edges(p, &edges)
        })
        .collect();
    barrier("dissemination", p, stages)
}

/// Alias of [`dissemination`], kept because the benchmark harness's
/// pinned surface (`benchmark/src/surface.rs`) names it.
pub fn dissemination_plan(p: usize) -> CompiledPattern {
    dissemination(p)
}

/// A k-ary tree barrier rooted at rank 0 with heap indexing
/// (`parent(i) = (i−1)/degree`): arrival stages from the deepest level up,
/// then the transposed stages in reverse as release (Fig. 5.4's
/// construction rule).
pub fn kary_tree(p: usize, degree: usize) -> CompiledPattern {
    assert!(p >= 2, "a barrier needs at least two processes");
    assert!(degree >= 1, "tree degree must be at least 1");
    let depth_of = |i: usize| -> usize {
        let mut d = 0;
        let mut node = i;
        while node > 0 {
            node = (node - 1) / degree;
            d += 1;
        }
        d
    };
    let max_depth = (0..p).map(depth_of).max().expect("non-empty");
    let mut arrival: Vec<StagePlan> = Vec::new();
    for level in (1..=max_depth).rev() {
        let edges: Vec<(usize, usize)> = (1..p)
            .filter(|&i| depth_of(i) == level)
            .map(|i| (i, (i - 1) / degree))
            .collect();
        if !edges.is_empty() {
            arrival.push(StagePlan::from_edges(p, &edges));
        }
    }
    let release: Vec<StagePlan> = arrival.iter().rev().map(StagePlan::transpose).collect();
    let mut stages = arrival;
    stages.extend(release);
    barrier(&format!("tree-{degree}"), p, stages)
}

/// Binary tree barrier — the `T` of Figs. 5.6–5.13.
pub fn binary_tree(p: usize) -> CompiledPattern {
    kary_tree(p, 2)
}

/// The token-ring barrier: `2(P−1)` stages with a single signal each —
/// the minimum-concurrency extremity (§5.6.6).
pub fn ring(p: usize) -> CompiledPattern {
    assert!(p >= 2, "a barrier needs at least two processes");
    let stages = (0..2 * (p - 1))
        .map(|k| StagePlan::from_edges(p, &[(k % p, (k + 1) % p)]))
        .collect();
    barrier("ring", p, stages)
}

/// The single-stage all-to-all barrier: every ordered pair signals at once
/// — the maximum-concurrency extremity (§5.6.6).
pub fn all_to_all(p: usize) -> CompiledPattern {
    assert!(p >= 2, "a barrier needs at least two processes");
    barrier("all-to-all", p, vec![StagePlan::complete(p)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpm_core::knowledge::VerifyScratch;
    use hpm_core::pattern::CommPattern;

    fn synchronizes(b: &CompiledPattern) -> bool {
        VerifyScratch::new().verify(b).synchronizes()
    }

    #[test]
    fn all_builders_synchronize_across_process_counts() {
        for p in 2..=33 {
            assert!(synchronizes(&linear(p, 0)), "linear {p}");
            assert!(synchronizes(&dissemination(p)), "dissemination {p}");
            assert!(synchronizes(&binary_tree(p)), "binary tree {p}");
            assert!(synchronizes(&kary_tree(p, 4)), "4-ary tree {p}");
            assert!(synchronizes(&ring(p)), "ring {p}");
            assert!(synchronizes(&all_to_all(p)), "all-to-all {p}");
        }
    }

    #[test]
    fn linear_with_nonzero_root() {
        let b = linear(5, 3);
        assert!(synchronizes(&b));
        assert_eq!(b.stage(0).srcs(3), &[0, 1, 2, 4]);
    }

    #[test]
    fn fig_5_3_dissemination_4() {
        let b = dissemination(4);
        assert_eq!(b.stages(), 2);
        // Stage 0: i → i+1 mod 4.
        assert_eq!(b.stage(0).dsts(0), &[1]);
        assert_eq!(b.stage(0).dsts(3), &[0]);
        // Stage 1: i → i+2 mod 4.
        assert_eq!(b.stage(1).dsts(0), &[2]);
        assert_eq!(b.stage(1).dsts(3), &[1]);
    }

    #[test]
    fn tree_release_is_transposed_reverse() {
        let b = binary_tree(7);
        let s = b.stages();
        for k in 0..s / 2 {
            assert_eq!(
                b.stage(s - 1 - k),
                &b.stage(k).transpose(),
                "release stage {k} must mirror arrival"
            );
        }
    }

    #[test]
    fn dissemination_stage_count_is_log_ceil() {
        assert_eq!(dissemination(8).stages(), 3);
        assert_eq!(dissemination(9).stages(), 4);
        assert_eq!(dissemination(64).stages(), 6);
        assert_eq!(dissemination(65).stages(), 7);
    }

    #[test]
    fn every_process_signals_once_per_dissemination_stage() {
        let b = dissemination(12);
        for s in 0..b.stages() {
            for i in 0..12 {
                assert_eq!(b.stage(s).out_degree(i), 1, "stage {s} proc {i}");
            }
        }
    }

    #[test]
    fn ring_has_one_signal_per_stage() {
        let b = ring(6);
        assert_eq!(b.stages(), 10);
        for s in 0..b.stages() {
            assert_eq!(b.stage(s).edge_count(), 1);
        }
    }

    #[test]
    fn all_to_all_is_complete() {
        let b = all_to_all(5);
        assert_eq!(b.stages(), 1);
        assert_eq!(b.stage(0).edge_count(), 20);
    }

    #[test]
    fn tree_signal_count_is_two_p_minus_two() {
        // Each non-root signals its parent once and is released once.
        for p in [2usize, 5, 8, 16, 23] {
            assert_eq!(binary_tree(p).total_signals(), 2 * (p - 1), "p={p}");
        }
    }

    /// The matrices of Figs. 5.2–5.4 are still what a builder's stages
    /// denote: `render()` is the dense `IMat` text of the same edges.
    #[test]
    fn render_is_the_incidence_matrix_of_the_figures() {
        use hpm_core::matrix::IMat;
        let s0 = IMat::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s1 = IMat::from_edges(4, &[(0, 2), (1, 3), (2, 0), (3, 1)]);
        assert_eq!(dissemination(4).render(), format!("S0 =\n{s0}S1 =\n{s1}"));
    }

    #[test]
    fn unary_tree_degenerates_to_chain() {
        let b = kary_tree(4, 1);
        assert!(synchronizes(&b));
        // Chain of depth 3: 6 stages.
        assert_eq!(b.stages(), 6);
    }

    #[test]
    #[should_panic]
    fn zero_stages_rejected_for_barriers() {
        barrier("bad", 3, Vec::new());
    }

    #[test]
    #[should_panic]
    fn empty_stage_rejected() {
        barrier("bad", 3, vec![StagePlan::from_edges(3, &[])]);
    }
}
