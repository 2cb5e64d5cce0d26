//! Subset-size determination by latency-scale clustering (§7.2).
//!
//! The hybrid barriers of Chapter 7 need the process set partitioned into
//! subsets whose internal communication is an order of magnitude cheaper
//! than communication between them. The thesis derives these subsets from
//! the benchmarked latency matrix alone — no topology information is given
//! to the algorithm; locality is *recovered* from the measurements
//! (Tables 7.1/7.2 report the resulting clusterings for 60 processes on
//! the 8×2×4 machine and 115 on the 10×2×6).
//!
//! The procedure: collect all off-diagonal pairwise latencies, find the
//! widest gap between consecutive values in log space (the scale
//! separation), and union-find all pairs cheaper than that gap's midpoint.

use hpm_core::matrix::DMat;

/// A latency-scale clustering of processes.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Groups of process ranks, each sorted ascending; groups ordered by
    /// their smallest member.
    pub groups: Vec<Vec<usize>>,
    /// The latency threshold separating intra- from inter-group pairs.
    pub threshold: f64,
}

impl Clustering {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when every process forms its own group.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Group sizes in group order — the "output of SSS clustering" columns
    /// of Tables 7.1/7.2.
    pub fn sizes(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.len()).collect()
    }

    /// The representative (smallest rank) of each group.
    pub fn representatives(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g[0]).collect()
    }

    /// Renders the Tables 7.1/7.2 layout: one row per group with size and
    /// members.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(
            out,
            "clusters: {}  threshold: {:.3e} s",
            self.len(),
            self.threshold
        )
        .expect("writing to a String cannot fail");
        for (k, g) in self.groups.iter().enumerate() {
            writeln!(
                out,
                "  subset {k:>2}  size {:>3}  rep {:>3}  members {:?}",
                g.len(),
                g[0],
                g
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Finds the widest multiplicative gap in the sorted latencies and returns
/// its geometric midpoint; `None` if all latencies sit on one scale (gap
/// below a factor of 3).
fn scale_threshold(mut lats: Vec<f64>) -> Option<f64> {
    lats.retain(|&l| l > 0.0);
    if lats.len() < 2 {
        return None;
    }
    lats.sort_by(|a, b| a.partial_cmp(b).expect("NaN latency"));
    lats.dedup();
    let mut best_ratio = 1.0;
    let mut best_mid = None;
    for w in lats.windows(2) {
        let ratio = w[1] / w[0];
        if ratio > best_ratio {
            best_ratio = ratio;
            best_mid = Some((w[0] * w[1]).sqrt());
        }
    }
    (best_ratio > 3.0).then(|| best_mid.expect("midpoint set with ratio"))
}

/// Clusters processes by the dominant latency-scale separation of a
/// benchmarked `P×P` latency matrix. With no separation (single-scale
/// platform), every process is its own group and `threshold` is 0.
pub fn sss_clusters(latency: &DMat) -> Clustering {
    assert_eq!(
        latency.rows(),
        latency.cols(),
        "latency matrix must be square"
    );
    let p = latency.rows();
    let mut lats = Vec::with_capacity(p * (p - 1));
    for i in 0..p {
        for j in 0..p {
            if i != j {
                lats.push(latency.get(i, j));
            }
        }
    }
    let threshold = match scale_threshold(lats) {
        Some(t) => t,
        None => {
            return Clustering {
                groups: (0..p).map(|i| vec![i]).collect(),
                threshold: 0.0,
            }
        }
    };
    // Union-find over cheap pairs (symmetric closure: either direction
    // below threshold joins the pair).
    let mut parent: Vec<usize> = (0..p).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    for i in 0..p {
        for j in (i + 1)..p {
            if latency.get(i, j) < threshold || latency.get(j, i) < threshold {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
    }
    let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..p {
        let r = find(&mut parent, i);
        by_root.entry(r).or_default().push(i);
    }
    Clustering {
        groups: by_root.into_values().collect(),
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic latency matrix: `groups[k]` share a 1 µs scale, cross
    /// pairs cost 10 µs.
    fn two_scale(p: usize, group_of: impl Fn(usize) -> usize) -> DMat {
        DMat::from_fn(p, p, |i, j| {
            if i == j {
                0.0
            } else if group_of(i) == group_of(j) {
                1e-6 + (i + j) as f64 * 1e-9 // slight in-scale spread
            } else {
                1e-5 + (i * j % 7) as f64 * 1e-8
            }
        })
    }

    #[test]
    fn recovers_node_groups() {
        // 12 processes round-robin over 3 "nodes": group = rank % 3.
        let l = two_scale(12, |r| r % 3);
        let c = sss_clusters(&l);
        assert_eq!(c.len(), 3);
        assert_eq!(c.sizes(), vec![4, 4, 4]);
        assert_eq!(c.groups[0], [0, 3, 6, 9]);
    }

    #[test]
    fn uneven_groups_like_table_7_1() {
        // 60 processes round-robin on 8 nodes: sizes 8,8,8,8,7,7,7,7.
        let l = two_scale(60, |r| r % 8);
        let c = sss_clusters(&l);
        assert_eq!(c.len(), 8);
        let mut sizes = c.sizes();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![7, 7, 7, 7, 8, 8, 8, 8]);
    }

    #[test]
    fn single_scale_yields_singletons() {
        let l = DMat::from_fn(6, 6, |i, j| if i == j { 0.0 } else { 1e-6 });
        let c = sss_clusters(&l);
        assert_eq!(c.len(), 6);
        assert_eq!(c.threshold, 0.0);
    }

    #[test]
    fn representatives_are_smallest_members() {
        let l = two_scale(9, |r| r / 3);
        let c = sss_clusters(&l);
        assert_eq!(c.representatives(), vec![0, 3, 6]);
    }

    #[test]
    fn threshold_sits_between_scales() {
        let l = two_scale(8, |r| r % 2);
        let c = sss_clusters(&l);
        assert!(
            c.threshold > 1.2e-6 && c.threshold < 1e-5,
            "{}",
            c.threshold
        );
    }

    #[test]
    fn render_mentions_every_subset() {
        let l = two_scale(6, |r| r % 2);
        let text = sss_clusters(&l).render();
        assert!(text.contains("subset  0"));
        assert!(text.contains("subset  1"));
    }

    #[test]
    fn asymmetric_cheap_direction_still_joins() {
        let mut l = DMat::from_fn(4, 4, |i, j| if i == j { 0.0 } else { 1e-4 });
        l.set(0, 1, 1e-6); // only one direction is cheap
        l.set(2, 3, 1e-6);
        let c = sss_clusters(&l);
        assert_eq!(c.len(), 2);
        assert_eq!(c.groups[0], vec![0, 1]);
        assert_eq!(c.groups[1], vec![2, 3]);
    }
}
