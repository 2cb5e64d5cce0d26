//! Rank-to-core placements.
//!
//! §5.2 describes how all experiments pin processes: node allocation comes
//! from the system scheduler (round-robin by default on the test clusters,
//! §5.6.6), and within a node the sorted list of resident ranks maps each
//! rank to the core index of its list position. Several emergent results
//! (the odd/even oscillation of the dissemination barrier on two nodes, the
//! power-of-two dips of the tree barrier) are artifacts of this mapping, so
//! it must be modeled exactly.

use crate::shape::{ClusterShape, CoreId, LinkClass};

/// How ranks are distributed over nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Rank `r` on node `r mod U` where `U` is the number of nodes in use —
    /// the default of the thesis' schedulers.
    RoundRobin,
    /// Rank `r` on node `r / cores_per_node` — consecutive ranks packed on
    /// a node.
    Block,
    /// Rank `r` alone on node `r` — one process per node, the placement
    /// of hybrid (threads + message passing) runs (§8.3.3). Requires
    /// `nprocs ≤ nodes`.
    Spread,
}

/// Hierarchical link classification and node residency of a placement.
///
/// Per-message link classification sits on the innermost loop of every
/// simulator path (each signal round trip classifies its endpoints, and
/// NIC egress accounting asks for the sender's node). The class of an
/// ordered pair is a pure function of the machine hierarchy — same rank,
/// same socket, same node, or neither — so the map stores only the
/// rank → node and rank → global-socket arrays (O(ranks) bytes) and
/// recomputes the class from two indexed loads and a comparison chain.
/// Earlier revisions compiled the full `P×P` byte matrix instead; at
/// p = 4096 that is 16.7 MB per placement, and the dense derivation now
/// survives only as the test oracle (`shape.link_class` over `core_of`).
///
/// Because every rank occupies a distinct core, the comparison chain is
/// exactly [`ClusterShape::link_class`] on the ranks' cores: equal ranks
/// are the self loop, distinct ranks on one socket share that socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMap {
    nprocs: usize,
    node_of: Vec<usize>,
    /// Global socket index (`node * sockets_per_node + socket`) per rank.
    socket_of: Vec<usize>,
}

impl LinkMap {
    fn new(shape: &ClusterShape, cores: &[CoreId]) -> LinkMap {
        let spn = shape.sockets_per_node();
        LinkMap {
            nprocs: cores.len(),
            node_of: cores.iter().map(|c| c.node).collect(),
            socket_of: cores.iter().map(|c| c.node * spn + c.socket).collect(),
        }
    }

    /// Link class between two ranks — two indexed loads and a comparison
    /// chain. Debug builds keep an explicit pair bounds check with rank
    /// context.
    #[inline]
    #[must_use]
    pub fn class(&self, a: usize, b: usize) -> LinkClass {
        debug_assert!(
            a < self.nprocs && b < self.nprocs,
            "rank pair ({a},{b}) out of range for {} processes",
            self.nprocs
        );
        if a == b {
            LinkClass::SelfLoop
        } else if self.node_of[a] != self.node_of[b] {
            LinkClass::Remote
        } else if self.socket_of[a] != self.socket_of[b] {
            LinkClass::SameNode
        } else {
            LinkClass::SameSocket
        }
    }

    /// Node hosting a rank — the cached `core_of(rank).node`.
    #[inline]
    #[must_use]
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Global socket index (`node * sockets_per_node + socket`) hosting a
    /// rank — the second hierarchy level the classifier reads.
    #[inline]
    #[must_use]
    pub fn socket_of(&self, rank: usize) -> usize {
        self.socket_of[rank]
    }

    /// Heap bytes held by the map: two words per rank, no pairwise table.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        std::mem::size_of::<usize>() * (self.node_of.capacity() + self.socket_of.capacity())
    }
}

/// A concrete assignment of `nprocs` ranks to cores of a cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    shape: ClusterShape,
    policy: PlacementPolicy,
    nprocs: usize,
    cores: Vec<CoreId>,
    links: LinkMap,
    /// Ranks resident on each node, ascending — the §5.2 in-node lists.
    node_ranks: Vec<Vec<usize>>,
    remote_pairs: usize,
}

impl Placement {
    /// Places `nprocs` ranks on `shape` under `policy`.
    ///
    /// Panics if `nprocs` is zero or exceeds the machine.
    pub fn new(shape: ClusterShape, policy: PlacementPolicy, nprocs: usize) -> Placement {
        assert!(nprocs > 0, "placement needs at least one process");
        assert!(
            nprocs <= shape.total_cores(),
            "cannot place {nprocs} processes on {} cores",
            shape.total_cores()
        );
        let cpn = shape.cores_per_node();
        let nodes_used = nprocs.div_ceil(cpn).min(shape.nodes());
        if policy == PlacementPolicy::Spread {
            assert!(
                nprocs <= shape.nodes(),
                "spread placement needs one node per rank ({nprocs} ranks, {} nodes)",
                shape.nodes()
            );
        }
        let cores: Vec<CoreId> = (0..nprocs)
            .map(|r| match policy {
                PlacementPolicy::RoundRobin => {
                    let node = r % nodes_used;
                    let idx = r / nodes_used;
                    shape.core_at(node, idx)
                }
                PlacementPolicy::Block => shape.core_at(r / cpn, r % cpn),
                PlacementPolicy::Spread => shape.core_at(r, 0),
            })
            .collect();
        let links = LinkMap::new(&shape, &cores);
        let mut node_ranks = vec![Vec::new(); shape.nodes()];
        for (r, c) in cores.iter().enumerate() {
            node_ranks[c.node].push(r);
        }
        // Closed form instead of a P×P sweep: an ordered pair is remote
        // iff its ranks sit on different nodes, so the remote count is
        // all ordered pairs minus the same-node ones (which include the
        // never-remote diagonal): p² − Σ_n cnt_n².
        let remote_pairs =
            nprocs * nprocs - node_ranks.iter().map(|r| r.len() * r.len()).sum::<usize>();
        Placement {
            shape,
            policy,
            nprocs,
            cores,
            links,
            node_ranks,
            remote_pairs,
        }
    }

    /// The cluster shape this placement lives on.
    #[must_use]
    pub fn shape(&self) -> ClusterShape {
        self.shape
    }

    /// Placement policy in effect.
    #[must_use]
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Number of placed ranks.
    #[must_use]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Physical core of a rank.
    #[must_use]
    pub fn core_of(&self, rank: usize) -> CoreId {
        self.cores[rank]
    }

    /// Node hosting a rank — served from the precomputed [`LinkMap`].
    #[inline]
    #[must_use]
    pub fn node_of(&self, rank: usize) -> usize {
        self.links.node_of(rank)
    }

    /// Link class between two ranks — one load from the precomputed
    /// [`LinkMap`].
    #[inline]
    #[must_use]
    pub fn link(&self, a: usize, b: usize) -> LinkClass {
        self.links.class(a, b)
    }

    /// The precomputed pairwise link classes and node residency.
    #[must_use]
    pub fn link_map(&self) -> &LinkMap {
        &self.links
    }

    /// Number of distinct nodes hosting at least one rank.
    #[must_use]
    pub fn nodes_used(&self) -> usize {
        self.node_ranks.iter().filter(|r| !r.is_empty()).count()
    }

    /// Borrow the ranks resident on a node, ascending — served from the
    /// node buckets built at construction; empty for a node outside the
    /// shape.
    #[must_use]
    pub fn node_ranks(&self, node: usize) -> &[usize] {
        self.node_ranks.get(node).map_or(&[], Vec::as_slice)
    }

    /// Count of remote (cross-node) pairs among all ordered rank pairs —
    /// computed in closed form at construction (`p² − Σ_n cnt_n²`).
    #[must_use]
    pub fn remote_pair_count(&self) -> usize {
        self.remote_pairs
    }

    /// Heap bytes held by the placement's link/residency structures: the
    /// core list, the hierarchical [`LinkMap`] and the per-node rank
    /// buckets — O(ranks + nodes) total, asserted at scale so a dense
    /// pairwise table cannot silently return.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        let word = std::mem::size_of::<usize>();
        self.cores.capacity() * std::mem::size_of::<CoreId>()
            + self.links.storage_bytes()
            + self.node_ranks.capacity() * std::mem::size_of::<Vec<usize>>()
            + self
                .node_ranks
                .iter()
                .map(|r| r.capacity() * word)
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_8x2x4;

    #[test]
    fn round_robin_two_nodes_parity() {
        // 16 ranks on an 8-node 2x4 cluster use 2 nodes; round-robin puts
        // even ranks on node 0 and odd ranks on node 1 (§5.6.6).
        let p = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 16);
        assert_eq!(p.nodes_used(), 2);
        for r in 0..16 {
            assert_eq!(p.core_of(r).node, r % 2);
        }
    }

    #[test]
    fn block_packs_nodes() {
        let p = Placement::new(cluster_8x2x4(), PlacementPolicy::Block, 16);
        assert_eq!(p.nodes_used(), 2);
        for r in 0..8 {
            assert_eq!(p.core_of(r).node, 0);
        }
        for r in 8..16 {
            assert_eq!(p.core_of(r).node, 1);
        }
    }

    #[test]
    fn round_robin_never_overfills_a_node() {
        let shape = cluster_8x2x4();
        for n in 1..=shape.total_cores() {
            let p = Placement::new(shape, PlacementPolicy::RoundRobin, n);
            for node in 0..shape.nodes() {
                assert!(
                    p.node_ranks(node).len() <= shape.cores_per_node(),
                    "{n} procs overfilled node {node}"
                );
            }
        }
    }

    #[test]
    fn all_ranks_have_distinct_cores() {
        let shape = cluster_8x2x4();
        for &policy in &[PlacementPolicy::RoundRobin, PlacementPolicy::Block] {
            let p = Placement::new(shape, policy, 64);
            let mut seen = std::collections::HashSet::new();
            for r in 0..64 {
                assert!(seen.insert(p.core_of(r)), "core reused under {policy:?}");
            }
        }
    }

    #[test]
    fn odd_process_count_breaks_parity() {
        // With 9 ranks round-robin on 2 nodes, the wrap of rank 8 puts two
        // consecutive ranks on node 0 — the effect behind the Fig. 5.6
        // oscillation.
        let p = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 9);
        assert_eq!(p.nodes_used(), 2);
        assert_eq!(p.core_of(7).node, 1);
        assert_eq!(p.core_of(8).node, 0);
    }

    #[test]
    fn link_is_self_on_diagonal() {
        let p = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 8);
        for r in 0..8 {
            assert_eq!(p.link(r, r), LinkClass::SelfLoop);
        }
    }

    #[test]
    fn single_node_has_no_remote_pairs() {
        let p = Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 8);
        assert_eq!(p.nodes_used(), 1);
        assert_eq!(p.remote_pair_count(), 0);
    }

    #[test]
    fn spread_puts_one_rank_per_node() {
        let p = Placement::new(cluster_8x2x4(), PlacementPolicy::Spread, 8);
        assert_eq!(p.nodes_used(), 8);
        for r in 0..8 {
            assert_eq!(p.core_of(r).node, r);
            assert_eq!(p.core_of(r).socket, 0);
        }
        // All pairs are remote.
        assert_eq!(p.remote_pair_count(), 8 * 7);
    }

    #[test]
    #[should_panic]
    fn spread_rejects_more_ranks_than_nodes() {
        Placement::new(cluster_8x2x4(), PlacementPolicy::Spread, 9);
    }

    #[test]
    #[should_panic]
    fn oversubscription_rejected() {
        Placement::new(cluster_8x2x4(), PlacementPolicy::RoundRobin, 65);
    }

    /// The hierarchical LinkMap and node buckets agree with the dense
    /// per-pair oracle (`shape.link_class` over the ranks' cores), for
    /// every policy and a spread of process counts.
    #[test]
    fn link_map_matches_direct_derivation() {
        let shape = cluster_8x2x4();
        for &policy in &[
            PlacementPolicy::RoundRobin,
            PlacementPolicy::Block,
            PlacementPolicy::Spread,
        ] {
            for n in [1usize, 2, 7, 8] {
                let p = Placement::new(shape, policy, n);
                let mut remote = 0;
                for a in 0..n {
                    assert_eq!(p.node_of(a), p.core_of(a).node);
                    for b in 0..n {
                        let direct = shape.link_class(p.core_of(a), p.core_of(b));
                        assert_eq!(p.link(a, b), direct, "{policy:?} n={n} ({a},{b})");
                        if a != b && direct == LinkClass::Remote {
                            remote += 1;
                        }
                    }
                }
                assert_eq!(p.remote_pair_count(), remote, "{policy:?} n={n}");
                for node in 0..shape.nodes() {
                    let bucket: Vec<usize> =
                        (0..n).filter(|&r| p.core_of(r).node == node).collect();
                    assert_eq!(p.node_ranks(node), &bucket[..]);
                }
                // Out-of-range nodes host nothing (the pre-LinkMap
                // scan-based behavior).
                assert!(p.node_ranks(shape.nodes()).is_empty());
                assert!(p.node_ranks(shape.nodes() + 7).is_empty());
            }
        }
    }

    /// The scale criterion: at p = 4096 the placement's link/residency
    /// storage stays O(ranks + nodes) — far below what any pairwise table
    /// would need (a P×P byte matrix alone is 16.7 MB).
    #[test]
    fn placement_storage_stays_linear_at_scale() {
        let p = Placement::new(crate::cluster_512x2x4(), PlacementPolicy::RoundRobin, 4096);
        assert_eq!(p.nprocs(), 4096);
        let bytes = p.storage_bytes();
        // Generous linear bound: a few machine words per rank plus the
        // per-node bucket headers.
        let word = std::mem::size_of::<usize>();
        let bound = 4096 * (std::mem::size_of::<CoreId>() + 4 * word) + 512 * 4 * word;
        assert!(
            bytes <= bound,
            "placement storage {bytes} B > bound {bound} B"
        );
        assert!(
            bytes < 4096 * 4096,
            "dense pairwise table is back: {bytes} B"
        );
        // The closed-form remote count matches the hierarchy at scale:
        // round-robin spreads 8 ranks on each of 512 nodes.
        assert_eq!(p.remote_pair_count(), 4096 * 4096 - 512 * 64);
        // And the socket level is exposed for stratified sampling.
        for r in 0..4096 {
            let c = p.core_of(r);
            assert_eq!(p.link_map().socket_of(r), c.node * 2 + c.socket);
        }
    }
}
