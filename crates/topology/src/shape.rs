//! Cluster shapes, core coordinates and link classes.

/// Physical coordinates of one core: node, socket within node, core within
/// socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CoreId {
    pub node: usize,
    pub socket: usize,
    pub core: usize,
}

/// The communication distance between two placed processes, ordered from
/// cheapest to most expensive.
///
/// §5.1 establishes that cost is tied to topological distance at intra-chip,
/// inter-chip and network scales; these are the three scales of the test
/// systems plus the degenerate self-loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkClass {
    /// Same process (no transport).
    SelfLoop,
    /// Two cores sharing a socket (shared cache levels).
    SameSocket,
    /// Two sockets of one node (shared memory across the interconnect die).
    SameNode,
    /// Different nodes (network, e.g. gigabit ethernet).
    Remote,
}

impl LinkClass {
    /// Position of this class among the four, cheapest first — a dense
    /// index for per-class tables (sampled microbenchmarks, class-level
    /// cost models).
    pub fn index(&self) -> usize {
        match self {
            LinkClass::SelfLoop => 0,
            LinkClass::SameSocket => 1,
            LinkClass::SameNode => 2,
            LinkClass::Remote => 3,
        }
    }

    /// Short label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            LinkClass::SelfLoop => "self",
            LinkClass::SameSocket => "socket",
            LinkClass::SameNode => "node",
            LinkClass::Remote => "remote",
        }
    }
}

/// A homogeneous cluster shape: `nodes` × `sockets_per_node` ×
/// `cores_per_socket`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterShape {
    nodes: usize,
    sockets_per_node: usize,
    cores_per_socket: usize,
}

impl ClusterShape {
    /// Creates a shape; all extents must be positive.
    pub fn new(nodes: usize, sockets_per_node: usize, cores_per_socket: usize) -> ClusterShape {
        assert!(
            nodes > 0 && sockets_per_node > 0 && cores_per_socket > 0,
            "cluster extents must be positive: {nodes}x{sockets_per_node}x{cores_per_socket}"
        );
        ClusterShape {
            nodes,
            sockets_per_node,
            cores_per_socket,
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Sockets per node.
    pub fn sockets_per_node(&self) -> usize {
        self.sockets_per_node
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node()
    }

    /// The core at a flat in-node index (0 ≤ idx < cores_per_node), filling
    /// socket 0 first.
    pub fn core_at(&self, node: usize, idx_in_node: usize) -> CoreId {
        assert!(node < self.nodes, "node {node} out of range");
        assert!(
            idx_in_node < self.cores_per_node(),
            "core index {idx_in_node} out of range for {}-core nodes",
            self.cores_per_node()
        );
        CoreId {
            node,
            socket: idx_in_node / self.cores_per_socket,
            core: idx_in_node % self.cores_per_socket,
        }
    }

    /// The link class separating two cores.
    pub fn link_class(&self, a: CoreId, b: CoreId) -> LinkClass {
        if a == b {
            LinkClass::SelfLoop
        } else if a.node != b.node {
            LinkClass::Remote
        } else if a.socket != b.socket {
            LinkClass::SameNode
        } else {
            LinkClass::SameSocket
        }
    }

    /// Human-readable form, e.g. `8x2x4`.
    pub fn label(&self) -> String {
        format!(
            "{}x{}x{}",
            self.nodes, self.sockets_per_node, self.cores_per_socket
        )
    }
}

impl std::fmt::Display for ClusterShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_arithmetic() {
        let s = ClusterShape::new(8, 2, 4);
        assert_eq!(s.cores_per_node(), 8);
        assert_eq!(s.total_cores(), 64);
        assert_eq!(s.label(), "8x2x4");
    }

    #[test]
    fn core_at_fills_socket_zero_first() {
        let s = ClusterShape::new(2, 2, 4);
        assert_eq!(
            s.core_at(0, 0),
            CoreId {
                node: 0,
                socket: 0,
                core: 0
            }
        );
        assert_eq!(
            s.core_at(0, 3),
            CoreId {
                node: 0,
                socket: 0,
                core: 3
            }
        );
        assert_eq!(
            s.core_at(0, 4),
            CoreId {
                node: 0,
                socket: 1,
                core: 0
            }
        );
        assert_eq!(
            s.core_at(1, 7),
            CoreId {
                node: 1,
                socket: 1,
                core: 3
            }
        );
    }

    #[test]
    fn link_classes() {
        let s = ClusterShape::new(2, 2, 2);
        let a = s.core_at(0, 0);
        assert_eq!(s.link_class(a, a), LinkClass::SelfLoop);
        assert_eq!(s.link_class(a, s.core_at(0, 1)), LinkClass::SameSocket);
        assert_eq!(s.link_class(a, s.core_at(0, 2)), LinkClass::SameNode);
        assert_eq!(s.link_class(a, s.core_at(1, 0)), LinkClass::Remote);
    }

    #[test]
    fn link_class_is_symmetric() {
        let s = ClusterShape::new(3, 2, 3);
        for i in 0..s.total_cores() {
            for j in 0..s.total_cores() {
                let a = s.core_at(i / s.cores_per_node(), i % s.cores_per_node());
                let b = s.core_at(j / s.cores_per_node(), j % s.cores_per_node());
                assert_eq!(s.link_class(a, b), s.link_class(b, a));
            }
        }
    }

    #[test]
    fn class_ordering_cheapest_first() {
        assert!(LinkClass::SelfLoop < LinkClass::SameSocket);
        assert!(LinkClass::SameSocket < LinkClass::SameNode);
        assert!(LinkClass::SameNode < LinkClass::Remote);
    }

    #[test]
    #[should_panic]
    fn zero_extent_rejected() {
        ClusterShape::new(0, 2, 4);
    }

    #[test]
    #[should_panic]
    fn core_index_out_of_range() {
        ClusterShape::new(1, 2, 4).core_at(0, 8);
    }
}
