//! Cluster topology descriptions.
//!
//! The thesis evaluates on commodity clusters of multi-socket, multi-core
//! nodes connected by gigabit ethernet: an 8-node 2×4-core Xeon cluster, a
//! 12-node 2×6-core Opteron cluster and a 10-node 2×6 configuration
//! (§5.6.6, Ch. 7–8). Process locality is the decisive performance factor
//! (§5.1–5.2), so this crate models exactly the structure the experiments
//! control: the shape of a cluster, the mapping from MPI-style ranks to
//! physical cores (the schedulers of the test systems place round-robin by
//! default, §5.6.6), and the *link class* separating any two placed ranks.

pub mod placement;
pub mod shape;

pub use placement::{LinkMap, Placement, PlacementPolicy};
pub use shape::{ClusterShape, CoreId, LinkClass};

/// The 8-node, dual-socket quad-core Xeon cluster of §5.6.6 (64 cores).
pub fn cluster_8x2x4() -> ClusterShape {
    ClusterShape::new(8, 2, 4)
}

/// The 12-node, dual-socket hex-core Opteron cluster of §5.6.6 (144 cores).
pub fn cluster_12x2x6() -> ClusterShape {
    ClusterShape::new(12, 2, 6)
}

/// The 10-node 2×6 configuration used for Table 7.2 (120 cores).
pub fn cluster_10x2x6() -> ClusterShape {
    ClusterShape::new(10, 2, 6)
}

/// A 32-node scale-up of the Xeon cluster shape (256 cores) — the first
/// rung of the p ≥ 256 scale study.
pub fn cluster_32x2x4() -> ClusterShape {
    ClusterShape::new(32, 2, 4)
}

/// A 128-node scale-up of the Xeon cluster shape (1024 cores) — the
/// middle rung of the scale study and the CI regression-gate scale.
pub fn cluster_128x2x4() -> ClusterShape {
    ClusterShape::new(128, 2, 4)
}

/// A 512-node scale-up of the Xeon cluster shape (4096 cores) — the
/// largest shape the `scale` experiment and the `barrier_p4096`
/// benchmark workload run.
pub fn cluster_512x2x4() -> ClusterShape {
    ClusterShape::new(512, 2, 4)
}
