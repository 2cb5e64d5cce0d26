//! # hpm-barriers — barrier algorithms and adaptive construction
//!
//! Pattern builders for the barrier algorithms the thesis studies
//! ([`patterns`]: linear, k-ary tree, dissemination, ring, all-to-all),
//! plus the Chapter-7 machinery that *generates* barriers from platform
//! measurements: latency-scale subset clustering ([`sss`], §7.2),
//! hierarchical hybrid composition ([`hybrid`], Fig. 7.2) and greedy
//! model-driven construction ([`greedy`], §7.3, Fig. 7.3).
//!
//! Every builder returns a [`hpm_core::CompiledPattern`], the one form
//! the knowledge verifier, cost predictor and simulator all take — the
//! uniformity that makes automatic adaptation possible.

pub mod greedy;
pub mod hybrid;
pub mod patterns;
pub mod sss;

pub use greedy::{greedy_adaptive_barrier, GreedyReport};
pub use hybrid::{hybrid_barrier, GatherShape};
pub use patterns::{all_to_all, binary_tree, dissemination, kary_tree, linear, ring};
pub use sss::{sss_clusters, Clustering};
