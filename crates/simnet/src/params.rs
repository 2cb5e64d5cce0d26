//! Platform parameter sets for the simulated clusters.
//!
//! Parameters are calibrated to the magnitudes of the thesis' test systems
//! (Table 3.1, Figs. 5.6/5.10): sub-microsecond shared-memory signalling,
//! ~10 µs one-way small-message cost across gigabit ethernet, and
//! ~100 MB/s-class remote bandwidth. Absolute values are not the point —
//! the *relationships* (orders of magnitude between link classes, NIC
//! serialization comparable to per-message overhead) are what give rise to
//! the barrier-shape results being reproduced.

use hpm_stats::rng::JitterModel;
use hpm_topology::LinkClass;

/// Cost parameters of one link class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkCost {
    /// Sender CPU time to put one message on this link (seconds).
    pub o_send: f64,
    /// Receiver CPU time to absorb one message (seconds).
    pub o_recv: f64,
    /// One-way wire latency of a zero-byte message (seconds).
    pub latency: f64,
    /// Inverse bandwidth (seconds per byte).
    pub inv_bandwidth: f64,
}

impl LinkCost {
    fn validate(&self, what: &str) {
        assert!(
            self.o_send >= 0.0
                && self.o_recv >= 0.0
                && self.latency >= 0.0
                && self.inv_bandwidth >= 0.0,
            "negative cost in {what} link"
        );
    }
}

/// The complete simulated platform description.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformParams {
    /// Descriptive name.
    pub name: String,
    /// Cost of invoking the request start/wait machinery with no work —
    /// the `O_ii` the microbenchmark extracts.
    pub call_overhead: f64,
    /// Link costs per class (self-loop messages are free and never sent).
    pub same_socket: LinkCost,
    pub same_node: LinkCost,
    pub remote: LinkCost,
    /// Per-message serialization gap at a node's NIC egress (seconds):
    /// remote messages from cohabiting processes queue for the wire.
    pub nic_gap: f64,
    /// Fraction of the forward wire latency an acknowledgement costs
    /// (acks ride the reverse path and piggyback, so < 1).
    pub ack_factor: f64,
    /// Extra receiver cost for a message arriving before its receiver
    /// posted (the unexpected-message buffer copy, §5.6.3's observation
    /// that L_ij drops when the destination is known to be waiting).
    pub unexpected_penalty: f64,
    /// Multiplicative OS jitter on every timed activity.
    pub jitter: JitterModel,
}

impl PlatformParams {
    /// Validates invariants: link classes must be ordered cheapest-first
    /// in both latency and overhead.
    pub fn validated(self) -> PlatformParams {
        self.same_socket.validate("same_socket");
        self.same_node.validate("same_node");
        self.remote.validate("remote");
        assert!(self.call_overhead >= 0.0);
        assert!(self.nic_gap >= 0.0);
        assert!(
            (0.0..=1.0).contains(&self.ack_factor),
            "ack_factor in [0,1]"
        );
        assert!(self.unexpected_penalty >= 0.0);
        assert!(
            self.same_socket.latency <= self.same_node.latency
                && self.same_node.latency <= self.remote.latency,
            "link latencies must grow with distance"
        );
        self
    }

    /// Link cost for a class; the self loop is free.
    pub fn link(&self, class: LinkClass) -> LinkCost {
        match class {
            LinkClass::SelfLoop => LinkCost {
                o_send: 0.0,
                o_recv: 0.0,
                latency: 0.0,
                inv_bandwidth: 0.0,
            },
            LinkClass::SameSocket => self.same_socket,
            LinkClass::SameNode => self.same_node,
            LinkClass::Remote => self.remote,
        }
    }

    /// A copy with jitter disabled, for exact-value tests.
    pub fn noiseless(&self) -> PlatformParams {
        let mut p = self.clone();
        p.jitter = JitterModel::NONE;
        p
    }
}

/// The 8×2×4 Xeon + gigabit-ethernet cluster of §5.6.6.
pub fn xeon_cluster_params() -> PlatformParams {
    PlatformParams {
        name: "xeon-8x2x4-gige".into(),
        call_overhead: 0.30e-6,
        same_socket: LinkCost {
            o_send: 0.12e-6,
            o_recv: 0.12e-6,
            latency: 0.35e-6,
            inv_bandwidth: 1.0e-10, // ~10 GB/s shared cache
        },
        same_node: LinkCost {
            o_send: 0.18e-6,
            o_recv: 0.18e-6,
            latency: 0.70e-6,
            inv_bandwidth: 1.6e-10, // ~6 GB/s cross-socket
        },
        remote: LinkCost {
            o_send: 1.0e-6,
            o_recv: 1.0e-6,
            latency: 8.0e-6,
            inv_bandwidth: 8.5e-9, // ~118 MB/s GigE payload rate
        },
        nic_gap: 1.0e-6,
        ack_factor: 0.6,
        unexpected_penalty: 0.5e-6,
        jitter: JitterModel::new(0.05),
    }
    .validated()
}

/// The 12×2×6 Opteron + gigabit-ethernet cluster of §5.6.6; also used for
/// the 10×2×6 configuration of Table 7.2.
pub fn opteron_cluster_params() -> PlatformParams {
    PlatformParams {
        name: "opteron-12x2x6-gige".into(),
        call_overhead: 0.34e-6,
        same_socket: LinkCost {
            o_send: 0.14e-6,
            o_recv: 0.14e-6,
            latency: 0.40e-6,
            inv_bandwidth: 1.2e-10,
        },
        same_node: LinkCost {
            o_send: 0.20e-6,
            o_recv: 0.20e-6,
            latency: 0.85e-6,
            inv_bandwidth: 1.8e-10,
        },
        remote: LinkCost {
            o_send: 1.1e-6,
            o_recv: 1.1e-6,
            latency: 9.0e-6,
            inv_bandwidth: 8.5e-9,
        },
        nic_gap: 1.1e-6,
        ack_factor: 0.6,
        unexpected_penalty: 0.55e-6,
        jitter: JitterModel::new(0.05),
    }
    .validated()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        xeon_cluster_params();
        opteron_cluster_params();
    }

    #[test]
    fn self_loop_is_free() {
        let p = xeon_cluster_params();
        let l = p.link(LinkClass::SelfLoop);
        assert_eq!(l.latency, 0.0);
        assert_eq!(l.o_send, 0.0);
    }

    #[test]
    fn latency_grows_with_distance() {
        let p = xeon_cluster_params();
        assert!(p.link(LinkClass::SameSocket).latency < p.link(LinkClass::SameNode).latency);
        assert!(p.link(LinkClass::SameNode).latency < p.link(LinkClass::Remote).latency);
    }

    #[test]
    fn remote_is_orders_of_magnitude_slower() {
        // The heterogeneity that motivates the whole framework: the
        // latency spread must span >1 order of magnitude (§3.1).
        let p = xeon_cluster_params();
        let ratio = p.link(LinkClass::Remote).latency / p.link(LinkClass::SameSocket).latency;
        assert!(ratio > 10.0, "latency spread {ratio}");
    }

    #[test]
    fn noiseless_strips_jitter_only() {
        let p = xeon_cluster_params();
        let q = p.noiseless();
        assert_eq!(q.jitter, JitterModel::NONE);
        assert_eq!(q.remote, p.remote);
    }

    #[test]
    #[should_panic]
    fn inverted_latency_order_rejected() {
        let mut p = xeon_cluster_params();
        p.same_socket.latency = 1.0;
        p.validated();
    }
}
