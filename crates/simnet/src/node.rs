//! Node identity and reliability class.

use std::fmt;

/// Identifies one simulated machine in a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The reserved synthetic id harness-originated traffic is attributed
    /// to (see
    /// [`SimCluster::send_as_harness`](crate::SimCluster::send_as_harness)).
    /// Never allocated by
    /// [`SimCluster::add_node`](crate::SimCluster::add_node) or
    /// [`Cluster::spawn`](crate::Cluster::spawn), so a harness message can
    /// never be mistaken for (or collide with) a real node's.
    pub const HARNESS: NodeId = NodeId(u32::MAX);
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

/// Reliability tier of a machine — the paper's central distinction.
///
/// Reliable machines (EC2 on-demand) are never revoked by the provider;
/// transient machines (spot) can be evicted at any time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Non-transient, e.g. an on-demand instance.
    Reliable,
    /// Revocable, e.g. a spot instance.
    Transient,
}

impl NodeClass {
    /// Whether this is the reliable tier.
    pub fn is_reliable(self) -> bool {
        matches!(self, NodeClass::Reliable)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_class_predicates() {
        assert!(NodeClass::Reliable.is_reliable());
        assert!(!NodeClass::Transient.is_reliable());
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(7).to_string(), "node-7");
    }
}
