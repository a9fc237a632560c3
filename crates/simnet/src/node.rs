//! Node identity, reliability class, and the per-node execution context.

use std::fmt;
use std::sync::Arc;

use crate::cluster::ClusterInner;
use crate::message::{Control, Incoming, RecvError, SendError};

/// Identifies one simulated machine in a [`Cluster`](crate::Cluster).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The reserved synthetic id harness-originated traffic is attributed
    /// to (see
    /// [`ClusterHandle::send_as_harness`](crate::ClusterHandle::send_as_harness)).
    /// Never allocated by
    /// [`Cluster::spawn`](crate::Cluster::spawn) or
    /// [`SimCluster::add_node`](crate::SimCluster::add_node), so a harness
    /// message can never be mistaken for (or collide with) a real node's.
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

/// The execution context handed to a node's behavior closure.
///
/// All interaction with the rest of the cluster flows through this handle:
/// sending, receiving (application messages and control signals are
/// multiplexed into [`Incoming`]), and introspecting identity.
pub struct NodeCtx<M: Send + Clone + 'static> {
    pub(crate) id: NodeId,
    pub(crate) class: NodeClass,
    pub(crate) inner: Arc<ClusterInner<M>>,
    pub(crate) rx: crossbeam::channel::Receiver<Incoming<M>>,
}

impl<M: Send + Clone + 'static> NodeCtx<M> {
    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's reliability class.
    pub fn class(&self) -> NodeClass {
        self.class
    }

    /// Sends an application message to `to`.
    ///
    /// Fails with [`SendError::SelfDead`] if this node has been killed and
    /// with [`SendError::Unreachable`] if the target is gone — mirroring a
    /// TCP connection reset to a revoked machine.
    pub fn send(&self, to: NodeId, msg: M) -> Result<(), SendError> {
        if self.inner.is_dead(self.id) {
            return Err(SendError::SelfDead);
        }
        self.inner.deliver(self.id, to, msg)
    }

    /// Blocks until the next message or control signal arrives.
    ///
    /// Returns [`RecvError::Killed`] **immediately** once the node has
    /// been killed: messages still queued in the mailbox from before the
    /// kill are discarded unread, exactly as a revoked machine loses its
    /// in-flight TCP data. (The discrete-event core pins the same
    /// semantic: deliveries scheduled to a node that dies before
    /// dispatch are dropped, never handled.)
    pub fn recv(&self) -> Result<Incoming<M>, RecvError> {
        if self.inner.is_dead(self.id) {
            return Err(RecvError::Killed);
        }
        match self.rx.recv() {
            Ok(Incoming::Control(Control::Kill)) => Err(RecvError::Killed),
            Ok(other) => Ok(other),
            Err(_) => Err(RecvError::Disconnected),
        }
    }

    /// Like [`NodeCtx::recv`] but gives up after `timeout`.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<Incoming<M>, RecvError> {
        if self.inner.is_dead(self.id) {
            return Err(RecvError::Killed);
        }
        match self.rx.recv_timeout(timeout) {
            Ok(Incoming::Control(Control::Kill)) => Err(RecvError::Killed),
            Ok(other) => Ok(other),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(RecvError::Timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Incoming<M>, RecvError> {
        if self.inner.is_dead(self.id) {
            return Err(RecvError::Killed);
        }
        match self.rx.try_recv() {
            Ok(Incoming::Control(Control::Kill)) => Err(RecvError::Killed),
            Ok(other) => Ok(other),
            Err(crossbeam::channel::TryRecvError::Empty) => Err(RecvError::Empty),
            Err(crossbeam::channel::TryRecvError::Disconnected) => Err(RecvError::Disconnected),
        }
    }

    /// Whether a peer node is currently alive.
    pub fn peer_alive(&self, node: NodeId) -> bool {
        self.inner.is_alive(node)
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
