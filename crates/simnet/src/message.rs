//! Message envelopes, control signals, and channel error types.

use std::fmt;

use crate::node::NodeId;

/// An application message together with its sender.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope<M> {
    /// Originating node.
    pub from: NodeId,
    /// Payload.
    pub msg: M,
}

/// Control signals injected by the harness (never by peer nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// The provider announced this node will be revoked — the analogue of
    /// EC2's two-minute warning. `deadline_ms` is the wall-clock budget
    /// (in the harness's time base) the node has to drain state.
    EvictionWarning {
        /// Remaining milliseconds before forced termination.
        deadline_ms: u64,
    },
    /// Cooperative shutdown request (end of job).
    Shutdown,
    /// Abrupt termination. Behaviors never observe this variant directly:
    /// the context converts it into [`RecvError::Killed`].
    Kill,
}

/// What a node receives: either a peer's message or a control signal.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming<M> {
    /// Application traffic.
    App(Envelope<M>),
    /// A harness-injected control signal.
    Control(Control),
}

/// Failures when sending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination node does not exist or has been killed/revoked.
    Unreachable(NodeId),
    /// The sending node itself has been killed; the message was dropped.
    SelfDead,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::Unreachable(n) => write!(f, "destination {n} unreachable"),
            SendError::SelfDead => write!(f, "sending node has been killed"),
        }
    }
}

impl std::error::Error for SendError {}

/// Failures when receiving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// This node has been killed.
    Killed,
    /// All senders are gone (cluster shut down).
    Disconnected,
    /// `recv_timeout` elapsed.
    Timeout,
    /// `try_recv` found nothing pending.
    Empty,
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Killed => write!(f, "node killed"),
            RecvError::Disconnected => write!(f, "mailbox disconnected"),
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Empty => write!(f, "mailbox empty"),
        }
    }
}

impl std::error::Error for RecvError {}
