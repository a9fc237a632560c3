//! The thread-per-node cluster: every node is an OS thread with a
//! blocking mailbox.
//!
//! It is the yardstick the benchmark times one message hop against — a
//! channel push, a thread wake-up and a pop — beside the discrete-event
//! [`SimCluster`](crate::SimCluster), which everything else runs on. It
//! keeps only what that hop needs: a mailbox and a dead flag per node,
//! and the delivered/dropped counters. Message faults, node controls and
//! per-pair traffic live in the event core alone. Message order between
//! different senders is whatever the OS scheduler makes it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;

use crate::event_core::NetStats;
use crate::message::{Control, Envelope, Incoming, RecvError, SendError};
use crate::node::{NodeClass, NodeId};

// The mailbox table stays consistent whatever a panicking node behavior
// did, so a poisoned lock is recovered, never propagated into every
// other node.

fn read<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// One node's mailbox.
struct Mailbox<M> {
    tx: Sender<Incoming<M>>,
    dead: bool,
}

/// What the cluster, its handles and its nodes share.
struct Shared<M> {
    /// Indexed by `NodeId.0`: ids are handed out densely.
    mailboxes: RwLock<Vec<Mailbox<M>>>,
    messages: AtomicU64,
    dropped: AtomicU64,
}

impl<M> Shared<M> {
    /// Puts `msg` in `to`'s mailbox. A dead sender is refused; a dead,
    /// absent or exited receiver is a counted drop.
    fn route(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), SendError> {
        let mailboxes = read(&self.mailboxes);
        if mailboxes.get(from.0 as usize).is_some_and(|m| m.dead) {
            return Err(SendError::SelfDead);
        }
        if let Some(mailbox) = mailboxes.get(to.0 as usize).filter(|m| !m.dead) {
            // Counted before the push: the channel orders the count
            // before the pop, so anything the message wakes sees it.
            self.messages.fetch_add(1, Ordering::Relaxed);
            if mailbox
                .tx
                .send(Incoming::App(Envelope { from, msg }))
                .is_ok()
            {
                return Ok(());
            }
            // The receiver's thread has ended.
            self.messages.fetch_sub(1, Ordering::Relaxed);
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
        Err(SendError::Unreachable(to))
    }

    fn is_dead(&self, node: NodeId) -> bool {
        read(&self.mailboxes)
            .get(node.0 as usize)
            .is_none_or(|m| m.dead)
    }
}

/// The context handed to a node's behavior closure: its sends and its
/// mailbox.
pub struct NodeCtx<M> {
    id: NodeId,
    shared: Arc<Shared<M>>,
    rx: Receiver<Incoming<M>>,
}

impl<M> NodeCtx<M> {
    /// Sends an application message to `to`.
    ///
    /// Fails with [`SendError::SelfDead`] once this node has been killed
    /// and with [`SendError::Unreachable`] if the target is gone.
    pub fn send(&self, to: NodeId, msg: M) -> Result<(), SendError> {
        self.shared.route(self.id, to, msg)
    }

    /// Blocks until the next message arrives.
    ///
    /// Returns [`RecvError::Killed`] at once when the node has been
    /// killed: messages still in its mailbox are discarded unread, as a
    /// revoked machine loses its in-flight data.
    pub fn recv(&self) -> Result<Incoming<M>, RecvError> {
        if self.shared.is_dead(self.id) {
            return Err(RecvError::Killed);
        }
        match self.rx.recv() {
            Ok(Incoming::Control(Control::Kill)) => Err(RecvError::Killed),
            Ok(other) => Ok(other),
            Err(_) => Err(RecvError::Disconnected),
        }
    }
}

/// A handle for sending from outside any node.
pub struct ClusterHandle<M> {
    shared: Arc<Shared<M>>,
}

impl<M> Clone for ClusterHandle<M> {
    fn clone(&self) -> Self {
        ClusterHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M> ClusterHandle<M> {
    /// Sends an application message attributed to the reserved
    /// [`NodeId::HARNESS`], which [`Cluster::spawn`] never allocates.
    pub fn send_as_harness(&self, to: NodeId, msg: M) -> Result<(), SendError> {
        self.shared.route(NodeId::HARNESS, to, msg)
    }
}

/// An in-process cluster of nodes, each running on its own thread.
///
/// # Examples
///
/// ```
/// use proteus_simnet::{Cluster, Incoming, NodeClass};
///
/// let mut cluster: Cluster<u64> = Cluster::new();
/// let echo = cluster.spawn(NodeClass::Reliable, |ctx| {
///     // Echo every message back to its sender, doubled.
///     while let Ok(Incoming::App(env)) = ctx.recv() {
///         let _ = ctx.send(env.from, env.msg * 2);
///     }
/// });
/// let (reply_tx, reply_rx) = std::sync::mpsc::channel();
/// cluster.spawn(NodeClass::Transient, move |ctx| {
///     ctx.send(echo, 21).unwrap();
///     if let Ok(Incoming::App(env)) = ctx.recv() {
///         reply_tx.send(env.msg).unwrap();
///     }
/// });
/// assert_eq!(reply_rx.recv().unwrap(), 42);
/// assert_eq!(cluster.stats().messages, 2);
/// cluster.abort_all();
/// ```
pub struct Cluster<M> {
    shared: Arc<Shared<M>>,
    threads: Vec<JoinHandle<()>>,
}

impl<M: Send + 'static> Default for Cluster<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Cluster<M> {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Cluster {
            shared: Arc::new(Shared {
                mailboxes: RwLock::new(Vec::new()),
                messages: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
            threads: Vec::new(),
        }
    }

    /// A cloneable handle for sending from outside any node.
    pub fn handle(&self) -> ClusterHandle<M> {
        ClusterHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Spawns a node running `behavior` on a thread of its own and
    /// returns its id. The thread core does not keep `_class`.
    pub fn spawn<F>(&mut self, _class: NodeClass, behavior: F) -> NodeId
    where
        F: FnOnce(NodeCtx<M>) + Send + 'static,
    {
        let (tx, rx) = channel();
        let id = {
            let mut mailboxes = write(&self.shared.mailboxes);
            let id = NodeId(u32::try_from(mailboxes.len()).unwrap_or(u32::MAX));
            // `NodeId::HARNESS` (u32::MAX) is reserved for harness-attributed
            // traffic; a spawned node must never collide with it.
            assert!(
                id < NodeId::HARNESS,
                "simnet cluster exhausted the spawnable NodeId space"
            );
            mailboxes.push(Mailbox { tx, dead: false });
            id
        };
        let ctx = NodeCtx {
            id,
            shared: Arc::clone(&self.shared),
            rx,
        };
        // Thread spawning only fails on OS resource exhaustion, at which
        // point the whole simulated cluster is unrecoverable anyway.
        #[allow(clippy::expect_used)]
        let thread = std::thread::Builder::new()
            .name(format!("simnet-{}", id.0))
            .spawn(move || behavior(ctx))
            .expect("spawning a simnet node thread");
        self.threads.push(thread);
        id
    }

    /// Aggregate traffic counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            messages: self.shared.messages.load(Ordering::Relaxed),
            dropped: self.shared.dropped.load(Ordering::Relaxed),
        }
    }

    /// Kills every node — sends to and from it fail, and its blocked
    /// `recv` wakes with [`RecvError::Killed`] — then joins every thread.
    pub fn abort_all(self) {
        for mailbox in write(&self.shared.mailboxes).iter_mut() {
            mailbox.dead = true;
            // Wake a blocked recv, which turns Kill into Killed.
            let _ = mailbox.tx.send(Incoming::Control(Control::Kill));
        }
        for thread in self.threads {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The benchmark's probe in miniature: a root broadcasts a token to
    /// three peers and waits for their acks, round after round; then
    /// `abort_all` wakes every peer still blocked in `recv`.
    #[test]
    fn broadcast_rounds_collect_every_ack_and_abort_all_wakes_blocked_peers() {
        const PEERS: u32 = 3;
        const ROUNDS: u32 = 5;
        let mut cluster: Cluster<u32> = Cluster::new();
        let (done_tx, done_rx) = channel();
        let (woke_tx, woke_rx) = channel();
        let root = cluster.spawn(NodeClass::Reliable, move |ctx| {
            let mut acks = 0;
            let mut round = 0;
            // The harness's inject starts round 0; every other message
            // is an ack.
            while let Ok(Incoming::App(env)) = ctx.recv() {
                if env.from != NodeId::HARNESS {
                    acks += 1;
                    if acks < PEERS {
                        continue;
                    }
                    acks = 0;
                    round += 1;
                    if round == ROUNDS {
                        break;
                    }
                }
                for peer in 1..=PEERS {
                    ctx.send(NodeId(peer), round).unwrap();
                }
            }
            done_tx.send(round).unwrap();
        });
        for _ in 0..PEERS {
            let woke = woke_tx.clone();
            cluster.spawn(NodeClass::Transient, move |ctx| loop {
                match ctx.recv() {
                    Ok(Incoming::App(env)) => ctx.send(root, env.msg).unwrap(),
                    Ok(Incoming::Control(_)) => {}
                    Err(e) => {
                        woke.send(e).unwrap();
                        break;
                    }
                }
            });
        }
        cluster.handle().send_as_harness(root, 0).unwrap();
        assert_eq!(done_rx.recv_timeout(Duration::from_secs(30)), Ok(ROUNDS));
        // The inject, then a token out and an ack back per peer a round.
        assert_eq!(
            cluster.stats(),
            NetStats {
                messages: 1 + u64::from(ROUNDS * PEERS * 2),
                dropped: 0
            }
        );
        let (abort_tx, abort_rx) = channel();
        let aborter = std::thread::spawn(move || {
            cluster.abort_all();
            abort_tx.send(()).unwrap();
        });
        abort_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("abort_all returns once every node thread has ended");
        aborter.join().unwrap();
        let woke: Vec<_> = woke_rx.try_iter().collect();
        assert_eq!(woke, vec![RecvError::Killed; PEERS as usize]);
    }

    #[test]
    fn kill_makes_node_unreachable_and_wakes_it() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (obs_tx, obs_rx) = channel();
        let victim = cluster.spawn(NodeClass::Transient, move |ctx| {
            // Block until the kill wakes us.
            obs_tx.send(ctx.recv().unwrap_err()).unwrap();
        });
        let h = cluster.handle();
        cluster.abort_all();
        assert_eq!(obs_rx.try_recv(), Ok(RecvError::Killed));
        // Sends to the dead node are dropped with an error.
        assert_eq!(
            h.send_as_harness(victim, 1),
            Err(SendError::Unreachable(victim))
        );
        assert_eq!(h.shared.dropped.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dead_sender_cannot_send() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (obs_tx, obs_rx) = channel();
        let target = cluster.spawn(NodeClass::Reliable, |ctx| {
            let _ = ctx.recv();
        });
        cluster.spawn(NodeClass::Transient, move |ctx| {
            // Woken by the kill, then try to send.
            let woke = ctx.recv();
            obs_tx.send((woke, ctx.send(target, 9))).unwrap();
        });
        cluster.abort_all();
        assert_eq!(
            obs_rx.try_recv(),
            Ok((Err(RecvError::Killed), Err(SendError::SelfDead)))
        );
    }

    /// Pins the documented kill semantic: `recv` reports `Killed`
    /// immediately once the node is dead, discarding messages queued
    /// before the kill — a killed machine loses its mailbox.
    #[test]
    fn recv_after_kill_discards_pre_kill_queued_messages() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (obs_tx, obs_rx) = channel();
        let (gate_tx, gate_rx) = channel::<()>();
        let victim = cluster.spawn(NodeClass::Transient, move |ctx| {
            // Hold off receiving until the harness has queued a message
            // and killed us; the queued message must never surface.
            gate_rx.recv().unwrap();
            obs_tx.send(ctx.recv()).unwrap();
        });
        let h = cluster.handle();
        h.send_as_harness(victim, 42).unwrap();
        let aborted = std::thread::spawn(move || cluster.abort_all());
        // A harness send fails once the kill has landed.
        while h.send_as_harness(victim, 0).is_ok() {
            std::thread::yield_now();
        }
        gate_tx.send(()).unwrap();
        aborted.join().unwrap();
        assert_eq!(obs_rx.try_recv(), Ok(Err(RecvError::Killed)));
    }

    /// The synthetic harness id is reserved: spawned ids count up from 0,
    /// and harness traffic arrives attributed to [`NodeId::HARNESS`].
    #[test]
    fn harness_id_is_never_spawned() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (from_tx, from_rx) = channel();
        let first = cluster.spawn(NodeClass::Reliable, move |ctx| {
            if let Ok(Incoming::App(env)) = ctx.recv() {
                from_tx.send(env.from).unwrap();
            }
        });
        assert_eq!(first, NodeId(0));
        cluster.handle().send_as_harness(first, 1).unwrap();
        assert_eq!(
            from_rx.recv_timeout(Duration::from_secs(5)),
            Ok(NodeId::HARNESS)
        );
        cluster.abort_all();
    }
}
