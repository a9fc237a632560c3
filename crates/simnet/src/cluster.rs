//! The cluster runtime: node registry, routing, fault injection.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Sender};

use crate::fault::{FaultLayer, FaultPlan, FaultStats};
use crate::message::{Control, Envelope, Incoming, SendError};
use crate::node::{NodeClass, NodeCtx, NodeId};
use crate::{read, write};

/// Aggregate traffic counters for the whole cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Application messages successfully delivered.
    pub messages: u64,
    /// Messages dropped because the destination was dead or absent.
    pub dropped: u64,
}

/// Per-node bookkeeping held by the registry.
struct NodeEntry<M> {
    tx: Sender<Incoming<M>>,
    class: NodeClass,
    dead: bool,
}

/// Shared cluster state: the routing registry and traffic counters.
pub struct ClusterInner<M> {
    nodes: RwLock<HashMap<NodeId, NodeEntry<M>>>,
    messages: AtomicU64,
    dropped: AtomicU64,
    /// Delivered-message counts per (sender, receiver) pair.
    traffic: RwLock<HashMap<(NodeId, NodeId), u64>>,
    /// Installed message-fault layer, if any.
    faults: RwLock<Option<Arc<FaultLayer<M>>>>,
    /// What replaced or cleared fault layers injected.
    retired_faults: RwLock<FaultStats>,
}

impl<M: Send + Clone + 'static> ClusterInner<M> {
    /// Routes an application message through the fault layer (if any),
    /// counting drops to dead targets.
    ///
    /// The sender's result reflects only its *own* message: success iff
    /// the fault layer absorbed it (drop/delay — the network ate it) or
    /// at least one copy reached the destination. The fate of a
    /// previously-held message released by this traffic never leaks into
    /// the current sender's result (its failures are still counted as
    /// drops by [`ClusterInner::route`]).
    pub(crate) fn deliver(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), SendError> {
        let layer = read(&self.faults).clone();
        match layer {
            None => self.route(from, to, msg),
            Some(layer) => {
                let applied = layer.apply(from, to, msg);
                let mut delivered = false;
                let mut first_err = None;
                for m in applied.copies {
                    match self.route(from, to, m) {
                        Ok(()) => delivered = true,
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                if let Some(m) = applied.released {
                    let _ = self.route(from, to, m);
                }
                if delivered || applied.absorbed {
                    Ok(())
                } else {
                    Err(first_err.unwrap_or(SendError::Unreachable(to)))
                }
            }
        }
    }

    /// Delivers one message to its destination mailbox, bypassing the
    /// fault layer.
    fn route(&self, from: NodeId, to: NodeId, msg: M) -> Result<(), SendError> {
        let nodes = read(&self.nodes);
        if let Some(entry) = nodes.get(&to).filter(|e| !e.dead) {
            // A send only fails if the receiver was torn down between
            // the liveness check and the send; treat it as a drop.
            if entry.tx.send(Incoming::App(Envelope { from, msg })).is_ok() {
                self.messages.fetch_add(1, Ordering::Relaxed);
                *write(&self.traffic).entry((from, to)).or_insert(0) += 1;
                return Ok(());
            }
        }
        self.dropped.fetch_add(1, Ordering::Relaxed);
        Err(SendError::Unreachable(to))
    }

    /// Installs (or replaces) the message-fault layer.
    ///
    /// A replaced layer is flushed first, exactly like
    /// [`ClusterInner::clear_faults`]: its held (delayed) messages are
    /// routed to their destinations rather than silently destroyed, and
    /// any that are undeliverable are counted in [`NetStats::dropped`]
    /// by [`ClusterInner::route`].
    pub(crate) fn set_faults(&self, plan: FaultPlan<M>) {
        self.clear_faults();
        *write(&self.faults) = Some(Arc::new(FaultLayer::new(plan)));
    }

    /// Removes the message-fault layer, first flushing held messages;
    /// what it injected stays in the fault totals.
    pub(crate) fn clear_faults(&self) {
        self.flush_delayed();
        if let Some(layer) = write(&self.faults).take() {
            let mut retired = write(&self.retired_faults);
            *retired = *retired + layer.stats();
        }
    }

    /// Releases every delayed (held-back) message to its destination.
    /// Returns how many were flushed.
    pub(crate) fn flush_delayed(&self) -> usize {
        let layer = read(&self.faults).clone();
        let Some(layer) = layer else { return 0 };
        let held = layer.drain_held();
        let n = held.len();
        for (from, to, msg) in held {
            let _ = self.route(from, to, msg);
        }
        n
    }

    /// Counters of message faults injected so far, by every plan.
    pub(crate) fn fault_stats(&self) -> FaultStats {
        let current = read(&self.faults).as_ref().map(|l| l.stats());
        *read(&self.retired_faults) + current.unwrap_or_default()
    }

    pub(crate) fn is_dead(&self, node: NodeId) -> bool {
        read(&self.nodes).get(&node).is_none_or(|e| e.dead)
    }

    pub(crate) fn is_alive(&self, node: NodeId) -> bool {
        !self.is_dead(node)
    }
}

/// A handle for interacting with the cluster from outside any node
/// (e.g. from the test harness or the BidBrain driver).
///
/// Cloneable; all clones share the same registry.
pub struct ClusterHandle<M: Send + Clone + 'static> {
    inner: Arc<ClusterInner<M>>,
}

impl<M: Send + Clone + 'static> Clone for ClusterHandle<M> {
    fn clone(&self) -> Self {
        ClusterHandle {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: Send + Clone + 'static> ClusterHandle<M> {
    /// Sends a control signal to a node.
    pub fn send_control(&self, to: NodeId, ctrl: Control) -> Result<(), SendError> {
        let nodes = read(&self.inner.nodes);
        match nodes.get(&to) {
            Some(entry) if !entry.dead => entry
                .tx
                .send(Incoming::Control(ctrl))
                .map_err(|_| SendError::Unreachable(to)),
            _ => Err(SendError::Unreachable(to)),
        }
    }

    /// Sends an application message on behalf of the harness.
    ///
    /// The message is attributed to the reserved synthetic id
    /// [`NodeId::HARNESS`], which [`Cluster::spawn`] can never allocate.
    pub fn send_as_harness(&self, to: NodeId, msg: M) -> Result<(), SendError> {
        self.inner.deliver(NodeId::HARNESS, to, msg)
    }

    /// Whether `node` is alive (spawned and not killed).
    pub fn alive(&self, node: NodeId) -> bool {
        self.inner.is_alive(node)
    }

    /// Installs (or replaces) a message-[`FaultPlan`] on the cluster.
    pub fn set_faults(&self, plan: FaultPlan<M>) {
        self.inner.set_faults(plan);
    }

    /// Releases every delayed (held-back) message; see
    /// [`Cluster::flush_delayed`].
    pub fn flush_delayed(&self) -> usize {
        self.inner.flush_delayed()
    }

    /// Counters of message faults injected so far (zeros if no plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
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
///     // Echo one message back to its sender, doubled.
///     if let Ok(Incoming::App(env)) = ctx.recv() {
///         let _ = ctx.send(env.from, env.msg * 2);
///     }
/// });
/// let probe = cluster.spawn(NodeClass::Transient, move |ctx| {
///     ctx.send(echo, 21).unwrap();
///     if let Ok(Incoming::App(env)) = ctx.recv() {
///         assert_eq!(env.msg, 42);
///     }
/// });
/// cluster.join();
/// # let _ = probe;
/// ```
pub struct Cluster<M: Send + Clone + 'static> {
    inner: Arc<ClusterInner<M>>,
    handles: Vec<(NodeId, JoinHandle<()>)>,
    next_id: u32,
}

impl<M: Send + Clone + 'static> Default for Cluster<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + Clone + 'static> Cluster<M> {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        Cluster {
            inner: Arc::new(ClusterInner {
                nodes: RwLock::new(HashMap::new()),
                messages: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                traffic: RwLock::new(HashMap::new()),
                faults: RwLock::new(None),
                retired_faults: RwLock::new(FaultStats::default()),
            }),
            handles: Vec::new(),
            next_id: 0,
        }
    }

    /// Installs (or replaces) a message-[`FaultPlan`]: every subsequent
    /// application message is routed through it. Node-level faults
    /// (crashes, warnings) are scripted via [`Cluster::kill`] /
    /// [`Cluster::revoke`] instead.
    pub fn set_faults(&self, plan: FaultPlan<M>) {
        self.inner.set_faults(plan);
    }

    /// Removes the fault layer, flushing any held-back messages first.
    pub fn clear_faults(&self) {
        self.inner.clear_faults();
    }

    /// Releases every delayed (held-back) message to its destination;
    /// returns how many were flushed. Drivers call this before blocking
    /// on protocol progress so a delayed message that happens to be the
    /// last traffic on its pair cannot deadlock the run.
    pub fn flush_delayed(&self) -> usize {
        self.inner.flush_delayed()
    }

    /// Counters of message faults injected so far, by every plan this
    /// cluster has run — a replaced or cleared plan's included.
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    /// A cloneable handle for harness-side interaction.
    pub fn handle(&self) -> ClusterHandle<M> {
        ClusterHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Spawns a node of the given reliability class running `behavior` on
    /// a dedicated thread, returning its id.
    pub fn spawn<F>(&mut self, class: NodeClass, behavior: F) -> NodeId
    where
        F: FnOnce(NodeCtx<M>) + Send + 'static,
    {
        // `NodeId::HARNESS` (u32::MAX) is reserved for harness-attributed
        // traffic; a spawned node must never collide with it.
        assert!(
            self.next_id < NodeId::HARNESS.0,
            "simnet cluster exhausted the spawnable NodeId space"
        );
        let id = NodeId(self.next_id);
        self.next_id += 1;
        let (tx, rx) = unbounded();
        write(&self.inner.nodes).insert(
            id,
            NodeEntry {
                tx,
                class,
                dead: false,
            },
        );
        let ctx = NodeCtx {
            id,
            class,
            inner: Arc::clone(&self.inner),
            rx,
        };
        // Thread spawning only fails on OS resource exhaustion, at which
        // point the whole simulated cluster is unrecoverable anyway.
        #[allow(clippy::expect_used)]
        let handle = std::thread::Builder::new()
            .name(format!("simnet-{}", id.0))
            .spawn(move || behavior(ctx))
            .expect("spawning a simnet node thread");
        self.handles.push((id, handle));
        id
    }

    /// Delivers an eviction warning to `node` — the node keeps running and
    /// can drain state; the harness typically calls [`Cluster::kill`] when
    /// the deadline passes.
    pub fn revoke(&self, node: NodeId, deadline_ms: u64) -> Result<(), SendError> {
        self.handle()
            .send_control(node, Control::EvictionWarning { deadline_ms })
    }

    /// Abruptly kills `node`: subsequent sends to it are dropped, its own
    /// sends fail, and its blocked `recv` wakes with `Killed`.
    ///
    /// Idempotent; killing an unknown node is a no-op.
    pub fn kill(&self, node: NodeId) {
        let mut nodes = write(&self.inner.nodes);
        if let Some(entry) = nodes.get_mut(&node) {
            if !entry.dead {
                entry.dead = true;
                // Wake a blocked recv. The context converts Kill into
                // RecvError::Killed and never exposes it to behaviors.
                let _ = entry.tx.send(Incoming::Control(Control::Kill));
            }
        }
    }

    /// Politely asks `node` to shut down (end-of-job).
    pub fn shutdown(&self, node: NodeId) -> Result<(), SendError> {
        self.handle().send_control(node, Control::Shutdown)
    }

    /// Whether `node` is alive.
    pub fn alive(&self, node: NodeId) -> bool {
        self.inner.is_alive(node)
    }

    /// The reliability class `node` was spawned with, if it exists.
    pub fn class_of(&self, node: NodeId) -> Option<NodeClass> {
        read(&self.inner.nodes).get(&node).map(|e| e.class)
    }

    /// Ids of all currently-alive nodes, sorted.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = read(&self.inner.nodes)
            .iter()
            .filter(|(_, e)| !e.dead)
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }

    /// Delivered-message counts per (sender, receiver) pair, sorted.
    ///
    /// Lets tests assert *direction* properties of a protocol — e.g.
    /// that AgileML's backup streams flow from transient ActivePSs
    /// toward reliable BackupPSs only.
    pub fn traffic_matrix(&self) -> Vec<((NodeId, NodeId), u64)> {
        let mut rows: Vec<((NodeId, NodeId), u64)> = read(&self.inner.traffic)
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect();
        rows.sort();
        rows
    }

    /// Messages delivered from `from` to `to`.
    pub fn traffic_between(&self, from: NodeId, to: NodeId) -> u64 {
        read(&self.inner.traffic)
            .get(&(from, to))
            .copied()
            .unwrap_or(0)
    }

    /// Aggregate traffic counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            messages: self.inner.messages.load(Ordering::Relaxed),
            dropped: self.inner.dropped.load(Ordering::Relaxed),
        }
    }

    /// Waits for every node thread to finish.
    ///
    /// Callers must arrange for behaviors to terminate (shutdown signals,
    /// kills, or natural completion) before joining, or this will block.
    pub fn join(mut self) {
        for (_, handle) in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    /// Kills every node and then joins all threads — a hard teardown.
    pub fn abort_all(mut self) {
        let ids: Vec<NodeId> = read(&self.inner.nodes).keys().copied().collect();
        for id in ids {
            self.kill(id);
        }
        for (_, handle) in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn messages_round_trip_between_nodes() {
        let mut cluster: Cluster<String> = Cluster::new();
        let (done_tx, done_rx) = unbounded();
        let server = cluster.spawn(NodeClass::Reliable, |ctx| {
            if let Ok(Incoming::App(env)) = ctx.recv() {
                let _ = ctx.send(env.from, format!("re:{}", env.msg));
            }
        });
        cluster.spawn(NodeClass::Transient, move |ctx| {
            ctx.send(server, "hello".to_string()).unwrap();
            if let Ok(Incoming::App(env)) = ctx.recv() {
                done_tx.send(env.msg).unwrap();
            }
        });
        let reply = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(reply, "re:hello");
        cluster.join();
    }

    #[test]
    fn kill_makes_node_unreachable_and_wakes_it() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (obs_tx, obs_rx) = unbounded();
        let victim = cluster.spawn(NodeClass::Transient, move |ctx| {
            // Block forever; the kill must wake us with Killed.
            let err = ctx.recv().unwrap_err();
            obs_tx.send(err).unwrap();
        });
        assert!(cluster.alive(victim));
        cluster.kill(victim);
        assert!(!cluster.alive(victim));
        let err = obs_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(err, crate::RecvError::Killed);
        // Sends to the dead node are dropped with an error.
        assert_eq!(
            cluster.handle().send_as_harness(victim, 1),
            Err(SendError::Unreachable(victim))
        );
        assert_eq!(cluster.stats().dropped, 1);
        cluster.join();
    }

    #[test]
    fn kill_is_idempotent() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let victim = cluster.spawn(NodeClass::Transient, |ctx| {
            let _ = ctx.recv();
        });
        cluster.kill(victim);
        cluster.kill(victim);
        cluster.kill(NodeId(999)); // Unknown node: no-op.
        cluster.join();
    }

    #[test]
    fn revoke_delivers_warning_and_node_keeps_running() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (obs_tx, obs_rx) = unbounded();
        let node = cluster.spawn(NodeClass::Transient, move |ctx| {
            match ctx.recv() {
                Ok(Incoming::Control(Control::EvictionWarning { deadline_ms })) => {
                    // Still alive: can do a final action.
                    obs_tx.send(deadline_ms).unwrap();
                }
                other => panic!("expected warning, got {other:?}"),
            }
        });
        cluster.revoke(node, 120_000).unwrap();
        assert_eq!(
            obs_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
            120_000
        );
        cluster.join();
    }

    #[test]
    fn shutdown_is_observable_as_control() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (obs_tx, obs_rx) = unbounded();
        let node = cluster.spawn(NodeClass::Reliable, move |ctx| {
            if let Ok(Incoming::Control(Control::Shutdown)) = ctx.recv() {
                obs_tx.send(()).unwrap();
            }
        });
        cluster.shutdown(node).unwrap();
        obs_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        cluster.join();
    }

    #[test]
    fn live_nodes_and_classes_are_tracked() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let a = cluster.spawn(NodeClass::Reliable, |ctx| {
            let _ = ctx.recv();
        });
        let b = cluster.spawn(NodeClass::Transient, |ctx| {
            let _ = ctx.recv();
        });
        assert_eq!(cluster.live_nodes(), vec![a, b]);
        assert_eq!(cluster.class_of(a), Some(NodeClass::Reliable));
        assert_eq!(cluster.class_of(b), Some(NodeClass::Transient));
        cluster.kill(a);
        assert_eq!(cluster.live_nodes(), vec![b]);
        cluster.abort_all();
    }

    #[test]
    fn dead_sender_cannot_send() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (obs_tx, obs_rx) = unbounded();
        let (gate_tx, gate_rx) = unbounded::<()>();
        let target = cluster.spawn(NodeClass::Reliable, |ctx| {
            let _ = ctx.recv();
        });
        let sender = cluster.spawn(NodeClass::Transient, move |ctx| {
            // Wait until the harness kills us, then try to send.
            gate_rx.recv().unwrap();
            obs_tx.send(ctx.send(target, 9)).unwrap();
        });
        cluster.kill(sender);
        gate_tx.send(()).unwrap();
        let result = obs_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(result, Err(SendError::SelfDead));
        cluster.abort_all();
    }

    #[test]
    fn fault_plan_applies_at_the_cluster_boundary() {
        use crate::fault::FaultPlan;
        let mut cluster: Cluster<u32> = Cluster::new();
        let (done_tx, done_rx) = unbounded();
        let sink = cluster.spawn(NodeClass::Reliable, move |ctx| {
            let mut got = Vec::new();
            while let Ok(Incoming::App(env)) = ctx.recv() {
                got.push(env.msg);
                if env.msg == 99 {
                    done_tx.send(got.clone()).unwrap();
                }
            }
        });
        let harness = NodeId::HARNESS;
        // Delay every harness→sink message: each send releases the
        // previous one, and the flush releases the last.
        cluster.set_faults(FaultPlan::new(5).delay_between(harness, sink, 1.0));
        let h = cluster.handle();
        for i in [1u32, 2, 3] {
            h.send_as_harness(sink, i).unwrap();
        }
        assert_eq!(cluster.fault_stats().delayed, 3);
        assert_eq!(cluster.flush_delayed(), 1);
        cluster.clear_faults();
        h.send_as_harness(sink, 99).unwrap();
        let got = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, vec![1, 2, 3, 99]);
        cluster.abort_all();
    }

    /// Regression (issue 8): the old `deliver` overwrote the send result
    /// with the *last* routed payload's outcome, so a released stale held
    /// message could leak its failure into an unrelated sender. A sender
    /// whose own message was absorbed (here: delayed) must see `Ok` even
    /// when the held message it releases is undeliverable.
    #[test]
    fn absorbed_send_succeeds_even_if_released_held_message_is_dead() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let victim = cluster.spawn(NodeClass::Transient, |ctx| while ctx.recv().is_ok() {});
        let h = cluster.handle();
        cluster.set_faults(FaultPlan::new(1).delay_between(NodeId::HARNESS, victim, 1.0));
        // First send: held back (absorbed), sender sees Ok.
        assert_eq!(h.send_as_harness(victim, 1), Ok(()));
        cluster.kill(victim);
        // Second send: also delayed (absorbed) — it releases the held
        // first message, whose routing now fails. That failure is the
        // held message's own (counted as a drop), not this sender's.
        let before = cluster.stats().dropped;
        assert_eq!(h.send_as_harness(victim, 2), Ok(()));
        assert_eq!(cluster.stats().dropped, before + 1);
        cluster.join();
    }

    /// Regression (issue 8): success must mean "at least one copy of *my*
    /// message was delivered (or the network absorbed it)". A duplicated
    /// message to a dead target delivers zero copies, so the sender must
    /// see `Unreachable` — and both copies must be counted as drops.
    #[test]
    fn duplicated_send_to_dead_target_reports_unreachable() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let victim = cluster.spawn(NodeClass::Transient, |ctx| while ctx.recv().is_ok() {});
        cluster.set_faults(FaultPlan::new(1).duplicate_between(NodeId::HARNESS, victim, 1.0));
        cluster.kill(victim);
        assert_eq!(
            cluster.handle().send_as_harness(victim, 1),
            Err(SendError::Unreachable(victim))
        );
        assert_eq!(cluster.fault_stats().duplicated, 1);
        assert_eq!(cluster.stats().dropped, 2);
        cluster.join();
    }

    /// Regression (issue 8): replacing an installed fault layer used to
    /// destroy its held (delayed) messages without a trace. `set_faults`
    /// must flush the old layer first, exactly like `clear_faults`.
    #[test]
    fn replacing_fault_layer_flushes_held_messages() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (done_tx, done_rx) = unbounded();
        let sink = cluster.spawn(NodeClass::Reliable, move |ctx| {
            let mut got = Vec::new();
            while let Ok(Incoming::App(env)) = ctx.recv() {
                got.push(env.msg);
                if env.msg == 99 {
                    done_tx.send(got.clone()).unwrap();
                    break;
                }
            }
        });
        cluster.set_faults(FaultPlan::new(3).delay_between(NodeId::HARNESS, sink, 1.0));
        let h = cluster.handle();
        h.send_as_harness(sink, 1).unwrap();
        assert_eq!(cluster.fault_stats().delayed, 1);
        // Replacing the plan must release the held message, not eat it.
        cluster.set_faults(FaultPlan::new(4));
        h.send_as_harness(sink, 99).unwrap();
        let got = done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, vec![1, 99]);
        cluster.abort_all();
    }

    /// Regression (issue 8): a held message flushed by a layer
    /// replacement whose destination is already dead must be counted in
    /// `NetStats::dropped`, not silently vanish.
    #[test]
    fn replacing_fault_layer_counts_undeliverable_held_as_dropped() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let victim = cluster.spawn(NodeClass::Transient, |ctx| while ctx.recv().is_ok() {});
        cluster.set_faults(FaultPlan::new(5).delay_between(NodeId::HARNESS, victim, 1.0));
        cluster.handle().send_as_harness(victim, 1).unwrap();
        cluster.kill(victim);
        let before = cluster.stats().dropped;
        cluster.set_faults(FaultPlan::new(6));
        assert_eq!(cluster.stats().dropped, before + 1);
        cluster.join();
    }

    /// Pins the documented kill semantic: `recv` reports `Killed`
    /// immediately once the node is dead, discarding messages queued
    /// before the kill — a killed machine loses its mailbox.
    #[test]
    fn recv_after_kill_discards_pre_kill_queued_messages() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (obs_tx, obs_rx) = unbounded();
        let (gate_tx, gate_rx) = unbounded::<()>();
        let victim = cluster.spawn(NodeClass::Transient, move |ctx| {
            // Hold off receiving until the harness has queued a message
            // and killed us; the queued message must never surface.
            gate_rx.recv().unwrap();
            obs_tx.send(ctx.recv()).unwrap();
        });
        cluster.handle().send_as_harness(victim, 42).unwrap();
        cluster.kill(victim);
        gate_tx.send(()).unwrap();
        let got = obs_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got, Err(crate::RecvError::Killed));
        cluster.join();
    }

    /// The synthetic harness id is reserved: no spawned node can ever be
    /// confused with it.
    #[test]
    fn harness_id_is_never_spawned() {
        let cluster: Cluster<u32> = Cluster::new();
        assert!(!cluster.alive(NodeId::HARNESS));
        assert_eq!(cluster.class_of(NodeId::HARNESS), None);
        cluster.join();
    }

    #[test]
    fn stats_count_delivered_messages() {
        let mut cluster: Cluster<u32> = Cluster::new();
        let (done_tx, done_rx) = unbounded();
        let sink = cluster.spawn(NodeClass::Reliable, move |ctx| {
            for _ in 0..10 {
                let _ = ctx.recv();
            }
            done_tx.send(()).unwrap();
        });
        cluster.spawn(NodeClass::Transient, move |ctx| {
            for i in 0..10 {
                ctx.send(sink, i).unwrap();
            }
        });
        done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(cluster.stats().messages, 10);
        cluster.join();
    }
}
