//! The discrete-event simnet core: one timestamp-ordered queue, nodes as
//! event-handler components, same-instant handlers run in parallel.
//!
//! A thread per simulated machine is hopeless at fleet scale: a thousand
//! machines means a thousand OS threads fighting the scheduler.
//! [`SimCluster`] is the DSLab-style alternative: a single driver owning
//! one [`EventQueue`],
//! with every node implemented as a [`SimNode`] component whose
//! `on_message` / `on_control` handlers run when their events pop. A
//! send is not a channel push but a **scheduled delivery event** at
//! `now + link latency`; time advances only by popping the queue, so a
//! simulation costs its handlers — no thread spawn, park, or context
//! switch per message.
//!
//! # Batches
//!
//! The queue is dispatched a **batch** at a time. A batch is every
//! event at the head timestamp that is in the queue when the batch
//! forms, grouped by destination node in queue order. Each node's group
//! runs against a private [`SimCtx`]: liveness as of the start of the
//! batch, and its own outbox and stop flag. Groups of distinct
//! nodes share nothing, so they run on the persistent
//! [`proteus_simtime::Pool`] when they announce enough computation to
//! be worth waking a thread for ([`SimNode::compute_hint`]) and inline
//! on the driver's thread otherwise — a choice made from the batch's
//! contents alone. Afterwards the
//! driver **commits** on its own thread: stop flags first, then every
//! outbox through the fault layer into the queue in ascending
//! `(NodeId, send order)`, then deferred harness sends. An event
//! scheduled by a handler for the current instant joins the *next*
//! batch.
//!
//! # Determinism
//!
//! What a handler sees and what the commit step enqueues are functions
//! of the batch alone, not of which thread ran which group or which
//! finished first; the commit order is fixed. One thread runs the same
//! batches inline. So event order, [`NetStats`], the traffic matrix and
//! fault verdicts are identical for every thread count and every run —
//! there is no interleaving to get lucky with. (Commit order is
//! load-bearing: committing in completion order would let the scheduler
//! pick the FIFO order of same-instant deliveries, and with it float
//! summation order downstream.)
//!
//! # Fault injection at enqueue time
//!
//! A [`FaultPlan`] is applied when a message is **enqueued** (at
//! commit, on the driver's thread), not when it is dispatched: the n-th
//! send on a (sender, receiver) pair consumes the n-th draw of that
//! pair's seeded stream, and the commit order fixes which send is the
//! n-th. A chaos run is therefore reproducible from the plan seed alone.
//!
//! # Kill semantics
//!
//! A node killed by [`SimCluster::kill`] or a delivered
//! [`Control::Kill`] never handles another event, and its state is
//! dropped. Deliveries already scheduled to it are discarded at dispatch
//! and counted in [`NetStats::dropped`], as a revoked machine loses the
//! data in flight to it. A node that
//! stops *within* a batch still looks alive to its peers in that batch
//! (their sends report success); those messages are counted drops at
//! commit, exactly like mail in flight to a machine that just died.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use proteus_obs::Recorder;
use proteus_simtime::{EventQueue, Pool, SimDuration, SimTime};

use crate::fault::{Applied, FaultLayer, FaultPlan, FaultStats};
use crate::message::{Control, SendError};
use crate::node::{NodeClass, NodeId};

/// Aggregate traffic counters for the whole cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Application messages successfully delivered.
    pub messages: u64,
    /// Messages dropped because the destination was dead or absent.
    pub dropped: u64,
}

/// A node as an event-handler component.
///
/// Handlers of one node run one at a time, in queue order; handlers of
/// distinct nodes due at the same instant may run on different threads
/// (hence the `Send` bound on [`SimCluster::add_node`]). They interact
/// with the cluster (sending, introspection) only through the
/// [`SimCtx`] they are handed. Handlers must not block — in a
/// discrete-event world, "waiting" is waiting for the next message.
pub trait SimNode<M> {
    /// Called once, synchronously, when the node is added to the cluster.
    fn on_start(&mut self, _ctx: &mut SimCtx<'_, M>) {}

    /// An application message from `from` arrived.
    fn on_message(&mut self, ctx: &mut SimCtx<'_, M>, from: NodeId, msg: M);

    /// A harness control signal arrived ([`Control::Kill`] is never seen
    /// here — the core retires the node instead).
    fn on_control(&mut self, _ctx: &mut SimCtx<'_, M>, _ctrl: Control) {}

    /// Roughly how many multiply-adds handling `msg` will take, when it
    /// is real computation rather than bookkeeping (zero). A hint, asked
    /// when a batch forms: the core hands a batch to other threads only
    /// when it could hand over a few hundred thousand of them, because
    /// waking a parked thread costs far more than a handler that merely
    /// files a message. It changes which thread runs a handler, never
    /// what the run produces.
    fn compute_hint(&self, _from: NodeId, _msg: &M) -> u64 {
        0
    }
}

/// A boxed message handler: the node's [`SimCtx`], the sender, the
/// message.
type Handler<M> = Box<dyn FnMut(&mut SimCtx<'_, M>, NodeId, M) + Send>;

/// Closure-based [`SimNode`] for tests, benches, and simple protocols:
/// it handles application messages and ignores controls.
pub struct FnNode<M> {
    on_message: Handler<M>,
}

impl<M> FnNode<M> {
    /// A component handling application messages with `f`.
    pub fn new(f: impl FnMut(&mut SimCtx<'_, M>, NodeId, M) + Send + 'static) -> Self {
        FnNode {
            on_message: Box::new(f),
        }
    }
}

impl<M> SimNode<M> for FnNode<M> {
    fn on_message(&mut self, ctx: &mut SimCtx<'_, M>, from: NodeId, msg: M) {
        (self.on_message)(ctx, from, msg);
    }
}

/// The least computation, in [`SimNode::compute_hint`] units, worth
/// waking parked helpers for — not counting the batch's largest group,
/// which the driver runs itself. A wake-up takes tens of microseconds on
/// an idle desktop and most of a millisecond on a virtual CPU that has
/// halted; this many multiply-adds take a few hundred microseconds, so
/// below it the helpers would arrive to find the batch done.
const MIN_OFFLOAD: u64 = 400_000;

/// One scheduled occurrence in the simulation.
enum SimEvent<M> {
    /// A message crossing the simulated link, due at its delivery instant.
    Deliver { from: NodeId, to: NodeId, msg: M },
    /// A harness control signal due at `to`.
    Control { to: NodeId, ctrl: Control },
}

/// Per-node registry metadata, indexed by `NodeId.0` (ids are handed
/// out densely). Kept apart from the components so handlers can read
/// every node's liveness while each component is mutably borrowed.
struct NodeMeta {
    class: NodeClass,
    dead: bool,
}

/// Everything one node's handlers produced during a batch; committed by
/// the driver afterwards.
struct Outbox<M> {
    /// Sends, in program order.
    sends: Vec<(NodeId, M)>,
    stopped: bool,
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            sends: Vec::new(),
            stopped: false,
        }
    }
}

/// One event of a batch as its destination node sees it.
enum Due<M> {
    Deliver { from: NodeId, msg: M },
    Control(Control),
}

/// A live node: its component, and its share of the batch in flight —
/// its due events in queue order and what running them produced. The
/// buffers are emptied, not freed, between batches.
struct Group<M> {
    id: NodeId,
    node: Box<dyn SimNode<M> + Send>,
    events: Vec<Due<M>>,
    /// The node's [`SimNode::compute_hint`]s for `events`, summed.
    compute: u64,
    out: Outbox<M>,
    /// Senders of the deliveries handled, in order.
    delivered: Vec<NodeId>,
    /// Deliveries discarded because the node stopped earlier in the batch.
    dropped: u64,
}

impl<M> Group<M> {
    fn run(&mut self, now: SimTime, meta: &[NodeMeta]) {
        for ev in self.events.drain(..) {
            if self.out.stopped {
                if matches!(ev, Due::Deliver { .. }) {
                    self.dropped += 1;
                }
                continue;
            }
            let mut ctx = SimCtx {
                id: self.id,
                now,
                meta,
                out: &mut self.out,
            };
            match ev {
                Due::Deliver { from, msg } => {
                    self.delivered.push(from);
                    self.node.on_message(&mut ctx, from, msg);
                }
                Due::Control(Control::Kill) => self.out.stopped = true,
                Due::Control(ctrl) => self.node.on_control(&mut ctx, ctrl),
            }
        }
    }
}

/// The routing core the commit step mutates: clock, queue, registry
/// metadata, fault layer, counters, recorder.
struct CoreState<M> {
    now: SimTime,
    queue: EventQueue<SimEvent<M>>,
    meta: Vec<NodeMeta>,
    /// One-way link latency applied to every delivery.
    link_latency: SimDuration,
    faults: Option<FaultLayer<M>>,
    /// What replaced or cleared fault layers injected, so
    /// `fault_stats` totals the run rather than the current plan.
    retired_faults: FaultStats,
    messages: u64,
    dropped: u64,
    /// Delivered-message counts per (sender, receiver) pair; a BTreeMap
    /// so iteration order is deterministic for free.
    traffic: BTreeMap<(NodeId, NodeId), u64>,
    /// A recorder whose sim clock follows this cluster's.
    recorder: Option<Arc<Recorder>>,
}

fn is_alive(meta: &[NodeMeta], node: NodeId) -> bool {
    meta.get(node.0 as usize).is_some_and(|m| !m.dead)
}

impl<M: Clone> CoreState<M> {
    /// Pushes one message sent at `sent` through the fault layer and
    /// schedules the surviving copies as delivery events at
    /// `sent + latency`.
    ///
    /// The result is the sender's own message's: success iff the fault
    /// layer absorbed it or the destination was alive to schedule a copy
    /// toward, whatever becomes of a held message this send releases.
    /// Copies aimed at a dead destination are counted as drops
    /// immediately; copies scheduled toward a then-alive destination
    /// that dies before dispatch are counted as drops at dispatch.
    fn enqueue(
        &mut self,
        sent: SimTime,
        from: NodeId,
        to: NodeId,
        msg: M,
    ) -> Result<(), SendError> {
        let applied = match &mut self.faults {
            None => Applied::passthrough(msg),
            Some(layer) => layer.apply(from, to, msg),
        };
        let alive = is_alive(&self.meta, to);
        let at = sent + self.link_latency;
        let absorbed = applied.absorbed;
        for m in applied.copies.into_iter().chain(applied.released) {
            if alive {
                self.queue
                    .schedule(at, SimEvent::Deliver { from, to, msg: m });
            } else {
                self.dropped += 1;
            }
        }
        if alive || absorbed {
            Ok(())
        } else {
            Err(SendError::Unreachable(to))
        }
    }

    /// Commits one node's sends, in program order, at the current
    /// instant.
    fn commit(&mut self, id: NodeId, sends: impl Iterator<Item = (NodeId, M)>) {
        for (to, msg) in sends {
            let _ = self.enqueue(self.now, id, to, msg);
        }
    }
}

/// The per-handler handle a [`SimNode`] interacts with the cluster
/// through.
///
/// Private to the node for the length of a batch: it reads liveness as
/// of the start of the batch and collects sends and the stop flag for
/// the driver to commit afterwards.
pub struct SimCtx<'a, M> {
    id: NodeId,
    now: SimTime,
    meta: &'a [NodeMeta],
    out: &'a mut Outbox<M>,
}

impl<M> SimCtx<'_, M> {
    /// This node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This node's reliability class.
    pub fn class(&self) -> NodeClass {
        self.meta
            .get(self.id.0 as usize)
            .map(|m| m.class)
            .unwrap_or(NodeClass::Transient)
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sends an application message to `to`: a delivery event scheduled
    /// at `now + link latency`, after the fault layer has had its say
    /// (both at commit).
    ///
    /// Fails with [`SendError::SelfDead`] if this node has stopped and
    /// [`SendError::Unreachable`] if the target was already gone when
    /// the batch began. A target that dies later — even within this
    /// batch — reports success here and the copy is dropped and counted
    /// instead: exactly a packet in flight to a revoked machine.
    pub fn send(&mut self, to: NodeId, msg: M) -> Result<(), SendError> {
        if self.out.stopped {
            return Err(SendError::SelfDead);
        }
        // Queued even toward a dead target, so the commit step counts
        // the drop.
        self.out.sends.push((to, msg));
        if is_alive(self.meta, to) {
            Ok(())
        } else {
            Err(SendError::Unreachable(to))
        }
    }

    /// Retires this node cooperatively: no further events are dispatched
    /// to it and subsequent sends toward it count as drops.
    pub fn stop(&mut self) {
        self.out.stopped = true;
    }
}

/// A discrete-event cluster: the [`SimNode`] components, the shared
/// routing state, and the single timestamp-ordered event queue that
/// drives them.
///
/// # Examples
///
/// ```
/// use proteus_simnet::{FnNode, NodeClass, NodeId, SimCluster};
/// use proteus_simtime::SimDuration;
///
/// let mut sim: SimCluster<u64> = SimCluster::new();
/// sim.set_link_latency(SimDuration::from_millis(5));
/// let echo = sim.add_node(
///     NodeClass::Reliable,
///     FnNode::new(|ctx, from, msg| {
///         let _ = ctx.send(from, msg * 2);
///     }),
/// );
/// // The harness asks the probe to send 21 to the echo node.
/// let probe = sim.add_node(
///     NodeClass::Transient,
///     FnNode::new(move |ctx, from, msg| {
///         if from == NodeId::HARNESS {
///             let _ = ctx.send(echo, msg);
///         } else {
///             assert_eq!(msg, 42);
///         }
///     }),
/// );
/// sim.send_as_harness(probe, 21).unwrap();
/// let end = sim.run_until_idle();
/// assert_eq!(end, proteus_simtime::SimTime::from_millis(15));
/// assert_eq!(sim.stats().messages, 3);
/// ```
pub struct SimCluster<M> {
    state: CoreState<M>,
    /// Indexed like `state.meta`; `None` once the node is dead (its
    /// state is dropped, as a thread's would be on exit) and while it is
    /// out running a batch.
    components: Vec<Option<Group<M>>>,
    pool: Pool,
    /// `group_at[node]` is the node's group in the batch being formed.
    group_at: Vec<Option<u32>>,
}

impl<M: Clone + Send> Default for SimCluster<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Clone + Send> SimCluster<M> {
    /// Creates an empty cluster at the simulation epoch with zero link
    /// latency, dispatching on as many threads as `PROTEUS_THREADS` (or,
    /// unset, the machine) allows. The thread count changes which thread
    /// runs a handler, never what any handler sees or what the run
    /// produces.
    pub fn new() -> Self {
        SimCluster {
            state: CoreState {
                now: SimTime::EPOCH,
                queue: EventQueue::new(),
                meta: Vec::new(),
                link_latency: SimDuration::ZERO,
                faults: None,
                retired_faults: FaultStats::default(),
                messages: 0,
                dropped: 0,
                traffic: BTreeMap::new(),
                recorder: None,
            },
            components: Vec::new(),
            pool: Pool::from_env(),
            group_at: Vec::new(),
        }
    }

    /// Sets the one-way link latency applied to every delivery.
    pub fn set_link_latency(&mut self, latency: SimDuration) {
        self.state.link_latency = latency;
    }

    /// Adds a node of the given reliability class, returning its id. The
    /// component's [`SimNode::on_start`] runs synchronously before this
    /// returns (at the current sim instant), and what it sent is already
    /// in the queue.
    pub fn add_node(&mut self, class: NodeClass, node: impl SimNode<M> + Send + 'static) -> NodeId {
        // `NodeId::HARNESS` (u32::MAX) is reserved for harness-attributed
        // traffic; an added node must never collide with it.
        let id = self.next_id();
        assert!(
            id < NodeId::HARNESS,
            "simnet event core exhausted the spawnable NodeId space"
        );
        self.state.meta.push(NodeMeta { class, dead: false });
        self.group_at.push(None);
        let mut group = Group {
            id,
            node: Box::new(node),
            events: Vec::new(),
            compute: 0,
            out: Outbox::default(),
            delivered: Vec::new(),
            dropped: 0,
        };
        group.node.on_start(&mut SimCtx {
            id,
            now: self.state.now,
            meta: &self.state.meta,
            out: &mut group.out,
        });
        self.components.push(None);
        self.state.meta[id.0 as usize].dead = group.out.stopped;
        self.settle(group);
        id
    }

    /// Commits a group's outbox and files the node back for the next
    /// batch unless it stopped (the caller has marked it dead by then).
    fn settle(&mut self, mut group: Group<M>) {
        self.state.commit(group.id, group.out.sends.drain(..));
        if !group.out.stopped {
            let slot = group.id.0 as usize;
            self.components[slot] = Some(group);
        }
    }

    /// The id the next [`SimCluster::add_node`] will hand out — for
    /// components that need to know their own id when constructed.
    pub fn next_id(&self) -> NodeId {
        NodeId(u32::try_from(self.components.len()).unwrap_or(u32::MAX))
    }

    /// The current simulated instant: the timestamp of the last
    /// dispatched batch.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// Sends an application message on behalf of the harness, attributed
    /// to the reserved [`NodeId::HARNESS`].
    pub fn send_as_harness(&mut self, to: NodeId, msg: M) -> Result<(), SendError> {
        self.state.enqueue(self.state.now, NodeId::HARNESS, to, msg)
    }

    /// Delivers a control signal to `to` at the current instant.
    pub fn send_control(&mut self, to: NodeId, ctrl: Control) -> Result<(), SendError> {
        if !self.alive(to) {
            return Err(SendError::Unreachable(to));
        }
        self.state
            .queue
            .schedule(self.state.now, SimEvent::Control { to, ctrl });
        Ok(())
    }

    /// Delivers an eviction warning to `node` at the current instant.
    pub fn revoke(&mut self, node: NodeId, deadline_ms: u64) -> Result<(), SendError> {
        self.send_control(node, Control::EvictionWarning { deadline_ms })
    }

    /// Politely asks `node` to shut down (end-of-job).
    pub fn shutdown(&mut self, node: NodeId) -> Result<(), SendError> {
        self.send_control(node, Control::Shutdown)
    }

    /// Abruptly kills `node`, effective immediately: it handles no
    /// further events, deliveries already in flight toward it are
    /// discarded at dispatch (counted in [`NetStats::dropped`]), and
    /// sends from it fail with [`SendError::SelfDead`].
    ///
    /// Idempotent; killing an unknown node is a no-op.
    pub fn kill(&mut self, node: NodeId) {
        if let Some(m) = self.state.meta.get_mut(node.0 as usize) {
            m.dead = true;
            self.components[node.0 as usize] = None;
        }
    }

    /// Installs (or replaces) a message-[`FaultPlan`], applied at
    /// enqueue time to every subsequent send. A replaced layer is
    /// flushed first so its held (delayed) messages are scheduled for
    /// delivery rather than silently destroyed.
    pub fn set_faults(&mut self, plan: FaultPlan<M>) {
        self.clear_faults();
        self.state.faults = Some(FaultLayer::new(plan));
    }

    /// Removes the fault layer, flushing any held-back messages first;
    /// what it injected stays in [`SimCluster::fault_stats`].
    pub fn clear_faults(&mut self) {
        self.flush_delayed();
        if let Some(layer) = self.state.faults.take() {
            self.state.retired_faults = self.state.retired_faults + layer.stats();
        }
    }

    /// Schedules every delayed (held-back) message for delivery at
    /// `now + latency`; returns how many were released.
    pub fn flush_delayed(&mut self) -> usize {
        let Some(layer) = self.state.faults.as_mut() else {
            return 0;
        };
        let held = layer.drain_held();
        let n = held.len();
        for (from, to, msg) in held {
            let at = self.state.now + self.state.link_latency;
            if self.alive(to) {
                self.state
                    .queue
                    .schedule(at, SimEvent::Deliver { from, to, msg });
            } else {
                self.state.dropped += 1;
            }
        }
        n
    }

    /// Counters of message faults injected so far, by every plan this
    /// cluster has run — a replaced or cleared plan's included.
    pub fn fault_stats(&self) -> FaultStats {
        let current = self.state.faults.as_ref().map(FaultLayer::stats);
        self.state.retired_faults + current.unwrap_or_default()
    }

    /// Attaches an observability recorder: its sim clock is driven to
    /// each batch's timestamp before dispatch, so component-recorded
    /// events are sim-time stamped.
    pub fn set_recorder(&mut self, rec: Arc<Recorder>) {
        rec.set_now(self.state.now);
        self.state.recorder = Some(rec);
    }

    /// Whether `node` is alive (added and not killed or stopped).
    pub fn alive(&self, node: NodeId) -> bool {
        is_alive(&self.state.meta, node)
    }

    /// Aggregate traffic counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            messages: self.state.messages,
            dropped: self.state.dropped,
        }
    }

    /// Delivered-message counts per (sender, receiver) pair, sorted.
    pub fn traffic_matrix(&self) -> Vec<((NodeId, NodeId), u64)> {
        self.state.traffic.iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Dispatches the next batch — every event at the earliest pending
    /// timestamp; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.state.queue.peek_time() {
            Some(at) => {
                self.dispatch(at);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain, returning the final sim instant.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.state.now
    }

    /// Forms, runs and commits the batch at `at` (see the module docs).
    fn dispatch(&mut self, at: SimTime) {
        self.state.now = at;
        if let Some(rec) = self.state.recorder.as_deref() {
            rec.set_now(at);
        }

        // Form: every event at `at` that is queued right now.
        let mut groups: Vec<Group<M>> = Vec::new();
        while let Some((_, ev)) = self.state.queue.pop_due(at) {
            let (to, due) = match ev {
                SimEvent::Deliver { from, to, msg } => (to, Due::Deliver { from, msg }),
                SimEvent::Control { to, ctrl } => (to, Due::Control(ctrl)),
            };
            let slot = to.0 as usize;
            let group = match self.group_at.get(slot).copied().flatten() {
                Some(g) => &mut groups[g as usize],
                None => {
                    let Some(group) = self.components.get_mut(slot).and_then(Option::take) else {
                        // The destination died after this event was
                        // scheduled: the pinned kill semantic — in-flight
                        // messages to a killed node are lost, and counted.
                        if matches!(due, Due::Deliver { .. }) {
                            self.state.dropped += 1;
                        }
                        continue;
                    };
                    self.group_at[slot] = Some(groups.len() as u32);
                    groups.push(group);
                    let last = groups.len() - 1;
                    &mut groups[last]
                }
            };
            if let Due::Deliver { from, msg } = &due {
                group.compute += group.node.compute_hint(*from, msg);
            }
            group.events.push(due);
        }

        // Run: one group per node, sharing only the liveness snapshot;
        // on the pool when there is enough computation to hand over.
        let meta = &self.state.meta[..];
        let total: u64 = groups.iter().map(|g| g.compute).sum();
        let largest = groups.iter().map(|g| g.compute).max().unwrap_or(0);
        if total - largest >= MIN_OFFLOAD && self.pool.threads() > 1 {
            // Claims go in index order: the longest groups first, so the
            // small ones fill in around them.
            groups.sort_by_key(|g| std::cmp::Reverse(g.compute));
            let shared: Vec<Mutex<Group<M>>> = groups.into_iter().map(Mutex::new).collect();
            self.pool.run_indexed(shared.len(), |i| {
                // Each index is claimed once, so the lock is uncontended
                // and, as a panic would have left this call, unpoisoned.
                if let Ok(mut group) = shared[i].lock() {
                    group.run(at, meta);
                }
            });
            groups = shared
                .into_iter()
                .filter_map(|group| group.into_inner().ok())
                .collect();
        } else {
            for group in &mut groups {
                group.run(at, meta);
            }
        }

        // Commit, in ascending node order whatever order groups formed
        // or finished in: counters and stop flags first, then outboxes.
        groups.sort_unstable_by_key(|g| g.id);
        for group in &mut groups {
            let slot = group.id.0 as usize;
            self.group_at[slot] = None;
            self.state.messages += group.delivered.len() as u64;
            for from in group.delivered.drain(..) {
                *self.state.traffic.entry((from, group.id)).or_insert(0) += 1;
            }
            self.state.dropped += std::mem::take(&mut group.dropped);
            group.compute = 0;
            if group.out.stopped {
                self.state.meta[slot].dead = true;
            }
        }
        for group in groups {
            self.settle(group);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_round_trip_advances_sim_time() {
        let mut sim: SimCluster<u32> = SimCluster::new();
        sim.set_link_latency(SimDuration::from_millis(3));
        let echo = sim.add_node(
            NodeClass::Reliable,
            FnNode::new(|ctx, from, msg| {
                let _ = ctx.send(from, msg + 1);
            }),
        );
        // The sink relays the harness's message to the echo node.
        let sink = sim.add_node(
            NodeClass::Transient,
            FnNode::new(move |ctx, from, msg| {
                if from == NodeId::HARNESS {
                    let _ = ctx.send(echo, msg);
                }
            }),
        );
        sim.send_as_harness(sink, 1).unwrap();
        assert_eq!(sim.run_until_idle(), SimTime::from_millis(9));
        assert_eq!(sim.stats().messages, 3);
        assert!(sim.traffic_matrix().contains(&((echo, sink), 1)));
    }

    #[test]
    fn same_timestamp_events_dispatch_fifo() {
        let mut sim: SimCluster<u32> = SimCluster::new();
        let log: Arc<Mutex<Vec<u32>>> = Default::default();
        let sink_log = Arc::clone(&log);
        let sink = sim.add_node(
            NodeClass::Reliable,
            FnNode::new(move |_, _, msg| sink_log.lock().unwrap().push(msg)),
        );
        for i in 0..50 {
            sim.send_as_harness(sink, i).unwrap();
        }
        sim.run_until_idle();
        assert_eq!(*log.lock().unwrap(), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn killed_node_drops_in_flight_deliveries() {
        let mut sim: SimCluster<u32> = SimCluster::new();
        sim.set_link_latency(SimDuration::from_millis(10));
        let victim = sim.add_node(
            NodeClass::Transient,
            FnNode::new(|_, _, _| panic!("must never handle a message")),
        );
        sim.send_as_harness(victim, 7).unwrap(); // in flight for 10ms
        sim.kill(victim);
        sim.run_until_idle();
        assert_eq!(sim.stats().messages, 0);
        assert_eq!(sim.stats().dropped, 1);
        // Sends to the dead node now fail at enqueue.
        assert_eq!(
            sim.send_as_harness(victim, 8),
            Err(SendError::Unreachable(victim))
        );
        assert_eq!(sim.stats().dropped, 2);
    }

    #[test]
    fn harness_id_is_reserved() {
        let mut sim: SimCluster<u32> = SimCluster::new();
        let sink = sim.add_node(NodeClass::Reliable, FnNode::new(|_, _, _| {}));
        assert_ne!(sink, NodeId::HARNESS);
        assert!(!sim.alive(NodeId::HARNESS));
        sim.send_as_harness(sink, 1).unwrap();
        sim.run_until_idle();
        assert_eq!(sim.traffic_matrix(), vec![((NodeId::HARNESS, sink), 1)]);
    }
}
