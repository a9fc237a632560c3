//! The driver-facing job handle.
//!
//! [`AgileMlJob`] owns the simulated cluster: it spawns the controller and
//! the machine nodes, forwards elasticity actions (add / evict / fail) to
//! the controller, and exposes model snapshots, objective evaluation, and
//! the job event stream. This is the API the Proteus driver (and every
//! test, example, and benchmark) uses to run elastic training.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver};
use proteus_mlapps::app::{MlApp, ParamReader};
use proteus_obs::{Event, Recorder};
use proteus_ps::{DenseVec, ParamKey};
use proteus_simnet::{Cluster, ClusterHandle, FaultPlan, FaultStats, NetStats, NodeClass, NodeId};

use crate::config::AgileConfig;
use crate::controller::run_controller;
use crate::error::JobError;
use crate::events::{JobEvent, JobStatus};
use crate::msg::{AgileMsg, Command};
use crate::node::run_node;
use crate::stage::Stage;

/// Default timeout for driver-side waits.
const WAIT: Duration = Duration::from_secs(60);

/// A point-in-time copy of the full model, plus the progress metadata a
/// restarted job needs to resume where the snapshot left off.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSnapshot {
    /// Every materialized parameter.
    pub params: BTreeMap<ParamKey, DenseVec>,
    /// The minimum worker clock when the snapshot was taken.
    pub clock: u64,
    /// The recovery epoch in force when the snapshot was taken.
    pub epoch: u64,
    /// The elasticity stage at snapshot time (informational: a restarted
    /// job re-picks its stage from the machines it actually gets).
    pub stage: Stage,
}

impl ModelSnapshot {
    /// A [`ParamReader`] over this snapshot, falling back to zeros of the
    /// app's declared dimension for unmaterialized keys.
    pub fn reader<'a, A: MlApp>(&'a self, app: &'a A) -> SnapshotReader<'a, A> {
        let widest = (0..app.key_count())
            .map(|k| app.value_dim(ParamKey(k)))
            .max()
            .unwrap_or(0);
        SnapshotReader {
            snap: self,
            app,
            zeros: vec![0.0; widest],
        }
    }
}

/// Reader adapter over a [`ModelSnapshot`].
pub struct SnapshotReader<'a, A: MlApp> {
    snap: &'a ModelSnapshot,
    app: &'a A,
    /// As long as the app's widest row: what unmaterialized keys read as.
    zeros: Vec<f32>,
}

impl<'a, A: MlApp> ParamReader for SnapshotReader<'a, A> {
    fn row(&self, key: ParamKey) -> &[f32] {
        match self.snap.params.get(&key) {
            Some(v) => v.as_slice(),
            None => &self.zeros[..self.app.value_dim(key).min(self.zeros.len())],
        }
    }
}

/// A running elastic training job.
pub struct AgileMlJob<A: MlApp> {
    cluster: Cluster<AgileMsg>,
    handle: ClusterHandle<AgileMsg>,
    controller: NodeId,
    app: Arc<A>,
    dataset: Arc<Vec<A::Datum>>,
    cfg: AgileConfig,
    events: Receiver<JobEvent>,
    event_log: Vec<JobEvent>,
    obs: Option<Arc<Recorder>>,
    /// Worker machines spawned on the reliable tier (the controller host,
    /// also reliable, is tracked separately in `controller`).
    reliable_machines: Vec<NodeId>,
}

impl<A: MlApp> AgileMlJob<A> {
    /// Launches a job on `reliable` + `transient` fresh machines and
    /// blocks until training has started.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration, zero reliable machines, or start
    /// timeout.
    pub fn launch(
        app: A,
        dataset: Vec<A::Datum>,
        cfg: AgileConfig,
        reliable: usize,
        transient: usize,
    ) -> Result<Self, JobError> {
        Self::launch_with_model(app, dataset, cfg, reliable, transient, None)
    }

    /// Like [`AgileMlJob::launch`] but installs a [`FaultPlan`] at the
    /// cluster boundary *before* any node is spawned, so even the very
    /// first `Hello` traffic crosses the chaos layer.
    pub fn launch_with_faults(
        app: A,
        dataset: Vec<A::Datum>,
        cfg: AgileConfig,
        reliable: usize,
        transient: usize,
        faults: FaultPlan<AgileMsg>,
    ) -> Result<Self, JobError> {
        Self::launch_inner(app, dataset, cfg, reliable, transient, None, Some(faults))
    }

    /// Like [`AgileMlJob::launch`] but restores parameter state from a
    /// checkpointed [`ModelSnapshot`] instead of random initialization —
    /// the paper's Sec. 3.3 checkpointing of reliable resources, which
    /// in stage 3 costs no training throughput because no workers run on
    /// those machines.
    pub fn launch_from_checkpoint(
        app: A,
        dataset: Vec<A::Datum>,
        cfg: AgileConfig,
        reliable: usize,
        transient: usize,
        checkpoint: ModelSnapshot,
    ) -> Result<Self, JobError> {
        Self::launch_with_model(app, dataset, cfg, reliable, transient, Some(checkpoint))
    }

    /// [`AgileMlJob::launch_from_checkpoint`] with a [`FaultPlan`] installed
    /// before any node spawns — a restarted job re-enters the same hostile
    /// market it was restarted out of.
    pub fn launch_from_checkpoint_with_faults(
        app: A,
        dataset: Vec<A::Datum>,
        cfg: AgileConfig,
        reliable: usize,
        transient: usize,
        checkpoint: ModelSnapshot,
        faults: FaultPlan<AgileMsg>,
    ) -> Result<Self, JobError> {
        Self::launch_inner(
            app,
            dataset,
            cfg,
            reliable,
            transient,
            Some(checkpoint),
            Some(faults),
        )
    }

    fn launch_with_model(
        app: A,
        dataset: Vec<A::Datum>,
        cfg: AgileConfig,
        reliable: usize,
        transient: usize,
        checkpoint: Option<ModelSnapshot>,
    ) -> Result<Self, JobError> {
        Self::launch_inner(app, dataset, cfg, reliable, transient, checkpoint, None)
    }

    fn launch_inner(
        app: A,
        dataset: Vec<A::Datum>,
        cfg: AgileConfig,
        reliable: usize,
        transient: usize,
        checkpoint: Option<ModelSnapshot>,
        faults: Option<FaultPlan<AgileMsg>>,
    ) -> Result<Self, JobError> {
        cfg.validate().map_err(JobError::InvalidConfig)?;
        if reliable == 0 {
            return Err(JobError::InvalidConfig(
                "AgileML needs at least one reliable machine".into(),
            ));
        }
        let app = Arc::new(app);
        let dataset = Arc::new(dataset);
        let mut cluster: Cluster<AgileMsg> = Cluster::new();
        if let Some(plan) = faults {
            cluster.set_faults(plan);
        }
        let (ev_tx, ev_rx) = unbounded();

        // The controller runs on reliable infrastructure (node 0).
        let controller = {
            let app = Arc::clone(&app);
            let len = dataset.len();
            cluster.spawn(NodeClass::Reliable, move |ctx| {
                run_controller(ctx, cfg, app, len, ev_tx, checkpoint)
            })
        };

        let mut job = AgileMlJob {
            handle: cluster.handle(),
            cluster,
            controller,
            app,
            dataset,
            cfg,
            events: ev_rx,
            event_log: Vec::new(),
            obs: None,
            reliable_machines: Vec::new(),
        };

        let mut nodes = job.spawn_machines(NodeClass::Reliable, reliable);
        nodes.extend(job.spawn_machines(NodeClass::Transient, transient));
        job.send_cmd(Command::AddNodes { nodes })?;
        job.wait_for_event(|e| matches!(e, JobEvent::Started { .. }), WAIT, "job start")?;
        Ok(job)
    }

    fn spawn_machines(&mut self, class: NodeClass, count: usize) -> Vec<(NodeId, NodeClass)> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let app = Arc::clone(&self.app);
            let dataset = Arc::clone(&self.dataset);
            let cfg = self.cfg;
            let controller = self.controller;
            let id = self.cluster.spawn(class, move |ctx| {
                run_node(ctx, controller, app, dataset, cfg)
            });
            if class == NodeClass::Reliable {
                self.reliable_machines.push(id);
            }
            out.push((id, class));
        }
        out
    }

    /// Worker machines currently spawned on the reliable tier. Includes
    /// machines that have since died or been evicted — the list records
    /// what was *provisioned* reliable, not what is still alive.
    pub fn reliable_machines(&self) -> &[NodeId] {
        &self.reliable_machines
    }

    /// The node id hosting the controller (reliable tier by construction).
    pub fn controller_node(&self) -> NodeId {
        self.controller
    }

    /// Kills `nodes` at the cluster layer *without* notifying the
    /// controller — models abrupt machine loss (host crash, spot-market
    /// reclaim of "reliable" capacity) where no failure report ever
    /// arrives. Safe to include the controller host itself.
    pub fn kill_silent(&self, nodes: &[NodeId]) {
        for n in nodes {
            self.cluster.kill(*n);
        }
    }

    /// Tears the whole cluster down without the graceful `Shutdown`
    /// round-trip — the only exit path when the controller host itself is
    /// dead. Consumes the job; the caller relaunches from a checkpoint.
    pub fn abort(self) {
        self.cluster.clear_faults();
        self.cluster.abort_all();
    }

    /// Aborts the (possibly headless) old cluster and relaunches the job
    /// in a fresh one, resuming model, clock, and epoch from `checkpoint`
    /// — or from scratch when `None` (no checkpoint was ever taken).
    ///
    /// App, dataset, config, and recorder carry over; the event log
    /// restarts empty because its events belong to the dead incarnation.
    /// This is the session-level recovery path for losing the tier that
    /// "never fails": when even the controller host is gone, no in-job
    /// protocol can help, and the only option is a new job that starts
    /// where the last durable checkpoint left off.
    pub fn relaunch_from_checkpoint(
        &mut self,
        reliable: usize,
        transient: usize,
        checkpoint: Option<ModelSnapshot>,
    ) -> Result<(), JobError> {
        if reliable == 0 {
            return Err(JobError::InvalidConfig(
                "AgileML needs at least one reliable machine".into(),
            ));
        }
        let old = std::mem::replace(&mut self.cluster, Cluster::new());
        old.clear_faults();
        old.abort_all();
        if let Some(rec) = &self.obs {
            self.cluster.set_recorder(Arc::clone(rec));
        }
        let (ev_tx, ev_rx) = unbounded();
        let cfg = self.cfg;
        let app = Arc::clone(&self.app);
        let len = self.dataset.len();
        self.controller = self.cluster.spawn(NodeClass::Reliable, move |ctx| {
            run_controller(ctx, cfg, app, len, ev_tx, checkpoint)
        });
        self.handle = self.cluster.handle();
        self.events = ev_rx;
        self.event_log.clear();
        self.reliable_machines.clear();
        let mut nodes = self.spawn_machines(NodeClass::Reliable, reliable);
        nodes.extend(self.spawn_machines(NodeClass::Transient, transient));
        self.send_cmd(Command::AddNodes { nodes })?;
        self.wait_for_event(
            |e| matches!(e, JobEvent::Started { .. }),
            WAIT,
            "job restart",
        )
    }

    fn send_cmd(&self, cmd: Command) -> Result<(), JobError> {
        self.handle
            .send_as_harness(self.controller, AgileMsg::Cmd(cmd))
            .map_err(|e| JobError::ControllerUnreachable(e.to_string()))
    }

    /// Adds `count` machines of `class` to the running job; blocks until
    /// the controller integrated them. Returns the new node ids.
    pub fn add_machines(
        &mut self,
        class: NodeClass,
        count: usize,
    ) -> Result<Vec<NodeId>, JobError> {
        let nodes = self.spawn_machines(class, count);
        let ids: Vec<NodeId> = nodes.iter().map(|(n, _)| *n).collect();
        self.send_cmd(Command::AddNodes { nodes })?;
        let want = ids.clone();
        self.wait_for_event(
            move |e| matches!(e, JobEvent::NodesAdded { nodes } if *nodes == want),
            WAIT,
            "node addition",
        )?;
        Ok(ids)
    }

    /// Delivers an eviction warning for `nodes` and blocks until the
    /// controller drained and removed them (the machines shut themselves
    /// down after draining, like spot instances racing their two-minute
    /// warning).
    pub fn evict_with_warning(&mut self, nodes: &[NodeId]) -> Result<(), JobError> {
        self.send_cmd(Command::EvictWarned {
            nodes: nodes.to_vec(),
        })?;
        let want: Vec<NodeId> = nodes.to_vec();
        self.wait_for_event(
            // The controller reports the subset it actually evicted
            // (unknown nodes are filtered; an empty report means the
            // whole request was a no-op).
            move |e| {
                matches!(e, JobEvent::NodesEvicted { nodes }
                if nodes.iter().all(|n| want.contains(n)))
            },
            WAIT,
            "eviction drain",
        )
        // No kill here: the victims drain (final backup pushes,
        // partition migrations) and then stop themselves on the
        // controller's `Stop`, which is FIFO-ordered after the drain
        // orders — exactly the work the two-minute warning window
        // exists for. Killing eagerly could destroy a migration still
        // sitting in a victim's mailbox. Abrupt revocation (warning too
        // late to drain) is modelled by [`AgileMlJob::fail_nodes`].
    }

    /// Proactively demotes `nodes` on a preemption forecast: their
    /// ActivePS partitions migrate to safer transient hosts (or drain to
    /// the BackupPS copies) while the nodes keep working. Returns once
    /// the controller acknowledges the demotion. A wrong forecast costs
    /// only the migration — membership, clocks, and committed work are
    /// untouched, so the job's trajectory is unchanged.
    pub fn pre_drain(&mut self, nodes: &[NodeId]) -> Result<(), JobError> {
        self.send_cmd(Command::PreDrain {
            nodes: nodes.to_vec(),
        })?;
        let want: Vec<NodeId> = nodes.to_vec();
        self.wait_for_event(
            // The controller reports the subset it actually demoted
            // (reliable / unknown nodes are filtered out).
            move |e| {
                matches!(e, JobEvent::NodesPreDrained { nodes, .. }
                if nodes.iter().all(|n| want.contains(n)))
            },
            WAIT,
            "pre-drain demotion",
        )
    }

    /// Delivers a provider-style eviction warning to `nodes` through the
    /// simnet control channel **without** telling the controller directly:
    /// each node relays the warning as an `EvictionNotice`, which is how a
    /// real spot instance's two-minute notice reaches the controller. The
    /// call does not wait for the drain — chaos harnesses race it against
    /// kills (warning-then-crash) or drop the notices entirely
    /// (warning-with-no-eviction).
    pub fn warn_only(&self, nodes: &[NodeId], deadline_ms: u64) -> Result<(), JobError> {
        for n in nodes {
            self.cluster
                .revoke(*n, deadline_ms)
                .map_err(|e| JobError::ControllerUnreachable(e.to_string()))?;
        }
        Ok(())
    }

    /// A cloneable handle to the underlying cluster — chaos harnesses run
    /// a background thread over it that periodically flushes delayed
    /// messages so a held-back message can never deadlock a driver wait.
    pub fn cluster_handle(&self) -> ClusterHandle<AgileMsg> {
        self.handle.clone()
    }

    /// Kills `nodes` abruptly (no warning) and blocks until rollback
    /// recovery completes. Returns the clock the job rolled back to.
    pub fn fail_nodes(&mut self, nodes: &[NodeId]) -> Result<u64, JobError> {
        for n in nodes {
            self.cluster.kill(*n);
        }
        self.send_cmd(Command::NodesFailed {
            nodes: nodes.to_vec(),
        })?;
        let want: Vec<NodeId> = nodes.to_vec();
        let mut rolled = 0;
        self.wait_for_event(
            |e| match e {
                JobEvent::NodesFailedRecovered {
                    nodes,
                    rolled_back_to,
                } if *nodes == want => {
                    rolled = *rolled_back_to;
                    true
                }
                _ => false,
            },
            WAIT,
            "failure recovery",
        )?;
        Ok(rolled)
    }

    /// Kills reliable-tier `nodes` abruptly and blocks until the
    /// controller either repairs the loss in-job (re-replicating the
    /// dead nodes' BackupPS partitions onto surviving reliable machines)
    /// or declares it unrepairable with a typed fault. Returns the
    /// number of re-replicated partitions on repair.
    /// `Err(JobError::Fault(_))` means no in-job protocol can save this
    /// incarnation — the caller restarts from a durable checkpoint.
    pub fn fail_reliable_nodes(&mut self, nodes: &[NodeId]) -> Result<u64, JobError> {
        for n in nodes {
            self.cluster.kill(*n);
        }
        self.send_cmd(Command::NodesFailed {
            nodes: nodes.to_vec(),
        })?;
        let want: Vec<NodeId> = nodes.to_vec();
        let mut repaired = 0;
        self.wait_for_event(
            |e| match e {
                JobEvent::ReliableRepaired { nodes, partitions }
                    if nodes.iter().any(|n| want.contains(n)) =>
                {
                    repaired = *partitions;
                    true
                }
                // A report that named no reliable machines falls through
                // to ordinary rollback recovery.
                JobEvent::NodesFailedRecovered { nodes, .. } if *nodes == want => true,
                _ => false,
            },
            WAIT,
            "reliable repair",
        )?;
        Ok(repaired)
    }

    /// Like [`AgileMlJob::fail_nodes`] but returns immediately after the
    /// kill + report, without waiting for recovery — chaos harnesses use
    /// it to crash more machines while a rollback is already in flight.
    pub fn fail_nodes_async(&mut self, nodes: &[NodeId]) -> Result<(), JobError> {
        for n in nodes {
            self.cluster.kill(*n);
        }
        self.send_cmd(Command::NodesFailed {
            nodes: nodes.to_vec(),
        })
    }

    /// Blocks until a job event matching `pred` arrives; `waiting_for`
    /// labels the timeout error. Chaos harnesses use this to await the
    /// out-of-band completions of [`AgileMlJob::warn_only`] and
    /// [`AgileMlJob::fail_nodes_async`].
    pub fn wait_event(
        &mut self,
        mut pred: impl FnMut(&JobEvent) -> bool,
        timeout: Duration,
        waiting_for: &'static str,
    ) -> Result<(), JobError> {
        // The event may already have been drained into the log by an
        // earlier `events()` / wait call.
        if self.event_log.iter().any(&mut pred) {
            return Ok(());
        }
        self.wait_for_event(pred, timeout, waiting_for)
    }

    /// Blocks until the global minimum clock reaches `clock`.
    pub fn wait_clock(&mut self, clock: u64) -> Result<(), JobError> {
        self.wait_clock_for(clock, WAIT)
    }

    /// Like [`AgileMlJob::wait_clock`] with an explicit timeout — chaos
    /// harnesses poll with short deadlines between delayed-message
    /// flushes.
    pub fn wait_clock_for(&mut self, clock: u64, timeout: Duration) -> Result<(), JobError> {
        if self
            .event_log
            .iter()
            .any(|e| matches!(e, JobEvent::ClockAdvanced { min } if *min >= clock))
        {
            return Ok(());
        }
        self.wait_for_event(
            |e| matches!(e, JobEvent::ClockAdvanced { min } if *min >= clock),
            timeout,
            "clock advance",
        )
    }

    /// Fetches a full model snapshot from the serving parameter servers.
    pub fn snapshot(&self) -> Result<ModelSnapshot, JobError> {
        let (tx, rx) = bounded(1);
        self.send_cmd(Command::Snapshot { reply: tx })?;
        rx.recv_timeout(WAIT).map_err(|_| JobError::Timeout {
            waiting_for: "model snapshot",
        })
    }

    /// The training objective of the current model over `data`.
    pub fn objective(&self, data: &[A::Datum]) -> Result<f64, JobError> {
        let snap = self.snapshot()?;
        Ok(self.app.objective(data, &snap.reader(self.app.as_ref())))
    }

    /// Controller status (stage, counts, clock).
    pub fn status(&self) -> Result<JobStatus, JobError> {
        let (tx, rx) = bounded(1);
        self.send_cmd(Command::Status { reply: tx })?;
        rx.recv_timeout(WAIT).map_err(|_| JobError::Timeout {
            waiting_for: "controller status",
        })
    }

    /// Installs (or replaces) the seed-deterministic fault plan applied
    /// to every subsequently delivered message.
    pub fn set_faults(&self, plan: FaultPlan<AgileMsg>) {
        self.cluster.set_faults(plan);
    }

    /// Removes the fault plan, first releasing any held-back messages.
    pub fn clear_faults(&self) {
        self.cluster.clear_faults();
    }

    /// Releases every delayed message currently held by the fault layer
    /// (breaks artificial quiescence when a held message is the only
    /// traffic left); returns how many were released.
    pub fn flush_delayed(&self) -> usize {
        self.cluster.flush_delayed()
    }

    /// Counts of faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.cluster.fault_stats()
    }

    /// Attaches an observability recorder: future (and already-logged)
    /// job events are mirrored onto its timeline as `agile.*` records,
    /// and the cluster's fault layer mirrors injected message faults
    /// into its `simnet.msg.*` counters. Works before or after
    /// `set_faults` — the cluster retrofits the live layer.
    pub fn attach_recorder(&mut self, rec: Arc<Recorder>) {
        self.cluster.set_recorder(Arc::clone(&rec));
        for e in &self.event_log {
            rec.record_now(Event::Agile(e.to_obs()));
        }
        self.obs = Some(rec);
    }

    /// Logs a drained event, mirroring it to the recorder (stamped with
    /// the recorder's current sim clock) when one is attached.
    fn log_event(&mut self, e: JobEvent) {
        if let Some(rec) = self.obs.as_deref() {
            rec.record_now(Event::Agile(e.to_obs()));
        }
        self.event_log.push(e);
    }

    /// Every job event observed so far (drains the channel).
    pub fn events(&mut self) -> &[JobEvent] {
        while let Ok(e) = self.events.try_recv() {
            self.log_event(e);
        }
        &self.event_log
    }

    /// The application under training.
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The training dataset.
    pub fn dataset(&self) -> &[A::Datum] {
        &self.dataset
    }

    /// Delivered-message counts per (sender, receiver) pair — lets tests
    /// assert traffic-direction properties (e.g. backup streams flow
    /// toward reliable machines only).
    pub fn traffic_matrix(&self) -> Vec<((NodeId, NodeId), u64)> {
        self.cluster.traffic_matrix()
    }

    /// Messages delivered from `from` to `to`.
    pub fn traffic_between(&self, from: NodeId, to: NodeId) -> u64 {
        self.cluster.traffic_between(from, to)
    }

    /// Aggregate delivered/dropped counters for the whole cluster. Both
    /// simnet cores account identically (see
    /// `proteus_simnet::event_core`), so sessions can report these
    /// regardless of which core ran the job.
    pub fn net_stats(&self) -> NetStats {
        self.cluster.stats()
    }

    /// Stops every node and tears the cluster down.
    pub fn shutdown(self) -> Result<(), JobError> {
        // Held-back (delayed) messages must not strand a drain order.
        self.cluster.clear_faults();
        let (tx, rx) = bounded(1);
        self.send_cmd(Command::Shutdown { reply: tx })?;
        rx.recv_timeout(WAIT).map_err(|_| JobError::Timeout {
            waiting_for: "shutdown acknowledgement",
        })?;
        // Kill-then-join rather than a bare join: a victim holding out
        // for a relay that will never arrive (its migration source died
        // unwarned) must not hang teardown forever.
        self.cluster.abort_all();
        Ok(())
    }

    /// Waits until an event matching `pred` arrives (events seen along
    /// the way are logged). A [`JobEvent::Faulted`] arriving mid-wait
    /// aborts the wait with the typed fault: the controller has declared
    /// the thing being waited for unreachable.
    fn wait_for_event(
        &mut self,
        mut pred: impl FnMut(&JobEvent) -> bool,
        timeout: Duration,
        waiting_for: &'static str,
    ) -> Result<(), JobError> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(JobError::Timeout { waiting_for });
            }
            match self.events.recv_timeout(deadline - now) {
                Ok(e) => {
                    let hit = pred(&e);
                    let fault = match &e {
                        JobEvent::Faulted { fault } if !hit => Some(fault.clone()),
                        _ => None,
                    };
                    self.log_event(e);
                    if hit {
                        return Ok(());
                    }
                    if let Some(fault) = fault {
                        return Err(JobError::Fault(fault));
                    }
                }
                Err(_) => return Err(JobError::Timeout { waiting_for }),
            }
        }
    }
}
