//! The driver-facing job handle.
//!
//! [`AgileMlJob`] owns the simulated cluster — a discrete-event
//! [`SimCluster`] holding the controller and
//! the machine nodes — forwards elasticity actions (add / evict / fail)
//! to the controller, and exposes model snapshots, objective evaluation,
//! and the job event stream. This is the API the Proteus driver (and
//! every test, example, and benchmark) uses to run elastic training.
//!
//! # What a call runs
//!
//! Nothing happens between calls: the job is its event queue, and the
//! queue only moves while a facade call is waiting on it. Every waiting
//! call injects its command and dispatches batches until the
//! [`JobEvent`] or reply it awaits has been reported, then stops where
//! it is, leaving whatever training traffic is queued for the next
//! call. Training therefore advances when the driver waits for it
//! ([`AgileMlJob::wait_clock`]) or, incidentally, while a transition is
//! handled — and a job is a pure function of its inputs and the calls
//! made on it. A wait gives up with a typed error in two ways:
//! [`JobError::Stalled`] the moment the queue runs dry (after releasing
//! anything the fault layer was holding back), since nothing left to run
//! can report what was asked for; and [`JobError::Timeout`] once it has
//! dispatched its bound of batches while the job keeps training without
//! ever reporting it — on any host, after the same batch.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use proteus_mlapps::app::{MlApp, ParamReader};
use proteus_obs::{Event, Recorder};
use proteus_ps::{DenseVec, ParamKey};
use proteus_simnet::{FaultPlan, FaultStats, NetStats, NodeClass, NodeId, SimCluster};

use crate::config::AgileConfig;
use crate::controller::Controller;
use crate::error::JobError;
use crate::events::{JobEvent, JobStatus};
use crate::msg::{AgileMsg, Command, Report};
use crate::node::NodeState;
use crate::stage::Stage;
use crate::worker::BlockKeys;

/// Bound on the batches one wait dispatches, counted from where the
/// wait starts: reached only by a job that keeps training yet never
/// reports the awaited event. The longest wait measured took 600
/// batches (a `wait_clock` of the benchmark's `train_mf`; 120 in the
/// test suites and the examples), under a sixteenth of the bound.
const WAIT_BATCHES: u64 = 10_000;

/// Where the controller leaves its [`Report`]s for the driver.
pub(crate) type ReportSink = Arc<Mutex<VecDeque<Report>>>;

/// The queue behind a [`ReportSink`]. Both sides only push or pop under
/// the lock, so a poisoned one still holds a well-formed queue.
pub(crate) fn lock_reports(sink: &ReportSink) -> std::sync::MutexGuard<'_, VecDeque<Report>> {
    sink.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

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
        let keys = app.key_count();
        let widest = (0..keys)
            .map(|k| app.value_dim(ParamKey(k)))
            .max()
            .unwrap_or(0);
        // An objective reads rows millions of times: index them by key
        // once instead of walking the map on every read.
        let mut rows: Vec<Option<&'a [f32]>> = vec![None; keys as usize];
        for (key, value) in &self.params {
            if let Some(row) = rows.get_mut(key.0 as usize) {
                *row = Some(value.as_slice());
            }
        }
        SnapshotReader {
            rows,
            app,
            zeros: vec![0.0; widest],
        }
    }
}

/// Reader adapter over a [`ModelSnapshot`].
pub struct SnapshotReader<'a, A: MlApp> {
    /// The snapshot's row for each of the app's keys, if materialized.
    rows: Vec<Option<&'a [f32]>>,
    app: &'a A,
    /// As long as the app's widest row: what unmaterialized keys read as.
    zeros: Vec<f32>,
}

impl<'a, A: MlApp> ParamReader for SnapshotReader<'a, A> {
    fn row(&self, key: ParamKey) -> &[f32] {
        match self.rows.get(key.0 as usize).copied().flatten() {
            Some(row) => row,
            None => &self.zeros[..self.app.value_dim(key).min(self.zeros.len())],
        }
    }
}

/// The part of a job its `&self` queries have to move: the event queue
/// and everything that follows the controller's reports.
struct Engine {
    cluster: SimCluster<AgileMsg>,
    controller: NodeId,
    reports: ReportSink,
    event_log: Vec<JobEvent>,
    /// The consistent clock as of the last logged event: the latest
    /// `ClockAdvanced`, wound back by any rollback since.
    clock: u64,
    obs: Option<Arc<Recorder>>,
}

impl Engine {
    /// A fresh cluster holding only the controller, which resumes from
    /// `checkpoint` when there is one. The fault plan goes in before any
    /// node, so even the first `Hello` crosses it.
    fn new<A: MlApp>(
        app: &Arc<A>,
        cfg: AgileConfig,
        checkpoint: Option<ModelSnapshot>,
        faults: Option<FaultPlan<AgileMsg>>,
    ) -> Self {
        let mut cluster = SimCluster::new();
        if let Some(plan) = faults {
            cluster.set_faults(plan);
        }
        let reports = ReportSink::default();
        let clock = checkpoint.as_ref().map_or(0, |snap| snap.clock);
        // The controller runs on reliable infrastructure (node 0).
        let controller = cluster.add_node(
            NodeClass::Reliable,
            Controller::new(cfg, Arc::clone(app), Arc::clone(&reports), checkpoint),
        );
        Engine {
            cluster,
            controller,
            reports,
            event_log: Vec::new(),
            clock,
            obs: None,
        }
    }

    fn send_cmd(&mut self, cmd: Command) -> Result<(), JobError> {
        self.cluster
            .send_as_harness(self.controller, AgileMsg::Cmd(cmd))
            .map_err(|e| JobError::ControllerUnreachable(e.to_string()))
    }

    fn reports(&self) -> std::sync::MutexGuard<'_, VecDeque<Report>> {
        lock_reports(&self.reports)
    }

    /// Pops the next reported event (discarding replies nobody is
    /// waiting for any more), logs it, and mirrors it to the recorder —
    /// stamped with the recorder's current sim clock — when one is
    /// attached. `None` when nothing is queued.
    fn next_event(&mut self) -> Option<&JobEvent> {
        let e = loop {
            match self.reports().pop_front()? {
                Report::Event(e) => break e,
                _ => continue,
            }
        };
        match &e {
            JobEvent::ClockAdvanced { min } => self.clock = *min,
            JobEvent::NodesFailedRecovered { rolled_back_to, .. } => self.clock = *rolled_back_to,
            _ => {}
        }
        if let Some(rec) = self.obs.as_deref() {
            rec.record_now(Event::Agile(e.to_obs()));
        }
        self.event_log.push(e);
        self.event_log.last()
    }

    /// Dispatches one more batch of a wait that has dispatched
    /// `batches`, or says why the wait is over: it reached
    /// [`WAIT_BATCHES`] ([`JobError::Timeout`]), or the queue is dry even
    /// after releasing what the fault layer held back
    /// ([`JobError::Stalled`]).
    fn advance(&mut self, batches: &mut u64, waiting_for: &'static str) -> Result<(), JobError> {
        *batches += 1;
        if *batches > WAIT_BATCHES {
            Err(JobError::Timeout { waiting_for })
        } else if self.cluster.step() || self.cluster.flush_delayed() > 0 {
            Ok(())
        } else {
            Err(JobError::Stalled { waiting_for })
        }
    }

    /// Runs the queue until `done` accepts the engine's state, judged
    /// each time everything reported so far has been logged. A
    /// [`JobEvent::Faulted`] that `seen` does not claim aborts the wait
    /// with the typed fault: the controller has declared the thing being
    /// waited for unreachable.
    fn await_state(
        &mut self,
        mut seen: impl FnMut(&JobEvent) -> bool,
        mut done: impl FnMut(&Engine) -> bool,
        waiting_for: &'static str,
    ) -> Result<(), JobError> {
        let mut batches = 0;
        loop {
            while let Some(e) = self.next_event() {
                if seen(e) {
                    return Ok(());
                }
                if let JobEvent::Faulted { fault } = e {
                    return Err(JobError::Fault(fault.clone()));
                }
            }
            if done(self) {
                return Ok(());
            }
            self.advance(&mut batches, waiting_for)?;
        }
    }

    /// Runs the queue until an event matching `pred` is reported.
    fn await_event(
        &mut self,
        pred: impl FnMut(&JobEvent) -> bool,
        waiting_for: &'static str,
    ) -> Result<(), JobError> {
        self.await_state(pred, |_| false, waiting_for)
    }

    /// Sends `cmd` and runs the queue until the controller's reply to it
    /// is reported. Events reported meanwhile stay queued, in order, for
    /// the next event wait — a reply never swallows a fault.
    fn ask<T>(
        &mut self,
        cmd: Command,
        waiting_for: &'static str,
        mut reply: impl FnMut(Report) -> Result<T, Report>,
    ) -> Result<T, JobError> {
        self.send_cmd(cmd)?;
        let mut batches = 0;
        loop {
            let found = {
                let mut reports = self.reports();
                let at = reports.iter().position(|r| !matches!(r, Report::Event(_)));
                at.and_then(|at| reports.remove(at))
            };
            match found.map(&mut reply) {
                Some(Ok(answer)) => return Ok(answer),
                // A reply to an earlier call that gave up: discard.
                Some(Err(_)) => {}
                None => self.advance(&mut batches, waiting_for)?,
            }
        }
    }
}

/// A running elastic training job.
pub struct AgileMlJob<A: MlApp> {
    /// Behind a `RefCell` because read-only queries (`snapshot`,
    /// `status`, `objective`) take `&self` yet must run the queue to be
    /// answered. Never borrowed across a call boundary.
    engine: RefCell<Engine>,
    app: Arc<A>,
    dataset: Arc<Vec<A::Datum>>,
    block_keys: Arc<BlockKeys>,
    cfg: AgileConfig,
    /// Worker machines added on the reliable tier (the controller host,
    /// also reliable, is node 0).
    reliable_machines: Vec<NodeId>,
}

impl<A: MlApp> AgileMlJob<A> {
    /// Launches a job on `reliable` + `transient` fresh machines and
    /// runs it until training has started.
    ///
    /// # Errors
    ///
    /// Fails on invalid configuration, zero reliable machines, or a
    /// start that never completes.
    pub fn launch(
        app: A,
        dataset: Vec<A::Datum>,
        cfg: AgileConfig,
        reliable: usize,
        transient: usize,
    ) -> Result<Self, JobError> {
        Self::launch_inner(app, dataset, cfg, reliable, transient, None)
    }

    /// Like [`AgileMlJob::launch`] but installs a [`FaultPlan`] at the
    /// cluster boundary *before* any node is added, so even the very
    /// first `Hello` traffic crosses the chaos layer.
    pub fn launch_with_faults(
        app: A,
        dataset: Vec<A::Datum>,
        cfg: AgileConfig,
        reliable: usize,
        transient: usize,
        faults: FaultPlan<AgileMsg>,
    ) -> Result<Self, JobError> {
        Self::launch_inner(app, dataset, cfg, reliable, transient, Some(faults))
    }

    fn launch_inner(
        app: A,
        dataset: Vec<A::Datum>,
        cfg: AgileConfig,
        reliable: usize,
        transient: usize,
        faults: Option<FaultPlan<AgileMsg>>,
    ) -> Result<Self, JobError> {
        cfg.validate().map_err(JobError::InvalidConfig)?;
        let app = Arc::new(app);
        let block_keys = Arc::new(BlockKeys::new(dataset.len(), cfg.data_blocks));
        let mut job = AgileMlJob {
            engine: RefCell::new(Engine::new(&app, cfg, None, faults)),
            app,
            dataset: Arc::new(dataset),
            block_keys,
            cfg,
            reliable_machines: Vec::new(),
        };
        job.start(reliable, transient, "job start")?;
        Ok(job)
    }

    /// Adds the initial machines and runs the queue until the
    /// controller reports the job started.
    fn start(
        &mut self,
        reliable: usize,
        transient: usize,
        waiting_for: &'static str,
    ) -> Result<(), JobError> {
        if reliable == 0 {
            return Err(JobError::InvalidConfig(
                "AgileML needs at least one reliable machine".into(),
            ));
        }
        let mut nodes = self.add_nodes(NodeClass::Reliable, reliable);
        nodes.extend(self.add_nodes(NodeClass::Transient, transient));
        let engine = self.engine.get_mut();
        engine.send_cmd(Command::AddNodes { nodes })?;
        engine.await_event(|e| matches!(e, JobEvent::Started { .. }), waiting_for)
    }

    /// Adds `count` machines of `class` to the cluster; each announces
    /// itself to the controller with `Hello` as it comes up.
    fn add_nodes(&mut self, class: NodeClass, count: usize) -> Vec<(NodeId, NodeClass)> {
        let engine = self.engine.get_mut();
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let node = NodeState::new(
                engine.cluster.next_id(),
                engine.controller,
                Arc::clone(&self.app),
                Arc::clone(&self.dataset),
                Arc::clone(&self.block_keys),
                self.cfg,
            );
            let id = engine.cluster.add_node(class, node);
            if class == NodeClass::Reliable {
                self.reliable_machines.push(id);
            }
            out.push((id, class));
        }
        out
    }

    /// Worker machines added on the reliable tier so far. Includes
    /// machines that have since died or been evicted — the list records
    /// what was *provisioned* reliable, not what is still alive.
    pub fn reliable_machines(&self) -> &[NodeId] {
        &self.reliable_machines
    }

    /// The node id hosting the controller (reliable tier by construction).
    pub fn controller_node(&self) -> NodeId {
        self.engine.borrow().controller
    }

    /// Kills `nodes` at the cluster layer *without* notifying the
    /// controller — models abrupt machine loss (host crash, spot-market
    /// reclaim of "reliable" capacity) where no failure report ever
    /// arrives. Safe to include the controller host itself.
    pub fn kill_silent(&self, nodes: &[NodeId]) {
        let mut engine = self.engine.borrow_mut();
        for n in nodes {
            engine.cluster.kill(*n);
        }
    }

    /// Drops the (possibly headless) old cluster and relaunches the job
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
        let mut fresh = Engine::new(&self.app, self.cfg, checkpoint, None);
        let old = self.engine.get_mut();
        fresh.obs = old.obs.take();
        *old = fresh;
        self.reliable_machines.clear();
        self.start(reliable, transient, "job restart")
    }

    /// Adds `count` machines of `class` to the running job; runs the
    /// queue until the controller integrated them. Returns the new node
    /// ids.
    pub fn add_machines(
        &mut self,
        class: NodeClass,
        count: usize,
    ) -> Result<Vec<NodeId>, JobError> {
        let nodes = self.add_nodes(class, count);
        let ids: Vec<NodeId> = nodes.iter().map(|(n, _)| *n).collect();
        let engine = self.engine.get_mut();
        engine.send_cmd(Command::AddNodes { nodes })?;
        engine.await_event(
            |e| matches!(e, JobEvent::NodesAdded { nodes } if *nodes == ids),
            "node addition",
        )?;
        Ok(ids)
    }

    /// Delivers an eviction warning for `nodes` and runs the queue until
    /// the controller has reconfigured the job without them. The victims
    /// drain (final backup pushes, partition migrations) and then stop
    /// themselves on the controller's `Stop`, which is FIFO-ordered
    /// after the drain orders — exactly the work the two-minute warning
    /// window exists for; that traffic is queued when this returns and
    /// runs with whatever call waits next. Abrupt revocation (warning
    /// too late to drain) is modelled by [`AgileMlJob::fail_nodes`].
    pub fn evict_with_warning(&mut self, nodes: &[NodeId]) -> Result<(), JobError> {
        let engine = self.engine.get_mut();
        engine.send_cmd(Command::EvictWarned {
            nodes: nodes.to_vec(),
        })?;
        engine.await_event(
            // The controller reports the subset it actually evicted
            // (unknown nodes are filtered; an empty report means the
            // whole request was a no-op).
            |e| {
                matches!(e, JobEvent::NodesEvicted { nodes: gone }
                if gone.iter().all(|n| nodes.contains(n)))
            },
            "eviction drain",
        )
    }

    /// Proactively demotes `nodes` on a preemption forecast: their
    /// ActivePS partitions migrate to safer transient hosts (or drain to
    /// the BackupPS copies) while the nodes keep working. Returns once
    /// the controller acknowledges the demotion. A wrong forecast costs
    /// only the migration — membership, clocks, and committed work are
    /// untouched, so the job's trajectory is unchanged.
    pub fn pre_drain(&mut self, nodes: &[NodeId]) -> Result<(), JobError> {
        let engine = self.engine.get_mut();
        engine.send_cmd(Command::PreDrain {
            nodes: nodes.to_vec(),
        })?;
        engine.await_event(
            // The controller reports the subset it actually demoted
            // (reliable / unknown nodes are filtered out).
            |e| {
                matches!(e, JobEvent::NodesPreDrained { nodes: demoted, .. }
                if demoted.iter().all(|n| nodes.contains(n)))
            },
            "pre-drain demotion",
        )
    }

    /// Delivers a provider-style eviction warning to `nodes` through the
    /// simnet control channel **without** telling the controller directly:
    /// each node relays the warning as an `EvictionNotice`, which is how a
    /// real spot instance's two-minute notice reaches the controller. The
    /// call does not wait for the drain — chaos harnesses follow it with
    /// kills (warning-then-crash) or drop the notices entirely
    /// (warning-with-no-eviction).
    pub fn warn_only(&self, nodes: &[NodeId], deadline_ms: u64) -> Result<(), JobError> {
        let mut engine = self.engine.borrow_mut();
        for n in nodes {
            engine
                .cluster
                .revoke(*n, deadline_ms)
                .map_err(|e| JobError::ControllerUnreachable(e.to_string()))?;
        }
        Ok(())
    }

    /// Kills `nodes` and reports them failed, without waiting.
    fn kill_and_report(&mut self, nodes: &[NodeId]) -> Result<(), JobError> {
        let engine = self.engine.get_mut();
        for n in nodes {
            engine.cluster.kill(*n);
        }
        engine.send_cmd(Command::NodesFailed {
            nodes: nodes.to_vec(),
        })
    }

    /// Kills `nodes` abruptly (no warning) and runs the queue until
    /// rollback recovery completes. Returns the clock the job rolled
    /// back to.
    pub fn fail_nodes(&mut self, nodes: &[NodeId]) -> Result<u64, JobError> {
        self.kill_and_report(nodes)?;
        let mut rolled = 0;
        self.engine.get_mut().await_event(
            |e| match e {
                JobEvent::NodesFailedRecovered {
                    nodes: failed,
                    rolled_back_to,
                } if failed == nodes => {
                    rolled = *rolled_back_to;
                    true
                }
                _ => false,
            },
            "failure recovery",
        )?;
        Ok(rolled)
    }

    /// Kills reliable-tier `nodes` abruptly and runs the queue until the
    /// controller either repairs the loss in-job (re-replicating the
    /// dead nodes' BackupPS partitions onto surviving reliable machines)
    /// or declares it unrepairable with a typed fault. Returns the
    /// number of re-replicated partitions on repair.
    /// `Err(JobError::Fault(_))` means no in-job protocol can save this
    /// incarnation — the caller restarts from a durable checkpoint.
    pub fn fail_reliable_nodes(&mut self, nodes: &[NodeId]) -> Result<u64, JobError> {
        self.kill_and_report(nodes)?;
        let mut repaired = 0;
        self.engine.get_mut().await_event(
            |e| match e {
                JobEvent::ReliableRepaired {
                    nodes: lost,
                    partitions,
                } if lost.iter().any(|n| nodes.contains(n)) => {
                    repaired = *partitions;
                    true
                }
                // A report that named no reliable machines falls through
                // to ordinary rollback recovery.
                JobEvent::NodesFailedRecovered { nodes: failed, .. } if failed == nodes => true,
                _ => false,
            },
            "reliable repair",
        )?;
        Ok(repaired)
    }

    /// Like [`AgileMlJob::fail_nodes`] but returns immediately after the
    /// kill + report, without waiting for recovery — chaos harnesses use
    /// it to crash more machines while a rollback is already in flight.
    pub fn fail_nodes_async(&mut self, nodes: &[NodeId]) -> Result<(), JobError> {
        self.kill_and_report(nodes)
    }

    /// Runs the queue until a job event matching `pred` is reported (or
    /// already was); `waiting_for` labels the timeout error. Chaos
    /// harnesses use this to await the out-of-band completions of
    /// [`AgileMlJob::warn_only`] and [`AgileMlJob::fail_nodes_async`].
    pub fn wait_event(
        &mut self,
        mut pred: impl FnMut(&JobEvent) -> bool,
        waiting_for: &'static str,
    ) -> Result<(), JobError> {
        let engine = self.engine.get_mut();
        // The event may already have been logged by an earlier
        // `events()` / wait call.
        if engine.event_log.iter().any(&mut pred) {
            return Ok(());
        }
        engine.await_event(pred, waiting_for)
    }

    /// Trains until the global minimum clock reaches `clock`.
    ///
    /// The clock waited on is the job's *current* consistent clock: a
    /// rollback winds it back, so a clock reached before a failure does
    /// not count once recovery has undone it.
    pub fn wait_clock(&mut self, clock: u64) -> Result<(), JobError> {
        // Judged only once everything reported has been logged, so an
        // advance with a rollback queued right behind it is not taken
        // for progress.
        self.engine.get_mut().await_state(
            |_| false,
            |engine| engine.clock >= clock,
            "clock advance",
        )
    }

    /// Fetches a full model snapshot from the serving parameter servers.
    pub fn snapshot(&self) -> Result<ModelSnapshot, JobError> {
        self.engine
            .borrow_mut()
            .ask(Command::Snapshot, "model snapshot", |r| match r {
                Report::Snapshot(snap) => Ok(snap),
                other => Err(other),
            })
    }

    /// The training objective of the current model over `data`, read
    /// with a fresh run state: the model is the job's, the per-run state
    /// the workers' own.
    pub fn objective(&self, data: &[A::Datum]) -> Result<f64, JobError> {
        let snap = self.snapshot()?;
        let fresh = A::RunState::default();
        Ok(self
            .app
            .objective(data, &fresh, &snap.reader(self.app.as_ref())))
    }

    /// Controller status (stage, counts, clock).
    pub fn status(&self) -> Result<JobStatus, JobError> {
        self.engine
            .borrow_mut()
            .ask(Command::Status, "controller status", |r| match r {
                Report::Status(status) => Ok(status),
                other => Err(other),
            })
    }

    /// Removes the fault plan, first releasing any held-back messages.
    pub fn clear_faults(&self) {
        self.engine.borrow_mut().cluster.clear_faults();
    }

    /// Counts of faults injected so far by every plan this incarnation
    /// of the job ran, a replaced or cleared one's included.
    pub fn fault_stats(&self) -> FaultStats {
        self.engine.borrow().cluster.fault_stats()
    }

    /// Attaches an observability recorder: future (and already-logged)
    /// job events are mirrored onto its timeline as `agile.*` records,
    /// stamped with the recorder's own clock. The job's cluster never
    /// drives the recorder's clock: it sits at the epoch, while a
    /// session stamps the recorder with market time.
    pub fn attach_recorder(&mut self, rec: Arc<Recorder>) {
        let engine = self.engine.get_mut();
        for e in &engine.event_log {
            rec.record_now(Event::Agile(e.to_obs()));
        }
        engine.obs = Some(rec);
    }

    /// Every job event reported so far.
    pub fn events(&mut self) -> &[JobEvent] {
        let engine = self.engine.get_mut();
        while engine.next_event().is_some() {}
        &engine.event_log
    }

    /// The training dataset.
    pub fn dataset(&self) -> &[A::Datum] {
        &self.dataset
    }

    /// Delivered-message counts per (sender, receiver) pair — lets tests
    /// assert traffic-direction properties (e.g. backup streams flow
    /// toward reliable machines only).
    pub fn traffic_matrix(&self) -> Vec<((NodeId, NodeId), u64)> {
        self.engine.borrow().cluster.traffic_matrix()
    }

    /// Aggregate delivered/dropped counters for the whole cluster.
    pub fn net_stats(&self) -> NetStats {
        self.engine.borrow().cluster.stats()
    }

    /// Stops every node and tears the cluster down.
    pub fn shutdown(self) -> Result<(), JobError> {
        let mut engine = self.engine.into_inner();
        // Held-back (delayed) messages must not strand a drain order.
        engine.cluster.clear_faults();
        engine.ask(Command::Shutdown, "shutdown acknowledgement", |r| match r {
            Report::Stopping => Ok(()),
            other => Err(other),
        })
    }
}
