//! Placement: who is in the job, which stage it runs in, and who
//! serves, backs up and computes what (paper Sec. 3.2–3.3).
//!
//! This is the only place a placement policy is written. [`Layout`]
//! owns everything placement reads and writes; each method is one
//! decision, applied to the layout and handed back as data for the
//! handlers to turn into messages. Nothing here sends, reports or
//! knows the wire vocabulary, so every decision is testable as a table
//! without a cluster. Handlers read the fields freely; a write that is
//! a placement decision goes through a method.

use std::collections::{BTreeMap, BTreeSet};

use proteus_ps::PartitionId;
use proteus_simnet::{NodeClass, NodeId};

use crate::config::AgileConfig;
use crate::stage::{select_stage, Stage};
use crate::topology::{BlockId, DataAssignment, Topology};

/// Partition images a node is owed, by node: what its next `Configure`
/// tells it to await before reporting `Ready`.
pub(super) type Awaits = BTreeMap<NodeId, Vec<PartitionId>>;

/// Partitions whose serving owner changed, grouped `(old, new)`.
pub(super) type Moves = BTreeMap<(NodeId, NodeId), Vec<PartitionId>>;

/// Where a departing ActivePS's partitions go (Sec. 3.3).
#[derive(Debug, PartialEq, Eq)]
pub(super) enum Rehome {
    /// A transient machine serves them from now on.
    Migrate { to: NodeId },
    /// No transient machine can: their BackupPS copies serve instead.
    /// `lost` had no backup copy either.
    ServeFromBackup { lost: Vec<PartitionId> },
}

pub(super) struct Layout {
    cfg: AgileConfig,
    pub(super) members: BTreeMap<NodeId, NodeClass>,
    /// Members, longest-running first.
    pub(super) join_order: Vec<NodeId>,
    pub(super) stage: Stage,
    /// Serving owner per partition; empty until the first placement.
    pub(super) partition_owner: Vec<NodeId>,
    pub(super) backup_owner: Vec<Option<NodeId>>,
    /// Transient machines hosting an ActivePS (meaningful in stages 2–3).
    pub(super) active_hosts: BTreeSet<NodeId>,
    pub(super) assignment: Option<DataAssignment>,
    /// Nodes reported dead while another action was pending. Their
    /// `NodesFailed` sits in the command queue, but until it runs no
    /// decision may count on them (as a new partition owner or a clock
    /// participant) — a recovery that waits on a corpse never finishes.
    pub(super) known_dead: BTreeSet<NodeId>,
}

/// The partitions whose entry in a per-partition table satisfies `pick`.
fn partitions_where<T>(table: &[T], pick: impl Fn(&T) -> bool) -> Vec<PartitionId> {
    (table.iter().enumerate())
        .filter_map(|(i, entry)| pick(entry).then_some(PartitionId(i as u32)))
        .collect()
}

impl Layout {
    pub(super) fn new(cfg: AgileConfig) -> Self {
        Layout {
            cfg,
            members: BTreeMap::new(),
            join_order: Vec::new(),
            stage: Stage::Stage1,
            partition_owner: Vec::new(),
            backup_owner: Vec::new(),
            active_hosts: BTreeSet::new(),
            assignment: None,
            known_dead: BTreeSet::new(),
        }
    }

    // ------------------------------------------------------------------
    // Membership
    // ------------------------------------------------------------------

    pub(super) fn join(&mut self, node: NodeId, class: NodeClass) {
        if self.members.insert(node, class).is_none() {
            self.join_order.push(node);
        }
    }

    /// Drops `nodes` from the roster. Partitions they own stay theirs
    /// until a re-homing decision moves them ([`Layout::orphaned`]).
    pub(super) fn remove(&mut self, nodes: &[NodeId]) {
        self.members.retain(|n, _| !nodes.contains(n));
        self.join_order.retain(|n| !nodes.contains(n));
        self.active_hosts.retain(|n| !nodes.contains(n));
    }

    fn of_class(&self, class: NodeClass) -> Vec<NodeId> {
        let is = |n: &&NodeId| self.members.get(n) == Some(&class);
        self.join_order.iter().filter(is).copied().collect()
    }

    pub(super) fn reliable(&self) -> Vec<NodeId> {
        self.of_class(NodeClass::Reliable)
    }

    pub(super) fn transient(&self) -> Vec<NodeId> {
        self.of_class(NodeClass::Transient)
    }

    /// Worker nodes under `stage`: transient always, reliable unless
    /// stage 3.
    pub(super) fn workers(&self, stage: Stage) -> Vec<NodeId> {
        let works = |n: &&NodeId| match self.members.get(n) {
            Some(NodeClass::Transient) => true,
            Some(NodeClass::Reliable) => stage.workers_on_reliable(),
            None => false,
        };
        self.join_order.iter().filter(works).copied().collect()
    }

    // ------------------------------------------------------------------
    // Stage and wholesale placement
    // ------------------------------------------------------------------

    /// The stage for the current membership: the forced one if any,
    /// else by the transient:reliable ratio — except that nothing can
    /// host an ActivePS without a transient machine, so an empty
    /// transient tier is always stage 1.
    pub(super) fn pick_stage(&self) -> Stage {
        let (transient, reliable) = (self.transient().len(), self.reliable().len());
        if transient == 0 {
            return Stage::Stage1;
        }
        self.cfg.force_stage.unwrap_or_else(|| {
            select_stage(
                transient,
                reliable,
                self.cfg.stage2_threshold,
                self.cfg.stage3_threshold,
            )
        })
    }

    /// Extends `active_hosts` to the target count for the transient
    /// pool, preferring the longest-running transient nodes without an
    /// ActivePS (Sec. 3.3). Never shrinks the set.
    fn grow_active_hosts(&mut self) {
        let transient = self.transient();
        let t = transient.len();
        let target = ((t as f64 * self.cfg.activeps_fraction).ceil() as usize)
            .clamp(usize::from(t > 0), t.max(1));
        for n in transient {
            if self.active_hosts.len() >= target {
                break;
            }
            self.active_hosts.insert(n);
        }
    }

    fn round_robin(&self, owners: &[NodeId]) -> Vec<NodeId> {
        assert!(!owners.is_empty(), "cannot place partitions on zero nodes");
        (0..self.cfg.partitions as usize)
            .map(|p| owners[p % owners.len()])
            .collect()
    }

    /// Places every partition and data block for `stage`: serving
    /// copies round-robin over the ActivePS hosts with backups over the
    /// reliable tier (stages 2–3), or serving copies over the reliable
    /// tier and no backups (stage 1); blocks balanced over the stage's
    /// workers. Returns the serving partitions that changed hands.
    pub(super) fn place_for_stage(&mut self, stage: Stage) -> Moves {
        let reliable = self.reliable();
        let old = std::mem::take(&mut self.partition_owner);
        if stage.uses_backups() {
            self.grow_active_hosts();
            let hosts: Vec<NodeId> = (self.join_order.iter())
                .filter(|n| self.active_hosts.contains(n))
                .copied()
                .collect();
            self.partition_owner = self.round_robin(&hosts);
            self.backup_owner = self.round_robin(&reliable).into_iter().map(Some).collect();
        } else {
            self.partition_owner = self.round_robin(&reliable);
            self.backup_owner = vec![None; self.cfg.partitions as usize];
        }
        self.stage = stage;

        let workers = self.workers(stage);
        match self.assignment.as_mut() {
            Some(a) => {
                a.rebalance(&workers);
            }
            None => self.assignment = DataAssignment::new(self.cfg.data_blocks, &workers),
        }

        let mut moves = Moves::new();
        for (i, (from, to)) in old.iter().zip(&self.partition_owner).enumerate() {
            if from != to {
                let moved = moves.entry((*from, *to)).or_default();
                moved.push(PartitionId(i as u32));
            }
        }
        moves
    }

    /// Data blocks of the departed `gone` fall back to their previous
    /// owners among the current stage's workers.
    pub(super) fn release_blocks(&mut self, gone: &[NodeId], rebalance: bool) {
        let workers = self.workers(self.stage);
        if let Some(a) = self.assignment.as_mut() {
            for v in gone {
                a.remove_worker(*v, &workers);
            }
            if rebalance {
                a.rebalance(&workers);
            }
        }
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    pub(super) fn owned_by(&self, n: NodeId) -> Vec<PartitionId> {
        partitions_where(&self.partition_owner, |o| *o == n)
    }

    pub(super) fn backed_by(&self, n: NodeId) -> Vec<PartitionId> {
        partitions_where(&self.backup_owner, |o| *o == Some(n))
    }

    pub(super) fn blocks_of(&self, n: NodeId) -> Vec<BlockId> {
        (self.assignment.as_ref()).map_or_else(Vec::new, |a| a.blocks_of(n))
    }

    /// Whether `n` streams backup deltas for what it serves (an
    /// ActivePS rather than a ParamServ).
    pub(super) fn is_active_ps(&self, n: NodeId) -> bool {
        self.stage.uses_backups() && self.active_hosts.contains(&n)
    }

    /// Partitions whose serving owner has left the job or is a corpse
    /// awaiting its queued failure report.
    pub(super) fn orphaned(&self) -> Vec<PartitionId> {
        let gone = |o: &NodeId| !self.members.contains_key(o) || self.known_dead.contains(o);
        partitions_where(&self.partition_owner, gone)
    }

    pub(super) fn topology(&self, version: u64) -> Topology {
        Topology {
            version,
            stage: self.stage,
            partition_owner: self.partition_owner.clone(),
            backup_owner: self.backup_owner.clone(),
            workers: self.workers(self.stage),
        }
    }

    // ------------------------------------------------------------------
    // Re-homing
    // ------------------------------------------------------------------

    fn set_owner(&mut self, parts: &[PartitionId], to: NodeId) {
        for p in parts {
            self.partition_owner[p.0 as usize] = to;
        }
    }

    /// Makes `p`'s BackupPS copy the serving one; `false` when it has
    /// none.
    fn serve_from_backup(&mut self, p: PartitionId) -> bool {
        let i = p.0 as usize;
        match self.backup_owner[i].take() {
            Some(b) => {
                self.partition_owner[i] = b;
                true
            }
            None => false,
        }
    }

    /// Finds `parts` — all served by one departing ActivePS — a new
    /// home, in the paper's preference order: a transient machine
    /// without an ActivePS (longest-running first), else the surviving
    /// ActivePS with the fewest partitions, else the BackupPS copies.
    /// Corpses and `suspects` (machines forecast to disappear) are never
    /// chosen: images shipped to them are lost.
    pub(super) fn rehome(&mut self, parts: &[PartitionId], suspects: &[NodeId]) -> Rehome {
        let usable = |n: &NodeId| !self.known_dead.contains(n) && !suspects.contains(n);
        let fresh =
            (self.transient().into_iter()).find(|n| !self.active_hosts.contains(n) && usable(n));
        let host = fresh.or_else(|| {
            (self.active_hosts.iter().copied())
                .filter(usable)
                .min_by_key(|n| self.owned_by(*n).len())
        });
        match host {
            Some(to) => {
                self.active_hosts.insert(to);
                self.set_owner(parts, to);
                Rehome::Migrate { to }
            }
            None => {
                let mut lost = parts.to_vec();
                lost.retain(|p| !self.serve_from_backup(*p));
                Rehome::ServeFromBackup { lost }
            }
        }
    }

    /// Degenerates to stage 1 after losing the whole ActivePS tier:
    /// every BackupPS copy becomes the serving one. A partition with no
    /// backup keeps its owner when that owner is still a member, and is
    /// returned as lost otherwise.
    pub(super) fn fall_back_to_stage1(&mut self) -> Vec<PartitionId> {
        self.active_hosts.clear();
        self.stage = Stage::Stage1;
        let mut lost = Vec::new();
        for i in 0..self.partition_owner.len() {
            let p = PartitionId(i as u32);
            if !self.serve_from_backup(p) && !self.members.contains_key(&self.partition_owner[i]) {
                lost.push(p);
            }
        }
        lost
    }

    /// The live reliable machine with the least `load`, ties to the
    /// lowest node id.
    fn least_reliable(&self, load: impl Fn(NodeId) -> usize) -> Option<NodeId> {
        (self.reliable().into_iter())
            .filter(|n| !self.known_dead.contains(n))
            .min_by_key(|n| (load(*n), n.0))
    }

    /// The live reliable machine backing up the fewest partitions.
    pub(super) fn least_backed_reliable(&self) -> Option<NodeId> {
        self.least_reliable(|n| self.backed_by(n).len())
    }

    /// Gives `p` a new BackupPS on the least-backed reliable machine.
    pub(super) fn rebackup(&mut self, p: PartitionId) -> Option<NodeId> {
        let to = self.least_backed_reliable()?;
        self.backup_owner[p.0 as usize] = Some(to);
        Some(to)
    }

    /// A departing reliable ParamServ's serving partitions go to the
    /// reliable survivor serving the fewest; `None` when it serves
    /// nothing or nobody survives.
    pub(super) fn hand_over_serving(&mut self, from: NodeId) -> Option<(NodeId, Vec<PartitionId>)> {
        let parts = self.owned_by(from);
        if parts.is_empty() {
            return None;
        }
        let to = self.least_reliable(|n| self.owned_by(n).len())?;
        self.set_owner(&parts, to);
        Some((to, parts))
    }
}

#[cfg(test)]
mod tests;
