//! Departures without notice: rollback recovery from the BackupPSs,
//! and deaths reported while another action is still in flight.

use std::collections::{BTreeMap, BTreeSet};

use proteus_mlapps::app::MlApp;
use proteus_ps::{ClockTable, PartitionId};
use proteus_simnet::{NodeClass, NodeId, SimCtx};

use super::layout::{Awaits, Rehome};
use super::{Controller, Pending};
use crate::error::JobFault;
use crate::events::JobEvent;
use crate::msg::AgileMsg;

/// Phase one of rollback recovery: every BackupPS is asked for the
/// clock its copies are consistent to, and the job rolls back to the
/// oldest answer.
#[derive(Debug)]
pub(super) struct Quorum {
    expect: BTreeSet<NodeId>,
    replies: BTreeMap<NodeId, u64>,
}

impl Quorum {
    pub(super) fn new(expect: BTreeSet<NodeId>) -> Self {
        Quorum {
            expect,
            replies: BTreeMap::new(),
        }
    }

    fn reply(&mut self, from: NodeId, min_clock: u64) {
        self.replies.insert(from, min_clock);
    }

    /// Stops waiting for `dead`; whatever they already answered no
    /// longer counts.
    fn strip(&mut self, dead: &[NodeId]) {
        self.expect.retain(|b| !dead.contains(b));
    }

    /// No backup is left to recover from.
    fn is_empty(&self) -> bool {
        self.expect.is_empty()
    }

    /// The rollback target once every backup still expected has
    /// answered. Judged against `expect`, not reply counts: a backup
    /// stripped after replying must neither wedge nor skew the quorum.
    fn target(&self) -> Option<u64> {
        let clocks: Option<Vec<u64>> = (self.expect.iter())
            .map(|b| self.replies.get(b).copied())
            .collect();
        clocks?.into_iter().min()
    }
}

impl<A: MlApp> Controller<A> {
    pub(super) fn handle_failure(&mut self, nodes: Vec<NodeId>, ctx: &mut SimCtx<'_, AgileMsg>) {
        // This is the queued report `note_dead_during_pending` was
        // holding the mark for; from here the normal removal below takes
        // over.
        for n in &nodes {
            self.layout.known_dead.remove(n);
        }
        // A node with an in-flight migration may hold the only serving
        // copy of its outbound partitions even after eviction removed it
        // from membership — its death still matters.
        let victims: Vec<NodeId> = (nodes.iter().copied())
            .filter(|n| self.layout.members.contains_key(n) || self.migrations.contains_key(n))
            .collect();
        if victims.is_empty() {
            // Unknown or already-gone nodes: acknowledge the no-op with
            // the requested list so waiting drivers don't hang.
            self.emit(JobEvent::NodesFailedRecovered {
                nodes,
                rolled_back_to: self.last_min_broadcast,
            });
            return;
        }
        // In-flight backup fills: a dead destination just re-orphans
        // its partitions (`backup_owner` still names it, so the repair
        // below re-replicates them); a dead *source* took the only
        // usable copy before its fill landed — report each partition
        // lost and let the session restart from its last checkpoint.
        let mut lost_fills: Vec<PartitionId> = Vec::new();
        self.filling.retain(|p, (src, dst)| {
            if victims.contains(src) {
                lost_fills.push(*p);
            }
            !victims.contains(src) && !victims.contains(dst)
        });
        if !lost_fills.is_empty() {
            self.report_lost(lost_fills);
            return;
        }
        let reliable_victims: Vec<NodeId> = (victims.iter().copied())
            .filter(|v| self.layout.members.get(v) == Some(&NodeClass::Reliable))
            .collect();
        if !reliable_victims.is_empty() {
            // First try to repair in-job; only when the loss is
            // unrepairable does the controller report the typed fault
            // that sends the session back to its external checkpoint.
            if !self.try_repair_reliable(&reliable_victims, &victims, ctx) {
                self.fault(JobFault::ReliableNodesFailed {
                    nodes: reliable_victims,
                });
            }
            return;
        }
        let owners_lost = (victims.iter())
            .any(|v| self.layout.partition_owner.contains(v) || self.migrations.contains_key(v));
        self.drop_members(&victims);
        self.migrations.retain(|src, _| !victims.contains(src));

        if !owners_lost {
            // Workers only: reassign data, continue without rollback.
            self.layout.release_blocks(&victims, false);
            let topo = self.reconfigure(ctx, &Awaits::new());
            self.resume(ctx, topo);
            self.emit(JobEvent::NodesFailedRecovered {
                nodes,
                rolled_back_to: self.last_min_broadcast,
            });
            self.maybe_broadcast_min(ctx);
            return;
        }

        // Phase 1: ask every backup holder for its consistent clock.
        let backups: BTreeSet<NodeId> =
            (self.layout.backup_owner.iter().flatten().copied()).collect();
        if backups.is_empty() {
            // Partition owners died with nothing to recover from (e.g.
            // an unwarned failure in stage 1 took a serving node, which
            // only reliable machines host — already reported above — or
            // every backup was stripped by a concurrent failure).
            self.fault(JobFault::NoBackups);
            return;
        }
        for b in &backups {
            let _ = ctx.send(*b, AgileMsg::BackupClockQuery);
        }
        self.pending = Some(Pending::RecoveryQuery {
            failed: nodes,
            quorum: Quorum::new(backups),
        });
    }

    pub(super) fn on_backup_clock_info(
        &mut self,
        from: NodeId,
        min_clock: u64,
        ctx: &mut SimCtx<'_, AgileMsg>,
    ) {
        let Some(Pending::RecoveryQuery { failed, quorum }) = self.pending.as_mut() else {
            return;
        };
        quorum.reply(from, min_clock);
        if let Some(target) = quorum.target() {
            let failed = std::mem::take(failed);
            self.pending = None;
            self.run_recovery(failed, target, ctx);
        }
    }

    /// Phase 2 of failure recovery: new owners, rollback-aligned images
    /// from backups, epoch bump, worker restart.
    fn run_recovery(&mut self, failed: Vec<NodeId>, target: u64, ctx: &mut SimCtx<'_, AgileMsg>) {
        self.epoch += 1;
        // Recovery reassigns and reinstalls every partition from the
        // rolled-back backups; in-flight migrations are moot.
        self.migrations.clear();

        let old_stage = self.layout.stage;
        let survivors =
            (self.layout.transient().iter()).any(|n| !self.layout.known_dead.contains(n));
        let lost = if survivors {
            // Each partition of a dead owner goes to a surviving
            // transient node.
            let mut lost = Vec::new();
            for p in self.layout.orphaned() {
                if let Rehome::ServeFromBackup { lost: l } = self.layout.rehome(&[p], &[]) {
                    lost.extend(l);
                }
            }
            lost
        } else {
            // All transient resources failed at once (the paper's "all
            // or most of the transient resources fail" case, Sec. 3.3):
            // the BackupPSs roll back to the last consistent state and
            // become the serving ParamServs; the reliable workers redo
            // the lost iterations. The job degenerates to stage 1.
            self.layout.fall_back_to_stage1()
        };
        self.report_lost(lost);
        self.note_stage_change(old_stage);

        // Data blocks of dead workers fall back, and every surviving
        // worker resumes from the target.
        self.layout.release_blocks(&failed, false);
        self.clock = ClockTable::default();
        self.last_min_broadcast = target;
        self.resync_worker_clocks();

        // Everything restarts from the recovered clock in the new epoch.
        self.broadcast(
            ctx,
            &AgileMsg::RestartFrom {
                clock: target,
                epoch: self.epoch,
            },
        );

        // Backups roll back to the target and ship recovery images.
        // This is sent BEFORE the reconfiguration so that a backup that
        // is itself being promoted to the serving owner (full transient
        // loss) rolls back while the partitions are still in its backup
        // store (per-sender FIFO guarantees the node processes this
        // first).
        let mut by_pair: BTreeMap<(NodeId, NodeId), Vec<PartitionId>> = BTreeMap::new();
        for p in self.keyspace.partitions() {
            let owner = self.layout.partition_owner[p.0 as usize];
            let source = self.layout.backup_owner[p.0 as usize].unwrap_or(owner);
            by_pair.entry((source, owner)).or_default().push(p);
        }
        for ((backup, new_owner), partitions) in by_pair {
            let _ = ctx.send(
                backup,
                AgileMsg::RecoverPartitions {
                    partitions,
                    new_owner,
                    clock: target,
                },
            );
        }

        // Every serving owner re-installs all its partitions from
        // backup, so serving state is exactly the rolled-back backup
        // state. Corpses are told too, but nobody waits for them.
        let awaits: Awaits = (self.layout.members.keys())
            .map(|n| (*n, self.layout.owned_by(*n)))
            .filter(|(_, serve)| !serve.is_empty())
            .collect();
        self.pending_ready = (awaits.keys().copied())
            .filter(|n| !self.layout.known_dead.contains(n))
            .collect();
        let topo = self.reconfigure(ctx, &awaits);
        self.broadcast(ctx, &AgileMsg::Topology(topo));

        self.pending = Some(Pending::RecoveryInstall {
            failed,
            clock: target,
        });
        self.try_finish_pending(ctx);
    }

    /// Nodes died while an action is in flight: strip every expectation
    /// only the dead could satisfy, so the pending action completes and
    /// the queued `NodesFailed` gets to run instead of wedging forever.
    pub(super) fn note_dead_during_pending(
        &mut self,
        dead: &[NodeId],
        ctx: &mut SimCtx<'_, AgileMsg>,
    ) {
        // Remember the corpses: the pending action (and any recovery it
        // triggers) must not hand them new partitions, wait on their
        // `Ready`, or count them in the clock barrier. Their own queued
        // `NodesFailed` clears the mark when it finally runs.
        self.layout.known_dead.extend(dead);
        // A `Ready` will never come from the dead, nor from a node
        // waiting on installs or a backup fill from a dead source (the
        // queued `NodesFailed` rolls back, or reports the fill lost).
        let migrating = (dead.iter().filter_map(|d| self.migrations.get(d)))
            .flat_map(|batches| batches.iter().map(|(dest, _)| *dest));
        let filling = (self.filling.values())
            .filter(|(src, _)| dead.contains(src))
            .map(|(_, dst)| *dst);
        for n in (dead.iter().copied()).chain(migrating).chain(filling) {
            self.pending_ready.remove(&n);
        }
        // Snapshot exports from a dead owner will never arrive.
        if let Some(snap) = self.snapshot.as_mut() {
            let owners = &self.layout.partition_owner;
            snap.expect
                .retain(|p| !dead.contains(&owners[p.0 as usize]));
        }
        self.finish_snapshot_if_complete(ctx);

        match self.pending.take() {
            Some(Pending::StartJob) => {
                // The job has not started: drop the dead from the
                // roster and (re-)run the initial layout with the
                // survivors once their `Hello`s are all in.
                self.pending = Some(Pending::StartJob);
                self.drop_members(dead);
                self.try_progress_membership(ctx);
            }
            Some(Pending::AddNodes {
                mut added,
                configured: false,
            }) => {
                // Integration has not run: dead added nodes simply
                // never join. Dead *existing* members that hold no
                // parameter state can be dropped too (their queued
                // `NodesFailed` becomes a no-op acknowledgement);
                // state-bearing ones must wait for the queued recovery.
                added.retain(|n| !dead.contains(n));
                self.pending = Some(Pending::AddNodes {
                    added,
                    configured: false,
                });
                let droppable: Vec<NodeId> = (dead.iter().copied())
                    .filter(|d| !self.layout.partition_owner.contains(d))
                    .filter(|d| !self.migrations.contains_key(d))
                    .collect();
                self.drop_members(&droppable);
                self.try_progress_membership(ctx);
            }
            Some(Pending::RecoveryQuery { failed, mut quorum }) => {
                quorum.strip(dead);
                if quorum.is_empty() {
                    self.fault(JobFault::NoBackups);
                    self.drain_queue(ctx);
                } else if let Some(target) = quorum.target() {
                    self.run_recovery(failed, target, ctx);
                } else {
                    self.pending = Some(Pending::RecoveryQuery { failed, quorum });
                }
            }
            // Configured AddNodes, RecoveryInstall, ReliableRepair, or
            // snapshot-only: the stripped `pending_ready` may already
            // be empty.
            other => {
                self.pending = other;
                self.try_finish_pending(ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_target_is_the_oldest_clock_among_the_backups_still_expected() {
        enum Step {
            Reply(u32, u64),
            Strip(&'static [u32]),
        }
        use Step::*;
        // Backups 1, 2, 3 are asked; after the steps → (target, nobody left)
        let table: [(&[Step], Option<u64>, bool); 8] = [
            (&[], None, false),
            (&[Reply(1, 7), Reply(2, 5)], None, false),
            (&[Reply(1, 7), Reply(2, 5), Reply(3, 9)], Some(5), false),
            // A duplicated reply replaces, a stranger's is ignored.
            (
                &[
                    Reply(1, 7),
                    Reply(1, 6),
                    Reply(9, 0),
                    Reply(2, 8),
                    Reply(3, 9),
                ],
                Some(6),
                false,
            ),
            // Stripping the one backup still awaited completes the quorum.
            (&[Reply(1, 7), Reply(3, 9), Strip(&[2])], Some(7), false),
            // Stripped *after* replying: its (oldest) clock no longer
            // counts, and it cannot wedge the quorum either.
            (
                &[Reply(2, 5), Strip(&[2]), Reply(1, 7), Reply(3, 9)],
                Some(7),
                false,
            ),
            (
                &[Reply(2, 5), Strip(&[2]), Reply(2, 4), Reply(1, 7)],
                None,
                false,
            ),
            (&[Reply(1, 7), Strip(&[1, 2, 3])], None, true),
        ];
        for (i, (steps, target, empty)) in table.iter().enumerate() {
            let mut q = Quorum::new([1, 2, 3].map(NodeId).into());
            for step in *steps {
                match step {
                    Reply(from, clock) => q.reply(NodeId(*from), *clock),
                    Strip(dead) => q.strip(&dead.iter().copied().map(NodeId).collect::<Vec<_>>()),
                }
            }
            assert_eq!((q.target(), q.is_empty()), (*target, *empty), "row {i}");
        }
    }
}
