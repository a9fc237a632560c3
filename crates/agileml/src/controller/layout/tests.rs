//! Placement decisions as tables: no cluster, no messages.

use super::*;

const R: NodeClass = NodeClass::Reliable;
const T: NodeClass = NodeClass::Transient;

fn n(i: u32) -> NodeId {
    NodeId(i)
}

fn ns(ids: &[u32]) -> Vec<NodeId> {
    ids.iter().copied().map(NodeId).collect()
}

fn ps(ids: &[u32]) -> Vec<PartitionId> {
    ids.iter().copied().map(PartitionId).collect()
}

fn cfg(fraction: f64, forced: Option<Stage>) -> AgileConfig {
    AgileConfig {
        partitions: 4,
        data_blocks: 8,
        activeps_fraction: fraction,
        force_stage: forced,
        ..AgileConfig::default()
    }
}

/// Nodes `1..=reliable` reliable, then `transient` transient ones,
/// joined in that order; nothing placed yet.
fn roster(reliable: u32, transient: u32, cfg: AgileConfig) -> Layout {
    let mut l = Layout::new(cfg);
    for i in 1..=reliable + transient {
        l.join(n(i), if i <= reliable { R } else { T });
    }
    l
}

/// One reliable machine (node 1) backing four partitions served
/// round-robin by ActivePSs on nodes 2 and 3; nodes 4 and 5 are
/// transient workers.
fn stage2() -> Layout {
    let mut l = roster(1, 4, cfg(0.5, None));
    l.place_for_stage(Stage::Stage2);
    assert_eq!(l.partition_owner, ns(&[2, 3, 2, 3]));
    l
}

#[test]
fn pick_stage_by_ratio_forced_and_with_no_transient_machine() {
    use Stage::*;
    // (transient, reliable, forced) → stage
    let table = [
        (0, 2, None, Stage1),
        (0, 2, Some(Stage2), Stage1),
        (0, 1, Some(Stage3), Stage1),
        (2, 2, None, Stage1),
        (3, 2, None, Stage2),
        (15, 1, None, Stage2),
        (16, 1, None, Stage3),
        (1, 4, Some(Stage2), Stage2),
        (1, 1, Some(Stage3), Stage3),
        (5, 1, Some(Stage1), Stage1),
    ];
    for (transient, reliable, forced, want) in table {
        let l = roster(reliable, transient, cfg(0.5, forced));
        assert_eq!(
            l.pick_stage(),
            want,
            "{transient} transient, {reliable} reliable, forced {forced:?}"
        );
    }
}

#[test]
fn place_for_stage_maps_owners_backups_hosts_and_workers() {
    use Stage::*;
    struct Row {
        shape: (u32, u32),
        fraction: f64,
        stage: Stage,
        owners: &'static [u32],
        backups: &'static [u32],
        hosts: &'static [u32],
        workers: &'static [u32],
    }
    let table = [
        Row {
            shape: (2, 1),
            fraction: 0.5,
            stage: Stage1,
            owners: &[1, 2, 1, 2],
            backups: &[],
            hosts: &[],
            workers: &[1, 2, 3],
        },
        Row {
            shape: (1, 3),
            fraction: 0.5,
            stage: Stage2,
            owners: &[2, 3, 2, 3],
            backups: &[1, 1, 1, 1],
            hosts: &[2, 3],
            workers: &[1, 2, 3, 4],
        },
        Row {
            shape: (2, 4),
            fraction: 1.0,
            stage: Stage3,
            owners: &[3, 4, 5, 6],
            backups: &[1, 2, 1, 2],
            hosts: &[3, 4, 5, 6],
            workers: &[3, 4, 5, 6],
        },
        // Never fewer than one host, however small the fraction.
        Row {
            shape: (1, 2),
            fraction: 0.0,
            stage: Stage2,
            owners: &[2, 2, 2, 2],
            backups: &[1, 1, 1, 1],
            hosts: &[2],
            workers: &[1, 2, 3],
        },
    ];
    for row in table {
        let mut l = roster(row.shape.0, row.shape.1, cfg(row.fraction, None));
        let moves = l.place_for_stage(row.stage);
        let label = format!("{:?} in {:?}", row.shape, row.stage);
        assert!(moves.is_empty(), "{label}: a first placement moves nothing");
        assert_eq!(l.stage, row.stage, "{label}");
        assert_eq!(l.partition_owner, ns(row.owners), "{label}: owners");
        let backups: Vec<NodeId> = l.backup_owner.iter().flatten().copied().collect();
        assert_eq!(backups, ns(row.backups), "{label}: backups");
        assert!(row.backups.is_empty() || l.backup_owner.iter().all(Option::is_some));
        let hosts: Vec<NodeId> = l.active_hosts.iter().copied().collect();
        assert_eq!(hosts, ns(row.hosts), "{label}: hosts");
        assert_eq!(l.workers(l.stage), ns(row.workers), "{label}: workers");
        // Every block has a worker, loads differ by at most one.
        let loads: Vec<usize> = (l.workers(l.stage).iter())
            .map(|w| l.blocks_of(*w).len())
            .collect();
        assert_eq!(loads.iter().sum::<usize>(), 8, "{label}");
        assert!(loads.iter().max().unwrap() - loads.iter().min().unwrap() <= 1);
    }
}

#[test]
fn re_placement_reports_what_changed_hands_and_never_demotes_a_host() {
    let mut l = roster(1, 1, cfg(0.5, None));
    l.place_for_stage(Stage::Stage1);
    l.join(n(3), T);
    l.join(n(4), T);
    // Stage 1 → 2: the reliable ParamServ hands everything to the
    // two longest-running transient machines.
    let moves = l.place_for_stage(Stage::Stage2);
    let want: Moves = [((n(1), n(2)), ps(&[0, 2])), ((n(1), n(3)), ps(&[1, 3]))].into();
    assert_eq!(moves, want);
    assert_eq!(l.backed_by(n(1)), ps(&[0, 1, 2, 3]));
    // Two more machines raise the target to three hosts: node 4 is
    // next in line, nodes 2 and 3 keep their role.
    l.join(n(5), T);
    l.join(n(6), T);
    let moves = l.place_for_stage(Stage::Stage2);
    assert_eq!(l.partition_owner, ns(&[2, 3, 4, 2]));
    let want: Moves = [((n(2), n(4)), ps(&[2])), ((n(3), n(2)), ps(&[3]))].into();
    assert_eq!(moves, want);
}

#[test]
fn rehome_prefers_a_fresh_host_then_the_least_loaded_then_the_backups() {
    struct Row {
        why: &'static str,
        dead: &'static [u32],
        suspects: &'static [u32],
        want: Rehome,
        owners: &'static [u32],
    }
    let to = |i| Rehome::Migrate { to: n(i) };
    let table = [
        Row {
            why: "the longest-running machine without an ActivePS",
            dead: &[],
            suspects: &[],
            want: to(4),
            owners: &[4, 3, 4, 3],
        },
        Row {
            why: "a corpse awaiting its failure report is skipped",
            dead: &[4],
            suspects: &[],
            want: to(5),
            owners: &[5, 3, 5, 3],
        },
        Row {
            why: "a suspect is skipped",
            dead: &[],
            suspects: &[4],
            want: to(5),
            owners: &[5, 3, 5, 3],
        },
        Row {
            why: "no fresh machine: merge into the surviving host",
            dead: &[4],
            suspects: &[5],
            want: to(3),
            owners: &[3, 3, 3, 3],
        },
        Row {
            why: "nobody usable: the reliable copies serve",
            dead: &[3, 4],
            suspects: &[5],
            want: Rehome::ServeFromBackup { lost: vec![] },
            owners: &[1, 3, 1, 3],
        },
    ];
    for row in table {
        // Node 2 departs; its partitions 0 and 2 need a home.
        let mut l = stage2();
        l.remove(&[n(2)]);
        l.known_dead = row.dead.iter().copied().map(NodeId).collect();
        let got = l.rehome(&ps(&[0, 2]), &ns(row.suspects));
        assert_eq!(got, row.want, "{}", row.why);
        assert_eq!(l.partition_owner, ns(row.owners), "{}", row.why);
        match got {
            Rehome::Migrate { to } => assert!(l.active_hosts.contains(&to), "{}", row.why),
            Rehome::ServeFromBackup { .. } => {
                assert_eq!(l.backup_owner[0], None, "a promoted copy backs nothing");
                assert_eq!(l.backup_owner[1], Some(n(1)));
            }
        }
    }
}

#[test]
fn rehome_reports_a_partition_with_no_copy_left_as_lost() {
    let mut l = stage2();
    l.remove(&ns(&[2, 4, 5]));
    l.known_dead.insert(n(3));
    // Partition 0 was already promoted once: no backup remains.
    l.backup_owner[0] = None;
    let got = l.rehome(&ps(&[0, 2]), &[]);
    assert_eq!(got, Rehome::ServeFromBackup { lost: ps(&[0]) });
    assert_eq!(l.partition_owner[2], n(1));
}

#[test]
fn rehome_merges_into_the_host_serving_fewest_ties_to_the_lowest_id() {
    // (owners before, expected host) with hosts 3, 4, 5 and no
    // fresh machine; node 2's partition 0 is looking for a home.
    let table = [
        ([2, 3, 3, 4], 5),
        ([2, 3, 4, 5], 3),
        ([2, 3, 3, 5], 4),
        ([2, 5, 5, 4], 3),
    ];
    for (owners, want) in table {
        let mut l = roster(1, 4, cfg(1.0, None));
        l.place_for_stage(Stage::Stage2);
        l.partition_owner = ns(&owners);
        l.remove(&[n(2)]);
        assert_eq!(l.rehome(&ps(&[0]), &[]), Rehome::Migrate { to: n(want) });
    }
}

#[test]
fn least_backed_reliable_breaks_ties_by_node_id_and_skips_corpses() {
    // Reliable nodes 1..=3; (backup owner per partition, dead) → pick
    let table: [(&[u32], &[u32], Option<u32>); 6] = [
        (&[1, 2, 3, 1], &[], Some(2)),
        (&[1, 1, 2, 3], &[], Some(2)),
        (&[3, 3, 3, 3], &[], Some(1)),
        (&[2, 2, 3, 3], &[1], Some(2)),
        (&[1, 1, 1, 1], &[2], Some(3)),
        (&[1, 1, 1, 1], &[1, 2, 3], None),
    ];
    for (backups, dead, want) in table {
        let mut l = roster(3, 2, cfg(1.0, None));
        l.place_for_stage(Stage::Stage2);
        l.backup_owner = backups.iter().map(|b| Some(n(*b))).collect();
        l.known_dead = dead.iter().copied().map(NodeId).collect();
        assert_eq!(
            l.least_backed_reliable(),
            want.map(NodeId),
            "{backups:?} {dead:?}"
        );
    }
}

#[test]
fn rebackup_spreads_a_dead_machines_partitions_over_the_survivors() {
    let mut l = roster(3, 2, cfg(1.0, None));
    l.place_for_stage(Stage::Stage2);
    l.backup_owner = vec![Some(n(3)); 4];
    l.remove(&[n(3)]);
    let picks: Vec<Option<NodeId>> = (0..4).map(|p| l.rebackup(PartitionId(p))).collect();
    assert_eq!(picks, [1, 2, 1, 2].map(|i| Some(n(i))));
    assert!(l.backed_by(n(3)).is_empty());
}

#[test]
fn hand_over_serving_goes_to_the_least_loaded_reliable_survivor() {
    let mut l = roster(3, 1, cfg(0.5, None));
    l.place_for_stage(Stage::Stage1);
    assert_eq!(l.partition_owner, ns(&[1, 2, 3, 1]));
    l.partition_owner = ns(&[1, 2, 2, 3]);
    l.remove(&[n(1)]);
    assert_eq!(l.hand_over_serving(n(1)), Some((n(3), ps(&[0]))));
    // Now two each: the tie goes to the lowest id.
    l.remove(&[n(3)]);
    l.join(n(5), R);
    l.partition_owner = ns(&[3, 2, 5, 3]);
    assert_eq!(l.hand_over_serving(n(3)), Some((n(2), ps(&[0, 3]))));
    assert_eq!(l.partition_owner, ns(&[2, 2, 5, 2]));
    // Nothing left to hand over; and nobody to hand it to.
    assert_eq!(l.hand_over_serving(n(3)), None);
    l.remove(&ns(&[2, 5]));
    assert_eq!(l.hand_over_serving(n(2)), None);
}

#[test]
fn remove_then_rehome_leaves_no_dangling_reference() {
    // Victims of a stage-2 layout with hosts 2 and 3.
    let table: [&[u32]; 5] = [&[2], &[3, 4], &[2, 3], &[2, 3, 4], &[2, 3, 4, 5]];
    for victims in table {
        let victims = ns(victims);
        let mut l = stage2();
        let served: Vec<Vec<PartitionId>> = victims.iter().map(|v| l.owned_by(*v)).collect();
        l.remove(&victims);
        let mut ownerless = served.concat();
        ownerless.sort();
        assert_eq!(l.orphaned(), ownerless, "{victims:?}");
        for parts in served.iter().filter(|p| !p.is_empty()) {
            l.rehome(parts, &[]);
        }
        l.release_blocks(&victims, true);

        let label = format!("after {victims:?} left");
        assert!(l.orphaned().is_empty(), "{label}: an owner is gone");
        for v in &victims {
            assert!(!l.members.contains_key(v), "{label}");
            assert!(!l.join_order.contains(v), "{label}");
            assert!(!l.active_hosts.contains(v), "{label}");
            assert!(l.owned_by(*v).is_empty(), "{label}");
            assert!(l.blocks_of(*v).is_empty(), "{label}");
            assert!(!l.topology(1).workers.contains(v), "{label}");
        }
        let blocks: usize = l.members.keys().map(|m| l.blocks_of(*m).len()).sum();
        assert_eq!(blocks, 8, "{label}: every block still has a worker");
    }
}

#[test]
fn falling_back_to_stage_one_promotes_every_backup() {
    let mut l = stage2();
    l.remove(&ns(&[2, 3, 4, 5]));
    assert_eq!(l.pick_stage(), Stage::Stage1);
    assert_eq!(l.fall_back_to_stage1(), ps(&[]));
    assert_eq!(l.partition_owner, ns(&[1, 1, 1, 1]));
    assert_eq!(l.backup_owner, vec![None; 4]);
    assert!(l.active_hosts.is_empty() && !l.is_active_ps(n(1)));

    // A partition whose backup was already promoted keeps a live
    // owner and is lost with a departed one.
    let mut l = stage2();
    l.backup_owner[0] = None;
    l.backup_owner[1] = None;
    l.remove(&[n(2)]);
    assert_eq!(l.fall_back_to_stage1(), ps(&[0]));
    assert_eq!(l.partition_owner, ns(&[2, 3, 1, 1]));
}
