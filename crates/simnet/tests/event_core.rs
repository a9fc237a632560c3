//! Integration suite for the discrete-event core: fault injection at
//! enqueue time, run-to-run determinism, obs sim-clock driving, and
//! semantic parity with the thread-per-node cluster.

use std::sync::{Arc, Mutex};

use proteus_obs::Recorder;
use proteus_simnet::{
    Cluster, Control, FaultPlan, FnNode, Incoming, NodeClass, NodeId, SimCluster,
};
use proteus_simtime::{SimDuration, SimTime};

/// Builds an N-node ring where each node forwards a hop-countdown token
/// to its successor; returns the node ids.
fn ring(sim: &mut SimCluster<u64>, n: u32) -> Vec<NodeId> {
    (0..n)
        .map(|i| {
            let next = NodeId((i + 1) % n);
            sim.add_node(
                NodeClass::Transient,
                FnNode::new(move |ctx, _from, hops: u64| {
                    if hops > 0 {
                        let _ = ctx.send(next, hops - 1);
                    }
                }),
            )
        })
        .collect()
}

#[test]
fn ring_broadcast_converges_and_is_deterministic() {
    let run = || {
        let mut sim: SimCluster<u64> = SimCluster::new();
        sim.set_link_latency(SimDuration::from_millis(1));
        let nodes = ring(&mut sim, 64);
        sim.send_as_harness(nodes[0], 3 * 64).unwrap();
        let end = sim.run_until_idle();
        (end, sim.stats(), sim.traffic_matrix())
    };
    let (end_a, stats_a, traffic_a) = run();
    let (end_b, stats_b, traffic_b) = run();
    // 3*64 hops + the harness inject, each over a 1ms link.
    assert_eq!(stats_a.messages, 3 * 64 + 1);
    assert_eq!(end_a, SimTime::from_millis(3 * 64 + 1));
    assert_eq!((end_a, stats_a, traffic_a), (end_b, stats_b, traffic_b));
}

#[test]
fn faults_apply_at_enqueue_with_the_same_seeded_streams_as_the_thread_core() {
    // The same plan over the same per-pair send sequence must produce
    // identical fault verdicts on both cores: drop/dup/delay decisions
    // are a pure function of (seed, pair, send index).
    let plan = |seed| {
        FaultPlan::new(seed).with_rule(proteus_simnet::FaultRule {
            from: Some(NodeId::HARNESS),
            to: Some(NodeId(0)),
            drop: 0.3,
            duplicate: 0.3,
            delay: 0.2,
            filter: None,
        })
    };
    const SENDS: u64 = 200;

    // Event core: count what actually arrives.
    let mut sim: SimCluster<u64> = SimCluster::new();
    let sink = sim.add_node(NodeClass::Reliable, FnNode::new(|_, _, _| {}));
    sim.set_faults(plan(42));
    for i in 0..SENDS {
        let _ = sim.send_as_harness(sink, i);
    }
    sim.run_until_idle();
    let event_stats = sim.fault_stats();
    let event_delivered = sim.stats().messages;

    // Thread core: same sends, same seed, from the single harness thread
    // (so the pair's send order is identical).
    let mut cluster: Cluster<u64> = Cluster::new();
    let t_sink = cluster.spawn(NodeClass::Reliable, |ctx| while ctx.recv().is_ok() {});
    assert_eq!(t_sink, sink);
    cluster.set_faults(plan(42));
    let h = cluster.handle();
    for i in 0..SENDS {
        let _ = h.send_as_harness(t_sink, i);
    }
    let thread_stats = cluster.fault_stats();

    assert_eq!(event_stats, thread_stats);
    // Delivered = sends - dropped - still-held + duplicated extras.
    let held = if sim.flush_delayed() > 0 { 1 } else { 0 };
    assert_eq!(
        event_delivered,
        SENDS - event_stats.dropped + event_stats.duplicated - held
    );
    cluster.abort_all();
}

#[test]
fn set_faults_mid_run_keeps_the_earlier_drops_duplicates_and_delays() {
    let plan = |seed| {
        FaultPlan::new(seed).with_rule(proteus_simnet::FaultRule {
            from: Some(NodeId::HARNESS),
            to: Some(NodeId(0)),
            drop: 0.3,
            duplicate: 0.3,
            delay: 0.2,
            filter: None,
        })
    };
    let mut sim: SimCluster<u64> = SimCluster::new();
    let sink = sim.add_node(NodeClass::Reliable, FnNode::new(|_, _, _| {}));
    let mut cluster: Cluster<u64> = Cluster::new();
    assert_eq!(
        cluster.spawn(NodeClass::Reliable, |ctx| while ctx.recv().is_ok() {}),
        sink
    );
    let h = cluster.handle();
    let mut totals = Vec::new();
    for seed in [42, 43] {
        sim.set_faults(plan(seed));
        cluster.set_faults(plan(seed));
        for i in 0..100 {
            let _ = sim.send_as_harness(sink, i);
            let _ = h.send_as_harness(sink, i);
        }
        totals.push(sim.fault_stats());
        assert_eq!(cluster.fault_stats(), sim.fault_stats(), "cores agree");
    }
    let (first, both) = (totals[0], totals[1]);
    assert!(first.dropped > 0 && first.duplicated > 0 && first.delayed > 0);
    assert!(
        both.dropped > first.dropped
            && both.duplicated > first.duplicated
            && both.delayed > first.delayed,
        "the second plan's faults add to the first's: {first:?} then {both:?}"
    );
    sim.clear_faults();
    cluster.clear_faults();
    assert_eq!(sim.fault_stats(), both, "clearing keeps the totals");
    assert_eq!(cluster.fault_stats(), both);
    cluster.abort_all();
}

#[test]
fn delayed_messages_reorder_by_one_and_flush_releases_the_tail() {
    let mut sim: SimCluster<u64> = SimCluster::new();
    let got: Arc<Mutex<Vec<u64>>> = Default::default();
    let sink_got = Arc::clone(&got);
    let sink = sim.add_node(
        NodeClass::Reliable,
        FnNode::new(move |_, _, msg| sink_got.lock().unwrap().push(msg)),
    );
    sim.set_faults(FaultPlan::new(5).delay_between(NodeId::HARNESS, sink, 1.0));
    for i in [1u64, 2, 3] {
        sim.send_as_harness(sink, i).unwrap();
    }
    assert_eq!(sim.fault_stats().delayed, 3);
    // Each send released the previous held message; 3 is still held.
    assert_eq!(sim.flush_delayed(), 1);
    sim.run_until_idle();
    assert_eq!(*got.lock().unwrap(), vec![1, 2, 3]);
}

#[test]
fn replacing_fault_plan_flushes_held_messages_into_the_queue() {
    let mut sim: SimCluster<u64> = SimCluster::new();
    let got: Arc<Mutex<Vec<u64>>> = Default::default();
    let sink_got = Arc::clone(&got);
    let sink = sim.add_node(
        NodeClass::Reliable,
        FnNode::new(move |_, _, msg| sink_got.lock().unwrap().push(msg)),
    );
    sim.set_faults(FaultPlan::new(5).delay_between(NodeId::HARNESS, sink, 1.0));
    sim.send_as_harness(sink, 7).unwrap();
    // Replacing the plan must schedule the held message, not destroy it.
    sim.set_faults(FaultPlan::new(6));
    sim.send_as_harness(sink, 8).unwrap();
    sim.run_until_idle();
    assert_eq!(*got.lock().unwrap(), vec![7, 8]);
    assert_eq!(sim.stats().dropped, 0);
}

#[test]
fn eviction_warning_and_shutdown_reach_handlers_kill_does_not() {
    let mut sim: SimCluster<u64> = SimCluster::new();
    let seen: Arc<Mutex<Vec<Control>>> = Default::default();
    let node_seen = Arc::clone(&seen);
    let node = sim.add_node(
        NodeClass::Transient,
        FnNode::new(|_, _, _: u64| {}).with_control(move |_, ctrl| {
            node_seen.lock().unwrap().push(ctrl);
        }),
    );
    sim.revoke(node, 120_000).unwrap();
    sim.shutdown(node).unwrap();
    sim.schedule_control(SimTime::from_millis(10), node, Control::Kill);
    sim.run_until_idle();
    assert_eq!(
        *seen.lock().unwrap(),
        vec![
            Control::EvictionWarning {
                deadline_ms: 120_000
            },
            Control::Shutdown,
        ]
    );
    // The scheduled Kill retired the node without a handler call.
    assert!(!sim.alive(node));
}

#[test]
fn scheduled_kill_scripts_a_crash_mid_protocol() {
    let mut sim: SimCluster<u64> = SimCluster::new();
    sim.set_link_latency(SimDuration::from_millis(1));
    let nodes = ring(&mut sim, 8);
    // Token does 4 laps (32 hops), but node 5 dies at t=10ms: the token
    // reaches it once (t=6ms) and dies in flight the second time.
    sim.schedule_control(SimTime::from_millis(10), nodes[5], Control::Kill);
    sim.send_as_harness(nodes[0], 32).unwrap();
    sim.run_until_idle();
    assert_eq!(sim.stats().dropped, 1);
    assert_eq!(sim.traffic_between(nodes[4], nodes[5]), 1);
    // The ring is broken after 13 deliveries (the inject at t=1ms plus
    // 12 forward hops); the 14th, bound for dead node 5, is the drop.
    assert_eq!(sim.stats().messages, 13);
}

#[test]
fn recorder_clock_tracks_event_time() {
    let mut sim: SimCluster<u64> = SimCluster::new();
    sim.set_link_latency(SimDuration::from_millis(7));
    let rec = Arc::new(Recorder::new());
    sim.set_recorder(Arc::clone(&rec));
    let sink = sim.add_node(NodeClass::Reliable, FnNode::new(|_, _, _| {}));
    sim.send_as_harness(sink, 1).unwrap();
    sim.run_until_idle();
    assert_eq!(rec.now(), SimTime::from_millis(7));
    sim.run_until(SimTime::from_millis(30));
    assert_eq!(rec.now(), SimTime::from_millis(30));
}

#[test]
fn stopped_node_stops_handling_but_keeps_its_class() {
    let mut sim: SimCluster<u64> = SimCluster::new();
    let count: Arc<Mutex<u64>> = Default::default();
    let node_count = Arc::clone(&count);
    let node = sim.add_node(
        NodeClass::Reliable,
        FnNode::new(move |ctx, _, _| {
            *node_count.lock().unwrap() += 1;
            ctx.stop();
        }),
    );
    sim.send_as_harness(node, 1).unwrap();
    sim.send_as_harness(node, 2).unwrap();
    sim.run_until_idle();
    assert_eq!(*count.lock().unwrap(), 1);
    assert!(!sim.alive(node));
    assert_eq!(sim.class_of(node), Some(NodeClass::Reliable));
    assert_eq!(sim.stats().dropped, 1);
}

/// A two-node request/reply protocol driven through both cores must
/// produce the same traffic matrix and delivered counts.
#[test]
fn thread_shim_and_event_core_agree_on_a_simple_protocol() {
    const N: u64 = 25;

    // Event core.
    let mut sim: SimCluster<u64> = SimCluster::new();
    let server = sim.add_node(
        NodeClass::Reliable,
        FnNode::new(|ctx, from, msg| {
            let _ = ctx.send(from, msg * 2);
        }),
    );
    let client = sim.add_node(NodeClass::Transient, FnNode::new(|_, _, _| {}));
    for i in 0..N {
        sim.send_from(client, server, i).unwrap();
    }
    sim.run_until_idle();

    // Thread core.
    let mut cluster: Cluster<u64> = Cluster::new();
    let t_server = cluster.spawn(NodeClass::Reliable, move |ctx| {
        for _ in 0..N {
            if let Ok(Incoming::App(env)) = ctx.recv() {
                let _ = ctx.send(env.from, env.msg * 2);
            }
        }
    });
    let (done_tx, done_rx) = crossbeam::channel::bounded(1);
    let t_client = cluster.spawn(NodeClass::Transient, move |ctx| {
        for i in 0..N {
            ctx.send(t_server, i).unwrap();
        }
        for _ in 0..N {
            let _ = ctx.recv();
        }
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .unwrap();

    assert_eq!((server, client), (t_server, t_client));
    assert_eq!(sim.stats(), cluster.stats());
    assert_eq!(sim.traffic_matrix(), cluster.traffic_matrix());
    cluster.join();
}

#[test]
fn a_node_that_stops_within_a_batch_still_looks_alive_to_that_batch() {
    let mut sim: SimCluster<u64> = SimCluster::new();
    // Node 0 stops on its first message; node 1 sends to it on its own.
    let quitter = sim.add_node(NodeClass::Transient, FnNode::new(|ctx, _, _| ctx.stop()));
    let results: Arc<Mutex<Vec<Result<(), proteus_simnet::SendError>>>> = Default::default();
    let sender_results = Arc::clone(&results);
    let sender = sim.add_node(
        NodeClass::Transient,
        FnNode::new(move |ctx, _, _| {
            let sent = ctx.send(NodeId(0), 1);
            sender_results.lock().unwrap().push(sent);
        }),
    );
    sim.send_as_harness(quitter, 0).unwrap();
    sim.send_as_harness(sender, 0).unwrap();
    assert!(sim.step(), "one batch holds both deliveries");
    // Liveness is as of the start of the batch: the send succeeded...
    assert_eq!(*results.lock().unwrap(), vec![Ok(())]);
    assert!(!sim.alive(quitter));
    // ...and the message was a counted drop at commit, never queued.
    assert_eq!(sim.pending_events(), 0);
    assert_eq!(sim.stats().dropped, 1);
    assert_eq!(sim.stats().messages, 2);
    // From the next batch on, the sender is told.
    sim.send_as_harness(sender, 0).unwrap();
    sim.run_until_idle();
    assert_eq!(
        results.lock().unwrap()[1],
        Err(proteus_simnet::SendError::Unreachable(quitter))
    );
}

#[test]
fn same_instant_sends_join_the_next_batch_in_node_order() {
    // Nodes 2 and 1 each forward their trigger to node 0. Whatever
    // order the triggers were queued in, node 0 hears from node 1 first.
    let mut sim: SimCluster<u64> = SimCluster::new();
    let heard: Arc<Mutex<Vec<NodeId>>> = Default::default();
    let sink_heard = Arc::clone(&heard);
    let sink = sim.add_node(
        NodeClass::Reliable,
        FnNode::new(move |_, from, _| sink_heard.lock().unwrap().push(from)),
    );
    let forward = || {
        FnNode::new(move |ctx: &mut proteus_simnet::SimCtx<'_, u64>, _, msg| {
            let _ = ctx.send(NodeId(0), msg);
        })
    };
    let a = sim.add_node(NodeClass::Transient, forward());
    let b = sim.add_node(NodeClass::Transient, forward());
    sim.send_as_harness(b, 7).unwrap();
    sim.send_as_harness(a, 7).unwrap();
    assert!(sim.step());
    assert!(heard.lock().unwrap().is_empty(), "forwards wait a batch");
    assert!(sim.step());
    assert_eq!(*heard.lock().unwrap(), vec![a, b]);
    assert_eq!(sim.traffic_between(a, sink), 1);
}
