//! Integration suite for the discrete-event core: fault injection at
//! enqueue time and its boundary cases, run-to-run determinism, node
//! controls, traffic accounting and obs sim-clock driving.

use std::sync::{Arc, Mutex};

use proteus_simnet::{
    Control, FaultPlan, FaultRule, FnNode, NetStats, NodeClass, NodeId, SimCluster, SimCtx, SimNode,
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

/// A fault plan that drops, duplicates and delays harness → node 0.
fn harness_chaos(seed: u64) -> FaultPlan<u64> {
    FaultPlan::new(seed).with_rule(FaultRule {
        from: Some(NodeId::HARNESS),
        to: Some(NodeId(0)),
        drop: 0.3,
        duplicate: 0.3,
        delay: 0.2,
        filter: None,
    })
}

enum Fault {
    Duplicate,
    Delay,
}

/// A plan that duplicates or delays every harness → `to` message.
fn harness_always(seed: u64, to: NodeId, fault: Fault) -> FaultPlan<u64> {
    let (duplicate, delay) = match fault {
        Fault::Duplicate => (1.0, 0.0),
        Fault::Delay => (0.0, 1.0),
    };
    FaultPlan::new(seed).with_rule(FaultRule {
        from: Some(NodeId::HARNESS),
        to: Some(to),
        drop: 0.0,
        duplicate,
        delay,
        filter: None,
    })
}

/// A one-node cluster whose node records every payload it handles.
fn recording_sink() -> (SimCluster<u64>, NodeId, Arc<Mutex<Vec<u64>>>) {
    let mut sim: SimCluster<u64> = SimCluster::new();
    let got: Arc<Mutex<Vec<u64>>> = Default::default();
    let sink_got = Arc::clone(&got);
    let sink = sim.add_node(
        NodeClass::Reliable,
        FnNode::new(move |_, _, msg| sink_got.lock().unwrap().push(msg)),
    );
    (sim, sink, got)
}

#[test]
fn faults_apply_at_enqueue_and_replay_from_the_seed() {
    // Drop/dup/delay decisions are a pure function of (seed, pair, send
    // index): the same sends under the same seed on a second cluster
    // meet the same fate, message for message.
    const SENDS: u64 = 200;
    let run = || {
        let (mut sim, sink, got) = recording_sink();
        sim.set_faults(harness_chaos(42));
        let results: Vec<_> = (0..SENDS).map(|i| sim.send_as_harness(sink, i)).collect();
        sim.run_until_idle();
        let held = sim.flush_delayed();
        let stats = (sim.fault_stats(), sim.stats());
        let got = got.lock().unwrap().clone();
        (results, held, stats, got)
    };
    let (results, held, (faults, net), got) = run();
    assert_eq!((results.clone(), held, (faults, net), got.clone()), run());
    assert!(results.iter().all(Result::is_ok), "absorbed sends succeed");
    assert!(faults.dropped > 0 && faults.duplicated > 0 && faults.delayed > 0);
    // Delivered = sends - dropped - still-held + duplicated extras.
    assert_eq!(
        net.messages,
        SENDS - faults.dropped + faults.duplicated - held as u64
    );
    assert_eq!(got.len() as u64, net.messages);
}

#[test]
fn set_faults_mid_run_keeps_the_earlier_drops_duplicates_and_delays() {
    let (mut sim, sink, _) = recording_sink();
    let mut totals = Vec::new();
    for seed in [42, 43] {
        sim.set_faults(harness_chaos(seed));
        for i in 0..100 {
            let _ = sim.send_as_harness(sink, i);
        }
        totals.push(sim.fault_stats());
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
    assert_eq!(sim.fault_stats(), both, "clearing keeps the totals");
}

/// Regression: a sender's result reflects its own message only. A send
/// the network absorbed (here: delayed) succeeds even when the held
/// message it releases is bound for a node that has died since.
#[test]
fn absorbed_send_succeeds_even_if_released_held_message_is_dead() {
    let (mut sim, victim, got) = recording_sink();
    sim.set_faults(harness_always(1, victim, Fault::Delay));
    // First send: held back (absorbed), the sender sees Ok.
    assert_eq!(sim.send_as_harness(victim, 1), Ok(()));
    sim.kill(victim);
    // Second send: also delayed — it releases the first, whose delivery
    // now fails. That failure is the held message's (a counted drop),
    // not this sender's.
    let before = sim.stats().dropped;
    assert_eq!(sim.send_as_harness(victim, 2), Ok(()));
    assert_eq!(sim.stats().dropped, before + 1);
    sim.run_until_idle();
    assert!(got.lock().unwrap().is_empty());
}

/// Regression: success means at least one copy of *my* message was
/// scheduled (or the network absorbed it). A duplicated message to a
/// dead target schedules neither copy, so the sender sees `Unreachable`
/// and both copies count as drops.
#[test]
fn duplicated_send_to_dead_target_reports_unreachable() {
    let (mut sim, victim, _) = recording_sink();
    sim.set_faults(harness_always(1, victim, Fault::Duplicate));
    sim.kill(victim);
    assert_eq!(
        sim.send_as_harness(victim, 1),
        Err(proteus_simnet::SendError::Unreachable(victim))
    );
    assert_eq!(sim.fault_stats().duplicated, 1);
    assert_eq!(sim.stats().dropped, 2);
}

/// Regression: a held message that a plan replacement flushes toward a
/// node that has died is counted in `NetStats::dropped`, not lost.
#[test]
fn replacing_fault_layer_counts_undeliverable_held_as_dropped() {
    let (mut sim, victim, _) = recording_sink();
    sim.set_faults(harness_always(5, victim, Fault::Delay));
    sim.send_as_harness(victim, 1).unwrap();
    sim.kill(victim);
    let before = sim.stats().dropped;
    sim.set_faults(FaultPlan::new(6));
    assert_eq!(sim.stats().dropped, before + 1);
    assert!(!sim.step(), "nothing left to dispatch");
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
    sim.set_faults(harness_always(5, sink, Fault::Delay));
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
    sim.set_faults(harness_always(5, sink, Fault::Delay));
    sim.send_as_harness(sink, 7).unwrap();
    // Replacing the plan must schedule the held message, not destroy it.
    sim.set_faults(FaultPlan::new(6));
    sim.send_as_harness(sink, 8).unwrap();
    sim.run_until_idle();
    assert_eq!(*got.lock().unwrap(), vec![7, 8]);
    assert_eq!(sim.stats().dropped, 0);
}

/// A node that records every control it is handed.
struct ControlLog(Arc<Mutex<Vec<Control>>>);

impl SimNode<u64> for ControlLog {
    fn on_message(&mut self, _: &mut SimCtx<'_, u64>, _: NodeId, _: u64) {}

    fn on_control(&mut self, _: &mut SimCtx<'_, u64>, ctrl: Control) {
        self.0.lock().unwrap().push(ctrl);
    }
}

#[test]
fn eviction_warning_reaches_handlers_kill_does_not() {
    let mut sim: SimCluster<u64> = SimCluster::new();
    let seen: Arc<Mutex<Vec<Control>>> = Default::default();
    let node = sim.add_node(NodeClass::Transient, ControlLog(Arc::clone(&seen)));
    sim.revoke(node, 120_000).unwrap();
    sim.send_control(node, Control::Kill).unwrap();
    sim.run_until_idle();
    assert_eq!(
        *seen.lock().unwrap(),
        vec![Control::EvictionWarning {
            deadline_ms: 120_000
        }]
    );
    // The Kill retired the node without a handler call.
    assert!(!sim.alive(node));
    assert_eq!(
        sim.revoke(node, 1),
        Err(proteus_simnet::SendError::Unreachable(node))
    );
}

#[test]
fn scheduled_kill_scripts_a_crash_mid_protocol() {
    let mut sim: SimCluster<u64> = SimCluster::new();
    sim.set_link_latency(SimDuration::from_millis(1));
    let nodes = ring(&mut sim, 8);
    // Token does 4 laps (32 hops), but node 5 dies at t=10ms: the token
    // reaches it once (t=6ms) and dies in flight the second time.
    sim.send_as_harness(nodes[0], 32).unwrap();
    // One hop per batch, a millisecond apart: ten batches reach t=10ms.
    for _ in 0..10 {
        assert!(sim.step());
    }
    sim.kill(nodes[5]);
    sim.run_until_idle();
    assert_eq!(sim.stats().dropped, 1);
    assert!(sim.traffic_matrix().contains(&((nodes[4], nodes[5]), 1)));
    // The ring is broken after 13 deliveries (the inject at t=1ms plus
    // 12 forward hops); the 14th, bound for dead node 5, is the drop.
    assert_eq!(sim.stats().messages, 13);
}

#[test]
fn stopped_node_stops_handling() {
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
    assert_eq!(sim.stats().dropped, 1);
}

/// A two-node request/reply protocol: every request and every reply is
/// one delivery, counted on its (sender, receiver) pair. The client
/// sends each request when the harness hands it one.
#[test]
fn request_reply_counts_every_delivery_and_pair() {
    const N: u64 = 25;
    let mut sim: SimCluster<u64> = SimCluster::new();
    let server = sim.add_node(
        NodeClass::Reliable,
        FnNode::new(|ctx, from, msg| {
            let _ = ctx.send(from, msg * 2);
        }),
    );
    let client = sim.add_node(
        NodeClass::Transient,
        FnNode::new(move |ctx, from, msg| {
            if from == NodeId::HARNESS {
                let _ = ctx.send(server, msg);
            }
        }),
    );
    for i in 0..N {
        sim.send_as_harness(client, i).unwrap();
    }
    sim.run_until_idle();

    assert_eq!((server, client), (NodeId(0), NodeId(1)));
    assert_eq!(
        sim.stats(),
        NetStats {
            messages: 75,
            dropped: 0
        }
    );
    assert_eq!(
        sim.traffic_matrix(),
        vec![
            ((NodeId(0), NodeId(1)), 25),
            ((NodeId(1), NodeId(0)), 25),
            ((NodeId::HARNESS, NodeId(1)), 25)
        ]
    );
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
    assert!(!sim.step(), "nothing left to dispatch");
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
    assert!(sim.traffic_matrix().contains(&((a, sink), 1)));
}
