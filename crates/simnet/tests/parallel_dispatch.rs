//! Thread-count invariance of the event core's parallel dispatch.
//!
//! A file of its own with a single test, because the thread count comes
//! from `PROTEUS_THREADS` — process-wide state.

use std::sync::{Arc, Mutex};

use proteus_simnet::{FaultPlan, FaultRule, NodeClass, NodeId, SimCluster, SimCtx, SimNode};
use proteus_simtime::Pool;

type Seen = Arc<Mutex<Vec<(NodeId, NodeId, u64)>>>;

/// A node that folds every message into its state, records what it saw,
/// and gossips on to peers picked by that state — so any difference in
/// per-node delivery order snowballs. It claims enough computation for
/// every batch with two busy nodes to be handed to the pool.
struct Gossip {
    nodes: u32,
    state: u64,
    seen: Seen,
}

impl SimNode<u64> for Gossip {
    fn on_message(&mut self, ctx: &mut SimCtx<'_, u64>, from: NodeId, msg: u64) {
        self.state = (self.state ^ msg)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(17);
        self.seen.lock().unwrap().push((ctx.id(), from, msg));
        let ttl = msg & 0xff;
        if ttl > 0 {
            for salt in 0..2 {
                let peer = NodeId(((self.state >> (8 * salt)) % u64::from(self.nodes)) as u32);
                let _ = ctx.send(peer, (self.state & !0xff) | (ttl - 1));
            }
        }
    }

    fn compute_hint(&self, _from: NodeId, _msg: &u64) -> u64 {
        1 << 32
    }
}

fn run(threads: &str) -> impl PartialEq {
    std::env::set_var("PROTEUS_THREADS", threads);
    let mut sim: SimCluster<u64> = SimCluster::new();
    let seen = Seen::default();
    for i in 0..8u64 {
        sim.add_node(
            NodeClass::Transient,
            Gossip {
                nodes: 8,
                state: i,
                seen: Arc::clone(&seen),
            },
        );
    }
    sim.set_faults(FaultPlan::new(3).with_rule(FaultRule {
        from: None,
        to: None,
        drop: 0.05,
        duplicate: 0.05,
        delay: 0.05,
        filter: None,
    }));
    for i in 0..8 {
        sim.send_as_harness(NodeId(i), 0xabcd_0000 | 9).unwrap();
    }
    sim.run_until_idle();
    assert!(sim.stats().messages > 500, "the gossip must fan out");
    // Per node, what it saw in the order it saw it (the shared log
    // interleaves nodes in whatever order threads ran them).
    let mut seen = std::mem::take(&mut *seen.lock().unwrap());
    seen.sort_by_key(|(node, _, _)| *node);
    (seen, sim.stats(), sim.traffic_matrix(), sim.fault_stats())
}

#[test]
fn a_run_is_identical_at_any_thread_count() {
    let serial = run("1");
    assert_eq!(Pool::helpers_started(), 0, "one thread never leaves it");
    for threads in ["2", "4", "2"] {
        assert!(run(threads) == serial, "threads={threads}");
        assert!(Pool::helpers_started() > 0, "batches must reach the pool");
    }
    std::env::remove_var("PROTEUS_THREADS");
}
