//! Seed-deterministic message-fault injection at the cluster boundary.
//!
//! A [`FaultPlan`] describes which (sender, receiver) pairs misbehave and
//! how often: messages can be **dropped** (silently eaten by the network —
//! the sender still sees success), **duplicated** (delivered twice, like a
//! retransmit racing its ack), or **delayed** (held back and released
//! after the *next* message on the same pair, producing a one-message
//! reorder). Node-level faults — crash-without-warning, warning-with-no-
//! eviction, warning-then-crash-before-drain, eviction storms — are
//! scripted directly through
//! [`SimCluster::schedule_control`](crate::SimCluster::schedule_control),
//! [`SimCluster::revoke`](crate::SimCluster::revoke) and
//! [`SimCluster::kill`](crate::SimCluster::kill); this module only covers
//! the message plane.
//!
//! # Determinism
//!
//! Each (sender, receiver) pair gets its own
//! [`SplitMix64`] stream seeded from `plan.seed` and the two node ids.
//! The [`SimCluster`](crate::SimCluster) applies the plan when it commits
//! a batch, on the driver's thread, in ascending `(NodeId, send order)`:
//! the n-th message on a pair always consumes the n-th draw of that
//! pair's stream, so the set of dropped/duplicated/delayed messages is a
//! pure function of `(plan, per-pair message sequence)`. A chaos failure
//! is therefore reproducible from the plan seed alone, given a
//! deterministic protocol above.
//!
//! # Delay without deadlock
//!
//! A held message is released when the next message on its pair arrives.
//! If the held message was the *last* traffic on the pair (e.g. the
//! `ClockDone` the whole barrier is waiting on), nothing would ever flush
//! it — so drivers call
//! [`SimCluster::flush_delayed`](crate::SimCluster::flush_delayed)
//! before waiting on progress.

use std::collections::BTreeMap;
use std::sync::Arc;

use proteus_simtime::rng::SplitMix64;

use crate::node::NodeId;

/// Predicate selecting which payloads a rule applies to.
pub type MsgFilter<M> = Arc<dyn Fn(&M) -> bool + Send + Sync>;

/// One fault rule: probabilities applied to messages on matching pairs.
///
/// `from`/`to` of `None` are wildcards. Probabilities are cumulative per
/// message: a single uniform draw picks drop, then duplicate, then delay
/// (so `drop + duplicate + delay` must be ≤ 1). The first matching rule
/// wins; non-matching traffic is untouched and consumes no randomness.
#[derive(Clone)]
pub struct FaultRule<M> {
    /// Sender this rule applies to (`None` = any).
    pub from: Option<NodeId>,
    /// Receiver this rule applies to (`None` = any).
    pub to: Option<NodeId>,
    /// Probability a matching message is silently dropped.
    pub drop: f64,
    /// Probability a matching message is delivered twice.
    pub duplicate: f64,
    /// Probability a matching message is held back one message (reorder).
    pub delay: f64,
    /// Optional payload predicate; `None` matches every payload.
    pub filter: Option<MsgFilter<M>>,
}

impl<M> FaultRule<M> {
    fn matches(&self, from: NodeId, to: NodeId, msg: &M) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && self.filter.as_ref().is_none_or(|p| p(msg))
    }
}

impl<M> std::fmt::Debug for FaultRule<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultRule")
            .field("from", &self.from)
            .field("to", &self.to)
            .field("drop", &self.drop)
            .field("duplicate", &self.duplicate)
            .field("delay", &self.delay)
            .field("filtered", &self.filter.is_some())
            .finish()
    }
}

/// A seeded catalogue of message-fault rules for one run.
#[derive(Clone, Debug)]
pub struct FaultPlan<M> {
    /// Root seed; every per-pair stream derives from it.
    pub seed: u64,
    /// Rules, first match wins.
    pub rules: Vec<FaultRule<M>>,
}

impl<M> FaultPlan<M> {
    /// An empty plan (no message faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds a rule; builder style.
    pub fn with_rule(mut self, rule: FaultRule<M>) -> Self {
        self.rules.push(rule);
        self
    }

    /// Duplicates messages from `from` to `to` with probability `p`.
    pub fn duplicate_between(self, from: NodeId, to: NodeId, p: f64) -> Self {
        self.with_rule(FaultRule {
            from: Some(from),
            to: Some(to),
            drop: 0.0,
            duplicate: p,
            delay: 0.0,
            filter: None,
        })
    }

    /// Delays (reorders by one) messages from `from` to `to` with
    /// probability `p`.
    pub fn delay_between(self, from: NodeId, to: NodeId, p: f64) -> Self {
        self.with_rule(FaultRule {
            from: Some(from),
            to: Some(to),
            drop: 0.0,
            duplicate: 0.0,
            delay: p,
            filter: None,
        })
    }
}

/// Counters of faults actually injected so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Messages silently dropped.
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages held back for a one-message reorder.
    pub delayed: u64,
}

impl std::ops::Add for FaultStats {
    type Output = FaultStats;

    fn add(self, o: FaultStats) -> FaultStats {
        FaultStats {
            dropped: self.dropped + o.dropped,
            duplicated: self.duplicated + o.duplicated,
            delayed: self.delayed + o.delayed,
        }
    }
}

/// What the fault layer decided to do with one message.
enum Verdict {
    Deliver,
    Drop,
    Duplicate,
    Delay,
}

/// Outcome of pushing one message through the fault layer.
///
/// Distinguishes the *current* message's copies from a previously-held
/// message released by this traffic: the sender's result must reflect
/// only its own message (success iff it was absorbed by the network or
/// at least one copy was delivered), never the fate of a stale held
/// message that happened to ride along.
#[derive(Debug, PartialEq)]
pub(crate) struct Applied<M> {
    /// Copies of the current message to deliver now (empty when the
    /// message was dropped or held back).
    pub(crate) copies: Vec<M>,
    /// The current message was absorbed (fault-dropped or held back):
    /// the network ate it, so the sender must see success.
    pub(crate) absorbed: bool,
    /// A previously-held message on the same pair released by this
    /// traffic, delivered after the current copies — the one-message
    /// reorder a delay fault produces.
    pub(crate) released: Option<M>,
}

impl<M> Applied<M> {
    /// An untouched message: one copy, nothing absorbed or released.
    pub(crate) fn passthrough(msg: M) -> Self {
        Applied {
            copies: vec![msg],
            absorbed: false,
            released: None,
        }
    }
}

/// Per-(sender, receiver) stream state.
struct PairState<M> {
    rng: SplitMix64,
    /// At most one held-back message per pair, released on the pair's
    /// next traffic or by an explicit flush.
    held: Option<M>,
}

/// The installed fault layer: plan + per-pair streams + counters.
pub(crate) struct FaultLayer<M> {
    plan: FaultPlan<M>,
    /// Ordered by pair, so a flush releases in a fixed order.
    pairs: BTreeMap<(NodeId, NodeId), PairState<M>>,
    stats: FaultStats,
}

impl<M: Clone> FaultLayer<M> {
    pub(crate) fn new(plan: FaultPlan<M>) -> Self {
        FaultLayer {
            plan,
            pairs: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Applies the plan to one message, returning what to deliver *now*:
    /// the current message's copies (empty when it was absorbed) plus any
    /// previously-held message this traffic releases.
    pub(crate) fn apply(&mut self, from: NodeId, to: NodeId, msg: M) -> Applied<M> {
        let rule = match self.plan.rules.iter().find(|r| r.matches(from, to, &msg)) {
            Some(r) => r,
            // Untouched traffic still flushes anything held on its pair so
            // a delayed message is reordered by exactly one message.
            None => {
                return Applied {
                    copies: vec![msg],
                    absorbed: false,
                    released: self.pairs.get_mut(&(from, to)).and_then(|p| p.held.take()),
                };
            }
        };
        let (drop_p, dup_p, delay_p) = (rule.drop, rule.duplicate, rule.delay);
        let seed = self.plan.seed;
        let pair = self.pairs.entry((from, to)).or_insert_with(|| PairState {
            rng: SplitMix64::new(
                seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((from.0 as u64) << 32 | to.0 as u64),
            ),
            held: None,
        });
        let u = pair.rng.next_f64();
        let verdict = if u < drop_p {
            Verdict::Drop
        } else if u < drop_p + dup_p {
            Verdict::Duplicate
        } else if u < drop_p + dup_p + delay_p {
            Verdict::Delay
        } else {
            Verdict::Deliver
        };
        // Released first, so at most one message per pair is ever held.
        let released = pair.held.take();
        match verdict {
            Verdict::Deliver => Applied {
                copies: vec![msg],
                absorbed: false,
                released,
            },
            Verdict::Drop => {
                self.stats.dropped += 1;
                Applied {
                    copies: Vec::new(),
                    absorbed: true,
                    released,
                }
            }
            Verdict::Duplicate => {
                self.stats.duplicated += 1;
                Applied {
                    copies: vec![msg.clone(), msg],
                    absorbed: false,
                    released,
                }
            }
            Verdict::Delay => {
                self.stats.delayed += 1;
                pair.held = Some(msg);
                Applied {
                    copies: Vec::new(),
                    absorbed: true,
                    released,
                }
            }
        }
    }

    /// Drains every held-back message, in pair order, so the cluster can
    /// deliver them directly (bypassing re-injection).
    pub(crate) fn drain_held(&mut self) -> Vec<(NodeId, NodeId, M)> {
        self.pairs
            .iter_mut()
            .filter_map(|(&(f, t), p)| p.held.take().map(|m| (f, t, m)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<M: Clone> Applied<M> {
        /// Delivery order the cluster would route: current copies, then
        /// any released held message.
        fn in_order(&self) -> Vec<M> {
            let mut out = self.copies.clone();
            out.extend(self.released.clone());
            out
        }
    }

    fn plan_all(seed: u64, drop: f64, dup: f64, delay: f64) -> FaultPlan<u32> {
        FaultPlan::new(seed).with_rule(FaultRule {
            from: None,
            to: None,
            drop,
            duplicate: dup,
            delay,
            filter: None,
        })
    }

    #[test]
    fn same_seed_same_verdicts() {
        let mut a = FaultLayer::new(plan_all(42, 0.3, 0.3, 0.3));
        let mut b = FaultLayer::new(plan_all(42, 0.3, 0.3, 0.3));
        for i in 0..200u32 {
            assert_eq!(
                a.apply(NodeId(1), NodeId(2), i).in_order(),
                b.apply(NodeId(1), NodeId(2), i).in_order()
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultLayer::new(plan_all(1, 0.5, 0.0, 0.0));
        let mut b = FaultLayer::new(plan_all(2, 0.5, 0.0, 0.0));
        let va: Vec<_> = (0..100u32)
            .map(|i| a.apply(NodeId(1), NodeId(2), i).in_order())
            .collect();
        let vb: Vec<_> = (0..100u32)
            .map(|i| b.apply(NodeId(1), NodeId(2), i).in_order())
            .collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn pairs_are_independent_streams() {
        // Interleaving traffic on another pair must not perturb the
        // verdicts on this one.
        let mut a = FaultLayer::new(plan_all(7, 0.4, 0.2, 0.2));
        let mut b = FaultLayer::new(plan_all(7, 0.4, 0.2, 0.2));
        let mut va = Vec::new();
        let mut vb = Vec::new();
        for i in 0..100u32 {
            va.push(a.apply(NodeId(1), NodeId(2), i).in_order());
            a.apply(NodeId(3), NodeId(4), i); // extra traffic
            vb.push(b.apply(NodeId(1), NodeId(2), i).in_order());
        }
        assert_eq!(va, vb);
    }

    #[test]
    fn drop_absorbs_the_message() {
        let mut layer = FaultLayer::new(plan_all(0, 1.0, 0.0, 0.0));
        let applied = layer.apply(NodeId(1), NodeId(2), 9);
        assert!(applied.copies.is_empty());
        assert!(applied.absorbed);
        assert_eq!(layer.stats().dropped, 1);
    }

    #[test]
    fn duplicate_delivers_twice() {
        let mut layer = FaultLayer::new(plan_all(0, 0.0, 1.0, 0.0));
        let applied = layer.apply(NodeId(1), NodeId(2), 9);
        assert_eq!(applied.copies, vec![9, 9]);
        assert!(!applied.absorbed);
        assert_eq!(layer.stats().duplicated, 1);
    }

    #[test]
    fn delay_reorders_by_one_message() {
        // First message held; second released before it — a reorder.
        let plan = FaultPlan::new(0).with_rule(FaultRule {
            from: None,
            to: None,
            drop: 0.0,
            duplicate: 0.0,
            delay: 1.0,
            filter: None,
        });
        let mut layer = FaultLayer::new(plan);
        let first = layer.apply(NodeId(1), NodeId(2), 1);
        assert!(first.copies.is_empty() && first.absorbed);
        // Second message is also "delayed": releases the first, holds self.
        let second = layer.apply(NodeId(1), NodeId(2), 2);
        assert!(second.copies.is_empty() && second.absorbed);
        assert_eq!(second.released, Some(1));
        assert_eq!(layer.drain_held(), vec![(NodeId(1), NodeId(2), 2)]);
        assert_eq!(layer.drain_held(), vec![]);
        assert_eq!(layer.stats().delayed, 2);
    }

    #[test]
    fn filter_restricts_rule_to_matching_payloads() {
        let plan = FaultPlan::new(0).with_rule(FaultRule {
            from: None,
            to: None,
            drop: 1.0,
            duplicate: 0.0,
            delay: 0.0,
            filter: Some(Arc::new(|m: &u32| m.is_multiple_of(2))),
        });
        let mut layer = FaultLayer::new(plan);
        assert!(layer.apply(NodeId(1), NodeId(2), 4).absorbed); // dropped
        assert_eq!(layer.apply(NodeId(1), NodeId(2), 5).in_order(), vec![5]); // untouched
    }

    #[test]
    fn wildcard_and_specific_pair_matching() {
        let plan = FaultPlan::new(0).with_rule(FaultRule {
            from: Some(NodeId(1)),
            to: Some(NodeId(2)),
            drop: 1.0,
            duplicate: 0.0,
            delay: 0.0,
            filter: None,
        });
        let mut layer = FaultLayer::new(plan);
        assert!(layer.apply(NodeId(1), NodeId(2), 1).absorbed);
        assert_eq!(layer.apply(NodeId(2), NodeId(1), 1).in_order(), vec![1]);
        assert_eq!(layer.apply(NodeId(1), NodeId(3), 1).in_order(), vec![1]);
    }
}
