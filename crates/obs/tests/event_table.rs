//! Every event kind's JSONL line, pinned byte for byte: one instance of
//! each variant, exported through a recorder, must serialize to exactly
//! the line beside it. The values exercise the writer's corners: a
//! string that needs escaping, non-ASCII text, `u64::MAX`, `-0`, tiny
//! and huge floats, and non-finite floats rendered as `null`.

use std::collections::BTreeSet;

use proteus_obs::{
    AgileEvent, BidEvent, CostEvent, Event, FleetEvent, MarketEvent, Recorder, SessionEvent,
};
use proteus_simtime::SimTime;

/// The number of event kinds the taxonomy declares.
const KINDS: usize = 44;

fn table() -> Vec<(Event, &'static str)> {
    use AgileEvent as A;
    use BidEvent as B;
    use CostEvent as C;
    use FleetEvent as F;
    use MarketEvent as M;
    use SessionEvent as S;
    vec![
        (
            Event::Market(M::PriceMove {
                market: "us-east-1a/c4.xlarge".into(),
                price: 0.1,
            }),
            r#"{"t_ms":0,"seq":0,"kind":"market.price_move","market":"us-east-1a/c4.xlarge","price":0.1}"#,
        ),
        (
            Event::Market(M::SpotGranted {
                market: "us-west-2b/r3.8xlarge".into(),
                allocation: 3,
                count: 4,
                bid: 0.5,
            }),
            r#"{"t_ms":997,"seq":1,"kind":"market.spot_granted","market":"us-west-2b/r3.8xlarge","allocation":3,"count":4,"bid":0.5}"#,
        ),
        (
            Event::Market(M::PartialGrant {
                market: "m".into(),
                requested: 8,
                granted: 5,
            }),
            r#"{"t_ms":1994,"seq":2,"kind":"market.partial_grant","market":"m","requested":8,"granted":5}"#,
        ),
        (
            Event::Market(M::CapacityRefused {
                market: "quote\"back\\slash".into(),
                requested: 2,
            }),
            r#"{"t_ms":2991,"seq":3,"kind":"market.capacity_refused","market":"quote\"back\\slash","requested":2}"#,
        ),
        (
            Event::Market(M::Throttled {
                market: "tab\tnl\ncr\r".into(),
                retry_after_ms: 30000,
            }),
            r#"{"t_ms":3988,"seq":4,"kind":"market.throttled","market":"tab\tnl\ncr\r","retry_after_ms":30000}"#,
        ),
        (
            Event::Market(M::BidRejected {
                market: "ctl\u{1}\u{1f}".into(),
                bid: f64::NAN,
                price: f64::INFINITY,
            }),
            r#"{"t_ms":4985,"seq":5,"kind":"market.bid_rejected","market":"ctl\u0001\u001f","bid":null,"price":null}"#,
        ),
        (
            Event::Market(M::OnDemandGranted {
                allocation: u64::MAX,
                count: 0,
                price: 0.266,
            }),
            r#"{"t_ms":5982,"seq":6,"kind":"market.on_demand_granted","allocation":18446744073709551615,"count":0,"price":0.266}"#,
        ),
        (
            Event::Market(M::EvictionWarning {
                allocation: 7,
                evict_at_ms: 120000,
            }),
            r#"{"t_ms":6979,"seq":7,"kind":"market.eviction_warning","allocation":7,"evict_at_ms":120000}"#,
        ),
        (
            Event::Market(M::Evicted { allocation: 7 }),
            r#"{"t_ms":7976,"seq":8,"kind":"market.evicted","allocation":7}"#,
        ),
        (
            Event::Market(M::Launched { allocation: 8 }),
            r#"{"t_ms":8973,"seq":9,"kind":"market.launched","allocation":8}"#,
        ),
        (
            Event::Market(M::LaunchFailed { allocation: 9 }),
            r#"{"t_ms":9970,"seq":10,"kind":"market.launch_failed","allocation":9}"#,
        ),
        (
            Event::Market(M::HourCharged {
                allocation: 10,
                amount: 1e-7,
            }),
            r#"{"t_ms":10967,"seq":11,"kind":"market.hour_charged","allocation":10,"amount":0.0000001}"#,
        ),
        (
            Event::Market(M::Terminated { allocation: 11 }),
            r#"{"t_ms":11964,"seq":12,"kind":"market.terminated","allocation":11}"#,
        ),
        (
            Event::Bid(B::Evaluated {
                markets: 12,
                candidates: 3,
                current_score: -0.0,
            }),
            r#"{"t_ms":12961,"seq":13,"kind":"bid.evaluated","markets":12,"candidates":3,"current_score":-0}"#,
        ),
        (
            Event::Bid(B::ForecastAlert {
                market: "é/ü".into(),
                bid: 0.35,
                hazard: 1.0,
                horizon_ms: 90000,
            }),
            r#"{"t_ms":13958,"seq":14,"kind":"bid.forecast_alert","market":"é/ü","bid":0.35,"hazard":1,"horizon_ms":90000}"#,
        ),
        (
            Event::Bid(B::CandidateRanked {
                rank: 0,
                market: "us-east-1a/c4.xlarge".into(),
                count: 16,
                bid: 0.123456789,
                delta: 1e21,
                score: 2.5e-3,
                expected_cost: 12.75,
                expected_work: f64::NEG_INFINITY,
            }),
            r#"{"t_ms":14955,"seq":15,"kind":"bid.candidate","rank":0,"market":"us-east-1a/c4.xlarge","count":16,"bid":0.123456789,"delta":1000000000000000000000,"score":0.0025,"expected_cost":12.75,"expected_work":null}"#,
        ),
        (
            Event::Agile(A::Started { nodes: 64 }),
            r#"{"t_ms":15952,"seq":16,"kind":"agile.started","nodes":64}"#,
        ),
        (
            Event::Agile(A::ClockAdvanced { min: 1234 }),
            r#"{"t_ms":16949,"seq":17,"kind":"agile.clock_advanced","min":1234}"#,
        ),
        (
            Event::Agile(A::StageChanged {
                from: "Stage1".into(),
                to: "Stage3".into(),
            }),
            r#"{"t_ms":17946,"seq":18,"kind":"agile.stage_changed","from":"Stage1","to":"Stage3"}"#,
        ),
        (
            Event::Agile(A::NodesAdded { count: 4 }),
            r#"{"t_ms":18943,"seq":19,"kind":"agile.nodes_added","count":4}"#,
        ),
        (
            Event::Agile(A::NodesEvicted { count: 2 }),
            r#"{"t_ms":19940,"seq":20,"kind":"agile.nodes_evicted","count":2}"#,
        ),
        (
            Event::Agile(A::NodesPreDrained {
                count: 3,
                partitions: 6,
            }),
            r#"{"t_ms":20937,"seq":21,"kind":"agile.pre_drained","count":3,"partitions":6}"#,
        ),
        (
            Event::Agile(A::ReliableRepaired {
                count: 1,
                partitions: 5,
            }),
            r#"{"t_ms":21934,"seq":22,"kind":"agile.reliable_repaired","count":1,"partitions":5}"#,
        ),
        (
            Event::Agile(A::NodesFailedRecovered {
                count: 2,
                rolled_back_to: 40,
            }),
            r#"{"t_ms":22931,"seq":23,"kind":"agile.recovered","count":2,"rolled_back_to":40}"#,
        ),
        (
            Event::Agile(A::Faulted {
                fault: "no \"reliable\" node left\n".into(),
            }),
            r#"{"t_ms":23928,"seq":24,"kind":"agile.faulted","fault":"no \"reliable\" node left\n"}"#,
        ),
        (
            Event::Session(S::Launched { reliable: 2 }),
            r#"{"t_ms":24925,"seq":25,"kind":"session.launched","reliable":2}"#,
        ),
        (
            Event::Session(S::Degraded),
            r#"{"t_ms":25922,"seq":26,"kind":"session.degraded"}"#,
        ),
        (
            Event::Session(S::Restored {
                degraded_ms: 600000,
            }),
            r#"{"t_ms":26919,"seq":27,"kind":"session.restored","degraded_ms":600000}"#,
        ),
        (
            Event::Session(S::FallbackLaunched { allocation: 21 }),
            r#"{"t_ms":27916,"seq":28,"kind":"session.fallback_launched","allocation":21}"#,
        ),
        (
            Event::Session(S::PreDrained { allocation: 22 }),
            r#"{"t_ms":28913,"seq":29,"kind":"session.pre_drain","allocation":22}"#,
        ),
        (
            Event::Session(S::ForecastFalseAlert { allocation: 23 }),
            r#"{"t_ms":29910,"seq":30,"kind":"session.false_alert","allocation":23}"#,
        ),
        (
            Event::Session(S::ForecastHit { allocation: 24 }),
            r#"{"t_ms":30907,"seq":31,"kind":"session.forecast_hit","allocation":24}"#,
        ),
        (
            Event::Session(S::ReliableLost { machines: 1 }),
            r#"{"t_ms":31904,"seq":32,"kind":"session.reliable_lost","machines":1}"#,
        ),
        (
            Event::Session(S::CheckpointTaken {
                interval_ms: 1200000,
                bytes: 4096,
                clock: 80,
            }),
            r#"{"t_ms":32901,"seq":33,"kind":"session.checkpoint","interval_ms":1200000,"bytes":4096,"clock":80}"#,
        ),
        (
            Event::Session(S::CheckpointRestored {
                clock: 80,
                work_lost: 7,
            }),
            r#"{"t_ms":33898,"seq":34,"kind":"session.checkpoint_restored","clock":80,"work_lost":7}"#,
        ),
        (
            Event::Session(S::Finished {
                cost: 41.5,
                clocks: 200,
            }),
            r#"{"t_ms":34895,"seq":35,"kind":"session.finished","cost":41.5,"clocks":200}"#,
        ),
        (
            Event::Cost(C::RunStart {
                scheme: "Proteus".into(),
                index: 5,
                start_ms: 86400000,
            }),
            r#"{"t_ms":35892,"seq":36,"kind":"costsim.run_start","scheme":"Proteus","index":5,"start_ms":86400000}"#,
        ),
        (
            Event::Cost(C::Sample {
                cum_cost: 3.25,
                cum_work: 100.0,
                spot: 32,
                on_demand: 3,
                fallback: 0,
            }),
            r#"{"t_ms":36889,"seq":37,"kind":"costsim.sample","cum_cost":3.25,"cum_work":100,"spot":32,"on_demand":3,"fallback":0}"#,
        ),
        (
            Event::Cost(C::RunEnd {
                cost: 30.5,
                work: 640.0,
                evictions: 4,
                fallback_count: 1,
            }),
            r#"{"t_ms":37886,"seq":38,"kind":"costsim.run_end","cost":30.5,"work":640,"evictions":4,"fallback_count":1}"#,
        ),
        (
            Event::Fleet(F::JobAdmitted { job: 1, tier: 0 }),
            r#"{"t_ms":38883,"seq":39,"kind":"fleet.job_admitted","job":1,"tier":0}"#,
        ),
        (
            Event::Fleet(F::GangQueued { job: 1, count: 8 }),
            r#"{"t_ms":39880,"seq":40,"kind":"fleet.gang_queued","job":1,"count":8}"#,
        ),
        (
            Event::Fleet(F::GangLaunched {
                job: 1,
                market: "us-east-1b/c4.2xlarge".into(),
                count: 8,
                bid: 0.42,
                waited_ms: 3600000,
            }),
            r#"{"t_ms":40877,"seq":41,"kind":"fleet.gang_launched","job":1,"market":"us-east-1b/c4.2xlarge","count":8,"bid":0.42,"waited_ms":3600000}"#,
        ),
        (
            Event::Fleet(F::TrialEarlyKilled {
                job: 2,
                work_done: 0.75,
            }),
            r#"{"t_ms":41874,"seq":42,"kind":"fleet.trial_early_killed","job":2,"work_done":0.75}"#,
        ),
        (
            Event::Fleet(F::PreemptedByPriority { job: 3, by: 1 }),
            r#"{"t_ms":42871,"seq":43,"kind":"fleet.preempted_by_priority","job":3,"by":1}"#,
        ),
    ]
}

#[test]
fn every_kind_exports_its_pinned_line() {
    let table = table();
    assert_eq!(table.len(), KINDS);
    let rec = Recorder::new();
    for (i, (event, _)) in table.iter().enumerate() {
        rec.record(SimTime::from_millis(997 * i as u64), event.clone());
    }
    let jsonl = rec.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), KINDS);
    for ((event, want), got) in table.iter().zip(lines) {
        assert_eq!(got, *want, "{}", event.kind());
    }
}

#[test]
fn kind_strings_are_distinct() {
    let kinds: BTreeSet<&str> = table().iter().map(|(e, _)| e.kind()).collect();
    assert_eq!(kinds.len(), KINDS);
}
