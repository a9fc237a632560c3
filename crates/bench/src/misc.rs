//! The free-form entries: the spot-price traces (Fig. 3), the two
//! tables with their live checks, and the market-mix extra.

use std::collections::BTreeMap;
use std::io;

use proteus_agileml::ServerState;
use proteus_bidbrain::{AllocView, AppParams, BetaEstimator, BidBrain, BidBrainConfig};
use proteus_costsim::{run_job, Scheme, SchemeKind, StudyEnv};
use proteus_market::{catalog, MarketKey, MarketModel, TraceGenerator, Zone};
use proteus_ps::{ParamKey, PartitionId, PartitionMap};
use proteus_simtime::{SimDuration, SimTime};

use crate::{standard_study, Out, Table};

/// Fig. 3 — six days of spot prices for c4.2xlarge and c4.xlarge
/// against the unchanging c4.2xlarge on-demand price: a cheap,
/// mildly-jittering floor punctuated by sharp spikes above on-demand.
pub fn fig03(out: Out) -> io::Result<()> {
    let horizon = SimDuration::from_hours(24 * 6);
    let end = SimTime::EPOCH + horizon;
    let gen = TraceGenerator::new(2016, MarketModel::default());

    let small = MarketKey::new(catalog::c4_xlarge(), Zone(0));
    let big = MarketKey::new(catalog::c4_2xlarge(), Zone(0));
    let t_small = gen.generate(small, horizon);
    let t_big = gen.generate(big, horizon);
    let od_big = big.instance_type().on_demand_price;

    let spec = "hour:8|2x c4.xlarge:14.3|c4.2xlarge:14.3|on-demand:12.3";
    let mut table = Table::new(out, spec)?;
    let samples = t_small.sample(SimTime::EPOCH, end, SimDuration::from_hours(2));
    for (i, (t, p_small)) in samples.into_iter().enumerate() {
        // Like the paper, double the 4-core price so all columns price
        // the same number of cores.
        let p_big = t_big.price_at(t);
        table.row(&[&(i * 2), &(2.0 * p_small), &p_big, &od_big])?;
    }

    for (name, trace, scale) in [
        ("c4.xlarge(x2)", &t_small, 2.0),
        ("c4.2xlarge", &t_big, 1.0),
    ] {
        let mean = scale * trace.mean_price(SimTime::EPOCH, end);
        writeln!(
            out,
            "\n{name}: mean ${mean:.3}/8-cores-h ({:.0}% of on-demand), above on-demand {:.1}% of the time",
            100.0 * mean / od_big,
            100.0 * trace.fraction_above(od_big / scale, SimTime::EPOCH, end),
        )?;
    }
    Ok(())
}

/// Table 1 — types of solution-state servers used by AgileML, with a
/// live demonstration that each role behaves as documented.
pub fn tab01(out: Out) -> io::Result<()> {
    let rows = [
        (
            "ParamServs",
            "Serve solution state for workers and always run on reliable resources",
        ),
        (
            "BackupPSs",
            "Serve as a hot backup for solution state served by ActivePSs and always run on reliable resources",
        ),
        (
            "ActivePSs",
            "Serve solution state for workers, periodically pushing aggregated updates to BackupPSs, and run on transient resources",
        ),
    ];
    for (role, duty) in rows {
        writeln!(out, "{role:>12}  {duty}")?;
    }

    // Live check of the role mechanics via ServerState.
    let layout = PartitionMap::new(2).ok_or_else(|| io::Error::other("zero partitions"))?;
    let p0 = PartitionId(0);
    let image = || std::iter::once((ParamKey(0), [1.0])).collect();
    let mut active = ServerState::new(layout);
    active.reconfigure(&[p0], &[], true);
    active.install_image(p0, image(), 0);
    active.handle_updates(p0, &std::iter::once((ParamKey(0), [0.5])).collect());
    let push = active.take_push();

    let mut backup = ServerState::new(layout);
    backup.reconfigure(&[], &[p0], false);
    backup.install_image(p0, image(), 0);
    for (p, deltas) in push {
        backup.apply_push(p, 1, deltas, false);
    }
    let backed_up = backup.read_backup(ParamKey(0));
    let v = backed_up.ok_or_else(|| io::Error::other("BackupPS holds no state for key 0"))?;
    writeln!(
        out,
        "\nlive role check: ActivePS pushed coalesced delta; BackupPS state = {} (expected 1.5) ✓",
        v.as_slice()[0]
    )
}

/// Table 2 — parameters used by BidBrain, with a live evaluation
/// showing how each one enters the Eq. 1–4 math.
pub fn tab02(out: Out) -> io::Result<()> {
    for (symbol, meaning) in AppParams::table2() {
        writeln!(out, "{symbol:>4}  {meaning}")?;
    }

    // A live footprint evaluation showing the parameters at work.
    let params = AppParams::default();
    let brain = BidBrain::new(params, BetaEstimator::new(), BidBrainConfig::default());
    let market = MarketKey::new(catalog::c4_xlarge(), Zone(0));
    let footprint = [
        AllocView::on_demand(market, 3, 0.0),
        AllocView {
            market,
            count: 32,
            hourly_price: 0.05,
            bid_delta: Some(0.01),
            time_remaining: SimDuration::from_mins(40),
            work_rate: 4.0,
        },
    ];
    let eval = brain.evaluate(&footprint, false);
    let (cost, work, per_work) = (eval.expected_cost, eval.expected_work, eval.cost_per_work());
    writeln!(
        out,
        "\nlive evaluation of a 3 on-demand + 32 spot footprint (β untrained → 0.5):\n  \
         C_A = ${cost:.3}  (Eq. 1: eviction-refund-weighted cost)\n  \
         W_A = {work:.1} core-hours  (Eqs. 2-3: ω − eviction/scale overheads, φ-scaled)\n  \
         E_A = ${per_work:.4} per core-hour  (Eq. 4)"
    )
}

/// Extra — BidBrain watches several (instance type × zone) markets
/// whose prices "move relatively independently" (Sec. 1): where a long
/// Proteus job bought capacity versus the standard strategy's
/// cheapest-at-restart concentration.
pub fn extra_market_mix(out: Out) -> io::Result<()> {
    let env = StudyEnv::new(standard_study(20.0, 8));
    let mut evictions = Vec::new();
    for (label, kind) in [
        ("Proteus", SchemeKind::paper_proteus()),
        ("Standard strategy", SchemeKind::paper_standard_agileml()),
    ] {
        let job = env.job();
        let scheme = Scheme { kind, job };
        let mut mix: BTreeMap<String, u32> = BTreeMap::new();
        let mut evicted = 0;
        for &start in env.starts.iter().take(8) {
            let horizon = SimDuration::from_hours(96);
            let o = run_job(&scheme, &env.traces, &env.beta, start, horizon);
            evicted += o.evictions;
            for (m, c) in o.market_mix {
                *mix.entry(m).or_insert(0) += c;
            }
        }
        evictions.push(evicted);
        let total: u32 = mix.values().sum();
        writeln!(
            out,
            "\n{label} ({total} instances total, {} markets):",
            mix.len()
        )?;
        for (m, c) in &mix {
            let share = 100.0 * f64::from(*c) / f64::from(total.max(1));
            writeln!(out, "  {m:>24} {c:>6} ({share:>4.1}%)")?;
        }
    }
    writeln!(
        out,
        "\nevictions over 8 jobs: Proteus {}, standard {} — Proteus accepts\n\
         evictions where the refund math favours them; the standard strategy\n\
         avoids them by bidding the on-demand price but cannot shop across\n\
         markets mid-job.",
        evictions[0], evictions[1]
    )
}
