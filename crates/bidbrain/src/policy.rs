//! BidBrain's cost-per-work objective and allocation decisions
//! (Eqs. 1–4 of the paper).

use proteus_market::{AllocationId, CloudProvider, MarketKey, SpotAllocation};
use proteus_obs::{BidEvent, Event, Recorder};
use proteus_simtime::{SimDuration, SimTime};

use crate::beta::{BetaEstimator, BetaTable, HOUR};
use crate::params::{AppParams, PhiMemo};

/// BidBrain's view of one live or hypothetical allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocView {
    /// Which market the instances belong to.
    pub market: MarketKey,
    /// Instance count `k`.
    pub count: u32,
    /// Price per instance-hour currently being paid (the market price at
    /// the last billing-hour start; the fixed price for on-demand).
    pub hourly_price: f64,
    /// Bid delta above market (`None` for on-demand: never evicted).
    pub bid_delta: Option<f64>,
    /// Time remaining in the current billing hour (the paper's ωᵢ upper
    /// bound).
    pub time_remaining: SimDuration,
    /// Work produced per instance per hour (the paper's ν, usually the
    /// vCPU count). Zero for resources that serve but do not compute
    /// (e.g. on-demand machines hosting only BackupPSs in stage 3 — see
    /// the red allocation in the paper's Fig. 6).
    pub work_rate: f64,
}

impl AllocView {
    /// Convenience constructor for an on-demand allocation.
    pub fn on_demand(market: MarketKey, count: u32, work_rate: f64) -> Self {
        AllocView {
            market,
            count,
            hourly_price: market.instance_type().on_demand_price,
            bid_delta: None,
            time_remaining: SimDuration::from_hours(1),
            work_rate,
        }
    }

    /// BidBrain's view of a held, launched spot allocation at `now`:
    /// billed at the price its current hour was charged, with the rest
    /// of that hour to run.
    pub fn held(a: &SpotAllocation, now: SimTime) -> Self {
        AllocView {
            market: a.market,
            count: a.count,
            hourly_price: a.hour_price,
            bid_delta: Some((a.bid - a.hour_price).max(0.0001)),
            time_remaining: a.time_to_hour_end(now),
            work_rate: f64::from(a.market.instance_type().vcpus),
        }
    }
}

/// Evaluation of a footprint: Eqs. 1–4 combined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FootprintEval {
    /// Expected cost `C_A` in dollars (Eq. 1 summed).
    pub expected_cost: f64,
    /// Expected work `W_A` in core-hours (Eq. 3).
    pub expected_work: f64,
}

impl FootprintEval {
    /// Expected cost per unit work `E_A = C_A / W_A` (Eq. 4); infinite
    /// when the footprint produces no work.
    pub fn cost_per_work(&self) -> f64 {
        if self.expected_work <= 0.0 {
            f64::INFINITY
        } else {
            self.expected_cost / self.expected_work
        }
    }
}

/// An acquisition decision: buy `count` instances in `market` at `bid`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationRequest {
    /// Target market.
    pub market: MarketKey,
    /// Instances to request.
    pub count: u32,
    /// Absolute bid price per instance-hour.
    pub bid: f64,
    /// The delta over the market price the bid encodes.
    pub delta: f64,
}

/// A spot holding whose billing hour is about to end: renew or release.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expiring {
    /// The allocation in question.
    id: AllocationId,
    /// Its market.
    market: MarketKey,
    /// Instance count.
    count: u32,
    /// Its immutable bid per instance-hour.
    bid: f64,
    /// The market price now — what the next hour would be billed at.
    renew_price: f64,
    /// Time left in the current billing hour.
    time_remaining: SimDuration,
}

impl Expiring {
    /// `a` up for renewal at `renew_price()`, if its billing hour ends
    /// within one [`DECISION_STEP`](crate::DECISION_STEP) of `now` — the
    /// last decision before the next hour is charged. A warned holding
    /// is leaving anyway and a booting one has no hour open yet, so
    /// neither is due. Only a due holding reads its price.
    fn due(
        a: &SpotAllocation,
        now: SimTime,
        renew_price: impl FnOnce() -> f64,
    ) -> Option<Expiring> {
        let time_remaining = a.time_to_hour_end(now);
        (time_remaining <= crate::DECISION_STEP && !a.is_warned() && !a.is_booting()).then(|| {
            Expiring {
                id: a.id,
                market: a.market,
                count: a.count,
                bid: a.bid,
                renew_price: renew_price(),
                time_remaining,
            }
        })
    }
}

/// Tuning knobs for the decision policy.
#[derive(Debug, Clone, PartialEq)]
pub struct BidBrainConfig {
    /// Total vCPU budget BidBrain provisions toward.
    pub target_cores: u32,
    /// Maximum instances per single allocation request.
    pub max_alloc_instances: u32,
    /// Candidate bid deltas to sweep at each decision point.
    pub bid_deltas: Vec<f64>,
    /// Required relative improvement in cost-per-work before acting
    /// (hysteresis against churning on noise).
    pub min_improvement: f64,
}

impl Default for BidBrainConfig {
    fn default() -> Self {
        BidBrainConfig {
            target_cores: 256,
            max_alloc_instances: 64,
            bid_deltas: crate::beta::BetaEstimator::default_deltas(),
            min_improvement: 0.02,
        }
    }
}

/// One allocation's share of Eqs. 1–3 that depends on nothing but the
/// allocation itself.
#[derive(Debug, Clone, Copy)]
struct Term {
    /// `1 − β`.
    survive: f64,
    /// Its Eq. 1 summand.
    cost: f64,
    /// `ω`: expected useful hours.
    omega: f64,
    /// Instance count `k`.
    count: f64,
    /// Work per instance-hour `ν`.
    work_rate: f64,
    /// `k ·` vCPUs.
    cores: f64,
}

/// Candidates one pass of [`BidBrain::lanes`] scores: a market's
/// bid-delta row is swept in chunks of this many.
const LANES: usize = 16;

/// [`Bound`]'s slack on the gate: `1 + 2⁻⁴⁰`, exact in binary and far
/// above the `(1 − 2⁻⁵³)⁻²` that two roundings need.
const PRUNE_K: f64 = 1.0 + 1.0 / (1u64 << 40) as f64;

/// A standing footprint's [`Term`]s with their running survival
/// product, cost sum and core sum, and λ and σ in hours: everything in
/// Eqs. 1–3 that one more allocation cannot change.
#[derive(Debug, Clone, Default)]
pub(crate) struct Terms {
    each: Vec<Term>,
    survive: f64,
    cost: f64,
    cores: f64,
    lambda: f64,
    sigma: f64,
}

/// What every candidate of one market shares: its count, price, hours
/// and ν.
#[derive(Debug, Clone, Copy)]
struct Fresh {
    price: f64,
    count: f64,
    work_rate: f64,
    hours: f64,
}

impl Fresh {
    /// One lane's own share of Eqs. 1–2 beside `terms`, at eviction
    /// inputs `beta` and `tte`: the group's eviction probability, the
    /// combined Eq. 1 cost and the candidate's ω. [`BidBrain::lanes`]
    /// and [`Bound::cannot_pass`] both run it, so they agree bit for
    /// bit.
    #[inline(always)]
    fn lane(&self, terms: &Terms, beta: f64, tte: f64) -> (f64, f64, f64) {
        let survive = 1.0 - beta;
        // Group eviction probability: 1 − Π(1 − βj).
        let p_any_eviction = 1.0 - terms.survive * survive;
        // Eq. 1: evicted hours are refunded.
        let cost = terms.cost + survive * self.price * self.count * self.hours;
        let omega = survive * self.hours + beta * tte;
        (p_any_eviction, cost, omega)
    }
}

/// Eq. 2 and 3's work of one allocation of `count` instances at `ν =
/// work_rate`: `k·Δt·ν` with `Δt = ω − P(any eviction)·λ − σ`, clamped
/// at zero.
#[inline(always)]
fn work(
    count: f64,
    omega: f64,
    work_rate: f64,
    p_any_eviction: f64,
    (lambda, sigma): (f64, f64),
) -> f64 {
    let dt = omega - p_any_eviction * lambda - sigma;
    count * dt.max(0.0) * work_rate
}

/// A lower bound on every sweep lane's Eq. 4 score, against which a δ
/// chunk whose lanes all score at or above the gate is skipped unscored.
/// One per decision: `bar = fl(gate·K)` with `K` = [`PRUNE_K`], and
/// `held`, the held terms' Eq. 2–3 work folded at the incumbent's own
/// eviction probability `p₀ = 1 − S`, with σ, in footprint order.
///
/// **Held work from above.** With `S ≥ 0`, `p = 1 − S·(1 − β)` is
/// non-decreasing in β under IEEE rounding, so a lane with `β ≥ 0` has
/// `p_l ≥ p₀`. Each step of a held term's work — `p·λ` (λ ≥ 0), `ω − ·`,
/// `− σ`, `max(·, 0)` (which maps NaN to zero, the least value), `k·` and
/// `·ν` (k ≥ 0, ν finite and ≥ 0) — is monotone under round-to-nearest,
/// so each term's work at `p₀` is at least its work at `p_l`, and so is
/// `held`, folded in the same order, at least the lane's held sum `H_l`.
/// `p₀` is finite, so `p₀·λ` is never the NaN that `max` would clamp.
///
/// **The candidate exactly.** A lane's cost, `p_l` and candidate work
/// `C_l` run [`Fresh::lane`] and [`work`], `lanes`' own steps, so they
/// are its bits. Then `w_l = fl(held + C_l) ≥ fl(H_l + C_l) = s_l` and
/// `U_l = fl(w_l·φ) ≥ fl(s_l·φ) = W_l`, the lane's Eq. 3 work.
///
/// **The gate without dividing.** If `w_l ≤ 0` then `W_l ≤ 0` and the
/// lane scores +∞. Otherwise the test is `cost_l ≥ t` with `t =
/// fl(bar·U_l)` normal and `cost_l` finite. Each of the two roundings
/// (`bar`'s and `t`'s) loses at most a factor `1 − 2⁻⁵³` in the normal
/// range and `K·(1 − 2⁻⁵³)² > 1`, so `cost_l ≥ t ≥ gate·U_l ≥ gate·W_l`
/// as real numbers. Then `cost_l / W_l ≥ gate` exactly, and rounding the
/// quotient cannot take it below the representable `gate`: the lane's
/// score is finite and at least the gate. `U_l` rounds the product
/// `W_l` rounds, from a larger operand, so it needs no slack, and no
/// floor against subnormals either, which a `fl(gate·φ·K)·w_l` form
/// would. A NaN anywhere fails a comparison and means "might pass".
///
/// Folding at the row's least β instead of at β = 0 is tighter, but
/// costs a fold per market: at seed 555 of `cost_study` it skipped 92.0 %
/// of the market passes where this skips 90.6 %.
#[derive(Debug, Clone, Copy)]
struct Bound {
    bar: f64,
    held: f64,
}

impl Bound {
    /// The bound of a decision whose footprint is `terms`, or `None`
    /// where the argument does not hold: an incumbent that is not finite
    /// (then anything passes), a `gate·K` outside the positive normal
    /// range, a survival product outside `[0, ∞)`, or a held ν that is.
    fn new(terms: &Terms, current_score: f64, gate: f64) -> Option<Bound> {
        let bar = gate * PRUNE_K;
        let sound = current_score.is_finite()
            && (f64::MIN_POSITIVE..f64::INFINITY).contains(&bar)
            && (0.0..f64::INFINITY).contains(&terms.survive)
            && terms
                .each
                .iter()
                .all(|t| (0.0..f64::INFINITY).contains(&t.work_rate));
        if !sound {
            return None;
        }
        let p0 = 1.0 - terms.survive;
        let mut held = 0.0;
        for t in &terms.each {
            held += work(
                t.count,
                t.omega,
                t.work_rate,
                p0,
                (terms.lambda, terms.sigma),
            );
        }
        Some(Bound { bar, held })
    }

    /// Whether no lane of `rows` can pass the gate: each `(β, tte)` as a
    /// candidate of `fresh` at φ `phi`, as [`BidBrain::lanes`] scores it
    /// with `changing` beside `terms`, the footprint the bound was made
    /// for. Stops at the first lane that might pass.
    fn cannot_pass(&self, terms: &Terms, fresh: &Fresh, rows: &[(f64, f64)], phi: f64) -> bool {
        phi > 0.0
            && rows.iter().all(|&(beta, tte)| {
                let (p, cost, omega) = fresh.lane(terms, beta, tte);
                let overheads = (terms.lambda, terms.sigma);
                let w = self.held + work(fresh.count, omega, fresh.work_rate, p, overheads);
                let t = self.bar * (w * phi);
                beta >= 0.0
                    && (w <= 0.0 || (t >= f64::MIN_POSITIVE && cost >= t && cost < f64::INFINITY))
            })
    }
}

/// `N` candidate allocations that differ only in their eviction inputs:
/// one [`Fresh`] holding, with each lane's `β` and time to eviction in
/// hours (already capped at `hours`).
#[derive(Debug, Clone, Copy)]
struct Candidates<const N: usize> {
    beta: [f64; N],
    tte: [f64; N],
    fresh: Fresh,
}

impl Candidates<1> {
    /// A candidate that adds nothing: no eviction, no instances, no
    /// work and no time. Its lane is the footprint alone, bit for bit:
    /// `× (1 − 0)` and `+ 0` change no bits of a survival product or of
    /// a sum that starts at `+0.0` (such a sum is never `-0.0`).
    const NONE: Candidates<1> = Candidates {
        beta: [0.0],
        tte: [0.0],
        fresh: Fresh {
            price: 0.0,
            count: 0.0,
            work_rate: 0.0,
            hours: 0.0,
        },
    };
}

/// [`BidBrain::lanes`]' result: lane `l`'s Eq. 1 cost and Eq. 3 work.
#[derive(Debug, Clone, Copy)]
struct Scored<const N: usize> {
    cost: [f64; N],
    work: [f64; N],
}

impl<const N: usize> Scored<N> {
    fn eval(&self, l: usize) -> FootprintEval {
        FootprintEval {
            expected_cost: self.cost[l],
            expected_work: self.work[l],
        }
    }
}

/// What one ranking produces, per market with a candidate past the
/// gate: its score, the request and the evaluation behind the score.
pub(crate) type Ranked = (f64, AllocationRequest, FootprintEval);

/// Buffers a decision step fills and the next one reuses, so a step
/// that keeps its shape allocates nothing: the footprint, its terms,
/// the admitted prices and the ranked candidates.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    pub(crate) footprint: Vec<AllocView>,
    pub(crate) terms: Terms,
    pub(crate) admitted: Vec<(MarketKey, f64)>,
    pub(crate) ranked: Vec<Ranked>,
}

/// The allocation policy engine.
///
/// The β estimator is held as a [`Cow`](std::borrow::Cow): pass a
/// `&BetaEstimator` to share one trained estimator across many engines
/// (a cost study runs thousands of jobs against the same training
/// window) or an owned estimator for a self-contained engine.
#[derive(Debug, Clone)]
pub struct BidBrain<'a> {
    params: AppParams,
    beta: std::borrow::Cow<'a, BetaEstimator>,
    config: BidBrainConfig,
    /// Eq. 3's φ of the core counts decisions last asked for.
    phis: PhiMemo,
    /// Whether `config.bid_deltas` is the grid `beta` was trained on, so
    /// a sweep reads each table's hour rows as they stand.
    on_grid: bool,
    /// [`acquire`](Self::acquire)'s buffers, kept from step to step.
    pub(crate) scratch: Scratch,
}

impl<'a> BidBrain<'a> {
    /// Creates a policy engine from application parameters, a trained β
    /// estimator (owned or borrowed), and tuning configuration.
    pub fn new(
        params: AppParams,
        beta: impl Into<std::borrow::Cow<'a, BetaEstimator>>,
        config: BidBrainConfig,
    ) -> Self {
        let beta = beta.into();
        BidBrain {
            phis: PhiMemo::new(params.phi_per_doubling),
            on_grid: beta.is_grid(&config.bid_deltas),
            params,
            beta,
            config,
            scratch: Scratch::default(),
        }
    }

    /// The application parameters in use.
    pub fn params(&self) -> &AppParams {
        &self.params
    }

    /// The configuration in use.
    pub fn config(&self) -> &BidBrainConfig {
        &self.config
    }

    /// Eq. 3's φ for a footprint of `cores` total cores: the bits of
    /// [`AppParams::phi`], computed only when the count was not among
    /// the last few asked for.
    #[inline]
    pub fn phi(&self, cores: f64) -> f64 {
        self.phis.get(cores)
    }

    /// `a`'s eviction inputs to Eqs. 1–2 — `β`, and the median time to
    /// eviction in hours capped at the time left — from `table`, `a`'s
    /// market's β table, resolved by the caller. On-demand never evicts.
    fn eviction(a: &AllocView, table: Option<&BetaTable>) -> (f64, f64) {
        match a.bid_delta {
            None => (0.0, a.time_remaining.as_hours_f64()),
            Some(delta) => {
                let (beta, tte) = BetaEstimator::point(table, delta);
                (beta, tte.min(a.time_remaining).as_hours_f64())
            }
        }
    }

    /// The part of Eqs. 1–3 that `a` contributes whatever else is held:
    /// `1 − β`, its Eq. 1 cost and `ω`, given its
    /// [`eviction`](Self::eviction) inputs.
    fn term(a: &AllocView, (beta, tte): (f64, f64)) -> Term {
        let tr = a.time_remaining.as_hours_f64();
        let count = f64::from(a.count);
        Term {
            survive: 1.0 - beta,
            // Eq. 1: evicted hours are refunded, so only the survival
            // branch costs money.
            cost: (1.0 - beta) * a.hourly_price * count * tr,
            // ωᵢ: expected useful time, shortened to the median eviction
            // time when eviction is the likely outcome.
            omega: (1.0 - beta) * tr + beta * tte,
            count,
            work_rate: a.work_rate,
            cores: count * f64::from(a.market.instance_type().vcpus),
        }
    }

    /// The candidate-independent half of an evaluation, written into
    /// `terms`: every allocation's [`Term`], folded in footprint order.
    fn fill_terms(&self, footprint: &[AllocView], terms: &mut Terms) {
        terms.each.clear();
        terms.survive = 1.0;
        terms.cost = 0.0;
        terms.cores = 0.0;
        terms.lambda = self.params.lambda.as_hours_f64();
        terms.sigma = self.params.sigma.as_hours_f64();
        for a in footprint {
            let t = Self::term(a, Self::eviction(a, self.beta.table(a.market)));
            terms.survive *= t.survive;
            terms.cost += t.cost;
            terms.cores += t.cores;
            terms.each.push(t);
        }
    }

    /// [`fill_terms`](Self::fill_terms) into a fresh [`Terms`].
    fn terms(&self, footprint: &[AllocView]) -> Terms {
        let mut terms = Terms::default();
        self.fill_terms(footprint, &mut terms);
        terms
    }

    /// Eqs. 1–3 of `terms` plus each candidate lane of `c`, every lane
    /// at once. Lane `l` is `footprint + [candidate l]` with the
    /// candidate folded in **last** — the order
    /// [`evaluate`](Self::evaluate) walks such a footprint — so every
    /// lane has exactly those bits: the lanes share the walk over the
    /// held terms, never an operation, and each runs one candidate
    /// [`term`](Self::term)'s own sequence. `phi` is Eq. 3's φ at the
    /// combined core count, the same in every lane. All `N` lanes are
    /// computed; a caller reads those it filled.
    fn lanes<const N: usize>(
        terms: &Terms,
        c: &Candidates<N>,
        phi: f64,
        changing: bool,
    ) -> Scored<N> {
        let mut p_any_eviction = [0.0; N];
        let mut cost = [0.0; N];
        let mut omega = [0.0; N];
        for l in 0..N {
            (p_any_eviction[l], cost[l], omega[l]) = c.fresh.lane(terms, c.beta[l], c.tte[l]);
        }
        // Eq. 2's σ only while changing (`x − 0.0` is `x`, bit for bit).
        let overheads = (terms.lambda, if changing { terms.sigma } else { 0.0 });
        let mut sum = [0.0; N];
        for t in &terms.each {
            for l in 0..N {
                sum[l] += work(t.count, t.omega, t.work_rate, p_any_eviction[l], overheads);
            }
        }
        let f = &c.fresh;
        for l in 0..N {
            sum[l] += work(f.count, omega[l], f.work_rate, p_any_eviction[l], overheads);
            // Eq. 3: scale by the application's scalability coefficient φ.
            sum[l] *= phi;
        }
        Scored { cost, work: sum }
    }

    /// Evaluates a footprint (Eqs. 1–3).
    ///
    /// `changing` applies the σ reconfiguration overhead to every
    /// allocation, per the paper: "when considering removing or adding
    /// resources, BidBrain subtracts this overhead σ from the expected
    /// compute time for each allocation".
    pub fn evaluate(&self, footprint: &[AllocView], changing: bool) -> FootprintEval {
        self.finish_as_held(&self.terms(footprint), changing)
    }

    /// [`lanes`](Self::lanes) of `terms` alone.
    fn finish_as_held(&self, terms: &Terms, changing: bool) -> FootprintEval {
        Self::lanes(terms, &Candidates::NONE, self.phi(terms.cores), changing).eval(0)
    }

    /// Total vCPUs in a footprint.
    pub fn footprint_cores(footprint: &[AllocView]) -> u32 {
        footprint
            .iter()
            .map(|a| a.count * a.market.instance_type().vcpus)
            .sum()
    }

    /// Considers acquiring one new allocation (paper Sec. 4.2): sweeps
    /// `(instance type, bid delta)` candidates and returns the best
    /// request if it lowers expected cost-per-work by at least the
    /// configured hysteresis margin, with the evaluation behind its
    /// score — the bits of [`evaluate`](Self::evaluate) of `footprint`
    /// plus the request held for an hour, changing.
    ///
    /// `markets` supplies each candidate market's *current* spot price.
    pub fn consider_acquisition(
        &self,
        footprint: &[AllocView],
        markets: &[(MarketKey, f64)],
        now: SimTime,
    ) -> Option<(AllocationRequest, FootprintEval)> {
        let (mut terms, mut ranked) = (Terms::default(), Vec::new());
        self.rank(footprint, markets, now, None, &mut terms, &mut ranked);
        ranked.into_iter().next().map(|(_, req, eval)| (req, eval))
    }

    /// Every acquisition that would improve the objective by the
    /// configured margin, best first — at most one candidate (the best
    /// bid delta) per market.
    ///
    /// The head of the list is exactly what [`consider_acquisition`]
    /// returns; the tail ranks the fallback markets a resilient caller
    /// walks when the best market refuses the request (capacity
    /// droughts), so a refusal never strands the driver with no plan.
    ///
    /// [`consider_acquisition`]: BidBrain::consider_acquisition
    pub fn ranked_acquisitions(
        &self,
        footprint: &[AllocView],
        markets: &[(MarketKey, f64)],
        now: SimTime,
    ) -> Vec<AllocationRequest> {
        self.ranked_acquisitions_obs(footprint, markets, now, None)
    }

    /// [`ranked_acquisitions`](BidBrain::ranked_acquisitions) with an
    /// optional recorder: each post-gate candidate is logged with the
    /// Eq. 4 terms (expected cost, expected work) that produced its
    /// score, stamped `now` — the "what did BidBrain decide and why"
    /// trail. Recording never changes the ranking.
    pub fn ranked_acquisitions_obs(
        &self,
        footprint: &[AllocView],
        markets: &[(MarketKey, f64)],
        now: SimTime,
        obs: Option<&Recorder>,
    ) -> Vec<AllocationRequest> {
        let (mut terms, mut ranked) = (Terms::default(), Vec::new());
        self.rank(footprint, markets, now, obs, &mut terms, &mut ranked);
        ranked.into_iter().map(|(_, req, _)| req).collect()
    }

    /// [`ranked_acquisitions_obs`](Self::ranked_acquisitions_obs) into
    /// `ranked`, with the footprint's terms built in `terms`: both are
    /// overwritten, so buffers kept across decisions allocate nothing
    /// once grown.
    pub(crate) fn rank(
        &self,
        footprint: &[AllocView],
        markets: &[(MarketKey, f64)],
        now: SimTime,
        obs: Option<&Recorder>,
        terms: &mut Terms,
        ranked: &mut Vec<Ranked>,
    ) {
        ranked.clear();
        let current_cores = Self::footprint_cores(footprint);
        if current_cores >= self.config.target_cores {
            return;
        }
        // Terms once per decision, β table and φ once per market (the
        // candidate's count, hence the combined core count, does not
        // depend on δ); per market, one lane pass per chunk of its δ row.
        self.fill_terms(footprint, terms);
        let current_score = self.finish_as_held(terms, false).cost_per_work();
        // The improvement gate (anything beats a footprint that does no
        // work) is monotone in the score, so filtering per market's best
        // is equivalent to gating only the global best.
        let gate = current_score * (1.0 - self.config.min_improvement);
        let bound = Bound::new(terms, current_score, gate);

        let mut scratch = [(0.0, 0.0); LANES];
        // φ of the last market's combined core count: markets of one
        // instance type at one count share it, with no memo scan.
        let mut phi_at = (f64::NAN, f64::NAN);
        for &(market, price) in markets {
            let vcpus = market.instance_type().vcpus;
            let headroom = (self.config.target_cores - current_cores) / vcpus;
            let count = headroom.min(self.config.max_alloc_instances);
            if count == 0 {
                continue;
            }
            let table = self.beta.table(market);
            let cores = terms.cores + f64::from(count) * f64::from(vcpus);
            if cores != phi_at.0 {
                phi_at = (cores, self.phi(cores));
            }
            // A fresh hour-long holding at each δ of the row.
            let mut candidates = Candidates {
                beta: [0.0; LANES],
                tte: [0.0; LANES],
                fresh: Fresh {
                    price,
                    count: f64::from(count),
                    work_rate: f64::from(vcpus),
                    hours: HOUR.as_hours_f64(),
                },
            };
            let mut best: Option<Ranked> = None;
            for (chunk, deltas) in self.config.bid_deltas.chunks(LANES).enumerate() {
                // The `eviction` inputs of the row, resolved once per table.
                let grid_at = self.on_grid.then_some(chunk * LANES);
                let rows = BetaEstimator::sweep_rows(table, grid_at, deltas, &mut scratch);
                if bound.is_some_and(|b| b.cannot_pass(terms, &candidates.fresh, rows, phi_at.1)) {
                    // Every lane scores at or above the gate, none NaN. A
                    // later lane below the gate replaces this +∞ as it
                    // would have replaced them, one at or above it goes
                    // unranked either way, and the gate drops +∞.
                    let stand_in = FootprintEval {
                        expected_cost: f64::INFINITY,
                        expected_work: 0.0,
                    };
                    let req = AllocationRequest {
                        market,
                        count,
                        bid: price + deltas[0],
                        delta: deltas[0],
                    };
                    best.get_or_insert((f64::INFINITY, req, stand_in));
                    continue;
                }
                for (l, &(beta, tte)) in rows.iter().enumerate() {
                    candidates.beta[l] = beta;
                    candidates.tte[l] = tte;
                }
                let scored = Self::lanes(terms, &candidates, phi_at.1, true);
                for (l, &delta) in deltas.iter().enumerate() {
                    let eval = scored.eval(l);
                    let score = eval.cost_per_work();
                    if best.as_ref().is_none_or(|(b, _, _)| score < *b) {
                        let bid = price + delta;
                        let req = AllocationRequest {
                            market,
                            count,
                            bid,
                            delta,
                        };
                        best = Some((score, req, eval));
                    }
                }
            }
            ranked
                .extend(best.filter(|(score, _, _)| current_score.is_infinite() || *score < gate));
        }
        // Stable sort: equal scores keep market order, matching the
        // strict-< first-wins tie-break of the single-result sweep.
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        if let Some(rec) = obs {
            rec.record(
                now,
                Event::Bid(BidEvent::Evaluated {
                    markets: markets.len() as u64,
                    candidates: ranked.len() as u64,
                    current_score,
                }),
            );
            for (rank, (score, req, eval)) in ranked.iter().enumerate() {
                rec.record(
                    now,
                    Event::Bid(BidEvent::CandidateRanked {
                        rank: rank as u64,
                        market: req.market.interned_name(),
                        count: u64::from(req.count),
                        bid: req.bid,
                        delta: req.delta,
                        score: *score,
                        expected_cost: eval.expected_cost,
                        expected_work: eval.expected_work,
                    }),
                );
            }
        }
    }

    /// Decides, just before an allocation's billing hour ends, whether to
    /// renew it (keep it into the next hour at `renew_price`) or
    /// terminate it (Sec. 4.2).
    ///
    /// `rest` is the footprint excluding the allocation in question.
    pub fn should_renew(&self, alloc: &AllocView, rest: &[AllocView], renew_price: f64) -> bool {
        let Some(delta) = alloc.bid_delta else {
            // On-demand resources are never terminated by BidBrain.
            return true;
        };
        // The holding renewed: a fresh hour at `renew_price`.
        let (beta, tte) = BetaEstimator::point(self.beta.table(alloc.market), delta);
        let renewed = Candidates {
            beta: [beta],
            tte: [tte.min(HOUR).as_hours_f64()],
            fresh: Fresh {
                price: renew_price,
                count: f64::from(alloc.count),
                work_rate: alloc.work_rate,
                hours: HOUR.as_hours_f64(),
            },
        };
        let terms = self.terms(rest);
        let cores = f64::from(alloc.count) * f64::from(alloc.market.instance_type().vcpus);
        let phi_with = self.phi(terms.cores + cores);
        let ea_with = Self::lanes(&terms, &renewed, phi_with, false)
            .eval(0)
            .cost_per_work();
        let ea_without = self.finish_as_held(&terms, true).cost_per_work();
        ea_with <= ea_without
    }

    /// The hour-end pass of a decision step: every launched spot
    /// allocation `provider` holds whose billing hour is due
    /// ([`DECISION_STEP`](crate::DECISION_STEP)), priced at the market
    /// now, decided against `tiers` plus the other holdings. Returns the
    /// ones to release, in id order; the caller releases them.
    pub fn release_due(
        &self,
        provider: &CloudProvider<'_>,
        tiers: &[AllocView],
    ) -> Vec<AllocationId> {
        let now = provider.now();
        let prices = provider.spot_prices();
        let expiring: Vec<Expiring> = provider
            .live_spot_slots()
            .filter_map(|(a, slot)| Expiring::due(a, now, || prices[slot].1))
            .collect();
        if expiring.is_empty() {
            return Vec::new();
        }
        self.renewals(holdings(provider, tiers), &expiring)
    }

    /// Decides every `expiring` holding in turn against the rest of
    /// `holdings` and returns the ones to release (not worth their next
    /// hour, or outbid by the market).
    ///
    /// `holdings` is the whole footprint, each view with the allocation
    /// it describes (`None` for on-demand tiers). "The rest" excludes a
    /// holding by id — two holdings of one market and size are still
    /// two holdings — and a released holding stays out for the
    /// decisions after it.
    fn renewals(
        &self,
        holdings: impl IntoIterator<Item = (Option<AllocationId>, AllocView)>,
        expiring: &[Expiring],
    ) -> Vec<AllocationId> {
        let (mut ids, mut rest): (Vec<_>, Vec<_>) = holdings.into_iter().unzip();
        let mut release = Vec::new();
        for e in expiring {
            let Some(at) = ids.iter().position(|id| *id == Some(e.id)) else {
                continue;
            };
            let held = rest.remove(at);
            let view = AllocView {
                market: e.market,
                count: e.count,
                hourly_price: e.renew_price,
                bid_delta: Some((e.bid - e.renew_price).max(0.0001)),
                time_remaining: e.time_remaining,
                work_rate: f64::from(e.market.instance_type().vcpus),
            };
            if self.should_renew(&view, &rest, e.renew_price) && e.renew_price <= e.bid {
                rest.insert(at, held);
            } else {
                ids.remove(at);
                release.push(e.id);
            }
        }
        release
    }
}

/// A decision step's footprint: the caller's on-demand `tiers`, then
/// every launched spot allocation `provider` holds (booting instances
/// are not billed and not computing until launch), each spot view with
/// its allocation's id.
pub(crate) fn holdings<'p>(
    provider: &'p CloudProvider<'_>,
    tiers: &'p [AllocView],
) -> impl Iterator<Item = (Option<AllocationId>, AllocView)> + 'p {
    let now = provider.now();
    let spot = provider
        .live_spot()
        .filter(|a| !a.is_booting())
        .map(move |a| (Some(a.id), AllocView::held(a, now)));
    tiers.iter().map(|view| (None, view.clone())).chain(spot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proteus_market::{
        catalog, MarketFaultPlan, MarketModel, PriceTrace, TraceGenerator, TraceSet, Zone,
    };
    use proteus_simtime::SimDuration;

    fn mk(type_index: usize) -> MarketKey {
        MarketKey::new(type_index, Zone(0))
    }

    /// A BidBrain with no overheads and perfect scaling, so Eq. 1–4
    /// arithmetic can be checked by hand.
    fn ideal() -> BidBrain<'static> {
        BidBrain::new(
            AppParams {
                phi_per_doubling: 1.0,
                sigma: SimDuration::ZERO,
                lambda: SimDuration::ZERO,
            },
            BetaEstimator::new(),
            BidBrainConfig {
                target_cores: 64,
                max_alloc_instances: 8,
                bid_deltas: vec![0.4],
                min_improvement: 0.0,
            },
        )
    }

    /// Reproduces the toy arithmetic of the paper's Fig. 6, phases 1–2
    /// (β = 0 because the estimator is untrained → on-demand β is zero
    /// and we pin spot β to zero by using delta-free on-demand views plus
    /// manual spot views with huge deltas… instead we use an ideal brain
    /// and β=0 via `bid_delta: None` + explicit prices).
    #[test]
    fn fig6_toy_cost_per_work() {
        let brain = ideal();
        // [0]: 1 on-demand c4.xlarge at $0.2, producing no work.
        let od = AllocView {
            market: mk(catalog::c4_xlarge()),
            count: 1,
            hourly_price: 0.2,
            bid_delta: None,
            time_remaining: SimDuration::from_hours(1),
            work_rate: 0.0,
        };
        // [1]: 2 m4.xlarge spot at $0.05 each, ν = 1 work/hour.
        let spot1 = AllocView {
            market: mk(catalog::find("m4.xlarge").unwrap()),
            count: 2,
            hourly_price: 0.05,
            bid_delta: None, // β pinned to 0 for hand arithmetic.
            time_remaining: SimDuration::from_hours(1),
            work_rate: 1.0,
        };
        // Phase 1: cost 0.2 + 2×0.05 = 0.3, work 2 → E = 0.15.
        let p1 = brain.evaluate(&[od.clone(), spot1.clone()], false);
        assert!((p1.expected_cost - 0.3).abs() < 1e-9);
        assert!((p1.expected_work - 2.0).abs() < 1e-9);
        assert!((p1.cost_per_work() - 0.15).abs() < 1e-9);

        // Phase 2 adds [2]: 2 c4.xlarge spot at $0.025 each → cost 0.35,
        // work 4 → E = 0.0875 — adding the allocation *lowers* E even
        // though it raises instantaneous cost (the Fig. 6 lesson).
        let spot2 = AllocView {
            market: mk(catalog::c4_xlarge()),
            count: 2,
            hourly_price: 0.025,
            bid_delta: None,
            time_remaining: SimDuration::from_hours(1),
            work_rate: 1.0,
        };
        let p2 = brain.evaluate(&[od, spot1, spot2], false);
        assert!((p2.expected_cost - 0.35).abs() < 1e-9);
        assert!((p2.expected_work - 4.0).abs() < 1e-9);
        assert!(p2.cost_per_work() < p1.cost_per_work());
    }

    #[test]
    fn eviction_probability_discounts_cost() {
        // Train a fake β table: delta 0.01 → β=0.5, tte=30 min.
        let mut beta = BetaEstimator::new();
        let market = mk(catalog::c4_xlarge());
        let table = crate::beta::BetaTable::new(vec![crate::beta::BetaPoint {
            delta: 0.01,
            beta: 0.5,
            median_tte: SimDuration::from_mins(30),
        }])
        .unwrap();
        // Inject via train path: easiest is to rebuild estimator.
        let _ = table;
        let trace = proteus_market::PriceTrace::from_points(vec![(SimTime::EPOCH, 0.05)])
            .expect("flat trace");
        beta.train(
            market,
            &trace,
            SimTime::EPOCH,
            SimTime::from_hours(10),
            SimDuration::from_mins(30),
            &[0.01],
        );
        // Constant trace: never evicted, β=0.
        assert_eq!(beta.beta(market, 0.01), 0.0);

        let brain = BidBrain::new(AppParams::default(), beta, BidBrainConfig::default());
        let spot = AllocView {
            market,
            count: 4,
            hourly_price: 0.05,
            bid_delta: Some(0.01),
            time_remaining: SimDuration::from_hours(1),
            work_rate: 4.0,
        };
        let eval = brain.evaluate(&[spot], false);
        // β=0 → full price expected.
        assert!((eval.expected_cost - 0.2).abs() < 1e-9);
    }

    #[test]
    fn acquisition_fills_toward_target_when_cheap() {
        let brain = ideal();
        let market = mk(catalog::c4_xlarge());
        let (req, _) = brain
            .consider_acquisition(&[], &[(market, 0.05)], SimTime::EPOCH)
            .expect("empty footprint produces no work, so anything helps");
        assert_eq!(req.market, market);
        assert!(req.count > 0);
        assert!((req.bid - 0.45).abs() < 1e-9);
    }

    #[test]
    fn acquisition_respects_core_target() {
        let brain = ideal(); // target_cores = 64.
        let market = mk(catalog::c4_2xlarge()); // 8 cores each.
        let full: Vec<AllocView> = vec![AllocView {
            market,
            count: 8, // 64 cores: at target.
            hourly_price: 0.05,
            bid_delta: Some(0.4),
            time_remaining: SimDuration::from_hours(1),
            work_rate: 8.0,
        }];
        assert!(brain
            .consider_acquisition(&full, &[(market, 0.01)], SimTime::EPOCH)
            .is_none());
    }

    #[test]
    fn expensive_markets_are_not_acquired() {
        // Current footprint works cheaply; candidate market is pricier
        // than on-demand — acquisition must be declined.
        let brain = ideal();
        let cheap = AllocView {
            market: mk(catalog::c4_xlarge()),
            count: 8,
            hourly_price: 0.04,
            bid_delta: Some(0.4),
            time_remaining: SimDuration::from_hours(1),
            work_rate: 4.0,
        };
        let pricey_market = mk(catalog::c4_2xlarge());
        let od_price = pricey_market.instance_type().on_demand_price;
        let req = brain.consider_acquisition(
            &[cheap],
            &[(pricey_market, od_price * 3.0)],
            SimTime::EPOCH,
        );
        assert!(
            req.is_none(),
            "3× on-demand spot price must be rejected: {req:?}"
        );
    }

    #[test]
    fn renewal_terminates_overpriced_allocations() {
        let brain = ideal();
        let market = mk(catalog::c4_xlarge());
        let keeper = AllocView {
            market,
            count: 8,
            hourly_price: 0.04,
            bid_delta: Some(0.4),
            time_remaining: SimDuration::from_hours(1),
            work_rate: 4.0,
        };
        let doomed = AllocView {
            market,
            count: 8,
            hourly_price: 0.04,
            bid_delta: Some(0.4),
            time_remaining: SimDuration::from_mins(2),
            work_rate: 4.0,
        };
        // Renewing at a cheap price is fine…
        assert!(brain.should_renew(&doomed, std::slice::from_ref(&keeper), 0.04));
        // …renewing at 20× is not.
        assert!(!brain.should_renew(&doomed, &[keeper], 0.80));
    }

    /// Two holdings of one market and one size are two holdings: "the
    /// rest" of the footprint loses the expiring one only. Matching on
    /// `(market, count)` dropped the sibling too, left a footprint
    /// that produces no work, and renewed at any price.
    #[test]
    fn renewal_pass_excludes_by_id_not_by_shape() {
        let brain = ideal();
        let market = mk(catalog::c4_xlarge());
        let held = AllocView {
            market,
            count: 8,
            hourly_price: 0.04,
            bid_delta: Some(0.4),
            time_remaining: SimDuration::from_mins(2),
            work_rate: 4.0,
        };
        let (doomed, sibling) = (AllocationId(1), AllocationId(2));
        let holdings = vec![
            (None, AllocView::on_demand(market, 3, 0.0)),
            (Some(doomed), held.clone()),
            (Some(sibling), held),
        ];
        let expiring = |id, renew_price| Expiring {
            id,
            market,
            count: 8,
            bid: 10.0,
            renew_price,
            time_remaining: SimDuration::from_mins(2),
        };
        // 150× the sibling's price: not worth the next hour while the
        // sibling still works at $0.04 — and the sibling, decided next
        // against a footprint that no longer holds the doomed one, is
        // all the work there is and stays.
        let release = brain.renewals(
            holdings.clone(),
            &[expiring(doomed, 6.0), expiring(sibling, 0.04)],
        );
        assert_eq!(release, [doomed]);
        // Outbid by the market: released whatever Eq. 4 says.
        let release = brain.renewals(holdings, &[expiring(sibling, 12.0)]);
        assert_eq!(release, [sibling]);
    }

    /// The hour-end pass reads the provider: of a two-market provider's
    /// four spot holdings — one due, one not yet due, one warned and one
    /// booting — only the due one is decided, priced at its market now,
    /// against the tiers and the launched holdings. That is `renewals`
    /// over the hand-built list.
    #[test]
    fn release_due_is_renewals_over_the_due_holdings() {
        let brain = ideal();
        let (a, b) = (
            mk(catalog::c4_xlarge()),
            MarketKey::new(catalog::c4_xlarge(), Zone(1)),
        );
        let mins = |m| SimTime::EPOCH + SimDuration::from_mins(m);
        let mut set = TraceSet::new();
        set.insert(
            a,
            PriceTrace::from_points(vec![(mins(0), 0.05)]).expect("flat"),
        );
        // `b` climbs past the warned holding's bid at 55 min.
        let climb = vec![(mins(0), 0.05), (mins(55), 0.08)];
        set.insert(b, PriceTrace::from_points(climb).expect("sorted"));
        let mut p = CloudProvider::with_warning_lead(set, SimDuration::from_mins(10));
        let due = p.request_spot(a, 2, 1.0).expect("grant").id;
        let warned = p.request_spot(b, 1, 0.06).expect("grant").id;
        p.advance_to(mins(30)).expect("forward");
        let later = p.request_spot(b, 2, 1.0).expect("grant").id;
        p.advance_to(mins(58)).expect("forward");
        let boot = SimDuration::from_mins(10);
        p.set_fault_plan(MarketFaultPlan::new(1).with_boot_delay(boot, boot));
        let booting = p.request_spot(a, 1, 1.0).expect("grant").id;
        p.advance_to(mins(59)).expect("forward");
        let live: Vec<_> = p
            .live_spot()
            .map(|h| (h.id, h.is_warned(), h.is_booting()))
            .collect();
        let want_live = [
            (due, false, false),
            (warned, true, false),
            (later, false, false),
            (booting, false, true),
        ];
        assert_eq!(live, want_live);

        let tiers = [AllocView::on_demand(a, 3, 0.0)];
        let now = p.now();
        let held = |id| AllocView::held(p.live_spot().find(|h| h.id == id).expect("live"), now);
        let holdings = vec![
            (None, tiers[0].clone()),
            (Some(due), held(due)),
            (Some(warned), held(warned)),
            (Some(later), held(later)),
        ];
        let expiring = Expiring {
            id: due,
            market: a,
            count: 2,
            bid: 1.0,
            renew_price: 0.05,
            time_remaining: SimDuration::from_mins(1),
        };
        let release = brain.release_due(&p, &tiers);
        assert_eq!(release, brain.renewals(holdings.clone(), &[expiring]));
        // Renewed at the market's $0.05 it is worth its next hour; at
        // its $1.00 bid it would not be.
        assert_eq!(release, []);
        let at_bid = Expiring {
            renew_price: 1.0,
            ..expiring
        };
        assert_eq!(brain.renewals(holdings, &[at_bid]), [due]);
    }

    /// Eq. 4 is the score, and a footprint that does no work scores
    /// worst.
    #[test]
    fn cost_per_work_scores_by_ratio() {
        let eval = |expected_cost, expected_work| FootprintEval {
            expected_cost,
            expected_work,
        };
        assert!(eval(1.0, 10.0).cost_per_work() < eval(1.0, 5.0).cost_per_work());
        assert!(eval(0.0, 0.0).cost_per_work().is_infinite());
    }

    /// A candidate is ranked only when it lowers cost-per-work by the
    /// configured margin, and anything beats a footprint that does no
    /// work.
    #[test]
    fn hysteresis_gates_acquisitions() {
        let market = mk(catalog::c4_xlarge());
        let with_margin = |min_improvement| {
            let config = BidBrainConfig {
                min_improvement,
                ..ideal().config().clone()
            };
            BidBrain::new(*ideal().params(), BetaEstimator::new(), config)
        };
        let held = AllocView::on_demand(market, 4, 4.0);
        let prices = [(market, 0.04)];
        let brain = with_margin(0.0);
        let best = brain.ranked_acquisitions(std::slice::from_ref(&held), &prices, SimTime::EPOCH);
        let best = best.first().expect("cheaper than on-demand");
        let candidate = AllocView {
            market,
            count: best.count,
            hourly_price: 0.04,
            bid_delta: Some(best.delta),
            time_remaining: SimDuration::from_hours(1),
            work_rate: 4.0,
        };
        let before = brain.evaluate(std::slice::from_ref(&held), false);
        let after = brain.evaluate(&[held.clone(), candidate], true);
        let gain = 1.0 - after.cost_per_work() / before.cost_per_work();
        assert!(gain > 0.0);
        for (margin, ranked) in [(gain * 0.99, true), (gain * 1.01, false)] {
            let got = with_margin(margin).ranked_acquisitions(
                std::slice::from_ref(&held),
                &prices,
                SimTime::EPOCH,
            );
            assert_eq!(!got.is_empty(), ranked, "margin {margin} of gain {gain}");
        }
        let idle = with_margin(1.0).ranked_acquisitions(&[], &prices, SimTime::EPOCH);
        assert!(!idle.is_empty(), "anything beats nothing");
    }

    #[test]
    fn on_demand_is_never_terminated() {
        let brain = ideal();
        let od = AllocView::on_demand(mk(catalog::c4_xlarge()), 3, 0.0);
        // Even at an absurd renewal price, on-demand stays (the paper:
        // BidBrain "does not consider terminating these resources even
        // if they negatively affect cost-per-work").
        assert!(brain.should_renew(&od, &[], 99.0));
    }

    #[test]
    fn sigma_penalizes_churn() {
        let params = AppParams {
            phi_per_doubling: 1.0,
            sigma: SimDuration::from_mins(30),
            lambda: SimDuration::ZERO,
        };
        let brain = BidBrain::new(params, BetaEstimator::new(), BidBrainConfig::default());
        let spot = AllocView {
            market: mk(catalog::c4_xlarge()),
            count: 4,
            hourly_price: 0.05,
            bid_delta: None,
            time_remaining: SimDuration::from_hours(1),
            work_rate: 4.0,
        };
        let steady = brain.evaluate(std::slice::from_ref(&spot), false);
        let changing = brain.evaluate(std::slice::from_ref(&spot), true);
        assert!(
            changing.expected_work < steady.expected_work,
            "σ must reduce expected work during reconfiguration"
        );
        // Half an hour of a one-hour window.
        assert!((changing.expected_work - steady.expected_work * 0.5).abs() < 1e-9);
    }

    #[test]
    fn phi_penalizes_large_footprints() {
        let params = AppParams {
            phi_per_doubling: 0.9,
            sigma: SimDuration::ZERO,
            lambda: SimDuration::ZERO,
        };
        let brain = BidBrain::new(params, BetaEstimator::new(), BidBrainConfig::default());
        let unit = |count: u32| AllocView {
            market: mk(catalog::c4_xlarge()),
            count,
            hourly_price: 0.05,
            bid_delta: None,
            time_remaining: SimDuration::from_hours(1),
            work_rate: 4.0,
        };
        let small = brain.evaluate(&[unit(2)], false);
        let large = brain.evaluate(&[unit(8)], false);
        // 4× the instances yields < 4× the work.
        assert!(large.expected_work < small.expected_work * 4.0);
        assert!(large.expected_work > small.expected_work * 2.0);
    }

    /// β trained for the first two paper markets, each on its own grid;
    /// the third stays untrained.
    fn trained_on(grids: [&[f64]; 2]) -> (BetaEstimator, [MarketKey; 3]) {
        let markets = catalog::paper_markets();
        let markets = [markets[0], markets[1], markets[2]];
        let horizon = SimDuration::from_hours(24 * 4);
        let traces =
            TraceGenerator::new(31, MarketModel::volatile()).generate_set(&markets, horizon);
        let mut est = BetaEstimator::new();
        for (m, grid) in markets.iter().zip(grids) {
            let trace = traces.get(m).expect("generated");
            let end = SimTime::EPOCH + horizon;
            est.train(
                *m,
                trace,
                SimTime::EPOCH,
                end,
                SimDuration::from_mins(30),
                grid,
            );
        }
        (est, markets)
    }

    /// A sweep over the δ grid β was trained on lends each table's rows
    /// as they stand, and they are the walk's bits, in every chunk of a
    /// grid wider than one. A reordered, a duplicated, an off-grid and a
    /// partial list, and any list once two tables disagree on their
    /// grid, take the walk; an untrained market reads the defaults.
    #[test]
    fn grid_rows_are_the_walk() {
        let bits = |rows: &[(f64, f64)]| -> Vec<(u64, u64)> {
            rows.iter()
                .map(|(b, t)| (b.to_bits(), t.to_bits()))
                .collect()
        };
        let default = BetaEstimator::default_deltas();
        let wide: Vec<f64> = (1..=40).map(|i| f64::from(i) * 0.005).collect();
        let mut reordered = default.clone();
        reordered.swap(2, 5);
        let mut duplicated = default.clone();
        duplicated.insert(4, default[4]);
        let mut off_grid = default.clone();
        off_grid[3] = 0.03;
        let (on_default, on_wide) = ([&default[..]; 2], [&wide[..]; 2]);
        let cases = [
            (trained_on(on_default), default.clone(), true),
            (trained_on(on_wide), wide.clone(), true),
            (trained_on(on_default), reordered, false),
            (trained_on(on_default), duplicated, false),
            (trained_on(on_default), off_grid, false),
            (trained_on(on_wide), wide[..20].to_vec(), false),
            (trained_on([&default, &wide]), default.clone(), false),
            (trained_on([&default, &wide]), wide.clone(), false),
        ];
        for ((est, markets), deltas, on_grid) in cases {
            let config = BidBrainConfig {
                bid_deltas: deltas.clone(),
                ..BidBrainConfig::default()
            };
            let brain = BidBrain::new(AppParams::default(), &est, config);
            assert_eq!(brain.on_grid, on_grid, "{deltas:?}");
            for market in markets {
                let table = est.table(market);
                for (chunk, ds) in deltas.chunks(LANES).enumerate() {
                    let mut scratch = [(f64::NAN, f64::NAN); LANES];
                    let grid_at = brain.on_grid.then_some(chunk * LANES);
                    let got = bits(BetaEstimator::sweep_rows(table, grid_at, ds, &mut scratch));
                    let mut want = [(f64::NAN, f64::NAN); LANES];
                    BetaEstimator::hour_rows(table, ds, &mut want);
                    assert_eq!(got, bits(&want[..ds.len()]), "{market} chunk {chunk}");
                }
            }
        }
    }

    /// A number in `[0, 1]`, both ends included, from 16 bits of `raw`
    /// at `shift`.
    fn unit(raw: u64, shift: u32) -> f64 {
        ((raw >> shift) & 0xFFFF) as f64 / 65_535.0
    }

    /// Held terms, one per raw draw, each a [`BidBrain::term`] folded in
    /// order as `fill_terms` folds them: β zero or inside `[0, 1]`, the
    /// whole hour left or part of it, ν zero or not.
    fn held_terms(held: &[u64], lambda: f64, sigma: f64) -> Terms {
        let mut terms = Terms {
            survive: 1.0,
            lambda,
            sigma,
            ..Terms::default()
        };
        for &raw in held {
            let beta = if raw & 1 == 0 { 0.0 } else { unit(raw, 1) };
            let hours = if (raw >> 17) & 1 == 0 {
                1.0
            } else {
                unit(raw, 18)
            };
            let view = AllocView {
                market: mk(catalog::c4_xlarge()),
                count: 1 + (raw >> 34) as u32 % 63,
                hourly_price: 0.01 + unit(raw, 42) * 0.99,
                bid_delta: Some(0.01),
                time_remaining: SimDuration::from_millis((hours * 3_600_000.0) as u64),
                work_rate: [0.0, 4.0, 8.0][(raw >> 40) as usize % 3],
            };
            let tte = hours * ((raw >> 58) as f64 / 63.0);
            let t = BidBrain::term(&view, (beta, tte));
            terms.survive *= t.survive;
            terms.cost += t.cost;
            terms.cores += t.cores;
            terms.each.push(t);
        }
        terms
    }

    /// A sweep lane's eviction inputs from one raw draw: β at both ends,
    /// inside, and now and then NaN or below zero; time to eviction zero,
    /// the whole hour, or inside it.
    fn lane_inputs(raw: u64) -> (f64, f64) {
        let beta = match raw % 13 {
            0..=2 => 0.0,
            3 | 4 => 1.0,
            5 => f64::NAN,
            6 => -unit(raw, 4),
            _ => unit(raw, 4),
        };
        let tte = match (raw >> 20) % 3 {
            0 => 0.0,
            1 => 1.0,
            _ => unit(raw, 24),
        };
        (beta, tte)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The bound skips a row only if every lane `lanes` scores is at
        /// or above the gate: with the gate on a lane's own score and one
        /// and two ULPs either side, over held footprints, rows of 1–16
        /// lanes, λ and σ up to hours, and now and then a NaN price or φ.
        #[test]
        fn the_bound_skips_only_rows_no_lane_of_which_passes(
            held in vec(any::<u64>(), 0..6),
            lanes in vec(any::<u64>(), 1..LANES + 1),
            knobs in (any::<u64>(), any::<u64>()),
        ) {
            let (c, g) = knobs;
            let hours = [0.0, 0.025, 1.0 / 120.0, 0.5, 3.0];
            let terms = held_terms(&held, hours[(g % 5) as usize], hours[(g >> 3) as usize % 5]);
            let fresh = Fresh {
                price: if c % 21 == 0 { f64::NAN } else { 0.001 + unit(c, 1) * 2.0 },
                count: f64::from(1 + (c >> 17) as u32 % 63),
                work_rate: [2.0, 4.0, 8.0, 36.0][(c >> 23) as usize % 4],
                hours: 1.0,
            };
            let phi = if (c >> 25) % 21 == 0 { f64::NAN } else { 0.3 + 0.7 * unit(c, 30) };
            let row: Vec<(f64, f64)> = lanes.into_iter().map(lane_inputs).collect();
            let mut candidates = Candidates { beta: [0.0; LANES], tte: [0.0; LANES], fresh };
            for (l, &(beta, tte)) in row.iter().enumerate() {
                candidates.beta[l] = beta;
                candidates.tte[l] = tte;
            }
            let scored = BidBrain::lanes(&terms, &candidates, phi, true);
            let scores: Vec<f64> = (0..row.len()).map(|l| scored.eval(l).cost_per_work()).collect();
            let mut gate = scores[(g >> 6) as usize % row.len()];
            if !(gate.is_finite() && gate > 0.0) {
                gate = 0.05;
            }
            let ulps = (g >> 12) % 5;
            for _ in 0..ulps.abs_diff(2) {
                gate = if ulps > 2 { gate.next_up() } else { gate.next_down() };
            }
            let skips = Bound::new(&terms, gate, gate)
                .is_some_and(|b| b.cannot_pass(&terms, &fresh, &row, phi));
            if skips {
                for (l, score) in scores.iter().enumerate() {
                    prop_assert!(*score >= gate, "lane {l}: {score} below the gate {gate}");
                }
            }
        }
    }

    /// The bound is not vacuous: a row priced far above the gate is
    /// skipped, one priced at it is not, and nothing is skipped against a
    /// footprint that does no work or a gate of zero.
    #[test]
    fn the_bound_skips_a_row_priced_far_above_the_gate() {
        // One on-hour instance at $0.01 that works at ν = 4, β = 0.
        let terms = held_terms(&[1 << 40], 0.025, 1.0 / 120.0);
        let current = BidBrain::lanes(&terms, &Candidates::NONE, 1.0, false)
            .eval(0)
            .cost_per_work();
        let gate = current * 0.98;
        let row = [(0.0, 0.0), (0.2, 0.5), (0.9, 0.1)];
        let at = |price| Fresh {
            price,
            count: 8.0,
            work_rate: 4.0,
            hours: 1.0,
        };
        let bound = Bound::new(&terms, current, gate).expect("a finite incumbent");
        assert!(bound.cannot_pass(&terms, &at(1.0), &row, 0.9));
        assert!(!bound.cannot_pass(&terms, &at(0.001), &row, 0.9));
        assert!(Bound::new(&terms, f64::INFINITY, gate).is_none());
        assert!(Bound::new(&terms, current, 0.0).is_none());
    }
}
