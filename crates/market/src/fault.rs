//! Seed-deterministic provider-side fault regimes.
//!
//! The paper's Sec. 2.2 market semantics imply more than price motion:
//! requests can go unfulfilled (capacity is *why* prices move), the
//! provider API itself throttles, granted instances take minutes to
//! boot, and freshly launched instances sometimes die. A
//! [`MarketFaultPlan`] scripts those behaviors onto a
//! [`CloudProvider`](crate::CloudProvider):
//!
//! * **capacity limits** ([`CapacityRule`]) — a per-market cap on live
//!   spot instances during a time window. Requests beyond the cap are
//!   refused with [`MarketError::InsufficientCapacity`](crate::MarketError)
//!   or partially granted;
//! * **throttling** ([`ThrottleRule`]) — spot requests fail with
//!   [`MarketError::RequestLimitExceeded`](crate::MarketError) with some
//!   probability, carrying a suggested retry delay;
//! * **boot delay** ([`BootDelayRule`]) — a grant at `t` becomes usable
//!   at `t + delay`; billing starts when the instances come up, and a
//!   price crossing during boot aborts the launch unbilled;
//! * **infant mortality** ([`InfantMortalityRule`]) — a launched
//!   allocation dies without warning shortly after boot (the current
//!   hour is refunded, like any provider-side revocation).
//!
//! # Determinism
//!
//! The plan owns one root SplitMix64 stream (the same generator simnet's
//! message `FaultPlan` uses) seeded from
//! `plan.seed`. The provider is single-threaded and requests arrive in
//! program order, so the n-th spot request always consumes the same
//! draws: a chaos failure replays from the printed seed alone. Every
//! regime is off by default, and a provider with no plan installed
//! draws nothing — existing traces and benches are bit-identical.
//!
//! Multi-tenant callers (the fleet scheduler) tag requests with a
//! [`TenantId`]: each tenant draws from its own stream, seeded from
//! `(plan.seed, tenant)`, so one job's fault fate depends only on its
//! own request ordinal — never on how many requests *other* jobs made
//! first, or on the scheduler's interleaving. [`TenantId::DEFAULT`]
//! routes to the root stream, keeping every single-job caller
//! bit-identical to earlier builds.

use std::collections::BTreeMap;

use proteus_simtime::{SimDuration, SimTime};

use crate::instance::MarketKey;
use crate::tally::MarketTally;

/// Identifies one tenant (job) of a shared provider for fault draws.
///
/// The fleet scheduler maps each job onto a distinct tenant so fault
/// streams split per job id; everything else uses
/// [`TenantId::DEFAULT`], which draws from the plan's root stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u64);

impl TenantId {
    /// The root stream every non-fleet caller draws from.
    pub const DEFAULT: TenantId = TenantId(0);
}

/// SplitMix64 — tiny, seedable, and identical to the stream generator
/// used by simnet's message-fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A per-market cap on live spot instances during a time window.
///
/// While active, the provider grants at most `capacity` live spot
/// instances in the matching market(s): a request that fits is granted
/// in full, a request that partially fits is granted partially, and a
/// request arriving with zero headroom is refused.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityRule {
    /// Market the cap applies to (`None` = every market).
    pub market: Option<MarketKey>,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Maximum live spot instances in the market while active.
    pub capacity: u32,
}

impl CapacityRule {
    fn applies(&self, market: MarketKey, now: SimTime) -> bool {
        self.market.is_none_or(|m| m == market) && self.from <= now && now < self.until
    }
}

/// Transient API throttling: spot requests fail with
/// [`MarketError::RequestLimitExceeded`](crate::MarketError) with
/// probability `probability` while the (optional) window is active.
#[derive(Debug, Clone, PartialEq)]
pub struct ThrottleRule {
    /// Probability a spot request is rejected.
    pub probability: f64,
    /// Retry delay the error suggests to the caller.
    pub retry_after: SimDuration,
    /// Window start (`None` = from the epoch).
    pub from: Option<SimTime>,
    /// Window end (`None` = forever).
    pub until: Option<SimTime>,
}

impl ThrottleRule {
    fn active(&self, now: SimTime) -> bool {
        self.from.is_none_or(|f| f <= now) && self.until.is_none_or(|u| now < u)
    }
}

/// Delayed instance launch: a granted allocation becomes usable a
/// uniform draw in `[min, max]` after the grant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootDelayRule {
    /// Minimum boot delay.
    pub min: SimDuration,
    /// Maximum boot delay.
    pub max: SimDuration,
}

/// Launch-then-die: with probability `probability` a granted allocation
/// dies — warning-less, current hour refunded — a uniform draw in
/// `(0, max_lifetime]` after it becomes usable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InfantMortalityRule {
    /// Probability a grant is fated to die young.
    pub probability: f64,
    /// Upper bound on the doomed allocation's usable lifetime.
    pub max_lifetime: SimDuration,
}

/// A seeded catalogue of provider-side fault regimes for one run.
///
/// Every regime defaults to off; an empty plan behaves exactly like no
/// plan at all.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketFaultPlan {
    /// Root seed for every probabilistic draw; printed by chaos
    /// harnesses so failures replay.
    pub seed: u64,
    /// Capacity caps (all matching active rules apply; tightest wins).
    pub capacity: Vec<CapacityRule>,
    /// API throttling.
    pub throttle: Option<ThrottleRule>,
    /// Launch delay.
    pub boot: Option<BootDelayRule>,
    /// Launch-then-die failures.
    pub infant: Option<InfantMortalityRule>,
}

impl MarketFaultPlan {
    /// An empty plan (no market faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        MarketFaultPlan {
            seed,
            capacity: Vec::new(),
            throttle: None,
            boot: None,
            infant: None,
        }
    }

    /// Adds a capacity cap; builder style.
    pub fn with_capacity(mut self, rule: CapacityRule) -> Self {
        self.capacity.push(rule);
        self
    }

    /// Caps every market at `capacity` live spot instances during
    /// `[from, until)` — the capacity-drought scenario.
    pub fn with_drought(self, from: SimTime, until: SimTime, capacity: u32) -> Self {
        self.with_capacity(CapacityRule {
            market: None,
            from,
            until,
            capacity,
        })
    }

    /// Throttles spot requests with probability `p`, suggesting
    /// `retry_after` to the caller.
    pub fn with_throttle(mut self, p: f64, retry_after: SimDuration) -> Self {
        self.throttle = Some(ThrottleRule {
            probability: p,
            retry_after,
            from: None,
            until: None,
        });
        self
    }

    /// Delays every launch by a uniform draw in `[min, max]`.
    pub fn with_boot_delay(mut self, min: SimDuration, max: SimDuration) -> Self {
        self.boot = Some(BootDelayRule { min, max });
        self
    }

    /// Dooms each grant with probability `p` to die warning-less within
    /// `max_lifetime` of becoming usable.
    pub fn with_infant_mortality(mut self, p: f64, max_lifetime: SimDuration) -> Self {
        self.infant = Some(InfantMortalityRule {
            probability: p,
            max_lifetime,
        });
        self
    }

    /// The tightest capacity cap applying to `market` at `now`, if any.
    pub fn capacity_limit(&self, market: MarketKey, now: SimTime) -> Option<u32> {
        self.capacity
            .iter()
            .filter(|r| r.applies(market, now))
            .map(|r| r.capacity)
            .min()
    }
}

/// Fault-regime activity since a plan was installed, for reports and
/// assertions ([`CloudProvider::fault_stats`](crate::CloudProvider::fault_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarketFaultStats {
    /// Requests rejected by the throttle regime.
    pub throttled: u64,
    /// Requests refused outright for lack of capacity.
    pub capacity_refusals: u64,
    /// Requests granted below the asked count.
    pub partial_grants: u64,
    /// Grants whose launch was delayed.
    pub boot_delays: u64,
    /// Launches aborted by a price crossing during boot.
    pub launch_failures: u64,
    /// Allocations killed by the infant-mortality regime.
    pub infant_deaths: u64,
}

/// Live fault state a provider carries: the plan, its draw streams
/// (the root stream plus lazily-split per-tenant streams), and what its
/// activity is measured from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultState {
    pub(crate) plan: MarketFaultPlan,
    rng: SplitMix64,
    /// Per-tenant independent streams, keyed by tenant id and seeded
    /// from `(plan.seed, tenant)` on first use. [`TenantId::DEFAULT`]
    /// never lands here — it draws from the root `rng` above.
    tenant_rngs: BTreeMap<u64, SplitMix64>,
    /// Grants whose launch was delayed. The only fault counted here: no
    /// event marks a delay (the grant's `market.spot_granted` does not
    /// say whether it boots).
    boot_delays: u64,
    /// The provider's tally when this plan was installed: fault activity
    /// is what it has emitted since.
    installed_at: MarketTally,
}

/// Seeds a tenant's draw stream from the plan's root seed: one
/// SplitMix64 scramble of the combined word spreads adjacent tenant
/// ids across the full state space.
fn tenant_seed(root: u64, tenant: u64) -> u64 {
    SplitMix64::new(root ^ tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

impl FaultState {
    pub(crate) fn new(plan: MarketFaultPlan, installed_at: MarketTally) -> Self {
        let rng = SplitMix64::new(plan.seed);
        FaultState {
            plan,
            rng,
            tenant_rngs: BTreeMap::new(),
            boot_delays: 0,
            installed_at,
        }
    }

    /// Fault activity since installation, given the provider's tally
    /// `now`.
    pub(crate) fn stats_since(&self, now: &MarketTally) -> MarketFaultStats {
        let was = &self.installed_at;
        let since = |now: u32, was: u32| u64::from(now - was);
        MarketFaultStats {
            throttled: since(now.throttled, was.throttled),
            capacity_refusals: since(now.capacity_refusals, was.capacity_refusals),
            partial_grants: since(now.partial_grants, was.partial_grants),
            boot_delays: self.boot_delays,
            launch_failures: since(now.launch_failures, was.launch_failures),
            infant_deaths: since(now.infant_deaths, was.infant_deaths),
        }
    }

    /// The draw stream for `tenant`: the root stream for the default
    /// tenant, a seed-stable split stream otherwise.
    fn rng_for(&mut self, tenant: TenantId) -> &mut SplitMix64 {
        if tenant == TenantId::DEFAULT {
            &mut self.rng
        } else {
            let seed = tenant_seed(self.plan.seed, tenant.0);
            self.tenant_rngs
                .entry(tenant.0)
                .or_insert_with(|| SplitMix64::new(seed))
        }
    }

    /// Draws the throttle gate for `tenant`'s request at `now`. Returns
    /// the suggested retry delay when the request is rejected.
    pub(crate) fn draw_throttle(&mut self, tenant: TenantId, now: SimTime) -> Option<SimDuration> {
        let rule = self.plan.throttle.as_ref()?;
        if !rule.active(now) {
            return None;
        }
        let p = rule.probability;
        let retry_after = rule.retry_after;
        (self.rng_for(tenant).next_f64() < p).then_some(retry_after)
    }

    /// Draws the boot delay for `tenant`'s fresh grant
    /// ([`SimDuration::ZERO`] when the regime is off).
    pub(crate) fn draw_boot_delay(&mut self, tenant: TenantId) -> SimDuration {
        let Some(rule) = self.plan.boot else {
            return SimDuration::ZERO;
        };
        let span = rule.max.as_millis().saturating_sub(rule.min.as_millis());
        let extra = (self.rng_for(tenant).next_f64() * span as f64) as u64;
        let delay = rule.min + SimDuration::from_millis(extra);
        if delay > SimDuration::ZERO {
            self.boot_delays += 1;
        }
        delay
    }

    /// Draws the infant-mortality fate for `tenant`'s grant that
    /// becomes usable at `usable_at`: `Some(dies_at)` when the
    /// allocation is doomed.
    pub(crate) fn draw_infant_death(
        &mut self,
        tenant: TenantId,
        usable_at: SimTime,
    ) -> Option<SimTime> {
        let rule = self.plan.infant?;
        let rng = self.rng_for(tenant);
        if rng.next_f64() >= rule.probability {
            return None;
        }
        // Strictly positive lifetime so the death is observable after
        // the launch.
        let max_ms = rule.max_lifetime.as_millis().max(1);
        let life_ms = ((rng.next_f64() * max_ms as f64) as u64).max(1);
        Some(usable_at + SimDuration::from_millis(life_ms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{catalog, Zone};

    fn key() -> MarketKey {
        MarketKey::new(catalog::c4_xlarge(), Zone(0))
    }

    fn state(plan: MarketFaultPlan) -> FaultState {
        FaultState::new(plan, MarketTally::default())
    }

    #[test]
    fn splitmix_streams_are_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = SplitMix64::new(9).next_f64();
        assert!((0.0..1.0).contains(&f));
    }

    #[test]
    fn capacity_limit_takes_the_tightest_active_rule() {
        let plan = MarketFaultPlan::new(1)
            .with_drought(SimTime::from_hours(1), SimTime::from_hours(3), 8)
            .with_capacity(CapacityRule {
                market: Some(key()),
                from: SimTime::from_hours(2),
                until: SimTime::from_hours(4),
                capacity: 2,
            });
        assert_eq!(plan.capacity_limit(key(), SimTime::EPOCH), None);
        assert_eq!(plan.capacity_limit(key(), SimTime::from_hours(1)), Some(8));
        assert_eq!(plan.capacity_limit(key(), SimTime::from_hours(2)), Some(2));
        assert_eq!(plan.capacity_limit(key(), SimTime::from_hours(3)), Some(2));
        assert_eq!(plan.capacity_limit(key(), SimTime::from_hours(4)), None);
        // The wildcard drought caps other markets too.
        let other = MarketKey::new(catalog::c4_2xlarge(), Zone(1));
        assert_eq!(plan.capacity_limit(other, SimTime::from_hours(2)), Some(8));
    }

    #[test]
    fn throttle_draws_match_probability_and_replay() {
        let mk =
            |seed| state(MarketFaultPlan::new(seed).with_throttle(0.3, SimDuration::from_secs(30)));
        let mut a = mk(5);
        let mut b = mk(5);
        let mut hits = 0;
        for _ in 0..1000 {
            let ra = a.draw_throttle(TenantId::DEFAULT, SimTime::EPOCH);
            assert_eq!(ra, b.draw_throttle(TenantId::DEFAULT, SimTime::EPOCH));
            hits += u32::from(ra.is_some());
        }
        assert!((200..400).contains(&hits), "≈30% expected, got {hits}");
    }

    #[test]
    fn boot_delay_draws_stay_in_range() {
        let mut fs = state(
            MarketFaultPlan::new(2)
                .with_boot_delay(SimDuration::from_secs(60), SimDuration::from_secs(300)),
        );
        for _ in 0..100 {
            let d = fs.draw_boot_delay(TenantId::DEFAULT);
            assert!(d >= SimDuration::from_secs(60) && d <= SimDuration::from_secs(300));
        }
        assert_eq!(fs.boot_delays, 100);
    }

    #[test]
    fn infant_death_lands_after_launch() {
        let mut fs =
            state(MarketFaultPlan::new(3).with_infant_mortality(1.0, SimDuration::from_mins(10)));
        let usable = SimTime::from_hours(1);
        for _ in 0..50 {
            let dies = fs
                .draw_infant_death(TenantId::DEFAULT, usable)
                .expect("p=1 always dooms");
            assert!(dies > usable);
            assert!(dies <= usable + SimDuration::from_mins(10));
        }
    }

    #[test]
    fn disabled_regimes_draw_nothing() {
        let mut fs = state(MarketFaultPlan::new(4));
        assert_eq!(fs.draw_throttle(TenantId::DEFAULT, SimTime::EPOCH), None);
        assert_eq!(fs.draw_boot_delay(TenantId::DEFAULT), SimDuration::ZERO);
        assert_eq!(
            fs.draw_infant_death(TenantId::DEFAULT, SimTime::EPOCH),
            None
        );
        assert_eq!(fs.boot_delays, 0);
    }

    /// The satellite contract: one tenant's draws are a pure function of
    /// `(plan.seed, tenant, its own request ordinal)` — interleaving a
    /// second tenant's draws between them changes nothing.
    #[test]
    fn tenant_streams_are_independent_of_interleaving() {
        let plan = || MarketFaultPlan::new(21).with_throttle(0.5, SimDuration::from_secs(30));
        // Tenant 1 alone.
        let mut alone = state(plan());
        let solo: Vec<_> = (0..50)
            .map(|_| alone.draw_throttle(TenantId(1), SimTime::EPOCH))
            .collect();
        // Tenant 1 interleaved with tenants 2 and the default stream.
        let mut mixed = state(plan());
        let inter: Vec<_> = (0..50)
            .map(|_| {
                let _ = mixed.draw_throttle(TenantId(2), SimTime::EPOCH);
                let _ = mixed.draw_throttle(TenantId::DEFAULT, SimTime::EPOCH);
                mixed.draw_throttle(TenantId(1), SimTime::EPOCH)
            })
            .collect();
        assert_eq!(solo, inter, "tenant streams must not couple");
    }

    /// Distinct tenants under one plan see distinct streams, and the
    /// default tenant's stream is the root stream (bit-identical to the
    /// pre-tenant behavior).
    #[test]
    fn tenant_streams_diverge_and_default_matches_root() {
        let plan = || MarketFaultPlan::new(33).with_throttle(0.5, SimDuration::from_secs(30));
        let mut fs = state(plan());
        let t7: Vec<_> = (0..64)
            .map(|_| fs.draw_throttle(TenantId(7), SimTime::EPOCH).is_some())
            .collect();
        let t8: Vec<_> = (0..64)
            .map(|_| fs.draw_throttle(TenantId(8), SimTime::EPOCH).is_some())
            .collect();
        assert_ne!(t7, t8, "different tenants should diverge");

        // Default draws reproduce a raw root stream over the same plan.
        let mut root = SplitMix64::new(33);
        let mut fresh = state(plan());
        for _ in 0..64 {
            let hit = fresh
                .draw_throttle(TenantId::DEFAULT, SimTime::EPOCH)
                .is_some();
            assert_eq!(hit, root.next_f64() < 0.5);
        }
    }

    #[test]
    fn builder_composes_all_regimes() {
        let plan = MarketFaultPlan::new(9)
            .with_drought(SimTime::EPOCH, SimTime::from_hours(2), 4)
            .with_throttle(0.1, SimDuration::from_secs(15))
            .with_boot_delay(SimDuration::from_secs(30), SimDuration::from_secs(90))
            .with_infant_mortality(0.05, SimDuration::from_mins(5));
        assert_eq!(plan.capacity.len(), 1);
        assert!(plan.throttle.is_some());
        assert!(plan.boot.is_some());
        assert!(plan.infant.is_some());
        assert_eq!(plan.capacity_limit(key(), SimTime::from_hours(1)), Some(4));
    }
}
