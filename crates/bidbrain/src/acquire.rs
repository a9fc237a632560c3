//! Resilient-acquisition support: per-market backoff under refusals.
//!
//! When the provider refuses a request — capacity drought in one market,
//! or API throttling in front of all of them — the driver should neither
//! hammer the same market every decision step nor give up on spot
//! entirely. [`MarketBackoff`] tracks refusals per market and applies
//! capped exponential backoff: a refused market is skipped for
//! `base × 2^(strikes−1)` of simulated time (up to `cap`), while other
//! markets in the [`ranked_acquisitions`](crate::BidBrain::ranked_acquisitions)
//! list remain fair game. Throttling (a provider-wide signal) blocks all
//! markets until the provider's suggested retry time.
//!
//! [`BidBrain::acquire`] is the walk itself: rank the markets the
//! caller admits for the footprint the provider holds, request the
//! candidates in order until one grants, and report what happened for
//! the caller to apply to its own counters and backoff.

use std::collections::BTreeMap;

use proteus_market::{CloudProvider, MarketError, MarketKey, SpotGrant};
use proteus_obs::Recorder;
use proteus_simtime::{SimDuration, SimTime};

use crate::policy::{holdings, AllocView, AllocationRequest, BidBrain};

/// What one walk down the ranked acquisitions came to.
#[derive(Debug, Default)]
pub struct Acquisition {
    /// The grant that ended the walk, with the request that won it.
    pub granted: Option<(AllocationRequest, SpotGrant)>,
    /// Markets that refused for capacity, in walk order; the walk fell
    /// through each to the next-best candidate.
    pub refused: Vec<MarketKey>,
    /// What stopped the walk short: a provider-wide throttle, or any
    /// refusal other than capacity and a bid the market overtook.
    pub stopped: Option<MarketError>,
}

impl BidBrain<'_> {
    /// The acquisition pass of a decision step: walks
    /// [`ranked_acquisitions`](BidBrain::ranked_acquisitions) for the
    /// caller's on-demand `tiers` plus every launched spot allocation
    /// `provider` holds, over the provider's current prices of the
    /// markets `admit` accepts, requesting each candidate's count capped
    /// at `cap` (at least 1): a grant stops the walk; a capacity refusal
    /// or a bid the price moved past between ranking and requesting
    /// falls through to the next-best market; any other refusal — a
    /// throttle is provider-wide — stops it.
    ///
    /// The footprint, its terms, the admitted prices and the ranked list
    /// live in buffers the engine keeps from step to step, and the walk
    /// reads the ranked list where it lies: a step allocates nothing
    /// once those have grown to fit.
    pub fn acquire(
        &mut self,
        provider: &mut CloudProvider<'_>,
        tiers: &[AllocView],
        admit: impl Fn(MarketKey) -> bool,
        cap: u32,
        obs: Option<&Recorder>,
    ) -> Acquisition {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.footprint.clear();
        scratch
            .footprint
            .extend(holdings(provider, tiers).map(|(_, view)| view));
        // A step that admits every market ranks the provider's list as it
        // stands, with no copy.
        let spot = provider.spot_prices();
        let prices = if spot.iter().all(|&(market, _)| admit(market)) {
            spot
        } else {
            scratch.admitted.clear();
            scratch
                .admitted
                .extend(spot.iter().copied().filter(|&(m, _)| admit(m)));
            &scratch.admitted
        };
        let now = provider.now();
        self.rank(
            &scratch.footprint,
            prices,
            now,
            obs,
            &mut scratch.terms,
            &mut scratch.ranked,
        );
        let mut out = Acquisition::default();
        for &(_, req, _) in &scratch.ranked {
            match provider.request_spot(req.market, req.count.min(cap), req.bid) {
                Ok(grant) => {
                    out.granted = Some((req, grant));
                    break;
                }
                Err(MarketError::InsufficientCapacity { .. }) => out.refused.push(req.market),
                Err(MarketError::BidBelowMarket { .. }) => {}
                Err(e) => {
                    out.stopped = Some(e);
                    break;
                }
            }
        }
        self.scratch = scratch;
        out
    }
}

/// Tracks refusal history and computes when each market may be retried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarketBackoff {
    base: SimDuration,
    cap: SimDuration,
    /// Per-market consecutive-refusal count and earliest retry time.
    strikes: BTreeMap<MarketKey, (u32, SimTime)>,
    /// Provider-wide block (API throttling), if any.
    global_until: Option<SimTime>,
}

impl MarketBackoff {
    /// Creates a tracker with the given base delay and cap.
    pub fn new(base: SimDuration, cap: SimDuration) -> Self {
        MarketBackoff {
            base,
            cap,
            strikes: BTreeMap::new(),
            global_until: None,
        }
    }

    /// Whether `market` should be skipped at `now` (still backing off,
    /// or the provider as a whole is throttled).
    pub fn is_blocked(&self, market: MarketKey, now: SimTime) -> bool {
        if self.global_until.is_some_and(|t| now < t) {
            return true;
        }
        self.strikes
            .get(&market)
            .is_some_and(|&(_, until)| now < until)
    }

    /// Records a capacity refusal from `market`; returns the backoff
    /// delay applied (doubling per consecutive refusal, capped).
    pub fn on_refusal(&mut self, market: MarketKey, now: SimTime) -> SimDuration {
        let strikes = self.strikes.get(&market).map_or(0, |&(n, _)| n) + 1;
        let shift = (strikes - 1).min(16);
        let delay = SimDuration::from_millis(self.base.as_millis().saturating_mul(1 << shift))
            .min(self.cap);
        self.strikes.insert(market, (strikes, now + delay));
        delay
    }

    /// Records a provider-wide throttle; all markets are blocked until
    /// `now + retry_after`.
    pub fn on_throttle(&mut self, now: SimTime, retry_after: SimDuration) {
        let until = now + retry_after;
        if self.global_until.is_none_or(|t| t < until) {
            self.global_until = Some(until);
        }
    }

    /// Records a successful grant from `market`, clearing its strikes.
    pub fn on_success(&mut self, market: MarketKey) {
        self.strikes.remove(&market);
        self.global_until = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_market::{catalog, Zone};

    fn key(zone: u8) -> MarketKey {
        MarketKey::new(catalog::c4_xlarge(), Zone(zone))
    }

    #[test]
    fn refusals_double_the_delay_up_to_the_cap() {
        let mut b = MarketBackoff::new(SimDuration::from_mins(2), SimDuration::from_mins(30));
        let now = SimTime::EPOCH;
        assert_eq!(b.on_refusal(key(0), now), SimDuration::from_mins(2));
        assert_eq!(b.on_refusal(key(0), now), SimDuration::from_mins(4));
        assert_eq!(b.on_refusal(key(0), now), SimDuration::from_mins(8));
        assert_eq!(b.on_refusal(key(0), now), SimDuration::from_mins(16));
        assert_eq!(b.on_refusal(key(0), now), SimDuration::from_mins(30));
        assert_eq!(b.on_refusal(key(0), now), SimDuration::from_mins(30));
    }

    #[test]
    fn blocked_markets_unblock_when_time_passes() {
        let mut b = MarketBackoff::new(SimDuration::from_mins(2), SimDuration::from_mins(30));
        let now = SimTime::EPOCH;
        b.on_refusal(key(0), now);
        assert!(b.is_blocked(key(0), now));
        assert!(!b.is_blocked(key(1), now), "other markets stay open");
        assert!(!b.is_blocked(key(0), now + SimDuration::from_mins(2)));
    }

    #[test]
    fn success_clears_strikes() {
        let mut b = MarketBackoff::new(SimDuration::from_mins(2), SimDuration::from_mins(30));
        let now = SimTime::EPOCH;
        b.on_refusal(key(0), now);
        b.on_refusal(key(0), now);
        b.on_success(key(0));
        assert!(!b.is_blocked(key(0), now));
        // The doubling restarts from the base.
        assert_eq!(b.on_refusal(key(0), now), SimDuration::from_mins(2));
    }

    #[test]
    fn throttle_blocks_every_market_until_retry_time() {
        let mut b = MarketBackoff::new(SimDuration::from_mins(2), SimDuration::from_mins(30));
        let now = SimTime::EPOCH;
        b.on_throttle(now, SimDuration::from_mins(1));
        assert!(b.is_blocked(key(0), now));
        assert!(b.is_blocked(key(7), now));
        assert!(!b.is_blocked(key(0), now + SimDuration::from_mins(1)));
        // A shorter, later throttle never shrinks the block.
        b.on_throttle(now, SimDuration::from_secs(10));
        assert!(b.is_blocked(key(0), now + SimDuration::from_secs(30)));
    }
}
