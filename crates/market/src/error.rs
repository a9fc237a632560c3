//! Error types for market operations.

use std::fmt;

use proteus_simtime::SimDuration;

use crate::instance::MarketKey;
use crate::provider::AllocationId;

/// Errors returned by market and provider operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MarketError {
    /// A bid was placed below the current market price, so no resources
    /// were granted.
    BidBelowMarket {
        /// The market the bid targeted.
        market: MarketKey,
        /// The rejected bid price per instance-hour.
        bid: f64,
        /// The prevailing spot price when the bid arrived.
        market_price: f64,
    },
    /// No price trace is registered for the requested market.
    UnknownMarket(MarketKey),
    /// The referenced allocation does not exist or was already terminated.
    UnknownAllocation(AllocationId),
    /// Time was asked to move backwards.
    TimeWentBackwards,
    /// An allocation request asked for zero instances.
    EmptyRequest,
    /// The market had no spot capacity left for the request (a
    /// [`CapacityRule`](crate::fault::CapacityRule) window is active).
    /// Transient: capacity frees up as other allocations end.
    InsufficientCapacity {
        /// The market that refused the request.
        market: MarketKey,
        /// Instances asked for.
        requested: u32,
        /// Instances the market could still grant (zero here — partial
        /// fits are granted, not refused).
        available: u32,
    },
    /// The provider API throttled the request before it reached the
    /// market. Transient: retry after the suggested delay.
    RequestLimitExceeded {
        /// Suggested wait before retrying.
        retry_after: SimDuration,
    },
}

impl fmt::Display for MarketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarketError::BidBelowMarket {
                market,
                bid,
                market_price,
            } => write!(
                f,
                "bid ${bid:.4} below market price ${market_price:.4} for {market}"
            ),
            MarketError::UnknownMarket(key) => write!(f, "no price trace for market {key}"),
            MarketError::UnknownAllocation(id) => write!(f, "unknown allocation {id}"),
            MarketError::TimeWentBackwards => write!(f, "simulation time may not move backwards"),
            MarketError::EmptyRequest => write!(f, "allocation request for zero instances"),
            MarketError::InsufficientCapacity {
                market,
                requested,
                available,
            } => write!(
                f,
                "insufficient capacity in {market}: requested {requested}, available {available}"
            ),
            MarketError::RequestLimitExceeded { retry_after } => write!(
                f,
                "request limit exceeded; retry after {}s",
                retry_after.as_secs()
            ),
        }
    }
}

impl std::error::Error for MarketError {}
