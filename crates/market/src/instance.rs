//! Instance types, availability zones, and the default catalog.
//!
//! The paper's experiments use the EC2 c4 family (c4.xlarge with 4 vCPUs,
//! c4.2xlarge with 8 vCPUs) across the four US-EAST-1 availability zones,
//! and BidBrain's toy example also references m4 types. The catalog here
//! mirrors the January-2016-era US-EAST-1 on-demand prices.

use std::fmt;

/// A purchasable machine type.
///
/// `work_rate` follows the paper's ν convention: the work an instance
/// produces per unit time is proportional to its virtual core count
/// (Sec. 4.1, footnote 7).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// EC2-style type name, e.g. `"c4.2xlarge"`.
    pub name: &'static str,
    /// Virtual CPU count.
    pub vcpus: u32,
    /// Memory in GiB.
    pub mem_gib: f64,
    /// Fixed on-demand price per instance-hour in dollars.
    pub on_demand_price: f64,
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// An availability zone within the simulated region.
///
/// Spot prices for the same instance type move independently per zone,
/// which is what makes multi-market bidding profitable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Zone(pub u8);

impl Zone {
    /// The four zones of the simulated US-EAST-1-like region.
    pub const ALL: [Zone; 4] = [Zone(0), Zone(1), Zone(2), Zone(3)];
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render like EC2 zone suffixes: us-east-1a, -1b, ...
        write!(f, "us-east-1{}", (b'a' + self.0) as char)
    }
}

/// Identifies one spot market: an (instance type, zone) pair.
///
/// The instance type is referenced by catalog index so the key stays
/// `Copy` and hashable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MarketKey {
    /// Index into [`catalog::all`].
    pub type_index: usize,
    /// Availability zone.
    pub zone: Zone,
}

impl MarketKey {
    /// Builds a key from a catalog index and zone.
    pub fn new(type_index: usize, zone: Zone) -> Self {
        MarketKey { type_index, zone }
    }

    /// Resolves the instance type from the default catalog.
    ///
    /// # Panics
    ///
    /// Panics if `type_index` is out of range for the catalog; keys built
    /// from a `catalog` index are always in range.
    pub fn instance_type(&self) -> &'static InstanceType {
        &catalog::all()[self.type_index]
    }

    /// The `Display` rendering of this key, interned process-wide.
    ///
    /// Observability events carry market names on hot paths (price
    /// moves, grants, bid candidates); rendering through `Display` once
    /// per key and sharing the `Arc` keeps per-event cost to a refcount
    /// bump instead of a format-and-allocate.
    pub fn interned_name(&self) -> std::sync::Arc<str> {
        use std::collections::BTreeMap;
        use std::sync::{Arc, Mutex, OnceLock};
        static NAMES: OnceLock<Mutex<BTreeMap<MarketKey, Arc<str>>>> = OnceLock::new();
        let cache = NAMES.get_or_init(|| Mutex::new(BTreeMap::new()));
        let mut names = cache
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        Arc::clone(
            names
                .entry(*self)
                .or_insert_with(|| self.to_string().into_boxed_str().into()),
        )
    }
}

impl fmt::Display for MarketKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.instance_type().name, self.zone)
    }
}

/// The built-in instance catalog.
pub mod catalog {
    use super::{InstanceType, MarketKey, Zone};

    /// Catalog entries, ordered; index is the `type_index` used by
    /// [`MarketKey`](super::MarketKey).
    const CATALOG: [InstanceType; 6] = [
        InstanceType {
            name: "c4.xlarge",
            vcpus: 4,
            mem_gib: 7.5,
            on_demand_price: 0.209,
        },
        InstanceType {
            name: "c4.2xlarge",
            vcpus: 8,
            mem_gib: 15.0,
            on_demand_price: 0.419,
        },
        InstanceType {
            name: "c4.4xlarge",
            vcpus: 16,
            mem_gib: 30.0,
            on_demand_price: 0.838,
        },
        InstanceType {
            name: "m4.xlarge",
            vcpus: 4,
            mem_gib: 16.0,
            on_demand_price: 0.215,
        },
        InstanceType {
            name: "m4.2xlarge",
            vcpus: 8,
            mem_gib: 32.0,
            on_demand_price: 0.431,
        },
        InstanceType {
            name: "r3.xlarge",
            vcpus: 4,
            mem_gib: 30.5,
            on_demand_price: 0.333,
        },
    ];

    /// All catalog entries.
    pub fn all() -> &'static [InstanceType] {
        &CATALOG
    }

    /// Convenience: the catalog index of `c4.xlarge`.
    pub fn c4_xlarge() -> usize {
        0
    }

    /// Convenience: the catalog index of `c4.2xlarge`.
    pub fn c4_2xlarge() -> usize {
        1
    }

    /// Market keys restricted to the two c4 types the paper evaluates.
    pub fn paper_markets() -> Vec<MarketKey> {
        let mut keys = Vec::new();
        for i in [c4_xlarge(), c4_2xlarge()] {
            for zone in Zone::ALL {
                keys.push(MarketKey::new(i, zone));
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_lookup_by_name() {
        let by_name = |name| catalog::all().iter().position(|t| t.name == name);
        let t = &catalog::all()[by_name("c4.2xlarge").expect("present")];
        assert_eq!(t.vcpus, 8);
        assert!((t.on_demand_price - 0.419).abs() < 1e-9);
        assert!(by_name("z9.mega").is_none());
    }

    #[test]
    fn work_rate_proportional_to_cores() {
        let small = &catalog::all()[catalog::c4_xlarge()];
        let big = &catalog::all()[catalog::c4_2xlarge()];
        // Paper footnote 7: ν(c4.2xlarge) = 2 × ν(c4.xlarge), ν being
        // proportional to vCPU count.
        assert_eq!(big.vcpus, 2 * small.vcpus);
    }

    /// A session ranks the paper's markets in the provider's price
    /// order (`TraceSet`'s, sorted by key), on which Eq. 4's tie-breaks
    /// depend: the two must be one order.
    #[test]
    fn paper_markets_are_in_market_order() {
        let markets = catalog::paper_markets();
        assert!(markets.windows(2).all(|w| w[0] < w[1]), "{markets:?}");
    }

    #[test]
    fn market_key_display_names_type_and_zone() {
        let key = MarketKey::new(catalog::c4_xlarge(), Zone(2));
        assert_eq!(key.to_string(), "c4.xlarge@us-east-1c");
    }
}
