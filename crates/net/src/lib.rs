//! Network plane for the Dilu reproduction: cold starts and pipeline
//! transfers pay for bytes.
//!
//! The serving plane's cold start was a flat per-model delay and its
//! pipeline stage transfer a constant; neither contends. This crate
//! models the part of the datacenter those constants hide:
//!
//! * a **topology** ([`NetworkConfig`]) — every node sits behind a
//!   top-of-rack (ToR) link feeding a shared core/registry link, plus an
//!   intra-node NVLink-class link, each with a configurable Gbps;
//! * a **flow plane** ([`NetPlane`]) — weight fetches and activation
//!   transfers are *flows* over link paths, sharing bandwidth max-min
//!   fairly. Rates are recomputed only at membership changes (a flow
//!   starting or finishing), so a k-way cold-start storm on one registry
//!   link slows every fetch by ~k while a lone fetch runs at line rate;
//! * a per-node **model cache** ([`ModelCache`]) — weights fetched once
//!   stay resident up to a byte capacity with LRU eviction, so a warm
//!   node pays only the provision residue, never the fetch.
//!
//! Everything is integer arithmetic over microsecond timestamps and
//! byte counts: the plane is deterministic by construction, and both
//! cluster time models (dense-quantum and event-driven) drive it through
//! the same [`NetPlane::take_due`] entry point at quantum-grid instants —
//! the dense stepper every quantum, the event core only at
//! [`NetPlane::next_finish`] — so reports stay byte-identical across time
//! models.
//!
//! # Examples
//!
//! ```
//! use dilu_net::{NetPlane, NetworkConfig};
//! use dilu_sim::{SimDuration, SimTime};
//!
//! let cfg = NetworkConfig::default();
//! let mut net: NetPlane<&'static str> = NetPlane::new(2, &cfg, SimDuration::from_millis(5));
//! net.start_fetch(SimTime::ZERO, 0, 1_250_000_000, "weights");
//! // 1.25 GB over the 10 Gbps registry link = 1 s, grid-aligned.
//! assert_eq!(net.next_finish(), Some(SimTime::from_secs(1)));
//! let done = net.take_due(SimTime::from_secs(1));
//! assert_eq!(done, vec![(1, "weights")]);
//! assert_eq!(net.delivered_bytes(), net.requested_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod flow;

pub use cache::ModelCache;
pub use flow::{FlowId, NetPlane};

use dilu_sim::SimDuration;

/// Bytes per second of a 1 Gbps link (decimal gigabit: 10⁹ bits / 8).
pub const BYTES_PER_GBPS: f64 = 125_000_000.0;

/// One gibibyte, the unit of [`NetworkConfig::cache_gb`].
pub const GIB: u64 = 1 << 30;

/// The network topology and cache shape.
///
/// The topology is deliberately simple — a two-level tree plus an
/// intra-node link — because what matters for serving is *contention*,
/// not routing: every node's ToR uplink feeds one shared core link where
/// the model registry lives, so concurrent cold starts on different
/// nodes contend at the registry while pipeline transfers between nodes
/// contend pairwise on their ToR links.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Capacity of the shared core/registry link, in Gbps.
    pub registry_gbps: f64,
    /// Capacity of each node's top-of-rack uplink, in Gbps.
    pub tor_gbps: f64,
    /// Capacity of each node's intra-node (NVLink-class) link, in Gbps —
    /// what same-node pipeline stage transfers ride on.
    pub nvlink_gbps: f64,
    /// Per-node model cache capacity in GiB; `0` disables caching (every
    /// cold start fetches from the registry).
    pub cache_gb: f64,
    /// Warm-up residue paid after the weights are local (container
    /// provision, runtime init) — the part of a cold start that bytes
    /// cannot explain. Cache hits pay exactly this.
    pub provision: SimDuration,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            registry_gbps: 10.0,
            tor_gbps: 25.0,
            nvlink_gbps: 200.0,
            cache_gb: 0.0,
            provision: SimDuration::from_secs(2),
        }
    }
}

impl NetworkConfig {
    /// Names accepted by [`NetworkConfig::preset`].
    pub const PRESET_NAMES: [&'static str; 3] = ["datacenter", "edge", "congested"];

    /// A named preset topology, or `None` for an unknown name.
    ///
    /// * `"datacenter"` — fat links (100/100/400 Gbps) and a 32 GiB
    ///   cache: fetches are fast and mostly avoided.
    /// * `"edge"` — thin uplinks (2.5/10/50 Gbps) and an 8 GiB cache:
    ///   cold starts are dominated by the registry link.
    /// * `"congested"` — the default link tiers with no cache: every
    ///   launch fetches, storms contend at the 10 Gbps registry.
    pub fn preset(name: &str) -> Option<NetworkConfig> {
        match name {
            "datacenter" => Some(NetworkConfig {
                registry_gbps: 100.0,
                tor_gbps: 100.0,
                nvlink_gbps: 400.0,
                cache_gb: 32.0,
                ..NetworkConfig::default()
            }),
            "edge" => Some(NetworkConfig {
                registry_gbps: 2.5,
                tor_gbps: 10.0,
                nvlink_gbps: 50.0,
                cache_gb: 8.0,
                ..NetworkConfig::default()
            }),
            "congested" => Some(NetworkConfig::default()),
            _ => None,
        }
    }

    /// Validates the shape, returning a description of the first problem.
    ///
    /// # Errors
    ///
    /// Non-finite or non-positive link capacities and a non-finite or
    /// negative cache size are rejected.
    pub fn validate(&self) -> Result<(), String> {
        for (name, gbps) in [
            ("registry_gbps", self.registry_gbps),
            ("tor_gbps", self.tor_gbps),
            ("nvlink_gbps", self.nvlink_gbps),
        ] {
            if !gbps.is_finite() || gbps <= 0.0 {
                return Err(format!("[network] {name} must be a positive number, got {gbps}"));
            }
        }
        if !self.cache_gb.is_finite() || self.cache_gb < 0.0 {
            return Err(format!("[network] cache_gb must be >= 0, got {}", self.cache_gb));
        }
        Ok(())
    }

    /// The per-node cache capacity in bytes.
    pub fn cache_bytes(&self) -> u64 {
        (self.cache_gb * GIB as f64).round() as u64
    }
}

/// Converts a link capacity in Gbps to whole bytes per second.
pub(crate) fn gbps_to_bytes(gbps: f64) -> u64 {
    ((gbps * BYTES_PER_GBPS).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_resolve_and_validate() {
        for name in NetworkConfig::PRESET_NAMES {
            let cfg = NetworkConfig::preset(name).expect(name);
            cfg.validate().expect(name);
        }
        assert_eq!(NetworkConfig::preset("no-such-preset"), None);
        assert_eq!(NetworkConfig::preset("congested"), Some(NetworkConfig::default()));
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        let bad = NetworkConfig { registry_gbps: 0.0, ..NetworkConfig::default() };
        assert!(bad.validate().is_err());
        let bad = NetworkConfig { tor_gbps: f64::NAN, ..NetworkConfig::default() };
        assert!(bad.validate().is_err());
        let bad = NetworkConfig { cache_gb: -1.0, ..NetworkConfig::default() };
        assert!(bad.validate().is_err());
        NetworkConfig::default().validate().expect("default is valid");
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(gbps_to_bytes(10.0), 1_250_000_000);
        assert_eq!(gbps_to_bytes(0.000_000_001), 1, "floors at one byte/s");
        let cfg = NetworkConfig { cache_gb: 2.0, ..NetworkConfig::default() };
        assert_eq!(cfg.cache_bytes(), 2 * GIB);
    }
}
