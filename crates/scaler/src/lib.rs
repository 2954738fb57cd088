//! Dilu's global scalers (paper §3.4.2): the lazy horizontal scaler and
//! the adaptive 2D co-scaler.
//!
//! Classic serverless scalers react instantly to load changes and pay the
//! cold-start price for every few-second burst. Dilu instead lets the fast
//! *vertical* scaler absorb short bursts and only scales out when a
//! 40-second sliding window shows a *sustained* overload:
//!
//! * **scale out** when at least φ_out (20) per-second RPS samples exceed
//!   the serving throughput of the deployed instances;
//! * **scale in** when more than φ_in (30) samples fall below the capacity
//!   of one fewer instance — avoiding termination/restart churn.
//!
//! Two [`dilu_cluster::ElasticityController`]s implement this:
//!
//! * [`LazyScaler`] — horizontal-only: it ignores the cluster view and
//!   *assumes* per-GPU vertical scaling (RCKM) handles the bursts;
//! * [`CoScaler`] — true 2D control: it
//!   observes per-GPU quota headroom, grows a function's `<request, limit>`
//!   quotas in place (millisecond apply latency) up to the Ω cap, and only
//!   falls back to cold-start-bound scale-out beyond that; on quiet windows
//!   it shrinks grown quotas back before terminating instances.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coscale;
mod lazy;

pub use coscale::{CoScaler, CoScalerConfig};
pub use lazy::{LazyScaler, ScalerConfig};
