//! The baseline systems Dilu is evaluated against (paper §5.1).
//!
//! GPU-level share policies, all running on the same
//! [`dilu_gpu::GpuEngine`] substrate as Dilu's RCKM:
//!
//! * [`MpsPolicy`] — NVIDIA MPS static spatial partitioning; `MPS-l` grants
//!   each instance its `limit` quota, `MPS-r` its `request` quota, always.
//! * [`TgsPolicy`] — TGS (NSDI '23) transparent sharing: productive
//!   (SLO-sensitive) jobs run unthrottled; opportunistic jobs receive a tiny
//!   adaptive rate that grows only while the productive side is idle.
//! * [`FastGsPolicy`] — FaST-GShare spatio-temporal sharing: MPS partitions
//!   plus temporal lending of idle quotas, with the CUDA-event bookkeeping
//!   overhead the paper observes.
//!
//! Cluster-level horizontal-only elasticity controllers
//! ([`dilu_cluster::ElasticityController`]s that ignore the cluster view):
//!
//! * [`ReactiveScaler`] — FaST-GS+-style eager scale-out/in on instantaneous
//!   load.
//! * [`KeepAliveScaler`] — INFless+-style prediction/keep-alive scaling:
//!   fewer cold starts, paid for with idle GPU time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod policies;
mod scaling;

pub use policies::{FastGsPolicy, MpsPolicy, QuotaSource, TgsPolicy};
pub use scaling::{KeepAliveScaler, ReactiveScaler};
