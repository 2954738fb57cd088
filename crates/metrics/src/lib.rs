//! Serving metrics for the Dilu reproduction.
//!
//! The paper's evaluation (§5.1) reports inference latency percentiles
//! (p50/p95), SLO violation rate (SVR), cold start counts (CSC), training
//! throughput, saved GPU time (SGT), and GPU fragmentation. This crate
//! provides the recorders that compute all of them from simulation events.
//!
//! # Examples
//!
//! ```
//! use dilu_metrics::LatencyRecorder;
//! use dilu_sim::SimDuration;
//!
//! let mut lat = LatencyRecorder::new();
//! for ms in [10, 20, 30, 40, 100] {
//!     lat.record(SimDuration::from_millis(ms));
//! }
//! assert_eq!(lat.p50(), SimDuration::from_millis(30));
//! assert_eq!(lat.violation_rate(SimDuration::from_millis(50)), 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod fragmentation;
mod latency;
mod profiler;

pub use counters::{ColdStartCounter, RateWindow, ResizeCounter, SampleClock};
pub use fragmentation::{FragmentationSnapshot, FragmentationStats, GpuUsageSample};
pub use latency::LatencyRecorder;
pub use profiler::{PhaseProfile, PhaseProfiler, PhaseStat, PhaseTimer, SimPhase, PHASE_COUNT};
