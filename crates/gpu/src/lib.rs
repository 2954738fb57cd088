//! Simulated GPU device for the Dilu reproduction.
//!
//! The paper's prototype throttles real CUDA kernel launches on A100 GPUs;
//! here a GPU is a quantum-stepped proportional-share machine:
//!
//! * a [`GpuEngine`] owns resident instance *slots*, each with a queue of
//!   [`WorkItem`]s (compute phases consume SM rate, idle phases model
//!   communication/bubbles and consume none);
//! * every [`QUANTUM`] (5 ms, the paper's RCKM token period) a
//!   [`SharePolicy`] grants each slot an SM rate; the engine caps each grant
//!   at one whole GPU, zeroes the grant of a slot with no head demand,
//!   scales the grants down proportionally when they sum above the GPU
//!   (*physical* contention), and advances work. A slot occupies all it is
//!   granted, but only the share up to its head item's saturation does
//!   useful work: a grant above saturation strands SMs;
//! * kernel-block issuance and kernel-launch-cycle (KLC) inflation are
//!   tracked per slot — exactly the observables Dilu's RCKM (Algorithm 2)
//!   reacts to.
//!
//! # Examples
//!
//! ```
//! use dilu_gpu::{GpuEngine, SlotConfig, SmRate, TaskClass, WorkItem};
//! use dilu_gpu::policies::FairSharePolicy;
//! use dilu_sim::{SimDuration, SimTime};
//!
//! # fn main() -> Result<(), dilu_gpu::GpuError> {
//! let mut gpu = GpuEngine::new(dilu_gpu::GB * 40);
//! let id = dilu_gpu::InstanceId(1);
//! gpu.admit(id, SlotConfig {
//!     class: TaskClass::SloSensitive,
//!     request: SmRate::from_percent(30.0),
//!     limit: SmRate::from_percent(60.0),
//!     mem_bytes: dilu_gpu::GB,
//! })?;
//! gpu.push_work(
//!     id,
//!     WorkItem::compute(SimDuration::from_millis(10), SmRate::from_percent(50.0), 1_000, 7),
//! )?;
//! let mut policy = FairSharePolicy;
//! let mut now = SimTime::ZERO;
//! let mut done = Vec::new();
//! while done.is_empty() {
//!     let out = gpu.step(now, &mut policy);
//!     done.extend(out.completions);
//!     now += dilu_gpu::QUANTUM;
//! }
//! assert_eq!(done[0].tag, 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curves;
mod engine;
mod error;
pub mod policies;
mod policy;
mod types;
mod work;

pub use curves::rate_factor;
pub use engine::{Completion, GpuEngine, SlotConfig, StepOutcome, QUANTUM};
pub use error::GpuError;
pub use policy::{Grant, InstanceView, SharePolicy, IDLE_HISTORY_CYCLES};
pub use types::{InstanceId, SmRate, TaskClass, GB, MB};
pub use work::{WorkItem, WorkKind};
