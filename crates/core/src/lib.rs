//! The Dilu system: composing the control plane (profiler + scheduler),
//! scaling plane (global lazy scaler + per-GPU RCKM), and serving plane
//! (cluster simulator) into runnable systems — Dilu, its ablations, and
//! every baseline of the paper's evaluation — plus the experiment harness
//! that regenerates each table and figure.
//!
//! # Examples
//!
//! Serve a bursty inference function on the full Dilu stack via a
//! [`SystemKind`] preset builder:
//!
//! ```
//! use dilu_core::{funcs, SystemKind};
//! use dilu_cluster::ClusterSpec;
//! use dilu_models::ModelId;
//! use dilu_sim::SimDuration;
//! use dilu_workload::PoissonProcess;
//!
//! let report = SystemKind::Dilu
//!     .builder()
//!     .cluster(ClusterSpec::single_node(2))
//!     .horizon(SimDuration::from_secs(10))
//!     .function(funcs::inference_function(1, ModelId::BertBase))
//!     .arrivals(PoissonProcess::new(30.0, 7))
//!     .build()?
//!     .run()?;
//! assert!(report.inference.values().next().unwrap().completed > 0);
//! # Ok::<(), dilu_core::ScenarioError>(())
//! ```
//!
//! Or compose a system no preset describes — any
//! [`Placement`](dilu_cluster::Placement) /
//! [`ElasticityController`](dilu_cluster::ElasticityController) /
//! [`PolicyFactory`](dilu_cluster::PolicyFactory) mix goes:
//!
//! ```
//! use dilu_core::{funcs, MpsFactory, Scenario};
//! use dilu_baselines::{KeepAliveScaler, QuotaSource};
//! use dilu_cluster::ClusterSpec;
//! use dilu_models::ModelId;
//! use dilu_scheduler::{DiluScheduler, SchedulerConfig};
//! use dilu_sim::SimDuration;
//!
//! let scenario = Scenario::builder()
//!     .cluster(ClusterSpec::single_node(2))
//!     .placement(DiluScheduler::new(SchedulerConfig { gamma: 2.0, ..Default::default() }))
//!     .controller(KeepAliveScaler::default())
//!     .share_policy(MpsFactory(QuotaSource::Request))
//!     .horizon(SimDuration::from_secs(5))
//!     .function(funcs::inference_function(1, ModelId::Vgg19))
//!     .arrival_times(Vec::new())
//!     .build()?;
//! assert_eq!(scenario.sim().share_policy_name(), "mps-r");
//! # Ok::<(), dilu_core::ScenarioError>(())
//! ```
//!
//! The same compositions load from TOML/JSON via [`ScenarioConfig`] +
//! [`Registry`], and [`build_sim`] keeps the original closed API working
//! on top of the presets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod factories;
pub mod funcs;
pub mod macrosim;
pub mod registry;
mod scenario;
mod system;
pub mod table;

pub mod experiments;

pub use config::{
    ClusterSection, ComponentSection, FunctionSection, NetworkSection, RunSection, ScenarioConfig,
    SimSection, SystemSection,
};
pub use factories::{
    custom_share_policy, FairFactory, FastGsFactory, MpsFactory, NullController, PinnedPlacement,
    RckmFactory, TgsFactory,
};
pub use registry::{Params, Registry};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioError};
pub use system::{build_sim, SystemKind};
