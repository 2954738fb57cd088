//! Scenario-space fuzzing with differential oracles.
//!
//! The simulator's headline claims (adaptive 2D co-scaling,
//! resourcing-complementary placement) are only as credible as its
//! correctness, and hand-written scenarios cover a sliver of the
//! composition space. This crate turns the differential-equality trick
//! pinning the event-driven core to the dense-quantum reference into a
//! first-class verification subsystem:
//!
//! * [`SpaceConfig`] + [`generate_case`] — a seeded, model-based generator
//!   sampling valid [`ScenarioConfig`](dilu_core::ScenarioConfig)s across the full registry
//!   cross-product: placements × elasticity controllers × share policies ×
//!   arrival processes (Poisson / Gamma / trace / replay) × fleet sizes ×
//!   both time models.
//! * [`Oracle`] — a pluggable invariant check over one generated scenario.
//!   Four ship with the crate: [`DifferentialOracle`] (event-driven vs
//!   dense-quantum report byte-equality), [`DeterminismOracle`] (same seed
//!   twice ⇒ identical JSON), [`ConservationOracle`] (no request is ever
//!   created or lost, and GPU time matches the occupancy samples), and [`CapacityOracle`] (Σ`request` ≤ Ω and
//!   Σ`limit` ≤ Γ on every GPU at every controller tick, via the
//!   [`ClusterSim::audit`](dilu_cluster::ClusterSim::audit) hook).
//! * [`Harness`] — the driver: runs every oracle over every generated
//!   case, shrinks failures to a minimal reproducer, and dumps the
//!   failing scenario as copy-pasteable TOML.
//!
//! The CLI front door is `dilu fuzz [--cases N] [--seed S] [--oracle
//! name] [--minimize]`; every future policy or time model lands in the
//! sampled space automatically once registered.
//!
//! # Examples
//!
//! ```
//! use dilu_harness::{FuzzOptions, Harness};
//!
//! let harness = Harness::new();
//! let report = harness.run(&FuzzOptions { cases: 2, seed: 7, ..FuzzOptions::default() })?;
//! assert_eq!(report.failures.len(), 0);
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod fuzz;
mod gen;
mod oracle;

pub use emit::to_toml;
pub use fuzz::{Failure, FuzzOptions, FuzzReport, Harness};
pub use gen::{generate_case, SpaceConfig};
pub use oracle::{
    default_oracles, CapacityOracle, ConservationOracle, DeterminismOracle, DifferentialOracle,
    Oracle, Verdict,
};
