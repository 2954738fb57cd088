//! The serving plane of the Dilu reproduction: a cluster of simulated GPU
//! nodes hosting serverless DL function instances.
//!
//! [`ClusterSim`] owns the GPUs (one [`dilu_gpu::GpuEngine`] each), routes
//! requests from [`dilu_workload`] arrival processes through a gateway +
//! least-loaded balancer into per-instance dynamic batches, runs training
//! jobs with barrier-synchronised compute/communication phases (DDP) or
//! stage/bubble phases (pipeline parallelism), models cold starts, and
//! records every metric the paper reports.
//!
//! Internally the simulator is layered into a **control plane** (routing
//! and dispatch, lifecycle, elasticity execution — the `dispatch`,
//! `lifecycle`, and `elasticity` modules) over a **node plane** (`nodes`):
//! one array of GPU runtimes, stepped in fixed node-major order. The `sim`
//! module sequences the phases.
//!
//! Three extension points make it policy-agnostic so Dilu and every baseline
//! run on the identical substrate:
//!
//! * [`Placement`] — which GPUs an instance lands on (Algorithm 1 lives in
//!   `dilu-scheduler`);
//! * [`ElasticityController`] — the 2D control plane deciding both
//!   *horizontal* scaling (launch/terminate instances) and *vertical*
//!   scaling (resize `<request, limit>` quotas of running instances within
//!   one scheduling quantum). Dilu's 2D co-scaler and lazy scaler live in
//!   `dilu-scaler`, the keep-alive and reactive baselines in
//!   `dilu-baselines`; horizontal-only controllers ignore the cluster view;
//! * [`dilu_gpu::SharePolicy`] — per-quantum SM grants (Dilu's RCKM lives in
//!   `dilu-rckm`, MPS/TGS/FaST-GS in `dilu-baselines`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod dispatch;
mod elasticity;
mod instance;
mod lifecycle;
mod netplane;
mod nodes;
mod report;
mod sim;
mod spec;
mod traits;

pub use audit::{AuditHook, AuditSnapshot, FunctionAudit, GpuAudit, NetAudit};
pub use instance::{InstanceState, InstanceUid};
pub use lifecycle::DeployError;
pub use report::{ClusterReport, FunctionReport, TimelinePoint, TrainingReport};
pub use sim::{
    ArrivalHook, ClusterSim, EventHook, EventRecord, SimConfig, SimEvent, TimeModel,
    ARRIVAL_WINDOW, QUANTUM_CHAIN_CODE,
};
pub use spec::{
    cold_start_duration, ClusterSpec, FunctionId, FunctionKind, FunctionSpec, GpuAddr, Quotas,
};
pub use traits::{
    named, ClusterView, ElasticityController, FunctionScaleView, GpuView, NamedPolicyFactory,
    Placement, PolicyFactory, QuotaView, ResidentInfo, ScaleAction,
};
