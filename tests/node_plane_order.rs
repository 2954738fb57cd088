//! The node plane steps GPUs in one fixed node-major order on both time
//! models: the scaling-lifecycle scenario (cold-start scale-outs,
//! scale-ins, scale-to-zero, vertical resizes, a late training job) on
//! twelve single-GPU nodes must produce a byte-identical `ClusterReport`
//! and an identical audit stream, one snapshot per controller tick, under
//! the event core (busy GPUs only) and the dense stepper (every GPU).

use std::cell::RefCell;
use std::rc::Rc;

use dilu::cluster::{ClusterSpec, FunctionKind, SimConfig, TimeModel};
use dilu::core::{funcs, SystemKind};
use dilu::gpu::GB;
use dilu::models::ModelId;
use dilu::sim::{SimDuration, SimTime};
use dilu::workload::{ArrivalProcess, PoissonProcess};

const HORIZON_SECS: u64 = 60;
const DRAIN_SECS: u64 = 3;

/// Runs the 60 s scaling-lifecycle scenario (the cluster shape from
/// `tests/properties.rs` spread over twelve single-GPU worker nodes: one
/// node per GPU puts every busy GPU on its own node, and the dense model
/// always steps all twelve), collecting the audit stream and the final
/// report JSON.
fn run_lifecycle(time_model: TimeModel) -> (Vec<String>, String) {
    let horizon = SimDuration::from_secs(HORIZON_SECS);
    let mut spec = funcs::inference_function(1, ModelId::RobertaLarge);
    if let FunctionKind::Inference { slo, .. } = spec.kind {
        spec.kind = FunctionKind::Inference { slo, batch: 4 };
    }
    // A second hot function keeps several single-GPU nodes busy at once,
    // so event-driven wakes step a busy set spread across nodes (the
    // dense model steps all twelve nodes every quantum regardless). The
    // inflated 5 GB reservations on 6 GB cards defeat the packer: at most
    // one inference instance fits per node, so every replica lands on —
    // and keeps busy — its own node.
    spec.quotas.mem_bytes = 5 * GB;
    let mut spec_b = funcs::inference_function(3, ModelId::ResNet152);
    spec_b.quotas.mem_bytes = 5 * GB;
    let scenario = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec { nodes: 12, gpus_per_node: 1, gpu_mem_bytes: 6 * GB })
        .sim_config(SimConfig { time_model, ..SimConfig::default() })
        .horizon(horizon)
        .drain(SimDuration::from_secs(DRAIN_SECS))
        .function(spec)
        .initial_instances(0)
        .arrival_times(PoissonProcess::new(95.0, 41).generate(SimTime::ZERO + horizon))
        .function(spec_b)
        .initial_instances(3)
        .arrival_times(PoissonProcess::new(210.0, 43).generate(SimTime::ZERO + horizon))
        .controller(dilu::scaler::CoScaler::new(Default::default()))
        .function(funcs::training_function(2, ModelId::BertBase, 1, 40))
        .starts_at(SimTime::from_secs(12))
        .build()
        .expect("scenario composes");
    let mut sim = scenario.into_sim();
    let ticks: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = ticks.clone();
    sim.set_audit_hook(Box::new(move |snapshot| {
        sink.borrow_mut().push(format!("{snapshot:?}"));
    }));
    sim.run_until(SimTime::from_secs(HORIZON_SECS + DRAIN_SECS));
    let report = serde_json::to_string(&sim.into_report()).expect("report serializes");
    let ticks = ticks.borrow().clone();
    (ticks, report)
}

#[test]
fn audit_stream_and_report_are_identical_across_time_models() {
    let (ticks, report) = run_lifecycle(TimeModel::EventDriven);
    // One snapshot per controller tick: the 1 Hz tick fires every
    // simulated second through the 63 s run (horizon + drain).
    assert_eq!(
        ticks.len() as u64,
        HORIZON_SECS + DRAIN_SECS,
        "audit hook must fire exactly once per controller tick"
    );
    let f = &ticks.last().expect("ticks recorded");
    assert!(f.contains("cold_starts"), "snapshots carry function accounting: {f}");
    let (dense_ticks, dense_report) = run_lifecycle(TimeModel::DenseQuantum);
    assert_eq!(dense_ticks.len(), ticks.len(), "tick cadence differs between time models");
    for (i, (a, b)) in ticks.iter().zip(&dense_ticks).enumerate() {
        assert_eq!(a, b, "audit snapshot {i} diverged under the dense stepper");
    }
    assert_eq!(dense_report, report, "dense report diverged from the event core");
}
