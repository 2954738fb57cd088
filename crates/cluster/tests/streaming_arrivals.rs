//! Streaming arrival plane: bounded-window pull equals up-front
//! materialization, and the lazy min-index over window heads equals the
//! O(#functions) scan it replaced.
//!
//! The contracts pinned here are the ones `ScenarioBuilder` and the
//! replay recorder lean on: a `deploy_inference_streaming` run must be
//! *indistinguishable* (byte-identical report, identical hook stream)
//! from `deploy_inference` with the pre-generated schedule, at any
//! `arrival_window`, and `next_pending_arrival` must always agree with a
//! full scan over the pending windows.

use std::cell::RefCell;
use std::rc::Rc;

use dilu_cluster::{
    named, ClusterReport, ClusterSim, ClusterSpec, ClusterView, ElasticityController, FunctionId,
    FunctionKind, FunctionScaleView, FunctionSpec, GpuAddr, Placement, Quotas, ScaleAction,
    SimConfig,
};
use dilu_gpu::policies::FairSharePolicy;
use dilu_models::ModelId;
use dilu_sim::SimTime;
use dilu_workload::{ArrivalProcess, GammaProcess, PoissonProcess, SynthProcess};

struct FirstFit;

impl Placement for FirstFit {
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        let mut chosen = Vec::new();
        for gpu in &cluster.gpus {
            if gpu.mem_free() >= func.quotas.mem_bytes && !chosen.contains(&gpu.addr) {
                chosen.push(gpu.addr);
                if chosen.len() as u32 == func.gpus_per_instance {
                    return Some(chosen);
                }
            }
        }
        None
    }

    fn name(&self) -> &str {
        "first-fit"
    }
}

struct NullScaler;

impl ElasticityController for NullScaler {
    fn on_tick(
        &mut self,
        _now: SimTime,
        _functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        Vec::new()
    }

    fn name(&self) -> &str {
        "null"
    }
}

fn sim_with(config: SimConfig) -> ClusterSim {
    ClusterSim::new(
        ClusterSpec::single_node(4),
        config,
        Box::new(FirstFit),
        Box::new(NullScaler),
        &named("fair-share", || Box::new(FairSharePolicy)),
    )
}

fn infer_spec(id: u32, model: ModelId) -> FunctionSpec {
    let profile = model.profile();
    let sat = profile.inference_sat(4);
    FunctionSpec {
        id: FunctionId(id),
        name: format!("fn-{id}"),
        model,
        kind: FunctionKind::Inference { slo: profile.slo, batch: 4 },
        quotas: Quotas::new(sat, sat.scale(2.0), profile.infer_mem_bytes),
        gpus_per_instance: 1,
    }
}

/// Three processes with different shapes/rates so the per-function
/// windows drain at different speeds (exercises index re-arming).
fn processes() -> Vec<(u32, Box<dyn ArrivalProcess>)> {
    vec![
        (1, Box::new(PoissonProcess::new(40.0, 11)) as Box<dyn ArrivalProcess>),
        (2, Box::new(GammaProcess::new(15.0, 4.0, 12))),
        (3, Box::new(SynthProcess::new(25.0, 0.8, 5.0, 0.0, 4.0, 13))),
    ]
}

const MODELS: [ModelId; 3] = [ModelId::RobertaLarge, ModelId::BertBase, ModelId::RobertaLarge];

const END: SimTime = SimTime::from_secs(60);

fn deploy_streaming(sim: &mut ClusterSim) {
    for ((id, process), model) in processes().into_iter().zip(MODELS) {
        sim.deploy_inference_streaming(infer_spec(id, model), 1, process, END).unwrap();
    }
}

fn deploy_materialized(sim: &mut ClusterSim) {
    for ((id, mut process), model) in processes().into_iter().zip(MODELS) {
        sim.deploy_inference(infer_spec(id, model), 1, process.generate(END)).unwrap();
    }
}

fn report_debug(report: &ClusterReport) -> String {
    format!("{report:?}")
}

/// Tentpole contract: a streamed deployment is indistinguishable from a
/// materialized one at every window size, including the `0 = unbounded`
/// comparison path.
#[test]
fn streaming_equals_materialized_at_every_window() {
    let mut baseline = sim_with(SimConfig::default());
    deploy_materialized(&mut baseline);
    baseline.run_until(SimTime::from_secs(70));
    let baseline = report_debug(&baseline.into_report());

    for window in [0u32, 1, 2, 7, 256] {
        let mut sim = sim_with(SimConfig { arrival_window: window, ..SimConfig::default() });
        deploy_streaming(&mut sim);
        sim.run_until(SimTime::from_secs(70));
        let streamed = report_debug(&sim.into_report());
        assert_eq!(
            streamed, baseline,
            "arrival_window = {window} diverged from the materialized run"
        );
    }
}

/// The arrival hook observes the complete stream, in order, regardless of
/// how refills chunk it — the contract the replay recorder depends on.
#[test]
fn arrival_hook_sees_the_full_stream_at_any_chunking() {
    type Chunks = Vec<(u32, Vec<SimTime>)>;
    let mut expected: Chunks =
        processes().into_iter().map(|(id, mut p)| (id, p.generate(END))).collect();
    expected.sort_by_key(|(id, _)| *id);

    for window in [1u32, 3, 64, 0] {
        let mut sim = sim_with(SimConfig { arrival_window: window, ..SimConfig::default() });
        deploy_streaming(&mut sim);
        let seen: Rc<RefCell<Chunks>> = Rc::new(RefCell::new(Vec::new()));
        let tap = Rc::clone(&seen);
        sim.set_arrival_hook(Box::new(move |id, chunk| {
            tap.borrow_mut().push((id.0, chunk.to_vec()));
        }));
        sim.run_until(SimTime::from_secs(70));
        // Concatenate chunks per function (what replay does) and compare
        // against the full pre-generated schedules.
        let mut merged: std::collections::BTreeMap<u32, Vec<SimTime>> =
            std::collections::BTreeMap::new();
        for (id, chunk) in seen.borrow().iter() {
            merged.entry(*id).or_default().extend(chunk.iter().copied());
        }
        let merged: Chunks = merged.into_iter().collect();
        assert_eq!(merged, expected, "window {window} dropped or reordered arrivals");
        if window == 1 {
            // Every chunk is a singleton, so the hook fires once per
            // arrival — the boundary-heavy worst case.
            assert!(seen.borrow().iter().all(|(_, c)| c.len() == 1));
        }
    }
}

/// Satellite pin: the lazy min-heap behind `next_pending_arrival` must
/// agree with the O(#functions) scan it replaced, at deploy time and at
/// checkpoints mid-run (where windows have partially drained, refilled,
/// and gone stale in the heap).
#[test]
fn next_pending_arrival_matches_a_full_scan() {
    let mut sim = sim_with(SimConfig { arrival_window: 3, ..SimConfig::default() });
    deploy_streaming(&mut sim);
    let mut checked = 0usize;
    for checkpoint in [0u64, 1, 2, 5, 13, 30, 59, 61, 70] {
        sim.run_until(SimTime::from_secs(checkpoint));
        let scan: Option<SimTime> =
            sim.arrival_schedule().iter().filter_map(|(_, pending)| pending.first().copied()).min();
        assert_eq!(sim.next_pending_arrival(), scan, "index/scan mismatch at t={checkpoint}s");
        checked += usize::from(scan.is_some());
    }
    // The checkpoints must actually exercise the live case, not just the
    // drained tail.
    assert!(checked >= 4, "only {checked} checkpoints had pending arrivals");
}

/// An exhausted stream is dropped (its memory freed) and the window
/// invariant holds: a live stream implies a non-empty window after any
/// run boundary.
#[test]
fn exhausted_streams_are_dropped() {
    let mut sim = sim_with(SimConfig { arrival_window: 4, ..SimConfig::default() });
    deploy_streaming(&mut sim);
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(sim.next_pending_arrival(), None);
    assert!(
        sim.arrival_schedule().iter().all(|(_, pending)| pending.is_empty()),
        "all windows must drain once the processes are exhausted"
    );
}
