//! Streaming arrival plane: every instant passes through the bounded
//! per-function window exactly once and on time, and the lazy min-index
//! over window heads equals the O(#functions) scan it replaced.
//!
//! The contracts pinned here are the ones `ScenarioBuilder` and the
//! replay recorder lean on: the arrival hook sees the complete schedule,
//! a burst larger than [`ARRIVAL_WINDOW`] is still ingested within its
//! quantum, and `next_pending_arrival` always agrees with a full scan over
//! the pending windows.

use std::cell::RefCell;
use std::rc::Rc;

use dilu_cluster::{
    named, ClusterSim, ClusterSpec, ClusterView, ElasticityController, FunctionId, FunctionKind,
    FunctionScaleView, FunctionSpec, GpuAddr, Placement, Quotas, ScaleAction, SimConfig, TimeModel,
    ARRIVAL_WINDOW,
};
use dilu_gpu::policies::FairSharePolicy;
use dilu_models::ModelId;
use dilu_sim::SimTime;
use dilu_workload::{ArrivalProcess, GammaProcess, PoissonProcess, ReplayProcess, SynthProcess};

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

fn deploy(sim: &mut ClusterSim) {
    for ((id, process), model) in processes().into_iter().zip(MODELS) {
        sim.deploy_inference(infer_spec(id, model), 1, process, END).unwrap();
    }
}

/// The arrival hook observes the complete stream, in order and in
/// window-sized chunks — the contract the replay recorder depends on.
#[test]
fn arrival_hook_sees_the_full_stream() {
    type Chunks = Vec<(u32, Vec<SimTime>)>;
    let mut expected: Chunks =
        processes().into_iter().map(|(id, mut p)| (id, p.generate(END))).collect();
    expected.sort_by_key(|(id, _)| *id);

    let mut sim = sim_with(SimConfig::default());
    deploy(&mut sim);
    let seen: Rc<RefCell<Chunks>> = Rc::new(RefCell::new(Vec::new()));
    let tap = Rc::clone(&seen);
    sim.set_arrival_hook(Box::new(move |id, chunk| {
        tap.borrow_mut().push((id.0, chunk.to_vec()));
    }));
    sim.run_until(SimTime::from_secs(70));
    assert!(seen.borrow().iter().all(|(_, c)| !c.is_empty() && c.len() <= ARRIVAL_WINDOW));
    // Concatenate chunks per function (what replay does) and compare
    // against the full pre-generated schedules.
    let mut merged: std::collections::BTreeMap<u32, Vec<SimTime>> =
        std::collections::BTreeMap::new();
    for (id, chunk) in seen.borrow().iter() {
        merged.entry(*id).or_default().extend(chunk.iter().copied());
    }
    let merged: Chunks = merged.into_iter().collect();
    assert_eq!(merged, expected, "the hook dropped or reordered arrivals");
    // The busiest stream spans several windows, so refills mid-run are
    // on the observed path, not just the priming pull.
    let longest = expected.iter().map(|(_, times)| times.len()).max().unwrap_or(0);
    assert!(longest > 4 * ARRIVAL_WINDOW, "only {longest} instants in the busiest stream");
}

/// A burst of more than two windows' worth of instants at one instant is
/// ingested within its quantum, on both time models: a window drained
/// mid-quantum refills and keeps popping, so the cap never delays an
/// arrival.
#[test]
fn a_burst_larger_than_the_window_is_ingested_in_its_quantum() {
    let burst = 2 * ARRIVAL_WINDOW + 3;
    let at = SimTime::from_secs(1);
    for time_model in [TimeModel::EventDriven, TimeModel::DenseQuantum] {
        let mut sim = sim_with(SimConfig { time_model, ..SimConfig::default() });
        let arrivals = Box::new(ReplayProcess::new(vec![at; burst]));
        sim.deploy_inference(infer_spec(1, ModelId::BertBase), 1, arrivals, SimTime::MAX).unwrap();
        sim.run_until(at);
        let before = sim.audit();
        let func = before.function(FunctionId(1)).expect("deployed");
        assert_eq!(func.arrived, 0, "{time_model:?}: nothing is due before the burst");
        assert_eq!(func.pending_arrivals, ARRIVAL_WINDOW as u64, "{time_model:?}: window cap");

        sim.run_until(at + dilu_gpu::QUANTUM);
        let after = sim.audit();
        let func = after.function(FunctionId(1)).expect("deployed");
        assert_eq!(func.arrived, burst as u64, "{time_model:?}: burst not fully ingested");
        assert_eq!(func.pending_arrivals, 0, "{time_model:?}: instants left pending");
        assert_eq!(sim.next_pending_arrival(), None, "{time_model:?}");
    }
}

/// Satellite pin: the lazy min-heap behind `next_pending_arrival` must
/// agree with the O(#functions) scan it replaced, at deploy time and at
/// checkpoints mid-run (where windows have partially drained, refilled,
/// and gone stale in the heap).
#[test]
fn next_pending_arrival_matches_a_full_scan() {
    let mut sim = sim_with(SimConfig::default());
    deploy(&mut sim);
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
    let mut sim = sim_with(SimConfig::default());
    deploy(&mut sim);
    sim.run_until(SimTime::from_secs(120));
    assert_eq!(sim.next_pending_arrival(), None);
    assert!(
        sim.arrival_schedule().iter().all(|(_, pending)| pending.is_empty()),
        "all windows must drain once the processes are exhausted"
    );
}
