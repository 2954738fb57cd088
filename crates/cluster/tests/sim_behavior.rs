//! Behavioural tests of the cluster simulator's public API, exercising
//! serving, training, cold starts, pipelining, vertical resizes, and the
//! node-plane occupancy accounting.

use dilu_cluster::{
    cold_start_duration, named, ClusterSim, ClusterSpec, ClusterView, DeployError,
    ElasticityController, FunctionId, FunctionKind, FunctionScaleView, FunctionSpec, GpuAddr,
    Placement, PolicyFactory, QuotaView, Quotas, ScaleAction, SimConfig, TimeModel,
};
use dilu_gpu::policies::FairSharePolicy;
use dilu_gpu::SmRate;
use dilu_models::ModelId;
use dilu_sim::{SimDuration, SimTime};
use dilu_workload::{ArrivalProcess, PoissonProcess, ReplayProcess};

/// No arrivals at all: a deployed-but-idle function.
fn idle() -> Box<dyn ArrivalProcess> {
    Box::new(ReplayProcess::new([]))
}

/// Places on the first GPU (or GPUs) with enough free memory.
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

/// Scales out once at t=2s (exercises the cold-start path).
struct OneShotScaler {
    fired: bool,
    func: FunctionId,
}

impl ElasticityController for OneShotScaler {
    fn on_tick(
        &mut self,
        now: SimTime,
        _functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        if !self.fired && now >= SimTime::from_secs(2) {
            self.fired = true;
            vec![ScaleAction::ScaleOut { func: self.func, count: 1 }]
        } else {
            Vec::new()
        }
    }

    fn name(&self) -> &str {
        "one-shot"
    }
}

fn fair_factory() -> impl PolicyFactory {
    // `named` over a bare closure: the factory reports "fair-share"
    // instead of the blanket impl's "closure-policy".
    named("fair-share", || Box::new(FairSharePolicy))
}

fn inference_spec(id: u32, model: ModelId, batch: u32) -> FunctionSpec {
    let profile = model.profile();
    let sat = profile.inference_sat(batch);
    FunctionSpec {
        id: FunctionId(id),
        name: format!("{}-inf", profile.name),
        model,
        kind: FunctionKind::Inference { slo: profile.slo, batch },
        quotas: Quotas::new(sat, sat.scale(2.0), profile.infer_mem_bytes),
        gpus_per_instance: 1,
    }
}

#[test]
fn single_inference_function_serves_requests() {
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec = inference_spec(1, ModelId::RobertaLarge, 4);
    let arrivals = PoissonProcess::new(20.0, 7).generate(SimTime::from_secs(20));
    let expected = arrivals.len() as u64;
    sim.deploy_inference(spec, 1, Box::new(ReplayProcess::new(arrivals)), SimTime::MAX).unwrap();
    sim.run_until(SimTime::from_secs(25));
    let report = sim.into_report();
    let f = &report.inference[&FunctionId(1)];
    assert_eq!(f.arrived, expected);
    assert!(f.completed >= expected * 95 / 100, "completed {}/{}", f.completed, expected);
    // Solo at full grant: latency ≈ exec time + batching wait, well under SLO.
    assert!(f.svr() < 0.05, "svr {}", f.svr());
    assert!(f.latency.p50() >= SimDuration::from_millis(5));
}

#[test]
fn training_job_completes_and_frees_gpus() {
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(4),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let model = ModelId::BertBase;
    let spec = FunctionSpec {
        id: FunctionId(1),
        name: "bert-train".into(),
        model,
        kind: FunctionKind::Training { workers: 2, iterations: 20 },
        quotas: Quotas::equal(SmRate::from_percent(60.0), model.profile().training.mem_bytes),
        gpus_per_instance: 1,
    };
    sim.deploy_training(spec).unwrap();
    // FirstFit packs both 6 GB workers onto GPU 0; both saturate at 50%
    // so they still run at full rate side by side.
    assert_eq!(sim.occupied_gpus(), 1);
    // 20 iterations × (60+25) ms ≈ 1.7 s.
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(sim.occupied_gpus(), 0, "workers must be released at completion");
    let report = sim.into_report();
    let t = &report.training[&FunctionId(1)];
    assert_eq!(t.iterations_done, 20);
    let jct = t.jct().expect("job finished");
    let ideal = SimDuration::from_millis((60 + 25) * 20);
    // Completion timestamps land at exact block-finish instants (not
    // quantum starts), so the JCT can never undercut the analytic
    // ideal — only microsecond quantisation slack remains.
    assert!(jct >= ideal.mul_f64(0.9999), "jct {jct} vs ideal {ideal}");
    assert!(jct <= ideal.mul_f64(1.3), "jct {jct} too slow");
    let thr = t.throughput(report.horizon);
    assert!(thr > 0.0);
}

#[test]
fn cold_started_instance_picks_up_backlog() {
    let spec = inference_spec(1, ModelId::ResNet152, 4);
    let func = spec.id;
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(1),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(OneShotScaler { fired: false, func }),
        &fair_factory(),
    );
    // No initial instances: everything backlogs until the scaler fires.
    let arrivals = Box::new(PoissonProcess::new(5.0, 3));
    sim.deploy_inference(spec, 0, arrivals, SimTime::from_secs(10)).unwrap();
    sim.run_until(SimTime::from_secs(20));
    let report = sim.into_report();
    let f = &report.inference[&func];
    assert_eq!(f.cold_starts.count(), 1);
    assert!(f.completed > 0, "backlog must drain after cold start");
    // Early requests waited out the entire cold start (the scaler fired
    // at t=2 s, the first arrivals landed before that): with exact
    // completion timestamps the full cold-start delay is a hard lower
    // bound on the worst latency, no half-delay slack needed.
    assert!(f.latency.quantile(1.0) >= cold_start_duration(ModelId::ResNet152));
}

/// Pins the occupancy semantics of cold-starting instances: their engine
/// slots are admitted at launch, so the hosting GPU counts as occupied
/// from the scale-out instant — before the instance can serve — and the
/// O(1) counter agrees with a full engine scan at every probe.
#[test]
fn cold_starting_instances_occupy_their_gpus() {
    let spec = inference_spec(1, ModelId::ResNet152, 4);
    let func = spec.id;
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(OneShotScaler { fired: false, func }),
        &fair_factory(),
    );
    let arrivals = Box::new(PoissonProcess::new(5.0, 3));
    sim.deploy_inference(spec, 0, arrivals, SimTime::from_secs(6)).unwrap();
    assert_eq!(sim.occupied_gpus(), 0, "no instances yet");
    // Run past the scaler's t=2 s scale-out but not past the ResNet-152
    // cold start (≥ 1 s): the instance is still ColdStarting.
    sim.run_until(SimTime::from_secs(3));
    assert_eq!(sim.ready_instances(func), 0, "instance must still be cold-starting");
    assert_eq!(
        sim.occupied_gpus(),
        1,
        "a cold-starting instance reserves its GPU from the launch instant"
    );
    // After promotion and the traffic tail the instance keeps serving.
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.ready_instances(func), 1);
    assert_eq!(sim.occupied_gpus(), 1);
}

#[test]
fn pipelined_llm_instance_spans_gpus() {
    let model = ModelId::Llama2_7b;
    let profile = model.profile();
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(4),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec = FunctionSpec {
        id: FunctionId(1),
        name: "llama-inf".into(),
        model,
        kind: FunctionKind::Inference { slo: profile.slo, batch: 2 },
        quotas: Quotas::new(
            SmRate::from_percent(40.0),
            SmRate::from_percent(80.0),
            profile.infer_mem_bytes / 4,
        ),
        gpus_per_instance: 4,
    };
    let arrivals = PoissonProcess::new(2.0, 5).generate(SimTime::from_secs(20));
    let expected = arrivals.len() as u64;
    sim.deploy_inference(spec, 1, Box::new(ReplayProcess::new(arrivals)), SimTime::MAX).unwrap();
    assert_eq!(sim.occupied_gpus(), 4, "stages must land on 4 GPUs");
    sim.run_until(SimTime::from_secs(30));
    let report = sim.into_report();
    let f = &report.inference[&FunctionId(1)];
    assert!(f.completed >= expected * 9 / 10, "completed {}/{}", f.completed, expected);
    // Per-token display latency should be in tens of ms.
    assert!(f.p95_display() < SimDuration::from_millis(200));
}

/// Resizes a function's quotas at t=2 s and records the quota views it
/// is shown afterwards (shared out through `Rc` so the test can assert
/// on what the control plane actually saw).
struct ResizeProbe {
    func: FunctionId,
    fired: bool,
    seen: std::rc::Rc<std::cell::RefCell<Vec<QuotaView>>>,
}

impl ElasticityController for ResizeProbe {
    fn on_tick(
        &mut self,
        now: SimTime,
        functions: &[FunctionScaleView],
        cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        assert_eq!(cluster.gpus.len(), 2, "controller sees the whole cluster");
        if let Some(f) = functions.iter().find(|f| f.func == self.func) {
            self.seen.borrow_mut().push(f.quota);
        }
        if !self.fired && now >= SimTime::from_secs(2) {
            self.fired = true;
            return vec![ScaleAction::ResizeQuota {
                func: self.func,
                request: SmRate::from_percent(80.0),
                limit: SmRate::from_percent(90.0),
            }];
        }
        Vec::new()
    }

    fn name(&self) -> &str {
        "resize-probe"
    }
}

#[test]
fn vertical_resizes_apply_and_are_counted() {
    let spec = inference_spec(1, ModelId::RobertaLarge, 4);
    let func = spec.id;
    let (req0, lim0) = (spec.quotas.request, spec.quotas.limit);
    let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(ResizeProbe { func, fired: false, seen: seen.clone() }),
        &fair_factory(),
    );
    let arrivals = Box::new(PoissonProcess::new(10.0, 7));
    sim.deploy_inference(spec, 1, arrivals, SimTime::from_secs(6)).unwrap();
    sim.run_until(SimTime::from_secs(6));
    let report = sim.into_report();
    let f = &report.inference[&func];
    assert_eq!(f.resizes.grows(), 1, "one grow resize");
    assert_eq!(f.resizes.total(), 1);
    assert_eq!(report.total_resizes(), 1);
    assert_eq!(f.cold_starts.count(), 0, "vertical scaling pays no cold start");
    let seen = seen.borrow();
    // Before the resize the controller saw the deployed quotas.
    let before = seen.first().expect("ticks before the resize");
    assert_eq!((before.request, before.limit), (req0, lim0));
    assert_eq!((before.profiled_request, before.profiled_limit), (req0, lim0));
    assert!(before.capacity_rps_at_limit > 0.0);
    // Within one tick of the decision (1 ms apply latency ≪ 1 s tick)
    // the views reflect the new quotas, and the profiled ones stay put.
    let after = seen.last().expect("ticks after the resize");
    assert_eq!(after.request, SmRate::from_percent(80.0));
    assert_eq!(after.limit, SmRate::from_percent(90.0));
    assert_eq!((after.profiled_request, after.profiled_limit), (req0, lim0));
}

/// Re-emits the same grow every tick until the spec reflects it — the
/// steady-state behaviour of a real controller whose decision stands
/// until applied.
struct PersistentResizer {
    func: FunctionId,
    target: SmRate,
}

impl ElasticityController for PersistentResizer {
    fn on_tick(
        &mut self,
        _now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        match functions.iter().find(|f| f.func == self.func) {
            Some(f) if f.quota.request < self.target => vec![ScaleAction::ResizeQuota {
                func: self.func,
                request: self.target,
                limit: self.target,
            }],
            _ => Vec::new(),
        }
    }

    fn name(&self) -> &str {
        "persistent-resizer"
    }
}

#[test]
fn resize_apply_matches_dense_stepping() {
    // The controller's decision is due 1 ms after the tick that made it —
    // after this wake's apply phase already ran. The event core must apply
    // it at the next quantum (where the dense stepper first sees it), not
    // re-wake and re-step the same instant.
    let run = |time_model: TimeModel| {
        let spec = inference_spec(1, ModelId::BertBase, 4);
        let func = spec.id;
        let config = SimConfig { time_model, ..SimConfig::default() };
        let mut sim = ClusterSim::new(
            ClusterSpec::single_node(1),
            config,
            Box::new(FirstFit),
            Box::new(PersistentResizer { func, target: SmRate::from_percent(70.0) }),
            &fair_factory(),
        );
        let arrivals = Box::new(PoissonProcess::new(20.0, 5));
        sim.deploy_inference(spec, 1, arrivals, SimTime::from_secs(6)).unwrap();
        // A collocated always-busy training worker guarantees the GPU
        // is mid-work at the instant the resize decision lands — a
        // same-instant re-wake would step it twice and double-issue
        // kernel blocks.
        let train = FunctionSpec {
            id: FunctionId(2),
            name: "train".into(),
            model: ModelId::BertBase,
            kind: FunctionKind::Training { workers: 1, iterations: 10_000 },
            quotas: Quotas::equal(
                SmRate::from_percent(30.0),
                ModelId::BertBase.profile().training.mem_bytes,
            ),
            gpus_per_instance: 1,
        };
        sim.deploy_training(train).unwrap();
        sim.run_until(SimTime::from_secs(8));
        sim.into_report()
    };
    let dense = run(TimeModel::DenseQuantum);
    let event = run(TimeModel::EventDriven);
    assert_eq!(dense.total_resizes(), 1);
    assert_eq!(
        format!("{dense:?}"),
        format!("{event:?}"),
        "resizes must not desynchronise the time models"
    );
}

#[test]
fn a_re_requested_resize_retargets_the_pending_one() {
    // Two resizes of one function in one tick: the second finds the first
    // still pending and retargets it, so one resize applies, with the
    // second action's quotas.
    let spec = inference_spec(1, ModelId::BertBase, 4);
    let func = spec.id;
    let resize = |request: f64, limit: f64| ScaleAction::ResizeQuota {
        func,
        request: SmRate::from_percent(request),
        limit: SmRate::from_percent(limit),
    };
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(1),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(ActOnce(vec![resize(60.0, 60.0), resize(70.0, 80.0)])),
        &fair_factory(),
    );
    let arrivals = Box::new(PoissonProcess::new(5.0, 3));
    sim.deploy_inference(spec, 1, arrivals, SimTime::from_secs(4)).unwrap();
    sim.run_until(SimTime::from_secs(4));
    let audit = sim.audit();
    let gpu = &audit.gpus[0];
    assert_eq!(gpu.sum_request, SmRate::from_percent(70.0).as_fraction());
    assert_eq!(gpu.sum_limit, SmRate::from_percent(80.0).as_fraction());
    let report = sim.into_report();
    assert_eq!(report.inference[&func].resizes.total(), 1, "the two requests apply as one");
}

#[test]
fn duplicate_deployment_is_rejected() {
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(1),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec = inference_spec(1, ModelId::BertBase, 4);
    sim.deploy_inference(spec.clone(), 0, idle(), SimTime::MAX).unwrap();
    let err = sim.deploy_inference(spec, 0, idle(), SimTime::MAX).unwrap_err();
    assert_eq!(err, DeployError::DuplicateFunction(FunctionId(1)));
}

/// BROKEN: answers every request with the same addresses, whatever the
/// function needs and whatever the grid looks like.
struct FixedPlacement(Vec<GpuAddr>);

impl Placement for FixedPlacement {
    fn place(&mut self, _func: &FunctionSpec, _cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        Some(self.0.clone())
    }

    fn name(&self) -> &str {
        "fixed"
    }
}

/// Deploys one prewarmed instance of `spec` on a 2 × 2 grid.
fn deploy_placed_by(placement: FixedPlacement, spec: FunctionSpec) {
    let mut sim = ClusterSim::new(
        ClusterSpec { nodes: 2, gpus_per_node: 2, ..ClusterSpec::paper_testbed() },
        SimConfig::default(),
        Box::new(placement),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let _ = sim.deploy_inference(spec, 1, idle(), SimTime::MAX);
}

#[test]
#[should_panic(expected = "placement `fixed` returned [GpuAddr { node: 0, gpu: 2 }]")]
fn off_grid_placement_panics() {
    // GPU 2 of node 0 does not exist; in the dense GPU array it would be
    // node 1's GPU 0.
    let off_grid = FixedPlacement(vec![GpuAddr { node: 0, gpu: 2 }]);
    deploy_placed_by(off_grid, inference_spec(1, ModelId::BertBase, 4));
}

#[test]
#[should_panic(expected = "placement `fixed` returned [GpuAddr { node: 1, gpu: 0 }]")]
fn placement_with_too_few_gpus_panics() {
    let mut spec = inference_spec(1, ModelId::BertBase, 4);
    spec.gpus_per_instance = 2;
    deploy_placed_by(FixedPlacement(vec![GpuAddr { node: 1, gpu: 0 }]), spec);
}

/// Emits its actions at the first controller tick, then nothing.
struct ActOnce(Vec<ScaleAction>);

impl ElasticityController for ActOnce {
    fn on_tick(
        &mut self,
        _now: SimTime,
        _functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        std::mem::take(&mut self.0)
    }

    fn name(&self) -> &str {
        "act-once"
    }
}

/// A BERT inference spec reserving `mem_gb` GB per GPU.
fn bert_with_memory(id: u32, mem_gb: u64) -> FunctionSpec {
    let mut spec = inference_spec(id, ModelId::BertBase, 4);
    spec.name = format!("bert-{id}");
    spec.quotas.mem_bytes = mem_gb * dilu_gpu::GB;
    spec
}

/// A placement that ignores memory answers a full GPU; the engine then
/// refuses the slot. The refused launch must leave nothing behind: no
/// cold start on the function's record and, with a network plane, no
/// weight fetch for an instance that does not exist.
#[test]
fn rejected_admission_leaves_no_cold_start_or_fetch() {
    for network in [None, Some(dilu_net::NetworkConfig::default())] {
        let lane = if network.is_some() { "network" } else { "flat" };
        let scale_out = ActOnce(vec![ScaleAction::ScaleOut { func: FunctionId(2), count: 1 }]);
        let mut sim = ClusterSim::new(
            ClusterSpec::single_node(1),
            SimConfig { network, ..SimConfig::default() },
            Box::new(FixedPlacement(vec![GpuAddr { node: 0, gpu: 0 }])),
            Box::new(scale_out),
            &fair_factory(),
        );
        // 30 GB resident on the 40 GB GPU; the 20 GB scale-out cannot fit.
        sim.deploy_inference(bert_with_memory(1, 30), 1, idle(), SimTime::MAX).unwrap();
        sim.deploy_inference(bert_with_memory(2, 20), 0, idle(), SimTime::MAX).unwrap();
        sim.run_until(SimTime::from_secs(2));
        let audit = sim.audit();
        let f = audit.functions.iter().find(|f| f.func == FunctionId(2)).expect("fn-2 audited");
        assert_eq!(f.starting_instances + f.ready_instances, 0, "{lane}: nothing was admitted");
        assert_eq!(f.cold_starts, 0, "{lane}: a refused launch recorded a cold start");
        assert_eq!(audit.gpus[0].residents, 1, "{lane}: only the resident holds GPU 0");
        if let Some(net) = audit.network {
            assert_eq!(
                (net.requested_bytes, net.active_flows, net.inflight_bytes),
                (0, 0, 0),
                "{lane}: a refused launch started a weight fetch"
            );
        }
    }
}

/// After one shape is refused, a smaller shape that still fits is placed
/// in the same tick: the refusal memo is per shape, not a "cluster is
/// full" flag.
#[test]
fn refused_shape_does_not_block_smaller_shapes_in_the_same_tick() {
    let actions = vec![
        ScaleAction::ScaleOut { func: FunctionId(2), count: 2 },
        ScaleAction::ScaleOut { func: FunctionId(3), count: 1 },
    ];
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(1),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(ActOnce(actions)),
        &fair_factory(),
    );
    sim.deploy_inference(bert_with_memory(1, 30), 1, idle(), SimTime::MAX).unwrap();
    sim.deploy_inference(bert_with_memory(2, 20), 0, idle(), SimTime::MAX).unwrap();
    sim.deploy_inference(bert_with_memory(3, 5), 0, idle(), SimTime::MAX).unwrap();
    sim.run_until(SimTime::from_secs(2));
    let audit = sim.audit();
    let instances = |id: u32| {
        let f = audit.functions.iter().find(|f| f.func == FunctionId(id)).expect("audited");
        f.starting_instances + f.ready_instances
    };
    assert_eq!(instances(2), 0, "20 GB cannot fit next to the 30 GB resident");
    assert_eq!(instances(3), 1, "5 GB still fits after the 20 GB shape was refused");
}

/// The tick finds a scale-out's function with a cursor that assumes
/// ascending ids; scale-outs out of id order must launch all the same.
#[test]
fn scale_outs_out_of_id_order_all_launch() {
    let actions =
        [3, 1, 2, 5].map(|id| ScaleAction::ScaleOut { func: FunctionId(id), count: 1 }).to_vec();
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(1),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(ActOnce(actions)),
        &fair_factory(),
    );
    for id in 1..=4 {
        sim.deploy_inference(bert_with_memory(id, 5), 0, idle(), SimTime::MAX).unwrap();
    }
    sim.run_until(SimTime::from_secs(2));
    let audit = sim.audit();
    let launched: Vec<u32> = audit
        .functions
        .iter()
        .filter(|f| f.starting_instances + f.ready_instances > 0)
        .map(|f| f.func.0)
        .collect();
    assert_eq!(launched, [1, 2, 3], "fn-5 is not deployed and fn-4 was not scaled out");
}

/// BROKEN: refuses odd function ids whatever the view, so its refusals
/// depend on identity, which the `Placement` contract forbids.
struct RefuseOddIds;

impl Placement for RefuseOddIds {
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        func.id.0.is_multiple_of(2).then(|| vec![cluster.gpus[0].addr])
    }

    fn name(&self) -> &str {
        "refuse-odd-ids"
    }
}

/// fn-1 is refused, so the memo skips fn-2 of the same shape; the debug
/// oracle re-runs the placement for the skip and must catch that it
/// would have placed.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "placement `refuse-odd-ids` broke the `Placement` contract")]
fn memo_oracle_catches_identity_dependent_refusals() {
    let actions = vec![
        ScaleAction::ScaleOut { func: FunctionId(1), count: 1 },
        ScaleAction::ScaleOut { func: FunctionId(2), count: 1 },
    ];
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(1),
        SimConfig::default(),
        Box::new(RefuseOddIds),
        Box::new(ActOnce(actions)),
        &fair_factory(),
    );
    sim.deploy_inference(bert_with_memory(1, 5), 0, idle(), SimTime::MAX).unwrap();
    sim.deploy_inference(bert_with_memory(2, 5), 0, idle(), SimTime::MAX).unwrap();
    sim.run_until(SimTime::from_secs(2));
}

#[test]
fn report_contains_fragmentation_and_occupancy_series() {
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec = inference_spec(1, ModelId::BertBase, 4);
    let arrivals = Box::new(PoissonProcess::new(10.0, 1));
    sim.deploy_inference(spec, 1, arrivals, SimTime::from_secs(5)).unwrap();
    sim.run_until(SimTime::from_secs(6));
    let report = sim.into_report();
    assert!(!report.fragmentation.is_empty());
    assert!(report.peak_gpus >= 1);
    assert!(report.gpu_time >= SimDuration::from_secs(4));
    assert!(report.total_kernel_series.iter().map(|&(_, b)| b).sum::<u64>() > 0);
    // BERT is tiny and bursts are short: the occupied GPU runs far below
    // 100% SM — static exclusive occupancy shows up as fragmentation.
    assert!(report.fragmentation.mean_sm_fragmentation() > 0.3);
}

/// Emits each action at the first tick at or after its second.
struct Script(Vec<(u64, ScaleAction)>);

impl ElasticityController for Script {
    fn on_tick(
        &mut self,
        now: SimTime,
        _functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        let (due, later) = self.0.iter().partition(|&&(sec, _)| now >= SimTime::from_secs(sec));
        self.0 = later;
        due.into_iter().map(|(_, action)| action).collect::<Vec<_>>()
    }

    fn name(&self) -> &str {
        "script"
    }
}

/// Pins the per-function instance counters through one instance's whole
/// life on both time models: `ready_instances` and the audit's state
/// counts read them, not the instance list.
#[test]
fn ready_instances_follow_launch_promote_drain_terminate() {
    let spec = bert_with_memory(1, 5);
    let func = spec.id;
    let cold_start = cold_start_duration(spec.model);
    assert!(cold_start < SimDuration::from_secs(3), "BERT-base promotes before t = 5 s");
    for time_model in [TimeModel::EventDriven, TimeModel::DenseQuantum] {
        let script = Script(vec![
            (1, ScaleAction::ScaleOut { func, count: 1 }),
            (6, ScaleAction::ScaleIn { func, count: 1 }),
        ]);
        let mut sim = ClusterSim::new(
            ClusterSpec::single_node(1),
            SimConfig { time_model, ..SimConfig::default() },
            Box::new(FirstFit),
            Box::new(script),
            &fair_factory(),
        );
        sim.deploy_inference(spec.clone(), 0, idle(), SimTime::MAX).unwrap();
        let states = |sim: &ClusterSim| {
            let audit = sim.audit();
            let f = audit.functions.iter().find(|f| f.func == func).expect("fn-1 audited");
            (sim.ready_instances(func), f.starting_instances, f.draining_instances)
        };
        assert_eq!(states(&sim), (0, 0, 0), "{time_model:?}: deployed with no instance");
        // The scale-out lands at the 1.995 s tick.
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(states(&sim), (0, 1, 0), "{time_model:?}: launched, cold-starting");
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(states(&sim), (1, 0, 0), "{time_model:?}: promoted");
        // The scale-in lands at the 6.995 s tick; the idle instance is
        // reaped at the next quantum.
        sim.run_until(SimTime::from_secs(7));
        assert_eq!(states(&sim), (0, 0, 1), "{time_model:?}: draining");
        sim.run_until(SimTime::from_secs(8));
        assert_eq!(states(&sim), (0, 0, 0), "{time_model:?}: terminated");
        assert_eq!(sim.occupied_gpus(), 0, "{time_model:?}: the GPU is free again");
    }
}

/// Places on the first GPU whose unreserved guaranteed SM covers the
/// spec's `request`: a refusal that depends on the current quotas.
struct RequestFit;

impl Placement for RequestFit {
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        let gpu = cluster.gpus.iter().find(|g| {
            g.request_slack() >= func.quotas.request && g.mem_free() >= func.quotas.mem_bytes
        })?;
        Some(vec![gpu.addr])
    }

    fn name(&self) -> &str {
        "request-fit"
    }
}

/// fn-2 and fn-3 deploy with one shape, whose 50 % request does not fit
/// next to fn-1's 60 %. fn-3 is then shrunk to a 30 % request, and in the
/// tick where fn-2 is refused, fn-3 must still launch: the refusal memo
/// judges it by its current shape, not by the one it was deployed with.
#[test]
fn a_resized_function_is_judged_by_its_current_shape() {
    let with_request = |id: u32, request: f64| {
        let mut spec = bert_with_memory(id, 5);
        let request = SmRate::from_fraction(request);
        spec.quotas = Quotas::new(request, request.scale(2.0), spec.quotas.mem_bytes);
        spec
    };
    let (refused, resized) = (FunctionId(2), FunctionId(3));
    for time_model in [TimeModel::EventDriven, TimeModel::DenseQuantum] {
        let shrink = SmRate::from_fraction(0.3);
        let script = Script(vec![
            (1, ScaleAction::ResizeQuota { func: resized, request: shrink, limit: shrink }),
            (2, ScaleAction::ScaleOut { func: refused, count: 1 }),
            (2, ScaleAction::ScaleOut { func: resized, count: 1 }),
        ]);
        let mut sim = ClusterSim::new(
            ClusterSpec::single_node(1),
            SimConfig { time_model, ..SimConfig::default() },
            Box::new(RequestFit),
            Box::new(script),
            &fair_factory(),
        );
        sim.deploy_inference(with_request(1, 0.6), 1, idle(), SimTime::MAX).unwrap();
        sim.deploy_inference(with_request(2, 0.5), 0, idle(), SimTime::MAX).unwrap();
        sim.deploy_inference(with_request(3, 0.5), 0, idle(), SimTime::MAX).unwrap();
        // The resize is decided at the 1.995 s tick and applies 1 ms later;
        // the scale-outs come at the 2.995 s tick.
        sim.run_until(SimTime::from_secs(3));
        let audit = sim.audit();
        let f = |id: FunctionId| {
            let f = audit.functions.iter().find(|f| f.func == id).expect("audited");
            (f.starting_instances + f.ready_instances, f.resize_shrinks)
        };
        assert_eq!(f(refused), (0, 0), "{time_model:?}: 50 % does not fit next to 60 %");
        assert_eq!(f(resized), (1, 1), "{time_model:?}: the shrunk function launched");
    }
}

/// Scales a function out when work waits and nothing serves it, grows
/// the quotas of a backed-up function, and scales in after 3 s idle.
struct Reactive;

impl ElasticityController for Reactive {
    fn on_tick(
        &mut self,
        _now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        let grown = SmRate::from_percent(50.0);
        functions
            .iter()
            .filter_map(|f| {
                if f.backlog > 0 && f.ready_instances + f.starting_instances == 0 {
                    Some(ScaleAction::ScaleOut { func: f.func, count: 1 })
                } else if f.backlog >= 4 && f.quota.request < grown {
                    Some(ScaleAction::ResizeQuota { func: f.func, request: grown, limit: grown })
                } else if f.ready_instances > 0 && f.max_idle >= SimDuration::from_secs(3) {
                    Some(ScaleAction::ScaleIn { func: f.func, count: 1 })
                } else {
                    None
                }
            })
            .collect()
    }

    fn name(&self) -> &str {
        "reactive"
    }
}

/// The function table answers lookups and walks in id order whatever
/// order the functions were deployed in: ascending, descending or
/// shuffled deploys give byte-identical reports on both time models. A
/// training job deployed mid-run under the smallest id lands out of order
/// in every case.
#[test]
fn deploy_order_does_not_change_the_report() {
    let ascending: Vec<u32> = (1..=12).collect();
    let descending: Vec<u32> = ascending.iter().rev().copied().collect();
    let shuffled = vec![7, 2, 11, 5, 12, 1, 9, 4, 10, 3, 8, 6];
    let run = |order: &[u32], time_model: TimeModel| {
        let mut sim = ClusterSim::new(
            ClusterSpec::single_node(1),
            SimConfig { time_model, ..SimConfig::default() },
            Box::new(FirstFit),
            Box::new(Reactive),
            &fair_factory(),
        );
        // 9 GB each: four instances fit the 40 GB GPU, so most
        // scale-outs are refused, and 4 GB stay free for the trainer.
        for &id in order {
            let arrivals = Box::new(PoissonProcess::new(3.0, u64::from(id)));
            sim.deploy_inference(bert_with_memory(id, 9), 0, arrivals, SimTime::from_secs(15))
                .unwrap();
        }
        let model = ModelId::BertBase;
        let train = FunctionSpec {
            id: FunctionId(0),
            name: "train".into(),
            model,
            kind: FunctionKind::Training { workers: 1, iterations: 40 },
            quotas: Quotas::equal(SmRate::from_percent(30.0), 4 * dilu_gpu::GB),
            gpus_per_instance: 1,
        };
        sim.schedule_training(train, SimTime::from_secs(3)).unwrap();
        sim.run_until(SimTime::from_secs(20));
        sim.into_report()
    };
    let report_json = |order: &[u32], time_model: TimeModel| {
        serde_json::to_string(&run(order, time_model)).expect("reports serialize")
    };
    let report = run(&ascending, TimeModel::EventDriven);
    let sum = |count: fn(&dilu_cluster::FunctionReport) -> u64| {
        report.inference.values().map(count).sum::<u64>()
    };
    // The run churns: scale-ins make room for more cold starts than the
    // GPU holds instances, resizes apply, and the trainer finishes.
    assert!(sum(|f| f.cold_starts.count()) > 4, "too few cold starts to churn");
    assert!(sum(|f| f.resizes.total()) > 0, "no resize applied");
    assert_eq!(report.training[&FunctionId(0)].iterations_done, 40);
    let reference = serde_json::to_string(&report).expect("reports serialize");
    for time_model in [TimeModel::EventDriven, TimeModel::DenseQuantum] {
        for (name, order) in [("ascending", &ascending), ("descending", &descending)] {
            assert!(
                report_json(order, time_model) == reference,
                "{name} deploys on {time_model:?} changed the report"
            );
        }
        assert!(
            report_json(&shuffled, time_model) == reference,
            "shuffled deploys on {time_model:?} changed the report"
        );
    }
}
