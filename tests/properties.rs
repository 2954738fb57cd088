//! Property-based tests on cross-crate invariants.

use dilu::cluster::{
    ClusterReport, ClusterSpec, ClusterView, FunctionId, FunctionKind, FunctionSpec, GpuView,
    Placement, Quotas, ResidentInfo, TimeModel,
};
use dilu::gpu::policies::FairSharePolicy;
use dilu::gpu::{GpuEngine, InstanceId, SlotConfig, SmRate, TaskClass, WorkItem, GB};
use dilu::metrics::LatencyRecorder;
use dilu::rckm::{RckmConfig, RckmPolicy};
use dilu::scheduler::{DiluScheduler, SchedulerConfig};
use dilu::sim::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Physical SM capacity is conserved no matter what mix of work the
    /// engine runs: Σ used ≤ 1.0 each quantum.
    #[test]
    fn engine_conserves_physical_capacity(
        sats in proptest::collection::vec(5u32..95, 1..6),
        t_mins in proptest::collection::vec(2u64..80, 1..6),
    ) {
        let mut gpu = GpuEngine::new(100 * GB);
        let n = sats.len().min(t_mins.len());
        for i in 0..n {
            let id = InstanceId(i as u64 + 1);
            gpu.admit(id, SlotConfig {
                class: if i % 2 == 0 { TaskClass::SloSensitive } else { TaskClass::BestEffort },
                request: SmRate::from_percent(30.0),
                limit: SmRate::from_percent(60.0),
                mem_bytes: GB,
            }).unwrap();
            for tag in 0..4u64 {
                gpu.push_work(id, WorkItem::compute(
                    SimDuration::from_millis(t_mins[i]),
                    SmRate::from_percent(f64::from(sats[i])),
                    100,
                    tag,
                )).unwrap();
            }
        }
        let mut policy = FairSharePolicy;
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            let out = gpu.step(now, &mut policy);
            // Work-item durations are quantised to microseconds, so the
            // accounted usage can exceed capacity by ~1 us per item per
            // 5 ms quantum; anything beyond that is a real violation.
            prop_assert!(out.total_used.as_fraction() <= 1.0 + 1e-3,
                "physical capacity exceeded: {}", out.total_used.as_fraction());
            now += dilu::gpu::QUANTUM;
            if gpu.is_idle() {
                break;
            }
        }
    }

    /// RCKM grants stay within [0, MaxTokens × whole-GPU] for any view mix.
    #[test]
    fn rckm_grants_are_bounded(
        requests in proptest::collection::vec(5u32..60, 2..5),
        inflations in proptest::collection::vec(0u32..300, 2..5),
        max_tokens in 1u32..40,
    ) {
        let max_tokens = f64::from(max_tokens) / 10.0;
        let n = requests.len().min(inflations.len());
        let views: Vec<dilu::gpu::InstanceView> = (0..n).map(|i| dilu::gpu::InstanceView {
            id: InstanceId(i as u64),
            class: if i == 0 { TaskClass::SloSensitive } else { TaskClass::BestEffort },
            request: SmRate::from_percent(f64::from(requests[i])),
            limit: SmRate::from_percent(f64::from(requests[i]) * 2.0),
            demand: SmRate::from_percent(50.0),
            queue_len: 1,
            blocks_last_quantum: 10,
            klc_inflation: f64::from(inflations[i]) / 100.0,
            idle_quanta: 0,
        }).collect();
        let mut policy = RckmPolicy::new(RckmConfig { max_tokens, ..RckmConfig::default() });
        use dilu::gpu::SharePolicy as _;
        for _ in 0..20 {
            let grants = policy.allocate(SimTime::ZERO, SimDuration::from_millis(5), &views);
            prop_assert_eq!(grants.len(), views.len());
            for g in &grants {
                prop_assert!(g.smr.as_fraction() >= 0.0);
                prop_assert!(g.smr.as_fraction() <= max_tokens.max(1.0) * 2.0 + 1e-9,
                    "grant {} too large for MaxTokens {}", g.smr.as_fraction(), max_tokens);
            }
        }
    }

    /// The scheduler never violates Ω, γ, or memory capacity, for any
    /// sequence of placements it accepts.
    #[test]
    fn scheduler_respects_caps(
        requests in proptest::collection::vec(5u32..70, 1..25),
        mems in proptest::collection::vec(1u64..20, 1..25),
    ) {
        let config = SchedulerConfig::default();
        let mut sched = DiluScheduler::new(config);
        let n = requests.len().min(mems.len());
        let mut gpus: Vec<GpuView> = (0..6).map(|i| GpuView {
            addr: dilu::cluster::GpuAddr { node: 0, gpu: i },
            mem_capacity: 40 * GB,
            mem_reserved: 0,
            residents: Vec::new(),
        }).collect();
        for i in 0..n {
            let req = SmRate::from_percent(f64::from(requests[i]));
            let spec = FunctionSpec {
                id: FunctionId(i as u32),
                name: format!("f{i}"),
                model: dilu::models::ModelId::BertBase,
                kind: FunctionKind::Inference { slo: SimDuration::from_millis(50), batch: 4 },
                quotas: Quotas::new(req, req.scale(2.0), mems[i] * GB),
                gpus_per_instance: 1,
            };
            let view = ClusterView { gpus: gpus.clone() };
            if let Some(placed) = sched.place(&spec, &view) {
                let addr = placed[0];
                let g = gpus.iter_mut().find(|g| g.addr == addr).unwrap();
                g.mem_reserved += spec.quotas.mem_bytes;
                g.residents.push(ResidentInfo {
                    func: spec.id,
                    class: TaskClass::SloSensitive,
                    request: spec.quotas.request,
                    limit: spec.quotas.limit,
                    mem_bytes: spec.quotas.mem_bytes,
                });
                prop_assert!(g.sum_requests().as_fraction() <= config.omega + 1e-9);
                prop_assert!(g.sum_limits().as_fraction() <= config.gamma + 1e-9);
                prop_assert!(g.mem_reserved <= g.mem_capacity);
            }
        }
    }

    /// Latency percentiles are monotone in the quantile and bounded by the
    /// extremes, for arbitrary samples.
    #[test]
    fn percentiles_are_monotone(samples in proptest::collection::vec(1u64..100_000, 1..200)) {
        let rec: LatencyRecorder =
            samples.iter().map(|&us| SimDuration::from_micros(us)).collect();
        let min = rec.quantile(0.0);
        let max = rec.quantile(1.0);
        let mut last = min;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = rec.quantile(q);
            prop_assert!(v >= last, "quantile regression at {q}");
            last = v;
        }
        prop_assert!(min <= max);
        prop_assert!(rec.mean() >= min && rec.mean() <= max);
    }

    /// Workload generators respect the horizon and stay sorted.
    #[test]
    fn arrivals_are_sorted_and_bounded(rate in 1u32..200, secs in 1u64..30, seed in 0u64..1000) {
        use dilu::workload::{ArrivalProcess, PoissonProcess};
        let horizon = SimTime::from_secs(secs);
        let arrivals = PoissonProcess::new(f64::from(rate), seed).generate(horizon);
        prop_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        prop_assert!(arrivals.iter().all(|&t| t < horizon));
    }
}

/// Shape of one randomized equivalence scenario.
#[derive(Debug, Clone)]
struct EquivScenario {
    gpus: u32,
    rate: f64,
    arrival_seed: u64,
    batch: u32,
    horizon_secs: u64,
    initial: u32,
    coscale: bool,
    with_training: bool,
    training_start_sec: u64,
}

/// Builds and runs the scenario under the given time model. Arrival
/// streams are generated outside (seeded), so both models serve the
/// identical request trace.
fn run_equiv(s: &EquivScenario, model: TimeModel) -> ClusterReport {
    use dilu::core::{funcs, SystemKind};
    use dilu::models::ModelId;
    use dilu::workload::{ArrivalProcess, PoissonProcess};

    let horizon = SimDuration::from_secs(s.horizon_secs);
    let arrivals = PoissonProcess::new(s.rate, s.arrival_seed).generate(SimTime::ZERO + horizon);
    let mut spec = funcs::inference_function(1, ModelId::RobertaLarge);
    if let FunctionKind::Inference { slo, .. } = spec.kind {
        spec.kind = FunctionKind::Inference { slo, batch: s.batch };
    }
    let mut builder = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec::single_node(s.gpus))
        .sim_config(dilu::cluster::SimConfig { time_model: model, ..Default::default() })
        .horizon(horizon)
        .drain(SimDuration::from_secs(3))
        .function(spec)
        .initial_instances(s.initial)
        .arrival_times(arrivals);
    if s.coscale {
        builder = builder.controller(dilu::scaler::CoScaler::new(Default::default()));
    }
    if s.with_training {
        let tspec = funcs::training_function(2, ModelId::BertBase, 1, 40);
        builder = builder.function(tspec).starts_at(SimTime::from_secs(s.training_start_sec));
    }
    builder.build().expect("scenario composes").run().expect("scenario runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The event-driven core is not an approximation: on randomized small
    /// scenarios its full report — every latency sample, timeline point,
    /// fragmentation snapshot, resize and cold-start count — is
    /// byte-identical to the dense quantum stepper's.
    #[test]
    fn event_core_matches_dense_stepper(
        gpus in 1u32..4,
        rate in 8u32..50,
        arrival_seed in 0u64..1_000,
        batch_pick in 0u32..2,
        horizon_secs in 5u64..9,
        initial in 0u32..2,
        coscale_pick in 0u32..2,
        training_pick in 0u32..2,
        training_start_sec in 0u64..4,
    ) {
        let scenario = EquivScenario {
            gpus,
            rate: f64::from(rate),
            arrival_seed,
            batch: if batch_pick == 0 { 2 } else { 4 },
            horizon_secs,
            initial,
            coscale: coscale_pick == 1,
            with_training: training_pick == 1,
            training_start_sec,
        };
        let dense = run_equiv(&scenario, TimeModel::DenseQuantum);
        let event = run_equiv(&scenario, TimeModel::EventDriven);
        let dense_json = serde_json::to_string(&dense).expect("report serializes");
        let event_json = serde_json::to_string(&event).expect("report serializes");
        prop_assert!(
            dense_json == event_json,
            "event core diverged from the dense stepper for {scenario:?}\ndense: {}\nevent: {}",
            summary(&dense),
            summary(&event),
        );
    }
}

fn summary(r: &ClusterReport) -> String {
    let f = r.inference.values().next().expect("one inference function");
    format!(
        "arrived {} completed {} svr {:.4} cold {} resizes {} p95 {} occupied {:?}",
        f.arrived,
        f.completed,
        f.svr(),
        f.cold_starts.count(),
        f.resizes.total(),
        f.latency.p95(),
        r.occupied_gpus.len(),
    )
}
/// A long-horizon deterministic case: 60 s of bursty-ish traffic drives the
/// lazy scaler through cold-start scale-outs, scale-ins, and
/// scale-to-zero, plus a late training job — the full lifecycle on both
/// time models, byte-identical.
#[test]
fn event_core_matches_dense_stepper_across_scaling_lifecycle() {
    let scenario = EquivScenario {
        gpus: 4,
        rate: 95.0,
        arrival_seed: 41,
        batch: 4,
        horizon_secs: 60,
        initial: 0,
        coscale: true,
        with_training: true,
        training_start_sec: 12,
    };
    let dense = run_equiv(&scenario, TimeModel::DenseQuantum);
    let event = run_equiv(&scenario, TimeModel::EventDriven);
    let f = event.inference.values().next().expect("inference function");
    assert!(f.cold_starts.count() > 0, "case must exercise the cold-start path");
    assert_eq!(
        serde_json::to_string(&dense).unwrap(),
        serde_json::to_string(&event).unwrap(),
        "event core diverged from the dense stepper\ndense: {}\nevent: {}",
        summary(&dense),
        summary(&event),
    );
}
