//! Integration tests of the open composition API: `ScenarioBuilder`,
//! `ScenarioConfig` round-trips, registry lookups, and the guarantee that
//! every `SystemKind` preset composes exactly what the pre-redesign closed
//! composition did.

use dilu::cluster::{ClusterReport, ClusterSim, ClusterSpec, DeployError, FunctionId, SimConfig};
use dilu::core::experiments;
use dilu::core::{
    build_sim, funcs, Registry, Scenario, ScenarioBuilder, ScenarioConfig, ScenarioError,
    SystemKind,
};
use dilu::models::ModelId;
use dilu::sim::SimTime;
use dilu::workload::PoissonProcess;

// ---------------------------------------------------------------------------
// Builder misuse → typed errors, not panics
// ---------------------------------------------------------------------------

#[test]
fn missing_components_are_typed_errors() {
    let err = Scenario::builder()
        .function(funcs::inference_function(1, ModelId::BertBase))
        .arrival_times(Vec::new())
        .build();
    assert!(matches!(err, Err(ScenarioError::MissingPlacement)), "{err:?}");

    let err = SystemKind::Dilu.builder().build();
    assert!(matches!(err, Err(ScenarioError::NoFunctions)), "{err:?}");

    let err = Scenario::builder().build_sim();
    assert!(matches!(err, Err(ScenarioError::MissingPlacement)), "{err:?}");
}

#[test]
fn workload_misuse_is_recorded_and_reported() {
    // arrivals() before any function().
    let err = SystemKind::Dilu.builder().arrivals(PoissonProcess::new(5.0, 1)).build();
    assert!(matches!(err, Err(ScenarioError::WorkloadBeforeFunction("arrivals"))), "{err:?}");

    // arrivals() on a training function.
    let err = SystemKind::Dilu
        .builder()
        .function(funcs::training_function(1, ModelId::BertBase, 2, 10))
        .arrivals(PoissonProcess::new(5.0, 1))
        .build();
    assert!(matches!(err, Err(ScenarioError::ArrivalsForTraining(_))), "{err:?}");

    // An inference function with no arrival source at all.
    let err = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec::single_node(1))
        .function(funcs::inference_function(1, ModelId::BertBase))
        .build();
    assert!(matches!(err, Err(ScenarioError::MissingArrivals(_))), "{err:?}");

    // Duplicate function ids, adjacent (1, 1) or not (1, 2, 1).
    for ids in [&[1, 1][..], &[1, 2, 1]] {
        let mut builder = SystemKind::Dilu.builder();
        for &id in ids {
            builder = builder
                .function(funcs::inference_function(id, ModelId::Vgg19))
                .arrival_times(Vec::new());
        }
        let err = builder.build();
        assert!(
            matches!(err, Err(ScenarioError::DuplicateFunction(FunctionId(1)))),
            "{ids:?}: {err:?}"
        );
    }

    // Id-addressed arrivals reach a function that is not the last one
    // added, sorted; an unknown id is misuse.
    let two_functions = || {
        SystemKind::Dilu
            .builder()
            .cluster(ClusterSpec::single_node(2))
            .function(funcs::inference_function(1, ModelId::BertBase))
            .arrival_times(Vec::new())
            .function(funcs::inference_function(2, ModelId::Vgg19))
            .arrival_times(Vec::new())
    };
    let mut sim = two_functions()
        .arrival_times_for(FunctionId(1), vec![SimTime::from_secs(2), SimTime::from_secs(1)])
        .build()
        .expect("arrivals for an earlier function build")
        .into_sim();
    // A zero-length run pulls every arrival window (here the whole
    // two-instant schedule) and simulates nothing.
    sim.run_until(SimTime::ZERO);
    assert_eq!(
        sim.arrival_schedule(),
        vec![
            (FunctionId(1), vec![SimTime::from_secs(1), SimTime::from_secs(2)]),
            (FunctionId(2), Vec::new()),
        ]
    );
    let err = two_functions().arrival_times_for(FunctionId(9), vec![SimTime::ZERO]).build();
    assert!(
        matches!(
            err,
            Err(ScenarioError::WrongRole { func: FunctionId(9), method: "arrival_times_for" })
        ),
        "{err:?}"
    );
}

#[test]
fn invalid_specs_surface_cluster_deploy_errors() {
    let mut bad = funcs::inference_function(1, ModelId::BertBase);
    bad.gpus_per_instance = 0;
    let err = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec::single_node(1))
        .function(bad)
        .arrival_times(Vec::new())
        .build();
    match err {
        Err(ScenarioError::Deploy(DeployError::InvalidSpec { .. })) => {}
        other => panic!("expected InvalidSpec, got {other:?}"),
    }

    let mut too_big = funcs::inference_function(1, ModelId::BertBase);
    too_big.gpus_per_instance = 9;
    too_big.quotas.mem_bytes /= 16;
    let err = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec::single_node(2))
        .function(too_big)
        .arrival_times(Vec::new())
        .build();
    match err {
        Err(ScenarioError::Deploy(DeployError::ClusterTooSmall {
            needed: 9,
            available: 2,
            ..
        })) => {}
        other => panic!("expected ClusterTooSmall, got {other:?}"),
    }

    // Engine slot ids pack at most 16 pipeline stages per instance, so a
    // 17-stage LLM is invalid even on a cluster with 24 GPUs to host it.
    let err = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec { nodes: 3, ..ClusterSpec::single_node(8) })
        .function(funcs::llm_inference_function(1, ModelId::Llama2_7b, 17))
        .arrival_times(vec![SimTime::ZERO])
        .build();
    match err {
        Err(ScenarioError::Deploy(DeployError::InvalidSpec { .. })) => {}
        other => panic!("expected InvalidSpec for 17 stages, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// ScenarioConfig round-trips
// ---------------------------------------------------------------------------

const SCENARIO: &str = r#"
name = "round-trip"

[cluster]
nodes = 1
gpus_per_node = 4

[system]
preset = "infless-l"

[system.controller]
name = "keep-alive"
keep_alive_secs = 12.0

[run]
horizon_secs = 12
seed = 9

[[functions]]
model = "vgg19"
initial = 2
arrivals = { process = "poisson", rate = 18.0 }

[[functions]]
model = "resnet152"
role = "training"
workers = 2
iterations = 30
start_sec = 2
"#;

#[test]
fn toml_and_json_round_trip_to_the_same_config() {
    let config = ScenarioConfig::from_toml_str(SCENARIO).unwrap();
    let json = serde_json::to_string_pretty(&config).unwrap();
    let back = ScenarioConfig::from_json_str(&json).unwrap();
    assert_eq!(config, back);
    // And again through JSON to catch representation drift.
    let json2 = serde_json::to_string_pretty(&back).unwrap();
    assert_eq!(json, json2);
}

#[test]
fn config_preset_with_component_override_composes_correctly() {
    let config = ScenarioConfig::from_toml_str(SCENARIO).unwrap();
    let registry = Registry::with_defaults();
    let scenario = config.into_builder(&registry).unwrap().build().unwrap();
    // Preset infless-l supplies packing placement + mps-l policy; the
    // controller table overrides keep-alive parameters (same name).
    assert_eq!(scenario.sim().placement_name(), "dilu-scheduler");
    assert_eq!(scenario.sim().share_policy_name(), "mps-l");
    assert_eq!(scenario.sim().controller_name(), "infless+-keepalive");
    let report = scenario.run().unwrap();
    assert!(report.inference.values().next().unwrap().completed > 0);
    assert!(report.training.values().next().unwrap().iterations_done > 0);
}

#[test]
fn config_errors_name_the_offender() {
    let registry = Registry::with_defaults();

    let bad_preset = SCENARIO.replace("infless-l", "super-dilu");
    let err = ScenarioConfig::from_toml_str(&bad_preset)
        .unwrap()
        .into_builder(&registry)
        .map(|_| ())
        .map_err(|e| e.to_string());
    assert!(err.as_ref().is_err_and(|e| e.contains("super-dilu")), "{err:?}");

    let bad_param = SCENARIO.replace("keep_alive_secs", "keepalive_secs");
    let err = ScenarioConfig::from_toml_str(&bad_param)
        .unwrap()
        .into_builder(&registry)
        .map(|_| ())
        .map_err(|e| e.to_string());
    assert!(err.as_ref().is_err_and(|e| e.contains("keepalive_secs")), "{err:?}");
}

#[test]
fn config_threads_must_be_one() {
    // Existing scenario files may still say `[sim] threads = 1`, but a run
    // steps its GPUs on one thread, so no other value is legal.
    let registry = Registry::with_defaults();
    let with_threads = |n: u32| {
        ScenarioConfig::from_toml_str(&format!("{SCENARIO}\n[sim]\nthreads = {n}\n"))
            .unwrap()
            .into_builder(&registry)
            .map(|_| ())
            .map_err(|e| e.to_string())
    };
    assert_eq!(with_threads(1), Ok(()));
    for n in [0, 2, 8] {
        let err = with_threads(n);
        assert!(
            err.as_ref().is_err_and(|e| e.contains(&format!("`threads` must be 1, got {n}"))),
            "{err:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Preset ≡ pre-redesign closed composition
// ---------------------------------------------------------------------------

/// The original closed composition, reproduced verbatim from the
/// pre-redesign preset match so the presets are checked against the
/// historical behaviour, not against themselves.
fn legacy_build_sim(kind: SystemKind, spec: ClusterSpec) -> ClusterSim {
    use dilu::baselines::{KeepAliveScaler, QuotaSource, ReactiveScaler};
    use dilu::core::{FairFactory, FastGsFactory, MpsFactory, RckmFactory};
    use dilu::rckm::RckmConfig;
    use dilu::scaler::{LazyScaler, ScalerConfig};
    use dilu::scheduler::{DiluScheduler, ExclusivePlacement, SchedulerConfig};

    let sim_config = SimConfig::default();
    let rckm = RckmConfig::default();
    let dilu_sched = SchedulerConfig::default();
    let scaler = ScalerConfig::default();
    let packing = SchedulerConfig { workload_affinity: false, ..dilu_sched };
    match kind {
        SystemKind::Dilu => ClusterSim::new(
            spec,
            sim_config,
            Box::new(DiluScheduler::new(dilu_sched)),
            Box::new(LazyScaler::new(scaler)),
            &RckmFactory(rckm),
        ),
        SystemKind::DiluNoRc => ClusterSim::new(
            spec,
            sim_config,
            Box::new(DiluScheduler::new(SchedulerConfig {
                resource_complementary: false,
                ..dilu_sched
            })),
            Box::new(LazyScaler::new(scaler)),
            &RckmFactory(rckm),
        ),
        SystemKind::DiluNoWa => ClusterSim::new(
            spec,
            sim_config,
            Box::new(DiluScheduler::new(SchedulerConfig {
                workload_affinity: false,
                ..dilu_sched
            })),
            Box::new(LazyScaler::new(scaler)),
            &RckmFactory(rckm),
        ),
        SystemKind::DiluNoVs => ClusterSim::new(
            spec,
            sim_config,
            Box::new(DiluScheduler::new(dilu_sched)),
            Box::new(LazyScaler::new(scaler)),
            &MpsFactory(QuotaSource::Limit),
        ),
        SystemKind::Exclusive => ClusterSim::new(
            spec,
            sim_config,
            Box::new(ExclusivePlacement::new()),
            Box::new(KeepAliveScaler::default()),
            &FairFactory,
        ),
        SystemKind::InflessPlusL => ClusterSim::new(
            spec,
            sim_config,
            Box::new(DiluScheduler::new(packing)),
            Box::new(KeepAliveScaler::default()),
            &MpsFactory(QuotaSource::Limit),
        ),
        SystemKind::InflessPlusR => ClusterSim::new(
            spec,
            sim_config,
            Box::new(DiluScheduler::new(packing)),
            Box::new(KeepAliveScaler::default()),
            &MpsFactory(QuotaSource::Request),
        ),
        SystemKind::FastGsPlus => ClusterSim::new(
            spec,
            sim_config,
            Box::new(DiluScheduler::new(packing)),
            Box::new(ReactiveScaler::new()),
            &FastGsFactory,
        ),
    }
}

/// Runs the same mixed workload on a simulator and digests the outcome
/// into an exactly comparable form.
fn digest(mut sim: ClusterSim) -> Vec<(String, u64, u64, u64, u64)> {
    let end = SimTime::from_secs(20);
    let arrivals_a = Box::new(PoissonProcess::new(30.0, 7));
    let arrivals_b = Box::new(PoissonProcess::new(12.0, 13));
    sim.deploy_inference(funcs::inference_function(1, ModelId::BertBase), 1, arrivals_a, end)
        .expect("deploy bert");
    sim.deploy_inference(funcs::inference_function(2, ModelId::ResNet152), 1, arrivals_b, end)
        .expect("deploy resnet");
    sim.deploy_training(funcs::training_function(3, ModelId::BertBase, 2, 60))
        .expect("deploy training");
    sim.run_until(SimTime::from_secs(25));
    report_digest(sim.into_report())
}

fn report_digest(report: ClusterReport) -> Vec<(String, u64, u64, u64, u64)> {
    let mut rows = Vec::new();
    for (id, f) in &report.inference {
        rows.push((
            format!("inf-{id}"),
            f.arrived,
            f.completed,
            f.latency.p95().as_micros(),
            f.cold_starts.count(),
        ));
    }
    for (id, t) in &report.training {
        rows.push((
            format!("train-{id}"),
            t.iterations_done,
            t.samples_done,
            t.jct().map_or(0, |d| d.as_micros()),
            u64::from(t.workers),
        ));
    }
    rows.push((
        "cluster".into(),
        u64::from(report.peak_gpus),
        report.gpu_time.as_micros(),
        report.instance_gpu_time.as_micros(),
        report.occupied_gpus.len() as u64,
    ));
    rows
}

#[test]
fn every_preset_matches_the_legacy_composition_exactly() {
    for kind in SystemKind::ALL {
        let spec = ClusterSpec::single_node(4);
        let legacy = digest(legacy_build_sim(kind, spec));
        let preset = digest(build_sim(kind, spec));
        assert_eq!(legacy, preset, "preset {kind:?} diverges from the legacy composition");

        let via_builder = digest(kind.builder().cluster(spec).build_sim().expect("preset builds"));
        assert_eq!(legacy, via_builder, "builder path diverges for {kind:?}");
    }
}

// ---------------------------------------------------------------------------
// Full front-door pass: config file → builder → run → report
// ---------------------------------------------------------------------------

#[test]
fn example_scenario_files_run_end_to_end() {
    let registry = Registry::with_defaults();
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut ran = 0;
    for entry in std::fs::read_dir(&dir).expect("examples/scenarios exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        // The production-day macro tier is a full simulated day (~10M+
        // requests) — far beyond a debug-build unit test. It has its own
        // release-mode CI smoke and bench lane.
        if path.file_name().and_then(|n| n.to_str()) == Some("production-day.toml") {
            continue;
        }
        let config =
            ScenarioConfig::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = config
            .into_builder(&registry)
            .and_then(ScenarioBuilder::build)
            .and_then(Scenario::run)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            report.horizon >= SimTime::from_secs(10),
            "{} ran suspiciously short",
            path.display()
        );
        ran += 1;
    }
    assert!(ran >= 3, "expected at least 3 example scenarios, found {ran}");
}

#[test]
fn builder_seed_drives_spec_based_arrivals() {
    use dilu::workload::ArrivalSpec;
    let run = |seed: u64| {
        let report = SystemKind::Dilu
            .builder()
            .cluster(ClusterSpec::single_node(1))
            .seed(seed)
            .horizon(dilu::sim::SimDuration::from_secs(5))
            .function(funcs::inference_function(1, ModelId::BertBase))
            .arrivals_spec(ArrivalSpec::poisson(20.0))
            .build()
            .unwrap()
            .run()
            .unwrap();
        report.inference.values().next().unwrap().arrived
    };
    assert_eq!(run(1), run(1), "same seed must reproduce");
    assert_ne!(run(1), run(2), "different seeds must differ");
}

#[test]
fn scheduled_training_with_invalid_spec_fails_at_build() {
    let mut bad = funcs::training_function(1, ModelId::BertBase, 0, 10);
    bad.kind = dilu::cluster::FunctionKind::Training { workers: 0, iterations: 10 };
    let err = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec::single_node(2))
        .function(bad)
        .starts_at(SimTime::from_secs(5))
        .build();
    match err {
        Err(ScenarioError::Deploy(DeployError::InvalidSpec { .. })) => {}
        other => panic!("late-scheduled invalid training must fail eagerly, got {other:?}"),
    }
}

#[test]
fn config_rejects_role_mismatched_keys() {
    let registry = Registry::with_defaults();
    let text = r#"
[system]
preset = "dilu"

[[functions]]
model = "bert-base"
workers = 8
arrivals = { process = "poisson", rate = 5.0 }
"#;
    let err = ScenarioConfig::from_toml_str(text)
        .unwrap()
        .into_builder(&registry)
        .map(|_| ())
        .map_err(|e| e.to_string());
    assert!(err.as_ref().is_err_and(|e| e.contains("workers")), "{err:?}");
}

#[test]
fn config_pipeline_functions_match_the_llm_builder() {
    let registry = Registry::with_defaults();
    let text = r#"
[system]
preset = "dilu"

[[functions]]
model = "llama2-7b"
gpus_per_instance = 4
arrivals = { process = "poisson", rate = 2.0 }
"#;
    let config = ScenarioConfig::from_toml_str(text).unwrap();
    let scenario = config
        .into_builder(&registry)
        .unwrap()
        .cluster(ClusterSpec::single_node(4))
        .build()
        .unwrap();
    // The initial instance must span all four stages (the canonical
    // funcs::llm_inference_function path), not sit on one GPU.
    assert_eq!(scenario.sim().occupied_gpus(), 4, "pipeline stages must span 4 GPUs");
    let report = scenario.run().unwrap();
    let f = report.inference.values().next().unwrap();
    assert_eq!(f.model, ModelId::Llama2_7b);
    assert!(f.completed > 0);
}

#[test]
fn arrival_times_are_sorted_on_attach() {
    let report = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec::single_node(1))
        .function(funcs::inference_function(1, ModelId::BertBase))
        .arrival_times(vec![SimTime::from_secs(5), SimTime::from_secs(1)])
        .horizon(dilu::sim::SimDuration::from_secs(8))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let f = report.inference.values().next().unwrap();
    assert_eq!(f.completed, 2);
    // The t=1s request must not wait behind the t=5s one: both requests
    // execute solo well under 100 ms.
    assert!(
        f.latency.quantile(1.0) < dilu::sim::SimDuration::from_millis(500),
        "unsorted arrivals inflated latency: {}",
        f.latency.quantile(1.0)
    );
}

#[test]
fn wrong_role_workload_methods_are_misuse() {
    let err = SystemKind::Dilu
        .builder()
        .function(funcs::training_function(1, ModelId::BertBase, 2, 10))
        .initial_instances(4)
        .build();
    assert!(matches!(err, Err(ScenarioError::WrongRole { .. })), "{err:?}");

    let err = SystemKind::Dilu
        .builder()
        .function(funcs::inference_function(1, ModelId::BertBase))
        .starts_at(SimTime::from_secs(3))
        .build();
    assert!(matches!(err, Err(ScenarioError::WrongRole { .. })), "{err:?}");
}

#[test]
fn config_rejects_unknown_section_keys() {
    let cases = [
        ("[run]\nhorizon_seconds = 300\n[system]\npreset = \"dilu\"\n", "horizon_seconds"),
        ("[cluster]\ngpus = 4\n[system]\npreset = \"dilu\"\n", "gpus"),
        (
            "[system]\npreset = \"dilu\"\n[[functions]]\nmodel = \"bert-base\"\ninitial_instances = 4\n",
            "initial_instances",
        ),
        (
            "[system]\npreset = \"dilu\"\n[[functions]]\nmodel = \"bert-base\"\narrivals = { process = \"poisson\", rps = 5.0 }\n",
            "rps",
        ),
    ];
    for (text, needle) in cases {
        let err = match ScenarioConfig::from_toml_str(text) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("typo `{needle}` must be rejected"),
        };
        assert!(err.contains(needle), "{err}");
    }
}

#[test]
fn registry_keep_alive_default_matches_the_preset() {
    // `exclusive` preset and registry "keep-alive" with no params must
    // compose identically (Observation-3's 50 s retention).
    let registry = Registry::with_defaults();
    let text = r#"
[cluster]
nodes = 1
gpus_per_node = 2

[system.placement]
name = "exclusive"

[system.controller]
name = "keep-alive"

[system.share_policy]
name = "fair"

[run]
horizon_secs = 12
seed = 9

[[functions]]
model = "bert-base"
arrivals = { process = "poisson", rate = 10.0 }
"#;
    let via_registry = ScenarioConfig::from_toml_str(text)
        .unwrap()
        .into_builder(&registry)
        .unwrap()
        .build()
        .unwrap()
        .run()
        .unwrap();
    let via_preset = SystemKind::Exclusive
        .builder()
        .cluster(ClusterSpec::single_node(2))
        .horizon(dilu::sim::SimDuration::from_secs(12))
        .function(funcs::inference_function(1, ModelId::BertBase))
        .arrivals(PoissonProcess::new(10.0, 9 ^ 1))
        .build()
        .unwrap()
        .run()
        .unwrap();
    let a = via_registry.inference.values().next().unwrap();
    let b = via_preset.inference.values().next().unwrap();
    assert_eq!(a.arrived, b.arrived);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.latency.p95(), b.latency.p95());
}

#[test]
fn config_zero_gpus_per_instance_is_a_typed_error() {
    let registry = Registry::with_defaults();
    let text = r#"
[system]
preset = "dilu"

[[functions]]
model = "bert-base"
gpus_per_instance = 0
arrivals = { process = "poisson", rate = 5.0 }
"#;
    let err = ScenarioConfig::from_toml_str(text).unwrap().into_builder(&registry).unwrap().build();
    match err {
        Err(ScenarioError::Deploy(DeployError::InvalidSpec { .. })) => {}
        other => panic!("expected InvalidSpec, got {other:?}"),
    }
}

#[test]
fn experiment_registry_is_reachable_from_the_facade() {
    assert_eq!(experiments::all().len(), 16);
    assert!(experiments::find("fig16").is_some());
}
