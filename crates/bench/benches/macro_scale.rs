//! Macro-scale time-model benchmark: runs `examples/scenarios/macro-scale.toml`
//! (1024 GPUs, one simulated hour, bursty multi-model traffic) under the
//! wake-on-work event engine and the legacy dense quantum stepper,
//! verifies both produce the identical report, and records the wall-clock
//! speedup in `BENCH_macro_scale.json` at the repository root so future
//! PRs track the perf trajectory.
//!
//! Peak memory is `VmHWM` from `/proc/self/status`, read after the three
//! event-driven runs and before the dense one: the high-water mark of the
//! event lane alone.

mod common;

use std::path::PathBuf;
use std::time::Instant;

use common::peak_rss_bytes;
use dilu_cluster::ClusterReport;
use dilu_core::{NetworkSection, Registry, ScenarioConfig};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run(config: &ScenarioConfig, model: &str) -> (ClusterReport, f64) {
    let (report, secs, _) = run_inner(config, model, false);
    (report, secs)
}

fn run_inner(
    config: &ScenarioConfig,
    model: &str,
    profile: bool,
) -> (ClusterReport, f64, Option<dilu_metrics::PhaseProfile>) {
    let mut config = config.clone();
    let sim = config.sim.get_or_insert_with(Default::default);
    sim.time_model = Some(model.to_owned());
    if profile {
        sim.profile = Some(true);
    }
    let registry = Registry::with_defaults();
    let scenario = config
        .into_builder(&registry)
        .and_then(|b| b.build())
        .expect("macro-scale scenario composes");
    #[allow(clippy::disallowed_methods, reason = "this bench measures wall time")]
    let started = Instant::now();
    let (report, prof) = scenario.run_profiled().expect("macro-scale scenario runs");
    (report, started.elapsed().as_secs_f64(), prof)
}

/// Median of three timed runs of the event lane, all of which must
/// produce the identical report. One sample is noise on a shared machine;
/// the committed headline should not move with scheduler luck.
fn run_event_median3(config: &ScenarioConfig) -> (ClusterReport, f64, Vec<f64>) {
    let mut samples = Vec::new();
    let mut reports = Vec::new();
    for _ in 0..3 {
        let (report, secs) = run(config, "event-driven");
        samples.push(secs);
        reports.push(report);
    }
    let json0 = serde_json::to_string(&reports[0]).expect("report serializes");
    for r in &reports[1..] {
        let j = serde_json::to_string(r).expect("report serializes");
        assert_eq!(j, json0, "event runs must be deterministic");
    }
    let mut sorted = samples.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite walls"));
    (reports.remove(0), sorted[1], samples)
}

fn main() {
    let path = repo_root().join("examples/scenarios/macro-scale.toml");
    let config = ScenarioConfig::load(&path).expect("shipped scenario parses");
    let gpus = {
        let c = config.cluster.as_ref().expect("cluster section");
        c.nodes.unwrap_or(0) * c.gpus_per_node.unwrap_or(0)
    };
    let horizon_secs =
        config.run.as_ref().and_then(|r| r.horizon_secs).expect("run section with horizon");
    assert!(gpus >= 512, "macro-scale means at least 512 GPUs, got {gpus}");
    assert!(horizon_secs >= 3600, "macro-scale means at least one simulated hour");
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);

    println!(
        "== macro-scale: {gpus} GPUs, {horizon_secs} s simulated, \
         event + dense ({hardware_threads} hardware threads) =="
    );
    let (event_report, event_secs, event_samples) = run_event_median3(&config);
    let event_peak_rss = peak_rss_bytes();
    println!(
        "event-driven:           {event_secs:.2} s wall (median of {:?}), peak RSS {} MiB",
        event_samples.iter().map(|s| round2(*s)).collect::<Vec<_>>(),
        event_peak_rss >> 20,
    );
    let (dense_report, dense_secs) = run(&config, "dense-quantum");
    println!("dense-quantum:          {dense_secs:.2} s wall");

    // Same fidelity, not approximately: both time models must emit the
    // identical report before the wall clocks are comparable at all.
    let event_json = serde_json::to_string(&event_report).expect("report serializes");
    let dense_json = serde_json::to_string(&dense_report).expect("report serializes");
    assert_eq!(event_json, dense_json, "time models diverged on the macro-scale scenario");

    // Network-plane lane: same scenario with the datacenter topology priced
    // in, so the bench tracks what flow bookkeeping costs the event core.
    let mut networked = config.clone();
    networked.network =
        Some(NetworkSection { preset: Some("datacenter".to_owned()), ..Default::default() });
    let (network_report, network_secs) = run(&networked, "event-driven");
    println!("event-driven + network: {network_secs:.2} s wall");
    let cold_fetches: u64 =
        network_report.inference.values().map(|f| f.cold_starts.fetches()).sum();

    let speedup = dense_secs / event_secs;
    let requests: u64 = event_report.inference.values().map(|f| f.arrived).sum();
    println!(
        "event vs dense: {speedup:.2}x ({requests} requests, mean SVR {:.2}%, peak {} GPUs)",
        event_report.mean_svr() * 100.0,
        event_report.peak_gpus,
    );

    // One extra event run with the phase profiler on: its wall clock is
    // NOT the headline (timer reads cost a few percent), but its per-phase
    // breakdown explains where the headline seconds go — and its report
    // must still be byte-identical, since profiling is observational.
    let (profiled_report, _, profile) = run_inner(&config, "event-driven", true);
    let profiled_json = serde_json::to_string(&profiled_report).expect("report serializes");
    assert_eq!(profiled_json, event_json, "profiling must not perturb the report");
    let profile = profile.expect("profile requested");

    let out = repo_root().join("BENCH_macro_scale.json");
    let value = serde::Value::Map(vec![
        (s("scenario"), s("examples/scenarios/macro-scale.toml")),
        (s("gpus"), serde::Value::UInt(u64::from(gpus))),
        (s("simulated_secs"), serde::Value::UInt(horizon_secs)),
        (s("requests_served"), serde::Value::UInt(requests)),
        (s("event_driven_wall_secs"), serde::Value::Float(round2(event_secs))),
        (
            s("event_driven_wall_secs_samples"),
            serde::Value::Seq(
                event_samples.iter().map(|&x| serde::Value::Float(round2(x))).collect(),
            ),
        ),
        (s("event_driven_peak_rss_bytes"), serde::Value::UInt(event_peak_rss)),
        (s("hardware_threads"), serde::Value::UInt(u64::from(hardware_threads))),
        (s("dense_quantum_wall_secs"), serde::Value::Float(round2(dense_secs))),
        (s("network_event_wall_secs"), serde::Value::Float(round2(network_secs))),
        (s("network_cold_fetches"), serde::Value::UInt(cold_fetches)),
        (s("speedup"), serde::Value::Float(round2(speedup))),
        (s("reports_identical"), serde::Value::Bool(true)),
        (s("peak_gpus"), serde::Value::UInt(u64::from(event_report.peak_gpus))),
        (s("mean_svr"), serde::Value::Float(round2(event_report.mean_svr() * 100.0))),
        (s("profile"), serde::Serialize::to_value(&profile)),
    ]);
    dilu_core::table::write_json_at(&out, &value);
    println!("[json: {}]", out.display());

    assert!(
        speedup >= 5.0,
        "acceptance: event engine must be at least 5x faster than dense stepping \
         on the macro-scale scenario (got {speedup:.2}x)"
    );
}

fn s(text: &str) -> serde::Value {
    serde::Value::Str(text.to_owned())
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}
