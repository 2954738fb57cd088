//! Behavioural pins for the network/topology plane (`dilu-net`): cold-start
//! storms contend on the shared registry link, per-node model caches skip
//! the fetch, the event core wakes for the plane only at finishes, and
//! networked runs stay byte-identical across time models.

use std::cell::Cell;
use std::rc::Rc;

use dilu::cluster::{
    ClusterSpec, ClusterView, ElasticityController, EventRecord, FunctionScaleView, ScaleAction,
    SimConfig, SimEvent, TimeModel,
};
use dilu::core::{funcs, SystemKind};
use dilu::models::ModelId;
use dilu::net::NetworkConfig;
use dilu::sim::{SimDuration, SimTime};

/// Launches `count` instances of the first function on its first tick, then
/// stays quiet — the controlled version of a cold-start storm.
struct StormOnce {
    count: u32,
    fired: bool,
}

impl ElasticityController for StormOnce {
    fn on_tick(
        &mut self,
        _now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        if self.fired || functions.is_empty() {
            return Vec::new();
        }
        self.fired = true;
        vec![ScaleAction::ScaleOut { func: functions[0].func, count: self.count }]
    }

    fn name(&self) -> &str {
        "storm-once"
    }
}

/// Launches one instance at each scheduled second.
struct SpacedLaunches {
    at_secs: Vec<u64>,
    issued: usize,
}

impl ElasticityController for SpacedLaunches {
    fn on_tick(
        &mut self,
        now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        if functions.is_empty() || self.issued >= self.at_secs.len() {
            return Vec::new();
        }
        if now < SimTime::from_secs(self.at_secs[self.issued]) {
            return Vec::new();
        }
        self.issued += 1;
        vec![ScaleAction::ScaleOut { func: functions[0].func, count: 1 }]
    }

    fn name(&self) -> &str {
        "spaced-launches"
    }
}

/// Runs a `k`-way simultaneous cold-start storm on an 8×4 cluster with no
/// model cache and returns the mean per-fetch delay in milliseconds.
fn storm_mean_fetch_ms(k: u32) -> f64 {
    let report = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec { nodes: 8, gpus_per_node: 4, ..ClusterSpec::single_node(4) })
        .network(NetworkConfig::default())
        .horizon(SimDuration::from_secs(60))
        .controller(StormOnce { count: k, fired: false })
        .function(funcs::inference_function(1, ModelId::BertBase))
        .initial_instances(0)
        .arrival_times(Vec::new())
        .build()
        .expect("storm scenario builds")
        .run()
        .expect("storm scenario runs");
    let f = report.inference.values().next().expect("one function");
    assert_eq!(
        f.cold_starts.fetches(),
        u64::from(k),
        "every launch in a {k}-way storm must fetch weights"
    );
    assert_eq!(f.cold_starts.cache_hits(), 0, "cache_gb = 0 disables the cache");
    f.cold_starts.mean_fetch_ms()
}

#[test]
fn storm_fetch_latency_grows_with_concurrency() {
    let m1 = storm_mean_fetch_ms(1);
    let m4 = storm_mean_fetch_ms(4);
    let m32 = storm_mean_fetch_ms(32);
    // All flows share the registry link, so the fair-share rate drops with
    // the storm width: 4 concurrent fetches take ~4x a solo fetch, 32 take
    // ~32x. The bounds are deliberately loose (2x per 4x width) so only the
    // contention trend is pinned, not the exact fair-share arithmetic
    // (crates/net/tests/fairness.rs owns that).
    assert!(m1 > 0.0, "a solo fetch still pays for its bytes, got {m1}");
    assert!(m4 >= 2.0 * m1, "4-way storm must contend: solo {m1} ms, 4-way {m4} ms");
    assert!(m32 >= 2.0 * m4, "32-way storm must contend harder: 4-way {m4} ms, 32-way {m32} ms");
}

/// A 32-way cold-start storm on `time_model`, run to the horizon plus the
/// drain tail: the report JSON, the weight fetches started, and the
/// `NetFlowDone` wakes the event hook saw.
fn storm_run(time_model: TimeModel) -> (String, u64, u64) {
    let scenario = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec { nodes: 8, gpus_per_node: 4, ..ClusterSpec::single_node(4) })
        .sim_config(SimConfig { time_model, ..SimConfig::default() })
        .network(NetworkConfig::default())
        .horizon(SimDuration::from_secs(60))
        .controller(StormOnce { count: 32, fired: false })
        .function(funcs::inference_function(1, ModelId::BertBase))
        .initial_instances(0)
        .arrival_times(Vec::new())
        .build()
        .expect("storm scenario builds");
    let end = SimTime::ZERO + scenario.horizon() + scenario.drain();
    let mut sim = scenario.into_sim();
    let wakes = Rc::new(Cell::new(0u64));
    let seen = Rc::clone(&wakes);
    sim.set_event_hook(Box::new(move |event: EventRecord| {
        if event.kind == SimEvent::NetFlowDone.code() {
            seen.set(seen.get() + 1);
        }
    }));
    sim.run_until(end);
    let report = sim.into_report();
    let fetches = report.inference.values().next().expect("one function").cold_starts.fetches();
    (serde_json::to_string(&report).expect("report serializes"), fetches, wakes.get())
}

#[test]
fn storm_wakes_at_most_once_per_flow_and_matches_dense_stepping() {
    // Every membership change re-shares the registry link and moves every
    // finish; the event core still keeps one wake, at the earliest one.
    let (reference, fetches, wakes) = storm_run(TimeModel::EventDriven);
    assert_eq!(fetches, 32, "every launch fetches weights");
    assert!(wakes > 0 && wakes <= fetches, "{wakes} NetFlowDone wakes for {fetches} flows");
    let (dense, _, dense_wakes) = storm_run(TimeModel::DenseQuantum);
    assert_eq!(dense_wakes, 0, "the dense stepper polls the plane instead");
    assert_eq!(dense, reference, "storm report diverges under the dense time model");
}

#[test]
fn cache_hit_skips_the_fetch_and_pays_only_provision() {
    let provision = SimDuration::from_secs(2);
    let report = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec::single_node(4))
        .network(NetworkConfig { cache_gb: 8.0, provision, ..NetworkConfig::default() })
        .horizon(SimDuration::from_secs(60))
        .controller(SpacedLaunches { at_secs: vec![1, 30], issued: 0 })
        .function(funcs::inference_function(1, ModelId::BertBase))
        .initial_instances(0)
        .arrival_times(Vec::new())
        .build()
        .expect("cache scenario builds")
        .run()
        .expect("cache scenario runs");
    let f = report.inference.values().next().expect("one function");
    assert_eq!(f.cold_starts.count(), 2, "two cold starts were issued");
    assert_eq!(f.cold_starts.fetches(), 1, "only the first launch fetches weights");
    assert_eq!(f.cold_starts.cache_hits(), 1, "the relaunch hits the node cache");
    assert!((f.cold_starts.cache_hit_rate() - 0.5).abs() < 1e-9);
    // The cached launch pays exactly the provision residue, so total delay
    // is (fetch + provision-bounded first start) + (provision): strictly
    // less than two fetch-priced starts would cost.
    assert!(
        f.cold_starts.total_delay() < f.cold_starts.fetch_delay() + provision * 2 + provision,
        "cache hit must not pay fetch-class delay: total {:?}, fetch {:?}",
        f.cold_starts.total_delay(),
        f.cold_starts.fetch_delay()
    );
}

/// A networked mixed workload (fetch storms + a pipelined LLM paying
/// activation transfers), rendered to report JSON.
fn networked_report_json(time_model: TimeModel) -> String {
    let sim = SimConfig { time_model, ..SimConfig::default() };
    let burst: Vec<SimTime> = std::iter::repeat_n(SimTime::from_secs(1), 12)
        .chain(std::iter::repeat_n(SimTime::from_secs(15), 12))
        .collect();
    let report = SystemKind::Dilu
        .builder()
        .cluster(ClusterSpec { nodes: 2, gpus_per_node: 4, ..ClusterSpec::single_node(4) })
        .sim_config(sim)
        .network(NetworkConfig { cache_gb: 4.0, ..NetworkConfig::default() })
        .seed(11)
        .horizon(SimDuration::from_secs(30))
        .function(funcs::inference_function(1, ModelId::BertBase))
        .initial_instances(0)
        .arrival_times(burst)
        .function(funcs::llm_inference_function(2, ModelId::Llama2_7b, 4))
        .arrival_times(vec![SimTime::from_secs(2), SimTime::from_secs(8)])
        .build()
        .expect("networked scenario builds")
        .run()
        .expect("networked scenario runs");
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn networked_reports_are_byte_identical_across_time_models() {
    let reference = networked_report_json(TimeModel::EventDriven);
    assert!(reference.contains("cold_starts"), "sanity: report JSON has content");
    let dense = networked_report_json(TimeModel::DenseQuantum);
    assert_eq!(dense, reference, "networked report diverges under the dense time model");
}
