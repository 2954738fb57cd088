//! Serde-backed scenario configuration: the TOML/JSON front door onto
//! [`ScenarioBuilder`].
//!
//! ```toml
//! name = "dilu-vs-burst"
//!
//! [cluster]
//! nodes = 1
//! gpus_per_node = 4
//!
//! [system]
//! preset = "dilu"              # or compose placement/controller/share_policy
//!
//! [system.controller]          # optional: the elasticity controller
//! name = "co-scale"            # 2D; or lazy, keep-alive, reactive, null
//!
//! [sim]                        # optional serving-plane tunables
//! quantum_ms = 5.0
//! resize_latency_ms = 1.0
//!
//! [run]
//! horizon_secs = 30
//! seed = 7
//!
//! [[functions]]
//! model = "bert-base"
//! arrivals = { process = "poisson", rate = 25.0 }
//! ```
//!
//! Component tables resolve through a [`Registry`], so registered external
//! policies are addressable from config files too:
//!
//! ```toml
//! [system.placement]
//! name = "dilu"
//! gamma = 5.0                  # any extra key is a component parameter
//! ```

use dilu_cluster::{ClusterSpec, SimConfig};
use dilu_models::ModelId;
use dilu_sim::{SimDuration, SimTime};
use dilu_workload::ArrivalSpec;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::registry::{Params, Registry};
use crate::{funcs, ScenarioBuilder, ScenarioError, SystemKind};

/// Cluster shape section (`[cluster]`). Every field defaults to the
/// paper's testbed (5 × 4 × A100-40GB).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSection {
    /// Worker nodes.
    pub nodes: Option<u32>,
    /// GPUs per node.
    pub gpus_per_node: Option<u32>,
    /// Device memory per GPU in GiB.
    pub gpu_mem_gb: Option<u64>,
}

impl ClusterSection {
    fn to_spec(&self) -> ClusterSpec {
        let d = ClusterSpec::paper_testbed();
        ClusterSpec {
            nodes: self.nodes.unwrap_or(d.nodes),
            gpus_per_node: self.gpus_per_node.unwrap_or(d.gpus_per_node),
            gpu_mem_bytes: self.gpu_mem_gb.map(|gb| gb * dilu_gpu::GB).unwrap_or(d.gpu_mem_bytes),
        }
    }
}

/// One composable component (`[system.placement]` etc.): a registry `name`
/// plus arbitrary parameter keys passed through to its constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSection {
    /// Registry name of the component.
    pub name: String,
    /// Every other key of the table, as constructor parameters.
    pub params: Params,
}

impl ComponentSection {
    /// A component reference with no parameters.
    pub fn named(name: impl Into<String>) -> Self {
        ComponentSection { name: name.into(), params: Params::empty() }
    }
}

impl Serialize for ComponentSection {
    fn to_value(&self) -> Value {
        let mut entries = vec![(Value::Str("name".into()), Value::Str(self.name.clone()))];
        entries
            .extend(self.params.entries().iter().map(|(k, v)| (Value::Str(k.clone()), v.clone())));
        Value::Map(entries)
    }
}

impl Deserialize for ComponentSection {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let entries = v.as_map().ok_or_else(|| DeError::expected("table", "component"))?;
        let mut name = None;
        let mut params = Vec::new();
        for (k, val) in entries {
            let key = k.as_str().ok_or_else(|| DeError::expected("string key", "component"))?;
            if key == "name" {
                name = Some(
                    val.as_str()
                        .ok_or_else(|| DeError::expected("string", "component name"))?
                        .to_owned(),
                );
            } else {
                params.push((key.to_owned(), val.clone()));
            }
        }
        Ok(ComponentSection {
            name: name.ok_or_else(|| DeError::missing_field("name", "component"))?,
            params: Params::from_entries(params),
        })
    }
}

/// System composition section (`[system]`): a preset, individual
/// components, or a preset with individual overrides.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSection {
    /// A [`SystemKind`] preset name (`"dilu"`, `"exclusive"`, ...).
    pub preset: Option<String>,
    /// Placement override.
    pub placement: Option<ComponentSection>,
    /// Elasticity-controller override (2D or horizontal-only).
    pub controller: Option<ComponentSection>,
    /// Share-policy override.
    pub share_policy: Option<ComponentSection>,
}

/// Serving-plane tunables section (`[sim]`); every field defaults to
/// [`SimConfig::default`]. Durations are in (fractional) milliseconds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimSection {
    /// GPU scheduling quantum (the RCKM token period) in ms.
    pub quantum_ms: Option<f64>,
    /// Controller tick and metrics sampling period in ms.
    pub tick_ms: Option<f64>,
    /// Fraction of the SLO a partial batch may wait before dispatch.
    pub batch_timeout_frac: Option<f64>,
    /// Cap on the batching wait regardless of SLO, in ms.
    pub batch_timeout_cap_ms: Option<f64>,
    /// Extra per-stage cost modelling activation transfer, in ms.
    pub stage_transfer_ms: Option<f64>,
    /// Delay before a vertical quota resize reaches the GPUs, in ms.
    pub resize_latency_ms: Option<f64>,
    /// Time model: `"event-driven"` (default) or `"dense-quantum"` (the
    /// legacy stepper, kept as the executable specification).
    pub time_model: Option<String>,
    /// Accepted for existing scenario files, but `1` is its only legal
    /// value: a run steps its GPUs on one thread.
    pub threads: Option<u32>,
    /// Enables the per-phase wall-clock profiler (`dilu run --profile`).
    /// Observational only: reports are byte-identical either way.
    pub profile: Option<bool>,
    /// Records per-function time series (timelines, kernel series) in the
    /// report (default `true`). Production-scale scenarios turn this off:
    /// the series cost O(functions × seconds) memory.
    pub function_series: Option<bool>,
}

impl SimSection {
    /// Validates the section and maps it onto a [`SimConfig`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Config`] for non-finite or negative values, a
    /// quantum or tick that rounds to 0 µs, a `batch_timeout_frac` outside
    /// `[0, 1]`, a tick shorter than the quantum, or `threads` other than 1.
    pub fn to_config(&self) -> Result<SimConfig, ScenarioError> {
        fn duration(
            key: &str,
            ms: Option<f64>,
            default: SimDuration,
            allow_zero: bool,
        ) -> Result<SimDuration, ScenarioError> {
            let Some(ms) = ms else { return Ok(default) };
            // Simulated time counts whole microseconds, so a positive value
            // below 0.0005 ms is a zero duration too.
            match (ms.is_finite() && ms >= 0.0).then(|| SimDuration::from_millis_f64(ms)) {
                Some(d) if allow_zero || d > SimDuration::ZERO => Ok(d),
                _ => Err(ScenarioError::Config(format!(
                    "[sim] `{key}` must be {}, got {ms}",
                    if allow_zero {
                        "a non-negative number of milliseconds"
                    } else {
                        "at least 0.0005 ms (1 µs once rounded)"
                    }
                ))),
            }
        }
        let d = SimConfig::default();
        let quantum = duration("quantum_ms", self.quantum_ms, d.quantum, false)?;
        let tick = duration("tick_ms", self.tick_ms, d.tick, false)?;
        if tick < quantum {
            return Err(ScenarioError::Config(format!(
                "[sim] `tick_ms` ({tick}) must not be shorter than `quantum_ms` ({quantum})"
            )));
        }
        let frac = self.batch_timeout_frac.unwrap_or(d.batch_timeout_frac);
        if !(frac.is_finite() && (0.0..=1.0).contains(&frac)) {
            return Err(ScenarioError::Config(format!(
                "[sim] `batch_timeout_frac` must be in [0, 1], got {frac}"
            )));
        }
        if let Some(threads) = self.threads.filter(|&t| t != 1) {
            return Err(ScenarioError::Config(format!(
                "[sim] `threads` must be 1, got {threads}: a run steps its GPUs on one thread"
            )));
        }
        let time_model = match self.time_model.as_deref() {
            None => d.time_model,
            Some("event-driven") => dilu_cluster::TimeModel::EventDriven,
            Some("dense-quantum") => dilu_cluster::TimeModel::DenseQuantum,
            Some(other) => {
                return Err(ScenarioError::Config(format!(
                    "[sim] unknown `time_model` `{other}` (event-driven | dense-quantum)"
                )));
            }
        };
        Ok(SimConfig {
            quantum,
            tick,
            batch_timeout_frac: frac,
            batch_timeout_cap: duration(
                "batch_timeout_cap_ms",
                self.batch_timeout_cap_ms,
                d.batch_timeout_cap,
                true,
            )?,
            stage_transfer: duration(
                "stage_transfer_ms",
                self.stage_transfer_ms,
                d.stage_transfer,
                true,
            )?,
            resize_latency: duration(
                "resize_latency_ms",
                self.resize_latency_ms,
                d.resize_latency,
                true,
            )?,
            time_model,
            network: d.network,
            profile: self.profile.unwrap_or(d.profile),
            function_series: self.function_series.unwrap_or(d.function_series),
        })
    }
}

/// Network/topology plane section (`[network]`).
///
/// Present at all, the cluster prices bytes: cold starts become registry
/// weight-fetch flows (concurrent storms contend on the shared link, node
/// caches absorb repeats) and pipeline stage handoffs become activation
/// transfers. Absent, the legacy constants apply and reports reproduce
/// byte-for-byte. A `preset` fills defaults, individual keys override it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkSection {
    /// A [`dilu_net::NetworkConfig::preset`] name (`"datacenter"`,
    /// `"edge"`, `"congested"`).
    pub preset: Option<String>,
    /// Shared core/registry link capacity in Gbps.
    pub registry_gbps: Option<f64>,
    /// Per-node top-of-rack uplink capacity in Gbps.
    pub tor_gbps: Option<f64>,
    /// Intra-node (NVLink-class) link capacity in Gbps.
    pub nvlink_gbps: Option<f64>,
    /// Per-node model cache capacity in GiB (`0` disables caching).
    pub cache_gb: Option<f64>,
    /// Post-fetch provision residue (container/runtime init) in ms.
    pub provision_ms: Option<f64>,
}

impl NetworkSection {
    /// Validates the section and maps it onto a
    /// [`dilu_net::NetworkConfig`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Unknown`] for an unknown preset name;
    /// [`ScenarioError::Config`] for non-finite/non-positive capacities or
    /// a negative cache or provision residue.
    pub fn to_config(&self) -> Result<dilu_net::NetworkConfig, ScenarioError> {
        let mut cfg = match &self.preset {
            Some(name) => {
                dilu_net::NetworkConfig::preset(name).ok_or_else(|| ScenarioError::Unknown {
                    kind: "network preset",
                    name: name.clone(),
                    known: dilu_net::NetworkConfig::PRESET_NAMES
                        .iter()
                        .map(|&s| s.to_owned())
                        .collect(),
                })?
            }
            None => dilu_net::NetworkConfig::default(),
        };
        if let Some(v) = self.registry_gbps {
            cfg.registry_gbps = v;
        }
        if let Some(v) = self.tor_gbps {
            cfg.tor_gbps = v;
        }
        if let Some(v) = self.nvlink_gbps {
            cfg.nvlink_gbps = v;
        }
        if let Some(v) = self.cache_gb {
            cfg.cache_gb = v;
        }
        if let Some(ms) = self.provision_ms {
            if !ms.is_finite() || ms < 0.0 {
                return Err(ScenarioError::Config(format!(
                    "[network] `provision_ms` must be a non-negative number of milliseconds, \
                     got {ms}"
                )));
            }
            cfg.provision = SimDuration::from_millis_f64(ms);
        }
        cfg.validate().map_err(|e| ScenarioError::Config(format!("[network] {e}")))?;
        Ok(cfg)
    }
}

/// Run parameters section (`[run]`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSection {
    /// Traffic horizon in seconds (default 60).
    pub horizon_secs: Option<u64>,
    /// Drain tail in seconds (default 5).
    pub drain_secs: Option<u64>,
    /// Root seed (default 7).
    pub seed: Option<u64>,
}

/// Deterministic fleet synthesizer section (`[fleet]`): expands to
/// `functions` additional inference functions (appended after the explicit
/// `[[functions]]` entries) whose per-function rates follow a Zipf-like
/// popularity curve summing to `total_rps`, each driven by a `synth`
/// arrival process (diurnal sinusoid + lazily drawn burst windows) with a
/// deterministic per-index phase spread across the diurnal period. This is
/// what makes production-scale scenarios (tens of thousands of functions)
/// declarable in a few lines with bounded config size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSection {
    /// Number of functions to synthesize (≥ 1).
    pub functions: u32,
    /// Fleet-wide mean request rate in RPS, split across functions by the
    /// popularity curve.
    pub total_rps: f64,
    /// Model every fleet function serves, resolved via
    /// [`ModelId::from_name`].
    pub model: String,
    /// Pre-warmed instances per function (default 0 — the fleet scales
    /// from zero).
    pub initial: Option<u32>,
    /// Diurnal amplitude in `[0, 1)` (default 0.5).
    pub amp: Option<f64>,
    /// Diurnal period in seconds (default 86 400 — one day).
    pub period_secs: Option<f64>,
    /// Burst intensity multiplier ≥ 1 (default 4).
    pub burst_scale: Option<f64>,
}

/// One function (`[[functions]]`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FunctionSection {
    /// Display name; defaults to `<model>-<role>`.
    pub name: Option<String>,
    /// Model name resolved via [`ModelId::from_name`].
    pub model: String,
    /// `"inference"` (default) or `"training"`.
    pub role: Option<String>,
    /// Inference batch size override (default: profiled optimum).
    pub batch: Option<u32>,
    /// Inference SLO override in milliseconds.
    pub slo_ms: Option<u64>,
    /// SM `request` quota override in percent.
    pub request_pct: Option<f64>,
    /// SM `limit` quota override in percent.
    pub limit_pct: Option<f64>,
    /// Per-GPU memory override in GiB (fractional allowed).
    pub mem_gb: Option<f64>,
    /// GPUs per instance (LLM pipeline stages).
    pub gpus_per_instance: Option<u32>,
    /// Pre-warmed instances for inference (default 1).
    pub initial: Option<u32>,
    /// Training worker count (default 2).
    pub workers: Option<u32>,
    /// Training iteration target (default 50).
    pub iterations: Option<u64>,
    /// Training submission time in seconds (default 0).
    pub start_sec: Option<u64>,
    /// Arrival process for inference functions.
    pub arrivals: Option<ArrivalSpec>,
}

/// A whole scenario file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Scenario name (for reports).
    pub name: Option<String>,
    /// Cluster shape; defaults to the paper testbed.
    pub cluster: Option<ClusterSection>,
    /// System composition.
    pub system: SystemSection,
    /// Serving-plane tunables; defaults to [`SimConfig::default`].
    pub sim: Option<SimSection>,
    /// Network/topology plane; `None` keeps the legacy constants.
    pub network: Option<NetworkSection>,
    /// Run parameters.
    pub run: Option<RunSection>,
    /// The deployed functions.
    pub functions: Vec<FunctionSection>,
    /// Synthesized fleet appended after the explicit functions.
    pub fleet: Option<FleetSection>,
}

impl ScenarioConfig {
    /// Parses a TOML scenario. Unknown keys anywhere in the file are
    /// rejected (the loud-typo contract; component tables accept arbitrary
    /// parameter keys by design).
    pub fn from_toml_str(text: &str) -> Result<Self, ScenarioError> {
        let value = toml::parse_value(text).map_err(|e| ScenarioError::Config(e.to_string()))?;
        Self::from_checked_value(&value)
    }

    /// Parses a JSON scenario with the same unknown-key rejection as
    /// [`from_toml_str`](Self::from_toml_str).
    pub fn from_json_str(text: &str) -> Result<Self, ScenarioError> {
        let value =
            serde_json::parse_value(text).map_err(|e| ScenarioError::Config(e.to_string()))?;
        Self::from_checked_value(&value)
    }

    fn from_checked_value(value: &Value) -> Result<Self, ScenarioError> {
        reject_unknown_keys(value)?;
        Deserialize::from_value(value).map_err(|e| ScenarioError::Config(e.to_string()))
    }

    /// Loads a scenario file, dispatching on the `.toml`/`.json` extension
    /// (anything else is tried as TOML).
    pub fn load(path: &std::path::Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Config(format!("cannot read {}: {e}", path.display())))?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json_str(&text),
            _ => Self::from_toml_str(&text),
        }
        .map_err(|e| {
            // Re-wrap with the path, without stacking the "invalid scenario
            // config" prefix twice.
            let inner = match e {
                ScenarioError::Config(msg) => msg,
                other => other.to_string(),
            };
            ScenarioError::Config(format!("{}: {inner}", path.display()))
        })
    }

    /// Maps the config onto a [`ScenarioBuilder`], resolving component
    /// names through `registry`.
    pub fn into_builder(self, registry: &Registry) -> Result<ScenarioBuilder, ScenarioError> {
        let run =
            self.run.unwrap_or(RunSection { horizon_secs: None, drain_secs: None, seed: None });
        let horizon = SimDuration::from_secs(run.horizon_secs.unwrap_or(60));
        let seed = run.seed.unwrap_or(7);

        let mut builder = match &self.system.preset {
            Some(preset) => SystemKind::from_name(preset)
                .ok_or_else(|| ScenarioError::Unknown {
                    kind: "preset",
                    name: preset.clone(),
                    known: SystemKind::names().iter().map(|&s| s.to_owned()).collect(),
                })?
                .builder(),
            None => ScenarioBuilder::new(),
        };
        builder = builder
            .cluster(self.cluster.as_ref().map(ClusterSection::to_spec).unwrap_or_default())
            .horizon(horizon)
            .drain(SimDuration::from_secs(run.drain_secs.unwrap_or(5)))
            .seed(seed);
        if let Some(sim) = &self.sim {
            builder = builder.sim_config(sim.to_config()?);
        }
        // After sim_config: that call replaces the whole SimConfig, and the
        // network plane rides inside it.
        if let Some(net) = &self.network {
            builder = builder.network(net.to_config()?);
        }

        if let Some(p) = &self.system.placement {
            builder = builder.placement_boxed(registry.placement(&p.name, &p.params)?);
        }
        if let Some(c) = &self.system.controller {
            builder = builder.controller_boxed(registry.controller(&c.name, &c.params)?);
        }
        if let Some(s) = &self.system.share_policy {
            builder = builder.share_policy_boxed(registry.share_policy(&s.name, &s.params)?);
        }

        for (index, f) in self.functions.iter().enumerate() {
            let id = index as u32 + 1;
            let model = ModelId::from_name(&f.model).ok_or_else(|| ScenarioError::Unknown {
                kind: "model",
                name: f.model.clone(),
                known: ModelId::ALL.iter().map(|m| m.name().to_owned()).collect(),
            })?;
            let role = f.role.as_deref().unwrap_or("inference");
            reject_role_mismatched_keys(id, role, f)?;
            match role {
                "inference" => {
                    // Pipelined (multi-GPU) functions go through the
                    // canonical LLM builder so per-stage SM/memory scaling
                    // matches the experiment harness exactly.
                    let mut spec = match f.gpus_per_instance {
                        Some(stages) if stages > 1 => {
                            funcs::llm_inference_function(id, model, stages)
                        }
                        _ => funcs::inference_function(id, model),
                    };
                    if f.gpus_per_instance == Some(0) {
                        // Pass the invalid value through so the serving
                        // plane rejects it with a typed InvalidSpec instead
                        // of silently correcting it to one GPU.
                        spec.gpus_per_instance = 0;
                    }
                    if let Some(batch) = f.batch {
                        if let dilu_cluster::FunctionKind::Inference { slo, .. } = spec.kind {
                            spec.kind = dilu_cluster::FunctionKind::Inference { slo, batch };
                        }
                    }
                    if let Some(slo_ms) = f.slo_ms {
                        if let dilu_cluster::FunctionKind::Inference { batch, .. } = spec.kind {
                            spec.kind = dilu_cluster::FunctionKind::Inference {
                                slo: SimDuration::from_millis(slo_ms),
                                batch,
                            };
                        }
                    }
                    for (key, pct, quota) in [
                        ("request_pct", f.request_pct, &mut spec.quotas.request),
                        ("limit_pct", f.limit_pct, &mut spec.quotas.limit),
                    ] {
                        let Some(pct) = pct else { continue };
                        if !(0.0..=100.0).contains(&pct) {
                            return Err(ScenarioError::Config(format!(
                                "function {id} ({}): `{key}` must be in [0, 100], got {pct}",
                                f.model
                            )));
                        }
                        *quota = dilu_gpu::SmRate::from_percent(pct);
                    }
                    // `Quotas::new` clamps a profiled limit up to the
                    // request; an override may not undercut it either.
                    if spec.quotas.limit < spec.quotas.request {
                        return Err(ScenarioError::Config(format!(
                            "function {id} ({}): `limit_pct` ({}) must not be below \
                             `request_pct` ({})",
                            f.model,
                            spec.quotas.limit.as_percent(),
                            spec.quotas.request.as_percent()
                        )));
                    }
                    if let Some(gb) = f.mem_gb {
                        spec.quotas.mem_bytes = (gb * dilu_gpu::GB as f64) as u64;
                    }
                    if let Some(name) = &f.name {
                        spec.name = name.clone();
                    }
                    let arrivals = f.arrivals.clone().ok_or_else(|| {
                        ScenarioError::Config(format!(
                            "function {id} ({}) is inference but has no `arrivals`",
                            f.model
                        ))
                    })?;
                    builder = builder
                        .function(spec)
                        .initial_instances(f.initial.unwrap_or(1))
                        .arrivals_spec(arrivals);
                }
                "training" => {
                    let workers = f.workers.unwrap_or(2);
                    let iterations = f.iterations.unwrap_or(50);
                    let mut spec = funcs::training_function(id, model, workers, iterations);
                    if let Some(name) = &f.name {
                        spec.name = name.clone();
                    }
                    builder = builder
                        .function(spec)
                        .starts_at(SimTime::from_secs(f.start_sec.unwrap_or(0)));
                }
                other => {
                    return Err(ScenarioError::Config(format!(
                        "function {id}: unknown role `{other}` (inference | training)"
                    )));
                }
            }
        }
        if let Some(fleet) = &self.fleet {
            builder = expand_fleet(builder, fleet, self.functions.len() as u32)?;
        }
        Ok(builder)
    }
}

/// Expands `[fleet]` onto the builder: `functions` synthetic inference
/// functions with ids following the explicit ones, per-function rates on a
/// Zipf-like curve (weight ∝ 1/(i+1)^0.9) normalized to `total_rps`, and
/// `synth` arrivals whose diurnal phases spread evenly over the period so
/// the fleet's load is not phase-locked. Fully deterministic: everything
/// derives from the index and the scenario seed.
fn expand_fleet(
    mut builder: ScenarioBuilder,
    fleet: &FleetSection,
    explicit: u32,
) -> Result<ScenarioBuilder, ScenarioError> {
    if fleet.functions == 0 {
        return Err(ScenarioError::Config("[fleet] `functions` must be at least 1".into()));
    }
    if !(fleet.total_rps.is_finite() && fleet.total_rps > 0.0) {
        return Err(ScenarioError::Config(format!(
            "[fleet] `total_rps` must be a positive number, got {}",
            fleet.total_rps
        )));
    }
    let model = ModelId::from_name(&fleet.model).ok_or_else(|| ScenarioError::Unknown {
        kind: "model",
        name: fleet.model.clone(),
        known: ModelId::ALL.iter().map(|m| m.name().to_owned()).collect(),
    })?;
    let n = fleet.functions;
    let amp = fleet.amp.unwrap_or(0.5);
    let period = fleet.period_secs.unwrap_or(86_400.0);
    if !(period.is_finite() && period > 0.0) {
        return Err(ScenarioError::Config(format!(
            "[fleet] `period_secs` must be a positive number, got {period}"
        )));
    }
    let weight = |i: u32| 1.0 / f64::from(i + 1).powf(0.9);
    let total_weight: f64 = (0..n).map(weight).sum();
    for i in 0..n {
        let id = explicit + i + 1;
        let mut spec = funcs::inference_function(id, model);
        spec.name = format!("fleet-{i:05}");
        let rate = fleet.total_rps * weight(i) / total_weight;
        let mut arrivals = ArrivalSpec::synth(rate, amp);
        arrivals.period = Some(period);
        arrivals.phase = Some(period * f64::from(i) / f64::from(n));
        arrivals.scale = fleet.burst_scale;
        builder = builder
            .function(spec)
            .initial_instances(fleet.initial.unwrap_or(0))
            .arrivals_spec(arrivals);
    }
    Ok(builder)
}

/// Key schema of every fixed-shape section; `[system.placement]` etc. are
/// exempt (their extra keys *are* the component parameters).
fn reject_unknown_keys(root: &Value) -> Result<(), ScenarioError> {
    fn check(section: &str, v: &Value, known: &[&str]) -> Result<(), ScenarioError> {
        let Some(entries) = v.as_map() else { return Ok(()) };
        for (k, _) in entries {
            let key = k.as_str().unwrap_or("<non-string>");
            if !known.contains(&key) {
                return Err(ScenarioError::Config(format!(
                    "unknown key `{key}` in {section} (known: {})",
                    known.join(", ")
                )));
            }
        }
        Ok(())
    }
    check(
        "the scenario root",
        root,
        &["name", "cluster", "system", "sim", "network", "run", "functions", "fleet"],
    )?;
    if let Some(fleet) = root.get("fleet") {
        check(
            "[fleet]",
            fleet,
            &["functions", "total_rps", "model", "initial", "amp", "period_secs", "burst_scale"],
        )?;
    }
    if let Some(cluster) = root.get("cluster") {
        check("[cluster]", cluster, &["nodes", "gpus_per_node", "gpu_mem_gb"])?;
    }
    if let Some(sim) = root.get("sim") {
        check(
            "[sim]",
            sim,
            &[
                "quantum_ms",
                "tick_ms",
                "batch_timeout_frac",
                "batch_timeout_cap_ms",
                "stage_transfer_ms",
                "resize_latency_ms",
                "time_model",
                "threads",
                "profile",
                "function_series",
            ],
        )?;
    }
    if let Some(network) = root.get("network") {
        check(
            "[network]",
            network,
            &["preset", "registry_gbps", "tor_gbps", "nvlink_gbps", "cache_gb", "provision_ms"],
        )?;
    }
    if let Some(run) = root.get("run") {
        check("[run]", run, &["horizon_secs", "drain_secs", "seed"])?;
    }
    if let Some(system) = root.get("system") {
        check("[system]", system, &["preset", "placement", "controller", "share_policy"])?;
    }
    if let Some(Value::Seq(functions)) = root.get("functions") {
        for f in functions {
            check(
                "[[functions]]",
                f,
                &[
                    "name",
                    "model",
                    "role",
                    "batch",
                    "slo_ms",
                    "request_pct",
                    "limit_pct",
                    "mem_gb",
                    "gpus_per_instance",
                    "initial",
                    "workers",
                    "iterations",
                    "start_sec",
                    "arrivals",
                ],
            )?;
            if let Some(arrivals) = f.get("arrivals") {
                check(
                    "arrivals",
                    arrivals,
                    &[
                        "process", "rate", "cv", "shape", "scale", "times", "seed", "path",
                        "format", "function", "amp", "period", "phase",
                    ],
                )?;
            }
        }
    }
    Ok(())
}

/// Rejects function keys that belong to the other role, so a
/// misconfigured function fails loudly instead of silently dropping the
/// keys (mirrors the registry's unknown-parameter protection).
fn reject_role_mismatched_keys(
    id: u32,
    role: &str,
    f: &FunctionSection,
) -> Result<(), ScenarioError> {
    let offending: Vec<&str> = match role {
        "inference" => [
            ("workers", f.workers.is_some()),
            ("iterations", f.iterations.is_some()),
            ("start_sec", f.start_sec.is_some()),
        ]
        .into_iter()
        .filter_map(|(k, set)| set.then_some(k))
        .collect(),
        "training" => [
            ("batch", f.batch.is_some()),
            ("slo_ms", f.slo_ms.is_some()),
            ("request_pct", f.request_pct.is_some()),
            ("limit_pct", f.limit_pct.is_some()),
            ("mem_gb", f.mem_gb.is_some()),
            ("gpus_per_instance", f.gpus_per_instance.is_some()),
            ("initial", f.initial.is_some()),
            ("arrivals", f.arrivals.is_some()),
        ]
        .into_iter()
        .filter_map(|(k, set)| set.then_some(k))
        .collect(),
        _ => Vec::new(),
    };
    if offending.is_empty() {
        Ok(())
    } else {
        Err(ScenarioError::Config(format!(
            "function {id}: `{}` does not apply to role `{role}`",
            offending.join("`, `")
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = r#"
name = "demo"

[cluster]
nodes = 1
gpus_per_node = 2

[system]
preset = "dilu"

[run]
horizon_secs = 8
seed = 3

[[functions]]
model = "bert-base"
arrivals = { process = "poisson", rate = 20.0 }
"#;

    #[test]
    fn toml_config_builds_and_runs() {
        let config = ScenarioConfig::from_toml_str(DEMO).unwrap();
        assert_eq!(config.name.as_deref(), Some("demo"));
        let registry = Registry::with_defaults();
        let scenario = config.into_builder(&registry).unwrap().build().unwrap();
        assert_eq!(scenario.sim().placement_name(), "dilu-scheduler");
        assert_eq!(scenario.sim().share_policy_name(), "dilu-rckm");
        let report = scenario.run().unwrap();
        assert!(report.inference.values().next().unwrap().completed > 0);
    }

    #[test]
    fn component_tables_override_presets() {
        let text = r#"
[system]
preset = "dilu"

[system.share_policy]
name = "mps-l"

[[functions]]
model = "vgg19"
arrivals = { process = "poisson", rate = 5.0 }
"#;
        let config = ScenarioConfig::from_toml_str(text).unwrap();
        let registry = Registry::with_defaults();
        let scenario = config.into_builder(&registry).unwrap().build().unwrap();
        assert_eq!(scenario.sim().share_policy_name(), "mps-l");
        assert_eq!(scenario.sim().placement_name(), "dilu-scheduler");
    }

    #[test]
    fn idle_gaps_longer_than_the_replay_cap_match_dense_stepping() {
        // Two arrivals separated by ~2.9 s of complete idleness — about
        // 580 skipped 5 ms token cycles, far past the dilu preset's
        // RCKM idle-history bound from any state
        // (`SharePolicy::idle_history_cycles` of a fresh policy, 96 cycles
        // at the defaults). The event core replays at most that bounded
        // tail of the gap into the policy, and a release build stops
        // sooner, at the cycle after which RCKM reads 0 (its fixed point,
        // within `rate_window` + 2 cycles here). The dense reference
        // (which steps every one of the ~580 idle cycles) must still agree
        // byte-for-byte.
        let text = |model: &str| {
            format!(
                r#"
[cluster]
nodes = 1
gpus_per_node = 1

[system]
preset = "dilu"

[sim]
time_model = "{model}"

[run]
horizon_secs = 6
seed = 11

[[functions]]
model = "bert-base"
arrivals = {{ process = "replay", times = [0.1, 3.0] }}
"#
            )
        };
        let run = |model: &str| {
            let config = ScenarioConfig::from_toml_str(&text(model)).unwrap();
            let registry = Registry::with_defaults();
            config.into_builder(&registry).unwrap().build().unwrap().run().unwrap()
        };
        let event = run("event-driven");
        let dense = run("dense-quantum");
        assert_eq!(
            serde_json::to_string(&event).unwrap(),
            serde_json::to_string(&dense).unwrap(),
            "bounded idle replay must equal dense idle stepping across a >cap gap"
        );
        let f = event.inference.values().next().unwrap();
        assert_eq!(f.arrived, 2);
        assert_eq!(f.completed, 2, "both sides of the idle gap serve their request");
    }

    #[test]
    fn json_round_trip_preserves_the_config() {
        let config = ScenarioConfig::from_toml_str(DEMO).unwrap();
        let json = serde_json::to_string_pretty(&config).unwrap();
        let back = ScenarioConfig::from_json_str(&json).unwrap();
        assert_eq!(config, back);
    }

    #[test]
    fn sim_section_round_trips_and_applies() {
        let text = r#"
[system]
preset = "dilu"

[sim]
quantum_ms = 2.5
tick_ms = 500.0
batch_timeout_frac = 0.5
batch_timeout_cap_ms = 50.0
stage_transfer_ms = 1.0
resize_latency_ms = 2.0

[run]
horizon_secs = 5

[[functions]]
model = "bert-base"
arrivals = { process = "poisson", rate = 10.0 }
"#;
        let config = ScenarioConfig::from_toml_str(text).unwrap();
        // TOML → JSON → TOML-equivalent structure round-trips exactly.
        let json = serde_json::to_string_pretty(&config).unwrap();
        let back = ScenarioConfig::from_json_str(&json).unwrap();
        assert_eq!(config, back);
        // And the values land in the running simulator's SimConfig.
        let registry = Registry::with_defaults();
        let scenario = config.into_builder(&registry).unwrap().build().unwrap();
        let sim_config = *scenario.sim().config();
        assert_eq!(sim_config.quantum, SimDuration::from_micros(2_500));
        assert_eq!(sim_config.tick, SimDuration::from_millis(500));
        assert!((sim_config.batch_timeout_frac - 0.5).abs() < 1e-12);
        assert_eq!(sim_config.batch_timeout_cap, SimDuration::from_millis(50));
        assert_eq!(sim_config.stage_transfer, SimDuration::from_millis(1));
        assert_eq!(sim_config.resize_latency, SimDuration::from_millis(2));
    }

    #[test]
    fn sim_section_rejects_invalid_values() {
        let registry = Registry::with_defaults();
        let cases = [
            ("quantum_ms = 0.0", "quantum_ms"),
            ("quantum_ms = -1.0", "quantum_ms"),
            ("quantum_ms = 0.0004", "quantum_ms"), // rounds to 0 µs
            ("tick_ms = 1.0", "tick_ms"),          // shorter than the default 5 ms quantum
            ("batch_timeout_frac = 1.5", "batch_timeout_frac"),
            ("quantum_typo_ms = 5.0", "quantum_typo_ms"),
        ];
        for (line, needle) in cases {
            let text = format!(
                "[system]\npreset = \"dilu\"\n\n[sim]\n{line}\n\n[[functions]]\nmodel = \
                 \"bert-base\"\narrivals = {{ process = \"poisson\", rate = 5.0 }}\n"
            );
            let err = ScenarioConfig::from_toml_str(&text)
                .and_then(|c| c.into_builder(&registry).map(|_| ()))
                .map_err(|e| e.to_string());
            assert!(err.as_ref().is_err_and(|e| e.contains(needle)), "{line}: {err:?}");
        }
    }

    #[test]
    fn quota_overrides_must_be_percentages_with_limit_at_least_request() {
        let registry = Registry::with_defaults();
        let build = |keys: &str| {
            let text = format!(
                "[system]\npreset = \"dilu\"\n\n[[functions]]\nmodel = \"bert-base\"\n\
                 arrivals = {{ process = \"poisson\", rate = 5.0 }}\n{keys}\n"
            );
            ScenarioConfig::from_toml_str(&text)
                .and_then(|c| c.into_builder(&registry).map(|_| ()))
                .map_err(|e| e.to_string())
        };
        assert_eq!(build("request_pct = 20.0\nlimit_pct = 40.0"), Ok(()));
        assert_eq!(build("request_pct = 0.0\nlimit_pct = 100.0"), Ok(()));
        let cases = [
            (
                "request_pct = -5.0",
                "function 1 (bert-base): `request_pct` must be in [0, 100], got -5",
            ),
            ("limit_pct = -1.0", "`limit_pct` must be in [0, 100], got -1"),
            ("request_pct = 1e309", "`request_pct` must be in [0, 100], got inf"),
            ("limit_pct = 100.5", "`limit_pct` must be in [0, 100], got 100.5"),
            (
                "request_pct = 50.0\nlimit_pct = 10.0",
                "function 1 (bert-base): `limit_pct` (10) must not be below `request_pct` (50)",
            ),
            // The profiled limit is the effective one when only the
            // request is overridden.
            ("request_pct = 100.0", "must not be below `request_pct` (100)"),
        ];
        for (keys, needle) in cases {
            let err = build(keys);
            assert!(err.as_ref().is_err_and(|e| e.contains(needle)), "{keys}: {err:?}");
        }
    }

    #[test]
    fn controller_section_selects_2d_coscaling() {
        let text = r#"
[system]
preset = "dilu"

[system.controller]
name = "co-scale"
max_request_pct = 80.0
phi_out = 10

[[functions]]
model = "bert-base"
arrivals = { process = "poisson", rate = 10.0 }
"#;
        let config = ScenarioConfig::from_toml_str(text).unwrap();
        let registry = Registry::with_defaults();
        let scenario = config.into_builder(&registry).unwrap().build().unwrap();
        assert_eq!(scenario.sim().controller_name(), "dilu-co-scaler");
        // Horizontal-only controllers fill the same slot.
        let fallback = ScenarioConfig::from_toml_str(
            &text
                .replace("name = \"co-scale\"", "name = \"reactive\"")
                .replace("max_request_pct = 80.0\nphi_out = 10\n", ""),
        )
        .unwrap();
        let scenario = fallback.into_builder(&registry).unwrap().build().unwrap();
        assert_eq!(scenario.sim().controller_name(), "fast-gs+-reactive");
    }

    #[test]
    fn autoscaler_table_is_an_unknown_key_naming_controller() {
        let text = r#"
[system]
preset = "dilu"

[system.autoscaler]
name = "lazy"

[[functions]]
model = "bert-base"
arrivals = { process = "poisson", rate = 10.0 }
"#;
        let err = ScenarioConfig::from_toml_str(text).map(|_| ()).map_err(|e| e.to_string());
        assert!(
            err.as_ref().is_err_and(|e| e.contains("`autoscaler`") && e.contains("controller")),
            "{err:?}"
        );
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let bad_model = DEMO.replace("bert-base", "bert-gigantic");
        let config = ScenarioConfig::from_toml_str(&bad_model).unwrap();
        let registry = Registry::with_defaults();
        let err = match config.into_builder(&registry) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("unknown model must fail"),
        };
        assert!(err.contains("bert-gigantic") && err.contains("bert-base"), "{err}");
    }
}
