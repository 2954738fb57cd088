//! The simulator benchmark's shared pieces: seeded scenario generation
//! ([`Workload::config`]), the set-up that `setup_s` times ([`set_up`]),
//! and the end-to-end outcome of one report ([`Outcome`]).
//!
//! Both binaries link this library. `perfbench` measures untraced runs;
//! `perfbench-trace` wraps the registry's components and reads the
//! simulator's hooks to split a run by layer. `run.py` drives both.

use std::time::Instant;

use dilu_cluster::{ClusterReport, ClusterSim};
use dilu_core::{Registry, ScenarioConfig};
use dilu_sim::SimTime;

/// The benchmark's workloads, each one generated scenario family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// production-day's 10k-function fleet on 32 GPUs, for a slice of the
    /// day: almost every placement fails.
    FleetOverload,
    /// macro-scale's 1024-GPU hour of bursty multi-model traffic: GPU
    /// stepping, dispatch and the event core dominate.
    MacroBurst,
    /// Hundreds of scale-from-zero functions under a short keep-alive and
    /// a priced network plane: placements land, instances churn.
    ColdstartChurn,
}

/// Traffic horizon of the fleet-overload slice, in simulated seconds.
const FLEET_HORIZON_SECS: u64 = 120;
/// Traffic horizon of macro-burst, in simulated seconds.
const MACRO_HORIZON_SECS: u64 = 3600;
/// Traffic horizon of coldstart-churn, in simulated seconds.
const CHURN_HORIZON_SECS: u64 = 1200;

/// coldstart-churn's function count and burst-group size.
const CHURN_FUNCTIONS: usize = 640;
const CHURN_GROUP: usize = 8;
/// The five single-GPU models coldstart-churn rotates through.
const CHURN_MODELS: [&str; 5] = ["resnet152", "vgg19", "bert-base", "roberta-large", "gpt2-large"];

/// One of macro-burst's inference functions.
struct MacroFunction {
    model: &'static str,
    /// Extra function keys (a name override, pipeline stages).
    keys: &'static str,
    /// The synthesized trace: shape, base rate (rps) and burst scale.
    shape: &'static str,
    rate: f64,
    scale: f64,
}

const fn macro_fn(
    model: &'static str,
    keys: &'static str,
    shape: &'static str,
    rate: f64,
    scale: f64,
) -> MacroFunction {
    MacroFunction { model, keys, shape, rate, scale }
}

/// macro-burst's inference functions: macro-scale's mix, except that
/// chatglm3-6b follows a periodic trace (6–12 rps) instead of a bursty
/// one. Each of its instances holds four GPUs, so random bursts there
/// moved the mean occupied GPUs (and `goodput_per_gpu`) by about a fifth
/// from seed to seed; a periodic shape leaves the seed only the arrival
/// sampling.
const MACRO_FUNCTIONS: [MacroFunction; 8] = [
    macro_fn("resnet152", "", "bursty", 40.0, 6.0),
    macro_fn("vgg19", "", "bursty", 25.0, 5.0),
    macro_fn("bert-base", "", "bursty", 60.0, 6.0),
    macro_fn("roberta-large", "", "bursty", 30.0, 5.0),
    macro_fn("gpt2-large", "", "sporadic", 15.0, 6.0),
    macro_fn("bert-base", "name = \"bert-base-b\"\n", "periodic", 30.0, 4.0),
    macro_fn("resnet152", "name = \"resnet-152-b\"\n", "sporadic", 10.0, 10.0),
    macro_fn("chatglm3-6b", "gpus_per_instance = 4\nbatch = 2\n", "periodic", 6.0, 2.0),
];

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] =
        [Workload::FleetOverload, Workload::MacroBurst, Workload::ColdstartChurn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetOverload => "fleet-overload",
            Workload::MacroBurst => "macro-burst",
            Workload::ColdstartChurn => "coldstart-churn",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured scenario config for `seed`, as TOML text.
    pub fn config(self, seed: u64) -> String {
        let horizon = match self {
            Workload::FleetOverload => FLEET_HORIZON_SECS,
            Workload::MacroBurst => MACRO_HORIZON_SECS,
            Workload::ColdstartChurn => CHURN_HORIZON_SECS,
        };
        self.config_with_horizon(seed, horizon)
    }

    /// [`config`](Self::config) with another traffic horizon (the tests
    /// use short ones).
    pub fn config_with_horizon(self, seed: u64, horizon_secs: u64) -> String {
        let run_seed = mix(seed, 0);
        match self {
            Workload::FleetOverload => fleet_overload(run_seed, horizon_secs),
            Workload::MacroBurst => macro_burst(seed, run_seed, horizon_secs),
            Workload::ColdstartChurn => coldstart_churn(seed, run_seed, horizon_secs),
        }
    }
}

/// SplitMix64 of `seed` salted with `salt`, cut to 53 bits so it reads
/// back exactly as a TOML integer and a JSON number: the scenario and
/// per-function seeds, so neighbouring workload seeds give unrelated
/// streams.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 11
}

/// The `[cluster]`, `[system.*]` and `[sim]` header every workload shares.
/// Components are named explicitly so the traced run can wrap them
/// through the registry (presets bypass it); `threads = 1` keeps
/// `DILU_THREADS` from changing what is timed.
fn header(
    name: &str,
    functions_key: bool,
    nodes: u32,
    controller: &str,
    function_series: bool,
    seed: u64,
    horizon: u64,
) -> String {
    let series = if function_series { "" } else { "function_series = false\n" };
    // A fleet-only scenario still declares its (empty) explicit list.
    let functions = if functions_key { "functions = []\n" } else { "" };
    format!(
        "name = \"{name}\"\n{functions}\n\
         [cluster]\nnodes = {nodes}\ngpus_per_node = 4\n\n\
         [system.placement]\nname = \"dilu\"\n\n\
         [system.controller]\n{controller}\n\n\
         [system.share_policy]\nname = \"rckm\"\n\n\
         [sim]\nthreads = 1\n{series}\n\
         [run]\nhorizon_secs = {horizon}\ndrain_secs = 30\nseed = {seed}\n"
    )
}

fn fleet_overload(run_seed: u64, horizon: u64) -> String {
    let mut text =
        header("fleet-overload", true, 8, "name = \"co-scale\"", false, run_seed, horizon);
    text += "\n[fleet]\nfunctions = 10000\ntotal_rps = 130.0\nmodel = \"bert-base\"\n\
             initial = 0\namp = 0.6\nburst_scale = 3.0\n";
    text
}

fn macro_burst(seed: u64, run_seed: u64, horizon: u64) -> String {
    let mut text =
        header("macro-burst", false, 256, "name = \"co-scale\"", true, run_seed, horizon);
    for (i, f) in MACRO_FUNCTIONS.iter().enumerate() {
        let MacroFunction { model, keys, shape, rate, scale } = f;
        let fseed = mix(seed, i as u64 + 1);
        text += &format!(
            "\n[[functions]]\nmodel = \"{model}\"\n{keys}arrivals = {{ process = \"trace\", \
             shape = \"{shape}\", rate = {rate:.1}, scale = {scale:.1}, seed = {fseed} }}\n"
        );
    }
    // Best-effort training co-runners arriving through the hour.
    text += "\n[[functions]]\nmodel = \"bert-base\"\nname = \"bert-train\"\nrole = \"training\"\n\
             workers = 2\niterations = 20000\nstart_sec = 300\n";
    text += "\n[[functions]]\nmodel = \"resnet152\"\nname = \"resnet-train\"\n\
             role = \"training\"\nworkers = 2\niterations = 15000\nstart_sec = 1500\n";
    text
}

fn coldstart_churn(seed: u64, run_seed: u64, horizon: u64) -> String {
    let controller = "name = \"keep-alive\"\nkeep_alive_secs = 10.0";
    let mut text = header("coldstart-churn", false, 64, controller, false, run_seed, horizon);
    // Per-node caches hold fewer bytes than the five models' weights, so a
    // relaunch on a node that last served other models fetches again.
    text += "\n[network]\nregistry_gbps = 20.0\ntor_gbps = 25.0\ncache_gb = 4.0\n\
             provision_ms = 2000.0\n";
    for i in 0..CHURN_FUNCTIONS {
        // One sporadic trace per group: its members burst in the same
        // seconds, so their cold starts contend for the registry link. The
        // group's rate (0.25–1.19 rps) is fixed by its index, so the seed
        // moves only when the bursts come.
        let group = (i / CHURN_GROUP) as u64;
        let gseed = mix(seed, 1_000 + group);
        let rate = 0.25 + (group % 16) as f64 / 16.0;
        let model = CHURN_MODELS[i % CHURN_MODELS.len()];
        text += &format!(
            "\n[[functions]]\nname = \"churn-{i:03}\"\nmodel = \"{model}\"\ninitial = 0\n\
             arrivals = {{ process = \"trace\", shape = \"sporadic\", rate = {rate:.3}, seed = \
             {gseed} }}\n"
        );
    }
    text
}

/// A deployed scenario, windows primed, ready for the timed run.
pub struct Prepared {
    /// The simulator, at simulated time zero.
    pub sim: ClusterSim,
    /// Where the run stops: the traffic horizon plus the drain tail.
    pub end: SimTime,
}

/// Composes `config` through `registry` into a deployed scenario. Errors
/// carry the scenario error's message.
pub fn deploy(config: ScenarioConfig, registry: &Registry) -> Result<Prepared, String> {
    let scenario =
        config.into_builder(registry).and_then(|b| b.build()).map_err(|e| e.to_string())?;
    let end = SimTime::ZERO + scenario.horizon() + scenario.drain();
    Ok(Prepared { sim: scenario.into_sim(), end })
}

/// Primes every streaming function's first arrival window. A
/// `run_until` at time zero pulls the first chunks and simulates nothing
/// (the run proper starts from the same state), so the first refill is
/// set-up work, as `setup_s` defines it.
pub fn prime(prepared: &mut Prepared) {
    prepared.sim.run_until(SimTime::ZERO);
}

/// The whole set-up `setup_s` times: the generated text to a deployed,
/// primed scenario, through the default registry.
pub fn set_up(text: &str) -> Result<Prepared, String> {
    let registry = Registry::with_defaults();
    let config = ScenarioConfig::from_toml_str(text).map_err(|e| e.to_string())?;
    let mut prepared = deploy(config, &registry)?;
    prime(&mut prepared);
    Ok(prepared)
}

/// Runs a prepared scenario to its end and returns the report with the
/// host seconds from the `run_until` to the returned report.
pub fn run(prepared: Prepared) -> (ClusterReport, f64) {
    let Prepared { mut sim, end } = prepared;
    let started = Instant::now();
    sim.run_until(end);
    let report = sim.into_report();
    (report, started.elapsed().as_secs_f64())
}

/// The simulated outcome of one run, and its output checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Requests that arrived, over every inference function.
    pub arrived: u64,
    /// Requests completed by the end of the drain.
    pub completed: u64,
    /// Completions within their function's SLO.
    pub met_slo: u64,
    /// `met_slo` over `arrived`, in percent: unserved requests are misses.
    pub slo_attain_pct: f64,
    /// `met_slo` per simulated second, per mean occupied GPU.
    pub goodput_per_gpu: f64,
    /// Mean SM fragmentation over the 1 Hz snapshots, in percent.
    pub sm_frag_pct: f64,
    /// FNV-1a digest of the full report's JSON.
    pub digest: u64,
    /// Failed output checks, empty when the report is sound.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Computes the outcome of `report` and checks it.
    pub fn of(report: &ClusterReport) -> Outcome {
        let mut failures = Vec::new();
        let (mut arrived, mut completed, mut met_slo) = (0, 0, 0);
        for (id, f) in &report.inference {
            if f.completed > f.arrived {
                failures.push(format!(
                    "function {id} ({}) completed {} of {} arrivals",
                    f.name, f.completed, f.arrived
                ));
            }
            arrived += f.arrived;
            completed += f.completed;
            // `FunctionReport::svr` counts a violation when latency > SLO.
            met_slo += f.latency.iter().filter(|&d| d <= f.slo).count() as u64;
        }
        if arrived == 0 {
            failures.push("no request arrived".to_owned());
        }
        let horizon_s = report.horizon.as_secs_f64();
        let gpus = report.mean_occupied_gpus();
        let goodput_per_gpu =
            if horizon_s > 0.0 && gpus > 0.0 { met_slo as f64 / horizon_s / gpus } else { 0.0 };
        let json = serde_json::to_string(report).expect("a ClusterReport serializes");
        Outcome {
            arrived,
            completed,
            met_slo,
            slo_attain_pct: if arrived == 0 {
                0.0
            } else {
                100.0 * met_slo as f64 / arrived as f64
            },
            goodput_per_gpu,
            sm_frag_pct: 100.0 * report.fragmentation.mean_sm_fragmentation(),
            digest: fnv1a(json.as_bytes()),
            failures,
        }
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// This process's peak resident set (`VmHWM`) in KiB, from procfs.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// One flat JSON object, written key by key; the binaries print one per
/// process for `run.py` to read.
#[derive(Debug, Default)]
pub struct JsonLine(String);

impl JsonLine {
    fn key(&mut self, key: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        self.0 += &format!("\"{key}\":");
    }

    /// Adds a number; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            self.0 += &format!("{value}");
        } else {
            self.0 += "null";
        }
        self
    }

    /// Adds an unsigned integer.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        self.0 += &value.to_string();
        self
    }

    /// Adds a string (JSON-escaped by the serializer).
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.0 += &serde_json::to_string(value).expect("a string serializes");
        self
    }

    /// Adds a list of strings.
    pub fn strs(&mut self, key: &str, values: &[String]) -> &mut Self {
        self.key(key);
        self.0 += &serde_json::to_string(values).expect("strings serialize");
        self
    }

    /// Adds the outcome's simulated metrics, digest and failed checks.
    pub fn outcome(&mut self, o: &Outcome) -> &mut Self {
        self.int("arrived", o.arrived)
            .int("completed", o.completed)
            .int("met_slo", o.met_slo)
            .num("slo_attain_pct", o.slo_attain_pct)
            .num("goodput_per_gpu", o.goodput_per_gpu)
            .num("sm_frag_pct", o.sm_frag_pct)
            .str("digest", &format!("{:016x}", o.digest))
            .strs("failures", &o.failures)
    }

    /// The finished object.
    pub fn finish(&self) -> String {
        if self.0.is_empty() {
            "{}".to_owned()
        } else {
            format!("{}}}", self.0)
        }
    }
}

/// Parses the binaries' shared `--workload <name> --seed <n>` arguments.
pub fn parse_args(args: &[String]) -> Result<(Workload, u64), String> {
    let (mut workload, mut seed) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (known: {})", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, seed.ok_or("--seed is required")?))
}
