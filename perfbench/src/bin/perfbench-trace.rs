//! The traced benchmark process: one run of a workload, split by layer
//! from outside the simulator.
//!
//! ```text
//! perfbench-trace --workload <name> --seed <n>   print one JSON line of per-layer metrics
//! ```
//!
//! Every measurement uses a public seam and leaves the report unchanged
//! (the report digest is printed so `run.py` can compare it with an
//! untraced run's):
//!
//! * the placement, elasticity controller and per-GPU share policy are
//!   wrapped by re-registering every built-in name in a [`Registry`];
//! * the event, arrival and audit hooks count events, refills and the
//!   per-tick request ledger;
//! * `[sim] profile` turns on the simulator's own `PhaseProfile`, which
//!   times the phases that have no public seam (dispatch, arrive, net);
//! * a counting global allocator charges every allocation to the
//!   innermost wrapped call.
//!
//! Spans are aggregated per (layer, parent) into a count, total and self
//! nanoseconds; the table goes to stderr.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use dilu_cluster::{
    AuditSnapshot, ClusterView, ElasticityController, EventRecord, FunctionScaleView, FunctionSpec,
    GpuAddr, Placement, PolicyFactory, ScaleAction, QUANTUM_CHAIN_CODE,
};
use dilu_core::{funcs, Registry, ScenarioConfig};
use dilu_gpu::{Grant, InstanceId, InstanceView, SharePolicy, SmRate};
use dilu_models::ModelId;
use dilu_perfbench::{prime, JsonLine, Outcome, Prepared, Workload};
use dilu_sim::{SimDuration, SimTime};

/// What a span or an allocation is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    /// Nothing wrapped is running.
    Outside,
    /// Config parsing, profiling and the build.
    Setup,
    /// The timed `run_until`.
    Run,
    /// `ClusterSim::into_report`.
    Report,
    /// `Placement::place`.
    Scheduler,
    /// `ElasticityController::on_tick`.
    Scaler,
    /// `SharePolicy::allocate(_into)`.
    Rckm,
}

const LAYERS: usize = 7;
const LAYER_NAMES: [&str; LAYERS] = [
    "outside",
    "setup",
    "run",
    "metrics.report",
    "scheduler.place",
    "scaler.on_tick",
    "rckm.allocate",
];

impl Layer {
    const ALL: [Layer; LAYERS] = [
        Layer::Outside,
        Layer::Setup,
        Layer::Run,
        Layer::Report,
        Layer::Scheduler,
        Layer::Scaler,
        Layer::Rckm,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

// ---------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------

/// The layer allocations are charged to (the innermost open span).
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// Allocations (including reallocations) per layer.
static ALLOCS: [AtomicU64; LAYERS] = [const { AtomicU64::new(0) }; LAYERS];
/// Live and peak heap bytes.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting. The counters are statistics only
/// (nothing is published through them), so `Relaxed` suffices.
struct Counting;

fn note_alloc(size: usize) {
    ALLOCS[CURRENT.load(Relaxed)].fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s layout contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract,
        // and `ptr` came from `System` for `layout`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            note_alloc(new_size);
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations charged to each layer so far.
fn allocs() -> [u64; LAYERS] {
    Layer::ALL.map(|l| ALLOCS[l.index()].load(Relaxed))
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One (layer, parent) span aggregate.
#[derive(Debug, Default, Clone, Copy)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

thread_local! {
    /// Span aggregates, indexed `[layer][parent]`.
    static SPANS: RefCell<[[SpanStat; LAYERS]; LAYERS]> =
        const { RefCell::new([[SpanStat { count: 0, total_ns: 0, self_ns: 0 }; LAYERS]; LAYERS]) };
    /// Nanoseconds spent in child spans of the innermost open span.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// Runs `f` as a span of `layer`, charged to the span that is open now.
fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    span_ns(layer, f).0
}

/// [`span`], also returning the span's nanoseconds.
fn span_ns<R>(layer: Layer, f: impl FnOnce() -> R) -> (R, u64) {
    let parent = CURRENT.swap(layer.index(), Relaxed);
    let outer_child_ns = CHILD_NS.with(|c| c.replace(0));
    let started = Instant::now();
    let result = f();
    let ns = started.elapsed().as_nanos() as u64;
    let child_ns = CHILD_NS.with(|c| c.replace(outer_child_ns + ns));
    CURRENT.store(parent, Relaxed);
    SPANS.with(|s| {
        let stat = &mut s.borrow_mut()[layer.index()][parent];
        stat.count += 1;
        stat.total_ns += ns;
        stat.self_ns += ns.saturating_sub(child_ns);
    });
    (result, ns)
}

/// `true` when the innermost open span is the timed run.
fn in_run() -> bool {
    CURRENT.load(Relaxed) == Layer::Run.index()
}

fn stat(layer: Layer, parent: Layer) -> SpanStat {
    SPANS.with(|s| s.borrow()[layer.index()][parent.index()])
}

// ---------------------------------------------------------------------
// Wrapped components
// ---------------------------------------------------------------------

thread_local! {
    /// The instant of the wake being processed, in microseconds (set by
    /// the event hook).
    static WAKE_AT: Cell<u64> = const { Cell::new(0) };
    /// Share-policy calls replaying skipped idle cycles (their `now` is
    /// before the wake), and their host nanoseconds.
    static REPLAY_CALLS: Cell<u64> = const { Cell::new(0) };
    static REPLAY_NS: Cell<u64> = const { Cell::new(0) };
    /// Failed placements made inside the run.
    static PLACE_FAILS: Cell<u64> = const { Cell::new(0) };
    /// Views handed to and actions returned by controller ticks in the run.
    static SCALER_VIEWS: Cell<u64> = const { Cell::new(0) };
    static SCALER_ACTIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>, by: u64) {
    counter.with(|c| c.set(c.get() + by));
}

struct TracedPlacement(Box<dyn Placement>);

impl Placement for TracedPlacement {
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        let counted = in_run();
        let placed = span(Layer::Scheduler, || self.0.place(func, cluster));
        if counted && placed.is_none() {
            bump(&PLACE_FAILS, 1);
        }
        placed
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

struct TracedController(Box<dyn ElasticityController>);

impl ElasticityController for TracedController {
    fn on_tick(
        &mut self,
        now: SimTime,
        functions: &[FunctionScaleView],
        cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        let counted = in_run();
        let actions = span(Layer::Scaler, || self.0.on_tick(now, functions, cluster));
        if counted {
            bump(&SCALER_VIEWS, functions.len() as u64);
            bump(&SCALER_ACTIONS, actions.len() as u64);
        }
        actions
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// A share-policy call for the quantum at `now`, as a span. The engine
/// steps a GPU at the wake instant; calls for earlier instants replay
/// skipped idle cycles on an idle-to-busy transition, which mostly happens
/// in the dispatch phase, not the step phase, so they are counted apart.
fn policy_span<R>(now: SimTime, f: impl FnOnce() -> R) -> R {
    let counted = in_run();
    let (result, ns) = span_ns(Layer::Rckm, f);
    if counted && now.as_micros() < WAKE_AT.with(Cell::get) {
        bump(&REPLAY_CALLS, 1);
        bump(&REPLAY_NS, ns);
    }
    result
}

/// A share policy with every trait method forwarded, the defaulted ones
/// included: RCKM overrides `idle_history_cycles`, and falling back to the
/// default would change event-driven results.
struct TracedPolicy(Box<dyn SharePolicy>);

impl SharePolicy for TracedPolicy {
    fn allocate(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
    ) -> Vec<Grant> {
        policy_span(now, || self.0.allocate(now, quantum, views))
    }

    fn allocate_into(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        policy_span(now, || self.0.allocate_into(now, quantum, views, out));
    }

    fn notify_resize(&mut self, id: InstanceId, request: SmRate, limit: SmRate) {
        self.0.notify_resize(id, request, limit);
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn idle_history_cycles(&self) -> u64 {
        self.0.idle_history_cycles()
    }
}

struct TracedFactory(Box<dyn PolicyFactory>);

impl PolicyFactory for TracedFactory {
    fn make(&self) -> Box<dyn SharePolicy> {
        Box::new(TracedPolicy(self.0.make()))
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// The default registry with every built-in name re-registered to build
/// the wrapped component.
fn traced_registry() -> Registry {
    let base = Arc::new(Registry::with_defaults());
    let mut registry = Registry::with_defaults();
    for name in base.placement_names() {
        let (base, key) = (Arc::clone(&base), name.clone());
        registry.register_placement(name, move |p| {
            Ok(Box::new(TracedPlacement(base.placement(&key, p)?)))
        });
    }
    // Autoscaler names resolve through the controller slot too.
    for name in base.controller_names().into_iter().chain(base.autoscaler_names()) {
        let (base, key) = (Arc::clone(&base), name.clone());
        registry.register_controller(name, move |p| {
            Ok(Box::new(TracedController(base.controller(&key, p)?)))
        });
    }
    for name in base.share_policy_names() {
        let (base, key) = (Arc::clone(&base), name.clone());
        registry.register_share_policy(name, move |p| {
            Ok(Box::new(TracedFactory(base.share_policy(&key, p)?)))
        });
    }
    registry
}

// ---------------------------------------------------------------------
// Hooks
// ---------------------------------------------------------------------

/// What the event, arrival and audit hooks saw.
#[derive(Debug, Default)]
struct Observed {
    refills: u64,
    instants: u64,
    /// Event-core pops by kind code (`QUANTUM_CHAIN_CODE` included).
    events: [u64; 9],
    ticks: u64,
    backlog: u64,
    queued: u64,
    starting: u64,
    flows_peak: u64,
    ledger_failures: u64,
    first_ledger_failure: Option<String>,
}

impl Observed {
    fn audit(&mut self, snap: &AuditSnapshot) {
        self.ticks += 1;
        for f in &snap.functions {
            self.backlog += f.backlog;
            self.queued += f.queued;
            self.starting += u64::from(f.starting_instances);
            if f.inference && f.arrived != f.completed + f.backlog + f.queued + f.inflight {
                self.ledger_failures += 1;
                self.first_ledger_failure.get_or_insert_with(|| {
                    format!(
                        "at {}: function {} arrived {} != completed {} + backlog {} + queued {} \
                         + inflight {}",
                        snap.now, f.func, f.arrived, f.completed, f.backlog, f.queued, f.inflight
                    )
                });
            }
        }
        if let Some(net) = &snap.network {
            self.flows_peak = self.flows_peak.max(net.active_flows);
        }
    }
}

// ---------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------

/// Profiles every (model, role) the config deploys through the core's
/// memo, so the build that follows finds it filled. Returns the trials.
fn profile_models(config: &ScenarioConfig) -> Result<u64, String> {
    let mut seen: Vec<(ModelId, bool)> = Vec::new();
    let deployed = config
        .functions
        .iter()
        .map(|f| (f.model.as_str(), f.role.as_deref() == Some("training")))
        .chain(config.fleet.iter().map(|f| (f.model.as_str(), false)));
    for (name, training) in deployed {
        let model = ModelId::from_name(name).ok_or_else(|| format!("unknown model `{name}`"))?;
        if !seen.contains(&(model, training)) {
            seen.push((model, training));
        }
    }
    Ok(seen
        .into_iter()
        .map(|(model, training)| {
            if training {
                let q = funcs::profiled_training(model);
                u64::from(q.request.trials + q.limit.trials)
            } else {
                u64::from(funcs::profiled_inference(model).trials)
            }
        })
        .sum())
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dilu_perfbench::parse_args(&args).and_then(|(w, seed)| traced(w, seed)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench-trace: {message}");
            ExitCode::from(2)
        }
    }
}

/// One traced run; prints the per-layer JSON line and returns whether
/// every check passed.
fn traced(workload: Workload, seed: u64) -> Result<bool, String> {
    let text = workload.config(seed);

    // Set-up, split: parse + compose (core.config_s), the profiler memo
    // (profiler.s), build + first arrival refill (core.build_s).
    let t0 = Instant::now();
    let mut config =
        span(Layer::Setup, || ScenarioConfig::from_toml_str(&text)).map_err(|e| e.to_string())?;
    config.sim.get_or_insert_with(Default::default).profile = Some(true);
    let parse_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let trials = span(Layer::Setup, || profile_models(&config))?;
    let profiler_ns = t1.elapsed().as_nanos() as u64;
    let t2 = Instant::now();
    let registry = traced_registry();
    let builder =
        span(Layer::Setup, || config.into_builder(&registry)).map_err(|e| e.to_string())?;
    let compose_ns = t2.elapsed().as_nanos() as u64;
    let t3 = Instant::now();
    let scenario = span(Layer::Setup, || builder.build()).map_err(|e| e.to_string())?;
    let end = SimTime::ZERO + scenario.horizon() + scenario.drain();
    let mut prepared = Prepared { sim: scenario.into_sim(), end };

    let observed = Rc::new(RefCell::new(Observed::default()));
    let o = Rc::clone(&observed);
    prepared.sim.set_arrival_hook(Box::new(move |_, chunk| {
        let mut o = o.borrow_mut();
        o.refills += 1;
        o.instants += chunk.len() as u64;
    }));
    let o = Rc::clone(&observed);
    prepared.sim.set_event_hook(Box::new(move |record: EventRecord| {
        WAKE_AT.with(|w| w.set(record.at.as_micros()));
        if let Some(n) = o.borrow_mut().events.get_mut(usize::from(record.kind)) {
            *n += 1;
        }
    }));
    let o = Rc::clone(&observed);
    prepared.sim.set_audit_hook(Box::new(move |snap| o.borrow_mut().audit(snap)));
    span(Layer::Setup, || prime(&mut prepared));
    let build_ns = t3.elapsed().as_nanos() as u64;

    // The run, as `run_s` times it.
    let allocs_before = allocs();
    let Prepared { mut sim, end } = prepared;
    let started = Instant::now();
    span(Layer::Run, || sim.run_until(end));
    let profile = sim.phase_profile().ok_or("the traced run has no phase profile")?;
    let report = span(Layer::Report, || sim.into_report());
    let run_s = started.elapsed().as_secs_f64();
    let allocs_after = allocs();
    let run_allocs = |l: Layer| allocs_after[l.index()] - allocs_before[l.index()];
    let peak_heap = PEAK.load(Relaxed);

    let phase = |name: &str| profile.phases.iter().find(|p| p.phase == name).map_or(0, |p| p.nanos);
    let outcome = Outcome::of(&report);
    let observed = observed.borrow();
    let mut failures = outcome.failures.clone();
    if observed.instants != outcome.arrived {
        failures.push(format!(
            "arrival hook saw {} instants, the report {} arrivals",
            observed.instants, outcome.arrived
        ));
    }
    if let Some(first) = &observed.first_ledger_failure {
        failures.push(format!("{} ledger violations, first {first}", observed.ledger_failures));
    }

    let place = stat(Layer::Scheduler, Layer::Run);
    let scaler = stat(Layer::Scaler, Layer::Run);
    let rckm = stat(Layer::Rckm, Layer::Run);
    let report_span = stat(Layer::Report, Layer::Outside);
    let (mut fetches, mut hits, mut fetch_ms) = (0u64, 0u64, 0.0f64);
    for f in report.inference.values() {
        fetches += f.cold_starts.fetches();
        hits += f.cold_starts.cache_hits();
        fetch_ms += f.cold_starts.fetch_delay().as_millis_f64();
    }
    let jcts: Vec<f64> =
        report.training.values().filter_map(|j| j.jct()).map(|d| d.as_secs_f64()).collect();
    let ticks = observed.ticks.max(1) as f64;
    let events: u64 = observed.events.iter().sum();
    let kind = |code: u8| observed.events[usize::from(code)];
    let pct =
        |part: u64, whole: u64| if whole == 0 { 0.0 } else { 100.0 * part as f64 / whole as f64 };

    let mut line = JsonLine::default();
    line.num("core.config_s", secs(parse_ns + compose_ns))
        .num("core.build_s", secs(build_ns))
        .num("profiler.s", secs(profiler_ns))
        .int("profiler.trials", trials)
        .int("workload.refills", observed.refills)
        .int("workload.instants", observed.instants)
        .int("sim.events", events)
        .int("sim.events.quantum_chain", kind(QUANTUM_CHAIN_CODE))
        .int("sim.events.gpu_quantum", kind(0))
        .int("sim.events.arrival_batch", kind(1))
        .int("sim.events.batch_deadline", kind(2))
        .int("sim.events.controller_tick", kind(3))
        .int("sim.events.resize_apply", kind(4))
        .int("sim.events.cold_start_ready", kind(5))
        .int("sim.events.training_submit", kind(6))
        .int("sim.events.net_flow_done", kind(7))
        .int("scheduler.place_calls", place.count)
        .num("scheduler.place_fail_pct", pct(PLACE_FAILS.with(Cell::get), place.count))
        .num("scheduler.place_s", secs(place.total_ns))
        .int("scheduler.allocs", run_allocs(Layer::Scheduler))
        .int("scaler.ticks", scaler.count)
        .int("scaler.views", SCALER_VIEWS.with(Cell::get))
        .int("scaler.actions", SCALER_ACTIONS.with(Cell::get))
        .num("scaler.on_tick_s", secs(scaler.total_ns))
        .int("scaler.allocs", run_allocs(Layer::Scaler))
        .num("cluster.tick_self_s", secs(phase("tick")) - secs(place.total_ns + scaler.total_ns))
        .num("cluster.dispatch_s", secs(phase("dispatch")))
        .num("cluster.arrive_s", secs(phase("arrive")))
        .int("cluster.cold_starts", report.total_cold_starts())
        .num("cluster.backlog_mean", observed.backlog as f64 / ticks)
        .num("cluster.queued_mean", observed.queued as f64 / ticks)
        .num("cluster.starting_mean", observed.starting as f64 / ticks)
        .int("rckm.allocate_calls", rckm.count)
        .num("rckm.allocate_s", secs(rckm.total_ns))
        .int("rckm.allocs", run_allocs(Layer::Rckm))
        .int("rckm.replay_calls", REPLAY_CALLS.with(Cell::get))
        .num("rckm.replay_s", secs(REPLAY_NS.with(Cell::get)))
        .num(
            "gpu.step_self_s",
            secs(phase("step")) - secs(rckm.total_ns.saturating_sub(REPLAY_NS.with(Cell::get))),
        )
        .num(
            "rckm.train_jct_s",
            if jcts.is_empty() { 0.0 } else { jcts.iter().sum::<f64>() / jcts.len() as f64 },
        )
        .int("net.fetches", fetches)
        .num("net.cache_hit_pct", pct(hits, hits + fetches))
        .num("net.fetch_ms_mean", if fetches == 0 { 0.0 } else { fetch_ms / fetches as f64 })
        .int("net.flows_peak", observed.flows_peak)
        .num("net.s", secs(phase("net")))
        .num("metrics.report_s", secs(report_span.total_ns))
        .int("alloc.count", Layer::ALL.map(run_allocs).iter().sum())
        .num("alloc.peak_mib", peak_heap as f64 / (1024.0 * 1024.0))
        .num("traced_run_s", run_s)
        .outcome(&Outcome { failures: failures.clone(), ..outcome });
    println!("{}", line.finish());

    eprintln!(
        "{:<18} {:<18} {:>12} {:>14} {:>14}",
        "span", "parent", "count", "total_ms", "self_ms"
    );
    for layer in Layer::ALL {
        for parent in Layer::ALL {
            let s = stat(layer, parent);
            if s.count > 0 {
                eprintln!(
                    "{:<18} {:<18} {:>12} {:>14.3} {:>14.3}",
                    LAYER_NAMES[layer.index()],
                    LAYER_NAMES[parent.index()],
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.self_ns as f64 / 1e6
                );
            }
        }
    }
    eprint!("{}", profile.render());
    Ok(failures.is_empty())
}
