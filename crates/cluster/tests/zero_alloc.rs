//! Steady-state allocation discipline: once the event core is warm, wakes
//! run out of reused scratch — policy grant buffers, request-vector pools,
//! the tag slab, inline deadlines, the event queue's B-tree nodes — and the
//! dispatch/step/merge path stops allocating.
//!
//! A counting global allocator measures a warm window of simulated time.
//! The bounds are not literally zero because observability is allowed to
//! grow (timeline points, latency samples, metric series double their
//! backing storage occasionally), but they are orders of magnitude below
//! one allocation per wake: the old per-wake `Vec`/map-node churn would
//! blow through them in the first few simulated milliseconds.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dilu_cluster::{
    named, ClusterSim, ClusterSpec, ClusterView, ElasticityController, FunctionId, FunctionKind,
    FunctionScaleView, FunctionSpec, GpuAddr, Placement, PolicyFactory, Quotas, ScaleAction,
    SimConfig,
};
use dilu_gpu::policies::FairSharePolicy;
use dilu_gpu::SmRate;
use dilu_models::ModelId;
use dilu_sim::SimTime;
use dilu_workload::{ArrivalProcess, PoissonProcess, ReplayProcess};

/// No arrivals at all: a deployed-but-idle function.
fn idle() -> Box<dyn ArrivalProcess> {
    Box::new(ReplayProcess::new([]))
}

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// increment with no further allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The counter is process-wide, so measured windows must not overlap.
static MEASURE: Mutex<()> = Mutex::new(());

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

fn fair_factory() -> impl PolicyFactory {
    named("fair-share", || Box::new(FairSharePolicy))
}

#[test]
fn warm_event_core_wakes_are_allocation_free() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    // --- training lane: continuous GPU work, no arrivals, no latency
    // samples. After warm-up the only permitted growth is the sampled
    // metric series, a handful of vector doublings over ten seconds.
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let model = ModelId::BertBase;
    sim.deploy_training(FunctionSpec {
        id: FunctionId(1),
        name: "steady-train".into(),
        model,
        kind: FunctionKind::Training { workers: 2, iterations: 100_000 },
        quotas: Quotas::equal(SmRate::from_percent(60.0), model.profile().training.mem_bytes),
        gpus_per_instance: 1,
    })
    .unwrap();
    sim.run_until(SimTime::from_secs(5));
    let before = allocs();
    sim.run_until(SimTime::from_secs(15));
    let train_window = allocs() - before;
    // Ten simulated seconds = 2,000 busy quanta stepped. One allocation
    // per wake (the old policy-grant Vec alone) would cost 2,000+.
    assert!(
        train_window < 200,
        "steady-state training window allocated {train_window} times \
         (expected a few dozen from sampled series growth)"
    );

    // --- inference lane: steady Poisson arrivals through batching,
    // dispatch, completion, and latency recording. The wake path itself is
    // allocation-free; what remains is the 1 Hz controller tick, which
    // still builds per-function scale views (a few short-lived
    // allocations per tick, 70 ticks in this window), plus
    // occasional sample/latency-series doublings. The budget scales with
    // ticks, not with the ~14,000 wakes in the window.
    let mut sim = ClusterSim::new(
        ClusterSpec::single_node(2),
        SimConfig::default(),
        Box::new(FirstFit),
        Box::new(NullScaler),
        &fair_factory(),
    );
    let spec_model = ModelId::RobertaLarge;
    let profile = spec_model.profile();
    let sat = profile.inference_sat(4);
    let arrivals = Box::new(PoissonProcess::new(50.0, 11));
    sim.deploy_inference(
        FunctionSpec {
            id: FunctionId(2),
            name: "steady-infer".into(),
            model: spec_model,
            kind: FunctionKind::Inference { slo: profile.slo, batch: 4 },
            quotas: Quotas::new(sat, sat.scale(2.0), profile.infer_mem_bytes),
            gpus_per_instance: 1,
        },
        1,
        arrivals,
        SimTime::from_secs(75),
    )
    .unwrap();
    sim.run_until(SimTime::from_secs(5));
    let before = allocs();
    sim.run_until(SimTime::from_secs(75));
    let infer_window = allocs() - before;
    assert!(
        infer_window < 1_000,
        "steady-state inference window allocated {infer_window} times \
         (expected ~10 per controller tick plus occasional series doublings)"
    );
}

/// Warm controller ticks measured per fleet.
const FLEET_TICKS: u64 = 30;

/// Requests one more instance of every listed function at every tick.
struct ScaleOutEveryTick(Vec<FunctionId>);

impl ElasticityController for ScaleOutEveryTick {
    fn on_tick(
        &mut self,
        _now: SimTime,
        _functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        self.0.iter().map(|&func| ScaleAction::ScaleOut { func, count: 1 }).collect()
    }

    fn name(&self) -> &str {
        "scale-out-every-tick"
    }
}

/// The fleet a [`fleet_window_allocs`] run serves.
#[derive(Clone, Copy, PartialEq)]
enum Fleet {
    /// No instances, and a controller that asks for none.
    Idle,
    /// A resident first takes all of the GPU's memory, and the controller
    /// asks every tick for one more instance of every fleet function, none
    /// of which can be placed.
    Doomed,
    /// Every fleet function holds one running instance, so each tick reads
    /// the function's instance counters and walks its instance for the
    /// idle time.
    Live,
}

/// Allocations over [`FLEET_TICKS`] warm controller ticks of a 1-GPU
/// cluster serving a fleet of `functions` same-shape inference functions
/// with no arrivals and no per-function series, so a tick has no
/// per-function work beyond building each function's scale view.
fn fleet_window_allocs(functions: u32, fleet_kind: Fleet) -> u64 {
    let config = SimConfig { function_series: false, ..SimConfig::default() };
    let cluster = ClusterSpec::single_node(1);
    let fleet: Vec<FunctionId> = (1..=functions).map(FunctionId).collect();
    let controller: Box<dyn ElasticityController> = if fleet_kind == Fleet::Doomed {
        Box::new(ScaleOutEveryTick(fleet.clone()))
    } else {
        Box::new(NullScaler)
    };
    let mut sim = ClusterSim::new(cluster, config, Box::new(FirstFit), controller, &fair_factory());
    let model = ModelId::BertBase;
    let profile = model.profile();
    let sat = profile.inference_sat(4);
    let spec = |id: FunctionId, mem_bytes: u64| FunctionSpec {
        id,
        name: format!("fleet-{}", id.0),
        model,
        kind: FunctionKind::Inference { slo: profile.slo, batch: 4 },
        quotas: Quotas::new(sat, sat.scale(2.0), mem_bytes),
        gpus_per_instance: 1,
    };
    if fleet_kind == Fleet::Doomed {
        sim.deploy_inference(spec(FunctionId(0), cluster.gpu_mem_bytes), 1, idle(), SimTime::MAX)
            .unwrap();
    }
    // A live fleet of up to 1,024 instances shares the one GPU.
    let (mem_bytes, initial) = match fleet_kind {
        Fleet::Live => (cluster.gpu_mem_bytes / 1024, 1),
        Fleet::Idle | Fleet::Doomed => (profile.infer_mem_bytes, 0),
    };
    for &id in &fleet {
        sim.deploy_inference(spec(id, mem_bytes), initial, idle(), SimTime::MAX).unwrap();
    }
    // The 40-sample rate windows are full after 40 ticks.
    sim.run_until(SimTime::from_secs(45));
    let before = allocs();
    sim.run_until(SimTime::from_secs(45 + FLEET_TICKS));
    allocs() - before
}

#[test]
fn controller_ticks_allocate_independently_of_fleet_size() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let small = fleet_window_allocs(10, Fleet::Idle);
    let large = fleet_window_allocs(1_000, Fleet::Idle);
    // A per-function copy of each rate window would cost ~1,000
    // allocations per tick here.
    assert!(
        large <= small + 2 * FLEET_TICKS,
        "1,000 idle functions allocated {large} times over {FLEET_TICKS} ticks, \
         10 idle functions {small}"
    );
}

#[test]
fn doomed_scale_outs_allocate_independently_of_fleet_size() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let small = fleet_window_allocs(10, Fleet::Doomed);
    let large = fleet_window_allocs(1_000, Fleet::Doomed);
    // Cloning each doomed function's spec (its name) would cost ~1,000
    // allocations per tick here.
    assert!(
        large <= small + 2 * FLEET_TICKS,
        "1,000 doomed scale-outs per tick allocated {large} times over {FLEET_TICKS} ticks, \
         10 per tick {small}"
    );
}

#[test]
fn live_instance_ticks_allocate_independently_of_fleet_size() {
    let _serial = MEASURE.lock().unwrap_or_else(|e| e.into_inner());
    let small = fleet_window_allocs(10, Fleet::Live);
    let large = fleet_window_allocs(1_000, Fleet::Live);
    assert!(
        large <= small + 2 * FLEET_TICKS,
        "1,000 functions with a running instance each allocated {large} times over \
         {FLEET_TICKS} ticks, 10 such functions {small}"
    );
}
