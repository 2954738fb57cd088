//! `GpuEngine::idle_fastforward` against dense idle stepping: the policy
//! must see the same observations and end in the same state, and the next
//! real step must grant the same rates.

use dilu_gpu::{
    GpuEngine, Grant, InstanceId, InstanceView, SharePolicy, SlotConfig, SmRate, TaskClass,
    WorkItem, GB, QUANTUM,
};
use dilu_rckm::{RckmConfig, RckmPolicy};
use dilu_sim::{SimDuration, SimTime};

fn slot(class: TaskClass, request: f64, limit: f64) -> SlotConfig {
    SlotConfig {
        class,
        request: SmRate::from_percent(request),
        limit: SmRate::from_percent(limit),
        mem_bytes: GB,
    }
}

/// Records every view sequence the policy is shown, so the fast-forward
/// path can be compared observation-for-observation against dense idle
/// stepping.
struct Recorder {
    seen: Vec<Vec<InstanceView>>,
}

impl SharePolicy for Recorder {
    fn allocate_into(
        &mut self,
        _now: SimTime,
        _quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        self.seen.push(views.to_vec());
        out.clear();
    }

    fn name(&self) -> &str {
        "recorder"
    }
}

/// Forwards every method to the wrapped policy, counting calls and keeping
/// the last grants.
struct Watched<P> {
    inner: P,
    calls: u64,
    last: Vec<Grant>,
}

impl<P: SharePolicy> SharePolicy for Watched<P> {
    fn allocate_into(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        self.inner.allocate_into(now, quantum, views, out);
        self.calls += 1;
        self.last.clone_from(out);
    }

    fn notify_resize(&mut self, id: InstanceId, request: SmRate, limit: SmRate) {
        self.inner.notify_resize(id, request, limit);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn idle_history_cycles(&self) -> u64 {
        self.inner.idle_history_cycles()
    }
}

fn compute(ms: u64, sat: f64, tag: u64) -> WorkItem {
    WorkItem::compute(SimDuration::from_millis(ms), SmRate::from_percent(sat), 500, tag)
}

#[test]
fn idle_fastforward_matches_dense_idle_stepping() {
    // Recorder: two engines with the same resident (workless) slots, one
    // stepped densely through 7 empty quanta, one fast-forwarded over
    // them. The policies must observe identical view sequences and the
    // slots must end in identical state.
    let build = || {
        let mut gpu = GpuEngine::new(GB * 4);
        gpu.admit(InstanceId(1), slot(TaskClass::SloSensitive, 40.0, 80.0)).unwrap();
        gpu.admit(InstanceId(2), slot(TaskClass::BestEffort, 30.0, 60.0)).unwrap();
        gpu
    };
    let (mut dense, mut fast) = (build(), build());
    let mut dense_policy = Recorder { seen: Vec::new() };
    let mut fast_policy = Recorder { seen: Vec::new() };
    let mut now = SimTime::ZERO;
    for _ in 0..7 {
        dense.step(now, &mut dense_policy);
        now += QUANTUM;
    }
    fast.idle_fastforward(SimTime::ZERO, 7, &mut fast_policy);
    assert_eq!(dense_policy.seen, fast_policy.seen);
    assert_eq!(dense.views(), fast.views());

    // RCKM on an inference-only GPU, over a gap longer than the replay
    // cap: both engines serve the same work, then one steps the gap
    // densely and the other fast-forwards it. RCKM reaches its fixed point
    // within `rate_window` + 2 cycles, where a release build stops
    // replaying; the views (idle counters included) and the next real
    // step's grants must still match dense stepping.
    let config = RckmConfig::default();
    let gap = 3 * dilu_gpu::IDLE_HISTORY_CYCLES / 2;
    let build = || {
        let mut gpu = GpuEngine::new(GB * 4);
        gpu.admit(InstanceId(1), slot(TaskClass::SloSensitive, 30.0, 60.0)).unwrap();
        gpu.admit(InstanceId(2), slot(TaskClass::SloSensitive, 20.0, 40.0)).unwrap();
        gpu.push_work(InstanceId(1), compute(40, 50.0, 1)).unwrap();
        gpu.push_work(InstanceId(2), compute(25, 35.0, 2)).unwrap();
        gpu
    };
    let watched = || Watched { inner: RckmPolicy::new(config), calls: 0, last: Vec::new() };
    let (mut dense, mut fast) = (build(), build());
    let (mut dense_policy, mut fast_policy) = (watched(), watched());
    let mut now = SimTime::ZERO;
    while !dense.is_idle() {
        let a = dense.step(now, &mut dense_policy);
        let b = fast.step(now, &mut fast_policy);
        assert_eq!(a.completions, b.completions);
        now += QUANTUM;
    }
    assert!(fast.is_idle());
    let replay_from = now;
    for _ in 0..gap {
        dense.step(now, &mut dense_policy);
        now += QUANTUM;
    }
    fast_policy.calls = 0;
    fast.idle_fastforward(replay_from, gap, &mut fast_policy);
    let bound = config.rate_window as u64 + 2;
    if cfg!(debug_assertions) {
        assert_eq!(fast_policy.calls, gap, "debug builds replay the whole gap");
    } else {
        assert!(fast_policy.calls <= bound, "replayed {} cycles", fast_policy.calls);
    }
    assert_eq!(dense.views(), fast.views(), "views after the gap, idle counters included");
    for gpu in [&mut dense, &mut fast] {
        gpu.push_work(InstanceId(2), compute(15, 35.0, 3)).unwrap();
    }
    let a = dense.step(now, &mut dense_policy);
    let b = fast.step(now, &mut fast_policy);
    assert_eq!(dense_policy.last, fast_policy.last, "the next real step's grants");
    assert_eq!((a.completions, a.blocks_issued), (b.completions, b.blocks_issued));
}
