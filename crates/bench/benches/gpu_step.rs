//! GPU-step layer bench: one GPU's token cycle, `GpuEngine` stepped under
//! Dilu's `RckmPolicy` through the public API only.
//!
//! Three busy shapes time `GpuEngine::step_into` while every resident's
//! queue stays non-empty (each completion queues the resident's next
//! phase): one SLO-sensitive resident, an inference resident beside a
//! best-effort trainer, and four residents. A fourth shape times
//! `GpuEngine::idle_fastforward` over a 40-cycle gap on a two-resident GPU
//! that has just drained, per replayed cycle (the replay stops at the
//! policy's fixed point in release builds). Each figure is the median of
//! three runs; results land in `BENCH_gpu_step.json` at the repository
//! root.
//!
//! Run with `cargo bench -p dilu-bench --bench gpu_step`.

use std::path::PathBuf;
use std::time::Instant;

use dilu_gpu::{
    GpuEngine, Grant, InstanceId, InstanceView, SharePolicy, SlotConfig, SmRate, StepOutcome,
    TaskClass, WorkItem, GB, QUANTUM,
};
use dilu_rckm::{RckmConfig, RckmPolicy};
use dilu_sim::{SimDuration, SimTime};

/// Token cycles stepped per timed run of a busy shape.
const STEPS: u32 = 200_000;
/// Drain-then-idle rounds per timed run of the fast-forward shape.
const ROUNDS: u32 = 20_000;
/// The idle gap each round replays, in token cycles.
const GAP_CYCLES: u64 = 40;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A resident's quotas and the phases it repeats.
struct Resident {
    class: TaskClass,
    request: f64,
    limit: f64,
    /// Compute phase: ideal duration (ms) and saturation (%).
    compute: (u64, f64),
    /// Idle phase after each compute phase (ms), 0 for none.
    idle_ms: u64,
}

const INFERENCE: Resident = Resident {
    class: TaskClass::SloSensitive,
    request: 30.0,
    limit: 60.0,
    compute: (12, 50.0),
    idle_ms: 0,
};
const TRAINING: Resident = Resident {
    class: TaskClass::BestEffort,
    request: 40.0,
    limit: 100.0,
    compute: (60, 90.0),
    idle_ms: 15,
};
const SMALL_INFERENCE: Resident = Resident {
    class: TaskClass::SloSensitive,
    request: 20.0,
    limit: 40.0,
    compute: (7, 35.0),
    idle_ms: 0,
};

impl Resident {
    /// Phase `n` of this resident's cycle; the tag carries `n`.
    fn phase(&self, n: u64) -> WorkItem {
        if self.idle_ms > 0 && n % 2 == 1 {
            return WorkItem::idle(SimDuration::from_millis(self.idle_ms), n);
        }
        let (ms, sat) = self.compute;
        WorkItem::compute(SimDuration::from_millis(ms), SmRate::from_percent(sat), 2_000, n)
    }
}

fn engine(residents: &[Resident], queued: u64) -> GpuEngine {
    let mut gpu = GpuEngine::new(GB * 80);
    for (i, r) in residents.iter().enumerate() {
        let id = InstanceId(i as u64 + 1);
        let config = SlotConfig {
            class: r.class,
            request: SmRate::from_percent(r.request),
            limit: SmRate::from_percent(r.limit),
            mem_bytes: GB,
        };
        gpu.admit(id, config).expect("the bench GPU fits its residents");
        for n in 0..queued {
            gpu.push_work(id, r.phase(n)).expect("resident");
        }
    }
    gpu
}

/// Nanoseconds per step of one timed run of a busy shape.
fn time_busy(residents: &[Resident]) -> f64 {
    const QUEUED: u64 = 4;
    let mut gpu = engine(residents, QUEUED);
    let mut policy = RckmPolicy::new(RckmConfig::default());
    let mut out = StepOutcome::default();
    let mut now = SimTime::ZERO;
    #[allow(clippy::disallowed_methods, reason = "this bench measures wall time")]
    let started = Instant::now();
    for _ in 0..STEPS {
        gpu.step_into(now, &mut policy, &mut out);
        // Each finished phase queues the phase `QUEUED` ahead of it, so no
        // queue ever empties.
        for c in &out.completions {
            let r = &residents[(c.instance.0 - 1) as usize];
            gpu.push_work(c.instance, r.phase(c.tag + QUEUED)).expect("resident");
        }
        now += QUANTUM;
    }
    let nanos = started.elapsed().as_secs_f64() * 1e9;
    std::hint::black_box(gpu.blocks_total());
    nanos / f64::from(STEPS)
}

/// Counts the share-policy calls the fast-forward makes.
struct Counted {
    inner: RckmPolicy,
    calls: u64,
}

impl SharePolicy for Counted {
    fn allocate_into(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        self.calls += 1;
        self.inner.allocate_into(now, quantum, views, out);
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

/// Nanoseconds per replayed cycle of one timed run of the fast-forward
/// shape, and the cycles it replayed.
fn time_fastforward() -> (f64, u64) {
    let residents = [INFERENCE, TRAINING];
    let mut gpu = engine(&residents, 0);
    let mut policy = Counted { inner: RckmPolicy::new(RckmConfig::default()), calls: 0 };
    let mut out = StepOutcome::default();
    let mut now = SimTime::ZERO;
    let mut nanos = 0.0;
    let mut replayed = 0;
    for _ in 0..ROUNDS {
        // A short burst on both residents, stepped until the GPU drains.
        for (i, r) in residents.iter().enumerate() {
            gpu.push_work(InstanceId(i as u64 + 1), r.phase(0)).expect("resident");
        }
        while !gpu.is_idle() {
            gpu.step_into(now, &mut policy, &mut out);
            now += QUANTUM;
        }
        let before = policy.calls;
        #[allow(clippy::disallowed_methods, reason = "this bench measures wall time")]
        let started = Instant::now();
        gpu.idle_fastforward(now, GAP_CYCLES, &mut policy);
        nanos += started.elapsed().as_secs_f64() * 1e9;
        replayed += policy.calls - before;
        now += QUANTUM * GAP_CYCLES;
    }
    (nanos / replayed as f64, replayed)
}

/// The median of three samples, and the samples.
fn median3(mut run: impl FnMut() -> f64) -> (f64, Vec<f64>) {
    let samples: Vec<f64> = (0..3).map(|_| run()).collect();
    let mut sorted = samples.clone();
    sorted.sort_by(f64::total_cmp);
    (sorted[1], samples)
}

fn main() {
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    println!("== GPU step: GpuEngine + RckmPolicy ({hardware_threads} hardware threads) ==");
    let shapes: [(&str, Vec<Resident>); 3] = [
        ("one SLO-sensitive resident", vec![INFERENCE]),
        ("inference + best-effort", vec![INFERENCE, TRAINING]),
        ("four residents", vec![INFERENCE, SMALL_INFERENCE, INFERENCE, TRAINING]),
    ];
    let mut rows = Vec::new();
    for (name, residents) in &shapes {
        let (ns, samples) = median3(|| time_busy(residents));
        println!("{name:<28} {ns:>7.1} ns/step   (samples {samples:.1?})");
        rows.push(serde::Value::Map(vec![
            (s("shape"), s(name)),
            (s("residents"), serde::Value::UInt(residents.len() as u64)),
            (s("steps"), serde::Value::UInt(u64::from(STEPS))),
            (s("ns_per_step"), serde::Value::Float(round1(ns))),
            (s("ns_per_step_samples"), floats(&samples)),
        ]));
    }
    let mut replayed = 0;
    let (ns, samples) = median3(|| {
        let (ns, cycles) = time_fastforward();
        replayed = cycles;
        ns
    });
    println!(
        "idle_fastforward, {GAP_CYCLES}-cycle gap {ns:>7.1} ns/replayed cycle   \
         (samples {samples:.1?}; {replayed} cycles replayed per run)"
    );

    let out = repo_root().join("BENCH_gpu_step.json");
    let value = serde::Value::Map(vec![
        (s("policy"), s("dilu-rckm")),
        (s("hardware_threads"), serde::Value::UInt(hardware_threads)),
        (s("busy"), serde::Value::Seq(rows)),
        (
            s("idle_fastforward"),
            serde::Value::Map(vec![
                (s("residents"), serde::Value::UInt(2)),
                (s("gap_cycles"), serde::Value::UInt(GAP_CYCLES)),
                (s("rounds"), serde::Value::UInt(u64::from(ROUNDS))),
                (s("replayed_cycles"), serde::Value::UInt(replayed)),
                (s("ns_per_replayed_cycle"), serde::Value::Float(round1(ns))),
                (s("ns_per_replayed_cycle_samples"), floats(&samples)),
            ]),
        ),
    ]);
    dilu_core::table::write_json_at(&out, &value);
    println!("[json: {}]", out.display());
}

fn floats(xs: &[f64]) -> serde::Value {
    serde::Value::Seq(xs.iter().map(|&x| serde::Value::Float(round1(x))).collect())
}

fn s(text: &str) -> serde::Value {
    serde::Value::Str(text.to_owned())
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}
