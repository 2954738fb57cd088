//! The phase profiler: per-phase wall-clock and event counters for the
//! simulation hot path.
//!
//! [`PhaseProfiler`] attributes the wall clock of a simulation run to the
//! canonical cluster phases (resize → train → promote → arrive → dispatch
//! → step → reap → tick, plus the network plane), so a macro-scale bench
//! can say *where* the time went and a perf regression can be localized
//! without re-instrumenting. Accumulators are integer nanoseconds and
//! event counts — addition order cannot perturb them.
//!
//! The profiler is a measurement layer only: nothing in simulation state
//! derives from its readings, and a disabled profiler ([`disabled`]) costs
//! one branch per phase. Timing uses the monotonic wall clock, which is
//! this module's one reasoned exception to the workspace's ban on
//! `Instant::now` (`clippy.toml`).
//!
//! [`disabled`]: PhaseProfiler::disabled

use serde::{Serialize, Value};

/// One instrumented phase of the simulation loop, in canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPhase {
    /// Applying due quota resizes.
    Resize,
    /// Training-job submission and state machine.
    Train,
    /// Cold-start promotions (instances becoming ready).
    Promote,
    /// Arrival ingest and gateway routing.
    Arrive,
    /// Batch formation and dispatch.
    Dispatch,
    /// The GPU phase: node-plane stepping plus completion handling.
    Step,
    /// Reaping drained instances.
    Reap,
    /// Metrics sampling plus the elasticity-controller tick.
    Tick,
    /// The network plane: flow completions and re-shares.
    Net,
}

/// Number of instrumented phases.
pub const PHASE_COUNT: usize = 9;

impl SimPhase {
    /// Every phase, in canonical order.
    pub const ALL: [SimPhase; PHASE_COUNT] = [
        SimPhase::Resize,
        SimPhase::Train,
        SimPhase::Promote,
        SimPhase::Arrive,
        SimPhase::Dispatch,
        SimPhase::Step,
        SimPhase::Reap,
        SimPhase::Tick,
        SimPhase::Net,
    ];

    /// The phase's stable snake_case name (JSON keys, table rows).
    pub fn name(self) -> &'static str {
        match self {
            SimPhase::Resize => "resize",
            SimPhase::Train => "train",
            SimPhase::Promote => "promote",
            SimPhase::Arrive => "arrive",
            SimPhase::Dispatch => "dispatch",
            SimPhase::Step => "step",
            SimPhase::Reap => "reap",
            SimPhase::Tick => "tick",
            SimPhase::Net => "net",
        }
    }

    fn index(self) -> usize {
        match self {
            SimPhase::Resize => 0,
            SimPhase::Train => 1,
            SimPhase::Promote => 2,
            SimPhase::Arrive => 3,
            SimPhase::Dispatch => 4,
            SimPhase::Step => 5,
            SimPhase::Reap => 6,
            SimPhase::Tick => 7,
            SimPhase::Net => 8,
        }
    }
}

/// An in-flight phase measurement, handed out by
/// [`PhaseProfiler::start`] and spent on [`PhaseProfiler::record`].
/// `None` inside means the profiler is disabled and the whole
/// start/record pair collapses to two branches.
#[derive(Debug)]
#[must_use = "a started phase measurement must be recorded"]
pub struct PhaseTimer(Option<std::time::Instant>);

/// Per-phase cumulative wall-clock and event counters.
///
/// Create one [`enabled`](PhaseProfiler::enabled) (or
/// [`disabled`](PhaseProfiler::disabled) for a free no-op), bracket each
/// phase with [`start`](PhaseProfiler::start) /
/// [`record`](PhaseProfiler::record), and read the result as a
/// [`PhaseProfile`] via [`finish`](PhaseProfiler::finish).
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    enabled: bool,
    nanos: [u64; PHASE_COUNT],
    events: [u64; PHASE_COUNT],
    wakes: u64,
}

impl PhaseProfiler {
    /// A profiler that measures nothing and costs one branch per phase.
    pub fn disabled() -> Self {
        PhaseProfiler {
            enabled: false,
            nanos: [0; PHASE_COUNT],
            events: [0; PHASE_COUNT],
            wakes: 0,
        }
    }

    /// A live profiler.
    pub fn enabled() -> Self {
        PhaseProfiler { enabled: true, ..Self::disabled() }
    }

    /// `true` when measurements are being taken.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Begins a phase measurement. Free (returns an empty timer) when the
    /// profiler is disabled.
    pub fn start(&self) -> PhaseTimer {
        if self.enabled {
            #[allow(
                clippy::disallowed_methods,
                reason = "wall-clock phase attribution is this profiler's purpose; no simulation state derives from the reading"
            )]
            let now = std::time::Instant::now();
            PhaseTimer(Some(now))
        } else {
            PhaseTimer(None)
        }
    }

    /// Ends a phase measurement, crediting the elapsed wall clock and
    /// `events` processed items to `phase`.
    pub fn record(&mut self, phase: SimPhase, timer: PhaseTimer, events: u64) {
        if let Some(started) = timer.0 {
            let i = phase.index();
            self.nanos[i] += u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.events[i] += events;
        }
    }

    /// Counts one simulation wake (an event-core wake or a dense quantum).
    pub fn count_wake(&mut self) {
        if self.enabled {
            self.wakes += 1;
        }
    }

    /// Snapshots the accumulated counters as a [`PhaseProfile`].
    pub fn finish(&self) -> PhaseProfile {
        PhaseProfile {
            phases: SimPhase::ALL
                .iter()
                .map(|&p| PhaseStat {
                    phase: p.name(),
                    nanos: self.nanos[p.index()],
                    events: self.events[p.index()],
                })
                .collect(),
            wakes: self.wakes,
        }
    }
}

/// One phase's cumulative counters inside a [`PhaseProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Stable phase name (see [`SimPhase::name`]).
    pub phase: &'static str,
    /// Cumulative wall clock spent in the phase, in integer nanoseconds.
    pub nanos: u64,
    /// Items the phase processed (resizes applied, requests ingested,
    /// batches dispatched, GPU slots stepped, flows completed, ...).
    pub events: u64,
}

/// The profiler's result: per-phase cumulative wall+event counters in
/// canonical phase order, plus the wake count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Per-phase counters, in [`SimPhase::ALL`] order.
    pub phases: Vec<PhaseStat>,
    /// Simulation wakes measured (event-core wakes or dense quanta).
    pub wakes: u64,
}

impl PhaseProfile {
    /// Σ nanos over all phases — the instrumented share of the run.
    pub fn total_nanos(&self) -> u64 {
        self.phases.iter().map(|p| p.nanos).sum()
    }

    /// A phase's share of [`total_nanos`](Self::total_nanos), in `[0, 1]`
    /// (0 when nothing was measured).
    pub fn share(&self, phase: &PhaseStat) -> f64 {
        let total = self.total_nanos();
        if total == 0 {
            0.0
        } else {
            phase.nanos as f64 / total as f64
        }
    }

    /// Renders the profile as an aligned text table, phases sorted by
    /// descending wall clock.
    pub fn render(&self) -> String {
        let mut rows: Vec<&PhaseStat> = self.phases.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.nanos));
        let mut out = String::from("phase      wall_ms      share      events\n");
        for p in rows {
            out.push_str(&format!(
                "{:<9} {:>9.2} {:>9.1}% {:>11}\n",
                p.phase,
                p.nanos as f64 / 1e6,
                self.share(p) * 100.0,
                p.events,
            ));
        }
        out.push_str(&format!(
            "total     {:>9.2} ms over {} wakes\n",
            self.total_nanos() as f64 / 1e6,
            self.wakes,
        ));
        out
    }
}

impl Serialize for PhaseProfile {
    fn to_value(&self) -> Value {
        let phases: Vec<(Value, Value)> = self
            .phases
            .iter()
            .map(|p| {
                (
                    Value::Str(p.phase.to_owned()),
                    Value::Map(vec![
                        (Value::Str("nanos".into()), Value::UInt(p.nanos)),
                        (Value::Str("events".into()), Value::UInt(p.events)),
                    ]),
                )
            })
            .collect();
        Value::Map(vec![
            (Value::Str("phases".into()), Value::Map(phases)),
            (Value::Str("total_nanos".into()), Value::UInt(self.total_nanos())),
            (Value::Str("wakes".into()), Value::UInt(self.wakes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_measures_nothing() {
        let mut p = PhaseProfiler::disabled();
        let t = p.start();
        p.record(SimPhase::Step, t, 100);
        p.count_wake();
        let profile = p.finish();
        assert_eq!(profile.total_nanos(), 0);
        assert_eq!(profile.wakes, 0);
        assert!(profile.phases.iter().all(|s| s.events == 0));
    }

    #[test]
    fn enabled_profiler_accumulates_per_phase() {
        let mut p = PhaseProfiler::enabled();
        for _ in 0..3 {
            let t = p.start();
            std::hint::black_box((0..100).sum::<u64>());
            p.record(SimPhase::Dispatch, t, 7);
            p.count_wake();
        }
        let profile = p.finish();
        assert_eq!(profile.wakes, 3);
        let dispatch = &profile.phases[SimPhase::Dispatch.index()];
        assert_eq!(dispatch.phase, "dispatch");
        assert_eq!(dispatch.events, 21);
        assert!(dispatch.nanos > 0, "elapsed time must accumulate");
        assert_eq!(profile.total_nanos(), dispatch.nanos, "only dispatch was measured");
        assert!((profile.share(dispatch) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_names_are_stable_and_ordered() {
        let names: Vec<&str> = SimPhase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            ["resize", "train", "promote", "arrive", "dispatch", "step", "reap", "tick", "net"]
        );
        for (i, p) in SimPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i, "ALL order must match index order");
        }
    }

    #[test]
    fn render_and_serialize_cover_every_phase() {
        let mut p = PhaseProfiler::enabled();
        let t = p.start();
        p.record(SimPhase::Net, t, 2);
        let profile = p.finish();
        let rendered = profile.render();
        for phase in SimPhase::ALL {
            assert!(rendered.contains(phase.name()), "render must list {}", phase.name());
        }
        let json = serde_json::to_string(&profile).expect("profile serializes");
        assert!(json.contains("\"net\""));
        assert!(json.contains("\"wakes\""));
    }
}
