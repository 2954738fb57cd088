//! The invariant oracles the fuzzer runs over every generated scenario.
//!
//! An [`Oracle`] owns the whole check for one invariant: it builds and
//! runs the scenario itself (as many times as the invariant needs) and
//! returns a [`Verdict`]. Oracles never panic on infeasible compositions —
//! a scenario the serving plane rejects with a typed error is a
//! [`Verdict::Skip`], and a panic anywhere is itself a failure.

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;

use dilu_core::{Registry, Scenario, ScenarioConfig};
use dilu_sim::{SimDuration, SimTime};

/// Outcome of one oracle over one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The invariant held.
    Pass,
    /// The scenario does not compose (typed rejection) — nothing to check.
    Skip(String),
    /// The invariant was violated; the payload explains how.
    Fail(String),
}

impl Verdict {
    /// `true` for [`Verdict::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }
}

/// One invariant check over a generated scenario.
pub trait Oracle {
    /// The stable name used by `dilu fuzz --oracle <name>`.
    fn name(&self) -> &'static str;

    /// Runs the scenario however the invariant requires and judges it.
    fn check(&self, config: &ScenarioConfig, registry: &Registry) -> Verdict;

    /// Whether this oracle runs on the case with this seed. Expensive
    /// oracles may deterministically sample a subset of cases; the
    /// default is every case. Filtering with `--oracle <name>` bypasses
    /// sampling (an explicitly requested oracle always runs).
    fn samples(&self, case_seed: u64) -> bool {
        let _ = case_seed;
        true
    }

    /// A binary reproducer from the most recent failing [`check`]
    /// (`(extension, bytes)`), dumped next to the TOML reproducer by the
    /// fuzz driver. The default oracle has none.
    ///
    /// [`check`]: Oracle::check
    fn artifact(&self) -> Option<(String, Vec<u8>)> {
        None
    }
}

/// Every oracle this crate ships, in documentation order.
pub fn default_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(DifferentialOracle),
        Box::new(DeterminismOracle),
        Box::new(ConservationOracle),
        Box::new(CapacityOracle),
        Box::new(RecordReplayOracle::new()),
    ]
}

/// Builds the scenario, shielding the caller from panics.
fn build(config: &ScenarioConfig, registry: &Registry) -> Result<Scenario, String> {
    let config = config.clone();
    std::panic::catch_unwind(AssertUnwindSafe(move || {
        config.into_builder(registry).and_then(|b| b.build()).map_err(|e| e.to_string())
    }))
    .unwrap_or_else(|p| Err(format!("PANIC while composing: {}", panic_text(&p))))
}

/// Builds, runs to horizon + drain, and serializes the report.
fn run_json(config: &ScenarioConfig, registry: &Registry) -> Result<String, String> {
    let scenario = build(config, registry)?;
    std::panic::catch_unwind(AssertUnwindSafe(move || {
        scenario
            .run()
            .map_err(|e| e.to_string())
            .map(|report| serde_json::to_string(&report).expect("reports serialize"))
    }))
    .unwrap_or_else(|p| Err(format!("PANIC while running: {}", panic_text(&p))))
}

fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// First byte offset where two reports differ, with context for the
/// failure message.
fn first_divergence(a: &str, b: &str) -> String {
    let at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    let lo = at.saturating_sub(40);
    let snip =
        |s: &str| s.get(lo..(at + 40).min(s.len())).unwrap_or("<non-utf8 boundary>").to_owned();
    format!("reports diverge at byte {at}:\n  a: …{}…\n  b: …{}…", snip(a), snip(b))
}

fn with_time_model(config: &ScenarioConfig, model: &str) -> ScenarioConfig {
    let mut c = config.clone();
    c.sim.get_or_insert_with(Default::default).time_model = Some(model.to_owned());
    c
}

/// Judges a pair of runs that must agree byte-for-byte.
fn judge_pair(
    a: Result<String, String>,
    b: Result<String, String>,
    label_a: &str,
    label_b: &str,
) -> Verdict {
    match (a, b) {
        (Ok(a), Ok(b)) if a == b => Verdict::Pass,
        (Ok(a), Ok(b)) => Verdict::Fail(first_divergence(&a, &b)),
        (Err(ea), Err(eb)) if ea == eb => {
            if ea.starts_with("PANIC") {
                Verdict::Fail(ea)
            } else {
                Verdict::Skip(ea)
            }
        }
        (Err(ea), Err(eb)) => {
            Verdict::Fail(format!("{label_a} and {label_b} reject differently: `{ea}` vs `{eb}`"))
        }
        (Ok(_), Err(e)) => Verdict::Fail(format!("only {label_b} rejects the scenario: {e}")),
        (Err(e), Ok(_)) => Verdict::Fail(format!("only {label_a} rejects the scenario: {e}")),
    }
}

/// Differential oracle: the event-driven core must reproduce the
/// dense-quantum reference byte-for-byte — every latency sample, timeline
/// point, and counter — on any composable scenario.
pub struct DifferentialOracle;

impl Oracle for DifferentialOracle {
    fn name(&self) -> &'static str {
        "differential"
    }

    fn check(&self, config: &ScenarioConfig, registry: &Registry) -> Verdict {
        let dense = run_json(&with_time_model(config, "dense-quantum"), registry);
        let event = run_json(&with_time_model(config, "event-driven"), registry);
        judge_pair(dense, event, "dense-quantum", "event-driven")
    }
}

/// Determinism oracle: the same seed run twice must emit identical JSON.
pub struct DeterminismOracle;

impl Oracle for DeterminismOracle {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn check(&self, config: &ScenarioConfig, registry: &Registry) -> Verdict {
        judge_pair(run_json(config, registry), run_json(config, registry), "run 1", "run 2")
    }
}

/// Runs the scenario with an audit hook, collecting per-tick violations
/// flagged by `on_tick`, and returns `(violations, final_audit, report)`.
fn run_audited(
    config: &ScenarioConfig,
    registry: &Registry,
    on_tick: impl Fn(&dilu_cluster::AuditSnapshot, &mut Vec<String>) + 'static,
) -> Result<(Vec<String>, dilu_cluster::AuditSnapshot, dilu_cluster::ClusterReport), String> {
    let scenario = build(config, registry)?;
    std::panic::catch_unwind(AssertUnwindSafe(move || {
        let horizon = scenario.horizon();
        let drain = scenario.drain();
        let mut sim = scenario.into_sim();
        let violations: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = violations.clone();
        sim.set_audit_hook(Box::new(move |snapshot| {
            let mut out = sink.borrow_mut();
            if out.len() < 8 {
                on_tick(snapshot, &mut out);
            }
        }));
        sim.run_until(SimTime::ZERO + horizon + drain);
        let final_audit = sim.audit();
        let report = sim.into_report();
        let violations = violations.borrow().clone();
        Ok((violations, final_audit, report))
    }))
    .unwrap_or_else(|p| Err(format!("PANIC while running: {}", panic_text(&p))))
}

/// Conservation oracle: requests are never created or lost. At every
/// controller tick (and at the end of the run)
/// `arrived == completed + backlog + queued + in-flight` per function, all
/// generated arrivals are eventually ingested, and the final report's
/// counters agree with each other (timeline sums, latency sample counts,
/// cold-start and resize bookkeeping, and GPU time against the
/// once-a-second occupancy samples).
pub struct ConservationOracle;

/// Network byte ledger: bytes never appear or vanish mid-flow, so
/// `requested == delivered + inflight` at every tick.
fn net_conservation_of(snapshot: &dilu_cluster::AuditSnapshot, out: &mut Vec<String>) {
    if let Some(n) = &snapshot.network {
        if n.requested_bytes != n.delivered_bytes + n.inflight_bytes {
            out.push(format!(
                "network at {}: requested {} B != delivered {} B + inflight {} B \
                 ({} active flows)",
                snapshot.now,
                n.requested_bytes,
                n.delivered_bytes,
                n.inflight_bytes,
                n.active_flows
            ));
        }
    }
}

fn conservation_of(f: &dilu_cluster::FunctionAudit, at: &str, out: &mut Vec<String>) {
    let balance = f.completed + f.outstanding();
    if f.arrived != balance {
        out.push(format!(
            "{} at {at}: arrived {} != completed {} + backlog {} + queued {} + inflight {}",
            f.func, f.arrived, f.completed, f.backlog, f.queued, f.inflight
        ));
    }
}

impl Oracle for ConservationOracle {
    fn name(&self) -> &'static str {
        "conservation"
    }

    fn check(&self, config: &ScenarioConfig, registry: &Registry) -> Verdict {
        let run = run_audited(config, registry, |snapshot, out| {
            for f in &snapshot.functions {
                conservation_of(f, &format!("{}", snapshot.now), out);
            }
            net_conservation_of(snapshot, out);
        });
        let (mut violations, final_audit, report) = match run {
            Ok(r) => r,
            Err(e) if e.starts_with("PANIC") => return Verdict::Fail(e),
            Err(e) => return Verdict::Skip(e),
        };
        net_conservation_of(&final_audit, &mut violations);
        let networked = config.network.is_some();
        for f in &final_audit.functions {
            conservation_of(f, "end", &mut violations);
            if f.pending_arrivals != 0 {
                violations.push(format!(
                    "{}: {} generated arrivals were never ingested",
                    f.func, f.pending_arrivals
                ));
            }
            if f.resize_grows + f.resize_shrinks > 0 && !f.inference {
                violations.push(format!("{}: training function was resized", f.func));
            }
        }
        for (id, f) in &report.inference {
            if f.latency.len() as u64 != f.completed {
                violations.push(format!(
                    "{id}: {} latency samples for {} completions",
                    f.latency.len(),
                    f.completed
                ));
            }
            let t_arrived: u64 = f.timeline.iter().map(|p| p.arrivals).sum();
            let t_completed: u64 = f.timeline.iter().map(|p| p.completions).sum();
            let t_violations: u64 = f.timeline.iter().map(|p| p.violations).sum();
            if t_arrived != f.arrived {
                violations.push(format!(
                    "{id}: timeline sums {t_arrived} arrivals, report {}",
                    f.arrived
                ));
            }
            if t_completed != f.completed {
                violations.push(format!(
                    "{id}: timeline sums {t_completed} completions, report {}",
                    f.completed
                ));
            }
            if t_violations > f.completed {
                violations.push(format!(
                    "{id}: {t_violations} SLO violations exceed {} completions",
                    f.completed
                ));
            }
            if f.resizes.total() != f.resizes.grows() + f.resizes.shrinks() {
                violations.push(format!("{id}: resize counter total drifted from grows+shrinks"));
            }
            if f.cold_starts.count() == 0 && !f.cold_starts.total_delay().is_zero() {
                violations.push(format!("{id}: cold-start delay recorded without a count"));
            }
            if networked {
                // Every networked cold start is either a cache hit or a
                // registry fetch; the breakdown must sum to the count.
                if f.cold_starts.fetches() + f.cold_starts.cache_hits() != f.cold_starts.count() {
                    violations.push(format!(
                        "{id}: {} fetches + {} cache hits != {} cold starts",
                        f.cold_starts.fetches(),
                        f.cold_starts.cache_hits(),
                        f.cold_starts.count()
                    ));
                }
                if f.cold_starts.fetch_delay() > f.cold_starts.total_delay() {
                    violations.push(format!("{id}: fetch delay exceeds total cold-start delay"));
                }
            } else if f.cold_starts.count() > 0 && f.cold_starts.total_delay().is_zero() {
                // Without a network plane every cold start pays the fixed
                // model-dependent delay, so a zero total is impossible.
                violations.push(format!("{id}: cold starts recorded with zero total delay"));
            }
        }
        // GPU-time ledger: samples are one second apart, so each occupied
        // GPU of each sample is one GPU-second.
        let occupied: u64 = report.occupied_gpus.iter().map(|&(_, n)| u64::from(n)).sum();
        if report.gpu_time != SimDuration::from_secs(occupied) {
            violations.push(format!(
                "GPU time {} != {occupied} GPU-seconds of per-second occupancy samples",
                report.gpu_time
            ));
        }
        if violations.is_empty() {
            Verdict::Pass
        } else {
            Verdict::Fail(violations.join("\n"))
        }
    }
}

/// Capacity oracle: allocation guarantees are never oversubscribed. At
/// every controller tick, on every GPU: reserved memory fits the card and
/// Σ resident `request` quotas stay within one whole GPU (the Ω cap the
/// placement and the co-scaler's headroom budget both enforce). For the
/// Dilu-family packers, Σ`limit` additionally respects the configured Γ
/// cap for as long as no vertical resize has retargeted the deployed
/// quotas (a resize intentionally re-derives limits from the grown
/// request, outside placement-time Γ).
pub struct CapacityOracle;

const EPS: f64 = 1e-6;

impl Oracle for CapacityOracle {
    fn name(&self) -> &'static str {
        "capacity"
    }

    fn check(&self, config: &ScenarioConfig, registry: &Registry) -> Verdict {
        let placement = config.system.placement.as_ref();
        let dilu_family = matches!(
            placement.map(|p| p.name.as_str()),
            Some("dilu") | Some("packing") | Some("first-fit")
        );
        let omega =
            placement.and_then(|p| p.params.get("omega")).and_then(|v| v.as_f64()).unwrap_or(1.0);
        let gamma =
            placement.and_then(|p| p.params.get("gamma")).and_then(|v| v.as_f64()).unwrap_or(1.5);
        let check = move |snapshot: &dilu_cluster::AuditSnapshot, out: &mut Vec<String>| {
            let resized: u64 =
                snapshot.functions.iter().map(|f| f.resize_grows + f.resize_shrinks).sum();
            for g in &snapshot.gpus {
                if g.mem_reserved > g.mem_capacity {
                    out.push(format!(
                        "{} at {}: {} B reserved on a {} B card",
                        g.addr, snapshot.now, g.mem_reserved, g.mem_capacity
                    ));
                }
                // Ω: guarantees must fit the card. The placement enforces
                // its configured omega at deploy time; vertical growth may
                // fill the remaining slack but never oversubscribe 1.0.
                let omega_now = if resized == 0 && dilu_family { omega.min(1.0) } else { 1.0 };
                if g.sum_request > omega_now + EPS {
                    out.push(format!(
                        "{} at {}: Σrequest {:.4} exceeds Ω {omega_now}",
                        g.addr, snapshot.now, g.sum_request
                    ));
                }
                if dilu_family && resized == 0 && g.sum_limit > gamma + EPS {
                    out.push(format!(
                        "{} at {}: Σlimit {:.4} exceeds Γ {gamma}",
                        g.addr, snapshot.now, g.sum_limit
                    ));
                }
            }
        };
        let run = run_audited(config, registry, check);
        let (violations, _final_audit, _report) = match run {
            Ok(r) => r,
            Err(e) if e.starts_with("PANIC") => return Verdict::Fail(e),
            Err(e) => return Verdict::Skip(e),
        };
        if violations.is_empty() {
            Verdict::Pass
        } else {
            Verdict::Fail(violations.join("\n"))
        }
    }
}

/// Record-then-replay oracle: recording a run to the binary event log
/// and replaying it from the log alone must reproduce the event stream,
/// every audit digest, and the final report byte-for-byte. The log also
/// round-trips through its wire encoding on the way, so the codec is
/// under test too. Recording and replaying costs two extra full runs per
/// case, so this oracle samples a third of fuzz cases; when it fires,
/// the failing log is kept for the driver to dump next to the TOML
/// reproducer ([`Oracle::artifact`]).
pub struct RecordReplayOracle {
    last_log: RefCell<Option<Vec<u8>>>,
}

impl RecordReplayOracle {
    /// A fresh oracle with no stashed failure artifact.
    pub fn new() -> Self {
        RecordReplayOracle { last_log: RefCell::new(None) }
    }
}

impl Default for RecordReplayOracle {
    fn default() -> Self {
        Self::new()
    }
}

impl Oracle for RecordReplayOracle {
    fn name(&self) -> &'static str {
        "record-replay"
    }

    fn samples(&self, case_seed: u64) -> bool {
        case_seed.is_multiple_of(3)
    }

    fn artifact(&self) -> Option<(String, Vec<u8>)> {
        self.last_log.borrow().as_ref().map(|bytes| ("dlog".to_owned(), bytes.clone()))
    }

    fn check(&self, config: &ScenarioConfig, registry: &Registry) -> Verdict {
        use dilu_replay::{replay, EventLog, ReplayError};
        self.last_log.borrow_mut().take();
        let recorded =
            std::panic::catch_unwind(AssertUnwindSafe(|| dilu_replay::record(config, registry)))
                .unwrap_or_else(|p| {
                    Err(ReplayError::Scenario(format!("PANIC while recording: {}", panic_text(&p))))
                });
        let log = match recorded {
            Ok(log) => log,
            // A scenario the serving plane rejects with a typed error has
            // nothing to record — the same Skip every other oracle gives.
            Err(ReplayError::Scenario(msg)) if !msg.starts_with("PANIC") => {
                return Verdict::Skip(msg)
            }
            Err(e) => return Verdict::Fail(format!("recording failed: {e}")),
        };
        let bytes = log.to_bytes();
        let parsed = match EventLog::from_bytes(&bytes) {
            Ok(parsed) => parsed,
            Err(e) => {
                *self.last_log.borrow_mut() = Some(bytes);
                return Verdict::Fail(format!("recorded log does not parse back: {e}"));
            }
        };
        let verdict = std::panic::catch_unwind(AssertUnwindSafe(|| replay(&parsed, registry)))
            .unwrap_or_else(|p| {
                Err(ReplayError::Scenario(format!("PANIC while replaying: {}", panic_text(&p))))
            });
        match verdict {
            Ok(outcome) if outcome.is_exact() => Verdict::Pass,
            Ok(outcome) => {
                *self.last_log.borrow_mut() = Some(bytes);
                let mut lines = Vec::new();
                if let Some(d) = outcome.event_divergence {
                    lines.push(d);
                }
                if let Some(d) = outcome.audit_divergence {
                    lines.push(d);
                }
                if !outcome.report_matches {
                    lines.push(first_divergence(&outcome.report_json, &parsed.report_json));
                }
                Verdict::Fail(format!("replay diverged from the recording:\n{}", lines.join("\n")))
            }
            Err(e) => {
                *self.last_log.borrow_mut() = Some(bytes);
                Verdict::Fail(format!("replay failed: {e}"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_case, SpaceConfig};

    fn registry() -> Registry {
        Registry::with_defaults()
    }

    #[test]
    fn all_oracles_pass_a_known_good_case() {
        let config = generate_case(&SpaceConfig::default(), 1);
        for oracle in default_oracles() {
            let verdict = oracle.check(&config, &registry());
            assert!(!verdict.is_fail(), "{}: {verdict:?}", oracle.name());
        }
    }

    #[test]
    fn infeasible_compositions_skip_not_fail() {
        let text = r#"
[cluster]
nodes = 1
gpus_per_node = 1

[system]
preset = "exclusive"

[[functions]]
model = "bert-base"
initial = 2
arrivals = { process = "poisson", rate = 5.0 }

[[functions]]
model = "vgg19"
arrivals = { process = "poisson", rate = 5.0 }
"#;
        let config = ScenarioConfig::from_toml_str(text).unwrap();
        for oracle in default_oracles() {
            let verdict = oracle.check(&config, &registry());
            assert!(
                matches!(verdict, Verdict::Skip(_)),
                "{} must skip the unplaceable scenario: {verdict:?}",
                oracle.name()
            );
        }
    }
}
