//! The replay side: rebuild the recorded scenario from the log (never
//! re-sampling an arrival process), re-run it with verifying hooks, and
//! localize any divergence; plus the pure two-log structural diff.

use std::cell::RefCell;
use std::rc::Rc;

use dilu_cluster::{AuditSnapshot, EventRecord, FunctionId, SimEvent};
use dilu_core::{Registry, Scenario, ScenarioConfig};
use dilu_sim::SimTime;

use crate::log::{EventLog, LoggedEvent};
use crate::record::audit_digest;
use crate::ReplayError;

fn secs(at: SimTime) -> String {
    format!("{:.6}s", at.as_micros() as f64 / 1e6)
}

fn describe(e: &LoggedEvent) -> String {
    let name = SimEvent::code_name(e.kind);
    if e.uid == 0 {
        format!("t={} seq={} {}", secs(e.at), e.seq, name)
    } else {
        format!("t={} seq={} {}(uid {})", secs(e.at), e.seq, name, e.uid)
    }
}

/// Rebuilds the recorded scenario from a parsed log: parses the config
/// JSON, verifies it still round-trips byte-identically (schema drift in
/// a newer binary fails loudly instead of replaying a reinterpreted
/// scenario), and overrides every recorded arrival schedule with the
/// exact logged instants so no arrival process is ever re-sampled.
pub fn build_replay_scenario(log: &EventLog, registry: &Registry) -> Result<Scenario, ReplayError> {
    let config = ScenarioConfig::from_json_str(&log.config_json)
        .map_err(|e| ReplayError::Scenario(format!("recorded config does not parse: {e}")))?;
    let round_trip =
        serde_json::to_string(&config).map_err(|e| ReplayError::Serialize(e.to_string()))?;
    if round_trip != log.config_json {
        return Err(ReplayError::SchemaDrift);
    }
    let mut builder =
        config.into_builder(registry).map_err(|e| ReplayError::Scenario(e.to_string()))?;
    // The log holds one record per refill chunk; `arrival_times_for`
    // replaces a function's whole source, so concatenate each function's
    // chunks (already time-ordered) before attaching. The replayed run
    // re-streams them through the same fixed arrival window, so refill
    // instants — and thus audit digests — match the recording exactly.
    let mut merged: std::collections::BTreeMap<u32, Vec<dilu_sim::SimTime>> =
        std::collections::BTreeMap::new();
    for (func, times) in &log.arrivals {
        merged.entry(*func).or_default().extend(times.iter().copied());
    }
    for (func, times) in merged {
        builder = builder.arrival_times_for(FunctionId(func), times);
    }
    builder.build().map_err(|e| ReplayError::Scenario(e.to_string()))
}

/// The verdict of one verified replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The replayed run's final `ClusterReport` JSON.
    pub report_json: String,
    /// `true` when the replayed report is byte-identical to the recorded
    /// one — the acceptance oracle.
    pub report_matches: bool,
    /// First event-stream divergence, if any (human-readable).
    pub event_divergence: Option<String>,
    /// First audit-digest divergence, if any (human-readable).
    pub audit_divergence: Option<String>,
    /// Events the replayed run popped.
    pub replayed_events: usize,
    /// Events the log recorded.
    pub logged_events: usize,
}

impl ReplayReport {
    /// `true` when the replay reproduced the recording exactly.
    pub fn is_exact(&self) -> bool {
        self.report_matches && self.event_divergence.is_none() && self.audit_divergence.is_none()
    }
}

#[derive(Debug)]
struct VerifyState {
    expected: Vec<LoggedEvent>,
    index: usize,
    divergence: Option<String>,
}

/// Replays a log end to end with verifying hooks: every popped event is
/// checked against the recorded stream in order, every controller-tick
/// audit digest against the recorded digest, and the final report JSON
/// against the recorded bytes.
pub fn replay(log: &EventLog, registry: &Registry) -> Result<ReplayReport, ReplayError> {
    let scenario = build_replay_scenario(log, registry)?;
    let horizon = scenario.horizon();
    let drain = scenario.drain();
    let mut sim = scenario.into_sim();

    let verify = Rc::new(RefCell::new(VerifyState {
        expected: log.events.clone(),
        index: 0,
        divergence: None,
    }));
    let verify_tap = Rc::clone(&verify);
    sim.set_event_hook(Box::new(move |r: EventRecord| {
        let mut v = verify_tap.borrow_mut();
        let got = LoggedEvent { at: r.at, seq: r.seq, kind: r.kind, uid: r.uid };
        if v.divergence.is_none() {
            match v.expected.get(v.index) {
                Some(want) if *want != got => {
                    v.divergence = Some(format!(
                        "event {} diverged: recorded {}, replayed {}",
                        v.index,
                        describe(want),
                        describe(&got)
                    ));
                }
                None => {
                    v.divergence = Some(format!(
                        "replay popped extra event {} past the recorded stream: {}",
                        v.index,
                        describe(&got)
                    ));
                }
                _ => {}
            }
        }
        v.index += 1;
    }));

    let audits: Rc<RefCell<(usize, Option<String>)>> = Rc::new(RefCell::new((0, None)));
    let audits_tap = Rc::clone(&audits);
    let logged_audits = log.audits.clone();
    sim.set_audit_hook(Box::new(move |snapshot| {
        let mut state = audits_tap.borrow_mut();
        let index = state.0;
        state.0 += 1;
        if state.1.is_some() {
            return;
        }
        let digest = audit_digest(snapshot);
        match logged_audits.get(index) {
            Some(&(at, want)) if at != snapshot.now || want != digest => {
                state.1 = Some(format!(
                    "audit {index} diverged: recorded t={} digest {want:#018x}, replayed t={} \
                     digest {digest:#018x}",
                    secs(at),
                    secs(snapshot.now),
                ));
            }
            None => {
                state.1 = Some(format!(
                    "replay produced extra audit {index} at t={} past the recorded stream",
                    secs(snapshot.now)
                ));
            }
            _ => {}
        }
    }));

    sim.run_until(SimTime::ZERO + horizon + drain);
    let report = sim.into_report();
    let report_json =
        serde_json::to_string(&report).map_err(|e| ReplayError::Serialize(e.to_string()))?;

    let verify = Rc::try_unwrap(verify).expect("hooks dropped with the sim").into_inner();
    let replayed_events = verify.index;
    let mut event_divergence = verify.divergence;
    if event_divergence.is_none() && replayed_events < log.events.len() {
        event_divergence = Some(format!(
            "replay stopped after {replayed_events} events; the log records {} (next recorded: {})",
            log.events.len(),
            describe(&log.events[replayed_events])
        ));
    }
    let (replayed_audits, mut audit_divergence) =
        Rc::try_unwrap(audits).expect("hooks dropped with the sim").into_inner();
    if audit_divergence.is_none() && replayed_audits < log.audits.len() {
        audit_divergence = Some(format!(
            "replay produced {replayed_audits} audits; the log records {}",
            log.audits.len()
        ));
    }

    Ok(ReplayReport {
        report_matches: report_json == log.report_json,
        report_json,
        event_divergence,
        audit_divergence,
        replayed_events,
        logged_events: log.events.len(),
    })
}

/// Replays a log up to the instant `until` and returns the full cluster
/// state audit at the stopping point — time-travel debugging through the
/// existing [`AuditSnapshot`] machinery. The stop instant is clamped to
/// the recorded run's end (horizon + drain).
pub fn replay_until(
    log: &EventLog,
    registry: &Registry,
    until: SimTime,
) -> Result<AuditSnapshot, ReplayError> {
    let scenario = build_replay_scenario(log, registry)?;
    let end = SimTime::ZERO + scenario.horizon() + scenario.drain();
    let mut sim = scenario.into_sim();
    sim.run_until(until.min(end));
    Ok(sim.audit())
}

/// The structural diff of two logs: header comparison plus the first
/// divergent event with the audit digests bracketing it.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Header-level differences (scenario hash/config, stream lengths).
    pub notes: Vec<String>,
    /// Index of the first divergent event, if the streams differ.
    pub first_divergence: Option<usize>,
    /// Human-readable localization of the divergence.
    pub detail: Option<String>,
    /// `true` when the two logs are byte-equivalent in every compared
    /// dimension.
    pub identical: bool,
}

impl DiffReport {
    /// Renders the diff as human-readable lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        if let Some(detail) = &self.detail {
            out.push_str(detail);
            out.push('\n');
        }
        if self.identical {
            out.push_str("logs are equivalent: same scenario, events, audits, and report\n");
        }
        out
    }
}

/// The audit digest at or immediately before `at`, if any.
fn audit_before(log: &EventLog, at: SimTime) -> Option<(SimTime, u64)> {
    log.audits.iter().rev().find(|(t, _)| *t <= at).copied()
}

/// Walks two logs and localizes the first divergent event: its index,
/// instant, sequence number, payload on each side, and the audit digests
/// around it. A pure structural comparison — nothing is re-simulated.
pub fn diff(a: &EventLog, b: &EventLog) -> DiffReport {
    let mut notes = Vec::new();
    if a.scenario_hash != b.scenario_hash {
        notes.push(format!(
            "scenarios differ: hash {:#018x} vs {:#018x} (the runs were configured differently)",
            a.scenario_hash, b.scenario_hash
        ));
    }
    if a.arrivals != b.arrivals {
        let which: Vec<u32> =
            a.arrivals.iter().zip(&b.arrivals).filter(|(x, y)| x != y).map(|(x, _)| x.0).collect();
        notes.push(format!(
            "arrival schedules differ (functions {:?}) — expected when the seeds differ",
            which
        ));
    }
    notes.push(format!(
        "events: {} vs {}; audits: {} vs {}",
        a.events.len(),
        b.events.len(),
        a.audits.len(),
        b.audits.len()
    ));

    let mut first_divergence = None;
    let mut detail = None;
    let limit = a.events.len().max(b.events.len());
    for i in 0..limit {
        let ea = a.events.get(i);
        let eb = b.events.get(i);
        if ea == eb {
            continue;
        }
        first_divergence = Some(i);
        let mut text = format!("first divergent event at index {i}:\n");
        match (ea, eb) {
            (Some(ea), Some(eb)) => {
                text.push_str(&format!("  log A: {}\n  log B: {}\n", describe(ea), describe(eb)));
            }
            (Some(ea), None) => {
                text.push_str(&format!("  log A: {}\n  log B: <end of stream>\n", describe(ea)));
            }
            (None, Some(eb)) => {
                text.push_str(&format!("  log A: <end of stream>\n  log B: {}\n", describe(eb)));
            }
            (None, None) => unreachable!("i < limit implies one side has an event"),
        }
        let at = ea.or(eb).expect("one side present").at;
        match (audit_before(a, at), audit_before(b, at)) {
            (Some((ta, da)), Some((tb, db))) => {
                let delta = if (ta, da) == (tb, db) {
                    "identical — state first forked between this audit and the divergent event"
                } else {
                    "already differ — state forked before this audit"
                };
                text.push_str(&format!(
                    "  audit before: A t={} {da:#018x} | B t={} {db:#018x} ({delta})\n",
                    secs(ta),
                    secs(tb),
                ));
            }
            _ => text.push_str("  no audit digest precedes the divergence\n"),
        }
        detail = Some(text);
        break;
    }
    if first_divergence.is_none() && a.audits != b.audits {
        let mismatch = a
            .audits
            .iter()
            .zip(&b.audits)
            .position(|(x, y)| x != y)
            .unwrap_or(a.audits.len().min(b.audits.len()));
        detail = Some(format!("event streams match but audit digests diverge at tick {mismatch}"));
    }
    let report_differs = a.report_json != b.report_json;
    if report_differs && first_divergence.is_none() && detail.is_none() {
        detail = Some("event streams match but the final reports differ".to_owned());
    }
    let identical = a.scenario_hash == b.scenario_hash
        && a.arrivals == b.arrivals
        && first_divergence.is_none()
        && a.audits == b.audits
        && !report_differs;
    DiffReport { notes, first_divergence, detail, identical }
}
