//! The record side: run a scenario with the event and audit hooks armed
//! and assemble a replayable [`EventLog`].

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use dilu_cluster::EventRecord;
use dilu_core::{Registry, ScenarioConfig};
use dilu_sim::SimTime;

use crate::log::{EventLog, Fnv1a, LoggedEvent};
use crate::ReplayError;

/// Captured arrival-refill chunks: `(function id, chunk)` in pull order.
type ArrivalChunks = Vec<(u32, Vec<SimTime>)>;

/// Digest of an audit snapshot: FNV-1a over its debug rendering. The
/// rendering covers every audited field deterministically (derived
/// `Debug` over plain data), so any accounting divergence between two
/// runs flips the digest at the first differing controller tick.
pub fn audit_digest(snapshot: &dilu_cluster::AuditSnapshot) -> u64 {
    let mut hash = Fnv1a::default();
    write!(hash, "{snapshot:?}").expect("hashing a rendering cannot fail");
    hash.0
}

/// Records one full run of `config`: the arrival schedule (captured as
/// the stream of bounded refill chunks the run actually pulled, so even a
/// production-scale scenario records without materializing its schedule),
/// the typed event stream, per-tick audit digests, and the final report
/// JSON — everything [`replay`](crate::replay) needs to reproduce and
/// verify the run.
///
/// # Errors
///
/// Configuration/composition errors surface as
/// [`ReplayError::Scenario`]; serialization failures as
/// [`ReplayError::Serialize`].
pub fn record(config: &ScenarioConfig, registry: &Registry) -> Result<EventLog, ReplayError> {
    let config_json =
        serde_json::to_string(config).map_err(|e| ReplayError::Serialize(e.to_string()))?;
    let scenario = config
        .clone()
        .into_builder(registry)
        .and_then(|b| b.build())
        .map_err(|e| ReplayError::Scenario(e.to_string()))?;
    let horizon = scenario.horizon();
    let drain = scenario.drain();
    let mut sim = scenario.into_sim();
    // One log record per refill chunk, in pull order. Replay concatenates
    // them per function, so chunk boundaries need not be preserved — they
    // re-derive from the fixed arrival window.
    let arrivals: Rc<RefCell<ArrivalChunks>> = Rc::new(RefCell::new(Vec::new()));
    let arrivals_tap = Rc::clone(&arrivals);
    sim.set_arrival_hook(Box::new(move |id, chunk| {
        arrivals_tap.borrow_mut().push((id.0, chunk.to_vec()));
    }));

    let events: Rc<RefCell<Vec<LoggedEvent>>> = Rc::new(RefCell::new(Vec::new()));
    let events_tap = Rc::clone(&events);
    sim.set_event_hook(Box::new(move |r: EventRecord| {
        events_tap.borrow_mut().push(LoggedEvent {
            at: r.at,
            seq: r.seq,
            kind: r.kind,
            uid: r.uid,
        });
    }));
    let audits: Rc<RefCell<Vec<(SimTime, u64)>>> = Rc::new(RefCell::new(Vec::new()));
    let audits_tap = Rc::clone(&audits);
    sim.set_audit_hook(Box::new(move |snapshot| {
        audits_tap.borrow_mut().push((snapshot.now, audit_digest(snapshot)));
    }));

    sim.run_until(SimTime::ZERO + horizon + drain);
    let report = sim.into_report();
    let report_json =
        serde_json::to_string(&report).map_err(|e| ReplayError::Serialize(e.to_string()))?;

    let mut log = EventLog::new(config_json);
    log.arrivals = std::mem::take(&mut *arrivals.borrow_mut());
    log.events = std::mem::take(&mut *events.borrow_mut());
    log.audits = std::mem::take(&mut *audits.borrow_mut());
    log.report_json = report_json;
    Ok(log)
}
