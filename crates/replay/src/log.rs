//! The versioned binary event-log format.
//!
//! A log file is a fixed header followed by length-prefixed, tagged
//! records:
//!
//! ```text
//! magic    8 bytes   b"DILURPL1"
//! version  u32 LE    FORMAT_VERSION (parsers reject anything newer)
//! hash     u64 LE    FNV-1a of the config JSON bytes
//! cfg_len  u32 LE    length of the scenario config JSON
//! config   cfg_len bytes of JSON (the full ScenarioConfig)
//! records  tag u8 · varint payload_len · payload   (repeated)
//! ```
//!
//! Record payloads use LEB128 varints with zigzag for signed deltas:
//!
//! * `0x01` arrivals — one inference function's recorded arrival
//!   schedule: `varint func_id · varint count · count × varint Δµs`
//!   (ascending deltas from the previous instant in the block);
//! * `0x02` event — one event-core pop: `zigzag Δµs` from the previous
//!   event's instant, `varint seq`, `u8 kind`, `varint uid`;
//! * `0x03` audit — one controller-tick audit digest: `zigzag Δµs` from
//!   the previous audit instant, `u64 LE` FNV-1a digest of the
//!   [`AuditSnapshot`](dilu_cluster::AuditSnapshot) debug rendering;
//! * `0x04` report — the final `ClusterReport` JSON bytes;
//! * `0x05` end — terminator; trailing bytes after it are an error.
//!
//! Unknown tags are skipped via their length prefix (room for additive
//! growth inside one version); a missing terminator, bad magic, or a
//! version from the future fails loudly — a stale log must never replay
//! as garbage.

use dilu_sim::SimTime;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"DILURPL1";

/// The current log format version.
pub const FORMAT_VERSION: u32 = 1;

const TAG_ARRIVALS: u8 = 0x01;
const TAG_EVENT: u8 = 0x02;
const TAG_AUDIT: u8 = 0x03;
const TAG_REPORT: u8 = 0x04;
const TAG_END: u8 = 0x05;

/// FNV-1a over a byte string — the log's scenario hash and audit digest
/// primitive (stable, dependency-free, deterministic).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.update(bytes);
    hash.0
}

/// A running FNV-1a hash. As a [`std::fmt::Write`] sink it hashes a
/// formatted rendering piece by piece, never collecting it into a
/// `String`: the same digest as [`fnv1a`] over the rendered bytes.
pub(crate) struct Fnv1a(pub(crate) u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// One recorded event-core pop (see
/// [`EventRecord`](dilu_cluster::EventRecord), whose fields this
/// mirrors 1:1 in log form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedEvent {
    /// The instant the event fired at.
    pub at: SimTime,
    /// Queue insertion sequence (0 for the out-of-heap quantum chain).
    pub seq: u64,
    /// Kind code (`SimEvent::code()` or `QUANTUM_CHAIN_CODE`).
    pub kind: u8,
    /// Instance-uid payload (0 for payload-free kinds).
    pub uid: u64,
}

/// A fully parsed (or to-be-written) event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    /// FNV-1a of `config_json` — recomputed and checked on parse.
    pub scenario_hash: u64,
    /// The recorded scenario, as the exact JSON bytes that hashed.
    pub config_json: String,
    /// Each inference function's pre-run arrival schedule, in
    /// function-id order.
    pub arrivals: Vec<(u32, Vec<SimTime>)>,
    /// Every event-core pop, in execution order.
    pub events: Vec<LoggedEvent>,
    /// Controller-tick audit digests `(instant, digest)`, in order.
    pub audits: Vec<(SimTime, u64)>,
    /// The recorded final `ClusterReport` JSON — the acceptance oracle.
    pub report_json: String,
}

/// A structural log-format error. Every variant is loud and names the
/// failing layer, so a stale or corrupt log can never half-replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is newer than [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The file ended inside the named structure.
    Truncated(&'static str),
    /// The header hash does not match the config bytes (corruption).
    HashMismatch {
        /// Hash stored in the header.
        recorded: u64,
        /// Hash recomputed from the config bytes.
        computed: u64,
    },
    /// Bytes follow the end-of-log record.
    TrailingBytes,
    /// No end-of-log record was found.
    MissingEnd,
    /// The log carries no final-report record.
    MissingReport,
    /// A non-UTF-8 JSON payload.
    BadUtf8(&'static str),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::BadMagic => write!(f, "not a dilu event log (bad magic)"),
            LogError::UnsupportedVersion(v) => {
                write!(f, "log format version {v} is newer than supported {FORMAT_VERSION}")
            }
            LogError::Truncated(what) => write!(f, "log truncated inside {what}"),
            LogError::HashMismatch { recorded, computed } => write!(
                f,
                "scenario hash mismatch: header {recorded:#018x}, config bytes {computed:#018x} \
                 (corrupt log)"
            ),
            LogError::TrailingBytes => write!(f, "bytes after the end-of-log record"),
            LogError::MissingEnd => write!(f, "no end-of-log record"),
            LogError::MissingReport => write!(f, "log carries no final report record"),
            LogError::BadUtf8(what) => write!(f, "non-UTF-8 {what} payload"),
        }
    }
}

impl std::error::Error for LogError {}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(input: &[u8], pos: &mut usize) -> Result<u64, LogError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos).ok_or(LogError::Truncated("varint"))?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(LogError::Truncated("varint overflow"));
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_record(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    put_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
}

impl EventLog {
    /// A fresh, empty log for `config_json` (the hash is derived).
    pub fn new(config_json: String) -> Self {
        EventLog {
            scenario_hash: fnv1a(config_json.as_bytes()),
            config_json,
            arrivals: Vec::new(),
            events: Vec::new(),
            audits: Vec::new(),
            report_json: String::new(),
        }
    }

    /// Serializes the log to its binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.config_json.len() + self.events.len() * 6);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.scenario_hash.to_le_bytes());
        out.extend_from_slice(&(self.config_json.len() as u32).to_le_bytes());
        out.extend_from_slice(self.config_json.as_bytes());
        let mut payload = Vec::new();
        for (func, times) in &self.arrivals {
            payload.clear();
            put_varint(&mut payload, u64::from(*func));
            put_varint(&mut payload, times.len() as u64);
            let mut prev = 0u64;
            for t in times {
                let us = t.as_micros();
                put_varint(&mut payload, us - prev);
                prev = us;
            }
            put_record(&mut out, TAG_ARRIVALS, &payload);
        }
        let mut prev_at = 0i64;
        for e in &self.events {
            payload.clear();
            let us = e.at.as_micros() as i64;
            put_varint(&mut payload, zigzag(us - prev_at));
            prev_at = us;
            put_varint(&mut payload, e.seq);
            payload.push(e.kind);
            put_varint(&mut payload, e.uid);
            put_record(&mut out, TAG_EVENT, &payload);
        }
        let mut prev_at = 0i64;
        for (at, digest) in &self.audits {
            payload.clear();
            let us = at.as_micros() as i64;
            put_varint(&mut payload, zigzag(us - prev_at));
            prev_at = us;
            payload.extend_from_slice(&digest.to_le_bytes());
            put_record(&mut out, TAG_AUDIT, &payload);
        }
        put_record(&mut out, TAG_REPORT, self.report_json.as_bytes());
        put_record(&mut out, TAG_END, &[]);
        out
    }

    /// Parses a binary log, validating magic, version, hash, and
    /// structure.
    pub fn from_bytes(bytes: &[u8]) -> Result<EventLog, LogError> {
        let mut pos = 0usize;
        let magic = bytes.get(..8).ok_or(LogError::Truncated("header"))?;
        if magic != MAGIC {
            return Err(LogError::BadMagic);
        }
        pos += 8;
        let version = read_u32(bytes, &mut pos, "version")?;
        if version > FORMAT_VERSION {
            return Err(LogError::UnsupportedVersion(version));
        }
        let scenario_hash = read_u64(bytes, &mut pos, "scenario hash")?;
        let cfg_len = read_u32(bytes, &mut pos, "config length")? as usize;
        let cfg_bytes =
            bytes.get(pos..pos + cfg_len).ok_or(LogError::Truncated("config JSON"))?.to_vec();
        pos += cfg_len;
        let config_json =
            String::from_utf8(cfg_bytes).map_err(|_| LogError::BadUtf8("config JSON"))?;
        let computed = fnv1a(config_json.as_bytes());
        if computed != scenario_hash {
            return Err(LogError::HashMismatch { recorded: scenario_hash, computed });
        }
        let mut log = EventLog {
            scenario_hash,
            config_json,
            arrivals: Vec::new(),
            events: Vec::new(),
            audits: Vec::new(),
            report_json: String::new(),
        };
        let mut saw_report = false;
        let mut prev_event_at = 0i64;
        let mut prev_audit_at = 0i64;
        loop {
            let tag = *bytes.get(pos).ok_or(LogError::MissingEnd)?;
            pos += 1;
            let len = get_varint(bytes, &mut pos)? as usize;
            let payload = bytes.get(pos..pos + len).ok_or(LogError::Truncated("record"))?;
            pos += len;
            match tag {
                TAG_ARRIVALS => {
                    let mut p = 0usize;
                    let func = u32::try_from(get_varint(payload, &mut p)?)
                        .map_err(|_| LogError::Truncated("function id"))?;
                    let count = get_varint(payload, &mut p)? as usize;
                    let mut times = Vec::with_capacity(count.min(1 << 20));
                    let mut prev = 0u64;
                    for _ in 0..count {
                        prev += get_varint(payload, &mut p)?;
                        times.push(SimTime::from_micros(prev));
                    }
                    log.arrivals.push((func, times));
                }
                TAG_EVENT => {
                    let mut p = 0usize;
                    prev_event_at += unzigzag(get_varint(payload, &mut p)?);
                    let seq = get_varint(payload, &mut p)?;
                    let kind = *payload.get(p).ok_or(LogError::Truncated("event kind"))?;
                    p += 1;
                    let uid = get_varint(payload, &mut p)?;
                    let at = u64::try_from(prev_event_at)
                        .map_err(|_| LogError::Truncated("negative event instant"))?;
                    log.events.push(LoggedEvent { at: SimTime::from_micros(at), seq, kind, uid });
                }
                TAG_AUDIT => {
                    let mut p = 0usize;
                    prev_audit_at += unzigzag(get_varint(payload, &mut p)?);
                    let digest_bytes = payload
                        .get(p..p + 8)
                        .ok_or(LogError::Truncated("audit digest"))?
                        .try_into()
                        .expect("8-byte slice");
                    let at = u64::try_from(prev_audit_at)
                        .map_err(|_| LogError::Truncated("negative audit instant"))?;
                    log.audits.push((SimTime::from_micros(at), u64::from_le_bytes(digest_bytes)));
                }
                TAG_REPORT => {
                    log.report_json = String::from_utf8(payload.to_vec())
                        .map_err(|_| LogError::BadUtf8("report JSON"))?;
                    saw_report = true;
                }
                TAG_END => {
                    if pos != bytes.len() {
                        return Err(LogError::TrailingBytes);
                    }
                    if !saw_report {
                        return Err(LogError::MissingReport);
                    }
                    return Ok(log);
                }
                // Unknown tag within a supported version: additive
                // record kinds skip via the length prefix.
                _ => {}
            }
        }
    }
}

fn read_u32(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<u32, LogError> {
    let slice = bytes.get(*pos..*pos + 4).ok_or(LogError::Truncated(what))?;
    *pos += 4;
    Ok(u32::from_le_bytes(slice.try_into().expect("4-byte slice")))
}

fn read_u64(bytes: &[u8], pos: &mut usize, what: &'static str) -> Result<u64, LogError> {
    let slice = bytes.get(*pos..*pos + 8).ok_or(LogError::Truncated(what))?;
    *pos += 8;
    Ok(u64::from_le_bytes(slice.try_into().expect("8-byte slice")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_round_trip() {
        let mut out = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        for &v in &values {
            put_varint(&mut out, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn zigzag_round_trips_signed_deltas() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn sample_log() -> EventLog {
        let mut log = EventLog::new("{\"name\":\"sample\"}".to_owned());
        log.arrivals.push((
            0,
            vec![SimTime::from_millis(5), SimTime::from_millis(5), SimTime::from_millis(40)],
        ));
        log.arrivals.push((3, Vec::new()));
        log.events = vec![
            LoggedEvent { at: SimTime::from_millis(5), seq: 2, kind: 1, uid: 0 },
            LoggedEvent { at: SimTime::from_millis(5), seq: 7, kind: 2, uid: 42 },
            LoggedEvent { at: SimTime::from_millis(10), seq: 0, kind: 8, uid: 0 },
        ];
        log.audits = vec![(SimTime::from_secs(1), 0xDEAD_BEEF), (SimTime::from_secs(2), 77)];
        log.report_json = "{\"peak_gpus\":3}".to_owned();
        log
    }

    #[test]
    fn logs_round_trip_bytes_exactly() {
        let log = sample_log();
        let bytes = log.to_bytes();
        let parsed = EventLog::from_bytes(&bytes).expect("round trip");
        assert_eq!(parsed, log);
        assert_eq!(parsed.to_bytes(), bytes, "re-encoding is byte-stable");
    }

    #[test]
    fn bad_magic_version_and_truncation_fail_loudly() {
        let bytes = sample_log().to_bytes();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(EventLog::from_bytes(&wrong_magic), Err(LogError::BadMagic));

        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(
            EventLog::from_bytes(&future),
            Err(LogError::UnsupportedVersion(FORMAT_VERSION + 1))
        );

        for cut in [4usize, 11, 19, bytes.len() - 1] {
            assert!(EventLog::from_bytes(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(EventLog::from_bytes(&trailing), Err(LogError::TrailingBytes));
    }

    #[test]
    fn config_corruption_fails_the_hash_check() {
        let mut bytes = sample_log().to_bytes();
        // Flip one byte inside the config JSON region (starts at 24).
        bytes[25] ^= 0x20;
        assert!(matches!(EventLog::from_bytes(&bytes), Err(LogError::HashMismatch { .. })));
    }
}
