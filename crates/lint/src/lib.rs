//! # dilu-lint — the workspace determinism auditor
//!
//! Every guarantee this reproduction sells — byte-identical
//! `ClusterReport` JSON across the dense-quantum stepper, the event-driven
//! core and record→replay — rests on source-level invariants:
//! no unordered map iteration on sim paths, no ambient time or randomness,
//! fixed-order parallel merges, no order-sensitive float folds. The
//! differential fuzzer catches violations *after* a seed happens to trip
//! them; this crate catches them at the source level, in CI, before.
//!
//! It is a hand-rolled, dependency-free token scanner (the vendored-serde
//! precedent: this workspace builds fully offline), not a full parser —
//! the lexer understands strings, comments, lifetimes, and
//! `#[cfg(test)]` regions, which is exactly enough for the rule set:
//!
//! | rule | bans |
//! |------|------|
//! | `no-unordered-iteration` | `HashMap`/`HashSet` on sim/report/controller paths |
//! | `no-ambient-time` | `Instant::now` / `SystemTime` outside wall-clock reporting |
//! | `no-ambient-rng` | `thread_rng` / `from_entropy` / OS-entropy seeding |
//! | `no-unordered-parallel-merge` | completion-order merges in thread-spawning files |
//! | `float-accumulation-order` | `.sum::<f64>()` / `.fold` over hash-container iterators |
//!
//! Scopes and toggles live in the workspace-root `lint.toml`
//! ([`Config`]); `tests/`, `benches/`, `examples/` directories and
//! `#[cfg(test)]` modules are always exempt. A finding is suppressible
//! only by an inline
//!
//! ```text
//! // dilu-lint: allow(<rule>) -- <reason>
//! ```
//!
//! on the offending line or the line above — and the reason is mandatory:
//! an `allow(...)` without one is itself a finding
//! ([`ALLOW_RULE`]), so every suppression in the tree documents why the
//! heuristic is wrong there.
//!
//! The front door is `dilu lint [--json <path>] [--rule <name>]`, which
//! exits non-zero on any finding; [`lint_workspace`] is the library entry
//! and [`lint_source`] the single-file core that the fixture self-tests
//! drive directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod lexer;
mod rules;

use std::path::Path;

pub use config::{Config, RuleConfig};
pub use rules::{
    find_rule, rule_names, Rule, FLOAT_ACCUMULATION_ORDER, NO_AMBIENT_RNG, NO_AMBIENT_TIME,
    NO_UNORDERED_ITERATION, NO_UNORDERED_PARALLEL_MERGE, RULES,
};

/// Pseudo-rule for malformed `dilu-lint:` directives (unknown rule names,
/// missing `-- <reason>`). Not suppressible and never scoped away: a bad
/// suppression is always an error.
pub const ALLOW_RULE: &str = "lint-allow";

/// One diagnostic: where, which rule, what, and how to fix it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id ([`RULES`] or [`ALLOW_RULE`]).
    pub rule: &'static str,
    /// What was found.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// The suggested fix.
    pub hint: &'static str,
}

/// The outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Live findings — non-empty means the audit fails.
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned `allow(...)` directive.
    pub suppressed: Vec<Finding>,
    /// Number of `.rs` files audited.
    pub files_checked: usize,
}

impl LintReport {
    /// `true` when the audit passed.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable diagnostics, one block per finding.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{}:{}: [{}] {}\n", f.file, f.line, f.rule, f.message));
            if !f.snippet.is_empty() {
                out.push_str(&format!("    |  {}\n", f.snippet));
            }
            out.push_str(&format!("    = help: {}\n", f.hint));
        }
        out.push_str(&format!(
            "{} file(s) audited, {} finding(s), {} reasoned suppression(s)\n",
            self.files_checked,
            self.findings.len(),
            self.suppressed.len()
        ));
        out
    }

    /// The machine-readable digest behind `dilu lint --json`.
    pub fn to_json(&self) -> serde::Value {
        use serde::Value;
        let render = |list: &[Finding]| {
            Value::Seq(
                list.iter()
                    .map(|f| {
                        Value::Map(vec![
                            (Value::Str("file".into()), Value::Str(f.file.clone())),
                            (Value::Str("line".into()), Value::UInt(u64::from(f.line))),
                            (Value::Str("rule".into()), Value::Str(f.rule.into())),
                            (Value::Str("message".into()), Value::Str(f.message.clone())),
                            (Value::Str("snippet".into()), Value::Str(f.snippet.clone())),
                            (Value::Str("hint".into()), Value::Str(f.hint.into())),
                        ])
                    })
                    .collect(),
            )
        };
        Value::Map(vec![
            (Value::Str("clean".into()), Value::Bool(self.clean())),
            (Value::Str("files_checked".into()), Value::UInt(self.files_checked as u64)),
            (Value::Str("findings".into()), render(&self.findings)),
            (Value::Str("suppressed".into()), render(&self.suppressed)),
        ])
    }
}

/// A validated suppression directive.
struct Directive {
    rules: Vec<String>,
    /// Lines this directive covers: its own and the next token-bearing one.
    covers: (u32, u32),
    /// `false` when malformed (then it suppresses nothing).
    valid: bool,
}

/// Lints one file's source text as if it lived at `rel` (workspace-relative
/// path; drives rule scoping). Returns `(findings, suppressed)`.
///
/// This is the pure core: the fixture self-tests call it directly with
/// planted sources and sim-path `rel` names.
pub fn lint_source(source: &str, rel: &str, config: &Config) -> (Vec<Finding>, Vec<Finding>) {
    let lexed = lexer::lex(source);
    let snippet = |line: u32| {
        lexed.lines.get(line as usize - 1).map(|l| l.trim().to_string()).unwrap_or_default()
    };

    // Parse suppression directives; malformed ones are findings themselves.
    let mut findings: Vec<Finding> = Vec::new();
    let mut directives: Vec<Directive> = Vec::new();
    for raw in &lexed.directives {
        let next_tok_line =
            lexed.toks.iter().map(|t| t.line).find(|&l| l > raw.line).unwrap_or(raw.line);
        match parse_allow(&raw.body) {
            Ok(rules) => {
                directives.push(Directive { rules, covers: (raw.line, next_tok_line), valid: true })
            }
            Err(message) => {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: raw.line,
                    rule: ALLOW_RULE,
                    message,
                    snippet: snippet(raw.line),
                    hint: "write `// dilu-lint: allow(<rule>) -- <reason>` with a real reason",
                });
                directives.push(Directive {
                    rules: Vec::new(),
                    covers: (raw.line, next_tok_line),
                    valid: false,
                });
            }
        }
    }

    let raw = rules::check(&lexed, |rule| config.rule_applies(rule, rel));
    let mut suppressed: Vec<Finding> = Vec::new();
    for rf in raw {
        let finding = Finding {
            file: rel.to_string(),
            line: rf.line,
            rule: rf.rule,
            message: rf.detail,
            snippet: snippet(rf.line),
            hint: find_rule(rf.rule).map(|r| r.hint).unwrap_or_default(),
        };
        let covered = directives.iter().any(|d| {
            d.valid
                && (d.covers.0 == rf.line || d.covers.1 == rf.line)
                && d.rules.iter().any(|r| r == rf.rule)
        });
        if covered {
            suppressed.push(finding);
        } else {
            findings.push(finding);
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (findings, suppressed)
}

/// Parses `allow(rule, …) -- reason`, validating rule names and requiring
/// a non-empty reason.
fn parse_allow(body: &str) -> Result<Vec<String>, String> {
    let rest = body
        .strip_prefix("allow(")
        .ok_or_else(|| format!("unknown dilu-lint directive `{body}` (only `allow(...)`)"))?;
    let (names, tail) =
        rest.split_once(')').ok_or_else(|| "unclosed `allow(` — missing `)`".to_string())?;
    let rules: Vec<String> =
        names.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
    if rules.is_empty() {
        return Err("allow(...) names no rule".to_string());
    }
    for r in &rules {
        if find_rule(r).is_none() {
            return Err(format!(
                "allow(...) names unknown rule `{r}` (known: {})",
                rule_names().join(", ")
            ));
        }
    }
    let reason = tail.trim();
    let reason = reason
        .strip_prefix("--")
        .ok_or_else(|| "allow(...) needs a reason: `allow(<rule>) -- <why>`".to_string())?;
    if reason.trim().is_empty() {
        return Err("allow(...) has an empty reason after `--`".to_string());
    }
    Ok(rules)
}

/// Walks the workspace at `root` per `config` and lints every `.rs` file.
///
/// `tests/`, `benches/`, `examples/`, `vendor/`, `target/`, and hidden
/// directories are never entered; `rule_filter` restricts the live
/// findings to one rule ([`ALLOW_RULE`] errors always survive the filter —
/// a bad suppression must never be filterable away).
pub fn lint_workspace(
    root: &Path,
    config: &Config,
    rule_filter: Option<&str>,
) -> Result<LintReport, String> {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for scan_root in &config.scan_roots {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();

    let mut report = LintReport::default();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .map_err(|_| "scanned file escapes the workspace root".to_string())?
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if config.scan_exclude.iter().any(|p| config::path_has_prefix(&rel, p)) {
            continue;
        }
        let source = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (mut findings, mut suppressed) = lint_source(&source, &rel, config);
        if let Some(filter) = rule_filter {
            findings.retain(|f| f.rule == filter || f.rule == ALLOW_RULE);
        }
        report.findings.append(&mut findings);
        report.suppressed.append(&mut suppressed);
        report.files_checked += 1;
    }
    report.findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.suppressed.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Directory names never entered by the walk: test/bench/example code is
/// exempt from the determinism rules, and vendored/generated trees are not
/// first-party.
const SKIP_DIRS: &[&str] = &["tests", "benches", "examples", "vendor", "target"];

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut entries: Vec<_> =
        entries.collect::<Result<_, _>>().map_err(|e| format!("walk error: {e}"))?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_path_config() -> Config {
        Config::default()
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "
// dilu-lint: allow(no-ambient-time) -- wall-clock reporting only
let t = std::time::Instant::now();
let u = std::time::Instant::now(); // dilu-lint: allow(no-ambient-time) -- also reporting
";
        let (findings, suppressed) = lint_source(src, "crates/sim/src/x.rs", &sim_path_config());
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed.len(), 2);
    }

    #[test]
    fn allow_does_not_leak_past_the_next_line() {
        let src = "
// dilu-lint: allow(no-ambient-time) -- covers only the next line
let a = std::time::Instant::now();
let b = std::time::Instant::now();
";
        let (findings, suppressed) = lint_source(src, "crates/sim/src/x.rs", &sim_path_config());
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 4);
        assert_eq!(suppressed.len(), 1);
    }

    #[test]
    fn allow_for_the_wrong_rule_suppresses_nothing() {
        let src = "
// dilu-lint: allow(no-ambient-rng) -- wrong rule
let t = std::time::Instant::now();
";
        let (findings, _) = lint_source(src, "crates/sim/src/x.rs", &sim_path_config());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, rules::NO_AMBIENT_TIME);
    }

    #[test]
    fn missing_reason_is_an_error_and_does_not_suppress() {
        let src = "
// dilu-lint: allow(no-ambient-time)
let t = std::time::Instant::now();
";
        let (findings, suppressed) = lint_source(src, "crates/sim/src/x.rs", &sim_path_config());
        assert!(suppressed.is_empty());
        let rules_hit: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert!(rules_hit.contains(&ALLOW_RULE), "{findings:?}");
        assert!(rules_hit.contains(&rules::NO_AMBIENT_TIME), "{findings:?}");
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let src = "// dilu-lint: allow(no-such-rule) -- whatever\nlet x = 1;\n";
        let (findings, _) = lint_source(src, "crates/sim/src/x.rs", &sim_path_config());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, ALLOW_RULE);
        assert!(findings[0].message.contains("no-such-rule"));
        assert!(findings[0].message.contains("no-unordered-iteration"), "lists known rules");
    }

    #[test]
    fn report_json_shape_is_stable() {
        let mut report = LintReport { files_checked: 3, ..LintReport::default() };
        report.findings.push(Finding {
            file: "crates/x/src/y.rs".into(),
            line: 7,
            rule: rules::NO_AMBIENT_TIME,
            message: "m".into(),
            snippet: "s".into(),
            hint: "h",
        });
        let json = serde_json::to_string(&report.to_json()).unwrap();
        assert!(json.contains("\"clean\":false"));
        assert!(json.contains("\"files_checked\":3"));
        assert!(json.contains("\"rule\":\"no-ambient-time\""));
    }
}
