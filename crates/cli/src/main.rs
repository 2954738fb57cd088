//! `dilu` — the single front door of the Dilu reproduction.
//!
//! ```text
//! dilu run <scenario.toml|.json> [--json <out.json>]   simulate a config file
//! dilu experiment <name>... | all                      regenerate paper figures
//! dilu fuzz [--cases N] [--seed S] [--oracle name]     fuzz the composition space
//! dilu lint [--json <out.json>] [--rule <name>]        audit the workspace for nondeterminism
//! dilu list                                            components, presets, models
//! ```

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dilu_core::experiments::{self, ExperimentCtx};
use dilu_core::table::Table;
use dilu_core::{Registry, ScenarioConfig, SystemKind};
use dilu_models::ModelId;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("experiment") => cmd_experiment(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("list") => cmd_list(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", usage());
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    "dilu — GPU resourcing-on-demand for serverless DL serving (reproduction)\n\
     \n\
     USAGE:\n\
     \x20 dilu run <scenario.toml|.json> [--json <out.json>] [--time-model <event-driven|dense-quantum>]\n\
     \x20          [--profile] [--progress]\n\
     \x20     Build the scenario described by the config file and simulate it.\n\
     \x20     Arrivals stream from each arrival process through a fixed\n\
     \x20     per-function window of 256 pending instants, so memory scales\n\
     \x20     with functions, not requests.\n\
     \x20     --time-model overrides the scenario's [sim] time_model (the\n\
     \x20     wake-on-work event engine by default; dense-quantum is the\n\
     \x20     legacy per-quantum stepper kept for comparison).\n\
     \x20     --profile turns on the per-phase wall-clock profiler\n\
     \x20     ([sim] profile): a table of\n\
     \x20     where the simulation wall clock went, also embedded under\n\
     \x20     \"profile\" in the --json output. --progress paints a\n\
     \x20     simulated-time progress line with a wall-clock ETA to stderr\n\
     \x20     (off by default; never written to stdout or --json files).\n\
     \x20 dilu record <scenario.toml|.json> [--log <out.dlog>] [--json <report.json>]\n\
     \x20     Simulate like `dilu run` while recording the typed event\n\
     \x20     stream, every arrival instant, and per-tick audit digests to\n\
     \x20     a versioned binary log (default: the scenario path with a\n\
     \x20     .dlog extension). --json dumps the full ClusterReport JSON.\n\
     \x20 dilu replay <log.dlog> [--until <secs>] [--json <report.json>]\n\
     \x20     Re-run a recorded log without re-sampling anything and verify\n\
     \x20     it: the replayed report must be byte-identical, and the first\n\
     \x20     diverging event or audit digest is localized otherwise (exit\n\
     \x20     non-zero). --until stops at an instant and dumps the full\n\
     \x20     cluster state audit instead of verifying.\n\
     \x20 dilu replay --diff <a.dlog> <b.dlog>\n\
     \x20     Structurally compare two logs and print the first divergent\n\
     \x20     event (instant, seq, payload) plus the audit delta around it.\n\
     \x20 dilu experiment <name>... | all\n\
     \x20     Regenerate registered paper experiments (JSON under target/experiments/).\n\
     \x20 dilu fuzz [--cases N] [--seed S] [--oracle <name>]... [--minimize] [--dump-dir <dir>]\n\
     \x20     Generate N scenarios across the whole composition space (seeded,\n\
     \x20     reproducible) and check every one against the invariant oracles:\n\
     \x20     differential (event-driven == dense-quantum), determinism,\n\
     \x20     conservation, capacity, record-replay (sampled on a third of\n\
     \x20     cases; always on under --oracle record-replay). Failing\n\
     \x20     scenarios are dumped as TOML (default target/fuzz/) with a\n\
     \x20     copy-pasteable repro line — record-replay failures also dump\n\
     \x20     the event log as .dlog for `dilu replay`; --minimize shrinks\n\
     \x20     them first. Exits non-zero on any violation.\n\
     \x20 dilu lint [--json <out.json>] [--rule <name>] [--root <dir>]\n\
     \x20     Audit the workspace sources for nondeterminism (unordered map\n\
     \x20     iteration, ambient time/RNG, arrival-order parallel merges,\n\
     \x20     order-sensitive float folds) per the root lint.toml. Findings\n\
     \x20     go to stderr and the exit code is non-zero; --json also dumps\n\
     \x20     them as JSON, --rule restricts to one rule, --root overrides\n\
     \x20     the workspace root (default: nearest ancestor with lint.toml).\n\
     \x20 dilu list\n\
     \x20     Show registered experiments, components, presets, models, and\n\
     \x20     lint rules.\n\
     \x20 dilu help\n\
     \x20     This message.\n"
        .to_string()
}

// ---------------------------------------------------------------------------
// dilu run
// ---------------------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<(), String> {
    let mut scenario_path: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut time_model: Option<String> = None;
    let mut profile = false;
    let mut progress = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let path = it.next().ok_or("--json needs a path")?;
                json_out = Some(PathBuf::from(path));
            }
            "--time-model" => {
                let model = it.next().ok_or("--time-model needs a value")?;
                time_model = Some(model.clone());
            }
            "--profile" => profile = true,
            "--progress" => progress = true,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `dilu run`"));
            }
            path => {
                if scenario_path.replace(PathBuf::from(path)).is_some() {
                    return Err("`dilu run` takes exactly one scenario file".into());
                }
            }
        }
    }
    let path =
        scenario_path.ok_or_else(|| format!("`dilu run` needs a scenario file\n\n{}", usage()))?;
    let options = RunOptions { time_model, profile, progress };
    run_scenario(&path, json_out.as_deref(), &options)
}

/// Flag overrides for `dilu run`.
#[derive(Default)]
struct RunOptions {
    time_model: Option<String>,
    profile: bool,
    progress: bool,
}

fn run_scenario(path: &Path, json_out: Option<&Path>, options: &RunOptions) -> Result<(), String> {
    let mut config = ScenarioConfig::load(path).map_err(|e| e.to_string())?;
    if let Some(model) = &options.time_model {
        // Validated with the rest of the [sim] section when the builder maps
        // the config (unknown values fail there, loudly).
        config.sim.get_or_insert_with(Default::default).time_model = Some(model.clone());
    }
    if options.profile {
        config.sim.get_or_insert_with(Default::default).profile = Some(true);
    }
    let name = config.name.clone().unwrap_or_else(|| {
        path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
    });
    let registry = Registry::with_defaults();
    let scenario =
        config.into_builder(&registry).and_then(|b| b.build()).map_err(|e| e.to_string())?;

    println!("== scenario: {name} ==");
    println!(
        "cluster: {} GPUs | placement: {} | controller: {} | share policy: {}",
        scenario.sim().spec().total_gpus(),
        scenario.sim().placement_name(),
        scenario.sim().controller_name(),
        scenario.sim().share_policy_name(),
    );
    let horizon = scenario.horizon();
    println!("horizon: {horizon} (+drain)\n");

    let started = std::time::Instant::now();
    let (report, phase_profile) = if options.progress {
        run_with_progress(scenario, horizon)
    } else {
        scenario.run_profiled().map_err(|e| e.to_string())?
    };
    let elapsed = started.elapsed();

    if !report.inference.is_empty() {
        // Fetch columns only say something when a [network] plane priced
        // the cold starts; without one they would all read 0.
        let networked = report
            .inference
            .values()
            .any(|f| f.cold_starts.fetches() + f.cold_starts.cache_hits() > 0);
        let mut t = Table::new(if networked {
            vec![
                "function",
                "model",
                "arrived",
                "completed",
                "SVR",
                "p50",
                "p95",
                "cold starts",
                "fetch_ms",
                "cache hits",
                "resizes",
            ]
        } else {
            vec![
                "function",
                "model",
                "arrived",
                "completed",
                "SVR",
                "p50",
                "p95",
                "cold starts",
                "resizes",
            ]
        });
        for f in report.inference.values() {
            let mut row = vec![
                f.name.clone(),
                f.model.to_string(),
                f.arrived.to_string(),
                f.completed.to_string(),
                format!("{:.2}%", f.svr() * 100.0),
                f.p50_display().to_string(),
                f.p95_display().to_string(),
                f.cold_starts.count().to_string(),
            ];
            if networked {
                row.push(format!("{:.0}", f.cold_starts.mean_fetch_ms()));
                row.push(format!("{:.0}%", f.cold_starts.cache_hit_rate() * 100.0));
            }
            row.push(format!("{}↑ {}↓", f.resizes.grows(), f.resizes.shrinks()));
            t.row(row);
        }
        println!("{t}");
    }
    if !report.training.is_empty() {
        let mut t = Table::new(["job", "model", "workers", "iterations", "JCT", "throughput"]);
        for j in report.training.values() {
            t.row([
                j.name.clone(),
                j.model.to_string(),
                j.workers.to_string(),
                j.iterations_done.to_string(),
                j.jct().map(|d| d.to_string()).unwrap_or_else(|| "unfinished".into()),
                format!("{:.1} {}", j.throughput(report.horizon), j.unit),
            ]);
        }
        println!("{t}");
    }
    println!(
        "peak GPUs: {} | mean occupied: {:.1} | GPU time: {} | mean SVR: {:.2}%",
        report.peak_gpus,
        report.mean_occupied_gpus(),
        report.gpu_time,
        report.mean_svr() * 100.0,
    );
    println!("[simulated in {:.1}s]", elapsed.as_secs_f64());
    if let Some(profile) = &phase_profile {
        println!("\n== phase profile ==");
        print!("{}", profile.render());
    }

    if let Some(out) = json_out {
        let mut summary = report_summary(&report);
        if let Some(profile) = &phase_profile {
            if let serde::Value::Map(entries) = &mut summary {
                entries.push((
                    serde::Value::Str("profile".into()),
                    serde::Serialize::to_value(profile),
                ));
            }
        }
        dilu_core::table::write_json_at(out, &summary);
        println!("[json: {}]", out.display());
    }
    Ok(())
}

/// Runs the scenario in ~200 simulated-time slices, painting a
/// simulated-time progress line (percent done, simulated seconds, wall
/// ETA) to **stderr** after each slice. Slicing `run_until` lands on the
/// exact same event stream as one call to the full horizon, so the
/// report stays byte-identical to a plain run — and stderr keeps the
/// ticker out of piped stdout and `--json` files.
fn run_with_progress(
    scenario: dilu_core::Scenario,
    horizon: dilu_sim::SimDuration,
) -> (dilu_cluster::ClusterReport, Option<dilu_metrics::PhaseProfile>) {
    use dilu_sim::SimTime;
    let end = SimTime::ZERO + horizon + scenario.drain();
    let total_us = end.as_micros();
    let mut sim = scenario.into_sim();
    let started = std::time::Instant::now();
    const SLICES: u64 = 200;
    for slice in 1..=SLICES {
        let t = SimTime::from_micros(total_us / SLICES * slice);
        sim.run_until(if slice == SLICES { end } else { t });
        let done = slice as f64 / SLICES as f64;
        let elapsed = started.elapsed().as_secs_f64();
        let eta = elapsed * (1.0 - done) / done;
        eprint!(
            "\r[progress] {:5.1}% | t={:.0}s/{:.0}s | eta {:.0}s   ",
            done * 100.0,
            (total_us / SLICES * slice) as f64 / 1e6,
            total_us as f64 / 1e6,
            eta,
        );
    }
    eprintln!();
    let profile = sim.phase_profile();
    (sim.into_report(), profile)
}

/// A JSON-friendly digest of a [`dilu_cluster::ClusterReport`].
fn report_summary(report: &dilu_cluster::ClusterReport) -> serde::Value {
    use serde::Value;
    let inference: Vec<Value> = report
        .inference
        .values()
        .map(|f| {
            Value::Map(vec![
                (Value::Str("name".into()), Value::Str(f.name.clone())),
                (Value::Str("model".into()), Value::Str(f.model.name().into())),
                (Value::Str("arrived".into()), Value::UInt(f.arrived)),
                (Value::Str("completed".into()), Value::UInt(f.completed)),
                (Value::Str("svr".into()), Value::Float(f.svr())),
                (Value::Str("p95_us".into()), Value::UInt(f.p95_display().as_micros())),
                (Value::Str("cold_starts".into()), Value::UInt(f.cold_starts.count())),
                (Value::Str("cold_fetches".into()), Value::UInt(f.cold_starts.fetches())),
                (Value::Str("cache_hits".into()), Value::UInt(f.cold_starts.cache_hits())),
                (Value::Str("cache_hit_rate".into()), Value::Float(f.cold_starts.cache_hit_rate())),
                (Value::Str("mean_fetch_ms".into()), Value::Float(f.cold_starts.mean_fetch_ms())),
                (Value::Str("resizes".into()), Value::UInt(f.resizes.total())),
            ])
        })
        .collect();
    let training: Vec<Value> = report
        .training
        .values()
        .map(|j| {
            Value::Map(vec![
                (Value::Str("name".into()), Value::Str(j.name.clone())),
                (Value::Str("model".into()), Value::Str(j.model.name().into())),
                (Value::Str("iterations_done".into()), Value::UInt(j.iterations_done)),
                (
                    Value::Str("jct_us".into()),
                    j.jct().map_or(Value::Unit, |d| Value::UInt(d.as_micros())),
                ),
                (Value::Str("throughput".into()), Value::Float(j.throughput(report.horizon))),
            ])
        })
        .collect();
    Value::Map(vec![
        (Value::Str("peak_gpus".into()), Value::UInt(u64::from(report.peak_gpus))),
        (Value::Str("mean_svr".into()), Value::Float(report.mean_svr())),
        (Value::Str("mean_occupied_gpus".into()), Value::Float(report.mean_occupied_gpus())),
        (Value::Str("inference".into()), Value::Seq(inference)),
        (Value::Str("training".into()), Value::Seq(training)),
    ])
}

// ---------------------------------------------------------------------------
// dilu record / dilu replay
// ---------------------------------------------------------------------------

fn cmd_record(args: &[String]) -> Result<(), String> {
    let mut scenario_path: Option<PathBuf> = None;
    let mut log_out: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--log" => {
                let path = it.next().ok_or("--log needs a path")?;
                log_out = Some(PathBuf::from(path));
            }
            "--json" => {
                let path = it.next().ok_or("--json needs a path")?;
                json_out = Some(PathBuf::from(path));
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `dilu record`"));
            }
            path => {
                if scenario_path.replace(PathBuf::from(path)).is_some() {
                    return Err("`dilu record` takes exactly one scenario file".into());
                }
            }
        }
    }
    let path = scenario_path
        .ok_or_else(|| format!("`dilu record` needs a scenario file\n\n{}", usage()))?;
    let config = ScenarioConfig::load(&path).map_err(|e| e.to_string())?;
    let name = config.name.clone().unwrap_or_else(|| {
        path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
    });
    let registry = Registry::with_defaults();
    let log = dilu_replay::record(&config, &registry).map_err(|e| e.to_string())?;
    let log_path = log_out.unwrap_or_else(|| path.with_extension("dlog"));
    let bytes = log.to_bytes();
    std::fs::write(&log_path, &bytes)
        .map_err(|e| format!("cannot write {}: {e}", log_path.display()))?;
    let arrivals: usize = log.arrivals.iter().map(|(_, t)| t.len()).sum();
    println!("== dilu record: {name} ==");
    println!(
        "{} events | {} audit digests | {} arrival instants across {} functions",
        log.events.len(),
        log.audits.len(),
        arrivals,
        log.arrivals.len(),
    );
    println!("[log: {} ({} bytes)]", log_path.display(), bytes.len());
    if let Some(out) = json_out {
        std::fs::write(&out, log.report_json.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("[json: {}]", out.display());
    }
    Ok(())
}

fn load_log(path: &Path) -> Result<dilu_replay::EventLog, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    dilu_replay::EventLog::from_bytes(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut log_path: Option<PathBuf> = None;
    let mut diff_paths: Option<(PathBuf, PathBuf)> = None;
    let mut until: Option<f64> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--diff" => {
                let a = it.next().ok_or("--diff needs two log paths")?;
                let b = it.next().ok_or("--diff needs two log paths")?;
                diff_paths = Some((PathBuf::from(a), PathBuf::from(b)));
            }
            "--until" => {
                let t = it.next().ok_or("--until needs a time in seconds")?;
                until = Some(
                    t.parse::<f64>()
                        .ok()
                        .filter(|t| t.is_finite() && *t >= 0.0)
                        .ok_or_else(|| format!("--until needs seconds >= 0, got `{t}`"))?,
                );
            }
            "--json" => {
                let path = it.next().ok_or("--json needs a path")?;
                json_out = Some(PathBuf::from(path));
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag `{flag}` for `dilu replay`"));
            }
            path => {
                if log_path.replace(PathBuf::from(path)).is_some() {
                    return Err("`dilu replay` takes exactly one log file".into());
                }
            }
        }
    }
    if let Some((a_path, b_path)) = diff_paths {
        if log_path.is_some() || until.is_some() || json_out.is_some() {
            return Err(
                "`dilu replay --diff` takes exactly two log paths and no other flags".into()
            );
        }
        let a = load_log(&a_path)?;
        let b = load_log(&b_path)?;
        println!("== dilu replay --diff: {} vs {} ==", a_path.display(), b_path.display());
        print!("{}", dilu_replay::diff(&a, &b).render());
        return Ok(());
    }
    let path = log_path.ok_or_else(|| format!("`dilu replay` needs a log file\n\n{}", usage()))?;
    let log = load_log(&path)?;
    let registry = Registry::with_defaults();
    if let Some(secs) = until {
        let at = dilu_sim::SimTime::from_micros((secs * 1e6).round() as u64);
        let snapshot = dilu_replay::replay_until(&log, &registry, at).map_err(|e| e.to_string())?;
        println!("== dilu replay: {} until {secs}s ==", path.display());
        println!("{snapshot:#?}");
        return Ok(());
    }
    let verdict = dilu_replay::replay(&log, &registry).map_err(|e| e.to_string())?;
    println!("== dilu replay: {} ==", path.display());
    println!("replayed {} of {} recorded events", verdict.replayed_events, verdict.logged_events);
    if let Some(out) = &json_out {
        std::fs::write(out, verdict.report_json.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("[json: {}]", out.display());
    }
    if verdict.is_exact() {
        println!("replay verified: event stream, audit digests, and report byte-identical");
        return Ok(());
    }
    if let Some(d) = &verdict.event_divergence {
        eprintln!("{d}");
    }
    if let Some(d) = &verdict.audit_divergence {
        eprintln!("{d}");
    }
    if !verdict.report_matches {
        eprintln!("replayed ClusterReport JSON differs from the recorded report");
    }
    Err("replay diverged from the recording".into())
}

// ---------------------------------------------------------------------------
// dilu fuzz
// ---------------------------------------------------------------------------

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    use dilu_harness::{FuzzOptions, Harness};

    let mut options =
        FuzzOptions { dump_dir: Some(PathBuf::from("target/fuzz")), ..FuzzOptions::default() };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cases" => {
                let n = it.next().ok_or("--cases needs a number")?;
                options.cases =
                    n.parse().map_err(|_| format!("--cases needs a number, got `{n}`"))?;
            }
            "--seed" => {
                let s = it.next().ok_or("--seed needs a number")?;
                options.seed =
                    s.parse().map_err(|_| format!("--seed needs a number, got `{s}`"))?;
            }
            "--oracle" => {
                let name = it.next().ok_or("--oracle needs a name")?;
                options.oracles.push(name.clone());
            }
            "--minimize" => options.minimize = true,
            "--dump-dir" => {
                let dir = it.next().ok_or("--dump-dir needs a path")?;
                options.dump_dir = Some(PathBuf::from(dir));
            }
            other => return Err(format!("unknown flag `{other}` for `dilu fuzz`\n\n{}", usage())),
        }
    }
    let harness = Harness::new();
    println!("== dilu fuzz: {} cases from seed {} ==", options.cases, options.seed);
    println!(
        "oracles: {}\n",
        if options.oracles.is_empty() {
            harness.oracle_names().join(", ")
        } else {
            options.oracles.join(", ")
        }
    );
    let started = std::time::Instant::now();
    let report = harness.run_with_progress(&options, |line| println!("{line}"))?;
    println!(
        "\n{} cases | {} checks passed | {} skipped (infeasible compositions) | {} violations \
         [{:.1}s]",
        report.cases,
        report.passed,
        report.skipped,
        report.failures.len(),
        started.elapsed().as_secs_f64(),
    );
    if report.clean() {
        return Ok(());
    }
    for failure in &report.failures {
        println!("\n--- {} violated (case seed {}) ---", failure.oracle, failure.case_seed);
        println!("{}", failure.detail);
        if failure.minimized.is_some() {
            println!("[shrunk to a minimal reproducer]");
        }
        if let Some(dump) = &failure.dump {
            println!("scenario: {}  (try `dilu run {}`)", dump.display(), dump.display());
        }
        if let Some(artifact) = &failure.artifact {
            println!(
                "event log: {}  (try `dilu replay {}`)",
                artifact.display(),
                artifact.display()
            );
        }
        println!(
            "repro: dilu fuzz --cases 1 --seed {} --oracle {} --minimize",
            failure.case_seed, failure.oracle
        );
    }
    Err(format!("{} oracle violation(s)", report.failures.len()))
}

// ---------------------------------------------------------------------------
// dilu lint
// ---------------------------------------------------------------------------

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let mut json_out: Option<PathBuf> = None;
    let mut rule: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let path = it.next().ok_or("--json needs a path")?;
                json_out = Some(PathBuf::from(path));
            }
            "--rule" => {
                let name = it.next().ok_or("--rule needs a rule name")?;
                rule = Some(name.clone());
            }
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory")?;
                root = Some(PathBuf::from(dir));
            }
            other => return Err(format!("unknown flag `{other}` for `dilu lint`\n\n{}", usage())),
        }
    }
    if let Some(name) = &rule {
        if dilu_lint::find_rule(name).is_none() {
            return Err(format!(
                "unknown lint rule `{name}` (known: {})",
                dilu_lint::rule_names().join(", ")
            ));
        }
    }
    let root = match root {
        Some(dir) => dir,
        None => find_lint_root()?,
    };
    let config = dilu_lint::Config::load(&root.join("lint.toml"))?;
    let report = dilu_lint::lint_workspace(&root, &config, rule.as_deref())?;
    if let Some(out) = json_out.as_deref() {
        dilu_core::table::write_json_at(out, &report.to_json());
        println!("[json: {}]", out.display());
    }
    println!(
        "== dilu lint: {} file(s) audited, {} reasoned suppression(s) ==",
        report.files_checked,
        report.suppressed.len()
    );
    if report.clean() {
        println!("clean: no determinism findings");
        return Ok(());
    }
    // Findings go to stderr so CI logs and scripts can separate them from
    // the run banner.
    eprint!("{}", report.render_human());
    Err(format!("{} determinism finding(s)", report.findings.len()))
}

/// The workspace root: the nearest ancestor of the current directory
/// holding a `lint.toml`.
fn find_lint_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
    let mut dir = start.as_path();
    loop {
        if dir.join("lint.toml").is_file() {
            return Ok(dir.to_path_buf());
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => {
                return Err(format!(
                    "no lint.toml found in {} or any ancestor (pass --root <dir>)",
                    start.display()
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// dilu experiment
// ---------------------------------------------------------------------------

fn cmd_experiment(args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        return Err(format!(
            "`dilu experiment` needs at least one name (or `all`); known: {}",
            experiment_names().join(", ")
        ));
    }
    let names: Vec<&str> = if args.len() == 1 && args[0] == "all" {
        experiments::all().iter().map(|e| e.name()).collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    // Resolve everything before running anything, so typos fail fast.
    let mut todo = Vec::new();
    for name in names {
        let experiment = experiments::find(name).ok_or_else(|| {
            format!("unknown experiment `{name}` (known: {})", experiment_names().join(", "))
        })?;
        todo.push(experiment);
    }
    let ctx = ExperimentCtx::with_default_json_dir();
    for experiment in todo {
        println!("== {}: {} ==", experiment.name(), experiment.title());
        let started = std::time::Instant::now();
        let output = experiment.run(&ctx);
        println!("{}", output.rendered);
        if let Some(path) = &output.json_path {
            println!("[json: {}]", path.display());
        }
        println!("[{} completed in {:.1}s]\n", experiment.name(), started.elapsed().as_secs_f64());
    }
    Ok(())
}

fn experiment_names() -> Vec<&'static str> {
    experiments::all().iter().map(|e| e.name()).collect()
}

// ---------------------------------------------------------------------------
// dilu list
// ---------------------------------------------------------------------------

fn cmd_list() -> Result<(), String> {
    let registry = Registry::with_defaults();
    println!("presets (SystemKind):");
    for kind in SystemKind::ALL {
        println!("  {:12} {}", kind.name(), kind.label());
    }
    println!("\nplacements:        {}", registry.placement_names().join(", "));
    println!("controllers:       {}", registry.controller_names().join(", "));
    println!("share policies:    {}", registry.share_policy_names().join(", "));
    println!("arrival processes: {}", dilu_workload::PROCESS_NAMES.join(", "));
    println!("fuzz oracles:      {}", dilu_harness::Harness::new().oracle_names().join(", "));
    println!("lint rules:        {}", dilu_lint::rule_names().join(", "));
    println!(
        "models:            {}",
        ModelId::ALL.iter().map(|m| m.name()).collect::<Vec<_>>().join(", ")
    );
    println!("\nexperiments:");
    for e in experiments::all() {
        println!("  {:8} {}", e.name(), e.title());
    }
    Ok(())
}
