//! `dilu run --profile` end to end: the phase table renders (under the
//! dense-quantum stepper, whose wakes drive every phase each cycle),
//! profiling never perturbs the simulation — the `--json` digest matches
//! the unprofiled run byte-for-byte once the wall-clock-derived (and so
//! nondeterministic) `"profile"` entry is removed — and a scenario without
//! a network plane charges nothing to the `net` phase.

use std::path::PathBuf;
use std::process::Command;

use serde::Value;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir exists");
    dir.join(name)
}

fn write_scenario() -> PathBuf {
    let path = scratch("profile-scenario.toml");
    std::fs::write(
        &path,
        r#"
name = "cli-profile"

[cluster]
nodes = 1
gpus_per_node = 2

[system]
preset = "dilu"

[system.controller]
name = "co-scale"

[run]
horizon_secs = 10
seed = 99

[[functions]]
model = "bert-base"
arrivals = { process = "trace", shape = "bursty", rate = 30.0, scale = 4.0 }
"#,
    )
    .expect("scenario written");
    path
}

fn run_dilu(args: &[&str]) -> String {
    let out =
        Command::new(env!("CARGO_BIN_EXE_dilu")).args(args).output().expect("dilu binary runs");
    assert!(
        out.status.success(),
        "dilu {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

/// Parses a written `--json` digest and re-serializes it through the same
/// serializer, dropping the `"profile"` entry if present — the only
/// nondeterministic (wall-clock) part of a profiled digest.
fn digest_without_profile(path: &PathBuf) -> (String, Option<Value>) {
    let text = std::fs::read_to_string(path).expect("digest written");
    let value = serde_json::parse_value(&text).expect("digest parses");
    let Value::Map(mut entries) = value else { panic!("digest is a map") };
    let profile = entries
        .iter()
        .position(|(k, _)| matches!(k, Value::Str(s) if s == "profile"))
        .map(|i| entries.remove(i).1);
    (serde_json::to_string(&Value::Map(entries)).expect("re-serializes"), profile)
}

/// The value under `name` in a parsed JSON map's entries.
fn field(entries: &[(Value, Value)], name: &str) -> Option<Value> {
    entries.iter().find(|(k, _)| matches!(k, Value::Str(s) if s == name)).map(|(_, v)| v.clone())
}

#[test]
fn profile_renders_a_table_and_leaves_the_json_digest_untouched() {
    let scenario = write_scenario();
    let sc = scenario.to_str().unwrap();
    let (plain, profiled) = (scratch("profile-off.json"), scratch("profile-on.json"));

    run_dilu(&["run", sc, "--time-model", "dense-quantum", "--json", plain.to_str().unwrap()]);
    let stdout = run_dilu(&[
        "run",
        sc,
        "--time-model",
        "dense-quantum",
        "--profile",
        "--json",
        profiled.to_str().unwrap(),
    ]);

    // The table renders with the header and real phase rows.
    assert!(stdout.contains("== phase profile =="), "table missing:\n{stdout}");
    assert!(stdout.contains("wall_ms"), "header missing:\n{stdout}");
    for phase in ["step", "arrive", "dispatch", "tick"] {
        assert!(stdout.contains(phase), "phase row `{phase}` missing:\n{stdout}");
    }

    let (plain_digest, plain_profile) = digest_without_profile(&plain);
    let (profiled_digest, profile) = digest_without_profile(&profiled);
    assert!(plain_profile.is_none(), "unprofiled run must not embed a profile");
    assert_eq!(plain_digest, profiled_digest, "--profile must not perturb the simulation digest");

    // Dense-quantum phase counters are coherent: the profiler saw wakes,
    // and the per-phase event counts it reports are non-trivial.
    let Some(Value::Map(profile)) = profile else { panic!("profiled run embeds a profile map") };
    let Some(Value::UInt(wakes)) = field(&profile, "wakes") else { panic!("wakes recorded") };
    assert!(wakes > 0, "dense stepping wakes every quantum");
    let Some(Value::Map(phases)) = field(&profile, "phases") else { panic!("phases recorded") };
    let events: u64 = phases
        .iter()
        .filter_map(|(_, v)| match v {
            Value::Map(stat) => match field(stat, "events") {
                Some(Value::UInt(n)) => Some(n),
                _ => None,
            },
            _ => None,
        })
        .sum();
    assert!(events > 0, "phase event counters must accumulate across wakes");
}

#[test]
fn a_network_less_run_charges_nothing_to_the_net_phase() {
    let scenario = write_scenario();
    let sc = scenario.to_str().unwrap();
    for model in ["dense-quantum", "event-driven"] {
        let out = scratch(&format!("profile-net-{model}.json"));
        run_dilu(&["run", sc, "--time-model", model, "--profile", "--json", out.to_str().unwrap()]);
        let (_, profile) = digest_without_profile(&out);
        let Some(Value::Map(profile)) = profile else {
            panic!("profiled run embeds a profile map")
        };
        let Some(Value::Map(phases)) = field(&profile, "phases") else { panic!("phases recorded") };
        let Some(Value::Map(net)) = field(&phases, "net") else { panic!("net row recorded") };
        // The scenario has no `[network]` section: there is no plane to
        // poll, so the phase never runs and its timer never starts.
        assert_eq!(field(&net, "nanos"), Some(Value::UInt(0)), "{model}: net wall time");
        assert_eq!(field(&net, "events"), Some(Value::UInt(0)), "{model}: net events");
    }
}
