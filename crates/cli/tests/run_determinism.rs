//! End-to-end determinism through the binary: `dilu run` on the same
//! scenario twice must emit byte-identical JSON digests, and the
//! `--time-model` override must select the legacy stepper without changing
//! the outcome.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir exists");
    dir.join(name)
}

/// Writes the scenario under `name`: each test gets its own file, since
/// tests run concurrently and a shared file could be read mid-rewrite.
fn write_scenario(name: &str) -> PathBuf {
    let path = scratch(name);
    std::fs::write(
        &path,
        r#"
name = "cli-determinism"

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

#[test]
fn dilu_run_is_byte_deterministic() {
    let scenario = write_scenario("determinism-twice-scenario.toml");
    let (out_a, out_b) = (scratch("run-a.json"), scratch("run-b.json"));
    for out in [&out_a, &out_b] {
        run_dilu(&["run", scenario.to_str().unwrap(), "--json", out.to_str().unwrap()]);
    }
    let a = std::fs::read(&out_a).expect("first digest");
    let b = std::fs::read(&out_b).expect("second digest");
    assert!(!a.is_empty());
    assert_eq!(a, b, "`dilu run` must be byte-deterministic for a seeded scenario");
}

#[test]
fn time_model_flag_selects_the_stepper_without_changing_results() {
    let scenario = write_scenario("determinism-time-model-scenario.toml");
    let (out_event, out_dense) = (scratch("run-event.json"), scratch("run-dense.json"));
    run_dilu(&["run", scenario.to_str().unwrap(), "--json", out_event.to_str().unwrap()]);
    run_dilu(&[
        "run",
        scenario.to_str().unwrap(),
        "--time-model",
        "dense-quantum",
        "--json",
        out_dense.to_str().unwrap(),
    ]);
    let event = std::fs::read(&out_event).expect("event digest");
    let dense = std::fs::read(&out_dense).expect("dense digest");
    assert_eq!(event, dense, "the two time models must agree on the report digest");
}

#[test]
fn unknown_time_model_fails_loudly() {
    let scenario = write_scenario("determinism-bogus-model-scenario.toml");
    let out = Command::new(env!("CARGO_BIN_EXE_dilu"))
        .args(["run", scenario.to_str().unwrap(), "--time-model", "warp-speed"])
        .output()
        .expect("dilu binary runs");
    assert!(!out.status.success(), "bogus time model must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warp-speed"), "error names the bad value: {stderr}");
}
