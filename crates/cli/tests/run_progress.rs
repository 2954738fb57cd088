//! `dilu run --progress`, end to end: the progress ticker is stderr-only
//! observability (stdout and `--json` files stay byte-identical to a
//! plain run).

use std::path::PathBuf;
use std::process::{Command, Output};

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
name = "cli-progress"

[cluster]
nodes = 1
gpus_per_node = 2

[system]
preset = "dilu"

[system.controller]
name = "co-scale"

[run]
horizon_secs = 20
seed = 17

[[functions]]
model = "bert-base"
arrivals = { process = "synth", rate = 25.0, amp = 0.5, period = 5.0 }

[[functions]]
model = "roberta-large"
arrivals = { process = "poisson", rate = 10.0 }
"#,
    )
    .expect("scenario written");
    path
}

fn run_dilu(args: &[&str]) -> Output {
    let out =
        Command::new(env!("CARGO_BIN_EXE_dilu")).args(args).output().expect("dilu binary runs");
    assert!(
        out.status.success(),
        "dilu {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn progress_is_stderr_only_and_does_not_change_the_report() {
    let scenario = write_scenario("progress-stderr-scenario.toml");
    let (plain_json, progress_json) = (scratch("plain.json"), scratch("progress.json"));
    let plain =
        run_dilu(&["run", scenario.to_str().unwrap(), "--json", plain_json.to_str().unwrap()]);
    let progress = run_dilu(&[
        "run",
        scenario.to_str().unwrap(),
        "--progress",
        "--json",
        progress_json.to_str().unwrap(),
    ]);

    let stderr = String::from_utf8_lossy(&progress.stderr);
    assert!(stderr.contains("[progress]"), "the ticker goes to stderr: {stderr}");
    assert!(stderr.contains("eta"), "the ticker carries a wall-clock ETA: {stderr}");
    let stdout = String::from_utf8_lossy(&progress.stdout);
    assert!(!stdout.contains("[progress]"), "stdout must stay ticker-free: {stdout}");
    assert!(
        !String::from_utf8_lossy(&plain.stderr).contains("[progress]"),
        "progress is off by default"
    );

    // The report table on stdout is identical modulo the wall-clock line
    // and the differing --json paths: slicing the run for progress is
    // pure observability.
    let table = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| !l.starts_with("[simulated in") && !l.starts_with("[json:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        table(&plain.stdout),
        table(&progress.stdout),
        "--progress must not perturb the report"
    );
    let a = std::fs::read(&plain_json).expect("plain digest");
    let b = std::fs::read(&progress_json).expect("progress digest");
    assert!(!a.is_empty());
    assert_eq!(a, b, "--progress must leave the JSON digest untouched");
    assert!(!b.windows(10).any(|w| w == b"[progress]"), "JSON files never see the ticker");
}
