//! CLI error paths: every misconfiguration must exit 1 (an error, not a
//! panic) with an actionable message on stderr — naming the offending value
//! and, where a registry is involved, the accepted alternatives.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir exists");
    dir.join(name)
}

fn write_scenario(name: &str, body: &str) -> PathBuf {
    let path = scratch(name);
    std::fs::write(&path, body).expect("scenario written");
    path
}

fn run_dilu(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dilu")).args(args).output().expect("dilu binary runs")
}

/// Runs `dilu` expecting an error exit (1); returns stderr.
fn expect_failure(args: &[&str]) -> String {
    let out = run_dilu(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(
        out.status.code(),
        Some(1),
        "dilu {args:?} must exit 1\nstdout:\n{}\nstderr:\n{stderr}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(stderr.contains("error:"), "stderr must carry the error banner: {stderr}");
    stderr
}

#[test]
fn malformed_toml_names_the_file_and_fails() {
    let path = write_scenario(
        "malformed.toml",
        "[system\npreset = \"dilu\"\n", // unterminated table header
    );
    let stderr = expect_failure(&["run", path.to_str().unwrap()]);
    assert!(stderr.contains("malformed.toml"), "the failing file must be named: {stderr}");
}

#[test]
fn unknown_placement_name_lists_the_known_ones() {
    let path = write_scenario(
        "unknown-placement.toml",
        r#"
[system.placement]
name = "no-such-placement"

[[functions]]
model = "bert-base"
arrivals = { process = "poisson", rate = 5.0 }
"#,
    );
    let stderr = expect_failure(&["run", path.to_str().unwrap()]);
    assert!(stderr.contains("no-such-placement"), "{stderr}");
    assert!(
        stderr.contains("dilu") && stderr.contains("exclusive"),
        "the known registry names must be listed: {stderr}"
    );
}

#[test]
fn unknown_model_lists_the_zoo() {
    let path = write_scenario(
        "unknown-model.toml",
        r#"
[system]
preset = "dilu"

[[functions]]
model = "bert-gigantic"
arrivals = { process = "poisson", rate = 5.0 }
"#,
    );
    let stderr = expect_failure(&["run", path.to_str().unwrap()]);
    assert!(stderr.contains("bert-gigantic") && stderr.contains("bert-base"), "{stderr}");
}

#[test]
fn autoscaler_table_is_rejected_naming_controller() {
    let path = write_scenario(
        "autoscaler-table.toml",
        r#"
[system]
preset = "dilu"

[system.autoscaler]
name = "lazy"

[[functions]]
model = "bert-base"
arrivals = { process = "poisson", rate = 5.0 }
"#,
    );
    let stderr = expect_failure(&["run", path.to_str().unwrap()]);
    assert!(
        stderr.contains("`autoscaler`") && stderr.contains("controller"),
        "the message must point at the `controller` key: {stderr}"
    );
}

#[test]
fn negative_keep_alive_is_a_config_error() {
    let path = write_scenario(
        "negative-keep-alive.toml",
        r#"
[system]
preset = "dilu"

[system.controller]
name = "keep-alive"
keep_alive_secs = -5.0

[[functions]]
model = "bert-base"
arrivals = { process = "poisson", rate = 5.0 }
"#,
    );
    let stderr = expect_failure(&["run", path.to_str().unwrap()]);
    assert!(stderr.contains("keep_alive_secs") && stderr.contains("-5"), "{stderr}");
}

#[test]
fn missing_scenario_file_is_reported() {
    let stderr = expect_failure(&["run", "/definitely/not/here.toml"]);
    assert!(stderr.contains("not/here.toml"), "{stderr}");
}

#[test]
fn unknown_fuzz_oracle_lists_the_suite() {
    let stderr = expect_failure(&["fuzz", "--cases", "1", "--oracle", "astrology"]);
    assert!(stderr.contains("astrology"), "{stderr}");
    assert!(
        stderr.contains("differential") && stderr.contains("capacity"),
        "the known oracles must be listed: {stderr}"
    );
}

#[test]
fn fuzz_rejects_malformed_flags() {
    let stderr = expect_failure(&["fuzz", "--cases", "lots"]);
    assert!(stderr.contains("lots"), "{stderr}");
    let stderr = expect_failure(&["fuzz", "--frobnicate"]);
    assert!(stderr.contains("frobnicate"), "{stderr}");
}

/// Writes a one-function scenario with `extra` appended: more keys for the
/// function, or a new section.
fn one_function_scenario(name: &str, extra: &str) -> String {
    let body = format!(
        "[system]\npreset = \"dilu\"\n\n[[functions]]\nmodel = \"bert-base\"\n\
         arrivals = {{ process = \"poisson\", rate = 5.0 }}\n{extra}\n"
    );
    write_scenario(name, &body).to_str().unwrap().to_owned()
}

#[test]
fn quantum_is_not_a_sim_key() {
    // The GPU quantum is a constant, so `[sim]` has no key for it.
    let path = one_function_scenario("quantum-key.toml", "\n[sim]\nquantum_ms = 5.0");
    let stderr = expect_failure(&["run", &path]);
    assert!(stderr.contains("unknown key `quantum_ms`"), "{stderr}");
}

#[test]
fn overflowing_cluster_and_run_integers_are_config_errors() {
    for (section, key) in [
        // 2^34 GiB is 2^64 bytes.
        ("[cluster]\ngpu_mem_gb = 17179869184", "`gpu_mem_gb`"),
        // 2^16 × 2^16 GPUs is 2^32.
        ("[cluster]\nnodes = 65536\ngpus_per_node = 65536", "`gpus_per_node`"),
        // The horizon fits in microseconds; horizon + the 5 s drain does not.
        ("[run]\nhorizon_secs = 18446744073709", "`horizon_secs`"),
        ("[run]\nhorizon_secs = 18446744073709551615", "`horizon_secs`"),
    ] {
        let path = one_function_scenario("overflow.toml", &format!("\n{section}"));
        let stderr = expect_failure(&["run", &path]);
        assert!(stderr.contains(key) && stderr.contains("overflows"), "{section}: {stderr}");
    }
}

#[test]
fn invalid_quota_overrides_are_config_errors() {
    for (keys, key) in [
        ("request_pct = -5.0", "`request_pct`"),
        ("limit_pct = -1.0", "`limit_pct`"),
        ("request_pct = 1e309", "`request_pct`"),
        ("limit_pct = 100.5", "`limit_pct`"),
        ("request_pct = 50.0\nlimit_pct = 10.0", "`limit_pct` (10) must not be below"),
    ] {
        let path = one_function_scenario("bad-quota.toml", keys);
        let stderr = expect_failure(&["run", &path]);
        assert!(stderr.contains(key) && stderr.contains("function 1"), "{keys}: {stderr}");
    }
}
