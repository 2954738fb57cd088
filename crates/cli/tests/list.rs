//! `dilu list` prints every registry namespace, one line each.

use std::process::Command;

#[test]
fn list_names_every_controller_on_one_line() {
    let out = Command::new(env!("CARGO_BIN_EXE_dilu")).arg("list").output().expect("dilu runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let controllers: Vec<&str> =
        stdout.lines().filter(|line| line.starts_with("controllers:")).collect();
    assert_eq!(
        controllers,
        ["controllers:       co-scale, keep-alive, lazy, null, reactive"],
        "{stdout}"
    );
    assert!(!stdout.contains("autoscaler"), "{stdout}");
    for line in ["placements:", "share policies:", "fuzz oracles:", "models:"] {
        assert!(stdout.lines().any(|l| l.starts_with(line)), "missing `{line}`:\n{stdout}");
    }
}
