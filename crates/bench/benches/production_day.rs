//! Production-day macro bench: runs
//! `examples/scenarios/production-day.toml` (10,000 functions, one
//! simulated day, ≥10 million requests) through the streaming arrival
//! plane and records wall time plus peak RSS in
//! `BENCH_production_day.json` at the repository root so future PRs
//! track the macro-tier trajectory.
//!
//! Peak RSS is `VmHWM` from `/proc/self/status` — the process-wide
//! high-water mark of the one run.

mod common;

use std::path::PathBuf;
use std::time::Instant;

use common::peak_rss_bytes;
use dilu_core::{Registry, ScenarioConfig};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn main() {
    let path = repo_root().join("examples/scenarios/production-day.toml");
    let config = ScenarioConfig::load(&path).expect("shipped scenario parses");
    let functions = config.fleet.as_ref().map_or(0, |f| f.functions);
    let horizon_secs =
        config.run.as_ref().and_then(|r| r.horizon_secs).expect("run section with horizon");
    assert!(functions >= 10_000, "production day means a 10k-function fleet, got {functions}");
    assert!(horizon_secs >= 86_400, "production day means a full simulated day");
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u32);

    println!(
        "== production-day: {functions} functions, {horizon_secs} s simulated \
         ({hardware_threads} hardware threads) =="
    );

    let registry = Registry::with_defaults();
    let scenario = config
        .into_builder(&registry)
        .and_then(|b| b.build())
        .expect("production-day scenario composes");
    #[allow(clippy::disallowed_methods, reason = "this bench measures wall time")]
    let started = Instant::now();
    let report = scenario.run().expect("production-day scenario runs");
    let wall_secs = started.elapsed().as_secs_f64();
    let peak_rss = peak_rss_bytes();
    let requests: u64 = report.inference.values().map(|f| f.arrived).sum();
    println!("{wall_secs:.1} s wall, peak RSS {} MiB, {requests} requests", peak_rss >> 20);
    assert!(requests >= 10_000_000, "production day means at least 10M requests, got {requests}");

    let out = repo_root().join("BENCH_production_day.json");
    let value = serde::Value::Map(vec![
        (s("scenario"), s("examples/scenarios/production-day.toml")),
        (s("functions"), serde::Value::UInt(u64::from(functions))),
        (s("simulated_secs"), serde::Value::UInt(horizon_secs)),
        (s("requests_served"), serde::Value::UInt(requests)),
        (s("streamed_wall_secs"), serde::Value::Float(round2(wall_secs))),
        (s("streamed_peak_rss_bytes"), serde::Value::UInt(peak_rss)),
        (s("hardware_threads"), serde::Value::UInt(u64::from(hardware_threads))),
        (s("peak_gpus"), serde::Value::UInt(u64::from(report.peak_gpus))),
        (s("mean_svr"), serde::Value::Float(round2(report.mean_svr() * 100.0))),
    ]);
    dilu_core::table::write_json_at(&out, &value);
    println!("[json: {}]", out.display());

    // Acceptance: a production day fits comfortably in commodity memory.
    // The latency samples alone are ~10M × 8 B; the bound leaves room for
    // the serving plane while still catching any O(total requests)
    // regression in arrival handling (a materialized-schedule leak shows
    // up as hundreds of extra MiB here).
    if peak_rss > 0 {
        assert!(
            peak_rss < 4 << 30,
            "production day peaked at {peak_rss} bytes of RSS \
             (acceptance bound: 4 GiB)"
        );
    }
}

fn s(text: &str) -> serde::Value {
    serde::Value::Str(text.to_owned())
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}
