//! Incremental re-share micro-benchmark: cost of a NetPlane membership
//! change while k flows share the registry link (a cold-start storm), for
//! k in {8, 64, 512}.
//!
//! Each round departs the earliest-finishing flow and starts a
//! replacement fetch, so every operation re-water-fills the storm's
//! connected component twice at steady-state size k. Results land in
//! `BENCH_reshare.json` at the repository root.

use std::path::PathBuf;
use std::time::Instant;

use dilu_net::{NetPlane, NetworkConfig};
use dilu_sim::{SimDuration, SimTime};

/// Storm sizes exercised (concurrent fetches on the shared registry link).
const STORM_SIZES: [usize; 3] = [8, 64, 512];
/// Membership-change rounds timed per storm (scaled down for the largest
/// storm, where one round departs and restarts dozens of flows at once).
fn rounds_for(k: usize) -> u64 {
    if k >= 512 {
        200
    } else {
        2_000
    }
}
/// Nodes in the two-level topology (destinations round-robin over them).
const NODES: usize = 64;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// splitmix64 for deterministic fetch sizes.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Runs the churn loop for one storm size; returns (wall secs, bytes moved).
fn churn(k: usize, rounds: u64) -> (f64, u64) {
    let quantum = SimDuration::from_millis(5);
    let mut plane: NetPlane<u64> = NetPlane::new(NODES, &NetworkConfig::default(), quantum);
    let mut rng = Mix(0xd11u64 + k as u64);
    // 1–4 GiB fetches: large enough that the storm stays saturated.
    let fetch_bytes = |rng: &mut Mix| (1 + rng.next() % 4) * (1 << 30);
    let mut now = SimTime::ZERO;
    for i in 0..k {
        plane.start_fetch(now, i % NODES, fetch_bytes(&mut rng), i as u64);
    }

    let started = Instant::now();
    let mut tag = k as u64;
    for _ in 0..rounds {
        let next = plane.next_finish().expect("storm is non-empty");
        now = next.max(now);
        let done = plane.take_due(now);
        // Replace every departed flow so the storm holds size k.
        for (_, payload) in done {
            plane.start_fetch(now, (payload as usize) % NODES, fetch_bytes(&mut rng), tag);
            tag += 1;
        }
    }
    let wall = started.elapsed().as_secs_f64();
    (wall, plane.delivered_bytes())
}

fn main() {
    println!("== incremental re-share micro: membership-churn rounds per storm ==");
    let mut rows = Vec::new();
    for &k in &STORM_SIZES {
        let rounds = rounds_for(k);
        let (wall, delivered) = churn(k, rounds);
        let nanos_per_round = wall * 1e9 / rounds as f64;
        println!(
            "k={k:>4}: {wall:.3} s total, {nanos_per_round:>10.0} ns/round \
             ({delivered} bytes delivered)"
        );
        rows.push(serde::Value::Map(vec![
            (s("k"), serde::Value::UInt(k as u64)),
            (s("rounds"), serde::Value::UInt(rounds)),
            (s("wall_secs"), serde::Value::Float(round3(wall))),
            (s("nanos_per_round"), serde::Value::Float(nanos_per_round.round())),
            (s("delivered_bytes"), serde::Value::UInt(delivered)),
        ]));
    }

    let out = repo_root().join("BENCH_reshare.json");
    let value = serde::Value::Map(vec![
        (s("nodes"), serde::Value::UInt(NODES as u64)),
        (s("storms"), serde::Value::Seq(rows)),
    ]);
    dilu_core::table::write_json_at(&out, &value);
    println!("[json: {}]", out.display());
}

fn s(text: &str) -> serde::Value {
    serde::Value::Str(text.to_owned())
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}
