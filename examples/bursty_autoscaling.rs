//! Bursty-workload autoscaling: the same Azure-style bursty trace served by
//! Dilu's 2D co-scaling (fast vertical + lazy horizontal) and by the eager
//! FaST-GS+ baseline — compare cold starts and SLO violations.
//!
//! ```sh
//! cargo run --release --example bursty_autoscaling
//! ```

use dilu::cluster::ClusterSpec;
use dilu::core::{build_sim, funcs, SystemKind};
use dilu::models::ModelId;
use dilu::sim::{SimDuration, SimTime};
use dilu::workload::{RateTrace, TraceKind, TraceProcess};

const HORIZON: u64 = 300;

fn main() {
    // Base 20 rps bursting ~5x: peaks sit inside the vertical-scaling
    // headroom of a single instance (request -> limit), the regime the
    // paper's lazy scale-out targets.
    let trace =
        RateTrace::synthesize(TraceKind::Bursty, 20.0, 5.0, SimDuration::from_secs(HORIZON), 91);
    println!("bursty trace: base 20 rps, bursts to ~{:.0} rps, {}s\n", trace.peak(), HORIZON);
    println!(
        "{:<12} {:>11} {:>8} {:>10} {:>12}",
        "system", "cold starts", "SVR", "p95 (ms)", "GPU-seconds"
    );
    for kind in [SystemKind::Dilu, SystemKind::FastGsPlus, SystemKind::InflessPlusL] {
        let arrivals = Box::new(TraceProcess::new(trace.clone(), 91));
        let mut sim = build_sim(kind, ClusterSpec::single_node(8));
        let function = funcs::inference_function(1, ModelId::RobertaLarge);
        sim.deploy_inference(function, 1, arrivals, SimTime::from_secs(HORIZON))
            .expect("empty cluster has room");
        sim.deploy_training(funcs::training_function(2, ModelId::BertBase, 2, u64::MAX))
            .expect("empty cluster has room");
        sim.run_until(SimTime::from_secs(HORIZON + 20));
        let report = sim.into_report();
        let f = report.inference.values().next().expect("function deployed");
        println!(
            "{:<12} {:>11} {:>7.1}% {:>10.1} {:>12.0}",
            kind.label(),
            f.cold_starts.count(),
            f.svr() * 100.0,
            f.latency.p95().as_millis_f64(),
            report.gpu_time.as_secs_f64(),
        );
    }
    println!("\nDilu absorbs the bursts entirely with RCKM vertical scale-up (zero");
    println!("cold starts), trading a few percent of tail latency for it; the");
    println!("reactive baselines launch and reap instances on every spike.");
}
