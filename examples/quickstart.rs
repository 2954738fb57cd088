//! Quickstart: deploy one inference function on a Dilu-managed node and
//! inspect the serving report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dilu::cluster::ClusterSpec;
use dilu::core::{build_sim, funcs, SystemKind};
use dilu::models::ModelId;
use dilu::sim::SimTime;
use dilu::workload::PoissonProcess;

fn main() {
    // A single node with two A100-40GB-class GPUs running the full Dilu
    // stack: Algorithm-1 scheduling, lazy scaling, RCKM token control.
    let mut sim = build_sim(SystemKind::Dilu, ClusterSpec::single_node(2));

    // The control plane profiles RoBERTa-large once (Hybrid Growth Search)
    // and derives its <request, limit> quotas and batch size.
    let function = funcs::inference_function(1, ModelId::RobertaLarge);
    if let dilu::cluster::FunctionKind::Inference { batch, slo } = function.kind {
        println!(
            "profiled {}: IBS={batch} SLO={slo} request={} limit={}",
            function.name, function.quotas.request, function.quotas.limit
        );
    }

    // 60 seconds of Poisson traffic at 25 requests per second.
    let arrivals = Box::new(PoissonProcess::new(25.0, 42));
    sim.deploy_inference(function, 1, arrivals, SimTime::from_secs(60))
        .expect("empty cluster has room");

    // A collocated BERT fine-tuning job soaks up the leftover SMs.
    let training = funcs::training_function(2, ModelId::BertBase, 1, u64::MAX);
    sim.deploy_training(training).expect("empty cluster has room");

    sim.run_until(SimTime::from_secs(65));
    let report = sim.into_report();

    let f = report.inference.values().next().expect("function deployed");
    println!("\nserved {} of {} requests", f.completed, f.arrived);
    println!("p50 {}  p95 {}  SVR {:.2}%", f.latency.p50(), f.latency.p95(), f.svr() * 100.0);
    let t = report.training.values().next().expect("job deployed");
    println!("collocated training: {:.0} {} on the same GPU", t.throughput(report.horizon), t.unit);
    println!(
        "GPUs occupied: {} peak, SM fragmentation {:.1}%",
        report.peak_gpus,
        report.fragmentation.mean_sm_fragmentation() * 100.0
    );
}
