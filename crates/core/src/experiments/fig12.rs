//! Fig. 12: trace analysis of co-scaling — offered load, instance count and
//! per-second SLO violations under a bursty workload on the full Dilu stack.

use dilu_models::ModelId;
use dilu_sim::{SimDuration, SimTime};
use dilu_workload::{RateTrace, TraceKind, TraceProcess};
use serde::{Deserialize, Serialize};

use crate::funcs;
use crate::table::Table;
use crate::{build_sim, SystemKind};

const HORIZON_SECS: u64 = 400;

/// One timeline sample.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Point {
    /// Second since start.
    pub sec: u64,
    /// Offered requests in the second.
    pub rps: u64,
    /// Ready instances at the end of the second.
    pub instances: u32,
    /// Violation rate within the second.
    pub svr: f64,
}

/// The co-scaling timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig12 {
    /// Per-second samples.
    pub points: Vec<Point>,
    /// Overall SLO violation rate.
    pub total_svr: f64,
    /// Cold starts over the run.
    pub cold_starts: u64,
}

/// Runs the bursty-trace co-scaling analysis on full Dilu.
pub fn run() -> Fig12 {
    let trace = RateTrace::synthesize(
        TraceKind::Bursty,
        20.0,
        5.0,
        SimDuration::from_secs(HORIZON_SECS),
        81,
    );
    let arrivals = Box::new(TraceProcess::new(trace, 81));
    let mut sim = build_sim(SystemKind::Dilu, dilu_cluster::ClusterSpec::single_node(8));
    let spec = funcs::inference_function(1, ModelId::RobertaLarge);
    sim.deploy_inference(spec, 1, arrivals, SimTime::from_secs(HORIZON_SECS))
        .expect("deploys on an empty cluster");
    // A collocated training function keeps the GPUs contended, as in §5.3.
    sim.deploy_training(funcs::training_function(2, ModelId::BertBase, 2, u64::MAX))
        .expect("training deploys");
    sim.run_until(SimTime::from_secs(HORIZON_SECS + 10));
    let report = sim.into_report();
    let f = report.inference.values().next().expect("inference function");
    let points = f
        .timeline
        .iter()
        .map(|p| Point {
            sec: p.sec,
            rps: p.arrivals,
            instances: p.ready_instances,
            svr: if p.completions == 0 { 0.0 } else { p.violations as f64 / p.completions as f64 },
        })
        .collect();
    Fig12 { points, total_svr: f.svr(), cold_starts: f.cold_starts.count() }
}

impl std::fmt::Display for Fig12 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["sec", "rps", "instances", "SVR/s"]);
        for p in self.points.iter().step_by(20) {
            t.row([
                p.sec.to_string(),
                p.rps.to_string(),
                p.instances.to_string(),
                format!("{:.1}%", p.svr * 100.0),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "overall SVR {:.2}%  cold starts {}", self.total_svr * 100.0, self.cold_starts)
    }
}
