//! Table 3: horizontal-scaling performance — cold start counts (CSC), SLO
//! violation rate (SVR) and saved GPU time (SGT) per trace, for FaST-GS+,
//! INFless+ and Dilu.

use dilu_models::ModelId;
use dilu_sim::{SimDuration, SimTime};
use dilu_workload::{RateTrace, TraceKind, TraceProcess};
use serde::{Deserialize, Serialize};

use crate::funcs;
use crate::table::Table;
use crate::{build_sim, SystemKind};

const HORIZON_SECS: u64 = 600;

/// One (trace, system) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// Trace name.
    pub trace: String,
    /// System label.
    pub system: String,
    /// Cold start count.
    pub csc: u64,
    /// SLO violation rate.
    pub svr: f64,
    /// GPU time consumed over the run.
    pub gpu_seconds: f64,
    /// GPU time this system wastes relative to Dilu on the same trace
    /// (the paper's SGT column; 0 for Dilu itself).
    pub sgt_seconds: f64,
}

/// All Table 3 measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Tab03 {
    /// One row per (trace, system).
    pub rows: Vec<Row>,
}

fn run_one(kind: SystemKind, trace_kind: TraceKind) -> (u64, f64, f64) {
    let (base, scale) = match trace_kind {
        TraceKind::Bursty => (20.0, 5.0),
        TraceKind::Periodic => (25.0, 2.5),
        TraceKind::Sporadic => (10.0, 1.0),
    };
    let trace =
        RateTrace::synthesize(trace_kind, base, scale, SimDuration::from_secs(HORIZON_SECS), 91);
    let arrivals = Box::new(TraceProcess::new(trace, 91));
    let mut sim = build_sim(kind, dilu_cluster::ClusterSpec::single_node(8));
    let spec = funcs::inference_function(1, ModelId::RobertaLarge);
    sim.deploy_inference(spec, 1, arrivals, SimTime::from_secs(HORIZON_SECS))
        .expect("deploys on an empty cluster");
    // Background training occupies GPUs so scaling decisions have
    // collocation consequences.
    sim.deploy_training(funcs::training_function(2, ModelId::BertBase, 2, u64::MAX))
        .expect("training deploys");
    sim.run_until(SimTime::from_secs(HORIZON_SECS + 20));
    let report = sim.into_report();
    let f = report.inference.values().next().expect("inference function");
    (f.cold_starts.count(), f.svr(), report.instance_gpu_time.as_secs_f64())
}

/// Runs the full Table 3 matrix.
pub fn run() -> Tab03 {
    let systems = [SystemKind::FastGsPlus, SystemKind::InflessPlusL, SystemKind::Dilu];
    let mut rows = Vec::new();
    for trace_kind in TraceKind::ALL {
        let results: Vec<(SystemKind, u64, f64, f64)> = systems
            .iter()
            .map(|&k| {
                let (csc, svr, gpu) = run_one(k, trace_kind);
                (k, csc, svr, gpu)
            })
            .collect();
        let dilu_gpu_time = results
            .iter()
            .find(|(k, ..)| *k == SystemKind::Dilu)
            .map(|&(_, _, _, g)| g)
            .unwrap_or(0.0);
        for (kind, csc, svr, gpu) in results {
            rows.push(Row {
                trace: trace_kind.name().to_string(),
                system: kind.label().to_string(),
                csc,
                svr,
                gpu_seconds: gpu,
                sgt_seconds: (gpu - dilu_gpu_time).max(0.0),
            });
        }
    }
    Tab03 { rows }
}

impl Tab03 {
    /// The row for (trace, system), if present.
    pub fn row(&self, trace: &str, system: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.trace == trace && r.system == system)
    }
}

impl std::fmt::Display for Tab03 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["trace", "system", "CSC", "SVR", "SGT"]);
        for r in &self.rows {
            t.row([
                r.trace.clone(),
                r.system.clone(),
                r.csc.to_string(),
                format!("{:.2}%", r.svr * 100.0),
                if r.system == "Dilu" { "-".to_string() } else { format!("{:.1}s", r.sgt_seconds) },
            ]);
        }
        write!(f, "{t}")
    }
}
