//! Fig. 15 (end-to-end scheduling + ablations) and Fig. 16 (aggregate
//! throughput): 4 training functions submitted over time plus 4 inference
//! functions with mixed workloads on the 20-GPU testbed.

use dilu_cluster::{ClusterReport, ClusterSpec, FunctionId};
use dilu_models::ModelId;
use dilu_sim::{SimDuration, SimTime};
use dilu_workload::{ArrivalProcess, PoissonProcess, RateTrace, TraceKind, TraceProcess};
use serde::{Deserialize, Serialize};

use crate::funcs;
use crate::table::Table;
use crate::{build_sim, SystemKind};

const HORIZON_SECS: u64 = 600;

/// One system's end-to-end outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Row {
    /// System label.
    pub system: String,
    /// Mean SVR across inference functions.
    pub mean_svr: f64,
    /// Worst per-function SVR.
    pub max_svr: f64,
    /// Mean training JCT normalised to Exclusive (finished jobs only).
    pub norm_jct: f64,
    /// Peak GPUs occupied.
    pub max_gpus: u32,
    /// Inference goodput (completed req/s) per occupied GPU.
    pub inf_goodput_per_gpu: f64,
    /// Training throughput (samples/s) per occupied GPU.
    pub train_throughput_per_gpu: f64,
}

/// The full end-to-end comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig15 {
    /// One row per system, END_TO_END order.
    pub rows: Vec<Row>,
}

fn deploy_workload(sim: &mut dilu_cluster::ClusterSim, kind: SystemKind) {
    // Four training functions submitted at different times (§5.4): two
    // 2-worker and two 4-worker jobs sized to finish within the run.
    let trainings = [
        (10, ModelId::BertBase, 2, 2_000u64, 0u64),
        (11, ModelId::ResNet152, 2, 1_800, 60),
        (12, ModelId::Gpt2Large, 4, 700, 120),
        (13, ModelId::RobertaLarge, 4, 1_200, 180),
    ];
    for (id, model, workers, iters, at) in trainings {
        let spec = funcs::training_function(id, model, workers, iters);
        if at == 0 {
            sim.deploy_training(spec).expect("cluster has room at t=0");
        } else {
            sim.schedule_training(spec, SimTime::from_secs(at)).expect("valid training spec");
        }
    }
    // Three mixed-workload inference functions plus an LLM.
    let bursty = RateTrace::synthesize(
        TraceKind::Bursty,
        30.0,
        4.0,
        SimDuration::from_secs(HORIZON_SECS),
        101,
    );
    let periodic = RateTrace::synthesize(
        TraceKind::Periodic,
        40.0,
        2.0,
        SimDuration::from_secs(HORIZON_SECS),
        103,
    );
    let horizon = SimTime::from_secs(HORIZON_SECS);
    let specs: [(u32, ModelId, Box<dyn ArrivalProcess>); 3] = [
        (1, ModelId::RobertaLarge, Box::new(TraceProcess::new(bursty, 101))),
        (2, ModelId::ResNet152, Box::new(TraceProcess::new(periodic, 103))),
        (3, ModelId::BertBase, Box::new(PoissonProcess::new(50.0, 107))),
    ];
    for (id, model, arrivals) in specs {
        sim.deploy_inference(funcs::inference_function(id, model), 1, arrivals, horizon)
            .expect("cluster has room at t=0");
    }
    let llm = if kind.distributes_llms() {
        funcs::llm_inference_function(4, ModelId::Llama2_7b, 4)
    } else {
        funcs::inference_function(4, ModelId::Llama2_7b)
    };
    let llm_arrivals = Box::new(PoissonProcess::new(2.0, 109));
    sim.deploy_inference(llm, 1, llm_arrivals, horizon).expect("cluster has room at t=0");
}

fn collect(report: &ClusterReport) -> (f64, f64, Vec<(FunctionId, f64)>, u32, f64, f64) {
    let svrs: Vec<f64> = report.inference.values().map(|f| f.svr()).collect();
    let mean_svr = svrs.iter().sum::<f64>() / svrs.len().max(1) as f64;
    let max_svr = svrs.iter().copied().fold(0.0, f64::max);
    let jcts: Vec<(FunctionId, f64)> = report
        .training
        .iter()
        .filter_map(|(&id, t)| t.jct().map(|j| (id, j.as_secs_f64())))
        .collect();
    let mean_gpus = report.mean_occupied_gpus().max(1e-9);
    let train_rate: f64 = report.training.values().map(|t| t.throughput(report.horizon)).sum();
    (
        mean_svr,
        max_svr,
        jcts,
        report.peak_gpus,
        report.inference_goodput_per_gpu(),
        train_rate / mean_gpus,
    )
}

/// The memoised end-to-end run — Fig. 15 and Fig. 16 both derive from the
/// same (deterministic) result, so one process never pays for it twice.
pub fn run_cached() -> &'static Fig15 {
    static CACHE: std::sync::OnceLock<Fig15> = std::sync::OnceLock::new();
    CACHE.get_or_init(run)
}

/// Runs the end-to-end study over all systems and ablations.
pub fn run() -> Fig15 {
    let mut rows = Vec::new();
    let mut exclusive_jcts: Vec<(FunctionId, f64)> = Vec::new();
    for kind in SystemKind::END_TO_END {
        let mut sim = build_sim(kind, ClusterSpec::paper_testbed());
        deploy_workload(&mut sim, kind);
        sim.run_until(SimTime::from_secs(HORIZON_SECS + 30));
        let report = sim.into_report();
        let (mean_svr, max_svr, jcts, max_gpus, inf_good, train_good) = collect(&report);
        if kind == SystemKind::Exclusive {
            exclusive_jcts = jcts.clone();
        }
        let norm: Vec<f64> = jcts
            .iter()
            .filter_map(|(id, j)| {
                exclusive_jcts.iter().find(|(eid, _)| eid == id).map(|(_, e)| {
                    if *e > 0.0 {
                        j / e
                    } else {
                        1.0
                    }
                })
            })
            .collect();
        let norm_jct =
            if norm.is_empty() { 0.0 } else { norm.iter().sum::<f64>() / norm.len() as f64 };
        rows.push(Row {
            system: kind.label().to_string(),
            mean_svr,
            max_svr,
            norm_jct,
            max_gpus,
            inf_goodput_per_gpu: inf_good,
            train_throughput_per_gpu: train_good,
        });
    }
    Fig15 { rows }
}

impl Fig15 {
    /// The row of `system`, if present.
    pub fn row(&self, system: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.system == system)
    }
}

impl std::fmt::Display for Fig15 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new([
            "system",
            "mean SVR",
            "max SVR",
            "norm JCT",
            "max GPUs",
            "inf rps/GPU",
            "train samples/s/GPU",
        ]);
        for r in &self.rows {
            t.row([
                r.system.clone(),
                format!("{:.2}%", r.mean_svr * 100.0),
                format!("{:.2}%", r.max_svr * 100.0),
                format!("{:.2}", r.norm_jct),
                r.max_gpus.to_string(),
                format!("{:.2}", r.inf_goodput_per_gpu),
                format!("{:.0}", r.train_throughput_per_gpu),
            ]);
        }
        write!(f, "{t}")
    }
}
