//! Fig. 13 (kernel-issuing traces) and Fig. 14 (total kernel counts).
//!
//! Case 1: low RoBERTa-large inference load (~10 rps) collocated with
//! BERT-base training. Case 2: fluctuating GPT2-large load (Gamma CV = 5)
//! collocated with RoBERTa-large training. Dilu should keep the inference
//! kernel ratio low when load is low (lending SMs to training) while MPS-r
//! pins it high; total kernel counts show Dilu driving the GPU hardest.

use dilu_cluster::{ClusterReport, FunctionId};
use dilu_models::ModelId;
use dilu_rckm::RckmConfig;
use dilu_sim::SimTime;
use dilu_workload::{ArrivalProcess, GammaProcess, PoissonProcess};
use serde::{Deserialize, Serialize};

use super::collocation::{gpu, run_case, GpuSystem, Member};
use crate::funcs;
use crate::table::Table;

const HORIZON_SECS: u64 = 50;

/// A per-second normalised inference-kernel-ratio series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatioSeries {
    /// System label.
    pub system: String,
    /// `(second, inference blocks / total blocks)`.
    pub points: Vec<(u64, f64)>,
}

/// One case of Fig. 13.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Case {
    /// Case name.
    pub name: String,
    /// Ratio traces for Dilu and MPS-r.
    pub series: Vec<RatioSeries>,
}

/// Fig. 13 output (both cases).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig13 {
    /// Case-1 and case-2 traces.
    pub cases: Vec<Case>,
}

/// Fig. 14 output: total kernel blocks per second per configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig14 {
    /// `(label, total blocks over the run)`.
    pub totals: Vec<(String, u64)>,
    /// Per-second series per configuration.
    pub series: Vec<(String, Vec<(u64, u64)>)>,
}

fn case1_arrivals() -> Vec<SimTime> {
    PoissonProcess::new(10.0, 51).generate(SimTime::from_secs(HORIZON_SECS))
}

fn case2_arrivals() -> Vec<SimTime> {
    GammaProcess::new(48.0, 5.0, 53).generate(SimTime::from_secs(HORIZON_SECS))
}

fn run_collocated(
    infer: ModelId,
    train: ModelId,
    arrivals: Vec<SimTime>,
    system: GpuSystem,
) -> ClusterReport {
    let inf = funcs::inference_function(1, infer);
    let job = funcs::training_function(2, train, 1, u64::MAX);
    let members = if matches!(system, GpuSystem::Exclusive) {
        vec![Member::solo(inf, arrivals, gpu(0)), Member::workers(job, &[gpu(1)])]
    } else {
        vec![Member::solo(inf, arrivals, gpu(0)), Member::workers(job, &[gpu(0)])]
    };
    run_case(2, members, system, HORIZON_SECS)
}

fn ratio_series(report: &ClusterReport) -> Vec<(u64, f64)> {
    let inf = report.kernel_series.get(&FunctionId(1)).cloned().unwrap_or_default();
    let train = report.kernel_series.get(&FunctionId(2)).cloned().unwrap_or_default();
    inf.iter()
        .zip(train.iter())
        .map(|(&(sec, i), &(_, t))| {
            let total = i + t;
            (sec, if total == 0 { 0.0 } else { i as f64 / total as f64 })
        })
        .collect()
}

/// Runs Fig. 13: kernel-ratio traces for both cases, Dilu vs MPS-r.
pub fn run() -> Fig13 {
    let dilu = GpuSystem::Dilu(RckmConfig::default());
    let mut cases = Vec::new();
    for (name, infer, train, arrivals) in [
        ("case-1 low load", ModelId::RobertaLarge, ModelId::BertBase, case1_arrivals()),
        ("case-2 fluctuating", ModelId::Gpt2Large, ModelId::RobertaLarge, case2_arrivals()),
    ] {
        let mut series = Vec::new();
        for system in [dilu, GpuSystem::MpsR] {
            let report = run_collocated(infer, train, arrivals.clone(), system);
            series.push(RatioSeries {
                system: system.label().to_string(),
                points: ratio_series(&report),
            });
        }
        cases.push(Case { name: name.to_string(), series });
    }
    Fig13 { cases }
}

/// Runs Fig. 14: total kernel counts for case-1 under Exclusive-train,
/// Exclusive-inference, MPS-r, and Dilu.
pub fn run_fig14() -> Fig14 {
    let mut totals = Vec::new();
    let mut series = Vec::new();
    // Exclusive runs: each task alone on the GPU.
    let excl = run_collocated(
        ModelId::RobertaLarge,
        ModelId::BertBase,
        case1_arrivals(),
        GpuSystem::Exclusive,
    );
    let train_series = excl.kernel_series.get(&FunctionId(2)).cloned().unwrap_or_default();
    let inf_series = excl.kernel_series.get(&FunctionId(1)).cloned().unwrap_or_default();
    totals.push(("Exclusive-train".to_string(), train_series.iter().map(|&(_, b)| b).sum()));
    series.push(("Exclusive-train".to_string(), train_series));
    totals.push(("Exclusive-inf".to_string(), inf_series.iter().map(|&(_, b)| b).sum()));
    series.push(("Exclusive-inf".to_string(), inf_series));
    for system in [GpuSystem::MpsR, GpuSystem::Dilu(RckmConfig::default())] {
        let report =
            run_collocated(ModelId::RobertaLarge, ModelId::BertBase, case1_arrivals(), system);
        totals.push((
            system.label().to_string(),
            report.total_kernel_series.iter().map(|&(_, b)| b).sum(),
        ));
        series.push((system.label().to_string(), report.total_kernel_series.clone()));
    }
    Fig14 { totals, series }
}

impl std::fmt::Display for Fig13 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for case in &self.cases {
            writeln!(f, "{}:", case.name)?;
            let mut t = Table::new(["sec", "Dilu ratio", "MPS-r ratio"]);
            let dilu = &case.series[0].points;
            let mps = &case.series[1].points;
            for (d, m) in dilu.iter().zip(mps.iter()).step_by(5) {
                t.row([d.0.to_string(), format!("{:.3}", d.1), format!("{:.3}", m.1)]);
            }
            writeln!(f, "{t}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Fig14 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut t = Table::new(["configuration", "total kernel blocks"]);
        for (label, total) in &self.totals {
            t.row([label.clone(), total.to_string()]);
        }
        write!(f, "{t}")
    }
}
