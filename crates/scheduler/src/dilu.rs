//! Algorithm 1: heuristic GPU scheduling.

use dilu_cluster::{ClusterView, FunctionId, FunctionSpec, GpuAddr, GpuView, Placement};
use serde::{Deserialize, Serialize};

/// Tunables of Algorithm 1 (paper defaults in parentheses).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchedulerConfig {
    /// Ω: maximum Σ`request` per GPU (1.0).
    pub omega: f64,
    /// γ: maximum Σ`limit` per GPU (1.5).
    pub gamma: f64,
    /// α: weight of the SM term in the fragmentation score (0.5).
    pub alpha: f64,
    /// β: weight of the memory term in the fragmentation score (0.5).
    pub beta: f64,
    /// Principle-1 toggle; `false` reproduces the paper's −WA ablation.
    pub workload_affinity: bool,
    /// Principle-2 toggle; `false` reproduces the −RC ablation (first-fit
    /// instead of complementarity scoring).
    pub resource_complementary: bool,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            omega: 1.0,
            gamma: 1.5,
            alpha: 0.5,
            beta: 0.5,
            workload_affinity: true,
            resource_complementary: true,
        }
    }
}

/// Dilu's resourcing-complementary placement policy.
///
/// # Examples
///
/// ```
/// use dilu_scheduler::{DiluScheduler, SchedulerConfig};
/// use dilu_cluster::Placement;
///
/// let sched = DiluScheduler::new(SchedulerConfig::default());
/// assert_eq!(sched.name(), "dilu-scheduler");
/// ```
#[derive(Debug, Clone)]
pub struct DiluScheduler {
    config: SchedulerConfig,
}

impl DiluScheduler {
    /// Creates a scheduler with the given tunables.
    pub fn new(config: SchedulerConfig) -> Self {
        DiluScheduler { config }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// Whether `func` fits on `gpu` under the Ω/γ/memory constraints.
    fn feasible(&self, gpu: &GpuView, func: &FunctionSpec) -> bool {
        let new_req = gpu.sum_requests().as_fraction() + func.quotas.request.as_fraction();
        let new_lim = gpu.sum_limits().as_fraction() + func.quotas.limit.as_fraction();
        let new_mem = gpu.mem_reserved + func.quotas.mem_bytes;
        new_req <= self.config.omega + 1e-9
            && new_lim <= self.config.gamma + 1e-9
            && new_mem <= gpu.mem_capacity
    }

    /// The weighted fragmentation score after placing `func` on `gpu`
    /// (Algorithm 1 line 25); lower is better (best fit).
    fn score(&self, gpu: &GpuView, func: &FunctionSpec) -> f64 {
        let new_req = gpu.sum_requests().as_fraction() + func.quotas.request.as_fraction();
        let new_mem = (gpu.mem_reserved + func.quotas.mem_bytes) as f64;
        self.config.alpha * (1.0 - new_req.min(1.0))
            + self.config.beta * (1.0 - new_mem / gpu.mem_capacity as f64)
    }

    /// `SelectOptGPU` over `candidates` (Algorithm 1 lines 19–29), excluding
    /// already-chosen GPUs of this placement. Every pick breaks ties by
    /// address, so the candidates' order never matters.
    fn select_opt<'a>(
        &self,
        candidates: impl Iterator<Item = &'a GpuView>,
        func: &FunctionSpec,
        exclude: &[GpuAddr],
        multi_gpu: bool,
    ) -> Option<GpuAddr> {
        let feasible = candidates.filter(|g| !exclude.contains(&g.addr) && self.feasible(g, func));
        if multi_gpu {
            // Memory-based worst fit: most remaining memory first, to keep
            // pipeline stages few and fat (Principle-2 for LLMs).
            feasible.max_by_key(|g| (g.mem_free(), std::cmp::Reverse(g.addr))).map(|g| g.addr)
        } else if self.config.resource_complementary {
            feasible
                .min_by(|a, b| {
                    self.score(a, func)
                        .total_cmp(&self.score(b, func))
                        .then_with(|| a.addr.cmp(&b.addr))
                })
                .map(|g| g.addr)
        } else {
            // −RC ablation: plain first fit.
            feasible.min_by_key(|g| g.addr).map(|g| g.addr)
        }
    }

    /// Functions already sharing a GPU with `func` anywhere in the cluster,
    /// sorted and deduplicated.
    fn partners(cluster: &ClusterView, func: FunctionId) -> Vec<FunctionId> {
        let mut partners = Vec::new();
        for gpu in cluster.gpus.iter().filter(|g| g.hosts_function(func)) {
            partners.extend(gpu.residents.iter().map(|r| r.func).filter(|&f| f != func));
        }
        partners.sort_unstable();
        partners.dedup();
        partners
    }
}

impl Placement for DiluScheduler {
    fn place(&mut self, func: &FunctionSpec, cluster: &ClusterView) -> Option<Vec<GpuAddr>> {
        let partners = if self.config.workload_affinity {
            Self::partners(cluster, func.id)
        } else {
            Vec::new()
        };
        let hosts_partner =
            |g: &GpuView| g.residents.iter().any(|r| partners.binary_search(&r.func).is_ok());
        let multi_gpu = func.gpus_per_instance > 1;
        // The GPUs picked so far, one per stage; also the exclusion list.
        let mut result = Vec::with_capacity(func.gpus_per_instance as usize);

        for _ in 0..func.gpus_per_instance {
            let active = cluster.gpus.iter().filter(|g| g.occupied());
            // Workload-affinity candidates: active GPUs hosting a partner
            // function (Algorithm 1 lines 11-12).
            let pick = self
                .select_opt(active.clone().filter(|g| hosts_partner(g)), func, &result, multi_gpu)
                .or_else(|| {
                    self.select_opt(active.filter(|g| !hosts_partner(g)), func, &result, multi_gpu)
                })
                .or_else(|| {
                    // No active GPU works: start a new GPU instance
                    // (Algorithm 1 lines 15-16).
                    cluster
                        .gpus
                        .iter()
                        .filter(|g| !g.occupied() && !result.contains(&g.addr))
                        .find(|g| self.feasible(g, func))
                        .map(|g| g.addr)
                })?;
            result.push(pick);
        }
        Some(result)
    }

    fn name(&self) -> &str {
        "dilu-scheduler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_cluster::{FunctionKind, Quotas, ResidentInfo};
    use dilu_gpu::{SmRate, TaskClass, GB};
    use dilu_models::ModelId;
    use dilu_sim::SimDuration;
    use std::collections::BTreeSet;

    fn func(id: u32, request: f64, limit: f64, mem_gb: u64, gpus: u32) -> FunctionSpec {
        FunctionSpec {
            id: FunctionId(id),
            name: format!("f{id}"),
            model: ModelId::RobertaLarge,
            kind: FunctionKind::Inference { slo: SimDuration::from_millis(100), batch: 4 },
            quotas: Quotas::new(
                SmRate::from_percent(request),
                SmRate::from_percent(limit),
                mem_gb * GB,
            ),
            gpus_per_instance: gpus,
        }
    }

    fn gpu(node: u32, idx: u32, residents: Vec<(u32, f64, f64, u64)>) -> GpuView {
        GpuView {
            addr: GpuAddr { node, gpu: idx },
            mem_capacity: 40 * GB,
            mem_reserved: residents.iter().map(|r| r.3 * GB).sum(),
            residents: residents
                .into_iter()
                .map(|(f, req, lim, mem)| ResidentInfo {
                    func: FunctionId(f),
                    class: TaskClass::SloSensitive,
                    request: SmRate::from_percent(req),
                    limit: SmRate::from_percent(lim),
                    mem_bytes: mem * GB,
                })
                .collect(),
        }
    }

    #[test]
    fn prefers_best_fit_fragment() {
        // GPU 0 is fuller; best fit should choose it over the emptier GPU 1.
        let cluster = ClusterView {
            gpus: vec![
                gpu(0, 0, vec![(1, 50.0, 80.0, 20)]),
                gpu(0, 1, vec![(2, 10.0, 20.0, 4)]),
                gpu(0, 2, vec![]),
            ],
        };
        let mut s = DiluScheduler::new(SchedulerConfig::default());
        let placed = s.place(&func(3, 30.0, 60.0, 8, 1), &cluster).unwrap();
        assert_eq!(placed, vec![GpuAddr { node: 0, gpu: 0 }]);
    }

    #[test]
    fn omega_cap_rejects_oversubscribed_requests() {
        let cluster =
            ClusterView { gpus: vec![gpu(0, 0, vec![(1, 80.0, 100.0, 10)]), gpu(0, 1, vec![])] };
        let mut s = DiluScheduler::new(SchedulerConfig::default());
        // 80 + 30 > Ω=100? 110 > 100 → must go to the idle GPU.
        let placed = s.place(&func(2, 30.0, 40.0, 4, 1), &cluster).unwrap();
        assert_eq!(placed, vec![GpuAddr { node: 0, gpu: 1 }]);
    }

    #[test]
    fn gamma_cap_limits_sum_of_limits() {
        let cluster =
            ClusterView { gpus: vec![gpu(0, 0, vec![(1, 40.0, 100.0, 10)]), gpu(0, 1, vec![])] };
        let mut s = DiluScheduler::new(SchedulerConfig::default());
        // Σlimit would be 100 + 60 = 160 > γ=150 → next GPU.
        let placed = s.place(&func(2, 30.0, 60.0, 4, 1), &cluster).unwrap();
        assert_eq!(placed, vec![GpuAddr { node: 0, gpu: 1 }]);
    }

    #[test]
    fn memory_capacity_is_hard() {
        let cluster = ClusterView { gpus: vec![gpu(0, 0, vec![(1, 10.0, 20.0, 38)])] };
        let mut s = DiluScheduler::new(SchedulerConfig::default());
        assert!(s.place(&func(2, 10.0, 20.0, 4, 1), &cluster).is_none());
    }

    #[test]
    fn affinity_prefers_partner_gpus() {
        // func 3 already shares GPU 0 with func 1. A new instance of func 3
        // should prefer the GPU hosting its partner (func 1) over a fuller,
        // better-scoring GPU hosting strangers.
        let cluster = ClusterView {
            gpus: vec![
                gpu(0, 0, vec![(1, 20.0, 40.0, 6), (3, 20.0, 40.0, 6)]),
                gpu(0, 1, vec![(1, 20.0, 40.0, 6)]),
                gpu(0, 2, vec![(2, 60.0, 90.0, 30)]),
            ],
        };
        let mut with_wa = DiluScheduler::new(SchedulerConfig::default());
        let placed = with_wa.place(&func(3, 20.0, 40.0, 6, 1), &cluster).unwrap();
        assert_eq!(placed, vec![GpuAddr { node: 0, gpu: 0 }], "partner GPU 0 or 1 expected");

        let mut without_wa = DiluScheduler::new(SchedulerConfig {
            workload_affinity: false,
            ..SchedulerConfig::default()
        });
        let placed = without_wa.place(&func(3, 20.0, 40.0, 6, 1), &cluster).unwrap();
        assert_eq!(placed, vec![GpuAddr { node: 0, gpu: 2 }], "best fit ignores partners");
    }

    #[test]
    fn multi_gpu_llm_uses_memory_worst_fit_on_distinct_gpus() {
        let cluster = ClusterView {
            gpus: vec![
                gpu(0, 0, vec![(1, 20.0, 40.0, 30)]),
                gpu(0, 1, vec![(2, 20.0, 40.0, 10)]),
                gpu(0, 2, vec![(4, 20.0, 40.0, 5)]),
                gpu(0, 3, vec![(5, 20.0, 40.0, 20)]),
            ],
        };
        let mut s = DiluScheduler::new(SchedulerConfig {
            workload_affinity: false,
            ..SchedulerConfig::default()
        });
        let placed = s.place(&func(9, 15.0, 30.0, 4, 3), &cluster).unwrap();
        assert_eq!(placed.len(), 3);
        let unique: BTreeSet<_> = placed.iter().collect();
        assert_eq!(unique.len(), 3, "stages must land on distinct GPUs");
        // Worst fit: most free memory first → g2 (35 free), then g1 (30).
        assert_eq!(placed[0], GpuAddr { node: 0, gpu: 2 });
        assert_eq!(placed[1], GpuAddr { node: 0, gpu: 1 });
    }

    #[test]
    fn opens_new_gpu_only_when_needed() {
        let cluster =
            ClusterView { gpus: vec![gpu(0, 0, vec![(1, 90.0, 100.0, 35)]), gpu(0, 1, vec![])] };
        let mut s = DiluScheduler::new(SchedulerConfig::default());
        let placed = s.place(&func(2, 30.0, 50.0, 8, 1), &cluster).unwrap();
        assert_eq!(placed, vec![GpuAddr { node: 0, gpu: 1 }]);
    }

    #[test]
    fn fails_when_cluster_is_full() {
        let cluster = ClusterView { gpus: vec![gpu(0, 0, vec![(1, 90.0, 140.0, 39)])] };
        let mut s = DiluScheduler::new(SchedulerConfig::default());
        assert!(s.place(&func(2, 30.0, 50.0, 8, 1), &cluster).is_none());
    }
}
