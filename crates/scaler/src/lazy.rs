//! The lazy scaling-out/in controller.

use dilu_cluster::{ClusterView, ElasticityController, FunctionScaleView, ScaleAction};
use dilu_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Tunables of the lazy scaler (paper defaults in parentheses).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalerConfig {
    /// Sliding-window length in seconds (40).
    pub window: usize,
    /// Samples above capacity required to scale out (20).
    pub phi_out: usize,
    /// Samples below reduced capacity required to scale in (30).
    pub phi_in: usize,
    /// Allow dropping the last ready instance when the window is fully idle.
    pub scale_to_zero: bool,
}

impl Default for ScalerConfig {
    fn default() -> Self {
        ScalerConfig { window: 40, phi_out: 20, phi_in: 30, scale_to_zero: true }
    }
}

/// Dilu's global scaler: lazy scale-out/in coordinated with RCKM's fast
/// vertical scaling. Horizontal-only: it ignores the cluster view.
///
/// # Examples
///
/// ```
/// use dilu_scaler::{LazyScaler, ScalerConfig};
/// use dilu_cluster::ElasticityController;
///
/// let scaler = LazyScaler::new(ScalerConfig::default());
/// assert_eq!(scaler.name(), "dilu-lazy-scaler");
/// ```
#[derive(Debug, Clone)]
pub struct LazyScaler {
    config: ScalerConfig,
}

impl LazyScaler {
    /// Creates a scaler with the given tunables.
    pub fn new(config: ScalerConfig) -> Self {
        LazyScaler { config }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ScalerConfig {
        &self.config
    }

    fn decide(&self, f: &FunctionScaleView) -> Option<ScaleAction> {
        if !f.kind.is_inference() {
            return None;
        }
        let deployed = f.ready_instances + f.starting_instances;
        // A function with zero instances and queued work must cold start
        // regardless of the window — there is nothing to scale vertically.
        if deployed == 0 {
            if f.backlog > 0 {
                return Some(ScaleAction::ScaleOut { func: f.func, count: 1 });
            }
            return None;
        }
        let window: &[u64] = if f.rps_window.len() > self.config.window {
            &f.rps_window[f.rps_window.len() - self.config.window..]
        } else {
            f.rps_window
        };
        let capacity_now = f.capacity_rps * f64::from(deployed);
        let above = window.iter().filter(|&&rps| rps as f64 > capacity_now).count();
        if above >= self.config.phi_out {
            // Size the step so the window mean would fit (still lazy: one
            // decision per tick, no eager burst-chasing).
            let mean = window.iter().sum::<u64>() as f64 / window.len().max(1) as f64;
            let deficit = (mean - capacity_now).max(0.0);
            let count = (deficit / f.capacity_rps.max(1e-9)).ceil().max(1.0) as u32;
            return Some(ScaleAction::ScaleOut { func: f.func, count });
        }
        horizontal_scale_in(&self.config, f, window)
    }
}

/// The lazy horizontal scale-in decision, shared by [`LazyScaler`] and the
/// 2D [`CoScaler`](crate::CoScaler): drop one instance when more than φ_in
/// samples fit the capacity of one fewer, and scale to zero only after a
/// fully idle φ_in tail.
pub(crate) fn horizontal_scale_in(
    config: &ScalerConfig,
    f: &FunctionScaleView,
    window: &[u64],
) -> Option<ScaleAction> {
    if f.ready_instances > 1 {
        let reduced = f.capacity_rps * f64::from(f.ready_instances - 1);
        let below = window.iter().filter(|&&rps| (rps as f64) < reduced).count();
        if below > config.phi_in && window.len() >= config.phi_in {
            return Some(ScaleAction::ScaleIn { func: f.func, count: 1 });
        }
    } else if config.scale_to_zero
        && f.ready_instances == 1
        && f.backlog == 0
        && window.len() >= config.phi_in
        && window.iter().rev().take(config.phi_in).all(|&rps| rps == 0)
    {
        return Some(ScaleAction::ScaleIn { func: f.func, count: 1 });
    }
    None
}

impl ElasticityController for LazyScaler {
    fn on_tick(
        &mut self,
        _now: SimTime,
        functions: &[FunctionScaleView],
        _cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        functions.iter().filter_map(|f| self.decide(f)).collect()
    }

    fn name(&self) -> &str {
        "dilu-lazy-scaler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_cluster::{FunctionId, FunctionKind};
    use dilu_sim::SimDuration;

    fn view(window: &[u64], ready: u32, starting: u32, backlog: usize) -> FunctionScaleView<'_> {
        FunctionScaleView {
            func: FunctionId(1),
            kind: FunctionKind::Inference { slo: SimDuration::from_millis(100), batch: 4 },
            rps_window: window,
            ready_instances: ready,
            starting_instances: starting,
            backlog,
            capacity_rps: 50.0,
            max_idle: SimDuration::ZERO,
            quota: dilu_cluster::QuotaView::none(),
        }
    }

    fn tick(scaler: &mut LazyScaler, v: FunctionScaleView) -> Vec<ScaleAction> {
        scaler.on_tick(SimTime::from_secs(60), &[v], &ClusterView { gpus: Vec::new() })
    }

    #[test]
    fn short_bursts_do_not_scale_out() {
        let mut s = LazyScaler::new(ScalerConfig::default());
        // 10 hot seconds out of 40: below φ_out=20 → vertical scaling absorbs it.
        let mut w = vec![10u64; 30];
        w.extend([120u64; 10]);
        assert!(tick(&mut s, view(&w, 1, 0, 0)).is_empty());
    }

    #[test]
    fn sustained_overload_scales_out_proportionally() {
        let mut s = LazyScaler::new(ScalerConfig::default());
        // 25 of 40 seconds at 160 rps against one 50-rps instance.
        let mut w = vec![10u64; 15];
        w.extend([160u64; 25]);
        let actions = tick(&mut s, view(&w, 1, 0, 0));
        assert_eq!(actions.len(), 1);
        let ScaleAction::ScaleOut { count, .. } = actions[0] else {
            panic!("expected scale out, got {:?}", actions[0]);
        };
        // Mean ≈ 104 rps, deficit ≈ 54 → 2 extra instances.
        assert_eq!(count, 2);
    }

    #[test]
    fn starting_instances_count_toward_capacity() {
        let mut s = LazyScaler::new(ScalerConfig::default());
        let w = vec![80u64; 40];
        // 1 ready + 1 starting = 100 rps capacity ≥ 80 → no action.
        assert!(tick(&mut s, view(&w, 1, 1, 0)).is_empty());
    }

    #[test]
    fn scale_in_requires_a_long_quiet_window() {
        let mut s = LazyScaler::new(ScalerConfig::default());
        // 2 instances (100 rps); 35 of 40 samples below 50 rps (n-1 capacity).
        let mut w = vec![80u64; 5];
        w.extend([20u64; 35]);
        let actions = tick(&mut s, view(&w, 2, 0, 0));
        assert_eq!(actions, vec![ScaleAction::ScaleIn { func: FunctionId(1), count: 1 }]);
        // Only 20 quiet samples: not enough (φ_in = 30).
        let mut w = vec![80u64; 20];
        w.extend([20u64; 20]);
        assert!(tick(&mut s, view(&w, 2, 0, 0)).is_empty());
    }

    #[test]
    fn scales_to_zero_only_after_fully_idle_window() {
        let mut s = LazyScaler::new(ScalerConfig::default());
        let w = vec![0u64; 40];
        let actions = tick(&mut s, view(&w, 1, 0, 0));
        assert_eq!(actions, vec![ScaleAction::ScaleIn { func: FunctionId(1), count: 1 }]);
        let mut w = vec![0u64; 39];
        w.push(1);
        assert!(tick(&mut s, view(&w, 1, 0, 0)).is_empty());
    }

    #[test]
    fn zero_instances_with_backlog_cold_starts() {
        let mut s = LazyScaler::new(ScalerConfig::default());
        let actions = tick(&mut s, view(&[0; 40], 0, 0, 3));
        assert_eq!(actions, vec![ScaleAction::ScaleOut { func: FunctionId(1), count: 1 }]);
        assert!(tick(&mut s, view(&[0; 40], 0, 0, 0)).is_empty());
    }

    #[test]
    fn training_functions_are_ignored() {
        let mut s = LazyScaler::new(ScalerConfig::default());
        let v = FunctionScaleView {
            kind: FunctionKind::Training { workers: 4, iterations: 10 },
            ..view(&[100; 40], 1, 0, 0)
        };
        assert!(tick(&mut s, v).is_empty());
    }
}
