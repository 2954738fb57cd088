//! Dilu's adaptive 2D co-scaler: vertical quota resizing first, horizontal
//! scale-out only when vertical headroom is exhausted.

use dilu_cluster::{ClusterView, ElasticityController, FunctionId, FunctionScaleView, ScaleAction};
use dilu_gpu::SmRate;
use dilu_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::ScalerConfig;

/// Tunables of the 2D co-scaler.
///
/// The sliding-window thresholds are shared with the horizontal
/// [`LazyScaler`](crate::LazyScaler); the vertical knobs bound how far a
/// function's per-slice `request` quota may grow (Ω) and how much capacity
/// headroom a resize targets over the observed window mean.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoScalerConfig {
    /// Sliding-window and φ thresholds shared with the lazy scaler.
    pub horizontal: ScalerConfig,
    /// Samples above capacity required to trigger a *vertical* grow
    /// (default 5). Deliberately far below φ_out: a resize costs
    /// milliseconds and no cold start, so the controller can afford to
    /// react to bursts the lazy horizontal threshold must sit out.
    pub phi_vertical: usize,
    /// Per-slice ceiling on vertical `request` growth (the Ω cap; default
    /// one whole GPU).
    pub max_request: SmRate,
    /// Capacity target as a multiple of the window-mean demand; a little
    /// slack (default 1.1) damps resize oscillation around the mean.
    pub target_headroom: f64,
}

impl Default for CoScalerConfig {
    fn default() -> Self {
        CoScalerConfig {
            horizontal: ScalerConfig::default(),
            phi_vertical: 5,
            max_request: SmRate::FULL,
            target_headroom: 1.1,
        }
    }
}

/// Dilu's global scaler as a true 2D controller.
///
/// Where [`LazyScaler`](crate::LazyScaler) merely *assumes* per-GPU vertical
/// scaling absorbed a burst, `CoScaler` observes vertical headroom and acts
/// on it: on a sustained overload it grows the function's `<request, limit>`
/// quotas (millisecond apply latency, no cold start) up to the tightest
/// hosting GPU's guaranteed-SM slack and the Ω cap, and only emits
/// [`ScaleAction::ScaleOut`] for demand beyond that. On the way down it
/// shrinks grown quotas back toward the profiled quotas the view carries
/// before it considers terminating instances.
///
/// # Examples
///
/// ```
/// use dilu_scaler::{CoScaler, CoScalerConfig};
/// use dilu_cluster::ElasticityController;
///
/// let scaler = CoScaler::new(CoScalerConfig::default());
/// assert_eq!(scaler.name(), "dilu-co-scaler");
/// ```
#[derive(Debug, Clone)]
pub struct CoScaler {
    config: CoScalerConfig,
    /// Per-tick scratch, reused across ticks: each GPU's remaining
    /// guaranteed-SM slack, indexed like [`ClusterView::gpus`].
    slack: Vec<f64>,
    /// Per-tick scratch: one `(function, GPU index)` entry per resident
    /// slice, sorted, so a function's hosting GPUs are one contiguous run,
    /// in ascending GPU index.
    slices: Vec<(FunctionId, usize)>,
}

impl CoScaler {
    /// Creates a co-scaler with the given tunables.
    pub fn new(config: CoScalerConfig) -> Self {
        CoScaler { config, slack: Vec::new(), slices: Vec::new() }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CoScalerConfig {
        &self.config
    }

    /// Estimated capacity slope in RPS per unit of SM fraction, from the
    /// two capacity points the view carries. Falls back to the
    /// through-origin proportional slope when the quota interval is
    /// degenerate; returns 0 when growing the quota buys nothing
    /// (saturated).
    fn capacity_slope(f: &FunctionScaleView) -> f64 {
        let q = &f.quota;
        let span = q.limit.as_fraction() - q.request.as_fraction();
        let gain = q.capacity_rps_at_limit - f.capacity_rps;
        if span > 1e-9 {
            (gain / span).max(0.0)
        } else if q.request.as_fraction() > 1e-9 {
            f.capacity_rps / q.request.as_fraction()
        } else {
            0.0
        }
    }

    /// The vertical move meeting `wanted_per_instance` RPS, if any:
    /// `(new_request, estimated_capacity_after)`. `headroom` is the
    /// vertical room left in this tick's running per-GPU budget.
    fn grow_quota(
        &self,
        f: &FunctionScaleView,
        headroom: SmRate,
        wanted_per_instance: f64,
    ) -> (SmRate, f64) {
        let q = &f.quota;
        let slope = Self::capacity_slope(f);
        let ceiling = (q.request + headroom).min(self.config.max_request);
        if slope <= 1e-9 || ceiling <= q.request {
            return (q.request, f.capacity_rps);
        }
        let deficit = (wanted_per_instance - f.capacity_rps).max(0.0);
        let grown = SmRate::from_fraction(q.request.as_fraction() + deficit / slope).min(ceiling);
        let capacity_after =
            f.capacity_rps + slope * (grown.as_fraction() - q.request.as_fraction());
        (grown, capacity_after)
    }

    /// New limit for a resized request: preserve the profiled
    /// limit/request ratio, never shrinking the limit on a grow.
    fn limit_for(f: &FunctionScaleView, request: SmRate) -> SmRate {
        let q = &f.quota;
        let ratio = if q.profiled_request.as_fraction() > 1e-9 {
            q.profiled_limit.as_fraction() / q.profiled_request.as_fraction()
        } else {
            2.0
        };
        let scaled = request.scale(ratio.max(1.0));
        if request >= f.quota.request {
            scaled.max(f.quota.limit)
        } else {
            scaled
        }
    }

    /// Appends this tick's actions for `f` to `out`.
    fn decide(&self, f: &FunctionScaleView, headroom: SmRate, out: &mut Vec<ScaleAction>) {
        if !f.kind.is_inference() {
            return;
        }
        let cfg = self.config.horizontal;
        let deployed = f.ready_instances + f.starting_instances;
        if deployed == 0 {
            // Nothing deployed: the vertical dimension does not exist yet.
            if f.backlog > 0 {
                out.push(ScaleAction::ScaleOut { func: f.func, count: 1 });
            }
            return;
        }
        let window: &[u64] = if f.rps_window.len() > cfg.window {
            &f.rps_window[f.rps_window.len() - cfg.window..]
        } else {
            f.rps_window
        };
        let capacity_now = f.capacity_rps * f64::from(deployed);
        let above = window.iter().filter(|&&rps| rps as f64 > capacity_now).count();
        // Vertical reacts at φ_vertical (cheap, millisecond-scale);
        // horizontal stays lazy at φ_out (each scale-out is a cold start).
        if above >= self.config.phi_vertical.min(cfg.phi_out) {
            let mean = window.iter().sum::<u64>() as f64 / window.len().max(1) as f64;
            // A short burst barely moves the 40 s mean; the vertical move
            // sizes against the recent seconds so it tracks the burst
            // itself (a resize is cheap enough to oversize and shrink
            // later). The horizontal fallback keeps the lazy window-mean
            // sizing — each scale-out is a cold start.
            let tail = self.config.phi_vertical.max(1).min(window.len());
            let recent = window[window.len() - tail..].iter().sum::<u64>() as f64 / tail as f64;
            let wanted_v = mean.max(recent) * self.config.target_headroom;
            let wanted_h = mean * self.config.target_headroom;
            if wanted_v <= capacity_now {
                return;
            }
            let (grown, capacity_after) =
                self.grow_quota(f, headroom, wanted_v / f64::from(deployed));
            if grown.as_fraction() > f.quota.request.as_fraction() + 1e-9 {
                out.push(ScaleAction::ResizeQuota {
                    func: f.func,
                    request: grown,
                    limit: Self::limit_for(f, grown),
                });
            }
            let total_after = capacity_after * f64::from(deployed);
            if above >= cfg.phi_out && wanted_h > total_after * (1.0 + 1e-9) {
                // Sustained overload beyond the vertical ceiling: scale out
                // for the remainder.
                let count =
                    ((wanted_h - total_after) / capacity_after.max(1e-9)).ceil().max(1.0) as u32;
                out.push(ScaleAction::ScaleOut { func: f.func, count });
            }
            return;
        }
        // Quiet side. Shrink grown quotas back toward the profiled ones
        // before touching instance counts — the reverse of the grow order.
        // Bursty traffic keeps recent samples above capacity even when the
        // mean is low, so a shrink additionally requires a fully-subdued
        // window.
        let floor = f.quota.profiled_request;
        if above == 0 && window.len() >= cfg.phi_in && f.quota.request > floor {
            let mean = window.iter().sum::<u64>() as f64 / window.len().max(1) as f64;
            let wanted = (mean * self.config.target_headroom) / f64::from(deployed);
            let slope = Self::capacity_slope(f);
            if slope > 1e-9 {
                let surplus = (f.capacity_rps - wanted).max(0.0);
                let target = SmRate::from_fraction(
                    (f.quota.request.as_fraction() - surplus / slope).max(0.0),
                )
                .max(floor);
                // Require the window to actually fit at the lower quota and
                // a non-trivial step (≥ 1% of the card) to avoid churn.
                let capacity_at_target =
                    f.capacity_rps - slope * (f.quota.request - target).as_fraction();
                let fits = window
                    .iter()
                    .filter(|&&rps| (rps as f64) < capacity_at_target * f64::from(deployed))
                    .count()
                    > cfg.phi_in;
                if fits && f.quota.request.as_fraction() - target.as_fraction() > 0.01 {
                    out.push(ScaleAction::ResizeQuota {
                        func: f.func,
                        request: target,
                        limit: Self::limit_for(f, target),
                    });
                    return;
                }
            }
        }
        // Horizontal scale-in/scale-to-zero is exactly the lazy scaler's
        // decision — one shared implementation, not a copy.
        out.extend(crate::lazy::horizontal_scale_in(&cfg, f, window));
    }
}

impl ElasticityController for CoScaler {
    fn on_tick(
        &mut self,
        _now: SimTime,
        functions: &[FunctionScaleView],
        cluster: &ClusterView,
    ) -> Vec<ScaleAction> {
        // Per-tick vertical budget: each GPU's guaranteed-SM slack, from
        // which the grows emitted for one function are deducted before the
        // next function sizes its own grow — otherwise two functions
        // bursting in the same tick both claim the same SMs and the
        // "guaranteed" requests oversubscribe the card. A resize re-quotas
        // every slice of a function, draining ones included, so a GPU
        // hosting `n` of them offers each slice `1/n` of its slack. The
        // budget is a min over hosting GPUs and each deduction touches one
        // GPU, so the order the GPUs are visited in changes nothing.
        let mut slack = std::mem::take(&mut self.slack);
        let mut slices = std::mem::take(&mut self.slices);
        slack.clear();
        slack.extend(cluster.gpus.iter().map(|g| g.request_slack().as_fraction()));
        slices.clear();
        for (index, gpu) in cluster.gpus.iter().enumerate() {
            slices.extend(gpu.residents.iter().map(|r| (r.func, index)));
        }
        slices.sort_unstable();
        let mut actions = Vec::with_capacity(functions.len());
        let mut cursor = 0;
        for f in functions {
            // This function's slices, one run per hosting GPU. Views come in
            // ascending id order, so the run starts at or after the cursor;
            // an id below the previous one binary-searches instead.
            let first = if cursor > 0 && slices[cursor - 1].0 >= f.func {
                slices.partition_point(|&(func, _)| func < f.func)
            } else {
                cursor + slices[cursor..].iter().take_while(|&&(func, _)| func < f.func).count()
            };
            let last =
                first + slices[first..].iter().take_while(|&&(func, _)| func == f.func).count();
            cursor = last;
            let hosting = || slices[first..last].chunk_by(|a, b| a.1 == b.1);
            let budget = hosting()
                .map(|run| slack[run[0].1] / run.len() as f64)
                .fold(f64::INFINITY, f64::min);
            // No hosted slice means nothing is deployed, and `decide`
            // returns before it reads the headroom.
            let headroom = if budget.is_finite() {
                SmRate::from_fraction(budget.max(0.0))
            } else {
                SmRate::ZERO
            };
            let decided = actions.len();
            self.decide(f, headroom, &mut actions);
            for action in &actions[decided..] {
                if let ScaleAction::ResizeQuota { request, .. } = action {
                    let delta = (request.as_fraction() - f.quota.request.as_fraction()).max(0.0);
                    if delta > 0.0 {
                        for run in hosting() {
                            let s = &mut slack[run[0].1];
                            *s = (*s - delta * run.len() as f64).max(0.0);
                        }
                    }
                }
            }
        }
        self.slack = slack;
        self.slices = slices;
        actions
    }

    fn name(&self) -> &str {
        "dilu-co-scaler"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_cluster::{FunctionKind, GpuAddr, GpuView, QuotaView, ResidentInfo};
    use dilu_gpu::TaskClass;
    use dilu_sim::SimDuration;

    fn view(window: &[u64], ready: u32, quota: QuotaView) -> FunctionScaleView<'_> {
        FunctionScaleView {
            func: FunctionId(1),
            kind: FunctionKind::Inference { slo: SimDuration::from_millis(100), batch: 4 },
            rps_window: window,
            ready_instances: ready,
            starting_instances: 0,
            backlog: 0,
            capacity_rps: 50.0,
            max_idle: SimDuration::ZERO,
            quota,
        }
    }

    /// Quotas at their profiled values.
    fn quota(request: f64, limit: f64, cap_at_limit: f64) -> QuotaView {
        QuotaView {
            request: SmRate::from_percent(request),
            limit: SmRate::from_percent(limit),
            profiled_request: SmRate::from_percent(request),
            profiled_limit: SmRate::from_percent(limit),
            capacity_rps_at_limit: cap_at_limit,
        }
    }

    fn resident(id: u32, request: f64) -> ResidentInfo {
        ResidentInfo {
            func: FunctionId(id),
            class: TaskClass::SloSensitive,
            request: SmRate::from_percent(request),
            limit: SmRate::from_percent(2.0 * request),
            mem_bytes: dilu_gpu::GB,
        }
    }

    fn gpu(g: u32, residents: Vec<ResidentInfo>) -> GpuView {
        GpuView {
            addr: GpuAddr { node: 0, gpu: g },
            mem_capacity: 40 * dilu_gpu::GB,
            mem_reserved: residents.len() as u64 * dilu_gpu::GB,
            residents,
        }
    }

    fn hot_window() -> Vec<u64> {
        // 25 of 40 seconds at 160 rps against 50 rps of capacity.
        let mut w = vec![10u64; 15];
        w.extend([160u64; 25]);
        w
    }

    /// One tick with `v`'s slice on a single GPU whose request slack is
    /// `headroom` percent (another resident holds the rest).
    fn tick(scaler: &mut CoScaler, v: FunctionScaleView, headroom: f64) -> Vec<ScaleAction> {
        let request = v.quota.request.as_fraction() * 100.0;
        let other = (100.0 - request - headroom).max(0.0);
        let cluster = ClusterView {
            gpus: vec![gpu(0, vec![resident(v.func.0, request), resident(u32::MAX, other)])],
        };
        scaler.on_tick(SimTime::from_secs(60), &[v], &cluster)
    }

    #[test]
    fn burst_with_headroom_resizes_instead_of_scaling_out() {
        let mut s = CoScaler::new(CoScalerConfig::default());
        // 20%→40% quotas, 60% slack on the GPU, capacity doubling at limit.
        let actions = tick(&mut s, view(&hot_window(), 1, quota(20.0, 40.0, 100.0)), 60.0);
        assert_eq!(actions.len(), 1, "{actions:?}");
        let ScaleAction::ResizeQuota { request, limit, .. } = actions[0] else {
            panic!("expected a resize, got {:?}", actions[0]);
        };
        // Recent seconds run at 160 rps → wanted ≈ 176; slope =
        // (100−50)/0.2 = 250 rps/unit → grow ≈ 0.2 + 126/250 ≈ 0.70,
        // within the 0.8 headroom bound.
        assert!(request > SmRate::from_percent(40.0), "request {request}");
        assert!(request <= SmRate::from_percent(80.0), "request {request}");
        assert!(limit >= request, "limit {limit} under request {request}");
    }

    #[test]
    fn short_bursts_trigger_vertical_but_never_horizontal() {
        let mut s = CoScaler::new(CoScalerConfig::default());
        // 8 hot seconds: above φ_vertical (5) but far below φ_out (20).
        let mut w = vec![10u64; 32];
        w.extend([160u64; 8]);
        let actions = tick(&mut s, view(&w, 1, quota(20.0, 40.0, 100.0)), 60.0);
        assert_eq!(actions.len(), 1, "{actions:?}");
        assert!(matches!(actions[0], ScaleAction::ResizeQuota { .. }), "{actions:?}");
        // Same burst with zero vertical headroom: still no cold start — the
        // horizontal dimension stays lazy below φ_out.
        let actions = tick(&mut s, view(&w, 1, quota(20.0, 40.0, 100.0)), 0.0);
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn burst_without_headroom_falls_back_to_scale_out() {
        let mut s = CoScaler::new(CoScalerConfig::default());
        let actions = tick(&mut s, view(&hot_window(), 1, quota(20.0, 40.0, 100.0)), 0.0);
        assert_eq!(actions.len(), 1, "{actions:?}");
        let ScaleAction::ScaleOut { count, .. } = actions[0] else {
            panic!("expected scale out, got {:?}", actions[0]);
        };
        // wanted ≈ 114 against 50 rps deployed → 2 more instances.
        assert_eq!(count, 2);
    }

    #[test]
    fn partial_headroom_combines_both_dimensions() {
        let mut s = CoScaler::new(CoScalerConfig::default());
        // Only 10% slack: vertical buys ~25 rps, the rest must scale out.
        let actions = tick(&mut s, view(&hot_window(), 1, quota(20.0, 40.0, 100.0)), 10.0);
        assert_eq!(actions.len(), 2, "{actions:?}");
        assert!(matches!(actions[0], ScaleAction::ResizeQuota { .. }), "{actions:?}");
        assert!(matches!(actions[1], ScaleAction::ScaleOut { .. }), "{actions:?}");
    }

    #[test]
    fn omega_caps_vertical_growth() {
        let config =
            CoScalerConfig { max_request: SmRate::from_percent(25.0), ..CoScalerConfig::default() };
        let mut s = CoScaler::new(config);
        let actions = tick(&mut s, view(&hot_window(), 1, quota(20.0, 40.0, 100.0)), 60.0);
        let ScaleAction::ResizeQuota { request, .. } = actions[0] else {
            panic!("expected a resize, got {:?}", actions[0]);
        };
        assert_eq!(request, SmRate::from_percent(25.0));
        assert!(
            actions.iter().any(|a| matches!(a, ScaleAction::ScaleOut { .. })),
            "capped vertical must scale out for the remainder: {actions:?}"
        );
    }

    /// A view whose quotas grew to 60%/120% from the profiled 20%/40%,
    /// with demand collapsed to ~5 rps.
    fn grown_and_quiet(window: &[u64]) -> FunctionScaleView<'_> {
        let quota = QuotaView {
            request: SmRate::from_percent(60.0),
            limit: SmRate::from_percent(120.0),
            ..quota(20.0, 40.0, 90.0)
        };
        FunctionScaleView { capacity_rps: 80.0, ..view(window, 2, quota) }
    }

    #[test]
    fn quiet_window_shrinks_grown_quotas_before_scaling_in() {
        let mut s = CoScaler::new(CoScalerConfig::default());
        // A burst at the profiled quotas, then a quiet window after a grow.
        tick(&mut s, view(&hot_window(), 1, quota(20.0, 40.0, 100.0)), 60.0);
        let actions = tick(&mut s, grown_and_quiet(&[5u64; 40]), 20.0);
        assert_eq!(actions.len(), 1, "{actions:?}");
        let ScaleAction::ResizeQuota { request, limit, .. } = actions[0] else {
            panic!("expected a shrink, got {:?}", actions[0]);
        };
        assert_eq!(request, SmRate::from_percent(20.0), "shrink floors at the profiled request");
        assert_eq!(limit, SmRate::from_percent(40.0));
    }

    #[test]
    fn the_shrink_floor_is_the_profiled_quota_not_the_first_seen_one() {
        // A fresh co-scaler whose first view already shows grown quotas
        // still shrinks to the profiled 20%, not to the 60% it first saw.
        let mut s = CoScaler::new(CoScalerConfig::default());
        let actions = tick(&mut s, grown_and_quiet(&[5u64; 40]), 20.0);
        let [ScaleAction::ResizeQuota { request, limit, .. }] = actions[..] else {
            panic!("expected one shrink, got {actions:?}");
        };
        assert_eq!(request, SmRate::from_percent(20.0));
        assert_eq!(limit, SmRate::from_percent(40.0));
    }

    #[test]
    fn at_profiled_quotas_horizontal_scale_in_applies() {
        let mut s = CoScaler::new(CoScalerConfig::default());
        // At the profiled quotas with 2 instances and a long quiet window.
        let mut w = vec![80u64; 5];
        w.extend([20u64; 35]);
        let actions = tick(&mut s, view(&w, 2, quota(20.0, 40.0, 100.0)), 60.0);
        assert_eq!(actions, vec![ScaleAction::ScaleIn { func: FunctionId(1), count: 1 }]);
    }

    #[test]
    fn scales_to_zero_like_the_lazy_scaler() {
        let mut s = CoScaler::new(CoScalerConfig::default());
        let actions = tick(&mut s, view(&[0u64; 40], 1, quota(20.0, 40.0, 100.0)), 60.0);
        assert_eq!(actions, vec![ScaleAction::ScaleIn { func: FunctionId(1), count: 1 }]);
    }

    #[test]
    fn concurrent_bursts_share_the_per_gpu_headroom_budget() {
        // Two functions on one GPU, 20% request each → 60% guaranteed slack.
        // Both burst in the same tick; their combined grows must fit the
        // slack instead of both claiming all of it.
        let cluster =
            ClusterView { gpus: vec![gpu(0, vec![resident(1, 20.0), resident(2, 20.0)])] };
        let mut s = CoScaler::new(CoScalerConfig::default());
        let hot = hot_window();
        let mut f1 = view(&hot, 1, quota(20.0, 40.0, 100.0));
        let mut f2 = f1.clone();
        f2.func = FunctionId(2);
        let actions = s.on_tick(SimTime::from_secs(60), &[f1.clone(), f2.clone()], &cluster);
        let grown: f64 = actions
            .iter()
            .filter_map(|a| match a {
                ScaleAction::ResizeQuota { request, .. } => Some(request.as_fraction() - 0.20),
                _ => None,
            })
            .sum();
        assert!(
            actions.iter().filter(|a| matches!(a, ScaleAction::ResizeQuota { .. })).count() == 2,
            "both functions should get a vertical grow: {actions:?}"
        );
        assert!(grown <= 0.60 + 1e-9, "combined grows {grown} must fit the 60% slack");
        // And the pipelined case: one function with two slices on the GPU
        // can only grow by half the slack per slice.
        f1.func = FunctionId(3);
        let two_slices =
            ClusterView { gpus: vec![gpu(0, vec![resident(3, 20.0), resident(3, 20.0)])] };
        let actions = s.on_tick(SimTime::from_secs(60), &[f1], &two_slices);
        let ScaleAction::ResizeQuota { request, .. } = actions[0] else {
            panic!("expected a resize, got {:?}", actions[0]);
        };
        // Slack 60% over two slices → at most +30% per slice (0.2 → ≤ 0.5).
        assert!(
            request <= SmRate::from_percent(50.0) + SmRate::from_percent(1e-6),
            "per-slice grow must halve for two slices: {request}"
        );
    }

    #[test]
    fn decisions_are_deterministic_across_reconstructions() {
        // The event-driven serving core pins byte-identical reports, which
        // requires every controller decision (including multi-function,
        // multi-GPU budget sharing) to be a pure function of its inputs —
        // no hash-iteration order may leak into action order or sizing.
        let cluster = ClusterView {
            gpus: (0..4)
                .map(|g| {
                    gpu(g, vec![resident(g, 15.0), resident(g + 1, 15.0), resident(g + 2, 15.0)])
                })
                .collect(),
        };
        let hot = hot_window();
        let views: Vec<FunctionScaleView> = (0..6)
            .map(|id| {
                let mut v = view(&hot, 1, quota(15.0, 30.0, 100.0));
                v.func = FunctionId(id);
                v
            })
            .collect();
        let run = || {
            let mut s = CoScaler::new(CoScalerConfig::default());
            let a = s.on_tick(SimTime::from_secs(60), &views, &cluster);
            let b = s.on_tick(SimTime::from_secs(61), &views, &cluster);
            (a, b)
        };
        assert_eq!(run(), run(), "same inputs must yield identical action sequences");
    }

    /// The slice cursor assumes views in ascending id order and searches
    /// when an id goes backwards: any order gives each function the budget
    /// of its own GPU.
    #[test]
    fn views_in_any_order_find_their_own_slices() {
        // fn-g holds a 20 % slice alone on GPU g beside another function's
        // 60 − 10 g %, so its ceiling is 40 + 10 g %, below what the
        // window asks for.
        let cluster = ClusterView {
            gpus: (0..4)
                .map(|g| gpu(g, vec![resident(g, 20.0), resident(100 + g, 60.0 - 10.0 * g as f64)]))
                .collect(),
        };
        let hot = hot_window();
        let view_of = |id: u32| {
            let mut v = view(&hot, 1, quota(20.0, 40.0, 100.0));
            v.func = FunctionId(id);
            v
        };
        let grows = |order: [u32; 4]| {
            let views: Vec<FunctionScaleView> = order.into_iter().map(view_of).collect();
            let actions =
                CoScaler::new(CoScalerConfig::default()).on_tick(SimTime::ZERO, &views, &cluster);
            let mut grows: Vec<(FunctionId, SmRate)> = actions
                .iter()
                .filter_map(|a| match *a {
                    ScaleAction::ResizeQuota { func, request, .. } => Some((func, request)),
                    _ => None,
                })
                .collect();
            grows.sort_by_key(|&(func, _)| func);
            grows
        };
        let ascending = grows([0, 1, 2, 3]);
        let ceilings: Vec<f64> = ascending.iter().map(|&(_, r)| r.as_fraction()).collect();
        for (g, ceiling) in ceilings.iter().enumerate() {
            let want = 0.4 + 0.1 * g as f64;
            assert!((ceiling - want).abs() < 1e-9, "fn-{g} grew to {ceiling}, not {want}");
        }
        assert_eq!(grows([3, 2, 1, 0]), ascending, "descending views");
        assert_eq!(grows([2, 0, 3, 1]), ascending, "shuffled views");
    }

    #[test]
    fn training_functions_are_ignored() {
        let mut s = CoScaler::new(CoScalerConfig::default());
        let mut v = view(&[100; 40], 1, quota(20.0, 40.0, 100.0));
        v.kind = FunctionKind::Training { workers: 2, iterations: 10 };
        assert!(tick(&mut s, v, 60.0).is_empty());
    }

    #[test]
    fn zero_instances_with_backlog_cold_starts() {
        let mut s = CoScaler::new(CoScalerConfig::default());
        let mut v = view(&[0; 40], 0, quota(20.0, 40.0, 100.0));
        v.backlog = 3;
        let actions = tick(&mut s, v, 0.0);
        assert_eq!(actions, vec![ScaleAction::ScaleOut { func: FunctionId(1), count: 1 }]);
    }
}
