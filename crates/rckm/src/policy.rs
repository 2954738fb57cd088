//! Algorithm 2: fast scale-up/down token control.

use std::collections::VecDeque;

use dilu_gpu::{Grant, InstanceId, InstanceView, SharePolicy, SmRate};
use dilu_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Tunables of the token manager (paper defaults in parentheses).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RckmConfig {
    /// Scale factor on quota-derived token budgets; `1.0` means `MaxTokens`
    /// equals one whole GPU per cycle (Fig. 18(b) sweeps this).
    pub max_tokens: f64,
    /// KLC-inflation threshold ΔT triggering the protective EMERGENCY path.
    pub eta_violation: f64,
    /// Multiplicative grant growth while recovering/expanding.
    pub eta_increase: f64,
    /// Kernel-rate window length in token cycles (≈ 5 ms each).
    pub rate_window: usize,
    /// Pending batches at an SLO-sensitive instance treated as a burst
    /// (the KLC of an iteration grows with the requests batched into it, so
    /// a deep queue is the same bursty-workload signal Algorithm 2 reads
    /// from ΔT).
    pub queue_pressure: usize,
}

impl Default for RckmConfig {
    fn default() -> Self {
        RckmConfig {
            max_tokens: 1.0,
            eta_violation: 0.5,
            eta_increase: 1.3,
            rate_window: 10,
            queue_pressure: 3,
        }
    }
}

/// Algorithm 2's per-instance scaling state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleState {
    /// No collocated instances: free to use the limit quota.
    None,
    /// Protective fast scale-up of a suffering SLO-sensitive instance (and
    /// fast scale-down of its co-runners).
    Emergency,
    /// Ramping grants back up after an emergency or into idle fragments.
    Recovery,
    /// Stable contention: everyone holds its request quota.
    Contention,
}

#[derive(Debug, Clone)]
struct InstanceCtl {
    state: ScaleState,
    /// Last issued grant as an SM fraction.
    r_last: f64,
    /// Kernel blocks issued per recent cycle, newest last.
    window: VecDeque<u64>,
    /// The sum of `window`, kept by [`push_rate`](Self::push_rate).
    window_sum: u64,
}

impl InstanceCtl {
    fn new(rate_window: usize) -> Self {
        InstanceCtl {
            state: ScaleState::Contention,
            r_last: 0.0,
            window: VecDeque::with_capacity(rate_window),
            window_sum: 0,
        }
    }

    fn push_rate(&mut self, blocks: u64, cap: usize) {
        if self.window.len() == cap {
            if let Some(oldest) = self.window.pop_front() {
                self.window_sum -= oldest;
            }
        }
        self.window.push_back(blocks);
        self.window_sum += blocks;
        debug_assert_eq!(
            self.window_sum,
            self.window.iter().sum::<u64>(),
            "the running kernel-rate sum drifted from its window"
        );
    }
}

/// Dilu's token-issuing share policy (one per GPU).
///
/// See the [crate docs](crate) for the control law and an example.
#[derive(Debug, Clone)]
pub struct RckmPolicy {
    config: RckmConfig,
    /// Per-instance control state, in id order. A sorted small-vec instead
    /// of a hash map: the token manager runs once per 5 ms cycle per GPU
    /// with a handful of residents, and the engine lists its views in id
    /// order too, so a cycle with no join or leave finds each view's state
    /// at the view's own position.
    ctl: Vec<(InstanceId, InstanceCtl)>,
    /// Reused per-cycle scratch: each view's kernel-rate window sum.
    sum_buf: Vec<u64>,
    /// The SLO-sensitive instance currently holding the EMERGENCY state,
    /// with its last observed ΔT. Only this instance may reset it (§3.4.1).
    emergency: Option<(InstanceId, f64)>,
    /// The idle-history bound from any state (see [`idle_bound`]).
    idle_bound: u64,
    /// `true` when the last call changed nothing and another call on the
    /// same workless views would change nothing either (see
    /// [`allocate_into`](SharePolicy::allocate_into)); the policy then
    /// reads 0 idle-history cycles.
    fixed_point: bool,
}

/// RCKM's idle-history bound from any state, in workless cycles: the
/// kernel-rate window fills with zeros in `rate_window` cycles (plus
/// `queue_pressure` as a margin for the queue-derived burst signal
/// draining), and the multiplicative grant ramp reaches any ceiling within
/// log_η of the limit/request ratio — bounded here by 10⁴ (4·ln10), far
/// beyond any profiled quota spread. η ≤ 1 never grows, so it converges
/// with the window. The result floors at the trait default, which already
/// covers the paper defaults (10 + 3 + 36 = 49 < 96); a custom config with
/// a longer window raises the cap instead of silently breaking the
/// event-driven ≡ dense equivalence.
fn idle_bound(cfg: &RckmConfig) -> u64 {
    let ramp = if cfg.eta_increase > 1.0 {
        (4.0 * std::f64::consts::LN_10 / cfg.eta_increase.ln()).ceil() as u64
    } else {
        0
    };
    (cfg.rate_window as u64 + cfg.queue_pressure as u64 + ramp).max(dilu_gpu::IDLE_HISTORY_CYCLES)
}

impl RckmPolicy {
    /// Creates a token manager with the given tunables.
    pub fn new(config: RckmConfig) -> Self {
        RckmPolicy {
            config,
            ctl: Vec::new(),
            sum_buf: Vec::new(),
            emergency: None,
            idle_bound: idle_bound(&config),
            fixed_point: false,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RckmConfig {
        &self.config
    }

    /// The instance currently holding the emergency, if any.
    pub fn emergency_holder(&self) -> Option<InstanceId> {
        self.emergency.map(|(id, _)| id)
    }

    /// The scaling state of `id`, if tracked.
    pub fn state_of(&self, id: InstanceId) -> Option<ScaleState> {
        self.position(id).ok().map(|at| self.ctl[at].1.state)
    }

    /// The position of `id` in `ctl`, or where it would be inserted.
    fn position(&self, id: InstanceId) -> Result<usize, usize> {
        self.ctl.binary_search_by_key(&id, |&(cid, _)| cid)
    }

    /// `true` when `ctl` holds exactly the views' ids, at their positions.
    fn aligned_with(&self, views: &[InstanceView]) -> bool {
        self.ctl.len() == views.len() && self.ctl.iter().zip(views).all(|((id, _), v)| *id == v.id)
    }

    /// The burst/contention pressure of an instance: relative KLC inflation,
    /// amplified by queue depth (more requests per iteration ⇒ longer KLC).
    fn pressure(&self, v: &InstanceView) -> f64 {
        let queue = if v.class.is_slo_sensitive() && v.queue_len >= self.config.queue_pressure {
            v.queue_len as f64 / self.config.queue_pressure as f64
        } else {
            0.0
        };
        v.klc_inflation.max(queue)
    }

    fn refresh_emergency(&mut self, views: &[InstanceView]) {
        // Only the holder may reset/modify the EMERGENCY state; it clears
        // when the holder's pressure subsides or the holder departs.
        if let Some((holder, _)) = self.emergency {
            match views.iter().find(|v| v.id == holder) {
                Some(v) if self.pressure(v) > self.config.eta_violation => {
                    self.emergency = Some((holder, self.pressure(v)));
                }
                _ => self.emergency = None,
            }
        }
        if self.emergency.is_none() {
            // Adopt the most pressured SLO-sensitive instance, if any
            // crosses the threshold.
            let candidate = views
                .iter()
                .filter(|v| v.class.is_slo_sensitive())
                .map(|v| (v.id, self.pressure(v)))
                .filter(|&(_, p)| p > self.config.eta_violation)
                .max_by(|a, b| a.1.total_cmp(&b.1));
            if let Some((id, p)) = candidate {
                self.emergency = Some((id, p));
            }
        }
    }
}

impl SharePolicy for RckmPolicy {
    fn allocate_into(
        &mut self,
        _now: SimTime,
        _quantum: SimDuration,
        views: &[InstanceView],
        grants: &mut Vec<Grant>,
    ) {
        let cfg = self.config;
        // Fixed-point detection: this call leaves the policy at a fixed
        // point when every view is workless, no instance joins or leaves,
        // every rate window is full and all zero, and no state, `r_last`
        // or emergency (holder and ΔT, bit for bit) changes. Another call
        // on the same views then starts from the state this one started
        // from, up to the all-zero window it refills identically, so it
        // is a no-op.
        let mut unchanged = views.iter().all(|v| v.queue_len == 0 && v.blocks_last_quantum == 0);
        // The common cycle: the same residents as last time, listed in id
        // order like `ctl`, so each view's state sits at its position.
        let aligned = self.aligned_with(views);
        if aligned {
            for ((_, c), v) in self.ctl.iter_mut().zip(views) {
                c.push_rate(v.blocks_last_quantum, cfg.rate_window);
            }
        } else {
            // Drop state for departed instances.
            let tracked = self.ctl.len();
            self.ctl.retain(|(id, _)| views.iter().any(|v| v.id == *id));
            unchanged &= self.ctl.len() == tracked;
            for v in views {
                match self.position(v.id) {
                    Ok(at) => self.ctl[at].1.push_rate(v.blocks_last_quantum, cfg.rate_window),
                    Err(at) => {
                        unchanged = false;
                        let mut c = InstanceCtl::new(cfg.rate_window);
                        c.push_rate(v.blocks_last_quantum, cfg.rate_window);
                        self.ctl.insert(at, (v.id, c));
                    }
                }
            }
        }
        let holder_bits = |e: Option<(InstanceId, f64)>| e.map(|(id, dt)| (id, dt.to_bits()));
        let previous = holder_bits(self.emergency);
        self.refresh_emergency(views);
        let emergency = self.emergency;
        unchanged &= holder_bits(emergency) == previous;

        // Each view's kernel-rate window sum, computed once per cycle (the
        // idle/contention branches below would otherwise re-derive them
        // quadratically).
        let mut sums = std::mem::take(&mut self.sum_buf);
        sums.clear();
        if aligned {
            sums.extend(self.ctl.iter().map(|(_, c)| c.window_sum));
        } else {
            sums.extend(
                views.iter().map(|v| self.position(v.id).map_or(0, |at| self.ctl[at].1.window_sum)),
            );
        }
        unchanged &= sums.iter().all(|&sum| sum == 0)
            && self.ctl.iter().all(|(_, c)| c.window.len() == cfg.rate_window);

        // Activity of SLO-sensitive co-runners, for best-effort ramping.
        let slo_active: bool =
            views.iter().zip(&sums).any(|(v, &sum)| v.class.is_slo_sensitive() && sum > 0);

        grants.clear();
        grants.reserve(views.len());
        for (i, v) in views.iter().enumerate() {
            let others_idle = sums.iter().enumerate().all(|(j, &sum)| j == i || sum == 0);
            let alone = views.len() == 1;
            let my_sum = sums[i];
            let at = if aligned {
                i
            } else {
                self.position(v.id).expect("every view's state was inserted above")
            };
            let ctl = &mut self.ctl[at].1;
            let request = cfg.max_tokens * v.request.as_fraction();
            let limit = cfg.max_tokens * v.limit.as_fraction();

            let (state, issue) = if v.class.is_slo_sensitive() {
                if emergency.is_some_and(|(id, _)| id == v.id) {
                    // Protective fast scale-up (Algorithm 2 line 14-15).
                    (ScaleState::Emergency, limit)
                } else if my_sum == 0 {
                    // Idle inference: release SMs down to request (line 16-17).
                    (ScaleState::Recovery, request)
                } else if others_idle {
                    // Everything else idle: expand into the fragments
                    // (line 18-19), up to the whole card.
                    (
                        ScaleState::Recovery,
                        (ctl.r_last.max(request) * cfg.eta_increase).min(cfg.max_tokens),
                    )
                } else {
                    // Stable contention (line 20-21).
                    (ScaleState::Contention, request)
                }
            } else if alone {
                // No collocation: the limit quota (line 24-25).
                (ScaleState::None, limit)
            } else if let Some((_, delta_t)) = emergency {
                // Fast scale-down proportional to the holder's inflation
                // (line 26-27).
                (ScaleState::Emergency, request.min(ctl.r_last.max(request)) / (1.0 + delta_t))
            } else if !slo_active {
                // SLO-sensitive co-runners idle: ramp toward limit
                // (line 28-29).
                (ScaleState::Recovery, (ctl.r_last.max(request) * cfg.eta_increase).min(limit))
            } else {
                // Contention: hold at request (line 30-31, floored at the
                // request quota to avoid starvation).
                (ScaleState::Contention, request)
            };

            unchanged &= ctl.state == state && ctl.r_last.to_bits() == issue.to_bits();
            ctl.state = state;
            ctl.r_last = issue;
            grants.push(Grant { id: v.id, smr: SmRate::from_fraction(issue.max(0.0)) });
        }
        self.sum_buf = sums;
        self.fixed_point = unchanged;
    }

    fn notify_resize(&mut self, id: InstanceId, request: SmRate, limit: SmRate) {
        // Quotas arrive fresh in the next cycle's views; only the derived
        // last-grant state needs re-clamping so a shrink takes effect this
        // quantum instead of waiting for the multiplicative ramp to decay,
        // and a grow starts its ramp from the new request floor.
        if let Ok(at) = self.position(id) {
            let ctl = &mut self.ctl[at].1;
            let floor = self.config.max_tokens * request.as_fraction();
            let ceiling = self.config.max_tokens * limit.as_fraction();
            ctl.r_last = ctl.r_last.clamp(floor.min(ceiling), ceiling);
        }
        self.fixed_point = false;
    }

    fn name(&self) -> &str {
        "dilu-rckm"
    }

    fn idle_history_cycles(&self) -> u64 {
        // 0 at a fixed point (see `fixed_point`), else the bound from any
        // state — what a fresh policy reads, and so the replay cap.
        if self.fixed_point {
            0
        } else {
            self.idle_bound
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_gpu::TaskClass;

    fn view(
        id: u64,
        class: TaskClass,
        request: f64,
        limit: f64,
        blocks: u64,
        inflation: f64,
    ) -> InstanceView {
        InstanceView {
            id: InstanceId(id),
            class,
            request: SmRate::from_percent(request),
            limit: SmRate::from_percent(limit),
            demand: SmRate::from_percent(limit),
            queue_len: 1,
            blocks_last_quantum: blocks,
            klc_inflation: inflation,
            idle_quanta: if blocks == 0 { 10 } else { 0 },
        }
    }

    fn grant_of(grants: &[Grant], id: u64) -> f64 {
        grants.iter().find(|g| g.id == InstanceId(id)).unwrap().smr.as_fraction()
    }

    fn tick(policy: &mut RckmPolicy, views: &[InstanceView]) -> Vec<Grant> {
        policy.allocate(SimTime::ZERO, SimDuration::from_millis(5), views)
    }

    #[test]
    fn solo_best_effort_gets_limit() {
        let mut p = RckmPolicy::new(RckmConfig::default());
        let g = tick(&mut p, &[view(1, TaskClass::BestEffort, 40.0, 80.0, 100, 0.0)]);
        assert!((grant_of(&g, 1) - 0.80).abs() < 1e-9);
        assert_eq!(p.state_of(InstanceId(1)), Some(ScaleState::None));
    }

    #[test]
    fn contention_holds_requests() {
        let mut p = RckmPolicy::new(RckmConfig::default());
        let views = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 50, 0.1),
            view(2, TaskClass::BestEffort, 50.0, 80.0, 80, 0.0),
        ];
        let g = tick(&mut p, &views);
        assert!((grant_of(&g, 1) - 0.30).abs() < 1e-9);
        assert!((grant_of(&g, 2) - 0.50).abs() < 1e-9);
        assert_eq!(p.state_of(InstanceId(2)), Some(ScaleState::Contention));
    }

    #[test]
    fn emergency_scales_inference_up_and_training_down() {
        let mut p = RckmPolicy::new(RckmConfig::default());
        let views = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 50, 1.0), // ΔT = 1.0 > η
            view(2, TaskClass::BestEffort, 50.0, 80.0, 80, 0.0),
        ];
        let g = tick(&mut p, &views);
        assert!((grant_of(&g, 1) - 0.60).abs() < 1e-9, "holder gets limit");
        // Training pushed to request/(1+ΔT) = 0.25.
        assert!((grant_of(&g, 2) - 0.25).abs() < 1e-9);
        assert_eq!(p.emergency_holder(), Some(InstanceId(1)));
    }

    #[test]
    fn emergency_clears_when_inflation_subsides() {
        let mut p = RckmPolicy::new(RckmConfig::default());
        let hot = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 50, 1.0),
            view(2, TaskClass::BestEffort, 50.0, 80.0, 80, 0.0),
        ];
        tick(&mut p, &hot);
        assert!(p.emergency_holder().is_some());
        let cooled = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 50, 0.1),
            view(2, TaskClass::BestEffort, 50.0, 80.0, 80, 0.0),
        ];
        tick(&mut p, &cooled);
        assert_eq!(p.emergency_holder(), None);
    }

    #[test]
    fn idle_inference_releases_sm_to_training() {
        let mut p = RckmPolicy::new(RckmConfig::default());
        let views = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 0, 0.0), // idle
            view(2, TaskClass::BestEffort, 50.0, 80.0, 80, 0.0),
        ];
        // Fill the inference window with idleness.
        let mut g = Vec::new();
        for _ in 0..12 {
            g = tick(&mut p, &views);
        }
        assert!((grant_of(&g, 1) - 0.30).abs() < 1e-9, "idle inference at request");
        // Training ramped toward its limit.
        assert!(grant_of(&g, 2) > 0.60, "training grant {}", grant_of(&g, 2));
        assert!(grant_of(&g, 2) <= 0.80 + 1e-9);
    }

    #[test]
    fn inference_expands_when_training_idle() {
        let mut p = RckmPolicy::new(RckmConfig::default());
        let views = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 60, 0.0),
            view(2, TaskClass::BestEffort, 50.0, 80.0, 0, 0.0), // idle
        ];
        let mut g = Vec::new();
        for _ in 0..12 {
            g = tick(&mut p, &views);
        }
        // Grows multiplicatively past its limit, up to the whole card.
        assert!(grant_of(&g, 1) > 0.60, "inference grant {}", grant_of(&g, 1));
    }

    #[test]
    fn conservative_max_tokens_caps_grants() {
        let mut p = RckmPolicy::new(RckmConfig { max_tokens: 0.5, ..RckmConfig::default() });
        let g = tick(&mut p, &[view(1, TaskClass::BestEffort, 40.0, 80.0, 100, 0.0)]);
        assert!((grant_of(&g, 1) - 0.40).abs() < 1e-9, "limit × MaxTokens");
    }

    #[test]
    fn departed_instances_are_pruned() {
        let mut p = RckmPolicy::new(RckmConfig::default());
        tick(
            &mut p,
            &[
                view(1, TaskClass::SloSensitive, 30.0, 60.0, 50, 0.0),
                view(2, TaskClass::BestEffort, 50.0, 80.0, 80, 0.0),
            ],
        );
        assert!(p.state_of(InstanceId(2)).is_some());
        tick(&mut p, &[view(1, TaskClass::SloSensitive, 30.0, 60.0, 50, 0.0)]);
        assert_eq!(p.state_of(InstanceId(2)), None);
    }

    #[test]
    fn notify_resize_takes_effect_within_one_cycle() {
        // Inference expands into an idle co-runner's SMs until its grant far
        // exceeds its limit. A vertical shrink must pull the next grant back
        // under the new ceiling immediately, not wait for the ramp to decay.
        let mut p = RckmPolicy::new(RckmConfig::default());
        let expanding = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 60, 0.0),
            view(2, TaskClass::BestEffort, 50.0, 80.0, 0, 0.0), // idle
        ];
        let mut g = Vec::new();
        for _ in 0..12 {
            g = tick(&mut p, &expanding);
        }
        assert!(grant_of(&g, 1) > 0.9, "expanded grant {}", grant_of(&g, 1));
        p.notify_resize(InstanceId(1), SmRate::from_percent(10.0), SmRate::from_percent(20.0));
        let shrunk = [
            view(1, TaskClass::SloSensitive, 10.0, 20.0, 60, 0.0),
            view(2, TaskClass::BestEffort, 50.0, 80.0, 0, 0.0),
        ];
        let g = tick(&mut p, &shrunk);
        // Ramp restarts from the clamped state: 0.2 × η = 0.26, not 1.0.
        assert!(grant_of(&g, 1) < 0.3, "post-shrink grant {}", grant_of(&g, 1));
    }

    #[test]
    fn idle_history_bound_tracks_the_config() {
        // Paper defaults converge well inside the trait floor of 96.
        let p = RckmPolicy::new(RckmConfig::default());
        assert_eq!(p.idle_history_cycles(), dilu_gpu::IDLE_HISTORY_CYCLES);
        // A much longer kernel-rate window raises the cap past the floor
        // instead of silently under-replaying idle cycles.
        let wide = RckmPolicy::new(RckmConfig { rate_window: 200, ..RckmConfig::default() });
        assert!(wide.idle_history_cycles() > dilu_gpu::IDLE_HISTORY_CYCLES);
        assert!(wide.idle_history_cycles() >= 200);
        // η ≤ 1 never ramps, so only the window term counts — still
        // floored at the trait default.
        let flat = RckmPolicy::new(RckmConfig { eta_increase: 1.0, ..RckmConfig::default() });
        assert_eq!(flat.idle_history_cycles(), dilu_gpu::IDLE_HISTORY_CYCLES);
    }

    /// `view` with its work gone: nothing queued, no blocks last cycle.
    fn workless(mut v: InstanceView) -> InstanceView {
        v.queue_len = 0;
        v.blocks_last_quantum = 0;
        v.demand = SmRate::ZERO;
        v
    }

    #[test]
    fn inference_only_gpu_reaches_its_fixed_point_within_the_window() {
        let cfg = RckmConfig::default();
        let mut p = RckmPolicy::new(cfg);
        let busy = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 60, 0.0),
            view(2, TaskClass::SloSensitive, 20.0, 40.0, 40, 0.0),
        ];
        for _ in 0..5 {
            tick(&mut p, &busy);
            assert_ne!(p.idle_history_cycles(), 0, "busy cycles move the state");
        }
        // The first workless cycle still shows the last step's blocks.
        let last_blocks = busy.map(|mut v| {
            v.queue_len = 0;
            v
        });
        let idle = busy.map(workless);
        let mut cycles = 1;
        tick(&mut p, &last_blocks);
        while p.idle_history_cycles() != 0 {
            tick(&mut p, &idle);
            cycles += 1;
            assert!(cycles <= cfg.rate_window + 2, "no fixed point after {cycles} cycles");
        }
        // At the fixed point another cycle changes nothing.
        let before = tick(&mut p, &idle);
        assert_eq!(tick(&mut p, &idle), before);
        assert_eq!(p.idle_history_cycles(), 0);
        // A resize re-clamps the derived grant: no longer a fixed point.
        p.notify_resize(InstanceId(1), SmRate::from_percent(10.0), SmRate::from_percent(20.0));
        assert_eq!(p.idle_history_cycles(), p.idle_bound);
    }

    #[test]
    fn no_fixed_point_while_a_ramp_climbs_or_work_is_queued() {
        // A best-effort co-runner with a 1 % request ramps toward its 100 %
        // limit once the inference window empties: ~18 cycles at η = 1.3,
        // longer than the 10-cycle window.
        let mut p = RckmPolicy::new(RckmConfig::default());
        let idle = [
            workless(view(1, TaskClass::SloSensitive, 30.0, 60.0, 0, 0.0)),
            workless(view(2, TaskClass::BestEffort, 1.0, 100.0, 0, 0.0)),
        ];
        let mut previous = None;
        let mut climbing = 0;
        for _ in 0..60 {
            let grant = grant_of(&tick(&mut p, &idle), 2);
            if previous != Some(grant) {
                climbing += 1;
                assert_ne!(p.idle_history_cycles(), 0, "fixed point while the ramp moves");
            }
            previous = Some(grant);
        }
        assert!(climbing > RckmConfig::default().rate_window, "the ramp outlasts the window");
        assert_eq!(p.idle_history_cycles(), 0, "the ramp tops out at the limit");
        // Queued work is never a fixed point, however long it stays put.
        let mut queued = idle;
        queued[0].queue_len = 1;
        for _ in 0..60 {
            tick(&mut p, &queued);
            assert_ne!(p.idle_history_cycles(), 0);
        }
    }

    #[test]
    fn grants_never_exceed_whole_gpu_per_instance() {
        let mut p = RckmPolicy::new(RckmConfig::default());
        let views = [
            view(1, TaskClass::SloSensitive, 90.0, 180.0, 60, 0.0),
            view(2, TaskClass::BestEffort, 90.0, 180.0, 0, 0.0),
        ];
        for _ in 0..50 {
            let g = tick(&mut p, &views);
            assert!(grant_of(&g, 1) <= 1.0 + 1e-9);
        }
    }
}
