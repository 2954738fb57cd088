//! GPU-sharing baseline policies.

use std::collections::BTreeMap;

use dilu_gpu::{Grant, InstanceId, InstanceView, SharePolicy, SmRate};
use dilu_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Which profiled quota an MPS partition pins each instance to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QuotaSource {
    /// The paper's *MPS-r*: static partitions at the `request` quota.
    Request,
    /// The paper's *MPS-l*: static partitions at the `limit` quota.
    Limit,
}

/// NVIDIA-MPS-style static spatial partitioning.
///
/// Each instance is permanently capped at its profiled quota; idle
/// partitions strand their SM share (the Table 1 "static" column).
///
/// # Examples
///
/// ```
/// use dilu_baselines::{MpsPolicy, QuotaSource};
/// use dilu_gpu::SharePolicy;
///
/// assert_eq!(MpsPolicy::new(QuotaSource::Limit).name(), "mps-l");
/// assert_eq!(MpsPolicy::new(QuotaSource::Request).name(), "mps-r");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MpsPolicy {
    source: QuotaSource,
}

impl MpsPolicy {
    /// Creates an MPS partition pinned at the given quota source.
    pub fn new(source: QuotaSource) -> Self {
        MpsPolicy { source }
    }
}

impl SharePolicy for MpsPolicy {
    fn allocate_into(
        &mut self,
        _now: SimTime,
        _quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        out.clear();
        out.extend(views.iter().map(|v| Grant {
            id: v.id,
            smr: match self.source {
                QuotaSource::Request => v.request,
                QuotaSource::Limit => v.limit,
            },
        }));
    }

    fn name(&self) -> &str {
        match self.source {
            QuotaSource::Request => "mps-r",
            QuotaSource::Limit => "mps-l",
        }
    }
}

/// TGS-style transparent sharing (Wu et al., NSDI '23).
///
/// Productive (SLO-sensitive) jobs run unthrottled. Opportunistic
/// (best-effort) jobs receive a tiny probe rate that grows multiplicatively
/// only while the productive job has been idle over a trial window, and
/// collapses the moment it becomes active — the paper's explanation for
/// TGS "nearly stopping" collocated training and for its extreme
/// inference-inference latencies (the second inference instance is
/// opportunistic). The productive job is the first-admitted SLO-sensitive
/// resident, or the first-admitted instance when none is.
#[derive(Debug, Clone)]
pub struct TgsPolicy {
    /// Initial/collapsed opportunistic rate.
    floor: f64,
    /// Multiplicative growth per quantum while the productive side idles.
    growth: f64,
    rates: BTreeMap<InstanceId, f64>,
}

impl TgsPolicy {
    /// Creates a TGS policy with the default probe parameters.
    pub fn new() -> Self {
        TgsPolicy { floor: 0.02, growth: 1.05, rates: BTreeMap::new() }
    }
}

impl Default for TgsPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SharePolicy for TgsPolicy {
    fn allocate_into(
        &mut self,
        _now: SimTime,
        _quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        self.rates.retain(|id, _| views.iter().any(|v| v.id == *id));
        // TGS knows one productive job per GPU; everything else is
        // opportunistic. With an SLO-sensitive resident that job is the
        // productive one, otherwise the first-admitted instance is.
        let productive_id = views
            .iter()
            .filter(|v| v.class.is_slo_sensitive())
            .map(|v| v.id)
            .min()
            .or_else(|| views.iter().map(|v| v.id).min());
        let productive = |v: &InstanceView| productive_id == Some(v.id);
        // "Recently active" = launched kernels within the last few quanta.
        let productive_active = views.iter().any(|v| productive(v) && v.idle_quanta < 4);
        out.clear();
        out.extend(views.iter().map(|v| {
            if productive(v) {
                Grant { id: v.id, smr: SmRate::FULL }
            } else {
                let rate = self.rates.entry(v.id).or_insert(self.floor);
                if productive_active {
                    *rate = self.floor;
                } else {
                    *rate = (*rate * self.growth).min(1.0);
                }
                Grant { id: v.id, smr: SmRate::from_fraction(*rate) }
            }
        }));
    }

    fn name(&self) -> &str {
        "tgs"
    }
}

/// FaST-GShare-style spatio-temporal sharing (ICPP '23).
///
/// Spatially each instance owns its MPS `limit` partition; temporally, idle
/// partitions are lent to active instances. The CUDA-event time accounting
/// and prioritized dequeuing cost a fixed efficiency tax on every grant —
/// the overhead the paper measures against MPS-l, negligible only for small
/// (low-saturation) models.
#[derive(Debug, Clone)]
pub struct FastGsPolicy {
    /// Fractional overhead on large-model grants.
    overhead: f64,
}

impl FastGsPolicy {
    /// Creates a FaST-GS policy with the paper-calibrated overhead.
    pub fn new() -> Self {
        FastGsPolicy { overhead: 0.08 }
    }
}

impl Default for FastGsPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl SharePolicy for FastGsPolicy {
    fn allocate_into(
        &mut self,
        _now: SimTime,
        _quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        let idle_pool: f64 =
            views.iter().filter(|v| v.idle_quanta >= 4).map(|v| v.limit.as_fraction()).sum();
        let active = views.iter().filter(|v| v.idle_quanta < 4).count();
        let share = if active == 0 { 0.0 } else { idle_pool / active as f64 };
        out.clear();
        out.extend(views.iter().map(|v| {
            let base = if v.idle_quanta < 4 {
                v.limit.as_fraction() + share
            } else {
                v.limit.as_fraction()
            };
            // Event-statistics overhead bites models that need many SMs;
            // small kernels slip through the prioritized queue unharmed.
            let tax = if v.demand.as_fraction() >= 0.35 { self.overhead } else { 0.01 };
            Grant { id: v.id, smr: SmRate::from_fraction((base * (1.0 - tax)).max(0.0)) }
        }));
    }

    fn name(&self) -> &str {
        "fast-gs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_gpu::TaskClass;

    fn view(id: u64, class: TaskClass, request: f64, limit: f64, idle_quanta: u32) -> InstanceView {
        InstanceView {
            id: InstanceId(id),
            class,
            request: SmRate::from_percent(request),
            limit: SmRate::from_percent(limit),
            demand: SmRate::from_percent(50.0),
            queue_len: 1,
            blocks_last_quantum: if idle_quanta == 0 { 10 } else { 0 },
            klc_inflation: 0.0,
            idle_quanta,
        }
    }

    fn tick(p: &mut dyn SharePolicy, views: &[InstanceView]) -> Vec<Grant> {
        p.allocate(SimTime::ZERO, SimDuration::from_millis(5), views)
    }

    fn grant_of(grants: &[Grant], id: u64) -> f64 {
        grants.iter().find(|g| g.id == InstanceId(id)).unwrap().smr.as_fraction()
    }

    #[test]
    fn mps_grants_are_static_even_when_idle() {
        let views = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 100),
            view(2, TaskClass::BestEffort, 40.0, 80.0, 0),
        ];
        let mut l = MpsPolicy::new(QuotaSource::Limit);
        let g = tick(&mut l, &views);
        assert_eq!(grant_of(&g, 1), 0.60);
        assert_eq!(grant_of(&g, 2), 0.80);
        let mut r = MpsPolicy::new(QuotaSource::Request);
        let g = tick(&mut r, &views);
        assert_eq!(grant_of(&g, 1), 0.30);
        assert_eq!(grant_of(&g, 2), 0.40);
    }

    #[test]
    fn tgs_starves_opportunistic_while_productive_is_active() {
        let mut p = TgsPolicy::new();
        let views = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 0),
            view(2, TaskClass::BestEffort, 40.0, 80.0, 0),
        ];
        for _ in 0..20 {
            let g = tick(&mut p, &views);
            assert_eq!(grant_of(&g, 1), 1.0);
            assert!(grant_of(&g, 2) <= 0.02 + 1e-9, "opportunistic must stay collapsed");
        }
    }

    #[test]
    fn tgs_grows_opportunistic_when_productive_idles() {
        let mut p = TgsPolicy::new();
        let views = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 100),
            view(2, TaskClass::BestEffort, 40.0, 80.0, 0),
        ];
        let mut last = 0.0;
        for _ in 0..60 {
            let g = tick(&mut p, &views);
            let now = grant_of(&g, 2);
            assert!(now >= last, "opportunistic rate must grow");
            last = now;
        }
        assert!(last > 0.3, "after idling the trial rate climbs, got {last}");
        // Productive wakes up: collapse.
        let awake = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 0),
            view(2, TaskClass::BestEffort, 40.0, 80.0, 0),
        ];
        let g = tick(&mut p, &awake);
        assert!(grant_of(&g, 2) <= 0.02 + 1e-9);
    }

    #[test]
    fn tgs_picks_a_productive_job_among_best_effort_pairs() {
        let mut p = TgsPolicy::new();
        let views = [
            view(1, TaskClass::BestEffort, 30.0, 60.0, 0),
            view(2, TaskClass::BestEffort, 40.0, 80.0, 0),
        ];
        let g = tick(&mut p, &views);
        assert_eq!(grant_of(&g, 1), 1.0, "lowest id is productive");
        assert!(grant_of(&g, 2) < 0.1);
    }

    #[test]
    fn fast_gs_lends_idle_partitions_with_overhead() {
        let mut p = FastGsPolicy::new();
        let views = [
            view(1, TaskClass::SloSensitive, 30.0, 60.0, 0),
            view(2, TaskClass::BestEffort, 40.0, 80.0, 10),
        ];
        let g = tick(&mut p, &views);
        // Active instance gets its 0.6 plus the idle 0.8, taxed 8%.
        assert!((grant_of(&g, 1) - (0.6 + 0.8) * 0.92).abs() < 1e-9);
    }

    #[test]
    fn fast_gs_overhead_spares_small_models() {
        let mut p = FastGsPolicy::new();
        let mut small = view(1, TaskClass::SloSensitive, 30.0, 60.0, 0);
        small.demand = SmRate::from_percent(20.0);
        let g = tick(&mut p, &[small]);
        assert!((grant_of(&g, 1) - 0.6 * 0.99).abs() < 1e-9);
    }
}
