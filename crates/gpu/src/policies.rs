//! Elementary share policies shipped with the engine.
//!
//! These are building blocks and references: the interesting policies —
//! Dilu's RCKM (crate `dilu-rckm`) and the MPS/TGS/FaST-GS baselines (crate
//! `dilu-baselines`) — implement [`SharePolicy`] on top of the same views.

use dilu_sim::{SimDuration, SimTime};

use crate::{Grant, InstanceId, InstanceView, SharePolicy, SmRate};

/// Grants every instance the full GPU; the engine's physical resolution then
/// shares capacity proportionally to demand.
///
/// This models an unmanaged GPU (no MPS, no tokens): all co-resident kernel
/// streams contend freely. With a single resident instance it is exactly the
/// paper's *Exclusive* pass-through mode.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairSharePolicy;

impl SharePolicy for FairSharePolicy {
    fn allocate_into(
        &mut self,
        _now: SimTime,
        _quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        out.clear();
        out.extend(views.iter().map(|v| Grant { id: v.id, smr: SmRate::FULL }));
    }

    fn name(&self) -> &str {
        "fair-share"
    }
}

/// A static spatial partition: each instance is permanently capped at a
/// fixed SM rate, like NVIDIA MPS's `CUDA_MPS_ACTIVE_THREAD_PERCENTAGE`.
///
/// Unlisted instances receive zero. Idle partitions strand their SM share —
/// the fragmentation source Dilu eliminates.
///
/// # Examples
///
/// ```
/// use dilu_gpu::policies::StaticPartitionPolicy;
/// use dilu_gpu::{InstanceId, SmRate};
///
/// let mps = StaticPartitionPolicy::new([
///     (InstanceId(1), SmRate::from_percent(30.0)),
///     (InstanceId(2), SmRate::from_percent(70.0)),
/// ]);
/// assert_eq!(mps.quota(InstanceId(1)), Some(SmRate::from_percent(30.0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StaticPartitionPolicy {
    quotas: Vec<(InstanceId, SmRate)>,
}

impl StaticPartitionPolicy {
    /// Creates a partition from `(instance, quota)` pairs.
    pub fn new<I: IntoIterator<Item = (InstanceId, SmRate)>>(quotas: I) -> Self {
        StaticPartitionPolicy { quotas: quotas.into_iter().collect() }
    }

    /// Adds or replaces an instance's static quota.
    pub fn set_quota(&mut self, id: InstanceId, quota: SmRate) {
        match self.quotas.iter_mut().find(|(qid, _)| *qid == id) {
            Some((_, q)) => *q = quota,
            None => self.quotas.push((id, quota)),
        }
    }

    /// Removes an instance's quota (it will be granted zero afterwards).
    pub fn remove(&mut self, id: InstanceId) {
        self.quotas.retain(|(qid, _)| *qid != id);
    }

    /// The static quota of `id`, if registered.
    pub fn quota(&self, id: InstanceId) -> Option<SmRate> {
        self.quotas.iter().find(|(qid, _)| *qid == id).map(|&(_, q)| q)
    }
}

impl SharePolicy for StaticPartitionPolicy {
    fn allocate_into(
        &mut self,
        _now: SimTime,
        _quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    ) {
        out.clear();
        out.extend(
            views.iter().map(|v| Grant { id: v.id, smr: self.quota(v.id).unwrap_or(SmRate::ZERO) }),
        );
    }

    fn name(&self) -> &str {
        "static-partition"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskClass;

    fn view(id: u64, demand: f64) -> InstanceView {
        InstanceView {
            id: InstanceId(id),
            class: TaskClass::SloSensitive,
            request: SmRate::from_percent(20.0),
            limit: SmRate::from_percent(40.0),
            demand: SmRate::from_percent(demand),
            queue_len: 1,
            blocks_last_quantum: 0,
            klc_inflation: 0.0,
            idle_quanta: 0,
        }
    }

    #[test]
    fn fair_share_grants_full_to_all() {
        let grants =
            FairSharePolicy.allocate(SimTime::ZERO, SimDuration::from_millis(5), &[view(1, 50.0)]);
        assert_eq!(grants, vec![Grant { id: InstanceId(1), smr: SmRate::FULL }]);
    }

    #[test]
    fn static_partition_caps_and_updates() {
        let mut mps = StaticPartitionPolicy::new([(InstanceId(1), SmRate::from_percent(30.0))]);
        let grants = mps.allocate(
            SimTime::ZERO,
            SimDuration::from_millis(5),
            &[view(1, 90.0), view(2, 90.0)],
        );
        assert_eq!(grants[0].smr, SmRate::from_percent(30.0));
        assert_eq!(grants[1].smr, SmRate::ZERO);

        mps.set_quota(InstanceId(2), SmRate::from_percent(50.0));
        mps.set_quota(InstanceId(1), SmRate::from_percent(40.0));
        assert_eq!(mps.quota(InstanceId(1)), Some(SmRate::from_percent(40.0)));
        mps.remove(InstanceId(1));
        assert_eq!(mps.quota(InstanceId(1)), None);
    }
}
