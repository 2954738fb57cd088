//! The share-policy abstraction: who gets how much SM each quantum.

use dilu_sim::{SimDuration, SimTime};

use crate::{InstanceId, SmRate, TaskClass};

/// Default idle-history bound, in token cycles (~0.5 s of the default
/// 5 ms quantum): how many fully-workless cycles a shipped policy needs,
/// from any state, before its derived per-instance state provably reaches
/// a fixed point (kernel-rate windows filled with zeros, multiplicative
/// grant ramps at their ceilings). It is the default of
/// [`SharePolicy::idle_history_cycles`], and so the event-driven driver's
/// idle-replay cap for every policy that does not override it. Being a
/// constant, it never reads 0, so those policies replay to the cap.
pub const IDLE_HISTORY_CYCLES: u64 = 96;

/// A read-only view of one resident instance, handed to policies each
/// quantum.
///
/// This mirrors what the paper's RCKM server learns from its interception
/// library clients: quotas, task type, pending kernel queues, recent launch
/// rates, and kernel-launch-cycle inflation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceView {
    /// The instance this view describes.
    pub id: InstanceId,
    /// SLO-sensitive inference or best-effort training.
    pub class: TaskClass,
    /// Profiled minimum quota (the paper's `request`).
    pub request: SmRate,
    /// Profiled burst quota (the paper's `limit`).
    pub limit: SmRate,
    /// Current SM demand: the head item's saturation rate, or zero when the
    /// head is idle/absent.
    pub demand: SmRate,
    /// Items waiting in the slot queue (including the active one).
    pub queue_len: usize,
    /// Kernel blocks issued by this instance during the previous quantum.
    pub blocks_last_quantum: u64,
    /// Relative KLC inflation ΔT = (T_cur − T_min)/T_min of the most recent
    /// completed or in-flight compute item; `0.0` when uncontended.
    pub klc_inflation: f64,
    /// Quanta since this instance last issued a kernel block.
    ///
    /// Under an event-driven driver, long fully-idle gaps are replayed
    /// into the policy with a bounded number of cycles (see
    /// [`GpuEngine::idle_fastforward`](crate::GpuEngine::idle_fastforward)),
    /// so after such a gap this counter advances by at most the replay cap
    /// rather than the true gap length. Policies whose decisions hinge on
    /// idle spans longer than that cap should derive idleness from the
    /// `now` passed to [`SharePolicy::allocate_into`] instead.
    pub idle_quanta: u32,
}

/// An SM-rate grant for one instance for the coming quantum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grant {
    /// Grantee.
    pub id: InstanceId,
    /// Granted SM rate (will be clamped to demand and physical capacity by
    /// the engine).
    pub smr: SmRate,
}

/// Decides per-quantum SM grants for all instances resident on one GPU.
///
/// Implementations include Dilu's RCKM token manager (Algorithm 2), static
/// MPS partitions, TGS opportunistic sharing, and FaST-GS spatio-temporal
/// sharing. The trait is object-safe so engines can hold `Box<dyn
/// SharePolicy>`.
///
/// # Event-driven drivers and derived state
///
/// An event-driven driver skips token cycles in which no resident has
/// work and later replays a *bounded* number of idle cycles (capped at
/// this policy's own [`idle_history_cycles`](Self::idle_history_cycles)
/// bound, and cut short once that reads 0; see
/// [`GpuEngine::idle_fastforward`](crate::GpuEngine::idle_fastforward))
/// before the next real step. Policies whose derived per-instance state
/// converges to a fixed point within that many workless cycles — windows
/// filling with zeros, multiplicative ramps reaching their ceilings, as
/// RCKM's do — behave identically under dense and event-driven stepping.
/// A custom policy whose state converges more slowly must override
/// [`idle_history_cycles`](Self::idle_history_cycles) with its true
/// bound; one whose behaviour depends on *unboundedly* long idle spans
/// (e.g. "release quota after 10 s idle" counted in cycles) should track
/// time via `now` in [`allocate_into`](Self::allocate_into), or be run
/// under the dense time model.
pub trait SharePolicy {
    /// Computes grants for the quantum starting at `now` into `out`, which
    /// the policy clears first.
    ///
    /// Instances absent from `out` receive a zero grant. Grants above an
    /// instance's demand are clamped by the engine; the sum of grants may
    /// oversubscribe the GPU, in which case the engine shares physical
    /// capacity proportionally to the clamped grants. The engine calls
    /// this once per GPU per token cycle with a buffer it reuses, which is
    /// why grants are written in place rather than returned.
    fn allocate_into(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
        out: &mut Vec<Grant>,
    );

    /// [`allocate_into`](Self::allocate_into) into a fresh vector.
    fn allocate(
        &mut self,
        now: SimTime,
        quantum: SimDuration,
        views: &[InstanceView],
    ) -> Vec<Grant> {
        let mut out = Vec::new();
        self.allocate_into(now, quantum, views, &mut out);
        out
    }

    /// Notifies the policy that an instance's `<request, limit>` quotas were
    /// resized by the elasticity control plane (vertical scaling).
    ///
    /// Quotas in [`InstanceView`]s already reflect the new values at the
    /// next [`allocate_into`](Self::allocate_into) call; this hook exists
    /// for policies that carry *derived* per-instance state (e.g. RCKM's
    /// last-issued grant) and must re-clamp it so the resize takes effect
    /// within one quantum rather than after the state decays. The default
    /// does nothing.
    fn notify_resize(&mut self, id: InstanceId, request: SmRate, limit: SmRate) {
        let _ = (id, request, limit);
    }

    /// A short human-readable policy name for reports.
    fn name(&self) -> &str;

    /// An upper bound, from the policy's current state, on the
    /// fully-workless token cycles still needed before that state stops
    /// changing — replaying more idle cycles than this provably cannot
    /// change any subsequent grant.
    ///
    /// The event-driven driver reads it in two places:
    ///
    /// * **On the fresh policy, as its idle-replay cap.** After a gap
    ///   longer than the cap it replays only this many trailing idle
    ///   cycles instead of the whole gap, and the bound is what makes that
    ///   shortcut byte-identical to dense stepping. A fresh policy's
    ///   reading must therefore hold from *any* state. A policy whose
    ///   state converges more slowly than the default allows (longer rate
    ///   windows, shallower ramps, explicit idle counters) must override
    ///   this with its true bound — or track long idleness via `now` in
    ///   [`allocate_into`](Self::allocate_into) as the module docs
    ///   describe.
    /// * **After every replayed cycle.** 0 promises that another call with
    ///   the same workless views changes neither the state nor the grants,
    ///   so [`GpuEngine::idle_fastforward`](crate::GpuEngine::idle_fastforward)
    ///   skips the rest of the replay. Debug builds replay it anyway and
    ///   panic if the promise breaks.
    ///
    /// The default, [`IDLE_HISTORY_CYCLES`], is a constant: it covers
    /// every shipped policy's windows and ramps with a wide margin and
    /// never reads 0, so a policy keeping it always replays to the cap.
    fn idle_history_cycles(&self) -> u64 {
        IDLE_HISTORY_CYCLES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct GrantAll;

    impl SharePolicy for GrantAll {
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
            "grant-all"
        }
    }

    #[test]
    fn policies_are_object_safe() {
        let mut boxed: Box<dyn SharePolicy> = Box::new(GrantAll);
        let views = [InstanceView {
            id: InstanceId(1),
            class: TaskClass::SloSensitive,
            request: SmRate::from_percent(20.0),
            limit: SmRate::from_percent(40.0),
            demand: SmRate::from_percent(30.0),
            queue_len: 1,
            blocks_last_quantum: 10,
            klc_inflation: 0.0,
            idle_quanta: 0,
        }];
        let grants = boxed.allocate(SimTime::ZERO, SimDuration::from_millis(5), &views);
        assert_eq!(grants.len(), 1);
        assert_eq!(boxed.name(), "grant-all");
    }
}
