//! The quantum-stepped GPU execution engine.

use std::collections::VecDeque;

use dilu_sim::{SimDuration, SimTime};

use crate::curves::rate_factor;
use crate::{GpuError, Grant, InstanceId, InstanceView, SharePolicy, SmRate, WorkItem, WorkKind};

/// The scheduling quantum: the paper's 5 ms RCKM token period. Every
/// engine steps on it, and share policies are consulted once per quantum.
pub const QUANTUM: SimDuration = SimDuration::from_millis(5);

/// Static configuration of a resident instance slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlotConfig {
    /// SLO-sensitive inference or best-effort training.
    pub class: crate::TaskClass,
    /// Profiled minimum SM quota.
    pub request: SmRate,
    /// Profiled burst SM quota.
    pub limit: SmRate,
    /// Device memory reserved for the lifetime of the instance.
    pub mem_bytes: u64,
}

/// A finished work item.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The instance whose item finished.
    pub instance: InstanceId,
    /// Caller correlation id from the [`WorkItem`].
    pub tag: u64,
    /// Completion instant (within the stepped quantum).
    pub at: SimTime,
    /// Wall time from the item becoming active to completion.
    pub elapsed: SimDuration,
    /// KLC inflation of the item: `elapsed / ideal − 1` (0 when ideal).
    pub klc_inflation: f64,
}

/// Per-quantum result of [`GpuEngine::step`].
///
/// Per-instance *consumed* SM rates are not materialised (only the sum):
/// the step path is the simulator's innermost loop and every avoidable
/// per-quantum allocation there is wall-clock at cluster scale. Callers
/// needing per-instance telemetry read [`GpuEngine::views`] between steps.
#[derive(Debug, Clone, Default)]
pub struct StepOutcome {
    /// Items that finished during the quantum, in completion order.
    pub completions: Vec<Completion>,
    /// Sum of consumed SM rate (≤ 1.0).
    pub total_used: SmRate,
    /// Kernel blocks issued per instance this quantum.
    pub blocks_issued: Vec<(InstanceId, u64)>,
}

#[derive(Debug, Clone)]
struct Active {
    item: WorkItem,
    progress: f64,
    blocks_issued: u64,
    elapsed: SimDuration,
}

impl Active {
    fn new(item: WorkItem) -> Self {
        Active { item, progress: 0.0, blocks_issued: 0, elapsed: SimDuration::ZERO }
    }
}

#[derive(Debug, Clone)]
struct Slot {
    config: SlotConfig,
    queue: VecDeque<WorkItem>,
    active: Option<Active>,
    blocks_last_quantum: u64,
    blocks_total: u64,
    idle_quanta: u32,
    last_klc_inflation: f64,
}

impl Slot {
    fn new(config: SlotConfig) -> Self {
        Slot {
            config,
            queue: VecDeque::new(),
            active: None,
            blocks_last_quantum: 0,
            blocks_total: 0,
            idle_quanta: 0,
            last_klc_inflation: 0.0,
        }
    }

    /// Makes the head of the queue the active item if none is active.
    fn activate_head(&mut self) {
        if self.active.is_none() {
            if let Some(item) = self.queue.pop_front() {
                self.active = Some(Active::new(item));
            }
        }
    }

    /// The share policy's view of this slot.
    fn view(&self, id: InstanceId) -> InstanceView {
        InstanceView {
            id,
            class: self.config.class,
            request: self.config.request,
            limit: self.config.limit,
            demand: self.head_demand(),
            queue_len: self.queue_len(),
            blocks_last_quantum: self.blocks_last_quantum,
            klc_inflation: self.klc_inflation_estimate(),
            idle_quanta: self.idle_quanta,
        }
    }

    fn head_demand(&self) -> SmRate {
        match &self.active {
            Some(a) => a.item.demand(),
            None => self.queue.front().map(WorkItem::demand).unwrap_or(SmRate::ZERO),
        }
    }

    fn queue_len(&self) -> usize {
        self.queue.len() + usize::from(self.active.is_some())
    }

    fn klc_inflation_estimate(&self) -> f64 {
        match &self.active {
            Some(a) if matches!(a.item.kind, WorkKind::Compute { .. }) => {
                let ideal = a.item.ideal_duration().as_secs_f64();
                if ideal <= 0.0 {
                    return self.last_klc_inflation;
                }
                let projected = if a.progress > 1e-9 {
                    a.elapsed.as_secs_f64() / a.progress
                } else {
                    // Starved item: elapsed alone already signals inflation.
                    a.elapsed.as_secs_f64() + ideal
                };
                ((projected / ideal) - 1.0).max(0.0)
            }
            _ => self.last_klc_inflation,
        }
    }
}

/// A simulated GPU: memory pool plus quantum-stepped SM contention engine.
///
/// See the [crate-level docs](crate) for the model and an end-to-end
/// example.
#[derive(Debug)]
pub struct GpuEngine {
    mem_capacity: u64,
    mem_used: u64,
    /// Resident slots, sorted by id: a lookup is a binary search, and a
    /// step walks them in the order the policy's views list them.
    slots: Vec<(InstanceId, Slot)>,
    blocks_total: u64,
    /// Reused per-step scratch for policy views (hot-loop allocation
    /// avoidance; cleared each step).
    view_buf: Vec<InstanceView>,
    /// Reused per-step scratch: the resolved effective rates, one per
    /// slot at the slot's position.
    eff_buf: Vec<f64>,
    /// Reused per-step scratch for policy grants.
    grant_buf: Vec<Grant>,
}

impl GpuEngine {
    /// Creates a GPU with the given device memory.
    pub fn new(mem_capacity: u64) -> Self {
        GpuEngine {
            mem_capacity,
            mem_used: 0,
            slots: Vec::new(),
            blocks_total: 0,
            view_buf: Vec::new(),
            eff_buf: Vec::new(),
            grant_buf: Vec::new(),
        }
    }

    /// Total device memory in bytes.
    pub fn mem_capacity(&self) -> u64 {
        self.mem_capacity
    }

    /// Device memory currently reserved by resident instances.
    pub fn mem_used(&self) -> u64 {
        self.mem_used
    }

    /// Number of resident instances.
    pub fn resident_count(&self) -> usize {
        self.slots.len()
    }

    /// Resident instance ids in deterministic (ascending) order.
    pub fn instances(&self) -> impl Iterator<Item = InstanceId> + '_ {
        self.slots.iter().map(|&(id, _)| id)
    }

    /// The position of `id` among the slots, or where it would be inserted.
    fn position(&self, id: InstanceId) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&id, |&(sid, _)| sid)
    }

    /// The resident slot of `id`.
    fn slot(&self, id: InstanceId) -> Result<&Slot, GpuError> {
        let at = self.position(id).map_err(|_| GpuError::UnknownInstance(id))?;
        Ok(&self.slots[at].1)
    }

    /// The resident slot of `id`, mutably.
    fn slot_mut(&mut self, id: InstanceId) -> Result<&mut Slot, GpuError> {
        let at = self.position(id).map_err(|_| GpuError::UnknownInstance(id))?;
        Ok(&mut self.slots[at].1)
    }

    /// Total kernel blocks issued by all instances since creation.
    pub fn blocks_total(&self) -> u64 {
        self.blocks_total
    }

    /// Admits an instance, reserving its memory.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::DuplicateInstance`] if `id` is already resident
    /// and [`GpuError::OutOfMemory`] if the reservation does not fit.
    pub fn admit(&mut self, id: InstanceId, config: SlotConfig) -> Result<(), GpuError> {
        let Err(at) = self.position(id) else {
            return Err(GpuError::DuplicateInstance(id));
        };
        let available = self.mem_capacity - self.mem_used;
        if config.mem_bytes > available {
            return Err(GpuError::OutOfMemory { requested: config.mem_bytes, available });
        }
        self.mem_used += config.mem_bytes;
        self.slots.insert(at, (id, Slot::new(config)));
        Ok(())
    }

    /// Evicts an instance, releasing its memory and dropping queued work.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownInstance`] if `id` is not resident.
    pub fn evict(&mut self, id: InstanceId) -> Result<(), GpuError> {
        let at = self.position(id).map_err(|_| GpuError::UnknownInstance(id))?;
        let (_, slot) = self.slots.remove(at);
        self.mem_used -= slot.config.mem_bytes;
        Ok(())
    }

    /// Resizes an instance's `<request, limit>` SM quotas in place.
    ///
    /// The memory reservation and task class are untouched; the new quotas
    /// are visible to the [`SharePolicy`] at the very next [`step`](Self::step)
    /// (the paper's millisecond-scale vertical scaling — no eviction or
    /// re-admission). `request` is clamped to one whole GPU and `limit` is
    /// clamped up to at least `request`. The engine does not police
    /// cross-instance oversubscription — Σ requests above capacity is the
    /// controller's responsibility and resolves proportionally at step time.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownInstance`] if `id` is not resident.
    pub fn resize(
        &mut self,
        id: InstanceId,
        request: SmRate,
        limit: SmRate,
    ) -> Result<(), GpuError> {
        let slot = self.slot_mut(id)?;
        let request = request.min(SmRate::FULL);
        slot.config.request = request;
        slot.config.limit = limit.max(request);
        Ok(())
    }

    /// Enqueues a work item on an instance.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownInstance`] if `id` is not resident.
    pub fn push_work(&mut self, id: InstanceId, item: WorkItem) -> Result<(), GpuError> {
        self.slot_mut(id)?.queue.push_back(item);
        Ok(())
    }

    /// Pending items (including the active one) for an instance.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownInstance`] if `id` is not resident.
    pub fn queue_len(&self, id: InstanceId) -> Result<usize, GpuError> {
        self.slot(id).map(Slot::queue_len)
    }

    /// Kernel blocks issued by one instance since admission.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownInstance`] if `id` is not resident.
    pub fn instance_blocks_total(&self, id: InstanceId) -> Result<u64, GpuError> {
        self.slot(id).map(|s| s.blocks_total)
    }

    /// `true` when no instance has pending work.
    pub fn is_idle(&self) -> bool {
        self.slots.iter().all(|(_, s)| s.queue_len() == 0)
    }

    /// The next instant at which this GPU needs to be stepped, given the
    /// last step ran at `now`, or `None` when the engine is idle.
    ///
    /// Grants are renegotiated every token cycle, so while any slot has
    /// pending work the next interesting instant is the next quantum
    /// boundary; completions *inside* a quantum are already reported at
    /// their exact instants by [`step`](Self::step). An idle engine has no
    /// next event — a wake-on-work driver simply stops scheduling it and
    /// calls [`idle_fastforward`](Self::idle_fastforward) before the next
    /// real step.
    pub fn next_event_at(&self, now: SimTime) -> Option<SimTime> {
        if self.is_idle() {
            None
        } else {
            Some(now + QUANTUM)
        }
    }

    /// Replays `cycles` workless token cycles starting at `from`, as if
    /// [`step`](Self::step) had been called that many times with every
    /// queue empty.
    ///
    /// An event-driven driver skips quanta in which no slot has work; this
    /// keeps the *policy* evolution identical to a dense per-quantum
    /// stepper across the gap: share policies carry derived state (RCKM's
    /// kernel-rate windows, last-grant ramps, idle counters) that dense
    /// stepping feeds with empty observations every cycle. Each replayed
    /// cycle zeroes per-cycle counters, presents the views, consults the
    /// policy (grants are discarded — nothing can run), and ages the idle
    /// counters, in exactly the dense order.
    ///
    /// Callers cap `cycles` at the policy's bound from any state (see
    /// [`SharePolicy::idle_history_cycles`]), so a long gap costs a bounded
    /// replay rather than O(gap).
    ///
    /// The replay also stops early at the policy's fixed point. The first
    /// cycle always runs: it is the one whose views can differ from the
    /// policy's last call (an instance admitted or evicted since, the
    /// kernel blocks of the last real step). From the second cycle on the
    /// views repeat except for `idle_quanta`. So once the policy reads 0
    /// from [`idle_history_cycles`](SharePolicy::idle_history_cycles)
    /// after a replayed cycle, every remaining cycle is a no-op for it:
    /// they are added to each slot's `idle_quanta` in one step instead of
    /// being replayed. Debug builds replay them anyway and panic, naming
    /// the policy, if one of them changes the grants or the reading.
    ///
    /// No work progresses during the replay. Callers normally invoke this
    /// while the engine is idle; if items are already queued (a deployment
    /// landing right after an idle gap), the replayed views anachronistically
    /// show their head demand — a bounded approximation, since grants are
    /// discarded either way.
    pub fn idle_fastforward(&mut self, from: SimTime, cycles: u64, policy: &mut dyn SharePolicy) {
        let mut now = from;
        let mut views = std::mem::take(&mut self.view_buf);
        let mut grants = std::mem::take(&mut self.grant_buf);
        // Debug oracle: the grants of the cycle after which the policy
        // first read 0, which every further cycle must repeat.
        let mut fixed_point: Option<Vec<Grant>> = None;
        for replayed in 1..=cycles {
            self.views_into(&mut views);
            policy.allocate_into(now, QUANTUM, &views, &mut grants);
            for (_, slot) in self.slots.iter_mut() {
                slot.blocks_last_quantum = 0;
                slot.idle_quanta = slot.idle_quanta.saturating_add(1);
            }
            now += QUANTUM;
            if let Some(reference) = &fixed_point {
                assert!(
                    grants == *reference && policy.idle_history_cycles() == 0,
                    "share policy `{}` read 0 idle-history cycles, but a further workless \
                     cycle changed its grants or its reading",
                    policy.name(),
                );
            } else if replayed < cycles && policy.idle_history_cycles() == 0 {
                if cfg!(debug_assertions) {
                    fixed_point = Some(grants.clone());
                } else {
                    let skipped = u32::try_from(cycles - replayed).unwrap_or(u32::MAX);
                    for (_, slot) in self.slots.iter_mut() {
                        slot.idle_quanta = slot.idle_quanta.saturating_add(skipped);
                    }
                    break;
                }
            }
        }
        self.view_buf = views;
        self.grant_buf = grants;
    }

    /// Builds policy views of all resident instances (ascending id order).
    pub fn views(&self) -> Vec<InstanceView> {
        let mut buf = Vec::with_capacity(self.slots.len());
        self.views_into(&mut buf);
        buf
    }

    /// [`views`](Self::views) into a caller-owned buffer (cleared first).
    fn views_into(&self, buf: &mut Vec<InstanceView>) {
        buf.clear();
        buf.extend(self.slots.iter().map(|(id, slot)| slot.view(*id)));
    }

    /// Advances the GPU by one quantum starting at `now`.
    ///
    /// The policy is consulted once. Each grant is capped at one whole GPU,
    /// and a slot whose head item demands no SMs (an idle phase or an empty
    /// queue) gets nothing. If the capped grants sum above the GPU, all of
    /// them are scaled down proportionally. A grant is *not* clamped to the
    /// head item's demand: the slot occupies all it is granted, only the
    /// share up to the item's saturation does useful work (at
    /// [`rate_factor`]), and the rest of the grant strands SMs. Idle items
    /// elapse in wall time.
    pub fn step(&mut self, now: SimTime, policy: &mut dyn SharePolicy) -> StepOutcome {
        let mut outcome = StepOutcome::default();
        self.step_into(now, policy, &mut outcome);
        outcome
    }

    /// [`step`](Self::step) into a caller-owned outcome (cleared first) —
    /// the allocation-free form for drivers stepping millions of quanta.
    pub fn step_into(
        &mut self,
        now: SimTime,
        policy: &mut dyn SharePolicy,
        outcome: &mut StepOutcome,
    ) {
        outcome.completions.clear();
        outcome.blocks_issued.clear();
        outcome.total_used = SmRate::ZERO;
        // One pass activates head items, so demand reflects this quantum's
        // work, and builds the policy's views.
        let mut views = std::mem::take(&mut self.view_buf);
        views.clear();
        for (id, slot) in self.slots.iter_mut() {
            slot.activate_head();
            views.push(slot.view(*id));
        }
        let mut grants = std::mem::take(&mut self.grant_buf);
        policy.allocate_into(now, QUANTUM, &views, &mut grants);
        let mut effective = std::mem::take(&mut self.eff_buf);
        self.resolve_grants(&grants, &mut effective);
        self.view_buf = views;
        self.grant_buf = grants;

        for ((id, slot), &eff) in self.slots.iter_mut().zip(&effective) {
            let id = *id;
            let (used, blocks) = advance_slot(id, slot, now, eff, &mut outcome.completions);
            slot.blocks_last_quantum = blocks;
            slot.blocks_total += blocks;
            self.blocks_total += blocks;
            if blocks == 0 {
                slot.idle_quanta = slot.idle_quanta.saturating_add(1);
            } else {
                slot.idle_quanta = 0;
            }
            outcome.total_used += SmRate::from_fraction(used);
            if blocks > 0 {
                outcome.blocks_issued.push((id, blocks));
            }
        }
        self.eff_buf = effective;
    }

    /// Resolves physical contention over granted occupancy.
    ///
    /// A kernel stream *occupies* the SMs it is granted (MPS partitions
    /// spread kernels across the whole active-thread allotment even past
    /// the marginal-benefit knee), so contention is resolved over grants;
    /// the useful share is clamped to the item's saturation later. The
    /// rates land in `effective`, one per slot at the slot's position.
    ///
    /// A slot's grant is the first one in `grants` that names it; a slot
    /// no grant names gets zero. Policies write their grants in the views'
    /// order, so slot i takes the grant at position i without a search
    /// while every position before it named its own slot: ids are unique,
    /// so no earlier grant can name slot i. From the first position that
    /// breaks this, each slot runs the first-match search, so grants
    /// written out of order, missing an instance or naming one twice still
    /// resolve by that rule.
    fn resolve_grants(&self, grants: &[Grant], effective: &mut Vec<f64>) {
        effective.clear();
        let mut total = 0.0;
        let mut in_order = true;
        for (i, (id, slot)) in self.slots.iter().enumerate() {
            in_order &= grants.get(i).is_some_and(|g| g.id == *id);
            let grant = if in_order {
                debug_assert_eq!(
                    grants.iter().position(|g| g.id == *id),
                    Some(i),
                    "the grant taken by position is not the first one naming {id}"
                );
                Some(&grants[i])
            } else {
                grants.iter().find(|g| g.id == *id)
            };
            let granted = grant.map_or(0.0, |g| g.smr.as_fraction()).min(1.0);
            // Idle (or empty) slots occupy nothing regardless of grant.
            let eff = if slot.head_demand().is_zero() { 0.0 } else { granted };
            total += eff;
            effective.push(eff);
        }
        if total > 1.0 {
            let scale = 1.0 / total;
            for eff in effective.iter_mut() {
                *eff *= scale;
            }
        }
    }
}

/// Advances a single slot through one quantum at effective SM rate `eff`.
///
/// Returns `(sm_fraction_used, kernel_blocks_issued)`.
fn advance_slot(
    id: InstanceId,
    slot: &mut Slot,
    now: SimTime,
    eff: f64,
    completions: &mut Vec<Completion>,
) -> (f64, u64) {
    let mut budget = QUANTUM;
    let mut sm_time_used = SimDuration::ZERO;
    let mut blocks_issued: u64 = 0;

    while !budget.is_zero() {
        let Some(active) = slot.active.as_mut() else {
            match slot.queue.pop_front() {
                Some(item) => {
                    slot.active = Some(Active::new(item));
                    continue;
                }
                None => break,
            }
        };

        match active.item.kind {
            WorkKind::Idle { duration } => {
                let remaining = duration.mul_f64(1.0 - active.progress);
                if remaining <= budget {
                    budget -= remaining;
                    let elapsed = active.elapsed + remaining;
                    completions.push(Completion {
                        instance: id,
                        tag: active.item.tag,
                        at: now + (QUANTUM - budget),
                        elapsed,
                        klc_inflation: 0.0,
                    });
                    slot.active = None;
                } else {
                    let frac = budget.ratio(duration);
                    active.progress += frac;
                    active.elapsed += budget;
                    budget = SimDuration::ZERO;
                }
            }
            WorkKind::Compute { t_min, sat, kernel_blocks } => {
                // Only the sub-saturation share does useful work; occupancy
                // beyond `sat` is stranded (the marginal effect).
                let useful = eff.min(sat.as_fraction());
                let rate = rate_factor(useful, sat.as_fraction());
                if rate <= 0.0 {
                    // Starved: wall time still elapses against the KLC.
                    active.elapsed += budget;
                    break;
                }
                let t_min_s = t_min.as_secs_f64();
                let full_progress = budget.as_secs_f64() * rate / t_min_s;
                if active.progress + full_progress >= 1.0 {
                    let needed = (1.0 - active.progress) * t_min_s / rate;
                    let dt = SimDuration::from_secs_f64(needed);
                    budget = budget.saturating_since_duration(dt);
                    sm_time_used += dt.mul_f64(useful);
                    let remaining_blocks = kernel_blocks.saturating_sub(active.blocks_issued);
                    blocks_issued += remaining_blocks;
                    let elapsed = active.elapsed + dt;
                    let inflation = if t_min_s > 0.0 {
                        (elapsed.as_secs_f64() / t_min_s - 1.0).max(0.0)
                    } else {
                        0.0
                    };
                    slot.last_klc_inflation = inflation;
                    completions.push(Completion {
                        instance: id,
                        tag: active.item.tag,
                        at: now + (QUANTUM - budget),
                        elapsed,
                        klc_inflation: inflation,
                    });
                    slot.active = None;
                } else {
                    active.progress += full_progress;
                    active.elapsed += budget;
                    let target_blocks = (kernel_blocks as f64 * active.progress) as u64;
                    let newly = target_blocks.saturating_sub(active.blocks_issued);
                    active.blocks_issued += newly;
                    blocks_issued += newly;
                    sm_time_used += budget.mul_f64(useful);
                    budget = SimDuration::ZERO;
                }
            }
        }
    }

    (sm_time_used.ratio(QUANTUM), blocks_issued)
}

/// Extension: saturating subtraction helper used by the inner loop.
trait SaturatingSinceDuration {
    fn saturating_since_duration(self, other: SimDuration) -> SimDuration;
}

impl SaturatingSinceDuration for SimDuration {
    fn saturating_since_duration(self, other: SimDuration) -> SimDuration {
        if other >= self {
            SimDuration::ZERO
        } else {
            self - other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{FairSharePolicy, StaticPartitionPolicy};
    use crate::TaskClass;
    use crate::GB;

    fn slot(class: TaskClass, request: f64, limit: f64) -> SlotConfig {
        SlotConfig {
            class,
            request: SmRate::from_percent(request),
            limit: SmRate::from_percent(limit),
            mem_bytes: GB,
        }
    }

    fn run_until_idle(gpu: &mut GpuEngine, policy: &mut dyn SharePolicy) -> Vec<Completion> {
        let mut now = SimTime::ZERO;
        let mut done = Vec::new();
        for _ in 0..100_000 {
            if gpu.is_idle() {
                break;
            }
            let out = gpu.step(now, policy);
            done.extend(out.completions);
            now += QUANTUM;
        }
        assert!(gpu.is_idle(), "engine failed to drain");
        done
    }

    #[test]
    fn admission_respects_memory() {
        let mut gpu = GpuEngine::new(2 * GB);
        gpu.admit(InstanceId(1), slot(TaskClass::SloSensitive, 30.0, 60.0)).unwrap();
        gpu.admit(InstanceId(2), slot(TaskClass::SloSensitive, 30.0, 60.0)).unwrap();
        let err = gpu.admit(InstanceId(3), slot(TaskClass::SloSensitive, 30.0, 60.0)).unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        gpu.evict(InstanceId(1)).unwrap();
        gpu.admit(InstanceId(3), slot(TaskClass::SloSensitive, 30.0, 60.0)).unwrap();
        assert_eq!(gpu.mem_used(), 2 * GB);
    }

    #[test]
    fn duplicate_and_unknown_instances_error() {
        let mut gpu = GpuEngine::new(GB * 4);
        gpu.admit(InstanceId(1), slot(TaskClass::BestEffort, 50.0, 100.0)).unwrap();
        assert!(matches!(
            gpu.admit(InstanceId(1), slot(TaskClass::BestEffort, 50.0, 100.0)),
            Err(GpuError::DuplicateInstance(_))
        ));
        assert!(matches!(gpu.evict(InstanceId(9)), Err(GpuError::UnknownInstance(_))));
        assert!(matches!(
            gpu.push_work(InstanceId(9), WorkItem::idle(SimDuration::from_millis(1), 0)),
            Err(GpuError::UnknownInstance(_))
        ));
    }

    #[test]
    fn solo_compute_finishes_in_ideal_time() {
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::SloSensitive, 40.0, 80.0)).unwrap();
        gpu.push_work(
            id,
            WorkItem::compute(SimDuration::from_millis(25), SmRate::from_percent(40.0), 1_000, 1),
        )
        .unwrap();
        let done = run_until_idle(&mut gpu, &mut FairSharePolicy);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].elapsed, SimDuration::from_millis(25));
        assert!(done[0].klc_inflation.abs() < 1e-9);
    }

    #[test]
    fn contention_inflates_klc_proportionally() {
        // Two instances both saturating at 80%: physical sharing halves each.
        let mut gpu = GpuEngine::new(GB * 4);
        for i in 1..=2 {
            gpu.admit(InstanceId(i), slot(TaskClass::BestEffort, 50.0, 100.0)).unwrap();
            gpu.push_work(
                InstanceId(i),
                WorkItem::compute(SimDuration::from_millis(40), SmRate::from_percent(80.0), 800, i),
            )
            .unwrap();
        }
        let done = run_until_idle(&mut gpu, &mut FairSharePolicy);
        assert_eq!(done.len(), 2);
        for c in &done {
            // Each got 50% of an 80%-sat stream: x = 0.625 → rate 0.69 →
            // ~45% KLC inflation.
            assert!(c.klc_inflation > 0.4, "inflation {}", c.klc_inflation);
        }
    }

    #[test]
    fn static_partition_strands_unused_sm() {
        // One busy instance capped at 30% while 70% of the GPU sits idle.
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::SloSensitive, 30.0, 30.0)).unwrap();
        gpu.push_work(
            id,
            WorkItem::compute(SimDuration::from_millis(30), SmRate::from_percent(60.0), 600, 1),
        )
        .unwrap();
        let mut mps = StaticPartitionPolicy::new([(id, SmRate::from_percent(30.0))]);
        let done = run_until_idle(&mut gpu, &mut mps);
        // 30/60 → x = 0.5 → rate 0.5^0.8 = 0.574 → ~52.2 ms.
        let got = done[0].elapsed.as_millis_f64();
        assert!((got - 52.2).abs() < 1.5, "elapsed {got}ms");
    }

    #[test]
    fn idle_phases_elapse_without_sm() {
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::BestEffort, 50.0, 100.0)).unwrap();
        gpu.push_work(id, WorkItem::idle(SimDuration::from_millis(12), 7)).unwrap();
        let mut now = SimTime::ZERO;
        let mut used_any = false;
        let mut done = Vec::new();
        while !gpu.is_idle() {
            let out = gpu.step(now, &mut FairSharePolicy);
            used_any |= out.total_used.as_fraction() > 1e-12;
            done.extend(out.completions);
            now += QUANTUM;
        }
        assert!(!used_any, "idle phases must not consume SM");
        assert_eq!(done[0].elapsed, SimDuration::from_millis(12));
    }

    #[test]
    fn idle_and_compute_chain_within_quantum() {
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::BestEffort, 50.0, 100.0)).unwrap();
        gpu.push_work(id, WorkItem::idle(SimDuration::from_millis(2), 1)).unwrap();
        gpu.push_work(
            id,
            WorkItem::compute(SimDuration::from_millis(2), SmRate::from_percent(50.0), 100, 2),
        )
        .unwrap();
        let done = run_until_idle(&mut gpu, &mut FairSharePolicy);
        assert_eq!(done.len(), 2);
        // The idle phase finishes inside the first quantum; the compute phase
        // picks up its grant at the next 5 ms cycle (RCKM period) and ends by
        // the second quantum.
        assert!(done[0].at <= SimTime::from_millis(5));
        assert!(done[1].at <= SimTime::from_millis(10));
    }

    #[test]
    fn physical_capacity_is_conserved() {
        let mut gpu = GpuEngine::new(GB * 8);
        for i in 1..=4 {
            gpu.admit(InstanceId(i), slot(TaskClass::BestEffort, 50.0, 100.0)).unwrap();
            gpu.push_work(
                InstanceId(i),
                WorkItem::compute(
                    SimDuration::from_millis(100),
                    SmRate::from_percent(90.0),
                    1_000,
                    i,
                ),
            )
            .unwrap();
        }
        let out = gpu.step(SimTime::ZERO, &mut FairSharePolicy);
        assert!(out.total_used.as_fraction() <= 1.0 + 1e-9);
        assert!(out.total_used.as_fraction() > 0.95, "work-conserving under load");
    }

    #[test]
    fn kernel_blocks_are_fully_issued() {
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::SloSensitive, 40.0, 80.0)).unwrap();
        for tag in 0..5 {
            gpu.push_work(
                id,
                WorkItem::compute(
                    SimDuration::from_millis(13),
                    SmRate::from_percent(40.0),
                    333,
                    tag,
                ),
            )
            .unwrap();
        }
        run_until_idle(&mut gpu, &mut FairSharePolicy);
        assert_eq!(gpu.blocks_total(), 5 * 333);
        assert_eq!(gpu.instance_blocks_total(id).unwrap(), 5 * 333);
    }

    #[test]
    fn resize_applies_within_one_quantum() {
        // A 30%-capped instance running a 60%-sat stream speeds up the very
        // next quantum after its quota is resized to saturation.
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::SloSensitive, 30.0, 30.0)).unwrap();
        gpu.push_work(
            id,
            WorkItem::compute(SimDuration::from_millis(40), SmRate::from_percent(60.0), 400, 1),
        )
        .unwrap();
        let mut policy = StaticPartitionPolicy::new([(id, SmRate::from_percent(30.0))]);
        gpu.step(SimTime::ZERO, &mut policy);
        gpu.resize(id, SmRate::from_percent(60.0), SmRate::from_percent(60.0)).unwrap();
        assert_eq!(gpu.views()[0].request, SmRate::from_percent(60.0));
        let mut full = StaticPartitionPolicy::new([(id, SmRate::from_percent(60.0))]);
        let mut now = SimTime::ZERO + QUANTUM;
        let mut done = Vec::new();
        while done.is_empty() {
            done.extend(gpu.step(now, &mut full).completions);
            now += QUANTUM;
        }
        // One quantum at 30/60 (rate 0.574) then saturated: well under the
        // ~70 ms a permanently capped run would take.
        assert!(done[0].elapsed < SimDuration::from_millis(50), "elapsed {}", done[0].elapsed);
    }

    #[test]
    fn resize_clamps_and_rejects_unknown_instances() {
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::SloSensitive, 40.0, 80.0)).unwrap();
        // limit below request is clamped up; request above a whole card is
        // clamped down.
        gpu.resize(id, SmRate::from_percent(150.0), SmRate::from_percent(10.0)).unwrap();
        let v = gpu.views()[0];
        assert_eq!(v.request, SmRate::FULL);
        assert_eq!(v.limit, SmRate::FULL);
        assert!(matches!(
            gpu.resize(InstanceId(9), SmRate::ZERO, SmRate::ZERO),
            Err(GpuError::UnknownInstance(_))
        ));
    }

    #[test]
    fn next_event_at_is_the_quantum_boundary_while_busy() {
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::SloSensitive, 40.0, 80.0)).unwrap();
        assert_eq!(gpu.next_event_at(SimTime::ZERO), None, "resident but workless GPU is idle");
        gpu.push_work(
            id,
            WorkItem::compute(SimDuration::from_millis(12), SmRate::from_percent(40.0), 100, 1),
        )
        .unwrap();
        let now = SimTime::from_millis(15);
        assert_eq!(gpu.next_event_at(now), Some(now + QUANTUM));
        let mut policy = FairSharePolicy;
        run_until_idle(&mut gpu, &mut policy);
        assert_eq!(gpu.next_event_at(SimTime::ZERO), None, "drained GPU needs no wake");
    }

    /// Reads 0 idle-history cycles from the start, yet grants a different
    /// rate on every call.
    struct FalseFixedPoint {
        calls: u32,
    }

    impl SharePolicy for FalseFixedPoint {
        fn allocate_into(
            &mut self,
            _now: SimTime,
            _quantum: SimDuration,
            views: &[InstanceView],
            out: &mut Vec<Grant>,
        ) {
            self.calls += 1;
            let smr = SmRate::from_percent(f64::from(self.calls));
            out.clear();
            out.extend(views.iter().map(|v| Grant { id: v.id, smr }));
        }

        fn name(&self) -> &str {
            "false-fixed-point"
        }

        fn idle_history_cycles(&self) -> u64 {
            0
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "share policy `false-fixed-point` read 0 idle-history cycles")]
    fn idle_fastforward_oracle_names_a_policy_whose_grants_move_at_its_fixed_point() {
        let mut gpu = GpuEngine::new(GB * 4);
        gpu.admit(InstanceId(1), slot(TaskClass::SloSensitive, 40.0, 80.0)).unwrap();
        gpu.idle_fastforward(SimTime::ZERO, 4, &mut FalseFixedPoint { calls: 0 });
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn idle_fastforward_stops_where_the_policy_reads_zero() {
        // The first cycle always runs; the reading after it ends the
        // replay, and the skipped cycles still age the idle counters.
        let mut gpu = GpuEngine::new(GB * 4);
        gpu.admit(InstanceId(1), slot(TaskClass::SloSensitive, 40.0, 80.0)).unwrap();
        let mut policy = FalseFixedPoint { calls: 0 };
        gpu.idle_fastforward(SimTime::ZERO, 40, &mut policy);
        assert_eq!(policy.calls, 1);
        assert_eq!(gpu.views()[0].idle_quanta, 40);
    }

    #[test]
    fn views_reflect_queue_state() {
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::SloSensitive, 40.0, 80.0)).unwrap();
        assert_eq!(gpu.views()[0].queue_len, 0);
        assert_eq!(gpu.views()[0].demand, SmRate::ZERO);
        gpu.push_work(
            id,
            WorkItem::compute(SimDuration::from_millis(10), SmRate::from_percent(35.0), 10, 0),
        )
        .unwrap();
        let v = gpu.views();
        assert_eq!(v[0].queue_len, 1);
        assert_eq!(v[0].demand, SmRate::from_percent(35.0));
    }

    #[test]
    fn starved_instance_reports_klc_inflation() {
        let mut gpu = GpuEngine::new(GB * 4);
        let id = InstanceId(1);
        gpu.admit(id, slot(TaskClass::SloSensitive, 40.0, 80.0)).unwrap();
        gpu.push_work(
            id,
            WorkItem::compute(SimDuration::from_millis(10), SmRate::from_percent(40.0), 10, 0),
        )
        .unwrap();
        let mut zero = StaticPartitionPolicy::new([(id, SmRate::ZERO)]);
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            gpu.step(now, &mut zero);
            now += QUANTUM;
        }
        assert!(gpu.views()[0].klc_inflation > 0.5);
        assert!(gpu.views()[0].idle_quanta >= 4);
    }

    #[test]
    fn grants_occupy_their_share_past_saturation() {
        // Fair share grants both slots the whole card; the engine scales
        // the two grants to 50 % each, not to their 30 % and 90 %
        // saturations. The 90 % item thus runs at (0.5/0.9)^0.8 ≈ 0.625,
        // not at the ≈ 0.864 a clamp to demand (25 %/75 %) would give,
        // and the 30 % item strands 20 % of the card.
        let mut gpu = GpuEngine::new(GB * 4);
        gpu.admit(InstanceId(1), slot(TaskClass::BestEffort, 50.0, 100.0)).unwrap();
        gpu.admit(InstanceId(2), slot(TaskClass::BestEffort, 50.0, 100.0)).unwrap();
        let long = WorkItem::compute(SimDuration::from_secs(1), SmRate::from_percent(30.0), 10, 1);
        let short =
            WorkItem::compute(SimDuration::from_millis(50), SmRate::from_percent(90.0), 10, 2);
        gpu.push_work(InstanceId(1), long).unwrap();
        gpu.push_work(InstanceId(2), short).unwrap();
        let mut now = SimTime::ZERO;
        let done = loop {
            let out = gpu.step(now, &mut FairSharePolicy);
            now += QUANTUM;
            if let Some(c) = out.completions.first() {
                break *c;
            }
            assert!((out.total_used.as_fraction() - 0.8).abs() < 1e-9, "used {:?}", out.total_used);
        };
        assert_eq!(done.tag, 2);
        let rate = rate_factor(0.5, 0.9);
        assert!((rate - 0.625).abs() < 1e-3, "rate {rate}");
        let expected = 50.0 / rate;
        let got = done.elapsed.as_millis_f64();
        assert!((got - expected).abs() < 0.01, "elapsed {got} ms, expected {expected} ms");
    }

    /// Rewrites the grants of a static partition before the engine reads
    /// them.
    struct Rewritten {
        inner: StaticPartitionPolicy,
        rewrite: fn(&mut Vec<Grant>),
    }

    impl SharePolicy for Rewritten {
        fn allocate_into(
            &mut self,
            now: SimTime,
            quantum: SimDuration,
            views: &[InstanceView],
            out: &mut Vec<Grant>,
        ) {
            self.inner.allocate_into(now, quantum, views, out);
            (self.rewrite)(out);
        }

        fn name(&self) -> &str {
            "rewritten"
        }
    }

    fn partition(quotas: [f64; 3]) -> StaticPartitionPolicy {
        StaticPartitionPolicy::new(
            (1..=3).zip(quotas).map(|(i, q)| (InstanceId(i), SmRate::from_percent(q))),
        )
    }

    /// Steps two identical three-slot GPUs, one under each policy, and
    /// asserts every quantum's outcome matches. Returns the completions.
    fn assert_same_steps(a: &mut dyn SharePolicy, b: &mut dyn SharePolicy) -> usize {
        let gpus: [GpuEngine; 2] = std::array::from_fn(|_| {
            let mut gpu = GpuEngine::new(GB * 8);
            // Admitted out of id order: the slots still sort by id.
            for i in [3, 1, 2] {
                gpu.admit(InstanceId(i), slot(TaskClass::BestEffort, 30.0, 60.0)).unwrap();
                gpu.push_work(InstanceId(i), WorkItem::idle(SimDuration::from_millis(i), 0))
                    .unwrap();
                for tag in 1..=3 {
                    let sat = SmRate::from_percent(20.0 * i as f64 + 5.0 * tag as f64);
                    let t_min = SimDuration::from_millis(4 * i + 3 * tag);
                    gpu.push_work(InstanceId(i), WorkItem::compute(t_min, sat, 100, tag)).unwrap();
                }
            }
            gpu
        });
        let [mut x, mut y] = gpus;
        let mut now = SimTime::ZERO;
        let mut completions = 0;
        for _ in 0..200 {
            let (p, q) = (x.step(now, a), y.step(now, b));
            assert_eq!(p.completions, q.completions, "completions at {now}");
            assert_eq!(p.total_used, q.total_used, "total_used at {now}");
            assert_eq!(p.blocks_issued, q.blocks_issued, "blocks_issued at {now}");
            completions += p.completions.len();
            now += QUANTUM;
        }
        assert_eq!(x.views(), y.views());
        completions
    }

    #[test]
    fn grants_in_reverse_order_resolve_like_grants_in_order() {
        let mut reversed =
            Rewritten { inner: partition([50.0, 40.0, 30.0]), rewrite: |g| g.reverse() };
        let done = assert_same_steps(&mut reversed, &mut partition([50.0, 40.0, 30.0]));
        assert_eq!(done, 12, "every item completes, idle phases included");
    }

    #[test]
    fn an_instance_left_out_of_the_grants_gets_zero() {
        let mut missing = Rewritten {
            inner: partition([50.0, 40.0, 30.0]),
            rewrite: |g| g.retain(|g| g.id != InstanceId(2)),
        };
        assert_same_steps(&mut missing, &mut partition([50.0, 0.0, 30.0]));
    }

    #[test]
    fn an_instance_named_twice_gets_its_first_grant() {
        // [2 → 10 %, 2 → 40 %, 3 → 30 %]: position 1 names slot 1 (id 2),
        // but an earlier grant names it too, and that one counts; id 1 is
        // left out.
        let mut twice = Rewritten {
            inner: partition([50.0, 40.0, 30.0]),
            rewrite: |g| g[0] = Grant { id: InstanceId(2), smr: SmRate::from_percent(10.0) },
        };
        assert_same_steps(&mut twice, &mut partition([0.0, 10.0, 30.0]));
    }
}
