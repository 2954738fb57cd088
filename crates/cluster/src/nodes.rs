//! The node plane: every GPU's runtime, stepped in a fixed order.
//!
//! [`ClusterSim`](crate::ClusterSim) is layered into a **control plane**
//! (arrival ingest, routing, placement, elasticity, reporting — see
//! `dispatch`, `lifecycle`, `elasticity`) and this **node plane**: one
//! [`GpuSlot`] (engine + share policy + sampling accumulators) per card,
//! held by the [`NodePlane`] in a single node-major array with the busy
//! set and the cluster-wide occupancy counter.
//!
//! Within one quantum no two GPUs share state: grants are local to a card,
//! and the control plane handles completions afterwards. The plane steps
//! GPUs in ascending dense index (`node * gpus_per_node + gpu`, the order
//! of [`ClusterSpec::gpu_addrs`]), so the completion stream it hands back
//! is node-major on both time models.

use std::collections::BTreeSet;

use dilu_gpu::{Completion, GpuEngine, GpuError, InstanceId, SlotConfig, StepOutcome, QUANTUM};
use dilu_sim::SimTime;

use crate::{ClusterSpec, GpuAddr, PolicyFactory};

// The idle-replay cap is the share policy's own convergence bound from any
// state (`SharePolicy::idle_history_cycles`, read once on the fresh
// policy): policy state is a fixed point once every kernel-rate window has
// filled with zeros and every multiplicative grant ramp has hit its
// ceiling, so replaying more trailing idle cycles than that cannot change
// any subsequent grant. Each `GpuSlot` asks its policy rather than
// assuming a constant — a policy with a longer memory (wider window,
// shallower ramp) raises its own cap instead of silently breaking the
// event-driven ≡ dense equivalence. Within the cap, the replay itself
// stops at the policy's fixed point (`GpuEngine::idle_fastforward`), so a
// policy that settles early costs a few cycles, not the cap. The cap is
// not re-read later: a policy at its fixed point reads 0, a bound that
// covers only the views it last saw, not an instance admitted since.

/// One GPU of the node plane: the engine, its share policy, and the
/// event-core bookkeeping that keeps skipped quanta invisible.
pub(crate) struct GpuSlot {
    pub(crate) engine: GpuEngine,
    pub(crate) policy: Box<dyn dilu_gpu::SharePolicy>,
    /// Σ effective SM fraction over the quanta stepped since the last
    /// metrics sample (skipped quanta contribute exactly 0).
    pub(crate) used_accum: f64,
    /// Start of the last stepped quantum; `None` before the first step.
    /// The event core uses the gap to this instant to replay skipped idle
    /// cycles into the share policy.
    pub(crate) last_step: Option<SimTime>,
    /// The most idle cycles one replay presents: the fresh policy's
    /// [`idle_history_cycles`], at least 1.
    ///
    /// [`idle_history_cycles`]: dilu_gpu::SharePolicy::idle_history_cycles
    replay_cap: u64,
}

impl GpuSlot {
    /// Advances this GPU by the quantum starting at `now`, first replaying
    /// any skipped idle cycles into its share policy (at most
    /// `replay_cap` of them) so derived policy state evolves as under
    /// dense stepping.
    pub(crate) fn advance(&mut self, now: SimTime, out: &mut StepOutcome) {
        let gap_cycles = match self.last_step {
            Some(last) => {
                let expected = last + QUANTUM;
                if now > expected {
                    (now - expected).as_micros() / QUANTUM.as_micros()
                } else {
                    0
                }
            }
            None => now.as_micros() / QUANTUM.as_micros(),
        };
        if gap_cycles > 0 {
            let replay = gap_cycles.min(self.replay_cap);
            let from = now - QUANTUM * replay;
            self.engine.idle_fastforward(from, replay, self.policy.as_mut());
        }
        self.last_step = Some(now);
        self.engine.step_into(now, self.policy.as_mut(), out);
    }

    /// Catches this GPU's share policy up to the current wake, before new
    /// work is queued on it (the idle→busy transition), so the replayed
    /// cycles present the historically accurate workless views.
    ///
    /// `post_step` says whether this wake's GPU phase has already run: a
    /// push from the completion handlers lands *after* it (the dense
    /// stepper would have idle-stepped this GPU at `now` too, so the
    /// replay includes `now`), while a push from the dispatch or
    /// promotion phases lands *before* it (the quantum at `now` is about
    /// to be stepped normally and must not be replayed).
    pub(crate) fn catch_up(&mut self, now: SimTime, post_step: bool) {
        let expected = match self.last_step {
            Some(last) => last + QUANTUM,
            None => SimTime::ZERO,
        };
        let through = if post_step {
            now
        } else if now.as_micros() >= QUANTUM.as_micros() {
            now - QUANTUM
        } else {
            return;
        };
        if through < expected {
            return;
        }
        let gap_cycles = (through - expected).as_micros() / QUANTUM.as_micros() + 1;
        let replay = gap_cycles.min(self.replay_cap);
        let from = through - QUANTUM * (replay - 1);
        self.engine.idle_fastforward(from, replay, self.policy.as_mut());
        self.last_step = Some(through);
    }
}

/// Every GPU's [`GpuSlot`] in one node-major array, plus the busy set and
/// the cluster-wide occupancy counter.
pub(crate) struct NodePlane {
    /// One slot per GPU, at dense index `node * gpus_per_node + gpu`.
    gpus: Vec<GpuSlot>,
    gpus_per_node: u32,
    /// Dense indices of the GPUs holding queued or active work; only these
    /// are stepped by the event core.
    busy: BTreeSet<u32>,
    /// GPUs with at least one admitted resident (cold-starting instances
    /// reserve their slots at launch, so their GPUs count as occupied).
    /// Maintained at [`admit`](Self::admit)/[`evict`](Self::evict) so
    /// [`occupied`](Self::occupied) is O(1) instead of a cluster scan.
    occupied: u32,
    /// Reused engine step outcome (the hot path must stay allocation-free:
    /// one wake per quantum at macro scale).
    scratch: StepOutcome,
}

impl NodePlane {
    pub(crate) fn new(spec: &ClusterSpec, policy_factory: &dyn PolicyFactory) -> Self {
        let gpus = (0..spec.total_gpus())
            .map(|_| {
                let policy = policy_factory.make();
                GpuSlot {
                    engine: GpuEngine::new(spec.gpu_mem_bytes),
                    replay_cap: policy.idle_history_cycles().max(1),
                    policy,
                    used_accum: 0.0,
                    last_step: None,
                }
            })
            .collect();
        NodePlane {
            gpus,
            gpus_per_node: spec.gpus_per_node,
            busy: BTreeSet::new(),
            occupied: 0,
            scratch: StepOutcome::default(),
        }
    }

    /// The dense index of `addr`. An off-grid `gpu` would alias another
    /// node's card, so addresses are checked where they enter the plane
    /// (`ClusterSim::launch_instance`).
    fn index(&self, addr: GpuAddr) -> u32 {
        addr.node * self.gpus_per_node + addr.gpu
    }

    /// Number of GPUs hosting at least one admitted instance, O(1).
    pub(crate) fn occupied(&self) -> u32 {
        self.occupied
    }

    pub(crate) fn slot_mut(&mut self, addr: GpuAddr) -> &mut GpuSlot {
        let index = self.index(addr);
        &mut self.gpus[index as usize]
    }

    /// All slots, mutable, in dense (node-major `gpu_addrs()`) order.
    pub(crate) fn slots_mut(&mut self) -> impl Iterator<Item = &mut GpuSlot> {
        self.gpus.iter_mut()
    }

    /// Admits an engine slot on `addr`, maintaining the occupancy counter.
    pub(crate) fn admit(
        &mut self,
        addr: GpuAddr,
        id: InstanceId,
        config: SlotConfig,
    ) -> Result<(), GpuError> {
        let slot = self.slot_mut(addr);
        let was_empty = slot.engine.resident_count() == 0;
        slot.engine.admit(id, config)?;
        if was_empty {
            self.occupied += 1;
        }
        Ok(())
    }

    /// Evicts an engine slot from `addr`, maintaining the occupancy
    /// counter.
    pub(crate) fn evict(&mut self, addr: GpuAddr, id: InstanceId) {
        let slot = self.slot_mut(addr);
        if slot.engine.evict(id).is_ok() && slot.engine.resident_count() == 0 {
            self.occupied = self.occupied.saturating_sub(1);
        }
    }

    /// Marks a GPU as holding work; returns `true` when it was idle before
    /// (the caller then replays the idle gap into its policy).
    pub(crate) fn mark_busy(&mut self, addr: GpuAddr) -> bool {
        self.busy.insert(self.index(addr))
    }

    /// `true` while any GPU holds queued or active work.
    pub(crate) fn has_busy(&self) -> bool {
        !self.busy.is_empty()
    }

    /// Rebuilds the busy set from engine state (event-core entry: in
    /// between `run_until` calls deployments need no busy bookkeeping).
    pub(crate) fn rebuild_busy(&mut self) {
        self.busy =
            (0..).zip(&self.gpus).filter(|(_, s)| !s.engine.is_idle()).map(|(i, _)| i).collect();
    }

    /// Steps the plane for the quantum starting at `now` — only the busy
    /// GPUs (event core), dropping those that drain, or every GPU (dense
    /// stepper) — appending completions and issued blocks to the caller's
    /// buffers in ascending dense index order.
    pub(crate) fn step(
        &mut self,
        busy_only: bool,
        now: SimTime,
        completions: &mut Vec<Completion>,
        issued: &mut Vec<(InstanceId, u64)>,
    ) {
        let NodePlane { gpus, busy, scratch, .. } = self;
        let mut step = |slot: &mut GpuSlot| {
            slot.advance(now, scratch);
            slot.used_accum += scratch.total_used.as_fraction();
            completions.append(&mut scratch.completions);
            issued.append(&mut scratch.blocks_issued);
        };
        if busy_only {
            // `retain` visits in ascending order. A drained GPU reports no
            // next interesting instant, so it simply stops being scheduled.
            busy.retain(|&index| {
                let slot = &mut gpus[index as usize];
                step(slot);
                slot.engine.next_event_at(now).is_some()
            });
        } else {
            gpus.iter_mut().for_each(step);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dilu_gpu::policies::FairSharePolicy;
    use dilu_gpu::{SmRate, TaskClass, WorkItem, GB};
    use dilu_sim::SimDuration;

    fn plane(nodes: u32, gpus_per_node: u32) -> NodePlane {
        let spec = ClusterSpec { nodes, gpus_per_node, gpu_mem_bytes: 40 * GB };
        let factory = crate::named("fair", || Box::new(FairSharePolicy));
        NodePlane::new(&spec, &factory)
    }

    fn config(mem: u64) -> SlotConfig {
        SlotConfig {
            class: TaskClass::SloSensitive,
            request: SmRate::from_percent(30.0),
            limit: SmRate::from_percent(60.0),
            mem_bytes: mem,
        }
    }

    #[test]
    fn occupancy_counter_tracks_admits_and_evicts() {
        let mut plane = plane(2, 2);
        let a = GpuAddr { node: 0, gpu: 1 };
        let b = GpuAddr { node: 1, gpu: 0 };
        assert_eq!(plane.occupied(), 0);
        plane.admit(a, InstanceId(1), config(GB)).unwrap();
        plane.admit(a, InstanceId(2), config(GB)).unwrap();
        plane.admit(b, InstanceId(3), config(GB)).unwrap();
        assert_eq!(plane.occupied(), 2, "two residents on one GPU count once");
        plane.evict(a, InstanceId(1));
        assert_eq!(plane.occupied(), 2, "GPU stays occupied while a resident remains");
        plane.evict(a, InstanceId(2));
        plane.evict(b, InstanceId(3));
        assert_eq!(plane.occupied(), 0);
        // Double eviction and unknown ids must not underflow.
        plane.evict(b, InstanceId(3));
        assert_eq!(plane.occupied(), 0);
    }

    #[test]
    fn failed_admission_leaves_occupancy_unchanged() {
        let mut plane = plane(1, 1);
        let addr = GpuAddr { node: 0, gpu: 0 };
        assert!(plane.admit(addr, InstanceId(1), config(100 * GB)).is_err());
        assert_eq!(plane.occupied(), 0);
    }

    /// Busy-only stepping (the event core) must hand back exactly the
    /// completion and `issued` streams of stepping every GPU (the dense
    /// stepper), in node-major order. The busy GPUs sit on several nodes
    /// with idle ones between them — an occupied GPU without work, a whole
    /// idle node — and drain at different quanta, so the busy set shrinks
    /// from the middle too.
    #[test]
    fn busy_only_step_merges_identically_to_stepping_every_gpu() {
        const QUANTA: u32 = 20;
        let busy = [(0, 0), (0, 2), (1, 1), (3, 0), (3, 2)];
        let run = |busy_only: bool| {
            let mut plane = plane(4, 3);
            for (i, &(node, gpu)) in (0u64..).zip(&busy) {
                let addr = GpuAddr { node, gpu };
                plane.admit(addr, InstanceId(i), config(GB)).unwrap();
                let work = WorkItem::compute(
                    SimDuration::from_millis(7 + 4 * i),
                    SmRate::from_percent(50.0),
                    100,
                    i,
                );
                plane.slot_mut(addr).engine.push_work(InstanceId(i), work).unwrap();
            }
            plane.admit(GpuAddr { node: 1, gpu: 0 }, InstanceId(99), config(GB)).unwrap();
            plane.rebuild_busy();
            let (mut completions, mut issued) = (Vec::new(), Vec::new());
            let mut now = SimTime::ZERO;
            for q in 0..QUANTA {
                plane.step(busy_only, now, &mut completions, &mut issued);
                if q == 0 {
                    // Instance ids follow `busy`, which lists GPUs node-major.
                    let order: Vec<u64> = issued.iter().map(|(id, _)| id.0).collect();
                    assert_eq!(order, [0, 1, 2, 3, 4], "GPUs step in node-major order");
                }
                now += QUANTUM;
            }
            assert!(
                !busy_only || !plane.has_busy(),
                "every busy GPU drains within {QUANTA} quanta"
            );
            assert_eq!(completions.len(), busy.len());
            (format!("{completions:?}"), format!("{issued:?}"))
        };
        assert_eq!(run(true), run(false));
    }
}
