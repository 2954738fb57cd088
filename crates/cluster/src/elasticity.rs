//! Elasticity execution and observability (control plane).
//!
//! The controller tick is the cluster's decision heartbeat: every second
//! the control plane takes the cluster-wide metrics sample, snapshots the
//! cluster for the audit hook, and makes one pass over the function
//! table's dense hot records that touches each function once, in id
//! order: it closes the function's second of per-function series, rolls
//! its RPS window, fills a stale capacity cache and builds its
//! [`FunctionScaleView`] (current and deploy-time quotas; how far they may
//! grow is the controller's own reading of the [`ClusterView`]). Instance
//! and backlog counts come from per-function counters kept at every
//! launch, promotion, drain, termination, route, dispatch and completion,
//! which debug builds recount at every tick, together with every field the
//! hot record copies from the cold one. The pass reads a cold record only
//! to record series, and to walk the instances of a function with a ready
//! or draining instance, for the idle time and the draining backlog.
//!
//! The tick then executes the
//! [`ElasticityController`](crate::ElasticityController)'s actions —
//! horizontal scale-out/scale-in through the [`lifecycle`](crate::lifecycle)
//! module, each launch placed on the tick's view and patching in its own
//! slices instead of refilling it (debug builds compare the patch with a
//! fresh fill); a scale-out whose hot shape was already refused this tick
//! is skipped after a forward cursor step, with no search and no cold
//! read. Vertical [`ScaleAction::ResizeQuota`] decisions are queued
//! here behind the 1 ms apply latency, then fanned out to every live slice
//! on the node plane. Identical on both time models (the tick runs inside
//! the shared controller phase), which is what keeps audit content and
//! reports byte-identical across dense and event-driven execution.

use dilu_gpu::{SmRate, QUANTUM};
use dilu_metrics::{FragmentationSnapshot, GpuUsageSample};
use dilu_sim::{SimDuration, SimTime};

use crate::audit::{AuditHook, AuditSnapshot, FunctionAudit, GpuAudit};
#[cfg(debug_assertions)]
use crate::instance::InstanceCounts;
use crate::lifecycle::LaunchError;
use crate::sim::{
    capacity_of, ClusterSim, FuncHot, PlacementShape, SimEvent, RESIZE_LATENCY, TICK,
};
use crate::traits::{
    ClusterView, FunctionScaleView, GpuView, QuotaView, ResidentInfo, ScaleAction,
};
use crate::{FunctionId, GpuAddr, InstanceState};

/// A decided-but-not-yet-applied vertical resize.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingResize {
    pub(crate) due: SimTime,
    pub(crate) func: FunctionId,
    pub(crate) request: SmRate,
    pub(crate) limit: SmRate,
}

impl ClusterSim {
    /// Registers an observer invoked with a fresh [`AuditSnapshot`] at
    /// every controller tick, before the elasticity controller acts.
    ///
    /// The hook cadence and content are identical on both time models (it
    /// runs inside the shared controller phase), so an invariant checker
    /// attached here cannot desynchronise the byte-identical reports.
    /// Replaces any previously registered hook.
    pub fn set_audit_hook(&mut self, hook: AuditHook) {
        self.audit_hook = Some(hook);
    }

    /// Takes a point-in-time [`AuditSnapshot`] of quota, memory, and
    /// request accounting — the state the fuzzer's capacity and
    /// conservation oracles check.
    #[must_use]
    pub fn audit(&self) -> AuditSnapshot {
        self.audit_with(&self.cluster_view())
    }

    /// [`audit`](Self::audit) over an already-built view — the controller
    /// tick builds one [`ClusterView`] and uses it for both the audit hook
    /// and the controller itself.
    fn audit_with(&self, view: &ClusterView) -> AuditSnapshot {
        let gpus = view
            .gpus
            .iter()
            .map(|g| GpuAudit {
                addr: g.addr,
                sum_request: g.sum_requests().as_fraction(),
                sum_limit: g.sum_limits().as_fraction(),
                mem_reserved: g.mem_reserved,
                mem_capacity: g.mem_capacity,
                residents: g.residents.len() as u32,
            })
            .collect();
        let functions = self
            .funcs
            .iter()
            .map(|(hot, cold)| FunctionAudit {
                func: hot.id,
                inference: hot.kind.is_inference(),
                arrived: cold.arrived,
                completed: cold.completed,
                backlog: hot.backlog as u64,
                queued: hot.counts.queued,
                inflight: hot.counts.inflight,
                pending_arrivals: cold.arrivals.len() as u64,
                ready_instances: hot.counts.ready,
                starting_instances: hot.counts.starting,
                draining_instances: hot.counts.draining,
                cold_starts: cold.cold_starts.count(),
                resize_grows: cold.resizes.grows(),
                resize_shrinks: cold.resizes.shrinks(),
            })
            .collect();
        let network = self.net.as_ref().map(|net| crate::audit::NetAudit {
            requested_bytes: net.plane.requested_bytes(),
            delivered_bytes: net.plane.delivered_bytes(),
            inflight_bytes: net.plane.inflight_bytes(),
            active_flows: net.plane.active_flows() as u64,
        });
        AuditSnapshot { now: self.now, gpus, functions, network }
    }

    /// Queues a vertical resize to apply after [`RESIZE_LATENCY`].
    ///
    /// A re-request while one is still in flight retargets the pending
    /// resize but keeps its original due time.
    pub(crate) fn request_resize(&mut self, func: FunctionId, request: SmRate, limit: SmRate) {
        let Some(f) = self.funcs.hot(func) else {
            return;
        };
        let request = request.min(SmRate::FULL);
        let limit = limit.max(request);
        if let Some(pending) = self.pending_resizes.iter_mut().find(|r| r.func == func) {
            pending.request = request;
            pending.limit = limit;
            return;
        }
        if f.shape.quotas.request == request && f.shape.quotas.limit == limit {
            return;
        }
        let due = self.now + RESIZE_LATENCY;
        self.pending_resizes.push(PendingResize { due, func, request, limit });
        if self.event_active {
            // The latency is positive and `now` is a grid instant, so this
            // is the next quantum at the earliest: this wake's apply phase
            // has already run, and the dense stepper first sees the pending
            // resize at a later quantum start.
            self.events.push(self.grid_ceil(due), SimEvent::ResizeApply);
        }
    }

    /// Applies every resize whose latency has elapsed: the function's spec
    /// and its hot shape (future launches, capacity), and every live slice
    /// on the GPUs.
    pub(crate) fn apply_due_resizes(&mut self) {
        let now = self.now;
        if self.pending_resizes.iter().all(|r| r.due > now) {
            return;
        }
        let mut due = Vec::new();
        self.pending_resizes.retain(|r| {
            if r.due <= now {
                due.push(*r);
                false
            } else {
                true
            }
        });
        for r in due {
            let Some((hot, cold)) = self.funcs.get_mut(r.func) else {
                continue;
            };
            let old = cold.spec.quotas;
            if r.request > old.request || (r.request == old.request && r.limit > old.limit) {
                cold.resizes.record_grow();
            } else {
                cold.resizes.record_shrink();
            }
            cold.spec.quotas.request = r.request;
            cold.spec.quotas.limit = r.limit;
            hot.shape.quotas = cold.spec.quotas;
            hot.capacity = None;
            let ids = cold.instance_ids.clone();
            for uid in ids {
                let Some(inst) = self.instances.get(&uid) else {
                    continue;
                };
                let gpus: Vec<(dilu_gpu::InstanceId, GpuAddr)> = inst
                    .gpus
                    .iter()
                    .enumerate()
                    .map(|(stage, &gpu)| (inst.slot_id(stage), gpu))
                    .collect();
                for (slot_id, gpu) in gpus {
                    let g = self.nodes.slot_mut(gpu);
                    if g.engine.resize(slot_id, r.request, r.limit).is_ok() {
                        g.policy.notify_resize(slot_id, r.request, r.limit);
                    }
                }
            }
        }
    }

    pub(crate) fn cluster_view(&self) -> ClusterView {
        let mut view = ClusterView { gpus: Vec::new() };
        self.fill_cluster_view(&mut view);
        view
    }

    /// Rebuilds the placement/controller view in place. The GPU grid is
    /// dense (`node * gpus_per_node + gpu`), so each tick reuses the same
    /// `GpuView` slots — and crucially their `residents` vectors — instead
    /// of reconstructing a fresh map of the whole cluster.
    pub(crate) fn fill_cluster_view(&self, view: &mut ClusterView) {
        view.gpus.truncate(self.spec.total_gpus() as usize);
        for (i, addr) in self.spec.gpu_addrs().enumerate() {
            match view.gpus.get_mut(i) {
                Some(v) => {
                    v.addr = addr;
                    v.mem_capacity = self.spec.gpu_mem_bytes;
                    v.mem_reserved = 0;
                    v.residents.clear();
                }
                None => view.gpus.push(GpuView {
                    addr,
                    mem_capacity: self.spec.gpu_mem_bytes,
                    mem_reserved: 0,
                    residents: Vec::new(),
                }),
            }
        }
        for inst in self.instances.values() {
            if let Some(f) = self.funcs.hot(inst.func) {
                self.add_to_view(view, &inst.gpus, resident(f));
            }
        }
    }

    /// Adds one instance to `view`: `slice` and its memory on each of its
    /// GPUs. The fill adds instances in uid order, and a new instance has
    /// the largest uid, so a launch appending its own slices leaves the
    /// view exactly as a fresh fill would build it.
    pub(crate) fn add_to_view(
        &self,
        view: &mut ClusterView,
        gpus: &[GpuAddr],
        slice: ResidentInfo,
    ) {
        let per = self.spec.gpus_per_node;
        for gpu in gpus {
            let idx = (gpu.node * per + gpu.gpu) as usize;
            // The address check rejects off-grid addresses that would
            // otherwise alias a valid dense index, matching the old
            // map's behaviour of skipping unknown GPUs.
            let Some(v) = view.gpus.get_mut(idx).filter(|v| v.addr == *gpu) else {
                continue;
            };
            v.mem_reserved += slice.mem_bytes;
            v.residents.push(slice);
        }
    }

    /// The once-a-second controller phase: the cluster-wide metrics
    /// sample, then one pass over the function table that closes each
    /// function's second, rolls its window and builds its view, then the
    /// controller and its actions.
    pub(crate) fn controller_tick(&mut self) {
        let sampled = self.sample_cluster_metrics();
        let mut cluster =
            std::mem::replace(&mut self.view_scratch, ClusterView { gpus: Vec::new() });
        self.fill_cluster_view(&mut cluster);
        #[cfg(debug_assertions)]
        {
            self.assert_instance_counts();
            self.assert_hot_copies();
        }
        if self.audit_hook.is_some() {
            let snapshot = self.audit_with(&cluster);
            if let Some(hook) = self.audit_hook.as_mut() {
                hook(&snapshot);
            }
        }
        let now = self.now;
        let record_series = self.config.function_series;
        let instances = &self.instances;
        let mut views = Vec::with_capacity(self.funcs.len());
        for (hot, cold) in self.funcs.iter_mut() {
            if let Some(sec) = sampled {
                hot.close_second(cold, sec, record_series);
            }
            hot.window.roll_to(now);
            let (capacity_rps, capacity_rps_at_limit) =
                *hot.capacity.get_or_insert_with(|| capacity_of(&cold.spec));
            // The view borrows the window instead of copying its samples.
            let f: &FuncHot = hot;
            if !f.kind.is_inference() {
                continue;
            }
            let counts = f.counts;
            let mut backlog = f.backlog + (counts.queued + counts.inflight) as usize;
            let mut max_idle = SimDuration::ZERO;
            // Idle time needs the ready instances themselves, and the
            // backlog leaves out what draining instances still hold.
            if counts.ready > 0 || counts.draining > 0 {
                for inst in cold.instance_ids.iter().filter_map(|uid| instances.get(uid)) {
                    match inst.state {
                        InstanceState::Running if inst.load() == 0 => {
                            max_idle = max_idle.max(now.saturating_since(inst.last_active));
                        }
                        InstanceState::Draining => backlog -= inst.load(),
                        _ => {}
                    }
                }
            }
            views.push(FunctionScaleView {
                func: f.id,
                kind: f.kind,
                rps_window: f.window.samples(),
                ready_instances: counts.ready,
                starting_instances: counts.starting,
                backlog,
                capacity_rps,
                max_idle,
                quota: QuotaView {
                    request: f.shape.quotas.request,
                    limit: f.shape.quotas.limit,
                    profiled_request: f.profiled.0,
                    profiled_limit: f.profiled.1,
                    capacity_rps_at_limit,
                },
            });
        }
        let actions = self.controller.on_tick(now, &views, &cluster);
        // Shapes refused since the last successful launch. In this loop
        // only a launch changes the view (a scale-in merely marks an
        // instance draining, a resize is only queued), so a launch patches
        // `cluster` with its own slices instead of refilling it, and under
        // the `Placement` contract a refused shape stays refused until one
        // succeeds, so skipping it costs no placement call. A cursor finds
        // each scale-out's record, since controllers act in view order (id
        // order), so a doomed scale-out reads nothing but its hot shape.
        let mut refused: Vec<PlacementShape> = Vec::new();
        let mut cursor = 0;
        for action in actions {
            match action {
                ScaleAction::ScaleOut { func, count } => {
                    let Some(shape) = self.funcs.seek(&mut cursor, func).map(|f| f.shape) else {
                        continue;
                    };
                    for _ in 0..count {
                        if refused.contains(&shape) {
                            #[cfg(debug_assertions)]
                            self.assert_still_refused(&cluster, func, &shape);
                            continue;
                        }
                        match self.launch_on(&mut cluster, func, false) {
                            Ok(_) => {
                                refused.clear();
                                #[cfg(debug_assertions)]
                                self.assert_view_patched(&cluster);
                            }
                            Err(LaunchError::NoPlacement) => refused.push(shape),
                            Err(LaunchError::AdmissionRejected) => {}
                        }
                    }
                }
                ScaleAction::ScaleIn { func, count } => {
                    for _ in 0..count {
                        // Drain the most idle ready instance (scanning only
                        // this function's instances via the per-func index).
                        let Some((hot, cold)) = self.funcs.get_mut(func) else {
                            break;
                        };
                        let victim = cold
                            .instance_ids
                            .iter()
                            .filter_map(|uid| self.instances.get(uid))
                            .filter(|i| i.state.is_ready())
                            .min_by_key(|i| {
                                (
                                    std::cmp::Reverse(
                                        now.saturating_since(i.last_active).as_micros(),
                                    ),
                                    i.uid,
                                )
                            })
                            .map(|i| i.uid);
                        let Some(inst) = victim.and_then(|uid| self.instances.get_mut(&uid)) else {
                            continue;
                        };
                        hot.counts.leave(inst.state);
                        inst.state = InstanceState::Draining;
                        hot.counts.enter(inst.state);
                        self.draining_count += 1;
                        if self.event_active {
                            // Remaining pending work may still dispatch
                            // while draining.
                            self.dirty.push(inst.uid);
                        }
                    }
                }
                ScaleAction::ResizeQuota { func, request, limit } => {
                    self.request_resize(func, request, limit);
                }
            }
        }
        self.view_scratch = cluster;
    }

    /// The counters' debug oracle: recounts every function from its
    /// instances and panics, naming the function and the field, on drift.
    #[cfg(debug_assertions)]
    fn assert_instance_counts(&self) {
        for (hot, cold) in self.funcs.iter() {
            let kept = hot.counts;
            let counted = InstanceCounts::recount(
                cold.instance_ids.iter().filter_map(|uid| self.instances.get(uid)),
            );
            for (field, kept, counted) in [
                ("ready", u64::from(kept.ready), u64::from(counted.ready)),
                ("starting", u64::from(kept.starting), u64::from(counted.starting)),
                ("draining", u64::from(kept.draining), u64::from(counted.draining)),
                ("queued", kept.queued, counted.queued),
                ("inflight", kept.inflight, counted.inflight),
            ] {
                assert_eq!(
                    kept, counted,
                    "the `{field}` instance counter of {} drifted from its instances",
                    hot.id
                );
            }
        }
    }

    /// The hot records' debug oracle: re-derives every field a [`FuncHot`]
    /// copies from its cold state and panics, naming the function and the
    /// field, on drift.
    #[cfg(debug_assertions)]
    fn assert_hot_copies(&self) {
        for (hot, cold) in self.funcs.iter() {
            let spec = &cold.spec;
            let (at_request, at_limit) = capacity_of(spec);
            let capacity = hot.capacity.is_none_or(|(request, limit)| {
                request.to_bits() == at_request.to_bits() && limit.to_bits() == at_limit.to_bits()
            });
            for (field, held) in [
                ("id", hot.id == spec.id),
                ("kind", hot.kind == spec.kind),
                ("shape", hot.shape == PlacementShape::of(spec)),
                ("backlog", hot.backlog == cold.backlog.len()),
                ("capacity", capacity),
            ] {
                assert!(held, "the hot `{field}` of {} drifted from its cold state", spec.id);
            }
        }
    }

    /// The view patch's debug oracle: the view a tick's launches patched
    /// must equal a fresh fill.
    #[cfg(debug_assertions)]
    fn assert_view_patched(&self, view: &ClusterView) {
        let fresh = self.cluster_view();
        assert_eq!(view.gpus.len(), fresh.gpus.len(), "the patched view lost GPUs");
        if let Some((patched, fresh)) = view.gpus.iter().zip(&fresh.gpus).find(|(a, b)| a != b) {
            panic!(
                "a launch's view patch drifted from a fresh fill on {}: patched {patched:?}, \
                 fresh {fresh:?}",
                fresh.addr
            );
        }
    }

    /// The memo's debug oracle: re-runs the placement for a skipped
    /// scale-out of `func` and panics if it would have placed.
    #[cfg(debug_assertions)]
    fn assert_still_refused(
        &mut self,
        view: &ClusterView,
        func: FunctionId,
        shape: &PlacementShape,
    ) {
        let spec = &self.funcs.cold(func).expect("a scaled-out function is deployed").spec;
        let placed = self.placement.place(spec, view);
        assert!(
            placed.is_none(),
            "placement `{}` broke the `Placement` contract: it refused {shape:?} earlier in this \
             tick but places `{}` ({func}) of the same shape on the same view",
            self.placement.name(),
            spec.name,
        );
    }

    /// Takes the cluster-wide per-second sample: GPU usage and occupancy,
    /// GPU time and the cluster kernel series. Returns the sampled second,
    /// or `None` when this second was already sampled; the caller then
    /// closes every function's second at it.
    pub(crate) fn sample_cluster_metrics(&mut self) -> Option<u64> {
        let sec = self.now.as_secs();
        if self.last_sampled_sec == Some(sec) {
            return None;
        }
        self.last_sampled_sec = Some(sec);
        // Quanta covered by this sampling window. Skipped (idle) quanta
        // contribute exactly 0 to `used_accum`, so dividing by the window
        // size gives the same average whether or not they were stepped —
        // the dense stepper and the event core agree bit-for-bit.
        let window_quanta = self.sample_clock.window_quanta(self.now, QUANTUM);
        let mut samples = std::mem::take(&mut self.sample_buf);
        samples.clear();
        let mut occupied = 0u32;
        for slot in self.nodes.slots_mut() {
            let avg_used = slot.used_accum / window_quanta as f64;
            slot.used_accum = 0.0;
            let is_occupied = slot.engine.resident_count() > 0;
            if is_occupied {
                occupied += 1;
            }
            samples.push(GpuUsageSample {
                sm_capacity: 100.0,
                sm_used: avg_used * 100.0,
                mem_capacity: slot.engine.mem_capacity(),
                mem_used: slot.engine.mem_used(),
                occupied: is_occupied,
            });
        }
        debug_assert_eq!(
            occupied,
            self.nodes.occupied(),
            "node-plane occupancy counter drifted from engine state"
        );
        self.fragmentation.push(FragmentationSnapshot::from_samples(&samples));
        self.sample_buf = samples;
        self.occupied_series.push((sec, occupied));
        self.peak_gpus = self.peak_gpus.max(occupied);
        // Samples are one second apart, so each stands for one second.
        self.gpu_seconds += f64::from(occupied) * TICK.as_secs_f64();
        debug_assert_eq!(
            self.instance_gpus,
            self.instances.values().map(|i| i.gpus.len()).sum::<usize>(),
            "instance GPU counter drifted from the instances"
        );
        self.instance_gpu_seconds += self.instance_gpus as f64 * TICK.as_secs_f64();
        self.total_kernel_series.push((sec, self.total_blocks_sec));
        self.total_blocks_sec = 0;
        Some(sec)
    }
}

/// The view entry of one slice of `f`'s instances.
pub(crate) fn resident(f: &FuncHot) -> ResidentInfo {
    ResidentInfo {
        func: f.id,
        class: f.shape.class,
        request: f.shape.quotas.request,
        limit: f.shape.quotas.limit,
        mem_bytes: f.shape.quotas.mem_bytes,
    }
}
