//! Instance and training-job lifecycle (control plane).
//!
//! Everything that creates, promotes, drains, or destroys capacity lives
//! here: deployment entry points and their typed [`DeployError`]s, spec
//! validation, instance launch (placement + engine admission + cold-start
//! scheduling) and termination, cold-start promotion, drained-instance
//! reaping, and the barrier-synchronised training-job state machine
//! (compute/communication phases, worker placement retries, completion
//! teardown). The node plane is only touched through
//! [`NodePlane`](crate::nodes) wrappers so occupancy accounting stays
//! exact.

use std::collections::VecDeque;

use dilu_gpu::{SlotConfig, TaskClass, QUANTUM};
use dilu_sim::SimTime;

use crate::elasticity::resident;
use crate::instance::{Instance, MAX_STAGES};
use crate::sim::{ArrivalStream, SimEvent, TICK};
use crate::traits::ClusterView;
use crate::{
    cold_start_duration, ClusterSim, FunctionId, FunctionKind, FunctionSpec, InstanceState,
    InstanceUid,
};

/// Errors surfaced by deployment calls.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeployError {
    /// The placement policy found no feasible GPUs.
    PlacementFailed(FunctionId),
    /// A function with this id is already deployed.
    DuplicateFunction(FunctionId),
    /// The function spec itself is invalid (zero batch, zero workers, ...).
    InvalidSpec {
        /// The offending function.
        func: FunctionId,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// The spec asks for more GPUs per instance than the cluster has.
    ClusterTooSmall {
        /// The offending function.
        func: FunctionId,
        /// GPUs one instance needs.
        needed: u32,
        /// GPUs the cluster has in total.
        available: u32,
    },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::PlacementFailed(id) => write!(f, "no feasible placement for {id}"),
            DeployError::DuplicateFunction(id) => write!(f, "function {id} already deployed"),
            DeployError::InvalidSpec { func, reason } => {
                write!(f, "invalid spec for {func}: {reason}")
            }
            DeployError::ClusterTooSmall { func, needed, available } => {
                write!(f, "{func} needs {needed} GPUs per instance but the cluster has {available}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// Why [`ClusterSim::launch_instance`] launched nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaunchError {
    /// The placement found no GPUs for the spec.
    NoPlacement,
    /// A chosen GPU's engine refused its slot; the earlier stages were
    /// rolled back.
    AdmissionRejected,
}

/// The GPU task class of a function's instances.
pub(crate) fn task_class(kind: FunctionKind) -> TaskClass {
    if kind.is_inference() {
        TaskClass::SloSensitive
    } else {
        TaskClass::BestEffort
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobPhase {
    WaitingForWorkers,
    Compute,
    Comm,
    Done,
}

#[derive(Debug)]
pub(crate) struct TrainingJob {
    pub(crate) workers: Vec<InstanceUid>,
    pub(crate) phase: JobPhase,
    /// Per-worker "has not finished the current phase" mask; reused across
    /// phases (a fresh set per half-iteration was measurable allocator
    /// churn at cluster scale).
    pub(crate) remaining: Vec<bool>,
    pub(crate) iterations_done: u64,
    pub(crate) target: u64,
    pub(crate) started: Option<SimTime>,
    pub(crate) finished: Option<SimTime>,
    pub(crate) samples_done: u64,
}

impl ClusterSim {
    /// Deploys an inference function with `initial` pre-warmed instances
    /// whose arrivals are pulled from `process` up to the `end` horizon.
    ///
    /// The process is *streamed*: ingest pulls it in chunks of at most
    /// [`ARRIVAL_WINDOW`](crate::ARRIVAL_WINDOW) instants, so a function's
    /// arrival memory is O(window), never O(total requests). Callers
    /// holding explicit instants pass a
    /// [`ReplayProcess`](dilu_workload::ReplayProcess) with
    /// [`SimTime::MAX`] as `end`.
    ///
    /// The first chunk is pulled lazily at the next
    /// [`run_until`](Self::run_until) entry, so hooks registered before
    /// the run observe the complete stream.
    ///
    /// # Errors
    ///
    /// [`DeployError::DuplicateFunction`] if the id is taken;
    /// [`DeployError::InvalidSpec`] / [`DeployError::ClusterTooSmall`] for
    /// structurally impossible specs; [`DeployError::PlacementFailed`] if
    /// any initial instance cannot be placed.
    pub fn deploy_inference(
        &mut self,
        spec: FunctionSpec,
        initial: u32,
        process: Box<dyn dilu_workload::ArrivalProcess>,
        end: SimTime,
    ) -> Result<(), DeployError> {
        if self.funcs.contains(spec.id) {
            return Err(DeployError::DuplicateFunction(spec.id));
        }
        debug_assert!(spec.kind.is_inference(), "use deploy_training for training functions");
        self.validate_spec(&spec)?;
        let id = spec.id;
        self.funcs.insert(spec, Some(ArrivalStream { process, end }));
        for _ in 0..initial {
            self.launch_instance(id, true).map_err(|_| DeployError::PlacementFailed(id))?;
        }
        Ok(())
    }

    /// Deploys a training function; its workers are placed immediately and
    /// the job starts once all of them are ready.
    ///
    /// # Errors
    ///
    /// [`DeployError::DuplicateFunction`] if the id is taken;
    /// [`DeployError::PlacementFailed`] if any worker cannot be placed.
    pub fn deploy_training(&mut self, spec: FunctionSpec) -> Result<(), DeployError> {
        if self.funcs.contains(spec.id) {
            return Err(DeployError::DuplicateFunction(spec.id));
        }
        let FunctionKind::Training { workers, iterations } = spec.kind else {
            panic!("use deploy_inference for inference functions");
        };
        self.validate_spec(&spec)?;
        let id = spec.id;
        self.funcs.insert(spec, None);
        let mut uids = Vec::new();
        for _ in 0..workers {
            match self.launch_instance(id, true) {
                Ok(uid) => uids.push(uid),
                Err(_) => {
                    // Roll back so a later retry starts clean.
                    for uid in uids {
                        self.terminate_instance(uid);
                    }
                    self.funcs.remove(id);
                    return Err(DeployError::PlacementFailed(id));
                }
            }
        }
        self.jobs.insert(
            id,
            TrainingJob {
                workers: uids,
                phase: JobPhase::WaitingForWorkers,
                remaining: Vec::new(),
                iterations_done: 0,
                target: iterations,
                started: None,
                finished: None,
                samples_done: 0,
            },
        );
        // Pre-warmed workers are ready immediately; kick the job off now.
        self.maybe_start_job(id);
        Ok(())
    }

    /// Schedules a training function to be submitted at `at` (paper §5.4
    /// submits jobs at different times). Placement happens at submission;
    /// if the cluster is full then, the submission is retried each second.
    ///
    /// # Errors
    ///
    /// [`DeployError::InvalidSpec`] / [`DeployError::ClusterTooSmall`] for
    /// structurally impossible specs — validated eagerly, since a spec
    /// failing at submission time would otherwise be retried (and dropped)
    /// silently.
    pub fn schedule_training(
        &mut self,
        spec: FunctionSpec,
        at: SimTime,
    ) -> Result<(), DeployError> {
        debug_assert!(!spec.kind.is_inference(), "only training can be scheduled late");
        self.validate_spec(&spec)?;
        self.pending_training.push((at, spec));
        Ok(())
    }

    /// Rejects structurally impossible specs with a typed error instead of
    /// letting them fail as an opaque placement failure (or panic) later.
    pub(crate) fn validate_spec(&self, spec: &FunctionSpec) -> Result<(), DeployError> {
        let func = spec.id;
        if spec.gpus_per_instance == 0 {
            return Err(DeployError::InvalidSpec { func, reason: "gpus_per_instance is zero" });
        }
        if u64::from(spec.gpus_per_instance) > MAX_STAGES {
            return Err(DeployError::InvalidSpec {
                func,
                reason: "gpus_per_instance exceeds the 16 supported pipeline stages",
            });
        }
        if spec.quotas.mem_bytes == 0 {
            return Err(DeployError::InvalidSpec { func, reason: "memory reservation is zero" });
        }
        if spec.quotas.mem_bytes > self.spec.gpu_mem_bytes {
            return Err(DeployError::InvalidSpec {
                func,
                reason: "memory reservation exceeds one GPU",
            });
        }
        match spec.kind {
            FunctionKind::Inference { batch: 0, .. } => {
                return Err(DeployError::InvalidSpec { func, reason: "batch size is zero" });
            }
            FunctionKind::Training { workers: 0, .. } => {
                return Err(DeployError::InvalidSpec { func, reason: "worker count is zero" });
            }
            FunctionKind::Training { iterations: 0, .. } => {
                return Err(DeployError::InvalidSpec { func, reason: "iteration target is zero" });
            }
            _ => {}
        }
        if spec.gpus_per_instance > self.spec.total_gpus() {
            return Err(DeployError::ClusterTooSmall {
                func,
                needed: spec.gpus_per_instance,
                available: self.spec.total_gpus(),
            });
        }
        Ok(())
    }

    pub(crate) fn submit_due_training(&mut self) {
        let now = self.now;
        let due: Vec<FunctionSpec> = {
            let mut due = Vec::new();
            self.pending_training.retain(|(at, spec)| {
                if *at <= now {
                    due.push(spec.clone());
                    false
                } else {
                    true
                }
            });
            due
        };
        for spec in due {
            let at = now + TICK;
            if self.deploy_training(spec.clone()).is_err() {
                // Cluster full or duplicate: retry next second unless the
                // function already exists.
                if !self.funcs.contains(spec.id) {
                    self.pending_training.push((at, spec));
                    if self.event_active {
                        let due = self.grid_ceil(at).max(self.now + QUANTUM);
                        self.events.push(due, SimEvent::TrainingSubmit);
                    }
                }
            }
        }
    }

    /// The dense promotion phase: every cold-started instance whose
    /// `ready_at` has passed becomes ready and picks up the gateway
    /// backlog.
    pub(crate) fn promote_ready_instances(&mut self) -> u64 {
        let now = self.now;
        let mut became_ready = Vec::new();
        for inst in self.instances.values_mut() {
            if let InstanceState::ColdStarting { ready_at } = inst.state {
                if now >= ready_at {
                    if let Some(f) = self.funcs.hot_mut(inst.func) {
                        f.counts.leave(inst.state);
                        f.counts.enter(InstanceState::Running);
                    }
                    inst.state = InstanceState::Running;
                    inst.last_active = now;
                    became_ready.push((inst.uid, inst.func));
                }
            }
        }
        let promoted = became_ready.len() as u64;
        // Drain gateway backlog into newly ready instances.
        for (uid, func) in became_ready {
            if let Some((hot, cold)) = self.funcs.get_mut(func) {
                if let Some(inst) = self.instances.get_mut(&uid) {
                    hot.counts.queued += cold.backlog.len() as u64;
                    hot.backlog = 0;
                    inst.pending.extend(cold.backlog.drain(..));
                }
            }
            self.maybe_start_job(func);
        }
        promoted
    }

    /// Promotes one cold-started instance (the event-core counterpart of
    /// [`promote_ready_instances`](Self::promote_ready_instances)).
    pub(crate) fn promote_instance(&mut self, uid: InstanceUid) {
        let now = self.now;
        let Some(inst) = self.instances.get_mut(&uid) else {
            return;
        };
        let InstanceState::ColdStarting { ready_at } = inst.state else {
            return;
        };
        debug_assert!(now >= ready_at, "promotion event fired early");
        let func = inst.func;
        if let Some((hot, cold)) = self.funcs.get_mut(func) {
            hot.counts.leave(inst.state);
            hot.counts.enter(InstanceState::Running);
            hot.counts.queued += cold.backlog.len() as u64;
            hot.backlog = 0;
            inst.pending.extend(cold.backlog.drain(..));
        }
        inst.state = InstanceState::Running;
        inst.last_active = now;
        if !inst.pending.is_empty() {
            self.dirty.push(uid);
        }
        self.maybe_start_job(func);
    }

    pub(crate) fn maybe_start_job(&mut self, func: FunctionId) {
        let Some(job) = self.jobs.get_mut(&func) else {
            return;
        };
        if job.phase != JobPhase::WaitingForWorkers {
            return;
        }
        let all_ready = job
            .workers
            .iter()
            .all(|uid| self.instances.get(uid).is_some_and(|i| i.state.is_ready()));
        if !all_ready {
            return;
        }
        job.phase = JobPhase::Compute;
        job.started = Some(self.now);
        let n = job.workers.len();
        job.remaining.clear();
        job.remaining.resize(n, true);
        let workers = std::mem::take(&mut job.workers);
        for (w, uid) in workers.iter().enumerate() {
            self.push_train_item(func, *uid, w, true);
        }
        self.jobs.get_mut(&func).expect("job persists").workers = workers;
    }

    pub(crate) fn advance_training(
        &mut self,
        func: FunctionId,
        worker: usize,
        was_compute: bool,
        at: SimTime,
    ) {
        let Some(job) = self.jobs.get_mut(&func) else {
            return;
        };
        if let Some(r) = job.remaining.get_mut(worker) {
            *r = false;
        }
        if job.remaining.iter().any(|&r| r) {
            return;
        }
        match (job.phase, was_compute) {
            (JobPhase::Compute, true) => {
                job.phase = JobPhase::Comm;
                let n = job.workers.len();
                job.remaining.clear();
                job.remaining.resize(n, true);
                let workers = std::mem::take(&mut job.workers);
                for (w, uid) in workers.iter().enumerate() {
                    self.push_train_item(func, *uid, w, false);
                }
                self.jobs.get_mut(&func).expect("job persists").workers = workers;
            }
            (JobPhase::Comm, false) => {
                job.iterations_done += 1;
                let samples = self
                    .funcs
                    .hot(func)
                    .map(|f| u64::from(f.shape.model.profile().training.samples_per_iter))
                    .unwrap_or(0);
                job.samples_done += samples * job.workers.len() as u64;
                if job.iterations_done >= job.target {
                    job.phase = JobPhase::Done;
                    // The exact block-finish instant of the last worker, not
                    // the enclosing quantum's start.
                    job.finished = Some(at);
                    let workers = std::mem::take(&mut job.workers);
                    for &uid in &workers {
                        self.terminate_instance(uid);
                    }
                    self.jobs.get_mut(&func).expect("job persists").workers = workers;
                } else {
                    job.phase = JobPhase::Compute;
                    let n = job.workers.len();
                    job.remaining.clear();
                    job.remaining.resize(n, true);
                    let workers = std::mem::take(&mut job.workers);
                    for (w, uid) in workers.iter().enumerate() {
                        self.push_train_item(func, *uid, w, true);
                    }
                    self.jobs.get_mut(&func).expect("job persists").workers = workers;
                }
            }
            _ => {}
        }
    }

    pub(crate) fn reap_drained(&mut self) {
        if self.draining_count == 0 {
            return;
        }
        let drained: Vec<InstanceUid> = self
            .instances
            .values()
            .filter(|i| {
                matches!(i.state, InstanceState::Draining)
                    && i.inflight.is_empty()
                    && i.pending.is_empty()
            })
            .map(|i| i.uid)
            .collect();
        for uid in drained {
            self.terminate_instance(uid);
        }
    }

    pub(crate) fn terminate_instance(&mut self, uid: InstanceUid) {
        let Some(inst) = self.instances.remove(&uid) else {
            return;
        };
        if matches!(inst.state, InstanceState::Draining) {
            self.draining_count = self.draining_count.saturating_sub(1);
        }
        self.instance_gpus -= inst.gpus.len();
        self.dirty.retain(|&d| d != uid);
        // The deadline record left the map with the instance; cancel its
        // event token so the queue does not fire a stale wake.
        if let Some(token) = inst.deadline {
            self.events.cancel(token);
        }
        if let Some((hot, cold)) = self.funcs.get_mut(inst.func) {
            cold.instance_ids.retain(|&i| i != uid);
            hot.counts.leave(inst.state);
            hot.counts.queued -= inst.pending.len() as u64;
            hot.counts.inflight -= inst.inflight_requests() as u64;
            // Requeue any stranded requests at the gateway.
            cold.backlog.extend(inst.pending.iter().copied());
            hot.backlog += inst.pending.len();
        }
        for (stage, gpu) in inst.gpus.iter().enumerate() {
            self.nodes.evict(*gpu, inst.slot_id(stage));
        }
    }

    /// Places and admits one instance of the deployed function `func`,
    /// then starts its cold start (or, `prewarmed`, makes it ready now).
    ///
    /// Every stage is admitted before the cold start begins, so a slot the
    /// engine refuses rolls the launch back with no cold start recorded
    /// and no weight fetch, promotion event or cache entry left behind.
    pub(crate) fn launch_instance(
        &mut self,
        func: FunctionId,
        prewarmed: bool,
    ) -> Result<InstanceUid, LaunchError> {
        let mut view = std::mem::replace(&mut self.view_scratch, ClusterView { gpus: Vec::new() });
        self.fill_cluster_view(&mut view);
        let launched = self.launch_on(&mut view, func, prewarmed);
        self.view_scratch = view;
        launched
    }

    /// [`launch_instance`](Self::launch_instance) placed on `view`, the
    /// current placement view, which a successful launch patches with the
    /// new instance's slices.
    pub(crate) fn launch_on(
        &mut self,
        view: &mut ClusterView,
        func: FunctionId,
        prewarmed: bool,
    ) -> Result<InstanceUid, LaunchError> {
        let (hot, cold) = self.funcs.get(func).expect("launch of an undeployed function");
        let (model, stages, slice) = (hot.shape.model, hot.shape.gpus_per_instance, resident(hot));
        let gpus = self.placement.place(&cold.spec, view).ok_or(LaunchError::NoPlacement)?;
        // Every address enters the node plane here, and the plane indexes
        // GPUs densely: an off-grid `gpu` would alias another node's card.
        let grid = self.spec;
        assert!(
            gpus.len() as u32 == stages
                && gpus.iter().all(|g| g.node < grid.nodes && g.gpu < grid.gpus_per_node),
            "placement `{}` returned {gpus:?} for `{}`, which needs exactly {} GPU(s) on the \
             {} x {} grid",
            self.placement.name(),
            cold.spec.name,
            stages,
            grid.nodes,
            grid.gpus_per_node,
        );
        let uid = InstanceUid(self.next_uid);
        self.next_uid += 1;
        let mut inst = Instance {
            uid,
            func,
            gpus,
            // Set below, once every stage is admitted.
            state: InstanceState::Running,
            pending: VecDeque::new(),
            inflight: Vec::new(),
            last_active: self.now,
            deadline: None,
        };
        let cfg = SlotConfig {
            class: slice.class,
            request: slice.request,
            limit: slice.limit,
            mem_bytes: slice.mem_bytes,
        };
        for (stage, gpu) in inst.gpus.iter().enumerate() {
            let slot = inst.slot_id(stage);
            if self.event_active {
                // Close any idle gap *before* the new slot joins the
                // roster: replayed cycles must show the pre-admission
                // residents only, and the fresh slot's policy history must
                // start here — exactly as under dense stepping.
                self.nodes.slot_mut(*gpu).catch_up(self.now, self.gpu_phase_done);
            }
            if self.nodes.admit(*gpu, slot, cfg).is_err() {
                // Roll back earlier stages.
                for (s, g) in inst.gpus.iter().enumerate().take(stage) {
                    self.nodes.evict(*g, inst.slot_id(s));
                }
                return Err(LaunchError::AdmissionRejected);
            }
        }
        let node = inst.gpus[0].node as usize;
        inst.state = if prewarmed {
            // Prewarming ships the weights ahead of time, so the node
            // cache holds the model from here on.
            if let Some(net) = self.net.as_mut() {
                net.caches[node].insert(model, model.profile().param_bytes);
            }
            InstanceState::Running
        } else if self.net.is_some() {
            let net = self.net.as_mut().expect("checked above");
            let provision = net.cfg.provision;
            if net.caches[node].contains(&model) {
                // Weights already on the node: only the provision residue
                // (container/runtime setup) stands between us and Running.
                if let Some(f) = self.funcs.cold_mut(func) {
                    f.cold_starts.record_cached(provision);
                }
                let ready_at = self.now + provision;
                if self.event_active {
                    // This wake's promotion phase has already run; the
                    // dense stepper would promote at the next quantum.
                    let due = self.grid_ceil(ready_at).max(self.now + QUANTUM);
                    self.events.push(due, SimEvent::ColdStartReady(uid));
                }
                InstanceState::ColdStarting { ready_at }
            } else {
                // Cache miss: fetch the weights from the registry as a
                // shared-bandwidth flow. Readiness (and the cold-start
                // record) waits for the flow; the MAX sentinel marks an
                // instance gated on the network, not a timer.
                net.plane.start_fetch(
                    self.now,
                    node,
                    model.profile().param_bytes,
                    crate::netplane::NetPayload::Fetch { uid, func, model, launched: self.now },
                );
                self.sync_net_events();
                InstanceState::ColdStarting { ready_at: SimTime::MAX }
            }
        } else {
            let delay = cold_start_duration(model);
            if let Some(f) = self.funcs.cold_mut(func) {
                f.cold_starts.record(delay);
            }
            let ready_at = self.now + delay;
            if self.event_active {
                // This wake's promotion phase has already run; the dense
                // stepper would promote at the next processed quantum.
                let due = self.grid_ceil(ready_at).max(self.now + QUANTUM);
                self.events.push(due, SimEvent::ColdStartReady(uid));
            }
            InstanceState::ColdStarting { ready_at }
        };
        if let Some((hot, cold)) = self.funcs.get_mut(func) {
            cold.instance_ids.push(uid);
            hot.counts.enter(inst.state);
        }
        self.instance_gpus += inst.gpus.len();
        self.add_to_view(view, &inst.gpus, slice);
        self.instances.insert(uid, inst);
        Ok(uid)
    }
}
