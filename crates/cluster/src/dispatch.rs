//! Request dispatch (control plane): arrival ingest, gateway routing,
//! dynamic batch formation, and completion handling.
//!
//! Arrivals are ingested per quantum, routed to the least-loaded ready
//! instance (falling back to cold-starting instances, then the gateway
//! backlog), and batched per instance under the SLO-derived formation
//! timeout. Both time models share the same batching rules; the event
//! core visits only *dirty* instances (those whose batch state changed
//! this wake) while the dense stepper scans everything. Work items are
//! queued on node-plane engines through [`push_stage_item`]
//! (`ClusterSim::push_stage_item`), which also performs the idle→busy
//! policy catch-up; completions flow back here to advance pipeline stages,
//! record latencies, and drive the training state machine in
//! [`lifecycle`](crate::lifecycle).

use dilu_gpu::QUANTUM;
use dilu_sim::SimTime;

use crate::instance::{InflightBatch, Instance, Request};
use crate::sim::{ClusterSim, BATCH_TIMEOUT_CAP, BATCH_TIMEOUT_FRAC, STAGE_TRANSFER};
use crate::{FunctionId, FunctionKind, InstanceState, InstanceUid};

/// What a completed engine work item meant to the control plane.
#[derive(Debug, Clone, Copy)]
pub(crate) enum WorkPayload {
    InferStage { uid: InstanceUid, batch_id: u64 },
    TrainCompute { func: FunctionId, worker: usize },
    TrainComm { func: FunctionId, worker: usize },
}

/// Slab of in-flight work payloads keyed by engine tag.
///
/// Tags are opaque correlation ids (never ordered, never reported), so a
/// freed slot's index can be handed out again: a tag is released exactly
/// when its completion is handled, after which no engine item carries it.
/// Items dropped by eviction leak their slot, exactly as the former
/// `BTreeMap` leaked its entry. Slot reuse keeps steady-state dispatch
/// free of map-node allocations.
#[derive(Debug, Default)]
pub(crate) struct TagSlab {
    slots: Vec<Option<WorkPayload>>,
    free: Vec<u32>,
}

impl TagSlab {
    /// Stores `payload` and returns the tag to stamp on the work item.
    pub(crate) fn insert(&mut self, payload: WorkPayload) -> u64 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(payload);
                u64::from(i)
            }
            None => {
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u64
            }
        }
    }

    /// Releases `tag` and returns its payload, or `None` if the tag is
    /// unknown (already completed or never issued).
    pub(crate) fn remove(&mut self, tag: u64) -> Option<WorkPayload> {
        let payload = self.slots.get_mut(usize::try_from(tag).ok()?)?.take();
        if payload.is_some() {
            self.free.push(tag as u32);
        }
        payload
    }
}

impl ClusterSim {
    pub(crate) fn ingest_arrivals(&mut self) {
        let now = self.now;
        let cutoff = now + QUANTUM;
        // Functions with an arrival due this quantum, from the lazy
        // min-index — never a scan of all functions. A popped entry whose
        // function's live head moved past the cutoff is stale: re-arm it
        // at the live head and move on.
        let mut due = std::mem::take(&mut self.due_funcs_buf);
        due.clear();
        while let Some(&std::cmp::Reverse((t, id))) = self.arrival_index.peek() {
            if t >= cutoff {
                break;
            }
            self.arrival_index.pop();
            match self.funcs.cold(id).and_then(|f| f.arrivals.front().copied()) {
                Some(head) if head < cutoff => due.push(id),
                Some(head) => self.arrival_index.push(std::cmp::Reverse((head, id))),
                None => {}
            }
        }
        // Ascending-id order (duplicates possible when several stale
        // entries shadow one function), matching the full-map iteration
        // the dense stepper historically used — request ids and routing
        // order stay byte-identical.
        due.sort_unstable();
        due.dedup();
        let mut routed = std::mem::take(&mut self.routed_buf);
        routed.clear();
        for &id in &due {
            loop {
                let (hot, cold) = self.funcs.get_mut(id).expect("due function exists");
                while cold.arrivals.front().is_some_and(|&t| t < cutoff) {
                    let arrived = cold.arrivals.pop_front().expect("checked front");
                    let req = Request { id: self.next_request, arrived };
                    self.next_request += 1;
                    cold.arrived += 1;
                    hot.sec_arrivals += 1;
                    hot.window.observe(arrived);
                    routed.push((id, req));
                }
                // Window drained mid-quantum: pull the next chunk and keep
                // popping — a bounded window must never delay an arrival.
                if cold.arrivals.is_empty() && cold.stream.is_some() {
                    self.refill_arrivals(id);
                    let refilled_due = self
                        .funcs
                        .cold(id)
                        .is_some_and(|f| f.arrivals.front().is_some_and(|&t| t < cutoff));
                    if refilled_due {
                        continue;
                    }
                }
                break;
            }
            // Re-arm the index at the next head beyond this quantum.
            if let Some(&head) = self.funcs.cold(id).and_then(|f| f.arrivals.front()) {
                self.arrival_index.push(std::cmp::Reverse((head, id)));
            }
        }
        due.clear();
        self.due_funcs_buf = due;
        for &(func, req) in &routed {
            self.route_request(func, req);
        }
        routed.clear();
        self.routed_buf = routed;
    }

    pub(crate) fn route_request(&mut self, func: FunctionId, req: Request) {
        // Least-loaded ready instance; else least-loaded cold-starting one;
        // else the gateway backlog. Scans only this function's instances
        // (the per-func index), not the cluster.
        let Some((hot, cold)) = self.funcs.get_mut(func) else {
            return;
        };
        let candidates = cold.instance_ids.iter().filter_map(|uid| self.instances.get(uid));
        let mut best_ready: Option<(usize, InstanceUid)> = None;
        let mut best_cold: Option<(usize, InstanceUid)> = None;
        for inst in candidates {
            let key = (inst.load(), inst.uid);
            match inst.state {
                InstanceState::Running => {
                    if best_ready.is_none_or(|b| key < b) {
                        best_ready = Some(key);
                    }
                }
                InstanceState::ColdStarting { .. } => {
                    if best_cold.is_none_or(|b| key < b) {
                        best_cold = Some(key);
                    }
                }
                InstanceState::Draining => {}
            }
        }
        let target = best_ready.or(best_cold).map(|(_, uid)| uid);
        match target {
            Some(uid) => {
                let inst = self.instances.get_mut(&uid).expect("target exists");
                inst.pending.push_back(req);
                hot.counts.queued += 1;
                if self.event_active {
                    self.dirty.push(uid);
                }
            }
            None => {
                cold.backlog.push_back(req);
                hot.backlog += 1;
            }
        }
    }

    /// The dense dispatch phase: every instance, every quantum.
    pub(crate) fn dispatch_batches(&mut self) {
        let now = self.now;
        let mut dispatches: Vec<(InstanceUid, u64, usize)> = Vec::new();
        for inst in self.instances.values_mut() {
            if !inst.state.is_ready() && !matches!(inst.state, InstanceState::Draining) {
                continue;
            }
            let Some(f) = self.funcs.hot_mut(inst.func) else {
                continue;
            };
            let FunctionKind::Inference { slo, batch } = f.kind else {
                continue;
            };
            // Keep a short pipeline of batches queued on the engine slot so
            // the share policy sees backlog pressure (the RCKM reads queue
            // depth / KLC growth as its burst signal).
            let at_stage0 = inst.inflight.iter().filter(|b| b.stage == 0).count();
            if at_stage0 >= 4 {
                continue;
            }
            if inst.pending.is_empty() {
                continue;
            }
            let timeout = slo.mul_f64(BATCH_TIMEOUT_FRAC).min(BATCH_TIMEOUT_CAP);
            let oldest = inst.pending.front().expect("non-empty").arrived;
            let full = inst.pending.len() >= batch as usize;
            let expired = now.saturating_since(oldest) >= timeout;
            if !full && !expired {
                continue;
            }
            let take = inst.pending.len().min(batch as usize);
            let requests: Vec<Request> = inst.pending.drain(..take).collect();
            f.counts.queued -= take as u64;
            f.counts.inflight += take as u64;
            let batch_id = self.next_batch;
            self.next_batch += 1;
            inst.inflight.push(InflightBatch { batch_id, requests, stage: 0 });
            inst.last_active = now;
            dispatches.push((inst.uid, batch_id, take));
        }
        for (uid, batch_id, size) in dispatches {
            self.push_stage_item(uid, batch_id, 0, size as u32);
        }
    }

    /// The event-core dispatch phase: examines exactly the instances whose
    /// batch state changed this wake (`dirty`) plus those whose deadline
    /// fired, in uid order — the same visit order and one-batch-per-
    /// quantum budget as the dense scan over all instances.
    pub(crate) fn dispatch_candidates(&mut self, expired: &[InstanceUid]) {
        if self.dirty.is_empty() && expired.is_empty() {
            return;
        }
        let now = self.now;
        let mut candidates = std::mem::take(&mut self.dirty);
        candidates.extend_from_slice(expired);
        candidates.sort_unstable();
        candidates.dedup();
        let mut dispatches = std::mem::take(&mut self.dispatch_buf);
        dispatches.clear();
        for uid in candidates.drain(..) {
            let Some(inst) = self.instances.get(&uid) else {
                self.cancel_deadline(uid);
                continue;
            };
            if !inst.state.is_ready() && !matches!(inst.state, InstanceState::Draining) {
                // Still cold-starting: promotion re-marks it dirty.
                continue;
            }
            let Some(f) = self.funcs.hot_mut(inst.func) else {
                continue;
            };
            let FunctionKind::Inference { slo, batch } = f.kind else {
                continue;
            };
            if inst.pending.is_empty() {
                self.cancel_deadline(uid);
                continue;
            }
            let timeout = slo.mul_f64(BATCH_TIMEOUT_FRAC).min(BATCH_TIMEOUT_CAP);
            let at_stage0 = inst.inflight.iter().filter(|b| b.stage == 0).count();
            let oldest = inst.pending.front().expect("non-empty").arrived;
            let full = inst.pending.len() >= batch as usize;
            let is_expired = now.saturating_since(oldest) >= timeout;
            if at_stage0 >= 4 {
                // Pipeline full: the next stage-0 completion re-marks this
                // instance dirty, which re-runs this check.
                continue;
            }
            if !full && !is_expired {
                self.schedule_deadline(uid, oldest + timeout);
                continue;
            }
            let mut requests = self.request_pool.pop().unwrap_or_default();
            let inst = self.instances.get_mut(&uid).expect("checked above");
            let take = inst.pending.len().min(batch as usize);
            requests.extend(inst.pending.drain(..take));
            f.counts.queued -= take as u64;
            f.counts.inflight += take as u64;
            let batch_id = self.next_batch;
            self.next_batch += 1;
            inst.inflight.push(InflightBatch { batch_id, requests, stage: 0 });
            inst.last_active = now;
            dispatches.push((uid, batch_id, take));
            // Leftover requests: at most one batch dispatches per instance
            // per quantum (as in the dense stepper), so a still-ready
            // leftover waits for the next grid instant.
            match inst.pending.front() {
                None => self.cancel_deadline(uid),
                Some(head) => {
                    let head_arrived = head.arrived;
                    let full2 = inst.pending.len() >= batch as usize;
                    let expired2 = now.saturating_since(head_arrived) >= timeout;
                    if full2 || expired2 {
                        self.cancel_deadline(uid);
                        if at_stage0 + 1 < 4 {
                            self.dirty.push(uid);
                        }
                    } else {
                        self.schedule_deadline(uid, head_arrived + timeout);
                    }
                }
            }
        }
        for &(uid, batch_id, size) in &dispatches {
            self.push_stage_item(uid, batch_id, 0, size as u32);
        }
        self.dispatch_buf = dispatches;
        // Hand the drained allocation back to `dirty`, keeping any entries
        // pushed while dispatching (they are next quantum's candidates).
        candidates.append(&mut self.dirty);
        self.dirty = candidates;
    }

    /// Queues the work item for `stage` of a batch on the right GPU.
    pub(crate) fn push_stage_item(
        &mut self,
        uid: InstanceUid,
        batch_id: u64,
        stage: usize,
        batch: u32,
    ) {
        let Some(inst) = self.instances.get_mut(&uid) else {
            return;
        };
        let Some(f) = self.funcs.hot(inst.func) else {
            return;
        };
        let profile = f.shape.model.profile();
        let stages = inst.gpus.len() as u32;
        let t_total = profile.inference_t_min(batch);
        // With a network plane the inter-stage handoff is priced by an
        // activation-transfer flow instead of the fixed constant.
        let transfer =
            if self.net.is_some() { dilu_sim::SimDuration::ZERO } else { STAGE_TRANSFER };
        let t_stage = t_total / u64::from(stages) + transfer;
        // Each stage hosts 1/stages of the layers, so its kernel stream
        // saturates at roughly that share of the card.
        let sat = profile
            .inference_sat(batch)
            .scale(1.0 / f64::from(stages))
            .max(dilu_gpu::SmRate::from_percent(5.0));
        let blocks = profile.inference_blocks(batch) / u64::from(stages);
        let tag = self.tags.insert(WorkPayload::InferStage { uid, batch_id });
        let gpu = inst.gpus[stage];
        let slot = inst.slot_id(stage);
        let item = dilu_gpu::WorkItem::compute(t_stage, sat, blocks.max(1), tag);
        self.queue_work(gpu, slot, item);
    }

    pub(crate) fn push_train_item(
        &mut self,
        func: FunctionId,
        uid: InstanceUid,
        worker: usize,
        compute: bool,
    ) {
        let Some(f) = self.funcs.hot(func) else {
            return;
        };
        let training = f.shape.model.profile().training;
        let payload = if compute {
            WorkPayload::TrainCompute { func, worker }
        } else {
            WorkPayload::TrainComm { func, worker }
        };
        let tag = self.tags.insert(payload);
        let item = if compute { training.compute_item(tag) } else { training.idle_item(tag) };
        if let Some(inst) = self.instances.get(&uid) {
            let gpu = inst.gpus[0];
            let slot = inst.slot_id(0);
            self.queue_work(gpu, slot, item);
        }
    }

    /// Queues a work item on a node-plane engine. Under the event core the
    /// GPU is marked busy and, on the idle→busy transition, its share
    /// policy is first caught up through the skipped cycles so it sees the
    /// historically accurate workless views.
    fn queue_work(
        &mut self,
        gpu: crate::GpuAddr,
        slot: dilu_gpu::InstanceId,
        item: dilu_gpu::WorkItem,
    ) {
        if self.event_active && self.nodes.mark_busy(gpu) {
            self.nodes.slot_mut(gpu).catch_up(self.now, self.gpu_phase_done);
        }
        let _ = self.nodes.slot_mut(gpu).engine.push_work(slot, item);
    }

    /// Credits issued kernel blocks to the cluster and per-function
    /// second counters.
    pub(crate) fn attribute_blocks(&mut self, issued: &[(dilu_gpu::InstanceId, u64)]) {
        for &(slot_id, blocks) in issued {
            if blocks == 0 {
                continue;
            }
            self.total_blocks_sec += blocks;
            if let Some(inst) = self.instances.get(&Instance::owner_of(slot_id)) {
                if let Some(f) = self.funcs.hot_mut(inst.func) {
                    f.sec_blocks += blocks;
                }
            }
        }
    }

    pub(crate) fn handle_completion(&mut self, c: dilu_gpu::Completion) {
        let Some(payload) = self.tags.remove(c.tag) else {
            return;
        };
        match payload {
            WorkPayload::InferStage { uid, batch_id } => {
                self.advance_inference_batch(uid, batch_id, c.at);
            }
            WorkPayload::TrainCompute { func, worker } => {
                self.advance_training(func, worker, true, c.at);
            }
            WorkPayload::TrainComm { func, worker } => {
                self.advance_training(func, worker, false, c.at);
            }
        }
    }

    pub(crate) fn advance_inference_batch(&mut self, uid: InstanceUid, batch_id: u64, at: SimTime) {
        let Some(inst) = self.instances.get_mut(&uid) else {
            return;
        };
        let stages = inst.gpus.len();
        let Some(pos) = inst.inflight.iter().position(|b| b.batch_id == batch_id) else {
            return;
        };
        let next_stage = inst.inflight[pos].stage + 1;
        if next_stage >= stages {
            let batch = inst.inflight.remove(pos);
            inst.last_active = at;
            if let Some((hot, cold)) = self.funcs.get_mut(inst.func) {
                let slo = cold.spec.slo();
                hot.counts.inflight -= batch.requests.len() as u64;
                for req in &batch.requests {
                    let latency = at.saturating_since(req.arrived);
                    cold.latency.record(latency);
                    cold.completed += 1;
                    hot.sec_completions += 1;
                    if slo.is_some_and(|s| latency > s) {
                        hot.sec_violations += 1;
                    }
                }
            }
            let mut freed = batch.requests;
            freed.clear();
            if self.request_pool.len() < 64 {
                self.request_pool.push(freed);
            }
        } else {
            inst.inflight[pos].stage = next_stage;
            let size = inst.inflight[pos].requests.len() as u32;
            if self.net.is_some() {
                // The activations must cross to the next stage's GPU
                // before its work can start. Flows begin at the current
                // wake/quantum instant (identical in both time models),
                // not the completion's exact `at` — completions merge in
                // node order, so their instants are not monotone.
                let src = inst.gpus[next_stage - 1].node as usize;
                let dst = inst.gpus[next_stage].node as usize;
                let func = inst.func;
                let bytes = self
                    .funcs
                    .hot(func)
                    .map_or(1, |f| f.shape.model.profile().activation_bytes(size));
                let now = self.now;
                let net = self.net.as_mut().expect("checked above");
                net.plane.start_transfer(
                    now,
                    src,
                    dst,
                    bytes,
                    crate::netplane::NetPayload::Transfer { uid, batch_id, next_stage, size },
                );
                self.sync_net_events();
            } else {
                self.push_stage_item(uid, batch_id, next_stage, size);
            }
        }
        if self.event_active {
            // A freed stage-0 slot only matters if requests are waiting to
            // fill it; arrivals and promotions mark the instance dirty
            // themselves when new work shows up later.
            if self.instances.get(&uid).is_some_and(|i| !i.pending.is_empty()) {
                self.dirty.push(uid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::STAGE_TRANSFER;
    use dilu_models::ModelId;

    /// `push_stage_item` adds the transfer constant unclamped: it must stay
    /// below every batch's own compute time (batch 1 is the fastest).
    #[test]
    fn stage_transfer_is_below_every_batch_time() {
        for model in ModelId::ALL {
            let t_min = model.profile().inference_t_min(1);
            assert!(STAGE_TRANSFER < t_min, "{model:?} batch 1 takes {t_min}");
        }
    }
}
