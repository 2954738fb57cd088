//! Network-plane adapter (control plane): cold-start weight fetches and
//! pipeline activation transfers as shared-bandwidth flows.
//!
//! With [`SimConfig::network`](crate::SimConfig) set, the cluster owns a
//! [`dilu_net::NetPlane`] plus one [`dilu_net::ModelCache`] per node. A
//! cold start whose model is not cached on the target node becomes a
//! registry *fetch flow* — concurrent storms contend on the shared
//! registry link and slow each other down — and the instance stays
//! `ColdStarting` (with a [`SimTime::MAX`] sentinel `ready_at`) until the
//! flow delivers, when the provision residue takes over. A pipeline stage
//! handoff between GPUs becomes an activation *transfer flow* (NVLink
//! same-node, both ToR uplinks cross-node) and the next stage's work is
//! queued only when the bytes land. Both time models drive the plane
//! through the same [`process_net_phase`](ClusterSim::process_net_phase)
//! at quantum-grid instants — the dense stepper polls it every quantum,
//! the event core wakes on one [`SimEvent::NetFlowDone`] kept armed at the
//! plane's earliest finish — and polling with nothing due is a strict
//! no-op, so reports stay byte-identical across models.

use dilu_models::ModelId;
use dilu_net::{ModelCache, NetPlane, NetworkConfig};
use dilu_sim::SimTime;

use crate::sim::{ClusterSim, SimEvent};
use crate::{FunctionId, InstanceState, InstanceUid};

/// What a completed network flow means to the control plane.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NetPayload {
    /// A cold-start weight fetch from the registry to an instance's node.
    Fetch {
        uid: InstanceUid,
        func: FunctionId,
        model: ModelId,
        /// Launch instant — the cold start's total delay is measured from
        /// here, and the provision residue runs concurrently with the
        /// fetch (container setup overlaps the transfer).
        launched: SimTime,
    },
    /// A pipeline activation transfer between consecutive stage GPUs.
    Transfer { uid: InstanceUid, batch_id: u64, next_stage: usize, size: u32 },
}

/// The cluster's network-plane state: flow plane + per-node model caches.
pub(crate) struct NetState {
    pub(crate) plane: NetPlane<NetPayload>,
    pub(crate) caches: Vec<ModelCache<ModelId>>,
    pub(crate) cfg: NetworkConfig,
}

impl NetState {
    pub(crate) fn new(nodes: u32, cfg: NetworkConfig) -> Self {
        NetState {
            plane: NetPlane::new(nodes as usize, &cfg, dilu_gpu::QUANTUM),
            caches: (0..nodes).map(|_| ModelCache::new(cfg.cache_bytes())).collect(),
            cfg,
        }
    }
}

impl ClusterSim {
    /// The shared network phase: completes every flow due at `now`,
    /// turning finished fetches into promotable cold starts and finished
    /// transfers into next-stage work items. Returns the uids whose
    /// `ready_at` has already passed (the event core promotes them this
    /// wake; the dense stepper's promote scan finds them by itself), plus
    /// the number of flows completed (the profiler's event count).
    pub(crate) fn process_net_phase(&mut self) -> (Vec<InstanceUid>, u64) {
        let now = self.now;
        let due = match self.net.as_mut() {
            Some(net) => net.plane.take_due(now),
            None => return (Vec::new(), 0),
        };
        if due.is_empty() {
            return (Vec::new(), 0);
        }
        let flows_done = due.len() as u64;
        let mut promote = Vec::new();
        for (_, payload) in due {
            match payload {
                NetPayload::Fetch { uid, func, model, launched } => {
                    let Some(inst) = self.instances.get(&uid) else {
                        continue;
                    };
                    let node = inst.gpus[0].node as usize;
                    let provision = {
                        let net = self.net.as_mut().expect("network phase ran");
                        net.caches[node].insert(model, model.profile().param_bytes);
                        net.cfg.provision
                    };
                    if !matches!(inst.state, InstanceState::ColdStarting { .. }) {
                        continue;
                    }
                    // Provisioning overlapped the fetch; whichever ends
                    // later gates readiness.
                    let ready_at = (launched + provision).max(now);
                    let total = ready_at.saturating_since(launched);
                    let fetch = now.saturating_since(launched);
                    if let Some(f) = self.funcs.cold_mut(func) {
                        f.cold_starts.record_fetch(total, fetch);
                    }
                    let inst = self.instances.get_mut(&uid).expect("checked above");
                    inst.state = InstanceState::ColdStarting { ready_at };
                    if ready_at <= now {
                        promote.push(uid);
                    } else if self.event_active {
                        let at = self.grid_ceil(ready_at);
                        self.events.push(at, SimEvent::ColdStartReady(uid));
                    }
                }
                NetPayload::Transfer { uid, batch_id, next_stage, size } => {
                    // The batch's stage index advanced when the transfer
                    // started; the bytes have landed, run the stage.
                    self.push_stage_item(uid, batch_id, next_stage, size);
                }
            }
        }
        if self.event_active {
            self.sync_net_events();
        }
        (promote, flows_done)
    }

    /// Re-arms the event core after a flow-plane membership change: the
    /// single [`SimEvent::NetFlowDone`] wake moves to the plane's (re-shared)
    /// earliest finish. As in `schedule_deadline`, a moved instant cancels
    /// the armed wake and pushes a new one, and an unmoved one costs
    /// nothing; with no flow left the wake is withdrawn. Only the earliest
    /// finish needs a wake: every later one is re-derived after the
    /// membership change that instant brings.
    pub(crate) fn sync_net_events(&mut self) {
        if !self.event_active {
            return;
        }
        let Some(net) = self.net.as_ref() else {
            return;
        };
        let due = net.plane.next_finish().map(|t| t.max(self.now));
        if self.net_wake.map(|token| token.at()) == due {
            return;
        }
        if let Some(token) = self.net_wake.take() {
            self.events.cancel(token);
        }
        if let Some(at) = due {
            self.net_wake = Some(self.events.push_cancellable(at, SimEvent::NetFlowDone));
        }
    }
}
