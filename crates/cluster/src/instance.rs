//! Function instances and their lifecycle.

use std::collections::VecDeque;
use std::fmt;

use dilu_sim::{EventToken, SimTime};
use serde::{Deserialize, Serialize};

use crate::{FunctionId, GpuAddr};

/// Globally unique identifier of an instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct InstanceUid(pub u64);

impl fmt::Display for InstanceUid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceState {
    /// Container deploying / weights loading; ready at the given instant.
    ColdStarting {
        /// When the instance becomes able to serve.
        ready_at: SimTime,
    },
    /// Serving.
    Running,
    /// No longer routed to; terminates once in-flight work drains.
    Draining,
}

impl InstanceState {
    /// `true` once the instance can execute work.
    pub fn is_ready(&self) -> bool {
        matches!(self, InstanceState::Running)
    }
}

/// One queued inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Request {
    pub id: u64,
    pub arrived: SimTime,
}

/// A dispatched batch travelling through an instance (possibly staged across
/// pipeline GPUs).
#[derive(Debug, Clone)]
pub(crate) struct InflightBatch {
    /// Unique id correlating engine completions back to this batch.
    pub batch_id: u64,
    pub requests: Vec<Request>,
    /// Pipeline stage currently executing (0-based). Solo instances have
    /// exactly one stage.
    pub stage: usize,
}

/// A deployed instance (inference replica or training worker).
#[derive(Debug, Clone)]
pub(crate) struct Instance {
    pub uid: InstanceUid,
    pub func: FunctionId,
    /// One GPU per pipeline stage; length 1 for solo instances.
    pub gpus: Vec<GpuAddr>,
    pub state: InstanceState,
    /// Queued requests not yet batched (inference only).
    pub pending: VecDeque<Request>,
    /// Batches currently executing, at most one per pipeline stage.
    pub inflight: Vec<InflightBatch>,
    /// Last instant this instance had any work.
    pub last_active: SimTime,
    /// Outstanding batch-formation deadline (event core only): the
    /// cancellable queue token, which carries the grid instant it fires
    /// at. Kept inline so the per-wake deadline churn needs no side-table
    /// inserts.
    pub deadline: Option<EventToken>,
}

/// One function's live instances, counted by state, and the requests they
/// hold. Kept current at launch, promotion, drain, termination, routing,
/// dispatch and completion, so the controller tick and the audit read
/// counters instead of walking instance lists; debug builds recount every
/// function at every tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct InstanceCounts {
    pub ready: u32,
    pub starting: u32,
    pub draining: u32,
    /// Requests queued on the instances, not yet batched.
    pub queued: u64,
    /// Requests inside the instances' dispatched batches.
    pub inflight: u64,
}

impl InstanceCounts {
    fn of_state(&mut self, state: InstanceState) -> &mut u32 {
        match state {
            InstanceState::Running => &mut self.ready,
            InstanceState::ColdStarting { .. } => &mut self.starting,
            InstanceState::Draining => &mut self.draining,
        }
    }

    /// An instance entered `state`.
    pub fn enter(&mut self, state: InstanceState) {
        *self.of_state(state) += 1;
    }

    /// An instance left `state`.
    pub fn leave(&mut self, state: InstanceState) {
        *self.of_state(state) -= 1;
    }

    /// The counts taken from the instances themselves.
    #[cfg(debug_assertions)]
    pub fn recount<'a>(instances: impl IntoIterator<Item = &'a Instance>) -> Self {
        let mut counts = InstanceCounts::default();
        for inst in instances {
            counts.enter(inst.state);
            counts.queued += inst.pending.len() as u64;
            counts.inflight += inst.inflight_requests() as u64;
        }
        counts
    }
}

/// Pipeline stages one instance may span. Engine slot ids pack
/// `uid × MAX_STAGES + stage`, so they stay unique per GPU; deployment
/// rejects specs that span more.
pub(crate) const MAX_STAGES: u64 = 16;

impl Instance {
    /// Load metric used by the least-loaded balancer.
    pub fn load(&self) -> usize {
        self.pending.len() + self.inflight_requests()
    }

    /// Requests inside this instance's dispatched batches.
    pub fn inflight_requests(&self) -> usize {
        self.inflight.iter().map(|b| b.requests.len()).sum()
    }

    /// Engine-level slot id for pipeline stage `stage` of this instance.
    pub fn slot_id(&self, stage: usize) -> dilu_gpu::InstanceId {
        debug_assert!(
            (stage as u64) < MAX_STAGES,
            "at most {MAX_STAGES} pipeline stages supported"
        );
        dilu_gpu::InstanceId(self.uid.0 * MAX_STAGES + stage as u64)
    }

    /// The instance owning engine slot `slot`: the inverse of
    /// [`slot_id`](Self::slot_id).
    pub fn owner_of(slot: dilu_gpu::InstanceId) -> InstanceUid {
        InstanceUid(slot.0 / MAX_STAGES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_ids_are_unique_across_stages_and_instances() {
        let a = Instance {
            uid: InstanceUid(1),
            func: FunctionId(0),
            gpus: vec![GpuAddr::default(); 4],
            state: InstanceState::Running,
            pending: VecDeque::new(),
            inflight: Vec::new(),
            last_active: SimTime::ZERO,
            deadline: None,
        };
        let b = Instance { uid: InstanceUid(2), ..a.clone() };
        let mut ids: Vec<u64> = (0..4).flat_map(|s| [a.slot_id(s).0, b.slot_id(s).0]).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8);
        for s in 0..4 {
            assert_eq!(Instance::owner_of(a.slot_id(s)), a.uid);
            assert_eq!(Instance::owner_of(b.slot_id(s)), b.uid);
        }
    }

    #[test]
    fn state_readiness() {
        assert!(InstanceState::Running.is_ready());
        assert!(!InstanceState::ColdStarting { ready_at: SimTime::ZERO }.is_ready());
        assert!(!InstanceState::Draining.is_ready());
    }

    #[test]
    fn load_counts_pending_and_inflight() {
        let mut inst = Instance {
            uid: InstanceUid(1),
            func: FunctionId(0),
            gpus: vec![GpuAddr::default()],
            state: InstanceState::Running,
            pending: VecDeque::new(),
            inflight: Vec::new(),
            last_active: SimTime::ZERO,
            deadline: None,
        };
        inst.pending.push_back(Request { id: 1, arrived: SimTime::ZERO });
        inst.inflight.push(InflightBatch {
            batch_id: 1,
            requests: vec![
                Request { id: 2, arrived: SimTime::ZERO },
                Request { id: 3, arrived: SimTime::ZERO },
            ],
            stage: 0,
        });
        assert_eq!(inst.load(), 3);
    }
}
