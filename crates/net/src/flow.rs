//! The shared-bandwidth flow plane: max-min-fair rate allocation over a
//! two-level topology, integrated with a quantum-grid clock.
//!
//! Flow state (remaining bytes, rate, epoch timestamp) mutates **only at
//! membership changes** — a flow starting or finishing — never per tick.
//! Between changes a flow's progress is implied by `rate × elapsed`, so
//! the plane does the same exact integer arithmetic no matter how often
//! the driver polls it: dense-quantum (every quantum) and event-driven
//! (only at finish instants) evolve byte-identically.
//!
//! # Incremental re-share
//!
//! Max-min water-filling decomposes over the connected components of the
//! "flows sharing a link" graph: freezing a bottleneck link only touches
//! the capacities and counts of its own component, so components fill
//! independently and a membership change can only move rates inside the
//! changed flow's component. [`NetPlane`] exploits that: each membership
//! change re-water-fills just the component reachable from the
//! joining/leaving flow's links (O(component) — a k-flow cold-start storm
//! costs O(k·degree) per change instead of O(topology) with the previous
//! full re-share). The full re-share survives as
//! [`full_water_fill_rates`](NetPlane::full_water_fill_rates), the debug
//! oracle: every incremental result is checked against it under
//! `debug_assertions` (so every debug test run, including the harness
//! conservation-oracle fuzz, differences the two), and the property tests
//! below drive random arrival/departure sequences through both.

use std::collections::{BTreeMap, BTreeSet};

use dilu_sim::{SimDuration, SimTime};

use crate::{gbps_to_bytes, NetworkConfig};

/// Identifier of an active flow, unique over a [`NetPlane`]'s lifetime
/// and allocated in start order.
pub type FlowId = u64;

/// One active transfer: a byte count crossing a path of links.
#[derive(Debug)]
struct Flow<T> {
    /// Link indices this flow crosses — at most two on this topology, so
    /// a fixed pair avoids a heap allocation per flow.
    links: [usize; 2],
    nlinks: u8,
    /// Bytes still to deliver as of `t0`.
    remaining: u64,
    /// Epoch of the current rate: the last membership-change instant.
    t0: SimTime,
    /// Allocated rate in bytes/second (≥ 1), valid since `t0`.
    rate: u64,
    payload: T,
}

impl<T> Flow<T> {
    fn links(&self) -> &[usize] {
        &self.links[..self.nlinks as usize]
    }
}

/// The deterministic shared-bandwidth network plane.
///
/// Topology: one shared core/registry link, one ToR uplink per node, one
/// intra-node (NVLink-class) link per node. A weight fetch crosses
/// `{registry, tor[dst]}`; a cross-node transfer `{tor[src], tor[dst]}`;
/// a same-node transfer `{nv[node]}`. Rates are max-min fair: capacity
/// is water-filled link by link, freezing the most-contended link's
/// flows at its equal share first (pure integer arithmetic, ties broken
/// by lowest link index, flows completed in id order — deterministic by
/// construction). Re-shares are incremental per connected component (see
/// the module docs); results are bit-identical to the full re-share.
///
/// The payload type `T` is the caller's bookkeeping (which instance or
/// batch the bytes belong to); it is handed back by [`take_due`] when
/// the flow finishes.
///
/// [`take_due`]: NetPlane::take_due
#[derive(Debug)]
pub struct NetPlane<T> {
    /// Per-link capacity in bytes/second: `[registry, tor…, nv…]`.
    caps: Vec<u64>,
    nodes: usize,
    quantum_us: u64,
    flows: BTreeMap<FlowId, Flow<T>>,
    /// Per-link ids of the flows crossing it, ascending (ids are
    /// allocated in start order, so joins push to the back in O(1)).
    link_flows: Vec<Vec<FlowId>>,
    next_id: FlowId,
    requested: u64,
    delivered: u64,
    /// The earliest grid-aligned finish over all flows, refreshed after
    /// every membership change (finishes move only then); `None` while no
    /// flow is active.
    next_finish: Option<SimTime>,
    // --- re-share scratch, reused across membership changes ---
    /// Residual capacity per touched link during a water-fill.
    cap_scratch: Vec<u64>,
    /// Unfrozen-flow count per touched link during a water-fill.
    count_scratch: Vec<u64>,
    /// Links already visited by the current component walk.
    link_seen: Vec<bool>,
    /// DFS stack / touched-link list for the current component walk.
    link_stack: Vec<usize>,
    touched_links: Vec<usize>,
    /// Seed links of a batch departure, deduplicated.
    seed_scratch: Vec<usize>,
    /// Flows of the walked component, sorted ascending, plus a parallel
    /// frozen mask for the water-fill (flat scratch — re-shares allocate
    /// nothing once these are warm).
    affected_scratch: Vec<FlowId>,
    frozen_scratch: Vec<bool>,
}

impl<T> NetPlane<T> {
    /// Builds the plane for `nodes` nodes with the given link tiers and
    /// the driver's scheduling quantum (finish instants align to its
    /// grid, where the cluster processes completions).
    pub fn new(nodes: usize, cfg: &NetworkConfig, quantum: SimDuration) -> Self {
        let mut caps = Vec::with_capacity(1 + 2 * nodes);
        caps.push(gbps_to_bytes(cfg.registry_gbps));
        caps.extend(std::iter::repeat_n(gbps_to_bytes(cfg.tor_gbps), nodes));
        caps.extend(std::iter::repeat_n(gbps_to_bytes(cfg.nvlink_gbps), nodes));
        let links = caps.len();
        NetPlane {
            caps,
            nodes,
            quantum_us: quantum.as_micros().max(1),
            flows: BTreeMap::new(),
            link_flows: vec![Vec::new(); links],
            next_id: 1,
            requested: 0,
            delivered: 0,
            next_finish: None,
            cap_scratch: vec![0; links],
            count_scratch: vec![0; links],
            link_seen: vec![false; links],
            link_stack: Vec::new(),
            touched_links: Vec::new(),
            seed_scratch: Vec::new(),
            affected_scratch: Vec::new(),
            frozen_scratch: Vec::new(),
        }
    }

    fn tor(&self, node: usize) -> usize {
        debug_assert!(node < self.nodes, "node {node} out of range");
        1 + node
    }

    fn nv(&self, node: usize) -> usize {
        debug_assert!(node < self.nodes, "node {node} out of range");
        1 + self.nodes + node
    }

    /// Starts a weight fetch from the registry to `dst_node`, contending
    /// on the shared registry link and the node's ToR uplink.
    pub fn start_fetch(&mut self, now: SimTime, dst_node: usize, bytes: u64, payload: T) -> FlowId {
        let links = [0, self.tor(dst_node)];
        self.start(now, links, 2, bytes, payload)
    }

    /// Starts a transfer between two GPUs' nodes: over the intra-node
    /// link when they share a node, else over both ToR uplinks.
    pub fn start_transfer(
        &mut self,
        now: SimTime,
        src_node: usize,
        dst_node: usize,
        bytes: u64,
        payload: T,
    ) -> FlowId {
        let (links, nlinks) = if src_node == dst_node {
            ([self.nv(src_node), 0], 1)
        } else {
            ([self.tor(src_node), self.tor(dst_node)], 2)
        };
        self.start(now, links, nlinks, bytes, payload)
    }

    fn start(
        &mut self,
        now: SimTime,
        links: [usize; 2],
        nlinks: u8,
        bytes: u64,
        payload: T,
    ) -> FlowId {
        // A zero-byte flow would finish at its own start; floor at one
        // byte so every flow crosses the wire (and the conservation
        // accounting) visibly.
        let bytes = bytes.max(1);
        self.advance_to(now);
        self.requested += bytes;
        let id = self.next_id;
        self.next_id += 1;
        for &l in &links[..nlinks as usize] {
            // Ids are allocated ascending, so this keeps the list sorted.
            self.link_flows[l].push(id);
        }
        self.flows.insert(id, Flow { links, nlinks, remaining: bytes, t0: now, rate: 1, payload });
        self.reshare_from_many(&links[..nlinks as usize]);
        self.next_finish = self.scan_next_finish();
        id
    }

    /// Completes every flow whose finish instant has passed, in flow-id
    /// order, returning their payloads; survivors are advanced and
    /// re-shared. Polling with nothing due is a strict no-op, which is
    /// what keeps dense-quantum (polling every quantum) and event-driven
    /// (polling at finish instants) byte-identical. Before
    /// [`next_finish`](Self::next_finish) it returns at once, without
    /// looking at any flow.
    pub fn take_due(&mut self, now: SimTime) -> Vec<(FlowId, T)> {
        if self.next_finish().is_none_or(|next| next > now) {
            return Vec::new();
        }
        let due: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| self.finish_of(f) <= now)
            .map(|(&id, _)| id)
            .collect();
        debug_assert!(!due.is_empty(), "the earliest finish at {now} completes a flow");
        self.advance_to(now);
        // Collect the departing flows' links as re-share seeds, then drop
        // the departures from the per-link lists in one pass per link.
        let mut seeds = std::mem::take(&mut self.seed_scratch);
        debug_assert!(seeds.is_empty());
        let mut out = Vec::with_capacity(due.len());
        for &id in &due {
            let flow = self.flows.remove(&id).expect("due flow exists");
            // The analytic finish rounds up to the grid, so a residue of
            // `remaining` bytes (< one quantum's worth) is credited here.
            self.delivered += flow.remaining;
            for &l in flow.links() {
                if !self.link_seen[l] {
                    self.link_seen[l] = true;
                    seeds.push(l);
                }
            }
            out.push((id, flow.payload));
        }
        // `due` is ascending (BTreeMap iteration order), so each per-link
        // list is pruned with one binary-searched retain pass.
        for &l in &seeds {
            self.link_seen[l] = false;
            self.link_flows[l].retain(|id| due.binary_search(id).is_err());
        }
        // Re-fill every component the departures touched. Components are
        // disjoint, but a single walk from all seeds handles any overlap.
        self.reshare_from_many(&seeds);
        seeds.clear();
        self.seed_scratch = seeds;
        self.next_finish = self.scan_next_finish();
        out
    }

    /// Credits every flow's progress since its epoch and moves the epoch
    /// to `now`. Called only at membership changes, so the conservation
    /// ledger (`requested == delivered + inflight`) holds exactly at
    /// every instant in between.
    fn advance_to(&mut self, now: SimTime) {
        for flow in self.flows.values_mut() {
            let elapsed = now.saturating_since(flow.t0).as_micros();
            if elapsed == 0 {
                continue;
            }
            let sent = ((flow.rate as u128 * elapsed as u128) / 1_000_000) as u64;
            let sent = sent.min(flow.remaining);
            flow.remaining -= sent;
            self.delivered += sent;
            flow.t0 = now;
        }
    }

    /// Re-water-fills the connected component(s) reachable from `seeds`:
    /// walk the "flows sharing a link" graph, then run the same
    /// freeze-the-bottleneck loop as the full re-share restricted to the
    /// collected flows. Flows outside the walk share no link (directly or
    /// transitively) with the seeds, so the full algorithm could never
    /// have moved their rates — which is exactly what the debug oracle
    /// re-proves after every change.
    fn reshare_from_many(&mut self, seeds: &[usize]) {
        if self.flows.is_empty() {
            return;
        }
        // --- component walk ---
        let mut stack = std::mem::take(&mut self.link_stack);
        let mut touched = std::mem::take(&mut self.touched_links);
        let mut affected = std::mem::take(&mut self.affected_scratch);
        debug_assert!(stack.is_empty() && touched.is_empty() && affected.is_empty());
        for &l in seeds {
            if !self.link_seen[l] {
                self.link_seen[l] = true;
                stack.push(l);
                touched.push(l);
            }
        }
        while let Some(l) = stack.pop() {
            for &id in &self.link_flows[l] {
                // A two-link flow lands here once per link; dedup below.
                affected.push(id);
                for &l2 in self.flows[&id].links() {
                    if !self.link_seen[l2] {
                        self.link_seen[l2] = true;
                        stack.push(l2);
                        touched.push(l2);
                    }
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();
        // --- water-fill the affected component(s) ---
        // Touched links are scanned ascending so the bottleneck tie-break
        // (lowest link index) matches the full re-share exactly.
        touched.sort_unstable();
        for &l in &touched {
            self.cap_scratch[l] = self.caps[l];
            self.count_scratch[l] = 0;
        }
        for &id in &affected {
            for &l in self.flows[&id].links() {
                self.count_scratch[l] += 1;
            }
        }
        let mut frozen = std::mem::take(&mut self.frozen_scratch);
        frozen.resize(affected.len(), false);
        let mut unfrozen = affected.len();
        while unfrozen > 0 {
            let mut bottleneck: Option<(u64, usize)> = None;
            for &l in &touched {
                let n = self.count_scratch[l];
                if n == 0 {
                    continue;
                }
                let share = self.cap_scratch[l] / n;
                if bottleneck.is_none_or(|(s, _)| share < s) {
                    bottleneck = Some((share, l));
                }
            }
            let (share, link) = bottleneck.expect("unfrozen flows cross some touched link");
            let rate = share.max(1);
            // The per-link list is ascending, so the freeze order (and
            // with it the cap subtraction sequence) is deterministic.
            let link_list = std::mem::take(&mut self.link_flows[link]);
            for &id in &link_list {
                let pos = affected.binary_search(&id).expect("flow on touched link is affected");
                if frozen[pos] {
                    continue;
                }
                frozen[pos] = true;
                unfrozen -= 1;
                let flow = self.flows.get_mut(&id).expect("affected flow exists");
                flow.rate = rate;
                for &l in flow.links() {
                    self.count_scratch[l] -= 1;
                    self.cap_scratch[l] = self.cap_scratch[l].saturating_sub(rate);
                }
            }
            self.link_flows[link] = link_list;
        }
        for &l in &touched {
            self.link_seen[l] = false;
        }
        touched.clear();
        affected.clear();
        frozen.clear();
        self.touched_links = touched;
        self.link_stack = stack;
        self.affected_scratch = affected;
        self.frozen_scratch = frozen;
        #[cfg(debug_assertions)]
        self.assert_matches_full_reshare();
    }

    /// The retained full re-share, as a non-mutating oracle: water-fills
    /// every link and every flow from scratch, exactly as the plane did
    /// before re-shares became incremental.
    #[cfg_attr(not(any(test, debug_assertions)), allow(dead_code))]
    fn full_water_fill_rates(&self) -> BTreeMap<FlowId, u64> {
        let mut rates = BTreeMap::new();
        if self.flows.is_empty() {
            return rates;
        }
        let mut cap = self.caps.clone();
        let mut count = vec![0u64; self.caps.len()];
        for flow in self.flows.values() {
            for &l in flow.links() {
                count[l] += 1;
            }
        }
        let mut unfrozen: BTreeSet<FlowId> = self.flows.keys().copied().collect();
        while !unfrozen.is_empty() {
            let mut bottleneck: Option<(u64, usize)> = None;
            for (l, (&c, &n)) in cap.iter().zip(count.iter()).enumerate() {
                if n == 0 {
                    continue;
                }
                let share = c / n;
                if bottleneck.is_none_or(|(s, _)| share < s) {
                    bottleneck = Some((share, l));
                }
            }
            let (share, link) = bottleneck.expect("unfrozen flows cross some link");
            let rate = share.max(1);
            let to_freeze: Vec<FlowId> = unfrozen
                .iter()
                .copied()
                .filter(|id| self.flows[id].links().contains(&link))
                .collect();
            debug_assert!(!to_freeze.is_empty(), "the bottleneck link has flows");
            for id in to_freeze {
                unfrozen.remove(&id);
                rates.insert(id, rate);
                for &l in self.flows[&id].links() {
                    count[l] -= 1;
                    cap[l] = cap[l].saturating_sub(rate);
                }
            }
        }
        rates
    }

    /// Debug oracle: the incremental rates must be bit-identical to a
    /// from-scratch full water-fill.
    #[cfg(debug_assertions)]
    fn assert_matches_full_reshare(&self) {
        let full = self.full_water_fill_rates();
        for (&id, flow) in &self.flows {
            debug_assert_eq!(
                flow.rate, full[&id],
                "incremental re-share diverged from the full oracle on flow {id}"
            );
        }
    }

    /// The grid-aligned instant this flow (at its current rate) delivers
    /// its last byte.
    fn finish_of(&self, flow: &Flow<T>) -> SimTime {
        let dur_us = (flow.remaining as u128 * 1_000_000)
            .div_ceil(flow.rate as u128)
            .min(u64::MAX as u128) as u64;
        let raw = flow.t0.saturating_add(SimDuration::from_micros(dur_us));
        let q = self.quantum_us;
        SimTime::from_micros(raw.as_micros().div_ceil(q).saturating_mul(q))
    }

    /// The earliest grid-aligned finish instant over all active flows, or
    /// `None` when none is active: the one instant at which the
    /// event-driven driver needs to wake for the plane. Answered from a
    /// cache kept by every membership change; debug builds check it
    /// against a scan of every flow.
    pub fn next_finish(&self) -> Option<SimTime> {
        debug_assert_eq!(
            self.next_finish,
            self.scan_next_finish(),
            "cached earliest finish diverged from a scan of every flow"
        );
        self.next_finish
    }

    /// The earliest finish, by a scan of every flow. A membership change
    /// advances every flow's epoch and re-rates its component, so any
    /// flow's finish may have moved: each change rescans.
    fn scan_next_finish(&self) -> Option<SimTime> {
        self.flows.values().map(|f| self.finish_of(f)).min()
    }

    /// Active flows as `(id, payload, remaining bytes as of the last
    /// membership change)` in id order.
    pub fn pending(&self) -> impl Iterator<Item = (FlowId, &T, u64)> + '_ {
        self.flows.iter().map(|(&id, f)| (id, &f.payload, f.remaining))
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes ever requested (every `start_*` adds its size here).
    pub fn requested_bytes(&self) -> u64 {
        self.requested
    }

    /// Total bytes delivered (credited at membership changes; the ledger
    /// `requested == delivered + inflight` holds at every instant).
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered
    }

    /// Bytes still in flight: Σ remaining over active flows.
    pub fn inflight_bytes(&self) -> u64 {
        self.flows.values().map(|f| f.remaining).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: SimDuration = SimDuration::from_millis(5);

    fn plane(nodes: usize, registry_gbps: f64, tor_gbps: f64) -> NetPlane<u32> {
        let cfg = NetworkConfig {
            registry_gbps,
            tor_gbps,
            nvlink_gbps: 200.0,
            ..NetworkConfig::default()
        };
        NetPlane::new(nodes, &cfg, Q)
    }

    #[test]
    fn solo_fetch_runs_at_registry_line_rate() {
        // 10 Gbps registry, 25 Gbps ToR: the registry bottlenecks a solo
        // fetch at 1.25 GB/s, so 2.5 GB takes exactly 2 s.
        let mut net = plane(4, 10.0, 25.0);
        net.start_fetch(SimTime::ZERO, 2, 2_500_000_000, 7);
        assert!(net.take_due(SimTime::from_millis(1_995)).is_empty());
        let done = net.take_due(SimTime::from_secs(2));
        assert_eq!(done, vec![(1, 7)]);
        assert_eq!(net.requested_bytes(), net.delivered_bytes());
        assert_eq!(net.inflight_bytes(), 0);
    }

    #[test]
    fn concurrent_fetches_share_the_registry_fairly() {
        // Four simultaneous fetches to four different nodes: each ToR
        // has capacity to spare, the registry splits 4 ways, so each
        // fetch takes 4× the solo time.
        let mut net = plane(4, 10.0, 25.0);
        for node in 0..4 {
            net.start_fetch(SimTime::ZERO, node, 1_250_000_000, node as u32);
        }
        assert!(net.take_due(SimTime::from_millis(3_995)).is_empty(), "4× slowdown");
        let done = net.take_due(SimTime::from_secs(4));
        assert_eq!(done.len(), 4, "equal flows finish together, in id order");
        assert_eq!(done.iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(net.delivered_bytes(), 5_000_000_000);
    }

    #[test]
    fn tor_bottleneck_caps_a_node_while_others_run_free() {
        // Two fetches to node 0 (ToR 5 Gbps < registry 20 Gbps / 3 flows
        // after max-min) and one to node 1: node 0's pair is capped at
        // 2.5 Gbps each by its ToR; node 1's flow takes the registry
        // remainder (15 Gbps) but is capped by its own 5 Gbps ToR.
        let mut net = plane(2, 20.0, 5.0);
        net.start_fetch(SimTime::ZERO, 0, 625_000_000, 0); // 2.5 Gbps -> 2 s
        net.start_fetch(SimTime::ZERO, 0, 625_000_000, 1); // 2.5 Gbps -> 2 s
        net.start_fetch(SimTime::ZERO, 1, 625_000_000, 2); // 5 Gbps -> 1 s
        let done = net.take_due(SimTime::from_secs(1));
        assert_eq!(done, vec![(3, 2)], "node 1 finishes at its ToR line rate");
        let done = net.take_due(SimTime::from_secs(2));
        assert_eq!(done.iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn completion_releases_bandwidth_to_survivors() {
        // Two equal fetches split the 10 Gbps registry; when the short
        // one finishes, the long one doubles its rate from that instant.
        let mut net = plane(2, 10.0, 25.0);
        net.start_fetch(SimTime::ZERO, 0, 625_000_000, 0); // 1 s at half rate
        net.start_fetch(SimTime::ZERO, 1, 1_250_000_000, 1);
        let done = net.take_due(SimTime::from_secs(1));
        assert_eq!(done, vec![(1, 0)]);
        // Flow 2 delivered 625 MB in the shared second; the remaining
        // 625 MB at full 1.25 GB/s takes 0.5 s more.
        assert_eq!(net.inflight_bytes(), 625_000_000);
        assert!(net.take_due(SimTime::from_micros(1_495_000)).is_empty());
        let done = net.take_due(SimTime::from_micros(1_500_000));
        assert_eq!(done, vec![(2, 1)]);
    }

    #[test]
    fn same_node_transfers_ride_the_nvlink() {
        // 200 Gbps NVLink = 25 GB/s: 2.5 GB in 100 ms, untouched by a
        // saturated registry.
        let mut net = plane(2, 10.0, 25.0);
        net.start_fetch(SimTime::ZERO, 0, 12_500_000_000, 9); // hog the registry
        net.start_transfer(SimTime::ZERO, 1, 1, 2_500_000_000, 1);
        let done = net.take_due(SimTime::from_millis(100));
        assert_eq!(done, vec![(2, 1)]);
    }

    #[test]
    fn cross_node_transfers_contend_on_both_tors() {
        // A fetch into node 1 and a node 0 → node 1 transfer share node
        // 1's 10 Gbps ToR (registry is fat): each gets 5 Gbps.
        let mut net = plane(2, 100.0, 10.0);
        net.start_fetch(SimTime::ZERO, 1, 625_000_000, 0);
        net.start_transfer(SimTime::ZERO, 0, 1, 625_000_000, 1);
        assert!(net.take_due(SimTime::from_millis(995)).is_empty());
        let done = net.take_due(SimTime::from_secs(1));
        assert_eq!(done.len(), 2, "equal split of the shared ToR");
    }

    #[test]
    fn conservation_ledger_holds_at_every_grid_instant() {
        let mut net = plane(3, 7.5, 12.5);
        let mut t = SimTime::ZERO;
        net.start_fetch(t, 0, 3_000_000_000, 0);
        net.start_fetch(t, 1, 1_000_000_000, 1);
        let mut completed = 0;
        while net.active_flows() > 0 {
            t += SimDuration::from_millis(5);
            completed += net.take_due(t).len();
            assert_eq!(
                net.requested_bytes(),
                net.delivered_bytes() + net.inflight_bytes(),
                "ledger must balance at {t}"
            );
            if t == SimTime::from_millis(500) {
                net.start_transfer(t, 0, 2, 500_000_000, 2);
            }
        }
        assert_eq!(completed, 3);
        assert_eq!(net.requested_bytes(), net.delivered_bytes());
    }

    #[test]
    fn next_finish_is_grid_aligned() {
        let mut net = plane(1, 10.0, 25.0);
        assert_eq!(net.next_finish(), None, "an empty plane has no finish");
        net.start_fetch(SimTime::ZERO, 0, 1_234_567, 0);
        let at = net.next_finish().expect("one active flow");
        assert_eq!(at.as_micros() % 5_000, 0, "finish {at} must sit on the grid");
        assert_eq!(net.take_due(at).len(), 1);
        assert_eq!(net.next_finish(), None, "the last departure clears the finish");
    }

    #[test]
    fn zero_byte_flows_are_floored_to_one_byte() {
        let mut net = plane(1, 10.0, 25.0);
        net.start_fetch(SimTime::ZERO, 0, 0, 0);
        assert_eq!(net.requested_bytes(), 1);
        assert_eq!(net.inflight_bytes(), 1);
        let done = net.take_due(SimTime::from_millis(5));
        assert_eq!(done.len(), 1, "a floored flow still takes one grid step");
    }

    #[test]
    fn polling_with_nothing_due_is_a_no_op() {
        let mut net = plane(1, 10.0, 25.0);
        net.start_fetch(SimTime::ZERO, 0, 1_250_000_000, 0);
        let before_inflight = net.inflight_bytes();
        let before_delivered = net.delivered_bytes();
        for ms in (5..1000).step_by(5) {
            assert!(net.take_due(SimTime::from_millis(ms)).is_empty());
        }
        assert_eq!(net.inflight_bytes(), before_inflight, "no membership change, no mutation");
        assert_eq!(net.delivered_bytes(), before_delivered);
    }

    // ------------------------------------------------------------------
    // Incremental ≡ full re-share
    // ------------------------------------------------------------------

    /// Splitmix64: tiny deterministic generator for the property tests
    /// (seeded, no ambient randomness).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every flow's incremental rate equals the full water-fill oracle's.
    fn assert_rates_match_oracle(net: &NetPlane<u32>, ctx: &str) {
        let full = net.full_water_fill_rates();
        for (id, _, _) in net.pending() {
            let rate = net.flows[&id].rate;
            assert_eq!(rate, full[&id], "{ctx}: flow {id} diverged from the full re-share");
        }
    }

    /// `next_finish()` is the minimum finish over all flows, and polling at
    /// the grid instant just before it (when that is not before `now`)
    /// completes nothing and moves no byte, rate or finish.
    fn assert_next_finish_exact(net: &mut NetPlane<u32>, now: SimTime, ctx: &str) {
        let scanned = net.flows.values().map(|f| net.finish_of(f)).min();
        assert_eq!(net.next_finish(), scanned, "{ctx}: next_finish is not the earliest finish");
        let Some(next) = scanned else {
            return;
        };
        if next < now + Q {
            return;
        }
        let snapshot = |net: &NetPlane<u32>| {
            let flows: Vec<(FlowId, u64, u64, SimTime)> =
                net.flows.iter().map(|(&id, f)| (id, f.remaining, f.rate, f.t0)).collect();
            (flows, net.delivered_bytes(), net.next_finish())
        };
        let before = snapshot(net);
        assert!(net.take_due(next - Q).is_empty(), "{ctx}: a poll before next_finish completed");
        assert_eq!(snapshot(net), before, "{ctx}: a poll before next_finish mutated the plane");
    }

    #[test]
    fn incremental_reshare_matches_full_on_random_sequences() {
        for seed in 0..6u64 {
            let mut rng = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xC0FF_EE11;
            let mut net = plane(8, 12.5, 10.0);
            let mut t = SimTime::ZERO;
            for step in 0..400 {
                t += SimDuration::from_millis(5 * (splitmix(&mut rng) % 20));
                match splitmix(&mut rng) % 4 {
                    // Arrivals: fetches and transfers to random nodes,
                    // storm-sized byte counts.
                    0 | 1 => {
                        let node = (splitmix(&mut rng) % 8) as usize;
                        let bytes = 1_000_000 + splitmix(&mut rng) % 2_000_000_000;
                        net.start_fetch(t, node, bytes, step);
                    }
                    2 => {
                        let src = (splitmix(&mut rng) % 8) as usize;
                        let dst = (splitmix(&mut rng) % 8) as usize;
                        let bytes = 1_000_000 + splitmix(&mut rng) % 500_000_000;
                        net.start_transfer(t, src, dst, bytes, step);
                    }
                    // Departures: jump far enough ahead that something
                    // (often a batch) finishes.
                    _ => {
                        t += SimDuration::from_secs(splitmix(&mut rng) % 4);
                        net.take_due(t);
                    }
                }
                assert_rates_match_oracle(&net, "after random op");
                assert_next_finish_exact(&mut net, t, "after random op");
                assert_eq!(
                    net.requested_bytes(),
                    net.delivered_bytes() + net.inflight_bytes(),
                    "ledger must balance (seed {seed}, step {step})"
                );
            }
            // Drain: every flow completes, the ledger closes.
            let mut guard = 0;
            while net.active_flows() > 0 {
                t += SimDuration::from_secs(600);
                net.take_due(t);
                assert_rates_match_oracle(&net, "during drain");
                assert_next_finish_exact(&mut net, t, "during drain");
                guard += 1;
                assert!(guard < 10_000, "flows must drain (seed {seed})");
            }
            assert_eq!(net.requested_bytes(), net.delivered_bytes());
            assert_eq!(net.next_finish(), None);
        }
    }

    #[test]
    fn same_instant_join_and_leave_matches_the_full_reshare() {
        // A simultaneous join+leave is the hardest membership change: a
        // flow finishes at instant t while another starts at exactly t.
        // The driver makes two calls in some order, each an incremental
        // re-share, and both orders must land bit-identically on the
        // full water-fill. This is the release-build regression for the
        // debug-only in-plane oracle: it differences the incremental
        // rates against `full_water_fill_rates()` explicitly, so
        // `cargo test --release` exercises it with debug_assertions off.
        for seed in 0..8u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED;
            let mut net = plane(6, 12.5, 10.0);
            let mut t = SimTime::ZERO;
            let mut tag = 0u32;
            for round in 0..150 {
                // Keep a few flows alive so a finish instant exists.
                while net.active_flows() < 3 {
                    let node = (splitmix(&mut rng) % 6) as usize;
                    let bytes = 5_000_000 + splitmix(&mut rng) % 400_000_000;
                    if splitmix(&mut rng).is_multiple_of(2) {
                        net.start_fetch(t, node, bytes, tag);
                    } else {
                        let src = (splitmix(&mut rng) % 6) as usize;
                        net.start_transfer(t, src, node, bytes, tag);
                    }
                    tag += 1;
                    assert_rates_match_oracle(&net, "refill");
                    assert_next_finish_exact(&mut net, t, "refill");
                }
                // Jump exactly onto the earliest finish instant.
                t = net.next_finish().expect("active flows have finishes");
                let node = (splitmix(&mut rng) % 6) as usize;
                let bytes = 1_000_000 + splitmix(&mut rng) % 200_000_000;
                if splitmix(&mut rng).is_multiple_of(2) {
                    // Leave, then join at the same instant.
                    let done = net.take_due(t);
                    assert!(!done.is_empty(), "seed {seed} round {round}: missed the finish");
                    assert_rates_match_oracle(&net, "after same-instant leave");
                    net.start_fetch(t, node, bytes, tag);
                } else {
                    // Join, then leave at the same instant. The join's
                    // re-share may slow the due flow past its old finish
                    // (rescuing it is legitimate); the rates must match
                    // the oracle either way.
                    net.start_fetch(t, node, bytes, tag);
                    assert_rates_match_oracle(&net, "after same-instant join");
                    net.take_due(t);
                }
                tag += 1;
                assert_rates_match_oracle(&net, "after same-instant churn");
                assert_next_finish_exact(&mut net, t, "after same-instant churn");
                assert_eq!(
                    net.requested_bytes(),
                    net.delivered_bytes() + net.inflight_bytes(),
                    "ledger must balance (seed {seed}, round {round})"
                );
            }
            // Drain: every flow completes, the ledger closes.
            let mut guard = 0;
            while net.active_flows() > 0 {
                t += SimDuration::from_secs(600);
                net.take_due(t);
                assert_rates_match_oracle(&net, "during drain");
                assert_next_finish_exact(&mut net, t, "during drain");
                guard += 1;
                assert!(guard < 10_000, "flows must drain (seed {seed})");
            }
            assert_eq!(net.requested_bytes(), net.delivered_bytes());
            assert_eq!(net.next_finish(), None);
        }
    }

    #[test]
    fn storm_departures_only_touch_their_component() {
        // A registry storm on nodes 0..4 and an independent NVLink
        // transfer on node 7: the transfer's rate must survive every
        // storm membership change untouched (disjoint component).
        let mut net = plane(8, 10.0, 25.0);
        for node in 0..4 {
            net.start_fetch(SimTime::ZERO, node, 1_250_000_000 * (node as u64 + 1), node as u32);
        }
        let nv = net.start_transfer(SimTime::ZERO, 7, 7, 50_000_000_000, 99);
        let nv_rate = net.flows[&nv].rate;
        let mut t = SimTime::ZERO;
        while net.flows.contains_key(&nv) && net.active_flows() > 1 {
            t += SimDuration::from_secs(1);
            net.take_due(t);
            if let Some(flow) = net.flows.get(&nv) {
                assert_eq!(flow.rate, nv_rate, "disjoint component re-rated at {t}");
            }
            assert_rates_match_oracle(&net, "storm departure");
        }
    }
}
