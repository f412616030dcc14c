//! The store-and-forward lane: the per-lane arena state ([`Core`]) and
//! the [`ReplicationPolicy`] workloads (unicast, collective) that
//! specialize the unified stepper ([`super::stepper`]) into every
//! packet-switched run. [`run_saf`] drives one [`SafLane`] under the
//! [`Solo`] protocol, or one per node shard under the pooled protocol —
//! the **same** stage methods either way.

use fibcube_graph::csr::CsrGraph;

use crate::arena::{LinkQueues, PacketSlab, NO_COPY};
use crate::collective::CopyPlan;
use crate::experiment::ExperimentError;
use crate::observer::SimObserver;
use crate::router::{LinkLoad, NextHopTable, Router};
use crate::topology::Topology;
use crate::traffic::Packet;

use super::parallel::{fork_lanes, merge_lanes, run_pool};
use super::policy::{FaultPolicy, ReplicationPolicy};
use super::stats::{DropReason, SimStats, StatsAcc};
use super::stepper::{lane_bounds, run_lane, LaneWorkload, Solo};

/// Occupancy view of one node's output links, handed to adaptive routers:
/// a window into the [`LinkQueues`] occupancy column.
pub(crate) struct NodeLoad<'a> {
    pub(crate) loads: &'a [u32],
    pub(crate) base: usize,
}

impl LinkLoad for NodeLoad<'_> {
    fn load(&self, slot: usize) -> usize {
        self.loads[self.base + slot] as usize
    }
}

/// How the engine resolves each hop: a dense precomputed table (one load
/// per hop) or per-hop policy calls (live link-load view plus a slot
/// search in the node's neighbor list — a couple of compares in one
/// already-hot cache line, which beats any big-table lookup here).
/// `Copy`, so every lane of a sharded run borrows the same plan.
pub(crate) enum Routing<'t, R: ?Sized> {
    Table(&'t NextHopTable),
    PerHop(&'t R),
}

impl<R: ?Sized> Clone for Routing<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R: ?Sized> Copy for Routing<'_, R> {}

/// The owned result of [`routing_for`]: holds the tabulated next-hop
/// table (when one is built) so the per-lane [`Routing`] views can all
/// borrow it.
pub(crate) enum RoutingPlan<'t, R: ?Sized> {
    Table(NextHopTable),
    PerHop(&'t R),
}

impl<'t, R: ?Sized> RoutingPlan<'t, R> {
    pub(crate) fn as_ref(&self) -> Routing<'_, R> {
        match self {
            RoutingPlan::Table(t) => Routing::Table(t),
            RoutingPlan::PerHop(r) => Routing::PerHop(r),
        }
    }
}

/// Picks the routing path for one run: tabulate when the expected number
/// of route lookups (≈ `packets × diameter/2`, a proxy for packets ×
/// average distance) amortises the `O(n²)` table build *and* the policy
/// can be tabulated at all. See [`NextHopTable`] for the trade-off.
/// Sharded runs call this **once** (with the global packet count) so
/// every lane takes the same path the serial engine would.
pub(crate) fn routing_for<'t, T, R>(
    topology: &T,
    router: &'t R,
    packets: usize,
) -> RoutingPlan<'t, R>
where
    T: Topology + ?Sized,
    R: Router + ?Sized,
{
    let g = topology.graph();
    let n = g.num_vertices() as u64;
    let lookups = (packets as u64).saturating_mul((topology.diameter_bound() as u64 / 2).max(1));
    if lookups >= n.saturating_mul(n) {
        if let Some(table) = router.precompute(g) {
            return RoutingPlan::Table(table);
        }
    }
    RoutingPlan::PerHop(router)
}

/// Resolves the output edge for one hop — [`Core::route_and_enqueue`]'s
/// routing half, shared with the wormhole engine (which reserves buffers
/// instead of enqueuing packets). `loads` is the caller's link-load
/// column indexed from global edge `edge_lo` (0 for a whole-network
/// view); the returned edge id is global.
#[inline]
pub(crate) fn route_edge<R: Router + ?Sized>(
    g: &CsrGraph,
    routing: Routing<'_, R>,
    loads: &[u32],
    edge_lo: usize,
    node: u32,
    dst: u32,
) -> usize {
    match routing {
        Routing::Table(table) => table
            .next_edge(node, dst)
            .expect("routing a packet not yet at dst"),
        Routing::PerHop(router) => {
            let base = g.edge_range(node).start;
            let hop = {
                let load = NodeLoad {
                    loads,
                    base: base - edge_lo,
                };
                router
                    .next_hop(node, dst, &load)
                    .expect("routing a packet not yet at dst")
            };
            base + g
                .slot_of(node, hop)
                .expect("next_hop must return a neighbor")
        }
    }
}

/// One cross-lane effect of the store-and-forward stepper: a packet
/// crossing a link, committed at the far end at the `cycle + 1`
/// boundary. Two fields are workload-overloaded so the message stays
/// one cache-line-quarter wide: the request/reply workload carries its
/// transaction id in `inject`, its attempt number in `hops`, and its
/// session tag in `tag` (unused and zero everywhere else).
#[derive(Clone, Copy, Debug)]
pub(crate) struct SafMsg {
    /// Arrival node (the popped link's target).
    pub(crate) node: u32,
    /// Final destination (unicast) / tree child (collective).
    pub(crate) dst: u32,
    /// Injection cycle — or the transaction id (request/reply).
    pub(crate) inject: u64,
    /// Cumulative hop count — or the attempt number (request/reply).
    pub(crate) hops: u32,
    /// Session id | reply bit (request/reply); zero otherwise.
    pub(crate) tag: u32,
}

/// One lane's mutable arena state: the packet slab, this lane's window
/// of the link-FIFO arena, the per-node occupancy counters and
/// occupied-slot bitmasks, the active worklist, the statistics
/// accumulator, and the lane's observer (the caller's `&mut O` in a
/// serial run, a fork in a sharded one). A serial engine is exactly one
/// `Core` spanning `[0, n)`; a sharded engine is `k` of them over
/// contiguous node shards.
pub(crate) struct Core<'g, O: SimObserver> {
    pub(crate) g: &'g CsrGraph,
    /// This lane owns nodes `[lo, hi)` and their output edges
    /// `[edge_lo, ..)` — all node/edge-indexed columns below are local
    /// to that window.
    pub(crate) lo: u32,
    pub(crate) hi: u32,
    pub(crate) edge_lo: usize,
    pub(crate) slab: PacketSlab,
    pub(crate) queues: LinkQueues,
    /// Queued packets per owned node (drives the active worklist).
    pub(crate) occupancy: Vec<u32>,
    /// Per-node bitmask of output slots holding packets, so the forward
    /// phase pops exactly the occupied queues (a `trailing_zeros` word
    /// walk) instead of probing every out-edge of every active node.
    /// Empty (disabled — the forward phase falls back to the plain edge
    /// scan) in the off-design case of degrees above 64.
    pub(crate) slot_mask: Vec<u64>,
    pub(crate) on_list: Vec<bool>,
    pub(crate) active: Vec<u32>,
    pub(crate) next_active: Vec<u32>,
    pub(crate) observer: O,
    pub(crate) acc: StatsAcc,
    /// Packets currently queued on this lane — the lane's share of the
    /// global in-flight count the stepper's drain check sums.
    pub(crate) queued: u64,
    /// Latencies delivered this cycle, batch-accounted at `end_cycle`
    /// through [`StatsAcc::deliver_batch`].
    pub(crate) lat_scratch: Vec<u64>,
}

impl<'g, O: SimObserver> Core<'g, O> {
    pub(crate) fn new(g: &'g CsrGraph, n: usize, lo: u32, hi: u32, observer: O) -> Core<'g, O> {
        let local = (hi - lo) as usize;
        let (edge_lo, edge_hi) = if hi > lo {
            (g.edge_range(lo).start, g.edge_range(hi - 1).end)
        } else {
            (0, 0)
        };
        let masked_scan = g.max_degree() <= 64;
        Core {
            g,
            lo,
            hi,
            edge_lo,
            slab: PacketSlab::new(),
            queues: LinkQueues::new(edge_hi - edge_lo),
            occupancy: vec![0u32; local],
            slot_mask: vec![0; if masked_scan { local } else { 0 }],
            on_list: vec![false; local],
            active: Vec::new(),
            next_active: Vec::new(),
            observer,
            acc: StatsAcc::for_network(n),
            queued: 0,
            lat_scratch: Vec::new(),
        }
    }

    /// Does this lane own node `v`?
    #[inline]
    pub(crate) fn owns(&self, v: u32) -> bool {
        self.lo <= v && v < self.hi
    }

    /// Adds owned node `u` to the current cycle's worklist if absent.
    #[inline]
    pub(crate) fn worklist_add(&mut self, u: u32) {
        let li = (u - self.lo) as usize;
        if !self.on_list[li] {
            self.on_list[li] = true;
            self.active.push(u);
        }
    }

    /// Routes packet `id` at owned node `node`, enqueues it on the
    /// chosen output link, and fixes the occupancy/bitmask/worklist
    /// bookkeeping — the one mutation path shared by the injection and
    /// arrival-commit stages.
    #[inline]
    pub(crate) fn route_and_enqueue<R: Router + ?Sized>(
        &mut self,
        routing: Routing<'_, R>,
        node: u32,
        id: u32,
        dst: u32,
    ) {
        let base = self.g.edge_range(node).start;
        let e = route_edge(
            self.g,
            routing,
            self.queues.loads(),
            self.edge_lo,
            node,
            dst,
        );
        self.enqueue(node, base, e, id);
    }

    /// Enqueues packet `id` directly on the directed edge `e` out of
    /// owned node `node` — the collective path, where the next-copy
    /// table already names the edge and no routing policy is consulted.
    #[inline]
    pub(crate) fn enqueue_on_edge(&mut self, node: u32, e: usize, id: u32) {
        let base = self.g.edge_range(node).start;
        self.enqueue(node, base, e, id);
    }

    #[inline]
    fn enqueue(&mut self, node: u32, base: usize, e: usize, id: u32) {
        self.queues.push(e - self.edge_lo, id);
        let li = (node - self.lo) as usize;
        if let Some(mask) = self.slot_mask.get_mut(li) {
            *mask |= 1u64 << (e - base);
        }
        self.occupancy[li] += 1;
        self.queued += 1;
        self.worklist_add(node);
    }

    /// Records one delivery at owned node `node`: the observer event
    /// now, the latency batched for `end_cycle`'s
    /// [`StatsAcc::deliver_batch`].
    #[inline]
    pub(crate) fn deliver(&mut self, now: u64, node: u32, latency: u64) {
        self.observer.on_deliver(now, node, latency);
        self.lat_scratch.push(latency);
    }

    /// Batch-accounts the cycle's delivered latencies.
    #[inline]
    pub(crate) fn flush_latencies(&mut self, now: u64) {
        if !self.lat_scratch.is_empty() {
            let lats = std::mem::take(&mut self.lat_scratch);
            self.acc.deliver_batch(now, &lats);
            self.lat_scratch = lats;
            self.lat_scratch.clear();
        }
    }

    /// Drains the FIFO of directed edge `e` out of owned node `node` as
    /// typed drops (or silent losses for the closed loop), fixing the
    /// occupancy and slot-mask bookkeeping — the churn engine's
    /// event-commit stage.
    pub(crate) fn flush_directed_edge(
        &mut self,
        node: u32,
        e: usize,
        cycle: u64,
        reason: DropReason,
        silent: bool,
    ) {
        let li = (node - self.lo) as usize;
        while let Some(id) = self.queues.pop(e - self.edge_lo) {
            self.occupancy[li] -= 1;
            self.queued -= 1;
            let dst = self.slab.dst(id);
            if !silent {
                self.acc.drop_packet(reason);
                self.observer.on_drop(cycle, node, dst, reason);
            }
            self.slab.release(id);
        }
        let base = self.g.edge_range(node).start;
        if let Some(mask) = self.slot_mask.get_mut(li) {
            *mask &= !(1u64 << (e - base));
        }
    }
}

/// One store-and-forward lane: the arena state plus the workload's
/// policy hooks, wired into the unified stepper. Serial runs use one
/// lane over `[0, n)` under [`Solo`]; sharded runs use `k` of them
/// under the pooled protocol — the same monomorphized stage code
/// either way.
pub(crate) struct SafLane<'g, O: SimObserver, W> {
    pub(crate) core: Core<'g, O>,
    pub(crate) workload: W,
}

impl<O: SimObserver, W: ReplicationPolicy<O>> LaneWorkload for SafLane<'_, O, W> {
    type Msg = SafMsg;

    #[inline]
    fn queued(&self) -> u64 {
        self.core.queued
    }

    #[inline]
    fn next_pending(&mut self) -> Option<u64> {
        self.workload.next_pending()
    }

    fn begin(&mut self, cycle: u64) {
        self.workload.commit_events(cycle, &mut self.core);
        self.workload.inject(cycle, &mut self.core);
    }

    /// The forward scan: each directed link of an active owned node
    /// moves one packet, ascending node and edge order — so the
    /// concatenation of lane outboxes in lane order is exactly the
    /// serial engine's pop order. On masked-scan networks the occupied
    /// slots are visited by a `u64` `trailing_zeros` word walk.
    fn propose(&mut self, cycle: u64, out: &mut Vec<SafMsg>) {
        let core = &mut self.core;
        let w = &mut self.workload;
        core.active.sort_unstable();
        let masked = !core.slot_mask.is_empty();
        for i in 0..core.active.len() {
            let u = core.active[i];
            let li = (u - core.lo) as usize;
            core.on_list[li] = false;
            let base = core.g.edge_range(u).start;
            if masked {
                // Visit only the occupied slots, lowest slot first —
                // the same order the plain scan forwards in.
                let mut mask = core.slot_mask[li];
                let mut remaining = mask;
                while remaining != 0 {
                    let slot = remaining.trailing_zeros() as usize;
                    remaining &= remaining - 1;
                    let e = base + slot;
                    let id = core
                        .queues
                        .pop(e - core.edge_lo)
                        .expect("mask bit implies a queued packet");
                    if core.queues.load(e - core.edge_lo) == 0 {
                        mask &= !(1u64 << slot);
                    }
                    pop_step(core, w, cycle, u, li, e, id, out);
                }
                core.slot_mask[li] = mask;
            } else {
                for e in core.g.edge_range(u) {
                    if let Some(id) = core.queues.pop(e - core.edge_lo) {
                        pop_step(core, w, cycle, u, li, e, id, out);
                    }
                }
            }
            if core.occupancy[li] > 0 {
                core.on_list[li] = true;
                core.next_active.push(u);
            }
        }
        core.active.clear();
        std::mem::swap(&mut core.active, &mut core.next_active);
    }

    #[inline]
    fn commit(&mut self, now: u64, msg: &SafMsg) {
        self.workload.commit(now, msg, &mut self.core);
    }

    fn end_cycle(&mut self, now: u64) {
        self.workload.end_cycle(now, &mut self.core);
        self.core.flush_latencies(now);
    }

    #[inline]
    fn observe(&mut self, cycle: u64, in_flight: u64) {
        self.core.observer.on_cycle_end(cycle, in_flight as usize);
    }
}

/// One popped packet: the hop event, the outbox message (with the
/// workload's `depart` hook filling workload-specific fields), and the
/// pop-side bookkeeping. The packet's slab slot is released here — the
/// committing lane re-allocates on arrival, with the cumulative hop
/// count riding in the message.
#[allow(clippy::too_many_arguments)]
#[inline]
fn pop_step<O: SimObserver, W: ReplicationPolicy<O>>(
    core: &mut Core<'_, O>,
    w: &mut W,
    cycle: u64,
    u: u32,
    li: usize,
    e: usize,
    id: u32,
    out: &mut Vec<SafMsg>,
) {
    let v = core.g.target(e);
    core.observer.on_hop(cycle, u, v, e);
    let mut msg = SafMsg {
        node: v,
        dst: core.slab.dst(id),
        inject: core.slab.inject(id),
        hops: core.slab.hops(id) + 1,
        tag: 0,
    };
    w.depart(u, id, &core.slab, &mut msg);
    core.slab.release(id);
    core.occupancy[li] -= 1;
    core.queued -= 1;
    core.acc.total_hops += 1;
    out.push(msg);
}

/// Runs a store-and-forward workload through the unified stepper on
/// `lanes` lanes (already clamped to `[1, n]`), building each lane's
/// workload with `make(lo, hi)` for its node shard. One lane runs under
/// [`Solo`] on the caller's thread with the caller's observer — no fork,
/// no thread. More lanes run the pooled protocol, each on an observer
/// fork, merged back in ascending lane order. Returns the finished
/// stats and the lane workloads in lane order (which may carry run
/// outputs, e.g. the collective's reached-target tally).
pub(crate) fn run_saf<T, O, W, F>(
    topology: &T,
    offered: usize,
    max_cycles: u64,
    lanes: usize,
    observer: &mut O,
    mut make: F,
) -> Result<(SimStats, Vec<W>), ExperimentError>
where
    T: Topology + ?Sized,
    O: SimObserver + Send,
    W: ReplicationPolicy<O> + for<'o> ReplicationPolicy<&'o mut O> + Send,
    F: FnMut(u32, u32) -> W,
{
    let n = topology.len();
    let g = topology.graph();
    if lanes <= 1 {
        // The workload first: its set-up scratch (the injection sort's
        // buffer) is freed before the arena allocates, keeping peak RSS
        // down.
        let workload = make(0, n as u32);
        let mut lane = SafLane {
            core: Core::new(g, n, 0, n as u32, observer),
            workload,
        };
        run_lane(&mut lane, &Solo::default(), 0, max_cycles);
        return Ok((lane.core.acc.finish(offered), vec![lane.workload]));
    }
    let forks = fork_lanes(observer, lanes)?;
    let pool: Vec<SafLane<'_, O, W>> = lane_bounds(n, lanes)
        .into_iter()
        .zip(forks)
        .map(|((lo, hi), fork)| SafLane {
            core: Core::new(g, n, lo, hi, fork),
            workload: make(lo, hi),
        })
        .collect();
    let mut workloads = Vec::with_capacity(lanes);
    let finished = run_pool(pool, max_cycles).into_iter().map(|lane| {
        workloads.push(lane.workload);
        (lane.core.observer, lane.core.acc)
    });
    let acc = merge_lanes(observer, finished);
    Ok((acc.finish(offered), workloads))
}

/// The open-loop unicast workload over the fault state `F`: time-sorted
/// injection with `F`'s admission, `F`'s routing at every hop, delivery
/// at the destination, and (under churn) `F`'s event commit and
/// en-route drops. A lane injects only the packets sourced in its node
/// range.
pub(crate) struct Unicast<'p, F> {
    inj: Vec<&'p Packet>,
    next_inject: usize,
    fault: F,
}

impl<'p, F: FaultPolicy> Unicast<'p, F> {
    /// The lane-restricted injection list: `packets` with `src` in
    /// `[lo, hi)`, time-sorted (stable, so same-cycle packets keep
    /// their generation order — the serial order restricted to the
    /// lane).
    pub(crate) fn for_range(packets: &'p [Packet], lo: u32, hi: u32, fault: F) -> Unicast<'p, F> {
        let mut inj: Vec<&Packet> = packets
            .iter()
            .filter(|p| lo <= p.src && p.src < hi)
            .collect();
        inj.sort_by_key(|p| p.inject_time);
        Unicast {
            inj,
            next_inject: 0,
            fault,
        }
    }
}

impl<O: SimObserver, F: FaultPolicy> ReplicationPolicy<O> for Unicast<'_, F> {
    #[inline]
    fn next_pending(&mut self) -> Option<u64> {
        // Traffic only: fault events pending between here and the next
        // injection commit late, at the jumped-to cycle — with no
        // packets anywhere they cannot change any statistic, only the
        // fault state future injections see.
        self.inj.get(self.next_inject).map(|p| p.inject_time)
    }

    #[inline]
    fn commit_events(&mut self, cycle: u64, core: &mut Core<'_, O>) {
        self.fault.commit_events(cycle, core, false);
    }

    fn inject(&mut self, cycle: u64, core: &mut Core<'_, O>) {
        while self.next_inject < self.inj.len() && self.inj[self.next_inject].inject_time <= cycle {
            let p = self.inj[self.next_inject];
            self.next_inject += 1;
            core.observer.on_inject(cycle, p.src, p.dst);
            if let Some(reason) = self.fault.verdict(p.src, p.dst) {
                core.acc.drop_packet(reason);
                core.observer.on_drop(cycle, p.src, p.dst, reason);
                continue;
            }
            if p.src == p.dst {
                // Degenerate: counts as instantly delivered.
                core.acc.deliver_instant();
                core.observer.on_deliver(cycle, p.dst, 0);
                continue;
            }
            let id = core.slab.alloc(p.dst, p.inject_time);
            core.route_and_enqueue(self.fault.routing(), p.src, id, p.dst);
        }
    }

    fn commit(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O>) {
        if !core.owns(msg.node) {
            return;
        }
        if msg.node == msg.dst {
            debug_assert!(
                msg.hops as u64 <= now - msg.inject,
                "hops can never exceed latency"
            );
            core.deliver(now, msg.node, now - msg.inject);
        } else if let Some(reason) = self.fault.en_route(msg.node, msg.dst) {
            core.acc.drop_packet(reason);
            core.observer.on_drop(now, msg.node, msg.dst, reason);
        } else {
            let id = core.slab.alloc(msg.dst, msg.inject);
            core.slab.set_hops(id, msg.hops);
            core.route_and_enqueue(self.fault.routing(), msg.node, id, msg.dst);
        }
    }
}

/// The one-port/all-port first-children slice of `u`'s plan edges: all
/// of them at once (all-port) or just the first (one-port — the rest
/// chain through the slab's next-copy column).
fn first_children(plan: &CopyPlan, u: u32) -> std::ops::Range<usize> {
    let range = plan.children_range(u);
    if plan.one_port() {
        range.start..range.end.min(range.start + 1)
    } else {
        range
    }
}

/// Spawns the copy of plan edge `idx` at its parent `u` (owned by the
/// calling lane): allocates the packet in the slab (chaining the next
/// sibling in one-port mode), reports the injection, and enqueues it on
/// the tree edge the plan resolved at compile time. Shared by the
/// cycle-0 source prelude, the replicate-on-delivery path, and the
/// one-port sibling chain.
#[inline]
fn spawn_copy<O: SimObserver>(
    plan: &CopyPlan,
    core: &mut Core<'_, O>,
    cycle: u64,
    u: u32,
    idx: usize,
) {
    let child = plan.child(idx);
    let id = core.slab.alloc(child, cycle);
    if plan.one_port() && idx + 1 < plan.children_range(u).end {
        core.slab.set_next_copy(id, (idx + 1) as u32);
    }
    core.observer.on_inject(cycle, u, child);
    core.enqueue_on_edge(u, plan.edge(idx), id);
}

/// The collective workload: packets are **replicated at intermediate
/// nodes** along a [`CopyPlan`] tree instead of routed end to end. Every
/// copy travels exactly one tree edge; a delivery informs the receiving
/// node, which spawns its own children (all at once, or chained one per
/// cycle in one-port mode). Sharded, every spawn happens at the lane
/// that owns the spawning node — the prelude at the source's lane, the
/// replication fan-out at the arrival-committing lane.
pub(crate) struct Replicate<'p> {
    plan: &'p CopyPlan,
    started: bool,
    /// One-port sibling spawns, deferred past the forward phase so a
    /// follow-up copy never departs in the cycle its predecessor did.
    chained: Vec<(u32, usize)>,
    pub(crate) reached_targets: usize,
}

impl<'p> Replicate<'p> {
    pub(crate) fn new(plan: &'p CopyPlan) -> Replicate<'p> {
        Replicate {
            plan,
            started: false,
            chained: Vec::new(),
            reached_targets: 0,
        }
    }
}

impl<O: SimObserver> ReplicationPolicy<O> for Replicate<'_> {
    #[inline]
    fn next_pending(&mut self) -> Option<u64> {
        // The whole tree starts at cycle 0; after that only in-flight
        // copies (the stepper's drain check) keep the run alive.
        if self.started {
            None
        } else {
            Some(0)
        }
    }

    fn inject(&mut self, _cycle: u64, core: &mut Core<'_, O>) {
        if self.started {
            return;
        }
        self.started = true;
        let src = self.plan.source();
        if !core.owns(src) {
            return;
        }
        // Cycle-0 prelude at the source's lane: type the recipients the
        // plan cannot cover, then let the source start its children.
        for &t in self.plan.dropped_dead() {
            core.observer.on_inject(0, src, t);
            core.acc.dropped_dead_endpoint += 1;
            core.observer.on_drop(0, src, t, DropReason::DeadEndpoint);
        }
        for &t in self.plan.dropped_unreachable() {
            core.observer.on_inject(0, src, t);
            core.acc.dropped_unreachable += 1;
            core.observer.on_drop(0, src, t, DropReason::Unreachable);
        }
        for idx in first_children(self.plan, src) {
            spawn_copy(self.plan, core, 0, src, idx);
        }
    }

    /// Captures the one-port next-copy chain at pop time.
    #[inline]
    fn depart(&mut self, u: u32, id: u32, slab: &PacketSlab, _msg: &mut SafMsg) {
        let next = slab.next_copy(id);
        if next != NO_COPY {
            self.chained.push((u, next as usize));
        }
    }

    /// Every copy ends exactly at its tree child — deliver it, then
    /// replicate there.
    fn commit(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O>) {
        if !core.owns(msg.node) {
            return;
        }
        debug_assert_eq!(msg.node, msg.dst, "copies travel exactly one tree edge");
        core.deliver(now, msg.node, now - msg.inject);
        if self.plan.is_target(msg.node) {
            self.reached_targets += 1;
        }
        for idx in first_children(self.plan, msg.node) {
            spawn_copy(self.plan, core, now, msg.node, idx);
        }
    }

    /// One-port siblings chained off copies that departed this cycle:
    /// enqueued now, so they depart next cycle — one port per node per
    /// cycle, exactly the telephone model.
    fn end_cycle(&mut self, now: u64, core: &mut Core<'_, O>) {
        for i in 0..self.chained.len() {
            let (u, idx) = self.chained[i];
            spawn_copy(self.plan, core, now, u, idx);
        }
        self.chained.clear();
    }
}
