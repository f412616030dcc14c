//! The store-and-forward lane: the per-lane arena state ([`Core`]: the
//! packet FIFOs on the lane chassis [`Shard`]) and the
//! [`ReplicationPolicy`] workloads (unicast, collective) that
//! specialize the unified stepper ([`super::stepper`]) into every
//! packet-switched run. [`run_saf`] hands one [`SafLane`] per node
//! shard to the lane driver ([`run_lanes`]) — the **same** stage
//! methods at any lane count.

use fibcube_graph::csr::CsrGraph;

use crate::arena::{LinkQueues, PacketSlab, NO_COPY};
use crate::collective::CopyPlan;
use crate::experiment::ExperimentError;
use crate::observer::SimObserver;
use crate::router::{LinkLoad, NextHopTable, Router};
use crate::topology::Topology;
use crate::traffic::Packet;

use super::parallel::{run_lanes, LaneBuilder};
use super::policy::{FaultPolicy, ReplicationPolicy};
use super::stats::{DropReason, SimStats, StatsAcc};
use super::stepper::{LaneWorkload, Scan, Shard};

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

/// One store-and-forward lane's arena state: the lane chassis plus the
/// packet slab and this lane's window of the link-FIFO arena. A one-lane
/// run is exactly one `Core` spanning `[0, n)`; a sharded run is `k` of
/// them over contiguous node shards.
pub(crate) struct Core<'a, O> {
    pub(crate) shard: Shard<'a, O>,
    pub(crate) slab: PacketSlab,
    /// One FIFO per owned directed edge, indexed `e − edge_lo`.
    pub(crate) queues: LinkQueues,
}

impl<O: SimObserver> Core<'_, O> {
    /// Routes packet `id` at owned node `node` and enqueues it on the
    /// chosen output link — the one mutation path shared by the
    /// injection and arrival-commit stages.
    #[inline]
    pub(crate) fn route_and_enqueue<R: Router + ?Sized>(
        &mut self,
        routing: Routing<'_, R>,
        node: u32,
        id: u32,
        dst: u32,
    ) {
        let (g, edge_lo) = (self.shard.g, self.shard.edge_lo);
        let e = route_edge(g, routing, self.queues.loads(), edge_lo, node, dst);
        self.enqueue(e, id);
    }

    /// Enqueues packet `id` on owned directed edge `e`, fixing the
    /// chassis bookkeeping. The collective path calls it directly: its
    /// copy plan already names the edge.
    #[inline]
    pub(crate) fn enqueue(&mut self, e: usize, id: u32) {
        self.queues.push(e - self.shard.edge_lo, id);
        self.shard.push(e);
    }

    /// Drains the FIFO of directed edge `e` out of owned node `node` as
    /// typed drops (or silent losses for the closed loop) — the churn
    /// engine's event-commit stage.
    pub(crate) fn flush_directed_edge(
        &mut self,
        node: u32,
        e: usize,
        cycle: u64,
        reason: DropReason,
        silent: bool,
    ) {
        let le = e - self.shard.edge_lo;
        while let Some(id) = self.queues.pop(le) {
            self.shard.pop(e, self.queues.load(le) == 0);
            let dst = self.slab.dst(id);
            if !silent {
                self.shard.acc.drop_packet(reason);
                self.shard.observer.on_drop(cycle, node, dst, reason);
            }
            self.slab.release(id);
        }
    }
}

/// One store-and-forward lane: the arena state plus the workload's
/// policy hooks, wired into the unified stepper — the same
/// monomorphized stage code at any lane count.
pub(crate) struct SafLane<'a, O, W> {
    pub(crate) core: Core<'a, O>,
    pub(crate) workload: W,
}

impl<O: SimObserver, W: ReplicationPolicy<O>> LaneWorkload for SafLane<'_, O, W> {
    type Msg = SafMsg;

    #[inline]
    fn queued(&self) -> u64 {
        // The lane's share of the global in-flight count.
        self.core.shard.queued
    }

    #[inline]
    fn next_pending(&mut self) -> Option<u64> {
        self.workload.next_pending()
    }

    fn begin(&mut self, cycle: u64) {
        self.workload.commit_events(cycle, &mut self.core);
        self.workload.inject(cycle, &mut self.core);
    }

    /// The forward scan: each loaded owned link moves one packet, in
    /// ascending node and edge order — so the lane outboxes in lane
    /// order are exactly the serial pop order. Each
    /// packet leaves as an outbox message (`depart` fills the workload's
    /// fields) and its slab slot is freed; the committing lane
    /// re-allocates it, the cumulative hop count riding in the message.
    fn propose(&mut self, cycle: u64, out: &mut Vec<SafMsg>) {
        let core = &mut self.core;
        let mut scan = Scan::default();
        while let Some((u, e)) = core.shard.next_loaded(&mut scan) {
            let le = e - core.shard.edge_lo;
            let id = core.queues.pop(le).expect("loaded edge has a packet");
            core.shard.pop(e, core.queues.load(le) == 0);
            let v = core.shard.g.target(e);
            core.shard.observer.on_hop(cycle, u, v, e);
            core.shard.acc.total_hops += 1;
            let mut msg = SafMsg {
                node: v,
                dst: core.slab.dst(id),
                inject: core.slab.inject(id),
                hops: core.slab.hops(id) + 1,
                tag: 0,
            };
            self.workload.depart(u, id, &core.slab, &mut msg);
            core.slab.release(id);
            out.push(msg);
        }
    }

    #[inline]
    fn commit(&mut self, now: u64, msg: &SafMsg) {
        self.workload.commit(now, msg, &mut self.core);
    }

    fn end_cycle(&mut self, now: u64) {
        self.workload.end_cycle(now, &mut self.core);
        self.core.shard.flush_latencies(now);
    }

    #[inline]
    fn observe(&mut self, cycle: u64, in_flight: u64) {
        let observer = &mut self.core.shard.observer;
        observer.on_cycle_end(cycle, in_flight as usize);
    }
}

/// The store-and-forward lanes of one run, built by `make(lo, hi)` per
/// node shard; retired lanes leave their workloads in `done`, in lane
/// order.
struct SafLanes<'g, W, F> {
    g: &'g CsrGraph,
    make: F,
    done: Vec<W>,
}

impl<'g, O, W, F> LaneBuilder<O> for SafLanes<'g, W, F>
where
    O: SimObserver + Send,
    W: ReplicationPolicy<O> + Send,
    F: FnMut(u32, u32) -> W,
{
    type Lane<'o>
        = SafLane<'o, O, W>
    where
        Self: 'o,
        O: 'o;

    fn build<'o>(&mut self, lo: u32, hi: u32, observer: &'o mut O) -> SafLane<'o, O, W>
    where
        Self: 'o,
    {
        // The workload first: its set-up scratch (the injection sort's
        // buffer) is freed before the arena allocates, keeping peak RSS
        // down.
        let workload = (self.make)(lo, hi);
        let shard = Shard::new(self.g, lo, hi, observer);
        let core = Core {
            queues: LinkQueues::new(shard.edge_hi - shard.edge_lo),
            shard,
            slab: PacketSlab::new(),
        };
        SafLane { core, workload }
    }

    fn retire(&mut self, lane: SafLane<'_, O, W>) -> StatsAcc {
        self.done.push(lane.workload);
        lane.core.shard.acc
    }
}

/// Runs a store-and-forward workload through the lane driver
/// ([`run_lanes`]), building each lane's workload with `make(lo, hi)`
/// for its node shard. Returns the finished stats and the lane workloads
/// in lane order (carrying outputs such as the collective's tally).
pub(crate) fn run_saf<T, O, W, F>(
    topology: &T,
    offered: usize,
    max_cycles: u64,
    lanes: usize,
    observer: &mut O,
    make: F,
) -> Result<(SimStats, Vec<W>), ExperimentError>
where
    T: Topology + ?Sized,
    O: SimObserver + Send,
    W: ReplicationPolicy<O> + Send,
    F: FnMut(u32, u32) -> W,
{
    let (g, done) = (topology.graph(), Vec::new());
    let mut saf = SafLanes { g, make, done };
    let acc = run_lanes(topology.len(), lanes, max_cycles, observer, &mut saf)?;
    Ok((acc.finish(offered), saf.done))
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
            core.shard.observer.on_inject(cycle, p.src, p.dst);
            if let Some(reason) = self.fault.verdict(p.src, p.dst) {
                core.shard.acc.drop_packet(reason);
                core.shard.observer.on_drop(cycle, p.src, p.dst, reason);
                continue;
            }
            if p.src == p.dst {
                // Degenerate: counts as instantly delivered.
                core.shard.acc.deliver_instant();
                core.shard.observer.on_deliver(cycle, p.dst, 0);
                continue;
            }
            let id = core.slab.alloc(p.dst, p.inject_time);
            core.route_and_enqueue(self.fault.routing(), p.src, id, p.dst);
        }
    }

    fn commit(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O>) {
        if !core.shard.owns(msg.node) {
            return;
        }
        if msg.node == msg.dst {
            debug_assert!(
                msg.hops as u64 <= now - msg.inject,
                "hops can never exceed latency"
            );
            core.shard.deliver(now, msg.node, now - msg.inject);
        } else if let Some(reason) = self.fault.en_route(msg.node, msg.dst) {
            core.shard.acc.drop_packet(reason);
            core.shard.observer.on_drop(now, msg.node, msg.dst, reason);
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
    core.shard.observer.on_inject(cycle, u, child);
    core.enqueue(plan.edge(idx), id);
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
        if !core.shard.owns(src) {
            return;
        }
        // Cycle-0 prelude at the source's lane: type the recipients the
        // plan cannot cover, then let the source start its children.
        for &t in self.plan.dropped_dead() {
            core.shard.observer.on_inject(0, src, t);
            core.shard.acc.dropped_dead_endpoint += 1;
            core.shard
                .observer
                .on_drop(0, src, t, DropReason::DeadEndpoint);
        }
        for &t in self.plan.dropped_unreachable() {
            core.shard.observer.on_inject(0, src, t);
            core.shard.acc.dropped_unreachable += 1;
            core.shard
                .observer
                .on_drop(0, src, t, DropReason::Unreachable);
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
        if !core.shard.owns(msg.node) {
            return;
        }
        debug_assert_eq!(msg.node, msg.dst, "copies travel exactly one tree edge");
        core.shard.deliver(now, msg.node, now - msg.inject);
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
