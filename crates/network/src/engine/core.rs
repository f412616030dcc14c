//! The store-and-forward lane: the per-lane arena state ([`Core`]: the
//! packet FIFOs and the lane's [`FaultState`] on the lane chassis
//! [`Shard`]) and the [`ReplicationPolicy`] workloads (unicast,
//! collective) that specialize the unified stepper
//! ([`super::stepper`]) into every packet-switched run. The lane driver
//! ([`run_lanes`](super::parallel::run_lanes)) builds one [`SafLane`]
//! per node shard — the **same** stage methods at any lane count.

use fibcube_graph::csr::CsrGraph;

use crate::arena::{PacketSlab, SlabQueues, NO_COPY};
use crate::collective::CopyPlan;
use crate::observer::SimObserver;
use crate::router::Router;
use crate::traffic::{by_inject_time, Packet};

use super::policy::{FaultState, ReplicationPolicy};
use super::stats::DropReason;
use super::stepper::{LaneWorkload, Scan, Shard};

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

/// One store-and-forward lane's arena state: the lane chassis, the
/// packet slab, this lane's window of the link-FIFO arena, and the fault
/// state its packets meet. A one-lane run is exactly one `Core` spanning
/// `[0, n)`; a sharded run is `k` of them over contiguous node shards.
pub(crate) struct Core<'a, O, R: Router + ?Sized> {
    pub(crate) shard: Shard<'a, O>,
    pub(crate) slab: PacketSlab,
    /// One FIFO per owned directed edge, indexed `e − edge_lo`, threaded
    /// through `slab`.
    pub(crate) queues: SlabQueues,
    pub(crate) fault: FaultState<'a, R>,
}

impl<O: SimObserver, R: Router + ?Sized> Core<'_, O, R> {
    /// The output edge of an in-flight packet at owned node `node` bound
    /// for `dst` (`node ≠ dst`), or the reason churn stranded it
    /// ([`FaultState::forward`]). The caller allocates the packet once
    /// the hop is known and [`enqueue`](Core::enqueue)s it; an injection
    /// asks [`FaultState::first_hop`] instead.
    #[inline(always)]
    pub(crate) fn forward(&self, node: u32, dst: u32) -> Result<usize, DropReason> {
        let (g, edge_lo) = (self.shard.g, self.shard.edge_lo);
        self.fault.forward(g, &self.queues, edge_lo, node, dst)
    }

    /// Enqueues packet `id` on owned directed edge `e`, fixing the
    /// chassis bookkeeping. The collective path calls it directly: its
    /// copy plan already names the edge.
    #[inline]
    pub(crate) fn enqueue(&mut self, e: usize, id: u32) {
        self.queues.push(e - self.shard.edge_lo, id, &mut self.slab);
        self.shard.push(e);
    }
}

/// One store-and-forward lane: the arena state plus the workload's
/// policy hooks, wired into the unified stepper — the same
/// monomorphized stage code at any lane count.
pub(crate) struct SafLane<'a, O, W, R: Router + ?Sized> {
    pub(crate) core: Core<'a, O, R>,
    pub(crate) workload: W,
}

impl<'a, O: SimObserver, W, R: Router + ?Sized> SafLane<'a, O, W, R> {
    /// The lane owning nodes `[lo, hi)` of `g`, reporting to `observer`
    /// and meeting `fault`. The caller builds `workload` first, so its
    /// set-up scratch (the injection sort's buffer) is freed before the
    /// arena allocates, keeping peak RSS down.
    pub(crate) fn new(
        g: &'a CsrGraph,
        lo: u32,
        hi: u32,
        observer: &'a mut O,
        workload: W,
        fault: FaultState<'a, R>,
    ) -> Self {
        let shard = Shard::new(g, lo, hi, observer);
        let core = Core {
            queues: SlabQueues::new(shard.edge_hi - shard.edge_lo),
            shard,
            slab: PacketSlab::new(),
            fault,
        };
        SafLane { core, workload }
    }
}

impl<O, W, R> LaneWorkload for SafLane<'_, O, W, R>
where
    O: SimObserver,
    W: ReplicationPolicy<O, R>,
    R: Router + ?Sized,
{
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
        self.core.commit_events(cycle, W::SILENT_LOSSES);
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
            let id = core
                .queues
                .pop(le, &mut core.slab)
                .expect("loaded edge has a packet");
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

/// The open-loop unicast workload: time-sorted injection with the
/// fault state's admission ([`FaultState::admit`]), its routing at every
/// hop, delivery at the destination, and (under churn) its en-route
/// drops. A lane injects only the packets sourced in its node range.
pub(crate) struct Unicast<'p> {
    inj: Vec<&'p Packet>,
    next_inject: usize,
}

impl<'p> Unicast<'p> {
    /// The lane-restricted injection list: `packets` with `src` in
    /// `[lo, hi)`, time-sorted ([`by_inject_time`]: stable, so
    /// same-cycle packets keep their generation order — the serial
    /// order restricted to the lane).
    pub(crate) fn for_range(packets: &'p [Packet], lo: u32, hi: u32) -> Unicast<'p> {
        let lane = packets.iter().filter(|p| lo <= p.src && p.src < hi);
        Unicast {
            inj: by_inject_time(lane.collect()),
            next_inject: 0,
        }
    }
}

impl<O: SimObserver, R: Router + ?Sized> ReplicationPolicy<O, R> for Unicast<'_> {
    #[inline]
    fn next_pending(&mut self) -> Option<u64> {
        // Traffic only: fault events pending between here and the next
        // injection commit late, at the jumped-to cycle — with no
        // packets anywhere they cannot change any statistic, only the
        // fault state future injections see.
        self.inj.get(self.next_inject).map(|p| p.inject_time)
    }

    fn inject(&mut self, cycle: u64, core: &mut Core<'_, O, R>) {
        while self.next_inject < self.inj.len() && self.inj[self.next_inject].inject_time <= cycle {
            let p = self.inj[self.next_inject];
            self.next_inject += 1;
            let (g, edge_lo, queues) = (core.shard.g, core.shard.edge_lo, &core.queues);
            let admitted = core
                .fault
                .admit(&mut core.shard, cycle, p.src, p.dst, |fault| {
                    fault.first_hop(g, queues, edge_lo, p.src, p.dst)
                });
            if let Some(e) = admitted {
                let id = core.slab.alloc(p.dst, p.inject_time);
                core.enqueue(e, id);
            }
        }
    }

    fn commit(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O, R>) {
        if !core.shard.owns(msg.node) {
            return;
        }
        if msg.node == msg.dst {
            debug_assert!(
                msg.hops as u64 <= now - msg.inject,
                "hops can never exceed latency"
            );
            core.shard.deliver(now, msg.node, now - msg.inject);
            return;
        }
        match core.forward(msg.node, msg.dst) {
            Ok(e) => {
                let id = core.slab.alloc(msg.dst, msg.inject);
                core.slab.set_hops(id, msg.hops);
                core.enqueue(e, id);
            }
            Err(reason) => {
                core.shard.acc.drop_packet(reason);
                core.shard.observer.on_drop(now, msg.node, msg.dst, reason);
            }
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
fn spawn_copy<O: SimObserver, R: Router + ?Sized>(
    plan: &CopyPlan,
    core: &mut Core<'_, O, R>,
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

impl<O: SimObserver, R: Router + ?Sized> ReplicationPolicy<O, R> for Replicate<'_> {
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

    fn inject(&mut self, _cycle: u64, core: &mut Core<'_, O, R>) {
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
    fn commit(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O, R>) {
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
    fn end_cycle(&mut self, now: u64, core: &mut Core<'_, O, R>) {
        for i in 0..self.chained.len() {
            let (u, idx) = self.chained[i];
            spawn_copy(self.plan, core, now, u, idx);
        }
        self.chained.clear();
    }
}
