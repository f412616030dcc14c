//! Dynamic faults and closed-loop traffic for the store-and-forward
//! engine: the churn fault state (`Churn`), which applies a
//! [`ChurnTimeline`](crate::fault::ChurnTimeline) of fail/recover events
//! in the event-commit stage, and the closed-loop request/reply workload
//! (`Sessions`) with timeout-and-retry delivery. Both plug into the
//! unified stepper ([`run_saf`](super::core::run_saf)) through the
//! policy traits: `Churn` is one of the three fault states next to
//! `Healthy` and `Static`, and `Sessions` runs over any of them, as the
//! open-loop `Unicast` does. [`run`](super::run) picks `Churn` for
//! [`Admission::Churn`](super::Admission::Churn) with events, and
//! `Sessions` for [`Workload::Closed`](super::Workload::Closed).
//!
//! ## Event semantics
//!
//! Events commit **between cycles**: all events with `cycle <= c` are
//! applied at the top of cycle `c` (the event-commit stage), after the
//! previous cycle's arrivals and before cycle `c`'s injections — so
//! every admission verdict and routing decision within one cycle sees
//! one consistent fault epoch (the stability contract of the fault
//! policy). Applying an event flips the [`FaultMaskingRouter`]'s masks
//! and **incrementally patches** its distance table
//! ([`FaultMaskingRouter::apply_event`]); packets queued on a dying link
//! or node are flushed as typed drops ([`DropReason::LinkDied`] /
//! [`DropReason::NodeDied`]), and a packet whose destination died or was
//! cut off while it was in flight drops on arrival at its next hop
//! ([`DropReason::NodeDied`] / [`DropReason::Unreachable`]). Deliveries
//! at the `c + 1` arrival boundary precede deaths at cycle `c + 1`.
//!
//! ## Routing state
//!
//! The router is built with [`FaultMaskingRouter::for_topology`]. On a
//! topology with [`cube_labels`](crate::topology::Topology::cube_labels)
//! (the Fibonacci cubes and `Q_d`) its fault-free start table is filled
//! in closed form, `dist[dst][src] = popcount(l[src] ^ l[dst])`, with no
//! BFS. Per hop, a `(cur, dst)` query is **certified** when no dead node
//! and no independently failed link (both endpoints) lies in their
//! interval, where node `w` is in the interval iff
//! `((l[w] ^ l[cur]) & !(l[cur] ^ l[dst])) == 0`. A certified pair is
//! reachable at its Hamming distance, and the hop rule runs on labels
//! alone, making exactly the table's decision. The table is read as
//! before for uncertified pairs, for every pair while more than a fixed
//! number of faults are live, and on topologies without labels.
//!
//! ## Sharding
//!
//! Each lane owns a **replica** of the masked router (table, labels and
//! fault list), built from the same timeline and patched by the same
//! deterministic [`FaultMaskingRouter::apply_event`] calls — so every
//! lane's routing and admission decisions agree without any shared lock.
//! Queue flushes and drop accounting are gated on node ownership; the
//! closed-loop session machine is replicated the same way, with every
//! RNG draw executing on every lane and only the owning lane touching
//! real packets.
//!
//! ## Equivalence gates
//!
//! - An **empty timeline** runs the healthy network — the zero-churn
//!   run is packet-for-packet identical to
//!   [`Admission::Healthy`](super::Admission::Healthy).
//! - A timeline whose failures all commit at cycle 0 and never recover
//!   is packet-for-packet identical to the static degraded run
//!   ([`Admission::Static`](super::Admission::Static)), open or closed
//!   loop: both route per hop through the same [`FaultMaskingRouter`]
//!   state, with the same injection admission and the same cycle
//!   skeleton. (The static run fires no `on_fault_event`.)
//!
//! ## Closed-loop delivery
//!
//! [`Workload::Closed`](super::Workload::Closed) replaces the open-loop
//! packet list with `clients` sessions. Each session thinks (seeded
//! exponential holding time), then issues a request to a fresh random
//! destination; the
//! destination answers with a reply packet, and the transaction
//! completes when the reply returns. A reply that misses its deadline
//! triggers a retry with seeded exponential backoff (jittered delay,
//! doubling window, fresh destination — a failover probe); an exhausted
//! retry budget is a typed [`DropReason::RetriesExhausted`] drop. A
//! request the fault state refuses, or a packet stranded by churn, is
//! lost silently, and the session's timeout observes the loss.
//! `SimStats` counts **transactions**, not packets: `offered` is
//! transactions started, a delivery's latency spans first request to
//! final reply (retries included), and request/reply hops contribute to
//! `total_hops` and link contention like any other traffic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::arena::PacketSlab;
use crate::fault::{ChurnEvent, ChurnTarget, FaultSet};
use crate::observer::SimObserver;
use crate::router::{FaultMaskingRouter, Router};
use crate::topology::Topology;

use super::core::{Core, Routing, SafMsg};
use super::policy::{masked_verdict, FaultPolicy, ReplicationPolicy};
use super::stats::DropReason;

/// The closed-loop request/reply workload
/// ([`Workload::Closed`](super::Workload::Closed)): `clients` sessions
/// cycling think → request → reply with timeout-and-retry delivery.
/// Parsed from [`TrafficSpec::RequestReply`](crate::traffic::TrafficSpec).
/// A run needs at least 2 nodes and a finite cycle cap (the closed loop
/// never drains on its own); [`run`](super::run) refuses either with a
/// typed error. See the module-level docs for the transaction
/// accounting.
#[derive(Clone, Copy, Debug)]
pub struct RequestReplyLoad {
    /// Concurrent client sessions.
    pub clients: usize,
    /// Mean think time between transactions (cycles, exponential).
    pub think: f64,
    /// Base reply deadline (cycles); doubles per retry attempt.
    pub timeout: u64,
    /// Retry budget beyond the first attempt.
    pub retries: u32,
    /// Seed for session placement, destinations, think times, backoff.
    pub seed: u64,
}

/// The churn fault state of one lane: a lane-owned **replica** of the
/// masked router plus the event cursor, so fault events can flip its
/// masks and patch its distance table mid-run without any cross-lane
/// lock — every lane applies the same deterministic event stream, so
/// the replicas never diverge.
pub(crate) struct Churn<'g, 'p, R: Router + ?Sized> {
    router: FaultMaskingRouter<'g, R>,
    events: &'p [ChurnEvent],
    next_event: usize,
}

impl<'g, 'p, R: Router + ?Sized> Churn<'g, 'p, R> {
    /// The intact network around `inner`, with `events` still to apply.
    pub(crate) fn new<T: Topology + ?Sized>(
        topology: &'g T,
        inner: &'g R,
        events: &'p [ChurnEvent],
    ) -> Churn<'g, 'p, R> {
        Churn {
            router: FaultMaskingRouter::for_topology(topology, inner, &FaultSet::empty()),
            events,
            next_event: 0,
        }
    }
}

impl<'g, R: Router + ?Sized> FaultPolicy for Churn<'g, '_, R> {
    type Router = FaultMaskingRouter<'g, R>;

    #[inline]
    fn verdict(&self, src: u32, dst: u32) -> Option<DropReason> {
        masked_verdict(&self.router, src, dst)
    }

    #[inline]
    fn routing(&self) -> Routing<'_, FaultMaskingRouter<'g, R>> {
        Routing::PerHop(&self.router)
    }

    /// The destination died while the packet was in flight, or churn
    /// partitioned the network under it.
    #[inline]
    fn en_route(&self, node: u32, dst: u32) -> Option<DropReason> {
        if !self.router.node_alive(dst) {
            Some(DropReason::NodeDied)
        } else if !self.router.reachable(node, dst) {
            Some(DropReason::Unreachable)
        } else {
            None
        }
    }

    /// Applies every event due at or before `cycle`, in timeline order:
    /// router masks and distance rows on **every** lane's replica, then
    /// the queue flushes for failures at the lanes owning the affected
    /// queues. Flushes only ever find packets when `event.cycle` is the
    /// current cycle — the engine fast-forwards only over empty
    /// networks.
    fn commit_events<O: SimObserver>(&mut self, cycle: u64, core: &mut Core<'_, O>, silent: bool) {
        while self.next_event < self.events.len() && self.events[self.next_event].cycle <= cycle {
            let ev = self.events[self.next_event];
            self.next_event += 1;
            self.router.apply_event(&ev);
            if ev.failed {
                let g = core.shard.g;
                let mut flush = |a: u32, b: u32, reason| {
                    if let (true, Some(slot)) = (core.shard.owns(a), g.slot_of(a, b)) {
                        let e = g.edge_range(a).start + slot;
                        core.flush_directed_edge(a, e, ev.cycle, reason, silent);
                    }
                };
                match ev.target {
                    // u < v, so the u→v directed edge flushes first —
                    // ascending directed-edge order.
                    ChurnTarget::Link(u, v) => {
                        flush(u, v, DropReason::LinkDied);
                        flush(v, u, DropReason::LinkDied);
                    }
                    ChurnTarget::Node(x) => {
                        for &y in g.neighbors(x) {
                            flush(x, y, DropReason::NodeDied);
                        }
                        for &y in g.neighbors(x) {
                            flush(y, x, DropReason::NodeDied);
                        }
                    }
                }
            }
            // Every lane's observer fork sees the (global) fault event;
            // the merge hook deduplicates.
            core.shard.observer.on_fault_event(ev.cycle, ev.failed);
        }
    }
}

/// What a session is waiting for (exactly one pending action each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    /// Thinking; start the next transaction when due.
    Start,
    /// Waiting for a reply; fire the timeout when due.
    Timeout,
    /// Backing off; inject the retry attempt when due.
    Retry,
}

#[derive(Clone, Copy, Debug)]
struct Session {
    src: u32,
    dst: u32,
    /// Current transaction number (0 before the first).
    txn: u64,
    /// Attempt within the current transaction (0 = first request).
    attempt: u32,
    /// Inject cycle of the transaction's *first* request — the latency
    /// baseline a successful reply is measured against.
    t0: u64,
    pending: Action,
    /// Sequence stamp of the live heap entry; older entries are stale.
    pending_seq: u64,
}

/// Per-packet transaction tag, indexed by slab id (ids recycle; the
/// entry is overwritten at alloc time). Lane-local: only the lane that
/// holds the packet writes or reads its entry, and the identity rides
/// across lane hops in the [`SafMsg`]'s overloaded fields.
#[derive(Clone, Copy, Debug, Default)]
struct Meta {
    session: u32,
    txn: u64,
    attempt: u32,
    reply: bool,
}

/// Reply-direction flag packed into [`SafMsg::tag`]'s top bit, above
/// the session id.
const REPLY_BIT: u32 = 1 << 31;

/// The closed-loop workload over the fault state `F`: `clients`
/// sessions cycling think → request → reply with timeout-and-retry
/// delivery. All scheduling goes through one min-heap of
/// `(cycle, seq, session)` entries; a session transition bumps its
/// `pending_seq`, implicitly cancelling any earlier entry (e.g. the
/// timeout of a reply that did arrive).
///
/// Sharded, the whole machine is **replicated on every lane**: every
/// heap transition and every RNG draw executes identically everywhere
/// (so the replicas never diverge), while real packet effects —
/// allocations, routing, drop/delivery accounting, observer events —
/// are gated on the lane owning the acting node. A scheduled cycle
/// saturates at `u64::MAX`, which means "never" under any finite cap.
pub(crate) struct Sessions<F> {
    rng: StdRng,
    n: u32,
    think: f64,
    timeout: u64,
    retries: u32,
    sessions: Vec<Session>,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
    meta: Vec<Meta>,
    /// Transactions started — the run's `offered`.
    pub(crate) offered: usize,
    fault: F,
}

/// 53 random bits → uniform in (0, 1], so `ln` stays finite.
fn exp_draw(rng: &mut StdRng, mean: f64) -> u64 {
    if mean.is_nan() || mean <= 0.0 {
        return 0;
    }
    let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    (-u.ln() * mean).ceil() as u64
}

impl<F: FaultPolicy> Sessions<F> {
    /// The full session machine over `n` nodes, replicated identically
    /// on every lane (same seed, same draws); the lane bounds live in
    /// the [`Core`] it runs against.
    pub(crate) fn new(load: &RequestReplyLoad, n: u32, fault: F) -> Sessions<F> {
        let mut s = Sessions {
            rng: StdRng::seed_from_u64(load.seed),
            n,
            think: load.think,
            timeout: load.timeout.max(1),
            retries: load.retries,
            sessions: Vec::with_capacity(load.clients),
            heap: BinaryHeap::new(),
            seq: 0,
            meta: Vec::new(),
            offered: 0,
            fault,
        };
        for i in 0..load.clients {
            let src = s.rng.gen_range(0..n);
            s.sessions.push(Session {
                src,
                dst: src,
                txn: 0,
                attempt: 0,
                t0: 0,
                pending: Action::Start,
                pending_seq: 0,
            });
            // Stagger the first transactions with think-time draws.
            let start = exp_draw(&mut s.rng, s.think);
            s.schedule(i as u32, start, Action::Start);
        }
        s
    }

    fn schedule(&mut self, session: u32, cycle: u64, action: Action) {
        self.seq += 1;
        let s = &mut self.sessions[session as usize];
        s.pending = action;
        s.pending_seq = self.seq;
        self.heap.push(Reverse((cycle, self.seq, session)));
    }

    /// Earliest live scheduled action, discarding stale heap entries.
    fn next_action_cycle(&mut self) -> Option<u64> {
        while let Some(&Reverse((cycle, seq, session))) = self.heap.peek() {
            if self.sessions[session as usize].pending_seq == seq {
                return Some(cycle);
            }
            self.heap.pop();
        }
        None
    }

    /// The attempt's reply deadline window: the base timeout doubling
    /// per retry (shift capped — the window saturates, never wraps).
    fn window(&self, attempt: u32) -> u64 {
        self.timeout.saturating_mul(1u64 << attempt.min(16))
    }

    fn sample_dst(&mut self, src: u32) -> u32 {
        loop {
            let d = self.rng.gen_range(0..self.n);
            if d != src {
                return d;
            }
        }
    }

    /// Injects the current attempt's request, if admission permits. A
    /// rejected attempt (dead or disconnected endpoints) is simply a
    /// lost request: the pending timeout observes it. The verdict is
    /// evaluated on every lane (same fault epoch — same answer); the
    /// packet itself exists only at the lane owning the client.
    fn try_inject_request<O: SimObserver>(
        &mut self,
        session: u32,
        cycle: u64,
        core: &mut Core<'_, O>,
    ) {
        let s = self.sessions[session as usize];
        if self.fault.verdict(s.src, s.dst).is_some() {
            return;
        }
        if !core.shard.owns(s.src) {
            return;
        }
        let id = core.slab.alloc(s.dst, cycle);
        set_meta(
            &mut self.meta,
            id,
            Meta {
                session,
                txn: s.txn,
                attempt: s.attempt,
                reply: false,
            },
        );
        core.route_and_enqueue(self.fault.routing(), s.src, id, s.dst);
    }
}

impl<O: SimObserver, F: FaultPolicy> ReplicationPolicy<O> for Sessions<F> {
    fn next_pending(&mut self) -> Option<u64> {
        // Session actions only: fault events pending between here and
        // the next action commit late, at the jumped-to cycle — with no
        // packets anywhere they cannot change any statistic.
        self.next_action_cycle()
    }

    /// Stranded packets vanish silently: the session's timeout observes
    /// the loss, and the transaction-level accounting stays conserved.
    fn commit_events(&mut self, cycle: u64, core: &mut Core<'_, O>) {
        self.fault.commit_events(cycle, core, true);
    }

    /// Fires every session action due at `cycle`: transaction starts,
    /// reply timeouts (retry or give up), and backoff-delayed retries.
    /// Heap order `(cycle, seq)` makes the firing order deterministic,
    /// and every lane fires every action (the RNG must advance in
    /// lockstep); only the owning lane touches packets and statistics.
    fn inject(&mut self, cycle: u64, core: &mut Core<'_, O>) {
        loop {
            let Some(&Reverse((due, seq, session))) = self.heap.peek() else {
                return;
            };
            if due > cycle {
                return;
            }
            self.heap.pop();
            if self.sessions[session as usize].pending_seq != seq {
                continue; // cancelled by a reply or a state change
            }
            let action = self.sessions[session as usize].pending;
            match action {
                Action::Start => {
                    let (src, dst) = {
                        let src = self.sessions[session as usize].src;
                        (src, self.sample_dst(src))
                    };
                    {
                        let s = &mut self.sessions[session as usize];
                        s.txn += 1;
                        s.attempt = 0;
                        s.t0 = cycle;
                        s.dst = dst;
                    }
                    self.offered += 1;
                    if core.shard.owns(src) {
                        core.shard.observer.on_inject(cycle, src, dst);
                    }
                    self.try_inject_request(session, cycle, core);
                    let deadline = cycle.saturating_add(self.window(0));
                    self.schedule(session, deadline, Action::Timeout);
                }
                Action::Timeout => {
                    let (src, dst, attempt) = {
                        let s = &self.sessions[session as usize];
                        (s.src, s.dst, s.attempt)
                    };
                    if attempt >= self.retries {
                        // Budget exhausted: the transaction is a typed
                        // drop, and the session thinks before retrying
                        // with a fresh transaction.
                        if core.shard.owns(src) {
                            let reason = DropReason::RetriesExhausted;
                            core.shard.acc.drop_packet(reason);
                            core.shard.observer.on_drop(cycle, src, dst, reason);
                        }
                        let think = exp_draw(&mut self.rng, self.think);
                        let start = cycle.saturating_add(1).saturating_add(think);
                        self.schedule(session, start, Action::Start);
                    } else {
                        // Seeded exponential backoff: a uniform jitter
                        // inside the attempt's (doubling) window.
                        self.sessions[session as usize].attempt = attempt + 1;
                        let window = self.window(attempt);
                        let delay = self.rng.gen_range(0..window.max(1));
                        self.schedule(session, cycle.saturating_add(delay), Action::Retry);
                    }
                }
                Action::Retry => {
                    let src = self.sessions[session as usize].src;
                    let dst = self.sample_dst(src);
                    self.sessions[session as usize].dst = dst;
                    self.try_inject_request(session, cycle, core);
                    let attempt = self.sessions[session as usize].attempt;
                    let deadline = cycle.saturating_add(self.window(attempt));
                    self.schedule(session, deadline, Action::Timeout);
                }
            }
        }
    }

    /// Tags each departing packet with its transaction identity
    /// (session, txn, attempt, direction) so the committing lane can
    /// reconstruct the [`Meta`] sidecar without shared state.
    #[inline]
    fn depart(&mut self, _u: u32, id: u32, _slab: &PacketSlab, msg: &mut SafMsg) {
        let m = self.meta[id as usize];
        msg.inject = m.txn;
        msg.hops = m.attempt;
        msg.tag = m.session | if m.reply { REPLY_BIT } else { 0 };
    }

    /// One packet committing at `msg.node`: route it onward, complete
    /// the request→reply turn at its destination, or finish the
    /// transaction at the client. Stale packets (their session moved
    /// on) vanish silently; mid-flight losses are covered by the
    /// session timeout. Session-state transitions (including their RNG
    /// draws) run on **every** lane; packet and statistic effects only
    /// at the owner.
    fn commit(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O>) {
        let m = Meta {
            session: msg.tag & !REPLY_BIT,
            txn: msg.inject,
            attempt: msg.hops,
            reply: msg.tag & REPLY_BIT != 0,
        };
        if msg.node != msg.dst {
            // Mid-route: owner-only, no session transition. A packet
            // whose destination died or was partitioned away vanishes
            // silently (the pop already discounted it).
            if !core.shard.owns(msg.node) {
                return;
            }
            if self.fault.en_route(msg.node, msg.dst).is_none() {
                let id = core.slab.alloc(msg.dst, now);
                set_meta(&mut self.meta, id, m);
                core.route_and_enqueue(self.fault.routing(), msg.node, id, msg.dst);
            }
            return;
        }
        let s = self.sessions[m.session as usize];
        let current = s.txn == m.txn && s.attempt == m.attempt && s.pending == Action::Timeout;
        if !current {
            return; // the session retried or gave up: stale packet
        }
        if !m.reply {
            // Request reached the server: turn it around as a reply, if
            // the client is still there to receive it.
            if msg.node != s.src
                && self.fault.en_route(msg.node, s.src).is_none()
                && core.shard.owns(msg.node)
            {
                let rid = core.slab.alloc(s.src, now);
                set_meta(&mut self.meta, rid, Meta { reply: true, ..m });
                core.route_and_enqueue(self.fault.routing(), msg.node, rid, s.src);
            }
        } else {
            // Reply reached the client: the transaction completes, with
            // latency measured from the transaction's first request.
            if core.shard.owns(msg.node) {
                core.shard.deliver(now, msg.node, now - s.t0);
            }
            let start = now.saturating_add(exp_draw(&mut self.rng, self.think));
            self.schedule(m.session, start, Action::Start);
        }
    }
}

fn set_meta(meta: &mut Vec<Meta>, id: u32, m: Meta) {
    let i = id as usize;
    if meta.len() <= i {
        meta.resize(i + 1, Meta::default());
    }
    meta[i] = m;
}
