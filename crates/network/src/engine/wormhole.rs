//! The flit-level wormhole workload of the unified stepper — the
//! engine body [`run`](super::run) executes for a
//! [`SwitchingSpec::Wormhole`] plan.
//!
//! ## Model
//!
//! Each packet is [`SwitchingSpec::flits_per_packet`] flits. The head
//! flit claims a chain of (directed link × virtual channel) buffers of
//! `buf_flits` capacity, routing one hop per cycle exactly like the
//! store-and-forward engine; body flits stream behind it through the
//! same chain (one injected per cycle at the source) and the tail
//! releases each buffer as it passes — so a blocked packet occupies
//! buffers along its whole path, the defining wormhole behaviour.
//! Advancement is credit-based (a flit moves only when the next buffer
//! has space, counting same-cycle reservations) and each directed link
//! still moves at most one flit per cycle, scanning VCs lowest-first.
//! Virtual channels are keyed to [`Topology::channel_class`]: a hop
//! whose class does not increase bumps the packet to the next VC level
//! (clamped to `vcs − 1`), which on order-based routes makes the
//! channel-dependency graph acyclic — see
//! [`switching`](crate::switching) for the argument. Fault detours are
//! not order-based, so on degraded networks the VC level can clamp and
//! deadlock freedom is best-effort; packet conservation holds either
//! way.
//!
//! Packet-level accounting ([`SimStats`],
//! [`SimObserver::on_hop`], hop counts) follows the **head** flit, so a
//! degenerate configuration (one flit per packet, one VC, effectively
//! unbounded buffers) reproduces the store-and-forward run exactly.
//! Flit-level movement is observable through
//! [`SimObserver::on_flit_hop`].
//!
//! Like the store-and-forward core, the cycle body lives in stage
//! methods driven by [`run_lane`](super::stepper::run_lane): a one-lane
//! run is the [`Solo`] monomorphization, and more lanes run the
//! identical stages under the pooled protocol.
//!
//! ## Sharding model: replicated arbitration
//!
//! Wormhole advancement is a global arbitration: whether a flit may
//! move depends on claims, credits and (for adaptive routers) link
//! loads that earlier moves of the *same* cycle just changed, anywhere
//! in the network. Instead of exchanging that state, every lane keeps a
//! full **mirror** of it (`link_load`, one packed record of occupancy,
//! reservations and claim per buffer, the packet slab and worm chains,
//! the pending/stream FIFOs and the injection cursor) and updates the
//! mirror identically:
//!
//! - the **begin** stage (streaming, head retries, injection) runs the
//!   same deterministic decisions on every lane, touching real flit
//!   queues, per-node occupancy, statistics and the observer only on
//!   the lane that owns the node;
//! - the **propose** stage snapshots the front flit of every non-empty
//!   (edge × VC) buffer of the lane's own active nodes — the only state
//!   a lane alone knows — in ascending node/edge/VC order, visiting only
//!   the out-edges that hold flits: each owned node keeps a one-word
//!   slot mask of its loaded edges (set by the owner-side pushes,
//!   cleared when a pop empties the edge), walked lowest bit first, with
//!   the plain edge scan as the fallback on networks of degree above 64;
//! - the **commit** stage replays the serial forward scan over the
//!   concatenated snapshots (lane order == node order, so the replay
//!   order *is* the serial scan order) on **every** lane, deciding each
//!   move against the mirror exactly as the serial scan decides it
//!   against live state, which keeps the mirrors in lockstep — adaptive
//!   routers included, because the mirror loads evolve move by move in
//!   serial order;
//! - the **end** stage applies the deferred arrival list (identical on
//!   every lane) at the `cycle + 1` boundary, again gating real effects
//!   on ownership.
//!
//! Front-flit snapshots equal what the serial scan would read because a
//! scan pops only from the buffer it is currently serving (each edge is
//! served once per cycle) and every push is deferred to the arrival
//! boundary. The result is **bit-identical** [`SimStats`] and observer
//! output at any thread count. The mirrors cost O(E · vcs) per lane —
//! the trade the replicated-arbitration design makes for running the
//! serial decision procedure unchanged.

use std::collections::VecDeque;

use fibcube_graph::csr::CsrGraph;

use crate::arena::{FlitQueues, PacketSlab, RING_STRIDE};
use crate::experiment::ExperimentError;
use crate::observer::SimObserver;
use crate::router::TABLE_BYTE_BUDGET;
use crate::switching::SwitchingSpec;
use crate::topology::Topology;
use crate::traffic::Packet;

use super::core::route_edge;
use super::parallel::{fork_lanes, merge_lanes, run_pool};
use super::policy::FaultPolicy;
use super::stats::{SimStats, StatsAcc};
use super::stepper::{lane_bounds, run_lane, LaneWorkload, Solo};

/// Head-flit flag in a packed flit record (bit 56).
const FLIT_HEAD: u64 = 1 << 56;
/// Tail-flit flag in a packed flit record (bit 57). Single-flit packets
/// carry both flags.
const FLIT_TAIL: u64 = 1 << 57;
/// Arrival-list sentinel: the flit leaves the network at its destination
/// instead of entering a buffer. Buffer ids stay below it (see
/// [`check_buffer_space`]).
const EJECT: u32 = u32::MAX;
/// Replay-cursor sentinel: no edge arbitrated yet this cycle.
const NO_EDGE: u32 = u32::MAX;

/// Packs one flit: packet id in the low 32 bits, the index of the buffer
/// it occupies within its packet's reserved chain in bits 32..56, flags
/// above. Everything the forward phase needs travels in the queue word.
#[inline]
fn flit(id: u32, idx: usize, head: bool, tail: bool) -> u64 {
    debug_assert!(idx < (1 << 24), "path longer than 16M hops");
    let mut f = id as u64 | ((idx as u64) << 32);
    if head {
        f |= FLIT_HEAD;
    }
    if tail {
        f |= FLIT_TAIL;
    }
    f
}

/// The chain index of a packed flit.
#[inline]
fn flit_idx(f: u64) -> usize {
    ((f >> 32) & 0xFF_FFFF) as usize
}

/// One forward-scan candidate: the front flit of one (edge × VC) buffer
/// of an active node, snapshotted at propose time. The commit replay
/// consumes these in ascending (node, edge, VC) order — the serial scan
/// order — granting at most one move per directed edge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WormProbe {
    /// The scanning node (the edge's source); grants gate real effects
    /// on its owner lane.
    node: u32,
    /// Global directed edge id.
    edge: u32,
    /// Virtual channel of the snapshotted buffer.
    vc: u32,
    /// The buffer's front flit record.
    flit: u64,
}

/// The replicated credit state of one (edge × VC) buffer, packed so a
/// credit or claim check reads one record. The all-zero record is the
/// idle, unclaimed buffer, so the mirror column allocates zeroed.
#[derive(Clone, Copy, Default)]
struct Buf {
    /// Flits in the buffer.
    occ: u32,
    /// Flits granted into the buffer this cycle, landing at the arrival
    /// boundary.
    reserved: u32,
    /// `id + 1` of the multi-flit packet whose worm holds the buffer; 0
    /// when unclaimed.
    claim: u32,
}

impl Buf {
    /// No credit left: occupancy plus same-cycle reservations fill the
    /// `cap`-flit buffer.
    #[inline]
    fn full(&self, cap: u64) -> bool {
        self.occ as u64 + self.reserved as u64 >= cap
    }

    /// Claimed by a packet other than `id`.
    #[inline]
    fn held_against(&self, id: u32) -> bool {
        self.claim != 0 && self.claim != id + 1
    }

    /// Drops `id`'s claim, if it holds one — its tail has passed.
    #[inline]
    fn release(&mut self, id: u32) {
        if self.claim == id + 1 {
            self.claim = 0;
        }
    }
}

/// Bytes one lane spends per (edge × VC) buffer: the mirror record plus
/// the flit queue's ring window, front cursor and length.
const BUF_BYTES: usize = size_of::<Buf>() + RING_STRIDE * size_of::<u64>() + 2 * size_of::<u32>();

/// Refuses a wormhole spec whose (edge × VC) buffers on `topology`
/// overflow the `u32` buffer ids or would need more than
/// [`TABLE_BYTE_BUDGET`] bytes of buffer state per lane — before
/// anything is allocated. Store-and-forward specs pass without touching
/// the graph (an implicit topology builds it on first use).
pub(crate) fn check_buffer_space<T: Topology + ?Sized>(
    topology: &T,
    spec: &SwitchingSpec,
) -> Result<(), ExperimentError> {
    let SwitchingSpec::Wormhole { vcs, .. } = *spec else {
        return Ok(());
    };
    let links = topology.graph().num_directed_edges();
    let buffers = links as u128 * vcs as u128;
    let reason = if buffers >= EJECT as u128 {
        format!("{links} links × {vcs} VCs = {buffers} buffers overflow the u32 buffer ids")
    } else if buffers * BUF_BYTES as u128 > TABLE_BYTE_BUDGET as u128 {
        format!(
            "{links} links × {vcs} VCs need {} bytes of buffer state per lane, over the \
             {TABLE_BYTE_BUDGET}-byte budget",
            buffers * BUF_BYTES as u128
        )
    } else {
        return Ok(());
    };
    Err(ExperimentError::InvalidSwitching {
        spec: spec.to_string(),
        reason,
    })
}

/// Per-packet wormhole state in parallel columns indexed by slab id
/// (recycled with the slab's freelist, reset on allocation): the source,
/// the chain of buffer indices the head has reserved, the VC level and
/// last channel class driving VC selection, and the source-side streaming
/// progress.
#[derive(Default)]
struct WormState {
    src: Vec<u32>,
    /// Buffer indices (`edge * vcs + vc`) the head has claimed, in hop
    /// order — body flits follow this chain by their flit index.
    path: Vec<Vec<u32>>,
    level: Vec<u32>,
    last_class: Vec<u32>,
    flits_total: Vec<u32>,
    flits_sent: Vec<u32>,
    head_ejected: Vec<bool>,
}

impl WormState {
    fn reset(&mut self, id: u32, src: u32, flits: u32) {
        let i = id as usize;
        if self.src.len() <= i {
            let n = i + 1;
            self.src.resize(n, 0);
            self.path.resize_with(n, Vec::new);
            self.level.resize(n, 0);
            self.last_class.resize(n, 0);
            self.flits_total.resize(n, 0);
            self.flits_sent.resize(n, 0);
            self.head_ejected.resize(n, false);
        }
        self.src[i] = src;
        self.path[i].clear();
        self.level[i] = 0;
        self.last_class[i] = 0;
        self.flits_total[i] = flits;
        self.flits_sent[i] = 0;
        self.head_ejected[i] = false;
    }
}

/// [`Topology::channel_class`] tabulated per directed edge, so lanes
/// consult a shared plain slice instead of the topology object.
fn edge_classes<T: Topology + ?Sized>(topology: &T) -> Vec<u32> {
    let g = topology.graph();
    let mut classes = vec![0u32; g.num_directed_edges()];
    for u in 0..topology.len() as u32 {
        for e in g.edge_range(u) {
            classes[e] = topology.channel_class(u, g.target(e));
        }
    }
    classes
}

/// One lane of the wormhole workload — see the [module docs](self) for
/// the replicated-arbitration sharding model. A [`Solo`] run over
/// `[0, n)` *is* the serial engine.
struct WormLane<'a, F: FaultPolicy, O: SimObserver> {
    // Static, shared across lanes.
    g: &'a CsrGraph,
    edge_class: &'a [u32],
    fault: &'a F,
    vcs: usize,
    buf_flits: u64,
    fpp: u32,
    max_level: u32,
    // Ownership: nodes `[lo, hi)`, whose out-edge buffers start at
    // global buffer index `buf_lo`.
    lo: u32,
    hi: u32,
    buf_lo: usize,
    /// Lane 0 alone reports `in_flight` through `queued()`, so the
    /// exchanged global sum equals the serial count.
    lead: bool,
    // Real, lane-owned state.
    queues: FlitQueues,
    occupancy: Vec<u32>,
    /// Per-node bitmask of out-edges holding flits (`link_load[e] > 0`),
    /// so `propose` visits exactly the loaded edges by a
    /// `trailing_zeros` word walk. Empty — `propose` falls back to the
    /// plain edge scan — when some degree exceeds 64.
    slot_mask: Vec<u64>,
    on_list: Vec<bool>,
    active: Vec<u32>,
    scanned: Vec<u32>,
    lat_scratch: Vec<u64>,
    acc: StatsAcc,
    observer: O,
    // Replicated mirrors — identical on every lane at every stage edge.
    link_load: Vec<u32>,
    bufs: Vec<Buf>,
    slab: PacketSlab,
    worm: WormState,
    arrivals: Vec<(u64, u32, u32)>,
    pending: VecDeque<u32>,
    streams: Vec<u32>,
    inj: Vec<&'a Packet>,
    next_inject: usize,
    in_flight: usize,
    progressed: bool,
    // Replay cursor: the edge currently arbitrated and whether it
    // already granted its one move this cycle.
    replay_edge: u32,
    replay_done: bool,
}

impl<'a, F: FaultPolicy, O: SimObserver> WormLane<'a, F, O> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        g: &'a CsrGraph,
        edge_class: &'a [u32],
        fault: &'a F,
        observer: O,
        fpp: u32,
        vcs: usize,
        buf_flits: u64,
        packets: &'a [Packet],
        n: usize,
        lo: u32,
        hi: u32,
    ) -> WormLane<'a, F, O> {
        let edge_lo = if hi > lo { g.edge_range(lo).start } else { 0 };
        let edge_hi = if hi > lo { g.edge_range(hi - 1).end } else { 0 };
        let links = g.num_directed_edges();
        let local = (hi - lo) as usize;
        let masked_scan = g.max_degree() <= 64;
        let mut inj: Vec<&Packet> = packets.iter().collect();
        inj.sort_by_key(|p| p.inject_time);
        WormLane {
            g,
            edge_class,
            fault,
            vcs,
            buf_flits,
            fpp,
            max_level: vcs as u32 - 1,
            lo,
            hi,
            buf_lo: edge_lo * vcs,
            lead: lo == 0,
            queues: FlitQueues::new(edge_hi - edge_lo, vcs),
            occupancy: vec![0; local],
            slot_mask: vec![0; if masked_scan { local } else { 0 }],
            on_list: vec![false; local],
            active: Vec::new(),
            scanned: Vec::new(),
            lat_scratch: Vec::new(),
            acc: StatsAcc::for_network(n),
            observer,
            link_load: vec![0; links],
            bufs: vec![Buf::default(); links * vcs],
            slab: PacketSlab::new(),
            worm: WormState::default(),
            arrivals: Vec::new(),
            pending: VecDeque::new(),
            streams: Vec::new(),
            inj,
            next_inject: 0,
            in_flight: 0,
            progressed: false,
            replay_edge: NO_EDGE,
            replay_done: false,
        }
    }

    #[inline]
    fn owns(&self, node: u32) -> bool {
        self.lo <= node && node < self.hi
    }

    /// Tries to place packet `id`'s head flit into VC 0 of its first
    /// output link: routes the first hop against the mirror loads,
    /// checks the buffer's claim and credit (multi-flit packets need
    /// exclusive worm occupancy), and on success starts the packet's
    /// chain. Every decision reads replicated state, so all lanes
    /// agree; the real queue push, occupancy, worklist and observer
    /// event happen on the source's owner only. A `false` return leaves
    /// the packet unplaced (its state untouched) for retry next cycle.
    fn try_place_head(&mut self, cycle: u64, id: u32) -> bool {
        let i = id as usize;
        let src = self.worm.src[i];
        let dst = self.slab.dst(id);
        let e0 = route_edge(self.g, self.fault.routing(), &self.link_load, 0, src, dst);
        let b0 = e0 * self.vcs;
        let multi = self.worm.flits_total[i] > 1;
        let buf = self.bufs[b0];
        if (multi && buf.claim != 0) || buf.full(self.buf_flits) {
            return false;
        }
        self.worm.level[i] = 0;
        self.worm.last_class[i] = self.edge_class[e0];
        self.worm.path[i].push(b0 as u32);
        self.worm.flits_sent[i] = 1;
        if multi {
            self.bufs[b0].claim = id + 1;
            self.streams.push(id);
        }
        self.push_flit(cycle, src, e0, 0, flit(id, 0, true, !multi));
        true
    }

    /// Moves flit `f` into VC `vc` of edge `e` out of `node`: mirror
    /// credits on every lane; the real queue push, node occupancy, slot
    /// mask, observer event and worklist entry on `node`'s owner.
    fn push_flit(&mut self, cycle: u64, node: u32, e: usize, vc: usize, f: u64) {
        let b = e * self.vcs + vc;
        self.bufs[b].occ += 1;
        self.link_load[e] += 1;
        if self.owns(node) {
            self.queues.push(b - self.buf_lo, f);
            let s = (node - self.lo) as usize;
            self.occupancy[s] += 1;
            if let Some(mask) = self.slot_mask.get_mut(s) {
                *mask |= 1 << (e - self.g.edge_range(node).start);
            }
            self.observer
                .on_flit_hop(cycle, e, vc as u32, self.bufs[b].occ);
            if !self.on_list[s] {
                self.on_list[s] = true;
                self.active.push(node);
            }
        }
    }

    /// Snapshots the front flit of each non-empty VC buffer of loaded
    /// edge `e` out of owned node `u`, lowest VC first.
    fn probe_edge(&self, u: u32, e: usize, out: &mut Vec<WormProbe>) {
        for vc in 0..self.vcs {
            let b = e * self.vcs + vc;
            if let Some(f) = self.queues.front(b - self.buf_lo) {
                out.push(WormProbe {
                    node: u,
                    edge: e as u32,
                    vc: vc as u32,
                    flit: f,
                });
            }
        }
    }

    /// Removes a granted flit from its buffer: mirror decrements on
    /// every lane; the real pop (which must yield exactly the
    /// snapshotted flit), node occupancy and the slot mask (cleared with
    /// the edge's last flit), plus — for head moves (`hop`) — the hop
    /// statistics and observer event, on the scanning node's owner.
    fn pop_flit(&mut self, cycle: u64, u: u32, e: usize, vc: u32, f: u64, hop: bool) {
        let b = e * self.vcs + vc as usize;
        self.bufs[b].occ -= 1;
        self.link_load[e] -= 1;
        if hop {
            self.slab.record_hop(f as u32);
        }
        if self.owns(u) {
            let popped = self.queues.pop(b - self.buf_lo);
            debug_assert_eq!(popped, Some(f), "replayed flit must front its buffer");
            let s = (u - self.lo) as usize;
            self.occupancy[s] -= 1;
            if self.link_load[e] == 0 {
                if let Some(mask) = self.slot_mask.get_mut(s) {
                    *mask &= !(1 << (e - self.g.edge_range(u).start));
                }
            }
            if hop {
                self.observer.on_hop(cycle, u, self.g.target(e), e);
                self.acc.total_hops += 1;
            }
        }
    }
}

impl<F: FaultPolicy, O: SimObserver> LaneWorkload for WormLane<'_, F, O> {
    type Msg = WormProbe;

    fn queued(&self) -> u64 {
        // `in_flight` is replicated; only the lead lane reports it so
        // the exchanged sum equals the serial count.
        if self.lead {
            self.in_flight as u64
        } else {
            0
        }
    }

    fn next_pending(&mut self) -> Option<u64> {
        self.inj.get(self.next_inject).map(|p| p.inject_time)
    }

    /// Streaming continuation, head retries, then injection — all three
    /// run the identical decision sequence on every lane against the
    /// mirrors (keeping claims, credits, slab ids and the FIFOs in
    /// lockstep); flit pushes, statistics and observer events fire on
    /// the owning lane only.
    fn begin(&mut self, cycle: u64) {
        self.progressed = false;
        self.replay_edge = NO_EDGE;
        self.replay_done = false;

        // Streaming continuation: each multi-flit packet feeds at most
        // one body flit per cycle into its claimed first buffer. The
        // claim is released once the tail has entered the network.
        let mut streams = std::mem::take(&mut self.streams);
        streams.retain(|&id| {
            let i = id as usize;
            let b0 = self.worm.path[i][0] as usize;
            if self.bufs[b0].full(self.buf_flits) {
                return true;
            }
            let sent = self.worm.flits_sent[i];
            let is_tail = sent + 1 == self.worm.flits_total[i];
            let src = self.worm.src[i];
            let f = flit(id, 0, false, is_tail);
            self.push_flit(cycle, src, b0 / self.vcs, b0 % self.vcs, f);
            self.worm.flits_sent[i] = sent + 1;
            self.progressed = true;
            if is_tail {
                self.bufs[b0].release(id);
                false
            } else {
                true
            }
        });
        self.streams = streams;

        // Retry heads that failed to claim their first buffer, oldest
        // first; failures keep their order without blocking later ones.
        for _ in 0..self.pending.len() {
            let id = self.pending.pop_front().expect("iteration is len-bounded");
            if self.try_place_head(cycle, id) {
                self.progressed = true;
            } else {
                self.pending.push_back(id);
            }
        }

        // Inject everything due this cycle (same admission and
        // self-addressed handling as the store-and-forward engine).
        while self.next_inject < self.inj.len() && self.inj[self.next_inject].inject_time <= cycle {
            let p = self.inj[self.next_inject];
            self.next_inject += 1;
            let (src, dst) = (p.src, p.dst);
            let own = self.owns(src);
            if own {
                self.observer.on_inject(cycle, src, dst);
            }
            if let Some(reason) = self.fault.verdict(src, dst) {
                if own {
                    self.acc.drop_packet(reason);
                    self.observer.on_drop(cycle, src, dst, reason);
                }
                continue;
            }
            if src == dst {
                if own {
                    self.acc.deliver_instant();
                    self.observer.on_deliver(cycle, dst, 0);
                }
                continue;
            }
            let id = self.slab.alloc(dst, p.inject_time);
            self.worm.reset(id, src, self.fpp);
            self.in_flight += 1;
            if self.try_place_head(cycle, id) {
                self.progressed = true;
            } else {
                self.pending.push_back(id);
            }
        }
    }

    /// Snapshots the front flit of every non-empty (edge × VC) buffer
    /// of this lane's active nodes, in ascending node/edge/VC order.
    /// On networks of degree ≤ 64 the loaded out-edges come from the
    /// node's slot mask, lowest bit first — the order the plain edge
    /// scan (the fallback above degree 64) visits them in. Pure reads —
    /// every mutation waits for the commit replay — so the snapshots
    /// equal what the serial scan would read live (a scan pops only
    /// from the buffer it is currently serving, and pushes are deferred
    /// to the arrival boundary).
    fn propose(&mut self, _cycle: u64, out: &mut Vec<WormProbe>) {
        self.active.sort_unstable();
        std::mem::swap(&mut self.active, &mut self.scanned);
        let masked = !self.slot_mask.is_empty();
        for k in 0..self.scanned.len() {
            let u = self.scanned[k];
            let s = (u - self.lo) as usize;
            self.on_list[s] = false;
            let edges = self.g.edge_range(u);
            if masked {
                let mut rest = self.slot_mask[s];
                while rest != 0 {
                    let e = edges.start + rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    debug_assert!(self.link_load[e] != 0, "mask bit implies a loaded edge");
                    self.probe_edge(u, e, out);
                }
            } else {
                for e in edges.filter(|&e| self.link_load[e] != 0) {
                    self.probe_edge(u, e, out);
                }
            }
        }
    }

    /// Replays the serial forward scan, one candidate at a time, on
    /// **every** lane: per directed edge the first candidate (lowest
    /// VC) that can advance — claim and credit checks against the
    /// mirror, which evolves move by move in serial order — wins the
    /// edge's one move per cycle; later VCs of a granted edge are
    /// skipped. Mirror updates run everywhere; the real pop and hop
    /// accounting fire on the scanning node's owner only.
    fn commit(&mut self, now: u64, m: &WormProbe) {
        if m.edge != self.replay_edge {
            self.replay_edge = m.edge;
            self.replay_done = false;
        }
        if self.replay_done {
            return;
        }
        let cycle = now - 1;
        let e = m.edge as usize;
        let f = m.flit;
        let id = f as u32;
        let i = id as usize;
        if f & FLIT_HEAD != 0 {
            let v = self.g.target(e);
            let dst = self.slab.dst(id);
            if v == dst {
                self.pop_flit(cycle, m.node, e, m.vc, f, true);
                self.arrivals.push((f, EJECT, v));
            } else {
                let e2 = route_edge(self.g, self.fault.routing(), &self.link_load, 0, v, dst);
                let c2 = self.edge_class[e2];
                let mut lvl = self.worm.level[i];
                if c2 <= self.worm.last_class[i] {
                    // Class order broken (a ring dateline or a fault
                    // detour): escape one VC level up.
                    lvl = (lvl + 1).min(self.max_level);
                }
                let b2 = e2 * self.vcs + lvl as usize;
                let multi = self.worm.flits_total[i] > 1;
                let buf = &mut self.bufs[b2];
                if (multi && buf.held_against(id)) || buf.full(self.buf_flits) {
                    return;
                }
                if multi {
                    buf.claim = id + 1;
                }
                buf.reserved += 1;
                self.pop_flit(cycle, m.node, e, m.vc, f, true);
                self.worm.level[i] = lvl;
                self.worm.last_class[i] = c2;
                self.worm.path[i].push(b2 as u32);
                self.arrivals.push((
                    flit(id, flit_idx(f) + 1, true, f & FLIT_TAIL != 0),
                    b2 as u32,
                    v,
                ));
            }
        } else {
            // Body/tail flit: follow the head's reserved chain.
            let idx = flit_idx(f);
            if idx + 1 < self.worm.path[i].len() {
                let b2 = self.worm.path[i][idx + 1] as usize;
                if self.bufs[b2].full(self.buf_flits) {
                    return;
                }
                self.bufs[b2].reserved += 1;
                self.pop_flit(cycle, m.node, e, m.vc, f, false);
                self.arrivals.push((
                    flit(id, idx + 1, false, f & FLIT_TAIL != 0),
                    b2 as u32,
                    self.g.target(e),
                ));
            } else if self.worm.head_ejected[i] {
                // End of the chain with the head gone: this flit
                // crosses the final link into the destination.
                self.pop_flit(cycle, m.node, e, m.vc, f, false);
                self.arrivals.push((f, EJECT, self.g.target(e)));
            } else {
                // Head still parked one buffer ahead: wait.
                return;
            }
        }
        self.replay_done = true;
        self.progressed = true;
    }

    /// Re-activates scanned nodes that still hold flits (before
    /// arrivals, matching the serial order), then applies the
    /// replicated arrival list at the `cycle + 1` boundary: flits enter
    /// their reserved buffers or leave the network at the destination.
    /// Mirror credits, claims and the in-flight count update on every
    /// lane; queue pushes, worklists, observer events and the batched
    /// latency accounting ([`StatsAcc::deliver_batch`]) fire on the
    /// owning lane only.
    fn end_cycle(&mut self, now: u64) {
        let mut k = 0;
        while k < self.scanned.len() {
            let u = self.scanned[k];
            k += 1;
            let s = (u - self.lo) as usize;
            if self.occupancy[s] > 0 {
                self.on_list[s] = true;
                self.active.push(u);
            }
        }
        self.scanned.clear();

        let mut arrivals = std::mem::take(&mut self.arrivals);
        for &(f, buf, node) in &arrivals {
            let id = f as u32;
            if buf == EJECT {
                if f & FLIT_TAIL != 0 {
                    self.in_flight -= 1;
                    let inject_time = self.slab.inject(id);
                    if self.owns(node) {
                        self.lat_scratch.push(now - inject_time);
                        self.observer.on_deliver(now, node, now - inject_time);
                    }
                    self.slab.release(id);
                } else if f & FLIT_HEAD != 0 {
                    self.worm.head_ejected[id as usize] = true;
                }
                // Body flits between head and tail vanish at dst.
            } else {
                let b = buf as usize;
                self.bufs[b].reserved -= 1;
                if f & FLIT_TAIL != 0 {
                    self.bufs[b].release(id);
                }
                self.push_flit(now, node, b / self.vcs, b % self.vcs, f);
            }
        }
        arrivals.clear();
        self.arrivals = arrivals;
        self.acc.deliver_batch(now, &self.lat_scratch);
        self.lat_scratch.clear();
    }

    fn observe(&mut self, cycle: u64, in_flight: u64) {
        self.observer.on_cycle_end(cycle, in_flight as usize);
    }

    /// Replicates the serial deadlock handling: when nothing moved with
    /// flits still in flight, jump to the next injection (new packets
    /// may place on other links) or stop on a genuine deadlock — only
    /// reachable off the order-based configurations; the stranded
    /// packets surface as `offered − delivered − dropped`. All inputs
    /// (`progressed`, `in_flight`, the injection cursor) are
    /// replicated, so every lane decides identically.
    fn advance(&mut self, cycle: u64, max_cycles: u64) -> Option<u64> {
        if !self.progressed && self.in_flight > 0 {
            return match self.inj.get(self.next_inject) {
                Some(p) if p.inject_time >= max_cycles => None,
                Some(p) => Some(p.inject_time.max(cycle + 1)),
                None => None,
            };
        }
        Some(cycle + 1)
    }
}

/// Runs the flit-level wormhole workload of a
/// [`SwitchingSpec::Wormhole`] spec on `lanes` lanes (already clamped to
/// `[1, n]`). One lane covers every node under the [`Solo`] protocol, on
/// the caller's thread with the caller's observer; more lanes run the
/// replicated-arbitration protocol (see the [module docs](self)) on
/// observer forks, merged back in ascending lane order — bit-identical
/// [`SimStats`] and observer output at any lane count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_wormhole<T, F, O>(
    topology: &T,
    spec: &SwitchingSpec,
    packets: &[Packet],
    fault: &F,
    max_cycles: u64,
    lanes: usize,
    observer: &mut O,
) -> Result<SimStats, ExperimentError>
where
    T: Topology + ?Sized,
    F: FaultPolicy + Sync,
    O: SimObserver + Send,
{
    let SwitchingSpec::Wormhole { vcs, buf_flits, .. } = *spec else {
        unreachable!("store-and-forward specs run the packet core")
    };
    // `RunPlan::check` validated the spec: every figure is at least 1.
    let (fpp, vcs, buf_flits) = (spec.flits_per_packet(), vcs as usize, buf_flits as u64);
    let n = topology.len();
    let g = topology.graph();
    let classes = edge_classes(topology);
    if lanes <= 1 {
        let mut lane = WormLane::new(
            g, &classes, fault, observer, fpp, vcs, buf_flits, packets, n, 0, n as u32,
        );
        run_lane(&mut lane, &Solo::default(), 0, max_cycles);
        return Ok(lane.acc.finish(packets.len()));
    }
    let forks = fork_lanes(observer, lanes)?;
    let pool: Vec<WormLane<'_, F, O>> = lane_bounds(n, lanes)
        .into_iter()
        .zip(forks)
        .map(|((lo, hi), fork)| {
            WormLane::new(
                g, &classes, fault, fork, fpp, vcs, buf_flits, packets, n, lo, hi,
            )
        })
        .collect();
    let finished = run_pool(pool, max_cycles)
        .into_iter()
        .map(|lane| (lane.observer, lane.acc));
    Ok(merge_lanes(observer, finished).finish(packets.len()))
}
