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
//! methods driven by [`run_lane`](super::stepper::run_lane) on the lane
//! chassis ([`Shard`]), but a wormhole run is always **one lane** over
//! every node, under the no-sync `Solo` protocol on the caller's thread
//! and observer, whatever lane count the caller asks for. Whether a
//! flit may move depends on claims, credits and (for adaptive routers)
//! link loads that earlier moves of the *same* cycle just changed,
//! anywhere in the network, so the forward scan is one global
//! arbitration: shards would have to replay all of it to agree, which
//! costs more than one lane doing it once. The result is trivially
//! identical at every lane request.
//!
//! The forward scan decides each move in place: it walks the loaded
//! edges in ascending (node, edge) order — the chassis' edge bitset,
//! lowest bit first, at any degree — and per edge grants the first
//! front flit, lowest VC first, whose claim and credit checks pass.
//! Only the served edge pops during the scan and every push waits for
//! the arrival boundary, so each front flit read is the one the cycle
//! started with.

use std::collections::VecDeque;
use std::convert::Infallible;

use crate::arena::{LinkQueues, PacketSlab};
use crate::experiment::ExperimentError;
use crate::observer::SimObserver;
use crate::router::{Router, TABLE_BYTE_BUDGET};
use crate::switching::SwitchingSpec;
use crate::topology::Topology;
use crate::traffic::Packet;

use super::policy::FaultState;
use super::stats::SimStats;
use super::stepper::{run_lane, LaneWorkload, Scan, Shard, Solo};
use super::RunPlan;

/// Head-flit flag in a packed flit record (bit 56).
const FLIT_HEAD: u64 = 1 << 56;
/// Tail-flit flag in a packed flit record (bit 57). Single-flit packets
/// carry both flags.
const FLIT_TAIL: u64 = 1 << 57;
/// Arrival-list sentinel: the flit leaves the network at its destination
/// instead of entering a buffer. Buffer ids stay below it (see
/// [`check_buffer_space`]).
const EJECT: u32 = u32::MAX;

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

/// The credit state of one (edge × VC) buffer beyond its queued flits.
/// The all-zero record is the idle, unclaimed buffer, so the column
/// allocates zeroed.
#[derive(Clone, Copy, Default)]
struct Buf {
    /// Flits granted into the buffer this cycle, landing at the arrival
    /// boundary.
    reserved: u32,
    /// `id + 1` of the multi-flit packet whose worm holds the buffer; 0
    /// when unclaimed.
    claim: u32,
}

impl Buf {
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

/// Bytes a run spends per (edge × VC) buffer: the credit record plus
/// the flit queue's record.
const BUF_BYTES: usize = size_of::<Buf>() + LinkQueues::<u64>::QUEUE_BYTES;

/// Refuses a wormhole spec whose (edge × VC) buffers on `topology`
/// overflow the `u32` buffer ids or would need more than
/// [`TABLE_BYTE_BUDGET`] bytes of buffer state — before anything is
/// allocated. Store-and-forward specs pass without touching the graph
/// (an implicit topology builds it on first use).
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
            "{links} links × {vcs} VCs need {} bytes of buffer state, over the \
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
    flits_sent: Vec<u32>,
    head_ejected: Vec<bool>,
}

impl WormState {
    fn reset(&mut self, id: u32, src: u32) {
        let i = id as usize;
        if self.src.len() <= i {
            let n = i + 1;
            self.src.resize(n, 0);
            self.path.resize_with(n, Vec::new);
            self.level.resize(n, 0);
            self.last_class.resize(n, 0);
            self.flits_sent.resize(n, 0);
            self.head_ejected.resize(n, false);
        }
        self.src[i] = src;
        self.path[i].clear();
        self.level[i] = 0;
        self.last_class[i] = 0;
        self.flits_sent[i] = 0;
        self.head_ejected[i] = false;
    }
}

/// [`Topology::channel_class`] tabulated per directed edge, so the scan
/// consults a plain slice instead of the topology object.
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

/// The one lane of a wormhole run, over every node — see the
/// [module docs](self).
struct WormLane<'a, O, R: Router + ?Sized> {
    edge_class: &'a [u32],
    fault: FaultState<'a, R>,
    vcs: usize,
    buf_flits: u64,
    fpp: u32,
    /// The chassis; its observer is the caller's.
    shard: Shard<'a, O>,
    /// One flit FIFO per (edge × VC) buffer, indexed `edge * vcs + vc`.
    queues: LinkQueues<u64>,
    /// Flits queued per directed edge, over all its VCs: the per-node
    /// load view adaptive routers read.
    link_load: Vec<u32>,
    bufs: Vec<Buf>,
    slab: PacketSlab,
    worm: WormState,
    arrivals: Vec<(u64, u32, u32)>,
    pending: VecDeque<u32>,
    streams: Vec<u32>,
    inj: &'a [&'a Packet],
    next_inject: usize,
    in_flight: usize,
    progressed: bool,
}

impl<O: SimObserver, R: Router + ?Sized> WormLane<'_, O, R> {
    /// No credit left in buffer `b`: queued flits plus same-cycle
    /// reservations fill its `buf_flits`.
    #[inline]
    fn full(&self, b: usize) -> bool {
        (self.queues.load(b) + self.bufs[b].reserved as usize) as u64 >= self.buf_flits
    }

    /// Tries to place packet `id`'s head flit into VC 0 of its first
    /// output link: routes the first hop against the live loads, checks
    /// the buffer's claim and credit (multi-flit packets need exclusive
    /// worm occupancy), and on success starts the packet's chain. A
    /// `false` return leaves the packet unplaced (its state untouched)
    /// for retry next cycle.
    fn try_place_head(&mut self, cycle: u64, id: u32) -> bool {
        let i = id as usize;
        let src = self.worm.src[i];
        let dst = self.slab.dst(id);
        let e0 = self
            .fault
            .route_edge(self.shard.g, &self.link_load[..], 0, src, dst);
        let b0 = e0 * self.vcs;
        let multi = self.fpp > 1;
        if (multi && self.bufs[b0].claim != 0) || self.full(b0) {
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
        self.push_flit(cycle, b0, flit(id, 0, true, !multi));
        true
    }

    /// Moves flit `f` into buffer `b`, reporting the buffer's new
    /// occupancy to the observer.
    fn push_flit(&mut self, cycle: u64, b: usize, f: u64) {
        let e = b / self.vcs;
        self.queues.push(b, f);
        self.link_load[e] += 1;
        self.shard.push(e);
        let occ = self.queues.load(b) as u32;
        self.shard
            .observer
            .on_flit_hop(cycle, e, (b % self.vcs) as u32, occ);
    }

    /// Removes the front flit of buffer `b` on edge `e` out of `u` (the
    /// edge's bit clears with its last flit), plus — for head moves
    /// (`hop`) — the hop statistics and observer event.
    fn pop_flit(&mut self, cycle: u64, u: u32, e: usize, b: usize, hop: bool) {
        let f = self
            .queues
            .pop(b)
            .expect("a granted flit fronts its buffer");
        self.link_load[e] -= 1;
        self.shard.pop(e, self.link_load[e] == 0);
        if hop {
            self.slab.record_hop(f as u32);
            let v = self.shard.g.target(e);
            self.shard.observer.on_hop(cycle, u, v, e);
            self.shard.acc.total_hops += 1;
        }
    }

    /// Decides front flit `f` of buffer `b` on edge `e` out of `u`: a
    /// head routes its next hop (bumping the VC level where the channel
    /// class does not increase) and claims the next buffer, a body or
    /// tail flit follows its head's chain; either needs credit there.
    /// A granted move pops the flit and lists its arrival for the
    /// `cycle + 1` boundary. Returns whether the flit moved.
    fn try_move(&mut self, cycle: u64, u: u32, e: usize, b: usize, f: u64) -> bool {
        let id = f as u32;
        let i = id as usize;
        let v = self.shard.g.target(e);
        let (next, hop) = if f & FLIT_HEAD != 0 {
            let dst = self.slab.dst(id);
            if v == dst {
                (EJECT, true)
            } else {
                let e2 = self
                    .fault
                    .route_edge(self.shard.g, &self.link_load[..], 0, v, dst);
                let c2 = self.edge_class[e2];
                let mut lvl = self.worm.level[i];
                if c2 <= self.worm.last_class[i] {
                    // Class order broken (a ring dateline or a fault
                    // detour): escape one VC level up.
                    lvl = (lvl + 1).min(self.vcs as u32 - 1);
                }
                let b2 = e2 * self.vcs + lvl as usize;
                let multi = self.fpp > 1;
                if (multi && self.bufs[b2].held_against(id)) || self.full(b2) {
                    return false;
                }
                if multi {
                    self.bufs[b2].claim = id + 1;
                }
                self.worm.level[i] = lvl;
                self.worm.last_class[i] = c2;
                self.worm.path[i].push(b2 as u32);
                (b2 as u32, true)
            }
        } else if let Some(&b2) = self.worm.path[i].get(flit_idx(f) + 1) {
            // Body/tail flit: follow the head's reserved chain.
            if self.full(b2 as usize) {
                return false;
            }
            (b2, false)
        } else if self.worm.head_ejected[i] {
            // End of the chain with the head gone: this flit crosses
            // the final link into the destination.
            (EJECT, false)
        } else {
            // Head still parked one buffer ahead: wait.
            return false;
        };
        self.pop_flit(cycle, u, e, b, hop);
        if next == EJECT {
            self.arrivals.push((f, EJECT, v));
        } else {
            self.bufs[next as usize].reserved += 1;
            let (head, tail) = (f & FLIT_HEAD != 0, f & FLIT_TAIL != 0);
            let moved = flit(id, flit_idx(f) + 1, head, tail);
            self.arrivals.push((moved, next, v));
        }
        true
    }
}

impl<O: SimObserver, R: Router + ?Sized> LaneWorkload for WormLane<'_, O, R> {
    /// The one lane decides every move itself: nothing crosses lanes.
    type Msg = Infallible;

    fn queued(&self) -> u64 {
        self.in_flight as u64
    }

    fn next_pending(&mut self) -> Option<u64> {
        self.inj.get(self.next_inject).map(|p| p.inject_time)
    }

    /// Streaming continuation, head retries, then injection.
    fn begin(&mut self, cycle: u64) {
        self.progressed = false;

        // Streaming continuation: each multi-flit packet feeds at most
        // one body flit per cycle into its claimed first buffer. The
        // claim is released once the tail has entered the network.
        let mut streams = std::mem::take(&mut self.streams);
        streams.retain(|&id| {
            let i = id as usize;
            let b0 = self.worm.path[i][0] as usize;
            if self.full(b0) {
                return true;
            }
            let sent = self.worm.flits_sent[i];
            let is_tail = sent + 1 == self.fpp;
            self.push_flit(cycle, b0, flit(id, 0, false, is_tail));
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

        // Inject everything due this cycle, through the admission the
        // store-and-forward engine uses.
        while self.next_inject < self.inj.len() && self.inj[self.next_inject].inject_time <= cycle {
            let p = self.inj[self.next_inject];
            self.next_inject += 1;
            let admitted = self
                .fault
                .admit(&mut self.shard, cycle, p.src, p.dst, |fault| {
                    fault.verdict(p.src, p.dst)
                });
            if admitted.is_none() {
                continue;
            }
            let id = self.slab.alloc(p.dst, p.inject_time);
            self.worm.reset(id, p.src);
            self.in_flight += 1;
            if self.try_place_head(cycle, id) {
                self.progressed = true;
            } else {
                self.pending.push_back(id);
            }
        }
    }

    /// The forward scan: per loaded edge, in ascending (node, edge)
    /// order from the shard's edge bitset, the first front flit that can
    /// advance, lowest VC first, wins the edge's one move this cycle.
    fn propose(&mut self, cycle: u64, _out: &mut Vec<Infallible>) {
        let mut scan = Scan::default();
        while let Some((u, e)) = self.shard.next_loaded(&mut scan) {
            debug_assert!(self.link_load[e] != 0, "a set bit implies a loaded edge");
            for b in e * self.vcs..(e + 1) * self.vcs {
                if let Some(f) = self.queues.front(b) {
                    if self.try_move(cycle, u, e, b, f) {
                        self.progressed = true;
                        break;
                    }
                }
            }
        }
    }

    fn commit(&mut self, _now: u64, msg: &Infallible) {
        match *msg {}
    }

    /// Applies the arrival list at the `cycle + 1` boundary: flits
    /// enter their reserved buffers or leave the network at the
    /// destination, with batched latency accounting
    /// ([`StatsAcc::deliver_batch`](super::stats::StatsAcc::deliver_batch)).
    fn end_cycle(&mut self, now: u64) {
        let mut arrivals = std::mem::take(&mut self.arrivals);
        for &(f, buf, node) in &arrivals {
            let id = f as u32;
            if buf == EJECT {
                if f & FLIT_TAIL != 0 {
                    self.in_flight -= 1;
                    let inject_time = self.slab.inject(id);
                    self.shard.deliver(now, node, now - inject_time);
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
                self.push_flit(now, b, f);
            }
        }
        arrivals.clear();
        self.arrivals = arrivals;
        self.shard.flush_latencies(now);
    }

    fn observe(&mut self, cycle: u64, in_flight: u64) {
        self.shard.observer.on_cycle_end(cycle, in_flight as usize);
    }

    /// Deadlock handling: when nothing moved with flits still in
    /// flight, jump to the next injection (new packets may place on
    /// other links) or stop on a genuine deadlock — only reachable off
    /// the order-based configurations; the stranded packets surface as
    /// `offered − delivered − dropped`.
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
/// [`SwitchingSpec::Wormhole`] spec as one lane over every node, meeting
/// `fault`, on the caller's thread and observer (see the
/// [module docs](self)).
pub(crate) fn run_wormhole<T, R, O>(
    plan: &RunPlan<'_, T, R>,
    packets: &[Packet],
    fault: FaultState<'_, R>,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + ?Sized,
    O: SimObserver,
{
    let (topology, spec) = (plan.topology, &plan.switching);
    let SwitchingSpec::Wormhole { vcs, buf_flits, .. } = *spec else {
        unreachable!("store-and-forward specs run the packet core")
    };
    let mut inj: Vec<&Packet> = packets.iter().collect();
    inj.sort_by_key(|p| p.inject_time);
    // `RunPlan::check` validated the spec: every figure is at least 1.
    let (g, vcs) = (topology.graph(), vcs as usize);
    let links = g.num_directed_edges();
    let mut lane = WormLane {
        edge_class: &edge_classes(topology),
        fault,
        vcs,
        buf_flits: buf_flits as u64,
        fpp: spec.flits_per_packet(),
        shard: Shard::new(g, 0, topology.len() as u32, observer),
        queues: LinkQueues::new(links * vcs),
        link_load: vec![0; links],
        bufs: vec![Buf::default(); links * vcs],
        slab: PacketSlab::new(),
        worm: WormState::default(),
        arrivals: Vec::new(),
        pending: VecDeque::new(),
        streams: Vec::new(),
        inj: &inj,
        next_inject: 0,
        in_flight: 0,
        progressed: false,
    };
    run_lane(&mut lane, &Solo::default(), 0, plan.max_cycles);
    lane.shard.acc.finish(packets.len())
}
