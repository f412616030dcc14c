//! The arena-backed storage core of the simulation engine: a
//! struct-of-arrays in-flight packet slab ([`PacketSlab`]) and fixed-stride
//! ring-buffer link FIFOs ([`LinkQueues`]).
//!
//! The first engine kept one heap-allocated `VecDeque` of 16-byte packet
//! structs per directed link — ~2m independent allocations that appear and
//! die over a run, every queue header on its own cache line, every queued
//! packet moved by value on each hop. This module replaces that with two
//! flat arenas:
//!
//! * packets live in **one** slab for the whole run and are referred to by
//!   `u32` id everywhere (queues, arrival lists), with a freelist so ids
//!   are recycled as packets are delivered;
//! * every directed link owns **one record** in a single array indexed by
//!   the CSR directed-edge id: a `RING_STRIDE`-slot ring, its front
//!   cursor and its occupancy side by side (24 bytes for packet ids, 40
//!   for flit records), so pushing or popping a shallow queue touches one
//!   record and allocates nothing. Queues deeper than the stride spill
//!   their tail to a **sparse spill store**, which holds a list only for
//!   the queues that actually spilled (the record carries its list's
//!   number, so no lookup hashes) and is read only when a queue's
//!   occupancy exceeds the stride. A saturated million-link run that
//!   spills a few dozen queues pays for a few dozen lists, not for a
//!   header per link.
//!
//! The occupancy in each record doubles as the live load view the
//! adaptive routers consult, through a node-local window.

use std::collections::VecDeque;

use crate::router::LinkLoad;

/// Per-link ring capacity (slots), a power of two. Queues only grow past
/// this under congestion, where the simulated network is the bottleneck
/// anyway; at light and moderate load every FIFO operation stays inside
/// the ring. Kept small deliberately: every queue record carries
/// `stride` slots and the engine is cache-bound, so a lean ring beats a
/// roomy one.
pub const RING_STRIDE: usize = 4;

/// Sentinel for the [`PacketSlab::next_copy`] column: this packet chains
/// no follow-up copy (every non-collective packet, and the last sibling
/// copy of a one-port replication chain).
pub const NO_COPY: u32 = u32::MAX;

/// Struct-of-arrays packet arena: destination, injection cycle, hop
/// count, and the collective-replication chain live in parallel vectors
/// indexed by packet id, with freelist recycling. The engine's queues and
/// arrival lists carry only the ids.
#[derive(Clone, Debug, Default)]
pub struct PacketSlab {
    dst: Vec<u32>,
    inject: Vec<u64>,
    hops: Vec<u32>,
    /// Collective tree-forwarding chain: the copy-plan edge the packet's
    /// origin emits next, once this copy departs ([`NO_COPY`] otherwise).
    /// Lives in the slab so replication allocates nothing per packet —
    /// spawned copies reuse freelisted ids like every other packet.
    next_copy: Vec<u32>,
    free: Vec<u32>,
}

impl PacketSlab {
    /// An empty slab.
    pub fn new() -> PacketSlab {
        PacketSlab::default()
    }

    /// A slab with room for `capacity` concurrently live packets before
    /// the columns reallocate.
    pub fn with_capacity(capacity: usize) -> PacketSlab {
        PacketSlab {
            dst: Vec::with_capacity(capacity),
            inject: Vec::with_capacity(capacity),
            hops: Vec::with_capacity(capacity),
            next_copy: Vec::with_capacity(capacity),
            free: Vec::new(),
        }
    }

    /// Admits a packet, reusing a retired id when one is free. The
    /// replication chain starts empty ([`NO_COPY`]).
    #[inline]
    pub fn alloc(&mut self, dst: u32, inject: u64) -> u32 {
        if let Some(id) = self.free.pop() {
            self.dst[id as usize] = dst;
            self.inject[id as usize] = inject;
            self.hops[id as usize] = 0;
            self.next_copy[id as usize] = NO_COPY;
            id
        } else {
            self.dst.push(dst);
            self.inject.push(inject);
            self.hops.push(0);
            self.next_copy.push(NO_COPY);
            (self.dst.len() - 1) as u32
        }
    }

    /// Retires a delivered packet; its id goes back on the freelist.
    #[inline]
    pub fn release(&mut self, id: u32) {
        self.free.push(id);
    }

    /// Destination of packet `id`.
    #[inline]
    pub fn dst(&self, id: u32) -> u32 {
        self.dst[id as usize]
    }

    /// Injection cycle of packet `id`.
    #[inline]
    pub fn inject(&self, id: u32) -> u64 {
        self.inject[id as usize]
    }

    /// Link traversals packet `id` has made so far.
    #[inline]
    pub fn hops(&self, id: u32) -> u32 {
        self.hops[id as usize]
    }

    /// Records one link traversal for packet `id`.
    #[inline]
    pub fn record_hop(&mut self, id: u32) {
        self.hops[id as usize] += 1;
    }

    /// Restores a carried hop count onto a freshly allocated id — the
    /// sharded engine releases a packet's slot when it departs a lane
    /// and re-allocates at the committing lane, so the cumulative count
    /// rides along in the outbox message.
    #[inline]
    pub fn set_hops(&mut self, id: u32, hops: u32) {
        self.hops[id as usize] = hops;
    }

    /// The copy-plan edge the origin of packet `id` emits after this copy
    /// departs, or [`NO_COPY`] — the one-port tree-forwarding chain of
    /// a [`Workload::Copies`](crate::engine::Workload::Copies) run.
    #[inline]
    pub fn next_copy(&self, id: u32) -> u32 {
        self.next_copy[id as usize]
    }

    /// Chains the follow-up copy-plan edge `next` onto packet `id`.
    #[inline]
    pub fn set_next_copy(&mut self, id: u32, next: u32) {
        self.next_copy[id as usize] = next;
    }

    /// Packets currently live (allocated and not yet released).
    pub fn live(&self) -> usize {
        self.dst.len() - self.free.len()
    }
}

/// One queue's record, `(ring, cursor, len)`: its ring window, cursor
/// word and total occupancy (ring **plus** spill list, also the load
/// figure adaptive routers see) side by side, so a push or pop touches
/// one record. The cursor word holds the ring's front index in its low
/// [`HEAD_BITS`] and, above them, the queue's spill-list number plus one
/// (0 until the queue first spills). 24 bytes for `u32` packet ids, 40
/// for `u64` flit records. A tuple rather than a struct because `vec!`
/// of an all-zero tuple of integers and arrays allocates zeroed pages
/// (the standard library special-cases it; a struct it fills element by
/// element): queues no packet ever visits cost no resident memory.
type Fifo<T> = ([T; RING_STRIDE], u32, u32);

/// Low bits of a cursor word that index the ring's front slot.
const HEAD_BITS: u32 = RING_STRIDE.trailing_zeros();
/// Mask of the front index in a cursor word.
const HEAD_MASK: u32 = RING_STRIDE as u32 - 1;

/// Fixed-stride ring-buffer FIFOs, one per directed link (or per
/// directed link × virtual channel), as one contiguous array of
/// per-queue records indexed by queue id. Values are [`PacketSlab`]
/// packet ids (the default `u32`) or the wormhole engine's packed `u64`
/// flit records. See the [module docs](self) for the layout rationale
/// and the spill (saturation) behaviour. A wormhole buffer's advertised
/// capacity is enforced *logically* by the engine's credit check, not
/// by the ring allocation, so an effectively unbounded buffer costs no
/// memory beyond the flits actually queued.
#[derive(Clone, Debug)]
pub struct LinkQueues<T = u32> {
    fifos: Vec<Fifo<T>>,
    /// The spill lists, one per queue that has ever grown past its ring,
    /// in order of first spill; a queue's record carries its list's
    /// number, so reaching it needs no search. Read only when a queue's
    /// occupancy exceeds [`RING_STRIDE`]. A drained list keeps its number
    /// and capacity, so a congested queue that spills again reuses it.
    spill: Vec<VecDeque<T>>,
}

impl<T: Copy + Default> LinkQueues<T> {
    /// Bytes of one queue's record — what every queue costs before it
    /// spills.
    pub(crate) const QUEUE_BYTES: usize = size_of::<Fifo<T>>();

    /// Empty FIFOs for `links` queues.
    pub fn new(links: usize) -> LinkQueues<T> {
        LinkQueues {
            fifos: vec![Fifo::default(); links],
            spill: Vec::new(),
        }
    }

    /// Number of queues.
    pub fn links(&self) -> usize {
        self.fifos.len()
    }

    /// Enqueues `x` on queue `e`.
    #[inline]
    pub fn push(&mut self, e: usize, x: T) {
        let (ring, cursor, len) = &mut self.fifos[e];
        let l = *len as usize;
        if l < RING_STRIDE {
            ring[((*cursor & HEAD_MASK) as usize + l) & (RING_STRIDE - 1)] = x;
        } else {
            if *cursor >> HEAD_BITS == 0 {
                *cursor |= new_spill_list(&mut self.spill) << HEAD_BITS;
            }
            self.spill[(*cursor >> HEAD_BITS) as usize - 1].push_back(x);
        }
        *len += 1;
    }

    /// The front value of queue `e` without dequeuing it — what the
    /// wormhole forward phase inspects before spending a link's cycle.
    #[inline]
    pub fn front(&self, e: usize) -> Option<T> {
        let (ring, cursor, len) = &self.fifos[e];
        (*len != 0).then(|| ring[(*cursor & HEAD_MASK) as usize])
    }

    /// Dequeues the front value of queue `e`, or `None` when it is idle.
    #[inline]
    pub fn pop(&mut self, e: usize) -> Option<T> {
        let (ring, cursor, len) = &mut self.fifos[e];
        if *len == 0 {
            return None;
        }
        let head = (*cursor & HEAD_MASK) as usize;
        let x = ring[head];
        if *len as usize > RING_STRIDE {
            // The ring was full: the eldest spilled value is promoted into
            // the slot just vacated, which (head + RING_STRIDE ≡ head) is
            // exactly where FIFO order wants it. O(1), no shifting.
            ring[head] = self.spill[(*cursor >> HEAD_BITS) as usize - 1]
                .pop_front()
                .expect("occupancy beyond the stride implies a spilled value");
        }
        *cursor = (*cursor & !HEAD_MASK) | ((head as u32 + 1) & HEAD_MASK);
        *len -= 1;
        Some(x)
    }

    /// Occupancy of queue `e`.
    #[inline]
    pub fn load(&self, e: usize) -> usize {
        self.fifos[e].2 as usize
    }

    /// Number of queues that have spilled past the ring so far — each
    /// holds one spill list; no other queue holds any spill state.
    pub fn spilled_queues(&self) -> usize {
        self.spill.len()
    }
}

/// Opens the spill list of a queue's first spill, returning the number
/// its record carries (the list's index plus one).
#[cold]
fn new_spill_list<T>(spill: &mut Vec<VecDeque<T>>) -> u32 {
    spill.push(VecDeque::new());
    u32::try_from(spill.len())
        .ok()
        .filter(|&n| n <= u32::MAX >> HEAD_BITS)
        .expect("spill-list numbers fit the cursor word")
}

/// A per-queue occupancy column, indexed by queue id: what a node-local
/// [`NodeLoad`] window reads. The store-and-forward engine's
/// [`LinkQueues`] and the flit engine's per-edge load column (a `[u32]`
/// summed over every VC) both are one.
pub(crate) trait Loads {
    /// Occupancy of queue `q`.
    fn queue_load(&self, q: usize) -> usize;
}

impl<T: Copy + Default> Loads for LinkQueues<T> {
    #[inline]
    fn queue_load(&self, q: usize) -> usize {
        self.load(q)
    }
}

impl Loads for [u32] {
    #[inline]
    fn queue_load(&self, q: usize) -> usize {
        self[q] as usize
    }
}

/// Occupancy view of one node's output links, handed to adaptive
/// routers: slot `s` reads queue `base + s` of the load column `loads`.
/// Generic over the column, so the engines' hot paths stay statically
/// dispatched up to the router call.
pub(crate) struct NodeLoad<'a, L: ?Sized> {
    pub(crate) loads: &'a L,
    pub(crate) base: usize,
}

impl<L: Loads + ?Sized> LinkLoad for NodeLoad<'_, L> {
    #[inline]
    fn load(&self, slot: usize) -> usize {
        self.loads.queue_load(self.base + slot)
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    #[test]
    fn slab_recycles_ids() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(7, 100);
        let b = slab.alloc(9, 200);
        assert_eq!((slab.dst(a), slab.inject(a)), (7, 100));
        assert_eq!((slab.dst(b), slab.inject(b)), (9, 200));
        assert_eq!(slab.live(), 2);
        slab.record_hop(a);
        slab.record_hop(a);
        assert_eq!(slab.hops(a), 2);
        slab.release(a);
        assert_eq!(slab.live(), 1);
        let c = slab.alloc(3, 300);
        assert_eq!(c, a, "freelist recycles the retired id");
        assert_eq!(slab.hops(c), 0, "recycled ids start fresh");
        assert_eq!(slab.dst(c), 3);
        assert_eq!(slab.live(), 2);
    }

    #[test]
    fn copy_chain_column_defaults_clear_and_survives_recycling() {
        let mut slab = PacketSlab::with_capacity(2);
        let a = slab.alloc(1, 0);
        assert_eq!(slab.next_copy(a), NO_COPY, "fresh packets chain nothing");
        slab.set_next_copy(a, 17);
        assert_eq!(slab.next_copy(a), 17);
        slab.release(a);
        let b = slab.alloc(2, 5);
        assert_eq!(b, a, "freelist recycles");
        assert_eq!(slab.next_copy(b), NO_COPY, "recycled ids chain nothing");
    }

    /// The queue tests run against both element types: packet ids
    /// (`u32`) and packed flit records (`u64`).
    fn fifo_within_the_ring<T: Copy + Default + PartialEq + Debug + From<u32>>() {
        let mut q = LinkQueues::<T>::new(3);
        for id in 0..RING_STRIDE as u32 {
            q.push(1, T::from(id));
        }
        assert_eq!(q.load(1), RING_STRIDE);
        assert_eq!(q.load(0), 0);
        for id in 0..RING_STRIDE as u32 {
            assert_eq!(q.front(1), Some(T::from(id)), "front peeks, no dequeue");
            assert_eq!(q.pop(1), Some(T::from(id)));
        }
        assert_eq!(q.front(1), None);
        assert_eq!(q.pop(1), None);
    }

    #[test]
    fn queues_are_fifo_within_the_ring() {
        fifo_within_the_ring::<u32>();
        fifo_within_the_ring::<u64>();
    }

    fn spill_and_drain<T: Copy + Default + PartialEq + Debug + From<u32>>() {
        // Push 5× the stride through one queue, interleaving pops, and
        // the FIFO order must survive the ring/overflow boundary
        // crossings.
        let mut q = LinkQueues::<T>::new(2);
        let total = 5 * RING_STRIDE as u32;
        let mut next_pop = 0u32;
        for id in 0..total {
            q.push(0, T::from(id));
            if id % 3 == 2 {
                assert_eq!(q.pop(0), Some(T::from(next_pop)));
                next_pop += 1;
            }
        }
        while let Some(x) = q.pop(0) {
            assert_eq!(x, T::from(next_pop));
            next_pop += 1;
        }
        assert_eq!(next_pop, total);
        assert_eq!(q.load(0), 0);
        // The drained queue is immediately reusable.
        q.push(0, T::from(99));
        assert_eq!(q.pop(0), Some(T::from(99)));
    }

    #[test]
    fn queues_spill_and_drain_in_order_past_the_stride() {
        spill_and_drain::<u32>();
        spill_and_drain::<u64>();
    }

    #[test]
    fn flit_queues_front_pop_and_spill_stay_fifo() {
        // Two links × two VCs; buffer index = edge * vcs + vc.
        let mut q = LinkQueues::<u64>::new(2 * 2);
        assert_eq!(q.links(), 4);
        let b = 3; // edge 1, vc 1
        let total = 3 * RING_STRIDE as u64;
        for f in 0..total {
            q.push(b, f << 40 | f); // wide payloads survive intact
        }
        assert_eq!(q.load(b), 3 * RING_STRIDE);
        assert_eq!(q.load(2), 0, "sibling VC untouched");
        for f in 0..total {
            assert_eq!(q.front(b), Some(f << 40 | f), "front peeks, no dequeue");
            assert_eq!(q.pop(b), Some(f << 40 | f));
        }
        assert_eq!(q.front(b), None);
        assert_eq!(q.pop(b), None);
        // Drained buffers are immediately reusable.
        q.push(b, 99);
        assert_eq!(q.pop(b), Some(99));
    }

    fn loads_track_total_occupancy<T: Copy + Default + PartialEq + Debug + From<u32>>() {
        let mut q = LinkQueues::<T>::new(4);
        for id in 0..(RING_STRIDE as u32 + 3) {
            q.push(2, T::from(id));
        }
        assert_eq!(q.load(2), RING_STRIDE + 3, "overflow counts toward load");
        let view = NodeLoad { loads: &q, base: 1 };
        assert_eq!(view.load(1), q.load(2), "the router's load view reads it");
        assert_eq!(q.links(), 4);
        q.pop(2);
        assert_eq!(q.load(2), RING_STRIDE + 2);
    }

    #[test]
    fn loads_column_tracks_total_occupancy() {
        loads_track_total_occupancy::<u32>();
        loads_track_total_occupancy::<u64>();
    }

    /// Seeded random pushes and pops over many queues, checked step by
    /// step against one `VecDeque` per queue. Pushes are biased towards
    /// a few hot queues in bursts, so those spill and drain repeatedly.
    fn matches_a_vecdeque_model<T: Copy + Default + PartialEq + Debug + From<u32>>(seed: u64) {
        const QUEUES: usize = 64;
        let mut q = LinkQueues::<T>::new(QUEUES);
        let mut model: Vec<VecDeque<T>> = vec![VecDeque::new(); QUEUES];
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut next, mut spills) = (0u32, 0usize);
        for step in 0..40_000 {
            // Alternate filling and draining phases of 500 steps.
            let filling = (step / 500) % 2 == 0;
            let e = if rng.gen_bool(0.5) {
                rng.gen_range(0..4usize)
            } else {
                rng.gen_range(0..QUEUES)
            };
            if rng.gen_bool(if filling { 0.7 } else { 0.3 }) {
                q.push(e, T::from(next));
                model[e].push_back(T::from(next));
                next += 1;
                if model[e].len() == RING_STRIDE + 1 {
                    spills += 1;
                }
            } else {
                assert_eq!(q.pop(e), model[e].pop_front(), "step {step}, queue {e}");
            }
            assert_eq!(q.front(e), model[e].front().copied(), "step {step}");
            assert_eq!(q.load(e), model[e].len(), "step {step}");
        }
        assert!(
            spills > 20,
            "only {spills} spills: the model test is too tame"
        );
        assert!(q.spilled_queues() >= 4, "every hot queue spilled");
        for (e, m) in model.iter_mut().enumerate() {
            while let Some(x) = m.pop_front() {
                assert_eq!(q.pop(e), Some(x));
            }
            assert_eq!(q.pop(e), None);
            assert_eq!(q.load(e), 0);
        }
    }

    #[test]
    fn queues_match_a_vecdeque_model_under_random_spills() {
        for seed in 0..4 {
            matches_a_vecdeque_model::<u32>(seed);
            matches_a_vecdeque_model::<u64>(seed);
        }
    }

    fn spill_state_is_per_spilled_queue<T: Copy + Default + PartialEq + Debug + From<u32>>() {
        let mut q = LinkQueues::<T>::new(1 << 20);
        let deep = 12_345;
        for id in 0..(3 * RING_STRIDE as u32) {
            q.push(deep, T::from(id));
        }
        assert_eq!(q.spilled_queues(), 1, "one queue spilled, one spill list");
        // The queues whose record carries a spill-list number.
        let numbered = |q: &LinkQueues<T>| -> Vec<usize> {
            (0..q.links())
                .filter(|&e| q.fifos[e].1 >> HEAD_BITS != 0)
                .collect()
        };
        assert_eq!(numbered(&q), [deep], "the deep queue alone holds a list");
        // Filling other rings to the brim spills nothing more.
        for e in 0..64 {
            for id in 0..RING_STRIDE as u32 {
                q.push(e, T::from(id));
            }
        }
        assert_eq!(q.spilled_queues(), 1);
        // Draining and spilling the same queue again reuses its list.
        while q.pop(deep).is_some() {}
        for id in 0..(2 * RING_STRIDE as u32) {
            q.push(deep, T::from(id));
        }
        assert_eq!(q.spilled_queues(), 1);
        assert_eq!(numbered(&q), [deep]);
    }

    #[test]
    fn spill_state_exists_only_for_spilled_queues() {
        spill_state_is_per_spilled_queue::<u32>();
        spill_state_is_per_spilled_queue::<u64>();
        // The record is all the per-queue state: ring, cursor and length.
        assert_eq!(LinkQueues::<u32>::QUEUE_BYTES, 24);
        assert_eq!(LinkQueues::<u64>::QUEUE_BYTES, 40);
    }
}
