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
//! * every directed link owns a fixed `RING_STRIDE`-slot window of one
//!   shared ring array, indexed by the CSR directed-edge id. Pushing and
//!   popping a shallow queue is a couple of loads and stores with no
//!   allocation at all; queues deeper than the stride spill their tail to
//!   a per-link overflow list (headers only — an overflow `VecDeque`
//!   allocates on first use, i.e. only for links that actually saturate).
//!
//! The occupancy column [`LinkQueues::loads`] doubles as the live load
//! view the adaptive routers consult, so a whole node's output occupancy
//! sits in one or two cache lines.

use std::collections::VecDeque;

/// Per-link ring capacity (slots), a power of two. Queues only grow past
/// this under congestion, where the simulated network is the bottleneck
/// anyway; at light and moderate load every FIFO operation stays inside
/// the ring. Kept small deliberately: the ring arena is `4 · stride`
/// bytes per directed link and the engine is cache-bound, so a lean ring
/// beats a roomy one.
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

/// Fixed-stride ring-buffer FIFOs, one per directed link (or per
/// directed link × virtual channel), in a single contiguous arena
/// indexed by queue id. Values are [`PacketSlab`] packet ids (the
/// default `u32`) or the wormhole engine's packed `u64` flit records.
/// See the [module docs](self) for the layout rationale and the
/// overflow (saturation) behaviour. A wormhole buffer's advertised
/// capacity is enforced *logically* by the engine's credit check, not
/// by the ring allocation, so an effectively unbounded buffer costs no
/// memory beyond the flits actually queued.
#[derive(Clone, Debug)]
pub struct LinkQueues<T = u32> {
    /// `ring[e * RING_STRIDE + slot]` — the ring window of queue `e`.
    ring: Vec<T>,
    /// Front cursor of each queue's ring, `0..RING_STRIDE`.
    head: Vec<u32>,
    /// Total occupancy per queue (ring **plus** overflow) — also the
    /// load figure adaptive routers see.
    len: Vec<u32>,
    /// Spill lists for queues deeper than the ring, indexed by queue id.
    /// **Lazily sized**: empty until the first spill anywhere, so light
    /// and moderate runs never pay for the deque headers, while
    /// saturated runs pay once and then index directly (no hashing on
    /// the congested path).
    overflow: Vec<VecDeque<T>>,
}

impl<T: Copy + Default> LinkQueues<T> {
    /// Empty FIFOs for `links` queues.
    pub fn new(links: usize) -> LinkQueues<T> {
        LinkQueues {
            ring: vec![T::default(); links * RING_STRIDE],
            head: vec![0; links],
            len: vec![0; links],
            overflow: Vec::new(),
        }
    }

    /// Number of queues.
    pub fn links(&self) -> usize {
        self.len.len()
    }

    /// Enqueues `x` on queue `e`.
    #[inline]
    pub fn push(&mut self, e: usize, x: T) {
        let l = self.len[e] as usize;
        if l < RING_STRIDE {
            let slot = (self.head[e] as usize + l) & (RING_STRIDE - 1);
            self.ring[e * RING_STRIDE + slot] = x;
        } else {
            if self.overflow.is_empty() {
                // First spill of the run: materialise the header column.
                self.overflow = vec![VecDeque::new(); self.len.len()];
            }
            self.overflow[e].push_back(x);
        }
        self.len[e] = (l + 1) as u32;
    }

    /// The front value of queue `e` without dequeuing it — what the
    /// wormhole forward phase inspects before spending a link's cycle.
    #[inline]
    pub fn front(&self, e: usize) -> Option<T> {
        (self.len[e] != 0).then(|| self.ring[e * RING_STRIDE + self.head[e] as usize])
    }

    /// Dequeues the front value of queue `e`, or `None` when it is idle.
    #[inline]
    pub fn pop(&mut self, e: usize) -> Option<T> {
        let l = self.len[e] as usize;
        if l == 0 {
            return None;
        }
        let head = self.head[e] as usize;
        let x = self.ring[e * RING_STRIDE + head];
        if l > RING_STRIDE {
            // The ring was full: the eldest spilled value is promoted into
            // the slot just vacated, which (head + RING_STRIDE ≡ head) is
            // exactly where FIFO order wants it. O(1), no shifting.
            let promoted = self.overflow[e]
                .pop_front()
                .expect("occupancy beyond the stride implies a spill list");
            self.ring[e * RING_STRIDE + head] = promoted;
        }
        self.head[e] = ((head + 1) & (RING_STRIDE - 1)) as u32;
        self.len[e] = (l - 1) as u32;
        Some(x)
    }

    /// Occupancy of queue `e`.
    #[inline]
    pub fn load(&self, e: usize) -> usize {
        self.len[e] as usize
    }

    /// The per-queue occupancy column, indexed by queue id — the slice a
    /// node-local [`LinkLoad`](crate::router::LinkLoad) view windows
    /// into.
    #[inline]
    pub fn loads(&self) -> &[u32] {
        &self.len
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

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
        assert_eq!(q.loads()[2] as usize, q.load(2));
        assert_eq!(q.links(), 4);
        q.pop(2);
        assert_eq!(q.load(2), RING_STRIDE + 2);
    }

    #[test]
    fn loads_column_tracks_total_occupancy() {
        loads_track_total_occupancy::<u32>();
        loads_track_total_occupancy::<u64>();
    }
}
