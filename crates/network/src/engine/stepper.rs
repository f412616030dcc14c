//! The **one** cycle stepper behind every engine variant, serial or
//! sharded.
//!
//! A simulation run is a [`LaneWorkload`]: the per-cycle stages of one
//! *lane* (a contiguous shard of nodes, or the whole network), wired
//! together by [`run_lane`] under a [`Protocol`] that decides how lanes
//! exchange cross-shard effects:
//!
//! - [`Solo`] — one lane covering every node, outbox kept in a local
//!   `RefCell`, no synchronization at all. A one-lane
//!   [`run`](super::run) is a `Solo` monomorphization on the caller's
//!   thread, so it compiles to a straight-line loop with no fork and no
//!   thread spawn.
//! - `Pooled` (in [`parallel`](super::parallel)) — `k` lanes on a
//!   scoped thread pool with per-lane `RwLock` outboxes, published
//!   queue counters, and a barrier per phase boundary.
//!
//! Both switching models build their lanes on one chassis ([`Shard`]).
//! Because both protocols drive the *same* stage methods in the *same*
//! order, and every stage only reads its own lane's arena state while
//! appending cross-lane effects to an outbox that is committed in
//! ascending lane order, the full [`SimStats`](super::SimStats) (and
//! any forked observer state) is bit-identical at every lane count.
//!
//! ## The cycle skeleton
//!
//! ```text
//! exchange  — publish (queued, next-pending), read global (Σ, min):
//!             the lockstep idle-skip / termination decision
//! begin     — event-commit (churn) + inject (admission, sessions,
//!             flit streams) on this lane's own nodes
//! propose   — forward scan over this lane's loaded links; each popped
//!             packet/flit becomes an outbox message
//! commit    — visit *all* lanes' messages in ascending lane order
//!             (== the serial scan order); consume the ones this lane
//!             owns, mirror the ones it must replicate
//! end_cycle — deferred effects (chained copies, flit arrivals) and
//!             batched latency accounting
//! observe   — `on_cycle_end` with the *global* in-flight count
//! advance   — next cycle (or a workload-specific jump / stop)
//! ```
//!
//! Every decision that steers control flow — the idle fast-forward, the
//! termination test, a wormhole deadlock jump — is taken from data that
//! is identical on every lane (the exchanged global counters, or state
//! each lane replicates deterministically), so all lanes execute the
//! same number of cycles in lockstep and no lane can block on a barrier
//! another lane already left for good.

use std::cell::RefCell;

use fibcube_graph::csr::CsrGraph;

use crate::observer::SimObserver;

use super::stats::StatsAcc;

/// One lane's view of a simulation run: the per-cycle stage methods the
/// unified stepper ([`run_lane`]) drives. See the [module docs](self)
/// for the stage order and the determinism argument.
///
/// # Invariants
///
/// - `queued` / `next_pending` feed the lockstep idle/termination
///   decision; summed (resp. min-folded) over lanes they must equal the
///   serial engine's in-flight count and next-traffic cycle.
/// - `begin` and `propose` may touch **only this lane's own** arena
///   state; cross-lane effects go into the outbox.
/// - `commit` is called for **every** message of **every** lane, in
///   ascending lane order — the concatenation is exactly the serial
///   forward scan's pop order. Implementations filter by ownership
///   (and may additionally replicate lane-invariant mirror state, e.g.
///   the request/reply session machine, on every lane).
/// - `advance` must return the same value on every lane (it may only
///   consult replicated or exchanged state).
pub(crate) trait LaneWorkload {
    /// One cross-lane effect: a packet arrival, a flit grant, a credit.
    type Msg;

    /// Packets/flits this lane currently holds (the lockstep drain
    /// check sums this across lanes).
    fn queued(&self) -> u64;

    /// The earliest future cycle at which this lane can add new traffic
    /// (next injection / session action), or `None` if it never will.
    fn next_pending(&mut self) -> Option<u64>;

    /// Start-of-cycle stage: event-commit (churn) then injection, on
    /// this lane's own nodes only.
    fn begin(&mut self, cycle: u64);

    /// Forward/propose stage: scan this lane's loaded out-edges in
    /// ascending node/edge order, appending each popped packet (or
    /// proposed flit move) to `out`.
    fn propose(&mut self, cycle: u64, out: &mut Vec<Self::Msg>);

    /// Arrival-commit stage: one message, presented to every lane in
    /// ascending lane order at the `cycle + 1` boundary.
    fn commit(&mut self, now: u64, msg: &Self::Msg);

    /// End-of-cycle stage: deferred effects that must not act before
    /// every arrival of this cycle has committed.
    fn end_cycle(&mut self, now: u64);

    /// Cycle observer event; `in_flight` is the exchanged *global*
    /// count, so forked observers see exactly the serial value.
    fn observe(&mut self, cycle: u64, in_flight: u64);

    /// Picks the next cycle (default `cycle + 1`); `None` terminates
    /// the run. Must decide identically on every lane.
    fn advance(&mut self, cycle: u64, max_cycles: u64) -> Option<u64> {
        let _ = max_cycles;
        Some(cycle + 1)
    }
}

/// How lanes exchange outbox messages and global counters: [`Solo`]
/// (one lane, no sync) or `Pooled` (scoped pool, barriers) — the only
/// two implementations, chosen at monomorphization time.
pub(crate) trait Protocol<M> {
    /// Publishes this lane's `(queued, next_pending)` and returns the
    /// global `(sum, min)` — the same pair on every lane.
    fn exchange(&self, me: usize, queued: u64, next: Option<u64>) -> (u64, Option<u64>);

    /// Runs `fill` on this lane's (cleared) outbox.
    fn propose(&self, me: usize, fill: impl FnOnce(&mut Vec<M>));

    /// Visits every lane's proposed messages in ascending lane order.
    fn commit(&self, me: usize, visit: impl FnMut(&M));
}

/// The one-lane protocol: the serial engine. The outbox lives in a
/// `RefCell` so `propose` can fill it while the lane is borrowed
/// mutably; `exchange` just echoes the lane's own counters.
pub(crate) struct Solo<M> {
    outbox: RefCell<Vec<M>>,
}

impl<M> Default for Solo<M> {
    fn default() -> Solo<M> {
        Solo {
            outbox: RefCell::new(Vec::new()),
        }
    }
}

impl<M> Protocol<M> for Solo<M> {
    #[inline]
    fn exchange(&self, _me: usize, queued: u64, next: Option<u64>) -> (u64, Option<u64>) {
        (queued, next)
    }

    #[inline]
    fn propose(&self, _me: usize, fill: impl FnOnce(&mut Vec<M>)) {
        let mut out = self.outbox.borrow_mut();
        out.clear();
        fill(&mut out);
    }

    #[inline]
    fn commit(&self, _me: usize, mut visit: impl FnMut(&M)) {
        for msg in self.outbox.borrow().iter() {
            visit(msg);
        }
    }
}

/// Drives one lane through the unified cycle skeleton until the run
/// drains, hits `max_cycles`, or the workload's `advance` stops it.
/// This is the **only** stepper in the engine: `Solo` monomorphizations
/// of it are the one-lane runs, `Pooled` ones are the sharded engine —
/// there is no second copy of the cycle loop to drift.
pub(crate) fn run_lane<W, P>(lane: &mut W, proto: &P, me: usize, max_cycles: u64)
where
    W: LaneWorkload,
    P: Protocol<W::Msg>,
{
    let mut cycle: u64 = 0;
    let (mut queued, mut next) = proto.exchange(me, lane.queued(), lane.next_pending());
    while cycle < max_cycles {
        if queued == 0 {
            // Idle fast-forward: jump to the next traffic action, or
            // stop when there is none (or it lies past the cap). The
            // exchanged pair is identical on every lane, so the jump is
            // lockstep.
            match next {
                None => break,
                Some(t) if t >= max_cycles => break,
                Some(t) => cycle = cycle.max(t),
            }
        }
        lane.begin(cycle);
        proto.propose(me, |out| lane.propose(cycle, out));
        proto.commit(me, |msg| lane.commit(cycle + 1, msg));
        lane.end_cycle(cycle + 1);
        let (q, n) = proto.exchange(me, lane.queued(), lane.next_pending());
        queued = q;
        next = n;
        lane.observe(cycle, q);
        match lane.advance(cycle, max_cycles) {
            None => break,
            Some(t) => cycle = t,
        }
    }
}

/// The most lanes a run shards into (see [`lane_bounds`]).
pub(crate) const MAX_LANES: usize = 64;

/// Contiguous node shard bounds for a request of `lanes` lanes over `n`
/// nodes: the count is clamped, in this one place, to
/// `[1, min(n, MAX_LANES)]` (which never changes a result), and lane
/// `s` owns `[s·n/k, (s+1)·n/k)`.
pub(crate) fn lane_bounds(n: usize, lanes: usize) -> Vec<(u32, u32)> {
    let k = lanes.clamp(1, n.clamp(1, MAX_LANES));
    (0..k)
        .map(|s| ((s * n / k) as u32, ((s + 1) * n / k) as u32))
        .collect()
}

/// A forward scan's position for [`Shard::next_loaded`]: the next
/// summary word to load and the unvisited bits of the current one, the
/// current bitset word and its unvisited bits, and the node cursor with
/// the end of its edge range. A default `Scan` starts at the first edge.
#[derive(Default)]
pub(crate) struct Scan {
    summary: usize,
    words: u64,
    word: usize,
    bits: u64,
    node: u32,
    node_end: usize,
}

/// The lane chassis both switching models share: the owned node
/// window, a two-level occupancy bitset over the window's directed
/// edges, the statistics, and the observer — borrowed: the caller's in
/// a one-lane run, the lane's own fork in a pooled one. Each engine
/// keeps its queues, scan and commit.
pub(crate) struct Shard<'a, O> {
    pub(crate) g: &'a CsrGraph,
    /// This lane owns nodes `[lo, hi)` and their out-edges
    /// `[edge_lo, edge_hi)`; the edge-indexed columns below are local
    /// to that window.
    lo: u32,
    hi: u32,
    pub(crate) edge_lo: usize,
    pub(crate) edge_hi: usize,
    /// Packets or flits queued on this lane in all.
    pub(crate) queued: u64,
    /// Bit `e − edge_lo` is set while owned edge `e` holds packets or
    /// flits, so a scan visits exactly the loaded edges by a
    /// `trailing_zeros` walk, at any degree.
    loaded: Vec<u64>,
    /// Bit `w` is set while `loaded[w]` is non-zero, so a scan skips
    /// empty stretches 4096 edges at a time and an idle cycle costs
    /// `O(edges / 4096)`.
    summary: Vec<u64>,
    /// The owner of the first edge of each `loaded` word.
    word_owner: Vec<u32>,
    pub(crate) observer: &'a mut O,
    pub(crate) acc: StatsAcc,
    /// Latencies delivered this cycle, batch-accounted by
    /// [`Shard::flush_latencies`].
    lat_scratch: Vec<u64>,
}

impl<'a, O: SimObserver> Shard<'a, O> {
    /// The empty shard of nodes `[lo, hi)` of `g`.
    pub(crate) fn new(g: &'a CsrGraph, lo: u32, hi: u32, observer: &'a mut O) -> Self {
        let (edge_lo, edge_hi) = if hi > lo {
            (g.edge_range(lo).start, g.edge_range(hi - 1).end)
        } else {
            (0, 0)
        };
        let words = (edge_hi - edge_lo).div_ceil(64);
        let mut owner = lo;
        let word_owner = (edge_lo..edge_hi)
            .step_by(64)
            .map(|e| {
                while e >= g.edge_range(owner).end {
                    owner += 1;
                }
                owner
            })
            .collect();
        Shard {
            g,
            lo,
            hi,
            edge_lo,
            edge_hi,
            queued: 0,
            loaded: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
            word_owner,
            observer,
            acc: StatsAcc::for_network(g.num_vertices()),
            lat_scratch: Vec::new(),
        }
    }

    /// Does this lane own node `v`?
    #[inline]
    pub(crate) fn owns(&self, v: u32) -> bool {
        self.lo <= v && v < self.hi
    }

    /// Counts one more packet or flit queued on owned edge `e`.
    #[inline]
    pub(crate) fn push(&mut self, e: usize) {
        let le = e - self.edge_lo;
        let w = le / 64;
        self.loaded[w] |= 1 << (le % 64);
        self.summary[w / 64] |= 1 << (w % 64);
        self.queued += 1;
    }

    /// Counts one packet or flit gone from owned edge `e`, clearing the
    /// edge's bit when that `emptied` it (and its word's summary bit
    /// when the word went empty too).
    #[inline]
    pub(crate) fn pop(&mut self, e: usize, emptied: bool) {
        self.queued -= 1;
        if emptied {
            let le = e - self.edge_lo;
            let w = le / 64;
            self.loaded[w] &= !(1 << (le % 64));
            if self.loaded[w] == 0 {
                self.summary[w / 64] &= !(1 << (w % 64));
            }
        }
    }

    /// The next loaded (node, out-edge) pair of the scan in ascending
    /// edge id — CSR order, so (node, edge) ascending, the serial
    /// forward-scan order — by `trailing_zeros` walks over snapshots of
    /// the current summary and bitset words, so clearing visited bits is
    /// safe. The node cursor jumps to a loaded word's first owner and
    /// then moves forward only, so it walks just the nodes that word
    /// covers.
    #[inline]
    pub(crate) fn next_loaded(&self, scan: &mut Scan) -> Option<(u32, usize)> {
        while scan.bits == 0 {
            while scan.words == 0 {
                scan.words = *self.summary.get(scan.summary)?;
                scan.summary += 1;
            }
            scan.word = (scan.summary - 1) * 64 + scan.words.trailing_zeros() as usize;
            scan.words &= scan.words - 1;
            scan.bits = self.loaded[scan.word];
            scan.node = scan.node.max(self.word_owner[scan.word]);
            scan.node_end = self.g.edge_range(scan.node).end;
        }
        let e = self.edge_lo + scan.word * 64 + scan.bits.trailing_zeros() as usize;
        scan.bits &= scan.bits - 1;
        while e >= scan.node_end {
            scan.node += 1;
            scan.node_end = self.g.edge_range(scan.node).end;
        }
        Some((scan.node, e))
    }

    /// Records one delivery at owned node `node`: the observer event
    /// now, the latency batched for [`Shard::flush_latencies`].
    #[inline]
    pub(crate) fn deliver(&mut self, now: u64, node: u32, latency: u64) {
        self.observer.on_deliver(now, node, latency);
        self.lat_scratch.push(latency);
    }

    /// Batch-accounts the cycle's delivered latencies through
    /// [`StatsAcc::deliver_batch`].
    #[inline]
    pub(crate) fn flush_latencies(&mut self, now: u64) {
        self.acc.deliver_batch(now, &self.lat_scratch);
        self.lat_scratch.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;

    #[test]
    fn lane_requests_clamp_to_the_node_count_and_the_lane_cap() {
        // The clamp arithmetic alone: no lane is built, no thread starts.
        let n = 121_393; // Γ_24
        for requested in [usize::MAX, 1_000_000, 121_393, 65] {
            assert_eq!(lane_bounds(n, requested).len(), MAX_LANES, "{requested}");
        }
        assert_eq!(lane_bounds(n, 8).len(), 8);
        assert_eq!(
            lane_bounds(10, 1_000).len(),
            10,
            "at most one lane per node"
        );
        assert_eq!(lane_bounds(10, 0), vec![(0, 10)], "at least one lane");
        assert_eq!(
            lane_bounds(0, 8),
            vec![(0, 0)],
            "an empty network runs one lane"
        );
        let bounds = lane_bounds(n, usize::MAX);
        assert_eq!(bounds[0].0, 0);
        assert_eq!(bounds[MAX_LANES - 1].1, n as u32);
        for pair in bounds.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "shards are contiguous");
            assert!(pair[0].0 < pair[0].1, "shards are non-empty");
        }
    }

    #[test]
    fn the_edge_bitset_walks_loaded_edges_in_order_at_any_degree() {
        // A 130-leaf star: the hub's out-edges span three bitset words,
        // and each leaf owns one edge after them.
        let edges: Vec<(u32, u32)> = (1..=130).map(|leaf| (0, leaf)).collect();
        let g = CsrGraph::from_edges(131, &edges);
        let hub = g.edge_range(0).start;
        let hub_edges = |slots: &[usize]| slots.iter().map(|&s| (0, hub + s)).collect::<Vec<_>>();
        let leaf = |v: u32| (v, g.edge_range(v).start);
        let scan = |shard: &Shard<'_, NoopObserver>| {
            let mut cursor = Scan::default();
            std::iter::from_fn(|| shard.next_loaded(&mut cursor)).collect::<Vec<_>>()
        };
        let mut observer = NoopObserver;
        let mut shard = Shard::new(&g, 0, 131, &mut observer);
        for slot in [129, 100, 64, 63, 1, 0] {
            shard.push(hub + slot);
        }
        for v in [120, 6, 5] {
            shard.push(leaf(v).1);
        }
        let mut first = hub_edges(&[0, 1, 63, 64, 100, 129]);
        first.extend([leaf(5), leaf(6), leaf(120)]);
        assert_eq!(
            scan(&shard),
            first,
            "(node, edge) ascending, owners found past idle nodes"
        );
        shard.pop(hub + 64, true);
        shard.pop(hub, false);
        shard.pop(leaf(5).1, true);
        let mut rest = hub_edges(&[0, 1, 63, 100, 129]);
        rest.extend([leaf(6), leaf(120)]);
        assert_eq!(scan(&shard), rest, "cleared bits are skipped");
        assert_eq!(shard.queued, 6);

        // A window that starts past node 0 indexes its bits locally.
        let mut observer = NoopObserver;
        let mut tail = Shard::new(&g, 100, 131, &mut observer);
        tail.push(leaf(130).1);
        tail.push(leaf(100).1);
        assert_eq!(scan(&tail), vec![leaf(100), leaf(130)]);

        // 6000 directed edges span two summary words; an emptied word
        // leaves the summary, a refilled one rejoins it.
        let edges: Vec<(u32, u32)> = (1..=3000).map(|leaf| (0, leaf)).collect();
        let g = CsrGraph::from_edges(3001, &edges);
        let last = g.edge_range(3000).start;
        let mut observer = NoopObserver;
        let mut wide = Shard::new(&g, 0, 3001, &mut observer);
        for e in [last, 2999, 0] {
            wide.push(e);
        }
        assert_eq!(scan(&wide), vec![(0, 0), (0, 2999), (3000, last)]);
        wide.pop(2999, true);
        assert_eq!(scan(&wide), vec![(0, 0), (3000, last)]);
        wide.push(2998);
        wide.pop(0, true);
        wide.pop(last, true);
        assert_eq!(scan(&wide), vec![(0, 2998)]);
    }
}
