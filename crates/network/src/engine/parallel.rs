//! The pooled driver of the unified stepper: `k` lanes on a scoped
//! thread pool, exchanging outbox messages under a barrier protocol.
//!
//! This module contains **no cycle logic**: the per-cycle stages live on
//! the workloads ([`LaneWorkload`]), and the one stepper driving them,
//! [`run_lane`](super::stepper::run_lane), is the same function the
//! serial entry points run under the no-sync
//! [`Solo`](super::stepper::Solo) protocol. Here the protocol is
//! [`Pooled`]: per-lane `RwLock`'d outboxes and published atomic
//! counters, with two [`Barrier`] waits per cycle — one after
//! **propose** (every outbox is filled, so commit may read them all in
//! ascending lane order, exactly the serial scan order) and one inside
//! **exchange** (every lane has published its queued/next-pending pair;
//! the wait fences this cycle's commit reads from the next cycle's
//! propose writes). Every control-flow decision derives from the
//! exchanged global pair or from deterministically replicated state, so
//! all lanes hit the same barriers the same number of times, and
//! blocking waits make oversubscription safe — slower, never wrong.
//! Lane `s` owns the node shard `[s·n/k, (s+1)·n/k)`, stages touch only
//! lane-local arena state, and cross-lane effects travel as typed
//! outbox messages committed in lane order, so merged statistics and
//! observer output are **bit-identical at any thread count** — the
//! property the proptests and `sweep --check-threads` pin down for
//! every policy combination.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};

use crate::collective::CopyPlan;
use crate::fault::{ChurnTimeline, FaultSet};
use crate::observer::{NoopObserver, SimObserver};
use crate::router::{FaultMaskingRouter, Router};
use crate::topology::Topology;
use crate::traffic::Packet;

use super::churn::{simulate_churn, simulate_request_reply, ChurnUnicast, RequestReplyLoad};
use super::core::{routing_for, run_core_pool, Replicate, Unicast};
use super::policy::{AdmitAll, MaskedAdmission};
use super::stats::SimStats;
use super::stepper::{run_lane, LaneWorkload, Protocol};

/// Sentinel for "no pending traffic" in the published atomic.
const NO_PENDING: u64 = u64::MAX;

/// One lane's published counters: its queued packet count and the cycle
/// of its next pending traffic action (`NO_PENDING` if none).
struct ShardSlot {
    queued: AtomicU64,
    next: AtomicU64,
}

/// The pooled lane protocol — see the module docs for the barrier
/// schedule and the determinism argument.
struct Pooled<'a, M> {
    outboxes: &'a [RwLock<Vec<M>>],
    slots: &'a [ShardSlot],
    barrier: &'a Barrier,
}

impl<M> Protocol<M> for Pooled<'_, M> {
    fn exchange(&self, me: usize, queued: u64, next: Option<u64>) -> (u64, Option<u64>) {
        let slot = &self.slots[me];
        slot.queued.store(queued, Ordering::Relaxed);
        slot.next
            .store(next.unwrap_or(NO_PENDING), Ordering::Relaxed);
        self.barrier.wait();
        let mut sum = 0u64;
        let mut min = NO_PENDING;
        for s in self.slots {
            sum += s.queued.load(Ordering::Relaxed);
            min = min.min(s.next.load(Ordering::Relaxed));
        }
        (sum, (min != NO_PENDING).then_some(min))
    }

    fn propose(&self, me: usize, fill: impl FnOnce(&mut Vec<M>)) {
        let mut out = self.outboxes[me].write().unwrap();
        out.clear();
        fill(&mut out);
        drop(out);
        self.barrier.wait();
    }

    fn commit(&self, _me: usize, mut visit: impl FnMut(&M)) {
        for outbox in self.outboxes {
            for msg in outbox.read().unwrap().iter() {
                visit(msg);
            }
        }
    }
}

/// Runs the given lanes to completion on a scoped thread pool (one OS
/// thread per lane) and hands them back for the caller's ordered merge.
pub(crate) fn run_pool<W>(mut lanes: Vec<W>, max_cycles: u64) -> Vec<W>
where
    W: LaneWorkload + Send,
    W::Msg: Send + Sync,
{
    let k = lanes.len();
    let outboxes: Vec<RwLock<Vec<W::Msg>>> = (0..k).map(|_| RwLock::new(Vec::new())).collect();
    let slots: Vec<ShardSlot> = (0..k)
        .map(|_| ShardSlot {
            queued: AtomicU64::new(0),
            next: AtomicU64::new(NO_PENDING),
        })
        .collect();
    let barrier = Barrier::new(k);
    std::thread::scope(|scope| {
        for (me, lane) in lanes.iter_mut().enumerate() {
            let proto = Pooled {
                outboxes: &outboxes,
                slots: &slots,
                barrier: &barrier,
            };
            scope.spawn(move || run_lane(lane, &proto, me, max_cycles));
        }
    });
    lanes
}

/// Runs the store-and-forward simulation sharded across `threads` OS
/// threads (clamped to `[1, nodes]`; `<= 1` runs the serial engine),
/// returning **exactly** the serial [`SimStats`], histograms included.
/// A non-empty `faults` set applies the same [`FaultMaskingRouter`]
/// detours and typed drops as
/// [`simulate_faulted`](crate::simulate_faulted).
pub fn simulate_parallel<T, R>(
    topology: &T,
    router: &R,
    faults: &FaultSet,
    packets: &[Packet],
    max_cycles: u64,
    threads: usize,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + Sync + ?Sized,
{
    let o = &mut NoopObserver;
    simulate_parallel_observed(topology, router, faults, packets, max_cycles, threads, o)
}

/// [`simulate_parallel`] with an observer attached: each lane runs a
/// [`SimObserver::fork`] of `observer`, and the forks merge back in
/// ascending lane order — the merged output equals the serial run's.
///
/// # Panics
///
/// Panics if `threads > 1` and [`SimObserver::fork`] returns `None`;
/// the experiment layer pre-checks and reports a typed error instead.
pub fn simulate_parallel_observed<T, R, O>(
    topology: &T,
    router: &R,
    faults: &FaultSet,
    packets: &[Packet],
    max_cycles: u64,
    threads: usize,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + Sync + ?Sized,
    O: SimObserver + Send,
{
    let n = topology.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return super::simulate_faulted(topology, router, faults, packets, max_cycles, observer);
    }
    let admit = AdmitAll;
    if faults.is_empty() {
        let plan = routing_for(topology, router, packets.len());
        let make = |lo, hi| Unicast::for_range(plan.as_ref(), packets, lo, hi, &admit);
        run_core_pool(topology, packets.len(), max_cycles, observer, threads, make).0
    } else {
        let masked = FaultMaskingRouter::for_topology(topology, router, faults);
        let admission = MaskedAdmission::new(&masked);
        let plan = routing_for(topology, &masked, packets.len());
        let make = |lo, hi| Unicast::for_range(plan.as_ref(), packets, lo, hi, &admission);
        run_core_pool(topology, packets.len(), max_cycles, observer, threads, make).0
    }
}

/// [`simulate_churn`] sharded across `threads` OS threads. Each lane
/// owns a **replica** of the masked router and applies the same event
/// stream in its event-commit stage — no shared lock anywhere, and
/// bit-identical to the serial churn engine at any thread count.
pub fn simulate_parallel_churn<T, R>(
    topology: &T,
    router: &R,
    timeline: &ChurnTimeline,
    packets: &[Packet],
    max_cycles: u64,
    threads: usize,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + Sync + ?Sized,
{
    let o = &mut NoopObserver;
    simulate_parallel_churn_observed(topology, router, timeline, packets, max_cycles, threads, o)
}

/// [`simulate_parallel_churn`] with a forked observer — see
/// [`simulate_parallel_observed`] for the fork/merge contract.
pub fn simulate_parallel_churn_observed<T, R, O>(
    topology: &T,
    router: &R,
    timeline: &ChurnTimeline,
    packets: &[Packet],
    max_cycles: u64,
    threads: usize,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + Sync + ?Sized,
    O: SimObserver + Send,
{
    let n = topology.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return simulate_churn(topology, router, timeline, packets, max_cycles, observer);
    }
    if timeline.is_empty() {
        // Zero churn is the healthy network: skip the replica builds.
        let empty = FaultSet::empty();
        return simulate_parallel_observed(
            topology, router, &empty, packets, max_cycles, threads, observer,
        );
    }
    let make = |lo, hi| ChurnUnicast::open(topology, router, timeline.events(), packets, lo, hi);
    run_core_pool(topology, packets.len(), max_cycles, observer, threads, make).0
}

/// [`simulate_request_reply`] sharded across `threads` OS threads: the
/// session machine is replicated on every lane (identical RNG streams),
/// with packet effects gated on node ownership. `stats.offered` comes
/// from lane 0's replica, exactly the serial machine's tally.
pub fn simulate_parallel_request_reply<T, R, O>(
    topology: &T,
    router: &R,
    timeline: &ChurnTimeline,
    load: &RequestReplyLoad,
    max_cycles: u64,
    threads: usize,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + Sync + ?Sized,
    O: SimObserver + Send,
{
    let n = topology.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return simulate_request_reply(topology, router, timeline, load, max_cycles, observer);
    }
    assert!(n >= 2, "request/reply needs a peer to talk to (>= 2 nodes)");
    let (mut stats, lanes) = run_core_pool(topology, 0, max_cycles, observer, threads, |_, _| {
        ChurnUnicast::closed(topology, router, timeline.events(), load)
    });
    stats.offered = lanes[0].offered();
    stats
}

/// [`simulate_collective`](crate::simulate_collective) sharded across
/// `threads` OS threads: copies spawn at the lane owning the spawning
/// node and the reached-target tally sums over lanes.
pub fn simulate_parallel_collective<T, O>(
    topology: &T,
    plan: &CopyPlan,
    max_cycles: u64,
    threads: usize,
    observer: &mut O,
) -> (SimStats, usize)
where
    T: Topology + ?Sized,
    O: SimObserver + Send,
{
    let n = topology.len();
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 {
        return super::simulate_collective(topology, plan, max_cycles, observer);
    }
    let make = |_, _| Replicate::new(plan);
    let (stats, lanes) = run_core_pool(
        topology,
        plan.offered(),
        max_cycles,
        observer,
        threads,
        make,
    );
    (stats, lanes.iter().map(|w| w.reached_targets).sum())
}
