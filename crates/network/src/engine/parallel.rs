//! The lane driver of the store-and-forward engine ([`run_lanes`],
//! which builds one [`SafLane`] per node shard) and its pooled
//! protocol: `k` lanes on a scoped thread pool, exchanging outbox
//! messages under a barrier protocol.
//!
//! This module contains **no cycle logic**: the per-cycle stages live on
//! the workloads ([`LaneWorkload`]), and the one stepper driving them,
//! [`run_lane`](super::stepper::run_lane), is the same function a
//! one-lane [`run`](super::run) drives under the no-sync
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

use crate::experiment::ExperimentError;
use crate::observer::SimObserver;
use crate::router::Router;
use crate::topology::Topology;

use super::core::SafLane;
use super::policy::{FaultState, ReplicationPolicy};
use super::stats::SimStats;
use super::stepper::{lane_bounds, run_lane, LaneWorkload, Protocol, Solo};
use super::RunPlan;

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
/// thread per lane) and hands them back for the ordered merge.
fn run_pool<W>(mut lanes: Vec<W>, max_cycles: u64) -> Vec<W>
where
    W: LaneWorkload<Msg: Send + Sync> + Send,
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

/// Runs a store-and-forward workload of `plan` over the shards of
/// [`lane_bounds`], each lane meeting the fault state `fault()` builds
/// and running the workload `make(lo, hi)` builds for its node shard;
/// returns the finished stats and the lane workloads in lane order
/// (carrying outputs such as the collective's tally). One lane runs
/// under [`Solo`] on the caller's thread, borrowing `observer` — no
/// fork, no thread. More lanes run on the pool, each borrowing its own
/// [`SimObserver::fork`] (an observer that opts out is the typed
/// [`ExperimentError::UnforkableObserver`]); forks and statistics merge
/// back in ascending lane order, so the result equals the one-lane
/// run's.
pub(crate) fn run_lanes<'f, T, R, O, W>(
    plan: &RunPlan<'_, T, R>,
    offered: usize,
    lanes: usize,
    observer: &mut O,
    fault: impl Fn() -> FaultState<'f, R>,
    mut make: impl FnMut(u32, u32) -> W,
) -> Result<(SimStats, Vec<W>), ExperimentError>
where
    T: Topology + ?Sized,
    R: Router + Sync + ?Sized + 'f,
    O: SimObserver + Send,
    W: ReplicationPolicy<O, R> + Send,
{
    let (g, max_cycles) = (plan.topology.graph(), plan.max_cycles);
    let bounds = lane_bounds(plan.topology.len(), lanes);
    if let [(lo, hi)] = bounds[..] {
        let mut lane = SafLane::new(g, lo, hi, observer, make(lo, hi), fault());
        run_lane(&mut lane, &Solo::default(), 0, max_cycles);
        let acc = lane.core.shard.acc;
        return Ok((acc.finish(offered), vec![lane.workload]));
    }
    let mut forks = (0..bounds.len())
        .map(|_| O::fork(observer))
        .collect::<Option<Vec<O>>>()
        .ok_or_else(|| ExperimentError::UnforkableObserver {
            observer: std::any::type_name::<O>().to_string(),
            threads: bounds.len(),
        })?;
    let pool: Vec<_> = bounds
        .iter()
        .zip(&mut forks)
        .map(|(&(lo, hi), fork)| SafLane::new(g, lo, hi, fork, make(lo, hi), fault()))
        .collect();
    let mut retired = run_pool(pool, max_cycles).into_iter();
    let first = retired.next().expect("a pooled run has at least two lanes");
    let (mut acc, mut done) = (first.core.shard.acc, vec![first.workload]);
    for lane in retired {
        acc.merge(lane.core.shard.acc);
        done.push(lane.workload);
    }
    for fork in forks {
        observer.merge(fork);
    }
    Ok((acc.finish(offered), done))
}
