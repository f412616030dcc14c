//! The lane driver of the store-and-forward engine ([`run_lanes`],
//! which builds one [`SafLane`] per node shard) and its pooled
//! protocol: `k` lanes, lane 0 on the caller's thread and `k − 1` on
//! scoped threads, exchanging outbox messages under a barrier protocol.
//!
//! This module contains **no cycle logic**: the per-cycle stages live
//! on the workloads, and the one stepper driving them,
//! [`run_lane`](super::stepper::run_lane), is the same function a
//! one-lane [`run`](super::run) drives under the no-sync
//! [`Solo`](super::stepper::Solo) protocol. Here the protocol is
//! [`Pooled`]: per-lane `RwLock`'d outboxes and published atomic
//! counters, with two [`LaneBarrier`] waits per cycle — one after
//! **propose** (every outbox is filled, so commit may read them all in
//! ascending lane order, exactly the serial scan order) and one inside
//! **exchange** (every lane has published its queued/next-pending pair;
//! the wait fences this cycle's commit reads from the next cycle's
//! propose writes). Every control-flow decision derives from the
//! exchanged pair or from deterministically replicated state, so all
//! lanes hit the same barriers the same number of times. Stages touch
//! only lane-local state and cross-lane effects are committed in lane
//! order, so results are **bit-identical at any thread count**.
//!
//! The barrier counts generations: a waiter spins up to [`SPIN`] times,
//! then parks on a condition variable, and spins only when every lane
//! can have a CPU ([`spins`]), so an oversubscribed run parks at once.
//! A lane that unwinds poisons the barrier: every waiter wakes and
//! panics, and the run re-raises the first lane's panic, never hangs.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Condvar, Mutex, RwLock};

use crate::experiment::ExperimentError;
use crate::observer::SimObserver;
use crate::router::Router;
use crate::topology::Topology;

use super::core::SafLane;
use super::policy::{FaultState, ReplicationPolicy};
use super::stats::SimStats;
use super::stepper::{lane_bounds, run_lane, Protocol, Solo};
use super::RunPlan;

/// Sentinel for "no pending traffic" in the published atomic.
const NO_PENDING: u64 = u64::MAX;

/// Spin iterations a barrier waiter tries before it parks.
const SPIN: u32 = 20_000;

/// The park lock guards one counter, and no lane panics holding it.
const PARK_LOCK: &str = "the park lock is never poisoned";

/// Whether `lanes` waiters on `cpus` CPUs (`None`: unknown, taken as
/// one) spin before parking: only if no lane waits for a spinner's CPU.
fn spins(lanes: usize, cpus: Option<usize>) -> bool {
    lanes <= cpus.unwrap_or(1)
}

/// A reusable spin-then-park barrier for `lanes` lanes (module docs).
#[derive(Default)]
struct LaneBarrier {
    lanes: usize,
    spin: bool,
    arrived: AtomicUsize,
    /// Stored (`Release`) by the last arriver, loaded (`Acquire`) by the
    /// waiters: every lane's writes before a wait are visible after it.
    generation: AtomicUsize,
    /// One more than the first lane that unwound; 0 while none has.
    poisoned: AtomicUsize,
    /// How many waiters are parked on `wake`.
    parked: Mutex<usize>,
    wake: Condvar,
}

impl LaneBarrier {
    /// Blocks until all lanes have arrived; returns whether this waiter
    /// slept. Panics if another lane unwound.
    fn wait(&self) -> bool {
        let gen = self.generation.load(Acquire);
        if self.arrived.fetch_add(1, AcqRel) + 1 == self.lanes {
            // Open the next generation, then wake the registered waiters;
            // one registering after this lock sees the new generation.
            self.arrived.store(0, Relaxed);
            self.generation.store(gen.wrapping_add(1), Release);
            if *self.parked.lock().expect(PARK_LOCK) > 0 {
                self.wake.notify_all();
            }
            return false;
        }
        let released = || self.generation.load(Acquire) != gen;
        for _ in 0..if self.spin { SPIN } else { 0 } {
            if released() {
                return false;
            }
            std::hint::spin_loop();
        }
        let (mut parked, mut slept) = (self.parked.lock().expect(PARK_LOCK), false);
        *parked += 1;
        while !released() && self.poisoned.load(Acquire) == 0 {
            (parked, slept) = (self.wake.wait(parked).expect(PARK_LOCK), true);
        }
        *parked -= 1;
        drop(parked);
        assert!(released(), "another lane panicked");
        slept
    }

    /// Records that lane `me` unwound (unless another lane did first)
    /// and wakes every parked waiter.
    fn poison(&self, me: usize) {
        let _ = self.poisoned.compare_exchange(0, me + 1, AcqRel, Acquire);
        let _parked = self.parked.lock().expect(PARK_LOCK);
        self.wake.notify_all();
    }
}

/// One lane's published counters: its queued packet count and the cycle
/// of its next pending traffic action (`NO_PENDING` if none).
#[derive(Default)]
struct ShardSlot {
    queued: AtomicU64,
    next: AtomicU64,
}

/// The pooled lane protocol, shared by every lane — see the module docs
/// for the barrier schedule and the determinism argument.
struct Pooled<M> {
    outboxes: Vec<RwLock<Vec<M>>>,
    slots: Vec<ShardSlot>,
    barrier: LaneBarrier,
}

impl<M> Pooled<M> {
    /// The protocol for `k` lanes, spinning by [`spins`] on this host.
    fn new(k: usize) -> Pooled<M> {
        let cpus = std::thread::available_parallelism().ok().map(usize::from);
        Pooled {
            outboxes: (0..k).map(|_| RwLock::default()).collect(),
            slots: (0..k).map(|_| ShardSlot::default()).collect(),
            barrier: LaneBarrier {
                lanes: k,
                spin: spins(k, cpus),
                ..LaneBarrier::default()
            },
        }
    }
}

impl<M> Protocol<M> for Pooled<M> {
    fn exchange(&self, me: usize, queued: u64, next: Option<u64>) -> (u64, Option<u64>) {
        let slot = &self.slots[me];
        slot.queued.store(queued, Relaxed);
        slot.next.store(next.unwrap_or(NO_PENDING), Relaxed);
        self.barrier.wait();
        let sum = self.slots.iter().map(|s| s.queued.load(Relaxed)).sum();
        let min = self.slots.iter().map(|s| s.next.load(Relaxed)).min();
        (sum, min.filter(|&t| t != NO_PENDING))
    }

    fn propose(&self, me: usize, fill: impl FnOnce(&mut Vec<M>)) {
        let mut out = self.outboxes[me].write().unwrap();
        out.clear();
        fill(&mut out);
        drop(out);
        self.barrier.wait();
    }

    fn commit(&self, _me: usize, mut visit: impl FnMut(&M)) {
        for outbox in &self.outboxes {
            for msg in outbox.read().unwrap().iter() {
                visit(msg);
            }
        }
    }
}

/// Runs `lane(me, &mut lanes[me])` for every lane, lane 0 on the
/// caller's thread and the rest on scoped threads. A lane that panics
/// poisons `barrier`; once every lane has stopped, the first such
/// lane's panic is re-raised.
fn run_pool<W: Send>(lanes: &mut [W], barrier: &LaneBarrier, lane: impl Fn(usize, &mut W) + Sync) {
    let guarded = &|me: usize, w: &mut W| {
        panic::catch_unwind(AssertUnwindSafe(|| lane(me, w))).inspect_err(|_| barrier.poison(me))
    };
    let results: Vec<_> = std::thread::scope(|scope| {
        let (first, rest) = lanes.split_first_mut().expect("a pool has a lane");
        let threads: Vec<_> = (rest.iter_mut().enumerate())
            .map(|(i, w)| scope.spawn(move || guarded(i + 1, w)))
            .collect();
        std::iter::once(guarded(0, first))
            .chain(threads.into_iter().map(|t| t.join().unwrap_or_else(Err)))
            .collect()
    });
    let first = barrier.poisoned.load(Acquire).checked_sub(1);
    if let Some(Err(payload)) = first.and_then(|lane| results.into_iter().nth(lane)) {
        panic::resume_unwind(payload);
    }
}

/// Runs a store-and-forward workload of `plan` over the shards of
/// [`lane_bounds`], each lane meeting the fault state `fault()` builds
/// and running the workload `make(lo, hi)` builds for its node shard;
/// returns the finished stats and the lane workloads in lane order
/// (carrying outputs such as the collective's tally). One lane runs
/// under [`Solo`] on the caller's thread, borrowing `observer` — no
/// fork, no thread. More lanes run on [`run_pool`], each borrowing its
/// own [`SimObserver::fork`] (an observer that opts out is the typed
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
    let mut pool: Vec<_> = bounds
        .iter()
        .zip(&mut forks)
        .map(|(&(lo, hi), fork)| SafLane::new(g, lo, hi, fork, make(lo, hi), fault()))
        .collect();
    let proto = Pooled::new(pool.len());
    run_pool(&mut pool, &proto.barrier, |me, lane| {
        run_lane(lane, &proto, me, max_cycles)
    });
    let mut retired = pool.into_iter();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_rule_spins_only_when_every_lane_has_a_cpu() {
        assert!(spins(2, Some(2)) && spins(3, Some(8)) && spins(1, None));
        assert!(!spins(3, Some(2)) && !spins(2, None) && !spins(64, Some(8)));
    }

    /// Each round every lane proposes `(round, lane)` and publishes a new
    /// value, so a lane that passed a barrier early reads stale data.
    #[test]
    fn lanes_exchange_in_lockstep_spinning_or_parked() {
        for (k, cpus) in [(2, Some(2)), (3, Some(2))] {
            let mut proto = Pooled::new(k);
            proto.barrier.spin = spins(k, cpus);
            let value = |r: u64, s: usize| (r * 7 + s as u64 * 3) % 11;
            let next = |v: u64| (!v.is_multiple_of(4)).then_some(v);
            let mut slept = vec![0u64; k];
            run_pool(&mut slept, &proto.barrier, |me, slept| {
                for r in 0..10_000 {
                    proto.propose(me, |out| out.push((r, me)));
                    let mut seen = Vec::new();
                    proto.commit(me, |&m| seen.push(m));
                    assert_eq!(seen, (0..k).map(|s| (r, s)).collect::<Vec<_>>());
                    let all: Vec<u64> = (0..k).map(|s| value(r, s)).collect();
                    let want = (all.iter().sum(), all.iter().filter_map(|&v| next(v)).min());
                    let v = value(r, me);
                    assert_eq!(proto.exchange(me, v, next(v)), want);
                    *slept += u64::from(proto.barrier.wait());
                }
            });
            let parked = slept.iter().any(|&n| n > 0);
            assert!(k == 2 || parked, "3 lanes on 2 CPUs never parked");
        }
    }
}
