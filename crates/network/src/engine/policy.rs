//! The compile-time policy traits of the unified engine core.
//!
//! [`run`](super::run) picks the switching model from the plan's
//! [`SwitchingSpec`](crate::switching::SwitchingSpec); within it, each
//! run monomorphizes over two policy traits (plus the [`SimObserver`]
//! event axis):
//!
//! - [`FaultPolicy`] — the fault state a routed workload meets, picked
//!   by the plan's admission: the healthy network ([`Healthy`]), a
//!   shared static fault mask ([`Static`]), or a lane-owned churn
//!   replica (`Churn`, in `engine/churn.rs`). It owns the injection
//!   verdict and the routing view, and under churn also the event
//!   commit and the en-route drops.
//! - [`ReplicationPolicy`] — the workload: open-loop unicast packets,
//!   closed-loop request/reply sessions (both generic over the fault
//!   state), or tree replication at intermediate nodes (the collective
//!   path).
//!
//! Every policy is a small struct resolved at compile time, so each
//! combination monomorphizes to its own specialized loop — a healthy
//! run pays nothing for the fault axis.

use crate::arena::PacketSlab;
use crate::observer::SimObserver;
use crate::router::{FaultMaskingRouter, Router};

use super::core::{Core, Routing, SafMsg};
use super::stats::DropReason;

/// The fault state of a routed workload: admission, routing and (under
/// churn) event commit. Each lane owns one value.
///
/// # Invariants
///
/// - `verdict` must be **pure and stable between fault-epoch
///   boundaries**: the same `(src, dst)` pair always gets the same
///   answer while the fault state is unchanged (every lane evaluates
///   it, and the serial/sharded equivalence depends on it). [`Healthy`]
///   and [`Static`] are stable for the whole run; under churn the engine
///   applies fault events only at cycle boundaries, so every verdict
///   within one cycle sees one consistent epoch.
/// - A `Some(reason)` verdict means the packet never enters the network:
///   it is counted under the matching typed-drop statistic at its inject
///   cycle and no link state changes.
/// - An admitted packet stays routable under a fixed fault state, so
///   only churn has en-route drops (`en_route`) and events to commit
///   (`commit_events`); the defaults do nothing and monomorphize away.
pub(crate) trait FaultPolicy {
    /// The router the routing view borrows.
    type Router: Router + ?Sized;

    /// `Some(reason)` to drop the packet at injection, `None` to route.
    fn verdict(&self, src: u32, dst: u32) -> Option<DropReason>;

    /// How the current fault epoch resolves each hop.
    fn routing(&self) -> Routing<'_, Self::Router>;

    /// `Some(reason)` when a packet at `node` bound for `dst` can no
    /// longer be routed — the fault state changed under it.
    #[inline]
    fn en_route(&self, node: u32, dst: u32) -> Option<DropReason> {
        let _ = (node, dst);
        None
    }

    /// Event-commit stage: applies the fault events due at or before
    /// `cycle`, flushing the queues of dying links and nodes the lane
    /// owns as typed drops (or silently, when `silent`: the closed
    /// loop's timeouts observe the loss).
    #[inline]
    fn commit_events<O: SimObserver>(&mut self, cycle: u64, core: &mut Core<'_, O>, silent: bool) {
        let _ = (cycle, core, silent);
    }
}

/// The healthy network: admits everything and routes by the run's
/// routing plan (a precomputed table or per-hop policy calls).
pub(crate) struct Healthy<'t, R: ?Sized>(pub(crate) Routing<'t, R>);

impl<R: Router + ?Sized> FaultPolicy for Healthy<'_, R> {
    type Router = R;

    #[inline]
    fn verdict(&self, _src: u32, _dst: u32) -> Option<DropReason> {
        None
    }

    #[inline]
    fn routing(&self) -> Routing<'_, R> {
        self.0
    }
}

/// A static fault set: every lane borrows the one caller-built
/// [`FaultMaskingRouter`], routes through it, and drops packets whose
/// endpoints are dead or disconnected at injection ([`masked_verdict`]).
pub(crate) struct Static<'m, R: Router + ?Sized>(pub(crate) &'m FaultMaskingRouter<'m, R>);

impl<'m, R: Router + ?Sized> FaultPolicy for Static<'m, R> {
    type Router = FaultMaskingRouter<'m, R>;

    #[inline]
    fn verdict(&self, src: u32, dst: u32) -> Option<DropReason> {
        masked_verdict(self.0, src, dst)
    }

    #[inline]
    fn routing(&self) -> Routing<'_, FaultMaskingRouter<'m, R>> {
        Routing::PerHop(self.0)
    }
}

/// Admission against a [`FaultMaskingRouter`]'s masks and reachability:
/// dead endpoints drop as [`DropReason::DeadEndpoint`],
/// surviving-but-disconnected pairs as [`DropReason::Unreachable`]. The
/// same router routes the admitted packets, so they are routable.
#[inline]
pub(crate) fn masked_verdict<R: Router + ?Sized>(
    masked: &FaultMaskingRouter<'_, R>,
    src: u32,
    dst: u32,
) -> Option<DropReason> {
    if !masked.node_alive(src) || !masked.node_alive(dst) {
        Some(DropReason::DeadEndpoint)
    } else if src != dst && !masked.reachable(src, dst) {
        Some(DropReason::Unreachable)
    } else {
        None
    }
}

/// The workload half of the store-and-forward engine: the per-cycle
/// *stages* the unified stepper (`engine/stepper.rs`)
/// drives against one lane's [`Core`]. A lane is a contiguous node
/// shard — the whole network in a serial run, one of `k` shards in a
/// sharded one — and the **same** monomorphized stage code runs either
/// way; only the outbox protocol between stages differs.
///
/// # Invariants (the sharding contract)
///
/// - `next_pending` feeds the lockstep idle-skip/termination decision:
///   min-folded over lanes it must equal the serial engine's
///   next-traffic cycle. It must not touch arena state.
/// - `commit_events` (the churn event-commit stage) runs first each
///   executed cycle. Event *decisions* must be lane-invariant
///   (replicated deterministic state); event *effects* (queue flushes,
///   drop accounting) must be gated on node ownership.
/// - `inject` may create packets only at nodes the lane owns
///   (`Core::owns`); admission verdicts must be identical on every
///   lane that evaluates them (same fault epoch — see [`FaultPolicy`]).
/// - `depart` observes each packet the forward scan pops **before** its
///   slab slot is released, and may fill the workload-overloaded
///   `SafMsg` fields; it must not touch link state.
/// - `commit` is called for **every** lane's messages in ascending lane
///   order — the serial pop order. Real effects (delivery, re-enqueue,
///   drop accounting) must be gated on `core.owns(msg.node)`; mirror
///   state that every lane replicates (the request/reply session
///   machine) updates unconditionally and identically on every lane.
/// - `end_cycle` runs after all of the cycle's commits and before the
///   `on_cycle_end` event (the one-port collective uses it to spawn
///   follow-up copies that must not depart until the next cycle).
pub(crate) trait ReplicationPolicy<O: SimObserver> {
    /// The earliest future cycle at which this lane can add new traffic,
    /// or `None` if it never will. Drives the idle fast-forward and the
    /// drained-run termination check.
    fn next_pending(&mut self) -> Option<u64>;

    /// Event-commit stage: applies due fault/repair events (churn).
    /// Default: no events.
    fn commit_events(&mut self, cycle: u64, core: &mut Core<'_, O>) {
        let _ = (cycle, core);
    }

    /// Injection stage: admits due traffic at this lane's own nodes.
    fn inject(&mut self, cycle: u64, core: &mut Core<'_, O>);

    /// Pop-time hook: fills workload-specific `SafMsg` fields before
    /// the slab slot is released. Default: the unicast fields stand.
    fn depart(&mut self, u: u32, id: u32, slab: &PacketSlab, msg: &mut SafMsg) {
        let _ = (u, id, slab, msg);
    }

    /// Arrival-commit stage: one message, presented to every lane in
    /// the serial pop order at the `cycle + 1` boundary.
    fn commit(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O>);

    /// End-of-cycle stage, after every commit of cycle `now` resolved.
    /// Default: nothing deferred.
    fn end_cycle(&mut self, now: u64, core: &mut Core<'_, O>) {
        let _ = (now, core);
    }
}
