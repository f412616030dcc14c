//! The compile-time policy traits of the unified engine core.
//!
//! [`run`](super::run) picks the switching model from the plan's
//! [`SwitchingSpec`](crate::switching::SwitchingSpec); within it, each
//! run monomorphizes over two policy traits (plus the [`SimObserver`]
//! event axis):
//!
//! - [`FaultPolicy`] — injection admission: admit everything
//!   ([`AdmitAll`]) or drop packets whose endpoints are dead or
//!   disconnected, with typed reasons ([`MaskedAdmission`]).
//! - [`ReplicationPolicy`] — what happens to a packet at the far end of
//!   a hop: unicast routing toward a destination, or tree replication at
//!   intermediate nodes (the collective path).
//!
//! Every policy is a zero-sized or reference-carrying struct resolved at
//! compile time, so each combination monomorphizes to its own
//! specialized loop — a healthy run pays nothing for the fault axis.

use crate::arena::PacketSlab;
use crate::observer::SimObserver;
use crate::router::{FaultMaskingRouter, Router};

use super::core::{Core, SafMsg};
use super::stats::DropReason;

/// Injection-time admission policy: decides per packet whether the
/// engine routes it or drops it with a typed reason.
///
/// # Invariants
///
/// - `verdict` must be **pure and stable between fault-epoch
///   boundaries**: the same `(src, dst)` pair always gets the same
///   answer while the fault state is unchanged (the parallel engine
///   calls it from several threads and the serial/parallel equivalence
///   depends on it). Policies over static fault sets ([`AdmitAll`],
///   [`MaskedAdmission`]) are stable for the whole run; under churn the
///   engine applies fault events only at cycle boundaries, so every
///   verdict within one cycle sees one consistent epoch (see
///   [`MaskedAdmission`]).
/// - A `Some(reason)` verdict means the packet never enters the network:
///   it is counted under the matching typed-drop statistic at its inject
///   cycle and no link state changes.
/// - Healthy runs use [`AdmitAll`], which monomorphizes the drop branch
///   away entirely — attaching a fault policy must cost nothing when
///   there are no faults.
pub trait FaultPolicy {
    /// `Some(reason)` to drop the packet at injection, `None` to route.
    fn verdict(&self, src: u32, dst: u32) -> Option<DropReason>;
}

/// Admits everything — monomorphizes the drop branch away entirely.
pub struct AdmitAll;

impl FaultPolicy for AdmitAll {
    #[inline]
    fn verdict(&self, _src: u32, _dst: u32) -> Option<DropReason> {
        None
    }
}

/// Admission against a [`FaultMaskingRouter`]'s masks and healthy-BFS
/// reachability: dead endpoints drop as
/// [`DropReason::DeadEndpoint`], surviving-but-disconnected pairs as
/// [`DropReason::Unreachable`].
///
/// Under churn the masks change mid-run as events apply. The churn
/// engine applies events only at cycle boundaries, between the arrival
/// phase and the next injection phase, and builds a fresh admission
/// per borrow after the cycle's events commit — so every verdict in a
/// cycle sees the same fault epoch, the weakest stability
/// [`FaultPolicy`] permits. Such a borrow must not outlive its cycle:
/// the next event application invalidates its verdicts.
pub struct MaskedAdmission<'a, 'b, R: Router + ?Sized> {
    masked: &'a FaultMaskingRouter<'b, R>,
}

impl<'a, 'b, R: Router + ?Sized> MaskedAdmission<'a, 'b, R> {
    /// Admission checked against `masked`'s node liveness and
    /// reachability — the same masked router the degraded run routes
    /// through, so admitted packets are guaranteed routable.
    pub fn new(masked: &'a FaultMaskingRouter<'b, R>) -> MaskedAdmission<'a, 'b, R> {
        MaskedAdmission { masked }
    }
}

impl<R: Router + ?Sized> FaultPolicy for MaskedAdmission<'_, '_, R> {
    fn verdict(&self, src: u32, dst: u32) -> Option<DropReason> {
        if !self.masked.node_alive(src) || !self.masked.node_alive(dst) {
            Some(DropReason::DeadEndpoint)
        } else if src != dst && !self.masked.reachable(src, dst) {
            Some(DropReason::Unreachable)
        } else {
            None
        }
    }
}

/// The workload half of the store-and-forward engine: the per-cycle
/// *stages* the unified stepper (`engine/stepper.rs`)
/// drives against one lane's [`Core`]. A lane is a contiguous node
/// shard — the whole network in a serial run, one of `k` shards in a
/// sharded one — and the **same** monomorphized stage code runs either
/// way; only the outbox protocol between stages differs. Crate-internal
/// impls cover unicast routing, collective tree replication, and the
/// churn/request-reply workloads — the trait is public for
/// documentation, but a [`Core`] can only be driven from inside the
/// crate.
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
pub trait ReplicationPolicy<O: SimObserver> {
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
