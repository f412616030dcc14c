//! The fault state and the workload interface of the store-and-forward
//! lane.
//!
//! - [`FaultState`] — the fault state a routed workload meets, one value
//!   per lane, built by [`FaultState::new`] from the plan's
//!   [`Admission`]: the healthy network (the run's [`Routing`] view), a
//!   shared static fault mask, or a lane-owned churn replica of the
//!   masked router plus its event cursor. It owns the injection verdict,
//!   the hop routing, and under churn the event commit and the en-route
//!   drops, which one hop query decides together with the hop. It is one
//!   concrete enum, so each workload and lane type compiles once per
//!   observer type, not once per fault state; the per-hop `match` is one
//!   predictable branch.
//! - [`ReplicationPolicy`] — the workload: open-loop unicast packets or
//!   closed-loop request/reply sessions (both over any fault state), or
//!   tree replication at intermediate nodes (the collective path).
//!
//! The flit engine (`engine/wormhole.rs`) owns a `FaultState` of its own
//! and shares its admission ([`FaultState::admit`]) and hop routing.

use std::cell::OnceCell;

use fibcube_graph::csr::CsrGraph;

use crate::arena::{Loads, NodeLoad, PacketSlab};
use crate::experiment::ExperimentError;
use crate::fault::{ChurnEvent, ChurnTarget, FaultError, FaultSet};
use crate::observer::SimObserver;
use crate::router::{FaultMaskingRouter, NextHopTable, Router};
use crate::topology::Topology;

use super::core::{Core, SafMsg};
use super::stats::DropReason;
use super::stepper::Shard;
use super::{Admission, RunPlan};

/// How the healthy network resolves each hop: a dense precomputed table
/// (one load per hop) or per-hop policy calls ([`Router::next_slot`]:
/// live link-load view plus, unless the policy knows the slot in closed
/// form, a slot search in the node's neighbor list — a couple of
/// compares in one already-hot cache line, which beats any big-table
/// lookup here).
/// Every lane of a sharded run borrows the same table.
pub(crate) enum Routing<'t, R: ?Sized> {
    Table(&'t NextHopTable),
    PerHop(&'t R),
}

/// The largest next-hop table a healthy run builds, in bytes (`4n²`:
/// 724 nodes). Past a few megabytes the table no longer fits the cache
/// it was meant to save trips to, and one load per hop from it costs
/// about what a closed-form per-hop decision does. Measured with the
/// canonical router on `uniform(count=c,window=c/10)`, one lane, best
/// of 5 in-process runs (table build included), 2–5 interleaved pairs
/// on a 2-vCPU x86-64 host; speed is per-hop time over table time, and
/// peak RSS is the table run's `VmHWM` over the per-hop run's:
///
/// | net | table | c | speed | peak RSS |
/// |---|---|---|---|---|
/// | Γ_12 | 0.57 MB | 100 000 | 1.20–1.40× | equal |
/// | Γ_13 | 1.49 MB | 150 000 | 0.97–1.15× | +0.4 MB |
/// | Γ_14 | 3.90 MB | 200 000 | 0.90–1.03× | +3.6 MB |
/// | Γ_15 | 10.2 MB | 500 000 | 0.87–0.89× | +9.4 MB |
/// | Γ_16 | 26.7 MB | 1 000 000 | 0.67–0.74× | +18 MB |
///
/// The cap sits below Γ_14, where the table stops saving time but
/// still costs its bytes.
const MAX_ROUTING_TABLE_BYTES: u64 = 2 << 20;

/// The next-hop table for a healthy run, when one pays: tabulate when
/// the expected number of route lookups (≈ `packets × diameter/2`, a
/// proxy for packets × average distance) amortises the `O(n²)` table
/// build, the table fits [`MAX_ROUTING_TABLE_BYTES`], *and* the policy
/// can be tabulated at all. See [`NextHopTable`] for the trade-off. A
/// run builds it once (with the global packet count), so every lane
/// takes the same path.
fn routing_for<T, R>(topology: &T, router: &R, packets: usize) -> Option<NextHopTable>
where
    T: Topology + ?Sized,
    R: Router + ?Sized,
{
    let g = topology.graph();
    let n = g.num_vertices() as u64;
    let lookups = (packets as u64).saturating_mul((topology.diameter_bound() as u64 / 2).max(1));
    let bytes = n.saturating_mul(n).saturating_mul(size_of::<u32>() as u64);
    (lookups >= n.saturating_mul(n) && bytes <= MAX_ROUTING_TABLE_BYTES)
        .then(|| router.precompute(g))
        .flatten()
}

/// The fault state of one lane: admission, hop routing and (under
/// churn) event commit. It mirrors [`Admission`], with an intact mask
/// and an empty timeline folded into the healthy arm.
///
/// # Invariants
///
/// - `verdict` (and `first_hop` / `forward`, which decide it together
///   with the hop) is **pure and stable between fault-epoch
///   boundaries**: the same `(src, dst)` pair always gets the same
///   answer while the fault state is unchanged, whichever lane asks
///   (the serial/sharded equivalence depends on it). The healthy and static
///   arms are stable for the whole run; churn applies events only at
///   cycle boundaries ([`commit_events`](FaultState::commit_events)),
///   so every verdict within one cycle sees one consistent epoch.
/// - An `Err(reason)` verdict means the packet never enters the network:
///   it is counted under the matching typed-drop statistic at its inject
///   cycle and no link state changes.
/// - An admitted packet stays routable under a fixed fault state, so
///   only churn has en-route drops and events to commit; the other arms
///   never refuse a `forward` and commit nothing.
pub(crate) enum FaultState<'a, R: Router + ?Sized> {
    /// The healthy network: admits everything and routes by the run's
    /// table or per-hop policy calls.
    Healthy(Routing<'a, R>),
    /// A static fault set: every lane borrows the one caller-built
    /// [`FaultMaskingRouter`], routes through it, and drops packets
    /// whose endpoints are dead or disconnected at injection.
    Static(&'a FaultMaskingRouter<'a, R>),
    /// Churn: a lane-owned **replica** of the masked router and the
    /// cursor of the next timeline event, so events can flip its masks
    /// and update its distances mid-run without any cross-lane lock
    /// — every lane applies the same deterministic event stream, so the
    /// replicas never diverge.
    Churn {
        router: FaultMaskingRouter<'a, R>,
        events: &'a [ChurnEvent],
        next: usize,
    },
}

impl<'a, R: Router + ?Sized> FaultState<'a, R> {
    /// The fault state one lane of `plan` meets, picked by its
    /// admission. An intact mask and an empty timeline run the healthy
    /// network, through the table `table` holds once the first lane has
    /// decided whether tabulating `packets` routes pays; a churn lane
    /// builds its replica of the intact masked router.
    pub(crate) fn new<T: Topology + ?Sized>(
        plan: &RunPlan<'a, T, R>,
        packets: usize,
        table: &'a OnceCell<Option<NextHopTable>>,
    ) -> Self {
        let router = match plan.admission {
            Admission::Static(mask) if !mask.masks().is_intact() => {
                return FaultState::Static(mask)
            }
            Admission::Churn(t) if !t.is_empty() => {
                return FaultState::Churn {
                    router: FaultMaskingRouter::for_topology(
                        plan.topology,
                        plan.router,
                        &FaultSet::empty(),
                    ),
                    events: t.events(),
                    next: 0,
                };
            }
            Admission::Static(mask) => mask.inner(),
            Admission::Healthy | Admission::Churn(_) => plan.router,
        };
        let table = table.get_or_init(|| routing_for(plan.topology, router, packets));
        FaultState::Healthy(
            table
                .as_ref()
                .map_or(Routing::PerHop(router), Routing::Table),
        )
    }

    /// Refuses an admission [`new`](FaultState::new) could not serve: a
    /// mask built on another graph than the topology's
    /// ([`ExperimentError::TableMismatch`]), a churn event naming a node
    /// outside the topology or a "link" between two nodes that are not
    /// adjacent ([`FaultError::InvalidChurn`]), or a churn replica on a
    /// topology without cube labels whose `2n²`-byte distance table is
    /// over budget ([`ExperimentError::TableTooLarge`] above 23 170
    /// nodes). A labelled topology keeps exception rows, not a table, at
    /// any size.
    pub(crate) fn check<T: Topology + ?Sized>(
        plan: &RunPlan<'_, T, R>,
    ) -> Result<(), ExperimentError> {
        let n = plan.topology.len();
        match plan.admission {
            Admission::Healthy => Ok(()),
            Admission::Static(mask) => {
                let (built, g) = (mask.graph(), plan.topology.graph());
                if std::ptr::eq(built, g) || built == g {
                    return Ok(());
                }
                Err(ExperimentError::TableMismatch {
                    table_nodes: built.num_vertices(),
                    topology_nodes: n,
                })
            }
            Admission::Churn(t) => {
                let g = plan.topology.graph();
                let invalid = |ev: &ChurnEvent| match ev.target {
                    ChurnTarget::Node(x) if x as usize >= n => Some("outside"),
                    ChurnTarget::Link(u, v) if u.max(v) as usize >= n => Some("outside"),
                    ChurnTarget::Link(u, v) if g.slot_of(u, v).is_none() => Some("not a link of"),
                    _ => None,
                };
                for ev in t.events() {
                    if let Some(what) = invalid(ev) {
                        let reason = format!(
                            "the event at cycle {} names {:?}, {what} the {n}-node topology",
                            ev.cycle, ev.target
                        );
                        return Err(ExperimentError::Fault(FaultError::InvalidChurn { reason }));
                    }
                }
                if t.is_empty() {
                    Ok(())
                } else {
                    FaultMaskingRouter::<R>::check_budget(plan.topology)
                }
            }
        }
    }

    /// `Err(reason)` to drop a packet at injection, `Ok` to route:
    /// against a mask, dead endpoints drop as
    /// [`DropReason::DeadEndpoint`] and surviving-but-disconnected pairs
    /// as [`DropReason::Unreachable`]. The same router routes the
    /// admitted packets, so they are routable.
    #[inline]
    pub(crate) fn verdict(&self, src: u32, dst: u32) -> Result<(), DropReason> {
        let mask = match self {
            FaultState::Healthy(_) => return Ok(()),
            FaultState::Static(mask) => *mask,
            FaultState::Churn { router, .. } => router,
        };
        if !mask.node_alive(src) || !mask.node_alive(dst) {
            Err(DropReason::DeadEndpoint)
        } else if src != dst && !mask.reachable(src, dst) {
            Err(DropReason::Unreachable)
        } else {
            Ok(())
        }
    }

    /// The injection stage of one open-loop packet from `src` to `dst`
    /// at `cycle`, shared by both switching models: reports the
    /// injection, counts a self-addressed packet as instantly delivered
    /// (unless the [`verdict`] refuses it), and lets `enter` decide any
    /// other packet — the flit engine passes the verdict itself, the
    /// packet engine [`first_hop`], which also picks the output edge.
    /// A refused packet drops typed; an admitted one returns `enter`'s
    /// value and must enter the network.
    ///
    /// [`verdict`]: FaultState::verdict
    /// [`first_hop`]: FaultState::first_hop
    pub(crate) fn admit<O: SimObserver, T>(
        &self,
        shard: &mut Shard<'_, O>,
        cycle: u64,
        src: u32,
        dst: u32,
        enter: impl FnOnce(&Self) -> Result<T, DropReason>,
    ) -> Option<T> {
        shard.observer.on_inject(cycle, src, dst);
        let entered = if src == dst {
            self.verdict(src, dst).map(|()| None)
        } else {
            enter(self).map(Some)
        };
        match entered {
            Ok(Some(admitted)) => Some(admitted),
            Ok(None) => {
                shard.acc.deliver_instant();
                shard.observer.on_deliver(cycle, dst, 0);
                None
            }
            Err(reason) => {
                shard.acc.drop_packet(reason);
                shard.observer.on_drop(cycle, src, dst, reason);
                None
            }
        }
    }

    /// Resolves the output edge of one hop from `node` toward `dst`
    /// (`node ≠ dst`) in the current fault epoch, or says why the packet
    /// can no longer be routed: under churn its destination may have
    /// died ([`DropReason::NodeDied`]) or been cut off from `node`
    /// ([`DropReason::Unreachable`]) since it was admitted; the other
    /// fault states never strand an admitted packet. Under a mask one
    /// masked-router query decides the drop and the hop together.
    /// `loads` is the caller's link-load column indexed from global edge
    /// `edge_lo` (0 for a whole-network view); the returned edge id is
    /// global. Forced inline, with [`per_hop`]: it runs once per hop,
    /// and the default inliner left it (and the packet engine's callers)
    /// out of line once it matched on the fault state; the masked arms
    /// go out of line instead.
    #[inline(always)]
    pub(crate) fn forward<L: Loads + ?Sized>(
        &self,
        g: &CsrGraph,
        loads: &L,
        edge_lo: usize,
        node: u32,
        dst: u32,
    ) -> Result<usize, DropReason> {
        match self {
            FaultState::Healthy(Routing::Table(table)) => Ok(table
                .next_edge(node, dst)
                .expect("routing a packet not yet at dst")),
            FaultState::Healthy(Routing::PerHop(router)) => {
                Ok(per_hop(*router, g, loads, edge_lo, node, dst))
            }
            FaultState::Static(mask) => masked_hop(mask, g, loads, edge_lo, node, dst),
            FaultState::Churn { router, .. } => masked_hop(router, g, loads, edge_lo, node, dst),
        }
    }

    /// [`forward`](FaultState::forward) for a packet known to be
    /// routable: just admitted, in the flit engine (which never runs
    /// churn), or under a fault state that never strands one.
    #[inline(always)]
    pub(crate) fn route_edge<L: Loads + ?Sized>(
        &self,
        g: &CsrGraph,
        loads: &L,
        edge_lo: usize,
        node: u32,
        dst: u32,
    ) -> usize {
        self.forward(g, loads, edge_lo, node, dst)
            .expect("admitted packets are routable")
    }

    /// The [`verdict`](FaultState::verdict) and the output edge of a
    /// packet injected at `src` for `dst` (`src ≠ dst`) from one
    /// [`forward`](FaultState::forward) query: the masked router's hop
    /// query doubles as the reachability check, so the fault list is
    /// scanned once, and only a refused packet asks the verdict for its
    /// drop reason.
    #[inline(always)]
    pub(crate) fn first_hop<L: Loads + ?Sized>(
        &self,
        g: &CsrGraph,
        loads: &L,
        edge_lo: usize,
        src: u32,
        dst: u32,
    ) -> Result<usize, DropReason> {
        self.forward(g, loads, edge_lo, src, dst).map_err(|_| {
            self.verdict(src, dst)
                .expect_err("a refused hop has a verdict")
        })
    }

    /// Applies every churn event due at or before `cycle` to the router
    /// replica, in timeline order, and returns them for the lane to
    /// flush its queues (`Core::commit_events`); empty outside churn.
    pub(crate) fn commit_events(&mut self, cycle: u64) -> &'a [ChurnEvent] {
        let FaultState::Churn {
            router,
            events,
            next,
        } = self
        else {
            return &[];
        };
        let start = *next;
        while let Some(ev) = events.get(*next).filter(|ev| ev.cycle <= cycle) {
            router.apply_event(ev);
            *next += 1;
        }
        &events[start..*next]
    }
}

/// One masked-router query (`FaultMaskingRouter::hop_or_drop`, which
/// answers an output slot) against the live link loads, offset to the
/// global directed-edge id;
/// out of line so the masked hop rule does not bloat the healthy hop
/// path.
#[inline(never)]
fn masked_hop<R: Router + ?Sized, L: Loads + ?Sized>(
    mask: &FaultMaskingRouter<'_, R>,
    g: &CsrGraph,
    loads: &L,
    edge_lo: usize,
    node: u32,
    dst: u32,
) -> Result<usize, DropReason> {
    let base = g.edge_range(node).start;
    let load = NodeLoad {
        loads,
        base: base - edge_lo,
    };
    Ok(base + mask.hop_or_drop(node, dst, &load)?)
}

/// One per-hop policy call against the live link loads, mapped to the
/// global directed-edge id.
#[inline(always)]
fn per_hop<Q: Router + ?Sized, L: Loads + ?Sized>(
    router: &Q,
    g: &CsrGraph,
    loads: &L,
    edge_lo: usize,
    node: u32,
    dst: u32,
) -> usize {
    let base = g.edge_range(node).start;
    let load = NodeLoad {
        loads,
        base: base - edge_lo,
    };
    base + router
        .next_slot(g, node, dst, &load)
        .expect("routing a packet not yet at dst")
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
/// - The lane commits the due fault events (`Core::commit_events`)
///   before `inject`, each executed cycle. Event *decisions* are
///   lane-invariant (replicated deterministic state); event *effects*
///   (queue flushes, drop accounting) are gated on node ownership.
/// - `inject` may create packets only at nodes the lane owns
///   (`Shard::owns`); admission verdicts are identical on every lane
///   that evaluates them (same fault epoch — see [`FaultState`]).
/// - `depart` observes each packet the forward scan pops **before** its
///   slab slot is released, and may fill the workload-overloaded
///   `SafMsg` fields; it must not touch link state.
/// - `commit` is called for **every** lane's messages in ascending lane
///   order — the serial pop order. Real effects (delivery, re-enqueue,
///   drop accounting) must be gated on owning `msg.node`; mirror
///   state that every lane replicates (the request/reply session
///   machine) updates unconditionally and identically on every lane.
/// - `end_cycle` runs after all of the cycle's commits and before the
///   `on_cycle_end` event (the one-port collective uses it to spawn
///   follow-up copies that must not depart until the next cycle).
pub(crate) trait ReplicationPolicy<O: SimObserver, R: Router + ?Sized> {
    /// Packets on a dying link or node vanish without a typed drop: the
    /// closed loop's timeouts observe the loss instead.
    const SILENT_LOSSES: bool = false;

    /// The earliest future cycle at which this lane can add new traffic,
    /// or `None` if it never will. Drives the idle fast-forward and the
    /// drained-run termination check.
    fn next_pending(&mut self) -> Option<u64>;

    /// Injection stage: admits due traffic at this lane's own nodes.
    fn inject(&mut self, cycle: u64, core: &mut Core<'_, O, R>);

    /// Pop-time hook: fills workload-specific `SafMsg` fields before
    /// the slab slot is released. Default: the unicast fields stand.
    fn depart(&mut self, u: u32, id: u32, slab: &PacketSlab, msg: &mut SafMsg) {
        let _ = (u, id, slab, msg);
    }

    /// Arrival-commit stage: one message, presented to every lane in
    /// the serial pop order at the `cycle + 1` boundary.
    fn commit(&mut self, now: u64, msg: &SafMsg, core: &mut Core<'_, O, R>);

    /// End-of-cycle stage, after every commit of cycle `now` resolved.
    /// Default: nothing deferred.
    fn end_cycle(&mut self, now: u64, core: &mut Core<'_, O, R>) {
        let _ = (now, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::CanonicalRouter;
    use crate::topology::FibonacciNet;

    #[test]
    fn routing_tables_stop_at_the_byte_cap() {
        let small = FibonacciNet::classical(12);
        let router = CanonicalRouter::for_net(&small);
        assert!(routing_for(&small, &router, 100_000).is_some());
        // Too few packets to amortise the build.
        assert!(routing_for(&small, &router, 1_000).is_none());
        // Γ_16's 26.7 MB table is refused, however many packets.
        let large = FibonacciNet::classical(16);
        let router = CanonicalRouter::for_net(&large);
        assert!(routing_for(&large, &router, 1_000_000).is_none());
    }
}
