//! The unified simulation engine: one composable core behind every
//! entry point.
//!
//! Model: time advances in cycles. Every node has one FIFO output queue
//! per neighbor (store-and-forward) or a set of flit buffers per
//! (link × virtual channel) (wormhole); each directed link moves at most
//! one packet — or flit — per cycle. Arriving packets are re-enqueued
//! toward their next hop (computed by a [`Router`]) or retired with
//! their latency recorded. The model is deliberately simple — the
//! experiments compare *topologies under identical rules*, which is the
//! shape of the 1993-era evaluations.
//!
//! ## One core, three policy axes
//!
//! Historically this crate grew seven engine entry points, each a
//! hand-specialized copy of the same cycle loop. They are now thin
//! shells over one generic core parameterized by compile-time policy
//! traits (see [`policy`]):
//!
//! - [`SwitchingPolicy`] — whole-packet store-and-forward vs flit-level
//!   wormhole with virtual channels;
//! - [`FaultPolicy`] — admit everything vs typed drops for
//!   dead/disconnected endpoints (paired with a [`FaultMaskingRouter`]
//!   for detours);
//! - [`ReplicationPolicy`] — unicast routing vs tree replication at
//!   intermediate nodes (the collective path);
//!
//! plus the [`SimObserver`] event axis.
//! Every combination monomorphizes: a healthy unicast run compiles to
//! the same hot loop the dedicated engine used to be, and the
//! equivalence tests gate packet-for-packet on that.
//!
//! ## The arena core
//!
//! The store-and-forward core is an **arena-backed active-set** engine.
//! All per-packet and per-link state lives in flat arrays (see
//! [`arena`](crate::arena)): in-flight packets sit in a struct-of-arrays
//! [`PacketSlab`](crate::arena::PacketSlab) and are referred to by `u32`
//! id, and every directed link owns a fixed-stride ring-buffer FIFO in
//! one contiguous [`LinkQueues`](crate::arena::LinkQueues) arena indexed
//! by the graph's directed-edge index, spilling to an overflow list only
//! when a link saturates. Each cycle touches only the worklist of nodes
//! that actually hold packets, and empty stretches between injections
//! are skipped entirely.
//!
//! Routing takes one of two monomorphized paths: when the workload
//! amortises the build, deterministic policies are tabulated once into a
//! dense [`NextHopTable`](crate::router::NextHopTable)
//! ([`Router::precompute`]) and each hop is a single load; otherwise the
//! policy is called per hop with the live link-load view.
//!
//! The seed's original engine — full node scan every cycle, binary
//! search per hop — is preserved as [`simulate_reference`] and
//! [`simulate_faulted_reference`], the behavioural oracle the property
//! tests compare against and the baseline the sweep binary measures
//! speedups over.
//!
//! ## One stepper, serial and sharded
//!
//! Every run — serial or sharded — executes the *same* cycle stepper
//! (`engine/stepper.rs`): a `LaneWorkload` advances through fixed
//! stages (begin → propose → commit → end-cycle → observe → advance)
//! under a pluggable lane `Protocol`. Serial entry points drive one
//! lane under the no-sync `Solo` protocol; the `simulate_parallel*`
//! family drives `k` lanes under the barrier-synchronized `Pooled`
//! protocol (`engine/parallel.rs`) — **bit-identical to the serial
//! engine at any thread count**, for every policy combination:
//! store-and-forward, wormhole ([`simulate_parallel_wormhole`]),
//! churned and closed-loop dynamic runs, collectives, and forked
//! observers. The parallel module's docs lay out the outbox protocol
//! and the determinism argument.

mod churn;
mod core;
mod parallel;
pub mod policy;
mod reference;
pub mod stats;
mod stepper;
mod wormhole;

pub use self::churn::{simulate_churn, simulate_request_reply, RequestReplyLoad};
pub use self::core::Core;
pub use self::parallel::{
    simulate_parallel, simulate_parallel_churn, simulate_parallel_churn_observed,
    simulate_parallel_collective, simulate_parallel_observed, simulate_parallel_request_reply,
};
pub use self::policy::{
    AdmitAll, ChurnAdmission, FaultPolicy, FlitWormhole, MaskedAdmission, ReplicationPolicy,
    StoreAndForward, SwitchingPolicy,
};
pub use self::reference::{simulate_faulted_reference, simulate_reference};
pub use self::stats::{DropReason, LogHistogram, SimStats, DENSE_HISTOGRAM_NODE_LIMIT};
pub use self::wormhole::simulate_parallel_wormhole;

use crate::collective::CopyPlan;
use crate::fault::FaultSet;
use crate::observer::{NoopObserver, SimObserver};
use crate::router::{FaultMaskingRouter, Router};
use crate::switching::SwitchingSpec;
use crate::topology::Topology;
use crate::traffic::Packet;

use self::core::{run_core, Replicate};

/// Runs the store-and-forward simulation with the topology's preferred
/// router (e-cube on hypercubes, precomputed canonical-path on Fibonacci
/// networks, the built-in rule elsewhere).
///
/// `max_cycles` caps the run so that pathological configurations
/// terminate; undelivered packets are reported via `offered − delivered`.
pub fn simulate<T: Topology + ?Sized>(
    topology: &T,
    packets: &[Packet],
    max_cycles: u64,
) -> SimStats {
    simulate_with(topology, &*topology.router(), packets, max_cycles)
}

/// Runs the active-set store-and-forward simulation under an explicit
/// routing policy, with no observer attached. Equivalent to
/// [`simulate_observed`] with a [`NoopObserver`] — which monomorphizes
/// to the identical hot loop.
pub fn simulate_with<T, R>(
    topology: &T,
    router: &R,
    packets: &[Packet],
    max_cycles: u64,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + ?Sized,
{
    simulate_observed(topology, router, packets, max_cycles, &mut NoopObserver)
}

/// Runs the active-set store-and-forward simulation under an explicit
/// routing policy, reporting every event to `observer` (see
/// [`SimObserver`] for the event contract). Generic over all three
/// parameters, so concrete call sites monomorphize the hot loop and a
/// no-op observer costs nothing; `?Sized` keeps `&dyn` topology/router
/// callers working.
pub fn simulate_observed<T, R, O>(
    topology: &T,
    router: &R,
    packets: &[Packet],
    max_cycles: u64,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + ?Sized,
    O: SimObserver,
{
    StoreAndForward.run_unicast(topology, router, packets, max_cycles, observer, &AdmitAll)
}

/// Runs the active-set engine on the network degraded by `faults`: the
/// given `router` is wrapped in a [`FaultMaskingRouter`] so live packets
/// detour around dead nodes and links, while packets that *cannot* be
/// routed are counted as typed drops at injection ([`DropReason`]) —
/// dead source or destination, or surviving endpoints the faults
/// disconnect. Nothing is silently stranded:
/// `offered == delivered + dropped + still-in-flight` always holds.
///
/// An empty `faults` set delegates to [`simulate_observed`] — the
/// zero-fault run is packet-for-packet identical to the healthy engine.
pub fn simulate_faulted<T, R, O>(
    topology: &T,
    router: &R,
    faults: &FaultSet,
    packets: &[Packet],
    max_cycles: u64,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + ?Sized,
    O: SimObserver,
{
    if faults.is_empty() {
        return simulate_observed(topology, router, packets, max_cycles, observer);
    }
    let masked = FaultMaskingRouter::for_topology(topology, router, faults);
    simulate_premasked(topology, &masked, packets, max_cycles, observer)
}

/// [`simulate_faulted`] against a caller-prepared [`FaultMaskingRouter`]
/// — sweeps that replay many workloads over one fault set build the
/// masked router (and the `O(n·m)` degraded distance table inside it)
/// once and run every workload through it, instead of paying the
/// rebuild per run.
pub(crate) fn simulate_premasked<T, R, O>(
    topology: &T,
    masked: &FaultMaskingRouter<'_, R>,
    packets: &[Packet],
    max_cycles: u64,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + ?Sized,
    O: SimObserver,
{
    let admission = MaskedAdmission::new(masked);
    StoreAndForward.run_unicast(topology, masked, packets, max_cycles, observer, &admission)
}

/// Runs a tree collective ([`CopyPlan`]) through the arena engine:
/// packets are **replicated at intermediate nodes** instead of routed
/// end to end. The source emits its first copies at cycle 0; every
/// delivery informs the receiving node, which starts forwarding to its
/// own children — all of them at once (all-port), or one per cycle
/// chained through the slab's next-copy column (one-port: the follow-up
/// copy is spawned when its predecessor departs, so an informed node
/// occupies exactly one output port per cycle). Copies travel exactly
/// one tree edge, so no routing policy is consulted; the plan resolved
/// every directed edge at compile time.
///
/// Intended recipients the plan could not cover (dead or disconnected
/// by the fault set it was compiled against) are reported as typed
/// drops at cycle 0 — packet conservation extends to replicated copies:
/// uncapped, `offered == delivered + dropped` with
/// `offered = tree copies + drops`; under a cycle cap the remainder is
/// copies still queued *or not yet spawned* (a truncated chain).
///
/// Returns the run's [`SimStats`] plus the number of *intended targets*
/// reached (relay deliveries count toward `delivered` but not toward
/// the target tally). On an uncontended network the makespan equals the
/// static schedule's round count — the gating oracle of the collective
/// path.
pub fn simulate_collective<T, O>(
    topology: &T,
    plan: &CopyPlan,
    max_cycles: u64,
    observer: &mut O,
) -> (SimStats, usize)
where
    T: Topology + ?Sized,
    O: SimObserver,
{
    let (stats, workload) = run_core(
        topology,
        plan.offered(),
        max_cycles,
        observer,
        Replicate::new(plan),
    );
    (stats, workload.reached_targets)
}

/// Runs the flit-level wormhole engine under an explicit routing policy.
/// [`SwitchingSpec::StoreAndForward`] delegates to [`simulate_observed`]
/// — one entry point covers both switching models.
///
/// Model: each packet is [`SwitchingSpec::flits_per_packet`] flits. The
/// head flit claims a chain of (directed link × virtual channel) buffers
/// of `buf_flits` capacity, routing one hop per cycle exactly like the
/// store-and-forward engine; body flits stream behind it through the
/// same chain (one injected per cycle at the source) and the tail
/// releases each buffer as it passes — so a blocked packet occupies
/// buffers along its whole path, the defining wormhole behaviour.
/// Advancement is credit-based (a flit moves only when the next buffer
/// has space, counting same-cycle reservations) and each directed link
/// still moves at most one flit per cycle, scanning VCs lowest-first.
/// Virtual channels are keyed to
/// [`Topology::channel_class`]: a hop whose class does not increase
/// bumps the packet to the next VC level (clamped to `vcs − 1`), which
/// on order-based routes makes the channel-dependency graph acyclic —
/// see [`switching`](crate::switching) for the argument.
///
/// Packet-level accounting ([`SimStats`], [`SimObserver::on_hop`],
/// hop counts) follows the **head** flit, so a degenerate configuration
/// (one flit per packet, one VC, effectively unbounded buffers)
/// reproduces [`simulate_with`] exactly. Flit-level movement is
/// observable through [`SimObserver::on_flit_hop`].
pub fn simulate_wormhole<T, R, O>(
    topology: &T,
    router: &R,
    spec: &SwitchingSpec,
    packets: &[Packet],
    max_cycles: u64,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + ?Sized,
    O: SimObserver,
{
    match *spec {
        SwitchingSpec::StoreAndForward => {
            simulate_observed(topology, router, packets, max_cycles, observer)
        }
        SwitchingSpec::Wormhole { vcs, buf_flits, .. } => FlitWormhole {
            flits_per_packet: spec.flits_per_packet(),
            vcs,
            buf_flits,
        }
        .run_unicast(topology, router, packets, max_cycles, observer, &AdmitAll),
    }
}

/// [`simulate_wormhole`] on the network degraded by `faults`: the same
/// [`FaultMaskingRouter`] wrapping and typed injection drops as
/// [`simulate_faulted`], with flits detouring around dead nodes and
/// links. An empty fault set delegates to the healthy wormhole engine;
/// a [`SwitchingSpec::StoreAndForward`] spec delegates to
/// [`simulate_faulted`].
///
/// Fault detours are not order-based, so on degraded networks the VC
/// level can clamp at `vcs − 1` and deadlock freedom is best-effort —
/// the experiments keep the conservation invariant
/// `offered == delivered + dropped + still-in-flight` either way.
pub fn simulate_wormhole_faulted<T, R, O>(
    topology: &T,
    router: &R,
    spec: &SwitchingSpec,
    faults: &FaultSet,
    packets: &[Packet],
    max_cycles: u64,
    observer: &mut O,
) -> SimStats
where
    T: Topology + ?Sized,
    R: Router + ?Sized,
    O: SimObserver,
{
    if faults.is_empty() {
        return simulate_wormhole(topology, router, spec, packets, max_cycles, observer);
    }
    match *spec {
        SwitchingSpec::StoreAndForward => {
            simulate_faulted(topology, router, faults, packets, max_cycles, observer)
        }
        SwitchingSpec::Wormhole { vcs, buf_flits, .. } => {
            let masked = FaultMaskingRouter::for_topology(topology, router, faults);
            let admission = MaskedAdmission::new(&masked);
            FlitWormhole {
                flits_per_packet: spec.flits_per_packet(),
                vcs,
                buf_flits,
            }
            .run_unicast(topology, &masked, packets, max_cycles, observer, &admission)
        }
    }
}
