//! The simulation engine: one entry point, [`run`], executing a
//! [`RunPlan`].
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
//! ## One entry point
//!
//! A [`RunPlan`] borrows the topology and the router and names the rest
//! of the run: a [`SwitchingSpec`], an [`Admission`] mode (the healthy
//! network, a static fault mask, or a churn timeline), a [`Workload`]
//! (open packets, closed request/reply sessions, or a collective
//! [`CopyPlan`]) and a cycle cap. [`run`] checks the plan against the
//! support table (see [`RunPlan`]) and makes the one match over
//! admission × workload:
//!
//! - the admission picks the fault state, one `FaultState` value per
//!   lane (`engine/policy.rs`): the healthy network (the run's routing
//!   table or per-hop policy calls), the shared static fault mask, or
//!   a lane-owned router replica plus its event cursor; an intact fault
//!   mask or an empty churn timeline runs the healthy network;
//! - the workload picks the policy: open packets run `Unicast`, closed
//!   request/reply sessions run `Sessions`, both over any fault state,
//!   and a copy plan runs tree replication;
//! - store-and-forward runs the packet core, wormhole the flit engine
//!   (see `engine/wormhole.rs` for the flit model); each lane owns its
//!   fault state, and the workloads reach it through the lane.
//!
//! The fault state is one concrete enum, matched at each admission and
//! hop, so the lanes monomorphize only over the workload and the
//! [`SimObserver`] event axis: each (workload × observer) cell compiles
//! one stepper whatever faults the run meets, and a healthy run pays
//! one predictable branch per hop for the fault axis.
//!
//! ## The arena core
//!
//! The store-and-forward core is an **arena-backed active-set** engine.
//! All per-packet and per-link state lives in flat arrays (see
//! [`arena`](crate::arena)): in-flight packets sit in a struct-of-arrays
//! [`PacketSlab`](crate::arena::PacketSlab) and are referred to by `u32`
//! id, and every directed link owns a fixed-stride ring-buffer FIFO in
//! one contiguous [`LinkQueues`](crate::arena::LinkQueues) arena indexed
//! by the graph's directed-edge index; a queue deeper than its ring
//! spills into a sparse store holding a list only for each queue that
//! overflows. Each cycle visits only the links that actually hold
//! packets (a two-level occupancy bitset per lane), and empty stretches
//! between injections are skipped entirely.
//!
//! Healthy routing takes one of two paths: when the workload
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
//! ## One stepper, one lane or many
//!
//! Every run executes the *same* cycle stepper (`engine/stepper.rs`): a
//! `LaneWorkload` advances through fixed stages (begin → propose →
//! commit → end-cycle → observe → advance) under a pluggable lane
//! `Protocol`, on one lane chassis (`Shard`) for both switching models.
//! One lane runs under the no-sync `Solo` protocol on the caller's
//! thread, borrowing the caller's observer. Store-and-forward runs go
//! through the lane driver (`run_lanes`, `engine/parallel.rs`): more
//! lanes (at most 64) run under the barrier-synchronized `Pooled`
//! protocol, each borrowing its own [`SimObserver::fork`] —
//! **bit-identical to the one-lane run at any lane count**, for every
//! supported cell. The parallel module's docs lay out the protocol and
//! the determinism argument. A wormhole run is one lane at any lane
//! request: each flit move depends on moves granted earlier in the same
//! cycle anywhere in the network, so shards could only replay one
//! global arbitration (see `engine/wormhole.rs`).

mod churn;
mod core;
mod parallel;
mod policy;
mod reference;
pub mod stats;
mod stepper;
mod wormhole;

use std::cell::OnceCell;
use std::fmt;

pub use self::churn::RequestReplyLoad;
pub use self::reference::{simulate_faulted_reference, simulate_reference};
pub use self::stats::{DropReason, LogHistogram, SimStats, DENSE_HISTOGRAM_NODE_LIMIT};

use crate::collective::CopyPlan;
use crate::experiment::ExperimentError;
use crate::fault::ChurnTimeline;
use crate::observer::SimObserver;
use crate::router::{FaultMaskingRouter, Router};
use crate::switching::SwitchingSpec;
use crate::topology::Topology;
use crate::traffic::{Packet, TrafficSpec};

use self::churn::Sessions;
use self::core::{Replicate, Unicast};
use self::parallel::run_lanes;
use self::policy::FaultState;
use self::wormhole::{check_buffer_space, run_wormhole};

/// Which faults a run's packets meet: the admission axis of a
/// [`RunPlan`].
pub enum Admission<'p, R: Router + ?Sized> {
    /// The healthy network: every packet is admitted.
    Healthy,
    /// A static fault set, as a caller-built [`FaultMaskingRouter`].
    /// Packets route through it, and dead or disconnected endpoints are
    /// typed drops at injection ([`DropReason`]). Nothing is silently
    /// stranded: `offered == delivered + dropped + still-in-flight`.
    /// Many runs may share one mask — and the distances inside it: the
    /// exception rows its lanes build, and on label-less topologies the
    /// `O(n·m)` healthy table under them.
    /// A mask with no live fault runs the healthy network through its
    /// inner router.
    Static(&'p FaultMaskingRouter<'p, R>),
    /// A fail/recover timeline applied at cycle boundaries, with each
    /// event emptying the masked router's exception rows (rebuilt on
    /// their next use) and packets on dying elements typed as
    /// drops (see `engine/churn.rs` for the event semantics). Each lane
    /// owns a replica of the masked router. An empty timeline runs the
    /// healthy network.
    Churn(&'p ChurnTimeline),
}

impl<R: Router + ?Sized> Clone for Admission<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R: Router + ?Sized> Copy for Admission<'_, R> {}

impl<R: Router + ?Sized> fmt::Display for Admission<'_, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Admission::Healthy => f.write_str("healthy"),
            Admission::Static(_) => f.write_str("static fault mask"),
            Admission::Churn(t) => write!(f, "churn timeline ({} events)", t.len()),
        }
    }
}

/// What a run injects: the workload axis of a [`RunPlan`].
#[derive(Clone, Copy, Debug)]
pub enum Workload<'p> {
    /// Open-loop packets, each injected at its own cycle.
    Open(&'p [Packet]),
    /// Closed-loop request/reply sessions with timeout-and-retry
    /// delivery. `SimStats` then counts transactions, not packets.
    Closed(&'p RequestReplyLoad),
    /// A tree collective: packets are **replicated at intermediate
    /// nodes** along the plan instead of routed end to end. Copies
    /// travel exactly one tree edge, so no router is consulted, and
    /// recipients the plan could not cover (it was compiled against its
    /// own fault set) are typed drops at cycle 0. On an uncontended
    /// network the makespan equals the static schedule's round count.
    Copies(&'p CopyPlan),
}

impl fmt::Display for Workload<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Workload::Open(packets) => write!(f, "open({} packets)", packets.len()),
            Workload::Closed(load) => TrafficSpec::RequestReply {
                clients: load.clients,
                think: load.think,
                timeout: load.timeout,
                retries: load.retries,
            }
            .fmt(f),
            Workload::Copies(plan) => write!(
                f,
                "copy_plan(source={}, {})",
                plan.source(),
                if plan.one_port() {
                    "one-port"
                } else {
                    "all-port"
                }
            ),
        }
    }
}

/// Everything one engine run needs. Build it with [`RunPlan::new`] and
/// the [`switching`](RunPlan::switching) /
/// [`admission`](RunPlan::admission) setters, then hand it to [`run`].
///
/// The support table — which (admission × workload) cells run under
/// which switching models:
///
/// | workload        | healthy  | static mask | churn  |
/// |-----------------|----------|-------------|--------|
/// | open packets    | SAF, WH  | SAF, WH     | SAF    |
/// | closed sessions | SAF      | SAF         | SAF    |
/// | tree copy plan  | SAF      | ✗           | ✗      |
///
/// (SAF: store-and-forward, WH: wormhole.) Every other cell is a typed
/// error: churn and the closed loop have no flit model
/// ([`ExperimentError::UnsupportedDynamic`]), tree replication has none
/// either ([`ExperimentError::UnsupportedCombination`]), tree
/// replication under churn is not modelled
/// ([`ExperimentError::UnsupportedDynamic`]), and a copy plan carries
/// its own fault set ([`ExperimentError::InvalidCollective`]). The
/// closed loop also needs at least 2 nodes and a finite cycle cap
/// ([`ExperimentError::InvalidTraffic`]), and a churn timeline with
/// events, whose lanes each build a fault-masking router, must fit the
/// router's `2n²`-byte distance table in
/// [`TABLE_BYTE_BUDGET`](crate::router::TABLE_BYTE_BUDGET) on a
/// topology without cube labels ([`ExperimentError::TableTooLarge`]
/// above 23 170 nodes; a labelled topology keeps no table), and
/// every event must name nodes, and links, of the topology
/// ([`FaultError::InvalidChurn`](crate::fault::FaultError::InvalidChurn)).
/// A static mask comes built ([`Experiment`](crate::experiment::Experiment)
/// checks the budget before building one), on a network with the
/// topology's node and link counts ([`ExperimentError::TableMismatch`]).
/// A wormhole spec must pass
/// [`SwitchingSpec::validate`], and its (link × VC) buffers must fit
/// `u32` buffer ids and [`TABLE_BYTE_BUDGET`](crate::router::TABLE_BYTE_BUDGET)
/// bytes of buffer state ([`ExperimentError::InvalidSwitching`]).
pub struct RunPlan<'p, T: ?Sized, R: Router + ?Sized> {
    /// The network.
    pub topology: &'p T,
    /// The routing policy. A tree copy plan consults none, and a static
    /// mask routes through its own inner router.
    pub router: &'p R,
    /// The switching model (default store-and-forward).
    pub switching: SwitchingSpec,
    /// Which faults the run meets (default healthy).
    pub admission: Admission<'p, R>,
    /// What the run injects.
    pub workload: Workload<'p>,
    /// The cycle cap; undelivered packets show up as
    /// `offered − delivered − dropped`.
    pub max_cycles: u64,
}

impl<'p, T: Topology + ?Sized, R: Router + ?Sized> RunPlan<'p, T, R> {
    /// A store-and-forward run of `workload` on the healthy network.
    pub fn new(
        topology: &'p T,
        router: &'p R,
        workload: Workload<'p>,
        max_cycles: u64,
    ) -> RunPlan<'p, T, R> {
        RunPlan {
            topology,
            router,
            switching: SwitchingSpec::StoreAndForward,
            admission: Admission::Healthy,
            workload,
            max_cycles,
        }
    }

    /// Sets the switching model.
    pub fn switching(self, switching: SwitchingSpec) -> Self {
        RunPlan { switching, ..self }
    }

    /// Sets the admission mode.
    pub fn admission(self, admission: Admission<'p, R>) -> Self {
        RunPlan { admission, ..self }
    }

    /// Checks the plan against the support table in the
    /// [type docs](RunPlan).
    fn check(&self) -> Result<(), ExperimentError> {
        let (admission, workload, switching) = (self.admission, self.workload, &self.switching);
        switching.validate()?;
        check_buffer_space(self.topology, switching)?;
        let dynamic = |feature: &dyn fmt::Display, with: &dyn fmt::Display| {
            Err(ExperimentError::UnsupportedDynamic {
                feature: feature.to_string(),
                with: with.to_string(),
            })
        };
        match (admission, workload, switching.is_wormhole()) {
            (_, Workload::Copies(_), true) => {
                return Err(ExperimentError::UnsupportedCombination {
                    collective: workload.to_string(),
                    switching: switching.to_string(),
                })
            }
            (Admission::Static(_), Workload::Copies(_), _) => {
                return Err(ExperimentError::InvalidCollective {
                    spec: workload.to_string(),
                    reason: "a copy plan carries the fault set it was compiled against; \
                             run it with healthy admission"
                        .to_string(),
                })
            }
            (Admission::Churn(_), Workload::Copies(_), _) => return dynamic(&admission, &workload),
            (Admission::Churn(_), _, true) => return dynamic(&admission, switching),
            (_, Workload::Closed(_), true) => return dynamic(&workload, switching),
            _ => {}
        }
        let n = self.topology.len();
        let invalid = |reason: &str| {
            Err(ExperimentError::InvalidTraffic {
                spec: workload.to_string(),
                reason: reason.to_string(),
            })
        };
        match workload {
            Workload::Closed(_) if n < 2 => {
                invalid("request/reply needs a peer to talk to (>= 2 nodes)")
            }
            Workload::Closed(_) if self.max_cycles == u64::MAX => {
                invalid("closed-loop sources never drain; set a finite cycle cap")
            }
            _ => FaultState::check(self),
        }
    }
}

/// What [`run`] returns.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// The run's statistics.
    pub stats: SimStats,
    /// Intended recipients a [`Workload::Copies`] plan reached (relay
    /// deliveries count toward `stats.delivered`, not here); `None` for
    /// the other workloads.
    pub reached: Option<usize>,
}

/// Runs `plan` on `lanes` lanes, clamped to `[1, min(n, 64)]` — the
/// results are bit-identical at any lane count, so the cap only bounds
/// threads and per-lane memory — reporting every event to `observer`
/// (see [`SimObserver`] for the event contract).
///
/// One lane runs on the caller's thread with the caller's observer, and
/// so does a wormhole plan at any lane request. More lanes of a
/// store-and-forward plan shard the nodes across a scoped thread pool:
/// each lane runs a [`SimObserver::fork`] of `observer`, the forks
/// merge back in ascending lane order, and the result — [`SimStats`],
/// histograms and merged observer output included — equals the
/// one-lane run's.
///
/// Generic over topology, router and observer, so concrete call sites
/// monomorphize the hot loop and a no-op observer costs nothing; `?Sized`
/// keeps `&dyn` callers working.
///
/// # Errors
///
/// A cell outside the support table (see [`RunPlan`]), a closed loop on
/// fewer than 2 nodes or without a cycle cap, a churn timeline whose
/// masked-router table is over budget or whose events name nodes outside
/// the topology or links it does not have, a static mask built on
/// another network, an invalid or oversized wormhole spec, or more than
/// one store-and-forward lane with an observer whose
/// [`fork`](SimObserver::fork) returns `None`
/// ([`ExperimentError::UnforkableObserver`]).
pub fn run<T, R, O>(
    plan: &RunPlan<'_, T, R>,
    lanes: usize,
    observer: &mut O,
) -> Result<RunOutcome, ExperimentError>
where
    T: Topology + ?Sized,
    R: Router + Sync + ?Sized,
    O: SimObserver + Send,
{
    plan.check()?;
    let packets = match plan.workload {
        Workload::Open(packets) => packets.len(),
        Workload::Closed(_) | Workload::Copies(_) => 0,
    };
    // The one place the admission becomes a fault state, once per lane;
    // the lanes of a healthy run share the one next-hop table.
    let table = OnceCell::new();
    let fault = || FaultState::new(plan, packets, &table);
    let (stats, reached) = match plan.workload {
        Workload::Open(packets) if plan.switching.is_wormhole() => {
            (run_wormhole(plan, packets, fault(), observer), None)
        }
        Workload::Open(packets) => {
            let make = |lo, hi| Unicast::for_range(packets, lo, hi);
            (
                run_lanes(plan, packets.len(), lanes, observer, fault, make)?.0,
                None,
            )
        }
        Workload::Closed(load) => {
            let n = plan.topology.len() as u32;
            let make = |_, _| Sessions::new(load, n);
            let (mut stats, workloads) = run_lanes(plan, 0, lanes, observer, fault, make)?;
            // Every lane replicates the session machine; lane 0's tally
            // is the one-lane run's.
            stats.offered = workloads[0].offered;
            (stats, None)
        }
        Workload::Copies(copies) => {
            let make = |_, _| Replicate::new(copies);
            let offered = copies.offered();
            let (stats, workloads) = run_lanes(plan, offered, lanes, observer, fault, make)?;
            (
                stats,
                Some(workloads.iter().map(|w| w.reached_targets).sum()),
            )
        }
    };
    Ok(RunOutcome { stats, reached })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChurnEvent, ChurnTarget, FaultError, FaultSet};
    use crate::observer::{LatencyHistogram, LinkHeatmap, NoopObserver, SimObserver};
    use crate::router::{
        AdaptiveMinimal, CanonicalRouter, EcubeRouter, FaultMaskingRouter, NextHopRouter,
    };
    use crate::topology::{FibonacciNet, Hypercube, Ring, Topology};
    use crate::traffic::{Packet, TrafficSpec};

    fn uniform(n: usize, count: usize, window: u64, seed: u64) -> Vec<Packet> {
        TrafficSpec::Uniform { count, window }.generate(n, seed)
    }

    fn all_to_all(n: usize) -> Vec<Packet> {
        TrafficSpec::AllToAll.generate(n, 0)
    }

    #[test]
    fn single_packet_latency_is_distance() {
        let q = Hypercube::new(4);
        let pkts = vec![Packet {
            src: 0b0000,
            dst: 0b1111,
            inject_time: 0,
        }];
        let stats = run(
            &RunPlan::new(&q, &*q.router(), Workload::Open(&pkts), 1000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.mean_latency, 4.0);
        assert_eq!(stats.total_hops, 4);
        assert_eq!(stats.makespan, 4);
    }

    #[test]
    fn all_packets_delivered_uniform() {
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &Hypercube::new(5),
            &Ring::new(21),
        ] {
            let pkts = uniform(topo.len(), 300, 100, 42);
            let stats = run(
                &RunPlan::new(topo, &*topo.router(), Workload::Open(&pkts), 50_000),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats;
            assert_eq!(stats.delivered, stats.offered, "{}", topo.name());
            assert!(stats.mean_latency >= 1.0);
            assert!(stats.p99_latency as f64 >= stats.mean_latency.floor());
        }
    }

    #[test]
    fn contention_raises_latency_above_distance() {
        // Many packets into one node: queueing must show up.
        let q = Hypercube::new(3);
        let pkts: Vec<Packet> = (1..8)
            .map(|s| Packet {
                src: s,
                dst: 0,
                inject_time: 0,
            })
            .collect();
        let stats = run(
            &RunPlan::new(&q, &*q.router(), Workload::Open(&pkts), 1000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, 7);
        // Node 0 has 3 in-links; 7 packets need ≥ ⌈7/3⌉ = 3 cycles.
        assert!(stats.makespan >= 3);
    }

    #[test]
    fn zero_time_cap_delivers_nothing() {
        let q = Hypercube::new(3);
        let pkts = vec![Packet {
            src: 0,
            dst: 7,
            inject_time: 0,
        }];
        let stats = run(
            &RunPlan::new(&q, &*q.router(), Workload::Open(&pkts), 0),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.offered, 1);
    }

    #[test]
    fn all_to_all_mean_latency_at_least_average_distance() {
        let net = FibonacciNet::classical(6);
        let pkts = all_to_all(net.len());
        let stats = run(
            &RunPlan::new(&net, &*net.router(), Workload::Open(&pkts), 100_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, stats.offered);
        let avg_dist = fibcube_graph::distance::average_distance(net.graph());
        assert!(
            stats.mean_latency + 1e-9 >= avg_dist,
            "latency {} < average distance {avg_dist}",
            stats.mean_latency
        );
    }

    #[test]
    fn self_addressed_packets_count_as_delivered() {
        let q = Hypercube::new(2);
        let pkts = vec![Packet {
            src: 1,
            dst: 1,
            inject_time: 5,
        }];
        let stats = run(
            &RunPlan::new(&q, &*q.router(), Workload::Open(&pkts), 100),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.mean_latency, 0.0);
        assert_eq!(
            stats.makespan, 0,
            "a packet that never used a link leaves no makespan"
        );
    }

    #[test]
    fn active_set_engine_agrees_with_reference() {
        // Deterministic routers and matching same-cycle service order ⇒
        // the two engines must agree packet for packet: same deliveries,
        // hops, latency distribution, and makespan.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(13),
        ] {
            for (count, window, seed) in [(50usize, 20u64, 1u64), (400, 60, 2), (1, 0, 3)] {
                let pkts = uniform(topo.len(), count, window, seed);
                let fast = run(
                    &RunPlan::new(topo, &*topo.router(), Workload::Open(&pkts), 100_000),
                    1,
                    &mut NoopObserver,
                )
                .unwrap()
                .stats;
                let slow = simulate_reference(topo, &pkts, 100_000);
                assert_eq!(fast.delivered, slow.delivered, "{}", topo.name());
                assert_eq!(fast.total_hops, slow.total_hops, "{}", topo.name());
                assert_eq!(fast.offered, slow.offered);
                assert_eq!(
                    fast.latency_histogram,
                    slow.latency_histogram,
                    "{}",
                    topo.name()
                );
                assert_eq!(fast.mean_latency, slow.mean_latency, "{}", topo.name());
                assert_eq!(fast.makespan, slow.makespan, "{}", topo.name());
                assert_eq!(fast.p99_latency, slow.p99_latency, "{}", topo.name());
            }
        }
    }

    #[test]
    fn explicit_routers_deliver_everything() {
        let q = Hypercube::new(5);
        let pkts = uniform(q.len(), 400, 80, 9);
        for stats in [
            run(
                &RunPlan::new(&q, &EcubeRouter, Workload::Open(&pkts), 100_000),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats,
            run(
                &RunPlan::new(
                    &q,
                    &AdaptiveMinimal::new(&q),
                    Workload::Open(&pkts),
                    100_000,
                ),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats,
        ] {
            assert_eq!(stats.delivered, stats.offered);
        }
        let net = FibonacciNet::classical(9);
        let pkts = uniform(net.len(), 400, 80, 9);
        let canonical = CanonicalRouter::for_net(&net);
        for stats in [
            run(
                &RunPlan::new(&net, &canonical, Workload::Open(&pkts), 100_000),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats,
            run(
                &RunPlan::new(
                    &net,
                    &AdaptiveMinimal::new(&net),
                    Workload::Open(&pkts),
                    100_000,
                ),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats,
        ] {
            assert_eq!(stats.delivered, stats.offered);
        }
    }

    #[test]
    fn adaptive_router_no_worse_under_hotspot() {
        // Adaptive minimal routing must still deliver everything when one
        // node draws concentrated traffic.
        let q = Hypercube::new(5);
        let pkts = TrafficSpec::HotSpot {
            count: 600,
            window: 150,
            hot_fraction: 0.4,
        }
        .generate(q.len(), 11);
        let stats = run(
            &RunPlan::new(
                &q,
                &AdaptiveMinimal::new(&q),
                Workload::Open(&pkts),
                200_000,
            ),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, stats.offered);
    }

    #[test]
    fn observers_see_every_event_and_match_engine_accounting() {
        let net = FibonacciNet::classical(9);
        let pkts = uniform(net.len(), 500, 120, 21);
        let router = CanonicalRouter::for_net(&net);
        let baseline = run(
            &RunPlan::new(&net, &router, Workload::Open(&pkts), 100_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;

        let mut obs = (LatencyHistogram::new(), LinkHeatmap::new());
        let observed = run(
            &RunPlan::new(&net, &router, Workload::Open(&pkts), 100_000),
            1,
            &mut obs,
        )
        .unwrap()
        .stats;
        assert_eq!(observed, baseline, "observer must not perturb the run");
        let (hist, heat) = obs;
        assert_eq!(hist.histogram(), &baseline.latency_histogram[..]);
        assert_eq!(hist.delivered() as usize, baseline.delivered);
        assert_eq!(hist.mean(), baseline.mean_latency);
        assert_eq!(hist.p99(), baseline.p99_latency);
        assert_eq!(heat.total_hops(), baseline.total_hops);
    }

    #[test]
    fn observer_sees_self_addressed_delivery_and_sparse_cycles() {
        #[derive(Default)]
        struct Trace {
            injects: Vec<(u64, u32, u32)>,
            delivers: Vec<(u64, u32, u64)>,
            cycle_ends: Vec<(u64, usize)>,
        }
        impl SimObserver for Trace {
            fn on_inject(&mut self, cycle: u64, src: u32, dst: u32) {
                self.injects.push((cycle, src, dst));
            }
            fn on_deliver(&mut self, cycle: u64, dst: u32, latency: u64) {
                self.delivers.push((cycle, dst, latency));
            }
            fn on_cycle_end(&mut self, cycle: u64, in_flight: usize) {
                self.cycle_ends.push((cycle, in_flight));
            }
        }

        let q = Hypercube::new(3);
        let pkts = vec![
            Packet {
                src: 2,
                dst: 2,
                inject_time: 0,
            },
            Packet {
                src: 0,
                dst: 7,
                inject_time: 1_000,
            },
        ];
        let mut trace = Trace::default();
        let stats = run(
            &RunPlan::new(&q, &EcubeRouter, Workload::Open(&pkts), 1_000_000),
            1,
            &mut trace,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, 2);
        assert_eq!(trace.injects, vec![(0, 2, 2), (1_000, 0, 7)]);
        // Self-addressed at latency 0, then the real packet at distance 3.
        assert_eq!(trace.delivers, vec![(0, 2, 0), (1_003, 7, 3)]);
        // The idle gap 1..1000 is fast-forwarded: no cycle-end events there.
        assert!(trace.cycle_ends.iter().all(|&(c, _)| c == 0 || c >= 1_000));
        assert_eq!(trace.cycle_ends.last(), Some(&(1_002, 0)));
    }

    #[test]
    fn empty_fault_set_is_packet_for_packet_identical() {
        let net = FibonacciNet::classical(9);
        let pkts = uniform(net.len(), 400, 100, 13);
        let router = CanonicalRouter::for_net(&net);
        let healthy = run(
            &RunPlan::new(&net, &router, Workload::Open(&pkts), 100_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        let faulted = {
            let mask = FaultMaskingRouter::for_topology(&net, &router, &FaultSet::empty());
            run(
                &RunPlan::new(&net, &router, Workload::Open(&pkts), 100_000)
                    .admission(Admission::Static(&mask)),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats
        };
        assert_eq!(faulted, healthy);
        assert_eq!(faulted.dropped(), 0);
    }

    #[test]
    fn dead_endpoints_are_typed_drops_and_survivors_deliver() {
        // Kill node 0 of Q_3 under all-to-all traffic: the 14 ordered
        // pairs touching node 0 drop as DeadEndpoint, the other 42
        // deliver via detours where e-cube would have crossed node 0.
        let q = Hypercube::new(3);
        let faults = FaultSet::new([0u32], []);
        let pkts = all_to_all(q.len());
        let mut tracker = crate::observer::DeliveryTracker::new();
        let stats = {
            let mask = FaultMaskingRouter::for_topology(&q, &EcubeRouter, &faults);
            run(
                &RunPlan::new(&q, &EcubeRouter, Workload::Open(&pkts), 100_000)
                    .admission(Admission::Static(&mask)),
                1,
                &mut tracker,
            )
            .unwrap()
            .stats
        };
        assert_eq!(stats.offered, 56);
        assert_eq!(stats.dropped_dead_endpoint, 14);
        assert_eq!(stats.dropped_unreachable, 0);
        assert_eq!(stats.delivered, 42);
        assert_eq!(tracker.delivered(), 42);
        assert_eq!(tracker.dropped_dead_endpoint(), 14);
        assert_eq!(tracker.in_flight(), 0, "nothing silently stranded");
    }

    #[test]
    fn disconnected_survivors_drop_as_unreachable() {
        // Cut links 0–1 and 3–4 of a 6-ring: components {1,2,3} and
        // {4,5,0}. Cross-component pairs (2·3·3 = 18) drop Unreachable;
        // within-component pairs (2·3·2 = 12) deliver.
        let ring = Ring::new(6);
        let faults = FaultSet::new([], [(0u32, 1u32), (3u32, 4u32)]);
        let pkts = all_to_all(ring.len());
        let router = ring.router();
        let stats = {
            let mask = FaultMaskingRouter::for_topology(&ring, &*router, &faults);
            run(
                &RunPlan::new(&ring, &*router, Workload::Open(&pkts), 100_000)
                    .admission(Admission::Static(&mask)),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats
        };
        assert_eq!(stats.offered, 30);
        assert_eq!(stats.dropped_unreachable, 18);
        assert_eq!(stats.dropped_dead_endpoint, 0);
        assert_eq!(stats.delivered, 12);
    }

    #[test]
    fn faulted_runs_conserve_packets_under_a_cycle_cap() {
        let net = FibonacciNet::classical(8);
        let faults = FaultSet::new([3u32, 11, 40], [(0u32, 1u32)]);
        let pkts = uniform(net.len(), 500, 50, 7);
        let router = CanonicalRouter::for_net(&net);
        for cap in [0u64, 3, 10, 100_000] {
            let mut tracker = crate::observer::DeliveryTracker::new();
            let stats = {
                let mask = FaultMaskingRouter::for_topology(&net, &router, &faults);
                run(
                    &RunPlan::new(&net, &router, Workload::Open(&pkts), cap)
                        .admission(Admission::Static(&mask)),
                    1,
                    &mut tracker,
                )
                .unwrap()
                .stats
            };
            assert!(
                stats.delivered + stats.dropped() <= stats.offered,
                "cap {cap}"
            );
            // Observer and engine accounting agree; the remainder is the
            // in-flight truncation, never a silent strand.
            assert_eq!(tracker.delivered() as usize, stats.delivered, "cap {cap}");
            assert_eq!(tracker.dropped() as usize, stats.dropped(), "cap {cap}");
            if cap == 100_000 {
                assert_eq!(stats.delivered + stats.dropped(), stats.offered);
                assert_eq!(tracker.in_flight(), 0);
            }
        }
    }

    #[test]
    fn ring_overflow_preserves_fifo_against_reference() {
        // Funnel far more packets through single links than the ring
        // stride holds: 40 same-direction packets on a 4-ring, plus a
        // hot-spot drain on Q_3. The spill/promote path must stay
        // packet-for-packet identical to the reference engine.
        let ring = Ring::new(4);
        let pkts: Vec<Packet> = (0..40)
            .map(|i| Packet {
                src: 0,
                dst: 1,
                inject_time: i % 3,
            })
            .collect();
        let fast = run(
            &RunPlan::new(&ring, &*ring.router(), Workload::Open(&pkts), 100_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        let slow = simulate_reference(&ring, &pkts, 100_000);
        assert_eq!(fast, slow);
        assert_eq!(fast.delivered, 40);

        let q = Hypercube::new(3);
        let pkts: Vec<Packet> = (0..60)
            .map(|i| Packet {
                src: (1 + i % 7) as u32,
                dst: 0,
                inject_time: i / 14,
            })
            .collect();
        let fast = run(
            &RunPlan::new(&q, &*q.router(), Workload::Open(&pkts), 100_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        let slow = simulate_reference(&q, &pkts, 100_000);
        assert_eq!(fast, slow);
    }

    #[test]
    fn table_routing_path_agrees_with_reference() {
        // All-to-all workloads trip the precompute heuristic
        // (packets ≈ n² ≫ n²/d̄), so this exercises the NextHopTable hop
        // path end to end against the per-hop reference engine.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(9),
        ] {
            let pkts = all_to_all(topo.len());
            let fast = run(
                &RunPlan::new(topo, &*topo.router(), Workload::Open(&pkts), 1_000_000),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats;
            let slow = simulate_reference(topo, &pkts, 1_000_000);
            assert_eq!(fast, slow, "{}", topo.name());
        }
    }

    #[test]
    fn faulted_engine_agrees_with_faulted_reference() {
        // The arena engine under faults ≡ the full-scan faulted oracle,
        // with node faults, link faults, and a cycle cap in the mix.
        let net = FibonacciNet::classical(8);
        let router = CanonicalRouter::for_net(&net);
        let faults = FaultSet::new([3u32, 11, 40], [(0u32, 1u32)]);
        for (count, window, cap) in [(400usize, 80u64, 100_000u64), (300, 50, 25)] {
            let pkts = uniform(net.len(), count, window, 5);
            let fast = {
                let mask = FaultMaskingRouter::for_topology(&net, &router, &faults);
                run(
                    &RunPlan::new(&net, &router, Workload::Open(&pkts), cap)
                        .admission(Admission::Static(&mask)),
                    1,
                    &mut NoopObserver,
                )
                .unwrap()
                .stats
            };
            let slow = simulate_faulted_reference(&net, &router, &faults, &pkts, cap);
            assert_eq!(fast, slow, "count={count} cap={cap}");
        }
        // And with no faults the oracle degenerates to the healthy
        // reference engine.
        let pkts = uniform(net.len(), 200, 60, 9);
        let empty = FaultSet::empty();
        let oracle = simulate_faulted_reference(&net, &router, &empty, &pkts, 100_000);
        assert_eq!(
            oracle,
            run(
                &RunPlan::new(&net, &router, Workload::Open(&pkts), 100_000),
                1,
                &mut NoopObserver
            )
            .unwrap()
            .stats
        );
    }

    #[test]
    fn collective_one_port_completion_equals_static_rounds() {
        // The gating oracle of the collective path, small scale: the live
        // replication engine must complete a one-port broadcast in
        // exactly the static schedule's round count (no cross-traffic, so
        // the serialization chain is the only latency source).
        use crate::broadcast::broadcast_one_port;
        use crate::collective::CopyPlan;
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &Hypercube::new(5),
            &Ring::new(12),
        ] {
            for src in [0u32, (topo.len() / 2) as u32] {
                let schedule = broadcast_one_port(topo, src).expect("connected");
                let plan = CopyPlan::from_schedule(topo.graph(), &schedule, true);
                let (stats, reached) = {
                    let out = run(
                        &RunPlan::new(
                            topo,
                            &NextHopRouter::new(topo),
                            Workload::Copies(&plan),
                            1_000_000,
                        ),
                        1,
                        &mut NoopObserver,
                    )
                    .unwrap();
                    (out.stats, out.reached.unwrap())
                };
                assert_eq!(stats.offered, topo.len() - 1, "{}", topo.name());
                assert_eq!(stats.delivered, topo.len() - 1, "{}", topo.name());
                assert_eq!(reached, topo.len() - 1);
                assert_eq!(
                    stats.makespan,
                    schedule.rounds as u64,
                    "{} src={src}: live one-port completion must equal static rounds",
                    topo.name()
                );
                assert_eq!(
                    stats.total_hops,
                    (topo.len() - 1) as u64,
                    "one hop per copy"
                );
            }
        }
    }

    #[test]
    fn collective_all_port_completion_equals_source_eccentricity() {
        use crate::broadcast::broadcast_all_port;
        use crate::collective::CopyPlan;
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &Hypercube::new(5),
        ] {
            let schedule = broadcast_all_port(topo, 0).expect("connected");
            let plan = CopyPlan::from_schedule(topo.graph(), &schedule, false);
            let (stats, _) = {
                let out = run(
                    &RunPlan::new(
                        topo,
                        &NextHopRouter::new(topo),
                        Workload::Copies(&plan),
                        1_000_000,
                    ),
                    1,
                    &mut NoopObserver,
                )
                .unwrap();
                (out.stats, out.reached.unwrap())
            };
            let ecc = fibcube_graph::bfs::bfs_distances(topo.graph(), 0)
                .iter()
                .copied()
                .max()
                .unwrap() as u64;
            assert_eq!(stats.makespan, ecc, "{}", topo.name());
            assert_eq!(stats.delivered, topo.len() - 1);
            assert_eq!(stats.mean_latency, 1.0, "uncontended copies take one cycle");
        }
    }

    #[test]
    fn collective_copies_conserve_under_a_cycle_cap() {
        use crate::broadcast::broadcast_one_port;
        use crate::collective::CopyPlan;
        let net = FibonacciNet::classical(8);
        let schedule = broadcast_one_port(&net, 0).unwrap();
        let plan = CopyPlan::from_schedule(net.graph(), &schedule, true);
        for cap in [0u64, 1, 3, schedule.rounds as u64, 1_000] {
            let mut tracker = crate::observer::DeliveryTracker::new();
            let (stats, reached) = {
                let out = run(
                    &RunPlan::new(
                        &net,
                        &NextHopRouter::new(&net),
                        Workload::Copies(&plan),
                        cap,
                    ),
                    1,
                    &mut tracker,
                )
                .unwrap();
                (out.stats, out.reached.unwrap())
            };
            assert_eq!(stats.offered, net.len() - 1, "cap {cap}");
            assert!(stats.delivered + stats.dropped() <= stats.offered);
            assert!(reached <= stats.delivered);
            // Observer and engine accounting agree copy for copy; spawned
            // copies not yet delivered are the tracker's in-flight.
            assert_eq!(tracker.delivered() as usize, stats.delivered, "cap {cap}");
            assert_eq!(
                tracker.injected() - tracker.delivered(),
                tracker.in_flight(),
                "cap {cap}"
            );
            if cap >= schedule.rounds as u64 {
                assert_eq!(stats.delivered, stats.offered, "cap {cap}: drained");
                assert_eq!(tracker.in_flight(), 0);
            }
        }
    }

    #[test]
    fn collective_observer_sees_replication_events_in_order() {
        // Q_2 one-port from 0. Verify the event stream shape rather than
        // one hard-coded tree: every inject names a real link out of an
        // informed node, and every copy is delivered exactly one cycle
        // after it was injected (uncontended tree edges).
        #[derive(Default)]
        struct Trace {
            injects: Vec<(u64, u32, u32)>,
            delivers: Vec<(u64, u32)>,
        }
        impl SimObserver for Trace {
            fn on_inject(&mut self, cycle: u64, src: u32, dst: u32) {
                self.injects.push((cycle, src, dst));
            }
            fn on_deliver(&mut self, cycle: u64, dst: u32, _latency: u64) {
                self.delivers.push((cycle, dst));
            }
        }
        use crate::broadcast::broadcast_one_port;
        use crate::collective::CopyPlan;
        let q = Hypercube::new(2);
        let schedule = broadcast_one_port(&q, 0).unwrap();
        let plan = CopyPlan::from_schedule(q.graph(), &schedule, true);
        let mut trace = Trace::default();
        let (stats, _) = {
            let out = run(
                &RunPlan::new(&q, &NextHopRouter::new(&q), Workload::Copies(&plan), 1_000),
                1,
                &mut trace,
            )
            .unwrap();
            (out.stats, out.reached.unwrap())
        };
        assert_eq!(stats.delivered, 3);
        assert_eq!(trace.injects.len(), 3);
        let mut informed_at = [u64::MAX; 4];
        informed_at[0] = 0;
        // Injects are causal: the caller was informed strictly earlier.
        for &(cycle, src, dst) in &trace.injects {
            assert!(q.graph().has_edge(src, dst));
            assert!(
                informed_at[src as usize] <= cycle,
                "caller must already hold the message"
            );
            let (dcycle, _) = *trace
                .delivers
                .iter()
                .find(|&&(_, d)| d == dst)
                .expect("every copy is delivered");
            assert_eq!(dcycle, cycle + 1, "uncontended copies take one cycle");
            informed_at[dst as usize] = dcycle;
        }
        assert_eq!(stats.makespan, schedule.rounds as u64);
    }

    #[test]
    fn idle_gap_fast_forward_preserves_semantics() {
        // Two packets separated by a huge idle gap: the active-set engine
        // must skip the gap, not simulate it, and still report identical
        // latencies to the reference engine.
        let q = Hypercube::new(3);
        let pkts = vec![
            Packet {
                src: 0,
                dst: 7,
                inject_time: 0,
            },
            Packet {
                src: 7,
                dst: 0,
                inject_time: 1_000_000,
            },
        ];
        let fast = run(
            &RunPlan::new(&q, &*q.router(), Workload::Open(&pkts), 2_000_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        let slow = simulate_reference(&q, &pkts, 2_000_000);
        assert_eq!(fast.delivered, 2);
        assert_eq!(fast.delivered, slow.delivered);
        assert_eq!(fast.mean_latency, slow.mean_latency);
        assert_eq!(fast.makespan, slow.makespan);
    }

    #[test]
    fn log_histogram_buckets_by_powers_of_two() {
        let mut h = LogHistogram::new();
        for lat in [0, 1, 2, 3, 4, 6, 7, 100, u64::MAX] {
            h.record(lat);
        }
        // Bucket i covers [2^i − 1, 2^{i+1} − 2].
        assert_eq!(h.buckets()[0], 1); // latency 0
        assert_eq!(h.buckets()[1], 2); // 1, 2
        assert_eq!(h.buckets()[2], 3); // 3, 4, 6
        assert_eq!(h.buckets()[3], 1); // 7
        assert_eq!(h.buckets()[6], 1); // 100 ∈ [63, 126]
        assert_eq!(h.buckets()[63], 1); // saturates, no overflow
        assert_eq!(h.count(), 9);
    }

    #[test]
    fn log_histogram_ranges_tile_the_latency_axis() {
        let mut expected_lo = 0u64;
        for i in 0..64 {
            let (lo, hi) = LogHistogram::bucket_range(i);
            assert_eq!(lo, expected_lo, "bucket {i} starts where {} ended", i);
            assert!(hi >= lo);
            if i < 63 {
                expected_lo = hi + 1;
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
    }

    #[test]
    fn log_percentile_upper_bound_never_underestimates() {
        let mut h = LogHistogram::new();
        let mut exact = Vec::new();
        for lat in [0u64, 1, 1, 3, 5, 9, 9, 9, 20, 70] {
            h.record(lat);
            exact.push(lat);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 1.0] {
            let idx = ((exact.len() as f64 * q).ceil() as usize).max(1) - 1;
            let truth = exact[idx];
            let bound = h.percentile_upper_bound(q);
            assert!(bound >= truth, "q={q}: bound {bound} < exact {truth}");
        }
        assert_eq!(LogHistogram::new().percentile_upper_bound(0.99), 0);
    }

    #[test]
    fn log_histogram_matches_dense_histogram_on_a_real_run() {
        // Below DENSE_HISTOGRAM_NODE_LIMIT both forms are filled; the
        // log buckets must be exactly the dense vector folded by log₂.
        let net = FibonacciNet::classical(8);
        let pkts = uniform(net.len(), 400, 64, 9);
        let stats = run(
            &RunPlan::new(&net, &*net.router(), Workload::Open(&pkts), 100_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(
            stats.latency_buckets.count() as usize,
            stats.delivered,
            "every delivery lands in exactly one bucket"
        );
        let mut folded = LogHistogram::new();
        for (lat, &c) in stats.latency_histogram.iter().enumerate() {
            for _ in 0..c {
                folded.record(lat as u64);
            }
        }
        assert_eq!(stats.latency_buckets, folded);
        // The bucketed p99 upper bound dominates the exact dense p99.
        assert!(stats.latency_buckets.percentile_upper_bound(0.99) >= stats.p99_latency);
    }

    #[test]
    fn unforkable_observer_on_two_lanes_is_a_typed_error() {
        // An observer that leaves `fork` at its `None` default cannot
        // follow a sharded run: `run` refuses before building any lane.
        struct Tape(Vec<u64>);
        impl SimObserver for Tape {
            fn on_deliver(&mut self, cycle: u64, _dst: u32, _latency: u64) {
                self.0.push(cycle);
            }
        }
        let net = FibonacciNet::classical(7);
        let pkts = uniform(net.len(), 50, 10, 3);
        let router = net.router();
        let plan = RunPlan::new(&net, &*router, Workload::Open(&pkts), 10_000);
        let mut tape = Tape(Vec::new());
        match run(&plan, 2, &mut tape) {
            Err(ExperimentError::UnforkableObserver { observer, threads }) => {
                assert!(observer.contains("Tape"), "{observer}");
                assert_eq!(threads, 2);
            }
            other => panic!("expected UnforkableObserver, got {other:?}"),
        }
        assert!(tape.0.is_empty(), "nothing ran");
        let one = run(&plan, 1, &mut tape).expect("one lane needs no fork");
        assert_eq!(tape.0.len(), one.stats.delivered);
    }

    #[test]
    fn request_reply_on_one_node_is_a_typed_error() {
        // A closed loop needs a peer: on a 1-node network `run` returns
        // `InvalidTraffic` instead of panicking.
        let lone = Hypercube::new(0);
        assert_eq!(lone.len(), 1);
        let load = RequestReplyLoad {
            clients: 4,
            think: 2.0,
            timeout: 10,
            retries: 1,
            seed: 1,
        };
        let plan = RunPlan::new(&lone, &EcubeRouter, Workload::Closed(&load), 1_000);
        for lanes in [1, 2] {
            match run(&plan, lanes, &mut NoopObserver) {
                Err(ExperimentError::InvalidTraffic { spec, reason }) => {
                    assert!(spec.starts_with("request_reply("), "{spec}");
                    assert!(reason.contains(">= 2 nodes"), "{reason}");
                }
                other => panic!("expected InvalidTraffic, got {other:?}"),
            }
        }
    }

    #[test]
    fn masks_and_timelines_of_another_network_are_typed_errors() {
        // Γ_6 has 21 nodes and Γ_10 144; a 21-node ring has other links
        // than Γ_6; node 500 is in none of them. Each mask indexes the
        // network it was built on, so the plan check refuses a foreign
        // mask or event at any lane count, before a lane reads it.
        let (small, net, ring) = (
            FibonacciNet::classical(6),
            FibonacciNet::classical(10),
            Ring::new(21),
        );
        for lanes in [1, 3] {
            for faults in [FaultSet::empty(), FaultSet::new([1u32], [])] {
                let of_small = FaultMaskingRouter::for_topology(&small, &EcubeRouter, &faults);
                let of_ring = FaultMaskingRouter::for_topology(&ring, &EcubeRouter, &faults);
                for (topo, mask, nodes) in
                    [(&net, &of_small, (21, 144)), (&small, &of_ring, (21, 21))]
                {
                    let pkts = uniform(topo.len(), 40, 10, 1);
                    let plan = RunPlan::new(topo, &EcubeRouter, Workload::Open(&pkts), 1_000)
                        .admission(Admission::Static(mask));
                    match run(&plan, lanes, &mut NoopObserver) {
                        Err(ExperimentError::TableMismatch {
                            table_nodes,
                            topology_nodes,
                        }) => assert_eq!((table_nodes, topology_nodes), nodes),
                        other => panic!("expected TableMismatch, got {other:?}"),
                    }
                }
            }
            let pkts = uniform(net.len(), 40, 10, 1);
            for target in [ChurnTarget::Node(500), ChurnTarget::Link(2, 500)] {
                let timeline = ChurnTimeline::from_events([ChurnEvent {
                    cycle: 3,
                    target,
                    failed: true,
                }]);
                let plan = RunPlan::new(&net, &EcubeRouter, Workload::Open(&pkts), 1_000)
                    .admission(Admission::Churn(&timeline));
                match run(&plan, lanes, &mut NoopObserver) {
                    Err(ExperimentError::Fault(FaultError::InvalidChurn { reason })) => {
                        assert!(reason.contains("144-node"), "{reason}")
                    }
                    other => panic!("expected InvalidChurn, got {other:?}"),
                }
            }
            // Nodes 0 and 100 are both in Γ_10 but not adjacent: a link
            // event between them names no link of the network.
            assert!(!net.graph().has_edge(0, 100));
            let timeline = ChurnTimeline::from_events([ChurnEvent {
                cycle: 3,
                target: ChurnTarget::Link(0, 100),
                failed: true,
            }]);
            let plan = RunPlan::new(&net, &EcubeRouter, Workload::Open(&pkts), 1_000)
                .admission(Admission::Churn(&timeline));
            match run(&plan, lanes, &mut NoopObserver) {
                Err(ExperimentError::Fault(FaultError::InvalidChurn { reason })) => {
                    assert!(reason.contains("not a link of the 144-node"), "{reason}")
                }
                other => panic!("expected InvalidChurn, got {other:?}"),
            }
        }
    }

    #[test]
    fn churn_fits_the_distance_budget_through_gamma_20() {
        // Only a label-less topology's churn lane keeps a two-byte
        // distance table: a 23 170-node ring fits the budget and a
        // 23 171-node one does not. Labelled topologies keep exception
        // rows instead, so Γ_20 and Γ_21 (28 657 nodes, whose table would
        // need 1.64 GB) are both admitted. Only the plan check runs here.
        let one_link = |g: &fibcube_graph::csr::CsrGraph| {
            let (u, v) = g.edges().next().unwrap();
            ChurnTimeline::from_events([ChurnEvent {
                cycle: 3,
                target: ChurnTarget::Link(u, v),
                failed: true,
            }])
        };
        for d in [20, 21] {
            let net = FibonacciNet::classical(d);
            let timeline = one_link(net.graph());
            let plan = RunPlan::new(&net, &EcubeRouter, Workload::Open(&[]), 200)
                .admission(Admission::Churn(&timeline));
            assert_eq!(plan.check(), Ok(()), "Γ_{d}");
        }
        for (n, fits) in [(23_170, true), (23_171, false)] {
            let ring = Ring::new(n);
            let timeline = one_link(ring.graph());
            let plan = RunPlan::new(&ring, &EcubeRouter, Workload::Open(&[]), 200)
                .admission(Admission::Churn(&timeline));
            match plan.check() {
                Ok(()) if fits => {}
                Err(ExperimentError::TableTooLarge { nodes, bytes }) if !fits => {
                    assert_eq!((nodes, bytes), (n, (n as u128) * (n as u128) * 2))
                }
                other => panic!("ring of {n}: got {other:?}"),
            }
        }
    }
}

#[cfg(test)]
mod wormhole_tests {
    use super::*;
    use crate::fault::FaultSet;
    use crate::observer::{NoopObserver, SimObserver};
    use crate::router::{AdaptiveMinimal, EcubeRouter, FaultMaskingRouter};
    use crate::switching::{SwitchingSpec, VcOccupancy, PACKET_LENGTH_UNITS};
    use crate::topology::{FibonacciNet, Hypercube, Mesh, Ring, Topology};
    use crate::traffic::{Packet, TrafficSpec};

    /// Degenerate wormhole: one flit per packet, one VC, effectively
    /// unbounded buffers — structurally the store-and-forward engine.
    fn degenerate() -> SwitchingSpec {
        SwitchingSpec::Wormhole {
            flit_size: PACKET_LENGTH_UNITS,
            vcs: 1,
            buf_flits: 1_000_000,
        }
    }

    #[test]
    fn store_and_forward_spec_delegates_to_the_packet_engine() {
        let q = Hypercube::new(4);
        let pkts = TrafficSpec::Uniform {
            count: 200,
            window: 50,
        }
        .generate(q.len(), 5);
        let saf = run(
            &RunPlan::new(&q, &EcubeRouter, Workload::Open(&pkts), 100_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        let via_spec = run(
            &RunPlan::new(&q, &EcubeRouter, Workload::Open(&pkts), 100_000)
                .switching(SwitchingSpec::StoreAndForward),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(via_spec, saf);
    }

    #[test]
    fn degenerate_wormhole_matches_store_and_forward_on_small_topologies() {
        let spec = degenerate();
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(13),
            &Mesh::new(4, 3),
        ] {
            for (count, window, seed) in [(60usize, 20u64, 1u64), (300, 80, 2), (1, 0, 3)] {
                let pkts = TrafficSpec::Uniform { count, window }.generate(topo.len(), seed);
                let router = topo.router();
                let saf = run(
                    &RunPlan::new(topo, &*router, Workload::Open(&pkts), 100_000),
                    1,
                    &mut NoopObserver,
                )
                .unwrap()
                .stats;
                let worm = run(
                    &RunPlan::new(topo, &*router, Workload::Open(&pkts), 100_000)
                        .switching(spec.clone()),
                    1,
                    &mut NoopObserver,
                )
                .unwrap()
                .stats;
                assert_eq!(worm, saf, "{} count={count} seed={seed}", topo.name());
            }
        }
    }

    #[test]
    fn degenerate_wormhole_matches_faulted_engine() {
        // The masked router's detour rule is load-aware (least-loaded
        // progressive link), and the wormhole engine routes heads when
        // they leave a buffer (credit needs the output known before
        // crossing) while the packet engine routes on arrival — so the
        // two can break detour ties differently and shift queueing
        // latencies by a cycle. The equivalence oracle is therefore the
        // packet-set one: identical delivered set, identical typed
        // drops, identical per-packet hop counts. Hops are pinned
        // exactly: every masked hop strictly decreases the degraded
        // distance, so each packet's hop count is at least that
        // distance, and matching both totals against the distance-sum
        // oracle forces per-packet equality in both engines.
        #[derive(Default)]
        struct DeliveryCensus {
            per_node: Vec<u64>,
        }
        impl SimObserver for DeliveryCensus {
            fn on_deliver(&mut self, _cycle: u64, node: u32, _latency: u64) {
                let i = node as usize;
                if self.per_node.len() <= i {
                    self.per_node.resize(i + 1, 0);
                }
                self.per_node[i] += 1;
            }
        }
        let net = FibonacciNet::classical(7);
        let faults = FaultSet::new([1u32, 5], [(0u32, 2u32)]);
        let pkts = TrafficSpec::Uniform {
            count: 250,
            window: 60,
        }
        .generate(net.len(), 9);
        let router = net.router();
        let spec = degenerate();
        let mut saf_census = DeliveryCensus::default();
        let saf = {
            let mask = FaultMaskingRouter::for_topology(&net, &*router, &faults);
            run(
                &RunPlan::new(&net, &*router, Workload::Open(&pkts), 100_000)
                    .admission(Admission::Static(&mask)),
                1,
                &mut saf_census,
            )
            .unwrap()
            .stats
        };
        let mut worm_census = DeliveryCensus::default();
        let worm = {
            let mask = FaultMaskingRouter::for_topology(&net, &*router, &faults);
            run(
                &RunPlan::new(&net, &*router, Workload::Open(&pkts), 100_000)
                    .switching(spec.clone())
                    .admission(Admission::Static(&mask)),
                1,
                &mut worm_census,
            )
            .unwrap()
            .stats
        };
        assert!(worm.dropped() > 0, "faults must actually bite");
        assert_eq!(worm.offered, saf.offered);
        assert_eq!(worm.delivered, saf.delivered);
        assert_eq!(worm.dropped_dead_endpoint, saf.dropped_dead_endpoint);
        assert_eq!(worm.dropped_unreachable, saf.dropped_unreachable);
        assert_eq!(
            worm_census.per_node, saf_census.per_node,
            "same delivered packet set"
        );
        // Per-packet hop oracle: admitted packets cost exactly their
        // degraded-graph distance.
        let masks = faults.masks(net.graph());
        let dist = crate::dist::DistanceTable::degraded(net.graph(), &masks);
        let expected: u64 = pkts
            .iter()
            .filter(|p| {
                p.src != p.dst
                    && masks.node_alive(p.src)
                    && masks.node_alive(p.dst)
                    && dist.reachable(p.src, p.dst)
            })
            .map(|p| dist.distance(p.src, p.dst) as u64)
            .sum();
        assert_eq!(saf.total_hops, expected);
        assert_eq!(worm.total_hops, expected);
    }

    #[test]
    fn empty_fault_set_delegates_to_the_healthy_wormhole_engine() {
        let q = Hypercube::new(3);
        let pkts = TrafficSpec::Uniform {
            count: 40,
            window: 10,
        }
        .generate(q.len(), 3);
        let spec = SwitchingSpec::Wormhole {
            flit_size: 8,
            vcs: 2,
            buf_flits: 2,
        };
        let healthy = run(
            &RunPlan::new(&q, &EcubeRouter, Workload::Open(&pkts), 100_000).switching(spec.clone()),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        let faulted = {
            let mask = FaultMaskingRouter::for_topology(&q, &EcubeRouter, &FaultSet::default());
            run(
                &RunPlan::new(&q, &EcubeRouter, Workload::Open(&pkts), 100_000)
                    .switching(spec.clone())
                    .admission(Admission::Static(&mask)),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats
        };
        assert_eq!(faulted, healthy);
    }

    #[test]
    fn multi_flit_packet_pipelines_at_distance_plus_serialization() {
        // One 4-flit packet over 4 hops: the tail leaves the source at
        // cycle 3 and crosses 4 links — latency dist + flits − 1 = 7.
        let q = Hypercube::new(4);
        let pkts = vec![Packet {
            src: 0b0000,
            dst: 0b1111,
            inject_time: 0,
        }];
        let spec = SwitchingSpec::Wormhole {
            flit_size: 8, // 32 / 8 = 4 flits
            vcs: 1,
            buf_flits: 4,
        };
        let stats = run(
            &RunPlan::new(&q, &EcubeRouter, Workload::Open(&pkts), 1000).switching(spec.clone()),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.mean_latency, 7.0);
        assert_eq!(stats.makespan, 7);
        assert_eq!(stats.total_hops, 4, "hops count the head flit only");
    }

    #[test]
    fn tight_buffers_drain_on_order_based_topologies() {
        // buf_flits = 1 with multi-flit packets is the hardest blocking
        // regime; order-based VC selection must still drain everything.
        let spec = SwitchingSpec::Wormhole {
            flit_size: 8,
            vcs: 2,
            buf_flits: 1,
        };
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(12),
            &Mesh::new(4, 3),
        ] {
            let pkts = TrafficSpec::Uniform {
                count: 200,
                window: 60,
            }
            .generate(topo.len(), 11);
            let router = topo.router();
            let stats = run(
                &RunPlan::new(topo, &*router, Workload::Open(&pkts), 4_000_000)
                    .switching(spec.clone()),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats;
            assert_eq!(
                stats.delivered + stats.dropped(),
                stats.offered,
                "{} must drain under tight buffers",
                topo.name()
            );
        }
    }

    #[test]
    fn self_addressed_and_zero_cap_match_packet_engine_conventions() {
        let q = Hypercube::new(3);
        let spec = degenerate();
        let selfed = vec![Packet {
            src: 2,
            dst: 2,
            inject_time: 5,
        }];
        let stats = run(
            &RunPlan::new(&q, &EcubeRouter, Workload::Open(&selfed), 100).switching(spec.clone()),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.makespan, 0);
        let capped = run(
            &RunPlan::new(
                &q,
                &EcubeRouter,
                Workload::Open(&[Packet {
                    src: 0,
                    dst: 7,
                    inject_time: 0,
                }]),
                0,
            )
            .switching(spec.clone()),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(capped.delivered, 0);
        assert_eq!(capped.offered, 1);
        // Under a static mask the verdict comes first: a self-addressed
        // packet at a dead node is a typed drop, one at a live node
        // still delivers at once, and both switching models agree.
        let mask = FaultMaskingRouter::for_topology(&q, &EcubeRouter, &FaultSet::new([2u32], []));
        let selfed = [2, 4].map(|v| Packet {
            src: v,
            dst: v,
            inject_time: 5,
        });
        let faulted = |switching| {
            let plan = RunPlan::new(&q, &EcubeRouter, Workload::Open(&selfed), 100)
                .switching(switching)
                .admission(Admission::Static(&mask));
            run(&plan, 1, &mut NoopObserver).unwrap().stats
        };
        let saf = faulted(SwitchingSpec::StoreAndForward);
        assert_eq!(saf.offered, 2);
        assert_eq!(saf.dropped_dead_endpoint, 1);
        assert_eq!(saf.delivered, 1);
        assert_eq!(saf.mean_latency, 0.0);
        assert_eq!(saf.makespan, 0);
        assert_eq!(faulted(spec), saf);
    }

    #[test]
    fn oversized_vc_counts_are_refused_before_allocating() {
        // The run sizes its buffer columns `links × vcs`, and buffer
        // ids are `u32`: a VC count that overflows the ids or the byte
        // budget is a typed error from the plan check, at any lane
        // count, before the lane allocates anything.
        let net = FibonacciNet::classical(10);
        let links = net.graph().num_directed_edges();
        let pkts = TrafficSpec::Uniform {
            count: 200,
            window: 50,
        }
        .generate(net.len(), 3);
        let router = net.router();
        let wormhole = |vcs| SwitchingSpec::Wormhole {
            flit_size: 4,
            vcs,
            buf_flits: 4,
        };
        let over_budget = (crate::router::TABLE_BYTE_BUDGET / links) as u32;
        assert!((links as u64) * (over_budget as u64) < u32::MAX as u64);
        for (vcs, why) in [(u32::MAX, "u32 buffer ids"), (over_budget, "budget")] {
            let plan = RunPlan::new(&net, &*router, Workload::Open(&pkts), 100_000)
                .switching(wormhole(vcs));
            for lanes in [1, 3] {
                match run(&plan, lanes, &mut NoopObserver) {
                    Err(ExperimentError::InvalidSwitching { spec, reason }) => {
                        assert_eq!(spec, wormhole(vcs).to_string());
                        assert!(reason.contains(why), "{reason}");
                    }
                    other => panic!("vcs={vcs} lanes={lanes}: {other:?}"),
                }
            }
        }
        // `Experiment` reaches the same check from the spec's text form.
        let err = crate::experiment::Experiment::on(&net)
            .switching(
                "wormhole(flit_size=4,vcs=4294967295,buf_flits=4)"
                    .parse()
                    .unwrap(),
            )
            .threads(3)
            .run()
            .expect_err("u32::MAX VCs overflow the buffer ids");
        assert!(
            matches!(err, ExperimentError::InvalidSwitching { .. }),
            "{err}"
        );
        // A modest VC count still runs.
        let plan =
            RunPlan::new(&net, &*router, Workload::Open(&pkts), 100_000).switching(wormhole(8));
        let stats = run(&plan, 3, &mut NoopObserver).unwrap().stats;
        assert_eq!(stats.delivered, stats.offered);
    }

    #[test]
    fn wormhole_lane_requests_run_one_lane_on_the_callers_observer() {
        // A wormhole run is one lane at any lane request, so an observer
        // that cannot fork still follows a 4-lane request, and sees
        // exactly what it sees at one lane.
        #[derive(Default, PartialEq, Debug)]
        struct Tape(Vec<(u64, u64, u64)>);
        impl SimObserver for Tape {
            fn on_hop(&mut self, cycle: u64, from: u32, to: u32, _edge: usize) {
                self.0.push((cycle, from as u64, to as u64));
            }
            fn on_flit_hop(&mut self, cycle: u64, edge: usize, vc: u32, occupancy: u32) {
                self.0
                    .push((cycle, edge as u64, (vc as u64) << 32 | occupancy as u64));
            }
            fn on_deliver(&mut self, cycle: u64, dst: u32, latency: u64) {
                self.0.push((cycle, dst as u64, latency));
            }
        }
        let net = FibonacciNet::classical(10);
        let pkts = TrafficSpec::Uniform {
            count: 400,
            window: 100,
        }
        .generate(net.len(), 5);
        let router = net.router();
        let plan = RunPlan::new(&net, &*router, Workload::Open(&pkts), 100_000).switching(
            SwitchingSpec::Wormhole {
                flit_size: 4,
                vcs: 2,
                buf_flits: 4,
            },
        );
        let mut one = Tape::default();
        let serial = run(&plan, 1, &mut one).unwrap().stats;
        let mut four = Tape::default();
        let pooled = run(&plan, 4, &mut four).expect("a wormhole run needs no fork");
        assert_eq!(serial.delivered, serial.offered);
        assert_eq!(pooled.stats, serial);
        assert!(!one.0.is_empty());
        assert_eq!(four, one);
    }

    #[test]
    fn vc_occupancy_observer_profiles_wormhole_runs() {
        let r = Ring::new(12);
        let pkts = TrafficSpec::Uniform {
            count: 150,
            window: 40,
        }
        .generate(r.len(), 7);
        let spec = SwitchingSpec::Wormhole {
            flit_size: 8,
            vcs: 2,
            buf_flits: 2,
        };
        let router = r.router();
        let mut occ = VcOccupancy::new();
        let stats = run(
            &RunPlan::new(&r, &*router, Workload::Open(&pkts), 1_000_000).switching(spec.clone()),
            1,
            &mut occ,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, stats.offered);
        assert!(occ.total_flit_hops() > 0);
        assert!(
            occ.total_flit_hops() >= stats.total_hops,
            "every packet hop moves at least its head flit"
        );
        // The ring's dateline forces some traffic onto VC level 1.
        assert!(occ.flit_hops(0) > 0);
        assert!(occ.flit_hops(1) > 0, "wrap routes must escape to VC 1");
        // Store-and-forward runs emit no flit events at all.
        let mut saf_occ = VcOccupancy::new();
        run(
            &RunPlan::new(&r, &*router, Workload::Open(&pkts), 1_000_000)
                .switching(SwitchingSpec::StoreAndForward),
            1,
            &mut saf_occ,
        )
        .unwrap();
        assert_eq!(saf_occ.total_flit_hops(), 0);
    }

    #[test]
    fn adaptive_routing_still_drains_with_enough_vcs_and_credit() {
        // Adaptive hops are not order-based; with roomy buffers the run
        // must still complete (deadlock freedom is best-effort there,
        // but ample credit keeps the network live).
        let q = Hypercube::new(4);
        let pkts = TrafficSpec::Uniform {
            count: 150,
            window: 40,
        }
        .generate(q.len(), 13);
        let spec = SwitchingSpec::Wormhole {
            flit_size: 16,
            vcs: 3,
            buf_flits: 64,
        };
        let stats = run(
            &RunPlan::new(
                &q,
                &AdaptiveMinimal::new(&q),
                Workload::Open(&pkts),
                4_000_000,
            )
            .switching(spec.clone()),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(stats.delivered, stats.offered);
    }
}
