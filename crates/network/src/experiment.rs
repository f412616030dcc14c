//! The unified experiment API: one composable entry point for every
//! topology/router/workload comparison in the crate.
//!
//! ```
//! use fibcube_network::{
//!     Experiment, FibonacciNet, LatencyHistogram, RouterSpec, TrafficSpec,
//! };
//!
//! let net = FibonacciNet::classical(10);
//! let mut hist = LatencyHistogram::new();
//! let report = Experiment::on(&net)
//!     .router(RouterSpec::Adaptive)
//!     .traffic(TrafficSpec::Uniform { count: 500, window: 100 })
//!     .seed(42)
//!     .observe(&mut hist)
//!     .run()
//!     .expect("adaptive routing is supported on Γ_10");
//! assert_eq!(report.stats.delivered, 500);
//! assert_eq!(hist.delivered(), 500);
//! println!("{}", report.to_json());
//! ```
//!
//! An [`Experiment`] is a builder over seven orthogonal choices:
//!
//! * **topology** — anything implementing
//!   [`Topology`] ([`Experiment::on`]);
//! * **router** — a declarative [`RouterSpec`], resolved against the
//!   topology with a typed capability check (requesting e-cube on a ring
//!   is an [`ExperimentError::UnsupportedRouter`], not a panic);
//! * **traffic** — a [`TrafficSpec`], parseable from CLI/JSON text;
//! * **switching** — a [`SwitchingSpec`]
//!   ([`switching`](Experiment::switching), default store-and-forward):
//!   wormhole specs route the run through the flit-level engine with
//!   virtual channels and credit-based backpressure;
//! * **faults** — a [`FaultSpec`] failure scenario
//!   ([`faults`](Experiment::faults), default none): the engine routes
//!   the degraded network through a fault-masking router and counts
//!   unroutable packets as typed drops;
//! * **budget** — a [`seed`](Experiment::seed) for the workload stream
//!   (and fault placement) and a [`cycles`](Experiment::cycles) cap
//!   (default: run until drained);
//! * **observers** — any [`SimObserver`], attached with
//!   [`observe`](Experiment::observe).
//!
//! [`run`](Experiment::run) builds one [`RunPlan`] from the
//! configuration, executes it with [`engine::run`], and returns a
//! [`Report`]: the configuration echo, the engine's
//! [`SimStats`](crate::engine::SimStats), and one JSON section per
//! observer. [`run_batch`](Experiment::run_batch) fans the same
//! configuration across many seeds on the workspace thread pool with
//! deterministic, order-independent results, and
//! [`sweep`](crate::sweep::sweep) runs it over a grid of axis values
//! (rates, node faults, switching models, churn MTTRs) and averages
//! each cell over the seeds. Both share `run`'s plan builder: the
//! faults are drawn once per seed (per sweep column) and every run of
//! that column reuses the draw and its fault-masking router.
//!
//! ## The observer contract
//!
//! Observers are compiled into the engine (generic, not `dyn`), so the
//! default [`NoopObserver`] costs nothing — a no-observer experiment
//! reproduces a direct [`engine::run`] of the same plan packet for
//! packet *and* cycle for cycle. Hooks fire in simulation order:
//! `on_inject` when a packet enters its source queue, `on_hop` per link
//! traversal, `on_deliver` on arrival (with end-to-end latency), and
//! `on_cycle_end` after each *simulated* cycle — the engine fast-forwards
//! idle stretches, so cycle numbers observed are not necessarily
//! consecutive. Observers must not assume they are; see
//! [`observer`](crate::observer) for details and the shipped
//! [`LatencyHistogram`](crate::observer::LatencyHistogram) /
//! [`LinkHeatmap`](crate::observer::LinkHeatmap) implementations.

use core::fmt;

use crate::broadcast::BroadcastError;
use crate::collective::{CollectiveOutcome, CollectiveSpec, CollectiveWorkload, CopyPlan};
use crate::engine::{self, Admission, RequestReplyLoad, RunPlan, Workload};
use crate::fault::{ChurnTimeline, FaultError, FaultSet, FaultSpec};
use crate::observer::{NoopObserver, SimObserver};
use crate::report::Report;
use crate::router::{FaultMaskingRouter, NextHopRouter, Router, RouterSpec};
use crate::switching::SwitchingSpec;
use crate::topology::Topology;
use crate::traffic::{Packet, TrafficSpec};

/// A configuration the experiment layer rejected — every failure mode
/// that used to be a panic or an `assert!` at a call site, as a typed,
/// `?`-friendly error.
#[derive(Clone, Debug, PartialEq)]
pub enum ExperimentError {
    /// The requested routing policy cannot run on this topology.
    UnsupportedRouter {
        /// The requested policy.
        router: RouterSpec,
        /// Name of the topology that cannot run it.
        topology: String,
    },
    /// The traffic spec is degenerate for the target network.
    InvalidTraffic {
        /// The offending spec, in canonical text form.
        spec: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A spec string failed to parse (`FromStr` for [`TrafficSpec`],
    /// [`RouterSpec`], [`SwitchingSpec`], …).
    ParseSpec {
        /// Which kind of spec (`"traffic"`, `"router"`, `"switching"`, …).
        what: &'static str,
        /// The rejected input.
        input: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The switching spec is degenerate (zero flit size, zero virtual
    /// channels, zero buffer capacity) — see
    /// [`SwitchingSpec::validate`](crate::switching::SwitchingSpec::validate)
    /// — or has more (link × VC) buffers than the network's run can
    /// address or afford (see [`RunPlan`]).
    InvalidSwitching {
        /// The offending spec, in canonical text form.
        spec: String,
        /// What is wrong with it.
        reason: String,
    },
    /// The collective spec is degenerate for the target network
    /// (nonexistent source, too many multicast destinations, …).
    InvalidCollective {
        /// The offending spec, in canonical text form.
        spec: String,
        /// What is wrong with it.
        reason: String,
    },
    /// The experiment combines features that have no defined execution
    /// path — e.g. a tree collective (replication-based) under wormhole
    /// switching, which used to ignore the switching spec silently. See
    /// the support table in the [`RunPlan`] docs.
    UnsupportedCombination {
        /// The collective spec or copy plan, in canonical text form.
        collective: String,
        /// The switching spec, in canonical text form.
        switching: String,
    },
    /// A dynamic-path feature (fault churn, closed-loop `request_reply`
    /// traffic) was combined with a configuration the engine does not
    /// model for it — wormhole switching, or churn under a tree
    /// collective (broadcast, multicast). Both run on the
    /// store-and-forward engine only; `alltoallp` runs under churn as
    /// routed unicasts, and a closed loop runs on the healthy network,
    /// under a static fault mask or under churn.
    UnsupportedDynamic {
        /// The dynamic feature, in canonical text form
        /// (`churn(...)`, `request_reply(...)`, or a churn timeline).
        feature: String,
        /// What it was combined with, in canonical text form.
        with: String,
    },
    /// A [`sweep`](crate::sweep::sweep) grid is malformed: no seeds, an
    /// axis kind given twice, two axes that both set the fault scenario,
    /// or an axis that varies a spec the experiment does not use.
    InvalidSweep {
        /// What is wrong with the grid.
        reason: String,
    },
    /// A thread budget above 1 was combined, on a store-and-forward run,
    /// with an observer that does not implement [`SimObserver::fork`] /
    /// [`SimObserver::merge`]. The sharded engine runs one observer fork
    /// per lane and merges them back in lane order; an observer that
    /// cannot fork cannot attach to a sharded run. Use `threads(1)`, or
    /// implement `fork`/`merge` on the observer.
    UnforkableObserver {
        /// Rust type name of the offending observer
        /// (`std::any::type_name`).
        observer: String,
        /// The requested thread count.
        threads: usize,
    },
    /// The fault scenario is invalid for the target network (or its spec
    /// text failed to parse) — see [`FaultError`].
    Fault(FaultError),
    /// A broadcast schedule could not cover the network — see
    /// [`BroadcastError`]. (The collective path never produces this: it
    /// deliberately schedules partial coverage and types the rest as
    /// drops; the variant carries the static schedulers' errors through
    /// `?`.)
    Broadcast(BroadcastError),
    /// A dense `O(n²)` table ([`NextHopTable`](crate::router::NextHopTable)
    /// or [`DistanceTable`](crate::dist::DistanceTable)) was requested for
    /// a network too large to tabulate within
    /// [`TABLE_BYTE_BUDGET`](crate::router::TABLE_BYTE_BUDGET) — use the
    /// implicit / sampled paths instead of a multi-GiB allocation.
    TableTooLarge {
        /// Number of nodes the table would cover.
        nodes: usize,
        /// Bytes the dense table would occupy.
        bytes: u128,
    },
    /// A caller-supplied cached [`DistanceTable`](crate::dist::DistanceTable)
    /// covers a different node count than the topology it was paired
    /// with (see [`metrics_with`](crate::metrics::metrics_with)), or a
    /// static fault mask ([`Admission::Static`](crate::engine::Admission))
    /// was built on another graph than the topology's.
    TableMismatch {
        /// Nodes the cached table covers.
        table_nodes: usize,
        /// Nodes in the topology.
        topology_nodes: usize,
    },
}

impl From<FaultError> for ExperimentError {
    fn from(e: FaultError) -> ExperimentError {
        ExperimentError::Fault(e)
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::UnsupportedRouter { router, topology } => write!(
                f,
                "router `{router}` is not supported on `{topology}` \
                 (try `preferred` or `builtin`, which every topology runs)"
            ),
            ExperimentError::InvalidTraffic { spec, reason } => {
                write!(f, "invalid traffic `{spec}`: {reason}")
            }
            ExperimentError::ParseSpec {
                what,
                input,
                reason,
            } => write!(f, "cannot parse {what} spec `{input}`: {reason}"),
            ExperimentError::InvalidSwitching { spec, reason } => {
                write!(f, "invalid switching `{spec}`: {reason}")
            }
            ExperimentError::InvalidCollective { spec, reason } => {
                write!(f, "invalid collective `{spec}`: {reason}")
            }
            ExperimentError::UnsupportedCombination {
                collective,
                switching,
            } => write!(
                f,
                "collective `{collective}` cannot run under switching \
                 `{switching}`: tree collectives execute by packet \
                 replication, which has no flit-level wormhole model \
                 (use store_and_forward, or alltoallp, which runs as \
                 routed unicasts under either switching model)"
            ),
            ExperimentError::UnsupportedDynamic { feature, with } => write!(
                f,
                "`{feature}` runs on the store-and-forward point-to-point \
                 engine only and cannot combine with `{with}`"
            ),
            ExperimentError::InvalidSweep { reason } => write!(f, "invalid sweep: {reason}"),
            ExperimentError::UnforkableObserver { observer, threads } => write!(
                f,
                "observer `{observer}` does not implement \
                 SimObserver::fork/merge and cannot attach to a run \
                 sharded across {threads} threads (use threads(1), or \
                 implement fork/merge so the lanes can each run a fork)"
            ),
            ExperimentError::Fault(e) => write!(f, "invalid fault scenario: {e}"),
            ExperimentError::Broadcast(e) => write!(f, "broadcast failed: {e}"),
            ExperimentError::TableTooLarge { nodes, bytes } => write!(
                f,
                "dense O(n²) table over {nodes} nodes needs {bytes} bytes, \
                 over the {} byte budget — use implicit routing / sampled metrics",
                crate::router::TABLE_BYTE_BUDGET
            ),
            ExperimentError::TableMismatch {
                table_nodes,
                topology_nodes,
            } if table_nodes == topology_nodes => write!(
                f,
                "cached table was built on another {table_nodes}-node network — \
                 rebuild the table for this network"
            ),
            ExperimentError::TableMismatch {
                table_nodes,
                topology_nodes,
            } => write!(
                f,
                "cached distance table covers {table_nodes} nodes but the \
                 topology has {topology_nodes} — rebuild the table for this network"
            ),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Builder for one simulation experiment; see the [module docs](self)
/// for the full picture.
///
/// Defaults: [`RouterSpec::Preferred`], 1000 packets of uniform traffic
/// over a 250-cycle window, seed 0, no cycle cap (run until drained),
/// no observer.
#[derive(Debug)]
pub struct Experiment<'a, T: Topology + ?Sized, O: SimObserver = NoopObserver> {
    pub(crate) topology: &'a T,
    router: RouterSpec,
    pub(crate) traffic: TrafficSpec,
    pub(crate) switching: SwitchingSpec,
    pub(crate) collective: Option<CollectiveSpec>,
    pub(crate) faults: FaultSpec,
    max_cycles: u64,
    seed: u64,
    threads: usize,
    observer: O,
}

impl<'a, T: Topology + ?Sized> Experiment<'a, T, NoopObserver> {
    /// Starts an experiment on `topology` with the default configuration.
    pub fn on(topology: &'a T) -> Experiment<'a, T, NoopObserver> {
        Experiment {
            topology,
            router: RouterSpec::Preferred,
            traffic: TrafficSpec::Uniform {
                count: 1000,
                window: 250,
            },
            switching: SwitchingSpec::StoreAndForward,
            collective: None,
            faults: FaultSpec::None,
            max_cycles: u64::MAX,
            seed: 0,
            threads: 1,
            observer: NoopObserver,
        }
    }
}

/// The owned workload one run borrows as its [`Workload`].
enum Load {
    Packets(Vec<Packet>),
    Sessions(RequestReplyLoad),
    Tree(CopyPlan),
}

/// Decorrelates fault placement from the traffic stream while keeping
/// both a pure function of the experiment seed.
fn fault_seed(seed: u64) -> u64 {
    seed ^ 0xFA17_5EED_0C0D_ED00
}

/// Decorrelates the collective's random draws (multicast destinations)
/// from traffic and fault placement.
fn collective_seed(seed: u64) -> u64 {
    seed ^ 0xC011_EC71_5EED_0001
}

/// The faults one run meets, drawn from the experiment's [`FaultSpec`]:
/// the static set it materialises (empty under churn), a churn spec's
/// event timeline, and the fault-masking router a non-empty static set
/// routes through. A sweep column draws once and shares the result with
/// every cell in the column.
pub(crate) struct DrawnFaults<'r, R: Router + ?Sized> {
    set: FaultSet,
    churn: Option<ChurnTimeline>,
    mask: Option<FaultMaskingRouter<'r, R>>,
}

impl<'a, T: Topology + ?Sized> Experiment<'a, T, NoopObserver> {
    /// Runs this configuration once per seed, fanned out across the
    /// workspace's scoped-thread pool, and returns the reports **in
    /// `seeds` order**. Each run is a pure function of `(configuration,
    /// seed)` — traffic and random fault placement both derive from the
    /// seed — so the batch is deterministic: permuting `seeds` permutes
    /// the reports identically, and any order-independent aggregate
    /// (means, sums, histograms merged commutatively) is byte-stable no
    /// matter how the thread pool interleaves the cells.
    ///
    /// Only observer-less experiments batch: a [`SimObserver`] is
    /// mutable per-run state that cannot be shared across parallel runs.
    /// Everything an aggregation typically needs is in
    /// [`Report::stats`]; run seeds sequentially via
    /// [`run`](Experiment::run) when per-event observation is required.
    ///
    /// Errors surface like [`run`](Experiment::run)'s, with the first
    /// failing seed (in `seeds` order) winning.
    pub fn run_batch(&self, seeds: &[u64]) -> Result<Vec<Report>, ExperimentError> {
        let router = self.resolve_router()?;
        let cells = std::slice::from_ref(self);
        let runs = crate::sweep::run_grid(cells, &[0], seeds, &*router, None)?;
        Ok(runs.into_iter().map(|run| run.report).collect())
    }
}

impl<T: Topology + ?Sized, O: SimObserver + Clone> Clone for Experiment<'_, T, O> {
    fn clone(&self) -> Self {
        Experiment {
            topology: self.topology,
            router: self.router,
            traffic: self.traffic.clone(),
            switching: self.switching.clone(),
            collective: self.collective.clone(),
            faults: self.faults.clone(),
            max_cycles: self.max_cycles,
            seed: self.seed,
            threads: self.threads,
            observer: self.observer.clone(),
        }
    }
}

impl<'a, T: Topology + ?Sized, O: SimObserver> Experiment<'a, T, O> {
    /// Selects the routing policy (default [`RouterSpec::Preferred`]).
    pub fn router(mut self, spec: RouterSpec) -> Self {
        self.router = spec;
        self
    }

    /// Selects the workload (default 1000 uniform packets, window 250).
    pub fn traffic(mut self, spec: TrafficSpec) -> Self {
        self.traffic = spec;
        self
    }

    /// Selects the switching model (default
    /// [`SwitchingSpec::StoreAndForward`]). A wormhole spec routes the
    /// run through the flit-level engine: packets split into flits, stream
    /// through per-`(edge × virtual channel)` ring buffers under
    /// credit-based backpressure, and virtual channels are allocated
    /// against the topology's
    /// [`channel_class`](crate::topology::Topology::channel_class) order
    /// so the run is deadlock-free by construction. Tree collectives
    /// (broadcast/multicast) execute by packet replication, which has no
    /// wormhole model: combining them with a wormhole spec is a typed
    /// [`ExperimentError::UnsupportedCombination`]; `alltoallp` runs as
    /// routed unicasts under either switching model.
    pub fn switching(mut self, spec: SwitchingSpec) -> Self {
        self.switching = spec;
        self
    }

    /// Runs a collective-communication workload
    /// ([`CollectiveSpec`]) *instead of* point-to-point traffic: the
    /// [`traffic`](Experiment::traffic) spec is ignored while a
    /// collective is set. Tree collectives (broadcast/multicast) execute
    /// by packet replication over a
    /// [`CopyPlan`] compiled against the
    /// (possibly degraded) network; `alltoallp` runs as routed unicasts.
    /// The [`Report`] gains a
    /// [`collective`](crate::report::Report::collective) outcome with the
    /// completion-time/round statistics.
    pub fn collective(mut self, spec: CollectiveSpec) -> Self {
        self.collective = Some(spec);
        self
    }

    /// Injects a failure scenario (default [`FaultSpec::None`] — the
    /// healthy network). Random variants draw their placement from the
    /// experiment [`seed`](Experiment::seed) (decorrelated from the
    /// traffic stream), so the same `(spec, topology, seed)` triple
    /// reproduces the same degraded network. The engine routes around
    /// the faults via a
    /// [`FaultMaskingRouter`] and
    /// counts unroutable packets as typed drops; an empty scenario is
    /// packet-for-packet identical to not calling this at all.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Caps the simulation at `max_cycles`; undelivered packets show up
    /// as `offered − delivered`. Default: no cap (`u64::MAX`) — safe
    /// because every shipped router is progressive, so runs drain.
    pub fn cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Seeds the traffic generator (default 0). Same (spec, topology,
    /// seed) ⇒ byte-identical packet stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Shards the run across `n` worker threads (default 1 — serial).
    /// The pooled engine executes the *same* stepper as the serial one
    /// and is **bit-identical** to it at any thread count, so this is
    /// purely a throughput knob. The engine clamps the count to at most
    /// 64 and at most the node count ([`engine::run`]), which by the
    /// same identity never changes a result. Every store-and-forward
    /// configuration shards: collectives, fault churn, closed-loop
    /// `request_reply` traffic, and attached observers (each lane runs a
    /// [`SimObserver::fork`] and the forks merge back in lane order);
    /// there an observer whose `fork` returns `None` is a typed
    /// [`ExperimentError::UnforkableObserver`], never a silent serial
    /// fallback. Wormhole switching runs one lane at any thread count,
    /// on the attached observer itself: each flit move depends on moves
    /// granted earlier in the same cycle anywhere in the network, which
    /// no node shard can decide alone. [`run_batch`](Experiment::run_batch) cells always run
    /// serially — the batch already parallelizes across seeds.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Attaches an observer, replacing the current one. Pass a tuple to
    /// attach several (`.observe((hist, heatmap))`), or a `&mut` to keep
    /// ownership outside the experiment (`.observe(&mut hist)`).
    pub fn observe<O2: SimObserver>(self, observer: O2) -> Experiment<'a, T, O2> {
        Experiment {
            topology: self.topology,
            router: self.router,
            traffic: self.traffic,
            switching: self.switching,
            collective: self.collective,
            faults: self.faults,
            max_cycles: self.max_cycles,
            seed: self.seed,
            threads: self.threads,
            observer,
        }
    }

    /// Validates the configuration, generates the workload, materialises
    /// the fault scenario, resolves the router, runs the engine
    /// ([`engine::run`]), and assembles the [`Report`]. A configured
    /// [`collective`](Experiment::collective) replaces the traffic
    /// workload and adds its [`CollectiveOutcome`] to the report.
    ///
    /// A churn spec draws its event timeline from the experiment seed
    /// over the `[0, cycles)` horizon; a static fault set becomes one
    /// fault-masking router the run's packets — open or closed loop —
    /// route through. Unsupported combinations are typed errors from
    /// the engine's support table (see [`RunPlan`]).
    pub fn run(self) -> Result<Report, ExperimentError>
    where
        O: Send,
    {
        let router = self.resolve_router()?;
        let faults = self.draw_faults(self.seed, &*router)?;
        self.run_drawn(&faults, &*router)
    }

    /// `true` when a tree collective (broadcast or multicast, executed by
    /// replication) replaces the traffic.
    fn is_tree(&self) -> bool {
        matches!(&self.collective, Some(spec) if !matches!(spec, CollectiveSpec::AllToAllPersonalized))
    }

    /// Draws the fault scenario from `seed`: the static set, a churn
    /// spec's event timeline over `[0, cycles)`, and the mask around
    /// `router`. Only a non-empty static set on routed traffic needs a
    /// mask: churn masks inside the engine, and a tree's copy plan
    /// carries its own fault set.
    pub(crate) fn draw_faults<'r, R: Router + ?Sized>(
        &self,
        seed: u64,
        router: &'r R,
    ) -> Result<DrawnFaults<'r, R>, ExperimentError>
    where
        'a: 'r,
    {
        let g = self.topology.graph();
        let set = self.faults.sample(g, fault_seed(seed))?;
        let churn = match self.faults {
            FaultSpec::Churn { .. } if self.max_cycles == u64::MAX => {
                return Err(ExperimentError::Fault(FaultError::InvalidChurn {
                    reason: "churn needs a finite cycles(..) cap to bound its event timeline"
                        .to_string(),
                }))
            }
            FaultSpec::Churn {
                node_rate,
                link_rate,
                mttr,
            } => Some(ChurnTimeline::generate(
                g,
                node_rate,
                link_rate,
                mttr,
                fault_seed(seed),
                self.max_cycles,
            )),
            _ => None,
        };
        let unmasked = churn.is_some() || self.is_tree();
        let mask = if unmasked || set.is_empty() {
            None
        } else {
            FaultMaskingRouter::<R>::check_budget(self.topology)?;
            Some(FaultMaskingRouter::for_topology(
                self.topology,
                router,
                &set,
            ))
        };
        Ok(DrawnFaults { set, churn, mask })
    }

    /// The router runs of this configuration consult: the resolved
    /// [`RouterSpec`] — or, for a tree collective, whose copy plan fixed
    /// every edge at compile time, the topology's own rule, leaving the
    /// spec unresolved.
    pub(crate) fn resolve_router(
        &self,
    ) -> Result<Box<dyn Router + Send + Sync + 'a>, ExperimentError> {
        if self.is_tree() {
            Ok(Box::new(NextHopRouter::new(self.topology)))
        } else {
            self.router.resolve(self.topology)
        }
    }

    /// The name a report gives `router`: `tree-forward` for a tree
    /// collective, the fault-masking wrapper's name when `degraded`.
    pub(crate) fn router_name<R: Router + ?Sized>(&self, router: &R, degraded: bool) -> String {
        match () {
            _ if self.is_tree() => "tree-forward".to_string(),
            _ if degraded => crate::router::masked_router_name(&router.name()),
            _ => router.name(),
        }
    }

    /// The rest of [`run`](Experiment::run) once the faults are drawn:
    /// compiles the workload, runs `router` through [`engine::run`]
    /// under `faults`, and assembles the [`Report`].
    pub(crate) fn run_drawn<R: Router + Sync + ?Sized>(
        mut self,
        faults: &DrawnFaults<'_, R>,
        router: &R,
    ) -> Result<Report, ExperimentError>
    where
        O: Send,
    {
        let (topology, n) = (self.topology, self.topology.len());
        self.switching.validate()?;
        let set = &faults.set;
        let compiled = match &self.collective {
            Some(spec) => Some(spec.compile(topology.graph(), set, collective_seed(self.seed))?),
            None => {
                self.traffic.validate(n)?;
                None
            }
        };
        let timeline = faults.churn.as_ref();
        let load = match compiled {
            Some(CollectiveWorkload::Tree(plan)) => Load::Tree(plan),
            Some(CollectiveWorkload::Unicasts(packets)) => Load::Packets(packets),
            None => match self.traffic {
                TrafficSpec::RequestReply {
                    clients,
                    think,
                    timeout,
                    retries,
                } => Load::Sessions(RequestReplyLoad {
                    clients,
                    think,
                    timeout,
                    retries,
                    seed: self.seed,
                }),
                _ => Load::Packets(self.traffic.generate(n, self.seed)),
            },
        };
        let mask = faults.mask.as_ref();
        let admission = match (timeline, mask) {
            (Some(timeline), _) => Admission::Churn(timeline),
            (None, Some(mask)) => Admission::Static(mask),
            (None, None) => Admission::Healthy,
        };
        let workload = match &load {
            Load::Packets(packets) => Workload::Open(packets),
            Load::Sessions(sessions) => Workload::Closed(sessions),
            Load::Tree(plan) => Workload::Copies(plan),
        };
        let plan = RunPlan::new(topology, router, workload, self.max_cycles)
            .switching(self.switching.clone())
            .admission(admission);
        let out = engine::run(&plan, self.threads, &mut self.observer)?;
        // A degraded run executes the fault-masking wrapper, and the
        // report should say so rather than claim the bare policy ran.
        let degraded = timeline.map_or(mask.is_some(), |t| !t.is_empty());
        let collective = self.collective.as_ref().map(|spec| CollectiveOutcome {
            spec: spec.to_string(),
            targets: match &load {
                Load::Tree(plan) => plan.targets(),
                _ => out.stats.offered,
            },
            reached: out.reached.unwrap_or(out.stats.delivered),
            // Only the full broadcast has an exact static oracle; pruned
            // multicast trees re-serialize more tightly.
            schedule_rounds: match &load {
                Load::Tree(plan) if spec.is_broadcast() => Some(plan.schedule_rounds()),
                _ => None,
            },
            completion_cycles: out.stats.makespan,
        });
        Ok(Report {
            topology: topology.name(),
            nodes: n,
            router_spec: self.router.to_string(),
            router: self.router_name(router, degraded),
            traffic: collective
                .as_ref()
                .map_or_else(|| self.traffic.to_string(), |c| c.spec.clone()),
            switching: self.switching.to_string(),
            faults: self.faults.to_string(),
            failed_nodes: set.failed_nodes().len(),
            failed_links: set.failed_links().len(),
            seed: self.seed,
            max_cycles: self.max_cycles,
            stats: out.stats,
            collective,
            sections: self.observer.sections(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimStats;
    use crate::observer::{LatencyHistogram, LinkHeatmap};
    use crate::topology::{FibonacciNet, Hypercube, Ring};

    fn run_spec(topo: &dyn Topology, router: RouterSpec) -> Result<Report, ExperimentError> {
        Experiment::on(topo)
            .router(router)
            .traffic(TrafficSpec::Uniform {
                count: 200,
                window: 50,
            })
            .seed(7)
            .run()
    }

    #[test]
    fn oversized_packet_lists_are_refused_before_generating() {
        // Γ_19's 10 946 nodes make an all-to-all of about 120 M packets,
        // 1.9 GB of list: refused by `validate` and by `Experiment`
        // before anything is allocated. Γ_18's 732 MB fits the budget.
        let (g18, g19) = (6765, 10_946);
        let uniform = |count| TrafficSpec::Uniform { count, window: 10 };
        let over = [
            TrafficSpec::AllToAll,
            uniform(usize::MAX),
            TrafficSpec::HotSpot {
                count: usize::MAX,
                window: 10,
                hot_fraction: 0.5,
            },
            // Each half fits; together they do not.
            TrafficSpec::Mixed(vec![uniform(40_000_000), uniform(40_000_000)]),
        ];
        for spec in &over {
            match spec.validate(g19) {
                Err(ExperimentError::InvalidTraffic { reason, .. }) => {
                    assert!(reason.contains("budget"), "{spec}: {reason}")
                }
                other => panic!("{spec}: expected InvalidTraffic, got {other:?}"),
            }
        }
        assert!(uniform(40_000_000).validate(g19).is_ok());
        assert!(TrafficSpec::AllToAll.validate(g18).is_ok());
        let alltoallp = CollectiveSpec::AllToAllPersonalized;
        assert!(alltoallp.validate(g18).is_ok());
        assert!(matches!(
            alltoallp.validate(g19),
            Err(ExperimentError::InvalidCollective { .. })
        ));

        let net = FibonacciNet::classical(19);
        assert_eq!(net.len(), g19);
        for spec in over {
            let err = Experiment::on(&net).traffic(spec).run().unwrap_err();
            assert!(
                matches!(err, ExperimentError::InvalidTraffic { .. }),
                "{err}"
            );
        }
        let err = Experiment::on(&net)
            .collective(alltoallp)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, ExperimentError::InvalidCollective { .. }),
            "{err}"
        );
    }

    #[test]
    fn oversized_bernoulli_lists_are_refused_before_generating() {
        // Γ_16 at rate 1 for 10¹² cycles expects 2.6·10¹⁵ packets, 41 PB
        // of list: refused before the generator presizes it.
        let net = FibonacciNet::classical(16);
        let n = net.len();
        let bernoulli = |rate, cycles| TrafficSpec::Bernoulli { rate, cycles };
        let over = [
            bernoulli(1.0, 1_000_000_000_000),
            bernoulli(1.0, u64::MAX),
            // Each half fits (38.8 M packets, 620 MB); together they
            // do not.
            TrafficSpec::Mixed(vec![bernoulli(1.0, 15_000), bernoulli(1.0, 15_000)]),
        ];
        assert!(bernoulli(1.0, 15_000).validate(n).is_ok());
        for spec in &over {
            match spec.validate(n) {
                Err(ExperimentError::InvalidTraffic { reason, .. }) => {
                    assert!(reason.contains("budget"), "{spec}: {reason}")
                }
                other => panic!("{spec}: expected InvalidTraffic, got {other:?}"),
            }
        }
        for spec in over {
            let err = Experiment::on(&net).traffic(spec).run().unwrap_err();
            assert!(
                matches!(err, ExperimentError::InvalidTraffic { .. }),
                "{err}"
            );
        }
        // A modest spec still validates and runs.
        let report = Experiment::on(&net)
            .traffic(bernoulli(0.001, 200))
            .run()
            .expect("a modest Bernoulli spec runs");
        assert!(report.stats.offered > 0);
        assert_eq!(report.stats.delivered, report.stats.offered);
    }

    #[test]
    fn bernoulli_trial_counts_are_refused_before_generating() {
        // Rate 0 for 10¹³ cycles is an empty list, but its generator
        // would draw 2.6·10¹⁶ trials on Γ_16: a typed error, not a
        // spinning run.
        let net = FibonacciNet::classical(16);
        let spec: TrafficSpec = "bernoulli(rate=0,cycles=10000000000000)".parse().unwrap();
        match Experiment::on(&net).traffic(spec).cycles(10).run() {
            Err(ExperimentError::InvalidTraffic { reason, .. }) => {
                assert!(reason.contains("trial budget"), "{reason}")
            }
            other => panic!("expected InvalidTraffic, got {other:?}"),
        }
    }

    #[test]
    fn experiment_reproduces_a_direct_engine_run_on_the_acceptance_pair() {
        // Acceptance criterion: a no-op-observer experiment must match
        // a direct `engine::run` packet for packet on Γ_16 and Q_11 — same
        // histogram, makespan, hops, everything — and the zero-fault
        // path (explicit empty FaultSpec) must be indistinguishable
        // from the healthy engine.
        let gamma = FibonacciNet::classical(16);
        let q = Hypercube::new(11);
        for topo in [&gamma as &dyn Topology, &q] {
            let spec = TrafficSpec::Uniform {
                count: 1500,
                window: 400,
            };
            let direct: SimStats = engine::run(
                &RunPlan::new(
                    topo,
                    &*topo.router(),
                    Workload::Open(&spec.generate(topo.len(), 2026)),
                    4_000_000,
                ),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats;
            let report = Experiment::on(topo)
                .traffic(spec.clone())
                .seed(2026)
                .cycles(4_000_000)
                .run()
                .expect("preferred router always resolves");
            assert_eq!(report.stats, direct, "{}", topo.name());
            assert_eq!(report.stats.delivered, report.stats.offered);
            assert_eq!(report.topology, topo.name());
            // Zero-fault equivalence oracle (satellite): every way of
            // spelling "no faults" yields the identical packet-for-packet
            // run.
            for empty in [
                FaultSpec::Nodes { count: 0 },
                FaultSpec::NodeList(vec![]),
                FaultSpec::None,
            ] {
                let faulted = Experiment::on(topo)
                    .traffic(spec.clone())
                    .seed(2026)
                    .cycles(4_000_000)
                    .faults(empty.clone())
                    .run()
                    .expect("empty fault scenarios always sample");
                assert_eq!(faulted.stats, direct, "{} under {empty}", topo.name());
                assert_eq!(faulted.failed_nodes, 0);
                assert_eq!(faulted.failed_links, 0);
            }
        }
    }

    #[test]
    fn faulted_experiment_drops_are_typed_and_conserved() {
        let net = FibonacciNet::classical(10);
        let report = Experiment::on(&net)
            .traffic(TrafficSpec::Uniform {
                count: 2000,
                window: 300,
            })
            .faults(FaultSpec::Nodes { count: 20 })
            .seed(17)
            .run()
            .expect("valid degraded configuration");
        assert_eq!(report.failed_nodes, 20);
        let s = &report.stats;
        assert!(s.dropped_dead_endpoint > 0, "dead endpoints must show up");
        // Uncapped run: everything is delivered or typed-dropped.
        assert_eq!(s.delivered + s.dropped(), s.offered);
        assert_eq!(report.faults, "nodes(count=20)");
        // The report names the router that actually ran — the masked
        // wrapper, not the bare policy.
        assert_eq!(report.router, "fault-masked(canonical)");
        assert_eq!(report.router_spec, "preferred");
        let json = report.to_json();
        assert!(json.contains("\"faults\": \"nodes(count=20)\""), "{json}");
        assert!(json.contains("\"failed_nodes\": 20"), "{json}");
        // The human summary surfaces the drops.
        assert!(report.to_string().contains("dropped"), "{report}");
    }

    #[test]
    fn unforkable_observer_with_threads_is_a_typed_error() {
        // An observer that leaves `fork` at its `None` default cannot
        // attach to a sharded run: the builder must say so up front with
        // a typed error naming the observer type — never fall back to a
        // silent serial run, never panic mid-run.
        struct TapeObserver(Vec<u64>);
        impl SimObserver for TapeObserver {
            fn on_deliver(&mut self, cycle: u64, _dst: u32, _latency: u64) {
                self.0.push(cycle);
            }
        }
        let net = FibonacciNet::classical(7);
        let err = Experiment::on(&net)
            .observe(TapeObserver(Vec::new()))
            .threads(4)
            .run()
            .expect_err("an observer without fork/merge cannot shard");
        match &err {
            ExperimentError::UnforkableObserver { observer, threads } => {
                assert!(observer.contains("TapeObserver"), "{observer}");
                assert_eq!(*threads, 4);
            }
            other => panic!("expected UnforkableObserver, got {other:?}"),
        }
        assert!(err.to_string().contains("fork"), "{err}");
        // The same observer runs fine serially.
        let report = Experiment::on(&net)
            .observe(TapeObserver(Vec::new()))
            .threads(1)
            .run()
            .expect("serial run needs no fork");
        assert!(report.stats.delivered > 0);
    }

    #[test]
    fn threaded_request_reply_matches_serial_through_the_builder() {
        // Closed-loop traffic used to ignore the thread knob silently;
        // now it shards — and the report must not be able to tell.
        let net = FibonacciNet::classical(7);
        let run = |threads: usize| {
            Experiment::on(&net)
                .traffic(TrafficSpec::RequestReply {
                    clients: 6,
                    think: 2.0,
                    timeout: 40,
                    retries: 1,
                })
                .cycles(10_000)
                .seed(11)
                .threads(threads)
                .run()
                .expect("request/reply configuration resolves")
        };
        let serial = run(1);
        assert!(serial.stats.offered > 0);
        for t in [2usize, 4, 8] {
            assert_eq!(run(t).stats, serial.stats, "{t} threads");
        }
    }

    #[test]
    fn fault_spec_errors_surface_as_experiment_errors() {
        let q = Hypercube::new(3);
        let err = Experiment::on(&q)
            .faults(FaultSpec::Nodes { count: 8 })
            .run()
            .expect_err("failing every node is rejected");
        assert!(matches!(err, ExperimentError::Fault(_)));
        assert!(err.to_string().contains("invalid fault scenario"), "{err}");
        // And the text form works end to end with `?`.
        fn run() -> Result<Report, Box<dyn std::error::Error>> {
            let q = Hypercube::new(3);
            let faults: crate::fault::FaultSpec = "nodes(count=2)".parse()?;
            Ok(Experiment::on(&q)
                .traffic("alltoall".parse::<TrafficSpec>()?)
                .faults(faults)
                .run()?)
        }
        let report = run().expect("valid text configuration");
        assert_eq!(
            report.stats.delivered + report.stats.dropped(),
            report.stats.offered
        );
    }

    #[test]
    fn router_capability_errors_are_typed_not_panics() {
        let ring = Ring::new(9);
        match run_spec(&ring, RouterSpec::Ecube) {
            Err(ExperimentError::UnsupportedRouter { router, topology }) => {
                assert_eq!(router, RouterSpec::Ecube);
                assert_eq!(topology, "Ring_9");
            }
            other => panic!("expected UnsupportedRouter, got {other:?}"),
        }
        assert!(run_spec(&ring, RouterSpec::Canonical).is_err());
        assert!(run_spec(&ring, RouterSpec::Adaptive).is_err());
        assert!(run_spec(&ring, RouterSpec::Builtin).is_ok());

        let q = Hypercube::new(4);
        assert!(run_spec(&q, RouterSpec::Canonical).is_err());
        assert_eq!(run_spec(&q, RouterSpec::Ecube).unwrap().router, "e-cube");
    }

    #[test]
    fn experiment_errors_work_with_question_mark() {
        // Satellite: ExperimentError (like RouteError) must box into
        // `dyn Error` so callers can use `?`.
        fn run() -> Result<Report, Box<dyn std::error::Error>> {
            let ring = Ring::new(5);
            let spec: TrafficSpec = "uniform(count=20,window=5)".parse()?;
            let router: RouterSpec = "builtin".parse()?;
            Ok(Experiment::on(&ring).traffic(spec).router(router).run()?)
        }
        let report = run().expect("valid configuration");
        assert_eq!(report.stats.delivered, 20);

        fn bad() -> Result<Report, Box<dyn std::error::Error>> {
            let ring = Ring::new(5);
            let spec: TrafficSpec = "nonsense".parse()?;
            Ok(Experiment::on(&ring).traffic(spec).run()?)
        }
        let err = bad().expect_err("parse failure propagates");
        assert!(err.to_string().contains("traffic"));
    }

    #[test]
    fn invalid_traffic_is_rejected_before_running() {
        let q = Hypercube::new(3);
        let err = Experiment::on(&q)
            .traffic(TrafficSpec::Bernoulli {
                rate: 1.5,
                cycles: 10,
            })
            .run()
            .expect_err("rate 1.5 is not a probability");
        assert!(matches!(err, ExperimentError::InvalidTraffic { .. }));
    }

    #[test]
    fn observers_feed_report_sections() {
        let net = FibonacciNet::classical(8);
        let report = Experiment::on(&net)
            .router(RouterSpec::Canonical)
            .traffic(TrafficSpec::HotSpot {
                count: 400,
                window: 100,
                hot_fraction: 0.3,
            })
            .seed(5)
            .observe((LatencyHistogram::new(), LinkHeatmap::new()))
            .run()
            .unwrap();
        let names: Vec<&str> = report.sections.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["latency_histogram", "link_heatmap"]);
        let json = report.to_json();
        assert!(json.contains("\"latency_histogram\""), "{json}");
        assert!(json.contains("\"hottest\""), "{json}");
        assert!(json.contains("\"traffic\": \"hotspot(count=400,window=100,hot=0.3)\""));
    }

    #[test]
    fn borrowed_observer_stays_inspectable() {
        let q = Hypercube::new(5);
        let mut heat = LinkHeatmap::new();
        let report = Experiment::on(&q)
            .traffic(TrafficSpec::ComplementPermutation { window: 4 })
            .observe(&mut heat)
            .run()
            .unwrap();
        assert_eq!(heat.total_hops(), report.stats.total_hops);
        assert!(heat.total_hops() > 0);
        // Bit-complement on Q_5: every source is distance 5 from its dst.
        assert_eq!(report.stats.total_hops, 32 * 5);
    }

    #[test]
    fn run_batch_matches_sequential_runs_and_any_seed_order() {
        let net = FibonacciNet::classical(9);
        let template = Experiment::on(&net)
            .router(RouterSpec::Canonical)
            .traffic(TrafficSpec::Uniform {
                count: 300,
                window: 80,
            })
            .cycles(100_000);
        let seeds = [11u64, 7, 7, 42];
        let batch = template.run_batch(&seeds).expect("valid configuration");
        assert_eq!(batch.len(), seeds.len());
        // Each report equals the sequential run of the same seed …
        for (report, &seed) in batch.iter().zip(&seeds) {
            let solo = Experiment::on(&net)
                .router(RouterSpec::Canonical)
                .traffic(TrafficSpec::Uniform {
                    count: 300,
                    window: 80,
                })
                .cycles(100_000)
                .seed(seed)
                .run()
                .unwrap();
            assert_eq!(report.stats, solo.stats, "seed {seed}");
            assert_eq!(report.seed, seed);
        }
        // … so permuting the seeds permutes the reports identically and
        // any order-independent aggregate is byte-stable.
        let permuted = template.run_batch(&[42, 7, 11, 7]).unwrap();
        assert_eq!(permuted[0].stats, batch[3].stats);
        assert_eq!(permuted[2].stats, batch[0].stats);
        assert_eq!(permuted[1].stats, batch[1].stats);
        let mean =
            |rs: &[Report]| rs.iter().map(|r| r.stats.mean_latency).sum::<f64>() / rs.len() as f64;
        assert_eq!(mean(&batch), mean(&permuted));
    }

    #[test]
    fn run_batch_with_faults_is_deterministic_per_seed() {
        let q = Hypercube::new(5);
        let template = Experiment::on(&q)
            .traffic(TrafficSpec::Uniform {
                count: 200,
                window: 50,
            })
            .faults(FaultSpec::Nodes { count: 4 });
        let a = template.run_batch(&[1, 2, 3]).unwrap();
        let b = template.run_batch(&[3, 2, 1]).unwrap();
        for (x, y) in a.iter().zip(b.iter().rev()) {
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.failed_nodes, 4);
            // Uncapped degraded runs conserve packets.
            assert_eq!(x.stats.delivered + x.stats.dropped(), x.stats.offered);
        }
        // Different seeds place different faults (decorrelated draws).
        assert_ne!(a[0].stats, a[1].stats);
    }

    #[test]
    fn run_batch_surfaces_configuration_errors() {
        let ring = Ring::new(6);
        let err = Experiment::on(&ring)
            .router(RouterSpec::Ecube)
            .run_batch(&[1, 2])
            .expect_err("no e-cube on a ring");
        assert!(matches!(err, ExperimentError::UnsupportedRouter { .. }));
        // An empty batch runs nothing and succeeds.
        assert!(Experiment::on(&ring).run_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn collective_completion_matches_static_schedule_on_the_acceptance_pair() {
        // Acceptance criterion of the collective path: on healthy Γ_16
        // and Q_11 the *simulated* one-port broadcast completes in
        // exactly the static schedule's round count, and the all-port
        // broadcast in exactly the source's eccentricity.
        use crate::broadcast::{broadcast_all_port, broadcast_one_port};
        use crate::collective::{CollectiveSpec, Port};
        let gamma = FibonacciNet::classical(16);
        let q = Hypercube::new(11);
        for topo in [&gamma as &dyn Topology, &q] {
            let one = broadcast_one_port(topo, 0).expect("connected");
            let report = Experiment::on(topo)
                .collective(CollectiveSpec::Broadcast {
                    source: 0,
                    port: Port::One,
                })
                .run()
                .expect("healthy broadcast runs");
            let outcome = report.collective.as_ref().expect("collective outcome");
            assert_eq!(
                outcome.completion_cycles,
                one.rounds as u64,
                "{}: live one-port completion must equal static rounds",
                topo.name()
            );
            assert_eq!(outcome.schedule_rounds, Some(one.rounds));
            assert_eq!(outcome.targets, topo.len() - 1);
            assert_eq!(outcome.reached, topo.len() - 1);
            assert_eq!(report.stats.delivered, report.stats.offered);
            assert_eq!(report.router, "tree-forward");
            assert_eq!(report.traffic, "broadcast(source=0,port=one)");

            let all = broadcast_all_port(topo, 0).expect("connected");
            let ecc = fibcube_graph::bfs::bfs_distances(topo.graph(), 0)
                .iter()
                .copied()
                .max()
                .unwrap() as u64;
            assert_eq!(all.rounds as u64, ecc);
            let report = Experiment::on(topo)
                .collective(CollectiveSpec::Broadcast {
                    source: 0,
                    port: Port::All,
                })
                .run()
                .unwrap();
            let outcome = report.collective.as_ref().unwrap();
            assert_eq!(
                outcome.completion_cycles,
                ecc,
                "{}: all-port completion must equal source eccentricity",
                topo.name()
            );
            assert_eq!(outcome.reached, topo.len() - 1);
        }
    }

    #[test]
    fn faulted_collective_delivers_exactly_the_survivor_component() {
        // Acceptance criterion: under node faults the broadcast reaches
        // exactly the source's surviving component — no more, no less —
        // with every other intended recipient typed, and conservation
        // extending to replicated copies.
        use crate::collective::{CollectiveSpec, Port};
        use fibcube_graph::bfs::{bfs_distances, INFINITY};
        let net = FibonacciNet::classical(10); // 144 nodes
        for seed in [3u64, 17, 99] {
            let spec = FaultSpec::Nodes { count: 30 };
            let fault_set = spec
                .sample(net.graph(), super::fault_seed(seed))
                .expect("30 of 144 is survivable");
            // The experiment draws the same fault set from the same seed.
            let mut delivered_to = crate::observer::DeliveryTracker::new();
            let report = Experiment::on(&net)
                .collective(CollectiveSpec::Broadcast {
                    source: 0,
                    port: Port::One,
                })
                .faults(spec.clone())
                .seed(seed)
                .observe(&mut delivered_to)
                .run()
                .expect("degraded broadcast runs");
            let outcome = report.collective.as_ref().unwrap();
            let s = &report.stats;
            // Static survivor component of the source.
            if !fault_set.node_alive(0) {
                assert_eq!(outcome.reached, 0, "dead source reaches nobody");
                assert_eq!(s.dropped_dead_endpoint, net.len() - 1);
                continue;
            }
            let (healthy, survivors) = fault_set.healthy_subgraph(net.graph());
            let src_new = survivors.iter().position(|&v| v == 0).unwrap() as u32;
            let dist = bfs_distances(&healthy, src_new);
            let component = dist.iter().filter(|&&d| d != INFINITY).count();
            assert_eq!(
                outcome.reached,
                component - 1,
                "seed {seed}: broadcast must reach exactly the survivor component"
            );
            assert_eq!(s.delivered, component - 1, "pure broadcast has no relays");
            // Typed drops: dead recipients + disconnected survivors.
            assert_eq!(s.dropped_dead_endpoint, fault_set.failed_nodes().len());
            assert_eq!(s.dropped_unreachable, survivors.len() - component);
            // Copy conservation: offered == delivered + dropped (drained).
            assert_eq!(s.offered, net.len() - 1);
            assert_eq!(s.delivered + s.dropped(), s.offered, "seed {seed}");
            assert_eq!(delivered_to.in_flight(), 0);
            // Completion still equals the degraded schedule's rounds.
            assert_eq!(
                outcome.completion_cycles,
                outcome.schedule_rounds.unwrap() as u64
            );
        }
    }

    #[test]
    fn collective_experiments_compose_with_the_rest_of_the_api() {
        use crate::collective::{CollectiveSpec, Port};
        // Multicast: seeded targets, pruned tree, relays counted as
        // deliveries but not as reached targets.
        let net = FibonacciNet::classical(9);
        let report = Experiment::on(&net)
            .collective(CollectiveSpec::Multicast {
                source: 0,
                count: 10,
                port: Port::All,
            })
            .seed(5)
            .run()
            .unwrap();
        let outcome = report.collective.as_ref().unwrap();
        assert_eq!(outcome.targets, 10);
        assert_eq!(outcome.reached, 10);
        assert!(report.stats.delivered >= 10, "relays also receive copies");
        assert_eq!(outcome.schedule_rounds, None, "no oracle for pruned trees");
        // Same seed ⇒ identical run; different seed ⇒ different targets.
        let again = Experiment::on(&net)
            .collective(CollectiveSpec::Multicast {
                source: 0,
                count: 10,
                port: Port::All,
            })
            .seed(5)
            .run()
            .unwrap();
        assert_eq!(again.stats, report.stats);

        // alltoallp runs as routed unicasts — with faults it degrades
        // like ordinary traffic, and the outcome echoes the makespan.
        let q = Hypercube::new(4);
        let report = Experiment::on(&q)
            .collective(CollectiveSpec::AllToAllPersonalized)
            .faults(FaultSpec::Nodes { count: 2 })
            .seed(1)
            .run()
            .unwrap();
        let outcome = report.collective.as_ref().unwrap();
        assert_eq!(outcome.targets, 16 * 15);
        assert_eq!(outcome.reached, report.stats.delivered);
        assert_eq!(outcome.completion_cycles, report.stats.makespan);
        assert!(report.router.starts_with("fault-masked("));
        assert_eq!(
            report.stats.delivered + report.stats.dropped(),
            report.stats.offered
        );

        // run_batch fans collectives out like any other configuration.
        let batch = Experiment::on(&net)
            .collective(CollectiveSpec::Broadcast {
                source: 0,
                port: Port::One,
            })
            .faults(FaultSpec::Nodes { count: 5 })
            .run_batch(&[1, 2, 3])
            .unwrap();
        assert_eq!(batch.len(), 3);
        for (r, seed) in batch.iter().zip([1u64, 2, 3]) {
            let solo = Experiment::on(&net)
                .collective(CollectiveSpec::Broadcast {
                    source: 0,
                    port: Port::One,
                })
                .faults(FaultSpec::Nodes { count: 5 })
                .seed(seed)
                .run()
                .unwrap();
            assert_eq!(r.stats, solo.stats, "seed {seed}");
            assert_eq!(r.collective, solo.collective, "seed {seed}");
        }

        // Degenerate configurations are typed errors.
        let err = Experiment::on(&q)
            .collective(CollectiveSpec::Broadcast {
                source: 99,
                port: Port::One,
            })
            .run()
            .expect_err("source 99 does not exist");
        assert!(matches!(err, ExperimentError::InvalidCollective { .. }));
        assert!(err.to_string().contains("collective"), "{err}");

        // And the text form works end to end with `?`.
        fn text_driven() -> Result<Report, Box<dyn std::error::Error>> {
            let q = Hypercube::new(5);
            let spec: crate::collective::CollectiveSpec = "broadcast(source=0,port=all)".parse()?;
            Ok(Experiment::on(&q).collective(spec).run()?)
        }
        let report = text_driven().expect("valid text configuration");
        assert_eq!(report.collective.unwrap().completion_cycles, 5);
    }

    #[test]
    fn ring_all_to_all_loads_both_directions_equally() {
        // Satellite regression: the even-ring antipodal tie used to break
        // always clockwise, so Ring_8 all-to-all overloaded that
        // direction (32 extra clockwise hops from the 8 antipodal pairs).
        // With the parity tie-break the two directions carry identical
        // totals.
        let ring = Ring::new(8);
        let mut heat = LinkHeatmap::new();
        let report = Experiment::on(&ring)
            .traffic(TrafficSpec::AllToAll)
            .observe(&mut heat)
            .run()
            .expect("builtin routing on a ring");
        assert_eq!(report.stats.delivered, 8 * 7);
        let g = ring.graph();
        let mut clockwise = 0u64;
        let mut counter = 0u64;
        for u in 0..8u32 {
            for e in g.edge_range(u) {
                let v = g.target(e);
                if v == (u + 1) % 8 {
                    clockwise += heat.load(e);
                } else {
                    counter += heat.load(e);
                }
            }
        }
        assert_eq!(heat.total_hops(), clockwise + counter);
        assert_eq!(
            clockwise, counter,
            "antipodal ties must balance the two directions"
        );
    }

    #[test]
    fn collective_report_json_carries_the_outcome() {
        use crate::collective::{CollectiveSpec, Port};
        let q = Hypercube::new(4);
        let report = Experiment::on(&q)
            .collective(CollectiveSpec::Broadcast {
                source: 3,
                port: Port::One,
            })
            .run()
            .unwrap();
        let json = report.to_json();
        for needle in [
            "\"traffic\": \"broadcast(source=3,port=one)\"",
            "\"router\": \"tree-forward\"",
            "\"collective\": {",
            "\"schedule_rounds\":",
            "\"completion_cycles\":",
            "\"reached_fraction\": 1",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // Traffic-only reports serialise a null collective.
        let plain = Experiment::on(&q)
            .traffic(TrafficSpec::AllToAll)
            .run()
            .unwrap();
        assert!(plain.collective.is_none());
        assert!(plain.to_json().contains("\"collective\": null"));
        // The human summary mentions the collective.
        assert!(
            report.to_string().contains("collective reached"),
            "{report}"
        );
    }

    #[test]
    fn switching_spec_is_validated_and_echoed() {
        use crate::switching::SwitchingSpec;
        let q = Hypercube::new(4);
        let plain = Experiment::on(&q)
            .traffic(TrafficSpec::AllToAll)
            .run()
            .unwrap();
        assert_eq!(plain.switching, "store_and_forward");
        assert!(
            plain
                .to_json()
                .contains("\"switching\": \"store_and_forward\""),
            "{}",
            plain.to_json()
        );

        let worm = Experiment::on(&q)
            .traffic(TrafficSpec::AllToAll)
            .switching(SwitchingSpec::Wormhole {
                flit_size: 8,
                vcs: 2,
                buf_flits: 4,
            })
            .run()
            .expect("wormhole on a hypercube is deadlock-free");
        assert_eq!(worm.switching, "wormhole(flit_size=8,vcs=2,buf_flits=4)");
        assert_eq!(worm.stats.delivered, worm.stats.offered);

        let err = Experiment::on(&q)
            .switching(SwitchingSpec::Wormhole {
                flit_size: 0,
                vcs: 1,
                buf_flits: 1,
            })
            .run()
            .expect_err("zero flit size is degenerate");
        assert!(matches!(err, ExperimentError::InvalidSwitching { .. }));
        assert!(err.to_string().contains("switching"), "{err}");
    }

    #[test]
    fn run_batch_carries_the_switching_spec() {
        use crate::switching::SwitchingSpec;
        let net = FibonacciNet::classical(9);
        let spec = SwitchingSpec::Wormhole {
            flit_size: 16,
            vcs: 2,
            buf_flits: 4,
        };
        let template = Experiment::on(&net)
            .traffic(TrafficSpec::Uniform {
                count: 200,
                window: 60,
            })
            .switching(spec.clone());
        let batch = template.run_batch(&[3, 4]).expect("valid configuration");
        for (r, seed) in batch.iter().zip([3u64, 4]) {
            let solo = Experiment::on(&net)
                .traffic(TrafficSpec::Uniform {
                    count: 200,
                    window: 60,
                })
                .switching(spec.clone())
                .seed(seed)
                .run()
                .unwrap();
            assert_eq!(r.stats, solo.stats, "seed {seed}");
            assert_eq!(r.switching, "wormhole(flit_size=16,vcs=2,buf_flits=4)");
        }
    }

    #[test]
    fn collective_switching_combinations_follow_the_support_table() {
        use crate::collective::{CollectiveSpec, Port};
        use crate::switching::SwitchingSpec;
        let q = Hypercube::new(4);
        let worm = SwitchingSpec::Wormhole {
            flit_size: 8,
            vcs: 2,
            buf_flits: 4,
        };
        // Tree collectives + wormhole: a typed error, not a silently
        // ignored switching spec (the pre-table behaviour).
        for spec in [
            CollectiveSpec::Broadcast {
                source: 0,
                port: Port::One,
            },
            CollectiveSpec::Multicast {
                source: 0,
                count: 5,
                port: Port::All,
            },
        ] {
            let err = Experiment::on(&q)
                .collective(spec)
                .switching(worm.clone())
                .run()
                .expect_err("tree replication has no wormhole model");
            assert!(
                matches!(err, ExperimentError::UnsupportedCombination { .. }),
                "{err:?}"
            );
            assert!(err.to_string().contains("store_and_forward"), "{err}");
        }
        // The personalized exchange runs as routed unicasts and honors
        // the wormhole spec: multi-flit serialization must cost cycles.
        let saf = Experiment::on(&q)
            .collective(CollectiveSpec::AllToAllPersonalized)
            .run()
            .unwrap();
        let worm_run = Experiment::on(&q)
            .collective(CollectiveSpec::AllToAllPersonalized)
            .switching(worm)
            .run()
            .expect("alltoallp supports wormhole");
        assert_eq!(worm_run.stats.delivered, worm_run.stats.offered);
        assert!(
            worm_run.stats.makespan > saf.stats.makespan,
            "flit serialization must show up: wormhole {} vs SAF {}",
            worm_run.stats.makespan,
            saf.stats.makespan
        );
        // Tree collectives under store-and-forward remain supported.
        assert!(Experiment::on(&q)
            .collective(CollectiveSpec::Broadcast {
                source: 0,
                port: Port::One,
            })
            .run()
            .is_ok());
    }

    #[test]
    fn churned_collectives_follow_the_engine_support_table() {
        // The engine's support table alone decides: `alltoallp` runs
        // under churn as routed unicasts, and tree collectives get the
        // engine's typed refusal.
        use crate::collective::{CollectiveSpec, Port};
        let q = Hypercube::new(5);
        let churn: FaultSpec = "churn(node_rate=0.01,link_rate=0.01,mttr=50)"
            .parse()
            .unwrap();
        let report = Experiment::on(&q)
            .collective(CollectiveSpec::AllToAllPersonalized)
            .faults(churn.clone())
            .cycles(5_000)
            .seed(3)
            .run()
            .expect("alltoallp runs under churn");
        let outcome = report.collective.as_ref().expect("collective outcome");
        assert_eq!(outcome.targets, 32 * 31);
        assert_eq!(outcome.reached, report.stats.delivered);
        assert_eq!(report.faults, churn.to_string());
        assert!(
            report.router.starts_with("fault-masked("),
            "{}",
            report.router
        );
        let s = &report.stats;
        assert_eq!(
            s.delivered + s.dropped(),
            s.offered,
            "drained under the cap"
        );
        for tree in [
            CollectiveSpec::Broadcast {
                source: 0,
                port: Port::One,
            },
            CollectiveSpec::Multicast {
                source: 0,
                count: 5,
                port: Port::All,
            },
        ] {
            let err = Experiment::on(&q)
                .collective(tree)
                .faults(churn.clone())
                .cycles(5_000)
                .run()
                .expect_err("tree replication has no churn model");
            match &err {
                ExperimentError::UnsupportedDynamic { feature, with } => {
                    assert!(feature.starts_with("churn timeline"), "{feature}");
                    assert!(with.starts_with("copy_plan("), "{with}");
                }
                other => panic!("expected UnsupportedDynamic, got {other:?}"),
            }
        }
    }

    #[test]
    fn threaded_experiments_match_serial_bit_for_bit() {
        // The threads knob must be invisible in the results: healthy and
        // degraded runs shard onto the parallel engine and reproduce the
        // serial stats exactly, histograms included.
        let net = FibonacciNet::classical(12);
        let run_with = |threads: usize, faults: FaultSpec| {
            Experiment::on(&net)
                .traffic(TrafficSpec::Uniform {
                    count: 2_000,
                    window: 200,
                })
                .faults(faults)
                .seed(9)
                .threads(threads)
                .run()
                .unwrap()
        };
        for faults in [FaultSpec::None, FaultSpec::Nodes { count: 10 }] {
            let serial = run_with(1, faults.clone());
            for t in [2usize, 4, 8] {
                let par = run_with(t, faults.clone());
                assert_eq!(par.stats, serial.stats, "threads={t} faults={faults}");
            }
        }
    }

    #[test]
    fn masked_runs_over_the_table_budget_are_refused_before_allocating() {
        // A masked router keeps a dense distance table only on a topology
        // without cube labels: on a 23 171-node ring it would need 1.07 GB,
        // over the budget, and every path that builds one must refuse
        // with the typed error instead of aborting on the allocation.
        // Γ_21 (28 657 nodes) has labels, keeps exception rows, and runs.
        let net = FibonacciNet::classical(21);
        let ring = Ring::new(23_171);
        let rr: TrafficSpec = "request_reply(clients=8,think=20,timeout=200,retries=3)"
            .parse()
            .unwrap();
        let churn: FaultSpec = "churn(node_rate=0.01,link_rate=0.01,mttr=50)"
            .parse()
            .unwrap();
        let few = TrafficSpec::Uniform {
            count: 10,
            window: 10,
        };
        let wormhole: SwitchingSpec = "wormhole(flit_size=8,vcs=2,buf_flits=4)".parse().unwrap();
        let faulted = FaultSpec::Nodes { count: 3 };
        for topology in [&ring as &dyn Topology, &net] {
            let runs = [
                Experiment::on(topology)
                    .traffic(rr.clone())
                    .faults(faulted.clone())
                    .cycles(200),
                Experiment::on(topology)
                    .traffic(few.clone())
                    .faults(churn.clone())
                    .cycles(200),
                Experiment::on(topology)
                    .traffic(few.clone())
                    .faults(faulted.clone()),
                Experiment::on(topology)
                    .traffic(few.clone())
                    .faults(faulted.clone())
                    .switching(wormhole.clone()),
            ];
            for (i, exp) in runs.into_iter().enumerate() {
                let what = format!("{} run {i}", topology.name());
                match exp.run() {
                    Ok(report) if topology.len() == net.len() => {
                        assert!(report.stats.offered > 0, "{what}")
                    }
                    Err(ExperimentError::TableTooLarge { nodes, bytes }) if nodes == ring.len() => {
                        assert_eq!(bytes, 23_171u128 * 23_171 * 2, "{what}");
                    }
                    other => panic!("{what}: got {other:?}"),
                }
            }
        }
        // Healthy runs of the same network build no masked router and
        // still go ahead, open or closed loop.
        let healthy = Experiment::on(&net)
            .traffic(TrafficSpec::Uniform {
                count: 10,
                window: 10,
            })
            .run()
            .unwrap();
        assert_eq!(healthy.stats.delivered, 10);
        let closed = Experiment::on(&net).traffic(rr).cycles(200).run().unwrap();
        assert!(closed.stats.delivered > 0, "{:?}", closed.stats);
        assert_eq!(closed.stats.dropped(), 0);
        assert_eq!(closed.router, "canonical");
    }

    #[test]
    fn report_json_echoes_configuration() {
        let q = Hypercube::new(3);
        let report = Experiment::on(&q)
            .router(RouterSpec::Adaptive)
            .traffic(TrafficSpec::AllToAll)
            .cycles(10_000)
            .run()
            .unwrap();
        let json = report.to_json();
        for needle in [
            "\"topology\": \"Q_3\"",
            "\"nodes\": 8",
            "\"router_spec\": \"adaptive\"",
            "\"router\": \"adaptive\"",
            "\"traffic\": \"alltoall\"",
            "\"max_cycles\": 10000",
            "\"delivered\": 56",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        // No cap ⇒ null.
        let uncapped = Experiment::on(&q)
            .traffic(TrafficSpec::AllToAll)
            .run()
            .unwrap();
        assert!(uncapped.to_json().contains("\"max_cycles\": null"));
        // The human summary names the essentials.
        let line = uncapped.to_string();
        assert!(line.contains("Q_3") && line.contains("56"), "{line}");
    }
}
