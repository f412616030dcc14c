//! Pluggable simulation observers.
//!
//! A [`SimObserver`] is threaded through the active-set engine
//! ([`engine::run`](crate::engine::run)) and
//! receives one callback per event:
//!
//! * [`on_inject`](SimObserver::on_inject) — a packet enters its source's
//!   output queue (self-addressed packets are injected and delivered in
//!   the same call sequence, at latency 0);
//! * [`on_hop`](SimObserver::on_hop) — a packet traverses one directed
//!   link (`edge` is the CSR directed-edge index, stable per topology);
//! * [`on_drop`](SimObserver::on_drop) — a packet is dropped at
//!   injection with a typed
//!   [`DropReason`] (degraded runs
//!   only — see [`Admission`](crate::engine::Admission));
//! * [`on_deliver`](SimObserver::on_deliver) — a packet reaches its
//!   destination, with its end-to-end latency;
//! * [`on_cycle_end`](SimObserver::on_cycle_end) — a *simulated* cycle
//!   finished. The engine fast-forwards across idle stretches, so this
//!   fires only for cycles in which the network held packets — observers
//!   must not assume consecutive cycle numbers;
//! * [`on_flit_hop`](SimObserver::on_flit_hop) — **wormhole runs only**
//!   ([`SwitchingSpec::Wormhole`](crate::switching::SwitchingSpec::Wormhole)): one
//!   flit entered an (edge × virtual-channel) buffer. Store-and-forward
//!   runs never emit it; [`VcOccupancy`](crate::switching::VcOccupancy)
//!   is the ready-made consumer.
//!
//! Every hook has a default empty body and the engine is generic over the
//! observer type, so [`NoopObserver`] monomorphizes to nothing — the fast
//! path with no observer attached costs exactly what it did before
//! observers existed (the `sweep` bench bin asserts the ≥10× envelope over
//! the seed engine through this path). The event stream is part of the
//! engine's contract: the arena engine emits exactly the sequence the
//! original per-link-`VecDeque` engine did, whether it routes per hop or
//! through a precomputed
//! [`NextHopTable`](crate::router::NextHopTable).
//!
//! Collective runs
//! ([`Workload::Copies`](crate::engine::Workload::Copies)) emit
//! the same hooks per *copy*: `on_inject(cycle, origin, child)` when a
//! replica is spawned at its tree parent (so injections happen throughout
//! the run, not just in the workload window), `on_drop` at cycle 0 for
//! intended recipients the fault set killed or disconnected, and one
//! single-hop `on_hop`/`on_deliver` pair per copy. [`DeliveryTracker`]
//! therefore accounts collectives copy for copy with no changes.
//!
//! Three ready-made observers ship with the crate: [`LatencyHistogram`]
//! (per-packet latency distribution, independently of [`SimStats`]'s own
//! accounting), [`LinkHeatmap`] (per-directed-link traversal counts —
//! the instrument that exposes the canonical-routing hub congestion on
//! `Γ_d`), and [`DeliveryTracker`] (delivered/dropped/undeliverable
//! fractions — the fault-resilience measure).
//!
//! [`SimStats`]: crate::engine::SimStats

use crate::engine::stats::{bump, percentile};
use crate::engine::DropReason;
use crate::report::JsonValue;

/// Event hooks invoked by the simulation engine. All hooks default to
/// no-ops; implement only what you need. See the [module
/// docs](self) for the exact contract of each event.
pub trait SimObserver {
    /// `true` when every hook is statically known to be a no-op —
    /// [`NoopObserver`] and compositions of it. Purely an optimization
    /// hint (a no-op observer monomorphizes every hook away); sharded
    /// runs attach any observer through [`fork`](SimObserver::fork) /
    /// [`merge`](SimObserver::merge) regardless of this flag.
    const IS_NOOP: bool = false;

    /// Creates the per-lane instance a sharded run gives each lane, or
    /// `None` if this observer cannot shard (the experiment layer then
    /// reports a typed error for `threads > 1`).
    ///
    /// # Contract
    ///
    /// The engine partitions *packet* events (`on_inject`, `on_hop`,
    /// `on_drop`, `on_deliver`, `on_flit_hop`) across forks by the node
    /// that owns them, preserving relative order within a lane, and
    /// replays *global* events (`on_cycle_end` with the global in-flight
    /// count, `on_fault_event`) identically on **every** fork. A correct
    /// implementation therefore sums packet-event state and deduplicates
    /// global-event state in [`merge`](SimObserver::merge), such that
    /// fork → events → merge (in ascending lane order) reproduces the
    /// serial observer bit for bit.
    fn fork(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// Folds one lane's fork back into `self`. Called once per fork, in
    /// ascending lane order, after the run completes — see
    /// [`fork`](SimObserver::fork) for the exactness contract.
    fn merge(&mut self, fork: Self)
    where
        Self: Sized,
    {
        let _ = fork;
    }

    /// A packet from `src` to `dst` entered the network at `cycle`.
    #[inline]
    fn on_inject(&mut self, cycle: u64, src: u32, dst: u32) {
        let _ = (cycle, src, dst);
    }

    /// A packet crossed the directed link `from → to` during `cycle`.
    /// `edge` is the link's CSR directed-edge index.
    #[inline]
    fn on_hop(&mut self, cycle: u64, from: u32, to: u32, edge: usize) {
        let _ = (cycle, from, to, edge);
    }

    /// A packet was dropped at injection during `cycle` — only on
    /// degraded networks
    /// ([`Admission`](crate::engine::Admission)), with
    /// the typed [`DropReason`]. Fires after the packet's
    /// [`on_inject`](SimObserver::on_inject).
    #[inline]
    fn on_drop(&mut self, cycle: u64, src: u32, dst: u32, reason: DropReason) {
        let _ = (cycle, src, dst, reason);
    }

    /// A packet arrived at its destination `dst` at `cycle`, `latency`
    /// cycles after injection.
    #[inline]
    fn on_deliver(&mut self, cycle: u64, dst: u32, latency: u64) {
        let _ = (cycle, dst, latency);
    }

    /// A simulated cycle ended with `in_flight` packets still queued.
    /// Idle cycles are fast-forwarded and produce no call.
    #[inline]
    fn on_cycle_end(&mut self, cycle: u64, in_flight: usize) {
        let _ = (cycle, in_flight);
    }

    /// A flit entered the buffer of directed link `edge`, virtual channel
    /// `vc`, during `cycle`; `occupancy` is that buffer's flit count
    /// *after* the push. Fired only by the wormhole engine
    /// ([`SwitchingSpec::Wormhole`](crate::switching::SwitchingSpec::Wormhole)) —
    /// store-and-forward runs emit packet-level
    /// [`on_hop`](SimObserver::on_hop) events only.
    #[inline]
    fn on_flit_hop(&mut self, cycle: u64, edge: usize, vc: u32, occupancy: u32) {
        let _ = (cycle, edge, vc, occupancy);
    }

    /// A churn event committed at the boundary of `cycle`: `failed` is
    /// `true` for a fail event, `false` for a recovery. Fired only by the
    /// churn engine
    /// ([`Admission::Churn`](crate::engine::Admission::Churn)) — static
    /// fault runs never emit it. Fires before the cycle's injections.
    #[inline]
    fn on_fault_event(&mut self, cycle: u64, failed: bool) {
        let _ = (cycle, failed);
    }

    /// Named JSON sections for the experiment [`Report`]
    /// (one `(name, value)` pair per section). Defaults to none.
    ///
    /// [`Report`]: crate::report::Report
    fn sections(&self) -> Vec<(String, JsonValue)> {
        Vec::new()
    }
}

/// The zero-cost default observer: every hook is an empty inline body,
/// so the monomorphized engine is identical to one without observers.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {
    const IS_NOOP: bool = true;

    fn fork(&self) -> Option<Self> {
        Some(NoopObserver)
    }
}

/// Mutable references observe through to the referent, so an experiment
/// can borrow an observer (`.observe(&mut hist)`) and the caller keeps
/// ownership for inspection after the run.
impl<O: SimObserver + ?Sized> SimObserver for &mut O {
    const IS_NOOP: bool = O::IS_NOOP;

    #[inline]
    fn on_inject(&mut self, cycle: u64, src: u32, dst: u32) {
        (**self).on_inject(cycle, src, dst);
    }

    #[inline]
    fn on_hop(&mut self, cycle: u64, from: u32, to: u32, edge: usize) {
        (**self).on_hop(cycle, from, to, edge);
    }

    #[inline]
    fn on_drop(&mut self, cycle: u64, src: u32, dst: u32, reason: DropReason) {
        (**self).on_drop(cycle, src, dst, reason);
    }

    #[inline]
    fn on_deliver(&mut self, cycle: u64, dst: u32, latency: u64) {
        (**self).on_deliver(cycle, dst, latency);
    }

    #[inline]
    fn on_cycle_end(&mut self, cycle: u64, in_flight: usize) {
        (**self).on_cycle_end(cycle, in_flight);
    }

    #[inline]
    fn on_flit_hop(&mut self, cycle: u64, edge: usize, vc: u32, occupancy: u32) {
        (**self).on_flit_hop(cycle, edge, vc, occupancy);
    }

    #[inline]
    fn on_fault_event(&mut self, cycle: u64, failed: bool) {
        (**self).on_fault_event(cycle, failed);
    }

    fn sections(&self) -> Vec<(String, JsonValue)> {
        (**self).sections()
    }
}

/// Pairs compose: both observers see every event (left first), and their
/// report sections concatenate. Nest pairs for three or more.
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    const IS_NOOP: bool = A::IS_NOOP && B::IS_NOOP;

    fn fork(&self) -> Option<Self> {
        Some((self.0.fork()?, self.1.fork()?))
    }

    fn merge(&mut self, fork: Self) {
        self.0.merge(fork.0);
        self.1.merge(fork.1);
    }

    #[inline]
    fn on_inject(&mut self, cycle: u64, src: u32, dst: u32) {
        self.0.on_inject(cycle, src, dst);
        self.1.on_inject(cycle, src, dst);
    }

    #[inline]
    fn on_hop(&mut self, cycle: u64, from: u32, to: u32, edge: usize) {
        self.0.on_hop(cycle, from, to, edge);
        self.1.on_hop(cycle, from, to, edge);
    }

    #[inline]
    fn on_drop(&mut self, cycle: u64, src: u32, dst: u32, reason: DropReason) {
        self.0.on_drop(cycle, src, dst, reason);
        self.1.on_drop(cycle, src, dst, reason);
    }

    #[inline]
    fn on_deliver(&mut self, cycle: u64, dst: u32, latency: u64) {
        self.0.on_deliver(cycle, dst, latency);
        self.1.on_deliver(cycle, dst, latency);
    }

    #[inline]
    fn on_cycle_end(&mut self, cycle: u64, in_flight: usize) {
        self.0.on_cycle_end(cycle, in_flight);
        self.1.on_cycle_end(cycle, in_flight);
    }

    #[inline]
    fn on_flit_hop(&mut self, cycle: u64, edge: usize, vc: u32, occupancy: u32) {
        self.0.on_flit_hop(cycle, edge, vc, occupancy);
        self.1.on_flit_hop(cycle, edge, vc, occupancy);
    }

    #[inline]
    fn on_fault_event(&mut self, cycle: u64, failed: bool) {
        self.0.on_fault_event(cycle, failed);
        self.1.on_fault_event(cycle, failed);
    }

    fn sections(&self) -> Vec<(String, JsonValue)> {
        let mut s = self.0.sections();
        s.extend(self.1.sections());
        s
    }
}

/// Observer building the end-to-end latency distribution from
/// [`on_deliver`](SimObserver::on_deliver) events. Its histogram must
/// match [`SimStats::latency_histogram`](crate::engine::SimStats) for
/// the same run — the experiment tests use exactly that as the observer
/// contract check.
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    hist: Vec<u64>,
    delivered: u64,
    total_latency: u64,
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// `histogram()[l]` = packets delivered with latency `l`.
    pub fn histogram(&self) -> &[u64] {
        &self.hist
    }

    /// Packets observed so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Mean observed latency (0 when nothing was delivered).
    pub fn mean(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// 99th-percentile observed latency.
    pub fn p99(&self) -> u64 {
        percentile(&self.hist, 0.99)
    }
}

impl SimObserver for LatencyHistogram {
    fn fork(&self) -> Option<Self> {
        Some(LatencyHistogram::new())
    }

    /// Deliveries partition across lanes, so the counts just add.
    fn merge(&mut self, fork: Self) {
        if self.hist.len() < fork.hist.len() {
            self.hist.resize(fork.hist.len(), 0);
        }
        for (lat, c) in fork.hist.into_iter().enumerate() {
            self.hist[lat] += c;
        }
        self.delivered += fork.delivered;
        self.total_latency += fork.total_latency;
    }

    #[inline]
    fn on_deliver(&mut self, _cycle: u64, _dst: u32, latency: u64) {
        bump(&mut self.hist, latency);
        self.delivered += 1;
        self.total_latency += latency;
    }

    fn sections(&self) -> Vec<(String, JsonValue)> {
        vec![(
            "latency_histogram".to_string(),
            JsonValue::obj([
                ("delivered", JsonValue::Int(self.delivered)),
                ("mean_latency", JsonValue::Num(self.mean())),
                ("p99_latency", JsonValue::Int(self.p99())),
                (
                    "histogram",
                    JsonValue::Arr(self.hist.iter().map(|&c| JsonValue::Int(c)).collect()),
                ),
            ]),
        )]
    }
}

/// Observer counting traversals per directed link — the load picture
/// behind saturation: on `Γ_d` under deterministic canonical routing a
/// few hub links carry an outsized share, which this map makes visible.
#[derive(Clone, Debug, Default)]
pub struct LinkHeatmap {
    /// `counts[edge]` = packets that crossed that directed link.
    counts: Vec<u64>,
    /// `(from, to)` endpoints per edge index, recorded on first use.
    endpoints: Vec<(u32, u32)>,
    total: u64,
}

impl LinkHeatmap {
    /// A fresh, empty heatmap (grows on demand as links are used).
    pub fn new() -> LinkHeatmap {
        LinkHeatmap::default()
    }

    /// Traversal count of the directed link with CSR edge index `edge`
    /// (0 for links never used).
    pub fn load(&self, edge: usize) -> u64 {
        self.counts.get(edge).copied().unwrap_or(0)
    }

    /// Total link traversals observed (equals `SimStats::total_hops`).
    pub fn total_hops(&self) -> u64 {
        self.total
    }

    /// Number of distinct directed links used at least once.
    pub fn links_used(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// The `k` most-used links as `(from, to, count)`, most loaded first
    /// (ties broken by edge index).
    pub fn hottest(&self, k: usize) -> Vec<(u32, u32, u64)> {
        let mut used: Vec<usize> = (0..self.counts.len())
            .filter(|&e| self.counts[e] > 0)
            .collect();
        used.sort_by_key(|&e| (std::cmp::Reverse(self.counts[e]), e));
        used.truncate(k);
        used.into_iter()
            .map(|e| {
                let (f, t) = self.endpoints[e];
                (f, t, self.counts[e])
            })
            .collect()
    }
}

impl SimObserver for LinkHeatmap {
    fn fork(&self) -> Option<Self> {
        Some(LinkHeatmap::new())
    }

    /// Hops partition across lanes by the popping node, so per-edge
    /// counts add; endpoints come from whichever side saw the edge.
    fn merge(&mut self, fork: Self) {
        if self.counts.len() < fork.counts.len() {
            self.counts.resize(fork.counts.len(), 0);
            self.endpoints
                .resize(fork.counts.len(), (u32::MAX, u32::MAX));
        }
        for (e, c) in fork.counts.into_iter().enumerate() {
            self.counts[e] += c;
            if c > 0 {
                self.endpoints[e] = fork.endpoints[e];
            }
        }
        self.total += fork.total;
    }

    #[inline]
    fn on_hop(&mut self, _cycle: u64, from: u32, to: u32, edge: usize) {
        if self.counts.len() <= edge {
            self.counts.resize(edge + 1, 0);
            self.endpoints.resize(edge + 1, (u32::MAX, u32::MAX));
        }
        self.counts[edge] += 1;
        self.endpoints[edge] = (from, to);
        self.total += 1;
    }

    fn sections(&self) -> Vec<(String, JsonValue)> {
        let hottest = self
            .hottest(8)
            .into_iter()
            .map(|(from, to, count)| {
                JsonValue::obj([
                    ("from", JsonValue::Int(from as u64)),
                    ("to", JsonValue::Int(to as u64)),
                    ("count", JsonValue::Int(count)),
                ])
            })
            .collect();
        vec![(
            "link_heatmap".to_string(),
            JsonValue::obj([
                ("total_hops", JsonValue::Int(self.total)),
                ("links_used", JsonValue::Int(self.links_used() as u64)),
                ("hottest", JsonValue::Arr(hottest)),
            ]),
        )]
    }
}

/// Observer accounting for every packet's fate on a (possibly degraded)
/// network: delivered, dropped with a dead endpoint, dropped as
/// unreachable, or still in flight when the cycle cap hit. Its
/// fractions are the delivered-throughput degradation measure the
/// fault-resilience experiments report.
///
/// Fractions are `None` until at least one packet was injected — an
/// idle run has no meaningful ratio, mirroring the `Option` convention
/// of [`FaultTrial`](crate::fault::FaultTrial).
#[derive(Clone, Debug, Default)]
pub struct DeliveryTracker {
    injected: u64,
    delivered: u64,
    dropped_dead_endpoint: u64,
    dropped_unreachable: u64,
    dropped_link_died: u64,
    dropped_node_died: u64,
    dropped_retries_exhausted: u64,
}

impl DeliveryTracker {
    /// A fresh tracker.
    pub fn new() -> DeliveryTracker {
        DeliveryTracker::default()
    }

    /// Packets injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Packets delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped because their source or destination failed.
    pub fn dropped_dead_endpoint(&self) -> u64 {
        self.dropped_dead_endpoint
    }

    /// Packets dropped because the faults disconnect their endpoints.
    pub fn dropped_unreachable(&self) -> u64 {
        self.dropped_unreachable
    }

    /// Packets dropped mid-run because their queued link failed.
    pub fn dropped_link_died(&self) -> u64 {
        self.dropped_link_died
    }

    /// Packets dropped mid-run because a node they occupied (or were
    /// addressed to) failed.
    pub fn dropped_node_died(&self) -> u64 {
        self.dropped_node_died
    }

    /// Closed-loop requests abandoned after exhausting their retry
    /// budget.
    pub fn dropped_retries_exhausted(&self) -> u64 {
        self.dropped_retries_exhausted
    }

    /// Total typed drops.
    pub fn dropped(&self) -> u64 {
        self.dropped_dead_endpoint
            + self.dropped_unreachable
            + self.dropped_link_died
            + self.dropped_node_died
            + self.dropped_retries_exhausted
    }

    /// Packets neither delivered nor dropped — still queued when the run
    /// ended (nonzero only under a cycle cap).
    pub fn in_flight(&self) -> u64 {
        self.injected - self.delivered - self.dropped()
    }

    /// `delivered / injected`, or `None` before any injection.
    pub fn delivered_fraction(&self) -> Option<f64> {
        (self.injected > 0).then(|| self.delivered as f64 / self.injected as f64)
    }

    /// `dropped / injected` (both drop kinds), or `None` before any
    /// injection.
    pub fn dropped_fraction(&self) -> Option<f64> {
        (self.injected > 0).then(|| self.dropped() as f64 / self.injected as f64)
    }

    /// `dropped_unreachable / injected` — the statically undeliverable
    /// share — or `None` before any injection.
    pub fn undeliverable_fraction(&self) -> Option<f64> {
        (self.injected > 0).then(|| self.dropped_unreachable as f64 / self.injected as f64)
    }
}

fn fraction_json(x: Option<f64>) -> JsonValue {
    match x {
        Some(v) => JsonValue::Num(v),
        None => JsonValue::Null,
    }
}

impl SimObserver for DeliveryTracker {
    fn fork(&self) -> Option<Self> {
        Some(DeliveryTracker::new())
    }

    /// Every tracked event is a partitioned packet event: sum.
    fn merge(&mut self, fork: Self) {
        self.injected += fork.injected;
        self.delivered += fork.delivered;
        self.dropped_dead_endpoint += fork.dropped_dead_endpoint;
        self.dropped_unreachable += fork.dropped_unreachable;
        self.dropped_link_died += fork.dropped_link_died;
        self.dropped_node_died += fork.dropped_node_died;
        self.dropped_retries_exhausted += fork.dropped_retries_exhausted;
    }

    #[inline]
    fn on_inject(&mut self, _cycle: u64, _src: u32, _dst: u32) {
        self.injected += 1;
    }

    #[inline]
    fn on_deliver(&mut self, _cycle: u64, _dst: u32, _latency: u64) {
        self.delivered += 1;
    }

    #[inline]
    fn on_drop(&mut self, _cycle: u64, _src: u32, _dst: u32, reason: DropReason) {
        match reason {
            DropReason::DeadEndpoint => self.dropped_dead_endpoint += 1,
            DropReason::Unreachable => self.dropped_unreachable += 1,
            DropReason::LinkDied => self.dropped_link_died += 1,
            DropReason::NodeDied => self.dropped_node_died += 1,
            DropReason::RetriesExhausted => self.dropped_retries_exhausted += 1,
        }
    }

    fn sections(&self) -> Vec<(String, JsonValue)> {
        vec![(
            "delivery".to_string(),
            JsonValue::obj([
                ("injected", JsonValue::Int(self.injected)),
                ("delivered", JsonValue::Int(self.delivered)),
                (
                    "dropped_dead_endpoint",
                    JsonValue::Int(self.dropped_dead_endpoint),
                ),
                (
                    "dropped_unreachable",
                    JsonValue::Int(self.dropped_unreachable),
                ),
                ("dropped_link_died", JsonValue::Int(self.dropped_link_died)),
                ("dropped_node_died", JsonValue::Int(self.dropped_node_died)),
                (
                    "dropped_retries_exhausted",
                    JsonValue::Int(self.dropped_retries_exhausted),
                ),
                ("in_flight", JsonValue::Int(self.in_flight())),
                (
                    "delivered_fraction",
                    fraction_json(self.delivered_fraction()),
                ),
                ("dropped_fraction", fraction_json(self.dropped_fraction())),
                (
                    "undeliverable_fraction",
                    fraction_json(self.undeliverable_fraction()),
                ),
            ]),
        )]
    }
}

/// Delivered-fraction threshold at which [`SloTracker`] considers
/// service recovered after a fault event.
pub const SLO_DELIVERED_TARGET: f64 = 0.99;

/// One aggregation window of an [`SloTracker`] run. Windows are sparse:
/// only windows in which at least one event fired are recorded, so
/// consumers must not assume consecutive [`start`](SloWindow::start)
/// values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloWindow {
    start: u64,
    end: u64,
    injected: u64,
    delivered: u64,
    dropped: u64,
    hist: Vec<u64>,
}

impl SloWindow {
    /// First cycle covered by this window (inclusive).
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last cycle covered by this window.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Packets injected during this window.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Packets delivered during this window.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Packets dropped (any [`DropReason`]) during this window.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `delivered / injected` for this window, or `None` when nothing
    /// was injected in it.
    pub fn delivered_fraction(&self) -> Option<f64> {
        (self.injected > 0).then(|| self.delivered as f64 / self.injected as f64)
    }

    /// 99th-percentile latency of packets delivered in this window.
    pub fn p99(&self) -> u64 {
        percentile(&self.hist, 0.99)
    }

    /// 99.9th-percentile latency of packets delivered in this window.
    pub fn p999(&self) -> u64 {
        percentile(&self.hist, 0.999)
    }
}

/// Per-fault-event recovery record computed by
/// [`SloTracker::recoveries`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloRecovery {
    /// Cycle boundary at which the event committed.
    pub cycle: u64,
    /// `true` for a fail event, `false` for a recovery event.
    pub failed: bool,
    /// Cycles from the event until the end of the first window at or
    /// after it whose delivered fraction met
    /// [`SLO_DELIVERED_TARGET`]; `None` when service never recovered
    /// before the run ended.
    pub time_to_recover: Option<u64>,
}

/// Service-level observer for churn runs: windowed
/// delivered-fraction-over-time, windowed tail latency (p99/p99.9),
/// and time-to-recover after each fault event.
///
/// Attach to a churn run
/// ([`Admission::Churn`](crate::engine::Admission::Churn)) and read the
/// typed accessors, or let [`sections`](SimObserver::sections) emit an
/// `"slo"` report section. Windows aggregate `window` cycles each and
/// are recorded sparsely (idle windows are absent).
#[derive(Clone, Debug)]
pub struct SloTracker {
    window: u64,
    windows: Vec<SloWindow>,
    fault_events: Vec<(u64, bool)>,
}

impl SloTracker {
    /// A fresh tracker aggregating `window` cycles per window
    /// (clamped to at least 1).
    pub fn new(window: u64) -> SloTracker {
        SloTracker {
            window: window.max(1),
            windows: Vec::new(),
            fault_events: Vec::new(),
        }
    }

    /// Cycles per aggregation window.
    pub fn window_cycles(&self) -> u64 {
        self.window
    }

    /// The recorded windows, ordered by start cycle (sparse — idle
    /// windows are skipped).
    pub fn windows(&self) -> &[SloWindow] {
        &self.windows
    }

    /// Every `(cycle, failed)` churn event observed, in commit order.
    pub fn fault_events(&self) -> &[(u64, bool)] {
        &self.fault_events
    }

    /// Time-to-recover per observed churn event: the first window at or
    /// after the event with traffic whose delivered fraction meets
    /// [`SLO_DELIVERED_TARGET`] closes the recovery, and
    /// `time_to_recover` is measured from the event to that window's
    /// end.
    pub fn recoveries(&self) -> Vec<SloRecovery> {
        self.fault_events
            .iter()
            .map(|&(cycle, failed)| {
                let time_to_recover = self
                    .windows
                    .iter()
                    .filter(|w| w.end > cycle && w.injected > 0)
                    .find(|w| {
                        w.delivered_fraction()
                            .is_some_and(|f| f >= SLO_DELIVERED_TARGET)
                    })
                    .map(|w| w.end - cycle);
                SloRecovery {
                    cycle,
                    failed,
                    time_to_recover,
                }
            })
            .collect()
    }

    fn window_mut(&mut self, cycle: u64) -> &mut SloWindow {
        let start = cycle - cycle % self.window;
        // Events arrive in non-decreasing cycle order, so the right
        // window is almost always the last one.
        let pos = match self.windows.iter().rposition(|w| w.start == start) {
            Some(pos) => pos,
            None => {
                let pos = self.windows.partition_point(|w| w.start < start);
                self.windows.insert(
                    pos,
                    SloWindow {
                        start,
                        end: start + self.window,
                        injected: 0,
                        delivered: 0,
                        dropped: 0,
                        hist: Vec::new(),
                    },
                );
                pos
            }
        };
        &mut self.windows[pos]
    }
}

impl SimObserver for SloTracker {
    fn fork(&self) -> Option<Self> {
        Some(SloTracker::new(self.window))
    }

    /// Packet events (window counters) partition across lanes and sum
    /// window-by-window; fault events are global — every fork records
    /// the identical sequence, so the first non-empty one stands.
    fn merge(&mut self, fork: Self) {
        for w in fork.windows {
            let mine = self.window_mut(w.start);
            mine.injected += w.injected;
            mine.delivered += w.delivered;
            mine.dropped += w.dropped;
            if mine.hist.len() < w.hist.len() {
                mine.hist.resize(w.hist.len(), 0);
            }
            for (lat, c) in w.hist.into_iter().enumerate() {
                mine.hist[lat] += c;
            }
        }
        if self.fault_events.is_empty() {
            self.fault_events = fork.fault_events;
        } else {
            debug_assert_eq!(
                self.fault_events, fork.fault_events,
                "fault events are global: every fork must see the same sequence"
            );
        }
    }

    #[inline]
    fn on_inject(&mut self, cycle: u64, _src: u32, _dst: u32) {
        self.window_mut(cycle).injected += 1;
    }

    #[inline]
    fn on_deliver(&mut self, cycle: u64, _dst: u32, latency: u64) {
        let w = self.window_mut(cycle);
        w.delivered += 1;
        bump(&mut w.hist, latency);
    }

    #[inline]
    fn on_drop(&mut self, cycle: u64, _src: u32, _dst: u32, _reason: DropReason) {
        self.window_mut(cycle).dropped += 1;
    }

    #[inline]
    fn on_fault_event(&mut self, cycle: u64, failed: bool) {
        self.fault_events.push((cycle, failed));
    }

    fn sections(&self) -> Vec<(String, JsonValue)> {
        let windows = self
            .windows
            .iter()
            .map(|w| {
                JsonValue::obj([
                    ("start", JsonValue::Int(w.start)),
                    ("end", JsonValue::Int(w.end)),
                    ("injected", JsonValue::Int(w.injected)),
                    ("delivered", JsonValue::Int(w.delivered)),
                    ("dropped", JsonValue::Int(w.dropped)),
                    ("delivered_fraction", fraction_json(w.delivered_fraction())),
                    ("p99_latency", JsonValue::Int(w.p99())),
                    ("p999_latency", JsonValue::Int(w.p999())),
                ])
            })
            .collect();
        let events = self
            .recoveries()
            .into_iter()
            .map(|r| {
                JsonValue::obj([
                    ("cycle", JsonValue::Int(r.cycle)),
                    ("failed", JsonValue::Bool(r.failed)),
                    (
                        "time_to_recover",
                        match r.time_to_recover {
                            Some(t) => JsonValue::Int(t),
                            None => JsonValue::Null,
                        },
                    ),
                ])
            })
            .collect();
        vec![(
            "slo".to_string(),
            JsonValue::obj([
                ("window_cycles", JsonValue::Int(self.window)),
                ("windows", JsonValue::Arr(windows)),
                ("fault_events", JsonValue::Arr(events)),
            ]),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_tracker_types_every_fate() {
        let mut t = DeliveryTracker::new();
        assert_eq!(t.delivered_fraction(), None, "no injections yet");
        for _ in 0..10 {
            t.on_inject(0, 1, 2);
        }
        for _ in 0..6 {
            t.on_deliver(3, 2, 3);
        }
        t.on_drop(0, 1, 2, DropReason::DeadEndpoint);
        t.on_drop(0, 1, 2, DropReason::Unreachable);
        t.on_drop(0, 1, 2, DropReason::Unreachable);
        assert_eq!(t.injected(), 10);
        assert_eq!(t.delivered(), 6);
        assert_eq!(t.dropped_dead_endpoint(), 1);
        assert_eq!(t.dropped_unreachable(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.in_flight(), 1);
        assert_eq!(t.delivered_fraction(), Some(0.6));
        assert_eq!(t.dropped_fraction(), Some(0.3));
        assert_eq!(t.undeliverable_fraction(), Some(0.2));
        let sections = t.sections();
        assert_eq!(sections[0].0, "delivery");
        let json = sections[0].1.to_string();
        assert!(json.contains("\"delivered_fraction\": 0.6"), "{json}");
        assert!(json.contains("\"in_flight\": 1"), "{json}");
    }

    #[test]
    fn slo_tracker_windows_and_recoveries() {
        let mut t = SloTracker::new(10);
        assert_eq!(t.window_cycles(), 10);
        // Window [0, 10): healthy traffic, all delivered.
        for c in 0..4 {
            t.on_inject(c, 0, 1);
            t.on_deliver(c, 1, 2);
        }
        // Fault at cycle 12; window [10, 20) degrades to 50%.
        t.on_fault_event(12, true);
        for c in [12, 14] {
            t.on_inject(c, 0, 1);
        }
        t.on_deliver(14, 1, 2);
        t.on_drop(12, 0, 1, DropReason::LinkDied);
        // Recovery at 20; window [30, 40) is healthy again (windows are
        // sparse: [20, 30) saw no events and is absent).
        t.on_fault_event(20, false);
        t.on_inject(33, 0, 1);
        t.on_deliver(33, 1, 7);
        let w = t.windows();
        assert_eq!(w.len(), 3, "sparse windows: {w:?}");
        assert_eq!((w[0].start(), w[0].end()), (0, 10));
        assert_eq!(w[0].delivered_fraction(), Some(1.0));
        assert_eq!(w[1].delivered_fraction(), Some(0.5));
        assert_eq!(w[1].dropped(), 1);
        assert_eq!(w[2].p999(), 7);
        let rec = t.recoveries();
        assert_eq!(rec.len(), 2);
        // First healthy window at/after cycle 12 is [30, 40).
        assert_eq!(rec[0].time_to_recover, Some(40 - 12));
        assert_eq!(rec[1].time_to_recover, Some(40 - 20));
        let sections = t.sections();
        assert_eq!(sections[0].0, "slo");
        let json = sections[0].1.to_string();
        assert!(json.contains("\"window_cycles\": 10"), "{json}");
        assert!(json.contains("\"p999_latency\""), "{json}");
        assert!(json.contains("\"time_to_recover\": 28"), "{json}");
    }

    #[test]
    fn latency_histogram_accumulates() {
        let mut h = LatencyHistogram::new();
        for (lat, times) in [(2u64, 3u64), (5, 1)] {
            for _ in 0..times {
                h.on_deliver(10, 0, lat);
            }
        }
        assert_eq!(h.histogram(), &[0, 0, 3, 0, 0, 1]);
        assert_eq!(h.delivered(), 4);
        assert_eq!(h.mean(), 11.0 / 4.0);
        assert_eq!(h.p99(), 5);
        let sections = h.sections();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].0, "latency_histogram");
    }

    #[test]
    fn link_heatmap_counts_and_ranks() {
        let mut m = LinkHeatmap::new();
        m.on_hop(0, 1, 2, 7);
        m.on_hop(1, 1, 2, 7);
        m.on_hop(1, 2, 3, 3);
        assert_eq!(m.total_hops(), 3);
        assert_eq!(m.links_used(), 2);
        assert_eq!(m.load(7), 2);
        assert_eq!(m.load(99), 0);
        assert_eq!(m.hottest(8), vec![(1, 2, 2), (2, 3, 1)]);
    }

    #[test]
    fn pair_observer_fans_out_and_concatenates_sections() {
        let mut pair = (LatencyHistogram::new(), LinkHeatmap::new());
        pair.on_hop(0, 0, 1, 0);
        pair.on_deliver(1, 1, 1);
        assert_eq!(pair.0.delivered(), 1);
        assert_eq!(pair.1.total_hops(), 1);
        let names: Vec<String> = pair.sections().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["latency_histogram", "link_heatmap"]);
    }

    #[test]
    fn mut_ref_observer_delegates() {
        let mut h = LatencyHistogram::new();
        {
            let mut r = &mut h;
            SimObserver::on_deliver(&mut r, 0, 0, 3);
            assert_eq!(SimObserver::sections(&r).len(), 1);
        }
        assert_eq!(h.delivered(), 1);
    }
}
