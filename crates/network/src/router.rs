//! Routing algorithms, split out of [`Topology`].
//!
//! The seed fused "what the network looks like" and "how packets pick
//! their next hop" into one trait, which made it impossible to compare
//! routing *policies* on a fixed topology or to give the simulation engine
//! a load-aware router. This module separates the two:
//!
//! * [`EcubeRouter`] — dimension-ordered routing on the hypercube, pure
//!   bit arithmetic, `O(1)` per hop;
//! * [`CanonicalRouter`] — the Proposition 3.1 canonical-path rule on
//!   `Q_d(1^k)`, with the per-hop label binary search of the seed replaced
//!   by rank arithmetic (`cur ∓ W(j)`) and a popcount output slot, `O(1)`
//!   per hop over the cube labels or over node ranks alone;
//! * [`AdaptiveMinimal`] — a minimal *adaptive* router for
//!   Hamming-addressed topologies (hypercube and the isometric `Q_d(1^k)`):
//!   among all neighbors strictly closer to the destination it forwards to
//!   the least-loaded output link, using the live queue occupancies the
//!   engine exposes through [`LinkLoad`];
//! * [`NextHopRouter`] — adapter running any topology's built-in
//!   distributed rule, so ring/mesh (and external `Topology` impls) plug
//!   into the same engine;
//! * [`FaultMaskingRouter`] — adapter wrapping any of the above so it
//!   routes around a [`FaultSet`]: surviving inner hops pass through,
//!   dead ones detour (misroute) on the healthy adjacency.
//!
//! Every router here is *progressive* — each hop strictly decreases the
//! distance to the destination — which the property tests in
//! `tests/proptest_network.rs` verify against BFS ground truth.
//!
//! For declarative configuration (CLI flags, experiment builders),
//! [`RouterSpec`] names a policy and [`RouterSpec::resolve`] builds it
//! for a concrete topology with a typed capability check.

use core::fmt;
use core::str::FromStr;
use std::sync::Arc;

use fibcube_graph::bfs::INFINITY;
use fibcube_graph::csr::{CsrGraph, SlotTable};
use fibcube_words::zeckendorf::RankTable;

use crate::dist::{DistanceTable, ExceptionRow, ExceptionRows};
use crate::engine::DropReason;
use crate::experiment::ExperimentError;
use crate::fault::{ChurnEvent, ChurnTarget, FaultMasks, FaultSet};
use crate::topology::{FibonacciNet, Hypercube, Topology};

/// A declarative routing-policy choice, the router half of an
/// [`Experiment`](crate::experiment::Experiment). A spec is resolved
/// against a concrete topology by [`RouterSpec::resolve`]; policies a
/// topology cannot run (e-cube off the hypercube, canonical-path off
/// `Q_d(1^k)`, adaptive without Hamming addressing) yield a typed
/// [`ExperimentError::UnsupportedRouter`] instead of a panic.
///
/// `Display`/`FromStr` round-trip (`"preferred"`, `"builtin"`,
/// `"e-cube"`, `"canonical"`, `"adaptive"`; parsing also accepts
/// `"ecube"` and `"auto"`), so the choice is CLI/JSON-friendly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouterSpec {
    /// The topology's preferred policy ([`Topology::router`]) — e-cube on
    /// hypercubes, canonical-path on Fibonacci networks, the built-in
    /// rule elsewhere. The default of an `Experiment`.
    Preferred,
    /// The topology's built-in distributed rule via [`NextHopRouter`] —
    /// available everywhere.
    Builtin,
    /// Dimension-ordered [`EcubeRouter`] — hypercubes only.
    Ecube,
    /// Canonical-path [`CanonicalRouter`] — Fibonacci networks only.
    Canonical,
    /// Load-aware [`AdaptiveMinimal`] — Hamming-addressed topologies
    /// (hypercube and `Q_d(1^k)`).
    Adaptive,
}

impl RouterSpec {
    /// Resolves the spec against `topo`, building the concrete router or
    /// reporting that the topology cannot run this policy.
    pub fn resolve<T: Topology + ?Sized>(
        self,
        topo: &T,
    ) -> Result<Box<dyn Router + Send + Sync + '_>, ExperimentError> {
        topo.resolve_router(self)
            .ok_or_else(|| ExperimentError::UnsupportedRouter {
                router: self,
                topology: topo.name(),
            })
    }
}

impl fmt::Display for RouterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RouterSpec::Preferred => "preferred",
            RouterSpec::Builtin => "builtin",
            RouterSpec::Ecube => "e-cube",
            RouterSpec::Canonical => "canonical",
            RouterSpec::Adaptive => "adaptive",
        })
    }
}

impl FromStr for RouterSpec {
    type Err = ExperimentError;

    fn from_str(s: &str) -> Result<RouterSpec, ExperimentError> {
        match s.trim() {
            "preferred" | "auto" => Ok(RouterSpec::Preferred),
            "builtin" => Ok(RouterSpec::Builtin),
            "e-cube" | "ecube" => Ok(RouterSpec::Ecube),
            "canonical" => Ok(RouterSpec::Canonical),
            "adaptive" => Ok(RouterSpec::Adaptive),
            other => Err(ExperimentError::ParseSpec {
                what: "router",
                input: other.to_string(),
                reason: "expected preferred, builtin, e-cube, canonical, or adaptive".to_string(),
            }),
        }
    }
}

/// Live occupancy of the deciding node's output links, as exposed by the
/// simulation engine. `load(slot)` is the number of packets currently
/// queued on the output link at `slot` (an index into the node's sorted
/// neighbor list). Deterministic routers ignore it.
pub trait LinkLoad {
    /// Queued packets on output slot `slot` of the current node.
    fn load(&self, slot: usize) -> usize;
}

/// The all-idle view, for route computation outside a simulation.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoLoad;

impl LinkLoad for NoLoad {
    fn load(&self, _slot: usize) -> usize {
        0
    }
}

/// A distributed routing policy: given the current node, the destination,
/// and (optionally) the local link loads, pick the output neighbor.
///
/// The engine asks for the hop as an output *slot* of the current node
/// ([`next_slot`](Router::next_slot)). Its default maps
/// [`next_hop`](Router::next_hop) through the node's sorted neighbor
/// list; a policy that knows the slot in closed form
/// ([`CanonicalRouter`]) overrides it, with the same answer on every
/// graph.
pub trait Router {
    /// Short policy name (`"e-cube"`, `"canonical"`, `"adaptive"`, …).
    fn name(&self) -> String;

    /// The neighbor to forward to on the way from `cur` to `dst`, or
    /// `None` when `cur == dst`. Must be progressive: the hop strictly
    /// decreases the distance to `dst`.
    fn next_hop(&self, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<u32>;

    /// The slot of [`next_hop`](Router::next_hop) in `cur`'s neighbor
    /// list of `g`, or `None` when `cur == dst`. An override must return
    /// exactly this value on every graph and load view.
    ///
    /// # Panics
    ///
    /// Panics when the hop is not a neighbor of `cur` in `g`.
    #[inline]
    fn next_slot(&self, g: &CsrGraph, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<usize> {
        let hop = self.next_hop(cur, dst, load)?;
        Some(
            g.slot_of(cur, hop)
                .expect("next_hop must return a neighbor"),
        )
    }

    /// [`next_slot`](Router::next_slot) without its panic, for the
    /// fault-masking router, which detours when the policy's hop is not a
    /// neighbor of `cur` in `g`: `None` then, and when `cur == dst`.
    /// Crate-private: no caller outside the crate can name the token, and
    /// a policy that knows its slot in closed form overrides this with
    /// `next_slot`.
    #[doc(hidden)]
    #[inline]
    fn try_next_slot(
        &self,
        g: &CsrGraph,
        cur: u32,
        dst: u32,
        load: &dyn LinkLoad,
        _: sealed::Token,
    ) -> Option<usize> {
        g.slot_of(cur, self.next_hop(cur, dst, load)?)
    }

    /// The policy's routes as a dense [`NextHopTable`], or `None` (the
    /// default) when the policy cannot be tabulated — because it is
    /// load-dependent ([`AdaptiveMinimal`], [`FaultMaskingRouter`]), has
    /// no per-entry-cheap closed form, or the `4n²`-byte table would
    /// exceed [`TABLE_BYTE_BUDGET`] (the engine then routes per hop). A
    /// returned table must agree with [`next_hop`](Router::next_hop) under
    /// [`NoLoad`] on every `(cur, dst)` pair.
    ///
    /// The simulation engine calls this once per run *when the workload
    /// amortises the `O(n²)` build* (see [`NextHopTable`] for the
    /// trade-off) and then routes each hop with one table load instead of
    /// a (possibly virtual) policy call.
    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        let _ = graph;
        None
    }
}

impl<R: Router + ?Sized> Router for &R {
    fn name(&self) -> String {
        (**self).name()
    }

    fn next_hop(&self, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<u32> {
        (**self).next_hop(cur, dst, load)
    }

    fn next_slot(&self, g: &CsrGraph, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<usize> {
        (**self).next_slot(g, cur, dst, load)
    }

    fn try_next_slot(
        &self,
        g: &CsrGraph,
        cur: u32,
        dst: u32,
        load: &dyn LinkLoad,
        token: sealed::Token,
    ) -> Option<usize> {
        (**self).try_next_slot(g, cur, dst, load, token)
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        (**self).precompute(graph)
    }
}

/// The token that keeps [`Router::try_next_slot`] crate-private: it is
/// public, so the trait may name it, but unreachable from outside.
mod sealed {
    pub struct Token;
}

/// A dense precomputed routing table: `[node × destination] → output
/// directed edge`, built once per `(graph, policy)` and indexed per hop
/// with a single load — no virtual dispatch, no per-hop arithmetic, no
/// neighbor-list search.
///
/// # When precomputation pays off
///
/// Building the table costs `O(n²)` policy evaluations and `4n²` bytes;
/// each per-hop route lookup it replaces costs one (often virtual) call.
/// A run performs roughly `packets × average distance` lookups, so the
/// table wins once `packets × d̄ ≳ n²` — all-to-all workloads (`n²`
/// packets) and long saturation sweeps qualify; a few thousand packets on
/// a 2 500-node network do not, which is why the engine's
/// [`precompute`](Router::precompute) heuristic skips the build for
/// light fixed-load runs. Past 2 MiB (724 nodes) the engine routes per
/// hop whatever the load: a table that outgrows the cache was measured
/// slower than closed-form per-hop routing from Γ_15 up. Load-aware
/// policies can never be tabulated: their choices depend on live queue
/// state.
#[derive(Clone, Debug)]
pub struct NextHopTable {
    n: usize,
    /// `edges[cur * n + dst]` — CSR directed-edge index of the link to
    /// take, or [`INVALID`] (`cur == dst`, or no route).
    edges: Vec<u32>,
}

/// Ceiling on any dense `O(n²)` table allocation ([`NextHopTable`],
/// [`DistanceTable`]): 1 GiB, enough for every shipped small topology
/// while refusing the terabyte tables a Γ_30-scale network would imply.
/// A table is charged by its entry width: the `4n²` bytes of a
/// [`NextHopTable`] cross the budget at n = 16 385, the `2n²` bytes of a
/// [`DistanceTable`] at n = 23 171 (Γ_20's 17 711 nodes fit, Γ_21's
/// 28 657 do not). Builders return [`ExperimentError::TableTooLarge`]
/// instead of attempting the allocation; `Router::precompute` degrades
/// to per-hop routing.
pub const TABLE_BYTE_BUDGET: usize = 1 << 30;

/// The largest `n` whose `n × n` table of `width`-byte entries fits
/// [`TABLE_BYTE_BUDGET`].
pub(crate) const fn max_table_nodes(width: usize) -> usize {
    (TABLE_BYTE_BUDGET / width).isqrt()
}

/// Checks an `n × n` dense table of `width`-byte entries against
/// [`TABLE_BYTE_BUDGET`].
pub(crate) fn check_table_budget(n: usize, width: usize) -> Result<(), ExperimentError> {
    let bytes = (n as u128) * (n as u128) * width as u128;
    if bytes > TABLE_BYTE_BUDGET as u128 {
        Err(ExperimentError::TableTooLarge { nodes: n, bytes })
    } else {
        Ok(())
    }
}

impl NextHopTable {
    /// Tabulates `next` (a `(cur, dst) → neighbor` rule, `None` meaning
    /// "arrived") over all ordered pairs of `g`'s nodes.
    ///
    /// Refuses with [`ExperimentError::TableTooLarge`] when the table,
    /// four bytes per entry (`4n²` bytes), would exceed
    /// [`TABLE_BYTE_BUDGET`], that is above 16 384 nodes — callers fall
    /// back to per-hop (implicit) routing rather than allocating multiple
    /// GiB.
    pub fn build(
        g: &CsrGraph,
        mut next: impl FnMut(u32, u32) -> Option<u32>,
    ) -> Result<NextHopTable, ExperimentError> {
        let n = g.num_vertices();
        check_table_budget(n, std::mem::size_of::<u32>())?;
        let slots = SlotTable::new(g);
        let mut edges = vec![INVALID; n * n];
        for cur in 0..n as u32 {
            let base = g.edge_range(cur).start;
            let row = &mut edges[cur as usize * n..][..n];
            for dst in 0..n as u32 {
                if let Some(hop) = next(cur, dst) {
                    let slot = slots.slot(cur, hop).expect("next hop must be a neighbor");
                    row[dst as usize] = (base + slot as usize) as u32;
                }
            }
        }
        Ok(NextHopTable { n, edges })
    }

    /// Number of nodes the table covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// The directed-edge index of the output link from `cur` toward
    /// `dst`, or `None` when `cur == dst` (or the pair is unroutable).
    #[inline]
    pub fn next_edge(&self, cur: u32, dst: u32) -> Option<usize> {
        let e = self.edges[cur as usize * self.n + dst as usize];
        (e != INVALID).then_some(e as usize)
    }

    /// The next-hop *node* from `cur` toward `dst` on `g` (which must be
    /// the graph the table was built for).
    #[inline]
    pub fn next_hop(&self, g: &CsrGraph, cur: u32, dst: u32) -> Option<u32> {
        self.next_edge(cur, dst).map(|e| g.target(e))
    }
}

const INVALID: u32 = u32::MAX;

/// E-cube (dimension-ordered) routing on the binary hypercube: correct the
/// lowest differing dimension first. Node ids are the addresses, so the
/// policy needs no state at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct EcubeRouter;

impl EcubeRouter {
    /// The e-cube hop, usable without constructing a router value.
    #[inline]
    pub fn hop(cur: u32, dst: u32) -> Option<u32> {
        let diff = cur ^ dst;
        if diff == 0 {
            return None;
        }
        Some(cur ^ (diff & diff.wrapping_neg()))
    }
}

impl Router for EcubeRouter {
    fn name(&self) -> String {
        "e-cube".into()
    }

    fn next_hop(&self, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<u32> {
        EcubeRouter::hop(cur, dst)
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        NextHopTable::build(graph, EcubeRouter::hop).ok()
    }
}

/// Canonical-path routing on `Q_d(1^k)` (Proposition 3.1): flip the
/// leftmost `1 → 0` correction first, else the leftmost `0 → 1`.
///
/// Node ids are the lexicographic ranks of the addresses, so flipping
/// bit `j` (u64 position, = suffix length) moves the id by exactly
/// `±W(j)`, the weights of the network's shared [`RankTable`] (see the
/// [`implicit`](crate::implicit) module docs). A hop is two bit
/// operations and one add. The hop's output slot is closed-form too: a node's neighbor list holds
/// the `1 → 0` flips from the highest position down, then the valid
/// `0 → 1` flips from the lowest up, so bit `j`'s slot is a popcount
/// ([`Router::next_slot`]).
///
/// The addresses come from one of two sources: the cube labels, when
/// the topology keeps them ([`for_net`](CanonicalRouter::for_net), `8n`
/// bytes), or else the rank table itself, which unranks each address in
/// constant time ([`on_ranks`](CanonicalRouter::on_ranks), no per-node
/// state). Both give the same hops and slots.
#[derive(Clone, Debug)]
pub struct CanonicalRouter {
    table: Arc<RankTable>,
    /// Node addresses (`b₁` at bit `d−1`), or `None` to unrank them from
    /// `table`.
    labels: Option<Vec<u64>>,
}

impl CanonicalRouter {
    /// Routes on the stored labels of a Fibonacci-cube network.
    pub fn for_net(net: &FibonacciNet) -> CanonicalRouter {
        CanonicalRouter {
            table: net.table().clone(),
            labels: net.cube_labels(),
        }
    }

    /// Routes on node ranks alone, unranking addresses from `table`.
    pub fn on_ranks(table: Arc<RankTable>) -> CanonicalRouter {
        CanonicalRouter {
            table,
            labels: None,
        }
    }

    /// The rank table supplying the weights.
    pub(crate) fn table(&self) -> &Arc<RankTable> {
        &self.table
    }

    #[inline]
    fn address(&self, v: u32) -> u64 {
        match &self.labels {
            Some(labels) => labels[v as usize],
            None => self
                .table
                .encode(v as u64)
                .expect("node id within the network"),
        }
    }

    /// The canonical-path flip from `cur` toward `dst`, or `None` when
    /// `cur == dst`: the hop, `cur`'s address, the flipped position `j`,
    /// and whether the flip is a `1 → 0` correction.
    #[inline]
    fn flip(&self, cur: u32, dst: u32) -> Option<(u32, u64, u32, bool)> {
        if cur == dst {
            return None;
        }
        let (c, t) = (self.address(cur), self.address(dst));
        let weight = |j: u32| self.table.codec().weight(j as usize) as u32;
        // Leftmost position = highest u64 bit (b₁ lives at bit d−1). The
        // flip stays 1^k-free (Prop 3.1), so the rank moves by ±W(j).
        let down = c & !t;
        Some(if down != 0 {
            let j = 63 - down.leading_zeros();
            (cur - weight(j), c, j, true)
        } else {
            let j = 63 - (t & !c).leading_zeros();
            (cur + weight(j), c, j, false)
        })
    }

    /// The output slot of a flip at position `j` of address `c`, in the
    /// order the network lists neighbors: `popcount(c >> (j + 1))` for a
    /// `1 → 0` flip (the set bits above `j` come first); for a `0 → 1`
    /// flip, `popcount(c)` plus the valid `0 → 1` positions below `j`.
    #[inline]
    fn slot(&self, c: u64, j: u32, down: bool) -> u32 {
        if down {
            (c >> j >> 1).count_ones()
        } else {
            c.count_ones() + (self.table.free_flips(c) & ((1 << j) - 1)).count_ones()
        }
    }
}

/// `slot` when `g` lists `hop` there among `cur`'s neighbors, else the
/// slot a search of the list finds, `None` when `hop` is no neighbor: on
/// the graph the router was built for the closed form always holds, and
/// on any other graph the answer is still the default
/// [`Router::next_slot`]'s.
#[inline]
fn checked_slot(g: &CsrGraph, cur: u32, hop: u32, slot: u32) -> Option<usize> {
    let edges = g.edge_range(cur);
    let slot = slot as usize;
    if slot < edges.len() && g.target(edges.start + slot) == hop {
        Some(slot)
    } else {
        g.slot_of(cur, hop)
    }
}

impl Router for CanonicalRouter {
    fn name(&self) -> String {
        "canonical".into()
    }

    #[inline]
    fn next_hop(&self, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<u32> {
        self.flip(cur, dst).map(|(hop, ..)| hop)
    }

    #[inline]
    fn next_slot(&self, g: &CsrGraph, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<usize> {
        let (hop, c, j, down) = self.flip(cur, dst)?;
        Some(
            checked_slot(g, cur, hop, self.slot(c, j, down))
                .expect("next_hop must return a neighbor"),
        )
    }

    #[inline]
    fn try_next_slot(
        &self,
        g: &CsrGraph,
        cur: u32,
        dst: u32,
        _load: &dyn LinkLoad,
        _: sealed::Token,
    ) -> Option<usize> {
        let (hop, c, j, down) = self.flip(cur, dst)?;
        checked_slot(g, cur, hop, self.slot(c, j, down))
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        // Over the byte budget the build refuses and the engine stays
        // on per-hop routing.
        NextHopTable::build(graph, |cur, dst| self.next_hop(cur, dst, &NoLoad)).ok()
    }
}

/// Topologies whose node addresses realise graph distance as Hamming
/// distance — true for the hypercube and for `Q_d(1^k)`, which is an
/// isometric subgraph of `Q_d` (the 1993 line's "good codes" property).
pub trait HammingAddressed: Topology {
    /// The binary address of node `v`.
    fn address(&self, v: u32) -> u64;
}

impl HammingAddressed for Hypercube {
    fn address(&self, v: u32) -> u64 {
        v as u64
    }
}

impl HammingAddressed for FibonacciNet {
    fn address(&self, v: u32) -> u64 {
        self.label(v).bits()
    }
}

/// Minimal adaptive routing: among the neighbors strictly closer to the
/// destination (by address Hamming distance = graph distance), forward on
/// the least-loaded output link; ties break toward the smallest slot, so
/// the router stays deterministic under equal load.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveMinimal<'a, T: HammingAddressed + ?Sized> {
    topo: &'a T,
}

impl<'a, T: HammingAddressed + ?Sized> AdaptiveMinimal<'a, T> {
    /// Wraps a Hamming-addressed topology.
    pub fn new(topo: &'a T) -> AdaptiveMinimal<'a, T> {
        AdaptiveMinimal { topo }
    }
}

impl<T: HammingAddressed + ?Sized> Router for AdaptiveMinimal<'_, T> {
    fn name(&self) -> String {
        "adaptive".into()
    }

    fn next_hop(&self, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<u32> {
        let target = self.topo.address(dst);
        let cur_dist = (self.topo.address(cur) ^ target).count_ones();
        if cur_dist == 0 {
            return None;
        }
        let mut best: Option<(usize, u32)> = None;
        for (slot, &v) in self.topo.graph().neighbors(cur).iter().enumerate() {
            if (self.topo.address(v) ^ target).count_ones() < cur_dist {
                let l = load.load(slot);
                if best.is_none_or(|(bl, _)| l < bl) {
                    best = Some((l, v));
                }
            }
        }
        let (_, hop) = best.expect("isometric addressing guarantees a closer neighbor");
        Some(hop)
    }
}

/// Adapter running a topology's built-in distributed rule
/// ([`Topology::next_hop`]) as a [`Router`], ignoring link load. This is
/// what [`Topology::router`] falls back to for topologies without a
/// dedicated split-out router (ring, mesh).
#[derive(Clone, Copy, Debug)]
pub struct NextHopRouter<'a, T: Topology + ?Sized> {
    topo: &'a T,
}

impl<'a, T: Topology + ?Sized> NextHopRouter<'a, T> {
    /// Wraps a topology's own routing rule.
    pub fn new(topo: &'a T) -> NextHopRouter<'a, T> {
        NextHopRouter { topo }
    }
}

impl<T: Topology + ?Sized> Router for NextHopRouter<'_, T> {
    fn name(&self) -> String {
        "builtin".into()
    }

    fn next_hop(&self, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<u32> {
        self.topo.next_hop(cur, dst)
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        // Built-in rules are deterministic and load-blind, so they
        // tabulate; `graph` must be the wrapped topology's own graph.
        debug_assert_eq!(graph.num_vertices(), self.topo.len());
        NextHopTable::build(graph, |cur, dst| self.topo.next_hop(cur, dst)).ok()
    }
}

/// Fault-masking adapter: wraps any [`Router`] and routes around a
/// [`FaultSet`] on the *healthy adjacency* — the degraded-network
/// rerouting the 1993 line's robustness claims are about.
///
/// Per hop the adapter first asks the wrapped policy; the inner hop is
/// taken verbatim whenever its link survives and it still makes progress
/// toward the destination *in the healthy subgraph*, so a zero-fault
/// masked router reproduces the wrapped router hop for hop. When the
/// inner hop is dead (or would walk into a region the faults cut off),
/// the adapter misroutes relative to the original network: among the
/// surviving neighbor links whose healthy-subgraph distance to the
/// destination strictly decreases it forwards on the least-loaded one
/// (ties toward the smallest slot).
///
/// # Exception rows and label certificate
///
/// Routing needs the healthy-subgraph distance toward the destination.
/// The router keeps it as **exception rows** over the intact network's
/// distance: per destination, the few live sources whose degraded
/// distance differs, built on first use by one batched Ramalingam–Reps
/// repair of the healthy row (see [`dist`](mod@crate::dist)) and emptied
/// when a churn event changes the faults. The per-hop path needs no
/// interior mutability beyond those write-once rows, and the router is
/// `Send + Sync`. Where the intact distance comes from depends on what
/// the router knows about the topology:
///
/// - [`new`](FaultMaskingRouter::new) knows only the graph. It reads the
///   intact distance from a dense [`DistanceTable`] (`2n²` bytes), built
///   with one BFS per node, and its byte budget refuses it above 23 170
///   nodes.
/// - [`for_topology`](FaultMaskingRouter::for_topology) also takes the
///   topology's [`cube_labels`](Topology::cube_labels), when it has
///   them, and then keeps no table: the intact distance is the Hamming
///   distance of the labels, and there is no budget. Each query is first
///   **certified** against the live faults: node `w` lies on a shortest
///   `cur → dst` path iff `((l[w] ^ l[cur]) & !(l[cur] ^ l[dst])) == 0`.
///   When no dead node and no independently failed link (both endpoints)
///   lies in that interval, every shortest path of the intact cube
///   survives, so the degraded distance *is* the Hamming distance
///   `popcount(l[cur] ^ l[dst])`: the pair is reachable, and a neighbor
///   makes progress iff its label is one bit closer to `dst`. The hop
///   rule above then runs on labels alone. An uncertified pair, and
///   every pair while more than a fixed number of faults are live, reads
///   the destination's exception row. A Γ_16 row holds a handful of
///   entries, where a dense table holds 2 584 distances per row.
///
/// Routing decisions are identical either way. A hop asks once: the
/// engine's per-hop query certifies the pair (one scan of the live-fault
/// list) or reads the destination's row (one row lookup per neighbor),
/// and from that one answer decides both whether the packet can still
/// arrive and which link it takes.
///
/// Every hop strictly decreases the healthy distance, so routes on the
/// degraded network remain livelock-free; packets whose destination is
/// unreachable must be dropped by the engine *before* routing
/// (an [`Admission::Static`](crate::engine::Admission::Static) run does), and
/// [`FaultMaskingRouter::reachable`] is the query it uses.
///
/// The adapter never tabulates ([`Router::precompute`] stays `None`):
/// both the inner-policy consult and the detour rule read live link
/// loads, which a static table cannot capture.
pub struct FaultMaskingRouter<'a, R: Router + ?Sized> {
    graph: &'a CsrGraph,
    inner: &'a R,
    /// Per-node / per-directed-edge liveness.
    masks: FaultMasks,
    /// Pure per-directed-edge link failure state, independent of
    /// endpoint deaths, so recovering a node under churn does not
    /// resurrect a link that failed on its own. The composite mask is
    /// `node_dead(u) || node_dead(v) || link_down[e]`.
    link_down: Vec<bool>,
    /// Every live fault: each dead node, and each independently failed
    /// link as `(min, max)`. The seeds of a row repair.
    faults: Vec<ChurnTarget>,
    /// The same faults as `(label, flip)` when the rows' base is cube
    /// labels, in the same order, else empty: `(l[x], 0)` for a dead
    /// node `x`, `(min(l[u], l[v]), l[u] ^ l[v])` for a failed link
    /// `u–v`. Either lies in the `cur → dst` interval iff
    /// `((label ^ l[cur]) | flip) & !(l[cur] ^ l[dst]) == 0` — for a
    /// link, iff both endpoints do.
    cert: Vec<(u64, u64)>,
    /// Healthy-subgraph distances toward every destination, boxed to
    /// keep the router (and the churn lane state that holds it) small.
    rows: Box<ExceptionRows>,
}

/// Live faults above which the label certificate is skipped and every
/// query reads its exception row. A certified query scans the whole
/// fault list, and with more faults fewer queries certify, so past some
/// count the scan costs more than the row reads it saves. Measured on
/// Γ_16 (2 584 nodes) with 512 request/reply clients for 10 000 cycles
/// under static faults (half dead nodes, half failed links), certifying
/// against reading rows only, median of 11 interleaved pairs on a 2-vCPU
/// x86-64 host: certifying is 1.03× faster at 4 faults and 1.02× at 6,
/// breaks even at 8–10, and is 0.98× at 12, 0.92–0.94× at 20–24 and
/// 0.88× at 48. (Against the dense four-byte table it replaced, the
/// crossover was near 20.) The bound sits at the break-even.
const MAX_CERTIFIED_FAULTS: usize = 8;

impl<'a, R: Router + ?Sized> FaultMaskingRouter<'a, R> {
    /// Wraps `inner` so it routes on `graph` degraded by `faults`, over
    /// the intact graph's distance table, built eagerly by BFS. Fault
    /// entries outside the graph are ignored.
    /// [`for_topology`](FaultMaskingRouter::for_topology) keeps no table
    /// on topologies with cube labels.
    pub fn new(graph: &'a CsrGraph, inner: &'a R, faults: &FaultSet) -> FaultMaskingRouter<'a, R> {
        FaultMaskingRouter::over(graph, inner, faults, ExceptionRows::over_table(graph))
    }

    /// [`new`](FaultMaskingRouter::new) on `topology`'s graph, or, when
    /// the topology has [`cube_labels`](Topology::cube_labels), a router
    /// that keeps no distance table: certified queries run on the labels,
    /// the rest on exception rows over the Hamming distance (see the
    /// [type docs](FaultMaskingRouter#exception-rows-and-label-certificate)).
    /// Routing decisions are identical either way.
    pub fn for_topology<T: Topology + ?Sized>(
        topology: &'a T,
        inner: &'a R,
        faults: &FaultSet,
    ) -> FaultMaskingRouter<'a, R> {
        let graph = topology.graph();
        let Some(labels) = topology.cube_labels() else {
            return FaultMaskingRouter::new(graph, inner, faults);
        };
        debug_assert_eq!(labels.len(), graph.num_vertices());
        FaultMaskingRouter::over(graph, inner, faults, ExceptionRows::over_labels(labels))
    }

    /// Refuses a masked router on `topology` whose dense
    /// [`DistanceTable`] would exceed the byte budget
    /// ([`ExperimentError::TableTooLarge`] above 23 170 nodes). Only
    /// topologies without cube labels build one, so a labelled topology
    /// of any size passes.
    pub(crate) fn check_budget<T: Topology + ?Sized>(topology: &T) -> Result<(), ExperimentError> {
        match DistanceTable::check_budget(topology.len()) {
            Err(_) if topology.cube_labels().is_some() => Ok(()),
            checked => checked,
        }
    }

    fn over(
        graph: &'a CsrGraph,
        inner: &'a R,
        faults: &FaultSet,
        rows: ExceptionRows,
    ) -> FaultMaskingRouter<'a, R> {
        let mut link_down = vec![false; graph.num_directed_edges()];
        for &(u, v) in faults.failed_links() {
            for (a, b) in [(u, v), (v, u)] {
                if let Some(slot) = graph.slot_of(a, b) {
                    link_down[graph.edge_range(a).start + slot] = true;
                }
            }
        }
        let mut router = FaultMaskingRouter {
            graph,
            inner,
            masks: faults.masks(graph),
            link_down,
            faults: Vec::new(),
            cert: Vec::new(),
            rows: Box::new(rows),
        };
        for v in 0..graph.num_vertices() as u32 {
            if !router.node_alive(v) {
                router.record(ChurnTarget::Node(v), true);
            }
        }
        for &(u, v) in faults.failed_links() {
            if graph.slot_of(u, v).is_some() {
                router.record(ChurnTarget::Link(u, v), true);
            }
        }
        router
    }

    /// Records one fault event in the live-fault lists. Failing an
    /// element already down, or recovering one already up, changes
    /// nothing.
    fn record(&mut self, target: ChurnTarget, failed: bool) {
        let target = match target {
            ChurnTarget::Link(u, v) => ChurnTarget::Link(u.min(v), u.max(v)),
            node => node,
        };
        match self.faults.iter().position(|&f| f == target) {
            Some(i) if !failed => {
                self.faults.remove(i);
                if self.rows.labels().is_some() {
                    self.cert.remove(i);
                }
            }
            None if failed => {
                self.faults.push(target);
                if let Some(labels) = self.rows.labels() {
                    self.cert.push(match target {
                        ChurnTarget::Node(x) => (labels[x as usize], 0),
                        ChurnTarget::Link(u, v) => {
                            let (a, b) = (labels[u as usize], labels[v as usize]);
                            (a.min(b), a ^ b)
                        }
                    });
                }
            }
            _ => {}
        }
    }

    /// The degraded distance `cur → dst` on `labels`, the rows' base,
    /// when no live fault lies on any shortest path between them — it is
    /// then their Hamming distance — or `None` when the exception row
    /// must decide.
    #[inline]
    fn certify(&self, labels: &[u64], cur: u32, dst: u32) -> Option<u32> {
        if self.cert.len() > MAX_CERTIFIED_FAULTS {
            return None;
        }
        let lc = labels[cur as usize];
        let diff = lc ^ labels[dst as usize];
        let blocked = self
            .cert
            .iter()
            .any(|&(label, flip)| ((label ^ lc) | flip) & !diff == 0);
        (!blocked).then_some(diff.count_ones())
    }

    /// `true` when node `v` survived the faults.
    pub fn node_alive(&self, v: u32) -> bool {
        self.masks.node_alive(v)
    }

    /// `true` when `src` can still reach `dst` through surviving nodes
    /// and links (both endpoints must be alive).
    pub fn reachable(&self, src: u32, dst: u32) -> bool {
        self.distance(src, dst) != INFINITY
    }

    /// The hop distance from `src` to `dst` through surviving nodes and
    /// links, [`INFINITY`] when the faults cut them apart or either is
    /// dead.
    pub fn distance(&self, src: u32, dst: u32) -> u32 {
        if !self.node_alive(src) || !self.node_alive(dst) {
            return INFINITY;
        }
        self.rows
            .labels()
            .and_then(|labels| self.certify(labels, src, dst))
            .unwrap_or_else(|| self.row(dst).distance(src))
    }

    /// The exception row toward live node `dst`.
    #[inline]
    fn row(&self, dst: u32) -> ExceptionRow<'_> {
        self.rows.row(self.graph, &self.masks, &self.faults, dst)
    }

    /// The current liveness masks (post any applied churn events).
    pub fn masks(&self) -> &FaultMasks {
        &self.masks
    }

    /// The wrapped routing policy.
    pub(crate) fn inner(&self) -> &'a R {
        self.inner
    }

    /// The healthy graph the masks and the distances were built on.
    pub(crate) fn graph(&self) -> &'a CsrGraph {
        self.graph
    }

    /// Applies one churn event: flips the liveness masks, records the
    /// fault in the live-fault list and empties the built exception
    /// rows, to be rebuilt on their next use. A recovery needs no repair.
    pub fn apply_event(&mut self, event: &ChurnEvent) {
        match event.target {
            ChurnTarget::Node(x) => self.set_node(x, event.failed),
            ChurnTarget::Link(u, v) => self.set_link(u, v, event.failed),
        }
        self.record(event.target, event.failed);
        self.rows.clear();
    }

    /// The output slot of the hop from `cur` toward `dst` (`cur ≠ dst`)
    /// in `cur`'s neighbor list, in the current fault state, or why there
    /// is none: [`DropReason::NodeDied`] when `dst` is dead, else
    /// [`DropReason::Unreachable`] when the faults cut `cur` off from it.
    /// The pair is certified once (one scan of the live-fault list) or,
    /// uncertified, its exception row is read; the same answer decides
    /// reachability and the hop.
    #[inline]
    pub(crate) fn hop_or_drop(
        &self,
        cur: u32,
        dst: u32,
        load: &dyn LinkLoad,
    ) -> Result<usize, DropReason> {
        debug_assert_ne!(cur, dst, "a packet at its destination has no hop");
        if let Some(labels) = self.rows.labels() {
            if let Some(h) = self.certify(labels, cur, dst) {
                // The interval is fault-free: a neighbor progresses iff
                // its label is one bit closer to dst, and its link is
                // then alive too.
                let ld = labels[dst as usize];
                let closer = |_, v: u32| (labels[v as usize] ^ ld).count_ones() < h;
                return Ok(self.progressive_slot(cur, dst, load, closer));
            }
        }
        if !self.node_alive(dst) {
            return Err(DropReason::NodeDied);
        }
        let row = self.row(dst);
        let dc = if self.node_alive(cur) {
            row.distance(cur)
        } else {
            INFINITY
        };
        if dc == INFINITY {
            return Err(DropReason::Unreachable);
        }
        // Honour the wrapped policy while its hop survives and still
        // approaches dst within the healthy subgraph; else detour.
        let edges = self.graph.edge_range(cur).start;
        let progress = |slot, v: u32| self.masks.edge_alive(edges + slot) && row.distance(v) < dc;
        Ok(self.progressive_slot(cur, dst, load, progress))
    }

    /// The hop rule over a progress test `progress(slot, v)`, as an
    /// output slot of `cur`: the inner policy's slot when its hop is a
    /// neighbor and progresses, else the least-loaded progressing link
    /// (ties toward the smallest slot).
    #[inline]
    fn progressive_slot(
        &self,
        cur: u32,
        dst: u32,
        load: &dyn LinkLoad,
        progress: impl Fn(usize, u32) -> bool,
    ) -> usize {
        let neighbors = self.graph.neighbors(cur);
        let inner = self
            .inner
            .try_next_slot(self.graph, cur, dst, load, sealed::Token);
        if let Some(slot) = inner.filter(|&slot| progress(slot, neighbors[slot])) {
            return slot;
        }
        let mut best: Option<(usize, usize)> = None;
        for (slot, &v) in neighbors.iter().enumerate() {
            if progress(slot, v) {
                let l = load.load(slot);
                if best.is_none_or(|(bl, _)| l < bl) {
                    best = Some((l, slot));
                }
            }
        }
        let (_, slot) = best.expect("reachable destinations always have a progressive hop");
        slot
    }

    /// Flips the pure link state of `u–v` (both directions) and
    /// refreshes the composite edge masks.
    fn set_link(&mut self, u: u32, v: u32, down: bool) {
        let g = self.graph;
        for (a, b) in [(u, v), (v, u)] {
            if let Some(slot) = g.slot_of(a, b) {
                let e = g.edge_range(a).start + slot;
                self.link_down[e] = down;
                self.refresh_edge(e, a, b);
            }
        }
    }

    /// Flips node `x`'s liveness and refreshes the composite masks of
    /// every incident directed edge, both directions.
    fn set_node(&mut self, x: u32, dead: bool) {
        let g = self.graph;
        self.masks.set_node(x, dead);
        let base = g.edge_range(x).start;
        for slot in 0..g.neighbors(x).len() {
            let y = g.neighbors(x)[slot];
            self.refresh_edge(base + slot, x, y);
            if let Some(back) = g.slot_of(y, x) {
                self.refresh_edge(g.edge_range(y).start + back, y, x);
            }
        }
    }

    fn refresh_edge(&mut self, e: usize, a: u32, b: u32) {
        let dead = self.link_down[e] || !self.masks.node_alive(a) || !self.masks.node_alive(b);
        self.masks.set_edge(e, dead);
    }
}

/// The display name of a [`FaultMaskingRouter`] wrapping a policy named
/// `inner` — shared with the experiment layer so a degraded run's
/// [`Report`](crate::report::Report) names the router that actually ran.
pub(crate) fn masked_router_name(inner: &str) -> String {
    format!("fault-masked({inner})")
}

impl<R: Router + ?Sized> Router for FaultMaskingRouter<'_, R> {
    fn name(&self) -> String {
        masked_router_name(&self.inner.name())
    }

    fn next_hop(&self, cur: u32, dst: u32, load: &dyn LinkLoad) -> Option<u32> {
        if cur == dst {
            return None;
        }
        let slot = self
            .hop_or_drop(cur, dst, load)
            .expect("engine must drop unreachable packets before routing");
        Some(self.graph.neighbors(cur)[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Ring;
    use fibcube_graph::bfs::bfs_distances;

    fn assert_progressive(topo: &dyn Topology, router: &dyn Router) {
        let g = topo.graph();
        for dst in 0..topo.len() as u32 {
            let dist = bfs_distances(g, dst);
            for src in 0..topo.len() as u32 {
                let mut cur = src;
                while let Some(hop) = router.next_hop(cur, dst, &NoLoad) {
                    assert!(
                        g.has_edge(cur, hop),
                        "{}: {cur}→{hop} not a link",
                        router.name()
                    );
                    assert_eq!(
                        dist[hop as usize] + 1,
                        dist[cur as usize],
                        "{}: hop {cur}→{hop} toward {dst} not progressive",
                        router.name()
                    );
                    cur = hop;
                }
                assert_eq!(cur, dst);
            }
        }
    }

    #[test]
    fn ecube_router_matches_hypercube_rule() {
        let q = Hypercube::new(5);
        assert_progressive(&q, &EcubeRouter);
        for cur in 0..32u32 {
            for dst in 0..32u32 {
                assert_eq!(
                    EcubeRouter.next_hop(cur, dst, &NoLoad),
                    q.next_hop(cur, dst)
                );
            }
        }
    }

    /// The one check of the canonical router against the seed rule
    /// `FibonacciNet::next_hop` (which `simulate_reference` routes by),
    /// on both address sources and every ordered pair of Γ_{d≤12},
    /// Q_{d≤10}(1^3) and Q_{d≤9}(1^4): the hops agree, the closed-form
    /// slot is the hop's slot in the network's own graph without the
    /// search, and `next_slot` is `slot_of(next_hop)` — there and, via
    /// the search, on Γ_8 with its ids reversed, whose neighbor lists
    /// are in another order.
    #[test]
    fn canonical_router_matches_the_seed_rule_on_labels_and_ranks() {
        let mut cubes: Vec<(usize, usize)> = (0..=12).map(|d| (d, 2)).collect();
        cubes.extend((0..=10).map(|d| (d, 3)));
        cubes.extend((0..=9).map(|d| (d, 4)));
        for (d, k) in cubes {
            let net = FibonacciNet::new(d, k);
            let g = net.graph();
            let n = net.len() as u32;
            let labels = CanonicalRouter::for_net(&net);
            let ranks = CanonicalRouter::on_ranks(net.table().clone());
            for (source, router) in [("labels", &labels), ("ranks", &ranks)] {
                let what = format!("{} on {source}", net.name());
                assert_progressive(&net, router);
                for cur in 0..n {
                    for dst in 0..n {
                        let hop = router.next_hop(cur, dst, &NoLoad);
                        assert_eq!(hop, net.next_hop(cur, dst), "{what}: {cur}→{dst}");
                        let searched = hop.map(|hop| g.slot_of(cur, hop).unwrap());
                        let closed = router
                            .flip(cur, dst)
                            .map(|(_, c, j, down)| router.slot(c, j, down) as usize);
                        assert_eq!(closed, searched, "{what}: {cur}→{dst}");
                        assert_eq!(
                            router.next_slot(g, cur, dst, &NoLoad),
                            searched,
                            "{what}: {cur}→{dst}"
                        );
                    }
                }
            }
        }

        let net = FibonacciNet::classical(8);
        let n = net.len() as u32;
        let flip = |v: u32| n - 1 - v;
        let edges: Vec<(u32, u32)> = net
            .graph()
            .edges()
            .map(|(u, v)| (flip(u), flip(v)))
            .collect();
        let reversed = CsrGraph::from_edges(n as usize, &edges);
        let labels = CanonicalRouter::for_net(&net);
        let ranks = CanonicalRouter::on_ranks(net.table().clone());
        for router in [&labels, &ranks] {
            let (mut checked, mut moved) = (0, 0);
            for cur in 0..n {
                for dst in 0..n {
                    let Some(hop) = router.next_hop(cur, dst, &NoLoad) else {
                        assert_eq!(router.next_slot(&reversed, cur, dst, &NoLoad), None);
                        continue;
                    };
                    let Some(slot) = reversed.slot_of(cur, hop) else {
                        continue;
                    };
                    assert_eq!(
                        router.next_slot(&reversed, cur, dst, &NoLoad),
                        Some(slot),
                        "{cur}→{dst}"
                    );
                    checked += 1;
                    moved += usize::from(net.graph().slot_of(cur, hop) != Some(slot));
                }
            }
            assert!(checked > 0 && moved > 0, "{checked} pairs, {moved} moved");
        }
    }

    #[test]
    fn adaptive_minimal_is_progressive() {
        let q = Hypercube::new(4);
        assert_progressive(&q, &AdaptiveMinimal::new(&q));
        let net = FibonacciNet::classical(8);
        assert_progressive(&net, &AdaptiveMinimal::new(&net));
    }

    #[test]
    fn adaptive_minimal_avoids_loaded_links() {
        // At node 0000 of Q_4 heading to 0011, slots for nodes 0001 and
        // 0010 are both minimal; loading one must steer to the other.
        let q = Hypercube::new(4);
        let router = AdaptiveMinimal::new(&q);
        struct OneBusy(usize);
        impl LinkLoad for OneBusy {
            fn load(&self, slot: usize) -> usize {
                usize::from(slot == self.0)
            }
        }
        let slot_of = |v: u32| q.graph().slot_of(0, v).unwrap();
        assert_eq!(
            router.next_hop(0, 0b0011, &OneBusy(slot_of(0b0001))),
            Some(0b0010)
        );
        assert_eq!(
            router.next_hop(0, 0b0011, &OneBusy(slot_of(0b0010))),
            Some(0b0001)
        );
    }

    #[test]
    fn next_hop_router_wraps_any_topology() {
        let ring = Ring::new(9);
        assert_progressive(&ring, &NextHopRouter::new(&ring));
    }

    #[test]
    fn router_spec_round_trips_and_resolves() {
        for spec in [
            RouterSpec::Preferred,
            RouterSpec::Builtin,
            RouterSpec::Ecube,
            RouterSpec::Canonical,
            RouterSpec::Adaptive,
        ] {
            assert_eq!(spec.to_string().parse::<RouterSpec>().unwrap(), spec);
        }
        assert_eq!("ecube".parse::<RouterSpec>().unwrap(), RouterSpec::Ecube);
        assert_eq!("auto".parse::<RouterSpec>().unwrap(), RouterSpec::Preferred);
        assert!("dijkstra".parse::<RouterSpec>().is_err());

        let q = Hypercube::new(3);
        assert_eq!(RouterSpec::Ecube.resolve(&q).unwrap().name(), "e-cube");
        assert_eq!(RouterSpec::Preferred.resolve(&q).unwrap().name(), "e-cube");
        assert_eq!(RouterSpec::Adaptive.resolve(&q).unwrap().name(), "adaptive");
        let err = RouterSpec::Canonical
            .resolve(&q)
            .map(|r| r.name())
            .unwrap_err();
        assert!(err.to_string().contains("canonical"), "{err}");
        assert!(err.to_string().contains("Q_3"), "{err}");

        let net = FibonacciNet::classical(5);
        assert_eq!(
            RouterSpec::Canonical.resolve(&net).unwrap().name(),
            "canonical"
        );
        assert!(RouterSpec::Ecube.resolve(&net).is_err());

        let ring = Ring::new(5);
        assert_eq!(
            RouterSpec::Builtin.resolve(&ring).unwrap().name(),
            "builtin"
        );
        assert!(RouterSpec::Adaptive.resolve(&ring).is_err());
    }

    #[test]
    fn fault_mask_with_no_faults_is_the_inner_router_verbatim() {
        let q = Hypercube::new(4);
        let masked = FaultMaskingRouter::new(q.graph(), &EcubeRouter, &FaultSet::empty());
        for cur in 0..16u32 {
            for dst in 0..16u32 {
                assert_eq!(
                    masked.next_hop(cur, dst, &NoLoad),
                    EcubeRouter.next_hop(cur, dst, &NoLoad),
                    "{cur}→{dst}"
                );
            }
        }
        assert_eq!(masked.name(), "fault-masked(e-cube)");
    }

    #[test]
    fn fault_mask_detours_around_a_dead_node() {
        // e-cube 0→3 on Q_3 goes via node 1; kill it and the mask must
        // take the surviving shortest path via node 2.
        let q = Hypercube::new(3);
        let faults = FaultSet::new([1u32], []);
        let masked = FaultMaskingRouter::new(q.graph(), &EcubeRouter, &faults);
        assert_eq!(masked.next_hop(0, 3, &NoLoad), Some(2));
        assert_eq!(masked.next_hop(2, 3, &NoLoad), Some(3));
        assert!(!masked.node_alive(1));
        assert!(masked.reachable(0, 3));
        assert!(!masked.reachable(0, 1), "dead destination is unreachable");
    }

    #[test]
    fn fault_mask_detours_around_a_dead_link() {
        // Cut 0–1 on a 4-ring: 0→1 must go the long way round.
        let ring = Ring::new(4);
        let inner = NextHopRouter::new(&ring);
        let faults = FaultSet::new([], [(0u32, 1u32)]);
        let masked = FaultMaskingRouter::new(ring.graph(), &inner, &faults);
        assert_eq!(masked.next_hop(0, 1, &NoLoad), Some(3));
        assert_eq!(masked.next_hop(3, 1, &NoLoad), Some(2));
        assert_eq!(masked.next_hop(2, 1, &NoLoad), Some(1));
    }

    #[test]
    fn an_inner_hop_off_the_neighbor_list_detours() {
        // An inner policy that jumps straight to the destination names
        // a node that is no neighbor of the current one; the mask must
        // detour along a progressing link, not panic.
        struct Teleport;
        impl Router for Teleport {
            fn name(&self) -> String {
                "teleport".into()
            }
            fn next_hop(&self, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<u32> {
                (cur != dst).then_some(dst)
            }
        }
        let ring = Ring::new(10);
        for faults in [FaultSet::empty(), FaultSet::new([], [(0u32, 1u32)])] {
            let masked = FaultMaskingRouter::new(ring.graph(), &Teleport, &faults);
            let route = |mut cur: u32, dst: u32| {
                let mut path = vec![cur];
                while let Some(hop) = masked.next_hop(cur, dst, &NoLoad) {
                    assert!(ring.graph().has_edge(cur, hop));
                    cur = hop;
                    path.push(cur);
                }
                path
            };
            // 5 → 8: the clockwise path survives either mask.
            assert_eq!(route(5, 8), [5, 6, 7, 8]);
            // 0 → 2 with 0–1 cut: the long way round.
            let expected: &[u32] = if faults.failed_links().is_empty() {
                &[0, 1, 2]
            } else {
                &[0, 9, 8, 7, 6, 5, 4, 3, 2]
            };
            assert_eq!(route(0, 2), expected);
            // A neighbor destination is the inner hop itself.
            assert_eq!(masked.next_hop(3, 4, &NoLoad), Some(4));
        }
    }

    #[test]
    fn fault_mask_routes_are_shortest_on_the_healthy_subgraph() {
        // Every masked walk terminates in exactly healthy-BFS distance
        // hops — the progressivity that keeps degraded runs livelock-free.
        let net = FibonacciNet::classical(7);
        let inner = CanonicalRouter::for_net(&net);
        let faults = FaultSet::new([2u32, 9, 17], [(0u32, 1u32)]);
        let masked = FaultMaskingRouter::new(net.graph(), &inner, &faults);
        let (healthy, survivors) = faults.healthy_subgraph(net.graph());
        let mut old_of = survivors.clone();
        old_of.sort_unstable();
        assert_eq!(old_of, survivors, "survivor map is sorted");
        for (hi, &dst) in survivors.iter().enumerate() {
            let dist = bfs_distances(&healthy, hi as u32);
            for (hj, &src) in survivors.iter().enumerate() {
                if dist[hj] == fibcube_graph::bfs::INFINITY {
                    assert!(!masked.reachable(src, dst));
                    continue;
                }
                let mut cur = src;
                let mut hops = 0u32;
                while let Some(hop) = masked.next_hop(cur, dst, &NoLoad) {
                    assert!(net.graph().has_edge(cur, hop));
                    cur = hop;
                    hops += 1;
                    assert!(hops as usize <= net.len(), "runaway masked route");
                }
                assert_eq!(cur, dst);
                assert_eq!(hops, dist[hj], "masked route {src}→{dst} not shortest");
            }
        }
    }

    #[test]
    fn precomputed_tables_match_per_hop_routing() {
        // Every tabulable policy must tabulate to exactly its per-hop
        // choices — the invariant that lets the engine switch paths
        // without changing the event stream.
        let net = FibonacciNet::classical(8);
        let canonical = CanonicalRouter::for_net(&net);
        let q = Hypercube::new(5);
        let ring = Ring::new(11);
        let ring_router = NextHopRouter::new(&ring);
        for (topo, router) in [
            (&net as &dyn Topology, &canonical as &dyn Router),
            (&q, &EcubeRouter),
            (&ring, &ring_router),
        ] {
            let g = topo.graph();
            let table = router
                .precompute(g)
                .expect("deterministic policies tabulate");
            assert_eq!(table.nodes(), topo.len());
            for cur in 0..topo.len() as u32 {
                for dst in 0..topo.len() as u32 {
                    assert_eq!(
                        table.next_hop(g, cur, dst),
                        router.next_hop(cur, dst, &NoLoad),
                        "{} {cur}→{dst}",
                        router.name()
                    );
                    if let Some(e) = table.next_edge(cur, dst) {
                        assert!(g.edge_range(cur).contains(&e), "edge leaves cur");
                    }
                }
            }
        }
    }

    #[test]
    fn load_dependent_policies_refuse_to_tabulate() {
        let q = Hypercube::new(4);
        assert!(AdaptiveMinimal::new(&q).precompute(q.graph()).is_none());
        let masked = FaultMaskingRouter::new(q.graph(), &EcubeRouter, &FaultSet::new([1u32], []));
        assert!(masked.precompute(q.graph()).is_none());
        // The &R blanket impl forwards precompute.
        assert!(<&EcubeRouter as Router>::precompute(&&EcubeRouter, q.graph()).is_some());
    }

    #[test]
    fn masked_router_is_send_and_sync_for_the_batch_runner() {
        // Regression guard: the RefCell distance cache made this router
        // !Sync; the eager healthy table and the write-once exception
        // rows keep it Send + Sync, which the parallel batch runner
        // (run_batch / sweep cells) relies on.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        let q = Hypercube::new(3);
        let faults = FaultSet::new([1u32], []);
        let masked = FaultMaskingRouter::new(q.graph(), &EcubeRouter, &faults);
        assert_send_sync(&masked);
        // And it still routes after the eager build.
        assert_eq!(masked.next_hop(0, 3, &NoLoad), Some(2));
        assert_eq!(masked.distance(0, 3), 2);
    }

    #[test]
    fn churn_events_keep_masked_router_consistent() {
        // After every applied event the live router must equal one
        // rebuilt from scratch for the same net fault state — masks,
        // liveness and distances alike. Covers the node-recovery case
        // where an independently failed link must stay down.
        let q = Hypercube::new(4);
        let g = q.graph();
        let mut live = FaultMaskingRouter::new(g, &EcubeRouter, &FaultSet::empty());
        let ev = |target, failed| ChurnEvent {
            cycle: 0,
            target,
            failed,
        };
        let seq = [
            (
                ev(ChurnTarget::Link(0, 1), true),
                FaultSet::new([], [(0u32, 1u32)]),
            ),
            (
                ev(ChurnTarget::Node(3), true),
                FaultSet::new([3u32], [(0u32, 1u32)]),
            ),
            (
                ev(ChurnTarget::Node(3), false),
                FaultSet::new([], [(0u32, 1u32)]),
            ),
            (ev(ChurnTarget::Link(0, 1), false), FaultSet::empty()),
        ];
        for (event, set) in seq {
            live.apply_event(&event);
            let fresh = FaultMaskingRouter::new(g, &EcubeRouter, &set);
            for v in 0..16u32 {
                assert_eq!(live.node_alive(v), fresh.node_alive(v), "{event:?}");
                for u in 0..16u32 {
                    assert_eq!(
                        live.distance(u, v),
                        fresh.distance(u, v),
                        "{event:?} dst {v}"
                    );
                }
            }
            for e in 0..g.num_directed_edges() {
                assert_eq!(
                    live.masks().edge_alive(e),
                    fresh.masks().edge_alive(e),
                    "{event:?} edge {e}"
                );
            }
        }
    }

    #[test]
    fn oversized_tables_are_refused_not_allocated() {
        // 20 000 nodes → 1.6 GB dense table, over the 1 GiB budget: the
        // builder must return the typed error before touching the heap.
        let g = CsrGraph::empty(20_000);
        match NextHopTable::build(&g, |_, _| None) {
            Err(ExperimentError::TableTooLarge { nodes, bytes }) => {
                assert_eq!(nodes, 20_000);
                assert_eq!(bytes, 20_000u128 * 20_000 * 4);
            }
            other => panic!("expected TableTooLarge, got {other:?}"),
        }
        // And precompute degrades to per-hop routing instead of erroring.
        assert!(EcubeRouter.precompute(&g).is_none());
        assert!(check_table_budget(16_384, 4).is_ok());
        assert!(check_table_budget(16_385, 4).is_err());
    }

    #[test]
    fn the_table_budget_is_charged_by_entry_width() {
        // Four-byte next-hop entries and two-byte distances.
        assert!(check_table_budget(16_384, 4).is_ok());
        assert_eq!(
            check_table_budget(16_385, 4),
            Err(ExperimentError::TableTooLarge {
                nodes: 16_385,
                bytes: 16_385u128 * 16_385 * 4
            })
        );
        assert!(check_table_budget(23_170, 2).is_ok());
        assert_eq!(
            check_table_budget(23_171, 2),
            Err(ExperimentError::TableTooLarge {
                nodes: 23_171,
                bytes: 23_171u128 * 23_171 * 2
            })
        );
        assert_eq!(max_table_nodes(4), 16_384);
        assert_eq!(max_table_nodes(2), 23_170);
    }

    #[test]
    fn router_names() {
        let q = Hypercube::new(3);
        assert_eq!(EcubeRouter.name(), "e-cube");
        assert_eq!(AdaptiveMinimal::new(&q).name(), "adaptive");
        assert_eq!(NextHopRouter::new(&q).name(), "builtin");
        assert_eq!(
            CanonicalRouter::for_net(&FibonacciNet::classical(4)).name(),
            "canonical"
        );
    }

    #[test]
    fn an_empty_mask_makes_the_inner_hop() {
        // A fault-masking router over no faults reaches every pair and
        // makes exactly its inner router's hop, so a healthy run may
        // route on the inner router alone (`engine::run` does for an
        // intact mask and for every healthy closed loop).
        struct Hashed {
            seed: u64,
            node: u32,
        }
        impl LinkLoad for Hashed {
            fn load(&self, slot: usize) -> usize {
                let x = self.seed ^ ((self.node as u64) << 20) ^ slot as u64;
                (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize
            }
        }
        let topos: Vec<Box<dyn Topology>> = vec![
            Box::new(FibonacciNet::classical(8)),
            Box::new(FibonacciNet::new(8, 3)),
            Box::new(Hypercube::new(6)),
            Box::new(Ring::new(11)),
            Box::new(Ring::new(12)),
            Box::new(crate::topology::Mesh::new(5, 4)),
            Box::new(crate::implicit::ImplicitFibonacciNet::classical(8)),
        ];
        let specs = [
            RouterSpec::Preferred,
            RouterSpec::Builtin,
            RouterSpec::Ecube,
            RouterSpec::Canonical,
            RouterSpec::Adaptive,
        ];
        let empty = FaultSet::empty();
        for topo in &topos {
            let n = topo.len() as u32;
            for spec in specs {
                let Ok(inner) = spec.resolve(&**topo) else {
                    continue;
                };
                let masks = [
                    FaultMaskingRouter::new(topo.graph(), &*inner, &empty),
                    FaultMaskingRouter::for_topology(&**topo, &*inner, &empty),
                ];
                for masked in &masks {
                    for cur in 0..n {
                        for dst in 0..n {
                            let what = format!("{} {spec} {cur}→{dst}", topo.name());
                            assert!(masked.reachable(cur, dst), "{what}");
                            assert_eq!(
                                masked.next_hop(cur, dst, &NoLoad),
                                inner.next_hop(cur, dst, &NoLoad),
                                "{what}"
                            );
                            for seed in 1..=3 {
                                let load = Hashed { seed, node: cur };
                                assert_eq!(
                                    masked.next_hop(cur, dst, &load),
                                    inner.next_hop(cur, dst, &load),
                                    "{what} load {seed}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
