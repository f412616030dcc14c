//! Interconnection-network topologies.
//!
//! The ICPP-1993 lineage (Hsu; Hsu–Liu; Liu–Hsu–Chung) studies `Q_d(1^k)`
//! — which it calls the *generalized Fibonacci cube of order k* — as an
//! interconnection network: nodes are addressed by (k-)Zeckendorf codes, so
//! a machine with `N` processors uses the first `N` codes, and links follow
//! the induced hypercube adjacency. We implement that network plus the
//! classic baselines it is compared against (binary hypercube, ring, mesh).

use core::fmt;
use std::sync::Arc;

use fibcube_graph::csr::CsrGraph;
use fibcube_words::word::Word;
use fibcube_words::zeckendorf::RankTable;

use crate::implicit::{rank_table, stream_graph};
use crate::router::{
    AdaptiveMinimal, CanonicalRouter, EcubeRouter, NextHopRouter, Router, RouterSpec,
};

/// A route failed to converge: the distributed rule did not reach `dst`
/// within the topology's diameter bound (i.e. the router is broken —
/// cycling or non-progressive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteError {
    /// Requested source node.
    pub src: u32,
    /// Requested destination node.
    pub dst: u32,
    /// Number of hops taken before giving up (the diameter bound).
    pub steps: usize,
    /// Name of the topology whose router misbehaved.
    pub topology: String,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route {} → {} on {} did not converge within the diameter bound of {} hops",
            self.src, self.dst, self.topology, self.steps
        )
    }
}

impl std::error::Error for RouteError {}

/// A static interconnection topology: a node set with materialised links
/// and a (distributed) routing rule.
///
/// `Send + Sync` is a supertrait: topologies are immutable once built
/// (interior caches like the implicit network's lazy CSR use
/// thread-safe cells), and the sharded engine
/// ([`engine::run`](crate::engine::run) on several lanes) shares them
/// across its shard workers.
pub trait Topology: Send + Sync {
    /// Human-readable name (`"Γ_8"`, `"Q_6"`, `"Ring_64"`, …).
    fn name(&self) -> String;

    /// Number of nodes.
    fn len(&self) -> usize;

    /// `true` when the network has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The underlying undirected link graph.
    fn graph(&self) -> &CsrGraph;

    /// One routing step: the neighbor to forward to on the way from `cur`
    /// to `dst`, or `None` when `cur == dst`.
    ///
    /// Implementations must be *progressive*: the returned hop strictly
    /// decreases the distance to `dst`, so routes are shortest paths and
    /// livelock-free.
    fn next_hop(&self, cur: u32, dst: u32) -> Option<u32>;

    /// An upper bound on the network diameter, used as the convergence
    /// budget for [`route`](Topology::route). The default is the (always
    /// safe) node count; concrete topologies override with their exact
    /// diameter so a cycling router is caught after `diameter` hops
    /// instead of `n`.
    fn diameter_bound(&self) -> usize {
        self.len()
    }

    /// Rank of the directed channel `u → v` in a total order compatible
    /// with this topology's deterministic routing rule: along any route the
    /// preferred router produces, consecutive channel classes must be
    /// strictly increasing (or, for topologies with wraparound links such
    /// as [`Ring`], decrease at most once — the classic dateline). The
    /// wormhole engine
    /// ([`SwitchingSpec::Wormhole`](crate::switching::SwitchingSpec::Wormhole)) keys
    /// virtual-channel selection to this order, which is what makes
    /// flit-level blocking deadlock-free by construction — see the
    /// [`switching`](crate::switching) module docs for the
    /// channel-dependency-graph argument.
    ///
    /// The default returns `0` for every channel (no ordering
    /// information): wormhole simulation still runs, but escapes
    /// class-order blocking only through VC-level clamping, so
    /// deadlock freedom is best-effort rather than structural.
    fn channel_class(&self, u: u32, v: u32) -> u32 {
        let _ = (u, v);
        0
    }

    /// Packed labels of an isometric hypercube embedding: entry `v` is
    /// node `v`'s binary address, and the hop distance between any two
    /// nodes equals the Hamming distance of their labels. `None` when
    /// the topology has no such embedding (or does not expose one).
    ///
    /// The fault-masking router
    /// ([`FaultMaskingRouter::for_topology`](crate::router::FaultMaskingRouter::for_topology))
    /// uses the labels in place of a distance table: it routes on labels
    /// alone wherever no fault lies between the current node and the
    /// destination, and keeps only the distances the faults change.
    /// Labels that are not isometric would mis-route, so the default is
    /// `None`.
    fn cube_labels(&self) -> Option<Vec<u64>> {
        None
    }

    /// The topology's preferred split-out [`Router`] — the policy
    /// [`RouterSpec::Preferred`] resolves to. Defaults to wrapping
    /// [`next_hop`](Topology::next_hop); hypercube and Fibonacci networks
    /// override with their `O(1)`-per-hop routers.
    fn router(&self) -> Box<dyn Router + Send + Sync + '_> {
        Box::new(NextHopRouter::new(self))
    }

    /// The routing policies this topology can run: builds the router for
    /// `spec`, or `None` when the policy does not apply here (e.g.
    /// e-cube off the hypercube). This is the capability hook behind
    /// [`RouterSpec::resolve`], which turns the `None` into a typed
    /// [`ExperimentError`](crate::experiment::ExperimentError).
    ///
    /// The default supports [`RouterSpec::Preferred`] (via
    /// [`router`](Topology::router)) and [`RouterSpec::Builtin`];
    /// topologies with specialised policies override.
    fn resolve_router(&self, spec: RouterSpec) -> Option<Box<dyn Router + Send + Sync + '_>> {
        match spec {
            RouterSpec::Preferred => Some(self.router()),
            RouterSpec::Builtin => Some(Box::new(NextHopRouter::new(self))),
            RouterSpec::Ecube | RouterSpec::Canonical | RouterSpec::Adaptive => None,
        }
    }

    /// Full route from `src` to `dst` (inclusive of both endpoints), or
    /// [`RouteError`] when the rule fails to converge within
    /// [`diameter_bound`](Topology::diameter_bound) hops.
    fn route(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        let bound = self.diameter_bound();
        let mut path = Vec::with_capacity(bound.min(64) + 1);
        path.push(src);
        let mut cur = src;
        // A progressive router terminates within the diameter: `bound`
        // hops plus the final `None` probe at the destination.
        for _ in 0..=bound {
            match self.next_hop(cur, dst) {
                Some(next) => {
                    cur = next;
                    path.push(cur);
                }
                None => return Ok(path),
            }
        }
        Err(RouteError {
            src,
            dst,
            steps: bound,
            topology: self.name(),
        })
    }
}

/// The binary hypercube `Q_d` with e-cube (dimension-ordered) routing —
/// the classic deadlock-free scheme.
#[derive(Clone, Debug)]
pub struct Hypercube {
    d: usize,
    graph: CsrGraph,
}

impl Hypercube {
    /// Builds `Q_d`.
    pub fn new(d: usize) -> Hypercube {
        Hypercube {
            d,
            graph: fibcube_graph::generators::hypercube(d),
        }
    }

    /// The dimension `d`.
    pub fn d(&self) -> usize {
        self.d
    }
}

impl Topology for Hypercube {
    fn name(&self) -> String {
        format!("Q_{}", self.d)
    }

    fn len(&self) -> usize {
        1 << self.d
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn next_hop(&self, cur: u32, dst: u32) -> Option<u32> {
        // e-cube: correct the lowest differing dimension first.
        EcubeRouter::hop(cur, dst)
    }

    fn diameter_bound(&self) -> usize {
        self.d
    }

    fn channel_class(&self, u: u32, v: u32) -> u32 {
        // e-cube corrects ascending bit positions, so the flipped
        // dimension itself is a strictly increasing class along any route.
        (u ^ v).trailing_zeros()
    }

    fn cube_labels(&self) -> Option<Vec<u64>> {
        // Q_d is its own embedding: node ids are the addresses.
        Some((0..self.len() as u64).collect())
    }

    fn router(&self) -> Box<dyn Router + Send + Sync + '_> {
        Box::new(EcubeRouter)
    }

    fn resolve_router(&self, spec: RouterSpec) -> Option<Box<dyn Router + Send + Sync + '_>> {
        match spec {
            RouterSpec::Preferred | RouterSpec::Ecube => Some(Box::new(EcubeRouter)),
            RouterSpec::Builtin => Some(Box::new(NextHopRouter::new(self))),
            RouterSpec::Adaptive => Some(Box::new(AdaptiveMinimal::new(self))),
            RouterSpec::Canonical => None,
        }
    }
}

/// The generalized Fibonacci cube `Q_d(1^k)` as a network: node `i` is the
/// `i`-th `1^k`-free word in lexicographic order (= its k-Zeckendorf code).
///
/// Routing is *canonical-path* routing: flip the leftmost `1 → 0`
/// correction first, else the leftmost `0 → 1`. The Proposition 3.1
/// argument shows every intermediate address stays `1^k`-free, so the rule
/// is a distributed shortest-path router (it needs only `cur` and `dst`).
///
/// Construction is rank arithmetic over the network's [`RankTable`]:
/// each label is unranked in constant time, and the CSR link graph is
/// streamed in two passes, a node's neighbor ids being its rank `± W(j)`
/// over its valid bit flips — the same builder
/// [`ImplicitFibonacciNet`](crate::implicit::ImplicitFibonacciNet) runs
/// lazily. That is `O(n + m)` time with no search, sort or per-node
/// allocation: Γ_16 (2 584 nodes) builds in 0.09 ms and Γ_20 (17 711
/// nodes) in 0.6 ms, best of 30 on a 2-vCPU x86-64 host, where the
/// automaton walk with a binary search per bit flip took 1.7 and 18 ms.
/// Beyond the graph the network stores the labels, 16 bytes per node;
/// its canonical router copies them once per run and reads them instead
/// of unranking per hop.
#[derive(Clone, Debug)]
pub struct FibonacciNet {
    d: usize,
    k: usize,
    labels: Vec<Word>,
    graph: CsrGraph,
    table: Arc<RankTable>,
}

impl FibonacciNet {
    /// Builds `Q_d(1^k)`; `k = 2` is the classical Fibonacci cube `Γ_d`.
    ///
    /// # Panics
    ///
    /// Panics when `k < 2` or the node count overflows `u32` ids.
    pub fn new(d: usize, k: usize) -> FibonacciNet {
        let table = rank_table(d, k);
        let labels = (0..table.total())
            .map(|r| Word::from_raw(table.encode(r).expect("rank in range"), d))
            .collect();
        FibonacciNet {
            d,
            k,
            labels,
            graph: stream_graph(&table),
            table: Arc::new(table),
        }
    }

    /// The classical Fibonacci cube `Γ_d`.
    pub fn classical(d: usize) -> FibonacciNet {
        FibonacciNet::new(d, 2)
    }

    /// String length `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Forbidden-run order `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Node addresses (sorted Zeckendorf indicator words).
    pub fn labels(&self) -> &[Word] {
        &self.labels
    }

    /// Address of node `i`.
    pub fn label(&self, i: u32) -> Word {
        self.labels[i as usize]
    }

    /// Node id of an address.
    pub fn node_of(&self, w: &Word) -> Option<u32> {
        self.labels.binary_search(w).ok().map(|i| i as u32)
    }

    /// The rank table of the addresses (node ids are their ranks), shared
    /// with every canonical router the network resolves.
    pub(crate) fn table(&self) -> &Arc<RankTable> {
        &self.table
    }
}

impl Topology for FibonacciNet {
    fn name(&self) -> String {
        if self.k == 2 {
            format!("Γ_{}", self.d)
        } else {
            format!("Q_{}(1^{})", self.d, self.k)
        }
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn next_hop(&self, cur: u32, dst: u32) -> Option<u32> {
        if cur == dst {
            return None;
        }
        let c = self.labels[cur as usize];
        let t = self.labels[dst as usize];
        // Canonical-path rule: leftmost 1→0 correction first …
        for i in 1..=self.d {
            if c.at(i) == 1 && t.at(i) == 0 {
                let next = c.flip(i);
                return Some(self.node_of(&next).expect("1→0 flips stay 1^k-free"));
            }
        }
        // … then leftmost 0→1 (Prop 3.1's argument keeps these 1^k-free).
        for i in 1..=self.d {
            if c.at(i) == 0 && t.at(i) == 1 {
                let next = c.flip(i);
                return Some(
                    self.node_of(&next)
                        .expect("canonical 0→1 flips stay 1^k-free (Prop 3.1)"),
                );
            }
        }
        unreachable!("cur ≠ dst must differ somewhere")
    }

    fn diameter_bound(&self) -> usize {
        // Q_d(1^k) is isometric in Q_d, so its diameter is at most d.
        self.d
    }

    fn channel_class(&self, u: u32, v: u32) -> u32 {
        // Canonical-path routing clears 1-bits at ascending positions
        // first, then sets 0-bits at ascending positions (clearing never
        // creates new corrections, so the phases don't interleave). Giving
        // every clearing channel a class below every setting channel, each
        // phase ascending by position, makes classes strictly increasing
        // along every canonical route.
        let cu = self.labels[u as usize];
        let cv = self.labels[v as usize];
        for i in 1..=self.d {
            if cu.at(i) != cv.at(i) {
                return if cu.at(i) == 1 {
                    (i - 1) as u32
                } else {
                    (self.d + i - 1) as u32
                };
            }
        }
        unreachable!("channel endpoints must differ in one position")
    }

    fn cube_labels(&self) -> Option<Vec<u64>> {
        // Q_d(1^k) is an isometric subgraph of Q_d for every k
        // (Ilić–Klavžar–Rho), so the words themselves are the embedding.
        Some(self.labels.iter().map(Word::bits).collect())
    }

    fn router(&self) -> Box<dyn Router + Send + Sync + '_> {
        // Built on demand: one O(n) copy of the labels per simulation
        // run, which the router reads instead of unranking per hop.
        Box::new(CanonicalRouter::for_net(self))
    }

    fn resolve_router(&self, spec: RouterSpec) -> Option<Box<dyn Router + Send + Sync + '_>> {
        match spec {
            RouterSpec::Preferred | RouterSpec::Canonical => {
                Some(Box::new(CanonicalRouter::for_net(self)))
            }
            RouterSpec::Builtin => Some(Box::new(NextHopRouter::new(self))),
            RouterSpec::Adaptive => Some(Box::new(AdaptiveMinimal::new(self))),
            RouterSpec::Ecube => None,
        }
    }
}

/// A bidirectional ring with clockwise/counter-clockwise shortest routing.
#[derive(Clone, Debug)]
pub struct Ring {
    n: usize,
    graph: CsrGraph,
}

impl Ring {
    /// Builds the `n`-cycle.
    ///
    /// # Panics
    ///
    /// When `n < 3`: a 0/1/2-"cycle" is not a cycle graph (the generator
    /// would emit self-loops or parallel edges as a malformed CSR that
    /// only failed later, deep inside the engine).
    pub fn new(n: usize) -> Ring {
        assert!(n >= 3, "Ring::new: a cycle needs at least 3 nodes, got {n}");
        Ring {
            n,
            graph: fibcube_graph::generators::cycle(n),
        }
    }
}

impl Topology for Ring {
    fn name(&self) -> String {
        format!("Ring_{}", self.n)
    }

    fn len(&self) -> usize {
        self.n
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn next_hop(&self, cur: u32, dst: u32) -> Option<u32> {
        if cur == dst {
            return None;
        }
        let n = self.n as u32;
        let forward = (dst + n - cur) % n;
        let backward = n - forward;
        // Even rings have an antipodal tie (forward == backward); always
        // resolving it clockwise systematically overloads that direction
        // under symmetric traffic, so the tie alternates by the parity of
        // the deciding node instead. The rule stays a pure function of
        // (cur, dst) — deterministic, tabulable, engine-order-independent.
        let clockwise = if forward != backward {
            forward < backward
        } else {
            cur.is_multiple_of(2)
        };
        Some(if clockwise {
            (cur + 1) % n
        } else {
            (cur + n - 1) % n
        })
    }

    fn diameter_bound(&self) -> usize {
        self.n / 2
    }

    fn channel_class(&self, u: u32, v: u32) -> u32 {
        // Clockwise channels rank by source node; counter-clockwise ones
        // continue the order with descending sources. Either direction is
        // ascending except across its wrap link (the dateline), so any
        // minimal route — which keeps one direction and wraps at most once
        // — sees at most one class decrease: two VC levels suffice.
        let n = self.n as u32;
        if v == (u + 1) % n {
            u
        } else {
            n + (n - 1 - u)
        }
    }
}

/// A `w × h` mesh with X-then-Y dimension-ordered routing.
#[derive(Clone, Debug)]
pub struct Mesh {
    w: usize,
    h: usize,
    graph: CsrGraph,
}

impl Mesh {
    /// Builds the `w × h` grid.
    ///
    /// # Panics
    ///
    /// When `w == 0` or `h == 0`: a zero-width/height grid has no nodes
    /// and used to yield a malformed CSR graph that only failed later,
    /// deep inside the engine.
    pub fn new(w: usize, h: usize) -> Mesh {
        assert!(
            w >= 1 && h >= 1,
            "Mesh::new: grid dimensions must be positive, got {w}x{h}"
        );
        Mesh {
            w,
            h,
            graph: fibcube_graph::generators::grid(w, h),
        }
    }
}

impl Topology for Mesh {
    fn name(&self) -> String {
        format!("Mesh_{}x{}", self.w, self.h)
    }

    fn len(&self) -> usize {
        self.w * self.h
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn next_hop(&self, cur: u32, dst: u32) -> Option<u32> {
        if cur == dst {
            return None;
        }
        let w = self.w as u32;
        let (cx, cy) = (cur % w, cur / w);
        let (dx, dy) = (dst % w, dst / w);
        // X first, then Y.
        if cx < dx {
            Some(cur + 1)
        } else if cx > dx {
            Some(cur - 1)
        } else if cy < dy {
            Some(cur + w)
        } else {
            Some(cur - w)
        }
    }

    fn diameter_bound(&self) -> usize {
        self.w + self.h - 2
    }

    fn channel_class(&self, u: u32, v: u32) -> u32 {
        // X-then-Y routing moves monotonically in one x direction, then
        // one y direction. Ordering the channels +x (by column), then −x
        // (by descending column), then +y (by row), then −y (by descending
        // row) keeps classes strictly increasing along every such route:
        // within a leg the coordinate is monotone, and every y class
        // (≥ 2(w−1)) exceeds every x class (≤ 2w−3).
        let (w, h) = (self.w as u32, self.h as u32);
        let (cx, cy) = (u % w, u / w);
        let (vx, vy) = (v % w, v / w);
        if vy == cy {
            if vx == cx + 1 {
                cx
            } else {
                (w - 1) + (w - 1 - cx)
            }
        } else if vy == cy + 1 {
            2 * (w - 1) + cy
        } else {
            2 * (w - 1) + (h - 1) + (h - 1 - cy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fibcube_graph::bfs::distance_matrix;

    fn routes_are_shortest(t: &dyn Topology) {
        let dist = distance_matrix(t.graph());
        let n = t.len();
        for s in 0..n as u32 {
            for d in 0..n as u32 {
                let route = t.route(s, d).expect("progressive routers converge");
                assert_eq!(
                    route.len() as u32 - 1,
                    dist[s as usize][d as usize],
                    "{}: route {s}→{d} not shortest",
                    t.name()
                );
                // Route edges must exist.
                for hop in route.windows(2) {
                    assert!(t.graph().has_edge(hop[0], hop[1]), "{}", t.name());
                }
            }
        }
    }

    #[test]
    fn hypercube_routing_shortest() {
        routes_are_shortest(&Hypercube::new(4));
    }

    #[test]
    fn fibonacci_routing_shortest() {
        routes_are_shortest(&FibonacciNet::classical(7));
        routes_are_shortest(&FibonacciNet::new(6, 3));
    }

    #[test]
    fn ring_and_mesh_routing_shortest() {
        routes_are_shortest(&Ring::new(9));
        routes_are_shortest(&Ring::new(10));
        routes_are_shortest(&Mesh::new(4, 3));
    }

    #[test]
    fn fibonacci_orders_are_kbonacci() {
        // |Q_d(1^k)| follows the k-bonacci counting sequence.
        for k in 2..=4usize {
            for d in 0..=12usize {
                let net = FibonacciNet::new(d, k);
                assert_eq!(
                    net.len() as u128,
                    fibcube_words::zeckendorf::count_k_free(k, d),
                    "k={k} d={d}"
                );
            }
        }
    }

    #[test]
    fn canonical_route_stays_in_network() {
        // The key Prop 3.1 property: intermediate addresses avoid 1^k.
        let net = FibonacciNet::classical(9);
        let ones = Word::ones(2);
        for s in (0..net.len() as u32).step_by(7) {
            for d in (0..net.len() as u32).step_by(5) {
                for &node in &net.route(s, d).expect("canonical routing converges") {
                    assert!(!fibcube_words::is_factor(&ones, &net.label(node)));
                }
            }
        }
    }

    #[test]
    fn broken_router_yields_route_error_within_diameter_bound() {
        /// A deliberately cycling "router" over a 4-cycle: every hop moves
        /// clockwise and never admits arrival.
        struct Carousel {
            graph: CsrGraph,
        }
        impl Topology for Carousel {
            fn name(&self) -> String {
                "Carousel_4".into()
            }
            fn len(&self) -> usize {
                4
            }
            fn graph(&self) -> &CsrGraph {
                &self.graph
            }
            fn next_hop(&self, cur: u32, _dst: u32) -> Option<u32> {
                Some((cur + 1) % 4)
            }
            fn diameter_bound(&self) -> usize {
                2
            }
        }
        let t = Carousel {
            graph: fibcube_graph::generators::cycle(4),
        };
        let err = t.route(0, 2).expect_err("cycling router must be caught");
        assert_eq!(err.steps, 2, "budget is the diameter bound, not n");
        assert_eq!(err.topology, "Carousel_4");
        assert!(err.to_string().contains("did not converge"));
    }

    #[test]
    fn hypercube_ecube_is_monotone_in_dimensions() {
        let q = Hypercube::new(5);
        let route = q.route(0b00000, 0b10101).unwrap();
        // e-cube fixes ascending bit positions: 0 → 1 → 5 → 21.
        assert_eq!(route, vec![0b00000, 0b00001, 0b00101, 0b10101]);
    }

    #[test]
    #[should_panic(expected = "a cycle needs at least 3 nodes")]
    fn ring_rejects_degenerate_cycles() {
        let _ = Ring::new(2);
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be positive")]
    fn mesh_rejects_zero_width() {
        let _ = Mesh::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be positive")]
    fn mesh_rejects_zero_height() {
        let _ = Mesh::new(3, 0);
    }

    #[test]
    fn smallest_accepted_shapes_build_clean_graphs() {
        let r = Ring::new(3);
        assert_eq!(r.graph().num_edges(), 3);
        let m = Mesh::new(1, 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.graph().num_edges(), 0);
        routes_are_shortest(&Ring::new(3));
        routes_are_shortest(&Mesh::new(1, 5));
    }

    #[test]
    fn ring_antipodal_tie_alternates_by_source_parity() {
        // On an even ring the antipodal pair is equidistant both ways;
        // the tie must alternate with the deciding node's parity instead
        // of always going clockwise.
        let r = Ring::new(8);
        assert_eq!(r.next_hop(0, 4), Some(1), "even node goes clockwise");
        assert_eq!(r.next_hop(1, 5), Some(0), "odd node goes counter-clockwise");
        assert_eq!(r.next_hop(2, 6), Some(3));
        assert_eq!(r.next_hop(3, 7), Some(2));
        // Non-tied pairs still take the strictly shorter way.
        assert_eq!(r.next_hop(0, 3), Some(1));
        assert_eq!(r.next_hop(0, 5), Some(7));
        // Odd rings have no tie at all.
        let odd = Ring::new(9);
        for s in 0..9u32 {
            for d in 0..9u32 {
                if s != d {
                    let fwd = (d + 9 - s) % 9;
                    let expected = if fwd < 9 - fwd {
                        (s + 1) % 9
                    } else {
                        (s + 8) % 9
                    };
                    assert_eq!(odd.next_hop(s, d), Some(expected));
                }
            }
        }
    }

    /// Channel classes along every preferred route must decrease at most
    /// `wraps` times — 0 for the order-based topologies, 1 for the ring's
    /// dateline. This is the premise of the wormhole deadlock argument.
    fn classes_increase_along_routes(t: &dyn Topology, wraps: usize) {
        let n = t.len() as u32;
        for s in 0..n {
            for d in 0..n {
                let route = t.route(s, d).expect("progressive routers converge");
                let mut decreases = 0;
                let mut last = None;
                for hop in route.windows(2) {
                    let c = t.channel_class(hop[0], hop[1]);
                    if let Some(prev) = last {
                        if c <= prev {
                            decreases += 1;
                        }
                    }
                    last = Some(c);
                }
                assert!(
                    decreases <= wraps,
                    "{}: route {s}→{d} has {decreases} class decreases",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn channel_classes_are_route_monotone() {
        classes_increase_along_routes(&Hypercube::new(4), 0);
        classes_increase_along_routes(&FibonacciNet::classical(7), 0);
        classes_increase_along_routes(&FibonacciNet::new(6, 3), 0);
        classes_increase_along_routes(&Mesh::new(4, 3), 0);
        classes_increase_along_routes(&Mesh::new(1, 5), 0);
        classes_increase_along_routes(&Ring::new(9), 1);
        classes_increase_along_routes(&Ring::new(10), 1);
    }

    #[test]
    fn channel_classes_distinguish_directions() {
        // Opposite directions of one physical link get distinct classes on
        // every override (the default is the constant 0).
        let r = Ring::new(6);
        assert_ne!(r.channel_class(2, 3), r.channel_class(3, 2));
        let m = Mesh::new(3, 3);
        assert_ne!(m.channel_class(0, 1), m.channel_class(1, 0));
        assert_ne!(m.channel_class(0, 3), m.channel_class(3, 0));
        let q = Hypercube::new(3);
        assert_eq!(q.channel_class(0, 4), 2, "dimension index is the class");
        let g = FibonacciNet::classical(5);
        // Setting a position classes d−1 above clearing it.
        let (u, v) = (0u32, 1u32);
        let set = g.channel_class(u, v);
        let clear = g.channel_class(v, u);
        assert_eq!(set, clear + 5);
    }

    #[test]
    fn names() {
        assert_eq!(Hypercube::new(3).name(), "Q_3");
        assert_eq!(FibonacciNet::classical(5).name(), "Γ_5");
        assert_eq!(FibonacciNet::new(5, 3).name(), "Q_5(1^3)");
        assert_eq!(Ring::new(8).name(), "Ring_8");
        assert_eq!(Mesh::new(2, 3).name(), "Mesh_2x3");
    }
}
