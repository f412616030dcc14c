//! Implicit (table-free) routing and lazy topologies for million-node
//! networks.
//!
//! Every dense structure the small-scale path leans on — the per-node
//! label vector, the `node × position` flip table of
//! [`CanonicalRouter`](crate::router::CanonicalRouter), the `O(n²)`
//! [`NextHopTable`] — is redundant on
//! `Q_d(1^k)`: the Zeckendorf addressing scheme makes *node ids
//! arithmetic*. This module exploits that to route and build at Γ_30
//! scale (2.2M nodes) with `O(√n)` routing state: 11.3 KB at Γ_24 and
//! 48 KB at Γ_30, about 0.02 bytes per node.
//!
//! # The address-arithmetic derivation
//!
//! Node `i` of `Q_d(1^k)` is the `i`-th `1^k`-free word in lexicographic
//! order. The counting-based unranking behind
//! [`kzeckendorf_encode`](fibcube_words::zeckendorf::kzeckendorf_encode)
//! yields a *linear* rank formula: with `W(j)` = number of `1^k`-free
//! words of length `j` (for `k = 2`, `W(j) = F_{j+2}` — Fibonacci
//! numbers),
//!
//! ```text
//! rank(b₁…b_d) = Σ_{i : b_i = 1} W(d − i)
//! ```
//!
//! because placing a `1` at position `i` skips exactly the `W(d − i)`
//! words that put a `0` there. Three consequences, each in constant time
//! with no allocation:
//!
//! 1. **Unrank** (`id → address bits`): [`RankTable`] splits the word in
//!    half; the rank picks the high half from a bucket table and the low
//!    half from the list of half-length words, five loads and no loop
//!    (where [`RankCodec::encode`] replays a `d`-step greedy scan).
//! 2. **Rank** (`address bits → id`): sum the weights of the set bits.
//! 3. **Neighbor ids without decoding**: flipping bit `j` (u64 position,
//!    = suffix length) moves the rank by exactly `±W(j)` — so a node's
//!    neighbor ids are `i ± W(j)` over the valid flips, and routing
//!    never searches a label list.
//!
//! Canonical-path routing (Proposition 3.1 of the ICPP-93 line) then
//! reads: encode `cur` and `dst`, take the leftmost `1 → 0` correction
//! if any (`c & !t`), else the leftmost `0 → 1` (`t & !c`), and return
//! `cur ∓ W(j)` for the flipped position `j`. Every intermediate stays
//! `1^k`-free (the proposition's argument), so the arithmetic never
//! leaves the id range. The hop's output slot is closed-form too: the
//! streamed graph lists the `1 → 0` flips from the highest position
//! down, then the valid `0 → 1` flips from the lowest up, so bit `j`'s
//! slot is a popcount ([`Router::next_slot`]).
//!
//! [`ImplicitRouter`] packages rules 1–3 behind the [`Router`] trait
//! (names itself `"canonical"`/`"e-cube"`, so reports are
//! indistinguishable from the dense routers it replaces), and
//! [`ImplicitFibonacciNet`] is the matching [`Topology`]: no label
//! vector, a CSR link graph *streamed* two-pass from the table (exactly
//! equal to the automaton-built graph of
//! [`FibonacciNet`](crate::topology::FibonacciNet), but with no
//! per-node allocations and no hashing), built lazily on first use.
//!
//! # Dense vs implicit
//!
//! | structure | dense path | implicit path |
//! |---|---|---|
//! | node labels | `Vec<Word>`, 16 B/node | unranked on demand, 0 B |
//! | canonical router | flip table, `4·n·d` B | rank table, `O(√n)` B shared by every router |
//! | next-hop precompute | `4n²` B table | refused over budget, `O(1)`/hop |
//! | output slot | binary search of the neighbor list | popcount of the address |
//! | graph build | automaton + `Vec<Vec>` staging | two-pass streamed CSR |
//!
//! The CSR graph itself (≈ `4(n + 2m)` bytes) is still materialised —
//! the store-and-forward engine needs real per-link queues — so the
//! engine's memory is `O(n + m)`, with *routing state* at `O(√n)`.

use std::sync::{Arc, OnceLock};

use fibcube_graph::csr::CsrGraph;
use fibcube_words::word::Word;
use fibcube_words::zeckendorf::{RankCodec, RankTable};

use crate::router::{
    AdaptiveMinimal, EcubeRouter, HammingAddressed, LinkLoad, NextHopRouter, NextHopTable, Router,
    RouterSpec,
};
use crate::topology::Topology;

/// Table-free routing from Zeckendorf address arithmetic: constant time
/// and no allocation per lookup, with the hop's output slot in closed
/// form. The canonical arm holds a shared [`RankTable`] (`O(√n)` bytes);
/// the e-cube arm holds nothing. See the [module docs](self) for the
/// derivation.
///
/// The router intentionally reuses the dense policies' display names —
/// `"canonical"` / `"e-cube"` — because it computes *identical* hops;
/// swapping implementations must not change a
/// [`Report`](crate::report::Report).
#[derive(Clone, Debug)]
pub enum ImplicitRouter {
    /// Canonical-path routing on `Q_d(1^k)` node ranks.
    Canonical(Arc<RankTable>),
    /// Dimension-ordered routing on hypercube node ids (rank = address:
    /// the codec is the identity, so no table is needed at all).
    Ecube,
}

impl ImplicitRouter {
    /// Canonical-path routing over the given rank table.
    pub fn canonical(table: Arc<RankTable>) -> ImplicitRouter {
        ImplicitRouter::Canonical(table)
    }

    /// Canonical-path routing on `Q_d(1^k)` by dimensions, with a table
    /// of its own.
    ///
    /// # Panics
    ///
    /// Panics when `k < 2` or the node count overflows `u32` ids.
    pub fn for_cube(d: usize, k: usize) -> ImplicitRouter {
        ImplicitRouter::Canonical(Arc::new(rank_table(d, k)))
    }

    /// E-cube routing on hypercube ids.
    pub fn ecube() -> ImplicitRouter {
        ImplicitRouter::Ecube
    }

    /// Heap bytes of routing state — the whole memory cost of the
    /// policy: the rank table's codec weights, prefixes, suffixes and
    /// buckets (11.3 KB at Γ_24) on the canonical arm, 0 on e-cube.
    pub fn state_bytes(&self) -> usize {
        match self {
            ImplicitRouter::Canonical(table) => table.state_bytes(),
            ImplicitRouter::Ecube => 0,
        }
    }

    /// The canonical-path flip from `cur` toward `dst` (`cur ≠ dst`):
    /// `cur`'s address, the flipped position `j`, and whether the flip
    /// is a `1 → 0` correction.
    #[inline]
    fn canonical_flip(table: &RankTable, cur: u32, dst: u32) -> (u64, u32, bool) {
        let c = table
            .encode(cur as u64)
            .expect("current node id within the network");
        let t = table
            .encode(dst as u64)
            .expect("destination node id within the network");
        // Leftmost 1→0 correction first, else leftmost 0→1; leftmost
        // position = highest u64 bit (b₁ lives at bit d−1).
        let down = c & !t;
        if down != 0 {
            (c, 63 - down.leading_zeros(), true)
        } else {
            (c, 63 - (t & !c).leading_zeros(), false)
        }
    }

    /// The hop from `cur` toward `dst` and its output slot in the
    /// streamed graph's order, or `None` when `cur == dst`. The slot of
    /// the flipped bit `j` is `popcount(c >> (j + 1))` for a `1 → 0`
    /// flip (the set bits above `j` come first); for a `0 → 1` flip it
    /// is `popcount(c)` plus the valid `0 → 1` positions below `j` (every
    /// zero bit on the e-cube arm).
    #[inline]
    fn hop_and_slot(&self, cur: u32, dst: u32) -> Option<(u32, u32)> {
        if cur == dst {
            return None;
        }
        Some(match self {
            ImplicitRouter::Canonical(table) => {
                let (c, j, down) = ImplicitRouter::canonical_flip(table, cur, dst);
                let w = table.codec().weight(j as usize) as u32;
                if down {
                    (cur - w, (c >> j >> 1).count_ones())
                } else {
                    let below = table.free_flips(c) & ((1 << j) - 1);
                    (cur + w, c.count_ones() + below.count_ones())
                }
            }
            ImplicitRouter::Ecube => {
                let j = (cur ^ dst).trailing_zeros();
                let hop = cur ^ (1 << j);
                if cur & (1 << j) != 0 {
                    (hop, (cur >> j >> 1).count_ones())
                } else {
                    (hop, cur.count_ones() + (!cur & ((1 << j) - 1)).count_ones())
                }
            }
        })
    }

    /// The canonical-path hop on ranks, shared with
    /// [`ImplicitFibonacciNet::next_hop`].
    #[inline]
    fn canonical_hop(table: &RankTable, cur: u32, dst: u32) -> Option<u32> {
        if cur == dst {
            return None;
        }
        let (_, j, down) = ImplicitRouter::canonical_flip(table, cur, dst);
        // Prop 3.1: the flip stays 1^k-free, so the rank moves by ±W(j).
        let w = table.codec().weight(j as usize) as u32;
        Some(if down { cur - w } else { cur + w })
    }
}

/// `slot` when `g` lists `hop` there among `cur`'s neighbors, else the
/// slot a search of the list finds: on the graph the router was built
/// for the closed form always holds, and on any other graph the answer
/// is still the default [`Router::next_slot`]'s.
#[inline]
fn checked_slot(g: &CsrGraph, cur: u32, hop: u32, slot: u32) -> usize {
    let edges = g.edge_range(cur);
    let slot = slot as usize;
    if slot < edges.len() && g.target(edges.start + slot) == hop {
        slot
    } else {
        g.slot_of(cur, hop)
            .expect("next_hop must return a neighbor")
    }
}

impl Router for ImplicitRouter {
    fn name(&self) -> String {
        match self {
            ImplicitRouter::Canonical(_) => "canonical".into(),
            ImplicitRouter::Ecube => "e-cube".into(),
        }
    }

    #[inline]
    fn next_hop(&self, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<u32> {
        match self {
            ImplicitRouter::Canonical(table) => ImplicitRouter::canonical_hop(table, cur, dst),
            ImplicitRouter::Ecube => EcubeRouter::hop(cur, dst),
        }
    }

    #[inline]
    fn next_slot(&self, g: &CsrGraph, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<usize> {
        let (hop, slot) = self.hop_and_slot(cur, dst)?;
        Some(checked_slot(g, cur, hop, slot))
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        // Small networks may still tabulate (one table load beats even
        // constant-time arithmetic per hop); over the byte budget the
        // build refuses and the engine transparently stays on implicit
        // per-hop routing.
        NextHopTable::build(graph, |cur, dst| {
            self.next_hop(cur, dst, &crate::router::NoLoad)
        })
        .ok()
    }
}

/// The rank table of `Q_d(1^k)`, refusing node counts past `u32` ids
/// before it allocates.
fn rank_table(d: usize, k: usize) -> RankTable {
    let codec = RankCodec::new(k, d);
    let total = codec.total();
    assert!(
        total < u32::MAX as u64,
        "Q_{d}(1^{k}) has {total} nodes, too many for u32 ids"
    );
    RankTable::new(codec)
}

/// `Q_d(1^k)` with implicit Zeckendorf addressing: node labels are
/// unranked on demand instead of stored, the canonical router shares one
/// `O(√n)` [`RankTable`], and the CSR link graph is streamed two-pass
/// from the table on first use. Produces bit-identical graphs, routes,
/// and simulation reports to
/// [`FibonacciNet`](crate::topology::FibonacciNet) — at a memory/build
/// cost that scales to millions of nodes.
#[derive(Clone, Debug)]
pub struct ImplicitFibonacciNet {
    d: usize,
    k: usize,
    n: usize,
    table: Arc<RankTable>,
    graph: OnceLock<CsrGraph>,
}

impl ImplicitFibonacciNet {
    /// Builds `Q_d(1^k)` implicitly; `k = 2` is the classical `Γ_d`.
    /// Construction builds the rank table, `O(√n)` time and bytes; the
    /// link graph is not materialised until first
    /// [`graph()`](Topology::graph) use.
    ///
    /// # Panics
    ///
    /// Panics when `k < 2` or the node count overflows `u32` ids (for
    /// `k = 2` that is `d > 45`).
    pub fn new(d: usize, k: usize) -> ImplicitFibonacciNet {
        let table = rank_table(d, k);
        ImplicitFibonacciNet {
            d,
            k,
            n: table.total() as usize,
            table: Arc::new(table),
            graph: OnceLock::new(),
        }
    }

    /// The classical Fibonacci cube `Γ_d`, implicitly.
    pub fn classical(d: usize) -> ImplicitFibonacciNet {
        ImplicitFibonacciNet::new(d, 2)
    }

    /// String length `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Forbidden-run order `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The rank codec addressing this network.
    pub fn codec(&self) -> &RankCodec {
        self.table.codec()
    }

    /// The rank table addressing this network, shared with every router
    /// it resolves.
    pub fn table(&self) -> &Arc<RankTable> {
        &self.table
    }

    /// Address of node `i`, unranked on demand in constant time.
    pub fn label(&self, i: u32) -> Word {
        Word::from_raw(self.address(i), self.d)
    }

    /// Node id of an address (`O(d)`), or `None` when `w` is not a valid
    /// `1^k`-free word of length `d`.
    pub fn node_of(&self, w: &Word) -> Option<u32> {
        if w.len() != self.d {
            return None;
        }
        self.codec().decode(w.bits()).map(|r| r as u32)
    }

    /// `true` once the link graph has been materialised.
    pub fn graph_built(&self) -> bool {
        self.graph.get().is_some()
    }

    /// Heap bytes of the routing state (the rank table with its codec) —
    /// the `≤ 64 bytes/node` budget of the scale benchmarks measures
    /// this, not the `O(n + m)` link graph the store-and-forward engine
    /// inherently needs.
    pub fn routing_state_bytes(&self) -> usize {
        self.table.state_bytes()
    }

    /// Streams the CSR graph from the table: one degree-counting pass,
    /// one fill pass, no per-node allocation, no hashing, no automaton.
    /// Neighbor ids come from the `±W(j)` rank arithmetic; emitting
    /// 1→0 flips from the highest position down and then 0→1 flips from
    /// the lowest up yields each adjacency list already sorted.
    fn build_graph(&self) -> CsrGraph {
        let n = self.n;
        let table = &*self.table;
        let weight = |j: u32| table.codec().weight(j as usize) as u32;
        let mut offsets = vec![0u32; n + 1];
        for r in 0..n {
            let bits = table.encode(r as u64).expect("rank in range");
            let deg = bits.count_ones() + table.free_flips(bits).count_ones();
            offsets[r + 1] = offsets[r]
                .checked_add(deg)
                .expect("directed edge count fits u32 offsets");
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        for r in 0..n {
            let bits = table.encode(r as u64).expect("rank in range");
            let mut idx = offsets[r] as usize;
            // 1→0 flips: higher positions shed bigger weights, so the
            // resulting ranks ascend as the position descends.
            let mut down = bits;
            while down != 0 {
                let j = 63 - down.leading_zeros();
                targets[idx] = r as u32 - weight(j);
                idx += 1;
                down ^= 1 << j;
            }
            // 0→1 flips: ranks ascend with the position.
            let mut up = table.free_flips(bits);
            while up != 0 {
                targets[idx] = r as u32 + weight(up.trailing_zeros());
                idx += 1;
                up &= up - 1;
            }
        }
        CsrGraph::from_parts(offsets, targets)
    }
}

impl Topology for ImplicitFibonacciNet {
    fn name(&self) -> String {
        // Same display name as the dense FibonacciNet: it is the same
        // topology, and reports must not depend on the representation.
        if self.k == 2 {
            format!("Γ_{}", self.d)
        } else {
            format!("Q_{}(1^{})", self.d, self.k)
        }
    }

    fn len(&self) -> usize {
        self.n
    }

    fn graph(&self) -> &CsrGraph {
        self.graph.get_or_init(|| self.build_graph())
    }

    fn next_hop(&self, cur: u32, dst: u32) -> Option<u32> {
        ImplicitRouter::canonical_hop(&self.table, cur, dst)
    }

    fn diameter_bound(&self) -> usize {
        // Isometric in Q_d, so the diameter is at most d.
        self.d
    }

    fn cube_labels(&self) -> Option<Vec<u64>> {
        // Unranked on demand: only the fault-masking router asks, and it
        // keeps these n labels as the base of its exception rows.
        Some((0..self.n as u32).map(|v| self.address(v)).collect())
    }

    fn router(&self) -> Box<dyn Router + Send + Sync + '_> {
        Box::new(ImplicitRouter::canonical(self.table.clone()))
    }

    fn resolve_router(&self, spec: RouterSpec) -> Option<Box<dyn Router + Send + Sync + '_>> {
        match spec {
            RouterSpec::Preferred | RouterSpec::Canonical => {
                Some(Box::new(ImplicitRouter::canonical(self.table.clone())))
            }
            RouterSpec::Builtin => Some(Box::new(NextHopRouter::new(self))),
            RouterSpec::Adaptive => Some(Box::new(AdaptiveMinimal::new(self))),
            RouterSpec::Ecube => None,
        }
    }
}

impl HammingAddressed for ImplicitFibonacciNet {
    fn address(&self, v: u32) -> u64 {
        self.table
            .encode(v as u64)
            .expect("node id within the network")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{CanonicalRouter, NoLoad};
    use crate::topology::{FibonacciNet, Hypercube};

    #[test]
    fn streamed_graph_equals_automaton_graph() {
        for (d, k) in [(0usize, 2usize), (1, 2), (7, 2), (10, 2), (6, 3), (5, 4)] {
            let implicit = ImplicitFibonacciNet::new(d, k);
            let dense = FibonacciNet::new(d, k);
            assert_eq!(implicit.len(), dense.len(), "d={d} k={k}");
            assert!(!implicit.graph_built());
            assert_eq!(implicit.graph(), dense.graph(), "d={d} k={k}");
            assert!(implicit.graph_built());
            assert_eq!(implicit.name(), dense.name());
        }
    }

    #[test]
    fn labels_round_trip_without_storage() {
        let implicit = ImplicitFibonacciNet::classical(9);
        let dense = FibonacciNet::classical(9);
        for i in 0..implicit.len() as u32 {
            assert_eq!(implicit.label(i), dense.label(i));
            assert_eq!(implicit.node_of(&dense.label(i)), Some(i));
        }
        // Wrong length and invalid words miss.
        assert_eq!(implicit.node_of(&Word::ones(3)), None);
        assert_eq!(implicit.node_of(&Word::ones(9)), None);
    }

    #[test]
    fn implicit_canonical_matches_dense_canonical() {
        for (d, k) in [(8usize, 2usize), (6, 3)] {
            let dense = FibonacciNet::new(d, k);
            let implicit = ImplicitRouter::for_cube(d, k);
            let table_router = CanonicalRouter::for_net(&dense);
            for cur in 0..dense.len() as u32 {
                for dst in 0..dense.len() as u32 {
                    assert_eq!(
                        implicit.next_hop(cur, dst, &NoLoad),
                        table_router.next_hop(cur, dst, &NoLoad),
                        "d={d} k={k} {cur}→{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn implicit_ecube_matches_dense_ecube() {
        let implicit = ImplicitRouter::ecube();
        for cur in 0..64u32 {
            for dst in 0..64u32 {
                assert_eq!(
                    implicit.next_hop(cur, dst, &NoLoad),
                    EcubeRouter.next_hop(cur, dst, &NoLoad)
                );
            }
        }
        assert_eq!(implicit.state_bytes(), 0);
        assert_eq!(implicit.name(), "e-cube");
    }

    #[test]
    fn routing_state_is_the_rank_table() {
        // Codec weights (d + 1 u64) plus the table: prefixes and interval
        // starts (u64, one sentinel start), suffixes and buckets (u32).
        // Γ_8 splits at l = 4: 8 prefixes, 8 suffixes, and 14 buckets of
        // 2^2 ranks (the narrowest interval holds F_5 = 5 of 55 ranks).
        let small = ImplicitFibonacciNet::classical(8);
        assert_eq!(
            small.routing_state_bytes(),
            9 * 8 + (8 + 9) * 8 + (8 + 14) * 4
        );
        // Γ_24 splits at l = 12: 377 prefixes, 377 suffixes, and 949
        // buckets of 2^7 ranks (the narrowest interval holds F_13 = 233
        // of 121 393 ranks): 11 544 bytes.
        let large = ImplicitFibonacciNet::classical(24);
        assert_eq!(
            large.routing_state_bytes(),
            25 * 8 + (377 + 378) * 8 + (377 + 949) * 4
        );
        assert!(large.routing_state_bytes() <= 16 * 1024);
        assert!(large.routing_state_bytes() < 64 * large.len());
        // Every resolved router shares the net's table.
        assert_eq!(Arc::strong_count(large.table()), 1);
        let shared = RouterSpec::Preferred.resolve(&large).unwrap();
        assert_eq!(Arc::strong_count(large.table()), 2);
        drop(shared);
        // Resolution yields the implicit router under its policy name.
        let r = RouterSpec::Preferred.resolve(&small).unwrap();
        assert_eq!(r.name(), "canonical");
        assert!(RouterSpec::Ecube.resolve(&small).is_err());
    }

    #[test]
    fn closed_form_slots_match_the_neighbor_lists() {
        // The popcount slot itself, before next_slot's check: on the
        // graphs the routers are built for it must never need the search.
        let mut cubes: Vec<(usize, usize)> = (0..=12).map(|d| (d, 2)).collect();
        cubes.extend((0..=9).map(|d| (d, 3)));
        for (d, k) in cubes {
            let net = ImplicitFibonacciNet::new(d, k);
            let router = ImplicitRouter::canonical(net.table().clone());
            assert_closed_form(&router, net.graph(), &format!("Q_{d}(1^{k})"));
        }
        for d in 0..=8 {
            let q = Hypercube::new(d);
            assert_closed_form(&ImplicitRouter::ecube(), q.graph(), &format!("Q_{d}"));
        }
    }

    fn assert_closed_form(router: &ImplicitRouter, g: &CsrGraph, name: &str) {
        let n = g.num_vertices() as u32;
        for cur in 0..n {
            for dst in 0..n {
                let closed = router.hop_and_slot(cur, dst);
                let searched = router
                    .next_hop(cur, dst, &NoLoad)
                    .map(|hop| (hop, g.slot_of(cur, hop).unwrap() as u32));
                assert_eq!(closed, searched, "{name}: {cur}→{dst}");
            }
        }
    }

    #[test]
    fn next_slot_falls_back_on_a_graph_in_another_order() {
        // Γ_8 with its ids reversed lists each node's neighbors in
        // another order than the streamed graph, so the closed-form
        // slot is often wrong there: wherever next_hop still names a
        // neighbor, next_slot must give slot_of's slot.
        let net = ImplicitFibonacciNet::classical(8);
        let n = net.len() as u32;
        let flip = |v: u32| n - 1 - v;
        let edges: Vec<(u32, u32)> = net
            .graph()
            .edges()
            .map(|(u, v)| (flip(u), flip(v)))
            .collect();
        let reversed = CsrGraph::from_edges(n as usize, &edges);
        let router = net.router();
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

    #[test]
    fn small_networks_still_tabulate_large_ones_refuse() {
        let small = ImplicitFibonacciNet::classical(10);
        let router = ImplicitRouter::canonical(small.table().clone());
        let table = router
            .precompute(small.graph())
            .expect("144 nodes tabulate fine");
        for cur in 0..small.len() as u32 {
            for dst in 0..small.len() as u32 {
                assert_eq!(
                    table.next_hop(small.graph(), cur, dst),
                    router.next_hop(cur, dst, &NoLoad)
                );
            }
        }
        // Γ_24 (121 393 nodes) would need a 58.9 GB table: precompute
        // must degrade to per-hop implicit routing, not allocate.
        let large = ImplicitFibonacciNet::classical(24);
        assert!(router_over_budget_refuses(&large));
    }

    fn router_over_budget_refuses(net: &ImplicitFibonacciNet) -> bool {
        let router = ImplicitRouter::canonical(net.table().clone());
        router.precompute(net.graph()).is_none()
    }

    #[test]
    fn adaptive_runs_on_implicit_addressing() {
        let net = ImplicitFibonacciNet::classical(7);
        let dense = FibonacciNet::classical(7);
        for v in 0..net.len() as u32 {
            assert_eq!(net.address(v), dense.label(v).bits());
        }
        let r = RouterSpec::Adaptive.resolve(&net).unwrap();
        assert_eq!(r.name(), "adaptive");
    }

    #[test]
    fn hypercube_identity_addressing_is_a_special_case() {
        // Sanity: the e-cube arm needs no codec because Q_d ids are
        // already the addresses.
        let q = Hypercube::new(6);
        let implicit = ImplicitRouter::ecube();
        for cur in 0..q.len() as u32 {
            assert_eq!(implicit.next_hop(cur, cur, &NoLoad), None);
        }
    }
}
