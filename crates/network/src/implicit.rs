//! Implicit (table-free) routing and lazy topologies for million-node
//! networks.
//!
//! Every dense structure the small-scale path leans on — the per-node
//! label vector, the `node × position` flip table of
//! [`CanonicalRouter`](crate::router::CanonicalRouter), the `O(n²)`
//! [`NextHopTable`] — is redundant on
//! `Q_d(1^k)`: the Zeckendorf addressing scheme makes *node ids
//! arithmetic*. This module exploits that to route and build at Γ_30
//! scale (2.2M nodes) with `O(d)` routing state.
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
//! words that put a `0` there. Three consequences, each `O(d)` time and
//! `O(1)` space beyond the `d + 1` cached weights
//! ([`RankCodec`]):
//!
//! 1. **Unrank** (`id → address bits`): greedy scan over the weights.
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
//! leaves the id range.
//!
//! [`ImplicitRouter`] packages rules 1–3 behind the [`Router`] trait
//! (names itself `"canonical"`/`"e-cube"`, so reports are
//! indistinguishable from the dense routers it replaces), and
//! [`ImplicitFibonacciNet`] is the matching [`Topology`]: no label
//! vector, a CSR link graph *streamed* two-pass from the codec (exactly
//! equal to the automaton-built graph of
//! [`FibonacciNet`](crate::topology::FibonacciNet), but with no
//! per-node allocations and no hashing), built lazily on first use.
//!
//! # Dense vs implicit
//!
//! | structure | dense path | implicit path |
//! |---|---|---|
//! | node labels | `Vec<Word>`, 16 B/node | unranked on demand, 0 B |
//! | canonical router | flip table, `4·n·d` B | `8(d+1)` B total |
//! | next-hop precompute | `4n²` B table | refused over budget, `O(d)`/hop |
//! | graph build | automaton + `Vec<Vec>` staging | two-pass streamed CSR |
//!
//! The CSR graph itself (≈ `4(n + 2m)` bytes) is still materialised —
//! the store-and-forward engine needs real per-link queues — so the
//! engine's memory is `O(n + m)`, with *routing state* at `O(d)`.

use std::sync::OnceLock;

use fibcube_graph::csr::CsrGraph;
use fibcube_words::word::Word;
use fibcube_words::zeckendorf::RankCodec;

use crate::router::{
    AdaptiveMinimal, EcubeRouter, HammingAddressed, LinkLoad, NextHopRouter, NextHopTable, Router,
    RouterSpec,
};
use crate::topology::Topology;

/// Table-free routing from Zeckendorf address arithmetic: `O(d)` time
/// and `O(1)` space per lookup, `O(d)` total state. See the
/// [module docs](self) for the derivation.
///
/// The router intentionally reuses the dense policies' display names —
/// `"canonical"` / `"e-cube"` — because it computes *identical* hops;
/// swapping implementations must not change a
/// [`Report`](crate::report::Report).
#[derive(Clone, Debug)]
pub enum ImplicitRouter {
    /// Canonical-path routing on `Q_d(1^k)` node ranks.
    Canonical(RankCodec),
    /// Dimension-ordered routing on hypercube node ids (rank = address:
    /// the codec is the identity, so no weights are needed at all).
    Ecube,
}

impl ImplicitRouter {
    /// Canonical-path routing over the given rank codec.
    pub fn canonical(codec: RankCodec) -> ImplicitRouter {
        ImplicitRouter::Canonical(codec)
    }

    /// Canonical-path routing on `Q_d(1^k)` by dimensions.
    pub fn for_cube(d: usize, k: usize) -> ImplicitRouter {
        ImplicitRouter::Canonical(RankCodec::new(k, d))
    }

    /// E-cube routing on hypercube ids.
    pub fn ecube() -> ImplicitRouter {
        ImplicitRouter::Ecube
    }

    /// Heap bytes of routing state — the whole memory cost of the
    /// policy, independent of node count (`8(d+1)` canonical, 0 e-cube).
    pub fn state_bytes(&self) -> usize {
        match self {
            ImplicitRouter::Canonical(codec) => codec.state_bytes(),
            ImplicitRouter::Ecube => 0,
        }
    }

    /// The canonical-path hop on ranks, shared with
    /// [`ImplicitFibonacciNet::next_hop`].
    #[inline]
    fn canonical_hop(codec: &RankCodec, cur: u32, dst: u32) -> Option<u32> {
        if cur == dst {
            return None;
        }
        let c = codec
            .encode(cur as u64)
            .expect("current node id within the network");
        let t = codec
            .encode(dst as u64)
            .expect("destination node id within the network");
        // Leftmost 1→0 correction first, else leftmost 0→1; leftmost
        // position = highest u64 bit (b₁ lives at bit d−1).
        let down = c & !t;
        let j = if down != 0 {
            (63 - down.leading_zeros()) as usize
        } else {
            (63 - (t & !c).leading_zeros()) as usize
        };
        // Prop 3.1: the flip stays 1^k-free, so the rank moves by ±W(j).
        Some(if down != 0 {
            cur - codec.weight(j) as u32
        } else {
            cur + codec.weight(j) as u32
        })
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
            ImplicitRouter::Canonical(codec) => ImplicitRouter::canonical_hop(codec, cur, dst),
            ImplicitRouter::Ecube => EcubeRouter::hop(cur, dst),
        }
    }

    fn precompute(&self, graph: &CsrGraph) -> Option<NextHopTable> {
        // Small networks may still tabulate (the table beats O(d)
        // arithmetic per hop); over the byte budget the build refuses
        // and the engine transparently stays on implicit per-hop routing.
        NextHopTable::build(graph, |cur, dst| {
            self.next_hop(cur, dst, &crate::router::NoLoad)
        })
        .ok()
    }
}

/// `Q_d(1^k)` with implicit Zeckendorf addressing: node labels are
/// unranked on demand instead of stored, the canonical router carries
/// `O(d)` state, and the CSR link graph is streamed two-pass from the
/// codec on first use. Produces bit-identical graphs, routes, and
/// simulation reports to [`FibonacciNet`](crate::topology::FibonacciNet)
/// — at a memory/build cost that scales to millions of nodes.
#[derive(Clone, Debug)]
pub struct ImplicitFibonacciNet {
    d: usize,
    k: usize,
    n: usize,
    codec: RankCodec,
    graph: OnceLock<CsrGraph>,
}

impl ImplicitFibonacciNet {
    /// Builds `Q_d(1^k)` implicitly; `k = 2` is the classical `Γ_d`.
    /// Construction is `O(d)` — the link graph is not materialised until
    /// first [`graph()`](Topology::graph) use.
    ///
    /// # Panics
    ///
    /// Panics when `k < 2` or the node count overflows `u32` ids (for
    /// `k = 2` that is `d > 45`).
    pub fn new(d: usize, k: usize) -> ImplicitFibonacciNet {
        let codec = RankCodec::new(k, d);
        let total = codec.total();
        assert!(
            total < u32::MAX as u64,
            "Q_{d}(1^{k}) has {total} nodes, too many for u32 ids"
        );
        ImplicitFibonacciNet {
            d,
            k,
            n: total as usize,
            codec,
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
        &self.codec
    }

    /// Address of node `i`, unranked on demand (`O(d)`).
    pub fn label(&self, i: u32) -> Word {
        self.codec
            .encode_word(i as u64)
            .expect("node id within the network")
    }

    /// Node id of an address (`O(d)`), or `None` when `w` is not a valid
    /// `1^k`-free word of length `d`.
    pub fn node_of(&self, w: &Word) -> Option<u32> {
        if w.len() != self.d {
            return None;
        }
        self.codec.decode(w.bits()).map(|r| r as u32)
    }

    /// `true` once the link graph has been materialised.
    pub fn graph_built(&self) -> bool {
        self.graph.get().is_some()
    }

    /// Heap bytes of the routing state (the codec weights) — the
    /// `≤ 64 bytes/node` budget of the scale benchmarks measures this,
    /// not the `O(n + m)` link graph the store-and-forward engine
    /// inherently needs.
    pub fn routing_state_bytes(&self) -> usize {
        self.codec.state_bytes()
    }

    /// Streams the CSR graph from the codec: one degree-counting pass,
    /// one fill pass, no per-node allocation, no hashing, no automaton.
    /// Neighbor ids come from the `±W(j)` rank arithmetic; emitting
    /// 1→0 flips from the highest position down and then 0→1 flips from
    /// the lowest up yields each adjacency list already sorted.
    fn build_graph(&self) -> CsrGraph {
        let n = self.n;
        let d = self.d;
        let codec = &self.codec;
        let mut offsets = vec![0u32; n + 1];
        for r in 0..n {
            let bits = codec.encode(r as u64).expect("rank in range");
            let mut deg = bits.count_ones();
            for j in 0..d {
                if bits & (1 << j) == 0 && codec.is_free(bits | (1 << j)) {
                    deg += 1;
                }
            }
            offsets[r + 1] = offsets[r]
                .checked_add(deg)
                .expect("directed edge count fits u32 offsets");
        }
        let mut targets = vec![0u32; offsets[n] as usize];
        for r in 0..n {
            let bits = codec.encode(r as u64).expect("rank in range");
            let mut idx = offsets[r] as usize;
            // 1→0 flips: higher positions shed bigger weights, so the
            // resulting ranks ascend as the position descends.
            let mut down = bits;
            while down != 0 {
                let j = 63 - down.leading_zeros();
                targets[idx] = r as u32 - codec.weight(j as usize) as u32;
                idx += 1;
                down ^= 1 << j;
            }
            // 0→1 flips: ranks ascend with the position.
            for j in 0..d {
                if bits & (1 << j) == 0 && codec.is_free(bits | (1 << j)) {
                    targets[idx] = r as u32 + codec.weight(j) as u32;
                    idx += 1;
                }
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
        ImplicitRouter::canonical_hop(&self.codec, cur, dst)
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
        Box::new(ImplicitRouter::canonical(self.codec.clone()))
    }

    fn resolve_router(&self, spec: RouterSpec) -> Option<Box<dyn Router + Send + Sync + '_>> {
        match spec {
            RouterSpec::Preferred | RouterSpec::Canonical => {
                Some(Box::new(ImplicitRouter::canonical(self.codec.clone())))
            }
            RouterSpec::Builtin => Some(Box::new(NextHopRouter::new(self))),
            RouterSpec::Adaptive => Some(Box::new(AdaptiveMinimal::new(self))),
            RouterSpec::Ecube => None,
        }
    }
}

impl HammingAddressed for ImplicitFibonacciNet {
    fn address(&self, v: u32) -> u64 {
        self.codec
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
    fn routing_state_is_constant_in_n() {
        let small = ImplicitFibonacciNet::classical(8);
        let large = ImplicitFibonacciNet::classical(24);
        assert_eq!(small.routing_state_bytes(), 9 * 8);
        assert_eq!(large.routing_state_bytes(), 25 * 8);
        assert!(large.routing_state_bytes() < 64 * large.len());
        // Resolution yields the implicit router under its policy name.
        let r = RouterSpec::Preferred.resolve(&small).unwrap();
        assert_eq!(r.name(), "canonical");
        assert!(RouterSpec::Ecube.resolve(&small).is_err());
    }

    #[test]
    fn small_networks_still_tabulate_large_ones_refuse() {
        let small = ImplicitFibonacciNet::classical(10);
        let router = ImplicitRouter::canonical(small.codec().clone());
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
        // Γ_24 (75 025 nodes) would need a 22.5 GB table: precompute
        // must degrade to per-hop implicit routing, not allocate.
        let large = ImplicitFibonacciNet::classical(24);
        assert!(router_over_budget_refuses(&large));
    }

    fn router_over_budget_refuses(net: &ImplicitFibonacciNet) -> bool {
        let router = ImplicitRouter::canonical(net.codec().clone());
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
