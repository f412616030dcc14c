//! Implicit (table-free) addressing and lazy topologies for million-node
//! networks.
//!
//! Every dense structure the small-scale path leans on — the per-node
//! label vector, the `O(n²)` [`NextHopTable`](crate::router::NextHopTable)
//! — is redundant on
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
//! reads: take the leftmost `1 → 0` correction if any (`c & !t`), else
//! the leftmost `0 → 1` (`t & !c`), and return `cur ∓ W(j)` for the
//! flipped position `j`. Every intermediate stays `1^k`-free (the
//! proposition's argument), so the arithmetic never leaves the id range.
//! The hop's output slot is closed-form too: the graph lists the
//! `1 → 0` flips from the highest position down, then the valid
//! `0 → 1` flips from the lowest up, so bit `j`'s slot is a popcount.
//! [`CanonicalRouter`] implements that rule for both Fibonacci networks;
//! here it unranks `cur` and `dst` from the table (rule 1) where the
//! dense [`FibonacciNet`] lends it the stored labels.
//!
//! [`ImplicitFibonacciNet`] is the matching [`Topology`]: no label
//! vector, a CSR link graph *streamed* two-pass from the table (exactly
//! equal to the automaton-built graph of [`FibonacciNet`], but with no
//! per-node allocations and no hashing), built lazily on first use.
//!
//! # Dense vs implicit
//!
//! | structure | dense path | implicit path |
//! |---|---|---|
//! | node labels | `Vec<Word>`, 16 B/node | unranked on demand, 0 B |
//! | next-hop precompute | `4n²` B table | refused over budget, `O(1)`/hop |
//! | graph build | automaton + `Vec<Vec>` staging | two-pass streamed CSR |
//!
//! The CSR graph itself (≈ `4(n + 2m)` bytes) is still materialised —
//! the store-and-forward engine needs real per-link queues — so the
//! engine's memory is `O(n + m)`, with *routing state* at `O(√n)`.
//!
//! [`FibonacciNet`]: crate::topology::FibonacciNet

use std::sync::{Arc, OnceLock};

use fibcube_graph::csr::CsrGraph;
use fibcube_words::word::Word;
use fibcube_words::zeckendorf::{RankCodec, RankTable};

use crate::router::{
    AdaptiveMinimal, CanonicalRouter, HammingAddressed, NextHopRouter, NoLoad, Router, RouterSpec,
};
use crate::topology::Topology;

/// The rank table of `Q_d(1^k)`, refusing node counts past `u32` ids
/// before it allocates.
pub(crate) fn rank_table(d: usize, k: usize) -> RankTable {
    let codec = RankCodec::new(k, d);
    let total = codec.total();
    assert!(
        total < u32::MAX as u64,
        "Q_{d}(1^{k}) has {total} nodes, too many for u32 ids"
    );
    RankTable::new(codec)
}

/// `Q_d(1^k)` with implicit Zeckendorf addressing: node labels are
/// unranked on demand instead of stored, the canonical router routes on
/// ranks over one shared `O(√n)` [`RankTable`], and the CSR link graph
/// is streamed two-pass from the table on first use. Produces
/// bit-identical graphs, routes, and simulation reports to
/// [`FibonacciNet`](crate::topology::FibonacciNet) — at a memory/build
/// cost that scales to millions of nodes.
#[derive(Clone, Debug)]
pub struct ImplicitFibonacciNet {
    d: usize,
    k: usize,
    n: usize,
    /// The canonical router on ranks; it holds the network's table.
    router: CanonicalRouter,
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
            router: CanonicalRouter::on_ranks(Arc::new(table)),
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
        self.table().codec()
    }

    /// The rank table addressing this network, shared with every router
    /// it resolves.
    pub fn table(&self) -> &Arc<RankTable> {
        self.router.table()
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
        self.table().state_bytes()
    }

    /// Streams the CSR graph from the table: one degree-counting pass,
    /// one fill pass, no per-node allocation, no hashing, no automaton.
    /// Neighbor ids come from the `±W(j)` rank arithmetic; emitting
    /// 1→0 flips from the highest position down and then 0→1 flips from
    /// the lowest up yields each adjacency list already sorted.
    fn build_graph(&self) -> CsrGraph {
        let n = self.n;
        let table = &**self.table();
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
        self.router.next_hop(cur, dst, &NoLoad)
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
        Box::new(self.router.clone())
    }

    fn resolve_router(&self, spec: RouterSpec) -> Option<Box<dyn Router + Send + Sync + '_>> {
        match spec {
            RouterSpec::Preferred | RouterSpec::Canonical => Some(self.router()),
            RouterSpec::Builtin => Some(Box::new(NextHopRouter::new(self))),
            RouterSpec::Adaptive => Some(Box::new(AdaptiveMinimal::new(self))),
            RouterSpec::Ecube => None,
        }
    }
}

impl HammingAddressed for ImplicitFibonacciNet {
    fn address(&self, v: u32) -> u64 {
        self.table()
            .encode(v as u64)
            .expect("node id within the network")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FibonacciNet;

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
        // Resolution yields the canonical router under its policy name.
        let r = RouterSpec::Preferred.resolve(&small).unwrap();
        assert_eq!(r.name(), "canonical");
        assert!(RouterSpec::Ecube.resolve(&small).is_err());
    }

    #[test]
    fn small_networks_still_tabulate_large_ones_refuse() {
        let small = ImplicitFibonacciNet::classical(10);
        let router = small.router();
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
        // must degrade to per-hop routing, not allocate.
        let large = ImplicitFibonacciNet::classical(24);
        assert!(large.router().precompute(large.graph()).is_none());
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
}
