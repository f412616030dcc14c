//! Bench: the arena engine's hot paths in isolation, so regressions
//! show up in the artifact without rerunning the full sweep.
//!
//! * `route_lookup` — per-hop policy calls vs the dense [`NextHopTable`]
//!   (and the table's build cost, the other side of the precompute
//!   trade-off). The canonical router runs on Γ_12 twice: over the
//!   stored labels (`per_hop/Γ_12`) and over node ranks alone, unranking
//!   each address from the rank table (`per_hop/Γ_12 implicit`);
//! * `implicit` — `encode/codec` and `encode/table` unrank every rank of
//!   Γ_24 through `RankCodec`'s `d`-step scan and through the two-level
//!   `RankTable` that implicit routing uses;
//! * `link_queue` — link-FIFO enqueue/dequeue at shallow depth (the
//!   common case), past the ring stride on every link (`overflow`, the
//!   flit rings' spill/promote path) and on one hot link among 4 096
//!   shallow ones (`hotspot`, where spill state should cost only the
//!   queue that spills), for the store-and-forward engine's
//!   slab-threaded lists (`slab`), the flit engine's rings (`ring`) and
//!   the `VecDeque`-per-link layout the first engine used;
//! * `flit_engine` — one whole run of the flit-level wormhole engine
//!   (Γ_12, 2 000 uniform packets, 4 flits per packet, 2 VCs of 4-flit
//!   buffers), so a change to its forward scan or credit bookkeeping
//!   gets a timing without the end-to-end benchmark;
//! * `fault_state` — one whole store-and-forward run under a static
//!   fault mask (Γ_12, four dead nodes, 10 000 uniform packets, one
//!   lane), the masked admission and per-hop routing that no
//!   end-to-end benchmark workload runs;
//! * `dist` — the masked router's distances alone. `repair_events`
//!   replays a scripted sequence of node and link failures and
//!   recoveries on Γ_14 through `apply_event` on a router built without
//!   labels, and after each event the same 200 queries, so it times the
//!   exception rows over the dense healthy table that label-less
//!   topologies keep: each event's clear and the rows its queries
//!   rebuild. The script ends back at the intact network so every
//!   iteration repeats the same work. `static_mask` builds a
//!   labelled Γ_16 router around 8 dead nodes (`nodes(count=8)`, seed 1)
//!   and replays 4 000 queries the label certificate cannot answer, so
//!   it times the exception rows: the build, and each row's first fill.
//! * `pooled` — one whole store-and-forward Γ_16 run (20 000 uniform
//!   packets over 2 000 cycles) at two lanes through `Experiment::run`,
//!   so the lane barrier and the outbox exchange get a timing without
//!   the end-to-end benchmark;
//! * `topology_build` — building a Fibonacci-cube network: the dense
//!   `FibonacciNet` (labels plus the CSR graph streamed from the rank
//!   table) at Γ_16 and Γ_20, and `ImplicitFibonacciNet` at Γ_20 with
//!   its lazy graph forced, the same streamed build without labels.

use std::collections::VecDeque;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fibcube_network::arena::{LinkQueues, PacketSlab, SlabQueues, RING_STRIDE};
use fibcube_network::engine::{self, Admission, RunPlan, Workload};
use fibcube_network::fault::{ChurnEvent, ChurnTarget, FaultSet, FaultSpec};
use fibcube_network::router::{FaultMaskingRouter, NoLoad, Router};
use fibcube_network::{
    CanonicalRouter, EcubeRouter, Experiment, FibonacciNet, Hypercube, ImplicitFibonacciNet,
    NoopObserver, SwitchingSpec, Topology, TrafficSpec,
};
use fibcube_words::zeckendorf::{RankCodec, RankTable};

fn all_pairs_per_hop(t: &dyn Topology, r: &dyn Router) -> usize {
    let n = t.len() as u32;
    let mut hops = 0usize;
    for s in 0..n {
        for d in 0..n {
            let mut cur = s;
            while let Some(next) = r.next_hop(cur, d, &NoLoad) {
                cur = next;
                hops += 1;
            }
        }
    }
    hops
}

fn all_pairs_table(t: &dyn Topology, table: &fibcube_network::NextHopTable) -> usize {
    let g = t.graph();
    let n = t.len() as u32;
    let mut hops = 0usize;
    for s in 0..n {
        for d in 0..n {
            let mut cur = s;
            while let Some(e) = table.next_edge(cur, d) {
                cur = g.target(e);
                hops += 1;
            }
        }
    }
    hops
}

fn bench_route_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("route_lookup");
    group.sample_size(10);
    let gamma = FibonacciNet::classical(12); // 377 nodes
    let canonical = CanonicalRouter::for_net(&gamma);
    let q = Hypercube::new(7); // 128 nodes
    for (topo, router) in [
        (&gamma as &dyn Topology, &canonical as &dyn Router),
        (&q, &EcubeRouter),
    ] {
        let table = router
            .precompute(topo.graph())
            .expect("deterministic policies tabulate");
        let expected = all_pairs_per_hop(topo, router);
        assert_eq!(all_pairs_table(topo, &table), expected);
        group.bench_function(BenchmarkId::new("per_hop", topo.name()), |b| {
            b.iter(|| assert_eq!(all_pairs_per_hop(topo, router), expected))
        });
        group.bench_function(BenchmarkId::new("table", topo.name()), |b| {
            b.iter(|| assert_eq!(all_pairs_table(topo, &table), expected))
        });
        group.bench_function(BenchmarkId::new("table_build", topo.name()), |b| {
            b.iter(|| std::hint::black_box(router.precompute(topo.graph())))
        });
    }
    let implicit = ImplicitFibonacciNet::classical(12);
    let ranks = CanonicalRouter::on_ranks(implicit.table().clone());
    let expected = all_pairs_per_hop(&gamma, &canonical);
    assert_eq!(all_pairs_per_hop(&implicit, &ranks), expected);
    group.bench_function(BenchmarkId::new("per_hop", "Γ_12 implicit"), |b| {
        b.iter(|| assert_eq!(all_pairs_per_hop(&implicit, &ranks), expected))
    });
    group.finish();
}

/// Unranks every rank of Γ_24 (121 393 nodes) through `encode` and
/// folds the words into a checksum, so the loop cannot be optimised
/// away.
fn unrank_all(total: u64, encode: impl Fn(u64) -> Option<u64>) -> u64 {
    (0..total).fold(0, |acc, r| {
        acc.rotate_left(1) ^ encode(r).expect("rank in range")
    })
}

fn bench_implicit_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("implicit");
    group.sample_size(10);
    let codec = RankCodec::new(2, 24);
    let table = RankTable::new(codec.clone());
    let total = codec.total();
    let expected = unrank_all(total, |r| codec.encode(r));
    assert_eq!(unrank_all(total, |r| table.encode(r)), expected);
    group.bench_function(BenchmarkId::new("encode", "codec"), |b| {
        b.iter(|| assert_eq!(unrank_all(total, |r| codec.encode(r)), expected))
    });
    group.bench_function(BenchmarkId::new("encode", "table"), |b| {
        b.iter(|| assert_eq!(unrank_all(total, |r| table.encode(r)), expected))
    });
    group.finish();
}

/// Work a push/pop pattern across `depths.len()` links, link `e` filled
/// to `depths[e]` each round, for `rounds` rounds; returns a checksum so
/// the loop cannot be optimised away. The queues are built inside, so
/// spill-store set-up counts too.
fn ring_pattern(depths: &[usize], rounds: usize) -> u64 {
    let mut queues = LinkQueues::<u32>::new(depths.len());
    let mut sum = 0u64;
    let mut id = 0u32;
    for _ in 0..rounds {
        for (e, &depth) in depths.iter().enumerate() {
            for _ in 0..depth {
                queues.push(e, id);
                id = id.wrapping_add(1);
            }
        }
        for e in 0..depths.len() {
            while let Some(popped) = queues.pop(e) {
                sum = sum.wrapping_add(popped as u64);
            }
        }
    }
    sum
}

/// The same pattern on lists threaded through a packet slab. The
/// engine allocates and releases a slab entry per hop whatever its
/// FIFOs, so the round's packets are allocated once, in `slab` (ids
/// `0..`, in push order), and only the list operations are timed.
fn slab_pattern(depths: &[usize], rounds: usize, slab: &mut PacketSlab) -> u64 {
    let total: usize = depths.iter().sum();
    assert!(slab.live() >= total, "one slab entry per packet of a round");
    let mut queues = SlabQueues::new(depths.len());
    let mut sum = 0u64;
    let mut base = 0u32;
    for _ in 0..rounds {
        let mut id = 0u32;
        for (e, &depth) in depths.iter().enumerate() {
            for _ in 0..depth {
                queues.push(e, id, slab);
                id += 1;
            }
        }
        for e in 0..depths.len() {
            while let Some(popped) = queues.pop(e, slab) {
                sum = sum.wrapping_add(base.wrapping_add(popped) as u64);
            }
        }
        base = base.wrapping_add(id);
    }
    sum
}

/// The same pattern on the first engine's layout: one `VecDeque` per link.
fn vecdeque_pattern(depths: &[usize], rounds: usize) -> u64 {
    let mut queues: Vec<VecDeque<u32>> = vec![VecDeque::new(); depths.len()];
    let mut sum = 0u64;
    let mut id = 0u32;
    for _ in 0..rounds {
        for (q, &depth) in queues.iter_mut().zip(depths) {
            for _ in 0..depth {
                q.push_back(id);
                id = id.wrapping_add(1);
            }
        }
        for q in queues.iter_mut() {
            while let Some(popped) = q.pop_front() {
                sum = sum.wrapping_add(popped as u64);
            }
        }
    }
    sum
}

fn bench_link_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("link_queue");
    group.sample_size(10);
    const LINKS: usize = 4096;
    const ROUNDS: usize = 32;
    // Shallow: everything stays inside the ring. Overflow: 4× the
    // stride, so every link exercises the spill/promote path. Hotspot:
    // one link runs 16× the stride deep while the rest hold one packet,
    // the saturated large-network pattern where only a few queues ever
    // spill. The slab-threaded lists have no stride: every depth takes
    // the same path.
    let mut hotspot = vec![1; LINKS];
    hotspot[LINKS / 2] = RING_STRIDE * 16;
    for (label, depths) in [
        ("shallow", vec![RING_STRIDE / 2; LINKS]),
        ("overflow", vec![RING_STRIDE * 4; LINKS]),
        ("hotspot", hotspot),
    ] {
        let expected = ring_pattern(&depths, ROUNDS);
        assert_eq!(vecdeque_pattern(&depths, ROUNDS), expected);
        let mut slab = PacketSlab::new();
        for id in 0..depths.iter().sum::<usize>() as u32 {
            slab.alloc(id, 0);
        }
        assert_eq!(slab_pattern(&depths, ROUNDS, &mut slab), expected);
        group.bench_function(BenchmarkId::new("slab", label), |b| {
            b.iter(|| assert_eq!(slab_pattern(&depths, ROUNDS, &mut slab), expected))
        });
        group.bench_function(BenchmarkId::new("ring", label), |b| {
            b.iter(|| assert_eq!(ring_pattern(&depths, ROUNDS), expected))
        });
        group.bench_function(BenchmarkId::new("vecdeque", label), |b| {
            b.iter(|| assert_eq!(vecdeque_pattern(&depths, ROUNDS), expected))
        });
    }
    group.finish();
}

fn bench_flit_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("flit_engine");
    group.sample_size(10);
    let gamma = FibonacciNet::classical(12);
    let router = CanonicalRouter::for_net(&gamma);
    let pkts = TrafficSpec::Uniform {
        count: 2_000,
        window: 2_000,
    }
    .generate(gamma.len(), 1);
    let plan = RunPlan::new(&gamma, &router, Workload::Open(&pkts), 1_000_000).switching(
        SwitchingSpec::Wormhole {
            flit_size: 4,
            vcs: 2,
            buf_flits: 4,
        },
    );
    group.bench_function(BenchmarkId::new("wormhole_uniform", gamma.name()), |b| {
        b.iter(|| {
            let s = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
            assert_eq!(s.delivered, s.offered);
            std::hint::black_box(s.total_hops)
        })
    });
    group.finish();
}

fn bench_fault_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_state");
    group.sample_size(10);
    let gamma = FibonacciNet::classical(12);
    let router = CanonicalRouter::for_net(&gamma);
    let mask =
        FaultMaskingRouter::for_topology(&gamma, &router, &FaultSet::new([5, 77, 160, 301], []));
    // Half the canonical router's Γ_12 saturation rate (≈ 0.027 packets
    // per node per cycle).
    let pkts = TrafficSpec::Uniform {
        count: 10_000,
        window: 2_000,
    }
    .generate(gamma.len(), 1);
    let plan = RunPlan::new(&gamma, &router, Workload::Open(&pkts), 1_000_000)
        .admission(Admission::Static(&mask));
    group.bench_function(BenchmarkId::new("static_mask_uniform", gamma.name()), |b| {
        b.iter(|| {
            let s = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
            assert!(s.dropped_dead_endpoint > 0);
            assert_eq!(
                s.delivered + s.dropped_dead_endpoint + s.dropped_unreachable,
                s.offered
            );
            std::hint::black_box(s.total_hops)
        })
    });
    group.finish();
}

/// Distinct-endpoint `(cur, dst)` pairs over `n` nodes from a fixed
/// linear congruential sequence.
fn lcg_pairs(n: u64) -> impl Iterator<Item = (u32, u32)> {
    let mut state = 1u64;
    std::iter::repeat_with(move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((state >> 33) % n, (state >> 12) % n)
    })
    .filter(|&(cur, dst)| cur != dst)
    .map(|(cur, dst)| (cur as u32, dst as u32))
}

fn bench_dist_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("dist");
    group.sample_size(10);
    let gamma = FibonacciNet::classical(14);
    let router = CanonicalRouter::for_net(&gamma);
    let g = gamma.graph();
    let mut mask = FaultMaskingRouter::new(g, &router, &FaultSet::empty());
    let link = |k: usize| {
        let (u, v) = g.edges().nth(k).expect("Γ_14 has this many links");
        ChurnTarget::Link(u, v)
    };
    let event = |target, failed| ChurnEvent {
        cycle: 0,
        target,
        failed,
    };
    // Interleaved failures, then recoveries in another order; the net
    // effect is no fault at all.
    let (a, b) = (link(40), link(700));
    let (x, y) = (ChurnTarget::Node(77), ChurnTarget::Node(301));
    let script = [
        event(a, true),
        event(x, true),
        event(b, true),
        event(y, true),
        event(x, false),
        event(a, false),
        event(y, false),
        event(b, false),
    ];
    let queries = lcg_pairs(gamma.len() as u64).take(200).collect::<Vec<_>>();
    group.bench_function(BenchmarkId::new("repair_events", gamma.name()), |bench| {
        bench.iter(|| {
            let mut hops = 0u64;
            for ev in &script {
                mask.apply_event(ev);
                for &(cur, dst) in &queries {
                    if mask.reachable(cur, dst) {
                        hops += u64::from(mask.next_hop(cur, dst, &NoLoad).unwrap());
                    }
                }
            }
            assert!(mask.node_alive(77) && mask.node_alive(301));
            std::hint::black_box(hops)
        })
    });

    let gamma = FibonacciNet::classical(16);
    let router = CanonicalRouter::for_net(&gamma);
    let g = gamma.graph();
    let faults = FaultSpec::Nodes { count: 8 }.sample(g, 1).unwrap();
    // Pairs with a dead node on one of their shortest paths: node `w`
    // lies in the `cur → dst` interval iff its label agrees with `cur`'s
    // wherever `cur`'s and `dst`'s agree.
    let labels = gamma.cube_labels().unwrap();
    let dead: Vec<u64> = faults
        .failed_nodes()
        .iter()
        .map(|&x| labels[x as usize])
        .collect();
    let uncertified: Vec<(u32, u32)> = lcg_pairs(gamma.len() as u64)
        .filter(|&(cur, dst)| {
            let (lc, ld) = (labels[cur as usize], labels[dst as usize]);
            dead.iter().any(|&w| (w ^ lc) & !(lc ^ ld) == 0)
        })
        .take(4_000)
        .collect();
    group.bench_function(BenchmarkId::new("static_mask", gamma.name()), |bench| {
        bench.iter(|| {
            let mask = FaultMaskingRouter::for_topology(&gamma, &router, &faults);
            let mut hops = 0u64;
            for &(cur, dst) in &uncertified {
                if mask.reachable(cur, dst) {
                    hops += u64::from(mask.next_hop(cur, dst, &NoLoad).unwrap());
                }
            }
            std::hint::black_box(hops)
        })
    });
    group.finish();
}

fn bench_pooled(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooled");
    group.sample_size(10);
    let gamma = FibonacciNet::classical(16);
    let traffic = TrafficSpec::Uniform {
        count: 20_000,
        window: 2_000,
    };
    group.bench_function(BenchmarkId::new("uniform_2_lanes", gamma.name()), |b| {
        b.iter(|| {
            let report = Experiment::on(&gamma)
                .traffic(traffic.clone())
                .threads(2)
                .run()
                .unwrap();
            assert_eq!(report.stats.delivered, report.stats.offered);
            std::hint::black_box(report.stats.total_hops)
        })
    });
    group.finish();
}

fn bench_topology_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_build");
    group.sample_size(20);
    for d in [16, 20] {
        let edges = FibonacciNet::classical(d).graph().num_directed_edges();
        group.bench_function(BenchmarkId::new("dense", format!("Γ_{d}")), |b| {
            b.iter(|| {
                let net = FibonacciNet::classical(d);
                assert_eq!(net.graph().num_directed_edges(), edges);
                std::hint::black_box(net.len())
            })
        });
    }
    let edges = FibonacciNet::classical(20).graph().num_directed_edges();
    group.bench_function(BenchmarkId::new("implicit", "Γ_20"), |b| {
        b.iter(|| {
            let net = ImplicitFibonacciNet::classical(20);
            assert_eq!(net.graph().num_directed_edges(), edges);
            std::hint::black_box(net.len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_route_lookup,
    bench_implicit_encode,
    bench_link_queue,
    bench_flit_engine,
    bench_fault_state,
    bench_dist_repair,
    bench_pooled,
    bench_topology_build
);
criterion_main!(benches);
