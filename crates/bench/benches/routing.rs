//! Bench: distributed route computation (experiment E-N2) — the split-out
//! routers (canonical-path by rank arithmetic, e-cube, adaptive minimal)
//! against the seed's scan-per-hop `Topology::next_hop` rules. Routers
//! are built through `RouterSpec::resolve`, the same path `Experiment`
//! takes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fibcube_network::router::{NoLoad, Router, RouterSpec};
use fibcube_network::{FibonacciNet, Hypercube, Ring, Topology};

fn all_pairs_routes(t: &dyn Topology) -> usize {
    let n = t.len() as u32;
    let mut hops = 0usize;
    for s in 0..n {
        for d in 0..n {
            hops += t.route(s, d).expect("routing converges").len() - 1;
        }
    }
    hops
}

fn all_pairs_router_hops(t: &dyn Topology, r: &dyn Router) -> usize {
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

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_all_pairs");
    group.sample_size(10);
    let gamma = FibonacciNet::classical(10); // 144 nodes
    let q = Hypercube::new(7); // 128 nodes
    let ring = Ring::new(144);
    group.bench_function(BenchmarkId::new("fibonacci", gamma.name()), |b| {
        b.iter(|| std::hint::black_box(all_pairs_routes(&gamma)))
    });
    group.bench_function(BenchmarkId::new("hypercube", q.name()), |b| {
        b.iter(|| std::hint::black_box(all_pairs_routes(&q)))
    });
    group.bench_function(BenchmarkId::new("ring", ring.name()), |b| {
        b.iter(|| std::hint::black_box(all_pairs_routes(&ring)))
    });
    group.finish();
}

fn bench_routers(c: &mut Criterion) {
    let mut group = c.benchmark_group("router_policies");
    group.sample_size(10);
    let gamma = FibonacciNet::classical(12); // 377 nodes
    let canonical = RouterSpec::Canonical
        .resolve(&gamma)
        .expect("canonical routing on Γ_12");
    let expected = all_pairs_router_hops(&gamma, &*canonical);
    group.bench_function(BenchmarkId::new("canonical_table", gamma.name()), |b| {
        b.iter(|| {
            assert_eq!(all_pairs_router_hops(&gamma, &*canonical), expected);
        })
    });
    group.bench_function(BenchmarkId::new("canonical_scan", gamma.name()), |b| {
        // The seed's per-hop label scan + binary search, via next_hop.
        b.iter(|| std::hint::black_box(all_pairs_routes(&gamma)))
    });
    group.bench_function(BenchmarkId::new("adaptive", gamma.name()), |b| {
        let adaptive = RouterSpec::Adaptive
            .resolve(&gamma)
            .expect("Γ_12 is Hamming-addressed");
        b.iter(|| {
            assert_eq!(all_pairs_router_hops(&gamma, &*adaptive), expected);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_routing, bench_routers);
criterion_main!(benches);
