//! Property-based tests for the routing/simulation engine: every router is
//! progressive (each hop strictly decreases BFS distance), the simulator
//! conserves packets (`delivered ≤ offered`, per-packet latency bounded
//! below by graph distance) across topology families, and degraded runs
//! never deliver more than the static reachability of their fault set
//! allows.

use fibcube_graph::bfs::bfs_distances;
use fibcube_network::broadcast::{broadcast_all_port, broadcast_one_port, verify_schedule};
use fibcube_network::engine::{
    self, simulate_faulted_reference, simulate_reference, Admission, RequestReplyLoad, RunPlan,
    Workload,
};
use fibcube_network::fault::{
    fault_set_trial, ChurnEvent, ChurnTarget, ChurnTimeline, FaultSet, FaultSpec,
};
use fibcube_network::observer::{LatencyHistogram, LinkHeatmap, SloTracker};
use fibcube_network::observer::{NoopObserver, SimObserver};
use fibcube_network::router::{
    AdaptiveMinimal, CanonicalRouter, EcubeRouter, FaultMaskingRouter, LinkLoad, NextHopRouter,
    NoLoad, Router,
};
use fibcube_network::switching::{SwitchingSpec, PACKET_LENGTH_UNITS};
use fibcube_network::topology::{FibonacciNet, Hypercube, Mesh, Ring, Topology};
use fibcube_network::traffic::{Packet, TrafficSpec};
use fibcube_network::{
    CollectiveSpec, CopyPlan, DistanceTable, Experiment, ImplicitFibonacciNet, Port, RouterSpec,
};
use proptest::prelude::*;

fn uniform(n: usize, count: usize, window: u64, seed: u64) -> Vec<Packet> {
    TrafficSpec::Uniform { count, window }.generate(n, seed)
}

/// Walk `router` from every source toward `dst`, asserting strict distance
/// decrease at each hop (the progressivity property routing correctness
/// and simulator termination both rest on).
fn assert_progressive(topo: &dyn Topology, router: &dyn Router, dst: u32) {
    let g = topo.graph();
    let dist = bfs_distances(g, dst);
    for src in 0..topo.len() as u32 {
        let mut cur = src;
        let mut hops = 0usize;
        while let Some(hop) = router.next_hop(cur, dst, &NoLoad) {
            assert!(
                g.has_edge(cur, hop),
                "{}: {cur}→{hop} is not a link",
                router.name()
            );
            assert_eq!(
                dist[hop as usize] + 1,
                dist[cur as usize],
                "{} on {}: hop {cur}→{hop} toward {dst} does not decrease distance",
                router.name(),
                topo.name()
            );
            cur = hop;
            hops += 1;
            assert!(hops <= topo.len(), "runaway route");
        }
        assert_eq!(cur, dst, "route must terminate at the destination");
        assert_eq!(hops as u32, dist[src as usize], "progressive ⇒ shortest");
    }
}

/// Conservation invariants of one simulation run: nothing is created,
/// nothing delivered faster than the shortest path allows.
fn assert_conservation(topo: &dyn Topology, packets: &[Packet], max_cycles: u64) {
    let stats = engine::run(
        &RunPlan::new(topo, &*topo.router(), Workload::Open(packets), max_cycles),
        1,
        &mut NoopObserver,
    )
    .unwrap()
    .stats;
    assert_eq!(stats.offered, packets.len());
    assert!(stats.delivered <= stats.offered, "{}", topo.name());
    let hist_total: u64 = stats.latency_histogram.iter().sum();
    assert_eq!(
        hist_total as usize, stats.delivered,
        "histogram counts deliveries"
    );
    // Latency floor: every delivered packet took at least distance cycles,
    // so the *minimum* histogram latency is ≥ the packet set's minimum
    // distance and the mean is ≥ the mean distance of delivered packets
    // when everything was delivered.
    if stats.delivered == stats.offered && !packets.is_empty() {
        let mut dist_sum = 0u64;
        for p in packets {
            let d = bfs_distances(topo.graph(), p.src)[p.dst as usize] as u64;
            dist_sum += d;
        }
        let mean_dist = dist_sum as f64 / packets.len() as f64;
        assert!(
            stats.mean_latency + 1e-9 >= mean_dist,
            "{}: mean latency {} below mean distance {mean_dist}",
            topo.name(),
            stats.mean_latency
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fibonacci_routers_progressive(d in 2usize..=8, k in 2usize..=3, dst_seed in 0u64..1000) {
        let net = FibonacciNet::new(d, k);
        let dst = (dst_seed % net.len() as u64) as u32;
        let canonical = CanonicalRouter::for_net(&net);
        assert_progressive(&net, &canonical, dst);
        assert_progressive(&net, &AdaptiveMinimal::new(&net), dst);
        assert_progressive(&net, &NextHopRouter::new(&net), dst);
    }

    #[test]
    fn hypercube_routers_progressive(d in 1usize..=6, dst_seed in 0u64..1000) {
        let q = Hypercube::new(d);
        let dst = (dst_seed % q.len() as u64) as u32;
        assert_progressive(&q, &EcubeRouter, dst);
        assert_progressive(&q, &AdaptiveMinimal::new(&q), dst);
    }

    #[test]
    fn ring_and_mesh_builtin_progressive(n in 3usize..=24, w in 2usize..=5, h in 2usize..=5, s in 0u64..1000) {
        let ring = Ring::new(n);
        assert_progressive(&ring, &NextHopRouter::new(&ring), (s % n as u64) as u32);
        let mesh = Mesh::new(w, h);
        assert_progressive(&mesh, &NextHopRouter::new(&mesh), (s % (w * h) as u64) as u32);
    }

    #[test]
    fn simulator_conserves_packets(count in 1usize..200, window in 0u64..100, seed in 0u64..10_000) {
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
        ] {
            let pkts = uniform(topo.len(), count, window, seed);
            // Generous cap: everything must arrive …
            assert_conservation(topo, &pkts, 1_000_000);
            // … and a tight cap must only truncate, never create.
            assert_conservation(topo, &pkts, 5);
        }
    }

    #[test]
    fn single_packet_latency_equals_distance(src_seed in 0u64..10_000, dst_seed in 0u64..10_000) {
        // Without contention the engine must deliver in exactly
        // distance(src, dst) cycles on every topology family.
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &Hypercube::new(5),
            &Ring::new(13),
            &Mesh::new(5, 4),
        ] {
            let n = topo.len() as u64;
            let src = (src_seed % n) as u32;
            let dst = (dst_seed % n) as u32;
            let d = bfs_distances(topo.graph(), src)[dst as usize] as u64;
            let pkt = [Packet { src, dst, inject_time: 3 }];
            let router = topo.router();
            let plan = RunPlan::new(topo, &*router, Workload::Open(&pkt), 1_000_000);
            let stats = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
            prop_assert_eq!(stats.delivered, 1, "{}", topo.name());
            prop_assert_eq!(stats.mean_latency, d as f64, "{}", topo.name());
            prop_assert_eq!(stats.total_hops, d, "{}", topo.name());
        }
    }

    #[test]
    fn engines_agree_under_deterministic_routing(count in 1usize..150, window in 0u64..80, seed in 0u64..10_000) {
        // Same router ⇒ same per-packet paths ⇒ both engines must deliver
        // the same packet count over the same number of link traversals.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Mesh::new(4, 4),
        ] {
            let pkts = uniform(topo.len(), count, window, seed);
            let router = topo.router();
            let plan = RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000);
            let fast = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
            let slow = simulate_reference(topo, &pkts, 1_000_000);
            prop_assert_eq!(fast.delivered, slow.delivered, "{}", topo.name());
            prop_assert_eq!(fast.total_hops, slow.total_hops, "{}", topo.name());
        }
    }

    #[test]
    fn experiment_reproduces_a_direct_engine_run(count in 1usize..150, window in 0u64..80, seed in 0u64..10_000) {
        // The builder surface is sugar, not semantics: for any uniform
        // workload the Experiment path must equal the raw engine call.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
        ] {
            let spec = TrafficSpec::Uniform { count, window };
            let pkts = spec.generate(topo.len(), seed);
            let router = topo.router();
            let plan = RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000);
            let direct = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
            let report = fibcube_network::Experiment::on(topo)
                .traffic(spec)
                .seed(seed)
                .cycles(1_000_000)
                .run()
                .expect("preferred router always resolves");
            prop_assert_eq!(report.stats, direct, "{}", topo.name());
        }
    }

    #[test]
    fn faulted_delivery_never_exceeds_static_reachability(d in 3usize..=7, faults in 0usize..6, seed in 0u64..10_000) {
        // All-to-all traffic offers every ordered pair exactly once, so
        // the delivered fraction under a fault set is bounded by that
        // set's static reachable-pair fraction (scaled by the survivor
        // share) — the live engine can never beat the static bound.
        let net = FibonacciNet::classical(d);
        // Keep at least two survivors so the static fraction is defined.
        let faults = faults.min(net.len() - 2);
        let set = FaultSpec::Nodes { count: faults }
            .sample(net.graph(), seed)
            .expect("validated fault count");
        // Pin the sampled set as an explicit list so the experiment runs
        // exactly the set the static analysis sees.
        let report = fibcube_network::Experiment::on(&net)
            .traffic(TrafficSpec::AllToAll)
            .faults(FaultSpec::NodeList(set.failed_nodes().to_vec()))
            .seed(seed)
            .run()
            .expect("all-to-all under explicit node faults");
        let s = &report.stats;
        // Conservation: uncapped, everything is delivered or typed-dropped.
        prop_assert_eq!(s.delivered + s.dropped(), s.offered);
        let delivered_fraction = s.delivered as f64 / s.offered as f64;
        let n = net.len() as f64;
        let m = n - faults as f64;
        let static_bound = fault_set_trial(&net, &set)
            .expect("a sampled fault set is always valid for its own graph")
            .reachable_pair_fraction
            .unwrap_or(0.0)
            * (m * (m - 1.0))
            / (n * (n - 1.0));
        prop_assert!(
            delivered_fraction <= static_bound + 1e-9,
            "delivered {delivered_fraction} beats static bound {static_bound} (d={d}, faults={faults})"
        );
        // With no cycle cap the bound is tight: the engine delivers every
        // statically reachable pair.
        prop_assert!((delivered_fraction - static_bound).abs() < 1e-9);
    }

    #[test]
    fn faulted_runs_only_strand_under_a_cap(count in 1usize..150, faults in 1usize..6, seed in 0u64..10_000) {
        // Random uniform traffic over a degraded Q_4: typed drops plus
        // deliveries always account for every packet once drained, and a
        // tight cap only truncates — it never invents packets.
        let q = Hypercube::new(4);
        let pkts = uniform(q.len(), count, 40, seed);
        let spec = FaultSpec::Nodes { count: faults };
        for cap in [1_000_000u64, 4] {
            let report = fibcube_network::Experiment::on(&q)
                .traffic(TrafficSpec::Uniform { count, window: 40 })
                .faults(spec.clone())
                .seed(seed)
                .cycles(cap)
                .run()
                .expect("degraded uniform run");
            let s = report.stats;
            prop_assert_eq!(s.offered, pkts.len());
            prop_assert!(s.delivered + s.dropped() <= s.offered);
            if cap > 1_000 {
                prop_assert_eq!(s.delivered + s.dropped(), s.offered);
            }
        }
    }

    #[test]
    fn arena_engine_equals_reference_packet_for_packet(count in 1usize..200, window in 0u64..80, seed in 0u64..10_000, faults in 0usize..5) {
        // The gating invariant of the arena refactor: the SoA-slab /
        // ring-queue engine is *packet-for-packet* identical to the
        // full-scan reference — full SimStats equality (histogram,
        // makespan, hops, p99, everything), healthy and faulted, on
        // random mixed traffic (uniform + hot-spot superposition).
        let mix = TrafficSpec::Mixed(vec![
            TrafficSpec::Uniform { count, window },
            TrafficSpec::HotSpot { count: count / 2, window: window.max(1), hot_fraction: 0.4 },
        ]);
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
        ] {
            let pkts = mix.generate(topo.len(), seed);
            let router = topo.router();
            let plan = RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000);
            let healthy_fast = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
            let healthy_slow = simulate_reference(topo, &pkts, 1_000_000);
            prop_assert_eq!(&healthy_fast, &healthy_slow, "healthy {}", topo.name());

            let set = FaultSpec::Nodes { count: faults }
                .sample(topo.graph(), seed ^ 0xF00D)
                .expect("fault count below node count");
            let router = topo.router();
            let mask = FaultMaskingRouter::for_topology(topo, &*router, &set);
            let plan = RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000)
                .admission(Admission::Static(&mask));
            let faulted_fast = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
            let faulted_slow =
                simulate_faulted_reference(topo, &*router, &set, &pkts, 1_000_000);
            prop_assert_eq!(&faulted_fast, &faulted_slow, "faulted {}", topo.name());
        }
    }

    #[test]
    fn run_batch_is_order_independent(seed_a in 0u64..1_000, seed_b in 0u64..1_000, seed_c in 0u64..1_000) {
        // Same seeds in any order ⇒ identical per-seed reports, so every
        // order-independent aggregate (sums, means) is byte-stable.
        let net = FibonacciNet::classical(7);
        let template = Experiment::on(&net)
            .router(RouterSpec::Canonical)
            .traffic(TrafficSpec::Uniform { count: 120, window: 40 })
            .cycles(100_000);
        let fwd = template.run_batch(&[seed_a, seed_b, seed_c]).unwrap();
        let rev = template.run_batch(&[seed_c, seed_b, seed_a]).unwrap();
        prop_assert_eq!(&fwd[0].stats, &rev[2].stats);
        prop_assert_eq!(&fwd[1].stats, &rev[1].stats);
        prop_assert_eq!(&fwd[2].stats, &rev[0].stats);
        let total_hops: u64 = fwd.iter().map(|r| r.stats.total_hops).sum();
        let total_rev: u64 = rev.iter().map(|r| r.stats.total_hops).sum();
        prop_assert_eq!(total_hops, total_rev);
    }

    #[test]
    fn verify_schedule_accepts_schedulers_and_rejects_mutations(
        d in 2usize..=7,
        n in 4usize..=16,
        w in 2usize..=4,
        h in 2usize..=4,
        src_seed in 0u64..1000,
        mutation_seed in 0usize..1000,
    ) {
        // Both schedulers' output verifies on every shipped topology
        // family, and a schedule corrupted in any of the classic ways —
        // round off-by-one, duplicate inform, non-edge call — is caught.
        for topo in [
            &FibonacciNet::classical(d) as &dyn Topology,
            &Hypercube::new(d.min(5)),
            &Ring::new(n.max(3)),
            &Mesh::new(w, h),
        ] {
            let src = (src_seed % topo.len() as u64) as u32;
            for (schedule, one_port) in [
                (broadcast_all_port(topo, src).expect("connected"), false),
                (broadcast_one_port(topo, src).expect("connected"), true),
            ] {
                prop_assert!(
                    verify_schedule(topo, &schedule, one_port),
                    "{} src={src} one_port={one_port}",
                    topo.name()
                );
                if schedule.calls.is_empty() {
                    continue;
                }
                let pick = mutation_seed % schedule.calls.len();
                // Round off-by-one: pull the child's round down to its
                // caller's — one earlier than the minimum legal round, so
                // the call happens before the caller holds the message.
                let mut off = schedule.clone();
                let (u, v) = off.calls[pick];
                off.round[v as usize] = off.round[u as usize];
                prop_assert!(
                    !verify_schedule(topo, &off, one_port),
                    "{}: round mutation must be rejected",
                    topo.name()
                );
                // Duplicate inform: the same node informed twice.
                let mut dup = schedule.clone();
                let extra = dup.calls[pick];
                dup.calls.push(extra);
                prop_assert!(
                    !verify_schedule(topo, &dup, one_port),
                    "{}: duplicate inform must be rejected",
                    topo.name()
                );
                // Non-edge call: reroute a call through a non-neighbor.
                let (u, v) = schedule.calls[pick];
                if let Some(far) = (0..topo.len() as u32)
                    .find(|&w| w != u && w != v && !topo.graph().has_edge(w, v))
                {
                    let mut wire = schedule.clone();
                    wire.calls[pick] = (far, v);
                    prop_assert!(
                        !verify_schedule(topo, &wire, one_port),
                        "{}: non-edge call must be rejected",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn wormhole_with_single_flit_buffers_always_drains(
        count in 1usize..120,
        window in 0u64..60,
        seed in 0u64..10_000,
        flit_size in 1u32..=PACKET_LENGTH_UNITS,
    ) {
        // The deadlock-freedom acceptance property: with the *minimum*
        // buffer (one flit per link × VC — the configuration where cyclic
        // credit waits would wedge first), every healthy run drains
        // completely under a generous cap on all four topology families.
        // The order-based channel classes make the channel-dependency
        // graph acyclic, so no drop and no strand is possible.
        let spec = SwitchingSpec::Wormhole { flit_size, vcs: 2, buf_flits: 1 };
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(9),
            &Mesh::new(4, 3),
        ] {
            let pkts = uniform(topo.len(), count, window, seed);
            let router = topo.router();
            let plan = RunPlan::new(topo, &*router, Workload::Open(&pkts), 5_000_000)
                .switching(spec.clone());
            let stats = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
            prop_assert_eq!(stats.offered, pkts.len(), "{}", topo.name());
            prop_assert_eq!(stats.dropped(), 0, "healthy {}", topo.name());
            prop_assert_eq!(
                stats.delivered, stats.offered,
                "wormhole deadlock/strand on {} (flit_size={}, buf=1)",
                topo.name(), flit_size
            );
        }
    }

    #[test]
    fn every_spec_display_round_trips_through_its_parser(
        sel in 0u64..100_000,
        a in 0u64..5_000,
        b in 1u64..5_000,
        c in 1u64..100,
    ) {
        // One shared harness over all five spec families: the canonical
        // text form (`Display`) must parse back (`FromStr`) to exactly
        // the value it came from. Each family picks its variant from an
        // independent slice of `sel`.
        fn round_trip<T>(x: &T)
        where
            T: std::fmt::Display + std::str::FromStr + PartialEq + std::fmt::Debug,
            T::Err: std::fmt::Debug,
        {
            let text = x.to_string();
            let back: T = text.parse().unwrap_or_else(|e| {
                panic!("`{text}` must parse back: {e:?}")
            });
            assert_eq!(&back, x, "`{text}` round-trips");
        }

        let traffic = match sel % 7 {
            0 => TrafficSpec::Uniform { count: a as usize, window: b },
            1 => TrafficSpec::HotSpot {
                count: a as usize,
                window: b,
                hot_fraction: c as f64 / 100.0,
            },
            2 => TrafficSpec::Bernoulli { rate: c as f64 / 100.0, cycles: b },
            3 => TrafficSpec::ComplementPermutation { window: b },
            4 => TrafficSpec::AllToAll,
            5 => TrafficSpec::RequestReply {
                clients: a as usize,
                think: a as f64 / 4.0,
                timeout: b,
                retries: c as u32,
            },
            _ => TrafficSpec::Mixed(vec![
                TrafficSpec::Uniform { count: a as usize, window: b },
                TrafficSpec::ComplementPermutation { window: b },
            ]),
        };
        round_trip(&traffic);

        let fault = match (sel / 7) % 7 {
            0 => FaultSpec::None,
            1 => FaultSpec::Nodes { count: a as usize },
            2 => FaultSpec::Links { count: a as usize },
            3 => FaultSpec::NodeList(vec![a as u32, (a + c) as u32]),
            4 => FaultSpec::LinkList(vec![(a as u32, (a + 1) as u32), (c as u32, 0)]),
            5 => FaultSpec::Churn {
                node_rate: a as f64 / 1000.0,
                link_rate: c as f64 / 100.0,
                mttr: if sel & 1 == 0 { b as f64 } else { f64::INFINITY },
            },
            _ => FaultSpec::Mixed(vec![
                FaultSpec::Nodes { count: a as usize },
                FaultSpec::Links { count: c as usize },
            ]),
        };
        round_trip(&fault);

        let port = if sel & 1 == 0 { Port::One } else { Port::All };
        let collective = match (sel / 49) % 3 {
            0 => CollectiveSpec::Broadcast { source: a as u32, port },
            1 => CollectiveSpec::Multicast { source: a as u32, count: c as usize, port },
            _ => CollectiveSpec::AllToAllPersonalized,
        };
        round_trip(&collective);

        let router = match (sel / 147) % 5 {
            0 => RouterSpec::Preferred,
            1 => RouterSpec::Builtin,
            2 => RouterSpec::Ecube,
            3 => RouterSpec::Canonical,
            _ => RouterSpec::Adaptive,
        };
        round_trip(&router);

        let switching = match (sel / 735) % 2 {
            0 => SwitchingSpec::StoreAndForward,
            _ => SwitchingSpec::Wormhole {
                flit_size: 1 + (a % 64) as u32,
                vcs: 1 + (c % 8) as u32,
                buf_flits: 1 + (b % 64) as u32,
            },
        };
        round_trip(&switching);
    }

    #[test]
    fn parallel_engine_is_thread_count_independent(count in 1usize..100, window in 0u64..60, seed in 0u64..10_000, faults in 0usize..5) {
        // Acceptance property of the sharded engine: the propose/commit
        // cycle makes the run a pure function of the workload — one, two,
        // four, or eight shards produce *identical* `SimStats` (histograms
        // included), healthy and faulted, across all five topology
        // families. Wormhole runs take the same thread budget through the
        // builder (and run one lane), so it must be invisible there too.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
            &ImplicitFibonacciNet::classical(7),
        ] {
            let pkts = uniform(topo.len(), count, window, seed);
            let router = topo.router();
            let fault_sets = [
                FaultSet::default(),
                FaultSpec::Nodes { count: faults.min(topo.len() - 2) }
                    .sample(topo.graph(), seed ^ 0xBEEF)
                    .expect("fault count below node count"),
            ];
            for set in &fault_sets {
                let mask = FaultMaskingRouter::for_topology(topo, &*router, set);
                let plan = RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000)
                    .admission(Admission::Static(&mask));
                let serial = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
                for t in [1usize, 2, 4, 8] {
                    let sharded = engine::run(&plan, t, &mut NoopObserver).unwrap().stats;
                    prop_assert_eq!(
                        &sharded, &serial,
                        "{} with {} faults at {t} threads",
                        topo.name(), set.failed_nodes().len()
                    );
                }
            }
            // Wormhole through the builder: the flit engine runs one
            // lane at any thread budget — reports must be bit-identical
            // to the serial run.
            let worm = |threads: usize| {
                Experiment::on(topo)
                    .traffic(TrafficSpec::Uniform { count, window })
                    .switching(SwitchingSpec::Wormhole { flit_size: 4, vcs: 2, buf_flits: 2 })
                    .seed(seed)
                    .cycles(1_000_000)
                    .threads(threads)
                    .run()
                    .expect("wormhole experiment resolves")
            };
            let worm_serial = worm(1);
            prop_assert_eq!(&worm(4).stats, &worm_serial.stats, "wormhole {}", topo.name());
        }
    }

    #[test]
    fn adaptive_routing_conserves_and_stays_minimal(count in 1usize..150, seed in 0u64..10_000) {
        // Adaptive minimal routing may pick different links under load but
        // every path is still shortest, so total hops equal the distance sum.
        let net = FibonacciNet::classical(8);
        let pkts = uniform(net.len(), count, 40, seed);
        let router = AdaptiveMinimal::new(&net);
        let plan = RunPlan::new(&net, &router, Workload::Open(&pkts), 1_000_000);
        let stats = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
        prop_assert_eq!(stats.delivered, stats.offered);
        let mut dist_sum = 0u64;
        for p in &pkts {
            dist_sum += bfs_distances(net.graph(), p.src)[p.dst as usize] as u64;
        }
        prop_assert_eq!(stats.total_hops, dist_sum, "minimal ⇒ hop count = Σ distance");
    }

    #[test]
    fn zero_rate_churn_equals_the_healthy_engine(count in 1usize..150, window in 0u64..80, seed in 0u64..10_000) {
        // Equivalence gate of the churn engine, quiet end: zero failure
        // rates generate an empty timeline, and running the churn engine
        // with it must be *identical* to the healthy engine — full
        // SimStats equality on every topology family.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
        ] {
            let timeline =
                ChurnTimeline::generate(topo.graph(), 0.0, 0.0, 100.0, seed, 1_000_000);
            prop_assert!(timeline.is_empty(), "zero rates must generate no events");
            let pkts = uniform(topo.len(), count, window, seed);
            let router = topo.router();
            let plan = |admission| {
                RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000).admission(admission)
            };
            let churned = engine::run(&plan(Admission::Churn(&timeline)), 1, &mut NoopObserver)
                .unwrap()
                .stats;
            let healthy = engine::run(&plan(Admission::Healthy), 1, &mut NoopObserver)
                .unwrap()
                .stats;
            prop_assert_eq!(&churned, &healthy, "{}", topo.name());
        }
    }

    #[test]
    fn parallel_churn_is_thread_count_independent(count in 1usize..100, window in 0u64..60, seed in 0u64..10_000) {
        // The churned extension of the sharded-engine determinism gate:
        // with a live mid-run fail/recover timeline, one, two, four, or
        // eight shards must produce SimStats identical to the serial
        // churn engine — histograms, typed drops, makespan, everything.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
        ] {
            let timeline =
                ChurnTimeline::generate(topo.graph(), 0.01, 0.01, 40.0, seed, 500);
            let pkts = uniform(topo.len(), count, window, seed);
            let router = topo.router();
            let plan = RunPlan::new(topo, &*router, Workload::Open(&pkts), 100_000)
                .admission(Admission::Churn(&timeline));
            let serial = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
            for t in [1usize, 2, 4, 8] {
                let sharded = engine::run(&plan, t, &mut NoopObserver).unwrap().stats;
                prop_assert_eq!(
                    &sharded, &serial,
                    "{} with {} events at {t} threads",
                    topo.name(), timeline.len()
                );
            }
        }
    }

    #[test]
    fn incremental_repair_matches_from_scratch_rebuild(d in 3usize..=7, steps in 1usize..20, seed in 0u64..10_000) {
        // The incremental-repair invariant: after *every* applied churn
        // event, the masked router's distances must equal a from-scratch
        // masked BFS over the current liveness masks, on all pairs. The
        // cubes run through `new` (the dense healthy base); the ring and
        // the mesh, which have no labels, through `for_topology`, the
        // path churn runs on them take.
        let net = FibonacciNet::classical(d);
        let cube = Hypercube::new(d);
        let ring = Ring::new(4 * d);
        let mesh = Mesh::new(d, d - 1);
        let inputs = [
            (&net as &dyn Topology, false),
            (&cube, false),
            (&ring, true),
            (&mesh, true),
        ];
        for (topo, through_topology) in inputs {
            let g = topo.graph();
            let router = topo.router();
            let empty = FaultSet::empty();
            let mut masked = if through_topology {
                FaultMaskingRouter::for_topology(topo, &*router, &empty)
            } else {
                FaultMaskingRouter::new(g, &*router, &empty)
            };
            let edges: Vec<(u32, u32)> = g.edges().collect();
            let n = g.num_vertices();
            let mut node_down = vec![false; n];
            let mut link_down = vec![false; edges.len()];
            // Small xorshift so the event sequence is a pure function of
            // the proptest seed (state must be nonzero).
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for step in 0..steps {
                // Flip a random element: fail it if up, recover it if
                // down — the strict alternation `apply_event` is
                // specified against.
                let (target, failed) = if next() & 1 == 0 {
                    let idx = (next() % n as u64) as usize;
                    node_down[idx] = !node_down[idx];
                    (ChurnTarget::Node(idx as u32), node_down[idx])
                } else {
                    let idx = (next() % edges.len() as u64) as usize;
                    link_down[idx] = !link_down[idx];
                    let (u, v) = edges[idx];
                    (ChurnTarget::Link(u, v), link_down[idx])
                };
                masked.apply_event(&ChurnEvent { cycle: step as u64, target, failed });
                for v in 0..n as u32 {
                    prop_assert_eq!(masked.node_alive(v), !node_down[v as usize]);
                }
                let fresh = DistanceTable::degraded(g, masked.masks());
                for u in 0..n as u32 {
                    for v in 0..n as u32 {
                        prop_assert_eq!(
                            masked.distance(u, v),
                            fresh.distance(u, v),
                            "{}: {}→{} diverges after event {} ({:?}, failed={})",
                            topo.name(), u, v, step, target, failed
                        );
                    }
                }
            }
        }
    }
}

// The sharded-determinism gates below run every policy combination at
// four thread counts against its serial oracle — each case is ~40
// simulation runs, so the case budget is smaller than the block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_wormhole_is_thread_count_independent(count in 1usize..60, window in 0u64..40, seed in 0u64..10_000, faults in 0usize..4) {
        // The flit-level extension of the sharded-engine determinism
        // gate: a wormhole run is one lane at any lane request, so
        // asking for one, two, four, or eight lanes must produce
        // `SimStats` identical to the serial flit engine — multi-flit
        // packets, multiple virtual channels, healthy and statically
        // faulted, across all five topology families.
        let spec = SwitchingSpec::Wormhole {
            flit_size: 4,
            vcs: 1 + (seed % 3) as u32,
            buf_flits: 1 + (seed % 4) as u32,
        };
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
            &Mesh::new(4, 3),
            &ImplicitFibonacciNet::classical(7),
        ] {
            let pkts = uniform(topo.len(), count, window, seed);
            let router = topo.router();
            let fault_sets = [
                FaultSet::default(),
                FaultSpec::Nodes { count: faults.min(topo.len() - 2) }
                    .sample(topo.graph(), seed ^ 0xBEEF)
                    .expect("fault count below node count"),
            ];
            for set in &fault_sets {
                let mask = FaultMaskingRouter::for_topology(topo, &*router, set);
                let plan = RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000)
                    .switching(spec.clone())
                    .admission(Admission::Static(&mask));
                let serial = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
                for t in [2usize, 4, 8] {
                    let sharded = engine::run(&plan, t, &mut NoopObserver).unwrap().stats;
                    prop_assert_eq!(
                        &sharded, &serial,
                        "wormhole {} with {} faults at {t} threads",
                        topo.name(), set.failed_nodes().len()
                    );
                }
            }
        }
        // Load-adaptive routing is the hard case: its next-hop choice
        // reads live link loads, which only a lane deciding every move
        // of the cycle in scan order sees as the serial scan does.
        let net = FibonacciNet::classical(8);
        let pkts = uniform(net.len(), count, window, seed);
        let adaptive = AdaptiveMinimal::new(&net);
        let plan = RunPlan::new(&net, &adaptive, Workload::Open(&pkts), 1_000_000)
            .switching(spec.clone());
        let serial = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
        for t in [2usize, 4, 8] {
            let sharded = engine::run(&plan, t, &mut NoopObserver).unwrap().stats;
            prop_assert_eq!(&sharded, &serial, "adaptive wormhole at {} threads", t);
        }
    }

    #[test]
    fn parallel_request_reply_is_thread_count_independent(clients in 1usize..16, seed in 0u64..10_000) {
        // Closed-loop traffic shards by replicating the session machine
        // on every lane (identical RNG streams) and gating packet
        // effects on node ownership — so the sharded run must reproduce
        // the serial one exactly, healthy and under live churn.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(11),
        ] {
            let router = topo.router();
            let load = RequestReplyLoad {
                clients,
                think: 3.0,
                timeout: 64,
                retries: 2,
                seed,
            };
            let timelines = [
                ChurnTimeline::generate(topo.graph(), 0.0, 0.0, 1.0, seed, 20_000),
                ChurnTimeline::generate(topo.graph(), 0.005, 0.005, 60.0, seed, 20_000),
            ];
            for timeline in &timelines {
                let plan = RunPlan::new(topo, &*router, Workload::Closed(&load), 20_000)
                    .admission(Admission::Churn(timeline));
                let serial = engine::run(&plan, 1, &mut NoopObserver).unwrap().stats;
                for t in [2usize, 4, 8] {
                    let sharded = engine::run(&plan, t, &mut NoopObserver).unwrap().stats;
                    prop_assert_eq!(
                        &sharded, &serial,
                        "request/reply on {} with {} events at {t} threads",
                        topo.name(), timeline.len()
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_collective_is_thread_count_independent(source in 0u32..13, seed in 0u64..10_000, faults in 0usize..4) {
        // Collectives shard too: tree replication spawns copies at the
        // lane owning the spawning node, the personalized exchange runs
        // as sharded unicasts. Reports (stats *and* collective outcome)
        // must be bit-identical at any thread count, healthy and faulted,
        // under both switching models where the grid allows.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Mesh::new(4, 3),
        ] {
            let source = source % topo.len() as u32;
            // Direct tree plan against the raw engines.
            let schedule = broadcast_one_port(topo, source)
                .expect("connected healthy network always schedules");
            let copies = CopyPlan::from_schedule(topo.graph(), &schedule, true);
            let tree_forward = NextHopRouter::new(topo);
            let plan = RunPlan::new(topo, &tree_forward, Workload::Copies(&copies), 1_000_000);
            let serial = engine::run(&plan, 1, &mut NoopObserver).unwrap();
            for t in [2usize, 4, 8] {
                let sharded = engine::run(&plan, t, &mut NoopObserver).unwrap();
                prop_assert_eq!(&sharded, &serial, "tree collective {} at {t} threads", topo.name());
            }
            // Faulted broadcast and the personalized exchange through the
            // builder — the full compile-and-dispatch path.
            for (collective, fault_spec, switching) in [
                (
                    CollectiveSpec::Broadcast { source, port: Port::One },
                    FaultSpec::Nodes { count: faults.min(topo.len() - 2) },
                    SwitchingSpec::StoreAndForward,
                ),
                (
                    CollectiveSpec::AllToAllPersonalized,
                    FaultSpec::None,
                    SwitchingSpec::StoreAndForward,
                ),
                (
                    CollectiveSpec::AllToAllPersonalized,
                    FaultSpec::None,
                    SwitchingSpec::Wormhole { flit_size: 4, vcs: 2, buf_flits: 2 },
                ),
            ] {
                let run = |threads: usize| {
                    Experiment::on(topo)
                        .collective(collective.clone())
                        .faults(fault_spec.clone())
                        .switching(switching.clone())
                        .seed(seed)
                        .cycles(1_000_000)
                        .threads(threads)
                        .run()
                        .expect("valid collective configuration")
                };
                let serial = run(1);
                for t in [2usize, 4, 8] {
                    let sharded = run(t);
                    prop_assert_eq!(
                        &sharded.stats, &serial.stats,
                        "{collective} on {} under {switching} at {t} threads",
                        topo.name()
                    );
                    prop_assert_eq!(
                        &sharded.collective, &serial.collective,
                        "{collective} outcome on {} at {t} threads",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn observed_parallel_runs_merge_to_serial_output(count in 1usize..80, window in 0u64..60, seed in 0u64..10_000) {
        // Observer fork/merge exactness: a sharded run gives every lane a
        // fork and folds them back in lane order, and the merged output
        // must equal the serial observer's bit for bit — latency
        // histograms, link heatmaps, and SLO windows alike, on static
        // faults, under churn, and through the flit engine.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Mesh::new(4, 3),
        ] {
            let pkts = uniform(topo.len(), count, window, seed);
            let router = topo.router();
            let set = FaultSpec::Nodes { count: 2.min(topo.len() - 2) }
                .sample(topo.graph(), seed ^ 0xF00D)
                .expect("fault count below node count");

            let mask = FaultMaskingRouter::for_topology(topo, &*router, &set);
            let faulted = RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000)
                .admission(Admission::Static(&mask));
            let mut serial_obs = (LatencyHistogram::new(), LinkHeatmap::new());
            let serial = engine::run(&faulted, 1, &mut serial_obs).unwrap().stats;
            for t in [2usize, 4, 8] {
                let mut obs = (LatencyHistogram::new(), LinkHeatmap::new());
                let sharded = engine::run(&faulted, t, &mut obs).unwrap().stats;
                prop_assert_eq!(&sharded, &serial, "faulted {} at {t} threads", topo.name());
                prop_assert_eq!(obs.0.histogram(), serial_obs.0.histogram());
                prop_assert_eq!(obs.0.delivered(), serial_obs.0.delivered());
                prop_assert_eq!(obs.1.total_hops(), serial_obs.1.total_hops());
                prop_assert_eq!(obs.1.hottest(4), serial_obs.1.hottest(4));
            }

            let timeline = ChurnTimeline::generate(topo.graph(), 0.01, 0.01, 40.0, seed, 500);
            let churned = RunPlan::new(topo, &*router, Workload::Open(&pkts), 100_000)
                .admission(Admission::Churn(&timeline));
            let mut serial_slo = SloTracker::new(100);
            let churn_serial = engine::run(&churned, 1, &mut serial_slo).unwrap().stats;
            for t in [2usize, 4, 8] {
                let mut slo = SloTracker::new(100);
                let sharded = engine::run(&churned, t, &mut slo).unwrap().stats;
                prop_assert_eq!(&sharded, &churn_serial, "churned {} at {t} threads", topo.name());
                prop_assert_eq!(slo.windows(), serial_slo.windows());
                prop_assert_eq!(slo.fault_events(), serial_slo.fault_events());
                prop_assert_eq!(slo.recoveries(), serial_slo.recoveries());
            }

            let spec = SwitchingSpec::Wormhole { flit_size: 4, vcs: 2, buf_flits: 2 };
            let wormhole = faulted.switching(spec);
            let mut serial_wh = (LatencyHistogram::new(), LinkHeatmap::new());
            let wh_serial = engine::run(&wormhole, 1, &mut serial_wh).unwrap().stats;
            for t in [2usize, 4, 8] {
                let mut obs = (LatencyHistogram::new(), LinkHeatmap::new());
                let sharded = engine::run(&wormhole, t, &mut obs).unwrap().stats;
                prop_assert_eq!(&sharded, &wh_serial, "wormhole {} at {t} threads", topo.name());
                prop_assert_eq!(obs.0.histogram(), serial_wh.0.histogram());
                prop_assert_eq!(obs.1.total_hops(), serial_wh.1.total_hops());
                prop_assert_eq!(obs.1.hottest(4), serial_wh.1.hottest(4));
            }
        }
    }
}

/// Acceptance criterion of the implicit-routing tentpole: a full
/// [`Experiment`] on the lazily-materialised [`ImplicitFibonacciNet`]
/// (canonical routing on ranks, streamed CSR) is *packet-for-packet*
/// identical — full `SimStats` equality, histograms included — to the
/// run on the classic [`FibonacciNet`]'s stored labels at acceptance
/// scale (Γ_16). The hop-by-hop check of both address sources is the
/// canonical router's unit test in `router.rs`.
#[test]
fn implicit_experiment_equals_dense_table_run_at_acceptance_scale() {
    let mix = TrafficSpec::Mixed(vec![
        TrafficSpec::Uniform {
            count: 400,
            window: 100,
        },
        TrafficSpec::HotSpot {
            count: 100,
            window: 100,
            hot_fraction: 0.3,
        },
    ]);

    let implicit_net = ImplicitFibonacciNet::classical(16);
    let dense_net = FibonacciNet::classical(16);
    assert_eq!(implicit_net.graph(), dense_net.graph(), "identical Γ_16");
    let implicit_report = Experiment::on(&implicit_net)
        .traffic(mix.clone())
        .seed(2026)
        .cycles(1_000_000)
        .run()
        .expect("implicit canonical resolves");
    let dense_report = Experiment::on(&dense_net)
        .router(RouterSpec::Canonical)
        .traffic(mix.clone())
        .seed(2026)
        .cycles(1_000_000)
        .run()
        .expect("dense canonical resolves");
    assert_eq!(implicit_report.router, dense_report.router, "same policy");
    assert_eq!(implicit_report.stats, dense_report.stats, "Γ_16");
}

/// Acceptance criterion at full scale: on the Γ_16 / Q_11 pair the arena
/// engine is packet-for-packet identical to the reference engines, with
/// and without faults, on mixed traffic. One deterministic workload per
/// topology (the reference engines are too slow to property-test at this
/// size — the randomized sweep above covers the small topologies).
#[test]
fn arena_engine_equals_reference_on_the_acceptance_pair() {
    let gamma = FibonacciNet::classical(16);
    let q = Hypercube::new(11);
    let mix = TrafficSpec::Mixed(vec![
        TrafficSpec::Uniform {
            count: 400,
            window: 100,
        },
        TrafficSpec::HotSpot {
            count: 100,
            window: 100,
            hot_fraction: 0.3,
        },
    ]);
    for topo in [&gamma as &dyn Topology, &q] {
        let pkts = mix.generate(topo.len(), 2026);
        let fast = engine::run(
            &RunPlan::new(topo, &*topo.router(), Workload::Open(&pkts), 1_000_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        let slow = simulate_reference(topo, &pkts, 1_000_000);
        assert_eq!(fast, slow, "healthy {}", topo.name());

        let faults = FaultSet::new([1u32, 17, 100, 901], [(0u32, 1u32)]);
        let router = topo.router();
        let fast = {
            let mask = FaultMaskingRouter::for_topology(topo, &*router, &faults);
            engine::run(
                &RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000)
                    .admission(Admission::Static(&mask)),
                1,
                &mut NoopObserver,
            )
            .unwrap()
            .stats
        };
        let slow = simulate_faulted_reference(topo, &*router, &faults, &pkts, 1_000_000);
        assert_eq!(fast, slow, "faulted {}", topo.name());
        assert_eq!(
            fast.delivered + fast.dropped(),
            fast.offered,
            "uncapped degraded runs conserve packets"
        );
    }
}

/// Malformed spec text is rejected by every parser — the flip side of the
/// round-trip property (which only exercises canonical forms).
#[test]
fn every_spec_parser_rejects_malformed_input() {
    for bad in [
        "",
        "uniform",
        "uniform(count=10",
        "uniform(count=ten,window=5)",
        "uniform(count=10,window=5,extra=1)",
        "warp(count=10)",
        "request_reply(clients=4)",
        "request_reply(clients=4,think=1,timeout=2,retries=nope)",
    ] {
        assert!(bad.parse::<TrafficSpec>().is_err(), "traffic `{bad}`");
    }
    for bad in ["", "ecube3", "e cube", "canonical(x=1)"] {
        assert!(bad.parse::<RouterSpec>().is_err(), "router `{bad}`");
    }
    for bad in [
        "",
        "nodes",
        "nodes(count=-1)",
        "node_list(1,two)",
        "link_list(3)",
        "mix(nodes(count=1)+)",
        "churn(node_rate=0.1)",
        "churn(node_rate=x,link_rate=0,mttr=1)",
    ] {
        assert!(bad.parse::<FaultSpec>().is_err(), "fault `{bad}`");
    }
    for bad in [
        "",
        "broadcast",
        "broadcast(source=x)",
        "broadcast(source=0,port=two)",
        "multicast(source=0)",
        "alltoallp(n=1)",
    ] {
        assert!(bad.parse::<CollectiveSpec>().is_err(), "collective `{bad}`");
    }
    for bad in [
        "",
        "wormhole",
        "store_and_forward(x=1)",
        "wormhole(flit_size=8)",
        "wormhole(flit_size=8,vcs=2,buf_flits=nope)",
        "wormhole(flit_size=8,vcs=2,buf_flits=4,extra=1)",
        "cut_through(flit_size=8)",
    ] {
        assert!(bad.parse::<SwitchingSpec>().is_err(), "switching `{bad}`");
    }
}

/// Per-node delivery census: which destinations received how many
/// packets — the packet-*set* fingerprint the degenerate-equivalence
/// oracle compares across engines.
#[derive(Default)]
struct DeliveryCensus {
    per_node: Vec<u64>,
}

impl SimObserver for DeliveryCensus {
    fn on_deliver(&mut self, _cycle: u64, dst: u32, _latency: u64) {
        if self.per_node.len() <= dst as usize {
            self.per_node.resize(dst as usize + 1, 0);
        }
        self.per_node[dst as usize] += 1;
    }
}

/// Acceptance criterion of the switching tentpole: wormhole switching in
/// its degenerate configuration (one flit per packet, one VC, effectively
/// unbounded buffers) collapses to store-and-forward on the Γ_16 / Q_11
/// acceptance pair.
///
/// Healthy runs use deterministic routers, where pop-time routing
/// (wormhole) and arrival-time routing (store-and-forward) pick identical
/// paths — so full `SimStats` equality holds, histograms included.
#[test]
fn degenerate_wormhole_equals_store_and_forward_on_the_acceptance_pair() {
    let gamma = FibonacciNet::classical(16);
    let q = Hypercube::new(11);
    let degenerate = SwitchingSpec::Wormhole {
        flit_size: PACKET_LENGTH_UNITS,
        vcs: 1,
        buf_flits: 1_000_000,
    };
    let mix = TrafficSpec::Mixed(vec![
        TrafficSpec::Uniform {
            count: 400,
            window: 100,
        },
        TrafficSpec::HotSpot {
            count: 100,
            window: 100,
            hot_fraction: 0.3,
        },
    ]);
    for topo in [&gamma as &dyn Topology, &q] {
        let pkts = mix.generate(topo.len(), 2026);
        let router = topo.router();
        let saf = engine::run(
            &RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000)
                .switching(SwitchingSpec::StoreAndForward),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        let worm = engine::run(
            &RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000)
                .switching(degenerate.clone()),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats;
        assert_eq!(
            saf,
            worm,
            "healthy degenerate wormhole ≡ SAF on {}",
            topo.name()
        );
        assert_eq!(
            saf.delivered,
            saf.offered,
            "healthy runs drain {}",
            topo.name()
        );
    }
}

/// … and under faults, where the load-aware [`FaultMaskingRouter`] detour
/// rule may legally pick different (equally progressive) links at the two
/// engines' different routing instants, the oracle is the packet-set one:
/// the same packets are delivered to the same destinations with the same
/// typed drops, and both engines' per-packet hop counts equal the
/// degraded-graph distance (every masked hop strictly decreases it, so
/// `Σ hops = Σ distance` forces per-packet equality through the
/// shortest-path lower bound).
#[test]
fn degenerate_wormhole_matches_faulted_packet_set_on_the_acceptance_pair() {
    let gamma = FibonacciNet::classical(16);
    let q = Hypercube::new(11);
    let degenerate = SwitchingSpec::Wormhole {
        flit_size: PACKET_LENGTH_UNITS,
        vcs: 1,
        buf_flits: 1_000_000,
    };
    let mix = TrafficSpec::Mixed(vec![
        TrafficSpec::Uniform {
            count: 400,
            window: 100,
        },
        TrafficSpec::HotSpot {
            count: 100,
            window: 100,
            hot_fraction: 0.3,
        },
    ]);
    // 60 dead nodes (all ids valid on both Γ_16's 2584 and Q_11's 2048
    // nodes) plus one dead link — enough for the mixed workload to hit
    // dead endpoints and force detours on both topologies.
    let dead_nodes: Vec<u32> = (1..=60u32).map(|i| i * 31).collect();
    let faults = FaultSet::new(dead_nodes, [(0u32, 1u32)]);
    for topo in [&gamma as &dyn Topology, &q] {
        let pkts = mix.generate(topo.len(), 2026);
        let router = topo.router();

        let mut saf_census = DeliveryCensus::default();
        let saf = {
            let mask = FaultMaskingRouter::for_topology(topo, &*router, &faults);
            engine::run(
                &RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000)
                    .admission(Admission::Static(&mask)),
                1,
                &mut saf_census,
            )
            .unwrap()
            .stats
        };
        let mut worm_census = DeliveryCensus::default();
        let worm = {
            let mask = FaultMaskingRouter::for_topology(topo, &*router, &faults);
            engine::run(
                &RunPlan::new(topo, &*router, Workload::Open(&pkts), 1_000_000)
                    .switching(degenerate.clone())
                    .admission(Admission::Static(&mask)),
                1,
                &mut worm_census,
            )
            .unwrap()
            .stats
        };

        assert!(
            saf.dropped() > 0,
            "the fault set must bite on {}",
            topo.name()
        );
        assert_eq!(saf.offered, worm.offered, "{}", topo.name());
        assert_eq!(saf.delivered, worm.delivered, "{}", topo.name());
        assert_eq!(
            saf.dropped_dead_endpoint,
            worm.dropped_dead_endpoint,
            "{}",
            topo.name()
        );
        assert_eq!(
            saf.dropped_unreachable,
            worm.dropped_unreachable,
            "{}",
            topo.name()
        );
        assert_eq!(
            saf_census.per_node,
            worm_census.per_node,
            "same packet set delivered on {}",
            topo.name()
        );

        // Hop oracle: every surviving packet takes exactly its
        // degraded-graph distance in both engines.
        let masks = faults.masks(topo.graph());
        let dist = DistanceTable::degraded(topo.graph(), &masks);
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
        assert_eq!(saf.total_hops, expected, "SAF hops on {}", topo.name());
        assert_eq!(
            worm.total_hops,
            expected,
            "wormhole hops on {}",
            topo.name()
        );
    }
}

/// Acceptance criterion of the churn tentpole: a timeline that fails a
/// static fault set's nodes and links at cycle 0 and never recovers them
/// (mttr = ∞ ⇒ no recovery events) is *packet-for-packet* identical to
/// the static fault engine on the Γ_16 / Q_11 acceptance pair — full
/// `SimStats` equality, histograms and typed drops included — for open
/// traffic and for a closed request/reply loop, at one lane and at
/// three. Events commit at the cycle-0 boundary before any injection, so
/// the churn fault state sees exactly the degraded network the static
/// mask holds up front.
#[test]
fn cycle_zero_permanent_churn_equals_the_static_fault_engine() {
    let gamma = FibonacciNet::classical(16);
    let q = Hypercube::new(11);
    let mix = TrafficSpec::Mixed(vec![
        TrafficSpec::Uniform {
            count: 400,
            window: 100,
        },
        TrafficSpec::HotSpot {
            count: 100,
            window: 100,
            hot_fraction: 0.3,
        },
    ]);
    let load = RequestReplyLoad {
        clients: 64,
        think: 10.0,
        timeout: 60,
        retries: 1,
        seed: 2026,
    };
    let dead_nodes: Vec<u32> = (1..=60u32).map(|i| i * 31).collect();
    for topo in [&gamma as &dyn Topology, &q] {
        let g = topo.graph();
        // A real link of each graph, so the link fault actually bites.
        let (lu, lv) = g
            .edges()
            .find(|&(u, v)| !dead_nodes.contains(&u) && !dead_nodes.contains(&v))
            .expect("a live link exists");
        let faults = FaultSet::new(dead_nodes.clone(), [(lu, lv)]);
        let pkts = mix.generate(topo.len(), 2026);
        let router = topo.router();
        let mask = FaultMaskingRouter::for_topology(topo, &*router, &faults);
        let timeline = ChurnTimeline::from_events(
            dead_nodes
                .iter()
                .map(|&x| ChurnEvent {
                    cycle: 0,
                    target: ChurnTarget::Node(x),
                    failed: true,
                })
                .chain(std::iter::once(ChurnEvent {
                    cycle: 0,
                    target: ChurnTarget::Link(lu.min(lv), lu.max(lv)),
                    failed: true,
                })),
        );
        let workloads = [
            (Workload::Open(&pkts), 1_000_000),
            (Workload::Closed(&load), 2_000),
        ];
        for (workload, cap) in workloads {
            for lanes in [1usize, 3] {
                let what = format!("{} {workload} lanes={lanes}", topo.name());
                let run = |admission| {
                    engine::run(
                        &RunPlan::new(topo, &*router, workload, cap).admission(admission),
                        lanes,
                        &mut NoopObserver,
                    )
                    .unwrap()
                    .stats
                };
                let static_run = run(Admission::Static(&mask));
                assert!(static_run.dropped() > 0, "faults must bite: {what}");
                let churned = run(Admission::Churn(&timeline));
                assert_eq!(
                    churned, static_run,
                    "cycle-0 permanent churn ≡ static faults: {what}"
                );
            }
        }
    }
}

/// Every topology that reports cube labels, over the whole small range
/// the label certificate is tested on: Γ_d and Q_d(1^k) for d ≤ 10 and
/// k ∈ 2..=4 (dense and implicit), and Q_n for n ≤ 8.
fn labelled_topologies() -> Vec<Box<dyn Topology>> {
    let mut topos: Vec<Box<dyn Topology>> = Vec::new();
    for k in 2..=4usize {
        for d in 1..=10usize {
            topos.push(Box::new(FibonacciNet::new(d, k)));
            topos.push(Box::new(ImplicitFibonacciNet::new(d, k)));
        }
    }
    for n in 0..=8usize {
        topos.push(Box::new(Hypercube::new(n)));
    }
    topos
}

#[test]
fn cube_label_hamming_distance_equals_bfs_on_every_labelled_instance() {
    // The isometric-embedding contract behind `Topology::cube_labels`,
    // checked exhaustively on every pair of every instance in range.
    for topo in labelled_topologies() {
        let labels = topo.cube_labels().expect("labelled topology");
        assert_eq!(labels.len(), topo.len(), "{}", topo.name());
        for dst in 0..topo.len() as u32 {
            let bfs = bfs_distances(topo.graph(), dst);
            for src in 0..topo.len() as u32 {
                assert_eq!(
                    (labels[src as usize] ^ labels[dst as usize]).count_ones(),
                    bfs[src as usize],
                    "{}: {src}→{dst}",
                    topo.name()
                );
            }
        }
    }
    assert!(Ring::new(8).cube_labels().is_none());
    assert!(Mesh::new(3, 3).cube_labels().is_none());
}

#[test]
fn closed_form_start_table_equals_the_healthy_bfs_table() {
    for topo in labelled_topologies() {
        let router = topo.router();
        let masked = FaultMaskingRouter::for_topology(&*topo, &*router, &FaultSet::empty());
        let healthy = DistanceTable::healthy(topo.graph()).unwrap();
        for dst in 0..topo.len() as u32 {
            for src in 0..topo.len() as u32 {
                assert_eq!(
                    masked.distance(src, dst),
                    healthy.distance(src, dst),
                    "{} dst {dst}",
                    topo.name()
                );
            }
        }
    }
}

/// A load view that differs per slot, so the least-loaded detour choice
/// and adaptive inner routers actually discriminate between links.
struct SkewedLoad(u64);

impl LinkLoad for SkewedLoad {
    fn load(&self, slot: usize) -> usize {
        ((slot as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.0) as usize % 5
    }
}

/// An inner policy that ignores the destination's direction: it names
/// an arbitrary neighbor, often a non-progressive one, so the masked
/// router's detour rule runs even where no fault is in the way.
struct Wayward<'g>(&'g fibcube_graph::csr::CsrGraph);

impl Router for Wayward<'_> {
    fn name(&self) -> String {
        "wayward".into()
    }

    fn next_hop(&self, cur: u32, dst: u32, _load: &dyn LinkLoad) -> Option<u32> {
        let nbrs = self.0.neighbors(cur);
        (cur != dst && !nbrs.is_empty()).then(|| nbrs[(cur ^ dst) as usize % nbrs.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn static_exception_rows_agree_with_the_dense_table(
        which in 0usize..1_000,
        dead in 0usize..24,
        cut in 0usize..24,
        seed in 0u64..10_000,
    ) {
        // A static fault set on a labelled topology: `for_topology`
        // (label certificate plus exception rows) must answer
        // `reachable`, `distance` and `next_hop` on every pair exactly as
        // `new` (the dense table) does, under an idle and a skewed load,
        // for the topology's own and a wayward inner policy. Up to 46
        // faults push the live fault count past the certificate's bound,
        // so there the rows answer every query.
        let topos = labelled_topologies();
        let topo = &topos[which % topos.len()];
        let g = topo.graph();
        let n = g.num_vertices();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nodes: Vec<u32> = (0..dead).map(|_| (next() % n as u64) as u32).collect();
        let links: Vec<(u32, u32)> = (0..cut)
            .filter(|_| !edges.is_empty())
            .map(|_| edges[(next() % edges.len() as u64) as usize])
            .collect();
        let set = FaultSet::new(nodes, links);
        let inners: [Box<dyn Router + '_>; 2] = [topo.router(), Box::new(Wayward(g))];
        let skewed = SkewedLoad(seed);
        for inner in &inners {
            let labelled = FaultMaskingRouter::for_topology(&**topo, &**inner, &set);
            let dense = FaultMaskingRouter::new(g, &**inner, &set);
            for dst in 0..n as u32 {
                for cur in 0..n as u32 {
                    let reach = dense.reachable(cur, dst);
                    prop_assert_eq!(
                        labelled.reachable(cur, dst), reach,
                        "{}: reachable {}→{} under {:?}", topo.name(), cur, dst, set
                    );
                    prop_assert_eq!(
                        labelled.distance(cur, dst), dense.distance(cur, dst),
                        "{}: distance {}→{} under {:?}", topo.name(), cur, dst, set
                    );
                    if !reach {
                        continue;
                    }
                    for load in [&NoLoad as &dyn LinkLoad, &skewed] {
                        prop_assert_eq!(
                            labelled.next_hop(cur, dst, load),
                            dense.next_hop(cur, dst, load),
                            "{} via {}: next_hop {}→{} under {:?}",
                            topo.name(), dense.name(), cur, dst, set
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn labelled_and_label_less_masked_routers_agree_under_churn(
        family in 0usize..3,
        d in 3usize..=8,
        steps in 1usize..40,
        seed in 0u64..10_000,
    ) {
        // The label certificate must reproduce the table rule decision
        // for decision: after every event of a random fail/recover
        // sequence, `reachable` and `next_hop` agree on all pairs, under
        // an idle and a skewed load, for a load-blind, an adaptive and a
        // wayward inner policy. Up to 39 events push the live fault count past
        // the certificate's bound, so the table fallback is covered too.
        let topo: Box<dyn Topology> = match family {
            0 => Box::new(FibonacciNet::classical(d)),
            1 => Box::new(FibonacciNet::new(d, 3)),
            _ => Box::new(Hypercube::new(d.min(6))),
        };
        let g = topo.graph();
        let n = g.num_vertices();
        let edges: Vec<(u32, u32)> = g.edges().collect();
        let inners = [
            RouterSpec::Preferred.resolve(&*topo).unwrap(),
            RouterSpec::Adaptive.resolve(&*topo).unwrap(),
            Box::new(Wayward(g)),
        ];
        let mut pairs: Vec<_> = inners
            .iter()
            .map(|inner| {
                (
                    FaultMaskingRouter::for_topology(&*topo, &**inner, &FaultSet::empty()),
                    FaultMaskingRouter::new(g, &**inner, &FaultSet::empty()),
                )
            })
            .collect();
        let mut node_down = vec![false; n];
        let mut link_down = vec![false; edges.len()];
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let skewed = SkewedLoad(seed);
        for step in 0..steps {
            let (target, failed) = if next() % 3 == 0 {
                let idx = (next() % n as u64) as usize;
                node_down[idx] = !node_down[idx];
                (ChurnTarget::Node(idx as u32), node_down[idx])
            } else {
                let idx = (next() % edges.len() as u64) as usize;
                link_down[idx] = !link_down[idx];
                let (u, v) = edges[idx];
                (ChurnTarget::Link(u, v), link_down[idx])
            };
            let event = ChurnEvent { cycle: step as u64, target, failed };
            for (labelled, plain) in &mut pairs {
                labelled.apply_event(&event);
                plain.apply_event(&event);
                for dst in 0..n as u32 {
                    for cur in 0..n as u32 {
                        let reach = plain.reachable(cur, dst);
                        prop_assert_eq!(
                            labelled.reachable(cur, dst), reach,
                            "{}: reachable {}→{} after event {} ({:?})",
                            topo.name(), cur, dst, step, event
                        );
                        if !reach {
                            continue;
                        }
                        for load in [&NoLoad as &dyn LinkLoad, &skewed] {
                            prop_assert_eq!(
                                labelled.next_hop(cur, dst, load),
                                plain.next_hop(cur, dst, load),
                                "{} via {}: next_hop {}→{} after event {} ({:?})",
                                topo.name(), plain.name(), cur, dst, step, event
                            );
                        }
                    }
                }
            }
        }
    }
}
