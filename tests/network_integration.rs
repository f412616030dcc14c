//! Experiments E-N1…E-N6: the interconnection-network layer end to end.

use fibcube::network::broadcast::{broadcast_all_port, broadcast_one_port, verify_schedule};
use fibcube::network::engine::{self, Admission, RequestReplyLoad, RunPlan, Workload};
use fibcube::network::fault::{fault_sweep, FaultError};
use fibcube::network::hamilton::{hamiltonian_path, verify_hamiltonian, HamiltonResult};
use fibcube::network::metrics::metrics;
use fibcube::network::sweep::{sweep, Axis, SweepConfig};
use fibcube::network::{
    simulate_reference, AdaptiveMinimal, ChurnTimeline, CopyPlan, DeliveryTracker,
    FaultMaskingRouter, FaultSet, ImplicitFibonacciNet, LinkHeatmap, Mesh, NoopObserver, Ring,
    SimObserver, SimStats, SwitchingSpec, VcOccupancy,
};
use fibcube::prelude::*;

#[test]
fn orders_follow_kbonacci_and_zeckendorf_addressing_roundtrips() {
    for k in 2..=4usize {
        for d in 1..=11usize {
            let net = FibonacciNet::new(d, k);
            assert_eq!(
                net.len() as u128,
                fibcube::words::zeckendorf::count_k_free(k, d),
                "order k={k} d={d}"
            );
            // Node i ↔ k-Zeckendorf code i.
            for i in 0..net.len() as u32 {
                let w = net.label(i);
                assert_eq!(
                    fibcube::words::zeckendorf::kzeckendorf_decode(k, &w),
                    Some(i as u128),
                    "address of node {i}"
                );
            }
        }
    }
}

#[test]
fn distributed_routing_is_bfs_shortest_on_all_topologies() {
    let topos: Vec<Box<dyn Topology>> = vec![
        Box::new(FibonacciNet::classical(8)),
        Box::new(FibonacciNet::new(7, 3)),
        Box::new(Hypercube::new(5)),
        Box::new(fibcube::network::Ring::new(11)),
        Box::new(Mesh::new(5, 4)),
    ];
    for t in &topos {
        let dist = fibcube::graph::distance_matrix(t.graph());
        for s in 0..t.len() as u32 {
            for d in 0..t.len() as u32 {
                let route = t.route(s, d).expect("routing converges");
                assert_eq!(
                    route.len() as u32 - 1,
                    dist[s as usize][d as usize],
                    "{} {s}→{d}",
                    t.name()
                );
            }
        }
    }
}

#[test]
fn simulator_delivers_everything_on_every_topology() {
    let topos: Vec<Box<dyn Topology>> = vec![
        Box::new(FibonacciNet::classical(9)),
        Box::new(Hypercube::new(6)),
        Box::new(Mesh::new(8, 8)),
    ];
    for t in &topos {
        for spec in [
            "uniform(count=1500,window=300)",
            "hotspot(count=800,window=300,hot=0.25)",
            "complement(window=10)",
        ] {
            let traffic: TrafficSpec = spec.parse().expect("scenario specs parse");
            let report = Experiment::on(t.as_ref())
                .traffic(traffic)
                .seed(99)
                .cycles(500_000)
                .run()
                .expect("preferred router resolves everywhere");
            let stats = &report.stats;
            assert_eq!(stats.delivered, stats.offered, "{} {spec}", t.name());
            assert!(stats.mean_latency >= 1.0, "{} {spec}", t.name());
        }
    }
}

#[test]
fn experiment_api_round_trips_through_the_facade() {
    // The facade prelude carries the whole experiment surface: build a
    // scenario from text, attach observers, get a JSON report.
    use fibcube::network::{LatencyHistogram, LinkHeatmap};
    let net = FibonacciNet::classical(9);
    let mut hist = LatencyHistogram::new();
    let mut heat = LinkHeatmap::new();
    let report = Experiment::on(&net)
        .router("adaptive".parse::<RouterSpec>().unwrap())
        .traffic(
            "uniform(count=1000,window=200)"
                .parse::<TrafficSpec>()
                .unwrap(),
        )
        .seed(13)
        .observe((&mut hist, &mut heat))
        .run()
        .expect("adaptive routing on Γ_9");
    assert_eq!(report.stats.delivered, 1000);
    assert_eq!(hist.delivered(), 1000);
    assert_eq!(heat.total_hops(), report.stats.total_hops);
    assert_eq!(hist.histogram(), &report.stats.latency_histogram[..]);
    let json = report.to_json();
    assert!(json.contains("\"topology\": \"Γ_9\""));
    assert!(json.contains("\"router\": \"adaptive\""));

    // Capability errors surface as typed values through `?`.
    let err = Experiment::on(&net)
        .router(RouterSpec::Ecube)
        .run()
        .expect_err("no e-cube routing on a Fibonacci net");
    assert!(err.to_string().contains("e-cube"), "{err}");
}

#[test]
fn latency_ordering_matches_topology_quality() {
    // Uniform traffic: hypercube ≤ fibonacci < mesh < ring (comparable n).
    let gamma = FibonacciNet::classical(8); // 55
    let q = Hypercube::new(6); // 64
    let mesh = Mesh::new(7, 8); // 56
    let ring = fibcube::network::Ring::new(55);
    let lat = |t: &dyn Topology| {
        let pkts = TrafficSpec::Uniform {
            count: 1200,
            window: 600,
        }
        .generate(t.len(), 4242);
        engine::run(
            &RunPlan::new(t, &*t.router(), Workload::Open(&pkts), 500_000),
            1,
            &mut NoopObserver,
        )
        .unwrap()
        .stats
        .mean_latency
    };
    let (lg, lq, lm, lr) = (lat(&gamma), lat(&q), lat(&mesh), lat(&ring));
    assert!(lq <= lg + 0.5, "hypercube {lq} ≲ fibonacci {lg}");
    assert!(lg < lm, "fibonacci {lg} < mesh {lm}");
    assert!(lm < lr, "mesh {lm} < ring {lr}");
}

#[test]
fn broadcast_bounds_hold() {
    let net = FibonacciNet::classical(8);
    let zero = net.node_of(&fibcube::words::Word::zeros(8)).unwrap();
    let ap = broadcast_all_port(&net, zero).expect("Γ_8 is connected");
    assert!(verify_schedule(&net, &ap, false));
    assert_eq!(ap.rounds, 4, "ecc(0^8) = ⌈8/2⌉");
    let op = broadcast_one_port(&net, zero).expect("Γ_8 is connected");
    assert!(verify_schedule(&net, &op, true));
    let floor = (net.len() as f64).log2().ceil() as u32;
    assert!(op.rounds >= floor && op.rounds <= 8 + 2);
}

#[test]
fn collectives_run_live_through_the_facade() {
    // Broadcast as a simulated workload reproduces the static schedule,
    // and its spec round-trips through text like every other spec.
    let net = FibonacciNet::classical(8);
    let spec: CollectiveSpec = "broadcast(source=0,port=one)".parse().unwrap();
    assert_eq!(spec.to_string(), "broadcast(source=0,port=one)");
    let report = Experiment::on(&net)
        .collective(spec)
        .run()
        .expect("healthy broadcast runs");
    let op = broadcast_one_port(&net, 0).unwrap();
    let outcome = report.collective.expect("collective outcome");
    assert_eq!(outcome.completion_cycles, op.rounds as u64);
    assert_eq!(outcome.reached, net.len() - 1);
    assert_eq!(report.stats.delivered, report.stats.offered);
}

#[test]
fn fibonacci_cubes_have_hamiltonian_paths_through_d8() {
    for d in 1..=8usize {
        let net = FibonacciNet::classical(d);
        match hamiltonian_path(net.graph()) {
            HamiltonResult::Found(p) => {
                assert!(verify_hamiltonian(net.graph(), &p, false), "d={d}")
            }
            other => panic!("Γ_{d} must have a Hamiltonian path, got {other:?}"),
        }
    }
}

#[test]
fn metrics_shape_vs_hypercube() {
    // E-N1's qualitative claims on the metric table.
    let gamma = metrics(&FibonacciNet::classical(8)).unwrap();
    let q = metrics(&Hypercube::new(6)).unwrap();
    assert!(gamma.nodes < q.nodes);
    assert!((gamma.links as f64 / gamma.nodes as f64) < (q.links as f64 / q.nodes as f64));
    assert!(gamma.average_distance < 1.25 * q.average_distance);
    assert_eq!(gamma.diameter, 8);
}

#[test]
fn fault_tolerance_shape() {
    // Cubes degrade gracefully; rings shatter.
    let gamma = FibonacciNet::classical(8);
    let ring = fibcube::network::Ring::new(55);
    let g_rows = fault_sweep(&gamma, &[2, 5], 6).expect("valid sweep");
    let r_rows = fault_sweep(&ring, &[2, 5], 6).expect("valid sweep");
    let frac = |rows: &[fibcube::network::FaultSweepRow], i: usize| {
        rows[i]
            .mean_reachable_fraction
            .expect("survivor pairs exist")
    };
    assert!(frac(&g_rows, 0) > frac(&r_rows, 0), "Γ beats ring at k=2");
    assert!(frac(&g_rows, 1) > frac(&r_rows, 1), "Γ beats ring at k=5");
    assert!(
        frac(&g_rows, 1) > 0.9,
        "Γ_8 keeps >90% pairs after 5 faults"
    );
    // Hardened edge cases stay typed errors end to end.
    assert!(matches!(
        fault_sweep(&gamma, &[2], 0),
        Err(FaultError::ZeroTrials)
    ));
    assert!(fault_sweep(&gamma, &[gamma.len()], 3).is_err());
}

#[test]
fn fault_aware_experiment_on_the_acceptance_topology() {
    // Acceptance: a FaultSpec experiment on Γ_16 completes with
    // delivered + dropped + in-flight packet conservation, and the
    // zero-fault path is packet-for-packet identical to the healthy
    // engine.
    let gamma = FibonacciNet::classical(16);
    let traffic: TrafficSpec = "uniform(count=2000,window=400)".parse().unwrap();

    let healthy = Experiment::on(&gamma)
        .traffic(traffic.clone())
        .seed(9)
        .run()
        .expect("healthy run");
    let zero_fault = Experiment::on(&gamma)
        .traffic(traffic.clone())
        .faults("nodes(count=0)".parse::<FaultSpec>().unwrap())
        .seed(9)
        .run()
        .expect("zero-fault run");
    assert_eq!(zero_fault.stats, healthy.stats, "zero faults ≡ healthy");

    let mut tracker = DeliveryTracker::new();
    let degraded = Experiment::on(&gamma)
        .traffic(traffic)
        .faults(
            "mix(nodes(count=120)+links(count=40))"
                .parse::<FaultSpec>()
                .unwrap(),
        )
        .seed(9)
        .observe(&mut tracker)
        .run()
        .expect("degraded run");
    let s = &degraded.stats;
    assert_eq!(
        s.delivered + s.dropped(),
        s.offered,
        "uncapped: every packet delivered or typed-dropped"
    );
    assert!(s.dropped_dead_endpoint > 0, "120 dead nodes must show up");
    assert!(s.delivered > 0, "survivors still communicate");
    assert!(
        s.delivered < healthy.stats.delivered,
        "faults cost throughput"
    );
    // Observer and engine agree on every packet's fate.
    assert_eq!(tracker.injected() as usize, s.offered);
    assert_eq!(tracker.delivered() as usize, s.delivered);
    assert_eq!(tracker.dropped() as usize, s.dropped());
    assert_eq!(tracker.in_flight(), 0);
    // The report is self-describing about the scenario.
    assert_eq!(degraded.failed_nodes, 120);
    let json = degraded.to_json();
    assert!(json.contains("\"faults\": \"mix(nodes(count=120)+links(count=40))\""));
}

/// A topology that delegates everything to the wrapped one except
/// `cube_labels`, so every fault-masking router built on it takes the
/// label-less, table-only path.
struct Unlabelled<'a>(&'a dyn Topology);

impl Topology for Unlabelled<'_> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn graph(&self) -> &CsrGraph {
        self.0.graph()
    }

    fn next_hop(&self, cur: u32, dst: u32) -> Option<u32> {
        self.0.next_hop(cur, dst)
    }

    fn diameter_bound(&self) -> usize {
        self.0.diameter_bound()
    }

    fn channel_class(&self, u: u32, v: u32) -> u32 {
        self.0.channel_class(u, v)
    }

    fn router(&self) -> Box<dyn Router + Send + Sync + '_> {
        self.0.router()
    }

    fn resolve_router(&self, spec: RouterSpec) -> Option<Box<dyn Router + Send + Sync + '_>> {
        self.0.resolve_router(spec)
    }
}

#[test]
fn label_certified_routing_equals_the_table_router_end_to_end() {
    // The label certificate is a pure speed-up: on a topology with cube
    // labels, every masked run must equal the same run with the labels
    // hidden — full SimStats and report JSON, serial and sharded — for
    // churned closed- and open-loop traffic and for static faults.
    let rr: TrafficSpec = "request_reply(clients=48,think=10,timeout=80,retries=2)"
        .parse()
        .unwrap();
    let uniform = TrafficSpec::Uniform {
        count: 3000,
        window: 1500,
    };
    let light: FaultSpec = "churn(node_rate=0.01,link_rate=0.02,mttr=100)"
        .parse()
        .unwrap();
    // Enough live faults to cross the certificate's bound and back.
    let heavy: FaultSpec = "churn(node_rate=0.04,link_rate=0.08,mttr=400)"
        .parse()
        .unwrap();
    let fixed: FaultSpec = "mix(nodes(count=4)+links(count=6))".parse().unwrap();
    let configs = [
        (rr.clone(), light.clone()),
        (rr.clone(), heavy.clone()),
        (rr, fixed.clone()),
        (uniform.clone(), light),
        (uniform.clone(), heavy),
        (uniform, fixed),
    ];
    let gamma = FibonacciNet::classical(12);
    let q93 = FibonacciNet::new(9, 3);
    for topo in [&gamma as &dyn Topology, &q93] {
        assert!(topo.cube_labels().is_some(), "{}", topo.name());
        let hidden = Unlabelled(topo);
        assert!(hidden.cube_labels().is_none());
        for (traffic, faults) in &configs {
            let run = |t: &dyn Topology, faults: &FaultSpec, threads: usize| {
                Experiment::on(t)
                    .traffic(traffic.clone())
                    .faults(faults.clone())
                    .cycles(3000)
                    .seed(11)
                    .threads(threads)
                    .run()
                    .unwrap()
            };
            let healthy = run(topo, &FaultSpec::None, 1);
            for threads in [1usize, 2] {
                let labelled = run(topo, faults, threads);
                let plain = run(&hidden, faults, threads);
                let what = format!("{} {traffic} {faults} threads={threads}", topo.name());
                assert_ne!(labelled.stats, healthy.stats, "faults must bite: {what}");
                assert_eq!(labelled.stats, plain.stats, "{what}");
                assert_eq!(labelled.to_json(), plain.to_json(), "{what}");
            }
        }
    }
}

#[test]
fn masked_runs_on_implicit_gamma_24_keep_no_distance_table() {
    // Γ_24 has 121 393 nodes: a dense distance table would need 29 GB,
    // far over its budget. With cube labels the masked router keeps
    // exception rows instead, so churn and a static mask both run, and
    // give the same statistics at one lane and at two.
    let net = ImplicitFibonacciNet::classical(24);
    let traffic = TrafficSpec::Uniform {
        count: 300,
        window: 100,
    };
    let churn: FaultSpec = "churn(node_rate=0.05,link_rate=0.1,mttr=50)"
        .parse()
        .unwrap();
    let fixed: FaultSpec = "nodes(count=8)".parse().unwrap();
    for faults in [churn, fixed] {
        let run = |threads: usize| {
            Experiment::on(&net)
                .traffic(traffic.clone())
                .faults(faults.clone())
                .cycles(400)
                .seed(3)
                .threads(threads)
                .run()
                .unwrap_or_else(|e| panic!("{faults} threads={threads}: {e}"))
        };
        let one = run(1);
        assert!(one.stats.delivered > 0, "{faults}: {:?}", one.stats);
        assert!(
            one.router.starts_with("fault-masked"),
            "{faults}: {}",
            one.router
        );
        assert_eq!(run(2).stats, one.stats, "{faults}: 2 lanes ≡ 1 lane");
    }
}

#[test]
fn engine_support_table_is_typed_and_lane_independent() {
    // Every (switching × admission × workload) cell of `engine::run` on
    // Γ_10: an unsupported cell is its typed error; a supported cell is
    // bit-identical at 1 and 3 lanes and conserves packets.
    let net = FibonacciNet::classical(10);
    let router = net.router();
    let cap = 20_000;
    let pkts = TrafficSpec::Uniform {
        count: 600,
        window: 300,
    }
    .generate(net.len(), 7);
    let load = RequestReplyLoad {
        clients: 16,
        think: 5.0,
        timeout: 100,
        retries: 2,
        seed: 7,
    };
    let schedule = broadcast_one_port(&net, 0).expect("Γ_10 is connected");
    let copies = CopyPlan::from_schedule(net.graph(), &schedule, true);
    let faults = FaultSet::new([3u32, 20, 41], [(0u32, 1u32)]);
    let mask = FaultMaskingRouter::for_topology(&net, &*router, &faults);
    let timeline = ChurnTimeline::generate(net.graph(), 0.002, 0.004, 300.0, 7, cap);
    assert!(!timeline.is_empty(), "the churn cell must see events");
    let wormhole = SwitchingSpec::Wormhole {
        flit_size: 4,
        vcs: 2,
        buf_flits: 4,
    };
    let mut supported = 0;
    for switching in [SwitchingSpec::StoreAndForward, wormhole] {
        let admissions = [
            ("healthy", Admission::Healthy),
            ("static", Admission::Static(&mask)),
            ("churn", Admission::Churn(&timeline)),
        ];
        for (a, admission) in admissions {
            let workloads = [
                ("open", Workload::Open(&pkts)),
                ("closed", Workload::Closed(&load)),
                ("tree", Workload::Copies(&copies)),
            ];
            for (w, workload) in workloads {
                let cell = format!("{switching} × {a} × {w}");
                let plan = RunPlan::new(&net, &*router, workload, cap)
                    .switching(switching.clone())
                    .admission(admission);
                let expected = match (switching.is_wormhole(), a, w) {
                    (true, _, "tree") => Some("UnsupportedCombination"),
                    (false, "static", "tree") => Some("InvalidCollective"),
                    (_, "churn", "tree") => Some("UnsupportedDynamic"),
                    (true, "churn", _) | (true, _, "closed") => Some("UnsupportedDynamic"),
                    _ => None,
                };
                let mut tracker = DeliveryTracker::new();
                let one = engine::run(&plan, 1, &mut tracker);
                if let Some(kind) = expected {
                    let err = one.expect_err(&cell);
                    assert!(format!("{err:?}").starts_with(kind), "{cell}: {err:?}");
                    let three = engine::run(&plan, 3, &mut NoopObserver);
                    assert_eq!(three.expect_err(&cell), err, "{cell}");
                    continue;
                }
                supported += 1;
                let one = one.unwrap_or_else(|e| panic!("{cell}: {e}"));
                let three = engine::run(&plan, 3, &mut NoopObserver).expect(&cell);
                assert_eq!(three, one, "{cell}: 3 lanes ≡ 1 lane");
                let stats = &one.stats;
                assert!(stats.delivered > 0, "{cell}");
                assert_eq!(stats.delivered as u64, tracker.delivered(), "{cell}");
                assert_eq!(stats.dropped() as u64, tracker.dropped(), "{cell}");
                assert_eq!(stats.offered as u64, tracker.injected(), "{cell}");
                if w == "closed" {
                    // At most one open transaction per session at the cap.
                    assert!(tracker.in_flight() <= load.clients as u64, "{cell}");
                } else {
                    assert_eq!(tracker.in_flight(), 0, "{cell}: drained under the cap");
                }
            }
        }
    }
    assert_eq!(supported, 9, "supported cells of the table");
}

#[test]
fn sweep_grid_follows_its_seeding_contract() {
    // Cell `c` at seed `s` draws its traffic at seed `s ^ (c << 32)`, and
    // its fault column `f` draws faults as an experiment seeded
    // `s ^ (f << 32)` does — whose fault stream is that seed xor a fixed
    // salt. Every point is the seed mean of those direct runs.
    const FAULT_SALT: u64 = 0xFA17_5EED_0C0D_ED00;
    let rung = |s: u64, i: usize| s ^ ((i as u64) << 32);
    let net = FibonacciNet::classical(8);
    let (rates, counts) = ([0.05, 0.2], [0usize, 6]);
    let config = SweepConfig {
        inject_cycles: 100,
        drain_cycles: 1_000,
        seeds: vec![1, 2],
    };
    let cap = config.inject_cycles + config.drain_cycles;
    let exp = Experiment::on(&net).router(RouterSpec::Adaptive);
    let axes = [
        Axis::Rates(rates.to_vec()),
        Axis::NodeFaults(counts.to_vec()),
    ];
    let grid = sweep(&exp, &axes, &config).expect("valid grid");
    for (ri, &rate) in rates.iter().enumerate() {
        for (fi, &count) in counts.iter().enumerate() {
            let cell = ri * counts.len() + fi;
            let runs: Vec<SimStats> = config
                .seeds
                .iter()
                .map(|&s| {
                    let faults = FaultSpec::Nodes { count }
                        .sample(net.graph(), rung(s, fi) ^ FAULT_SALT)
                        .expect("6 of 55 nodes is survivable");
                    exp.clone()
                        .traffic(TrafficSpec::Bernoulli {
                            rate,
                            cycles: config.inject_cycles,
                        })
                        .faults(FaultSpec::NodeList(faults.failed_nodes().to_vec()))
                        .seed(rung(s, cell))
                        .cycles(cap)
                        .run()
                        .expect("valid cell")
                        .stats
                })
                .collect();
            let mean = |f: fn(&SimStats) -> f64| runs.iter().map(f).sum::<f64>() / 2.0;
            let p = grid.point(&[ri, fi]);
            let what = format!("rate {rate}, {count} faults");
            assert_eq!(p.offered, mean(|s| s.offered as f64), "{what}");
            assert_eq!(p.delivered, mean(|s| s.delivered as f64), "{what}");
            assert_eq!(
                p.dropped_dead_endpoint,
                mean(|s| s.dropped_dead_endpoint as f64),
                "{what}"
            );
            assert_eq!(
                p.dropped_unreachable,
                mean(|s| s.dropped_unreachable as f64),
                "{what}"
            );
            assert_eq!(p.mean_latency, mean(|s| s.mean_latency), "{what}");
            assert_eq!(p.p99_latency, mean(|s| s.p99_latency as f64), "{what}");
            assert_eq!(p.makespan, mean(|s| s.makespan as f64), "{what}");
        }
    }
    assert!(
        grid.point(&[1, 1]).dropped_dead_endpoint > 0.0,
        "faults bite"
    );

    // No axes and one seed: the one cell is `Experiment::run` at that
    // seed, through the same runner `run_batch` uses.
    let faulted = exp
        .traffic(TrafficSpec::Uniform {
            count: 300,
            window: 60,
        })
        .faults(FaultSpec::Nodes { count: 6 })
        .cycles(cap);
    let direct = faulted.clone().seed(9).run().expect("valid configuration");
    let batch = faulted.run_batch(&[9]).expect("valid configuration");
    assert_eq!(batch[0].stats, direct.stats);
    assert_eq!(batch[0].failed_nodes, direct.failed_nodes);
    assert_eq!(direct.failed_nodes, 6);
    let one_seed = SweepConfig {
        seeds: vec![9],
        ..config
    };
    let grid = sweep(&faulted, &[], &one_seed).expect("valid grid");
    let p = &grid.points[0];
    let s = &direct.stats;
    assert_eq!(grid.points.len(), 1);
    assert_eq!(p.offered, s.offered as f64);
    assert_eq!(p.delivered, s.delivered as f64);
    assert_eq!(p.dropped_dead_endpoint, s.dropped_dead_endpoint as f64);
    assert_eq!(p.mean_latency, s.mean_latency);
    assert_eq!(p.p99_latency, s.p99_latency as f64);
    assert_eq!(p.makespan, s.makespan as f64);
}

#[test]
fn request_reply_with_an_unbounded_timeout_never_times_out() {
    // A `u64::MAX` reply deadline means "never": scheduling saturates
    // instead of wrapping, so no transaction times out, retries or
    // drops, and every session but the ones mid-transaction at the cap
    // completes its transactions.
    let net = FibonacciNet::classical(6);
    let clients = 4;
    let rr: TrafficSpec =
        format!("request_reply(clients={clients},think=5,timeout=18446744073709551615,retries=1)")
            .parse()
            .expect("valid spec");
    let report = Experiment::on(&net)
        .traffic(rr)
        .cycles(2_000)
        .seed(3)
        .run()
        .expect("a healthy closed loop runs");
    let s = &report.stats;
    assert_eq!(s.dropped(), 0, "{s:?}");
    assert!(s.offered > clients, "{s:?}");
    assert!(s.delivered + clients >= s.offered, "{s:?}");
}

/// FNV-1a over a latency histogram's counts: one number that pins every
/// bucket of the distribution.
fn histogram_digest(hist: &[u64]) -> u64 {
    hist.iter().fold(0xcbf2_9ce4_8422_2325, |h, &c| {
        (h ^ c).wrapping_mul(0x100_0000_01b3)
    })
}

/// The recorded outcome of one multi-flit wormhole run.
struct FlitGolden {
    delivered: usize,
    makespan: u64,
    mean_latency: f64,
    p99_latency: u64,
    total_hops: u64,
    throughput: f64,
    /// `(len, digest)` of the exact latency histogram.
    histogram: (usize, u64),
    /// `VcOccupancy` flit-buffer entries on VCs 0, 1, 2.
    vc_flit_hops: [u64; 3],
    /// `LinkHeatmap` directed links used and its hottest link.
    links_used: usize,
    hottest: (u32, u32, u64),
}

#[test]
fn multi_flit_wormhole_runs_reproduce_their_golden_values() {
    // Blocking, multi-VC wormhole runs pinned to values recorded from the
    // plain edge-scan engine: full `SimStats`, the per-VC flit-hop counts
    // and the link heatmap, at 1 and 3 lanes. Γ_12 under the canonical
    // router congests its hubs (VC 0 only: canonical routes are
    // class-ordered), adaptive Q_7 spreads over three VCs, and the
    // ring's dateline escapes wrap routes to VC 1.
    let gamma = FibonacciNet::classical(12);
    let q = Hypercube::new(7);
    let ring = Ring::new(12);
    let canonical = gamma.router();
    let adaptive = AdaptiveMinimal::new(&q);
    let ring_router = ring.router();
    let wormhole = |flit_size, vcs, buf_flits| SwitchingSpec::Wormhole {
        flit_size,
        vcs,
        buf_flits,
    };
    let cases: [(&dyn Topology, &(dyn Router + Sync), _, _, _); 3] = [
        (
            &gamma,
            &*canonical,
            wormhole(4, 2, 4),
            (1500, 600),
            FlitGolden {
                delivered: 1500,
                makespan: 1320,
                mean_latency: 163.552,
                p99_latency: 1046,
                total_hops: 7286,
                throughput: 1.1363636363636365,
                histogram: (0x4da, 0xbbe3_c41f_60bb_ae4d),
                vc_flit_hops: [58288, 0, 0],
                links_used: 1630,
                hottest: (0, 233, 150),
            },
        ),
        (
            &q,
            &adaptive,
            wormhole(8, 3, 2),
            (1200, 500),
            FlitGolden {
                delivered: 1200,
                makespan: 507,
                mean_latency: 6.804166666666666,
                p99_latency: 12,
                total_hops: 4177,
                throughput: 2.366863905325444,
                histogram: (0x14, 0x1d5b_f4b4_f48d_74e9),
                vc_flit_hops: [6512, 6064, 4132],
                links_used: 769,
                hottest: (1, 0, 43),
            },
        ),
        (
            &ring,
            &*ring_router,
            wormhole(8, 2, 2),
            (300, 200),
            FlitGolden {
                delivered: 300,
                makespan: 561,
                mean_latency: 100.57,
                p99_latency: 462,
                total_hops: 1010,
                throughput: 0.5347593582887701,
                histogram: (0x1e7, 0x93d8_fdce_0246_6123),
                vc_flit_hops: [3572, 468, 0],
                links_used: 24,
                hottest: (9, 10, 58),
            },
        ),
    ];
    for (topo, router, spec, (count, window), gold) in cases {
        let pkts = TrafficSpec::Uniform { count, window }.generate(topo.len(), 5);
        let plan = RunPlan::new(topo, router, Workload::Open(&pkts), 1_000_000).switching(spec);
        for lanes in [1, 3] {
            let what = format!("{} {} lanes={lanes}", topo.name(), plan.switching);
            let mut obs = (VcOccupancy::new(), LinkHeatmap::new());
            let s = engine::run(&plan, lanes, &mut obs).expect(&what).stats;
            assert_eq!(s.offered, count, "{what}");
            assert_eq!(s.dropped(), 0, "{what}");
            assert_eq!(s.delivered, gold.delivered, "{what}");
            assert_eq!(s.makespan, gold.makespan, "{what}");
            assert_eq!(s.mean_latency, gold.mean_latency, "{what}");
            assert_eq!(s.p99_latency, gold.p99_latency, "{what}");
            assert_eq!(s.total_hops, gold.total_hops, "{what}");
            assert_eq!(s.throughput, gold.throughput, "{what}");
            let hist = &s.latency_histogram;
            assert_eq!(
                (hist.len(), histogram_digest(hist)),
                gold.histogram,
                "{what}"
            );
            let (vc, heat) = &obs;
            assert_eq!(
                [0, 1, 2].map(|v| vc.flit_hops(v)),
                gold.vc_flit_hops,
                "{what}"
            );
            assert_eq!(vc.flit_hops(3), 0, "{what}");
            assert_eq!(heat.total_hops(), gold.total_hops, "{what}");
            assert_eq!(heat.links_used(), gold.links_used, "{what}");
            assert_eq!(heat.hottest(1), vec![gold.hottest], "{what}");
        }
    }
}

/// A star: hub 0 linked to `leaves` leaves. With more than 64 leaves the
/// hub's out-edges span more than one word of the lane chassis' edge
/// bitset, so both engines' forward scans cross word boundaries at one
/// node — the degree > 64 case, which needs no separate scan path.
struct Star {
    graph: CsrGraph,
}

impl Star {
    fn new(leaves: u32) -> Star {
        let edges: Vec<(u32, u32)> = (1..=leaves).map(|leaf| (0, leaf)).collect();
        Star {
            graph: CsrGraph::from_edges(leaves as usize + 1, &edges),
        }
    }
}

impl Topology for Star {
    fn name(&self) -> String {
        format!("Star_{}", self.graph.num_vertices() - 1)
    }

    fn len(&self) -> usize {
        self.graph.num_vertices()
    }

    fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    fn next_hop(&self, cur: u32, dst: u32) -> Option<u32> {
        match (cur == dst, cur) {
            (true, _) => None,
            (false, 0) => Some(dst),
            (false, _) => Some(0),
        }
    }

    fn diameter_bound(&self) -> usize {
        2
    }

    /// Inbound links rank below outbound ones, so every leaf → hub →
    /// leaf route climbs the class order.
    fn channel_class(&self, u: u32, _v: u32) -> u32 {
        u32::from(u == 0)
    }
}

#[test]
fn hubs_above_64_links_forward_through_the_plain_edge_scan() {
    let star = Star::new(70);
    assert_eq!(star.graph().max_degree(), 70);
    let router = star.router();
    let pkts = TrafficSpec::Uniform {
        count: 2000,
        window: 400,
    }
    .generate(star.len(), 9);
    let reference = simulate_reference(&star, &pkts, 1_000_000);
    let wormhole = SwitchingSpec::Wormhole {
        flit_size: 4,
        vcs: 2,
        buf_flits: 4,
    };
    for switching in [SwitchingSpec::StoreAndForward, wormhole] {
        let plan = RunPlan::new(&star, &*router, Workload::Open(&pkts), 1_000_000)
            .switching(switching.clone());
        let one = engine::run(&plan, 1, &mut NoopObserver).expect("healthy open runs");
        let three = engine::run(&plan, 3, &mut NoopObserver).expect("healthy open runs");
        assert_eq!(three, one, "{switching}: 3 lanes ≡ 1 lane");
        assert_eq!(one.stats.delivered, one.stats.offered, "{switching}");
        assert_eq!(one.stats.offered, pkts.len(), "{switching}");
        if !switching.is_wormhole() {
            assert_eq!(one.stats, reference, "store-and-forward ≡ reference");
        }
    }
}

/// An observer whose every fork panics when a packet reaches a node in
/// the upper half of the network, which a sharded run owns on a lane
/// other than lane 0.
#[derive(Clone, Copy)]
struct PanicsInUpperHalf {
    half: u32,
}

impl SimObserver for PanicsInUpperHalf {
    fn fork(&self) -> Option<Self> {
        Some(*self)
    }

    fn on_deliver(&mut self, _cycle: u64, dst: u32, _latency: u64) {
        assert!(dst < self.half, "observer fault at node {dst}");
    }
}

#[test]
fn a_panicking_lane_fails_the_run_instead_of_hanging_it() {
    for lanes in [2, 3] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let net = FibonacciNet::classical(10);
            let observer = PanicsInUpperHalf {
                half: net.len() as u32 / 2,
            };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Experiment::on(&net)
                    .traffic("uniform(count=2000,window=200)".parse().unwrap())
                    .threads(lanes)
                    .observe(observer)
                    .run()
            }));
            tx.send(run.map(|_| ()).map_err(|payload| {
                let text = payload.downcast_ref::<String>();
                text.cloned().unwrap_or_default()
            }))
        });
        let run = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{lanes} lanes: the run hung after a lane panicked"));
        let message = run.expect_err("the observer panics on a delivery");
        assert!(
            message.starts_with("observer fault at node"),
            "{lanes} lanes: the first lane's panic is re-raised, got {message:?}"
        );
    }
}
