//! The interconnection-network evaluation (the ICPP'93 reading): compare
//! the Fibonacci cube against hypercube / ring / mesh of comparable order
//! on static metrics, routed traffic, broadcast, and fault tolerance —
//! every simulation driven through the unified `Experiment` API.
//!
//! Run with `cargo run --release --example network_sim`.

use fibcube::network::broadcast::{broadcast_all_port, broadcast_one_port};
use fibcube::network::fault::{fault_sweep, FaultSpec};
use fibcube::network::metrics::metrics;
use fibcube::network::sweep::{rate_ladder, saturation_point, sweep, Axis, SweepConfig};
use fibcube::network::{
    CollectiveSpec, DeliveryTracker, Experiment, LatencyHistogram, LinkHeatmap, Port, RouterSpec,
    TrafficSpec,
};
use fibcube::prelude::*;

fn main() {
    // Comparable orders: Γ_8 (55), Q_6 (64), 7×8 mesh (56), Ring_55.
    let gamma = FibonacciNet::classical(8);
    let q = Hypercube::new(6);
    let mesh = fibcube::network::Mesh::new(7, 8);
    let ring = fibcube::network::Ring::new(55);
    let topos: Vec<&dyn Topology> = vec![&gamma, &q, &mesh, &ring];

    println!("== static figures of merit ==\n");
    println!(
        "{:<10} {:>6} {:>7} {:>7} {:>7} {:>9} {:>10} {:>6}",
        "network", "nodes", "links", "degmin", "degmax", "diameter", "avg dist", "cost"
    );
    for t in &topos {
        let m = metrics(*t).expect("example topologies fit the table budget");
        println!(
            "{:<10} {:>6} {:>7} {:>7} {:>7} {:>9} {:>10.3} {:>6}",
            m.name,
            m.nodes,
            m.links,
            m.min_degree,
            m.max_degree,
            m.diameter,
            m.average_distance,
            m.cost
        );
    }

    // Scenario specs are plain text — parseable from a CLI flag or a
    // report — and every run below goes through the same builder.
    let uniform: TrafficSpec = "uniform(count=2000,window=400)".parse().unwrap();
    let hotspot: TrafficSpec = "hotspot(count=2000,window=400,hot=0.3)".parse().unwrap();

    println!("\n== uniform random traffic ({uniform}) ==\n");
    println!(
        "{:<10} {:>9} {:>10} {:>9} {:>10} {:>11}",
        "network", "delivered", "mean lat", "p99 lat", "makespan", "throughput"
    );
    for t in &topos {
        let r = Experiment::on(*t)
            .traffic(uniform.clone())
            .seed(2026)
            .run()
            .expect("uniform traffic runs everywhere");
        println!(
            "{:<10} {:>9} {:>10.2} {:>9} {:>10} {:>11.3}",
            r.topology,
            r.stats.delivered,
            r.stats.mean_latency,
            r.stats.p99_latency,
            r.stats.makespan,
            r.stats.throughput
        );
    }

    println!("\n== hot-spot traffic ({hotspot}) ==\n");
    println!("{:<10} {:>10} {:>9}", "network", "mean lat", "p99 lat");
    for t in &topos {
        let r = Experiment::on(*t)
            .traffic(hotspot.clone())
            .seed(7)
            .run()
            .expect("hot-spot traffic runs everywhere");
        println!(
            "{:<10} {:>10.2} {:>9}",
            r.topology, r.stats.mean_latency, r.stats.p99_latency
        );
    }

    println!("\n== one-to-all broadcast from node 0 (static schedule vs live collective) ==\n");
    println!(
        "{:<10} {:>14} {:>14} {:>12} {:>10} {:>12}",
        "network", "all-port rnds", "one-port rnds", "⌈log2 n⌉", "live rnds", "live faulted"
    );
    for t in &topos {
        let ap = broadcast_all_port(*t, 0).expect("connected network");
        let op = broadcast_one_port(*t, 0).expect("connected network");
        let floor = (t.len() as f64).log2().ceil() as u32;
        // The same broadcast as a live simulated workload: healthy (must
        // reproduce the static round count) and under 5 node faults
        // (degrades to the survivor component).
        let spec = CollectiveSpec::Broadcast {
            source: 0,
            port: Port::One,
        };
        let live = Experiment::on(*t)
            .collective(spec.clone())
            .run()
            .expect("healthy broadcast runs everywhere");
        let live = live.collective.expect("collective outcome");
        assert_eq!(live.completion_cycles, op.rounds as u64);
        let faulted = Experiment::on(*t)
            .collective(spec)
            .faults(FaultSpec::Nodes { count: 5 })
            .seed(7)
            .run()
            .expect("degraded broadcast runs everywhere");
        let faulted = faulted.collective.expect("collective outcome");
        println!(
            "{:<10} {:>14} {:>14} {:>12} {:>10} {:>9}/{:<3}",
            t.name(),
            ap.rounds,
            op.rounds,
            floor,
            live.completion_cycles,
            faulted.reached,
            faulted.targets,
        );
    }

    println!("\n== fault tolerance: reachable-pair fraction after k failures ==\n");
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}",
        "network", "k=0", "k=1", "k=2", "k=5"
    );
    for t in &topos {
        let rows = fault_sweep(*t, &[0, 1, 2, 5], 8).expect("valid fault counts");
        let cell = |i: usize| {
            rows[i]
                .mean_reachable_fraction
                .map_or_else(|| "n/a".to_string(), |x| format!("{x:.4}"))
        };
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>8}",
            t.name(),
            cell(0),
            cell(1),
            cell(2),
            cell(3)
        );
    }

    println!("\n== simulating failures: live traffic on degraded networks ==\n");
    // Failure scenarios are specs, exactly like traffic: parse one from
    // text, hand it to the builder, and the engine reroutes survivors
    // while typing every drop.
    let faults: FaultSpec = "nodes(count=5)".parse().unwrap();
    println!(
        "{:<10} {:>9} {:>10} {:>9} {:>12}",
        "network", "delivered", "dead drops", "unreach", "deliv frac"
    );
    for t in &topos {
        let mut tracker = DeliveryTracker::new();
        let r = Experiment::on(*t)
            .traffic(uniform.clone())
            .faults(faults.clone())
            .seed(2026)
            .observe(&mut tracker)
            .run()
            .expect("degraded uniform traffic runs everywhere");
        assert_eq!(
            r.stats.delivered + r.stats.dropped(),
            r.stats.offered,
            "uncapped runs deliver or typed-drop every packet"
        );
        println!(
            "{:<10} {:>9} {:>10} {:>9} {:>11.1}%",
            r.topology,
            r.stats.delivered,
            r.stats.dropped_dead_endpoint,
            r.stats.dropped_unreachable,
            100.0 * tracker.delivered_fraction().unwrap_or(0.0)
        );
    }
    println!("(packets to or from a dead node drop as `dead endpoint`; survivor");
    println!(" pairs cut apart by the faults drop as `unreachable`; the rest");
    println!(" detour around the failures — the ring pays the most, the cubes");
    println!(" the least, which is the 1993 fault-tolerance claim live)");

    println!("\n== routing policies under hot-spot load (Γ_8, observers on) ==\n");
    println!(
        "{:<12} {:>10} {:>9} {:>14}",
        "router", "mean lat", "p99 lat", "hottest link"
    );
    for spec in [RouterSpec::Canonical, RouterSpec::Adaptive] {
        let mut hist = LatencyHistogram::new();
        let mut heat = LinkHeatmap::new();
        let r = Experiment::on(&gamma)
            .router(spec)
            .traffic(hotspot.clone())
            .seed(7)
            .observe((&mut hist, &mut heat))
            .run()
            .expect("Γ_8 runs canonical and adaptive routing");
        let (from, to, count) = heat.hottest(1)[0];
        println!(
            "{:<12} {:>10.2} {:>9} {:>7}→{:<3} ×{}",
            r.router,
            hist.mean(),
            hist.p99(),
            from,
            to,
            count
        );
    }
    println!("(deterministic canonical routing funnels the hot-spot return traffic");
    println!(" through one link; the adaptive router spreads it — the heatmap");
    println!(" observer is how you see that without re-instrumenting the engine)");

    println!("\n== injection-rate sweep: saturation of Γ_10 vs Q_7 ==\n");
    let gamma10 = FibonacciNet::classical(10);
    let q7 = Hypercube::new(7);
    let rates = rate_ladder(0.4, 4);
    let config = SweepConfig {
        inject_cycles: 150,
        drain_cycles: 1_500,
        seeds: vec![1, 2],
    };
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>10}",
        "network", "rate", "accepted", "mean lat", "deliv %"
    );
    let ladder = [Axis::Rates(rates.clone())];
    for grid in [
        sweep(
            &Experiment::on(&gamma10).router(RouterSpec::Adaptive),
            &ladder,
            &config,
        )
        .unwrap(),
        sweep(
            &Experiment::on(&q7).router(RouterSpec::Ecube),
            &ladder,
            &config,
        )
        .unwrap(),
    ] {
        for (rate, p) in rates.iter().zip(&grid.points) {
            println!(
                "{:<8} {:>8.2} {:>10.4} {:>10.2} {:>9.1}%",
                grid.topology,
                rate,
                p.accepted_rate.unwrap_or(0.0),
                p.mean_latency,
                100.0 * p.delivered_fraction.unwrap_or(1.0)
            );
        }
        if let Some(i) = saturation_point(&grid, 0.95) {
            println!(
                "  {} sustains ≈{:.3} pkt/node/cycle\n",
                grid.topology,
                grid.points[i].accepted_rate.unwrap_or(0.0)
            );
        }
    }

    println!("\n== a report is a JSON document ==\n");
    let report = Experiment::on(&gamma)
        .router(RouterSpec::Adaptive)
        .traffic(
            "mix(uniform(count=300,window=100)+complement(window=10))"
                .parse()
                .unwrap(),
        )
        .seed(1)
        .run()
        .unwrap();
    println!("{report}");
    let json = report.to_json();
    // Print the head; the full document includes the latency histogram.
    for line in json.lines().take(8) {
        println!("{line}");
    }
    println!("  …\n");

    println!("Shape check: the Fibonacci cube tracks the hypercube closely at");
    println!("~14% fewer links per node, and dominates ring/mesh on latency —");
    println!("the 1993 paper's qualitative claim.");
}
