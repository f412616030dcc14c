//! The benchmark's workloads. Each one is a single [`Experiment`]
//! configuration written as spec strings and parsed through the public
//! `FromStr` impls, so a workload reads exactly like a CLI invocation.

use fibcube_network::{
    DeliveryTracker, Experiment, ExperimentError, FaultSpec, FibonacciNet, ImplicitFibonacciNet,
    Report, RouterSpec, SloTracker, SwitchingSpec, Topology, TrafficSpec,
};

/// Which Fibonacci-cube representation a workload runs on.
#[derive(Clone, Copy, Debug)]
pub enum Net {
    /// Γ_d with materialised labels (`FibonacciNet::classical`).
    Dense(usize),
    /// Γ_d addressed by Zeckendorf rank (`ImplicitFibonacciNet::classical`).
    Implicit(usize),
}

/// A built network: the topology the experiments borrow.
pub enum Topo {
    Dense(FibonacciNet),
    Implicit(ImplicitFibonacciNet),
}

impl Topo {
    /// Builds the topology and its CSR graph (the implicit network
    /// streams its graph lazily; forcing it here keeps set-up out of the
    /// first `run`).
    pub fn build(net: Net) -> Topo {
        match net {
            Net::Dense(d) => Topo::Dense(FibonacciNet::classical(d)),
            Net::Implicit(d) => {
                let t = ImplicitFibonacciNet::classical(d);
                t.graph();
                Topo::Implicit(t)
            }
        }
    }

    pub fn get(&self) -> &dyn Topology {
        match self {
            Topo::Dense(t) => t,
            Topo::Implicit(t) => t,
        }
    }

    /// Bytes held by the CSR graph: `u32` offsets plus `u32` targets.
    pub fn graph_bytes(&self) -> usize {
        let g = self.get().graph();
        (g.num_vertices() + 1 + g.num_directed_edges()) * 4
    }
}

/// One benchmark workload: an experiment configuration plus the facts
/// about it the per-layer accounting needs.
pub struct Workload {
    pub name: String,
    pub net: Net,
    pub router: RouterSpec,
    pub traffic: TrafficSpec,
    pub switching: SwitchingSpec,
    pub faults: FaultSpec,
    /// Cycle cap (`u64::MAX`: run until drained).
    pub cycles: u64,
    /// Lane count of the timed runs.
    pub lanes: usize,
    /// `SloTracker` window, when the workload attaches one.
    pub slo_window: Option<u64>,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "g16-saf",
    "g24-implicit-2lane",
    "g16-churn-rr",
    "g16-wormhole",
];

impl Workload {
    /// The named workload at full size, or at the self-test's `tiny`
    /// size (a small cube and a few hundred packets).
    pub fn by_name(name: &str, tiny: bool) -> Result<Workload, String> {
        let pick = |full: &'static str, small: &'static str| if tiny { small } else { full };
        let (net, router, traffic, switching, faults, cycles, lanes, slo_window) = match name {
            "g16-saf" => (
                Net::Dense(if tiny { 10 } else { 16 }),
                "canonical",
                pick(
                    "uniform(count=150000,window=15000)",
                    "uniform(count=2000,window=200)",
                ),
                "store_and_forward",
                "none",
                u64::MAX,
                1,
                None,
            ),
            "g24-implicit-2lane" => (
                Net::Implicit(if tiny { 14 } else { 24 }),
                "canonical",
                pick(
                    "uniform(count=100000,window=1000)",
                    "uniform(count=2000,window=100)",
                ),
                "store_and_forward",
                "none",
                u64::MAX,
                2,
                None,
            ),
            "g16-churn-rr" => (
                Net::Dense(if tiny { 10 } else { 16 }),
                "canonical",
                pick(
                    "request_reply(clients=512,think=20,timeout=200,retries=3)",
                    "request_reply(clients=32,think=20,timeout=200,retries=3)",
                ),
                "store_and_forward",
                "churn(node_rate=0.002,link_rate=0.004,mttr=300)",
                if tiny { 1_000 } else { 10_000 },
                1,
                Some(500),
            ),
            "g16-wormhole" => (
                Net::Dense(if tiny { 10 } else { 16 }),
                "canonical",
                pick(
                    "uniform(count=40000,window=40000)",
                    "uniform(count=500,window=500)",
                ),
                "wormhole(flit_size=4,vcs=2,buf_flits=4)",
                "none",
                u64::MAX,
                1,
                None,
            ),
            other => {
                return Err(format!(
                    "unknown workload {other:?}; expected one of {}",
                    NAMES.join(", ")
                ))
            }
        };
        let err = |what: &str, e: &dyn std::fmt::Display| format!("{name}: bad {what} spec: {e}");
        Ok(Workload {
            name: name.to_string(),
            net,
            router: router.parse().map_err(|e| err("router", &e))?,
            traffic: traffic.parse().map_err(|e| err("traffic", &e))?,
            switching: switching.parse().map_err(|e| err("switching", &e))?,
            faults: faults.parse().map_err(|e| err("fault", &e))?,
            cycles,
            lanes,
            slo_window,
        })
    }

    /// Closed-loop traffic has no packet list to generate up front.
    pub fn open_loop(&self) -> bool {
        !matches!(self.traffic, TrafficSpec::RequestReply { .. })
    }

    fn experiment<'a>(
        &self,
        topo: &'a dyn Topology,
        seed: u64,
        lanes: usize,
    ) -> Experiment<'a, dyn Topology + 'a> {
        Experiment::on(topo)
            .router(self.router)
            .traffic(self.traffic.clone())
            .switching(self.switching.clone())
            .faults(self.faults.clone())
            .cycles(self.cycles)
            .seed(seed)
            .threads(lanes)
    }

    /// One `Experiment::run` of this workload at `lanes` lanes, with the
    /// workload's observer attached when `observe` is set.
    pub fn run(
        &self,
        topo: &dyn Topology,
        seed: u64,
        lanes: usize,
        observe: bool,
    ) -> Result<Report, ExperimentError> {
        let exp = self.experiment(topo, seed, lanes);
        match self.slo_window {
            Some(window) if observe => exp.observe(SloTracker::new(window)).run(),
            _ => exp.run(),
        }
    }

    /// One 1-lane run with `tracker` attached instead of the workload's
    /// observer.
    pub fn run_tracked(
        &self,
        topo: &dyn Topology,
        seed: u64,
        tracker: &mut DeliveryTracker,
    ) -> Result<Report, ExperimentError> {
        self.experiment(topo, seed, 1).observe(tracker).run()
    }
}
