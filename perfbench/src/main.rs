//! `perfbench` — the simulator's benchmark, one workload per process:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run has three phases:
//!
//! 1. **Set-up.** The topology and its CSR graph are built repeatedly;
//!    `setup_s` is the median build time.
//! 2. **Timed repetitions** of `Experiment::run` + `Report::to_json` for
//!    `--seconds`. Every repetition's `SimStats` and JSON must equal those
//!    of a reference run made first. `hops_per_s` is the reference's
//!    packet-hops over the median repetition time.
//! 3. **Checks** (untimed): the same experiment at the other lane count
//!    (1 ↔ 2 lanes) must give a bit-identical report, and packets must be
//!    conserved.
//!
//! Times are in reference seconds: wall time divided by the host slowdown
//! a calibration kernel measures around it (see [`calib`]).
//!
//! With `--trace 1` the run reports per-layer metrics instead: untraced
//! repetitions as above, then traced repetitions in which the benchmark
//! calls each layer the run goes through (router resolution and
//! precompute, traffic generation, churn timeline, masked distance table
//! and its repair, hop-by-hop routing, the run, the report) inside a span,
//! then 1-lane against 2-lane runs and, for a workload with an observer,
//! runs without it. Spans stay in memory and are written to
//! `perfbench/traces/` at exit.
//!
//! The last line of standard output is one JSON object,
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Every `Experiment::run` is an attempted operation; an `Err` or a failed
//! check on it makes it a failed one.

mod calib;
mod host;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use fibcube_network::{
    ChurnTimeline, DeliveryTracker, FaultMaskingRouter, FaultSet, FaultSpec, NoLoad, Report,
    Router, Topology, TrafficSpec,
};

use calib::Calibrator;
use host::Noise;
use trace::Tracer;
use workload::{Topo, Workload};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--tiny] [--corrupt]";

/// Set-up repetitions: at least this many, then more while the set-up
/// budget lasts.
const SETUP_MIN_REPS: usize = 9;
const SETUP_MAX_REPS: usize = 400;
const SETUP_BUDGET_S: f64 = 1.5;
/// Every timed phase runs at least this many repetitions.
const MIN_REPS: usize = 3;
/// Packet pairs replayed hop by hop for `router.lookups_per_s` on the
/// closed-loop workload, which has no packet list of its own.
const LOOKUP_PAIRS: usize = 50_000;
/// Salt `Experiment` applies to its seed for fault placement and churn
/// timelines; replaying with it reproduces the timeline the run applies.
const FAULT_SEED_SALT: u64 = 0xFA17_5EED_0C0D_ED00;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Self-test size: small cubes, few packets, short budgets.
    tiny: bool,
    /// Self-test hook: corrupt one repetition's `SimStats` before it is
    /// compared, which must show up as a failed operation.
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut tiny, mut corrupt) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--tiny" => tiny = true,
            "--corrupt" => corrupt = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
        corrupt,
    })
}

/// SplitMix64: spreads consecutive `--seed` values over the experiment
/// seed space.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Linear-interpolated quantile of `v`, `q` in [0, 1]; NaN when empty.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Attempted and failed operations of this run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Records one operation; an `Err` marks it failed and is reported
    /// on standard error. Returns whether it passed.
    fn record(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.failed <= 10 {
                    eprintln!("perfbench: failed operation: {why}");
                }
                false
            }
        }
    }
}

/// The first run of the workload: every later run must reproduce it.
struct Reference {
    report: Report,
    json: String,
}

impl Reference {
    /// Identical `SimStats` and identical report JSON.
    fn matches(&self, report: &Report, json: &str) -> Result<(), String> {
        if report.stats != self.report.stats {
            return Err(format!(
                "SimStats differ from the reference run ({} vs {} hops, p99 {} vs {})",
                report.stats.total_hops,
                self.report.stats.total_hops,
                report.stats.p99_latency,
                self.report.stats.p99_latency
            ));
        }
        if json != self.json {
            return Err("report JSON differs from the reference run".to_string());
        }
        Ok(())
    }
}

/// Packet conservation: the counts of a `DeliveryTracker` attached to the
/// run must match its `SimStats`, and offered = delivered + dropped + in
/// flight, with nothing in flight when the run drained.
fn conservation(w: &Workload, report: &Report, tracker: &DeliveryTracker) -> Result<(), String> {
    let s = &report.stats;
    let settled = s.delivered + s.dropped();
    if settled > s.offered {
        return Err(format!(
            "delivered {} + dropped {} exceeds offered {}",
            s.delivered,
            s.dropped(),
            s.offered
        ));
    }
    let in_flight = (s.offered - settled) as u64;
    if w.cycles == u64::MAX && in_flight != 0 {
        return Err(format!(
            "{in_flight} packets in flight after the run drained"
        ));
    }
    if tracker.delivered() != s.delivered as u64 || tracker.dropped() != s.dropped() as u64 {
        return Err(format!(
            "observer saw {} delivered / {} dropped, stats say {} / {}",
            tracker.delivered(),
            tracker.dropped(),
            s.delivered,
            s.dropped()
        ));
    }
    let bucketed: u64 = s.latency_buckets.buckets().iter().sum();
    if bucketed != s.delivered as u64 {
        return Err(format!(
            "latency buckets hold {bucketed} packets, {} delivered",
            s.delivered
        ));
    }
    Ok(())
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Wall and reference seconds of a phase's passing repetitions.
#[derive(Default)]
struct Times {
    wall: Vec<f64>,
    refs: Vec<f64>,
}

/// Builds the topology repeatedly; returns the last build and the times.
fn setup(
    w: &Workload,
    tiny: bool,
    cal: &mut Calibrator,
    mut tracer: Option<&mut Tracer>,
) -> (Topo, Times) {
    let budget = if tiny { 0.05 } else { SETUP_BUDGET_S };
    let start = Instant::now();
    let mut times = Times::default();
    let mut topo = None;
    cal.begin();
    while times.wall.len() < SETUP_MIN_REPS
        || (start.elapsed().as_secs_f64() < budget && times.wall.len() < SETUP_MAX_REPS)
    {
        // Drop the previous build first, so one copy is resident.
        drop(topo.take());
        let rep = times.wall.len() as u32;
        let (built, wall, refs) = cal.time(|| match tracer.as_deref_mut() {
            Some(t) => {
                t.rep = rep;
                t.time("topology.build", || Topo::build(w.net))
            }
            None => Topo::build(w.net),
        });
        times.wall.push(wall);
        times.refs.push(refs);
        topo = Some(built);
    }
    (topo.expect("at least one set-up repetition"), times)
}

/// The untimed checks: 1 ↔ 2 lane identity, and conservation on a run
/// with a `DeliveryTracker` attached.
fn checks(w: &Workload, topo: &dyn Topology, seed: u64, reference: &Reference, tally: &mut Tally) {
    let other = if w.lanes == 1 { 2 } else { 1 };
    tally.record(
        w.run(topo, seed, other, true)
            .map_err(|e| e.to_string())
            .and_then(|r| reference.matches(&r, &r.to_json()))
            .map_err(|e| format!("{other}-lane run against {}-lane: {e}", w.lanes)),
    );
    let mut tracker = DeliveryTracker::new();
    tally.record(
        w.run_tracked(topo, seed, &mut tracker)
            .map_err(|e| e.to_string())
            .and_then(|r| conservation(w, &r, &tracker)),
    );
}

/// Repeats `run` + `to_json` for `budget` seconds (at least `MIN_REPS`
/// times), checking each against the reference.
#[allow(clippy::too_many_arguments)]
fn timed_reps(
    w: &Workload,
    topo: &dyn Topology,
    seed: u64,
    reference: &Reference,
    budget: f64,
    corrupt: bool,
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> Times {
    let start = Instant::now();
    let mut times = Times::default();
    cal.begin();
    for rep in 0.. {
        if rep >= MIN_REPS && start.elapsed().as_secs_f64() >= budget {
            break;
        }
        let (out, wall, refs) = cal.time(|| {
            w.run(topo, seed, w.lanes, true).map(|r| {
                let json = r.to_json();
                (r, json)
            })
        });
        let outcome = out.map_err(|e| e.to_string()).and_then(|(mut r, json)| {
            if corrupt && rep == 1 {
                r.stats.total_hops += 1;
            }
            reference.matches(&r, &json)
        });
        if tally.record(outcome) {
            times.wall.push(wall);
            times.refs.push(refs);
        }
    }
    times
}

/// Replays every `(src, dst)` pair hop by hop through `router`; returns
/// the hops taken, or an error for a route that loops or strands.
fn replay(router: &dyn Router, pairs: &[(u32, u32)], hop_limit: usize) -> Result<u64, String> {
    let mut hops = 0u64;
    for &(src, dst) in pairs {
        let mut cur = src;
        let mut taken = 0;
        while let Some(next) = router.next_hop(cur, dst, &NoLoad) {
            cur = next;
            taken += 1;
            if taken > hop_limit {
                return Err(format!("route {src}→{dst} exceeds {hop_limit} hops"));
            }
        }
        if cur != dst {
            return Err(format!("route {src}→{dst} stops at {cur}"));
        }
        hops += taken as u64;
    }
    Ok(hops)
}

/// What the traced repetitions measure besides span times.
#[derive(Default)]
struct TracedExtras {
    table_bytes: usize,
    events: usize,
    lookups: u64,
}

/// One traced repetition: each layer call the run makes, in a span, then
/// the run and the report themselves. Returns the wall seconds of
/// `run` + `to_json`.
fn traced_rep(
    w: &Workload,
    topo: &dyn Topology,
    seed: u64,
    reference: &Reference,
    tracer: &mut Tracer,
    extras: &mut TracedExtras,
) -> Result<f64, String> {
    let g = topo.graph();
    let n = topo.len();
    let router = tracer
        .time("router.resolve", || w.router.resolve(topo))
        .map_err(|e| e.to_string())?;
    let table = tracer.time("router.precompute", || router.precompute(g));
    extras.table_bytes = table.as_ref().map_or(0, |t| t.nodes() * t.nodes() * 4);
    drop(table);
    let pairs: Vec<(u32, u32)> = if w.open_loop() {
        let packets = tracer.time("traffic.generate", || w.traffic.generate(n, seed));
        packets.iter().map(|p| (p.src, p.dst)).collect()
    } else {
        let uniform = TrafficSpec::Uniform {
            count: LOOKUP_PAIRS,
            window: 0,
        };
        uniform
            .generate(n, seed)
            .iter()
            .map(|p| (p.src, p.dst))
            .collect()
    };
    let hop_limit = 4 * topo.diameter_bound().max(1);
    extras.lookups = if let FaultSpec::Churn {
        node_rate,
        link_rate,
        mttr,
    } = w.faults
    {
        let timeline = tracer.time("fault.timeline", || {
            ChurnTimeline::generate(
                g,
                node_rate,
                link_rate,
                mttr,
                seed ^ FAULT_SEED_SALT,
                w.cycles,
            )
        });
        extras.events = timeline.len();
        let mut masked = tracer.time("dist.table_build", || {
            FaultMaskingRouter::new(g, &*router, &FaultSet::empty())
        });
        tracer.time("dist.repair", || {
            for event in timeline.events() {
                masked.apply_event(event);
            }
        });
        // The masked router as the whole timeline leaves it, on the pairs
        // the degraded network still connects.
        let live: Vec<(u32, u32)> = pairs
            .into_iter()
            .filter(|&(s, d)| masked.reachable(s, d))
            .collect();
        tracer.time("router.lookups", || replay(&masked, &live, hop_limit))?
    } else {
        tracer.time("router.lookups", || replay(&*router, &pairs, hop_limit))?
    };
    drop(router);
    let id = tracer.enter("engine.run");
    let report = w.run(topo, seed, w.lanes, true);
    let run_s = tracer.exit(id);
    let report = report.map_err(|e| e.to_string())?;
    let id = tracer.enter("report.to_json");
    let json = report.to_json();
    let json_s = tracer.exit(id);
    reference.matches(&report, &json)?;
    Ok(run_s + json_s)
}

/// The `--trace 1` measurement: untraced repetitions, traced repetitions,
/// 1 lane against 2, and the observer against none. Returns the
/// per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced(
    w: &Workload,
    topo: &Topo,
    seed: u64,
    reference: &Reference,
    seconds: f64,
    setup: &Times,
    cal: &mut Calibrator,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Metric> {
    let t = topo.get();
    let hops = reference.report.stats.total_hops as f64;
    let observed = w.slo_window.is_some();
    let (untraced_share, traced_share, lanes_share, observer_share) = if observed {
        (0.3, 0.4, 0.15, 0.15)
    } else {
        (0.3, 0.55, 0.15, 0.0)
    };

    let untraced = timed_reps(
        w,
        t,
        seed,
        reference,
        seconds * untraced_share,
        false,
        cal,
        tally,
    );

    let mut extras = TracedExtras::default();
    let mut traced_refs = Vec::new();
    let start = Instant::now();
    cal.begin();
    for rep in 0.. {
        if rep >= MIN_REPS && start.elapsed().as_secs_f64() >= seconds * traced_share {
            break;
        }
        tracer.rep = rep as u32;
        let root = tracer.enter("rep");
        let outcome = traced_rep(w, t, seed, reference, tracer, &mut extras);
        tracer.exit(root);
        let slowdown = cal.slowdown();
        if let Ok(run_json_s) = outcome {
            traced_refs.push(run_json_s / slowdown);
        }
        tally.record(outcome.map(|_| ()));
    }

    // 1 lane against 2, alternating so host drift hits both alike.
    let (mut one, mut two, mut two_cpu) = (Vec::new(), Vec::new(), 0.0);
    let start = Instant::now();
    while two.len() < 2 || start.elapsed().as_secs_f64() < seconds * lanes_share {
        for lanes in [1, 2] {
            let cpu0 = host::process_cpu_s();
            let t0 = Instant::now();
            let out = w.run(t, seed, lanes, true);
            let dt = t0.elapsed().as_secs_f64();
            let cpu = host::process_cpu_s() - cpu0;
            let outcome = out
                .map_err(|e| e.to_string())
                .and_then(|r| reference.matches(&r, &r.to_json()))
                .map_err(|e| format!("{lanes}-lane run: {e}"));
            if tally.record(outcome) {
                if lanes == 1 {
                    one.push(dt);
                } else {
                    two.push(dt);
                    two_cpu += cpu;
                }
            }
        }
        if one.is_empty() && two.is_empty() {
            break;
        }
    }

    // The workload's observer against none: the stats must not change.
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while observed
        && (with.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds * observer_share)
    {
        for observe in [false, true] {
            let t0 = Instant::now();
            let out = w.run(t, seed, w.lanes, observe);
            let dt = t0.elapsed().as_secs_f64();
            let outcome = out.map_err(|e| e.to_string()).and_then(|r| {
                if r.stats == reference.report.stats {
                    Ok(())
                } else {
                    Err(format!("observer={observe} changed SimStats"))
                }
            });
            if tally.record(outcome) {
                if observe { &mut with } else { &mut without }.push(dt);
            }
        }
        if with.is_empty() && without.is_empty() {
            break;
        }
    }
    let observer_overhead = if observed {
        median(&with) - median(&without)
    } else {
        0.0
    };

    let spans = tracer.self_times();
    let p = |name: &str, q: f64| spans.get(name).map_or(0.0, |v| quantile(v, q));
    let p50 = |name: &str| p(name, 0.5);
    // Layer calls `Experiment::run` makes itself on this workload. None
    // of the workloads reaches the engine's tabulation threshold (expected
    // lookups ≥ n²), so `router.precompute` is not among them.
    let mut inside_run = vec!["router.resolve"];
    if w.open_loop() {
        inside_run.push("traffic.generate");
    }
    if w.faults.is_churn() {
        inside_run.extend(["fault.timeline", "dist.table_build", "dist.repair"]);
    }
    let run_p50 = p50("engine.run");
    let step_s = run_p50 - inside_run.iter().map(|l| p50(l)).sum::<f64>();
    let untraced_hops_per_s = hops / median(&untraced.refs);
    let traced_hops_per_s = hops / median(&traced_refs);
    let two_wall: f64 = two.iter().sum();
    vec![
        metric("topology.build_s", median(&setup.wall), "s"),
        metric("topology.graph_mb", topo.graph_bytes() as f64 / 1e6, "MB"),
        metric("router.resolve_s", p50("router.resolve"), "s"),
        metric("router.precompute_s", p50("router.precompute"), "s"),
        metric("router.table_mb", extras.table_bytes as f64 / 1e6, "MB"),
        metric(
            "router.lookups_per_s",
            extras.lookups as f64 / p50("router.lookups"),
            "1/s",
        ),
        metric("traffic.generate_s", p50("traffic.generate"), "s"),
        metric("fault.timeline_s", p50("fault.timeline"), "s"),
        metric("fault.events", extras.events as f64, "count"),
        metric("dist.table_build_s", p50("dist.table_build"), "s"),
        metric(
            "dist.repair_s_per_event",
            p50("dist.repair") / extras.events.max(1) as f64,
            "s",
        ),
        metric("engine.run_s_p50", run_p50, "s"),
        metric("engine.run_s_p90", p("engine.run", 0.9), "s"),
        metric(
            "engine.run_samples",
            spans.get("engine.run").map_or(0, Vec::len) as f64,
            "count",
        ),
        metric(
            "engine.cycles",
            reference.report.stats.makespan as f64,
            "cycles",
        ),
        metric("engine.hops", hops, "count"),
        metric("engine.step_s_est", step_s, "s"),
        metric("engine.ns_per_hop_est", step_s / hops * 1e9, "ns"),
        metric("parallel.speedup", median(&one) / median(&two), "x"),
        metric("parallel.cpu_busy_frac", two_cpu / (2.0 * two_wall), "frac"),
        metric("observer.overhead_s", observer_overhead, "s"),
        metric("report.to_json_s", p50("report.to_json"), "s"),
        metric("report.json_kb", reference.json.len() as f64 / 1e3, "KB"),
        metric("trace.untraced_hops_per_s", untraced_hops_per_s, "1/s"),
        metric("trace.traced_hops_per_s", traced_hops_per_s, "1/s"),
        metric(
            "trace.overhead_frac",
            1.0 - traced_hops_per_s / untraced_hops_per_s,
            "frac",
        ),
        metric("host.wall_hops_per_s", hops / median(&untraced.wall), "1/s"),
    ]
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn print_result(tally: &Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<28} {:>22} {}", m.name, json_number(m.value), m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = match Workload::by_name(&args.workload, args.tiny) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let seed = mix(args.seed);
    let noise0 = Noise::now();
    let mut tally = Tally::default();
    let mut tracer = args.trace.then(Tracer::new);
    // Set-up is single-threaded; the runs use the workload's lanes.
    let (topo, setup_times) = setup(&w, args.tiny, &mut Calibrator::new(1), tracer.as_mut());
    let mut cal = Calibrator::new(w.lanes);
    let t = topo.get();
    let reference = match w.run(t, seed, w.lanes, true) {
        Ok(report) => {
            let json = report.to_json();
            Reference { report, json }
        }
        Err(e) => {
            tally.record(Err(format!("reference run: {e}")));
            print_result(&tally, &[]);
            return ExitCode::SUCCESS;
        }
    };
    tally.record(Ok(()));
    // The peak of set-up plus one run. Later runs only add allocator
    // fragmentation, which varies with thread timing.
    let peak_rss_mb = host::peak_rss_mb();
    let stats = &reference.report.stats;
    println!(
        "perfbench {} seed {}: {} nodes, {} lane(s), {} hops, makespan {}, p99 {} cycles",
        w.name,
        args.seed,
        t.len(),
        w.lanes,
        stats.total_hops,
        stats.makespan,
        stats.p99_latency
    );

    let mut metrics = match tracer.as_mut() {
        None => {
            let times = timed_reps(
                &w,
                t,
                seed,
                &reference,
                args.seconds,
                args.corrupt,
                &mut cal,
                &mut tally,
            );
            checks(&w, t, seed, &reference, &mut tally);
            println!(
                "  {} timed repetitions, {:.0} hops/s in wall seconds",
                times.wall.len(),
                stats.total_hops as f64 / median(&times.wall)
            );
            vec![
                metric(
                    "hops_per_s",
                    stats.total_hops as f64 / median(&times.refs),
                    "1/s",
                ),
                metric("setup_s", median(&setup_times.refs), "s"),
                metric("peak_rss_mb", peak_rss_mb, "MB"),
                metric("sim_p99_cycles", stats.p99_latency as f64, "cycles"),
                metric(
                    "delivered_frac",
                    stats.delivered as f64 / stats.offered.max(1) as f64,
                    "frac",
                ),
            ]
        }
        Some(tracer) => {
            checks(&w, t, seed, &reference, &mut tally);
            let m = traced(
                &w,
                &topo,
                seed,
                &reference,
                args.seconds,
                &setup_times,
                &mut cal,
                tracer,
                &mut tally,
            );
            let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{}.jsonl", w.name, args.seed));
            if let Err(e) = tracer.write_jsonl(&path) {
                eprintln!("perfbench: could not write {}: {e}", path.display());
            }
            m
        }
    };
    let (wait, steal) = Noise::now().since(&noise0);
    let cal_s = median(&cal.samples);
    println!(
        "  host: runqueue_wait_s {wait:.3}, steal_s {steal:.3}, calibration pass {cal_s:.6} s"
    );
    if args.trace {
        metrics.push(metric("host.runqueue_wait_s", wait, "s"));
        metrics.push(metric("host.steal_s", steal, "s"));
        metrics.push(metric("host.cal_s", cal_s, "s"));
    }
    print_result(&tally, &metrics);
    ExitCode::SUCCESS
}
