//! Sweeps: one [`Experiment`] over a grid of axis values and seeds,
//! averaged per cell — the saturation, fault-resilience, switching and
//! churn comparisons the 1993-era evaluations report per topology.
//!
//! [`sweep`] takes an experiment, a list of [`Axis`] values and a
//! [`SweepConfig`]. Each axis replaces one part of the experiment:
//! [`Axis::Rates`] the traffic (open-loop Bernoulli over
//! `inject_cycles`: latency vs load, and the [`saturation_point`]),
//! [`Axis::NodeFaults`] the fault scenario (random node faults:
//! throughput or collective coverage as processors die),
//! [`Axis::Switching`] the switching model (wormhole vs
//! store-and-forward), and [`Axis::Mttrs`] the repair time of the
//! experiment's churn spec (recovery time vs MTTR).
//!
//! The cells are the product of the axes in row-major order (the last
//! axis varies fastest); no axes is one cell. Every cell runs once per
//! seed, capped at `inject_cycles + drain_cycles` cycles, and the
//! [`Grid`] holds one [`Point`] per cell: seed means of the runs'
//! [`SimStats`], plus the collective outcome when the experiment runs a
//! collective, plus [`SloTracker`] recovery figures when the cell's
//! faults are churn.
//!
//! # Seeding contract
//!
//! Write `rung(s, i) = s ^ (i << 32)`. At seed `s`, cell `c` (its
//! row-major index) with fault-axis index `f` (`0` without a fault
//! axis):
//!
//! * traffic and collective draws come from an experiment seeded
//!   `rung(s, c)`;
//! * faults — a static set or a churn timeline — are drawn as an
//!   experiment seeded `rung(s, f)` draws them, once per
//!   (fault value, seed) column, and a static column builds one
//!   [`FaultMaskingRouter`](crate::router::FaultMaskingRouter) that
//!   all its cells share.
//!
//! So with no axes, cell 0 at seed `s` is exactly [`Experiment::run`]
//! at seed `s`, and growing the first axis leaves every existing cell
//! unchanged. Columns fan out across the workspace's scoped-thread pool
//! ([`fibcube_graph::parallel`]) and run their cells serially on one
//! lane; results are collected in cell order, so a grid never depends
//! on thread scheduling.

use fibcube_graph::parallel::par_map;

use crate::collective::CollectiveOutcome;
use crate::engine::SimStats;
use crate::experiment::{Experiment, ExperimentError};
use crate::fault::FaultSpec;
use crate::observer::{SloTracker, SloWindow};
use crate::report::{JsonValue, Report};
use crate::router::Router;
use crate::switching::SwitchingSpec;
use crate::topology::Topology;
use crate::traffic::TrafficSpec;

/// One dimension of a [`sweep`] grid: the values one part of the
/// experiment takes.
#[derive(Clone, Debug, PartialEq)]
pub enum Axis {
    /// Offered injection rates (packets per node per cycle, counting
    /// every provisioned node — dead ones still attempt injection and
    /// drop): each replaces the traffic with
    /// [`TrafficSpec::Bernoulli`] over `config.inject_cycles`.
    Rates(Vec<f64>),
    /// Node-fault counts: each replaces the fault scenario with
    /// [`FaultSpec::Nodes`].
    NodeFaults(Vec<usize>),
    /// Switching models.
    Switching(Vec<SwitchingSpec>),
    /// Mean times to repair (cycles; `f64::INFINITY` never heals, and
    /// serialises as `null`): each replaces the `mttr` of the
    /// experiment's [`FaultSpec::Churn`].
    Mttrs(Vec<f64>),
}

impl Axis {
    fn len(&self) -> usize {
        match self {
            Axis::Rates(v) | Axis::Mttrs(v) => v.len(),
            Axis::NodeFaults(v) => v.len(),
            Axis::Switching(v) => v.len(),
        }
    }

    /// The part of the experiment the axis replaces.
    fn part(&self) -> &'static str {
        match self {
            Axis::Rates(_) => "traffic",
            Axis::NodeFaults(_) | Axis::Mttrs(_) => "fault scenario",
            Axis::Switching(_) => "switching model",
        }
    }

    /// The JSON keys of the grid's value list and of one point's value.
    fn keys(&self) -> (&'static str, &'static str) {
        match self {
            Axis::Rates(_) => ("rates", "rate"),
            Axis::NodeFaults(_) => ("fault_counts", "faults"),
            Axis::Switching(_) => ("switching", "switching"),
            Axis::Mttrs(_) => ("mttrs", "mttr"),
        }
    }

    fn value(&self, i: usize) -> JsonValue {
        match self {
            Axis::Rates(v) | Axis::Mttrs(v) => JsonValue::Num(v[i]),
            Axis::NodeFaults(v) => JsonValue::Int(v[i] as u64),
            Axis::Switching(v) => JsonValue::Str(v[i].to_string()),
        }
    }

    /// Sets value `i` of this axis on `exp`.
    fn apply<T: Topology + ?Sized>(&self, exp: &mut Experiment<'_, T>, i: usize, inject: u64) {
        match self {
            Axis::Rates(v) => {
                exp.traffic = TrafficSpec::Bernoulli {
                    rate: v[i],
                    cycles: inject,
                }
            }
            Axis::NodeFaults(v) => exp.faults = FaultSpec::Nodes { count: v[i] },
            Axis::Switching(v) => exp.switching = v[i].clone(),
            Axis::Mttrs(v) => {
                if let FaultSpec::Churn { mttr, .. } = &mut exp.faults {
                    *mttr = v[i];
                }
            }
        }
    }
}

/// The per-axis indices of row-major cell `cell`.
fn cell_index(axes: &[Axis], mut cell: usize) -> Vec<usize> {
    let mut index = vec![0; axes.len()];
    for (k, axis) in axes.iter().enumerate().rev() {
        index[k] = cell % axis.len();
        cell /= axis.len();
    }
    index
}

/// Seed means of one grid cell's runs, each derived from the run's
/// [`Report`]. Fractions are `None` when their denominator is zero
/// (nothing offered, no targets, no fail events, nothing recovered) and
/// serialise as JSON `null` rather than a misleading number.
#[derive(Clone, Debug, PartialEq)]
pub struct Point {
    /// Mean packets offered per run.
    pub offered: f64,
    /// Mean packets delivered per run.
    pub delivered: f64,
    /// `delivered / offered`.
    pub delivered_fraction: Option<f64>,
    /// Delivered packets per node per injection cycle (comparable to an
    /// offered rate); `None` when `inject_cycles` is 0.
    pub accepted_rate: Option<f64>,
    /// Mean packets dropped per run with a dead source or destination.
    pub dropped_dead_endpoint: f64,
    /// Mean packets dropped per run between disconnected endpoints.
    pub dropped_unreachable: f64,
    /// Mean packets dropped per run on a link that died under them.
    pub dropped_link_died: f64,
    /// Mean packets dropped per run on a node that died holding them.
    pub dropped_node_died: f64,
    /// Mean end-to-end latency of delivered packets.
    pub mean_latency: f64,
    /// Mean 99th-percentile latency.
    pub p99_latency: f64,
    /// Mean cycles until the network drained or the cap struck (a
    /// collective's completion time).
    pub makespan: f64,
    /// Collective only: mean intended recipients per run.
    pub targets: Option<f64>,
    /// Collective only: mean intended recipients reached per run.
    pub reached: Option<f64>,
    /// Collective only: `reached / targets`.
    pub reached_fraction: Option<f64>,
    /// Collective only: mean static schedule rounds when every run has
    /// that oracle (full broadcasts).
    pub schedule_rounds: Option<f64>,
    /// Churn only: mean churn events committed per run (fail + recover).
    pub events: Option<f64>,
    /// Churn only: mean fail events committed per run.
    pub fail_events: Option<f64>,
    /// Churn only: mean of each run's worst per-window p99.9 latency.
    pub worst_window_p999: Option<f64>,
    /// Churn only: fraction of fail events service recovered from (see
    /// [`SloTracker`]).
    pub recovered_fraction: Option<f64>,
    /// Churn only: mean cycles to recover, over the recovered fail events.
    pub mean_time_to_recover: Option<f64>,
}

/// One (cell, seed) run of a grid.
pub(crate) struct Run {
    pub(crate) report: Report,
    slo: Option<SloTracker>,
}

impl Point {
    /// The seed means of one cell's `runs`; `injection` is provisioned
    /// nodes × injection cycles.
    fn mean(runs: &[Run], injection: f64) -> Point {
        let m = runs.len() as f64;
        // `None` unless every run has the figure.
        let total = |f: &dyn Fn(&Run) -> Option<f64>| runs.iter().map(f).sum::<Option<f64>>();
        let stat =
            |f: fn(&SimStats) -> f64| total(&|r| Some(f(&r.report.stats))).unwrap_or(0.0) / m;
        let outcome = |f: fn(&CollectiveOutcome) -> Option<f64>| {
            total(&|r| r.report.collective.as_ref().and_then(f)).map(|x| x / m)
        };
        let slo = |f: &dyn Fn(&SloTracker) -> u64| total(&|r| r.slo.as_ref().map(|t| f(t) as f64));
        let fails = |t: &SloTracker| t.recoveries().into_iter().filter(|r| r.failed);
        let recovery_times = |t: &SloTracker| fails(t).filter_map(|r| r.time_to_recover);
        let (offered, delivered) = (stat(|s| s.offered as f64), stat(|s| s.delivered as f64));
        let targets = outcome(|o| Some(o.targets as f64));
        let reached = outcome(|o| Some(o.reached as f64));
        let failed = slo(&|t| fails(t).count() as u64);
        let recovered = slo(&|t| recovery_times(t).count() as u64);
        Point {
            offered,
            delivered,
            delivered_fraction: (offered > 0.0).then(|| delivered / offered),
            accepted_rate: (injection > 0.0).then(|| delivered / injection),
            dropped_dead_endpoint: stat(|s| s.dropped_dead_endpoint as f64),
            dropped_unreachable: stat(|s| s.dropped_unreachable as f64),
            dropped_link_died: stat(|s| s.dropped_link_died as f64),
            dropped_node_died: stat(|s| s.dropped_node_died as f64),
            mean_latency: stat(|s| s.mean_latency),
            p99_latency: stat(|s| s.p99_latency as f64),
            makespan: stat(|s| s.makespan as f64),
            targets,
            reached,
            reached_fraction: targets
                .zip(reached)
                .and_then(|(t, r)| (t > 0.0).then(|| r / t)),
            schedule_rounds: outcome(|o| o.schedule_rounds.map(f64::from)),
            events: slo(&|t| t.fault_events().len() as u64).map(|x| x / m),
            fail_events: failed.map(|x| x / m),
            worst_window_p999: slo(&|t| t.windows().iter().map(SloWindow::p999).max().unwrap_or(0))
                .map(|x| x / m),
            recovered_fraction: failed
                .zip(recovered)
                .and_then(|(f, r)| (f > 0.0).then(|| r / f)),
            mean_time_to_recover: recovered
                .zip(slo(&|t| recovery_times(t).sum()))
                .and_then(|(r, c)| (r > 0.0).then(|| c / r)),
        }
    }

    /// The point's own JSON fields; [`Grid::to_json_value`] prefixes
    /// its axis values.
    fn fields(&self) -> Vec<(&'static str, JsonValue)> {
        let mut fields = vec![
            ("offered", Some(self.offered)),
            ("delivered", Some(self.delivered)),
            ("delivered_fraction", self.delivered_fraction),
            ("accepted_rate", self.accepted_rate),
            ("dropped_dead_endpoint", Some(self.dropped_dead_endpoint)),
            ("dropped_unreachable", Some(self.dropped_unreachable)),
            ("dropped_link_died", Some(self.dropped_link_died)),
            ("dropped_node_died", Some(self.dropped_node_died)),
            ("mean_latency", Some(self.mean_latency)),
            ("p99_latency", Some(self.p99_latency)),
            ("makespan", Some(self.makespan)),
        ];
        if self.targets.is_some() {
            fields.extend([
                ("targets", self.targets),
                ("reached", self.reached),
                ("reached_fraction", self.reached_fraction),
                ("completion_cycles", Some(self.makespan)),
                ("schedule_rounds", self.schedule_rounds),
            ]);
        }
        if self.events.is_some() {
            fields.extend([
                ("events", self.events),
                ("fail_events", self.fail_events),
                ("worst_window_p999", self.worst_window_p999),
                ("recovered_fraction", self.recovered_fraction),
                ("mean_time_to_recover", self.mean_time_to_recover),
            ]);
        }
        let json = |x: Option<f64>| x.map_or(JsonValue::Null, JsonValue::Num);
        fields.into_iter().map(|(k, x)| (k, json(x))).collect()
    }
}

/// The outcome of a [`sweep`]: a header describing what every cell
/// ran, the axes, and one [`Point`] per cell in row-major order.
#[derive(Clone, Debug, PartialEq)]
pub struct Grid {
    /// Topology name (`"Γ_16"`, `"Q_11"`, …).
    pub topology: String,
    /// The routing policy every cell runs (faulted cells wrap it in the
    /// fault-masking adapter).
    pub router: String,
    /// Node count (for normalising across topologies).
    pub nodes: usize,
    /// The collective every cell runs instead of traffic.
    pub collective: Option<String>,
    /// The offered rate of Bernoulli traffic no [`Axis::Rates`] varies.
    pub rate: Option<f64>,
    /// Per-cycle (node, link) failure intensities under fault churn.
    pub churn: Option<(f64, f64)>,
    /// Cycles per [`SloTracker`] window under churn: an eighth of the
    /// injection phase, several windows that each still see traffic.
    pub slo_window: Option<u64>,
    /// The axes swept.
    pub axes: Vec<Axis>,
    /// One point per cell, row-major over `axes`.
    pub points: Vec<Point>,
}

impl Grid {
    /// The point at `index` (one index per axis).
    pub fn point(&self, index: &[usize]) -> &Point {
        let cell = self
            .axes
            .iter()
            .zip(index)
            .fold(0, |cell, (axis, &i)| cell * axis.len() + i);
        &self.points[cell]
    }

    /// The grid as a JSON object: the header, each axis's value list,
    /// and the points, each led by its axis values.
    pub fn to_json_value(&self) -> JsonValue {
        let header = [
            ("topology", Some(JsonValue::Str(self.topology.clone()))),
            ("router", Some(JsonValue::Str(self.router.clone()))),
            ("nodes", Some(JsonValue::Int(self.nodes as u64))),
            ("spec", self.collective.clone().map(JsonValue::Str)),
            ("rate", self.rate.map(JsonValue::Num)),
            ("node_rate", self.churn.map(|c| JsonValue::Num(c.0))),
            ("link_rate", self.churn.map(|c| JsonValue::Num(c.1))),
            ("slo_window", self.slo_window.map(JsonValue::Int)),
        ];
        let mut pairs: Vec<_> = header
            .into_iter()
            .filter_map(|(k, v)| Some((k, v?)))
            .collect();
        for axis in &self.axes {
            let values = (0..axis.len()).map(|i| axis.value(i)).collect();
            pairs.push((axis.keys().0, JsonValue::Arr(values)));
        }
        let points = self.points.iter().enumerate().map(|(cell, point)| {
            let at = self.axes.iter().zip(cell_index(&self.axes, cell));
            let mut fields: Vec<_> = at.map(|(axis, i)| (axis.keys().1, axis.value(i))).collect();
            fields.extend(point.fields());
            object(fields)
        });
        pairs.push(("points", JsonValue::Arr(points.collect())));
        object(pairs)
    }
}

fn object(pairs: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Number of cycles during which [`Axis::Rates`] traffic is injected.
    pub inject_cycles: u64,
    /// Extra cycles granted after injection stops, for queues to drain.
    pub drain_cycles: u64,
    /// Seeds; every cell runs once per seed.
    pub seeds: Vec<u64>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            inject_cycles: 400,
            drain_cycles: 4_000,
            seeds: vec![1, 2, 3],
        }
    }
}

/// Decorrelates the draws of different cells and fault columns.
fn rung_seed(base: u64, rung: usize) -> u64 {
    base ^ ((rung as u64) << 32)
}

/// Runs `exp` over the grid `axes` span, once per seed of `config`, and
/// averages each cell into a [`Point`] (see the [module docs](self) for
/// the axes and the seeding contract). The base experiment's seed and
/// cycle cap are replaced by the config's seeds and
/// `inject_cycles + drain_cycles`.
///
/// A malformed grid is an [`ExperimentError::InvalidSweep`] before any
/// cell runs: no seeds, an axis kind given twice, both fault axes, an
/// [`Axis::Mttrs`] without a churn fault spec, or an [`Axis::Rates`]
/// on a collective (which replaces the traffic). Every other
/// configuration problem is the error [`Experiment::run`] gives, from
/// the first failing column.
pub fn sweep<T: Topology + ?Sized>(
    exp: &Experiment<'_, T>,
    axes: &[Axis],
    config: &SweepConfig,
) -> Result<Grid, ExperimentError> {
    let part = |k: usize| axes[k].part();
    let repeated = (1..axes.len()).find(|&k| (0..k).any(|j| part(j) == part(k)));
    let varies = |what: &str| axes.iter().any(|a| a.part() == what);
    let reason = if config.seeds.is_empty() {
        Some("a sweep needs at least one seed".to_string())
    } else if let Some(k) = repeated {
        Some(format!("two axes set the {}", part(k)))
    } else if axes.iter().any(|a| matches!(a, Axis::Mttrs(_))) && !exp.faults.is_churn() {
        Some(format!("`mttrs` needs churn faults, not `{}`", exp.faults))
    } else if varies("traffic") && exp.collective.is_some() {
        Some("a `rates` axis varies the traffic, which the collective replaces".to_string())
    } else {
        None
    };
    if let Some(reason) = reason {
        return Err(ExperimentError::InvalidSweep { reason });
    }
    let cap = config.inject_cycles + config.drain_cycles;
    let base = exp.clone().cycles(cap);
    let router = base.resolve_router()?;
    let fault_axis = axes.iter().position(|a| a.part() == "fault scenario");
    let cells = axes.iter().map(Axis::len).product();
    let (mut experiments, mut fault_of) = (Vec::with_capacity(cells), Vec::with_capacity(cells));
    for cell in 0..cells {
        let (index, mut exp) = (cell_index(axes, cell), base.clone());
        for (axis, &i) in axes.iter().zip(&index) {
            axis.apply(&mut exp, i, config.inject_cycles);
        }
        experiments.push(exp);
        fault_of.push(fault_axis.map_or(0, |k| index[k]));
    }
    let churn = match (&base.faults, fault_axis.map(|k| &axes[k])) {
        (_, Some(Axis::NodeFaults(_))) => None,
        (
            &FaultSpec::Churn {
                node_rate,
                link_rate,
                ..
            },
            _,
        ) => Some((node_rate, link_rate)),
        _ => None,
    };
    let slo_window = churn.map(|_| (config.inject_cycles / 8).max(1));
    let runs = run_grid(&experiments, &fault_of, &config.seeds, &*router, slo_window)?;
    let fixed_traffic = exp.collective.is_none() && !varies("traffic");
    let nodes = exp.topology.len();
    let injection = nodes as f64 * config.inject_cycles as f64;
    Ok(Grid {
        topology: exp.topology.name(),
        router: base.router_name(&*router, false),
        nodes,
        collective: exp.collective.as_ref().map(ToString::to_string),
        rate: match exp.traffic {
            TrafficSpec::Bernoulli { rate, .. } if fixed_traffic => Some(rate),
            _ => None,
        },
        churn,
        slo_window,
        axes: axes.to_vec(),
        points: runs
            .chunks(config.seeds.len())
            .map(|runs| Point::mean(runs, injection))
            .collect(),
    })
}

/// Runs every experiment of `cells` at every seed under the seeding
/// contract, with `fault_of[c]` the fault-axis index of cell `c`, and
/// returns the runs in (cell, seed) order. Each (fault value, seed)
/// column draws its faults and builds its mask once, then runs its
/// cells serially; columns fan out across the workspace pool, and the
/// first failing column (in column order) gives the error. With
/// `slo_window` set, every run carries an [`SloTracker`]'s figures.
pub(crate) fn run_grid<T, R>(
    cells: &[Experiment<'_, T>],
    fault_of: &[usize],
    seeds: &[u64],
    router: &R,
    slo_window: Option<u64>,
) -> Result<Vec<Run>, ExperimentError>
where
    T: Topology + ?Sized,
    R: Router + Sync + ?Sized,
{
    let faults = fault_of.iter().max().map_or(0, |&f| f + 1);
    let columns = par_map(faults * seeds.len(), |j| {
        let (f, s) = (j / seeds.len(), j % seeds.len());
        let members: Vec<usize> = (0..cells.len()).filter(|&c| fault_of[c] == f).collect();
        let drawn = cells[members[0]].draw_faults(rung_seed(seeds[s], f), router)?;
        let run = |c: usize| -> Result<(usize, Run), ExperimentError> {
            let cell = cells[c].clone().seed(rung_seed(seeds[s], c)).threads(1);
            let mut slo = slo_window.map(SloTracker::new);
            let report = match &mut slo {
                Some(slo) => cell.observe(slo).run_drawn(&drawn, router)?,
                None => cell.run_drawn(&drawn, router)?,
            };
            Ok((c * seeds.len() + s, Run { report, slo }))
        };
        members.into_iter().map(run).collect::<Result<Vec<_>, _>>()
    });
    let columns = columns.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut runs: Vec<_> = columns.into_iter().flatten().collect();
    runs.sort_unstable_by_key(|&(j, _)| j);
    Ok(runs.into_iter().map(|(_, run)| run).collect())
}

/// A geometric-ish default ladder from light load up to `max_rate`:
/// `rungs` evenly spaced rates ending at `max_rate`. Degenerate requests
/// are handled gracefully — 0 rungs is an empty ladder, 1 rung is just
/// `max_rate` (no division by `rungs − 1` anywhere).
pub fn rate_ladder(max_rate: f64, rungs: usize) -> Vec<f64> {
    (1..=rungs)
        .map(|i| max_rate * i as f64 / rungs as f64)
        .collect()
}

/// The saturation rung of a rate ladder: the index of the last point
/// whose delivered fraction stays at least `threshold` (conventionally
/// 0.95). A point that offered nothing counts as unsaturated. Returns
/// `None` when even the lightest rung saturates — and on an empty grid,
/// which has no rungs at all.
pub fn saturation_point(grid: &Grid, threshold: f64) -> Option<usize> {
    grid.points
        .iter()
        .rposition(|p| p.delivered_fraction.is_none_or(|f| f >= threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{CollectiveSpec, Port};
    use crate::router::RouterSpec;
    use crate::topology::{FibonacciNet, Hypercube, Ring};

    fn quick_config() -> SweepConfig {
        SweepConfig {
            inject_cycles: 120,
            drain_cycles: 2_000,
            seeds: vec![7, 8],
        }
    }

    /// `router` on `topo` over the rate ladder `rates`.
    fn ladder<T: Topology + ?Sized>(
        topo: &T,
        router: RouterSpec,
        rates: &[f64],
        config: &SweepConfig,
    ) -> Result<Grid, ExperimentError> {
        let exp = Experiment::on(topo).router(router);
        sweep(&exp, &[Axis::Rates(rates.to_vec())], config)
    }

    /// `router` on `topo` over the grid `rates` × `fault_counts`.
    fn fault_grid<T: Topology + ?Sized>(
        topo: &T,
        router: RouterSpec,
        rates: &[f64],
        fault_counts: &[usize],
    ) -> Result<Grid, ExperimentError> {
        let axes = [
            Axis::Rates(rates.to_vec()),
            Axis::NodeFaults(fault_counts.to_vec()),
        ];
        sweep(&Experiment::on(topo).router(router), &axes, &quick_config())
    }

    /// Bernoulli traffic at `rate` under churn at the given intensities,
    /// over the MTTR ladder `mttrs`.
    fn churn_grid<T: Topology + ?Sized>(
        topo: &T,
        router: RouterSpec,
        rate: f64,
        (node_rate, link_rate): (f64, f64),
        mttrs: &[f64],
    ) -> Result<Grid, ExperimentError> {
        let config = quick_config();
        let exp = Experiment::on(topo)
            .router(router)
            .traffic(TrafficSpec::Bernoulli {
                rate,
                cycles: config.inject_cycles,
            })
            .faults(FaultSpec::Churn {
                node_rate,
                link_rate,
                mttr: f64::INFINITY,
            });
        sweep(&exp, &[Axis::Mttrs(mttrs.to_vec())], &config)
    }

    #[test]
    fn light_load_delivers_everything_at_distance_latency() {
        let q = Hypercube::new(5);
        let grid = ladder(&q, RouterSpec::Ecube, &[0.01], &quick_config()).unwrap();
        assert_eq!(grid.topology, "Q_5");
        assert_eq!(grid.router, "e-cube");
        let p = &grid.points[0];
        let frac = p.delivered_fraction.expect("packets were offered");
        assert!(frac > 0.999, "light load must not saturate");
        let avg = fibcube_graph::distance::average_distance(q.graph());
        assert!(
            p.mean_latency >= avg * 0.5,
            "latency {} ≪ avg distance {avg}",
            p.mean_latency
        );
        assert!(
            p.mean_latency <= avg * 2.0 + 2.0,
            "light load ≈ zero-load latency"
        );
    }

    #[test]
    fn latency_is_monotone_ish_in_load_and_saturation_detected() {
        let net = FibonacciNet::classical(8);
        let rates = rate_ladder(0.6, 4);
        let mut config = quick_config();
        // Short drain so the saturated rungs visibly drop packets.
        config.drain_cycles = 200;
        let grid = ladder(&net, RouterSpec::Canonical, &rates, &config).unwrap();
        assert_eq!(grid.points.len(), 4);
        let first = &grid.points[0];
        let last = &grid.points[grid.points.len() - 1];
        assert!(
            last.mean_latency >= first.mean_latency,
            "latency must not fall as load rises: {} vs {}",
            last.mean_latency,
            first.mean_latency
        );
        // Γ_8 (55 nodes, max degree 8) cannot accept 0.6 pkt/node/cycle of
        // uniform traffic: the top rung must saturate.
        let top = last.delivered_fraction.expect("packets were offered");
        assert!(top < 0.95, "top rung should saturate");
        if let Some(i) = saturation_point(&grid, 0.95) {
            assert!(rates[i] < rates[3]);
        }
    }

    #[test]
    fn unsupported_router_fails_the_sweep_up_front() {
        let ring = Ring::new(9);
        let err = ladder(&ring, RouterSpec::Canonical, &[0.1], &quick_config())
            .expect_err("no canonical routing on a ring");
        assert!(err.to_string().contains("Ring_9"), "{err}");
        let err = ladder(&ring, RouterSpec::Builtin, &[1.5], &quick_config())
            .expect_err("rate 1.5 is not a probability");
        assert!(err.to_string().contains("1.5"), "{err}");
    }

    #[test]
    fn malformed_grids_are_typed_errors_before_anything_runs() {
        let q = Hypercube::new(3);
        let exp = Experiment::on(&q);
        let no_seeds = SweepConfig {
            seeds: Vec::new(),
            ..quick_config()
        };
        // An empty seed list used to abort on an assertion.
        let err = sweep(&exp, &[Axis::Rates(vec![0.1])], &no_seeds)
            .expect_err("a sweep needs at least one seed");
        assert!(
            matches!(err, ExperimentError::InvalidSweep { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("seed"), "{err}");
        let churn = FaultSpec::Churn {
            node_rate: 0.01,
            link_rate: 0.0,
            mttr: 50.0,
        };
        let bad = [
            (
                exp.clone(),
                vec![Axis::Rates(vec![0.1]), Axis::Rates(vec![0.2])],
            ),
            (
                exp.clone().faults(churn),
                vec![Axis::NodeFaults(vec![1]), Axis::Mttrs(vec![10.0])],
            ),
            (exp.clone(), vec![Axis::Mttrs(vec![10.0])]),
            (
                exp.clone().collective(CollectiveSpec::AllToAllPersonalized),
                vec![Axis::Rates(vec![0.1])],
            ),
        ];
        for (exp, axes) in bad {
            let err = sweep(&exp, &axes, &quick_config()).expect_err("malformed grid");
            assert!(
                matches!(err, ExperimentError::InvalidSweep { .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn ladder_shape() {
        let l = rate_ladder(0.8, 4);
        assert_eq!(l, vec![0.2, 0.4, 0.6000000000000001, 0.8]);
    }

    #[test]
    fn ladder_degenerate_rung_counts() {
        // Satellite hardening: 0 and 1 rungs must not panic or divide
        // degenerately.
        assert!(rate_ladder(0.5, 0).is_empty());
        assert_eq!(rate_ladder(0.5, 1), vec![0.5]);
    }

    #[test]
    fn saturation_point_of_empty_curve_is_none() {
        let empty = Grid {
            topology: "Q_3".into(),
            router: "e-cube".into(),
            nodes: 8,
            collective: None,
            rate: None,
            churn: None,
            slo_window: None,
            axes: vec![Axis::Rates(Vec::new())],
            points: Vec::new(),
        };
        assert!(saturation_point(&empty, 0.95).is_none());
        // And an empty ladder sweeps to an empty grid without running.
        let q = Hypercube::new(3);
        let grid = ladder(&q, RouterSpec::Ecube, &[], &quick_config()).unwrap();
        assert!(grid.points.is_empty());
        assert!(saturation_point(&grid, 0.95).is_none());
    }

    #[test]
    fn fault_load_sweep_shows_graceful_degradation() {
        let net = FibonacciNet::classical(7); // 34 nodes
        let grid = fault_grid(&net, RouterSpec::Adaptive, &[0.05], &[0, 8]).unwrap();
        assert_eq!(grid.points.len(), 2);
        assert_eq!(grid.router, "adaptive");
        assert_eq!(grid.axes[1], Axis::NodeFaults(vec![0, 8]));
        let healthy = grid.point(&[0, 0]);
        let degraded = grid.point(&[0, 1]);
        // The healthy column never drops; the degraded one must (8 of 34
        // nodes dead ⇒ ~40% of uniform pairs touch a dead endpoint).
        assert_eq!(healthy.dropped_dead_endpoint, 0.0);
        let healthy_frac = healthy.delivered_fraction.expect("packets were offered");
        let degraded_frac = degraded.delivered_fraction.expect("packets were offered");
        assert!(healthy_frac > 0.999, "light load delivers");
        assert!(degraded.dropped_dead_endpoint > 0.0);
        assert!(
            degraded_frac < healthy_frac,
            "faults must degrade delivered throughput: {degraded_frac} vs {healthy_frac}"
        );
        let json = grid.to_json_value().to_string();
        assert!(json.contains("\"fault_counts\": [0, 8]"), "{json}");
        assert!(json.contains("\"faults\": 8"), "{json}");
        assert!(json.contains("\"delivered_fraction\""), "{json}");
        // A rate-0 cell offers nothing: the fraction is undefined, not a
        // misleading 1.0 (serialised as null).
        let idle = fault_grid(&net, RouterSpec::Adaptive, &[0.0], &[0]).unwrap();
        assert_eq!(idle.point(&[0, 0]).delivered_fraction, None);
        assert!(idle
            .to_json_value()
            .to_string()
            .contains("\"delivered_fraction\": null"));
        // … and it still counts as unsaturated.
        assert_eq!(saturation_point(&idle, 0.95), Some(0));
    }

    #[test]
    fn fault_load_sweep_rejects_bad_grids_up_front() {
        let net = FibonacciNet::classical(6); // 21 nodes
        let err = fault_grid(&net, RouterSpec::Ecube, &[0.1], &[0])
            .expect_err("no e-cube on a Fibonacci net");
        assert!(matches!(err, ExperimentError::UnsupportedRouter { .. }));
        let err = fault_grid(&net, RouterSpec::Adaptive, &[0.1], &[21])
            .expect_err("failing every node is rejected");
        assert!(
            err.to_string().contains("at least one must survive"),
            "{err}"
        );
        // An empty grid runs nothing and returns no points.
        let grid = fault_grid(&net, RouterSpec::Adaptive, &[], &[]).unwrap();
        assert!(grid.points.is_empty());
    }

    #[test]
    fn fault_load_grid_cells_are_stable_under_ladder_extension() {
        // A column's fault draw depends only on (fault count, seed), and
        // a cell's traffic only on its own (rate, fault) indices — so
        // extending the rate ladder must not perturb existing cells.
        let net = FibonacciNet::classical(7); // 34 nodes
        let short = fault_grid(&net, RouterSpec::Adaptive, &[0.05], &[0, 6]).unwrap();
        let long = fault_grid(&net, RouterSpec::Adaptive, &[0.05, 0.2], &[0, 6]).unwrap();
        for fi in 0..2 {
            let a = short.point(&[0, fi]);
            let b = long.point(&[0, fi]);
            assert_eq!(a.offered, b.offered, "fault column {fi}");
            assert_eq!(a.delivered, b.delivered, "fault column {fi}");
            assert_eq!(a.dropped_dead_endpoint, b.dropped_dead_endpoint);
            assert_eq!(a.mean_latency, b.mean_latency);
            assert_eq!(a.p99_latency, b.p99_latency);
        }
    }

    #[test]
    fn churn_sweep_reports_recovery_grid() {
        let net = FibonacciNet::classical(8); // 55 nodes
        let grid = churn_grid(
            &net,
            RouterSpec::Canonical,
            0.05,
            (0.005, 0.005),
            &[50.0, f64::INFINITY],
        )
        .unwrap();
        assert_eq!(grid.topology, "Γ_8");
        assert_eq!(grid.router, "canonical");
        assert_eq!(grid.axes, vec![Axis::Mttrs(vec![50.0, f64::INFINITY])]);
        assert_eq!(grid.points.len(), 2);
        assert_eq!(grid.slo_window, Some(15)); // inject_cycles 120 / 8
        assert_eq!(grid.rate, Some(0.05));
        assert_eq!(grid.churn, Some((0.005, 0.005)));
        let healing = &grid.points[0];
        let permanent = &grid.points[1];
        let fails = |p: &Point| p.fail_events.expect("churn cells carry SLO figures");
        // ~0.005/cycle over 2120 cycles: both cells must see failures.
        assert!(fails(healing) > 0.0, "{}", fails(healing));
        assert!(fails(permanent) > 0.0, "{}", fails(permanent));
        // Finite MTTR commits recover events on top of the fails;
        // mttr = ∞ never heals, so every committed event is a fail.
        let healing_events = healing.events.expect("churn cell");
        assert!(
            healing_events > fails(healing),
            "{healing_events} vs {}",
            fails(healing)
        );
        assert_eq!(permanent.events, permanent.fail_events);
        // Traffic flowed and the SLO machinery produced figures.
        let frac = healing.delivered_fraction.expect("packets were offered");
        assert!(frac > 0.0 && frac <= 1.0, "{frac}");
        assert!(
            healing.recovered_fraction.is_some(),
            "fail events exist, so the fraction is defined"
        );
        if let Some(ttr) = healing.mean_time_to_recover {
            assert!(ttr > 0.0, "recovery takes at least one window: {ttr}");
        }
        let json = grid.to_json_value().to_string();
        assert!(json.contains("\"mttrs\""), "{json}");
        assert!(json.contains("\"mean_time_to_recover\""), "{json}");
        assert!(json.contains("\"worst_window_p999\""), "{json}");
        // Infinite MTTR serialises as null, keeping the artifact valid
        // JSON.
        assert!(json.contains("\"mttrs\": [50, null]"), "{json}");
        assert!(json.contains("\"mttr\": null"), "{json}");
    }

    #[test]
    fn churn_sweep_with_zero_rates_matches_the_quiet_network() {
        // node_rate = link_rate = 0 generates an empty timeline: no
        // events, nothing to recover from, full delivery at light load.
        let q = Hypercube::new(4);
        let grid = churn_grid(&q, RouterSpec::Ecube, 0.02, (0.0, 0.0), &[100.0]).unwrap();
        let p = &grid.points[0];
        assert_eq!(p.events, Some(0.0));
        assert_eq!(p.fail_events, Some(0.0));
        assert_eq!(p.recovered_fraction, None);
        assert_eq!(p.mean_time_to_recover, None);
        assert_eq!(p.dropped_link_died, 0.0);
        assert_eq!(p.dropped_node_died, 0.0);
        let frac = p.delivered_fraction.expect("packets were offered");
        assert!(frac > 0.999, "quiet light load delivers everything: {frac}");
        assert!(grid
            .to_json_value()
            .to_string()
            .contains("\"recovered_fraction\": null"));
    }

    #[test]
    fn churn_sweep_rejects_bad_grids_up_front() {
        let net = FibonacciNet::classical(6);
        let err = churn_grid(&net, RouterSpec::Canonical, 0.05, (0.001, 0.0), &[0.0])
            .expect_err("zero MTTR is degenerate");
        assert!(err.to_string().contains("mttr"), "{err}");
        let err = churn_grid(&net, RouterSpec::Ecube, 0.05, (0.001, 0.0), &[50.0])
            .expect_err("no e-cube on a Fibonacci net");
        assert!(matches!(err, ExperimentError::UnsupportedRouter { .. }));
        // An empty MTTR ladder runs nothing.
        let grid = churn_grid(&net, RouterSpec::Canonical, 0.05, (0.001, 0.001), &[]).unwrap();
        assert!(grid.points.is_empty());
    }

    #[test]
    fn collective_sweep_degrades_coverage_not_correctness() {
        let net = FibonacciNet::classical(8); // 55 nodes
        let exp = Experiment::on(&net).collective(CollectiveSpec::Broadcast {
            source: 0,
            port: Port::One,
        });
        let grid = sweep(&exp, &[Axis::NodeFaults(vec![0, 10])], &quick_config()).unwrap();
        assert_eq!(grid.topology, "Γ_8");
        assert_eq!(
            grid.collective.as_deref(),
            Some("broadcast(source=0,port=one)")
        );
        assert_eq!(grid.points.len(), 2);
        let healthy = &grid.points[0];
        let degraded = &grid.points[1];
        // Healthy column: full coverage, completion == the static rounds
        // oracle (averaged over seeds, but every seed matches exactly).
        assert_eq!(healthy.reached_fraction, Some(1.0));
        assert_eq!(healthy.dropped_dead_endpoint, 0.0);
        assert_eq!(
            Some(healthy.makespan),
            healthy.schedule_rounds,
            "healthy one-port completion equals the static oracle"
        );
        // Degraded column: 10 of 55 nodes dead ⇒ coverage must drop, and
        // every missing target is a typed drop.
        let frac = degraded.reached_fraction.expect("targets exist");
        assert!(frac < 1.0, "10 dead nodes must cost coverage: {frac}");
        assert!(degraded.dropped_dead_endpoint > 0.0);
        assert_eq!(
            degraded.reached.unwrap()
                + degraded.dropped_dead_endpoint
                + degraded.dropped_unreachable,
            degraded.targets.unwrap(),
            "copy conservation survives aggregation"
        );
        let json = grid.to_json_value().to_string();
        assert!(
            json.contains("\"spec\": \"broadcast(source=0,port=one)\""),
            "{json}"
        );
        assert!(json.contains("\"faults\": 10"), "{json}");
        assert!(json.contains("\"completion_cycles\""), "{json}");
        assert!(json.contains("\"reached_fraction\""), "{json}");
    }

    #[test]
    fn collective_sweep_rejects_bad_grids_up_front() {
        let net = FibonacciNet::classical(6); // 21 nodes
        let broadcast = |source, port| {
            Experiment::on(&net).collective(CollectiveSpec::Broadcast { source, port })
        };
        let faults = |counts: &[usize]| [Axis::NodeFaults(counts.to_vec())];
        let err = sweep(&broadcast(21, Port::One), &faults(&[0]), &quick_config())
            .expect_err("source outside the network");
        assert!(matches!(err, ExperimentError::InvalidCollective { .. }));
        let err = sweep(&broadcast(0, Port::All), &faults(&[21]), &quick_config())
            .expect_err("failing every node is rejected");
        assert!(
            err.to_string().contains("at least one must survive"),
            "{err}"
        );
        // An empty grid runs nothing.
        let grid = sweep(&broadcast(0, Port::All), &faults(&[]), &quick_config()).unwrap();
        assert!(grid.points.is_empty());
    }

    #[test]
    fn switching_sweep_compares_wormhole_to_store_and_forward() {
        let net = FibonacciNet::classical(8); // 55 nodes
        let specs = vec![
            SwitchingSpec::StoreAndForward,
            SwitchingSpec::Wormhole {
                flit_size: 8,
                vcs: 2,
                buf_flits: 4,
            },
        ];
        let axes = [
            Axis::Rates(vec![0.02, 0.08]),
            Axis::Switching(specs.clone()),
        ];
        let exp = Experiment::on(&net).router(RouterSpec::Canonical);
        let grid = sweep(&exp, &axes, &quick_config()).unwrap();
        assert_eq!(grid.points.len(), 4);
        assert_eq!(
            specs.iter().map(ToString::to_string).collect::<Vec<_>>(),
            vec![
                "store_and_forward".to_string(),
                "wormhole(flit_size=8,vcs=2,buf_flits=4)".to_string()
            ]
        );
        let saf = grid.point(&[0, 0]);
        let worm = grid.point(&[0, 1]);
        // Light load: both models deliver everything …
        let frac = |p: &Point| p.delivered_fraction.expect("packets were offered");
        assert!(frac(saf) > 0.999, "{}", frac(saf));
        assert!(frac(worm) > 0.999, "{}", frac(worm));
        // … but a 4-flit worm pays serialization latency the
        // packet-atomic engine never sees.
        assert!(
            worm.mean_latency > saf.mean_latency,
            "wormhole {} vs SAF {}",
            worm.mean_latency,
            saf.mean_latency
        );
        let json = grid.to_json_value().to_string();
        assert!(
            json.contains("\"switching\": \"store_and_forward\""),
            "{json}"
        );
        assert!(json.contains("wormhole(flit_size=8"), "{json}");
        assert!(json.contains("\"makespan\""), "{json}");
    }

    #[test]
    fn switching_sweep_rejects_bad_specs_up_front() {
        let q = Hypercube::new(4);
        let exp = Experiment::on(&q).router(RouterSpec::Ecube);
        let bad = SwitchingSpec::Wormhole {
            flit_size: 0,
            vcs: 1,
            buf_flits: 1,
        };
        let axes = [Axis::Rates(vec![0.05]), Axis::Switching(vec![bad])];
        let err = sweep(&exp, &axes, &quick_config()).expect_err("zero flit size is degenerate");
        assert!(matches!(err, ExperimentError::InvalidSwitching { .. }));
        assert!(err.to_string().contains("switching"), "{err}");
        // An empty grid runs nothing and returns no points.
        let axes = [Axis::Rates(Vec::new()), Axis::Switching(Vec::new())];
        let grid = sweep(&exp, &axes, &quick_config()).unwrap();
        assert!(grid.points.is_empty());
    }

    #[test]
    fn curve_serialises_to_json() {
        let q = Hypercube::new(3);
        let grid = ladder(&q, RouterSpec::Ecube, &[0.05], &quick_config()).unwrap();
        let json = grid.to_json_value().to_string();
        assert!(json.contains("\"topology\": \"Q_3\""), "{json}");
        assert!(json.contains("\"rate\": 0.05"), "{json}");
    }
}
