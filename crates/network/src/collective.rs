//! Collective communication as a *live, simulated* workload.
//!
//! The 1993 line treats one-to-all broadcasting on `Γ_d` as a headline
//! capability, but a static [`BroadcastSchedule`] only proves a round
//! count — it says nothing about how the collective behaves on the real
//! (possibly degraded) fabric. This module promotes collectives to
//! first-class experiment workloads:
//!
//! * [`CollectiveSpec`] — a declarative, parseable description
//!   (`broadcast(source=0,port=one)`, `multicast(source=0,count=8,port=all)`,
//!   `alltoallp`) that round-trips through `Display`/`FromStr` exactly
//!   like [`TrafficSpec`] and
//!   [`FaultSpec`](crate::fault::FaultSpec), attached to an experiment
//!   with [`Experiment::collective`](crate::experiment::Experiment::collective);
//! * [`CopyPlan`] — the spec compiled against a concrete (healthy or
//!   faulted) network: a `BroadcastSchedule`-derived **next-copy table**
//!   (per-node child/edge lists in round order, CSR layout) that the
//!   arena engine ([`Workload::Copies`](crate::engine::Workload::Copies))
//!   executes by replicating packets at intermediate nodes — one copy per
//!   tree edge, chained through the struct-of-arrays
//!   [`PacketSlab`](crate::arena::PacketSlab) with no per-packet
//!   allocation;
//! * [`CollectiveOutcome`] — the completion-time/round statistics a
//!   collective run adds to its [`Report`](crate::report::Report).
//!
//! Under faults the plan is compiled on the healthy subgraph, so a
//! degraded collective delivers to *exactly* the survivor component of
//! the source: dead targets and targets the faults disconnect become
//! typed drops at cycle 0, and packet conservation extends to replicated
//! copies — `offered == delivered + dropped + in-flight` per copy.

use core::fmt;
use core::str::FromStr;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use fibcube_graph::csr::CsrGraph;

use crate::broadcast::{partial_all_port, partial_one_port, BroadcastSchedule};
use crate::experiment::ExperimentError;
use crate::fault::FaultSet;
use crate::report::JsonValue;
use crate::traffic::{check_list_size, num, parse_kv_opt, split_call, Packet, TrafficSpec};

/// The port model of a tree collective: how many neighbors an informed
/// node may forward to per cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Port {
    /// Telephone model: one copy per node per cycle (text form `one`).
    /// The information-theoretic completion floor is `⌈log₂ n⌉` rounds.
    One,
    /// Shouting model: all children at once (text form `all`).
    /// Completion equals the source's eccentricity.
    All,
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Port::One => "one",
            Port::All => "all",
        })
    }
}

/// A declarative collective-communication workload, the collective half
/// of an [`Experiment`](crate::experiment::Experiment). See the
/// [module docs](self) for the execution model.
///
/// Canonical text forms (round-tripping through `Display`/`FromStr`;
/// `port=` may be omitted on parse and defaults to `one`):
///
/// | Variant | Text |
/// |---|---|
/// | `Broadcast` | `broadcast(source=0,port=one)` |
/// | `Multicast` | `multicast(source=0,count=8,port=all)` |
/// | `AllToAllPersonalized` | `alltoallp` |
#[derive(Clone, Debug, PartialEq)]
pub enum CollectiveSpec {
    /// One-to-all: `source` informs every other node over the broadcast
    /// tree of the (possibly degraded) network.
    Broadcast {
        /// The originating node.
        source: u32,
        /// Port model (`one` = telephone, `all` = shouting).
        port: Port,
    },
    /// One-to-many: `source` informs `count` seeded-random distinct
    /// destinations over the broadcast tree pruned to their ancestors
    /// (relay nodes still physically receive a copy).
    Multicast {
        /// The originating node.
        source: u32,
        /// Number of destinations (drawn from the experiment seed).
        count: usize,
        /// Port model (`one` = telephone, `all` = shouting).
        port: Port,
    },
    /// All-to-all personalized exchange: every ordered pair carries a
    /// *distinct* message, so nothing can be replicated — the collective
    /// runs as `n·(n−1)` routed unicasts and its completion time is the
    /// exchange makespan.
    AllToAllPersonalized,
}

impl CollectiveSpec {
    /// Checks the spec against a network of `n` nodes, returning a typed
    /// error instead of a later panic — including the personalized
    /// exchange's `n·(n−1)` packets when their list would exceed
    /// [`TABLE_BYTE_BUDGET`](crate::router::TABLE_BYTE_BUDGET) bytes.
    pub fn validate(&self, n: usize) -> Result<(), ExperimentError> {
        let invalid = |reason: String| {
            Err(ExperimentError::InvalidCollective {
                spec: self.to_string(),
                reason,
            })
        };
        match *self {
            CollectiveSpec::Broadcast { source, .. } => {
                if source as usize >= n {
                    invalid(format!(
                        "source {source} does not exist (network has {n} nodes)"
                    ))
                } else {
                    Ok(())
                }
            }
            CollectiveSpec::Multicast { source, count, .. } => {
                if source as usize >= n {
                    invalid(format!(
                        "source {source} does not exist (network has {n} nodes)"
                    ))
                } else if count == 0 {
                    invalid("multicast needs at least one destination".to_string())
                } else if count > n.saturating_sub(1) {
                    invalid(format!(
                        "multicast to {count} destinations needs {} other nodes, \
                         the network has {}",
                        count,
                        n.saturating_sub(1)
                    ))
                } else {
                    Ok(())
                }
            }
            CollectiveSpec::AllToAllPersonalized => {
                check_list_size(TrafficSpec::AllToAll.list_len(n)).or_else(invalid)
            }
        }
    }

    /// The intended recipients of the collective on a network of `n`
    /// nodes (multicast destinations draw from `seed`), and the port
    /// model — `None` for the unicast-only personalized exchange.
    fn tree_shape(&self, n: usize, seed: u64) -> Option<(u32, Vec<u32>, Port)> {
        match *self {
            CollectiveSpec::Broadcast { source, port } => {
                let targets = (0..n as u32).filter(|&v| v != source).collect();
                Some((source, targets, port))
            }
            CollectiveSpec::Multicast {
                source,
                count,
                port,
            } => {
                let mut others: Vec<u32> = (0..n as u32).filter(|&v| v != source).collect();
                others.shuffle(&mut StdRng::seed_from_u64(seed));
                others.truncate(count);
                others.sort_unstable();
                Some((source, others, port))
            }
            CollectiveSpec::AllToAllPersonalized => None,
        }
    }

    /// Compiles the spec against a concrete network degraded by `faults`:
    /// tree collectives become a [`CopyPlan`] over the survivor component
    /// of the source, the personalized exchange becomes its unicast
    /// packet set (which the faulted engine types and drops as usual).
    /// Deterministic in `(self, g, faults, seed)`.
    pub(crate) fn compile(
        &self,
        g: &CsrGraph,
        faults: &FaultSet,
        seed: u64,
    ) -> Result<CollectiveWorkload, ExperimentError> {
        self.validate(g.num_vertices())?;
        Ok(match self.tree_shape(g.num_vertices(), seed) {
            Some((source, targets, port)) => {
                CollectiveWorkload::Tree(CopyPlan::build(g, faults, source, &targets, port))
            }
            None => {
                CollectiveWorkload::Unicasts(TrafficSpec::AllToAll.generate(g.num_vertices(), 0))
            }
        })
    }

    /// `true` for the full one-to-all broadcast — the variant whose
    /// static schedule round count is an exact completion oracle.
    pub fn is_broadcast(&self) -> bool {
        matches!(self, CollectiveSpec::Broadcast { .. })
    }
}

impl fmt::Display for CollectiveSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveSpec::Broadcast { source, port } => {
                write!(f, "broadcast(source={source},port={port})")
            }
            CollectiveSpec::Multicast {
                source,
                count,
                port,
            } => {
                write!(f, "multicast(source={source},count={count},port={port})")
            }
            CollectiveSpec::AllToAllPersonalized => write!(f, "alltoallp"),
        }
    }
}

fn parse_err(input: &str, reason: impl Into<String>) -> ExperimentError {
    ExperimentError::ParseSpec {
        what: "collective",
        input: input.to_string(),
        reason: reason.into(),
    }
}

fn parse_port(s: &str, value: Option<&str>) -> Result<Port, ExperimentError> {
    match value {
        None | Some("one") => Ok(Port::One),
        Some("all") => Ok(Port::All),
        Some(other) => Err(parse_err(
            s,
            format!("`port` must be `one` or `all`, got `{other}`"),
        )),
    }
}

impl FromStr for CollectiveSpec {
    type Err = ExperimentError;

    fn from_str(s: &str) -> Result<CollectiveSpec, ExperimentError> {
        let s = s.trim();
        let (name, body) = split_call(s).map_err(|e| parse_err(s, e))?;
        let body_or = |kind: &str| {
            body.ok_or_else(|| {
                parse_err(s, format!("`{kind}` needs arguments, e.g. `{kind}(...)`"))
            })
        };
        match name {
            "broadcast" => {
                let (req, opt) = parse_kv_opt(body_or("broadcast")?, &["source"], &["port"])
                    .map_err(|e| parse_err(s, e))?;
                Ok(CollectiveSpec::Broadcast {
                    source: num(req[0], "source").map_err(|e| parse_err(s, e))?,
                    port: parse_port(s, opt[0])?,
                })
            }
            "multicast" => {
                let (req, opt) =
                    parse_kv_opt(body_or("multicast")?, &["source", "count"], &["port"])
                        .map_err(|e| parse_err(s, e))?;
                Ok(CollectiveSpec::Multicast {
                    source: num(req[0], "source").map_err(|e| parse_err(s, e))?,
                    count: num(req[1], "count").map_err(|e| parse_err(s, e))?,
                    port: parse_port(s, opt[0])?,
                })
            }
            "alltoallp" => match body {
                None | Some("") => Ok(CollectiveSpec::AllToAllPersonalized),
                Some(extra) => Err(parse_err(
                    s,
                    format!("`alltoallp` takes no arguments: `{extra}`"),
                )),
            },
            other => Err(parse_err(
                s,
                format!("unknown collective `{other}` (expected broadcast, multicast, alltoallp)"),
            )),
        }
    }
}

/// A compiled collective workload: either a replication tree or the
/// unicast packet set of the personalized exchange.
pub(crate) enum CollectiveWorkload {
    /// Tree-forwarding plan for broadcast/multicast.
    Tree(CopyPlan),
    /// The `n·(n−1)` routed unicasts of `alltoallp`.
    Unicasts(Vec<Packet>),
}

/// The *next-copy table* of a tree collective: a
/// [`BroadcastSchedule`]-derived forwarding plan the arena engine
/// executes by replication. Per node it stores the children to inform —
/// in schedule-round order — together with the directed CSR edge that
/// reaches each child, so a spawn is two array loads and a link-FIFO
/// push. Intended recipients that a fault set kills or disconnects are
/// recorded as typed drops the engine reports at cycle 0.
///
/// Built from a static schedule via [`CopyPlan::from_schedule`] (healthy
/// networks), or compiled from a [`CollectiveSpec`] against a fault set
/// by the experiment layer.
#[derive(Clone, Debug)]
pub struct CopyPlan {
    one_port: bool,
    source: u32,
    /// CSR offsets: node `u`'s children live at
    /// `children[child_offsets[u] .. child_offsets[u + 1]]`.
    child_offsets: Vec<u32>,
    /// Child node per plan edge, grouped by parent, round-ordered.
    children: Vec<u32>,
    /// Directed CSR edge (parent → child) per plan edge.
    child_edges: Vec<u32>,
    /// `is_target[v]` — `v` is an intended recipient (not just a relay).
    is_target: Vec<bool>,
    /// Intended recipients whose node (or the source) died.
    dropped_dead: Vec<u32>,
    /// Surviving intended recipients the faults disconnect.
    dropped_unreachable: Vec<u32>,
    /// Rounds of the static schedule restricted to the kept tree.
    schedule_rounds: u32,
}

impl CopyPlan {
    /// Derives the next-copy table from a static [`BroadcastSchedule`] on
    /// the healthy network `g` (the graph the schedule was computed on).
    /// Every node is an intended recipient; `one_port` selects the
    /// replication discipline the engine applies.
    pub fn from_schedule(g: &CsrGraph, schedule: &BroadcastSchedule, one_port: bool) -> CopyPlan {
        let n = g.num_vertices();
        let mut calls = schedule.calls.clone();
        calls.sort_by_key(|&(_, v)| schedule.round[v as usize]);
        let mut is_target = vec![true; n];
        is_target[schedule.source as usize] = false;
        CopyPlan::assemble(
            g,
            one_port,
            schedule.source,
            &calls,
            is_target,
            Vec::new(),
            Vec::new(),
            schedule.rounds,
        )
    }

    /// Compiles a tree collective against `g` degraded by `faults`:
    /// schedules on the healthy subgraph, prunes the tree to the targets'
    /// ancestors, and types every unreachable target as a drop.
    pub(crate) fn build(
        g: &CsrGraph,
        faults: &FaultSet,
        source: u32,
        targets: &[u32],
        port: Port,
    ) -> CopyPlan {
        let n = g.num_vertices();
        let one_port = port == Port::One;
        let mut is_target = vec![false; n];
        for &t in targets {
            is_target[t as usize] = true;
        }
        if !faults.node_alive(source) {
            // A dead source reaches nothing: every intended recipient
            // drops with a dead endpoint, exactly like a unicast whose
            // source failed.
            return CopyPlan::assemble(
                g,
                one_port,
                source,
                &[],
                is_target,
                targets.to_vec(),
                Vec::new(),
                0,
            );
        }
        let (healthy, survivors) = faults.healthy_subgraph(g);
        let new_of = |old: u32| survivors.binary_search(&old).ok();
        let src_new = new_of(source).expect("alive nodes appear in the survivor map") as u32;
        let partial = if one_port {
            partial_one_port(&healthy, src_new)
        } else {
            partial_all_port(&healthy, src_new)
        };
        // Type the drops: dead target vs surviving-but-disconnected.
        let mut dropped_dead = Vec::new();
        let mut dropped_unreachable = Vec::new();
        for &t in targets {
            match new_of(t) {
                None => dropped_dead.push(t),
                Some(i) if partial.round[i] == u32::MAX => dropped_unreachable.push(t),
                Some(_) => {}
            }
        }
        // Prune to the targets and their ancestors (relays), using the
        // parent pointers of the schedule tree.
        let hn = healthy.num_vertices();
        let mut parent = vec![u32::MAX; hn];
        for &(u, v) in &partial.calls {
            parent[v as usize] = u;
        }
        let mut keep = vec![false; hn];
        for &t in targets {
            if let Some(i) = new_of(t) {
                if partial.round[i] != u32::MAX {
                    let mut cur = i as u32;
                    while cur != src_new && !keep[cur as usize] {
                        keep[cur as usize] = true;
                        cur = parent[cur as usize];
                    }
                }
            }
        }
        let mut rounds = 0u32;
        let calls: Vec<(u32, u32)> = partial
            .calls
            .iter()
            .filter(|&&(_, v)| keep[v as usize])
            .map(|&(u, v)| {
                rounds = rounds.max(partial.round[v as usize]);
                (survivors[u as usize], survivors[v as usize])
            })
            .collect();
        CopyPlan::assemble(
            g,
            one_port,
            source,
            &calls,
            is_target,
            dropped_dead,
            dropped_unreachable,
            rounds,
        )
    }

    /// Packs round-ordered `(parent, child)` calls (original node ids)
    /// into the CSR next-copy table, resolving each call to its directed
    /// edge once so the engine never searches.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        g: &CsrGraph,
        one_port: bool,
        source: u32,
        calls: &[(u32, u32)],
        is_target: Vec<bool>,
        dropped_dead: Vec<u32>,
        dropped_unreachable: Vec<u32>,
        schedule_rounds: u32,
    ) -> CopyPlan {
        let n = g.num_vertices();
        let mut counts = vec![0u32; n + 1];
        for &(u, _) in calls {
            counts[u as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let child_offsets = counts.clone();
        let mut cursor = counts;
        let mut children = vec![0u32; calls.len()];
        let mut child_edges = vec![0u32; calls.len()];
        for &(u, v) in calls {
            let at = cursor[u as usize] as usize;
            cursor[u as usize] += 1;
            children[at] = v;
            let slot = g
                .slot_of(u, v)
                .expect("schedule calls are links of the network");
            child_edges[at] = (g.edge_range(u).start + slot) as u32;
        }
        CopyPlan {
            one_port,
            source,
            child_offsets,
            children,
            child_edges,
            is_target,
            dropped_dead,
            dropped_unreachable,
            schedule_rounds,
        }
    }

    /// `true` when the plan replicates one copy per node per cycle
    /// (telephone model); `false` for all-port (shouting).
    pub fn one_port(&self) -> bool {
        self.one_port
    }

    /// The collective's source node.
    pub fn source(&self) -> u32 {
        self.source
    }

    /// Copies the plan will spawn — one per kept tree edge.
    pub fn total_copies(&self) -> usize {
        self.children.len()
    }

    /// Intended recipients, reachable or not.
    pub fn targets(&self) -> usize {
        self.is_target.iter().filter(|&&t| t).count()
    }

    /// Copies the engine must account for: spawned plus dropped —
    /// the `offered` figure of the run's
    /// [`SimStats`](crate::engine::SimStats).
    pub fn offered(&self) -> usize {
        self.total_copies() + self.dropped_dead.len() + self.dropped_unreachable.len()
    }

    /// Rounds of the static schedule restricted to the kept tree — the
    /// completion oracle for an uncontended run (exact for broadcast).
    pub fn schedule_rounds(&self) -> u32 {
        self.schedule_rounds
    }

    /// The plan-edge range of node `u`'s children.
    #[inline]
    pub(crate) fn children_range(&self, u: u32) -> core::ops::Range<usize> {
        self.child_offsets[u as usize] as usize..self.child_offsets[u as usize + 1] as usize
    }

    /// The child node of plan edge `idx`.
    #[inline]
    pub(crate) fn child(&self, idx: usize) -> u32 {
        self.children[idx]
    }

    /// The directed CSR edge of plan edge `idx`.
    #[inline]
    pub(crate) fn edge(&self, idx: usize) -> usize {
        self.child_edges[idx] as usize
    }

    /// `true` when `v` is an intended recipient (not just a relay).
    #[inline]
    pub(crate) fn is_target(&self, v: u32) -> bool {
        self.is_target[v as usize]
    }

    /// Intended recipients dropped at cycle 0 with a dead endpoint.
    pub(crate) fn dropped_dead(&self) -> &[u32] {
        &self.dropped_dead
    }

    /// Surviving intended recipients the faults disconnect.
    pub(crate) fn dropped_unreachable(&self) -> &[u32] {
        &self.dropped_unreachable
    }
}

/// The completion-time/round statistics of one collective run, reported
/// alongside the engine's [`SimStats`](crate::engine::SimStats) in the
/// experiment [`Report`](crate::report::Report).
#[derive(Clone, Debug, PartialEq)]
pub struct CollectiveOutcome {
    /// The [`CollectiveSpec`] that ran, in canonical parseable form.
    pub spec: String,
    /// Intended recipients (for `alltoallp`: ordered pairs).
    pub targets: usize,
    /// Intended recipients actually reached.
    pub reached: usize,
    /// Static schedule rounds — the completion oracle. `Some` only for
    /// full broadcasts, where the simulated completion must match it
    /// exactly on an uncontended network.
    pub schedule_rounds: Option<u32>,
    /// Cycle at which the last copy was delivered (the run's makespan).
    pub completion_cycles: u64,
}

impl CollectiveOutcome {
    /// `reached / targets`, or `None` for a collective with no targets.
    pub fn reached_fraction(&self) -> Option<f64> {
        (self.targets > 0).then(|| self.reached as f64 / self.targets as f64)
    }

    /// The outcome as a JSON object for the report's `collective` field.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::obj([
            ("spec", JsonValue::Str(self.spec.clone())),
            ("targets", JsonValue::Int(self.targets as u64)),
            ("reached", JsonValue::Int(self.reached as u64)),
            (
                "schedule_rounds",
                match self.schedule_rounds {
                    Some(r) => JsonValue::Int(r as u64),
                    None => JsonValue::Null,
                },
            ),
            ("completion_cycles", JsonValue::Int(self.completion_cycles)),
            (
                "reached_fraction",
                match self.reached_fraction() {
                    Some(f) => JsonValue::Num(f),
                    None => JsonValue::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::broadcast_one_port;
    use crate::topology::{FibonacciNet, Hypercube, Topology};

    #[test]
    fn spec_round_trips_through_text() {
        let specs = [
            CollectiveSpec::Broadcast {
                source: 0,
                port: Port::One,
            },
            CollectiveSpec::Broadcast {
                source: 7,
                port: Port::All,
            },
            CollectiveSpec::Multicast {
                source: 3,
                count: 8,
                port: Port::One,
            },
            CollectiveSpec::AllToAllPersonalized,
        ];
        for spec in specs {
            let text = spec.to_string();
            let parsed: CollectiveSpec = text.parse().unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(parsed, spec, "round-trip of `{text}`");
        }
        // The port key may be omitted and defaults to one-port.
        assert_eq!(
            "broadcast(source=2)".parse::<CollectiveSpec>().unwrap(),
            CollectiveSpec::Broadcast {
                source: 2,
                port: Port::One
            }
        );
        assert_eq!(
            " multicast( count=4 , source=1 ) "
                .parse::<CollectiveSpec>()
                .unwrap(),
            CollectiveSpec::Multicast {
                source: 1,
                count: 4,
                port: Port::One
            }
        );
    }

    #[test]
    fn spec_rejects_malformed_text() {
        for bad in [
            "nonsense",
            "broadcast",
            "broadcast()",
            "broadcast(source=zero)",
            "broadcast(source=0,port=two)",
            "broadcast(source=0,source=1)",
            "multicast(source=0)",
            "alltoallp(3)",
            "",
        ] {
            let err = bad.parse::<CollectiveSpec>().expect_err(bad);
            assert!(err.to_string().contains("collective"), "{bad}: {err}");
        }
    }

    #[test]
    fn validate_catches_degenerate_configs() {
        let b = |source| CollectiveSpec::Broadcast {
            source,
            port: Port::One,
        };
        assert!(b(0).validate(8).is_ok());
        assert!(b(8).validate(8).is_err());
        let m = |source, count| CollectiveSpec::Multicast {
            source,
            count,
            port: Port::All,
        };
        assert!(m(0, 7).validate(8).is_ok());
        assert!(m(0, 8).validate(8).is_err());
        assert!(m(0, 0).validate(8).is_err());
        assert!(m(9, 1).validate(8).is_err());
        assert!(CollectiveSpec::AllToAllPersonalized.validate(1).is_ok());
    }

    #[test]
    fn from_schedule_mirrors_the_static_tree() {
        let q = Hypercube::new(4);
        let schedule = broadcast_one_port(&q, 0).unwrap();
        let plan = CopyPlan::from_schedule(q.graph(), &schedule, true);
        assert!(plan.one_port());
        assert_eq!(plan.source(), 0);
        assert_eq!(plan.total_copies(), q.len() - 1, "one copy per tree edge");
        assert_eq!(plan.targets(), q.len() - 1);
        assert_eq!(plan.offered(), q.len() - 1);
        assert_eq!(plan.schedule_rounds(), schedule.rounds);
        // Children are round-ordered per node and reached over real links.
        for u in 0..q.len() as u32 {
            let range = plan.children_range(u);
            let mut last = 0;
            for idx in range {
                let v = plan.child(idx);
                assert!(q.graph().has_edge(u, v));
                assert_eq!(q.graph().target(plan.edge(idx)), v);
                let r = schedule.round[v as usize];
                assert!(r >= last, "children of {u} must be round-ordered");
                last = r;
            }
        }
    }

    #[test]
    fn multicast_plans_prune_relays_but_keep_ancestors() {
        let net = FibonacciNet::classical(8);
        let spec = CollectiveSpec::Multicast {
            source: 0,
            count: 5,
            port: Port::One,
        };
        let CollectiveWorkload::Tree(plan) = spec
            .compile(net.graph(), &FaultSet::empty(), 42)
            .expect("valid multicast")
        else {
            panic!("multicast compiles to a tree")
        };
        assert_eq!(plan.targets(), 5);
        // The pruned tree spans the targets: at least the targets appear,
        // every kept leaf is a target, and nothing drops on the healthy
        // network.
        assert!(plan.total_copies() >= 5);
        assert!(plan.total_copies() < net.len() - 1, "relays were pruned");
        assert_eq!(plan.offered(), plan.total_copies());
        assert!(plan.dropped_dead().is_empty());
        assert!(plan.dropped_unreachable().is_empty());
        // Deterministic in the seed, different across seeds.
        let CollectiveWorkload::Tree(again) =
            spec.compile(net.graph(), &FaultSet::empty(), 42).unwrap()
        else {
            unreachable!()
        };
        assert_eq!(plan.children, again.children);
        let CollectiveWorkload::Tree(other) =
            spec.compile(net.graph(), &FaultSet::empty(), 43).unwrap()
        else {
            unreachable!()
        };
        assert_ne!(plan.is_target, other.is_target, "seeded target draw");
    }

    #[test]
    fn faulted_plans_type_every_unreached_target() {
        // Isolate a node of Γ_8 (one not adjacent to the source) by
        // killing its neighbors: the broadcast plan must cover exactly
        // the surviving component of the source and type the rest.
        let net = FibonacciNet::classical(8);
        let isolated = (1..net.len() as u32)
            .find(|&v| !net.graph().neighbors(v).contains(&0))
            .expect("Γ_8 has nodes not adjacent to 0");
        let cut: Vec<u32> = net.graph().neighbors(isolated).to_vec();
        let faults = FaultSet::new(cut.clone(), []);
        let spec = CollectiveSpec::Broadcast {
            source: 0,
            port: Port::All,
        };
        let CollectiveWorkload::Tree(plan) = spec.compile(net.graph(), &faults, 0).unwrap() else {
            panic!("broadcast compiles to a tree")
        };
        assert_eq!(plan.dropped_dead().len(), cut.len());
        assert!(
            plan.dropped_unreachable().contains(&isolated),
            "isolated survivor must be typed unreachable"
        );
        assert_eq!(
            plan.total_copies() + plan.dropped_unreachable().len(),
            net.len() - 1 - cut.len(),
            "every surviving recipient is either covered or typed"
        );
        assert_eq!(plan.offered(), net.len() - 1);

        // A dead source drops everything as dead-endpoint.
        let dead_src = FaultSet::new([0u32], []);
        let CollectiveWorkload::Tree(plan) = spec.compile(net.graph(), &dead_src, 0).unwrap()
        else {
            unreachable!()
        };
        assert_eq!(plan.total_copies(), 0);
        assert_eq!(plan.dropped_dead().len(), net.len() - 1);
    }

    #[test]
    fn alltoallp_compiles_to_the_unicast_exchange() {
        let q = Hypercube::new(3);
        let CollectiveWorkload::Unicasts(pkts) = CollectiveSpec::AllToAllPersonalized
            .compile(q.graph(), &FaultSet::empty(), 9)
            .unwrap()
        else {
            panic!("alltoallp is unicasts")
        };
        assert_eq!(pkts.len(), 8 * 7);
    }

    #[test]
    fn outcome_serialises_with_null_oracle_when_absent() {
        let done = CollectiveOutcome {
            spec: "broadcast(source=0,port=one)".into(),
            targets: 10,
            reached: 8,
            schedule_rounds: Some(5),
            completion_cycles: 5,
        };
        assert_eq!(done.reached_fraction(), Some(0.8));
        let json = done.to_json_value().to_string();
        assert!(json.contains("\"schedule_rounds\": 5"), "{json}");
        assert!(json.contains("\"reached_fraction\": 0.8"), "{json}");
        let open = CollectiveOutcome {
            spec: "alltoallp".into(),
            targets: 0,
            reached: 0,
            schedule_rounds: None,
            completion_cycles: 0,
        };
        assert_eq!(open.reached_fraction(), None);
        let json = open.to_json_value().to_string();
        assert!(json.contains("\"schedule_rounds\": null"), "{json}");
        assert!(json.contains("\"reached_fraction\": null"), "{json}");
    }
}
