//! Shared distance stores, healthy and degraded.
//!
//! Three corners of the crate need the same BFS ground truth: the static
//! figure-of-merit table ([`metrics`](mod@crate::metrics)), the static
//! survivability analysis ([`fault_set_trial`](crate::fault::fault_set_trial)),
//! and the live fault-masking router
//! ([`FaultMaskingRouter`](crate::router::FaultMaskingRouter)). Each used
//! to run its own BFS sweeps (the router even lazily, behind a `RefCell`).
//! [`DistanceTable`] is the one dense form: a flat `n × n` matrix of
//! two-byte distances, built once per `(graph, fault set)` and threaded
//! through wherever distances are consulted.
//!
//! The masked router keeps its degraded distances as exceptions to the
//! healthy ones, since faults change few of them (tens to hundreds of
//! the 6.6 M pairs of Γ_16 under 1–64 faults). The crate-private
//! `ExceptionRows` store keeps per destination only the live sources
//! whose degraded distance differs from the healthy distance. That comes
//! from a base: on a graph with an isometric hypercube embedding
//! ([`Topology::cube_labels`](crate::topology::Topology::cube_labels))
//! it is the Hamming distance of the labels, and on any other graph the
//! intact graph's dense table. The store builds a row on first use by
//! one batched Ramalingam–Reps deletion repair of the healthy row
//! (Ramalingam & Reps, J. Algorithms 1996) and drops the built rows when
//! the faults change, so a recovery needs no repair at all.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Mutex, OnceLock, PoisonError};

use fibcube_graph::bfs::{bfs_into, BfsScratch, INFINITY};
use fibcube_graph::csr::CsrGraph;
use fibcube_graph::parallel::par_map;

use crate::experiment::ExperimentError;
use crate::fault::{ChurnTarget, FaultMasks, FaultSet};
use crate::router::{check_table_budget, max_table_nodes};

/// The stored distance of an unreachable (or dead) pair in a
/// [`DistanceTable`] row ([`DistanceTable::to_dst`]). The table's byte
/// budget admits at most 23 170 nodes, so a finite distance (at most
/// `n − 1`) never equals it.
pub const UNREACHED: u16 = u16::MAX;

/// Bytes per stored distance.
const ENTRY_BYTES: usize = std::mem::size_of::<u16>();

const _: () = assert!(max_table_nodes(ENTRY_BYTES) - 1 < UNREACHED as usize);

/// A BFS distance narrowed to the table's entry width.
#[inline]
fn narrow(d: u32) -> u16 {
    if d == INFINITY {
        UNREACHED
    } else {
        debug_assert!(
            d < UNREACHED as u32,
            "the byte budget bounds every distance"
        );
        d as u16
    }
}

/// Flat all-pairs hop-distance matrix over a graph (optionally degraded
/// by a fault set), two bytes per pair. Rows are indexed by destination;
/// [`UNREACHED`] marks unreachable (or dead) pairs in a row, and the
/// scalar queries answer those pairs with [`INFINITY`]. Undirected graphs
/// make the matrix symmetric, so "row toward `dst`" and "row from `src`"
/// coincide.
#[derive(Clone, Debug)]
pub struct DistanceTable {
    n: usize,
    /// `dist[dst * n + src]`, row-major by destination.
    dist: Vec<u16>,
}

impl DistanceTable {
    /// Refuses an `n`-node table whose `2n²` bytes would exceed
    /// [`TABLE_BYTE_BUDGET`](crate::router::TABLE_BYTE_BUDGET) (at
    /// n ≥ 23 171).
    pub(crate) fn check_budget(n: usize) -> Result<(), ExperimentError> {
        check_table_budget(n, ENTRY_BYTES)
    }

    /// All-pairs distances of the intact graph — one BFS per source,
    /// parallel across sources on the workspace thread pool.
    ///
    /// Refuses with [`ExperimentError::TableTooLarge`] when the `2n²`-byte
    /// matrix would exceed
    /// [`TABLE_BYTE_BUDGET`](crate::router::TABLE_BYTE_BUDGET); use
    /// [`DistanceSample`] for estimates on larger networks.
    pub fn healthy(g: &CsrGraph) -> Result<DistanceTable, ExperimentError> {
        let n = g.num_vertices();
        DistanceTable::check_budget(n)?;
        let rows = par_map(n, |s| {
            let mut row = vec![INFINITY; n];
            let mut scratch = BfsScratch::new(n);
            bfs_into(g, s as u32, &mut row, &mut scratch);
            row.into_iter().map(narrow).collect::<Vec<u16>>()
        });
        let mut dist = Vec::with_capacity(n * n);
        for row in rows {
            dist.extend_from_slice(&row);
        }
        Ok(DistanceTable { n, dist })
    }

    /// All-pairs distances of the graph degraded by `masks`: BFS over
    /// surviving links only, so dead nodes (and nodes the faults cut off)
    /// read [`UNREACHED`] in every row ([`INFINITY`] through
    /// [`distance`](DistanceTable::distance)), including toward
    /// themselves when dead.
    ///
    /// Runs serially: its callers (the fault-masking router inside sweep
    /// workers) are already fanned out across the thread pool, so nesting
    /// another fan-out here would oversubscribe it.
    ///
    /// # Panics
    ///
    /// On 65 535 nodes or more, where a distance could reach the
    /// two-byte sentinel. Such a table (over 8 GB) is far past the
    /// [`TABLE_BYTE_BUDGET`](crate::router::TABLE_BYTE_BUDGET) that the
    /// engine and [`Experiment`](crate::experiment::Experiment) check
    /// before they build a masked router.
    pub fn degraded(g: &CsrGraph, masks: &FaultMasks) -> DistanceTable {
        let n = g.num_vertices();
        assert!(
            n < UNREACHED as usize,
            "{n} nodes overflow two-byte distances"
        );
        let mut dist = vec![UNREACHED; n * n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for dst in 0..n as u32 {
            if !masks.node_alive(dst) {
                continue;
            }
            let row = &mut dist[dst as usize * n..][..n];
            row[dst as usize] = 0;
            queue.clear();
            queue.push(dst);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                let next = row[u as usize] + 1;
                let edges = g.edge_range(u).start;
                for (slot, &v) in g.neighbors(u).iter().enumerate() {
                    if masks.edge_alive(edges + slot) && row[v as usize] == UNREACHED {
                        row[v as usize] = next;
                        queue.push(v);
                    }
                }
            }
        }
        DistanceTable { n, dist }
    }

    /// Number of nodes the table covers.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Hop distance between `u` and `v` ([`INFINITY`] when disconnected).
    #[inline]
    pub fn distance(&self, u: u32, v: u32) -> u32 {
        match self.dist[v as usize * self.n + u as usize] {
            UNREACHED => INFINITY,
            d => d as u32,
        }
    }

    /// The full distance row toward `dst` — `row[src]` is the distance
    /// from `src`, [`UNREACHED`] when `src` cannot reach `dst` (or
    /// either is dead). This is the hot-path view the fault-masking
    /// router indexes per hop.
    #[inline]
    pub fn to_dst(&self, dst: u32) -> &[u16] {
        &self.dist[dst as usize * self.n..][..self.n]
    }

    /// `true` when `u` and `v` are connected in the table's graph.
    #[inline]
    pub fn reachable(&self, u: u32, v: u32) -> bool {
        self.distance(u, v) != INFINITY
    }

    /// Largest finite distance — the diameter reported per component
    /// (matching [`fibcube_graph::distance::diameter`]). `None` for the
    /// empty graph.
    pub fn diameter(&self) -> Option<u32> {
        if self.n == 0 {
            return None;
        }
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHED)
            .max()
            .map(u32::from)
    }

    /// Mean distance over connected ordered pairs (`u ≠ v`), the expected
    /// hop count of uniform random traffic (matching
    /// [`fibcube_graph::distance::average_distance`]).
    pub fn average_distance(&self) -> f64 {
        let mut sum = 0u64;
        let mut pairs = 0u64;
        for &d in &self.dist {
            if d != 0 && d != UNREACHED {
                sum += d as u64;
                pairs += 1;
            }
        }
        if pairs == 0 {
            0.0
        } else {
            sum as f64 / pairs as f64
        }
    }
}

/// Degraded distances stored as exceptions to a healthy base. See the
/// [module docs](self).
///
/// Row `dst` holds the `(src, distance)` entries, sorted by `src`, of
/// the live sources whose distance to `dst` differs from their healthy
/// distance; the distance is [`INFINITY`] when the faults cut `src` off.
/// Every other live source is at its healthy distance. Dead nodes have
/// no entries: the caller checks liveness.
///
/// Rows are built on first use ([`row`](ExceptionRows::row)) into a
/// `OnceLock` per destination, so a store shared by several lanes fills
/// without a lock on the read path, and stays `Send + Sync`.
/// [`clear`](ExceptionRows::clear) empties exactly the rows that were
/// built, and must follow every change of the faults.
pub(crate) struct ExceptionRows {
    base: Base,
    rows: Vec<OnceLock<Entries>>,
    /// The built rows and the repair scratch, locked only while a row
    /// is built.
    fill: Mutex<RowFill>,
}

/// Where an [`ExceptionRows`] store reads the healthy distance.
enum Base {
    /// The isometric cube labels of the nodes: the Hamming distance of
    /// two labels.
    Labels(Vec<u64>),
    /// The intact graph's dense table, for graphs without labels.
    Table(DistanceTable),
}

/// The healthy distances toward one destination, resolved from the
/// [`Base`] once per [`row`](ExceptionRows::row) call.
#[derive(Clone, Copy)]
enum BaseRow<'r> {
    Hamming { labels: &'r [u64], dst: u64 },
    Table(&'r [u16]),
}

impl BaseRow<'_> {
    /// The healthy distance from `src` ([`INFINITY`] when the intact
    /// graph already cannot reach the destination).
    #[inline]
    fn distance(self, src: u32) -> u32 {
        match self {
            BaseRow::Hamming { labels, dst } => (labels[src as usize] ^ dst).count_ones(),
            BaseRow::Table(row) => match row[src as usize] {
                UNREACHED => INFINITY,
                d => d as u32,
            },
        }
    }
}

/// One built row: its `(src, distance)` entries, sorted by `src`, and a
/// one-word filter with bit `src % 64` set for each entry, so that most
/// reads of a source without an entry skip the search.
struct Entries {
    filter: u64,
    list: Box<[(u32, u32)]>,
}

/// The build side of an [`ExceptionRows`] store.
#[derive(Default)]
struct RowFill {
    built: Vec<u32>,
    scratch: RowScratch,
}

/// Scratch of one row repair. Orphans are stamped with the row's
/// generation, so a row costs time in its changed region only and no
/// per-row clearing; `dist` is read only at stamped nodes.
#[derive(Default)]
struct RowScratch {
    mark: Vec<u32>,
    generation: u32,
    dist: Vec<u32>,
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    orphans: Vec<u32>,
    entries: Vec<(u32, u32)>,
}

/// One built row of an [`ExceptionRows`] store: the distance toward its
/// destination from any live source.
#[derive(Clone, Copy)]
pub(crate) struct ExceptionRow<'r> {
    base: BaseRow<'r>,
    entries: &'r Entries,
}

impl ExceptionRow<'_> {
    /// The degraded distance from live node `src` ([`INFINITY`] when
    /// cut off).
    #[inline]
    pub(crate) fn distance(&self, src: u32) -> u32 {
        let Entries { filter, list } = self.entries;
        if filter & 1 << (src % 64) != 0 {
            if let Ok(i) = list.binary_search_by_key(&src, |&(s, _)| s) {
                return list[i].1;
            }
        }
        self.base.distance(src)
    }
}

impl ExceptionRows {
    /// An empty store over `labels`, the isometric cube labels of the
    /// graph's nodes.
    pub(crate) fn over_labels(labels: Vec<u64>) -> ExceptionRows {
        ExceptionRows::with_base(labels.len(), Base::Labels(labels))
    }

    /// An empty store over the intact graph `g`'s distance table, built
    /// serially as [`DistanceTable::degraded`] is.
    pub(crate) fn over_table(g: &CsrGraph) -> ExceptionRows {
        let intact = FaultSet::empty().masks(g);
        let table = DistanceTable::degraded(g, &intact);
        ExceptionRows::with_base(table.nodes(), Base::Table(table))
    }

    fn with_base(n: usize, base: Base) -> ExceptionRows {
        ExceptionRows {
            base,
            rows: (0..n).map(|_| OnceLock::new()).collect(),
            fill: Mutex::default(),
        }
    }

    /// The cube labels, indexed by node, when the base is labels.
    #[inline]
    pub(crate) fn labels(&self) -> Option<&[u64]> {
        match &self.base {
            Base::Labels(labels) => Some(labels),
            Base::Table(_) => None,
        }
    }

    /// The row toward live node `dst` on `g` degraded by `masks`, built
    /// now if it is not yet. `faults` lists every live fault: each dead
    /// node, and each independently failed link.
    ///
    /// Inlined into every hop, with the build kept out of line: called,
    /// this read cost a label-less masked query about 4× its time.
    #[inline(always)]
    pub(crate) fn row(
        &self,
        g: &CsrGraph,
        masks: &FaultMasks,
        faults: &[ChurnTarget],
        dst: u32,
    ) -> ExceptionRow<'_> {
        debug_assert!(masks.node_alive(dst), "dead destinations have no row");
        let base = match &self.base {
            Base::Labels(labels) => BaseRow::Hamming {
                labels,
                dst: labels[dst as usize],
            },
            Base::Table(table) => BaseRow::Table(table.to_dst(dst)),
        };
        let entries =
            self.rows[dst as usize].get_or_init(|| self.build_row(g, masks, base, faults, dst));
        ExceptionRow { base, entries }
    }

    /// Builds the row toward `dst` and lists it as built.
    #[cold]
    #[inline(never)]
    fn build_row(
        &self,
        g: &CsrGraph,
        masks: &FaultMasks,
        base: BaseRow<'_>,
        faults: &[ChurnTarget],
        dst: u32,
    ) -> Entries {
        // A build that panicked leaves valid state behind: every build
        // restamps and clears the scratch it reads, and a listed row
        // that was never set clears as a no-op.
        let mut fill = self.fill.lock().unwrap_or_else(PoisonError::into_inner);
        fill.built.push(dst);
        fill.scratch.build(g, masks, base, faults)
    }

    /// Empties every built row, for a change of the faults.
    pub(crate) fn clear(&mut self) {
        let fill = self.fill.get_mut().unwrap_or_else(PoisonError::into_inner);
        for dst in fill.built.drain(..) {
            self.rows[dst as usize].take();
        }
    }

    /// The number of exception entries over the built rows.
    #[cfg(test)]
    fn entries(&self) -> usize {
        self.rows
            .iter()
            .filter_map(OnceLock::get)
            .map(|r| r.list.len())
            .sum()
    }
}

impl RowScratch {
    fn is_orphan(&self, x: u32) -> bool {
        self.mark[x as usize] == self.generation
    }

    fn confirm(&mut self, x: u32) {
        self.mark[x as usize] = self.generation;
        self.orphans.push(x);
    }

    /// The exception entries of the row whose healthy distances are
    /// `base`: one batched Ramalingam–Reps deletion repair of the healthy
    /// row against every live fault at once. Deleting nodes and links
    /// only lengthens distances, and a node keeps its healthy distance
    /// iff it keeps a surviving neighbor one hop closer that keeps its
    /// own. Phase 1 finds the orphans, the nodes that lose every such
    /// neighbor, in ascending healthy distance from the dead nodes and
    /// the deeper endpoints of failed links; phase 2 re-relaxes the live
    /// orphans from their intact boundary. The live orphans are the
    /// entries. Nodes the intact graph cannot reach stay at their healthy
    /// [`INFINITY`] and never become orphans.
    fn build(
        &mut self,
        g: &CsrGraph,
        masks: &FaultMasks,
        base: BaseRow<'_>,
        faults: &[ChurnTarget],
    ) -> Entries {
        let n = g.num_vertices();
        if self.mark.len() < n {
            self.mark.resize(n, 0);
            self.dist.resize(n, INFINITY);
        }
        if self.generation == u32::MAX {
            self.mark.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        self.orphans.clear();
        let healthy = |x: u32| base.distance(x);

        // Phase 1: orphan propagation, in ascending healthy distance so
        // a node's parents are judged before it is.
        for &fault in faults {
            match fault {
                ChurnTarget::Node(x) if healthy(x) != INFINITY && !self.is_orphan(x) => {
                    self.confirm(x)
                }
                ChurnTarget::Node(_) => {}
                ChurnTarget::Link(u, v) => {
                    // Only the deeper endpoint can lose its parent.
                    let (du, dv) = (healthy(u), healthy(v));
                    if du != INFINITY && dv == du + 1 {
                        self.heap.push(Reverse((dv, v)));
                    } else if dv != INFINITY && du == dv + 1 {
                        self.heap.push(Reverse((du, u)));
                    }
                }
            }
        }
        for i in 0..self.orphans.len() {
            self.enqueue_children(g, &healthy, self.orphans[i]);
        }
        while let Some(Reverse((d, x))) = self.heap.pop() {
            if self.is_orphan(x) {
                continue;
            }
            let edges = g.edge_range(x).start;
            let supported = g.neighbors(x).iter().enumerate().any(|(slot, &w)| {
                masks.edge_alive(edges + slot) && !self.is_orphan(w) && healthy(w) == d - 1
            });
            if !supported {
                self.confirm(x);
                self.enqueue_children(g, &healthy, x);
            }
        }

        // Phase 2: seed every live orphan from its intact boundary and
        // re-relax, decrease-only, within the orphan region.
        for &x in &self.orphans {
            self.dist[x as usize] = INFINITY;
        }
        for i in 0..self.orphans.len() {
            let x = self.orphans[i];
            if !masks.node_alive(x) {
                continue;
            }
            let edges = g.edge_range(x).start;
            let best = g
                .neighbors(x)
                .iter()
                .enumerate()
                .filter(|&(slot, &w)| masks.edge_alive(edges + slot) && !self.is_orphan(w))
                .map(|(_, &w)| healthy(w) + 1)
                .min();
            if let Some(best) = best {
                self.heap.push(Reverse((best, x)));
            }
        }
        while let Some(Reverse((d, x))) = self.heap.pop() {
            if self.dist[x as usize] <= d {
                continue;
            }
            self.dist[x as usize] = d;
            let edges = g.edge_range(x).start;
            for (slot, &y) in g.neighbors(x).iter().enumerate() {
                if masks.edge_alive(edges + slot)
                    && self.is_orphan(y)
                    && self.dist[y as usize] > d + 1
                {
                    self.heap.push(Reverse((d + 1, y)));
                }
            }
        }

        // Collected in scratch and copied out, so a row costs one
        // allocation of its exact size (none when empty).
        self.entries.clear();
        let live = self.orphans.iter().filter(|&&x| masks.node_alive(x));
        self.entries
            .extend(live.map(|&x| (x, self.dist[x as usize])));
        self.entries.sort_unstable();
        Entries {
            filter: self.entries.iter().fold(0, |f, &(x, _)| f | 1 << (x % 64)),
            list: Box::from(&self.entries[..]),
        }
    }

    /// Enqueues `x`'s potential tree children (healthy distance one
    /// deeper) as orphan candidates, ignoring edge masks: a candidate
    /// behind a dead link fails the support check anyway, while
    /// filtering here would miss the children of a dead node, whose
    /// links are all masked.
    fn enqueue_children(&mut self, g: &CsrGraph, healthy: &impl Fn(u32) -> u32, x: u32) {
        let d = healthy(x) + 1;
        for &y in g.neighbors(x) {
            if healthy(y) == d && !self.is_orphan(y) {
                self.heap.push(Reverse((d, y)));
            }
        }
    }
}

/// Sampled distance statistics for networks too large for an all-pairs
/// [`DistanceTable`]: exact BFS from a uniform random sample of `sources`
/// nodes, `O(s · (n + m))` time and `O(n)` transient space.
///
/// Each sampled source contributes its exact mean distance to every other
/// reachable node; the estimator averages those per-source means, which is
/// unbiased for the population average distance on a vertex-transitive-ish
/// graph and comes with a normal-approximation confidence half-width
/// ([`DistanceSample::average_ci95`]). The largest distance seen is the
/// exact eccentricity of some sampled source, hence a certified *lower
/// bound* on the diameter — dense-table consumers that need the exact
/// diameter must stay below the byte budget and use
/// [`DistanceTable::healthy`].
#[derive(Clone, Debug)]
pub struct DistanceSample {
    /// Number of distinct BFS sources actually sampled (`min(requested, n)`).
    pub sources: usize,
    /// Estimated mean distance over connected ordered pairs (`u ≠ v`).
    pub average_distance: f64,
    /// Half-width of the 95% confidence interval on
    /// [`average_distance`](DistanceSample::average_distance), from the
    /// spread of per-source means (0 when every source was sampled — on a
    /// connected graph the estimate is then exact).
    pub average_ci95: f64,
    /// Max distance observed = exact eccentricity of a sampled source —
    /// a lower bound on (and frequently equal to) the diameter.
    pub diameter_lower_bound: u32,
}

impl DistanceSample {
    /// Estimates distance statistics of `g` from `sources` seeded random
    /// BFS sources (clamped to `n`; sampling every node makes the
    /// average exact and the CI zero).
    pub fn estimate(g: &CsrGraph, sources: usize, seed: u64) -> DistanceSample {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let n = g.num_vertices();
        if n == 0 {
            return DistanceSample {
                sources: 0,
                average_distance: 0.0,
                average_ci95: 0.0,
                diameter_lower_bound: 0,
            };
        }
        let s = sources.clamp(1, n);
        // Distinct sources via partial Fisher–Yates over the id range.
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..s {
            let j = rng.gen_range(i..n);
            ids.swap(i, j);
        }
        ids.truncate(s);

        let rows = par_map(s, |i| {
            let mut row = vec![INFINITY; n];
            let mut scratch = BfsScratch::new(n);
            bfs_into(g, ids[i], &mut row, &mut scratch);
            let mut sum = 0u64;
            let mut pairs = 0u64;
            let mut ecc = 0u32;
            for &d in &row {
                if d != 0 && d != INFINITY {
                    sum += d as u64;
                    pairs += 1;
                    ecc = ecc.max(d);
                }
            }
            let mean = if pairs == 0 {
                0.0
            } else {
                sum as f64 / pairs as f64
            };
            (mean, ecc)
        });

        let means: Vec<f64> = rows.iter().map(|&(m, _)| m).collect();
        let diameter_lower_bound = rows.iter().map(|&(_, e)| e).max().unwrap_or(0);
        let avg = means.iter().sum::<f64>() / s as f64;
        let average_ci95 = if s >= n || s < 2 {
            0.0
        } else {
            let var = means.iter().map(|m| (m - avg) * (m - avg)).sum::<f64>() / (s - 1) as f64;
            1.96 * (var / s as f64).sqrt()
        };
        DistanceSample {
            sources: s,
            average_distance: avg,
            average_ci95,
            diameter_lower_bound,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{ChurnTarget, FaultSet};
    use crate::topology::{FibonacciNet, Hypercube, Ring, Topology};
    use fibcube_graph::bfs::bfs_distances;

    #[test]
    fn healthy_table_matches_per_source_bfs() {
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(9),
        ] {
            let g = topo.graph();
            let table = DistanceTable::healthy(g).unwrap();
            assert_eq!(table.nodes(), topo.len());
            for dst in 0..topo.len() as u32 {
                let bfs = bfs_distances(g, dst);
                let row: Vec<u32> = (0..topo.len() as u32)
                    .map(|src| table.distance(src, dst))
                    .collect();
                assert_eq!(row, bfs, "{} dst {dst}", topo.name());
                for src in 0..topo.len() as u32 {
                    assert_eq!(table.distance(src, dst), bfs[src as usize]);
                }
            }
        }
    }

    #[test]
    fn hamming_table_matches_bfs_on_labelled_topologies() {
        // Without faults every row of an exception store is empty and
        // every distance is the Hamming distance of the labels.
        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &FibonacciNet::new(6, 3),
            &Hypercube::new(4),
        ] {
            let g = topo.graph();
            let rows = ExceptionRows::over_labels(topo.cube_labels().expect("cubes carry labels"));
            let masks = FaultSet::empty().masks(g);
            let healthy = DistanceTable::healthy(g).unwrap();
            for dst in 0..topo.len() as u32 {
                let row = rows.row(g, &masks, &[], dst);
                for src in 0..topo.len() as u32 {
                    assert_eq!(
                        row.distance(src),
                        healthy.distance(src, dst),
                        "{}",
                        topo.name()
                    );
                }
            }
            assert_eq!(rows.entries(), 0, "{}", topo.name());
        }
        assert!(Ring::new(6).cube_labels().is_none());
    }

    #[test]
    fn exception_rows_match_the_degraded_table() {
        // Every live pair of every row, for fault sets of dead nodes and
        // failed links (some overlapping: a failed link at a dead node),
        // small and past the certificate's bound; the store is cleared
        // and refilled under each new set, as churn does.
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &FibonacciNet::new(7, 3),
            &Hypercube::new(5),
        ] {
            let g = topo.graph();
            let n = g.num_vertices() as u32;
            let edges: Vec<(u32, u32)> = g.edges().collect();
            let mut rows = ExceptionRows::over_labels(topo.cube_labels().unwrap());
            for (k, step) in [(1u32, 3u32), (3, 7), (12, 5), (20, 11)] {
                let nodes = (0..k).map(|i| (i * step * 7 + 5) % n);
                let links = (0..k).map(|i| edges[(i * step * 13 + 1) as usize % edges.len()]);
                let set = FaultSet::new(nodes, links);
                let (masks, faults) = live_faults(g, &set);
                let dense = DistanceTable::degraded(g, &masks);
                rows.clear();
                let labels = topo.cube_labels().unwrap();
                let mut differ = 0;
                for dst in (0..n).filter(|&v| masks.node_alive(v)) {
                    let row = rows.row(g, &masks, &faults, dst);
                    for src in (0..n).filter(|&v| masks.node_alive(v)) {
                        let d = dense.distance(src, dst);
                        let what = format!("{} {k} faults: {src} → {dst}", topo.name());
                        assert_eq!(row.distance(src), d, "{what}");
                        let hamming = (labels[src as usize] ^ labels[dst as usize]).count_ones();
                        differ += usize::from(d != hamming);
                    }
                }
                assert_eq!(
                    rows.entries(),
                    differ,
                    "{} keeps only exceptions",
                    topo.name()
                );
                assert!(
                    differ > 0,
                    "{} {k} faults change some distance",
                    topo.name()
                );
            }
        }
    }

    /// The masks of `set` on `g` and its live faults, as a masked router
    /// lists them: every dead node, then every failed link.
    fn live_faults(g: &CsrGraph, set: &FaultSet) -> (FaultMasks, Vec<ChurnTarget>) {
        let masks = set.masks(g);
        let mut faults: Vec<ChurnTarget> = (0..g.num_vertices() as u32)
            .filter(|&v| !masks.node_alive(v))
            .map(ChurnTarget::Node)
            .collect();
        faults.extend(
            set.failed_links()
                .iter()
                .map(|&(u, v)| ChurnTarget::Link(u, v)),
        );
        (masks, faults)
    }

    #[test]
    fn table_based_rows_keep_unreachable_pairs_out() {
        // A graph of three components: a 6-cycle, a 5-node path and an
        // isolated node. Pairs across components are unreachable in the
        // intact graph already, so they never become entries; every live
        // pair still reads its degraded distance.
        let mut edges: Vec<(u32, u32)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        edges.extend((6..10).map(|i| (i, i + 1)));
        let g = CsrGraph::from_edges(12, &edges);
        let healthy = DistanceTable::healthy(&g).unwrap();
        let mut rows = ExceptionRows::over_table(&g);
        for set in [
            FaultSet::new([2u32], [(7u32, 8u32)]),
            FaultSet::new([11u32, 8], [(0u32, 1u32)]),
            FaultSet::new([0u32, 3, 6, 10], []),
            FaultSet::new([], [(4u32, 5u32), (9, 10), (1, 2)]),
        ] {
            let (masks, faults) = live_faults(&g, &set);
            let dense = DistanceTable::degraded(&g, &masks);
            rows.clear();
            let mut differ = 0;
            for dst in (0..12).filter(|&v| masks.node_alive(v)) {
                let row = rows.row(&g, &masks, &faults, dst);
                for src in (0..12).filter(|&v| masks.node_alive(v)) {
                    let d = dense.distance(src, dst);
                    assert_eq!(row.distance(src), d, "{set:?}: {src} → {dst}");
                    differ += usize::from(d != healthy.distance(src, dst));
                }
            }
            assert_eq!(rows.entries(), differ, "{set:?} keeps only exceptions");
            assert!(differ > 0, "{set:?} changes some distance");
        }
    }

    #[test]
    fn healthy_table_reproduces_graph_invariants() {
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &Hypercube::new(5),
            &Ring::new(12),
        ] {
            let g = topo.graph();
            let table = DistanceTable::healthy(g).unwrap();
            assert_eq!(table.diameter(), fibcube_graph::distance::diameter(g));
            let avg = fibcube_graph::distance::average_distance(g);
            assert!((table.average_distance() - avg).abs() < 1e-12);
        }
    }

    #[test]
    fn degraded_table_matches_bfs_on_the_healthy_subgraph() {
        let net = FibonacciNet::classical(7);
        let g = net.graph();
        let set = FaultSet::new([2u32, 9, 17], [(0u32, 1u32)]);
        let table = DistanceTable::degraded(g, &set.masks(g));
        let (healthy, survivors) = set.healthy_subgraph(g);
        let mut new_id = vec![u32::MAX; g.num_vertices()];
        for (i, &v) in survivors.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        for &dst in &survivors {
            let bfs = bfs_distances(&healthy, new_id[dst as usize]);
            for v in 0..g.num_vertices() as u32 {
                let expected = if set.node_alive(v) {
                    bfs[new_id[v as usize] as usize]
                } else {
                    INFINITY
                };
                assert_eq!(table.distance(v, dst), expected, "{v} → {dst}");
            }
        }
        // Dead destinations are unreachable from everywhere, themselves
        // included.
        for v in 0..g.num_vertices() as u32 {
            assert_eq!(table.distance(v, 2), INFINITY);
            assert!(!table.reachable(v, 9));
        }
    }

    #[test]
    fn empty_masks_make_degraded_equal_healthy() {
        let q = Hypercube::new(4);
        let g = q.graph();
        let healthy = DistanceTable::healthy(g).unwrap();
        let degraded = DistanceTable::degraded(g, &FaultSet::empty().masks(g));
        for u in 0..16u32 {
            assert_eq!(healthy.to_dst(u), degraded.to_dst(u));
        }
    }

    #[test]
    fn incremental_patches_match_from_scratch_rebuilds() {
        use crate::fault::ChurnEvent;
        use crate::router::{FaultMaskingRouter, NextHopRouter};

        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(10),
        ] {
            let g = topo.graph();
            let inner = NextHopRouter::new(topo);
            // A scripted sequence of all four event kinds through the
            // label-less masked router, including recovery of a
            // previously failed target.
            let e = |target, failed| ChurnEvent {
                cycle: 0,
                target,
                failed,
            };
            let (u0, v0) = g.edges().next().unwrap();
            let events = [
                e(ChurnTarget::Link(u0, v0), true),
                e(ChurnTarget::Node(1), true),
                e(ChurnTarget::Link(u0, v0), false),
                e(ChurnTarget::Node(2), true),
                e(ChurnTarget::Node(1), false),
                e(ChurnTarget::Node(2), false),
            ];
            let mut router = FaultMaskingRouter::new(g, &inner, &FaultSet::empty());
            let mut down_nodes: Vec<u32> = Vec::new();
            let mut down_links: Vec<(u32, u32)> = Vec::new();
            for (i, ev) in events.iter().enumerate() {
                match (ev.target, ev.failed) {
                    (ChurnTarget::Node(x), true) => down_nodes.push(x),
                    (ChurnTarget::Node(x), false) => down_nodes.retain(|&y| y != x),
                    (ChurnTarget::Link(u, v), true) => down_links.push((u, v)),
                    (ChurnTarget::Link(u, v), false) => down_links.retain(|&l| l != (u, v)),
                }
                let set = FaultSet::new(down_nodes.iter().copied(), down_links.iter().copied());
                router.apply_event(ev);
                let what = format!("{} event {i} ({ev:?})", topo.name());
                let scratch = DistanceTable::degraded(g, &set.masks(g));
                assert_matches_table(|u, v| router.distance(u, v), &scratch, &what);
                assert_matches_bfs(|u, v| router.distance(u, v), g, &set, &what);
            }
            // The full sequence is a no-op net of faults: back to healthy.
            let healthy = DistanceTable::healthy(g).unwrap();
            assert_matches_table(|u, v| router.distance(u, v), &healthy, &topo.name());
        }
    }

    /// Asserts that `distance(src, dst)` equals `table`'s answer for
    /// every pair.
    fn assert_matches_table(distance: impl Fn(u32, u32) -> u32, table: &DistanceTable, what: &str) {
        for dst in 0..table.nodes() as u32 {
            for src in 0..table.nodes() as u32 {
                let d = table.distance(src, dst);
                assert_eq!(distance(src, dst), d, "{what}: {src} → {dst}");
            }
        }
    }

    /// Asserts that every `distance(src, dst)` answer equals a BFS on the
    /// subgraph `set` leaves of `g` (`INFINITY` at dead nodes).
    fn assert_matches_bfs(
        distance: impl Fn(u32, u32) -> u32,
        g: &CsrGraph,
        set: &FaultSet,
        what: &str,
    ) {
        let (healthy, survivors) = set.healthy_subgraph(g);
        let mut new_id = vec![u32::MAX; g.num_vertices()];
        for (i, &v) in survivors.iter().enumerate() {
            new_id[v as usize] = i as u32;
        }
        for dst in 0..g.num_vertices() as u32 {
            let bfs = (new_id[dst as usize] != u32::MAX)
                .then(|| bfs_distances(&healthy, new_id[dst as usize]));
            for src in 0..g.num_vertices() as u32 {
                let expected = match (&bfs, new_id[src as usize]) {
                    (Some(row), i) if i != u32::MAX => row[i as usize],
                    _ => INFINITY,
                };
                assert_eq!(distance(src, dst), expected, "{what}: {src} → {dst}");
            }
        }
    }

    #[test]
    fn two_byte_rows_hold_distances_past_one_byte() {
        use crate::fault::ChurnEvent;
        use crate::router::{FaultMaskingRouter, NextHopRouter};

        // A 3 000-node ring cut at one link is a 3 000-node path, with
        // distances up to 2 999: more than one byte holds.
        let ring = Ring::new(3_000);
        let g = ring.graph();
        let cut = FaultSet::new([], [(0u32, 1u32)]);
        let degraded = DistanceTable::degraded(g, &cut.masks(g));
        assert_eq!(degraded.distance(0, 1), 2_999);
        assert_eq!(degraded.diameter(), Some(2_999));
        assert_matches_bfs(|u, v| degraded.distance(u, v), g, &cut, "degraded");

        // The same faults reached by fail/recover events on the
        // label-less masked router, checked against the degraded table
        // and BFS after every event.
        let e = |target, failed| ChurnEvent {
            cycle: 0,
            target,
            failed,
        };
        let steps = [
            (
                e(ChurnTarget::Link(0, 1), true),
                FaultSet::new([], [(0u32, 1u32)]),
            ),
            (
                e(ChurnTarget::Node(1_500), true),
                FaultSet::new([1_500u32], [(0u32, 1u32)]),
            ),
            (
                e(ChurnTarget::Link(0, 1), false),
                FaultSet::new([1_500u32], []),
            ),
            (e(ChurnTarget::Node(1_500), false), FaultSet::empty()),
        ];
        let inner = NextHopRouter::new(&ring);
        let mut router = FaultMaskingRouter::new(g, &inner, &FaultSet::empty());
        for (i, (event, set)) in steps.iter().enumerate() {
            router.apply_event(event);
            let what = format!("event {i} ({event:?})");
            let table = DistanceTable::degraded(g, &set.masks(g));
            assert_matches_table(|u, v| router.distance(u, v), &table, &what);
            assert_matches_bfs(|u, v| router.distance(u, v), g, set, &what);
        }
    }

    #[test]
    fn the_largest_admitted_table_keeps_the_sentinel_free() {
        let n = max_table_nodes(ENTRY_BYTES);
        assert_eq!(n, 23_170);
        assert!(DistanceTable::check_budget(n).is_ok());
        assert!(DistanceTable::check_budget(n + 1).is_err());
        assert!(((n - 1) as u32) < UNREACHED as u32);
    }

    #[test]
    fn full_sample_is_exact_on_connected_graphs() {
        for topo in [
            &FibonacciNet::classical(8) as &dyn Topology,
            &Hypercube::new(5),
            &Ring::new(12),
        ] {
            let g = topo.graph();
            let exact = DistanceTable::healthy(g).unwrap();
            let sample = DistanceSample::estimate(g, g.num_vertices(), 7);
            assert_eq!(sample.sources, topo.len(), "{}", topo.name());
            assert!(
                (sample.average_distance - exact.average_distance()).abs() < 1e-9,
                "{}: {} vs {}",
                topo.name(),
                sample.average_distance,
                exact.average_distance()
            );
            assert_eq!(sample.average_ci95, 0.0);
            assert_eq!(sample.diameter_lower_bound, exact.diameter().unwrap());
        }
    }

    #[test]
    fn partial_sample_estimates_with_honest_bounds() {
        let net = FibonacciNet::classical(10); // 144 nodes
        let g = net.graph();
        let exact = DistanceTable::healthy(g).unwrap();
        let sample = DistanceSample::estimate(g, 24, 2026);
        assert_eq!(sample.sources, 24);
        assert!(sample.average_ci95 > 0.0, "partial samples carry a CI");
        assert!(
            sample.diameter_lower_bound <= exact.diameter().unwrap(),
            "lower bound must never exceed the diameter"
        );
        assert!(
            (sample.average_distance - exact.average_distance()).abs() < 0.5,
            "estimate {} too far from exact {}",
            sample.average_distance,
            exact.average_distance()
        );
        // Oversized requests clamp to n instead of repeating sources.
        let clamped = DistanceSample::estimate(g, 10_000, 1);
        assert_eq!(clamped.sources, 144);
    }

    #[test]
    fn sample_of_empty_graph() {
        let s = DistanceSample::estimate(&CsrGraph::empty(0), 8, 0);
        assert_eq!(s.sources, 0);
        assert_eq!(s.average_distance, 0.0);
        assert_eq!(s.diameter_lower_bound, 0);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let empty = DistanceTable::healthy(&CsrGraph::empty(0)).unwrap();
        assert_eq!(empty.diameter(), None);
        assert_eq!(empty.average_distance(), 0.0);
        let single = DistanceTable::healthy(&CsrGraph::empty(1)).unwrap();
        assert_eq!(single.diameter(), Some(0));
        assert_eq!(single.average_distance(), 0.0);
    }
}
