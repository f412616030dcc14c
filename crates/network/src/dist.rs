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
//! On a graph with an isometric hypercube embedding
//! ([`Topology::cube_labels`](crate::topology::Topology::cube_labels)) the
//! masked router keeps no dense table. Its healthy distance is the
//! Hamming distance of the labels, and faults change few of them (tens
//! to hundreds of the 6.6 M pairs of Γ_16 under 1–64 faults), so the
//! crate-private `ExceptionRows` store keeps per destination only the
//! live sources whose degraded distance differs from the Hamming
//! distance. It builds a row on first use by one batched
//! Ramalingam–Reps deletion repair of the Hamming row (Ramalingam &
//! Reps, J. Algorithms 1996) and drops the built rows when the faults
//! change.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Mutex, OnceLock, PoisonError};

use fibcube_graph::bfs::{bfs_into, BfsScratch, INFINITY};
use fibcube_graph::csr::CsrGraph;
use fibcube_graph::parallel::par_map;

use crate::experiment::ExperimentError;
use crate::fault::{ChurnEvent, ChurnTarget, FaultMasks};
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
///
/// # Incremental repair
///
/// Under churn the table is *patched*, not rebuilt: the
/// [`fail_link`](DistanceTable::fail_link) /
/// [`recover_link`](DistanceTable::recover_link) /
/// [`fail_node`](DistanceTable::fail_node) /
/// [`recover_node`](DistanceTable::recover_node) methods apply one
/// fault event in time proportional to the *affected frontier* (the
/// Ramalingam–Reps orphan region plus its boundary) instead of the
/// `O(n·m)` of a from-scratch [`degraded`](DistanceTable::degraded)
/// rebuild.
///
/// **Invariant:** when a patch method returns, every row equals the
/// corresponding row of `DistanceTable::degraded(g, masks)` built from
/// scratch under the *post-event* masks. The proptest suite replays
/// random event sequences and asserts exactly this after every event.
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
            let row = &mut dist[dst as usize * n..][..n];
            if !masks.node_alive(dst) {
                continue;
            }
            masked_bfs_row(g, masks, row, dst, &mut queue);
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

    /// Applies one churn event incrementally. `masks` must already
    /// reflect the *post-event* liveness (the caller flips its masks
    /// first, then patches the table). See the type-level
    /// [incremental-repair invariant](DistanceTable#incremental-repair).
    pub fn apply_event(&mut self, g: &CsrGraph, masks: &FaultMasks, event: &ChurnEvent) {
        match (event.target, event.failed) {
            (ChurnTarget::Node(x), true) => self.fail_node(g, masks, x),
            (ChurnTarget::Node(x), false) => self.recover_node(g, masks, x),
            (ChurnTarget::Link(u, v), true) => self.fail_link(g, masks, u, v),
            (ChurnTarget::Link(u, v), false) => self.recover_link(g, masks, u, v),
        }
    }

    /// Patches the table for the failure of link `u–v` (`masks` already
    /// post-event). Per row this is `O(1)` unless the link was on a
    /// shortest path to that destination; affected rows repair by
    /// orphan propagation plus a boundary re-relax limited to the
    /// region that lost its distances.
    pub fn fail_link(&mut self, g: &CsrGraph, masks: &FaultMasks, u: u32, v: u32) {
        self.patch_rows(|row, scratch| row_fail_link(g, masks, row, u, v, scratch));
    }

    /// Patches the table for the recovery of link `u–v` (`masks` already
    /// post-event): a decrease-only relaxation seeded at whichever
    /// endpoint the new link improves — `O(1)` per row when it improves
    /// neither.
    pub fn recover_link(&mut self, g: &CsrGraph, masks: &FaultMasks, u: u32, v: u32) {
        // A recovered link whose endpoint is still down stays dead in
        // the composite mask; the event then changes no distances.
        let alive = g
            .slot_of(u, v)
            .is_some_and(|slot| masks.edge_alive(g.edge_range(u).start + slot));
        if !alive {
            return;
        }
        self.patch_rows(|row, scratch| {
            scratch.heap.clear();
            seed_link(row, u, v, &mut scratch.heap);
            relax_decrease(g, masks, row, &mut scratch.heap)
        });
    }

    /// Patches the table for the failure of node `x` (`masks` already
    /// post-event): `x`'s own row goes all-[`UNREACHED`]; every other row
    /// orphan-propagates from `x` exactly as if all its incident links
    /// died at once.
    pub fn fail_node(&mut self, g: &CsrGraph, masks: &FaultMasks, x: u32) {
        self.patch_rows_indexed(|dst, row, scratch| {
            if dst == x {
                row.fill(UNREACHED);
            } else {
                row_fail_node(g, masks, row, x, scratch);
            }
        });
    }

    /// Patches the table for the recovery of node `x` (`masks` already
    /// post-event): `x`'s own row is rebuilt with one masked BFS; every
    /// other live row runs a decrease-only relaxation seeded through
    /// `x`'s surviving links.
    pub fn recover_node(&mut self, g: &CsrGraph, masks: &FaultMasks, x: u32) {
        self.patch_rows_indexed(|dst, row, scratch| {
            if dst == x {
                row.fill(UNREACHED);
                if masks.node_alive(x) {
                    scratch.queue.clear();
                    masked_bfs_row(g, masks, row, x, &mut scratch.queue);
                }
            } else if masks.node_alive(dst) {
                scratch.heap.clear();
                seed_node(g, masks, row, x, &mut scratch.heap);
                relax_decrease(g, masks, row, &mut scratch.heap);
            }
        });
    }

    fn patch_rows(&mut self, mut repair: impl FnMut(&mut [u16], &mut PatchScratch)) {
        self.patch_rows_indexed(|_, row, scratch| repair(row, scratch));
    }

    fn patch_rows_indexed(&mut self, mut repair: impl FnMut(u32, &mut [u16], &mut PatchScratch)) {
        let n = self.n;
        let mut scratch = PatchScratch::new(n);
        for dst in 0..n {
            repair(dst as u32, &mut self.dist[dst * n..][..n], &mut scratch);
        }
    }
}

/// Masked BFS from `root` into `row` (which must be all-[`UNREACHED`]),
/// reusing `queue` as scratch. The single-row unit both
/// [`DistanceTable::degraded`] and the node-recovery patch build on.
fn masked_bfs_row(
    g: &CsrGraph,
    masks: &FaultMasks,
    row: &mut [u16],
    root: u32,
    queue: &mut Vec<u32>,
) {
    row[root as usize] = 0;
    queue.clear();
    queue.push(root);
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let next = row[u as usize] + 1;
        let base = g.edge_range(u).start;
        for (slot, &v) in g.neighbors(u).iter().enumerate() {
            if masks.edge_alive(base + slot) && row[v as usize] == UNREACHED {
                row[v as usize] = next;
                queue.push(v);
            }
        }
    }
}

/// Reusable per-patch scratch: generation-stamped orphan marks (no
/// per-row clearing), the shared priority queue, and the orphan list.
struct PatchScratch {
    mark: Vec<u64>,
    generation: u64,
    heap: BinaryHeap<Reverse<(u16, u32)>>,
    orphans: Vec<u32>,
    queue: Vec<u32>,
}

impl PatchScratch {
    fn new(n: usize) -> PatchScratch {
        PatchScratch {
            mark: vec![0; n],
            generation: 0,
            heap: BinaryHeap::new(),
            orphans: Vec::new(),
            queue: Vec::new(),
        }
    }

    fn begin_row(&mut self) {
        self.generation += 1;
        self.heap.clear();
        self.orphans.clear();
    }

    fn is_orphan(&self, x: u32) -> bool {
        self.mark[x as usize] == self.generation
    }

    fn confirm(&mut self, x: u32) {
        self.mark[x as usize] = self.generation;
        self.orphans.push(x);
    }
}

/// Link `u–v` failed: repairs one destination row.
fn row_fail_link(
    g: &CsrGraph,
    masks: &FaultMasks,
    row: &mut [u16],
    u: u32,
    v: u32,
    scratch: &mut PatchScratch,
) {
    let (du, dv) = (row[u as usize], row[v as usize]);
    if du == UNREACHED || dv == UNREACHED {
        // An unreachable endpoint means the link was on no shortest
        // path toward this destination.
        return;
    }
    // Only the deeper endpoint can have used the link as its parent
    // edge; equal depths mean the link was on no shortest path.
    let b = if dv == du + 1 {
        v
    } else if du == dv + 1 {
        u
    } else {
        return;
    };
    if has_tight_parent(g, masks, row, b, None) {
        return;
    }
    scratch.begin_row();
    scratch.confirm(b);
    repair_after_loss(g, masks, row, scratch);
}

/// Node `x` failed: repairs one destination row (`dst ≠ x`).
fn row_fail_node(
    g: &CsrGraph,
    masks: &FaultMasks,
    row: &mut [u16],
    x: u32,
    scratch: &mut PatchScratch,
) {
    if row[x as usize] == UNREACHED {
        // x was already unreachable toward this destination, so no
        // shortest path ran through it.
        return;
    }
    scratch.begin_row();
    scratch.confirm(x);
    repair_after_loss(g, masks, row, scratch);
}

/// `true` when `x` still has an alive neighbor one hop closer to the
/// destination that is not itself in the current orphan set (pass
/// `scratch` during propagation, `None` for the initial check).
fn has_tight_parent(
    g: &CsrGraph,
    masks: &FaultMasks,
    row: &[u16],
    x: u32,
    scratch: Option<&PatchScratch>,
) -> bool {
    let d = row[x as usize];
    let base = g.edge_range(x).start;
    g.neighbors(x).iter().enumerate().any(|(slot, &w)| {
        masks.edge_alive(base + slot)
            && scratch.is_none_or(|s| !s.is_orphan(w))
            && row[w as usize] != UNREACHED
            && row[w as usize] + 1 == d
    })
}

/// Ramalingam–Reps deletion repair: starting from the confirmed orphans
/// already in `scratch`, finds every node whose old distance is no
/// longer supported (ascending old-distance order makes parent status
/// final before children are judged), invalidates the orphan region,
/// and re-relaxes it from its intact boundary.
fn repair_after_loss(g: &CsrGraph, masks: &FaultMasks, row: &mut [u16], s: &mut PatchScratch) {
    // Phase 1: orphan propagation. Children of an orphan are judged by
    // whether any non-orphan tight parent survives; over-enqueueing is
    // harmless (candidates with a surviving parent are rejected), which
    // lets node failures enqueue through their already-masked edges.
    for i in 0..s.orphans.len() {
        let x = s.orphans[i];
        enqueue_children(g, row, x, s);
    }
    while let Some(Reverse((_, x))) = s.heap.pop() {
        if s.is_orphan(x) {
            continue;
        }
        if !has_tight_parent(g, masks, row, x, Some(s)) {
            s.confirm(x);
            enqueue_children(g, row, x, s);
        }
    }
    // Phase 2: the orphan region loses its old distances.
    for i in 0..s.orphans.len() {
        row[s.orphans[i] as usize] = UNREACHED;
    }
    // Phase 3: seed every orphan from its intact (non-orphan) boundary
    // and re-relax, decrease-only, within the orphan region.
    for i in 0..s.orphans.len() {
        let x = s.orphans[i];
        if !masks.node_alive(x) {
            continue;
        }
        let base = g.edge_range(x).start;
        let mut best = UNREACHED;
        for (slot, &w) in g.neighbors(x).iter().enumerate() {
            if masks.edge_alive(base + slot) && !s.is_orphan(w) && row[w as usize] != UNREACHED {
                best = best.min(row[w as usize] + 1);
            }
        }
        if best != UNREACHED {
            s.heap.push(Reverse((best, x)));
        }
    }
    while let Some(Reverse((d, x))) = s.heap.pop() {
        if row[x as usize] <= d {
            continue;
        }
        row[x as usize] = d;
        let base = g.edge_range(x).start;
        for (slot, &y) in g.neighbors(x).iter().enumerate() {
            if masks.edge_alive(base + slot) && s.is_orphan(y) && row[y as usize] > d + 1 {
                s.heap.push(Reverse((d + 1, y)));
            }
        }
    }
}

/// Enqueues `x`'s potential tree children (old distance exactly one
/// deeper) as orphan candidates. Deliberately ignores edge masks: a
/// candidate reached through a dead edge never had `x` as parent and is
/// rejected by the tight-parent check, while mask-filtering here would
/// miss the children of a freshly dead node (its incident edges are
/// already masked).
fn enqueue_children(g: &CsrGraph, row: &[u16], x: u32, s: &mut PatchScratch) {
    let d = row[x as usize];
    for &y in g.neighbors(x) {
        if row[y as usize] != UNREACHED && row[y as usize] == d + 1 && !s.is_orphan(y) {
            s.heap.push(Reverse((row[y as usize], y)));
        }
    }
}

/// Seeds a decrease-only relaxation with the improvement a recovered
/// link `u–v` offers (at most one endpoint can improve).
fn seed_link(row: &[u16], u: u32, v: u32, heap: &mut BinaryHeap<Reverse<(u16, u32)>>) {
    let (du, dv) = (row[u as usize], row[v as usize]);
    if du != UNREACHED && (dv == UNREACHED || du + 1 < dv) {
        heap.push(Reverse((du + 1, v)));
    } else if dv != UNREACHED && (du == UNREACHED || dv + 1 < du) {
        heap.push(Reverse((dv + 1, u)));
    }
}

/// Seeds a decrease-only relaxation with the best distance a recovered
/// node `x` obtains through its surviving links.
fn seed_node(
    g: &CsrGraph,
    masks: &FaultMasks,
    row: &[u16],
    x: u32,
    heap: &mut BinaryHeap<Reverse<(u16, u32)>>,
) {
    let base = g.edge_range(x).start;
    let mut best = UNREACHED;
    for (slot, &w) in g.neighbors(x).iter().enumerate() {
        if masks.edge_alive(base + slot) && row[w as usize] != UNREACHED {
            best = best.min(row[w as usize] + 1);
        }
    }
    if best < row[x as usize] {
        heap.push(Reverse((best, x)));
    }
}

/// Decrease-only Dijkstra over alive edges from the seeded frontier.
/// Safe anywhere: distances only ever move down, so already-correct
/// rows are fixpoints.
fn relax_decrease(
    g: &CsrGraph,
    masks: &FaultMasks,
    row: &mut [u16],
    heap: &mut BinaryHeap<Reverse<(u16, u32)>>,
) {
    while let Some(Reverse((d, x))) = heap.pop() {
        if row[x as usize] <= d {
            continue;
        }
        row[x as usize] = d;
        let base = g.edge_range(x).start;
        for (slot, &y) in g.neighbors(x).iter().enumerate() {
            if masks.edge_alive(base + slot) && row[y as usize] > d + 1 {
                heap.push(Reverse((d + 1, y)));
            }
        }
    }
}

/// Degraded distances on a graph with an isometric hypercube embedding,
/// stored as exceptions to the closed form. See the
/// [module docs](self).
///
/// Row `dst` holds the `(src, distance)` entries, sorted by `src`, of
/// the live sources whose distance to `dst` differs from
/// `popcount(l[src] ^ l[dst])`; the distance is [`INFINITY`] when the
/// faults cut `src` off. Every other live source is at its Hamming
/// distance. Dead nodes have no entries: the caller checks liveness.
///
/// Rows are built on first use ([`row`](ExceptionRows::row)) into a
/// `OnceLock` per destination, so a store shared by several lanes fills
/// without a lock on the read path, and stays `Send + Sync`.
/// [`clear`](ExceptionRows::clear) empties exactly the rows that were
/// built, and must follow every change of the faults.
pub(crate) struct ExceptionRows {
    labels: Vec<u64>,
    rows: Vec<OnceLock<Entries>>,
    /// The built rows and the repair scratch, locked only while a row
    /// is built.
    fill: Mutex<RowFill>,
}

/// The `(src, distance)` entries of one row, sorted by `src`.
type Entries = Box<[(u32, u32)]>;

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
}

/// One built row of an [`ExceptionRows`] store: the distance toward its
/// destination from any live source.
#[derive(Clone, Copy)]
pub(crate) struct ExceptionRow<'r> {
    labels: &'r [u64],
    dst_label: u64,
    entries: &'r [(u32, u32)],
}

impl ExceptionRow<'_> {
    /// The degraded distance from live node `src` ([`INFINITY`] when
    /// cut off).
    #[inline]
    pub(crate) fn distance(&self, src: u32) -> u32 {
        match self.entries.binary_search_by_key(&src, |&(s, _)| s) {
            Ok(i) => self.entries[i].1,
            Err(_) => (self.labels[src as usize] ^ self.dst_label).count_ones(),
        }
    }
}

impl ExceptionRows {
    /// An empty store over `labels`, the isometric cube labels of the
    /// graph's nodes.
    pub(crate) fn new(labels: Vec<u64>) -> ExceptionRows {
        ExceptionRows {
            rows: (0..labels.len()).map(|_| OnceLock::new()).collect(),
            labels,
            fill: Mutex::default(),
        }
    }

    /// The cube labels, indexed by node.
    #[inline]
    pub(crate) fn labels(&self) -> &[u64] {
        &self.labels
    }

    /// The row toward live node `dst` on `g` degraded by `masks`, built
    /// now if it is not yet. `faults` lists every live fault: each dead
    /// node, and each independently failed link.
    #[inline]
    pub(crate) fn row(
        &self,
        g: &CsrGraph,
        masks: &FaultMasks,
        faults: &[ChurnTarget],
        dst: u32,
    ) -> ExceptionRow<'_> {
        debug_assert!(masks.node_alive(dst), "dead destinations have no row");
        let entries = self.rows[dst as usize].get_or_init(|| {
            // A build that panicked leaves valid state behind: every build
            // restamps and clears the scratch it reads, and a listed row
            // that was never set clears as a no-op.
            let mut fill = self.fill.lock().unwrap_or_else(PoisonError::into_inner);
            fill.built.push(dst);
            fill.scratch.build(g, masks, &self.labels, faults, dst)
        });
        ExceptionRow {
            labels: &self.labels,
            dst_label: self.labels[dst as usize],
            entries,
        }
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
            .map(|r| r.len())
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

    /// The exception entries of the row toward `dst`: one batched
    /// Ramalingam–Reps deletion repair of the Hamming row against every
    /// live fault at once. Deleting nodes and links only lengthens
    /// distances, and a node keeps its Hamming distance iff it keeps a
    /// surviving neighbor one bit closer that keeps its own. Phase 1
    /// finds the orphans, the nodes that lose every such neighbor, in
    /// ascending Hamming order from the dead nodes and the deeper
    /// endpoints of failed links; phase 2 re-relaxes the live orphans
    /// from their intact boundary. The live orphans are the entries.
    fn build(
        &mut self,
        g: &CsrGraph,
        masks: &FaultMasks,
        labels: &[u64],
        faults: &[ChurnTarget],
        dst: u32,
    ) -> Entries {
        let n = labels.len();
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
        let ld = labels[dst as usize];
        let hamming = |x: u32| (labels[x as usize] ^ ld).count_ones();

        // Phase 1: orphan propagation, in ascending Hamming distance so
        // a node's parents are judged before it is.
        for &fault in faults {
            match fault {
                ChurnTarget::Node(x) if !self.is_orphan(x) => self.confirm(x),
                ChurnTarget::Node(_) => {}
                ChurnTarget::Link(u, v) => {
                    // Only the deeper endpoint can lose its parent.
                    let (du, dv) = (hamming(u), hamming(v));
                    if dv == du + 1 {
                        self.heap.push(Reverse((dv, v)));
                    } else if du == dv + 1 {
                        self.heap.push(Reverse((du, u)));
                    }
                }
            }
        }
        for i in 0..self.orphans.len() {
            self.enqueue_children(g, &hamming, self.orphans[i]);
        }
        while let Some(Reverse((d, x))) = self.heap.pop() {
            if self.is_orphan(x) {
                continue;
            }
            let base = g.edge_range(x).start;
            let supported = g.neighbors(x).iter().enumerate().any(|(slot, &w)| {
                masks.edge_alive(base + slot) && !self.is_orphan(w) && hamming(w) + 1 == d
            });
            if !supported {
                self.confirm(x);
                self.enqueue_children(g, &hamming, x);
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
            let base = g.edge_range(x).start;
            let best = g
                .neighbors(x)
                .iter()
                .enumerate()
                .filter(|&(slot, &w)| masks.edge_alive(base + slot) && !self.is_orphan(w))
                .map(|(_, &w)| hamming(w) + 1)
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
            let base = g.edge_range(x).start;
            for (slot, &y) in g.neighbors(x).iter().enumerate() {
                if masks.edge_alive(base + slot)
                    && self.is_orphan(y)
                    && self.dist[y as usize] > d + 1
                {
                    self.heap.push(Reverse((d + 1, y)));
                }
            }
        }

        let mut entries: Vec<(u32, u32)> = self
            .orphans
            .iter()
            .filter(|&&x| masks.node_alive(x))
            .map(|&x| (x, self.dist[x as usize]))
            .collect();
        entries.sort_unstable();
        entries.into_boxed_slice()
    }

    /// Enqueues `x`'s potential tree children (Hamming distance one
    /// deeper) as orphan candidates, ignoring edge masks as
    /// [`DistanceTable`]'s repair does: a candidate behind a dead link
    /// fails the support check anyway.
    fn enqueue_children(&mut self, g: &CsrGraph, hamming: &impl Fn(u32) -> u32, x: u32) {
        let d = hamming(x) + 1;
        for &y in g.neighbors(x) {
            if hamming(y) == d && !self.is_orphan(y) {
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
            let rows = ExceptionRows::new(topo.cube_labels().expect("cubes carry labels"));
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
            let mut rows = ExceptionRows::new(topo.cube_labels().unwrap());
            for (k, step) in [(1u32, 3u32), (3, 7), (12, 5), (20, 11)] {
                let nodes = (0..k).map(|i| (i * step * 7 + 5) % n);
                let links = (0..k).map(|i| edges[(i * step * 13 + 1) as usize % edges.len()]);
                let set = FaultSet::new(nodes, links);
                let masks = set.masks(g);
                let mut faults: Vec<ChurnTarget> = (0..n)
                    .filter(|&v| !masks.node_alive(v))
                    .map(ChurnTarget::Node)
                    .collect();
                faults.extend(
                    set.failed_links()
                        .iter()
                        .map(|&(u, v)| ChurnTarget::Link(u, v)),
                );
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
        use crate::fault::{ChurnEvent, ChurnTarget};

        for topo in [
            &FibonacciNet::classical(7) as &dyn Topology,
            &Hypercube::new(4),
            &Ring::new(10),
        ] {
            let g = topo.graph();
            // A scripted sequence exercising all four patch kinds,
            // including recovery of a previously failed target.
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
            let mut table = DistanceTable::healthy(g).unwrap();
            let mut down_nodes: Vec<u32> = Vec::new();
            let mut down_links: Vec<(u32, u32)> = Vec::new();
            for (i, ev) in events.iter().enumerate() {
                match (ev.target, ev.failed) {
                    (ChurnTarget::Node(x), true) => down_nodes.push(x),
                    (ChurnTarget::Node(x), false) => down_nodes.retain(|&y| y != x),
                    (ChurnTarget::Link(u, v), true) => down_links.push((u, v)),
                    (ChurnTarget::Link(u, v), false) => down_links.retain(|&l| l != (u, v)),
                }
                let masks =
                    FaultSet::new(down_nodes.iter().copied(), down_links.iter().copied()).masks(g);
                table.apply_event(g, &masks, ev);
                let scratch = DistanceTable::degraded(g, &masks);
                for dst in 0..g.num_vertices() as u32 {
                    assert_eq!(
                        table.to_dst(dst),
                        scratch.to_dst(dst),
                        "{} event {i} ({ev:?}) dst {dst}",
                        topo.name()
                    );
                }
            }
            // The full sequence is a no-op net of faults: back to healthy.
            let healthy = DistanceTable::healthy(g).unwrap();
            for dst in 0..g.num_vertices() as u32 {
                assert_eq!(table.to_dst(dst), healthy.to_dst(dst));
            }
        }
    }

    /// Asserts that every `distance()` answer of `table` equals a BFS on
    /// the subgraph `set` leaves of `g` (`INFINITY` at dead nodes).
    fn assert_matches_bfs(table: &DistanceTable, g: &CsrGraph, set: &FaultSet, what: &str) {
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
                assert_eq!(table.distance(src, dst), expected, "{what}: {src} → {dst}");
            }
        }
    }

    #[test]
    fn two_byte_rows_hold_distances_past_one_byte() {
        use crate::fault::{ChurnEvent, ChurnTarget};

        // A 3 000-node ring cut at one link is a 3 000-node path, with
        // distances up to 2 999: more than one byte holds.
        let ring = Ring::new(3_000);
        let g = ring.graph();
        let cut = FaultSet::new([], [(0u32, 1u32)]);
        let degraded = DistanceTable::degraded(g, &cut.masks(g));
        assert_eq!(degraded.distance(0, 1), 2_999);
        assert_eq!(degraded.diameter(), Some(2_999));
        assert_matches_bfs(&degraded, g, &cut, "degraded");

        // The same faults reached by fail/recover events on the healthy
        // table, checked against BFS after every event.
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
        let mut table = DistanceTable::healthy(g).unwrap();
        for (i, (event, set)) in steps.iter().enumerate() {
            table.apply_event(g, &set.masks(g), event);
            assert_matches_bfs(&table, g, set, &format!("event {i} ({event:?})"));
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
