//! Delivery statistics shared by every engine variant: the public
//! [`SimStats`] record, the streaming [`LogHistogram`], and the
//! crate-internal `StatsAcc` accumulator. Everything the accumulator
//! records is integer-valued (counts, latency sums, hop counts,
//! max-makespan), so per-shard accumulators merge **exactly** — the
//! property the sharded parallel engine's bit-identical guarantee rests
//! on. The derived floats (mean, throughput) are computed once, in
//! `StatsAcc::finish`, from the merged integers.

/// Why a packet was dropped instead of delivered — the typed accounting
/// behind the `dropped_*` fields of [`SimStats`] and the
/// [`on_drop`](crate::observer::SimObserver::on_drop) observer hook.
/// Drops only happen on degraded runs (a static fault mask or a churn
/// timeline, see [`Admission`](super::Admission)); the healthy engine
/// never drops. The first two reasons are
/// injection-time verdicts; the `LinkDied`/`NodeDied` reasons hit
/// packets already in flight when a churn event removes the link or
/// node holding them, and `RetriesExhausted` is the closed-loop
/// session giving up on a request after its retry budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The packet's source or destination node failed.
    DeadEndpoint,
    /// Both endpoints survive, but the faults disconnect them.
    Unreachable,
    /// The packet was queued on a link that failed mid-run.
    LinkDied,
    /// The packet was queued on (or addressed to) a node that failed
    /// mid-run.
    NodeDied,
    /// A closed-loop request exhausted its retry budget without a reply
    /// ([`TrafficSpec::RequestReply`](crate::traffic::TrafficSpec)).
    RetriesExhausted,
}

/// Aggregate results of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimStats {
    /// Packets handed to the simulator.
    pub offered: usize,
    /// Packets delivered before the cycle cap.
    pub delivered: usize,
    /// Packets dropped at injection because their source or destination
    /// node failed (degraded runs only).
    pub dropped_dead_endpoint: usize,
    /// Packets dropped at injection because the faults disconnect their
    /// (surviving) endpoints (degraded runs only).
    pub dropped_unreachable: usize,
    /// Packets caught in flight on a link a churn event failed.
    pub dropped_link_died: usize,
    /// Packets caught in flight on (or addressed to) a node a churn
    /// event failed.
    pub dropped_node_died: usize,
    /// Closed-loop requests abandoned after their retry budget
    /// ([`DropReason::RetriesExhausted`]).
    pub dropped_retries_exhausted: usize,
    /// Cycle at which the last packet was delivered (0 when none).
    pub makespan: u64,
    /// Mean end-to-end latency (inject → arrival) of delivered packets.
    pub mean_latency: f64,
    /// Exact latency histogram: `hist[l]` = packets delivered with
    /// latency `l`. Kept only up to [`DENSE_HISTOGRAM_NODE_LIMIT`] nodes
    /// — empty (not truncated) beyond it, where the streaming
    /// [`latency_buckets`](SimStats::latency_buckets) carry the
    /// distribution in constant space.
    pub latency_histogram: Vec<u64>,
    /// Streaming log₂-bucketed latency histogram — always populated, the
    /// scale-safe view of the latency distribution.
    pub latency_buckets: LogHistogram,
    /// 99th-percentile latency. Exact below
    /// [`DENSE_HISTOGRAM_NODE_LIMIT`] nodes; the log-bucket upper bound
    /// beyond.
    pub p99_latency: u64,
    /// Total packet-hops transmitted (link utilisation numerator).
    pub total_hops: u64,
    /// Delivered packets per cycle (throughput).
    pub throughput: f64,
}

impl SimStats {
    /// Total typed drops. Packet conservation reads
    /// `offered == delivered + dropped() + still-in-flight`, where the
    /// in-flight remainder is nonzero only when the cycle cap truncated
    /// the run.
    pub fn dropped(&self) -> usize {
        self.dropped_dead_endpoint
            + self.dropped_unreachable
            + self.dropped_link_died
            + self.dropped_node_died
            + self.dropped_retries_exhausted
    }
}

/// Node count past which the engines stop keeping the dense per-latency
/// histogram (which grows with the observed max latency) and rely on the
/// constant-space [`LogHistogram`] instead. 64 Ki nodes keeps every
/// shipped small/medium topology byte-identical to the seed while the
/// million-node scale runs stay `O(1)` in histogram memory.
pub const DENSE_HISTOGRAM_NODE_LIMIT: usize = 65_536;

/// Streaming log₂-bucketed latency histogram: 64 fixed buckets, `O(1)`
/// record, 512 bytes total — the memory-lean companion to the exact
/// [`SimStats::latency_histogram`]. Bucket `i` counts deliveries with
/// latency in `[2^i − 1, 2^{i+1} − 2]` (bucket 0 is exactly latency 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 64],
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram { buckets: [0; 64] }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one delivery at `lat` cycles.
    #[inline]
    pub fn record(&mut self, lat: u64) {
        // lat + 1 ∈ [2^i, 2^{i+1}) ⇒ bucket i; lat = u64::MAX saturates
        // into the top bucket rather than wrapping.
        let i = 63 - lat.saturating_add(1).leading_zeros() as usize;
        self.buckets[i] += 1;
    }

    /// Adds every count of `other` into `self` — the exact bucketwise
    /// sum, so sharded accumulators merge without loss.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
    }

    /// The 64 bucket counts.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.buckets
    }

    /// Inclusive latency range `[lo, hi]` covered by bucket `i`.
    pub fn bucket_range(i: usize) -> (u64, u64) {
        assert!(i < 64);
        let lo = (1u64 << i) - 1;
        let hi = if i == 63 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 2
        };
        (lo, hi)
    }

    /// Total recorded deliveries.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Upper bound of the bucket containing the `q`-quantile (0 for the
    /// empty histogram) — the scale-mode stand-in for an exact
    /// percentile, never below the true value.
    pub fn percentile_upper_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let threshold = (total as f64 * q).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= threshold {
                return LogHistogram::bucket_range(i).1;
            }
        }
        LogHistogram::bucket_range(63).1
    }
}

/// Accumulates delivery statistics shared by all engines. Everything in
/// here is an exact integer, so two accumulators over disjoint packet
/// sets merge ([`StatsAcc::merge`]) into precisely the accumulator one
/// serial run would have produced.
#[derive(Default)]
pub(crate) struct StatsAcc {
    pub(crate) delivered: usize,
    pub(crate) dropped_dead_endpoint: usize,
    pub(crate) dropped_unreachable: usize,
    pub(crate) dropped_link_died: usize,
    pub(crate) dropped_node_died: usize,
    pub(crate) dropped_retries_exhausted: usize,
    pub(crate) total_latency: u64,
    pub(crate) hist: Vec<u64>,
    pub(crate) buckets: LogHistogram,
    /// Keep the dense per-latency vector? Off past
    /// [`DENSE_HISTOGRAM_NODE_LIMIT`] nodes.
    pub(crate) dense: bool,
    pub(crate) total_hops: u64,
    pub(crate) makespan: u64,
}

impl StatsAcc {
    /// Accumulator sized for an `n`-node network: the dense histogram is
    /// kept only below [`DENSE_HISTOGRAM_NODE_LIMIT`].
    pub(crate) fn for_network(n: usize) -> StatsAcc {
        StatsAcc {
            dense: n <= DENSE_HISTOGRAM_NODE_LIMIT,
            ..StatsAcc::default()
        }
    }

    /// Counts one typed drop under its matching statistic.
    pub(crate) fn drop_packet(&mut self, reason: DropReason) {
        match reason {
            DropReason::DeadEndpoint => self.dropped_dead_endpoint += 1,
            DropReason::Unreachable => self.dropped_unreachable += 1,
            DropReason::LinkDied => self.dropped_link_died += 1,
            DropReason::NodeDied => self.dropped_node_died += 1,
            DropReason::RetriesExhausted => self.dropped_retries_exhausted += 1,
        }
    }

    pub(crate) fn deliver(&mut self, now: u64, inject_time: u64) {
        self.delivered += 1;
        let lat = now - inject_time;
        self.total_latency += lat;
        if self.dense {
            bump(&mut self.hist, lat);
        }
        self.buckets.record(lat);
        self.makespan = self.makespan.max(now);
    }

    /// Records a whole cycle's deliveries at once: `lats` are the
    /// end-to-end latencies of every packet delivered at cycle `now`.
    /// The count/sum/bucket updates run as separate chunked passes over
    /// the slice (each a simple reduction the compiler can vectorize)
    /// instead of one interleaved per-packet update — the parallel
    /// engine's commit phase batches its latency accounting through
    /// here. Equivalent to calling [`StatsAcc::deliver`] once per entry.
    pub(crate) fn deliver_batch(&mut self, now: u64, lats: &[u64]) {
        if lats.is_empty() {
            return;
        }
        self.delivered += lats.len();
        self.total_latency += lats.iter().sum::<u64>();
        if self.dense {
            for &lat in lats {
                bump(&mut self.hist, lat);
            }
        }
        for &lat in lats {
            self.buckets.record(lat);
        }
        self.makespan = self.makespan.max(now);
    }

    /// A self-addressed packet: delivered at latency 0 without touching
    /// the makespan (it never occupied a link — seed semantics).
    pub(crate) fn deliver_instant(&mut self) {
        self.delivered += 1;
        if self.dense {
            bump(&mut self.hist, 0);
        }
        self.buckets.record(0);
    }

    /// Folds `other` into `self`: the exact integer merge of two
    /// accumulators over disjoint packet sets. Counts and sums add, the
    /// histograms add bucketwise, the makespan takes the max — so
    /// merging per-shard accumulators in any order reproduces the serial
    /// accumulator bit for bit.
    pub(crate) fn merge(&mut self, other: StatsAcc) {
        self.delivered += other.delivered;
        self.dropped_dead_endpoint += other.dropped_dead_endpoint;
        self.dropped_unreachable += other.dropped_unreachable;
        self.dropped_link_died += other.dropped_link_died;
        self.dropped_node_died += other.dropped_node_died;
        self.dropped_retries_exhausted += other.dropped_retries_exhausted;
        self.total_latency += other.total_latency;
        if self.hist.len() < other.hist.len() {
            self.hist.resize(other.hist.len(), 0);
        }
        for (lat, c) in other.hist.into_iter().enumerate() {
            self.hist[lat] += c;
        }
        self.buckets.merge(&other.buckets);
        self.total_hops += other.total_hops;
        self.makespan = self.makespan.max(other.makespan);
    }

    pub(crate) fn finish(self, offered: usize) -> SimStats {
        let mean_latency = if self.delivered > 0 {
            self.total_latency as f64 / self.delivered as f64
        } else {
            0.0
        };
        let p99 = if self.dense {
            percentile(&self.hist, 0.99)
        } else {
            self.buckets.percentile_upper_bound(0.99)
        };
        let throughput = if self.makespan > 0 {
            self.delivered as f64 / self.makespan as f64
        } else {
            self.delivered as f64
        };
        SimStats {
            offered,
            delivered: self.delivered,
            dropped_dead_endpoint: self.dropped_dead_endpoint,
            dropped_unreachable: self.dropped_unreachable,
            dropped_link_died: self.dropped_link_died,
            dropped_node_died: self.dropped_node_died,
            dropped_retries_exhausted: self.dropped_retries_exhausted,
            makespan: self.makespan,
            mean_latency,
            latency_histogram: self.hist,
            latency_buckets: self.buckets,
            p99_latency: p99,
            total_hops: self.total_hops,
            throughput,
        }
    }
}

pub(crate) fn bump(hist: &mut Vec<u64>, lat: u64) {
    let lat = lat as usize;
    if hist.len() <= lat {
        hist.resize(lat + 1, 0);
    }
    hist[lat] += 1;
}

pub(crate) fn percentile(hist: &[u64], q: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((total as f64) * q).ceil() as u64;
    let mut acc = 0u64;
    for (lat, &c) in hist.iter().enumerate() {
        acc += c;
        if acc >= target {
            return lat as u64;
        }
    }
    hist.len() as u64 - 1
}
