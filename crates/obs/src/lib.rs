//! `aire-obs` — the observability plane: causal trace contexts, a bounded
//! span ring, and a lock-free metrics registry.
//!
//! Aire's repair plane is asynchronous and cross-service (paper §5–§6):
//! one `flush_queue` on a driver fans out repair carriers to peer
//! services, which re-execute, enqueue further repairs, and so on. This
//! crate gives that cascade a causal story and a numeric one:
//!
//! * [`TraceContext`] — a `(trace_id, parent_span)` pair minted at the
//!   originating request and propagated on the wire (the `Aire-Trace`
//!   header, mirrored into the frame header), so one flush yields a
//!   single tree spanning driver → controller → peer services.
//! * [`SpanRing`] — a bounded, drop-oldest in-memory buffer of recorded
//!   [`Span`]s with an exported drop counter, so tracing never unbounds
//!   memory during a 10k-entry flush.
//! * [`MetricsRegistry`] — a fixed-field, lock-free (atomic) registry of
//!   counters, gauges and histograms; [`MetricsSnapshot`] is its
//!   serializable image with a commutative, associative [`merge`] so
//!   per-service snapshots combine into one node-wide image in any
//!   order.
//! * [`render_prometheus`] — Prometheus-style text exposition of a
//!   snapshot, served by `aire-noded --metrics` and the `report` binary.
//!
//! Determinism is non-negotiable: nothing in this crate feeds state
//! digests or the replay machinery. Trace ids are minted from a
//! deterministic per-service stream, and the controller strips the trace
//! header from every request before it reaches application code.
//!
//! [`merge`]: MetricsSnapshot::merge

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use aire_types::Jv;

/// The request header carrying a trace context across service
/// boundaries: `Aire-Trace: <trace_id>:<span_id>` (decimal). Stamped
/// only on repair carriers and admin fan-out, never on normal
/// application traffic, and stripped by the receiving controller before
/// the request reaches recorded history.
pub const TRACE_HEADER: &str = "Aire-Trace";

/// A position in a trace: the trace's id plus the id of the span that
/// is current at the sender (which becomes the parent of any span the
/// receiver starts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the whole tree; constant across every hop of a flush.
    pub trace_id: u64,
    /// The span current where this context was captured.
    pub span_id: u64,
}

impl TraceContext {
    /// Renders the header value: `<trace_id>:<span_id>` in decimal.
    pub fn wire(&self) -> String {
        format!("{}:{}", self.trace_id, self.span_id)
    }

    /// Parses a header value produced by [`wire`](Self::wire). Returns
    /// `None` on any malformed input (tracing is best-effort; a bad
    /// header is ignored, never an error).
    pub fn parse(text: &str) -> Option<TraceContext> {
        let (t, s) = text.split_once(':')?;
        Some(TraceContext {
            trace_id: t.trim().parse().ok()?,
            span_id: s.trim().parse().ok()?,
        })
    }
}

/// One recorded event in a trace tree. Spans are point events (no
/// duration): wall-clock timing lives in the metrics histograms where it
/// cannot perturb replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The tree this span belongs to.
    pub trace_id: u64,
    /// This span's id, unique within the trace.
    pub span_id: u64,
    /// The parent span's id; `0` marks a root.
    pub parent_span: u64,
    /// The service that recorded the span.
    pub service: String,
    /// What happened: `"flush_queue"`, `"send_repair"`, `"receive"`, …
    pub name: String,
}

impl Span {
    /// Serializes for the `trace_dump` admin response.
    pub fn to_jv(&self) -> Jv {
        let mut m = Jv::map();
        m.set("trace", Jv::i(self.trace_id as i64));
        m.set("span", Jv::i(self.span_id as i64));
        m.set("parent", Jv::i(self.parent_span as i64));
        m.set("service", Jv::s(self.service.clone()));
        m.set("name", Jv::s(self.name.clone()));
        m
    }

    /// Deserializes a [`to_jv`](Self::to_jv) image; `None` if the shape
    /// is not a span.
    pub fn from_jv(v: &Jv) -> Option<Span> {
        let trace_id = v.get("trace").as_int()? as u64;
        let span_id = v.get("span").as_int()? as u64;
        Some(Span {
            trace_id,
            span_id,
            parent_span: v.int_of("parent") as u64,
            service: v.str_of("service").to_string(),
            name: v.str_of("name").to_string(),
        })
    }
}

/// Default capacity of a controller's span ring.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A bounded buffer of spans that drops the **oldest** entry when full
/// and counts every drop, so a 10k-entry flush traces the tail of the
/// story within constant memory and reports exactly how much head it
/// lost.
#[derive(Debug)]
pub struct SpanRing {
    capacity: usize,
    buf: VecDeque<Span>,
    dropped: u64,
}

impl SpanRing {
    /// Creates a ring holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing {
            capacity: capacity.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends a span, evicting the oldest (and counting it dropped)
    /// when at capacity.
    pub fn push(&mut self, span: Span) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(span);
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.buf.iter()
    }

    /// Number of spans evicted since creation (or the last
    /// [`clear`](Self::clear)).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Discards all retained spans and resets the drop counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.dropped = 0;
    }
}

/// A monotone, lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free gauge (a value that can move both ways, e.g. queue
/// depth). Stored as `i64` bits in an atomic word.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v as u64, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed) as i64
    }
}

/// Bucket bounds (µs) for dispatch-latency histograms.
pub const LATENCY_BOUNDS_MICROS: &[u64] = &[
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// Bucket bounds (µs) for repair-duration histograms: one re-executed
/// action at the low end, a whole local-repair pass at the high end.
pub const REPAIR_BOUNDS_MICROS: &[u64] = &[
    10, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000,
    1_000_000, 5_000_000,
];

/// Bucket bounds (row counts) for taint-closure-size histograms.
pub const CLOSURE_BOUNDS: &[u64] = &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 5_000];

/// A lock-free cumulative histogram over fixed bucket bounds, plus a
/// running sum and count. The implicit final bucket is `+Inf`.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over `bounds` (ascending; `+Inf` is implied).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        Histogram {
            bounds,
            counts: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A serializable image of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// The serializable image of a [`Histogram`]: per-bucket counts (one
/// more entry than `bounds` — the trailing `+Inf` bucket), total sum and
/// observation count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Ascending bucket upper bounds; `+Inf` is implied after the last.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts, `bounds.len() + 1` long.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Merges `other` in: elementwise bucket sums (zero-padded to the
    /// longer of the two, so the operation is commutative and
    /// associative even across mismatched bound sets), summed `sum` and
    /// `count`. Bounds are united by length — same-code registries
    /// always agree, so in practice this is an exact merge.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.bounds.len() < other.bounds.len() {
            self.bounds = other.bounds.clone();
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum += other.sum;
        self.count += other.count;
    }

    /// Serializes for the `metrics_snapshot` admin response.
    pub fn to_jv(&self) -> Jv {
        let mut m = Jv::map();
        m.set(
            "bounds",
            Jv::list(self.bounds.iter().map(|&b| Jv::i(b as i64))),
        );
        m.set(
            "counts",
            Jv::list(self.counts.iter().map(|&c| Jv::i(c as i64))),
        );
        m.set("sum", Jv::i(self.sum as i64));
        m.set("count", Jv::i(self.count as i64));
        m
    }

    /// Deserializes a [`to_jv`](Self::to_jv) image.
    pub fn from_jv(v: &Jv) -> HistogramSnapshot {
        let ints = |key: &str| -> Vec<u64> {
            v.get(key)
                .as_list()
                .unwrap_or(&[])
                .iter()
                .filter_map(|x| x.as_int())
                .map(|x| x as u64)
                .collect()
        };
        HistogramSnapshot {
            bounds: ints("bounds"),
            counts: ints("counts"),
            sum: v.int_of("sum") as u64,
            count: v.int_of("count") as u64,
        }
    }
}

/// The fixed set of metrics every controller maintains.
/// Fixed fields (not a keyed map) keep the hot paths allocation- and
/// lock-free; [`snapshot`](Self::snapshot) names each metric for the
/// wire.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Normal (non-repair) requests executed.
    pub requests_total: Counter,
    /// Repair messages sent to peer services (repair throughput, out).
    pub repair_msgs_sent_total: Counter,
    /// Repair messages received and applied (repair throughput, in).
    pub repair_msgs_received_total: Counter,
    /// Repair batch carriers shipped by queue flushes.
    pub repair_batches_sent_total: Counter,
    /// Logged operations re-executed during local repair.
    pub repair_ops_reexecuted_total: Counter,
    /// Logged operations skipped (outside the taint closure).
    pub repair_ops_skipped_total: Counter,
    /// Connection-pool dials (from the transport layer).
    pub pool_dials_total: Counter,
    /// Connection-pool reuses.
    pub pool_reuses_total: Counter,
    /// Transport-level send retries.
    pub pool_retries_total: Counter,
    /// GC passes run.
    pub gc_runs_total: Counter,
    /// Store versions dropped by GC.
    pub gc_versions_dropped_total: Counter,
    /// Compaction passes run (explicit `compact` ops plus budget-triggered
    /// ones; eager per-write collapsing is not counted here).
    pub compaction_runs_total: Counter,
    /// Store versions collapsed by compaction passes.
    pub compaction_versions_collapsed_total: Counter,
    /// Compactions triggered by the store-byte budget.
    pub store_budget_compactions_total: Counter,
    /// Times the store stayed over budget even after compacting — the
    /// graceful-degradation path (history above the horizon is never
    /// evicted).
    pub store_budget_overruns_total: Counter,
    /// Spans evicted from the ring (mirrored at snapshot time).
    pub spans_dropped_total: Counter,
    /// Times a local-repair pass suspended between quanta to let the
    /// serve loop run.
    pub repair_yields_total: Counter,
    /// Normal requests executed while a local-repair pass was suspended.
    pub served_during_repair_total: Counter,
    /// Current repair-queue depth.
    pub queue_depth: Gauge,
    /// Rows in the taint graph.
    pub taint_rows: Gauge,
    /// Read edges in the taint graph.
    pub taint_read_edges: Gauge,
    /// Write edges in the taint graph.
    pub taint_write_edges: Gauge,
    /// Logical-time distance between the newest logged action and the
    /// GC horizon (how much history remains repairable).
    pub gc_horizon_lag: Gauge,
    /// Actions currently in the repair log.
    pub log_actions: Gauge,
    /// Bytes resident in live version chains.
    pub store_bytes: Gauge,
    /// Bytes resident in archived (rolled-back audit) versions.
    pub store_archived_bytes: Gauge,
    /// Wall-clock latency of normal request dispatch, µs.
    pub dispatch_latency_micros: Histogram,
    /// Taint-closure sizes computed by selective repair, rows.
    pub taint_closure_size: Histogram,
    /// Busy time of each local-repair pass (the sum of its quanta), µs
    /// — how long the service spent repairing instead of serving.
    pub repair_pass_micros: Histogram,
    /// Wall-clock duration of each quantum a pass ran between yields,
    /// µs (one per pass when nothing is yielded to).
    pub repair_quantum_micros: Histogram,
    /// Wall-clock duration of each action re-executed inside a pass
    /// (handler, write reconciliation, log update), µs.
    pub repair_reexec_micros: Histogram,
}

impl MetricsRegistry {
    /// Creates a zeroed registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            requests_total: Counter::default(),
            repair_msgs_sent_total: Counter::default(),
            repair_msgs_received_total: Counter::default(),
            repair_batches_sent_total: Counter::default(),
            repair_ops_reexecuted_total: Counter::default(),
            repair_ops_skipped_total: Counter::default(),
            pool_dials_total: Counter::default(),
            pool_reuses_total: Counter::default(),
            pool_retries_total: Counter::default(),
            gc_runs_total: Counter::default(),
            gc_versions_dropped_total: Counter::default(),
            compaction_runs_total: Counter::default(),
            compaction_versions_collapsed_total: Counter::default(),
            store_budget_compactions_total: Counter::default(),
            store_budget_overruns_total: Counter::default(),
            spans_dropped_total: Counter::default(),
            repair_yields_total: Counter::default(),
            served_during_repair_total: Counter::default(),
            queue_depth: Gauge::default(),
            taint_rows: Gauge::default(),
            taint_read_edges: Gauge::default(),
            taint_write_edges: Gauge::default(),
            gc_horizon_lag: Gauge::default(),
            log_actions: Gauge::default(),
            store_bytes: Gauge::default(),
            store_archived_bytes: Gauge::default(),
            dispatch_latency_micros: Histogram::new(LATENCY_BOUNDS_MICROS),
            taint_closure_size: Histogram::new(CLOSURE_BOUNDS),
            repair_pass_micros: Histogram::new(REPAIR_BOUNDS_MICROS),
            repair_quantum_micros: Histogram::new(REPAIR_BOUNDS_MICROS),
            repair_reexec_micros: Histogram::new(REPAIR_BOUNDS_MICROS),
        }
    }

    /// Captures a named, serializable image of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        let c = &mut s.counters;
        c.insert("aire_requests_total".into(), self.requests_total.get());
        c.insert(
            "aire_repair_msgs_sent_total".into(),
            self.repair_msgs_sent_total.get(),
        );
        c.insert(
            "aire_repair_msgs_received_total".into(),
            self.repair_msgs_received_total.get(),
        );
        c.insert(
            "aire_repair_batches_sent_total".into(),
            self.repair_batches_sent_total.get(),
        );
        c.insert(
            "aire_repair_ops_reexecuted_total".into(),
            self.repair_ops_reexecuted_total.get(),
        );
        c.insert(
            "aire_repair_ops_skipped_total".into(),
            self.repair_ops_skipped_total.get(),
        );
        c.insert("aire_pool_dials_total".into(), self.pool_dials_total.get());
        c.insert(
            "aire_pool_reuses_total".into(),
            self.pool_reuses_total.get(),
        );
        c.insert(
            "aire_pool_retries_total".into(),
            self.pool_retries_total.get(),
        );
        c.insert("aire_gc_runs_total".into(), self.gc_runs_total.get());
        c.insert(
            "aire_gc_versions_dropped_total".into(),
            self.gc_versions_dropped_total.get(),
        );
        c.insert(
            "aire_compaction_runs_total".into(),
            self.compaction_runs_total.get(),
        );
        c.insert(
            "aire_compaction_versions_collapsed_total".into(),
            self.compaction_versions_collapsed_total.get(),
        );
        c.insert(
            "aire_store_budget_compactions_total".into(),
            self.store_budget_compactions_total.get(),
        );
        c.insert(
            "aire_store_budget_overruns_total".into(),
            self.store_budget_overruns_total.get(),
        );
        c.insert(
            "aire_trace_spans_dropped_total".into(),
            self.spans_dropped_total.get(),
        );
        c.insert(
            "aire_repair_yields_total".into(),
            self.repair_yields_total.get(),
        );
        c.insert(
            "aire_served_during_repair_total".into(),
            self.served_during_repair_total.get(),
        );
        let g = &mut s.gauges;
        g.insert("aire_queue_depth".into(), self.queue_depth.get());
        g.insert("aire_taint_rows".into(), self.taint_rows.get());
        g.insert("aire_taint_read_edges".into(), self.taint_read_edges.get());
        g.insert(
            "aire_taint_write_edges".into(),
            self.taint_write_edges.get(),
        );
        g.insert("aire_gc_horizon_lag".into(), self.gc_horizon_lag.get());
        g.insert("aire_log_actions".into(), self.log_actions.get());
        g.insert("aire_store_bytes".into(), self.store_bytes.get());
        g.insert(
            "aire_store_archived_bytes".into(),
            self.store_archived_bytes.get(),
        );
        s.histograms.insert(
            "aire_dispatch_latency_micros".into(),
            self.dispatch_latency_micros.snapshot(),
        );
        s.histograms.insert(
            "aire_taint_closure_size".into(),
            self.taint_closure_size.snapshot(),
        );
        s.histograms.insert(
            "aire_repair_pass_micros".into(),
            self.repair_pass_micros.snapshot(),
        );
        s.histograms.insert(
            "aire_repair_quantum_micros".into(),
            self.repair_quantum_micros.snapshot(),
        );
        s.histograms.insert(
            "aire_repair_reexec_micros".into(),
            self.repair_reexec_micros.snapshot(),
        );
        s
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

/// A named, serializable image of a registry. Snapshots merge
/// commutatively and associatively (counters and gauges sum; histograms
/// sum per bucket), so a scraper may combine per-service parts in any
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters by exposition name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by exposition name (summed across parts: depths and
    /// sizes are additive over disjoint services).
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by exposition name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`. Sum-merge on every family keeps the
    /// operation commutative and associative, which the merge property
    /// tests pin down.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Serializes for the `metrics_snapshot` admin response.
    pub fn to_jv(&self) -> Jv {
        let mut counters = Jv::map();
        for (k, v) in &self.counters {
            counters.set(k.clone(), Jv::i(*v as i64));
        }
        let mut gauges = Jv::map();
        for (k, v) in &self.gauges {
            gauges.set(k.clone(), Jv::i(*v));
        }
        let mut histograms = Jv::map();
        for (k, v) in &self.histograms {
            histograms.set(k.clone(), v.to_jv());
        }
        let mut m = Jv::map();
        m.set("counters", counters);
        m.set("gauges", gauges);
        m.set("histograms", histograms);
        m
    }

    /// Deserializes a [`to_jv`](Self::to_jv) image. Unknown or
    /// malformed entries are skipped — telemetry is tolerant by design.
    pub fn from_jv(v: &Jv) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        if let Some(m) = v.get("counters").as_map() {
            for (k, val) in m {
                if let Some(n) = val.as_int() {
                    s.counters.insert(k.clone(), n as u64);
                }
            }
        }
        if let Some(m) = v.get("gauges").as_map() {
            for (k, val) in m {
                if let Some(n) = val.as_int() {
                    s.gauges.insert(k.clone(), n);
                }
            }
        }
        if let Some(m) = v.get("histograms").as_map() {
            for (k, val) in m {
                s.histograms
                    .insert(k.clone(), HistogramSnapshot::from_jv(val));
            }
        }
        s
    }
}

/// Renders a snapshot in Prometheus text exposition format (v0.0.4):
/// `# TYPE` lines, `_bucket{le=...}` cumulative histogram series, and
/// one sample per counter/gauge.
pub fn render_prometheus(s: &MetricsSnapshot) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (name, v) in &s.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in &s.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, h) in &s.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        let mut cumulative = 0u64;
        for (i, bound) in h.bounds.iter().enumerate() {
            cumulative += h.counts.get(i).copied().unwrap_or(0);
            let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

/// The per-controller observability handle: a tracing switch, the span
/// ring, the metrics registry, and the ambient trace context.
///
/// One `Obs` per controller; the registry is an `Arc` so the transport
/// layer can share it across the clone boundary. `Obs` itself is single-threaded (`Rc` it alongside the
/// controller).
#[derive(Debug)]
pub struct Obs {
    service: String,
    tracing: bool,
    registry: Arc<MetricsRegistry>,
    ring: RefCell<SpanRing>,
    ambient: Cell<Option<TraceContext>>,
    seed: u64,
    next_id: Cell<u64>,
}

/// SplitMix64 — the id stream generator. Deterministic per service so
/// reruns produce identical traces.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Obs {
    /// Creates a handle for `service`. With `tracing` false, span
    /// recording is a no-op; metrics are always live (they are cheap and
    /// never reach digests).
    pub fn new(service: &str, tracing: bool) -> Obs {
        let mut seed = 0xcbf2_9ce4_8422_2325u64;
        for b in service.bytes() {
            seed ^= b as u64;
            seed = seed.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Obs {
            service: service.to_string(),
            tracing,
            registry: Arc::new(MetricsRegistry::new()),
            ring: RefCell::new(SpanRing::new(DEFAULT_RING_CAPACITY)),
            ambient: Cell::new(None),
            seed,
            next_id: Cell::new(0),
        }
    }

    /// Whether span recording is on.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// The service name this handle records for.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// The metrics registry (shared; clone the `Arc` to hand it to the
    /// transport layer).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Mints a fresh id: deterministic per service, masked positive and
    /// nonzero so it survives `i64` JSON round-trips.
    fn mint_id(&self) -> u64 {
        loop {
            let n = self.next_id.get();
            self.next_id.set(n + 1);
            let id = splitmix64(self.seed ^ n) & 0x7fff_ffff_ffff_ffff;
            if id != 0 {
                return id;
            }
        }
    }

    /// The ambient trace context (set while handling a traced request).
    pub fn current(&self) -> Option<TraceContext> {
        self.ambient.get()
    }

    /// Replaces the ambient context, returning the previous value so
    /// the caller can restore it when the scope ends.
    pub fn set_current(&self, ctx: Option<TraceContext>) -> Option<TraceContext> {
        self.ambient.replace(ctx)
    }

    /// Records a span under `parent` (a remote context from the wire,
    /// or [`current`](Self::current)); with no parent a fresh trace is
    /// rooted. Returns the new span's context for stamping onto
    /// outbound carriers or installing as ambient. No-op (returns
    /// `None`) when tracing is off.
    pub fn start_from(&self, parent: Option<TraceContext>, name: &str) -> Option<TraceContext> {
        if !self.tracing {
            return None;
        }
        let span_id = self.mint_id();
        let (trace_id, parent_span) = match parent {
            Some(p) => (p.trace_id, p.span_id),
            None => (self.mint_id(), 0),
        };
        self.ring.borrow_mut().push(Span {
            trace_id,
            span_id,
            parent_span,
            service: self.service.clone(),
            name: name.to_string(),
        });
        Some(TraceContext { trace_id, span_id })
    }

    /// [`start_from`](Self::start_from) with the ambient context as the
    /// parent.
    pub fn start(&self, name: &str) -> Option<TraceContext> {
        self.start_from(self.current(), name)
    }

    /// The retained spans, oldest first (for `trace_dump`).
    pub fn spans(&self) -> Vec<Span> {
        self.ring.borrow().spans().cloned().collect()
    }

    /// Spans evicted from the ring so far.
    pub fn spans_dropped(&self) -> u64 {
        self.ring.borrow().dropped()
    }

    /// Discards retained spans and the drop counter.
    pub fn clear_spans(&self) {
        self.ring.borrow_mut().clear();
    }

    /// Captures a registry snapshot, first mirroring the ring's drop
    /// counter into `aire_trace_spans_dropped_total`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let dropped = self.spans_dropped();
        let already = self.registry.spans_dropped_total.get();
        if dropped > already {
            self.registry.spans_dropped_total.add(dropped - already);
        }
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_context_wire_round_trip() {
        let ctx = TraceContext {
            trace_id: 12345,
            span_id: 678,
        };
        assert_eq!(ctx.wire(), "12345:678");
        assert_eq!(TraceContext::parse(&ctx.wire()), Some(ctx));
        assert_eq!(TraceContext::parse("garbage"), None);
        assert_eq!(TraceContext::parse("1:b"), None);
        assert_eq!(TraceContext::parse(""), None);
    }

    #[test]
    fn span_jv_round_trip() {
        let span = Span {
            trace_id: 7,
            span_id: 8,
            parent_span: 0,
            service: "wiki".into(),
            name: "flush_queue".into(),
        };
        assert_eq!(Span::from_jv(&span.to_jv()), Some(span));
    }

    #[test]
    fn ring_drops_oldest_first_with_accurate_count() {
        let mut ring = SpanRing::new(3);
        let mk = |i: u64| Span {
            trace_id: 1,
            span_id: i,
            parent_span: 0,
            service: "s".into(),
            name: format!("op{i}"),
        };
        for i in 0..10 {
            ring.push(mk(i));
        }
        assert_eq!(ring.dropped(), 7);
        let kept: Vec<u64> = ring.spans().map(|s| s.span_id).collect();
        assert_eq!(kept, vec![7, 8, 9], "oldest evicted, newest retained");
        ring.clear();
        assert_eq!(ring.dropped(), 0);
        assert!(ring.is_empty());
    }

    #[test]
    fn histogram_buckets_and_snapshot() {
        let h = Histogram::new(&[10, 100]);
        h.observe(5);
        h.observe(10); // on the bound → first bucket (le = 10)
        h.observe(50);
        h.observe(1000);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.sum, 1065);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn snapshot_merge_sums_everything() {
        let a_reg = MetricsRegistry::new();
        a_reg.requests_total.add(3);
        a_reg.queue_depth.set(2);
        a_reg.dispatch_latency_micros.observe(40);
        let b_reg = MetricsRegistry::new();
        b_reg.requests_total.add(4);
        b_reg.queue_depth.set(5);
        b_reg.dispatch_latency_micros.observe(40);
        let mut merged = a_reg.snapshot();
        merged.merge(&b_reg.snapshot());
        assert_eq!(merged.counters["aire_requests_total"], 7);
        assert_eq!(merged.gauges["aire_queue_depth"], 7);
        assert_eq!(merged.histograms["aire_dispatch_latency_micros"].count, 2);
    }

    #[test]
    fn snapshot_jv_round_trip() {
        let reg = MetricsRegistry::new();
        reg.requests_total.add(9);
        reg.taint_rows.set(-1);
        reg.taint_closure_size.observe(17);
        let snap = reg.snapshot();
        let back = MetricsSnapshot::from_jv(&snap.to_jv());
        assert_eq!(back, snap);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let reg = MetricsRegistry::new();
        reg.requests_total.add(2);
        reg.queue_depth.set(3);
        reg.dispatch_latency_micros.observe(60);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE aire_requests_total counter"));
        assert!(text.contains("aire_requests_total 2"));
        assert!(text.contains("# TYPE aire_queue_depth gauge"));
        assert!(text.contains("aire_queue_depth 3"));
        assert!(text.contains("# TYPE aire_dispatch_latency_micros histogram"));
        assert!(text.contains("aire_dispatch_latency_micros_bucket{le=\"100\"} 1"));
        assert!(text.contains("aire_dispatch_latency_micros_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("aire_dispatch_latency_micros_count 1"));
    }

    #[test]
    fn obs_roots_and_parents_spans() {
        let obs = Obs::new("wiki", true);
        let root = obs.start("flush").unwrap();
        assert_ne!(root.trace_id, 0);
        obs.set_current(Some(root));
        let child = obs.start("send").unwrap();
        assert_eq!(child.trace_id, root.trace_id);
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent_span, 0);
        assert_eq!(spans[1].parent_span, root.span_id);
        assert_eq!(spans[1].trace_id, root.trace_id);
    }

    #[test]
    fn obs_off_records_nothing() {
        let obs = Obs::new("wiki", false);
        assert_eq!(obs.start("flush"), None);
        assert!(obs.spans().is_empty());
        // Metrics still live with tracing off.
        obs.registry().requests_total.incr();
        assert_eq!(obs.metrics_snapshot().counters["aire_requests_total"], 1);
    }

    #[test]
    fn obs_ids_are_deterministic_per_service() {
        let a = Obs::new("wiki", true);
        let b = Obs::new("wiki", true);
        assert_eq!(a.start("x"), b.start("x"));
        // Distinct services walk distinct id streams.
        let c = Obs::new("forum", true);
        assert_ne!(a.start("x"), c.start("x"));
    }

    #[test]
    fn metrics_snapshot_mirrors_ring_drops() {
        let obs = Obs::new("wiki", true);
        // Overflow the ring far enough to drop spans.
        for _ in 0..(DEFAULT_RING_CAPACITY + 5) {
            obs.start("op");
        }
        let snap = obs.metrics_snapshot();
        assert_eq!(snap.counters["aire_trace_spans_dropped_total"], 5);
        // Mirroring is idempotent.
        let again = obs.metrics_snapshot();
        assert_eq!(again.counters["aire_trace_spans_dropped_total"], 5);
    }
}
