//! The shared span model for the tracing subsystem.
//!
//! Every layer that measures wall-time speaks the same shapes:
//!
//! * [`Histogram`] — a single-threaded log2-bucketed microsecond histogram
//!   (the engine's per-phase accumulators). The server keeps its own atomic
//!   variant but shares [`bucket_index`] so both agree on bucket edges:
//!   bucket `i` holds samples in `[2^i, 2^(i+1))` µs and bucket 0 holds
//!   everything below 2 µs, sub-microsecond samples included.
//! * [`Span`] — one finished unit of work (a served command, a routing
//!   decision, a per-shard export) kept in a [`SpanRing`] for the `TRACE`
//!   verb. Spans carry a process-unique [`Span::id`], a parent id and a
//!   `query_id`, so the spans of one distributed command — scattered over
//!   several per-shard rings — reassemble into a single tree.
//! * [`TraceContext`] — the two correlation ids (`query_id`, parent span)
//!   threaded from the router through executors into the engine.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of log2 buckets: `2^39` µs ≈ 6.4 days, far beyond any latency.
pub const HIST_BUCKETS: usize = 40;

/// Bucket index for a microsecond sample: `floor(log2(us))`, with all
/// sub-2µs samples (including `us == 0`) in bucket 0 and everything at or
/// above `2^(HIST_BUCKETS-1)` clamped into the last bucket.
#[inline]
pub fn bucket_index(us: u64) -> usize {
    (us.max(1).ilog2() as usize).min(HIST_BUCKETS - 1)
}

/// Single-threaded log2 latency histogram over microseconds.
///
/// Cheap enough for the hot path: recording is one bucket increment and two
/// adds. Percentiles report the *upper edge* of the bucket the target sample
/// falls in (`2^(i+1)` µs), so a histogram holding only 1 µs samples reports
/// `p100 = 2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    total_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            total_us: 0,
        }
    }
}

impl Histogram {
    /// Rebuild a histogram from counters kept elsewhere (the server's
    /// lock-free per-verb histograms snapshot into this type).
    pub fn from_parts(buckets: [u64; HIST_BUCKETS], count: u64, total_us: u64) -> Histogram {
        Histogram {
            buckets,
            count,
            total_us,
        }
    }

    /// Record one sample in microseconds.
    #[inline]
    pub fn record_us(&mut self, us: u64) {
        self.buckets[bucket_index(us)] += 1;
        self.count += 1;
        self.total_us += us;
    }

    /// Record one sample as a [`std::time::Duration`].
    #[inline]
    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.record_us(elapsed.as_micros() as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in microseconds.
    pub fn total_us(&self) -> u64 {
        self.total_us
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    /// The raw per-bucket counts (bucket `i` holds `[2^i, 2^(i+1))` µs).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Upper bucket edge (µs) below which at least `p` (in `[0,1]`) of the
    /// samples fall; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << HIST_BUCKETS
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.total_us += other.total_us;
    }
}

/// Process-global span-id allocator: every span in every ring gets a unique
/// id, so parent links work across shard rings.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a process-unique span id (1-based, monotonic).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// What layer of the distributed pipeline a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole served command (the root of a query's span tree).
    Command,
    /// Router resolution: parsing table names and picking shards.
    Router,
    /// Time a job waited in a shard's queue before an executor picked it up.
    QueueWait,
    /// Executor dispatch of a command on its target shard.
    ShardExec,
    /// One shard exporting its tables for a scatter-gather read.
    SgExport,
    /// Installing exported table images on the gather coordinator.
    SgInstall,
    /// Coordinator execution of the gathered cross-shard query.
    SgGather,
    /// The command's share of its WAL group-commit fsync window.
    WalGroupFsync,
    /// One engine phase (lex/parse/bind/optimize/execute/wal_append/fsync).
    EnginePhase,
    /// One stage of an `INSPECT` inside its executor dispatch: capturing the
    /// pipeline, one pipeline line's operator and inspection queries, or
    /// dropping the run's scratch relations.
    InspectStage,
    /// Replication apply work on a follower.
    ReplApply,
    /// One participant shard executing + durably preparing its slice of a
    /// cross-shard transaction (2PC phase one).
    TxnPrepare,
    /// The coordinator durably logging its commit/abort verdict.
    TxnDecision,
    /// One participant shard applying the decided outcome (commit marker,
    /// or abort marker + unwind).
    TxnCommit,
}

impl SpanKind {
    /// Stable lowercase name used in `TRACE` output and docs.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Command => "command",
            SpanKind::Router => "router",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::ShardExec => "shard-exec",
            SpanKind::SgExport => "sg-export",
            SpanKind::SgInstall => "sg-install",
            SpanKind::SgGather => "sg-gather",
            SpanKind::WalGroupFsync => "wal-group-fsync",
            SpanKind::EnginePhase => "engine-phase",
            SpanKind::InspectStage => "inspect-stage",
            SpanKind::ReplApply => "repl-apply",
            SpanKind::TxnPrepare => "txn-prepare",
            SpanKind::TxnDecision => "txn-decision",
            SpanKind::TxnCommit => "txn-commit",
        }
    }
}

/// The correlation ids threaded from the router through an executor into
/// the engine: which query a measurement belongs to and which span is its
/// parent in the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Stable per-command id assigned by the router (`q<N>` on the wire).
    pub query_id: u64,
    /// Span id of the parent (the root command span for direct children).
    pub parent_span: u64,
}

/// One span about to enter a ring: everything except the ring-local `seq`.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique span id (from [`next_span_id`]).
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// The query this span belongs to; 0 for uncorrelated legacy spans.
    pub query_id: u64,
    /// What layer the span measures.
    pub kind: SpanKind,
    /// The shard whose executor (or router) produced the span.
    pub shard: u16,
    /// What ran (a verb like `QUERY`, a phase name, ...).
    pub name: String,
    /// Free-form detail (SQL text, statement name, ...).
    pub detail: String,
    /// Wall-clock duration in microseconds.
    pub elapsed_us: u64,
    /// False when the work ended in an error response.
    pub ok: bool,
}

impl SpanRecord {
    /// A root command span (parent 0, [`SpanKind::Command`]) with a fresh id.
    pub fn root(query_id: u64, shard: u16, name: impl Into<String>, detail: &str) -> SpanRecord {
        SpanRecord {
            id: next_span_id(),
            parent: 0,
            query_id,
            kind: SpanKind::Command,
            shard,
            name: name.into(),
            detail: detail.to_string(),
            elapsed_us: 0,
            ok: true,
        }
    }

    /// A child span under `ctx` with a fresh id.
    pub fn child(
        ctx: TraceContext,
        kind: SpanKind,
        shard: u16,
        name: impl Into<String>,
        detail: &str,
        elapsed_us: u64,
        ok: bool,
    ) -> SpanRecord {
        SpanRecord {
            id: next_span_id(),
            parent: ctx.parent_span,
            query_id: ctx.query_id,
            kind,
            shard,
            name: name.into(),
            detail: detail.to_string(),
            elapsed_us,
            ok,
        }
    }
}

/// One finished unit of work, as surfaced by the server's `TRACE` verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Monotonic sequence number (1-based, assigned by the ring).
    pub seq: u64,
    /// Process-unique span id (tree node identity).
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// The query this span belongs to; 0 for uncorrelated legacy spans.
    pub query_id: u64,
    /// What layer the span measures.
    pub kind: SpanKind,
    /// The shard whose executor (or router) produced the span.
    pub shard: u16,
    /// What ran (a verb like `QUERY`, a phase name, ...).
    pub name: String,
    /// Free-form detail (SQL text, statement name, ...), single line.
    pub detail: String,
    /// Wall-clock duration in microseconds.
    pub elapsed_us: u64,
    /// False when the work ended in an error response.
    pub ok: bool,
}

impl Span {
    /// Render as one stable `key=value` line (the `TRACE` wire format).
    /// `detail` stays last because it may contain `=` and spaces.
    pub fn render(&self) -> String {
        format!(
            "span seq={} qid=q{} kind={} shard={} id={} parent={} name={} us={} ok={} detail={}",
            self.seq,
            self.query_id,
            self.kind.name(),
            self.shard,
            self.id,
            self.parent,
            self.name,
            self.elapsed_us,
            u8::from(self.ok),
            self.detail
        )
    }
}

/// Flatten a detail string to one bounded line for `TRACE` output.
fn flatten_detail(detail: &str) -> String {
    const MAX_DETAIL: usize = 120;
    let mut flat: String = detail
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .take(MAX_DETAIL)
        .collect();
    flat.truncate(flat.trim_end().len());
    flat
}

/// Fixed-capacity ring of recent [`Span`]s (oldest evicted first), plus the
/// set of *open roots*: command spans that began but have not finished.
///
/// Open roots live outside the evictable ring, so a burst of child spans
/// can never evict the root of an in-flight query — the "root pinned while
/// children record" guarantee is structural, not probabilistic. A root
/// enters the ring (and becomes evictable) only when it finishes.
#[derive(Debug, Clone)]
pub struct SpanRing {
    capacity: usize,
    next_seq: u64,
    spans: VecDeque<Span>,
    open: Vec<Span>,
}

impl SpanRing {
    /// Create a ring holding at most `capacity` finished spans.
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing {
            capacity: capacity.max(1),
            next_seq: 1,
            spans: VecDeque::with_capacity(capacity.clamp(1, 1024)),
            open: Vec::new(),
        }
    }

    /// Maximum finished spans retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Finished spans currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no span has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Roots currently open (begun, not yet finished).
    pub fn open_len(&self) -> usize {
        self.open.len()
    }

    /// Total spans ever pushed (the next span gets `pushed() + 1` as seq).
    pub fn pushed(&self) -> u64 {
        self.next_seq - 1
    }

    /// Record one finished span from a full [`SpanRecord`].
    pub fn record(&mut self, rec: SpanRecord) {
        if self.spans.len() == self.capacity {
            self.spans.pop_front();
        }
        self.spans.push_back(Span {
            seq: self.next_seq,
            id: rec.id,
            parent: rec.parent,
            query_id: rec.query_id,
            kind: rec.kind,
            shard: rec.shard,
            name: rec.name,
            detail: flatten_detail(&rec.detail),
            elapsed_us: rec.elapsed_us,
            ok: rec.ok,
        });
        self.next_seq += 1;
    }

    /// Record one finished root span the legacy way (no correlation ids);
    /// `detail` is flattened to a single line and truncated so `TRACE`
    /// output stays line-oriented and bounded.
    pub fn push(&mut self, name: impl Into<String>, detail: &str, elapsed_us: u64, ok: bool) {
        self.record(SpanRecord {
            id: next_span_id(),
            parent: 0,
            query_id: 0,
            kind: SpanKind::Command,
            shard: 0,
            name: name.into(),
            detail: detail.to_string(),
            elapsed_us,
            ok,
        });
    }

    /// Open a root span: it is pinned (excluded from eviction) until
    /// [`SpanRing::finish_root`] moves it into the ring.
    pub fn begin_root(&mut self, rec: SpanRecord) {
        self.open.push(Span {
            seq: 0,
            id: rec.id,
            parent: rec.parent,
            query_id: rec.query_id,
            kind: rec.kind,
            shard: rec.shard,
            name: rec.name,
            detail: flatten_detail(&rec.detail),
            elapsed_us: rec.elapsed_us,
            ok: rec.ok,
        });
    }

    /// Close an open root: stamp its duration and outcome and move it into
    /// the ring. Unknown ids are ignored (the root may belong to another
    /// ring).
    pub fn finish_root(&mut self, id: u64, elapsed_us: u64, ok: bool) {
        if let Some(pos) = self.open.iter().position(|s| s.id == id) {
            let root = self.open.swap_remove(pos);
            self.record(SpanRecord {
                id: root.id,
                parent: root.parent,
                query_id: root.query_id,
                kind: root.kind,
                shard: root.shard,
                name: root.name,
                detail: root.detail,
                elapsed_us,
                ok,
            });
        }
    }

    /// The most recent `n` finished spans, newest first.
    pub fn recent(&self, n: usize) -> Vec<&Span> {
        self.spans.iter().rev().take(n).collect()
    }

    /// Every retained span of one query (finished spans plus the open root
    /// if the query is still in flight), oldest first.
    pub fn spans_for_query(&self, query_id: u64) -> Vec<Span> {
        let mut out: Vec<Span> = self
            .spans
            .iter()
            .filter(|s| s.query_id == query_id)
            .cloned()
            .collect();
        out.extend(self.open.iter().filter(|s| s.query_id == query_id).cloned());
        out
    }
}

/// A [`SpanRing`] behind a mutex, shared between a shard's executor (the
/// writer) and the router (the `TRACE` reader, which walks every shard's
/// ring to reassemble a distributed query tree).
#[derive(Debug)]
pub struct SharedSpanRing {
    inner: Mutex<SpanRing>,
}

impl SharedSpanRing {
    /// Create a shared ring holding at most `capacity` finished spans.
    pub fn new(capacity: usize) -> SharedSpanRing {
        SharedSpanRing {
            inner: Mutex::new(SpanRing::new(capacity)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SpanRing> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// See [`SpanRing::record`].
    pub fn record(&self, rec: SpanRecord) {
        self.lock().record(rec);
    }

    /// See [`SpanRing::push`].
    pub fn push(&self, name: impl Into<String>, detail: &str, elapsed_us: u64, ok: bool) {
        self.lock().push(name, detail, elapsed_us, ok);
    }

    /// See [`SpanRing::begin_root`].
    pub fn begin_root(&self, rec: SpanRecord) {
        self.lock().begin_root(rec);
    }

    /// See [`SpanRing::finish_root`].
    pub fn finish_root(&self, id: u64, elapsed_us: u64, ok: bool) {
        self.lock().finish_root(id, elapsed_us, ok);
    }

    /// The most recent `n` finished spans, newest first (cloned out).
    pub fn recent(&self, n: usize) -> Vec<Span> {
        self.lock().recent(n).into_iter().cloned().collect()
    }

    /// See [`SpanRing::spans_for_query`].
    pub fn spans_for_query(&self, query_id: u64) -> Vec<Span> {
        self.lock().spans_for_query(query_id)
    }

    /// Total spans ever pushed.
    pub fn pushed(&self) -> u64 {
        self.lock().pushed()
    }

    /// Finished spans currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no span has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Roots currently open.
    pub fn open_len(&self) -> usize {
        self.lock().open_len()
    }

    /// Maximum finished spans retained.
    pub fn capacity(&self) -> usize {
        self.lock().capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn bucket_edges_match_documentation() {
        // Bucket 0 holds < 2µs, sub-µs included.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_reports() {
        let mut h = Histogram::default();
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(1));
        h.record(Duration::from_micros(100));
        assert_eq!(h.count(), 3);
        assert_eq!(h.total_us(), 102);
        assert_eq!(h.mean_us(), 34);
        // Two of three samples sit in bucket 0, upper edge 2µs.
        assert_eq!(h.percentile(0.5), 2);
        assert!(h.percentile(1.0) >= 128);
        assert_eq!(h.buckets().iter().sum::<u64>(), 3);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record_us(10);
        b.record_us(20);
        b.record_us(30);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.total_us(), 60);
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let mut r = SpanRing::new(2);
        r.push("QUERY", "one", 5, true);
        r.push("QUERY", "two", 6, true);
        r.push("STATS", "three", 7, false);
        assert_eq!(r.len(), 2);
        assert_eq!(r.pushed(), 3);
        let recent = r.recent(10);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].seq, 3);
        assert_eq!(recent[0].name, "STATS");
        assert!(!recent[0].ok);
        assert_eq!(recent[1].seq, 2);
    }

    #[test]
    fn ring_flattens_multiline_detail() {
        let mut r = SpanRing::new(4);
        r.push("QUERY", "SELECT 1\nFROM t\r\n", 1, true);
        let line = r.recent(1)[0].render();
        assert!(line.contains("detail=SELECT 1 FROM t"), "{line}");
        assert!(!line.contains('\n'), "{line}");
    }

    #[test]
    fn span_ids_are_process_unique() {
        let a = next_span_id();
        let b = next_span_id();
        assert!(b > a);
    }

    #[test]
    fn open_roots_survive_child_floods() {
        let mut r = SpanRing::new(2);
        let root = SpanRecord::root(7, 0, "QUERY", "SELECT 1");
        let root_id = root.id;
        let ctx = TraceContext {
            query_id: 7,
            parent_span: root_id,
        };
        r.begin_root(root);
        // Flood far past capacity: the open root must stay reachable.
        for i in 0..10 {
            r.record(SpanRecord::child(
                ctx,
                SpanKind::EnginePhase,
                0,
                "execute",
                "",
                i,
                true,
            ));
        }
        assert_eq!(r.open_len(), 1);
        let spans = r.spans_for_query(7);
        assert!(spans.iter().any(|s| s.id == root_id), "root evicted");
        r.finish_root(root_id, 123, true);
        assert_eq!(r.open_len(), 0);
        let spans = r.spans_for_query(7);
        let root = spans.iter().find(|s| s.id == root_id).expect("root");
        assert_eq!(root.elapsed_us, 123);
        assert_eq!(root.kind, SpanKind::Command);
        assert!(root.seq > 0);
    }

    #[test]
    fn shared_ring_eviction_is_safe_under_concurrent_writers() {
        // Many threads hammer one SharedSpanRing far past capacity while
        // roots are opened and finished concurrently. The ring must not
        // lose accounting (pushed = every finished span), must stay at
        // capacity, and every root must survive eviction until finished.
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 200;
        const CAPACITY: usize = 32;
        let ring = std::sync::Arc::new(SharedSpanRing::new(CAPACITY));
        let handles: Vec<_> = (0..WRITERS)
            .map(|w| {
                let ring = std::sync::Arc::clone(&ring);
                std::thread::spawn(move || {
                    let query_id = w as u64 + 1;
                    let shard = w as u16;
                    let root = SpanRecord::root(query_id, shard, "QUERY", "flood");
                    let root_id = root.id;
                    let ctx = TraceContext {
                        query_id,
                        parent_span: root_id,
                    };
                    ring.begin_root(root);
                    for i in 0..PER_WRITER {
                        ring.record(SpanRecord::child(
                            ctx,
                            SpanKind::EnginePhase,
                            shard,
                            "execute",
                            "",
                            i,
                            true,
                        ));
                    }
                    // The open root is pinned: visible even though the
                    // ring churned through WRITERS * PER_WRITER children.
                    assert!(
                        ring.spans_for_query(query_id)
                            .iter()
                            .any(|s| s.id == root_id),
                        "open root evicted under concurrent floods"
                    );
                    ring.finish_root(root_id, 999, true);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // children + one finished root per writer, all accounted for.
        assert_eq!(ring.pushed(), (WRITERS as u64) * (PER_WRITER + 1));
        assert_eq!(ring.len(), CAPACITY);
        assert_eq!(ring.open_len(), 0);
        // Sequence numbers in the retained window are unique and the
        // newest-first contract holds after the melee.
        let recent = ring.recent(CAPACITY);
        assert_eq!(recent.len(), CAPACITY);
        assert!(
            recent.windows(2).all(|w| w[0].seq > w[1].seq),
            "recent() must stay strictly newest-first"
        );
    }

    #[test]
    fn render_keeps_seq_first_and_detail_last() {
        let mut r = SpanRing::new(4);
        r.record(SpanRecord {
            id: next_span_id(),
            parent: 3,
            query_id: 9,
            kind: SpanKind::SgExport,
            shard: 2,
            name: "EXPORT".into(),
            detail: "t0 t1".into(),
            elapsed_us: 42,
            ok: true,
        });
        let line = r.recent(1)[0].render();
        assert!(line.starts_with("span seq=1 "), "{line}");
        assert!(line.contains("qid=q9"), "{line}");
        assert!(line.contains("kind=sg-export"), "{line}");
        assert!(line.contains("shard=2"), "{line}");
        assert!(line.ends_with("detail=t0 t1"), "{line}");
    }
}
