//! Lock-free server counters and the one table that declares every metric.
//!
//! Everything is atomics so sessions and the executor update without
//! contention. Bucket edges are shared with the engine's phase histograms
//! via [`etypes::bucket_index`].
//!
//! Each metric is declared once, in [`DECLS`]: its `STATS` key, Prometheus
//! name, [`Kind`] and [`Scope`]. Code that owns a value emits it with
//! [`sample`]; the shard router collects every owner's samples into one
//! list. [`render_prometheus`] renders that list for `GET /metrics` as it
//! is (engine-scoped samples carry a `shard="k"` label); `STATS` passes it
//! through [`fold_shards`] first, which puts the all-shard total under the
//! bare key and each shard's own value under `shard{k}.<key>`, and then
//! through [`render_stats_text`]. One collection, one table, two renderings
//! — the surfaces cannot drift.

use etypes::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime};

const BUCKETS: usize = etypes::HIST_BUCKETS;

/// Histogram over microsecond latencies with power-of-two bucket edges:
/// bucket `i` holds samples in `[2^i, 2^(i+1))` µs, and bucket 0 holds
/// everything below 2 µs — sub-microsecond samples included.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// Record one sample.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros() as u64;
        self.buckets[etypes::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in microseconds.
    pub fn total_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed)
    }

    /// Upper bucket edge (µs) below which at least `p` (in `[0,1]`) of the
    /// samples fall; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    /// A point-in-time copy, in the type the engine's histograms use.
    pub fn snapshot(&self) -> Histogram {
        Histogram::from_parts(
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            self.count(),
            self.total_us(),
        )
    }
}

/// Who owns a metric's value, and so how `STATS` totals it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scope {
    /// One value per process: the [`Metrics`] atomics, the failpoint
    /// registry, the replication topology.
    Server,
    /// One value per process, counted by the shard router.
    Router,
    /// One value per shard, sampled with a `shard="k"` label. `STATS` shows
    /// each as `shard{k}.<key>` and combines them under `<key>` by the
    /// [`Fold`].
    Engine(Fold),
}

/// How the shards' values of one engine-scoped metric combine into the
/// all-shard total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fold {
    /// Counters and gauges add; histograms merge bucket-wise
    /// ([`Histogram::merge`]).
    Sum,
    /// A ratio, recomputed as `sum(num) / sum(den)` over the named
    /// engine-scoped keys — never an average of the shards' ratios.
    Ratio {
        /// Key whose shard values sum to the numerator.
        num: &'static str,
        /// Keys whose shard values sum to the denominator.
        den: &'static [&'static str],
    },
    /// The shards' common value, or the text `mixed` when they disagree.
    AllEqual,
    /// The first shard value that is not [`HEALTHY`]; `healthy` when every
    /// shard is.
    Worst,
    /// No total: the value only means something per shard (a server-scoped
    /// metric already covers the whole process).
    PerShard,
}

/// What a healthy engine reports under `health`.
pub const HEALTHY: &str = "healthy";

/// How one histogram family renders in `STATS`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistRender {
    /// `(suffix, p)` pairs rendered as `<key>_<suffix>` percentile lines
    /// (and as companion gauges on `/metrics`).
    pub percentiles: &'static [(&'static str, f64)],
    /// Render a `<key>_total_us` line.
    pub total: bool,
    /// Leave the family out of `STATS` while it holds no sample.
    pub skip_if_empty: bool,
}

const P50_P95: &[(&str, f64)] = &[("p50_us", 0.50), ("p95_us", 0.95)];
const P50_P95_P99: &[(&str, f64)] = &[("p50_us", 0.50), ("p95_us", 0.95), ("p99_us", 0.99)];

/// The all-verbs latency histogram: always shown, with a p99.
const ALL_VERBS: Kind = Kind::Histogram(HistRender {
    percentiles: P50_P95_P99,
    total: false,
    skip_if_empty: false,
});
/// One verb's latency histogram: shown once the verb was served.
const ONE_VERB: Kind = Kind::Histogram(HistRender {
    percentiles: P50_P95,
    total: false,
    skip_if_empty: true,
});
/// One engine phase's histogram: shown once it ran, with its total.
const PHASE: Kind = Kind::Histogram(HistRender {
    percentiles: P50_P95,
    total: true,
    skip_if_empty: true,
});

/// The type of a metric and how its value renders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Monotonically increasing integer.
    Counter,
    /// Point-in-time integer.
    Gauge,
    /// Point-in-time float, rendered with this many decimals.
    Float(usize),
    /// Non-numeric state (health, exec mode, build version): `key value` in
    /// `STATS`, an `_info{value="..."} 1` gauge on `/metrics`.
    Text,
    /// Log2 latency histogram: count and percentile lines in `STATS`,
    /// cumulative buckets on `/metrics`.
    Histogram(HistRender),
}

impl Kind {
    /// Decimals a float renders with.
    fn decimals(self) -> usize {
        match self {
            Kind::Float(decimals) => decimals,
            _ => 0,
        }
    }

    /// How a histogram renders.
    fn hist(self) -> HistRender {
        match self {
            Kind::Histogram(render) => render,
            _ => HistRender {
                percentiles: &[],
                total: false,
                skip_if_empty: false,
            },
        }
    }
}

/// The declaration of one metric. A `{label}` in `key` or `name` stands for
/// the value of that label on the sample (`latency_{verb}` is one
/// declaration for thirteen histograms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decl {
    /// The `STATS` key (the stem, for histograms).
    pub key: &'static str,
    /// Prometheus family name without the `elephant_` prefix; unique in
    /// [`DECLS`], and what [`sample`] looks a declaration up by.
    pub name: &'static str,
    /// Type and rendering.
    pub kind: Kind,
    /// Owner and fold rule.
    pub scope: Scope,
}

impl Decl {
    /// Override the Prometheus name where it differs from the `STATS` key.
    const fn named(mut self, name: &'static str) -> Decl {
        self.name = name;
        self
    }
}

const fn decl(key: &'static str, kind: Kind, scope: Scope) -> Decl {
    Decl {
        key,
        name: key,
        kind,
        scope,
    }
}

const fn server(key: &'static str, kind: Kind) -> Decl {
    decl(key, kind, Scope::Server)
}

const fn router(key: &'static str, kind: Kind) -> Decl {
    decl(key, kind, Scope::Router)
}

const fn engine(key: &'static str, kind: Kind, fold: Fold) -> Decl {
    decl(key, kind, Scope::Engine(fold))
}

use Fold::{AllEqual, PerShard, Sum, Worst};
use Kind::{Counter, Gauge, Text};

/// Every metric the server reports, in no particular order (`STATS` lines
/// follow the order the samples were collected in).
pub static DECLS: &[Decl] = &[
    // Identity and per-verb accounting ([`VERBS`] names the counter keys).
    server("uptime_s", Gauge),
    server("started_at_unix", Gauge),
    server("build_version", Text).named("build"),
    server("commands_served", Counter),
    server("queries", Counter),
    server("batches", Counter),
    server("prepares", Counter),
    server("executes", Counter),
    server("explains", Counter),
    server("inspects", Counter),
    server("stats_calls", Counter),
    server("checkpoints_served", Counter),
    server("traces", Counter),
    server("replica_calls", Counter),
    server("lag_calls", Counter),
    server("other_commands", Counter),
    server("errors", Counter),
    server("protocol_errors", Counter),
    server("exec_errors", Counter),
    server("sessions_opened", Counter),
    server("sessions_open", Gauge),
    server("queue_depth", Gauge),
    server("busy_rejections", Counter),
    server("statements_timed_out", Counter),
    server("metrics_scrapes", Counter),
    server("pipelined_frames", Counter),
    server("batch_statements", Counter),
    server("params_bound", Counter),
    server("chunks_streamed", Counter),
    server("result_buffer_bytes", Gauge),
    server("result_buffer_peak_bytes", Gauge),
    server("latency", ALL_VERBS),
    server("latency_{verb}", ONE_VERB),
    // The failpoint registry is process-global.
    server("faults_injected", Counter),
    // Replication topology: one per server (replication forces one shard).
    server("repl_role", Text),
    server("repl_committed_lsn", Gauge),
    server("repl_followers_connected", Gauge),
    server("repl_bytes_shipped", Gauge),
    server("repl_snapshots_sent", Gauge),
    server("repl_min_acked_lsn", Gauge),
    server("repl_lag_lsns", Gauge),
    server("repl_applied_lsn", Gauge),
    server("repl_leader_lsn", Gauge),
    server("repl_bytes_received", Gauge),
    server("repl_snapshots_loaded", Gauge),
    server("repl_reconnects", Gauge),
    server("repl_connected", Gauge),
    // Lane gauges: the server-scoped `queue_depth` and `commands_served`
    // are the process-wide views, so these have no total.
    engine("queue_depth", Gauge, PerShard).named("shard_queue_depth"),
    engine("commands", Counter, PerShard).named("shard_commands"),
    // Plan cache and prepared statements.
    engine("plan_cache_entries", Gauge, Sum),
    engine("plan_cache_hits", Counter, Sum),
    engine("plan_cache_misses", Counter, Sum),
    engine("plan_cache_evictions", Counter, Sum),
    engine("plan_cache_invalidations", Counter, Sum),
    engine(
        "plan_cache_hit_rate",
        Kind::Float(4),
        Fold::Ratio {
            num: "plan_cache_hits",
            den: &["plan_cache_hits", "plan_cache_misses"],
        },
    ),
    engine("prepared_statements", Gauge, Sum),
    engine("plan_cache_invalidations.{table}", Counter, Sum)
        .named("plan_cache_table_invalidations"),
    // Execution.
    engine("phase_{phase}", PHASE, Sum),
    engine("batches_executed", Counter, Sum),
    engine("colexec_fallbacks", Counter, Sum),
    engine("trace_spans_recorded", Counter, Sum),
    engine("trace_spans_retained", Gauge, Sum),
    engine("trace_spans_open", Gauge, Sum),
    engine("health", Text, Worst),
    // Storage and recovery.
    engine("storage_durable", Gauge, AllEqual),
    engine("wal_records_appended", Counter, Sum),
    engine("wal_fsyncs", Counter, Sum),
    engine("wal_bytes", Gauge, Sum),
    engine("storage_checkpoints", Counter, Sum),
    engine("wal_group_commits", Counter, Sum),
    engine("wal_group_committed_records", Counter, Sum),
    engine(
        "wal_commits_per_fsync",
        Kind::Float(2),
        Fold::Ratio {
            num: "wal_records_appended",
            den: &["wal_fsyncs"],
        },
    ),
    engine("recovered_snapshot_tables", Gauge, Sum),
    engine("recovered_snapshot_rows", Gauge, Sum),
    engine("recovered_wal_records", Gauge, Sum),
    engine("recovered_wal_torn_bytes", Gauge, Sum),
    engine("auto_checkpoints", Counter, Sum),
    // Sharding.
    router("shards", Gauge),
    router("shard_fallbacks", Counter),
    router("shard_scatter_gather", Counter),
    router("cross_shard_rejects", Counter),
    router("txn_commits", Counter),
    router("txn_aborts", Counter),
];

/// The value of one sample; its [`Kind`] is in the declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter or integer gauge.
    Int(u64),
    /// A float gauge.
    Float(f64),
    /// A text state.
    Text(String),
    /// A latency histogram (boxed: it dwarfs the other variants).
    Hist(Box<Histogram>),
}

impl From<u64> for MetricValue {
    fn from(v: u64) -> Self {
        MetricValue::Int(v)
    }
}

impl From<f64> for MetricValue {
    fn from(v: f64) -> Self {
        MetricValue::Float(v)
    }
}

impl From<String> for MetricValue {
    fn from(v: String) -> Self {
        MetricValue::Text(v)
    }
}

impl From<&str> for MetricValue {
    fn from(v: &str) -> Self {
        MetricValue::Text(v.to_string())
    }
}

impl From<Histogram> for MetricValue {
    fn from(v: Histogram) -> Self {
        MetricValue::Hist(Box::new(v))
    }
}

/// One collected sample of a declared metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's declaration.
    pub decl: &'static Decl,
    /// The `STATS` key: the declared one with its `{label}`s filled in,
    /// and the `shard{k}.` prefix on a per-shard line.
    pub key: String,
    /// The Prometheus name, `{label}`s filled in.
    pub name: String,
    /// Prometheus labels (`shard`, `verb`, `table`, ...).
    pub labels: Vec<(&'static str, String)>,
    /// The sample.
    pub value: MetricValue,
}

/// Sample the metric declared under Prometheus name `name`.
///
/// # Panics
/// When [`DECLS`] has no such name — an undeclared metric is a bug here,
/// not a runtime condition.
pub fn sample(name: &str, value: impl Into<MetricValue>) -> Metric {
    let decl = DECLS
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not declared in metrics::DECLS"));
    Metric {
        decl,
        key: decl.key.to_string(),
        name: decl.name.to_string(),
        labels: Vec::new(),
        value: value.into(),
    }
}

impl Metric {
    /// Attach one Prometheus label, filling `{k}` in the key and name.
    pub fn label(mut self, k: &'static str, v: impl Into<String>) -> Metric {
        let v = v.into();
        let slot = format!("{{{k}}}");
        self.key = self.key.replace(&slot, &v);
        self.name = self.name.replace(&slot, &v);
        self.labels.push((k, v));
        self
    }

    /// The value of the `shard` label, on engine-scoped samples.
    fn shard(&self) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == "shard")
            .map(|(_, v)| v.as_str())
    }
}

/// `num / den` as the ratio metrics report it: 0 while nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Turn the collector's samples into what `STATS` shows: server-scoped
/// samples as they are, then for every engine-scoped key the all-shard
/// total under the bare key (by its [`Fold`]), then every shard's own value
/// as `shard{k}.<key>`, then the router's. The shard count is never looked
/// at: one shard folds like any other number.
pub fn fold_shards(samples: Vec<Metric>) -> Vec<Metric> {
    let is_engine = |m: &Metric| matches!(m.decl.scope, Scope::Engine(_));
    let (engine, rest): (Vec<Metric>, Vec<Metric>) = samples.into_iter().partition(is_engine);
    let (router, mut out): (Vec<Metric>, Vec<Metric>) = rest
        .into_iter()
        .partition(|m| m.decl.scope == Scope::Router);
    let sum_of = |key: &str| -> u64 {
        engine
            .iter()
            .filter(|m| m.key == key)
            .map(|m| match m.value {
                MetricValue::Int(v) => v,
                _ => 0,
            })
            .sum()
    };
    let mut folded: Vec<&str> = Vec::new();
    for first in &engine {
        if folded.contains(&first.key.as_str()) {
            continue;
        }
        folded.push(&first.key);
        let Scope::Engine(fold) = first.decl.scope else {
            continue;
        };
        let shards = || engine.iter().filter(|m| m.key == first.key);
        let total = match fold {
            PerShard => continue,
            Sum => match first.value {
                MetricValue::Hist(_) => {
                    let mut merged = Histogram::default();
                    for m in shards() {
                        if let MetricValue::Hist(h) = &m.value {
                            merged.merge(h);
                        }
                    }
                    merged.into()
                }
                _ => MetricValue::Int(sum_of(&first.key)),
            },
            Fold::Ratio { num, den } => {
                MetricValue::Float(ratio(sum_of(num), den.iter().map(|key| sum_of(key)).sum()))
            }
            AllEqual if shards().all(|m| m.value == first.value) => first.value.clone(),
            AllEqual => MetricValue::Text("mixed".into()),
            Worst => shards()
                .map(|m| &m.value)
                .find(|v| **v != MetricValue::Text(HEALTHY.into()))
                .unwrap_or(&first.value)
                .clone(),
        };
        out.push(Metric {
            labels: Vec::new(),
            value: total,
            ..first.clone()
        });
    }
    for m in &engine {
        if let Some(shard) = m.shard() {
            out.push(Metric {
                key: format!("shard{shard}.{}", m.key),
                ..m.clone()
            });
        }
    }
    out.extend(router);
    out
}

/// Render samples as the line-oriented `STATS` body (no trailing newline).
pub fn render_stats_text(metrics: &[Metric]) -> String {
    let mut s = String::new();
    let mut line = |k: &str, v: &str| {
        s.push_str(k);
        s.push(' ');
        s.push_str(v);
        s.push('\n');
    };
    for m in metrics {
        match &m.value {
            MetricValue::Int(v) => line(&m.key, &v.to_string()),
            MetricValue::Float(v) => {
                let decimals = m.decl.kind.decimals();
                line(&m.key, &format!("{v:.decimals$}"))
            }
            MetricValue::Text(v) => line(&m.key, v),
            MetricValue::Hist(h) => {
                let render = m.decl.kind.hist();
                if render.skip_if_empty && h.count() == 0 {
                    continue;
                }
                line(&format!("{}_count", m.key), &h.count().to_string());
                if render.total {
                    line(&format!("{}_total_us", m.key), &h.total_us().to_string());
                }
                for (suffix, p) in render.percentiles {
                    line(
                        &format!("{}_{suffix}", m.key),
                        &h.percentile(*p).to_string(),
                    );
                }
            }
        }
    }
    s.pop();
    s
}

/// Escape a Prometheus label value (`\`, `"`, newline).
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render `{k="v",...}` (empty string when there are no labels).
fn render_labels(labels: &[(&'static str, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Render samples in the Prometheus text exposition format (0.0.4). Every
/// name is prefixed `elephant_`; histograms become cumulative
/// `_bucket{le=...}` series plus `_sum`/`_count`, with the declared
/// percentile estimates exported as companion gauges. Text samples become
/// `<name>_info{value="..."} 1` gauges.
///
/// The exposition format requires all samples of a metric family to be
/// contiguous. Per-shard collections repeat names with different labels,
/// so samples are grouped by family (first-seen order) before rendering.
pub fn render_prometheus(metrics: &[Metric]) -> String {
    use std::collections::HashMap;
    use std::fmt::Write as _;
    // family name → (type kind, sample lines), in first-seen family order.
    let mut order: Vec<String> = Vec::new();
    let mut families: HashMap<String, (&'static str, Vec<String>)> = HashMap::new();
    let mut push = |name: &str, kind: &'static str, line: String| {
        if !families.contains_key(name) {
            order.push(name.to_string());
            families.insert(name.to_string(), (kind, Vec::new()));
        }
        families.get_mut(name).expect("family exists").1.push(line);
    };
    for m in metrics {
        let labels = render_labels(&m.labels);
        let name = &m.name;
        match &m.value {
            MetricValue::Int(v) => {
                let kind = if m.decl.kind == Counter {
                    "counter"
                } else {
                    "gauge"
                };
                push(name, kind, format!("elephant_{name}{labels} {v}"));
            }
            MetricValue::Float(v) => {
                let decimals = m.decl.kind.decimals();
                let line = format!("elephant_{name}{labels} {v:.decimals$}");
                push(name, "gauge", line);
            }
            MetricValue::Text(v) => {
                let info = format!("{name}_info");
                let mut labels = m.labels.clone();
                labels.push(("value", v.clone()));
                let line = format!("elephant_{info}{} 1", render_labels(&labels));
                push(&info, "gauge", line);
            }
            MetricValue::Hist(h) => {
                let buckets = h.buckets();
                let last_nonzero = buckets.iter().rposition(|b| *b > 0).unwrap_or(0);
                let mut cumulative = 0u64;
                for (i, b) in buckets.iter().enumerate().take(last_nonzero + 1) {
                    cumulative += b;
                    let mut labels = m.labels.clone();
                    labels.push(("le", (1u64 << (i + 1)).to_string()));
                    let labels = render_labels(&labels);
                    let line = format!("elephant_{name}_bucket{labels} {cumulative}");
                    push(name, "histogram", line);
                }
                let mut inf = m.labels.clone();
                inf.push(("le", "+Inf".to_string()));
                let inf = render_labels(&inf);
                let count = h.count();
                let line = format!("elephant_{name}_bucket{inf} {count}");
                push(name, "histogram", line);
                let line = format!("elephant_{name}_sum{labels} {}", h.total_us());
                push(name, "histogram", line);
                let line = format!("elephant_{name}_count{labels} {count}");
                push(name, "histogram", line);
                for (suffix, p) in m.decl.kind.hist().percentiles {
                    let pname = format!("{name}_{suffix}");
                    let line = format!("elephant_{pname}{labels} {}", h.percentile(*p));
                    push(&pname, "gauge", line);
                }
            }
        }
    }
    let mut out = String::new();
    for name in order {
        let (kind, lines) = &families[&name];
        let _ = writeln!(out, "# TYPE elephant_{name} {kind}");
        for line in lines {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The verbs with their own served-counter and latency histogram, as
/// `(verb, STATS key of the counter)`; `OTHER` collects everything else
/// (SHUTDOWN, DEALLOCATE) so `commands_served` reconciles.
pub const VERBS: [(&str, &str); 12] = [
    ("QUERY", "queries"),
    ("BATCH", "batches"),
    ("PREPARE", "prepares"),
    ("EXECUTE", "executes"),
    ("EXPLAIN", "explains"),
    ("INSPECT", "inspects"),
    ("STATS", "stats_calls"),
    ("CHECKPOINT", "checkpoints_served"),
    ("TRACE", "traces"),
    ("REPLICA", "replica_calls"),
    ("LAG", "lag_calls"),
    ("OTHER", "other_commands"),
];

fn verb_index(verb: &str) -> usize {
    VERBS
        .iter()
        .position(|(v, _)| *v == verb)
        .unwrap_or(VERBS.len() - 1)
}

/// Shared server counters; one instance per server, updated everywhere.
#[derive(Debug)]
pub struct Metrics {
    /// Commands answered successfully, one slot per [`VERBS`] row.
    served: [AtomicU64; VERBS.len()],
    /// Error responses produced before execution (framing, oversized,
    /// unknown verb, draining).
    pub protocol_errors: AtomicU64,
    /// Error responses produced by command execution.
    pub exec_errors: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub sessions_opened: AtomicU64,
    /// Connections fully closed.
    pub sessions_closed: AtomicU64,
    /// Jobs currently queued for (or running on) the executor.
    pub queue_depth: AtomicU64,
    /// Commands refused with `ERR_BUSY` because the executor queue stayed
    /// full past the admission wait.
    pub busy_rejections: AtomicU64,
    /// Statements cancelled by the per-statement timeout.
    pub statements_timed_out: AtomicU64,
    /// `GET /metrics` scrapes served (counted into the scrape itself).
    pub metrics_scrapes: AtomicU64,
    /// Frames read while a previous response was still unwritten — the
    /// client pipelined them (v2 wire sessions only).
    pub pipelined_frames: AtomicU64,
    /// Individual statements executed inside `BATCH` frames.
    pub batch_statements: AtomicU64,
    /// Parameter values bound to `$n` placeholders by `EXECUTE name (...)`.
    pub params_bound: AtomicU64,
    /// Result chunks streamed to v2 clients.
    pub chunks_streamed: AtomicU64,
    /// Result bytes currently buffered for streaming, across sessions.
    pub result_buffer_bytes: AtomicU64,
    /// High-water mark of `result_buffer_bytes` since the server started.
    pub result_buffer_peak_bytes: AtomicU64,
    /// End-to-end executor latency per job, all verbs combined.
    pub latency: LatencyHistogram,
    /// Executor latency per verb, one slot per [`VERBS`] row.
    verb_latency: [LatencyHistogram; VERBS.len()],
    /// Process start instant (drives `uptime_s`).
    started: Instant,
    /// Unix seconds when this server started.
    started_at_unix: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            served: std::array::from_fn(|_| AtomicU64::new(0)),
            protocol_errors: AtomicU64::new(0),
            exec_errors: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            statements_timed_out: AtomicU64::new(0),
            metrics_scrapes: AtomicU64::new(0),
            pipelined_frames: AtomicU64::new(0),
            batch_statements: AtomicU64::new(0),
            params_bound: AtomicU64::new(0),
            chunks_streamed: AtomicU64::new(0),
            result_buffer_bytes: AtomicU64::new(0),
            result_buffer_peak_bytes: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            verb_latency: std::array::from_fn(|_| LatencyHistogram::default()),
            started: Instant::now(),
            started_at_unix: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }
}

impl Metrics {
    /// Count one served command for `verb` (post-success).
    pub fn count_verb(&self, verb: &str) {
        self.served[verb_index(verb)].fetch_add(1, Ordering::Relaxed);
    }

    /// Track `n` more result bytes buffered for streaming and refresh the
    /// high-water mark.
    pub fn result_buffer_grow(&self, n: u64) {
        let now = self.result_buffer_bytes.fetch_add(n, Ordering::Relaxed) + n;
        self.result_buffer_peak_bytes
            .fetch_max(now, Ordering::Relaxed);
    }

    /// Release `n` buffered result bytes once they reach the socket.
    pub fn result_buffer_shrink(&self, n: u64) {
        self.result_buffer_bytes.fetch_sub(n, Ordering::Relaxed);
    }

    /// Record one job's end-to-end latency under its verb (and the
    /// all-verbs histogram).
    pub fn record_latency(&self, verb: &str, elapsed: Duration) {
        self.latency.record(elapsed);
        self.verb_latency[verb_index(verb)].record(elapsed);
    }

    /// The per-verb latency histogram (tests, rendering).
    pub fn verb_latency(&self, verb: &str) -> &LatencyHistogram {
        &self.verb_latency[verb_index(verb)]
    }

    /// Total error responses (protocol + execution).
    pub fn total_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed) + self.exec_errors.load(Ordering::Relaxed)
    }

    /// Seconds since this server started.
    pub fn uptime_s(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Unix seconds when this server started.
    pub fn started_at_unix(&self) -> u64 {
        self.started_at_unix
    }

    /// Total commands served across all verbs.
    pub fn total_served(&self) -> u64 {
        self.served.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Collect the server-scoped samples this struct and the failpoint
    /// registry own.
    pub fn server_samples(&self) -> Vec<Metric> {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let opened = load(&self.sessions_opened);
        let mut v = vec![
            sample("uptime_s", self.uptime_s()),
            sample("started_at_unix", self.started_at_unix),
            sample("build", env!("CARGO_PKG_VERSION")),
            sample("commands_served", self.total_served()),
        ];
        for ((_, key), served) in VERBS.iter().zip(&self.served) {
            v.push(sample(key, load(served)));
        }
        v.extend([
            sample("errors", self.total_errors()),
            sample("protocol_errors", load(&self.protocol_errors)),
            sample("exec_errors", load(&self.exec_errors)),
            sample("sessions_opened", opened),
            sample(
                "sessions_open",
                opened.saturating_sub(load(&self.sessions_closed)),
            ),
            sample("queue_depth", load(&self.queue_depth)),
            sample("busy_rejections", load(&self.busy_rejections)),
            sample("statements_timed_out", load(&self.statements_timed_out)),
            sample("metrics_scrapes", load(&self.metrics_scrapes)),
            sample("pipelined_frames", load(&self.pipelined_frames)),
            sample("batch_statements", load(&self.batch_statements)),
            sample("params_bound", load(&self.params_bound)),
            sample("chunks_streamed", load(&self.chunks_streamed)),
            sample("result_buffer_bytes", load(&self.result_buffer_bytes)),
            sample(
                "result_buffer_peak_bytes",
                load(&self.result_buffer_peak_bytes),
            ),
            sample("latency", self.latency.snapshot()),
        ]);
        for ((verb, _), hist) in VERBS.iter().zip(&self.verb_latency) {
            let verb = verb.to_ascii_lowercase();
            v.push(sample("latency_{verb}", hist.snapshot()).label("verb", verb));
        }
        v.push(sample("faults_injected", etypes::fault::injected()));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Command;
    use crate::repl::ReplState;
    use crate::shard::testing::router_on;
    use crate::shard::ShardRouter;
    use std::sync::Arc;

    #[test]
    fn histogram_percentiles_are_ordered() {
        let h = LatencyHistogram::default();
        for us in [1u64, 10, 100, 1000, 10_000] {
            for _ in 0..20 {
                h.record(Duration::from_micros(us));
            }
        }
        assert_eq!(h.count(), 100);
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert!(p50 >= 100, "median bucket should cover 100us, got {p50}");
        assert_eq!(h.total_us(), 20 * (1 + 10 + 100 + 1000 + 10_000));
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn sub_microsecond_samples_land_in_bucket_zero() {
        // Regression: `64 - leading_zeros(1)` put 1µs samples in bucket 1,
        // reporting every percentile one bucket (2×) too high.
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(100)); // rounds to 0µs
        h.record(Duration::from_micros(1));
        assert_eq!(h.count(), 2);
        // Both samples sit in bucket 0, whose upper edge is 2µs.
        assert_eq!(h.percentile(1.0), 2);
    }

    #[test]
    fn render_contains_all_keys() {
        let m = Metrics::default();
        m.count_verb("QUERY");
        m.count_verb("STATS");
        let body = render_stats_text(&m.server_samples());
        for key in [
            "commands_served 2",
            "queries 1",
            "latency_p99_us 0",
            "other_commands 0",
            "protocol_errors 0",
            "exec_errors 0",
            "busy_rejections 0",
            "statements_timed_out 0",
            "metrics_scrapes 0",
            "uptime_s ",
            "started_at_unix ",
            "build_version ",
        ] {
            assert!(body.contains(key), "missing '{key}' in:\n{body}");
        }
    }

    #[test]
    fn shutdown_and_deallocate_reconcile_into_totals() {
        let m = Metrics::default();
        m.count_verb("QUERY");
        m.count_verb("SHUTDOWN");
        m.count_verb("DEALLOCATE");
        m.count_verb("TRACE");
        assert_eq!(m.total_served(), 4);
        let body = render_stats_text(&m.server_samples());
        assert!(body.contains("commands_served 4"), "{body}");
        assert!(body.contains("other_commands 2"), "{body}");
        assert!(body.contains("traces 1"), "{body}");
    }

    #[test]
    fn per_verb_latency_renders_only_active_verbs() {
        let m = Metrics::default();
        m.record_latency("QUERY", Duration::from_micros(50));
        m.record_latency("SHUTDOWN", Duration::from_micros(10));
        assert_eq!(m.latency.count(), 2);
        assert_eq!(m.verb_latency("QUERY").count(), 1);
        assert_eq!(m.verb_latency("SHUTDOWN").count(), 1); // folded into OTHER
        let body = render_stats_text(&m.server_samples());
        assert!(body.contains("latency_query_count 1"), "{body}");
        assert!(body.contains("latency_query_p95_us"), "{body}");
        assert!(body.contains("latency_other_count 1"), "{body}");
        assert!(!body.contains("latency_prepare_count"), "{body}");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let m = Metrics::default();
        m.count_verb("QUERY");
        m.record_latency("QUERY", Duration::from_micros(100));
        let samples = m.server_samples();
        let text = render_prometheus(&samples);
        assert!(text.contains("# TYPE elephant_queries counter"), "{text}");
        assert!(text.contains("elephant_queries 1"), "{text}");
        assert!(text.contains("# TYPE elephant_latency histogram"), "{text}");
        assert!(text.contains("elephant_latency_count 1"), "{text}");
        assert!(text.contains("elephant_latency_sum 100"), "{text}");
        assert!(
            text.contains("elephant_latency_bucket{le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("elephant_build_info{value=\""), "{text}");
        assert!(
            text.contains("elephant_latency_query_count{verb=\"query\"} 1"),
            "{text}"
        );
        // One TYPE line per name, buckets cumulative.
        let type_lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE elephant_latency "))
            .collect();
        assert_eq!(type_lines.len(), 1, "{text}");
    }

    #[test]
    fn stats_text_and_prometheus_agree_on_values() {
        let m = Metrics::default();
        m.count_verb("QUERY");
        m.count_verb("QUERY");
        m.count_verb("STATS");
        let samples = m.server_samples();
        let stats = render_stats_text(&samples);
        let prom = render_prometheus(&samples);
        // Same collection: a counter must read identically on both surfaces.
        assert!(stats.contains("\nqueries 2"), "{stats}");
        assert!(prom.contains("\nelephant_queries 2\n"), "{prom}");
        assert!(stats.contains("\ncommands_served 3"), "{stats}");
        assert!(prom.contains("elephant_commands_served 3"), "{prom}");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(1)); // bucket 0
        h.record(Duration::from_micros(3)); // bucket 1
        h.record(Duration::from_micros(100)); // bucket 6
        let text = render_prometheus(&[sample("latency", h.snapshot())]);
        for line in [
            "elephant_latency_bucket{le=\"2\"} 1",
            "elephant_latency_bucket{le=\"4\"} 2",
            "elephant_latency_bucket{le=\"128\"} 3",
            "elephant_latency_bucket{le=\"+Inf\"} 3",
            "elephant_latency_count 3",
        ] {
            assert!(text.contains(line), "missing '{line}' in:\n{text}");
        }
    }

    /// The collector's output over a server that recovered, invalidated a
    /// prepared plan per table and played every replication role is the
    /// declaration table, exactly: nothing undeclared (`sample` would have
    /// panicked), nothing of the wrong type, nothing declared but dead.
    #[test]
    fn every_declaration_is_sampled_with_its_declared_type() {
        let dir = std::env::temp_dir().join(format!("elephant-decls-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let query = |router: &ShardRouter, sql: &str| {
            let planned = router.plan(1, Command::Query(sql.into()));
            router.submit(1, planned).expect(sql);
        };
        let (router, _, joins) = router_on(Some(&dir), 2);
        query(&router, "CREATE TABLE t (a int)");
        query(&router, "INSERT INTO t VALUES (1)");
        drop(router);
        joins.into_iter().for_each(|j| j.join().unwrap());

        let (router, _, joins) = router_on(Some(&dir), 2);
        let prepare = Command::Prepare {
            name: "p".into(),
            sql: "SELECT a FROM t".into(),
        };
        router.submit(1, router.plan(1, prepare)).unwrap();
        query(&router, "DROP TABLE t");
        let mut samples = router.collect().unwrap();
        drop(router);
        joins.into_iter().for_each(|j| j.join().unwrap());
        let _ = std::fs::remove_dir_all(&dir);

        let leader = ReplState::leader();
        let registry = Arc::new(elephant_repl::LeaderRegistry::default());
        registry.register("10.0.0.2:9999");
        leader.set_registry(registry);
        samples.extend(leader.samples(Some(9)));
        let status = Arc::new(elephant_repl::FollowerStatus::default());
        samples.extend(ReplState::follower("127.0.0.1:1".into(), status).samples(None));

        for m in &samples {
            let typed = matches!(
                (&m.value, m.decl.kind),
                (MetricValue::Int(_), Counter | Gauge)
                    | (MetricValue::Float(_), Kind::Float(_))
                    | (MetricValue::Text(_), Text)
                    | (MetricValue::Hist(_), Kind::Histogram(_))
            );
            assert!(typed, "{} sampled as {:?}", m.name, m.value);
            assert_eq!(
                m.shard().is_some(),
                matches!(m.decl.scope, Scope::Engine(_)),
                "{}: the shard label goes with engine scope",
                m.name
            );
        }
        for d in DECLS {
            let sampled = samples.iter().any(|m| std::ptr::eq(m.decl, d));
            assert!(sampled, "'{}' is declared but never sampled", d.name);
        }
    }

    fn on_shard(name: &str, shard: u64, value: impl Into<MetricValue>) -> Metric {
        sample(name, value).label("shard", shard.to_string())
    }

    #[test]
    fn fold_totals_each_kind_by_its_rule_and_keeps_every_shard() {
        let mut fast = Histogram::default();
        fast.record_us(3);
        let mut slow = Histogram::default();
        slow.record_us(1000);
        slow.record_us(2000);
        let phase = |shard, h: &Histogram| {
            on_shard("phase_{phase}", shard, h.clone()).label("phase", "lex")
        };
        let body = render_stats_text(&fold_shards(vec![
            sample("faults_injected", 3u64),
            on_shard("shard_commands", 0, 5u64),
            on_shard("plan_cache_hits", 0, 9u64),
            on_shard("plan_cache_misses", 0, 1u64),
            on_shard("plan_cache_hit_rate", 0, 0.9),
            phase(0, &fast),
            on_shard("health", 0, HEALTHY),
            on_shard("storage_durable", 0, 1u64),
            on_shard("shard_commands", 1, 7u64),
            on_shard("plan_cache_hits", 1, 0u64),
            on_shard("plan_cache_misses", 1, 10u64),
            on_shard("plan_cache_hit_rate", 1, 0.0),
            phase(1, &slow),
            on_shard("health", 1, "read_only (disk full)"),
            on_shard("storage_durable", 1, 0u64),
            sample("shards", 2u64),
        ]));
        let lines: Vec<&str> = body.lines().collect();
        for want in [
            // Server scope passes through once, whatever the shard count.
            "faults_injected 3",
            // Counters add; the ratio is 9 / 20, not the mean of 0.9 and 0.
            "plan_cache_hits 9",
            "plan_cache_misses 11",
            "plan_cache_hit_rate 0.4500",
            // Histograms merge: three samples, the median in the slow shard.
            "phase_lex_count 3",
            "phase_lex_total_us 3003",
            "phase_lex_p50_us 1024",
            "storage_durable mixed",
            "health read_only (disk full)",
            // Every shard keeps its own line.
            "shard0.plan_cache_hit_rate 0.9000",
            "shard1.plan_cache_misses 10",
            "shard0.phase_lex_count 1",
            "shard1.storage_durable 0",
            "shard0.health healthy",
            "shard0.commands 5",
            "shard1.commands 7",
            "shards 2",
        ] {
            assert!(lines.contains(&want), "missing '{want}' in:\n{body}");
        }
        // Lane gauges have no total, and no key is printed twice.
        assert!(!lines.iter().any(|l| l.starts_with("commands ")), "{body}");
        let mut keys: Vec<&str> = lines.iter().map(|l| l.split(' ').next().unwrap()).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate STATS key in:\n{body}");
    }

    #[test]
    fn declarations_are_unique_and_ratios_name_declared_parts() {
        for (i, d) in DECLS.iter().enumerate() {
            assert!(
                DECLS[..i].iter().all(|o| o.name != d.name),
                "Prometheus name '{}' declared twice",
                d.name
            );
            assert!(
                DECLS[..i].iter().all(|o| o.key != d.key
                    || matches!(o.scope, Scope::Engine(_)) != matches!(d.scope, Scope::Engine(_))),
                "STATS key '{}' declared twice in one scope",
                d.key
            );
            if let Scope::Engine(Fold::Ratio { num, den }) = d.scope {
                for part in den.iter().chain([&num]) {
                    let summed = DECLS
                        .iter()
                        .any(|o| o.key == *part && o.scope == Scope::Engine(Sum));
                    assert!(summed, "'{}' folds over undeclared part '{part}'", d.key);
                }
            }
        }
        for (_, key) in VERBS {
            assert!(DECLS.iter().any(|d| d.key == key && d.kind == Counter));
        }
    }
}
