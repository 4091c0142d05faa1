//! The per-shard single-threaded query executor.
//!
//! [`sqlengine::Engine`] is deliberately not `Send` (its catalog shares
//! view definitions via `Rc`), so the server gives each shard's engine a
//! dedicated thread: the engine is *constructed on* that thread and never
//! leaves it. The shard router submits [`Job`]s over a **bounded**
//! `std::sync::mpsc` channel — the bound is the server's backpressure:
//! when an executor falls behind, admission control converts the full
//! queue into a retryable `ERR_BUSY` instead of letting it grow without
//! limit.
//!
//! **Group commit**: the executor drains its queue in batches (one
//! blocking `recv`, then up to [`GROUP_MAX`] opportunistic `try_recv`s)
//! and brackets each batch with the engine's commit group. Under an
//! `always` fsync policy every statement in the batch defers its fsync
//! *and its acknowledgment*; closing the group issues one fsync for all of
//! them, then the buffered replies are released. One disk flush thus
//! acknowledges many concurrent commits (`wal_group_commits` /
//! `wal_commits_per_fsync` in `STATS`) without weakening durability: no
//! client sees an `ok` before its records are synced. If the closing fsync
//! fails, the engine unwinds the batch's in-memory effects and every reply
//! that depended on the failed window is rewritten to the storage error.
//!
//! **Tracing**: every routed job carries the [`TraceContext`] of the root
//! span the router opened for its client command, and the executor records
//! child spans into the shard's shared ring — queue wait, the dispatch
//! itself (`shard-exec`, `sg-gather` for a command run over installed
//! foreign images, `txn-prepare`), the engine phases under it,
//! foreign-image installs, and the command's share of the group-fsync
//! window. A command's spans are recorded when the batch's replies are
//! released.
//!
//! Shutdown is cooperative and loses nothing: `SHUTDOWN` travels through
//! the queue like any command; the executor flips the shared flag (stopping
//! the accept loop), answers `draining`, and keeps serving until every
//! sender — the router owned by the accept loop and all session clones —
//! has been dropped, at which point `recv` disconnects and the thread
//! exits. Every job enqueued before the last sender dropped still gets its
//! response.

use crate::metrics::{ratio, sample, Metric, Metrics};
use crate::protocol::{codes, Command};
use crate::shard::ShardStats;
use etypes::{next_span_id, SharedSpanRing, SpanKind, SpanRecord, TraceContext, Value};
use mlinspect::backends::pandas::FileRegistry;
use mlinspect::SqlMode;
use sqlengine::ast::Statement;
use sqlengine::{
    Engine, EngineProfile, FsyncPolicy, Phase, ResultSet, SqlError, TableImage, WalHandle,
};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// What the executor sends back: a response body, or an error code + message.
pub(crate) type Reply = Result<String, (&'static str, String)>;

/// The statements the shard router already parsed out of a command's SQL,
/// one entry per text: one for a `QUERY`, one per statement for a `BATCH`.
/// An entry is `None`, or the list is shorter, where the router did not
/// parse that text (one shard, a text it could not parse, other verbs);
/// the engine parses those itself.
pub(crate) type Parsed = Vec<Option<Vec<Statement>>>;

/// One unit of work for the executor thread.
pub(crate) enum Job {
    /// A client command; the result goes back on `reply`.
    Command {
        /// The parsed command.
        command: Command,
        /// The statements of its SQL, where the router parsed them.
        parsed: Parsed,
        /// The text an `EXECUTE` runs: its prepared statement's SQL, which
        /// the session that prepared it resolved from the name.
        text: Option<Arc<str>>,
        /// The gather leg of a cross-shard read: tables exported by the
        /// other involved shards, installed for the command and removed
        /// again before it answers.
        images: Option<Vec<TableImage>>,
        /// Where the session blocks waiting for the answer.
        reply: mpsc::Sender<Reply>,
        /// Correlation ids of the router's root span.
        ctx: TraceContext,
        /// When the router admitted the job (measures queue wait).
        enqueued: Instant,
        /// Whether this job counts into the per-verb counters and latency
        /// histograms. The broadcast verb (`CHECKPOINT`) fans one client
        /// command out to every shard; only the shard-0 leg carries `true`,
        /// so one command counts once no matter the shard count.
        counted: bool,
    },
    /// This shard's slice of a cross-shard two-phase commit. The executor
    /// runs it strictly *outside* the batch commit group (a failed group
    /// fsync rolls the whole window's bytes back out of the WAL, which
    /// must never cut out an acknowledged `PREPARE` frame): it prepares
    /// the slice, acks on `prepared`, then blocks on `decision` for the
    /// coordinator's verdict and applies commit/abort before taking the
    /// next job — no other job can observe a prepared-but-undecided
    /// engine.
    Txn {
        /// Coordinator-issued transaction id (unique across restarts).
        txn_id: u64,
        /// This shard's statements of the transaction, `;`-joined.
        sql: String,
        /// Prepare outcome: the reply body of the slice's last statement,
        /// or the classified error (the engine has already unwound its
        /// memory on `Err`).
        prepared: mpsc::Sender<Reply>,
        /// The coordinator's verdict: `true` commits, `false` aborts. A
        /// dropped sender reads as abort — the coordinator sends the
        /// verdict on the same call stack that durably logs it, so a
        /// missing verdict means no commit decision was ever logged.
        decision: mpsc::Receiver<bool>,
        /// Outcome of applying the verdict (commit/abort marker append).
        done: mpsc::Sender<Result<(), (&'static str, String)>>,
        /// Correlation ids of the router's root span.
        ctx: TraceContext,
        /// When the router admitted the job (measures queue wait).
        enqueued: Instant,
    },
    /// Scatter leg of a cross-shard read: export the named tables as
    /// images for a coordinator shard to install.
    ExportTables {
        /// Base tables owned by this shard.
        names: Vec<String>,
        /// Where the router waits for the images.
        reply: mpsc::Sender<Result<Vec<TableImage>, (&'static str, String)>>,
        /// Correlation ids of the scatter-gather root span.
        ctx: TraceContext,
    },
    /// Collect this shard's engine-scoped samples for the router's metric
    /// collector. Deliberately uncounted: neither `STATS` nor a `/metrics`
    /// scrape may perturb the counters it reports, or their parity breaks.
    MetricsSnapshot {
        /// Where the collector waits for the samples.
        reply: mpsc::Sender<Vec<Metric>>,
    },
}

/// Executor construction parameters.
pub(crate) struct ExecutorConfig {
    /// Virtual files visible to `INSPECT` pipelines (`read_csv` targets);
    /// only shard 0, which runs every `INSPECT`, is given any.
    pub files: Vec<(String, String)>,
    /// Bound of the job queue (backpressure threshold).
    pub queue_capacity: usize,
    /// Directory for WAL + snapshots; `None` keeps the engine volatile.
    pub data_dir: Option<PathBuf>,
    /// Fsync policy for the durable store (ignored without `data_dir`).
    pub fsync: FsyncPolicy,
    /// Cancel statements cooperatively after this many milliseconds;
    /// `None` lets statements run unbounded.
    pub statement_timeout_ms: Option<u64>,
    /// This executor's shard id (names the thread, labels diagnostics).
    pub shard_id: usize,
    /// Gauges shared with the shard router.
    pub lane: Arc<ShardStats>,
    /// Span ring shared with the router (the `TRACE` reader).
    pub ring: Arc<SharedSpanRing>,
    /// The coordinator's recorded 2PC verdicts, from the decision log.
    /// Recovery resolves any in-doubt prepared group against this map
    /// (commit verdict → apply, otherwise presumed abort).
    pub txn_decisions: HashMap<u64, bool>,
}

/// Upper bound on one batch drained into a single commit group. Bounds
/// both reply latency under load and the unwind window of a failed group
/// fsync.
const GROUP_MAX: usize = 32;

/// The trace bookkeeping of one deferred command, recorded into the shard
/// ring when its reply is released.
struct DeferredTrace {
    /// The root span's correlation ids.
    ctx: TraceContext,
    /// Pre-allocated id of this command's `shard-exec`/`sg-gather` span
    /// (engine-phase children parent to it).
    exec_id: u64,
    /// Time the job sat in the shard queue before dequeue, µs.
    wait_us: u64,
    /// `ShardExec` for routed commands, `SgGather` for gather legs,
    /// `TxnPrepare` for a transaction slice.
    kind: SpanKind,
    /// Per-statement engine phase samples captured during dispatch.
    phases: Vec<(Phase, u64)>,
    /// Phase samples the engine dropped past its per-command cap.
    dropped_phases: u64,
    /// An `INSPECT`'s own stages (`capture`, one per pipeline line,
    /// `scratch-drop`) with their times in µs; empty for other verbs.
    stages: Vec<(String, u64)>,
    /// Time spent installing foreign images (gather legs only), µs.
    install_us: Option<u64>,
}

/// A command's buffered outcome, released after the commit group closes.
struct DeferredReply {
    reply: mpsc::Sender<Reply>,
    verb: &'static str,
    detail: String,
    elapsed: Duration,
    result: Reply,
    /// Whether this command pushed group-undo entries (i.e. has durable
    /// effects pending the closing fsync).
    grew: bool,
    /// Engine group epoch at dispatch: entries from an older epoch were
    /// already made durable (e.g. by a mid-batch checkpoint) and survive a
    /// failed closing fsync.
    epoch: u64,
    /// Span bookkeeping.
    trace: DeferredTrace,
    /// Whether this job counts into per-verb counters and latency
    /// histograms (false for the non-primary legs of a broadcast).
    counted: bool,
}

/// Spawn one shard's executor thread; returns the job sender, the join
/// handle, the store's [`WalHandle`] (durable engines only, so the router
/// can record committed LSNs in 2PC cut vectors), and the recovered
/// base-table names (so the router can seed shard ownership). The thread
/// exits when every clone of the returned sender is dropped. Fails when the
/// durable store cannot be opened or recovered — the thread reports engine
/// construction over a handshake channel before serving.
#[allow(clippy::type_complexity)]
pub(crate) fn spawn(
    cfg: ExecutorConfig,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<(
    SyncSender<Job>,
    JoinHandle<()>,
    Option<WalHandle>,
    Vec<String>,
)> {
    let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_capacity.max(1));
    let (init_tx, init_rx) = mpsc::channel::<Result<(Option<WalHandle>, Vec<String>), String>>();
    let handle = thread::Builder::new()
        .name(format!("elephant-executor-{}", cfg.shard_id))
        .spawn(move || {
            // The engine must be created here: it is not Send.
            let profile = EngineProfile::in_memory();
            let engine = match &cfg.data_dir {
                Some(dir) => Engine::open_durable_with_decisions(
                    profile,
                    dir,
                    cfg.fsync,
                    cfg.txn_decisions.clone(),
                ),
                None => Ok(Engine::new(profile)),
            };
            let mut engine = match engine {
                Ok(engine) => engine,
                Err(e) => {
                    let _ = init_tx.send(Err(e.to_string()));
                    return;
                }
            };
            engine.set_statement_timeout(cfg.statement_timeout_ms.map(Duration::from_millis));
            let recovered: Vec<String> = engine
                .catalog()
                .table_names()
                .into_iter()
                .map(str::to_string)
                .collect();
            let _ = init_tx.send(Ok((engine.wal_handle(), recovered)));
            let mut files = FileRegistry::new();
            for (path, text) in cfg.files {
                files.insert(path, text);
            }
            let mut state = ExecutorState {
                engine,
                files,
                metrics,
                shutdown,
                ring: cfg.ring,
                lane: cfg.lane,
                shard_id: cfg.shard_id as u16,
                inspect_stages: Vec::new(),
            };
            // Batch-at-a-time service loop: block for one job, drain up to
            // GROUP_MAX more without blocking, run the batch inside one
            // commit group, then release the buffered replies. 2PC jobs
            // never join a batch: a prepare acked inside a group-commit
            // window could be cut back out by the window's whole-batch
            // rollback, so a drained `Txn` closes the batch early and runs
            // alone once the batch's replies are released.
            let mut carried: Option<Job> = None;
            loop {
                let first = match carried.take() {
                    Some(job) => job,
                    None => match rx.recv() {
                        Ok(job) => job,
                        Err(_) => break,
                    },
                };
                if matches!(first, Job::Txn { .. }) {
                    state.handle_txn(first);
                    continue;
                }
                let mut batch = Vec::with_capacity(GROUP_MAX);
                batch.push(first);
                while batch.len() < GROUP_MAX {
                    match rx.try_recv() {
                        Ok(job @ Job::Txn { .. }) => {
                            carried = Some(job);
                            break;
                        }
                        Ok(job) => batch.push(job),
                        Err(_) => break,
                    }
                }
                state.engine.begin_commit_group();
                let mut deferred: Vec<DeferredReply> = Vec::with_capacity(batch.len());
                for job in batch {
                    match job {
                        Job::Command {
                            command,
                            parsed,
                            text,
                            images,
                            reply,
                            ctx,
                            enqueued,
                            counted,
                        } => {
                            let kind = match images {
                                Some(_) => SpanKind::SgGather,
                                None => SpanKind::ShardExec,
                            };
                            let mut trace = state.start_job(ctx, kind, enqueued);
                            let started = Instant::now();
                            let verb = command.verb();
                            let detail = command.summary();
                            let pending_before = state.engine.group_pending();
                            let epoch = state.engine.group_epoch();
                            let result = match images {
                                Some(images) => {
                                    let (result, install_us) =
                                        state.gather(command, parsed, text, images);
                                    trace.install_us = Some(install_us);
                                    result
                                }
                                None => state.dispatch(command, parsed, text),
                            };
                            state.finish_job(&mut trace);
                            // A gather is read-only, so it never grows the
                            // group; deferring its reply too keeps span
                            // order consistent — the root closes last.
                            deferred.push(DeferredReply {
                                reply,
                                verb,
                                detail,
                                elapsed: started.elapsed(),
                                result,
                                grew: state.engine.group_pending() > pending_before,
                                epoch,
                                trace,
                                counted,
                            });
                        }
                        Job::Txn { .. } => {
                            unreachable!("Txn jobs close the batch before joining it")
                        }
                        Job::ExportTables { names, reply, ctx } => {
                            state.lane.dec_queue_depth();
                            state.lane.commands.fetch_add(1, Ordering::Relaxed);
                            let started = Instant::now();
                            let images = state
                                .engine
                                .export_table_images(&names)
                                .map_err(|e| state.classify(e));
                            state.ring.record(SpanRecord::child(
                                ctx,
                                SpanKind::SgExport,
                                state.shard_id,
                                "EXPORT",
                                &names.join(","),
                                started.elapsed().as_micros() as u64,
                                images.is_ok(),
                            ));
                            let _ = reply.send(images);
                        }
                        Job::MetricsSnapshot { reply } => {
                            let _ = reply.send(state.engine_samples());
                        }
                    }
                }
                // One fsync acknowledges the whole batch. On failure the
                // engine has already unwound every in-memory effect from
                // the failed window; rewrite the replies that depended on
                // it so no client sees an `ok` for a lost write.
                let pre_end_epoch = state.engine.group_epoch();
                let close_started = Instant::now();
                let group_err = match state.engine.end_commit_group() {
                    Ok(_) => None,
                    Err(e) => Some(state.classify(e)),
                };
                // Every deferred durable command shares the same closing
                // fsync window; each gets a span with the window's cost.
                let fsync_us = close_started.elapsed().as_micros() as u64;
                let durable = state.engine.is_durable();
                for mut d in deferred {
                    if let Some((code, msg)) = &group_err {
                        if d.grew && d.epoch == pre_end_epoch && d.result.is_ok() {
                            d.result = Err((code, msg.clone()));
                        }
                    }
                    if d.counted {
                        let ok = d.result.is_ok();
                        state.metrics.count_reply(d.verb, d.elapsed, ok);
                    }
                    state.finish_command(&d, fsync_us, durable, group_err.is_none());
                    // A dropped receiver means the session died mid-query;
                    // nothing to do — the answer has nowhere to go.
                    let _ = d.reply.send(d.result);
                }
            }
        })?;
    match init_rx.recv() {
        Ok(Ok((wal, recovered))) => Ok((tx, handle, wal, recovered)),
        Ok(Err(msg)) => {
            let _ = handle.join();
            Err(io::Error::other(format!("storage recovery failed: {msg}")))
        }
        Err(_) => {
            let _ = handle.join();
            Err(io::Error::other("executor thread died during startup"))
        }
    }
}

struct ExecutorState {
    engine: Engine,
    /// The `INSPECT` inputs: each is parsed on its first read and shared by
    /// every later `INSPECT` that reads it.
    files: FileRegistry,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    /// This shard's span ring, shared with the router (`TRACE` walks every
    /// shard's ring to reassemble distributed trees).
    ring: Arc<SharedSpanRing>,
    /// Gauges shared with the shard router.
    lane: Arc<ShardStats>,
    /// This executor's shard id, stamped on every span it records.
    shard_id: u16,
    /// Stage timings of the `INSPECT` being dispatched, handed to its trace
    /// record by [`ExecutorState::collect_phases`].
    inspect_stages: Vec<(String, u64)>,
}

impl ExecutorState {
    /// Start one admitted client job (a command, or a 2PC prepare leg):
    /// take it off the queue gauges, count it on the lane, and install the
    /// engine's capture context (phase samples parent to the pre-allocated
    /// exec span). [`ExecutorState::finish_job`] closes what this opens.
    fn start_job(&mut self, ctx: TraceContext, kind: SpanKind, enqueued: Instant) -> DeferredTrace {
        self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        self.lane.dec_queue_depth();
        self.lane.commands.fetch_add(1, Ordering::Relaxed);
        let exec_id = next_span_id();
        self.engine.set_trace_context(Some(TraceContext {
            query_id: ctx.query_id,
            parent_span: exec_id,
        }));
        DeferredTrace {
            ctx,
            exec_id,
            wait_us: enqueued.elapsed().as_micros() as u64,
            kind,
            phases: Vec::new(),
            dropped_phases: 0,
            stages: Vec::new(),
            install_us: None,
        }
    }

    /// Finish a job [`ExecutorState::start_job`] started: drain the
    /// engine's captured phase samples, and the stages of an `INSPECT`,
    /// into the trace record, and clear the capture context.
    fn finish_job(&mut self, trace: &mut DeferredTrace) {
        (trace.phases, trace.dropped_phases) = self.engine.take_phase_spans();
        trace.stages = std::mem::take(&mut self.inspect_stages);
        self.engine.set_trace_context(None);
    }

    /// Record one job's queue wait, its exec span (`name`, `detail`, `us`)
    /// and the engine phases and `INSPECT` stages under it.
    fn record_exec(&self, t: &DeferredTrace, name: &str, detail: &str, us: u64, ok: bool) {
        self.ring.record(SpanRecord::child(
            t.ctx,
            SpanKind::QueueWait,
            self.shard_id,
            "queue-wait",
            "",
            t.wait_us,
            true,
        ));
        self.ring.record(SpanRecord {
            id: t.exec_id,
            parent: t.ctx.parent_span,
            query_id: t.ctx.query_id,
            kind: t.kind,
            shard: self.shard_id,
            name: name.to_string(),
            detail: detail.to_string(),
            elapsed_us: us,
            ok,
        });
        let exec_ctx = TraceContext {
            query_id: t.ctx.query_id,
            parent_span: t.exec_id,
        };
        let phases = t
            .phases
            .iter()
            .map(|(p, us)| (SpanKind::EnginePhase, p.name(), us));
        let stages = t
            .stages
            .iter()
            .map(|(s, us)| (SpanKind::InspectStage, s.as_str(), us));
        for (kind, name, us) in phases.chain(stages) {
            self.ring.record(SpanRecord::child(
                exec_ctx,
                kind,
                self.shard_id,
                name,
                "",
                *us,
                true,
            ));
        }
        // Marks the cut when the engine capped its phase samples.
        if t.dropped_phases > 0 {
            self.ring.record(SpanRecord::child(
                exec_ctx,
                SpanKind::EnginePhase,
                self.shard_id,
                "truncated",
                &format!("dropped={}", t.dropped_phases),
                0,
                true,
            ));
        }
    }

    /// Record the finished command's spans (queue wait, exec, engine
    /// phases, install, group fsync).
    fn finish_command(&mut self, d: &DeferredReply, fsync_us: u64, durable: bool, synced: bool) {
        let us = d.elapsed.as_micros() as u64;
        let ok = d.result.is_ok();
        let t = &d.trace;
        self.record_exec(t, d.verb, &d.detail, us, ok);
        if let Some(install_us) = t.install_us {
            self.ring.record(SpanRecord::child(
                t.ctx,
                SpanKind::SgInstall,
                self.shard_id,
                "INSTALL",
                "foreign table images",
                install_us,
                ok,
            ));
        }
        if durable && d.grew {
            self.ring.record(SpanRecord::child(
                t.ctx,
                SpanKind::WalGroupFsync,
                self.shard_id,
                "group-fsync",
                "shared group-commit window",
                fsync_us,
                synced,
            ));
        }
    }

    /// Map an engine error to its wire code. Timeouts and read-only
    /// degradation carry their own codes so clients can tell retryable
    /// conditions from fatal ones; everything else is a plain `ERR_EXEC`.
    fn classify(&self, e: SqlError) -> (&'static str, String) {
        match e {
            SqlError::Timeout { .. } => {
                self.metrics
                    .statements_timed_out
                    .fetch_add(1, Ordering::Relaxed);
                (codes::TIMEOUT, e.to_string())
            }
            SqlError::ReadOnly(_) => (codes::READ_ONLY, e.to_string()),
            _ => (codes::EXEC, e.to_string()),
        }
    }

    /// This shard's engine-scoped samples, labeled `shard=<id>`: the plan
    /// cache block, per-phase histograms, and execution, trace, health,
    /// storage and recovery state.
    fn engine_samples(&self) -> Vec<Metric> {
        let plan = self.engine.plan_cache_stats();
        let mut v = vec![
            sample("plan_cache_entries", self.engine.plan_cache_len() as u64),
            sample("plan_cache_hits", plan.hits),
            sample("plan_cache_misses", plan.misses),
            sample("plan_cache_evictions", plan.evictions),
            sample("plan_cache_invalidations", plan.invalidations),
            sample("plan_cache_hit_rate", plan.hit_rate()),
        ];
        for (table, n) in self.engine.plan_cache_table_invalidations() {
            v.push(sample("plan_cache_table_invalidations", n).label("table", table));
        }
        for phase in Phase::ALL {
            let hist = self.engine.trace().phase(phase).clone();
            v.push(sample("phase_{phase}", hist).label("phase", phase.name()));
        }
        let engine_stats = self.engine.stats();
        v.extend([
            sample("batches_executed", engine_stats.batches_executed),
            // Every plan node executes batches, so nothing ever falls back;
            // the key stays because the benchmark reads it.
            sample("colexec_fallbacks", 0u64),
            sample("trace_spans_recorded", self.ring.pushed()),
            sample("trace_spans_retained", self.ring.len() as u64),
            sample("trace_spans_open", self.ring.open_len() as u64),
            sample("health", self.engine.health().render()),
            sample("storage_durable", u64::from(self.engine.is_durable())),
        ]);
        let storage = self.engine.storage_stats();
        if let Some(stats) = &storage {
            v.extend([
                sample("wal_records_appended", stats.wal.records_appended),
                sample("wal_fsyncs", stats.wal.fsyncs),
                sample("wal_bytes", stats.wal.bytes),
                sample("storage_checkpoints", stats.checkpoints),
            ]);
        }
        // A volatile shard has no WAL, but the group-commit keys are always
        // reported (zero) so readers need no durability special case.
        let wal = storage.map(|stats| stats.wal).unwrap_or_default();
        v.extend([
            sample("wal_group_commits", wal.group_commits),
            sample("wal_group_committed_records", wal.group_committed_records),
            sample(
                "wal_commits_per_fsync",
                ratio(wal.records_appended, wal.fsyncs),
            ),
        ]);
        if let Some(rec) = self.engine.recovery_report() {
            v.extend([
                sample("recovered_snapshot_tables", rec.snapshot_tables as u64),
                sample("recovered_snapshot_rows", rec.snapshot_rows),
                sample("recovered_wal_records", rec.wal_records_applied),
                sample("recovered_wal_torn_bytes", rec.wal_torn_bytes),
            ]);
        }
        let shard = self.shard_id.to_string();
        v.into_iter()
            .map(|m| m.label("shard", shard.clone()))
            .collect()
    }

    fn dispatch(&mut self, command: Command, parsed: Parsed, text: Option<Arc<str>>) -> Reply {
        let mut parsed = parsed.into_iter();
        match command {
            Command::Query(sql) => self.run_sql(&sql, parsed.next().flatten(), &[]),
            Command::Execute { args, .. } => {
                let Some(sql) = text else {
                    return Err((codes::INTERNAL, "EXECUTE arrived without its text".into()));
                };
                let values = match &args {
                    Some(args) => sqlengine::parse_param_values(args)
                        .map_err(|e| (codes::PARSE, e.to_string()))?,
                    None => Vec::new(),
                };
                self.metrics
                    .params_bound
                    .fetch_add(values.len() as u64, Ordering::Relaxed);
                self.run_sql(&sql, None, &values)
            }
            Command::Batch(stmts) => {
                // One frame, many statements: every statement in the batch
                // runs inside the *same* drained batch on this executor
                // thread, so under `fsync=always` the whole frame shares one
                // group-commit window. A failing statement stops the batch;
                // earlier statements stand (they are individually
                // acknowledged in the body) and the error names the
                // 1-based offending statement.
                let metrics = Arc::clone(&self.metrics);
                crate::shard::run_batch(stmts.iter(), &metrics.batch_statements, |sql| {
                    self.run_sql(sql, parsed.next().flatten(), &[])
                })
            }
            // The session keeps the name; the shard only validates and
            // plans the text, so its errors come back at PREPARE time.
            Command::Prepare { name, sql } => {
                self.engine
                    .prepare(&sql)
                    .map_err(|e| (codes::EXEC, e.to_string()))?;
                Ok(format!("prepared {name}"))
            }
            Command::Explain { sql, analyze } => {
                let out = if analyze {
                    self.engine.explain_analyze(&sql)
                } else {
                    self.engine.explain(&sql)
                };
                out.map_err(|e| self.classify(e))
            }
            // The router answers TRACE and STATS itself, from every shard's
            // ring and samples, and the session answers DEALLOCATE; none is
            // ever queued.
            Command::Trace(_) | Command::Stats | Command::Deallocate(_) => Err((
                codes::INTERNAL,
                "TRACE, STATS and DEALLOCATE are answered before a shard".into(),
            )),
            Command::Inspect {
                columns,
                threshold,
                source,
            } => {
                // `@name` selects one of the stock benchmark pipelines
                // instead of shipping the source over the wire.
                let source = match source.strip_prefix('@') {
                    Some(name) => {
                        let name = name.trim();
                        let stock = mlinspect::pipelines::all();
                        match stock.iter().find(|(n, _)| *n == name) {
                            Some((_, src)) => (*src).to_string(),
                            None => {
                                let known: Vec<&str> = stock.iter().map(|(n, _)| *n).collect();
                                return Err((
                                    codes::INSPECT,
                                    format!(
                                        "inspect unknown-pipeline: '{name}' (known: {})",
                                        known.join(", ")
                                    ),
                                ));
                            }
                        }
                    }
                    None => source,
                };
                let cols: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
                // Every operator is stored once as a materialized view and
                // every inspection query scans that stored result; the run
                // drops its views and base tables before it returns, pass
                // or fail. Running unlogged keeps the scratch tables out of
                // the WAL and lets INSPECT keep serving when durable
                // storage has degraded the engine to read-only.
                let was_unlogged = self.engine.unlogged();
                self.engine.set_unlogged(true);
                let report = mlinspect::inspect_registered(
                    &source,
                    &self.files,
                    &cols,
                    threshold,
                    &mut self.engine,
                    SqlMode::View,
                    true,
                );
                self.engine.set_unlogged(was_unlogged);
                let report = report.map_err(|e| (codes::INSPECT, format!("inspect {e}")))?;
                self.inspect_stages = std::iter::once(("capture".to_string(), report.capture_us))
                    .chain(
                        report
                            .lines
                            .iter()
                            .map(|l| (format!("{}:{}", l.line, l.label), l.time_us)),
                    )
                    .chain([("scratch-drop".to_string(), report.scratch_drop_us)])
                    .collect();
                Ok(report.render())
            }
            Command::Checkpoint => match self.engine.checkpoint() {
                Ok(Some(stats)) => Ok(format!(
                    "checkpoint tables={} rows={} snapshot_bytes={} wal_truncated={}",
                    stats.tables, stats.rows, stats.snapshot_bytes, stats.wal_bytes_truncated
                )),
                Ok(None) => Err((
                    codes::EXEC,
                    "checkpoint requires durable storage (start the server with --data-dir)".into(),
                )),
                Err(e) => Err(self.classify(e)),
            },
            Command::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok("draining".into())
            }
        }
    }

    /// Run one SQL text (a `QUERY`, an `EXECUTE`'s prepared text with its
    /// arguments, or one `BATCH` statement) and render its reply body.
    fn run_sql(&mut self, sql: &str, parsed: Option<Vec<Statement>>, params: &[Value]) -> Reply {
        let out = self
            .engine
            .execute_with(sql, parsed, params)
            .map_err(|e| self.classify(e))?;
        Ok(self.render(out.result, out.rows_affected))
    }

    /// One statement's reply body: a result encoded to CSV straight from
    /// its column chunks, timed as the engine's `encode` phase, or
    /// `ok <rows affected>` for a statement without one.
    fn render(&mut self, result: Option<ResultSet>, rows_affected: usize) -> String {
        let Some(result) = result else {
            return format!("ok {rows_affected}");
        };
        let timer = self.engine.trace().timer();
        let body = etypes::write_chunks(&result.columns, &result.chunks);
        self.engine.record_phase(Phase::Encode, timer);
        body
    }

    /// Gather leg of a cross-shard read: install the foreign images, run
    /// the command against the combined catalog, then remove the images —
    /// always, even on error, so they never outlive the query. Returns the
    /// reply and the install time (µs) for the `sg-install` span.
    fn gather(
        &mut self,
        command: Command,
        parsed: Parsed,
        text: Option<Arc<str>>,
        images: Vec<TableImage>,
    ) -> (Reply, u64) {
        let install_started = Instant::now();
        let mut installed: Vec<String> = Vec::with_capacity(images.len());
        let mut result: Reply = Ok(String::new());
        for image in images {
            let name = image.name.clone();
            match self.engine.install_foreign_table(image) {
                Ok(()) => installed.push(name),
                Err(e) => {
                    result = Err((
                        codes::INTERNAL,
                        format!("scatter-gather install of '{name}' failed: {e}"),
                    ));
                    break;
                }
            }
        }
        let install_us = install_started.elapsed().as_micros() as u64;
        if result.is_ok() {
            result = self.dispatch(command, parsed, text);
        }
        for name in &installed {
            self.engine.remove_foreign_table(name);
        }
        (result, install_us)
    }

    /// Participant side of one cross-shard transaction: prepare this
    /// shard's slice (durable `PREPARE` frame), ack the coordinator, then
    /// block for its verdict and apply commit/abort. Runs strictly outside
    /// the batch commit group, and blocks the executor thread while the
    /// engine is prepared-but-undecided — so single-shard traffic can never
    /// observe half of a transaction. Verb counting happens at the router
    /// (one client command, N participant jobs).
    fn handle_txn(&mut self, job: Job) {
        let Job::Txn {
            txn_id,
            sql,
            prepared,
            decision,
            done,
            ctx,
            enqueued,
        } = job
        else {
            return;
        };
        let mut trace = self.start_job(ctx, SpanKind::TxnPrepare, enqueued);
        let started = Instant::now();
        let result = self
            .engine
            .prepare_txn(txn_id, &sql)
            .map(|out| self.render(out.result, out.rows_affected))
            .map_err(|e| self.classify(e));
        self.finish_job(&mut trace);
        let ok = result.is_ok();
        let us = started.elapsed().as_micros() as u64;
        self.record_exec(&trace, "PREPARE", &format!("txn={txn_id} {sql}"), us, ok);
        if prepared.send(result).is_err() {
            // The coordinator died before taking the ack. No commit
            // decision can have been logged for this transaction, so the
            // presumed-abort unwind is safe.
            if ok {
                let _ = self.engine.abort_prepared(txn_id);
            }
            return;
        }
        if !ok {
            // Prepare failed; the engine already unwound and nothing is
            // staged on disk. The coordinator will decide abort.
            return;
        }
        // Block for the verdict. A dropped sender means the coordinator
        // died before deciding (it sends on the same call stack that logs
        // the decision), so presumed abort applies.
        let verdict = decision.recv().unwrap_or(false);
        let apply_started = Instant::now();
        let outcome = if verdict {
            self.engine.commit_prepared(txn_id)
        } else {
            self.engine.abort_prepared(txn_id)
        }
        .map_err(|e| self.classify(e));
        self.ring.record(SpanRecord::child(
            trace.ctx,
            SpanKind::TxnCommit,
            self.shard_id,
            if verdict { "COMMIT" } else { "ABORT" },
            &format!("txn={txn_id}"),
            apply_started.elapsed().as_micros() as u64,
            outcome.is_ok(),
        ));
        let _ = done.send(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one command on the executor and wait for its reply; an
    /// `EXECUTE` carries `text`, as its session would resolve it.
    fn run(tx: &SyncSender<Job>, metrics: &Metrics, cmd: Command, text: Option<&str>) -> Reply {
        let (rtx, rrx) = mpsc::channel();
        metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        tx.send(Job::Command {
            command: cmd,
            parsed: Vec::new(),
            text: text.map(Arc::from),
            images: None,
            reply: rtx,
            // No root span: the children record as top-level spans.
            ctx: TraceContext {
                query_id: 0,
                parent_span: 0,
            },
            enqueued: Instant::now(),
            counted: true,
        })
        .expect("executor alive");
        rrx.recv().expect("reply")
    }

    fn send(tx: &SyncSender<Job>, metrics: &Metrics, cmd: Command) -> Reply {
        run(tx, metrics, cmd, None)
    }

    /// This shard's engine samples, rendered as `STATS` lines.
    fn engine_stats(tx: &SyncSender<Job>) -> String {
        let (rtx, rrx) = mpsc::channel();
        tx.send(Job::MetricsSnapshot { reply: rtx })
            .expect("executor alive");
        crate::metrics::render_stats_text(&rrx.recv().expect("samples"))
    }

    fn spawn_volatile(
        metrics: &Arc<Metrics>,
        shutdown: &Arc<AtomicBool>,
    ) -> (SyncSender<Job>, JoinHandle<()>) {
        let (tx, join, wal, recovered) = spawn(
            ExecutorConfig {
                files: Vec::new(),
                queue_capacity: 4,
                data_dir: None,
                fsync: FsyncPolicy::Always,
                statement_timeout_ms: None,
                shard_id: 0,
                lane: Arc::new(ShardStats::default()),
                ring: Arc::new(SharedSpanRing::new(64)),
                txn_decisions: HashMap::new(),
            },
            Arc::clone(metrics),
            Arc::clone(shutdown),
        )
        .expect("volatile executor spawns");
        assert!(wal.is_none(), "volatile engines have no WAL handle");
        assert!(recovered.is_empty(), "volatile engines recover nothing");
        (tx, join)
    }

    #[test]
    fn executor_round_trip_and_prepare() {
        let metrics = Arc::new(Metrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, join) = spawn_volatile(&metrics, &shutdown);
        let r = send(
            &tx,
            &metrics,
            Command::Query("CREATE TABLE t (a int)".into()),
        );
        assert_eq!(r.unwrap(), "ok 0");
        let r = send(
            &tx,
            &metrics,
            Command::Query("INSERT INTO t VALUES (1), (2)".into()),
        );
        assert_eq!(r.unwrap(), "ok 2");
        // PREPARE validates and plans the text; the name stays with the
        // session, which sends the text along with each EXECUTE.
        let sql = "SELECT a FROM t WHERE a >= $1 ORDER BY a";
        let prepare = |sql: &str| Command::Prepare {
            name: "q".into(),
            sql: sql.into(),
        };
        assert_eq!(send(&tx, &metrics, prepare(sql)).unwrap(), "prepared q");
        let (code, msg) = send(&tx, &metrics, prepare("SELECT a FROM nowhere")).unwrap_err();
        assert_eq!(code, codes::EXEC);
        assert_eq!(msg, "bind error: unknown relation 'nowhere'");
        let execute = |args: &str| Command::Execute {
            name: "q".into(),
            args: Some(args.into()),
        };
        let r = run(&tx, &metrics, execute("1"), Some(sql));
        assert_eq!(r.unwrap(), "a\n1\n2\n");
        let r = run(&tx, &metrics, execute("2"), Some(sql));
        assert_eq!(r.unwrap(), "a\n2\n");
        assert_eq!(metrics.params_bound.load(Ordering::Relaxed), 2);
        let (code, _) = run(&tx, &metrics, execute("1,"), Some(sql)).unwrap_err();
        assert_eq!(code, codes::PARSE);
        let (code, msg) = run(&tx, &metrics, execute("1, 2"), Some(sql)).unwrap_err();
        assert_eq!(code, codes::EXEC);
        assert_eq!(msg, "bind error: statement needs 1 parameter, got 2");
        // Shutdown flips the flag but the executor keeps draining.
        let r = send(&tx, &metrics, Command::Shutdown);
        assert_eq!(r.unwrap(), "draining");
        assert!(shutdown.load(Ordering::SeqCst));
        let r = send(&tx, &metrics, Command::Query("SELECT a FROM t".into()));
        assert_eq!(r.unwrap(), "a\n1\n2\n");
        drop(tx);
        join.join().unwrap();
    }

    #[test]
    fn checkpoint_on_volatile_engine_is_a_clean_error() {
        let metrics = Arc::new(Metrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, join) = spawn_volatile(&metrics, &shutdown);
        let r = send(&tx, &metrics, Command::Checkpoint);
        let (code, msg) = r.unwrap_err();
        assert_eq!(code, codes::EXEC);
        assert!(msg.contains("--data-dir"), "{msg}");
        // A volatile engine still reports the storage flag.
        let body = engine_stats(&tx);
        assert!(body.contains("storage_durable 0"), "{body}");
        assert!(!body.contains("wal_records_appended"), "{body}");
        drop(tx);
        join.join().unwrap();
    }

    #[test]
    fn inspect_unknown_stock_pipeline_is_structured() {
        let metrics = Arc::new(Metrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, join) = spawn_volatile(&metrics, &shutdown);
        let r = send(
            &tx,
            &metrics,
            Command::Inspect {
                columns: vec!["age".into()],
                threshold: 0.3,
                source: "@no_such_pipeline".into(),
            },
        );
        let (code, msg) = r.unwrap_err();
        assert_eq!(code, codes::INSPECT);
        assert!(
            msg.starts_with("inspect unknown-pipeline: 'no_such_pipeline'"),
            "{msg}"
        );
        assert!(msg.contains("healthcare"), "{msg}");
        drop(tx);
        join.join().unwrap();
    }

    #[test]
    fn traced_command_records_child_spans_into_shared_ring() {
        let metrics = Arc::new(Metrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let ring = Arc::new(SharedSpanRing::new(64));
        let (tx, join, _, _) = spawn(
            ExecutorConfig {
                files: Vec::new(),
                queue_capacity: 4,
                data_dir: None,
                fsync: FsyncPolicy::Always,
                statement_timeout_ms: None,
                shard_id: 3,
                lane: Arc::new(ShardStats::default()),
                ring: Arc::clone(&ring),
                txn_decisions: HashMap::new(),
            },
            Arc::clone(&metrics),
            Arc::clone(&shutdown),
        )
        .unwrap();
        let root = SpanRecord::root(42, 3, "QUERY", "CREATE TABLE t (a int)");
        let ctx = TraceContext {
            query_id: 42,
            parent_span: root.id,
        };
        ring.begin_root(root);
        let (rtx, rrx) = mpsc::channel();
        metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        tx.send(Job::Command {
            command: Command::Query("CREATE TABLE t (a int)".into()),
            parsed: Vec::new(),
            text: None,
            images: None,
            reply: rtx,
            ctx,
            enqueued: Instant::now(),
            counted: true,
        })
        .unwrap();
        rrx.recv().unwrap().unwrap();
        let spans = ring.spans_for_query(42);
        let kinds: Vec<SpanKind> = spans.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&SpanKind::QueueWait), "{kinds:?}");
        assert!(kinds.contains(&SpanKind::ShardExec), "{kinds:?}");
        assert!(kinds.contains(&SpanKind::EnginePhase), "{kinds:?}");
        let exec = spans
            .iter()
            .find(|s| s.kind == SpanKind::ShardExec)
            .expect("exec span");
        assert_eq!(exec.parent, ctx.parent_span);
        assert_eq!(exec.shard, 3);
        // Engine phases parent under the exec span, not the root.
        let phase = spans
            .iter()
            .find(|s| s.kind == SpanKind::EnginePhase)
            .expect("phase span");
        assert_eq!(phase.parent, exec.id);
        drop(tx);
        join.join().unwrap();
    }

    #[test]
    fn durable_executor_checkpoints_and_recovers() {
        let dir = std::env::temp_dir().join(format!(
            "elephant-server-exec-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let durable_cfg = || ExecutorConfig {
            files: Vec::new(),
            queue_capacity: 4,
            data_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Always,
            statement_timeout_ms: None,
            shard_id: 0,
            lane: Arc::new(ShardStats::default()),
            ring: Arc::new(SharedSpanRing::new(64)),
            txn_decisions: HashMap::new(),
        };
        let metrics = Arc::new(Metrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, join, wal, _) =
            spawn(durable_cfg(), Arc::clone(&metrics), Arc::clone(&shutdown)).unwrap();
        assert!(wal.is_some(), "durable engines expose their WAL handle");
        send(
            &tx,
            &metrics,
            Command::Query("CREATE TABLE t (a int)".into()),
        )
        .unwrap();
        send(
            &tx,
            &metrics,
            Command::Query("INSERT INTO t VALUES (1), (2)".into()),
        )
        .unwrap();
        let r = send(&tx, &metrics, Command::Checkpoint).unwrap();
        assert!(r.starts_with("checkpoint tables=1 rows=2"), "{r}");
        send(
            &tx,
            &metrics,
            Command::Query("INSERT INTO t VALUES (3)".into()),
        )
        .unwrap();
        drop(tx);
        join.join().unwrap();

        // Second incarnation over the same directory sees all three rows
        // and reports the recovered table over the handshake.
        let metrics = Arc::new(Metrics::default());
        let (tx, join, _, recovered) =
            spawn(durable_cfg(), Arc::clone(&metrics), Arc::clone(&shutdown)).unwrap();
        assert_eq!(recovered, vec!["t".to_string()]);
        let r = send(
            &tx,
            &metrics,
            Command::Query("SELECT a FROM t ORDER BY a".into()),
        );
        assert_eq!(r.unwrap(), "a\n1\n2\n3\n");
        let body = engine_stats(&tx);
        assert!(body.contains("storage_durable 1"), "{body}");
        assert!(body.contains("recovered_snapshot_tables 1"), "{body}");
        assert!(body.contains("recovered_wal_records 1"), "{body}");
        drop(tx);
        join.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
