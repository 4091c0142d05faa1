//! The engine façade: parse → bind → optimize → execute.

use crate::ast::Statement;
use crate::binder::bind_select;
use crate::cache::{collect_table_deps, CachedPlan, PlanCache, PlanCacheStats, ViewTarget};
use crate::catalog::{Catalog, ViewBody, ViewDef};
use crate::colexec;
use crate::durable::{image_to_table, table_to_image};
use crate::error::{Result, SqlError};
use crate::exec::{ExecContext, ExecStats};
use crate::optimizer::optimize;
use crate::plan::{PlanRoot, Schema};
use crate::profile::EngineProfile;
use crate::storage::{Heap, Relation, ResultSet, StoredView, Table};
use crate::trace::{EngineTrace, Phase, QueryProfile};
use elephant_store::{
    CheckpointStats, FsyncPolicy, RecoveryReport, Store, StoreConfig, StoreStats, TableImage,
    TableView, WalHandle, WalRecord,
};
use etypes::{Column, ColumnChunk, CsvOptions, DataType, Value};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Accumulated engine counters (sums over all executed queries).
pub type EngineStats = ExecStats;

/// The engine's durability health.
///
/// A durable engine starts `Healthy`. The first WAL append or fsync failure
/// rolls the in-memory mutation back and degrades the engine to
/// `ReadOnly`: reads and inspection keep serving, writes fail fast with
/// [`SqlError::ReadOnly`] instead of silently diverging memory from disk. A
/// successful [`Engine::checkpoint`] re-arms to `Healthy` — the checkpoint
/// rewrites the snapshot from (consistent) memory and truncates the WAL,
/// discarding any torn tail the failure left behind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Health {
    /// Writes are accepted and logged.
    Healthy,
    /// Writes are refused; carries the cause of the degradation.
    ReadOnly {
        /// Human-readable description of the failure that degraded us.
        reason: String,
    },
}

impl Health {
    /// One-line render for `STATS` / diagnostics.
    pub fn render(&self) -> String {
        match self {
            Health::Healthy => "healthy".to_string(),
            Health::ReadOnly { reason } => format!("read_only ({reason})"),
        }
    }
}

/// The result of executing one statement.
#[derive(Debug, Clone, Default)]
pub struct ExecOutcome {
    /// The result of a SELECT or EXPLAIN, as column chunks; `None` for
    /// DDL/DML.
    pub result: Option<ResultSet>,
    /// Rows inserted/copied for DML.
    pub rows_affected: usize,
}

/// An embedded SQL engine instance.
///
/// ```
/// use sqlengine::{Engine, EngineProfile};
/// let mut e = Engine::new(EngineProfile::in_memory());
/// e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);").unwrap();
/// let out = e.execute("SELECT count(*) AS n FROM t").unwrap();
/// assert_eq!(out.result.unwrap().len(), 1);
/// assert_eq!(e.query("SELECT count(*) AS n FROM t").unwrap().rows[0][0], etypes::Value::Int(2));
/// ```
pub struct Engine {
    catalog: Catalog,
    profile: EngineProfile,
    stats: EngineStats,
    plan_cache: PlanCache,
    /// The WAL + snapshot store of a durable engine and what recovery found
    /// when it was opened; `None` on a volatile engine.
    store: Option<(Store, RecoveryReport)>,
    trace: EngineTrace,
    health: Health,
    /// When set, mutations bypass the WAL *and* the read-only gate: the
    /// inspection path recreates its tables on every run, so logging them
    /// would only bloat the WAL — and refusing them would take inspection
    /// down with the first durability failure.
    unlogged: bool,
    statement_timeout: Option<Duration>,
    /// Between [`Engine::begin_commit_group`] and
    /// [`Engine::end_commit_group`]: where the window's entries start on
    /// the undo log.
    group_mark: Option<usize>,
    /// How to undo each applied mutation a later failure may still unwind,
    /// in apply order (see [`Engine::log_mutation`]).
    undo: Vec<Undo>,
    /// Bumped whenever entries of a group window are retired without
    /// unwinding (group fsync succeeded, or a checkpoint made them
    /// snapshot-durable). Callers holding per-statement marks compare
    /// epochs to know whether "this statement deferred its commit" is
    /// still true.
    group_epoch: u64,
    /// While `Some`, [`Engine::log_durable`] diverts records here instead of
    /// the store: the 2PC prepare path runs statements normally, captures
    /// their WAL records, and stages the batch as one `PREPARE` frame.
    txn_capture: Option<Vec<WalRecord>>,
    /// A prepared-but-undecided cross-shard transaction: its in-memory
    /// effects are visible, its WAL records sit in a fsynced `PREPARE`
    /// frame, and its entries on the undo log unwind it on abort.
    prepared_txn: Option<PreparedTxn>,
}

/// See [`Engine::prepare_txn`].
struct PreparedTxn {
    txn_id: u64,
    /// Where the transaction's entries start on the undo log.
    mark: usize,
}

/// How to undo one applied mutation.
enum Undo {
    /// `CREATE TABLE` — undo by dropping the table.
    Create(String),
    /// `DROP TABLE` — undo by recreating the dropped table, rows and
    /// serials included.
    Drop(Table),
    /// `INSERT`/`COPY` — undo by cutting the table back to where it was.
    Append(AppendMark),
}

/// A table's extent before an `INSERT` or `COPY`: what its undo restores.
struct AppendMark {
    /// Target table.
    table: String,
    /// Row count before the statement.
    rows: usize,
    /// Sealed-chunk count before the statement: a bulk load seals a
    /// non-empty tail first, and the undo unseals it again.
    chunks: usize,
    /// Serial counters before the statement.
    serials: Vec<(usize, i64)>,
}

impl AppendMark {
    /// Taken before an append to `table`.
    fn of(table: &Table) -> AppendMark {
        AppendMark {
            table: table.name.clone(),
            rows: table.heap.len(),
            chunks: table.heap.sealed().len(),
            serials: table.serial_next.clone(),
        }
    }
}

impl Engine {
    /// Create a volatile engine with the given execution profile.
    pub fn new(profile: EngineProfile) -> Engine {
        Engine::with_store(profile, None)
    }

    /// Create a durable engine backed by a WAL + snapshot store in `dir`,
    /// recovering whatever a previous life left there: DDL and DML are
    /// logged before they are acknowledged, and [`Engine::checkpoint`]
    /// compacts the log into a columnar snapshot. (Views are not persisted;
    /// recreate them after a restart.)
    pub fn open_durable(
        profile: EngineProfile,
        dir: impl AsRef<Path>,
        fsync: FsyncPolicy,
    ) -> Result<Engine> {
        Engine::open_durable_with_decisions(profile, dir, fsync, HashMap::new())
    }

    /// [`Engine::open_durable`] with the coordinator's 2PC verdict map:
    /// recovery resolves in-doubt prepared groups against it (commit
    /// decision → apply, otherwise presumed abort).
    pub fn open_durable_with_decisions(
        profile: EngineProfile,
        dir: impl AsRef<Path>,
        fsync: FsyncPolicy,
        txn_decisions: HashMap<u64, bool>,
    ) -> Result<Engine> {
        let config = StoreConfig::new(dir.as_ref())
            .with_fsync(fsync)
            .with_txn_decisions(txn_decisions);
        let (store, images, recovery) = Store::open(config)?;
        let mut engine = Engine::with_store(profile, Some((store, recovery)));
        for image in images {
            engine.catalog.create_table(image_to_table(image))?;
        }
        Ok(engine)
    }

    fn with_store(profile: EngineProfile, store: Option<(Store, RecoveryReport)>) -> Engine {
        Engine {
            catalog: Catalog::new(),
            profile,
            stats: EngineStats::default(),
            plan_cache: PlanCache::default(),
            store,
            trace: EngineTrace::default(),
            health: Health::Healthy,
            unlogged: false,
            statement_timeout: None,
            group_mark: None,
            undo: Vec::new(),
            group_epoch: 0,
            txn_capture: None,
            prepared_txn: None,
        }
    }

    /// Open a group-commit window: until [`Engine::end_commit_group`],
    /// logged mutations on an `always`-fsync durable engine defer their
    /// fsync *and* their durability acknowledgment to the window's single
    /// closing fsync, and keep their undo entries so the whole window can
    /// be unwound if that fsync fails. A no-op on volatile engines and lax
    /// fsync policies (their appends never fsync per record, so there is
    /// nothing to defer).
    pub fn begin_commit_group(&mut self) {
        self.group_mark = Some(self.undo.len());
        if let Some((store, _)) = &mut self.store {
            store.begin_group();
        }
    }

    /// Close the group-commit window with one fsync; returns how many
    /// deferred WAL records it acknowledged. On failure every deferred
    /// record was already cut out of the log, so the matching in-memory
    /// effects are unwound here (in reverse apply order) and the engine
    /// degrades to [`Health::ReadOnly`] — the same contract as a failed
    /// per-statement append.
    pub fn end_commit_group(&mut self) -> Result<u64> {
        let mark = self.group_mark.take().unwrap_or(self.undo.len());
        let closed = self.write_store(Store::end_group);
        if closed.is_err() || self.undo.len() > mark {
            self.group_epoch += 1;
        }
        match closed {
            Ok(_) => self.undo.truncate(mark),
            Err(_) => self.unwind_to(mark),
        }
        closed
    }

    /// Unwind the undo log back to `mark`, newest entry first: the one
    /// rollback path for a failed WAL append, a failed group fsync, a
    /// failed 2PC prepare and a 2PC abort.
    fn unwind_to(&mut self, mark: usize) {
        while self.undo.len() > mark {
            match self.undo.pop().expect("the log is longer than the mark") {
                Undo::Create(name) => {
                    let _ = self.catalog.drop(&name, false, true);
                }
                Undo::Drop(table) => {
                    let _ = self.catalog.create_table(table);
                }
                Undo::Append(AppendMark {
                    table,
                    rows,
                    chunks,
                    serials,
                }) => {
                    if let Some(t) = self.catalog.table_mut(&table) {
                        t.heap.truncate(rows, chunks);
                        t.serial_next = serials;
                    }
                }
            }
        }
    }

    /// Statements whose durability is deferred in the open group window.
    pub fn group_pending(&self) -> usize {
        self.undo.len()
    }

    /// See [`Engine::end_commit_group`]: marks taken under an older epoch
    /// refer to entries that were already retired (committed or
    /// snapshot-covered), not to anything a group failure would unwind.
    pub fn group_epoch(&self) -> u64 {
        self.group_epoch
    }

    /// Phase one of two-phase commit, participant side: execute this
    /// shard's slice of a cross-shard transaction and durably **prepare**
    /// it. The statements run through the normal per-statement validation
    /// and undo log, but their WAL records are captured and staged as a
    /// single `PREPARE{txn_id, records}` frame, fsynced before this
    /// returns — once it returns Ok, the coordinator may decide commit.
    /// The in-memory effects stay visible; [`Engine::commit_prepared`]
    /// retires them and [`Engine::abort_prepared`] unwinds them. Returns
    /// the slice's last statement's outcome, as [`Engine::execute`] does
    /// for a script, so a transaction acks like a single-shard script.
    ///
    /// At most one transaction can be prepared at a time: the caller (the
    /// shard executor) blocks for the coordinator's decision, so a second
    /// prepare cannot arrive while one is pending.
    pub fn prepare_txn(&mut self, txn_id: u64, sql: &str) -> Result<ExecOutcome> {
        if self.prepared_txn.is_some() {
            return Err(SqlError::exec(
                "a transaction is already prepared and undecided",
            ));
        }
        if self.group_mark.is_some() {
            return Err(SqlError::exec(
                "2PC prepare inside an open group-commit window",
            ));
        }
        if let Health::ReadOnly { reason } = &self.health {
            return Err(SqlError::ReadOnly(reason.clone()));
        }
        let mark = self.undo.len();
        self.txn_capture = Some(Vec::new());
        let result = self.execute_script(sql);
        let captured = self.txn_capture.take().unwrap_or_default();
        // A statement that failed mid-slice votes abort by reporting its
        // error; a prepare frame that failed to land degrades the engine,
        // the same contract as a failed per-statement append. Either way
        // the slice is unwound.
        let staged = result.and_then(|mut outcomes| {
            if !captured.is_empty() {
                self.write_store(|store| store.log_txn_prepare(txn_id, captured))?;
            }
            Ok(outcomes.pop().unwrap_or_default())
        });
        match staged {
            Ok(_) => self.prepared_txn = Some(PreparedTxn { txn_id, mark }),
            Err(_) => self.unwind_to(mark),
        }
        staged
    }

    /// Phase two, commit: append + fsync the `COMMIT` outcome marker and
    /// retire the prepared transaction's undo entries. On a marker append
    /// failure the in-memory effects are **kept** — the coordinator already
    /// durably decided commit, recovery will apply the group from the
    /// prepare frame plus the decision log — but the engine degrades to
    /// read-only until a checkpoint reconciles disk with memory.
    pub fn commit_prepared(&mut self, txn_id: u64) -> Result<()> {
        let txn = self.take_prepared(txn_id, "commit")?;
        self.undo.truncate(txn.mark);
        self.group_epoch += 1;
        self.write_store(|store| store.log_txn_commit(txn_id))
            .map(drop)
    }

    /// Phase two, abort: unwind the prepared transaction's in-memory
    /// effects (reverse apply order), then append the `ABORT` outcome
    /// marker. The unwind happens regardless of the marker append's fate:
    /// presumed-abort guarantees recovery discards the group either way, so
    /// memory must match that outcome now.
    pub fn abort_prepared(&mut self, txn_id: u64) -> Result<()> {
        let txn = self.take_prepared(txn_id, "abort")?;
        self.unwind_to(txn.mark);
        self.group_epoch += 1;
        self.write_store(|store| store.log_txn_abort(txn_id))
            .map(drop)
    }

    /// Take the prepared transaction `txn_id` off the engine to `verb` it;
    /// any other (or none) is refused and left in place.
    fn take_prepared(&mut self, txn_id: u64, verb: &str) -> Result<PreparedTxn> {
        match self.prepared_txn.take() {
            Some(txn) if txn.txn_id == txn_id => Ok(txn),
            Some(txn) => {
                let have = txn.txn_id;
                self.prepared_txn = Some(txn);
                Err(SqlError::exec(format!(
                    "{verb} for txn {txn_id} but txn {have} is prepared"
                )))
            }
            None => Err(SqlError::exec(format!("no prepared transaction to {verb}"))),
        }
    }

    /// The id of the currently prepared-but-undecided transaction, if any.
    pub fn prepared_txn_id(&self) -> Option<u64> {
        self.prepared_txn.as_ref().map(|t| t.txn_id)
    }

    /// One write to the store, if this engine has one (a volatile engine
    /// writes nothing). A failed write degrades the engine to
    /// [`Health::ReadOnly`].
    fn write_store<T: Default>(
        &mut self,
        write: impl FnOnce(&mut Store) -> elephant_store::Result<T>,
    ) -> Result<T> {
        let Some((store, _)) = &mut self.store else {
            return Ok(T::default());
        };
        write(store).map_err(|e| {
            let e = SqlError::from(e);
            self.health = Health::ReadOnly {
                reason: e.to_string(),
            };
            e
        })
    }

    /// The engine's durability health. Volatile engines are always
    /// [`Health::Healthy`] (there is no disk to diverge from).
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// The durable store's committed-LSN watermark (read by the shard
    /// router's 2PC cut vectors); `None` on volatile engines.
    pub fn wal_handle(&self) -> Option<WalHandle> {
        self.store.as_ref().map(|(store, _)| store.wal_handle())
    }

    /// Bypass the WAL and the read-only gate for subsequent mutations
    /// (the inspection path: its tables are recreated on every run, so
    /// they are deliberately not durable). Restore with `false`.
    pub fn set_unlogged(&mut self, unlogged: bool) {
        self.unlogged = unlogged;
    }

    /// Whether mutations currently bypass the WAL.
    pub fn unlogged(&self) -> bool {
        self.unlogged
    }

    /// Enforce a per-statement wall-clock budget: statements whose
    /// execution exceeds it are cancelled cooperatively and fail with
    /// [`SqlError::Timeout`]. `None` disables the budget.
    pub fn set_statement_timeout(&mut self, timeout: Option<Duration>) {
        self.statement_timeout = timeout;
    }

    /// Per-phase latency histograms (lex/parse/bind/optimize/execute,
    /// WAL-append/fsync when durable, and the server's result encoding).
    /// Tracing is on by default.
    pub fn trace(&self) -> &EngineTrace {
        &self.trace
    }

    /// Record a phase timed outside the engine (the server's result
    /// encoding) from a timer started with `trace().timer()`, into the same
    /// histograms and per-statement capture as the engine's own phases.
    pub fn record_phase(&mut self, phase: Phase, timer: Option<Instant>) {
        self.trace.record(phase, timer);
    }

    /// Turn phase-span recording on or off (the overhead bench's baseline).
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Reset the per-phase histograms (between benchmark rounds).
    pub fn reset_trace(&mut self) {
        self.trace.reset();
    }

    /// Install (or clear) the distributed-trace correlation context for the
    /// next command; while set, each phase sample is also captured per
    /// statement for the server's span tree.
    pub fn set_trace_context(&mut self, ctx: Option<etypes::TraceContext>) {
        self.trace.set_context(ctx);
    }

    /// Drain the `(phase, µs)` samples captured since the trace context was
    /// installed, with the number of samples dropped past the per-command
    /// cap.
    pub fn take_phase_spans(&mut self) -> (Vec<(crate::trace::Phase, u64)>, u64) {
        self.trace.take_statement_spans()
    }

    /// The active profile.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Direct catalog access (tests, tooling).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// True when this engine logs mutations to durable storage.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// What recovery found when a durable engine was opened; `None` on
    /// volatile engines.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.store.as_ref().map(|(_, recovery)| recovery)
    }

    /// Live storage counters (WAL appends, fsyncs, checkpoints); `None` on
    /// volatile engines.
    pub fn storage_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|(store, _)| store.stats())
    }

    /// Snapshot every base table and truncate the WAL. Returns `None` on a
    /// volatile engine (nothing to checkpoint).
    ///
    /// A successful checkpoint re-arms a [`Health::ReadOnly`] engine: the
    /// snapshot was written from memory (which rollback kept consistent)
    /// and the WAL — torn tail and all — was truncated, so the failure
    /// that degraded us has been compacted away. A failed checkpoint
    /// leaves both the health state and the previous snapshot untouched.
    pub fn checkpoint(&mut self) -> Result<Option<CheckpointStats>> {
        if self.txn_capture.is_some() || self.prepared_txn.is_some() {
            // The snapshot would capture (and the WAL truncation would
            // orphan) a transaction whose verdict is not known yet.
            return Err(SqlError::exec(
                "cannot checkpoint while a transaction is prepared but undecided",
            ));
        }
        let Some((store, _)) = &mut self.store else {
            return Ok(None);
        };
        // Borrowed views: the snapshot is encoded straight from each
        // heap's sealed chunks and tail.
        let catalog = &self.catalog;
        let views: Vec<TableView<'_>> = catalog
            .table_names()
            .into_iter()
            .filter_map(|name| catalog.table(name))
            .map(|table| TableView {
                name: &table.name,
                columns: &table.columns,
                types: &table.types,
                serial_next: &table.serial_next,
                chunks: table.heap.sealed(),
                tail: table.heap.tail(),
            })
            .collect();
        let stats = store.checkpoint(&views)?;
        self.health = Health::Healthy;
        if !self.undo.is_empty() {
            // The snapshot covers every deferred mutation (it was written
            // from memory, which includes them) and the WAL layer advanced
            // its watermark over them at truncation — they are durable now,
            // so a later group failure must not unwind them.
            self.undo.clear();
            self.group_epoch += 1;
        }
        Ok(Some(stats))
    }

    /// Export the named base tables as [`TableImage`]s (schema, serial
    /// counters, rows in ctid order) — the scatter phase of a cross-shard
    /// read: the owning shard clones its tables so a coordinator can run
    /// the full query over identical data. Views cannot be exported.
    pub fn export_table_images(&self, names: &[String]) -> Result<Vec<TableImage>> {
        names
            .iter()
            .map(|n| {
                self.catalog
                    .table(n)
                    .map(table_to_image)
                    .ok_or_else(|| SqlError::catalog(format!("unknown table '{n}'")))
            })
            .collect()
    }

    /// Install a shipped table image as a transient catalog table — the
    /// gather phase of a cross-shard read. Bypasses the WAL (the owning
    /// shard already made the data durable); pair with
    /// [`Engine::remove_foreign_table`] once the query has run.
    pub fn install_foreign_table(&mut self, image: TableImage) -> Result<()> {
        self.catalog.create_table(image_to_table(image))
    }

    /// Remove a table installed by [`Engine::install_foreign_table`].
    pub fn remove_foreign_table(&mut self, name: &str) {
        let _ = self.catalog.drop(name, false, true);
    }

    /// Execute one statement text. A text that is exactly one SELECT or one
    /// `CREATE [MATERIALIZED] VIEW` runs through the plan cache
    /// ([`Engine::lookup`]); any other text runs statement by statement and
    /// returns the last outcome.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        self.execute_with(sql, None, &[])
    }

    /// [`Engine::execute`] with its `$n` placeholders bound to `params`
    /// (1-based: `$1` takes `params[0]`), of a text whose statements the
    /// caller may have parsed already with this crate's parser (a shard
    /// router that parsed the text to place it). The text is still the
    /// plan-cache key; on a miss `parsed` stands in for lexing and parsing
    /// it, and `None` parses the text here. Only a cached text (one SELECT
    /// or one view) takes parameters, and its parameter count must match.
    pub fn execute_with(
        &mut self,
        sql: &str,
        parsed: Option<Vec<Statement>>,
        params: &[Value],
    ) -> Result<ExecOutcome> {
        let statements = match self.lookup(sql, parsed)? {
            Lookup::Planned(plan) => return self.run_planned(&plan, params),
            Lookup::Statements(_) if !params.is_empty() => {
                return Err(SqlError::bind(
                    "only a single SELECT statement takes parameters",
                ))
            }
            Lookup::Statements(statements) => statements,
        };
        self.run_statements(statements)?
            .pop()
            .ok_or_else(|| SqlError::exec("empty statement"))
    }

    /// Execute a `;`-separated script, returning one outcome per statement.
    /// Its SELECTs and view bodies are bound afresh, never cached.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<ExecOutcome>> {
        let statements = self.parse_traced(sql)?;
        self.run_statements(statements)
    }

    fn run_statements(&mut self, statements: Vec<Statement>) -> Result<Vec<ExecOutcome>> {
        statements
            .into_iter()
            .map(|stmt| self.execute_statement(stmt))
            .collect()
    }

    /// The plan cache's one lookup, keyed by the exact text: a cached plan
    /// still valid against the catalog comes back without lexing.
    /// Otherwise `sql` is lexed and parsed (unless its statements are
    /// `parsed` already), and when it is exactly one SELECT or one `CREATE
    /// [MATERIALIZED] VIEW` it is planned and cached under its text; any
    /// other text comes back as its parsed statements.
    fn lookup(&mut self, sql: &str, parsed: Option<Vec<Statement>>) -> Result<Lookup> {
        if let Some(plan) = self.plan_cache.get(sql, &self.catalog) {
            return Ok(Lookup::Planned(plan));
        }
        let statements = match parsed {
            Some(statements) => statements,
            None => self.parse_traced(sql)?,
        };
        let plan = match <[Statement; 1]>::try_from(statements) {
            Ok([Statement::Select(query)]) => self.plan_query(&query, None)?,
            Ok(
                [Statement::CreateView {
                    name,
                    query,
                    materialized,
                }],
            ) => self.plan_view(name, query, materialized)?,
            Ok(one) => return Ok(Lookup::Statements(one.into())),
            Err(statements) => return Ok(Lookup::Statements(statements)),
        };
        let plan = Rc::new(plan);
        self.plan_cache.insert(sql, Rc::clone(&plan));
        Ok(Lookup::Planned(plan))
    }

    /// Run a plan [`Engine::lookup`] returned, with `params` bound: a
    /// SELECT's result, or the view a `CREATE [MATERIALIZED] VIEW` creates
    /// from its body. A materialized body runs, and its batches are stored
    /// as they are; a plain view was validated by binding its body.
    fn run_planned(&mut self, plan: &CachedPlan, params: &[Value]) -> Result<ExecOutcome> {
        let Some(view) = &plan.view else {
            return Ok(ExecOutcome {
                result: Some(self.run_bound(&plan.root, &plan.schema, params)?),
                rows_affected: 0,
            });
        };
        let body = match &view.inline {
            Some(query) => ViewBody::Inline(Rc::clone(query)),
            None => {
                let (chunks, _) = self.execute_bound(&plan.root, params, false)?;
                ViewBody::Stored(StoredView {
                    columns: plan.schema.names(),
                    types: plan.schema.types(),
                    heap: Heap::from_chunks(plan.schema.len(), chunks),
                })
            }
        };
        self.catalog.create_view(ViewDef {
            name: view.name.clone(),
            body,
        })?;
        Ok(no_rows(0))
    }

    /// Lex and parse with each phase attributed to its own trace histogram.
    fn parse_traced(&mut self, sql: &str) -> Result<Vec<Statement>> {
        let t = self.trace.timer();
        let (tokens, _) = crate::lexer::tokenize(sql)?;
        self.trace.record(Phase::Lex, t);
        let t = self.trace.timer();
        let statements = crate::parser::parse_tokens(tokens)?;
        self.trace.record(Phase::Parse, t);
        Ok(statements)
    }

    /// [`Engine::parse_traced`] for a single statement.
    fn parse_one_traced(&mut self, sql: &str) -> Result<Statement> {
        let mut stmts = self.parse_traced(sql)?;
        match stmts.len() {
            1 => Ok(stmts.remove(0)),
            n => Err(SqlError::parse(1, format!("expected 1 statement, got {n}"))),
        }
    }

    /// Enter one mutation, already applied in memory, on the undo log and
    /// log its WAL `record` (`None` where this engine logs nothing). A
    /// refused or failed append unwinds the log back to before the entry,
    /// so memory keeps only what replay will rebuild. The entry outlives
    /// the statement only while a group window or a 2PC prepare may still
    /// unwind it. Unlogged mutations (inspection's scratch tables) enter
    /// nothing.
    fn log_mutation(&mut self, undo: Undo, record: Option<WalRecord>) -> Result<()> {
        if self.unlogged || (self.store.is_none() && self.txn_capture.is_none()) {
            return Ok(());
        }
        let mark = self.undo.len();
        self.undo.push(undo);
        if let Some(record) = record {
            if let Err(e) = self.log_durable(record) {
                self.unwind_to(mark);
                return Err(e);
            }
        }
        let pending = self.group_mark.is_some() && self.store.is_some();
        if !pending && self.txn_capture.is_none() {
            self.undo.truncate(mark);
        }
        Ok(())
    }

    /// Append one record, attributing the whole append (fsync included)
    /// to the WAL-append phase and the fsync share to its own phase. In a
    /// 2PC prepare the record is captured for the `PREPARE` frame instead.
    ///
    /// This is also the health gate: a [`Health::ReadOnly`] engine refuses
    /// the record *before* touching the store, and a store failure
    /// degrades the engine to read-only.
    fn log_durable(&mut self, record: WalRecord) -> Result<()> {
        if let Health::ReadOnly { reason } = &self.health {
            return Err(SqlError::ReadOnly(reason.clone()));
        }
        if let Some(captured) = &mut self.txn_capture {
            captured.push(record);
            return Ok(());
        }
        let timed = self
            .trace
            .enabled()
            .then(|| (Instant::now(), self.storage_stats()));
        let result = self.write_store(|store| store.log(&record));
        if let Some((started, Some(before))) = timed {
            self.trace
                .record_duration(Phase::WalAppend, started.elapsed());
            let after = self.storage_stats().unwrap_or(before).wal;
            if after.fsyncs > before.wal.fsyncs {
                self.trace.record_us(
                    Phase::Fsync,
                    after.fsync_us.saturating_sub(before.wal.fsync_us),
                );
            }
        }
        result.map(drop)
    }

    /// Whether a mutation builds a WAL record: only on a durable engine
    /// outside unlogged mode. Callers ask before copying rows into one.
    fn logs_mutations(&self) -> bool {
        !self.unlogged && self.store.is_some()
    }

    /// Execute one parsed statement.
    fn execute_statement(&mut self, stmt: Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let (names, types): (Vec<String>, Vec<DataType>) =
                    columns.into_iter().map(|c| (c.name, c.ty)).unzip();
                let record = self.logs_mutations().then(|| WalRecord::CreateTable {
                    name: name.clone(),
                    columns: names.clone(),
                    types: types.clone(),
                });
                self.catalog
                    .create_table(Table::empty(name.clone(), names, types))?;
                self.log_mutation(Undo::Create(name), record)?;
                Ok(no_rows(0))
            }
            Statement::Drop {
                name,
                is_view,
                if_exists,
            } => {
                if let Some(table) = self.catalog.drop(&name, is_view, if_exists)? {
                    let record = self
                        .logs_mutations()
                        .then(|| WalRecord::DropTable { name: name.clone() });
                    self.log_mutation(Undo::Drop(table), record)?;
                }
                Ok(no_rows(0))
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => self.insert(&table, columns.as_deref(), values),
            Statement::Copy {
                table,
                columns,
                path,
                delimiter,
                null_str,
                header,
            } => {
                // PostgreSQL's CSV rules: a blank line is a record.
                let mut opts = CsvOptions {
                    delimiter,
                    header,
                    na_values: Vec::new(),
                    skip_blank_lines: false,
                };
                if !null_str.is_empty() {
                    opts.na_values.push(null_str);
                }
                let csv = etypes::read_csv(&path, &opts)?;
                self.copy_rows(&table, columns.as_deref(), &csv)
            }
            Statement::CreateView {
                name,
                query,
                materialized,
            } => {
                let plan = self.plan_view(name, query, materialized)?;
                self.run_planned(&plan, &[])
            }
            Statement::Select(query) => Ok(ExecOutcome {
                result: Some(self.run_query(&query)?),
                rows_affected: 0,
            }),
            Statement::Explain { analyze, query } => {
                let text = self.explain_query(&query, analyze)?;
                // The plan text as a one-column result, one row per line.
                let lines: Vec<Value> = text.lines().map(Value::text).collect();
                let plan =
                    ColumnChunk::new(vec![Rc::new(Column::from_values(&lines))], lines.len());
                Ok(ExecOutcome {
                    result: Some(ResultSet::new(
                        vec!["QUERY PLAN".to_string()],
                        vec![DataType::Text],
                        vec![plan],
                    )?),
                    rows_affected: 0,
                })
            }
        }
    }

    /// Bind and optimize a query, each phase traced.
    fn bind_traced(&mut self, query: &crate::ast::Query) -> Result<(PlanRoot, Schema)> {
        let t = self.trace.timer();
        let (mut root, schema) = bind_select(&self.catalog, &self.profile, query)?;
        self.trace.record(Phase::Bind, t);
        if self.profile.enable_optimizer {
            let t = self.trace.timer();
            optimize(&mut root);
            self.trace.record(Phase::Optimize, t);
        }
        Ok((root, schema))
    }

    /// Bind, optimize and execute a query to a [`ResultSet`], uncached.
    fn run_query(&mut self, query: &crate::ast::Query) -> Result<ResultSet> {
        let (root, schema) = self.bind_traced(query)?;
        self.run_bound(&root, &schema, &[])
    }

    /// Run a query with operator profiling on, returning both the result
    /// and its [`QueryProfile`] (the `EXPLAIN ANALYZE` path).
    fn run_query_profiled(
        &mut self,
        query: &crate::ast::Query,
    ) -> Result<(ResultSet, QueryProfile)> {
        let (root, schema) = self.bind_traced(query)?;
        let (chunks, profile) = self.execute_bound(&root, &[], true)?;
        let result = ResultSet::new(schema.names(), schema.types(), chunks)?;
        Ok((result, profile.expect("profiling was enabled")))
    }

    /// Execute an already bound + optimized plan to a result, kept as the
    /// executor's chunks.
    fn run_bound(
        &mut self,
        root: &PlanRoot,
        schema: &Schema,
        params: &[Value],
    ) -> Result<ResultSet> {
        let (chunks, _) = self.execute_bound(root, params, false)?;
        ResultSet::new(schema.names(), schema.types(), chunks)
    }

    /// Execute a bound plan to batches with its `$n` placeholders bound to
    /// `params` (1-based: `$1` takes `params[0]`), folding its counters and
    /// trace phase into the engine's. With `profiled` the run also returns
    /// its per-operator [`QueryProfile`]. The cached plan runs as it is,
    /// reading each `$n` from the context's `params`. Every SELECT passes
    /// here, so this is where a parameter count that does not match the
    /// statement is refused.
    fn execute_bound(
        &mut self,
        root: &PlanRoot,
        params: &[Value],
        profiled: bool,
    ) -> Result<(Vec<ColumnChunk>, Option<QueryProfile>)> {
        if root.params != params.len() {
            return Err(SqlError::bind(format!(
                "statement needs {} parameter{}, got {}",
                root.params,
                if root.params == 1 { "" } else { "s" },
                params.len()
            )));
        }
        let mut ctx = ExecContext::new(&self.catalog, &self.profile, root);
        ctx.set_params(params);
        if profiled {
            ctx.enable_profiling();
        }
        if let Some(timeout) = self.statement_timeout {
            ctx.set_deadline(Instant::now() + timeout, timeout.as_millis() as u64);
        }
        let started = (self.trace.enabled() || profiled).then(Instant::now);
        let output = colexec::execute_root(&ctx)?;
        let elapsed_us = started.map(|t| t.elapsed().as_micros() as u64);
        if let Some(us) = elapsed_us {
            self.trace.record_us(Phase::Execute, us);
        }
        let run_stats = ctx.stats.borrow().clone();
        self.stats.pages_read += run_stats.pages_read;
        self.stats.pages_written += run_stats.pages_written;
        self.stats.ctes_materialized += run_stats.ctes_materialized;
        self.stats.shared_scans += run_stats.shared_scans;
        self.stats.rows_processed += run_stats.rows_processed;
        self.stats.batches_executed += run_stats.batches_executed;
        let profile = ctx.take_profiles().map(|profiles| {
            crate::explain::build_query_profile(
                root,
                &profiles,
                elapsed_us.unwrap_or(0),
                output.iter().map(ColumnChunk::len).sum::<usize>() as u64,
            )
        });
        Ok((output, profile))
    }

    /// Bind + optimize an already parsed SELECT (or the body of `view`)
    /// into a cacheable plan.
    fn plan_query(
        &mut self,
        query: &crate::ast::Query,
        view: Option<ViewTarget>,
    ) -> Result<CachedPlan> {
        let (root, schema) = self.bind_traced(query)?;
        let tables = collect_table_deps(query, &root, &self.catalog);
        Ok(CachedPlan {
            root,
            schema,
            tables,
            view,
        })
    }

    /// Plan the body of `CREATE [MATERIALIZED] VIEW name AS query`, so
    /// errors surface at CREATE time.
    fn plan_view(
        &mut self,
        name: String,
        query: crate::ast::Query,
        materialized: bool,
    ) -> Result<CachedPlan> {
        let query = Rc::new(query);
        let view = ViewTarget {
            name,
            inline: (!materialized).then(|| Rc::clone(&query)),
        };
        self.plan_query(&query, Some(view))
    }

    /// Validate a text as one SELECT and plan it into the plan cache (the
    /// engine side of PostgreSQL `PREPARE name AS SELECT ...`; the name
    /// belongs to the caller). [`Engine::execute_with`] of the same text
    /// then runs the cached plan, or re-plans it if it was evicted.
    pub fn prepare(&mut self, sql: &str) -> Result<()> {
        match self.lookup(sql, None)? {
            Lookup::Planned(plan) if plan.view.is_none() => Ok(()),
            Lookup::Statements(s) if s.len() != 1 => Err(SqlError::parse(
                1,
                format!("expected 1 statement, got {}", s.len()),
            )),
            _ => Err(SqlError::bind(
                "only SELECT statements can be prepared/cached",
            )),
        }
    }

    /// Plan-cache hit/miss counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Stale plans found at lookup, per first changed name (sorted by
    /// name).
    pub fn plan_cache_table_invalidations(&self) -> Vec<(String, u64)> {
        self.plan_cache.table_invalidations()
    }

    /// Render the optimized plan of a SELECT (EXPLAIN).
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        let query = self.parse_select(sql, false)?;
        self.explain_query(&query, false)
    }

    /// Execute a SELECT and render its plan annotated with per-operator
    /// runtime statistics (`EXPLAIN ANALYZE`).
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let query = self.parse_select(sql, true)?;
        self.explain_query(&query, true)
    }

    /// The one EXPLAIN implementation, behind the `EXPLAIN [ANALYZE]`
    /// statement and both methods: render the optimized plan, or run it
    /// with operator profiling and render the annotated plan.
    fn explain_query(&mut self, query: &crate::ast::Query, analyze: bool) -> Result<String> {
        if analyze {
            let (_, profile) = self.run_query_profiled(query)?;
            return Ok(profile.render());
        }
        let (root, _) = self.bind_traced(query)?;
        Ok(crate::explain::render_plan(&root))
    }

    /// Run a single SELECT with operator profiling, returning the result
    /// and its [`QueryProfile`].
    pub fn query_profiled(&mut self, sql: &str) -> Result<(Relation, QueryProfile)> {
        let query = self.parse_select(sql, true)?;
        let (result, profile) = self.run_query_profiled(&query)?;
        Ok((result.into_relation(), profile))
    }

    /// Parse a text that must be exactly one SELECT, for `EXPLAIN
    /// [ANALYZE]` (named in the error).
    fn parse_select(&mut self, sql: &str, analyze: bool) -> Result<crate::ast::Query> {
        match self.parse_one_traced(sql)? {
            Statement::Select(query) => Ok(query),
            _ if analyze => Err(SqlError::bind(
                "EXPLAIN ANALYZE supports SELECT statements only",
            )),
            _ => Err(SqlError::bind("EXPLAIN supports SELECT statements only")),
        }
    }

    /// Parse and run a single SELECT, returning its rows.
    pub fn query(&mut self, sql: &str) -> Result<Relation> {
        let outcome = self.execute(sql)?;
        outcome
            .result
            .map(ResultSet::into_relation)
            .ok_or_else(|| SqlError::exec("statement did not produce rows"))
    }

    /// Run one SELECT on the row-at-a-time reference interpreter
    /// ([`crate::exec`]) instead of the executor: the oracle the
    /// differential tests compare [`Engine::query`] against. No plan cache,
    /// no profiling, no counters; nothing on the serving path calls it.
    #[doc(hidden)]
    pub fn query_reference(&self, sql: &str) -> Result<Relation> {
        let Statement::Select(query) = crate::parser::parse_statement(sql)? else {
            return Err(SqlError::bind(
                "the reference interpreter runs SELECT statements only",
            ));
        };
        let (mut root, schema) = bind_select(&self.catalog, &self.profile, &query)?;
        if self.profile.enable_optimizer {
            optimize(&mut root);
        }
        let ctx = ExecContext::new(&self.catalog, &self.profile, &root);
        let rows = crate::exec::execute_root(&ctx)?;
        Relation::new(schema.names(), schema.types(), rows)
    }

    /// `INSERT INTO table [(columns)] VALUES ...`. A literal cell is stored
    /// as parsed; any other cell is bound and evaluated on its own (see
    /// [`insert_values`]). Every row is checked before the first append, the
    /// rows are logged as stored, and everything up to the WAL append is
    /// timed as the execute phase.
    fn insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        values: Vec<Vec<crate::ast::Expr>>,
    ) -> Result<ExecOutcome> {
        let timer = self.trace.timer();
        let evaluated = insert_values(&self.catalog, &self.profile, values)?;
        let table_ref = self
            .catalog
            .table_mut(table)
            .ok_or_else(|| SqlError::catalog(format!("unknown table '{table}'")))?;
        let width = table_ref.columns.len();
        let targets = columns
            .map(|cols| {
                cols.iter()
                    .map(|c| {
                        table_ref.column_index(c).ok_or_else(|| {
                            SqlError::bind(format!("unknown column '{c}' in INSERT"))
                        })
                    })
                    .collect::<Result<Vec<usize>>>()
            })
            .transpose()?;
        // Every row is checked before the first is appended, so a statement
        // that fails leaves the table as it was.
        let full_rows = evaluated
            .into_iter()
            .map(|row| match &targets {
                None if row.len() != width => Err(SqlError::exec(format!(
                    "INSERT arity {} vs table arity {width}",
                    row.len()
                ))),
                None => Ok(row),
                Some(t) if row.len() > t.len() => Err(SqlError::exec(
                    "INSERT has more expressions than target columns",
                )),
                Some(t) if row.len() < t.len() => Err(SqlError::exec(
                    "INSERT has more target columns than expressions",
                )),
                Some(t) => {
                    let mut full = vec![Value::Null; width];
                    for (&idx, v) in t.iter().zip(row) {
                        full[idx] = v;
                    }
                    Ok(full)
                }
            })
            .collect::<Result<Vec<_>>>()?;
        let mark = AppendMark::of(table_ref);
        let count = full_rows.len();
        for row in full_rows {
            table_ref.append(row)?;
        }
        self.log_append(mark, timer)?;
        self.profile.charge_io(count);
        self.stats.pages_written += self.profile.pages_for(count);
        Ok(no_rows(count))
    }

    /// Log the rows one INSERT or COPY appended to a table since `mark`
    /// was taken, as stored (post serial-fill and coercion) so replay
    /// reproduces the exact in-memory state, ctids included; its undo
    /// restores the mark. `timer`, when the caller runs one, closes the
    /// execute phase once the record is built.
    fn log_append(&mut self, mark: AppendMark, timer: Option<Instant>) -> Result<()> {
        let appended = self
            .catalog
            .table(&mark.table)
            .filter(|t| t.heap.len() > mark.rows);
        let record = appended
            .filter(|_| self.logs_mutations())
            .map(|t| WalRecord::Insert {
                table: mark.table.clone(),
                rows: t.heap.rows_from(mark.rows),
            });
        self.trace.record(Phase::Execute, timer);
        if appended.is_none() {
            return Ok(());
        }
        self.log_mutation(Undo::Append(mark), record)
    }

    /// Bulk-load parsed CSV content into an existing table (the COPY path,
    /// also used directly by benchmarks to skip the filesystem). The parsed
    /// chunks are sealed into the heap as they are, sharing their columns
    /// wherever they already have the declared type (`Table::load`), so
    /// one parsed table can be loaded any number of times.
    pub fn copy_rows(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        csv: &etypes::CsvTable,
    ) -> Result<ExecOutcome> {
        let table_ref = self
            .catalog
            .table_mut(table)
            .ok_or_else(|| SqlError::catalog(format!("unknown table '{table}'")))?;
        let width = table_ref.columns.len();
        let target_indices: Vec<usize> = match columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    table_ref
                        .column_index(c)
                        .ok_or_else(|| SqlError::bind(format!("unknown column '{c}' in COPY")))
                })
                .collect::<Result<Vec<_>>>()?,
            None => (0..width).collect(),
        };
        let count = csv.len();
        if count > 0 && csv.columns.len() != target_indices.len() {
            return Err(SqlError::exec(format!(
                "COPY row arity {} vs column list arity {}",
                csv.columns.len(),
                target_indices.len()
            )));
        }
        let mark = AppendMark::of(table_ref);
        table_ref.load(&target_indices, &csv.chunks);
        self.log_append(mark, None)?;
        self.profile.charge_io(count);
        self.stats.pages_written += self.profile.pages_for(count);
        Ok(no_rows(count))
    }

    /// Load CSV text through the COPY path (convenience for tests/pipelines).
    pub fn copy_from_str(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        csv_text: &str,
        opts: &CsvOptions,
    ) -> Result<ExecOutcome> {
        let csv = etypes::read_csv_str(csv_text, opts)?;
        self.copy_rows(table, columns, &csv)
    }
}

/// What [`Engine::lookup`] made of a statement text.
enum Lookup {
    /// Exactly one SELECT or `CREATE [MATERIALIZED] VIEW`, planned now or
    /// earlier under its text.
    Planned(Rc<CachedPlan>),
    /// Anything else, parsed.
    Statements(Vec<Statement>),
}

/// The values of an INSERT's cells, row by row. A literal cell is its
/// value as parsed: binding and evaluating it would return that same value.
/// Any other cell (`-1`, `1+1`, `'3'::int`, ...) is bound as `SELECT <cell>`
/// and evaluated over no row; the context it needs is built at the first
/// such cell.
fn insert_values(
    catalog: &Catalog,
    profile: &EngineProfile,
    values: Vec<Vec<crate::ast::Expr>>,
) -> Result<Vec<Vec<Value>>> {
    let root = OnceCell::new();
    let ctx = OnceCell::new();
    values
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|cell| match cell {
                    crate::ast::Expr::Literal(v) => Ok(v),
                    cell => {
                        let ctx = ctx.get_or_init(|| {
                            let root = root.get_or_init(|| {
                                PlanRoot::new(
                                    Vec::new(),
                                    Vec::new(),
                                    crate::plan::PlanNode::Values {
                                        rows: Vec::new(),
                                        schema: Schema::default(),
                                    },
                                )
                            });
                            ExecContext::new(catalog, profile, root)
                        });
                        let bexpr = bind_const(catalog, profile, cell)?;
                        crate::exec::eval::eval(&bexpr, &[], ctx)
                    }
                })
                .collect()
        })
        .collect()
}

/// Bind a constant INSERT expression (no FROM scope) by running the full
/// binder on `SELECT <e>` and taking its one projection.
fn bind_const(
    catalog: &Catalog,
    profile: &EngineProfile,
    e: crate::ast::Expr,
) -> Result<crate::plan::BExpr> {
    let query = crate::ast::Query {
        ctes: Vec::new(),
        body: crate::ast::SelectBody {
            distinct: false,
            projection: vec![crate::ast::SelectItem::Expr {
                expr: e,
                alias: None,
            }],
            from: None,
            selection: None,
            group_by: Vec::new(),
            having: None,
            order_by: Vec::new(),
            limit: None,
        },
    };
    let (root, _) = bind_select(catalog, profile, &query)?;
    match root.body {
        crate::plan::PlanNode::Project { exprs, .. } if root.subplans.is_empty() => Ok(exprs
            .into_iter()
            .next()
            .ok_or_else(|| SqlError::bind("empty INSERT expression"))?),
        _ => Err(SqlError::bind("INSERT values must be constant expressions")),
    }
}

fn no_rows(n: usize) -> ExecOutcome {
    ExecOutcome {
        result: None,
        rows_affected: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineProfile::in_memory())
    }

    fn pg() -> Engine {
        Engine::new(EngineProfile::disk_based_no_latency())
    }

    /// [`Engine::execute_with`] of a SELECT text, its result as rows.
    fn run_with(e: &mut Engine, sql: &str, params: &[Value]) -> Result<Relation> {
        let out = e.execute_with(sql, None, params)?;
        Ok(out.result.expect("a SELECT has a result").into_relation())
    }

    #[test]
    fn create_insert_select() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int, b text); INSERT INTO t VALUES (1, 'x'), (2, 'y');",
        )
        .unwrap();
        let r = e.query("SELECT b FROM t WHERE a > 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("y")]]);
    }

    #[test]
    fn paper_listing_1_ratio_measurement() {
        // Verbatim structure of Listing 1 (bias ratio with RIGHT OUTER JOIN).
        let mut e = pg();
        e.execute_script(
            "CREATE TABLE data (a int, s int); INSERT INTO data (values (1,1), (1,2));",
        )
        .unwrap();
        let r = e
            .query(
                "WITH orig AS (SELECT ctid, a, s FROM data),
                 curr AS (SELECT ctid, s FROM orig WHERE s > 1),
                 orig_count AS (SELECT s, count(*) AS cnt FROM orig GROUP BY s),
                 curr_count AS (SELECT s, count(*) AS cnt FROM curr GROUP BY s),
                 orig_ratio AS (SELECT s, (cnt*1.0 / (select count(*) FROM orig)) AS ratio FROM orig_count),
                 curr_ratio AS (SELECT s, (cnt*1.0/(select sum(cnt) FROM curr_count)) AS ratio FROM curr_count)
                 SELECT o.s, o.ratio - COALESCE(c.ratio, 0) AS bias_change
                 FROM curr_ratio c RIGHT OUTER JOIN orig_ratio o ON o.s = c.s",
            )
            .unwrap();
        let mut rows = r.sorted_rows();
        rows.sort();
        // s=1: orig ratio 0.5, curr ratio 0 -> change 0.5
        // s=2: orig ratio 0.5, curr ratio 1.0 -> change -0.5
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::Int(1), Value::Float(0.5)]);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Float(-0.5)]);
    }

    #[test]
    fn ctid_tracking_survives_projection() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE d (a int, s int); INSERT INTO d VALUES (1, 10), (2, 20), (3, 30);",
        )
        .unwrap();
        // Project s away, then restore it via ctid join (paper Listing 2).
        let r = e
            .query(
                "WITH orig AS (SELECT ctid AS id, a, s FROM d),
                 curr AS (SELECT id, a FROM orig WHERE a >= 2)
                 SELECT o.s FROM curr c JOIN orig o ON c.id = o.id",
            )
            .unwrap();
        assert_eq!(
            r.sorted_rows(),
            vec![vec![Value::Int(20)], vec![Value::Int(30)]]
        );
    }

    #[test]
    fn array_agg_and_unnest_round_trip() {
        // Listing 3's aggregated-ctid pattern.
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE d (s int, v int);
             INSERT INTO d VALUES (1, 10), (1, 20), (2, 30);",
        )
        .unwrap();
        let r = e
            .query(
                "WITH curr AS (SELECT array_agg(ctid) AS ids, s FROM d GROUP BY s)
                 SELECT s, count(*) AS cnt
                 FROM (SELECT unnest(ids) AS id, s FROM curr) c GROUP BY s",
            )
            .unwrap();
        assert_eq!(
            r.sorted_rows(),
            vec![
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(2), Value::Int(1)]
            ]
        );
    }

    #[test]
    fn views_inline_and_materialized() {
        let mut e = pg();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2), (3);
             CREATE VIEW v AS SELECT a * 2 AS d FROM t;
             CREATE MATERIALIZED VIEW mv AS SELECT a * 10 AS x FROM t;",
        )
        .unwrap();
        assert_eq!(
            e.query("SELECT sum(d) AS s FROM v").unwrap().rows[0][0],
            Value::Int(12)
        );
        assert_eq!(
            e.query("SELECT max(x) AS m FROM mv").unwrap().rows[0][0],
            Value::Int(30)
        );
        // Materialized views are frozen at creation time.
        e.execute("INSERT INTO t VALUES (100)").unwrap();
        assert_eq!(
            e.query("SELECT max(x) AS m FROM mv").unwrap().rows[0][0],
            Value::Int(30)
        );
        assert_eq!(
            e.query("SELECT sum(d) AS s FROM v").unwrap().rows[0][0],
            Value::Int(212)
        );
    }

    #[test]
    fn cte_materialization_depends_on_profile() {
        let sql = "WITH c AS (SELECT a FROM t) SELECT x.a FROM c x JOIN c y ON x.a = y.a";
        let setup = "CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);";

        let mut postgres = pg();
        postgres.execute_script(setup).unwrap();
        postgres.query(sql).unwrap();
        // PostgreSQL profile: one CTE materialized despite two references.
        assert_eq!(postgres.stats().ctes_materialized, 1);

        let mut umbra = engine();
        umbra.execute_script(setup).unwrap();
        umbra.query(sql).unwrap();
        assert_eq!(umbra.stats().ctes_materialized, 0);
    }

    #[test]
    fn unreferenced_ctes_are_never_evaluated() {
        // The paper's CTE mode ships the whole translated prefix with every
        // query; PostgreSQL only evaluates the CTEs the query actually uses.
        let mut e = pg();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
            .unwrap();
        e.query(
            "WITH unused AS (SELECT a FROM t), used AS (SELECT a FROM t)
             SELECT a FROM used",
        )
        .unwrap();
        assert_eq!(e.stats().ctes_materialized, 1);
    }

    #[test]
    fn shared_scans_deduplicate_repeated_inline_references() {
        // In-memory profile: a CTE referenced twice becomes one shared scan
        // (Umbra's DAG plans), never a fenced materialization.
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);")
            .unwrap();
        let r = e
            .query("WITH c AS (SELECT a FROM t) SELECT x.a FROM c x JOIN c y ON x.a = y.a")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(e.stats().ctes_materialized, 0);
        assert_eq!(e.stats().shared_scans, 1);
    }

    #[test]
    fn shared_view_scans_deduplicate_too() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2), (3);
             CREATE VIEW v AS SELECT a * 2 AS d FROM t;",
        )
        .unwrap();
        let r = e
            .query("SELECT x.d FROM v x JOIN v y ON x.d = y.d ORDER BY x.d")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(e.stats().shared_scans, 1);
    }

    #[test]
    fn not_materialized_overrides_fence() {
        let mut e = pg();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
            .unwrap();
        e.query("WITH c AS NOT MATERIALIZED (SELECT a FROM t) SELECT a FROM c")
            .unwrap();
        assert_eq!(e.stats().ctes_materialized, 0);
    }

    #[test]
    fn copy_from_string_and_null_handling() {
        let mut e = engine();
        e.execute("CREATE TABLE p (\"smoker\" text, \"complications\" int, \"ssn\" text)")
            .unwrap();
        e.copy_from_str(
            "p",
            None,
            "smoker,complications,ssn\n?,3,s1\nyes,,s2\n",
            &CsvOptions::default().with_na("?"),
        )
        .unwrap();
        let r = e
            .query("SELECT count(*) AS n FROM p WHERE smoker IS NULL")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
        let r = e.query("SELECT count(complications) AS n FROM p").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
    }

    #[test]
    fn insert_with_column_list_fills_serial() {
        let mut e = engine();
        e.execute("CREATE TABLE t (index_ serial, v text)").unwrap();
        e.execute("INSERT INTO t (v) VALUES ('a'), ('b')").unwrap();
        let r = e.query("SELECT index_, v FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(1));
        assert_eq!(r.rows[1][0], Value::Int(2));
    }

    #[test]
    fn null_safe_join_condition() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE a (k text, va int); INSERT INTO a VALUES (NULL, 1), ('x', 2);
             CREATE TABLE b (k text, vb int); INSERT INTO b VALUES (NULL, 10);",
        )
        .unwrap();
        // Plain equality: NULL does not join.
        let r = e
            .query("SELECT va, vb FROM a INNER JOIN b ON a.k = b.k")
            .unwrap();
        assert!(r.rows.is_empty());
        // Paper §5.1.2 pandas-compatible form.
        let r = e
            .query(
                "SELECT va, vb FROM a INNER JOIN b ON a.k = b.k OR (a.k IS NULL AND b.k IS NULL)",
            )
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1), Value::Int(10)]]);
    }

    #[test]
    fn imputer_most_frequent_subquery() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (smoker text);
             INSERT INTO t VALUES ('yes'), ('no'), ('yes'), (NULL);",
        )
        .unwrap();
        let r = e
            .query(
                "SELECT COALESCE(smoker, (SELECT smoker FROM t WHERE smoker IS NOT NULL
                  GROUP BY smoker ORDER BY count(*) DESC, smoker LIMIT 1)) AS smoker FROM t",
            )
            .unwrap();
        assert_eq!(r.rows[3][0], Value::text("yes"));
    }

    #[test]
    fn one_hot_shape_with_row_number_and_array_ops() {
        let mut e = engine();
        e.execute_script("CREATE TABLE t (c text); INSERT INTO t VALUES ('b'), ('a'), ('b');")
            .unwrap();
        let r = e
            .query(
                "WITH fit AS (
                   SELECT v, ROW_NUMBER() OVER (ORDER BY v) - 1 AS pos,
                          (SELECT count(DISTINCT c) FROM t) AS n
                   FROM (SELECT DISTINCT c AS v FROM t) d
                 )
                 SELECT t.c, array_fill(0, pos::int) || ARRAY[1] || array_fill(0, (n - pos - 1)::int) AS onehot
                 FROM t JOIN fit ON t.c = fit.v",
            )
            .unwrap();
        let find = |c: &str| r.rows.iter().find(|row| row[0] == Value::text(c)).unwrap()[1].clone();
        assert_eq!(find("a"), Value::Array(vec![Value::Int(1), Value::Int(0)]));
        assert_eq!(find("b"), Value::Array(vec![Value::Int(0), Value::Int(1)]));
    }

    #[test]
    fn standard_scaler_and_kbins_sql_shapes() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (x double precision); INSERT INTO t VALUES (1.0), (2.0), (3.0), (4.0);",
        )
        .unwrap();
        // Standard scaler (paper Listing 17): (x - avg) / stddev_pop.
        let r = e
            .query(
                "SELECT (x - (SELECT avg(x) FROM t)) / (SELECT stddev_pop(x) FROM t) AS z FROM t",
            )
            .unwrap();
        let z0 = r.rows[0][0].as_f64().unwrap();
        assert!((z0 + 1.3416407864998738).abs() < 1e-9);
        // KBins (Listing 18, 4 bins).
        let r = e
            .query(
                "SELECT LEAST(GREATEST(FLOOR((x - (SELECT min(x) FROM t)) /
                   ((SELECT (max(x) - min(x)) * 1.0 / 4 FROM t))), 0), 3) AS bin FROM t",
            )
            .unwrap();
        let bins: Vec<f64> = r.rows.iter().map(|row| row[0].as_f64().unwrap()).collect();
        assert_eq!(bins, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn binarize_case_statement() {
        let mut e = engine();
        e.execute_script("CREATE TABLE t (label int); INSERT INTO t VALUES (49), (50), (51);")
            .unwrap();
        let r = e
            .query("SELECT (CASE WHEN (label >= 50) THEN 1 ELSE 0 END) AS label FROM t")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(1)]
            ]
        );
    }

    #[test]
    fn regexp_replace_whole_word() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (label text); INSERT INTO t VALUES ('Medium'), ('High'), ('MediumRare');",
        )
        .unwrap();
        let r = e
            .query("SELECT REGEXP_REPLACE(\"label\", '^Medium$', 'Low') AS label FROM t")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::text("Low")],
                vec![Value::text("High")],
                vec![Value::text("MediumRare")]
            ]
        );
    }

    #[test]
    fn dropna_translation_shape() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int, b text);
             INSERT INTO t VALUES (1, 'x'), (NULL, 'y'), (3, NULL);",
        )
        .unwrap();
        let r = e
            .query("SELECT * FROM t WHERE NOT (a IS NULL) AND NOT (b IS NULL)")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
    }

    #[test]
    fn select_star_excludes_ctid_but_ctid_selectable() {
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (7);")
            .unwrap();
        let star = e.query("SELECT * FROM t").unwrap();
        assert_eq!(star.columns, vec!["a"]);
        let with_ctid = e.query("SELECT *, ctid AS t_ctid FROM t").unwrap();
        assert_eq!(with_ctid.columns, vec!["a", "t_ctid"]);
        assert_eq!(with_ctid.rows[0][1], Value::Int(0));
    }

    #[test]
    fn group_by_with_having_and_aliases() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (g text, v int);
             INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 10);",
        )
        .unwrap();
        let r = e
            .query("SELECT g, sum(v) AS total FROM t GROUP BY g HAVING count(*) > 1")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::text("a"), Value::Int(3)]]);
    }

    #[test]
    fn median_aggregate() {
        let mut e = engine();
        e.execute_script("CREATE TABLE t (v int); INSERT INTO t VALUES (1), (2), (10);")
            .unwrap();
        assert_eq!(
            e.query("SELECT median(v) AS m FROM t").unwrap().rows[0][0],
            Value::Float(2.0)
        );
    }

    #[test]
    fn order_by_null_handling_and_limit() {
        let mut e = engine();
        e.execute_script("CREATE TABLE t (v int); INSERT INTO t VALUES (2), (NULL), (1);")
            .unwrap();
        let r = e.query("SELECT v FROM t ORDER BY v").unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Null]]
        );
        let r = e.query("SELECT v FROM t ORDER BY v DESC LIMIT 1").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Null]]);
    }

    #[test]
    fn errors_are_reported() {
        let mut e = engine();
        assert!(e.query("SELECT * FROM missing").is_err());
        e.execute("CREATE TABLE t (a int)").unwrap();
        assert!(e.query("SELECT b FROM t").is_err());
        assert!(e.execute("CREATE TABLE t (a int)").is_err());
    }

    #[test]
    fn cross_join_comma_syntax() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE a (x int); INSERT INTO a VALUES (1), (2);
             CREATE TABLE b (y int); INSERT INTO b VALUES (10);",
        )
        .unwrap();
        let r = e.query("SELECT x, y FROM a, b").unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn plan_cache_hits_on_repeated_query() {
        // The exact text is the key: the same text hits, and a different
        // constant is a different text with its own entry.
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);")
            .unwrap();
        let sql = "SELECT a FROM t WHERE a > 1";
        let first = e.query(sql).unwrap();
        let second = e.query(sql).unwrap();
        assert_eq!(first, second);
        let stats = e.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(
            e.query("SELECT a FROM t WHERE a > 0").unwrap().rows.len(),
            2
        );
        let stats = e.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(e.plan_cache_len(), 2);
    }

    #[test]
    fn repeated_select_text_skips_the_frontend() {
        // Once a text is cached, `query`, `execute`, `PREPARE` and
        // `EXECUTE` of it run the plan with no lex, parse, bind or
        // optimize sample.
        let mut e = analyze_fixture(engine());
        let frontend = |e: &Engine| {
            [Phase::Lex, Phase::Parse, Phase::Bind, Phase::Optimize]
                .map(|p| e.trace().phase(p).count())
        };
        e.query(ANALYZE_SQL).unwrap();
        let planned = frontend(&e);
        let executes = e.trace().phase(Phase::Execute).count();
        e.query(ANALYZE_SQL).unwrap();
        e.execute(ANALYZE_SQL).unwrap();
        e.prepare(ANALYZE_SQL).unwrap();
        e.execute_with(ANALYZE_SQL, None, &[]).unwrap();
        assert_eq!(frontend(&e), planned);
        assert_eq!(e.trace().phase(Phase::Execute).count(), executes + 3);
        assert_eq!(e.plan_cache_stats().hits, 4);
    }

    #[test]
    fn a_parameter_without_a_value_is_a_bind_error_on_every_path() {
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int, b text); INSERT INTO t VALUES (1, 'x');")
            .unwrap();
        let want = "bind error: statement needs 1 parameter, got 0";
        for sql in ["SELECT b FROM t WHERE a = $1", "SELECT $1 AS p FROM t"] {
            let paths = [
                e.query(sql).map(drop),
                e.query(sql).map(drop),
                e.execute_script(&format!("SELECT a FROM t; {sql}"))
                    .map(drop),
                e.execute(&format!("CREATE MATERIALIZED VIEW mv AS {sql}"))
                    .map(drop),
                e.query(&format!("EXPLAIN ANALYZE {sql}")).map(drop),
                e.explain_analyze(sql).map(drop),
            ];
            for (i, result) in paths.into_iter().enumerate() {
                assert_eq!(result.unwrap_err().to_string(), want, "path {i}: {sql}");
            }
        }
        // PREPARE shares the entry; only a run with a value runs it.
        let sql = "SELECT b FROM t WHERE a = $1";
        e.prepare(sql).unwrap();
        assert_eq!(e.query(sql).unwrap_err().to_string(), want);
        assert_eq!(
            e.execute_with(sql, None, &[]).unwrap_err().to_string(),
            want
        );
        let rows = run_with(&mut e, sql, &[Value::Int(1)]).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::text("x")]]);
        // A text outside the plan cache takes no parameters.
        let err = e.execute_with("INSERT INTO t VALUES (2, 'y')", None, &[Value::Int(1)]);
        assert_eq!(
            err.unwrap_err().to_string(),
            "bind error: only a single SELECT statement takes parameters"
        );
    }

    #[test]
    fn cached_plan_sees_new_rows() {
        // Plans reference tables by name, so DML needs no invalidation.
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
            .unwrap();
        let sql = "SELECT count(*) AS n FROM t";
        assert_eq!(e.query(sql).unwrap().rows[0][0], Value::Int(1));
        e.execute("INSERT INTO t VALUES (2), (3)").unwrap();
        assert_eq!(e.query(sql).unwrap().rows[0][0], Value::Int(3));
        assert_eq!(e.plan_cache_stats().hits, 1);
    }

    /// A text's answer through the engine, as rows or error text.
    fn answer(e: &mut Engine, sql: &str) -> std::result::Result<Vec<Vec<Value>>, String> {
        e.query(sql).map(|r| r.rows).map_err(|err| err.to_string())
    }

    /// The same text bound afresh on the reference interpreter.
    fn fresh(e: &Engine, sql: &str) -> std::result::Result<Vec<Vec<Value>>, String> {
        e.query_reference(sql)
            .map(|r| r.rows)
            .map_err(|err| err.to_string())
    }

    #[test]
    fn ddl_invalidates_plan_cache() {
        // A catalog change leaves the cache alone; the next lookup of a
        // SELECT reading the changed name finds it stale, counts one
        // invalidation against that name and plans the text afresh. A name
        // read as a CTE counts too: the re-plan is spurious but harmless.
        // (A failed group commit's undo is covered in
        // `tests/robustness.rs`, which may arm failpoints.)
        type Step = fn(&mut Engine);
        let shadowed = "WITH n AS (SELECT a FROM t) SELECT a FROM n";
        let install_n: Step = |e| {
            let mut image = e.export_table_images(&["t".to_string()]).unwrap();
            image[0].name = "n".to_string();
            e.install_foreign_table(image.remove(0)).unwrap();
        };
        let cases: [(&str, Step, &str, Step, &str); 9] = [
            (
                "CREATE TABLE",
                |_| {},
                shadowed,
                |e| {
                    e.execute("CREATE TABLE n (b int)").unwrap();
                },
                "n",
            ),
            (
                "DROP TABLE",
                |_| {},
                "SELECT a FROM t",
                |e| {
                    e.execute("DROP TABLE t").unwrap();
                },
                "t",
            ),
            (
                "CREATE VIEW",
                |_| {},
                shadowed,
                |e| {
                    e.execute("CREATE VIEW n AS SELECT a FROM t").unwrap();
                },
                "n",
            ),
            (
                "CREATE MATERIALIZED VIEW",
                |_| {},
                shadowed,
                |e| {
                    e.execute("CREATE MATERIALIZED VIEW n AS SELECT a FROM t")
                        .unwrap();
                },
                "n",
            ),
            (
                "DROP VIEW",
                |e| {
                    e.execute("CREATE VIEW n AS SELECT a FROM t").unwrap();
                },
                "SELECT a FROM n",
                |e| {
                    e.execute("DROP VIEW n").unwrap();
                },
                "n",
            ),
            (
                "DROP VIEW under a view",
                |e| {
                    e.execute_script(
                        "CREATE VIEW n AS SELECT a FROM t; CREATE VIEW top AS SELECT a FROM n;",
                    )
                    .unwrap();
                },
                "SELECT a FROM top",
                |e| {
                    e.execute("DROP VIEW n").unwrap();
                },
                "n",
            ),
            ("install_foreign_table", |_| {}, shadowed, install_n, "n"),
            (
                "remove_foreign_table",
                install_n,
                "SELECT a FROM n",
                |e| e.remove_foreign_table("n"),
                "n",
            ),
            (
                "abort_prepared of a CREATE",
                |e| {
                    e.prepare_txn(1, "CREATE TABLE n (a int)").unwrap();
                },
                "SELECT a FROM n",
                |e| e.abort_prepared(1).unwrap(),
                "n",
            ),
        ];
        for (what, setup, sql, change, changed) in cases {
            let mut e = engine();
            e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
                .unwrap();
            setup(&mut e);
            e.query(sql).unwrap();
            let cached = e.plan_cache_len();
            change(&mut e);
            // The change may cache its own text (a view's DDL), never drop.
            let (len, before) = (e.plan_cache_len(), e.plan_cache_stats());
            assert!(len >= cached, "{what}: DDL leaves the cache");
            assert_eq!(before.invalidations, 0, "{what}");
            let again = answer(&mut e, sql);
            assert_eq!(again, fresh(&e, sql), "{what}: answered as planned afresh");
            let stats = e.plan_cache_stats();
            assert_eq!(stats.hits, before.hits, "{what}");
            assert_eq!(stats.invalidations, 1, "{what}");
            assert_eq!(
                e.plan_cache_table_invalidations(),
                vec![(changed.to_string(), 1)],
                "{what}"
            );
            // Re-planned in place, or gone when the text no longer binds.
            let replanned = usize::from(again.is_ok());
            assert_eq!(e.plan_cache_len(), len - 1 + replanned, "{what}");
            assert_eq!(stats.misses, before.misses + replanned as u64, "{what}");
        }
        // Re-planning after a drop reports the missing table.
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
            .unwrap();
        e.query("SELECT a FROM t").unwrap();
        e.execute("DROP TABLE t").unwrap();
        assert!(e.query("SELECT a FROM t").is_err());
    }

    #[test]
    fn a_view_recreated_with_another_schema_or_definition_is_replanned() {
        // Each change below re-creates `v` under the same name; the cached
        // SELECT must answer what the new object answers.
        let base = "CREATE TABLE t (a int, b text); INSERT INTO t VALUES (1, 'x'), (2, 'y');";
        let sql = "SELECT * FROM v";
        let cases = [
            (
                "another schema",
                "CREATE VIEW v AS SELECT a FROM t",
                "DROP VIEW v",
                "CREATE VIEW v AS SELECT b FROM t",
            ),
            (
                "another definition, same schema",
                "CREATE VIEW v AS SELECT a FROM t",
                "DROP VIEW v",
                "CREATE VIEW v AS SELECT a + 10 AS a FROM t",
            ),
            (
                "a materialized view with another schema",
                "CREATE MATERIALIZED VIEW v AS SELECT a FROM t",
                "DROP MATERIALIZED VIEW v",
                "CREATE MATERIALIZED VIEW v AS SELECT a, b FROM t",
            ),
            (
                "a view replaced by a table",
                "CREATE VIEW v AS SELECT a FROM t",
                "DROP VIEW v",
                "CREATE TABLE v (a int); INSERT INTO v VALUES (7);",
            ),
            (
                "a materialized view replaced by a table",
                "CREATE MATERIALIZED VIEW v AS SELECT a FROM t",
                "DROP VIEW v",
                "CREATE TABLE v (a int); INSERT INTO v VALUES (7);",
            ),
        ];
        for (what, create, drop, recreate) in cases {
            let mut e = engine();
            e.execute_script(base).unwrap();
            e.execute(create).unwrap();
            let first = answer(&mut e, sql).unwrap();
            e.execute(drop).unwrap();
            e.execute_script(recreate).unwrap();
            let again = answer(&mut e, sql);
            assert_eq!(again, fresh(&e, sql), "{what}");
            assert_ne!(again, Ok(first), "{what}: the answer changed");
            let stats = e.plan_cache_stats();
            assert_eq!((stats.hits, stats.invalidations), (0, 1), "{what}");
            assert_eq!(
                e.plan_cache_table_invalidations(),
                vec![("v".to_string(), 1)],
                "{what}"
            );
        }
    }

    #[test]
    fn a_relation_recreated_with_the_same_schema_keeps_its_plan() {
        // Scans resolve heaps by name at execution, so the cached plan
        // reads the new rows: a table and a materialized view dropped and
        // re-created with the same columns and types still hit.
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);
             CREATE MATERIALIZED VIEW m AS SELECT a FROM t WHERE a > 1;",
        )
        .unwrap();
        let sql = "SELECT t.a, (SELECT count(*) FROM m) AS n FROM t ORDER BY t.a";
        let rows = |pairs: &[(i64, i64)]| -> Vec<Vec<Value>> {
            pairs
                .iter()
                .map(|&(a, n)| vec![Value::Int(a), Value::Int(n)])
                .collect()
        };
        assert_eq!(answer(&mut e, sql), Ok(rows(&[(1, 1), (2, 1)])));
        e.execute_script(
            "DROP MATERIALIZED VIEW m; DROP TABLE t;
             CREATE TABLE t (a int); INSERT INTO t VALUES (5), (6), (7);
             CREATE MATERIALIZED VIEW m AS SELECT a FROM t WHERE a < 0;",
        )
        .unwrap();
        assert_eq!(answer(&mut e, sql), Ok(rows(&[(5, 0), (6, 0), (7, 0)])));
        assert_eq!(answer(&mut e, sql), fresh(&e, sql));
        let stats = e.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (2, 1, 0));
    }

    #[test]
    fn a_dropped_relation_fails_as_unknown_through_query_and_execute() {
        // The text is the same as on an engine that never cached the plan.
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
            .unwrap();
        let sql = "SELECT a FROM t WHERE a = $1";
        e.prepare(sql).unwrap();
        run_with(&mut e, sql, &[Value::Int(1)]).unwrap();
        e.query("SELECT a FROM t").unwrap();
        e.execute("DROP TABLE t").unwrap();
        let want = "bind error: unknown relation 't'";
        for _ in 0..2 {
            assert_eq!(e.query("SELECT a FROM t").unwrap_err().to_string(), want);
            let err = run_with(&mut e, sql, &[Value::Int(1)]).unwrap_err();
            assert_eq!(err.to_string(), want);
        }
        assert_eq!(e.plan_cache_stats().invalidations, 2);
        assert_eq!(e.plan_cache_len(), 0);
        // Re-created, the prepared statement serves again.
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
            .unwrap();
        let rows = run_with(&mut e, sql, &[Value::Int(1)]).unwrap();
        assert_eq!(rows.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn a_repeated_view_ddl_text_skips_the_frontend() {
        // `CREATE [MATERIALIZED] VIEW` texts share the plan cache: the
        // second round of the same texts binds nothing, and the stored view
        // holds the rows of the moment it is created.
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);")
            .unwrap();
        let ddl = [
            "CREATE MATERIALIZED VIEW m AS SELECT a * 10 AS b FROM t",
            "CREATE VIEW v AS SELECT b + 1 AS c FROM m",
        ];
        let sql = "SELECT sum(c) AS s FROM v";
        let binds = |e: &Engine| e.trace().phase(Phase::Bind).count();
        let round = |e: &mut Engine| {
            for text in ddl {
                e.execute(text).unwrap();
            }
            let s = e.query(sql).unwrap().rows[0][0].clone();
            e.execute_script("DROP VIEW v; DROP MATERIALIZED VIEW m;")
                .unwrap();
            s
        };
        assert_eq!(round(&mut e), Value::Int(32));
        let (planned, stats) = (binds(&e), e.plan_cache_stats());
        assert_eq!((stats.hits, stats.misses), (0, 3));
        e.execute("INSERT INTO t VALUES (3)").unwrap();
        assert_eq!(round(&mut e), Value::Int(63));
        assert_eq!(binds(&e), planned, "no bind in the second round");
        let stats = e.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidations), (3, 3, 0));
        // A DDL text is not a SELECT: it cannot be prepared.
        assert_eq!(
            e.prepare(ddl[0]).unwrap_err().to_string(),
            "bind error: only SELECT statements can be prepared/cached"
        );
        assert!(e.catalog().view("m").is_none());
        // Creating a view whose name is taken still fails after the body.
        e.execute(ddl[0]).unwrap();
        let err = e.execute(ddl[0]).unwrap_err().to_string();
        assert_eq!(err, "catalog error: object 'm' already exists");
    }

    #[test]
    fn prepared_statements_round_trip() {
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (5), (7);")
            .unwrap();
        let sql = "SELECT max(a) AS m FROM t";
        e.prepare(sql).unwrap();
        for _ in 0..2 {
            let r = run_with(&mut e, sql, &[]).unwrap();
            assert_eq!(r.rows[0][0], Value::Int(7));
        }
        assert!(e.plan_cache_stats().hits >= 1);
        // A script is not one SELECT: it cannot be prepared.
        assert_eq!(
            e.prepare("SELECT 1; SELECT 2").unwrap_err().to_string(),
            "parse error (line 1): expected 1 statement, got 2"
        );
    }

    #[test]
    fn only_select_is_cacheable() {
        let mut e = engine();
        assert!(e.prepare("CREATE TABLE t (a int)").is_err());
        e.execute("CREATE TABLE t (a int)").unwrap();
        e.execute("INSERT INTO t VALUES (1)").unwrap();
        assert_eq!(e.plan_cache_len(), 0);
        assert_eq!(e.plan_cache_stats().misses, 0);
    }

    #[test]
    fn targeted_invalidation_keeps_unrelated_plans() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1);
             CREATE TABLE u (b int); INSERT INTO u VALUES (2);",
        )
        .unwrap();
        e.query("SELECT a FROM t").unwrap();
        e.query("SELECT b FROM u").unwrap();
        assert_eq!(e.plan_cache_len(), 2);
        e.execute("DROP TABLE t").unwrap();
        // Only the plan reading t is found stale.
        assert!(e.query("SELECT a FROM t").is_err());
        assert_eq!(e.plan_cache_len(), 1);
        e.query("SELECT b FROM u").unwrap();
        assert_eq!(e.plan_cache_stats().hits, 1);
        assert_eq!(
            e.plan_cache_table_invalidations(),
            vec![("t".to_string(), 1)]
        );
    }

    #[test]
    fn view_drop_invalidates_plans_reading_it() {
        // Inline views vanish from the bound plan; the AST walk must still
        // record the dependency so a lookup after DROP VIEW finds the plan
        // stale.
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1);
             CREATE VIEW v AS SELECT a * 2 AS d FROM t;",
        )
        .unwrap();
        e.query("SELECT d FROM v").unwrap();
        assert_eq!(e.plan_cache_len(), 1);
        e.execute("DROP VIEW v").unwrap();
        assert!(e.query("SELECT d FROM v").is_err());
        assert_eq!(e.plan_cache_len(), 0);
        assert_eq!(
            e.plan_cache_table_invalidations(),
            vec![("v".to_string(), 1)]
        );
    }

    #[test]
    fn table_under_inlined_view_invalidates_too() {
        // The plan walk catches the base table hidden under the view.
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1);
             CREATE VIEW v AS SELECT a FROM t;",
        )
        .unwrap();
        e.query("SELECT a FROM v").unwrap();
        e.execute("DROP TABLE t").unwrap();
        assert!(e.query("SELECT a FROM v").is_err());
        assert_eq!(e.plan_cache_len(), 0);
        assert_eq!(
            e.plan_cache_table_invalidations(),
            vec![("t".to_string(), 1)]
        );
    }

    #[test]
    fn subquery_dependencies_are_tracked() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1);
             CREATE TABLE s (b int); INSERT INTO s VALUES (5);",
        )
        .unwrap();
        let sql = "SELECT a FROM t WHERE a < (SELECT max(b) FROM s)";
        e.query(sql).unwrap();
        e.execute("DROP TABLE s").unwrap();
        assert!(e.query(sql).is_err());
        assert_eq!(e.plan_cache_len(), 0, "scalar-subquery dep found stale");
    }

    fn durable_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sqlengine-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_engine_recovers_tables_and_serials() {
        let dir = durable_dir("roundtrip");
        {
            let mut e =
                Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
            assert!(e.is_durable());
            e.execute_script(
                "CREATE TABLE t (index_ serial, v text);
                 INSERT INTO t (v) VALUES ('a'), ('b');",
            )
            .unwrap();
        }
        let mut e =
            Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
        let report = e.recovery_report().unwrap().clone();
        assert_eq!(report.wal_records_applied, 2);
        let r = e.query("SELECT index_, v FROM t ORDER BY index_").unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::text("a")],
                vec![Value::Int(2), Value::text("b")]
            ]
        );
        // Serial counter resumes where it left off.
        e.execute("INSERT INTO t (v) VALUES ('c')").unwrap();
        let r = e.query("SELECT max(index_) AS m FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn durable_engine_checkpoint_and_wal_tail() {
        let dir = durable_dir("ckpt");
        {
            let mut e =
                Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
            e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);")
                .unwrap();
            let stats = e.checkpoint().unwrap().expect("durable engine");
            assert_eq!(stats.tables, 1);
            assert_eq!(stats.rows, 2);
            e.execute("INSERT INTO t VALUES (3)").unwrap();
        }
        let mut e =
            Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
        let report = e.recovery_report().unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_rows, 2);
        assert_eq!(report.wal_records_applied, 1);
        let r = e.query("SELECT count(*) AS n FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(3));
        assert!(e.storage_stats().is_some());
    }

    fn count_of(e: &mut Engine, table: &str) -> Value {
        e.query(&format!("SELECT count(*) FROM {table}"))
            .unwrap()
            .rows[0][0]
            .clone()
    }

    #[test]
    fn a_failed_multi_row_insert_appends_nothing() {
        let mut e = engine();
        e.execute("CREATE TABLE t (a int, b int)").unwrap();
        let err = e.execute("INSERT INTO t VALUES (1, 2), (3)").unwrap_err();
        assert!(
            err.to_string().contains("INSERT arity 1 vs table arity 2"),
            "{err}"
        );
        let err = e.execute("INSERT INTO t (a, z) VALUES (1, 2)").unwrap_err();
        assert!(err.to_string().contains("unknown column 'z'"), "{err}");
        assert_eq!(count_of(&mut e, "t"), Value::Int(0));
        // A serial column does not advance either.
        e.execute("CREATE TABLE s (id serial, a int)").unwrap();
        assert!(e
            .execute("INSERT INTO s VALUES (NULL, 1), (NULL, 2), (3)")
            .is_err());
        e.execute("INSERT INTO s (a) VALUES (5)").unwrap();
        assert_eq!(
            e.query("SELECT id FROM s").unwrap().rows,
            vec![vec![Value::Int(1)]]
        );
    }

    #[test]
    fn a_failed_multi_row_insert_is_not_logged() {
        let dir = durable_dir("atomic-insert");
        {
            let mut e =
                Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
            e.execute("CREATE TABLE t (a int, b int)").unwrap();
            assert!(e.execute("INSERT INTO t VALUES (1, 2), (3)").is_err());
            assert_eq!(count_of(&mut e, "t"), Value::Int(0));
        }
        let mut e =
            Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
        assert_eq!(count_of(&mut e, "t"), Value::Int(0));
        e.execute("INSERT INTO t VALUES (1, 2)").unwrap();
        assert_eq!(count_of(&mut e, "t"), Value::Int(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A column list and its VALUES rows must have the same length, as in
    /// PostgreSQL: extra values and missing ones are both refused with its
    /// texts, and a refused statement appends and logs nothing.
    #[test]
    fn a_column_list_and_its_values_must_agree() {
        let more = "execution error: INSERT has more expressions than target columns";
        let fewer = "execution error: INSERT has more target columns than expressions";
        let refused = [
            ("INSERT INTO t (a) VALUES (3, 4)", more),
            ("INSERT INTO t (a, b) VALUES (3)", fewer),
            ("INSERT INTO t (a, b) VALUES (1, 2), (3)", fewer),
            ("INSERT INTO t (a) VALUES (1), (2, 3)", more),
        ];
        let stored = "SELECT ctid, id, a, b FROM t";
        let want = vec![vec![
            Value::Int(0),
            Value::Int(1),
            Value::Int(7),
            Value::Null,
        ]];
        let check = |e: &mut Engine| {
            e.execute("CREATE TABLE t (id serial, a int, b int)")
                .unwrap();
            for (sql, text) in refused {
                let err = e.execute(sql).unwrap_err();
                assert_eq!(err.to_string(), text, "{sql}");
            }
            assert_eq!(count_of(e, "t"), Value::Int(0));
            // The serial did not advance for the refused rows.
            e.execute("INSERT INTO t (a) VALUES (7)").unwrap();
            assert_eq!(e.query(stored).unwrap().rows, want);
        };
        check(&mut engine());
        let dir = durable_dir("column-list-arity");
        check(
            &mut Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap(),
        );
        let mut e =
            Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
        assert_eq!(e.query(stored).unwrap().rows, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every stored row of `table` with its ctid, in ctid order.
    fn stored_rows(e: &mut Engine, table: &str, columns: &str) -> Vec<Vec<Value>> {
        e.query(&format!(
            "SELECT ctid, {columns} FROM {table} ORDER BY ctid"
        ))
        .unwrap()
        .rows
    }

    /// Literal INSERT cells are stored exactly as COPY stores the same
    /// values — same rows, ctids and serials, coerced to the column types —
    /// in memory and again after a durable reopen replays the WAL.
    #[test]
    fn literal_insert_cells_store_what_copy_stores() {
        // Each row's cells as SQL literals and as CSV fields: NULL, bools,
        // the `int8` extremes, `1e308`, `-0.0`, an `Int` into the float
        // column, quotes and non-ASCII text.
        let rows = [
            ["NULL", "0", "1e308", "'plain'", "true"],
            [
                "7",
                "9223372036854775807",
                "-0.0",
                "'it''s \"quoted\"'",
                "false",
            ],
            [
                "NULL",
                "-9223372036854775808",
                "3",
                "'héllo ✓ 日本'",
                "NULL",
            ],
            ["NULL", "NULL", "NULL", "NULL", "true"],
            ["2", "-1", "0.5", "'a,b'", "false"],
        ];
        let csv = [
            ",0,1e308,plain,true",
            "7,9223372036854775807,-0.0,\"it's \"\"quoted\"\"\",false",
            ",-9223372036854775808,3,héllo ✓ 日本,",
            ",,,,true",
            "2,-1,0.5,\"a,b\",false",
        ];
        let create = "(id serial, i int, f float, t text, b bool)";
        let all = "id, i, f, t, b";
        let values = |from: usize| {
            rows.iter()
                .map(|r| format!("({})", r[from..].join(", ")))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let fields = |from: usize| {
            let lines = csv.iter().map(|l| match from {
                0 => l,
                _ => l.split_once(',').unwrap().1,
            });
            std::iter::once(if from == 0 { "id,i,f,t,b" } else { "i,f,t,b" })
                .chain(lines)
                .collect::<Vec<_>>()
                .join("\n")
        };
        let no_list = Some(vec!["i".to_string(), "f".into(), "t".into(), "b".into()]);
        let load = |e: &mut Engine| {
            for (name, list) in [("ins", ""), ("ins_cols", " (i, f, t, b)")] {
                e.execute(&format!("CREATE TABLE {name} {create}")).unwrap();
                let from = usize::from(!list.is_empty());
                e.execute(&format!("INSERT INTO {name}{list} VALUES {}", values(from)))
                    .unwrap();
                e.execute(&format!("INSERT INTO {name}{list} VALUES {}", values(from)))
                    .unwrap();
            }
            for (name, list) in [("cp", None), ("cp_cols", no_list.as_deref())] {
                e.execute(&format!("CREATE TABLE {name} {create}")).unwrap();
                let from = usize::from(list.is_some());
                for _ in 0..2 {
                    e.copy_from_str(name, list, &fields(from), &CsvOptions::default())
                        .unwrap();
                }
            }
        };
        // The heaps' rows as stored, printed with each cell's variant:
        // `Value`'s equality takes `Int(3)` for `Float(3.0)` and `-0.0`
        // for `0.0`, so it cannot tell a skipped coercion.
        let heap =
            |e: &Engine, t: &str| format!("{:?}", e.catalog.table(t).unwrap().heap.rows_from(0));
        let compare = |e: &mut Engine| {
            assert_eq!(heap(e, "ins"), heap(e, "cp"));
            assert_eq!(heap(e, "ins_cols"), heap(e, "cp_cols"));
            let copied = stored_rows(e, "cp", all);
            assert_eq!(copied[1][3], Value::Float(-0.0));
            assert!(copied[1][3].to_string().starts_with('-'), "{:?}", copied[1]);
            assert_eq!(copied[2][3], Value::Float(3.0));
            assert_eq!(stored_rows(e, "ins", all), copied);
            let copied = stored_rows(e, "cp_cols", all);
            assert_eq!(copied[9][1], Value::Int(10), "serials fill every row");
            assert_eq!(stored_rows(e, "ins_cols", all), copied);
        };
        let mut e = engine();
        load(&mut e);
        compare(&mut e);
        let dir = durable_dir("literal-vs-copy");
        {
            let mut e =
                Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
            load(&mut e);
            compare(&mut e);
        }
        let mut e =
            Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
        compare(&mut e);
        // The serials continue after replay on both paths alike.
        e.execute("INSERT INTO ins VALUES (NULL, 1, 1, 'x', true)")
            .unwrap();
        e.copy_from_str(
            "cp",
            None,
            "id,i,f,t,b\n,1,1,x,true",
            &CsvOptions::default(),
        )
        .unwrap();
        compare(&mut e);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cell that is not a literal is bound and evaluated on its own: it
    /// stores what `SELECT <cell>` answers, coerced to the column type, and
    /// one failing cell deep in a large INSERT keeps its error text and
    /// appends nothing.
    #[test]
    fn expression_cells_store_what_select_answers() {
        let cells = [
            ["-1", "1 + 1", "'3'::int", "'a' || 'b'"],
            ["-0.0", "2.5 * 2", "7 / 2", "upper('é')"],
            [
                "NULL::int",
                "-(-9223372036854775807)",
                "CAST('1.5' AS float)",
                "1 < 2",
            ],
        ];
        let types = [
            DataType::Int,
            DataType::Float,
            DataType::Float,
            DataType::Text,
        ];
        let mut e = engine();
        e.execute("CREATE TABLE x (i int, f float, g float, t text)")
            .unwrap();
        for row in &cells {
            e.execute(&format!("INSERT INTO x VALUES ({})", row.join(", ")))
                .unwrap();
            let selected = e
                .query(&format!("SELECT {}", row.join(", ")))
                .unwrap()
                .rows
                .remove(0);
            let want: Vec<Value> = selected
                .into_iter()
                .zip(&types)
                .map(|(v, ty)| v.cast(ty).unwrap_or(v))
                .collect();
            let stored = e
                .query("SELECT i, f, g, t FROM x ORDER BY ctid DESC LIMIT 1")
                .unwrap()
                .rows
                .remove(0);
            assert_eq!(stored, want, "{row:?}");
        }
        let rows: Vec<String> = (0..1000)
            .map(|k| match k {
                699 => "(1/0, 0.5, 1, 'r')".to_string(),
                k => format!("({k}, 0.5, 1, 'r{k}')"),
            })
            .collect();
        let err = e
            .execute(&format!("INSERT INTO x VALUES {}", rows.join(", ")))
            .unwrap_err();
        assert_eq!(err.to_string(), "execution error: division by zero");
        assert_eq!(count_of(&mut e, "x"), Value::Int(3));
    }

    #[test]
    fn i64_min_reads_as_a_literal_and_a_parameter() {
        let mut e = engine();
        let min = Value::Int(i64::MIN);
        let r = e
            .query("SELECT -9223372036854775808, -9223372036854775808::text")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![min.clone(), Value::text("-9223372036854775808")]]
        );
        e.execute("CREATE TABLE m (a int)").unwrap();
        e.execute("INSERT INTO m VALUES (-9223372036854775808), (9223372036854775807), (-1)")
            .unwrap();
        let r = e
            .query("SELECT a FROM m WHERE a = -9223372036854775808")
            .unwrap();
        assert_eq!(r.rows, vec![vec![min.clone()]]);
        let byval = "SELECT a FROM m WHERE a = $1";
        e.prepare(byval).unwrap();
        let params = crate::parse_param_values("-9223372036854775808").unwrap();
        assert_eq!(params, vec![min.clone()]);
        let r = run_with(&mut e, byval, &params).unwrap();
        assert_eq!(r.rows, vec![vec![min]]);
        // The magnitude alone is out of `int8` range, as before.
        let bad = "bad numeric literal 9223372036854775808";
        for sql in [
            "SELECT 9223372036854775808",
            "SELECT 1 - 9223372036854775808",
            "INSERT INTO m VALUES (9223372036854775808)",
        ] {
            let err = e.execute(sql).unwrap_err().to_string();
            assert!(err.contains(bad), "{sql}: {err}");
        }
        let err = crate::parse_param_values("9223372036854775808").unwrap_err();
        assert!(err.to_string().contains(bad), "{err}");
        assert!(e.execute("SELECT -9223372036854775809").is_err());
    }

    #[test]
    fn durable_engine_drop_table_replays() {
        let dir = durable_dir("drop");
        {
            let mut e =
                Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
            e.execute_script(
                "CREATE TABLE keep (a int); INSERT INTO keep VALUES (1);
                 CREATE TABLE gone (b int); INSERT INTO gone VALUES (2);
                 DROP TABLE gone;",
            )
            .unwrap();
            // DROP TABLE IF EXISTS of a missing table must not log.
            e.execute("DROP TABLE IF EXISTS never_existed").unwrap();
        }
        let mut e =
            Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
        assert_eq!(e.catalog().table_names(), vec!["keep"]);
        assert!(e.query("SELECT b FROM gone").is_err());
        assert!(e.recovery_report().unwrap().notes.is_empty());
    }

    #[test]
    fn unlogged_copy_on_durable_engine_logs_and_defers_nothing() {
        let dir = durable_dir("unlogged-copy");
        let mut e =
            Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Always).unwrap();
        e.begin_commit_group();
        e.set_unlogged(true);
        let appended = |e: &Engine| e.storage_stats().unwrap().wal.records_appended;
        let before = appended(&e);
        e.execute("CREATE TABLE scratch (a int, b text)").unwrap();
        e.copy_from_str("scratch", None, "a,b\n1,x\n2,y\n", &CsvOptions::default())
            .unwrap();
        e.execute_script(
            "INSERT INTO scratch VALUES (3, 'z');
             CREATE TABLE gone (a int); INSERT INTO gone VALUES (1); DROP TABLE gone;",
        )
        .unwrap();
        assert_eq!(e.group_pending(), 0, "unlogged writes left an undo entry");
        assert_eq!(appended(&e), before, "unlogged writes reached the WAL");
        e.set_unlogged(false);
        assert_eq!(e.end_commit_group().unwrap(), 0);
        assert_eq!(e.query("SELECT a FROM scratch").unwrap().rows.len(), 3);
    }

    #[test]
    fn volatile_engine_has_no_storage() {
        let e = engine();
        assert!(!e.is_durable());
        assert!(e.recovery_report().is_none());
        assert!(e.storage_stats().is_none());
    }

    #[test]
    fn left_join_pads_nulls() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE a (k int); INSERT INTO a VALUES (1), (2);
             CREATE TABLE b (k int, v text); INSERT INTO b VALUES (1, 'x');",
        )
        .unwrap();
        let r = e
            .query("SELECT a.k, v FROM a LEFT JOIN b ON a.k = b.k ORDER BY a.k")
            .unwrap();
        assert_eq!(
            r.rows,
            vec![
                vec![Value::Int(1), Value::text("x")],
                vec![Value::Int(2), Value::Null]
            ]
        );
    }

    // ---- tracing & EXPLAIN ANALYZE ----------------------------------------

    /// Orders/customers fixture for the join+filter+agg profile tests.
    fn analyze_fixture(mut e: Engine) -> Engine {
        e.execute_script(
            "CREATE TABLE orders (id int, cust int, amount int);
             INSERT INTO orders VALUES (1, 1, 10), (2, 1, 20), (3, 2, 30), (4, 3, 5);
             CREATE TABLE custs (id int, region text);
             INSERT INTO custs VALUES (1, 'n'), (2, 's'), (3, 'n');",
        )
        .unwrap();
        e
    }

    const ANALYZE_SQL: &str = "WITH big AS (SELECT cust, amount FROM orders WHERE amount > 9)
         SELECT region, count(*) AS n
         FROM big INNER JOIN custs ON big.cust = custs.id
         GROUP BY region";

    /// Operator row counts must equal the cardinalities the same engine
    /// reports through plain queries, under both CTE personalities.
    fn assert_analyze_cardinalities(mut e: Engine) {
        let count = |e: &mut Engine, sql: &str| -> u64 {
            match &e.query(sql).unwrap().rows[0][0] {
                Value::Int(n) => *n as u64,
                other => panic!("expected int count, got {other:?}"),
            }
        };
        let scan_rows = count(&mut e, "SELECT count(*) FROM orders");
        let filter_rows = count(&mut e, "SELECT count(*) FROM orders WHERE amount > 9");
        let join_rows = count(
            &mut e,
            "SELECT count(*) FROM orders INNER JOIN custs ON orders.cust = custs.id
             WHERE amount > 9",
        );

        let (rel, profile) = e.query_profiled(ANALYZE_SQL).unwrap();
        assert_eq!(rel.rows.len(), 2, "two regions survive");
        assert_eq!(profile.result_rows, rel.rows.len() as u64);
        assert_eq!(profile.find("Scan Table orders").unwrap().rows, scan_rows);
        assert_eq!(profile.find("Filter").unwrap().rows, filter_rows);
        let join = profile.find("InnerJoin").unwrap();
        assert_eq!(join.rows, join_rows);
        let agg = profile.find("Aggregate").unwrap();
        assert_eq!(agg.rows, rel.rows.len() as u64);
        assert_eq!(agg.rows_in, join_rows, "aggregate consumes the join output");
        for op in &profile.ops {
            assert!(op.executed, "every operator ran: {}", op.label);
        }
    }

    #[test]
    fn explain_analyze_cardinalities_materialized_ctes() {
        let e = analyze_fixture(pg());
        assert_analyze_cardinalities(e);
        // The CTE block itself is visible with its materialized cardinality.
        let mut e = analyze_fixture(pg());
        let (_, profile) = e.query_profiled(ANALYZE_SQL).unwrap();
        let cte = profile.find("CTE 0 [big] (materialized)").unwrap();
        assert_eq!(cte.rows, 3);
        assert!(cte.executed);
    }

    #[test]
    fn explain_analyze_cardinalities_inlined_ctes() {
        let e = analyze_fixture(engine());
        assert_analyze_cardinalities(e);
        // Inlining leaves no CTE block in the profile.
        let mut e = analyze_fixture(engine());
        let (_, profile) = e.query_profiled(ANALYZE_SQL).unwrap();
        assert!(profile.find("CTE").is_none());
    }

    #[test]
    fn explain_analyze_statement_renders_annotated_plan() {
        let mut e = analyze_fixture(pg());
        let rel = e.query(&format!("EXPLAIN ANALYZE {ANALYZE_SQL}")).unwrap();
        assert_eq!(rel.columns, vec!["QUERY PLAN"]);
        let text: Vec<String> = rel
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Text(s) => s.clone(),
                other => panic!("plan line should be text, got {other:?}"),
            })
            .collect();
        let text = text.join("\n");
        assert!(
            text.contains("CTE 0 [big] (materialized) (rows=3"),
            "{text}"
        );
        assert!(
            text.contains("Aggregate groups=1 aggs=[count(*)] (rows=2"),
            "{text}"
        );
        assert!(text.contains("time="), "{text}");
        assert!(text.contains("Execution: rows=2"), "{text}");

        // Plain EXPLAIN through the statement path matches Engine::explain.
        let plain = e.query(&format!("EXPLAIN {ANALYZE_SQL}")).unwrap();
        let plain: Vec<String> = plain
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Text(s) => s.clone(),
                other => panic!("plan line should be text, got {other:?}"),
            })
            .collect();
        assert_eq!(plain.join("\n"), e.explain(ANALYZE_SQL).unwrap().trim_end());
    }

    #[test]
    fn phase_trace_accumulates_and_can_be_disabled() {
        let mut e = analyze_fixture(engine());
        assert!(e.trace().enabled());
        // The fixture script already recorded lex/parse and execute samples.
        assert!(e.trace().phase(Phase::Lex).count() >= 1);
        assert!(e.trace().phase(Phase::Parse).count() >= 1);
        let executes = e.trace().phase(Phase::Execute).count();
        e.query(ANALYZE_SQL).unwrap();
        assert_eq!(e.trace().phase(Phase::Execute).count(), executes + 1);
        assert!(e.trace().phase(Phase::Bind).count() >= 1);
        assert!(e.trace().phase(Phase::Optimize).count() >= 1);
        let stats = e.trace().render_stats();
        assert!(stats.contains("phase_execute_count"), "{stats}");

        e.set_tracing(false);
        e.reset_trace();
        e.query(ANALYZE_SQL).unwrap();
        assert_eq!(e.trace().phase(Phase::Execute).count(), 0);
        assert!(e.trace().render_stats().is_empty());
    }

    #[test]
    fn durable_engine_traces_wal_phases() {
        let dir = durable_dir("trace_wal");
        let mut e =
            Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Always).unwrap();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);")
            .unwrap();
        assert!(e.trace().phase(Phase::WalAppend).count() >= 2);
        assert!(e.trace().phase(Phase::Fsync).count() >= 2);
        let wal = e.storage_stats().unwrap().wal;
        assert!(wal.append_us >= wal.fsync_us);
    }
}
