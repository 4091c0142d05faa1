//! The engine façade: parse → bind → optimize → execute.

use crate::ast::Statement;
use crate::binder::bind_select;
use crate::cache::{collect_table_deps, CachedPlan, PlanCache, PlanCacheStats};
use crate::catalog::{Catalog, ViewDef};
use crate::colexec;
use crate::durable::{DurableBackend, MemoryBackend, StorageBackend};
use crate::error::{Result, SqlError};
use crate::exec::{ExecContext, ExecStats};
use crate::optimizer::optimize;
use crate::plan::{PlanRoot, Schema};
use crate::profile::EngineProfile;
use crate::storage::{Heap, Relation, ResultSet, StoredView, Table};
use crate::trace::{EngineTrace, Phase, QueryProfile};
use elephant_store::{
    CheckpointStats, FsyncPolicy, RecoveryReport, StoreStats, TableImage, WalHandle, WalRecord,
};
use etypes::{Column, ColumnChunk, CsvOptions, DataType, Value};
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
    queries_run: u64,
    plan_cache: PlanCache,
    prepared: HashMap<String, String>,
    backend: Box<dyn StorageBackend>,
    trace: EngineTrace,
    capture_profiles: bool,
    last_profile: Option<QueryProfile>,
    health: Health,
    /// When set, mutations bypass the WAL *and* the read-only gate: the
    /// inspection path recreates its tables on every run, so logging them
    /// would only bloat the WAL — and refusing them would take inspection
    /// down with the first durability failure.
    unlogged: bool,
    statement_timeout: Option<Duration>,
    /// Set by [`Engine::pin_read_only`]: the read-only state is a *role*
    /// (replica serving shipped WAL), not a recoverable failure, so writes
    /// are refused up front — even on volatile engines, which never reach
    /// the WAL-side health gate — and `CHECKPOINT` does not re-arm.
    pinned_read_only: bool,
    /// Checkpoint automatically once the WAL grows past this many bytes.
    auto_checkpoint_wal_bytes: Option<u64>,
    /// Auto-checkpoints taken so far (surfaced in `STATS`).
    auto_checkpoints: u64,
    /// True between [`Engine::begin_commit_group`] and
    /// [`Engine::end_commit_group`]: logged mutations record an undo entry
    /// so a failed group fsync can unwind them all.
    in_commit_group: bool,
    /// Undo entries for mutations whose WAL frames are deferred in the open
    /// group window, in apply order.
    group_undo: Vec<GroupUndo>,
    /// Bumped whenever `group_undo` is retired without unwinding (group
    /// fsync succeeded, or a checkpoint made the entries snapshot-durable).
    /// Callers holding per-statement marks compare epochs to know whether
    /// "this statement deferred its commit" is still true.
    group_epoch: u64,
    /// While `Some`, [`Engine::log_durable`] diverts records here instead of
    /// the backend: the 2PC prepare path runs statements normally, captures
    /// their WAL records, and stages the batch as one `PREPARE` frame.
    txn_capture: Option<Vec<WalRecord>>,
    /// A prepared-but-undecided cross-shard transaction: its in-memory
    /// effects are visible, its WAL records sit in a fsynced `PREPARE`
    /// frame, and these undo entries unwind it on abort.
    prepared_txn: Option<PreparedTxn>,
}

/// See [`Engine::prepare_txn`].
struct PreparedTxn {
    txn_id: u64,
    undo: Vec<GroupUndo>,
}

/// How to undo one logged-but-not-yet-group-committed mutation. Mirrors the
/// per-statement rollback paths exactly: cut appended rows back out,
/// drop an unlogged CREATE, resurrect an unlogged DROP.
enum GroupUndo {
    /// `CREATE TABLE name` — undo by dropping it.
    Create {
        /// The created table's name.
        name: String,
    },
    /// `DROP TABLE` — undo by recreating the saved table.
    Drop {
        /// The dropped table, rows and serials included.
        saved: Table,
    },
    /// `INSERT`/`COPY` — undo by truncating back to the pre-statement row
    /// count and restoring serial counters.
    Append {
        /// Target table.
        table: String,
        /// Row count before the statement.
        first_new_row: usize,
        /// Serial counters before the statement.
        saved_serials: Vec<(usize, i64)>,
    },
}

impl Engine {
    /// Create a volatile engine with the given execution profile.
    pub fn new(profile: EngineProfile) -> Engine {
        Engine::with_backend(profile, Box::new(MemoryBackend))
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
        let (backend, tables) = DurableBackend::open_with_decisions(dir, fsync, txn_decisions)?;
        let mut engine = Engine::with_backend(profile, Box::new(backend));
        for table in tables {
            engine.catalog.create_table(table)?;
        }
        Ok(engine)
    }

    fn with_backend(profile: EngineProfile, backend: Box<dyn StorageBackend>) -> Engine {
        Engine {
            catalog: Catalog::new(),
            profile,
            stats: EngineStats::default(),
            queries_run: 0,
            plan_cache: PlanCache::default(),
            prepared: HashMap::new(),
            backend,
            trace: EngineTrace::default(),
            capture_profiles: false,
            last_profile: None,
            health: Health::Healthy,
            unlogged: false,
            statement_timeout: None,
            pinned_read_only: false,
            auto_checkpoint_wal_bytes: None,
            auto_checkpoints: 0,
            in_commit_group: false,
            group_undo: Vec::new(),
            group_epoch: 0,
            txn_capture: None,
            prepared_txn: None,
        }
    }

    /// Open a group-commit window: until [`Engine::end_commit_group`],
    /// logged mutations on an `always`-fsync durable backend defer their
    /// fsync *and* their durability acknowledgment to the window's single
    /// closing fsync. Each such mutation records an undo entry so the whole
    /// window can be unwound if that fsync fails. A no-op on volatile
    /// engines and lax fsync policies (their appends never fsync per
    /// record, so there is nothing to defer).
    pub fn begin_commit_group(&mut self) {
        self.in_commit_group = true;
        self.backend.begin_group();
    }

    /// Close the group-commit window with one fsync; returns how many
    /// deferred WAL records it acknowledged. On failure every deferred
    /// record was already cut out of the log, so the matching in-memory
    /// effects are unwound here (in reverse apply order), dependent cached
    /// plans are invalidated, and the engine degrades to
    /// [`Health::ReadOnly`] — the same contract as a failed per-statement
    /// append.
    pub fn end_commit_group(&mut self) -> Result<u64> {
        self.in_commit_group = false;
        match self.backend.end_group() {
            Ok(n) => {
                if !self.group_undo.is_empty() {
                    self.group_undo.clear();
                    self.group_epoch += 1;
                }
                Ok(n)
            }
            Err(e) => {
                let undo = std::mem::take(&mut self.group_undo);
                self.unwind_undo(undo);
                self.group_epoch += 1;
                if !self.pinned_read_only {
                    self.health = Health::ReadOnly {
                        reason: e.to_string(),
                    };
                }
                Err(e)
            }
        }
    }

    /// Unwind a list of undo entries in reverse apply order: the shared
    /// rollback path for a failed group fsync, a failed 2PC prepare, and a
    /// 2PC abort. Mirrors the per-statement rollback paths exactly.
    fn unwind_undo(&mut self, undo: Vec<GroupUndo>) {
        for entry in undo.into_iter().rev() {
            match entry {
                GroupUndo::Create { name } => {
                    let _ = self.catalog.drop(&name, false, true);
                    self.plan_cache.invalidate_table(&name);
                }
                GroupUndo::Drop { saved } => {
                    let name = saved.name.clone();
                    let _ = self.catalog.create_table(saved);
                    self.plan_cache.invalidate_table(&name);
                }
                GroupUndo::Append {
                    table,
                    first_new_row,
                    saved_serials,
                } => self.rollback_append(&table, first_new_row, saved_serials),
            }
        }
    }

    /// Statements whose durability is deferred in the open group window.
    pub fn group_pending(&self) -> usize {
        self.group_undo.len()
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
    /// and rollback paths, but their WAL records are captured and staged as
    /// a single `PREPARE{txn_id, records}` frame, fsynced before this
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
        if self.in_commit_group {
            return Err(SqlError::exec(
                "2PC prepare inside an open group-commit window",
            ));
        }
        if let Health::ReadOnly { reason } = &self.health {
            return Err(SqlError::ReadOnly(reason.clone()));
        }
        self.txn_capture = Some(Vec::new());
        let saved_undo = std::mem::take(&mut self.group_undo);
        let result = self.execute_script(sql);
        let captured = self.txn_capture.take().unwrap_or_default();
        let undo = std::mem::replace(&mut self.group_undo, saved_undo);
        match result {
            Ok(mut outcomes) => {
                if !captured.is_empty() {
                    if let Err(e) = self.backend.log_txn_prepare(txn_id, captured) {
                        // The prepare never became durable: unwind the
                        // in-memory effects and degrade, the same contract
                        // as a failed per-statement append.
                        self.unwind_undo(undo);
                        if !self.pinned_read_only {
                            self.health = Health::ReadOnly {
                                reason: e.to_string(),
                            };
                        }
                        return Err(e);
                    }
                }
                self.prepared_txn = Some(PreparedTxn { txn_id, undo });
                Ok(outcomes.pop().unwrap_or_default())
            }
            Err(e) => {
                // A statement failed mid-slice: earlier statements already
                // applied in memory but nothing reached the WAL, so unwind
                // them and vote abort by reporting the error.
                self.unwind_undo(undo);
                Err(e)
            }
        }
    }

    /// Phase two, commit: append + fsync the `COMMIT` outcome marker and
    /// retire the prepared transaction's undo entries. On a marker append
    /// failure the in-memory effects are **kept** — the coordinator already
    /// durably decided commit, recovery will apply the group from the
    /// prepare frame plus the decision log — but the engine degrades to
    /// read-only until a checkpoint reconciles disk with memory.
    pub fn commit_prepared(&mut self, txn_id: u64) -> Result<()> {
        let txn = self
            .prepared_txn
            .take()
            .ok_or_else(|| SqlError::exec("no prepared transaction to commit"))?;
        if txn.txn_id != txn_id {
            let have = txn.txn_id;
            self.prepared_txn = Some(txn);
            return Err(SqlError::exec(format!(
                "commit for txn {txn_id} but txn {have} is prepared"
            )));
        }
        self.group_epoch += 1;
        if let Err(e) = self.backend.log_txn_commit(txn_id) {
            if !self.pinned_read_only {
                self.health = Health::ReadOnly {
                    reason: e.to_string(),
                };
            }
            return Err(e);
        }
        Ok(())
    }

    /// Phase two, abort: unwind the prepared transaction's in-memory
    /// effects (reverse apply order), then append the `ABORT` outcome
    /// marker. The unwind happens regardless of the marker append's fate:
    /// presumed-abort guarantees recovery discards the group either way, so
    /// memory must match that outcome now.
    pub fn abort_prepared(&mut self, txn_id: u64) -> Result<()> {
        let txn = self
            .prepared_txn
            .take()
            .ok_or_else(|| SqlError::exec("no prepared transaction to abort"))?;
        if txn.txn_id != txn_id {
            let have = txn.txn_id;
            self.prepared_txn = Some(txn);
            return Err(SqlError::exec(format!(
                "abort for txn {txn_id} but txn {have} is prepared"
            )));
        }
        self.unwind_undo(txn.undo);
        self.group_epoch += 1;
        if let Err(e) = self.backend.log_txn_abort(txn_id) {
            if !self.pinned_read_only {
                self.health = Health::ReadOnly {
                    reason: e.to_string(),
                };
            }
            return Err(e);
        }
        Ok(())
    }

    /// The id of the currently prepared-but-undecided transaction, if any.
    pub fn prepared_txn_id(&self) -> Option<u64> {
        self.prepared_txn.as_ref().map(|t| t.txn_id)
    }

    /// Record how to undo a mutation whose WAL frame is deferred in the
    /// open group window. Outside a window — or when nothing was actually
    /// logged (volatile backend, unlogged mode) — there is nothing a group
    /// failure could unwind, so nothing is recorded.
    fn note_group_undo(&mut self, undo: GroupUndo) {
        if self.unlogged {
            return;
        }
        // Inside a 2PC prepare capture, *every* mutation records its undo
        // (abort must unwind even on a volatile backend); inside a plain
        // group window, only durably logged mutations can be unwound by a
        // failed group fsync.
        if self.txn_capture.is_some() || (self.in_commit_group && self.backend.is_durable()) {
            self.group_undo.push(undo);
        }
    }

    /// The engine's durability health. Volatile engines are always
    /// [`Health::Healthy`] (there is no disk to diverge from).
    pub fn health(&self) -> &Health {
        &self.health
    }

    /// Pin the engine into [`Health::ReadOnly`] permanently: replicas serve
    /// reads and apply shipped WAL records, but refuse every client write —
    /// including on volatile backends, where the WAL-side health gate never
    /// fires — and no `CHECKPOINT` re-arms them. There is deliberately no
    /// unpin: promotion means restarting in leader mode.
    pub fn pin_read_only(&mut self, reason: impl Into<String>) {
        self.health = Health::ReadOnly {
            reason: reason.into(),
        };
        self.pinned_read_only = true;
    }

    /// True when [`Engine::pin_read_only`] was called.
    pub fn is_pinned_read_only(&self) -> bool {
        self.pinned_read_only
    }

    /// Checkpoint automatically once the WAL file grows past `bytes`
    /// (checked after each logged mutation). Bounds both recovery time and
    /// replication-bootstrap size. `None` disables the policy.
    pub fn set_auto_checkpoint_wal_bytes(&mut self, bytes: Option<u64>) {
        self.auto_checkpoint_wal_bytes = bytes.filter(|b| *b > 0);
    }

    /// Auto-checkpoints taken since open.
    pub fn auto_checkpoints(&self) -> u64 {
        self.auto_checkpoints
    }

    /// The durable backend's replication surface (WAL + snapshot paths and
    /// the committed-LSN watermark); `None` on volatile engines.
    pub fn wal_handle(&self) -> Option<WalHandle> {
        self.backend.wal_handle()
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

    /// The configured per-statement timeout.
    pub fn statement_timeout(&self) -> Option<Duration> {
        self.statement_timeout
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
    /// installed.
    pub fn take_phase_spans(&mut self) -> Vec<(crate::trace::Phase, u64)> {
        self.trace.take_statement_spans()
    }

    /// Capture a per-operator [`QueryProfile`] for every query from now on
    /// (slow-query logging); `EXPLAIN ANALYZE` captures one regardless.
    pub fn set_capture_profiles(&mut self, on: bool) {
        self.capture_profiles = on;
    }

    /// The operator profile of the most recent query, when capture was on.
    pub fn last_profile(&self) -> Option<&QueryProfile> {
        self.last_profile.as_ref()
    }

    /// The active profile.
    pub fn profile(&self) -> &EngineProfile {
        &self.profile
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Number of SELECT queries executed.
    pub fn queries_run(&self) -> u64 {
        self.queries_run
    }

    /// Reset statistics (between benchmark phases).
    pub fn reset_stats(&mut self) {
        self.stats = EngineStats::default();
        self.queries_run = 0;
    }

    /// Direct catalog access (tests, tooling).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Mutable catalog access (bulk-loading helpers). Changes made through
    /// this handle bypass the WAL: on a durable engine they are volatile
    /// until the next [`Engine::checkpoint`].
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// True when this engine logs mutations to durable storage.
    pub fn is_durable(&self) -> bool {
        self.backend.is_durable()
    }

    /// What recovery found when a durable engine was opened; `None` on
    /// volatile engines.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.backend.recovery_report()
    }

    /// Live storage counters (WAL appends, fsyncs, checkpoints); `None` on
    /// volatile engines.
    pub fn storage_stats(&self) -> Option<StoreStats> {
        self.backend.store_stats()
    }

    /// Snapshot every base table and truncate the WAL. Returns `None` on a
    /// volatile engine (nothing to checkpoint). Materialized state created
    /// through [`Engine::catalog_mut`] becomes durable here too.
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
        let stats = self.backend.checkpoint(&self.catalog)?;
        if stats.is_some() && self.health != Health::Healthy && !self.pinned_read_only {
            self.health = Health::Healthy;
        }
        if stats.is_some() && !self.group_undo.is_empty() {
            // The snapshot covers every deferred mutation (it was written
            // from memory, which includes them) and the WAL layer advanced
            // its watermark over them at truncation — they are durable now,
            // so a later group failure must not unwind them.
            self.group_undo.clear();
            self.group_epoch += 1;
        }
        Ok(stats)
    }

    /// Apply one shipped WAL record to the catalog (the replication
    /// follower's write path). Bypasses the WAL and the read-only gate —
    /// the record *is* the leader's log — and mirrors the recovery replay
    /// in `elephant-store` exactly: inserts land verbatim (rows were logged
    /// post-serial-fill, so ctids and serial counters reproduce), updates
    /// and deletes address rows by ctid. DDL invalidates dependent cached
    /// plans, exactly as the leader's own DDL did.
    pub fn apply_wal_record(&mut self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::CreateTable {
                name,
                columns,
                types,
            } => {
                self.catalog
                    .create_table(Table::empty(name.clone(), columns, types))?;
                self.plan_cache.invalidate_table(&name);
            }
            WalRecord::DropTable { name } => {
                self.catalog.drop(&name, false, false)?;
                self.plan_cache.invalidate_table(&name);
            }
            WalRecord::Insert { table, rows } => {
                let t = self
                    .catalog
                    .table_mut(&table)
                    .ok_or_else(|| SqlError::catalog(format!("unknown table '{table}'")))?;
                let width = t.columns.len();
                for row in &rows {
                    if row.len() != width {
                        return Err(SqlError::exec(format!(
                            "replicated row arity {} vs table '{table}' arity {width}",
                            row.len()
                        )));
                    }
                }
                for row in &rows {
                    for (idx, next) in &mut t.serial_next {
                        if let Some(Value::Int(v)) = row.get(*idx) {
                            *next = (*next).max(v + 1);
                        }
                    }
                }
                t.heap.extend(rows);
            }
            // Rare paths: rewrite the whole heap rather than patch sealed
            // chunks in place.
            WalRecord::Update { table, rows } => {
                let t = self
                    .catalog
                    .table_mut(&table)
                    .ok_or_else(|| SqlError::catalog(format!("unknown table '{table}'")))?;
                let mut all = t.heap.to_rows();
                for (ctid, row) in rows {
                    let slot = all.get_mut(ctid as usize).ok_or_else(|| {
                        SqlError::exec(format!("update of missing ctid {ctid} in '{table}'"))
                    })?;
                    *slot = row;
                }
                t.heap.replace_rows(all);
            }
            WalRecord::Delete { table, ctids } => {
                let t = self
                    .catalog
                    .table_mut(&table)
                    .ok_or_else(|| SqlError::catalog(format!("unknown table '{table}'")))?;
                let mut ids: Vec<usize> = ctids.iter().map(|c| *c as usize).collect();
                ids.sort_unstable();
                ids.dedup();
                if let Some(&id) = ids.last().filter(|&&id| id >= t.heap.len()) {
                    return Err(SqlError::exec(format!(
                        "delete of missing ctid {id} in '{table}'"
                    )));
                }
                let mut doomed = ids.into_iter().peekable();
                let kept = t
                    .heap
                    .to_rows()
                    .into_iter()
                    .enumerate()
                    .filter(|(rid, _)| doomed.next_if_eq(rid).is_none())
                    .map(|(_, row)| row)
                    .collect();
                t.heap.replace_rows(kept);
            }
            WalRecord::TxnPrepare { txn_id, .. }
            | WalRecord::TxnCommit { txn_id }
            | WalRecord::TxnAbort { txn_id }
            | WalRecord::TxnDecision { txn_id, .. } => {
                // Replication is single-shard only and 2PC is multi-shard
                // only, so a shipped transaction marker is a protocol
                // violation, not something to apply.
                return Err(SqlError::exec(format!(
                    "transaction marker for txn {txn_id} cannot be replicated"
                )));
            }
        }
        Ok(())
    }

    /// Replace the whole catalog with the given table images (replication
    /// snapshot bootstrap). Views and every cached plan are dropped: the
    /// follower's state is now whatever the leader's snapshot says it is.
    pub fn reset_from_images(&mut self, images: Vec<TableImage>) -> Result<()> {
        let names: Vec<String> = self
            .catalog
            .table_names()
            .into_iter()
            .map(String::from)
            .collect();
        for name in names {
            self.catalog.drop(&name, false, false)?;
        }
        self.catalog.clear_views();
        for image in images {
            self.catalog
                .create_table(crate::durable::image_to_table(image))?;
        }
        self.plan_cache.invalidate();
        Ok(())
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
                    .map(crate::durable::table_to_image)
                    .ok_or_else(|| SqlError::catalog(format!("unknown table '{n}'")))
            })
            .collect()
    }

    /// Install a shipped table image as a transient catalog table — the
    /// gather phase of a cross-shard read. Bypasses the WAL (the owning
    /// shard already made the data durable); pair with
    /// [`Engine::remove_foreign_table`] once the query has run.
    pub fn install_foreign_table(&mut self, image: TableImage) -> Result<()> {
        let name = image.name.clone();
        self.catalog
            .create_table(crate::durable::image_to_table(image))?;
        self.plan_cache.invalidate_table(&name);
        Ok(())
    }

    /// Remove a table installed by [`Engine::install_foreign_table`],
    /// invalidating any plan cached against it meanwhile.
    pub fn remove_foreign_table(&mut self, name: &str) {
        let _ = self.catalog.drop(name, false, true);
        self.plan_cache.invalidate_table(name);
    }

    /// Execute one statement.
    pub fn execute(&mut self, sql: &str) -> Result<ExecOutcome> {
        let mut outcomes = self.execute_script(sql)?;
        outcomes
            .pop()
            .ok_or_else(|| SqlError::exec("empty statement"))
    }

    /// Execute a `;`-separated script, returning one outcome per statement.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<ExecOutcome>> {
        let statements = self.parse_traced(sql)?;
        let mut outcomes = Vec::with_capacity(statements.len());
        for stmt in statements {
            outcomes.push(self.execute_statement(stmt)?);
        }
        Ok(outcomes)
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

    /// Log one mutation, attributing the whole append (fsync included) to
    /// the WAL-append phase and the fsync share to its own phase.
    ///
    /// This is also the health gate: a [`Health::ReadOnly`] engine refuses
    /// the log *before* touching the backend, and a backend failure
    /// transitions the engine to read-only. Either way an `Err` obliges
    /// the caller to roll the already-applied in-memory mutation back —
    /// every call site does, so memory never diverges from what replay
    /// will reconstruct. Unlogged mode (inspection) bypasses both.
    fn log_durable(&mut self, record: &WalRecord) -> Result<()> {
        if !self.logs_mutations() {
            return Ok(());
        }
        if let Health::ReadOnly { reason } = &self.health {
            return Err(SqlError::ReadOnly(reason.clone()));
        }
        if let Some(captured) = &mut self.txn_capture {
            // 2PC prepare capture: the record is staged, not appended — it
            // becomes durable inside the single PREPARE frame.
            captured.push(record.clone());
            return Ok(());
        }
        let result = if self.trace.enabled() {
            let before = self
                .backend
                .store_stats()
                .map(|s| (s.wal.fsyncs, s.wal.fsync_us));
            let started = Instant::now();
            let result = self.backend.log(record);
            self.trace
                .record_duration(Phase::WalAppend, started.elapsed());
            if let (Some((fsyncs, fsync_us)), Some(after)) = (before, self.backend.store_stats()) {
                if after.wal.fsyncs > fsyncs {
                    self.trace
                        .record_us(Phase::Fsync, after.wal.fsync_us.saturating_sub(fsync_us));
                }
            }
            result
        } else {
            self.backend.log(record)
        };
        if let Err(e) = result {
            self.health = Health::ReadOnly {
                reason: e.to_string(),
            };
            return Err(e);
        }
        Ok(())
    }

    /// Whether [`Engine::log_durable`] would log a mutation right now:
    /// callers that must build the record first (a copy of the loaded rows)
    /// ask before paying for it.
    fn logs_mutations(&self) -> bool {
        !self.unlogged && self.backend.is_durable()
    }

    /// Execute one parsed statement.
    pub fn execute_statement(&mut self, stmt: Statement) -> Result<ExecOutcome> {
        let is_table_write = statement_writes_tables(&stmt);
        if is_table_write && self.pinned_read_only && !self.unlogged {
            if let Health::ReadOnly { reason } = &self.health {
                return Err(SqlError::ReadOnly(reason.clone()));
            }
        }
        let outcome = self.execute_statement_inner(stmt)?;
        if is_table_write && !self.unlogged {
            self.maybe_auto_checkpoint();
        }
        Ok(outcome)
    }

    /// Checkpoint when the WAL has outgrown the configured budget. The
    /// triggering statement already succeeded and is durable, so a failed
    /// auto-checkpoint is not its failure: compaction is retried after the
    /// next logged write (and `log_durable` degrades health on real WAL
    /// faults anyway).
    fn maybe_auto_checkpoint(&mut self) {
        if self.txn_capture.is_some() {
            // A checkpoint mid-prepare would snapshot uncommitted state.
            return;
        }
        let Some(budget) = self.auto_checkpoint_wal_bytes else {
            return;
        };
        let Some(stats) = self.backend.store_stats() else {
            return;
        };
        if stats.wal.bytes >= budget && self.checkpoint().map(|s| s.is_some()).unwrap_or(false) {
            self.auto_checkpoints += 1;
        }
    }

    fn execute_statement_inner(&mut self, stmt: Statement) -> Result<ExecOutcome> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let (names, types): (Vec<String>, Vec<DataType>) =
                    columns.into_iter().map(|c| (c.name, c.ty)).unzip();
                self.catalog.create_table(Table::empty(
                    name.clone(),
                    names.clone(),
                    types.clone(),
                ))?;
                if let Err(e) = self.log_durable(&WalRecord::CreateTable {
                    name: name.clone(),
                    columns: names,
                    types,
                }) {
                    // Unlogged DDL must not outlive the failed statement:
                    // replay would never recreate it.
                    let _ = self.catalog.drop(&name, false, true);
                    return Err(e);
                }
                self.note_group_undo(GroupUndo::Create { name: name.clone() });
                self.plan_cache.invalidate_table(&name);
                Ok(no_rows(0))
            }
            Statement::Drop {
                name,
                is_view,
                if_exists,
            } => {
                // Keep a copy so a failed WAL append can resurrect the
                // table: an unlogged drop would survive in memory but not
                // in replay.
                let saved = (!is_view)
                    .then(|| self.catalog.table(&name).cloned())
                    .flatten();
                self.catalog.drop(&name, is_view, if_exists)?;
                if let Some(saved) = saved {
                    if let Err(e) = self.log_durable(&WalRecord::DropTable { name: name.clone() }) {
                        let _ = self.catalog.create_table(saved);
                        return Err(e);
                    }
                    self.note_group_undo(GroupUndo::Drop { saved });
                }
                self.plan_cache.invalidate_table(&name);
                Ok(no_rows(0))
            }
            Statement::Insert {
                table,
                columns,
                values,
            } => self.insert(&table, columns.as_deref(), &values),
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
                let data = if materialized {
                    Some(self.store_query(&query)?)
                } else {
                    // Validate eagerly so errors surface at CREATE time.
                    bind_select(&self.catalog, &self.profile, &query)?;
                    None
                };
                self.catalog.create_view(ViewDef {
                    name: name.clone(),
                    query,
                    materialized: data,
                })?;
                self.plan_cache.invalidate_table(&name);
                Ok(no_rows(0))
            }
            Statement::Select(query) => {
                let result = self.run_select_cached(&query)?;
                Ok(ExecOutcome {
                    result: Some(result),
                    rows_affected: 0,
                })
            }
            Statement::Explain { analyze, query } => {
                let text = if analyze {
                    let (_, profile) = self.run_query_profiled(&query)?;
                    profile.render()
                } else {
                    let (mut root, _) = bind_select(&self.catalog, &self.profile, &query)?;
                    if self.profile.enable_optimizer {
                        optimize(&mut root);
                    }
                    crate::explain::render_plan(&root)
                };
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

    /// Execute a plain SELECT through the plan cache when it normalizes:
    /// literal constants in top-level WHERE comparisons are lifted into `$n`
    /// placeholders (see [`crate::cache::normalize_select_literals`]) so
    /// point lookups differing only in their constants share one cached
    /// parameterized plan. Queries that don't normalize run unbound as
    /// before.
    fn run_select_cached(&mut self, query: &crate::ast::Query) -> Result<ResultSet> {
        let Some((normalized, values)) = crate::cache::normalize_select_literals(query) else {
            return self.run_query(query);
        };
        // Keyed on the normalized AST (Debug form), prefixed so the keys can
        // never collide with raw-SQL keys from PREPARE/query_cached.
        let key = format!("\u{1f}ast\u{1f}{normalized:?}");
        let cached = match self.plan_cache.get(&key) {
            Some(hit) => hit,
            None => {
                let plan = self.plan_query(&normalized)?;
                self.plan_cache.insert(key, plan.clone());
                plan
            }
        };
        self.run_cached(&cached, &values)
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

    /// Bind, optimize and execute a query to a [`ResultSet`].
    pub fn run_query(&mut self, query: &crate::ast::Query) -> Result<ResultSet> {
        let (root, schema) = self.bind_traced(query)?;
        self.run_bound(&root, &schema)
    }

    /// Bind, optimize and execute a query into a sealed heap (a
    /// materialized view): columnar batches are stored as they are.
    fn store_query(&mut self, query: &crate::ast::Query) -> Result<StoredView> {
        let (root, schema) = self.bind_traced(query)?;
        let chunks = self.execute_bound(&root)?;
        Ok(StoredView {
            columns: schema.names(),
            types: schema.types(),
            heap: Heap::from_chunks(schema.len(), chunks),
        })
    }

    /// Run a query with operator profiling forced on, returning both the
    /// result and its [`QueryProfile`] (the `EXPLAIN ANALYZE` path).
    fn run_query_profiled(
        &mut self,
        query: &crate::ast::Query,
    ) -> Result<(ResultSet, QueryProfile)> {
        let prev = self.capture_profiles;
        self.capture_profiles = true;
        let result = self.run_query(query);
        self.capture_profiles = prev;
        let result = result?;
        let profile = self
            .last_profile
            .clone()
            .ok_or_else(|| SqlError::exec("operator profiling captured nothing"))?;
        Ok((result, profile))
    }

    /// Execute an already bound + optimized plan to a result, kept as the
    /// executor's chunks.
    fn run_bound(&mut self, root: &PlanRoot, schema: &Schema) -> Result<ResultSet> {
        let chunks = self.execute_bound(root)?;
        ResultSet::new(schema.names(), schema.types(), chunks)
    }

    /// Execute a bound plan to batches, folding its counters, trace phase
    /// and operator profile into the engine's.
    fn execute_bound(&mut self, root: &PlanRoot) -> Result<Vec<ColumnChunk>> {
        let mut ctx = ExecContext::new(&self.catalog, &self.profile, root);
        if self.capture_profiles {
            ctx.enable_profiling();
        }
        if let Some(timeout) = self.statement_timeout {
            ctx.set_deadline(Instant::now() + timeout, timeout.as_millis() as u64);
        }
        let started = (self.trace.enabled() || self.capture_profiles).then(Instant::now);
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
        self.queries_run += 1;
        if let Some(profiles) = ctx.take_profiles() {
            self.last_profile = Some(crate::explain::build_query_profile(
                root,
                &profiles,
                elapsed_us.unwrap_or(0),
                output.iter().map(ColumnChunk::len).sum::<usize>() as u64,
            ));
        }
        Ok(output)
    }

    /// Plan `sql` (which must be a single SELECT) into the plan cache
    /// without executing it, unless already cached. Returns true when
    /// planning happened, false on a cache hit.
    pub fn prepare_cached(&mut self, sql: &str) -> Result<bool> {
        if self.plan_cache.contains(sql) {
            return Ok(false);
        }
        let plan = self.plan_select(sql)?;
        self.plan_cache.insert(sql.to_string(), plan);
        Ok(true)
    }

    /// Run a single SELECT through the LRU plan cache: parse + bind +
    /// optimize only on a miss, re-execute the cached plan on a hit.
    pub fn query_cached(&mut self, sql: &str) -> Result<ResultSet> {
        self.query_cached_with(sql, &[])
    }

    /// Run a single SELECT through the plan cache, binding `$n` placeholders
    /// to `params` (1-based: `$1` takes `params[0]`). The parameter count
    /// must match the highest placeholder in the statement exactly.
    pub fn query_cached_with(&mut self, sql: &str, params: &[Value]) -> Result<ResultSet> {
        let cached = match self.plan_cache.get(sql) {
            Some(hit) => hit,
            None => {
                let plan = self.plan_select(sql)?;
                self.plan_cache.insert(sql.to_string(), plan.clone());
                plan
            }
        };
        self.run_cached(&cached, params)
    }

    /// Execute a cached plan: parameter-free plans run the shared `Rc`
    /// directly; parameterized plans are cloned with every `$n` substituted
    /// by its value before execution, so no runtime path ever sees an
    /// unbound parameter.
    fn run_cached(&mut self, cached: &CachedPlan, params: &[Value]) -> Result<ResultSet> {
        if cached.params != params.len() {
            return Err(SqlError::bind(format!(
                "statement needs {} parameter{}, got {}",
                cached.params,
                if cached.params == 1 { "" } else { "s" },
                params.len()
            )));
        }
        if cached.params == 0 {
            // Clone the Rc so execution does not borrow the cache.
            let root = Rc::clone(&cached.root);
            self.run_bound(&root, &cached.schema)
        } else {
            let bound = cached.root.bind_params(params);
            self.run_bound(&bound, &cached.schema)
        }
    }

    fn plan_select(&mut self, sql: &str) -> Result<CachedPlan> {
        let stmt = self.parse_one_traced(sql)?;
        let Statement::Select(query) = stmt else {
            return Err(SqlError::bind(
                "only SELECT statements can be prepared/cached",
            ));
        };
        self.plan_query(&query)
    }

    /// Bind + optimize an already parsed SELECT into a cacheable plan.
    fn plan_query(&mut self, query: &crate::ast::Query) -> Result<CachedPlan> {
        let (root, schema) = self.bind_traced(query)?;
        let tables = collect_table_deps(query, &root);
        let params = root.max_param();
        Ok(CachedPlan {
            root: Rc::new(root),
            schema,
            tables,
            params,
        })
    }

    /// Register a named prepared statement (PostgreSQL `PREPARE name AS
    /// SELECT ...`): validated and planned eagerly into the plan cache.
    pub fn prepare(&mut self, name: impl Into<String>, sql: impl Into<String>) -> Result<()> {
        let (name, sql) = (name.into(), sql.into());
        self.prepare_cached(&sql)?;
        self.prepared.insert(name, sql);
        Ok(())
    }

    /// Execute a named prepared statement through the plan cache.
    pub fn execute_prepared(&mut self, name: &str) -> Result<ResultSet> {
        self.execute_prepared_with(name, &[])
    }

    /// Execute a named prepared statement, binding `$n` placeholders to
    /// `params` (the `EXECUTE name (v1, v2, ...)` form).
    pub fn execute_prepared_with(&mut self, name: &str, params: &[Value]) -> Result<ResultSet> {
        let sql = self
            .prepared
            .get(name)
            .cloned()
            .ok_or_else(|| SqlError::bind(format!("unknown prepared statement '{name}'")))?;
        self.query_cached_with(&sql, params)
    }

    /// Drop a named prepared statement (PostgreSQL `DEALLOCATE`). The plan
    /// may stay cached; only the name binding is removed.
    pub fn deallocate(&mut self, name: &str) -> Result<()> {
        self.prepared
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SqlError::bind(format!("unknown prepared statement '{name}'")))
    }

    /// Plan-cache hit/miss counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Number of plans currently cached.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Per-table targeted plan-cache invalidation counts (sorted by name).
    pub fn plan_cache_table_invalidations(&self) -> Vec<(String, u64)> {
        self.plan_cache.table_invalidations()
    }

    /// Render the optimized plan of a SELECT (EXPLAIN).
    pub fn explain(&mut self, sql: &str) -> Result<String> {
        let stmt = crate::parser::parse_statement(sql)?;
        let Statement::Select(query) = stmt else {
            return Err(SqlError::bind("EXPLAIN supports SELECT statements only"));
        };
        let (mut root, _) = bind_select(&self.catalog, &self.profile, &query)?;
        if self.profile.enable_optimizer {
            optimize(&mut root);
        }
        Ok(crate::explain::render_plan(&root))
    }

    /// Execute a SELECT and render its plan annotated with per-operator
    /// runtime statistics (`EXPLAIN ANALYZE`).
    pub fn explain_analyze(&mut self, sql: &str) -> Result<String> {
        let (_, profile) = self.query_profiled(sql)?;
        Ok(profile.render())
    }

    /// Run a single SELECT with operator profiling, returning the result
    /// and its [`QueryProfile`].
    pub fn query_profiled(&mut self, sql: &str) -> Result<(Relation, QueryProfile)> {
        let stmt = self.parse_one_traced(sql)?;
        let Statement::Select(query) = stmt else {
            return Err(SqlError::bind(
                "EXPLAIN ANALYZE supports SELECT statements only",
            ));
        };
        let (result, profile) = self.run_query_profiled(&query)?;
        Ok((result.into_relation(), profile))
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

    fn insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        values: &[Vec<crate::ast::Expr>],
    ) -> Result<ExecOutcome> {
        // Evaluate the literal expressions with a throwaway context.
        let empty_root = crate::plan::PlanRoot::new(
            Vec::new(),
            Vec::new(),
            crate::plan::PlanNode::Values {
                rows: Vec::new(),
                schema: crate::plan::Schema::default(),
            },
        );
        let mut evaluated: Vec<Vec<Value>> = Vec::with_capacity(values.len());
        {
            let ctx = ExecContext::new(&self.catalog, &self.profile, &empty_root);
            let binder_schema = crate::plan::Schema::default();
            for row in values {
                let mut out = Vec::with_capacity(row.len());
                for e in row {
                    // Bind against an empty schema: literals and expressions
                    // over literals only.
                    let mut b = BindShim {
                        catalog: &self.catalog,
                        profile: &self.profile,
                    };
                    let bexpr = b.bind_const(e, &binder_schema)?;
                    out.push(crate::exec::eval::eval(&bexpr, &[], &ctx)?);
                }
                evaluated.push(out);
            }
        }

        let table_ref = self
            .catalog
            .table_mut(table)
            .ok_or_else(|| SqlError::catalog(format!("unknown table '{table}'")))?;
        let width = table_ref.columns.len();
        let first_new_row = table_ref.heap.len();
        let saved_serials = table_ref.serial_next.clone();
        let mut count = 0usize;
        for row in evaluated {
            let full_row = match columns {
                None => {
                    if row.len() != width {
                        return Err(SqlError::exec(format!(
                            "INSERT arity {} vs table arity {width}",
                            row.len()
                        )));
                    }
                    row
                }
                Some(cols) => {
                    let mut full = vec![Value::Null; width];
                    for (c, v) in cols.iter().zip(row) {
                        let idx = table_ref.column_index(c).ok_or_else(|| {
                            SqlError::bind(format!("unknown column '{c}' in INSERT"))
                        })?;
                        full[idx] = v;
                    }
                    full
                }
            };
            table_ref.append(full_row)?;
            count += 1;
        }
        // Log the rows as stored (post serial-fill/coercion) so replay
        // reproduces the exact in-memory state, ctids included.
        if count > 0 && (self.backend.is_durable() || self.txn_capture.is_some()) {
            let rows = table_ref.heap.rows_from(first_new_row);
            if let Err(e) = self.log_durable(&WalRecord::Insert {
                table: table.to_string(),
                rows,
            }) {
                self.rollback_append(table, first_new_row, saved_serials);
                return Err(e);
            }
            self.note_group_undo(GroupUndo::Append {
                table: table.to_string(),
                first_new_row,
                saved_serials,
            });
        }
        self.profile.charge_io(count);
        self.stats.pages_written += self.profile.pages_for(count);
        Ok(no_rows(count))
    }

    /// Undo an in-memory append whose WAL record failed to land: cut the
    /// rows back out (unsealing a chunk the append sealed) and restore the
    /// serial counters, so the visible state matches what replay will
    /// reconstruct.
    fn rollback_append(
        &mut self,
        table: &str,
        first_new_row: usize,
        saved_serials: Vec<(usize, i64)>,
    ) {
        if let Some(t) = self.catalog.table_mut(table) {
            t.heap.truncate(first_new_row);
            t.serial_next = saved_serials;
        }
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
        // An unlogged load (INSPECT's base tables) has no record to build:
        // copying every loaded row for `log_durable` to discard would
        // double the load's memory traffic.
        let builds_record = self.logs_mutations() || self.txn_capture.is_some();
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
        let first_new_row = table_ref.heap.len();
        let saved_serials = table_ref.serial_next.clone();
        table_ref.load(&target_indices, &csv.chunks);
        if count > 0 && builds_record {
            let rows = table_ref.heap.rows_from(first_new_row);
            if let Err(e) = self.log_durable(&WalRecord::Insert {
                table: table.to_string(),
                rows,
            }) {
                self.rollback_append(table, first_new_row, saved_serials);
                return Err(e);
            }
            self.note_group_undo(GroupUndo::Append {
                table: table.to_string(),
                first_new_row,
                saved_serials,
            });
        }
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

/// Minimal binder for constant INSERT expressions (no FROM scope).
struct BindShim<'a> {
    catalog: &'a Catalog,
    profile: &'a EngineProfile,
}

impl<'a> BindShim<'a> {
    fn bind_const(
        &mut self,
        e: &crate::ast::Expr,
        schema: &crate::plan::Schema,
    ) -> Result<crate::plan::BExpr> {
        // Reuse the full binder by wrapping the expression in SELECT <e>.
        let query = crate::ast::Query {
            ctes: Vec::new(),
            body: crate::ast::SelectBody {
                distinct: false,
                projection: vec![crate::ast::SelectItem::Expr {
                    expr: e.clone(),
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
        let _ = schema;
        let (root, _) = bind_select(self.catalog, self.profile, &query)?;
        // Extract the single projection expression.
        match root.body {
            crate::plan::PlanNode::Project { exprs, .. } if root.subplans.is_empty() => Ok(exprs
                .into_iter()
                .next()
                .ok_or_else(|| SqlError::bind("empty INSERT expression"))?),
            _ => Err(SqlError::bind("INSERT values must be constant expressions")),
        }
    }
}

fn no_rows(n: usize) -> ExecOutcome {
    ExecOutcome {
        result: None,
        rows_affected: n,
    }
}

/// True for statements that mutate base tables (what the WAL would log).
/// View DDL stays out: views are volatile, engine-local, and never shipped
/// to replicas, so a pinned read-only engine may still manage them.
fn statement_writes_tables(stmt: &Statement) -> bool {
    match stmt {
        Statement::CreateTable { .. } | Statement::Insert { .. } | Statement::Copy { .. } => true,
        Statement::Drop { is_view, .. } => !is_view,
        Statement::CreateView { .. } | Statement::Select(_) | Statement::Explain { .. } => false,
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
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2);")
            .unwrap();
        let sql = "SELECT a FROM t WHERE a > 1";
        let first = e.query_cached(sql).unwrap();
        let second = e.query_cached(sql).unwrap();
        assert_eq!(first.into_relation(), second.into_relation());
        let stats = e.plan_cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn point_lookups_differing_only_in_literals_share_one_plan() {
        // The regression this guards: before literal normalization, every
        // distinct constant planned from scratch — 100 lookups, 100
        // misses, a cold cache forever. Normalized, the first lookup
        // plans `a = $1` and the other 99 bind it.
        let mut e = engine();
        e.execute("CREATE TABLE t (a int, b text)").unwrap();
        let values: Vec<String> = (0..100).map(|i| format!("({i}, 'v{i}')")).collect();
        e.execute(&format!("INSERT INTO t VALUES {}", values.join(",")))
            .unwrap();
        for i in 0..100 {
            let r = e.query(&format!("SELECT b FROM t WHERE a = {i}")).unwrap();
            assert_eq!(r.rows, vec![vec![Value::text(format!("v{i}"))]]);
        }
        let stats = e.plan_cache_stats();
        assert!(
            stats.hits >= 99,
            "point lookups did not share a parameterized plan: {stats:?}"
        );
        assert_eq!(stats.misses, 1, "{stats:?}");
    }

    #[test]
    fn cached_plan_sees_new_rows() {
        // Plans reference tables by name, so DML needs no invalidation.
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
            .unwrap();
        let sql = "SELECT count(*) AS n FROM t";
        assert_eq!(
            e.query_cached(sql).unwrap().into_relation().rows[0][0],
            Value::Int(1)
        );
        e.execute("INSERT INTO t VALUES (2), (3)").unwrap();
        assert_eq!(
            e.query_cached(sql).unwrap().into_relation().rows[0][0],
            Value::Int(3)
        );
        assert_eq!(e.plan_cache_stats().hits, 1);
    }

    #[test]
    fn ddl_invalidates_plan_cache() {
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
            .unwrap();
        e.query_cached("SELECT a FROM t").unwrap();
        assert_eq!(e.plan_cache_len(), 1);
        e.execute("DROP TABLE t").unwrap();
        assert_eq!(e.plan_cache_len(), 0);
        // Re-planning after the drop reports the missing table.
        assert!(e.query_cached("SELECT a FROM t").is_err());
    }

    #[test]
    fn prepared_statements_round_trip() {
        let mut e = engine();
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (5), (7);")
            .unwrap();
        e.prepare("q", "SELECT max(a) AS m FROM t").unwrap();
        assert_eq!(
            e.execute_prepared("q").unwrap().into_relation().rows[0][0],
            Value::Int(7)
        );
        assert_eq!(
            e.execute_prepared("q").unwrap().into_relation().rows[0][0],
            Value::Int(7)
        );
        assert!(e.plan_cache_stats().hits >= 1);
        e.deallocate("q").unwrap();
        assert!(e.execute_prepared("q").is_err());
        assert!(e.deallocate("q").is_err());
    }

    #[test]
    fn only_select_is_cacheable() {
        let mut e = engine();
        assert!(e.prepare("p", "CREATE TABLE t (a int)").is_err());
        assert!(e.query_cached("CREATE TABLE t (a int)").is_err());
    }

    #[test]
    fn targeted_invalidation_keeps_unrelated_plans() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1);
             CREATE TABLE u (b int); INSERT INTO u VALUES (2);",
        )
        .unwrap();
        e.query_cached("SELECT a FROM t").unwrap();
        e.query_cached("SELECT b FROM u").unwrap();
        assert_eq!(e.plan_cache_len(), 2);
        e.execute("DROP TABLE t").unwrap();
        // Only the plan reading t is evicted.
        assert_eq!(e.plan_cache_len(), 1);
        e.query_cached("SELECT b FROM u").unwrap();
        assert_eq!(e.plan_cache_stats().hits, 1);
        assert_eq!(
            e.plan_cache_table_invalidations(),
            vec![("t".to_string(), 1)]
        );
    }

    #[test]
    fn view_drop_invalidates_plans_reading_it() {
        // Inline views vanish from the bound plan; the AST walk must still
        // record the dependency so DROP VIEW evicts the plan.
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1);
             CREATE VIEW v AS SELECT a * 2 AS d FROM t;",
        )
        .unwrap();
        e.query_cached("SELECT d FROM v").unwrap();
        assert_eq!(e.plan_cache_len(), 1);
        e.execute("DROP VIEW v").unwrap();
        assert_eq!(e.plan_cache_len(), 0);
        assert!(e.query_cached("SELECT d FROM v").is_err());
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
        e.query_cached("SELECT a FROM v").unwrap();
        e.execute("DROP TABLE t").unwrap();
        assert_eq!(e.plan_cache_len(), 0);
    }

    #[test]
    fn subquery_dependencies_are_tracked() {
        let mut e = engine();
        e.execute_script(
            "CREATE TABLE t (a int); INSERT INTO t VALUES (1);
             CREATE TABLE s (b int); INSERT INTO s VALUES (5);",
        )
        .unwrap();
        e.query_cached("SELECT a FROM t WHERE a < (SELECT max(b) FROM s)")
            .unwrap();
        e.execute("DROP TABLE s").unwrap();
        assert_eq!(e.plan_cache_len(), 0, "scalar-subquery dep evicted");
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
        assert_eq!(e.group_pending(), 0, "unlogged load left an undo entry");
        assert_eq!(appended(&e), before, "unlogged load reached the WAL");
        e.set_unlogged(false);
        assert_eq!(e.end_commit_group().unwrap(), 0);
        assert_eq!(e.query("SELECT a FROM scratch").unwrap().rows.len(), 2);
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
