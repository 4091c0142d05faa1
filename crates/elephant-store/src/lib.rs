#![warn(missing_docs)]
//! Durable storage for the Blue Elephants engine: write-ahead log,
//! columnar snapshots, and crash recovery.
//!
//! The paper evaluates its transpiled pipelines on a disk-based DBMS
//! (PostgreSQL) and an in-memory one (Umbra); the reproduction's engine was
//! purely volatile until this crate. `elephant-store` gives the engine the
//! disk-based half: every acknowledged mutation is logged before it is
//! acknowledged, `CHECKPOINT` folds the log into a compact columnar
//! snapshot, and [`Store::open`] recovers *snapshot + log replay* into the
//! exact pre-crash state — including ctid (row position) assignment, which
//! the paper's inspection joins depend on.
//!
//! The crate is engine-agnostic: it deals in [`TableImage`]s (schema +
//! rows + serial counters) and [`WalRecord`]s, and knows nothing about SQL.
//! A durable `sqlengine::Engine` owns its [`Store`]: it logs each mutation
//! as a record, checkpoints its heaps through borrowed [`TableView`]s, and
//! loads the recovered images into its catalog.
//!
//! ```
//! use elephant_store::{FsyncPolicy, Store, StoreConfig, WalRecord};
//! use etypes::{DataType, Value};
//!
//! let dir = std::env::temp_dir().join(format!("elephant-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let cfg = StoreConfig::new(&dir).with_fsync(FsyncPolicy::Off);
//!
//! // First life: log a table and some rows.
//! let (mut store, tables, _) = Store::open(cfg.clone()).unwrap();
//! assert!(tables.is_empty());
//! store.log(&WalRecord::CreateTable {
//!     name: "t".into(),
//!     columns: vec!["a".into()],
//!     types: vec![DataType::Int],
//! }).unwrap();
//! store.log(&WalRecord::Insert {
//!     table: "t".into(),
//!     rows: vec![vec![Value::Int(7)]],
//! }).unwrap();
//! drop(store);
//!
//! // Second life: recovery replays the log.
//! let (_store, tables, report) = Store::open(cfg).unwrap();
//! assert_eq!(tables[0].rows, vec![vec![Value::Int(7)]]);
//! assert_eq!(report.wal_records_applied, 2);
//! ```

pub mod crc32;
pub mod error;
pub mod snapshot;
pub mod txnlog;
pub mod wal;

pub use error::{Result, StoreError};
pub use txnlog::{TxnDecisionLog, TXN_LOG_FILE};
pub use wal::{decode_frame, encode_frame, WalRecord, WalShared, WalStats};

use etypes::{ColumnChunk, DataType, Value};
use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::sync::Arc;
use wal::WalWriter;

/// When the WAL forces written records to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: an acknowledged write survives
    /// even an OS crash (the PostgreSQL `synchronous_commit = on` shape).
    Always,
    /// Never `fsync` explicitly (clean close still flushes): survives
    /// process kills but not machine crashes.
    Off,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    /// Parse `always` or `off` (`never` is an alias for `off`).
    fn from_str(s: &str) -> std::result::Result<FsyncPolicy, String> {
        let s = s.trim();
        match s.to_ascii_lowercase().as_str() {
            "always" => Ok(FsyncPolicy::Always),
            "off" | "never" => Ok(FsyncPolicy::Off),
            _ => Err(format!("bad fsync policy '{s}' (expected always or off)")),
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Off => write!(f, "off"),
        }
    }
}

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Data directory (created if absent); holds `wal.log` + `snapshot.es`.
    pub dir: PathBuf,
    /// WAL durability policy.
    pub fsync: FsyncPolicy,
    /// Coordinator verdicts (`txn_id -> commit?`) used to resolve in-doubt
    /// prepared groups found at recovery. A prepared group with no entry is
    /// presumed aborted.
    pub txn_decisions: HashMap<u64, bool>,
}

impl StoreConfig {
    /// Config with the default [`FsyncPolicy::Always`].
    pub fn new(dir: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            txn_decisions: HashMap::new(),
        }
    }

    /// Override the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> StoreConfig {
        self.fsync = fsync;
        self
    }

    /// Supply the coordinator's decision map for in-doubt resolution.
    pub fn with_txn_decisions(mut self, decisions: HashMap<u64, bool>) -> StoreConfig {
        self.txn_decisions = decisions;
        self
    }
}

/// A full image of one base table: what snapshots store and recovery
/// returns. Row order is ctid order.
#[derive(Debug, Clone, PartialEq)]
pub struct TableImage {
    /// Table name.
    pub name: String,
    /// Column names in order.
    pub columns: Vec<String>,
    /// Column types in order.
    pub types: Vec<DataType>,
    /// Next value per serial column `(column index, next value)`.
    pub serial_next: Vec<(usize, i64)>,
    /// Row-major tuples; position is the ctid.
    pub rows: Vec<Vec<Value>>,
}

/// A borrowed table: what a checkpoint encodes from, so an engine can
/// snapshot its live heap — sealed column chunks followed by a row-major
/// tail — without transposing or cloning it first. Recovery still returns
/// owned, row-shaped images; `&TableImage` converts (all tail, no chunks).
#[derive(Debug, Clone, Copy)]
pub struct TableView<'a> {
    /// Table name.
    pub name: &'a str,
    /// Column names in order.
    pub columns: &'a [String],
    /// Column types in order.
    pub types: &'a [DataType],
    /// Next value per serial column `(column index, next value)`.
    pub serial_next: &'a [(usize, i64)],
    /// Sealed chunks, in ctid order.
    pub chunks: &'a [ColumnChunk],
    /// Row-major rows after the chunks; position (after every chunk row)
    /// is the ctid.
    pub tail: &'a [Vec<Value>],
}

impl TableView<'_> {
    /// Rows across chunks and tail.
    pub fn row_count(&self) -> usize {
        self.chunks.iter().map(ColumnChunk::len).sum::<usize>() + self.tail.len()
    }
}

impl<'a> From<&'a TableImage> for TableView<'a> {
    fn from(image: &'a TableImage) -> TableView<'a> {
        TableView {
            name: &image.name,
            columns: &image.columns,
            types: &image.types,
            serial_next: &image.serial_next,
            chunks: &[],
            tail: &image.rows,
        }
    }
}

impl TableImage {
    /// An empty image with the given schema (serial counters start at 1).
    pub fn empty(
        name: impl Into<String>,
        columns: Vec<String>,
        types: Vec<DataType>,
    ) -> TableImage {
        let serial_next = types
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == DataType::Serial)
            .map(|(i, _)| (i, 1i64))
            .collect();
        TableImage {
            name: name.into(),
            columns,
            types,
            serial_next,
            rows: Vec::new(),
        }
    }

    /// Append already-materialized rows, advancing serial counters past any
    /// serial values they carry (replay must leave the counters exactly
    /// where the original engine did).
    fn restore_rows(&mut self, rows: Vec<Vec<Value>>) {
        for row in &rows {
            for (idx, next) in &mut self.serial_next {
                if let Some(Value::Int(v)) = row.get(*idx) {
                    *next = (*next).max(v + 1);
                }
            }
        }
        self.rows.extend(rows);
    }
}

/// What recovery found and did; rendered into server `STATS` and startup
/// logs so operators can see exactly what a restart recovered or dropped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// True when a valid snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Tables restored from the snapshot.
    pub snapshot_tables: usize,
    /// Rows restored from the snapshot.
    pub snapshot_rows: u64,
    /// WAL LSN the snapshot covered (replay starts after it).
    pub snapshot_lsn: u64,
    /// WAL records applied on top of the snapshot.
    pub wal_records_applied: u64,
    /// WAL records skipped because the snapshot already contained them.
    pub wal_records_skipped: u64,
    /// Bytes dropped from the WAL tail (torn write at crash time).
    pub wal_torn_bytes: u64,
    /// True when the tail was dropped because a record failed its CRC.
    pub wal_crc_mismatch: bool,
    /// Prepared 2PC groups applied because a `TxnCommit` marker followed.
    pub txn_committed: u64,
    /// Prepared 2PC groups discarded because a `TxnAbort` marker followed.
    pub txn_aborted: u64,
    /// In-doubt prepared groups (no outcome marker by end-of-log) applied
    /// because the coordinator's decision log said commit.
    pub txn_indoubt_committed: u64,
    /// In-doubt prepared groups aborted: no coordinator commit decision
    /// existed, so presumed-abort unwound them.
    pub txn_indoubt_aborted: u64,
    /// Human-readable notes about anything unusual (invalid snapshot
    /// dropped, replay of a record that no longer applied, ...).
    pub notes: Vec<String>,
}

impl RecoveryReport {
    /// One-line summary for startup logging.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "recovered {} table(s) / {} row(s) from snapshot, applied {} WAL record(s)",
            self.snapshot_tables, self.snapshot_rows, self.wal_records_applied
        );
        if self.wal_torn_bytes > 0 {
            s.push_str(&format!(
                ", dropped {} torn byte(s){}",
                self.wal_torn_bytes,
                if self.wal_crc_mismatch {
                    " (CRC mismatch)"
                } else {
                    ""
                }
            ));
        }
        if self.txn_committed + self.txn_aborted > 0 {
            s.push_str(&format!(
                ", replayed {} committed / {} aborted txn group(s)",
                self.txn_committed, self.txn_aborted
            ));
        }
        if self.txn_indoubt_committed + self.txn_indoubt_aborted > 0 {
            s.push_str(&format!(
                ", resolved in-doubt txns: {} committed, {} aborted",
                self.txn_indoubt_committed, self.txn_indoubt_aborted
            ));
        }
        for note in &self.notes {
            s.push_str("; ");
            s.push_str(note);
        }
        s
    }
}

/// What a checkpoint wrote and truncated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Tables captured in the snapshot.
    pub tables: usize,
    /// Rows captured.
    pub rows: u64,
    /// Snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// WAL bytes truncated away.
    pub wal_bytes_truncated: u64,
}

/// Aggregate store counters (monotonic since open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// WAL writer counters.
    pub wal: WalStats,
    /// Checkpoints completed since open.
    pub checkpoints: u64,
}

/// A durable store: an open WAL plus the snapshot location.
///
/// [`Store::open`] performs recovery and hands back the recovered
/// [`TableImage`]s; the caller (the engine) owns the live data from then on
/// and calls [`Store::log`] on every mutation and [`Store::checkpoint`]
/// to compact.
#[derive(Debug)]
pub struct Store {
    wal: WalWriter,
    snapshot_path: PathBuf,
    checkpoints: u64,
}

/// WAL file name inside the data directory.
pub const WAL_FILE: &str = "wal.log";
/// Snapshot file name inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.es";

impl Store {
    /// Open (creating if needed) the store in `config.dir` and recover:
    /// load the snapshot if present and valid, then replay the WAL past it,
    /// tolerating a torn tail. Returns the store, the recovered tables (in
    /// a deterministic order), and a [`RecoveryReport`].
    pub fn open(config: StoreConfig) -> Result<(Store, Vec<TableImage>, RecoveryReport)> {
        fs::create_dir_all(&config.dir)?;
        let snapshot_path = config.dir.join(SNAPSHOT_FILE);
        let wal_path = config.dir.join(WAL_FILE);

        let mut report = RecoveryReport::default();
        let mut tables: Vec<TableImage> = Vec::new();
        match snapshot::load_snapshot(&snapshot_path) {
            Ok(Some((lsn, images))) => {
                report.snapshot_loaded = true;
                report.snapshot_lsn = lsn;
                report.snapshot_tables = images.len();
                report.snapshot_rows = images.iter().map(|t| t.rows.len() as u64).sum();
                tables = images;
            }
            Ok(None) => {}
            Err(e) => {
                // A corrupt snapshot is dropped (renamed aside, so evidence
                // survives) and recovery continues from the WAL alone.
                let aside = snapshot_path.with_extension("corrupt");
                let _ = fs::rename(&snapshot_path, &aside);
                report
                    .notes
                    .push(format!("snapshot invalid and set aside: {e}"));
            }
        }

        let wal_out = wal::read_wal(&wal_path)?;
        report.wal_torn_bytes = wal_out.torn_bytes;
        report.wal_crc_mismatch = wal_out.crc_mismatch;
        let mut max_lsn = report.snapshot_lsn;
        // Prepared-but-undecided 2PC groups, in prepare order. A group is
        // buffered here (never applied directly) until its outcome marker
        // arrives; whatever is left at end-of-log is in-doubt.
        let mut prepared: Vec<(u64, Vec<WalRecord>)> = Vec::new();
        let apply_counted = |tables: &mut Vec<TableImage>,
                             report: &mut RecoveryReport,
                             lsn: u64,
                             record: WalRecord| {
            match apply(tables, record) {
                Ok(()) => report.wal_records_applied += 1,
                Err(e) => report
                    .notes
                    .push(format!("WAL record lsn={lsn} not applied: {e}")),
            }
        };
        for (lsn, record) in wal_out.records {
            max_lsn = max_lsn.max(lsn);
            if lsn <= report.snapshot_lsn {
                report.wal_records_skipped += 1;
                continue;
            }
            match record {
                WalRecord::TxnPrepare { txn_id, records } => {
                    prepared.push((txn_id, records));
                }
                WalRecord::TxnCommit { txn_id } => {
                    match prepared.iter().position(|(id, _)| *id == txn_id) {
                        Some(pos) => {
                            let (_, records) = prepared.remove(pos);
                            report.txn_committed += 1;
                            for rec in records {
                                apply_counted(&mut tables, &mut report, lsn, rec);
                            }
                        }
                        None => report.notes.push(format!(
                            "TxnCommit lsn={lsn} for unprepared txn {txn_id} ignored"
                        )),
                    }
                }
                WalRecord::TxnAbort { txn_id } => {
                    match prepared.iter().position(|(id, _)| *id == txn_id) {
                        Some(pos) => {
                            prepared.remove(pos);
                            report.txn_aborted += 1;
                        }
                        None => report.notes.push(format!(
                            "TxnAbort lsn={lsn} for unprepared txn {txn_id} ignored"
                        )),
                    }
                }
                WalRecord::TxnDecision { txn_id, .. } => {
                    // Decision records belong in the coordinator log, not a
                    // shard WAL; tolerate but flag them.
                    report.notes.push(format!(
                        "coordinator decision for txn {txn_id} found in data WAL, ignored"
                    ));
                }
                other => apply_counted(&mut tables, &mut report, lsn, other),
            }
        }

        let mut wal = WalWriter::open(&wal_path, config.fsync, wal_out.valid_len, max_lsn + 1)?;
        // Resolve in-doubt groups from the coordinator's verdicts, logging
        // the outcome marker so the next recovery needs no decision map.
        // Presumed-abort: no commit decision means the coordinator never
        // acked this transaction, so unwinding it cannot lose an ack.
        for (txn_id, records) in prepared {
            etypes::fault::fire("txn.resolve")?;
            let commit = config.txn_decisions.get(&txn_id).copied().unwrap_or(false);
            if commit {
                let lsn = wal.append(&WalRecord::TxnCommit { txn_id })?;
                report.txn_indoubt_committed += 1;
                for rec in records {
                    apply_counted(&mut tables, &mut report, lsn, rec);
                }
                report.notes.push(format!(
                    "in-doubt txn {txn_id} committed per coordinator decision"
                ));
            } else {
                wal.append(&WalRecord::TxnAbort { txn_id })?;
                report.txn_indoubt_aborted += 1;
                report
                    .notes
                    .push(format!("in-doubt txn {txn_id} aborted (presumed abort)"));
            }
        }
        Ok((
            Store {
                wal,
                snapshot_path,
                checkpoints: 0,
            },
            tables,
            report,
        ))
    }

    /// Append one record to the WAL; durability per the configured policy.
    pub fn log(&mut self, record: &WalRecord) -> Result<u64> {
        self.wal.append(record)
    }

    /// Durably stage this shard's slice of a cross-shard transaction:
    /// append the `PREPARE` frame and force it to disk *regardless of
    /// fsync policy* — once this returns Ok, the coordinator may commit,
    /// so the prepare must survive any crash. Refused inside an open
    /// group-commit window, whose whole-batch rollback could otherwise cut
    /// an acked prepare back out of the log.
    pub fn log_txn_prepare(&mut self, txn_id: u64, records: Vec<WalRecord>) -> Result<u64> {
        if self.wal.in_group() {
            return Err(StoreError::invalid(
                "2PC prepare inside an open group-commit window",
            ));
        }
        etypes::fault::fire("txn.prepare_append")?;
        let lsn = self
            .wal
            .append(&WalRecord::TxnPrepare { txn_id, records })?;
        etypes::fault::fire("txn.prepare_fsync")?;
        self.wal.sync()?;
        Ok(lsn)
    }

    /// Append + fsync the `COMMIT` outcome marker for a prepared
    /// transaction. Failure here leaves the group in-doubt on disk; the
    /// coordinator's decision log resolves it at the next recovery.
    pub fn log_txn_commit(&mut self, txn_id: u64) -> Result<u64> {
        if self.wal.in_group() {
            return Err(StoreError::invalid(
                "2PC outcome marker inside an open group-commit window",
            ));
        }
        etypes::fault::fire("txn.commit_append")?;
        let lsn = self.wal.append(&WalRecord::TxnCommit { txn_id })?;
        self.wal.sync()?;
        Ok(lsn)
    }

    /// Append + fsync the `ABORT` outcome marker for a prepared
    /// transaction. Safe to fail: presumed-abort makes an in-doubt group
    /// with no commit decision abort at recovery anyway.
    pub fn log_txn_abort(&mut self, txn_id: u64) -> Result<u64> {
        if self.wal.in_group() {
            return Err(StoreError::invalid(
                "2PC outcome marker inside an open group-commit window",
            ));
        }
        etypes::fault::fire("txn.abort_append")?;
        let lsn = self.wal.append(&WalRecord::TxnAbort { txn_id })?;
        self.wal.sync()?;
        Ok(lsn)
    }

    /// Force the WAL to stable storage regardless of policy.
    pub fn sync(&mut self) -> Result<()> {
        self.wal.sync()
    }

    /// Open a group-commit window: see [`WalWriter::begin_group`].
    pub fn begin_group(&mut self) {
        self.wal.begin_group()
    }

    /// Close the group-commit window with one fsync covering every record
    /// deferred inside it; returns how many records that fsync
    /// acknowledged. See [`WalWriter::end_group`].
    pub fn end_group(&mut self) -> Result<u64> {
        self.wal.end_group()
    }

    /// Records deferred in the open group window (0 outside one).
    pub fn group_pending(&self) -> u64 {
        self.wal.group_pending()
    }

    /// Write a snapshot of `tables` and truncate the WAL. The snapshot
    /// covers every record logged so far; replay after this checkpoint
    /// starts from the snapshot alone.
    pub fn checkpoint<'a, T>(&mut self, tables: &[T]) -> Result<CheckpointStats>
    where
        T: Into<TableView<'a>> + Copy,
    {
        let tables: Vec<TableView<'a>> = tables.iter().map(|&t| t.into()).collect();
        // Everything logged so far must be on disk before the snapshot
        // claims to cover it.
        self.wal.sync()?;
        let last_lsn = self.wal.next_lsn() - 1;
        let snapshot_bytes = snapshot::write_snapshot(&self.snapshot_path, last_lsn, &tables)?;
        let wal_bytes_truncated = self.wal.truncate()?;
        self.checkpoints += 1;
        Ok(CheckpointStats {
            tables: tables.len(),
            rows: tables.iter().map(|t| t.row_count() as u64).sum(),
            snapshot_bytes,
            wal_bytes_truncated,
        })
    }

    /// Aggregate counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            wal: self.wal.stats(),
            checkpoints: self.checkpoints,
        }
    }

    /// The data directory's snapshot path (tests, tooling).
    pub fn snapshot_path(&self) -> &Path {
        &self.snapshot_path
    }

    /// A cheap, cloneable, thread-safe handle onto the writer's shared
    /// progress watermark, readable from any thread without touching (or
    /// blocking) the engine thread that owns the `Store`.
    pub fn wal_handle(&self) -> WalHandle {
        WalHandle {
            shared: self.wal.shared(),
        }
    }
}

/// See [`Store::wal_handle`].
#[derive(Debug, Clone)]
pub struct WalHandle {
    shared: Arc<WalShared>,
}

impl WalHandle {
    /// Highest acknowledged LSN: every frame at or below it is durable
    /// under the configured fsync policy.
    pub fn committed_lsn(&self) -> u64 {
        self.shared.committed_lsn()
    }
}

/// Apply one WAL record to a set of table images (replay).
fn apply(tables: &mut Vec<TableImage>, record: WalRecord) -> Result<()> {
    fn find<'a>(tables: &'a mut [TableImage], name: &str) -> Result<&'a mut TableImage> {
        tables
            .iter_mut()
            .find(|t| t.name == name)
            .ok_or_else(|| StoreError::invalid(format!("unknown table '{name}'")))
    }
    match record {
        WalRecord::CreateTable {
            name,
            columns,
            types,
        } => {
            if tables.iter().any(|t| t.name == name) {
                return Err(StoreError::invalid(format!(
                    "table '{name}' already exists"
                )));
            }
            tables.push(TableImage::empty(name, columns, types));
        }
        WalRecord::DropTable { name } => {
            let before = tables.len();
            tables.retain(|t| t.name != name);
            if tables.len() == before {
                return Err(StoreError::invalid(format!("unknown table '{name}'")));
            }
        }
        WalRecord::Insert { table, rows } => {
            let t = find(tables, &table)?;
            for row in &rows {
                if row.len() != t.columns.len() {
                    return Err(StoreError::invalid(format!(
                        "row arity {} vs table '{}' arity {}",
                        row.len(),
                        table,
                        t.columns.len()
                    )));
                }
            }
            t.restore_rows(rows);
        }
        WalRecord::TxnPrepare { txn_id, .. }
        | WalRecord::TxnCommit { txn_id }
        | WalRecord::TxnAbort { txn_id }
        | WalRecord::TxnDecision { txn_id, .. } => {
            // Markers carry no table mutation themselves; replay handles
            // them before reaching here (buffer / apply group / discard).
            return Err(StoreError::invalid(format!(
                "transaction marker for txn {txn_id} is not directly applicable"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> StoreConfig {
        let dir = std::env::temp_dir().join(format!("elstore-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        StoreConfig::new(dir).with_fsync(FsyncPolicy::Off)
    }

    fn create_t() -> WalRecord {
        WalRecord::CreateTable {
            name: "t".into(),
            columns: vec!["id".into(), "v".into()],
            types: vec![DataType::Serial, DataType::Text],
        }
    }

    fn insert(rows: Vec<Vec<Value>>) -> WalRecord {
        WalRecord::Insert {
            table: "t".into(),
            rows,
        }
    }

    #[test]
    fn wal_only_recovery() {
        let cfg = tmp("walonly");
        {
            let (mut store, tables, _) = Store::open(cfg.clone()).unwrap();
            assert!(tables.is_empty());
            store.log(&create_t()).unwrap();
            store
                .log(&insert(vec![
                    vec![Value::Int(1), Value::text("a")],
                    vec![Value::Int(2), Value::text("b")],
                ]))
                .unwrap();
        }
        let (_s, tables, report) = Store::open(cfg).unwrap();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 2);
        assert_eq!(tables[0].serial_next, vec![(0, 3)], "serials advanced");
        assert_eq!(report.wal_records_applied, 2);
        assert!(!report.snapshot_loaded);
    }

    #[test]
    fn checkpoint_then_wal_replay() {
        let cfg = tmp("ckpt");
        {
            let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
            store.log(&create_t()).unwrap();
            store
                .log(&insert(vec![vec![Value::Int(1), Value::text("a")]]))
                .unwrap();
            // Checkpoint the current state, then log one more insert.
            let image = TableImage {
                name: "t".into(),
                columns: vec!["id".into(), "v".into()],
                types: vec![DataType::Serial, DataType::Text],
                serial_next: vec![(0, 2)],
                rows: vec![vec![Value::Int(1), Value::text("a")]],
            };
            let stats = store.checkpoint(&[&image]).unwrap();
            assert_eq!(stats.tables, 1);
            assert!(stats.wal_bytes_truncated > 0);
            store
                .log(&insert(vec![vec![Value::Int(2), Value::text("b")]]))
                .unwrap();
        }
        let (_s, tables, report) = Store::open(cfg).unwrap();
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_rows, 1);
        assert_eq!(report.wal_records_applied, 1);
        assert_eq!(report.wal_records_skipped, 0, "WAL truncated at checkpoint");
        assert_eq!(tables[0].rows.len(), 2);
        assert_eq!(tables[0].serial_next, vec![(0, 3)]);
    }

    #[test]
    fn lsn_continuity_prevents_double_apply() {
        // Crash between snapshot rename and WAL truncation: the old WAL
        // records survive but their LSNs are covered by the snapshot, so
        // replay must skip them.
        let cfg = tmp("doubleapply");
        {
            let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
            store.log(&create_t()).unwrap();
            store
                .log(&insert(vec![vec![Value::Int(1), Value::text("a")]]))
                .unwrap();
            let image = TableImage {
                name: "t".into(),
                columns: vec!["id".into(), "v".into()],
                types: vec![DataType::Serial, DataType::Text],
                serial_next: vec![(0, 2)],
                rows: vec![vec![Value::Int(1), Value::text("a")]],
            };
            // Simulate the crash: write the snapshot but skip truncation.
            snapshot::write_snapshot(store.snapshot_path(), 2, &[&image]).unwrap();
        }
        let (_s, tables, report) = Store::open(cfg).unwrap();
        assert_eq!(report.wal_records_skipped, 2);
        assert_eq!(report.wal_records_applied, 0);
        assert_eq!(tables[0].rows.len(), 1, "no double apply");
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(
            "always".parse::<FsyncPolicy>().unwrap(),
            FsyncPolicy::Always
        );
        assert_eq!("off".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Off);
        assert!("every_n:16".parse::<FsyncPolicy>().is_err());
        assert!("8".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
    }

    fn txn_group() -> Vec<WalRecord> {
        vec![
            create_t(),
            insert(vec![vec![Value::Int(1), Value::text("a")]]),
        ]
    }

    #[test]
    fn committed_txn_group_replays() {
        let cfg = tmp("txncommit");
        {
            let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
            store.log_txn_prepare(1, txn_group()).unwrap();
            store.log_txn_commit(1).unwrap();
        }
        let (_s, tables, report) = Store::open(cfg).unwrap();
        assert_eq!(report.txn_committed, 1);
        assert_eq!(report.wal_records_applied, 2, "both nested records applied");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 1);
        assert_eq!(tables[0].serial_next, vec![(0, 2)], "serials advanced");
    }

    #[test]
    fn aborted_txn_group_leaves_no_trace() {
        let cfg = tmp("txnabort");
        {
            let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
            store.log_txn_prepare(1, txn_group()).unwrap();
            store.log_txn_abort(1).unwrap();
        }
        let (_s, tables, report) = Store::open(cfg).unwrap();
        assert_eq!(report.txn_aborted, 1);
        assert_eq!(report.wal_records_applied, 0);
        assert!(tables.is_empty());
    }

    #[test]
    fn in_doubt_group_presumed_aborted_without_decision() {
        let cfg = tmp("txnindoubt");
        {
            let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
            store.log_txn_prepare(7, txn_group()).unwrap();
            // Crash before any outcome marker: the group is in-doubt.
        }
        let (_s, tables, report) = Store::open(cfg.clone()).unwrap();
        assert_eq!(report.txn_indoubt_aborted, 1);
        assert!(tables.is_empty(), "presumed abort leaves nothing");
        assert!(report.summary().contains("resolved in-doubt"));
        // Resolution logged an ABORT marker: the next recovery no longer
        // needs a decision map and sees a plain aborted group.
        let (_s, tables, report) = Store::open(cfg).unwrap();
        assert_eq!(report.txn_aborted, 1);
        assert_eq!(report.txn_indoubt_aborted, 0);
        assert!(tables.is_empty());
    }

    #[test]
    fn in_doubt_group_commits_from_coordinator_decision() {
        let cfg = tmp("txndecided");
        {
            let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
            store.log_txn_prepare(7, txn_group()).unwrap();
        }
        let with_decision = cfg.clone().with_txn_decisions(HashMap::from([(7, true)]));
        let (_s, tables, report) = Store::open(with_decision).unwrap();
        assert_eq!(report.txn_indoubt_committed, 1);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 1);
        // The COMMIT marker was persisted: a later recovery *without* the
        // decision map still replays the group as committed.
        let (_s, tables, report) = Store::open(cfg).unwrap();
        assert_eq!(report.txn_committed, 1);
        assert_eq!(report.txn_indoubt_committed, 0);
        assert_eq!(tables[0].rows.len(), 1);
    }

    #[test]
    fn txn_appends_refused_inside_group_window() {
        let cfg = tmp("txngroupwin");
        let (mut store, _, _) = Store::open(cfg).unwrap();
        store.begin_group();
        assert!(store.log_txn_prepare(1, txn_group()).is_err());
        assert!(store.log_txn_commit(1).is_err());
        assert!(store.log_txn_abort(1).is_err());
        store.end_group().unwrap();
        store.log_txn_prepare(1, txn_group()).unwrap();
        store.log_txn_commit(1).unwrap();
    }

    #[test]
    fn replay_notes_inapplicable_records() {
        let cfg = tmp("notes");
        {
            let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
            // Insert into a table the log never created.
            store
                .log(&WalRecord::Insert {
                    table: "ghost".into(),
                    rows: vec![vec![Value::Int(1)]],
                })
                .unwrap();
        }
        let (_s, tables, report) = Store::open(cfg).unwrap();
        assert!(tables.is_empty());
        assert_eq!(report.wal_records_applied, 0);
        assert_eq!(report.notes.len(), 1);
        assert!(report.summary().contains("not applied"));
    }
}
