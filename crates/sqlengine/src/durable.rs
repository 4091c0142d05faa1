//! Pluggable storage backends: volatile (the default) or WAL-backed.
//!
//! The engine funnels every catalog-visible mutation through a
//! [`StorageBackend`]. [`MemoryBackend`] discards them (the original,
//! Umbra-like volatile engine); [`DurableBackend`] writes them to an
//! `elephant-store` write-ahead log before the statement is acknowledged
//! and can fold the whole catalog into a columnar snapshot on `CHECKPOINT`.
//!
//! Checkpoints encode straight from each table's heap through a borrowed
//! [`TableView`]; recovery hands back row-shaped [`TableImage`]s — schema,
//! serial counters, and rows in ctid order — which are sealed into the
//! engine's [`Table`] heap on load, so a recovered engine reproduces ctid
//! assignment exactly (the paper's inspection joins are keyed on ctid).

use crate::catalog::Catalog;
use crate::error::Result;
use crate::storage::Table;
use elephant_store::{
    CheckpointStats, FsyncPolicy, RecoveryReport, Store, StoreConfig, StoreStats, TableImage,
    TableView, WalHandle, WalRecord,
};
use std::path::Path;

/// Where acknowledged mutations go.
pub trait StorageBackend {
    /// Record one mutation. Called *after* the in-memory apply succeeded
    /// and *before* the statement is acknowledged to the caller; durable
    /// backends must not return until the record is as safe as their fsync
    /// policy promises. An `Err` obliges the caller to roll the in-memory
    /// apply back (the engine does, then degrades to read-only): a failed
    /// log must leave neither memory nor replay with the mutation.
    fn log(&mut self, record: &WalRecord) -> Result<()>;

    /// Snapshot the given catalog and truncate the log. `None` means the
    /// backend has nothing to checkpoint (volatile).
    fn checkpoint(&mut self, catalog: &Catalog) -> Result<Option<CheckpointStats>>;

    /// What recovery found when this backend was opened, if it recovers.
    fn recovery_report(&self) -> Option<&RecoveryReport>;

    /// Live storage counters, if the backend keeps any.
    fn store_stats(&self) -> Option<StoreStats>;

    /// True when mutations survive a process kill.
    fn is_durable(&self) -> bool;

    /// The backend's committed-LSN watermark; `None` on volatile
    /// backends.
    fn wal_handle(&self) -> Option<WalHandle> {
        None
    }

    /// Open a group-commit window: under an `always` fsync policy,
    /// subsequent [`StorageBackend::log`] calls defer their fsync *and*
    /// acknowledgment until [`StorageBackend::end_group`] issues one fsync
    /// for the whole batch. A no-op for volatile backends and lax fsync
    /// policies.
    fn begin_group(&mut self) {}

    /// Close the group-commit window; returns how many deferred records
    /// the closing fsync acknowledged (0 when nothing was deferred). On
    /// `Err`, every deferred record was cut back out of the log and the
    /// caller must unwind the matching in-memory effects.
    fn end_group(&mut self) -> Result<u64> {
        Ok(0)
    }

    /// Durably stage this engine's slice of a cross-shard transaction: a
    /// single `PREPARE` frame, fsynced regardless of policy, holding the
    /// captured records. Volatile backends accept and discard it.
    fn log_txn_prepare(&mut self, _txn_id: u64, _records: Vec<WalRecord>) -> Result<()> {
        Ok(())
    }

    /// Append + fsync the `COMMIT` outcome marker for a prepared group.
    fn log_txn_commit(&mut self, _txn_id: u64) -> Result<()> {
        Ok(())
    }

    /// Append + fsync the `ABORT` outcome marker for a prepared group.
    fn log_txn_abort(&mut self, _txn_id: u64) -> Result<()> {
        Ok(())
    }
}

/// The volatile backend: every operation is a no-op.
#[derive(Debug, Default)]
pub struct MemoryBackend;

impl StorageBackend for MemoryBackend {
    fn log(&mut self, _record: &WalRecord) -> Result<()> {
        Ok(())
    }

    fn checkpoint(&mut self, _catalog: &Catalog) -> Result<Option<CheckpointStats>> {
        Ok(None)
    }

    fn recovery_report(&self) -> Option<&RecoveryReport> {
        None
    }

    fn store_stats(&self) -> Option<StoreStats> {
        None
    }

    fn is_durable(&self) -> bool {
        false
    }
}

/// The WAL-backed backend.
#[derive(Debug)]
pub struct DurableBackend {
    store: Store,
    recovery: RecoveryReport,
}

impl DurableBackend {
    /// Open (or create) the store under `dir`, recovering whatever it
    /// holds. Returns the backend plus the recovered tables for the caller
    /// to install into its catalog.
    pub fn open(dir: impl AsRef<Path>, fsync: FsyncPolicy) -> Result<(DurableBackend, Vec<Table>)> {
        DurableBackend::open_with_decisions(dir, fsync, std::collections::HashMap::new())
    }

    /// [`DurableBackend::open`] with the coordinator's 2PC verdict map:
    /// recovery resolves any in-doubt prepared group against it (commit
    /// decision → apply, otherwise presumed abort).
    pub fn open_with_decisions(
        dir: impl AsRef<Path>,
        fsync: FsyncPolicy,
        txn_decisions: std::collections::HashMap<u64, bool>,
    ) -> Result<(DurableBackend, Vec<Table>)> {
        let config = StoreConfig::new(dir.as_ref())
            .with_fsync(fsync)
            .with_txn_decisions(txn_decisions);
        let (store, images, recovery) = Store::open(config)?;
        let tables = images.into_iter().map(image_to_table).collect();
        Ok((DurableBackend { store, recovery }, tables))
    }
}

impl StorageBackend for DurableBackend {
    fn log(&mut self, record: &WalRecord) -> Result<()> {
        self.store.log(record)?;
        Ok(())
    }

    fn checkpoint(&mut self, catalog: &Catalog) -> Result<Option<CheckpointStats>> {
        // This runs on the executor thread: a typed error degrades one
        // checkpoint, a panic would take the whole server down.
        // Borrowed views: the snapshot is encoded straight from the heap's
        // sealed chunks and tail.
        let mut views: Vec<TableView<'_>> = Vec::new();
        for name in catalog.table_names() {
            let table = catalog.table(name).ok_or_else(|| {
                crate::error::SqlError::catalog(format!(
                    "table '{name}' vanished from the catalog mid-checkpoint"
                ))
            })?;
            views.push(TableView {
                name: &table.name,
                columns: &table.columns,
                types: &table.types,
                serial_next: &table.serial_next,
                chunks: table.heap.sealed(),
                tail: table.heap.tail(),
            });
        }
        Ok(Some(self.store.checkpoint(&views)?))
    }

    fn recovery_report(&self) -> Option<&RecoveryReport> {
        Some(&self.recovery)
    }

    fn store_stats(&self) -> Option<StoreStats> {
        Some(self.store.stats())
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn wal_handle(&self) -> Option<WalHandle> {
        Some(self.store.wal_handle())
    }

    fn begin_group(&mut self) {
        self.store.begin_group();
    }

    fn end_group(&mut self) -> Result<u64> {
        Ok(self.store.end_group()?)
    }

    fn log_txn_prepare(&mut self, txn_id: u64, records: Vec<WalRecord>) -> Result<()> {
        self.store.log_txn_prepare(txn_id, records)?;
        Ok(())
    }

    fn log_txn_commit(&mut self, txn_id: u64) -> Result<()> {
        self.store.log_txn_commit(txn_id)?;
        Ok(())
    }

    fn log_txn_abort(&mut self, txn_id: u64) -> Result<()> {
        self.store.log_txn_abort(txn_id)?;
        Ok(())
    }
}

/// Convert a recovered image into a live table (ctid order preserved): its
/// rows are appended in order, so full chunks are sealed on load and the
/// rest stays in the tail.
pub(crate) fn image_to_table(img: TableImage) -> Table {
    let mut table = Table::empty(img.name, img.columns, img.types);
    table.serial_next = img.serial_next;
    table.heap.extend(img.rows);
    table
}

/// Copy a live table into a snapshot image.
pub(crate) fn table_to_image(table: &Table) -> TableImage {
    TableImage {
        name: table.name.clone(),
        columns: table.columns.clone(),
        types: table.types.clone(),
        serial_next: table.serial_next.clone(),
        rows: table.heap.to_rows(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::{DataType, Value};

    #[test]
    fn image_round_trips_through_table() {
        let img = TableImage {
            name: "t".into(),
            columns: vec!["id".into(), "v".into()],
            types: vec![DataType::Serial, DataType::Text],
            serial_next: vec![(0, 4)],
            rows: vec![
                vec![Value::Int(1), Value::text("a")],
                vec![Value::Int(3), Value::Null],
            ],
        };
        let table = image_to_table(img.clone());
        assert_eq!(table.serial_next, vec![(0, 4)]);
        assert_eq!(table_to_image(&table), img);
    }

    #[test]
    fn memory_backend_is_inert() {
        let mut b = MemoryBackend;
        assert!(!b.is_durable());
        assert!(b.log(&WalRecord::DropTable { name: "x".into() }).is_ok());
        assert!(b.checkpoint(&Catalog::new()).unwrap().is_none());
        assert!(b.recovery_report().is_none());
        assert!(b.store_stats().is_none());
    }
}
