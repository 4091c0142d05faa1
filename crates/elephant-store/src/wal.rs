//! The write-ahead log.
//!
//! One append-only file per store. Layout:
//!
//! ```text
//! file    := magic "ELWAL001" record*
//! record  := len:u32 LE  crc:u32 LE  payload[len]
//! payload := lsn:u64 LE  kind:u8  body
//! ```
//!
//! `crc` is the CRC-32 of the payload. `lsn` is a store-wide monotonically
//! increasing sequence number; snapshots remember the last LSN they contain
//! so replay after a checkpoint skips already-applied records.
//!
//! Replay is **torn-tail tolerant**: a trailing record whose header is
//! incomplete, whose declared length runs past end-of-file, or whose CRC
//! does not match is treated as the torn result of a crash mid-append — the
//! log is cut at the last valid record boundary and the dropped byte count
//! is reported. The writer then truncates the file there, so new appends
//! continue from consistent state.

use crate::crc32::crc32;
use crate::error::{Result, StoreError};
use crate::FsyncPolicy;
use etypes::binary::{put_str, put_u32, put_u64, put_value};
use etypes::{ByteReader, DataType, Value};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic for WAL files (8 bytes, versioned).
pub const WAL_MAGIC: &[u8; 8] = b"ELWAL001";

/// Hard ceiling on one record's payload (64 MiB): a declared length above
/// this is corruption, not a real record.
pub const MAX_RECORD: usize = 64 << 20;

/// One logged mutation. `Insert` rows are logged *post*-serial-fill and
/// *post*-coercion, so replay appends them verbatim and reconstructs the
/// exact in-memory state (including ctid assignment, which is row order).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `CREATE TABLE`: schema of the new table.
    CreateTable {
        /// Table name.
        name: String,
        /// Column names in order.
        columns: Vec<String>,
        /// Column types in order.
        types: Vec<DataType>,
    },
    /// `DROP TABLE`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// A batch of appended rows (one `INSERT`/`COPY` statement).
    Insert {
        /// Target table.
        table: String,
        /// Full-width rows in append order.
        rows: Vec<Vec<Value>>,
    },
    /// Two-phase commit prepare: this shard's slice of a cross-shard
    /// transaction, durably staged but **not applied**. Replay buffers the
    /// nested records until a matching [`WalRecord::TxnCommit`] applies them
    /// or a [`WalRecord::TxnAbort`] discards them; a prepare with neither by
    /// end-of-log is *in-doubt* and is resolved from the coordinator's
    /// decision log (presumed-abort when no decision exists).
    TxnPrepare {
        /// Coordinator-issued transaction id, unique per coordinator log.
        txn_id: u64,
        /// This shard's mutations, in execution order. Nested records must
        /// be plain data/DDL records — transaction markers do not nest.
        records: Vec<WalRecord>,
    },
    /// Two-phase commit outcome marker: apply the buffered prepare group
    /// for `txn_id`.
    TxnCommit {
        /// The prepared transaction being committed.
        txn_id: u64,
    },
    /// Two-phase commit outcome marker: discard the buffered prepare group
    /// for `txn_id`.
    TxnAbort {
        /// The prepared transaction being aborted.
        txn_id: u64,
    },
    /// Coordinator decision record (coordinator log only): the durable
    /// commit/abort verdict for `txn_id`. Under presumed-abort only commit
    /// decisions strictly need logging, but aborts may be logged too to
    /// shortcut recovery.
    TxnDecision {
        /// The transaction decided.
        txn_id: u64,
        /// True for commit, false for abort.
        commit: bool,
    },
}

impl WalRecord {
    /// The record's kind byte. Kinds 3 and 4 (row updates and deletes,
    /// which the engine never wrote) are retired, not reused: a frame
    /// carrying one decodes as an unknown kind.
    fn kind(&self) -> u8 {
        match self {
            WalRecord::CreateTable { .. } => 0,
            WalRecord::DropTable { .. } => 1,
            WalRecord::Insert { .. } => 2,
            WalRecord::TxnPrepare { .. } => 5,
            WalRecord::TxnCommit { .. } => 6,
            WalRecord::TxnAbort { .. } => 7,
            WalRecord::TxnDecision { .. } => 8,
        }
    }

    /// Encode the payload (without the frame header) for `lsn`.
    fn encode(&self, lsn: u64) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        put_u64(&mut buf, lsn);
        buf.push(self.kind());
        match self {
            WalRecord::CreateTable {
                name,
                columns,
                types,
            } => {
                put_str(&mut buf, name);
                put_u32(&mut buf, columns.len() as u32);
                for (c, t) in columns.iter().zip(types) {
                    put_str(&mut buf, c);
                    etypes::binary::put_datatype(&mut buf, t);
                }
            }
            WalRecord::DropTable { name } => put_str(&mut buf, name),
            WalRecord::Insert { table, rows } => {
                put_str(&mut buf, table);
                put_u32(&mut buf, rows.len() as u32);
                for row in rows {
                    put_u32(&mut buf, row.len() as u32);
                    for v in row {
                        put_value(&mut buf, v);
                    }
                }
            }
            WalRecord::TxnPrepare { txn_id, records } => {
                put_u64(&mut buf, *txn_id);
                put_u32(&mut buf, records.len() as u32);
                // Nested records reuse the payload codec with lsn 0: the
                // group shares the prepare frame's LSN, the inner values
                // are placeholders.
                for rec in records {
                    let inner = rec.encode(0);
                    put_u32(&mut buf, inner.len() as u32);
                    buf.extend_from_slice(&inner);
                }
            }
            WalRecord::TxnCommit { txn_id } => put_u64(&mut buf, *txn_id),
            WalRecord::TxnAbort { txn_id } => put_u64(&mut buf, *txn_id),
            WalRecord::TxnDecision { txn_id, commit } => {
                put_u64(&mut buf, *txn_id);
                buf.push(u8::from(*commit));
            }
        }
        buf
    }

    /// Decode one payload into `(lsn, record)`: the replay codec.
    pub fn decode(payload: &[u8]) -> Result<(u64, WalRecord)> {
        let mut r = ByteReader::new(payload);
        let lsn = r.u64()?;
        let kind = r.u8()?;
        let rec = match kind {
            0 => {
                let name = r.str()?;
                let n = r.u32()? as usize;
                let mut columns = Vec::with_capacity(n);
                let mut types = Vec::with_capacity(n);
                for _ in 0..n {
                    columns.push(r.str()?);
                    types.push(r.datatype()?);
                }
                WalRecord::CreateTable {
                    name,
                    columns,
                    types,
                }
            }
            1 => WalRecord::DropTable { name: r.str()? },
            2 => {
                let table = r.str()?;
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    let width = r.u32()? as usize;
                    let mut row = Vec::with_capacity(width.min(1 << 16));
                    for _ in 0..width {
                        row.push(r.value()?);
                    }
                    rows.push(row);
                }
                WalRecord::Insert { table, rows }
            }
            5 => {
                let txn_id = r.u64()?;
                let n = r.u32()? as usize;
                let mut records = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    let len = r.u32()? as usize;
                    let inner = r.bytes(len)?;
                    let (_lsn, rec) = WalRecord::decode(inner)?;
                    if matches!(
                        rec,
                        WalRecord::TxnPrepare { .. }
                            | WalRecord::TxnCommit { .. }
                            | WalRecord::TxnAbort { .. }
                            | WalRecord::TxnDecision { .. }
                    ) {
                        return Err(StoreError::corrupt(
                            "transaction marker nested inside TxnPrepare",
                        ));
                    }
                    records.push(rec);
                }
                WalRecord::TxnPrepare { txn_id, records }
            }
            6 => WalRecord::TxnCommit { txn_id: r.u64()? },
            7 => WalRecord::TxnAbort { txn_id: r.u64()? },
            8 => {
                let txn_id = r.u64()?;
                let commit = match r.u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(StoreError::corrupt(format!(
                            "TxnDecision verdict byte must be 0 or 1, got {other}"
                        )))
                    }
                };
                WalRecord::TxnDecision { txn_id, commit }
            }
            other => {
                return Err(StoreError::corrupt(format!(
                    "unknown WAL record kind {other}"
                )))
            }
        };
        if !r.is_empty() {
            return Err(StoreError::corrupt(format!(
                "{} trailing bytes after WAL record",
                r.remaining()
            )));
        }
        Ok((lsn, rec))
    }
}

/// Encode one record into a complete on-disk frame (`len crc payload`),
/// exactly as [`WalWriter::append`] would write it. Replication tests and
/// tooling use this to fabricate byte-accurate frames.
pub fn encode_frame(rec: &WalRecord, lsn: u64) -> Vec<u8> {
    let payload = rec.encode(lsn);
    let mut frame = Vec::with_capacity(8 + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// Decode one complete frame (`len crc payload`) into `(lsn, record)`,
/// re-verifying the declared length and CRC. Followers run every shipped
/// frame through this before applying it, so a corrupt frame is rejected
/// with an error rather than applied.
pub fn decode_frame(frame: &[u8]) -> Result<(u64, WalRecord)> {
    if frame.len() < 8 {
        return Err(StoreError::corrupt("WAL frame shorter than its header"));
    }
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    if len > MAX_RECORD || frame.len() != 8 + len {
        return Err(StoreError::corrupt(format!(
            "WAL frame declares {len} payload bytes but carries {}",
            frame.len().saturating_sub(8)
        )));
    }
    let payload = &frame[8..];
    if crc32(payload) != crc {
        return Err(StoreError::corrupt("WAL frame CRC mismatch"));
    }
    WalRecord::decode(payload)
}

/// Writer progress shared across threads: the shard router reads this
/// (through a [`crate::WalHandle`]) to record each shard's committed LSN in
/// a 2PC cut vector. `committed_lsn` advances only *after* an append fully
/// succeeded under the configured fsync policy — a frame rolled back by a
/// failed fsync never moves the watermark.
#[derive(Debug, Default)]
pub struct WalShared {
    committed_lsn: AtomicU64,
}

impl WalShared {
    /// Highest LSN whose frame is fully appended and acknowledged.
    pub fn committed_lsn(&self) -> u64 {
        self.committed_lsn.load(Ordering::Acquire)
    }

    fn set_committed(&self, lsn: u64) {
        self.committed_lsn.store(lsn, Ordering::Release);
    }
}

/// Monotonic writer-side counters, surfaced through `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended since open.
    pub records_appended: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Current WAL file size in bytes.
    pub bytes: u64,
    /// Total wall-clock time spent in [`WalWriter::append`] (µs), fsync
    /// time included. Callers diff this to attribute WAL cost per record.
    pub append_us: u64,
    /// Total wall-clock time spent inside `fsync` (µs).
    pub fsync_us: u64,
    /// Group-commit windows closed with at least one deferred record
    /// (each paid exactly one fsync).
    pub group_commits: u64,
    /// Records whose durability was acknowledged by a group fsync rather
    /// than their own. `group_committed_records / group_commits` is the
    /// commits-per-fsync amortization factor.
    pub group_committed_records: u64,
}

/// Bookkeeping for one open group-commit window: everything needed to cut
/// the whole batch back out if the single closing fsync fails.
#[derive(Debug)]
struct GroupState {
    start_bytes: u64,
    start_lsn: u64,
    deferred: u64,
}

/// Append-only WAL writer.
///
/// ## Failpoints
///
/// Three `etypes::fault` sites cover the writer's I/O edges:
///
/// * `wal.append` — fails before any bytes are written (clean failure).
/// * `wal.short_write` — writes only a prefix of the frame and fails,
///   leaving a genuine torn tail on disk (what a crash mid-append leaves);
///   the writer poisons itself until [`WalWriter::truncate`] resets it.
/// * `wal.fsync` — fails the durability step; the just-written frame is
///   cut back out so a later crash cannot resurrect an unacknowledged
///   record.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    fsync: FsyncPolicy,
    next_lsn: u64,
    stats: WalStats,
    shared: Arc<WalShared>,
    /// Set when the on-disk tail no longer ends at a record boundary (torn
    /// append, failed rollback): further appends would be silently dropped
    /// by replay, so they are refused until `truncate` restores a clean
    /// boundary.
    poisoned: Option<String>,
    /// Open group-commit window, if any (see [`WalWriter::begin_group`]).
    group: Option<GroupState>,
}

impl WalWriter {
    /// Open (creating if absent) the WAL at `path`, truncating it to
    /// `valid_len` — the last consistent record boundary found by replay —
    /// and continuing LSNs from `next_lsn`.
    pub fn open(
        path: &Path,
        fsync: FsyncPolicy,
        valid_len: u64,
        next_lsn: u64,
    ) -> Result<WalWriter> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len.max(WAL_MAGIC.len() as u64))?;
        if valid_len < WAL_MAGIC.len() as u64 {
            file.seek(SeekFrom::Start(0))?;
            file.write_all(WAL_MAGIC)?;
        }
        let bytes = file.seek(SeekFrom::End(0))?;
        let shared = Arc::new(WalShared::default());
        shared.set_committed(next_lsn.saturating_sub(1));
        Ok(WalWriter {
            file,
            fsync,
            next_lsn,
            stats: WalStats {
                bytes,
                ..WalStats::default()
            },
            shared,
            poisoned: None,
            group: None,
        })
    }

    /// Open a group-commit window. While a window is open under
    /// [`FsyncPolicy::Always`], appends skip their per-record fsync *and*
    /// the commit watermark: the record is written but not acknowledged
    /// until [`WalWriter::end_group`] issues one fsync for the whole batch.
    /// Under `Off` the window is a no-op — that policy already acknowledges
    /// without a per-record fsync. Idempotent while open.
    pub fn begin_group(&mut self) {
        if self.group.is_none() {
            self.group = Some(GroupState {
                start_bytes: self.stats.bytes,
                start_lsn: self.next_lsn,
                deferred: 0,
            });
        }
    }

    /// Close the group-commit window: one fsync covers every record
    /// deferred since [`WalWriter::begin_group`], then the watermark jumps
    /// over the batch. Returns how many records the fsync acknowledged
    /// (0 when nothing was deferred — no fsync is issued then). On fsync
    /// failure the *entire batch* is cut back out (`set_len` to the window
    /// start, which also removes any torn tail a mid-window short write
    /// left) and the LSNs are reused, exactly like the single-record
    /// rollback in [`WalWriter::append`].
    pub fn end_group(&mut self) -> Result<u64> {
        let Some(g) = self.group.take() else {
            return Ok(0);
        };
        if g.deferred == 0 {
            return Ok(0);
        }
        match self.sync() {
            Ok(()) => {
                self.shared.set_committed(self.next_lsn - 1);
                self.stats.group_commits += 1;
                self.stats.group_committed_records += g.deferred;
                Ok(g.deferred)
            }
            Err(e) => {
                let rolled_back = self
                    .file
                    .set_len(g.start_bytes)
                    .and_then(|()| self.file.seek(SeekFrom::Start(g.start_bytes)).map(|_| ()));
                match rolled_back {
                    Ok(()) => {
                        self.stats.bytes = g.start_bytes;
                        self.stats.records_appended -= g.deferred;
                        self.next_lsn = g.start_lsn;
                        // The cut lands on the window-start record boundary,
                        // so any torn tail inside the window went with it.
                        self.poisoned = None;
                    }
                    Err(_) => {
                        self.poisoned =
                            Some(format!("failed group rollback at lsn {}", g.start_lsn));
                    }
                }
                Err(e)
            }
        }
    }

    /// Records deferred in the currently open group window (0 outside one).
    pub fn group_pending(&self) -> u64 {
        self.group.as_ref().map_or(0, |g| g.deferred)
    }

    /// True while a group-commit window is open. Two-phase-commit appends
    /// check this: a prepare acked inside a window could be cut back out by
    /// the window's whole-batch rollback, which would break the 2PC
    /// durability contract.
    pub fn in_group(&self) -> bool {
        self.group.is_some()
    }

    /// The cross-thread progress view ([`WalShared`]) for this writer.
    pub fn shared(&self) -> Arc<WalShared> {
        Arc::clone(&self.shared)
    }

    /// The LSN the next append will use.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Writer counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Append one record; returns its LSN. Durability depends on the
    /// configured [`FsyncPolicy`]. A failed append never leaves a record
    /// that replay would apply: either no bytes landed, the frame was cut
    /// back out after an fsync failure, or a torn tail remains that replay
    /// drops at the last valid boundary.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64> {
        if let Some(reason) = &self.poisoned {
            return Err(StoreError::invalid(format!(
                "WAL writer poisoned ({reason}); checkpoint to truncate and recover"
            )));
        }
        let started = std::time::Instant::now();
        etypes::fault::fire("wal.append")?;
        let lsn = self.next_lsn;
        let payload = rec.encode(lsn);
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        if let Err(fault) = etypes::fault::fire("wal.short_write") {
            // Torn-frame simulation: persist only a prefix of the frame —
            // the exact disk state a crash mid-append leaves — then fail.
            // The torn bytes stay for recovery to find and truncate.
            let cut = (frame.len() / 2).max(1);
            self.file.write_all(&frame[..cut])?;
            let _ = self.file.sync_data();
            self.stats.bytes += cut as u64;
            self.poisoned = Some(format!("torn append at lsn {lsn}"));
            return Err(fault.into());
        }
        let frame_start = self.stats.bytes;
        self.file.write_all(&frame)?;
        self.next_lsn += 1;
        self.stats.records_appended += 1;
        self.stats.bytes += frame.len() as u64;
        // Inside a group window, `Always` defers both the fsync and the
        // acknowledgment to `end_group`'s single sync. `Off` already
        // acknowledges without a per-record fsync, so the window changes
        // nothing for it.
        let always = self.fsync == FsyncPolicy::Always;
        let deferred = always && self.group.is_some();
        let synced = if always && !deferred {
            self.sync()
        } else {
            Ok(())
        };
        if let Err(e) = synced {
            // The frame's durability is unknown. Cut it back out so a crash
            // after this failed (and therefore unacknowledged) append
            // cannot resurrect the record on replay.
            let rolled_back = self
                .file
                .set_len(frame_start)
                .and_then(|()| self.file.seek(SeekFrom::Start(frame_start)).map(|_| ()));
            match rolled_back {
                Ok(()) => {
                    self.stats.bytes = frame_start;
                    self.stats.records_appended -= 1;
                    self.next_lsn = lsn;
                }
                Err(_) => {
                    self.poisoned = Some(format!("failed fsync rollback at lsn {lsn}"));
                }
            }
            return Err(e);
        }
        if deferred {
            if let Some(g) = &mut self.group {
                g.deferred += 1;
            }
        } else {
            self.shared.set_committed(lsn);
        }
        self.stats.append_us += started.elapsed().as_micros() as u64;
        Ok(lsn)
    }

    /// Force written records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        let started = std::time::Instant::now();
        etypes::fault::fire("wal.fsync")?;
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.stats.fsync_us += started.elapsed().as_micros() as u64;
        Ok(())
    }

    /// Truncate the log after a checkpoint: every record is now covered by
    /// the snapshot. LSNs keep counting — they are store-wide, not per-file.
    /// Also clears any poison: the file is back at a clean record boundary.
    pub fn truncate(&mut self) -> Result<u64> {
        let dropped = self.stats.bytes.saturating_sub(WAL_MAGIC.len() as u64);
        self.file.set_len(WAL_MAGIC.len() as u64)?;
        self.file.seek(SeekFrom::Start(WAL_MAGIC.len() as u64))?;
        let started = std::time::Instant::now();
        self.file.sync_data()?;
        self.stats.fsyncs += 1;
        self.stats.fsync_us += started.elapsed().as_micros() as u64;
        self.stats.bytes = WAL_MAGIC.len() as u64;
        self.poisoned = None;
        // A checkpoint inside a group window covers the deferred records
        // with the snapshot; re-anchor the window at the now-empty log so a
        // later group rollback cannot unwind snapshot-covered state.
        if let Some(g) = &mut self.group {
            if g.deferred > 0 {
                self.shared.set_committed(self.next_lsn - 1);
            }
            g.start_bytes = self.stats.bytes;
            g.start_lsn = self.next_lsn;
            g.deferred = 0;
        }
        Ok(dropped)
    }
}

impl Drop for WalWriter {
    fn drop(&mut self) {
        // Clean shutdown flushes even under lax fsync policies.
        let _ = self.file.sync_data();
    }
}

/// The outcome of scanning a WAL file.
#[derive(Debug, Default)]
pub struct WalReadOutcome {
    /// Valid records in file order.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte offset of the end of the last valid record (the consistent
    /// boundary the writer should truncate to).
    pub valid_len: u64,
    /// Bytes after `valid_len` dropped as a torn tail.
    pub torn_bytes: u64,
    /// True when the tail was dropped because of a CRC mismatch (as opposed
    /// to an incomplete header/payload).
    pub crc_mismatch: bool,
}

/// Scan the WAL at `path`. A missing file yields an empty outcome. A file
/// that does not start with [`WAL_MAGIC`] is an error (it is not a WAL); a
/// corrupt or incomplete *tail* is tolerated and reported.
pub fn read_wal(path: &Path) -> Result<WalReadOutcome> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalReadOutcome::default()),
        Err(e) => return Err(e.into()),
    }
    if data.is_empty() {
        return Ok(WalReadOutcome::default());
    }
    if data.len() < WAL_MAGIC.len() || &data[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(StoreError::corrupt(format!(
            "{} is not a WAL file (bad magic)",
            path.display()
        )));
    }
    let mut out = WalReadOutcome {
        valid_len: WAL_MAGIC.len() as u64,
        ..WalReadOutcome::default()
    };
    let mut pos = WAL_MAGIC.len();
    while pos < data.len() {
        let remaining = data.len() - pos;
        if remaining < 8 {
            break; // torn header
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD || remaining - 8 < len {
            break; // torn payload (or garbage length)
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            out.crc_mismatch = true;
            break;
        }
        match WalRecord::decode(payload) {
            Ok(entry) => out.records.push(entry),
            Err(_) => {
                // Checksum matched but the payload does not parse: written
                // by a different version or deliberately corrupted. Stop at
                // the boundary like any other torn tail.
                out.crc_mismatch = true;
                break;
            }
        }
        pos += 8 + len;
        out.valid_len = pos as u64;
    }
    out.torn_bytes = (data.len() as u64).saturating_sub(out.valid_len);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    // No test in this binary may arm a failpoint: the registry is
    // process-global and these tests fsync concurrently, so an armed
    // `wal.fsync=error_once` would be consumed by whichever sync comes
    // first. Failpoint tests live in `tests/faults.rs`, which serializes.

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("elwal-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("wal.log")
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                name: "t".into(),
                columns: vec!["id".into(), "v".into()],
                types: vec![DataType::Serial, DataType::Text],
            },
            WalRecord::Insert {
                table: "t".into(),
                rows: vec![
                    vec![Value::Int(1), Value::text("a")],
                    vec![Value::Int(2), Value::Null],
                ],
            },
            WalRecord::DropTable { name: "t".into() },
        ]
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("roundtrip");
        let mut w = WalWriter::open(&path, FsyncPolicy::Always, 0, 1).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        assert_eq!(w.stats().records_appended, 3);
        assert!(w.stats().fsyncs >= 3);
        drop(w);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.torn_bytes, 0);
        assert!(!out.crc_mismatch);
        let lsns: Vec<u64> = out.records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![1, 2, 3]);
        let recs: Vec<WalRecord> = out.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(recs, sample_records());
    }

    #[test]
    fn torn_tail_is_dropped_and_writer_resumes() {
        let path = tmp("torn");
        let mut w = WalWriter::open(&path, FsyncPolicy::Off, 0, 1).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        drop(w);
        let full = std::fs::metadata(&path).unwrap().len();
        // Cut 3 bytes into the last record.
        let out_full = read_wal(&path).unwrap();
        assert_eq!(out_full.valid_len, full);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records.len(), 2, "last record torn away");
        assert!(out.torn_bytes > 0);
        assert!(!out.crc_mismatch);
        // Reopen the writer at the valid boundary and append again.
        let mut w = WalWriter::open(&path, FsyncPolicy::Off, out.valid_len, 10).unwrap();
        w.append(&WalRecord::DropTable { name: "t".into() })
            .unwrap();
        drop(w);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.records.last().unwrap().0, 10);
        assert_eq!(out.torn_bytes, 0);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let path = tmp("crc");
        let mut w = WalWriter::open(&path, FsyncPolicy::Off, 0, 1).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        // Walk the frames to the third record and flip a byte inside its
        // payload (not its header) so the failure is a checksum mismatch.
        let mut pos = WAL_MAGIC.len();
        for _ in 0..2 {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
        }
        data[pos + 8] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let out = read_wal(&path).unwrap();
        assert!(out.crc_mismatch);
        assert!(out.records.len() < 3);
        assert!(out.torn_bytes > 0);
    }

    #[test]
    fn truncate_resets_bytes_but_not_lsns() {
        let path = tmp("trunc");
        let mut w = WalWriter::open(&path, FsyncPolicy::Off, 0, 1).unwrap();
        for rec in sample_records() {
            w.append(&rec).unwrap();
        }
        let dropped = w.truncate().unwrap();
        assert!(dropped > 0);
        assert_eq!(w.stats().bytes, WAL_MAGIC.len() as u64);
        let lsn = w
            .append(&WalRecord::DropTable { name: "t".into() })
            .unwrap();
        assert_eq!(lsn, 4, "LSNs continue across truncation");
        drop(w);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records.len(), 1);
    }

    #[test]
    fn shared_watermark_tracks_acknowledged_appends() {
        let path = tmp("shared");
        let mut w = WalWriter::open(&path, FsyncPolicy::Off, 0, 5).unwrap();
        let shared = w.shared();
        assert_eq!(shared.committed_lsn(), 4, "open resumes at next_lsn - 1");
        w.append(&WalRecord::DropTable { name: "x".into() })
            .unwrap();
        assert_eq!(shared.committed_lsn(), 5);
        w.truncate().unwrap();
        assert_eq!(shared.committed_lsn(), 5, "LSNs survive truncation");
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_corruption() {
        for (i, rec) in sample_records().iter().enumerate() {
            let lsn = (i + 1) as u64;
            let frame = encode_frame(rec, lsn);
            let (got_lsn, got) = decode_frame(&frame).unwrap();
            assert_eq!(got_lsn, lsn);
            assert_eq!(&got, rec);
            // A flipped payload byte must be caught by the CRC.
            let mut bad = frame.clone();
            let last = bad.len() - 1;
            bad[last] ^= 0x40;
            assert!(decode_frame(&bad).is_err());
            // A truncated frame must be caught by the length check.
            assert!(decode_frame(&frame[..frame.len() - 1]).is_err());
        }
        assert!(decode_frame(&[1, 2, 3]).is_err());
    }

    #[test]
    fn frames_of_every_kind_keep_their_bytes() {
        // One frame per kind the engine writes, at LSN 42: a log written by
        // an earlier build must replay byte for byte.
        let frozen = [
            (
                WalRecord::CreateTable {
                    name: "t".into(),
                    columns: vec!["id".into(), "v".into()],
                    types: vec![DataType::Serial, DataType::Text],
                },
                "1f000000adf4e4692a000000000000000001000000740200000002000000696404010000007602",
            ),
            (
                WalRecord::DropTable { name: "t".into() },
                "0e000000b494bc6f2a00000000000000010100000074",
            ),
            (
                WalRecord::Insert {
                    table: "t".into(),
                    rows: vec![
                        vec![Value::Int(1), Value::text("a")],
                        vec![Value::Int(2), Value::Null],
                    ],
                },
                "33000000dcfb8db82a00000000000000020100000074020000000200000002010000000000000004\
                 01000000610200000002020000000000000000",
            ),
            (
                WalRecord::TxnPrepare {
                    txn_id: 7,
                    records: vec![
                        WalRecord::DropTable { name: "u".into() },
                        WalRecord::Insert {
                            table: "t".into(),
                            rows: vec![vec![Value::Float(0.5), Value::Bool(true)]],
                        },
                    ],
                },
                "4c000000a21c18872a00000000000000050700000000000000020000000e00000000000000000000\
                 00010100000075210000000000000000000000020100000074010000000200000003000000000000\
                 e03f0101",
            ),
            (
                WalRecord::TxnCommit { txn_id: 7 },
                "110000008d6cbfac2a00000000000000060700000000000000",
            ),
            (
                WalRecord::TxnAbort { txn_id: 8 },
                "11000000626ae4622a00000000000000070800000000000000",
            ),
            (
                WalRecord::TxnDecision {
                    txn_id: 7,
                    commit: true,
                },
                "1200000059af69282a0000000000000008070000000000000001",
            ),
        ];
        for (rec, hex) in frozen {
            let frame = encode_frame(&rec, 42);
            let got: String = frame.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(got, hex, "{rec:?}");
            assert_eq!(decode_frame(&frame).unwrap(), (42, rec));
        }
        for retired in [3u8, 4] {
            let mut payload = Vec::new();
            put_u64(&mut payload, 42);
            payload.push(retired);
            put_str(&mut payload, "t");
            let err = WalRecord::decode(&payload).unwrap_err().to_string();
            assert!(
                err.contains(&format!("unknown WAL record kind {retired}")),
                "{err}"
            );
        }
    }

    #[test]
    fn group_commit_batches_fsyncs_and_defers_watermark() {
        let path = tmp("group");
        let mut w = WalWriter::open(&path, FsyncPolicy::Always, 0, 1).unwrap();
        let shared = w.shared();
        w.begin_group();
        for name in ["a", "b", "c"] {
            w.append(&WalRecord::DropTable { name: name.into() })
                .unwrap();
        }
        assert_eq!(w.stats().fsyncs, 0, "appends deferred their fsync");
        assert_eq!(
            shared.committed_lsn(),
            0,
            "deferred records are not acknowledged"
        );
        assert_eq!(w.group_pending(), 3);
        assert_eq!(w.end_group().unwrap(), 3);
        assert_eq!(w.stats().fsyncs, 1, "one fsync acknowledged the batch");
        assert_eq!(shared.committed_lsn(), 3);
        assert_eq!(w.stats().group_commits, 1);
        assert_eq!(w.stats().group_committed_records, 3);
        // Empty window: no fsync, no counters.
        w.begin_group();
        assert_eq!(w.end_group().unwrap(), 0);
        assert_eq!(w.stats().fsyncs, 1);
        assert_eq!(w.stats().group_commits, 1);
        drop(w);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.records.len(), 3);
        assert_eq!(out.torn_bytes, 0);
    }

    #[test]
    fn group_commit_is_noop_for_lax_policies() {
        let path = tmp("grouplax");
        let mut w = WalWriter::open(&path, FsyncPolicy::Off, 0, 1).unwrap();
        let shared = w.shared();
        w.begin_group();
        w.append(&WalRecord::DropTable { name: "x".into() })
            .unwrap();
        assert_eq!(
            shared.committed_lsn(),
            1,
            "lax policies acknowledge per append"
        );
        assert_eq!(w.group_pending(), 0);
        assert_eq!(w.end_group().unwrap(), 0);
        assert_eq!(w.stats().group_commits, 0);
    }

    fn txn_records() -> Vec<WalRecord> {
        vec![
            WalRecord::TxnPrepare {
                txn_id: 7,
                records: vec![
                    WalRecord::CreateTable {
                        name: "t".into(),
                        columns: vec!["id".into()],
                        types: vec![DataType::Int],
                    },
                    WalRecord::Insert {
                        table: "t".into(),
                        rows: vec![vec![Value::Int(1)]],
                    },
                ],
            },
            WalRecord::TxnCommit { txn_id: 7 },
            WalRecord::TxnAbort { txn_id: 8 },
            WalRecord::TxnDecision {
                txn_id: 7,
                commit: true,
            },
            WalRecord::TxnDecision {
                txn_id: 8,
                commit: false,
            },
        ]
    }

    #[test]
    fn txn_records_round_trip() {
        let path = tmp("txnroundtrip");
        let mut w = WalWriter::open(&path, FsyncPolicy::Always, 0, 1).unwrap();
        for rec in txn_records() {
            w.append(&rec).unwrap();
        }
        drop(w);
        let out = read_wal(&path).unwrap();
        assert_eq!(out.torn_bytes, 0);
        assert!(!out.crc_mismatch);
        let recs: Vec<WalRecord> = out.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(recs, txn_records());
    }

    #[test]
    fn txn_frame_codec_round_trips_and_rejects_corruption() {
        for (i, rec) in txn_records().iter().enumerate() {
            let lsn = (i + 1) as u64;
            let frame = encode_frame(rec, lsn);
            let (got_lsn, got) = decode_frame(&frame).unwrap();
            assert_eq!(got_lsn, lsn);
            assert_eq!(&got, rec);
            let mut bad = frame.clone();
            let last = bad.len() - 1;
            bad[last] ^= 0x40;
            assert!(decode_frame(&bad).is_err());
            assert!(decode_frame(&frame[..frame.len() - 1]).is_err());
        }
    }

    #[test]
    fn nested_txn_marker_is_rejected() {
        // Hand-encode a TxnPrepare whose nested record is itself a
        // TxnCommit: the codec must refuse it even with a valid CRC.
        let inner = WalRecord::TxnCommit { txn_id: 3 }.encode(0);
        let mut buf = Vec::new();
        put_u64(&mut buf, 9); // lsn
        buf.push(5); // TxnPrepare kind
        put_u64(&mut buf, 3); // txn_id
        put_u32(&mut buf, 1); // one nested record
        put_u32(&mut buf, inner.len() as u32);
        buf.extend_from_slice(&inner);
        assert!(WalRecord::decode(&buf).is_err());
    }

    #[test]
    fn missing_file_is_empty_not_error() {
        let path = tmp("missing");
        let out = read_wal(&path).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.valid_len, 0);
    }

    #[test]
    fn non_wal_file_is_an_error() {
        let path = tmp("notwal");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        assert!(read_wal(&path).is_err());
    }
}
