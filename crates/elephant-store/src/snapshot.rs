//! Columnar snapshots.
//!
//! A snapshot is a compact, checksummed image of every base table at a
//! checkpoint. Layout:
//!
//! ```text
//! file   := magic "ELSNP001"  last_lsn:u64 LE  table_count:u32 LE  table*
//! table  := len:u32 LE  crc:u32 LE  blob[len]          (crc over blob)
//! blob   := name:str  ncols:u32  (colname:str dtype)*  nserial:u32
//!           (colidx:u32 next:i64)*  nrows:u64  page*   (one page per column)
//! page   := tag:u8  nullbitmap[ceil(nrows/8)]  non-null cells
//! ```
//!
//! Pages are **typed**: the writer picks the densest representation every
//! non-null cell of the column fits (`int` = raw i64, `float` = raw f64
//! bits, `bool` = one byte, `text` = length-prefixed). Columns holding
//! arrays or mixed-typed cells (the engine coerces only "where cheap") fall
//! back to the generic tagged [`Value`] encoding. Null positions are stored
//! once in the bitmap (bit i of byte i/8, LSB first) and contribute no page
//! bytes.
//!
//! The writer encodes each page straight from a [`TableView`] — the
//! engine's sealed column chunks plus its row-major tail — and picks the
//! tag over all of the column's rows, so the bytes do not depend on where
//! the heap happens to be sealed.
//!
//! Rows are written in table order, so the implicit ctid — row position,
//! which the paper's inspection joins rely on — survives restart exactly.
//!
//! Writes go to a temp file which is fsynced and atomically renamed over
//! the previous snapshot; a crash mid-checkpoint therefore leaves the old
//! snapshot intact.

use crate::crc32::crc32;
use crate::error::{Result, StoreError};
use crate::{TableImage, TableView};
use etypes::binary::{put_i64, put_str, put_u32, put_u64};
use etypes::chunk::{encode_page, Column};
use etypes::{ByteReader, Value};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::Path;

/// File magic for snapshot files (8 bytes, versioned).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"ELSNP001";

fn decode_column(
    r: &mut ByteReader<'_>,
    nrows: usize,
    rows: &mut [Vec<Value>],
    col: usize,
) -> Result<()> {
    let page = Column::decode_page(r, nrows)?;
    for (i, row) in rows.iter_mut().enumerate().take(nrows) {
        row[col] = page.get(i);
    }
    Ok(())
}

/// Append one table's blob to `buf`.
fn encode_table(buf: &mut Vec<u8>, image: TableView<'_>) {
    let nrows = image.row_count();
    buf.reserve(256 + nrows * 16);
    put_str(buf, image.name);
    put_u32(buf, image.columns.len() as u32);
    for (c, t) in image.columns.iter().zip(image.types) {
        put_str(buf, c);
        etypes::binary::put_datatype(buf, t);
    }
    put_u32(buf, image.serial_next.len() as u32);
    for (idx, next) in image.serial_next {
        put_u32(buf, *idx as u32);
        put_i64(buf, *next);
    }
    put_u64(buf, nrows as u64);
    // One page per column, encoded straight from the sealed chunks' columns
    // and the tail rows.
    for col in 0..image.columns.len() {
        let sealed: Vec<&Column> = image
            .chunks
            .iter()
            .map(|c| c.column(col).as_ref())
            .collect();
        encode_page(buf, &sealed, image.tail, col);
    }
}

fn decode_table(blob: &[u8]) -> Result<TableImage> {
    let mut r = ByteReader::new(blob);
    let name = r.str()?;
    let ncols = r.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols);
    let mut types = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        columns.push(r.str()?);
        types.push(r.datatype()?);
    }
    let nserial = r.u32()? as usize;
    let mut serial_next = Vec::with_capacity(nserial);
    for _ in 0..nserial {
        let idx = r.u32()? as usize;
        let next = r.i64()?;
        serial_next.push((idx, next));
    }
    let nrows = r.u64()? as usize;
    if nrows > blob.len() && ncols > 0 {
        // Every stored row costs at least one bitmap bit; a row count larger
        // than the blob itself is corruption the CRC failed to catch.
        return Err(StoreError::corrupt(format!(
            "snapshot row count {nrows} exceeds table blob"
        )));
    }
    let mut rows = vec![vec![Value::Null; ncols]; nrows];
    for col in 0..ncols {
        decode_column(&mut r, nrows, &mut rows, col)?;
    }
    if !r.is_empty() {
        return Err(StoreError::corrupt(format!(
            "{} trailing bytes after snapshot table '{name}'",
            r.remaining()
        )));
    }
    Ok(TableImage {
        name,
        columns,
        types,
        serial_next,
        rows,
    })
}

/// Write a snapshot of `tables` at WAL position `last_lsn` to `path`
/// (atomically, via a `.tmp` sibling). Returns the byte size written.
///
/// ## Failpoints
///
/// Three `etypes::fault` sites cover the checkpoint's I/O edges; each
/// failure leaves the previous snapshot intact:
///
/// * `snapshot.write` — fails the tmp-file write/fsync (tmp removed).
/// * `snapshot.rename` — fails the atomic rename (tmp removed).
/// * `snapshot.dir_fsync` — fails persisting the directory entry; the
///   rename already happened, so the new snapshot is in place but its
///   durability across power loss is unknown — reported as an error.
pub fn write_snapshot<'a, T>(path: &Path, last_lsn: u64, tables: &[T]) -> Result<u64>
where
    T: Into<TableView<'a>> + Copy,
{
    let tmp = path.with_extension("tmp");
    let mut buf = Vec::with_capacity(4096);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u64(&mut buf, last_lsn);
    put_u32(&mut buf, tables.len() as u32);
    for &image in tables {
        // The blob is encoded in place behind its length and CRC, which are
        // patched in afterwards: no second copy of the table is ever live.
        let at = buf.len();
        buf.extend_from_slice(&[0; 8]);
        encode_table(&mut buf, image.into());
        let len = (buf.len() - at - 8) as u32;
        let crc = crc32(&buf[at + 8..]);
        buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        buf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }
    let bytes = buf.len() as u64;
    if let Err(fault) = etypes::fault::fire("snapshot.write") {
        let _ = fs::remove_file(&tmp);
        return Err(fault.into());
    }
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    if let Err(fault) = etypes::fault::fire("snapshot.rename") {
        let _ = fs::remove_file(&tmp);
        return Err(fault.into());
    }
    fs::rename(&tmp, path)?;
    etypes::fault::fire("snapshot.dir_fsync")?;
    // Persist the rename itself (directory entry) where the platform allows.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(bytes)
}

/// Load the snapshot at `path`. `Ok(None)` when the file does not exist;
/// an error when it exists but is unreadable or corrupt (the caller decides
/// whether to fall back to WAL-only recovery).
///
/// Failpoint `snapshot.load` simulates a corrupt/unreadable snapshot
/// without byte-surgery, driving the caller's set-aside path.
pub fn load_snapshot(path: &Path) -> Result<Option<(u64, Vec<TableImage>)>> {
    etypes::fault::fire("snapshot.load")?;
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut data)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    decode_snapshot(&data).map(Some)
}

/// Decode an in-memory snapshot image (magic included).
fn decode_snapshot(data: &[u8]) -> Result<(u64, Vec<TableImage>)> {
    if data.len() < SNAPSHOT_MAGIC.len() || &data[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(StoreError::corrupt("not a snapshot (bad magic)"));
    }
    let mut r = ByteReader::new(&data[SNAPSHOT_MAGIC.len()..]);
    let last_lsn = r.u64()?;
    let count = r.u32()? as usize;
    let mut tables = Vec::with_capacity(count.min(1 << 16));
    for i in 0..count {
        let len = r.u32()? as usize;
        let crc = r.u32()?;
        let blob = r.bytes(len)?;
        if crc32(blob) != crc {
            return Err(StoreError::corrupt(format!(
                "snapshot table {i} checksum mismatch"
            )));
        }
        tables.push(decode_table(blob)?);
    }
    if !r.is_empty() {
        return Err(StoreError::corrupt(format!(
            "{} trailing bytes after snapshot",
            r.remaining()
        )));
    }
    Ok((last_lsn, tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::DataType;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("elsnap-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("snapshot.es")
    }

    fn sample_tables() -> Vec<TableImage> {
        vec![
            TableImage {
                name: "people".into(),
                columns: vec!["id".into(), "name".into(), "score".into(), "ok".into()],
                types: vec![
                    DataType::Serial,
                    DataType::Text,
                    DataType::Float,
                    DataType::Bool,
                ],
                serial_next: vec![(0, 4)],
                rows: vec![
                    vec![
                        Value::Int(1),
                        Value::text("ada"),
                        Value::Float(1.5),
                        Value::Bool(true),
                    ],
                    vec![Value::Int(2), Value::Null, Value::Float(-0.0), Value::Null],
                    vec![
                        Value::Int(3),
                        Value::text("bob"),
                        Value::Null,
                        Value::Bool(false),
                    ],
                ],
            },
            TableImage {
                name: "mixed".into(),
                columns: vec!["v".into()],
                types: vec![DataType::Text],
                serial_next: vec![],
                // Mixed cell types force the generic page encoding.
                rows: vec![
                    vec![Value::Int(1)],
                    vec![Value::text("two")],
                    vec![Value::Array(vec![Value::Int(3)])],
                ],
            },
            TableImage {
                name: "empty".into(),
                columns: vec!["a".into()],
                types: vec![DataType::Int],
                serial_next: vec![],
                rows: vec![],
            },
        ]
    }

    /// The rows with every float as its bit pattern, so a lost `-0.0` sign
    /// fails a comparison.
    fn bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Float(f) => format!("Float({:#x})", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn snapshot_round_trip_preserves_rows_and_order() {
        let path = tmp("roundtrip");
        let tables = sample_tables();
        let refs: Vec<&TableImage> = tables.iter().collect();
        let bytes = write_snapshot(&path, 42, &refs).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        // No format change: these are the bytes every earlier writer of
        // ELSNP001 produced for this catalog, whether it encoded owned
        // images or, as now, borrowed views.
        let data = std::fs::read(&path).unwrap();
        assert_eq!((data.len(), crc32(&data)), (275, 0xad5d_a379));
        let (lsn, loaded) = load_snapshot(&path).unwrap().unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(loaded.len(), 3);
        for (a, b) in tables.iter().zip(&loaded) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.types, b.types);
            assert_eq!(a.serial_next, b.serial_next);
            // Bit for bit: `Value`'s `==` equates `-0.0` with `0.0`.
            assert_eq!(bits(&a.rows), bits(&b.rows), "table {}", a.name);
        }
    }

    #[test]
    fn missing_snapshot_is_none() {
        assert!(load_snapshot(&tmp("missing")).unwrap().is_none());
    }

    #[test]
    fn corrupt_snapshot_is_an_error() {
        let path = tmp("corrupt");
        let tables = sample_tables();
        let refs: Vec<&TableImage> = tables.iter().collect();
        write_snapshot(&path, 1, &refs).unwrap();
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x01;
        std::fs::write(&path, &data).unwrap();
        assert!(load_snapshot(&path).is_err());
    }

    #[test]
    fn atomic_write_leaves_no_tmp_behind() {
        let path = tmp("atomic");
        let tables = sample_tables();
        let refs: Vec<&TableImage> = tables.iter().collect();
        write_snapshot(&path, 1, &refs).unwrap();
        assert!(!path.with_extension("tmp").exists());
    }
}
