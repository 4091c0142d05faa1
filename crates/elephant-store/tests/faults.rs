//! Failpoint-driven fault injection tests for the storage layer.
//!
//! These live in their own integration binary (not the crate's unit tests)
//! because the fault registry is process-global: arming `wal.append` or
//! `wal.fsync` here must not be visible to the regular WAL round-trip tests
//! running in the lib test binary, which fsync concurrently and would
//! consume an `error_once`. Within this binary, every test serializes on
//! `TEST_LOCK`.

use elephant_store::snapshot::{load_snapshot, write_snapshot};
use elephant_store::wal::{read_wal, WalRecord, WalWriter, WAL_MAGIC};
use elephant_store::{FsyncPolicy, Store, StoreConfig, StoreError, TableImage};
use etypes::fault::{self, FaultPolicy};
use etypes::{DataType, Value};
use std::path::PathBuf;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear_all();
    guard
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elfault-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn create_t() -> WalRecord {
    WalRecord::CreateTable {
        name: "t".into(),
        columns: vec!["a".into()],
        types: vec![DataType::Int],
    }
}

fn insert(v: i64) -> WalRecord {
    WalRecord::Insert {
        table: "t".into(),
        rows: vec![vec![Value::Int(v)]],
    }
}

fn image(rows: Vec<Vec<Value>>) -> TableImage {
    TableImage {
        name: "t".into(),
        columns: vec!["a".into()],
        types: vec![DataType::Int],
        serial_next: vec![],
        rows,
    }
}

#[test]
fn wal_append_failpoint_fails_cleanly() {
    let _g = locked();
    let path = tmp_dir("append").join("wal.log");
    let mut w = WalWriter::open(&path, FsyncPolicy::Off, 0, 1).unwrap();
    w.append(&create_t()).unwrap();
    let stats_before = w.stats();

    fault::set("wal.append", FaultPolicy::Error);
    let err = w.append(&insert(1)).unwrap_err();
    assert!(matches!(err, StoreError::Injected(ref f) if f.site == "wal.append"));
    assert_eq!(
        w.stats(),
        stats_before,
        "clean failure: no bytes, no counters"
    );
    fault::clear("wal.append");

    let lsn = w.append(&insert(2)).unwrap();
    assert_eq!(lsn, 2, "LSN not consumed by the failed append");
    drop(w);
    let out = read_wal(&path).unwrap();
    assert_eq!(out.records.len(), 2);
    assert_eq!(out.torn_bytes, 0);
    fault::clear_all();
}

#[test]
fn short_write_leaves_torn_tail_and_poisons_until_truncate() {
    let _g = locked();
    let path = tmp_dir("torn").join("wal.log");
    let mut w = WalWriter::open(&path, FsyncPolicy::Off, 0, 1).unwrap();
    w.append(&create_t()).unwrap();

    fault::set("wal.short_write", FaultPolicy::ErrorOnce);
    let err = w.append(&insert(1)).unwrap_err();
    assert!(matches!(err, StoreError::Injected(ref f) if f.site == "wal.short_write"));
    assert_eq!(fault::hits("wal.short_write"), 1);

    // The torn prefix is really on disk and replay drops it at the boundary.
    let out = read_wal(&path).unwrap();
    assert_eq!(out.records.len(), 1, "torn frame not replayed");
    assert!(out.torn_bytes > 0, "torn bytes visible to recovery");

    // Further appends are refused: they would land after garbage and be
    // silently dropped by replay despite being acknowledged.
    let err = w.append(&insert(2)).unwrap_err();
    assert!(
        err.to_string().contains("poisoned"),
        "poisoned writer refuses appends: {err}"
    );

    // Truncate restores a clean boundary and un-poisons.
    w.truncate().unwrap();
    let lsn = w.append(&insert(3)).unwrap();
    assert_eq!(lsn, 2, "torn append never consumed its LSN");
    drop(w);
    let out = read_wal(&path).unwrap();
    assert_eq!(out.records.len(), 1);
    assert_eq!(out.records[0].0, 2);
    assert_eq!(out.torn_bytes, 0);
    fault::clear_all();
}

#[test]
fn fsync_failure_rolls_the_frame_back_out() {
    let _g = locked();
    let path = tmp_dir("fsync").join("wal.log");
    let mut w = WalWriter::open(&path, FsyncPolicy::Always, 0, 1).unwrap();
    w.append(&create_t()).unwrap();
    let stats_before = w.stats();

    fault::set("wal.fsync", FaultPolicy::ErrorOnce);
    let err = w.append(&insert(1)).unwrap_err();
    assert!(matches!(err, StoreError::Injected(ref f) if f.site == "wal.fsync"));

    // The maybe-durable frame was cut back out: an unacknowledged record
    // must not resurrect on replay.
    let stats = w.stats();
    assert_eq!(stats.records_appended, stats_before.records_appended);
    assert_eq!(stats.bytes, stats_before.bytes);
    let out = read_wal(&path).unwrap();
    assert_eq!(out.records.len(), 1);
    assert_eq!(out.torn_bytes, 0, "rollback leaves a clean boundary");

    // The writer is not poisoned — the next append reuses the LSN.
    let lsn = w.append(&insert(1)).unwrap();
    assert_eq!(lsn, 2);
    fault::clear_all();
}

#[test]
fn snapshot_write_and_rename_failpoints_preserve_old_snapshot() {
    let _g = locked();
    let dir = tmp_dir("snapfail");
    let path = dir.join("snapshot.es");
    let v1 = image(vec![vec![Value::Int(1)]]);
    write_snapshot(&path, 1, &[&v1]).unwrap();

    let v2 = image(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    for site in ["snapshot.write", "snapshot.rename"] {
        fault::set(site, FaultPolicy::Error);
        let err = write_snapshot(&path, 2, &[&v2]).unwrap_err();
        assert!(matches!(err, StoreError::Injected(ref f) if f.site == site));
        fault::clear(site);
        assert!(
            !path.with_extension("tmp").exists(),
            "{site} left a tmp file"
        );
        let (lsn, tables) = load_snapshot(&path).unwrap().unwrap();
        assert_eq!(lsn, 1, "{site} clobbered the old snapshot");
        assert_eq!(tables[0].rows.len(), 1);
    }

    // dir_fsync failure happens after the rename: the new snapshot is in
    // place, but its durability is unknown so the caller still sees an error.
    fault::set("snapshot.dir_fsync", FaultPolicy::ErrorOnce);
    assert!(write_snapshot(&path, 2, &[&v2]).is_err());
    let (lsn, _) = load_snapshot(&path).unwrap().unwrap();
    assert_eq!(lsn, 2, "rename already happened before dir_fsync");
    fault::clear_all();
}

#[test]
fn failed_checkpoint_keeps_wal_so_recovery_still_works() {
    let _g = locked();
    let cfg = StoreConfig::new(tmp_dir("ckptfail")).with_fsync(FsyncPolicy::Off);
    {
        let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
        store.log(&create_t()).unwrap();
        store.log(&insert(7)).unwrap();
        fault::set("snapshot.rename", FaultPolicy::ErrorOnce);
        let img = image(vec![vec![Value::Int(7)]]);
        assert!(store.checkpoint(&[&img]).is_err());
        fault::clear_all();
        // The WAL must not have been truncated by the failed checkpoint.
        assert!(
            store.stats().wal.bytes > 8,
            "WAL survived failed checkpoint"
        );
        assert_eq!(store.stats().checkpoints, 0);
    }
    let (_s, tables, report) = Store::open(cfg).unwrap();
    assert!(!report.snapshot_loaded);
    assert_eq!(report.wal_records_applied, 2);
    assert_eq!(tables[0].rows, vec![vec![Value::Int(7)]]);
}

#[test]
fn snapshot_load_failpoint_drives_corrupt_set_aside() {
    let _g = locked();
    let cfg = StoreConfig::new(tmp_dir("setaside")).with_fsync(FsyncPolicy::Off);
    {
        let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
        store.log(&create_t()).unwrap();
        store.log(&insert(1)).unwrap();
        let img = image(vec![vec![Value::Int(1)]]);
        store.checkpoint(&[&img]).unwrap();
    }
    fault::set("snapshot.load", FaultPolicy::ErrorOnce);
    let (_s, tables, report) = Store::open(cfg.clone()).unwrap();
    assert!(!report.snapshot_loaded);
    assert!(tables.is_empty(), "WAL was truncated at checkpoint");
    assert_eq!(report.notes.len(), 1);
    assert!(
        report.notes[0].contains("set aside"),
        "note explains the set-aside: {}",
        report.notes[0]
    );
    let corrupt = cfg.dir.join("snapshot.corrupt");
    assert!(corrupt.exists(), "evidence file preserved");
    assert!(!cfg.dir.join("snapshot.es").exists());
    fault::clear_all();
}

#[test]
fn midfile_corruption_recovers_prefix_and_resumes() {
    let _g = locked();
    let cfg = StoreConfig::new(tmp_dir("midfile")).with_fsync(FsyncPolicy::Off);
    {
        let (mut store, _, _) = Store::open(cfg.clone()).unwrap();
        store.log(&create_t()).unwrap();
        for v in 0..3 {
            store.log(&insert(v)).unwrap();
        }
    }
    // Flip a byte inside the *second* record's payload: corruption in the
    // middle of the file, not a torn tail.
    let wal_path = cfg.dir.join("wal.log");
    let mut data = std::fs::read(&wal_path).unwrap();
    let mut pos = 8; // magic
    let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
    pos += 8 + len; // now at record 2's header
    data[pos + 8] ^= 0xFF;
    std::fs::write(&wal_path, &data).unwrap();

    let (mut store, tables, report) = Store::open(cfg.clone()).unwrap();
    assert!(report.wal_crc_mismatch);
    assert!(report.wal_torn_bytes > 0);
    assert_eq!(report.wal_records_applied, 1, "only the prefix replays");
    assert!(
        tables[0].rows.is_empty(),
        "inserts after the corruption are gone"
    );

    // The writer resumed at the valid boundary: new appends are replayable.
    store.log(&insert(9)).unwrap();
    drop(store);
    let (_s, tables, report) = Store::open(cfg).unwrap();
    assert_eq!(report.wal_records_applied, 2);
    assert_eq!(tables[0].rows, vec![vec![Value::Int(9)]]);
}
#[test]
fn failed_fsync_never_advances_watermark() {
    let _g = locked();
    let path = tmp_dir("sharedfail").join("wal.log");
    let mut w = WalWriter::open(&path, FsyncPolicy::Always, 0, 1).unwrap();
    let shared = w.shared();
    w.append(&WalRecord::DropTable { name: "x".into() })
        .unwrap();
    assert_eq!(shared.committed_lsn(), 1);
    fault::configure("wal.fsync=error_once").unwrap();
    let err = w.append(&WalRecord::DropTable { name: "y".into() });
    fault::clear("wal.fsync");
    assert!(err.is_err());
    assert_eq!(
        shared.committed_lsn(),
        1,
        "rolled-back frame must not be shippable"
    );
    let lsn = w
        .append(&WalRecord::DropTable { name: "z".into() })
        .unwrap();
    assert_eq!(lsn, 2, "LSN reused after rollback");
    assert_eq!(shared.committed_lsn(), 2);
}

#[test]
fn failed_group_fsync_rolls_back_whole_batch() {
    let _g = locked();
    let path = tmp_dir("groupfail").join("wal.log");
    let mut w = WalWriter::open(&path, FsyncPolicy::Always, 0, 1).unwrap();
    let shared = w.shared();
    w.append(&WalRecord::DropTable { name: "pre".into() })
        .unwrap();
    let bytes_before = w.stats().bytes;
    w.begin_group();
    w.append(&WalRecord::DropTable { name: "a".into() })
        .unwrap();
    w.append(&WalRecord::DropTable { name: "b".into() })
        .unwrap();
    fault::configure("wal.fsync=error_once").unwrap();
    let err = w.end_group();
    fault::clear("wal.fsync");
    assert!(err.is_err());
    assert_eq!(
        shared.committed_lsn(),
        1,
        "rolled-back batch never acknowledged"
    );
    assert_eq!(w.stats().bytes, bytes_before, "batch frames cut back out");
    assert_eq!(w.stats().records_appended, 1);
    // LSNs are reused, the writer keeps working.
    let lsn = w
        .append(&WalRecord::DropTable { name: "c".into() })
        .unwrap();
    assert_eq!(lsn, 2);
    drop(w);
    let out = read_wal(&path).unwrap();
    assert_eq!(out.records.len(), 2);
    assert_eq!(out.torn_bytes, 0);
}

#[test]
fn truncate_inside_group_reanchors_window() {
    let _g = locked();
    let path = tmp_dir("grouptrunc").join("wal.log");
    let mut w = WalWriter::open(&path, FsyncPolicy::Always, 0, 1).unwrap();
    let shared = w.shared();
    w.begin_group();
    w.append(&WalRecord::DropTable { name: "a".into() })
        .unwrap();
    w.truncate().unwrap();
    assert_eq!(
        shared.committed_lsn(),
        1,
        "snapshot-covered record acknowledged"
    );
    assert_eq!(w.group_pending(), 0);
    w.append(&WalRecord::DropTable { name: "b".into() })
        .unwrap();
    fault::configure("wal.fsync=error_once").unwrap();
    let err = w.end_group();
    fault::clear("wal.fsync");
    assert!(err.is_err());
    assert_eq!(
        shared.committed_lsn(),
        1,
        "only the post-truncate record unwound"
    );
    assert_eq!(w.stats().bytes, WAL_MAGIC.len() as u64);
}
