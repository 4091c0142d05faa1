//! Seeded WAL corruption fuzz: truncate and bit-flip committed WAL files
//! at random offsets, then drive crash recovery (`Store::open`) and the
//! frame decoder (`decode_frame`) and hold them to the corruption contract:
//!
//! 1. recovery never panics, whatever the bytes,
//! 2. recovery never surfaces a corrupt frame: everything recovered is a
//!    *prefix* of what was logged (stop at the torn tail, no holes, no
//!    mutated rows),
//! 3. flipping any single bit of a frame makes `decode_frame` reject it
//!    (the CRC is re-verified end to end, not trusted from the wire).
//!
//! The schedule is seeded through `ELEPHANT_FAULT_SEED` (CI runs a fixed
//! seed matrix), so a failure reproduces exactly.

use elephant_store::{
    decode_frame, encode_frame, FsyncPolicy, Store, StoreConfig, WalRecord, WAL_FILE,
};
use etypes::{DataType, Prng, Value};
use std::path::PathBuf;

fn seed() -> u64 {
    std::env::var("ELEPHANT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE1EFA)
}

fn tmp(name: &str, iter: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "elstore-fuzz-{}-{name}-{}-{iter}",
        std::process::id(),
        seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn create_t() -> WalRecord {
    WalRecord::CreateTable {
        name: "t".into(),
        columns: vec!["id".into(), "v".into()],
        types: vec![DataType::Int, DataType::Text],
    }
}

fn insert_row(id: i64) -> WalRecord {
    WalRecord::Insert {
        table: "t".into(),
        rows: vec![vec![Value::Int(id), Value::text(format!("row-{id}"))]],
    }
}

/// Log `create_t` plus `n` inserts and return the WAL path.
fn build_wal(dir: &PathBuf, n: usize) -> PathBuf {
    let (mut store, tables, _) =
        Store::open(StoreConfig::new(dir).with_fsync(FsyncPolicy::Always)).unwrap();
    assert!(tables.is_empty());
    store.log(&create_t()).unwrap();
    for id in 0..n as i64 {
        store.log(&insert_row(id)).unwrap();
    }
    dir.join(WAL_FILE)
}

/// Assert the recovered/tailed rows of `t` are exactly the first `k`
/// logged rows for some `k` — a prefix, with no holes and no mutations.
fn assert_prefix(rows: &[Vec<Value>], context: &str) {
    for (i, row) in rows.iter().enumerate() {
        let id = i as i64;
        assert_eq!(
            row,
            &vec![Value::Int(id), Value::text(format!("row-{id}"))],
            "{context}: row {i} is not the logged row {i} — a corrupt or \
             out-of-order frame was applied"
        );
    }
}

#[test]
fn recovery_of_mutilated_wal_never_panics_and_never_applies_garbage() {
    let mut rng = Prng::from_stream(seed(), 11);
    for iter in 0..60 {
        let dir = tmp("recover", iter);
        let n = 2 + rng.below(9);
        let wal = build_wal(&dir, n);
        let mut bytes = std::fs::read(&wal).unwrap();

        // Half the runs truncate (a torn tail), half flip 1-4 random bits
        // anywhere in the file (header, lengths, CRCs, payloads).
        if rng.below(2) == 0 {
            bytes.truncate(rng.below(bytes.len() + 1));
        } else {
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        std::fs::write(&wal, &bytes).unwrap();

        // Recovery either reports a clean prefix or refuses the file
        // outright (e.g. a flipped magic byte); it never panics and never
        // fabricates rows.
        // An Err is a clean refusal (e.g. a flipped magic byte) — also
        // within contract.
        if let Ok((_store, tables, report)) =
            Store::open(StoreConfig::new(&dir).with_fsync(FsyncPolicy::Always))
        {
            assert!(tables.len() <= 1, "iter {iter}: phantom table recovered");
            if let Some(t) = tables.first() {
                assert_eq!(t.name, "t");
                assert!(t.rows.len() <= n, "iter {iter}: more rows than were logged");
                assert_prefix(&t.rows, &format!("iter {iter} recovery"));
            }
            assert_eq!(
                report.wal_records_applied as usize,
                tables.first().map_or(0, |t| t.rows.len() + 1),
                "iter {iter}: applied-record count disagrees with state"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Log `create_t`, `base` plain inserts, then three transaction groups:
/// a committed pair (ids `base`, `base+1`), an aborted singleton (id 900),
/// and an undecided singleton (id `base+2`) left in-doubt. Returns the WAL
/// path.
fn build_txn_wal(dir: &PathBuf, base: usize) -> PathBuf {
    let (mut store, tables, _) =
        Store::open(StoreConfig::new(dir).with_fsync(FsyncPolicy::Always)).unwrap();
    assert!(tables.is_empty());
    store.log(&create_t()).unwrap();
    for id in 0..base as i64 {
        store.log(&insert_row(id)).unwrap();
    }
    let b = base as i64;
    store
        .log_txn_prepare(10, vec![insert_row(b), insert_row(b + 1)])
        .unwrap();
    store.log_txn_commit(10).unwrap();
    store.log_txn_prepare(11, vec![insert_row(900)]).unwrap();
    store.log_txn_abort(11).unwrap();
    store.log_txn_prepare(12, vec![insert_row(b + 2)]).unwrap();
    dir.join(WAL_FILE)
}

/// Seeded corruption over the 2PC record kinds (`PREPARE`/`COMMIT`/`ABORT`
/// frames): recovery must still produce a clean logical prefix — committed
/// groups apply whole or not at all, the aborted group's row never
/// surfaces, and the in-doubt group follows the injected decision map.
#[test]
fn mutilated_txn_groups_recover_whole_or_not_at_all() {
    let mut rng = Prng::from_stream(seed(), 14);
    for iter in 0..60 {
        let dir = tmp("txn", iter);
        let base = 2 + rng.below(6);
        let wal = build_txn_wal(&dir, base);
        let mut bytes = std::fs::read(&wal).unwrap();
        if rng.below(2) == 0 {
            bytes.truncate(rng.below(bytes.len() + 1));
        } else {
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        std::fs::write(&wal, &bytes).unwrap();

        // Half the runs hand recovery a commit decision for the in-doubt
        // group, half leave it to presumed abort.
        let commit_indoubt = rng.below(2) == 0;
        let mut decisions = std::collections::HashMap::new();
        if commit_indoubt {
            decisions.insert(12u64, true);
        }
        let config = StoreConfig::new(&dir)
            .with_fsync(FsyncPolicy::Always)
            .with_txn_decisions(decisions);
        let Ok((_store, tables, report)) = Store::open(config) else {
            let _ = std::fs::remove_dir_all(&dir);
            continue; // clean refusal (e.g. flipped magic) is within contract
        };
        assert!(tables.len() <= 1, "iter {iter}: phantom table recovered");
        let rows = tables.first().map(|t| t.rows.as_slice()).unwrap_or(&[]);
        let ids: Vec<i64> = rows
            .iter()
            .map(|r| match &r[0] {
                Value::Int(id) => *id,
                other => panic!("iter {iter}: corrupt cell {other:?} applied"),
            })
            .collect();
        // The logical sequence a clean prefix can expose: the base inserts,
        // then the committed pair as one unit, then (decision permitting)
        // the in-doubt singleton. Id 900 (the aborted group) must never
        // appear, and the pair must never split.
        let b = base as i64;
        let mut valid: Vec<Vec<i64>> = (0..=base).map(|k| (0..k as i64).collect()).collect();
        let mut with_pair: Vec<i64> = (0..b).collect();
        with_pair.extend([b, b + 1]);
        valid.push(with_pair.clone());
        if commit_indoubt {
            let mut with_indoubt = with_pair;
            with_indoubt.push(b + 2);
            valid.push(with_indoubt);
        }
        assert!(
            valid.contains(&ids),
            "iter {iter}: recovered ids {ids:?} are not a group-atomic prefix \
             (base={base}, commit_indoubt={commit_indoubt})"
        );
        assert_prefix(
            &rows[..ids.len().min(base)],
            &format!("iter {iter} txn base"),
        );
        // The report's group accounting matches what surfaced.
        if ids.len() > base {
            assert!(report.txn_committed >= 1, "iter {iter}: {report:?}");
        }
        if ids.len() == base + 3 {
            assert_eq!(report.txn_indoubt_committed, 1, "iter {iter}: {report:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn any_single_bit_flip_is_rejected_by_decode_frame() {
    let mut rng = Prng::from_stream(seed(), 13);
    let frame = encode_frame(&insert_row(7), 42);
    let (lsn, rec) = decode_frame(&frame).unwrap();
    assert_eq!((lsn, rec), (42, insert_row(7)));
    // Exhaustive over byte positions, seeded over bit choice.
    for i in 0..frame.len() {
        let mut bad = frame.clone();
        bad[i] ^= 1 << rng.below(8);
        assert!(
            decode_frame(&bad).is_err(),
            "flip at byte {i} went undetected"
        );
    }
    // Truncations of a lone frame are rejected too (short header or
    // declared-length mismatch).
    for len in 0..frame.len() {
        assert!(
            decode_frame(&frame[..len]).is_err(),
            "truncation to {len} bytes went undetected"
        );
    }
}
