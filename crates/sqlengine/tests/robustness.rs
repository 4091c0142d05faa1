//! Health state machine, rollback-on-WAL-failure, and statement timeouts.
//!
//! Fault-arming tests live in their own integration binary because the
//! fault registry is process-global; within this binary they serialize on
//! `TEST_LOCK`.

use etypes::fault::{self, FaultPolicy};
use etypes::Value;
use sqlengine::{Engine, EngineProfile, FsyncPolicy, Health, SqlError};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear_all();
    guard
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elrobust-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &PathBuf) -> Engine {
    Engine::open_durable(EngineProfile::in_memory(), dir, FsyncPolicy::Always).unwrap()
}

fn count(e: &mut Engine, table: &str) -> i64 {
    let rel = e
        .query(&format!("SELECT count(*) AS n FROM {table}"))
        .unwrap();
    match rel.rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("count returned {v:?}"),
    }
}

#[test]
fn failed_insert_is_invisible_now_and_after_restart() {
    let _g = locked();
    let dir = tmp_dir("divergence");
    {
        let mut e = durable(&dir);
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
            .unwrap();
        fault::set("wal.append", FaultPolicy::ErrorOnce);
        let err = e.execute("INSERT INTO t VALUES (2)").unwrap_err();
        assert!(
            matches!(err, SqlError::Storage(_)),
            "typed, not a panic: {err}"
        );
        // The regression this PR fixes: the row used to stay visible in
        // memory while replay would never reconstruct it.
        assert_eq!(count(&mut e, "t"), 1, "failed INSERT left no row behind");
        assert!(matches!(e.health(), Health::ReadOnly { .. }));
    }
    fault::clear_all();
    let mut e = durable(&dir);
    assert_eq!(count(&mut e, "t"), 1, "and none resurrected after restart");
    assert_eq!(*e.health(), Health::Healthy, "fresh engine starts healthy");
}

/// The heap as stored: sealed chunk rows, tail rows, serial counters.
type HeapState = (Vec<Vec<Vec<Value>>>, Vec<Vec<Value>>, Vec<(usize, i64)>);

fn heap_state(e: &Engine, table: &str) -> HeapState {
    let t = e.catalog().table(table).unwrap();
    let sealed = t.heap.sealed().iter().map(|c| c.to_rows()).collect();
    (sealed, t.heap.tail().to_vec(), t.serial_next.clone())
}

#[test]
fn insert_across_a_seal_rolls_back_to_the_exact_heap() {
    let _g = locked();
    let dir = tmp_dir("seal-rollback");
    let mut e = durable(&dir);
    e.execute("CREATE TABLE t (id serial, s text)").unwrap();
    let values = |range: std::ops::Range<usize>| {
        let tuples: Vec<String> = range.map(|i| format!("(NULL, 'v{}')", i % 3)).collect();
        format!("INSERT INTO t VALUES {}", tuples.join(", "))
    };
    // 1020 rows: one short of a seal, plus a full chunk before them.
    e.execute(&values(0..2044)).unwrap();
    let before = heap_state(&e, "t");
    assert_eq!((before.0.len(), before.1.len()), (1, 1020));
    let rows_before = e.query("SELECT ctid, * FROM t").unwrap().rows;

    // Ten more rows seal the tail, then the WAL refuses the statement.
    fault::set("wal.append", FaultPolicy::ErrorOnce);
    e.execute(&values(0..10)).unwrap_err();
    assert_eq!(
        heap_state(&e, "t"),
        before,
        "sealed chunk unsealed, serials restored"
    );
    assert_eq!(e.query("SELECT ctid, * FROM t").unwrap().rows, rows_before);

    // After re-arming, the same insert seals and continues the serials.
    e.checkpoint().unwrap();
    e.execute(&values(0..10)).unwrap();
    let after = heap_state(&e, "t");
    assert_eq!((after.0.len(), after.1.len()), (2, 6));
    let last = e
        .query("SELECT ctid, id FROM t WHERE id > 2053")
        .unwrap()
        .rows;
    assert_eq!(last, vec![vec![Value::Int(2053), Value::Int(2054)]]);
    drop(e);
    let e = durable(&dir);
    assert_eq!(heap_state(&e, "t"), after, "recovery seals the same heap");
}

#[test]
fn read_only_engine_serves_reads_and_checkpoint_rearms() {
    let _g = locked();
    let dir = tmp_dir("rearm");
    let mut e = durable(&dir);
    e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
        .unwrap();
    fault::set("wal.append", FaultPolicy::ErrorOnce);
    e.execute("INSERT INTO t VALUES (2)").unwrap_err();
    assert!(matches!(e.health(), Health::ReadOnly { .. }));

    // Reads keep serving; writes fail fast with the typed read-only error
    // carrying the original cause.
    assert_eq!(count(&mut e, "t"), 1);
    let err = e.execute("INSERT INTO t VALUES (3)").unwrap_err();
    let SqlError::ReadOnly(reason) = err else {
        panic!("expected ReadOnly, got {err}");
    };
    assert!(reason.contains("wal.append"), "cause preserved: {reason}");

    // CHECKPOINT compacts memory (consistent, thanks to rollback) into a
    // fresh snapshot and truncates the WAL — safe to re-arm.
    e.checkpoint().unwrap().expect("durable engine checkpoints");
    assert_eq!(*e.health(), Health::Healthy);
    e.execute("INSERT INTO t VALUES (4)").unwrap();
    drop(e);
    let mut e = durable(&dir);
    assert_eq!(count(&mut e, "t"), 2, "write after re-arm is durable");
}

#[test]
fn ddl_rolls_back_when_the_wal_refuses_it() {
    let _g = locked();
    let dir = tmp_dir("ddl");
    let mut e = durable(&dir);
    e.execute_script("CREATE TABLE keep (a int); INSERT INTO keep VALUES (7);")
        .unwrap();

    // CREATE TABLE: the new table must not survive a failed log.
    fault::set("wal.append", FaultPolicy::ErrorOnce);
    e.execute("CREATE TABLE ghost (a int)").unwrap_err();
    assert!(e.catalog().table("ghost").is_none(), "create rolled back");

    // DROP TABLE: the dropped table must come back, rows and all.
    e.checkpoint().unwrap();
    fault::set("wal.append", FaultPolicy::ErrorOnce);
    e.execute("DROP TABLE keep").unwrap_err();
    assert_eq!(count(&mut e, "keep"), 1, "drop rolled back, rows intact");
    fault::clear_all();
}

#[test]
fn snapshot_rename_failure_degrades_checkpoint_not_process() {
    let _g = locked();
    let dir = tmp_dir("ckpt");
    let mut e = durable(&dir);
    e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
        .unwrap();
    fault::set("snapshot.rename", FaultPolicy::ErrorOnce);
    let err = e.checkpoint().unwrap_err();
    assert!(
        matches!(err, SqlError::Storage(_)),
        "typed error, no panic: {err}"
    );
    // The engine is still fully serving — a failed checkpoint degrades
    // nothing (the WAL still covers every acknowledged write).
    assert_eq!(*e.health(), Health::Healthy);
    assert_eq!(count(&mut e, "t"), 1);
    e.execute("INSERT INTO t VALUES (2)").unwrap();
    e.checkpoint().unwrap().expect("retry succeeds");
    drop(e);
    let mut e = durable(&dir);
    assert_eq!(count(&mut e, "t"), 2);
}

#[test]
fn unlogged_mode_bypasses_wal_and_read_only_gate() {
    let _g = locked();
    let dir = tmp_dir("unlogged");
    let mut e = durable(&dir);
    e.execute("CREATE TABLE base (a int)").unwrap();

    // Degrade the engine.
    fault::set("wal.append", FaultPolicy::ErrorOnce);
    e.execute("INSERT INTO base VALUES (1)").unwrap_err();
    assert!(matches!(e.health(), Health::ReadOnly { .. }));

    // Inspection-style DDL/DML still works in unlogged mode.
    e.set_unlogged(true);
    e.execute_script("CREATE TABLE scratch (a int); INSERT INTO scratch VALUES (1), (2);")
        .unwrap();
    assert_eq!(count(&mut e, "scratch"), 2);
    e.set_unlogged(false);
    drop(e);

    // Unlogged state is deliberately not durable.
    let e = durable(&dir);
    assert!(e.catalog().table("scratch").is_none());
    assert!(e.catalog().table("base").is_some());
}

#[test]
fn statement_timeout_cancels_runaway_cross_join() {
    let _g = locked();
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE a (x int)").unwrap();
    let values: Vec<String> = (0..200).map(|i| format!("({i})")).collect();
    e.execute(&format!("INSERT INTO a VALUES {}", values.join(",")))
        .unwrap();

    e.set_statement_timeout(Some(Duration::ZERO));
    let err = e
        .query("SELECT count(*) AS n FROM a CROSS JOIN a AS b CROSS JOIN a AS c")
        .unwrap_err();
    assert!(matches!(err, SqlError::Timeout { ms: 0 }), "got {err}");

    // Clearing the budget lets the same statement finish.
    e.set_statement_timeout(None);
    let rel = e
        .query("SELECT count(*) AS n FROM a CROSS JOIN a AS b")
        .unwrap();
    assert_eq!(rel.rows[0][0], Value::Int(200 * 200));
}

#[test]
fn generous_timeout_does_not_fire() {
    let _g = locked();
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE t (a int)").unwrap();
    e.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    e.set_statement_timeout(Some(Duration::from_secs(60)));
    let rel = e
        .query("SELECT count(*) AS n FROM t CROSS JOIN t AS b")
        .unwrap();
    assert_eq!(rel.rows[0][0], Value::Int(9));
}
