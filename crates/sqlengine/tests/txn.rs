//! Two-phase-commit participant hooks: prepare/commit/abort semantics,
//! in-doubt recovery, and fault injection on the new WAL edges.
//!
//! Fault-arming tests serialize on `TEST_LOCK` because the fault registry
//! is process-global.

use etypes::fault;
use etypes::Value;
use sqlengine::{Engine, EngineProfile, FsyncPolicy, Health, SqlError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear_all();
    guard
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eltxn-test-{}-{name}", std::process::id()));
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
fn prepared_then_committed_survives_restart() {
    let _g = locked();
    let dir = tmp_dir("commit");
    {
        let mut e = durable(&dir);
        e.execute("CREATE TABLE t (a int)").unwrap();
        let last = e
            .prepare_txn(1, "INSERT INTO t VALUES (1), (2); INSERT INTO t VALUES (3)")
            .unwrap();
        assert_eq!(last.rows_affected, 1, "the last statement's count");
        assert_eq!(e.prepared_txn_id(), Some(1));
        assert_eq!(count(&mut e, "t"), 3, "effects visible while prepared");
        e.commit_prepared(1).unwrap();
        assert_eq!(e.prepared_txn_id(), None);
    }
    let mut e = durable(&dir);
    assert_eq!(count(&mut e, "t"), 3);
    let report = e.recovery_report().unwrap();
    assert_eq!(report.txn_committed, 1);
}

#[test]
fn aborted_txn_unwinds_memory_and_disk() {
    let _g = locked();
    let dir = tmp_dir("abort");
    {
        let mut e = durable(&dir);
        e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (0)")
            .unwrap();
        e.prepare_txn(1, "INSERT INTO t VALUES (1); CREATE TABLE u (b int)")
            .unwrap();
        assert_eq!(count(&mut e, "t"), 2);
        e.abort_prepared(1).unwrap();
        assert_eq!(count(&mut e, "t"), 1, "insert unwound");
        assert!(
            e.execute("SELECT * FROM u").is_err(),
            "created table unwound"
        );
        assert_eq!(*e.health(), Health::Healthy, "abort is not a failure");
    }
    let mut e = durable(&dir);
    assert_eq!(count(&mut e, "t"), 1);
    assert_eq!(e.recovery_report().unwrap().txn_aborted, 1);
}

#[test]
fn in_doubt_txn_presumed_aborted_then_committed_by_decision() {
    let _g = locked();
    let dir = tmp_dir("indoubt");
    {
        let mut e = durable(&dir);
        e.execute("CREATE TABLE t (a int)").unwrap();
        e.prepare_txn(9, "INSERT INTO t VALUES (1)").unwrap();
        // Crash while in-doubt: drop without a decision.
    }
    // No decision map: presumed abort.
    {
        let mut e = durable(&dir);
        assert_eq!(count(&mut e, "t"), 0);
        assert_eq!(e.recovery_report().unwrap().txn_indoubt_aborted, 1);
    }
    // A second in-doubt group, this time resolved by a commit decision.
    {
        let mut e = durable(&dir);
        e.prepare_txn(10, "INSERT INTO t VALUES (2)").unwrap();
    }
    let mut e = Engine::open_durable_with_decisions(
        EngineProfile::in_memory(),
        &dir,
        FsyncPolicy::Always,
        HashMap::from([(10, true)]),
    )
    .unwrap();
    assert_eq!(count(&mut e, "t"), 1);
    assert_eq!(e.recovery_report().unwrap().txn_indoubt_committed, 1);
}

#[test]
fn failed_statement_mid_prepare_unwinds_earlier_statements() {
    let _g = locked();
    let dir = tmp_dir("midfail");
    let mut e = durable(&dir);
    e.execute("CREATE TABLE t (a int)").unwrap();
    let err = e.prepare_txn(2, "INSERT INTO t VALUES (1); INSERT INTO nope VALUES (2)");
    assert!(err.is_err());
    assert_eq!(e.prepared_txn_id(), None);
    assert_eq!(count(&mut e, "t"), 0, "first statement unwound");
    assert_eq!(*e.health(), Health::Healthy);
    // The engine stays fully usable.
    e.execute("INSERT INTO t VALUES (7)").unwrap();
    assert_eq!(count(&mut e, "t"), 1);
}

#[test]
fn volatile_engine_supports_prepare_and_abort() {
    let _g = locked();
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE t (a int)").unwrap();
    e.prepare_txn(1, "INSERT INTO t VALUES (1)").unwrap();
    assert_eq!(count(&mut e, "t"), 1);
    e.abort_prepared(1).unwrap();
    assert_eq!(count(&mut e, "t"), 0, "volatile abort unwinds memory");
    e.prepare_txn(2, "INSERT INTO t VALUES (2)").unwrap();
    e.commit_prepared(2).unwrap();
    assert_eq!(count(&mut e, "t"), 1);
}

#[test]
fn second_prepare_and_mismatched_outcomes_are_refused() {
    let _g = locked();
    let dir = tmp_dir("guards");
    let mut e = durable(&dir);
    e.execute("CREATE TABLE t (a int)").unwrap();
    e.prepare_txn(1, "INSERT INTO t VALUES (1)").unwrap();
    assert!(e.prepare_txn(2, "INSERT INTO t VALUES (2)").is_err());
    assert!(e.commit_prepared(99).is_err(), "wrong id refused");
    assert!(e.abort_prepared(99).is_err());
    assert!(
        e.checkpoint().is_err(),
        "checkpoint refused while undecided"
    );
    e.commit_prepared(1).unwrap();
    assert_eq!(count(&mut e, "t"), 1);
    e.checkpoint().unwrap().unwrap();
}

#[test]
fn failed_prepare_fsync_unwinds_and_degrades() {
    let _g = locked();
    let dir = tmp_dir("prepfault");
    let mut e = durable(&dir);
    e.execute("CREATE TABLE t (a int)").unwrap();
    fault::configure("txn.prepare_fsync=error_once").unwrap();
    let err = e.prepare_txn(1, "INSERT INTO t VALUES (1)");
    fault::clear("txn.prepare_fsync");
    assert!(matches!(err, Err(SqlError::Storage(_))));
    assert_eq!(e.prepared_txn_id(), None);
    assert!(matches!(e.health(), Health::ReadOnly { .. }));
    // Reads still serve; the unwound insert is gone.
    assert_eq!(count(&mut e, "t"), 0);
    // Checkpoint re-arms, writes work again.
    e.checkpoint().unwrap().unwrap();
    e.execute("INSERT INTO t VALUES (5)").unwrap();
    assert_eq!(count(&mut e, "t"), 1);
}

#[test]
fn failed_commit_marker_keeps_memory_and_recovery_completes() {
    let _g = locked();
    let dir = tmp_dir("commitfault");
    {
        let mut e = durable(&dir);
        e.execute("CREATE TABLE t (a int)").unwrap();
        e.prepare_txn(4, "INSERT INTO t VALUES (1)").unwrap();
        fault::configure("txn.commit_append=error_once").unwrap();
        let err = e.commit_prepared(4);
        fault::clear("txn.commit_append");
        assert!(err.is_err());
        assert_eq!(
            count(&mut e, "t"),
            1,
            "decision was commit: effects are kept"
        );
        assert!(matches!(e.health(), Health::ReadOnly { .. }));
    }
    // The group is in-doubt on disk; the coordinator's decision completes it.
    let mut e = Engine::open_durable_with_decisions(
        EngineProfile::in_memory(),
        &dir,
        FsyncPolicy::Always,
        HashMap::from([(4, true)]),
    )
    .unwrap();
    assert_eq!(count(&mut e, "t"), 1);
    assert_eq!(e.recovery_report().unwrap().txn_indoubt_committed, 1);
}
