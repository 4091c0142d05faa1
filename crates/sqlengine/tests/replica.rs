//! Replica-side engine state: pinned read-only serving, WAL-record apply,
//! snapshot-image reset, and the WAL-size auto-checkpoint policy.

use etypes::{DataType, Value};
use sqlengine::{Engine, EngineProfile, FsyncPolicy, Health, SqlError, TableImage, WalRecord};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elreplica-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn volatile() -> Engine {
    Engine::new(EngineProfile::in_memory())
}

#[test]
fn pinned_read_only_refuses_writes_even_on_volatile_engines() {
    let mut e = volatile();
    e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (1);")
        .unwrap();
    e.pin_read_only("replica: writes must go to the leader");
    assert!(matches!(e.health(), Health::ReadOnly { .. }));
    assert!(e.is_pinned_read_only());

    // Every base-table write is refused with the typed error.
    for sql in [
        "INSERT INTO t VALUES (2)",
        "CREATE TABLE u (a int)",
        "DROP TABLE t",
        "DROP TABLE IF EXISTS missing",
    ] {
        match e.execute(sql) {
            Err(SqlError::ReadOnly(reason)) => assert!(reason.contains("leader"), "{reason}"),
            other => panic!("{sql}: expected ReadOnly, got {other:?}"),
        }
    }

    // Reads, EXPLAIN and view DDL keep serving.
    let rel = e.query("SELECT a FROM t").unwrap();
    assert_eq!(rel.rows, vec![vec![Value::Int(1)]]);
    e.execute("CREATE VIEW v AS SELECT a FROM t").unwrap();
    e.execute("DROP VIEW v").unwrap();
    assert!(e.explain("SELECT a FROM t").is_ok());
}

#[test]
fn pinned_read_only_survives_checkpoint() {
    let dir = tmp_dir("pinned-ckpt");
    let mut e = Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
    e.pin_read_only("replica");
    e.checkpoint().unwrap();
    assert!(
        matches!(e.health(), Health::ReadOnly { .. }),
        "checkpoint must not re-arm a pinned replica"
    );
}

#[test]
fn apply_wal_record_mirrors_recovery_replay() {
    let mut leader = volatile();
    leader
        .execute_script(
            "CREATE TABLE t (id serial, v text); \
             INSERT INTO t (v) VALUES ('a'), ('b'), ('c');",
        )
        .unwrap();

    let mut follower = volatile();
    follower.pin_read_only("replica");
    // apply bypasses the read-only gate: the records ARE the leader's log.
    follower
        .apply_wal_record(WalRecord::CreateTable {
            name: "t".into(),
            columns: vec!["id".into(), "v".into()],
            types: vec![DataType::Serial, DataType::Text],
        })
        .unwrap();
    follower
        .apply_wal_record(WalRecord::Insert {
            table: "t".into(),
            rows: vec![
                vec![Value::Int(1), Value::text("a")],
                vec![Value::Int(2), Value::text("b")],
                vec![Value::Int(3), Value::text("c")],
            ],
        })
        .unwrap();

    let q = "SELECT ctid, id, v FROM t ORDER BY id";
    assert_eq!(
        leader.query(q).unwrap().rows,
        follower.query(q).unwrap().rows,
        "rows and ctids byte-identical"
    );
    assert_eq!(
        follower.catalog().table("t").unwrap().serial_next,
        vec![(0, 4)],
        "serial counters advanced past applied rows"
    );

    // Update / delete / drop replay by ctid, like recovery does.
    follower
        .apply_wal_record(WalRecord::Update {
            table: "t".into(),
            rows: vec![(1, vec![Value::Int(2), Value::text("B")])],
        })
        .unwrap();
    follower
        .apply_wal_record(WalRecord::Delete {
            table: "t".into(),
            ctids: vec![0],
        })
        .unwrap();
    assert_eq!(
        follower.query("SELECT v FROM t ORDER BY id").unwrap().rows,
        vec![vec![Value::text("B")], vec![Value::text("c")]]
    );
    follower
        .apply_wal_record(WalRecord::DropTable { name: "t".into() })
        .unwrap();
    assert!(follower.catalog().table("t").is_none());

    // Inapplicable records surface as errors, never panics.
    assert!(follower
        .apply_wal_record(WalRecord::Insert {
            table: "ghost".into(),
            rows: vec![vec![Value::Int(1)]],
        })
        .is_err());
}

#[test]
fn replica_update_and_delete_reach_sealed_rows() {
    let mut follower = volatile();
    follower.pin_read_only("replica");
    follower
        .apply_wal_record(WalRecord::CreateTable {
            name: "t".into(),
            columns: vec!["id".into(), "v".into()],
            types: vec![DataType::Serial, DataType::Text],
        })
        .unwrap();
    let row = |i: i64, v: &str| vec![Value::Int(i), Value::text(v)];
    let mut model: Vec<Vec<Value>> = (0..2100)
        .map(|i| row(i + 1, &format!("v{}", i % 4)))
        .collect();
    follower
        .apply_wal_record(WalRecord::Insert {
            table: "t".into(),
            rows: model.clone(),
        })
        .unwrap();
    let heap = &follower.catalog().table("t").unwrap().heap;
    assert_eq!((heap.sealed().len(), heap.tail().len()), (2, 52));

    // Updates in both sealed chunks and the tail, then deletes across them.
    let updates = vec![
        (5, row(6, "five")),
        (1500, row(1501, "")),
        (2090, row(2091, "tail")),
    ];
    for (ctid, r) in &updates {
        model[*ctid as usize] = r.clone();
    }
    follower
        .apply_wal_record(WalRecord::Update {
            table: "t".into(),
            rows: updates,
        })
        .unwrap();
    let ctids = vec![2050, 10, 1023, 1024, 10];
    for &ctid in [2050, 1024, 1023, 10].iter() {
        model.remove(ctid);
    }
    follower
        .apply_wal_record(WalRecord::Delete {
            table: "t".into(),
            ctids,
        })
        .unwrap();

    let want: Vec<Vec<Value>> = model
        .iter()
        .enumerate()
        .map(|(ctid, r)| {
            let mut out = vec![Value::Int(ctid as i64)];
            out.extend(r.iter().cloned());
            out
        })
        .collect();
    assert_eq!(
        follower.query("SELECT ctid, id, v FROM t").unwrap().rows,
        want
    );
    let heap = &follower.catalog().table("t").unwrap().heap;
    assert_eq!((heap.sealed().len(), heap.tail().len()), (2, 48));
    // A ctid past the end is an error, and nothing is deleted.
    assert!(follower
        .apply_wal_record(WalRecord::Delete {
            table: "t".into(),
            ctids: vec![0, 2096],
        })
        .is_err());
    assert_eq!(
        follower.query("SELECT ctid, id, v FROM t").unwrap().rows,
        want
    );
}

#[test]
fn apply_wal_record_invalidates_dependent_plans() {
    let mut e = volatile();
    e.execute("CREATE TABLE t (a int)").unwrap();
    e.prepare_cached("SELECT a FROM t").unwrap();
    assert_eq!(e.plan_cache_len(), 1);
    e.apply_wal_record(WalRecord::DropTable { name: "t".into() })
        .unwrap();
    assert_eq!(e.plan_cache_len(), 0, "DDL apply drops dependent plans");
}

#[test]
fn reset_from_images_replaces_catalog_and_views() {
    let mut e = volatile();
    e.execute_script(
        "CREATE TABLE old (x int); INSERT INTO old VALUES (9); \
         CREATE VIEW ov AS SELECT x FROM old;",
    )
    .unwrap();
    e.prepare_cached("SELECT x FROM old").unwrap();

    let image = TableImage {
        name: "fresh".into(),
        columns: vec!["id".into(), "v".into()],
        types: vec![DataType::Serial, DataType::Text],
        serial_next: vec![(0, 3)],
        rows: vec![
            vec![Value::Int(1), Value::text("a")],
            vec![Value::Int(2), Value::Null],
        ],
    };
    e.reset_from_images(vec![image]).unwrap();

    assert!(e.catalog().table("old").is_none());
    assert!(e.catalog().view_names().is_empty());
    assert_eq!(e.plan_cache_len(), 0, "bootstrap drops every cached plan");
    let rel = e.query("SELECT ctid, id FROM fresh ORDER BY id").unwrap();
    assert_eq!(rel.rows.len(), 2);
    assert_eq!(
        e.catalog().table("fresh").unwrap().serial_next,
        vec![(0, 3)]
    );
}

#[test]
fn auto_checkpoint_fires_on_wal_growth() {
    let dir = tmp_dir("autockpt");
    let mut e = Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
    e.set_auto_checkpoint_wal_bytes(Some(512));
    e.execute("CREATE TABLE t (id serial, v text)").unwrap();
    for i in 0..64 {
        e.execute(&format!("INSERT INTO t (v) VALUES ('row-{i:04}')"))
            .unwrap();
    }
    assert!(e.auto_checkpoints() > 0, "threshold crossed at least once");
    let wal_bytes = e.storage_stats().unwrap().wal.bytes;
    assert!(
        wal_bytes < 512 + 256,
        "WAL stays near the budget, got {wal_bytes}"
    );
    // The compacted state still recovers exactly.
    drop(e);
    let mut e2 = Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
    let rel = e2.query("SELECT count(*) AS n FROM t").unwrap();
    assert_eq!(rel.rows[0][0], Value::Int(64));
}

#[test]
fn auto_checkpoint_disabled_by_default_and_on_volatile() {
    let dir = tmp_dir("autockpt-off");
    let mut e = Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
    e.execute("CREATE TABLE t (a int)").unwrap();
    for _ in 0..32 {
        e.execute("INSERT INTO t VALUES (1)").unwrap();
    }
    assert_eq!(e.auto_checkpoints(), 0);
    assert_eq!(e.storage_stats().unwrap().checkpoints, 0);

    let mut v = volatile();
    v.set_auto_checkpoint_wal_bytes(Some(1));
    v.execute("CREATE TABLE t (a int)").unwrap();
    v.execute("INSERT INTO t VALUES (1)").unwrap();
    assert_eq!(v.auto_checkpoints(), 0, "nothing to checkpoint");
}
