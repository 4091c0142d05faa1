//! The columnar table heap: seal boundaries, ctids across them, and
//! snapshot bytes encoded straight from sealed chunks.

use elephant_store::snapshot::write_snapshot;
use elephant_store::SNAPSHOT_FILE;
use etypes::chunk::page_tag;
use etypes::{DataType, Value};
use sqlengine::{Engine, EngineProfile, FsyncPolicy, TableImage};
use std::path::PathBuf;

/// Rows per sealed chunk (the executor's batch size).
const BATCH: usize = 1024;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elheap-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sql_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Text(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

fn insert_sql(table: &str, rows: &[Vec<Value>]) -> String {
    let tuples: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(sql_value).collect();
            format!("({})", cells.join(", "))
        })
        .collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(", "))
}

/// The rows of a table that spans three sealed chunks plus a 100-row tail:
/// `sparse` is an Int column that is all NULL in chunk 1 (so that chunk
/// stores it generic), `mixed` is declared int but holds text that does
/// not parse in chunk 1 (Int storage in chunks 0 and 2, Text in chunk 1),
/// and `label` is low-cardinality text with NULLs and empty strings.
fn snapshot_rows() -> Vec<Vec<Value>> {
    (0..3 * BATCH + 100)
        .map(|i| {
            let chunk = i / BATCH;
            let sparse = if chunk == 1 {
                Value::Null
            } else {
                Value::Int((i % 7) as i64)
            };
            let mixed = if chunk == 1 {
                Value::text(format!("x{}", i % 3))
            } else {
                Value::Int(i as i64 * 3)
            };
            let label = match i % 5 {
                0 => Value::Null,
                1 => Value::text(""),
                k => Value::text(format!("l{k}")),
            };
            vec![Value::Int(i as i64), sparse, mixed, label]
        })
        .collect()
}

#[test]
fn checkpoint_of_a_chunked_heap_writes_the_row_image_bytes() {
    let dir = tmp_dir("snapshot-bytes");
    let mut e = Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
    e.execute("CREATE TABLE t (id int, sparse int, mixed int, label text)")
        .unwrap();
    let rows = snapshot_rows();
    for part in rows.chunks(700) {
        e.execute(&insert_sql("t", part)).unwrap();
    }

    // The heap is what the test says it is.
    let heap = &e.catalog().table("t").unwrap().heap;
    assert_eq!((heap.sealed().len(), heap.tail().len()), (3, 100));
    let tag = |chunk: usize, col: usize| heap.sealed()[chunk].column(col).data().tag();
    assert_eq!(tag(0, 1), page_tag::INT);
    assert_eq!(tag(1, 1), page_tag::GENERIC, "all-NULL chunk");
    assert_eq!(
        (tag(0, 2), tag(1, 2), tag(2, 2)),
        (page_tag::INT, page_tag::TEXT, page_tag::INT)
    );
    assert_eq!(tag(0, 3), page_tag::TEXT);
    assert_eq!(
        e.query("SELECT id, sparse, mixed, label FROM t")
            .unwrap()
            .rows,
        rows
    );

    e.checkpoint().unwrap().expect("durable engine checkpoints");
    let written = std::fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
    let lsn = u64::from_le_bytes(written[8..16].try_into().unwrap());
    let image = TableImage {
        name: "t".into(),
        columns: ["id", "sparse", "mixed", "label"]
            .map(String::from)
            .to_vec(),
        types: vec![DataType::Int, DataType::Int, DataType::Int, DataType::Text],
        serial_next: Vec::new(),
        rows: rows.clone(),
    };
    let expected_path = dir.join("expected.es");
    write_snapshot(&expected_path, lsn, &[&image]).unwrap();
    assert_eq!(written, std::fs::read(&expected_path).unwrap());

    // And it recovers into the same rows, sealed again on load.
    drop(e);
    let mut e = Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Off).unwrap();
    let heap = &e.catalog().table("t").unwrap().heap;
    assert_eq!((heap.sealed().len(), heap.tail().len()), (3, 100));
    assert_eq!(
        e.query("SELECT id, sparse, mixed, label FROM t")
            .unwrap()
            .rows,
        rows
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn ctid_rows(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| {
            let s = if i % 4 == 0 {
                Value::Null
            } else {
                Value::text(format!("s{}", i % 3))
            };
            vec![Value::Int(i as i64), Value::Int(i as i64 * 10), s]
        })
        .collect()
}

#[test]
fn ctids_run_across_the_seal_for_single_and_multi_row_inserts() {
    for n in [BATCH - 1, BATCH, BATCH + 1] {
        for single in [true, false] {
            let mut e = Engine::new(EngineProfile::in_memory());
            e.execute("CREATE TABLE t (id serial, a int, s text)")
                .unwrap();
            let rows: Vec<Vec<Value>> = ctid_rows(n)
                .into_iter()
                .map(|r| vec![Value::Null, r[1].clone(), r[2].clone()])
                .collect();
            if single {
                for row in &rows {
                    e.execute(&insert_sql("t", std::slice::from_ref(row)))
                        .unwrap();
                }
            } else {
                e.execute(&insert_sql("t", &rows)).unwrap();
            }
            let heap = &e.catalog().table("t").unwrap().heap;
            assert_eq!(
                (heap.sealed().len(), heap.tail().len()),
                (n / BATCH, n % BATCH),
                "n={n} single={single}"
            );
            // Serials count from 1, ctids from 0.
            let want: Vec<Vec<Value>> = ctid_rows(n)
                .into_iter()
                .map(|mut r| {
                    let id = r[0].as_i64().unwrap();
                    r[0] = Value::Int(id + 1);
                    let mut row = vec![Value::Int(id)];
                    row.extend(r);
                    row
                })
                .collect();
            let ctid_queries = [
                "SELECT ctid, * FROM t",
                // A filter that straddles the boundary keeps global ctids.
                "SELECT ctid FROM t WHERE a >= 10210 AND a <= 10240",
            ];
            let want_near: Vec<Vec<Value>> = (1021..=1024)
                .filter(|&i| i < n)
                .map(|i| vec![Value::Int(i as i64)])
                .collect();
            for (sql, want) in ctid_queries.into_iter().zip([want, want_near]) {
                assert_eq!(e.query(sql).unwrap().rows, want, "n={n} single={single}");
                let reference = e.query_reference(sql).unwrap().rows;
                assert_eq!(reference, want, "n={n} single={single} (reference)");
            }
        }
    }
}
