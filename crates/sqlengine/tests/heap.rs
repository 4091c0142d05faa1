//! The columnar table heap: seal boundaries, ctids across them, and
//! snapshot bytes encoded straight from sealed chunks.

use elephant_store::snapshot::write_snapshot;
use elephant_store::{SNAPSHOT_FILE, WAL_FILE};
use etypes::chunk::page_tag;
use etypes::{read_csv_str, CsvOptions, DataType, Value};
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
        other => other.sql_literal(),
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

/// `n` CSV rows with `?` as the NA marker: `id` int, `x` int with NAs,
/// `f` float, `s` repeated text with NAs and quoted empty fields (NULL to
/// the reader, like pandas), `t` text whose cells are partly integers.
fn load_csv(n: usize) -> String {
    let mut text = String::from("id,x,f,s,t\n");
    for i in 0..n {
        let x = if i % 5 == 2 {
            "?".to_string()
        } else {
            (i % 9).to_string()
        };
        let s = match i % 6 {
            0 => "?".to_string(),
            1 => "\"\"".to_string(),
            k => format!("\"s{},{k}\"", i % 4),
        };
        let t = match i % 3 {
            0 => format!(" {} ", i * 7),
            1 => "abc".to_string(),
            _ => "?".to_string(),
        };
        text.push_str(&format!("{i},{x},{}.25,{s},{t}\n", i % 11));
    }
    text
}

/// One durable engine loading a table either way: `by_copy` runs the
/// columnar `COPY` path, otherwise the same parsed rows go through one
/// `INSERT` (row by row through `Table::append`). `ddl` creates `t`,
/// `before` rows are inserted first (so the load appends after a tail),
/// and `list` is the COPY/INSERT column list.
struct Load {
    ddl: &'static str,
    list: Option<&'static [&'static str]>,
    before: &'static [&'static str],
}

fn load(dir: &std::path::Path, case: &Load, text: &str, by_copy: bool) -> Engine {
    let _ = std::fs::remove_dir_all(dir);
    let mut e = Engine::open_durable(EngineProfile::in_memory(), dir, FsyncPolicy::Off).unwrap();
    e.execute(case.ddl).unwrap();
    for sql in case.before {
        e.execute(sql).unwrap();
    }
    let opts = CsvOptions::default().with_na("?");
    let list: Option<Vec<String>> = case
        .list
        .map(|cols| cols.iter().map(|c| c.to_string()).collect());
    if by_copy {
        e.copy_from_str("t", list.as_deref(), text, &opts).unwrap();
    } else {
        let rows = read_csv_str(text, &opts).unwrap().to_rows();
        if !rows.is_empty() {
            let cols = list.map_or(String::new(), |l| format!(" ({})", l.join(", ")));
            let insert = insert_sql(&format!("t{cols}"), &rows);
            e.execute(&insert).unwrap();
        }
    }
    e
}

fn ctid_star(e: &mut Engine) -> Vec<Vec<Value>> {
    let rows = e.query("SELECT ctid, * FROM t").unwrap().rows;
    assert_eq!(
        e.query_reference("SELECT ctid, * FROM t").unwrap().rows,
        rows
    );
    rows
}

#[test]
fn column_load_stores_what_row_appends_store() {
    const PLAIN: &[&str] = &[];
    const TAIL: &[&str] = &[
        "INSERT INTO t (id, s) VALUES (-1, ''), (-2, NULL), (-3, 's1,3')",
        "INSERT INTO t (id, x) VALUES (-4, 4)",
    ];
    let cases = [
        // Every column already has its declared type: shared as parsed.
        Load {
            ddl: "CREATE TABLE t (id int, x int, f float, s text, t text)",
            list: None,
            before: PLAIN,
        },
        // int -> float, int -> text, float -> int (non-integral: kept),
        // text -> int (' 7 ' parses, 'abc' is kept).
        Load {
            ddl: "CREATE TABLE t (id float, x text, f int, s text, t int)",
            list: None,
            before: PLAIN,
        },
        // A column list in another order; serials filled where NULL (`x`)
        // and where not listed (`k`); `extra` NULL.
        Load {
            ddl: "CREATE TABLE t (k serial, t text, id int, x serial, f float, s text, extra int)",
            list: Some(&["id", "x", "f", "s", "t"]),
            before: PLAIN,
        },
        // Loads that append after an existing tail.
        Load {
            ddl: "CREATE TABLE t (id int, x int, f float, s text, t text)",
            list: None,
            before: TAIL,
        },
        Load {
            ddl: "CREATE TABLE t (k serial, t text, id int, x serial, f float, s text, extra int)",
            list: Some(&["id", "x", "f", "s", "t"]),
            before: TAIL,
        },
    ];
    let (dir_col, dir_row) = (tmp_dir("load-col"), tmp_dir("load-row"));
    for (c, case) in cases.iter().enumerate() {
        for n in [0, 1, BATCH - 1, BATCH, BATCH + 1, 2500] {
            let what = format!("case {c} n={n}");
            let text = load_csv(n);
            let mut col = load(&dir_col, case, &text, true);
            let mut row = load(&dir_row, case, &text, false);
            let rows = ctid_star(&mut row);
            assert_eq!(ctid_star(&mut col), rows, "{what}");
            assert_eq!(rows.len(), n + case.before.len().min(1) * 4, "{what}");
            // One WAL record per statement, byte for byte.
            assert_eq!(
                std::fs::read(dir_col.join(WAL_FILE)).unwrap(),
                std::fs::read(dir_row.join(WAL_FILE)).unwrap(),
                "{what}: WAL"
            );
            col.checkpoint().unwrap();
            row.checkpoint().unwrap();
            assert_eq!(
                std::fs::read(dir_col.join(SNAPSHOT_FILE)).unwrap(),
                std::fs::read(dir_row.join(SNAPSHOT_FILE)).unwrap(),
                "{what}: snapshot"
            );
            // Serial counters moved alike: the next row gets the same ids.
            for e in [&mut col, &mut row] {
                e.execute("INSERT INTO t (s) VALUES ('next')").unwrap();
            }
            let after = ctid_star(&mut row);
            assert_eq!(ctid_star(&mut col), after, "{what}: append after the load");
            drop((col, row));
            let mut recovered =
                Engine::open_durable(EngineProfile::in_memory(), &dir_col, FsyncPolicy::Off)
                    .unwrap();
            assert_eq!(ctid_star(&mut recovered), after, "{what}: recovered");
        }
    }
    let _ = std::fs::remove_dir_all(&dir_col);
    let _ = std::fs::remove_dir_all(&dir_row);
}

#[test]
fn a_load_seals_the_tail_and_shares_parsed_columns() {
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE t (id int, x int, f float, s text, t text)")
        .unwrap();
    e.execute("INSERT INTO t (id) VALUES (-1), (-2)").unwrap();
    let csv = read_csv_str(&load_csv(2500), &CsvOptions::default().with_na("?")).unwrap();
    e.copy_rows("t", None, &csv).unwrap();
    let heap = &e.catalog().table("t").unwrap().heap;
    let lens: Vec<usize> = heap.sealed().iter().map(|c| c.len()).collect();
    assert_eq!(lens, [2, BATCH, BATCH, 2500 - 2 * BATCH]);
    assert!(heap.tail().is_empty());
    for (loaded, parsed) in heap.sealed()[1..].iter().zip(&csv.chunks) {
        for c in 0..5 {
            assert!(
                std::rc::Rc::ptr_eq(loaded.column(c), parsed.column(c)),
                "column {c} was copied"
            );
        }
    }
    // Row appends start a new tail after the loaded chunks.
    e.execute("INSERT INTO t (id) VALUES (-3)").unwrap();
    let heap = &e.catalog().table("t").unwrap().heap;
    assert_eq!((heap.sealed().len(), heap.tail().len()), (4, 1));
    let ctid = e.query("SELECT ctid FROM t WHERE id = -3").unwrap().rows;
    assert_eq!(ctid, vec![vec![Value::Int(2502)]]);
}
