//! Wider SQL-engine coverage: the dialect corners the generated queries rely
//! on, exercised through the public `Engine` API from outside the crate.

use blue_elephants::sqlengine::{Engine, EngineProfile};
use etypes::Value;

fn engine() -> Engine {
    Engine::new(EngineProfile::in_memory())
}

#[test]
fn copy_from_a_real_file() {
    let dir = std::env::temp_dir().join("be_engine_copy_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("data.csv");
    std::fs::write(&path, "a,b\n1,x\n?,y\n3,z\n").unwrap();

    let mut e = engine();
    e.execute("CREATE TABLE t (a int, b text)").unwrap();
    let out = e
        .execute(&format!(
            "COPY t (\"a\", \"b\") FROM '{}' WITH (DELIMITER ',', NULL '?', FORMAT CSV, HEADER TRUE)",
            path.display()
        ))
        .unwrap();
    assert_eq!(out.rows_affected, 3);
    let r = e
        .query("SELECT count(*) AS n FROM t WHERE a IS NULL")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(1));
    std::fs::remove_file(&path).ok();
}

/// `COPY` keeps PostgreSQL's CSV rule for a blank line — a record of one
/// empty field — where `read_csv` skips it as pandas does.
#[test]
fn copy_reads_a_blank_line_as_a_record() {
    let dir = std::env::temp_dir().join("be_engine_copy_test");
    std::fs::create_dir_all(&dir).unwrap();
    let one = dir.join("blank_one_column.csv");
    let two = dir.join("blank_two_columns.csv");
    std::fs::write(&one, "a\n1\n\n2\n").unwrap();
    std::fs::write(&two, "a,b\n1,x\n\n2,y\n").unwrap();
    let copy = |table: &str, path: &std::path::Path| {
        format!(
            "COPY {table} FROM '{}' WITH (DELIMITER ',', FORMAT CSV, HEADER TRUE)",
            path.display()
        )
    };

    let mut e = engine();
    e.execute("CREATE TABLE one (a int)").unwrap();
    assert_eq!(e.execute(&copy("one", &one)).unwrap().rows_affected, 3);
    let r = e.query("SELECT a FROM one").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(2)]]
    );
    e.execute("CREATE TABLE two (a int, b text)").unwrap();
    let err = e.execute(&copy("two", &two)).unwrap_err().to_string();
    assert!(err.contains("row has 1 fields, expected 2"), "{err}");

    let pandas = etypes::read_csv(&one, &etypes::CsvOptions::default()).unwrap();
    assert_eq!(pandas.len(), 2);
    std::fs::remove_file(&one).ok();
    std::fs::remove_file(&two).ok();
}

#[test]
fn full_outer_join() {
    let mut e = engine();
    e.execute_script(
        "CREATE TABLE a (k int, va text); INSERT INTO a VALUES (1, 'l1'), (2, 'l2');
         CREATE TABLE b (k int, vb text); INSERT INTO b VALUES (2, 'r2'), (3, 'r3');",
    )
    .unwrap();
    let r = e
        .query("SELECT a.k, va, vb FROM a FULL OUTER JOIN b ON a.k = b.k")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
    assert!(r
        .rows
        .iter()
        .any(|row| row[1].is_null() || row[2].is_null()));
}

#[test]
fn nested_cte_scopes() {
    let mut e = engine();
    e.execute_script("CREATE TABLE t (v int); INSERT INTO t VALUES (1), (2);")
        .unwrap();
    // Inner WITH shadows nothing but must resolve before the outer one.
    let r = e
        .query(
            "WITH outer_cte AS (
               WITH inner_cte AS (SELECT v * 10 AS w FROM t)
               SELECT w FROM inner_cte
             )
             SELECT sum(w) AS s FROM outer_cte",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(30));
}

#[test]
fn cte_referencing_earlier_cte() {
    let mut pg = Engine::new(EngineProfile::disk_based_no_latency());
    pg.execute_script("CREATE TABLE t (v int); INSERT INTO t VALUES (1), (2), (3);")
        .unwrap();
    let r = pg
        .query(
            "WITH a AS (SELECT v FROM t WHERE v > 1),
                  b AS (SELECT v * 2 AS d FROM a)
             SELECT sum(d) AS s FROM b",
        )
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(10));
    // Both referenced CTEs were materialized exactly once each.
    assert_eq!(pg.stats().ctes_materialized, 2);
}

#[test]
fn distinct_and_count_distinct() {
    let mut e = engine();
    e.execute_script("CREATE TABLE t (v int); INSERT INTO t VALUES (1), (1), (2), (NULL);")
        .unwrap();
    let r = e.query("SELECT DISTINCT v FROM t ORDER BY v").unwrap();
    assert_eq!(r.rows.len(), 3); // 1, 2, NULL
    let r = e.query("SELECT count(DISTINCT v) AS n FROM t").unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2)); // NULL not counted
}

#[test]
fn division_by_zero_is_a_runtime_error() {
    let mut e = engine();
    e.execute_script("CREATE TABLE t (v int); INSERT INTO t VALUES (0);")
        .unwrap();
    assert!(e.query("SELECT 1 / v FROM t").is_err());
}

#[test]
fn cast_failures_surface() {
    let mut e = engine();
    e.execute_script("CREATE TABLE t (s text); INSERT INTO t VALUES ('abc');")
        .unwrap();
    assert!(e.query("SELECT s::int FROM t").is_err());
    let mut e2 = engine();
    e2.execute_script("CREATE TABLE t (s text); INSERT INTO t VALUES ('42');")
        .unwrap();
    assert_eq!(
        e2.query("SELECT s::int AS n FROM t").unwrap().rows[0][0],
        Value::Int(42)
    );
}

#[test]
fn order_by_output_alias() {
    let mut e = engine();
    e.execute_script("CREATE TABLE t (a int); INSERT INTO t VALUES (3), (1), (2);")
        .unwrap();
    let r = e
        .query("SELECT a * 10 AS d FROM t ORDER BY d DESC")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(30)],
            vec![Value::Int(20)],
            vec![Value::Int(10)]
        ]
    );
}

#[test]
fn aggregates_over_empty_input() {
    let mut e = engine();
    e.execute("CREATE TABLE t (v int)").unwrap();
    let r = e
        .query("SELECT count(*) AS n, sum(v) AS s, avg(v) AS a, array_agg(v) AS arr FROM t")
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![Value::Int(0), Value::Null, Value::Null, Value::Null]
    );
    // With GROUP BY: zero groups.
    let r = e.query("SELECT v, count(*) FROM t GROUP BY v").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn explain_is_available_from_the_public_api() {
    let mut e = engine();
    e.execute("CREATE TABLE t (a int, b int)").unwrap();
    let plan = e.explain("SELECT a FROM t WHERE b > 1").unwrap();
    assert!(plan.contains("Scan Table t"));
    assert!(plan.contains("Filter"));
    assert!(e.explain("CREATE TABLE x (a int)").is_err());
}

#[test]
fn optimizer_toggle_does_not_change_results() {
    let sql = "WITH c AS (SELECT a, b FROM t) SELECT a FROM c WHERE b > 5 ORDER BY a";
    let setup = "CREATE TABLE t (a int, b int); INSERT INTO t VALUES (1, 10), (2, 3), (3, 7);";

    let mut on = Engine::new(EngineProfile::in_memory());
    on.execute_script(setup).unwrap();
    let mut off_profile = EngineProfile::in_memory();
    off_profile.enable_optimizer = false;
    let mut off = Engine::new(off_profile);
    off.execute_script(setup).unwrap();

    assert_eq!(on.query(sql).unwrap().rows, off.query(sql).unwrap().rows);
}

#[test]
fn deep_view_chains_resolve() {
    // The VIEW-mode transpilation stacks dozens of views; make sure long
    // chains bind and execute.
    let mut e = engine();
    e.execute_script("CREATE TABLE t (v int); INSERT INTO t VALUES (1);")
        .unwrap();
    let mut prev = "t".to_string();
    for i in 0..40 {
        let name = format!("v{i}");
        e.execute(&format!(
            "CREATE VIEW {name} AS SELECT v + 1 AS v FROM {prev}"
        ))
        .unwrap();
        prev = name;
    }
    let r = e.query(&format!("SELECT v FROM {prev}")).unwrap();
    assert_eq!(r.rows[0][0], Value::Int(41));
}

#[test]
fn self_referencing_cte_is_rejected_not_hung() {
    let mut e = engine();
    e.execute_script("CREATE TABLE c (v int); INSERT INTO c VALUES (1);")
        .unwrap();
    // `c` in scope refers to the CTE itself -> cycle -> bind error.
    let result = e.query("WITH c AS (SELECT v FROM c) SELECT v FROM c");
    assert!(result.is_err());
}

#[test]
fn median_and_stddev_in_group_context() {
    let mut e = engine();
    e.execute_script(
        "CREATE TABLE t (g text, v int);
         INSERT INTO t VALUES ('a', 1), ('a', 3), ('b', 10), ('b', 10);",
    )
    .unwrap();
    let r = e
        .query("SELECT g, median(v) AS m, stddev_pop(v) AS s FROM t GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Float(2.0));
    assert_eq!(r.rows[0][2], Value::Float(1.0));
    assert_eq!(r.rows[1][2], Value::Float(0.0));
}

#[test]
fn right_join_matches_listing_one() {
    let mut e = engine();
    e.execute_script(
        "CREATE TABLE cur (s int, ratio double precision); INSERT INTO cur VALUES (2, 1.0);
         CREATE TABLE orig (s int, ratio double precision);
         INSERT INTO orig VALUES (1, 0.5), (2, 0.5);",
    )
    .unwrap();
    let r = e
        .query(
            "SELECT o.s, o.ratio - COALESCE(c.ratio, 0) AS bias_change
             FROM cur c RIGHT OUTER JOIN orig o ON o.s = c.s",
        )
        .unwrap();
    let mut rows = r.sorted_rows();
    rows.sort();
    assert_eq!(rows[0], vec![Value::Int(1), Value::Float(0.5)]);
    assert_eq!(rows[1], vec![Value::Int(2), Value::Float(-0.5)]);
}
