//! Differential fuzzing: the vectorized executor (`Engine::query`) must
//! answer every query exactly like the row-at-a-time reference interpreter
//! (`Engine::query_reference`) — same rows, same order, same errors.
//!
//! The seeded corpus generator lives in [`sqlengine::fuzz`] (it is shared
//! with the sharded-routing differential test in `elephant-server`): a
//! [`Prng`] builds NULL-heavy tables and random SELECTs over filters,
//! projections, joins, aggregates, DISTINCT, ORDER BY, LIMIT, `unnest`,
//! `ROW_NUMBER()`, nested-loop joins and scalar subqueries; each query runs
//! on both paths of the same engine and the results are compared
//! byte-for-byte (`Debug` of the relation rows, or the error text). Both
//! engine personalities run, so the fenced-CTE and inlined-CTE planners are
//! each covered.

use etypes::Prng;
use sqlengine::fuzz::{gen_query, seed_statements};
use sqlengine::{Engine, EngineProfile, Relation, Result};

fn seed_engine(profile: EngineProfile, rng: &mut Prng) -> Engine {
    let mut e = Engine::new(profile);
    for stmt in seed_statements(rng) {
        e.execute(&stmt).unwrap();
    }
    e
}

/// One result as comparable text; errors collapse to their display text so
/// both paths must fail identically too.
fn render(result: Result<Relation>) -> String {
    match result {
        Ok(rel) => format!("{:?}|{:?}", rel.columns, rel.rows),
        Err(err) => format!("ERR {err}"),
    }
}

/// Run `sql` on the executor and on the reference interpreter, require
/// byte-identical answers, and return the answer.
fn same(e: &mut Engine, sql: &str, case: &str) -> String {
    let reference = render(e.query_reference(sql));
    let executed = render(e.query(sql));
    assert_eq!(executed, reference, "{case} diverged: {sql}");
    executed
}

fn diff_profile(profile: EngineProfile, seed: u64, queries: usize) {
    let mut rng = Prng::new(seed);
    let mut e = seed_engine(profile, &mut rng);
    for q in 0..queries {
        let sql = gen_query(&mut rng);
        same(&mut e, &sql, &format!("query {q}"));
    }
    assert!(
        e.stats().batches_executed > 0,
        "the executor ran no batches"
    );
}

#[test]
fn row_and_columnar_agree_disk_profile() {
    diff_profile(EngineProfile::disk_based_no_latency(), 0xE1E9_0001, 150);
}

#[test]
fn row_and_columnar_agree_in_memory_profile() {
    diff_profile(EngineProfile::in_memory(), 0xE1E9_0002, 150);
}

/// The corpus tables again, but straddling the heap's 1024-row seal: `t1`
/// and `t2` hold 1023 to 2049 rows, loaded by one multi-row INSERT or row
/// by row, and their text columns mix NULL, `''` and a few repeated values.
fn straddle_engine(profile: EngineProfile, rng: &mut Prng) -> Engine {
    let mut e = Engine::new(profile);
    e.execute("CREATE TABLE t1 (a int, b int, c float, d text)")
        .unwrap();
    e.execute("CREATE TABLE t2 (k int, v int, w text)").unwrap();
    fn int(rng: &mut Prng, lo: i64, hi: i64) -> String {
        if rng.chance(0.2) {
            "NULL".into()
        } else {
            rng.range_i64(lo, hi).to_string()
        }
    }
    fn text(rng: &mut Prng, prefix: &str) -> String {
        match rng.below(6) {
            0 => "NULL".into(),
            1 => "''".into(),
            k => format!("'{prefix}{}'", k % 3),
        }
    }
    for table in ["t1", "t2"] {
        let rows = [1023, 1024, 1025, 2049][rng.below(4)];
        let tuples: Vec<String> = (0..rows)
            .map(|_| match table {
                "t1" => {
                    let c = if rng.chance(0.2) {
                        "NULL".into()
                    } else {
                        format!("{:.3}", rng.range_f64(-4.0, 9.0))
                    };
                    let (a, b) = (int(rng, -8, 20), int(rng, 0, 6));
                    format!("({a}, {b}, {c}, {})", text(rng, "s"))
                }
                _ => {
                    let (k, v) = (int(rng, -8, 20), int(rng, -5, 5));
                    format!("({k}, {v}, {})", text(rng, "w"))
                }
            })
            .collect();
        if rng.chance(0.5) {
            e.execute(&format!("INSERT INTO {table} VALUES {}", tuples.join(", ")))
                .unwrap();
        } else {
            for t in &tuples {
                e.execute(&format!("INSERT INTO {table} VALUES {t}"))
                    .unwrap();
            }
        }
    }
    e
}

#[test]
fn row_and_columnar_agree_across_seal_boundaries() {
    let text_cases = [
        "SELECT d, count(*), min(c), max(a) FROM t1 GROUP BY d",
        "SELECT DISTINCT d FROM t1 ORDER BY d",
        "SELECT ctid, d FROM t1 WHERE d = '' OR d IS NULL",
        "SELECT t1.d, t2.w, count(*) FROM t1 INNER JOIN t2 ON t1.d = t2.w GROUP BY t1.d, t2.w",
        "SELECT t2.w, count(*), sum(t1.a) FROM t1 LEFT JOIN t2 ON t1.a = t2.k GROUP BY t2.w",
        "SELECT t2.w, t1.d, t1.ctid FROM t1 FULL JOIN t2 ON t1.a = t2.k WHERE t1.b = 1",
        "SELECT d || w AS dw, count(*) FROM t1 INNER JOIN t2 ON t1.a = t2.k GROUP BY d || w",
        "SELECT d, a FROM t1 ORDER BY d, a, c LIMIT 30",
        "WITH x AS (SELECT d, a FROM t1 WHERE a > 0) \
         SELECT p.d, count(*) FROM x p INNER JOIN x q ON p.a = q.a GROUP BY p.d",
        "SELECT d, count(*) FROM mv GROUP BY d",
        "SELECT id, d FROM mv WHERE id > 1000 AND id < 1030",
        "SELECT r.d, count(*) FROM mv r INNER JOIN mv c ON r.id = c.id \
         WHERE r.d = c.d GROUP BY r.d",
    ];
    for seed in [0xE1E9_0101u64, 0xE1E9_0102, 0xE1E9_0103, 0xE1E9_0104] {
        let profile = if seed % 2 == 0 {
            EngineProfile::in_memory()
        } else {
            EngineProfile::disk_based_no_latency()
        };
        let mut rng = Prng::new(seed);
        let mut e = straddle_engine(profile, &mut rng);
        // A view stored from the executor's batches, read back by both.
        e.execute(
            "CREATE MATERIALIZED VIEW mv AS SELECT ctid AS id, d, a FROM t1 WHERE a IS NOT NULL",
        )
        .unwrap();
        let mut cases: Vec<String> = (0..40).map(|_| gen_query(&mut rng)).collect();
        cases.extend(text_cases.map(String::from));
        for (q, sql) in cases.iter().enumerate() {
            let out = same(&mut e, sql, &format!("seed {seed:#x} case {q}"));
            if q >= 40 {
                assert!(!out.starts_with("ERR"), "{sql}: {out}");
            }
        }
    }
}

/// Lazy AND must not evaluate the right side for short-circuited rows: a
/// division that would blow up on b = 0 is guarded by `b <> 0`.
#[test]
fn columnar_preserves_lazy_and_semantics() {
    let mut rng = Prng::new(7);
    let mut e = seed_engine(EngineProfile::in_memory(), &mut rng);
    e.execute("INSERT INTO t1 VALUES (3, 0, 1.0, 'z')").unwrap();
    let sql = "SELECT a, b FROM t1 WHERE b <> 0 AND a / b > 1";
    let out = same(&mut e, sql, "guarded division");
    assert!(!out.starts_with("ERR"), "guarded division ran: {out}");
}

/// The operators the executor once handed to the row engine through a
/// fallback bridge — windows, `unnest`, cross joins, scalar subqueries —
/// answer like the reference, across batch boundaries and at the edges:
/// NULL and empty lists, a non-array pass-through, an empty build side,
/// and the subquery error texts.
#[test]
fn fallback_bridge_matches_row_engine() {
    let mut rng = Prng::new(11);
    let mut e = seed_engine(EngineProfile::in_memory(), &mut rng);
    e.execute("CREATE TABLE big (id int, g int)").unwrap();
    let rows: Vec<String> = (0..2500).map(|i| format!("({i}, {})", i % 3)).collect();
    e.execute(&format!("INSERT INTO big VALUES {}", rows.join(", ")))
        .unwrap();
    let ok = [
        "SELECT a, ROW_NUMBER() OVER (ORDER BY a) AS rn FROM t1 WHERE a IS NOT NULL LIMIT 20",
        "SELECT id, ROW_NUMBER() OVER (ORDER BY g DESC) AS rn FROM big",
        "SELECT t1.a, t2.v FROM t1 CROSS JOIN t2 WHERE t1.a = 1 AND t2.v = 2",
        "SELECT x.id, t2.k FROM big x INNER JOIN t2 ON x.id < t2.k * 100 AND t2.v > 3",
        "SELECT t1.a FROM t1 CROSS JOIN (SELECT k FROM t2 WHERE k > 100) AS none",
        "SELECT unnest(ids) AS u FROM (SELECT array_agg(v) AS ids FROM t2 WHERE v < 3) AS x",
        "SELECT g, unnest(ids) AS u FROM (SELECT g, array_agg(ctid) AS ids FROM big GROUP BY g) AS x",
        "SELECT g, unnest(ids) AS u FROM \
         (SELECT g, array_agg(CASE WHEN g = 1 THEN NULL ELSE id END) AS ids FROM big GROUP BY g) AS x",
        "SELECT unnest(ids) AS u FROM (SELECT array_agg(v) AS ids FROM t2 WHERE v > 100) AS x",
        "SELECT b, unnest(a) AS u FROM t1",
        "SELECT a, (SELECT max(k) FROM t2) AS m FROM t1 WHERE b = 1",
        "SELECT a FROM t1 WHERE a = (SELECT k FROM t2 WHERE k > 100)",
    ];
    for sql in ok {
        let out = same(&mut e, sql, "operator case");
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
    for (sql, err) in [
        (
            "SELECT a, (SELECT k FROM t2 ORDER BY k LIMIT 2) AS k FROM t1",
            "ERR execution error: scalar subquery returned 2 rows",
        ),
        (
            "SELECT a FROM t1 LEFT JOIN t2 ON t1.a < t2.k",
            "ERR bind error: outer joins support only equi-join conditions",
        ),
    ] {
        assert_eq!(same(&mut e, sql, "error case"), err);
    }
}

/// The list and text shapes of the paper's featurisation and `replace`
/// translations (§5.1.7, §5.2.2) answer like the reference: one-hot lists
/// with a NULL `pos` and `n = 0`, `ARRAY[]`, `||` with NULL, nested and
/// mixed arrays, lists through `array_agg` / `unnest` / GROUP BY / ORDER BY
/// / DISTINCT / joins, and dictionary-coded text through `REGEXP_REPLACE`,
/// `COALESCE`, comparisons and IN lists — over a loaded table whose one
/// dictionary spans three chunks, then a tail of inserted rows.
#[test]
fn list_and_text_shapes_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_0005);
    let mut csv = String::from("id,pos,n,s,f\n");
    for id in 0..2300 {
        let n = rng.range_i64(0, 4);
        let pos = if rng.chance(0.2) || n == 0 {
            String::new()
        } else {
            rng.range_i64(0, n).to_string()
        };
        let s = ["", "Medium", "Low", "High", "x,y", "a\\"][rng.below(6)];
        let f = if rng.chance(0.1) {
            String::new()
        } else {
            format!("{:.2}", rng.range_f64(-2.0, 2.0))
        };
        let s = if s.contains(',') {
            format!("\"{s}\"")
        } else {
            s.to_string()
        };
        csv.push_str(&format!("{id},{pos},{n},{s},{f}\n"));
    }
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE lt (id int, pos int, n int, s text, f float)")
        .unwrap();
    let parsed = etypes::read_csv_str(&csv, &etypes::CsvOptions::default()).unwrap();
    e.copy_rows("lt", None, &parsed).unwrap();
    e.execute(
        "INSERT INTO lt VALUES (2300, 0, 1, '', 0.5), (2301, NULL, 0, NULL, NULL), \
         (2302, 2, 3, 'Medium', -1.0), (2303, 1, 2, 'new', 2.0)",
    )
    .unwrap();
    e.execute(
        "CREATE MATERIALIZED VIEW onehot AS SELECT id, pos, \
         CASE WHEN pos IS NULL THEN array_fill(0, (n)::int) \
         ELSE array_fill(0, (pos)::int) || ARRAY[1] || array_fill(0, (n - pos - 1)::int) END AS v \
         FROM lt",
    )
    .unwrap();
    let fit = "(SELECT v, ROW_NUMBER() OVER (ORDER BY v) - 1 AS pos \
               FROM (SELECT DISTINCT s AS v FROM lt WHERE (s) IS NOT NULL) d)";
    let onehot = "(CASE WHEN f0.pos IS NULL THEN array_fill(0, ((SELECT count(*) FROM fit))::int) \
                  ELSE array_fill(0, (f0.pos)::int) || ARRAY[1] || \
                  array_fill(0, ((SELECT count(*) FROM fit) - f0.pos - 1)::int) END)";
    let cases = [
        // One-hot lists: NULL pos, n = 0, the casts, `||` chains.
        "SELECT id, CASE WHEN pos IS NULL THEN array_fill(0, n) ELSE array_fill(0, pos) || ARRAY[1] \
         || array_fill(0, n - pos - 1) END AS v FROM lt"
            .to_string(),
        "SELECT id, array_fill(0, (pos)::int), array_fill(1, 0), array_fill(0, n) FROM lt \
         WHERE pos IS NOT NULL"
            .into(),
        "SELECT id, v FROM onehot WHERE id % 7 = 0".into(),
        format!(
            "WITH fit AS {fit} SELECT tb.id, {onehot} AS f0_s FROM lt tb \
             LEFT JOIN fit f0 ON (COALESCE(tb.s, 'Low')) = f0.v"
        ),
        format!(
            "WITH fit AS {fit} SELECT tb.id, {onehot} AS f0_s FROM lt tb \
             LEFT JOIN fit f0 ON (tb.s) = f0.v WHERE tb.id > 2200"
        ),
        // `ARRAY[]`, `||` with NULL on either side, scalar appends.
        "SELECT ARRAY[] AS e, ARRAY[1] || NULL AS a, NULL || ARRAY[2] AS b".into(),
        "SELECT id, array_fill(0, pos) || NULL, NULL || array_fill(1, pos), \
         array_fill(0, pos) || CASE WHEN id % 2 = 0 THEN NULL ELSE ARRAY[2] END FROM lt \
         WHERE pos IS NOT NULL"
            .into(),
        "SELECT id, array_fill(0, COALESCE(pos, 2)) || pos, pos || ARRAY[7], ARRAY[1] || pos FROM lt"
            .into(),
        "SELECT id, array_fill(0, COALESCE(pos, 0)) || array_fill(0.5, n), array_fill(f, 2) FROM lt"
            .into(),
        "SELECT id, array_fill(s, pos), array_fill(s, 1) || ARRAY['z'] FROM lt \
         WHERE id < 40 AND pos IS NOT NULL"
            .into(),
        // Nested and mixed arrays stay generic.
        "SELECT ARRAY[ARRAY[1], ARRAY[2, 3]] AS nested, ARRAY[1] || 'x' AS mixed".into(),
        "SELECT id, array_fill(array_fill(0, pos), 2), ARRAY[pos, f], ARRAY[pos] || ARRAY[f], \
         array_fill(0, pos) || s FROM lt WHERE pos IS NOT NULL"
            .into(),
        "SELECT id, CASE WHEN id % 3 = 0 THEN array_fill(0, COALESCE(pos, 1)) WHEN id % 3 = 1 THEN ARRAY['t'] \
         ELSE NULL END FROM lt"
            .into(),
        "SELECT id, CASE WHEN id % 2 = 0 THEN array_fill(0, n) ELSE pos END FROM lt".into(),
        // Lists as values: length, aggregation, unnest, keys, order.
        "SELECT id, length(v) FROM onehot".into(),
        "SELECT lt.n, array_agg(o.v) FROM onehot o INNER JOIN lt ON o.id = lt.id GROUP BY lt.n"
            .into(),
        "SELECT v, count(*) FROM onehot GROUP BY v".into(),
        "SELECT DISTINCT v FROM onehot ORDER BY v".into(),
        "SELECT id, v FROM onehot ORDER BY v DESC, id LIMIT 25".into(),
        "SELECT id, unnest(v) AS bit FROM onehot WHERE id < 60".into(),
        "SELECT unnest(ids) AS id FROM (SELECT array_agg(ctid) AS ids FROM lt WHERE s = 'Low') AS g"
            .into(),
        "SELECT s, unnest(ids) AS p FROM (SELECT s, array_agg(pos) AS ids FROM lt GROUP BY s) AS g"
            .into(),
        "SELECT a.id, b.id FROM onehot a INNER JOIN onehot b ON a.v = b.v WHERE a.id < 5 AND b.id < 50"
            .into(),
        // Text through REGEXP_REPLACE: NULL, '', no match, a trailing backslash.
        "SELECT id, REGEXP_REPLACE(s, '^Medium$', 'Low') AS s FROM lt".into(),
        "SELECT id, REGEXP_REPLACE(s, '^$', 'empty'), REGEXP_REPLACE(s, '^absent$', 'q') FROM lt"
            .into(),
        "SELECT id, REGEXP_REPLACE(s, '^L', 'l'), REGEXP_REPLACE(s, 'h$', 'H'), \
         REGEXP_REPLACE(s, 'i', '!') FROM lt WHERE id % 5 = 0"
            .into(),
        "SELECT REGEXP_REPLACE(s, '^Medium$', 'Low'), count(*) FROM lt \
         GROUP BY REGEXP_REPLACE(s, '^Medium$', 'Low')"
            .into(),
        // COALESCE of text with a literal and with a scalar subquery.
        "SELECT id, COALESCE(s, 'fill'), COALESCE(s, (SELECT max(s) FROM lt)), COALESCE(s, NULL) FROM lt"
            .into(),
        "SELECT COALESCE(s, 'Low'), count(*) FROM lt GROUP BY COALESCE(s, 'Low')".into(),
        // Comparisons against literals in, and absent from, the dictionary.
        "SELECT id FROM lt WHERE s = 'Medium'".into(),
        "SELECT id, s = 'absent', s <> 'absent', s <> 'Low', 'Low' = s FROM lt".into(),
        "SELECT id FROM lt WHERE s IN ('absent', 'Medium', '')".into(),
        "SELECT id, s IN ('x,y', NULL), s NOT IN ('Low', 'High') FROM lt".into(),
        "SELECT id, (CASE WHEN s = 'High' THEN 1 ELSE 0 END) AS label FROM lt".into(),
        // Text = Text joins whose sides code different dictionaries.
        "SELECT a.id, b.id FROM lt a INNER JOIN (SELECT id, s FROM lt WHERE id > 2290) b ON a.s = b.s \
         WHERE a.id < 30"
            .into(),
        "SELECT a.id, b.v FROM lt a LEFT JOIN (SELECT DISTINCT s AS v FROM lt WHERE id > 2298) b \
         ON REGEXP_REPLACE(a.s, '^Medium$', 'Low') = b.v"
            .into(),
    ];
    for (q, sql) in cases.iter().enumerate() {
        let out = same(&mut e, sql, &format!("list/text case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
    // A NULL length fails on the first such row, in both engines.
    let out = same(
        &mut e,
        "SELECT id, array_fill(0, pos) FROM lt",
        "NULL length",
    );
    assert_eq!(
        out,
        "ERR value error: type mismatch: expected integer, got "
    );
}

/// Negating or taking `abs()` of `i64::MIN` has no `Int` answer: both
/// engines widen it to `Float` (as out-of-range arithmetic does) instead
/// of overflowing, and leave every other value typed.
#[test]
fn negating_i64_min_widens_in_both_engines() {
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE m (a int)").unwrap();
    let csv = "a\n-9223372036854775808\n9223372036854775807\n-3\n";
    let parsed = etypes::read_csv_str(csv, &etypes::CsvOptions::default()).unwrap();
    e.copy_rows("m", None, &parsed).unwrap();
    let out = same(&mut e, "SELECT -a, abs(a), - -a FROM m", "i64::MIN");
    assert_eq!(
        out,
        "[\"?column?\", \"abs\", \"?column?\"]|[\
         [Float(9.223372036854776e18), Float(9.223372036854776e18), Float(-9.223372036854776e18)], \
         [Int(-9223372036854775807), Int(9223372036854775807), Int(9223372036854775807)], \
         [Int(3), Int(3), Int(-3)]]"
    );
    // Without `i64::MIN` in the batch, the column stays `Int`.
    let out = same(&mut e, "SELECT -a FROM m WHERE a > -5", "typed negation");
    assert!(
        out.ends_with("[[Int(-9223372036854775807)], [Int(3)]]"),
        "{out}"
    );
}

/// `i64::MIN / -1` has no `Int` answer and widens to `Float`, as negation
/// does; `i64::MIN % -1` is 0, as PostgreSQL's `int8mod` answers. Neither
/// panics, in either engine, through the typed `%` kernel or per row.
#[test]
fn dividing_i64_min_by_minus_one_answers_in_both_engines() {
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE m (a int, b int)").unwrap();
    let csv = "a,b\n-9223372036854775808,-1\n9223372036854775807,-1\n-7,2\n";
    let parsed = etypes::read_csv_str(csv, &etypes::CsvOptions::default()).unwrap();
    e.copy_rows("m", None, &parsed).unwrap();
    let out = same(
        &mut e,
        "SELECT a / -1, a % -1, a / b, a % b FROM m",
        "i64::MIN / -1",
    );
    assert_eq!(
        out,
        "[\"?column?\", \"?column?\", \"?column?\", \"?column?\"]|[\
         [Float(9.223372036854776e18), Int(0), Float(9.223372036854776e18), Int(0)], \
         [Int(-9223372036854775807), Int(0), Int(-9223372036854775807), Int(0)], \
         [Int(7), Int(0), Int(-3), Int(-1)]]"
    );
    let out = same(
        &mut e,
        "SELECT a % 2, a % -2, a / 2 FROM m",
        "i64::MIN by 2",
    );
    assert_eq!(
        out,
        "[\"?column?\", \"?column?\", \"?column?\"]|[\
         [Int(0), Int(0), Int(-4611686018427387904)], \
         [Int(1), Int(1), Int(4611686018427387903)], \
         [Int(-1), Int(-1), Int(-3)]]"
    );
}

/// Seeded cases for the typed aggregation and join paths, on a table that
/// spans three 1024-row batches. No ORDER BY anywhere: first-seen group
/// order and probe-then-build join order are part of the answer.
fn typed_kernel_engine(rng: &mut Prng) -> Engine {
    const ROWS: i64 = 2600;
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute(
        "CREATE TABLE big (id int, ki int, kt text, kb bool, kf float, kn int, late int, \
         vi int, vf float, vbig int)",
    )
    .unwrap();
    fn null_or(rng: &mut Prng, p: f64, v: impl FnOnce(&mut Prng) -> String) -> String {
        if rng.chance(p) {
            "NULL".to_string()
        } else {
            v(rng)
        }
    }
    fn pick(options: &'static [&'static str]) -> impl FnOnce(&mut Prng) -> String {
        move |rng| options[rng.below(options.len())].to_string()
    }
    let mut insert = String::from("INSERT INTO big VALUES ");
    for id in 0..ROWS {
        if id > 0 {
            insert.push_str(", ");
        }
        let ki = null_or(rng, 0.15, |r| r.range_i64(-3, 9).to_string());
        let kt = null_or(rng, 0.15, pick(&["''", "'a'", "'b'", "'ab'"]));
        let kb = null_or(rng, 0.1, pick(&["TRUE", "FALSE"]));
        let kf = null_or(
            rng,
            0.1,
            pick(&["0.0", "-0.0", "CAST('NaN' AS float)", "1.5", "-2.25"]),
        );
        // Int-stored in batches 1 and 3, all-NULL (generic storage) in batch 2.
        let kn = if (1024..2048).contains(&id) {
            "NULL".to_string()
        } else {
            rng.range_i64(0, 4).to_string()
        };
        // New groups keep appearing in later batches.
        let late = id / 600 + rng.range_i64(0, 2);
        let vi = null_or(rng, 0.2, |r| r.range_i64(-50, 50).to_string());
        let vf = null_or(rng, 0.2, |r| format!("{:.3}", r.range_f64(-9.0, 9.0)));
        let vbig = i64::MAX / 3 - rng.range_i64(0, 1000);
        insert.push_str(&format!(
            "({id}, {ki}, {kt}, {kb}, {kf}, {kn}, {late}, {vi}, {vf}, {vbig})"
        ));
    }
    e.execute(&insert).unwrap();

    // Duplicate and NULL keys on the build side; `k` matches `big.ki` as
    // Int = Int, `kf` as Int = Float, `kt` as Text = Text.
    e.execute("CREATE TABLE dim (k int, kf float, kt text, v int)")
        .unwrap();
    let mut insert = String::from("INSERT INTO dim VALUES ");
    for j in 0..40 {
        if j > 0 {
            insert.push_str(", ");
        }
        let k = null_or(rng, 0.2, |r| r.range_i64(-3, 12).to_string());
        let kf = null_or(rng, 0.2, |r| format!("{}.0", r.range_i64(-3, 12)));
        let kt = null_or(rng, 0.2, pick(&["''", "'a'", "'ab'", "'zz'"]));
        insert.push_str(&format!("({k}, {kf}, {kt}, {})", rng.range_i64(-20, 20)));
    }
    e.execute(&insert).unwrap();
    e
}

#[test]
fn typed_kernels_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_0003);
    let mut e = typed_kernel_engine(&mut rng);
    let mixed = "CASE WHEN id < 1024 THEN vi ELSE vf END";
    let mut cases: Vec<String> = [
        // Group keys: Int, Text, Bool with NULLs (typed step); Float with
        // -0.0 and NaN, a column whose storage changes between batches,
        // and composite keys (value-keyed step).
        "SELECT ki, count(*), count(vi), sum(vi), min(vi), max(vi), avg(vi) FROM big GROUP BY ki",
        "SELECT kt, count(*), count(vf), sum(vf), min(vf), max(vf), avg(vf) FROM big GROUP BY kt",
        "SELECT kb, count(*), sum(vi), max(vf) FROM big GROUP BY kb",
        "SELECT kf, count(*), min(vf), sum(vi) FROM big GROUP BY kf",
        "SELECT kn, count(*), sum(vi) FROM big GROUP BY kn",
        "SELECT late, count(*), min(id) FROM big GROUP BY late",
        "SELECT ki, kt, count(*), sum(vf) FROM big GROUP BY ki, kt",
        "SELECT ki + 1, count(*) FROM big GROUP BY ki + 1",
        "SELECT 7, count(*), sum(vi) FROM big GROUP BY 7",
        // Aggregates without an in-place state, over typed columns.
        "SELECT kb, stddev_pop(vi), median(vf), count(DISTINCT vi) FROM big GROUP BY kb",
        "SELECT ki, array_agg(vi) FROM big WHERE id < 40 GROUP BY ki",
        "SELECT ki, min(kt), max(kt), count(kt), min(kb) FROM big GROUP BY ki",
        "SELECT kt, sum(2), count(1), max(NULL) FROM big GROUP BY kt",
        // Global aggregates, filtered and not.
        "SELECT count(*), sum(vi), min(vf), max(vf), avg(vf) FROM big",
        "SELECT count(*), sum(vf), avg(vi) FROM big WHERE vf > 3.0",
        // Empty input, with and without GROUP BY.
        "SELECT ki, count(*), sum(vi) FROM big WHERE id < 0 GROUP BY ki",
        "SELECT count(*), count(vi), sum(vi), min(vf), avg(vi) FROM big WHERE id < 0",
        // Int sum overflow wraps; mixed Int/Float promotes.
        "SELECT sum(vbig), avg(vbig), max(vbig) FROM big",
        "SELECT ki, sum(vbig) FROM big GROUP BY ki",
        // Errors: an accumulator error, and an evaluation error that only
        // fires in the second batch.
        "SELECT kb, sum(kt) FROM big GROUP BY kb",
        "SELECT ki, sum(10 / (id - 1500)) FROM big GROUP BY ki",
        "SELECT ki / (id - 1500), count(*) FROM big GROUP BY ki / (id - 1500)",
    ]
    .map(String::from)
    .to_vec();
    cases.push(format!(
        "SELECT kb, sum({mixed}), avg({mixed}), min({mixed}), max({mixed}) FROM big GROUP BY kb"
    ));

    // Joins: every kind, over Int = Int (typed table), Int = Float and
    // Text = Text (value table), a composite key, and the null-safe form
    // the binder recognises (it has no IS NOT DISTINCT FROM). Residuals are
    // inner-only: the binder refuses them on outer joins.
    let null_safe = "(big.ki = d.k OR (big.ki IS NULL AND d.k IS NULL))";
    let residual = "big.ki = d.k AND big.vi > d.v";
    for kind in ["INNER", "LEFT", "RIGHT", "FULL"] {
        for on in [
            "big.ki = d.k",
            "big.ki = d.kf",
            "big.kt = d.kt",
            "big.ki = d.k AND big.kt = d.kt",
            null_safe,
            residual,
            "big.ki + 1 = d.k + 1",
        ] {
            if on == residual && kind != "INNER" {
                continue;
            }
            cases.push(format!(
                "SELECT big.id, big.ki, big.kt, d.k, d.kf, d.kt, d.v FROM big {kind} JOIN dim d ON {on} \
                 WHERE big.id IS NULL OR big.id < 1100"
            ));
        }
        // Empty build side, empty probe side.
        cases.push(format!(
            "SELECT big.id, d.k FROM big {kind} JOIN (SELECT k FROM dim WHERE k > 100) d ON big.ki = d.k"
        ));
        cases.push(format!(
            "SELECT b.id, d.k, d.v FROM (SELECT id, ki FROM big WHERE id < 0) b {kind} JOIN dim d ON b.ki = d.k"
        ));
        // The whole probe side, aggregated above the join.
        cases.push(format!(
            "SELECT d.kt, count(*), sum(big.vi) FROM big {kind} JOIN dim d ON big.ki = d.k GROUP BY d.kt"
        ));
    }
    // A probe-key error in the second batch, and a residual error.
    cases.push("SELECT big.id FROM big INNER JOIN dim d ON 10 / (big.id - 1500) = d.k".into());
    cases.push(
        "SELECT big.id FROM big INNER JOIN dim d ON big.ki = d.k AND 1 / (big.id - 1500) > d.v"
            .into(),
    );
    // Two errors in one query: the one the row engine reaches first — a
    // first-batch accumulator or residual error, not the second batch's
    // division by zero — must be the one reported.
    let first_error = [
        "SELECT kb, sum(kt), sum(10 / (id - 1500)) FROM big GROUP BY kb",
        "SELECT big.id FROM big INNER JOIN dim d \
         ON big.ki + 0 * (10 / (big.id - 1500)) = d.k AND CAST(big.kt AS int) > d.v",
    ];
    for sql in first_error {
        let out = render(e.query_reference(sql));
        assert!(out.starts_with("ERR value error: type mismatch"), "{out}");
        cases.push(sql.into());
    }

    // The cases must exercise what they name, not fail to bind.
    let errors: Vec<String> = cases
        .iter()
        .enumerate()
        .map(|(q, sql)| same(&mut e, sql, &format!("case {q}")))
        .filter(|out| out.starts_with("ERR"))
        .collect();
    assert_eq!(
        errors.len(),
        7,
        "exactly the seven error cases fail: {errors:#?}"
    );
}

/// Load `csv` into a new table by COPY, so each text column codes one
/// dictionary shared by all of its chunks.
fn copy_table(e: &mut Engine, create: &str, table: &str, csv: &str) {
    e.execute(create).unwrap();
    let parsed = etypes::read_csv_str(csv, &etypes::CsvOptions::default()).unwrap();
    e.copy_rows(table, None, &parsed).unwrap();
}

/// Tables for the typed group keys, join lookups and connectives: `g` is
/// loaded by COPY (one dictionary per text column across its three
/// chunks) and `gi` holds the same rows inserted (one dictionary per
/// sealed chunk). The `d*` build tables hold dense, sparse, negative,
/// duplicate, NULL and extreme `Int` keys.
fn keyed_engine(rng: &mut Prng) -> Engine {
    const ROWS: usize = 2600;
    let mut e = Engine::new(EngineProfile::in_memory());
    let cols = "id int, ki int, kt text, kt2 text, ku text, kb bool, kb2 bool, kf float";
    let mut csv = String::from("id,ki,kt,kt2,ku,kb,kb2,kf\n");
    let mut tuples = Vec::with_capacity(ROWS);
    fn pick<'s>(rng: &mut Prng, null: f64, options: &[&'s str]) -> Option<&'s str> {
        (!rng.chance(null)).then(|| options[rng.below(options.len())])
    }
    for id in 0..ROWS {
        let ki = (!rng.chance(0.15)).then(|| rng.range_i64(-3, 9));
        let kt = pick(rng, 0.15, &["a", "b", "ab", "a b"]);
        let kt2 = pick(rng, 0.1, &["x", "y"]);
        let ku = format!("u{}", rng.below(700));
        let kb = pick(rng, 0.1, &["true", "false"]);
        let kb2 = pick(rng, 0.3, &["true", "false"]);
        let kf = pick(rng, 0.1, &["0.5", "-1.25", "2.0"]);
        let cell = |v: Option<&str>| v.unwrap_or("").to_string();
        let ki_s = ki.map_or(String::new(), |k| k.to_string());
        csv.push_str(&format!(
            "{id},{ki_s},{},{},{ku},{},{},{}\n",
            cell(kt),
            cell(kt2),
            cell(kb),
            cell(kb2),
            cell(kf)
        ));
        let sql = |v: Option<&str>, quote: bool| match v {
            None => "NULL".to_string(),
            Some(s) if quote => format!("'{s}'"),
            Some(s) => s.to_string(),
        };
        let ki_sql = ki.map_or("NULL".to_string(), |k| k.to_string());
        tuples.push(format!(
            "({id}, {ki_sql}, {}, {}, '{ku}', {}, {}, {})",
            sql(kt, true),
            sql(kt2, true),
            sql(kb, false),
            sql(kb2, false),
            sql(kf, false)
        ));
    }
    copy_table(&mut e, &format!("CREATE TABLE g ({cols})"), "g", &csv);
    e.execute(&format!("CREATE TABLE gi ({cols})")).unwrap();
    e.execute(&format!("INSERT INTO gi VALUES {}", tuples.join(", ")))
        .unwrap();
    assert_eq!(
        render(e.query("SELECT kt, kb, count(*) FROM g GROUP BY kt, kb ORDER BY kt, kb")),
        render(e.query("SELECT kt, kb, count(*) FROM gi GROUP BY kt, kb ORDER BY kt, kb")),
        "COPY and INSERT load the same rows"
    );

    let mut build = |name: &str, keys: Vec<Option<i64>>| {
        let rows: Vec<String> = keys
            .iter()
            .enumerate()
            .map(|(j, k)| format!("{},{j}", k.map_or(String::new(), |k| k.to_string())))
            .collect();
        let create = format!("CREATE TABLE {name} (k int, v int)");
        copy_table(
            &mut e,
            &create,
            name,
            &format!("k,v\n{}\n", rows.join("\n")),
        );
    };
    let null_or = |rng: &mut Prng, k: i64| (!rng.chance(0.15)).then_some(k);
    // Dense with duplicates and NULLs: 0..6, so most probe keys miss.
    let dense = (0..40).map(|_| rng.range_i64(0, 6)).collect::<Vec<_>>();
    build("dd", dense.into_iter().map(|k| null_or(rng, k)).collect());
    // Sparse: hashed, not addressed.
    let sparse = (0..30)
        .map(|_| rng.range_i64(-2, 3) * 1000 + rng.range_i64(-3, 9))
        .collect::<Vec<_>>();
    build("ds", sparse.into_iter().map(|k| null_or(rng, k)).collect());
    // Negative and dense.
    build("dn", (0..30).map(|_| Some(-rng.range_i64(0, 4))).collect());
    // The whole `i64` range: its span must not overflow.
    build(
        "dx",
        vec![
            Some(i64::MIN),
            Some(i64::MAX),
            Some(0),
            None,
            Some(-1),
            Some(1),
            Some(i64::MIN),
        ],
    );
    // One key, repeated.
    build("d1", vec![Some(2), Some(2), Some(2)]);
    // Probe keys at the extremes too.
    build(
        "px",
        vec![
            Some(i64::MIN),
            Some(i64::MAX),
            Some(-1),
            None,
            Some(5),
            Some(2),
        ],
    );
    e
}

/// Composite `GROUP BY` keys on typed storage answer like the reference:
/// 2 to 4 keys mixing `Int` / `Text` / `Bool` with NULL keys, over one
/// dictionary shared across chunks (`g`) and one per chunk (`gi`), more
/// than 1 024 groups, expression keys, and the `Float` and scalar keys
/// that group by value.
#[test]
fn composite_group_keys_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_0006);
    let mut e = keyed_engine(&mut rng);
    let mut cases = Vec::new();
    for t in ["g", "gi"] {
        for keys in [
            "ki, kt",
            "kt, kt2",
            "kt, kb",
            "kb, kt",
            "kt, kb, kt2",
            "kb, ki, kt, kt2",
            "kb, kb2",
            "ki, kb",
            "kt2, ku",
            "ku, kt, kb",
            "kt, kf",
            "kf, kb",
            "7, kt",
            "kt, NULL",
            "ki + 1, kt = 'a'",
            "REGEXP_REPLACE(kt, '^a$', 'b'), kb",
            "COALESCE(kt, 'a'), kt2",
            "id % 1500, kt",
            "ku, id % 3",
            "kt IS NULL, ki IS NULL, kb",
        ] {
            cases.push(format!(
                "SELECT {keys}, count(*), sum(ki), min(id) FROM {t} GROUP BY {keys}"
            ));
            cases.push(format!(
                "SELECT {keys}, count(*) FROM {t} WHERE id % 5 <> 1 GROUP BY {keys}"
            ));
        }
        cases.push(format!(
            "SELECT kt, kt2, array_agg(id) FROM {t} WHERE id < 60 GROUP BY kt, kt2"
        ));
        cases.push(format!(
            "SELECT kt, kb, count(*) FROM {t} WHERE id < 0 GROUP BY kt, kb"
        ));
        cases.push(format!(
            "SELECT kt, kb, count(*) FROM (SELECT kt, kb FROM {t} WHERE kb) s GROUP BY kt, kb"
        ));
    }
    // A join-back histogram over a stored view, as INSPECT runs it.
    e.execute("CREATE MATERIALIZED VIEW gv AS SELECT ctid AS g_ctid, id, kt FROM g WHERE ki > 0")
        .unwrap();
    cases.push(
        "SELECT tb_orig.kt AS value0, tb_orig.kb AS value1, count(*) AS cnt \
         FROM gv tb_curr JOIN g tb_orig ON tb_curr.g_ctid = tb_orig.ctid \
         GROUP BY tb_orig.kt, tb_orig.kb"
            .into(),
    );
    for (q, sql) in cases.iter().enumerate() {
        let out = same(&mut e, sql, &format!("group key case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
    // More than one output batch of groups.
    let out = same(
        &mut e,
        "SELECT count(*) FROM (SELECT ku, kt2, count(*) FROM g GROUP BY ku, kt2) s",
        "group count",
    );
    let groups: i64 = out
        .rsplit("Int(")
        .next()
        .and_then(|s| s.split(')').next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(groups > 1024, "{out}");
}

/// `Int` join keys through the direct and hashed lookups answer like the
/// reference: dense, sparse, negative, duplicate and NULL build keys,
/// probe keys outside the build range, and keys spanning all of `i64`,
/// under every join kind and the null-safe form.
#[test]
fn int_join_lookups_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_0007);
    let mut e = keyed_engine(&mut rng);
    let mut cases = Vec::new();
    for kind in ["INNER", "LEFT", "RIGHT", "FULL"] {
        for d in ["dd", "ds", "dn", "dx", "d1"] {
            for (probe, on) in [
                ("g", "p.ki = d.k"),
                ("g", "p.id - 1300 = d.k"),
                ("g", "p.ki * 1000 = d.k"),
                ("g", "(p.ki = d.k OR (p.ki IS NULL AND d.k IS NULL))"),
                ("px", "p.k = d.k"),
                ("px", "(p.k = d.k OR (p.k IS NULL AND d.k IS NULL))"),
            ] {
                let (cols, row) = match probe {
                    "g" => ("p.id, p.ki", "p.id"),
                    _ => ("p.k, p.v", "p.v"),
                };
                cases.push(format!(
                    "SELECT {cols}, d.k, d.v FROM {probe} p {kind} JOIN {d} d ON {on} \
                     WHERE {row} IS NULL OR {row} < 900"
                ));
            }
        }
    }
    // The build side's ctids, as the join-back probes them.
    cases.push(
        "SELECT a.id, b.kt FROM g a INNER JOIN g b ON a.id = b.ctid WHERE a.id % 97 = 0".into(),
    );
    cases.push("SELECT d.v, p.id FROM dd d INNER JOIN g p ON d.k = p.ki WHERE p.id < 50".into());
    for (q, sql) in cases.iter().enumerate() {
        let out = same(&mut e, sql, &format!("join case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
}

/// `AND` / `OR` / `NOT` over `Bool` columns and `Bool` / NULL scalars
/// answer like the reference, three-valued and lazy, and every other
/// operand keeps the per-row path with its exact error text; so does Int
/// `%` by a scalar, including 0, -1 and negative divisors.
#[test]
fn typed_connectives_and_modulo_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_0008);
    let mut e = keyed_engine(&mut rng);
    let ok = [
        "SELECT id, kb AND kb2, kb OR kb2, NOT kb, NOT (kb AND kb2), NOT NOT kb FROM g",
        "SELECT id, kb AND NULL, NULL AND kb, kb OR NULL, NULL OR kb FROM g",
        "SELECT id, kb AND TRUE, FALSE OR kb, TRUE AND kb, kb OR FALSE FROM g",
        "SELECT id FROM g WHERE NOT (kt IS NULL) AND NOT (ki IS NULL) AND NOT (kb IS NULL) \
         AND NOT (kt2 IS NULL)",
        "SELECT id FROM g WHERE kb OR kb2 AND ki > 2",
        "SELECT id FROM g WHERE (kb OR kt = 'a') AND (kb2 OR ki < 0)",
        "SELECT id, kb AND ki, ki AND kb, kt OR kb, kb OR kf FROM g",
        "SELECT id, kb AND 1, 1 OR kb, kb AND 'x' FROM g",
        "SELECT id FROM g WHERE kb AND 10 / (ki + 4) > 1",
        "SELECT id FROM g WHERE NOT kb OR 10 / (ki + 4) > 1",
        "SELECT kb AND kb2, count(*) FROM g GROUP BY kb AND kb2",
        "SELECT id, ki % 3, ki % -3, ki % -1, id % 7, ki % 1 FROM g",
        "SELECT id, ki % NULL, -7 % 3, 7 % -3, kf % 2, ki % kf FROM g",
        "SELECT id FROM g WHERE id % 100 = 0",
    ];
    for (q, sql) in ok.iter().enumerate() {
        let out = same(&mut e, sql, &format!("connective case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
    for (sql, err) in [
        (
            "SELECT id, NOT 1 FROM g",
            "ERR execution error: NOT of non-boolean 1",
        ),
        (
            "SELECT id, NOT ki FROM g WHERE ki IS NOT NULL",
            "ERR execution error: NOT of non-boolean ",
        ),
        (
            "SELECT id, ki % 0 FROM g",
            "ERR execution error: division by zero",
        ),
        (
            "SELECT id, ki % (ki - ki) FROM g",
            "ERR execution error: division by zero",
        ),
        (
            "SELECT id FROM g WHERE kb OR 10 / ki > 1",
            "ERR execution error: division by zero",
        ),
    ] {
        let out = same(&mut e, sql, "error case");
        assert!(out.starts_with(err), "{sql}: {out}");
    }
}
