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

/// One `Int` key column per table, each over three 1024-row batches, for
/// the direct and hashed group ids: dense, sparse, negative, NULL and
/// extreme keys, and spans at and just over the direct table's bound of
/// four slots per input row.
fn int_key_engine(rng: &mut Prng) -> Engine {
    const ROWS: i64 = 2600;
    let mut e = Engine::new(EngineProfile::in_memory());
    let bound = 4 * ROWS;
    // Loaded by COPY: `i64::MIN` has no SQL literal.
    let mut keys = |name: &str, key: &mut dyn FnMut(&mut Prng, i64) -> Option<i64>| {
        let mut csv = String::from("id,k,v,f\n");
        for id in 0..ROWS {
            let k = key(rng, id).map_or(String::new(), |k| k.to_string());
            let v = if rng.chance(0.2) {
                String::new()
            } else {
                rng.range_i64(-9, 9).to_string()
            };
            let f = if rng.chance(0.2) {
                String::new()
            } else {
                format!("{:.2}", rng.range_f64(-5.0, 5.0))
            };
            csv.push_str(&format!("{id},{k},{v},{f}\n"));
        }
        let create = format!("CREATE TABLE {name} (id int, k int, v int, f float)");
        copy_table(&mut e, &create, name, &csv);
    };
    // Dense, with NULLs and groups first seen in later batches.
    keys("kd", &mut |r, id| {
        (!r.chance(0.1)).then(|| id / 500 + r.range_i64(0, 3))
    });
    // Negative and dense.
    keys("kn", &mut |r, _| Some(-r.range_i64(0, 40)));
    // Sparse: a few keys far apart.
    keys("ks", &mut |r, _| {
        (!r.chance(0.1)).then(|| r.range_i64(-3, 3) * 1_000_000_007)
    });
    // The extremes of `i64`, and NULL.
    keys("kx", &mut |r, _| match r.below(5) {
        0 => Some(i64::MIN),
        1 => Some(i64::MAX),
        2 => None,
        k => Some(k as i64 - 3),
    });
    // Span `bound - 1` (exactly `bound` slots, direct) and `bound` (one
    // slot over, hashed): the extremes once each, the rest in between.
    for (name, span) in [("kat", bound - 1), ("kover", bound)] {
        keys(name, &mut |r, id| match id {
            7 => Some(-5),
            2500 => Some(span - 5),
            _ if r.chance(0.05) => None,
            _ => Some(r.range_i64(-5, span - 5)),
        });
    }
    // Every key NULL.
    keys("knull", &mut |_, _| None);
    e
}

/// `GROUP BY` one `Int` key through the direct and hashed id tables
/// answers like the reference, first-seen group order included.
#[test]
fn int_group_keys_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_0009);
    let mut e = int_key_engine(&mut rng);
    for t in ["kd", "kn", "ks", "kx", "kat", "kover", "knull"] {
        for sql in [
            format!(
                "SELECT k, count(*), count(v), sum(v), min(f), max(f), avg(v) FROM {t} GROUP BY k"
            ),
            format!("SELECT k, count(*) FROM {t} WHERE id % 3 = 1 GROUP BY k"),
            format!("SELECT k, sum(v) FROM {t} WHERE id < 1024 GROUP BY k"),
            format!("SELECT k, array_agg(v) FROM {t} WHERE id < 50 GROUP BY k"),
            format!("SELECT count(*) FROM (SELECT k FROM {t} GROUP BY k) s"),
        ] {
            let out = same(&mut e, &sql, t);
            assert!(!out.starts_with("ERR"), "{sql}: {out}");
        }
    }
}

/// A table of `Int` and `Float` columns holding NULL, NaN, both zeros,
/// infinities and `Int` values above 2^53 (where `Int` against `Float`
/// compares as `f64`).
fn compare_engine() -> Engine {
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE n (id int, i int, j int, f float, h float)")
        .unwrap();
    let ints = [
        "NULL",
        "0",
        "-1",
        "1",
        "2",
        "9007199254740993",
        "-9007199254740993",
        "9223372036854775807",
        "-9223372036854775807",
    ];
    let floats = [
        "NULL",
        "0.0",
        "-0.0",
        "1.5",
        "-2.0",
        "2.0",
        "9007199254740992.0",
        "CAST('NaN' AS float)",
        "CAST('Infinity' AS float)",
        "CAST('-Infinity' AS float)",
    ];
    let mut tuples = Vec::new();
    let mut rng = Prng::new(0xE1E9_000A);
    for id in 0..2100 {
        let pick = |rng: &mut Prng, xs: &[&'static str]| xs[rng.below(xs.len())];
        let (i, j) = (pick(&mut rng, &ints), pick(&mut rng, &ints));
        let (f, h) = (pick(&mut rng, &floats), pick(&mut rng, &floats));
        tuples.push(format!("({id}, {i}, {j}, {f}, {h})"));
    }
    e.execute(&format!("INSERT INTO n VALUES {}", tuples.join(", ")))
        .unwrap();
    // The same values without NULLs take the loops without null checks.
    e.execute(
        "CREATE MATERIALIZED VIEW nn AS SELECT id, i, j, f, h FROM n \
         WHERE i IS NOT NULL AND j IS NOT NULL AND f IS NOT NULL AND h IS NOT NULL",
    )
    .unwrap();
    e
}

/// Comparisons and arithmetic of `Int` and `Float` columns against `Int`
/// and `Float` literals and against each other answer like the reference,
/// as projections and as filters.
#[test]
fn numeric_compares_match_row_engine() {
    let mut e = compare_engine();
    let mut cases = Vec::new();
    for t in ["n", "nn"] {
        for op in ["=", "<>", "<", ">", "<=", ">="] {
            let pairs = [
                ("i", "0"),
                ("i", "-0.0"),
                ("i", "2.0"),
                ("i", "9007199254740992.0"),
                ("f", "0"),
                ("f", "-0.0"),
                ("f", "1.5"),
                ("f", "CAST('NaN' AS float)"),
                ("0", "f"),
                ("1.5", "i"),
                ("i", "j"),
                ("i", "f"),
                ("f", "i"),
                ("f", "h"),
            ];
            let exprs: Vec<String> = pairs.iter().map(|(a, b)| format!("{a} {op} {b}")).collect();
            cases.push(format!("SELECT id, {} FROM {t}", exprs.join(", ")));
            for e in &exprs {
                cases.push(format!("SELECT id FROM {t} WHERE {e}"));
            }
        }
        cases.push(format!(
            "SELECT id, i + 1, i - j, i * 2, f + 1, f - h, f * i, f / 2, i / 2.0, 1.5 * i, \
             0 - f FROM {t}"
        ));
        cases.push(format!("SELECT id, i * j, i + j FROM {t} WHERE id < 40"));
        cases.push(format!(
            "SELECT count(*), sum(f), min(f), max(f), min(i), max(i) FROM {t} WHERE f = 0"
        ));
    }
    for (q, sql) in cases.iter().enumerate() {
        let out = same(&mut e, sql, &format!("compare case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
}

/// `count` / `sum` / `avg` / `min` / `max` over `Int` and `Float` columns,
/// with and without NULLs, grouped and global, answer like the reference:
/// a wrapping `Int` sum, `-0.0` and NaN values, a column that is `Int` in
/// one batch and `Float` in the next, and constant arguments.
#[test]
fn typed_folds_match_row_engine() {
    let mut e = compare_engine();
    let mut cases = Vec::new();
    for t in ["n", "nn"] {
        for key in ["", "id % 7", "i", "f"] {
            let (k, group) = if key.is_empty() {
                (String::new(), String::new())
            } else {
                (format!("{key} AS k, "), format!(" GROUP BY {key}"))
            };
            cases.push(format!(
                "SELECT {k}count(*), count(i), count(f), sum(i), sum(f), avg(i), avg(f), \
                 min(i), max(i), min(f), max(f) FROM {t}{group}"
            ));
            cases.push(format!(
                "SELECT {k}sum(CASE WHEN id < 1024 THEN i ELSE f END), \
                 min(CASE WHEN id < 1024 THEN f ELSE i END), count(1), sum(2), max(NULL), \
                 avg(1.5) FROM {t}{group}"
            ));
        }
        // Both zeros, and groups of `-0.0` alone: their sum is `-0.0`.
        cases.push(format!(
            "SELECT sum(f), min(f), max(f), avg(f) FROM {t} WHERE f = 0 AND id < 60"
        ));
        cases.push(format!(
            "SELECT i, sum(f), min(f), max(f) FROM {t} WHERE CAST(f AS text) = '-0' GROUP BY i"
        ));
    }
    for (q, sql) in cases.iter().enumerate() {
        let out = same(&mut e, sql, &format!("fold case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
        if sql.contains("'-0'") {
            assert!(out.contains("Float(-0.0)"), "{sql}: {out}");
        }
    }
    // An `Int` sum over `i64::MAX` and friends wraps in both engines.
    let out = same(
        &mut e,
        "SELECT sum(i) FROM n WHERE i > 1000000",
        "wrapping sum",
    );
    assert!(out.contains("Int("), "{out}");
}

/// Inner joins over `Int` keys through the batch probe: duplicate build
/// keys, NULL probe keys, probe keys outside the build span, several probe
/// batches, and an outer join whose misses pad the same batches.
#[test]
fn batch_probe_joins_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_000B);
    let mut e = int_key_engine(&mut rng);
    e.execute("CREATE TABLE b (k int, w int)").unwrap();
    let build: Vec<String> = (0..30)
        .map(|j| {
            let k = match j % 10 {
                0 => "NULL".to_string(),
                _ => rng.range_i64(0, 8).to_string(),
            };
            format!("({k}, {j})")
        })
        .collect();
    e.execute(&format!("INSERT INTO b VALUES {}", build.join(", ")))
        .unwrap();
    let mut cases = Vec::new();
    for t in ["kd", "kn", "ks", "kx"] {
        for kind in ["INNER", "LEFT"] {
            cases.push(format!(
                "SELECT p.id, p.k, b.k, b.w FROM {t} p {kind} JOIN b ON p.k = b.k"
            ));
            cases.push(format!(
                "SELECT b.w, count(*), sum(p.v) FROM {t} p {kind} JOIN b ON p.k = b.k GROUP BY b.w"
            ));
        }
        cases.push(format!(
            "SELECT p.id, b.w FROM {t} p INNER JOIN b ON p.k = b.k AND p.v > b.w"
        ));
        cases.push(format!(
            "SELECT b.w, p.id FROM b INNER JOIN {t} p ON b.k = p.k WHERE p.id < 300"
        ));
    }
    for (q, sql) in cases.iter().enumerate() {
        let out = same(&mut e, sql, &format!("probe case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
}

/// PostgreSQL's `float8` and pandas treat `-0.0` and `0.0` as one value:
/// equal, one group, one distinct value, and a tie in an ORDER BY. Both
/// engines answer so.
#[test]
fn signed_zeros_compare_as_in_postgresql() {
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE z (k int, x float)").unwrap();
    e.execute("INSERT INTO z VALUES (1, 0.0), (2, -0.0), (3, 1.0), (4, -0.0), (5, NULL)")
        .unwrap();
    for (sql, want) in [
        ("SELECT -0.0 = 0.0", "[[Bool(true)]]"),
        (
            "SELECT k FROM z WHERE x = 0",
            "[[Int(1)], [Int(2)], [Int(4)]]",
        ),
        (
            "SELECT k FROM z WHERE x = -0.0 AND x >= 0.0 AND x <= 0",
            "[[Int(1)], [Int(2)], [Int(4)]]",
        ),
        ("SELECT k FROM z WHERE x < 0.0 OR x > 0", "[[Int(3)]]"),
        (
            "SELECT x, count(*) FROM z GROUP BY x",
            "[[Float(0.0), Int(3)], [Float(1.0), Int(1)], [Null, Int(1)]]",
        ),
        (
            "SELECT DISTINCT x FROM z",
            "[[Float(0.0)], [Float(1.0)], [Null]]",
        ),
        (
            "SELECT k FROM z ORDER BY x, k",
            "[[Int(1)], [Int(2)], [Int(4)], [Int(3)], [Int(5)]]",
        ),
        ("SELECT count(DISTINCT x) FROM z", "[[Int(2)]]"),
    ] {
        let out = same(&mut e, sql, "signed zero");
        let rows = out.split_once('|').map_or(out.as_str(), |(_, rows)| rows);
        assert_eq!(rows, want, "{sql}");
    }
}

/// Tables loaded by INSERT keep up to 1023 rows in the heap's row tail,
/// which scans read through its cached transpose. Around every size where
/// the tail empties or fills, each query must answer like the reference
/// before and after each change to the tail: a one-row INSERT, a
/// multi-row INSERT that fails and so changes nothing, and a multi-row
/// INSERT that seals a full tail. A prepared statement with `$1` inside an
/// IN list and a scalar subquery must answer like the same text with the
/// value written in.
#[test]
fn tail_chunk_scans_match_row_engine() {
    let queries = [
        "SELECT ctid, a, b, c FROM t",
        "SELECT a, b FROM t WHERE a > 5 AND b <> 'v1'",
        "SELECT b, count(*), sum(a), max(c) FROM t GROUP BY b",
        "SELECT t.a, d.name, t.c FROM t JOIN d ON t.a = d.k WHERE t.c < 200",
        "SELECT count(*), sum(a) FROM t",
    ];
    let prepared = "SELECT ctid, a, b FROM t \
                    WHERE a IN ($1, 3) OR c > (SELECT max(c) FROM t WHERE a = $1) - 2";
    for n in [0usize, 1, 63, 1023, 1024, 1025] {
        let mut e = Engine::new(EngineProfile::in_memory());
        e.execute("CREATE TABLE t (a int, b text, c float)")
            .unwrap();
        e.execute("CREATE TABLE d (k int, name text)").unwrap();
        e.execute("INSERT INTO d VALUES (1, 'one'), (3, 'three'), (7, NULL), (7, 'seven')")
            .unwrap();
        let row = |i: usize| {
            let a = if i % 11 == 10 {
                "NULL".to_string()
            } else {
                (i % 13).to_string()
            };
            let b = match i % 7 {
                6 => "NULL".to_string(),
                k => format!("'v{}'", k % 4),
            };
            format!("({a}, {b}, {})", i as f64 / 4.0)
        };
        let rows: Vec<String> = (0..n).map(row).collect();
        for batch in rows.chunks(300) {
            e.execute(&format!("INSERT INTO t VALUES {}", batch.join(", ")))
                .unwrap();
        }
        e.prepare(prepared).unwrap();
        let check = |e: &mut Engine, step: &str| {
            for sql in queries {
                // Twice: the second scan shares the first one's tail chunk.
                same(e, sql, &format!("{n} rows, {step}"));
                same(e, sql, &format!("{n} rows, {step}, again"));
            }
            for k in [3i64, 7, 12] {
                let executed = render(
                    e.execute_with(prepared, None, &[etypes::Value::Int(k)])
                        .map(|out| out.result.expect("a SELECT").into_relation()),
                );
                let literal = prepared.replace("$1", &k.to_string());
                let reference = render(e.query_reference(&literal));
                assert_eq!(executed, reference, "{n} rows, {step}: EXECUTE p ({k})");
            }
        };
        check(&mut e, "loaded");
        e.execute(&format!("INSERT INTO t VALUES {}", row(n)))
            .unwrap();
        check(&mut e, "one more row");
        let before = render(e.query("SELECT count(*) FROM t"));
        let failed = format!("INSERT INTO t VALUES {}, {}, (1)", row(n + 1), row(n + 2));
        assert!(e.execute(&failed).is_err(), "{failed}");
        assert_eq!(render(e.query("SELECT count(*) FROM t")), before);
        check(&mut e, "failed insert");
        let more: Vec<String> = (n + 1..n + 1 + 1030).map(row).collect();
        e.execute(&format!("INSERT INTO t VALUES {}", more.join(", ")))
            .unwrap();
        check(&mut e, "a full tail sealed");
    }
}

/// The shapes the shared key index must get right beyond the typed group
/// keys and join lookups above: `DISTINCT` over `Float` zeros, NaN and
/// NULL, over a list column and over `Text` whose batches bring different
/// dictionaries; a `GROUP BY` whose first key changes storage between
/// batches; dense `Int` with `Text` keys across a seal boundary; and a
/// composite join with one null-safe component, under every join kind.
#[test]
fn key_index_shapes_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_000D);
    let mut e = keyed_engine(&mut rng);
    e.execute("CREATE TABLE fz (k int, x float)").unwrap();
    let floats = [
        "0.0",
        "-0.0",
        "CAST('NaN' AS float)",
        "NULL",
        "1.5",
        "-2.25",
    ];
    let rows: Vec<String> = (0..1500)
        .map(|i| format!("({i}, {})", floats[rng.below(floats.len())]))
        .collect();
    e.execute(&format!("INSERT INTO fz VALUES {}", rows.join(", ")))
        .unwrap();
    // COPY chunks share one dictionary; the INSERT tail codes its own.
    let mut csv = String::from("id,t\n");
    for id in 0..2100 {
        let t = ["a", "b", "", "a b"][rng.below(4)];
        csv.push_str(&format!("{id},{t}\n"));
    }
    copy_table(&mut e, "CREATE TABLE tc (id int, t text)", "tc", &csv);
    e.execute("INSERT INTO tc VALUES (5000, 'zz'), (5001, NULL), (5002, 'a'), (5003, 'zz')")
        .unwrap();
    // A dense `Int` and a `Text` key over one sealed chunk and the tail.
    e.execute("CREATE TABLE st (ki int, kt text)").unwrap();
    let rows: Vec<String> = (0..1030)
        .map(|_| {
            let ki = match rng.below(8) {
                0 => "NULL".to_string(),
                k => k.to_string(),
            };
            let kt = ["'a'", "'b'", "NULL"][rng.below(3)];
            format!("({ki}, {kt})")
        })
        .collect();
    e.execute(&format!("INSERT INTO st VALUES {}", rows.join(", ")))
        .unwrap();
    // Build rows for the composite join: an `Int` and a nullable `Text`.
    e.execute("CREATE TABLE dk (k int, t text, v int)").unwrap();
    e.execute(
        "INSERT INTO dk VALUES (1, 'a', 0), (1, NULL, 1), (NULL, 'a', 2), (2, 'b', 3), \
         (NULL, NULL, 4), (1, 'a', 5), (3, 'ab', 6)",
    )
    .unwrap();

    let mut cases = vec![
        "SELECT DISTINCT x FROM fz".to_string(),
        "SELECT DISTINCT x, k % 2 FROM fz".into(),
        "SELECT count(*) FROM (SELECT DISTINCT x FROM fz) s".into(),
        "SELECT DISTINCT l FROM (SELECT kt, array_agg(kb) AS l FROM g WHERE id < 40 GROUP BY kt) s"
            .into(),
        "SELECT DISTINCT l, kt FROM (SELECT kt, kt2, array_agg(ki) AS l FROM g WHERE id < 9 \
         GROUP BY kt, kt2) s"
            .into(),
        "SELECT DISTINCT t FROM tc".into(),
        "SELECT DISTINCT t, id > 2000 FROM tc".into(),
        "SELECT DISTINCT kt, kb FROM gi".into(),
        "SELECT DISTINCT ki, kt FROM st".into(),
        "SELECT ki, kt, count(*) FROM st GROUP BY ki, kt".into(),
        "SELECT kt, ki, count(*), min(ki) FROM st GROUP BY kt, ki".into(),
    ];
    for t in ["g", "gi"] {
        for key in [
            "CASE WHEN id < 1500 THEN ki ELSE ki + 0.5 END",
            "CASE WHEN id < 1500 THEN ki ELSE ki * 1.0 END",
        ] {
            cases.push(format!(
                "SELECT {key}, kt, count(*), sum(id) FROM {t} GROUP BY {key}, kt"
            ));
        }
    }
    for kind in ["INNER", "LEFT", "RIGHT", "FULL"] {
        for on in [
            "p.ki = d.k AND (p.kt = d.t OR (p.kt IS NULL AND d.t IS NULL))",
            "(p.ki = d.k OR (p.ki IS NULL AND d.k IS NULL)) AND p.kt = d.t",
        ] {
            cases.push(format!(
                "SELECT p.id, p.ki, p.kt, d.v FROM g p {kind} JOIN dk d ON {on} \
                 WHERE p.id IS NULL OR p.id < 300"
            ));
        }
    }
    for (q, sql) in cases.iter().enumerate() {
        let out = same(&mut e, sql, &format!("key index case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
}

/// Key columns whose middle sealed chunk is all NULL (generic storage)
/// between typed `Int`, `Text` and `Bool` batches, as group keys, as
/// `DISTINCT` columns and as plain and null-safe join keys on both sides.
#[test]
fn all_null_key_batches_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_000E);
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE nb (id int, k int, t text, b bool)")
        .unwrap();
    // 1024 typed rows seal a chunk, 1024 NULL rows seal an all-NULL one,
    // and 300 typed rows stay in the tail.
    let rows: Vec<String> = (0..2348)
        .map(|id| {
            if (1024..2048).contains(&id) || rng.below(6) == 0 {
                return format!("({id}, NULL, NULL, NULL)");
            }
            let t = ["'a'", "'b'", "'c d'"][rng.below(3)];
            let b = ["true", "false"][rng.below(2)];
            format!("({id}, {}, {t}, {b})", rng.below(9))
        })
        .collect();
    e.execute(&format!("INSERT INTO nb VALUES {}", rows.join(", ")))
        .unwrap();
    e.execute("CREATE TABLE nd (k int, t text, v int)").unwrap();
    e.execute(
        "INSERT INTO nd VALUES (1, 'a', 0), (NULL, 'b', 1), (2, NULL, 2), \
         (NULL, NULL, 3), (8, 'c d', 4), (1, 'b', 5)",
    )
    .unwrap();

    let mut cases = vec![
        "SELECT k, count(*), sum(id) FROM nb GROUP BY k".to_string(),
        "SELECT t, b, count(*), min(id) FROM nb GROUP BY t, b".into(),
        "SELECT k, t, count(*) FROM nb GROUP BY k, t".into(),
        "SELECT DISTINCT k FROM nb".into(),
        "SELECT DISTINCT t, b FROM nb".into(),
    ];
    for kind in ["INNER", "LEFT", "RIGHT", "FULL"] {
        for on in [
            "n.k = d.k",
            "(n.k = d.k OR (n.k IS NULL AND d.k IS NULL))",
            "(n.t = d.t OR (n.t IS NULL AND d.t IS NULL)) AND n.k = d.k",
        ] {
            cases.push(format!(
                "SELECT n.id, d.v FROM nb n {kind} JOIN nd d ON {on} \
                 WHERE n.id IS NULL OR n.id % 7 = 0"
            ));
            cases.push(format!(
                "SELECT count(*), sum(d.v) FROM nd d {kind} JOIN nb n ON {on}"
            ));
        }
    }
    for (q, sql) in cases.iter().enumerate() {
        let out = same(&mut e, sql, &format!("all-NULL batch case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
}

/// `GROUP BY`s of build-side columns over a hash join with probe-side
/// arguments (the groupjoin under an inner join, a plain aggregate over the
/// others), and plain joins through the unique-key lookup, under every join
/// kind: no ORDER BY, so the group order is compared too; unique, duplicate
/// and null-safe build keys; empty build and probe sides; a probe side of
/// two sealed chunks and a row tail; float sums whose order shows; and an
/// argument that divides by zero.
#[test]
fn groupjoins_and_unique_lookups_match_row_engine() {
    let mut rng = Prng::new(0xE1E9_000F);
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE p (id int, k int, v int, f float, t text)")
        .unwrap();
    fn null_or(rng: &mut Prng, p: f64, v: impl FnOnce(&mut Prng) -> String) -> String {
        if rng.chance(p) {
            "NULL".to_string()
        } else {
            v(rng)
        }
    }
    // 2 500 rows in one INSERT: two sealed chunks and a tail of 452.
    let rows: Vec<String> = (0..2500)
        .map(|id| {
            let k = null_or(&mut rng, 0.1, |r| r.below(60).to_string());
            let v = null_or(&mut rng, 0.2, |r| r.range_i64(-3, 6).to_string());
            let f = null_or(&mut rng, 0.2, |r| format!("{:.3}", r.range_f64(-4.0, 9.0)));
            let t = null_or(&mut rng, 0.2, |r| format!("'t{}'", r.below(7)));
            format!("({id}, {k}, {v}, {f}, {t})")
        })
        .collect();
    e.execute(&format!("INSERT INTO p VALUES {}", rows.join(", ")))
        .unwrap();
    // Unique keys 0..40, so probe keys 40..59 miss; labels repeat.
    e.execute("CREATE TABLE u (k int, w text, x int)").unwrap();
    let rows: Vec<String> = (0..40)
        .map(|k| {
            let w = null_or(&mut rng, 0.15, |r| format!("'w{}'", r.below(4)));
            format!("({k}, {w}, {})", rng.below(3))
        })
        .collect();
    e.execute(&format!("INSERT INTO u VALUES {}", rows.join(", ")))
        .unwrap();
    // Duplicate and NULL keys.
    e.execute("CREATE TABLE dup (k int, w text)").unwrap();
    let rows: Vec<String> = (0..30)
        .map(|_| {
            let k = null_or(&mut rng, 0.2, |r| r.below(10).to_string());
            format!("({k}, 'w{}')", rng.below(3))
        })
        .collect();
    e.execute(&format!("INSERT INTO dup VALUES {}", rows.join(", ")))
        .unwrap();
    e.execute("CREATE TABLE e (k int, w text)").unwrap();
    // Every other probe row meets two build rows and the rest none, so each
    // probe batch pairs exactly as many rows as it holds, with repeats.
    e.execute("CREATE TABLE alt (id int, k int)").unwrap();
    let rows: Vec<String> = (0..2500)
        .map(|id| format!("({id}, {})", 1 + id % 2))
        .collect();
    e.execute(&format!("INSERT INTO alt VALUES {}", rows.join(", ")))
        .unwrap();
    e.execute("CREATE TABLE two (k int, w text)").unwrap();
    e.execute("INSERT INTO two VALUES (1, 'a'), (1, 'b')")
        .unwrap();

    let aggs = "count(*), count(p.t), sum(p.v), avg(p.f), sum(p.f), min(p.t), max(p.f), \
                array_agg(p.id)";
    let mut cases = Vec::new();
    for kind in ["INNER", "LEFT", "RIGHT", "FULL"] {
        for (build, on) in [
            ("u", "p.k = b.k"),
            ("dup", "p.k = b.k"),
            ("dup", "(p.k = b.k OR (p.k IS NULL AND b.k IS NULL))"),
            ("e", "p.k = b.k"),
        ] {
            let join = format!("p {kind} JOIN {build} b ON {on}");
            cases.push(format!("SELECT b.w, {aggs} FROM {join} GROUP BY b.w"));
            cases.push(format!("SELECT count(*), sum(p.v), avg(p.f) FROM {join}"));
            cases.push(format!(
                "SELECT b.w, b.k, sum(p.v * 2 + p.id), count(CASE WHEN p.v > 0 THEN p.t END) \
                 FROM {join} GROUP BY b.w, b.k"
            ));
            cases.push(format!(
                "SELECT b.w, {aggs} FROM (SELECT * FROM p WHERE id < 0) p {kind} JOIN {build} b \
                 ON {on} GROUP BY b.w"
            ));
            cases.push(format!(
                "SELECT p.id, p.k, b.k, b.w FROM {join} WHERE p.id IS NULL OR p.id % 3 = 0"
            ));
        }
        cases.push(format!(
            "SELECT b.w, b.x, count(*), sum(p.id), avg(p.f) FROM p {kind} JOIN u b ON p.k = b.k \
             WHERE p.v > 0 GROUP BY b.w, b.x"
        ));
        cases.push(format!(
            "SELECT b.w, count(*), sum(a.id), max(a.id * 2), array_agg(a.id) FROM alt a \
             {kind} JOIN two b ON a.k = b.k GROUP BY b.w"
        ));
    }
    for (q, sql) in cases.iter().enumerate() {
        let out = same(&mut e, sql, &format!("groupjoin case {q}"));
        assert!(!out.starts_with("ERR"), "{sql}: {out}");
    }
    // Division by zero fails alike, after the same folds.
    for kind in ["INNER", "LEFT"] {
        let sql = format!(
            "SELECT b.w, sum(p.id / (p.v - 2)) FROM p {kind} JOIN u b ON p.k = b.k GROUP BY b.w"
        );
        let out = same(&mut e, &sql, "groupjoin division");
        assert!(out.starts_with("ERR"), "{sql}: {out}");
    }
}
