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
