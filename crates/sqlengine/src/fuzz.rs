//! Seeded SQL workload generation for differential tests.
//!
//! The executor-vs-reference differential fuzz (`tests/exec_diff.rs`) and
//! the sharded-routing differential test in `elephant-server` must run the
//! *same* seeded corpus, so the generator lives here: NULL-heavy seed data
//! for two tables (`t1(a int, b int, c float, d text)` and
//! `t2(k int, v int, w text)`) plus random SELECTs over filters,
//! projections, joins, aggregates, DISTINCT, ORDER BY, and LIMIT — and the
//! operators the paper's inspection itself runs: `array_agg` → `unnest`
//! round trips, `ROW_NUMBER()` ids, cross and non-equi joins, and scalar
//! subqueries. All output is plain SQL text, so it can be executed embedded
//! or shipped over the wire unchanged.

use etypes::Prng;

/// Rows seeded into `t1`.
pub const ROWS_T1: usize = 240;
/// Rows seeded into `t2`.
pub const ROWS_T2: usize = 90;

/// The DDL + INSERT statements that build the corpus tables. Execute them
/// in order with the same [`Prng`] that will generate the queries.
pub fn seed_statements(rng: &mut Prng) -> Vec<String> {
    let mut stmts = vec![
        "CREATE TABLE t1 (a int, b int, c float, d text)".to_string(),
        "CREATE TABLE t2 (k int, v int, w text)".to_string(),
    ];
    let mut inserts = String::from("INSERT INTO t1 VALUES ");
    for i in 0..ROWS_T1 {
        if i > 0 {
            inserts.push_str(", ");
        }
        let a = if rng.chance(0.25) {
            "NULL".to_string()
        } else {
            rng.range_i64(-8, 20).to_string()
        };
        let b = if rng.chance(0.3) {
            "NULL".to_string()
        } else {
            rng.range_i64(0, 6).to_string()
        };
        let c = if rng.chance(0.25) {
            "NULL".to_string()
        } else {
            format!("{:.3}", rng.range_f64(-4.0, 9.0))
        };
        let d = if rng.chance(0.3) {
            "NULL".to_string()
        } else {
            format!("'s{}'", rng.below(5))
        };
        inserts.push_str(&format!("({a}, {b}, {c}, {d})"));
    }
    stmts.push(inserts);
    let mut inserts = String::from("INSERT INTO t2 VALUES ");
    for j in 0..ROWS_T2 {
        if j > 0 {
            inserts.push_str(", ");
        }
        let k = if rng.chance(0.2) {
            "NULL".to_string()
        } else {
            rng.range_i64(-8, 20).to_string()
        };
        let v = if rng.chance(0.3) {
            "NULL".to_string()
        } else {
            rng.range_i64(-5, 5).to_string()
        };
        let w = if rng.chance(0.25) {
            "NULL".to_string()
        } else {
            format!("'w{}'", rng.below(4))
        };
        inserts.push_str(&format!("({k}, {v}, {w})"));
    }
    stmts.push(inserts);
    stmts
}

/// A random numeric expression over `t1` columns and integer literals.
pub fn gen_num(rng: &mut Prng, depth: usize) -> String {
    if depth == 0 || rng.chance(0.4) {
        return match rng.below(3) {
            0 => "a".to_string(),
            1 => "b".to_string(),
            _ => rng.range_i64(-5, 10).to_string(),
        };
    }
    let l = gen_num(rng, depth - 1);
    let r = gen_num(rng, depth - 1);
    match rng.below(4) {
        0 => format!("({l} + {r})"),
        1 => format!("({l} - {r})"),
        2 => format!("({l} * {r})"),
        _ => format!("(CASE WHEN {} THEN {l} ELSE {r} END)", gen_pred(rng, 1)),
    }
}

/// A random predicate over `t1` columns (NULL-aware operators included).
pub fn gen_pred(rng: &mut Prng, depth: usize) -> String {
    if depth == 0 || rng.chance(0.35) {
        return match rng.below(6) {
            0 => format!("{} > {}", gen_num(rng, 1), gen_num(rng, 1)),
            1 => format!("{} <= {}", gen_num(rng, 1), gen_num(rng, 1)),
            2 => format!("{} = {}", gen_num(rng, 1), gen_num(rng, 1)),
            3 => format!("c < {:.2}", rng.range_f64(-2.0, 6.0)),
            4 => format!("d = 's{}'", rng.below(5)),
            _ => match rng.below(3) {
                0 => "a IS NULL".to_string(),
                1 => "c IS NOT NULL".to_string(),
                _ => format!("b IN ({}, NULL, {})", rng.below(4), rng.below(6)),
            },
        };
    }
    let l = gen_pred(rng, depth - 1);
    let r = gen_pred(rng, depth - 1);
    match rng.below(3) {
        0 => format!("({l} AND {r})"),
        1 => format!("({l} OR {r})"),
        _ => format!("NOT ({l})"),
    }
}

/// One random query over the corpus tables (ten shapes: filter+project,
/// four-way joins, grouped and global aggregates, DISTINCT+ORDER+LIMIT, an
/// aggregated CTE join, `array_agg` → `unnest` round trips, `ROW_NUMBER()`
/// windows, nested-loop joins, and scalar subqueries).
pub fn gen_query(rng: &mut Prng) -> String {
    match rng.below(10) {
        // Filter + project over t1.
        0 => format!(
            "SELECT {} AS x, {} AS y, d FROM t1 WHERE {}",
            gen_num(rng, 2),
            gen_num(rng, 2),
            gen_pred(rng, 2),
        ),
        // Join (equi, all supported kinds) with residual-ish predicates.
        1 => {
            let kind = ["INNER", "LEFT", "RIGHT", "FULL"][rng.below(4)];
            format!(
                "SELECT t1.a, t1.d, t2.v, t2.w FROM t1 {kind} JOIN t2 ON t1.a = t2.k WHERE {}",
                gen_pred(rng, 1),
            )
        }
        // Grouped aggregate.
        2 => format!(
            "SELECT b, count(*) AS n, sum(a) AS s, avg(c) AS m, min(a) AS lo, max(c) AS hi \
             FROM t1 WHERE {} GROUP BY b",
            gen_pred(rng, 2),
        ),
        // Global aggregate (possibly over an empty filter result).
        3 => format!(
            "SELECT count(*) AS n, sum({}) AS s FROM t1 WHERE {}",
            gen_num(rng, 2),
            gen_pred(rng, 2),
        ),
        // DISTINCT + ORDER BY + LIMIT.
        4 => format!(
            "SELECT DISTINCT b, d FROM t1 WHERE {} ORDER BY b, d LIMIT {}",
            gen_pred(rng, 2),
            rng.below(8) + 1,
        ),
        // CTE over a join, aggregated.
        5 => "WITH j AS (SELECT t1.b AS b, t2.v AS v FROM t1 INNER JOIN t2 ON t1.a = t2.k) \
              SELECT b, count(*) AS n, sum(v) AS s FROM j GROUP BY b ORDER BY b LIMIT 10"
            .to_string(),
        6 => gen_unnest(rng),
        7 => gen_row_number(rng),
        // Nested-loop joins: a cross product, and an inner join whose
        // condition has no equi key (a residual that may divide by zero).
        8 => {
            let b = rng.below(6);
            if rng.chance(0.5) {
                format!(
                    "SELECT t1.a, t1.d, t2.v, t2.w FROM t1 CROSS JOIN t2 WHERE t1.b = {b} AND {}",
                    ["t2.v > 0", "t2.w IS NULL", "t1.a < t2.k"][rng.below(3)],
                )
            } else {
                let residual = ["t1.a < t2.k", "t1.c > t2.v", "t1.a / t2.v > 1"][rng.below(3)];
                format!(
                    "SELECT t1.a, t1.c, t2.k, t2.v FROM t1 INNER JOIN t2 ON {residual} \
                     AND t1.d <> t2.w WHERE t1.b = {b}"
                )
            }
        }
        // Scalar subqueries: a NULL-able average, a global count, and a
        // LIMIT that makes the subquery return two rows (an error) half the
        // time — unless the WHERE leaves no row to evaluate it for.
        _ => match rng.below(3) {
            0 => format!(
                "SELECT a, b FROM t1 WHERE a > (SELECT avg(v) FROM t2 WHERE v > {})",
                rng.range_i64(-6, 6),
            ),
            1 => "SELECT b, count(*) AS n, (SELECT count(*) FROM t2 WHERE w IS NULL) AS m \
                  FROM t1 GROUP BY b"
                .to_string(),
            _ => format!(
                "SELECT a, (SELECT k FROM t2 WHERE k IS NOT NULL ORDER BY k LIMIT {}) AS k0 \
                 FROM t1 WHERE {}",
                rng.below(2) + 1,
                gen_pred(rng, 1),
            ),
        },
    }
}

/// An `array_agg` → `unnest` round trip, the way inspection keeps tuple
/// identifiers through an aggregation (grouped, global, or joined back on
/// `ctid`). The lists are NULL-heavy: the `b = 3` group's list can be all
/// NULL, and the WHERE can empty the input.
fn gen_unnest(rng: &mut Prng) -> String {
    let list = ["ctid", "a", "CASE WHEN b = 3 THEN NULL ELSE a END"][rng.below(3)];
    let pred = gen_pred(rng, 1);
    match rng.below(3) {
        0 => format!(
            "SELECT g.b, unnest(g.ids) AS id FROM \
             (SELECT b, array_agg({list}) AS ids FROM t1 WHERE {pred} GROUP BY b) AS g"
        ),
        1 => format!(
            "SELECT unnest(ids) AS id FROM (SELECT array_agg({list}) AS ids FROM t1 WHERE {pred}) AS g"
        ),
        _ => format!(
            "WITH g AS (SELECT b, array_agg(ctid) AS ids FROM t1 WHERE {pred} GROUP BY b), \
             u AS (SELECT b, unnest(ids) AS id FROM g) \
             SELECT u.b, u.id, t1.a, t1.d FROM u INNER JOIN t1 ON u.id = t1.ctid"
        ),
    }
}

/// A `ROW_NUMBER()` window over NULL-heavy keys with ties (input order
/// breaks them), ascending and DESC, or the `- 1 AS pos` ranking of
/// distinct values that the transpiler emits for one-hot encoding.
fn gen_row_number(rng: &mut Prng) -> String {
    if rng.chance(0.5) {
        let keys = ["b", "b DESC", "d, a DESC", "c DESC", "b, d DESC, a"][rng.below(5)];
        format!(
            "SELECT a, b, d, ROW_NUMBER() OVER (ORDER BY {keys}) AS rn FROM t1 WHERE {}",
            gen_pred(rng, 1),
        )
    } else {
        let v = ["d", "b", "a % 4"][rng.below(3)];
        format!(
            "SELECT v, ROW_NUMBER() OVER (ORDER BY v) - 1 AS pos \
             FROM (SELECT DISTINCT {v} AS v FROM t1 WHERE ({v}) IS NOT NULL) d"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_generation_is_deterministic() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        assert_eq!(seed_statements(&mut a), seed_statements(&mut b));
        for _ in 0..32 {
            assert_eq!(gen_query(&mut a), gen_query(&mut b));
        }
    }

    #[test]
    fn generated_queries_parse() {
        let mut rng = Prng::new(7);
        let _ = seed_statements(&mut rng);
        for _ in 0..64 {
            let sql = gen_query(&mut rng);
            crate::deps::parse_sql(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }
}
