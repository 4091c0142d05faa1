//! Property-style tests over the system's core invariants.
//!
//! Previously driven by `proptest`; now driven by the workspace's own
//! deterministic [`Prng`] so the whole test suite runs offline. Each
//! property draws a few hundred random cases from a fixed seed, which keeps
//! failures reproducible without an external shrinking framework (the
//! drawn inputs are small enough to debug directly).

use blue_elephants::dataframe::{DataFrame, Series};
use blue_elephants::mlinspect::backends::split_hash;
use blue_elephants::sqlengine::{Engine, EngineProfile};
use etypes::{read_csv_str, write_csv, CsvOptions, Prng, Value};

const CASES: usize = 300;

fn arb_value(rng: &mut Prng) -> Value {
    match rng.below(5) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.range_i64(-1000, 1000)),
        3 => Value::Float(rng.range_i64(-1000, 1000) as f64 / 8.0),
        _ => Value::text(arb_lowercase(rng, 0, 6)),
    }
}

fn arb_lowercase(rng: &mut Prng, min: usize, max: usize) -> String {
    let len = min + rng.below(max - min + 1);
    (0..len)
        .map(|_| (b'a' + rng.below(26) as u8) as char)
        .collect()
}

/// Value's total order is antisymmetric and transitive (sort safety).
#[test]
fn value_ordering_is_total() {
    use std::cmp::Ordering;
    let mut rng = Prng::new(101);
    for _ in 0..CASES * 3 {
        let (a, b, c) = (
            arb_value(&mut rng),
            arb_value(&mut rng),
            arb_value(&mut rng),
        );
        assert_eq!(a.cmp(&b), b.cmp(&a).reverse(), "{a:?} vs {b:?}");
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            assert_ne!(a.cmp(&c), Ordering::Greater, "{a:?} {b:?} {c:?}");
        }
    }
}

/// Equal values hash equally (group-by key safety).
#[test]
fn value_hash_consistent_with_eq() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let hash = |v: &Value| {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    };
    let mut rng = Prng::new(102);
    for _ in 0..CASES * 3 {
        let (a, b) = (arb_value(&mut rng), arb_value(&mut rng));
        if a == b {
            assert_eq!(hash(&a), hash(&b), "{a:?} vs {b:?}");
        }
    }
}

/// CSV write → read round-trips rows (modulo numeric re-typing).
#[test]
fn csv_round_trip() {
    let mut rng = Prng::new(103);
    for _ in 0..CASES {
        let nrows = 1 + rng.below(19);
        let columns = vec!["n".to_string(), "w".to_string(), "t".to_string()];
        let data: Vec<Vec<Value>> = (0..nrows)
            .map(|_| {
                // Optional third field from a wider alphabet (incl. ',',
                // quotes, line breaks and spaces) exercising quoting;
                // empty ⇒ NULL.
                let t = if rng.chance(0.5) {
                    let len = rng.below(9);
                    let s: String = (0..len)
                        .map(|_| match rng.below(31) {
                            26 => ',',
                            27 => ' ',
                            28 => '"',
                            29 => '\n',
                            30 => '\r',
                            k => (b'a' + k as u8) as char,
                        })
                        .collect();
                    if s.is_empty() {
                        Value::Null
                    } else {
                        Value::text(s)
                    }
                } else {
                    Value::Null
                };
                vec![
                    Value::Int(rng.range_i64(0, 100)),
                    Value::text(arb_lowercase(&mut rng, 1, 5)),
                    t,
                ]
            })
            .collect();
        let text = write_csv(&columns, &data, ',');
        let parsed = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(parsed.to_rows(), data, "csv:\n{text}");
    }
}

/// The shared split hash partitions any ctid set: every row lands in
/// exactly one side, and both backends use the same rule.
#[test]
fn split_is_a_partition() {
    let mut rng = Prng::new(104);
    for _ in 0..CASES {
        let seed = rng.next_u64() % 1000;
        let n = 1 + rng.below(199);
        for _ in 0..n {
            let c = rng.range_i64(0, 1_000_000);
            let h = split_hash(c, seed);
            assert!((0..100).contains(&h));
            let in_test = h < 25;
            let in_train = h >= 25;
            assert!(in_test != in_train);
        }
    }
}

/// SQL GROUP BY count equals the dataframe groupby count on the same
/// data — a cross-substrate metamorphic test.
#[test]
fn sql_and_dataframe_group_counts_agree() {
    let mut rng = Prng::new(105);
    for _ in 0..40 {
        let values: Vec<i64> = (0..1 + rng.below(59))
            .map(|_| rng.range_i64(0, 5))
            .collect();

        // Dataframe side.
        let df = DataFrame::from_columns(vec![Series::new(
            "g",
            values.iter().map(|v| Value::Int(*v)).collect(),
        )])
        .unwrap();
        let agg = df
            .groupby(&["g"])
            .unwrap()
            .agg(&[blue_elephants::dataframe::AggSpec {
                output: "n".into(),
                input: "g".into(),
                func: blue_elephants::dataframe::AggFunc::Count,
            }])
            .unwrap();
        let mut df_counts: Vec<(i64, i64)> = (0..agg.len())
            .map(|i| {
                (
                    agg.column("g").unwrap().values()[i].as_i64().unwrap(),
                    agg.column("n").unwrap().values()[i].as_i64().unwrap(),
                )
            })
            .collect();
        df_counts.sort_unstable();

        // SQL side.
        let mut engine = Engine::new(EngineProfile::in_memory());
        engine.execute("CREATE TABLE t (g int)").unwrap();
        let inserts: Vec<String> = values.iter().map(|v| format!("({v})")).collect();
        engine
            .execute(&format!("INSERT INTO t VALUES {}", inserts.join(", ")))
            .unwrap();
        let rel = engine
            .query("SELECT g, count(*) AS n FROM t GROUP BY g ORDER BY g")
            .unwrap();
        let sql_counts: Vec<(i64, i64)> = rel
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        assert_eq!(df_counts, sql_counts);
    }
}

/// Filters commute with ratio measurement: a WHERE TRUE filter never
/// changes histogram ratios (operators that keep all rows introduce no
/// bias — the paper's §3.2 claim, as a property).
#[test]
fn row_preserving_filter_conserves_ratios() {
    let mut rng = Prng::new(106);
    for _ in 0..40 {
        let values: Vec<i64> = (0..1 + rng.below(49))
            .map(|_| rng.range_i64(0, 4))
            .collect();
        let mut engine = Engine::new(EngineProfile::disk_based_no_latency());
        engine.execute("CREATE TABLE t (s int)").unwrap();
        let inserts: Vec<String> = values.iter().map(|v| format!("({v})")).collect();
        engine
            .execute(&format!("INSERT INTO t VALUES {}", inserts.join(", ")))
            .unwrap();
        let before = engine
            .query("SELECT s, count(*) FROM t GROUP BY s")
            .unwrap();
        let after = engine
            .query(
                "WITH kept AS (SELECT s, ctid FROM t WHERE 1 = 1)
                 SELECT s, count(*) FROM kept GROUP BY s",
            )
            .unwrap();
        assert_eq!(before.sorted_rows(), after.sorted_rows());
    }
}

/// Selections never invent tuples: every (value, count) after a filter
/// is bounded by its count before — the monotonicity the bias check's
/// join-back relies on.
#[test]
fn selection_counts_are_monotone() {
    let mut rng = Prng::new(107);
    for _ in 0..40 {
        let values: Vec<(i64, i64)> = (0..1 + rng.below(49))
            .map(|_| (rng.range_i64(0, 4), rng.range_i64(0, 10)))
            .collect();
        let threshold = rng.range_i64(0, 10);
        let mut engine = Engine::new(EngineProfile::in_memory());
        engine.execute("CREATE TABLE t (s int, v int)").unwrap();
        let inserts: Vec<String> = values.iter().map(|(s, v)| format!("({s}, {v})")).collect();
        engine
            .execute(&format!("INSERT INTO t VALUES {}", inserts.join(", ")))
            .unwrap();
        let before = engine
            .query("SELECT s, count(*) FROM t GROUP BY s")
            .unwrap();
        let after = engine
            .query(&format!(
                "SELECT s, count(*) FROM t WHERE v > {threshold} GROUP BY s"
            ))
            .unwrap();
        for row in &after.rows {
            let b = before
                .rows
                .iter()
                .find(|r| r[0] == row[0])
                .expect("group existed before");
            assert!(row[1].as_i64().unwrap() <= b[1].as_i64().unwrap());
        }
    }
}
