//! A `GROUP BY` over several text columns must cost about as much per key
//! column as one over a single column. INSPECT's histogram of k sensitive
//! columns is one `GROUP BY` of k keys per operator; when the keys are
//! `Text` columns sharing their loaded dictionaries, as here, they take
//! the dense composite table, and a per-row cost that jumps once a second
//! key joins would make every inspected column beyond the first dear.
//! The same holds for a dense `Int` key beside a `Text` one, as in a
//! histogram over a code column and a category. (Fig 11's taxi histograms
//! have a `Float` key and group by value, so this test does not time
//! them.)

use etypes::CsvOptions;
use sqlengine::{Engine, EngineProfile};
use std::time::{Duration, Instant};

const ROWS: usize = 50_000;

/// A table of `ROWS` rows, four text columns of 5, 4, 3 and 6 distinct
/// values (a few NULL) and an `Int` column of 9 (and NULL), loaded by COPY
/// as the paper's inputs are.
fn engine() -> Engine {
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE t (a text, b text, c text, d text, k int)")
        .unwrap();
    let mut csv = String::from("a,b,c,d,k\n");
    for i in 0..ROWS {
        let a = if i % 97 == 0 {
            String::new()
        } else {
            format!("a{}", i % 5)
        };
        let k = if i % 89 == 0 {
            String::new()
        } else {
            (i % 9).to_string()
        };
        csv.push_str(&format!(
            "{a},b{},c{},d{},{k}\n",
            i % 4,
            (i / 7) % 3,
            (i / 3) % 6
        ));
    }
    e.copy_from_str("t", None, &csv, &CsvOptions::default())
        .unwrap();
    e
}

/// Best of five timings of `sql`, which must answer `groups` rows.
fn best_of_five(e: &mut Engine, sql: &str, groups: usize) -> Duration {
    (0..5)
        .map(|_| {
            let started = Instant::now();
            let rel = e.query(sql).unwrap();
            let elapsed = started.elapsed();
            assert_eq!(rel.rows.len(), groups, "{sql}");
            elapsed
        })
        .min()
        .expect("five timings")
}

#[test]
fn four_text_keys_cost_little_more_than_one() {
    let mut e = engine();
    let one = best_of_five(&mut e, "SELECT a, count(*) FROM t GROUP BY a", 6);
    for (keys, groups) in [("a, b, c, d", 6 * 4 * 3 * 6), ("k, a", 10 * 6)] {
        let sql = format!("SELECT {keys}, count(*) FROM t GROUP BY {keys}");
        let many = best_of_five(&mut e, &sql, groups);
        let ratio = many.as_secs_f64() / one.as_secs_f64();
        // Passes over column-local ids cost a few times one; building a
        // key of cloned values per row cost 65 times for the four text
        // keys and 31 times for the `Int` and text key.
        assert!(
            ratio <= 6.0,
            "GROUP BY {keys} took {many:?}, of 1 key {one:?}: ratio {ratio:.1}"
        );
    }
}
