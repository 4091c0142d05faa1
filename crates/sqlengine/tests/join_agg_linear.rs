//! A `GROUP BY` of a dimension's column over a key/foreign-key join must
//! cost about as much as a `GROUP BY` of the fact table's own key. The
//! paper's inspection restores a sensitive column by joining an
//! intermediate back to its base table on the tuple id and counting per
//! value, and `analytics`' join query is the same shape: every group key
//! comes from the build side of a join whose build keys are unique. Run as
//! a groupjoin, the probe rows fold straight into the build side's groups,
//! with no join output built; gathering every matched pair first cost
//! about twice the plain `GROUP BY`.

use etypes::CsvOptions;
use sqlengine::{Engine, EngineProfile};
use std::time::{Duration, Instant};

const ROWS: usize = 200_000;
const DIMS: usize = 16;

/// `facts(a, g)` with `ROWS` rows loaded by COPY, `g` over `DIMS` values,
/// and `dims(g, label)` with one row per `g`, two per label.
fn engine() -> Engine {
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE facts (a int, g int)").unwrap();
    e.execute("CREATE TABLE dims (g int, label text)").unwrap();
    let mut csv = String::from("a,g\n");
    for a in 0..ROWS {
        csv.push_str(&format!("{a},{}\n", (a * 7 + a / 3) % DIMS));
    }
    e.copy_from_str("facts", None, &csv, &CsvOptions::default())
        .unwrap();
    let dims: Vec<String> = (0..DIMS)
        .map(|g| format!("({g}, 'label{}')", g / 2))
        .collect();
    e.execute(&format!("INSERT INTO dims VALUES {}", dims.join(", ")))
        .unwrap();
    e
}

/// One timing of `sql`, which must answer `groups` rows.
fn time(e: &mut Engine, sql: &str, groups: usize) -> Duration {
    let started = Instant::now();
    let rel = e.query(sql).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(rel.rows.len(), groups, "{sql}");
    elapsed
}

fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

#[test]
fn a_group_by_through_a_key_join_costs_about_a_plain_group_by() {
    let mut e = engine();
    let plain = "SELECT g, count(*), sum(a) FROM facts GROUP BY g";
    let joined = "SELECT d.label, count(*), sum(f.a) FROM facts f INNER JOIN dims d \
                  ON f.g = d.g GROUP BY d.label";
    // Interleaved, so a slow stretch of the machine hits both alike.
    let (mut plain_times, mut joined_times) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        plain_times.push(time(&mut e, plain, DIMS));
        joined_times.push(time(&mut e, joined, DIMS / 2));
    }
    let (plain, joined) = (median(plain_times), median(joined_times));
    let ratio = joined.as_secs_f64() / plain.as_secs_f64();
    // The groupjoin reads about 1; gathering the join output first read
    // about 2.1 in release builds.
    assert!(
        ratio <= 1.7,
        "the joined GROUP BY took {joined:?}, the plain one {plain:?}: ratio {ratio:.2}"
    );
}
