//! `unnest` over an aggregated tuple-identifier list must cost time linear
//! in the list: the inspection queries after a `groupby` unnest one
//! `array_agg(ctid)` list per group (paper Listing 3), so a per-element cost
//! that grows with the list makes every such histogram quadratic in the
//! input.

use etypes::{CsvOptions, Value};
use sqlengine::{Engine, EngineProfile};
use std::time::{Duration, Instant};

/// Best of five timings of unnesting one stored group of `n` identifiers.
fn unnest_one_group(n: usize) -> Duration {
    let mut e = Engine::new(EngineProfile::in_memory());
    e.execute("CREATE TABLE d (s int, v int)").unwrap();
    let mut csv = String::from("s,v\n");
    for v in 0..n {
        csv.push_str(&format!("1,{v}\n"));
    }
    e.copy_from_str("d", None, &csv, &CsvOptions::default())
        .unwrap();
    // Store the list so the timed query is the scan + unnest alone.
    e.execute("CREATE MATERIALIZED VIEW agg AS SELECT array_agg(ctid) AS ids, s FROM d GROUP BY s")
        .unwrap();
    (0..5)
        .map(|_| {
            let started = Instant::now();
            let rel = e
                .query("SELECT count(*) AS cnt FROM (SELECT unnest(ids) AS id, s FROM agg) c")
                .unwrap();
            let elapsed = started.elapsed();
            assert_eq!(rel.rows, vec![vec![Value::Int(n as i64)]]);
            elapsed
        })
        .min()
        .expect("five timings")
}

#[test]
fn unnest_of_one_group_scales_linearly() {
    const N: usize = 20_000;
    let small = unnest_one_group(N);
    let large = unnest_one_group(4 * N);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    // Linear is 4; cloning the list once per element is ≈ 16.
    assert!(
        ratio <= 6.0,
        "unnest of {} ids took {large:?}, of {N} ids {small:?}: ratio {ratio:.1} is not linear",
        4 * N
    );
}
