//! Tracing overhead: the gate for "always-on-cheap".
//!
//! Runs the same cached SELECT hot loop in three configurations — phase
//! tracing enabled (the default), tracing disabled, and the full
//! distributed-tracing path the sharded server drives per command (install
//! a query-id [`TraceContext`], run, drain the per-statement phase spans).
//! The three samples of a round run back to back, in an order that rotates
//! from round to round, so clock drift and cache warm-up hit all sides
//! equally; each traced configuration's median per-round ratio to untraced
//! must stay within [`MAX_RATIO`]. This binary holds exactly one test, so
//! nothing else runs in the process while it measures.
//!
//! Run with `cargo test --release -p sqlengine --test trace_overhead`.

use etypes::{next_span_id, TraceContext};
use sqlengine::{Engine, EngineProfile};
use std::time::Instant;

/// Tracing may not slow the hot query path by more than 5%.
const MAX_RATIO: f64 = 1.05;

const ROWS: usize = 10_000;
const QUERY: &str =
    "SELECT grp, count(*) AS n, sum(v) AS s FROM t WHERE v >= 100 GROUP BY grp ORDER BY grp";
const ROUNDS: usize = 31;
const ITERS_PER_SAMPLE: u64 = 20;

fn build_engine() -> Engine {
    let mut engine = Engine::new(EngineProfile::in_memory());
    engine
        .execute("CREATE TABLE t (grp int, v int)")
        .expect("create");
    let mut values = String::from("INSERT INTO t VALUES ");
    for i in 0..ROWS {
        if i > 0 {
            values.push(',');
        }
        values.push_str(&format!("({}, {})", i % 7, (i * 37) % 1000));
    }
    engine.execute(&values).expect("insert");
    engine
}

/// ns per run of the hot query over `ITERS_PER_SAMPLE` runs. With a
/// `round`, each run installs a fresh query-scoped context first and drains
/// its phase spans after, as the sharded server does per command.
fn sample(engine: &mut Engine, round: Option<u64>) -> f64 {
    let started = Instant::now();
    for i in 0..ITERS_PER_SAMPLE {
        if let Some(round) = round {
            engine.set_trace_context(Some(TraceContext {
                query_id: round * ITERS_PER_SAMPLE + i + 1,
                parent_span: next_span_id(),
            }));
        }
        let rel = engine.query(QUERY).expect("query");
        assert_eq!(rel.rows.len(), 7);
        if round.is_some() {
            let (spans, _) = engine.take_phase_spans();
            assert!(!spans.is_empty(), "context run must surface phase spans");
        }
    }
    started.elapsed().as_nanos() as f64 / ITERS_PER_SAMPLE as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn tracing_and_query_id_propagation_cost_at_most_five_percent() {
    let mut engine = build_engine();
    // Warm up: populate the plan cache and fault everything in.
    for _ in 0..20 {
        engine.query(QUERY).expect("warmup");
    }

    let mut traced = Vec::with_capacity(ROUNDS);
    let mut propagated = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS as u64 {
        // [traced, untraced, query-id], started at a different one each
        // round so no configuration always runs first.
        let mut ns = [0.0; 3];
        for k in 0..3 {
            let config = (round as usize + k) % 3;
            engine.set_tracing(config != 1);
            ns[config] = sample(&mut engine, (config == 2).then_some(round));
            engine.set_trace_context(None);
        }
        traced.push(ns[0] / ns[1]);
        propagated.push(ns[2] / ns[1]);
    }
    let traced = median(traced);
    let propagated = median(propagated);
    eprintln!(
        "traced / untraced: {traced:.4}; query-id / untraced: {propagated:.4} (limit {MAX_RATIO})"
    );
    assert!(
        traced <= MAX_RATIO,
        "tracing costs {traced:.4}x untraced, over the {MAX_RATIO}x budget"
    );
    assert!(
        propagated <= MAX_RATIO,
        "query-id propagation costs {propagated:.4}x untraced, over the {MAX_RATIO}x budget"
    );
}
