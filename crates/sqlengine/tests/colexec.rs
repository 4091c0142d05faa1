//! Columnar-execution observability: exact `EXPLAIN ANALYZE` cardinalities
//! (rows *and* batches) under both engine personalities, engine counters,
//! Auto-mode dispatch, and mode-keyed plan caching.

use sqlengine::{Engine, EngineProfile, ExecMode};

const N: usize = 1500; // > one 1024-row batch, < two full batches

fn seed(profile: EngineProfile) -> Engine {
    let mut e = Engine::new(profile);
    e.execute("CREATE TABLE t (a int, b int)").unwrap();
    let mut insert = String::from("INSERT INTO t VALUES ");
    for i in 0..N {
        if i > 0 {
            insert.push_str(", ");
        }
        insert.push_str(&format!("({i}, {})", i % 7));
    }
    e.execute(&insert).unwrap();
    e
}

/// Exact per-operator rows and batches in columnar mode; the same plan in
/// row mode must not report batches at all.
fn batches_are_exact(profile: EngineProfile) {
    let mut e = seed(profile);
    let sql = "SELECT a * 2 AS d FROM t WHERE a < 10";

    e.set_exec_mode(ExecMode::Columnar);
    let (_, prof) = e.query_profiled(sql).unwrap();
    let scan = prof.find("Scan Table t").unwrap();
    assert_eq!(scan.rows, N as u64);
    assert_eq!(scan.batches, Some(2), "1500 rows = 2 batches of <=1024");
    let filter = prof.find("Filter").unwrap();
    assert_eq!(filter.rows, 10);
    // Every survivor sits in the first input batch; the second batch
    // filters to nothing and is dropped, not emitted empty.
    assert_eq!(filter.batches, Some(1));
    let project = prof.find("Project").unwrap();
    assert_eq!(project.rows, 10);
    assert_eq!(project.batches, Some(1));
    let rendered = prof.render();
    assert!(
        rendered.contains(&format!("Scan Table t cols=1 (rows={N} batches=2 time=")),
        "{rendered}"
    );

    e.set_exec_mode(ExecMode::Row);
    let (_, prof) = e.query_profiled(sql).unwrap();
    assert_eq!(prof.find("Scan Table t").unwrap().rows, N as u64);
    for op in &prof.ops {
        assert_eq!(op.batches, None, "row mode reported batches: {}", op.label);
    }
    assert!(!prof.render().contains("batches="), "{}", prof.render());
}

#[test]
fn batches_are_exact_disk_profile() {
    batches_are_exact(EngineProfile::disk_based_no_latency());
}

#[test]
fn batches_are_exact_in_memory_profile() {
    batches_are_exact(EngineProfile::in_memory());
}

/// A materialized CTE (the disk personality's fence) is itself executed
/// batch-at-a-time and reports batches on its head line; the inlined
/// personality never materializes it in the first place.
#[test]
fn cte_personalities_report_batches() {
    let sql = "WITH c AS (SELECT a FROM t WHERE a < 1200) SELECT count(*) AS n FROM c";

    let mut fenced = seed(EngineProfile::disk_based_no_latency());
    fenced.set_exec_mode(ExecMode::Columnar);
    let (rel, prof) = fenced.query_profiled(sql).unwrap();
    assert_eq!(rel.rows[0][0], etypes::Value::Int(1200));
    let cte = prof.find("CTE 0 [c] (materialized)").unwrap();
    assert_eq!(cte.rows, 1200);
    assert_eq!(cte.batches, Some(2), "1200 CTE rows = 2 batches");
    let scan_cte = prof.find("Scan CTE 0").unwrap();
    assert_eq!(scan_cte.rows, 1200);
    assert_eq!(scan_cte.batches, Some(2));

    let mut inlined = seed(EngineProfile::in_memory());
    inlined.set_exec_mode(ExecMode::Columnar);
    let (rel, prof) = inlined.query_profiled(sql).unwrap();
    assert_eq!(rel.rows[0][0], etypes::Value::Int(1200));
    assert!(
        prof.find("CTE 0").is_none(),
        "inlined personality fences no CTE"
    );
    let scan = prof.find("Scan Table t").unwrap();
    assert_eq!(scan.rows, N as u64);
    assert_eq!(scan.batches, Some(2));
}

/// A fallback subtree (window function) runs on the row engine — no batches
/// on its operators — while vectorized operators above it still report
/// batches; the bridge is counted once.
#[test]
fn fallback_subtree_reports_no_batches() {
    let mut e = seed(EngineProfile::in_memory());
    e.set_exec_mode(ExecMode::Columnar);
    let before = e.stats().colexec_fallbacks;
    let (_, prof) = e
        .query_profiled(
            "SELECT rn FROM (SELECT a, ROW_NUMBER() OVER (ORDER BY a) AS rn FROM t) AS s \
             WHERE rn <= 5",
        )
        .unwrap();
    assert_eq!(e.stats().colexec_fallbacks, before + 1);
    let window = prof.find("WindowRowNumber").unwrap();
    assert_eq!(window.rows, N as u64);
    assert_eq!(window.batches, None, "row-engine subtree has no batches");
    let filter = prof.find("Filter").unwrap();
    assert_eq!(filter.rows, 5);
    assert!(
        filter.batches.is_some(),
        "vectorized parent reports batches"
    );
}

/// Engine counters: columnar runs count batches, row runs never do, and
/// Auto — the default — only chooses columnar for fully vectorized plans.
#[test]
fn exec_stats_and_auto_dispatch() {
    let mut e = seed(EngineProfile::in_memory());
    e.set_exec_mode(ExecMode::Row);
    e.query("SELECT sum(a) AS s FROM t").unwrap();
    assert_eq!(
        e.stats().batches_executed,
        0,
        "the row engine has no batches"
    );

    let mut e = seed(EngineProfile::in_memory());
    assert_eq!(e.exec_mode(), ExecMode::Auto, "a new engine runs auto");
    e.query("SELECT sum(a) AS s FROM t WHERE b = 3").unwrap();
    let after_auto = e.stats().batches_executed;
    assert!(
        after_auto > 0,
        "fully vectorized plan runs columnar in auto"
    );
    assert_eq!(e.stats().colexec_fallbacks, 0);

    // A window function makes the plan not fully vectorized: Auto uses the
    // row engine outright instead of paying the bridge.
    e.query("SELECT a, ROW_NUMBER() OVER (ORDER BY a) AS rn FROM t LIMIT 3")
        .unwrap();
    assert_eq!(e.stats().batches_executed, after_auto);
    assert_eq!(e.stats().colexec_fallbacks, 0);
}

/// The plan cache is keyed by (mode, sql): switching modes re-plans rather
/// than reusing the other mode's entry.
#[test]
fn plan_cache_is_mode_keyed() {
    let mut e = seed(EngineProfile::in_memory());
    let sql = "SELECT count(*) AS n FROM t WHERE a < 100";
    e.query_cached(sql).unwrap();
    e.query_cached(sql).unwrap();
    assert_eq!(e.plan_cache_stats().hits, 1);
    assert_eq!(e.plan_cache_stats().misses, 1);

    e.set_exec_mode(ExecMode::Columnar);
    let rel = e.query_cached(sql).unwrap();
    assert_eq!(rel.rows[0][0], etypes::Value::Int(100));
    assert_eq!(e.plan_cache_stats().misses, 2, "new mode, new entry");
    e.query_cached(sql).unwrap();
    assert_eq!(e.plan_cache_stats().hits, 2);
    assert_eq!(e.plan_cache_len(), 2);
}

#[test]
fn exec_mode_parses_and_renders() {
    assert_eq!("row".parse::<ExecMode>().unwrap(), ExecMode::Row);
    assert_eq!("COLUMNAR".parse::<ExecMode>().unwrap(), ExecMode::Columnar);
    assert_eq!("Auto".parse::<ExecMode>().unwrap(), ExecMode::Auto);
    assert!("vectorized".parse::<ExecMode>().is_err());
    assert_eq!(ExecMode::Columnar.to_string(), "columnar");
    assert_eq!(ExecMode::default(), ExecMode::Auto);
}

/// The hash join streams its probe side: each probe batch emits one output
/// batch, however many build rows its keys match, and a probe batch without
/// a match emits none.
#[test]
fn join_emits_one_batch_per_probe_batch() {
    let mut e = seed(EngineProfile::in_memory());
    e.set_exec_mode(ExecMode::Columnar);
    // Every b in 0..7 appears twice on the build side.
    e.execute("CREATE TABLE d (k int, tag int)").unwrap();
    let dims: Vec<String> = (0..14).map(|i| format!("({}, {i})", i % 7)).collect();
    e.execute(&format!("INSERT INTO d VALUES {}", dims.join(", ")))
        .unwrap();

    let (rel, prof) = e
        .query_profiled("SELECT t.a, d.tag FROM t INNER JOIN d ON t.b = d.k")
        .unwrap();
    assert_eq!(rel.rows.len(), 2 * N);
    let join = prof.find("InnerJoin").unwrap();
    assert_eq!(join.rows, 2 * N as u64);
    assert_eq!(
        join.batches,
        Some(2),
        "two probe batches, two output batches of 2048 and 952 rows"
    );
    // Probe order, then build order among duplicate keys.
    let pair = |a, tag| vec![etypes::Value::Int(a), etypes::Value::Int(tag)];
    assert_eq!(rel.rows[..3], [pair(0, 0), pair(0, 7), pair(1, 1)]);

    // Only a = 1499 (in the second probe batch) has a partner.
    e.execute("CREATE TABLE one (k int)").unwrap();
    e.execute("INSERT INTO one VALUES (1499)").unwrap();
    let (rel, prof) = e
        .query_profiled("SELECT t.a FROM t INNER JOIN one ON t.a = one.k")
        .unwrap();
    assert_eq!(rel.rows, vec![vec![etypes::Value::Int(1499)]]);
    let join = prof.find("InnerJoin").unwrap();
    assert_eq!((join.rows, join.batches), (1, Some(1)));

    // Unmatched build rows of a right join follow the probe output.
    let (rel, prof) = e
        .query_profiled("SELECT one.k, d.tag FROM one RIGHT JOIN d ON one.k = d.k")
        .unwrap();
    assert_eq!(rel.rows.len(), 14);
    assert!(rel.rows.iter().all(|r| r[0].is_null()));
    let join = prof.find("RightJoin").unwrap();
    assert_eq!((join.rows, join.batches), (14, Some(1)));
}
