//! Columnar-execution observability: exact `EXPLAIN ANALYZE` cardinalities
//! (rows *and* batches) under both engine personalities, for every
//! operator, and the engine's batch counter.

use sqlengine::{Engine, EngineProfile};

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

/// Exact per-operator rows and batches.
fn batches_are_exact(profile: EngineProfile) {
    let mut e = seed(profile);
    let sql = "SELECT a * 2 AS d FROM t WHERE a < 10";

    let (_, prof) = e.query_profiled(sql).unwrap();
    let scan = prof.find("Scan Table t").unwrap();
    assert_eq!(scan.rows, N as u64);
    assert_eq!(scan.batches, 2, "1500 rows = 2 batches of <=1024");
    let filter = prof.find("Filter").unwrap();
    assert_eq!(filter.rows, 10);
    // Every survivor sits in the first input batch; the second batch
    // filters to nothing and is dropped, not emitted empty.
    assert_eq!(filter.batches, 1);
    let project = prof.find("Project").unwrap();
    assert_eq!(project.rows, 10);
    assert_eq!(project.batches, 1);
    let rendered = prof.render();
    assert!(
        rendered.contains(&format!("Scan Table t cols=1 (rows={N} batches=2 time=")),
        "{rendered}"
    );
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
    let (rel, prof) = fenced.query_profiled(sql).unwrap();
    assert_eq!(rel.rows[0][0], etypes::Value::Int(1200));
    let cte = prof.find("CTE 0 [c] (materialized)").unwrap();
    assert_eq!(cte.rows, 1200);
    assert_eq!(cte.batches, 2, "1200 CTE rows = 2 batches");
    let scan_cte = prof.find("Scan CTE 0").unwrap();
    assert_eq!(scan_cte.rows, 1200);
    assert_eq!(scan_cte.batches, 2);

    let mut inlined = seed(EngineProfile::in_memory());
    let (rel, prof) = inlined.query_profiled(sql).unwrap();
    assert_eq!(rel.rows[0][0], etypes::Value::Int(1200));
    assert!(
        prof.find("CTE 0").is_none(),
        "inlined personality fences no CTE"
    );
    let scan = prof.find("Scan Table t").unwrap();
    assert_eq!(scan.rows, N as u64);
    assert_eq!(scan.batches, 2);
}

/// The operators the paper's inspection runs — a `ROW_NUMBER()` window,
/// `unnest`, a cross join, a scalar subquery — execute batches like every
/// other: each node reports its exact rows and batches, and the engine's
/// batch counter grows by exactly the batches the nodes report, so nothing
/// ran outside the executor.
#[test]
fn every_operator_reports_batches() {
    let mut e = seed(EngineProfile::in_memory());
    e.execute("CREATE TABLE s (k int)").unwrap();
    e.execute("INSERT INTO s VALUES (1), (2), (3)").unwrap();
    let cases = [
        (
            "SELECT rn FROM (SELECT a, ROW_NUMBER() OVER (ORDER BY b DESC) AS rn FROM t) AS w \
             WHERE rn <= 5",
            "WindowRowNumber [1 keys]",
            (N as u64, 2),
        ),
        (
            "SELECT unnest(ids) AS id FROM (SELECT b, array_agg(ctid) AS ids FROM t GROUP BY b) AS g",
            "Unnest col#0",
            // One batch of seven lists expands to one batch of every ctid.
            (N as u64, 1),
        ),
        (
            "SELECT t.a, s.k FROM t CROSS JOIN s",
            "CrossJoin on []",
            // 4500 pairs in blocks of at most 1024: 3 + 2 blocks for the
            // 1024- and 476-row probe batches.
            (3 * N as u64, 5),
        ),
        (
            "SELECT a FROM t WHERE a > (SELECT max(k) FROM s) * 400",
            "Filter",
            (N as u64 - 1201, 1),
        ),
    ];
    for (sql, label, (rows, batches)) in cases {
        let before = e.stats().batches_executed;
        let (_, prof) = e.query_profiled(sql).unwrap();
        let rendered = prof.render();
        let op = prof
            .find(label)
            .unwrap_or_else(|| panic!("{label} missing:\n{rendered}"));
        assert_eq!((op.rows, op.batches), (rows, batches), "{sql}");
        let mut reported = 0;
        for op in &prof.ops {
            let batches = op.batches;
            assert!(batches > 0, "{sql}: {} ran no batches", op.label);
            let line = format!("{} (rows={} batches={batches} ", op.label, op.rows);
            assert!(rendered.contains(&line), "{line}\n{rendered}");
            // An InitPlan head repeats its subplan's root line.
            if !op.label.starts_with("InitPlan") {
                reported += batches;
            }
        }
        assert_eq!(e.stats().batches_executed - before, reported, "{sql}");
    }
}

/// The hash join streams its probe side: each probe batch emits one output
/// batch, however many build rows its keys match, and a probe batch without
/// a match emits none.
#[test]
fn join_emits_one_batch_per_probe_batch() {
    let mut e = seed(EngineProfile::in_memory());
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
        join.batches, 2,
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
    assert_eq!((join.rows, join.batches), (1, 1));

    // Unmatched build rows of a right join follow the probe output.
    let (rel, prof) = e
        .query_profiled("SELECT one.k, d.tag FROM one RIGHT JOIN d ON one.k = d.k")
        .unwrap();
    assert_eq!(rel.rows.len(), 14);
    assert!(rel.rows.iter().all(|r| r[0].is_null()));
    let join = prof.find("RightJoin").unwrap();
    assert_eq!((join.rows, join.batches), (14, 1));
}
