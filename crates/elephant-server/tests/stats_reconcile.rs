//! STATS accounting reconciliation: drive one of every protocol verb over
//! the wire and prove `commands_served` equals the sum of the rendered
//! per-verb counters — no verb is double-counted, none falls through the
//! floor. The verb → counter map is an exhaustive `match` on [`Command`],
//! so adding a protocol verb refuses to compile until it is wired into a
//! counter and into this test.

use elephant_server::metrics::VERBS;
use elephant_server::{
    shard_of, start, ClientError, Command, ElephantClient, ServerConfig, TraceRequest,
};
use std::path::PathBuf;

/// The `STATS` key that must account for each verb. Exhaustive on purpose
/// — no wildcard arm, so a new [`Command`] variant breaks this build.
fn counter_key(cmd: &Command) -> &'static str {
    match cmd {
        Command::Query(_) => "queries",
        Command::Batch(_) => "batches",
        Command::Prepare { .. } => "prepares",
        Command::Execute { .. } => "executes",
        Command::Deallocate(_) => "other_commands",
        Command::Explain { .. } => "explains",
        Command::Trace(_) => "traces",
        Command::Inspect { .. } => "inspects",
        Command::Stats => "stats_calls",
        Command::Checkpoint => "checkpoints_served",
        Command::Shutdown => "other_commands",
    }
}

/// Every per-verb key `commands_served` is defined as the sum of: the
/// counter column of the server's own verb table.
fn per_verb_keys() -> impl Iterator<Item = &'static str> {
    VERBS.iter().map(|(_, key)| *key)
}

/// `command` names a prepared statement this session does not hold.
fn assert_unknown(c: &mut ElephantClient, command: &str) {
    match c.send(command).unwrap_err() {
        ClientError::Server(e) => assert_eq!(
            e.to_string(),
            "ERR_EXEC bind error: unknown prepared statement 'q'",
            "{command}"
        ),
        other => panic!("{command}: expected a server error, got {other}"),
    }
}

fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("missing '{key}' in stats:\n{stats}"))
        .parse()
        .unwrap()
}

#[test]
fn commands_served_reconciles_with_every_per_verb_counter() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("elephant-reconcile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(
        ServerConfig {
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        }
        .with_standard_pipeline_data(60, 7),
    )
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();

    // One of every verb (SHUTDOWN rides at teardown — its count lands
    // after the last STATS render, so it is exercised but not asserted).
    c.query_raw("CREATE TABLE t (a int)").unwrap();
    c.query_raw("INSERT INTO t VALUES (1), (2)").unwrap();
    c.query_raw("SELECT a FROM t ORDER BY a").unwrap();
    c.prepare("q", "SELECT sum(a) AS s FROM t").unwrap();
    c.execute("q").unwrap();
    // Parameterized prepared statement: `$1` binds at EXECUTE time.
    c.prepare("p1", "SELECT a FROM t WHERE a = $1").unwrap();
    assert_eq!(c.send("EXECUTE p1 (2)").unwrap(), "a\n2\n");
    // One BATCH frame carrying two statements: one batch command served,
    // two batch statements executed, bodies joined by the separator.
    assert_eq!(
        c.send("BATCH INSERT INTO t VALUES (3)\u{1e}SELECT count(*) AS n FROM t")
            .unwrap(),
        "ok 1\u{1e}n\n3\n"
    );
    c.send("DEALLOCATE q").unwrap();
    // Names this session does not hold: each an error reply its session
    // answers, counted like any other.
    assert_unknown(&mut c, "EXECUTE q");
    assert_unknown(&mut c, "DEALLOCATE q");
    c.send("EXPLAIN SELECT a FROM t WHERE a > 1").unwrap();
    c.send("TRACE 5").unwrap();
    c.inspect(&["age_group"], 0.3, "@healthcare").unwrap();
    c.checkpoint().unwrap();
    c.stats().unwrap();

    let body = c.stats().unwrap();
    // The render is one atomic-ish read of all counters; the STATS being
    // answered counts itself only after rendering, so the body is stable.
    let served = stat(&body, "commands_served");
    let sum: u64 = per_verb_keys().map(|k| stat(&body, k)).sum();
    assert_eq!(
        served, sum,
        "commands_served does not reconcile with the per-verb counters:\n{body}"
    );

    // Exact per-verb expectations: catches double counting and verbs
    // landing in the wrong bucket.
    for (key, want) in [
        ("queries", 3),
        ("batches", 1),
        ("prepares", 2),
        ("executes", 2),
        ("explains", 1),
        ("traces", 1),
        ("inspects", 1),
        ("checkpoints_served", 1),
        ("stats_calls", 1),    // the first STATS; the rendering one is in flight
        ("other_commands", 1), // DEALLOCATE
    ] {
        assert_eq!(stat(&body, key), want, "counter '{key}' off:\n{body}");
    }
    assert_eq!(served, 14);
    assert_eq!(stat(&body, "exec_errors"), 2, "{body}");

    // Protocol-v2 satellite counters. This session is a v1 text client, so
    // nothing was pipelined or streamed; the BATCH frame carried two
    // statements and `EXECUTE p1 (2)` bound one parameter.
    assert_eq!(stat(&body, "pipelined_frames"), 0, "{body}");
    assert_eq!(stat(&body, "batch_statements"), 2, "{body}");
    assert_eq!(stat(&body, "params_bound"), 1, "{body}");
    assert_eq!(stat(&body, "chunks_streamed"), 0, "{body}");
    assert_eq!(stat(&body, "result_buffer_bytes"), 0, "{body}");
    let _ = stat(&body, "result_buffer_peak_bytes");

    // Every statement, INSPECT's included, executed batches; the fallback
    // counter still renders, pinned at zero.
    assert!(stat(&body, "batches_executed") > 0, "{body}");
    assert_eq!(stat(&body, "colexec_fallbacks"), 0, "{body}");

    // Sharding counters render even on a default single-shard server, so
    // dashboards need no conditional parsing. This server is durable, so
    // the group-commit counters are live (one fsync may cover several
    // acknowledged writes); a single shard can never fall back, scatter,
    // or reject.
    assert_eq!(stat(&body, "shards"), 1);
    assert_eq!(stat(&body, "shard_fallbacks"), 0);
    assert_eq!(stat(&body, "shard_scatter_gather"), 0);
    assert_eq!(stat(&body, "cross_shard_rejects"), 0);
    let _ = stat(&body, "shard0.queue_depth");
    assert!(stat(&body, "shard0.commands") > 0, "{body}");
    assert!(body.contains("\nshard0.health "), "{body}");
    let _ = stat(&body, "shard0.wal_group_commits");
    let _ = stat(&body, "wal_group_commits");
    let _ = stat(&body, "wal_group_committed_records");
    assert!(body.contains("\nwal_commits_per_fsync "), "{body}");

    // Compile-time completeness: route a sample of every variant through
    // the exhaustive map and pin the bucket each one must land in.
    let samples = [
        (Command::Query("SELECT 1".into()), "queries"),
        (
            Command::Prepare {
                name: "q".into(),
                sql: "SELECT 1".into(),
            },
            "prepares",
        ),
        (
            Command::Execute {
                name: "q".into(),
                args: None,
            },
            "executes",
        ),
        (
            Command::Execute {
                name: "q".into(),
                args: Some("1, 'x'".into()),
            },
            "executes",
        ),
        (
            Command::Batch(vec!["SELECT 1".into(), "SELECT 2".into()]),
            "batches",
        ),
        (Command::Deallocate("q".into()), "other_commands"),
        (
            Command::Explain {
                sql: "SELECT 1".into(),
                analyze: false,
            },
            "explains",
        ),
        (Command::Trace(TraceRequest::Recent(5)), "traces"),
        (Command::Trace(TraceRequest::Tree(3)), "traces"),
        (
            Command::Inspect {
                columns: vec!["age_group".into()],
                threshold: 0.3,
                source: "@healthcare".into(),
            },
            "inspects",
        ),
        (Command::Stats, "stats_calls"),
        (Command::Checkpoint, "checkpoints_served"),
        (Command::Shutdown, "other_commands"),
    ];
    for (cmd, want) in &samples {
        assert_eq!(counter_key(cmd), *want, "verb {} mis-bucketed", cmd.verb());
    }

    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// On a multi-shard server, STATS grows one line group per shard plus the
/// router counters; a cross-shard write script commits via two-phase
/// commit (counting one QUERY and one `txn_commits`); a single statement
/// spanning shards is still refused with the typed `ERR_CROSS_SHARD`; and
/// the broadcast verb (`CHECKPOINT`) counts **once**, not once per shard,
/// so `commands_served` reconciles on a 4-shard server exactly as it does
/// on one shard.
#[test]
fn sharded_stats_reconcile_count_txns_and_rejects() {
    const SHARDS: usize = 4;
    let dir: PathBuf =
        std::env::temp_dir().join(format!("elephant-reconcile-shard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        shards: SHARDS,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();

    // Two tables the router provably places on different shards.
    let names: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
    let a = names[0].clone();
    let b = names
        .iter()
        .find(|n| shard_of(n, SHARDS) != shard_of(&a, SHARDS))
        .expect("32 names must hit at least two of four shards")
        .clone();

    c.query_raw(&format!("CREATE TABLE {a} (x int)")).unwrap();
    c.query_raw(&format!("CREATE TABLE {b} (x int)")).unwrap();
    c.query_raw(&format!("INSERT INTO {a} VALUES (1), (2)"))
        .unwrap();
    c.query_raw(&format!("INSERT INTO {b} VALUES (2), (10)"))
        .unwrap();

    // Cross-shard read-only query: served via scatter-gather.
    let body = c
        .query_raw(&format!(
            "SELECT count(*) AS n FROM {a} INNER JOIN {b} ON {a}.x = {b}.x"
        ))
        .unwrap();
    assert_eq!(body, "n\n1\n");

    // Cross-shard write script: splits per statement and commits via 2PC.
    // The ack is the last statement's, as on a one-shard server.
    assert_eq!(
        c.query_raw(&format!(
            "INSERT INTO {a} VALUES (7); INSERT INTO {b} VALUES (7)"
        ))
        .unwrap(),
        "ok 1"
    );
    assert_eq!(
        c.query_raw(&format!("SELECT count(*) AS n FROM {a}"))
            .unwrap(),
        "n\n3\n",
        "committed transaction must be visible on {a}'s shard"
    );
    assert_eq!(
        c.query_raw(&format!("SELECT count(*) AS n FROM {b}"))
            .unwrap(),
        "n\n3\n",
        "committed transaction must be visible on {b}'s shard"
    );
    assert!(
        dir.join("txn.log").exists(),
        "the coordinator must have written its decision log"
    );

    // A single statement whose dependencies span shards cannot be split:
    // typed refusal naming the owners, nothing executed.
    let err = c
        .query_raw(&format!(
            "CREATE VIEW vab AS SELECT {a}.x FROM {a} INNER JOIN {b} ON {a}.x = {b}.x"
        ))
        .unwrap_err();
    match err {
        ClientError::Server(e) => {
            assert_eq!(e.code, "ERR_CROSS_SHARD", "{e}");
            assert!(e.message.contains("per statement"), "{e}");
            assert!(e.message.contains("shard"), "{e}");
        }
        other => panic!("expected a server error, got {other}"),
    }
    assert_eq!(
        c.query_raw(&format!("SELECT count(*) AS n FROM {a}"))
            .unwrap(),
        "n\n3\n",
        "refused write must not have executed"
    );

    // A BATCH whose statements all resolve to one shard travels as one
    // job: one `batches` tick, two `batch_statements`.
    assert_eq!(
        c.send(&format!(
            "BATCH INSERT INTO {a} VALUES (20)\u{1e}SELECT count(*) AS n FROM {a}"
        ))
        .unwrap(),
        "ok 1\u{1e}n\n4\n"
    );
    // A BATCH spanning shards decomposes into per-statement QUERY routing:
    // two `queries` ticks, two more `batch_statements`, no `batches` tick.
    assert_eq!(
        c.send(&format!(
            "BATCH INSERT INTO {a} VALUES (21)\u{1e}INSERT INTO {b} VALUES (21)"
        ))
        .unwrap(),
        "ok 1\u{1e}ok 1"
    );

    // The broadcast verb fans out to every shard but counts once.
    c.checkpoint().unwrap();
    assert_unknown(&mut c, "EXECUTE q");
    assert_unknown(&mut c, "DEALLOCATE q");

    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "shards"), SHARDS as u64);
    assert_eq!(stat(&stats, "cross_shard_rejects"), 1, "{stats}");
    assert_eq!(stat(&stats, "txn_commits"), 1, "{stats}");
    assert_eq!(stat(&stats, "txn_aborts"), 0, "{stats}");
    assert!(stat(&stats, "shard_scatter_gather") >= 1, "{stats}");
    let _ = stat(&stats, "shard_fallbacks");
    for k in 0..SHARDS {
        let _ = stat(&stats, &format!("shard{k}.queue_depth"));
        let _ = stat(&stats, &format!("shard{k}.commands"));
        let _ = stat(&stats, &format!("shard{k}.wal_group_commits"));
        assert!(stats.contains(&format!("\nshard{k}.health ")), "{stats}");
    }

    // The satellite accounting identity, on four shards: 9 queries (the
    // 2PC transaction is ONE query; the reject counts nothing) plus the 2
    // legs of the cross-shard batch, one single-shard BATCH, one
    // CHECKPOINT — the broadcast counts once despite running on every shard.
    // The rendering STATS counts itself only after rendering.
    assert_eq!(stat(&stats, "queries"), 11, "{stats}");
    assert_eq!(stat(&stats, "batches"), 1, "{stats}");
    assert_eq!(stat(&stats, "batch_statements"), 4, "{stats}");
    assert_eq!(stat(&stats, "checkpoints_served"), 1, "{stats}");
    assert_eq!(stat(&stats, "stats_calls"), 0, "{stats}");
    let served = stat(&stats, "commands_served");
    let sum: u64 = per_verb_keys().map(|k| stat(&stats, k)).sum();
    assert_eq!(served, sum, "4-shard reconciliation broke:\n{stats}");
    assert_eq!(served, 13, "{stats}");
    assert_eq!(stat(&stats, "exec_errors"), 2, "{stats}");

    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
