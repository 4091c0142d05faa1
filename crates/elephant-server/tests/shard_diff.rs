//! Differential routing test: a seeded workload must behave **byte-for-
//! byte** identically on a single-shard server and on a four-shard server —
//! same CSV bodies, same error codes, same error text. Sharding is a
//! performance topology, not a semantics change; any divergence here is a
//! router bug (mis-routed statement, scatter-gather merge error, or an
//! error message that leaks the topology).
//!
//! The corpus is `sqlengine::fuzz` (the same generator the row-vs-columnar
//! differential uses) with the tables renamed so that at four shards they
//! provably land on *different* shards — every join in the corpus then
//! exercises scatter-gather on the sharded server.

use elephant_server::{shard_of, start, ClientError, ElephantClient, ServerConfig};
use etypes::Prng;
use sqlengine::fuzz;

const SHARDS: usize = 4;
const QUERIES: usize = 120;

/// Collapse a client result into comparable text: Ok body, or
/// `code`/`message` for server errors. Transport errors fail the test.
fn outcome(result: Result<String, ClientError>) -> Result<String, (String, String)> {
    match result {
        Ok(body) => Ok(body),
        Err(ClientError::Server(e)) => Err((e.code, e.message)),
        Err(ClientError::Io(e)) => panic!("transport error mid-differential: {e}"),
    }
}

#[test]
fn sharded_and_single_shard_servers_agree_byte_for_byte() {
    // Rename the corpus tables to names the router places on different
    // shards at four shards, so joins must scatter-gather.
    let names: Vec<String> = (0..32).map(|i| format!("dt{i}")).collect();
    let ta = names[0].clone();
    let tb = names
        .iter()
        .find(|n| shard_of(n, SHARDS) != shard_of(&ta, SHARDS))
        .expect("32 names must hit at least two of four shards")
        .clone();
    assert_ne!(shard_of(&ta, SHARDS), shard_of(&tb, SHARDS));
    let rename = |sql: &str| sql.replace("t1", &ta).replace("t2", &tb);

    // One statement list, generated once, sent verbatim to both servers.
    let mut rng = Prng::new(0xD1FF);
    let mut statements: Vec<String> = fuzz::seed_statements(&mut rng)
        .iter()
        .map(|s| rename(s))
        .collect();
    for _ in 0..QUERIES {
        statements.push(rename(&fuzz::gen_query(&mut rng)));
    }
    // Deliberate failures: error text must match too, including the
    // binder's unknown-table message and parse errors.
    statements.push("SELECT x FROM no_such_table".to_string());
    statements.push(format!("SELECT nope FROM {ta}"));
    statements.push("SELEC 1".to_string());
    statements.push(rename(
        "SELECT t1.a FROM t1 INNER JOIN t2 ON t1.a = t2.k WHERE t2.no_col = 1",
    ));
    // Cross-shard write scripts, last: they change the tables the queries
    // above read. An apostrophe inside a `--` comment must not hide the
    // later `;`s from the statement split, and a transaction acks with its
    // last statement's count, exactly like a one-shard script.
    statements.push(rename(
        "INSERT INTO t1 VALUES (100, 1, 1.0, NULL); -- t1's row\n\
         INSERT INTO t2 VALUES (100, 1, NULL); INSERT INTO t1 VALUES (101, 2, 2.0, NULL)",
    ));
    statements.push(rename(
        "INSERT INTO t1 VALUES (102, 3, 3.0, NULL); INSERT INTO t2 VALUES (102, 3, NULL)",
    ));
    statements.push(rename("SELECT a FROM t1 WHERE a >= 100 ORDER BY a"));
    statements.push(rename("SELECT k FROM t2 WHERE k >= 100 ORDER BY k"));

    let single = start(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let sharded = start(ServerConfig {
        shards: SHARDS,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c1 = ElephantClient::connect(single.local_addr()).unwrap();
    let mut cn = ElephantClient::connect(sharded.local_addr()).unwrap();

    for (i, sql) in statements.iter().enumerate() {
        let a = outcome(c1.query_raw(sql));
        let b = outcome(cn.query_raw(sql));
        assert_eq!(
            a, b,
            "divergence at statement {i}:\n  {sql}\n  1 shard:  {a:?}\n  {SHARDS} shards: {b:?}"
        );
    }

    // The corpus joins span two shards, so the sharded server must have
    // actually exercised the scatter-gather path (not fallen back).
    let stats = cn.stats().unwrap();
    let scatter: u64 = stats
        .lines()
        .find_map(|l| l.strip_prefix("shard_scatter_gather "))
        .expect("shard_scatter_gather missing from STATS")
        .parse()
        .unwrap();
    assert!(scatter > 0, "no scatter-gather reads happened:\n{stats}");

    c1.shutdown().unwrap();
    cn.shutdown().unwrap();
    drop((c1, cn));
    single.join();
    sharded.join();
}

/// The one known divergence, pinned exactly: the router registers a
/// script's new names only once the whole script is acknowledged. A script
/// that creates a table off shard 0 and then fails leaves the table on its
/// shard but unregistered, so a later read routes to shard 0 and answers
/// unknown-table where a one-shard server answers the empty table.
#[test]
fn a_failed_script_leaves_its_new_table_unroutable() {
    let dx = (0..32)
        .map(|i| format!("dx{i}"))
        .find(|n| shard_of(n, SHARDS) != 0)
        .expect("32 names must leave shard 0");
    let single = start(ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let sharded = start(ServerConfig {
        shards: SHARDS,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c1 = ElephantClient::connect(single.local_addr()).unwrap();
    let mut cn = ElephantClient::connect(sharded.local_addr()).unwrap();

    let script = format!("CREATE TABLE {dx} (a int); SELECT 1/0");
    let failed = Err((
        "ERR_EXEC".to_string(),
        "execution error: division by zero".to_string(),
    ));
    assert_eq!(outcome(c1.query_raw(&script)), failed);
    assert_eq!(outcome(cn.query_raw(&script)), failed);

    let read = format!("SELECT a FROM {dx}");
    assert_eq!(outcome(c1.query_raw(&read)), Ok("a\n".to_string()));
    let unknown = format!("bind error: unknown relation '{dx}'");
    assert_eq!(
        outcome(cn.query_raw(&read)),
        Err(("ERR_EXEC".to_string(), unknown))
    );

    c1.shutdown().unwrap();
    cn.shutdown().unwrap();
    drop((c1, cn));
    single.join();
    sharded.join();
}
