//! Distributed-transaction acceptance: a cross-shard write script on a
//! 4-shard durable server commits atomically via two-phase commit, leaves
//! ONE correlated span tree (`prepare` → `decision` → `commit`), survives a
//! restart, aborts without a trace when any statement fails, and is never
//! observed half-applied by a concurrent scatter-gather read (the
//! consistent cut).

use elephant_server::{shard_of, start, ElephantClient, ServerConfig};
use std::collections::BTreeSet;
use std::path::PathBuf;

const SHARDS: usize = 4;

/// Extract `<key>=<value>` from a rendered span line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("missing '{key}=' in span line: {line}"))
}

/// Two table names the router provably places on different shards.
fn split_pair() -> (String, String) {
    let names: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
    let a = names[0].clone();
    let b = names
        .iter()
        .find(|n| shard_of(n, SHARDS) != shard_of(&a, SHARDS))
        .expect("32 names must hit at least two of four shards")
        .clone();
    (a, b)
}

fn count(c: &mut ElephantClient, table: &str) -> u64 {
    c.query_raw(&format!("SELECT count(*) AS n FROM {table}"))
        .unwrap()
        .lines()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap()
}

/// A committed cross-shard transaction is atomic, traced as one tree with
/// txn-prepare/txn-decision/txn-commit spans, and durable across a restart.
#[test]
fn cross_shard_txn_commits_atomically_traced_and_durable() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("elephant-txn-2pc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        shards: SHARDS,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    let (a, b) = split_pair();

    c.query_raw(&format!("CREATE TABLE {a} (x int)")).unwrap();
    c.query_raw(&format!("CREATE TABLE {b} (x int)")).unwrap();
    assert_eq!(
        c.query_raw(&format!(
            "INSERT INTO {a} VALUES (1); INSERT INTO {b} VALUES (1)"
        ))
        .unwrap(),
        "ok 1",
        "a transaction acks like a one-shard script: the last statement's count"
    );
    assert_eq!(count(&mut c, &a), 1);
    assert_eq!(count(&mut c, &b), 1);

    // --- The transaction's span tree --------------------------------------
    // The script root is the only root whose summary contains a ';'.
    let listing = c.trace(Some(16)).unwrap();
    let root = listing
        .lines()
        .find(|l| l.contains("kind=command") && l.contains(";"))
        .unwrap_or_else(|| panic!("no 2PC root in listing:\n{listing}"));
    let qid: u64 = field(root, "qid")
        .strip_prefix('q')
        .unwrap()
        .parse()
        .unwrap();
    let tree = c.trace_tree(qid).unwrap();
    let lines: Vec<&str> = tree.lines().filter(|l| l.contains("span seq=")).collect();
    for kind in [
        "command",
        "router",
        "txn-prepare",
        "txn-decision",
        "txn-commit",
    ] {
        assert!(
            lines.iter().any(|l| field(l, "kind") == kind),
            "missing kind={kind} in 2PC tree:\n{tree}"
        );
    }
    // Every span correlates to this one query id.
    for line in &lines {
        assert_eq!(field(line, "qid"), format!("q{qid}"), "{tree}");
    }
    // The route span carries the transaction id and the consistent-cut
    // vector; prepares ran on two distinct shards (that is what makes the
    // trace distributed).
    let route = lines.iter().find(|l| field(l, "kind") == "router").unwrap();
    assert!(route.contains("2pc txn="), "{tree}");
    assert!(route.contains("cut=["), "{tree}");
    let prepare_shards: BTreeSet<&str> = lines
        .iter()
        .filter(|l| field(l, "kind") == "txn-prepare")
        .map(|l| field(l, "shard"))
        .collect();
    assert_eq!(prepare_shards.len(), 2, "{tree}");
    let commit_shards: BTreeSet<&str> = lines
        .iter()
        .filter(|l| field(l, "kind") == "txn-commit")
        .map(|l| field(l, "shard"))
        .collect();
    assert_eq!(commit_shards, prepare_shards, "{tree}");

    // --- Durability across restart ----------------------------------------
    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let handle = start(ServerConfig {
        shards: SHARDS,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    assert_eq!(count(&mut c, &a), 1, "committed txn lost on {a}'s shard");
    assert_eq!(count(&mut c, &b), 1, "committed txn lost on {b}'s shard");
    // A second transaction after recovery: the txn-id allocator must have
    // reseeded past the recovered decision log.
    assert_eq!(
        c.query_raw(&format!(
            "INSERT INTO {a} VALUES (2); INSERT INTO {b} VALUES (2)"
        ))
        .unwrap(),
        "ok 1"
    );
    assert_eq!(count(&mut c, &a), 2);
    assert_eq!(count(&mut c, &b), 2);
    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// When any statement of the script fails to prepare, the whole transaction
/// aborts: no shard keeps any of its effects, and the abort is counted.
#[test]
fn failed_prepare_aborts_on_every_shard() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("elephant-txn-abort-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        shards: SHARDS,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    let (a, b) = split_pair();
    c.query_raw(&format!("CREATE TABLE {a} (x int)")).unwrap();
    c.query_raw(&format!("CREATE TABLE {b} (x int)")).unwrap();
    c.query_raw(&format!("INSERT INTO {a} VALUES (1)")).unwrap();

    // A name hashed to b's shard that does not exist: the DROP parses and
    // routes, then fails at execution — after {a}'s shard already prepared
    // its INSERT. The prepared leg must unwind.
    let missing = (0..64)
        .map(|i| format!("missing{i}"))
        .find(|n| shard_of(n, SHARDS) == shard_of(&b, SHARDS))
        .unwrap();
    let err = c
        .query_raw(&format!(
            "INSERT INTO {a} VALUES (99); DROP TABLE {missing}"
        ))
        .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains(&missing), "{msg}");
    assert_eq!(count(&mut c, &a), 1, "aborted txn leaked rows into {a}");

    let stats = c.stats().unwrap();
    assert!(stats.contains("\ntxn_aborts 1"), "{stats}");
    assert!(stats.contains("\ntxn_commits 0"), "{stats}");

    // The unwind is durable too: nothing resurfaces after a restart.
    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let handle = start(ServerConfig {
        shards: SHARDS,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    assert_eq!(count(&mut c, &a), 1, "aborted txn resurfaced on {a}");
    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The consistent read cut: while one session streams cross-shard
/// transactions that insert one row into each of two tables, concurrent
/// scatter-gather reads must always observe the SAME number of rows in
/// both — a cross join's cardinality `n_a * n_b` is a perfect square iff
/// `n_a == n_b`.
#[test]
fn scatter_gather_reads_observe_transactions_all_or_none() {
    let handle = start(ServerConfig {
        shards: SHARDS,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let mut c = ElephantClient::connect(addr).unwrap();
    let (a, b) = split_pair();
    c.query_raw(&format!("CREATE TABLE {a} (x int)")).unwrap();
    c.query_raw(&format!("CREATE TABLE {b} (x int)")).unwrap();

    const TXNS: u64 = 40;
    let writer = {
        let (a, b) = (a.clone(), b.clone());
        std::thread::spawn(move || {
            let mut w = ElephantClient::connect(addr).unwrap();
            for k in 1..=TXNS {
                let reply = w
                    .query_raw(&format!(
                        "INSERT INTO {a} VALUES ({k}); INSERT INTO {b} VALUES ({k})"
                    ))
                    .unwrap();
                assert_eq!(reply, "ok 1");
            }
        })
    };

    // Race the writer with cross-shard reads; every observation must be a
    // perfect square. Without the transaction gate this fails within a few
    // iterations (the read exports {a} before a txn and {b} after it).
    let mut nonzero = 0u64;
    loop {
        let n: u64 = c
            .query_raw(&format!("SELECT count(*) AS n FROM {a} CROSS JOIN {b}"))
            .unwrap()
            .lines()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let root = (n as f64).sqrt().round() as u64;
        assert_eq!(
            root * root,
            n,
            "scatter-gather observed a half-applied transaction: |{a}|*|{b}| = {n}"
        );
        if n > 0 {
            nonzero += 1;
        }
        if n == TXNS * TXNS {
            break;
        }
    }
    writer.join().unwrap();
    assert!(nonzero > 0, "reader never overlapped the writer");
    assert_eq!(count(&mut c, &a), TXNS);
    assert_eq!(count(&mut c, &b), TXNS);

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}
