//! End-to-end replication: a durable leader streaming to live follower
//! servers, checked for byte-identical reads (ctids included), read
//! routing, and bounded staleness.

use elephant_server::{start, ClientError, ElephantClient, ReplicatedClient, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("elephant-repl-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn leader_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        repl_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    }
    .with_standard_pipeline_data(60, 7)
}

fn follower_config(leader_repl: &str) -> ServerConfig {
    ServerConfig {
        replicate_from: Some(leader_repl.to_string()),
        ..ServerConfig::default()
    }
    .with_standard_pipeline_data(60, 7)
}

fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Wait until `follower` has applied everything the leader committed.
fn wait_caught_up(leader: &mut ElephantClient, follower: &mut ElephantClient) {
    let committed = ElephantClient::parse_watermark(&leader.lag().unwrap(), "committed_lsn")
        .expect("leader LAG carries committed_lsn");
    wait_until("follower catch-up", || {
        ElephantClient::parse_watermark(&follower.lag().unwrap(), "applied_lsn")
            .is_some_and(|applied| applied >= committed)
    });
}

/// Blank out `time_us=<digits>` values — wall-clock timings never
/// reproduce across servers; everything else must match exactly.
fn strip_times(report: &str) -> String {
    let mut out = String::with_capacity(report.len());
    let mut rest = report;
    while let Some(i) = rest.find("time_us=") {
        let after = i + "time_us=".len();
        out.push_str(&rest[..after]);
        out.push('_');
        rest = rest[after..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn followers_serve_byte_identical_queries_and_inspections() {
    let dir = tmp_dir("identical");
    let leader_handle = start(leader_config(&dir)).unwrap();
    let repl_addr = leader_handle.repl_addr().unwrap().to_string();
    let f1_handle = start(follower_config(&repl_addr)).unwrap();
    let f2_handle = start(follower_config(&repl_addr)).unwrap();

    let mut leader = ElephantClient::connect(leader_handle.local_addr()).unwrap();
    let mut f1 = ElephantClient::connect(f1_handle.local_addr()).unwrap();
    let mut f2 = ElephantClient::connect(f2_handle.local_addr()).unwrap();

    leader
        .query_raw("CREATE TABLE orders (id serial, item text, qty int)")
        .unwrap();
    leader
        .query_raw("INSERT INTO orders (item, qty) VALUES ('tusk', 2), ('trunk', 5)")
        .unwrap();
    leader
        .query_raw("INSERT INTO orders (item, qty) VALUES ('ear', 7)")
        .unwrap();
    wait_caught_up(&mut leader, &mut f1);
    wait_caught_up(&mut leader, &mut f2);

    // Rows — including the ctid virtual column, which pins physical row
    // identity — must be byte-identical on every replica.
    let probes = [
        "SELECT ctid, id, item, qty FROM orders ORDER BY id",
        "SELECT item, sum(qty) AS total FROM orders GROUP BY item ORDER BY item",
        "SELECT count(*) AS n FROM orders",
    ];
    for sql in probes {
        let want = leader.query_raw(sql).unwrap();
        assert_eq!(f1.query_raw(sql).unwrap(), want, "follower 1: {sql}");
        assert_eq!(f2.query_raw(sql).unwrap(), want, "follower 2: {sql}");
    }
    // Plans replicate too: the follower sees the same catalog.
    let explain = "EXPLAIN SELECT item FROM orders WHERE qty > 3";
    assert_eq!(
        f1.send(explain).unwrap(),
        leader.send(explain).unwrap(),
        "plans diverged"
    );
    // Inspection runs unlogged, so it works on the read-only follower and
    // reproduces the leader's report byte-for-byte (modulo wall-clock).
    let leader_report = leader.inspect(&["age_group"], 0.3, "@healthcare").unwrap();
    let follower_report = f1.inspect(&["age_group"], 0.3, "@healthcare").unwrap();
    assert_eq!(strip_times(&follower_report), strip_times(&leader_report));

    // Topology is observable from both ends.
    let replica = leader.replica().unwrap();
    assert!(replica.starts_with("role leader"), "{replica}");
    assert!(replica.contains("followers_connected 2"), "{replica}");
    let replica = f1.replica().unwrap();
    assert!(replica.starts_with("role follower"), "{replica}");
    assert!(
        replica.contains(&format!("leader {repl_addr}")),
        "{replica}"
    );
    let stats = f1.stats().unwrap();
    assert!(stats.contains("repl_role follower"), "{stats}");
    assert!(stats.contains("repl_connected 1"), "{stats}");
    let stats = leader.stats().unwrap();
    assert!(stats.contains("repl_role leader"), "{stats}");
    assert!(stats.contains("repl_followers_connected 2"), "{stats}");

    for (mut c, h) in [(f1, f1_handle), (f2, f2_handle)] {
        c.shutdown().unwrap();
        drop(c);
        h.join();
    }
    leader.shutdown().unwrap();
    drop(leader);
    leader_handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn follower_refuses_writes_with_read_only_for_its_whole_life() {
    let dir = tmp_dir("readonly");
    let leader_handle = start(leader_config(&dir)).unwrap();
    let repl_addr = leader_handle.repl_addr().unwrap().to_string();
    let f_handle = start(follower_config(&repl_addr)).unwrap();
    let mut leader = ElephantClient::connect(leader_handle.local_addr()).unwrap();
    let mut f = ElephantClient::connect(f_handle.local_addr()).unwrap();

    leader.query_raw("CREATE TABLE t (a int)").unwrap();
    leader.query_raw("INSERT INTO t VALUES (1)").unwrap();
    wait_caught_up(&mut leader, &mut f);

    match f.query_raw("INSERT INTO t VALUES (99)") {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "ERR_READ_ONLY", "{e}");
            assert!(e.message.contains("leader"), "{e}");
            assert!(!e.is_retryable());
        }
        other => panic!("follower accepted a write: {other:?}"),
    }
    // CHECKPOINT never re-arms a replica (there is no durable store to
    // re-arm into); the pin is for the process's whole life.
    assert!(f.checkpoint().is_err());
    match f.query_raw("CREATE TABLE sneaky (a int)") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "ERR_READ_ONLY", "{e}"),
        other => panic!("follower accepted DDL: {other:?}"),
    }
    // Reads and session-scoped prepared statements still serve.
    assert_eq!(f.query_raw("SELECT a FROM t").unwrap(), "a\n1\n");
    f.prepare("q", "SELECT a FROM t").unwrap();
    assert_eq!(f.execute("q").unwrap(), "a\n1\n");
    // The refused write never reached the leader.
    assert_eq!(
        leader.query_raw("SELECT count(*) AS n FROM t").unwrap(),
        "n\n1\n"
    );

    f.shutdown().unwrap();
    drop(f);
    f_handle.join();
    leader.shutdown().unwrap();
    drop(leader);
    leader_handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replicated_client_routes_reads_writes_and_bounds_staleness() {
    let dir = tmp_dir("routing");
    let leader_handle = start(leader_config(&dir)).unwrap();
    let repl_addr = leader_handle.repl_addr().unwrap().to_string();
    let f1_handle = start(follower_config(&repl_addr)).unwrap();
    let f2_handle = start(follower_config(&repl_addr)).unwrap();

    let followers = vec![
        f1_handle.local_addr().to_string(),
        f2_handle.local_addr().to_string(),
    ];
    let mut rc = ReplicatedClient::connect(
        &leader_handle.local_addr().to_string(),
        &followers,
        Duration::from_secs(3),
    )
    .unwrap();
    assert_eq!(rc.follower_count(), 2);

    rc.write("CREATE TABLE kv (k int, v text)").unwrap();
    rc.write("INSERT INTO kv VALUES (1, 'one'), (2, 'two')")
        .unwrap();

    // Bounded staleness: read-your-write through a follower by waiting on
    // the leader's committed LSN.
    let target = rc.leader_committed_lsn().unwrap();
    let rows = rc
        .read_at_lsn(
            "SELECT k, v FROM kv ORDER BY k",
            target,
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(rows, "k,v\n1,one\n2,two\n");

    // Plain reads promise no staleness bound and the read above waited for
    // one follower only: let both catch up before expecting exact counts.
    for h in [&f1_handle, &f2_handle] {
        let mut follower = ElephantClient::connect(h.local_addr()).unwrap();
        wait_caught_up(rc.leader(), &mut follower);
    }
    // Plain reads round-robin across followers and never touch the leader:
    // the leader's QUERY counter must not move.
    let leader_queries_before = {
        let stats = rc.leader().stats().unwrap();
        ElephantClient::parse_watermark(&stats, "queries").unwrap()
    };
    for _ in 0..4 {
        assert_eq!(rc.read("SELECT count(*) AS n FROM kv").unwrap(), "n\n2\n");
    }
    let stats = rc.leader().stats().unwrap();
    assert_eq!(
        ElephantClient::parse_watermark(&stats, "queries").unwrap(),
        leader_queries_before,
        "round-robin reads leaked to the leader:\n{stats}"
    );
    // Both followers saw traffic.
    for h in [&f1_handle, &f2_handle] {
        let mut c = ElephantClient::connect(h.local_addr()).unwrap();
        let stats = c.stats().unwrap();
        assert!(
            ElephantClient::parse_watermark(&stats, "queries").unwrap() >= 2,
            "follower idle despite round-robin:\n{stats}"
        );
    }

    // A write sent down the read path bounces off the follower with
    // ERR_READ_ONLY and lands on the leader transparently.
    assert_eq!(
        rc.read("INSERT INTO kv VALUES (3, 'three')").unwrap(),
        "ok 1"
    );
    let target = rc.leader_committed_lsn().unwrap();
    let rows = rc
        .read_at_lsn(
            "SELECT count(*) AS n FROM kv",
            target,
            Duration::from_secs(10),
        )
        .unwrap();
    assert_eq!(rows, "n\n3\n", "redirected write not visible");

    for h in [f1_handle, f2_handle] {
        let mut c = ElephantClient::connect(h.local_addr()).unwrap();
        c.shutdown().unwrap();
        drop(c);
        h.join();
    }
    rc.leader().shutdown().unwrap();
    drop(rc);
    leader_handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connect_with_timeout_connects_and_fails_fast() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut c =
        ElephantClient::connect_with_timeout(handle.local_addr(), Duration::from_secs(3)).unwrap();
    assert_eq!(c.query_raw("SELECT 1 AS one").unwrap(), "one\n1\n");

    // A dead port errors instead of hanging; bound the whole attempt.
    let started = Instant::now();
    let dead = ElephantClient::connect_with_timeout("127.0.0.1:9", Duration::from_millis(500));
    assert!(dead.is_err(), "nothing listens on the discard port");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "connect_with_timeout did not bound the attempt"
    );

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

#[test]
fn leader_without_data_dir_is_refused_and_so_are_hybrids() {
    fn start_err(config: ServerConfig) -> String {
        match start(config) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("invalid replication config was accepted"),
        }
    }
    let err = start_err(ServerConfig {
        repl_addr: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    });
    assert!(err.contains("--data-dir"), "{err}");

    let dir = tmp_dir("hybrid");
    let err = start_err(ServerConfig {
        data_dir: Some(dir.clone()),
        replicate_from: Some("127.0.0.1:1".into()),
        ..ServerConfig::default()
    });
    assert!(err.contains("volatile"), "{err}");

    let err = start_err(ServerConfig {
        repl_addr: Some("127.0.0.1:0".into()),
        replicate_from: Some("127.0.0.1:1".into()),
        ..ServerConfig::default()
    });
    assert!(err.contains("not both"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
