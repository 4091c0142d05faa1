//! Prepared statements are session state: a name lives in the session that
//! prepared it, dies with it, and is answered in the client's own words when
//! it is unknown. Every test runs on one and on two shards; the envelope
//! tests run over v1 and v2.

use elephant_server::{
    shard_of, start, ClientError, ElephantClient, PipelineClient, ServerConfig, ServerHandle,
};
use std::time::{Duration, Instant};

const UNKNOWN_Q: &str = "ERR_EXEC bind error: unknown prepared statement 'q'";

fn server(shards: usize) -> ServerHandle {
    start(ServerConfig {
        shards,
        ..ServerConfig::default()
    })
    .unwrap()
}

/// A reply as the wire shows it: the body, or `<code> <message>`.
fn shown(reply: Result<String, ClientError>) -> String {
    match reply {
        Ok(body) => body,
        Err(ClientError::Server(e)) => e.to_string(),
        Err(e) => panic!("transport failure: {e}"),
    }
}

fn stat(stats: &str, key: &str) -> Option<u64> {
    stats
        .lines()
        .find_map(|line| line.strip_prefix(&format!("{key} ")))
        .map(|v| v.parse().unwrap())
}

/// Two table names the router places on different shards (the same shard
/// on one).
fn two_tables(shards: usize) -> (String, String) {
    let names: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
    let a = names[0].clone();
    let b = names
        .iter()
        .skip(1)
        .find(|n| shards == 1 || shard_of(n, shards) != shard_of(&a, shards))
        .unwrap()
        .clone();
    (a, b)
}

/// One v2 pipeline's replies, shown.
fn pipeline(v2: &mut PipelineClient, commands: &[&str]) -> Vec<String> {
    let replies = v2.pipeline(commands).unwrap();
    replies
        .into_iter()
        .map(|r| shown(r.map_err(ClientError::Server)))
        .collect()
}

#[test]
fn an_unknown_name_is_answered_with_the_clients_own_name() {
    for shards in [1, 2] {
        let handle = server(shards);
        let addr = handle.local_addr();
        let mut owner = ElephantClient::connect(addr).unwrap();
        owner.query_raw("CREATE TABLE t (a int)").unwrap();
        owner.send("PREPARE q AS SELECT a FROM t").unwrap();

        // Another session never prepared `q`, whatever the envelope.
        let mut v1 = ElephantClient::connect(addr).unwrap();
        for command in ["EXECUTE q", "EXECUTE q (1)", "DEALLOCATE q"] {
            assert_eq!(
                shown(v1.send(command)),
                UNKNOWN_Q,
                "shards={shards} v1 {command}"
            );
        }
        let mut v2 = PipelineClient::connect(addr).unwrap();
        let replies = pipeline(&mut v2, &["EXECUTE q", "EXECUTE q (1)", "DEALLOCATE q"]);
        assert_eq!(replies, vec![UNKNOWN_Q; 3], "shards={shards} v2");

        // The owner's `q` is untouched, and gone once deallocated.
        assert_eq!(shown(owner.send("EXECUTE q")), "a\n", "shards={shards}");
        assert_eq!(shown(owner.send("DEALLOCATE q")), "deallocated q");
        for command in ["EXECUTE q", "DEALLOCATE q"] {
            assert_eq!(
                shown(owner.send(command)),
                UNKNOWN_Q,
                "shards={shards} {command}"
            );
        }

        // Eight unknown names, answered by the sessions: errors, never
        // served.
        let stats = owner.stats().unwrap();
        assert_eq!(stat(&stats, "exec_errors"), Some(8), "{stats}");
        assert_eq!(stat(&stats, "executes"), Some(1), "{stats}");
        assert_eq!(stat(&stats, "other_commands"), Some(1), "{stats}");
        owner.shutdown().unwrap();
        drop((owner, v1, v2));
        handle.join();
    }
}

#[test]
fn a_failed_prepare_keeps_the_old_statement_and_a_second_replaces_it() {
    for shards in [1, 2] {
        let handle = server(shards);
        let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
        let (a, b) = two_tables(shards);
        for sql in [
            format!("CREATE TABLE {a} (x int)"),
            format!("CREATE TABLE {b} (x int)"),
            format!("INSERT INTO {a} VALUES (1), (2)"),
            format!("INSERT INTO {b} VALUES (10)"),
        ] {
            c.query_raw(&sql).unwrap();
        }
        let prepare = |sql: &str| format!("PREPARE q AS {sql}");
        let first = prepare(&format!("SELECT x FROM {a} ORDER BY x"));
        assert_eq!(shown(c.send(&first)), "prepared q");
        // The failed PREPARE is answered at PREPARE time and leaves `q`.
        assert_eq!(
            shown(c.send(&prepare("SELECT x FROM nowhere"))),
            "ERR_EXEC bind error: unknown relation 'nowhere'"
        );
        if shards > 1 {
            let join = format!("SELECT {a}.x FROM {a} INNER JOIN {b} ON {a}.x = {b}.x");
            let refused = shown(c.send(&prepare(&join)));
            assert!(refused.starts_with("ERR_CROSS_SHARD "), "{refused}");
        }
        assert_eq!(shown(c.send("EXECUTE q")), "x\n1\n2\n", "shards={shards}");
        // A second PREPARE of the name replaces the first, on its own shard.
        let second = prepare(&format!("SELECT count(*) AS n FROM {b}"));
        assert_eq!(shown(c.send(&second)), "prepared q");
        assert_eq!(shown(c.send("EXECUTE q")), "n\n1\n", "shards={shards}");
        let stats = c.stats().unwrap();
        assert_eq!(stat(&stats, "prepared_statements"), Some(1), "{stats}");
        assert_eq!(stat(&stats, "prepares"), Some(2), "{stats}");
        c.shutdown().unwrap();
        drop(c);
        handle.join();
    }
}

#[test]
fn prepare_settles_the_window_before_the_executes_behind_it() {
    for shards in [1, 2] {
        let handle = server(shards);
        let mut v2 = PipelineClient::connect(handle.local_addr()).unwrap();
        v2.send("QUERY CREATE TABLE q (a int, b text)").unwrap();
        v2.send("QUERY INSERT INTO q VALUES (1, 'one'), (2, 'two'), (3, 'three')")
            .unwrap();
        // One window: every frame is written before the first reply is read.
        let replies = pipeline(
            &mut v2,
            &[
                "PREPARE p AS SELECT b FROM q WHERE a = $1",
                "EXECUTE p (1)",
                "EXECUTE p (3)",
                "PREPARE p AS SELECT a FROM q WHERE b = $1",
                "EXECUTE p ('two')",
                "PREPARE bad AS SELECT nope FROM q",
                "EXECUTE bad",
                "DEALLOCATE p",
                "EXECUTE p ('two')",
                "QUERY SELECT count(*) AS n FROM q",
            ],
        );
        let want = [
            "prepared p",
            "b\none\n",
            "b\nthree\n",
            "prepared p",
            "a\n2\n",
            "ERR_EXEC bind error: unknown column nope",
            "ERR_EXEC bind error: unknown prepared statement 'bad'",
            "deallocated p",
            "ERR_EXEC bind error: unknown prepared statement 'p'",
            "n\n3\n",
        ];
        assert_eq!(replies, want, "shards={shards}");
        v2.send("SHUTDOWN").unwrap();
        drop(v2);
        handle.join();
    }
}

/// Poll `STATS` until `prepared_statements` reads `want`; the last body
/// when it never does within the deadline.
fn await_prepared(observer: &mut ElephantClient, want: u64) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = observer.stats().unwrap();
        if stat(&stats, "prepared_statements") == Some(want) {
            return Ok(stats);
        }
        if Instant::now() > deadline {
            return Err(stats);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_disconnect_drops_the_sessions_prepared_statements() {
    for shards in [1, 2] {
        let handle = server(shards);
        let addr = handle.local_addr();
        let mut observer = ElephantClient::connect(addr).unwrap();
        let (a, b) = two_tables(shards);
        observer
            .query_raw(&format!("CREATE TABLE {a} (x int)"))
            .unwrap();
        observer
            .query_raw(&format!("CREATE TABLE {b} (x int)"))
            .unwrap();
        let mut leaving = ElephantClient::connect(addr).unwrap();
        leaving.prepare("p", &format!("SELECT x FROM {a}")).unwrap();
        leaving.prepare("q", &format!("SELECT x FROM {b}")).unwrap();
        // Re-preparing a held name does not count it twice.
        leaving.prepare("q", &format!("SELECT x FROM {a}")).unwrap();
        let mut staying = PipelineClient::connect(addr).unwrap();
        staying
            .send(&format!("PREPARE q AS SELECT x FROM {b}"))
            .unwrap();

        let stats = await_prepared(&mut observer, 3).unwrap();
        // One server-scoped gauge: no per-shard lines.
        assert!(!stats.contains(".prepared_statements "), "{stats}");
        drop(leaving);
        let after = await_prepared(&mut observer, 1);
        assert!(after.is_ok(), "shards={shards}:\n{}", after.unwrap_err());
        assert_eq!(shown(staying.send("EXECUTE q")), "x\n");
        drop(staying);
        await_prepared(&mut observer, 0).unwrap();
        observer.shutdown().unwrap();
        drop(observer);
        handle.join();
    }
}
