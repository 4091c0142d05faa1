//! Crash-recovery smoke test against the real `elephant-serve` binary:
//! load data, checkpoint, write past the checkpoint, `kill -9`, restart on
//! the same directory, and require every acknowledged write back — ctids,
//! serial counters, and the pipeline inspection report byte-identical.

mod support;

use elephant_server::ElephantClient;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use support::ServerChild;

/// Start the server binary durably on `dir` with `shards` engine shards.
/// Pipeline data is seeded deterministically so inspection reports are
/// comparable across incarnations.
fn serve(dir: &Path, shards: usize) -> ServerChild {
    let shards = shards.to_string();
    let args = [
        "--rows", "60", "--seed", "7", "--fsync", "always", "--shards", &shards,
    ];
    let server = ServerChild::spawn(dir, &args, None);
    // "elephant-serve listening on <addr> (... profile, durable storage); ..."
    let line = server.startup_line();
    assert!(line.contains("durable storage"), "{line}");
    server
}

fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("missing '{key}' in stats:\n{stats}"))
        .parse()
        .unwrap()
}

/// Blank out `time_us=<digits>` values — inspection reports now carry
/// per-line wall-clock timings, which never reproduce across incarnations.
/// Everything else (rows, verdicts, ctids) must still match byte-for-byte.
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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "elephant-recovery-smoke-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_nine_loses_no_acknowledged_writes() {
    // One shard, the two the benchmark runs on, and four: wherever the
    // router places `t`, STATS must report what recovery found.
    for shards in [1, 2, 4] {
        kill_nine_on(shards);
    }
}

fn kill_nine_on(shards: usize) {
    let dir = fresh_dir(&format!("kill9-{shards}"));

    // First incarnation: checkpointed rows AND a WAL tail past the
    // checkpoint, both acknowledged under fsync=always.
    let server = serve(&dir, shards);
    let mut c = ElephantClient::connect(server.addr()).unwrap();
    c.query_raw("CREATE TABLE t (id serial, a int)").unwrap();
    c.query_raw("INSERT INTO t (a) VALUES (10), (20), (30)")
        .unwrap();
    let ck = c.checkpoint().unwrap();
    assert!(ck.starts_with("checkpoint tables=1 rows=3"), "{ck}");
    c.query_raw("INSERT INTO t (a) VALUES (40), (50)").unwrap();
    let rows_before = c
        .query_raw("SELECT ctid, id, a FROM t ORDER BY id")
        .unwrap();
    let report_before = c.inspect(&["age_group"], 0.3, "@healthcare").unwrap();
    assert!(
        report_before.contains("inspection verdict="),
        "{report_before}"
    );
    server.kill_keep_data();

    // Second incarnation on the same directory: snapshot + WAL replay.
    let server = serve(&dir, shards);
    let mut c = ElephantClient::connect(server.addr()).unwrap();
    let rows_after = c
        .query_raw("SELECT ctid, id, a FROM t ORDER BY id")
        .unwrap();
    assert_eq!(rows_after, rows_before, "recovered rows (and ctids) differ");
    // The serial counter recovered too: numbering continues, not restarts.
    c.query_raw("INSERT INTO t (a) VALUES (60)").unwrap();
    assert_eq!(c.query_raw("SELECT max(id) AS m FROM t").unwrap(), "m\n6\n");
    // Inspection over recovered state is byte-identical.
    let report_after = c.inspect(&["age_group"], 0.3, "@healthcare").unwrap();
    assert_eq!(
        strip_times(&report_after),
        strip_times(&report_before),
        "inspection report changed"
    );
    // STATS reports what recovery found.
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "storage_durable"), 1, "{stats}");
    assert!(stat(&stats, "recovered_snapshot_tables") >= 1, "{stats}");
    assert!(stat(&stats, "recovered_wal_records") >= 1, "{stats}");
}

/// A test body that fails while it holds a server must not leak it: the
/// guard's drop runs during the unwind, kills and reaps the child and
/// removes its data directory.
#[test]
fn a_panicking_test_body_leaves_no_server_behind() {
    let dir = fresh_dir("guard");
    let pid = AtomicU32::new(0);
    let outcome = std::panic::catch_unwind(|| {
        let server = ServerChild::spawn(&dir, &["--no-data"], None);
        pid.store(server.pid(), Ordering::SeqCst);
        assert!(Path::new(&format!("/proc/{}", server.pid())).exists());
        panic!("the test body failed while the server was up");
    });
    assert!(outcome.is_err());
    let pid = pid.load(Ordering::SeqCst);
    assert_ne!(pid, 0, "the server never started");
    assert!(
        !Path::new(&format!("/proc/{pid}")).exists(),
        "elephant-serve {pid} outlived its guard"
    );
    assert!(!dir.exists(), "{} outlived its guard", dir.display());
}

#[test]
fn volatile_server_refuses_checkpoint_but_durable_flag_is_reported() {
    // No --data-dir: run in-process via the library for speed.
    let handle = elephant_server::start(elephant_server::ServerConfig::default()).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    match c.checkpoint() {
        Err(elephant_server::ClientError::Server(e)) => {
            assert_eq!(e.code, "ERR_EXEC");
            assert!(e.message.contains("--data-dir"), "{}", e.message);
        }
        other => panic!("expected checkpoint refusal, got {other:?}"),
    }
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "storage_durable"), 0, "{stats}");
    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

#[test]
fn inspect_unknown_pipeline_is_a_structured_error() {
    let handle = elephant_server::start(elephant_server::ServerConfig::default()).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    match c.inspect(&["age_group"], 0.3, "@definitely_not_a_pipeline") {
        Err(elephant_server::ClientError::Server(e)) => {
            assert_eq!(e.code, "ERR_INSPECT");
            assert!(
                e.message
                    .starts_with("inspect unknown-pipeline: 'definitely_not_a_pipeline'"),
                "{}",
                e.message
            );
            assert!(e.message.contains("healthcare"), "{}", e.message);
        }
        other => panic!("expected structured inspect error, got {other:?}"),
    }
    // The session survives the error.
    assert_eq!(c.query_raw("SELECT 1 AS one").unwrap(), "one\n1\n");
    c.shutdown().unwrap();
    drop(c);
    handle.join();
}
