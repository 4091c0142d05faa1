//! End-to-end tests: a real server on a loopback socket, real clients on
//! real threads, results compared byte-for-byte against the embedded engine.

use elephant_server::{start, ClientError, ElephantClient, ServerConfig};
use mlinspect::SqlMode;
use sqlengine::{Engine, EngineProfile};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

/// The pipeline rows/seed every test (and its embedded reference) uses.
const ROWS: usize = 120;
const SEED: u64 = 7;

fn pipeline_files() -> Vec<(String, String)> {
    vec![
        ("patients.csv".into(), datagen::patients_csv(ROWS, SEED)),
        ("histories.csv".into(), datagen::histories_csv(ROWS, SEED)),
    ]
}

const HEALTHCARE_PIPELINE: &str = r#"
patients = pd.read_csv("patients.csv", na_values='?')
histories = pd.read_csv("histories.csv", na_values='?')
data = patients.merge(histories, on=['ssn'])
complications = data.groupby('age_group').agg(mean_complications=('complications', 'mean'))
data = data.merge(complications, on=['age_group'])
data['label'] = data['complications'] > 1.2 * data['mean_complications']
data = data[['smoker', 'last_name', 'county', 'num_children', 'race', 'income', 'label']]
data = data[data['county'].isin(['county2', 'county3'])]
"#;

/// Rows of `big`: more than two 1024-row chunks, each sealed with its own
/// text dictionary.
const BIG_ROWS: usize = 2_500;

/// The tables every query reads: small integers, one row per cell shape
/// the CSV encoder distinguishes (int, float, bool, text that needs
/// quoting, `''` beside NULL), and `big`.
fn setup() -> Vec<String> {
    let big: Vec<String> = (0..BIG_ROWS)
        .map(|id| match id % 7 {
            6 => format!("({id}, NULL)"),
            _ => format!("({id}, 'g{},{}')", id % 5, id % 3),
        })
        .collect();
    vec![
        "CREATE TABLE nums (a int, b int)".into(),
        "INSERT INTO nums VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)".into(),
        "CREATE TABLE shapes (i int, f float, b bool, s text)".into(),
        "INSERT INTO shapes VALUES (1, -1.5, true, 'a,b'), (2, 0.125, false, 'say \"hi\"'), \
         (3, 1e300, NULL, 'two\nlines'), (-4, -98765432109876543210.0, true, ''), \
         (NULL, NULL, false, NULL), (6, 0.001, NULL, 'cr\rhere')"
            .into(),
        "CREATE TABLE big (id int, tag text)".into(),
        format!("INSERT INTO big VALUES {}", big.join(", ")),
    ]
}

const QUERIES: &[&str] = &[
    "SELECT a, b FROM nums ORDER BY a",
    "SELECT count(*) AS n, sum(b) AS s FROM nums",
    "SELECT a, b FROM nums WHERE b >= 30 ORDER BY a DESC",
    "SELECT avg(b) AS m FROM nums WHERE a <> 3",
    // Every typed column kind, NULLs, and text that must be quoted.
    "SELECT i, f, b, s FROM shapes ORDER BY i",
    // Generic columns: arrays, and mixed float/text cells.
    "SELECT b, array_agg(i) AS ids FROM shapes GROUP BY b ORDER BY b",
    "SELECT CASE WHEN i > 2 THEN s ELSE f END AS m FROM shapes",
    // Zero rows under a header that needs quoting.
    "SELECT i AS \"a,b\" FROM shapes WHERE i > 100",
    // Three chunks, three dictionaries, more than 2048 rows.
    "SELECT id, tag FROM big",
    "SELECT tag, count(*) AS n FROM big GROUP BY tag ORDER BY tag",
    // The plan text as a one-column result.
    "EXPLAIN SELECT i FROM shapes WHERE i > 1",
];

/// What the embedded engine says each query should return, as CSV.
fn embedded_expectations() -> Vec<String> {
    let mut engine = Engine::new(EngineProfile::in_memory());
    for ddl in setup() {
        engine.execute(&ddl).unwrap();
    }
    QUERIES
        .iter()
        .map(|q| {
            let rel = engine.query(q).unwrap();
            etypes::csv::write_csv(&rel.columns, &rel.rows, ',')
        })
        .collect()
}

fn embedded_inspection() -> String {
    let mut engine = Engine::new(EngineProfile::in_memory());
    mlinspect::inspect_pipeline_in_sql(
        HEALTHCARE_PIPELINE,
        &pipeline_files(),
        &["age_group"],
        0.3,
        &mut engine,
        SqlMode::Cte,
        false,
    )
    .unwrap()
    .render()
}

/// Blank out `time_us=<digits>` values: inspection reports carry per-line
/// wall-clock timings, which never reproduce across runs. Row counts and
/// verdicts stay untouched, so comparisons remain strict about results.
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

fn stat(stats: &str, key: &str) -> f64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("missing '{key}' in stats:\n{stats}"))
        .parse()
        .unwrap()
}

#[test]
fn concurrent_clients_match_embedded_engine() {
    let expected = embedded_expectations();
    let expected_report = embedded_inspection();
    let handle = start(ServerConfig {
        files: pipeline_files(),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();

    let mut admin = ElephantClient::connect(addr).unwrap();
    let setup = setup();
    for ddl in &setup {
        admin.query_raw(ddl).unwrap();
    }

    // Four concurrent clients with distinct workloads.
    let mut workers = Vec::new();
    // 1) plain queries, every result byte-identical to the embedded engine
    {
        let expected = expected.clone();
        workers.push(thread::spawn(move || {
            let mut c = ElephantClient::connect(addr).unwrap();
            for round in 0..5 {
                for (q, want) in QUERIES.iter().zip(&expected) {
                    let got = c.query_raw(q).unwrap();
                    assert_eq!(&got, want, "round {round} query '{q}'");
                }
            }
        }));
    }
    // 2) prepared statements through the plan cache
    {
        let expected = expected.clone();
        workers.push(thread::spawn(move || {
            let mut c = ElephantClient::connect(addr).unwrap();
            c.prepare("q0", QUERIES[0]).unwrap();
            c.prepare("q1", QUERIES[1]).unwrap();
            for _ in 0..10 {
                assert_eq!(c.execute("q0").unwrap(), expected[0]);
                assert_eq!(c.execute("q1").unwrap(), expected[1]);
            }
        }));
    }
    // 3) EXPLAIN + queries interleaved
    {
        let expected = expected.clone();
        workers.push(thread::spawn(move || {
            let mut c = ElephantClient::connect(addr).unwrap();
            for _ in 0..5 {
                let plan = c.explain(QUERIES[0]).unwrap();
                assert!(!plan.trim().is_empty());
                assert_eq!(c.query_raw(QUERIES[2]).unwrap(), expected[2]);
            }
        }));
    }
    // 4) full pipeline inspection via the SQL backend
    {
        let expected_report = expected_report.clone();
        workers.push(thread::spawn(move || {
            let mut c = ElephantClient::connect(addr).unwrap();
            let report = c.inspect(&["age_group"], 0.3, HEALTHCARE_PIPELINE).unwrap();
            assert_eq!(strip_times(&report), strip_times(&expected_report));
            assert!(report.contains("inspection verdict="), "{report}");
            assert!(report.contains("line no="), "{report}");
        }));
    }
    for w in workers {
        w.join().unwrap();
    }

    let stats = admin.stats().unwrap();
    assert!(stat(&stats, "queries") >= (setup.len() + 25) as f64);
    assert!(stat(&stats, "executes") >= 20.0);
    assert!(stat(&stats, "inspects") >= 1.0);
    assert!(stat(&stats, "latency_count") > 0.0);
    assert!(stat(&stats, "sessions_opened") >= 5.0);

    assert_eq!(admin.shutdown().unwrap(), "draining");
    drop(admin);
    handle.join();
}

#[test]
fn trace_and_explain_analyze_over_the_wire() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();

    // An empty ring answers gracefully... well, almost empty: the TRACE
    // itself is recorded *after* it renders, so the first call sees nothing.
    assert_eq!(c.trace(None).unwrap(), "no spans recorded");

    c.query_raw("CREATE TABLE t (a int, b int)").unwrap();
    c.query_raw("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();

    // EXPLAIN ANALYZE executes and annotates every operator with its real
    // cardinality — 2 rows survive the filter, 1 comes out of the agg —
    // and its batch count.
    let analyzed = c
        .explain_analyze("SELECT count(*) AS n FROM t WHERE b >= 20")
        .unwrap();
    assert!(analyzed.contains("Aggregate"), "{analyzed}");
    assert!(analyzed.contains("(rows=1 batches=1 time="), "{analyzed}");
    assert!(analyzed.contains("Filter"), "{analyzed}");
    assert!(analyzed.contains("(rows=2 batches=1 time="), "{analyzed}");
    assert!(analyzed.contains("Execution: rows=1 time="), "{analyzed}");
    // Plain EXPLAIN still renders the unannotated plan.
    let plain = c
        .explain("SELECT count(*) AS n FROM t WHERE b >= 20")
        .unwrap();
    assert!(!plain.contains("rows="), "{plain}");

    // A failing statement is traced too, as ok=0.
    let _ = c.query_raw("SELECT nope FROM t");

    // TRACE returns recent spans newest-first with the wire span format.
    let spans = c.trace(Some(10)).unwrap();
    let lines: Vec<&str> = spans.lines().collect();
    assert!(lines.len() >= 5, "{spans}");
    assert!(lines.iter().all(|l| l.starts_with("span seq=")), "{spans}");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("name=EXPLAIN") && l.contains("detail=ANALYZE")),
        "{spans}"
    );
    assert!(
        lines
            .iter()
            .any(|l| l.contains("ok=0") && l.contains("nope")),
        "{spans}"
    );
    // Newest first: the failing query comes before the CREATE TABLE.
    let seqs: Vec<u64> = lines
        .iter()
        .map(|l| {
            l.strip_prefix("span seq=")
                .and_then(|r| r.split(' ').next())
                .unwrap()
                .parse()
                .unwrap()
        })
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] > w[1]), "{spans}");
    // TRACE 1 returns exactly one span.
    assert_eq!(c.trace(Some(1)).unwrap().lines().count(), 1);

    // STATS carries the new counters: per-phase engine histograms,
    // per-verb latency, the error split, and the span-ring gauges.
    let stats = c.stats().unwrap();
    assert!(stat(&stats, "phase_execute_count") >= 1.0, "{stats}");
    assert!(stat(&stats, "phase_parse_count") >= 3.0, "{stats}");
    assert!(stat(&stats, "latency_query_count") >= 3.0, "{stats}");
    assert!(stat(&stats, "latency_explain_count") >= 2.0, "{stats}");
    assert!(stat(&stats, "traces") >= 2.0, "{stats}");
    assert!(stat(&stats, "exec_errors") >= 1.0, "{stats}");
    assert_eq!(stat(&stats, "protocol_errors"), 0.0, "{stats}");
    assert!(stat(&stats, "trace_spans_recorded") >= 5.0, "{stats}");
    assert!(stat(&stats, "trace_spans_retained") >= 5.0, "{stats}");

    // `QUERY EXPLAIN ANALYZE ...` also works as plain SQL, returning the
    // annotated plan as a one-column relation.
    let via_query = c
        .query_raw("EXPLAIN ANALYZE SELECT count(*) AS n FROM t WHERE b >= 20")
        .unwrap();
    assert!(via_query.starts_with("QUERY PLAN\n"), "{via_query}");
    assert!(via_query.contains("(rows=2 batches=1 time="), "{via_query}");

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

#[test]
fn repeated_execute_hits_plan_cache() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    c.query_raw("CREATE TABLE t (a int)").unwrap();
    c.query_raw("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    c.prepare("q", "SELECT sum(a) AS s FROM t").unwrap();
    for _ in 0..6 {
        assert_eq!(c.execute("q").unwrap(), "s\n6\n");
    }
    let stats = c.stats().unwrap();
    assert!(
        stat(&stats, "plan_cache_hits") >= 5.0,
        "expected cache hits:\n{stats}"
    );
    assert!(stat(&stats, "plan_cache_hit_rate") > 0.0);
    assert!(stat(&stats, "prepared_statements") >= 1.0);
    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut a = ElephantClient::connect(addr).unwrap();
    let mut b = ElephantClient::connect(addr).unwrap();
    a.query_raw("CREATE TABLE t (a int)").unwrap();
    a.query_raw("INSERT INTO t VALUES (1), (2)").unwrap();

    // Work enqueued around the SHUTDOWN still gets answered: client `a`
    // races queries against client `b`'s shutdown.
    let racer = thread::spawn(move || {
        let mut last = String::new();
        for _ in 0..20 {
            match a.query_raw("SELECT count(*) AS n FROM t") {
                Ok(body) => last = body,
                // Once draining, new work is refused with a structured code.
                Err(ClientError::Server(e)) => {
                    assert_eq!(e.code, "ERR_DRAINING");
                    break;
                }
                Err(other) => panic!("transport error: {other}"),
            }
        }
        last
    });
    thread::sleep(Duration::from_millis(20));
    assert_eq!(b.shutdown().unwrap(), "draining");
    let last = racer.join().unwrap();
    // Every answered query was answered correctly — nothing half-dropped.
    assert_eq!(last, "n\n2\n");

    // STATS is still answered while draining.
    let stats = b.stats().unwrap();
    assert!(stat(&stats, "queries") >= 2.0);
    drop(b);
    handle.join();
}

#[test]
fn protocol_errors_keep_the_session_and_server_alive() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut c = ElephantClient::connect(addr).unwrap();

    // Unknown verb → structured error, connection still usable.
    match c.send("FROBNICATE now") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "ERR_UNKNOWN_VERB"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Malformed command → structured error.
    match c.send("PREPARE onlyaname") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "ERR_PARSE"),
        other => panic!("expected server error, got {other:?}"),
    }
    // SQL error → structured error.
    match c.query_raw("SELECT FROM WHERE") {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "ERR_EXEC"),
        other => panic!("expected server error, got {other:?}"),
    }
    // Same connection still serves work.
    assert_eq!(c.query_raw("SELECT 1 AS one").unwrap(), "one\n1\n");

    // Oversized frame → refused, drained, connection survives.
    let mut raw = TcpStream::connect(addr).unwrap();
    let n = elephant_server::MAX_FRAME + 1;
    writeln!(raw, "!{n}").unwrap();
    let junk = vec![b'x'; n];
    raw.write_all(&junk).unwrap();
    raw.write_all(b"\n").unwrap();
    raw.write_all(b"STATS\n").unwrap();
    raw.flush().unwrap();
    let mut response = String::new();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Read both responses: the oversized error and the STATS answer.
    let mut buf = [0u8; 4096];
    while !response.contains("commands_served") {
        let k = raw.read(&mut buf).unwrap();
        assert!(k > 0, "server hung up early: {response}");
        response.push_str(&String::from_utf8_lossy(&buf[..k]));
    }
    assert!(response.starts_with('-'), "{response}");
    assert!(response.contains("ERR_OVERSIZED"), "{response}");

    // Mid-frame disconnect: declare 10 bytes, send 3, hang up.
    let mut dead = TcpStream::connect(addr).unwrap();
    dead.write_all(b"!10\nabc").unwrap();
    drop(dead);
    // Disconnect right after a full command, without reading the reply.
    let mut ghost = TcpStream::connect(addr).unwrap();
    ghost.write_all(b"QUERY SELECT 1 AS one\n").unwrap();
    ghost.flush().unwrap();
    drop(ghost);
    thread::sleep(Duration::from_millis(50));

    // The server is still healthy after all of that.
    assert_eq!(c.query_raw("SELECT 2 AS two").unwrap(), "two\n2\n");
    c.shutdown().unwrap();
    drop(c);
    drop(raw);
    handle.join();
}

/// `INSPECT` stores every operator as a scratch relation while it runs and
/// drops them all before it answers — after a run that passed and after
/// one that failed mid-pipeline — so none is queryable afterwards, none
/// reaches the WAL, and a `CHECKPOINT` snapshots the user's tables only.
#[test]
fn inspect_leaves_no_relation_behind() {
    let dir = std::env::temp_dir().join(format!("elephant-inspect-scratch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = start(ServerConfig {
        files: pipeline_files(),
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    c.query_raw("CREATE TABLE t (a int)").unwrap();
    let wal_before = stat(&c.stats().unwrap(), "wal_records_appended");

    c.inspect(&["age_group"], 0.3, HEALTHCARE_PIPELINE).unwrap();
    // Loads `patients` (source line 1), then fails on the second read.
    let failing = "patients = pd.read_csv(\"patients.csv\", na_values='?')\n\
                   lost = pd.read_csv(\"not_registered.csv\", na_values='?')\n";
    match c.inspect(&["age_group"], 0.3, failing) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "ERR_INSPECT");
            assert!(e.message.contains("not_registered.csv"), "{e}");
        }
        other => panic!("expected ERR_INSPECT, got {other:?}"),
    }

    // Base tables and operator views of both runs (`<stem>_<line>_mlinid<n>`).
    for scratch in [
        "patients_2_mlinid0",
        "patients_2_mlinid0_ctid",
        "histories_3_mlinid1",
        "block_mlinid2_4",
        "patients_1_mlinid0",
        "patients_1_mlinid0_ctid",
    ] {
        match c.query_raw(&format!("SELECT count(*) AS n FROM {scratch}")) {
            Err(ClientError::Server(e)) => {
                assert!(e.message.contains("unknown relation"), "{scratch}: {e}")
            }
            other => panic!("{scratch} outlived its INSPECT: {other:?}"),
        }
    }
    assert_eq!(
        stat(&c.stats().unwrap(), "wal_records_appended"),
        wal_before,
        "INSPECT appended WAL records"
    );
    let reply = c.checkpoint().unwrap();
    assert!(reply.starts_with("checkpoint tables=1 "), "{reply}");

    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `INSPECT` reads registered files only: a path that exists on the
/// server's filesystem but was never registered answers like any other
/// unknown file, and nothing of it reaches the client.
#[test]
fn inspect_reads_no_unregistered_file() {
    let dir = std::env::temp_dir().join(format!("elephant-inspect-fs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let secret = dir.join("secret.csv");
    std::fs::write(&secret, "race,age_group\nr1,a\nr2,b\nr1,c\n").unwrap();
    let path = secret.to_str().unwrap();
    let handle = start(ServerConfig {
        files: pipeline_files(),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    let source = format!("data = pd.read_csv(\"{path}\")\n");
    match c.inspect(&["race"], 0.3, &source) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, "ERR_INSPECT");
            assert_eq!(
                e.message,
                format!("inspect pipeline reads unknown file '{path}'")
            );
        }
        other => panic!("expected ERR_INSPECT, got {other:?}"),
    }
    // The registered files still answer.
    c.inspect(&["age_group"], 0.3, HEALTHCARE_PIPELINE).unwrap();
    c.shutdown().unwrap();
    drop(c);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
