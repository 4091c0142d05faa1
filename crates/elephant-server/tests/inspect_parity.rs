//! `INSPECT` parity across execution engines: every stock pipeline must
//! produce a byte-identical inspection report whether the session runs on
//! the row engine or the vectorized columnar engine — same verdicts, same
//! per-operator bias numbers, same row cardinalities. Only the `time_us=`
//! values may differ, so they are normalized before comparison.

use elephant_server::{start, ElephantClient, ServerConfig};
use mlinspect::SqlMode;
use sqlengine::{Engine, EngineProfile};

/// The four stock pipelines as the benchmark inspects them, each with the
/// report the commit *before* single-pass inspection served for
/// `--rows 300 --seed 11` (`time_us=` blanked). The benchmark's oracle only
/// compares a report with the same run's first, so these fixtures are what
/// ties today's reports to that commit's.
const GOLDEN: [(&str, &[&str], &str); 4] = [
    (
        "healthcare",
        &["race", "age_group"],
        include_str!("fixtures/healthcare.report"),
    ),
    (
        "compas",
        &["race", "sex"],
        include_str!("fixtures/compas.report"),
    ),
    (
        "adult simple",
        &["race", "sex"],
        include_str!("fixtures/adult_simple.report"),
    ),
    (
        "adult complex",
        &["race", "sex"],
        include_str!("fixtures/adult_complex.report"),
    ),
];

fn golden_config() -> ServerConfig {
    ServerConfig::default().with_standard_pipeline_data(300, 11)
}

/// Replace every `time_us=<digits>` with `time_us=_`; timings are the one
/// legitimately nondeterministic part of a report.
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

fn stat(stats: &str, key: &str) -> u64 {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("missing '{key}' in stats:\n{stats}"))
        .parse()
        .unwrap()
}

#[test]
fn stock_pipelines_report_identically_under_columnar_execution() {
    let handle = start(ServerConfig::default().with_standard_pipeline_data(90, 11)).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();

    let pipelines: [(&str, &[&str]); 4] = [
        ("@healthcare", &["race", "age_group"]),
        ("@compas", &["race", "sex"]),
        ("@adult simple", &["race", "sex"]),
        ("@adult complex", &["race", "sex"]),
    ];

    // Row engine first, then the same session switched to columnar; the
    // engine is shared, so reports must match run-to-run.
    assert_eq!(c.send("SET exec_mode row").unwrap(), "set exec_mode row");
    let mut row_reports = Vec::new();
    for (pipeline, columns) in &pipelines {
        let report = c.inspect(columns, 0.3, pipeline).unwrap();
        assert!(report.contains("inspection verdict="), "{report}");
        row_reports.push(report);
    }
    let batches_before = stat(&c.stats().unwrap(), "batches_executed");

    assert_eq!(
        c.send("SET exec_mode columnar").unwrap(),
        "set exec_mode columnar"
    );
    for ((pipeline, columns), row_report) in pipelines.iter().zip(&row_reports) {
        let col_report = c.inspect(columns, 0.3, pipeline).unwrap();
        assert_eq!(
            strip_times(&col_report),
            strip_times(row_report),
            "inspection diverged under columnar execution: {pipeline}"
        );
    }

    // The columnar pass really was vectorized: the engine counted batches.
    let stats = c.stats().unwrap();
    assert!(stats.contains("exec_mode columnar"), "{stats}");
    assert!(
        stat(&stats, "batches_executed") > batches_before,
        "columnar INSPECT executed no batches:\n{stats}"
    );

    // Auto mode must agree too (it picks per plan, bridging nothing).
    assert_eq!(c.send("SET exec_mode auto").unwrap(), "set exec_mode auto");
    let (pipeline, columns) = &pipelines[0];
    let auto_report = c.inspect(columns, 0.3, pipeline).unwrap();
    assert_eq!(strip_times(&auto_report), strip_times(&row_reports[0]));

    // Unknown variables and bad values are structured parse errors and do
    // not disturb the session's current mode.
    let err = c.send("SET exec_mode sideways").unwrap_err();
    assert!(err.to_string().contains("exec_mode"), "{err}");
    let err = c.send("SET jit on").unwrap_err();
    assert!(
        err.to_string().contains("unknown session variable"),
        "{err}"
    );
    assert!(c.stats().unwrap().contains("exec_mode auto"));

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

/// A fresh session starts from the server default, not from another
/// session's `SET`.
#[test]
fn set_exec_mode_is_session_scoped() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut a = ElephantClient::connect(handle.local_addr()).unwrap();
    let mut b = ElephantClient::connect(handle.local_addr()).unwrap();

    a.query_raw("CREATE TABLE t (x int)").unwrap();
    a.query_raw("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    a.send("SET exec_mode columnar").unwrap();
    assert!(a.stats().unwrap().contains("exec_mode columnar"));
    // Session b still reports the server default.
    assert!(b.stats().unwrap().contains("exec_mode auto"));
    assert_eq!(b.query_raw("SELECT sum(x) AS s FROM t").unwrap(), "s\n6\n");
    assert_eq!(a.query_raw("SELECT sum(x) AS s FROM t").unwrap(), "s\n6\n");

    a.shutdown().unwrap();
    drop(a);
    drop(b);
    handle.join();
}

/// A default server serves analytics from the vectorized engine: grouping
/// and an equi-join execute batches without ever bridging, and a plan with
/// an unvectorized operator runs on the row engine outright.
#[test]
fn default_server_runs_vectorized_plans_columnar_and_never_bridges() {
    let handle = start(ServerConfig::default()).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    c.query_raw("CREATE TABLE f (g int, a int)").unwrap();
    c.query_raw("INSERT INTO f VALUES (0, 1), (1, 2), (0, 3), (NULL, 4)")
        .unwrap();
    c.query_raw("CREATE TABLE d (g int, label text)").unwrap();
    c.query_raw("INSERT INTO d VALUES (0, 'zero'), (1, 'one')")
        .unwrap();
    let counters = |c: &mut ElephantClient| {
        let stats = c.stats().unwrap();
        (
            stat(&stats, "batches_executed"),
            stat(&stats, "colexec_fallbacks"),
        )
    };

    let (before, _) = counters(&mut c);
    assert_eq!(
        c.query_raw("SELECT g, count(*) AS n, sum(a) AS s FROM f GROUP BY g ORDER BY g")
            .unwrap(),
        "g,n,s\n0,2,4\n1,1,2\n,1,4\n"
    );
    let (after_group, fallbacks) = counters(&mut c);
    assert!(after_group > before, "GROUP BY executed no batches");
    assert_eq!(fallbacks, 0);
    assert_eq!(
        c.query_raw(
            "SELECT d.label, sum(f.a) AS s FROM f INNER JOIN d ON f.g = d.g \
             GROUP BY d.label ORDER BY d.label"
        )
        .unwrap(),
        "label,s\none,2\nzero,4\n"
    );
    let (after_join, fallbacks) = counters(&mut c);
    assert!(after_join > after_group, "equi-join executed no batches");
    assert_eq!(fallbacks, 0);

    // Auto never bridges: a window or an unnest anywhere in the plan sends
    // the whole plan to the row engine.
    assert_eq!(
        c.query_raw("SELECT a, row_number() OVER (ORDER BY a) AS rn FROM f ORDER BY a LIMIT 2")
            .unwrap(),
        "a,rn\n1,1\n2,2\n"
    );
    assert_eq!(
        c.query_raw("SELECT unnest(ids) AS u FROM (SELECT array_agg(a) AS ids FROM f) AS x")
            .unwrap(),
        "u\n1\n2\n3\n4\n"
    );
    assert_eq!(counters(&mut c), (after_join, 0));

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

/// Served reports equal the golden fixtures under every execution mode, the
/// default included, and a second INSPECT on the same session equals the
/// first: nothing one run leaves behind reaches the next.
#[test]
fn served_reports_match_the_golden_fixtures() {
    let handle = start(golden_config()).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    assert!(c.stats().unwrap().contains("exec_mode auto"));
    for exec_mode in ["auto", "row", "columnar"] {
        c.send(&format!("SET exec_mode {exec_mode}")).unwrap();
        for pass in 0..2 {
            for (pipeline, columns, golden) in GOLDEN {
                let report = c.inspect(columns, 0.3, &format!("@{pipeline}")).unwrap();
                assert_eq!(
                    strip_times(&report),
                    *golden,
                    "{pipeline} under {exec_mode}, pass {pass}"
                );
            }
        }
    }
    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

/// The embedded entry point answers the same report in every SQL mode the
/// backend has, on both engine profiles.
#[test]
fn embedded_reports_match_the_golden_fixtures_in_every_sql_mode() {
    let files = golden_config().files;
    let stock = mlinspect::pipelines::all();
    for (profile_name, profile) in [
        ("in_memory", EngineProfile::in_memory()),
        (
            "disk_based_no_latency",
            EngineProfile::disk_based_no_latency(),
        ),
    ] {
        for (mode, materialize) in [
            (SqlMode::Cte, false),
            (SqlMode::View, false),
            (SqlMode::View, true),
        ] {
            let mut engine = Engine::new(profile.clone());
            for (pipeline, columns, golden) in GOLDEN {
                let source = stock.iter().find(|(n, _)| *n == pipeline).unwrap().1;
                let report = mlinspect::inspect_pipeline_in_sql(
                    source,
                    &files,
                    columns,
                    0.3,
                    &mut engine,
                    mode,
                    materialize,
                )
                .unwrap()
                .render();
                assert_eq!(
                    strip_times(&report),
                    *golden,
                    "{pipeline} in {mode:?}/materialize={materialize} on {profile_name}"
                );
            }
        }
    }
}
