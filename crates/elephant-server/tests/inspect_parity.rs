//! `INSPECT` parity: every stock pipeline must produce a byte-identical
//! inspection report run after run, served or embedded, in every SQL mode
//! and against the golden fixtures — same verdicts, same per-operator bias
//! numbers, same row cardinalities — while every statement it runs
//! executes batches on the one vectorized executor. Only the `time_us=`
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

    // Two passes on one session over one engine: reports must match run to
    // run, and every statement runs on the executor — batches grow and
    // nothing falls back.
    let batches_before = stat(&c.stats().unwrap(), "batches_executed");
    let mut first_reports = Vec::new();
    for (pipeline, columns) in &pipelines {
        let report = c.inspect(columns, 0.3, pipeline).unwrap();
        assert!(report.contains("inspection verdict="), "{report}");
        first_reports.push(report);
    }
    let stats = c.stats().unwrap();
    assert!(
        stat(&stats, "batches_executed") > batches_before,
        "INSPECT executed no batches:\n{stats}"
    );
    assert_eq!(stat(&stats, "colexec_fallbacks"), 0, "{stats}");
    for ((pipeline, columns), first) in pipelines.iter().zip(&first_reports) {
        let again = c.inspect(columns, 0.3, pipeline).unwrap();
        assert_eq!(
            strip_times(&again),
            strip_times(first),
            "inspection diverged run to run: {pipeline}"
        );
    }

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

/// A default server serves every plan from the vectorized engine: grouping,
/// an equi-join, a window and an unnest all execute batches, and nothing
/// ever bridges to the row engine.
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

    // Window and unnest execute batches.
    assert_eq!(
        c.query_raw("SELECT a, row_number() OVER (ORDER BY a) AS rn FROM f ORDER BY a LIMIT 2")
            .unwrap(),
        "a,rn\n1,1\n2,2\n"
    );
    let (after_window, fallbacks) = counters(&mut c);
    assert!(after_window > after_join, "window executed no batches");
    assert_eq!(fallbacks, 0);
    assert_eq!(
        c.query_raw("SELECT unnest(ids) AS u FROM (SELECT array_agg(a) AS ids FROM f) AS x")
            .unwrap(),
        "u\n1\n2\n3\n4\n"
    );
    let (after_unnest, fallbacks) = counters(&mut c);
    assert!(after_unnest > after_window, "unnest executed no batches");
    assert_eq!(fallbacks, 0);

    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

/// Served reports equal the golden fixtures, and a second INSPECT on the
/// same session equals the first: nothing one run leaves behind reaches
/// the next. The second pass issues the first's statement texts again and
/// runs every one from a cached plan.
#[test]
fn served_reports_match_the_golden_fixtures() {
    let handle = start(golden_config()).unwrap();
    let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
    let mut cache = Vec::new();
    for pass in 0..2 {
        for (pipeline, columns, golden) in GOLDEN {
            let report = c.inspect(columns, 0.3, &format!("@{pipeline}")).unwrap();
            assert_eq!(strip_times(&report), *golden, "{pipeline}, pass {pass}");
        }
        let stats = c.stats().unwrap();
        cache.push((
            stat(&stats, "plan_cache_hits"),
            stat(&stats, "plan_cache_misses"),
        ));
    }
    assert_eq!(cache[1].1, cache[0].1, "pass 1 planned nothing: {cache:?}");
    assert!(cache[1].0 > cache[0].0, "pass 1 hit the cache: {cache:?}");
    c.shutdown().unwrap();
    drop(c);
    handle.join();
}

/// The embedded entry point answers the same report in every SQL mode the
/// backend has, on both engine profiles, cold and warm: the second pass
/// over one engine runs every statement from a cached plan.
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
            let mut cache = Vec::new();
            for pass in 0..2 {
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
                        "{pipeline} in {mode:?}/materialize={materialize} on {profile_name}, \
                         pass {pass}"
                    );
                }
                cache.push(engine.plan_cache_stats());
            }
            let case = format!("{mode:?}/materialize={materialize} on {profile_name}");
            assert_eq!(cache[1].misses, cache[0].misses, "{case}: {cache:?}");
            assert!(cache[1].hits > cache[0].hits, "{case}: {cache:?}");
        }
    }
}

/// A warm engine holds the plans of the stock healthcare pipeline. The
/// same pipeline with one projected column removed issues the same
/// scratch view names over other columns, so the warm engine must find
/// the plans that read them stale: its report equals a cold engine's byte
/// for byte.
#[test]
fn a_changed_pipeline_on_a_warm_engine_reports_as_on_a_cold_one() {
    let files = golden_config().files;
    let stock = mlinspect::pipelines::HEALTHCARE;
    let changed = stock.replace("'smoker', 'last_name', 'county'", "'smoker', 'county'");
    assert_ne!(changed, stock);
    let columns = ["race", "age_group"];
    let views = |source: &str| {
        let mut inspector = mlinspect::PipelineInspector::on_pipeline(source);
        for (path, content) in &files {
            inspector = inspector.with_file(path, content);
        }
        let sql = inspector.transpile_only(SqlMode::View).unwrap();
        sql.container.entries().to_vec()
    };
    let (before, after) = (views(stock), views(&changed));
    let names = |v: &[mlinspect::sqlgen::ContainerEntry]| -> Vec<String> {
        v.iter().map(|e| e.name.clone()).collect()
    };
    assert_eq!(names(&before), names(&after), "the same scratch view names");
    assert!(
        before.iter().zip(&after).any(|(b, a)| b.body != a.body),
        "over other columns"
    );
    let inspect = |engine: &mut Engine, source: &str, mode, materialize| {
        let report = mlinspect::inspect_pipeline_in_sql(
            source,
            &files,
            &columns,
            0.3,
            engine,
            mode,
            materialize,
        )
        .unwrap()
        .render();
        strip_times(&report)
    };
    for (mode, materialize) in [
        (SqlMode::Cte, false),
        (SqlMode::View, false),
        (SqlMode::View, true),
    ] {
        let case = format!("{mode:?}/materialize={materialize}");
        let mut warm = Engine::new(EngineProfile::in_memory());
        assert_eq!(inspect(&mut warm, stock, mode, materialize), GOLDEN[0].2);
        let stale_before = warm.plan_cache_stats().invalidations;
        let report = inspect(&mut warm, &changed, mode, materialize);
        let cold = inspect(
            &mut Engine::new(EngineProfile::in_memory()),
            &changed,
            mode,
            materialize,
        );
        assert_eq!(report, cold, "{case}");
        if mode == SqlMode::View {
            let stale = warm.plan_cache_stats().invalidations - stale_before;
            assert!(stale > 0, "{case}: the view plans were found stale");
        }
        // And the stock pipeline reports as before on the same engine.
        assert_eq!(inspect(&mut warm, stock, mode, materialize), GOLDEN[0].2);
    }
}
