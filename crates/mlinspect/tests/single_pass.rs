//! The serving path (`SqlMode::View` with materialization) runs every
//! pipeline operator once and leaves nothing behind: pinned by engine
//! counters and catalog contents, not by timers.

use mlinspect::{inspect_pipeline_in_sql, pipelines, SqlMode};
use sqlengine::{Engine, EngineProfile, FsyncPolicy};

const ROWS: usize = 1_000;

fn healthcare_files() -> Vec<(String, String)> {
    vec![
        ("patients.csv".to_string(), datagen::patients_csv(ROWS, 1)),
        ("histories.csv".to_string(), datagen::histories_csv(ROWS, 1)),
    ]
}

fn inspect(
    engine: &mut Engine,
    source: &str,
    files: &[(String, String)],
    mode: SqlMode,
    materialize: bool,
) -> mlinspect::Result<()> {
    inspect_pipeline_in_sql(
        source,
        files,
        &["race", "age_group"],
        0.3,
        engine,
        mode,
        materialize,
    )
    .map(|_report| ())
}

fn assert_catalog_empty(engine: &Engine, when: &str) {
    assert!(
        engine.catalog().table_names().is_empty(),
        "{when}: tables left behind: {:?}",
        engine.catalog().table_names()
    );
    assert!(
        engine.catalog().view_names().is_empty(),
        "{when}: views left behind: {:?}",
        engine.catalog().view_names()
    );
}

/// A return to re-running the operator chain once per inspection query
/// fails this count: stored intermediates process ≈ 50 rows per input row,
/// the `WITH`-prefix-per-query form ≈ 300.
#[test]
fn serving_path_processes_each_operator_once() {
    let mut engine = Engine::new(EngineProfile::in_memory());
    let files = healthcare_files();
    inspect(
        &mut engine,
        pipelines::HEALTHCARE,
        &files,
        SqlMode::View,
        true,
    )
    .unwrap();
    let processed = engine.stats().rows_processed;
    assert!(
        processed <= 60 * ROWS as u64,
        "healthcare INSPECT at {ROWS} rows processed {processed} engine rows (> 60 per input row)"
    );
}

#[test]
fn no_scratch_relation_survives_a_run_in_any_mode() {
    let files = healthcare_files();
    for (mode, materialize) in [
        (SqlMode::Cte, false),
        (SqlMode::View, false),
        (SqlMode::View, true),
    ] {
        let mut engine = Engine::new(EngineProfile::in_memory());
        inspect(
            &mut engine,
            pipelines::HEALTHCARE,
            &files,
            mode,
            materialize,
        )
        .unwrap();
        assert_catalog_empty(&engine, &format!("{mode:?}/{materialize} after Ok"));

        // Fails mid-pipeline: `patients` is loaded and wrapped in its view,
        // then `histories.csv` is not registered.
        let err = inspect(
            &mut engine,
            pipelines::HEALTHCARE,
            &files[..1],
            mode,
            materialize,
        )
        .unwrap_err();
        assert!(err.to_string().contains("histories.csv"), "{err}");
        assert_catalog_empty(&engine, &format!("{mode:?}/{materialize} after Err"));
    }
}

/// The scratch tables are "deliberately not durable": an unlogged INSPECT
/// followed by a checkpoint and a reopen must bring back the user's table
/// and nothing else.
#[test]
fn scratch_tables_never_reach_a_snapshot() {
    let dir = std::env::temp_dir().join(format!("mlinspect-single-pass-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut engine =
            Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Always).unwrap();
        engine.execute("CREATE TABLE t (a int)").unwrap();
        let appended = |e: &Engine| e.storage_stats().unwrap().wal.records_appended;
        let before = appended(&engine);
        engine.set_unlogged(true);
        inspect(
            &mut engine,
            pipelines::HEALTHCARE,
            &healthcare_files(),
            SqlMode::View,
            true,
        )
        .unwrap();
        engine.set_unlogged(false);
        assert_eq!(appended(&engine), before, "INSPECT appended WAL records");
        engine.checkpoint().unwrap().expect("durable engine");
    }
    let engine =
        Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Always).unwrap();
    assert_eq!(engine.catalog().table_names(), vec!["t"]);
    let _ = std::fs::remove_dir_all(&dir);
}
