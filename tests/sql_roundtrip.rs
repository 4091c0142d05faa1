//! The generated SQL must stand on its own: every transpiled script parses
//! and executes on a fresh engine, outside the backend that produced it —
//! the paper's claim that the query "is always in an executable state".

use blue_elephants::datagen;
use blue_elephants::mlinspect::{pipelines, PipelineInspector, SqlMode};
use blue_elephants::sqlengine::{Engine, EngineProfile};
use etypes::CsvOptions;

struct Fixture {
    files: Vec<(&'static str, String)>,
}

fn fixture() -> Fixture {
    Fixture {
        files: vec![
            ("patients.csv", datagen::patients_csv(120, 5)),
            ("histories.csv", datagen::histories_csv(120, 5)),
            ("compas_train.csv", datagen::compas_csv(200, 6)),
            ("compas_test.csv", datagen::compas_csv(80, 7)),
            ("adult_train.csv", datagen::adult_csv(250, 8)),
            ("adult_test.csv", datagen::adult_csv(100, 9)),
        ],
    }
}

fn transpile(src: &str, mode: SqlMode) -> blue_elephants::mlinspect::backends::sql::TranspiledSql {
    let mut inspector = PipelineInspector::on_pipeline(src);
    for (name, content) in fixture().files {
        inspector = inspector.with_file(name, content);
    }
    inspector.transpile_only(mode).unwrap()
}

/// Load the fixture data into a fresh engine using the generated DDL
/// (executing the CREATE TABLE statements, then bulk-loading the CSV the
/// COPY statement refers to).
fn load_setup(engine: &mut Engine, t: &blue_elephants::mlinspect::backends::sql::TranspiledSql) {
    let f = fixture();
    for setup in &t.setup {
        engine.execute_script(&setup.create).unwrap();
        // The COPY statement names the original file; find its content.
        let file = f
            .files
            .iter()
            .find(|(name, _)| setup.copy.contains(name))
            .map(|(_, content)| content.clone())
            .expect("fixture file for COPY");
        let na = setup.copy.contains("NULL '?'");
        let mut opts = CsvOptions::default();
        if na {
            opts = opts.with_na("?");
        }
        engine
            .copy_from_str(&setup.table, None, &file, &opts)
            .unwrap();
    }
}

#[test]
fn cte_script_executes_on_a_fresh_engine() {
    for (name, src) in pipelines::all() {
        let t = transpile(src, SqlMode::Cte);
        let mut engine = Engine::new(EngineProfile::disk_based_no_latency());
        load_setup(&mut engine, &t);
        // Every prefix of the container is an executable query (paper §4).
        for entry in t.container.entries() {
            let q = t.container.query(
                SqlMode::Cte,
                &format!("SELECT count(*) AS n FROM {}", entry.name),
            );
            let rel = engine
                .query(&q)
                .unwrap_or_else(|e| panic!("{name} / {}: {e}", entry.name));
            assert_eq!(rel.columns, vec!["n"]);
        }
    }
}

#[test]
fn view_script_executes_on_a_fresh_engine() {
    for (name, src) in pipelines::all() {
        let t = transpile(src, SqlMode::View);
        let mut engine = Engine::new(EngineProfile::disk_based_no_latency());
        load_setup(&mut engine, &t);
        for entry in t.container.entries() {
            let ddl = blue_elephants::mlinspect::sqlgen::SqlQueryContainer::view_ddl(
                entry,
                entry.materialize_candidate,
            );
            engine
                .execute(&ddl)
                .unwrap_or_else(|e| panic!("{name} / {}: {e}", entry.name));
        }
        // All views are queryable afterwards.
        let last = t.container.entries().last().unwrap();
        let rel = engine
            .query(&format!("SELECT count(*) AS n FROM {}", last.name))
            .unwrap();
        assert!(!rel.rows.is_empty());
    }
}

#[test]
fn view_script_reruns_on_the_same_engine() {
    for (name, src) in pipelines::all() {
        let t = transpile(src, SqlMode::View);
        for materialize in [false, true] {
            // Without its COPYs, which name files this engine cannot read.
            let mut script = t.script(SqlMode::View, materialize);
            for setup in &t.setup {
                script = script.replace(&setup.copy, "");
            }
            let mut engine = Engine::new(EngineProfile::disk_based_no_latency());
            for run in 0..2 {
                engine.execute_script(&script).unwrap_or_else(|e| {
                    panic!("{name} (materialize {materialize}) run {run}: {e}")
                });
            }
        }
    }
}

#[test]
fn generated_sql_follows_paper_naming_conventions() {
    let t = transpile(pipelines::HEALTHCARE, SqlMode::Cte);
    // Listing 5's conventions: <stem>_<line>_mlinid<n> tables, ctid-CTEs,
    // block_mlinid<n>_<line> operators, fit_ tables for sklearn parameters.
    assert!(t.setup.iter().any(|s| s.table.starts_with("patients_")));
    assert!(t.setup.iter().any(|s| s.table.contains("_mlinid")));
    let names: Vec<&str> = t
        .container
        .entries()
        .iter()
        .map(|e| e.name.as_str())
        .collect();
    assert!(names.iter().any(|n| n.ends_with("_ctid")));
    assert!(names.iter().any(|n| n.starts_with("block_mlinid")));
    assert!(names.iter().any(|n| n.starts_with("fit_mlinid")));
}

#[test]
fn transpilation_emits_one_table_expression_per_pipeline_operator() {
    // "one CTE/view represents one line of the original Python source code".
    let t = transpile(pipelines::HEALTHCARE, SqlMode::Cte);
    let frame_ops = 11; // reads(2) + merges(2) + agg + setitem + project + filter + splits(2) + featurisations(2)
    let fit_tables = 7; // (impute+onehot) x3 columns + scaler x2 columns... counted: 3*2 + 2 = 8
    let total = t.container.len();
    assert!(
        total >= frame_ops + fit_tables,
        "only {total} table expressions generated"
    );
}

#[test]
fn copy_statements_reference_original_files() {
    let t = transpile(pipelines::COMPAS, SqlMode::Cte);
    assert!(t.setup[0].copy.contains("compas_train.csv"));
    assert!(t.setup[0].copy.contains("FORMAT CSV"));
    assert!(t.setup[0].copy.contains("NULL '?'"));
}
