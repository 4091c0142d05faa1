//! Backend equivalence: the SQL translation must produce the same relations
//! as the pandas baseline for every pipeline operator (the paper verifies
//! correctness "by comparing the equality of the intermediate results").

use blue_elephants::datagen;
use blue_elephants::mlinspect::{pipelines, PipelineInspector, SqlMode};
use blue_elephants::sqlengine::{Engine, EngineProfile};
use etypes::Value;

fn inspector(src: &str) -> PipelineInspector {
    PipelineInspector::on_pipeline(src)
        .with_file("patients.csv", datagen::patients_csv(250, 21))
        .with_file("histories.csv", datagen::histories_csv(250, 21))
        .with_file("compas_train.csv", datagen::compas_csv(400, 22))
        .with_file("compas_test.csv", datagen::compas_csv(150, 23))
        .with_file("adult_train.csv", datagen::adult_csv(500, 24))
        .with_file("adult_test.csv", datagen::adult_csv(200, 25))
        .keep_relations(true)
        .no_bias_introduced_for(&["race", "age_group"], 0.25)
}

/// Booleans in SQL vs 0/1 in sklearn-style outputs compare equal.
fn normalize(rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = rows
        .into_iter()
        .map(|r| {
            r.into_iter()
                .map(|v| match v {
                    Value::Bool(b) => Value::Int(b as i64),
                    Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e15 => Value::Int(f as i64),
                    other => other,
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

fn assert_equivalent(name: &str, mode: SqlMode, materialize: bool) {
    let src = pipelines::all()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap()
        .1;
    let baseline = inspector(src).execute().unwrap();
    let mut engine = Engine::new(EngineProfile::disk_based_no_latency());
    let sql = inspector(src)
        .execute_in_sql(&mut engine, mode, materialize)
        .unwrap();

    for (node, pandas_rel) in &baseline.relations {
        let Some(sql_rel) = sql.relations.get(node) else {
            continue;
        };
        assert_eq!(
            pandas_rel.columns, sql_rel.columns,
            "{name} node {node}: column mismatch"
        );
        let (p, s) = (
            normalize(pandas_rel.rows.clone()),
            normalize(sql_rel.rows.clone()),
        );
        assert_eq!(
            p.len(),
            s.len(),
            "{name} node {node} ({}): row count {} vs {}",
            baseline.dag.node(*node).kind.label(),
            p.len(),
            s.len()
        );
        for (i, (pr, sr)) in p.iter().zip(&s).enumerate() {
            assert!(
                rows_close(pr, sr),
                "{name} node {node} row {i}: {pr:?} vs {sr:?}"
            );
        }
    }
}

fn rows_close(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::Float(p), Value::Float(q)) => (p - q).abs() < 1e-9,
            (Value::Float(p), Value::Int(q)) | (Value::Int(q), Value::Float(p)) => {
                (p - *q as f64).abs() < 1e-9
            }
            _ => x == y,
        })
}

#[test]
fn healthcare_relations_match_in_cte_mode() {
    assert_equivalent("healthcare", SqlMode::Cte, false);
}

#[test]
fn healthcare_relations_match_in_view_mode_materialized() {
    assert_equivalent("healthcare", SqlMode::View, true);
}

#[test]
fn compas_relations_match() {
    assert_equivalent("compas", SqlMode::Cte, false);
}

#[test]
fn adult_simple_relations_match() {
    assert_equivalent("adult simple", SqlMode::View, false);
}

#[test]
fn adult_complex_relations_match() {
    assert_equivalent("adult complex", SqlMode::Cte, false);
}

#[test]
fn histograms_match_between_backends() {
    let baseline = inspector(pipelines::HEALTHCARE).execute().unwrap();
    let mut engine = Engine::new(EngineProfile::in_memory());
    let sql = inspector(pipelines::HEALTHCARE)
        .execute_in_sql(&mut engine, SqlMode::Cte, false)
        .unwrap();
    let mut compared = 0;
    for (node, hists) in &baseline.inspections.histograms {
        for h in hists {
            let Some(sh) = sql.inspections.histogram(*node, &h.column) else {
                continue;
            };
            assert_eq!(h.counts, sh.counts, "node {node} column {}", h.column);
            compared += 1;
        }
    }
    assert!(compared >= 10, "only {compared} histograms compared");
}

#[test]
fn accuracies_agree_across_backends() {
    // Preprocessing is identical, the split is shared and the model does
    // not depend on row order, so the accuracies agree.
    let baseline = inspector(pipelines::ADULT_SIMPLE).execute().unwrap();
    let mut engine = Engine::new(EngineProfile::in_memory());
    let sql = inspector(pipelines::ADULT_SIMPLE)
        .execute_in_sql(&mut engine, SqlMode::Cte, false)
        .unwrap();
    let (a, b) = (baseline.accuracy().unwrap(), sql.accuracy().unwrap());
    assert!((a - b).abs() < 0.05, "baseline {a} vs sql {b}");
}

#[test]
fn profiles_produce_identical_results() {
    // The two engine profiles may differ in speed, never in answers.
    let mut pg = Engine::new(EngineProfile::disk_based_no_latency());
    let mut umbra = Engine::new(EngineProfile::in_memory());
    let on_pg = inspector(pipelines::COMPAS)
        .execute_in_sql(&mut pg, SqlMode::Cte, false)
        .unwrap();
    let on_umbra = inspector(pipelines::COMPAS)
        .execute_in_sql(&mut umbra, SqlMode::Cte, false)
        .unwrap();
    assert_eq!(on_pg.accuracies, on_umbra.accuracies);
    for (node, hists) in &on_pg.inspections.histograms {
        for h in hists {
            assert_eq!(
                Some(&h.counts),
                on_umbra
                    .inspections
                    .histogram(*node, &h.column)
                    .map(|x| &x.counts)
            );
        }
    }
}
