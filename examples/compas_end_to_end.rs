//! The compas pipeline end-to-end: preprocessing in SQL, logistic-regression
//! training, accuracy comparison across execution targets (paper §6.4).
//!
//! ```sh
//! cargo run --release --example compas_end_to_end
//! ```

use blue_elephants::datagen;
use blue_elephants::mlinspect::{pipelines, PipelineInspector, SqlMode};
use blue_elephants::sqlengine::{Engine, EngineProfile};
use std::time::Instant;

fn inspector() -> PipelineInspector {
    PipelineInspector::on_pipeline(pipelines::COMPAS)
        .with_file("compas_train.csv", datagen::compas_csv(2167, 7))
        .with_file("compas_test.csv", datagen::compas_csv(700, 8))
        .no_bias_introduced_for(&["race"], 0.3)
}

fn main() {
    let t0 = Instant::now();
    let baseline = inspector().execute().expect("baseline");
    let t_pandas = t0.elapsed();

    let mut pg = Engine::new(EngineProfile::disk_based());
    let t0 = Instant::now();
    let on_pg = inspector()
        .execute_in_sql(&mut pg, SqlMode::View, true)
        .expect("postgres");
    let t_pg = t0.elapsed();

    let mut umbra = Engine::new(EngineProfile::in_memory());
    let t0 = Instant::now();
    let on_umbra = inspector()
        .execute_in_sql(&mut umbra, SqlMode::Cte, false)
        .expect("umbra");
    let t_umbra = t0.elapsed();

    println!("target                      accuracy   runtime");
    println!(
        "pandas baseline             {:.4}     {t_pandas:?}",
        baseline.accuracy().unwrap()
    );
    println!(
        "postgres VIEW+materialized  {:.4}     {t_pg:?}",
        on_pg.accuracy().unwrap()
    );
    println!(
        "umbra CTE                   {:.4}     {t_umbra:?}",
        on_umbra.accuracy().unwrap()
    );

    // The preprocessing is equivalent and the model does not depend on row
    // order, so accuracies agree closely.
    let a = baseline.accuracy().unwrap();
    let b = on_pg.accuracy().unwrap();
    let c = on_umbra.accuracy().unwrap();
    assert!((a - b).abs() < 0.1, "pandas {a} vs postgres {b}");
    assert!((b - c).abs() < f64::EPSILON, "postgres {b} vs umbra {c}");

    println!("\nper-operation breakdown (umbra):");
    for (node, label, took) in &on_umbra.op_timings {
        println!("  #{node:<3} {label:<18} {took:?}");
    }
}
