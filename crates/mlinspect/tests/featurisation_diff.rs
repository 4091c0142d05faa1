//! Featurisation differential net: the paper's scikit-learn translations
//! (`featurisation_sql`, §5.2) run over seeded small frames, and the
//! executor (`Engine::query`) must answer every transform exactly like the
//! row-at-a-time reference interpreter (`Engine::query_reference`), byte for
//! byte, whether the fit tables and transforms are CTEs, views or
//! materialized views. The extracted design matrix must then agree bit for
//! bit across those shapes, and so must the accuracy of whole pipelines run
//! through the SQL backend.
//!
//! The frames carry the featurisation edge cases: test categories never
//! seen in training (a NULL `pos`), a column with one category
//! (`array_fill(0, 0)`), an all-NULL column under `most_frequent` (no fill,
//! `n = 0`, so every row is `ARRAY[]`), `KBinsDiscretizer` and
//! `StandardScaler` on a constant column (the `step 1.0` / `s 1.0`
//! branches), and NULL one-hot input.

use etypes::{Prng, Value};
use mlinspect::backends::pandas::FileRegistry;
use mlinspect::backends::sql::{design_matrix, SqlBackend};
use mlinspect::backends::{BaselineCosts, RunConfig};
use mlinspect::capture::capture;
use mlinspect::dag::{CtStep, ImputeKind, TransformerKind};
use mlinspect::inspection::Inspection;
use mlinspect::sqlgen::sklearn_ops::featurisation_sql;
use mlinspect::sqlgen::{CtidCol, TableExpr};
use mlinspect::{pipelines, SqlMode};
use sqlengine::{Engine, EngineProfile, Relation, Result};

/// The frame's columns after the ctid: name, SQL type.
const COLUMNS: [(&str, &str); 7] = [
    ("cat", "text"),
    ("one", "text"),
    ("gone", "text"),
    ("num", "float"),
    ("konst", "float"),
    ("ki", "int"),
    ("y", "int"),
];

/// One seeded frame as SQL literals, one tuple per row. Test frames draw
/// categories that training never saw.
fn frame_rows(rng: &mut Prng, rows: usize, test: bool) -> Vec<String> {
    let cats: &[&str] = if test {
        &["'a'", "'zz'", "'zz'", "'c'"]
    } else {
        &["'a'", "'b'", "'c'", "'b'"]
    };
    (0..rows)
        .map(|i| {
            let cat = if rng.chance(0.2) {
                "NULL"
            } else {
                cats[rng.below(cats.len())]
            };
            let one = match rng.below(5) {
                0 => "NULL",
                1 if test => "'other'",
                _ => "'only'",
            };
            let num = if rng.chance(0.15) {
                "NULL".to_string()
            } else {
                format!("{:.3}", rng.range_f64(-5.0, 20.0))
            };
            let ki = if rng.chance(0.15) {
                "NULL".to_string()
            } else {
                rng.range_i64(-3, 40).to_string()
            };
            let y = rng.below(2);
            format!("({i}, {cat}, {one}, NULL, {num}, 3.5, {ki}, {y})")
        })
        .collect()
}

fn create_frame(e: &mut Engine, name: &str, rows: &[String]) {
    let cols: Vec<String> = COLUMNS.iter().map(|(c, t)| format!("{c} {t}")).collect();
    e.execute(&format!(
        "CREATE TABLE {name} (t_ctid int, {})",
        cols.join(", ")
    ))
    .unwrap();
    e.execute(&format!("INSERT INTO {name} VALUES {}", rows.join(", ")))
        .unwrap();
}

fn table_expr(name: &str) -> TableExpr {
    let features = &COLUMNS[..COLUMNS.len() - 1];
    TableExpr {
        sql_name: name.to_string(),
        columns: features.iter().map(|(c, _)| c.to_string()).collect(),
        types: features
            .iter()
            .map(|(_, t)| match *t {
                "text" => etypes::DataType::Text,
                "float" => etypes::DataType::Float,
                _ => etypes::DataType::Int,
            })
            .collect(),
        nullable: vec![true; features.len()],
        ctids: vec![CtidCol {
            name: "t_ctid".into(),
            source: 0,
            aggregated: false,
        }],
    }
}

fn step(steps: Vec<TransformerKind>, columns: &[&str]) -> CtStep {
    CtStep {
        name: "s".into(),
        steps,
        columns: columns.iter().map(|c| c.to_string()).collect(),
    }
}

/// Every transformer chain the translation knows, over the edge columns.
fn steps() -> Vec<CtStep> {
    use ImputeKind::*;
    use TransformerKind::*;
    vec![
        step(
            vec![SimpleImputer(MostFrequent), OneHotEncoder],
            &["cat", "gone", "one"],
        ),
        step(vec![OneHotEncoder], &["one", "cat"]),
        step(vec![SimpleImputer(Mean), StandardScaler], &["num"]),
        step(vec![StandardScaler], &["konst"]),
        step(vec![KBinsDiscretizer(4)], &["konst", "num"]),
        step(vec![SimpleImputer(Median), KBinsDiscretizer(3)], &["ki"]),
        step(vec![SimpleImputer(MostFrequent), Binarizer(10.0)], &["ki"]),
    ]
}

/// How the fit tables and transforms exist in the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    Cte,
    View,
    MaterializedView,
}

/// The train and test transforms of one seeded frame pair, in `shape`.
struct Featurised {
    engine: Engine,
    /// `(name, body)` of every fit table, then the two transforms.
    entries: Vec<(String, String)>,
    shape: Shape,
    features: Vec<String>,
}

impl Featurised {
    fn new(seed: u64, rows: usize, shape: Shape) -> Featurised {
        let mut rng = Prng::new(seed);
        let train = frame_rows(&mut rng, rows, false);
        let test = frame_rows(&mut rng, rows / 3 + 1, true);
        let mut engine = Engine::new(EngineProfile::in_memory());
        create_frame(&mut engine, "train_t", &train);
        create_frame(&mut engine, "test_t", &test);
        let steps = steps();
        let (fits, train_body, out) = featurisation_sql(
            "feat_train",
            &table_expr("train_t"),
            &steps,
            1,
            Some("train_t"),
        )
        .unwrap();
        let (none, test_body, _) =
            featurisation_sql("feat_test", &table_expr("test_t"), &steps, 1, None).unwrap();
        assert!(none.is_empty(), "a transform-only node fits nothing");
        let mut entries = fits;
        entries.push(("feat_train".into(), train_body));
        entries.push(("feat_test".into(), test_body));
        if shape != Shape::Cte {
            let kind = if shape == Shape::MaterializedView {
                "MATERIALIZED VIEW"
            } else {
                "VIEW"
            };
            for (name, body) in &entries {
                engine
                    .execute(&format!("CREATE {kind} {name} AS {body}"))
                    .unwrap();
            }
        }
        Featurised {
            engine,
            entries,
            shape,
            features: out.columns,
        }
    }

    /// `select` as this shape runs it: under the whole `WITH` chain for
    /// CTEs, bare over the catalog views otherwise.
    fn sql(&self, select: &str) -> String {
        if self.shape != Shape::Cte {
            return select.to_string();
        }
        let ctes: Vec<String> = self
            .entries
            .iter()
            .map(|(name, body)| format!("{name} AS ({body})"))
            .collect();
        format!("WITH {} {select}", ctes.join(", "))
    }

    /// Run `select` on the executor and on the reference; they must agree
    /// byte for byte. Returns the executor's rows.
    fn same(&mut self, select: &str) -> Relation {
        let sql = self.sql(select);
        let reference = self.engine.query_reference(&sql);
        let executed = self.engine.query(&sql);
        assert_eq!(
            render(&executed),
            render(&reference),
            "{:?} diverged: {sql}",
            self.shape
        );
        executed.unwrap_or_else(|e| panic!("{sql}: {e}"))
    }

    /// The design matrix the SQL backend trains on, copied from the
    /// executor's result chunks, as raw bits in [`matrix_bits`]' layout.
    fn chunk_matrix(&mut self, select: &str) -> Vec<u64> {
        let sql = self.sql(select);
        let result = self.engine.execute(&sql).unwrap().result.unwrap();
        let (x, y) = design_matrix(&result).unwrap();
        (0..x.nrows())
            .flat_map(|r| {
                x.row(r)
                    .iter()
                    .chain([&y[r]])
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The extraction query of the SQL backend: features, then the label,
    /// joined on the shared tuple identifier.
    fn extraction(&self, transform: &str, frame: &str) -> String {
        let cols: Vec<String> = self.features.iter().map(|c| format!("f.\"{c}\"")).collect();
        format!(
            "SELECT {}, lab.y FROM {transform} f INNER JOIN {frame} lab ON f.t_ctid = lab.t_ctid",
            cols.join(", ")
        )
    }
}

fn render(result: &Result<Relation>) -> String {
    match result {
        Ok(rel) => format!("{:?}|{:?}", rel.columns, rel.rows),
        Err(err) => format!("ERR {err}"),
    }
}

/// A design matrix row-major as raw f64 bits, arrays flattened in place,
/// the label last: what the model sees, compared exactly.
fn matrix_bits(rel: &Relation) -> Vec<u64> {
    fn push(out: &mut Vec<u64>, v: &Value) {
        match v {
            Value::Array(items) => items.iter().for_each(|x| push(out, x)),
            v => out.push(v.as_f64().unwrap_or(f64::NAN).to_bits()),
        }
    }
    let mut out = Vec::new();
    for row in &rel.rows {
        row.iter().for_each(|v| push(&mut out, v));
    }
    out
}

/// Seeds and train sizes: small frames, one across a 1024-row batch.
const FRAMES: [(u64, usize); 5] = [(1, 12), (2, 40), (3, 1), (4, 90), (5, 1100)];

#[test]
fn transforms_match_reference_in_every_shape() {
    for (seed, rows) in FRAMES {
        let mut answers = Vec::new();
        for shape in [Shape::Cte, Shape::View, Shape::MaterializedView] {
            let mut f = Featurised::new(seed, rows, shape);
            let train = f.same("SELECT * FROM feat_train");
            let test = f.same("SELECT * FROM feat_test");
            let x_train = f.same(&f.extraction("feat_train", "train_t"));
            let x_test = f.same(&f.extraction("feat_test", "test_t"));
            // The matrix read from chunks is the reference's, bit for bit.
            for (transform, frame, rows) in [
                ("feat_train", "train_t", &x_train),
                ("feat_test", "test_t", &x_test),
            ] {
                let select = f.extraction(transform, frame);
                assert_eq!(
                    f.chunk_matrix(&select),
                    matrix_bits(rows),
                    "seed {seed} {shape:?} {transform}"
                );
            }
            answers.push((
                render(&Ok(train)),
                render(&Ok(test)),
                matrix_bits(&x_train),
                matrix_bits(&x_test),
            ));
        }
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: CTE, VIEW and materialized VIEW disagree"
        );
    }
}

/// The edge cases answer what the translation means, not just the same
/// thing twice: widths, the empty one-hot, the constant-column branches.
#[test]
fn edge_cases_answer_their_meaning() {
    let mut f = Featurised::new(2, 40, Shape::Cte);
    let train = f.same("SELECT * FROM feat_train ORDER BY t_ctid");
    let test = f.same("SELECT * FROM feat_test ORDER BY t_ctid");
    let col = |rel: &Relation, name: &str| {
        let i = rel.columns.iter().position(|c| c == name).unwrap();
        rel.rows.iter().map(|r| r[i].clone()).collect::<Vec<_>>()
    };
    let width = |v: &Value| v.as_array().unwrap().len();
    let ones = |v: &Value| {
        v.as_array()
            .unwrap()
            .iter()
            .filter(|x| **x == Value::Int(1))
            .count()
    };
    // Imputed `cat`: three categories, exactly one hot everywhere in
    // training; unseen `zz` in test is all zeros.
    for v in col(&train, "f0_cat") {
        assert_eq!((width(&v), ones(&v)), (3, 1), "{v:?}");
    }
    assert!(col(&test, "f0_cat").iter().any(|v| ones(v) == 0));
    // All-NULL column: no fill, no category, every row is `ARRAY[]`.
    for v in col(&train, "f0_gone").iter().chain(&col(&test, "f0_gone")) {
        assert_eq!(v, &Value::Array(vec![]));
    }
    // One category, no imputer: width 1, NULL input one-hot to zeros.
    let one = col(&train, "f1_one");
    assert!(one.iter().all(|v| width(v) == 1));
    assert!(one.contains(&Value::Array(vec![Value::Int(0)])));
    assert!(one.contains(&Value::Array(vec![Value::Int(1)])));
    // Constant column: `s 1.0` scales to 0, `step 1.0` bins to 0.
    for v in col(&train, "f3_konst") {
        assert_eq!(v.as_f64().unwrap(), 0.0);
    }
    for v in col(&train, "f4_konst") {
        assert_eq!(v.as_f64().unwrap(), 0.0);
    }
}

const EDGE_PIPELINE: &str = r#"
import pandas as pd
from sklearn.compose import ColumnTransformer
from sklearn.impute import SimpleImputer
from sklearn.linear_model import LogisticRegression
from sklearn.pipeline import Pipeline
from sklearn.preprocessing import OneHotEncoder, StandardScaler, KBinsDiscretizer, label_binarize

train = pd.read_csv('edge_train.csv', na_values='?')
test = pd.read_csv('edge_test.csv', na_values='?')
train = train.replace('b', 'a')
test = test.replace('b', 'a')
train_labels = label_binarize(train['y'], classes=['no', 'yes'])
test_labels = label_binarize(test['y'], classes=['no', 'yes'])

impute_and_onehot = Pipeline([
    ('impute', SimpleImputer(strategy='most_frequent')),
    ('onehot', OneHotEncoder(handle_unknown='ignore')),
])
impute_and_scale = Pipeline([
    ('impute', SimpleImputer(strategy='mean')),
    ('scale', StandardScaler()),
])
impute_and_bin = Pipeline([
    ('impute', SimpleImputer(strategy='mean')),
    ('bins', KBinsDiscretizer(n_bins=3, encode='ordinal', strategy='uniform')),
])
featurizer = ColumnTransformer(transformers=[
    ('impute_and_onehot', impute_and_onehot, ['cat', 'gone', 'one']),
    ('impute_and_scale', impute_and_scale, ['num', 'konst']),
    ('impute_and_bin', impute_and_bin, ['konst', 'num']),
])
pipeline = Pipeline([('features', featurizer), ('classifier', LogisticRegression())])
pipeline.fit(train, train_labels.ravel())
print(pipeline.score(test, test_labels.ravel()))
"#;

/// The edge frames as CSV files (`?` is NULL).
fn edge_csv(seed: u64, rows: usize, test: bool) -> String {
    let mut rng = Prng::new(seed);
    let cats: &[&str] = if test {
        &["a", "b", "zz", "c"]
    } else {
        &["a", "b", "c", "b"]
    };
    let mut out = String::from("cat,one,gone,num,konst,y\n");
    for _ in 0..rows {
        let cat = if rng.chance(0.2) {
            "?"
        } else {
            cats[rng.below(cats.len())]
        };
        let one = if rng.chance(0.2) { "?" } else { "only" };
        let num = if rng.chance(0.15) {
            "?".to_string()
        } else {
            format!("{:.3}", rng.range_f64(-5.0, 20.0))
        };
        let y = if rng.chance(0.5) { "yes" } else { "no" };
        out.push_str(&format!("{cat},{one},?,{num},3.5,{y}\n"));
    }
    out
}

fn files() -> FileRegistry {
    let mut f = FileRegistry::new();
    f.insert("edge_train.csv", edge_csv(21, 300, false));
    f.insert("edge_test.csv", edge_csv(22, 120, true));
    f.insert("patients.csv", datagen::patients_csv(300, 11));
    f.insert("histories.csv", datagen::histories_csv(300, 11));
    f.insert("compas_train.csv", datagen::compas_csv(300, 12));
    f.insert("compas_test.csv", datagen::compas_csv(120, 13));
    f.insert("adult_train.csv", datagen::adult_csv(300, 14));
    f.insert("adult_test.csv", datagen::adult_csv(120, 15));
    f
}

#[test]
fn accuracy_is_bit_identical_across_sql_shapes() {
    let files = files();
    let config = RunConfig {
        inspections: vec![Inspection::HistogramForColumns(vec!["race".into()])],
        keep_relations: false,
        force_outputs: false,
        baseline_costs: BaselineCosts::zero(),
    };
    let mut sources = vec![("edge", EDGE_PIPELINE)];
    sources.extend(pipelines::all());
    for (name, src) in sources {
        let dag = capture(src).unwrap().dag;
        let accuracy: Vec<u64> = [
            (SqlMode::Cte, false),
            (SqlMode::View, false),
            (SqlMode::View, true),
        ]
        .into_iter()
        .map(|(mode, materialize)| {
            let mut engine = Engine::new(EngineProfile::in_memory());
            let artifacts = SqlBackend::run(&dag, &files, &config, &mut engine, mode, materialize)
                .unwrap_or_else(|e| panic!("{name} {mode:?} {materialize}: {e}"));
            artifacts.accuracy().unwrap().to_bits()
        })
        .collect();
        assert!(
            accuracy.windows(2).all(|w| w[0] == w[1]),
            "{name}: {accuracy:?}"
        );
    }
}
