//! The SQL backend: translate every operator to a CTE/view and run it on
//! the database engine (paper §3.3, §4, §5).

use super::pandas::{csv_options, FileRegistry};
use super::{labels_to_f64, NodeRelation, RunArtifacts, RunConfig};
use crate::dag::{Dag, ModelKind, NodeId, OpKind};
use crate::error::{MlError, Result};
use crate::inspection::{ColumnHistogram, FirstRowsSample, RowLineageSample};
use crate::sqlgen::{ReadCsvSql, SqlGen, SqlMode, SqlQueryContainer};
use etypes::{Column, ColumnData, Value};
use sklearn::{LogisticRegression, Matrix, MlpClassifier};
use sqlengine::{Engine, Relation, ResultSet};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;

/// The generated SQL of a pipeline, without execution (the paper's
/// "functionality to generate inspection-enabled SQL queries from pipelines
/// written in Python without execution").
#[derive(Debug, Clone, Default)]
pub struct TranspiledSql {
    /// DDL + COPY per read_csv, in order.
    pub setup: Vec<ReadCsvSql>,
    /// All generated table expressions.
    pub container: SqlQueryContainer,
}

impl TranspiledSql {
    /// Render the complete script for the given mode. Both modes can run
    /// again on the same database: each table is dropped before it is
    /// created, and in VIEW mode every view is dropped, newest first,
    /// before any table.
    pub fn script(&self, mode: SqlMode, materialize: bool) -> String {
        let mut out = String::new();
        if mode == SqlMode::View && !self.container.is_empty() {
            out.push_str(&self.container.view_drops(materialize));
            out.push('\n');
        }
        for s in &self.setup {
            out.push_str(&s.create);
            out.push('\n');
            out.push_str(&s.copy);
            out.push('\n');
        }
        match mode {
            SqlMode::View => out.push_str(&self.container.view_script(materialize)),
            SqlMode::Cte => {
                if let Some(last) = self.container.entries().last() {
                    let select = format!("SELECT * FROM {}", last.name);
                    out.push_str(&self.container.query(SqlMode::Cte, &select));
                }
            }
        }
        out
    }
}

enum FittedModel {
    LogReg(LogisticRegression),
    Mlp(MlpClassifier),
}

/// The SQL backend executor.
pub struct SqlBackend<'a> {
    files: &'a FileRegistry,
    config: &'a RunConfig,
    mode: SqlMode,
    materialize: bool,
    engine: Option<&'a mut Engine>,
    gen: SqlGen,
    setup: Vec<ReadCsvSql>,
    /// Container entries that exist as catalog views (VIEW mode only).
    created_views: usize,
    models: HashMap<NodeId, FittedModel>,
    artifacts: RunArtifacts,
}

impl<'a> SqlBackend<'a> {
    /// Translate and execute a DAG on the engine.
    pub fn run(
        dag: &Dag,
        files: &'a FileRegistry,
        config: &'a RunConfig,
        engine: &'a mut Engine,
        mode: SqlMode,
        materialize: bool,
    ) -> Result<RunArtifacts> {
        let mut backend = SqlBackend {
            files,
            config,
            mode,
            materialize,
            engine: Some(engine),
            gen: SqlGen::new(),
            setup: Vec::new(),
            created_views: 0,
            models: HashMap::new(),
            artifacts: RunArtifacts::default(),
        };
        let ran = backend.execute_dag(dag);
        let dropped = backend.drop_scratch();
        ran.and(dropped)?;
        Ok(backend.artifacts)
    }

    fn execute_dag(&mut self, dag: &Dag) -> Result<()> {
        for node in &dag.nodes {
            let started = Instant::now();
            self.execute_node(node.id, node.line, &node.kind)?;
            self.artifacts.op_timings.push((
                node.id,
                node.kind.label().to_string(),
                started.elapsed(),
            ));
        }
        if self.config.force_outputs {
            self.force_terminal_outputs(dag)?;
        }
        Ok(())
    }

    /// Drop every view and base table this run created, newest first, so a
    /// run — finished or failed — leaves nothing in the caller's catalog
    /// (and nothing for a later `CHECKPOINT` to make durable). Every drop is
    /// attempted; the first failure is reported.
    fn drop_scratch(&mut self) -> Result<()> {
        let Some(engine) = self.engine.as_deref_mut() else {
            return Ok(());
        };
        let started = Instant::now();
        // PostgreSQL drops a materialized view only by its own verb.
        let kind = if self.materialize {
            "MATERIALIZED VIEW"
        } else {
            "VIEW"
        };
        let views = self.gen.container.entries()[..self.created_views]
            .iter()
            .rev()
            .map(|entry| format!("DROP {kind} IF EXISTS {}", entry.name));
        let tables = self
            .setup
            .iter()
            .rev()
            .map(|read| format!("DROP TABLE IF EXISTS {}", read.table));
        let mut outcome = Ok(());
        for drop in views.chain(tables) {
            if let Err(e) = engine.execute(&drop) {
                outcome = outcome.and(Err(e.into()));
            }
        }
        self.artifacts.scratch_drop = started.elapsed();
        outcome
    }

    /// Evaluate every frame node no other node consumes (the lazy SQL
    /// counterpart of the baseline's eager materialization).
    fn force_terminal_outputs(&mut self, dag: &Dag) -> Result<()> {
        let mut consumed = std::collections::HashSet::new();
        for node in &dag.nodes {
            consumed.extend(node.kind.inputs());
        }
        for node in &dag.nodes {
            if consumed.contains(&node.id) || !node.kind.produces_frame() {
                continue;
            }
            // Fetch all visible columns (the paper's runs transfer results
            // back through the adapter), preventing the optimizer from
            // pruning the node's actual work.
            let Ok(select) = self.gen.select_visible(node.id, None) else {
                continue;
            };
            let sql = self.assemble(&select);
            self.run_sql(&sql)?;
        }
        Ok(())
    }

    /// Translate a DAG to SQL without executing it (schemas are deduced from
    /// a ten-row sample of the inputs, like the paper's schema-deduction run).
    pub fn transpile(dag: &Dag, files: &FileRegistry, mode: SqlMode) -> Result<TranspiledSql> {
        let config = RunConfig::default();
        let mut backend = SqlBackend {
            files,
            config: &config,
            mode,
            materialize: false,
            engine: None,
            gen: SqlGen::new(),
            setup: Vec::new(),
            created_views: 0,
            models: HashMap::new(),
            artifacts: RunArtifacts::default(),
        };
        for node in &dag.nodes {
            backend.execute_node(node.id, node.line, &node.kind)?;
        }
        Ok(TranspiledSql {
            setup: backend.setup,
            container: backend.gen.container,
        })
    }

    fn dry_run(&self) -> bool {
        self.engine.is_none()
    }

    fn run_sql(&mut self, sql: &str) -> Result<Relation> {
        let engine = self
            .engine
            .as_deref_mut()
            .ok_or_else(|| MlError::Internal("query in transpile-only mode".into()))?;
        Ok(engine.query(sql)?)
    }

    /// Assemble a query for a bare select in the active mode.
    fn assemble(&self, select: &str) -> String {
        self.gen.container.query(self.mode, select)
    }

    /// In VIEW mode, create catalog views for entries generated since the
    /// last call. "When the user chooses to materialise, all created
    /// views/CTEs, for which recalculating can be avoided, as well as all
    /// fitting parameters are materialised" (§3.4.2).
    fn flush_views(&mut self) -> Result<()> {
        if self.mode != SqlMode::View {
            return Ok(());
        }
        let Some(engine) = self.engine.as_deref_mut() else {
            return Ok(());
        };
        for entry in &self.gen.container.entries()[self.created_views..] {
            engine.execute(&SqlQueryContainer::view_ddl(entry, self.materialize))?;
            self.created_views += 1;
        }
        Ok(())
    }

    fn execute_node(&mut self, id: NodeId, line: usize, kind: &OpKind) -> Result<()> {
        match kind {
            OpKind::ReadCsv { file, na_values } => {
                let na_values = na_values.as_deref();
                // Schema deduction: the whole file when executing (parsed
                // once per registry and shared by every run), its first ten
                // records when only transpiling.
                let csv = if self.dry_run() {
                    let text = self.files.resolve(file)?;
                    Rc::new(etypes::read_csv_head(text, &csv_options(na_values), 10)?)
                } else {
                    self.files.parsed(file, na_values)?
                };
                let nullable: Vec<bool> = (0..csv.columns.len())
                    .map(|c| csv.null_count(c) > 0)
                    .collect();
                let sql = self.gen.read_csv(
                    id,
                    line,
                    file,
                    &csv.columns,
                    &csv.types,
                    &nullable,
                    na_values,
                );
                // Registered before it exists, so a failed load is still
                // dropped with the rest of the run's scratch relations.
                self.setup.push(sql);
                if let (Some(engine), Some(sql)) = (self.engine.as_deref_mut(), self.setup.last()) {
                    engine.execute_script(&sql.create)?;
                    engine.copy_rows(&sql.table, None, &csv)?;
                }
            }
            OpKind::Join { left, right, on } => {
                self.gen.join(id, line, *left, *right, on)?;
            }
            OpKind::GroupByAgg { input, keys, aggs } => {
                self.gen.groupby_agg(id, line, *input, keys, aggs)?;
            }
            OpKind::SetItem {
                input,
                column,
                expr,
            } => {
                self.gen.set_item(id, line, *input, column, expr)?;
            }
            OpKind::Project { input, columns } => {
                self.gen.project(id, line, *input, columns)?;
            }
            OpKind::Filter { input, condition } => {
                self.gen.filter(id, line, *input, condition)?;
            }
            OpKind::DropNa { input } => {
                self.gen.dropna(id, line, *input)?;
            }
            OpKind::Replace { input, from, to } => {
                self.gen.replace(id, line, *input, from, to)?;
            }
            OpKind::FillNa { input, value } => {
                self.gen.fillna(id, line, *input, value)?;
            }
            OpKind::Head { input, n } => {
                self.gen.head(id, line, *input, *n)?;
            }
            OpKind::SortValues {
                input,
                by,
                ascending,
            } => {
                self.gen.sort_values(id, line, *input, by, *ascending)?;
            }
            OpKind::DropColumns { input, columns } => {
                self.gen.drop_columns(id, line, *input, columns)?;
            }
            OpKind::LabelBinarize {
                input,
                column,
                classes,
            } => {
                self.gen.label_binarize(id, line, *input, column, classes)?;
            }
            OpKind::Split {
                input,
                part,
                test_percent,
                seed,
            } => {
                self.gen
                    .split(id, line, *input, *part, *test_percent, *seed)?;
            }
            OpKind::FeatureTransform {
                input,
                steps,
                fit_node,
            } => {
                self.gen.featurisation(id, line, *input, steps, *fit_node)?;
            }
            OpKind::ModelFit {
                features,
                labels,
                model,
                seed,
            } => {
                self.flush_views()?;
                if self.dry_run() {
                    return Ok(());
                }
                let (x, y) = self.extract_features_and_labels(*features, labels)?;
                let fitted = match model {
                    ModelKind::LogisticRegression => {
                        let mut m = LogisticRegression::new();
                        m.fit(&x, &y)?;
                        FittedModel::LogReg(m)
                    }
                    ModelKind::NeuralNetwork { hidden, epochs } => {
                        let mut m = MlpClassifier::new(*hidden).with_seed(*seed);
                        m.epochs = *epochs;
                        m.fit(&x, &y)?;
                        FittedModel::Mlp(m)
                    }
                };
                self.models.insert(id, fitted);
                return Ok(());
            }
            OpKind::ModelScore {
                model,
                features,
                labels,
            } => {
                self.flush_views()?;
                if self.dry_run() {
                    return Ok(());
                }
                let (x, y) = self.extract_features_and_labels(*features, labels)?;
                let fitted = self
                    .models
                    .get(model)
                    .ok_or_else(|| MlError::Internal("missing fitted model".into()))?;
                let acc = match fitted {
                    FittedModel::LogReg(m) => m.score(&x, &y)?,
                    FittedModel::Mlp(m) => m.score(&x, &y)?,
                };
                self.artifacts.accuracies.push(acc);
                return Ok(());
            }
        }
        self.flush_views()?;
        if kind.produces_frame() && !matches!(kind, OpKind::FeatureTransform { .. }) {
            self.inspect_node(id)?;
        }
        Ok(())
    }

    // ---- inspection ---------------------------------------------------------

    fn inspect_node(&mut self, id: NodeId) -> Result<()> {
        if self.dry_run() {
            return Ok(());
        }
        let sensitive = self.config.sensitive_columns();
        if !sensitive.is_empty() {
            // One query per restoration path measures all of its columns
            // jointly; summing the joint counts per value gives each
            // column's own histogram (integer sums, so ratios are exact).
            let mut measured: HashMap<String, ColumnHistogram> = HashMap::new();
            for query in self.gen.histogram_selects(id, &sensitive) {
                let sql = self.assemble(&query.select);
                let rel = self.run_sql(&sql)?;
                let mut marginals = vec![BTreeMap::<Value, u64>::new(); query.columns.len()];
                for row in &rel.rows {
                    let n = row[marginals.len()].as_i64().map_err(MlError::Value)? as u64;
                    for (counts, value) in marginals.iter_mut().zip(row) {
                        *counts.entry(value.clone()).or_default() += n;
                    }
                }
                for (column, counts) in query.columns.into_iter().zip(marginals) {
                    let hist = ColumnHistogram::new(column.clone(), counts.into_iter().collect());
                    measured.insert(column, hist);
                }
            }
            let hists = sensitive
                .iter()
                .filter_map(|column| measured.remove(column))
                .collect();
            self.artifacts.inspections.histograms.insert(id, hists);
        }
        if let Some(k) = self.config.lineage_k() {
            let (names, select) = self.gen.select_lineage(id, k)?;
            let sql = self.assemble(&select);
            let rel = self.run_sql(&sql)?;
            self.artifacts.inspections.lineage.insert(
                id,
                RowLineageSample {
                    ctid_columns: names,
                    rows: rel.rows,
                },
            );
        }
        if let Some(k) = self.config.first_rows_k() {
            let select = self.gen.select_visible(id, Some(k))?;
            let sql = self.assemble(&select);
            let rel = self.run_sql(&sql)?;
            self.artifacts.inspections.first_rows.insert(
                id,
                FirstRowsSample {
                    columns: rel.columns.clone(),
                    rows: rel.rows,
                },
            );
        }
        if self.config.keep_relations {
            let select = self.gen.select_visible(id, None)?;
            let sql = self.assemble(&select);
            let rel = self.run_sql(&sql)?;
            self.artifacts.relations.insert(
                id,
                NodeRelation {
                    columns: rel.columns,
                    rows: rel.rows,
                },
            );
        }
        Ok(())
    }

    // ---- feature/label extraction ---------------------------------------------

    /// One combined query extracts the feature matrix and the aligned labels
    /// by joining on a shared tuple identifier, then converts to the dense
    /// representation the (in-process) model training consumes — the paper's
    /// "cast into a matrix representation (NumPy array) to feed the model".
    fn extract_features_and_labels(
        &mut self,
        features: NodeId,
        labels: &(NodeId, String),
    ) -> Result<(Matrix, Vec<f64>)> {
        let feat = self.gen.table_expr(features)?.clone();
        let lab = self.gen.table_expr(labels.0)?.clone();
        let common = feat
            .ctids
            .iter()
            .find(|f| !f.aggregated && lab.ctids.iter().any(|l| l.name == f.name))
            .ok_or_else(|| {
                MlError::Internal("no shared tuple identifier between features and labels".into())
            })?;
        let ctid = crate::sqlgen::quote_ident(&common.name);
        let cols: Vec<String> = feat
            .columns
            .iter()
            .map(|c| format!("f.{}", crate::sqlgen::quote_ident(c)))
            .collect();
        let select = format!(
            "SELECT {}, lab.{} FROM {} f INNER JOIN {} lab ON f.{ctid} = lab.{ctid}",
            cols.join(", "),
            crate::sqlgen::quote_ident(&labels.1),
            feat.sql_name,
            lab.sql_name
        );
        let sql = self.assemble(&select);
        let engine = self
            .engine
            .as_deref_mut()
            .ok_or_else(|| MlError::Internal("query in transpile-only mode".into()))?;
        let result = engine
            .execute(&sql)?
            .result
            .ok_or_else(|| MlError::Internal("extraction produced no rows".into()))?;
        design_matrix(&result)
    }
}

/// Copy an extraction result — feature columns, then the label — into the
/// dense row-major matrix training consumes, straight from its chunks:
/// `Float` and `Int` cells are copied and one-hot lists flattened by their
/// offsets, with no `Value` per cell. An array column is as wide as its
/// first row; a row of another width, a scalar in an array column, or a
/// non-numeric cell is an error.
pub fn design_matrix(result: &ResultSet) -> Result<(Matrix, Vec<f64>)> {
    let n_cols = result.columns.len();
    if n_cols < 1 {
        return Err(MlError::Internal("empty extraction result".into()));
    }
    let feat_cols = n_cols - 1;
    let first = result.chunks.iter().find(|c| !c.is_empty());
    let widths: Vec<usize> = (0..feat_cols)
        .map(|c| match first.map(|chunk| chunk.column(c).get(0)) {
            Some(Value::Array(items)) => items.len(),
            _ => 1,
        })
        .collect();
    let total: usize = widths.iter().sum();
    let rows = result.len();
    let mut data = Vec::with_capacity(rows * total);
    let mut labels = Vec::with_capacity(rows);
    for chunk in &result.chunks {
        for i in 0..chunk.len() {
            for (c, &width) in widths.iter().enumerate() {
                push_features(&mut data, chunk.column(c), i, width, &result.columns[c])?;
            }
            labels.push(labels_to_f64(&[chunk.column(feat_cols).get(i)])?[0]);
        }
    }
    let matrix = Matrix::new(rows, total, data)?;
    Ok((matrix, labels))
}

/// Append row `i` of one feature column, `width` numbers wide.
fn push_features(
    data: &mut Vec<f64>,
    column: &Column,
    i: usize,
    width: usize,
    name: &str,
) -> Result<()> {
    let numeric = |c: &Column, j: usize| match c.data() {
        _ if c.is_null(j) => None,
        ColumnData::Float(v) => Some(v[j]),
        ColumnData::Int(v) => Some(v[j] as f64),
        _ => None,
    };
    match column.data() {
        ColumnData::List { offsets, values } if !column.is_null(i) => {
            let range = Column::list_range(offsets, i);
            if range.len() != width {
                return Err(MlError::Internal(format!(
                    "ragged one-hot width in column {name}"
                )));
            }
            for j in range {
                data.push(match numeric(values, j) {
                    Some(x) => x,
                    None => values.get(j).as_f64().map_err(MlError::Value)?,
                });
            }
        }
        _ => match (numeric(column, i), column.get(i)) {
            (Some(x), _) if width == 1 => data.push(x),
            (_, Value::Array(items)) if items.len() != width => {
                return Err(MlError::Internal(format!(
                    "ragged one-hot width in column {name}"
                )))
            }
            (_, Value::Array(items)) => {
                for item in &items {
                    data.push(item.as_f64().map_err(MlError::Value)?);
                }
            }
            _ if width != 1 => {
                return Err(MlError::Internal(format!(
                    "scalar in array feature column {name}"
                )))
            }
            (_, v) => data.push(v.as_f64().map_err(MlError::Value)?),
        },
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::pandas::FileRegistry;
    use crate::capture::capture;
    use crate::inspection::Inspection;
    use crate::pipelines;
    use sqlengine::EngineProfile;

    fn files() -> FileRegistry {
        let mut f = FileRegistry::new();
        f.insert("patients.csv", datagen::patients_csv(200, 1));
        f.insert("histories.csv", datagen::histories_csv(200, 1));
        f.insert("compas_train.csv", datagen::compas_csv(300, 2));
        f.insert("compas_test.csv", datagen::compas_csv(120, 3));
        f.insert("adult_train.csv", datagen::adult_csv(400, 4));
        f.insert("adult_test.csv", datagen::adult_csv(150, 5));
        f
    }

    fn config(sensitive: &[&str]) -> RunConfig {
        RunConfig {
            inspections: vec![
                Inspection::HistogramForColumns(sensitive.iter().map(|s| s.to_string()).collect()),
                Inspection::RowLineage(3),
                Inspection::MaterializeFirstOutputRows(3),
            ],
            keep_relations: false,
            force_outputs: false,
            baseline_costs: super::super::BaselineCosts::zero(),
        }
    }

    fn run_mode(src: &str, mode: SqlMode, materialize: bool) -> RunArtifacts {
        let cap = capture(src).unwrap();
        let files = files();
        let cfg = config(&["race", "age_group"]);
        let mut engine = Engine::new(EngineProfile::disk_based_no_latency());
        SqlBackend::run(&cap.dag, &files, &cfg, &mut engine, mode, materialize).unwrap()
    }

    #[test]
    fn healthcare_runs_in_cte_mode() {
        let artifacts = run_mode(pipelines::HEALTHCARE, SqlMode::Cte, false);
        let acc = artifacts.accuracy().unwrap();
        assert!((0.0..=1.0).contains(&acc), "{acc}");
        // Histograms measured for every frame node.
        assert!(!artifacts.inspections.histograms.is_empty());
    }

    #[test]
    fn healthcare_runs_in_view_mode_with_and_without_materialization() {
        for materialize in [false, true] {
            let artifacts = run_mode(pipelines::HEALTHCARE, SqlMode::View, materialize);
            assert!(artifacts.accuracy().is_ok());
        }
    }

    #[test]
    fn all_pipelines_run_in_both_modes() {
        for (name, src) in pipelines::all() {
            for mode in [SqlMode::Cte, SqlMode::View] {
                let cap = capture(src).unwrap();
                let files = files();
                let cfg = config(&["race"]);
                let mut engine = Engine::new(EngineProfile::in_memory());
                let artifacts = SqlBackend::run(&cap.dag, &files, &cfg, &mut engine, mode, false)
                    .unwrap_or_else(|e| panic!("{name} ({mode:?}): {e}"));
                let acc = artifacts.accuracy().unwrap();
                assert!((0.0..=1.0).contains(&acc), "{name}: {acc}");
            }
        }
    }

    #[test]
    fn age_group_histogram_restored_after_projection() {
        let src = pipelines::HEALTHCARE;
        let cap = capture(src).unwrap();
        let files = files();
        let cfg = config(&["age_group"]);
        let mut engine = Engine::new(EngineProfile::disk_based_no_latency());
        let artifacts =
            SqlBackend::run(&cap.dag, &files, &cfg, &mut engine, SqlMode::Cte, false).unwrap();
        let selection = cap
            .dag
            .nodes
            .iter()
            .find(|n| n.kind.label() == "selection")
            .unwrap();
        let hist = artifacts
            .inspections
            .histogram(selection.id, "age_group")
            .expect("restored histogram");
        assert!(hist.total() > 0);
    }

    #[test]
    fn transpile_only_produces_executable_script() {
        let cap = capture(pipelines::HEALTHCARE).unwrap();
        let files = files();
        let t = SqlBackend::transpile(&cap.dag, &files, SqlMode::Cte).unwrap();
        assert_eq!(t.setup.len(), 2);
        assert!(!t.container.is_empty());
        let script = t.script(SqlMode::Cte, false);
        assert!(script.contains("CREATE TABLE patients_"));
        assert!(script.contains("WITH "));
        // View script renders too.
        let view_script = t.script(SqlMode::View, true);
        assert!(view_script.contains("CREATE MATERIALIZED VIEW fit_"));
    }

    #[test]
    fn lineage_columns_follow_paper_naming() {
        let artifacts = run_mode(pipelines::HEALTHCARE, SqlMode::Cte, false);
        let sample = artifacts
            .inspections
            .lineage
            .values()
            .find(|s| s.ctid_columns.len() == 2)
            .expect("a post-join lineage sample");
        assert!(sample.ctid_columns[0].contains("_mlinid"));
        assert!(sample.ctid_columns[0].ends_with("_ctid"));
    }

    #[test]
    fn transpile_samples_whole_records() {
        // Data row 10 (the sample's last) holds a quoted line break.
        let mut csv = String::from("id,race,note\n");
        for i in 0..20 {
            let note = if i == 9 { "\"two\nlines\"" } else { "one" };
            csv.push_str(&format!("{i},r{},{note}\n", i % 2));
        }
        let cap = capture("data = pd.read_csv('notes.csv')\ndata = data[data['id'] > 3]").unwrap();
        let mut files = FileRegistry::new();
        files.insert("notes.csv", csv);
        let t = SqlBackend::transpile(&cap.dag, &files, SqlMode::Cte).unwrap();
        assert!(
            t.setup[0]
                .create
                .contains("\"id\" INT, \"race\" TEXT, \"note\" TEXT"),
            "{}",
            t.setup[0].create
        );
    }

    #[test]
    fn runs_share_one_parse_per_file_and_na_values() {
        let files = files();
        let cfg = config(&["race"]);
        let cap = capture(pipelines::HEALTHCARE).unwrap();
        let mut engine = Engine::new(EngineProfile::in_memory());
        SqlBackend::run(&cap.dag, &files, &cfg, &mut engine, SqlMode::Cte, false).unwrap();
        let patients = files.parsed("patients.csv", Some("?")).unwrap();
        let clone = files.clone();
        SqlBackend::run(&cap.dag, &clone, &cfg, &mut engine, SqlMode::View, true).unwrap();
        assert!(Rc::ptr_eq(
            &patients,
            &clone.parsed("data/patients.csv", Some("?")).unwrap()
        ));
        // Another `na_values` is another parse, not kept.
        let plain = files.parsed("patients.csv", None).unwrap();
        assert!(!Rc::ptr_eq(&patients, &plain));
        assert_eq!(Rc::strong_count(&plain), 1);

        // Writes to a loaded table leave the shared parse as it was.
        let before = patients.to_rows();
        let columns: Vec<String> = patients
            .columns
            .iter()
            .zip(&patients.types)
            .map(|(c, t)| format!("{} {}", crate::sqlgen::quote_ident(c), t.sql_name()))
            .collect();
        engine
            .execute(&format!("CREATE TABLE p ({})", columns.join(", ")))
            .unwrap();
        engine.copy_rows("p", None, &patients).unwrap();
        let cells = vec!["NULL"; patients.columns.len()].join(", ");
        engine
            .execute(&format!("INSERT INTO p VALUES ({cells})"))
            .unwrap();
        let n = engine.query("SELECT count(*) AS n FROM p").unwrap().rows[0][0].clone();
        assert_eq!(n, Value::Int(before.len() as i64 + 1));
        assert_eq!(patients.to_rows(), before);
        assert!(Rc::ptr_eq(
            &patients,
            &files.parsed("patients.csv", Some("?")).unwrap()
        ));
    }

    #[test]
    fn registry_keeps_at_most_one_parse_per_file() {
        let files = files();
        let first = files.parsed("patients.csv", Some("?")).unwrap();
        for i in 0..50 {
            let na = format!("na{i}");
            let table = files.parsed("patients.csv", Some(&na)).unwrap();
            assert_eq!(Rc::strong_count(&table), 1, "{na} was kept");
        }
        // Only the first read's parse is held: by the registry and `first`.
        assert_eq!(Rc::strong_count(&first), 2);
        assert!(Rc::ptr_eq(
            &first,
            &files.clone().parsed("patients.csv", Some("?")).unwrap()
        ));
    }
}
