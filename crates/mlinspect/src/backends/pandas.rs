//! The pandas baseline backend.
//!
//! Executes the DAG eagerly on the `dataframe` crate — one fully
//! materialized frame per operator, exactly the cost model the paper's SQL
//! off-loading competes with. Lineage is threaded mlinspect-style as hidden
//! annotation columns (`__ctid_<n>`), which is what lets the baseline run
//! the same `HistogramForColumns` inspection.

use super::{
    ctid_column, labels_to_f64, split_hash, BaselineCosts, NodeRelation, RunArtifacts, RunConfig,
    CTID_PREFIX,
};
use crate::dag::{
    CtStep, Dag, ImputeKind, ModelKind, NodeId, OpKind, SExpr, SplitPart, TransformerKind,
};
use crate::error::{MlError, Result};
use crate::inspection::{ColumnHistogram, FirstRowsSample, RowLineageSample};
use dataframe::{AggSpec, DataFrame, ElemOp, JoinType, Series};
use etypes::{CsvOptions, CsvTable, Value};
use pyparser::{BinOp, UnaryOp};
use sklearn::{
    Binarizer, ColumnTransformer, ImputeStrategy, KBinsDiscretizer, LogisticRegression, Matrix,
    MlpClassifier, OneHotEncoder, Pipeline as SkPipeline, SimpleImputer, StandardScaler,
};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::rc::Rc;

/// In-memory file registry: pipeline path → CSV text. A pipeline reads
/// only registered files (a path matches by its full text or by its
/// basename); anything else is [`MlError::MissingFile`].
///
/// The first read of a file also keeps the table parsed with that read's
/// `na_values`, and every later read with the same `na_values` — by this
/// registry or any clone of it — shares it. A read with any other
/// `na_values` parses the file for that read only, so the registry holds
/// at most one parsed table per registered file, whatever the pipelines
/// name.
#[derive(Debug, Clone, Default)]
pub struct FileRegistry {
    files: HashMap<String, Rc<RegisteredFile>>,
}

#[derive(Debug)]
struct RegisteredFile {
    text: String,
    /// The table parsed on the file's first read, with its `na_values`.
    parsed: OnceCell<(Option<String>, Rc<CsvTable>)>,
}

impl FileRegistry {
    /// Empty registry.
    pub fn new() -> FileRegistry {
        FileRegistry::default()
    }

    /// Register a file under a path (basename matching is used at lookup),
    /// replacing any file registered there before.
    pub fn insert(&mut self, path: impl Into<String>, content: impl Into<String>) {
        let file = RegisteredFile {
            text: content.into(),
            parsed: OnceCell::new(),
        };
        self.files.insert(path.into(), Rc::new(file));
    }

    fn file(&self, path: &str) -> Result<&RegisteredFile> {
        let base = path.rsplit('/').next().unwrap_or(path);
        self.files
            .get(path)
            .or_else(|| self.files.get(base))
            .map(|file| &**file)
            .ok_or_else(|| MlError::MissingFile(path.to_string()))
    }

    /// The CSV text registered for a pipeline-referenced path.
    pub fn resolve(&self, path: &str) -> Result<&str> {
        Ok(&self.file(path)?.text)
    }

    /// The file at `path` parsed with `na_values`: the kept table when the
    /// file's first read used the same `na_values`, else a fresh parse,
    /// kept only when it is the file's first.
    pub(crate) fn parsed(&self, path: &str, na_values: Option<&str>) -> Result<Rc<CsvTable>> {
        let file = self.file(path)?;
        let parse = || etypes::read_csv_str(&file.text, &csv_options(na_values)).map(Rc::new);
        match file.parsed.get() {
            Some((na, table)) if na.as_deref() == na_values => Ok(Rc::clone(table)),
            Some(_) => Ok(parse()?),
            None => {
                let table = parse()?;
                let kept = (na_values.map(str::to_string), Rc::clone(&table));
                // Nothing can have filled the cell since `get`: parsing
                // does not call back into the registry.
                let _ = file.parsed.set(kept);
                Ok(table)
            }
        }
    }
}

/// `pd.read_csv`'s options for a pipeline's `na_values`.
pub(crate) fn csv_options(na_values: Option<&str>) -> CsvOptions {
    let opts = CsvOptions::default();
    match na_values {
        Some(na) => opts.with_na(na),
        None => opts,
    }
}

enum FittedModel {
    LogReg(LogisticRegression),
    Mlp(MlpClassifier),
}

/// The baseline executor.
pub struct PandasBackend<'a> {
    files: &'a FileRegistry,
    config: &'a RunConfig,
    frames: HashMap<NodeId, DataFrame>,
    matrices: HashMap<NodeId, Matrix>,
    transformers: HashMap<NodeId, ColumnTransformer>,
    models: HashMap<NodeId, FittedModel>,
    artifacts: RunArtifacts,
}

impl<'a> PandasBackend<'a> {
    /// Execute a DAG against registered files.
    pub fn run(dag: &Dag, files: &'a FileRegistry, config: &'a RunConfig) -> Result<RunArtifacts> {
        let mut backend = PandasBackend {
            files,
            config,
            frames: HashMap::new(),
            matrices: HashMap::new(),
            transformers: HashMap::new(),
            models: HashMap::new(),
            artifacts: RunArtifacts::default(),
        };
        for node in &dag.nodes {
            let started = std::time::Instant::now();
            backend.execute(node.id, &node.kind)?;
            backend.artifacts.op_timings.push((
                node.id,
                node.kind.label().to_string(),
                started.elapsed(),
            ));
        }
        Ok(backend.artifacts)
    }

    /// Borrow a produced frame.
    fn frame(&self, id: NodeId) -> Result<&DataFrame> {
        self.frames
            .get(&id)
            .ok_or_else(|| MlError::Internal(format!("missing frame for node {id}")))
    }

    fn execute(&mut self, id: NodeId, kind: &OpKind) -> Result<()> {
        match kind {
            OpKind::ReadCsv { file, na_values } => {
                let text = self.files.resolve(file)?;
                let opts = csv_options(na_values.as_deref());
                let mut df = dataframe::read_csv_str(text, &opts)?;
                let n = df.len();
                df.insert(Series::new(
                    ctid_column(id),
                    (0..n as i64).map(Value::Int).collect(),
                ))?;
                self.finish_frame(id, kind, df)?;
            }
            OpKind::Join { left, right, on } => {
                let l = self.frame(*left)?;
                let r = self.frame(*right)?;
                let keys: Vec<&str> = on.iter().map(String::as_str).collect();
                let joined = l.merge(r, &keys, JoinType::Inner)?;
                self.finish_frame(id, kind, joined)?;
            }
            OpKind::GroupByAgg { input, keys, aggs } => {
                let df = self.frame(*input)?;
                let key_refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                // The baseline's groupby drops annotation columns (pandas has
                // no array_agg); sensitive columns among the group keys stay
                // inspectable, everything else is restored downstream after
                // the merge-back.
                let specs: Vec<AggSpec> = aggs.clone();
                let agg = df.groupby(&key_refs)?.agg(&specs)?;
                self.finish_frame(id, kind, agg)?;
            }
            OpKind::SetItem {
                input,
                column,
                expr,
            } => {
                let df = self.frame(*input)?.clone();
                let series = eval_sexpr(&df, expr)?;
                let mut out = df;
                out.set_column(column, series)?;
                self.finish_frame(id, kind, out)?;
            }
            OpKind::Project { input, columns } => {
                let df = self.frame(*input)?;
                // Keep requested columns plus all annotation columns.
                let mut keep: Vec<&str> = columns.iter().map(String::as_str).collect();
                for c in df.column_names() {
                    if c.starts_with(CTID_PREFIX) {
                        keep.push(c);
                    }
                }
                let out = df.select(&keep)?;
                self.finish_frame(id, kind, out)?;
            }
            OpKind::Filter { input, condition } => {
                let df = self.frame(*input)?;
                let mask = eval_sexpr(df, condition)?;
                let out = df.filter(&mask)?;
                self.finish_frame(id, kind, out)?;
            }
            OpKind::DropNa { input } => {
                let df = self.frame(*input)?;
                self.finish_frame(id, kind, df.dropna())?;
            }
            OpKind::Replace { input, from, to } => {
                let df = self.frame(*input)?;
                self.finish_frame(id, kind, df.replace(from, to))?;
            }
            OpKind::FillNa { input, value } => {
                let df = self.frame(*input)?;
                let filled = DataFrame::from_columns(
                    df.columns()
                        .iter()
                        .map(|s| {
                            if s.name().starts_with(CTID_PREFIX) {
                                s.clone()
                            } else {
                                s.fillna(value)
                            }
                        })
                        .collect(),
                )?;
                self.finish_frame(id, kind, filled)?;
            }
            OpKind::Head { input, n } => {
                let df = self.frame(*input)?;
                let out = df.head(*n as usize);
                self.finish_frame(id, kind, out)?;
            }
            OpKind::SortValues {
                input,
                by,
                ascending,
            } => {
                let df = self.frame(*input)?;
                let keys: Vec<&str> = by.iter().map(String::as_str).collect();
                let mut out = df.sort_by(&keys)?;
                if !ascending {
                    let idx: Vec<usize> = (0..out.len()).rev().collect();
                    out = out.take(&idx);
                }
                self.finish_frame(id, kind, out)?;
            }
            OpKind::DropColumns { input, columns } => {
                let df = self.frame(*input)?;
                let drop: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.finish_frame(id, kind, df.drop_columns(&drop))?;
            }
            OpKind::LabelBinarize {
                input,
                column,
                classes,
            } => {
                let df = self.frame(*input)?;
                let labels = sklearn::label_binarize(
                    df.column(column)?.values(),
                    &[classes[0].clone(), classes[1].clone()],
                )?;
                let mut out = DataFrame::new();
                out.insert(Series::new(
                    "label",
                    labels.into_iter().map(Value::Int).collect(),
                ))?;
                for c in df.column_names() {
                    if c.starts_with(CTID_PREFIX) {
                        out.insert(df.column(c)?.clone())?;
                    }
                }
                self.finish_frame(id, kind, out)?;
            }
            OpKind::Split {
                input,
                part,
                test_percent,
                seed,
            } => {
                let df = self.frame(*input)?;
                let ctid_col = df
                    .column_names()
                    .iter()
                    .find(|c| c.starts_with(CTID_PREFIX))
                    .map(|c| c.to_string())
                    .ok_or_else(|| MlError::Internal("split without lineage column".to_string()))?;
                let ids = df.column(&ctid_col)?;
                let mask_vals: Vec<Value> = ids
                    .values()
                    .iter()
                    .map(|v| {
                        let ctid = v.as_i64().map_err(MlError::Value)?;
                        let in_test = split_hash(ctid, *seed) < *test_percent as i64;
                        Ok(Value::Bool(match part {
                            SplitPart::Train => !in_test,
                            SplitPart::Test => in_test,
                        }))
                    })
                    .collect::<Result<_>>()?;
                let out = df.filter(&Series::new("mask", mask_vals))?;
                self.finish_frame(id, kind, out)?;
            }
            OpKind::FeatureTransform {
                input,
                steps,
                fit_node,
            } => {
                let df = self.frame(*input)?.clone();
                let matrix = match fit_node {
                    None => {
                        let mut ct = build_column_transformer(steps);
                        let m = ct.fit_transform(&df)?;
                        self.transformers.insert(id, ct);
                        m
                    }
                    Some(f) => {
                        let ct = self.transformers.get(f).ok_or_else(|| {
                            MlError::Internal(format!("no fitted transformer at node {f}"))
                        })?;
                        ct.transform(&df)?
                    }
                };
                // Simulated CPython/monkey-patching overhead per transformed
                // cell (see BaselineCosts).
                BaselineCosts::charge(
                    self.config.baseline_costs.sklearn_nanos_per_cell,
                    matrix.nrows() * matrix.ncols(),
                );
                self.matrices.insert(id, matrix);
            }
            OpKind::ModelFit {
                features,
                labels,
                model,
                seed,
            } => {
                let x = self
                    .matrices
                    .get(features)
                    .ok_or_else(|| MlError::Internal("missing feature matrix".into()))?;
                let y = self.labels(labels)?;
                let fitted = match model {
                    ModelKind::LogisticRegression => {
                        let mut m = LogisticRegression::new().with_seed(*seed);
                        m.fit(x, &y)?;
                        FittedModel::LogReg(m)
                    }
                    ModelKind::NeuralNetwork { hidden, epochs } => {
                        let mut m = MlpClassifier::new(*hidden).with_seed(*seed);
                        m.epochs = *epochs;
                        m.fit(x, &y)?;
                        FittedModel::Mlp(m)
                    }
                };
                self.models.insert(id, fitted);
            }
            OpKind::ModelScore {
                model,
                features,
                labels,
            } => {
                let x = self
                    .matrices
                    .get(features)
                    .ok_or_else(|| MlError::Internal("missing feature matrix".into()))?;
                let y = self.labels(labels)?;
                let fitted = self
                    .models
                    .get(model)
                    .ok_or_else(|| MlError::Internal("missing fitted model".into()))?;
                let acc = match fitted {
                    FittedModel::LogReg(m) => m.score(x, &y)?,
                    FittedModel::Mlp(m) => m.score(x, &y)?,
                };
                self.artifacts.accuracies.push(acc);
            }
        }
        Ok(())
    }

    fn labels(&self, labels: &(NodeId, String)) -> Result<Vec<f64>> {
        let frame = self.frame(labels.0)?;
        labels_to_f64(frame.column(&labels.1)?.values())
    }

    /// Store a produced frame and apply the requested inspections.
    fn finish_frame(&mut self, id: NodeId, kind: &OpKind, df: DataFrame) -> Result<()> {
        // Histograms after every frame-producing operator.
        let sensitive = self.config.sensitive_columns();
        if !sensitive.is_empty() {
            let mut hists = Vec::new();
            for col in &sensitive {
                if let Some(h) = self.histogram_for(&df, col)? {
                    // mlinspect's Python-level inspection iterators touch
                    // every row once per measured column.
                    BaselineCosts::charge(
                        self.config.baseline_costs.inspect_nanos_per_row,
                        df.len(),
                    );
                    hists.push(h);
                }
            }
            self.artifacts.inspections.histograms.insert(id, hists);
        }
        if let Some(k) = self.config.lineage_k() {
            let ctid_cols: Vec<String> = df
                .column_names()
                .iter()
                .filter(|c| c.starts_with(CTID_PREFIX))
                .map(|c| c.to_string())
                .collect();
            let rows = (0..df.len().min(k))
                .map(|i| {
                    ctid_cols
                        .iter()
                        .map(|c| df.column(c).map(|s| s.values()[i].clone()))
                        .collect::<dataframe::Result<Vec<_>>>()
                })
                .collect::<dataframe::Result<Vec<_>>>()?;
            self.artifacts.inspections.lineage.insert(
                id,
                RowLineageSample {
                    ctid_columns: ctid_cols,
                    rows,
                },
            );
        }
        if let Some(k) = self.config.first_rows_k() {
            let visible = visible_columns(&df);
            let proj = df.select(&visible.iter().map(String::as_str).collect::<Vec<_>>())?;
            self.artifacts.inspections.first_rows.insert(
                id,
                FirstRowsSample {
                    columns: visible,
                    rows: proj.head(k).to_rows(),
                },
            );
        }
        if self.config.keep_relations && kind.produces_frame() {
            let visible = visible_columns(&df);
            let proj = df.select(&visible.iter().map(String::as_str).collect::<Vec<_>>())?;
            self.artifacts.relations.insert(
                id,
                NodeRelation {
                    columns: visible,
                    rows: proj.to_rows(),
                },
            );
        }
        self.frames.insert(id, df);
        Ok(())
    }

    /// Histogram of a sensitive column: direct when present, otherwise
    /// restored via a lineage column whose source read-frame has it.
    fn histogram_for(&self, df: &DataFrame, column: &str) -> Result<Option<ColumnHistogram>> {
        let values: Option<Vec<Value>> = if df.has_column(column) {
            Some(df.column(column)?.values().to_vec())
        } else {
            let mut restored = None;
            for c in df.column_names() {
                let Some(src) = c.strip_prefix(CTID_PREFIX) else {
                    continue;
                };
                let Ok(src_id) = src.parse::<NodeId>() else {
                    continue;
                };
                let Some(orig) = self.frames.get(&src_id) else {
                    continue;
                };
                if !orig.has_column(column) {
                    continue;
                }
                // ctid == row index in the original frame.
                let orig_vals = orig.column(column)?.values();
                let vals = df
                    .column(c)?
                    .values()
                    .iter()
                    .map(|v| {
                        let i = v.as_i64().map_err(MlError::Value)? as usize;
                        Ok(orig_vals[i].clone())
                    })
                    .collect::<Result<Vec<_>>>()?;
                restored = Some(vals);
                break;
            }
            restored
        };
        let Some(values) = values else {
            return Ok(None);
        };
        let mut counts: HashMap<Value, u64> = HashMap::new();
        for v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        Ok(Some(ColumnHistogram::new(
            column,
            counts.into_iter().collect(),
        )))
    }
}

fn visible_columns(df: &DataFrame) -> Vec<String> {
    df.column_names()
        .iter()
        .filter(|c| !c.starts_with(CTID_PREFIX))
        .map(|c| c.to_string())
        .collect()
}

fn build_column_transformer(steps: &[CtStep]) -> ColumnTransformer {
    let mut ct = ColumnTransformer::new();
    for step in steps {
        let mut chain = SkPipeline::new();
        for t in &step.steps {
            chain = match t {
                TransformerKind::SimpleImputer(k) => chain.then(SimpleImputer::new(match k {
                    ImputeKind::Mean => ImputeStrategy::Mean,
                    ImputeKind::Median => ImputeStrategy::Median,
                    ImputeKind::MostFrequent => ImputeStrategy::MostFrequent,
                })),
                TransformerKind::OneHotEncoder => chain.then(OneHotEncoder::new()),
                TransformerKind::StandardScaler => chain.then(StandardScaler::new()),
                TransformerKind::KBinsDiscretizer(k) => chain.then(KBinsDiscretizer::new(*k)),
                TransformerKind::Binarizer(t) => chain.then(Binarizer::new(*t)),
            };
        }
        let cols: Vec<&str> = step.columns.iter().map(String::as_str).collect();
        ct = ct.with(step.name.clone(), chain, &cols);
    }
    ct
}

/// Evaluate a column expression over a frame, producing a series.
pub fn eval_sexpr(df: &DataFrame, expr: &SExpr) -> Result<Series> {
    Ok(match expr {
        SExpr::Col(c) => df.column(c)?.clone(),
        SExpr::Lit(v) => Series::new("literal", vec![v.clone(); df.len()]),
        SExpr::Binary { op, left, right } => {
            let elem = pandas_op(*op)?;
            match (&**left, &**right) {
                (SExpr::Lit(l), r) => {
                    let rs = eval_sexpr(df, r)?;
                    rs.rbinary_scalar(elem, l)?
                }
                (l, SExpr::Lit(r)) => {
                    let ls = eval_sexpr(df, l)?;
                    ls.binary_scalar(elem, r)?
                }
                (l, r) => {
                    let ls = eval_sexpr(df, l)?;
                    let rs = eval_sexpr(df, r)?;
                    ls.binary(elem, &rs)?
                }
            }
        }
        SExpr::Unary { op, operand } => {
            let s = eval_sexpr(df, operand)?;
            match op {
                UnaryOp::Neg => s.neg()?,
                UnaryOp::Not | UnaryOp::Invert => s.invert()?,
            }
        }
        SExpr::IsIn { expr, list } => {
            let s = eval_sexpr(df, expr)?;
            s.isin(list)
        }
    })
}

fn pandas_op(op: BinOp) -> Result<ElemOp> {
    Ok(match op {
        BinOp::Add => ElemOp::Add,
        BinOp::Sub => ElemOp::Sub,
        BinOp::Mul => ElemOp::Mul,
        BinOp::Div => ElemOp::Div,
        BinOp::Mod => ElemOp::Mod,
        BinOp::Lt => ElemOp::Lt,
        BinOp::Gt => ElemOp::Gt,
        BinOp::Le => ElemOp::Le,
        BinOp::Ge => ElemOp::Ge,
        BinOp::Eq => ElemOp::Eq,
        BinOp::NotEq => ElemOp::NotEq,
        BinOp::BitAnd | BinOp::And => ElemOp::And,
        BinOp::BitOr | BinOp::Or => ElemOp::Or,
        other => {
            return Err(MlError::Internal(format!(
                "unsupported element-wise operator {other}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::capture;
    use crate::inspection::Inspection;
    use crate::pipelines;

    fn healthcare_files() -> FileRegistry {
        let mut files = FileRegistry::new();
        files.insert("patients.csv", datagen::patients_csv(200, 1));
        files.insert("histories.csv", datagen::histories_csv(200, 1));
        files
    }

    fn config(sensitive: &[&str]) -> RunConfig {
        RunConfig {
            inspections: vec![
                Inspection::HistogramForColumns(sensitive.iter().map(|s| s.to_string()).collect()),
                Inspection::RowLineage(3),
                Inspection::MaterializeFirstOutputRows(3),
            ],
            keep_relations: true,
            force_outputs: false,
            baseline_costs: super::BaselineCosts::zero(),
        }
    }

    #[test]
    fn runs_healthcare_end_to_end() {
        let cap = capture(pipelines::HEALTHCARE).unwrap();
        let files = healthcare_files();
        let cfg = config(&["race", "age_group"]);
        let artifacts = PandasBackend::run(&cap.dag, &files, &cfg).unwrap();
        let acc = artifacts.accuracy().unwrap();
        assert!((0.0..=1.0).contains(&acc), "{acc}");
    }

    #[test]
    fn histogram_restored_after_projection_removed_column() {
        // age_group is projected away at the healthcare projection; the
        // histogram must still be measurable via lineage.
        let cap = capture(pipelines::HEALTHCARE).unwrap();
        let files = healthcare_files();
        let cfg = config(&["age_group"]);
        let artifacts = PandasBackend::run(&cap.dag, &files, &cfg).unwrap();
        let selection = cap
            .dag
            .nodes
            .iter()
            .find(|n| n.kind.label() == "selection")
            .unwrap();
        let hist = artifacts
            .inspections
            .histogram(selection.id, "age_group")
            .expect("age_group histogram after county selection");
        assert!(hist.total() > 0);
    }

    #[test]
    fn county_filter_changes_age_group_ratio() {
        let cap = capture(pipelines::HEALTHCARE).unwrap();
        let files = healthcare_files();
        let cfg = config(&["age_group"]);
        let artifacts = PandasBackend::run(&cap.dag, &files, &cfg).unwrap();
        let selection = cap
            .dag
            .nodes
            .iter()
            .find(|n| n.kind.label() == "selection")
            .unwrap();
        let input = selection.kind.inputs()[0];
        let before = artifacts.inspections.histogram(input, "age_group").unwrap();
        let after = artifacts
            .inspections
            .histogram(selection.id, "age_group")
            .unwrap();
        // The selection drops county1, where age_group1 concentrates.
        assert!(after.total() < before.total());
    }

    #[test]
    fn lineage_and_first_rows_sampled() {
        let cap = capture(pipelines::HEALTHCARE).unwrap();
        let files = healthcare_files();
        let cfg = config(&["race"]);
        let artifacts = PandasBackend::run(&cap.dag, &files, &cfg).unwrap();
        let join = cap
            .dag
            .nodes
            .iter()
            .find(|n| n.kind.label() == "merge")
            .unwrap();
        let lineage = &artifacts.inspections.lineage[&join.id];
        assert_eq!(lineage.ctid_columns.len(), 2);
        assert!(lineage.len() <= 3);
        let rows = &artifacts.inspections.first_rows[&join.id];
        assert!(!rows.columns.iter().any(|c| c.starts_with(CTID_PREFIX)));
    }

    #[test]
    fn runs_all_four_pipelines() {
        let mut files = healthcare_files();
        files.insert("compas_train.csv", datagen::compas_csv(300, 2));
        files.insert("compas_test.csv", datagen::compas_csv(100, 3));
        files.insert("adult_train.csv", datagen::adult_csv(400, 4));
        files.insert("adult_test.csv", datagen::adult_csv(150, 5));
        for (name, src) in pipelines::all() {
            let cap = capture(src).unwrap();
            let cfg = config(&["race"]);
            let artifacts = PandasBackend::run(&cap.dag, &files, &cfg)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let acc = artifacts.accuracy().unwrap();
            assert!((0.0..=1.0).contains(&acc), "{name}: {acc}");
        }
    }

    #[test]
    fn missing_file_is_reported() {
        let cap = capture("t = pd.read_csv('nope.csv')").unwrap();
        let files = FileRegistry::new();
        let cfg = RunConfig::default();
        assert!(matches!(
            PandasBackend::run(&cap.dag, &files, &cfg),
            Err(MlError::MissingFile(_))
        ));
    }
}
