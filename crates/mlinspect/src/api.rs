//! The user-facing `PipelineInspector` API (paper Listing 6).

use crate::backends::pandas::{FileRegistry, PandasBackend};
use crate::backends::sql::{SqlBackend, TranspiledSql};
use crate::backends::{NodeRelation, RunArtifacts, RunConfig};
use crate::capture::{capture_with_seed, Captured};
use crate::checks::{evaluate_bias, evaluate_illegal_features, Check, CheckResult};
use crate::dag::{Dag, NodeId};
use crate::error::Result;
use crate::inspection::{Inspection, InspectionResults};
use sqlengine::Engine;
use std::collections::HashMap;
use std::time::{Duration, Instant};

pub use crate::sqlgen::SqlMode;

/// Everything a run produces: the DAG, inspection measurements, check
/// verdicts and (for end-to-end pipelines) model accuracies.
#[derive(Debug, Clone)]
pub struct InspectorResult {
    /// The captured operator DAG.
    pub dag: Dag,
    /// Per-node inspection measurements.
    pub inspections: InspectionResults,
    /// One result per registered check.
    pub check_results: Vec<CheckResult>,
    /// Model accuracies (one per `score` call).
    pub accuracies: Vec<f64>,
    /// Operator outputs (only with [`PipelineInspector::keep_relations`]).
    pub relations: HashMap<NodeId, NodeRelation>,
    /// Per-operator wall-clock times.
    pub op_timings: Vec<(NodeId, String, Duration)>,
    /// Time spent capturing the pipeline source into its DAG.
    pub capture_time: Duration,
    /// Time the SQL backend spent dropping the run's scratch relations.
    pub scratch_drop: Duration,
}

impl InspectorResult {
    /// The single accuracy of a pipeline that scores once.
    pub fn accuracy(&self) -> Option<f64> {
        match self.accuracies.as_slice() {
            [a] => Some(*a),
            _ => None,
        }
    }

    /// True when every check passed.
    pub fn all_checks_passed(&self) -> bool {
        self.check_results.iter().all(CheckResult::passed)
    }
}

/// Builder mirroring mlinspect's `PipelineInspector` with the paper's SQL
/// extension: the same inspection setup can run on the pandas baseline
/// ([`execute`]) or be transpiled to SQL and off-loaded to a database engine
/// ([`execute_in_sql`]).
///
/// [`execute`]: PipelineInspector::execute
/// [`execute_in_sql`]: PipelineInspector::execute_in_sql
pub struct PipelineInspector {
    source: String,
    files: FileRegistry,
    checks: Vec<Check>,
    inspections: Vec<Inspection>,
    seed: u64,
    keep_relations: bool,
}

impl PipelineInspector {
    /// Start from pipeline source code.
    pub fn on_pipeline(source: impl Into<String>) -> PipelineInspector {
        PipelineInspector {
            source: source.into(),
            files: FileRegistry::new(),
            checks: Vec::new(),
            inspections: Vec::new(),
            seed: 0,
            keep_relations: false,
        }
    }

    /// Register an in-memory CSV under the path the pipeline reads.
    pub fn with_file(mut self, path: impl Into<String>, content: impl Into<String>) -> Self {
        self.files.insert(path, content);
        self
    }

    /// Seed for the stochastic steps (split, model init) — Table 5 varies it.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Keep every operator's full output (equivalence testing).
    pub fn keep_relations(mut self, keep: bool) -> Self {
        self.keep_relations = keep;
        self
    }

    /// Add the `NoBiasIntroducedFor` check (implies `HistogramForColumns`).
    pub fn no_bias_introduced_for(mut self, columns: &[&str], threshold: f64) -> Self {
        let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
        self.inspections
            .push(Inspection::HistogramForColumns(columns.clone()));
        self.checks
            .push(Check::NoBiasIntroducedFor { columns, threshold });
        self
    }

    /// Add the `NoIllegalFeatures` check.
    pub fn no_illegal_features(mut self, blacklist: &[&str]) -> Self {
        self.checks.push(Check::NoIllegalFeatures {
            blacklist: blacklist.iter().map(|c| c.to_string()).collect(),
        });
        self
    }

    /// Add a raw inspection.
    pub fn add_inspection(mut self, inspection: Inspection) -> Self {
        self.inspections.push(inspection);
        self
    }

    fn run_config(&self) -> RunConfig {
        // Merge histogram column lists.
        let mut columns: Vec<String> = Vec::new();
        for i in &self.inspections {
            if let Inspection::HistogramForColumns(cols) = i {
                for c in cols {
                    if !columns.contains(c) {
                        columns.push(c.clone());
                    }
                }
            }
        }
        let mut inspections: Vec<Inspection> = self
            .inspections
            .iter()
            .filter(|i| !matches!(i, Inspection::HistogramForColumns(_)))
            .cloned()
            .collect();
        if !columns.is_empty() {
            inspections.push(Inspection::HistogramForColumns(columns));
        }
        RunConfig {
            inspections,
            keep_relations: self.keep_relations,
            force_outputs: false,
            baseline_costs: Default::default(),
        }
    }

    /// Capture the pipeline, timed.
    fn capture(&self) -> Result<(Captured, Duration)> {
        let started = Instant::now();
        let captured = capture_with_seed(&self.source, self.seed)?;
        Ok((captured, started.elapsed()))
    }

    fn finish(
        &self,
        (captured, capture_time): (Captured, Duration),
        artifacts: RunArtifacts,
    ) -> InspectorResult {
        let mut check_results = Vec::new();
        for check in &self.checks {
            check_results.push(match check {
                Check::NoBiasIntroducedFor { columns, threshold } => {
                    evaluate_bias(&captured.dag, &artifacts.inspections, columns, *threshold)
                }
                Check::NoIllegalFeatures { blacklist } => {
                    evaluate_illegal_features(&captured.dag, blacklist)
                }
            });
        }
        InspectorResult {
            dag: captured.dag,
            inspections: artifacts.inspections,
            check_results,
            accuracies: artifacts.accuracies,
            relations: artifacts.relations,
            op_timings: artifacts.op_timings,
            capture_time,
            scratch_drop: artifacts.scratch_drop,
        }
    }

    /// Execute on the pandas baseline backend.
    pub fn execute(self) -> Result<InspectorResult> {
        let captured = self.capture()?;
        let config = self.run_config();
        let artifacts = PandasBackend::run(&captured.0.dag, &self.files, &config)?;
        Ok(self.finish(captured, artifacts))
    }

    /// Transpile to SQL and execute on the given engine (paper Listing 6's
    /// `execute_in_sql(dbms=..., mode=..., materialize=...)`).
    pub fn execute_in_sql(
        self,
        engine: &mut Engine,
        mode: SqlMode,
        materialize: bool,
    ) -> Result<InspectorResult> {
        let captured = self.capture()?;
        let config = self.run_config();
        let artifacts = SqlBackend::run(
            &captured.0.dag,
            &self.files,
            &config,
            engine,
            mode,
            materialize,
        )?;
        Ok(self.finish(captured, artifacts))
    }

    /// Generate the SQL without executing it.
    pub fn transpile_only(self, mode: SqlMode) -> Result<TranspiledSql> {
        let (captured, _) = self.capture()?;
        SqlBackend::transpile(&captured.dag, &self.files, mode)
    }
}

/// One operator's bias verdict in an [`InspectionReport`]: how much the
/// operator shifted a sensitive column's value ratios versus its input.
#[derive(Debug, Clone, PartialEq)]
pub struct OpBiasVerdict {
    /// The inspected operator.
    pub node: NodeId,
    /// Operator label (e.g. `selection`, `join`).
    pub label: &'static str,
    /// 1-based pipeline source line.
    pub line: usize,
    /// The sensitive column.
    pub column: String,
    /// Largest absolute ratio change at this operator.
    pub max_abs_change: f64,
    /// True when the change stays below the threshold.
    pub passed: bool,
}

/// One pipeline line's runtime trace inside an [`InspectionReport`]: where
/// the time went and where rows were gained or lost, in DAG order.
#[derive(Debug, Clone, PartialEq)]
pub struct LineTrace {
    /// The traced operator.
    pub node: NodeId,
    /// 1-based pipeline source line.
    pub line: usize,
    /// Operator label (e.g. `selection`, `join`).
    pub label: &'static str,
    /// Wall-clock execution time of this operator, microseconds.
    pub time_us: u64,
    /// Rows entering the operator (first input's inspected cardinality),
    /// `None` when no histogram covered the input.
    pub rows_in: Option<u64>,
    /// Rows leaving the operator, `None` when uninspected.
    pub rows_out: Option<u64>,
}

impl LineTrace {
    /// Rows gained (positive) or lost (negative) at this operator.
    pub fn row_delta(&self) -> Option<i64> {
        match (self.rows_in, self.rows_out) {
            (Some(i), Some(o)) => Some(o as i64 - i as i64),
            _ => None,
        }
    }
}

/// The serving layer's inspection result: check verdicts plus one line per
/// (distribution-changing operator × sensitive column), renderable as a
/// plain-text wire body.
#[derive(Debug, Clone)]
pub struct InspectionReport {
    /// Check verdicts (`NoBiasIntroducedFor`, one per requested column set).
    pub check_results: Vec<CheckResult>,
    /// Per-operation bias verdicts.
    pub ops: Vec<OpBiasVerdict>,
    /// Model accuracies for end-to-end pipelines.
    pub accuracies: Vec<f64>,
    /// Per-pipeline-line timing and row-count deltas, in DAG order.
    pub lines: Vec<LineTrace>,
    /// Time spent capturing the pipeline source into its DAG, microseconds
    /// (not rendered: like `lines[].time_us`, it feeds the server's trace).
    pub capture_us: u64,
    /// Time spent dropping the run's scratch relations, microseconds.
    pub scratch_drop_us: u64,
}

impl InspectionReport {
    /// True when no operator exceeded the threshold.
    pub fn all_passed(&self) -> bool {
        self.check_results.iter().all(CheckResult::passed)
    }

    /// Render as stable, line-oriented text (one `op ...` line per verdict),
    /// the body the server returns for `INSPECT`.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let verdict = if self.all_passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "inspection verdict={verdict} checks={} ops={}",
            self.check_results.len(),
            self.ops.len()
        );
        for acc in &self.accuracies {
            let _ = writeln!(out, "accuracy {acc:.4}");
        }
        for op in &self.ops {
            let _ = writeln!(
                out,
                "op id={} label={} line={} column={} max_change={:.4} verdict={}",
                op.node,
                op.label,
                op.line,
                op.column,
                op.max_abs_change,
                if op.passed { "ok" } else { "biased" }
            );
        }
        for trace in &self.lines {
            let fmt_rows = |r: Option<u64>| match r {
                Some(n) => n.to_string(),
                None => "?".to_string(),
            };
            let delta = match trace.row_delta() {
                Some(d) => format!("{d:+}"),
                None => "?".to_string(),
            };
            let _ = writeln!(
                out,
                "line no={} op={} time_us={} rows_in={} rows_out={} delta={}",
                trace.line,
                trace.label,
                trace.time_us,
                fmt_rows(trace.rows_in),
                fmt_rows(trace.rows_out),
                delta
            );
        }
        out
    }
}

/// Run a pipeline end-to-end on the SQL backend and report per-operation
/// bias verdicts.
///
/// `files` registers in-memory CSVs under the paths the pipeline reads;
/// `columns`/`threshold` parameterize `NoBiasIntroducedFor`.
pub fn inspect_pipeline_in_sql(
    source: &str,
    files: &[(String, String)],
    columns: &[&str],
    threshold: f64,
    engine: &mut Engine,
    mode: SqlMode,
    materialize: bool,
) -> Result<InspectionReport> {
    let mut registry = FileRegistry::new();
    for (path, content) in files {
        registry.insert(path.clone(), content.clone());
    }
    inspect_registered(
        source,
        &registry,
        columns,
        threshold,
        engine,
        mode,
        materialize,
    )
}

/// [`inspect_pipeline_in_sql`] over a registry the caller keeps, so each
/// input is parsed once however many inspections read it — the entry the
/// serving layer (`elephant-server`'s `INSPECT` verb) calls.
pub fn inspect_registered(
    source: &str,
    files: &FileRegistry,
    columns: &[&str],
    threshold: f64,
    engine: &mut Engine,
    mode: SqlMode,
    materialize: bool,
) -> Result<InspectionReport> {
    let mut inspector = PipelineInspector::on_pipeline(source);
    // A clone shares every table the caller's registry has parsed.
    inspector.files = files.clone();
    let result = inspector
        .no_bias_introduced_for(columns, threshold)
        .execute_in_sql(engine, mode, materialize)?;

    let mut ops = Vec::new();
    for node in &result.dag.nodes {
        if !node.kind.can_change_distribution() {
            continue;
        }
        let Some(input) = node.kind.inputs().first().copied() else {
            continue;
        };
        for column in columns {
            let (Some(before), Some(after)) = (
                result.inspections.histogram(input, column),
                result.inspections.histogram(node.id, column),
            ) else {
                continue;
            };
            let change = crate::inspection::HistogramChange {
                column: column.to_string(),
                before: before.clone(),
                after: after.clone(),
            };
            let max = change.max_abs_change();
            ops.push(OpBiasVerdict {
                node: node.id,
                label: node.kind.label(),
                line: node.line,
                column: column.to_string(),
                max_abs_change: max,
                passed: max < threshold,
            });
        }
    }
    // Per-line runtime trace: operator timing from the backend run, row
    // cardinalities from the first inspected column's histograms.
    let mut node_time: HashMap<NodeId, u64> = HashMap::new();
    for (id, _, elapsed) in &result.op_timings {
        *node_time.entry(*id).or_default() += elapsed.as_micros() as u64;
    }
    let node_rows = |id: NodeId| -> Option<u64> {
        columns
            .iter()
            .find_map(|c| result.inspections.histogram(id, c))
            .map(|h| h.total())
    };
    let mut lines = Vec::with_capacity(result.dag.nodes.len());
    for node in &result.dag.nodes {
        let rows_in = node.kind.inputs().first().copied().and_then(&node_rows);
        lines.push(LineTrace {
            node: node.id,
            line: node.line,
            label: node.kind.label(),
            time_us: node_time.get(&node.id).copied().unwrap_or(0),
            rows_in,
            rows_out: node_rows(node.id),
        });
    }

    Ok(InspectionReport {
        check_results: result.check_results,
        ops,
        accuracies: result.accuracies,
        lines,
        capture_us: result.capture_time.as_micros() as u64,
        scratch_drop_us: result.scratch_drop.as_micros() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MlError;
    use crate::pipelines;
    use sqlengine::EngineProfile;

    fn inspector(src: &str) -> PipelineInspector {
        PipelineInspector::on_pipeline(src)
            .with_file("patients.csv", datagen::patients_csv(150, 1))
            .with_file("histories.csv", datagen::histories_csv(150, 1))
    }

    #[test]
    fn listing6_style_usage() {
        // Mirrors Listing 6: inspect race and age_group, run in a DBMS.
        let mut engine = Engine::new(EngineProfile::disk_based_no_latency());
        let result = inspector(pipelines::HEALTHCARE)
            .no_bias_introduced_for(&["race", "age_group"], 0.3)
            .no_illegal_features(&["race"])
            .execute_in_sql(&mut engine, SqlMode::View, true)
            .unwrap();
        assert_eq!(result.check_results.len(), 2);
        // race is used as a feature -> NoIllegalFeatures fails.
        assert!(!result.check_results[1].passed());
        assert!(result.accuracy().is_some());
    }

    #[test]
    fn both_backends_produce_check_results() {
        let baseline = inspector(pipelines::HEALTHCARE)
            .no_bias_introduced_for(&["age_group"], 0.25)
            .execute()
            .unwrap();
        let mut engine = Engine::new(EngineProfile::in_memory());
        let sql = inspector(pipelines::HEALTHCARE)
            .no_bias_introduced_for(&["age_group"], 0.25)
            .execute_in_sql(&mut engine, SqlMode::Cte, false)
            .unwrap();
        assert_eq!(
            baseline.check_results[0].passed(),
            sql.check_results[0].passed()
        );
    }

    #[test]
    fn kbins_with_fewer_than_two_bins_is_refused_by_both_backends() {
        for bins in [0, 1] {
            let src = pipelines::COMPAS.replace(
                "KBinsDiscretizer(n_bins=4",
                &format!("KBinsDiscretizer(n_bins={bins}"),
            );
            // Capture errors carry the line of the statement, here the
            // `Pipeline([...])` that holds the discretizer.
            let line = 1 + src
                .lines()
                .position(|l| l.starts_with("impute2_and_bin = Pipeline(["))
                .unwrap();
            let inspector = || {
                PipelineInspector::on_pipeline(src.as_str())
                    .with_file("compas_train.csv", datagen::compas_csv(200, 2))
                    .with_file("compas_test.csv", datagen::compas_csv(80, 3))
            };
            let pandas = inspector().execute().unwrap_err();
            let mut engine = Engine::new(EngineProfile::in_memory());
            let sql = inspector()
                .execute_in_sql(&mut engine, SqlMode::Cte, false)
                .unwrap_err();
            for err in [pandas, sql] {
                assert!(
                    matches!(err, MlError::Capture { line: l, .. } if l == line),
                    "n_bins={bins}: {err:?}"
                );
                assert_eq!(
                    err.to_string(),
                    format!(
                        "line {line}: KBinsDiscretizer(n_bins={bins}): n_bins must be at least 2"
                    )
                );
            }
        }
    }

    #[test]
    fn transpile_only_requires_no_engine() {
        let sql = inspector(pipelines::HEALTHCARE)
            .transpile_only(SqlMode::Cte)
            .unwrap();
        assert!(sql.container.len() > 5);
    }

    #[test]
    fn server_entry_reports_per_op_verdicts() {
        let mut engine = Engine::new(EngineProfile::in_memory());
        let files = vec![
            ("patients.csv".to_string(), datagen::patients_csv(150, 1)),
            ("histories.csv".to_string(), datagen::histories_csv(150, 1)),
        ];
        let report = inspect_pipeline_in_sql(
            pipelines::HEALTHCARE,
            &files,
            &["age_group"],
            0.3,
            &mut engine,
            SqlMode::Cte,
            false,
        )
        .unwrap();
        assert_eq!(report.check_results.len(), 1);
        assert!(!report.ops.is_empty());
        let text = report.render();
        assert!(text.starts_with("inspection verdict="));
        assert!(text.contains("op id="));
        // One op line per verdict entry, all for the inspected column.
        assert_eq!(text.matches("column=age_group").count(), report.ops.len());

        // Per-line runtime trace: one entry per DAG node, with row deltas
        // where histograms covered the operator.
        assert!(!report.lines.is_empty());
        assert!(report.lines.iter().any(|l| l.rows_out.is_some()));
        assert!(report.lines.iter().any(|l| l.row_delta().is_some()));
        // The selection drops rows, so some delta must be negative.
        assert!(report
            .lines
            .iter()
            .filter_map(LineTrace::row_delta)
            .any(|d| d < 0));
        assert_eq!(text.matches("line no=").count(), report.lines.len());
        assert!(text.contains("time_us="), "{text}");
        assert!(text.contains("delta="), "{text}");
    }
}
