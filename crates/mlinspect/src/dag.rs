//! The operator DAG extracted from a pipeline.
//!
//! Running mlinspect "returns a dataflow directed acyclic graph (DAG)
//! representing the pipeline" (paper §4). Capture produces this DAG once;
//! both backends execute it, and inspections/checks attach their results to
//! its nodes.

use etypes::Value;
use pyparser::{BinOp, UnaryOp};

/// Identifier of a data-producing DAG node (also used as the id of the
/// dataframe-like object the node produces — the paper's "dummy object").
pub type NodeId = usize;

/// A column-level expression over a single frame (the paper's
/// "execution tree" inside the SQL mapping, §5.1.3/§5.1.4).
#[derive(Debug, Clone, PartialEq)]
pub enum SExpr {
    /// Column of the frame.
    Col(String),
    /// Literal scalar.
    Lit(Value),
    /// Element-wise binary operation.
    Binary {
        /// Operator (pandas spelling).
        op: BinOp,
        /// Left operand.
        left: Box<SExpr>,
        /// Right operand.
        right: Box<SExpr>,
    },
    /// Element-wise unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<SExpr>,
    },
    /// `series.isin([...])`.
    IsIn {
        /// Tested expression.
        expr: Box<SExpr>,
        /// Candidate values.
        list: Vec<Value>,
    },
}

impl SExpr {
    /// Columns this expression reads.
    pub fn columns(&self, out: &mut Vec<String>) {
        match self {
            SExpr::Col(c) => out.push(c.clone()),
            SExpr::Lit(_) => {}
            SExpr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            SExpr::Unary { operand, .. } => operand.columns(out),
            SExpr::IsIn { expr, .. } => expr.columns(out),
        }
    }
}

/// A preprocessing transformer step (paper §5.2).
#[derive(Debug, Clone, PartialEq)]
pub enum TransformerKind {
    /// `SimpleImputer(strategy=...)`.
    SimpleImputer(ImputeKind),
    /// `OneHotEncoder(...)`.
    OneHotEncoder,
    /// `StandardScaler()`.
    StandardScaler,
    /// `KBinsDiscretizer(n_bins=k, strategy='uniform')`.
    KBinsDiscretizer(usize),
    /// `Binarizer(threshold=t)`.
    Binarizer(f64),
}

/// Imputation strategies (mirrors `sklearn::ImputeStrategy`, kept separate so
/// the DAG stays serializable without carrying `Value` defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImputeKind {
    /// Fill with the column mean.
    Mean,
    /// Fill with the column median.
    Median,
    /// Fill with the most frequent value.
    MostFrequent,
}

/// One `(name, pipeline-of-transformers, columns)` entry of a
/// ColumnTransformer.
#[derive(Debug, Clone, PartialEq)]
pub struct CtStep {
    /// Step name from the pipeline source.
    pub name: String,
    /// Transformer chain applied to each listed column.
    pub steps: Vec<TransformerKind>,
    /// Input columns.
    pub columns: Vec<String>,
}

/// Trainable estimators at the end of the pipelines.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelKind {
    /// `LogisticRegression()`.
    LogisticRegression,
    /// The Keras neural network of the healthcare / adult-complex pipelines.
    NeuralNetwork {
        /// Hidden layer width.
        hidden: usize,
        /// Training epochs.
        epochs: usize,
    },
}

/// Which half a Split node produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitPart {
    /// The training partition.
    Train,
    /// The held-out test partition.
    Test,
}

/// The operators the capture layer emits. Each variant names its inputs by
/// [`NodeId`]; the DAG is topologically ordered by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// `pd.read_csv(file, na_values=...)`.
    ReadCsv {
        /// File name as resolved from the pipeline source.
        file: String,
        /// `na_values=` marker.
        na_values: Option<String>,
    },
    /// `left.merge(right, on=[keys])` (inner).
    Join {
        /// Left frame.
        left: NodeId,
        /// Right frame.
        right: NodeId,
        /// Join key columns.
        on: Vec<String>,
    },
    /// `frame.groupby(keys).agg(...)`.
    GroupByAgg {
        /// Input frame.
        input: NodeId,
        /// Grouping columns.
        keys: Vec<String>,
        /// Named aggregations.
        aggs: Vec<dataframe::AggSpec>,
    },
    /// `frame[col] = <expr>` (paper §5.1.4: the condensed copy-previous
    /// translation).
    SetItem {
        /// Input frame.
        input: NodeId,
        /// Target column (new or overwritten).
        column: String,
        /// Value expression.
        expr: SExpr,
    },
    /// `frame[['a', 'b', ...]]`.
    Project {
        /// Input frame.
        input: NodeId,
        /// Kept columns.
        columns: Vec<String>,
    },
    /// `frame[<boolean expr>]`.
    Filter {
        /// Input frame.
        input: NodeId,
        /// Row-keeping condition.
        condition: SExpr,
    },
    /// `frame.dropna()`.
    DropNa {
        /// Input frame.
        input: NodeId,
    },
    /// `frame.replace(from, to)`.
    Replace {
        /// Input frame.
        input: NodeId,
        /// Replaced value.
        from: Value,
        /// Replacement.
        to: Value,
    },
    /// `frame.fillna(value)` — replace NULLs in every compatible column.
    FillNa {
        /// Input frame.
        input: NodeId,
        /// Fill value.
        value: Value,
    },
    /// `frame.head(n)`.
    Head {
        /// Input frame.
        input: NodeId,
        /// Row limit.
        n: u64,
    },
    /// `frame.sort_values(by=..., ascending=...)`.
    SortValues {
        /// Input frame.
        input: NodeId,
        /// Sort key columns.
        by: Vec<String>,
        /// Ascending order.
        ascending: bool,
    },
    /// `frame.drop(columns=[...])` — projection to the complement.
    DropColumns {
        /// Input frame.
        input: NodeId,
        /// Columns to remove.
        columns: Vec<String>,
    },
    /// `label_binarize(frame[col], classes=[a, b])` — produces a one-column
    /// frame named `label`, row-aligned with the input.
    LabelBinarize {
        /// Input frame.
        input: NodeId,
        /// Source column.
        column: String,
        /// The two classes; `classes[1]` is the positive one.
        classes: [Value; 2],
    },
    /// One half of `train_test_split(frame)`. Both halves share the seed, so
    /// they partition the input deterministically (hash of the frame's first
    /// tuple identifier — identical in both backends).
    Split {
        /// Input frame.
        input: NodeId,
        /// Which half.
        part: SplitPart,
        /// Test fraction in percent (sklearn default 25).
        test_percent: u8,
        /// Split seed.
        seed: u64,
    },
    /// ColumnTransformer fit+transform (when `fit_node` is `None`) or
    /// transform-only reusing fitting parameters learned at `fit_node`.
    FeatureTransform {
        /// Frame to transform.
        input: NodeId,
        /// Featurisation steps.
        steps: Vec<CtStep>,
        /// Node whose fit parameters to reuse (a prior FeatureTransform).
        fit_node: Option<NodeId>,
    },
    /// Model training.
    ModelFit {
        /// Features node (a FeatureTransform).
        features: NodeId,
        /// Label source: frame + column.
        labels: (NodeId, String),
        /// Estimator.
        model: ModelKind,
        /// Training seed (the MLP's init and shuffle; logistic regression
        /// is seed-free).
        seed: u64,
    },
    /// Model scoring; produces a scalar accuracy.
    ModelScore {
        /// The fitted model node (a ModelFit).
        model: NodeId,
        /// Features node for the evaluation set.
        features: NodeId,
        /// Label source: frame + column.
        labels: (NodeId, String),
    },
}

impl OpKind {
    /// The node ids this operator consumes.
    pub fn inputs(&self) -> Vec<NodeId> {
        match self {
            OpKind::ReadCsv { .. } => vec![],
            OpKind::Join { left, right, .. } => vec![*left, *right],
            OpKind::GroupByAgg { input, .. }
            | OpKind::SetItem { input, .. }
            | OpKind::Project { input, .. }
            | OpKind::Filter { input, .. }
            | OpKind::DropNa { input }
            | OpKind::Replace { input, .. }
            | OpKind::FillNa { input, .. }
            | OpKind::Head { input, .. }
            | OpKind::SortValues { input, .. }
            | OpKind::DropColumns { input, .. }
            | OpKind::LabelBinarize { input, .. }
            | OpKind::Split { input, .. } => vec![*input],
            OpKind::FeatureTransform {
                input, fit_node, ..
            } => {
                let mut v = vec![*input];
                if let Some(f) = fit_node {
                    v.push(*f);
                }
                v
            }
            OpKind::ModelFit {
                features, labels, ..
            } => vec![*features, labels.0],
            OpKind::ModelScore {
                model,
                features,
                labels,
            } => vec![*model, *features, labels.0],
        }
    }

    /// True when the operator can change the number or multiplicity of rows
    /// and therefore can introduce a technical bias (paper §3.2: "not all
    /// operations can introduce a bias").
    pub fn can_change_distribution(&self) -> bool {
        matches!(
            self,
            OpKind::Join { .. }
                | OpKind::Filter { .. }
                | OpKind::DropNa { .. }
                | OpKind::GroupByAgg { .. }
                | OpKind::Head { .. }
                | OpKind::Split { .. }
        )
    }

    /// True when the node produces a relational (frame-like) output.
    pub fn produces_frame(&self) -> bool {
        !matches!(self, OpKind::ModelFit { .. } | OpKind::ModelScore { .. })
    }

    /// Short operator name for reports (Figure 10's per-operation labels).
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::ReadCsv { .. } => "read_csv",
            OpKind::Join { .. } => "merge",
            OpKind::GroupByAgg { .. } => "groupby_agg",
            OpKind::SetItem { .. } => "set_item",
            OpKind::Project { .. } => "projection",
            OpKind::Filter { .. } => "selection",
            OpKind::DropNa { .. } => "dropna",
            OpKind::Replace { .. } => "replace",
            OpKind::FillNa { .. } => "fillna",
            OpKind::Head { .. } => "head",
            OpKind::SortValues { .. } => "sort_values",
            OpKind::DropColumns { .. } => "drop_columns",
            OpKind::LabelBinarize { .. } => "label_binarize",
            OpKind::Split { .. } => "train_test_split",
            OpKind::FeatureTransform { .. } => "featurisation",
            OpKind::ModelFit { .. } => "model_fit",
            OpKind::ModelScore { .. } => "model_score",
        }
    }
}

/// One DAG node.
#[derive(Debug, Clone, PartialEq)]
pub struct DagNode {
    /// Node id (== position in [`Dag::nodes`]).
    pub id: NodeId,
    /// 1-based pipeline source line this node came from (the paper maps one
    /// source line to one CTE/view).
    pub line: usize,
    /// The operator.
    pub kind: OpKind,
}

/// The captured pipeline DAG, topologically ordered.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dag {
    /// Nodes in execution order.
    pub nodes: Vec<DagNode>,
}

impl Dag {
    /// Append a node, returning its id.
    pub fn push(&mut self, line: usize, kind: OpKind) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(DagNode { id, line, kind });
        id
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &DagNode {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Render a compact human-readable summary (one line per node).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            out.push_str(&format!(
                "#{:<3} L{:<4} {:<16} inputs={:?}\n",
                n.id,
                n.line,
                n.kind.label(),
                n.kind.inputs()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_is_topological_by_construction() {
        let mut dag = Dag::default();
        let a = dag.push(
            1,
            OpKind::ReadCsv {
                file: "x.csv".into(),
                na_values: None,
            },
        );
        let b = dag.push(2, OpKind::DropNa { input: a });
        assert!(dag.node(b).kind.inputs().iter().all(|i| *i < b));
    }

    #[test]
    fn distribution_changing_ops() {
        assert!(OpKind::Filter {
            input: 0,
            condition: SExpr::Lit(Value::Bool(true))
        }
        .can_change_distribution());
        assert!(!OpKind::Project {
            input: 0,
            columns: vec![]
        }
        .can_change_distribution());
    }

    #[test]
    fn sexpr_columns() {
        let e = SExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(SExpr::Col("complications".into())),
            right: Box::new(SExpr::Binary {
                op: BinOp::Mul,
                left: Box::new(SExpr::Lit(Value::Float(1.2))),
                right: Box::new(SExpr::Col("mean_complications".into())),
            }),
        };
        let mut cols = Vec::new();
        e.columns(&mut cols);
        assert_eq!(cols, vec!["complications", "mean_complications"]);
    }

    #[test]
    fn describe_mentions_labels() {
        let mut dag = Dag::default();
        dag.push(
            1,
            OpKind::ReadCsv {
                file: "a".into(),
                na_values: None,
            },
        );
        assert!(dag.describe().contains("read_csv"));
    }
}
