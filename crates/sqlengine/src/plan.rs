//! Bound logical plans.
//!
//! The binder turns an AST [`crate::ast::Query`] into a [`PlanRoot`]: a tree
//! of [`PlanNode`]s whose expressions ([`BExpr`]) reference input columns by
//! position, plus side tables of uncorrelated scalar subqueries and
//! materialized CTE definitions.

use crate::ast::{BinaryOp, UnaryOp};
use crate::functions::ScalarFunc;
use etypes::{DataType, Value};

/// Metadata of one output column of a plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Table alias/qualifier this column is reachable under, if any.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Static type (best-effort; `Text` when unknown).
    pub ty: DataType,
    /// Hidden columns (the virtual `ctid`) are excluded from `*` expansion.
    pub hidden: bool,
}

/// An ordered set of output columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    /// Columns in order.
    pub cols: Vec<ColumnMeta>,
}

impl Schema {
    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// True when column-less.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Find candidate positions for a (possibly qualified) column name.
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name == name
                    && match qualifier {
                        Some(q) => c.qualifier.as_deref() == Some(q),
                        None => true,
                    }
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// The visible (non-hidden) column positions.
    pub fn visible(&self) -> Vec<usize> {
        self.cols
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.hidden)
            .map(|(i, _)| i)
            .collect()
    }

    /// Plain (unqualified) output names, for result relations.
    pub fn names(&self) -> Vec<String> {
        self.cols.iter().map(|c| c.name.clone()).collect()
    }

    /// Output types.
    pub fn types(&self) -> Vec<DataType> {
        self.cols.iter().map(|c| c.ty.clone()).collect()
    }
}

/// A bound scalar expression. Column references are positions into the
/// node's input row.
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    /// Input column by position.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Positional parameter `$n` (1-based). Substituted for a [`BExpr::Lit`]
    /// by [`PlanRoot::bind_params`] before execution — the executors never
    /// see this variant at runtime.
    Param(usize),
    /// Binary operator with SQL three-valued semantics.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<BExpr>,
        /// Right operand.
        right: Box<BExpr>,
    },
    /// Unary operator.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        operand: Box<BExpr>,
    },
    /// Scalar function call.
    Func {
        /// Resolved function.
        func: ScalarFunc,
        /// Arguments.
        args: Vec<BExpr>,
    },
    /// `CASE WHEN ... END`.
    Case {
        /// WHEN/THEN arms.
        whens: Vec<(BExpr, BExpr)>,
        /// ELSE arm.
        else_expr: Option<Box<BExpr>>,
    },
    /// Cast.
    Cast {
        /// Operand.
        expr: Box<BExpr>,
        /// Target type.
        ty: DataType,
    },
    /// `expr [NOT] IN (...)`.
    InList {
        /// Tested expression.
        expr: Box<BExpr>,
        /// Candidates.
        list: Vec<BExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<BExpr>,
        /// Negated form.
        negated: bool,
    },
    /// Uncorrelated scalar subquery, by index into [`PlanRoot::subplans`];
    /// evaluated at most once per query execution.
    Subplan(usize),
}

impl BExpr {
    /// Collect the set of input columns this expression reads.
    pub fn columns_used(&self, out: &mut Vec<usize>) {
        match self {
            BExpr::Col(i) => out.push(*i),
            BExpr::Lit(_) | BExpr::Param(_) | BExpr::Subplan(_) => {}
            BExpr::Binary { left, right, .. } => {
                left.columns_used(out);
                right.columns_used(out);
            }
            BExpr::Unary { operand, .. } => operand.columns_used(out),
            BExpr::Func { args, .. } => {
                for a in args {
                    a.columns_used(out);
                }
            }
            BExpr::Case { whens, else_expr } => {
                for (c, v) in whens {
                    c.columns_used(out);
                    v.columns_used(out);
                }
                if let Some(e) = else_expr {
                    e.columns_used(out);
                }
            }
            BExpr::Cast { expr, .. } => expr.columns_used(out),
            BExpr::InList { expr, list, .. } => {
                expr.columns_used(out);
                for e in list {
                    e.columns_used(out);
                }
            }
            BExpr::IsNull { expr, .. } => expr.columns_used(out),
        }
    }

    /// Rewrite column positions through a mapping (`new = map[old]`).
    pub fn remap_columns(&mut self, map: &[usize]) {
        match self {
            BExpr::Col(i) => *i = map[*i],
            BExpr::Lit(_) | BExpr::Param(_) | BExpr::Subplan(_) => {}
            BExpr::Binary { left, right, .. } => {
                left.remap_columns(map);
                right.remap_columns(map);
            }
            BExpr::Unary { operand, .. } => operand.remap_columns(map),
            BExpr::Func { args, .. } => {
                for a in args {
                    a.remap_columns(map);
                }
            }
            BExpr::Case { whens, else_expr } => {
                for (c, v) in whens {
                    c.remap_columns(map);
                    v.remap_columns(map);
                }
                if let Some(e) = else_expr {
                    e.remap_columns(map);
                }
            }
            BExpr::Cast { expr, .. } => expr.remap_columns(map),
            BExpr::InList { expr, list, .. } => {
                expr.remap_columns(map);
                for e in list {
                    e.remap_columns(map);
                }
            }
            BExpr::IsNull { expr, .. } => expr.remap_columns(map),
        }
    }

    /// Visit every sub-expression (including `self`), depth-first.
    pub fn for_each_mut(&mut self, f: &mut dyn FnMut(&mut BExpr)) {
        f(self);
        match self {
            BExpr::Col(_) | BExpr::Lit(_) | BExpr::Param(_) | BExpr::Subplan(_) => {}
            BExpr::Binary { left, right, .. } => {
                left.for_each_mut(f);
                right.for_each_mut(f);
            }
            BExpr::Unary { operand, .. } => operand.for_each_mut(f),
            BExpr::Func { args, .. } => {
                for a in args {
                    a.for_each_mut(f);
                }
            }
            BExpr::Case { whens, else_expr } => {
                for (c, v) in whens {
                    c.for_each_mut(f);
                    v.for_each_mut(f);
                }
                if let Some(e) = else_expr {
                    e.for_each_mut(f);
                }
            }
            BExpr::Cast { expr, .. } => expr.for_each_mut(f),
            BExpr::InList { expr, list, .. } => {
                expr.for_each_mut(f);
                for e in list {
                    e.for_each_mut(f);
                }
            }
            BExpr::IsNull { expr, .. } => expr.for_each_mut(f),
        }
    }
}

/// Aggregate functions supported by [`PlanNode::Aggregate`].
#[derive(Debug, Clone, PartialEq)]
pub enum AggFunc {
    /// `count(*)`.
    CountStar,
    /// `count(expr)` — non-null count; `count(DISTINCT expr)` when flagged.
    Count {
        /// Distinct counting.
        distinct: bool,
    },
    /// `sum`.
    Sum,
    /// `avg`.
    Avg,
    /// `min`.
    Min,
    /// `max`.
    Max,
    /// Population standard deviation (`stddev_pop`).
    StddevPop,
    /// Median (`percentile_cont(0.5)` equivalent; used by SimpleImputer).
    Median,
    /// `array_agg(expr)` — the paper's aggregated tuple identifiers (§3.1).
    ArrayAgg,
}

/// One aggregate call inside an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// Function.
    pub func: AggFunc,
    /// Argument (None only for `count(*)`).
    pub arg: Option<BExpr>,
    /// Output type (best-effort).
    pub ty: DataType,
}

/// Join kinds at the plan level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    Left,
    /// Right outer join.
    Right,
    /// Full outer join.
    Full,
    /// Cross product.
    Cross,
}

/// One equi-join key pair.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiKey {
    /// Expression over the left input.
    pub left: BExpr,
    /// Expression over the right input (positions are right-local).
    pub right: BExpr,
    /// True when `NULL = NULL` should match (the paper's pandas-compatible
    /// join predicate, §5.1.2).
    pub null_safe: bool,
}

/// Where a scan reads from.
#[derive(Debug, Clone, PartialEq)]
pub enum ScanSource {
    /// Base table in the catalog (pays simulated I/O in the disk profile).
    Table(String),
    /// Materialized view in the catalog (also pays I/O).
    MaterializedView(String),
    /// A CTE materialized at execution time, by index into
    /// [`PlanRoot::ctes`].
    Cte(usize),
}

/// A logical/physical plan node (the engine executes this tree directly).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanNode {
    /// Scan of a stored relation. `projection` holds source column indices
    /// (ctid is virtual position `usize::MAX`).
    Scan {
        /// Data source.
        source: ScanSource,
        /// Source column positions to produce; `CTID_SENTINEL` produces the
        /// row's tuple identifier.
        projection: Vec<usize>,
        /// Output schema.
        schema: Schema,
    },
    /// Filter rows by a predicate (keeps rows evaluating to TRUE).
    Filter {
        /// Input.
        input: Box<PlanNode>,
        /// Predicate.
        predicate: BExpr,
    },
    /// Compute a projection.
    Project {
        /// Input.
        input: Box<PlanNode>,
        /// Output expressions.
        exprs: Vec<BExpr>,
        /// Output schema.
        schema: Schema,
    },
    /// Join two inputs.
    Join {
        /// Left input.
        left: Box<PlanNode>,
        /// Right input.
        right: Box<PlanNode>,
        /// Kind.
        kind: JoinKind,
        /// Hash-joinable key pairs.
        equi: Vec<EquiKey>,
        /// Residual predicate over the concatenated row (inner joins only).
        residual: Option<BExpr>,
        /// Output schema (left columns then right columns).
        schema: Schema,
    },
    /// Grouped aggregation. Output row = group keys then aggregate results.
    Aggregate {
        /// Input.
        input: Box<PlanNode>,
        /// Group-by expressions (empty = single global group).
        group_exprs: Vec<BExpr>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Output schema.
        schema: Schema,
    },
    /// Sort (materializing).
    Sort {
        /// Input.
        input: Box<PlanNode>,
        /// Keys: expression + descending flag.
        keys: Vec<(BExpr, bool)>,
    },
    /// Row-count limit.
    Limit {
        /// Input.
        input: Box<PlanNode>,
        /// Max rows.
        n: u64,
    },
    /// Duplicate elimination over all columns.
    Distinct {
        /// Input.
        input: Box<PlanNode>,
    },
    /// Append a `row_number() over (order by keys)` column (1-based).
    WindowRowNumber {
        /// Input.
        input: Box<PlanNode>,
        /// Window ordering.
        keys: Vec<(BExpr, bool)>,
        /// Output schema (input + the number column).
        schema: Schema,
    },
    /// Expand one array column into one row per element (`unnest`).
    Unnest {
        /// Input.
        input: Box<PlanNode>,
        /// Position of the array column to expand in place.
        column: usize,
        /// Output schema.
        schema: Schema,
    },
    /// Literal rows (`SELECT` without `FROM` produces one empty row).
    Values {
        /// Rows.
        rows: Vec<Vec<Value>>,
        /// Output schema.
        schema: Schema,
    },
}

/// Sentinel projection index meaning "produce the ctid".
pub const CTID_SENTINEL: usize = usize::MAX;

impl PlanNode {
    /// The node's output schema.
    pub fn schema(&self) -> &Schema {
        match self {
            PlanNode::Scan { schema, .. }
            | PlanNode::Project { schema, .. }
            | PlanNode::Join { schema, .. }
            | PlanNode::Aggregate { schema, .. }
            | PlanNode::WindowRowNumber { schema, .. }
            | PlanNode::Unnest { schema, .. }
            | PlanNode::Values { schema, .. } => schema,
            PlanNode::Filter { input, .. }
            | PlanNode::Sort { input, .. }
            | PlanNode::Limit { input, .. }
            | PlanNode::Distinct { input } => input.schema(),
        }
    }
}

impl PlanNode {
    /// Visit every expression in this subtree (own exprs, then inputs).
    pub fn for_each_expr_mut(&mut self, f: &mut dyn FnMut(&mut BExpr)) {
        match self {
            PlanNode::Scan { .. } | PlanNode::Values { .. } => {}
            PlanNode::Filter { input, predicate } => {
                predicate.for_each_mut(f);
                input.for_each_expr_mut(f);
            }
            PlanNode::Project { input, exprs, .. } => {
                for e in exprs {
                    e.for_each_mut(f);
                }
                input.for_each_expr_mut(f);
            }
            PlanNode::Join {
                left,
                right,
                equi,
                residual,
                ..
            } => {
                for k in equi {
                    k.left.for_each_mut(f);
                    k.right.for_each_mut(f);
                }
                if let Some(r) = residual {
                    r.for_each_mut(f);
                }
                left.for_each_expr_mut(f);
                right.for_each_expr_mut(f);
            }
            PlanNode::Aggregate {
                input,
                group_exprs,
                aggs,
                ..
            } => {
                for e in group_exprs {
                    e.for_each_mut(f);
                }
                for a in aggs {
                    if let Some(arg) = &mut a.arg {
                        arg.for_each_mut(f);
                    }
                }
                input.for_each_expr_mut(f);
            }
            PlanNode::Sort { input, keys } | PlanNode::WindowRowNumber { input, keys, .. } => {
                for (e, _) in keys {
                    e.for_each_mut(f);
                }
                input.for_each_expr_mut(f);
            }
            PlanNode::Limit { input, .. }
            | PlanNode::Distinct { input }
            | PlanNode::Unnest { input, .. } => input.for_each_expr_mut(f),
        }
    }
}

/// One materialized CTE: its bound plan plus its public schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCte {
    /// CTE name (for stats/debugging).
    pub name: String,
    /// Plan producing its rows.
    pub plan: PlanNode,
    /// True when this is a shared-scan intermediate created by
    /// common-subexpression elimination rather than a fenced CTE.
    pub shared: bool,
}

/// A fully bound query.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRoot {
    /// CTEs that must be materialized before `body` runs, in dependency
    /// order. (Inlined CTEs do not appear here — they were spliced.)
    pub ctes: Vec<BoundCte>,
    /// Uncorrelated scalar subqueries, evaluated lazily at most once.
    pub subplans: Vec<PlanNode>,
    /// The main plan.
    pub body: PlanNode,
}

impl PlanRoot {
    /// Assemble a bound query.
    pub fn new(ctes: Vec<BoundCte>, subplans: Vec<PlanNode>, body: PlanNode) -> PlanRoot {
        PlanRoot {
            ctes,
            subplans,
            body,
        }
    }

    /// Visit every expression in the whole plan (CTEs, subplans, body).
    pub fn for_each_expr_mut(&mut self, f: &mut dyn FnMut(&mut BExpr)) {
        for cte in &mut self.ctes {
            cte.plan.for_each_expr_mut(f);
        }
        for sp in &mut self.subplans {
            sp.for_each_expr_mut(f);
        }
        self.body.for_each_expr_mut(f);
    }

    /// Highest `$n` referenced anywhere in the plan (0 when parameter-free).
    pub fn max_param(&self) -> usize {
        // The walker is mutable-only; a clone at plan time is cheap and keeps
        // one traversal implementation.
        let mut probe = self.clone();
        let mut max = 0usize;
        probe.for_each_expr_mut(&mut |e| {
            if let BExpr::Param(n) = e {
                max = max.max(*n);
            }
        });
        max
    }

    /// A copy of this plan with every `Param(n)` replaced by the literal
    /// `params[n-1]`. Callers validate the parameter count first; an
    /// out-of-range reference degrades to NULL rather than panicking.
    pub fn bind_params(&self, params: &[Value]) -> PlanRoot {
        let mut bound = self.clone();
        bound.for_each_expr_mut(&mut |e| {
            if let BExpr::Param(n) = e {
                let v = params.get(*n - 1).cloned().unwrap_or(Value::Null);
                *e = BExpr::Lit(v);
            }
        });
        bound
    }
}
