//! Pipeline capture: an abstract interpreter over the parsed Python AST.
//!
//! The original mlinspect intercepts pandas/sklearn calls by monkey-patching
//! a live interpreter. This module replays the same call stream statically:
//! it walks the straight-line pipeline AST, tracks every pandas/sklearn
//! "dummy object" a statement produces, and emits one [`OpKind`] per
//! data-changing call. The result is the operator [`Dag`] both backends
//! execute.

use crate::dag::{
    CtStep, Dag, ImputeKind, ModelKind, NodeId, OpKind, SExpr, SplitPart, TransformerKind,
};
use crate::error::{MlError, Result};
use etypes::Value;
use pyparser::{Arg, BinOp, Expr, Module, Stmt, UnaryOp};
use std::collections::HashMap;

/// The result of capturing a pipeline.
#[derive(Debug, Clone, Default)]
pub struct Captured {
    /// The operator DAG, in execution order.
    pub dag: Dag,
    /// CSV files the pipeline reads (resolved path strings).
    pub files: Vec<String>,
    /// Nodes whose results the user printed/returned (kept alive; everything
    /// else may be skipped by backends if unused, §6.1).
    pub observed: Vec<NodeId>,
}

/// Capture a pipeline source string.
pub fn capture(source: &str) -> Result<Captured> {
    let module: Module = pyparser::parse(source)?;
    let mut cap = Capture {
        dag: Dag::default(),
        env: HashMap::new(),
        files: Vec::new(),
        observed: Vec::new(),
        pipelines: Vec::new(),
        seed: 0,
    };
    cap.run(&module)?;
    Ok(Captured {
        dag: cap.dag,
        files: cap.files,
        observed: cap.observed,
    })
}

/// Capture with an explicit seed for the stochastic steps (train/test split,
/// model init). Table 5's five runs vary this.
pub fn capture_with_seed(source: &str, seed: u64) -> Result<Captured> {
    let module: Module = pyparser::parse(source)?;
    let mut cap = Capture {
        dag: Dag::default(),
        env: HashMap::new(),
        files: Vec::new(),
        observed: Vec::new(),
        pipelines: Vec::new(),
        seed,
    };
    cap.run(&module)?;
    Ok(Captured {
        dag: cap.dag,
        files: cap.files,
        observed: cap.observed,
    })
}

/// A pipeline object (`sklearn.pipeline.Pipeline` ending in an estimator).
#[derive(Debug, Clone)]
struct PipelineState {
    steps: Vec<CtStep>,
    model: ModelKind,
    fitted: Option<(NodeId, NodeId)>, // (feature-transform node, model-fit node)
}

/// The "dummy objects" flowing through the interpreted pipeline.
#[derive(Debug, Clone)]
enum PyObj {
    /// A frame-producing DAG node output.
    Frame(NodeId),
    /// A lazy column expression over one frame.
    SeriesExpr { frame: NodeId, expr: SExpr },
    /// `frame.groupby(keys)` awaiting `.agg`.
    GroupBy { frame: NodeId, keys: Vec<String> },
    /// Plain Python scalar.
    Scalar(Value),
    /// Python list (of anything).
    List(Vec<PyObj>),
    /// Python tuple.
    Tuple(Vec<PyObj>),
    /// A transformer chain (single transformer or Pipeline of transformers).
    Transformer(Vec<TransformerKind>),
    /// `ColumnTransformer(...)`.
    ColumnTransformer(Vec<CtStep>),
    /// An unfitted estimator.
    Model(ModelKind),
    /// A Pipeline ending in an estimator, by id into the pipelines table
    /// (identity matters: `p.fit(...)` mutates the shared object).
    MlPipeline(usize),
    /// Imported module alias (`pd`, `os`, ...). The payload documents
    /// provenance for debugging dumps.
    Module(#[allow(dead_code)] String),
    /// `None` / ignored results.
    NoneObj,
}

struct Capture {
    dag: Dag,
    env: HashMap<String, PyObj>,
    files: Vec<String>,
    observed: Vec<NodeId>,
    pipelines: Vec<PipelineState>,
    seed: u64,
}

impl Capture {
    fn run(&mut self, module: &Module) -> Result<()> {
        for stmt in &module.stmts {
            match stmt {
                Stmt::Import {
                    names,
                    module,
                    is_from,
                    ..
                } => {
                    if *is_from {
                        for (name, alias) in names {
                            let bound = alias.clone().unwrap_or_else(|| name.clone());
                            self.env.insert(bound, PyObj::Module(name.clone()));
                        }
                    } else {
                        for (name, alias) in names {
                            let bound = alias
                                .clone()
                                .unwrap_or_else(|| name.split('.').next().unwrap_or(name).into());
                            self.env.insert(bound, PyObj::Module(module.clone()));
                        }
                    }
                }
                Stmt::Assign {
                    line,
                    targets,
                    value,
                } => self.assign(*line, targets, value)?,
                Stmt::ExprStmt { line, value } => {
                    let obj = self.eval(*line, value)?;
                    if let PyObj::Frame(id) = obj {
                        self.observed.push(id);
                    }
                }
            }
        }
        Ok(())
    }

    fn assign(&mut self, line: usize, targets: &[Expr], value: &Expr) -> Result<()> {
        let rhs = self.eval(line, value)?;
        match targets {
            [Expr::Name(name)] => {
                self.env.insert(name.clone(), rhs);
            }
            // frame['col'] = expr
            [Expr::Subscript { value: recv, index }] => {
                let target = self.eval(line, recv)?;
                let PyObj::Frame(frame) = target else {
                    return Err(MlError::unsupported(
                        line,
                        "subscript assignment on non-frame",
                    ));
                };
                let Expr::Str(column) = &**index else {
                    return Err(MlError::unsupported(
                        line,
                        "subscript assignment with non-string key",
                    ));
                };
                let expr = self.to_sexpr(line, frame, &rhs)?;
                let new_id = self.dag.push(
                    line,
                    OpKind::SetItem {
                        input: frame,
                        column: column.clone(),
                        expr,
                    },
                );
                self.rebind_frame(frame, new_id);
            }
            // a, b = train_test_split(...)
            many if many.len() > 1 => {
                let items = match rhs {
                    PyObj::Tuple(items) | PyObj::List(items) => items,
                    _ => {
                        return Err(MlError::capture(
                            line,
                            "tuple assignment from non-tuple value".to_string(),
                        ))
                    }
                };
                if items.len() != many.len() {
                    return Err(MlError::capture(
                        line,
                        format!(
                            "cannot unpack {} values into {} targets",
                            items.len(),
                            many.len()
                        ),
                    ));
                }
                for (t, v) in many.iter().zip(items) {
                    let Expr::Name(name) = t else {
                        return Err(MlError::unsupported(line, "complex unpack target"));
                    };
                    self.env.insert(name.clone(), v);
                }
            }
            _ => return Err(MlError::unsupported(line, "assignment target")),
        }
        Ok(())
    }

    /// In-place pandas mutation: every binding of the old frame now refers to
    /// the new node.
    fn rebind_frame(&mut self, old: NodeId, new: NodeId) {
        for obj in self.env.values_mut() {
            if let PyObj::Frame(id) = obj {
                if *id == old {
                    *id = new;
                }
            }
        }
    }

    fn eval(&mut self, line: usize, expr: &Expr) -> Result<PyObj> {
        match expr {
            Expr::Name(n) => self
                .env
                .get(n)
                .cloned()
                .ok_or_else(|| MlError::capture(line, format!("undefined name '{n}'"))),
            Expr::Int(i) => Ok(PyObj::Scalar(Value::Int(*i))),
            Expr::Float(f) => Ok(PyObj::Scalar(Value::Float(*f))),
            Expr::Str(s) => Ok(PyObj::Scalar(Value::text(s.clone()))),
            Expr::Bool(b) => Ok(PyObj::Scalar(Value::Bool(*b))),
            Expr::NoneLit => Ok(PyObj::NoneObj),
            Expr::List(items) => Ok(PyObj::List(
                items
                    .iter()
                    .map(|e| self.eval(line, e))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Expr::Tuple(items) => Ok(PyObj::Tuple(
                items
                    .iter()
                    .map(|e| self.eval(line, e))
                    .collect::<Result<Vec<_>>>()?,
            )),
            Expr::Dict(_) => Err(MlError::unsupported(line, "dict literals")),
            Expr::Subscript { value, index } => {
                let recv = self.eval(line, value)?;
                self.subscript(line, recv, index)
            }
            Expr::Attribute { .. } => {
                // Bare attribute access (no call): tolerate module chains.
                Ok(PyObj::NoneObj)
            }
            Expr::Call { func, args } => self.call(line, func, args),
            Expr::Binary { op, left, right } => {
                let l = self.eval(line, left)?;
                let r = self.eval(line, right)?;
                self.binary(line, *op, l, r)
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(line, operand)?;
                self.unary(line, *op, v)
            }
        }
    }

    fn subscript(&mut self, line: usize, recv: PyObj, index: &Expr) -> Result<PyObj> {
        let PyObj::Frame(frame) = recv else {
            return Err(MlError::unsupported(line, "subscript on non-frame"));
        };
        match index {
            // Projection to a series.
            Expr::Str(col) => Ok(PyObj::SeriesExpr {
                frame,
                expr: SExpr::Col(col.clone()),
            }),
            // Projection to a frame.
            Expr::List(items) => {
                let columns = items
                    .iter()
                    .map(|e| match e {
                        Expr::Str(s) => Ok(s.clone()),
                        _ => Err(MlError::unsupported(line, "non-string projection list")),
                    })
                    .collect::<Result<Vec<_>>>()?;
                let id = self.dag.push(
                    line,
                    OpKind::Project {
                        input: frame,
                        columns,
                    },
                );
                Ok(PyObj::Frame(id))
            }
            // Selection by boolean mask.
            other => {
                let mask = self.eval(line, other)?;
                let condition = self.to_sexpr(line, frame, &mask)?;
                let id = self.dag.push(
                    line,
                    OpKind::Filter {
                        input: frame,
                        condition,
                    },
                );
                Ok(PyObj::Frame(id))
            }
        }
    }

    fn binary(&mut self, line: usize, op: BinOp, l: PyObj, r: PyObj) -> Result<PyObj> {
        match (&l, &r) {
            (PyObj::Scalar(a), PyObj::Scalar(b)) => fold_scalars(op, a, b)
                .map(PyObj::Scalar)
                .ok_or_else(|| MlError::capture(line, format!("cannot evaluate {a} {op} {b}"))),
            (PyObj::SeriesExpr { frame, .. }, _) | (_, PyObj::SeriesExpr { frame, .. }) => {
                let frame = *frame;
                let le = self.to_sexpr(line, frame, &l)?;
                let re = self.to_sexpr(line, frame, &r)?;
                Ok(PyObj::SeriesExpr {
                    frame,
                    expr: SExpr::Binary {
                        op,
                        left: Box::new(le),
                        right: Box::new(re),
                    },
                })
            }
            _ => Err(MlError::unsupported(line, format!("binary {op}"))),
        }
    }

    fn unary(&mut self, line: usize, op: UnaryOp, v: PyObj) -> Result<PyObj> {
        match v {
            PyObj::Scalar(Value::Int(i)) if op == UnaryOp::Neg => Ok(PyObj::Scalar(Value::Int(-i))),
            PyObj::Scalar(Value::Float(f)) if op == UnaryOp::Neg => {
                Ok(PyObj::Scalar(Value::Float(-f)))
            }
            PyObj::SeriesExpr { frame, expr } => Ok(PyObj::SeriesExpr {
                frame,
                expr: SExpr::Unary {
                    op,
                    operand: Box::new(expr),
                },
            }),
            _ => Err(MlError::unsupported(line, "unary operator")),
        }
    }

    /// Convert an object to a column expression over `frame`.
    fn to_sexpr(&self, line: usize, frame: NodeId, obj: &PyObj) -> Result<SExpr> {
        match obj {
            PyObj::Scalar(v) => Ok(SExpr::Lit(v.clone())),
            PyObj::SeriesExpr { frame: f, expr } => {
                if *f != frame {
                    return Err(MlError::unsupported(
                        line,
                        "row-wise combination of different frames (add a merge)",
                    ));
                }
                Ok(expr.clone())
            }
            _ => Err(MlError::unsupported(line, "value in column expression")),
        }
    }

    // ---- calls -------------------------------------------------------------

    fn call(&mut self, line: usize, func: &Expr, args: &[Arg]) -> Result<PyObj> {
        // Attribute call: receiver.method(args).
        if let Expr::Attribute { value, attr } = func {
            // Module functions (pd.read_csv, os.path.join, ...).
            if let Some(path) = func.dotted_path() {
                if let Some(result) = self.module_call(line, &path, args)? {
                    return Ok(result);
                }
            }
            let recv = self.eval(line, value)?;
            return self.method_call(line, recv, attr, args);
        }
        // Plain function call.
        let Expr::Name(name) = func else {
            return Err(MlError::unsupported(line, "computed callee"));
        };
        self.function_call(line, name, args)
    }

    /// Handle fully qualified module calls; returns Ok(None) when the path is
    /// not a module function (so it falls through to a method call).
    fn module_call(&mut self, line: usize, path: &str, args: &[Arg]) -> Result<Option<PyObj>> {
        let is_module_root = path
            .split('.')
            .next()
            .map(|root| {
                matches!(self.env.get(root), Some(PyObj::Module(_)))
                    // Well-known module roots work without import statements
                    // (snippets and tests often omit them).
                    || matches!(root, "pd" | "pandas" | "os" | "np" | "sklearn")
            })
            .unwrap_or(false);
        if !is_module_root {
            return Ok(None);
        }
        let tail = path.split('.').next_back().unwrap_or(path);
        match tail {
            "read_csv" => Ok(Some(self.read_csv(line, args)?)),
            "join" => {
                // os.path.join: concatenate path segments.
                let mut parts = Vec::new();
                for a in args {
                    let v = self.eval(line, &a.value)?;
                    parts.push(self.stringify(line, &v)?);
                }
                Ok(Some(PyObj::Scalar(Value::text(
                    parts
                        .iter()
                        .filter(|p| !p.is_empty())
                        .cloned()
                        .collect::<Vec<_>>()
                        .join("/"),
                ))))
            }
            _ => Err(MlError::unsupported(line, format!("module call {path}"))),
        }
    }

    fn stringify(&self, line: usize, v: &PyObj) -> Result<String> {
        match v {
            PyObj::Scalar(Value::Text(s)) => Ok(s.clone()),
            PyObj::Scalar(other) => Ok(other.to_string()),
            _ => Err(MlError::unsupported(line, "str() of non-scalar")),
        }
    }

    fn function_call(&mut self, line: usize, name: &str, args: &[Arg]) -> Result<PyObj> {
        match name {
            "read_csv" => self.read_csv(line, args),
            "print" => {
                for a in args {
                    let v = self.eval(line, &a.value)?;
                    if let PyObj::Frame(id) = v {
                        self.observed.push(id);
                    }
                }
                Ok(PyObj::NoneObj)
            }
            "str" => {
                let v = self.eval(line, &args[0].value)?;
                Ok(PyObj::Scalar(Value::text(self.stringify(line, &v)?)))
            }
            "get_project_root" => Ok(PyObj::Scalar(Value::text(""))),
            "label_binarize" => self.label_binarize(line, args),
            "train_test_split" => self.train_test_split(line, args),
            "SimpleImputer" => {
                let strategy = self
                    .kwarg_str(line, args, "strategy")?
                    .unwrap_or_else(|| "mean".into());
                let kind = match strategy.as_str() {
                    "mean" => ImputeKind::Mean,
                    "median" => ImputeKind::Median,
                    "most_frequent" => ImputeKind::MostFrequent,
                    other => {
                        return Err(MlError::unsupported(
                            line,
                            format!("SimpleImputer strategy '{other}'"),
                        ))
                    }
                };
                Ok(PyObj::Transformer(vec![TransformerKind::SimpleImputer(
                    kind,
                )]))
            }
            "OneHotEncoder" => Ok(PyObj::Transformer(vec![TransformerKind::OneHotEncoder])),
            "StandardScaler" => Ok(PyObj::Transformer(vec![TransformerKind::StandardScaler])),
            "KBinsDiscretizer" => {
                // sklearn raises ValueError for fewer than two bins; refusing
                // here gives both backends the same answer.
                let k = self.kwarg_int(line, args, "n_bins")?.unwrap_or(5);
                if k < 2 {
                    return Err(MlError::capture(
                        line,
                        format!("KBinsDiscretizer(n_bins={k}): n_bins must be at least 2"),
                    ));
                }
                Ok(PyObj::Transformer(vec![TransformerKind::KBinsDiscretizer(
                    k as usize,
                )]))
            }
            "Binarizer" => {
                let t = self.kwarg_f64(line, args, "threshold")?.unwrap_or(0.0);
                Ok(PyObj::Transformer(vec![TransformerKind::Binarizer(t)]))
            }
            "LogisticRegression" | "SGDClassifier" | "DecisionTreeClassifier" => {
                Ok(PyObj::Model(ModelKind::LogisticRegression))
            }
            "KerasClassifier" | "MLPClassifier" => {
                let epochs = self.kwarg_int(line, args, "epochs")?.unwrap_or(30) as usize;
                Ok(PyObj::Model(ModelKind::NeuralNetwork {
                    hidden: 16,
                    epochs,
                }))
            }
            "Pipeline" => self.make_pipeline(line, args),
            "ColumnTransformer" => self.make_column_transformer(line, args),
            other => Err(MlError::unsupported(line, format!("function {other}()"))),
        }
    }

    fn method_call(
        &mut self,
        line: usize,
        recv: PyObj,
        method: &str,
        args: &[Arg],
    ) -> Result<PyObj> {
        match (&recv, method) {
            (PyObj::Frame(left), "merge") => {
                let right = match self.eval(line, &args[0].value)? {
                    PyObj::Frame(id) => id,
                    _ => return Err(MlError::capture(line, "merge with non-frame".to_string())),
                };
                let on = self
                    .kwarg_str_list(line, args, "on")?
                    .ok_or_else(|| MlError::unsupported(line, "merge without on="))?;
                let id = self.dag.push(
                    line,
                    OpKind::Join {
                        left: *left,
                        right,
                        on,
                    },
                );
                Ok(PyObj::Frame(id))
            }
            (PyObj::Frame(frame), "groupby") => {
                let keys = match self.eval(line, &args[0].value)? {
                    PyObj::Scalar(Value::Text(k)) => vec![k],
                    PyObj::List(items) => items
                        .into_iter()
                        .map(|i| match i {
                            PyObj::Scalar(Value::Text(s)) => Ok(s),
                            _ => Err(MlError::unsupported(line, "non-string groupby key")),
                        })
                        .collect::<Result<Vec<_>>>()?,
                    _ => return Err(MlError::unsupported(line, "groupby key")),
                };
                Ok(PyObj::GroupBy {
                    frame: *frame,
                    keys,
                })
            }
            (PyObj::GroupBy { frame, keys }, "agg") => {
                let mut aggs = Vec::new();
                for a in args {
                    let Some(out_name) = &a.name else {
                        return Err(MlError::unsupported(line, "positional agg argument"));
                    };
                    let PyObj::Tuple(pair) = self.eval(line, &a.value)? else {
                        return Err(MlError::unsupported(line, "agg spec must be a tuple"));
                    };
                    let [PyObj::Scalar(Value::Text(input)), PyObj::Scalar(Value::Text(fname))] =
                        &pair[..]
                    else {
                        return Err(MlError::unsupported(line, "agg spec contents"));
                    };
                    let func = dataframe::AggFunc::parse(fname).ok_or_else(|| {
                        MlError::unsupported(line, format!("aggregation '{fname}'"))
                    })?;
                    aggs.push(dataframe::AggSpec {
                        output: out_name.clone(),
                        input: input.clone(),
                        func,
                    });
                }
                let id = self.dag.push(
                    line,
                    OpKind::GroupByAgg {
                        input: *frame,
                        keys: keys.clone(),
                        aggs,
                    },
                );
                Ok(PyObj::Frame(id))
            }
            (PyObj::Frame(frame), "dropna") => {
                let id = self.dag.push(line, OpKind::DropNa { input: *frame });
                Ok(PyObj::Frame(id))
            }
            (PyObj::Frame(frame), "fillna") => {
                let value = self.scalar_arg(line, args, 0)?;
                let id = self.dag.push(
                    line,
                    OpKind::FillNa {
                        input: *frame,
                        value,
                    },
                );
                Ok(PyObj::Frame(id))
            }
            (PyObj::Frame(frame), "head") => {
                let n = match args.first() {
                    None => 5, // pandas default
                    Some(a) => match self.eval(line, &a.value)? {
                        PyObj::Scalar(v) => v.as_i64().map_err(MlError::Value)?.max(0) as u64,
                        _ => return Err(MlError::unsupported(line, "head() argument")),
                    },
                };
                let id = self.dag.push(line, OpKind::Head { input: *frame, n });
                Ok(PyObj::Frame(id))
            }
            (PyObj::Frame(frame), "sort_values") => {
                let by = self
                    .kwarg_str_list(line, args, "by")?
                    .ok_or_else(|| MlError::unsupported(line, "sort_values without by="))?;
                let ascending = match self.kwarg(args, "ascending") {
                    Some(Expr::Bool(b)) => *b,
                    None => true,
                    Some(_) => return Err(MlError::unsupported(line, "ascending= value")),
                };
                let id = self.dag.push(
                    line,
                    OpKind::SortValues {
                        input: *frame,
                        by,
                        ascending,
                    },
                );
                Ok(PyObj::Frame(id))
            }
            (PyObj::Frame(frame), "drop") => {
                let columns = self
                    .kwarg_str_list(line, args, "columns")?
                    .ok_or_else(|| MlError::unsupported(line, "drop without columns="))?;
                let id = self.dag.push(
                    line,
                    OpKind::DropColumns {
                        input: *frame,
                        columns,
                    },
                );
                Ok(PyObj::Frame(id))
            }
            (PyObj::Frame(frame), "replace") => {
                let from = self.scalar_arg(line, args, 0)?;
                let to = self.scalar_arg(line, args, 1)?;
                let id = self.dag.push(
                    line,
                    OpKind::Replace {
                        input: *frame,
                        from,
                        to,
                    },
                );
                Ok(PyObj::Frame(id))
            }
            (PyObj::SeriesExpr { frame, expr }, "isin") => {
                let list = match self.eval(line, &args[0].value)? {
                    PyObj::List(items) => items
                        .into_iter()
                        .map(|i| match i {
                            PyObj::Scalar(v) => Ok(v),
                            _ => Err(MlError::unsupported(line, "non-scalar isin entry")),
                        })
                        .collect::<Result<Vec<_>>>()?,
                    _ => return Err(MlError::unsupported(line, "isin argument")),
                };
                Ok(PyObj::SeriesExpr {
                    frame: *frame,
                    expr: SExpr::IsIn {
                        expr: Box::new(expr.clone()),
                        list,
                    },
                })
            }
            // label array helpers that are identity for our representation.
            (PyObj::Frame(_), "ravel") | (PyObj::SeriesExpr { .. }, "ravel") => Ok(recv),
            (PyObj::MlPipeline(pid), "fit") => self.pipeline_fit(line, *pid, args),
            (PyObj::MlPipeline(pid), "score") => self.pipeline_score(line, *pid, args),
            (_, other) => Err(MlError::unsupported(line, format!(".{other}()"))),
        }
    }

    fn read_csv(&mut self, line: usize, args: &[Arg]) -> Result<PyObj> {
        let path_obj = self.eval(line, &args[0].value)?;
        let file = self.stringify(line, &path_obj)?;
        let na_values = self.kwarg_str(line, args, "na_values")?;
        self.files.push(file.clone());
        let id = self.dag.push(line, OpKind::ReadCsv { file, na_values });
        Ok(PyObj::Frame(id))
    }

    fn label_binarize(&mut self, line: usize, args: &[Arg]) -> Result<PyObj> {
        let series = self.eval(line, &args[0].value)?;
        let PyObj::SeriesExpr {
            frame,
            expr: SExpr::Col(column),
        } = series
        else {
            return Err(MlError::unsupported(
                line,
                "label_binarize over a non-column expression",
            ));
        };
        let classes = self
            .kwarg_value_list(line, args, "classes")?
            .ok_or_else(|| MlError::unsupported(line, "label_binarize without classes="))?;
        let [a, b] = &classes[..] else {
            return Err(MlError::unsupported(
                line,
                "label_binarize needs exactly 2 classes",
            ));
        };
        let id = self.dag.push(
            line,
            OpKind::LabelBinarize {
                input: frame,
                column,
                classes: [a.clone(), b.clone()],
            },
        );
        Ok(PyObj::Frame(id))
    }

    fn train_test_split(&mut self, line: usize, args: &[Arg]) -> Result<PyObj> {
        let PyObj::Frame(input) = self.eval(line, &args[0].value)? else {
            return Err(MlError::capture(line, "split of non-frame".to_string()));
        };
        let test_percent = self
            .kwarg_f64(line, args, "test_size")?
            .map(|f| (f * 100.0).round() as u8)
            .unwrap_or(25);
        let seed = self
            .kwarg_int(line, args, "random_state")?
            .map(|i| i as u64)
            .unwrap_or(self.seed);
        let train = self.dag.push(
            line,
            OpKind::Split {
                input,
                part: SplitPart::Train,
                test_percent,
                seed,
            },
        );
        let test = self.dag.push(
            line,
            OpKind::Split {
                input,
                part: SplitPart::Test,
                test_percent,
                seed,
            },
        );
        Ok(PyObj::Tuple(vec![PyObj::Frame(train), PyObj::Frame(test)]))
    }

    fn make_pipeline(&mut self, line: usize, args: &[Arg]) -> Result<PyObj> {
        let PyObj::List(entries) = self.eval(line, &args[0].value)? else {
            return Err(MlError::unsupported(line, "Pipeline argument"));
        };
        let mut transformer_chain: Vec<TransformerKind> = Vec::new();
        let mut ct_steps: Option<Vec<CtStep>> = None;
        let mut model: Option<ModelKind> = None;
        for entry in entries {
            let PyObj::Tuple(pair) = entry else {
                return Err(MlError::unsupported(line, "Pipeline step"));
            };
            let [_, step] = &pair[..] else {
                return Err(MlError::unsupported(line, "Pipeline step arity"));
            };
            match step {
                PyObj::Transformer(ts) => transformer_chain.extend(ts.iter().cloned()),
                PyObj::ColumnTransformer(steps) => ct_steps = Some(steps.clone()),
                PyObj::Model(m) => model = Some(m.clone()),
                _ => return Err(MlError::unsupported(line, "Pipeline step object")),
            }
        }
        match (ct_steps, model) {
            // A Pipeline of plain transformers: itself a transformer chain.
            (None, None) => Ok(PyObj::Transformer(transformer_chain)),
            // Featurisation + estimator: a trainable pipeline.
            (Some(steps), Some(m)) => {
                let pid = self.pipelines.len();
                self.pipelines.push(PipelineState {
                    steps,
                    model: m,
                    fitted: None,
                });
                Ok(PyObj::MlPipeline(pid))
            }
            (None, Some(m)) => {
                // Transformer chain + estimator without ColumnTransformer is
                // not used by the paper's pipelines, but a chain-less model
                // pipeline appears in tests.
                if transformer_chain.is_empty() {
                    let pid = self.pipelines.len();
                    self.pipelines.push(PipelineState {
                        steps: Vec::new(),
                        model: m,
                        fitted: None,
                    });
                    Ok(PyObj::MlPipeline(pid))
                } else {
                    Err(MlError::unsupported(
                        line,
                        "Pipeline mixing bare transformers with an estimator",
                    ))
                }
            }
            (Some(_), None) => Err(MlError::unsupported(
                line,
                "Pipeline with ColumnTransformer but no estimator",
            )),
        }
    }

    fn make_column_transformer(&mut self, line: usize, args: &[Arg]) -> Result<PyObj> {
        // transformers= may be positional or keyword.
        let arg = args
            .iter()
            .find(|a| a.name.as_deref() == Some("transformers"))
            .or_else(|| args.iter().find(|a| a.name.is_none()))
            .ok_or_else(|| MlError::unsupported(line, "ColumnTransformer without transformers"))?;
        let PyObj::List(entries) = self.eval(line, &arg.value)? else {
            return Err(MlError::unsupported(line, "ColumnTransformer argument"));
        };
        let mut steps = Vec::new();
        for entry in entries {
            let PyObj::Tuple(triple) = entry else {
                return Err(MlError::unsupported(line, "ColumnTransformer entry"));
            };
            let [PyObj::Scalar(Value::Text(name)), transformer, PyObj::List(cols)] = &triple[..]
            else {
                return Err(MlError::unsupported(line, "ColumnTransformer entry shape"));
            };
            let chain = match transformer {
                PyObj::Transformer(ts) => ts.clone(),
                _ => {
                    return Err(MlError::unsupported(
                        line,
                        "ColumnTransformer step must be a transformer",
                    ))
                }
            };
            let columns = cols
                .iter()
                .map(|c| match c {
                    PyObj::Scalar(Value::Text(s)) => Ok(s.clone()),
                    _ => Err(MlError::unsupported(line, "non-string column name")),
                })
                .collect::<Result<Vec<_>>>()?;
            steps.push(CtStep {
                name: name.clone(),
                steps: chain,
                columns,
            });
        }
        Ok(PyObj::ColumnTransformer(steps))
    }

    fn labels_from(&mut self, line: usize, arg: &Arg) -> Result<(NodeId, String)> {
        match self.eval(line, &arg.value)? {
            PyObj::SeriesExpr {
                frame,
                expr: SExpr::Col(c),
            } => Ok((frame, c)),
            // label_binarize output: a one-column frame named 'label'.
            PyObj::Frame(id) => Ok((id, "label".to_string())),
            _ => Err(MlError::unsupported(line, "label argument")),
        }
    }

    fn pipeline_fit(&mut self, line: usize, pid: usize, args: &[Arg]) -> Result<PyObj> {
        let PyObj::Frame(x) = self.eval(line, &args[0].value)? else {
            return Err(MlError::capture(
                line,
                "fit on non-frame features".to_string(),
            ));
        };
        let labels = self.labels_from(line, &args[1])?;
        let state = self.pipelines[pid].clone();
        let feat = self.dag.push(
            line,
            OpKind::FeatureTransform {
                input: x,
                steps: state.steps.clone(),
                fit_node: None,
            },
        );
        let fit = self.dag.push(
            line,
            OpKind::ModelFit {
                features: feat,
                labels,
                model: state.model.clone(),
                seed: self.seed,
            },
        );
        self.pipelines[pid].fitted = Some((feat, fit));
        Ok(PyObj::MlPipeline(pid))
    }

    fn pipeline_score(&mut self, line: usize, pid: usize, args: &[Arg]) -> Result<PyObj> {
        let PyObj::Frame(x) = self.eval(line, &args[0].value)? else {
            return Err(MlError::capture(
                line,
                "score on non-frame features".to_string(),
            ));
        };
        let labels = self.labels_from(line, &args[1])?;
        let state = self.pipelines[pid].clone();
        let Some((fit_feat, fit_model)) = state.fitted else {
            return Err(MlError::capture(line, "score() before fit()".to_string()));
        };
        let feat = self.dag.push(
            line,
            OpKind::FeatureTransform {
                input: x,
                steps: state.steps.clone(),
                fit_node: Some(fit_feat),
            },
        );
        let score = self.dag.push(
            line,
            OpKind::ModelScore {
                model: fit_model,
                features: feat,
                labels,
            },
        );
        self.observed.push(score);
        Ok(PyObj::NoneObj)
    }

    // ---- argument helpers -----------------------------------------------------

    fn kwarg<'b>(&self, args: &'b [Arg], name: &str) -> Option<&'b Expr> {
        args.iter()
            .find(|a| a.name.as_deref() == Some(name))
            .map(|a| &a.value)
    }

    fn kwarg_str(&mut self, line: usize, args: &[Arg], name: &str) -> Result<Option<String>> {
        match self.kwarg(args, name) {
            None => Ok(None),
            Some(Expr::Str(s)) => Ok(Some(s.clone())),
            Some(_) => Err(MlError::unsupported(line, format!("{name}= value"))),
        }
    }

    fn kwarg_int(&mut self, line: usize, args: &[Arg], name: &str) -> Result<Option<i64>> {
        match self.kwarg(args, name) {
            None => Ok(None),
            Some(Expr::Int(i)) => Ok(Some(*i)),
            Some(_) => Err(MlError::unsupported(line, format!("{name}= value"))),
        }
    }

    fn kwarg_f64(&mut self, line: usize, args: &[Arg], name: &str) -> Result<Option<f64>> {
        match self.kwarg(args, name) {
            None => Ok(None),
            Some(Expr::Float(f)) => Ok(Some(*f)),
            Some(Expr::Int(i)) => Ok(Some(*i as f64)),
            Some(_) => Err(MlError::unsupported(line, format!("{name}= value"))),
        }
    }

    fn kwarg_str_list(
        &mut self,
        line: usize,
        args: &[Arg],
        name: &str,
    ) -> Result<Option<Vec<String>>> {
        let Some(expr) = self.kwarg(args, name) else {
            return Ok(None);
        };
        let expr = expr.clone();
        match self.eval(line, &expr)? {
            PyObj::Scalar(Value::Text(s)) => Ok(Some(vec![s])),
            PyObj::List(items) => Ok(Some(
                items
                    .into_iter()
                    .map(|i| match i {
                        PyObj::Scalar(Value::Text(s)) => Ok(s),
                        _ => Err(MlError::unsupported(line, "non-string list entry")),
                    })
                    .collect::<Result<Vec<_>>>()?,
            )),
            _ => Err(MlError::unsupported(line, format!("{name}= value"))),
        }
    }

    fn kwarg_value_list(
        &mut self,
        line: usize,
        args: &[Arg],
        name: &str,
    ) -> Result<Option<Vec<Value>>> {
        let Some(expr) = self.kwarg(args, name) else {
            return Ok(None);
        };
        let expr = expr.clone();
        match self.eval(line, &expr)? {
            PyObj::List(items) => Ok(Some(
                items
                    .into_iter()
                    .map(|i| match i {
                        PyObj::Scalar(v) => Ok(v),
                        _ => Err(MlError::unsupported(line, "non-scalar list entry")),
                    })
                    .collect::<Result<Vec<_>>>()?,
            )),
            _ => Err(MlError::unsupported(line, format!("{name}= value"))),
        }
    }

    fn scalar_arg(&mut self, line: usize, args: &[Arg], idx: usize) -> Result<Value> {
        let arg = args
            .get(idx)
            .ok_or_else(|| MlError::capture(line, format!("missing argument {idx}")))?;
        match self.eval(line, &arg.value)? {
            PyObj::Scalar(v) => Ok(v),
            _ => Err(MlError::unsupported(line, "non-scalar argument")),
        }
    }
}

fn fold_scalars(op: BinOp, a: &Value, b: &Value) -> Option<Value> {
    let num = |v: &Value| v.as_f64().ok();
    Some(match op {
        BinOp::Add => match (a, b) {
            (Value::Text(x), Value::Text(y)) => Value::text(format!("{x}{y}")),
            _ => num_result(num(a)? + num(b)?),
        },
        BinOp::Sub => num_result(num(a)? - num(b)?),
        BinOp::Mul => num_result(num(a)? * num(b)?),
        BinOp::Div => Value::Float(num(a)? / num(b)?),
        _ => return None,
    })
}

fn num_result(f: f64) -> Value {
    if f.fract() == 0.0 && f.abs() < 9.0e15 {
        Value::Int(f as i64)
    } else {
        Value::Float(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipelines;

    #[test]
    fn captures_healthcare_pipeline() {
        let cap = capture(pipelines::HEALTHCARE).unwrap();
        let labels: Vec<&str> = cap.dag.nodes.iter().map(|n| n.kind.label()).collect();
        // Two reads, two merges, one agg, setitem, projection, selection,
        // split x2, featurisation+fit, featurisation+score.
        assert_eq!(labels.iter().filter(|l| **l == "read_csv").count(), 2);
        assert_eq!(labels.iter().filter(|l| **l == "merge").count(), 2);
        assert!(labels.contains(&"groupby_agg"));
        assert!(labels.contains(&"set_item"));
        assert!(labels.contains(&"projection"));
        assert!(labels.contains(&"selection"));
        assert_eq!(
            labels.iter().filter(|l| **l == "train_test_split").count(),
            2
        );
        assert_eq!(labels.iter().filter(|l| **l == "featurisation").count(), 2);
        assert!(labels.contains(&"model_fit"));
        assert!(labels.contains(&"model_score"));
        assert_eq!(cap.files.len(), 2);
    }

    #[test]
    fn captures_compas_pipeline() {
        let cap = capture(pipelines::COMPAS).unwrap();
        let labels: Vec<&str> = cap.dag.nodes.iter().map(|n| n.kind.label()).collect();
        assert!(labels.contains(&"replace"));
        assert!(labels.contains(&"label_binarize"));
        assert!(labels.contains(&"selection"));
        assert!(labels.contains(&"model_score"));
    }

    #[test]
    fn captures_adult_simple_and_complex() {
        for src in [pipelines::ADULT_SIMPLE, pipelines::ADULT_COMPLEX] {
            let cap = capture(src).unwrap();
            assert!(cap.dag.nodes.iter().any(|n| n.kind.label() == "model_fit"));
        }
    }

    #[test]
    fn setitem_rebinds_variable() {
        let cap = capture(
            "data = pd.read_csv('x.csv')\ndata['b'] = data['a'] + 1\nresult = data.dropna()",
        )
        .unwrap();
        // dropna must consume the SetItem output, not the original read.
        let dropna = cap
            .dag
            .nodes
            .iter()
            .find(|n| n.kind.label() == "dropna")
            .unwrap();
        let setitem = cap
            .dag
            .nodes
            .iter()
            .find(|n| n.kind.label() == "set_item")
            .unwrap();
        assert_eq!(dropna.kind.inputs(), vec![setitem.id]);
    }

    #[test]
    fn selection_with_compound_condition() {
        let cap =
            capture("t = pd.read_csv('x.csv')\nt = t[(t['d'] <= 30) & (t['d'] >= -30)]").unwrap();
        let filter = cap
            .dag
            .nodes
            .iter()
            .find(|n| n.kind.label() == "selection")
            .unwrap();
        let OpKind::Filter { condition, .. } = &filter.kind else {
            panic!()
        };
        assert!(matches!(
            condition,
            SExpr::Binary {
                op: BinOp::BitAnd,
                ..
            }
        ));
    }

    #[test]
    fn cross_frame_series_combination_is_rejected() {
        let err = capture("a = pd.read_csv('a.csv')\nb = pd.read_csv('b.csv')\na['x'] = b['y']")
            .unwrap_err();
        assert!(matches!(err, MlError::Unsupported { .. }));
    }

    #[test]
    fn score_before_fit_is_error() {
        let src = "
p = Pipeline([('m', LogisticRegression())])
t = pd.read_csv('x.csv')
p.score(t, t['y'])
";
        assert!(capture(src).is_err());
    }

    #[test]
    fn undefined_name_reports_line() {
        let err = capture("x = 1\ny = missing_frame.dropna()").unwrap_err();
        let MlError::Capture { line, .. } = err else {
            panic!("{err}")
        };
        assert_eq!(line, 2);
    }

    #[test]
    fn observed_tracks_printed_frames() {
        let cap = capture("t = pd.read_csv('x.csv')\nprint(t)").unwrap();
        assert_eq!(cap.observed.len(), 1);
    }

    #[test]
    fn seeds_flow_into_split_and_fit() {
        let cap = capture_with_seed(pipelines::HEALTHCARE, 17).unwrap();
        let split = cap
            .dag
            .nodes
            .iter()
            .find(|n| n.kind.label() == "train_test_split")
            .unwrap();
        let OpKind::Split { seed, .. } = split.kind else {
            panic!()
        };
        assert_eq!(seed, 17);
    }
}
