//! Vectorized expression evaluation over columnar chunks.
//!
//! [`eval_col`] evaluates one bound expression for every row named by a
//! *selection vector* (`sel`, indices into the chunk) and returns either a
//! dense column aligned with the selection or a scalar broadcast over it.
//! Lazy SQL semantics are preserved exactly by *splitting* the selection
//! instead of masking results after the fact: the right side of `AND`/`OR`,
//! CASE arms, and IN-list items are only ever evaluated for the rows the
//! row-at-a-time engine would have evaluated them for, so runtime errors
//! (division by zero, bad casts) fire for precisely the same rows.
//!
//! Comparison and arithmetic over int/float columns run branch-light typed
//! fast paths; every other shape funnels through the row engine's
//! [`binary`] / [`eval`] so the two engines cannot disagree.

use crate::ast::{BinaryOp, UnaryOp};
use crate::error::{Result, SqlError};
use crate::exec::eval::{binary, eval, three_valued_and, three_valued_or, truthy};
use crate::exec::ExecContext;
use crate::plan::BExpr;
use etypes::chunk::{Column, ColumnData, NullBitmap};
use etypes::{ColumnChunk, Value};
use std::cmp::Ordering;
use std::rc::Rc;

/// The result of evaluating one expression over a selection: a dense
/// column (one slot per selected row) or one value broadcast over all of
/// them.
pub(crate) enum Evaluated {
    /// Dense per-selected-row values.
    Col(Rc<Column>),
    /// The same value for every selected row.
    Scalar(Value),
}

impl Evaluated {
    /// The value for dense position `i` (an index into the selection, not
    /// the chunk).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Value {
        match self {
            Evaluated::Col(c) => c.get(i),
            Evaluated::Scalar(v) => v.clone(),
        }
    }

    /// Force a dense column of `n` slots (broadcasting a scalar).
    pub(crate) fn materialize(self, n: usize) -> Rc<Column> {
        match self {
            Evaluated::Col(c) => c,
            Evaluated::Scalar(v) => {
                let cells = vec![v; n];
                Rc::new(Column::from_values(&cells))
            }
        }
    }
}

/// An empty dense column (zero selected rows).
fn empty_col() -> Evaluated {
    Evaluated::Col(Rc::new(Column::from_values(&[])))
}

/// Incremental builder for boolean result columns.
struct BoolBuilder {
    data: Vec<bool>,
    nulls: NullBitmap,
}

impl BoolBuilder {
    fn new(n: usize) -> BoolBuilder {
        BoolBuilder {
            data: vec![false; n],
            nulls: NullBitmap::new_valid(n),
        }
    }

    #[inline]
    fn set(&mut self, i: usize, v: bool) {
        self.data[i] = v;
    }

    #[inline]
    fn set_null(&mut self, i: usize) {
        self.nulls.set_null(i);
    }

    fn finish(self) -> Evaluated {
        Evaluated::Col(Rc::new(Column::new(
            ColumnData::Bool(self.data),
            self.nulls,
        )))
    }
}

/// Keep only the selected rows of every column in `chunk`.
pub(crate) fn gather_chunk(chunk: &ColumnChunk, sel: &[usize]) -> ColumnChunk {
    let cols = chunk
        .columns()
        .iter()
        .map(|c| Rc::new(c.gather(sel)))
        .collect();
    ColumnChunk::new(cols, sel.len())
}

/// Dense indices (into the selection) whose value is exactly `TRUE` — the
/// rows a WHERE keeps.
pub(crate) fn truthy_selection(pred: &Evaluated, n: usize) -> Vec<usize> {
    match pred {
        Evaluated::Scalar(v) => {
            if truthy(v) {
                (0..n).collect()
            } else {
                Vec::new()
            }
        }
        Evaluated::Col(c) => match c.data() {
            ColumnData::Bool(v) => {
                let nulls = c.nulls();
                if nulls.all_valid() {
                    (0..n).filter(|&i| v[i]).collect()
                } else {
                    (0..n).filter(|&i| v[i] && !nulls.is_null(i)).collect()
                }
            }
            _ => (0..n).filter(|&i| truthy(&c.get(i))).collect(),
        },
    }
}

/// Evaluate `expr` for every row of `chunk` named by `sel`, in selection
/// order. The result is dense over `sel` (or a broadcast scalar).
pub(crate) fn eval_col(
    expr: &BExpr,
    chunk: &ColumnChunk,
    sel: &[usize],
    ctx: &ExecContext<'_>,
) -> Result<Evaluated> {
    if sel.is_empty() {
        // No selected rows: nothing may be evaluated (and no error may
        // fire), exactly like the row engine skipping every row.
        return Ok(empty_col());
    }
    let n = sel.len();
    Ok(match expr {
        BExpr::Col(i) => {
            if n == chunk.len() {
                // Selections are strictly increasing subsets of 0..len, so
                // a full-length selection is the identity.
                Evaluated::Col(Rc::clone(chunk.column(*i)))
            } else {
                Evaluated::Col(Rc::new(chunk.column(*i).gather(sel)))
            }
        }
        BExpr::Lit(v) => Evaluated::Scalar(v.clone()),
        // Parameters are substituted for literals before execution
        // (`PlanRoot::bind_params`); reaching one here is an engine bug.
        BExpr::Param(n) => {
            return Err(SqlError::exec(format!(
                "unbound parameter ${n} reached the columnar executor"
            )))
        }
        BExpr::Binary { op, left, right } => match op {
            BinaryOp::And => {
                let l = eval_col(left, chunk, sel, ctx)?;
                if let Evaluated::Scalar(Value::Bool(false)) = &l {
                    return Ok(Evaluated::Scalar(Value::Bool(false)));
                }
                // Rows where the left side is FALSE short-circuit; only the
                // rest see the right side.
                let need: Vec<usize> = (0..n).filter(|&i| l.get(i) != Value::Bool(false)).collect();
                let sub_sel: Vec<usize> = need.iter().map(|&i| sel[i]).collect();
                let r = eval_col(right, chunk, &sub_sel, ctx)?;
                let mut out = BoolBuilder::new(n);
                for (k, &i) in need.iter().enumerate() {
                    match three_valued_and(&l.get(i), &r.get(k)) {
                        Value::Bool(b) => out.set(i, b),
                        _ => out.set_null(i),
                    }
                }
                out.finish()
            }
            BinaryOp::Or => {
                let l = eval_col(left, chunk, sel, ctx)?;
                if let Evaluated::Scalar(Value::Bool(true)) = &l {
                    return Ok(Evaluated::Scalar(Value::Bool(true)));
                }
                let need: Vec<usize> = (0..n).filter(|&i| l.get(i) != Value::Bool(true)).collect();
                let sub_sel: Vec<usize> = need.iter().map(|&i| sel[i]).collect();
                let r = eval_col(right, chunk, &sub_sel, ctx)?;
                let mut out = BoolBuilder::new(n);
                for i in 0..n {
                    out.set(i, true);
                }
                for (k, &i) in need.iter().enumerate() {
                    match three_valued_or(&l.get(i), &r.get(k)) {
                        Value::Bool(b) => out.set(i, b),
                        _ => {
                            out.set(i, false);
                            out.set_null(i);
                        }
                    }
                }
                out.finish()
            }
            _ => {
                let l = eval_col(left, chunk, sel, ctx)?;
                let r = eval_col(right, chunk, sel, ctx)?;
                binary_vec(*op, &l, &r, n)?
            }
        },
        BExpr::Unary { op, operand } => {
            let v = eval_col(operand, chunk, sel, ctx)?;
            if let Evaluated::Scalar(s) = &v {
                return Ok(Evaluated::Scalar(unary_one(*op, s)?));
            }
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(unary_one(*op, &v.get(i))?);
            }
            Evaluated::Col(Rc::new(Column::from_values(&out)))
        }
        BExpr::Func { func, args } => {
            let arg_cols: Vec<Evaluated> = args
                .iter()
                .map(|a| eval_col(a, chunk, sel, ctx))
                .collect::<Result<_>>()?;
            let mut out = Vec::with_capacity(n);
            let mut vals = Vec::with_capacity(args.len());
            for i in 0..n {
                vals.clear();
                for a in &arg_cols {
                    vals.push(a.get(i));
                }
                out.push(func.eval(&vals)?);
            }
            Evaluated::Col(Rc::new(Column::from_values(&out)))
        }
        BExpr::Case { whens, else_expr } => {
            let mut out = vec![Value::Null; n];
            let mut remaining: Vec<usize> = (0..n).collect();
            for (cond, value) in whens {
                if remaining.is_empty() {
                    break;
                }
                let sub_sel: Vec<usize> = remaining.iter().map(|&i| sel[i]).collect();
                let c = eval_col(cond, chunk, &sub_sel, ctx)?;
                let mut matched = Vec::new();
                let mut rest = Vec::new();
                for (k, &i) in remaining.iter().enumerate() {
                    if truthy(&c.get(k)) {
                        matched.push(i);
                    } else {
                        rest.push(i);
                    }
                }
                if !matched.is_empty() {
                    let msel: Vec<usize> = matched.iter().map(|&i| sel[i]).collect();
                    let v = eval_col(value, chunk, &msel, ctx)?;
                    for (k, &i) in matched.iter().enumerate() {
                        out[i] = v.get(k);
                    }
                }
                remaining = rest;
            }
            if let Some(e) = else_expr {
                if !remaining.is_empty() {
                    let esel: Vec<usize> = remaining.iter().map(|&i| sel[i]).collect();
                    let v = eval_col(e, chunk, &esel, ctx)?;
                    for (k, &i) in remaining.iter().enumerate() {
                        out[i] = v.get(k);
                    }
                }
            }
            Evaluated::Col(Rc::new(Column::from_values(&out)))
        }
        BExpr::Cast { expr, ty } => {
            let v = eval_col(expr, chunk, sel, ctx)?;
            if let Evaluated::Scalar(s) = &v {
                return Ok(Evaluated::Scalar(s.clone().cast(ty)?));
            }
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(v.get(i).cast(ty)?);
            }
            Evaluated::Col(Rc::new(Column::from_values(&out)))
        }
        BExpr::InList {
            expr,
            list,
            negated,
        } => {
            if !list.iter().all(|item| matches!(item, BExpr::Lit(_))) {
                // Non-literal candidates: defer to the row engine per row so
                // lazy evaluation order (and its errors) match exactly.
                return eval_rowwise(
                    &BExpr::InList {
                        expr: expr.clone(),
                        list: list.clone(),
                        negated: *negated,
                    },
                    chunk,
                    sel,
                    ctx,
                );
            }
            let lits: Vec<&Value> = list
                .iter()
                .map(|item| match item {
                    BExpr::Lit(v) => v,
                    _ => unreachable!("checked above"),
                })
                .collect();
            let v = eval_col(expr, chunk, sel, ctx)?;
            let mut out = BoolBuilder::new(n);
            for i in 0..n {
                let vi = v.get(i);
                if vi.is_null() {
                    out.set_null(i);
                    continue;
                }
                let mut saw_null = false;
                let mut found = false;
                for c in &lits {
                    if c.is_null() {
                        saw_null = true;
                    } else if **c == vi {
                        found = true;
                        break;
                    }
                }
                if found {
                    out.set(i, !negated);
                } else if saw_null {
                    out.set_null(i);
                } else {
                    out.set(i, *negated);
                }
            }
            out.finish()
        }
        BExpr::IsNull { expr, negated } => {
            let v = eval_col(expr, chunk, sel, ctx)?;
            match &v {
                Evaluated::Scalar(s) => Evaluated::Scalar(Value::Bool(s.is_null() != *negated)),
                Evaluated::Col(c) => {
                    let mut out = BoolBuilder::new(n);
                    for i in 0..n {
                        out.set(i, c.is_null(i) != *negated);
                    }
                    out.finish()
                }
            }
        }
        BExpr::Subplan(i) => Evaluated::Scalar(ctx.subplan_value(*i)?),
    })
}

/// Per-row fallback: materialize each selected row and defer to the row
/// engine's evaluator (exact semantics by construction).
fn eval_rowwise(
    expr: &BExpr,
    chunk: &ColumnChunk,
    sel: &[usize],
    ctx: &ExecContext<'_>,
) -> Result<Evaluated> {
    let mut out = Vec::with_capacity(sel.len());
    for &r in sel {
        let row = chunk.get_row(r);
        out.push(eval(expr, &row, ctx)?);
    }
    Ok(Evaluated::Col(Rc::new(Column::from_values(&out))))
}

fn unary_one(op: UnaryOp, v: &Value) -> Result<Value> {
    use crate::error::SqlError;
    Ok(match op {
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => Value::Int(-i),
            other => Value::Float(-other.as_f64()?),
        },
        UnaryOp::Not => match v {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(!b),
            other => return Err(SqlError::exec(format!("NOT of non-boolean {other}"))),
        },
    })
}

/// One side of a numeric fast path.
enum NumSide<'a> {
    IntCol(&'a [i64], &'a NullBitmap),
    FloatCol(&'a [f64], &'a NullBitmap),
    IntConst(i64),
    FloatConst(f64),
}

impl NumSide<'_> {
    #[inline]
    fn is_null(&self, i: usize) -> bool {
        match self {
            NumSide::IntCol(_, n) | NumSide::FloatCol(_, n) => n.is_null(i),
            _ => false,
        }
    }

    #[inline]
    fn int_at(&self, i: usize) -> i64 {
        match self {
            NumSide::IntCol(v, _) => v[i],
            NumSide::IntConst(c) => *c,
            _ => unreachable!("int access on float side"),
        }
    }

    #[inline]
    fn f64_at(&self, i: usize) -> f64 {
        match self {
            NumSide::IntCol(v, _) => v[i] as f64,
            NumSide::FloatCol(v, _) => v[i],
            NumSide::IntConst(c) => *c as f64,
            NumSide::FloatConst(c) => *c,
        }
    }

    fn is_int(&self) -> bool {
        matches!(self, NumSide::IntCol(..) | NumSide::IntConst(_))
    }
}

fn num_side<'a>(e: &'a Evaluated) -> Option<NumSide<'a>> {
    match e {
        Evaluated::Col(c) => match c.data() {
            ColumnData::Int(v) => Some(NumSide::IntCol(v, c.nulls())),
            ColumnData::Float(v) => Some(NumSide::FloatCol(v, c.nulls())),
            _ => None,
        },
        Evaluated::Scalar(Value::Int(i)) => Some(NumSide::IntConst(*i)),
        Evaluated::Scalar(Value::Float(f)) => Some(NumSide::FloatConst(*f)),
        _ => None,
    }
}

/// Vectorized binary operator (everything except AND/OR, which need lazy
/// selection splitting and are handled in [`eval_col`]).
fn binary_vec(op: BinaryOp, l: &Evaluated, r: &Evaluated, n: usize) -> Result<Evaluated> {
    use BinaryOp::*;
    // A NULL scalar operand makes every row NULL for all non-Concat
    // operators (the row engine checks nulls before anything can error).
    if op != Concat
        && (matches!(l, Evaluated::Scalar(Value::Null))
            || matches!(r, Evaluated::Scalar(Value::Null)))
    {
        return Ok(Evaluated::Scalar(Value::Null));
    }
    if let (Evaluated::Scalar(a), Evaluated::Scalar(b)) = (l, r) {
        return Ok(Evaluated::Scalar(binary(op, a, b)?));
    }
    // Typed fast paths over int/float columns.
    if let (Some(a), Some(b)) = (num_side(l), num_side(r)) {
        match op {
            Eq | NotEq | Lt | Gt | Le | Ge => {
                let both_int = a.is_int() && b.is_int();
                let mut out = BoolBuilder::new(n);
                for i in 0..n {
                    if a.is_null(i) || b.is_null(i) {
                        out.set_null(i);
                        continue;
                    }
                    // Value::cmp semantics: int/int compares exactly, any
                    // float side compares by f64 total order.
                    let ord = if both_int {
                        a.int_at(i).cmp(&b.int_at(i))
                    } else {
                        a.f64_at(i).total_cmp(&b.f64_at(i))
                    };
                    out.set(
                        i,
                        match op {
                            Eq => ord == Ordering::Equal,
                            NotEq => ord != Ordering::Equal,
                            Lt => ord == Ordering::Less,
                            Gt => ord == Ordering::Greater,
                            Le => ord != Ordering::Greater,
                            Ge => ord != Ordering::Less,
                            _ => unreachable!("comparison op"),
                        },
                    );
                }
                return Ok(out.finish());
            }
            Add | Sub | Mul => {
                let f = |x: f64, y: f64| match op {
                    Add => x + y,
                    Sub => x - y,
                    _ => x * y,
                };
                if a.is_int() && b.is_int() {
                    // Int arithmetic runs in f64 and narrows back when the
                    // result is integral in range (`eval::arith`); a single
                    // overflowing row widens just that row to float, so the
                    // output is built as values.
                    let mut out = Vec::with_capacity(n);
                    for i in 0..n {
                        if a.is_null(i) || b.is_null(i) {
                            out.push(Value::Null);
                            continue;
                        }
                        let x = f(a.int_at(i) as f64, b.int_at(i) as f64);
                        out.push(if x.fract() == 0.0 && x.abs() < 9.0e15 {
                            Value::Int(x as i64)
                        } else {
                            Value::Float(x)
                        });
                    }
                    return Ok(Evaluated::Col(Rc::new(Column::from_values(&out))));
                }
                let mut nulls = NullBitmap::new_valid(n);
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    if a.is_null(i) || b.is_null(i) {
                        nulls.set_null(i);
                        out.push(0.0);
                    } else {
                        out.push(f(a.f64_at(i), b.f64_at(i)));
                    }
                }
                return Ok(Evaluated::Col(Rc::new(Column::new(
                    ColumnData::Float(out),
                    nulls,
                ))));
            }
            _ => {}
        }
    }
    // Generic path: per-row values through the row engine's operator.
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(binary(op, &l.get(i), &r.get(i))?);
    }
    Ok(Evaluated::Col(Rc::new(Column::from_values(&out))))
}
