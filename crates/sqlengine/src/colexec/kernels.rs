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
//! Kernels dispatch on the storage of their argument columns at run time:
//! - numbers: comparison, `+ - * /` and `floor` run as typed loops, and a
//!   cast to a column's own type shares it;
//! - lists: `array_fill` and `||` work on offsets plus one typed child
//!   column, and `CASE` scatters its arms' columns by position;
//! - text: `REGEXP_REPLACE`, `COALESCE` with a scalar, comparisons and IN
//!   against literals run once per dictionary code the rows reference, and
//!   share the input column when nothing changes;
//! - booleans: `AND` / `OR` over `Bool` columns and `Bool` / NULL scalars
//!   read the bools and the null bitmap, `NOT` of a `Bool` column flips
//!   the data, and Int `%` by a non-zero Int scalar is a typed loop.
//!
//! Every other shape funnels through the row engine's [`binary`] / [`eval`]
//! / `ScalarFunc::eval` so the two engines cannot disagree.

use crate::ast::{BinaryOp, UnaryOp};
use crate::error::{Result, SqlError};
use crate::exec::eval::{binary, eval, three_valued_and, three_valued_or, truthy, unary};
use crate::exec::ExecContext;
use crate::functions::{RegexLiteral, ScalarFunc};
use crate::plan::BExpr;
use etypes::chunk::{Column, ColumnData, NullBitmap};
use etypes::{ColumnChunk, DataType, Value};
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
            Evaluated::Scalar(v) => Rc::new(Column::repeat(&v, n)),
        }
    }
}

fn col(data: ColumnData, nulls: NullBitmap) -> Evaluated {
    Evaluated::Col(Rc::new(Column::new(data, nulls)))
}

/// The column of per-row values (the row engine's answers, re-typed).
fn values_col(cells: &[Value]) -> Evaluated {
    Evaluated::Col(Rc::new(Column::from_values(cells)))
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

    /// Set row `i` to a three-valued answer (`None` is NULL, over the
    /// type default `false`).
    #[inline]
    fn set_opt(&mut self, i: usize, v: Option<bool>) {
        match v {
            Some(b) => self.set(i, b),
            None => {
                self.set(i, false);
                self.set_null(i);
            }
        }
    }

    fn finish(self) -> Evaluated {
        col(ColumnData::Bool(self.data), self.nulls)
    }
}

/// An operand of a boolean connective read as three-valued bools: a
/// `Bool` column, or a `Bool` / NULL scalar. `None` for any other operand,
/// which takes the per-row path.
enum Truth<'a> {
    Col(&'a [bool], &'a NullBitmap),
    Const(Option<bool>),
}

impl Truth<'_> {
    fn of(e: &Evaluated) -> Option<Truth<'_>> {
        match e {
            Evaluated::Col(c) => match c.data() {
                ColumnData::Bool(v) => Some(Truth::Col(v, c.nulls())),
                _ => None,
            },
            Evaluated::Scalar(Value::Bool(b)) => Some(Truth::Const(Some(*b))),
            Evaluated::Scalar(Value::Null) => Some(Truth::Const(None)),
            Evaluated::Scalar(_) => None,
        }
    }

    #[inline]
    fn at(&self, i: usize) -> Option<bool> {
        match self {
            Truth::Col(v, nulls) => (!nulls.is_null(i)).then(|| v[i]),
            Truth::Const(b) => *b,
        }
    }
}

/// Three-valued OR (`decisive` TRUE) or AND (`decisive` FALSE): the
/// decisive value on either side wins, then NULL, then the other value.
#[inline]
fn connect(decisive: bool, a: Option<bool>, b: Option<bool>) -> Option<bool> {
    if a == Some(decisive) || b == Some(decisive) {
        Some(decisive)
    } else if a.is_some() && b.is_some() {
        Some(!decisive)
    } else {
        None
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
        return Ok(values_col(&[]));
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
            BinaryOp::And | BinaryOp::Or => {
                // The value that decides the answer on its own: FALSE for
                // AND, TRUE for OR.
                let decisive = *op == BinaryOp::Or;
                let l = eval_col(left, chunk, sel, ctx)?;
                if let Evaluated::Scalar(Value::Bool(b)) = &l {
                    if *b == decisive {
                        return Ok(l);
                    }
                }
                // Rows where the left side decides short-circuit; only the
                // rest see the right side.
                let lt = Truth::of(&l);
                let need: Vec<usize> = match &lt {
                    Some(t) => (0..n).filter(|&i| t.at(i) != Some(decisive)).collect(),
                    None => (0..n)
                        .filter(|&i| l.get(i) != Value::Bool(decisive))
                        .collect(),
                };
                let sub_sel: Vec<usize> = need.iter().map(|&i| sel[i]).collect();
                let r = eval_col(right, chunk, &sub_sel, ctx)?;
                let mut out = BoolBuilder::new(n);
                if decisive {
                    out.data.fill(true);
                }
                match (lt, Truth::of(&r)) {
                    (Some(a), Some(b)) => {
                        for (k, &i) in need.iter().enumerate() {
                            out.set_opt(i, connect(decisive, a.at(i), b.at(k)));
                        }
                    }
                    _ => {
                        let connective = if decisive {
                            three_valued_or
                        } else {
                            three_valued_and
                        };
                        for (k, &i) in need.iter().enumerate() {
                            match connective(&l.get(i), &r.get(k)) {
                                Value::Bool(b) => out.set(i, b),
                                _ => out.set_opt(i, None),
                            }
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
        BExpr::Unary { op, operand } => match eval_col(operand, chunk, sel, ctx)? {
            Evaluated::Scalar(s) => Evaluated::Scalar(unary(*op, &s)?),
            // NOT of a Bool column: the data flipped, the nulls kept.
            Evaluated::Col(c) if *op == UnaryOp::Not && matches!(c.data(), ColumnData::Bool(_)) => {
                let ColumnData::Bool(v) = c.data() else {
                    unreachable!("matched above")
                };
                col(
                    ColumnData::Bool(
                        v.iter()
                            .enumerate()
                            .map(|(i, &b)| !b && !c.is_null(i))
                            .collect(),
                    ),
                    c.nulls().clone(),
                )
            }
            Evaluated::Col(c) => values_col(
                &(0..n)
                    .map(|i| unary(*op, &c.get(i)))
                    .collect::<Result<Vec<_>>>()?,
            ),
        },
        BExpr::Func { func, args } => {
            let args: Vec<Evaluated> = args
                .iter()
                .map(|a| eval_col(a, chunk, sel, ctx))
                .collect::<Result<_>>()?;
            if args.iter().all(|a| matches!(a, Evaluated::Scalar(_))) {
                // Every function is deterministic: one call answers all rows.
                let vals: Vec<Value> = args.iter().map(|a| a.get(0)).collect();
                return Ok(Evaluated::Scalar(func.eval(&vals)?));
            }
            match func_typed(*func, &args, n)? {
                Some(out) => out,
                None => {
                    let mut out = Vec::with_capacity(n);
                    let mut vals = Vec::with_capacity(args.len());
                    for i in 0..n {
                        vals.clear();
                        vals.extend(args.iter().map(|a| a.get(i)));
                        out.push(func.eval(&vals)?);
                    }
                    values_col(&out)
                }
            }
        }
        BExpr::Case { whens, else_expr } => {
            // Each arm runs for exactly the rows that reach it; its answer
            // is then scattered to those rows' positions.
            let mut arms: Vec<(Vec<usize>, Evaluated)> = Vec::new();
            let mut remaining: Vec<usize> = (0..n).collect();
            for (cond, value) in whens {
                if remaining.is_empty() {
                    break;
                }
                let sub_sel: Vec<usize> = remaining.iter().map(|&i| sel[i]).collect();
                let c = eval_col(cond, chunk, &sub_sel, ctx)?;
                let hits = truthy_selection(&c, remaining.len());
                if hits.is_empty() {
                    continue;
                }
                let matched: Vec<usize> = hits.iter().map(|&k| remaining[k]).collect();
                let msel: Vec<usize> = matched.iter().map(|&i| sel[i]).collect();
                arms.push((matched, eval_col(value, chunk, &msel, ctx)?));
                let mut hit = hits.iter().peekable();
                remaining = remaining
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| hit.next_if_eq(&k).is_none())
                    .map(|(_, &i)| i)
                    .collect();
            }
            if let (Some(e), false) = (else_expr, remaining.is_empty()) {
                let esel: Vec<usize> = remaining.iter().map(|&i| sel[i]).collect();
                arms.push((remaining, eval_col(e, chunk, &esel, ctx)?));
            }
            scatter(arms, n)
        }
        BExpr::Cast { expr, ty } => {
            let c = match eval_col(expr, chunk, sel, ctx)? {
                Evaluated::Scalar(s) => return Ok(Evaluated::Scalar(s.cast(ty)?)),
                Evaluated::Col(c) => c,
            };
            match (c.data(), ty) {
                // A cast to the storage's own type changes nothing.
                (ColumnData::Int(_), DataType::Int | DataType::Serial)
                | (ColumnData::Float(_), DataType::Float)
                | (ColumnData::Bool(_), DataType::Bool)
                | (ColumnData::Text { .. }, DataType::Text) => Evaluated::Col(c),
                _ => values_col(
                    &(0..n)
                        .map(|i| Ok(c.get(i).cast(ty)?))
                        .collect::<Result<Vec<_>>>()?,
                ),
            }
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
            let saw_null = lits.iter().any(|c| c.is_null());
            let answer = |found: bool| match (found, saw_null) {
                (true, _) => Some(!negated),
                (false, true) => None,
                (false, false) => Some(*negated),
            };
            let v = eval_col(expr, chunk, sel, ctx)?;
            if let Some(out) = text_predicate(&v, |s| {
                answer(lits.iter().any(|c| matches!(c, Value::Text(t) if t == s)))
            }) {
                return Ok(out);
            }
            let mut out = BoolBuilder::new(n);
            for i in 0..n {
                let vi = v.get(i);
                if vi.is_null() {
                    out.set_null(i);
                } else {
                    out.set_opt(i, answer(lits.iter().any(|c| !c.is_null() && **c == vi)));
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
    Ok(values_col(&out))
}

/// Assemble a `CASE` from its arms: each arm's answer covers the listed
/// positions, and positions no arm reached are NULL. One arm covering
/// every row is returned as it is; otherwise the arms' columns are joined
/// end to end and gathered into position order, in their own storage.
fn scatter(mut arms: Vec<(Vec<usize>, Evaluated)>, n: usize) -> Evaluated {
    if arms.len() == 1 && arms[0].0.len() == n {
        return arms.pop().expect("one arm").1;
    }
    if arms.is_empty() {
        return Evaluated::Scalar(Value::Null);
    }
    let mut src: Vec<Option<usize>> = vec![None; n];
    let mut parts = Vec::with_capacity(arms.len());
    let mut base = 0;
    for (rows, v) in arms {
        for (k, &i) in rows.iter().enumerate() {
            src[i] = Some(base + k);
        }
        base += rows.len();
        parts.push(v.materialize(rows.len()));
    }
    let refs: Vec<&Column> = parts.iter().map(Rc::as_ref).collect();
    Evaluated::Col(Rc::new(Column::concat(&refs).gather_opt(&src)))
}

/// A boolean answer computed once per dictionary code of a text column
/// (`None` is NULL; NULL rows answer NULL); `None` when `v` is not text
/// storage.
fn text_predicate(v: &Evaluated, f: impl Fn(&str) -> Option<bool>) -> Option<Evaluated> {
    let Evaluated::Col(c) = v else { return None };
    let ColumnData::Text { dict, codes } = c.data() else {
        return None;
    };
    // Per code: not yet asked, or the answer.
    let mut memo: Vec<Option<Option<bool>>> = vec![None; dict.len()];
    let mut out = BoolBuilder::new(c.len());
    for (i, &code) in codes.iter().enumerate() {
        if c.is_null(i) {
            out.set_null(i);
            continue;
        }
        let answer = *memo[code as usize].get_or_insert_with(|| f(dict.get(code)));
        out.set_opt(i, answer);
    }
    Some(out.finish())
}

/// Typed kernels for the scalar functions of the paper's translations;
/// `None` sends the call down the per-row path.
fn func_typed(func: ScalarFunc, args: &[Evaluated], n: usize) -> Result<Option<Evaluated>> {
    use Evaluated::{Col, Scalar};
    Ok(Some(match (func, args) {
        // `array_fill(v, len)`: offsets from the lengths, one child of `v`.
        (ScalarFunc::ArrayFill, [Scalar(v), Col(len)]) if !matches!(v, Value::Array(_)) => {
            let ColumnData::Int(lens) = len.data() else {
                return Ok(None);
            };
            if !len.nulls().all_valid() {
                // A NULL length errors on its row: the per-row path says so.
                return Ok(None);
            }
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0u32);
            let mut total = 0u32;
            for &k in lens {
                total += k.max(0) as u32;
                offsets.push(total);
            }
            let child = Column::repeat(v, total as usize);
            Col(Rc::new(Column::list(
                offsets,
                NullBitmap::new_valid(n),
                Rc::new(child),
            )))
        }
        (ScalarFunc::RegexpReplace, [Col(s), Scalar(pattern), Scalar(replacement)])
            if matches!(s.data(), ColumnData::Text { .. }) =>
        {
            if s.nulls().null_count() == n {
                // NULL in, NULL out, and no argument is ever looked at.
                return Ok(Some(Col(Rc::clone(s))));
            }
            let (pattern, replacement) = (pattern.as_str()?, replacement.as_str()?);
            let re = RegexLiteral::parse(pattern)?;
            match s.map_text(|x| Ok::<_, SqlError>(re.replace(x, replacement)))? {
                Some(mapped) => Col(Rc::new(mapped)),
                None => Col(Rc::clone(s)),
            }
        }
        // COALESCE(text, scalar): the NULL rows take the fill's code.
        (ScalarFunc::Coalesce, [Col(c), Scalar(fill)]) => match (c.data(), fill) {
            (ColumnData::Text { .. }, _) if c.nulls().all_valid() || fill.is_null() => {
                Col(Rc::clone(c))
            }
            (ColumnData::Text { .. }, Value::Text(f)) => {
                Col(Rc::new(c.fill_text_nulls(f).expect("text storage")))
            }
            _ => return Ok(None),
        },
        // KBinsDiscretizer's FLOOR over a float column.
        (ScalarFunc::Floor, [Col(c)]) => match c.data() {
            ColumnData::Float(x) => col(
                ColumnData::Float(x.iter().map(|x| x.floor()).collect()),
                c.nulls().clone(),
            ),
            _ => return Ok(None),
        },
        _ => return Ok(None),
    }))
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

/// Does comparison `op` hold for two values ordered `ord`?
fn compares(op: BinaryOp, ord: Ordering) -> bool {
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::Le => ord != Ordering::Greater,
        BinaryOp::Ge => ord != Ordering::Less,
        _ => unreachable!("comparison op"),
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
    let comparison = matches!(op, Eq | NotEq | Lt | Gt | Le | Ge);
    // Text against a text literal: one comparison per dictionary code.
    let text = match (l, r) {
        _ if !comparison => None,
        (_, Evaluated::Scalar(Value::Text(lit))) => {
            text_predicate(l, |s| Some(compares(op, s.cmp(lit.as_str()))))
        }
        (Evaluated::Scalar(Value::Text(lit)), _) => {
            text_predicate(r, |s| Some(compares(op, lit.as_str().cmp(s))))
        }
        _ => None,
    };
    if let Some(out) = text {
        return Ok(out);
    }
    if op == Concat {
        if let Some(out) = concat_lists(l, r, n) {
            return Ok(out);
        }
    }
    // Int `%` by a non-zero Int scalar; `wrapping_rem` answers 0 for
    // `i64::MIN % -1`, as the row engine does.
    if let (Mod, Evaluated::Col(c), Evaluated::Scalar(Value::Int(d))) = (op, l, r) {
        if let (ColumnData::Int(v), true) = (c.data(), *d != 0) {
            let out = v.iter().map(|x| x.wrapping_rem(*d)).collect();
            return Ok(col(ColumnData::Int(out), c.nulls().clone()));
        }
    }
    // Typed fast paths over int/float columns.
    if let (Some(a), Some(b)) = (num_side(l), num_side(r)) {
        let both_int = a.is_int() && b.is_int();
        if comparison {
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
                out.set(i, compares(op, ord));
            }
            return Ok(out.finish());
        }
        let f = |x: f64, y: f64| match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            _ => x / y,
        };
        if both_int && matches!(op, Add | Sub | Mul) {
            // Int arithmetic runs in f64 and narrows back when the result
            // is integral in range (`eval::arith`); a row that does not
            // narrows widens just that row to float, so only an all-narrow
            // batch stays typed.
            let mut nulls = NullBitmap::new_valid(n);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                if a.is_null(i) || b.is_null(i) {
                    nulls.set_null(i);
                    out.push(0);
                    continue;
                }
                let x = f(a.int_at(i) as f64, b.int_at(i) as f64);
                if x.fract() != 0.0 || x.abs() >= 9.0e15 {
                    break;
                }
                out.push(x as i64);
            }
            if out.len() == n {
                return Ok(col(ColumnData::Int(out), nulls));
            }
        } else if !both_int && matches!(op, Add | Sub | Mul | Div) {
            // Any float side: f64 arithmetic, no error possible.
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
            return Ok(col(ColumnData::Float(out), nulls));
        }
    }
    // Generic path: per-row values through the row engine's operator.
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        out.push(binary(op, &l.get(i), &r.get(i))?);
    }
    Ok(values_col(&out))
}

/// One array operand of `||`, as per-row element ranges into `child`: a
/// list column, a scalar array (`ARRAY[1]`), or NULL.
struct ConcatSide {
    child: Rc<Column>,
    rows: SideRows,
}

enum SideRows {
    /// A list column: row `i` spans its offsets, or is NULL.
    List(Rc<Column>),
    /// Every row spans the whole child.
    Whole,
    /// Every row is NULL.
    Null,
}

impl ConcatSide {
    fn of(e: &Evaluated) -> Option<ConcatSide> {
        let (child, rows) = match e {
            Evaluated::Scalar(Value::Null) => (Rc::new(Column::from_values(&[])), SideRows::Null),
            Evaluated::Scalar(Value::Array(items)) => {
                (Rc::new(Column::from_values(items)), SideRows::Whole)
            }
            Evaluated::Col(c) => match c.data() {
                ColumnData::List { values, .. } => {
                    (Rc::clone(values), SideRows::List(Rc::clone(c)))
                }
                _ => return None,
            },
            Evaluated::Scalar(_) => return None,
        };
        Some(ConcatSide { child, rows })
    }

    /// Row `i`: NULL, or its element range in `child`.
    fn row(&self, i: usize) -> Option<std::ops::Range<usize>> {
        match &self.rows {
            SideRows::List(c) => match c.data() {
                ColumnData::List { offsets, .. } if !c.is_null(i) => {
                    Some(Column::list_range(offsets, i))
                }
                _ => None,
            },
            SideRows::Whole => Some(0..self.child.len()),
            SideRows::Null => None,
        }
    }
}

/// `||` of two arrays: the output child gathers each row's elements from
/// the two sides' children, in row order — row for row what `eval::concat`
/// answers (an array beside NULL is kept; two NULLs are NULL). `None` when
/// either side is not a list column, a scalar array or NULL: text, single
/// elements and generic columns take the per-row path.
fn concat_lists(l: &Evaluated, r: &Evaluated, n: usize) -> Option<Evaluated> {
    let (a, b) = (ConcatSide::of(l)?, ConcatSide::of(r)?);
    let both = Column::concat(&[a.child.as_ref(), b.child.as_ref()]);
    let shift = a.child.len();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut nulls = NullBitmap::new_valid(n);
    let mut idx = Vec::new();
    for i in 0..n {
        let (x, y) = (a.row(i), b.row(i));
        if x.is_none() && y.is_none() {
            nulls.set_null(i);
        } else {
            idx.extend(x.unwrap_or_default());
            idx.extend(y.unwrap_or_default().map(|j| j + shift));
        }
        offsets.push(idx.len() as u32);
    }
    Some(Evaluated::Col(Rc::new(Column::list(
        offsets,
        nulls,
        Rc::new(both.gather(&idx)),
    ))))
}
