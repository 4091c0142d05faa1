//! Bound-expression evaluation with SQL three-valued logic.

use super::ExecContext;
use crate::ast::{BinaryOp, UnaryOp};
use crate::error::{Result, SqlError};
use crate::plan::BExpr;
use etypes::Value;

/// Evaluate an expression against one row.
pub fn eval(expr: &BExpr, row: &[Value], ctx: &ExecContext<'_>) -> Result<Value> {
    Ok(match expr {
        BExpr::Col(i) => row
            .get(*i)
            .cloned()
            .ok_or_else(|| SqlError::exec(format!("column index {i} out of range")))?,
        BExpr::Lit(v) => v.clone(),
        BExpr::Param(n) => ctx.param(*n)?.clone(),
        BExpr::Binary { op, left, right } => {
            // Short-circuitable three-valued AND/OR.
            match op {
                BinaryOp::And => {
                    let l = eval(left, row, ctx)?;
                    if l == Value::Bool(false) {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval(right, row, ctx)?;
                    return Ok(three_valued_and(&l, &r));
                }
                BinaryOp::Or => {
                    let l = eval(left, row, ctx)?;
                    if l == Value::Bool(true) {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval(right, row, ctx)?;
                    return Ok(three_valued_or(&l, &r));
                }
                _ => {}
            }
            let l = eval(left, row, ctx)?;
            let r = eval(right, row, ctx)?;
            binary(*op, &l, &r)?
        }
        BExpr::Unary { op, operand } => unary(*op, &eval(operand, row, ctx)?)?,
        BExpr::Func { func, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, row, ctx)?);
            }
            func.eval(&vals)?
        }
        BExpr::Case { whens, else_expr } => {
            for (cond, value) in whens {
                if truthy(&eval(cond, row, ctx)?) {
                    return eval(value, row, ctx);
                }
            }
            match else_expr {
                Some(e) => eval(e, row, ctx)?,
                None => Value::Null,
            }
        }
        BExpr::Cast { expr, ty } => eval(expr, row, ctx)?.cast(ty)?,
        BExpr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, ctx)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            let mut found = false;
            for item in list {
                let c = eval(item, row, ctx)?;
                if c.is_null() {
                    saw_null = true;
                } else if c == v {
                    found = true;
                    break;
                }
            }
            if found {
                Value::Bool(!negated)
            } else if saw_null {
                Value::Null
            } else {
                Value::Bool(*negated)
            }
        }
        BExpr::IsNull { expr, negated } => {
            let v = eval(expr, row, ctx)?;
            Value::Bool(v.is_null() != *negated)
        }
        BExpr::Subplan(i) => ctx.subplan_value(*i)?,
    })
}

/// A unary operator on one value. Negating `i64::MIN` has no `Int` answer,
/// so it widens to `Float`, as [`binary`]'s arithmetic does for results
/// out of range.
pub(crate) fn unary(op: UnaryOp, v: &Value) -> Result<Value> {
    Ok(match op {
        UnaryOp::Neg => match v {
            Value::Null => Value::Null,
            Value::Int(i) => i
                .checked_neg()
                .map_or(Value::Float(-(*i as f64)), Value::Int),
            other => Value::Float(-other.as_f64()?),
        },
        UnaryOp::Not => match v {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(!b),
            other => return Err(SqlError::exec(format!("NOT of non-boolean {other}"))),
        },
    })
}

/// SQL WHERE semantics: only TRUE keeps the row.
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

pub(crate) fn three_valued_and(l: &Value, r: &Value) -> Value {
    match (l, r) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
        _ => Value::Null,
    }
}

pub(crate) fn three_valued_or(l: &Value, r: &Value) -> Value {
    match (l, r) {
        (Value::Bool(true), _) | (_, Value::Bool(true)) => Value::Bool(true),
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
        _ => Value::Null,
    }
}

/// Constant-folding entry for the optimizer: evaluate a binary operator over
/// two literals, or `None` when evaluation must be deferred to runtime
/// (e.g. division by zero should raise there, not at plan time).
pub fn fold_binary_const(op: BinaryOp, l: &Value, r: &Value) -> Option<Value> {
    match op {
        BinaryOp::And => Some(three_valued_and(l, r)),
        BinaryOp::Or => Some(three_valued_or(l, r)),
        _ => binary(op, l, r).ok(),
    }
}

pub(crate) fn binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    // Concat has PG-ish NULL behaviour for arrays (NULL || a = a).
    if op == Concat {
        return concat(l, r);
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    Ok(match op {
        Add => {
            if let (Value::Text(a), Value::Text(b)) = (l, r) {
                Value::Text(format!("{a}{b}"))
            } else {
                arith(l, r, |a, b| a + b)?
            }
        }
        Sub => arith(l, r, |a, b| a - b)?,
        Mul => arith(l, r, |a, b| a * b)?,
        Div => {
            // PostgreSQL integer division truncates; the paper's generated
            // SQL always multiplies by 1.0 first when it needs real division.
            // `i64::MIN / -1` has no `Int` answer and widens to `Float`, as
            // negation does.
            match (l, r) {
                (Value::Int(a), Value::Int(b)) => {
                    if *b == 0 {
                        return Err(SqlError::exec("division by zero"));
                    }
                    a.checked_div(*b)
                        .map_or(Value::Float(*a as f64 / *b as f64), Value::Int)
                }
                _ => {
                    let d = r.as_f64()?;
                    Value::Float(l.as_f64()? / d)
                }
            }
        }
        // `i64::MIN % -1` is 0, as PostgreSQL's `int8mod` answers.
        Mod => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    return Err(SqlError::exec("division by zero"));
                }
                Value::Int(a.wrapping_rem(*b))
            }
            _ => Value::Float(l.as_f64()? % r.as_f64()?),
        },
        Eq => Value::Bool(cmp_eq(l, r)?),
        NotEq => Value::Bool(!cmp_eq(l, r)?),
        Lt => Value::Bool(cmp(l, r)? == std::cmp::Ordering::Less),
        Gt => Value::Bool(cmp(l, r)? == std::cmp::Ordering::Greater),
        Le => Value::Bool(cmp(l, r)? != std::cmp::Ordering::Greater),
        Ge => Value::Bool(cmp(l, r)? != std::cmp::Ordering::Less),
        And | Or | Concat => unreachable!("handled above"),
    })
}

fn concat(l: &Value, r: &Value) -> Result<Value> {
    Ok(match (l, r) {
        (Value::Null, Value::Array(_)) => r.clone(),
        (Value::Array(_), Value::Null) => l.clone(),
        (Value::Array(a), Value::Array(b)) => {
            let mut out = Vec::with_capacity(a.len() + b.len());
            out.extend(a.iter().cloned());
            out.extend(b.iter().cloned());
            Value::Array(out)
        }
        (Value::Array(a), scalar) => {
            let mut out = a.clone();
            out.push(scalar.clone());
            Value::Array(out)
        }
        (scalar, Value::Array(b)) => {
            let mut out = Vec::with_capacity(b.len() + 1);
            out.push(scalar.clone());
            out.extend(b.iter().cloned());
            Value::Array(out)
        }
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (a, b) => Value::Text(format!("{a}{b}")),
    })
}

fn arith(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Result<Value> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let result = f(*a as f64, *b as f64);
        if result.fract() == 0.0 && result.abs() < 9.0e15 {
            return Ok(Value::Int(result as i64));
        }
        return Ok(Value::Float(result));
    }
    Ok(Value::Float(f(l.as_f64()?, r.as_f64()?)))
}

fn cmp_eq(l: &Value, r: &Value) -> Result<bool> {
    Ok(cmp(l, r)? == std::cmp::Ordering::Equal)
}

fn cmp(l: &Value, r: &Value) -> Result<std::cmp::Ordering> {
    // Bool=Int comparisons happen for label columns generated as booleans in
    // SQL but 0/1 in data; coerce bools.
    let coerce = |v: &Value| -> Value {
        match v {
            Value::Bool(b) => Value::Int(*b as i64),
            other => other.clone(),
        }
    };
    match (l, r) {
        (Value::Bool(_), Value::Int(_)) | (Value::Int(_), Value::Bool(_)) => {
            Ok(coerce(l).cmp(&coerce(r)))
        }
        _ => {
            // Reject comparing wildly different types (text vs int) to catch
            // binder bugs, except numeric cross-type which Value::cmp handles.
            Ok(l.cmp(r))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::plan::{PlanNode, PlanRoot, Schema};
    use crate::profile::EngineProfile;

    fn ctx_fixture() -> (Catalog, EngineProfile, PlanRoot) {
        (
            Catalog::new(),
            EngineProfile::in_memory(),
            PlanRoot::new(
                vec![],
                vec![],
                PlanNode::Values {
                    rows: vec![],
                    schema: Schema::default(),
                },
            ),
        )
    }

    fn eval1(e: &BExpr) -> Value {
        let (cat, prof, root) = ctx_fixture();
        let ctx = ExecContext::new(&cat, &prof, &root);
        // Leak-free: ctx borrows locals; evaluate inline.
        eval(e, &[], &ctx).unwrap()
    }

    fn lit(v: impl Into<Value>) -> BExpr {
        BExpr::Lit(v.into())
    }

    fn bin(op: BinaryOp, l: BExpr, r: BExpr) -> BExpr {
        BExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    #[test]
    fn null_comparison_is_null() {
        assert_eq!(
            eval1(&bin(BinaryOp::Gt, lit(Value::Null), lit(1))),
            Value::Null
        );
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(
            eval1(&bin(BinaryOp::And, lit(false), lit(Value::Null))),
            Value::Bool(false)
        );
        assert_eq!(
            eval1(&bin(BinaryOp::And, lit(true), lit(Value::Null))),
            Value::Null
        );
        assert_eq!(
            eval1(&bin(BinaryOp::Or, lit(Value::Null), lit(true))),
            Value::Bool(true)
        );
        assert_eq!(
            eval1(&bin(BinaryOp::Or, lit(false), lit(Value::Null))),
            Value::Null
        );
    }

    #[test]
    fn integer_division_truncates() {
        assert_eq!(eval1(&bin(BinaryOp::Div, lit(7), lit(2))), Value::Int(3));
        assert_eq!(
            eval1(&bin(BinaryOp::Div, lit(7.0), lit(2))),
            Value::Float(3.5)
        );
    }

    #[test]
    fn division_by_zero_errors() {
        let (cat, prof, root) = ctx_fixture();
        let ctx = ExecContext::new(&cat, &prof, &root);
        assert!(eval(&bin(BinaryOp::Div, lit(1), lit(0)), &[], &ctx).is_err());
    }

    #[test]
    fn in_list_null_semantics() {
        let e = BExpr::InList {
            expr: Box::new(lit(5)),
            list: vec![lit(1), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(eval1(&e), Value::Null);
        let e2 = BExpr::InList {
            expr: Box::new(lit(1)),
            list: vec![lit(1), lit(Value::Null)],
            negated: false,
        };
        assert_eq!(eval1(&e2), Value::Bool(true));
    }

    #[test]
    fn array_concat() {
        let arr = |vals: Vec<i64>| lit(Value::Array(vals.into_iter().map(Value::Int).collect()));
        assert_eq!(
            eval1(&bin(BinaryOp::Concat, arr(vec![0, 0]), arr(vec![1]))),
            Value::Array(vec![Value::Int(0), Value::Int(0), Value::Int(1)])
        );
    }

    #[test]
    fn case_returns_else_or_null() {
        let e = BExpr::Case {
            whens: vec![(lit(false), lit(1))],
            else_expr: None,
        };
        assert_eq!(eval1(&e), Value::Null);
    }

    #[test]
    fn is_null_checks() {
        let e = BExpr::IsNull {
            expr: Box::new(lit(Value::Null)),
            negated: false,
        };
        assert_eq!(eval1(&e), Value::Bool(true));
    }

    #[test]
    fn bool_int_comparison_coerces() {
        assert_eq!(
            eval1(&bin(BinaryOp::Eq, lit(true), lit(1))),
            Value::Bool(true)
        );
    }
}
