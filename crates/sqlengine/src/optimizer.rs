//! Logical plan optimization.
//!
//! Three rewrites carry the performance story of the paper's VIEW mode: when
//! views/CTEs are inlined (Umbra, or PostgreSQL views), the optimizer sees
//! one holistic plan and can
//!
//! 1. **push filters** through projections and into join inputs,
//! 2. **collapse** stacked projections introduced by view splicing,
//! 3. **prune columns**, dropping the wide tuple-identifier payload the
//!    transpiler threads through every CTE wherever inspection does not
//!    consume it.
//!
//! Materialized CTEs (the PostgreSQL 12 fence) are *not* optimized across —
//! each [`crate::plan::BoundCte`] is optimized in isolation, exactly the
//! optimization barrier the paper describes (§3.4.1).

use crate::ast::BinaryOp;
use crate::plan::{BExpr, JoinKind, PlanNode, PlanRoot, Schema};
use std::collections::BTreeSet;

/// Optimize a bound query in place.
pub fn optimize(root: &mut PlanRoot) {
    for cte in &mut root.ctes {
        cte.plan = optimize_node(std::mem::replace(&mut cte.plan, empty()), true);
    }
    for sub in &mut root.subplans {
        *sub = optimize_node(std::mem::replace(sub, empty()), true);
    }
    root.body = optimize_node(std::mem::replace(&mut root.body, empty()), true);
}

fn empty() -> PlanNode {
    PlanNode::Values {
        rows: Vec::new(),
        schema: Schema::default(),
    }
}

fn optimize_node(plan: PlanNode, prune: bool) -> PlanNode {
    let plan = push_filters(plan);
    let plan = collapse_projects(plan);
    let plan = fold_plan(plan);
    if prune {
        let width = plan.schema().len();
        let required: BTreeSet<usize> = (0..width).collect();
        let (plan, _) = prune_columns(plan, &required);
        plan
    } else {
        plan
    }
}

// ---- filter pushdown -----------------------------------------------------

fn push_filters(plan: PlanNode) -> PlanNode {
    match plan {
        PlanNode::Filter { input, predicate } => {
            let input = push_filters(*input);
            push_one_filter(input, predicate)
        }
        other => map_children(other, push_filters),
    }
}

fn push_one_filter(input: PlanNode, predicate: BExpr) -> PlanNode {
    match input {
        // Merge adjacent filters.
        PlanNode::Filter {
            input,
            predicate: inner,
        } => push_one_filter(
            *input,
            BExpr::Binary {
                op: BinaryOp::And,
                left: Box::new(inner),
                right: Box::new(predicate),
            },
        ),
        // Swap with Project by inlining the projection expressions.
        PlanNode::Project {
            input,
            exprs,
            schema,
        } => {
            let substituted = substitute(&predicate, &exprs);
            let pushed = push_one_filter(*input, substituted);
            PlanNode::Project {
                input: Box::new(pushed),
                exprs,
                schema,
            }
        }
        // Split conjuncts into join sides (inner/cross only).
        PlanNode::Join {
            left,
            right,
            kind,
            equi,
            residual,
            schema,
        } if matches!(kind, JoinKind::Inner | JoinKind::Cross) => {
            let nleft = left.schema().len();
            let mut to_left: Vec<BExpr> = Vec::new();
            let mut to_right: Vec<BExpr> = Vec::new();
            let mut keep: Vec<BExpr> = Vec::new();
            for c in conjuncts(predicate) {
                let mut cols = Vec::new();
                c.columns_used(&mut cols);
                if has_subplan(&c) {
                    keep.push(c);
                } else if cols.iter().all(|i| *i < nleft) && !cols.is_empty() {
                    to_left.push(c);
                } else if cols.iter().all(|i| *i >= nleft) && !cols.is_empty() {
                    let mut c = c;
                    shift_cols(&mut c, nleft);
                    to_right.push(c);
                } else {
                    keep.push(c);
                }
            }
            let left = apply_conjuncts(push_filters(*left), to_left);
            let right = apply_conjuncts(push_filters(*right), to_right);
            let join = PlanNode::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                equi,
                residual,
                schema,
            };
            apply_conjuncts(join, keep)
        }
        other => PlanNode::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

fn apply_conjuncts(plan: PlanNode, cs: Vec<BExpr>) -> PlanNode {
    match cs.into_iter().reduce(|a, b| BExpr::Binary {
        op: BinaryOp::And,
        left: Box::new(a),
        right: Box::new(b),
    }) {
        Some(p) => PlanNode::Filter {
            input: Box::new(plan),
            predicate: p,
        },
        None => plan,
    }
}

fn conjuncts(e: BExpr) -> Vec<BExpr> {
    match e {
        BExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let mut out = conjuncts(*left);
            out.extend(conjuncts(*right));
            out
        }
        other => vec![other],
    }
}

fn has_subplan(e: &BExpr) -> bool {
    match e {
        BExpr::Subplan(_) => true,
        BExpr::Col(_) | BExpr::Lit(_) | BExpr::Param(_) => false,
        BExpr::Binary { left, right, .. } => has_subplan(left) || has_subplan(right),
        BExpr::Unary { operand, .. } => has_subplan(operand),
        BExpr::Func { args, .. } => args.iter().any(has_subplan),
        BExpr::Case { whens, else_expr } => {
            whens.iter().any(|(c, v)| has_subplan(c) || has_subplan(v))
                || else_expr.as_ref().is_some_and(|e| has_subplan(e))
        }
        BExpr::Cast { expr, .. } => has_subplan(expr),
        BExpr::InList { expr, list, .. } => has_subplan(expr) || list.iter().any(has_subplan),
        BExpr::IsNull { expr, .. } => has_subplan(expr),
    }
}

fn shift_cols(e: &mut BExpr, by: usize) {
    let width = 1 << 20;
    let map: Vec<usize> = (0..width).map(|i: usize| i.saturating_sub(by)).collect();
    e.remap_columns(&map);
}

/// Replace `Col(i)` with `exprs[i]`.
fn substitute(e: &BExpr, exprs: &[BExpr]) -> BExpr {
    match e {
        BExpr::Col(i) => exprs[*i].clone(),
        BExpr::Lit(v) => BExpr::Lit(v.clone()),
        BExpr::Param(n) => BExpr::Param(*n),
        BExpr::Binary { op, left, right } => BExpr::Binary {
            op: *op,
            left: Box::new(substitute(left, exprs)),
            right: Box::new(substitute(right, exprs)),
        },
        BExpr::Unary { op, operand } => BExpr::Unary {
            op: *op,
            operand: Box::new(substitute(operand, exprs)),
        },
        BExpr::Func { func, args } => BExpr::Func {
            func: *func,
            args: args.iter().map(|a| substitute(a, exprs)).collect(),
        },
        BExpr::Case { whens, else_expr } => BExpr::Case {
            whens: whens
                .iter()
                .map(|(c, v)| (substitute(c, exprs), substitute(v, exprs)))
                .collect(),
            else_expr: else_expr.as_ref().map(|b| Box::new(substitute(b, exprs))),
        },
        BExpr::Cast { expr, ty } => BExpr::Cast {
            expr: Box::new(substitute(expr, exprs)),
            ty: ty.clone(),
        },
        BExpr::InList {
            expr,
            list,
            negated,
        } => BExpr::InList {
            expr: Box::new(substitute(expr, exprs)),
            list: list.iter().map(|i| substitute(i, exprs)).collect(),
            negated: *negated,
        },
        BExpr::IsNull { expr, negated } => BExpr::IsNull {
            expr: Box::new(substitute(expr, exprs)),
            negated: *negated,
        },
        BExpr::Subplan(i) => BExpr::Subplan(*i),
    }
}

// ---- project collapsing ----------------------------------------------------

fn collapse_projects(plan: PlanNode) -> PlanNode {
    let plan = map_children(plan, collapse_projects);
    if let PlanNode::Project {
        input,
        exprs,
        schema,
    } = plan
    {
        if let PlanNode::Project {
            input: inner_input,
            exprs: inner_exprs,
            ..
        } = *input
        {
            let composed: Vec<BExpr> = exprs.iter().map(|e| substitute(e, &inner_exprs)).collect();
            return collapse_projects(PlanNode::Project {
                input: inner_input,
                exprs: composed,
                schema,
            });
        }
        return PlanNode::Project {
            input,
            exprs,
            schema,
        };
    } else if let PlanNode::Project { .. } = &plan {
        unreachable!()
    }
    plan
}

// ---- constant folding --------------------------------------------------------

fn fold_plan(plan: PlanNode) -> PlanNode {
    let plan = map_children(plan, fold_plan);
    map_exprs(plan, &|e| fold_expr(e))
}

fn fold_expr(e: BExpr) -> BExpr {
    use crate::exec::eval::fold_binary_const;
    match e {
        BExpr::Binary { op, left, right } => {
            let left = fold_expr(*left);
            let right = fold_expr(*right);
            if let (BExpr::Lit(l), BExpr::Lit(r)) = (&left, &right) {
                if let Some(v) = fold_binary_const(op, l, r) {
                    return BExpr::Lit(v);
                }
            }
            BExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        BExpr::Unary { op, operand } => {
            let operand = fold_expr(*operand);
            BExpr::Unary {
                op,
                operand: Box::new(operand),
            }
        }
        BExpr::Func { func, args } => {
            let args: Vec<BExpr> = args.into_iter().map(fold_expr).collect();
            if args.iter().all(|a| matches!(a, BExpr::Lit(_))) {
                let vals: Vec<etypes::Value> = args
                    .iter()
                    .map(|a| match a {
                        BExpr::Lit(v) => v.clone(),
                        _ => unreachable!(),
                    })
                    .collect();
                if let Ok(v) = func.eval(&vals) {
                    return BExpr::Lit(v);
                }
            }
            BExpr::Func { func, args }
        }
        BExpr::Cast { expr, ty } => {
            let expr = fold_expr(*expr);
            if let BExpr::Lit(v) = &expr {
                if let Ok(c) = v.cast(&ty) {
                    return BExpr::Lit(c);
                }
            }
            BExpr::Cast {
                expr: Box::new(expr),
                ty,
            }
        }
        BExpr::Case { whens, else_expr } => BExpr::Case {
            whens: whens
                .into_iter()
                .map(|(c, v)| (fold_expr(c), fold_expr(v)))
                .collect(),
            else_expr: else_expr.map(|b| Box::new(fold_expr(*b))),
        },
        BExpr::InList {
            expr,
            list,
            negated,
        } => BExpr::InList {
            expr: Box::new(fold_expr(*expr)),
            list: list.into_iter().map(fold_expr).collect(),
            negated,
        },
        BExpr::IsNull { expr, negated } => BExpr::IsNull {
            expr: Box::new(fold_expr(*expr)),
            negated,
        },
        other => other,
    }
}

// ---- column pruning ------------------------------------------------------------

/// Prune unneeded columns. `required` holds output positions the parent
/// consumes. Returns the rewritten node and a map old-position → new-position
/// (`None` if dropped).
fn prune_columns(plan: PlanNode, required: &BTreeSet<usize>) -> (PlanNode, Vec<Option<usize>>) {
    match plan {
        PlanNode::Scan {
            source,
            projection,
            schema,
        } => {
            let kept: Vec<usize> = required.iter().copied().collect();
            let new_projection: Vec<usize> = kept.iter().map(|&i| projection[i]).collect();
            let new_schema = Schema {
                cols: kept.iter().map(|&i| schema.cols[i].clone()).collect(),
            };
            let map = make_map(schema.cols.len(), &kept);
            (
                PlanNode::Scan {
                    source,
                    projection: new_projection,
                    schema: new_schema,
                },
                map,
            )
        }
        PlanNode::Values { rows, schema } => {
            let kept: Vec<usize> = required.iter().copied().collect();
            let new_rows: Vec<Vec<etypes::Value>> = rows
                .iter()
                .map(|r| kept.iter().map(|&i| r[i].clone()).collect())
                .collect();
            let new_schema = Schema {
                cols: kept.iter().map(|&i| schema.cols[i].clone()).collect(),
            };
            let map = make_map(schema.cols.len(), &kept);
            (
                PlanNode::Values {
                    rows: new_rows,
                    schema: new_schema,
                },
                map,
            )
        }
        PlanNode::Project {
            input,
            exprs,
            schema,
        } => {
            let kept: Vec<usize> = required.iter().copied().collect();
            let mut child_needed = BTreeSet::new();
            for &i in &kept {
                let mut cols = Vec::new();
                exprs[i].columns_used(&mut cols);
                child_needed.extend(cols);
            }
            let (new_input, cmap) = prune_columns(*input, &child_needed);
            let remap = full_map(&cmap);
            let new_exprs: Vec<BExpr> = kept
                .iter()
                .map(|&i| {
                    let mut e = exprs[i].clone();
                    e.remap_columns(&remap);
                    e
                })
                .collect();
            let new_schema = Schema {
                cols: kept.iter().map(|&i| schema.cols[i].clone()).collect(),
            };
            let map = make_map(schema.cols.len(), &kept);
            (
                PlanNode::Project {
                    input: Box::new(new_input),
                    exprs: new_exprs,
                    schema: new_schema,
                },
                map,
            )
        }
        PlanNode::Filter { input, predicate } => {
            let mut needed = required.clone();
            let mut cols = Vec::new();
            predicate.columns_used(&mut cols);
            needed.extend(cols);
            let (new_input, cmap) = prune_columns(*input, &needed);
            let remap = full_map(&cmap);
            let mut predicate = predicate;
            predicate.remap_columns(&remap);
            (
                PlanNode::Filter {
                    input: Box::new(new_input),
                    predicate,
                },
                cmap,
            )
        }
        PlanNode::Limit { input, n } => {
            let (new_input, cmap) = prune_columns(*input, required);
            (
                PlanNode::Limit {
                    input: Box::new(new_input),
                    n,
                },
                cmap,
            )
        }
        PlanNode::Sort { input, keys } => {
            let mut needed = required.clone();
            for (k, _) in &keys {
                let mut cols = Vec::new();
                k.columns_used(&mut cols);
                needed.extend(cols);
            }
            let (new_input, cmap) = prune_columns(*input, &needed);
            let remap = full_map(&cmap);
            let keys = keys
                .into_iter()
                .map(|(mut k, d)| {
                    k.remap_columns(&remap);
                    (k, d)
                })
                .collect();
            (
                PlanNode::Sort {
                    input: Box::new(new_input),
                    keys,
                },
                cmap,
            )
        }
        PlanNode::Distinct { input } => {
            // DISTINCT's semantics depend on every column: require all.
            let width = input.schema().len();
            let all: BTreeSet<usize> = (0..width).collect();
            let (new_input, cmap) = prune_columns(*input, &all);
            (
                PlanNode::Distinct {
                    input: Box::new(new_input),
                },
                cmap,
            )
        }
        PlanNode::Unnest {
            input,
            column,
            schema: _,
        } => {
            let mut needed = required.clone();
            needed.insert(column);
            let (new_input, cmap) = prune_columns(*input, &needed);
            let new_column = cmap[column].expect("unnest column kept");
            let schema = new_input.schema().clone();
            (
                PlanNode::Unnest {
                    input: Box::new(new_input),
                    column: new_column,
                    schema,
                },
                cmap,
            )
        }
        PlanNode::WindowRowNumber {
            input,
            keys,
            schema,
        } => {
            let win_col = schema.cols.len() - 1;
            let needs_window = required.contains(&win_col);
            let mut needed: BTreeSet<usize> =
                required.iter().copied().filter(|i| *i != win_col).collect();
            if needs_window {
                for (k, _) in &keys {
                    let mut cols = Vec::new();
                    k.columns_used(&mut cols);
                    needed.extend(cols);
                }
            }
            let (new_input, cmap) = prune_columns(*input, &needed);
            if !needs_window {
                let mut map = cmap;
                map.push(None); // the window column itself
                return (new_input, map);
            }
            let remap = full_map(&cmap);
            let keys: Vec<(BExpr, bool)> = keys
                .into_iter()
                .map(|(mut k, d)| {
                    k.remap_columns(&remap);
                    (k, d)
                })
                .collect();
            let mut new_schema = new_input.schema().clone();
            new_schema.cols.push(schema.cols[win_col].clone());
            let new_win_col = new_schema.cols.len() - 1;
            let mut map = cmap;
            map.push(Some(new_win_col));
            (
                PlanNode::WindowRowNumber {
                    input: Box::new(new_input),
                    keys,
                    schema: new_schema,
                },
                map,
            )
        }
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => {
            let n_groups = group_exprs.len();
            let kept_aggs: Vec<usize> = (0..aggs.len())
                .filter(|i| required.contains(&(n_groups + i)))
                .collect();
            let mut child_needed = BTreeSet::new();
            for g in &group_exprs {
                let mut cols = Vec::new();
                g.columns_used(&mut cols);
                child_needed.extend(cols);
            }
            for &i in &kept_aggs {
                if let Some(arg) = &aggs[i].arg {
                    let mut cols = Vec::new();
                    arg.columns_used(&mut cols);
                    child_needed.extend(cols);
                }
            }
            let (new_input, cmap) = prune_columns(*input, &child_needed);
            let remap = full_map(&cmap);
            let group_exprs: Vec<BExpr> = group_exprs
                .into_iter()
                .map(|mut g| {
                    g.remap_columns(&remap);
                    g
                })
                .collect();
            let new_aggs: Vec<crate::plan::AggCall> = kept_aggs
                .iter()
                .map(|&i| {
                    let mut call = aggs[i].clone();
                    if let Some(arg) = &mut call.arg {
                        arg.remap_columns(&remap);
                    }
                    call
                })
                .collect();
            let mut new_cols: Vec<_> = schema.cols[..n_groups].to_vec();
            for &i in &kept_aggs {
                new_cols.push(schema.cols[n_groups + i].clone());
            }
            let mut map: Vec<Option<usize>> = (0..n_groups).map(Some).collect();
            for i in 0..aggs.len() {
                map.push(
                    kept_aggs
                        .iter()
                        .position(|&k| k == i)
                        .map(|pos| n_groups + pos),
                );
            }
            (
                PlanNode::Aggregate {
                    input: Box::new(new_input),
                    group_exprs,
                    aggs: new_aggs,
                    schema: Schema { cols: new_cols },
                },
                map,
            )
        }
        PlanNode::Join {
            left,
            right,
            kind,
            equi,
            residual,
            schema,
        } => {
            let nleft = left.schema().len();
            let mut left_needed = BTreeSet::new();
            let mut right_needed = BTreeSet::new();
            for &i in required {
                if i < nleft {
                    left_needed.insert(i);
                } else {
                    right_needed.insert(i - nleft);
                }
            }
            for k in &equi {
                let mut cols = Vec::new();
                k.left.columns_used(&mut cols);
                left_needed.extend(cols);
                let mut cols = Vec::new();
                k.right.columns_used(&mut cols);
                right_needed.extend(cols);
            }
            if let Some(r) = &residual {
                let mut cols = Vec::new();
                r.columns_used(&mut cols);
                for c in cols {
                    if c < nleft {
                        left_needed.insert(c);
                    } else {
                        right_needed.insert(c - nleft);
                    }
                }
            }
            let (new_left, lmap) = prune_columns(*left, &left_needed);
            let (new_right, rmap) = prune_columns(*right, &right_needed);
            let new_nleft = new_left.schema().len();
            let lremap = full_map(&lmap);
            let rremap = full_map(&rmap);
            let equi: Vec<crate::plan::EquiKey> = equi
                .into_iter()
                .map(|mut k| {
                    k.left.remap_columns(&lremap);
                    k.right.remap_columns(&rremap);
                    k
                })
                .collect();
            // Combined remap for the residual.
            let mut combined: Vec<usize> = vec![0; schema.cols.len()];
            let mut map: Vec<Option<usize>> = vec![None; schema.cols.len()];
            for (i, slot) in map.iter_mut().enumerate() {
                let new = if i < nleft {
                    lmap[i]
                } else {
                    rmap[i - nleft].map(|p| p + new_nleft)
                };
                *slot = new;
                combined[i] = new.unwrap_or(0);
            }
            let residual = residual.map(|mut r| {
                r.remap_columns(&combined);
                r
            });
            let mut new_cols = Vec::new();
            for (i, c) in schema.cols.iter().enumerate() {
                if map[i].is_some() {
                    new_cols.push(c.clone());
                }
            }
            // Order check: left kept columns precede right kept columns and
            // stay ascending, matching the map construction.
            (
                PlanNode::Join {
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    kind,
                    equi,
                    residual,
                    schema: Schema { cols: new_cols },
                },
                map,
            )
        }
    }
}

fn make_map(width: usize, kept: &[usize]) -> Vec<Option<usize>> {
    let mut map = vec![None; width];
    for (new, &old) in kept.iter().enumerate() {
        map[old] = Some(new);
    }
    map
}

/// A dense remap vector usable with `BExpr::remap_columns` (dropped columns
/// map to 0 and must not be referenced).
fn full_map(map: &[Option<usize>]) -> Vec<usize> {
    map.iter().map(|m| m.unwrap_or(0)).collect()
}

fn map_children(plan: PlanNode, f: impl Fn(PlanNode) -> PlanNode + Copy) -> PlanNode {
    match plan {
        PlanNode::Filter { input, predicate } => PlanNode::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        PlanNode::Project {
            input,
            exprs,
            schema,
        } => PlanNode::Project {
            input: Box::new(f(*input)),
            exprs,
            schema,
        },
        PlanNode::Join {
            left,
            right,
            kind,
            equi,
            residual,
            schema,
        } => PlanNode::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            kind,
            equi,
            residual,
            schema,
        },
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => PlanNode::Aggregate {
            input: Box::new(f(*input)),
            group_exprs,
            aggs,
            schema,
        },
        PlanNode::Sort { input, keys } => PlanNode::Sort {
            input: Box::new(f(*input)),
            keys,
        },
        PlanNode::Limit { input, n } => PlanNode::Limit {
            input: Box::new(f(*input)),
            n,
        },
        PlanNode::Distinct { input } => PlanNode::Distinct {
            input: Box::new(f(*input)),
        },
        PlanNode::WindowRowNumber {
            input,
            keys,
            schema,
        } => PlanNode::WindowRowNumber {
            input: Box::new(f(*input)),
            keys,
            schema,
        },
        PlanNode::Unnest {
            input,
            column,
            schema,
        } => PlanNode::Unnest {
            input: Box::new(f(*input)),
            column,
            schema,
        },
        leaf @ (PlanNode::Scan { .. } | PlanNode::Values { .. }) => leaf,
    }
}

fn map_exprs(plan: PlanNode, f: &impl Fn(BExpr) -> BExpr) -> PlanNode {
    match plan {
        PlanNode::Filter { input, predicate } => PlanNode::Filter {
            input,
            predicate: f(predicate),
        },
        PlanNode::Project {
            input,
            exprs,
            schema,
        } => PlanNode::Project {
            input,
            exprs: exprs.into_iter().map(f).collect(),
            schema,
        },
        PlanNode::Join {
            left,
            right,
            kind,
            equi,
            residual,
            schema,
        } => PlanNode::Join {
            left,
            right,
            kind,
            equi: equi
                .into_iter()
                .map(|mut k| {
                    k.left = f(k.left);
                    k.right = f(k.right);
                    k
                })
                .collect(),
            residual: residual.map(f),
            schema,
        },
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
            schema,
        } => PlanNode::Aggregate {
            input,
            group_exprs: group_exprs.into_iter().map(f).collect(),
            aggs: aggs
                .into_iter()
                .map(|mut a| {
                    a.arg = a.arg.map(f);
                    a
                })
                .collect(),
            schema,
        },
        PlanNode::Sort { input, keys } => PlanNode::Sort {
            input,
            keys: keys.into_iter().map(|(k, d)| (f(k), d)).collect(),
        },
        PlanNode::WindowRowNumber {
            input,
            keys,
            schema,
        } => PlanNode::WindowRowNumber {
            input,
            keys: keys.into_iter().map(|(k, d)| (f(k), d)).collect(),
            schema,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ColumnMeta, ScanSource};
    use etypes::{DataType, Value};

    fn scan3() -> PlanNode {
        PlanNode::Scan {
            source: ScanSource::Table("t".into()),
            projection: vec![0, 1, 2],
            schema: Schema {
                cols: (0..3)
                    .map(|i| ColumnMeta {
                        qualifier: None,
                        name: format!("c{i}"),
                        ty: DataType::Int,
                        hidden: false,
                    })
                    .collect(),
            },
        }
    }

    #[test]
    fn collapse_stacked_projects() {
        let inner = PlanNode::Project {
            input: Box::new(scan3()),
            exprs: vec![BExpr::Col(2), BExpr::Col(0)],
            schema: Schema {
                cols: vec![
                    ColumnMeta {
                        qualifier: None,
                        name: "x".into(),
                        ty: DataType::Int,
                        hidden: false,
                    },
                    ColumnMeta {
                        qualifier: None,
                        name: "y".into(),
                        ty: DataType::Int,
                        hidden: false,
                    },
                ],
            },
        };
        let outer = PlanNode::Project {
            input: Box::new(inner),
            exprs: vec![BExpr::Col(1)],
            schema: Schema {
                cols: vec![ColumnMeta {
                    qualifier: None,
                    name: "y".into(),
                    ty: DataType::Int,
                    hidden: false,
                }],
            },
        };
        let collapsed = collapse_projects(outer);
        let PlanNode::Project { input, exprs, .. } = collapsed else {
            panic!()
        };
        assert!(matches!(*input, PlanNode::Scan { .. }));
        assert_eq!(exprs, vec![BExpr::Col(0)]);
    }

    #[test]
    fn prune_drops_unused_scan_columns() {
        let project = PlanNode::Project {
            input: Box::new(scan3()),
            exprs: vec![BExpr::Col(2)],
            schema: Schema {
                cols: vec![ColumnMeta {
                    qualifier: None,
                    name: "c2".into(),
                    ty: DataType::Int,
                    hidden: false,
                }],
            },
        };
        let required: BTreeSet<usize> = [0].into_iter().collect();
        let (pruned, _) = prune_columns(project, &required);
        let PlanNode::Project { input, exprs, .. } = pruned else {
            panic!()
        };
        assert_eq!(exprs, vec![BExpr::Col(0)]);
        let PlanNode::Scan { projection, .. } = *input else {
            panic!()
        };
        assert_eq!(projection, vec![2]);
    }

    #[test]
    fn filter_pushes_through_project() {
        let project = PlanNode::Project {
            input: Box::new(scan3()),
            exprs: vec![BExpr::Col(1)],
            schema: Schema {
                cols: vec![ColumnMeta {
                    qualifier: None,
                    name: "c1".into(),
                    ty: DataType::Int,
                    hidden: false,
                }],
            },
        };
        let filtered = PlanNode::Filter {
            input: Box::new(project),
            predicate: BExpr::Binary {
                op: BinaryOp::Gt,
                left: Box::new(BExpr::Col(0)),
                right: Box::new(BExpr::Lit(Value::Int(5))),
            },
        };
        let pushed = push_filters(filtered);
        let PlanNode::Project { input, .. } = pushed else {
            panic!("expected project on top, got {pushed:?}")
        };
        assert!(matches!(*input, PlanNode::Filter { .. }));
    }

    #[test]
    fn constant_folding() {
        let e = BExpr::Binary {
            op: BinaryOp::Mul,
            left: Box::new(BExpr::Lit(Value::Float(1.2))),
            right: Box::new(BExpr::Lit(Value::Int(10))),
        };
        assert_eq!(fold_expr(e), BExpr::Lit(Value::Float(12.0)));
    }
}
