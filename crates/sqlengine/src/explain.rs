//! Plan rendering (`Engine::explain`): a compact, stable textual form of the
//! optimized plan, for tests, debugging, and the optimizer-ablation
//! benchmarks.

use crate::ast::BinaryOp;
use crate::exec::NodeProfiles;
use crate::plan::{AggFunc, BExpr, PlanNode, PlanRoot, ScanSource};
use crate::trace::{OpProfile, QueryProfile};
use std::fmt::Write as _;

/// Render a bound plan as an indented operator tree.
pub fn render_plan(root: &PlanRoot) -> String {
    let mut out = String::new();
    for (i, cte) in root.ctes.iter().enumerate() {
        let _ = writeln!(out, "CTE {} [{}] (materialized)", i, cte.name);
        render_node(&cte.plan, 1, &mut out);
    }
    for (i, sub) in root.subplans.iter().enumerate() {
        let _ = writeln!(out, "InitPlan ${i}");
        render_node(sub, 1, &mut out);
    }
    render_node(&root.body, 0, &mut out);
    out
}

/// Assemble a [`QueryProfile`] from the per-node counters of one execution,
/// in the exact order [`render_plan`] renders the tree (CTE blocks, then
/// init-plans, then the body).
pub(crate) fn build_query_profile(
    root: &PlanRoot,
    profiles: &NodeProfiles,
    total_us: u64,
    result_rows: u64,
) -> QueryProfile {
    let mut ops = Vec::new();
    for (i, cte) in root.ctes.iter().enumerate() {
        let head = profiles.get(&cte.plan);
        ops.push(OpProfile {
            depth: 0,
            label: format!("CTE {} [{}] (materialized)", i, cte.name),
            rows_in: head.map_or(0, |p| p.rows_out),
            rows: head.map_or(0, |p| p.rows_out),
            batches: head.map_or(0, |p| p.batches_out),
            time_us: head.map_or(0, |p| p.elapsed_us),
            executed: head.is_some(),
        });
        profile_node(&cte.plan, 1, profiles, &mut ops);
    }
    for (i, sub) in root.subplans.iter().enumerate() {
        let head = profiles.get(sub);
        ops.push(OpProfile {
            depth: 0,
            label: format!("InitPlan ${i}"),
            rows_in: head.map_or(0, |p| p.rows_out),
            rows: head.map_or(0, |p| p.rows_out),
            batches: head.map_or(0, |p| p.batches_out),
            time_us: head.map_or(0, |p| p.elapsed_us),
            executed: head.is_some(),
        });
        profile_node(sub, 1, profiles, &mut ops);
    }
    profile_node(&root.body, 0, profiles, &mut ops);
    QueryProfile {
        ops,
        total_us,
        result_rows,
    }
}

fn profile_node(node: &PlanNode, depth: usize, profiles: &NodeProfiles, ops: &mut Vec<OpProfile>) {
    let p = profiles.get(node);
    let kids = node_children(node);
    let rows_in = kids
        .iter()
        .filter_map(|k| profiles.get(k))
        .map(|p| p.rows_out)
        .sum();
    ops.push(OpProfile {
        depth,
        label: node_label(node),
        rows_in,
        rows: p.map_or(0, |p| p.rows_out),
        batches: p.map_or(0, |p| p.batches_out),
        time_us: p.map_or(0, |p| p.elapsed_us),
        executed: p.is_some(),
    });
    for kid in kids {
        profile_node(kid, depth + 1, profiles, ops);
    }
}

/// Direct inputs of a node, in rendering order.
pub(crate) fn node_children(node: &PlanNode) -> Vec<&PlanNode> {
    match node {
        PlanNode::Scan { .. } | PlanNode::Values { .. } => Vec::new(),
        PlanNode::Filter { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Aggregate { input, .. }
        | PlanNode::Sort { input, .. }
        | PlanNode::Limit { input, .. }
        | PlanNode::Distinct { input }
        | PlanNode::WindowRowNumber { input, .. }
        | PlanNode::Unnest { input, .. } => vec![input],
        PlanNode::Join { left, right, .. } => vec![left, right],
    }
}

/// One node's `EXPLAIN` line text, without indentation.
fn node_label(node: &PlanNode) -> String {
    match node {
        PlanNode::Scan {
            source, projection, ..
        } => {
            let name = match source {
                ScanSource::Table(t) => format!("Table {t}"),
                ScanSource::MaterializedView(v) => format!("MatView {v}"),
                ScanSource::Cte(i) => format!("CTE {i}"),
            };
            format!("Scan {name} cols={}", projection.len())
        }
        PlanNode::Filter { predicate, .. } => format!("Filter {}", render_expr(predicate)),
        PlanNode::Project { exprs, .. } => format!("Project [{} exprs]", exprs.len()),
        PlanNode::Join {
            kind,
            equi,
            residual,
            ..
        } => {
            let keys: Vec<String> = equi
                .iter()
                .map(|k| {
                    format!(
                        "{}={}{}",
                        render_expr(&k.left),
                        render_expr(&k.right),
                        if k.null_safe { " (null-safe)" } else { "" }
                    )
                })
                .collect();
            format!(
                "{kind:?}Join on [{}]{}",
                keys.join(", "),
                if residual.is_some() { " +residual" } else { "" }
            )
        }
        PlanNode::Aggregate {
            group_exprs, aggs, ..
        } => {
            let fns: Vec<String> = aggs.iter().map(|a| agg_name(&a.func).to_string()).collect();
            format!(
                "Aggregate groups={} aggs=[{}]",
                group_exprs.len(),
                fns.join(", ")
            )
        }
        PlanNode::Sort { keys, .. } => format!("Sort [{} keys]", keys.len()),
        PlanNode::Limit { n, .. } => format!("Limit {n}"),
        PlanNode::Distinct { .. } => "Distinct".to_string(),
        PlanNode::WindowRowNumber { keys, .. } => {
            format!("WindowRowNumber [{} keys]", keys.len())
        }
        PlanNode::Unnest { column, .. } => format!("Unnest col#{column}"),
        PlanNode::Values { rows, .. } => format!("Values [{} rows]", rows.len()),
    }
}

fn render_node(node: &PlanNode, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    let _ = writeln!(out, "{pad}{}", node_label(node));
    for kid in node_children(node) {
        render_node(kid, depth + 1, out);
    }
}

fn agg_name(f: &AggFunc) -> &'static str {
    match f {
        AggFunc::CountStar => "count(*)",
        AggFunc::Count { distinct: true } => "count(distinct)",
        AggFunc::Count { distinct: false } => "count",
        AggFunc::Sum => "sum",
        AggFunc::Avg => "avg",
        AggFunc::Min => "min",
        AggFunc::Max => "max",
        AggFunc::StddevPop => "stddev_pop",
        AggFunc::Median => "median",
        AggFunc::ArrayAgg => "array_agg",
    }
}

fn render_expr(e: &BExpr) -> String {
    match e {
        BExpr::Col(i) => format!("#{i}"),
        BExpr::Lit(v) => v.sql_literal(),
        BExpr::Param(n) => format!("${n}"),
        BExpr::Binary { op, left, right } => {
            let op = match op {
                BinaryOp::Add => "+",
                BinaryOp::Sub => "-",
                BinaryOp::Mul => "*",
                BinaryOp::Div => "/",
                BinaryOp::Mod => "%",
                BinaryOp::Eq => "=",
                BinaryOp::NotEq => "<>",
                BinaryOp::Lt => "<",
                BinaryOp::Gt => ">",
                BinaryOp::Le => "<=",
                BinaryOp::Ge => ">=",
                BinaryOp::And => "AND",
                BinaryOp::Or => "OR",
                BinaryOp::Concat => "||",
            };
            format!("({} {op} {})", render_expr(left), render_expr(right))
        }
        BExpr::Unary { operand, .. } => format!("!({})", render_expr(operand)),
        BExpr::Func { func, args } => {
            let args: Vec<String> = args.iter().map(render_expr).collect();
            format!("{func:?}({})", args.join(", "))
        }
        BExpr::Case { whens, .. } => format!("CASE[{}]", whens.len()),
        BExpr::Cast { expr, ty } => format!("{}::{ty}", render_expr(expr)),
        BExpr::InList { expr, list, .. } => {
            format!("{} IN [{}]", render_expr(expr), list.len())
        }
        BExpr::IsNull { expr, negated } => format!(
            "{} IS {}NULL",
            render_expr(expr),
            if *negated { "NOT " } else { "" }
        ),
        BExpr::Subplan(i) => format!("${i}"),
    }
}

#[cfg(test)]
mod tests {
    use crate::{Engine, EngineProfile};

    fn setup(profile: EngineProfile) -> Engine {
        let mut e = Engine::new(profile);
        e.execute_script("CREATE TABLE t (a int, b int); INSERT INTO t VALUES (1, 2), (3, 4);")
            .unwrap();
        e
    }

    #[test]
    fn explain_shows_pushed_filter_under_project() {
        let mut e = setup(EngineProfile::in_memory());
        let plan = e.explain("SELECT a * 2 AS d FROM t WHERE a > 1").unwrap();
        // Filter sits below Project after pushdown.
        let proj_pos = plan.find("Project").unwrap();
        let filter_pos = plan.find("Filter").unwrap();
        assert!(proj_pos < filter_pos, "{plan}");
        assert!(plan.contains("Scan Table t"));
    }

    #[test]
    fn explain_distinguishes_fenced_and_inlined_ctes() {
        let sql = "WITH c AS (SELECT a FROM t) SELECT a FROM c";
        let mut pg = setup(EngineProfile::disk_based_no_latency());
        let fenced = pg.explain(sql).unwrap();
        assert!(fenced.contains("CTE 0 [c] (materialized)"), "{fenced}");
        assert!(fenced.contains("Scan CTE 0"), "{fenced}");

        let mut umbra = setup(EngineProfile::in_memory());
        let inlined = umbra.explain(sql).unwrap();
        assert!(!inlined.contains("(materialized)"), "{inlined}");
        assert!(inlined.contains("Scan Table t"), "{inlined}");
    }

    #[test]
    fn explain_shows_pruned_scan_width() {
        let mut e = setup(EngineProfile::in_memory());
        // Only `a` is needed; the hidden ctid and `b` are pruned.
        let plan = e.explain("SELECT a FROM t").unwrap();
        assert!(plan.contains("cols=1"), "{plan}");
    }

    #[test]
    fn explain_renders_joins_and_aggregates() {
        let mut e = setup(EngineProfile::in_memory());
        e.execute_script("CREATE TABLE s (a int, x text); INSERT INTO s VALUES (1, 'p');")
            .unwrap();
        let plan = e
            .explain("SELECT t.a, count(*) AS n FROM t INNER JOIN s ON t.a = s.a GROUP BY t.a")
            .unwrap();
        assert!(plan.contains("InnerJoin"), "{plan}");
        assert!(
            plan.contains("Aggregate groups=1 aggs=[count(*)]"),
            "{plan}"
        );
    }

    #[test]
    fn explain_shows_subplans() {
        let mut e = setup(EngineProfile::in_memory());
        let plan = e
            .explain("SELECT a FROM t WHERE a > (SELECT avg(a) FROM t)")
            .unwrap();
        assert!(plan.contains("InitPlan $0"), "{plan}");
    }
}
