//! Name resolution and plan construction.
//!
//! The binder turns an AST query into a [`PlanRoot`]. Two behaviours depend
//! on the [`EngineProfile`]:
//!
//! * **CTE fence** — with `materialize_ctes` (PostgreSQL 12), every CTE
//!   becomes a [`BoundCte`] materialized once per query execution; without it
//!   (Umbra) or with `NOT MATERIALIZED`, the CTE's AST is *re-bound and
//!   spliced inline at every reference*, so the optimizer sees through it.
//! * **views** — plain views are always inlined (holistic optimization, the
//!   behaviour the paper exploits in §6.6); materialized views scan their
//!   stored data.

use crate::ast::{self, Expr, Query, SelectBody, SelectItem, Statement, TableRef};
use crate::catalog::{Catalog, ViewBody};
use crate::error::{Result, SqlError};
use crate::functions::ScalarFunc;
use crate::plan::{
    AggCall, AggFunc, BExpr, BoundCte, ColumnMeta, EquiKey, JoinKind, PlanNode, PlanRoot,
    ScanSource, Schema, CTID_SENTINEL,
};
use crate::profile::EngineProfile;
use etypes::{DataType, Value};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// Bind a SELECT statement into an executable plan.
pub fn bind_select(
    catalog: &Catalog,
    profile: &EngineProfile,
    query: &Query,
) -> Result<(PlanRoot, Schema)> {
    let mut b = Binder {
        catalog,
        profile,
        ctes: Vec::new(),
        subplans: Vec::new(),
        scopes: Vec::new(),
        view_depth: 0,
        views_seen: std::collections::HashSet::new(),
        view_memo: HashMap::new(),
        params: 0,
        reads: BTreeSet::new(),
    };
    let (body, schema) = b.bind_query(query)?;
    let mut root = PlanRoot::new(b.ctes, b.subplans, body);
    root.params = b.params;
    root.reads = b.reads.into_iter().collect();
    Ok((root, schema))
}

/// Convenience: bind the query of a `Statement::Select`.
pub fn bind_statement(
    catalog: &Catalog,
    profile: &EngineProfile,
    stmt: &Statement,
) -> Result<(PlanRoot, Schema)> {
    match stmt {
        Statement::Select(q) => bind_select(catalog, profile, q),
        _ => Err(SqlError::bind("not a SELECT statement")),
    }
}

#[derive(Clone)]
enum CteBinding {
    /// Splice the AST at each reference; `seen` flips after the first
    /// reference so shared-scan profiles can deduplicate later ones.
    Inline { query: Box<Query>, seen: bool },
    /// Fenced CTE not referenced yet; bound on first use.
    Pending(Box<Query>),
    /// Scan the relation materialized at execution time.
    Materialized { index: usize, schema: Schema },
}

struct Binder<'a> {
    catalog: &'a Catalog,
    profile: &'a EngineProfile,
    ctes: Vec<BoundCte>,
    subplans: Vec<PlanNode>,
    scopes: Vec<HashMap<String, CteBinding>>,
    view_depth: usize,
    /// Catalog views already inlined once this query (shared-scan profiles
    /// deduplicate the second and later references).
    views_seen: std::collections::HashSet<String>,
    /// Catalog views promoted to shared scans: name → (cte index, schema).
    view_memo: HashMap<String, (usize, Schema)>,
    /// Highest `$n` bound so far (see [`PlanRoot::params`]).
    params: usize,
    /// Catalog objects resolved so far (see [`PlanRoot::reads`]).
    reads: BTreeSet<String>,
}

const MAX_VIEW_DEPTH: usize = 128;

impl<'a> Binder<'a> {
    /// Resolve a CTE by name. Materialization is **lazy**: a fenced CTE is
    /// bound (and scheduled for materialization) on its *first reference*,
    /// matching PostgreSQL, which never evaluates unreferenced CTEs. An
    /// unreferenced CTE in the `WITH` list therefore costs nothing — the
    /// property the paper's CTE mode relies on when each inspection query
    /// carries the whole translated prefix.
    fn lookup_cte(&mut self, name: &str) -> Result<Option<CteBinding>> {
        let Some((scope_idx, binding)) = self
            .scopes
            .iter()
            .enumerate()
            .rev()
            .find_map(|(i, frame)| frame.get(name).map(|b| (i, b.clone())))
        else {
            return Ok(None);
        };
        match binding {
            // Shared-scan profiles (Umbra's DAG plans) deduplicate an inlined
            // CTE once a query references it a second time.
            CteBinding::Inline { query, seen } if seen && self.profile.shared_scans => {
                let (plan, schema) = self.bind_in_scope(scope_idx, &query)?;
                let index = self.ctes.len();
                self.ctes.push(BoundCte {
                    name: name.to_string(),
                    plan,
                    shared: true,
                });
                let resolved = CteBinding::Materialized {
                    index,
                    schema: schema.clone(),
                };
                self.scopes[scope_idx].insert(name.to_string(), resolved.clone());
                Ok(Some(resolved))
            }
            CteBinding::Inline { query, seen: _ } => {
                self.scopes[scope_idx].insert(
                    name.to_string(),
                    CteBinding::Inline {
                        query: query.clone(),
                        seen: true,
                    },
                );
                Ok(Some(CteBinding::Inline { query, seen: true }))
            }
            CteBinding::Pending(query) => {
                // Bind in the scope the CTE was declared in (it must not see
                // CTEs of inner scopes).
                let (plan, schema) = self.bind_in_scope(scope_idx, &query)?;
                let index = self.ctes.len();
                self.ctes.push(BoundCte {
                    name: name.to_string(),
                    plan,
                    shared: false,
                });
                let resolved = CteBinding::Materialized {
                    index,
                    schema: schema.clone(),
                };
                self.scopes[scope_idx].insert(name.to_string(), resolved.clone());
                Ok(Some(resolved))
            }
            other => Ok(Some(other)),
        }
    }

    /// Bind a query as if at `scope_idx` (truncating inner scopes), with the
    /// usual depth guard.
    fn bind_in_scope(&mut self, scope_idx: usize, query: &Query) -> Result<(PlanNode, Schema)> {
        let saved: Vec<HashMap<String, CteBinding>> = self.scopes.drain(scope_idx + 1..).collect();
        self.view_depth += 1;
        if self.view_depth > MAX_VIEW_DEPTH {
            self.scopes.extend(saved);
            return Err(SqlError::bind("CTE nesting too deep (cycle?)"));
        }
        let result = self.bind_query(query);
        self.view_depth -= 1;
        self.scopes.extend(saved);
        result
    }

    fn bind_query(&mut self, query: &Query) -> Result<(PlanNode, Schema)> {
        let mut frame = HashMap::new();
        for cte in &query.ctes {
            let materialize = cte.materialized.unwrap_or(self.profile.materialize_ctes);
            let binding = if materialize {
                CteBinding::Pending(cte.query.clone())
            } else {
                CteBinding::Inline {
                    query: cte.query.clone(),
                    seen: false,
                }
            };
            frame.insert(cte.name.clone(), binding);
        }
        self.scopes.push(frame);
        let result = self.bind_body(&query.body);
        self.scopes.pop();
        result
    }

    fn bind_body(&mut self, body: &SelectBody) -> Result<(PlanNode, Schema)> {
        // FROM.
        let (mut plan, mut schema) = match &body.from {
            Some(tref) => self.bind_table_ref(tref)?,
            None => {
                let s = Schema::default();
                (
                    PlanNode::Values {
                        rows: vec![Vec::new()],
                        schema: s.clone(),
                    },
                    s,
                )
            }
        };

        // WHERE.
        if let Some(pred) = &body.selection {
            let predicate = self.bind_expr(pred, &schema)?;
            plan = PlanNode::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        let has_aggs = !body.group_by.is_empty()
            || body.projection.iter().any(
                |item| matches!(item, SelectItem::Expr { expr, .. } if contains_aggregate(expr)),
            )
            || body.having.as_ref().is_some_and(contains_aggregate)
            || body.order_by.iter().any(|o| contains_aggregate(&o.expr));

        if has_aggs {
            self.bind_aggregate_query(body, plan, schema)
        } else {
            self.bind_plain_query(body, &mut plan, &mut schema)
        }
    }

    // ---- plain (non-aggregate) SELECT ------------------------------------

    fn bind_plain_query(
        &mut self,
        body: &SelectBody,
        plan: &mut PlanNode,
        schema: &mut Schema,
    ) -> Result<(PlanNode, Schema)> {
        let mut plan = std::mem::replace(
            plan,
            PlanNode::Values {
                rows: Vec::new(),
                schema: Schema::default(),
            },
        );
        let mut schema = std::mem::take(schema);

        // Window functions: row_number() over (order by ...), possibly
        // nested in arithmetic (`ROW_NUMBER() OVER (...) - 1 AS pos`). Each
        // occurrence appends a hidden column; the projection expression then
        // references it.
        let mut window_substs: HashMap<usize, (Expr, String)> = HashMap::new(); // proj idx -> (window ast, hidden col name)
        for (i, item) in body.projection.iter().enumerate() {
            if let SelectItem::Expr { expr, .. } = item {
                if let Some(win_ast) = find_window_expr(expr) {
                    let keys = window_row_number_keys(win_ast)
                        .ok_or_else(|| SqlError::bind("only row_number() windows are supported"))?;
                    let bound_keys = keys
                        .iter()
                        .map(|(e, desc)| Ok((self.bind_expr(e, &schema)?, *desc)))
                        .collect::<Result<Vec<_>>>()?;
                    let col_name = format!("__window_{i}");
                    let mut new_schema = schema.clone();
                    new_schema.cols.push(ColumnMeta {
                        qualifier: None,
                        name: col_name.clone(),
                        ty: DataType::Int,
                        hidden: true,
                    });
                    window_substs.insert(i, (win_ast.clone(), col_name));
                    plan = PlanNode::WindowRowNumber {
                        input: Box::new(plan),
                        keys: bound_keys,
                        schema: new_schema.clone(),
                    };
                    schema = new_schema;
                }
            }
        }

        // Pre-projection ORDER BY if every key binds against the input.
        let mut pre_sorted = false;
        if !body.order_by.is_empty() {
            let keys: Result<Vec<(BExpr, bool)>> = body
                .order_by
                .iter()
                .map(|o| Ok((self.bind_expr(&o.expr, &schema)?, o.desc)))
                .collect();
            if let Ok(keys) = keys {
                plan = PlanNode::Sort {
                    input: Box::new(plan),
                    keys,
                };
                pre_sorted = true;
            }
        }

        // Projection (with wildcard expansion and unnest detection).
        let mut exprs: Vec<BExpr> = Vec::new();
        let mut out_cols: Vec<ColumnMeta> = Vec::new();
        let mut unnest_at: Option<usize> = None;
        for (i, item) in body.projection.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    for pos in schema.visible() {
                        exprs.push(BExpr::Col(pos));
                        let c = &schema.cols[pos];
                        out_cols.push(ColumnMeta {
                            qualifier: None,
                            name: c.name.clone(),
                            ty: c.ty.clone(),
                            hidden: false,
                        });
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut any = false;
                    for pos in schema.visible() {
                        if schema.cols[pos].qualifier.as_deref() == Some(q.as_str()) {
                            any = true;
                            exprs.push(BExpr::Col(pos));
                            let c = &schema.cols[pos];
                            out_cols.push(ColumnMeta {
                                qualifier: None,
                                name: c.name.clone(),
                                ty: c.ty.clone(),
                                hidden: false,
                            });
                        }
                    }
                    if !any {
                        return Err(SqlError::bind(format!("unknown table alias '{q}'")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    if let Some((win_ast, win_name)) = window_substs.get(&i) {
                        let replaced = replace_subexpr(expr, win_ast, win_name);
                        let bound = self.bind_expr(&replaced, &schema)?;
                        let ty = infer_type(&bound, &schema);
                        out_cols.push(ColumnMeta {
                            qualifier: None,
                            name: alias.clone().unwrap_or_else(|| "row_number".to_string()),
                            ty,
                            hidden: false,
                        });
                        exprs.push(bound);
                        continue;
                    }
                    // unnest(...) as a top-level projection item (paper
                    // Listing 3): project the array, then expand.
                    if let Expr::Function { name, args, .. } = expr {
                        if name == "unnest" {
                            if unnest_at.is_some() {
                                return Err(SqlError::bind(
                                    "only one unnest() per SELECT is supported",
                                ));
                            }
                            let arg = args
                                .first()
                                .ok_or_else(|| SqlError::bind("unnest() needs an argument"))?;
                            let bound = self.bind_expr(arg, &schema)?;
                            let elem_ty = match infer_type(&bound, &schema) {
                                DataType::Array(e) => *e,
                                other => other,
                            };
                            unnest_at = Some(exprs.len());
                            exprs.push(bound);
                            out_cols.push(ColumnMeta {
                                qualifier: None,
                                name: alias.clone().unwrap_or_else(|| "unnest".to_string()),
                                ty: elem_ty,
                                hidden: false,
                            });
                            continue;
                        }
                    }
                    let bound = self.bind_expr(expr, &schema)?;
                    let ty = infer_type(&bound, &schema);
                    out_cols.push(ColumnMeta {
                        qualifier: None,
                        name: alias.clone().unwrap_or_else(|| derive_name(expr)),
                        ty,
                        hidden: false,
                    });
                    exprs.push(bound);
                }
            }
        }
        let out_schema = Schema { cols: out_cols };
        plan = PlanNode::Project {
            input: Box::new(plan),
            exprs,
            schema: out_schema.clone(),
        };

        if let Some(col) = unnest_at {
            plan = PlanNode::Unnest {
                input: Box::new(plan),
                column: col,
                schema: out_schema.clone(),
            };
        }

        if body.distinct {
            plan = PlanNode::Distinct {
                input: Box::new(plan),
            };
        }

        // Post-projection ORDER BY against output aliases.
        if !body.order_by.is_empty() && !pre_sorted {
            let keys = body
                .order_by
                .iter()
                .map(|o| Ok((self.bind_expr(&o.expr, &out_schema)?, o.desc)))
                .collect::<Result<Vec<_>>>()?;
            plan = PlanNode::Sort {
                input: Box::new(plan),
                keys,
            };
        }

        if let Some(n) = body.limit {
            plan = PlanNode::Limit {
                input: Box::new(plan),
                n,
            };
        }

        if body.having.is_some() {
            return Err(SqlError::bind("HAVING without aggregation"));
        }

        Ok((plan, out_schema))
    }

    // ---- aggregate SELECT -------------------------------------------------

    fn bind_aggregate_query(
        &mut self,
        body: &SelectBody,
        input: PlanNode,
        in_schema: Schema,
    ) -> Result<(PlanNode, Schema)> {
        // 1. Bind group expressions.
        let mut group_exprs = Vec::new();
        for g in &body.group_by {
            group_exprs.push(self.bind_expr(g, &in_schema)?);
        }

        // 2. Collect aggregate calls from projection, HAVING, ORDER BY.
        let mut agg_asts: Vec<Expr> = Vec::new();
        let mut collect = |e: &Expr| collect_aggregates(e, &mut agg_asts);
        for item in &body.projection {
            if let SelectItem::Expr { expr, .. } = item {
                collect(expr);
            }
        }
        if let Some(h) = &body.having {
            collect(h);
        }
        for o in &body.order_by {
            collect(&o.expr);
        }

        // 3. Bind each aggregate's argument.
        let mut aggs = Vec::new();
        for ast in &agg_asts {
            let Expr::Function {
                name,
                args,
                distinct,
                star,
                ..
            } = ast
            else {
                unreachable!("collect_aggregates only yields functions")
            };
            let (func, arg, ty) = if *star {
                (AggFunc::CountStar, None, DataType::Int)
            } else {
                let arg_ast = args
                    .first()
                    .ok_or_else(|| SqlError::bind(format!("{name}() needs an argument")))?;
                let bound = self.bind_expr(arg_ast, &in_schema)?;
                let arg_ty = infer_type(&bound, &in_schema);
                let (f, ty) = match name.as_str() {
                    "count" => (
                        AggFunc::Count {
                            distinct: *distinct,
                        },
                        DataType::Int,
                    ),
                    "sum" => (AggFunc::Sum, arg_ty.clone()),
                    "avg" => (AggFunc::Avg, DataType::Float),
                    "min" => (AggFunc::Min, arg_ty.clone()),
                    "max" => (AggFunc::Max, arg_ty.clone()),
                    "stddev_pop" | "stddev" | "stddev_samp" => {
                        (AggFunc::StddevPop, DataType::Float)
                    }
                    "median" => (AggFunc::Median, DataType::Float),
                    "array_agg" => (AggFunc::ArrayAgg, DataType::Array(Box::new(arg_ty.clone()))),
                    other => return Err(SqlError::bind(format!("unknown aggregate {other}"))),
                };
                (f, Some(bound), ty)
            };
            aggs.push(AggCall { func, arg, ty });
        }

        // 4. Aggregate node schema: groups then aggregates.
        let mut agg_cols = Vec::new();
        for (gi, g) in body.group_by.iter().enumerate() {
            agg_cols.push(ColumnMeta {
                qualifier: None,
                name: derive_name(g),
                ty: infer_type(&group_exprs[gi], &in_schema),
                hidden: false,
            });
        }
        for (ai, ast) in agg_asts.iter().enumerate() {
            agg_cols.push(ColumnMeta {
                qualifier: None,
                name: derive_name(ast),
                ty: aggs[ai].ty.clone(),
                hidden: false,
            });
        }
        let agg_schema = Schema { cols: agg_cols };
        let mut plan = PlanNode::Aggregate {
            input: Box::new(input),
            group_exprs,
            aggs,
            schema: agg_schema.clone(),
        };

        // 5. Rewriter: maps outer AST expressions onto the agg schema.
        let n_groups = body.group_by.len();
        let rewrite = |e: &Expr, binder: &mut Binder<'a>| -> Result<BExpr> {
            rewrite_post_agg(e, &body.group_by, &agg_asts, n_groups, binder, &agg_schema)
        };

        // HAVING.
        if let Some(h) = &body.having {
            let predicate = rewrite(h, self)?;
            plan = PlanNode::Filter {
                input: Box::new(plan),
                predicate,
            };
        }

        // ORDER BY (over the agg schema, so un-projected aggregates work:
        // `ORDER BY count(*) DESC LIMIT 1` in the imputer query).
        if !body.order_by.is_empty() {
            let keys = body
                .order_by
                .iter()
                .map(|o| Ok((rewrite(&o.expr, self)?, o.desc)))
                .collect::<Result<Vec<_>>>()?;
            plan = PlanNode::Sort {
                input: Box::new(plan),
                keys,
            };
        }

        if let Some(n) = body.limit {
            plan = PlanNode::Limit {
                input: Box::new(plan),
                n,
            };
        }

        // Projection.
        let mut exprs = Vec::new();
        let mut out_cols = Vec::new();
        for item in &body.projection {
            match item {
                SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {
                    return Err(SqlError::bind("* not supported with GROUP BY"));
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = rewrite(expr, self)?;
                    let ty = infer_type(&bound, &agg_schema);
                    out_cols.push(ColumnMeta {
                        qualifier: None,
                        name: alias.clone().unwrap_or_else(|| derive_name(expr)),
                        ty,
                        hidden: false,
                    });
                    exprs.push(bound);
                }
            }
        }
        let out_schema = Schema { cols: out_cols };
        plan = PlanNode::Project {
            input: Box::new(plan),
            exprs,
            schema: out_schema.clone(),
        };
        if body.distinct {
            plan = PlanNode::Distinct {
                input: Box::new(plan),
            };
        }
        Ok((plan, out_schema))
    }

    // ---- FROM clause -------------------------------------------------------

    fn bind_table_ref(&mut self, tref: &TableRef) -> Result<(PlanNode, Schema)> {
        match tref {
            TableRef::Named { name, alias } => self.bind_named(name, alias.as_deref()),
            TableRef::Subquery { query, alias } => {
                let (plan, schema) = self.bind_query(query)?;
                Ok((plan, requalify(schema, alias)))
            }
            TableRef::Join {
                left,
                right,
                kind,
                on,
            } => self.bind_join(left, right, *kind, on.as_ref()),
        }
    }

    fn bind_named(&mut self, name: &str, alias: Option<&str>) -> Result<(PlanNode, Schema)> {
        let qualifier = alias.unwrap_or(name).to_string();
        // 1. CTE in scope.
        if let Some(binding) = self.lookup_cte(name)? {
            return match binding {
                CteBinding::Pending(_) => unreachable!("lookup_cte resolves pending CTEs"),
                CteBinding::Materialized { index, schema } => {
                    let proj: Vec<usize> = (0..schema.len()).collect();
                    let schema = requalify(schema, &qualifier);
                    Ok((
                        PlanNode::Scan {
                            source: ScanSource::Cte(index),
                            projection: proj,
                            schema: schema.clone(),
                        },
                        schema,
                    ))
                }
                CteBinding::Inline { query, .. } => {
                    self.view_depth += 1;
                    if self.view_depth > MAX_VIEW_DEPTH {
                        return Err(SqlError::bind("view/CTE nesting too deep (cycle?)"));
                    }
                    let result = self.bind_query(&query);
                    self.view_depth -= 1;
                    let (plan, schema) = result?;
                    Ok((plan, requalify(schema, &qualifier)))
                }
            };
        }
        // 2. View.
        if let Some(view) = self.catalog.view(name) {
            self.reads.insert(name.to_string());
            let query = match &view.body {
                ViewBody::Inline(query) => Rc::clone(query),
                ViewBody::Stored(data) => {
                    let schema = Schema {
                        cols: data
                            .columns
                            .iter()
                            .zip(&data.types)
                            .map(|(n, t)| ColumnMeta {
                                qualifier: Some(qualifier.clone()),
                                name: n.clone(),
                                ty: t.clone(),
                                hidden: false,
                            })
                            .collect(),
                    };
                    return Ok((
                        PlanNode::Scan {
                            source: ScanSource::MaterializedView(name.to_string()),
                            projection: (0..schema.len()).collect(),
                            schema: schema.clone(),
                        },
                        schema,
                    ));
                }
            };
            // Shared-scan dedup: the second reference to the same view in one
            // query becomes a scan of a shared intermediate.
            if self.profile.shared_scans {
                if let Some((index, schema)) = self.view_memo.get(name).cloned() {
                    let proj: Vec<usize> = (0..schema.len()).collect();
                    let schema = requalify(schema, &qualifier);
                    return Ok((
                        PlanNode::Scan {
                            source: ScanSource::Cte(index),
                            projection: proj,
                            schema: schema.clone(),
                        },
                        schema,
                    ));
                }
                if self.views_seen.contains(name) {
                    let (plan, schema) = self.bind_in_scope(0, &query)?;
                    let index = self.ctes.len();
                    self.ctes.push(BoundCte {
                        name: name.to_string(),
                        plan,
                        shared: true,
                    });
                    self.view_memo
                        .insert(name.to_string(), (index, schema.clone()));
                    let proj: Vec<usize> = (0..schema.len()).collect();
                    let schema = requalify(schema, &qualifier);
                    return Ok((
                        PlanNode::Scan {
                            source: ScanSource::Cte(index),
                            projection: proj,
                            schema: schema.clone(),
                        },
                        schema,
                    ));
                }
                self.views_seen.insert(name.to_string());
            }
            self.view_depth += 1;
            if self.view_depth > MAX_VIEW_DEPTH {
                return Err(SqlError::bind("view nesting too deep (cycle?)"));
            }
            let result = self.bind_query(&query);
            self.view_depth -= 1;
            let (plan, schema) = result?;
            return Ok((plan, requalify(schema, &qualifier)));
        }
        // 3. Base table (with virtual ctid).
        if let Some(table) = self.catalog.table(name) {
            self.reads.insert(name.to_string());
            let mut cols: Vec<ColumnMeta> = table
                .columns
                .iter()
                .zip(&table.types)
                .map(|(n, t)| ColumnMeta {
                    qualifier: Some(qualifier.clone()),
                    name: n.clone(),
                    ty: t.clone(),
                    hidden: false,
                })
                .collect();
            let mut projection: Vec<usize> = (0..cols.len()).collect();
            cols.push(ColumnMeta {
                qualifier: Some(qualifier.clone()),
                name: "ctid".to_string(),
                ty: DataType::Int,
                hidden: true,
            });
            projection.push(CTID_SENTINEL);
            let schema = Schema { cols };
            return Ok((
                PlanNode::Scan {
                    source: ScanSource::Table(name.to_string()),
                    projection,
                    schema: schema.clone(),
                },
                schema,
            ));
        }
        Err(SqlError::bind(format!("unknown relation '{name}'")))
    }

    fn bind_join(
        &mut self,
        left: &TableRef,
        right: &TableRef,
        kind: ast::JoinKind,
        on: Option<&Expr>,
    ) -> Result<(PlanNode, Schema)> {
        let (lplan, lschema) = self.bind_table_ref(left)?;
        let (rplan, rschema) = self.bind_table_ref(right)?;
        let nleft = lschema.len();
        let mut cols = lschema.cols.clone();
        cols.extend(rschema.cols.iter().cloned());
        let schema = Schema { cols };

        let kind = match kind {
            ast::JoinKind::Inner => JoinKind::Inner,
            ast::JoinKind::Left => JoinKind::Left,
            ast::JoinKind::Right => JoinKind::Right,
            ast::JoinKind::Full => JoinKind::Full,
            ast::JoinKind::Cross => JoinKind::Cross,
        };

        let mut equi = Vec::new();
        let mut residual_parts: Vec<BExpr> = Vec::new();
        if let Some(on) = on {
            let bound = self.bind_expr(on, &schema)?;
            for conjunct in bexpr_conjuncts(&bound) {
                match classify_join_conjunct(&conjunct, nleft) {
                    Some(key) => equi.push(key),
                    None => residual_parts.push(conjunct),
                }
            }
        }
        let residual = residual_parts.into_iter().reduce(|a, b| BExpr::Binary {
            op: ast::BinaryOp::And,
            left: Box::new(a),
            right: Box::new(b),
        });
        if residual.is_some() && kind != JoinKind::Inner && kind != JoinKind::Cross {
            return Err(SqlError::bind(
                "outer joins support only equi-join conditions",
            ));
        }

        Ok((
            PlanNode::Join {
                left: Box::new(lplan),
                right: Box::new(rplan),
                kind,
                equi,
                residual,
                schema: schema.clone(),
            },
            schema,
        ))
    }

    // ---- expressions --------------------------------------------------------

    fn bind_expr(&mut self, expr: &Expr, schema: &Schema) -> Result<BExpr> {
        Ok(match expr {
            Expr::Column { table, name } => {
                let candidates = schema.resolve(table.as_deref(), name);
                match candidates.len() {
                    1 => BExpr::Col(candidates[0]),
                    0 => {
                        return Err(SqlError::bind(format!(
                            "unknown column {}{name}",
                            table.as_ref().map(|t| format!("{t}.")).unwrap_or_default()
                        )))
                    }
                    _ => {
                        // Ambiguity is tolerated when all candidates refer to
                        // equal-named hidden/visible pairs; otherwise error.
                        return Err(SqlError::bind(format!("ambiguous column '{name}'")));
                    }
                }
            }
            Expr::Literal(v) => BExpr::Lit(v.clone()),
            Expr::Parameter(n) => {
                self.params = self.params.max(*n);
                BExpr::Param(*n)
            }
            Expr::Binary { op, left, right } => BExpr::Binary {
                op: *op,
                left: Box::new(self.bind_expr(left, schema)?),
                right: Box::new(self.bind_expr(right, schema)?),
            },
            Expr::Unary { op, operand } => BExpr::Unary {
                op: *op,
                operand: Box::new(self.bind_expr(operand, schema)?),
            },
            Expr::Function {
                name,
                args,
                star,
                window_order,
                ..
            } => {
                if window_order.is_some() {
                    return Err(SqlError::bind(
                        "window functions are only supported as top-level projection items",
                    ));
                }
                if is_aggregate_name(name) || *star {
                    return Err(SqlError::bind(format!(
                        "aggregate {name}() not allowed in this context"
                    )));
                }
                let func = ScalarFunc::resolve(name)
                    .ok_or_else(|| SqlError::bind(format!("unknown function {name}")))?;
                BExpr::Func {
                    func,
                    args: args
                        .iter()
                        .map(|a| self.bind_expr(a, schema))
                        .collect::<Result<Vec<_>>>()?,
                }
            }
            Expr::Case { whens, else_expr } => BExpr::Case {
                whens: whens
                    .iter()
                    .map(|(c, v)| Ok((self.bind_expr(c, schema)?, self.bind_expr(v, schema)?)))
                    .collect::<Result<Vec<_>>>()?,
                else_expr: match else_expr {
                    Some(e) => Some(Box::new(self.bind_expr(e, schema)?)),
                    None => None,
                },
            },
            Expr::Cast { expr, ty } => BExpr::Cast {
                expr: Box::new(self.bind_expr(expr, schema)?),
                ty: ty.clone(),
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BExpr::InList {
                expr: Box::new(self.bind_expr(expr, schema)?),
                list: list
                    .iter()
                    .map(|e| self.bind_expr(e, schema))
                    .collect::<Result<Vec<_>>>()?,
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => BExpr::IsNull {
                expr: Box::new(self.bind_expr(expr, schema)?),
                negated: *negated,
            },
            Expr::ScalarSubquery(q) => {
                let (plan, sub_schema) = self.bind_query(q)?;
                if sub_schema.len() != 1 {
                    return Err(SqlError::bind(format!(
                        "scalar subquery must return one column, got {}",
                        sub_schema.len()
                    )));
                }
                let idx = self.subplans.len();
                self.subplans.push(plan);
                BExpr::Subplan(idx)
            }
            Expr::ArrayLiteral(items) => {
                // Fold constant arrays; dynamic arrays become a Func-less
                // construction via Case — simplest is a dedicated path:
                let bound = items
                    .iter()
                    .map(|e| self.bind_expr(e, schema))
                    .collect::<Result<Vec<_>>>()?;
                if bound.iter().all(|b| matches!(b, BExpr::Lit(_))) {
                    let vals = bound
                        .into_iter()
                        .map(|b| match b {
                            BExpr::Lit(v) => v,
                            _ => unreachable!(),
                        })
                        .collect();
                    BExpr::Lit(Value::Array(vals))
                } else {
                    // Dynamic ARRAY[expr,...]: build via concat of singleton
                    // fills. Rare in generated SQL; supported for
                    // completeness.
                    let mut iter = bound.into_iter();
                    let first = iter
                        .next()
                        .ok_or_else(|| SqlError::bind("empty dynamic ARRAY[] is unsupported"))?;
                    let mut acc = BExpr::Func {
                        func: ScalarFunc::ArrayFill,
                        args: vec![first, BExpr::Lit(Value::Int(1))],
                    };
                    for item in iter {
                        let single = BExpr::Func {
                            func: ScalarFunc::ArrayFill,
                            args: vec![item, BExpr::Lit(Value::Int(1))],
                        };
                        acc = BExpr::Binary {
                            op: ast::BinaryOp::Concat,
                            left: Box::new(acc),
                            right: Box::new(single),
                        };
                    }
                    acc
                }
            }
        })
    }
}

// ---- helpers ---------------------------------------------------------------

fn requalify(mut schema: Schema, alias: &str) -> Schema {
    for c in &mut schema.cols {
        c.qualifier = Some(alias.to_string());
    }
    schema
}

/// True for function names that are aggregates.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name,
        "count"
            | "sum"
            | "avg"
            | "min"
            | "max"
            | "stddev_pop"
            | "stddev"
            | "stddev_samp"
            | "median"
            | "array_agg"
    )
}

/// Collect top-most aggregate calls (not descending into subqueries or into
/// nested aggregates, which are invalid anyway). Deduplicates structurally.
fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) {
    match expr {
        Expr::Function { name, star, .. } if is_aggregate_name(name) || *star => {
            if !out.contains(expr) {
                out.push(expr.clone());
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::Unary { operand, .. } => collect_aggregates(operand, out),
        Expr::Case { whens, else_expr } => {
            for (c, v) in whens {
                collect_aggregates(c, out);
                collect_aggregates(v, out);
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, out);
            }
        }
        Expr::Cast { expr, .. } => collect_aggregates(expr, out),
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for e in list {
                collect_aggregates(e, out);
            }
        }
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        Expr::ScalarSubquery(_)
        | Expr::Column { .. }
        | Expr::Literal(_)
        | Expr::Parameter(_)
        | Expr::ArrayLiteral(_) => {}
    }
}

fn contains_aggregate(expr: &Expr) -> bool {
    let mut found = Vec::new();
    collect_aggregates(expr, &mut found);
    !found.is_empty()
}

/// Rewrite a post-aggregation expression (projection/HAVING/ORDER BY item)
/// onto the aggregate output schema.
#[allow(clippy::only_used_in_recursion)]
fn rewrite_post_agg(
    expr: &Expr,
    group_by: &[Expr],
    agg_asts: &[Expr],
    n_groups: usize,
    binder: &mut Binder<'_>,
    agg_schema: &Schema,
) -> Result<BExpr> {
    // Exact structural match with a GROUP BY expression.
    if let Some(gi) = group_by.iter().position(|g| exprs_equivalent(g, expr)) {
        return Ok(BExpr::Col(gi));
    }
    // Exact structural match with a collected aggregate.
    if let Some(ai) = agg_asts.iter().position(|a| a == expr) {
        return Ok(BExpr::Col(n_groups + ai));
    }
    Ok(match expr {
        Expr::Column { table, name } => {
            // A bare column that (qualified or not) matches a group-by column.
            if let Some(gi) = group_by.iter().position(|g| match g {
                Expr::Column { name: gname, .. } => gname == name,
                _ => false,
            }) {
                BExpr::Col(gi)
            } else {
                return Err(SqlError::bind(format!(
                    "column {}{name} must appear in GROUP BY",
                    table.as_ref().map(|t| format!("{t}.")).unwrap_or_default()
                )));
            }
        }
        Expr::Literal(v) => BExpr::Lit(v.clone()),
        Expr::Parameter(n) => {
            binder.params = binder.params.max(*n);
            BExpr::Param(*n)
        }
        Expr::Binary { op, left, right } => BExpr::Binary {
            op: *op,
            left: Box::new(rewrite_post_agg(
                left, group_by, agg_asts, n_groups, binder, agg_schema,
            )?),
            right: Box::new(rewrite_post_agg(
                right, group_by, agg_asts, n_groups, binder, agg_schema,
            )?),
        },
        Expr::Unary { op, operand } => BExpr::Unary {
            op: *op,
            operand: Box::new(rewrite_post_agg(
                operand, group_by, agg_asts, n_groups, binder, agg_schema,
            )?),
        },
        Expr::Function { name, args, .. } => {
            let func = ScalarFunc::resolve(name)
                .ok_or_else(|| SqlError::bind(format!("unknown function {name}")))?;
            BExpr::Func {
                func,
                args: args
                    .iter()
                    .map(|a| rewrite_post_agg(a, group_by, agg_asts, n_groups, binder, agg_schema))
                    .collect::<Result<Vec<_>>>()?,
            }
        }
        Expr::Case { whens, else_expr } => BExpr::Case {
            whens: whens
                .iter()
                .map(|(c, v)| {
                    Ok((
                        rewrite_post_agg(c, group_by, agg_asts, n_groups, binder, agg_schema)?,
                        rewrite_post_agg(v, group_by, agg_asts, n_groups, binder, agg_schema)?,
                    ))
                })
                .collect::<Result<Vec<_>>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(rewrite_post_agg(
                    e, group_by, agg_asts, n_groups, binder, agg_schema,
                )?)),
                None => None,
            },
        },
        Expr::Cast { expr: inner, ty } => BExpr::Cast {
            expr: Box::new(rewrite_post_agg(
                inner, group_by, agg_asts, n_groups, binder, agg_schema,
            )?),
            ty: ty.clone(),
        },
        Expr::InList {
            expr: inner,
            list,
            negated,
        } => BExpr::InList {
            expr: Box::new(rewrite_post_agg(
                inner, group_by, agg_asts, n_groups, binder, agg_schema,
            )?),
            list: list
                .iter()
                .map(|e| rewrite_post_agg(e, group_by, agg_asts, n_groups, binder, agg_schema))
                .collect::<Result<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::IsNull {
            expr: inner,
            negated,
        } => BExpr::IsNull {
            expr: Box::new(rewrite_post_agg(
                inner, group_by, agg_asts, n_groups, binder, agg_schema,
            )?),
            negated: *negated,
        },
        Expr::ScalarSubquery(q) => {
            let (plan, sub_schema) = binder.bind_query(q)?;
            if sub_schema.len() != 1 {
                return Err(SqlError::bind("scalar subquery must return one column"));
            }
            let idx = binder.subplans.len();
            binder.subplans.push(plan);
            BExpr::Subplan(idx)
        }
        Expr::ArrayLiteral(_) => {
            return Err(SqlError::bind(
                "ARRAY[] literals are not supported after aggregation",
            ))
        }
    })
}

/// Structural equivalence modulo table qualifiers (so `GROUP BY s` matches
/// `SELECT o.s` in the common single-table case is *not* assumed — only
/// unqualified-vs-qualified of the same name).
fn exprs_equivalent(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (
            Expr::Column {
                name: an,
                table: at,
            },
            Expr::Column {
                name: bn,
                table: bt,
            },
        ) => an == bn && (at == bt || at.is_none() || bt.is_none()),
        _ => a == b,
    }
}

fn derive_name(expr: &Expr) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        Expr::Cast { expr, .. } => derive_name(expr),
        _ => "?column?".to_string(),
    }
}

/// Find the first window-function subexpression (depth-first).
fn find_window_expr(expr: &Expr) -> Option<&Expr> {
    match expr {
        Expr::Function {
            window_order: Some(_),
            ..
        } => Some(expr),
        Expr::Function { args, .. } => args.iter().find_map(find_window_expr),
        Expr::Binary { left, right, .. } => {
            find_window_expr(left).or_else(|| find_window_expr(right))
        }
        Expr::Unary { operand, .. } => find_window_expr(operand),
        Expr::Case { whens, else_expr } => whens
            .iter()
            .find_map(|(c, v)| find_window_expr(c).or_else(|| find_window_expr(v)))
            .or_else(|| else_expr.as_ref().and_then(|e| find_window_expr(e))),
        Expr::Cast { expr, .. } => find_window_expr(expr),
        Expr::InList { expr, list, .. } => {
            find_window_expr(expr).or_else(|| list.iter().find_map(find_window_expr))
        }
        Expr::IsNull { expr, .. } => find_window_expr(expr),
        _ => None,
    }
}

/// Replace every occurrence of `target` inside `expr` with a reference to
/// the hidden column `col_name`.
fn replace_subexpr(expr: &Expr, target: &Expr, col_name: &str) -> Expr {
    if expr == target {
        return Expr::col(col_name);
    }
    match expr {
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(replace_subexpr(left, target, col_name)),
            right: Box::new(replace_subexpr(right, target, col_name)),
        },
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(replace_subexpr(operand, target, col_name)),
        },
        Expr::Function {
            name,
            args,
            distinct,
            star,
            window_order,
        } => Expr::Function {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| replace_subexpr(a, target, col_name))
                .collect(),
            distinct: *distinct,
            star: *star,
            window_order: window_order.clone(),
        },
        Expr::Case { whens, else_expr } => Expr::Case {
            whens: whens
                .iter()
                .map(|(c, v)| {
                    (
                        replace_subexpr(c, target, col_name),
                        replace_subexpr(v, target, col_name),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(replace_subexpr(e, target, col_name))),
        },
        Expr::Cast { expr: inner, ty } => Expr::Cast {
            expr: Box::new(replace_subexpr(inner, target, col_name)),
            ty: ty.clone(),
        },
        Expr::InList {
            expr: inner,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(replace_subexpr(inner, target, col_name)),
            list: list
                .iter()
                .map(|e| replace_subexpr(e, target, col_name))
                .collect(),
            negated: *negated,
        },
        Expr::IsNull {
            expr: inner,
            negated,
        } => Expr::IsNull {
            expr: Box::new(replace_subexpr(inner, target, col_name)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

/// If this expression is `row_number() OVER (ORDER BY ...)`, return the keys.
fn window_row_number_keys(expr: &Expr) -> Option<Vec<(Expr, bool)>> {
    // Allow `row_number() over (...) - 1` style arithmetic? Keep strict:
    // direct call or call wrapped in a single binary op with a literal.
    match expr {
        Expr::Function {
            name,
            window_order: Some(order),
            ..
        } if name == "row_number" => Some(order.iter().map(|o| (o.expr.clone(), o.desc)).collect()),
        _ => None,
    }
}

fn bexpr_conjuncts(e: &BExpr) -> Vec<BExpr> {
    match e {
        BExpr::Binary {
            op: ast::BinaryOp::And,
            left,
            right,
        } => {
            let mut out = bexpr_conjuncts(left);
            out.extend(bexpr_conjuncts(right));
            out
        }
        other => vec![other.clone()],
    }
}

/// Classify one ON conjunct as an equi key (possibly null-safe) if possible.
fn classify_join_conjunct(conjunct: &BExpr, nleft: usize) -> Option<EquiKey> {
    // Null-safe pattern: (a = b) OR (a IS NULL AND b IS NULL).
    if let BExpr::Binary {
        op: ast::BinaryOp::Or,
        left,
        right,
    } = conjunct
    {
        if let (Some(mut key), Some((na, nb))) =
            (plain_equi(left, nleft), null_null_pair(right, nleft))
        {
            if let (BExpr::Col(a), BExpr::Col(b)) = (&key.left, &key.right) {
                if (*a, *b) == (na, nb) {
                    key.null_safe = true;
                    return Some(key);
                }
            }
        }
        return None;
    }
    plain_equi(conjunct, nleft)
}

/// `left_side_expr = right_side_expr` with sides strictly split.
fn plain_equi(e: &BExpr, nleft: usize) -> Option<EquiKey> {
    let BExpr::Binary {
        op: ast::BinaryOp::Eq,
        left,
        right,
    } = e
    else {
        return None;
    };
    let side = |b: &BExpr| -> Option<bool> {
        let mut cols = Vec::new();
        b.columns_used(&mut cols);
        if cols.is_empty() {
            return None;
        }
        if cols.iter().all(|c| *c < nleft) {
            Some(true)
        } else if cols.iter().all(|c| *c >= nleft) {
            Some(false)
        } else {
            None
        }
    };
    let (ls, rs) = (side(left)?, side(right)?);
    let (mut l, mut r) = match (ls, rs) {
        (true, false) => ((**left).clone(), (**right).clone()),
        (false, true) => ((**right).clone(), (**left).clone()),
        _ => return None,
    };
    // Make right-side positions right-local.
    let map: Vec<usize> = (0..nleft + 4096).map(|i| i.saturating_sub(nleft)).collect();
    let _ = &mut l; // left stays as-is
    remap_right(&mut r, nleft);
    let _ = map;
    Some(EquiKey {
        left: l,
        right: r,
        null_safe: false,
    })
}

fn remap_right(e: &mut BExpr, nleft: usize) {
    match e {
        BExpr::Col(i) => *i -= nleft,
        BExpr::Lit(_) | BExpr::Param(_) | BExpr::Subplan(_) => {}
        BExpr::Binary { left, right, .. } => {
            remap_right(left, nleft);
            remap_right(right, nleft);
        }
        BExpr::Unary { operand, .. } => remap_right(operand, nleft),
        BExpr::Func { args, .. } => {
            for a in args {
                remap_right(a, nleft);
            }
        }
        BExpr::Case { whens, else_expr } => {
            for (c, v) in whens {
                remap_right(c, nleft);
                remap_right(v, nleft);
            }
            if let Some(e) = else_expr {
                remap_right(e, nleft);
            }
        }
        BExpr::Cast { expr, .. } => remap_right(expr, nleft),
        BExpr::InList { expr, list, .. } => {
            remap_right(expr, nleft);
            for i in list {
                remap_right(i, nleft);
            }
        }
        BExpr::IsNull { expr, .. } => remap_right(expr, nleft),
    }
}

/// `(a IS NULL AND b IS NULL)` with a left-side and b right-side column;
/// returns (left col, right-local col).
fn null_null_pair(e: &BExpr, nleft: usize) -> Option<(usize, usize)> {
    let BExpr::Binary {
        op: ast::BinaryOp::And,
        left,
        right,
    } = e
    else {
        return None;
    };
    let col_of = |b: &BExpr| -> Option<usize> {
        if let BExpr::IsNull {
            expr,
            negated: false,
        } = b
        {
            if let BExpr::Col(i) = **expr {
                return Some(i);
            }
        }
        None
    };
    let (a, b) = (col_of(left)?, col_of(right)?);
    if a < nleft && b >= nleft {
        Some((a, b - nleft))
    } else if b < nleft && a >= nleft {
        Some((b, a - nleft))
    } else {
        None
    }
}

/// Best-effort static typing of a bound expression.
pub fn infer_type(expr: &BExpr, schema: &Schema) -> DataType {
    match expr {
        BExpr::Col(i) => schema
            .cols
            .get(*i)
            .map(|c| c.ty.clone())
            .unwrap_or(DataType::Text),
        BExpr::Lit(v) => v.data_type().unwrap_or(DataType::Text),
        // A parameter's value is unknown until EXECUTE; default like an
        // untyped literal. Parameters in the projection inherit Text.
        BExpr::Param(_) => DataType::Text,
        BExpr::Binary { op, left, right } => {
            use ast::BinaryOp::*;
            match op {
                Eq | NotEq | Lt | Gt | Le | Ge | And | Or => DataType::Bool,
                Concat => infer_type(left, schema),
                Div => DataType::Float,
                _ => {
                    let lt = infer_type(left, schema);
                    let rt = infer_type(right, schema);
                    lt.unify(&rt).unwrap_or(DataType::Float)
                }
            }
        }
        BExpr::Unary { op, operand } => match op {
            ast::UnaryOp::Not => DataType::Bool,
            ast::UnaryOp::Neg => infer_type(operand, schema),
        },
        BExpr::Func { func, args } => {
            let arg_types: Vec<DataType> = args.iter().map(|a| infer_type(a, schema)).collect();
            func.return_type(&arg_types)
        }
        BExpr::Case { whens, else_expr } => whens
            .first()
            .map(|(_, v)| infer_type(v, schema))
            .or_else(|| else_expr.as_ref().map(|e| infer_type(e, schema)))
            .unwrap_or(DataType::Text),
        BExpr::Cast { ty, .. } => ty.clone(),
        BExpr::InList { .. } | BExpr::IsNull { .. } => DataType::Bool,
        BExpr::Subplan(_) => DataType::Float,
    }
}
