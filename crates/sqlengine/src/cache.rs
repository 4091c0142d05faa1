//! An LRU plan cache: parse + bind + optimize once, re-execute many times.
//!
//! Every SELECT text the engine runs on its own — `Engine::execute` /
//! `Engine::query` (the server's `QUERY` and each `BATCH` statement) and
//! `PREPARE`/`EXECUTE` — is looked up here by its exact text before it is
//! lexed, so a repeated text skips the whole query frontend. A SELECT inside
//! a multi-statement script is not cached. Entries hold the fully bound and
//! optimized [`PlanRoot`] plus its output schema; plans reference base
//! tables by name, so data changes (INSERT/COPY) never invalidate them. Any
//! catalog change invalidates per dependency: every entry records which
//! catalog objects it reads ([`CachedPlan::tables`] — base tables, views,
//! and materialized views, collected from both the query text and the
//! binder, so views and tables hidden under inlined views are included),
//! and creating or dropping an object evicts only the entries that depend
//! on it. Per-table eviction counts are kept for observability
//! ([`PlanCache::table_invalidations`]).

use crate::ast;
use crate::plan::{PlanRoot, Schema};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

/// A cached, ready-to-execute query plan.
#[derive(Debug)]
pub struct CachedPlan {
    /// The bound + optimized plan.
    pub root: PlanRoot,
    /// Output schema of the plan body.
    pub schema: Schema,
    /// Names of catalog objects (tables, views) this plan reads; DDL on any
    /// of them invalidates the entry. Sorted and deduplicated.
    pub tables: Vec<String>,
}

impl CachedPlan {
    /// True when this plan reads the named catalog object.
    pub fn depends_on(&self, name: &str) -> bool {
        self.tables
            .binary_search_by(|t| t.as_str().cmp(name))
            .is_ok()
    }
}

/// Hit/miss counters (monotonic; survive invalidation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// SELECT texts answered from the cache.
    pub hits: u64,
    /// SELECT texts planned from scratch and inserted.
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries dropped by catalog invalidation.
    pub invalidations: u64,
}

impl PlanCacheStats {
    /// Hit rate in `[0, 1]`; 0 when no lookups happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Least-recently-used plan cache keyed by SQL text.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    /// LRU order: least-recently used at the front.
    entries: VecDeque<(String, Rc<CachedPlan>)>,
    stats: PlanCacheStats,
    /// Entries dropped per table name by targeted invalidation.
    table_invalidations: HashMap<String, u64>,
}

/// Default number of cached plans per engine.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// Create a cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            entries: VecDeque::new(),
            stats: PlanCacheStats::default(),
            table_invalidations: HashMap::new(),
        }
    }

    /// Look up `sql`, bumping the entry to most-recently-used and counting a
    /// hit. An absent text counts nothing: only the caller knows whether it
    /// is a SELECT, and [`PlanCache::insert`] counts the miss.
    pub fn get(&mut self, sql: &str) -> Option<Rc<CachedPlan>> {
        let i = self.entries.iter().position(|(k, _)| k == sql)?;
        let entry = self.entries.remove(i).expect("position was valid");
        let plan = Rc::clone(&entry.1);
        self.entries.push_back(entry);
        self.stats.hits += 1;
        Some(plan)
    }

    /// Peek without touching LRU order or counters.
    pub fn contains(&self, sql: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == sql)
    }

    /// Insert a freshly planned SELECT, counting the miss that planned it
    /// and evicting the least-recently-used entry when full.
    pub fn insert(&mut self, sql: &str, plan: Rc<CachedPlan>) {
        self.stats.misses += 1;
        if let Some(i) = self.entries.iter().position(|(k, _)| k == sql) {
            self.entries.remove(i);
        }
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.stats.evictions += 1;
        }
        self.entries.push_back((sql.to_string(), plan));
    }

    /// Drop only the entries that depend on the named catalog object
    /// (targeted DDL invalidation). Returns how many entries were dropped
    /// and records the count against the table's invalidation counter.
    pub fn invalidate_table(&mut self, name: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(_, plan)| !plan.depends_on(name));
        let dropped = before - self.entries.len();
        if dropped > 0 {
            self.stats.invalidations += dropped as u64;
            *self
                .table_invalidations
                .entry(name.to_string())
                .or_default() += dropped as u64;
        }
        dropped
    }

    /// Per-table targeted-invalidation counts, sorted by table name.
    pub fn table_invalidations(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .table_invalidations
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        out.sort();
        out
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Monotonic hit/miss/eviction counters.
    pub fn stats(&self) -> PlanCacheStats {
        self.stats
    }
}

/// Collect the catalog objects a query reads: every table, view and
/// materialized view the binder resolved ([`PlanRoot::reads`], which sees
/// the views nested under an inlined view and the tables under them), plus
/// every named FROM reference in the AST. CTE names leak in from the AST
/// side; a spurious dependency only risks one extra eviction, never a stale
/// plan. Returns a sorted, deduplicated list.
pub fn collect_table_deps(query: &ast::Query, root: &PlanRoot) -> Vec<String> {
    let mut deps: BTreeSet<String> = root.reads.iter().cloned().collect();
    ast_query_deps(query, &mut deps);
    deps.into_iter().collect()
}

pub(crate) fn ast_query_deps(query: &ast::Query, deps: &mut BTreeSet<String>) {
    for cte in &query.ctes {
        ast_query_deps(&cte.query, deps);
    }
    let body = &query.body;
    for item in &body.projection {
        if let ast::SelectItem::Expr { expr, .. } = item {
            ast_expr_deps(expr, deps);
        }
    }
    if let Some(from) = &body.from {
        ast_table_ref_deps(from, deps);
    }
    for e in body
        .selection
        .iter()
        .chain(body.group_by.iter())
        .chain(body.having.iter())
    {
        ast_expr_deps(e, deps);
    }
    for item in &body.order_by {
        ast_expr_deps(&item.expr, deps);
    }
}

fn ast_table_ref_deps(table_ref: &ast::TableRef, deps: &mut BTreeSet<String>) {
    match table_ref {
        ast::TableRef::Named { name, .. } => {
            deps.insert(name.clone());
        }
        ast::TableRef::Subquery { query, .. } => ast_query_deps(query, deps),
        ast::TableRef::Join {
            left, right, on, ..
        } => {
            ast_table_ref_deps(left, deps);
            ast_table_ref_deps(right, deps);
            if let Some(on) = on {
                ast_expr_deps(on, deps);
            }
        }
    }
}

pub(crate) fn ast_expr_deps(expr: &ast::Expr, deps: &mut BTreeSet<String>) {
    match expr {
        ast::Expr::Column { .. } | ast::Expr::Literal(_) | ast::Expr::Parameter(_) => {}
        ast::Expr::Binary { left, right, .. } => {
            ast_expr_deps(left, deps);
            ast_expr_deps(right, deps);
        }
        ast::Expr::Unary { operand, .. } => ast_expr_deps(operand, deps),
        ast::Expr::Function { args, .. } => {
            for a in args {
                ast_expr_deps(a, deps);
            }
        }
        ast::Expr::Case { whens, else_expr } => {
            for (w, t) in whens {
                ast_expr_deps(w, deps);
                ast_expr_deps(t, deps);
            }
            if let Some(e) = else_expr {
                ast_expr_deps(e, deps);
            }
        }
        ast::Expr::Cast { expr, .. } => ast_expr_deps(expr, deps),
        ast::Expr::InList { expr, list, .. } => {
            ast_expr_deps(expr, deps);
            for e in list {
                ast_expr_deps(e, deps);
            }
        }
        ast::Expr::IsNull { expr, .. } => ast_expr_deps(expr, deps),
        ast::Expr::ScalarSubquery(q) => ast_query_deps(q, deps),
        ast::Expr::ArrayLiteral(items) => {
            for e in items {
                ast_expr_deps(e, deps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanNode;

    fn dummy_plan() -> Rc<CachedPlan> {
        Rc::new(plan_reading(&[]))
    }

    fn plan_reading(tables: &[&str]) -> CachedPlan {
        CachedPlan {
            root: PlanRoot::new(
                Vec::new(),
                Vec::new(),
                PlanNode::Values {
                    rows: Vec::new(),
                    schema: Schema::default(),
                },
            ),
            schema: Schema::default(),
            tables: tables.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn hit_and_miss_counting() {
        let mut c = PlanCache::new(4);
        assert!(c.get("SELECT 1").is_none());
        c.insert("SELECT 1", dummy_plan());
        assert!(c.get("SELECT 1").is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        c.insert("a", dummy_plan());
        c.insert("b", dummy_plan());
        assert!(c.get("a").is_some()); // refresh 'a'; 'b' is now LRU
        c.insert("c", dummy_plan()); // evicts 'b'
        assert!(c.contains("a"));
        assert!(!c.contains("b"));
        assert!(c.contains("c"));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_replaces_existing_entry() {
        let mut c = PlanCache::new(2);
        c.insert("a", dummy_plan());
        c.insert("a", dummy_plan());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn targeted_invalidation_drops_only_dependents() {
        let mut c = PlanCache::new(8);
        c.insert("q1", Rc::new(plan_reading(&["orders", "users"])));
        c.insert("q2", Rc::new(plan_reading(&["users"])));
        c.insert("q3", Rc::new(plan_reading(&["products"])));
        assert_eq!(c.invalidate_table("users"), 2);
        assert_eq!(c.len(), 1);
        assert!(c.contains("q3"));
        assert_eq!(c.stats().invalidations, 2);
        assert_eq!(c.table_invalidations(), vec![("users".to_string(), 2)]);
        // A table nothing depends on is a free no-op.
        assert_eq!(c.invalidate_table("missing"), 0);
        assert_eq!(c.stats().invalidations, 2);
        assert!(c.table_invalidations().iter().all(|(t, _)| t != "missing"));
    }

    #[test]
    fn depends_on_uses_sorted_lookup() {
        let p = plan_reading(&["a", "m", "z"]);
        assert!(p.depends_on("a"));
        assert!(p.depends_on("m"));
        assert!(p.depends_on("z"));
        assert!(!p.depends_on("q"));
    }
}
