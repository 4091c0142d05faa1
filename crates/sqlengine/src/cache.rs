//! An LRU plan cache: parse + bind + optimize once, re-execute many times.
//!
//! Every statement text the engine runs on its own — `Engine::execute` /
//! `Engine::query` (the server's `QUERY` and each `BATCH` statement) and
//! `PREPARE`/`EXECUTE` — is looked up here by its exact text (one hash
//! probe) before it is lexed. A text that is one SELECT caches its plan; a
//! text that is one `CREATE [MATERIALIZED] VIEW` caches its body's plan and
//! the view it creates, so a repeated DDL text (every INSPECT round issues
//! the last round's texts again) skips the whole query frontend too. A
//! statement inside a multi-statement script is not cached.
//!
//! Entries are validated on lookup, never evicted by DDL. Each entry
//! records, for every name it read ([`CachedPlan::tables`]: the tables,
//! views and materialized views the binder resolved, views nested under an
//! inlined view and the tables under them included, plus every name in the
//! text, so CTE names and names then absent are there too), the catalog's
//! [`Fingerprint`] of that name at planning time. A lookup compares each
//! with the catalog's current one; a stale entry is dropped, counted as an
//! invalidation against the first name found changed
//! ([`PlanCache::table_invalidations`]), and the caller plans the text
//! afresh. A valid plan reads the new data: scans resolve heaps by name at
//! execution, uncorrelated subqueries run at execution, and the optimizer
//! reads no cardinalities. So INSERT, COPY, and a DROP and re-CREATE with
//! the same schema leave an entry valid; a changed kind, schema or plain-
//! view definition, or a dropped relation, makes it stale.

use crate::ast;
use crate::catalog::{Catalog, Fingerprint};
use crate::plan::{PlanRoot, Schema};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// A cached, ready-to-execute query plan.
#[derive(Debug)]
pub struct CachedPlan {
    /// The bound + optimized plan.
    pub root: PlanRoot,
    /// Output schema of the plan body.
    pub schema: Schema,
    /// Every name this plan read, with the catalog's fingerprint of it when
    /// the plan was bound. Sorted by name and deduplicated.
    pub tables: Vec<(String, Fingerprint)>,
    /// The view a `CREATE [MATERIALIZED] VIEW` text creates from this
    /// plan's body; `None` for a SELECT.
    pub view: Option<ViewTarget>,
}

/// The view a cached `CREATE [MATERIALIZED] VIEW` creates.
#[derive(Debug)]
pub struct ViewTarget {
    /// View name.
    pub name: String,
    /// A plain view's body, shared with the catalog's definition; `None`
    /// for a materialized view, whose body runs and whose rows are stored.
    pub inline: Option<Rc<ast::Query>>,
}

impl CachedPlan {
    /// The first name whose fingerprint in `catalog` differs from the one
    /// this plan was bound against; `None` while the plan is valid.
    fn stale_relation(&self, catalog: &Catalog) -> Option<&str> {
        self.tables
            .iter()
            .find(|(name, fingerprint)| catalog.fingerprint(name) != *fingerprint)
            .map(|(name, _)| name.as_str())
    }
}

/// Hit/miss counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Texts answered from a valid cached plan.
    pub hits: u64,
    /// Texts planned from scratch and inserted (a stale entry re-planned
    /// included).
    pub misses: u64,
    /// Entries evicted by capacity pressure.
    pub evictions: u64,
    /// Entries found stale at lookup.
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

/// Least-recently-used plan cache keyed by statement text.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<String, Slot>,
    /// The LRU clock: bumped by every hit and insert.
    clock: u64,
    stats: PlanCacheStats,
    /// Stale entries found per name (the first changed name of each).
    table_invalidations: HashMap<String, u64>,
}

#[derive(Debug)]
struct Slot {
    plan: Rc<CachedPlan>,
    /// The clock at the entry's last hit or insert.
    used: u64,
}

/// Default number of cached plans per engine: a round of the four stock
/// INSPECTs needs 113 (48 SELECTs, 65 stored-view bodies), with room left
/// for `serve`'s prepared plans beside them.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

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
            entries: HashMap::new(),
            clock: 0,
            stats: PlanCacheStats::default(),
            table_invalidations: HashMap::new(),
        }
    }

    /// Look up `sql` and check its entry against `catalog`. A valid entry
    /// becomes the most recently used and counts a hit. A stale one is
    /// dropped and counts an invalidation. An absent text counts nothing:
    /// only the caller knows whether it is cacheable, and
    /// [`PlanCache::insert`] counts the miss that plans it.
    pub fn get(&mut self, sql: &str, catalog: &Catalog) -> Option<Rc<CachedPlan>> {
        let slot = self.entries.get_mut(sql)?;
        if let Some(name) = slot.plan.stale_relation(catalog) {
            *self
                .table_invalidations
                .entry(name.to_string())
                .or_default() += 1;
            self.stats.invalidations += 1;
            self.entries.remove(sql);
            return None;
        }
        self.clock += 1;
        slot.used = self.clock;
        self.stats.hits += 1;
        Some(Rc::clone(&slot.plan))
    }

    /// Peek without touching LRU order, counters or validity.
    pub fn contains(&self, sql: &str) -> bool {
        self.entries.contains_key(sql)
    }

    /// Insert a freshly planned text, counting the miss that planned it
    /// and evicting the least-recently-used entry when full.
    pub fn insert(&mut self, sql: &str, plan: Rc<CachedPlan>) {
        self.stats.misses += 1;
        self.clock += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(sql) {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, slot)| slot.used)
                .map(|(text, _)| text.clone())
                .expect("a full cache has an entry");
            self.entries.remove(&oldest);
            self.stats.evictions += 1;
        }
        let used = self.clock;
        self.entries.insert(sql.to_string(), Slot { plan, used });
    }

    /// Stale entries found per name, sorted by name.
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

/// The names a query read, each with its fingerprint in `catalog`, the
/// catalog it was just bound against: every table, view and materialized
/// view the binder resolved ([`PlanRoot::reads`], which sees the views
/// nested under an inlined view and the tables under them), plus every
/// named FROM reference in the AST. CTE names leak in from the AST side
/// with the catalog's fingerprint of that name (usually `ABSENT`), so an
/// object created under a CTE's name later costs one re-plan, never a
/// stale plan. Sorted by name and deduplicated.
pub fn collect_table_deps(
    query: &ast::Query,
    root: &PlanRoot,
    catalog: &Catalog,
) -> Vec<(String, Fingerprint)> {
    let mut deps: BTreeSet<String> = root.reads.iter().cloned().collect();
    ast_query_deps(query, &mut deps);
    deps.into_iter()
        .map(|name| {
            let fingerprint = catalog.fingerprint(&name);
            (name, fingerprint)
        })
        .collect()
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
    use crate::catalog::ABSENT;
    use crate::plan::PlanNode;
    use crate::storage::Table;
    use etypes::DataType;

    fn dummy_plan() -> Rc<CachedPlan> {
        Rc::new(plan_reading(&[]))
    }

    fn plan_reading(tables: &[(&str, Fingerprint)]) -> CachedPlan {
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
            tables: tables.iter().map(|(s, f)| (s.to_string(), *f)).collect(),
            view: None,
        }
    }

    fn catalog_of(tables: &[(&str, DataType)]) -> Catalog {
        let mut c = Catalog::new();
        for (name, ty) in tables {
            c.create_table(Table::empty(*name, vec!["a".into()], vec![ty.clone()]))
                .unwrap();
        }
        c
    }

    #[test]
    fn hit_and_miss_counting() {
        let c0 = Catalog::new();
        let mut c = PlanCache::new(4);
        assert!(c.get("SELECT 1", &c0).is_none());
        c.insert("SELECT 1", dummy_plan());
        assert!(c.get("SELECT 1", &c0).is_some());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c0 = Catalog::new();
        let mut c = PlanCache::new(2);
        c.insert("a", dummy_plan());
        c.insert("b", dummy_plan());
        assert!(c.get("a", &c0).is_some()); // refresh 'a'; 'b' is now LRU
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
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn targeted_invalidation_drops_only_dependents() {
        // A lookup drops an entry only when a name it read changed, and
        // counts it once, against the first changed name.
        let before = catalog_of(&[
            ("orders", DataType::Int),
            ("products", DataType::Int),
            ("users", DataType::Int),
        ]);
        let fp = |name: &str| before.fingerprint(name);
        let mut c = PlanCache::new(8);
        c.insert(
            "q1",
            Rc::new(plan_reading(&[
                ("orders", fp("orders")),
                ("users", fp("users")),
            ])),
        );
        c.insert("q2", Rc::new(plan_reading(&[("users", fp("users"))])));
        c.insert("q3", Rc::new(plan_reading(&[("products", fp("products"))])));
        // `users` re-created with another column type, `orders` dropped.
        let after = catalog_of(&[("products", DataType::Int), ("users", DataType::Text)]);
        assert_eq!(after.fingerprint("orders"), ABSENT);
        for q in ["q1", "q2", "q3"] {
            c.get(q, &after);
        }
        assert_eq!(c.len(), 1);
        assert!(c.contains("q3"));
        assert_eq!(c.stats().invalidations, 2);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(
            c.table_invalidations(),
            vec![("orders".to_string(), 1), ("users".to_string(), 1)]
        );
        // A name nothing read is never counted.
        assert!(c.table_invalidations().iter().all(|(t, _)| t != "products"));
    }

    #[test]
    fn a_plan_is_valid_while_every_fingerprint_matches() {
        // Recreated with the same schema: still valid. A name that was
        // absent (a CTE's) stays valid while it is absent.
        let c1 = catalog_of(&[("t", DataType::Int)]);
        let p = plan_reading(&[("n", ABSENT), ("t", c1.fingerprint("t"))]);
        assert_eq!(p.stale_relation(&c1), None);
        assert_eq!(p.stale_relation(&catalog_of(&[("t", DataType::Int)])), None);
        let with_n = catalog_of(&[("n", DataType::Int), ("t", DataType::Int)]);
        assert_eq!(p.stale_relation(&with_n), Some("n"));
        assert_eq!(p.stale_relation(&Catalog::new()), Some("t"));
    }
}
