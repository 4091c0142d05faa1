//! Shared execution state, aggregate semantics, and the row-at-a-time
//! reference interpreter.
//!
//! [`ExecContext`] carries one query's catalog, cost profile, CTE results,
//! scalar-subquery values, counters, profiles and cancellation budget for
//! the engine's one executor ([`crate::colexec`]). [`Acc`] and
//! [`eval::eval`] are the single definition of aggregate and scalar
//! semantics; the vectorized kernels defer to them.
//!
//! [`execute_root`] / [`execute`] interpret a plan one row at a time. They
//! are not on the serving path: `Engine::query_reference` runs them as the
//! oracle the differential tests compare the vectorized executor against,
//! so they stay deliberately plain — no profiling, counters or cost
//! charges.

pub mod eval;

use crate::catalog::Catalog;
use crate::error::{Result, SqlError};
use crate::plan::{
    AggCall, AggFunc, BExpr, JoinKind, PlanNode, PlanRoot, ScanSource, CTID_SENTINEL,
};
use crate::profile::EngineProfile;
use crate::storage::Heap;
use etypes::Value;
use eval::{eval, truthy};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Rows produced between deadline checks under cooperative cancellation:
/// large enough that the clock read is amortized away, small enough that a
/// runaway join is cancelled promptly.
const TICK_ROWS: u64 = 1024;

pub use crate::storage::Row;

/// Runtime counters for one plan node under operator profiling.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NodeProfile {
    /// Rows produced across all executions of this node.
    pub rows_out: u64,
    /// Columnar batches produced across all executions.
    pub batches_out: u64,
    /// Inclusive wall-clock time (children included), microseconds.
    pub elapsed_us: u64,
    /// Times the node ran (CTE plans and cached subplans run once).
    pub executions: u64,
}

/// Per-node profiles captured during one execution, keyed by the node's
/// address inside the borrowed [`PlanRoot`] (stable for the whole run and
/// for the profile build that follows, which walks the same plan).
#[derive(Debug, Default, Clone)]
pub struct NodeProfiles {
    map: HashMap<usize, NodeProfile>,
}

impl NodeProfiles {
    /// The profile recorded for `node`, if it ever executed.
    pub fn get(&self, node: &PlanNode) -> Option<NodeProfile> {
        self.map.get(&(node as *const PlanNode as usize)).copied()
    }

    /// Record one execution of a node and the batches it produced.
    fn record(&mut self, key: usize, rows: u64, batches: u64, elapsed: std::time::Duration) {
        let p = self.map.entry(key).or_default();
        p.rows_out += rows;
        p.batches_out += batches;
        p.elapsed_us += elapsed.as_micros() as u64;
        p.executions += 1;
    }
}

/// Counters the engine exposes for tests and the operation-level benchmark.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecStats {
    /// Simulated pages read from base tables / materialized views / CTE temp
    /// storage.
    pub pages_read: u64,
    /// Simulated pages written when materializing CTEs and views.
    pub pages_written: u64,
    /// Number of CTEs materialized (the PostgreSQL fence).
    pub ctes_materialized: u64,
    /// Number of shared-scan intermediates created by common-subexpression
    /// elimination (the in-memory profile's DAG plans).
    pub shared_scans: u64,
    /// Total rows produced by plan operators.
    pub rows_processed: u64,
    /// Columnar batches produced by plan operators.
    pub batches_executed: u64,
}

/// Shared execution state for one query.
pub struct ExecContext<'a> {
    /// Catalog for scans.
    pub catalog: &'a Catalog,
    /// Cost/behaviour profile.
    pub profile: &'a EngineProfile,
    /// The bound query (CTE and subplan tables).
    pub root: &'a PlanRoot,
    /// Materialized CTE results, filled in order before the body runs.
    cte_results: RefCell<Vec<Option<Rc<Heap>>>>,
    /// Lazily evaluated scalar subquery values.
    subplan_cache: RefCell<Vec<Option<Value>>>,
    /// Counters.
    pub stats: RefCell<ExecStats>,
    /// Per-node runtime profiles; `None` (the default) keeps the hot path
    /// down to a single branch per operator.
    profiles: Option<RefCell<NodeProfiles>>,
    /// Cooperative-cancellation deadline plus the configured budget in
    /// milliseconds (carried for the error message). `None` (the default)
    /// keeps [`ExecContext::tick`] to a single branch.
    deadline: Option<(std::time::Instant, u64)>,
    /// Rows produced since the last deadline check.
    ticked: Cell<u64>,
}

impl<'a> ExecContext<'a> {
    /// Create a context for a bound query.
    pub fn new(catalog: &'a Catalog, profile: &'a EngineProfile, root: &'a PlanRoot) -> Self {
        ExecContext {
            catalog,
            profile,
            root,
            cte_results: RefCell::new(vec![None; root.ctes.len()]),
            subplan_cache: RefCell::new(vec![None; root.subplans.len()]),
            stats: RefCell::new(ExecStats::default()),
            profiles: None,
            deadline: None,
            ticked: Cell::new(0),
        }
    }

    /// Arm cooperative cancellation: operators abort with
    /// [`SqlError::Timeout`] once `deadline` passes. The clock is checked
    /// every [`TICK_ROWS`] produced rows, so cancellation latency is
    /// bounded by the time to produce that many rows, not by statement
    /// completion.
    pub fn set_deadline(&mut self, deadline: std::time::Instant, budget_ms: u64) {
        self.deadline = Some((deadline, budget_ms));
    }

    /// Charge `produced` rows against the cancellation budget. Costs one
    /// branch when no deadline is armed; reads the clock once per
    /// [`TICK_ROWS`] rows otherwise.
    #[inline]
    pub fn tick(&self, produced: usize) -> Result<()> {
        let Some((deadline, ms)) = self.deadline else {
            return Ok(());
        };
        let acc = self.ticked.get() + produced as u64;
        if acc < TICK_ROWS {
            self.ticked.set(acc);
            return Ok(());
        }
        self.ticked.set(0);
        if std::time::Instant::now() >= deadline {
            return Err(SqlError::Timeout { ms });
        }
        Ok(())
    }

    /// Turn on per-node profiling (`EXPLAIN ANALYZE`, slow-query capture).
    pub fn enable_profiling(&mut self) {
        self.profiles = Some(RefCell::new(NodeProfiles::default()));
    }

    /// Take the captured profiles, if profiling was enabled.
    pub fn take_profiles(&mut self) -> Option<NodeProfiles> {
        self.profiles.take().map(RefCell::into_inner)
    }

    /// The cached value of scalar subquery `i`, executing it on first use.
    pub fn subplan_value(&self, i: usize) -> Result<Value> {
        if let Some(v) = &self.subplan_cache.borrow()[i] {
            return Ok(v.clone());
        }
        let chunks = crate::colexec::exec_node(&self.root.subplans[i], self)?;
        let value = match chunks.iter().map(etypes::ColumnChunk::len).sum::<usize>() {
            0 => Value::Null,
            1 => {
                let chunk = chunks.iter().find(|c| !c.is_empty()).expect("one row");
                if chunk.width() == 0 {
                    return Err(SqlError::exec("scalar subquery returned zero columns"));
                }
                chunk.column(0).get(0)
            }
            n => return Err(SqlError::exec(format!("scalar subquery returned {n} rows"))),
        };
        self.subplan_cache.borrow_mut()[i] = Some(value.clone());
        Ok(value)
    }

    pub(crate) fn cte_heap(&self, i: usize) -> Result<Rc<Heap>> {
        self.cte_results.borrow()[i]
            .clone()
            .ok_or_else(|| SqlError::exec("CTE referenced before materialization"))
    }

    /// Install CTE `i`'s materialized result, counting it like a temp-page
    /// spill (the executor and the reference interpreter both fill CTEs in
    /// order through here).
    pub(crate) fn store_cte(&self, i: usize, heap: Heap) {
        let rows = heap.len();
        {
            let mut stats = self.stats.borrow_mut();
            if self.root.ctes[i].shared {
                stats.shared_scans += 1;
            } else {
                stats.ctes_materialized += 1;
            }
            stats.pages_written += self.profile.pages_for(rows);
        }
        // Materialization writes temp pages (PostgreSQL spills CTE results).
        self.profile.charge_io(rows);
        self.cte_results.borrow_mut()[i] = Some(Rc::new(heap));
    }

    /// The stored heap a scan reads, with the scan's page charges applied.
    pub(crate) fn scan_heap<R>(
        &self,
        source: &ScanSource,
        read: impl FnOnce(&Heap) -> R,
    ) -> Result<R> {
        let cte;
        let heap = match source {
            ScanSource::Table(name) => {
                &self
                    .catalog
                    .table(name)
                    .ok_or_else(|| SqlError::exec(format!("table '{name}' disappeared")))?
                    .heap
            }
            ScanSource::MaterializedView(name) => {
                let view = self
                    .catalog
                    .view(name)
                    .ok_or_else(|| SqlError::exec(format!("view '{name}' disappeared")))?;
                &view
                    .materialized
                    .as_ref()
                    .ok_or_else(|| SqlError::exec(format!("view '{name}' is not materialized")))?
                    .heap
            }
            ScanSource::Cte(i) => {
                cte = self.cte_heap(*i)?;
                &*cte
            }
        };
        self.stats.borrow_mut().pages_read += self.profile.pages_for(heap.len());
        self.profile.charge_io(heap.len());
        Ok(read(heap))
    }

    /// True when per-node profiling is armed for this execution.
    pub(crate) fn profiling(&self) -> bool {
        self.profiles.is_some()
    }

    /// Record one execution of the node at `key` with batch-aware counters
    /// (the columnar executor's profiling hook); no-op unless profiling is
    /// armed.
    pub(crate) fn record_node_profile(
        &self,
        key: usize,
        rows: u64,
        batches: u64,
        elapsed: std::time::Duration,
    ) {
        if let Some(profiles) = &self.profiles {
            profiles.borrow_mut().record(key, rows, batches, elapsed);
        }
    }
}

/// Interpret a fully bound query one row at a time: materialize its CTEs in
/// order, then run the body. Returns rows; the caller attaches schema names.
pub fn execute_root(ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    for (i, cte) in ctx.root.ctes.iter().enumerate() {
        let rows = execute(&cte.plan, ctx)?;
        ctx.store_cte(i, Heap::from_rows(cte.plan.schema().len(), &rows));
    }
    execute(&ctx.root.body, ctx)
}

/// Interpret one plan node to rows.
pub fn execute(plan: &PlanNode, ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    Ok(match plan {
        PlanNode::Scan {
            source, projection, ..
        } => exec_scan(source, projection, ctx)?,
        PlanNode::Filter { input, predicate } => {
            let rows = execute(input, ctx)?;
            let mut out = Vec::with_capacity(rows.len() / 2 + 1);
            for row in rows {
                if truthy(&eval(predicate, &row, ctx)?) {
                    out.push(row);
                }
            }
            out
        }
        PlanNode::Project { input, exprs, .. } => {
            let rows = execute(input, ctx)?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut new_row = Vec::with_capacity(exprs.len());
                for e in exprs {
                    new_row.push(eval(e, &row, ctx)?);
                }
                out.push(new_row);
            }
            out
        }
        PlanNode::Join {
            left,
            right,
            kind,
            equi,
            residual,
            ..
        } => exec_join(left, right, *kind, equi, residual.as_ref(), ctx)?,
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
            ..
        } => exec_aggregate(input, group_exprs, aggs, ctx)?,
        PlanNode::Sort { input, keys } => {
            let mut rows = execute(input, ctx)?;
            let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
            for row in rows.drain(..) {
                let mut kv = Vec::with_capacity(keys.len());
                for (e, _) in keys {
                    kv.push(eval(e, &row, ctx)?);
                }
                keyed.push((kv, row));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = null_last_cmp(&ka[i], &kb[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            keyed.into_iter().map(|(_, r)| r).collect()
        }
        PlanNode::Limit { input, n } => {
            let mut rows = execute(input, ctx)?;
            rows.truncate(*n as usize);
            rows
        }
        PlanNode::Distinct { input } => {
            let rows = execute(input, ctx)?;
            let mut seen = std::collections::HashSet::with_capacity(rows.len());
            let mut out = Vec::new();
            for row in rows {
                if seen.insert(row.clone()) {
                    out.push(row);
                }
            }
            out
        }
        PlanNode::WindowRowNumber { input, keys, .. } => {
            let rows = execute(input, ctx)?;
            let mut keyed: Vec<(usize, Vec<Value>)> = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                let mut kv = Vec::with_capacity(keys.len());
                for (e, _) in keys {
                    kv.push(eval(e, row, ctx)?);
                }
                keyed.push((i, kv));
            }
            keyed.sort_by(|(ia, ka), (ib, kb)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = null_last_cmp(&ka[i], &kb[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                ia.cmp(ib)
            });
            let mut ranks = vec![0i64; rows.len()];
            for (rank, (orig, _)) in keyed.iter().enumerate() {
                ranks[*orig] = rank as i64 + 1;
            }
            rows.into_iter()
                .zip(ranks)
                .map(|(mut row, rank)| {
                    row.push(Value::Int(rank));
                    row
                })
                .collect()
        }
        PlanNode::Unnest { input, column, .. } => {
            let rows = execute(input, ctx)?;
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                // Take the array out of the row first: cloning the row per
                // element with the array still inside copies the whole list
                // each time, O(len²) per row (an `array_agg` ctid list holds
                // a group's every tuple identifier).
                match std::mem::replace(&mut row[*column], Value::Null) {
                    Value::Array(items) => {
                        out.reserve(items.len());
                        for item in items {
                            let mut r = row.clone();
                            r[*column] = item;
                            out.push(r);
                        }
                    }
                    Value::Null => {}
                    scalar => {
                        row[*column] = scalar;
                        out.push(row);
                    }
                }
            }
            out
        }
        PlanNode::Values { rows, .. } => rows.clone(),
    })
}

/// The row cursor over a stored heap: builds only the projected cells of
/// each row, sealed chunks first, then the tail.
fn exec_scan(source: &ScanSource, projection: &[usize], ctx: &ExecContext<'_>) -> Result<Vec<Row>> {
    ctx.scan_heap(source, |heap| {
        let mut out = Vec::with_capacity(heap.len());
        for chunk in heap.sealed() {
            let rid = out.len();
            out.extend((0..chunk.len()).map(|i| {
                projection
                    .iter()
                    .map(|&c| match c {
                        CTID_SENTINEL => Value::Int((rid + i) as i64),
                        c => chunk.column(c).get(i),
                    })
                    .collect()
            }));
        }
        for row in heap.tail() {
            let rid = out.len();
            out.push(
                projection
                    .iter()
                    .map(|&c| match c {
                        CTID_SENTINEL => Value::Int(rid as i64),
                        c => row[c].clone(),
                    })
                    .collect(),
            );
        }
        out
    })
}

/// PostgreSQL default ordering: NULLs sort as the largest value.
pub(crate) fn null_last_cmp(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => a.cmp(b),
    }
}

// ---- join -------------------------------------------------------------------

type KeyOpt = Option<Vec<Value>>;

fn join_key(exprs: &[(&BExpr, bool)], row: &Row, ctx: &ExecContext<'_>) -> Result<KeyOpt> {
    let mut key = Vec::with_capacity(exprs.len());
    for (e, null_safe) in exprs {
        let v = eval(e, row, ctx)?;
        if v.is_null() && !null_safe {
            return Ok(None);
        }
        key.push(v);
    }
    Ok(Some(key))
}

fn exec_join(
    left: &PlanNode,
    right: &PlanNode,
    kind: JoinKind,
    equi: &[crate::plan::EquiKey],
    residual: Option<&BExpr>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let lrows = execute(left, ctx)?;
    let rrows = execute(right, ctx)?;
    let lwidth = left.schema().len();
    let rwidth = right.schema().len();

    // Pure cross product (with optional residual filter).
    if kind == JoinKind::Cross || (equi.is_empty() && kind == JoinKind::Inner) {
        let mut out = Vec::new();
        for l in &lrows {
            for r in &rrows {
                let mut row = l.clone();
                row.extend(r.iter().cloned());
                if let Some(res) = residual {
                    if !truthy(&eval(res, &row, ctx)?) {
                        continue;
                    }
                }
                out.push(row);
            }
        }
        return Ok(out);
    }
    if equi.is_empty() {
        return Err(SqlError::exec(
            "outer join without equi-join condition is unsupported",
        ));
    }

    let lexprs: Vec<(&BExpr, bool)> = equi.iter().map(|k| (&k.left, k.null_safe)).collect();
    let rexprs: Vec<(&BExpr, bool)> = equi.iter().map(|k| (&k.right, k.null_safe)).collect();

    // Build on right, probe with left.
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(rrows.len());
    let mut rkeys: Vec<KeyOpt> = Vec::with_capacity(rrows.len());
    for (j, r) in rrows.iter().enumerate() {
        let key = join_key(&rexprs, r, ctx)?;
        if let Some(k) = &key {
            table.entry(k.clone()).or_default().push(j);
        }
        rkeys.push(key);
    }

    let mut out = Vec::new();
    let mut right_matched = vec![false; rrows.len()];
    for l in &lrows {
        let key = join_key(&lexprs, l, ctx)?;
        let matches = key.as_ref().and_then(|k| table.get(k));
        let mut any = false;
        if let Some(matches) = matches {
            for &j in matches {
                let mut row = l.clone();
                row.extend(rrows[j].iter().cloned());
                if let Some(res) = residual {
                    if !truthy(&eval(res, &row, ctx)?) {
                        continue;
                    }
                }
                any = true;
                right_matched[j] = true;
                out.push(row);
            }
        }
        if !any && matches!(kind, JoinKind::Left | JoinKind::Full) {
            let mut row = l.clone();
            row.extend(std::iter::repeat_n(Value::Null, rwidth));
            out.push(row);
        }
    }
    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        for (j, matched) in right_matched.iter().enumerate() {
            if !matched {
                let mut row: Row = std::iter::repeat_n(Value::Null, lwidth).collect();
                row.extend(rrows[j].iter().cloned());
                out.push(row);
            }
        }
    }
    Ok(out)
}

// ---- aggregation --------------------------------------------------------------

/// One aggregate accumulator: the single definition of aggregate
/// semantics, folded by the vectorized aggregate and the reference
/// interpreter alike.
pub(crate) enum Acc {
    CountStar(i64),
    Count(i64),
    CountDistinct(std::collections::HashSet<Value>),
    Sum(Option<Value>),
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
    Stddev { sum: f64, sumsq: f64, n: u64 },
    Median(Vec<f64>),
    ArrayAgg(Vec<Value>),
}

impl Acc {
    pub(crate) fn new(call: &AggCall) -> Acc {
        match &call.func {
            AggFunc::CountStar => Acc::CountStar(0),
            AggFunc::Count { distinct: true } => {
                Acc::CountDistinct(std::collections::HashSet::new())
            }
            AggFunc::Count { distinct: false } => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::StddevPop => Acc::Stddev {
                sum: 0.0,
                sumsq: 0.0,
                n: 0,
            },
            AggFunc::Median => Acc::Median(Vec::new()),
            AggFunc::ArrayAgg => Acc::ArrayAgg(Vec::new()),
        }
    }

    pub(crate) fn update(&mut self, value: Option<Value>) -> Result<()> {
        match self {
            Acc::CountStar(n) => *n += 1,
            Acc::Count(n) => {
                if matches!(&value, Some(v) if !v.is_null()) {
                    *n += 1;
                }
            }
            Acc::CountDistinct(set) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        set.insert(v);
                    }
                }
            }
            Acc::Sum(acc) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        *acc = Some(match acc.take() {
                            None => v,
                            Some(Value::Int(a)) => match v {
                                Value::Int(b) => Value::Int(a.wrapping_add(b)),
                                other => Value::Float(a as f64 + other.as_f64()?),
                            },
                            Some(cur) => Value::Float(cur.as_f64()? + v.as_f64()?),
                        });
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        *sum += v.as_f64()?;
                        *n += 1;
                    }
                }
            }
            Acc::Min(acc) => {
                if let Some(v) = value {
                    if !v.is_null() && acc.as_ref().is_none_or(|cur| v < *cur) {
                        *acc = Some(v);
                    }
                }
            }
            Acc::Max(acc) => {
                if let Some(v) = value {
                    if !v.is_null() && acc.as_ref().is_none_or(|cur| v > *cur) {
                        *acc = Some(v);
                    }
                }
            }
            Acc::Stddev { sum, sumsq, n } => {
                if let Some(v) = value {
                    if !v.is_null() {
                        let f = v.as_f64()?;
                        *sum += f;
                        *sumsq += f * f;
                        *n += 1;
                    }
                }
            }
            Acc::Median(values) => {
                if let Some(v) = value {
                    if !v.is_null() {
                        values.push(v.as_f64()?);
                    }
                }
            }
            Acc::ArrayAgg(values) => {
                if let Some(v) = value {
                    values.push(v);
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::CountStar(n) | Acc::Count(n) => Value::Int(n),
            Acc::CountDistinct(set) => Value::Int(set.len() as i64),
            Acc::Sum(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Stddev { sum, sumsq, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    let nf = n as f64;
                    let var = (sumsq / nf - (sum / nf) * (sum / nf)).max(0.0);
                    Value::Float(var.sqrt())
                }
            }
            Acc::Median(mut values) => {
                if values.is_empty() {
                    Value::Null
                } else {
                    values.sort_by(f64::total_cmp);
                    let mid = values.len() / 2;
                    if values.len() % 2 == 1 {
                        Value::Float(values[mid])
                    } else {
                        Value::Float((values[mid - 1] + values[mid]) / 2.0)
                    }
                }
            }
            Acc::ArrayAgg(values) => {
                if values.is_empty() {
                    Value::Null
                } else {
                    Value::Array(values)
                }
            }
        }
    }
}

fn exec_aggregate(
    input: &PlanNode,
    group_exprs: &[BExpr],
    aggs: &[AggCall],
    ctx: &ExecContext<'_>,
) -> Result<Vec<Row>> {
    let rows = execute(input, ctx)?;
    let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
    let mut order: Vec<Vec<Value>> = Vec::new();

    for row in &rows {
        let mut key = Vec::with_capacity(group_exprs.len());
        for g in group_exprs {
            key.push(eval(g, row, ctx)?);
        }
        let accs = match groups.get_mut(&key) {
            Some(a) => a,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(Acc::new).collect())
            }
        };
        for (acc, call) in accs.iter_mut().zip(aggs) {
            let v = match &call.arg {
                Some(e) => Some(eval(e, row, ctx)?),
                None => None,
            };
            acc.update(v)?;
        }
    }

    // Global aggregate over empty input still yields one row.
    if groups.is_empty() && group_exprs.is_empty() {
        let accs: Vec<Acc> = aggs.iter().map(Acc::new).collect();
        let row: Row = accs.into_iter().map(Acc::finish).collect();
        return Ok(vec![row]);
    }

    let mut out = Vec::with_capacity(order.len());
    for key in order {
        let accs = groups.remove(&key).expect("group recorded in order");
        let mut row = key;
        row.extend(accs.into_iter().map(Acc::finish));
        out.push(row);
    }
    Ok(out)
}
