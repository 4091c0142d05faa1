//! Vectorized columnar execution.
//!
//! A second execution subsystem beside [`crate::exec`]: plans run
//! batch-at-a-time over [`ColumnChunk`]s (typed vectors plus null bitmaps,
//! the same `ELSNP001` page layout snapshots use on disk) instead of
//! row-at-a-time over `Vec<Value>`. Scan, Filter, Project, hash Join,
//! Aggregate, Sort, Limit, Distinct, and Values are vectorized; any other
//! operator at the top of a subtree bridges that whole subtree back through
//! the row engine (`colexec_fallbacks` counts the bridges), so every query
//! the row engine answers is answered here too — identically.
//!
//! Filters produce *selection vectors* (strictly increasing row indices into
//! a chunk) instead of copying survivors eagerly; a chunk is only gathered
//! when the selection is not the identity. Both engines share the same
//! bookkeeping contract: per-node `rows_processed` / cost-model charges /
//! cancellation ticks, and per-node profiles keyed by plan-node address so
//! `EXPLAIN ANALYZE` renders honest per-operator rows, batches, and
//! inclusive times in either mode.

mod agg;
mod join;
mod kernels;

use crate::error::Result;
use crate::exec::{execute, ExecContext, Row};
use crate::plan::{BoundCte, JoinKind, PlanNode, ScanSource, CTID_SENTINEL};
use crate::storage::Heap;
use etypes::chunk::{Column, ColumnData, NullBitmap};
use etypes::ColumnChunk;
use kernels::{eval_col, gather_chunk, truthy_selection};
use std::rc::Rc;

/// Target rows per [`ColumnChunk`]; matches the cancellation tick quantum so
/// a batch is also the unit of cooperative scheduling, and is the size at
/// which a table heap seals its tail ([`crate::storage::Heap`]).
pub(crate) const BATCH_ROWS: usize = 1024;

/// Which execution subsystem runs queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// The row-at-a-time executor ([`crate::exec`]): the differential
    /// oracle the vectorized engine is tested against.
    Row,
    /// The batch-at-a-time columnar executor, bridging unvectorized
    /// subtrees back to the row engine.
    Columnar,
    /// Columnar when every operator in the plan is vectorized, row
    /// otherwise (never pays the fallback bridge); the default.
    #[default]
    Auto,
}

impl ExecMode {
    /// Stable lowercase name (used in `STATS`, `SET exec_mode`, and
    /// plan-cache keys).
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Row => "row",
            ExecMode::Columnar => "columnar",
            ExecMode::Auto => "auto",
        }
    }
}

impl std::fmt::Display for ExecMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<ExecMode, String> {
        match s.to_ascii_lowercase().as_str() {
            "row" => Ok(ExecMode::Row),
            "columnar" => Ok(ExecMode::Columnar),
            "auto" => Ok(ExecMode::Auto),
            other => Err(format!(
                "unknown exec mode '{other}' (expected row, columnar, or auto)"
            )),
        }
    }
}

/// True when every operator in the plan (CTE bodies included) has a
/// vectorized implementation, i.e. columnar execution would never bridge
/// back to the row engine. `Auto` mode runs columnar exactly in this case;
/// the answer is stored on the plan (`PlanRoot::vectorized`) by whoever
/// last shaped it, so executing a cached plan reads a bool.
pub(crate) fn fully_vectorized(ctes: &[BoundCte], body: &PlanNode) -> bool {
    fn walk(p: &PlanNode) -> bool {
        node_vectorized(p) && crate::explain::node_children(p).iter().all(|k| walk(k))
    }
    ctes.iter().all(|c| walk(&c.plan)) && walk(body)
}

/// True when this node itself (not its inputs) has a vectorized
/// implementation.
fn node_vectorized(plan: &PlanNode) -> bool {
    match plan {
        PlanNode::Unnest { .. } | PlanNode::WindowRowNumber { .. } => false,
        // Cross products and outer joins without equi keys take the row
        // engine's nested-loop path.
        PlanNode::Join { kind, equi, .. } => *kind != JoinKind::Cross && !equi.is_empty(),
        _ => true,
    }
}

/// Execute a fully bound query with the columnar engine: materialize CTEs in
/// order — their batches stored as they are, the same spill accounting as
/// the row engine's temp pages — then run the body to batches.
pub fn execute_root(ctx: &ExecContext<'_>) -> Result<Vec<ColumnChunk>> {
    for (i, cte) in ctx.root.ctes.iter().enumerate() {
        let chunks = exec_node(&cte.plan, ctx)?;
        ctx.store_cte(i, Heap::from_chunks(cte.plan.schema().len(), chunks));
    }
    exec_node(&ctx.root.body, ctx)
}

/// Execute one plan node to batches.
///
/// Output invariant: the returned vector is non-empty; an empty result is
/// one zero-row chunk of the node's output width, so downstream operators
/// always see the arity and `EXPLAIN ANALYZE` always sees `batches>=1` for
/// vectorized nodes.
pub(crate) fn exec_node(plan: &PlanNode, ctx: &ExecContext<'_>) -> Result<Vec<ColumnChunk>> {
    if !node_vectorized(plan) {
        return exec_fallback(plan, ctx);
    }
    // Inclusive timing, like the row engine: started before children run.
    let timer = ctx.profiling().then(std::time::Instant::now);
    let chunks = match plan {
        PlanNode::Scan {
            source, projection, ..
        } => exec_scan(source, projection, ctx)?,
        PlanNode::Filter { input, predicate } => {
            let chunks = exec_node(input, ctx)?;
            let mut out = Vec::with_capacity(chunks.len());
            for chunk in &chunks {
                if chunk.is_empty() {
                    continue;
                }
                let sel: Vec<usize> = (0..chunk.len()).collect();
                let pred = eval_col(predicate, chunk, &sel, ctx)?;
                let keep = truthy_selection(&pred, chunk.len());
                if keep.is_empty() {
                    continue;
                }
                if keep.len() == chunk.len() {
                    // Everything survived: reuse the input columns (Rc).
                    out.push(chunk.clone());
                } else {
                    out.push(gather_chunk(chunk, &keep));
                }
            }
            out
        }
        PlanNode::Project { input, exprs, .. } => {
            let chunks = exec_node(input, ctx)?;
            let mut out = Vec::with_capacity(chunks.len());
            for chunk in &chunks {
                let sel: Vec<usize> = (0..chunk.len()).collect();
                let cols = exprs
                    .iter()
                    .map(|e| Ok(eval_col(e, chunk, &sel, ctx)?.materialize(chunk.len())))
                    .collect::<Result<Vec<_>>>()?;
                out.push(ColumnChunk::new(cols, chunk.len()));
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
        } => join::exec_join(left, right, *kind, equi, residual.as_ref(), ctx)?,
        PlanNode::Aggregate {
            input,
            group_exprs,
            aggs,
            ..
        } => agg::exec_aggregate(input, group_exprs, aggs, ctx)?,
        PlanNode::Sort { input, keys } => {
            let chunks = exec_node(input, ctx)?;
            let big = concat_chunks(&chunks);
            let n = big.len();
            let sel: Vec<usize> = (0..n).collect();
            let key_cols: Vec<Rc<Column>> = keys
                .iter()
                .map(|(e, _)| Ok(eval_col(e, &big, &sel, ctx)?.materialize(n)))
                .collect::<Result<Vec<_>>>()?;
            let mut idx: Vec<usize> = (0..n).collect();
            // Stable sort over original order = the row engine's tie
            // behaviour.
            idx.sort_by(|&a, &b| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = crate::exec::null_last_cmp(&key_cols[i].get(a), &key_cols[i].get(b));
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            idx.chunks(BATCH_ROWS)
                .map(|window| gather_chunk(&big, window))
                .collect()
        }
        PlanNode::Limit { input, n } => {
            let chunks = exec_node(input, ctx)?;
            let mut out = Vec::new();
            let mut remaining = *n as usize;
            for chunk in &chunks {
                if remaining == 0 {
                    break;
                }
                if chunk.len() <= remaining {
                    remaining -= chunk.len();
                    out.push(chunk.clone());
                } else {
                    let sel: Vec<usize> = (0..remaining).collect();
                    out.push(gather_chunk(chunk, &sel));
                    remaining = 0;
                }
            }
            out
        }
        PlanNode::Distinct { input } => {
            let chunks = exec_node(input, ctx)?;
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for chunk in &chunks {
                let keep: Vec<usize> = (0..chunk.len())
                    .filter(|&i| seen.insert(chunk.get_row(i)))
                    .collect();
                if keep.is_empty() {
                    continue;
                }
                if keep.len() == chunk.len() {
                    out.push(chunk.clone());
                } else {
                    out.push(gather_chunk(chunk, &keep));
                }
            }
            out
        }
        PlanNode::Values { rows, schema } => rows_to_chunks(rows, schema.len()),
        PlanNode::Unnest { .. } | PlanNode::WindowRowNumber { .. } => {
            unreachable!("unvectorized nodes take the fallback bridge")
        }
    };
    let chunks = ensure_nonempty(chunks, plan.schema().len());
    let rows: usize = chunks.iter().map(ColumnChunk::len).sum();
    {
        let mut stats = ctx.stats.borrow_mut();
        stats.rows_processed += rows as u64;
        stats.batches_executed += chunks.len() as u64;
    }
    ctx.profile.charge_rows(rows);
    ctx.tick(rows)?;
    if let Some(t) = timer {
        ctx.record_node_profile(
            plan as *const PlanNode as usize,
            rows as u64,
            chunks.len() as u64,
            t.elapsed(),
        );
    }
    Ok(chunks)
}

/// Bridge an unvectorized subtree through the row engine and re-batch its
/// rows. The row engine does its own stats/profile bookkeeping for every
/// node in the subtree, so this records only the bridge itself.
fn exec_fallback(plan: &PlanNode, ctx: &ExecContext<'_>) -> Result<Vec<ColumnChunk>> {
    ctx.stats.borrow_mut().colexec_fallbacks += 1;
    let rows = execute(plan, ctx)?;
    Ok(rows_to_chunks(&rows, plan.schema().len()))
}

/// Scan a stored heap: each sealed chunk's projected columns are shared
/// (`Rc`), not copied; only the ctid column and the tail are built.
fn exec_scan(
    source: &ScanSource,
    projection: &[usize],
    ctx: &ExecContext<'_>,
) -> Result<Vec<ColumnChunk>> {
    ctx.scan_heap(source, |heap| {
        let mut out = Vec::with_capacity(heap.sealed().len() + 1);
        let tail =
            (!heap.tail().is_empty()).then(|| ColumnChunk::from_rows(heap.tail(), heap.width()));
        let mut start = 0;
        for chunk in heap.sealed().iter().chain(&tail) {
            let end = start + chunk.len();
            let cols = projection
                .iter()
                .map(|&c| match c {
                    // Row ids are global, not per-batch.
                    CTID_SENTINEL => Rc::new(Column::new(
                        ColumnData::Int((start..end).map(|r| r as i64).collect()),
                        NullBitmap::new_valid(chunk.len()),
                    )),
                    c => Rc::clone(chunk.column(c)),
                })
                .collect();
            out.push(ColumnChunk::new(cols, chunk.len()));
            start = end;
        }
        out
    })
}

/// A zero-row chunk of the given width (the canonical empty result).
fn empty_chunk(width: usize) -> ColumnChunk {
    let cols = (0..width)
        .map(|_| Rc::new(Column::from_values(&[])))
        .collect();
    ColumnChunk::new(cols, 0)
}

fn ensure_nonempty(chunks: Vec<ColumnChunk>, width: usize) -> Vec<ColumnChunk> {
    if chunks.is_empty() {
        vec![empty_chunk(width)]
    } else {
        chunks
    }
}

/// Re-batch rows into chunks of at most [`BATCH_ROWS`] (empty input becomes
/// one zero-row chunk).
pub(crate) fn rows_to_chunks(rows: &[Row], width: usize) -> Vec<ColumnChunk> {
    if rows.is_empty() {
        return vec![empty_chunk(width)];
    }
    rows.chunks(BATCH_ROWS)
        .map(|window| ColumnChunk::from_rows(window, width))
        .collect()
}

/// Flatten batches back to rows (the engine's result representation).
pub(crate) fn chunks_to_rows(chunks: &[ColumnChunk]) -> Vec<Row> {
    chunks.iter().flat_map(ColumnChunk::to_rows).collect()
}

/// Concatenate batches into one chunk (pipeline breakers: Sort, the join's
/// build side).
pub(crate) fn concat_chunks(chunks: &[ColumnChunk]) -> ColumnChunk {
    if chunks.len() == 1 {
        return chunks[0].clone();
    }
    let width = chunks[0].width();
    let len = chunks.iter().map(ColumnChunk::len).sum();
    let cols = (0..width)
        .map(|c| {
            let parts: Vec<&Column> = chunks.iter().map(|ch| ch.column(c).as_ref()).collect();
            Rc::new(Column::concat(&parts))
        })
        .collect();
    ColumnChunk::new(cols, len)
}
