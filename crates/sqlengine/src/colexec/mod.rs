//! Vectorized columnar execution: the engine's one executor.
//!
//! Every plan — a query, a stored view, a CTE, a scalar subquery — runs
//! batch-at-a-time over [`ColumnChunk`]s (typed vectors plus null bitmaps,
//! the same `ELSNP001` page layout snapshots use on disk). Every plan node
//! has an operator here: Scan, Filter, Project, hash Join and the blocked
//! nested loop (cross and non-equi inner joins), Aggregate, Sort, Limit,
//! Distinct, `ROW_NUMBER()` windows, `unnest`, and Values. The row
//! interpreter in [`crate::exec`] is not on this path; it is the reference
//! the differential tests compare against (`Engine::query_reference`), and
//! its `Acc` / `eval` stay the single definition of aggregate and scalar
//! semantics that the kernels here defer to.
//!
//! Filters produce *selection vectors* (strictly increasing row indices into
//! a chunk) instead of copying survivors eagerly; a chunk is only gathered
//! when the selection is not the identity. Each operator does the same
//! bookkeeping: `rows_processed` / `batches_executed`, cost-model charges,
//! cancellation ticks, and per-node profiles keyed by plan-node address so
//! `EXPLAIN ANALYZE` renders honest per-operator rows, batches, and
//! inclusive times.

mod agg;
mod join;
mod kernels;

use crate::error::Result;
use crate::exec::{null_last_cmp, ExecContext, Row};
use crate::plan::{BExpr, PlanNode, ScanSource, CTID_SENTINEL};
use crate::storage::Heap;
use etypes::chunk::{Column, ColumnData, NullBitmap};
use etypes::{ColumnChunk, Value};
use kernels::{eval_col, gather_chunk, truthy_selection};
use std::rc::Rc;

/// Target rows per [`ColumnChunk`]; matches the cancellation tick quantum so
/// a batch is also the unit of cooperative scheduling, and is the size at
/// which a table heap seals its tail ([`crate::storage::Heap`]).
pub(crate) const BATCH_ROWS: usize = 1024;

/// Execute a fully bound query: materialize CTEs in order — their batches
/// stored as they are, with temp-page spill accounting — then run the body
/// to batches.
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
/// always see the arity and `EXPLAIN ANALYZE` always sees `batches>=1`.
pub(crate) fn exec_node(plan: &PlanNode, ctx: &ExecContext<'_>) -> Result<Vec<ColumnChunk>> {
    // Inclusive timing: started before children run.
    let timer = ctx.profiling().then(std::time::Instant::now);
    let chunks = match plan {
        PlanNode::Scan {
            source, projection, ..
        } => exec_scan(source, projection, ctx)?,
        PlanNode::Filter { input, predicate } => {
            let chunks = exec_node(input, ctx)?;
            let mut out = Vec::with_capacity(chunks.len());
            for chunk in &chunks {
                if let Some(kept) = filter_chunk(chunk, predicate, ctx)? {
                    out.push(kept);
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
            let big = concat_chunks(&exec_node(input, ctx)?);
            sorted_indices(&big, keys, ctx)?
                .chunks(BATCH_ROWS)
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
        PlanNode::WindowRowNumber { input, keys, .. } => {
            let chunks = exec_node(input, ctx)?;
            let big = concat_chunks(&chunks);
            let mut ranks = vec![0i64; big.len()];
            for (rank, i) in sorted_indices(&big, keys, ctx)?.into_iter().enumerate() {
                ranks[i] = rank as i64 + 1;
            }
            // Rows keep their input batches; each gains its slice of ranks.
            let mut start = 0;
            let mut out = Vec::with_capacity(chunks.len());
            for chunk in chunks.iter().filter(|c| !c.is_empty()) {
                let end = start + chunk.len();
                let mut cols = chunk.columns().to_vec();
                cols.push(Rc::new(Column::new(
                    ColumnData::Int(ranks[start..end].to_vec()),
                    NullBitmap::new_valid(chunk.len()),
                )));
                out.push(ColumnChunk::new(cols, chunk.len()));
                start = end;
            }
            out
        }
        PlanNode::Unnest { input, column, .. } => exec_node(input, ctx)?
            .iter()
            .map(|c| unnest_chunk(c, *column))
            .filter(|c| !c.is_empty())
            .collect(),
        PlanNode::Values { rows, schema } => rows_to_chunks(rows, schema.len()),
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

/// The rows of `chunk` whose `predicate` is exactly `TRUE` (a WHERE, or a
/// join residual over a block of pairs); `None` when none survive.
fn filter_chunk(
    chunk: &ColumnChunk,
    predicate: &BExpr,
    ctx: &ExecContext<'_>,
) -> Result<Option<ColumnChunk>> {
    if chunk.is_empty() {
        return Ok(None);
    }
    let sel: Vec<usize> = (0..chunk.len()).collect();
    let keep = truthy_selection(&eval_col(predicate, chunk, &sel, ctx)?, chunk.len());
    Ok(if keep.is_empty() {
        None
    } else if keep.len() == chunk.len() {
        // Everything survived: reuse the input columns (Rc).
        Some(chunk.clone())
    } else {
        Some(gather_chunk(chunk, &keep))
    })
}

/// Row indices of `chunk` in `keys` order (the `Sort` operator and the
/// `ROW_NUMBER()` window): each key is evaluated once as a column, then a
/// stable sort with NULLs last and DESC flips, so ties keep input order —
/// the row engine's tie behaviour.
fn sorted_indices(
    chunk: &ColumnChunk,
    keys: &[(BExpr, bool)],
    ctx: &ExecContext<'_>,
) -> Result<Vec<usize>> {
    let n = chunk.len();
    let sel: Vec<usize> = (0..n).collect();
    let key_cols: Vec<Rc<Column>> = keys
        .iter()
        .map(|(e, _)| Ok(eval_col(e, chunk, &sel, ctx)?.materialize(n)))
        .collect::<Result<Vec<_>>>()?;
    let mut idx = sel;
    idx.sort_by(|&a, &b| {
        for (col, (_, desc)) in key_cols.iter().zip(keys) {
            let ord = null_last_cmp(&col.get(a), &col.get(b));
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(idx)
}

/// Expand the array cells of `column` into one row per element, in parent
/// order and then element order; the other columns are gathered from each
/// element's parent row. A NULL cell or an empty array yields no rows and a
/// non-array value passes through unchanged. Linear in the elements: each
/// array is read once.
fn unnest_chunk(chunk: &ColumnChunk, column: usize) -> ColumnChunk {
    let col = chunk.column(column);
    let ColumnData::Generic(cells) = col.data() else {
        // Typed storage holds no arrays: only the NULLs drop out.
        let keep: Vec<usize> = (0..chunk.len()).filter(|&i| !col.is_null(i)).collect();
        return if keep.len() == chunk.len() {
            chunk.clone()
        } else {
            gather_chunk(chunk, &keep)
        };
    };
    let mut parents: Vec<usize> = Vec::with_capacity(cells.len());
    let mut items: Vec<Value> = Vec::with_capacity(cells.len());
    for (i, cell) in cells.iter().enumerate() {
        match cell {
            Value::Array(elems) => {
                parents.extend(std::iter::repeat_n(i, elems.len()));
                items.extend(elems.iter().cloned());
            }
            Value::Null => {}
            scalar => {
                parents.push(i);
                items.push(scalar.clone());
            }
        }
    }
    let cols = chunk
        .columns()
        .iter()
        .enumerate()
        .map(|(c, col)| {
            Rc::new(if c == column {
                Column::from_values(&items)
            } else {
                col.gather(&parents)
            })
        })
        .collect();
    ColumnChunk::new(cols, parents.len())
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

/// Concatenate batches into one chunk (pipeline breakers: Sort, the
/// window, the join's build side).
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
