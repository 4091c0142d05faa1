//! Vectorized hash equi-join, probe side streamed.
//!
//! The build (right) side is concatenated into one chunk — a hash join is a
//! pipeline breaker there anyway — and hashed once. The probe (left) side
//! stays in its input batches: each batch is probed on its own and emits at
//! most one output chunk, in exactly the row engine's output order (probe
//! order, then build order among duplicate keys). Unmatched build rows of a
//! right / full join follow as NULL-padded chunks at the end.

use super::kernels::eval_col;
use super::{concat_chunks, exec_node, BATCH_ROWS};
use crate::error::{Result, SqlError};
use crate::exec::eval::{eval, truthy};
use crate::exec::ExecContext;
use crate::plan::{BExpr, EquiKey, JoinKind, PlanNode};
use etypes::chunk::{Column, ColumnData};
use etypes::{ColumnChunk, Value};
use std::collections::HashMap;
use std::rc::Rc;

/// Fill `key` with the row's composite key; `false` when a non-null-safe
/// key is NULL (such rows never match, mirroring `exec::join_key`). The
/// buffer is caller-owned so probing allocates nothing per row.
fn fill_row_key(key_cols: &[Rc<Column>], equi: &[EquiKey], i: usize, key: &mut Vec<Value>) -> bool {
    key.clear();
    for (kc, k) in key_cols.iter().zip(equi) {
        let v = kc.get(i);
        if v.is_null() && !k.null_safe {
            return false;
        }
        key.push(v);
    }
    true
}

/// Evaluate one side's equi keys over `chunk` as dense columns.
fn key_columns<'e>(
    exprs: impl Iterator<Item = &'e BExpr>,
    chunk: &ColumnChunk,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Rc<Column>>> {
    let sel: Vec<usize> = (0..chunk.len()).collect();
    exprs
        .map(|e| Ok(eval_col(e, chunk, &sel, ctx)?.materialize(chunk.len())))
        .collect()
}

/// The build-side hash table: build-row indices per key, in build order.
/// A single key stored as `ColumnData::Int` on both sides is keyed by the
/// bare `i64`; any other single key by a [`Value`] — no per-row `Vec` on
/// either side; composite keys by `Vec<Value>`, probed through a reused
/// buffer (`Vec<Value>: Borrow<[Value]>` makes the lookup allocation-free
/// too).
enum KeyTable {
    Int {
        rows: HashMap<i64, Vec<usize>>,
        /// Build rows whose key is NULL, kept only for a null-safe key.
        nulls: Vec<usize>,
    },
    Single(HashMap<Value, Vec<usize>>),
    Multi(HashMap<Vec<Value>, Vec<usize>>),
}

impl KeyTable {
    /// Hash the build side. `probe_int` says every probe batch's single key
    /// is `Int`-stored, which together with an `Int` build key selects the
    /// typed table. Pre-sized from the build-side row count so growth
    /// never rehashes.
    fn build(rkeys: &[Rc<Column>], equi: &[EquiKey], probe_int: bool) -> KeyTable {
        let n = rkeys[0].len();
        if equi.len() > 1 {
            let mut t: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(n);
            let mut key = Vec::with_capacity(equi.len());
            for j in 0..n {
                if fill_row_key(rkeys, equi, j, &mut key) {
                    t.entry(std::mem::take(&mut key)).or_default().push(j);
                    key.reserve(equi.len());
                }
            }
            return KeyTable::Multi(t);
        }
        let null_safe = equi[0].null_safe;
        match rkeys[0].data() {
            ColumnData::Int(v) if probe_int => {
                let mut rows: HashMap<i64, Vec<usize>> = HashMap::with_capacity(n);
                let mut nulls = Vec::new();
                for (j, &k) in v.iter().enumerate() {
                    if !rkeys[0].is_null(j) {
                        rows.entry(k).or_default().push(j);
                    } else if null_safe {
                        nulls.push(j);
                    }
                }
                KeyTable::Int { rows, nulls }
            }
            _ => {
                let mut t: HashMap<Value, Vec<usize>> = HashMap::with_capacity(n);
                for j in 0..n {
                    let v = rkeys[0].get(j);
                    if v.is_null() && !null_safe {
                        continue;
                    }
                    t.entry(v).or_default().push(j);
                }
                KeyTable::Single(t)
            }
        }
    }

    /// The build rows matching probe row `i` (`keys` are the probe batch's
    /// key columns).
    fn probe(
        &self,
        keys: &[Rc<Column>],
        equi: &[EquiKey],
        i: usize,
        buf: &mut Vec<Value>,
    ) -> Option<&[usize]> {
        match self {
            KeyTable::Int { rows, nulls } => match keys[0].data() {
                ColumnData::Int(_) if keys[0].is_null(i) => (!nulls.is_empty()).then_some(nulls),
                ColumnData::Int(v) => rows.get(&v[i]),
                _ => unreachable!("typed table chosen only for Int probe keys"),
            },
            KeyTable::Single(t) => {
                let v = keys[0].get(i);
                if v.is_null() && !equi[0].null_safe {
                    None
                } else {
                    t.get(&v)
                }
            }
            KeyTable::Multi(t) => {
                if fill_row_key(keys, equi, i, buf) {
                    t.get(buf.as_slice())
                } else {
                    None
                }
            }
        }
        .map(Vec::as_slice)
    }
}

pub(super) fn exec_join(
    left: &PlanNode,
    right: &PlanNode,
    kind: JoinKind,
    equi: &[EquiKey],
    residual: Option<&BExpr>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<ColumnChunk>> {
    debug_assert!(kind != JoinKind::Cross && !equi.is_empty());
    let lchunks = exec_node(left, ctx)?;
    let rchunk = concat_chunks(&exec_node(right, ctx)?);
    let lwidth = lchunks[0].width();

    // Build on right, probe with left (same as the row engine). Probe keys
    // are evaluated for every batch up front because their storage picks
    // the table; an error there waits until the batches before it are
    // probed, so an earlier residual error still wins as it does when the
    // row engine evaluates key and residual row by row.
    let rkeys = key_columns(equi.iter().map(|k| &k.right), &rchunk, ctx)?;
    let probes: Vec<&ColumnChunk> = lchunks.iter().filter(|c| !c.is_empty()).collect();
    let mut lkeys: Vec<Vec<Rc<Column>>> = Vec::with_capacity(probes.len());
    let mut key_error: Option<SqlError> = None;
    for chunk in &probes {
        match key_columns(equi.iter().map(|k| &k.left), chunk, ctx) {
            Ok(keys) => lkeys.push(keys),
            Err(e) => {
                key_error = Some(e);
                break;
            }
        }
    }
    let probe_int = lkeys
        .iter()
        .all(|keys| matches!(keys[0].data(), ColumnData::Int(_)));
    let table = KeyTable::build(&rkeys, equi, probe_int);

    let pads_right = matches!(kind, JoinKind::Left | JoinKind::Full);
    let mut out = Vec::with_capacity(probes.len() + 1);
    let mut right_matched = vec![false; rchunk.len()];
    let mut probe_key: Vec<Value> = Vec::with_capacity(equi.len());
    // Output row k pairs probe row `lidx[k]` with build row `ridx[k]`
    // (`None` pads an outer-join miss).
    let mut lidx: Vec<usize> = Vec::new();
    let mut ridx: Vec<Option<usize>> = Vec::new();
    for (chunk, keys) in probes.iter().zip(&lkeys) {
        ctx.tick(chunk.len())?;
        lidx.clear();
        ridx.clear();
        for i in 0..chunk.len() {
            let mut any = false;
            for &j in table.probe(keys, equi, i, &mut probe_key).unwrap_or(&[]) {
                if let Some(res) = residual {
                    // Residuals see the combined row; defer to the row
                    // evaluator on a materialized pair (rare path).
                    let mut row = chunk.get_row(i);
                    row.extend(rchunk.get_row(j));
                    if !truthy(&eval(res, &row, ctx)?) {
                        continue;
                    }
                }
                any = true;
                right_matched[j] = true;
                lidx.push(i);
                ridx.push(Some(j));
            }
            if !any && pads_right {
                lidx.push(i);
                ridx.push(None);
            }
        }
        if lidx.is_empty() {
            continue;
        }
        // Every probe row emitted exactly once (the key/foreign-key case):
        // the left columns pass through shared, like an all-true filter.
        let identity = lidx.iter().copied().eq(0..chunk.len());
        let mut cols = Vec::with_capacity(lwidth + rchunk.width());
        for c in chunk.columns() {
            cols.push(if identity {
                Rc::clone(c)
            } else {
                Rc::new(c.gather(&lidx))
            });
        }
        for c in rchunk.columns() {
            cols.push(Rc::new(c.gather_opt(&ridx)));
        }
        out.push(ColumnChunk::new(cols, lidx.len()));
    }
    if let Some(e) = key_error {
        return Err(e);
    }

    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        let unmatched: Vec<usize> = (0..rchunk.len()).filter(|&j| !right_matched[j]).collect();
        for window in unmatched.chunks(BATCH_ROWS) {
            let pad = Rc::new(Column::from_values(&vec![Value::Null; window.len()]));
            let mut cols = vec![pad; lwidth];
            for c in rchunk.columns() {
                cols.push(Rc::new(c.gather(window)));
            }
            out.push(ColumnChunk::new(cols, window.len()));
        }
    }
    Ok(out)
}
