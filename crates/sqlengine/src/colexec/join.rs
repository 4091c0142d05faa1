//! Vectorized joins: a hash equi-join with the probe side streamed, and a
//! blocked nested loop for everything without an equi key.
//!
//! Both concatenate the build (right) side into one chunk — a pipeline
//! breaker there anyway — and keep the probe (left) side in its input
//! batches, emitting pairs in exactly the row engine's order: probe order,
//! then build order. The hash join hashes the build side once and emits at
//! most one output chunk per probe batch; unmatched build rows of a right /
//! full join follow as NULL-padded chunks at the end. The nested loop
//! (cross joins, inner joins whose condition has no equi key) walks each
//! probe batch × the build side in blocks of at most [`BATCH_ROWS`] pairs
//! and filters each block by the residual like a WHERE.

use super::kernels::eval_col;
use super::{concat_chunks, exec_node, filter_chunk, BATCH_ROWS};
use crate::error::{Result, SqlError};
use crate::exec::eval::{eval, truthy};
use crate::exec::ExecContext;
use crate::plan::{BExpr, EquiKey, JoinKind, PlanNode};
use etypes::chunk::{page_tag, Column, ColumnData, TextDict};
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
/// bare `i64`; one stored as `Text` on both sides by the build side's
/// strings, each probe-dictionary code resolved once; any other single key
/// by a [`Value`] — no per-row `Vec` on either side; composite keys by
/// `Vec<Value>`, probed through a reused buffer (`Vec<Value>:
/// Borrow<[Value]>` makes the lookup allocation-free too).
enum KeyTable<'a> {
    Int {
        rows: HashMap<i64, Vec<usize>>,
        /// Build rows whose key is NULL, kept only for a null-safe key.
        nulls: Vec<usize>,
    },
    Text {
        /// Build string → its entry in `rows`.
        index: HashMap<&'a str, u32>,
        rows: Vec<Vec<usize>>,
        /// Build rows whose key is NULL, kept only for a null-safe key.
        nulls: Vec<usize>,
        /// The last probe dictionary, with each of its codes' entry (or
        /// [`UNRESOLVED`] / [`MISSING`]).
        memo: Option<(Rc<TextDict>, Vec<u32>)>,
    },
    Single(HashMap<Value, Vec<usize>>),
    Multi(HashMap<Vec<Value>, Vec<usize>>),
}

/// A probe code not yet looked up.
const UNRESOLVED: u32 = u32::MAX;
/// A probe code whose string the build side does not hold.
const MISSING: u32 = u32::MAX - 1;

impl<'a> KeyTable<'a> {
    /// Hash the build side. `probe` is the storage every probe batch's
    /// single key shares, if any; with the same `Int` or `Text` storage on
    /// the build key it selects a typed table. Pre-sized from the
    /// build-side row count so growth never rehashes.
    fn build(rkeys: &'a [Rc<Column>], equi: &[EquiKey], probe: Option<u8>) -> KeyTable<'a> {
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
            ColumnData::Text { dict, codes } if probe == Some(page_tag::TEXT) => {
                let mut index: HashMap<&'a str, u32> = HashMap::new();
                let mut rows: Vec<Vec<usize>> = Vec::new();
                let mut nulls = Vec::new();
                // Build code → entry, so each build string is hashed once.
                let mut entry = vec![UNRESOLVED; dict.len()];
                for (j, &code) in codes.iter().enumerate() {
                    if rkeys[0].is_null(j) {
                        if null_safe {
                            nulls.push(j);
                        }
                        continue;
                    }
                    let slot = &mut entry[code as usize];
                    if *slot == UNRESOLVED {
                        *slot = *index.entry(dict.get(code)).or_insert_with(|| {
                            rows.push(Vec::new());
                            (rows.len() - 1) as u32
                        });
                    }
                    rows[*slot as usize].push(j);
                }
                KeyTable::Text {
                    index,
                    rows,
                    nulls,
                    memo: None,
                }
            }
            ColumnData::Int(v) if probe == Some(page_tag::INT) => {
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
    #[inline]
    fn probe(
        &mut self,
        keys: &[Rc<Column>],
        equi: &[EquiKey],
        i: usize,
        buf: &mut Vec<Value>,
    ) -> Option<&[usize]> {
        match self {
            KeyTable::Int { rows, nulls } => match keys[0].data() {
                ColumnData::Int(_) if keys[0].is_null(i) => (!nulls.is_empty()).then_some(&*nulls),
                ColumnData::Int(v) => rows.get(&v[i]),
                _ => unreachable!("typed table chosen only for Int probe keys"),
            },
            KeyTable::Text {
                index,
                rows,
                nulls,
                memo,
            } => return probe_text(index, rows, nulls, memo, &keys[0], i),
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

/// [`KeyTable::probe`] of a `Text` table: probe row `i`'s code is resolved
/// to its build entry once per probe dictionary. Kept out of line so the
/// `Int` probe loop stays small.
#[inline(never)]
fn probe_text<'t>(
    index: &HashMap<&str, u32>,
    rows: &'t [Vec<usize>],
    nulls: &'t [usize],
    memo: &mut Option<(Rc<TextDict>, Vec<u32>)>,
    key: &Column,
    i: usize,
) -> Option<&'t [usize]> {
    let ColumnData::Text { dict, codes } = key.data() else {
        unreachable!("text table chosen only for Text probe keys")
    };
    if key.is_null(i) {
        return (!nulls.is_empty()).then_some(nulls);
    }
    if !memo.as_ref().is_some_and(|(d, _)| Rc::ptr_eq(d, dict)) {
        *memo = Some((Rc::clone(dict), vec![UNRESOLVED; dict.len()]));
    }
    let resolved = &mut memo.as_mut().expect("memo just set").1;
    let slot = &mut resolved[codes[i] as usize];
    if *slot == UNRESOLVED {
        *slot = index.get(dict.get(codes[i])).copied().unwrap_or(MISSING);
    }
    (*slot != MISSING).then(|| rows[*slot as usize].as_slice())
}

pub(super) fn exec_join(
    left: &PlanNode,
    right: &PlanNode,
    kind: JoinKind,
    equi: &[EquiKey],
    residual: Option<&BExpr>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<ColumnChunk>> {
    let lchunks = exec_node(left, ctx)?;
    let rchunk = concat_chunks(&exec_node(right, ctx)?);
    if equi.is_empty() {
        return match kind {
            JoinKind::Cross | JoinKind::Inner => nested_loop(&lchunks, &rchunk, residual, ctx),
            _ => Err(SqlError::exec(
                "outer join without equi-join condition is unsupported",
            )),
        };
    }
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
    let probe_tag = lkeys.first().map(|keys| keys[0].data().tag());
    let probe = probe_tag.filter(|&t| lkeys.iter().all(|keys| keys[0].data().tag() == t));
    let mut table = KeyTable::build(&rkeys, equi, probe);

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

/// The blocked nested loop: every (probe, build) pair in probe-major order,
/// gathered a block of at most [`BATCH_ROWS`] pairs at a time. The budget
/// is charged before each block is built, so a runaway product is cancelled
/// without ever being materialized.
fn nested_loop(
    lchunks: &[ColumnChunk],
    rchunk: &ColumnChunk,
    residual: Option<&BExpr>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<ColumnChunk>> {
    let nr = rchunk.len();
    let mut out = Vec::new();
    let mut lidx: Vec<usize> = Vec::with_capacity(BATCH_ROWS);
    let mut ridx: Vec<usize> = Vec::with_capacity(BATCH_ROWS);
    for chunk in lchunks {
        let pairs = chunk.len() * nr;
        for start in (0..pairs).step_by(BATCH_ROWS) {
            let end = (start + BATCH_ROWS).min(pairs);
            ctx.tick(end - start)?;
            lidx.clear();
            ridx.clear();
            for p in start..end {
                lidx.push(p / nr);
                ridx.push(p % nr);
            }
            let cols = chunk
                .columns()
                .iter()
                .map(|c| Rc::new(c.gather(&lidx)))
                .chain(rchunk.columns().iter().map(|c| Rc::new(c.gather(&ridx))))
                .collect();
            let block = ColumnChunk::new(cols, end - start);
            match residual {
                None => out.push(block),
                Some(res) => out.extend(filter_chunk(&block, res, ctx)?),
            }
        }
    }
    Ok(out)
}
