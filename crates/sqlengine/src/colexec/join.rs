//! Vectorized joins: a hash equi-join with the probe side streamed, and a
//! blocked nested loop for everything without an equi key.
//!
//! Both concatenate the build (right) side into one chunk — a pipeline
//! breaker there anyway — and keep the probe (left) side in its input
//! batches, emitting pairs in exactly the row engine's order: probe order,
//! then build order. The hash join indexes the build side once — each key
//! to a dense id, each id's rows in one flat array — and emits at most one
//! output chunk per probe batch; unmatched build rows of a right /
//! full join follow as NULL-padded chunks at the end. The nested loop
//! (cross joins, inner joins whose condition has no equi key) walks each
//! probe batch × the build side in blocks of at most [`BATCH_ROWS`] pairs
//! and filters each block by the residual like a WHERE.

use super::kernels::eval_col;
use super::{concat_chunks, exec_node, filter_chunk, CodeMemo, BATCH_ROWS, UNRESOLVED};
use crate::error::{Result, SqlError};
use crate::exec::eval::{eval, truthy};
use crate::exec::ExecContext;
use crate::plan::{BExpr, EquiKey, JoinKind, PlanNode};
use etypes::chunk::{page_tag, Column, ColumnData};
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

/// A build key id that no probe row can reach.
const NONE: u32 = u32::MAX;
/// A probe code whose string the build side does not hold.
const MISSING: u32 = u32::MAX - 1;

/// The build rows of each key id, CSR style: id `d`'s rows are
/// `flat[starts[d]..starts[d + 1]]`, in build order.
struct Csr {
    starts: Vec<u32>,
    flat: Vec<u32>,
}

impl Csr {
    /// Lay out build row `j` under id `ids[j]` (below `keys`), skipping
    /// rows whose id is [`NONE`]: a stable counting sort, so each id's rows
    /// stay in build order.
    fn new(ids: &[u32], keys: usize) -> Csr {
        let mut starts = vec![0u32; keys + 1];
        for &d in ids.iter().filter(|&&d| d != NONE) {
            starts[d as usize + 1] += 1;
        }
        for d in 0..keys {
            starts[d + 1] += starts[d];
        }
        let mut cursor = starts[..keys].to_vec();
        let mut flat = vec![0u32; starts[keys] as usize];
        for (j, &d) in ids.iter().enumerate().filter(|&(_, &d)| d != NONE) {
            let at = &mut cursor[d as usize];
            flat[*at as usize] = j as u32;
            *at += 1;
        }
        Csr { starts, flat }
    }

    #[inline]
    fn rows(&self, id: u32) -> &[u32] {
        let d = id as usize;
        &self.flat[self.starts[d] as usize..self.starts[d + 1] as usize]
    }
}

/// The build side: each key mapped to a dense id, and each id's build rows
/// in a [`Csr`]. A NULL key has an id only when the key is null-safe (such
/// rows never match otherwise, mirroring `exec::join_key`).
struct KeyTable<'a> {
    lookup: Lookup<'a>,
    rows: Csr,
    /// The id of a NULL probe key under a typed lookup.
    null_id: u32,
}

/// How a probe key finds its id.
enum Lookup<'a> {
    /// A single `Int` key on both sides whose build values span at most
    /// twice the build rows: the id is `key - min`, below `span`, with no
    /// hashing.
    Direct { min: i64, span: u64 },
    /// A single `Int` key on both sides.
    Int(HashMap<i64, u32>),
    /// A single `Text` key on both sides, keyed by the build strings; the
    /// memo resolves each probe-dictionary code to an id (or [`MISSING`])
    /// once.
    Text {
        index: HashMap<&'a str, u32>,
        memo: CodeMemo,
    },
    /// Any other single key, by value.
    Single(HashMap<Value, u32>),
    /// Composite keys, probed through a reused buffer (`Vec<Value>:
    /// Borrow<[Value]>` makes the lookup allocation-free).
    Multi(HashMap<Vec<Value>, u32>),
}

impl<'a> KeyTable<'a> {
    /// Index the build side. `probe` is the storage every probe batch's
    /// single key shares, if any; with the same `Int` or `Text` storage on
    /// the build key it selects a typed lookup.
    fn build(rkeys: &'a [Rc<Column>], equi: &[EquiKey], probe: Option<u8>) -> KeyTable<'a> {
        let n = rkeys[0].len();
        let mut ids = vec![NONE; n];
        if equi.len() > 1 {
            let mut map: HashMap<Vec<Value>, u32> = HashMap::with_capacity(n);
            let mut key = Vec::with_capacity(equi.len());
            for (j, id) in ids.iter_mut().enumerate() {
                if fill_row_key(rkeys, equi, j, &mut key) {
                    *id = match map.get(key.as_slice()) {
                        Some(&d) => d,
                        None => {
                            let fresh = map.len() as u32;
                            map.insert(key.clone(), fresh);
                            fresh
                        }
                    };
                }
            }
            let rows = Csr::new(&ids, map.len());
            return KeyTable {
                lookup: Lookup::Multi(map),
                rows,
                null_id: NONE,
            };
        }
        let key = &rkeys[0];
        let null_safe = equi[0].null_safe;
        // Fill the id of every non-NULL build row; `keys` counts the ids.
        let (keys, lookup) = match key.data() {
            ColumnData::Int(v) if probe == Some(page_tag::INT) => {
                let valid = || v.iter().enumerate().filter(|&(j, _)| !key.is_null(j));
                let min = valid().map(|(_, &k)| k).min().unwrap_or(0);
                let max = valid().map(|(_, &k)| k).max().unwrap_or(0);
                // `abs_diff` spans `i64::MIN..=i64::MAX` without overflow.
                // Twice the build rows keeps the id table within 8 bytes a
                // row. Measured on 2 vCPU over 50 000 build rows, direct
                // addressing runs 3.6× faster than hashing there and stays
                // ahead up to about 20× the rows.
                let span = max.abs_diff(min);
                if span <= 2 * n as u64 {
                    for (j, &k) in valid() {
                        ids[j] = k.abs_diff(min) as u32;
                    }
                    let span = span + 1;
                    (span as usize, Lookup::Direct { min, span })
                } else {
                    let mut map: HashMap<i64, u32> = HashMap::with_capacity(n);
                    for (j, &k) in valid() {
                        let fresh = map.len() as u32;
                        ids[j] = *map.entry(k).or_insert(fresh);
                    }
                    (map.len(), Lookup::Int(map))
                }
            }
            ColumnData::Text { dict, codes } if probe == Some(page_tag::TEXT) => {
                let mut index: HashMap<&'a str, u32> = HashMap::new();
                // Build code → id, so each build string is hashed once.
                let mut memo = vec![NONE; dict.len()];
                for (j, &code) in codes.iter().enumerate() {
                    if key.is_null(j) {
                        continue;
                    }
                    let slot = &mut memo[code as usize];
                    if *slot == NONE {
                        let fresh = index.len() as u32;
                        *slot = *index.entry(dict.get(code)).or_insert(fresh);
                    }
                    ids[j] = *slot;
                }
                let keys = index.len();
                let memo = CodeMemo::default();
                (keys, Lookup::Text { index, memo })
            }
            _ => {
                // NULL is a key like any other here, kept when null-safe.
                let mut map: HashMap<Value, u32> = HashMap::with_capacity(n);
                for (j, id) in ids.iter_mut().enumerate() {
                    let v = key.get(j);
                    if v.is_null() && !null_safe {
                        continue;
                    }
                    let fresh = map.len() as u32;
                    *id = *map.entry(v).or_insert(fresh);
                }
                (map.len(), Lookup::Single(map))
            }
        };
        // A typed lookup files a null-safe key's NULL rows under one more id.
        let typed = !matches!(lookup, Lookup::Single(_));
        let null_id = if null_safe && typed {
            for (j, id) in ids.iter_mut().enumerate() {
                if key.is_null(j) {
                    *id = keys as u32;
                }
            }
            keys as u32
        } else {
            NONE
        };
        KeyTable {
            rows: Csr::new(&ids, keys + usize::from(null_id != NONE)),
            lookup,
            null_id,
        }
    }

    /// The build rows matching probe row `i` (`keys` are the probe batch's
    /// key columns), in build order.
    #[inline]
    fn probe(
        &mut self,
        keys: &[Rc<Column>],
        equi: &[EquiKey],
        i: usize,
        buf: &mut Vec<Value>,
    ) -> &[u32] {
        let id = match &mut self.lookup {
            Lookup::Direct { min, span } => match keys[0].data() {
                _ if keys[0].is_null(i) => self.null_id,
                // Exact for every `i64`: a key below `min` wraps to at
                // least `2^64 - (min - key)`, never below `span`.
                ColumnData::Int(v) => {
                    let d = v[i].wrapping_sub(*min) as u64;
                    if d < *span {
                        d as u32
                    } else {
                        NONE
                    }
                }
                _ => unreachable!("typed lookup chosen only for Int probe keys"),
            },
            Lookup::Int(ids) => match keys[0].data() {
                _ if keys[0].is_null(i) => self.null_id,
                ColumnData::Int(v) => ids.get(&v[i]).copied().unwrap_or(NONE),
                _ => unreachable!("typed lookup chosen only for Int probe keys"),
            },
            Lookup::Text { index, memo } => probe_text(index, self.null_id, memo, &keys[0], i),
            Lookup::Single(t) => {
                let v = keys[0].get(i);
                if v.is_null() && !equi[0].null_safe {
                    NONE
                } else {
                    t.get(&v).copied().unwrap_or(NONE)
                }
            }
            Lookup::Multi(t) => {
                if fill_row_key(keys, equi, i, buf) {
                    t.get(buf.as_slice()).copied().unwrap_or(NONE)
                } else {
                    NONE
                }
            }
        };
        if id == NONE {
            &[]
        } else {
            self.rows.rows(id)
        }
    }
}

/// The id of probe row `i` under a `Text` lookup: its code is resolved to
/// a build id once per probe dictionary. Kept out of line so the `Int`
/// probe loop stays small.
#[inline(never)]
fn probe_text(
    index: &HashMap<&str, u32>,
    null_id: u32,
    memo: &mut CodeMemo,
    key: &Column,
    i: usize,
) -> u32 {
    let ColumnData::Text { dict, codes } = key.data() else {
        unreachable!("text lookup chosen only for Text probe keys")
    };
    if key.is_null(i) {
        return null_id;
    }
    let slot = &mut memo.slots(dict)[codes[i] as usize];
    if *slot == UNRESOLVED {
        *slot = index.get(dict.get(codes[i])).copied().unwrap_or(MISSING);
    }
    if *slot == MISSING {
        NONE
    } else {
        *slot
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
            for &j in table.probe(keys, equi, i, &mut probe_key) {
                let j = j as usize;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(cells: &[Option<i64>]) -> Vec<Rc<Column>> {
        let values: Vec<Value> = cells
            .iter()
            .map(|c| c.map_or(Value::Null, Value::Int))
            .collect();
        vec![Rc::new(Column::from_values(&values))]
    }

    fn key(null_safe: bool) -> Vec<EquiKey> {
        vec![EquiKey {
            left: BExpr::Col(0),
            right: BExpr::Col(0),
            null_safe,
        }]
    }

    /// The build rows each probe key matches.
    fn matches(
        table: &mut KeyTable<'_>,
        probes: &[Option<i64>],
        equi: &[EquiKey],
    ) -> Vec<Vec<u32>> {
        let keys = ints(probes);
        let mut buf = Vec::new();
        (0..probes.len())
            .map(|i| table.probe(&keys, equi, i, &mut buf).to_vec())
            .collect()
    }

    #[test]
    fn dense_int_keys_are_addressed_directly_in_build_order() {
        let build = ints(&[Some(5), Some(3), None, Some(5), Some(4), Some(5)]);
        for null_safe in [false, true] {
            let equi = key(null_safe);
            let mut table = KeyTable::build(&build, &equi, Some(page_tag::INT));
            assert!(matches!(table.lookup, Lookup::Direct { min: 3, span: 3 }));
            let probes = [
                Some(5),
                Some(2),
                Some(6),
                None,
                Some(i64::MIN),
                Some(i64::MAX),
                Some(3),
            ];
            let nulls = if null_safe { vec![2] } else { vec![] };
            assert_eq!(
                matches(&mut table, &probes, &equi),
                vec![
                    vec![0, 3, 5],
                    vec![],
                    vec![],
                    nulls,
                    vec![],
                    vec![],
                    vec![1]
                ]
            );
        }
    }

    #[test]
    fn a_key_span_of_all_of_i64_is_hashed_without_overflow() {
        let build = ints(&[Some(i64::MAX), Some(i64::MIN), Some(0), Some(i64::MIN)]);
        let equi = key(false);
        let mut table = KeyTable::build(&build, &equi, Some(page_tag::INT));
        assert!(matches!(table.lookup, Lookup::Int(_)));
        let probes = [Some(i64::MIN), Some(i64::MAX), Some(1), None, Some(0)];
        assert_eq!(
            matches(&mut table, &probes, &equi),
            vec![vec![1, 3], vec![0], vec![], vec![], vec![2]]
        );
        // At the top of the range a direct table still answers exactly.
        let build = ints(&[Some(i64::MAX), Some(i64::MAX - 1)]);
        let mut table = KeyTable::build(&build, &equi, Some(page_tag::INT));
        assert!(matches!(table.lookup, Lookup::Direct { .. }));
        let probes = [Some(i64::MIN), Some(i64::MIN + 1), Some(i64::MAX), Some(-1)];
        assert_eq!(
            matches(&mut table, &probes, &equi),
            vec![vec![], vec![], vec![0], vec![]]
        );
    }

    #[test]
    fn duplicate_keys_keep_build_order_on_every_lookup() {
        let build = ints(&[Some(7000), Some(1), Some(7000), None, Some(1), Some(7000)]);
        let equi = key(true);
        // Hashed `Int`, then by value when the probe side is not `Int`.
        for probe in [Some(page_tag::INT), Some(page_tag::FLOAT)] {
            let mut table = KeyTable::build(&build, &equi, probe);
            let probes = [Some(7000), Some(1), None, Some(2)];
            assert_eq!(
                matches(&mut table, &probes, &equi),
                vec![vec![0, 2, 5], vec![1, 4], vec![3], vec![]]
            );
        }
    }
}
