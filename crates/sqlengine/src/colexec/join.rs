//! Vectorized joins: a hash equi-join with the probe side streamed, and a
//! blocked nested loop for everything without an equi key.
//!
//! Both concatenate the build (right) side into one chunk — a pipeline
//! breaker there anyway — and keep the probe (left) side in its input
//! batches, emitting pairs in exactly the row engine's order: probe order,
//! then build order. The hash join indexes the build side once — each key
//! to a dense id through a [`KeyIndex`], each id's rows in one flat array —
//! and probes a batch at a time, one loop per key column filling the ids.
//! It emits at most one output chunk per probe batch, gathered by plain
//! indices (NULL padding only for an outer join's misses); unmatched build
//! rows of a right / full join follow as NULL-padded chunks at the end.
//! The nested loop (cross joins, inner joins whose condition has no equi
//! key) walks each probe batch × the build side in blocks of at most
//! [`BATCH_ROWS`] pairs and filters each block by the residual like a
//! WHERE.

use super::kernels::eval_col;
use super::keys::{KeyIndex, NONE};
use super::{concat_chunks, exec_node, filter_chunk, BATCH_ROWS};
use crate::error::{Result, SqlError};
use crate::exec::eval::{eval, truthy};
use crate::exec::ExecContext;
use crate::plan::{BExpr, EquiKey, JoinKind, PlanNode};
use etypes::chunk::Column;
use etypes::{ColumnChunk, Value};
use std::rc::Rc;

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

/// The build row of an outer-join miss, padded with NULLs.
const PAD: usize = usize::MAX;

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

/// The build side: its keys' ids in a [`KeyIndex`], whose sources read the
/// probe batches' key storage (`probes`) too, and each id's build rows in
/// a [`Csr`].
struct BuildTable {
    index: KeyIndex,
    rows: Csr,
}

impl BuildTable {
    fn new(keys: &[Rc<Column>], equi: &[EquiKey], probes: &[&[Rc<Column>]]) -> BuildTable {
        let mut index = KeyIndex::new(equi.len(), &[keys], probes);
        let mut ids = Vec::new();
        index.assign(keys, &mut ids);
        // A row with a NULL in a key that is not null-safe never matches
        // (as in `exec::join_key`), so it stays out of the table.
        for (key, _) in keys
            .iter()
            .zip(equi)
            .filter(|(key, k)| !k.null_safe && !key.nulls().all_valid())
        {
            for (i, id) in ids.iter_mut().enumerate() {
                if key.is_null(i) {
                    *id = NONE;
                }
            }
        }
        let rows = Csr::new(&ids, index.len());
        BuildTable { index, rows }
    }

    /// The build rows under key id `id`, in build order.
    #[inline]
    fn rows(&self, id: u32) -> &[u32] {
        if id == NONE {
            &[]
        } else {
            self.rows.rows(id)
        }
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
    // the key index's sources; an error there waits until the batches before it are
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
    let probe_keys: Vec<&[Rc<Column>]> = lkeys.iter().map(Vec::as_slice).collect();
    let mut table = BuildTable::new(&rkeys, equi, &probe_keys);

    let pads_right = matches!(kind, JoinKind::Left | JoinKind::Full);
    let keeps_right = matches!(kind, JoinKind::Right | JoinKind::Full);
    let mut out = Vec::with_capacity(probes.len() + 1);
    let mut right_matched = vec![false; rchunk.len()];
    let mut ids: Vec<u32> = Vec::new();
    // Output row k pairs probe row `lidx[k]` with build row `ridx[k]`
    // ([`PAD`] pads an outer-join miss).
    let mut lidx: Vec<usize> = Vec::new();
    let mut ridx: Vec<usize> = Vec::new();
    for (chunk, keys) in probes.iter().zip(&lkeys) {
        ctx.tick(chunk.len())?;
        // A key with a NULL where the key is not null-safe finds `NONE`, or
        // an id whose build rows all had that NULL and were left out.
        table.index.probe(keys, &mut ids);
        lidx.clear();
        ridx.clear();
        let mut padded = false;
        for (i, &id) in ids.iter().enumerate() {
            let mut any = false;
            for &j in table.rows(id) {
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
                if keeps_right {
                    right_matched[j] = true;
                }
                lidx.push(i);
                ridx.push(j);
            }
            if !any && pads_right {
                padded = true;
                lidx.push(i);
                ridx.push(PAD);
            }
        }
        if lidx.is_empty() {
            continue;
        }
        // Every probe row emitted exactly once (the key/foreign-key case):
        // the left columns pass through shared, like an all-true filter.
        let identity = lidx.len() == chunk.len() && lidx.iter().copied().eq(0..chunk.len());
        let mut cols = Vec::with_capacity(lwidth + rchunk.width());
        for c in chunk.columns() {
            cols.push(if identity {
                Rc::clone(c)
            } else {
                Rc::new(c.gather(&lidx))
            });
        }
        // Only an outer join's misses need NULL padding.
        let pad: Option<Vec<Option<usize>>> =
            padded.then(|| ridx.iter().map(|&j| (j != PAD).then_some(j)).collect());
        for c in rchunk.columns() {
            cols.push(Rc::new(match &pad {
                Some(pad) => c.gather_opt(pad),
                None => c.gather(&ridx),
            }));
        }
        out.push(ColumnChunk::new(cols, lidx.len()));
    }
    if let Some(e) = key_error {
        return Err(e);
    }

    if keeps_right {
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

    /// The build table over `build` when every probe batch has `probe`'s
    /// key storage, and its key index's path.
    fn build_table(
        build: &[Rc<Column>],
        equi: &[EquiKey],
        probe: &[Rc<Column>],
    ) -> (BuildTable, String) {
        let table = BuildTable::new(build, equi, &[probe]);
        let path = table.index.path();
        (table, path)
    }

    /// The build rows each probe key matches.
    fn matches(table: &mut BuildTable, probes: &[Option<i64>]) -> Vec<Vec<u32>> {
        let keys = ints(probes);
        let mut ids = Vec::new();
        table.index.probe(&keys, &mut ids);
        ids.iter().map(|&id| table.rows(id).to_vec()).collect()
    }

    #[test]
    fn dense_int_keys_are_addressed_directly_in_build_order() {
        let build = ints(&[Some(5), Some(3), None, Some(5), Some(4), Some(5)]);
        for null_safe in [false, true] {
            let equi = key(null_safe);
            let (mut table, path) = build_table(&build, &equi, &build);
            assert_eq!(path, "direct/one");
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
                matches(&mut table, &probes),
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
        let (mut table, path) = build_table(&build, &equi, &build);
        assert_eq!(path, "int/one");
        let probes = [Some(i64::MIN), Some(i64::MAX), Some(1), None, Some(0)];
        assert_eq!(
            matches(&mut table, &probes),
            vec![vec![1, 3], vec![0], vec![], vec![], vec![2]]
        );
        // At the top of the range a direct table still answers exactly.
        let build = ints(&[Some(i64::MAX), Some(i64::MAX - 1)]);
        let (mut table, path) = build_table(&build, &equi, &build);
        assert_eq!(path, "direct/one");
        let probes = [Some(i64::MIN), Some(i64::MIN + 1), Some(i64::MAX), Some(-1)];
        assert_eq!(
            matches(&mut table, &probes),
            vec![vec![], vec![], vec![0], vec![]]
        );
    }

    #[test]
    fn duplicate_keys_keep_build_order_on_every_lookup() {
        let build = ints(&[Some(7000), Some(1), Some(7000), None, Some(1), Some(7000)]);
        let equi = key(true);
        // Hashed `Int`, then by value when the probe side is not `Int`.
        let floats = vec![Rc::new(Column::from_values(&[Value::Float(1.0)]))];
        for (probe, want) in [(&build, "int/one"), (&floats, "value/one")] {
            let (mut table, path) = build_table(&build, &equi, probe);
            assert_eq!(path, want);
            let probes = [Some(7000), Some(1), None, Some(2)];
            assert_eq!(
                matches(&mut table, &probes),
                vec![vec![0, 2, 5], vec![1, 4], vec![3], vec![]]
            );
        }
    }
}
