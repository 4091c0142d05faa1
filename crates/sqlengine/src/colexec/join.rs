//! Vectorized joins: a hash equi-join with the probe side streamed, and a
//! blocked nested loop for everything without an equi key.
//!
//! Both concatenate the build (right) side into one chunk — a pipeline
//! breaker there anyway — and keep the probe (left) side in its input
//! batches, emitting pairs in exactly the row engine's order: probe order,
//! then build order. The hash join indexes the build side once — each key
//! to a dense id through a [`KeyIndex`], then each id's one row when no key
//! repeats (one lookup per probe row), else each id's rows in one flat
//! array — and probes a batch at a time, one loop per key column filling
//! the ids. [`HashJoin::probe`] turns each batch's ids into (probe row,
//! build row) pairs. The plain join gathers them into at most one output
//! chunk per probe batch (NULL padding only for an outer join's misses);
//! unmatched build rows of a right / full join follow as NULL-padded
//! chunks at the end. An aggregate's groupjoin folds them instead.
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

/// The build rows of each key id.
enum Rows {
    /// No id has more than one build row (a key/foreign-key join): id
    /// `d`'s row is `row[d]`, [`NONE`] for an id whose rows were all left
    /// out.
    Unique(Vec<u32>),
    /// Some id has several, walked in build order.
    Many(Csr),
}

/// Each id's one build row, or `None` once an id has two.
fn unique_rows(ids: &[u32], keys: usize) -> Option<Vec<u32>> {
    let mut row = vec![NONE; keys];
    for (j, &d) in ids.iter().enumerate().filter(|&(_, &d)| d != NONE) {
        let slot = &mut row[d as usize];
        if *slot != NONE {
            return None;
        }
        *slot = j as u32;
    }
    Some(row)
}

/// The build side: its keys' ids in a [`KeyIndex`], whose sources read the
/// probe batches' key storage (`probes`) too, and each id's build rows.
struct BuildTable {
    index: KeyIndex,
    rows: Rows,
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
        let rows = match unique_rows(&ids, index.len()) {
            Some(row) => Rows::Unique(row),
            None => Rows::Many(Csr::new(&ids, index.len())),
        };
        BuildTable { index, rows }
    }

    /// The build rows under key id `id`, in build order.
    #[inline]
    fn rows(&self, id: u32) -> &[u32] {
        match &self.rows {
            _ if id == NONE => &[],
            Rows::Unique(row) => {
                let j = &row[id as usize];
                if *j == NONE {
                    &[]
                } else {
                    std::slice::from_ref(j)
                }
            }
            Rows::Many(csr) => csr.rows(id),
        }
    }
}

/// One probe batch's output rows: probe row `probe[k]` beside build row
/// `build[k]` ([`PAD`] pads an outer join's miss), in probe order, then
/// build order.
#[derive(Default)]
pub(super) struct Pairs {
    /// Empty when every probe row is paired exactly once, in order.
    probe: Vec<usize>,
    pub(super) build: Vec<usize>,
    /// Some probe row has more than one pair.
    pub(super) repeats: bool,
    /// Some pair is a [`PAD`].
    padded: bool,
}

impl Pairs {
    /// Each pair's probe row: `None` when they are the whole batch in order,
    /// and strictly increasing unless `repeats`.
    pub(super) fn probe_rows(&self) -> Option<&[usize]> {
        (!self.probe.is_empty()).then_some(self.probe.as_slice())
    }

    fn clear(&mut self) {
        self.probe.clear();
        self.build.clear();
        self.repeats = false;
        self.padded = false;
    }
}

/// A hash equi-join with both inputs run, every probe batch's keys
/// evaluated and the build side indexed: what the plain join and an
/// aggregate's groupjoin share. [`HashJoin::probe`] yields each probe
/// batch's pairs; the plain join gathers them, the groupjoin folds them.
pub(super) struct HashJoin {
    /// The non-empty probe batches whose keys evaluated, each with its keys.
    probes: Vec<(ColumnChunk, Vec<Rc<Column>>)>,
    /// The error of the probe batch after the last one in `probes`.
    key_error: Option<SqlError>,
    /// The build side, one chunk.
    pub(super) build: ColumnChunk,
    table: BuildTable,
}

impl HashJoin {
    /// Index `build` on its `equi` keys, probed by `probes` (left).
    pub(super) fn new(
        probes: Vec<ColumnChunk>,
        build: ColumnChunk,
        equi: &[EquiKey],
        ctx: &ExecContext<'_>,
    ) -> Result<HashJoin> {
        // Probe keys are evaluated for every batch up front because their
        // storage picks the key index's sources; an error there waits until
        // the batches before it are probed, so an earlier residual error
        // still wins as it does when the row engine evaluates key and
        // residual row by row.
        let rkeys = key_columns(equi.iter().map(|k| &k.right), &build, ctx)?;
        let mut keyed = Vec::with_capacity(probes.len());
        let mut key_error = None;
        for chunk in probes.into_iter().filter(|c| !c.is_empty()) {
            match key_columns(equi.iter().map(|k| &k.left), &chunk, ctx) {
                Ok(keys) => keyed.push((chunk, keys)),
                Err(e) => {
                    key_error = Some(e);
                    break;
                }
            }
        }
        let probe_keys: Vec<&[Rc<Column>]> = keyed.iter().map(|(_, k)| k.as_slice()).collect();
        let table = BuildTable::new(&rkeys, equi, &probe_keys);
        Ok(HashJoin {
            probes: keyed,
            key_error,
            build,
            table,
        })
    }

    /// The error a probe batch's keys raised, which the join answers once
    /// the batches before it are probed.
    pub(super) fn key_error(&mut self) -> Result<()> {
        self.key_error.take().map_or(Ok(()), Err)
    }

    /// Call `each` with every probe batch that has an output row and its
    /// pairs, in probe order; then answer which build rows matched (only
    /// kept for a right or full join, else empty).
    pub(super) fn probe(
        &mut self,
        kind: JoinKind,
        residual: Option<&BExpr>,
        ctx: &ExecContext<'_>,
        mut each: impl FnMut(&ColumnChunk, &Pairs) -> Result<()>,
    ) -> Result<Vec<bool>> {
        let pads = matches!(kind, JoinKind::Left | JoinKind::Full);
        let keeps_right = matches!(kind, JoinKind::Right | JoinKind::Full);
        let mut matched = vec![false; if keeps_right { self.build.len() } else { 0 }];
        let mut ids: Vec<u32> = Vec::new();
        let mut pairs = Pairs::default();
        for (chunk, keys) in &self.probes {
            ctx.tick(chunk.len())?;
            // A key with a NULL where the key is not null-safe finds `NONE`,
            // or an id whose build rows all had that NULL and were left out.
            self.table.index.probe(keys, &mut ids);
            pairs.clear();
            match &self.table.rows {
                Rows::Unique(row) if residual.is_none() => {
                    unique_pairs(&ids, row, pads, &mut pairs)
                }
                _ => self.walk_pairs(&ids, chunk, residual, pads, ctx, &mut pairs)?,
            }
            if pairs.build.is_empty() {
                continue;
            }
            if keeps_right {
                for &j in pairs.build.iter().filter(|&&j| j != PAD) {
                    matched[j] = true;
                }
            }
            each(chunk, &pairs)?;
        }
        self.key_error()?;
        Ok(matched)
    }

    /// The pairs of a probe batch walked row by row: every build row under the
    /// probe row's key that passes the residual, in build order; a probe row
    /// with none is padded when `pads`.
    fn walk_pairs(
        &self,
        ids: &[u32],
        chunk: &ColumnChunk,
        residual: Option<&BExpr>,
        pads: bool,
        ctx: &ExecContext<'_>,
        pairs: &mut Pairs,
    ) -> Result<()> {
        for (i, &id) in ids.iter().enumerate() {
            let before = pairs.build.len();
            for &j in self.table.rows(id) {
                let j = j as usize;
                if let Some(res) = residual {
                    // Residuals see the combined row; defer to the row
                    // evaluator on a materialized pair (rare path).
                    let mut row = chunk.get_row(i);
                    row.extend(self.build.get_row(j));
                    if !truthy(&eval(res, &row, ctx)?) {
                        continue;
                    }
                }
                pairs.probe.push(i);
                pairs.build.push(j);
            }
            match pairs.build.len() - before {
                0 if pads => {
                    pairs.padded = true;
                    pairs.probe.push(i);
                    pairs.build.push(PAD);
                }
                0 | 1 => {}
                _ => pairs.repeats = true,
            }
        }
        if pairs.probe.len() == chunk.len() && !pairs.repeats {
            // Every probe row paired once (the key/foreign-key case).
            pairs.probe.clear();
        }
        Ok(())
    }
}

/// The pairs of a probe batch against unique build keys, one lookup per
/// probe row: a miss is dropped, or padded when `pads`.
fn unique_pairs(ids: &[u32], row: &[u32], pads: bool, pairs: &mut Pairs) {
    let mut misses = 0;
    pairs.build.extend(ids.iter().map(|&id| {
        let j = if id == NONE { NONE } else { row[id as usize] };
        if j == NONE {
            misses += 1;
            PAD
        } else {
            j as usize
        }
    }));
    if misses == 0 || pads {
        // Every probe row once, in order.
        pairs.padded = misses > 0;
    } else {
        pairs.probe.extend(
            pairs
                .build
                .iter()
                .enumerate()
                .filter(|&(_, &j)| j != PAD)
                .map(|(i, _)| i),
        );
        pairs.build.retain(|&j| j != PAD);
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
    // Build on right, probe with left (same as the row engine).
    let lwidth = lchunks[0].width();
    let mut join = HashJoin::new(lchunks, rchunk, equi, ctx)?;
    let build = join.build.clone();
    let mut out = Vec::new();
    let matched = join.probe(kind, residual, ctx, |chunk, pairs| {
        let mut cols = Vec::with_capacity(lwidth + build.width());
        match pairs.probe_rows() {
            // Every probe row once: the left columns pass through shared,
            // like an all-true filter.
            None => cols.extend(chunk.columns().iter().cloned()),
            Some(rows) => cols.extend(chunk.columns().iter().map(|c| Rc::new(c.gather(rows)))),
        }
        // Only an outer join's misses need NULL padding.
        let pad: Option<Vec<Option<usize>>> = pairs.padded.then(|| {
            pairs
                .build
                .iter()
                .map(|&j| (j != PAD).then_some(j))
                .collect()
        });
        for c in build.columns() {
            cols.push(Rc::new(match &pad {
                Some(pad) => c.gather_opt(pad),
                None => c.gather(&pairs.build),
            }));
        }
        out.push(ColumnChunk::new(cols, pairs.build.len()));
        Ok(())
    })?;

    if matches!(kind, JoinKind::Right | JoinKind::Full) {
        let unmatched: Vec<usize> = (0..build.len()).filter(|&j| !matched[j]).collect();
        for window in unmatched.chunks(BATCH_ROWS) {
            let pad = Rc::new(Column::from_values(&vec![Value::Null; window.len()]));
            let mut cols = vec![pad; lwidth];
            for c in build.columns() {
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
impl BuildTable {
    /// How a probe row finds its build rows: `unique` or `walk`.
    fn lookup(&self) -> &'static str {
        match self.rows {
            Rows::Unique(_) => "unique",
            Rows::Many(_) => "walk",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::agg::groupjoin_keys;
    use super::*;
    use crate::engine::Engine;
    use crate::parser::parse_statement;
    use crate::profile::EngineProfile;

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

    #[test]
    fn unique_build_keys_take_one_lookup_and_duplicates_walk() {
        let unique = ints(&[Some(5), None, Some(3), None, Some(4)]);
        // Build rows with a NULL key stay out unless the key is null-safe,
        // so two of them keep the keys unique; null-safe, they share an id.
        for (null_safe, lookup) in [(false, "unique"), (true, "walk")] {
            let equi = key(null_safe);
            let (mut table, _) = build_table(&unique, &equi, &unique);
            assert_eq!(table.lookup(), lookup, "null-safe {null_safe}");
            let nulls = if null_safe { vec![1, 3] } else { vec![] };
            assert_eq!(
                matches(&mut table, &[Some(4), None, Some(6), Some(5)]),
                vec![vec![4], nulls, vec![], vec![0]]
            );
        }
        let twice = ints(&[Some(5), Some(3), Some(5)]);
        let (table, _) = build_table(&twice, &key(false), &twice);
        assert_eq!(table.lookup(), "walk");
        // An empty build side is unique: every probe row misses.
        let empty = ints(&[]);
        let (mut table, _) = build_table(&empty, &key(false), &twice);
        assert_eq!(table.lookup(), "unique");
        assert_eq!(matches(&mut table, &[Some(5), None]), vec![vec![]; 2]);
    }

    #[test]
    fn a_unique_lookup_shares_the_probe_rows_unless_an_inner_join_drops_one() {
        // Build rows 2, 0 and 1 under ids 0, 1 and 2; id 3 lost its row.
        let row = [2, 0, 1, NONE];
        let ids = [1, 0, 2, 1];
        let mut pairs = Pairs::default();
        unique_pairs(&ids, &row, false, &mut pairs);
        assert_eq!(
            (pairs.probe_rows(), &pairs.build[..]),
            (None, &[0, 2, 1, 0][..])
        );
        for pads in [false, true] {
            let mut pairs = Pairs::default();
            unique_pairs(&[NONE, 0, 3, 2], &row, pads, &mut pairs);
            assert!(!pairs.repeats);
            if pads {
                assert_eq!(pairs.probe_rows(), None);
                assert_eq!(pairs.build, [PAD, 2, PAD, 1]);
                assert!(pairs.padded);
            } else {
                assert_eq!(pairs.probe_rows(), Some(&[1, 3][..]));
                assert_eq!(pairs.build, [2, 1]);
            }
        }
    }

    /// Whether the aggregate of `sql`, over `f(a, g)` and `d(g, label)`,
    /// runs as a groupjoin.
    fn groupjoin(sql: &str) -> bool {
        let mut e = Engine::new(EngineProfile::in_memory());
        e.execute("CREATE TABLE f (a int, g int)").unwrap();
        e.execute("CREATE TABLE d (g int, label text)").unwrap();
        let crate::ast::Statement::Select(query) = parse_statement(sql).unwrap() else {
            panic!("{sql} is a SELECT")
        };
        let (mut root, _) = crate::binder::bind_select(e.catalog(), e.profile(), &query).unwrap();
        crate::optimizer::optimize(&mut root);
        let mut node = &root.body;
        loop {
            match node {
                PlanNode::Project { input, .. }
                | PlanNode::Sort { input, .. }
                | PlanNode::Filter { input, .. } => node = input,
                PlanNode::Aggregate {
                    input,
                    group_exprs,
                    aggs,
                    ..
                } => return groupjoin_keys(input, group_exprs, aggs).is_some(),
                other => panic!("{sql}: no aggregate above {other:?}"),
            }
        }
    }

    #[test]
    fn the_groupjoin_takes_build_side_keys_with_probe_side_arguments() {
        for sql in [
            "SELECT d.label, count(*), sum(f.a) FROM f INNER JOIN d ON f.g = d.g GROUP BY d.label",
            "SELECT d.label, d.g, avg(f.a * 2) FROM f JOIN d ON f.g = d.g GROUP BY d.label, d.g",
            "SELECT d.label, count(*) FROM f JOIN d ON f.g = d.g WHERE f.a > 3 GROUP BY d.label \
             ORDER BY d.label",
        ] {
            assert!(groupjoin(sql), "{sql}");
        }
        for sql in [
            // A probe-side key.
            "SELECT f.a, count(*) FROM f JOIN d ON f.g = d.g GROUP BY f.a",
            // A build-side argument.
            "SELECT d.label, sum(d.g) FROM f JOIN d ON f.g = d.g GROUP BY d.label",
            "SELECT d.label, sum(f.a + d.g) FROM f JOIN d ON f.g = d.g GROUP BY d.label",
            // No group key: a global aggregate over the join.
            "SELECT count(*), max(f.a) FROM f JOIN d ON f.g = d.g",
            // An expression key.
            "SELECT d.g + 1, count(*) FROM f JOIN d ON f.g = d.g GROUP BY d.g + 1",
            // A residual.
            "SELECT d.label, count(*) FROM f JOIN d ON f.g = d.g AND f.a < d.g GROUP BY d.label",
            // Outer joins.
            "SELECT d.label, count(*) FROM f LEFT JOIN d ON f.g = d.g GROUP BY d.label",
            "SELECT d.label, count(*) FROM f RIGHT JOIN d ON f.g = d.g GROUP BY d.label",
            "SELECT d.label, count(*) FROM f FULL JOIN d ON f.g = d.g GROUP BY d.label",
            // No equi key: the nested loop.
            "SELECT d.label, count(*) FROM f JOIN d ON f.g < d.g GROUP BY d.label",
        ] {
            assert!(!groupjoin(sql), "{sql}");
        }
    }
}
