//! Vectorized aggregation over dense group ids.
//!
//! Group keys and aggregate arguments are evaluated once per batch as whole
//! columns. One step per batch then maps every row to a `u32` group id —
//! ids are handed out in first-seen order, so id order is output order —
//! and each aggregate keeps its state per id. A global
//! aggregate is the one-group case: group 0 exists up front and no key is
//! ever hashed.
//!
//! The group ids come from a [`KeyIndex`] over every key column, and the
//! output key columns are gathered from the rows that opened each group.
//!
//! [`Acc`] (shared with the row engine) stays the definition of aggregate
//! semantics. `count(*)`, and `count` / `avg` / `sum` / `min` / `max` over
//! arguments stored as `Int` / `Float` columns, keep typed per-group lanes
//! ([`Slots`]) that one monomorphized loop over `(ids, values)` folds per
//! aggregate and batch, by `Acc::update`'s rules for those states. Any
//! other argument — a promotion from `Int` to `Float`, text, a scalar —
//! turns the lanes into one `Acc` per group for good, and `Acc::update`
//! folds the rest, so results are bit-identical: float summation order
//! within a group included.
//!
//! `array_agg` keeps each batch's argument column whole and records, per
//! group, the positions of its rows across them; the finished aggregate is
//! one gather into a list column, with no `Value` per element.
//!
//! A groupjoin: an aggregate straight over an inner hash join without a
//! residual, whose group keys are build-side columns and whose arguments
//! read probe-side columns only (a histogram restored through a key /
//! foreign-key join), builds no join output. Each build row gets its group
//! among the build rows once, from a [`KeyIndex`] over the build chunk;
//! each probe batch's pairs then name their groups through their build
//! rows, and its arguments, evaluated on the pairs' probe rows, fold into
//! them. Output groups are numbered as the pairs first reach them — probe
//! order, then build order — which is the order the join output would
//! open them in, so the result, float summation order included, is the
//! plain path's.

use super::join::{HashJoin, Pairs};
use super::kernels::{eval_col, gather_chunk, Evaluated};
use super::keys::{opened, KeyIndex, NONE};
use super::{account, concat_chunks, exec_node, BATCH_ROWS};
use crate::error::{Result, SqlError};
use crate::exec::{Acc, ExecContext};
use crate::plan::{AggCall, AggFunc, BExpr, JoinKind, PlanNode};
use etypes::chunk::{Column, ColumnData, NullBitmap};
use etypes::value::float_cmp;
use etypes::{ColumnChunk, Value};
use std::cmp::Ordering;
use std::rc::Rc;
use std::time::Instant;

/// One non-empty input batch with its group keys (as columns) and
/// aggregate arguments (`None` for `count(*)`) evaluated.
struct Batch {
    rows: usize,
    keys: Vec<Rc<Column>>,
    args: Vec<Option<Evaluated>>,
}

impl Batch {
    fn eval(
        chunk: &ColumnChunk,
        group_exprs: &[BExpr],
        aggs: &[AggCall],
        ctx: &ExecContext<'_>,
    ) -> Result<Batch> {
        let rows = chunk.len();
        let sel: Vec<usize> = (0..rows).collect();
        let keys = group_exprs
            .iter()
            .map(|g| Ok(eval_col(g, chunk, &sel, ctx)?.materialize(rows)))
            .collect::<Result<_>>()?;
        let args = aggs
            .iter()
            .map(|call| match &call.arg {
                Some(e) => eval_col(e, chunk, &sel, ctx).map(Some),
                None => Ok(None),
            })
            .collect::<Result<_>>()?;
        Ok(Batch { rows, keys, args })
    }
}

/// A column element type with typed `sum` / `min` / `max` / `avg` folds.
trait Num: Copy {
    /// The identity of `Acc::Sum`'s addition on this type, which an unseen
    /// group starts from: `0`, and `-0.0` for floats (`-0.0 + x` is `x`
    /// bit for bit, where `0.0 + -0.0` is `0.0`).
    const ZERO: Self;
    fn value(self) -> Value;
    fn as_f64(self) -> f64;
    /// `Acc::Sum` on two values of this type.
    fn add(self, other: Self) -> Self;
    /// `Value::cmp` on two values of this type is `Less`.
    fn less(self, other: Self) -> bool;
}

impl Num for i64 {
    const ZERO: i64 = 0;
    fn value(self) -> Value {
        Value::Int(self)
    }
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn add(self, other: i64) -> i64 {
        self.wrapping_add(other)
    }
    fn less(self, other: i64) -> bool {
        self < other
    }
}

impl Num for f64 {
    const ZERO: f64 = -0.0;
    fn value(self) -> Value {
        Value::Float(self)
    }
    fn as_f64(self) -> f64 {
        self
    }
    fn add(self, other: f64) -> f64 {
        self + other
    }
    fn less(self, other: f64) -> bool {
        float_cmp(self, other) == Ordering::Less
    }
}

/// `f(group, value)` for every non-NULL row, in row order.
#[inline]
fn each_valid<T: Copy>(ids: &[u32], vals: &[T], nulls: &NullBitmap, mut f: impl FnMut(usize, T)) {
    if nulls.all_valid() {
        for (&g, &x) in ids.iter().zip(vals) {
            f(g as usize, x);
        }
    } else {
        for (i, (&g, &x)) in ids.iter().zip(vals).enumerate() {
            if !nulls.is_null(i) {
                f(g as usize, x);
            }
        }
    }
}

/// The aggregates a [`Lane`] folds.
#[derive(Clone, Copy)]
enum Fold {
    Sum,
    Min,
    Max,
}

/// `sum` / `min` / `max` while every value folded so far has one type:
/// each group's value, and whether it has one (an unseen group is NULL).
struct Lane<T> {
    fold: Fold,
    vals: Vec<T>,
    seen: Vec<bool>,
}

impl<T: Num> Lane<T> {
    fn new(fold: Fold, groups: usize) -> Lane<T> {
        Lane {
            fold,
            vals: vec![T::ZERO; groups],
            seen: vec![false; groups],
        }
    }

    /// Fold a batch: one loop per aggregate, the rules of `Acc::update` for
    /// a value of the state's own type (first value, wrapping `Int` sum,
    /// float sum in row order, the first of equal extremes kept).
    fn fold(&mut self, ids: &[u32], vals: &[T], nulls: &NullBitmap) {
        let Lane {
            fold,
            vals: acc,
            seen,
        } = self;
        match fold {
            Fold::Sum => each_valid(ids, vals, nulls, |g, x| {
                acc[g] = acc[g].add(x);
                seen[g] = true;
            }),
            Fold::Min => each_valid(ids, vals, nulls, |g, x| {
                if !seen[g] || x.less(acc[g]) {
                    acc[g] = x;
                }
                seen[g] = true;
            }),
            Fold::Max => each_valid(ids, vals, nulls, |g, x| {
                if !seen[g] || acc[g].less(x) {
                    acc[g] = x;
                }
                seen[g] = true;
            }),
        }
    }

    /// The lane as the accumulators it stands for.
    fn accs(&self) -> Vec<Acc> {
        self.vals
            .iter()
            .zip(&self.seen)
            .map(|(&v, &seen)| {
                let v = seen.then(|| v.value());
                match self.fold {
                    Fold::Sum => Acc::Sum(v),
                    Fold::Min => Acc::Min(v),
                    Fold::Max => Acc::Max(v),
                }
            })
            .collect()
    }
}

/// `array_agg` per dense group id: the argument columns of every batch,
/// and per group the positions of its rows across them (NULL arguments
/// included, as `Acc::ArrayAgg` keeps them).
#[derive(Default)]
struct ListAgg {
    parts: Vec<Rc<Column>>,
    rows: usize,
    members: Vec<Vec<u32>>,
}

impl ListAgg {
    fn add(&mut self, arg: Option<&Evaluated>, ids: &[u32]) {
        let Some(arg) = arg else { return };
        for (i, &g) in ids.iter().enumerate() {
            let g = g as usize;
            if g >= self.members.len() {
                self.members.resize_with(g + 1, Vec::new);
            }
            self.members[g].push((self.rows + i) as u32);
        }
        self.rows += ids.len();
        self.parts.push(match arg {
            Evaluated::Col(c) => Rc::clone(c),
            Evaluated::Scalar(v) => Rc::new(Column::repeat(v, ids.len())),
        });
    }

    /// One list per group, NULL for a group that collected nothing.
    fn finish(mut self, groups: usize) -> Column {
        self.members.resize_with(groups, Vec::new);
        let parts: Vec<&Column> = self.parts.iter().map(Rc::as_ref).collect();
        let all = Column::concat(&parts);
        let mut offsets = Vec::with_capacity(groups + 1);
        offsets.push(0u32);
        let mut nulls = NullBitmap::new_valid(groups);
        let mut idx: Vec<usize> = Vec::with_capacity(self.rows);
        for (g, members) in self.members.iter().enumerate() {
            if members.is_empty() {
                nulls.set_null(g);
            }
            idx.extend(members.iter().map(|&m| m as usize));
            offsets.push(idx.len() as u32);
        }
        Column::list(offsets, nulls, Rc::new(all.gather(&idx)))
    }
}

/// One aggregate's per-group state. `count`, `avg`, `sum`, `min` and
/// `max` keep typed lanes that one loop per batch folds, for arguments
/// stored as `Int` / `Float` columns; any other argument turns the state
/// into one [`Acc`] per group for good, and `Acc::update` folds it from
/// there — `Int` to `Float` promotion included.
enum Slots {
    /// `count(*)` and `count(x)`: each group's count.
    Count(Vec<i64>),
    /// `avg(x)`: each group's running sum, in row order, and count.
    Avg(Vec<f64>, Vec<u64>),
    /// `sum` / `min` / `max` over `Int` values (the start, before any value).
    Ints(Lane<i64>),
    /// `sum` / `min` / `max` over `Float` values.
    Floats(Lane<f64>),
    /// Every other aggregate, and any of the above after a batch that does
    /// not fit its lane.
    Accs(Vec<Acc>),
    List(ListAgg),
}

impl Slots {
    fn new(call: &AggCall, groups: usize) -> Slots {
        let lane = |fold| Slots::Ints(Lane::new(fold, groups));
        match call.func {
            AggFunc::CountStar | AggFunc::Count { distinct: false } => {
                Slots::Count(vec![0; groups])
            }
            AggFunc::Avg => Slots::Avg(vec![0.0; groups], vec![0; groups]),
            AggFunc::Sum => lane(Fold::Sum),
            AggFunc::Min => lane(Fold::Min),
            AggFunc::Max => lane(Fold::Max),
            AggFunc::ArrayAgg => Slots::List(ListAgg::default()),
            _ => Slots::Accs((0..groups).map(|_| Acc::new(call)).collect()),
        }
    }

    /// Grow to `groups` groups (new groups have seen nothing).
    fn resize(&mut self, call: &AggCall, groups: usize) {
        match self {
            Slots::Count(n) => n.resize(groups, 0),
            Slots::Avg(sum, n) => {
                sum.resize(groups, 0.0);
                n.resize(groups, 0);
            }
            Slots::Ints(lane) => {
                lane.vals.resize(groups, i64::ZERO);
                lane.seen.resize(groups, false);
            }
            Slots::Floats(lane) => {
                lane.vals.resize(groups, f64::ZERO);
                lane.seen.resize(groups, false);
            }
            Slots::Accs(accs) => accs.resize_with(groups, || Acc::new(call)),
            Slots::List(_) => {}
        }
    }

    /// The state as one [`Acc`] per group, from now on.
    fn accs(&mut self, call: &AggCall) -> &mut Vec<Acc> {
        let accs = match self {
            Slots::Accs(accs) => return accs,
            Slots::Count(n) => n
                .iter()
                .map(|&n| match call.func {
                    AggFunc::CountStar => Acc::CountStar(n),
                    _ => Acc::Count(n),
                })
                .collect(),
            Slots::Avg(sum, n) => sum
                .iter()
                .zip(n.iter())
                .map(|(&sum, &n)| Acc::Avg { sum, n })
                .collect(),
            Slots::Ints(lane) => lane.accs(),
            Slots::Floats(lane) => lane.accs(),
            Slots::List(_) => unreachable!("array_agg keeps its rows"),
        };
        *self = Slots::Accs(accs);
        match self {
            Slots::Accs(accs) => accs,
            _ => unreachable!("just set"),
        }
    }

    /// Fold one batch's argument (`None` for `count(*)`) into the groups
    /// `ids` name.
    fn fold(&mut self, call: &AggCall, arg: Option<&Evaluated>, ids: &[u32]) -> Result<()> {
        let column = match arg {
            Some(Evaluated::Col(c)) => Some(c.as_ref()),
            _ => None,
        };
        let all_null = match arg {
            Some(Evaluated::Col(c)) => c.nulls().null_count() == c.len(),
            Some(Evaluated::Scalar(v)) => v.is_null(),
            None => false,
        };
        match self {
            Slots::List(list) => {
                list.add(arg, ids);
                return Ok(());
            }
            Slots::Accs(_) => {}
            // NULL changes no count, sum, average or extreme.
            _ if all_null => return Ok(()),
            Slots::Count(n) => match column.map(|c| (c.data(), c.nulls())) {
                // `count(*)`, or `count` of a non-NULL scalar.
                None => {
                    for &g in ids {
                        n[g as usize] += 1;
                    }
                    return Ok(());
                }
                Some((ColumnData::Int(_) | ColumnData::Float(_), nulls)) => {
                    for (i, &g) in ids.iter().enumerate() {
                        n[g as usize] += i64::from(!nulls.is_null(i));
                    }
                    return Ok(());
                }
                Some(_) => {}
            },
            Slots::Avg(sum, n) => {
                let mut add = |g: usize, x: f64| {
                    sum[g] += x;
                    n[g] += 1;
                };
                match column.map(|c| (c.data(), c.nulls())) {
                    Some((ColumnData::Int(v), nulls)) => {
                        each_valid(ids, v, nulls, |g, x| add(g, x.as_f64()));
                        return Ok(());
                    }
                    Some((ColumnData::Float(v), nulls)) => {
                        each_valid(ids, v, nulls, add);
                        return Ok(());
                    }
                    _ => {}
                }
            }
            Slots::Ints(lane) => match column.map(|c| (c.data(), c.nulls())) {
                Some((ColumnData::Int(v), nulls)) => {
                    lane.fold(ids, v, nulls);
                    return Ok(());
                }
                // Nothing seen yet: the lane takes the batch's type.
                Some((ColumnData::Float(v), nulls)) if !lane.seen.contains(&true) => {
                    let mut floats = Lane::new(lane.fold, lane.vals.len());
                    floats.fold(ids, v, nulls);
                    *self = Slots::Floats(floats);
                    return Ok(());
                }
                _ => {}
            },
            Slots::Floats(lane) => match column.map(|c| (c.data(), c.nulls())) {
                Some((ColumnData::Float(v), nulls)) => {
                    lane.fold(ids, v, nulls);
                    return Ok(());
                }
                Some((ColumnData::Int(v), nulls)) if !lane.seen.contains(&true) => {
                    let mut ints = Lane::new(lane.fold, lane.vals.len());
                    ints.fold(ids, v, nulls);
                    *self = Slots::Ints(ints);
                    return Ok(());
                }
                _ => {}
            },
        }
        self.fold_rows(call, arg, ids)
    }

    /// Everything the typed lanes do not fold: row by row through
    /// `Acc::update`.
    fn fold_rows(&mut self, call: &AggCall, arg: Option<&Evaluated>, ids: &[u32]) -> Result<()> {
        let accs = self.accs(call);
        match arg {
            None => {
                for &g in ids {
                    accs[g as usize].update(None)?;
                }
            }
            Some(Evaluated::Col(c)) => {
                for (i, &g) in ids.iter().enumerate() {
                    accs[g as usize].update(Some(c.get(i)))?;
                }
            }
            Some(Evaluated::Scalar(v)) => {
                for &g in ids {
                    accs[g as usize].update(Some(v.clone()))?;
                }
            }
        }
        Ok(())
    }

    /// One value per group, through `Acc::finish`.
    fn finish(mut self, call: &AggCall, groups: usize) -> Column {
        if let Slots::List(list) = self {
            return list.finish(groups);
        }
        self.resize(call, groups);
        let values: Vec<Value> = std::mem::take(self.accs(call))
            .into_iter()
            .map(Acc::finish)
            .collect();
        Column::from_values(&values)
    }
}

pub(super) fn exec_aggregate(
    input: &PlanNode,
    group_exprs: &[BExpr],
    aggs: &[AggCall],
    ctx: &ExecContext<'_>,
) -> Result<Vec<ColumnChunk>> {
    if let Some(keys) = groupjoin_keys(input, group_exprs, aggs) {
        return groupjoin(input, &keys, aggs, ctx);
    }
    let chunks = exec_node(input, ctx)?;

    // Evaluate every batch first: the key index is chosen from the storage
    // of all of them. An evaluation error waits until the batches before it
    // are folded, so an earlier accumulator error still wins as it does
    // when the row engine interleaves the two.
    let mut batches = Vec::with_capacity(chunks.len());
    let mut eval_error: Option<SqlError> = None;
    for chunk in chunks.iter().filter(|c| !c.is_empty()) {
        match Batch::eval(chunk, group_exprs, aggs, ctx) {
            Ok(batch) => batches.push(batch),
            Err(e) => {
                eval_error = Some(e);
                break;
            }
        }
    }

    // No GROUP BY: every row is group 0, present even over empty input
    // (the row engine's one row of defaults).
    let n_keys = group_exprs.len();
    let keys: Vec<&[Rc<Column>]> = batches.iter().map(|b| b.keys.as_slice()).collect();
    let mut index = (n_keys > 0).then(|| KeyIndex::new(n_keys, &keys, &[]));
    let mut groups = usize::from(index.is_none());
    // Per key, the batch's key column at the rows that opened a group.
    let mut firsts: Vec<Vec<Column>> = vec![Vec::new(); n_keys];
    let mut states: Vec<Slots> = aggs.iter().map(|call| Slots::new(call, groups)).collect();
    let mut ids: Vec<u32> = Vec::new();
    for batch in &batches {
        match &mut index {
            None => {
                ids.clear();
                ids.resize(batch.rows, 0);
            }
            Some(index) => {
                index.assign(&batch.keys, &mut ids);
                if index.len() > groups {
                    let rows = opened(&ids, groups);
                    for (first, key) in firsts.iter_mut().zip(&batch.keys) {
                        first.push(key.gather(&rows));
                    }
                    groups = index.len();
                }
            }
        }
        for ((state, call), arg) in states.iter_mut().zip(aggs).zip(&batch.args) {
            state.resize(call, groups);
            state.fold(call, arg.as_ref(), &ids)?;
        }
    }
    if let Some(e) = eval_error {
        return Err(e);
    }

    Ok(output(&firsts, states, aggs, groups))
}

/// One column per group key (each key's columns at the rows that opened a
/// group, in group order), then one per aggregate, cut into batches.
fn output(
    firsts: &[Vec<Column>],
    states: Vec<Slots>,
    aggs: &[AggCall],
    groups: usize,
) -> Vec<ColumnChunk> {
    let mut columns: Vec<Rc<Column>> = firsts
        .iter()
        .map(|parts| Rc::new(Column::concat(&parts.iter().collect::<Vec<_>>())))
        .collect();
    columns.extend(
        states
            .into_iter()
            .zip(aggs)
            .map(|(state, call)| Rc::new(state.finish(call, groups))),
    );
    let all = ColumnChunk::new(columns, groups);
    if groups <= BATCH_ROWS {
        return vec![all];
    }
    (0..groups)
        .step_by(BATCH_ROWS)
        .map(|start| {
            let window: Vec<usize> = (start..(start + BATCH_ROWS).min(groups)).collect();
            gather_chunk(&all, &window)
        })
        .collect()
}

/// The build-side columns a grouped aggregate over `input` groups by when
/// it runs as a groupjoin: `input` is an inner hash join without a
/// residual, every group key is a build-side column, and every argument
/// reads probe-side columns only.
pub(super) fn groupjoin_keys(
    input: &PlanNode,
    group_exprs: &[BExpr],
    aggs: &[AggCall],
) -> Option<Vec<usize>> {
    let PlanNode::Join {
        left,
        kind: JoinKind::Inner,
        equi,
        residual: None,
        ..
    } = input
    else {
        return None;
    };
    if equi.is_empty() || group_exprs.is_empty() {
        return None;
    }
    let probe_width = left.schema().len();
    let keys = group_exprs
        .iter()
        .map(|g| match g {
            BExpr::Col(c) if *c >= probe_width => Some(c - probe_width),
            _ => None,
        })
        .collect::<Option<Vec<usize>>>()?;
    let mut read = Vec::new();
    for arg in aggs.iter().filter_map(|call| call.arg.as_ref()) {
        arg.columns_used(&mut read);
    }
    read.iter().all(|&c| c < probe_width).then_some(keys)
}

/// Run `join` and fold its pairs into groups of the build-side columns
/// `keys`, with no join output. The join node is counted and profiled with
/// the rows and batches it would have emitted on its own.
fn groupjoin(
    join: &PlanNode,
    keys: &[usize],
    aggs: &[AggCall],
    ctx: &ExecContext<'_>,
) -> Result<Vec<ColumnChunk>> {
    let PlanNode::Join {
        left, right, equi, ..
    } = join
    else {
        unreachable!("groupjoin_keys took a join")
    };
    let timer = ctx.profiling().then(Instant::now);
    let probes = exec_node(left, ctx)?;
    let mut hash = HashJoin::new(probes, concat_chunks(&exec_node(right, ctx)?), equi, ctx)?;
    // A probe key's error ends the join before the aggregate sees a row.
    hash.key_error()?;

    // Each build row's group among the build rows, and each such group's
    // output group once a pair reaches it.
    let key_cols: Vec<Rc<Column>> = keys
        .iter()
        .map(|&c| Rc::clone(hash.build.column(c)))
        .collect();
    let mut index = KeyIndex::new(keys.len(), &[&key_cols], &[]);
    let mut local = Vec::new();
    index.assign(&key_cols, &mut local);
    let mut number = vec![NONE; index.len()];
    let mut groups = 0;
    // The build row that opened each output group.
    let mut opened: Vec<usize> = Vec::new();
    let mut states: Vec<Slots> = aggs.iter().map(|call| Slots::new(call, groups)).collect();
    let (mut rows, mut batches) = (0, 0);
    let (mut ids, mut every): (Vec<u32>, Vec<usize>) = (Vec::new(), Vec::new());
    hash.probe(JoinKind::Inner, None, ctx, |chunk, pairs| {
        rows += pairs.build.len();
        batches += 1;
        let args = probe_args(chunk, pairs, aggs, &mut every, ctx)?;
        ids.clear();
        ids.extend(pairs.build.iter().map(|&j| {
            let group = &mut number[local[j] as usize];
            if *group == NONE {
                *group = groups as u32;
                groups += 1;
                opened.push(j);
            }
            *group
        }));
        for ((state, call), arg) in states.iter_mut().zip(aggs).zip(&args) {
            state.resize(call, groups);
            state.fold(call, arg.as_ref(), &ids)?;
        }
        Ok(())
    })?;
    // The bare join's output: one batch per probe batch with a pair, and
    // one empty batch when there is none.
    account(join, rows, batches.max(1), timer, ctx)?;

    let firsts: Vec<Vec<Column>> = key_cols.iter().map(|c| vec![c.gather(&opened)]).collect();
    Ok(output(&firsts, states, aggs, groups))
}

/// The aggregate arguments (`None` for `count(*)`) over the probe rows of
/// `pairs`. Repeated probe rows are gathered first: `eval_col` takes a
/// selection as strictly increasing, and one of the batch's length as the
/// whole batch. `every` keeps `0..n` from batch to batch.
fn probe_args(
    chunk: &ColumnChunk,
    pairs: &Pairs,
    aggs: &[AggCall],
    every: &mut Vec<usize>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Option<Evaluated>>> {
    let n = pairs.build.len().max(chunk.len());
    every.extend(every.len()..n);
    let gathered;
    let (chunk, sel) = match pairs.probe_rows() {
        None => (chunk, &every[..chunk.len()]),
        Some(rows) if !pairs.repeats => (chunk, rows),
        Some(rows) => {
            gathered = gather_chunk(chunk, rows);
            (&gathered, &every[..rows.len()])
        }
    };
    aggs.iter()
        .map(|call| {
            call.arg
                .as_ref()
                .map(|e| eval_col(e, chunk, sel, ctx))
                .transpose()
        })
        .collect()
}
