//! Vectorized aggregation over dense group ids.
//!
//! Group keys and aggregate arguments are evaluated once per batch as whole
//! columns. One step per batch then maps every row to a `u32` group id —
//! ids are handed out in first-seen order, so id order is output order —
//! and each aggregate keeps one `Vec<Acc>` indexed by id. A global
//! aggregate is the one-group case: group 0 exists up front and no key is
//! ever hashed.
//!
//! Key columns stored as `Int`, `Text` or `Bool` in every batch are
//! grouped on their storage. Each maps its rows to column-local dense ids
//! ([`KeyColumn`]); one key column's ids are the group ids. A single `Int`
//! key whose span over the whole input fits [`SLOTS_PER_ROW`] slots a row
//! takes its ids from a table indexed by `key - min`; sparser keys hash.
//! [`Combine`]
//! folds several columns' ids into group ids through one dense table,
//! when every column's id count is bounded up front and the table is
//! small next to the input. Any other key (`Float`, list, generic or
//! scalar), or several keys without such a table, groups every key by its
//! materialized values.
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

use super::kernels::{eval_col, gather_chunk, Evaluated};
use super::{exec_node, CodeMemo, BATCH_ROWS, UNRESOLVED};
use crate::error::{Result, SqlError};
use crate::exec::{Acc, ExecContext, Row};
use crate::plan::{AggCall, AggFunc, BExpr, PlanNode};
use etypes::chunk::{Column, ColumnData, NullBitmap};
use etypes::value::float_cmp;
use etypes::{ColumnChunk, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

/// One non-empty input batch with its group keys and aggregate arguments
/// (`None` for `count(*)`) evaluated.
struct Batch {
    rows: usize,
    keys: Vec<Evaluated>,
    args: Vec<Option<Evaluated>>,
}

impl Batch {
    fn eval(
        chunk: &ColumnChunk,
        group_exprs: &[BExpr],
        aggs: &[AggCall],
        ctx: &ExecContext<'_>,
    ) -> Result<Batch> {
        let sel: Vec<usize> = (0..chunk.len()).collect();
        let keys = group_exprs
            .iter()
            .map(|g| eval_col(g, chunk, &sel, ctx))
            .collect::<Result<_>>()?;
        let args = aggs
            .iter()
            .map(|call| match &call.arg {
                Some(e) => eval_col(e, chunk, &sel, ctx).map(Some),
                None => Ok(None),
            })
            .collect::<Result<_>>()?;
        Ok(Batch {
            rows: chunk.len(),
            keys,
            args,
        })
    }

    /// Key `k` as a dense column.
    fn key(&self, k: usize) -> Option<&Column> {
        match &self.keys[k] {
            Evaluated::Col(c) => Some(c),
            Evaluated::Scalar(_) => None,
        }
    }
}

/// Register `value` as the next id of `values`.
fn push_value(values: &mut Vec<Value>, value: Value) -> u32 {
    values.push(value);
    (values.len() - 1) as u32
}

/// One key column's rows as column-local dense ids, handed out in
/// first-seen order, with NULL an id of its own.
struct KeyColumn {
    index: ColumnIndex,
    null_id: Option<u32>,
    /// The key value of each local id.
    values: Vec<Value>,
}

/// How a [`KeyColumn`] finds the id of a value, by the column's storage.
enum ColumnIndex {
    /// `Int` keys whose span over the whole input is at most
    /// [`SLOTS_PER_ROW`] slots a row: the id of `key` is in
    /// `slots[key - min]` ([`UNRESOLVED`] until the key is seen), with no
    /// hashing.
    Direct { min: i64, slots: Vec<u32> },
    /// Sparser `Int` keys.
    Int(HashMap<i64, u32>),
    /// Keyed by string; the memo maps each code of the batch's dictionary
    /// to its id, so each distinct string is hashed once per dictionary
    /// rather than once per row.
    Text {
        map: HashMap<String, u32>,
        memo: CodeMemo,
    },
    /// Indexed by the key itself.
    Bool([Option<u32>; 2]),
}

impl KeyColumn {
    /// The typed index for key `k` and a bound on its id count, when the
    /// key is a dense column with the same `Int` / `Text` / `Bool` storage
    /// in every batch. Only `Bool` (three ids with NULL) and a `Text`
    /// column whose batches share one dictionary (its strings and NULL)
    /// are bounded before their rows are seen.
    fn new(batches: &[Batch], k: usize) -> Option<(KeyColumn, Option<usize>)> {
        let first = batches.first()?.key(k)?.data();
        let mut same_dict = true;
        for b in batches {
            match (first, b.key(k)?.data()) {
                (ColumnData::Text { dict, .. }, ColumnData::Text { dict: d, .. }) => {
                    same_dict &= Rc::ptr_eq(dict, d)
                }
                (ColumnData::Int(_), ColumnData::Int(_))
                | (ColumnData::Bool(_), ColumnData::Bool(_)) => {}
                _ => return None,
            }
        }
        let (index, bound) = match first {
            ColumnData::Int(_) => (ColumnIndex::Int(HashMap::new()), None),
            ColumnData::Text { dict, .. } => (
                ColumnIndex::Text {
                    map: HashMap::new(),
                    memo: CodeMemo::default(),
                },
                same_dict.then(|| dict.len() + 1),
            ),
            ColumnData::Bool(_) => (ColumnIndex::Bool([None; 2]), Some(3)),
            _ => return None,
        };
        let column = KeyColumn {
            index,
            null_id: None,
            values: Vec::new(),
        };
        Some((column, bound))
    }

    /// Fill `ids` with the local id of each row of `col`, registering
    /// unseen values.
    fn assign(&mut self, col: &Column, ids: &mut Vec<u32>) {
        ids.clear();
        let KeyColumn {
            index,
            null_id,
            values,
        } = self;
        let nulls = col.nulls();
        let mut null = |values: &mut Vec<Value>| {
            *null_id.get_or_insert_with(|| push_value(values, Value::Null))
        };
        match (index, col.data()) {
            (ColumnIndex::Direct { min, slots }, ColumnData::Int(v)) => {
                let mut id = |k: i64, values: &mut Vec<Value>| {
                    // `min <= k`, and `k - min` indexes `slots` by construction.
                    let slot = &mut slots[k.abs_diff(*min) as usize];
                    if *slot == UNRESOLVED {
                        *slot = push_value(values, Value::Int(k));
                    }
                    *slot
                };
                if nulls.all_valid() {
                    ids.extend(v.iter().map(|&k| id(k, values)));
                } else {
                    ids.extend(v.iter().enumerate().map(|(i, &k)| {
                        if nulls.is_null(i) {
                            null(values)
                        } else {
                            id(k, values)
                        }
                    }));
                }
            }
            (ColumnIndex::Int(map), ColumnData::Int(v)) => {
                ids.extend(v.iter().enumerate().map(|(i, &k)| {
                    if nulls.is_null(i) {
                        null(values)
                    } else {
                        *map.entry(k)
                            .or_insert_with(|| push_value(values, Value::Int(k)))
                    }
                }));
            }
            (ColumnIndex::Text { map, memo }, ColumnData::Text { dict, codes }) => {
                let resolved = memo.slots(dict);
                ids.extend(codes.iter().enumerate().map(|(i, &code)| {
                    if nulls.is_null(i) {
                        return null(values);
                    }
                    let slot = &mut resolved[code as usize];
                    if *slot == UNRESOLVED {
                        let k = dict.get(code);
                        *slot = match map.get(k) {
                            Some(&id) => id,
                            None => {
                                let id = push_value(values, Value::text(k));
                                map.insert(k.to_string(), id);
                                id
                            }
                        };
                    }
                    *slot
                }));
            }
            (ColumnIndex::Bool(slots), ColumnData::Bool(v)) => {
                ids.extend(v.iter().enumerate().map(|(i, &k)| {
                    if nulls.is_null(i) {
                        null(values)
                    } else {
                        *slots[k as usize].get_or_insert_with(|| push_value(values, Value::Bool(k)))
                    }
                }));
            }
            _ => unreachable!("a typed index is chosen only when every batch has its storage"),
        }
    }
}

/// The most slots a dense id table ([`Combine`], or a direct `Int` key
/// index) allocates per input row, which keeps it within 16 bytes a row.
/// Measured on 2 vCPU over a shared 1 000-string dictionary and a
/// two-value key, the [`Combine`] table groups 1.8× faster than
/// [`GroupIndex::Values`] at this bound and about as fast at 1 000 slots a
/// row, so the bound is set by memory, not time.
const SLOTS_PER_ROW: usize = 4;

/// The index for a single `Int` key: direct when the span of its non-NULL
/// keys over every batch fits [`SLOTS_PER_ROW`] slots per input row (the
/// observed-span rule of the join's `Lookup::Direct`), hashed otherwise.
fn int_index(batches: &[Batch]) -> ColumnIndex {
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    let mut rows = 0usize;
    for b in batches {
        let col = b.key(0).expect("typed keys are columns");
        let ColumnData::Int(v) = col.data() else {
            unreachable!("every batch's key is Int storage")
        };
        rows += v.len();
        if col.nulls().all_valid() {
            for &x in v {
                min = min.min(x);
                max = max.max(x);
            }
        } else {
            for (i, &x) in v.iter().enumerate() {
                if !col.is_null(i) {
                    min = min.min(x);
                    max = max.max(x);
                }
            }
        }
    }
    if min > max {
        // Every key is NULL: nothing to address.
        (min, max) = (0, 0);
    }
    // `abs_diff` spans `i64::MIN..=i64::MAX` without overflow; the slot
    // count is `span + 1`.
    let cap = rows.saturating_mul(SLOTS_PER_ROW) as u64;
    let span = max.abs_diff(min);
    if span < cap {
        ColumnIndex::Direct {
            min,
            slots: vec![UNRESOLVED; span as usize + 1],
        }
    } else {
        ColumnIndex::Int(HashMap::new())
    }
}

/// Several key columns' local ids combined into group ids, handed out in
/// first-seen order of the whole key: a mixed-radix index — column `k`'s
/// id times `radix[k]` — into one table of group ids ([`UNRESOLVED`] for
/// keys not yet seen).
struct Combine {
    radix: Vec<u32>,
    slots: Vec<u32>,
}

impl Combine {
    /// The table for columns bounded by `bounds`, when every column is
    /// bounded and the product of the bounds is at most [`SLOTS_PER_ROW`]
    /// slots for each of the input's `rows`.
    fn new(bounds: &[Option<usize>], rows: usize) -> Option<Combine> {
        let cap = rows.saturating_mul(SLOTS_PER_ROW).min(UNRESOLVED as usize);
        let mut radix = Vec::with_capacity(bounds.len());
        let mut size = 1usize;
        for &bound in bounds {
            radix.push(size as u32);
            size = size.checked_mul(bound?).filter(|&s| s <= cap)?;
        }
        Some(Combine {
            radix,
            slots: vec![UNRESOLVED; size],
        })
    }

    /// Fill `ids` with the group id of each row from its columns' local
    /// ids `cols`. A row that starts a group appends its columns' ids to
    /// `keys` (one list per column, indexed by group id).
    fn assign(&mut self, cols: &[Vec<u32>], ids: &mut Vec<u32>, keys: &mut [Vec<u32>]) {
        let mut groups = keys[0].len() as u32;
        ids.clear();
        ids.extend_from_slice(&cols[0]);
        for (col, &r) in cols.iter().zip(&self.radix).skip(1) {
            for (s, &c) in ids.iter_mut().zip(col) {
                *s += c * r;
            }
        }
        for (i, s) in ids.iter_mut().enumerate() {
            let slot = &mut self.slots[*s as usize];
            if *slot == UNRESOLVED {
                *slot = groups;
                groups += 1;
                for (key, col) in keys.iter_mut().zip(cols) {
                    key.push(col[i]);
                }
            }
            *s = *slot;
        }
    }
}

/// The group table: distinct keys numbered densely in first-seen order.
struct GroupTable {
    groups: usize,
    index: GroupIndex,
}

enum GroupIndex {
    /// No GROUP BY: every row is group 0, present even over empty input
    /// (the row engine's one row of defaults).
    Global,
    /// One key on its storage: its local ids are the group ids.
    Column(KeyColumn),
    /// Several keys on their storage. `keys[k]` holds each group's local
    /// id in column `k`; `col_ids` are per-batch scratch.
    Columns {
        cols: Vec<KeyColumn>,
        combine: Combine,
        col_ids: Vec<Vec<u32>>,
        keys: Vec<Vec<u32>>,
    },
    /// Keyed by materialized values; `keys` holds each group's key.
    Values {
        map: HashMap<Row, u32>,
        keys: Vec<Row>,
    },
}

impl GroupTable {
    /// The table for this operator's input: on the key columns' storage
    /// when every key has one `Int` / `Text` / `Bool` storage in every
    /// batch and, for several keys, their ids fit a [`Combine`] table.
    fn new(n_keys: usize, batches: &[Batch]) -> GroupTable {
        let typed: Option<(Vec<KeyColumn>, Vec<Option<usize>>)> =
            (0..n_keys).map(|k| KeyColumn::new(batches, k)).collect();
        let rows = batches.iter().map(|b| b.rows).sum();
        let index = match typed {
            _ if n_keys == 0 => GroupIndex::Global,
            Some((mut cols, _)) if n_keys == 1 => {
                let mut col = cols.remove(0);
                if matches!(col.index, ColumnIndex::Int(_)) {
                    col.index = int_index(batches);
                }
                GroupIndex::Column(col)
            }
            typed => typed
                .and_then(|(cols, bounds)| {
                    Some(GroupIndex::Columns {
                        combine: Combine::new(&bounds, rows)?,
                        col_ids: vec![Vec::new(); n_keys],
                        keys: vec![Vec::new(); n_keys],
                        cols,
                    })
                })
                .unwrap_or_else(|| GroupIndex::Values {
                    map: HashMap::new(),
                    keys: Vec::new(),
                }),
        };
        let groups = usize::from(n_keys == 0);
        GroupTable { groups, index }
    }

    /// Fill `ids` with the group id of each of the batch's rows,
    /// registering unseen keys.
    fn assign(&mut self, batch: &Batch, ids: &mut Vec<u32>) {
        ids.clear();
        let key = |k: usize| batch.key(k).expect("typed keys are columns");
        match &mut self.index {
            GroupIndex::Global => ids.resize(batch.rows, 0),
            GroupIndex::Column(col) => {
                col.assign(key(0), ids);
                self.groups = col.values.len();
            }
            GroupIndex::Columns {
                cols,
                combine,
                col_ids,
                keys,
            } => {
                for (k, (col, out)) in cols.iter_mut().zip(col_ids.iter_mut()).enumerate() {
                    col.assign(key(k), out);
                }
                combine.assign(col_ids, ids, keys);
                self.groups = keys[0].len();
            }
            GroupIndex::Values { map, keys } => {
                let mut key: Row = Vec::with_capacity(batch.keys.len());
                for i in 0..batch.rows {
                    key.clear();
                    key.extend(batch.keys.iter().map(|k| k.get(i)));
                    ids.push(match map.get(key.as_slice()) {
                        Some(&id) => id,
                        None => {
                            let id = keys.len() as u32;
                            keys.push(key.clone());
                            map.insert(key.clone(), id);
                            id
                        }
                    });
                }
                self.groups = keys.len();
            }
        }
    }

    /// One output column per group key, in group id order.
    fn key_columns(self, n_keys: usize) -> Vec<Column> {
        match self.index {
            GroupIndex::Global => Vec::new(),
            GroupIndex::Column(col) => vec![Column::from_values(&col.values)],
            GroupIndex::Columns { cols, keys, .. } => cols
                .iter()
                .zip(&keys)
                .map(|(col, ids)| {
                    let cells: Vec<Value> = ids
                        .iter()
                        .map(|&id| col.values[id as usize].clone())
                        .collect();
                    Column::from_values(&cells)
                })
                .collect(),
            GroupIndex::Values { keys, .. } => {
                (0..n_keys).map(|k| Column::from_rows(&keys, k)).collect()
            }
        }
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
    let chunks = exec_node(input, ctx)?;

    // Evaluate every batch first: the key lookup is chosen from the storage
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

    let mut table = GroupTable::new(group_exprs.len(), &batches);
    let mut states: Vec<Slots> = aggs
        .iter()
        .map(|call| Slots::new(call, table.groups))
        .collect();
    let mut ids: Vec<u32> = Vec::new();
    for batch in &batches {
        table.assign(batch, &mut ids);
        for ((state, call), arg) in states.iter_mut().zip(aggs).zip(&batch.args) {
            state.resize(call, table.groups);
            state.fold(call, arg.as_ref(), &ids)?;
        }
    }
    if let Some(e) = eval_error {
        return Err(e);
    }

    // One column per group key, then one per aggregate, cut into batches.
    let groups = table.groups;
    let mut columns: Vec<Rc<Column>> = table
        .key_columns(group_exprs.len())
        .into_iter()
        .map(Rc::new)
        .collect();
    columns.extend(
        states
            .into_iter()
            .zip(aggs)
            .map(|(state, call)| Rc::new(state.finish(call, groups))),
    );
    let all = ColumnChunk::new(columns, groups);
    if groups <= BATCH_ROWS {
        return Ok(vec![all]);
    }
    Ok((0..groups)
        .step_by(BATCH_ROWS)
        .map(|start| {
            let window: Vec<usize> = (start..(start + BATCH_ROWS).min(groups)).collect();
            gather_chunk(&all, &window)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(cells: &[Value]) -> Rc<Column> {
        Rc::new(Column::from_values(cells))
    }

    fn texts(cells: &[Option<&str>]) -> Rc<Column> {
        column(
            &cells
                .iter()
                .map(|c| c.map_or(Value::Null, Value::text))
                .collect::<Vec<_>>(),
        )
    }

    fn batch(keys: &[&Rc<Column>]) -> Batch {
        Batch {
            rows: keys[0].len(),
            keys: keys.iter().map(|&c| Evaluated::Col(Rc::clone(c))).collect(),
            args: Vec::new(),
        }
    }

    /// The path a table takes, and every batch's group ids.
    fn group(batches: &[Batch]) -> (&'static str, Vec<Vec<u32>>) {
        let mut table = GroupTable::new(batches[0].keys.len(), batches);
        let path = match &table.index {
            GroupIndex::Global => "global",
            GroupIndex::Column(_) => "column",
            GroupIndex::Columns { .. } => "dense",
            GroupIndex::Values { .. } => "values",
        };
        let ids = batches
            .iter()
            .map(|b| {
                let mut ids = Vec::new();
                table.assign(b, &mut ids);
                ids
            })
            .collect();
        (path, ids)
    }

    /// The group ids of the value-keyed table, the reference for the
    /// typed paths.
    fn by_value(batches: &[Batch]) -> Vec<Vec<u32>> {
        let mut table = GroupTable {
            groups: 0,
            index: GroupIndex::Values {
                map: HashMap::new(),
                keys: Vec::new(),
            },
        };
        batches
            .iter()
            .map(|b| {
                let mut ids = Vec::new();
                table.assign(b, &mut ids);
                ids
            })
            .collect()
    }

    #[test]
    fn text_and_bool_keys_take_the_dense_composite_path() {
        // Two batches gathered from one column share its dictionary.
        let t = texts(&[Some("a"), None, Some("b"), Some("a"), Some("c"), None]);
        let u = texts(&[Some("x"), Some("x"), None, Some("y"), Some("x"), None]);
        let b = column(&[true, false, true, true, false, false].map(Value::Bool));
        // Each half twice, so even three keys' 36 slots fit 4 per row.
        let half = |c: &Rc<Column>, rows: [usize; 6]| Rc::new(c.gather(&rows));
        let (t1, t2) = (half(&t, [0, 1, 2, 0, 1, 2]), half(&t, [3, 4, 5, 3, 4, 5]));
        let (u1, u2) = (half(&u, [0, 1, 2, 0, 1, 2]), half(&u, [3, 4, 5, 3, 4, 5]));
        let (b1, b2) = (half(&b, [0, 1, 2, 0, 1, 2]), half(&b, [3, 4, 5, 3, 4, 5]));
        let text_text = [batch(&[&t1, &u1]), batch(&[&t2, &u2])];
        assert_eq!(group(&text_text), ("dense", by_value(&text_text)));
        let text_bool = [batch(&[&t1, &b1]), batch(&[&t2, &b2])];
        assert_eq!(group(&text_bool), ("dense", by_value(&text_bool)));
        let bool_text_text = [batch(&[&b1, &t1, &u1]), batch(&[&b2, &t2, &u2])];
        assert_eq!(group(&bool_text_text), ("dense", by_value(&bool_text_text)));
        // First-seen order: (a, x) (NULL, x) (b, NULL) (a, y) (c, x) (NULL, NULL).
        assert_eq!(
            group(&text_text).1,
            vec![vec![0, 1, 2, 0, 1, 2], vec![3, 4, 5, 3, 4, 5]]
        );
    }

    #[test]
    fn int_unshared_and_oversized_text_keys_group_by_value() {
        let i = column(&[Value::Int(3), Value::Null, Value::Int(3), Value::Int(-1)]);
        let t = texts(&[Some("a"), Some("a"), Some("a"), None]);
        let i2 = column(&[Value::Int(-1), Value::Int(8), Value::Null, Value::Int(3)]);
        let int_text = [batch(&[&i, &t]), batch(&[&i2, &t])];
        assert_eq!(group(&int_text).0, "values");
        // Each batch with a dictionary of its own bounds nothing up front.
        let t2 = texts(&[Some("a"), Some("b"), None, Some("b")]);
        let unshared = [batch(&[&t, &t]), batch(&[&t2, &t])];
        assert_eq!(group(&unshared).0, "values");
        // Four rows gathered from a 12-string dictionary would need
        // 13 × 4 slots, more than `SLOTS_PER_ROW` per row.
        let wide: Vec<String> = (0..12).map(|k| format!("s{k}")).collect();
        let wide = texts(&wide.iter().map(|w| Some(w.as_str())).collect::<Vec<_>>());
        let few = Rc::new(wide.gather(&[11, 0, 11, 5]));
        let small = texts(&[Some("x"), Some("y"), Some("x"), Some("z")]);
        let oversized = [batch(&[&few, &small])];
        assert_eq!(group(&oversized), ("values", vec![vec![0, 1, 0, 2]]));
        // One key column's ids are the group ids.
        assert_eq!(group(&[batch(&[&i])]), ("column", vec![vec![0, 1, 0, 2]]));
    }

    #[test]
    fn int_keys_are_addressed_directly_when_their_span_fits() {
        let ints = |cells: &[Option<i64>]| {
            column(
                &cells
                    .iter()
                    .map(|c| c.map_or(Value::Null, Value::Int))
                    .collect::<Vec<_>>(),
            )
        };
        let index = |batches: &[Batch]| match &GroupTable::new(1, batches).index {
            GroupIndex::Column(KeyColumn {
                index: ColumnIndex::Direct { .. },
                ..
            }) => "direct",
            GroupIndex::Column(KeyColumn {
                index: ColumnIndex::Int(_),
                ..
            }) => "hashed",
            _ => "other",
        };
        // Dense over two batches, with NULL and a key first seen late: the
        // span of 7 needs 8 slots, within 4 a row for 8 rows.
        let (a, b) = (
            ints(&[Some(4), None, Some(-3), Some(4)]),
            ints(&[Some(0), Some(-3), None, Some(3)]),
        );
        let dense = [batch(&[&a]), batch(&[&b])];
        assert_eq!(index(&dense), "direct");
        assert_eq!(group(&dense), ("column", by_value(&dense)));
        assert_eq!(group(&dense).1, vec![vec![0, 1, 2, 0], vec![3, 2, 1, 4]]);
        // Two rows allow 8 slots: a span of 7 fits, a span of 8 does not.
        let pair = |x, y| [batch(&[&ints(&[Some(x), Some(y)])])];
        assert_eq!(index(&pair(-7, 0)), "direct");
        assert_eq!(index(&pair(0, 8)), "hashed");
        assert_eq!(index(&pair(i64::MIN, i64::MIN + 1)), "direct");
        assert_eq!(index(&pair(i64::MAX - 1, i64::MAX)), "direct");
        let sparse = pair(0, i64::MAX);
        assert_eq!(index(&sparse), "hashed");
        assert_eq!(group(&sparse), ("column", vec![vec![0, 1]]));
        let extremes = pair(i64::MAX, i64::MIN);
        assert_eq!(index(&extremes), "hashed");
        assert_eq!(group(&extremes), ("column", vec![vec![0, 1]]));
        // An all-NULL column is generic storage: it groups by value.
        let nulls = [batch(&[&ints(&[None, None])])];
        assert_eq!(group(&nulls), ("values", vec![vec![0, 0]]));
    }

    #[test]
    fn float_and_scalar_keys_group_by_value() {
        let f = column(&[Value::Float(0.5), Value::Float(-0.0), Value::Null]);
        let t = texts(&[Some("a"), Some("b"), Some("a")]);
        assert_eq!(group(&[batch(&[&f, &t])]).0, "values");
        let scalar = Batch {
            rows: 3,
            keys: vec![
                Evaluated::Col(Rc::clone(&t)),
                Evaluated::Scalar(Value::Int(7)),
            ],
            args: Vec::new(),
        };
        assert_eq!(group(&[scalar]), ("values", vec![vec![0, 1, 0]]));
    }
}
