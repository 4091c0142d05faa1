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
//! ([`KeyColumn`]); one key column's ids are the group ids. [`Combine`]
//! folds several columns' ids into group ids through one dense table,
//! when every column's id count is bounded up front and the table is
//! small next to the input. Any other key (`Float`, list, generic or
//! scalar), or several keys without such a table, groups every key by its
//! materialized values.
//!
//! [`Acc`] (shared with the row engine) stays the definition of aggregate
//! semantics. Arguments stored as `Int` / `Float` columns are folded by a
//! column-typed loop that updates the accumulator's payload in place for
//! the states `Acc::update` would leave type-unchanged (`count`, `avg`,
//! same-type `sum` / `min` / `max`) and hands every other state or
//! aggregate to `Acc::update` itself, so results are bit-identical —
//! float summation order within a group included.
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

/// The most slots [`Combine`] allocates per input row, which keeps its
/// table within 16 bytes a row. Measured on 2 vCPU over a shared
/// 1 000-string dictionary and a two-value key, the table groups 1.8×
/// faster than [`GroupIndex::Values`] at this bound and about as fast at
/// 1 000 slots a row, so the bound is set by memory, not time.
const SLOTS_PER_ROW: usize = 4;

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
            Some((mut cols, _)) if n_keys == 1 => GroupIndex::Column(cols.remove(0)),
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

/// A column element type whose accumulator states have an in-place update.
trait Num: Copy {
    fn value(self) -> Value;
    fn as_f64(self) -> f64;
    /// The payload of `v` when it holds this element type.
    fn slot(v: &mut Value) -> Option<&mut Self>;
    /// `Acc::Sum` on two values of this type.
    fn add(self, other: Self) -> Self;
    /// `Value::cmp` on two values of this type.
    fn value_cmp(self, other: Self) -> Ordering;
}

impl Num for i64 {
    fn value(self) -> Value {
        Value::Int(self)
    }
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn slot(v: &mut Value) -> Option<&mut i64> {
        match v {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }
    fn add(self, other: i64) -> i64 {
        self.wrapping_add(other)
    }
    fn value_cmp(self, other: i64) -> Ordering {
        self.cmp(&other)
    }
}

impl Num for f64 {
    fn value(self) -> Value {
        Value::Float(self)
    }
    fn as_f64(self) -> f64 {
        self
    }
    fn slot(v: &mut Value) -> Option<&mut f64> {
        match v {
            Value::Float(f) => Some(f),
            _ => None,
        }
    }
    fn add(self, other: f64) -> f64 {
        self + other
    }
    fn value_cmp(self, other: f64) -> Ordering {
        self.total_cmp(&other)
    }
}

/// Fold a typed argument column into its rows' accumulators.
fn accumulate_typed<T: Num>(
    accs: &mut [Acc],
    vals: &[T],
    nulls: &NullBitmap,
    ids: &[u32],
) -> Result<()> {
    let all_valid = nulls.all_valid();
    for (i, (&x, &g)) in vals.iter().zip(ids).enumerate() {
        let acc = &mut accs[g as usize];
        if !all_valid && nulls.is_null(i) {
            // Ignored by all but `array_agg`; `Acc` knows which.
            acc.update(Some(Value::Null))?;
            continue;
        }
        // In-place where `Acc::update` would keep the payload's type;
        // first values, Int→Float promotion and every other aggregate go
        // through `Acc::update`.
        let done = match acc {
            Acc::Count(n) => {
                *n += 1;
                true
            }
            Acc::Avg { sum, n } => {
                *sum += x.as_f64();
                *n += 1;
                true
            }
            Acc::Sum(Some(cur)) => T::slot(cur).map(|a| *a = a.add(x)).is_some(),
            Acc::Min(Some(cur)) => T::slot(cur)
                .map(|a| {
                    if x.value_cmp(*a) == Ordering::Less {
                        *a = x;
                    }
                })
                .is_some(),
            Acc::Max(Some(cur)) => T::slot(cur)
                .map(|a| {
                    if x.value_cmp(*a) == Ordering::Greater {
                        *a = x;
                    }
                })
                .is_some(),
            _ => false,
        };
        if !done {
            acc.update(Some(x.value()))?;
        }
    }
    Ok(())
}

/// Fold one aggregate's argument for a whole batch into `accs` (indexed by
/// group id; `ids[i]` is row `i`'s group).
fn accumulate(accs: &mut [Acc], arg: Option<&Evaluated>, ids: &[u32]) -> Result<()> {
    match arg {
        None => {
            for &g in ids {
                match &mut accs[g as usize] {
                    Acc::CountStar(n) => *n += 1,
                    other => other.update(None)?,
                }
            }
        }
        Some(Evaluated::Col(c)) => match c.data() {
            ColumnData::Int(v) => accumulate_typed(accs, v, c.nulls(), ids)?,
            ColumnData::Float(v) => accumulate_typed(accs, v, c.nulls(), ids)?,
            _ => {
                for (i, &g) in ids.iter().enumerate() {
                    accs[g as usize].update(Some(c.get(i)))?;
                }
            }
        },
        Some(Evaluated::Scalar(v)) => {
            for &g in ids {
                accs[g as usize].update(Some(v.clone()))?;
            }
        }
    }
    Ok(())
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
    fn add(&mut self, arg: Option<&Evaluated>, ids: &[u32], groups: usize) {
        self.members.resize_with(groups, Vec::new);
        let Some(arg) = arg else { return };
        for (i, &g) in ids.iter().enumerate() {
            self.members[g as usize].push((self.rows + i) as u32);
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

/// One aggregate's per-group state.
enum Slots {
    Accs(Vec<Acc>),
    List(ListAgg),
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
        .map(|call| match call.func {
            AggFunc::ArrayAgg => Slots::List(ListAgg::default()),
            _ => Slots::Accs((0..table.groups).map(|_| Acc::new(call)).collect()),
        })
        .collect();
    let mut ids: Vec<u32> = Vec::new();
    for batch in &batches {
        table.assign(batch, &mut ids);
        for ((state, call), arg) in states.iter_mut().zip(aggs).zip(&batch.args) {
            match state {
                Slots::Accs(slots) => {
                    slots.resize_with(table.groups, || Acc::new(call));
                    accumulate(slots, arg.as_ref(), &ids)?;
                }
                Slots::List(list) => list.add(arg.as_ref(), &ids, table.groups),
            }
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
    columns.extend(states.into_iter().map(|state| {
        Rc::new(match state {
            Slots::Accs(slots) => {
                let values: Vec<Value> = slots.into_iter().map(Acc::finish).collect();
                Column::from_values(&values)
            }
            Slots::List(list) => list.finish(groups),
        })
    }));
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
