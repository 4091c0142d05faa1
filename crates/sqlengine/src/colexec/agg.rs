//! Vectorized aggregation over dense group ids.
//!
//! Group keys and aggregate arguments are evaluated once per batch as whole
//! columns. One step per batch then maps every row to a `u32` group id —
//! ids are handed out in first-seen order, so id order is output order —
//! and each aggregate keeps one `Vec<Acc>` indexed by id. A global
//! aggregate is the one-group case: group 0 exists up front and no key is
//! ever hashed.
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
//! group, the positions of its rows; the finished aggregate is one gather
//! into a list column, with no `Value` per element.

use super::kernels::{eval_col, gather_chunk, Evaluated};
use super::{exec_node, BATCH_ROWS};
use crate::error::{Result, SqlError};
use crate::exec::{Acc, ExecContext, Row};
use crate::plan::{AggCall, AggFunc, BExpr, PlanNode};
use etypes::chunk::{page_tag, Column, ColumnData, NullBitmap, TextDict};
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

    /// The storage tag of a single dense key column.
    fn key_tag(&self) -> Option<u8> {
        match self.keys.as_slice() {
            [Evaluated::Col(c)] => Some(c.data().tag()),
            _ => None,
        }
    }
}

/// How keys are looked up: typed on the storage of a single key column, or
/// by materialized values for every other shape.
enum KeyIndex {
    Int(HashMap<i64, u32>),
    /// Keyed by string; `memo` maps the codes of the dictionary the last
    /// batch used to group ids, so each distinct string is hashed once per
    /// dictionary rather than once per row.
    Text {
        map: HashMap<String, u32>,
        memo: Option<(Rc<TextDict>, Vec<u32>)>,
    },
    /// Indexed by the key itself.
    Bool([Option<u32>; 2]),
    Values(HashMap<Vec<Value>, u32>),
}

/// The group table: distinct keys numbered densely in first-seen order.
struct GroupTable {
    index: KeyIndex,
    /// The NULL key's id under a typed index (NULL is its own group).
    null_id: Option<u32>,
    /// Each group's key values, by id.
    keys: Vec<Row>,
}

/// A dictionary code not yet mapped to a group.
const UNRESOLVED: u32 = u32::MAX;

/// Register `key` as the next group.
fn new_group(keys: &mut Vec<Row>, key: Row) -> u32 {
    keys.push(key);
    (keys.len() - 1) as u32
}

impl GroupTable {
    /// The table for this operator's input: typed when the single key is a
    /// dense column with the same `Int` / `Text` / `Bool` storage in every
    /// batch.
    fn new(n_keys: usize, batches: &[Batch]) -> GroupTable {
        let tag = batches.first().and_then(Batch::key_tag);
        let uniform = batches.iter().all(|b| b.key_tag() == tag);
        let index = match tag {
            Some(page_tag::INT) if uniform => KeyIndex::Int(HashMap::new()),
            Some(page_tag::TEXT) if uniform => KeyIndex::Text {
                map: HashMap::new(),
                memo: None,
            },
            Some(page_tag::BOOL) if uniform => KeyIndex::Bool([None; 2]),
            _ => KeyIndex::Values(HashMap::new()),
        };
        GroupTable {
            index,
            null_id: None,
            // Without GROUP BY everything is group 0, present even over
            // empty input (the row engine's one row of defaults).
            keys: if n_keys == 0 {
                vec![Vec::new()]
            } else {
                Vec::new()
            },
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Fill `ids` with the group id of each of the batch's rows,
    /// registering unseen keys.
    fn assign(&mut self, batch: &Batch, ids: &mut Vec<u32>) {
        ids.clear();
        if batch.keys.is_empty() {
            ids.resize(batch.rows, 0);
            return;
        }
        let GroupTable {
            index,
            null_id,
            keys,
        } = self;
        let typed = match &batch.keys[0] {
            Evaluated::Col(c) => Some((c.data(), c.nulls())),
            Evaluated::Scalar(_) => None,
        };
        let mut null_group = |keys: &mut Vec<Row>| {
            *null_id.get_or_insert_with(|| new_group(keys, vec![Value::Null]))
        };
        match (index, typed) {
            (KeyIndex::Int(map), Some((ColumnData::Int(v), nulls))) => {
                ids.extend(v.iter().enumerate().map(|(i, &k)| {
                    if nulls.is_null(i) {
                        null_group(keys)
                    } else {
                        *map.entry(k)
                            .or_insert_with(|| new_group(keys, vec![Value::Int(k)]))
                    }
                }));
            }
            (KeyIndex::Text { map, memo }, Some((ColumnData::Text { dict, codes }, nulls))) => {
                if !memo.as_ref().is_some_and(|(d, _)| Rc::ptr_eq(d, dict)) {
                    *memo = Some((Rc::clone(dict), vec![UNRESOLVED; dict.len()]));
                }
                let resolved = &mut memo.as_mut().expect("memo just set").1;
                ids.extend(codes.iter().enumerate().map(|(i, &code)| {
                    if nulls.is_null(i) {
                        return null_group(keys);
                    }
                    let slot = &mut resolved[code as usize];
                    if *slot == UNRESOLVED {
                        let k = dict.get(code);
                        *slot = match map.get(k) {
                            Some(&id) => id,
                            None => {
                                let id = new_group(keys, vec![Value::text(k)]);
                                map.insert(k.to_string(), id);
                                id
                            }
                        };
                    }
                    *slot
                }));
            }
            (KeyIndex::Bool(slots), Some((ColumnData::Bool(v), nulls))) => {
                ids.extend(v.iter().enumerate().map(|(i, &k)| {
                    if nulls.is_null(i) {
                        null_group(keys)
                    } else {
                        *slots[k as usize]
                            .get_or_insert_with(|| new_group(keys, vec![Value::Bool(k)]))
                    }
                }));
            }
            (KeyIndex::Values(map), _) => {
                let mut key: Row = Vec::with_capacity(batch.keys.len());
                for i in 0..batch.rows {
                    key.clear();
                    key.extend(batch.keys.iter().map(|k| k.get(i)));
                    ids.push(match map.get(key.as_slice()) {
                        Some(&id) => id,
                        None => {
                            let id = new_group(keys, key.clone());
                            map.insert(key.clone(), id);
                            id
                        }
                    });
                }
            }
            _ => unreachable!("a typed index is chosen only when every batch has its storage"),
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
            _ => Slots::Accs((0..table.len()).map(|_| Acc::new(call)).collect()),
        })
        .collect();
    let mut ids: Vec<u32> = Vec::new();
    for batch in &batches {
        table.assign(batch, &mut ids);
        for ((state, call), arg) in states.iter_mut().zip(aggs).zip(&batch.args) {
            match state {
                Slots::Accs(slots) => {
                    slots.resize_with(table.len(), || Acc::new(call));
                    accumulate(slots, arg.as_ref(), &ids)?;
                }
                Slots::List(list) => list.add(arg.as_ref(), &ids, table.len()),
            }
        }
    }
    if let Some(e) = eval_error {
        return Err(e);
    }

    // One column per group key, then one per aggregate, cut into batches.
    let groups = table.len();
    let mut columns: Vec<Rc<Column>> = (0..group_exprs.len())
        .map(|k| Rc::new(Column::from_rows(&table.keys, k)))
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
