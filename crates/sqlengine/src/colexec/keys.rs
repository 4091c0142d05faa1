//! Key ids: one index from key columns to dense `u32` ids, shared by
//! `GROUP BY`, `DISTINCT` and both sides of the hash join.
//!
//! Ids are handed out in first-seen order, so id order is the order in
//! which keys first appear: a group's output position, the row `DISTINCT`
//! keeps. The index picks one id source per key column, once per operator,
//! from the column's storage in every batch it will see (both sides, for a
//! join):
//!
//! * `Int`: addressed directly — the id of `k` sits in a slot table at
//!   `k - min` — when the span of the keys it assigns is below
//!   [`SLOTS_PER_ROW`] slots per assigned row; hashed otherwise.
//! * `Text`: a string map consulted once per dictionary code
//!   ([`CodeMemo`]).
//! * `Bool`: two slots.
//! * Anything else — `Float`, list or generic storage, or storage that
//!   changes between batches or differs between the two sides of a join —
//!   is keyed by `Value`, so `Int = Float` matches, `-0.0 = 0.0` and NaN
//!   equals NaN, as in the reference.
//!
//! NULL is an id of its own in every column. A batch whose key column is
//! all NULL (generic storage, whatever the column's type) takes no part
//! in picking the source: its rows all get the NULL id under any source.
//! One column's ids are the key
//! ids. Several columns combine through one mixed-radix table when every
//! column bounds its ids before any row is seen (`Bool` by 3, `Text` whose
//! batches share one dictionary by its size plus one, a direct `Int` by
//! its slots plus one) and the table fits the same cap; otherwise through
//! one map over the tuples of column ids.
//!
//! [`KeyIndex::assign`] gives a key it has not seen the next id;
//! [`KeyIndex::probe`] only looks keys up, and answers [`NONE`] for one it
//! has not seen.

use etypes::chunk::{Column, ColumnData, NullBitmap, TextDict};
use etypes::Value;
use std::collections::HashMap;
use std::rc::Rc;

/// No id: a probed key the index has not seen, or a slot not given one yet.
pub(super) const NONE: u32 = u32::MAX - 1;

/// A dictionary code a [`CodeMemo`] has not resolved yet.
const UNRESOLVED: u32 = u32::MAX;

/// The most slots a dense id table (a direct `Int` column, or the
/// mixed-radix table of several columns) allocates per assigned row, which
/// keeps it within 16 bytes a row. Measured on 2 vCPU at this bound, the
/// mixed-radix table groups 1.8× faster than grouping by value, and a
/// direct `Int` join key builds and probes 8.9× faster than a hashed one
/// (EXPERIMENTS.md, "Path thresholds"), so the bound is set by memory.
const SLOTS_PER_ROW: usize = 4;

/// One answer per code of the last text dictionary a column saw: each code
/// is resolved once, and the memo starts over when a batch brings another
/// dictionary.
#[derive(Default)]
struct CodeMemo(Option<(Rc<TextDict>, Vec<u32>)>);

impl CodeMemo {
    /// The per-code slots for `dict`, [`UNRESOLVED`] until filled.
    fn slots(&mut self, dict: &Rc<TextDict>) -> &mut [u32] {
        if !self.0.as_ref().is_some_and(|(d, _)| Rc::ptr_eq(d, dict)) {
            self.0 = Some((Rc::clone(dict), vec![UNRESOLVED; dict.len()]));
        }
        &mut self.0.as_mut().expect("memo just set").1
    }
}

/// Where one key column's non-NULL ids come from.
enum Source {
    /// `Int` keys from `min` on: the id of `k` is in `slots[k - min]`.
    Direct {
        min: i64,
        slots: Vec<u32>,
    },
    Int(HashMap<i64, u32>),
    /// Keyed by string, each code of the batch's dictionary resolved once.
    Text {
        map: HashMap<String, u32>,
        memo: CodeMemo,
    },
    /// Indexed by the key itself.
    Bool([u32; 2]),
    Value(HashMap<Value, u32>),
}

/// One key column's ids, in first-seen order.
struct KeyColumn {
    source: Source,
    /// The id of NULL, [`NONE`] until a NULL is assigned one.
    null: u32,
    /// Ids handed out so far.
    len: u32,
}

/// The next id.
#[inline]
fn fresh(len: &mut u32) -> u32 {
    *len += 1;
    *len - 1
}

/// The id in `slot`; with `ADD`, an empty slot takes the next id.
#[inline]
fn slot_id<const ADD: bool>(slot: &mut u32, len: &mut u32) -> u32 {
    if ADD && *slot == NONE {
        *slot = fresh(len);
    }
    *slot
}

/// Extend `out` with `f(key, len)` per row, and the NULL id for a NULL row.
#[inline]
fn fill<const ADD: bool, T>(
    out: &mut Vec<u32>,
    keys: impl Iterator<Item = T>,
    nulls: &NullBitmap,
    null: &mut u32,
    len: &mut u32,
    mut f: impl FnMut(T, &mut u32) -> u32,
) {
    if nulls.all_valid() {
        out.extend(keys.map(|k| f(k, len)));
    } else {
        out.extend(keys.enumerate().map(|(i, k)| {
            if nulls.is_null(i) {
                slot_id::<ADD>(null, len)
            } else {
                f(k, len)
            }
        }));
    }
}

impl KeyColumn {
    /// The source of key column `k` and a bound on its ids (NULL's
    /// included) when one is known before any row is seen. The storage of
    /// every batch with a non-NULL key, `assigned` and `probed`, picks the
    /// source;
    /// only `assigned` rows are given ids, so they alone set an `Int` span
    /// and a `Text` bound.
    fn new(
        k: usize,
        assigned: &[&[Rc<Column>]],
        probed: &[&[Rc<Column>]],
        cap: usize,
    ) -> (KeyColumn, Option<usize>) {
        let mut all = rows_of(assigned, k).chain(rows_of(probed, k));
        let first = all.next().map(|c| c.data());
        let tag = first.map(ColumnData::tag);
        let same = all.all(|c| Some(c.data().tag()) == tag);
        let (source, bound) = match first {
            Some(ColumnData::Int(_)) if same => int_source(assigned, k, cap),
            Some(ColumnData::Text { dict, .. }) if same => {
                let shared = rows_of(assigned, k).all(
                    |c| matches!(c.data(), ColumnData::Text { dict: d, .. } if Rc::ptr_eq(d, dict)),
                );
                let text = Source::Text {
                    map: HashMap::new(),
                    memo: CodeMemo::default(),
                };
                (text, shared.then(|| dict.len() + 1))
            }
            Some(ColumnData::Bool(_)) if same => (Source::Bool([NONE; 2]), Some(3)),
            _ => (Source::Value(HashMap::new()), None),
        };
        let column = KeyColumn {
            source,
            null: NONE,
            len: 0,
        };
        (column, bound)
    }

    /// Fill `out` with the id of each row of `col`; with `ADD`, a key not
    /// seen before takes the next id, without it [`NONE`].
    fn ids<const ADD: bool>(&mut self, col: &Column, out: &mut Vec<u32>) {
        out.clear();
        let KeyColumn { source, null, len } = self;
        let nulls = col.nulls();
        match (source, col.data()) {
            // An empty or all-NULL batch's storage picked nothing.
            _ if col.is_empty() => {}
            _ if nulls.null_count() == col.len() => {
                let id = slot_id::<ADD>(null, len);
                out.resize(col.len(), id);
            }
            (Source::Direct { min, slots }, ColumnData::Int(v)) => {
                let min = *min;
                fill::<ADD, _>(out, v.iter().copied(), nulls, null, len, |k, len| {
                    // Exact for every `i64`: a key below `min` wraps past
                    // the table.
                    match slots.get_mut(k.wrapping_sub(min) as u64 as usize) {
                        Some(slot) => slot_id::<ADD>(slot, len),
                        None => NONE,
                    }
                });
            }
            (Source::Int(map), ColumnData::Int(v)) => {
                fill::<ADD, _>(out, v.iter().copied(), nulls, null, len, |k, len| {
                    if ADD {
                        *map.entry(k).or_insert_with(|| fresh(len))
                    } else {
                        map.get(&k).copied().unwrap_or(NONE)
                    }
                });
            }
            (Source::Text { map, memo }, ColumnData::Text { dict, codes }) => {
                let resolved = memo.slots(dict);
                fill::<ADD, _>(out, codes.iter().copied(), nulls, null, len, |code, len| {
                    let slot = &mut resolved[code as usize];
                    // A probe may have left `NONE` for a string an
                    // assignment now adds.
                    if *slot == UNRESOLVED || (ADD && *slot == NONE) {
                        *slot = text_id::<ADD>(map, dict.get(code), len);
                    }
                    *slot
                });
            }
            (Source::Bool(slots), ColumnData::Bool(v)) => {
                fill::<ADD, _>(out, v.iter().copied(), nulls, null, len, |k, len| {
                    slot_id::<ADD>(&mut slots[usize::from(k)], len)
                });
            }
            (Source::Value(map), _) => {
                let cells = (0..col.len()).map(|i| col.get(i));
                fill::<ADD, _>(out, cells, nulls, null, len, |v, len| {
                    if ADD {
                        *map.entry(v).or_insert_with(|| fresh(len))
                    } else {
                        map.get(&v).copied().unwrap_or(NONE)
                    }
                });
            }
            _ => unreachable!("a typed source is chosen only when every batch has its storage"),
        }
    }
}

/// The id of string `k`, once per dictionary code.
#[cold]
fn text_id<const ADD: bool>(map: &mut HashMap<String, u32>, k: &str, len: &mut u32) -> u32 {
    match map.get(k) {
        Some(&id) => id,
        None if ADD => {
            let id = fresh(len);
            map.insert(k.to_owned(), id);
            id
        }
        None => NONE,
    }
}

/// Key column `k` of every batch that has a non-NULL key.
fn rows_of<'a>(batches: &'a [&[Rc<Column>]], k: usize) -> impl Iterator<Item = &'a Column> {
    batches
        .iter()
        .map(move |keys| keys[k].as_ref())
        .filter(|c| c.nulls().null_count() < c.len())
}

/// The source of `Int` key column `k`: direct when the span of its
/// non-NULL assigned keys is below `cap` slots, hashed otherwise.
fn int_source(assigned: &[&[Rc<Column>]], k: usize, cap: usize) -> (Source, Option<usize>) {
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    for col in rows_of(assigned, k) {
        let ColumnData::Int(v) = col.data() else {
            unreachable!("every batch's key is Int storage")
        };
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
        // No key to address.
        (min, max) = (0, 0);
    }
    // `abs_diff` spans `i64::MIN..=i64::MAX` without overflow; the table
    // holds `span + 1` slots.
    let span = max.abs_diff(min);
    if span < cap as u64 {
        let slots = span as usize + 1;
        let direct = Source::Direct {
            min,
            slots: vec![NONE; slots],
        };
        (direct, Some(slots + 1))
    } else {
        (Source::Int(HashMap::new()), None)
    }
}

/// How several columns' ids make one key id.
enum Combine {
    /// One column: its ids are the key ids.
    One,
    /// Column `k`'s id times `radix[k]`, summed, indexes one table of key
    /// ids ([`NONE`] for a tuple not seen yet).
    Table { radix: Vec<u32>, slots: Vec<u32> },
    /// Keyed by the tuple of column ids.
    Tuples(HashMap<Vec<u32>, u32>),
}

/// Key columns mapped to dense ids in first-seen order.
pub(super) struct KeyIndex {
    cols: Vec<KeyColumn>,
    combine: Combine,
    /// Each column's ids for the batch at hand.
    col_ids: Vec<Vec<u32>>,
    len: u32,
}

impl KeyIndex {
    /// The index for `width` key columns, whose batches are `assigned`
    /// (their keys get ids) and `probed` (their keys are only looked up).
    /// Dense tables are capped at [`SLOTS_PER_ROW`] slots per assigned row.
    pub(super) fn new(
        width: usize,
        assigned: &[&[Rc<Column>]],
        probed: &[&[Rc<Column>]],
    ) -> KeyIndex {
        let rows: usize = assigned
            .iter()
            .map(|keys| keys.first().map_or(0, |c| c.len()))
            .sum();
        let cap = rows.saturating_mul(SLOTS_PER_ROW).min(NONE as usize);
        let (cols, bounds): (Vec<_>, Vec<_>) = (0..width)
            .map(|k| KeyColumn::new(k, assigned, probed, cap))
            .unzip();
        let combine = if width == 1 {
            Combine::One
        } else {
            table(&bounds, cap).unwrap_or_else(|| Combine::Tuples(HashMap::new()))
        };
        KeyIndex {
            cols,
            combine,
            col_ids: vec![Vec::new(); width],
            len: 0,
        }
    }

    /// Ids handed out so far.
    pub(super) fn len(&self) -> usize {
        self.len as usize
    }

    /// Fill `ids` with the id of each row of the batch whose key columns
    /// are `keys`, giving each key not seen before the next id.
    pub(super) fn assign(&mut self, keys: &[Rc<Column>], ids: &mut Vec<u32>) {
        self.ids::<true>(keys, ids);
    }

    /// Fill `ids` with the id of each row of the batch whose key columns
    /// are `keys`: [`NONE`] for a key not assigned yet.
    pub(super) fn probe(&mut self, keys: &[Rc<Column>], ids: &mut Vec<u32>) {
        self.ids::<false>(keys, ids);
    }

    fn ids<const ADD: bool>(&mut self, keys: &[Rc<Column>], out: &mut Vec<u32>) {
        let KeyIndex {
            cols,
            combine,
            col_ids,
            len,
        } = self;
        if let Combine::One = combine {
            cols[0].ids::<ADD>(&keys[0], out);
            *len = cols[0].len;
            return;
        }
        for ((col, key), ids) in cols.iter_mut().zip(keys).zip(col_ids.iter_mut()) {
            col.ids::<ADD>(key, ids);
        }
        out.clear();
        match combine {
            Combine::Table { radix, slots } => {
                out.extend_from_slice(&col_ids[0]);
                for (ids, &r) in col_ids.iter().zip(radix.iter()).skip(1) {
                    for (s, &c) in out.iter_mut().zip(ids) {
                        // An assigned id is below its column's bound, so the
                        // sum stays inside the table.
                        *s = if !ADD && (*s == NONE || c == NONE) {
                            NONE
                        } else {
                            *s + c * r
                        };
                    }
                }
                for s in out.iter_mut().filter(|s| ADD || **s != NONE) {
                    *s = slot_id::<ADD>(&mut slots[*s as usize], len);
                }
            }
            Combine::Tuples(map) => {
                let mut tuple = Vec::with_capacity(col_ids.len());
                out.extend((0..keys[0].len()).map(|i| {
                    tuple.clear();
                    tuple.extend(col_ids.iter().map(|ids| ids[i]));
                    match map.get(&tuple) {
                        Some(&id) => id,
                        None if ADD => {
                            let id = fresh(len);
                            map.insert(tuple.clone(), id);
                            id
                        }
                        None => NONE,
                    }
                }));
            }
            Combine::One => unreachable!("handled above"),
        }
    }
}

/// The mixed-radix table for columns bounded by `bounds`, when every
/// column is bounded and the product of the bounds is at most `cap`.
fn table(bounds: &[Option<usize>], cap: usize) -> Option<Combine> {
    let mut radix = Vec::with_capacity(bounds.len());
    let mut size = 1usize;
    for &bound in bounds {
        radix.push(size as u32);
        size = size.checked_mul(bound?).filter(|&s| s <= cap)?;
    }
    Some(Combine::Table {
        radix,
        slots: vec![NONE; size],
    })
}

/// The rows of a batch that opened an id: `ids` from an
/// [`KeyIndex::assign`] that began with `before` ids. Ids are handed out
/// in row order, so id `before + n` first appears at the n-th such row.
pub(super) fn opened(ids: &[u32], before: usize) -> Vec<usize> {
    let mut rows = Vec::new();
    let mut next = before as u32;
    for (i, &id) in ids.iter().enumerate() {
        if id == next {
            rows.push(i);
            next += 1;
        }
    }
    rows
}

#[cfg(test)]
impl KeyIndex {
    /// Each column's source and how the columns combine, as in
    /// `direct+text/table`.
    pub(super) fn path(&self) -> String {
        let cols: Vec<&str> = self
            .cols
            .iter()
            .map(|c| match c.source {
                Source::Direct { .. } => "direct",
                Source::Int(_) => "int",
                Source::Text { .. } => "text",
                Source::Bool(_) => "bool",
                Source::Value(_) => "value",
            })
            .collect();
        let combine = match self.combine {
            Combine::One => "one",
            Combine::Table { .. } => "table",
            Combine::Tuples(_) => "tuples",
        };
        format!("{}/{combine}", cols.join("+"))
    }
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

    fn ints(cells: &[Option<i64>]) -> Rc<Column> {
        column(
            &cells
                .iter()
                .map(|c| c.map_or(Value::Null, Value::Int))
                .collect::<Vec<_>>(),
        )
    }

    fn ids(index: &mut KeyIndex, keys: &[Rc<Column>], add: bool) -> Vec<u32> {
        let mut ids = Vec::new();
        if add {
            index.assign(keys, &mut ids);
        } else {
            index.probe(keys, &mut ids);
        }
        ids
    }

    /// The path an index assigning `batches` takes, and every batch's ids.
    fn assign(batches: &[Vec<Rc<Column>>]) -> (String, Vec<Vec<u32>>) {
        let keys: Vec<&[Rc<Column>]> = batches.iter().map(Vec::as_slice).collect();
        let mut index = KeyIndex::new(batches[0].len(), &keys, &[]);
        let path = index.path();
        let ids = batches.iter().map(|b| ids(&mut index, b, true)).collect();
        (path, ids)
    }

    /// Whole keys numbered by value in first-seen order: the reference for
    /// every path.
    fn by_value(batches: &[Vec<Rc<Column>>]) -> Vec<Vec<u32>> {
        let mut seen: Vec<Vec<Value>> = Vec::new();
        let mut id = |key: Vec<Value>| {
            let at = seen.iter().position(|k| *k == key);
            at.unwrap_or_else(|| {
                seen.push(key);
                seen.len() - 1
            }) as u32
        };
        batches
            .iter()
            .map(|keys| {
                (0..keys[0].len())
                    .map(|i| id(keys.iter().map(|c| c.get(i)).collect()))
                    .collect()
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
        let halves = |c: &Rc<Column>| {
            let half = |rows: [usize; 6]| Rc::new(c.gather(&rows));
            (half([0, 1, 2, 0, 1, 2]), half([3, 4, 5, 3, 4, 5]))
        };
        let ((t1, t2), (u1, u2), (b1, b2)) = (halves(&t), halves(&u), halves(&b));
        let text_text = [vec![t1.clone(), u1.clone()], vec![t2.clone(), u2.clone()]];
        let text_bool = [vec![t1.clone(), b1.clone()], vec![t2.clone(), b2.clone()]];
        let bool_text_text = [vec![b1, t1, u1], vec![b2, t2, u2]];
        for (keys, path) in [
            (&text_text[..], "text+text/table"),
            (&text_bool[..], "text+bool/table"),
            (&bool_text_text[..], "bool+text+text/table"),
        ] {
            assert_eq!(assign(keys), (path.to_string(), by_value(keys)));
        }
        // First-seen order: (a, x) (NULL, x) (b, NULL) (a, y) (c, x) (NULL, NULL).
        assert_eq!(
            assign(&text_text).1,
            vec![vec![0, 1, 2, 0, 1, 2], vec![3, 4, 5, 3, 4, 5]]
        );
    }

    #[test]
    fn dense_int_and_text_keys_take_the_table_and_unbounded_ones_take_tuples() {
        // A direct `Int` bounds its ids: -1..=8 is 10 slots and NULL, so
        // with the text key's 2 the table has 22 slots, within 4 a row.
        let i = ints(&[Some(3), None, Some(3), Some(-1)]);
        let t = texts(&[Some("a"), Some("a"), Some("a"), None]);
        let i2 = ints(&[Some(-1), Some(8), None, Some(3)]);
        let int_text = [vec![i.clone(), t.clone()], vec![i2, t.clone()]];
        assert_eq!(
            assign(&int_text),
            ("direct+text/table".into(), by_value(&int_text))
        );
        // A hashed `Int` bounds nothing.
        let sparse = ints(&[Some(0), Some(i64::MAX), Some(0), Some(1)]);
        let sparse_text = [vec![sparse, t.clone()]];
        assert_eq!(
            assign(&sparse_text),
            ("int+text/tuples".into(), by_value(&sparse_text))
        );
        // Each batch with a dictionary of its own bounds nothing up front.
        let t2 = texts(&[Some("a"), Some("b"), None, Some("b")]);
        let unshared = [vec![t.clone(), t.clone()], vec![t2, t.clone()]];
        assert_eq!(
            assign(&unshared),
            ("text+text/tuples".into(), by_value(&unshared))
        );
        // Four rows gathered from a 12-string dictionary would need
        // 13 × 4 slots, more than `SLOTS_PER_ROW` per row.
        let wide: Vec<String> = (0..12).map(|k| format!("s{k}")).collect();
        let wide = texts(&wide.iter().map(|w| Some(w.as_str())).collect::<Vec<_>>());
        let few = Rc::new(wide.gather(&[11, 0, 11, 5]));
        let small = texts(&[Some("x"), Some("y"), Some("x"), Some("z")]);
        let oversized = [vec![few, small]];
        assert_eq!(
            assign(&oversized),
            ("text+text/tuples".into(), vec![vec![0, 1, 0, 2]])
        );
        // One key column's ids are the key ids.
        assert_eq!(
            assign(&[vec![i]]),
            ("direct/one".into(), vec![vec![0, 1, 0, 2]])
        );
    }

    #[test]
    fn int_keys_are_addressed_directly_when_their_span_fits() {
        let path = |batches: &[Vec<Rc<Column>>]| assign(batches).0;
        // Dense over two batches, with NULL and a key first seen late: the
        // span of 7 needs 8 slots, within 4 a row for 8 rows.
        let dense = [
            vec![ints(&[Some(4), None, Some(-3), Some(4)])],
            vec![ints(&[Some(0), Some(-3), None, Some(3)])],
        ];
        assert_eq!(assign(&dense), ("direct/one".into(), by_value(&dense)));
        assert_eq!(assign(&dense).1, vec![vec![0, 1, 2, 0], vec![3, 2, 1, 4]]);
        // Two rows allow 8 slots: a span of 7 fits, a span of 8 does not.
        let pair = |x, y| [vec![ints(&[Some(x), Some(y)])]];
        assert_eq!(path(&pair(-7, 0)), "direct/one");
        assert_eq!(path(&pair(0, 8)), "int/one");
        assert_eq!(path(&pair(i64::MIN, i64::MIN + 1)), "direct/one");
        assert_eq!(path(&pair(i64::MAX - 1, i64::MAX)), "direct/one");
        let sparse = pair(0, i64::MAX);
        assert_eq!(assign(&sparse), ("int/one".into(), vec![vec![0, 1]]));
        let extremes = pair(i64::MAX, i64::MIN);
        assert_eq!(assign(&extremes), ("int/one".into(), vec![vec![0, 1]]));
        // An all-NULL column is generic storage: it is keyed by value.
        let nulls = [vec![ints(&[None, None])]];
        assert_eq!(assign(&nulls), ("value/one".into(), vec![vec![0, 0]]));
    }

    #[test]
    fn an_all_null_batch_does_not_move_a_typed_column_to_values() {
        // The all-NULL batch is generic storage; the `Int` batches still
        // pick the direct source, and every row of it gets the NULL id.
        let mixed = [
            vec![ints(&[Some(2), None, Some(5)])],
            vec![ints(&[None, None])],
            vec![ints(&[Some(5), Some(7)])],
        ];
        assert_eq!(assign(&mixed), ("direct/one".into(), by_value(&mixed)));
        assert_eq!(
            assign(&mixed).1,
            vec![vec![0, 1, 2], vec![1, 1], vec![2, 3]]
        );
        // A first batch of NULLs, under a text and a bool source.
        let text = [
            vec![ints(&[None])],
            vec![texts(&[Some("a"), None, Some("a")])],
        ];
        assert_eq!(
            assign(&text),
            ("text/one".into(), vec![vec![0], vec![1, 0, 1]])
        );
        let bools = [
            vec![ints(&[None, None])],
            vec![column(&[Value::Bool(true)])],
        ];
        assert_eq!(
            assign(&bools),
            ("bool/one".into(), vec![vec![0, 0], vec![1]])
        );
    }

    #[test]
    fn float_list_and_mixed_keys_are_keyed_by_value() {
        let floats = |cells: &[Option<f64>]| {
            column(
                &cells
                    .iter()
                    .map(|c| c.map_or(Value::Null, Value::Float))
                    .collect::<Vec<_>>(),
            )
        };
        // `-0.0 = 0.0`, and every NaN is one key.
        let f = floats(&[
            Some(0.5),
            Some(-0.0),
            None,
            Some(0.0),
            Some(f64::NAN),
            Some(-f64::NAN),
        ]);
        assert_eq!(
            assign(&[vec![f.clone()]]),
            ("value/one".into(), vec![vec![0, 1, 2, 1, 3, 3]])
        );
        let t = texts(&[Some("a"), Some("b"), Some("a"), Some("b"), None, None]);
        let float_text = [vec![f, t]];
        assert_eq!(
            assign(&float_text),
            ("value+text/tuples".into(), by_value(&float_text))
        );
        let list = |xs: &[i64]| Value::Array(xs.iter().map(|&x| Value::Int(x)).collect());
        let lists = column(&[
            list(&[1, 2]),
            list(&[1, 2]),
            Value::Null,
            list(&[2]),
            list(&[]),
        ]);
        assert!(matches!(lists.data(), ColumnData::List { .. }));
        assert_eq!(
            assign(&[vec![lists]]),
            ("value/one".into(), vec![vec![0, 0, 1, 2, 3]])
        );
        // `Int` in one batch, `Float` in the next: `1 = 1.0`.
        let mixed = [
            vec![ints(&[Some(1), Some(2)])],
            vec![floats(&[Some(1.0), Some(2.5)])],
        ];
        assert_eq!(
            assign(&mixed),
            ("value/one".into(), vec![vec![0, 1], vec![0, 2]])
        );
    }

    #[test]
    fn a_probe_adds_nothing_and_misses_unseen_keys() {
        // Text, probed through another dictionary, then assigned again: a
        // string the probe missed gets the next id.
        let build = texts(&[Some("a"), Some("b"), None, Some("a")]);
        let probe = texts(&[Some("b"), Some("z"), None, Some("z"), Some("a")]);
        let mut index = KeyIndex::new(1, &[&[Rc::clone(&build)]], &[&[Rc::clone(&probe)]]);
        assert_eq!(index.path(), "text/one");
        assert_eq!(ids(&mut index, &[build], true), vec![0, 1, 2, 0]);
        let keys = [probe];
        assert_eq!(ids(&mut index, &keys, false), vec![1, NONE, 2, NONE, 0]);
        assert_eq!(index.len(), 3);
        assert_eq!(ids(&mut index, &keys, true), vec![1, 3, 2, 3, 0]);
        // A direct `Int` beside a `Bool`: keys outside the span, an unseen
        // NULL and an unseen pair all miss.
        let build = [
            ints(&[Some(5), Some(6), Some(5)]),
            column(&[true, true, false].map(Value::Bool)),
        ];
        let probe = [
            ints(&[Some(6), Some(5), Some(4), Some(i64::MIN), None, Some(6)]),
            column(&[true, false, true, true, true, false].map(Value::Bool)),
        ];
        let mut index = KeyIndex::new(2, &[&build], &[&probe]);
        assert_eq!(index.path(), "direct+bool/table");
        assert_eq!(ids(&mut index, &build, true), vec![0, 1, 2]);
        assert_eq!(
            ids(&mut index, &probe, false),
            vec![1, 2, NONE, NONE, NONE, NONE]
        );
        // Tuples miss the same way.
        let build = [
            ints(&[Some(0), Some(i64::MAX)]),
            texts(&[Some("a"), Some("b")]),
        ];
        let probe = [
            ints(&[Some(i64::MAX), Some(0), Some(7)]),
            texts(&[Some("b"), Some("b"), Some("a")]),
        ];
        let mut index = KeyIndex::new(2, &[&build], &[&probe]);
        assert_eq!(index.path(), "int+text/tuples");
        assert_eq!(ids(&mut index, &build, true), vec![0, 1]);
        assert_eq!(ids(&mut index, &probe, false), vec![1, NONE, NONE]);
        assert_eq!(index.len(), 2);
        // Storage that differs between the sides is keyed by value.
        let build = [ints(&[Some(2), Some(3)])];
        let probe = [column(&[Value::Float(3.0), Value::Float(2.5)])];
        let mut index = KeyIndex::new(1, &[&build], &[&probe]);
        assert_eq!(index.path(), "value/one");
        assert_eq!(ids(&mut index, &build, true), vec![0, 1]);
        assert_eq!(ids(&mut index, &probe, false), vec![1, NONE]);
    }
}
