//! In-memory columnar chunks: typed vectors plus null bitmaps.
//!
//! A [`Column`] is the in-memory twin of one ELSNP001 snapshot *page*: the
//! same five encodings (`int` = raw i64, `float` = raw f64 bits, `bool`,
//! `text`, and a generic tagged-[`Value`] fallback for mixed or array
//! columns) and the same null bitmap convention (bit `i` of byte `i/8`, LSB
//! first, a **set** bit marks NULL). [`encode_page`] writes exactly the page
//! bytes the snapshot writer has always emitted — for one column, or for a
//! table column split over sealed columns and row-major tail rows — and
//! [`Column::decode_page`] reads them back.
//!
//! Dense layout: the typed vectors hold one slot per row, with null
//! positions occupied by a type default (0, 0.0, false, code 0) so kernels
//! can iterate without branching on validity; nullness lives only in the
//! bitmap. The serialized page still stores non-null cells only.
//!
//! Text is dictionary-coded: a column holds `u32` codes into an
//! `Rc`-shared [`TextDict`] of distinct strings, so gathering rows copies
//! codes and shares the dictionary instead of cloning strings. Two columns
//! are equal when their values are, whatever their dictionaries.
//!
//! A [`ColumnChunk`] is a batch of rows as a set of reference-counted
//! columns — the unit the batch-at-a-time executor passes between
//! operators and the unit a table heap seals its rows into. `Rc` makes
//! column-preserving operators (projection of a bare column reference,
//! filters that keep a column untouched, scans of sealed chunks) free.

use crate::binary::{put_f64, put_i64, put_str, put_value};
use crate::error::{Error, Result};
use crate::{ByteReader, Value};
use std::collections::HashMap;
use std::rc::Rc;

/// Page-encoding tags shared with the ELSNP001 snapshot format.
pub mod page_tag {
    /// Tagged [`crate::Value`] cells (mixed, array, or all-null columns).
    pub const GENERIC: u8 = 0;
    /// Raw little-endian i64 cells.
    pub const INT: u8 = 1;
    /// Raw little-endian f64 bit patterns.
    pub const FLOAT: u8 = 2;
    /// One byte per cell (0 or 1).
    pub const BOOL: u8 = 3;
    /// u32-length-prefixed UTF-8 cells.
    pub const TEXT: u8 = 4;
}

/// Null bitmap of one column: bit `i` of byte `i/8` (LSB first), **set**
/// means NULL — the exact on-disk convention of ELSNP001 pages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NullBitmap {
    bytes: Vec<u8>,
    len: usize,
    nulls: usize,
}

impl NullBitmap {
    /// An all-valid bitmap covering `len` rows.
    pub fn new_valid(len: usize) -> NullBitmap {
        NullBitmap {
            bytes: vec![0u8; len.div_ceil(8)],
            len,
            nulls: 0,
        }
    }

    /// Rebuild from raw page bytes (must span `ceil(len/8)` bytes).
    pub fn from_bytes(bytes: Vec<u8>, len: usize) -> NullBitmap {
        let nulls = (0..len)
            .filter(|i| bytes[i / 8] & (1 << (i % 8)) != 0)
            .count();
        NullBitmap { bytes, len, nulls }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.bytes[i / 8] & (1 << (i % 8)) != 0
    }

    /// Mark row `i` NULL.
    #[inline]
    pub fn set_null(&mut self, i: usize) {
        let mask = 1 << (i % 8);
        if self.bytes[i / 8] & mask == 0 {
            self.bytes[i / 8] |= mask;
            self.nulls += 1;
        }
    }

    /// Append one row.
    pub fn push(&mut self, null: bool) {
        self.len += 1;
        self.bytes.resize(self.len.div_ceil(8), 0);
        if null {
            self.set_null(self.len - 1);
        }
    }

    /// Append `other`'s rows after this bitmap's (byte copies when this
    /// bitmap ends on a byte boundary, as whole chunks do).
    pub fn extend(&mut self, other: &NullBitmap) {
        let at = self.len;
        self.len += other.len;
        if at.is_multiple_of(8) {
            self.bytes.extend_from_slice(&other.bytes);
            self.nulls += other.nulls;
            return;
        }
        self.bytes.resize(self.len.div_ceil(8), 0);
        if other.nulls > 0 {
            for i in (0..other.len).filter(|&i| other.is_null(i)) {
                self.set_null(at + i);
            }
        }
    }

    /// Number of NULL rows (kernels skip the null branch when this is 0).
    pub fn null_count(&self) -> usize {
        self.nulls
    }

    /// True when no row is NULL.
    pub fn all_valid(&self) -> bool {
        self.nulls == 0
    }

    /// The raw bitmap bytes, as stored in a snapshot page.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// The distinct strings of a dictionary-coded text column, back to back in
/// one buffer; code `k` is entry `k`. Immutable once built, and shared by
/// every column gathered or concatenated from the column that built it.
#[derive(Debug, Default)]
pub struct TextDict {
    bytes: String,
    ends: Vec<usize>,
}

impl TextDict {
    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the dictionary holds no string.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The string coded `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &str {
        let k = code as usize;
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.bytes[start..self.ends[k]]
    }
}

/// Codes strings into a new dictionary, each distinct string once. Keys
/// borrow from the strings being coded, so coding allocates only the
/// dictionary itself.
#[derive(Default)]
struct DictBuilder<'a> {
    dict: TextDict,
    index: HashMap<&'a str, u32>,
}

impl<'a> DictBuilder<'a> {
    fn code(&mut self, s: &'a str) -> u32 {
        let DictBuilder { dict, index } = self;
        *index.entry(s).or_insert_with(|| {
            dict.bytes.push_str(s);
            dict.ends.push(dict.bytes.len());
            (dict.ends.len() - 1) as u32
        })
    }

    fn finish(self) -> Rc<TextDict> {
        Rc::new(self.dict)
    }
}

/// The typed cell storage of one [`Column`], dense (one slot per row, null
/// positions hold a type default). Variants map 1:1 onto the snapshot page
/// tags in [`page_tag`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// All non-null cells are `Value::Int`.
    Int(Vec<i64>),
    /// All non-null cells are `Value::Float`.
    Float(Vec<f64>),
    /// All non-null cells are `Value::Bool`.
    Bool(Vec<bool>),
    /// All non-null cells are `Value::Text`: row `i` is
    /// `dict.get(codes[i])`. The code at a NULL position is unspecified and
    /// never resolved.
    Text {
        /// Distinct strings, shared with every column gathered from this one.
        dict: Rc<TextDict>,
        /// One code per row.
        codes: Vec<u32>,
    },
    /// Mixed, array-typed, or all-null cells, stored as tagged values.
    Generic(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Text { codes, .. } => codes.len(),
            ColumnData::Generic(v) => v.len(),
        }
    }

    /// The snapshot page tag this storage serializes under.
    pub fn tag(&self) -> u8 {
        match self {
            ColumnData::Int(_) => page_tag::INT,
            ColumnData::Float(_) => page_tag::FLOAT,
            ColumnData::Bool(_) => page_tag::BOOL,
            ColumnData::Text { .. } => page_tag::TEXT,
            ColumnData::Generic(_) => page_tag::GENERIC,
        }
    }
}

/// One column of a batch: dense typed storage plus a null bitmap.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColumnData,
    nulls: NullBitmap,
}

/// Equal storage kind, equal nulls, and equal values at every non-null
/// position — text by value, so dictionaries may differ.
impl PartialEq for Column {
    fn eq(&self, other: &Column) -> bool {
        if self.nulls != other.nulls {
            return false;
        }
        let mut valid = (0..self.len()).filter(|&i| !self.is_null(i));
        match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => valid.all(|i| a[i] == b[i]),
            (ColumnData::Float(a), ColumnData::Float(b)) => {
                valid.all(|i| a[i].to_bits() == b[i].to_bits())
            }
            (ColumnData::Bool(a), ColumnData::Bool(b)) => valid.all(|i| a[i] == b[i]),
            (ColumnData::Text { dict: da, codes: a }, ColumnData::Text { dict: db, codes: b }) => {
                valid.all(|i| da.get(a[i]) == db.get(b[i]))
            }
            (ColumnData::Generic(a), ColumnData::Generic(b)) => valid.all(|i| a[i] == b[i]),
            _ => false,
        }
    }
}

impl Column {
    /// Build from explicit storage and bitmap (lengths must agree).
    pub fn new(data: ColumnData, nulls: NullBitmap) -> Column {
        debug_assert_eq!(data.len(), nulls.len());
        Column { data, nulls }
    }

    /// Build column `col` from row-major `rows`, choosing the densest
    /// typed representation every non-null cell fits — the same choice the
    /// snapshot writer makes (arrays or mixed types fall back to generic;
    /// an all-null column is generic).
    pub fn from_rows(rows: &[Vec<Value>], col: usize) -> Column {
        Column::from_cells(rows.len(), |i| &rows[i][col])
    }

    /// Build from a slice of cells (one column already extracted).
    pub fn from_values(cells: &[Value]) -> Column {
        Column::from_cells(cells.len(), |i| &cells[i])
    }

    fn from_cells<'a>(len: usize, cell: impl Fn(usize) -> &'a Value) -> Column {
        let mut vote = TagVote::default();
        for i in 0..len {
            vote.value(cell(i));
        }
        let mut nulls = NullBitmap::new_valid(len);
        let data = match vote.finish() {
            page_tag::INT => {
                let mut v = Vec::with_capacity(len);
                for i in 0..len {
                    match cell(i) {
                        Value::Int(x) => v.push(*x),
                        _ => {
                            nulls.set_null(i);
                            v.push(0);
                        }
                    }
                }
                ColumnData::Int(v)
            }
            page_tag::FLOAT => {
                let mut v = Vec::with_capacity(len);
                for i in 0..len {
                    match cell(i) {
                        Value::Float(x) => v.push(*x),
                        _ => {
                            nulls.set_null(i);
                            v.push(0.0);
                        }
                    }
                }
                ColumnData::Float(v)
            }
            page_tag::BOOL => {
                let mut v = Vec::with_capacity(len);
                for i in 0..len {
                    match cell(i) {
                        Value::Bool(x) => v.push(*x),
                        _ => {
                            nulls.set_null(i);
                            v.push(false);
                        }
                    }
                }
                ColumnData::Bool(v)
            }
            page_tag::TEXT => {
                let mut dict = DictBuilder::default();
                let mut codes = Vec::with_capacity(len);
                for i in 0..len {
                    match cell(i) {
                        Value::Text(x) => codes.push(dict.code(x)),
                        _ => {
                            nulls.set_null(i);
                            codes.push(0);
                        }
                    }
                }
                ColumnData::Text {
                    dict: dict.finish(),
                    codes,
                }
            }
            _ => {
                let mut v = Vec::with_capacity(len);
                for i in 0..len {
                    let c = cell(i);
                    if c.is_null() {
                        nulls.set_null(i);
                    }
                    v.push(c.clone());
                }
                ColumnData::Generic(v)
            }
        };
        Column { data, nulls }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.nulls.len()
    }

    /// True when the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed storage.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The null bitmap.
    pub fn nulls(&self) -> &NullBitmap {
        &self.nulls
    }

    /// True when row `i` is NULL.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.nulls.is_null(i)
    }

    /// Materialize cell `i` as a [`Value`] (NULL positions yield
    /// `Value::Null` regardless of the dense slot's default).
    pub fn get(&self, i: usize) -> Value {
        if self.nulls.is_null(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Value::Int(v[i]),
            ColumnData::Float(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Text { dict, codes } => Value::text(dict.get(codes[i])),
            ColumnData::Generic(v) => v[i].clone(),
        }
    }

    /// The selected rows, in selection order. Text copies codes and shares
    /// the dictionary.
    pub fn gather(&self, sel: &[usize]) -> Column {
        let mut nulls = NullBitmap::new_valid(sel.len());
        if !self.nulls.all_valid() {
            for (i, &r) in sel.iter().enumerate() {
                if self.is_null(r) {
                    nulls.set_null(i);
                }
            }
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(sel.iter().map(|&r| v[r]).collect()),
            ColumnData::Float(v) => ColumnData::Float(sel.iter().map(|&r| v[r]).collect()),
            ColumnData::Bool(v) => ColumnData::Bool(sel.iter().map(|&r| v[r]).collect()),
            ColumnData::Text { dict, codes } => ColumnData::Text {
                dict: Rc::clone(dict),
                codes: sel.iter().map(|&r| codes[r]).collect(),
            },
            ColumnData::Generic(v) => {
                ColumnData::Generic(sel.iter().map(|&r| v[r].clone()).collect())
            }
        };
        Column { data, nulls }
    }

    /// [`Column::gather`] with optional indices: `None` slots become NULL
    /// (outer-join padding).
    pub fn gather_opt(&self, sel: &[Option<usize>]) -> Column {
        let mut nulls = NullBitmap::new_valid(sel.len());
        for (i, r) in sel.iter().enumerate() {
            match r {
                Some(r) if !self.is_null(*r) => {}
                _ => nulls.set_null(i),
            }
        }
        let data = match &self.data {
            ColumnData::Int(v) => {
                ColumnData::Int(sel.iter().map(|r| r.map_or(0, |r| v[r])).collect())
            }
            ColumnData::Float(v) => {
                ColumnData::Float(sel.iter().map(|r| r.map_or(0.0, |r| v[r])).collect())
            }
            ColumnData::Bool(v) => {
                ColumnData::Bool(sel.iter().map(|r| r.is_some_and(|r| v[r])).collect())
            }
            ColumnData::Text { dict, codes } => ColumnData::Text {
                dict: Rc::clone(dict),
                codes: sel.iter().map(|r| r.map_or(0, |r| codes[r])).collect(),
            },
            ColumnData::Generic(v) => ColumnData::Generic(
                sel.iter()
                    .map(|r| r.map_or(Value::Null, |r| v[r].clone()))
                    .collect(),
            ),
        };
        Column { data, nulls }
    }

    /// Concatenate columns end to end (the same logical column across
    /// batches). Parts with different storage are re-typed over all their
    /// cells; text parts sharing one dictionary keep it, others are
    /// re-coded into a merged one.
    pub fn concat(parts: &[&Column]) -> Column {
        let same_tag = parts.windows(2).all(|w| w[0].data.tag() == w[1].data.tag());
        let Some(first) = parts.first().filter(|_| same_tag) else {
            let cells: Vec<Value> = parts
                .iter()
                .flat_map(|c| (0..c.len()).map(|i| c.get(i)))
                .collect();
            return Column::from_values(&cells);
        };
        let mut nulls = NullBitmap::default();
        for c in parts {
            nulls.extend(&c.nulls);
        }
        macro_rules! flat {
            ($variant:ident) => {
                ColumnData::$variant(
                    parts
                        .iter()
                        .flat_map(|c| match &c.data {
                            ColumnData::$variant(v) => v.iter().cloned(),
                            _ => unreachable!("tag checked"),
                        })
                        .collect(),
                )
            };
        }
        let data = match &first.data {
            ColumnData::Int(_) => flat!(Int),
            ColumnData::Float(_) => flat!(Float),
            ColumnData::Bool(_) => flat!(Bool),
            ColumnData::Generic(_) => flat!(Generic),
            ColumnData::Text { dict: shared, .. } => {
                let shares = parts.iter().all(
                    |c| matches!(&c.data, ColumnData::Text { dict, .. } if Rc::ptr_eq(dict, shared)),
                );
                let mut merged = DictBuilder::default();
                let mut codes = Vec::with_capacity(nulls.len());
                for c in parts {
                    let ColumnData::Text { dict, codes: part } = &c.data else {
                        unreachable!("tag checked")
                    };
                    if shares {
                        codes.extend_from_slice(part);
                        continue;
                    }
                    // Each of this part's codes is re-coded once.
                    let mut remap = vec![u32::MAX; dict.len()];
                    for (i, &code) in part.iter().enumerate() {
                        codes.push(if c.is_null(i) {
                            0
                        } else {
                            let slot = &mut remap[code as usize];
                            if *slot == u32::MAX {
                                *slot = merged.code(dict.get(code));
                            }
                            *slot
                        });
                    }
                }
                ColumnData::Text {
                    dict: if shares {
                        Rc::clone(shared)
                    } else {
                        merged.finish()
                    },
                    codes,
                }
            }
        };
        Column { data, nulls }
    }

    /// Serialize as one ELSNP001 snapshot page: tag byte, null bitmap,
    /// then non-null cells only (see [`encode_page`]).
    pub fn encode_page(&self, buf: &mut Vec<u8>) {
        encode_page(buf, &[self], &[], 0);
    }

    /// Write this column's non-null cells for a page tagged `tag` (its own
    /// tag, or generic when the page spans columns of several kinds).
    fn put_cells(&self, buf: &mut Vec<u8>, tag: u8) {
        if self.nulls.null_count() == self.len() {
            return;
        }
        let valid = (0..self.len()).filter(|&i| !self.is_null(i));
        match (&self.data, tag) {
            (ColumnData::Int(v), page_tag::INT) => valid.for_each(|i| put_i64(buf, v[i])),
            (ColumnData::Float(v), page_tag::FLOAT) => valid.for_each(|i| put_f64(buf, v[i])),
            (ColumnData::Bool(v), page_tag::BOOL) => valid.for_each(|i| buf.push(v[i] as u8)),
            (ColumnData::Text { dict, codes }, page_tag::TEXT) => {
                valid.for_each(|i| put_str(buf, dict.get(codes[i])))
            }
            (ColumnData::Generic(v), _) => valid.for_each(|i| put_cell(buf, tag, &v[i])),
            // Typed storage inside a generic page.
            _ => valid.for_each(|i| put_value(buf, &self.get(i))),
        }
    }

    /// Decode one snapshot page spanning `nrows` rows.
    pub fn decode_page(r: &mut ByteReader<'_>, nrows: usize) -> Result<Column> {
        let tag = r.u8()?;
        let bitmap = r.bytes(nrows.div_ceil(8))?.to_vec();
        let nulls = NullBitmap::from_bytes(bitmap, nrows);
        let data = match tag {
            page_tag::INT => {
                let mut v = Vec::with_capacity(nrows);
                for i in 0..nrows {
                    v.push(if nulls.is_null(i) { 0 } else { r.i64()? });
                }
                ColumnData::Int(v)
            }
            page_tag::FLOAT => {
                let mut v = Vec::with_capacity(nrows);
                for i in 0..nrows {
                    v.push(if nulls.is_null(i) { 0.0 } else { r.f64()? });
                }
                ColumnData::Float(v)
            }
            page_tag::BOOL => {
                let mut v = Vec::with_capacity(nrows);
                for i in 0..nrows {
                    v.push(if nulls.is_null(i) {
                        false
                    } else {
                        r.u8()? != 0
                    });
                }
                ColumnData::Bool(v)
            }
            page_tag::TEXT => {
                let mut dict = DictBuilder::default();
                let mut codes = Vec::with_capacity(nrows);
                for i in 0..nrows {
                    codes.push(if nulls.is_null(i) {
                        0
                    } else {
                        dict.code(r.str_ref()?)
                    });
                }
                ColumnData::Text {
                    dict: dict.finish(),
                    codes,
                }
            }
            page_tag::GENERIC => {
                let mut v = Vec::with_capacity(nrows);
                for i in 0..nrows {
                    v.push(if nulls.is_null(i) {
                        Value::Null
                    } else {
                        r.value()?
                    });
                }
                ColumnData::Generic(v)
            }
            other => return Err(Error::Codec(format!("unknown page tag {other}"))),
        };
        Ok(Column { data, nulls })
    }
}

/// The page tag [`Column::from_values`] picks: the first non-null cell
/// proposes one, and any disagreement — or an array — forces generic; an
/// all-null column is generic.
#[derive(Default)]
struct TagVote(Option<u8>);

impl TagVote {
    fn cast(&mut self, want: u8) {
        self.0 = match self.0 {
            Some(t) if t != want => Some(page_tag::GENERIC),
            _ => Some(want),
        };
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Null => {}
            Value::Int(_) => self.cast(page_tag::INT),
            Value::Float(_) => self.cast(page_tag::FLOAT),
            Value::Bool(_) => self.cast(page_tag::BOOL),
            Value::Text(_) => self.cast(page_tag::TEXT),
            Value::Array(_) => self.0 = Some(page_tag::GENERIC),
        }
    }

    /// Every non-null cell of `c` votes: a typed column for its tag at
    /// once, a generic one cell by cell.
    fn column(&mut self, c: &Column) {
        if c.nulls.null_count() == c.len() {
            return;
        }
        match &c.data {
            ColumnData::Generic(v) => {
                for (i, x) in v.iter().enumerate() {
                    if !c.is_null(i) {
                        self.value(x);
                    }
                }
            }
            typed => self.cast(typed.tag()),
        }
    }

    fn finish(self) -> u8 {
        self.0.unwrap_or(page_tag::GENERIC)
    }
}

/// One non-null cell of a page tagged `tag`.
fn put_cell(buf: &mut Vec<u8>, tag: u8, v: &Value) {
    match (tag, v) {
        (page_tag::INT, Value::Int(x)) => put_i64(buf, *x),
        (page_tag::FLOAT, Value::Float(x)) => put_f64(buf, *x),
        (page_tag::BOOL, Value::Bool(x)) => buf.push(*x as u8),
        (page_tag::TEXT, Value::Text(x)) => put_str(buf, x),
        _ => put_value(buf, v),
    }
}

/// Serialize one ELSNP001 snapshot page for a column stored as the
/// `sealed` columns followed by cell `col` of each row-major `tail` row:
/// tag byte, null bitmap over all of those rows, then non-null cells only.
/// The tag is the one [`Column::from_values`] would pick over every cell,
/// so a table encodes to the same bytes however its rows are split between
/// chunks and tail.
pub fn encode_page(buf: &mut Vec<u8>, sealed: &[&Column], tail: &[Vec<Value>], col: usize) {
    let tail_cells = || tail.iter().map(|row| &row[col]);
    let mut vote = TagVote::default();
    sealed.iter().for_each(|c| vote.column(c));
    tail_cells().for_each(|v| vote.value(v));
    let tag = vote.finish();
    buf.push(tag);
    let mut nulls = NullBitmap::default();
    sealed.iter().for_each(|c| nulls.extend(&c.nulls));
    tail_cells().for_each(|v| nulls.push(v.is_null()));
    buf.extend_from_slice(nulls.as_bytes());
    sealed.iter().for_each(|c| c.put_cells(buf, tag));
    tail_cells()
        .filter(|v| !v.is_null())
        .for_each(|v| put_cell(buf, tag, v));
}

/// A batch of rows as reference-counted columns — the unit of work of the
/// vectorized executor.
#[derive(Debug, Clone, Default)]
pub struct ColumnChunk {
    columns: Vec<Rc<Column>>,
    len: usize,
}

impl ColumnChunk {
    /// Build from shared columns (all must have the same length; a
    /// zero-column chunk carries `len` as its row count).
    pub fn new(columns: Vec<Rc<Column>>, len: usize) -> ColumnChunk {
        debug_assert!(columns.iter().all(|c| c.len() == len));
        ColumnChunk { columns, len }
    }

    /// Columnarize `width` columns of row-major `rows`.
    pub fn from_rows(rows: &[Vec<Value>], width: usize) -> ColumnChunk {
        let columns = (0..width)
            .map(|c| Rc::new(Column::from_rows(rows, c)))
            .collect();
        ColumnChunk {
            columns,
            len: rows.len(),
        }
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`.
    pub fn column(&self, i: usize) -> &Rc<Column> {
        &self.columns[i]
    }

    /// All columns, in order.
    pub fn columns(&self) -> &[Rc<Column>] {
        &self.columns
    }

    /// Materialize row `i` as a `Vec<Value>`.
    pub fn get_row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Materialize the whole batch row-major (a query's result rows).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        (0..self.len).map(|i| self.get_row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(cells: &[Value]) -> Column {
        let col = Column::from_values(cells);
        let mut buf = Vec::new();
        col.encode_page(&mut buf);
        let mut r = ByteReader::new(&buf);
        let back = Column::decode_page(&mut r, cells.len()).unwrap();
        assert!(r.is_empty());
        assert_eq!(col, back);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(&back.get(i), c);
        }
        back
    }

    fn texts(cells: &[Option<&str>]) -> Vec<Value> {
        cells
            .iter()
            .map(|c| c.map_or(Value::Null, Value::text))
            .collect()
    }

    fn dict_of(c: &Column) -> &Rc<TextDict> {
        match c.data() {
            ColumnData::Text { dict, .. } => dict,
            other => panic!("expected text storage, got {other:?}"),
        }
    }

    fn values(c: &Column) -> Vec<Value> {
        (0..c.len()).map(|i| c.get(i)).collect()
    }

    #[test]
    fn typed_columns_round_trip() {
        let ints = roundtrip(&[Value::Int(1), Value::Null, Value::Int(-3)]);
        assert_eq!(ints.data().tag(), page_tag::INT);
        assert_eq!(ints.nulls().null_count(), 1);

        let floats = roundtrip(&[Value::Float(-0.0), Value::Float(1.5), Value::Null]);
        assert_eq!(floats.data().tag(), page_tag::FLOAT);
        // -0.0 survives bit-exactly.
        match floats.data() {
            ColumnData::Float(v) => assert!(v[0].is_sign_negative()),
            other => panic!("expected float storage, got {other:?}"),
        }

        let bools = roundtrip(&[Value::Bool(true), Value::Bool(false)]);
        assert_eq!(bools.data().tag(), page_tag::BOOL);

        let texts = roundtrip(&[Value::text("a"), Value::Null, Value::text("")]);
        assert_eq!(texts.data().tag(), page_tag::TEXT);
    }

    #[test]
    fn mixed_and_all_null_columns_are_generic() {
        let mixed = roundtrip(&[Value::Int(1), Value::text("two")]);
        assert_eq!(mixed.data().tag(), page_tag::GENERIC);

        let arrays = roundtrip(&[Value::Array(vec![Value::Int(3)])]);
        assert_eq!(arrays.data().tag(), page_tag::GENERIC);

        let nulls = roundtrip(&[Value::Null, Value::Null]);
        assert_eq!(nulls.data().tag(), page_tag::GENERIC);
        assert_eq!(nulls.nulls().null_count(), 2);

        roundtrip(&[]);
    }

    #[test]
    fn chunk_round_trips_rows() {
        let rows = vec![
            vec![Value::Int(1), Value::text("a"), Value::Null],
            vec![Value::Int(2), Value::Null, Value::Float(0.5)],
        ];
        let chunk = ColumnChunk::from_rows(&rows, 3);
        assert_eq!(chunk.len(), 2);
        assert_eq!(chunk.width(), 3);
        assert_eq!(chunk.get_row(1), rows[1]);
        assert_eq!(chunk.to_rows(), rows);
    }

    #[test]
    fn bitmap_counts_and_flags() {
        let mut b = NullBitmap::new_valid(10);
        assert!(b.all_valid());
        b.set_null(3);
        b.set_null(3);
        b.set_null(9);
        assert_eq!(b.null_count(), 2);
        assert!(b.is_null(3) && b.is_null(9) && !b.is_null(0));
        let rebuilt = NullBitmap::from_bytes(b.as_bytes().to_vec(), 10);
        assert_eq!(rebuilt, b);
    }

    #[test]
    fn bitmap_extend_and_push_match_one_bitmap() {
        let mut whole = NullBitmap::new_valid(21);
        for i in [0, 7, 8, 13, 20] {
            whole.set_null(i);
        }
        // Aligned (8) then unaligned (13) boundaries, then pushed bits.
        let mut built = NullBitmap::default();
        let part = |range: std::ops::Range<usize>| {
            let mut b = NullBitmap::new_valid(range.len());
            for (k, i) in range.enumerate() {
                if whole.is_null(i) {
                    b.set_null(k);
                }
            }
            b
        };
        let (a, b) = (part(0..8), part(8..13));
        built.extend(&a);
        built.extend(&b);
        for i in 13..21 {
            built.push(whole.is_null(i));
        }
        assert_eq!(built, whole);
    }

    #[test]
    fn text_is_dictionary_coded_and_compares_by_value() {
        // Same values, different dictionaries (different first-seen order).
        let a = Column::from_values(&texts(&[Some("x"), Some("y"), Some("x")]));
        let b = Column::from_values(&texts(&[Some("y"), Some("x")])).gather(&[1, 0, 1]);
        assert!(!Rc::ptr_eq(dict_of(&a), dict_of(&b)));
        assert_eq!(dict_of(&a).len(), 2, "one entry per distinct string");
        assert_eq!(a, b);
        let c = Column::from_values(&texts(&[Some("x"), Some("y"), Some("y")]));
        assert_ne!(a, c);
    }

    #[test]
    fn gather_shares_the_dictionary() {
        let col = Column::from_values(&texts(&[Some("p"), None, Some("q"), Some("p")]));
        let picked = col.gather(&[3, 1, 2]);
        assert!(Rc::ptr_eq(dict_of(&col), dict_of(&picked)));
        assert_eq!(values(&picked), texts(&[Some("p"), None, Some("q")]));
        let padded = col.gather_opt(&[None, Some(2), Some(1)]);
        assert!(Rc::ptr_eq(dict_of(&col), dict_of(&padded)));
        assert_eq!(values(&padded), texts(&[None, Some("q"), None]));
    }

    #[test]
    fn concat_merges_different_dictionaries() {
        let a = Column::from_values(&texts(&[Some("a"), None, Some("b")]));
        let b = Column::from_values(&texts(&[Some("c"), Some("a"), Some("")]));
        let both = Column::concat(&[&a, &b]);
        assert_eq!(
            values(&both),
            texts(&[Some("a"), None, Some("b"), Some("c"), Some("a"), Some("")])
        );
        assert_eq!(dict_of(&both).len(), 4, "merged without duplicates");
        // Parts that share one dictionary keep it.
        let again = Column::concat(&[&a, &a.gather(&[2])]);
        assert!(Rc::ptr_eq(dict_of(&a), dict_of(&again)));
        assert_eq!(
            values(&again),
            texts(&[Some("a"), None, Some("b"), Some("b")])
        );
        // Mixed storage re-types over every cell.
        let ints = Column::from_values(&[Value::Int(1)]);
        let mixed = Column::concat(&[&a, &ints]);
        assert_eq!(mixed.data().tag(), page_tag::GENERIC);
        assert_eq!(mixed.get(3), Value::Int(1));
    }

    #[test]
    fn null_and_empty_text_stay_distinct() {
        let col = roundtrip(&texts(&[Some(""), None, Some(""), None]));
        assert_eq!(col.get(0), Value::text(""));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.nulls().null_count(), 2);
        let swapped = Column::from_values(&texts(&[None, Some(""), None, Some("")]));
        assert_ne!(col, swapped);
    }

    #[test]
    fn text_page_bytes_are_unchanged() {
        // ELSNP001 text page: tag, bitmap (row 1 NULL), then
        // u32-length-prefixed cells; dictionary coding must not show here.
        let col = Column::from_values(&texts(&[Some("ab"), None, Some(""), Some("ab")]));
        let mut buf = Vec::new();
        col.encode_page(&mut buf);
        let want: Vec<u8> = [
            &[page_tag::TEXT, 0b0000_0010][..],
            &[2, 0, 0, 0, b'a', b'b'],
            &[0, 0, 0, 0],
            &[2, 0, 0, 0, b'a', b'b'],
        ]
        .concat();
        assert_eq!(buf, want);
    }

    #[test]
    fn page_from_parts_equals_page_of_all_cells() {
        let cells = vec![
            Value::Int(4),
            Value::Null,
            Value::Int(-1),
            Value::Null,
            Value::Null,
            Value::Int(9),
            Value::Null,
        ];
        let cases: [Vec<Value>; 4] = [
            cells.clone(),
            // A text cell in the tail makes the whole page generic.
            cells.iter().cloned().chain([Value::text("t")]).collect(),
            texts(&[Some("a"), None, Some(""), Some("a"), None, Some("b")]),
            vec![Value::Null; 5],
        ];
        for all in cases {
            let mut whole = Vec::new();
            Column::from_values(&all).encode_page(&mut whole);
            // Sealed parts of 3 and 2 rows (the second all-NULL for the
            // Int case, so generic there), then the rest as tail rows.
            let first = Column::from_values(&all[..3]);
            let second = Column::from_values(&all[3..5]);
            let tail: Vec<Vec<Value>> = all[5..].iter().map(|v| vec![v.clone()]).collect();
            let mut parts = Vec::new();
            encode_page(&mut parts, &[&first, &second], &tail, 0);
            assert_eq!(parts, whole, "{all:?}");
        }
    }
}
