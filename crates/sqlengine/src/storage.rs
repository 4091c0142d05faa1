//! Query results (columnar as executed, row-major for the embedded API)
//! and the one columnar heap behind tables, materialized views and
//! materialized CTEs.

use crate::colexec::BATCH_ROWS;
use crate::error::{Result, SqlError};
use etypes::{Column, ColumnChunk, ColumnData, DataType, Value};
use std::cell::OnceCell;
use std::rc::Rc;

/// One tuple.
pub type Row = Vec<Value>;

/// A query result as row-major tuples: what the embedded API
/// ([`crate::Engine::query`]) hands back. Stored data lives in a [`Heap`];
/// served results stay columnar ([`ResultSet`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    /// Column names in order.
    pub columns: Vec<String>,
    /// Column types in order.
    pub types: Vec<DataType>,
    /// Row-major tuples.
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Construct, checking arity.
    pub fn new(columns: Vec<String>, types: Vec<DataType>, rows: Vec<Vec<Value>>) -> Result<Self> {
        if columns.len() != types.len() {
            return Err(SqlError::exec("schema arity mismatch"));
        }
        for row in &rows {
            if row.len() != columns.len() {
                return Err(SqlError::exec(format!(
                    "row arity {} does not match schema arity {}",
                    row.len(),
                    columns.len()
                )));
            }
        }
        Ok(Relation {
            columns,
            types,
            rows,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The single value of a 1x1 relation (scalar subquery result).
    pub fn scalar(&self) -> Result<Value> {
        match (self.rows.len(), self.columns.len()) {
            (0, _) => Ok(Value::Null),
            (1, 1) => Ok(self.rows[0][0].clone()),
            (r, c) => Err(SqlError::exec(format!(
                "scalar subquery returned {r}x{c} result"
            ))),
        }
    }

    /// Rows sorted by all columns — canonical form for order-insensitive
    /// comparisons in tests.
    pub fn sorted_rows(&self) -> Vec<Vec<Value>> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }

    /// Pretty-print as an aligned text table (debugging, examples).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:width$}  ", c, width = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:width$}  ", cell, width = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// A statement's result as it leaves the executor: schema plus the column
/// chunks the plan produced. The server encodes it to CSV straight from
/// the columns (`etypes::write_chunks`); embedded callers that want rows
/// take [`ResultSet::into_relation`].
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Column names in order.
    pub columns: Vec<String>,
    /// Column types in order.
    pub types: Vec<DataType>,
    /// The rows, batch by batch; every chunk is as wide as the schema.
    pub chunks: Vec<ColumnChunk>,
}

impl ResultSet {
    /// Construct, checking arity.
    pub fn new(
        columns: Vec<String>,
        types: Vec<DataType>,
        chunks: Vec<ColumnChunk>,
    ) -> Result<Self> {
        if columns.len() != types.len() {
            return Err(SqlError::exec("schema arity mismatch"));
        }
        if let Some(chunk) = chunks.iter().find(|c| c.width() != columns.len()) {
            return Err(SqlError::exec(format!(
                "row arity {} does not match schema arity {}",
                chunk.width(),
                columns.len()
            )));
        }
        Ok(ResultSet {
            columns,
            types,
            chunks,
        })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(ColumnChunk::len).sum()
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flatten to row-major tuples: the embedded [`crate::Engine::query`]
    /// result.
    pub fn into_relation(self) -> Relation {
        Relation {
            rows: crate::colexec::chunks_to_rows(&self.chunks),
            columns: self.columns,
            types: self.types,
        }
    }
}

/// Stored rows: sealed [`ColumnChunk`]s followed by a row-major tail of
/// fewer than [`BATCH_ROWS`] rows. A row's position across chunks then
/// tail is its ctid.
///
/// Row appends go to the tail, which is sealed into a chunk once it holds
/// `BATCH_ROWS` rows. A bulk load (`COPY`, `Table::load`) seals the tail
/// as it is and then seals what it loads, chunk by chunk, so a loaded text
/// column keeps the one dictionary its parser built; a base table's chunks
/// are therefore full except where a load began or ended. Materialized
/// views and CTEs are sealed whole when created and keep the chunks the
/// executor produced as they are.
///
/// Scans share the sealed chunks' columns (`Rc`), and the tail's too: the
/// first scan after the tail changed transposes it once into a cached
/// chunk (`Heap::tail_chunk`), which every later scan shares until a
/// `push`, `seal` or `truncate` drops it. The row tail itself stays the
/// stored form, because the row engine, an append's WAL record
/// ([`Heap::rows_from`]) and a snapshot read rows.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    width: usize,
    sealed: Vec<ColumnChunk>,
    sealed_rows: usize,
    tail: Vec<Row>,
    /// `tail` transposed, built by the first scan after it last changed.
    tail_chunk: OnceCell<ColumnChunk>,
}

impl Heap {
    /// An empty heap of `width` columns.
    pub fn new(width: usize) -> Heap {
        Heap {
            width,
            ..Heap::default()
        }
    }

    /// A sealed heap holding executor output as it is (empty chunks are
    /// dropped).
    pub fn from_chunks(width: usize, chunks: Vec<ColumnChunk>) -> Heap {
        let mut heap = Heap::new(width);
        heap.seal(chunks);
        heap
    }

    /// Append whole chunks as sealed chunks (empty ones dropped). A
    /// non-empty tail is sealed first, as it is, so every row keeps its
    /// position, its ctid.
    pub(crate) fn seal(&mut self, chunks: impl IntoIterator<Item = ColumnChunk>) {
        let mut chunks = chunks.into_iter().filter(|c| !c.is_empty()).peekable();
        if chunks.peek().is_some() && !self.tail.is_empty() {
            self.seal_tail();
        }
        for chunk in chunks {
            debug_assert_eq!(chunk.width(), self.width);
            self.sealed_rows += chunk.len();
            self.sealed.push(chunk);
        }
    }

    /// A sealed heap of row-engine output, one chunk per `BATCH_ROWS` rows.
    pub fn from_rows(width: usize, rows: &[Row]) -> Heap {
        let chunks = rows
            .chunks(BATCH_ROWS)
            .map(|window| ColumnChunk::from_rows(window, width))
            .collect();
        Heap::from_chunks(width, chunks)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.sealed_rows + self.tail.len()
    }

    /// True when the heap holds no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The sealed chunks, in row order.
    pub fn sealed(&self) -> &[ColumnChunk] {
        &self.sealed
    }

    /// The row-major rows after the sealed chunks.
    pub fn tail(&self) -> &[Row] {
        &self.tail
    }

    /// The tail as one chunk (`None` when it is empty): transposed by the
    /// first call after the tail last changed and shared by every later
    /// one.
    pub(crate) fn tail_chunk(&self) -> Option<&ColumnChunk> {
        if self.tail.is_empty() {
            return None;
        }
        Some(
            self.tail_chunk
                .get_or_init(|| ColumnChunk::from_rows(&self.tail, self.width)),
        )
    }

    /// Move the whole tail into a sealed chunk, reusing its cached
    /// transpose when a scan built one.
    fn seal_tail(&mut self) {
        let chunk = self
            .tail_chunk
            .take()
            .unwrap_or_else(|| ColumnChunk::from_rows(&self.tail, self.width));
        self.sealed_rows += self.tail.len();
        self.sealed.push(chunk);
        self.tail.clear();
    }

    /// Append one row (arity already checked), sealing the tail when full.
    pub fn push(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.width);
        self.tail_chunk.take();
        self.tail.push(row);
        if self.tail.len() == BATCH_ROWS {
            self.seal_tail();
        }
    }

    /// Append rows in order.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) {
        for row in rows {
            self.push(row);
        }
    }

    /// Rows `start..`, materialized (an append's WAL record).
    pub fn rows_from(&self, start: usize) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.len().saturating_sub(start));
        let mut first = 0;
        for chunk in &self.sealed {
            let end = first + chunk.len();
            if end > start {
                out.extend((start.max(first) - first..chunk.len()).map(|i| chunk.get_row(i)));
            }
            first = end;
        }
        let skip = start.saturating_sub(self.sealed_rows);
        out.extend(self.tail.iter().skip(skip).cloned());
        out
    }

    /// Every row, materialized.
    pub fn to_rows(&self) -> Vec<Row> {
        self.rows_from(0)
    }

    /// Cut back to the first `len` rows and `chunks` sealed chunks (an
    /// append's undo, given the heap's extent before the append). Every
    /// chunk sealed since is unsealed, and the rows of it below `len` go
    /// back to the tail, so the heap holds exactly the rows, in the chunks,
    /// it held before: a tail that the undone statement sealed, by a row
    /// append crossing a seal or by a bulk load sealing it first, is a
    /// tail again, as a replay of the log rebuilds it.
    pub fn truncate(&mut self, len: usize, chunks: usize) {
        self.tail_chunk.take();
        if self.sealed.len() <= chunks {
            self.tail.truncate(len - self.sealed_rows);
            return;
        }
        let unsealed = self.sealed.split_off(chunks);
        self.sealed_rows -= unsealed.iter().map(ColumnChunk::len).sum::<usize>();
        let keep = len - self.sealed_rows;
        self.tail = unsealed
            .iter()
            .flat_map(|chunk| (0..chunk.len()).map(|i| chunk.get_row(i)))
            .take(keep)
            .collect();
    }
}

/// A base table: a named heap whose row positions also serve as `ctid`
/// tuple identifiers (paper §3.1). The engine never garbage-collects or
/// reorders rows, so — unlike PostgreSQL's physical ctid — these identifiers
/// are stable for the lifetime of the table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    /// Column names in order.
    pub columns: Vec<String>,
    /// Column types in order.
    pub types: Vec<DataType>,
    /// The rows.
    pub heap: Heap,
    /// Next value per serial column (by column index).
    pub serial_next: Vec<(usize, i64)>,
}

impl Table {
    /// Create an empty table with the given schema.
    pub fn empty(name: impl Into<String>, columns: Vec<String>, types: Vec<DataType>) -> Table {
        let serial_next = types
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == DataType::Serial)
            .map(|(i, _)| (i, 1i64))
            .collect();
        Table {
            name: name.into(),
            heap: Heap::new(columns.len()),
            columns,
            types,
            serial_next,
        }
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Append a row, filling serial columns whose value is NULL.
    pub fn append(&mut self, mut row: Vec<Value>) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(SqlError::exec(format!(
                "insert arity {} does not match table {} arity {}",
                row.len(),
                self.name,
                self.columns.len()
            )));
        }
        for (c, cell) in row.iter_mut().enumerate() {
            let serial = serial_of(&mut self.serial_next, c);
            let value = std::mem::replace(cell, Value::Null);
            *cell = store_cell(&self.types[c], value, serial);
        }
        self.heap.push(row);
        Ok(())
    }

    /// Bulk-append column chunks, sealed as they come: column `k` of each
    /// chunk feeds table column `targets[k]` (the last one wins when a
    /// column is named twice), every other column is NULL. The rows are
    /// stored exactly as [`Table::append`] would store them one by one: a
    /// column whose storage already has the declared type, and that needs
    /// no serial filled, is shared as it is; any other is rebuilt cell by
    /// cell through `store_cell`, the rule `append` applies. The caller
    /// checks `targets` against the chunks' width.
    pub(crate) fn load(&mut self, targets: &[usize], chunks: &[ColumnChunk]) {
        let mut sealed = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let cols = (0..self.columns.len())
                .map(|c| {
                    let source = targets.iter().rposition(|&t| t == c);
                    self.load_column(c, source.map(|k| chunk.column(k)), chunk.len())
                })
                .collect();
            sealed.push(ColumnChunk::new(cols, chunk.len()));
        }
        self.heap.seal(sealed);
    }

    /// Table column `c` of one loaded chunk of `len` rows, from `source`
    /// (NULL without one).
    fn load_column(&mut self, c: usize, source: Option<&Rc<Column>>, len: usize) -> Rc<Column> {
        let ty = &self.types[c];
        let mut serial = serial_of(&mut self.serial_next, c);
        if let Some(col) = source {
            let fills = serial.is_some() && !col.nulls().all_valid();
            let typed = matches!(
                (col.data(), ty),
                (ColumnData::Int(_), DataType::Int | DataType::Serial)
                    | (ColumnData::Float(_), DataType::Float)
                    | (ColumnData::Bool(_), DataType::Bool)
                    | (ColumnData::Text { .. }, DataType::Text)
            );
            let all_null = col.nulls().null_count() == col.len();
            if !fills && (typed || all_null) {
                return Rc::clone(col);
            }
        }
        let cells: Vec<Value> = (0..len)
            .map(|i| {
                let cell = source.map_or(Value::Null, |col| col.get(i));
                store_cell(ty, cell, serial.as_deref_mut())
            })
            .collect();
        Rc::new(Column::from_values(&cells))
    }
}

/// The next-value counter of serial column `c`, if `c` is one.
fn serial_of(serial_next: &mut [(usize, i64)], c: usize) -> Option<&mut i64> {
    serial_next
        .iter_mut()
        .find(|(idx, _)| *idx == c)
        .map(|(_, next)| next)
}

/// A cell as a column of type `ty` stores it, the one rule for row appends
/// and bulk loads: a NULL takes the next value of `serial` (when the
/// column is a serial), any other cell is cast to `ty` where the cast
/// succeeds and kept as it is where it fails. A cell that already has the
/// column's type is kept without a cast, which would return it unchanged.
fn store_cell(ty: &DataType, cell: Value, serial: Option<&mut i64>) -> Value {
    match (cell, serial) {
        (Value::Null, Some(next)) => {
            *next += 1;
            Value::Int(*next - 1)
        }
        (Value::Null, None) => Value::Null,
        (cell, _)
            if matches!(
                (&cell, ty),
                (Value::Int(_), DataType::Int | DataType::Serial)
                    | (Value::Float(_), DataType::Float)
                    | (Value::Bool(_), DataType::Bool)
                    | (Value::Text(_), DataType::Text)
            ) =>
        {
            cell
        }
        (cell, _) => cell.cast(ty).unwrap_or(cell),
    }
}

/// A materialized view's stored result: its schema plus a sealed heap.
#[derive(Debug, Clone)]
pub struct StoredView {
    /// Column names in order.
    pub columns: Vec<String>,
    /// Column types in order.
    pub types: Vec<DataType>,
    /// The rows, sealed at creation.
    pub heap: Heap,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_arity_checked() {
        assert!(Relation::new(
            vec!["a".into()],
            vec![DataType::Int],
            vec![vec![Value::Int(1), Value::Int(2)]],
        )
        .is_err());
    }

    #[test]
    fn scalar_of_empty_is_null() {
        let r = Relation::new(vec!["a".into()], vec![DataType::Int], vec![]).unwrap();
        assert_eq!(r.scalar().unwrap(), Value::Null);
    }

    #[test]
    fn serial_fills_on_append() {
        let mut t = Table::empty(
            "t",
            vec!["index_".into(), "v".into()],
            vec![DataType::Serial, DataType::Text],
        );
        t.append(vec![Value::Null, "a".into()]).unwrap();
        t.append(vec![Value::Null, "b".into()]).unwrap();
        assert_eq!(t.heap.to_rows()[1][0], Value::Int(2));
    }

    #[test]
    fn append_coerces_declared_types() {
        let mut t = Table::empty("t", vec!["v".into()], vec![DataType::Float]);
        t.append(vec![Value::Int(3)]).unwrap();
        assert_eq!(t.heap.to_rows()[0][0], Value::Float(3.0));
    }

    fn rows(range: std::ops::Range<i64>) -> Vec<Row> {
        range
            .map(|i| vec![Value::Int(i), Value::text(format!("r{}", i % 3))])
            .collect()
    }

    #[test]
    fn heap_seals_full_tails_and_reads_back_in_order() {
        let n = 2 * BATCH_ROWS as i64 + 5;
        let mut heap = Heap::new(2);
        heap.extend(rows(0..n));
        assert_eq!(heap.sealed().len(), 2);
        assert!(heap.sealed().iter().all(|c| c.len() == BATCH_ROWS));
        assert_eq!(heap.tail().len(), 5);
        assert_eq!(heap.len(), n as usize);
        assert_eq!(heap.to_rows(), rows(0..n));
        assert_eq!(
            heap.rows_from(BATCH_ROWS - 2),
            rows(BATCH_ROWS as i64 - 2..n)
        );
        assert_eq!(heap.rows_from(n as usize), Vec::<Row>::new());
    }

    #[test]
    fn truncate_across_a_seal_restores_the_tail() {
        let before = BATCH_ROWS as i64 - 3;
        let mut heap = Heap::new(2);
        heap.extend(rows(0..before));
        let (sealed, tail) = (heap.sealed().len(), heap.tail().to_vec());
        heap.extend(rows(before..before + 10));
        assert_eq!(heap.sealed().len(), 1, "the append crossed a seal");
        heap.truncate(before as usize, sealed);
        assert_eq!((heap.sealed().len(), heap.tail()), (sealed, &tail[..]));
        assert_eq!(heap.to_rows(), rows(0..before));
        // Cutting exactly at a chunk boundary drops the whole chunk.
        heap.extend(rows(before..2 * BATCH_ROWS as i64));
        heap.truncate(BATCH_ROWS, 1);
        assert_eq!((heap.sealed().len(), heap.tail().len()), (1, 0));
        assert_eq!(heap.to_rows(), rows(0..BATCH_ROWS as i64));
    }

    #[test]
    fn truncate_unseals_a_tail_a_bulk_load_sealed() {
        // One chunk and a five-row tail, then a bulk load: the load seals
        // the tail first, and its undo makes it a tail again.
        let n = BATCH_ROWS as i64 + 5;
        let mut heap = Heap::new(2);
        heap.extend(rows(0..n));
        let before = (heap.len(), heap.sealed().len(), heap.tail().to_vec());
        heap.seal([ColumnChunk::from_rows(&rows(n..n + 3), 2)]);
        assert_eq!(heap.sealed().len(), 3, "the tail was sealed first");
        heap.truncate(before.0, before.1);
        assert_eq!(
            (heap.len(), heap.sealed().len(), heap.tail().to_vec()),
            before
        );
        assert_eq!(heap.to_rows(), rows(0..n));
        // A load into an empty tail leaves the earlier chunks as they are.
        heap.truncate(BATCH_ROWS, 1);
        heap.seal([ColumnChunk::from_rows(&rows(0..3), 2)]);
        heap.truncate(BATCH_ROWS, 1);
        assert_eq!((heap.sealed().len(), heap.tail().len()), (1, 0));
        assert_eq!(heap.to_rows(), rows(0..BATCH_ROWS as i64));
    }

    /// The columns of the heap's current tail chunk, for `Rc::ptr_eq`.
    fn tail_cols(heap: &Heap) -> Option<Vec<Rc<Column>>> {
        heap.tail_chunk().map(|c| c.columns().to_vec())
    }

    fn same_cols(a: &[Rc<Column>], b: &[Rc<Column>]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Rc::ptr_eq(x, y))
    }

    #[test]
    fn tail_chunk_is_built_once_per_change() {
        let mut heap = Heap::new(2);
        assert!(heap.tail_chunk().is_none(), "an empty tail has no chunk");
        heap.extend(rows(0..5));
        let first = tail_cols(&heap).unwrap();
        let again = tail_cols(&heap).unwrap();
        assert!(same_cols(&first, &again), "an unchanged tail is shared");
        assert_eq!(heap.tail_chunk().unwrap().to_rows(), rows(0..5));

        heap.push(rows(5..6).remove(0));
        let pushed = tail_cols(&heap).unwrap();
        assert!(!same_cols(&first, &pushed), "a push drops the chunk");
        assert_eq!(heap.tail_chunk().unwrap().to_rows(), rows(0..6));

        heap.truncate(4, 0);
        let cut = tail_cols(&heap).unwrap();
        assert!(!same_cols(&pushed, &cut), "a cut drops the chunk");
        assert_eq!(heap.tail_chunk().unwrap().to_rows(), rows(0..4));

        // A bulk seal takes the tail as it is, reusing its transpose.
        heap.seal([ColumnChunk::from_rows(&rows(4..7), 2)]);
        assert!(heap.tail_chunk().is_none());
        assert!(same_cols(&cut, heap.sealed()[0].columns()));
        assert_eq!(heap.to_rows(), rows(0..7));

        // Filling the tail seals it; a cut across that seal rebuilds the
        // tail and its chunk from the unsealed rows.
        heap.extend(rows(7..BATCH_ROWS as i64 + 14));
        assert_eq!(heap.tail().len(), 7);
        let full = tail_cols(&heap).unwrap();
        heap.push(rows(0..1).remove(0));
        assert!(heap.tail().len() == 8 && !same_cols(&full, &tail_cols(&heap).unwrap()));
        heap.truncate(BATCH_ROWS, 2);
        assert_eq!(heap.tail().len(), BATCH_ROWS - 7);
        assert_eq!(
            heap.tail_chunk().unwrap().to_rows(),
            rows(7..BATCH_ROWS as i64)
        );
        heap.truncate(7, 2);
        assert!(heap.tail_chunk().is_none(), "a cut to a chunk boundary");
        assert_eq!(heap.to_rows(), rows(0..7));
    }

    #[test]
    fn sealed_heaps_keep_chunks_as_given() {
        let chunks = vec![
            ColumnChunk::from_rows(&rows(0..3), 2),
            ColumnChunk::from_rows(&[], 2),
            ColumnChunk::from_rows(&rows(3..4), 2),
        ];
        let heap = Heap::from_chunks(2, chunks);
        assert_eq!(heap.sealed().len(), 2, "empty chunks dropped");
        assert!(heap.tail().is_empty());
        assert_eq!(heap.to_rows(), rows(0..4));
        let heap = Heap::from_rows(2, &rows(0..BATCH_ROWS as i64 + 1));
        assert_eq!((heap.sealed().len(), heap.tail().len()), (2, 0));
    }

    #[test]
    fn table_string_renders() {
        let r = Relation::new(
            vec!["a".into(), "bb".into()],
            vec![DataType::Int, DataType::Text],
            vec![vec![Value::Int(1), "x".into()]],
        )
        .unwrap();
        let s = r.to_table_string();
        assert!(s.contains("bb"));
        assert!(s.contains('x'));
    }
}
