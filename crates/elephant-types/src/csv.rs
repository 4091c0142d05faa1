//! Minimal CSV reader/writer with pandas-compatible type inference.
//!
//! The reader serves both the dataframe's `read_csv` and the SQL engine's
//! `COPY ... FROM ... WITH (FORMAT CSV)`; the column writer
//! ([`write_chunks`]) encodes served query results. Supports RFC-4180
//! quoting, custom delimiters, `na_values` (the paper's pipelines use
//! `na_values='?'`), and the "headerless first column is the pandas row
//! number" convention that the compas/adult datasets rely on (paper §6).

use crate::chunk::BATCH_ROWS;
use crate::{
    Column, ColumnChunk, ColumnData, DataType, Error, NullBitmap, Result, TextDict, Value,
};
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::fs;
use std::path::Path;
use std::rc::Rc;
use std::str::FromStr;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// First row is a header (default true).
    pub header: bool,
    /// Strings parsed as NULL in addition to the empty string.
    pub na_values: Vec<String>,
    /// Skip empty lines outside quotes, as pandas' `skip_blank_lines`
    /// does (default true). Off, an empty line is a record of one empty
    /// field, as in PostgreSQL's CSV `COPY`.
    pub skip_blank_lines: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            header: true,
            na_values: Vec::new(),
            skip_blank_lines: true,
        }
    }
}

impl CsvOptions {
    /// Add an `na_values` entry, pandas style.
    pub fn with_na(mut self, na: impl Into<String>) -> Self {
        self.na_values.push(na.into());
        self
    }
}

/// A parsed CSV file: typed columns, their cells as column chunks.
#[derive(Debug, Clone, Default)]
pub struct CsvTable {
    /// Column names (synthesised as `column_0`.. when `header=false`, except
    /// that a headerless leading row-number column is named `index_`).
    pub columns: Vec<String>,
    /// Inferred column types.
    pub types: Vec<DataType>,
    /// The data rows in chunks of at most [`BATCH_ROWS`] rows (none for a
    /// file without data rows). Int and Float columns have typed storage, a
    /// Text column one dictionary shared by all of its chunks.
    pub chunks: Vec<ColumnChunk>,
}

impl CsvTable {
    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(ColumnChunk::len).sum()
    }

    /// True when the file has no data row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of NULL cells in column `c`.
    pub fn null_count(&self, c: usize) -> usize {
        self.chunks
            .iter()
            .map(|chunk| chunk.column(c).nulls().null_count())
            .sum()
    }

    /// Column `c`'s cells in row order.
    pub fn column_values(&self, c: usize) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.len());
        for chunk in &self.chunks {
            let col = chunk.column(c);
            out.extend((0..col.len()).map(|i| col.get(i)));
        }
        out
    }

    /// Every data row, materialized.
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.chunks.iter().flat_map(ColumnChunk::to_rows).collect()
    }
}

/// Read and type-infer a CSV file from disk.
pub fn read_csv(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<CsvTable> {
    let text = fs::read_to_string(path.as_ref())?;
    read_csv_str(&text, opts)
}

/// Read and type-infer CSV content from a string.
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<CsvTable> {
    parse(text, opts, usize::MAX)
}

/// [`read_csv_str`] over the first `rows` data records only: a schema
/// sample. The text after them is not read, so a quoted field spanning
/// lines is sampled whole and a malformed tail is not noticed.
pub fn read_csv_head(text: &str, opts: &CsvOptions, rows: usize) -> Result<CsvTable> {
    parse(text, opts, rows.saturating_add(usize::from(opts.header)))
}

/// Parse at most `limit` records (the header included) into a typed table.
fn parse(text: &str, opts: &CsvOptions, limit: usize) -> Result<CsvTable> {
    let Records { fields, ends } = split_records(text, opts, limit)?;
    if ends.is_empty() {
        return Ok(CsvTable::default());
    }
    let bounds = |r: usize| if r == 0 { 0 } else { ends[r - 1] }..ends[r];
    let width_from = |first: usize| (first..ends.len()).map(|r| bounds(r).len()).max();
    let (columns, first) = if opts.header {
        let mut columns: Vec<String> = fields[bounds(0)].iter().map(|f| f.to_string()).collect();
        // The mlinspect compas/adult CSVs carry an unnamed leading column of
        // pandas row numbers: the header has one fewer field than the data.
        if width_from(1) == Some(columns.len() + 1) {
            columns.insert(0, "index_".to_string());
        }
        (columns, 1)
    } else {
        let width = width_from(0).unwrap_or(0);
        ((0..width).map(|i| format!("column_{i}")).collect(), 0)
    };
    let ncols = columns.len();
    if let Some(bad) = (first..ends.len())
        .map(|r| bounds(r).len())
        .find(|&n| n != ncols)
    {
        return Err(Error::Csv(format!(
            "row has {bad} fields, expected {ncols}"
        )));
    }

    // Every data record has `ncols` fields, so cell (r, c) sits at
    // `r * ncols + c` past the header.
    let data = &fields[if opts.header { ends[0] } else { 0 }..];
    let nrows = ends.len() - first;
    let is_na = |f: &str| f.is_empty() || opts.na_values.iter().any(|na| na == f);
    let mut types = Vec::with_capacity(ncols);
    let mut batches = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let cells: Vec<Option<&str>> = (0..nrows)
            .map(|r| Some(&*data[r * ncols + c]).filter(|f| !is_na(f)))
            .collect();
        let (ty, column) = typed_batches(&cells);
        types.push(ty);
        batches.push(column.into_iter());
    }
    let chunks = (0..nrows.div_ceil(BATCH_ROWS))
        .map(|k| {
            let len = (nrows - k * BATCH_ROWS).min(BATCH_ROWS);
            let cols = batches
                .iter_mut()
                .map(|column| Rc::new(column.next().expect("one batch per chunk")))
                .collect();
            ColumnChunk::new(cols, len)
        })
        .collect();
    Ok(CsvTable {
        columns,
        types,
        chunks,
    })
}

/// Type one column the way pandas infers it — Int when every non-NULL cell
/// parses as `i64` once trimmed, else Float when every one parses as
/// `f64`, else Text (also when every cell is NULL) — and cut it into
/// columns of at most [`BATCH_ROWS`] rows. Text keeps cells untrimmed and
/// codes them into one dictionary that every batch shares.
fn typed_batches(cells: &[Option<&str>]) -> (DataType, Vec<Column>) {
    if cells.iter().any(Option::is_some) {
        if let Some(ints) = parse_all(cells) {
            return (DataType::Int, batches(cells, ints, ColumnData::Int));
        }
        if let Some(floats) = parse_all(cells) {
            return (DataType::Float, batches(cells, floats, ColumnData::Float));
        }
    }
    let (dict, codes) = TextDict::code_all(cells.iter().copied());
    let text = |codes| ColumnData::Text {
        dict: Rc::clone(&dict),
        codes,
    };
    (DataType::Text, batches(cells, codes, text))
}

/// Every non-NULL cell parsed (NULL cells hold the default), or `None`
/// when one does not parse.
fn parse_all<T: FromStr + Default>(cells: &[Option<&str>]) -> Option<Vec<T>> {
    cells
        .iter()
        .map(|c| c.map_or(Some(T::default()), |s| s.trim().parse().ok()))
        .collect()
}

/// Cut one column's dense `values` into columns of at most [`BATCH_ROWS`]
/// rows, NULL where `cells` is `None`.
fn batches<T: Clone>(
    cells: &[Option<&str>],
    values: Vec<T>,
    data: impl Fn(Vec<T>) -> ColumnData,
) -> Vec<Column> {
    cells
        .chunks(BATCH_ROWS)
        .zip(values.chunks(BATCH_ROWS))
        .map(|(cells, values)| {
            let mut nulls = NullBitmap::new_valid(cells.len());
            for (i, _) in cells.iter().enumerate().filter(|(_, c)| c.is_none()) {
                nulls.set_null(i);
            }
            Column::new(data(values.to_vec()), nulls)
        })
        .collect()
}

/// A CSV text cut into fields: each borrows its span of the text unless it
/// was quoted or held a `\r`; record `r` is `fields[ends[r - 1]..ends[r]]`.
struct Records<'a> {
    fields: Vec<Cow<'a, str>>,
    ends: Vec<usize>,
}

/// Cut `text` into at most `limit` records. RFC 4180 quoting: a quote may
/// open anywhere in a field and `""` inside quotes is one quote; an
/// unquoted `\r` is dropped. An empty line outside quotes is skipped under
/// [`CsvOptions::skip_blank_lines`], but a line holding `""` is a record
/// of one empty field.
fn split_records<'a>(text: &'a str, opts: &CsvOptions, limit: usize) -> Result<Records<'a>> {
    let bytes = text.as_bytes();
    let mut utf8 = [0u8; 4];
    let delim = opts.delimiter.encode_utf8(&mut utf8).as_bytes();
    let mut special = [false; 256];
    for b in [b'"', b'\r', b'\n', delim[0]] {
        special[usize::from(b)] = true;
    }
    let mut out = Records {
        fields: Vec::new(),
        ends: Vec::new(),
    };
    // The current field starts at `start`; `plain` while it is a verbatim
    // span, `blank` while the current line has nothing but `\r`.
    let (mut start, mut plain, mut blank) = (0, true, true);
    let mut i = 0;
    while i < bytes.len() && out.ends.len() < limit {
        let b = bytes[i];
        if !special[usize::from(b)] {
            blank = false;
            i += 1;
            continue;
        }
        match b {
            b'"' => {
                (plain, blank) = (false, false);
                // Skip to the closing quote; `""` stays inside.
                loop {
                    let Some(k) = bytes[i + 1..].iter().position(|&c| c == b'"') else {
                        return Err(Error::Csv("unterminated quoted field".to_string()));
                    };
                    i += k + 2;
                    if bytes.get(i) != Some(&b'"') {
                        break;
                    }
                }
            }
            _ if bytes[i..].starts_with(delim) => {
                out.push_field(text, start..i, plain);
                i += delim.len();
                (start, plain, blank) = (i, true, false);
            }
            b'\r' => {
                plain = false;
                i += 1;
            }
            b'\n' => {
                if !blank || !opts.skip_blank_lines {
                    out.push_field(text, start..i, plain);
                    out.ends.push(out.fields.len());
                }
                i += 1;
                (start, plain, blank) = (i, true, true);
            }
            // The lead byte of a multi-byte delimiter, not followed by the rest.
            _ => {
                blank = false;
                i += 1;
            }
        }
    }
    if !blank && out.ends.len() < limit {
        out.push_field(text, start..bytes.len(), plain);
        out.ends.push(out.fields.len());
    }
    Ok(out)
}

impl<'a> Records<'a> {
    /// Add the field spanning `span` of `text`, unquoted unless `plain`.
    fn push_field(&mut self, text: &'a str, span: std::ops::Range<usize>, plain: bool) {
        let raw = &text[span];
        self.fields.push(if plain {
            Cow::Borrowed(raw)
        } else {
            Cow::Owned(unquote(raw))
        });
    }
}

/// The value of a field span holding quotes or `\r`s: quotes open and close,
/// `""` inside quotes is one quote, an unquoted `\r` is dropped.
fn unquote(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut in_quotes = false;
    let mut chars = raw.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                chars.next();
                out.push('"');
            }
            '"' => in_quotes = !in_quotes,
            '\r' if !in_quotes => {}
            c => out.push(c),
        }
    }
    out
}

/// Serialize rows to CSV text: a header line, then one line per row, NULL
/// as an empty field. The row-major reference that tests compare
/// [`write_chunks`] against.
pub fn write_csv(columns: &[String], rows: &[Vec<Value>], delimiter: char) -> String {
    let mut out = String::new();
    push_header(&mut out, columns, delimiter);
    for row in rows {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                out.push(delimiter);
            }
            if !v.is_null() {
                push_field(&mut out, &v.to_string(), delimiter);
            }
        }
        out.push('\n');
    }
    out
}

/// Serialize a result held as column chunks to comma-separated CSV, byte
/// for byte what [`write_csv`] writes for the same rows with `,`, without
/// materializing a row. Int, Float and Bool cells are formatted straight
/// into the output (their `Display` never writes a character that needs
/// quoting), Text cells are copied from their dictionary, and Generic
/// cells render through one reused scratch buffer.
pub fn write_chunks(columns: &[String], chunks: &[ColumnChunk]) -> String {
    let mut out = String::new();
    let mut scratch = String::new();
    push_header(&mut out, columns, ',');
    for chunk in chunks {
        let cols = chunk.columns();
        for row in 0..chunk.len() {
            for (i, col) in cols.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if col.is_null(row) {
                    continue;
                }
                // Writing into a `String` cannot fail.
                let _ = match col.data() {
                    ColumnData::Int(v) => write!(out, "{}", v[row]),
                    ColumnData::Float(v) => write!(out, "{}", v[row]),
                    ColumnData::Bool(v) => write!(out, "{}", v[row]),
                    ColumnData::Text { dict, codes } => {
                        push_field(&mut out, dict.get(codes[row]), ',');
                        Ok(())
                    }
                    ColumnData::List { offsets, values } => {
                        scratch.clear();
                        let written = write_list(&mut scratch, offsets, values, row);
                        push_field(&mut out, &scratch, ',');
                        written
                    }
                    ColumnData::Generic(v) => {
                        scratch.clear();
                        let written = write!(scratch, "{}", v[row]);
                        push_field(&mut out, &scratch, ',');
                        written
                    }
                };
            }
            out.push('\n');
        }
    }
    out
}

/// Row `row` of a list column as `Value::Array`'s `Display` writes it
/// (`{0,1,0}`, a NULL element empty), straight from the child's storage.
fn write_list(out: &mut String, offsets: &[u32], values: &Column, row: usize) -> fmt::Result {
    out.push('{');
    for (k, j) in Column::list_range(offsets, row).enumerate() {
        if k > 0 {
            out.push(',');
        }
        if values.is_null(j) {
            continue;
        }
        match values.data() {
            ColumnData::Int(v) => write!(out, "{}", v[j])?,
            ColumnData::Float(v) => write!(out, "{}", v[j])?,
            ColumnData::Bool(v) => write!(out, "{}", v[j])?,
            ColumnData::Text { dict, codes } => out.push_str(dict.get(codes[j])),
            _ => write!(out, "{}", values.get(j))?,
        }
    }
    out.push('}');
    Ok(())
}

fn push_header(out: &mut String, columns: &[String], delimiter: char) {
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            out.push(delimiter);
        }
        push_field(out, c, delimiter);
    }
    out.push('\n');
}

/// Append one field, quoted when it holds the delimiter, a quote or a line
/// break (`\n` or `\r` — [`read_csv_str`] drops an unquoted `\r`), with
/// inner quotes doubled (RFC 4180).
fn push_field(out: &mut String, s: &str, delimiter: char) {
    let special = |c: char| c == delimiter || matches!(c, '"' | '\n' | '\r');
    // An ASCII delimiter never matches inside a multi-byte character, so
    // the common case scans bytes.
    let quote = if delimiter.is_ascii() {
        s.bytes().any(|b| special(b as char))
    } else {
        s.contains(special)
    };
    if !quote {
        out.push_str(s);
        return;
    }
    out.push('"');
    for (i, part) in s.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::page_tag;

    #[test]
    fn infers_int_float_text() {
        let t = read_csv_str("a,b,c\n1,1.5,x\n2,2.5,y\n", &CsvOptions::default()).unwrap();
        assert_eq!(
            t.types,
            vec![DataType::Int, DataType::Float, DataType::Text]
        );
        assert_eq!(
            t.to_rows()[0],
            vec![Value::Int(1), Value::Float(1.5), "x".into()]
        );
    }

    #[test]
    fn na_values_become_null() {
        let opts = CsvOptions::default().with_na("?");
        let t = read_csv_str("a,b\n?,1\n,2\n", &opts).unwrap();
        assert_eq!(t.to_rows()[0][0], Value::Null);
        assert_eq!(t.to_rows()[1][0], Value::Null);
        // Column of all-null infers Text.
        assert_eq!(t.types[0], DataType::Text);
    }

    #[test]
    fn nulls_do_not_break_numeric_inference() {
        let opts = CsvOptions::default().with_na("?");
        let t = read_csv_str("a\n1\n?\n3\n", &opts).unwrap();
        assert_eq!(t.types[0], DataType::Int);
        assert_eq!(t.to_rows()[1][0], Value::Null);
    }

    #[test]
    fn quoted_fields_with_delimiters() {
        let t = read_csv_str(
            "name,notes\n\"Doe, John\",\"said \"\"hi\"\"\"\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.to_rows()[0][0], "Doe, John".into());
        assert_eq!(t.to_rows()[0][1], "said \"hi\"".into());
    }

    #[test]
    fn headerless_row_number_column_detected() {
        // compas/adult style: 2-field header, 3-field rows.
        let t = read_csv_str("age,sex\n0,25,m\n1,31,f\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.columns, vec!["index_", "age", "sex"]);
        assert_eq!(
            t.to_rows()[1],
            vec![Value::Int(1), Value::Int(31), "f".into()]
        );
    }

    #[test]
    fn round_trip_write_read() {
        let cols = vec!["a".to_string(), "b".to_string()];
        let rows = vec![
            vec![Value::Int(1), Value::text("x,y")],
            vec![Value::Null, Value::text("plain")],
        ];
        let text = write_csv(&cols, &rows, ',');
        let t = read_csv_str(&text, &CsvOptions::default()).unwrap();
        assert_eq!(t.to_rows()[0][1], "x,y".into());
        assert_eq!(t.to_rows()[1][0], Value::Null);
    }

    #[test]
    fn carriage_returns_round_trip() {
        let cols = vec!["s".to_string()];
        let rows = vec![vec![Value::text("a\rb")], vec![Value::text("c\r\nd")]];
        let text = write_csv(&cols, &rows, ',');
        assert_eq!(text, "s\n\"a\rb\"\n\"c\r\nd\"\n");
        assert_eq!(
            read_csv_str(&text, &CsvOptions::default())
                .unwrap()
                .to_rows(),
            rows
        );
    }

    /// Encode `rows` from chunks of at most `per_chunk` rows (each with its
    /// own text dictionary) and row by row: the bytes must agree.
    fn same_bytes(columns: &[&str], rows: &[Vec<Value>], per_chunk: usize) -> String {
        let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
        let chunks: Vec<ColumnChunk> = if rows.is_empty() {
            vec![ColumnChunk::from_rows(&[], columns.len())]
        } else {
            rows.chunks(per_chunk)
                .map(|w| ColumnChunk::from_rows(w, columns.len()))
                .collect()
        };
        let text = write_chunks(&columns, &chunks);
        assert_eq!(text, write_csv(&columns, rows, ','));
        text
    }

    fn column(cells: &[Value]) -> Vec<Vec<Value>> {
        cells.iter().map(|c| vec![c.clone()]).collect()
    }

    #[test]
    fn chunk_encoder_matches_row_encoder_per_storage() {
        let ints = column(&[
            Value::Int(1),
            Value::Int(-7),
            Value::Null,
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
        ]);
        let floats = column(&[
            Value::Float(-0.5),
            Value::Float(1.25),
            Value::Float(0.1 + 0.2),
            Value::Float(1e300),
            Value::Float(-2.0),
            Value::Float(-0.0),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(f64::NEG_INFINITY),
        ]);
        let bools = column(&[Value::Bool(true), Value::Null, Value::Bool(false)]);
        let texts = column(&[
            Value::text("a,b"),
            Value::text("say \"hi\""),
            Value::text("two\nlines"),
            Value::text("cr\rhere"),
            Value::text(""),
            Value::Null,
            Value::text("plain"),
            Value::text("héllo"),
        ]);
        let arrays = column(&[
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
            Value::Null,
            Value::Array(vec![Value::text("x"), Value::Null]),
            Value::Array(Vec::new()),
        ]);
        let mixed = column(&[
            Value::Int(3),
            Value::text("t,u"),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Null,
        ]);
        let all_null = column(&[Value::Null, Value::Null]);
        // Arrays of one element type are list columns; their rows render
        // exactly as the generic cells do.
        let list = |v: &[i64]| Value::Array(v.iter().map(|&x| Value::Int(x)).collect());
        let int_lists = column(&[
            list(&[0, 1, 0]),
            Value::Null,
            list(&[]),
            Value::Array(vec![Value::Null, Value::Int(-3)]),
        ]);
        let text_lists = column(&[
            Value::Array(vec![
                Value::text("a,b"),
                Value::text("say \"x\""),
                Value::Null,
            ]),
            Value::Array(vec![Value::text("")]),
        ]);
        let float_lists = column(&[Value::Array(vec![
            Value::Float(0.5),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
        ])]);
        for rows in [&int_lists, &text_lists, &float_lists] {
            let chunk = ColumnChunk::from_rows(rows, 1);
            assert!(matches!(chunk.column(0).data(), ColumnData::List { .. }));
            same_bytes(&["l"], rows, 1024);
            same_bytes(&["l"], rows, 1);
        }
        for (rows, tag) in [
            (&ints, page_tag::INT),
            (&floats, page_tag::FLOAT),
            (&bools, page_tag::BOOL),
            (&texts, page_tag::TEXT),
            (&arrays, page_tag::GENERIC),
            (&mixed, page_tag::GENERIC),
            (&all_null, page_tag::GENERIC),
        ] {
            assert_eq!(ColumnChunk::from_rows(rows, 1).column(0).data().tag(), tag);
            same_bytes(&["c"], rows, 1024);
        }
        // `''` and NULL both render as an empty field.
        assert_eq!(
            same_bytes(&["s"], &column(&[Value::text(""), Value::Null]), 1024),
            "s\n\n\n"
        );
    }

    #[test]
    fn chunk_encoder_matches_across_chunks_and_edge_shapes() {
        let rows: Vec<Vec<Value>> = (0..9)
            .map(|i| {
                vec![
                    Value::Int(i),
                    if i % 4 == 3 {
                        Value::Null
                    } else {
                        Value::text(format!("n{},{}", i % 3, i))
                    },
                    Value::Float(i as f64 / 4.0),
                    Value::Bool(i % 2 == 0),
                ]
            })
            .collect();
        // Chunks of 2 rows: five chunks, five different text dictionaries.
        let text = same_bytes(&["id", "name", "x", "flag"], &rows, 2);
        assert!(
            text.starts_with("id,name,x,flag\n0,\"n0,0\",0,true\n"),
            "{text}"
        );
        // Zero rows: the header only.
        assert_eq!(same_bytes(&["a", "b"], &[], 1024), "a,b\n");
        // A header that needs quoting.
        assert_eq!(
            same_bytes(&["a,b", "say \"x\"", "c"], &[], 1024),
            "\"a,b\",\"say \"\"x\"\"\",c\n"
        );
    }

    #[test]
    fn header_only_and_empty_inputs() {
        let t = read_csv_str("a,b\n", &CsvOptions::default()).unwrap();
        assert_eq!((t.columns.len(), t.len(), t.chunks.len()), (2, 0, 0));
        assert_eq!(t.types, [DataType::Text, DataType::Text]);
        for text in ["", "\n\n", "\r\n"] {
            let t = read_csv_str(text, &CsvOptions::default()).unwrap();
            assert!(t.columns.is_empty() && t.is_empty(), "{text:?}");
        }
    }

    #[test]
    fn ragged_row_is_error() {
        assert!(read_csv_str("a,b\n1\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn no_header_mode() {
        let opts = CsvOptions {
            header: false,
            ..Default::default()
        };
        let t = read_csv_str("1,2\n3,4\n", &opts).unwrap();
        assert_eq!(t.columns, vec!["column_0", "column_1"]);
        assert_eq!(t.len(), 2);
    }

    fn rows_of(text: &str) -> Result<Vec<Vec<Value>>> {
        read_csv_str(text, &CsvOptions::default()).map(|t| t.to_rows())
    }

    #[test]
    fn blank_lines_are_skipped_like_pandas() {
        let ints = |cells: &[i64]| -> Vec<Vec<Value>> {
            cells.iter().map(|&i| vec![Value::Int(i)]).collect()
        };
        let pairs = vec![
            vec![Value::Int(1), Value::Int(2)],
            vec![Value::Int(3), Value::Int(4)],
        ];
        assert_eq!(rows_of("a,b\n1,2\n\n3,4\n").unwrap(), pairs);
        assert_eq!(rows_of("a,b\n1,2\n3,4\n\n\n").unwrap(), pairs);
        assert_eq!(rows_of("a\n1\n\n2\n").unwrap(), ints(&[1, 2]));
        // CRLF blank lines too; a quoted empty field is still a record.
        assert_eq!(rows_of("a\r\n1\r\n\r\n2\r\n").unwrap(), ints(&[1, 2]));
        let t = read_csv_str("a\nx\n\"\"\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.to_rows(), vec![vec![Value::text("x")], vec![Value::Null]]);
        // A blank line inside quotes is part of the field.
        assert_eq!(
            rows_of("a\n\"p\n\nq\"\n").unwrap(),
            vec![vec![Value::text("p\n\nq")]]
        );
        // Not skipped, a blank line is a record of one empty field.
        let keep = CsvOptions {
            skip_blank_lines: false,
            ..Default::default()
        };
        let t = read_csv_str("a\n1\n\n2\n", &keep).unwrap();
        assert_eq!(
            t.to_rows(),
            vec![vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(2)]]
        );
        assert!(read_csv_str("a,b\n1,2\n\n3,4\n", &keep).is_err());
        assert_eq!(read_csv_str("a,b\n1,2\n3,4\n", &keep).unwrap().len(), 2);
    }

    #[test]
    fn chunks_are_cut_at_batch_rows_and_share_one_dictionary() {
        let n = 2 * BATCH_ROWS + 5;
        let mut text = String::from("id,x,s,e\n");
        for i in 0..n {
            let s = if i % 7 == 0 {
                "?".to_string()
            } else {
                format!("s{}", i % 3)
            };
            text.push_str(&format!("{i}, {}.5,{s},\n", i % 4));
        }
        let t = read_csv_str(&text, &CsvOptions::default().with_na("?")).unwrap();
        assert_eq!(
            t.types,
            [
                DataType::Int,
                DataType::Float,
                DataType::Text,
                DataType::Text
            ]
        );
        let lens: Vec<usize> = t.chunks.iter().map(ColumnChunk::len).collect();
        assert_eq!(lens, [BATCH_ROWS, BATCH_ROWS, 5]);
        assert_eq!(t.len(), n);
        let dict = |chunk: &ColumnChunk| match chunk.column(2).data() {
            ColumnData::Text { dict, .. } => Rc::clone(dict),
            other => panic!("expected text storage, got {other:?}"),
        };
        assert!(t
            .chunks
            .iter()
            .all(|c| Rc::ptr_eq(&dict(c), &dict(&t.chunks[0]))));
        assert_eq!(dict(&t.chunks[0]).len(), 3, "one entry per distinct string");
        assert_eq!(t.null_count(2), n.div_ceil(7));
        assert_eq!(t.null_count(3), n, "an all-empty column is all NULL");
        let rows = t.to_rows();
        assert_eq!(rows[BATCH_ROWS + 1][0], Value::Int(BATCH_ROWS as i64 + 1));
        assert_eq!(rows[3][1], Value::Float(3.5), "numbers are trimmed");
        assert_eq!(rows[7][2], Value::Null);
        assert_eq!(rows[8][2], Value::text("s2"));
        assert_eq!(t.column_values(0).len(), n);
    }

    #[test]
    fn head_samples_whole_records() {
        let mut text = String::from("id,s,t\n");
        for i in 0..20 {
            let t = if i == 9 { "\"two\nlines\"" } else { "one" };
            text.push_str(&format!("{i},r{},{t}\n", i % 2));
        }
        text.push_str("20,\"unterminated\n");
        assert!(read_csv_str(&text, &CsvOptions::default()).is_err());
        let head = read_csv_head(&text, &CsvOptions::default(), 10).unwrap();
        assert_eq!(head.len(), 10);
        assert_eq!(head.to_rows()[9][2], Value::text("two\nlines"));
        let opts = CsvOptions {
            header: false,
            ..Default::default()
        };
        assert_eq!(read_csv_head(&text, &opts, 2).unwrap().len(), 2);
    }

    #[test]
    fn multi_byte_delimiters_and_partial_quotes() {
        let opts = CsvOptions {
            delimiter: '¦',
            ..Default::default()
        };
        let t = read_csv_str("a¦b\n1¦é¦2¦3\n", &opts);
        assert!(t.is_err(), "four fields under a two-field header");
        let t = read_csv_str("a¦b\né¦x\"¦\"y\n", &opts).unwrap();
        assert_eq!(
            t.to_rows(),
            vec![vec![Value::text("é"), Value::text("x¦y")]]
        );
    }
}
