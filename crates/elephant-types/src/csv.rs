//! Minimal CSV reader/writer with pandas-compatible type inference.
//!
//! The reader serves both the dataframe's `read_csv` and the SQL engine's
//! `COPY ... FROM ... WITH (FORMAT CSV)`; the column writer
//! ([`write_chunks`]) encodes served query results. Supports RFC-4180
//! quoting, custom delimiters, `na_values` (the paper's pipelines use
//! `na_values='?'`), and the "headerless first column is the pandas row
//! number" convention that the compas/adult datasets rely on (paper §6).

use crate::{ColumnChunk, ColumnData, DataType, Error, Result, Value};
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// First row is a header (default true).
    pub header: bool,
    /// Strings parsed as NULL in addition to the empty string.
    pub na_values: Vec<String>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            header: true,
            na_values: Vec::new(),
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

/// A parsed CSV file: typed columns plus cells.
#[derive(Debug, Clone)]
pub struct CsvTable {
    /// Column names (synthesised as `column_0`.. when `header=false`, except
    /// that a headerless leading row-number column is named `index_`).
    pub columns: Vec<String>,
    /// Inferred column types.
    pub types: Vec<DataType>,
    /// Row-major cells.
    pub rows: Vec<Vec<Value>>,
}

/// Read and type-infer a CSV file from disk.
pub fn read_csv(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<CsvTable> {
    let text = fs::read_to_string(path.as_ref())?;
    read_csv_str(&text, opts)
}

/// Read and type-infer CSV content from a string.
pub fn read_csv_str(text: &str, opts: &CsvOptions) -> Result<CsvTable> {
    let mut records = parse_records(text, opts.delimiter)?;
    if records.is_empty() {
        return Ok(CsvTable {
            columns: Vec::new(),
            types: Vec::new(),
            rows: Vec::new(),
        });
    }
    let mut columns: Vec<String>;
    if opts.header {
        let header = records.remove(0);
        columns = header;
        let width = records.iter().map(Vec::len).max().unwrap_or(columns.len());
        // The mlinspect compas/adult CSVs carry an unnamed leading column of
        // pandas row numbers: the header has one fewer field than the data.
        if width == columns.len() + 1 {
            columns.insert(0, "index_".to_string());
        }
    } else {
        let width = records.iter().map(Vec::len).max().unwrap_or(0);
        columns = (0..width).map(|i| format!("column_{i}")).collect();
    }

    let ncols = columns.len();
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(records.len());
    for rec in &records {
        if rec.len() != ncols {
            return Err(Error::Csv(format!(
                "row has {} fields, expected {ncols}",
                rec.len()
            )));
        }
        let row = rec
            .iter()
            .map(|field| raw_value(field, opts))
            .collect::<Vec<_>>();
        rows.push(row);
    }

    let types = infer_types(&rows, ncols);
    for row in &mut rows {
        for (cell, ty) in row.iter_mut().zip(&types) {
            *cell = coerce(cell, ty);
        }
    }
    Ok(CsvTable {
        columns,
        types,
        rows,
    })
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

fn raw_value(field: &str, opts: &CsvOptions) -> Value {
    if field.is_empty() || opts.na_values.iter().any(|na| na == field) {
        Value::Null
    } else {
        Value::Text(field.to_string())
    }
}

fn infer_types(rows: &[Vec<Value>], ncols: usize) -> Vec<DataType> {
    (0..ncols)
        .map(|c| {
            let mut saw_any = false;
            let mut all_int = true;
            let mut all_float = true;
            for row in rows {
                let Value::Text(s) = &row[c] else { continue };
                saw_any = true;
                let t = s.trim();
                if t.parse::<i64>().is_err() {
                    all_int = false;
                }
                if t.parse::<f64>().is_err() {
                    all_float = false;
                    break;
                }
            }
            if !saw_any {
                DataType::Text
            } else if all_int {
                DataType::Int
            } else if all_float {
                DataType::Float
            } else {
                DataType::Text
            }
        })
        .collect()
}

fn coerce(v: &Value, ty: &DataType) -> Value {
    match v {
        Value::Text(s) => match ty {
            DataType::Int => Value::Int(s.trim().parse().unwrap_or_default()),
            DataType::Float => Value::Float(s.trim().parse().unwrap_or_default()),
            _ => v.clone(),
        },
        other => other.clone(),
    }
}

fn parse_records(text: &str, delim: char) -> Result<Vec<Vec<String>>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = text.chars().peekable();
    let mut saw_anything = false;

    while let Some(ch) = chars.next() {
        saw_anything = true;
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                c => field.push(c),
            }
        } else {
            match ch {
                '"' => in_quotes = true,
                c if c == delim => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                c => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(Error::Csv("unterminated quoted field".to_string()));
    }
    if saw_anything && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    Ok(records)
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
            t.rows[0],
            vec![Value::Int(1), Value::Float(1.5), "x".into()]
        );
    }

    #[test]
    fn na_values_become_null() {
        let opts = CsvOptions::default().with_na("?");
        let t = read_csv_str("a,b\n?,1\n,2\n", &opts).unwrap();
        assert_eq!(t.rows[0][0], Value::Null);
        assert_eq!(t.rows[1][0], Value::Null);
        // Column of all-null infers Text.
        assert_eq!(t.types[0], DataType::Text);
    }

    #[test]
    fn nulls_do_not_break_numeric_inference() {
        let opts = CsvOptions::default().with_na("?");
        let t = read_csv_str("a\n1\n?\n3\n", &opts).unwrap();
        assert_eq!(t.types[0], DataType::Int);
        assert_eq!(t.rows[1][0], Value::Null);
    }

    #[test]
    fn quoted_fields_with_delimiters() {
        let t = read_csv_str(
            "name,notes\n\"Doe, John\",\"said \"\"hi\"\"\"\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.rows[0][0], "Doe, John".into());
        assert_eq!(t.rows[0][1], "said \"hi\"".into());
    }

    #[test]
    fn headerless_row_number_column_detected() {
        // compas/adult style: 2-field header, 3-field rows.
        let t = read_csv_str("age,sex\n0,25,m\n1,31,f\n", &CsvOptions::default()).unwrap();
        assert_eq!(t.columns, vec!["index_", "age", "sex"]);
        assert_eq!(t.rows[1], vec![Value::Int(1), Value::Int(31), "f".into()]);
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
        assert_eq!(t.rows[0][1], "x,y".into());
        assert_eq!(t.rows[1][0], Value::Null);
    }

    #[test]
    fn carriage_returns_round_trip() {
        let cols = vec!["s".to_string()];
        let rows = vec![vec![Value::text("a\rb")], vec![Value::text("c\r\nd")]];
        let text = write_csv(&cols, &rows, ',');
        assert_eq!(text, "s\n\"a\rb\"\n\"c\r\nd\"\n");
        assert_eq!(
            read_csv_str(&text, &CsvOptions::default()).unwrap().rows,
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
        assert_eq!(t.rows.len(), 2);
    }
}
