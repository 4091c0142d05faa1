#![warn(missing_docs)]
//! Shared scalar types for the Blue Elephants workspace.
//!
//! Every layer of the system — the pandas-like `dataframe` baseline, the
//! SQL engine, the scikit-learn re-implementation and the mlinspect core —
//! speaks the same scalar language: [`Value`] cells typed by [`DataType`],
//! with SQL-style null semantics. This crate also owns the CSV reader/writer
//! used both by the `pandas.read_csv` emulation and by the engine's `COPY`.

pub mod binary;
pub mod chunk;
pub mod csv;
pub mod datatype;
pub mod error;
pub mod fault;
pub mod rng;
pub mod span;
pub mod value;

pub use binary::ByteReader;
pub use chunk::{Column, ColumnChunk, ColumnData, NullBitmap, TextDict};
pub use csv::{
    read_csv, read_csv_head, read_csv_str, write_chunks, write_csv, CsvOptions, CsvTable,
};
pub use datatype::DataType;
pub use error::{Error, Result};
pub use rng::Prng;
pub use span::{
    bucket_index, next_span_id, Histogram, SharedSpanRing, Span, SpanKind, SpanRecord, SpanRing,
    TraceContext, HIST_BUCKETS,
};
pub use value::Value;
