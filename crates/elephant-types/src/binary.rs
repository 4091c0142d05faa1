//! Binary encoding of [`Value`] and [`DataType`] cells.
//!
//! The durable storage layer (`elephant-store`) serializes cells into WAL
//! records and snapshot pages; both sides of that pipe live here so every
//! crate agrees on one byte format. The encoding is little-endian,
//! tag-prefixed, and self-describing per value:
//!
//! ```text
//! value   := tag:u8 payload
//! tag 0   : NULL                (no payload)
//! tag 1   : Bool                u8 (0/1)
//! tag 2   : Int                 i64 LE
//! tag 3   : Float               f64 bit pattern LE (NaN payloads preserved)
//! tag 4   : Text                u32 LE byte length + UTF-8 bytes
//! tag 5   : Array               u32 LE element count + elements
//!
//! dtype   := tag:u8 [elem-dtype when tag = 5]
//! tag 0..4: Int Float Text Bool Serial ; tag 5: Array(elem)
//! ```

use crate::{DataType, Error, Result, Value};

/// Append a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `i64` little-endian.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its IEEE-754 bit pattern (round-trips NaN payloads
/// and signed zeros exactly).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append one tagged [`Value`].
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Value::Int(i) => {
            buf.push(2);
            put_i64(buf, *i);
        }
        Value::Float(f) => {
            buf.push(3);
            put_f64(buf, *f);
        }
        Value::Text(s) => {
            buf.push(4);
            put_str(buf, s);
        }
        Value::Array(items) => {
            buf.push(5);
            put_u32(buf, items.len() as u32);
            for item in items {
                put_value(buf, item);
            }
        }
    }
}

/// Append one tagged [`DataType`].
pub fn put_datatype(buf: &mut Vec<u8>, t: &DataType) {
    match t {
        DataType::Int => buf.push(0),
        DataType::Float => buf.push(1),
        DataType::Text => buf.push(2),
        DataType::Bool => buf.push(3),
        DataType::Serial => buf.push(4),
        DataType::Array(elem) => {
            buf.push(5);
            put_datatype(buf, elem);
        }
    }
}

/// A bounds-checked reader over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

fn truncated(what: &'static str) -> Error {
    Error::Codec(format!("truncated input reading {what}"))
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a `u32` little-endian.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a `u64` little-endian.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read an `i64` little-endian.
    pub fn i64(&mut self) -> Result<i64> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        let b = self.take(8, "f64")?;
        Ok(f64::from_bits(u64::from_le_bytes(
            b.try_into().expect("8 bytes"),
        )))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        self.str_ref().map(str::to_string)
    }

    /// Read a length-prefixed UTF-8 string, borrowed from the input.
    pub fn str_ref(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        let b = self.take(n, "string payload")?;
        std::str::from_utf8(b).map_err(|_| Error::Codec("string is not UTF-8".into()))
    }

    /// Read a raw byte slice of length `n`.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n, "byte run")
    }

    /// Read one tagged [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.i64()?),
            3 => Value::Float(self.f64()?),
            4 => Value::Text(self.str()?),
            5 => {
                let n = self.u32()? as usize;
                if n > self.remaining() {
                    // Each element takes at least a tag byte; a count larger
                    // than the remaining bytes is corruption, not a huge array.
                    return Err(Error::Codec(format!("array count {n} exceeds input")));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Value::Array(items)
            }
            t => return Err(Error::Codec(format!("unknown value tag {t}"))),
        })
    }

    /// Read one tagged [`DataType`].
    pub fn datatype(&mut self) -> Result<DataType> {
        Ok(match self.u8()? {
            0 => DataType::Int,
            1 => DataType::Float,
            2 => DataType::Text,
            3 => DataType::Bool,
            4 => DataType::Serial,
            5 => DataType::Array(Box::new(self.datatype()?)),
            t => return Err(Error::Codec(format!("unknown datatype tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut buf = Vec::new();
        put_value(&mut buf, v);
        let mut r = ByteReader::new(&buf);
        let out = r.value().unwrap();
        assert!(r.is_empty(), "trailing bytes after {v:?}");
        out
    }

    #[test]
    fn values_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(-0.0),
            Value::Float(f64::INFINITY),
            Value::text(""),
            Value::text("o'brien — naïve"),
            Value::Array(vec![
                Value::Int(1),
                Value::Null,
                Value::text("x"),
                Value::Float(-0.0),
            ]),
        ] {
            // `Value`'s `==` equates `-0.0` with `0.0`; the bits must survive.
            assert_eq!(bits(&round_trip(&v)), bits(&v), "{v:?}");
        }
    }

    /// `v` with every float replaced by its bit pattern, so a comparison
    /// sees a lost sign or a changed variant.
    fn bits(v: &Value) -> String {
        match v {
            Value::Float(f) => format!("Float({:#x})", f.to_bits()),
            Value::Array(items) => {
                let items: Vec<String> = items.iter().map(bits).collect();
                format!("Array[{}]", items.join(", "))
            }
            other => format!("{other:?}"),
        }
    }

    #[test]
    fn nan_bit_pattern_preserved() {
        let nan = f64::from_bits(0x7ff8_0000_0000_1234);
        let mut buf = Vec::new();
        put_value(&mut buf, &Value::Float(nan));
        let got = ByteReader::new(&buf).value().unwrap();
        match got {
            Value::Float(f) => assert_eq!(f.to_bits(), nan.to_bits()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn datatypes_round_trip() {
        for t in [
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bool,
            DataType::Serial,
            DataType::Array(Box::new(DataType::Array(Box::new(DataType::Text)))),
        ] {
            let mut buf = Vec::new();
            put_datatype(&mut buf, &t);
            assert_eq!(ByteReader::new(&buf).datatype().unwrap(), t);
        }
    }

    #[test]
    fn truncated_and_bad_tags_error() {
        assert!(ByteReader::new(&[]).value().is_err());
        assert!(ByteReader::new(&[2, 1, 2]).value().is_err()); // short i64
        assert!(ByteReader::new(&[9]).value().is_err()); // unknown tag
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        assert!(ByteReader::new(&buf[..4]).str().is_err());
        // Array claiming more elements than bytes remain.
        assert!(ByteReader::new(&[5, 255, 255, 255, 255]).value().is_err());
    }
}
