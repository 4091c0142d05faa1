//! The scalar cell type.

use crate::{DataType, Error, Result};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single cell of a relation or dataframe.
///
/// `Value` implements *total* equality, ordering and hashing so it can serve
/// directly as a group-by / join / sort key: `Null == Null`, and floats
/// follow [`float_cmp`] (`-0.0 == 0.0`; NaN equals itself and sorts above
/// every other float), as PostgreSQL's `float8` does. SQL's three-valued
/// comparison semantics are implemented on top of this in the expression
/// evaluators, not here.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL / pandas NaN-as-missing.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(String),
    /// Array value (tuple-identifier aggregation, one-hot vectors).
    Array(Vec<Value>),
}

impl Value {
    /// Text constructor accepting anything string-like.
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's runtime type, or `None` for NULL (which is untyped).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Array(items) => {
                let elem = items
                    .iter()
                    .find_map(Value::data_type)
                    .unwrap_or(DataType::Int);
                Some(DataType::Array(Box::new(elem)))
            }
        }
    }

    /// Numeric view as f64 (ints upcast; bools count as 0/1 like pandas).
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(Error::TypeMismatch {
                expected: "numeric",
                got: other.to_string(),
            }),
        }
    }

    /// Integer view (floats must be integral).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(*b as i64),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => Err(Error::TypeMismatch {
                expected: "integer",
                got: other.to_string(),
            }),
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::TypeMismatch {
                expected: "boolean",
                got: other.to_string(),
            }),
        }
    }

    /// String view.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(Error::TypeMismatch {
                expected: "text",
                got: other.to_string(),
            }),
        }
    }

    /// Array view.
    pub fn as_array(&self) -> Result<&[Value]> {
        match self {
            Value::Array(items) => Ok(items),
            other => Err(Error::TypeMismatch {
                expected: "array",
                got: other.to_string(),
            }),
        }
    }

    /// Cast to a target [`DataType`], SQL-style. NULL casts to NULL.
    pub fn cast(&self, target: &DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        Ok(match (self, target) {
            (v, DataType::Int | DataType::Serial) => Value::Int(match v {
                Value::Text(s) => s.trim().parse::<i64>().map_err(|_| Error::TypeMismatch {
                    expected: "integer literal",
                    got: s.clone(),
                })?,
                other => other.as_i64()?,
            }),
            (v, DataType::Float) => Value::Float(match v {
                Value::Text(s) => s.trim().parse::<f64>().map_err(|_| Error::TypeMismatch {
                    expected: "float literal",
                    got: s.clone(),
                })?,
                other => other.as_f64()?,
            }),
            (v, DataType::Text) => Value::Text(v.to_string()),
            (Value::Bool(b), DataType::Bool) => Value::Bool(*b),
            (Value::Int(i), DataType::Bool) => Value::Bool(*i != 0),
            (Value::Text(s), DataType::Bool) => match s.trim().to_ascii_lowercase().as_str() {
                "t" | "true" | "1" | "yes" => Value::Bool(true),
                "f" | "false" | "0" | "no" => Value::Bool(false),
                other => {
                    return Err(Error::TypeMismatch {
                        expected: "boolean literal",
                        got: other.to_string(),
                    })
                }
            },
            (Value::Array(items), DataType::Array(elem)) => Value::Array(
                items
                    .iter()
                    .map(|v| v.cast(elem))
                    .collect::<Result<Vec<_>>>()?,
            ),
            (v, t) => {
                return Err(Error::TypeMismatch {
                    expected: "castable value",
                    got: format!("{v} -> {t}"),
                })
            }
        })
    }

    /// SQL literal rendering (quotes text, `NULL` for null).
    pub fn sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Array(items) => {
                let body: Vec<String> = items.iter().map(Value::sql_literal).collect();
                format!("ARRAY[{}]", body.join(", "))
            }
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Text(_) => 3,
            Value::Array(_) => 4,
        }
    }
}

fn format_float(f: f64) -> String {
    if f.is_nan() {
        "'NaN'".to_string()
    } else if f.is_infinite() {
        if f > 0.0 { "'Infinity'" } else { "'-Infinity'" }.to_string()
    } else if f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total order: NULL first, then bools, numerics (int/float unified,
    /// compared as `f64` by [`float_cmp`] when either side is a float),
    /// text, arrays.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Int(a), Float(b)) => float_cmp(*a as f64, *b),
            (Float(a), Int(b)) => float_cmp(*a, *b as f64),
            (Float(a), Float(b)) => float_cmp(*a, *b),
            (Text(a), Text(b)) => a.cmp(b),
            (Array(a), Array(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

/// The one float order of the workspace, PostgreSQL's `float8` rule: IEEE
/// comparison (so `-0.0 == 0.0`), with NaN equal to itself and above every
/// other float. Every typed kernel that orders floats uses it, so a column
/// loop and [`Value::cmp`] cannot disagree.
#[inline]
pub fn float_cmp(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(ord) => ord,
        // At least one side is NaN: NaN is the largest float.
        None => a.is_nan().cmp(&b.is_nan()),
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Ints and integral floats must hash identically because they
            // compare equal (`1 == 1.0` as group keys).
            Value::Int(i) => {
                state.write_u8(2);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                state.write_u8(2);
                // Normalize -0.0 / NaN payloads.
                let f = if *f == 0.0 { 0.0 } else { *f };
                let f = if f.is_nan() { f64::NAN } else { f };
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                state.write_u8(3);
                s.hash(state);
            }
            Value::Array(items) => {
                state.write_u8(4);
                items.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, ""),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "{s}"),
            Value::Array(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn null_equals_null_as_group_key() {
        assert_eq!(Value::Null, Value::Null);
        assert_eq!(hash_of(&Value::Null), hash_of(&Value::Null));
    }

    #[test]
    fn int_float_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert!(Value::Int(3) < Value::Float(3.5));
    }

    #[test]
    fn nan_is_self_equal_and_sorts_last_among_floats() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan, nan.clone());
        assert!(Value::Float(f64::INFINITY) < nan);
        // Any NaN payload or sign is the same NaN.
        assert_eq!(nan, Value::Float(-f64::NAN));
        assert!(Value::Int(i64::MAX) < nan);
    }

    #[test]
    fn signed_zeros_are_equal_and_hash_alike() {
        let (neg, pos) = (Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(neg, pos);
        assert_eq!(neg, Value::Int(0));
        assert_eq!(hash_of(&neg), hash_of(&pos));
        assert_eq!(hash_of(&neg), hash_of(&Value::Int(0)));
        assert!(Value::Float(-1e-300) < neg && neg < Value::Float(1e-300));
        assert_eq!(float_cmp(-0.0, 0.0), Ordering::Equal);
    }

    #[test]
    fn total_order_ranks_types() {
        let mut vs = vec![
            Value::text("z"),
            Value::Int(1),
            Value::Null,
            Value::Bool(true),
        ];
        vs.sort();
        assert_eq!(
            vs,
            vec![
                Value::Null,
                Value::Bool(true),
                Value::Int(1),
                Value::text("z")
            ]
        );
    }

    #[test]
    fn casts() {
        assert_eq!(
            Value::text("42").cast(&DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Int(1).cast(&DataType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(Value::Null.cast(&DataType::Float).unwrap(), Value::Null);
        assert!(Value::text("abc").cast(&DataType::Int).is_err());
    }

    #[test]
    fn sql_literals_escape() {
        assert_eq!(Value::text("o'brien").sql_literal(), "'o''brien'");
        assert_eq!(Value::Float(2.0).sql_literal(), "2.0");
        assert_eq!(
            Value::Array(vec![Value::Int(1), Value::Int(2)]).sql_literal(),
            "ARRAY[1, 2]"
        );
    }

    #[test]
    fn as_views() {
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert_eq!(Value::Float(4.0).as_i64().unwrap(), 4);
        assert!(Value::Float(4.5).as_i64().is_err());
        assert_eq!(Value::text("hi").as_str().unwrap(), "hi");
    }
}
