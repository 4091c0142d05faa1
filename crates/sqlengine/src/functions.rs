//! Scalar function implementations.

use crate::error::{Result, SqlError};
use etypes::{DataType, Value};

/// Resolved scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    /// First non-NULL argument (used by SimpleImputer, paper §5.2.1).
    Coalesce,
    /// Smallest argument (KBinsDiscretizer edge handling, §5.2.4).
    Least,
    /// Largest argument.
    Greatest,
    /// `floor(x)`.
    Floor,
    /// `ceil(x)`.
    Ceil,
    /// `abs(x)`.
    Abs,
    /// `round(x[, digits])`.
    Round,
    /// `sqrt(x)`.
    Sqrt,
    /// `ln(x)`.
    Ln,
    /// `exp(x)`.
    Exp,
    /// `lower(s)`.
    Lower,
    /// `upper(s)`.
    Upper,
    /// String length / array cardinality.
    Length,
    /// `replace(s, from, to)` — every occurrence.
    Replace,
    /// `regexp_replace(s, pattern, replacement)` — anchored-literal subset
    /// (see [`regexp_replace`]).
    RegexpReplace,
    /// `array_fill(value, len)` — constant array (one-hot encoding, §5.2.2).
    ArrayFill,
    /// `nullif(a, b)`.
    NullIf,
    /// `trunc(x)`.
    Trunc,
}

impl ScalarFunc {
    /// Resolve a lower-cased SQL function name.
    pub fn resolve(name: &str) -> Option<ScalarFunc> {
        Some(match name {
            "coalesce" => ScalarFunc::Coalesce,
            "least" => ScalarFunc::Least,
            "greatest" => ScalarFunc::Greatest,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "abs" => ScalarFunc::Abs,
            "round" => ScalarFunc::Round,
            "sqrt" => ScalarFunc::Sqrt,
            "ln" => ScalarFunc::Ln,
            "exp" => ScalarFunc::Exp,
            "lower" => ScalarFunc::Lower,
            "upper" => ScalarFunc::Upper,
            "length" | "char_length" | "cardinality" | "array_length" => ScalarFunc::Length,
            "replace" => ScalarFunc::Replace,
            "regexp_replace" => ScalarFunc::RegexpReplace,
            "array_fill" => ScalarFunc::ArrayFill,
            "nullif" => ScalarFunc::NullIf,
            "trunc" => ScalarFunc::Trunc,
            _ => return None,
        })
    }

    /// Best-effort static result type given argument types.
    pub fn return_type(&self, args: &[DataType]) -> DataType {
        match self {
            ScalarFunc::Coalesce
            | ScalarFunc::Least
            | ScalarFunc::Greatest
            | ScalarFunc::NullIf => args.first().cloned().unwrap_or(DataType::Text),
            ScalarFunc::Floor | ScalarFunc::Ceil | ScalarFunc::Trunc => DataType::Float,
            ScalarFunc::Abs | ScalarFunc::Round => args.first().cloned().unwrap_or(DataType::Float),
            ScalarFunc::Sqrt | ScalarFunc::Ln | ScalarFunc::Exp => DataType::Float,
            ScalarFunc::Lower
            | ScalarFunc::Upper
            | ScalarFunc::Replace
            | ScalarFunc::RegexpReplace => DataType::Text,
            ScalarFunc::Length => DataType::Int,
            ScalarFunc::ArrayFill => {
                DataType::Array(Box::new(args.first().cloned().unwrap_or(DataType::Int)))
            }
        }
    }

    /// Evaluate with already-evaluated arguments.
    pub fn eval(&self, args: &[Value]) -> Result<Value> {
        use ScalarFunc::*;
        match self {
            Coalesce => Ok(args
                .iter()
                .find(|v| !v.is_null())
                .cloned()
                .unwrap_or(Value::Null)),
            Least => Ok(args
                .iter()
                .filter(|v| !v.is_null())
                .min()
                .cloned()
                .unwrap_or(Value::Null)),
            Greatest => Ok(args
                .iter()
                .filter(|v| !v.is_null())
                .max()
                .cloned()
                .unwrap_or(Value::Null)),
            Floor => unary_f64(args, f64::floor),
            Ceil => unary_f64(args, f64::ceil),
            Trunc => unary_f64(args, f64::trunc),
            Sqrt => unary_f64(args, f64::sqrt),
            Ln => unary_f64(args, f64::ln),
            Exp => unary_f64(args, f64::exp),
            Abs => match args.first() {
                Some(Value::Null) | None => Ok(Value::Null),
                // `abs(i64::MIN)` has no `Int` answer: widen, as `-` does.
                Some(Value::Int(i)) => Ok(i
                    .checked_abs()
                    .map_or(Value::Float((*i as f64).abs()), Value::Int)),
                Some(v) => Ok(Value::Float(v.as_f64()?.abs())),
            },
            Round => match args.first() {
                Some(Value::Null) | None => Ok(Value::Null),
                Some(Value::Int(i)) => Ok(Value::Int(*i)),
                Some(v) => {
                    let digits = match args.get(1) {
                        Some(d) if !d.is_null() => d.as_i64()?,
                        _ => 0,
                    };
                    let m = 10f64.powi(digits as i32);
                    Ok(Value::Float((v.as_f64()? * m).round() / m))
                }
            },
            Lower => unary_text(args, |s| s.to_lowercase()),
            Upper => unary_text(args, |s| s.to_uppercase()),
            Length => match args.first() {
                Some(Value::Null) | None => Ok(Value::Null),
                Some(Value::Text(s)) => Ok(Value::Int(s.chars().count() as i64)),
                Some(Value::Array(a)) => Ok(Value::Int(a.len() as i64)),
                Some(v) => Err(SqlError::exec(format!("length() of {v}"))),
            },
            Replace => {
                let [s, from, to] = three(args)?;
                if s.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Text(
                    s.as_str()?.replace(from.as_str()?, to.as_str()?),
                ))
            }
            RegexpReplace => {
                let [s, pattern, replacement] = three(args)?;
                if s.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Text(regexp_replace(
                    s.as_str()?,
                    pattern.as_str()?,
                    replacement.as_str()?,
                )?))
            }
            ArrayFill => {
                let [value, len] = two(args)?;
                let n = len.as_i64()?.max(0) as usize;
                Ok(Value::Array(vec![value.clone(); n]))
            }
            NullIf => {
                let [a, b] = two(args)?;
                if a == b {
                    Ok(Value::Null)
                } else {
                    Ok(a.clone())
                }
            }
        }
    }
}

fn unary_f64(args: &[Value], f: impl Fn(f64) -> f64) -> Result<Value> {
    match args.first() {
        Some(Value::Null) | None => Ok(Value::Null),
        Some(v) => Ok(Value::Float(f(v.as_f64()?))),
    }
}

fn unary_text(args: &[Value], f: impl Fn(&str) -> String) -> Result<Value> {
    match args.first() {
        Some(Value::Null) | None => Ok(Value::Null),
        Some(v) => Ok(Value::Text(f(v.as_str()?))),
    }
}

fn two(args: &[Value]) -> Result<[&Value; 2]> {
    match args {
        [a, b] => Ok([a, b]),
        _ => Err(SqlError::exec(format!(
            "expected 2 arguments, got {}",
            args.len()
        ))),
    }
}

fn three(args: &[Value]) -> Result<[&Value; 3]> {
    match args {
        [a, b, c] => Ok([a, b, c]),
        _ => Err(SqlError::exec(format!(
            "expected 3 arguments, got {}",
            args.len()
        ))),
    }
}

/// The `regexp_replace` subset the paper's generated SQL needs (§5.1.7):
/// the pattern is a literal, optionally anchored with `^` and `$`, because
/// the translation of pandas `replace` always emits `^literal$` to force
/// whole-string matches. Other metacharacters are rejected rather than
/// silently mis-handled.
pub fn regexp_replace(s: &str, pattern: &str, replacement: &str) -> Result<String> {
    let re = RegexLiteral::parse(pattern)?;
    Ok(re.replace(s, replacement).unwrap_or_else(|| s.to_string()))
}

/// A parsed `regexp_replace` pattern: a literal with its anchors. Parsed
/// once per call site, then applied to every string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegexLiteral {
    literal: String,
    anchored_start: bool,
    anchored_end: bool,
}

impl RegexLiteral {
    /// Parse `^`, the escaped literal, and `$`. A final `$` is an anchor
    /// unless an odd run of backslashes escapes it (`a\\$` is `a\`
    /// anchored; `a\$` is a literal `a$`).
    pub fn parse(pattern: &str) -> Result<RegexLiteral> {
        let anchored_start = pattern.starts_with('^');
        let rest = &pattern[anchored_start as usize..];
        let anchored_end = rest.strip_suffix('$').is_some_and(|before| {
            let escapes = before.bytes().rev().take_while(|&b| b == b'\\').count();
            escapes % 2 == 0
        });
        let body = &rest[..rest.len() - anchored_end as usize];
        Ok(RegexLiteral {
            literal: unescape_regex_literal(body)?,
            anchored_start,
            anchored_end,
        })
    }

    /// `s` with the first match replaced, or `None` when nothing matches.
    pub fn replace(&self, s: &str, replacement: &str) -> Option<String> {
        let literal = self.literal.as_str();
        match (self.anchored_start, self.anchored_end) {
            (true, true) => (s == literal).then(|| replacement.to_string()),
            (true, false) => s
                .strip_prefix(literal)
                .map(|rest| format!("{replacement}{rest}")),
            (false, true) => s
                .strip_suffix(literal)
                .map(|rest| format!("{rest}{replacement}")),
            (false, false) => s
                .contains(literal)
                .then(|| s.replacen(literal, replacement, 1)),
        }
    }
}

fn unescape_regex_literal(body: &str) -> Result<String> {
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => match chars.next() {
                Some(esc) => out.push(esc),
                None => return Err(SqlError::exec("trailing backslash in regex")),
            },
            '.' | '*' | '+' | '?' | '[' | ']' | '(' | ')' | '{' | '}' | '|' => {
                return Err(SqlError::exec(format!(
                    "regexp_replace supports literal patterns only (found {c:?})"
                )))
            }
            other => out.push(other),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesce_least_greatest() {
        assert_eq!(
            ScalarFunc::Coalesce
                .eval(&[Value::Null, Value::Int(2), Value::Int(3)])
                .unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            ScalarFunc::Least
                .eval(&[Value::Int(4), Value::Int(2)])
                .unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            ScalarFunc::Greatest
                .eval(&[Value::Int(4), Value::Null])
                .unwrap(),
            Value::Int(4)
        );
    }

    #[test]
    fn regexp_replace_whole_string_anchor() {
        // The paper's Listing 12: '^Medium$' -> 'Low'.
        assert_eq!(regexp_replace("Medium", "^Medium$", "Low").unwrap(), "Low");
        assert_eq!(
            regexp_replace("MediumX", "^Medium$", "Low").unwrap(),
            "MediumX"
        );
    }

    #[test]
    fn regexp_replace_partial_anchors() {
        assert_eq!(regexp_replace("abc", "^a", "X").unwrap(), "Xbc");
        assert_eq!(regexp_replace("abc", "c$", "X").unwrap(), "abX");
        assert_eq!(regexp_replace("aba", "b", "X").unwrap(), "aXa");
    }

    #[test]
    fn regexp_replace_rejects_metacharacters() {
        assert!(regexp_replace("x", "a.*b", "y").is_err());
    }

    #[test]
    fn regexp_escape_sequences() {
        assert_eq!(regexp_replace("a.b", "^a\\.b$", "z").unwrap(), "z");
    }

    #[test]
    fn regexp_end_anchor_counts_escaping_backslashes() {
        // `^a\\$`: an escaped backslash, then the end anchor.
        assert_eq!(regexp_replace("a\\", "^a\\\\$", "b").unwrap(), "b");
        assert_eq!(regexp_replace("a\\x", "^a\\\\$", "b").unwrap(), "a\\x");
        // `^a\$`: an escaped dollar, no end anchor.
        assert_eq!(regexp_replace("a$", "^a\\$", "b").unwrap(), "b");
        assert_eq!(regexp_replace("a$x", "^a\\$", "b").unwrap(), "bx");
        // Three backslashes: an escaped backslash, then an escaped dollar.
        assert_eq!(regexp_replace("a\\$", "^a\\\\\\$", "b").unwrap(), "b");
        // A lone trailing backslash before the anchor is still an error.
        assert!(regexp_replace("a", "a\\", "b").is_err());
    }

    #[test]
    fn array_fill_and_length() {
        let arr = ScalarFunc::ArrayFill
            .eval(&[Value::Int(0), Value::Int(3)])
            .unwrap();
        assert_eq!(
            arr,
            Value::Array(vec![Value::Int(0), Value::Int(0), Value::Int(0)])
        );
        assert_eq!(ScalarFunc::Length.eval(&[arr]).unwrap(), Value::Int(3));
    }

    #[test]
    fn numeric_unaries_pass_null() {
        assert_eq!(ScalarFunc::Floor.eval(&[Value::Null]).unwrap(), Value::Null);
        assert_eq!(
            ScalarFunc::Floor.eval(&[Value::Float(2.9)]).unwrap(),
            Value::Float(2.0)
        );
    }

    #[test]
    fn round_with_digits() {
        assert_eq!(
            ScalarFunc::Round
                .eval(&[Value::Float(2.345), Value::Int(2)])
                .unwrap(),
            Value::Float(2.35)
        );
    }

    #[test]
    fn nullif_behaviour() {
        assert_eq!(
            ScalarFunc::NullIf
                .eval(&[Value::Int(1), Value::Int(1)])
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            ScalarFunc::NullIf
                .eval(&[Value::Int(1), Value::Int(2)])
                .unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn resolve_names() {
        assert_eq!(ScalarFunc::resolve("coalesce"), Some(ScalarFunc::Coalesce));
        assert_eq!(ScalarFunc::resolve("no_such_fn"), None);
    }
}
