//! SQL token vocabulary.

use etypes::Value;
use std::fmt;

/// The digits of [`Tok::MinIntMagnitude`]: `i64::MIN` without its sign.
pub(crate) const MIN_INT_MAGNITUDE: &str = "9223372036854775808";

/// A token with its 1-based source line (for error messages in multi-line
/// generated queries).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Kind/payload.
    pub kind: Tok,
    /// 1-based line.
    pub line: usize,
}

/// Token kinds. Keywords are lexed as `Word` and classified by the parser so
/// that non-reserved words can still be identifiers.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Bare (unquoted) word, stored lower-cased; could be keyword or ident.
    Word(String),
    /// `"Quoted"` identifier, case preserved.
    QuotedIdent(String),
    /// Literal value (number, string, boolean handled as Word).
    Literal(Value),
    /// Positional parameter placeholder `$1`, `$2`, ... (1-based).
    Param(usize),
    /// The integer literal `9223372036854775808`, one past `i64::MAX`: a
    /// value only right after a unary minus, where it reads as `i64::MIN`
    /// (PostgreSQL's `int8` reads it so); anywhere else it is a bad
    /// numeric literal.
    MinIntMagnitude,
    /// Positional star `*`.
    Star,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `||` string/array concatenation.
    Concat,
    /// `::` cast.
    DoubleColon,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// End of input.
    Eof,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Word(w) => write!(f, "{w}"),
            Tok::QuotedIdent(w) => write!(f, "\"{w}\""),
            Tok::Literal(v) => write!(f, "{}", v.sql_literal()),
            Tok::Param(n) => write!(f, "${n}"),
            Tok::MinIntMagnitude => write!(f, "{MIN_INT_MAGNITUDE}"),
            Tok::Star => write!(f, "*"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBracket => write!(f, "["),
            Tok::RBracket => write!(f, "]"),
            Tok::Comma => write!(f, ","),
            Tok::Semicolon => write!(f, ";"),
            Tok::Dot => write!(f, "."),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::Concat => write!(f, "||"),
            Tok::DoubleColon => write!(f, "::"),
            Tok::Eq => write!(f, "="),
            Tok::NotEq => write!(f, "<>"),
            Tok::Lt => write!(f, "<"),
            Tok::Gt => write!(f, ">"),
            Tok::Le => write!(f, "<="),
            Tok::Ge => write!(f, ">="),
            Tok::Eof => write!(f, "<eof>"),
        }
    }
}
