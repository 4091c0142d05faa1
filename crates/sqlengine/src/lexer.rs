//! SQL lexer.

use crate::error::{Result, SqlError};
use crate::token::{Tok, Token, MIN_INT_MAGNITUDE};
use etypes::Value;

/// Tokenize SQL text. Also returns the char offset of every `;` token: the
/// statement boundaries of a script exactly as the parser sees them (a `;`
/// inside a string, quoted identifier or comment is not one).
pub fn tokenize(sql: &str) -> Result<(Vec<Token>, Vec<usize>)> {
    let chars: Vec<char> = sql.chars().collect();
    let mut pos = 0usize;
    let mut line = 1usize;
    let (mut out, mut cuts) = (Vec::new(), Vec::new());

    macro_rules! push {
        ($kind:expr) => {
            out.push(Token { kind: $kind, line })
        };
    }

    while pos < chars.len() {
        let c = chars[pos];
        match c {
            '\n' => {
                line += 1;
                pos += 1;
            }
            c if c.is_whitespace() => pos += 1,
            '-' if chars.get(pos + 1) == Some(&'-') => {
                // Line comment.
                while pos < chars.len() && chars[pos] != '\n' {
                    pos += 1;
                }
            }
            '\'' => {
                let (s, consumed, newlines) = lex_string(&chars[pos..], line)?;
                push!(Tok::Literal(Value::Text(s)));
                pos += consumed;
                line += newlines;
            }
            '"' => {
                pos += 1;
                let start = pos;
                while pos < chars.len() && chars[pos] != '"' {
                    pos += 1;
                }
                if pos >= chars.len() {
                    return Err(SqlError::parse(line, "unterminated quoted identifier"));
                }
                let ident: String = chars[start..pos].iter().collect();
                push!(Tok::QuotedIdent(ident));
                pos += 1;
            }
            c if c.is_ascii_digit() => {
                let start = pos;
                let mut is_float = false;
                while pos < chars.len() && chars[pos].is_ascii_digit() {
                    pos += 1;
                }
                if pos < chars.len()
                    && chars[pos] == '.'
                    && chars.get(pos + 1).is_some_and(|c| c.is_ascii_digit())
                {
                    is_float = true;
                    pos += 1;
                    while pos < chars.len() && chars[pos].is_ascii_digit() {
                        pos += 1;
                    }
                }
                if pos < chars.len() && matches!(chars[pos], 'e' | 'E') {
                    let save = pos;
                    pos += 1;
                    if pos < chars.len() && matches!(chars[pos], '+' | '-') {
                        pos += 1;
                    }
                    if pos < chars.len() && chars[pos].is_ascii_digit() {
                        is_float = true;
                        while pos < chars.len() && chars[pos].is_ascii_digit() {
                            pos += 1;
                        }
                    } else {
                        pos = save;
                    }
                }
                let text: String = chars[start..pos].iter().collect();
                let bad = || SqlError::parse(line, format!("bad numeric literal {text}"));
                push!(if is_float {
                    Tok::Literal(Value::Float(text.parse().map_err(|_| bad())?))
                } else if text == MIN_INT_MAGNITUDE {
                    Tok::MinIntMagnitude
                } else {
                    Tok::Literal(Value::Int(text.parse().map_err(|_| bad())?))
                });
            }
            '$' if chars.get(pos + 1).is_some_and(|c| c.is_ascii_digit()) => {
                pos += 1;
                let start = pos;
                while pos < chars.len() && chars[pos].is_ascii_digit() {
                    pos += 1;
                }
                let text: String = chars[start..pos].iter().collect();
                let n: usize = text
                    .parse()
                    .map_err(|_| SqlError::parse(line, format!("bad parameter ${text}")))?;
                if n == 0 {
                    return Err(SqlError::parse(line, "parameter numbers start at $1"));
                }
                push!(Tok::Param(n));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = pos;
                while pos < chars.len()
                    && (chars[pos].is_alphanumeric() || chars[pos] == '_' || chars[pos] == '$')
                {
                    pos += 1;
                }
                let word: String = chars[start..pos].iter().collect::<String>().to_lowercase();
                push!(Tok::Word(word));
            }
            '*' => {
                push!(Tok::Star);
                pos += 1;
            }
            '(' => {
                push!(Tok::LParen);
                pos += 1;
            }
            ')' => {
                push!(Tok::RParen);
                pos += 1;
            }
            '[' => {
                push!(Tok::LBracket);
                pos += 1;
            }
            ']' => {
                push!(Tok::RBracket);
                pos += 1;
            }
            ',' => {
                push!(Tok::Comma);
                pos += 1;
            }
            ';' => {
                cuts.push(pos);
                push!(Tok::Semicolon);
                pos += 1;
            }
            '.' => {
                push!(Tok::Dot);
                pos += 1;
            }
            '+' => {
                push!(Tok::Plus);
                pos += 1;
            }
            '-' => {
                push!(Tok::Minus);
                pos += 1;
            }
            '/' => {
                push!(Tok::Slash);
                pos += 1;
            }
            '%' => {
                push!(Tok::Percent);
                pos += 1;
            }
            '|' if chars.get(pos + 1) == Some(&'|') => {
                push!(Tok::Concat);
                pos += 2;
            }
            ':' if chars.get(pos + 1) == Some(&':') => {
                push!(Tok::DoubleColon);
                pos += 2;
            }
            '=' => {
                push!(Tok::Eq);
                pos += 1;
            }
            '<' => match chars.get(pos + 1) {
                Some('=') => {
                    push!(Tok::Le);
                    pos += 2;
                }
                Some('>') => {
                    push!(Tok::NotEq);
                    pos += 2;
                }
                _ => {
                    push!(Tok::Lt);
                    pos += 1;
                }
            },
            '>' => {
                if chars.get(pos + 1) == Some(&'=') {
                    push!(Tok::Ge);
                    pos += 2;
                } else {
                    push!(Tok::Gt);
                    pos += 1;
                }
            }
            '!' if chars.get(pos + 1) == Some(&'=') => {
                push!(Tok::NotEq);
                pos += 2;
            }
            other => {
                return Err(SqlError::parse(
                    line,
                    format!("unexpected character {other:?}"),
                ))
            }
        }
    }
    out.push(Token {
        kind: Tok::Eof,
        line,
    });
    Ok((out, cuts))
}

/// Lex a `'...'` string starting at `chars[0] == '\''`; returns
/// (content, chars consumed, newlines crossed).
fn lex_string(chars: &[char], line: usize) -> Result<(String, usize, usize)> {
    debug_assert_eq!(chars[0], '\'');
    let mut out = String::new();
    let mut pos = 1usize;
    let mut newlines = 0usize;
    loop {
        match chars.get(pos) {
            None => return Err(SqlError::parse(line, "unterminated string literal")),
            Some('\'') => {
                if chars.get(pos + 1) == Some(&'\'') {
                    out.push('\'');
                    pos += 2;
                } else {
                    pos += 1;
                    break;
                }
            }
            Some('\n') => {
                newlines += 1;
                out.push('\n');
                pos += 1;
            }
            Some(c) => {
                out.push(*c);
                pos += 1;
            }
        }
    }
    Ok((out, pos, newlines))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(sql: &str) -> Vec<Tok> {
        tokenize(sql)
            .unwrap()
            .0
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn keywords_lowercased_quotes_preserved() {
        assert_eq!(
            kinds(r#"SELECT "Age_Group" FROM t"#),
            vec![
                Tok::Word("select".into()),
                Tok::QuotedIdent("Age_Group".into()),
                Tok::Word("from".into()),
                Tok::Word("t".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn string_escaping() {
        assert_eq!(kinds("'it''s'")[0], Tok::Literal(Value::text("it's")));
    }

    #[test]
    fn numbers() {
        assert_eq!(kinds("1.5")[0], Tok::Literal(Value::Float(1.5)));
        assert_eq!(kinds("42")[0], Tok::Literal(Value::Int(42)));
        assert_eq!(kinds("1e3")[0], Tok::Literal(Value::Float(1000.0)));
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("a <> b != c || d :: e <= f"),
            vec![
                Tok::Word("a".into()),
                Tok::NotEq,
                Tok::Word("b".into()),
                Tok::NotEq,
                Tok::Word("c".into()),
                Tok::Concat,
                Tok::Word("d".into()),
                Tok::DoubleColon,
                Tok::Word("e".into()),
                Tok::Le,
                Tok::Word("f".into()),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn comments_skipped_and_lines_tracked() {
        let (toks, _) = tokenize("SELECT 1 -- the original data\nFROM t").unwrap();
        let from = toks
            .iter()
            .find(|t| t.kind == Tok::Word("from".into()))
            .unwrap();
        assert_eq!(from.line, 2);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("'abc").is_err());
    }
}
