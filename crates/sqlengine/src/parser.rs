//! Recursive-descent SQL parser for the engine's dialect.

use crate::ast::*;
use crate::error::{Result, SqlError};
use crate::lexer::tokenize;
use crate::token::{Tok, Token};
use etypes::{DataType, Value};

/// Parse a script of one or more `;`-separated statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    parse_tokens(tokenize(sql)?.0)
}

/// Parse a pre-lexed token stream (the engine lexes separately so the trace
/// layer can attribute lex and parse time to their own phases).
pub fn parse_tokens(tokens: Vec<Token>) -> Result<Vec<Statement>> {
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat(&Tok::Semicolon) {}
        if p.at_eof() {
            break;
        }
        out.push(p.statement()?);
    }
    Ok(out)
}

/// Parse exactly one statement.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut stmts = parse_script(sql)?;
    match stmts.len() {
        1 => Ok(stmts.remove(0)),
        n => Err(SqlError::parse(1, format!("expected 1 statement, got {n}"))),
    }
}

/// Parse a comma-separated list of literal values — the argument list of the
/// wire protocol's `EXECUTE name (v1, v2, ...)` form. Accepts numbers
/// (optionally negated), quoted strings, `true`/`false`, and `null`; an
/// empty or all-whitespace input yields an empty list.
pub fn parse_param_values(text: &str) -> Result<Vec<Value>> {
    let (tokens, _) = tokenize(text)?;
    let mut vals = Vec::new();
    let mut i = 0;
    loop {
        if tokens[i].kind == Tok::Eof {
            if vals.is_empty() {
                break;
            }
            return Err(SqlError::parse(
                tokens[i].line,
                "expected a parameter value after ','",
            ));
        }
        let negated = tokens[i].kind == Tok::Minus;
        if negated {
            i += 1;
        }
        let line = tokens[i].line;
        let v = match &tokens[i].kind {
            Tok::Literal(v) => v.clone(),
            Tok::Word(w) if !negated && w == "null" => Value::Null,
            Tok::Word(w) if !negated && w == "true" => Value::Bool(true),
            Tok::Word(w) if !negated && w == "false" => Value::Bool(false),
            other => {
                return Err(SqlError::parse(
                    line,
                    format!("expected a literal parameter value, found '{other}'"),
                ))
            }
        };
        let v = if negated {
            match v {
                Value::Int(n) => Value::Int(-n),
                Value::Float(f) => Value::Float(-f),
                other => {
                    return Err(SqlError::parse(
                        line,
                        format!("cannot negate parameter value {}", other.sql_literal()),
                    ))
                }
            }
        } else {
            v
        };
        vals.push(v);
        i += 1;
        match &tokens[i].kind {
            Tok::Comma => i += 1,
            Tok::Eof => break,
            other => {
                return Err(SqlError::parse(
                    tokens[i].line,
                    format!("expected ',' between parameter values, found '{other}'"),
                ))
            }
        }
    }
    Ok(vals)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek_at(&self, off: usize) -> &Tok {
        let idx = (self.pos + off).min(self.tokens.len() - 1);
        &self.tokens[idx].kind
    }

    fn line(&self) -> usize {
        self.tokens[self.pos].line
    }

    fn at_eof(&self) -> bool {
        *self.peek() == Tok::Eof
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == tok {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Consume a keyword (case-insensitive bare word).
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Tok::Word(w) = self.peek() {
            if w == kw {
                self.bump();
                return true;
            }
        }
        false
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Word(w) if w == kw)
    }

    fn expect(&mut self, tok: &Tok) -> Result<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(SqlError::parse(
                self.line(),
                format!("expected {tok}, found {}", self.peek()),
            ))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::parse(
                self.line(),
                format!("expected {kw}, found {}", self.peek()),
            ))
        }
    }

    /// Any identifier: quoted (case preserved) or bare (already lowercased).
    fn identifier(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Word(w) => {
                self.bump();
                Ok(w)
            }
            Tok::QuotedIdent(w) => {
                self.bump();
                Ok(w)
            }
            other => Err(SqlError::parse(
                self.line(),
                format!("expected identifier, found {other}"),
            )),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        if self.at_kw("create") {
            return self.create();
        }
        if self.eat_kw("drop") {
            let is_view = if self.eat_kw("view") {
                true
            } else {
                self.expect_kw("table")?;
                false
            };
            let if_exists = if self.eat_kw("if") {
                self.expect_kw("exists")?;
                true
            } else {
                false
            };
            let name = self.identifier()?;
            return Ok(Statement::Drop {
                name,
                is_view,
                if_exists,
            });
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("copy") {
            return self.copy();
        }
        if self.at_kw("select") || self.at_kw("with") {
            return Ok(Statement::Select(self.query()?));
        }
        if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            if !(self.at_kw("select") || self.at_kw("with")) {
                return Err(SqlError::parse(
                    self.line(),
                    "EXPLAIN supports SELECT statements only",
                ));
            }
            return Ok(Statement::Explain {
                analyze,
                query: self.query()?,
            });
        }
        Err(SqlError::parse(
            self.line(),
            format!("unexpected start of statement: {}", self.peek()),
        ))
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_kw("create")?;
        let materialized = self.eat_kw("materialized");
        if self.eat_kw("view") {
            let name = self.identifier()?;
            self.expect_kw("as")?;
            let query = self.query()?;
            return Ok(Statement::CreateView {
                name,
                query,
                materialized,
            });
        }
        if materialized {
            return Err(SqlError::parse(self.line(), "expected VIEW"));
        }
        self.expect_kw("table")?;
        let name = self.identifier()?;
        self.expect(&Tok::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.identifier()?;
            let ty = self.data_type()?;
            columns.push(ColumnDef { name: col, ty });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn data_type(&mut self) -> Result<DataType> {
        let mut name = self.identifier()?;
        // Two-word types: "double precision".
        if name == "double" && self.at_kw("precision") {
            self.bump();
            name = "double precision".to_string();
        }
        let mut ty = DataType::parse_sql(&name)
            .ok_or_else(|| SqlError::parse(self.line(), format!("unknown type {name}")))?;
        while self.eat(&Tok::LBracket) {
            self.expect(&Tok::RBracket)?;
            ty = DataType::Array(Box::new(ty));
        }
        Ok(ty)
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("into")?;
        let table = self.identifier()?;
        let columns = if self.eat(&Tok::LParen) {
            // Either a column list or directly VALUES (PG allows
            // `INSERT INTO t (values (...))` per Listing 1's spelling).
            if self.at_kw("values") {
                self.bump();
                let values = self.values_rows()?;
                self.expect(&Tok::RParen)?;
                return Ok(Statement::Insert {
                    table,
                    columns: None,
                    values,
                });
            }
            let mut cols = Vec::new();
            loop {
                cols.push(self.identifier()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let values = self.values_rows()?;
        Ok(Statement::Insert {
            table,
            columns,
            values,
        })
    }

    fn values_rows(&mut self) -> Result<Vec<Vec<Expr>>> {
        let mut rows = Vec::new();
        loop {
            self.expect(&Tok::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            rows.push(row);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(rows)
    }

    fn copy(&mut self) -> Result<Statement> {
        let table = self.identifier()?;
        let columns = if self.eat(&Tok::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.identifier()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("from")?;
        let path = match self.bump() {
            Tok::Literal(Value::Text(p)) => p,
            other => {
                return Err(SqlError::parse(
                    self.line(),
                    format!("expected file path string, found {other}"),
                ))
            }
        };
        let mut delimiter = ',';
        let mut null_str = String::new();
        let mut header = false;
        if self.eat_kw("with") {
            self.expect(&Tok::LParen)?;
            loop {
                let opt = self.identifier()?;
                match opt.as_str() {
                    "delimiter" => {
                        if let Tok::Literal(Value::Text(d)) = self.bump() {
                            delimiter = d.chars().next().unwrap_or(',');
                        }
                    }
                    "null" => {
                        if let Tok::Literal(Value::Text(n)) = self.bump() {
                            null_str = n;
                        }
                    }
                    "format" => {
                        let fmt = self.identifier()?;
                        if fmt != "csv" {
                            return Err(SqlError::parse(
                                self.line(),
                                format!("unsupported COPY format {fmt}"),
                            ));
                        }
                    }
                    "header" => {
                        header = self.eat_kw("true") || !self.eat_kw("false");
                    }
                    other => {
                        return Err(SqlError::parse(
                            self.line(),
                            format!("unknown COPY option {other}"),
                        ))
                    }
                }
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        Ok(Statement::Copy {
            table,
            columns,
            path,
            delimiter,
            null_str,
            header,
        })
    }

    /// `WITH a AS (...), b AS (...) SELECT ...` or a bare `SELECT`.
    pub(crate) fn query(&mut self) -> Result<Query> {
        let mut ctes = Vec::new();
        if self.eat_kw("with") {
            loop {
                let name = self.identifier()?;
                self.expect_kw("as")?;
                let materialized = if self.eat_kw("materialized") {
                    Some(true)
                } else if self.eat_kw("not") {
                    self.expect_kw("materialized")?;
                    Some(false)
                } else {
                    None
                };
                self.expect(&Tok::LParen)?;
                let query = self.query()?;
                self.expect(&Tok::RParen)?;
                ctes.push(Cte {
                    name,
                    query: Box::new(query),
                    materialized,
                });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let body = self.select_body()?;
        Ok(Query { ctes, body })
    }

    fn select_body(&mut self) -> Result<SelectBody> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projection = Vec::new();
        loop {
            projection.push(self.select_item()?);
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        let from = if self.eat_kw("from") {
            Some(self.table_ref()?)
        } else {
            None
        };
        let selection = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            self.order_items()?
        } else {
            Vec::new()
        };
        let limit = if self.eat_kw("limit") {
            match self.bump() {
                Tok::Literal(Value::Int(n)) if n >= 0 => Some(n as u64),
                other => {
                    return Err(SqlError::parse(
                        self.line(),
                        format!("expected LIMIT count, found {other}"),
                    ))
                }
            }
        } else {
            None
        };
        Ok(SelectBody {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn order_items(&mut self) -> Result<Vec<OrderItem>> {
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let desc = if self.eat_kw("desc") {
                true
            } else {
                self.eat_kw("asc");
                false
            };
            items.push(OrderItem { expr, desc });
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Tok::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* wildcard.
        if let Tok::Word(w) = self.peek().clone() {
            if *self.peek_at(1) == Tok::Dot && *self.peek_at(2) == Tok::Star {
                self.bump();
                self.bump();
                self.bump();
                return Ok(SelectItem::QualifiedWildcard(w));
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.identifier()?)
        } else {
            match self.peek().clone() {
                // Implicit alias: bare identifier not a clause keyword.
                Tok::QuotedIdent(w) => {
                    self.bump();
                    Some(w)
                }
                Tok::Word(w) if !is_clause_keyword(&w) => {
                    self.bump();
                    Some(w)
                }
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            if self.eat(&Tok::Comma) {
                let right = self.table_factor()?;
                left = TableRef::Join {
                    left: Box::new(left),
                    right: Box::new(right),
                    kind: JoinKind::Cross,
                    on: None,
                };
                continue;
            }
            let kind = if self.eat_kw("inner") {
                self.expect_kw("join")?;
                JoinKind::Inner
            } else if self.eat_kw("left") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Left
            } else if self.eat_kw("right") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Right
            } else if self.eat_kw("full") {
                self.eat_kw("outer");
                self.expect_kw("join")?;
                JoinKind::Full
            } else if self.eat_kw("cross") {
                self.expect_kw("join")?;
                JoinKind::Cross
            } else if self.eat_kw("join") {
                JoinKind::Inner
            } else {
                break;
            };
            let right = self.table_factor()?;
            let on = if kind == JoinKind::Cross {
                None
            } else {
                self.expect_kw("on")?;
                Some(self.expr()?)
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                kind,
                on,
            };
        }
        Ok(left)
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.eat(&Tok::LParen) {
            let query = self.query()?;
            self.expect(&Tok::RParen)?;
            self.eat_kw("as");
            let alias = self.identifier()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.identifier()?;
        let alias = if self.eat_kw("as") {
            Some(self.identifier()?)
        } else {
            match self.peek().clone() {
                Tok::QuotedIdent(w) => {
                    self.bump();
                    Some(w)
                }
                Tok::Word(w) if !is_clause_keyword(&w) && !is_join_keyword(&w) => {
                    self.bump();
                    Some(w)
                }
                _ => None,
            }
        };
        Ok(TableRef::Named { name, alias })
    }

    // ---- expressions -----------------------------------------------------

    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary {
                op: BinaryOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary {
                op: BinaryOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            let operand = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                operand: Box::new(operand),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let mut left = self.additive()?;
        loop {
            // IS [NOT] NULL.
            if self.eat_kw("is") {
                let negated = self.eat_kw("not");
                self.expect_kw("null")?;
                left = Expr::IsNull {
                    expr: Box::new(left),
                    negated,
                };
                continue;
            }
            // [NOT] IN (list).
            let negated_in = if self.at_kw("not") && *self.peek_at(1) == Tok::Word("in".into()) {
                self.bump();
                true
            } else {
                false
            };
            if self.eat_kw("in") {
                self.expect(&Tok::LParen)?;
                let mut list = Vec::new();
                loop {
                    list.push(self.expr()?);
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
                self.expect(&Tok::RParen)?;
                left = Expr::InList {
                    expr: Box::new(left),
                    list,
                    negated: negated_in,
                };
                continue;
            } else if negated_in {
                return Err(SqlError::parse(self.line(), "expected IN after NOT"));
            }
            let op = match self.peek() {
                Tok::Eq => BinaryOp::Eq,
                Tok::NotEq => BinaryOp::NotEq,
                Tok::Lt => BinaryOp::Lt,
                Tok::Gt => BinaryOp::Gt,
                Tok::Le => BinaryOp::Le,
                Tok::Ge => BinaryOp::Ge,
                _ => break,
            };
            self.bump();
            let right = self.additive()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinaryOp::Add,
                Tok::Minus => BinaryOp::Sub,
                Tok::Concat => BinaryOp::Concat,
                _ => break,
            };
            self.bump();
            let right = self.multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinaryOp::Mul,
                Tok::Slash => BinaryOp::Div,
                Tok::Percent => BinaryOp::Mod,
                _ => break,
            };
            self.bump();
            let right = self.unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&Tok::Minus) {
            let operand = self.unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                operand: Box::new(operand),
            });
        }
        if self.eat(&Tok::Plus) {
            return self.unary();
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut expr = self.primary()?;
        while self.eat(&Tok::DoubleColon) {
            let ty = self.data_type()?;
            expr = Expr::Cast {
                expr: Box::new(expr),
                ty,
            };
        }
        Ok(expr)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Tok::Literal(v) => {
                self.bump();
                Ok(Expr::Literal(v))
            }
            Tok::Param(n) => {
                self.bump();
                Ok(Expr::Parameter(n))
            }
            Tok::LParen => {
                self.bump();
                if self.at_kw("select") || self.at_kw("with") {
                    let q = self.query()?;
                    self.expect(&Tok::RParen)?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Word(w) => self.word_expr(w),
            Tok::QuotedIdent(name) => {
                self.bump();
                // Qualified: "tbl"."col".
                if self.eat(&Tok::Dot) {
                    let col = self.identifier()?;
                    return Ok(Expr::qcol(name, col));
                }
                Ok(Expr::col(name))
            }
            other => Err(SqlError::parse(
                self.line(),
                format!("unexpected token {other} in expression"),
            )),
        }
    }

    fn word_expr(&mut self, w: String) -> Result<Expr> {
        match w.as_str() {
            "null" => {
                self.bump();
                Ok(Expr::Literal(Value::Null))
            }
            "true" => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            "false" => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            "case" => {
                self.bump();
                let mut whens = Vec::new();
                while self.eat_kw("when") {
                    let cond = self.expr()?;
                    self.expect_kw("then")?;
                    let value = self.expr()?;
                    whens.push((cond, value));
                }
                let else_expr = if self.eat_kw("else") {
                    Some(Box::new(self.expr()?))
                } else {
                    None
                };
                self.expect_kw("end")?;
                Ok(Expr::Case { whens, else_expr })
            }
            "cast" => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let e = self.expr()?;
                self.expect_kw("as")?;
                let ty = self.data_type()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Cast {
                    expr: Box::new(e),
                    ty,
                })
            }
            "array" => {
                self.bump();
                self.expect(&Tok::LBracket)?;
                let mut items = Vec::new();
                if *self.peek() != Tok::RBracket {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket)?;
                Ok(Expr::ArrayLiteral(items))
            }
            _ => {
                if is_clause_keyword(&w) {
                    return Err(SqlError::parse(
                        self.line(),
                        format!("unexpected keyword {w} in expression"),
                    ));
                }
                self.bump();
                // Function call?
                if *self.peek() == Tok::LParen {
                    return self.function_call(w);
                }
                // Qualified column: tbl."col" or tbl.col.
                if self.eat(&Tok::Dot) {
                    let col = self.identifier()?;
                    return Ok(Expr::qcol(w, col));
                }
                Ok(Expr::col(w))
            }
        }
    }

    fn function_call(&mut self, name: String) -> Result<Expr> {
        self.expect(&Tok::LParen)?;
        let mut star = false;
        let mut distinct = false;
        let mut args = Vec::new();
        if self.eat(&Tok::Star) {
            star = true;
        } else if *self.peek() != Tok::RParen {
            distinct = self.eat_kw("distinct");
            loop {
                args.push(self.expr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        let window_order = if self.eat_kw("over") {
            self.expect(&Tok::LParen)?;
            self.expect_kw("order")?;
            self.expect_kw("by")?;
            let items = self.order_items()?;
            self.expect(&Tok::RParen)?;
            Some(items)
        } else {
            None
        };
        Ok(Expr::Function {
            name,
            args,
            distinct,
            star,
            window_order,
        })
    }
}

fn is_clause_keyword(w: &str) -> bool {
    matches!(
        w,
        "from"
            | "where"
            | "group"
            | "having"
            | "order"
            | "limit"
            | "on"
            | "inner"
            | "left"
            | "right"
            | "full"
            | "cross"
            | "join"
            | "union"
            | "as"
            | "and"
            | "or"
            | "not"
            | "is"
            | "in"
            | "when"
            | "then"
            | "else"
            | "end"
            | "desc"
            | "asc"
            | "with"
            | "select"
            | "outer"
            | "over"
    )
}

fn is_join_keyword(w: &str) -> bool {
    matches!(
        w,
        "inner" | "left" | "right" | "full" | "cross" | "join" | "on" | "outer"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_listing1_shape() {
        let sql = r#"
            WITH orig AS (
              SELECT ctid, a, s FROM data),
            curr AS (
              SELECT ctid, s FROM orig WHERE s > 1),
            orig_count AS (
              SELECT s, count(*) AS cnt FROM orig GROUP BY s),
            curr_count AS (
              SELECT s, count(*) AS cnt FROM curr GROUP BY s),
            orig_ratio AS (
              SELECT s, (cnt*1.0 / (select count(*) FROM orig)) AS ratio FROM orig_count),
            curr_ratio AS (
              SELECT s, (cnt*1.0/(select sum(cnt) FROM curr_count)) AS ratio FROM curr_count)
            SELECT o.s, o.ratio - COALESCE(c.ratio, 0) AS bias_change
            FROM curr_ratio c RIGHT OUTER JOIN orig_ratio o ON o.s = c.s;
        "#;
        let stmts = parse_script(sql).unwrap();
        let Statement::Select(q) = &stmts[0] else {
            panic!()
        };
        assert_eq!(q.ctes.len(), 6);
        let Some(TableRef::Join { kind, .. }) = &q.body.from else {
            panic!()
        };
        assert_eq!(*kind, JoinKind::Right);
    }

    #[test]
    fn parses_ddl_and_insert() {
        let stmts = parse_script(
            "CREATE TABLE data (a int, s int); INSERT INTO data (values (1,1), (1,2));",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
        let Statement::Insert { values, .. } = &stmts[1] else {
            panic!()
        };
        assert_eq!(values.len(), 2);
    }

    #[test]
    fn parses_copy() {
        let s = parse_statement(
            "COPY patients (\"id\", \"race\") FROM 'patients.csv' WITH (DELIMITER ',', NULL '', FORMAT CSV, HEADER TRUE)",
        )
        .unwrap();
        let Statement::Copy {
            table,
            columns,
            header,
            null_str,
            ..
        } = s
        else {
            panic!()
        };
        assert_eq!(table, "patients");
        assert_eq!(columns.unwrap().len(), 2);
        assert!(header);
        assert_eq!(null_str, "");
    }

    #[test]
    fn quoted_idents_preserve_case() {
        let s = parse_statement("SELECT tb1.\"Age_Group\" FROM t tb1").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.body.projection[0] else {
            panic!()
        };
        assert_eq!(expr, &Expr::qcol("tb1", "Age_Group"));
    }

    #[test]
    fn operator_precedence() {
        let s = parse_statement("SELECT a + b * c > d AND e FROM t").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.body.projection[0] else {
            panic!()
        };
        // Top is AND.
        assert!(matches!(
            expr,
            Expr::Binary {
                op: BinaryOp::And,
                ..
            }
        ));
    }

    #[test]
    fn case_least_greatest_cast() {
        let s = parse_statement(
            "SELECT CASE WHEN x >= 50 THEN 1 ELSE 0 END, LEAST(a, b), x::double precision, CAST(y AS INT) FROM t",
        );
        assert!(s.is_ok(), "{s:?}");
    }

    #[test]
    fn in_list_and_is_null() {
        let s = parse_statement(
            "SELECT * FROM t WHERE county IN ('county2', 'county3') AND x IS NOT NULL AND y NOT IN (1)",
        );
        assert!(s.is_ok(), "{s:?}");
    }

    #[test]
    fn window_row_number() {
        let s = parse_statement("SELECT ROW_NUMBER() OVER (ORDER BY v DESC) FROM t").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let SelectItem::Expr { expr, .. } = &q.body.projection[0] else {
            panic!()
        };
        let Expr::Function {
            name, window_order, ..
        } = expr
        else {
            panic!()
        };
        assert_eq!(name, "row_number");
        assert!(window_order.as_ref().unwrap()[0].desc);
    }

    #[test]
    fn create_materialized_view() {
        let s = parse_statement("CREATE MATERIALIZED VIEW v AS SELECT 1 AS one").unwrap();
        assert!(matches!(
            s,
            Statement::CreateView {
                materialized: true,
                ..
            }
        ));
    }

    #[test]
    fn not_materialized_cte() {
        let s =
            parse_statement("WITH c AS NOT MATERIALIZED (SELECT 1 AS x) SELECT x FROM c").unwrap();
        let Statement::Select(q) = s else { panic!() };
        assert_eq!(q.ctes[0].materialized, Some(false));
    }

    #[test]
    fn array_literal_and_concat() {
        let s = parse_statement("SELECT array_fill(0, 2) || ARRAY[1] FROM t");
        assert!(s.is_ok(), "{s:?}");
    }

    #[test]
    fn scalar_subquery_in_projection() {
        let s = parse_statement("SELECT COALESCE(x, (SELECT avg(x) FROM t)) FROM t");
        assert!(s.is_ok(), "{s:?}");
    }

    #[test]
    fn implicit_alias_without_as() {
        let s = parse_statement("SELECT t1.a first_col FROM tbl t1").unwrap();
        let Statement::Select(q) = s else { panic!() };
        let SelectItem::Expr { alias, .. } = &q.body.projection[0] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("first_col"));
    }

    #[test]
    fn drop_if_exists() {
        let s = parse_statement("DROP VIEW IF EXISTS v").unwrap();
        assert!(matches!(
            s,
            Statement::Drop {
                is_view: true,
                if_exists: true,
                ..
            }
        ));
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_statement("SELEC 1").is_err());
        assert!(parse_statement("SELECT FROM").is_err());
    }
}
