//! Routing-grade statement dependencies.
//!
//! The sharded serving layer assigns tables to shards and must decide,
//! *without a catalog* (catalogs live on the shard threads), which catalog
//! objects a statement touches and whether it writes any of them. This
//! module extracts that purely syntactically from the parsed AST: named
//! FROM references minus the query's own CTE names, plus the write targets
//! of DDL/DML. A view name counts as a read of the *view* — the router
//! resolves view ownership through its own registry, since only the owning
//! shard's catalog knows the underlying tables.

use crate::ast::{Query, Statement};
use crate::cache::{ast_expr_deps, ast_query_deps};
use crate::error::Result;
use crate::parser::parse_tokens;
use crate::token::Tok;
use std::collections::BTreeSet;

/// What one statement touches, as visible from its AST alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatementDeps {
    /// Catalog objects (tables, views, materialized views) the statement
    /// reads. Sorted and deduplicated; CTE names are excluded.
    pub reads: Vec<String>,
    /// Base tables / views the statement writes (creates, drops, or
    /// appends to). Sorted and deduplicated.
    pub writes: Vec<String>,
    /// Object created by this statement, with its view-ness.
    pub creates: Option<(String, bool)>,
    /// Object dropped by this statement, with its view-ness.
    pub drops: Option<(String, bool)>,
}

impl StatementDeps {
    /// Every object the statement touches (reads ∪ writes), sorted.
    pub fn touched(&self) -> Vec<String> {
        let mut all: BTreeSet<String> = self.reads.iter().cloned().collect();
        all.extend(self.writes.iter().cloned());
        all.into_iter().collect()
    }

    /// True when the statement mutates at least one catalog object.
    pub fn is_write(&self) -> bool {
        !self.writes.is_empty()
    }
}

/// Parse a `;`-separated SQL text into statements (the engine's own lexer
/// and parser, so router-side parse failures are impossible when the shard
/// would have parsed the text — and vice versa).
pub fn parse_sql(sql: &str) -> Result<Vec<Statement>> {
    crate::parser::parse_tokens(crate::lexer::tokenize(sql)?.0)
}

/// Parse a `;`-separated SQL text piece by piece: every top-level
/// `;`-delimited piece's source text (trimmed) with the statements it
/// parses to. The cuts are the lexer's own `;` tokens, so a quote or a
/// comment never moves a boundary. A text without a `;` is one piece;
/// otherwise pieces without a token (a trailing `;`, a lone comment) are
/// dropped. Fails when the text does not lex or a piece does not parse.
pub fn parse_fragments(sql: &str) -> Result<Vec<(&str, Vec<Statement>)>> {
    let (tokens, cuts) = crate::lexer::tokenize(sql)?;
    if cuts.is_empty() {
        // One piece, the common case: parsed without copying anything.
        return Ok(vec![(sql.trim(), parse_tokens(tokens)?)]);
    }
    let (eof, tokens) = tokens.split_last().expect("the lexer ends every stream");
    // Byte offset of a char offset; the cuts ascend, so this is one pass.
    let mut offsets = sql.char_indices().map(|(b, _)| b).enumerate();
    let mut byte = |c| offsets.find(|(i, _)| *i == c).map_or(sql.len(), |(_, b)| b);
    let ends = cuts.iter().copied().chain([sql.len()]);
    let (mut out, mut from) = (Vec::new(), 0);
    for (run, to) in tokens.split(|t| t.kind == Tok::Semicolon).zip(ends) {
        if !run.is_empty() {
            let run = run.iter().chain([eof]).cloned().collect();
            out.push((sql[byte(from)..byte(to)].trim(), parse_tokens(run)?));
        }
        from = to + 1;
    }
    Ok(out)
}

/// Collect the names a query reads: every named FROM reference (including
/// views — the AST cannot tell) at any nesting depth, minus the names of
/// CTEs the query itself defines. Shadowing is resolved the way the binder
/// does: a FROM reference matching an in-scope CTE name is the CTE.
fn query_reads(query: &Query, deps: &mut BTreeSet<String>) {
    let mut raw = BTreeSet::new();
    ast_query_deps(query, &mut raw);
    let mut cte_names = BTreeSet::new();
    collect_cte_names(query, &mut cte_names);
    for name in raw {
        if !cte_names.contains(&name) {
            deps.insert(name);
        }
    }
}

fn collect_cte_names(query: &Query, names: &mut BTreeSet<String>) {
    for cte in &query.ctes {
        names.insert(cte.name.clone());
        collect_cte_names(&cte.query, names);
    }
    collect_cte_names_body(&query.body, names);
}

fn collect_cte_names_body(body: &crate::ast::SelectBody, names: &mut BTreeSet<String>) {
    if let Some(from) = &body.from {
        collect_cte_names_table_ref(from, names);
    }
}

fn collect_cte_names_table_ref(table_ref: &crate::ast::TableRef, names: &mut BTreeSet<String>) {
    match table_ref {
        crate::ast::TableRef::Named { .. } => {}
        crate::ast::TableRef::Subquery { query, .. } => collect_cte_names(query, names),
        crate::ast::TableRef::Join { left, right, .. } => {
            collect_cte_names_table_ref(left, names);
            collect_cte_names_table_ref(right, names);
        }
    }
}

/// The dependencies of one parsed statement.
pub fn statement_deps(stmt: &Statement) -> StatementDeps {
    let mut deps = StatementDeps::default();
    let mut reads = BTreeSet::new();
    match stmt {
        Statement::CreateTable { name, .. } => {
            deps.writes.push(name.clone());
            deps.creates = Some((name.clone(), false));
        }
        Statement::Drop { name, is_view, .. } => {
            deps.writes.push(name.clone());
            deps.drops = Some((name.clone(), *is_view));
        }
        Statement::Insert { table, values, .. } => {
            deps.writes.push(table.clone());
            // INSERT values are constant expressions, but scalar
            // subqueries inside them still read tables.
            for row in values {
                for e in row {
                    ast_expr_deps(e, &mut reads);
                }
            }
        }
        Statement::Copy { table, .. } => {
            deps.writes.push(table.clone());
        }
        Statement::CreateView { name, query, .. } => {
            deps.writes.push(name.clone());
            deps.creates = Some((name.clone(), true));
            query_reads(query, &mut reads);
        }
        Statement::Select(query) | Statement::Explain { query, .. } => {
            query_reads(query, &mut reads);
        }
    }
    deps.reads = reads.into_iter().collect();
    deps.writes.sort();
    deps.writes.dedup();
    deps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deps_of(sql: &str) -> StatementDeps {
        let stmts = parse_sql(sql).unwrap();
        assert_eq!(stmts.len(), 1);
        statement_deps(&stmts[0])
    }

    #[test]
    fn select_reads_tables_not_ctes() {
        let d = deps_of(
            "WITH j AS (SELECT a FROM t1) SELECT j.a, t2.k FROM j INNER JOIN t2 ON j.a = t2.k",
        );
        assert_eq!(d.reads, vec!["t1", "t2"]);
        assert!(d.writes.is_empty());
        assert!(!d.is_write());
    }

    #[test]
    fn subquery_and_scalar_subquery_reads_count() {
        let d =
            deps_of("SELECT x FROM (SELECT a AS x FROM t1) s WHERE x > (SELECT max(k) FROM t2)");
        assert_eq!(d.reads, vec!["t1", "t2"]);
    }

    #[test]
    fn insert_writes_its_table() {
        let d = deps_of("INSERT INTO t1 VALUES (1, 2)");
        assert_eq!(d.writes, vec!["t1"]);
        assert!(d.reads.is_empty());
        assert!(d.is_write());
    }

    #[test]
    fn insert_scalar_subquery_reads() {
        let d = deps_of("INSERT INTO t1 VALUES ((SELECT max(k) FROM t2))");
        assert_eq!(d.writes, vec!["t1"]);
        assert_eq!(d.reads, vec!["t2"]);
    }

    #[test]
    fn ddl_records_creates_and_drops() {
        let d = deps_of("CREATE TABLE t (a int)");
        assert_eq!(d.creates, Some(("t".to_string(), false)));
        assert_eq!(d.writes, vec!["t"]);
        let d = deps_of("DROP VIEW IF EXISTS v");
        assert_eq!(d.drops, Some(("v".to_string(), true)));
        let d = deps_of("CREATE VIEW v AS SELECT a FROM t1");
        assert_eq!(d.creates, Some(("v".to_string(), true)));
        assert_eq!(d.reads, vec!["t1"]);
        assert_eq!(d.writes, vec!["v"]);
    }

    #[test]
    fn fragments_cut_at_lexer_semicolons_only() {
        // An apostrophe inside a line comment and a `;` inside a string or
        // a comment are not boundaries; multi-byte text keeps offsets true.
        let sql = "INSERT INTO ta VALUES ('é;'); -- ta's row; still comment\n\
                   INSERT INTO tb VALUES (1);;INSERT INTO ta VALUES (2); -- tail";
        let pieces = parse_fragments(sql).unwrap();
        let texts: Vec<&str> = pieces.iter().map(|(text, _)| *text).collect();
        assert_eq!(
            texts,
            vec![
                "INSERT INTO ta VALUES ('é;')",
                "-- ta's row; still comment\nINSERT INTO tb VALUES (1)",
                "INSERT INTO ta VALUES (2)",
            ]
        );
        assert!(pieces.iter().all(|(_, stmts)| stmts.len() == 1));
        assert!(parse_fragments("SELECT 1; SELEC 2").is_err());
        assert!(parse_fragments("-- nothing\n;").unwrap().is_empty());
    }

    #[test]
    fn touched_unions_reads_and_writes() {
        let d = deps_of("INSERT INTO t1 VALUES ((SELECT max(k) FROM t2))");
        assert_eq!(d.touched(), vec!["t1", "t2"]);
    }
}
