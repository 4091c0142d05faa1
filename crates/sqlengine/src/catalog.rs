//! The catalog: base tables, views and materialized views.

use crate::ast::Query;
use crate::error::{Result, SqlError};
use crate::storage::{StoredView, Table};
use std::collections::HashMap;

/// A view definition.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// Defining query AST (re-bound and inlined at every reference for plain
    /// views).
    pub query: Query,
    /// Stored data for materialized views (computed at creation).
    pub materialized: Option<StoredView>,
}

/// Name → object maps. Names are compared case-sensitively after the lexer
/// has lower-cased unquoted identifiers, matching PostgreSQL folding.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    views: HashMap<String, ViewDef>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table; errors if any object of that name exists.
    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let name = table.name.clone();
        if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(SqlError::catalog(format!("object '{name}' already exists")));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Register a view; errors if any object of that name exists.
    pub fn create_view(&mut self, view: ViewDef) -> Result<()> {
        let name = view.name.clone();
        if self.tables.contains_key(&name) || self.views.contains_key(&name) {
            return Err(SqlError::catalog(format!("object '{name}' already exists")));
        }
        self.views.insert(name, view);
        Ok(())
    }

    /// Drop a table or view; returns the dropped base table, if one was.
    pub fn drop(&mut self, name: &str, is_view: bool, if_exists: bool) -> Result<Option<Table>> {
        let dropped = if is_view {
            self.views.remove(name).map(|_| None)
        } else {
            self.tables.remove(name).map(Some)
        };
        match dropped {
            Some(table) => Ok(table),
            None if if_exists => Ok(None),
            None => Err(SqlError::catalog(format!(
                "{} '{name}' does not exist",
                if is_view { "view" } else { "table" }
            ))),
        }
    }

    /// Look up a base table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Mutable base-table lookup (INSERT/COPY).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// Look up a view.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        self.views.get(name)
    }

    /// All table names (sorted, for introspection/tests).
    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// All view names (sorted).
    pub fn view_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.views.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::DataType;

    #[test]
    fn duplicate_names_rejected_across_kinds() {
        let mut c = Catalog::new();
        c.create_table(Table::empty("t", vec!["a".into()], vec![DataType::Int]))
            .unwrap();
        assert!(c
            .create_table(Table::empty("t", vec!["a".into()], vec![DataType::Int]))
            .is_err());
        let v = ViewDef {
            name: "t".into(),
            query: crate::parser::parse_statement("SELECT 1 AS one")
                .map(|s| match s {
                    crate::ast::Statement::Select(q) => q,
                    _ => unreachable!(),
                })
                .unwrap(),
            materialized: None,
        };
        assert!(c.create_view(v).is_err());
    }

    #[test]
    fn drop_semantics() {
        let mut c = Catalog::new();
        c.create_table(Table::empty("t", vec!["a".into()], vec![DataType::Int]))
            .unwrap();
        assert!(c.drop("t", true, false).is_err()); // wrong kind
        c.drop("t", false, false).unwrap();
        assert!(c.drop("t", false, false).is_err());
        c.drop("t", false, true).unwrap(); // IF EXISTS swallows
    }
}
