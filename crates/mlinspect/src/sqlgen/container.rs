//! `SQLQueryContainer`: the ordered list of generated table expressions.
//!
//! "A class SQLQueryContainer collects all the operations in a list that can
//! be translated into working queries for any statements in the pipeline at
//! any time" (paper §4): after every pipeline line the container can emit an
//! executable query for any generated name, in both CTE and VIEW modes.

/// Output mode of the generated SQL (paper §3.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlMode {
    /// One `WITH` chain per query, each query shipping the whole prefix.
    Cte,
    /// One `CREATE VIEW` per operator, queries reference views.
    View,
}

/// One generated table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerEntry {
    /// CTE/view name.
    pub name: String,
    /// The `SELECT ...` body.
    pub body: String,
    /// Candidate for materialization (fitting parameters and, when the user
    /// materializes, every view — paper §3.4.2).
    pub materialize_candidate: bool,
}

/// Ordered collection of all table expressions generated so far.
#[derive(Debug, Clone, Default)]
pub struct SqlQueryContainer {
    entries: Vec<ContainerEntry>,
}

impl SqlQueryContainer {
    /// Empty container.
    pub fn new() -> SqlQueryContainer {
        SqlQueryContainer::default()
    }

    /// Append a table expression.
    pub fn push(&mut self, name: impl Into<String>, body: impl Into<String>, fit: bool) {
        self.entries.push(ContainerEntry {
            name: name.into(),
            body: body.into(),
            materialize_candidate: fit,
        });
    }

    /// All entries in generation order.
    pub fn entries(&self) -> &[ContainerEntry] {
        &self.entries
    }

    /// Number of table expressions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was generated yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Assemble a full query for `select` in the given mode: CTE mode wraps
    /// the entire prefix into a `WITH` chain (unreferenced CTEs cost nothing
    /// — the engine materializes lazily, like PostgreSQL); VIEW mode returns
    /// the bare select, since the views already exist in the catalog.
    pub fn query(&self, mode: SqlMode, select: &str) -> String {
        match mode {
            SqlMode::View => format!("{select};"),
            SqlMode::Cte => {
                if self.entries.is_empty() {
                    return format!("{select};");
                }
                let mut out = String::with_capacity(1024);
                out.push_str("WITH ");
                for (i, e) in self.entries.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    out.push_str(&e.name);
                    out.push_str(" AS (\n");
                    out.push_str(&e.body);
                    out.push_str("\n)");
                }
                out.push('\n');
                out.push_str(select);
                out.push(';');
                out
            }
        }
    }

    /// The `CREATE [MATERIALIZED] VIEW` statement for one entry (VIEW mode).
    pub fn view_ddl(entry: &ContainerEntry, materialize: bool) -> String {
        format!(
            "CREATE {}VIEW {} AS {};",
            if materialize { "MATERIALIZED " } else { "" },
            entry.name,
            entry.body
        )
    }

    /// `DROP [MATERIALIZED] VIEW IF EXISTS` for every entry, newest first,
    /// each by the kind [`SqlQueryContainer::view_script`] creates it as
    /// (PostgreSQL drops a materialized view only by its own verb). Run
    /// before the script drops its tables, it makes the script rerunnable.
    pub fn view_drops(&self, materialize: bool) -> String {
        self.entries
            .iter()
            .rev()
            .map(|e| {
                let kind = if materialize && e.materialize_candidate {
                    "MATERIALIZED "
                } else {
                    ""
                };
                format!("DROP {kind}VIEW IF EXISTS {};", e.name)
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The full VIEW-mode script (for display / debugging — execution happens
    /// incrementally).
    pub fn view_script(&self, materialize: bool) -> String {
        self.entries
            .iter()
            .map(|e| SqlQueryContainer::view_ddl(e, materialize && e.materialize_candidate))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cte_mode_wraps_whole_prefix() {
        let mut c = SqlQueryContainer::new();
        c.push("a", "SELECT 1 AS x", false);
        c.push("b", "SELECT x FROM a", false);
        let q = c.query(SqlMode::Cte, "SELECT x FROM b");
        assert!(q.starts_with("WITH a AS ("));
        assert!(q.contains("b AS ("));
        assert!(q.trim_end().ends_with("SELECT x FROM b;"));
    }

    #[test]
    fn view_mode_is_bare_select() {
        let mut c = SqlQueryContainer::new();
        c.push("a", "SELECT 1 AS x", false);
        assert_eq!(
            c.query(SqlMode::View, "SELECT x FROM a"),
            "SELECT x FROM a;"
        );
    }

    #[test]
    fn view_ddl_materializes_candidates_only() {
        let mut c = SqlQueryContainer::new();
        c.push("op", "SELECT 1 AS x", false);
        c.push("fit", "SELECT avg(x) AS m FROM op", true);
        let script = c.view_script(true);
        assert!(script.contains("CREATE VIEW op"));
        assert!(script.contains("CREATE MATERIALIZED VIEW fit"));
    }

    #[test]
    fn view_drops_go_newest_first_by_each_view_kind() {
        let mut c = SqlQueryContainer::new();
        c.push("op", "SELECT 1 AS x", false);
        c.push("fit", "SELECT avg(x) AS m FROM op", true);
        assert_eq!(
            c.view_drops(true),
            "DROP MATERIALIZED VIEW IF EXISTS fit;\nDROP VIEW IF EXISTS op;"
        );
        assert_eq!(
            c.view_drops(false),
            "DROP VIEW IF EXISTS fit;\nDROP VIEW IF EXISTS op;"
        );
    }

    #[test]
    fn empty_container_query() {
        let c = SqlQueryContainer::new();
        assert_eq!(c.query(SqlMode::Cte, "SELECT 1"), "SELECT 1;");
    }
}
