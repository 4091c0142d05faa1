//! SQL code generation: one CTE/view per pipeline operator (paper §5).
//!
//! [`SqlGen`] is the paper's "SQL mapping": it assigns every captured dummy
//! object a table expression, tracks the tuple-identifier columns threaded
//! through every operator, and produces the inspection queries that restore
//! sensitive columns through those identifiers (paper §3).

pub mod container;
pub mod exprs;
pub mod sklearn_ops;

pub use container::{ContainerEntry, SqlMode, SqlQueryContainer};
pub use exprs::{quote_ident, sanitize, sexpr_to_sql};

use crate::dag::{CtStep, NodeId, SExpr, SplitPart};
use crate::error::{MlError, Result};
use etypes::{DataType, Value};
use std::collections::HashMap;

/// One tuple-identifier column carried by a table expression.
#[derive(Debug, Clone, PartialEq)]
pub struct CtidCol {
    /// Column name (`<read-table>_ctid`, unique per base table).
    pub name: String,
    /// The ReadCsv node this identifier originates from.
    pub source: NodeId,
    /// True after an aggregation turned it into an array (paper Listing 3).
    pub aggregated: bool,
}

/// The SQL-side description of one captured object (the paper's mapping
/// value: table expression name, columns, identifier list).
#[derive(Debug, Clone, PartialEq)]
pub struct TableExpr {
    /// CTE/view name.
    pub sql_name: String,
    /// Visible data columns.
    pub columns: Vec<String>,
    /// Types, parallel to `columns`.
    pub types: Vec<DataType>,
    /// Nullability, parallel to `columns`.
    pub nullable: Vec<bool>,
    /// Tuple identifiers currently associated with the object.
    pub ctids: Vec<CtidCol>,
}

impl TableExpr {
    /// Type of a column, if present.
    pub fn col_type(&self, name: &str) -> Option<&DataType> {
        self.columns
            .iter()
            .position(|c| c == name)
            .map(|i| &self.types[i])
    }

    /// Nullability of a column (true when unknown).
    pub fn is_nullable(&self, name: &str) -> bool {
        self.columns
            .iter()
            .position(|c| c == name)
            .map(|i| self.nullable[i])
            .unwrap_or(true)
    }

    fn ctid_select_list(&self, alias: Option<&str>) -> Vec<String> {
        self.ctids
            .iter()
            .map(|c| match alias {
                Some(a) => format!("{a}.{}", quote_ident(&c.name)),
                None => quote_ident(&c.name),
            })
            .collect()
    }
}

/// DDL + COPY emitted for one `read_csv`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadCsvSql {
    /// Base table name.
    pub table: String,
    /// `DROP TABLE IF EXISTS ...; CREATE TABLE ...`.
    pub create: String,
    /// The `COPY` statement (for display; the backend bulk-loads directly).
    pub copy: String,
}

/// One inspection query measuring several sensitive columns at once.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramQuery {
    /// The measured columns; result column `i` holds `columns[i]`'s value,
    /// the last result column the joint count.
    pub columns: Vec<String>,
    /// The bare `SELECT`, to be assembled for the active [`SqlMode`].
    pub select: String,
}

/// The SQL generator: translates captured operators into container entries.
#[derive(Debug, Clone, Default)]
pub struct SqlGen {
    /// All generated table expressions, in order.
    pub container: SqlQueryContainer,
    mapping: HashMap<NodeId, TableExpr>,
    origins: HashMap<NodeId, TableExpr>,
}

impl SqlGen {
    /// Fresh generator.
    pub fn new() -> SqlGen {
        SqlGen::default()
    }

    /// The table expression of a translated node.
    pub fn table_expr(&self, node: NodeId) -> Result<&TableExpr> {
        self.mapping
            .get(&node)
            .ok_or_else(|| MlError::Internal(format!("node {node} not translated")))
    }

    fn name_for(&self, id: NodeId, line: usize) -> String {
        format!("block_mlinid{id}_{line}")
    }

    fn register(&mut self, id: NodeId, te: TableExpr, body: String, fit: bool) {
        self.container.push(te.sql_name.clone(), body, fit);
        self.mapping.insert(id, te);
    }

    // ---- operators -----------------------------------------------------------

    /// `read_csv`: DDL for the base table plus the ctid-exposing first CTE
    /// (paper Listing 5 lines 1-11).
    #[allow(clippy::too_many_arguments)]
    pub fn read_csv(
        &mut self,
        id: NodeId,
        line: usize,
        file: &str,
        columns: &[String],
        types: &[DataType],
        nullable: &[bool],
        na_marker: Option<&str>,
    ) -> ReadCsvSql {
        let stem = sanitize(
            file.rsplit('/')
                .next()
                .unwrap_or(file)
                .trim_end_matches(".csv"),
        );
        let table = format!("{stem}_{line}_mlinid{id}");
        let cte = format!("{table}_ctid");
        let ctid_col = format!("{table}_ctid");

        let col_defs: Vec<String> = columns
            .iter()
            .zip(types)
            .map(|(c, t)| format!("{} {}", quote_ident(c), t.sql_name()))
            .collect();
        let create = format!(
            "DROP TABLE IF EXISTS {table};\nCREATE TABLE {table} ({});",
            col_defs.join(", ")
        );
        let col_list: Vec<String> = columns.iter().map(|c| quote_ident(c)).collect();
        let copy = format!(
            "COPY {table} ({}) FROM '{file}' WITH (DELIMITER ',', NULL '{}', FORMAT CSV, HEADER TRUE);",
            col_list.join(", "),
            na_marker.unwrap_or(""),
        );

        let body = format!(
            "SELECT {}, ctid AS {} FROM {table}",
            col_list.join(", "),
            quote_ident(&ctid_col)
        );
        let te = TableExpr {
            sql_name: cte,
            columns: columns.to_vec(),
            types: types.to_vec(),
            nullable: nullable.to_vec(),
            ctids: vec![CtidCol {
                name: ctid_col,
                source: id,
                aggregated: false,
            }],
        };
        self.origins.insert(id, te.clone());
        self.register(id, te, body, false);
        ReadCsvSql {
            table,
            create,
            copy,
        }
    }

    /// `merge` (paper §5.1.2): explicit column list, both sides' tuple
    /// identifiers, null-joining predicate for nullable keys.
    pub fn join(
        &mut self,
        id: NodeId,
        line: usize,
        left: NodeId,
        right: NodeId,
        on: &[String],
    ) -> Result<()> {
        let lt = self.table_expr(left)?.clone();
        let rt = self.table_expr(right)?.clone();
        let name = self.name_for(id, line);

        let mut select: Vec<String> = Vec::new();
        let mut columns: Vec<String> = Vec::new();
        let mut types: Vec<DataType> = Vec::new();
        let mut nullable: Vec<bool> = Vec::new();

        for k in on {
            select.push(format!("tb1.{}", quote_ident(k)));
            columns.push(k.clone());
            types.push(lt.col_type(k).cloned().unwrap_or(DataType::Text));
            nullable.push(lt.is_nullable(k) || rt.is_nullable(k));
        }
        let is_key = |c: &str| on.iter().any(|k| k == c);
        for (i, c) in lt.columns.iter().enumerate() {
            if is_key(c) {
                continue;
            }
            let out = if rt.columns.contains(c) {
                format!("{c}_x")
            } else {
                c.clone()
            };
            select.push(format!("tb1.{} AS {}", quote_ident(c), quote_ident(&out)));
            columns.push(out);
            types.push(lt.types[i].clone());
            nullable.push(lt.nullable[i]);
        }
        for (i, c) in rt.columns.iter().enumerate() {
            if is_key(c) {
                continue;
            }
            let out = if lt.columns.contains(c) {
                format!("{c}_y")
            } else {
                c.clone()
            };
            select.push(format!("tb2.{} AS {}", quote_ident(c), quote_ident(&out)));
            columns.push(out);
            types.push(rt.types[i].clone());
            nullable.push(rt.nullable[i]);
        }

        // Tuple identifiers from both inputs; on a name collision (self-join
        // or join with a derivative) the left side's identifiers win — the
        // paper's Listing 5 keeps only tb1's ctid when joining back the
        // aggregation result.
        let mut ctids = lt.ctids.clone();
        select.extend(lt.ctid_select_list(Some("tb1")));
        for c in &rt.ctids {
            if !ctids.iter().any(|l| l.name == c.name) {
                select.push(format!("tb2.{}", quote_ident(&c.name)));
                ctids.push(c.clone());
            }
        }

        let cond: Vec<String> = on
            .iter()
            .map(|k| {
                let kq = quote_ident(k);
                if lt.is_nullable(k) || rt.is_nullable(k) {
                    format!("(tb1.{kq} = tb2.{kq} OR (tb1.{kq} IS NULL AND tb2.{kq} IS NULL))")
                } else {
                    format!("tb1.{kq} = tb2.{kq}")
                }
            })
            .collect();

        let body = format!(
            "SELECT {}\nFROM {} tb1 INNER JOIN {} tb2 ON {}",
            select.join(", "),
            lt.sql_name,
            rt.sql_name,
            cond.join(" AND ")
        );
        let te = TableExpr {
            sql_name: name,
            columns,
            types,
            nullable,
            ctids,
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// `groupby().agg()` (paper §5.1.5): aggregate the tuple identifiers
    /// into arrays alongside the data aggregates.
    pub fn groupby_agg(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        keys: &[String],
        aggs: &[dataframe::AggSpec],
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let mut select: Vec<String> = Vec::new();
        let mut ctids = Vec::new();
        for c in &it.ctids {
            select.push(format!(
                "array_agg({}) AS {}",
                quote_ident(&c.name),
                quote_ident(&c.name)
            ));
            ctids.push(CtidCol {
                aggregated: true,
                ..c.clone()
            });
        }
        let mut columns = Vec::new();
        let mut types = Vec::new();
        let mut nullable = Vec::new();
        for k in keys {
            select.push(quote_ident(k));
            columns.push(k.clone());
            types.push(it.col_type(k).cloned().unwrap_or(DataType::Text));
            nullable.push(it.is_nullable(k));
        }
        for a in aggs {
            select.push(format!(
                "{}({}) AS {}",
                a.func.sql_name(),
                quote_ident(&a.input),
                quote_ident(&a.output)
            ));
            columns.push(a.output.clone());
            types.push(match a.func {
                dataframe::AggFunc::Count => DataType::Int,
                dataframe::AggFunc::Mean | dataframe::AggFunc::Std => DataType::Float,
                _ => it.col_type(&a.input).cloned().unwrap_or(DataType::Float),
            });
            nullable.push(true);
        }
        let key_list: Vec<String> = keys.iter().map(|k| quote_ident(k)).collect();
        let body = format!(
            "SELECT {}\nFROM {} GROUP BY {}",
            select.join(", "),
            it.sql_name,
            key_list.join(", ")
        );
        let te = TableExpr {
            sql_name: name,
            columns,
            types,
            nullable,
            ctids,
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// `frame[col] = expr` (paper §5.1.4 / Listing 11): copy the previous
    /// expression and add the new column in place.
    pub fn set_item(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        column: &str,
        expr: &SExpr,
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let mut select: Vec<String> = Vec::new();
        let mut columns = Vec::new();
        let mut types = Vec::new();
        let mut nullable = Vec::new();
        for (i, c) in it.columns.iter().enumerate() {
            if c == column {
                continue; // overwritten below
            }
            select.push(quote_ident(c));
            columns.push(c.clone());
            types.push(it.types[i].clone());
            nullable.push(it.nullable[i]);
        }
        select.push(format!(
            "{} AS {}",
            sexpr_to_sql(expr, None),
            quote_ident(column)
        ));
        columns.push(column.to_string());
        types.push(infer_sexpr_type(expr, &it));
        nullable.push(true);
        select.extend(it.ctid_select_list(None));
        let body = format!("SELECT {}\nFROM {}", select.join(", "), it.sql_name);
        let te = TableExpr {
            sql_name: name,
            columns,
            types,
            nullable,
            ctids: it.ctids,
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// Projection (paper §5.1.3): requested columns plus every tuple
    /// identifier — "the index allows the restoration of the sensitive
    /// column" later.
    pub fn project(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        columns: &[String],
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let mut select: Vec<String> = columns.iter().map(|c| quote_ident(c)).collect();
        select.extend(it.ctid_select_list(None));
        let types = columns
            .iter()
            .map(|c| it.col_type(c).cloned().unwrap_or(DataType::Text))
            .collect();
        let nullable = columns.iter().map(|c| it.is_nullable(c)).collect();
        let body = format!("SELECT {}\nFROM {}", select.join(", "), it.sql_name);
        let te = TableExpr {
            sql_name: name,
            columns: columns.to_vec(),
            types,
            nullable,
            ctids: it.ctids,
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// Selection (paper §5.1.3).
    pub fn filter(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        condition: &SExpr,
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let body = format!(
            "SELECT * FROM {}\nWHERE {}",
            it.sql_name,
            sexpr_to_sql(condition, None)
        );
        let te = TableExpr {
            sql_name: name,
            ..it
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// `dropna` (paper §5.1.6): concatenated negated `IS NULL` blocks.
    pub fn dropna(&mut self, id: NodeId, line: usize, input: NodeId) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let conds: Vec<String> = it
            .columns
            .iter()
            .map(|c| format!("NOT ({} IS NULL)", quote_ident(c)))
            .collect();
        let body = if conds.is_empty() {
            format!("SELECT * FROM {}", it.sql_name)
        } else {
            format!(
                "SELECT * FROM {}\nWHERE {}",
                it.sql_name,
                conds.join(" AND ")
            )
        };
        let mut te = TableExpr {
            sql_name: name,
            ..it
        };
        for n in &mut te.nullable {
            *n = false;
        }
        self.register(id, te, body, false);
        Ok(())
    }

    /// `replace` (paper §5.1.7): anchored `REGEXP_REPLACE` on text columns.
    pub fn replace(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        from: &Value,
        to: &Value,
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let mut select = Vec::new();
        for (i, c) in it.columns.iter().enumerate() {
            let cq = quote_ident(c);
            let replaced = match (&it.types[i], from, to) {
                (DataType::Text, Value::Text(f), Value::Text(t)) => {
                    format!(
                        "REGEXP_REPLACE({cq}, '^{}$', '{}') AS {cq}",
                        escape_regex_literal(f),
                        t.replace('\'', "''")
                    )
                }
                (ty, f, t)
                    if !matches!(ty, DataType::Text) && f.data_type().as_ref() == Some(ty) =>
                {
                    format!(
                        "(CASE WHEN {cq} = {} THEN {} ELSE {cq} END) AS {cq}",
                        f.sql_literal(),
                        t.sql_literal()
                    )
                }
                _ => cq.clone(),
            };
            select.push(replaced);
        }
        select.extend(it.ctid_select_list(None));
        let body = format!("SELECT {}\nFROM {}", select.join(", "), it.sql_name);
        let te = TableExpr {
            sql_name: name,
            ..it
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// `fillna`: COALESCE over every column whose type matches the fill
    /// value (pandas coerces dtypes; SQL cannot, so incompatible columns
    /// pass through unchanged).
    pub fn fillna(&mut self, id: NodeId, line: usize, input: NodeId, value: &Value) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let fill_ty = value.data_type();
        let mut select = Vec::new();
        for (i, c) in it.columns.iter().enumerate() {
            let cq = quote_ident(c);
            if Some(&it.types[i]) == fill_ty.as_ref()
                || (it.types[i] == DataType::Float && fill_ty == Some(DataType::Int))
            {
                select.push(format!("COALESCE({cq}, {}) AS {cq}", value.sql_literal()));
            } else {
                select.push(cq);
            }
        }
        select.extend(it.ctid_select_list(None));
        let body = format!("SELECT {}\nFROM {}", select.join(", "), it.sql_name);
        let mut te = TableExpr {
            sql_name: name,
            ..it
        };
        for (i, n) in te.nullable.iter_mut().enumerate() {
            if Some(&te.types[i]) == fill_ty.as_ref() {
                *n = false;
            }
        }
        self.register(id, te, body, false);
        Ok(())
    }

    /// `head(n)`: LIMIT.
    pub fn head(&mut self, id: NodeId, line: usize, input: NodeId, n: u64) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let body = format!("SELECT * FROM {} LIMIT {n}", it.sql_name);
        let te = TableExpr {
            sql_name: name,
            ..it
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// `sort_values(by=..., ascending=...)`: ORDER BY.
    pub fn sort_values(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        by: &[String],
        ascending: bool,
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let keys: Vec<String> = by
            .iter()
            .map(|k| format!("{}{}", quote_ident(k), if ascending { "" } else { " DESC" }))
            .collect();
        let body = format!("SELECT * FROM {} ORDER BY {}", it.sql_name, keys.join(", "));
        let te = TableExpr {
            sql_name: name,
            ..it
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// `drop(columns=[...])`: projection to the complement (tuple
    /// identifiers are kept, like every projection).
    pub fn drop_columns(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        dropped: &[String],
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let kept: Vec<String> = it
            .columns
            .iter()
            .filter(|c| !dropped.contains(c))
            .cloned()
            .collect();
        self.project(id, line, input, &kept)
    }

    /// `label_binarize`: a CASE projection producing the `label` column,
    /// keeping the tuple identifiers for row alignment.
    pub fn label_binarize(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        column: &str,
        classes: &[Value; 2],
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let name = self.name_for(id, line);
        let mut select = vec![format!(
            "(CASE WHEN {} = {} THEN 1 ELSE 0 END) AS \"label\"",
            quote_ident(column),
            classes[1].sql_literal()
        )];
        select.extend(it.ctid_select_list(None));
        let body = format!("SELECT {}\nFROM {}", select.join(", "), it.sql_name);
        let te = TableExpr {
            sql_name: name,
            columns: vec!["label".to_string()],
            types: vec![DataType::Int],
            nullable: vec![false],
            ctids: it.ctids,
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// One half of `train_test_split`: a deterministic hash of the first
    /// tuple identifier partitions the rows (see
    /// [`crate::backends::split_hash`]).
    pub fn split(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        part: SplitPart,
        test_percent: u8,
        seed: u64,
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let ctid = it
            .ctids
            .iter()
            .find(|c| !c.aggregated)
            .ok_or_else(|| MlError::Internal("split needs a scalar tuple identifier".into()))?;
        let name = self.name_for(id, line);
        let cmp = match part {
            SplitPart::Train => ">=",
            SplitPart::Test => "<",
        };
        let body = format!(
            "SELECT * FROM {}\nWHERE (({} * 2654435761 + {}) % 100) {cmp} {}",
            it.sql_name,
            quote_ident(&ctid.name),
            seed % 1_000_003,
            test_percent
        );
        let te = TableExpr {
            sql_name: name,
            ..it
        };
        self.register(id, te, body, false);
        Ok(())
    }

    /// ColumnTransformer featurisation (paper §5.2): fit tables (candidates
    /// for materialization) plus the transform expression.
    pub fn featurisation(
        &mut self,
        id: NodeId,
        line: usize,
        input: NodeId,
        steps: &[CtStep],
        fit_node: Option<NodeId>,
    ) -> Result<()> {
        let it = self.table_expr(input)?.clone();
        let fit_owner = fit_node.unwrap_or(id);
        let fit_input = match fit_node {
            // The fit tables were generated by the fit-time featurisation
            // and reference the *training* frame; reuse them verbatim.
            Some(_) => None,
            None => Some(it.sql_name.clone()),
        };
        let name = self.name_for(id, line);
        let (entries, body, out) =
            sklearn_ops::featurisation_sql(&name, &it, steps, fit_owner, fit_input.as_deref())?;
        for (fit_name, fit_body) in entries {
            self.container.push(fit_name, fit_body, true);
        }
        self.register(id, out, body, false);
        Ok(())
    }

    // ---- inspection ------------------------------------------------------------

    /// The histogram queries of the sensitive `columns` at a node (paper
    /// Listing 5 lines 31-33), one per restoration path instead of one per
    /// column: columns present in the relation share a direct `GROUP BY`,
    /// columns restored through the same tuple identifier share one
    /// join-back (with `unnest` after aggregations). Each query groups by
    /// all of its columns at once; the caller folds the joint counts into
    /// per-column marginals. Columns that cannot be restored are left out.
    pub fn histogram_selects(&self, node: NodeId, columns: &[String]) -> Vec<HistogramQuery> {
        let Some(te) = self.mapping.get(&node) else {
            return Vec::new();
        };
        // `None` is the direct path, `Some(i)` the join-back through
        // `te.ctids[i]`; first-seen order keeps the output deterministic.
        let mut paths: Vec<(Option<usize>, Vec<String>)> = Vec::new();
        for column in columns {
            let path = if te.columns.contains(column) {
                None
            } else {
                let restoring = te.ctids.iter().position(|ctid| {
                    self.origins
                        .get(&ctid.source)
                        .is_some_and(|origin| origin.columns.contains(column))
                });
                if restoring.is_none() {
                    continue;
                }
                restoring
            };
            match paths.iter_mut().find(|(p, _)| *p == path) {
                Some((_, cols)) => cols.push(column.clone()),
                None => paths.push((path, vec![column.clone()])),
            }
        }
        paths
            .into_iter()
            .map(|(path, columns)| {
                let qualifier = if path.is_some() { "tb_orig." } else { "" };
                let keys: Vec<String> = columns
                    .iter()
                    .map(|c| format!("{qualifier}{}", quote_ident(c)))
                    .collect();
                let values: Vec<String> = keys
                    .iter()
                    .enumerate()
                    .map(|(i, k)| format!("{k} AS value{i}"))
                    .collect();
                let from = match path {
                    None => te.sql_name.clone(),
                    Some(i) => {
                        let ctid = &te.ctids[i];
                        let origin = &self.origins[&ctid.source];
                        let octid = quote_ident(&origin.ctids[0].name);
                        let curq = quote_ident(&ctid.name);
                        let (current, key) = if ctid.aggregated {
                            (
                                format!("(SELECT unnest({curq}) AS u FROM {})", te.sql_name),
                                "u".to_string(),
                            )
                        } else {
                            (te.sql_name.clone(), curq)
                        };
                        format!(
                            "{current} tb_curr JOIN {} tb_orig ON tb_curr.{key} = tb_orig.{octid}",
                            origin.sql_name
                        )
                    }
                };
                let select = format!(
                    "SELECT {}, count(*) AS cnt FROM {from} GROUP BY {}",
                    values.join(", "),
                    keys.join(", ")
                );
                HistogramQuery { columns, select }
            })
            .collect()
    }

    /// `SELECT <visible columns> FROM node`, optionally limited.
    pub fn select_visible(&self, node: NodeId, limit: Option<usize>) -> Result<String> {
        let te = self.table_expr(node)?;
        let cols: Vec<String> = te.columns.iter().map(|c| quote_ident(c)).collect();
        let cols = if cols.is_empty() {
            "*".to_string()
        } else {
            cols.join(", ")
        };
        Ok(match limit {
            Some(k) => format!("SELECT {cols} FROM {} LIMIT {k}", te.sql_name),
            None => format!("SELECT {cols} FROM {}", te.sql_name),
        })
    }

    /// `SELECT <ctid columns> FROM node LIMIT k` for RowLineage.
    pub fn select_lineage(&self, node: NodeId, k: usize) -> Result<(Vec<String>, String)> {
        let te = self.table_expr(node)?;
        let names: Vec<String> = te.ctids.iter().map(|c| c.name.clone()).collect();
        let cols: Vec<String> = names.iter().map(|c| quote_ident(c)).collect();
        Ok((
            names,
            format!("SELECT {} FROM {} LIMIT {k}", cols.join(", "), te.sql_name),
        ))
    }
}

/// Best-effort type of a captured expression (drives join null-handling and
/// the replace translation, not execution).
fn infer_sexpr_type(expr: &SExpr, input: &TableExpr) -> DataType {
    use pyparser::BinOp::*;
    match expr {
        SExpr::Col(c) => input.col_type(c).cloned().unwrap_or(DataType::Text),
        SExpr::Lit(v) => v.data_type().unwrap_or(DataType::Text),
        SExpr::Binary { op, left, right } => match op {
            Lt | Gt | Le | Ge | Eq | NotEq | BitAnd | BitOr | And | Or => DataType::Bool,
            Div | FloorDiv => DataType::Float,
            _ => {
                let lt = infer_sexpr_type(left, input);
                let rt = infer_sexpr_type(right, input);
                lt.unify(&rt).unwrap_or(DataType::Float)
            }
        },
        SExpr::Unary { op, operand } => match op {
            pyparser::UnaryOp::Neg => infer_sexpr_type(operand, input),
            _ => DataType::Bool,
        },
        SExpr::IsIn { .. } => DataType::Bool,
    }
}

/// Escape a literal for the engine's anchored-literal regex dialect.
fn escape_regex_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if matches!(
            c,
            '.' | '*' | '+' | '?' | '[' | ']' | '(' | ')' | '{' | '}' | '|' | '^' | '$' | '\\'
        ) {
            out.push('\\');
        }
        if c == '\'' {
            out.push('\'');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pyparser::BinOp;

    fn read(gen: &mut SqlGen, id: NodeId) -> TableExpr {
        gen.read_csv(
            id,
            20 + id,
            "patients.csv",
            &["race".into(), "age_group".into(), "ssn".into()],
            &[DataType::Text, DataType::Text, DataType::Text],
            &[false, false, false],
            Some("?"),
        );
        gen.table_expr(id).unwrap().clone()
    }

    #[test]
    fn read_csv_exposes_ctid_in_first_cte() {
        let mut gen = SqlGen::new();
        let te = read(&mut gen, 0);
        assert_eq!(te.sql_name, "patients_20_mlinid0_ctid");
        assert_eq!(te.ctids.len(), 1);
        let entry = &gen.container.entries()[0];
        assert!(entry.body.contains("ctid AS \"patients_20_mlinid0_ctid\""));
    }

    #[test]
    fn projection_keeps_ctids() {
        let mut gen = SqlGen::new();
        read(&mut gen, 0);
        gen.project(1, 33, 0, &["race".into()]).unwrap();
        let body = &gen.container.entries()[1].body;
        assert!(body.contains("\"race\""));
        assert!(body.contains("patients_20_mlinid0_ctid"));
        // age_group is gone from the visible columns...
        let te = gen.table_expr(1).unwrap();
        assert!(!te.columns.contains(&"age_group".to_string()));
        // ...but the histogram query can still restore it via the ctid.
        let q = &gen.histogram_selects(1, &["age_group".into()])[0].select;
        assert!(q.contains("JOIN patients_20_mlinid0_ctid"));
        assert!(q.contains("GROUP BY tb_orig.\"age_group\""));
    }

    #[test]
    fn histogram_queries_are_one_per_restoration_path() {
        let mut gen = SqlGen::new();
        read(&mut gen, 0);
        let both = ["race".to_string(), "age_group".to_string()];
        // Both present: one direct GROUP BY over both.
        let present = gen.histogram_selects(0, &both);
        assert_eq!(present.len(), 1);
        assert_eq!(present[0].columns, both);
        assert_eq!(
            present[0].select,
            "SELECT \"race\" AS value0, \"age_group\" AS value1, count(*) AS cnt \
             FROM patients_20_mlinid0_ctid GROUP BY \"race\", \"age_group\""
        );
        // One present, one projected away: a direct query and a join-back.
        gen.project(1, 33, 0, &["race".into()]).unwrap();
        let split = gen.histogram_selects(1, &both);
        assert_eq!(split.len(), 2);
        assert_eq!(split[0].columns, ["race"]);
        assert_eq!(split[1].columns, ["age_group"]);
        // Both projected away: they share the one join-back.
        gen.project(2, 34, 0, &["ssn".into()]).unwrap();
        let shared = gen.histogram_selects(2, &both);
        assert_eq!(shared.len(), 1);
        assert_eq!(shared[0].select.matches("JOIN").count(), 1);
        assert!(shared[0]
            .select
            .ends_with("GROUP BY tb_orig.\"race\", tb_orig.\"age_group\""));
    }

    #[test]
    fn aggregation_ctids_are_array_agged_and_unnested() {
        let mut gen = SqlGen::new();
        read(&mut gen, 0);
        gen.groupby_agg(
            1,
            28,
            0,
            &["age_group".into()],
            &[dataframe::AggSpec {
                output: "n".into(),
                input: "race".into(),
                func: dataframe::AggFunc::Count,
            }],
        )
        .unwrap();
        let body = &gen.container.entries()[1].body;
        assert!(body.contains("array_agg(\"patients_20_mlinid0_ctid\")"));
        let q = &gen.histogram_selects(1, &["race".into()])[0].select;
        assert!(q.contains("unnest("), "{q}");
    }

    #[test]
    fn join_carries_both_ctid_sets() {
        let mut gen = SqlGen::new();
        read(&mut gen, 0);
        gen.read_csv(
            1,
            23,
            "histories.csv",
            &["smoker".into(), "ssn".into()],
            &[DataType::Text, DataType::Text],
            &[true, false],
            Some("?"),
        );
        gen.join(2, 27, 0, 1, &["ssn".into()]).unwrap();
        let te = gen.table_expr(2).unwrap();
        assert_eq!(te.ctids.len(), 2);
        let body = &gen.container.entries()[2].body;
        assert!(body.contains("INNER JOIN"));
        assert!(body.contains("tb1.\"ssn\" = tb2.\"ssn\""));
    }

    #[test]
    fn nullable_join_keys_use_null_safe_predicate() {
        let mut gen = SqlGen::new();
        gen.read_csv(
            0,
            1,
            "a.csv",
            &["k".into()],
            &[DataType::Text],
            &[true],
            None,
        );
        gen.read_csv(
            1,
            2,
            "b.csv",
            &["k".into()],
            &[DataType::Text],
            &[false],
            None,
        );
        gen.join(2, 3, 0, 1, &["k".into()]).unwrap();
        let body = &gen.container.entries()[2].body;
        assert!(body.contains("IS NULL AND"), "{body}");
    }

    #[test]
    fn set_item_renders_condensed_projection() {
        let mut gen = SqlGen::new();
        read(&mut gen, 0);
        let expr = SExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(SExpr::Col("race".into())),
            right: Box::new(SExpr::Lit(Value::text("m"))),
        };
        gen.set_item(1, 31, 0, "label", &expr).unwrap();
        let body = &gen.container.entries()[1].body;
        assert!(body.contains("AS \"label\""));
        let te = gen.table_expr(1).unwrap();
        assert_eq!(te.col_type("label"), Some(&DataType::Bool));
    }

    #[test]
    fn replace_translates_to_anchored_regex() {
        let mut gen = SqlGen::new();
        read(&mut gen, 0);
        gen.replace(1, 30, 0, &Value::text("Medium"), &Value::text("Low"))
            .unwrap();
        let body = &gen.container.entries()[1].body;
        assert!(body.contains("REGEXP_REPLACE(\"race\", '^Medium$', 'Low')"));
    }

    #[test]
    fn split_parts_partition_on_ctid_hash() {
        let mut gen = SqlGen::new();
        read(&mut gen, 0);
        gen.split(1, 40, 0, SplitPart::Train, 25, 7).unwrap();
        gen.split(2, 40, 0, SplitPart::Test, 25, 7).unwrap();
        let train = &gen.container.entries()[1].body;
        let test = &gen.container.entries()[2].body;
        assert!(train.contains(">= 25"));
        assert!(test.contains("< 25"));
        assert!(train.contains("2654435761"));
    }

    #[test]
    fn histogram_of_unknown_column_is_none() {
        let mut gen = SqlGen::new();
        read(&mut gen, 0);
        assert!(gen
            .histogram_selects(0, &["no_such_column".into()])
            .is_empty());
    }

    #[test]
    fn regex_escape() {
        assert_eq!(escape_regex_literal("a.b"), "a\\.b");
        assert_eq!(escape_regex_literal("it's"), "it''s");
    }

    /// A pandas `replace` value with regex metacharacters — a trailing
    /// backslash, a dollar, a dot — replaces exactly that whole string
    /// once translated and run, in both engines.
    #[test]
    fn replace_round_trips_escaped_values() {
        let mut engine = sqlengine::Engine::new(sqlengine::EngineProfile::in_memory());
        engine.execute("CREATE TABLE t (s text)").unwrap();
        engine
            .execute(
                r"INSERT INTO t VALUES ('a\'), ('a'), ('xa\'), ('a\\'), ('a$'), ('a.b'), (NULL)",
            )
            .unwrap();
        for (from, want) in [
            (r"a\", [r"b", "a", r"xa\", r"a\\", "a$", "a.b", ""]),
            ("a$", [r"a\", "a", r"xa\", r"a\\", "b", "a.b", ""]),
            ("a.b", [r"a\", "a", r"xa\", r"a\\", "a$", "b", ""]),
        ] {
            let sql = format!(
                "SELECT REGEXP_REPLACE(s, '^{}$', 'b') AS s FROM t",
                escape_regex_literal(from)
            );
            for rel in [
                engine.query(&sql).unwrap(),
                engine.query_reference(&sql).unwrap(),
            ] {
                let got: Vec<String> = rel.rows.iter().map(|r| r[0].to_string()).collect();
                assert_eq!(got, want, "{sql}");
            }
        }
    }
}
