//! The catalog: base tables, views and materialized views, each with the
//! fingerprint a cached plan is checked against (see [`Fingerprint`]).

use crate::ast::Query;
use crate::error::{Result, SqlError};
use crate::storage::{StoredView, Table};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// Everything a plan bound against a relation relies on, hashed: its kind,
/// its column names and types, and for a plain view (which the binder
/// inlines) its definition. Computed once, when the object is created, so
/// checking a cached plan costs one probe and one compare per relation it
/// read. Two objects with the same fingerprint bind to the same plan; a
/// 64-bit hash makes a false match between different ones negligible.
pub type Fingerprint = u64;

/// The fingerprint of a name the catalog does not hold (no object's
/// fingerprint is 0).
pub const ABSENT: Fingerprint = 0;

/// A view definition.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name.
    pub name: String,
    /// What a reference to the view reads.
    pub body: ViewBody,
}

/// A plain view's query, or a materialized view's rows.
#[derive(Debug, Clone)]
pub enum ViewBody {
    /// A plain view: the defining query, re-bound and inlined at every
    /// reference.
    Inline(Rc<Query>),
    /// A materialized view: the rows its query returned at creation.
    Stored(StoredView),
}

#[derive(Debug)]
enum Object {
    Table(Table),
    View(ViewDef),
}

impl Object {
    fn fingerprint(&self) -> Fingerprint {
        let mut h = DefaultHasher::new();
        match self {
            Object::Table(t) => (0u8, &t.columns, &t.types).hash(&mut h),
            Object::View(view) => match &view.body {
                ViewBody::Stored(data) => (1u8, &data.columns, &data.types).hash(&mut h),
                ViewBody::Inline(query) => {
                    2u8.hash(&mut h);
                    write!(HashWriter(&mut h), "{query:?}").expect("hashing cannot fail");
                }
            },
        }
        h.finish().max(ABSENT + 1)
    }
}

/// Feeds formatted text straight into a hasher.
struct HashWriter<'a>(&'a mut DefaultHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// Name → object, with each object's fingerprint. Names are compared
/// case-sensitively after the lexer has lower-cased unquoted identifiers,
/// matching PostgreSQL folding; a table and a view never share a name.
#[derive(Debug, Default)]
pub struct Catalog {
    objects: HashMap<String, (Object, Fingerprint)>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    fn create(&mut self, name: String, object: Object) -> Result<()> {
        if self.objects.contains_key(&name) {
            return Err(SqlError::catalog(format!("object '{name}' already exists")));
        }
        let fingerprint = object.fingerprint();
        self.objects.insert(name, (object, fingerprint));
        Ok(())
    }

    /// Register a table; errors if any object of that name exists.
    pub fn create_table(&mut self, table: Table) -> Result<()> {
        self.create(table.name.clone(), Object::Table(table))
    }

    /// Register a view; errors if any object of that name exists.
    pub fn create_view(&mut self, view: ViewDef) -> Result<()> {
        self.create(view.name.clone(), Object::View(view))
    }

    /// Drop a table or view; returns the dropped base table, if one was.
    pub fn drop(&mut self, name: &str, is_view: bool, if_exists: bool) -> Result<Option<Table>> {
        let found = match self.objects.get(name) {
            Some((Object::View(_), _)) => is_view,
            Some((Object::Table(_), _)) => !is_view,
            None => false,
        };
        if found {
            return Ok(match self.objects.remove(name) {
                Some((Object::Table(table), _)) => Some(table),
                _ => None,
            });
        }
        if if_exists {
            return Ok(None);
        }
        Err(SqlError::catalog(format!(
            "{} '{name}' does not exist",
            if is_view { "view" } else { "table" }
        )))
    }

    /// The fingerprint of the object named `name`, [`ABSENT`] when there
    /// is none.
    pub fn fingerprint(&self, name: &str) -> Fingerprint {
        self.objects.get(name).map_or(ABSENT, |(_, f)| *f)
    }

    /// Look up a base table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        match self.objects.get(name) {
            Some((Object::Table(t), _)) => Some(t),
            _ => None,
        }
    }

    /// Mutable base-table lookup (INSERT/COPY). Rows only: a table's
    /// columns, and so its fingerprint, are fixed at creation.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        match self.objects.get_mut(name) {
            Some((Object::Table(t), _)) => Some(t),
            _ => None,
        }
    }

    /// Look up a view.
    pub fn view(&self, name: &str) -> Option<&ViewDef> {
        match self.objects.get(name) {
            Some((Object::View(v), _)) => Some(v),
            _ => None,
        }
    }

    /// All table names (sorted, for introspection/tests).
    pub fn table_names(&self) -> Vec<&str> {
        self.names(|o| matches!(o, Object::Table(_)))
    }

    /// All view names (sorted).
    pub fn view_names(&self) -> Vec<&str> {
        self.names(|o| matches!(o, Object::View(_)))
    }

    fn names(&self, keep: impl Fn(&Object) -> bool) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .objects
            .iter()
            .filter(|(_, (o, _))| keep(o))
            .map(|(n, _)| n.as_str())
            .collect();
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
            body: ViewBody::Inline(Rc::new(select("SELECT 1 AS one"))),
        };
        assert!(c.create_view(v).is_err());
    }

    fn select(sql: &str) -> Query {
        match crate::parser::parse_statement(sql).unwrap() {
            crate::ast::Statement::Select(q) => q,
            _ => unreachable!(),
        }
    }

    #[test]
    fn fingerprints_follow_kind_schema_and_definition() {
        let table = |cols: &[&str], ty: DataType| {
            let names = cols.iter().map(|c| c.to_string()).collect();
            Table::empty("x", names, vec![ty; cols.len()])
        };
        let view = |body: ViewBody| ViewDef {
            name: "x".into(),
            body,
        };
        let inline = |sql: &str| ViewBody::Inline(Rc::new(select(sql)));
        let stored = |ty: DataType| {
            ViewBody::Stored(StoredView {
                columns: vec!["a".into()],
                types: vec![ty],
                heap: crate::storage::Heap::new(1),
            })
        };
        let mut c = Catalog::new();
        assert_eq!(c.fingerprint("x"), ABSENT);
        let mut seen = Vec::new();
        let mut take = |c: &mut Catalog, is_view: bool| {
            let f = c.fingerprint("x");
            assert_ne!(f, ABSENT);
            c.drop("x", is_view, false).unwrap();
            assert_eq!(c.fingerprint("x"), ABSENT);
            seen.push(f);
        };
        c.create_table(table(&["a"], DataType::Int)).unwrap();
        take(&mut c, false);
        // The same schema again: the same fingerprint.
        c.create_table(table(&["a"], DataType::Int)).unwrap();
        take(&mut c, false);
        c.create_table(table(&["a"], DataType::Text)).unwrap();
        take(&mut c, false);
        c.create_table(table(&["b"], DataType::Int)).unwrap();
        take(&mut c, false);
        c.create_view(view(stored(DataType::Int))).unwrap();
        take(&mut c, true);
        c.create_view(view(stored(DataType::Int))).unwrap();
        take(&mut c, true);
        c.create_view(view(stored(DataType::Text))).unwrap();
        take(&mut c, true);
        c.create_view(view(inline("SELECT 1 AS a"))).unwrap();
        take(&mut c, true);
        c.create_view(view(inline("SELECT 2 AS a"))).unwrap();
        take(&mut c, true);
        // A materialized view is its stored schema; a plain view is its
        // definition.
        let [t_int, t_int2, t_text, t_b, mv_int, mv_int2, mv_text, v1, v2] = seen[..] else {
            unreachable!()
        };
        assert_eq!(t_int, t_int2);
        assert_eq!(mv_int, mv_int2);
        let distinct = [t_int, t_text, t_b, mv_int, mv_text, v1, v2];
        for (i, a) in distinct.iter().enumerate() {
            for b in &distinct[i + 1..] {
                assert_ne!(a, b);
            }
        }
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
