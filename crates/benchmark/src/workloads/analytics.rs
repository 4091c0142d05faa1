//! `analytics` — scan-bound reads over a fact table and a small dimension.
//!
//! Why: every result is under 1 KB, so the scan, filter, aggregate and join
//! operators (and the heap-to-column transpose in front of them) are the
//! whole round; result encoding, WAL and per-command overhead are
//! negligible. It is the bypass workload for wire and storage changes, and
//! the one where `peak_rss_mb` prices the table heap.

use super::{expect_body, load_table, Rng, Sizes, Workload};
use crate::driver::{Conn, Probes, Recorder, Worker};
use crate::report::Values;
use crate::stats::Stats;
use elephant_server::ElephantClient;
use etypes::csv::CsvOptions;
use sqlengine::{Engine, EngineProfile};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `facts` and `dims` hash to the same shard at two shards, so the join
/// runs without scatter-gather; `check_stats` asserts it.
const FACTS: &str = "facts";
const DIMS: &str = "dims";
const GROUPS: u64 = 16;
/// `c` is uniform over 0.0..1000.0 in tenths; the filter keeps a tenth.
const FILTER_ABOVE: u64 = 9_000;

const FILTER_SQL: &str = "SELECT count(*) AS n FROM facts WHERE c > 900.0";
const AGG_SQL: &str =
    "SELECT g, count(*) AS n, sum(a) AS s, max(c) AS hi FROM facts GROUP BY g ORDER BY g";
const JOIN_SQL: &str = "SELECT d.label, count(*) AS n, sum(f.a) AS s FROM facts f \
     INNER JOIN dims d ON f.g = d.g GROUP BY d.label ORDER BY d.label";

/// One generated fact row.
struct Fact {
    a: u64,
    b: u64,
    c_tenths: u64,
    g: u64,
}

pub struct Analytics {
    rows: usize,
    warmup: u64,
    seed: u64,
}

impl Analytics {
    pub fn new(sizes: Sizes, seed: u64) -> Analytics {
        Analytics {
            rows: sizes.facts_rows,
            warmup: sizes.analytics_warmup,
            seed,
        }
    }

    fn facts(&self) -> Vec<Fact> {
        let mut rng = Rng::new(self.seed, 0xFAC7);
        (0..self.rows as u64)
            .map(|a| Fact {
                a,
                b: rng.below(1000),
                c_tenths: rng.below(10_000),
                g: rng.below(GROUPS),
            })
            .collect()
    }
}

/// Two dimension rows share each label, so the join aggregates 16 groups
/// into 8.
fn label(g: u64) -> String {
    format!("label{}", g / 2)
}

/// `c` as the engine prints a float: shortest form, no trailing `.0`.
fn tenths(c: u64) -> String {
    format!("{}", c as f64 / 10.0)
}

/// The three expected bodies, computed from the rows in plain Rust.
fn expected(facts: &[Fact]) -> [String; 3] {
    let filter = facts.iter().filter(|f| f.c_tenths > FILTER_ABOVE).count();
    let mut by_g: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    let mut by_label: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for f in facts {
        let e = by_g.entry(f.g).or_insert((0, 0, 0));
        *e = (e.0 + 1, e.1 + f.a, e.2.max(f.c_tenths));
        let e = by_label.entry(label(f.g)).or_insert((0, 0));
        *e = (e.0 + 1, e.1 + f.a);
    }
    let mut agg = String::from("g,n,s,hi\n");
    for (g, (n, s, hi)) in &by_g {
        let _ = writeln!(agg, "{g},{n},{s},{}", tenths(*hi));
    }
    let mut join = String::from("label,n,s\n");
    for (label, (n, s)) in &by_label {
        let _ = writeln!(join, "{label},{n},{s}");
    }
    [format!("n\n{filter}\n"), agg, join]
}

impl Workload for Analytics {
    fn name(&self) -> &'static str {
        "analytics"
    }

    fn row_unit(&self) -> &'static str {
        "fact rows scanned (three scans of the table per round)"
    }

    fn server_args(&self) -> Vec<String> {
        vec!["--no-data".into()]
    }

    fn warmup_rounds(&self) -> u64 {
        self.warmup
    }

    fn trace_every(&self) -> u64 {
        1
    }

    fn prepare(
        &self,
        addr: &str,
        admin: &mut ElephantClient,
    ) -> Result<Vec<Box<dyn Worker>>, String> {
        let facts = self.facts();
        let tuples: Vec<String> = facts
            .iter()
            .map(|f| format!("({},'n{}',{},{})", f.a, f.b, tenths(f.c_tenths), f.g))
            .collect();
        load_table(admin, FACTS, "a int, b text, c float, g int", &tuples)?;
        let dims: Vec<String> = (0..GROUPS)
            .map(|g| format!("({g},'{}')", label(g)))
            .collect();
        load_table(admin, DIMS, "g int, label text", &dims)?;
        Ok(vec![Box::new(AnalyticsWorker {
            conn: Conn::connect(addr)?,
            expected: expected(&facts),
            rows: facts.len() as u64,
        })])
    }

    fn class_metrics(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("filter", "client.analytics.filter_p50_ms"),
            ("agg", "client.analytics.agg_p50_ms"),
            ("join", "client.analytics.join_p50_ms"),
        ]
    }

    fn check_stats(&self, before: &Stats, after: &Stats, _shards: usize) -> Vec<String> {
        let scattered = before.delta(after, "shard_scatter_gather");
        if scattered != 0.0 {
            return vec![format!(
                "{FACTS} and {DIMS} are not co-located: {scattered} scatter-gather joins"
            )];
        }
        Vec::new()
    }

    fn probes(&self, probes: &mut Probes, out: &mut Values) -> Result<(), String> {
        let facts = self.facts();
        let mut csv = String::from("a,b,c,g\n");
        for f in &facts {
            let _ = writeln!(csv, "{},n{},{},{}", f.a, f.b, tenths(f.c_tenths), f.g);
        }
        let mut engine = Engine::new(EngineProfile::in_memory());
        let run = |engine: &mut Engine, sql: &str| {
            engine
                .execute(sql)
                .map(|_| ())
                .map_err(|e| format!("embedded probe: {sql:.60}: {e}"))
        };
        run(
            &mut engine,
            "CREATE TABLE facts (a int, b text, c float, g int)",
        )?;
        run(&mut engine, "CREATE TABLE dims (g int, label text)")?;
        let mut failed = None;
        let copy_ms = probes.time_ms("probe.copy", 1, || {
            if let Err(e) = engine.copy_from_str(FACTS, None, &csv, &CsvOptions::default()) {
                failed = Some(format!("copy probe: {e}"));
            }
        });
        out.insert(
            "sqlengine.copy_rows_per_s",
            facts.len() as f64 / (copy_ms / 1e3),
        );
        let dims: Vec<String> = (0..GROUPS)
            .map(|g| format!("({g},'{}')", label(g)))
            .collect();
        run(
            &mut engine,
            &format!("INSERT INTO dims VALUES {}", dims.join(",")),
        )?;
        let mut query_ms = 0.0;
        for sql in [FILTER_SQL, AGG_SQL, JOIN_SQL] {
            query_ms += probes.time_ms("probe.embedded_query", 5, || match engine.query(sql) {
                Ok(rows) => drop(std::hint::black_box(rows)),
                Err(e) => failed = Some(format!("embedded probe: {sql:.60}: {e}")),
            });
        }
        out.insert("sqlengine.embedded_query_ms", query_ms);
        failed.map_or(Ok(()), Err)
    }
}

struct AnalyticsWorker {
    conn: Conn,
    expected: [String; 3],
    rows: u64,
}

impl Worker for AnalyticsWorker {
    fn round(&mut self, _index: u64, rec: &mut Recorder) {
        let queries = [("filter", FILTER_SQL), ("agg", AGG_SQL), ("join", JOIN_SQL)];
        for ((class, sql), expected) in queries.into_iter().zip(&self.expected) {
            let (conn, rows) = (&mut self.conn, self.rows);
            rec.class(class, 1, |ops| {
                let verdict = conn
                    .send(&format!("QUERY {sql}"))
                    .and_then(|body| expect_body(class, &body, expected));
                ops.check(rows, verdict);
            });
        }
    }

    fn write_s(&self) -> f64 {
        self.conn.write_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_bodies_come_from_the_rows() {
        let facts = vec![
            Fact {
                a: 1,
                b: 0,
                c_tenths: 9_999,
                g: 0,
            },
            Fact {
                a: 2,
                b: 0,
                c_tenths: 9_000,
                g: 1,
            },
            Fact {
                a: 3,
                b: 0,
                c_tenths: 1,
                g: 2,
            },
        ];
        let [filter, agg, join] = expected(&facts);
        assert_eq!(filter, "n\n1\n");
        assert_eq!(agg, "g,n,s,hi\n0,1,1,999.9\n1,1,2,900\n2,1,3,0.1\n");
        assert_eq!(join, "label,n,s\nlabel0,2,3\nlabel1,1,3\n");
    }
}
