//! `inspect` — the paper's workload: the four stock pipelines, each run and
//! inspected inside the server with one `INSPECT` command.
//!
//! Why: about nine tenths of an INSPECT is the engine re-running the CTE
//! chain once per inspected operator, so this is where SQL generation in
//! `mlinspect` and execution in `sqlengine` show; the WAL and the wire do
//! almost nothing (INSPECT runs unlogged, four commands a round).

use super::{Sizes, Workload};
use crate::driver::{Conn, Probes, Recorder, Worker};
use crate::report::Values;
use crate::stats::Stats;
use elephant_server::ElephantClient;
use mlinspect::backends::pandas::FileRegistry;
use mlinspect::backends::sql::SqlBackend;
use mlinspect::capture::capture_with_seed;
use mlinspect::sqlgen::SqlMode;
use sqlengine::{Engine, EngineProfile};

/// Threshold of `NoBiasIntroducedFor` in every INSPECT.
const THRESHOLD: f64 = 0.3;

/// `(class, stock pipeline, sensitive columns)` in round order.
const PIPELINES: [(&str, &str, &str); 4] = [
    ("healthcare", "healthcare", "race,age_group"),
    ("compas", "compas", "race,sex"),
    ("adult_simple", "adult simple", "race,sex"),
    ("adult_complex", "adult complex", "race,sex"),
];

pub struct Inspect {
    rows: usize,
    warmup: u64,
    seed: u64,
}

impl Inspect {
    pub fn new(sizes: Sizes, seed: u64) -> Inspect {
        Inspect {
            rows: sizes.inspect_rows,
            warmup: sizes.inspect_warmup,
            seed,
        }
    }

    /// The CSV files the server registers for `--rows`/`--seed`, generated
    /// the same way (`ServerConfig::with_standard_pipeline_data`).
    fn files(&self) -> Vec<(String, String)> {
        let (rows, seed) = (self.rows, self.seed);
        let test_rows = (rows / 3).max(30);
        vec![
            ("patients.csv".into(), datagen::patients_csv(rows, seed)),
            ("histories.csv".into(), datagen::histories_csv(rows, seed)),
            ("compas_train.csv".into(), datagen::compas_csv(rows, seed)),
            (
                "compas_test.csv".into(),
                datagen::compas_csv(test_rows, seed + 1),
            ),
            ("adult_train.csv".into(), datagen::adult_csv(rows, seed)),
            (
                "adult_test.csv".into(),
                datagen::adult_csv(test_rows, seed + 1),
            ),
        ]
    }
}

impl Workload for Inspect {
    fn name(&self) -> &'static str {
        "inspect"
    }

    fn row_unit(&self) -> &'static str {
        "pipeline input rows inspected (--rows per INSPECT)"
    }

    fn server_args(&self) -> Vec<String> {
        vec![
            "--rows".into(),
            self.rows.to_string(),
            "--seed".into(),
            self.seed.to_string(),
        ]
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
        _admin: &mut ElephantClient,
    ) -> Result<Vec<Box<dyn Worker>>, String> {
        Ok(vec![Box::new(InspectWorker {
            conn: Conn::connect(addr)?,
            rows: self.rows as u64,
            first_reports: Default::default(),
        })])
    }

    fn class_metrics(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("healthcare", "client.inspect.healthcare_p50_ms"),
            ("compas", "client.inspect.compas_p50_ms"),
            ("adult_simple", "client.inspect.adult_simple_p50_ms"),
            ("adult_complex", "client.inspect.adult_complex_p50_ms"),
        ]
    }

    fn check_stats(&self, before: &Stats, after: &Stats, _shards: usize) -> Vec<String> {
        let inspects = before.delta(after, "inspects");
        if inspects < PIPELINES.len() as f64 {
            return vec![format!("server counted {inspects} INSPECTs in the phase")];
        }
        Vec::new()
    }

    fn probes(&self, probes: &mut Probes, out: &mut Values) -> Result<(), String> {
        let mut files = Vec::new();
        let gen_ms = probes.time_ms("probe.datagen", 3, || files = self.files());
        let bytes: usize = files.iter().map(|(_, text)| text.len()).sum();
        out.insert("datagen.csv_mb_per_s", bytes as f64 / 1e6 / (gen_ms / 1e3));

        let opts = etypes::csv::CsvOptions::default().with_na("?");
        let mut failed = None;
        let csv_ms = probes.time_ms("probe.csv_parse", 3, || {
            for (name, text) in &files {
                if let Err(e) = etypes::csv::read_csv_str(text, &opts) {
                    failed = Some(format!("csv probe {name}: {e}"));
                }
                std::hint::black_box(text);
            }
        });
        out.insert("elephant-types.csv_parse_ms", csv_ms);

        let mut registry = FileRegistry::new();
        for (name, text) in &files {
            registry.insert(name.clone(), text.clone());
        }
        let stock = mlinspect::pipelines::all();
        let source = |name: &str| stock.iter().find(|(n, _)| *n == name).map(|(_, s)| *s);
        let (mut capture_ms, mut transpile_ms, mut lex_parse_ms, mut embedded_ms) =
            (0.0, 0.0, 0.0, 0.0);
        for (_, pipeline, columns) in PIPELINES {
            let src = source(pipeline).ok_or(format!("no stock pipeline {pipeline}"))?;
            capture_ms += probes.time_ms("probe.capture", 5, || {
                std::hint::black_box(capture_with_seed(src, 0).is_ok());
            });
            let captured = capture_with_seed(src, 0).map_err(|e| format!("capture: {e}"))?;
            transpile_ms += probes.time_ms("probe.transpile", 5, || {
                std::hint::black_box(
                    SqlBackend::transpile(&captured.dag, &registry, SqlMode::Cte).is_ok(),
                );
            });
            let script = SqlBackend::transpile(&captured.dag, &registry, SqlMode::Cte)
                .map_err(|e| format!("transpile {pipeline}: {e}"))?
                .script(SqlMode::Cte, false);
            lex_parse_ms += probes.time_ms("probe.script_lex_parse", 5, || {
                let ok = sqlengine::lexer::tokenize(&script).is_ok()
                    && sqlengine::parser::parse_script(&script).is_ok();
                if !ok {
                    failed = Some(format!("generated script of {pipeline} does not parse"));
                }
            });
            let cols: Vec<&str> = columns.split(',').collect();
            embedded_ms += probes.time_ms("probe.inspect_embedded", 1, || {
                let mut engine = Engine::new(EngineProfile::in_memory());
                let report = mlinspect::inspect_pipeline_in_sql(
                    src,
                    &files,
                    &cols,
                    THRESHOLD,
                    &mut engine,
                    SqlMode::Cte,
                    false,
                );
                if let Err(e) = report {
                    failed = Some(format!("embedded inspect {pipeline}: {e}"));
                }
            });
        }
        out.insert("mlinspect.capture_ms", capture_ms);
        out.insert("mlinspect.transpile_ms", transpile_ms);
        out.insert("sqlengine.script_lex_parse_ms", lex_parse_ms);
        out.insert("mlinspect.inspect_embedded_ms", embedded_ms);
        failed.map_or(Ok(()), Err)
    }
}

struct InspectWorker {
    conn: Conn,
    rows: u64,
    /// The first report of each pipeline, timings blanked; every later
    /// report must equal it byte for byte.
    first_reports: [Option<String>; 4],
}

impl Worker for InspectWorker {
    fn round(&mut self, _index: u64, rec: &mut Recorder) {
        for (slot, (class, pipeline, columns)) in PIPELINES.into_iter().enumerate() {
            let command = format!("INSPECT {columns} {THRESHOLD}\n@{pipeline}");
            let (conn, first, rows) = (&mut self.conn, &mut self.first_reports[slot], self.rows);
            rec.class(class, 1, |ops| {
                let verdict = conn
                    .send(&command)
                    .and_then(|report| check_report(pipeline, &report, first));
                ops.check(rows, verdict);
            });
        }
    }

    fn write_s(&self) -> f64 {
        self.conn.write_s
    }
}

fn check_report(pipeline: &str, report: &str, first: &mut Option<String>) -> Result<(), String> {
    if !report.contains("inspection verdict=") {
        return Err(format!("{pipeline}: no verdict in report {report:.80?}"));
    }
    let blanked = blank_times(report);
    match first {
        None => *first = Some(blanked),
        Some(expected) if *expected != blanked => {
            return Err(format!("{pipeline}: report differs from the first round's"));
        }
        Some(_) => {}
    }
    Ok(())
}

/// Replace the digits after every `time_us=` with `_`.
fn blank_times(report: &str) -> String {
    let mut out = String::with_capacity(report.len());
    let mut rest = report;
    while let Some(at) = rest.find("time_us=") {
        let (head, tail) = rest.split_at(at + "time_us=".len());
        out.push_str(head);
        out.push('_');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_are_blanked_and_reports_compared() {
        let a = "inspection verdict=PASS checks=1 ops=2\nline no=11 op=read_csv time_us=1559 rows_in=? rows_out=500\nline no=12 op=merge time_us=7 rows_in=5\n";
        let b = a.replace("1559", "9").replace("time_us=7", "time_us=12345");
        assert_eq!(blank_times(a), blank_times(&b));
        assert!(blank_times(a).contains("time_us=_ rows_in=? rows_out=500"));
        let mut first = None;
        assert!(check_report("p", a, &mut first).is_ok());
        assert!(check_report("p", &b, &mut first).is_ok());
        let c = a.replace("rows_out=500", "rows_out=499");
        assert!(check_report("p", &c, &mut first).is_err());
        assert!(check_report("p", "ERR nothing", &mut None).is_err());
    }
}
