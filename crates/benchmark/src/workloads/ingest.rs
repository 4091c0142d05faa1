//! `ingest` — durable writes beside reads, two v2 connections, one event
//! table per shard.
//!
//! Why: the only workload where WAL append, group fsync, checkpoint and the
//! insert path work. The read in each round queues behind writes on the
//! same shard, so a write-path gain that starves reads (or a table layout
//! that speeds `analytics` but slows single-row appends) shows here. Every
//! `rotate_every`-th round a connection checks its table against its
//! ledger of acknowledged rows, checkpoints, and recreates the table, which
//! bounds memory; after the measured phase the server is killed and the
//! ledgers are checked against what recovery brings back.

use super::{expect_body, load_table, Rng, Sizes, Workload};
use crate::driver::{Conn, Ops, Probes, Recorder, Worker};
use crate::report::Values;
use crate::server::fresh_data_dir;
use crate::stats::{reply_field, Stats};
use elephant_server::ElephantClient;
use sqlengine::{Engine, EngineProfile, FsyncPolicy};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `ev0` hashes to shard 0 and `ev1` to shard 1 at two shards.
const EVENT_TABLES: [&str; 2] = ["ev0", "ev1"];
const EVENT_COLUMNS: &str = "k int, w int, payload text";
const BATCH_STATEMENTS: usize = 100;
const SINGLES: usize = 32;
const READ_GROUPS: u64 = 8;
const READ_SQL: &str = "SELECT g, count(*) AS n, sum(v) AS s FROM dimr GROUP BY g ORDER BY g";

pub struct Ingest {
    dimr_rows: usize,
    bulk_rows: usize,
    rotate_every: u64,
    warmup: u64,
    seed: u64,
}

impl Ingest {
    pub fn new(sizes: Sizes, seed: u64) -> Ingest {
        Ingest {
            dimr_rows: sizes.dimr_rows,
            bulk_rows: sizes.bulk_rows,
            rotate_every: sizes.rotate_every,
            warmup: sizes.ingest_warmup,
            seed,
        }
    }
}

impl Workload for Ingest {
    fn name(&self) -> &'static str {
        "ingest"
    }

    fn row_unit(&self) -> &'static str {
        "rows the server acknowledged as durable"
    }

    fn server_args(&self) -> Vec<String> {
        vec!["--no-data".into()]
    }

    fn warmup_rounds(&self) -> u64 {
        self.warmup
    }

    fn trace_every(&self) -> u64 {
        50
    }

    fn writes(&self) -> bool {
        true
    }

    fn prepare(
        &self,
        addr: &str,
        admin: &mut ElephantClient,
    ) -> Result<Vec<Box<dyn Worker>>, String> {
        let mut rng = Rng::new(self.seed, 0xD1);
        let mut groups: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut tuples = Vec::with_capacity(self.dimr_rows);
        for id in 0..self.dimr_rows {
            let (g, v) = (rng.below(READ_GROUPS), rng.below(1000));
            tuples.push(format!("({id},{g},{v})"));
            let e = groups.entry(g).or_insert((0, 0));
            *e = (e.0 + 1, e.1 + v);
        }
        load_table(admin, "dimr", "id int, g int, v int", &tuples)?;
        let mut read_body = String::from("g,n,s\n");
        for (g, (n, s)) in &groups {
            let _ = writeln!(read_body, "{g},{n},{s}");
        }
        let mut workers: Vec<Box<dyn Worker>> = Vec::new();
        for (w, table) in EVENT_TABLES.into_iter().enumerate() {
            load_table(admin, table, EVENT_COLUMNS, &[])?;
            workers.push(Box::new(IngestWorker {
                conn: Conn::connect(addr)?,
                table,
                worker: w as u64,
                rng: Rng::new(self.seed, 0xE0 + w as u64),
                bulk_rows: self.bulk_rows,
                rotate_every: self.rotate_every,
                read_body: read_body.clone(),
                next_key: 0,
                acked: 0,
            }));
        }
        Ok(workers)
    }

    fn class_metrics(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("batch", "client.ingest.batch_p50_ms"),
            ("bulk", "client.ingest.bulk_p50_ms"),
            ("singles", "client.ingest.singles_p50_ms"),
            ("read", "client.ingest.read_p50_ms"),
            ("rotate", "client.ingest.rotate_p50_ms"),
        ]
    }

    fn check_stats(&self, before: &Stats, after: &Stats, shards: usize) -> Vec<String> {
        let mut failures = Vec::new();
        for shard in 0..shards.min(EVENT_TABLES.len()) {
            let key = format!("shard{shard}.commands");
            if before.delta(after, &key) <= 0.0 {
                failures.push(format!("{key} did not grow: a shard took no writes"));
            }
        }
        if before.delta(after, "wal_group_commits") <= 0.0 {
            failures.push("wal_group_commits did not grow".into());
        }
        failures
    }

    fn probes(&self, probes: &mut Probes, out: &mut Values) -> Result<(), String> {
        let mut rng = Rng::new(self.seed, 0xE0);
        let bulk = bulk_insert("ev0", 0, 0, self.bulk_rows, &mut rng);
        let mut failed = None;
        let lex_parse_ms = probes.time_ms("probe.script_lex_parse", 9, || {
            let ok = sqlengine::lexer::tokenize(&bulk).is_ok()
                && sqlengine::parser::parse_script(&bulk).is_ok();
            if !ok {
                failed = Some("the bulk INSERT text does not parse".to_string());
            }
        });
        out.insert("sqlengine.script_lex_parse_ms", lex_parse_ms);

        let dir = fresh_data_dir()?;
        let result = (|| {
            let mut engine =
                Engine::open_durable(EngineProfile::in_memory(), &dir, FsyncPolicy::Always)
                    .map_err(|e| format!("open_durable: {e}"))?;
            engine
                .execute(&format!("CREATE TABLE ev0 ({EVENT_COLUMNS})"))
                .map_err(|e| format!("durable probe: {e}"))?;
            let mut key = 0u64;
            let insert_ms = probes.time_ms("probe.durable_insert", 50, || {
                key += 1;
                let sql = format!("INSERT INTO ev0 VALUES ({key},0,'p{key}')");
                if let Err(e) = engine.execute(&sql) {
                    failed = Some(format!("durable probe: {e}"));
                }
            });
            out.insert("elephant-store.durable_insert_us", insert_ms * 1e3);
            engine
                .checkpoint()
                .map(|_| ())
                .map_err(|e| format!("durable probe checkpoint: {e}"))
        })();
        let _ = std::fs::remove_dir_all(&dir);
        result?;
        failed.map_or(Ok(()), Err)
    }
}

fn row(key: u64, worker: u64, rng: &mut Rng) -> String {
    format!("({key},{worker},'p{:06}')", rng.below(1_000_000))
}

fn bulk_insert(table: &str, first_key: u64, worker: u64, rows: usize, rng: &mut Rng) -> String {
    let tuples: Vec<String> = (0..rows as u64)
        .map(|i| row(first_key + i, worker, rng))
        .collect();
    format!("INSERT INTO {table} VALUES {}", tuples.join(","))
}

struct IngestWorker {
    conn: Conn,
    table: &'static str,
    worker: u64,
    rng: Rng,
    bulk_rows: usize,
    rotate_every: u64,
    read_body: String,
    next_key: u64,
    /// Rows acknowledged in `table` since it was last created.
    acked: u64,
}

impl IngestWorker {
    fn single(&mut self) -> String {
        self.next_key += 1;
        let tuple = row(self.next_key, self.worker, &mut self.rng);
        format!("INSERT INTO {} VALUES {tuple}", self.table)
    }

    /// Count one write reply; acknowledged rows enter the ledger.
    fn acknowledge(&mut self, ops: &mut Ops, reply: Result<String, String>, rows: u64) {
        match reply {
            Ok(body) if body == format!("ok {rows}") => {
                self.acked += rows;
                ops.ok(rows);
            }
            Ok(body) => ops.fail(format!("{}: write answered {body:?}", self.table)),
            Err(why) => ops.fail(format!("{}: {why}", self.table)),
        }
    }

    /// Ledger check, `CHECKPOINT`, `DROP TABLE`, `CREATE TABLE`.
    fn rotate(&mut self, ops: &mut Ops) {
        let table = self.table;
        let counted = self
            .conn
            .send(&format!("QUERY SELECT count(*) AS n FROM {table}"));
        let want = format!("n\n{}\n", self.acked);
        ops.check(
            0,
            counted.and_then(|body| expect_body("rows in table against ledger", &body, &want)),
        );
        match self.conn.send("CHECKPOINT") {
            Ok(reply) => {
                for (field, sum) in [
                    ("wal_truncated", "checkpoint_wal_truncated"),
                    ("snapshot_bytes", "checkpoint_snapshot_bytes"),
                    ("rows", "checkpoint_rows"),
                ] {
                    ops.add(sum, reply_field(&reply, field).unwrap_or(0) as f64);
                }
                ops.ok(0);
            }
            Err(why) => ops.fail(format!("CHECKPOINT: {why}")),
        }
        for sql in [
            format!("DROP TABLE {table}"),
            format!("CREATE TABLE {table} ({EVENT_COLUMNS})"),
        ] {
            let reply = self.conn.send(&format!("QUERY {sql}"));
            ops.check(0, reply.map(|_| ()).map_err(|why| format!("{sql}: {why}")));
        }
        self.acked = 0;
    }
}

impl Worker for IngestWorker {
    fn round(&mut self, index: u64, rec: &mut Recorder) {
        let statements: Vec<String> = (0..BATCH_STATEMENTS).map(|_| self.single()).collect();
        rec.class("batch", 1, |ops| match self.conn.batch(&statements) {
            Ok(bodies) if bodies.len() == statements.len() => {
                for body in bodies {
                    self.acknowledge(ops, Ok(body), 1);
                }
            }
            Ok(bodies) => ops.fail_all(
                statements.len() as u64,
                format!("BATCH answered {} bodies", bodies.len()),
            ),
            Err(why) => ops.fail_all(statements.len() as u64, why),
        });

        let bulk = bulk_insert(
            self.table,
            self.next_key + 1,
            self.worker,
            self.bulk_rows,
            &mut self.rng,
        );
        self.next_key += self.bulk_rows as u64;
        rec.class("bulk", 1, |ops| {
            let reply = self.conn.send(&format!("QUERY {bulk}"));
            self.acknowledge(ops, reply, self.bulk_rows as u64);
        });

        let singles: Vec<String> = (0..SINGLES)
            .map(|_| format!("QUERY {}", self.single()))
            .collect();
        rec.class("singles", SINGLES, |ops| {
            match self.conn.pipeline(&singles) {
                Ok(replies) => {
                    for reply in replies {
                        self.acknowledge(ops, reply, 1);
                    }
                }
                Err(why) => ops.fail_all(SINGLES as u64, why),
            }
        });

        rec.class("read", 1, |ops| {
            let verdict = self
                .conn
                .send(&format!("QUERY {READ_SQL}"))
                .and_then(|body| expect_body("read", &body, &self.read_body));
            ops.check(0, verdict);
        });

        if (index + 1).is_multiple_of(self.rotate_every) {
            rec.class("rotate", 4, |ops| self.rotate(ops));
        }
    }

    fn ledger(&self) -> Vec<(String, u64)> {
        vec![(self.table.to_string(), self.acked)]
    }

    fn write_s(&self) -> f64 {
        self.conn.write_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_text_has_the_asked_rows_and_repeats() {
        let a = bulk_insert("ev0", 5, 1, 3, &mut Rng::new(4, 0xE1));
        let b = bulk_insert("ev0", 5, 1, 3, &mut Rng::new(4, 0xE1));
        assert_eq!(a, b);
        assert!(a.starts_with("INSERT INTO ev0 VALUES (5,1,'p"));
        assert_eq!(a.matches("),(").count(), 2);
        assert!(sqlengine::parser::parse_script(&a).is_ok());
    }
}
