//! `serve` — per-command and per-byte serving cost on one v2 connection.
//!
//! Why: a lookup touches 64 rows, so frame parse, routing, the queue
//! hand-off, the plan-cache lookup and reply writing are the first half of
//! the round, and CSV encoding plus chunk streaming the second. The same
//! wire layer is used two ways — many tiny frames, one large body — so a
//! gain for one that costs the other shows in the per-class numbers.

use super::{body_checksum, expect_body, fnv1a, load_table, Rng, Sizes, Workload};
use crate::driver::{Conn, Recorder, Worker};
use crate::stats::Stats;
use elephant_server::ElephantClient;

const POINT_ROWS: u64 = 64;

pub struct Serve {
    wide_rows: usize,
    window: usize,
    warmup: u64,
    seed: u64,
}

impl Serve {
    pub fn new(sizes: Sizes, seed: u64) -> Serve {
        Serve {
            wide_rows: sizes.wide_rows,
            window: sizes.lookup_window,
            warmup: sizes.serve_warmup,
            seed,
        }
    }
}

fn point_value(seed: u64, key: u64) -> String {
    format!("v{:08x}", fnv1a(&(seed ^ key << 32).to_le_bytes()) as u32)
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn row_unit(&self) -> &'static str {
        "rows returned (one per lookup, the whole table per fetch)"
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

    fn prepare(
        &self,
        addr: &str,
        admin: &mut ElephantClient,
    ) -> Result<Vec<Box<dyn Worker>>, String> {
        let points: Vec<String> = (0..POINT_ROWS)
            .map(|k| format!("({k},'{}')", point_value(self.seed, k)))
            .collect();
        load_table(admin, "pt", "a int, b text", &points)?;

        // What `SELECT *` must return, as CSV lines, for the checksum.
        let mut rng = Rng::new(self.seed, 0x51DE);
        let mut tuples = Vec::with_capacity(self.wide_rows);
        let (mut sum, mut bytes) = (0u64, "id,name,x,y\n".len());
        for id in 0..self.wide_rows {
            let (name, x, y) = (rng.below(100_000), rng.below(1_000_000), rng.below(1000));
            tuples.push(format!("({id},'name-{name}',{x},{y})"));
            let line = format!("{id},name-{name},{x},{y}");
            sum = sum.wrapping_add(fnv1a(line.as_bytes()));
            bytes += line.len() + 1;
        }
        load_table(admin, "wide", "id int, name text, x int, y int", &tuples)?;

        let mut conn = Conn::connect(addr)?;
        let reply = conn.send("PREPARE byid AS SELECT a, b FROM pt WHERE a = $1")?;
        if !reply.contains("byid") {
            return Err(format!("PREPARE answered {reply:?}"));
        }
        Ok(vec![Box::new(ServeWorker {
            conn,
            seed: self.seed,
            window: self.window,
            lookups: (0..POINT_ROWS)
                .map(|k| format!("a,b\n{k},{}\n", point_value(self.seed, k)))
                .collect(),
            wide: (self.wide_rows as u64, sum, bytes),
        })])
    }

    fn class_metrics(&self) -> &'static [(&'static str, &'static str)] {
        &[
            ("lookup_window", "client.serve.lookup_window_p50_ms"),
            ("fetch", "client.serve.fetch_p50_ms"),
        ]
    }

    fn check_stats(&self, before: &Stats, after: &Stats, _shards: usize) -> Vec<String> {
        let mut failures = Vec::new();
        for key in ["pipelined_frames", "chunks_streamed", "params_bound"] {
            if before.delta(after, key) <= 0.0 {
                failures.push(format!("{key} did not grow: the v2 path was not exercised"));
            }
        }
        failures
    }
}

struct ServeWorker {
    conn: Conn,
    seed: u64,
    window: usize,
    /// The expected body of the lookup of each key.
    lookups: Vec<String>,
    /// `(rows, checksum, body bytes)` of the fetch.
    wide: (u64, u64, usize),
}

impl Worker for ServeWorker {
    fn round(&mut self, index: u64, rec: &mut Recorder) {
        let mut rng = Rng::new(self.seed, 0x100C ^ index << 16);
        let keys: Vec<u64> = (0..self.window).map(|_| rng.below(POINT_ROWS)).collect();
        let commands: Vec<String> = keys.iter().map(|k| format!("EXECUTE byid ({k})")).collect();
        let (conn, lookups) = (&mut self.conn, &self.lookups);
        rec.class("lookup_window", commands.len(), |ops| {
            match conn.pipeline(&commands) {
                Err(why) => ops.fail_all(commands.len() as u64, why),
                Ok(replies) => {
                    for (key, reply) in keys.iter().zip(replies) {
                        let want = &lookups[*key as usize];
                        ops.check(1, reply.and_then(|body| expect_body("lookup", &body, want)));
                    }
                }
            }
        });

        let (rows, sum, bytes) = self.wide;
        rec.class("fetch", 1, |ops| {
            let verdict = conn.send("QUERY SELECT * FROM wide").and_then(|body| {
                ops.add("fetch_bytes", body.len() as f64);
                let got = body_checksum(&body);
                if got == (rows, sum) && body.len() == bytes {
                    return Ok(());
                }
                Err(format!(
                    "fetch: {} rows, checksum {:x}, {} bytes; want {rows}, {sum:x}, {bytes}",
                    got.0,
                    got.1,
                    body.len()
                ))
            });
            ops.check(rows, verdict);
        });
    }

    fn write_s(&self) -> f64 {
        self.conn.write_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_values_depend_on_seed_and_key() {
        assert_eq!(point_value(1, 2), point_value(1, 2));
        assert_ne!(point_value(1, 2), point_value(1, 3));
        assert_ne!(point_value(1, 2), point_value(2, 2));
        assert_eq!(point_value(9, 63).len(), 9);
    }
}
