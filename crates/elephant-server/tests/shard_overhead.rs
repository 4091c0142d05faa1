//! The price of the router's cross-shard machinery for writes that never
//! cross shards: the gate for "2PC is free when bypassed".
//!
//! The distributed-transaction subsystem (the planner, the coordinator, the
//! decision log, the consistent-cut gate) must be free for single-shard
//! writes: eight writers storming eight tables all owned by ONE shard of a
//! four-shard server may run at most [`MAX_2PC_OVERHEAD`]× slower than the
//! same storm against a one-shard server, where the router plans nothing.
//! WAL-append latency is injected through the fault registry (`wal.append`
//! → `DelayUs`) so both servers pay a real storage cost per write and the
//! ratio measures routing, not tmpfs; the gate therefore holds on one core.
//!
//! Each round storms both servers back to back, in an order that alternates
//! from round to round, so drift and warm-up hit both sides equally; the
//! median of the per-round ratios is gated. This binary holds exactly one
//! test: nothing else in the process arms the global fault registry or
//! competes for the cores while it measures.
//!
//! Write scaling across shards and group-commit amortization are measured
//! end to end by the benchmark's `ingest` workload (`crates/benchmark`).
//!
//! Run with `cargo test -p elephant-server --test shard_overhead`.

use elephant_server::{shard_of, start, ElephantClient, ServerConfig, ServerHandle};
use etypes::fault::{self, FaultPolicy};
use sqlengine::FsyncPolicy;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Single-shard writes on a multi-shard server (2PC machinery present but
/// bypassed) may cost at most this factor over a one-shard server.
const MAX_2PC_OVERHEAD: f64 = 1.05;

const WRITERS: usize = 8;
const STMTS_PER_WRITER: usize = 40;
const APPEND_DELAY_US: u64 = 2_000;
const ROUNDS: usize = 9;

/// A durable server with `fsync=off` (the injected delay stands in for the
/// storage) and the storm's tables created.
struct Storm {
    handle: ServerHandle,
    dir: PathBuf,
    tables: Vec<String>,
    round: usize,
}

impl Storm {
    fn start(shards: usize, tables: &[String]) -> Storm {
        let dir = std::env::temp_dir().join(format!(
            "elephant-shard-overhead-{}-{shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let handle = start(ServerConfig {
            data_dir: Some(dir.clone()),
            fsync: FsyncPolicy::Off,
            shards,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut admin = ElephantClient::connect(handle.local_addr()).unwrap();
        for t in tables {
            admin
                .query_raw(&format!("CREATE TABLE {t} (x int)"))
                .unwrap();
        }
        Storm {
            handle,
            dir,
            tables: tables.to_vec(),
            round: 0,
        }
    }

    /// One storm: every writer inserts `STMTS_PER_WRITER` rows into its own
    /// table with the append delay armed; seconds from the common start to
    /// the last writer's finish.
    fn run(&mut self) -> f64 {
        let addr: SocketAddr = self.handle.local_addr();
        let round = self.round;
        self.round += 1;
        let barrier = Arc::new(Barrier::new(WRITERS + 1));
        let workers: Vec<_> = self
            .tables
            .iter()
            .map(|t| {
                let table = t.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut c = ElephantClient::connect(addr).unwrap();
                    barrier.wait();
                    for seq in 0..STMTS_PER_WRITER {
                        let x = round * STMTS_PER_WRITER + seq;
                        c.query_raw(&format!("INSERT INTO {table} VALUES ({x})"))
                            .unwrap();
                    }
                })
            })
            .collect();
        // Latency goes live only for the measured storm, not the DDL.
        fault::set("wal.append", FaultPolicy::DelayUs(APPEND_DELAY_US));
        barrier.wait();
        let started = Instant::now();
        for w in workers {
            w.join().unwrap();
        }
        let elapsed = started.elapsed().as_secs_f64();
        fault::clear_all();
        elapsed
    }

    fn stop(self) {
        let mut admin = ElephantClient::connect(self.handle.local_addr()).unwrap();
        admin.shutdown().unwrap();
        drop(admin);
        self.handle.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Eight table names that all hash to shard 0 of four: on the four-shard
/// server every write is single-shard, exercising planning + routing with
/// the transaction subsystem compiled in but never entered.
fn colocated_tables() -> Vec<String> {
    (0..)
        .map(|i| format!("ct{i}"))
        .filter(|name| shard_of(name, 4) == 0)
        .take(WRITERS)
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn single_shard_writes_on_four_shards_cost_at_most_five_percent_more() {
    fault::clear_all();
    let tables = colocated_tables();
    let mut one = Storm::start(1, &tables);
    let mut four = Storm::start(4, &tables);
    // Warm-up: connections, table heaps and WAL files on both servers.
    one.run();
    four.run();
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (base, routed) = if round % 2 == 0 {
            let base = one.run();
            (base, four.run())
        } else {
            let routed = four.run();
            (one.run(), routed)
        };
        // Seconds per storm, routed over one shard: the throughput ratio.
        ratios.push(routed / base);
    }
    one.stop();
    four.stop();
    let overhead = median(ratios.clone());
    let statements = (WRITERS * STMTS_PER_WRITER) as f64;
    eprintln!(
        "{WRITERS} writers x {STMTS_PER_WRITER} stmts, {APPEND_DELAY_US} us injected append \
         latency ({statements} stmts a storm): 4-shard(one hot) / 1-shard per round \
         {ratios:.3?}, median {overhead:.3}x (gate <= {MAX_2PC_OVERHEAD}x)"
    );
    assert!(
        overhead <= MAX_2PC_OVERHEAD,
        "2PC bypass overhead {overhead:.3}x exceeds {MAX_2PC_OVERHEAD}x"
    );
}
