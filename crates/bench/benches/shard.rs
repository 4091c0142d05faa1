//! The price of the router's cross-shard machinery for writes that never
//! cross shards.
//!
//! The distributed-transaction subsystem (the planner, the coordinator, the
//! decision log, the consistent-cut gate) must be free for single-shard
//! writes: eight writers storming eight tables all owned by ONE shard of a
//! four-shard server may run at most [`MAX_2PC_OVERHEAD`]× slower than the
//! same storm against a single-shard server, where the router plans
//! nothing. WAL-append latency is injected through the fault registry
//! (`wal.append` → `DelayUs`) so both servers pay a real storage cost per
//! write and the ratio measures routing, not tmpfs.
//!
//! Write scaling across shards and group-commit amortization are measured
//! end to end by the benchmark's `ingest` workload (`crates/benchmark`).
//!
//! Writes `BENCH_shard.json` at the workspace root; exits non-zero when the
//! gate fails.

use elephant_server::{shard_of, start, ElephantClient, ServerConfig};
use etypes::fault::{self, FaultPolicy};
use sqlengine::FsyncPolicy;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Single-shard writes on a multi-shard server (2PC machinery present but
/// bypassed) may cost at most this factor over a one-shard server.
const MAX_2PC_OVERHEAD: f64 = 1.05;

const WRITERS: usize = 8;
const STMTS_PER_WRITER: usize = 40;
const APPEND_DELAY_US: u64 = 2_000;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("elephant-bench-shard-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run the 8-writer storm against a `shards`-shard durable server with
/// `fsync=off` and the injected append delay; returns statements/second.
fn storm_throughput(shards: usize, tables: &[String]) -> f64 {
    let dir = tmp_dir(&format!("storm{shards}"));
    let handle = start(ServerConfig {
        data_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Off,
        shards,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = handle.local_addr();
    let mut admin = ElephantClient::connect(addr).unwrap();
    for t in tables {
        admin
            .query_raw(&format!("CREATE TABLE {t} (x int)"))
            .unwrap();
    }

    // Latency goes live only for the measured storm, not the DDL.
    fault::set("wal.append", FaultPolicy::DelayUs(APPEND_DELAY_US));
    let barrier = Arc::new(Barrier::new(WRITERS + 1));
    let workers: Vec<_> = tables
        .iter()
        .map(|t| {
            let table = t.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = ElephantClient::connect(addr).unwrap();
                barrier.wait();
                for seq in 0..STMTS_PER_WRITER {
                    c.query_raw(&format!("INSERT INTO {table} VALUES ({seq})"))
                        .unwrap();
                }
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    for w in workers {
        w.join().unwrap();
    }
    let elapsed = started.elapsed();
    fault::clear_all();

    admin.shutdown().unwrap();
    drop(admin);
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
    (WRITERS * STMTS_PER_WRITER) as f64 / elapsed.as_secs_f64()
}

/// Eight table names that all hash to shard 0 of four: on the four-shard
/// server every write is single-shard, exercising planning + routing with
/// the transaction subsystem compiled in but never entered.
fn colocated_tables() -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while out.len() < WRITERS {
        let name = format!("ct{i}");
        if shard_of(&name, 4) == 0 {
            out.push(name);
        }
        i += 1;
    }
    out
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "== shard: 2PC overhead on single-shard writes ({WRITERS} writers x \
         {STMTS_PER_WRITER} stmts, co-located tables, {APPEND_DELAY_US} us injected \
         append latency) =="
    );
    let colocated = colocated_tables();
    // Best of two per configuration: sleeps dominate, so variance is tiny,
    // but the first round also pays connection warm-up.
    let base = storm_throughput(1, &colocated).max(storm_throughput(1, &colocated));
    let routed = storm_throughput(4, &colocated).max(storm_throughput(4, &colocated));
    let overhead = base / routed;
    println!(
        "1-shard {base:>9.0} stmts/s  4-shard(one hot) {routed:>9.0} stmts/s  \
         overhead {overhead:.3}x (gate <= {MAX_2PC_OVERHEAD}x)"
    );

    let json = format!(
        "{{\n  \"bench\": \"shard\",\n  \"cores\": {cores},\n  \"writers\": {WRITERS},\n  \
         \"statements_per_writer\": {STMTS_PER_WRITER},\n  \
         \"append_delay_us\": {APPEND_DELAY_US},\n  \"txn_overhead\": {{\n    \
         \"single_shard_stmts_per_sec\": {base:.1},\n    \
         \"four_shard_pinned_stmts_per_sec\": {routed:.1},\n    \
         \"overhead_ratio\": {overhead:.4},\n    \
         \"gate\": \"overhead_ratio <= {MAX_2PC_OVERHEAD}\"\n  }}\n}}\n"
    );
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("workspace root");
    let path = root.join("BENCH_shard.json");
    std::fs::write(&path, json).expect("write BENCH_shard.json");
    println!("wrote {}", path.display());

    if overhead > MAX_2PC_OVERHEAD {
        eprintln!("FAIL: 2PC bypass overhead {overhead:.3}x exceeds {MAX_2PC_OVERHEAD}x");
        std::process::exit(1);
    }
}
