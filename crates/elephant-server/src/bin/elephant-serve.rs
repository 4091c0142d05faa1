//! `elephant-serve` — stand-alone server binary.
//!
//! ```text
//! elephant-serve [--addr HOST:PORT] [--disk] [--rows N] [--seed N]
//!                [--queue N] [--no-data] [--data-dir PATH]
//!                [--fsync POLICY] [--slow-query-us N]
//!                [--statement-timeout-ms N] [--repl-addr HOST:PORT]
//!                [--replicate-from HOST:PORT] [--auto-checkpoint-wal-bytes N]
//!                [--shards N] [--metrics-addr HOST:PORT]
//!                [--max-result-buffer-bytes N]
//! ```
//!
//! Every statement — `INSPECT`'s window, `unnest` and histogram queries
//! included — runs batch-at-a-time on the engine's one vectorized
//! executor.
//!
//! By default binds 127.0.0.1:5462, uses the in-memory profile, and
//! pre-registers the standard synthetic pipeline datasets so `INSPECT`
//! works immediately. With `--data-dir` the server recovers whatever the
//! directory holds on startup and write-ahead-logs every acknowledged
//! DDL/DML; `--fsync` picks the WAL durability policy (`always`, `off`,
//! or `every_n:N`).
//!
//! Replication: `--repl-addr` (with `--data-dir`) makes this server a
//! leader streaming committed WAL frames to followers; `--replicate-from`
//! makes it a read-only follower of the leader replicating at that
//! address. `--auto-checkpoint-wal-bytes` checkpoints automatically once
//! the WAL outgrows the budget.
//!
//! Sharding: `--shards N` runs N engine shards (defaults to the machine's
//! available parallelism), each with its own executor thread and — when
//! durable — its own WAL/snapshot subdirectory; tables are routed to
//! shards by name hash. Incompatible with replication. See
//! `docs/SHARDING.md`.
//!
//! Observability: `--metrics-addr HOST:PORT` starts a plain-HTTP metrics
//! listener serving the Prometheus text format on `GET /metrics` — the
//! same counters as the `STATS` verb, machine-readable. Distributed
//! traces are available over the regular protocol with `TRACE` /
//! `TRACE q<id>`. See `docs/OBSERVABILITY.md`.

use elephant_server::{start, ServerConfig};
use sqlengine::FsyncPolicy;
use std::path::PathBuf;
use std::process::exit;

fn main() {
    let mut addr = "127.0.0.1:5462".to_string();
    let mut in_memory = true;
    let mut rows: usize = 200;
    let mut seed: u64 = 7;
    let mut queue: usize = 64;
    let mut with_data = true;
    let mut data_dir: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut slow_query_us: Option<u64> = None;
    let mut statement_timeout_ms: Option<u64> = None;
    let mut repl_addr: Option<String> = None;
    let mut replicate_from: Option<String> = None;
    let mut auto_checkpoint_wal_bytes: Option<u64> = None;
    let mut shards: Option<usize> = None;
    let mut metrics_addr: Option<String> = None;
    let mut max_result_buffer_bytes: usize = 64 << 20;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--disk" => in_memory = false,
            "--rows" => rows = parse(&value("--rows"), "--rows"),
            "--seed" => seed = parse(&value("--seed"), "--seed"),
            "--queue" => queue = parse(&value("--queue"), "--queue"),
            "--no-data" => with_data = false,
            "--data-dir" => data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--fsync" => fsync = parse(&value("--fsync"), "--fsync"),
            "--slow-query-us" => {
                slow_query_us = Some(parse(&value("--slow-query-us"), "--slow-query-us"));
            }
            "--statement-timeout-ms" => {
                statement_timeout_ms = Some(parse(
                    &value("--statement-timeout-ms"),
                    "--statement-timeout-ms",
                ));
            }
            "--repl-addr" => repl_addr = Some(value("--repl-addr")),
            "--replicate-from" => replicate_from = Some(value("--replicate-from")),
            "--auto-checkpoint-wal-bytes" => {
                auto_checkpoint_wal_bytes = Some(parse(
                    &value("--auto-checkpoint-wal-bytes"),
                    "--auto-checkpoint-wal-bytes",
                ));
            }
            "--shards" => shards = Some(parse(&value("--shards"), "--shards")),
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr")),
            "--max-result-buffer-bytes" => {
                max_result_buffer_bytes = parse(
                    &value("--max-result-buffer-bytes"),
                    "--max-result-buffer-bytes",
                );
            }
            "--help" | "-h" => {
                println!(
                    "usage: elephant-serve [--addr HOST:PORT] [--disk] [--rows N] \
                     [--seed N] [--queue N] [--no-data] [--data-dir PATH] \
                     [--fsync always|off|every_n:N] [--slow-query-us N] \
                     [--statement-timeout-ms N] [--repl-addr HOST:PORT] \
                     [--replicate-from HOST:PORT] [--auto-checkpoint-wal-bytes N] \
                     [--shards N (default: available parallelism; 1 with replication)] \
                     [--metrics-addr HOST:PORT (Prometheus text format on GET /metrics)] \
                     [--max-result-buffer-bytes N (v2 per-response cap, default 64 MiB)]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag '{other}' (try --help)");
                exit(2);
            }
        }
    }

    let durable = data_dir.is_some();
    let config_role_follower = replicate_from.clone();
    // Default to one shard per core; replication replays exactly one WAL,
    // so replicated servers default to a single shard instead.
    let shards = shards.unwrap_or_else(|| {
        if repl_addr.is_some() || replicate_from.is_some() {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    });
    let mut config = ServerConfig {
        addr,
        queue_capacity: queue,
        in_memory,
        files: Vec::new(),
        data_dir,
        fsync,
        slow_query_us,
        statement_timeout_ms,
        repl_addr,
        replicate_from,
        auto_checkpoint_wal_bytes,
        shards,
        metrics_addr,
        max_result_buffer_bytes,
    };
    if with_data {
        config = config.with_standard_pipeline_data(rows, seed);
    }

    let handle = match start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("startup failed: {e}");
            exit(1);
        }
    };
    let role = match (handle.repl_addr(), config_role_follower) {
        (Some(repl), _) => format!("leader, replicating on {repl}"),
        (None, Some(upstream)) => format!("follower of {upstream}"),
        (None, None) => "standalone".to_string(),
    };
    println!(
        "elephant-serve listening on {} ({} profile, {} storage, \
         {shards} shard{}, {role}); send SHUTDOWN to stop",
        handle.local_addr(),
        if in_memory { "in-memory" } else { "disk-based" },
        if durable { "durable" } else { "volatile" },
        if shards == 1 { "" } else { "s" },
    );
    if let Some(metrics) = handle.metrics_addr() {
        println!("metrics exposition on http://{metrics}/metrics");
    }
    handle.join();
    println!("elephant-serve drained, bye");
}

fn parse<T: std::str::FromStr>(text: &str, flag: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse '{text}'");
        exit(2);
    })
}
