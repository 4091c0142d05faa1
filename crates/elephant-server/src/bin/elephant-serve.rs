//! `elephant-serve` — stand-alone server binary.
//!
//! ```text
//! elephant-serve [--addr HOST:PORT] [--rows N] [--seed N] [--queue N]
//!                [--no-data] [--data-dir PATH] [--fsync always|off]
//!                [--statement-timeout-ms N] [--shards N]
//!                [--metrics-addr HOST:PORT] [--max-result-buffer-bytes N]
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
//! DDL/DML; `--fsync` picks the WAL durability policy (`always` or
//! `off`), and the `CHECKPOINT` verb compacts the log into a snapshot.
//!
//! Sharding: `--shards N` runs N engine shards (defaults to the machine's
//! available parallelism), each with its own executor thread and — when
//! durable — its own WAL/snapshot subdirectory; tables are routed to
//! shards by name hash. See `docs/SHARDING.md`.
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
    let mut rows: usize = 200;
    let mut seed: u64 = 7;
    let mut queue: usize = 64;
    let mut with_data = true;
    let mut data_dir: Option<PathBuf> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut statement_timeout_ms: Option<u64> = None;
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
            "--rows" => rows = parse(&value("--rows"), "--rows"),
            "--seed" => seed = parse(&value("--seed"), "--seed"),
            "--queue" => queue = parse(&value("--queue"), "--queue"),
            "--no-data" => with_data = false,
            "--data-dir" => data_dir = Some(PathBuf::from(value("--data-dir"))),
            "--fsync" => fsync = parse(&value("--fsync"), "--fsync"),
            "--statement-timeout-ms" => {
                statement_timeout_ms = Some(parse(
                    &value("--statement-timeout-ms"),
                    "--statement-timeout-ms",
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
                    "usage: elephant-serve [--addr HOST:PORT] [--rows N] \
                     [--seed N] [--queue N] [--no-data] [--data-dir PATH] \
                     [--fsync always|off] [--statement-timeout-ms N] \
                     [--shards N (default: available parallelism)] \
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
    // Default to one shard per core.
    let shards =
        shards.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut config = ServerConfig {
        addr,
        queue_capacity: queue,
        files: Vec::new(),
        data_dir,
        fsync,
        statement_timeout_ms,
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
    println!(
        "elephant-serve listening on {} (in-memory profile, {} storage, \
         {shards} shard{}); send SHUTDOWN to stop",
        handle.local_addr(),
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
