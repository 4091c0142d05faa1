#![warn(missing_docs)]
//! A concurrent SQL/inspection serving layer over the embedded engine.
//!
//! The paper's system runs pipelines *inside* a database server; this crate
//! gives the reproduction the same deployment shape. It wraps the embedded
//! [`sqlengine::Engine`] in a small TCP server with a newline / length-
//! prefixed text protocol (see [`protocol`] and `docs/PROTOCOL.md`):
//!
//! | verb | effect |
//! |------|--------|
//! | `QUERY` | run one SQL statement, rows come back as CSV |
//! | `BATCH` | run many statements from one frame, amortizing framing and group commit |
//! | `PREPARE` / `EXECUTE` | plan once via the engine's LRU plan cache, run many times; `$n` placeholders bind at `EXECUTE name (args)` |
//! | `EXPLAIN` | render the optimized plan |
//! | `INSPECT` | run an ML pipeline through the SQL backend with bias checks |
//! | `STATS` | counters, queue depth, latency percentiles, plan-cache hit rate, storage/recovery stats |
//! | `TRACE` | distributed tracing: `TRACE [n]` lists recent root spans, `TRACE q<id>` renders one query's span tree (see `docs/OBSERVABILITY.md`) |
//! | `CHECKPOINT` | snapshot all tables to the data directory and truncate the WAL |
//! | `SHUTDOWN` | graceful drain |
//!
//! Sending `HELLO v2` as the first command flips the connection to the v2
//! envelope of the same protocol: sequence-tagged frames, many requests in
//! flight per connection, and chunked streaming of large results under a
//! configurable result-buffer cap. Clients that never send `HELLO` keep
//! speaking v1 byte-identically. Both envelopes go through one frame
//! reader, one reply writer ([`protocol`]) and one session loop.
//!
//! Started with a `--data-dir` (or [`ServerConfig::data_dir`]), the server
//! write-ahead-logs every acknowledged DDL/DML through `elephant-store` and
//! recovers snapshot + WAL on startup — a `kill -9` loses nothing that was
//! acknowledged under `--fsync always`. See `docs/STORAGE.md`.
//!
//! # Architecture
//!
//! The engine is not `Send` (its catalog shares view definitions through
//! `Rc`), so each engine is pinned to its own executor thread; with
//! `--shards N` the server runs N of them and a shard router assigns
//! tables to shards by name hash (see [`shard_of`] and `docs/SHARDING.md`):
//!
//! ```text
//! client ──TCP──▶ session thread ──▶ shard router ──bounded mpsc──▶ executor 0 (Engine + WAL 0)
//! client ──TCP──▶ session thread ──▶      │        ──bounded mpsc──▶ executor 1 (Engine + WAL 1)
//!                      ◀── reply channel ─┘
//! ```
//!
//! Single-shard statements route directly; cross-shard read-only queries
//! run scatter-gather (foreign tables are exported to a coordinator shard
//! which runs the whole plan); cross-shard writes are refused with the
//! typed `ERR_CROSS_SHARD`. Each executor drains its queue in batches
//! wrapped in a WAL **group commit**: one fsync acknowledges every write
//! in the batch (`wal_group_commits` in `STATS`).
//!
//! Each connection gets a session thread running the one serving loop
//! (`session.rs`): it reads frames in the connection's envelope, hands each
//! command to the router (`begin`, then `finish` in request order; `submit`
//! for commands with cross-command effects) and writes replies lazily.
//! Prepared statements are session state: the session maps each name to
//! the shard that prepared it and its text, and an `EXECUTE` travels to
//! that shard carrying the text, so nothing below the session knows the
//! name. The
//! job queues are **bounded** `sync_channel`s behind one admission
//! function: a full queue makes a pipelining session settle its oldest
//! reply and retry, and a session with nothing in flight wait briefly and
//! then get the retryable `ERR_BUSY`, instead of buffering unboundedly. `SHUTDOWN` travels through the queue, so
//! everything enqueued before it still completes — the executor flips a
//! flag that stops the accept loop, sessions finish and hang up, and when
//! the last queue sender drops the executors exit.
//!
//! # Quick start
//!
//! ```
//! use elephant_server::{start, ElephantClient, ServerConfig};
//!
//! let handle = start(ServerConfig::default()).unwrap();
//! let mut c = ElephantClient::connect(handle.local_addr()).unwrap();
//! c.query_raw("CREATE TABLE t (a int)").unwrap();
//! c.query_raw("INSERT INTO t VALUES (1), (2)").unwrap();
//! assert_eq!(c.query_raw("SELECT sum(a) AS s FROM t").unwrap(), "s\n3\n");
//! c.shutdown().unwrap();
//! drop(c);
//! handle.join();
//! ```

pub mod client;
mod executor;
pub mod metrics;
pub mod protocol;
mod scrape;
pub mod server;
mod session;
mod shard;

pub use client::wire::PipelineClient;
pub use client::{ClientError, ClientResult, ElephantClient, RetryPolicy, ServerError};
pub use metrics::{LatencyHistogram, Metrics};
pub use protocol::{Command, TraceRequest, MAX_FRAME};
pub use server::{start, ServerConfig, ServerHandle};
pub use shard::shard_of;
