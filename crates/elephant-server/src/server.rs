//! The TCP server: listener, accept loop, and lifecycle handle.

use crate::executor::{self, ExecutorConfig};
use crate::metrics::Metrics;
use crate::scrape;
use crate::session::run_session;
use crate::shard::{Lane, ShardRouter, ShardStats};
use etypes::SharedSpanRing;
use sqlengine::{FsyncPolicy, TxnDecisionLog, TXN_LOG_FILE};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Finished spans retained per shard ring. Large enough that a multi-span
/// distributed query tree survives a busy `TRACE` window, small enough to
/// bound memory (spans are a few hundred bytes each).
const SPAN_RING_CAPACITY: usize = 512;

/// Accept-loop poll interval for the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Bound on the executor job queue — the backpressure threshold.
    pub queue_capacity: usize,
    /// Virtual files served to `INSPECT` pipelines' `read_csv` calls.
    pub files: Vec<(String, String)>,
    /// Directory for the write-ahead log and snapshots. `None` (the
    /// default) keeps the server volatile; `Some` makes every acknowledged
    /// DDL/DML durable and enables `CHECKPOINT`.
    pub data_dir: Option<PathBuf>,
    /// Fsync policy for the durable store (ignored without `data_dir`).
    pub fsync: FsyncPolicy,
    /// Cancel statements cooperatively after this many milliseconds with a
    /// retryable `ERR_TIMEOUT`. `None` (the default) lets statements run
    /// unbounded.
    pub statement_timeout_ms: Option<u64>,
    /// Engine shards. Each shard is an independent engine on its own
    /// executor thread (durable servers give each its own WAL/snapshot
    /// subdirectory); tables are routed to shards by name hash. Must be at
    /// least 1.
    pub shards: usize,
    /// Bind a plain-HTTP metrics listener here and serve the Prometheus
    /// text exposition on `GET /metrics`. `None` (the default) disables
    /// the listener. Use port 0 to let the OS pick (tests do).
    pub metrics_addr: Option<String>,
    /// Largest result body (bytes) a protocol-v2 session will buffer for
    /// one response. Bodies above [`crate::protocol::V2_CHUNK`] stream as
    /// chunks; bodies above this cap are refused with `ERR_OVERSIZED`
    /// instead of being buffered, bounding per-response server memory.
    /// v1 sessions are unaffected (their byte-level behavior is frozen).
    pub max_result_buffer_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 64,
            files: Vec::new(),
            data_dir: None,
            fsync: FsyncPolicy::Always,
            statement_timeout_ms: None,
            shards: 1,
            metrics_addr: None,
            max_result_buffer_bytes: 64 << 20,
        }
    }
}

impl ServerConfig {
    /// Pre-register the standard synthetic pipeline datasets under the file
    /// names the paper's pipelines read (`patients.csv`, `histories.csv`,
    /// `compas_train.csv`, ... , `taxi.csv`), so `INSPECT` works for the
    /// stock pipelines out of the box.
    pub fn with_standard_pipeline_data(mut self, rows: usize, seed: u64) -> Self {
        let test_rows = (rows / 3).max(30);
        self.files = vec![
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
            ("taxi.csv".into(), datagen::taxi_csv(rows, seed)),
        ];
        self
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// send `SHUTDOWN` (or call [`ServerHandle::shutdown`]) and [`join`].
///
/// [`join`]: ServerHandle::join
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    accept_join: Option<JoinHandle<()>>,
    scrape_join: Option<JoinHandle<()>>,
    executor_joins: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics listener's bound address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Shared server counters (live view).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Trigger the drain without a client (same effect as `SHUTDOWN`).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Wait for the drain to finish: the accept loop stops, every session
    /// runs to completion, then each shard's executor exhausts its queue
    /// and exits.
    pub fn join(mut self) {
        if let Some(h) = self.accept_join.take() {
            let _ = h.join();
        }
        // The scrape thread polls the same shutdown flag the accept loop
        // just observed; it holds only a Weak router reference, so it never
        // keeps the executors alive.
        if let Some(h) = self.scrape_join.take() {
            let _ = h.join();
        }
        for h in self.executor_joins.drain(..) {
            let _ = h.join();
        }
    }
}

/// Bind and start serving; returns immediately with a [`ServerHandle`].
pub fn start(mut config: ServerConfig) -> io::Result<ServerHandle> {
    if config.shards == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a server needs at least one shard (--shards 1)",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let metrics = Arc::new(Metrics::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    // The coordinator's 2PC decision log lives at the top of the data
    // directory (beside the per-shard subdirectories) and must be open
    // BEFORE any shard recovers: each shard's recovery resolves in-doubt
    // prepared groups against the replayed verdict map.
    let txn_log = match &config.data_dir {
        Some(dir) if config.shards > 1 => {
            std::fs::create_dir_all(dir)?;
            Some(
                TxnDecisionLog::open(&dir.join(TXN_LOG_FILE))
                    .map_err(|e| io::Error::other(format!("txn decision log: {e}")))?,
            )
        }
        _ => None,
    };
    let txn_decisions: HashMap<u64, bool> = txn_log
        .as_ref()
        .map(TxnDecisionLog::decisions)
        .unwrap_or_default();
    // One executor (engine + WAL directory) per shard. With one shard the
    // layout is unchanged from pre-sharding servers — existing data dirs
    // keep working; with more, each shard gets its own subdirectory.
    let mut lanes: Vec<Lane> = Vec::with_capacity(config.shards);
    let mut executor_joins: Vec<JoinHandle<()>> = Vec::with_capacity(config.shards);
    let mut recovered_per_shard: Vec<Vec<String>> = Vec::with_capacity(config.shards);
    // Only shard 0 runs `INSPECT` (the router routes it there), so only it
    // holds the files.
    let mut files = std::mem::take(&mut config.files);
    for shard_id in 0..config.shards {
        let data_dir = config.data_dir.as_ref().map(|dir| {
            if config.shards > 1 {
                dir.join(format!("shard-{shard_id}"))
            } else {
                dir.clone()
            }
        });
        let lane_stats = Arc::new(ShardStats::default());
        // The span ring is shared between this shard's executor (writer)
        // and the router (the TRACE reader / root-span owner).
        let ring = Arc::new(SharedSpanRing::new(SPAN_RING_CAPACITY));
        let (tx, join, wal, recovered) = executor::spawn(
            ExecutorConfig {
                files: std::mem::take(&mut files),
                queue_capacity: config.queue_capacity,
                data_dir,
                fsync: config.fsync,
                statement_timeout_ms: config.statement_timeout_ms,
                shard_id,
                lane: Arc::clone(&lane_stats),
                ring: Arc::clone(&ring),
                txn_decisions: txn_decisions.clone(),
            },
            Arc::clone(&metrics),
            Arc::clone(&shutdown),
        )?;
        lanes.push(Lane {
            tx,
            stats: lane_stats,
            ring,
            wal,
        });
        executor_joins.push(join);
        recovered_per_shard.push(recovered);
    }
    let router = Arc::new(ShardRouter::new(lanes, Arc::clone(&metrics), txn_log));
    for (shard_id, names) in recovered_per_shard.into_iter().enumerate() {
        router.seed(shard_id, &names);
    }

    // The metrics listener holds only a Weak router reference: the accept
    // loop owns the strong Arc, and dropping it at drain end must remain
    // what lets the executors observe disconnection and exit.
    let (metrics_addr, scrape_join) = match &config.metrics_addr {
        Some(bind) => {
            let metrics_listener = TcpListener::bind(bind)?;
            let bound = metrics_listener.local_addr()?;
            let join = scrape::spawn(
                metrics_listener,
                Arc::downgrade(&router),
                Arc::clone(&shutdown),
            )?;
            (Some(bound), Some(join))
        }
        None => (None, None),
    };

    let accept_metrics = Arc::clone(&metrics);
    let accept_shutdown = Arc::clone(&shutdown);
    let max_result_buffer = config.max_result_buffer_bytes;
    // The accept loop owns the router (and with it every lane sender):
    // dropping it at drain end is what lets the executors observe
    // disconnection and exit. It must never be stored in the handle.
    let accept_join = thread::Builder::new()
        .name("elephant-accept".into())
        .spawn(move || {
            let mut sessions: Vec<JoinHandle<()>> = Vec::new();
            let mut next_session: u64 = 1;
            while !accept_shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let id = next_session;
                        next_session += 1;
                        accept_metrics
                            .sessions_opened
                            .fetch_add(1, Ordering::Relaxed);
                        let router = Arc::clone(&router);
                        let metrics = Arc::clone(&accept_metrics);
                        let shutdown = Arc::clone(&accept_shutdown);
                        let result_cap = max_result_buffer;
                        match thread::Builder::new()
                            .name(format!("elephant-session-{id}"))
                            .spawn(move || {
                                run_session(stream, &router, &metrics, &shutdown, result_cap)
                            }) {
                            Ok(h) => sessions.push(h),
                            Err(_) => {
                                accept_metrics
                                    .sessions_closed
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        // Opportunistically reap finished sessions so the
                        // vector does not grow with server lifetime.
                        sessions.retain(|h| !h.is_finished());
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(ACCEPT_POLL);
                    }
                    Err(_) => thread::sleep(ACCEPT_POLL),
                }
            }
            // Draining: no new connections; wait for live sessions, then
            // drop the router (every lane sender with it) so the executors
            // can finish their queues and exit.
            for h in sessions {
                let _ = h.join();
            }
            drop(router);
        })
        .expect("spawn accept thread");

    Ok(ServerHandle {
        addr,
        metrics_addr,
        metrics,
        shutdown,
        accept_join: Some(accept_join),
        scrape_join,
        executor_joins,
    })
}
