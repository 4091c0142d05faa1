//! The shard router: table-affine statement routing over N executor lanes.
//!
//! With `--shards N` the server runs N independent engines, each on its own
//! executor thread over its own WAL/snapshot directory. Tables are assigned
//! to shards by a stable FNV-1a hash of the table name ([`shard_of`]), so
//! placement is deterministic across restarts and across servers with the
//! same shard count; DDL additionally registers ownership in a shared
//! catalog map (needed for views, whose home shard is the shard of the
//! tables they read, not of their own name).
//!
//! **One plan per command.** [`ShardRouter::plan`] is the only place a
//! command's placement is decided and the only place SQL is parsed
//! ([`ShardRouter::place`]): it cuts a text into statements at the `;`
//! tokens of sqlengine's own lexer, places each statement on the shard
//! owning what it touches (names created or dropped by earlier statements
//! of the same script or BATCH included), records each statement's
//! ownership changes, and yields one [`Route`]. [`ShardRouter::begin`] and
//! [`ShardRouter::submit`] consume the route and parse nothing, and the
//! statements the planner parsed travel to the shard with the job, so a
//! routed `QUERY` or `BATCH` text is lexed and parsed once. On one shard
//! the planner returns before parsing. The routes, in order:
//!
//! * SQL the router cannot parse falls back to shard 0, counted in
//!   `shard_fallbacks`, where the engine produces the canonical error
//!   text.
//! * Texts whose statements all land on **one** shard (the common case)
//!   are forwarded to that shard's lane unchanged — overlapped with the
//!   session's other commands when they change no ownership, run
//!   synchronously with their changes applied after the ack otherwise.
//! * **Read-only** texts spanning several shards run scatter-gather:
//!   the foreign shards export the touched tables as images, the
//!   coordinator shard (the one owning most of the touched names) installs
//!   them as WAL-bypassing foreign tables, runs the full query locally, and
//!   drops them again. Results are byte-identical to a single-shard server
//!   because one engine executes the complete plan over identical tables
//!   (ctids included).
//! * **Writes** spanning several shards run as a distributed transaction
//!   over the planned per-shard slices: the router becomes the two-phase-
//!   commit coordinator (each participant shard durably stages a `PREPARE`
//!   frame, the router fsyncs the commit verdict into the `txn.log`
//!   decision log, then every participant applies), acknowledges only
//!   after the verdict is durable, and replies what the leg running the
//!   last statement replied — as a one-shard server would. A single
//!   *statement* whose tables live on several shards is refused with
//!   [`codes::CROSS_SHARD`] — the transaction splits at statement
//!   boundaries. See `docs/TXN.md`.
//! * Broadcast (`CHECKPOINT`), router-answered (`TRACE`, `STATS`), and
//!   pinned single-shard verbs (`PREPARE`'d statements, shard-0 surfaces).
//!
//! **Consistent read cut**: cross-shard writes take the router's
//! transaction gate exclusively; scatter-gather reads take it shared. A
//! multi-shard read therefore never overlaps a two-phase-commit window and
//! observes every distributed transaction either on all shards or on none.
//! The per-shard committed-LSN watermarks at gate acquisition (the cut
//! vector) are recorded on the query's route span for observability.
//!
//! Sessions are shard-agnostic: every session plans each command with
//! [`ShardRouter::plan`], hands it to [`ShardRouter::begin`] and collects
//! the reply with [`ShardRouter::finish`] (or [`ShardRouter::submit`] for
//! commands with cross-command effects).
//! The router also owns admission control: one function,
//! [`ShardRouter::admit`], puts jobs on lane queues. A full queue is
//! answered by one rule — a session with replies in flight settles its
//! oldest and tries again without sleeping; with nothing in flight the
//! router waits up to `ADMISSION_WAIT` for a slot and then refuses with the
//! retryable `ERR_BUSY` naming the saturated shard, so clients can salt
//! their backoff per shard.
//!
//! **Tracing**: the router is where a command becomes a *query*. Every
//! routed command gets a process-unique `query_id` and a root
//! [`SpanKind::Command`] span, opened on the ring of the shard that will
//! execute it (the coordinator for scatter-gather, shard 0 for broadcasts)
//! and closed when the reply comes back. The correlation ids travel with
//! the job as a [`TraceContext`]; executors hang queue-wait, exec,
//! engine-phase, export/install and group-fsync children under the root.
//! `TRACE` is answered here, without an executor round-trip: the router
//! walks every shard's ring, so `TRACE q<id>` reassembles the spans of one
//! distributed query into a single tree with per-shard time attribution.
//!
//! The router is also the one place metrics are collected:
//! [`ShardRouter::collect`] gathers the server counters, every shard's
//! engine samples and lane gauges, and the sharding counters into one list
//! that `STATS` (answered here, like `TRACE`) and the `/metrics` listener
//! both render — see [`crate::metrics`].

use crate::executor::{Job, Parsed, Reply};
use crate::metrics::{fold_shards, render_prometheus, render_stats_text, sample, Metric, Metrics};
use crate::protocol::{codes, Command, TraceRequest};
use etypes::{SharedSpanRing, Span, SpanKind, SpanRecord, TraceContext};
use sqlengine::ast::Statement;
use sqlengine::{parse_fragments, statement_deps, TableImage, TxnDecisionLog, WalHandle};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};

/// How long admission control waits for a queue slot before refusing the
/// command with [`codes::BUSY`]. Short: the point is to convert unbounded
/// head-of-line blocking into a bounded, retryable signal.
const ADMISSION_WAIT: Duration = Duration::from_millis(250);

/// Sleep between queue retries inside the admission wait.
const ADMISSION_POLL: Duration = Duration::from_millis(10);

/// Pull the 1-based failing-statement index out of an executor batch error
/// (`batch statement <i>/<k>: ...`). `None` for non-batch error shapes.
fn batch_error_index(msg: &str) -> Option<usize> {
    let rest = msg.strip_prefix("batch statement ")?;
    let (i, _) = rest.split_once('/')?;
    i.parse().ok()
}

/// The shard owning `name`: FNV-1a over the bytes, mod the shard count.
/// Deterministic, so base-table placement needs no coordination and
/// survives restarts (recovery re-seeds ownership from each shard's own
/// catalog, which holds exactly the tables hashed to it).
pub fn shard_of(name: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards.max(1) as u64) as usize
}

/// Per-shard gauges (`shard{k}.queue_depth`, `shard{k}.commands`). Shared
/// between the router (increments on admit) and the executor thread
/// (decrements on dequeue, counts processed commands).
#[derive(Debug, Default)]
pub(crate) struct ShardStats {
    /// Jobs queued for (or running on) this shard's executor.
    pub queue_depth: AtomicU64,
    /// Jobs this shard's executor has dequeued over its lifetime.
    pub commands: AtomicU64,
}

impl ShardStats {
    /// Decrement the queue gauge, saturating at zero (unit tests feed jobs
    /// straight into the queue without going through the router).
    pub fn dec_queue_depth(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }
}

/// One shard's submission endpoint.
pub(crate) struct Lane {
    /// The executor's bounded job queue.
    pub tx: SyncSender<Job>,
    /// Gauges shared with the executor thread.
    pub stats: Arc<ShardStats>,
    /// Span ring shared with the executor thread (the router opens roots
    /// and answers `TRACE`; the executor records children).
    pub ring: Arc<SharedSpanRing>,
    /// This shard's WAL handle (durable servers only): the router reads the
    /// committed-LSN watermark off it to record consistent-cut vectors.
    pub wal: Option<WalHandle>,
}

/// What the ownership map knows about a name.
#[derive(Debug, Clone, Copy)]
struct Owner {
    shard: usize,
    is_view: bool,
}

/// Whether an admitted job counts into the server-wide queue gauge (client
/// commands) or only into the lane gauge (internal scatter-gather legs).
#[derive(Clone, Copy, PartialEq)]
enum Admission {
    Client,
    Internal,
}

/// Names the statements planned so far in one command created (`Some`) or
/// dropped (`None`); read before the ownership map, so a later statement
/// of the same script or BATCH resolves them as they will be by then.
type Overlay = HashMap<String, Option<Owner>>;

/// A routing-state update, applied once the shard that ran its statement
/// acknowledged it.
#[derive(Debug)]
enum Change {
    Create {
        name: String,
        is_view: bool,
    },
    Drop(String),
    /// A session's prepared statement now lives on the shard.
    Prepare {
        session: u64,
        name: String,
    },
    Deallocate {
        session: u64,
        name: String,
    },
}

/// One statement — a `;`-delimited piece of a script — as the planner
/// placed it.
struct Placed<'a> {
    /// Its source text; a two-phase-commit slice is built from these.
    sql: &'a str,
    /// The text as parsed, handed to the shard that runs it.
    stmts: Vec<Statement>,
    /// The shard owning what it touches (the first, when it touches
    /// several); `None` when it touches no known name.
    shard: Option<usize>,
    changes: Vec<Change>,
}

/// What placing one SQL text found.
struct SqlPlan<'a> {
    stmts: Vec<Placed<'a>>,
    /// Every known name the text touches, with its owner.
    names: BTreeMap<String, Owner>,
    any_write: bool,
    /// The first statement that alone touches several shards, rendered
    /// with its placement for the refusal.
    unsplittable: Option<String>,
}

impl SqlPlan<'_> {
    /// The one shard the whole text runs on (0 when it touches nothing
    /// known), or `None` when it spans shards.
    fn home(&self) -> Option<usize> {
        let shards: BTreeSet<usize> = self.names.values().map(|o| o.shard).collect();
        (shards.len() <= 1).then(|| shards.first().copied().unwrap_or(0))
    }

    /// The whole text's statements in order, moved out of its pieces.
    fn take_statements(&mut self) -> Vec<Statement> {
        self.stmts
            .iter_mut()
            .flat_map(|p| std::mem::take(&mut p.stmts))
            .collect()
    }
}

/// Where one command runs on a single shard, and — when the planner made a
/// decision worth a span of its own — the planning time in microseconds
/// and the placement detail. `parsed` holds the statements the planner
/// parsed out of the command's SQL; they travel to the shard with the job,
/// so the shard does not parse the text again.
struct Placement {
    shard: usize,
    route: Option<(u64, String)>,
    parsed: Parsed,
}

impl Placement {
    fn on(shard: usize) -> Placement {
        Placement {
            shard,
            route: None,
            parsed: Vec::new(),
        }
    }
}

/// A cross-shard read: the coordinator runs the whole command over its own
/// tables plus the ones the other shards export to it.
struct GatherPlan {
    coordinator: usize,
    exports: BTreeMap<usize, Vec<String>>,
    plan_us: u64,
    parsed: Parsed,
}

/// A cross-shard write script split per statement: each participant's
/// slice (script order kept within a shard), the changes to apply per shard
/// if the transaction commits, and the shard running the last statement,
/// whose reply is the transaction's.
struct TxnPlan {
    slices: BTreeMap<usize, Vec<String>>,
    changes: Vec<(usize, Change)>,
    last: usize,
    plan_us: u64,
}

/// How one command runs: decided once, by [`ShardRouter::plan`].
enum Route {
    /// Answered by the router itself (`TRACE`, `STATS`).
    Router,
    /// One shard, and overlappable: running the command changes nothing
    /// the next command's routing depends on.
    Lane(Placement),
    /// One shard, run synchronously. Each group of changes belongs to one
    /// BATCH statement (a QUERY script is one group) and applies once
    /// that statement is acknowledged.
    Single {
        at: Placement,
        changes: Vec<Vec<Change>>,
    },
    /// `CHECKPOINT`, on every shard.
    Broadcast,
    Gather(GatherPlan),
    Txn(TxnPlan),
    /// Refused with [`codes::CROSS_SHARD`] before anything runs.
    Refused(String),
    /// A BATCH whose statements do not share one shard: one route per
    /// statement, run in frame order.
    Split(Vec<Route>),
}

/// A command and the route [`ShardRouter::plan`] chose for it. Whatever
/// runs it consumes the route and parses nothing.
pub(crate) struct Planned {
    command: Command,
    route: Route,
}

/// A command queued on its shard by [`ShardRouter::begin`] whose reply has
/// not been collected yet. The executor's reply channel and the open root
/// span both live in here until [`ShardRouter::finish`].
pub(crate) struct InFlight {
    rx: Receiver<Reply>,
    shard: usize,
    ctx: TraceContext,
    started: Instant,
}

/// What [`ShardRouter::begin`] did with a planned command.
pub(crate) enum Begun {
    /// Queued on its shard; the reply is in flight.
    InFlight(InFlight),
    /// The command has cross-command effects (or is answered by the router
    /// itself): it is handed back with its route so the session can settle
    /// every reply it still owes and then run it with
    /// [`ShardRouter::submit`].
    Sync(Planned),
    /// The shard's queue is full right now and the caller said it has
    /// replies in flight. The command was NOT queued and is handed back:
    /// settle the oldest in-flight reply (proof the executor has freed a
    /// slot) and begin again.
    Backpressure(Planned),
}

/// Why [`ShardRouter::admit`] did not queue a job.
enum Refused {
    /// The queue stayed full for the whole wait; the job is handed back
    /// (boxed to keep the variant small).
    Full { shard: usize, job: Box<Job> },
    /// The executor thread is gone.
    Gone,
}

impl From<Refused> for (&'static str, String) {
    fn from(refused: Refused) -> Self {
        match refused {
            Refused::Full { shard, .. } => (
                codes::BUSY,
                format!(
                    "executor queue full after {} ms (shard={shard}); retry with backoff",
                    ADMISSION_WAIT.as_millis()
                ),
            ),
            Refused::Gone => (codes::INTERNAL, "executor unavailable".into()),
        }
    }
}

/// A client command's job under the open root span `ctx`, and the channel
/// its reply arrives on. `images` make it the gather leg of a cross-shard
/// read; `counted` says whether it ticks the per-verb counters — broadcasts
/// fan one client command out to every shard and must count it exactly once
/// (shard 0's leg).
fn command_job(
    session: u64,
    command: Command,
    parsed: Parsed,
    images: Option<Vec<TableImage>>,
    ctx: TraceContext,
    counted: bool,
) -> (Job, Receiver<Reply>) {
    let (reply, reply_rx) = mpsc::channel();
    let job = Job::Command {
        session,
        command,
        parsed,
        images,
        reply,
        ctx,
        enqueued: Instant::now(),
        counted,
    };
    (job, reply_rx)
}

/// Wait for an executor's answer to one queued job.
fn recv<T>(rx: &Receiver<Result<T, (&'static str, String)>>) -> Result<T, (&'static str, String)> {
    rx.recv()
        .map_err(|_| (codes::INTERNAL, "executor dropped the job".to_string()))?
}

/// The coordinator's channels to one admitted transaction participant.
struct TxnLeg {
    shard: usize,
    /// Prepare ack: the slice's last reply body, or the participant's
    /// error.
    prepared_rx: Receiver<Reply>,
    /// The verdict channel; dropping it without sending reads as abort.
    decision_tx: Sender<bool>,
    /// Apply/unwind ack.
    done_rx: Receiver<Result<(), (&'static str, String)>>,
}

/// Routes commands from shard-agnostic sessions to shard-affine executors.
pub(crate) struct ShardRouter {
    lanes: Vec<Lane>,
    /// Shared catalog map: which shard owns each table/view name.
    ownership: Mutex<HashMap<String, Owner>>,
    /// Which shard holds each prepared statement, keyed by (session, name).
    prepare_shards: Mutex<HashMap<(u64, String), usize>>,
    /// Statements routed to shard 0 because the router could not parse
    /// them.
    fallbacks: AtomicU64,
    /// Cross-shard read-only queries answered via export + gather.
    scatter_gathers: AtomicU64,
    /// Cross-shard statements refused with [`codes::CROSS_SHARD`] (a single
    /// statement spanning shards, cross-shard view reads, multi-shard
    /// PREPARE).
    cross_shard_rejects: AtomicU64,
    /// Distributed transactions committed by this router.
    txn_commits: AtomicU64,
    /// Distributed transactions aborted (prepare failure, admission
    /// failure, or decision-log failure).
    txn_aborts: AtomicU64,
    /// The coordinator's durable commit-decision log (`txn.log` beside the
    /// shard directories). `None` on volatile servers: 2PC still runs its
    /// prepare/decide/apply phases, there is just nothing to fsync.
    txn_log: Option<Mutex<TxnDecisionLog>>,
    /// Transaction-id allocator, seeded past the highest id the decision
    /// log has seen so recovered decisions can never collide with new ones.
    next_txn_id: AtomicU64,
    /// The consistent-cut gate: two-phase commits hold it exclusively,
    /// scatter-gather reads hold it shared. This is what makes cross-shard
    /// reads all-or-none with respect to cross-shard writes.
    txn_gate: RwLock<()>,
    /// Per-command query-id allocator (`q<N>` on the wire, 1-based).
    next_query_id: AtomicU64,
    metrics: Arc<Metrics>,
}

impl ShardRouter {
    /// Build a router over already-spawned lanes. `txn_log` is the durable
    /// commit-decision log for cross-shard transactions (durable multi-shard
    /// servers only).
    pub fn new(
        lanes: Vec<Lane>,
        metrics: Arc<Metrics>,
        txn_log: Option<TxnDecisionLog>,
    ) -> ShardRouter {
        assert!(!lanes.is_empty(), "a server needs at least one shard");
        let next_txn_id = txn_log.as_ref().map_or(1, |log| log.max_txn_id() + 1);
        ShardRouter {
            lanes,
            ownership: Mutex::new(HashMap::new()),
            prepare_shards: Mutex::new(HashMap::new()),
            fallbacks: AtomicU64::new(0),
            scatter_gathers: AtomicU64::new(0),
            cross_shard_rejects: AtomicU64::new(0),
            txn_commits: AtomicU64::new(0),
            txn_aborts: AtomicU64::new(0),
            txn_log: txn_log.map(Mutex::new),
            next_txn_id: AtomicU64::new(next_txn_id),
            txn_gate: RwLock::new(()),
            next_query_id: AtomicU64::new(1),
            metrics,
        }
    }

    /// Register recovered base tables as owned by `shard` (called once per
    /// shard at startup, before any session exists). Views are volatile —
    /// they are never recovered, so recovery seeding is tables only.
    pub fn seed(&self, shard: usize, names: &[String]) {
        let mut own = self.ownership.lock().expect("ownership lock");
        for name in names {
            own.insert(
                name.clone(),
                Owner {
                    shard,
                    is_view: false,
                },
            );
        }
    }

    /// Plan one client command: the one place the router decides where a
    /// command runs and the one place it parses SQL (through
    /// [`ShardRouter::place`]). On one shard there is nothing to place and
    /// no routing state to change, so nothing is parsed: every command but
    /// the router-answered `TRACE`/`STATS` and `SHUTDOWN` (kept synchronous
    /// so a draining pipeline has observed every earlier reply) is a lane
    /// command. On several shards only `QUERY`/`EXPLAIN` landing on one
    /// shard with no ownership changes, and `EXECUTE` (pinned at PREPARE
    /// time), are; DDL, scatter-gather, 2PC, broadcasts and prepare
    /// bookkeeping are not.
    pub(crate) fn plan(&self, session: u64, command: Command) -> Planned {
        let route = match &command {
            Command::Trace(_) | Command::Stats => Route::Router,
            Command::Shutdown => Route::Single {
                at: Placement::on(0),
                changes: Vec::new(),
            },
            _ if self.lanes.len() == 1 => Route::Lane(Placement::on(0)),
            Command::Query(sql) => self.route_sql(sql, false, &mut Overlay::new()),
            Command::Explain { sql, .. } => self.route_sql(sql, true, &mut Overlay::new()),
            Command::Prepare { name, sql } => self.route_prepare(session, name, sql),
            Command::Execute { name, .. } => {
                Route::Lane(Placement::on(self.prepared_shard(session, name)))
            }
            Command::Deallocate(name) => Route::Single {
                at: Placement::on(self.prepared_shard(session, name)),
                changes: vec![vec![Change::Deallocate {
                    session,
                    name: name.clone(),
                }]],
            },
            Command::Batch(stmts) => self.route_batch(stmts),
            Command::Checkpoint => Route::Broadcast,
            // Inspection scratch tables live on shard 0.
            Command::Inspect { .. } => Route::Single {
                at: Placement::on(0),
                changes: Vec::new(),
            },
        };
        Planned { command, route }
    }

    /// Take one planned command from a session. A lane command is queued on
    /// its shard and comes back [`Begun::InFlight`] — the session collects
    /// the reply later, in order, with [`ShardRouter::finish`], and
    /// meanwhile overlaps executor work with its own socket I/O. Every
    /// other route comes back [`Begun::Sync`] for [`ShardRouter::submit`].
    ///
    /// Ordering: each shard's queue is FIFO, so two commands begun on the
    /// same shard execute in submission order. Commands on *different*
    /// shards may execute concurrently — their replies still return in
    /// order, and any command whose plan spans shards comes back `Sync`,
    /// which makes the session settle everything first.
    ///
    /// Backpressure: with `patient` (the session has nothing in flight to
    /// settle) a full shard queue is waited on for up to
    /// [`ADMISSION_WAIT`] and then refused with the retryable `ERR_BUSY`;
    /// without it admission never sleeps and the command comes back
    /// [`Begun::Backpressure`], neither queued nor executed.
    pub(crate) fn begin(
        &self,
        session: u64,
        planned: Planned,
        patient: bool,
    ) -> Result<Begun, (&'static str, String)> {
        let Planned { command, route } = planned;
        let mut at = match route {
            Route::Lane(at) => at,
            route => return Ok(Begun::Sync(Planned { command, route })),
        };
        let started = Instant::now();
        let query_id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        let wait = if patient {
            ADMISSION_WAIT
        } else {
            Duration::ZERO
        };
        match self.launch(&mut at, session, command, query_id, started, wait) {
            Ok(in_flight) => Ok(Begun::InFlight(in_flight)),
            Err(Refused::Full { job, .. }) if !patient => {
                let Job::Command {
                    command, parsed, ..
                } = *job
                else {
                    unreachable!("admit hands back the job it was given")
                };
                at.parsed = parsed;
                let route = Route::Lane(at);
                Ok(Begun::Backpressure(Planned { command, route }))
            }
            Err(refused) => Err(refused.into()),
        }
    }

    /// Wait for a begun command's reply and close its root span. Every
    /// [`InFlight`] must come back through here — dropping one leaks its
    /// root span as pinned-unfinished in the shard's trace ring.
    pub(crate) fn finish(&self, in_flight: InFlight) -> Reply {
        let reply = recv(&in_flight.rx);
        self.finish_root(
            in_flight.shard,
            in_flight.ctx,
            in_flight.started,
            reply.is_ok(),
        );
        reply
    }

    /// Run one command [`ShardRouter::begin`] handed back as
    /// [`Begun::Sync`] and wait for its reply. The session has settled
    /// every reply it owed first, so whatever this command changes —
    /// ownership, prepared-statement placement, every shard's session
    /// state — is in place before the next command is routed.
    pub fn submit(&self, session: u64, Planned { command, route }: Planned) -> Reply {
        // TRACE and STATS are answered by the router itself: they are the
        // verbs that need every shard's ring or samples, and answering them
        // here keeps them out of the rings and the lane counters (neither
        // traces nor counts itself).
        if let Route::Router = route {
            return match command {
                Command::Trace(req) => self.serve_trace(req),
                _ => self.serve_stats(),
            };
        }
        let query_id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
        self.run(session, command, route, query_id, Instant::now())
    }

    /// Run one command along its route and wait for the reply.
    fn run(
        &self,
        session: u64,
        command: Command,
        route: Route,
        query_id: u64,
        started: Instant,
    ) -> Reply {
        match route {
            Route::Router => unreachable!("router-answered commands never run"),
            Route::Lane(mut at) => self.run_traced(&mut at, session, command, query_id, started),
            Route::Single { mut at, changes } => {
                let is_batch = matches!(command, Command::Batch(_));
                let reply = self.run_traced(&mut at, session, command, query_id, started);
                // A mid-batch failure leaves the earlier statements applied
                // (they are individually acknowledged); their changes must
                // land even though the frame as a whole errored.
                let applied = match &reply {
                    Ok(_) => changes.len(),
                    Err((_, msg)) if is_batch => {
                        batch_error_index(msg).map_or(0, |i| i.saturating_sub(1))
                    }
                    Err(_) => 0,
                };
                let applied = changes.into_iter().take(applied).flatten();
                self.apply_changes(applied.map(|change| (at.shard, change)));
                reply
            }
            Route::Broadcast => self.broadcast_checkpoint(session, query_id, started),
            Route::Gather(plan) => self.scatter_gather(session, command, plan, query_id, started),
            Route::Txn(plan) => self.two_phase_commit(command, plan, query_id, started),
            Route::Refused(msg) => {
                self.cross_shard_rejects.fetch_add(1, Ordering::Relaxed);
                Err((codes::CROSS_SHARD, msg))
            }
            Route::Split(routes) => {
                // Each statement runs as if the client had sent it as a
                // QUERY frame (each counts into `queries`); the first
                // failing statement stops the batch, earlier ones stand.
                let Command::Batch(stmts) = command else {
                    unreachable!("only a BATCH splits")
                };
                let total = stmts.len();
                let mut bodies = Vec::with_capacity(total);
                for (i, (sql, route)) in stmts.into_iter().zip(routes).enumerate() {
                    let stmt_id = self.next_query_id.fetch_add(1, Ordering::Relaxed);
                    let body = self
                        .run(session, Command::Query(sql), route, stmt_id, Instant::now())
                        .map_err(|(code, msg)| {
                            (code, format!("batch statement {}/{total}: {msg}", i + 1))
                        })?;
                    self.metrics
                        .batch_statements
                        .fetch_add(1, Ordering::Relaxed);
                    bodies.push(body);
                }
                Ok(bodies.join(&crate::protocol::BATCH_SEP.to_string()))
            }
        }
    }

    /// A session disconnected: drop its prepared statements on every shard.
    pub fn close_session(&self, session: u64) {
        for lane in &self.lanes {
            let _ = lane.tx.send(Job::CloseSession { session });
        }
        self.prepare_shards
            .lock()
            .expect("prepare lock")
            .retain(|(s, _), _| *s != session);
        self.metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    fn prepared_shard(&self, session: u64, name: &str) -> usize {
        self.prepare_shards
            .lock()
            .expect("prepare lock")
            .get(&(session, name.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Cut a SQL text at the lexer's `;` tokens and place each statement on
    /// the shard owning what it touches — names `overlay` says earlier
    /// statements of the same command created or dropped included — with
    /// what it changes in the ownership map. `None` (counted in
    /// `shard_fallbacks`) when the text does not parse: shard 0's engine
    /// then produces the canonical error text.
    fn place<'a>(&self, sql: &'a str, overlay: &mut Overlay) -> Option<SqlPlan<'a>> {
        let Ok(pieces) = parse_fragments(sql) else {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let n = self.lanes.len();
        let own = self.ownership.lock().expect("ownership lock");
        let mut plan = SqlPlan {
            stmts: Vec::with_capacity(pieces.len()),
            names: BTreeMap::new(),
            any_write: false,
            unsplittable: None,
        };
        for (text, stmts) in pieces {
            let mut names: BTreeMap<String, Owner> = BTreeMap::new();
            let mut changes = Vec::new();
            for deps in stmts.iter().map(statement_deps) {
                plan.any_write |= deps.is_write();
                let owner = |name: &String| match overlay.get(name) {
                    Some(known) => *known,
                    None => own.get(name).copied(),
                };
                for w in &deps.writes {
                    // A new view has no shard of its own: it lives with the
                    // tables it reads, so the owning shard can plan it.
                    let new_view = deps.creates.as_ref().is_some_and(|(c, v)| *v && c == w);
                    let hashed = Owner {
                        shard: shard_of(w, n),
                        is_view: false,
                    };
                    if let Some(o) = owner(w).or((!new_view).then_some(hashed)) {
                        names.insert(w.clone(), o);
                    }
                }
                // Unknown pure reads are ignored on purpose: the routed
                // shard's binder produces the canonical "unknown table"
                // error text, identical to a single-shard server's.
                for r in &deps.reads {
                    if let Some(o) = owner(r) {
                        names.insert(r.clone(), o);
                    }
                }
                changes.extend(
                    deps.creates
                        .map(|(name, is_view)| Change::Create { name, is_view }),
                );
                changes.extend(deps.drops.map(|(name, _)| Change::Drop(name)));
            }
            let shards: BTreeSet<usize> = names.values().map(|o| o.shard).collect();
            if shards.len() > 1 && plan.unsplittable.is_none() {
                let placement = render_placement(&names);
                plan.unsplittable = Some(format!("'{text}' alone touches {placement}"));
            }
            let shard = shards.first().copied();
            for change in &changes {
                match change {
                    Change::Create { name, is_view } => {
                        let is_view = *is_view;
                        overlay.insert(name.clone(), shard.map(|shard| Owner { shard, is_view }))
                    }
                    Change::Drop(name) => overlay.insert(name.clone(), None),
                    _ => None,
                };
            }
            plan.names.extend(names);
            plan.stmts.push(Placed {
                sql: text,
                stmts,
                shard,
                changes,
            });
        }
        Some(plan)
    }

    /// Route a `QUERY` or `EXPLAIN` text (or one BATCH statement): one
    /// shard, a scatter-gather read, a two-phase commit, or a refusal. The
    /// planning time lands on the route span.
    fn route_sql(&self, sql: &str, explain: bool, overlay: &mut Overlay) -> Route {
        let started = Instant::now();
        let plan = self.place(sql, overlay);
        let us = started.elapsed().as_micros() as u64;
        let Some(mut plan) = plan else {
            let route = Some((us, "fallback shard=0".to_string()));
            return Route::Lane(Placement {
                route,
                ..Placement::on(0)
            });
        };
        // EXPLAIN parses its own text on the shard.
        let parsed = if explain {
            Vec::new()
        } else {
            vec![Some(plan.take_statements())]
        };
        if let Some(shard) = plan.home() {
            let route = Some((us, format!("single shard={shard}")));
            let at = Placement {
                shard,
                route,
                parsed,
            };
            let changes: Vec<Change> = plan.stmts.into_iter().flat_map(|p| p.changes).collect();
            if changes.is_empty() {
                return Route::Lane(at);
            }
            let changes = vec![changes];
            return Route::Single { at, changes };
        }
        if !plan.any_write {
            return self.route_gather(&plan.names, us, parsed);
        }
        if explain {
            // EXPLAIN plans on one engine; a cross-shard write script has
            // no single planning site.
            return Route::Refused(format!(
                "EXPLAIN of a cross-shard write is unsupported: the statement touches {}; \
                 EXPLAIN each statement on its owning shard instead",
                render_placement(&plan.names)
            ));
        }
        if let Some(why) = plan.unsplittable {
            return Route::Refused(format!(
                "a cross-shard transaction splits per statement, but {why}; rewrite it to \
                 touch one shard per statement"
            ));
        }
        // A statement touching no known name runs on shard 0.
        let last = plan.stmts.last().and_then(|p| p.shard).unwrap_or(0);
        let mut slices: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        let mut changes = Vec::new();
        for Placed {
            sql,
            shard,
            changes: c,
            ..
        } in plan.stmts
        {
            let shard = shard.unwrap_or(0);
            slices.entry(shard).or_default().push(sql.to_string());
            changes.extend(c.into_iter().map(|change| (shard, change)));
        }
        Route::Txn(TxnPlan {
            slices,
            changes,
            last,
            plan_us: us,
        })
    }

    /// Route a `PREPARE`: prepared statements are pinned to one shard,
    /// recorded for the session once the shard prepared it.
    fn route_prepare(&self, session: u64, name: &str, sql: &str) -> Route {
        let shard = match self.place(sql, &mut Overlay::new()) {
            None => 0,
            Some(plan) => match plan.home() {
                Some(shard) => shard,
                None => {
                    return Route::Refused(format!(
                        "prepared statements are pinned to one shard, but this one touches {}; \
                         prepare it per shard against the tables each owns, or run it \
                         directly as QUERY (cross-shard reads scatter-gather, cross-shard \
                         writes run two-phase commit)",
                        render_placement(&plan.names)
                    ))
                }
            },
        };
        let name = name.to_string();
        Route::Single {
            at: Placement::on(shard),
            changes: vec![vec![Change::Prepare { session, name }]],
        }
    }

    /// Route a cross-shard read: the coordinator is the shard owning most
    /// of the touched names (fewest exports; ties break toward the lowest
    /// shard id), every other shard exports its tables to it.
    fn route_gather(&self, names: &BTreeMap<String, Owner>, plan_us: u64, parsed: Parsed) -> Route {
        let mut counts = vec![0usize; self.lanes.len()];
        for owner in names.values() {
            counts[owner.shard] += 1;
        }
        let coordinator = counts
            .iter()
            .enumerate()
            .max_by_key(|(shard, count)| (**count, std::cmp::Reverse(*shard)))
            .map_or(0, |(shard, _)| shard);
        let mut exports: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for (name, owner) in names.iter().filter(|(_, o)| o.shard != coordinator) {
            if owner.is_view {
                // Views have no rows to export; planning them needs the
                // owning shard's catalog. Cross-shard view reads are a
                // documented limitation (docs/SHARDING.md).
                return Route::Refused(format!(
                    "view '{name}' lives on shard{} with the tables it reads, but this query \
                     would gather on shard{coordinator} ({}); views cannot be exported — \
                     query the view alone, or join it only with tables on shard{}",
                    owner.shard,
                    render_placement(names),
                    owner.shard
                ));
            }
            exports.entry(owner.shard).or_default().push(name.clone());
        }
        Route::Gather(GatherPlan {
            coordinator,
            exports,
            plan_us,
            parsed,
        })
    }

    /// Route a `BATCH` frame. When every statement lands on the same shard
    /// the whole frame travels as **one** job: the executor runs the N
    /// statements inside a single drained batch, so under `fsync=always`
    /// the entire frame shares one group-commit window — that amortization
    /// is the point of BATCH. Otherwise every statement keeps its own
    /// route, run in frame order. Statements are planned in order against
    /// one overlay, so a name an earlier statement creates or drops
    /// resolves for the later ones as it will when they run.
    fn route_batch(&self, stmts: &[String]) -> Route {
        let started = Instant::now();
        let mut overlay = Overlay::new();
        let routes: Vec<Route> = stmts
            .iter()
            .map(|sql| self.route_sql(sql, false, &mut overlay))
            .collect();
        // The one shard every statement runs on, if there is one (an empty
        // frame runs on shard 0).
        let home = routes
            .iter()
            .map(|route| match route {
                Route::Lane(at) | Route::Single { at, .. } => Some(at.shard),
                _ => None,
            })
            .reduce(|a, b| a.filter(|shard| Some(*shard) == b))
            .unwrap_or(Some(0));
        let Some(shard) = home else {
            return Route::Split(routes);
        };
        // Each statement's parse (`None` where the router could not parse
        // it) and ownership changes, in frame order.
        let (parsed, changes) = routes
            .into_iter()
            .map(|route| match route {
                Route::Lane(mut at) => (at.parsed.pop().flatten(), Vec::new()),
                Route::Single { mut at, changes } => (
                    at.parsed.pop().flatten(),
                    changes.into_iter().flatten().collect(),
                ),
                _ => unreachable!("every statement landed on one shard"),
            })
            .unzip();
        let route = Some((
            started.elapsed().as_micros() as u64,
            format!("batch single shard={shard}"),
        ));
        Route::Single {
            at: Placement {
                shard,
                route,
                parsed,
            },
            changes,
        }
    }

    /// The one way onto a shard's queue: admit `job` within `wait`, keeping
    /// the queue gauges true. A queue still full when the wait is over
    /// hands the job back; after a real wait that is a client being
    /// refused, so it counts as a busy rejection (a zero wait refuses
    /// nothing yet — the caller retries).
    fn admit(
        &self,
        shard: usize,
        mut job: Job,
        admission: Admission,
        wait: Duration,
    ) -> Result<(), Refused> {
        let lane = &self.lanes[shard];
        if admission == Admission::Client {
            self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        }
        lane.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
        let deadline = Instant::now() + wait;
        let refused = loop {
            match lane.tx.try_send(job) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(j)) if Instant::now() < deadline => {
                    job = j;
                    thread::sleep(ADMISSION_POLL);
                }
                Err(TrySendError::Full(j)) => {
                    if !wait.is_zero() {
                        self.metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    }
                    break Refused::Full {
                        shard,
                        job: Box::new(j),
                    };
                }
                Err(TrySendError::Disconnected(_)) => break Refused::Gone,
            }
        };
        if admission == Admission::Client {
            self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
        lane.stats.dec_queue_depth();
        Err(refused)
    }

    /// Open a root span for `query_id` on `shard`'s ring; returns the
    /// context children hang under. The root is pinned (excluded from ring
    /// eviction) until [`ShardRouter::finish_root`] closes it.
    fn begin_root(&self, shard: usize, query_id: u64, command: &Command) -> TraceContext {
        let rec = SpanRecord::root(query_id, shard as u16, command.verb(), &command.summary());
        let ctx = TraceContext {
            query_id,
            parent_span: rec.id,
        };
        self.lanes[shard].ring.begin_root(rec);
        ctx
    }

    /// Record the planner's decision as the root's `route` child.
    fn record_route(&self, shard: usize, ctx: TraceContext, plan_us: u64, detail: &str) {
        self.lanes[shard].ring.record(SpanRecord::child(
            ctx,
            SpanKind::Router,
            shard as u16,
            "route",
            detail,
            plan_us,
            true,
        ));
    }

    /// Close the root span opened by [`ShardRouter::begin_root`].
    fn finish_root(&self, shard: usize, ctx: TraceContext, started: Instant, ok: bool) {
        self.lanes[shard].ring.finish_root(
            ctx.parent_span,
            started.elapsed().as_micros() as u64,
            ok,
        );
    }

    /// Open a fresh root span on the placement's shard and queue one command
    /// under it. A refused command's root is closed as failed before the
    /// refusal is returned.
    fn launch(
        &self,
        at: &mut Placement,
        session: u64,
        command: Command,
        query_id: u64,
        started: Instant,
        wait: Duration,
    ) -> Result<InFlight, Refused> {
        let shard = at.shard;
        let ctx = self.begin_root(shard, query_id, &command);
        if let Some((us, detail)) = &at.route {
            self.record_route(shard, ctx, *us, detail);
        }
        let parsed = std::mem::take(&mut at.parsed);
        let (job, rx) = command_job(session, command, parsed, None, ctx, true);
        match self.admit(shard, job, Admission::Client, wait) {
            Ok(()) => Ok(InFlight {
                rx,
                shard,
                ctx,
                started,
            }),
            Err(refused) => {
                self.finish_root(shard, ctx, started, false);
                Err(refused)
            }
        }
    }

    /// Run one command under a fresh root span on its shard and wait for
    /// its reply, within the bounded admission wait.
    fn run_traced(
        &self,
        at: &mut Placement,
        session: u64,
        command: Command,
        query_id: u64,
        started: Instant,
    ) -> Reply {
        let in_flight = self.launch(at, session, command, query_id, started, ADMISSION_WAIT)?;
        self.finish(in_flight)
    }

    /// Run a cross-shard write script as a distributed transaction: every
    /// participant shard durably stages its slice (`PREPARE`), the router
    /// fsyncs the commit verdict into the decision log, then every
    /// participant applies. The client is acknowledged only after the
    /// verdict is durable, so an acked transaction survives any single
    /// crash — recovery completes it from the prepare frames plus the
    /// decision log. A missing verdict reads as abort (presumed abort), so
    /// an unacked transaction vanishes.
    fn two_phase_commit(
        &self,
        command: Command,
        plan: TxnPlan,
        query_id: u64,
        started: Instant,
    ) -> Reply {
        let txn_id = self.next_txn_id.fetch_add(1, Ordering::Relaxed);
        // Hold the gate exclusively for the whole prepare→decide→apply
        // window: scatter-gather readers hold it shared, so a cross-shard
        // read can never observe this transaction half-applied.
        let gate = self.txn_gate.write().unwrap_or_else(|e| e.into_inner());
        let participants: Vec<usize> = plan.slices.keys().copied().collect();
        let root_shard = participants[0];
        let ctx = self.begin_root(root_shard, query_id, &command);
        let detail = format!(
            "2pc txn={txn_id} participants={participants:?} cut=[{}]",
            self.cut_vector()
        );
        self.record_route(root_shard, ctx, plan.plan_us, &detail);
        let reply = self.two_phase_commit_inner(txn_id, &plan, ctx, root_shard);
        drop(gate);
        if reply.is_ok() {
            self.txn_commits.fetch_add(1, Ordering::Relaxed);
            self.apply_changes(plan.changes);
        } else {
            self.txn_aborts.fetch_add(1, Ordering::Relaxed);
            self.metrics.exec_errors.fetch_add(1, Ordering::Relaxed);
        }
        // Participants never count Txn jobs into the per-verb metrics; the
        // transaction is one client QUERY and counts once, here.
        self.metrics.record_latency("QUERY", started.elapsed());
        if reply.is_ok() {
            self.metrics.count_verb("QUERY");
        }
        self.finish_root(root_shard, ctx, started, reply.is_ok());
        reply
    }

    /// The fallible phases of a two-phase commit, split out so the caller
    /// can close the root span and release the gate on every exit path.
    /// The reply is the body of the leg running the script's last
    /// statement — what a single-shard server answers for the script.
    fn two_phase_commit_inner(
        &self,
        txn_id: u64,
        plan: &TxnPlan,
        ctx: TraceContext,
        root_shard: usize,
    ) -> Reply {
        // Phase 1: fan each participant its slice. The executor stages the
        // statements, appends one PREPARE frame to its WAL, fsyncs, and
        // acks; it then blocks until our verdict arrives, which is what
        // keeps prepared-but-undecided state invisible to every other job
        // on that shard.
        let mut legs: Vec<TxnLeg> = Vec::new();
        for (&shard, stmts) in &plan.slices {
            let (prepared_tx, prepared_rx) = mpsc::channel();
            let (decision_tx, decision_rx) = mpsc::channel();
            let (done_tx, done_rx) = mpsc::channel();
            let job = Job::Txn {
                txn_id,
                // A newline closes a trailing `--` comment; TRACE renders
                // it as a space.
                sql: stmts.join(";\n"),
                prepared: prepared_tx,
                decision: decision_rx,
                done: done_tx,
                ctx,
                enqueued: Instant::now(),
            };
            if let Err(refused) = self.admit(shard, job, Admission::Client, ADMISSION_WAIT) {
                // This shard never saw the transaction; everyone who did
                // gets an explicit abort verdict.
                self.abort_legs(txn_id, &legs, ctx, root_shard);
                return Err(refused.into());
            }
            legs.push(TxnLeg {
                shard,
                prepared_rx,
                decision_tx,
                done_rx,
            });
        }
        let mut body = String::new();
        let mut failure: Option<(&'static str, String)> = None;
        for leg in &legs {
            match leg.prepared_rx.recv() {
                Ok(Ok(last)) if leg.shard == plan.last => body = last,
                Ok(Ok(_)) => {}
                Ok(Err(e)) => {
                    failure.get_or_insert(e);
                }
                Err(_) => {
                    failure.get_or_insert((
                        codes::INTERNAL,
                        format!("shard {} dropped the transaction", leg.shard),
                    ));
                }
            }
        }
        if let Some(e) = failure {
            self.abort_legs(txn_id, &legs, ctx, root_shard);
            return Err(e);
        }
        // Phase 2: make the commit verdict durable BEFORE any participant
        // may apply. Until this write completes, a crash anywhere aborts
        // the transaction (presumed abort); after it, recovery commits it
        // on every shard even if no participant ever hears the verdict.
        let decide_started = Instant::now();
        if let Some(log) = &self.txn_log {
            if let Err(e) = log.lock().expect("txn log lock").decide(txn_id, true) {
                self.abort_legs(txn_id, &legs, ctx, root_shard);
                return Err((
                    codes::EXEC,
                    format!("commit decision could not be made durable; transaction aborted: {e}"),
                ));
            }
        }
        self.lanes[root_shard].ring.record(SpanRecord::child(
            ctx,
            SpanKind::TxnDecision,
            root_shard as u16,
            "DECIDE",
            &format!("txn={txn_id} commit participants={}", legs.len()),
            decide_started.elapsed().as_micros() as u64,
            true,
        ));
        for leg in &legs {
            let _ = leg.decision_tx.send(true);
        }
        for leg in &legs {
            // The commit decision is durable: even if a shard failed to
            // append its COMMIT marker (it degrades to read-only), recovery
            // completes the transaction from the prepare frame plus the
            // decision log. The client ack stands either way.
            let _ = leg.done_rx.recv();
        }
        Ok(body)
    }

    /// Deliver an abort verdict to every already-admitted participant and
    /// wait until each has unwound. Presumed abort: nothing is written to
    /// the decision log — at recovery, a prepared transaction with no
    /// durable commit verdict aborts.
    fn abort_legs(&self, txn_id: u64, legs: &[TxnLeg], ctx: TraceContext, root_shard: usize) {
        self.lanes[root_shard].ring.record(SpanRecord::child(
            ctx,
            SpanKind::TxnDecision,
            root_shard as u16,
            "DECIDE",
            &format!("txn={txn_id} abort (presumed)"),
            0,
            false,
        ));
        for leg in legs {
            let _ = leg.decision_tx.send(false);
        }
        for leg in legs {
            // Legs whose prepare failed already returned (their done sender
            // is dropped); recv erroring is that, not a problem.
            let _ = leg.done_rx.recv();
        }
    }

    /// The per-shard committed-LSN watermarks, rendered `lsn0,lsn1,...`
    /// (`-` for volatile shards). Read under the transaction gate, this is
    /// the consistent cut a scatter-gather observes.
    fn cut_vector(&self) -> String {
        self.lanes
            .iter()
            .map(|l| {
                l.wal
                    .as_ref()
                    .map_or_else(|| "-".to_string(), |w| w.committed_lsn().to_string())
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Answer a cross-shard read-only query: export every foreign table to
    /// the coordinator shard, run the whole query there, drop the copies.
    /// The root span lives on the coordinator's ring; export spans land on
    /// the exporting shards' rings with the same `query_id`.
    fn scatter_gather(
        &self,
        session: u64,
        command: Command,
        plan: GatherPlan,
        query_id: u64,
        started: Instant,
    ) -> Reply {
        let coordinator = plan.coordinator;
        // Shared side of the consistent-cut gate: no two-phase commit can
        // be mid-flight anywhere while we hold this, so the exported images
        // reflect every distributed transaction entirely or not at all.
        let gate = self.txn_gate.read().unwrap_or_else(|e| e.into_inner());
        let ctx = self.begin_root(coordinator, query_id, &command);
        let detail = format!(
            "scatter-gather coordinator={coordinator} exports={} cut=[{}]",
            plan.exports.len(),
            self.cut_vector()
        );
        self.record_route(coordinator, ctx, plan.plan_us, &detail);
        let reply = self.scatter_gather_inner(session, command, plan, ctx);
        drop(gate);
        self.finish_root(coordinator, ctx, started, reply.is_ok());
        reply
    }

    /// The fallible phase of a scatter-gather, split out so the caller can
    /// close the root span on every exit path.
    fn scatter_gather_inner(
        &self,
        session: u64,
        command: Command,
        plan: GatherPlan,
        ctx: TraceContext,
    ) -> Reply {
        // Scatter: all exports run in parallel on their shard threads.
        let mut waits = Vec::with_capacity(plan.exports.len());
        for (shard, names) in plan.exports {
            let (reply, reply_rx) = mpsc::channel();
            let job = Job::ExportTables { names, reply, ctx };
            self.admit(shard, job, Admission::Internal, ADMISSION_WAIT)?;
            waits.push(reply_rx);
        }
        let mut images: Vec<TableImage> = Vec::new();
        for reply_rx in waits {
            images.extend(recv(&reply_rx)?);
        }
        self.scatter_gathers.fetch_add(1, Ordering::Relaxed);
        // Gather: the coordinator installs the images, runs the query, and
        // removes them before answering.
        let (job, rx) = command_job(session, command, plan.parsed, Some(images), ctx, true);
        self.admit(plan.coordinator, job, Admission::Client, ADMISSION_WAIT)?;
        recv(&rx)
    }

    /// Apply routing-state changes, each once the shard it names
    /// acknowledged the statement it came from.
    fn apply_changes(&self, changes: impl IntoIterator<Item = (usize, Change)>) {
        for (shard, change) in changes {
            let own = || self.ownership.lock().expect("ownership lock");
            let prepared = || self.prepare_shards.lock().expect("prepare lock");
            match change {
                Change::Create { name, is_view } => {
                    own().insert(name, Owner { shard, is_view });
                }
                Change::Drop(name) => {
                    own().remove(&name);
                }
                Change::Prepare { session, name } => {
                    prepared().insert((session, name), shard);
                }
                Change::Deallocate { session, name } => {
                    prepared().remove(&(session, name));
                }
            }
        }
    }

    /// `CHECKPOINT` runs on every shard in parallel; the per-shard summary
    /// lines are summed into one. The root span lives on shard 0's ring.
    fn broadcast_checkpoint(&self, session: u64, query_id: u64, started: Instant) -> Reply {
        let ctx = self.begin_root(0, query_id, &Command::Checkpoint);
        let reply = self.broadcast_checkpoint_inner(session, ctx);
        self.finish_root(0, ctx, started, reply.is_ok());
        reply
    }

    fn broadcast_checkpoint_inner(&self, session: u64, ctx: TraceContext) -> Reply {
        let mut waits = Vec::with_capacity(self.lanes.len());
        for shard in 0..self.lanes.len() {
            // One client CHECKPOINT counts once, not once per shard.
            let (job, rx) = command_job(
                session,
                Command::Checkpoint,
                Vec::new(),
                None,
                ctx,
                shard == 0,
            );
            self.admit(shard, job, Admission::Client, ADMISSION_WAIT)?;
            waits.push(rx);
        }
        // Every leg is waited for before the first failure is reported: the
        // root span must not close, nor the client's next command read
        // STATS, over a leg that is still queued.
        let replies: Vec<Reply> = waits.iter().map(recv).collect();
        let mut bodies = replies.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(sum_checkpoints(&bodies).unwrap_or_else(|| bodies.swap_remove(0)))
    }

    /// Answer `TRACE` from the shard rings, without an executor round-trip.
    /// The router counts the verb and its latency itself — the executors
    /// never see the command, and the rings never record it (a fresh server
    /// truthfully answers "no spans recorded").
    fn serve_trace(&self, req: TraceRequest) -> Reply {
        let started = Instant::now();
        let body = match req {
            TraceRequest::Recent(n) => {
                let mut spans: Vec<Span> = Vec::new();
                for lane in &self.lanes {
                    let held = lane.ring.len();
                    spans.extend(lane.ring.recent(held));
                }
                render_recent_roots(spans, n)
            }
            TraceRequest::Tree(query_id) => {
                let mut spans: Vec<Span> = Vec::new();
                for lane in &self.lanes {
                    spans.extend(lane.ring.spans_for_query(query_id));
                }
                render_query_tree(query_id, spans)
            }
        };
        self.metrics.record_latency("TRACE", started.elapsed());
        self.metrics.count_verb("TRACE");
        Ok(body)
    }

    /// Answer `STATS` from the collected samples, without queueing a
    /// command anywhere. Like `TRACE`, the verb counts itself only after
    /// rendering, so the body matches a `/metrics` scrape taken a moment
    /// earlier on a quiet server.
    fn serve_stats(&self) -> Reply {
        let started = Instant::now();
        let body = render_stats_text(&fold_shards(self.collect()?));
        self.metrics.record_latency("STATS", started.elapsed());
        self.metrics.count_verb("STATS");
        Ok(body)
    }

    /// The `/metrics` exposition body. The scrape counts itself *before*
    /// collecting, so the exported `metrics_scrapes` includes the serving
    /// scrape.
    pub fn prometheus_body(&self) -> Result<String, (&'static str, String)> {
        self.metrics.metrics_scrapes.fetch_add(1, Ordering::Relaxed);
        Ok(render_prometheus(&self.collect()?))
    }

    /// Collect every sample both observability surfaces render: the
    /// server's, then per shard the lane gauges and the engine's own
    /// samples (labelled `shard="k"`), then the router's counters.
    pub fn collect(&self) -> Result<Vec<Metric>, (&'static str, String)> {
        // Engine samples ride the job queue (the engine is not Send); the
        // snapshot job is uncounted so collecting does not perturb what it
        // reports. Every shard is asked before any is waited for.
        let mut waits = Vec::with_capacity(self.lanes.len());
        for lane in &self.lanes {
            let (reply, reply_rx) = mpsc::channel();
            lane.tx
                .send(Job::MetricsSnapshot { reply })
                .map_err(|_| (codes::INTERNAL, "executor unavailable".to_string()))?;
            waits.push(reply_rx);
        }
        let mut samples = self.metrics.server_samples();
        for (k, (lane, reply_rx)) in self.lanes.iter().zip(waits).enumerate() {
            let queued = lane.stats.queue_depth.load(Ordering::Relaxed);
            let commands = lane.stats.commands.load(Ordering::Relaxed);
            samples.push(sample("shard_queue_depth", queued).label("shard", k.to_string()));
            samples.push(sample("shard_commands", commands).label("shard", k.to_string()));
            samples.extend(
                reply_rx
                    .recv()
                    .map_err(|_| (codes::INTERNAL, "executor dropped the job".to_string()))?,
            );
        }
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        samples.extend([
            sample("shards", self.lanes.len() as u64),
            sample("shard_fallbacks", load(&self.fallbacks)),
            sample("shard_scatter_gather", load(&self.scatter_gathers)),
            sample("cross_shard_rejects", load(&self.cross_shard_rejects)),
            sample("txn_commits", load(&self.txn_commits)),
            sample("txn_aborts", load(&self.txn_aborts)),
        ]);
        Ok(samples)
    }
}

/// Render the most recent `n` finished **root** spans across all rings,
/// newest first (the `TRACE [n]` listing). Children are reachable via
/// `TRACE q<id>`; keeping the listing roots-only makes it a query log.
fn render_recent_roots(mut spans: Vec<Span>, n: usize) -> String {
    spans.retain(|s| s.parent == 0);
    // Per-ring seq is the finish order; the span id breaks cross-ring ties
    // (ids are process-global and allocation-ordered).
    spans.sort_by_key(|s| std::cmp::Reverse((s.seq, s.id)));
    spans.truncate(n);
    if spans.is_empty() {
        return "no spans recorded".to_string();
    }
    spans
        .iter()
        .map(Span::render)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Render one query's span tree (the `TRACE q<id>` body): a header, the
/// spans as an indented tree in id (allocation) order, per-shard time
/// attribution, and the root's total.
fn render_query_tree(query_id: u64, mut spans: Vec<Span>) -> String {
    if spans.is_empty() {
        return format!("no spans recorded for q{query_id}");
    }
    spans.sort_by_key(|s| s.id);
    let ids: HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    let mut roots: Vec<&Span> = Vec::new();
    for s in &spans {
        // Spans whose parent was evicted render at top level rather than
        // disappearing.
        if s.parent == 0 || !ids.contains(&s.parent) {
            roots.push(s);
        } else {
            children.entry(s.parent).or_default().push(s);
        }
    }
    let mut out = format!("trace q{query_id} spans={}", spans.len());
    let mut stack: Vec<(&Span, usize)> = roots.iter().rev().map(|s| (*s, 0)).collect();
    while let Some((span, depth)) = stack.pop() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
        out.push_str(&span.render());
        if let Some(kids) = children.get(&span.id) {
            for kid in kids.iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
    }
    // Per-shard attribution: executor-side work only. Queue wait is not
    // shard work, and engine phases are inside their exec span already.
    let mut per_shard: BTreeMap<u16, u64> = BTreeMap::new();
    for s in &spans {
        if matches!(
            s.kind,
            SpanKind::ShardExec
                | SpanKind::SgExport
                | SpanKind::SgInstall
                | SpanKind::SgGather
                | SpanKind::WalGroupFsync
                | SpanKind::TxnPrepare
                | SpanKind::TxnCommit
        ) {
            *per_shard.entry(s.shard).or_insert(0) += s.elapsed_us;
        }
    }
    if !per_shard.is_empty() {
        out.push_str("\nshard_us");
        for (shard, us) in &per_shard {
            out.push_str(&format!(" shard{shard}={us}"));
        }
    }
    if let Some(root) = spans
        .iter()
        .find(|s| s.parent == 0 && s.kind == SpanKind::Command)
    {
        out.push_str(&format!("\ntotal_us {}", root.elapsed_us));
    }
    out
}

/// Render a resolved placement for error messages: `a=shard0, b=shard2`.
fn render_placement(resolved: &BTreeMap<String, Owner>) -> String {
    resolved
        .iter()
        .map(|(name, owner)| format!("{name}=shard{}", owner.shard))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Sum per-shard `checkpoint tables=.. rows=.. snapshot_bytes=..
/// wal_truncated=..` summaries into one line; `None` when a body does not
/// match the expected shape.
fn sum_checkpoints(bodies: &[String]) -> Option<String> {
    let mut totals = [0u64; 4];
    for body in bodies {
        for (slot, key) in ["tables=", "rows=", "snapshot_bytes=", "wal_truncated="]
            .iter()
            .enumerate()
        {
            let value = body
                .split(key)
                .nth(1)?
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()?;
            totals[slot] += value;
        }
    }
    Some(format!(
        "checkpoint tables={} rows={} snapshot_bytes={} wal_truncated={}",
        totals[0], totals[1], totals[2], totals[3]
    ))
}

/// Test scaffolding shared by this crate's unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::executor::{self, ExecutorConfig};
    use std::path::Path;
    use std::sync::atomic::AtomicBool;
    use std::thread::JoinHandle;

    /// A router over `shards` executors built the way `start()` builds
    /// them: durable under `dir` (one `shard-{k}` subdirectory each) or
    /// volatile without. Returns the router, its server counters and the
    /// executor threads, which exit once the router is dropped.
    pub(crate) fn router_on(
        dir: Option<&Path>,
        shards: usize,
    ) -> (ShardRouter, Arc<Metrics>, Vec<JoinHandle<()>>) {
        let metrics = Arc::new(Metrics::default());
        let mut lanes = Vec::new();
        let mut recovered_per_shard = Vec::new();
        let mut joins = Vec::new();
        for shard_id in 0..shards {
            let stats = Arc::new(ShardStats::default());
            let ring = Arc::new(SharedSpanRing::new(64));
            let (tx, join, wal, recovered) = executor::spawn(
                ExecutorConfig {
                    files: Vec::new(),
                    queue_capacity: 4,
                    data_dir: dir.map(|d| d.join(format!("shard-{shard_id}"))),
                    fsync: sqlengine::FsyncPolicy::Always,
                    statement_timeout_ms: None,
                    shard_id,
                    lane: Arc::clone(&stats),
                    ring: Arc::clone(&ring),
                    txn_decisions: HashMap::new(),
                },
                Arc::clone(&metrics),
                Arc::new(AtomicBool::new(false)),
            )
            .expect("executor spawns");
            lanes.push(Lane {
                tx,
                stats,
                ring,
                wal,
            });
            recovered_per_shard.push(recovered);
            joins.push(join);
        }
        let router = ShardRouter::new(lanes, Arc::clone(&metrics), None);
        for (shard, names) in recovered_per_shard.iter().enumerate() {
            router.seed(shard, names);
        }
        (router, metrics, joins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etypes::next_span_id;

    #[test]
    fn shard_of_is_stable_and_bounded() {
        for name in ["t1", "t2", "orders", "lineitem", "a", ""] {
            let s = shard_of(name, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(name, 4), "placement must be deterministic");
        }
        assert_eq!(shard_of("anything", 1), 0);
        assert_eq!(shard_of("anything", 0), 0, "shards=0 clamps to one shard");
    }

    #[test]
    fn shard_of_spreads_names() {
        // Not a statistical test — just require that the hash is not
        // degenerate over a realistic name population.
        let mut seen = [false; 4];
        for i in 0..64 {
            seen[shard_of(&format!("table_{i}"), 4)] = true;
        }
        assert!(seen.iter().all(|s| *s), "64 names must cover 4 shards");
    }

    #[test]
    fn checkpoint_summaries_sum() {
        let bodies = vec![
            "checkpoint tables=2 rows=10 snapshot_bytes=100 wal_truncated=7".to_string(),
            "checkpoint tables=1 rows=5 snapshot_bytes=50 wal_truncated=3".to_string(),
        ];
        assert_eq!(
            sum_checkpoints(&bodies).unwrap(),
            "checkpoint tables=3 rows=15 snapshot_bytes=150 wal_truncated=10"
        );
        assert!(sum_checkpoints(&["nonsense".to_string()]).is_none());
    }

    /// A route as comparable text: its kind and where it runs.
    fn describe(route: &Route) -> String {
        match route {
            Route::Router => "router".into(),
            Route::Lane(at) => {
                let detail = at.route.as_ref().map_or("", |(_, d)| d.as_str());
                format!("lane shard={} route={detail}", at.shard)
            }
            Route::Single { at, changes } => format!("single shard={} {changes:?}", at.shard),
            Route::Broadcast => "broadcast".into(),
            Route::Gather(g) => format!("gather coordinator={} {:?}", g.coordinator, g.exports),
            Route::Txn(t) => format!("txn last={} {:?} {:?}", t.last, t.slices, t.changes),
            Route::Refused(msg) => format!("refused {msg}"),
            Route::Split(routes) => routes.iter().map(describe).collect::<Vec<_>>().join(" | "),
        }
    }

    /// One statement's expected placement: its shard and changes.
    type Statement = (Option<usize>, Vec<Change>);

    /// The planner over every route a SQL text can take: the route, and
    /// each statement's shard and ownership changes as `place` saw them.
    #[test]
    fn planner_places_each_statement_once() {
        let (router, _, joins) = testing::router_on(None, 2);
        let on = |shard: usize, skip: usize| {
            (0..64)
                .map(|i| format!("p{i}"))
                .filter(|n| shard_of(n, 2) == shard)
                .nth(skip)
                .expect("64 names cover both shards")
        };
        let (ta, tb, tv, tn, tw) = (on(0, 0), on(1, 0), on(0, 1), on(1, 1), on(1, 2));
        for t in [&ta, &tb] {
            let create = Command::Query(format!("CREATE TABLE {t} (a int)"));
            router.submit(1, router.plan(1, create)).unwrap();
        }
        let create = |name: &str, is_view| Change::Create {
            name: name.to_string(),
            is_view,
        };
        let join = format!("SELECT {ta}.a FROM {ta} INNER JOIN {tb} ON {ta}.a = {tb}.a");
        let view_join = format!("CREATE VIEW vx AS {join}");
        let mut placement = [format!("{ta}=shard0"), format!("{tb}=shard1")];
        placement.sort();
        let placement = placement.join(", ");
        let cases: Vec<(String, String, Vec<Statement>)> = vec![
            // A constant query touches nothing and runs on shard 0.
            (
                "SELECT 1".into(),
                "lane shard=0 route=single shard=0".into(),
                vec![(None, vec![])],
            ),
            (
                format!("SELECT a FROM {tb}"),
                "lane shard=1 route=single shard=1".into(),
                vec![(Some(1), vec![])],
            ),
            // A view lives with the table it reads, not where its name
            // hashes to.
            (
                format!("CREATE VIEW {tv} AS SELECT a FROM {tb}"),
                format!("single shard=1 [[Create {{ name: \"{tv}\", is_view: true }}]]"),
                vec![(Some(1), vec![create(&tv, true)])],
            ),
            // A name created earlier in the script resolves for later ones.
            (
                format!(
                    "CREATE TABLE {tn} (a int); INSERT INTO {tn} VALUES (1); SELECT a FROM {tn}"
                ),
                format!("single shard=1 [[Create {{ name: \"{tn}\", is_view: false }}]]"),
                vec![
                    (Some(1), vec![create(&tn, false)]),
                    (Some(1), vec![]),
                    (Some(1), vec![]),
                ],
            ),
            (
                join.clone(),
                format!("gather coordinator=0 {{1: [\"{tb}\"]}}"),
                vec![(Some(0), vec![])],
            ),
            (
                format!("INSERT INTO {ta} VALUES (1); INSERT INTO {tb} VALUES (2)"),
                format!(
                    "txn last=1 {{0: [\"INSERT INTO {ta} VALUES (1)\"], \
                     1: [\"INSERT INTO {tb} VALUES (2)\"]}} []"
                ),
                vec![(Some(0), vec![]), (Some(1), vec![])],
            ),
            // ... and one created earlier in a transaction, too.
            (
                format!(
                    "CREATE VIEW {tw} AS SELECT a FROM {tb}; INSERT INTO {ta} VALUES (5); \
                     SELECT a FROM {tw}"
                ),
                format!(
                    "txn last=1 {{0: [\"INSERT INTO {ta} VALUES (5)\"], \
                     1: [\"CREATE VIEW {tw} AS SELECT a FROM {tb}\", \"SELECT a FROM {tw}\"]}} \
                     [(1, Create {{ name: \"{tw}\", is_view: true }})]"
                ),
                vec![
                    (Some(1), vec![create(&tw, true)]),
                    (Some(0), vec![]),
                    (Some(1), vec![]),
                ],
            ),
            // One statement spanning shards cannot be split.
            (
                view_join.clone(),
                format!(
                    "refused a cross-shard transaction splits per statement, but '{view_join}' \
                     alone touches {placement}; rewrite it to touch one shard \
                     per statement"
                ),
                vec![(Some(0), vec![create("vx", true)])],
            ),
            // An apostrophe in a comment is not a quote: three statements,
            // each on its own table's shard.
            (
                format!(
                    "INSERT INTO {ta} VALUES (1); -- {ta}'s row\nINSERT INTO {tb} VALUES (2); \
                     INSERT INTO {ta} VALUES (3)"
                ),
                format!(
                    "txn last=0 {{0: [\"INSERT INTO {ta} VALUES (1)\", \"INSERT INTO {ta} \
                     VALUES (3)\"], 1: [\"-- {ta}'s row\\nINSERT INTO {tb} VALUES (2)\"]}} []"
                ),
                vec![(Some(0), vec![]), (Some(1), vec![]), (Some(0), vec![])],
            ),
        ];
        for (sql, route, stmts) in cases {
            let planned = router.plan(1, Command::Query(sql.clone()));
            assert_eq!(describe(&planned.route), route, "{sql}");
            let plan = router.place(&sql, &mut Overlay::new()).expect("parses");
            let placed: Vec<String> = plan
                .stmts
                .iter()
                .map(|p| format!("{:?} {:?}", p.shard, p.changes))
                .collect();
            let want: Vec<String> = stmts.iter().map(|(s, c)| format!("{s:?} {c:?}")).collect();
            assert_eq!(placed, want, "{sql}");
        }
        // Unparsable SQL falls back to shard 0, where the engine words the
        // error.
        let planned = router.plan(1, Command::Query("SELEC 1".into()));
        assert_eq!(
            describe(&planned.route),
            "lane shard=0 route=fallback shard=0"
        );
        assert!(router.place("SELEC 1", &mut Overlay::new()).is_none());
        drop(router);
        joins.into_iter().for_each(|j| j.join().unwrap());
    }

    #[test]
    fn queue_gauge_decrement_saturates() {
        let stats = ShardStats::default();
        stats.dec_queue_depth();
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 0);
        stats.queue_depth.fetch_add(2, Ordering::Relaxed);
        stats.dec_queue_depth();
        assert_eq!(stats.queue_depth.load(Ordering::Relaxed), 1);
    }

    fn span(id: u64, parent: u64, qid: u64, kind: SpanKind, shard: u16, us: u64) -> Span {
        Span {
            seq: id,
            id,
            parent,
            query_id: qid,
            kind,
            shard,
            name: "QUERY".into(),
            detail: String::new(),
            elapsed_us: us,
            ok: true,
        }
    }

    #[test]
    fn recent_roots_lists_only_roots_newest_first() {
        let spans = vec![
            span(1, 0, 1, SpanKind::Command, 0, 100),
            span(2, 1, 1, SpanKind::ShardExec, 0, 80),
            span(3, 0, 2, SpanKind::Command, 0, 50),
        ];
        let body = render_recent_roots(spans, 10);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2, "{body}");
        assert!(lines[0].contains("qid=q2"), "{body}");
        assert!(lines[1].contains("qid=q1"), "{body}");
        assert_eq!(render_recent_roots(Vec::new(), 10), "no spans recorded");
    }

    #[test]
    fn query_tree_renders_hierarchy_and_shard_attribution() {
        let spans = vec![
            span(1, 0, 7, SpanKind::Command, 1, 500),
            span(2, 1, 7, SpanKind::Router, 1, 10),
            span(3, 1, 7, SpanKind::SgExport, 2, 40),
            span(4, 1, 7, SpanKind::SgGather, 1, 300),
            span(5, 4, 7, SpanKind::EnginePhase, 1, 200),
        ];
        let body = render_query_tree(7, spans);
        assert!(body.starts_with("trace q7 spans=5"), "{body}");
        let lines: Vec<&str> = body.lines().collect();
        // The root is unindented, its children one level in, the phase two.
        assert!(lines[1].starts_with("span "), "{body}");
        assert!(lines[2].starts_with("  span "), "{body}");
        let phase_line = lines.iter().find(|l| l.contains("engine-phase")).unwrap();
        assert!(phase_line.starts_with("    span "), "{body}");
        // Shard attribution: exec kinds only, engine phases excluded.
        assert!(body.contains("shard_us shard1=300 shard2=40"), "{body}");
        assert!(body.contains("total_us 500"), "{body}");
        assert_eq!(render_query_tree(9, Vec::new()), "no spans recorded for q9");
    }

    #[test]
    fn query_tree_keeps_orphans_visible() {
        // Parent 99 is not in the set (evicted): the child renders at top
        // level instead of vanishing.
        let spans = vec![span(5, 99, 3, SpanKind::ShardExec, 0, 10)];
        let body = render_query_tree(3, spans);
        assert!(body.contains("spans=1"), "{body}");
        assert!(body.lines().nth(1).unwrap().starts_with("span "), "{body}");
        let _ = next_span_id();
    }
}
