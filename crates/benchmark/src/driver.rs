//! What every workload shares: the timed connection, the per-connection
//! recorder (round and class latencies, operation counts, client spans,
//! sampled server trace trees) and the closed-loop phase runner.

use crate::stats::{parse_spans, ServerSpan};
use elephant_server::{ElephantClient, PipelineClient};
use std::collections::BTreeMap;
use std::thread;
use std::time::{Duration, Instant};

/// Verbs whose root spans are workload commands (not `STATS`/`TRACE`).
const TRACED_VERBS: &[&str] = &["QUERY", "EXECUTE", "BATCH", "INSPECT", "CHECKPOINT"];

/// How many of the newest root spans a listing asks for: a command leaves
/// about nine spans and a shard's ring keeps 512, so older roots may have
/// lost their children already.
const LISTING_DEPTH: usize = 40;

/// Failure messages kept per recorder; the count is kept in full.
const KEPT_FAILURES: usize = 5;

/// A v2 connection that also accounts the time spent writing requests —
/// the only client-side wire time visible without opening the client up.
pub struct Conn {
    inner: PipelineClient,
    pub write_s: f64,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let inner = PipelineClient::with_timeout(addr, Some(Duration::from_secs(60)))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Conn {
            inner,
            write_s: 0.0,
        })
    }

    /// One command, one reply. `Err` carries the server's `ERR_*` text or
    /// the transport error.
    pub fn send(&mut self, command: &str) -> Result<String, String> {
        let mut replies = self.pipeline(std::slice::from_ref(&command))?;
        replies.pop().expect("one reply per command")
    }

    /// Write every command, flush once, read every reply in order.
    pub fn pipeline<S: AsRef<str>>(
        &mut self,
        commands: &[S],
    ) -> Result<Vec<Result<String, String>>, String> {
        let started = Instant::now();
        let mut seqs = Vec::with_capacity(commands.len());
        for command in commands {
            seqs.push(
                self.inner
                    .enqueue(command.as_ref())
                    .map_err(|e| e.to_string())?,
            );
        }
        self.inner.flush().map_err(|e| e.to_string())?;
        self.write_s += started.elapsed().as_secs_f64();
        let mut replies = Vec::with_capacity(seqs.len());
        for seq in seqs {
            let (got, reply) = self.inner.read_response().map_err(|e| e.to_string())?;
            if got != seq {
                return Err(format!("reply seq {got} answers request seq {seq}"));
            }
            replies.push(reply.map_err(|e| e.to_string()));
        }
        Ok(replies)
    }

    /// Many statements in one `BATCH` frame; one body per statement.
    pub fn batch(&mut self, statements: &[String]) -> Result<Vec<String>, String> {
        self.inner.batch(statements).map_err(|e| e.to_string())
    }
}

/// Operation counts of one connection over one phase. An operation is one
/// command and its checked reply; an oracle mismatch, an `ERR_*` reply or a
/// transport error is a failed operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Row units completed (the workload's own unit).
    pub rows: u64,
    /// Free-form sums a workload wants reported (bytes fetched, WAL bytes
    /// truncated by its checkpoints, …).
    sums: BTreeMap<&'static str, f64>,
    failures: Vec<String>,
}

impl Ops {
    pub fn ok(&mut self, rows: u64) {
        self.attempted += 1;
        self.rows += rows;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    /// Count one operation by its verdict.
    pub fn check(&mut self, rows: u64, verdict: Result<(), String>) {
        match verdict {
            Ok(()) => self.ok(rows),
            Err(why) => self.fail(why),
        }
    }

    pub fn add(&mut self, key: &'static str, amount: f64) {
        *self.sums.entry(key).or_insert(0.0) += amount;
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `n` operations lost to one transport-level failure.
    pub fn fail_all(&mut self, n: u64, why: String) {
        for _ in 0..n {
            self.fail(why.clone());
        }
    }
}

/// A span recorded by the benchmark around a call into the server.
pub struct ClientSpan {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
    pub round: u64,
    pub worker: usize,
}

/// Samples server-side span trees over an admin connection.
struct Tracer {
    admin: ElephantClient,
    every: u64,
    trees: BTreeMap<u64, Vec<ServerSpan>>,
}

impl Tracer {
    /// Fetch the tree of every `every`-th command (by the router's own
    /// query ids) among the newest `commands` roots.
    fn sample(&mut self, commands: usize) -> Result<(), String> {
        let depth = commands.clamp(1, LISTING_DEPTH);
        let listing = self.admin.trace(Some(depth)).map_err(|e| e.to_string())?;
        for root in parse_spans(&listing) {
            let wanted = TRACED_VERBS.contains(&root.name.as_str())
                && root.qid % self.every == 0
                && !self.trees.contains_key(&root.qid);
            if wanted {
                let tree = self.admin.trace_tree(root.qid).map_err(|e| e.to_string())?;
                self.trees.insert(root.qid, parse_spans(&tree));
            }
        }
        Ok(())
    }
}

/// Everything one connection measured during one phase.
pub struct Recorder {
    pub worker: usize,
    pub rounds_ms: Vec<f64>,
    pub classes: BTreeMap<&'static str, Vec<f64>>,
    pub ops: Ops,
    pub spans: Vec<ClientSpan>,
    pub wall_s: f64,
    tracer: Option<Tracer>,
    epoch: Instant,
    round: u64,
    round_span: u64,
    next_span: u64,
}

impl Recorder {
    /// `epoch` is the zero of this recorder's span timestamps.
    pub fn new(worker: usize, epoch: Instant) -> Recorder {
        Recorder {
            worker,
            rounds_ms: Vec::new(),
            classes: BTreeMap::new(),
            ops: Ops::default(),
            spans: Vec::new(),
            wall_s: 0.0,
            tracer: None,
            epoch,
            round: 0,
            round_span: 0,
            next_span: (worker as u64) << 32,
        }
    }

    /// Turn on span recording and server-tree sampling for this phase.
    pub fn traced(mut self, addr: &str, every: u64) -> Result<Recorder, String> {
        let admin = ElephantClient::connect(addr).map_err(|e| format!("admin connect: {e}"))?;
        self.tracer = Some(Tracer {
            admin,
            every: every.max(1),
            trees: BTreeMap::new(),
        });
        Ok(self)
    }

    /// The sampled server trees, by query id.
    pub fn trees(&self) -> impl Iterator<Item = (&u64, &Vec<ServerSpan>)> {
        self.tracer.iter().flat_map(|t| t.trees.iter())
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn span_id(&mut self) -> u64 {
        self.next_span += 1;
        self.next_span
    }

    /// Time one round (the workload's classes once, in fixed order).
    fn round(&mut self, index: u64, body: impl FnOnce(&mut Recorder)) {
        self.round = index;
        self.round_span = self.span_id();
        let (id, start_us, started) = (self.round_span, self.now_us(), Instant::now());
        body(self);
        self.rounds_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if self.tracer.is_some() {
            self.spans.push(ClientSpan {
                id,
                parent: 0,
                name: "round",
                start_us,
                end_us: self.now_us(),
                round: index,
                worker: self.worker,
            });
        }
    }

    /// Time one operation class of the current round. `commands` is how
    /// many commands the class sends, which sizes the trace listing.
    pub fn class(&mut self, name: &'static str, commands: usize, body: impl FnOnce(&mut Ops)) {
        let (start_us, started) = (self.now_us(), Instant::now());
        body(&mut self.ops);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.classes.entry(name).or_default().push(ms);
        if self.tracer.is_none() {
            return;
        }
        let span = ClientSpan {
            id: self.span_id(),
            parent: self.round_span,
            name,
            start_us,
            end_us: self.now_us(),
            round: self.round,
            worker: self.worker,
        };
        self.spans.push(span);
        // Sampling sits outside the class time but inside the round, so the
        // traced run's throughput carries its cost.
        if let Some(Err(why)) = self.tracer.as_mut().map(|t| t.sample(commands)) {
            self.ops.fail(format!("trace sampling: {why}"));
        }
    }
}

/// One measured connection: its own closed loop over the workload's round.
pub trait Worker: Send {
    /// Run round `index`; inputs depend only on the seed, the worker and
    /// the index.
    fn round(&mut self, index: u64, rec: &mut Recorder);

    /// Tables this worker writes, with the rows the server has
    /// acknowledged in each since it was last recreated.
    fn ledger(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// Seconds this worker's connection spent writing requests.
    fn write_s(&self) -> f64;
}

/// When a phase ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Warm-up: after this many rounds.
    AfterRounds(u64),
    /// Measurement: once `limit` has passed; a round in flight finishes and
    /// at least one runs, so every class has a sample. The smoke pass also
    /// caps the rounds.
    AfterTime {
        limit: Duration,
        round_cap: Option<u64>,
    },
}

/// Run one phase: every worker loops rounds `first..` on its own thread
/// until `stop`. Returns one recorder per worker and the phase's wall time
/// (common start to last finish).
pub fn run_phase(
    workers: &mut [Box<dyn Worker>],
    first: u64,
    stop: Stop,
    mut make_recorder: impl FnMut(usize) -> Result<Recorder, String>,
) -> Result<(Vec<Recorder>, f64), String> {
    let mut recorders = Vec::with_capacity(workers.len());
    for i in 0..workers.len() {
        recorders.push(make_recorder(i)?);
    }
    let started = Instant::now();
    thread::scope(|scope| {
        for (worker, rec) in workers.iter_mut().zip(recorders.iter_mut()) {
            scope.spawn(move || {
                let mut index = first;
                loop {
                    let done = index - first;
                    let finished = match stop {
                        Stop::AfterRounds(n) => done >= n,
                        Stop::AfterTime { limit, round_cap } => {
                            (done > 0 && started.elapsed() >= limit)
                                || round_cap.is_some_and(|cap| done >= cap)
                        }
                    };
                    if finished {
                        break;
                    }
                    rec.round(index, |rec| worker.round(index, rec));
                    index += 1;
                }
                rec.wall_s = started.elapsed().as_secs_f64();
            });
        }
    });
    Ok((recorders, started.elapsed().as_secs_f64()))
}

/// Times in-process probes of single layers, one span per call.
pub struct Probes {
    epoch: Instant,
    pub spans: Vec<ClientSpan>,
}

impl Probes {
    pub fn new(epoch: Instant) -> Probes {
        Probes {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Median wall time of `body` over `reps` calls, in milliseconds.
    pub fn time_ms(&mut self, name: &'static str, reps: usize, mut body: impl FnMut()) -> f64 {
        let mut samples = Vec::with_capacity(reps.max(1));
        for rep in 0..reps.max(1) {
            let start_us = self.epoch.elapsed().as_micros() as u64;
            let started = Instant::now();
            body();
            samples.push(started.elapsed().as_secs_f64() * 1e3);
            self.spans.push(ClientSpan {
                id: (1 << 48) + self.spans.len() as u64,
                parent: 0,
                name,
                start_us,
                end_us: self.epoch.elapsed().as_micros() as u64,
                round: rep as u64,
                worker: 0,
            });
        }
        crate::stats::median(&samples)
    }
}
