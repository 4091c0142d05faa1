//! A blocking client for the elephant wire protocol.
//!
//! [`ElephantClient`] speaks the v1 envelope of [`crate::protocol`]:
//! simple-line frames when the command fits on one line, length-prefixed
//! otherwise, and length-prefixed `+`/`-` responses either way. Response
//! bodies come back verbatim (`query_raw` returns the CSV bytes exactly as
//! the server produced them), which is what the integration tests compare
//! byte-for-byte against the embedded engine.
//!
//! The [`wire`] submodule holds [`wire::PipelineClient`], which negotiates
//! the v2 envelope (`HELLO v2`) and keeps many requests in flight on one
//! connection. Both clients read responses with the one `read_response`.

use crate::protocol::{codes, encode_request};
use etypes::Prng;
use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// Default response timeout used by [`ElephantClient::connect`].
const DEFAULT_RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// A structured error response from the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError {
    /// Machine-readable code (`ERR_EXEC`, `ERR_OVERSIZED`, ...).
    pub code: String,
    /// Human-readable message.
    pub message: String,
}

impl ServerError {
    /// True for transient conditions worth retrying with backoff:
    /// `ERR_BUSY` (admission control refused the command) and
    /// `ERR_TIMEOUT` (the statement was cancelled by the server's
    /// statement timeout). Execution errors, read-only degradation, and
    /// protocol errors are deterministic — retrying them verbatim cannot
    /// succeed, so they are not retryable.
    pub fn is_retryable(&self) -> bool {
        self.code == codes::BUSY || self.code == codes::TIMEOUT
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.message)
    }
}

/// Client-side failure: transport trouble or a server error response.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or the response was unparsable.
    Io(io::Error),
    /// The server answered with a structured error.
    Server(ServerError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// True when the failure is a retryable server response (see
    /// [`ServerError::is_retryable`]); transport errors are not retried by
    /// [`ElephantClient::send_with_retry`] because the connection state is
    /// unknown.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Server(e) if e.is_retryable())
    }
}

/// Result alias for client calls.
pub type ClientResult<T> = Result<T, ClientError>;

/// Seeded, jittered exponential backoff for retrying transient server
/// errors (`ERR_BUSY`, `ERR_TIMEOUT`).
///
/// Attempt `k` (0-based) sleeps a uniformly random duration in
/// `[0, min(cap, base * 2^k))` — "full jitter", which decorrelates
/// competing clients hammering a saturated server. The jitter stream is
/// seeded, so a fixed seed gives a reproducible retry schedule (the chaos
/// harness depends on this).
#[derive(Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (so `1` means "never retry").
    pub attempts: u32,
    /// Backoff base; attempt `k` draws from `[0, base * 2^k)`.
    pub base: Duration,
    /// Ceiling on a single sleep.
    pub cap: Duration,
    prng: Prng,
}

impl RetryPolicy {
    /// A policy with `attempts` total tries, backoff base `base`, a 1 s
    /// sleep cap, and jitter seeded by `seed`.
    pub fn new(attempts: u32, base: Duration, seed: u64) -> RetryPolicy {
        RetryPolicy {
            attempts: attempts.max(1),
            base,
            cap: Duration::from_secs(1),
            prng: Prng::new(seed),
        }
    }

    /// The sleep before retry number `attempt` (0-based count of failures
    /// so far): uniform in `[0, min(cap, base * 2^attempt))`.
    pub fn backoff(&mut self, attempt: u32) -> Duration {
        self.backoff_salted(attempt, 0)
    }

    /// [`backoff`](RetryPolicy::backoff), with the jitter draw xor-folded
    /// with `salt`. Clients salt with the shard id reported by a busy
    /// server, so retries against *different* saturated shards decorrelate
    /// even when the clients share a seed (the chaos harness starts many
    /// clients from one seed). Salt `0` is the identity: `backoff ==
    /// backoff_salted(_, 0)`.
    pub fn backoff_salted(&mut self, attempt: u32, salt: u64) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let ceiling = exp.min(self.cap).as_micros() as u64;
        if ceiling == 0 {
            return Duration::ZERO;
        }
        let draw = self.prng.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Duration::from_micros(draw % ceiling)
    }
}

/// Pull the shard id out of a busy-server message. The router formats
/// admission failures as `executor queue full after N ms (shard=K); ...`;
/// anything else (older servers, other retryable errors) salts with 0.
fn busy_shard_salt(message: &str) -> u64 {
    let Some(idx) = message.find("shard=") else {
        return 0;
    };
    let digits: String = message[idx + "shard=".len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().unwrap_or(0)
}

/// One connection to an elephant server.
pub struct ElephantClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl ElephantClient {
    /// Connect to `addr` with the default 30 s response timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ElephantClient> {
        ElephantClient::with_timeout(addr, Some(DEFAULT_RESPONSE_TIMEOUT))
    }

    /// Connect to `addr` with an explicit response timeout; `None` waits
    /// indefinitely. A response slower than the timeout surfaces as
    /// [`ClientError::Io`] with kind `WouldBlock`/`TimedOut`.
    pub fn with_timeout(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> io::Result<ElephantClient> {
        let stream = TcpStream::connect(addr)?;
        ElephantClient::from_stream(stream, timeout)
    }

    /// Connect with a bound on the TCP connect itself (a dead host
    /// otherwise blocks for the OS default, which can be minutes) and the
    /// default response timeout. Every resolved address is tried; the last
    /// error wins.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        connect_timeout: Duration,
    ) -> io::Result<ElephantClient> {
        let mut last_err = None;
        for sock in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock, connect_timeout) {
                Ok(stream) => {
                    return ElephantClient::from_stream(stream, Some(DEFAULT_RESPONSE_TIMEOUT))
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn from_stream(stream: TcpStream, timeout: Option<Duration>) -> io::Result<ElephantClient> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(timeout)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ElephantClient {
            writer: stream,
            reader,
        })
    }

    /// Send one raw command frame and return the raw response body.
    pub fn send(&mut self, command: &str) -> ClientResult<String> {
        self.writer.write_all(encode_request(command).as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// [`send`](ElephantClient::send), retried under `policy` while the
    /// server answers with a retryable error (`ERR_BUSY`, `ERR_TIMEOUT`).
    /// Deterministic failures — execution errors, `ERR_READ_ONLY`,
    /// protocol errors — and transport errors return immediately.
    pub fn send_with_retry(
        &mut self,
        command: &str,
        policy: &mut RetryPolicy,
    ) -> ClientResult<String> {
        let mut attempt = 0u32;
        loop {
            match self.send(command) {
                Err(e) if e.is_retryable() && attempt + 1 < policy.attempts => {
                    // ERR_BUSY from a sharded server names the saturated
                    // shard; salt the jitter with it so clients retrying
                    // against different shards decorrelate.
                    let salt = match &e {
                        ClientError::Server(se) if se.code == codes::BUSY => {
                            busy_shard_salt(&se.message)
                        }
                        _ => 0,
                    };
                    let sleep = policy.backoff_salted(attempt, salt);
                    attempt += 1;
                    if !sleep.is_zero() {
                        thread::sleep(sleep);
                    }
                }
                other => return other,
            }
        }
    }

    /// Run a SQL statement; returns CSV for SELECTs, `ok <n>` otherwise.
    /// The body is returned byte-for-byte as the server produced it.
    pub fn query_raw(&mut self, sql: &str) -> ClientResult<String> {
        self.send(&format!("QUERY {sql}"))
    }

    /// Plan + cache `sql` under `name` (scoped to this connection).
    pub fn prepare(&mut self, name: &str, sql: &str) -> ClientResult<String> {
        self.send(&format!("PREPARE {name} {sql}"))
    }

    /// Execute a statement prepared on this connection; returns CSV.
    pub fn execute(&mut self, name: &str) -> ClientResult<String> {
        self.send(&format!("EXECUTE {name}"))
    }

    /// Drop a prepared statement.
    pub fn deallocate(&mut self, name: &str) -> ClientResult<String> {
        self.send(&format!("DEALLOCATE {name}"))
    }

    /// Render the optimized plan for `sql`.
    pub fn explain(&mut self, sql: &str) -> ClientResult<String> {
        self.send(&format!("EXPLAIN {sql}"))
    }

    /// Execute the query and return the plan annotated with per-operator
    /// runtime row counts and timings.
    pub fn explain_analyze(&mut self, sql: &str) -> ClientResult<String> {
        self.send(&format!("EXPLAIN ANALYZE {sql}"))
    }

    /// The most recent `n` finished root spans (server default when
    /// `None`), newest first, across every shard ring.
    pub fn trace(&mut self, n: Option<usize>) -> ClientResult<String> {
        match n {
            Some(n) => self.send(&format!("TRACE {n}")),
            None => self.send("TRACE"),
        }
    }

    /// The full correlated span tree for one query id (as printed in the
    /// `TRACE` listing and in slow-query log lines), rendered
    /// hierarchically with per-shard time attribution.
    pub fn trace_tree(&mut self, query_id: u64) -> ClientResult<String> {
        self.send(&format!("TRACE q{query_id}"))
    }

    /// Inspect an ML pipeline via the SQL backend; returns the per-check,
    /// per-operator verdict report.
    pub fn inspect(
        &mut self,
        columns: &[&str],
        threshold: f64,
        source: &str,
    ) -> ClientResult<String> {
        self.send(&format!(
            "INSPECT {} {threshold}\n{source}",
            columns.join(",")
        ))
    }

    /// Fetch server + engine counters as `key value` lines.
    pub fn stats(&mut self) -> ClientResult<String> {
        self.send("STATS")
    }

    /// Snapshot all tables and truncate the WAL; errors on volatile servers.
    pub fn checkpoint(&mut self) -> ClientResult<String> {
        self.send("CHECKPOINT")
    }

    /// Replication topology: role, followers, shipped bytes, watermarks.
    pub fn replica(&mut self) -> ClientResult<String> {
        self.send("REPLICA")
    }

    /// Replication watermarks (`committed_lsn` on leaders, `applied_lsn` /
    /// `leader_lsn` on followers) as `key value` lines.
    pub fn lag(&mut self) -> ClientResult<String> {
        self.send("LAG")
    }

    /// Ask the server to drain; returns `draining`.
    pub fn shutdown(&mut self) -> ClientResult<String> {
        self.send("SHUTDOWN")
    }

    /// Parse one `key value` line out of a `LAG`/`REPLICA`/`STATS` body.
    pub fn parse_watermark(body: &str, key: &str) -> Option<u64> {
        body.lines().find_map(|line| {
            let (k, v) = line.split_once(' ')?;
            (k == key).then(|| v.trim().parse().ok())?
        })
    }

    fn read_response(&mut self) -> ClientResult<String> {
        match read_response(&mut self.reader)? {
            (None, result) => result.map_err(ClientError::Server),
            (Some(seq), _) => Err(invalid(format!(
                "v2 response (seq {seq}) on a v1 connection"
            ))),
        }
    }
}

fn invalid(what: String) -> ClientError {
    ClientError::Io(io::Error::new(io::ErrorKind::InvalidData, what))
}

/// Parse a response status line — `(+|-)<len>` on v1, `(+|-|*)<seq> <len>`
/// on v2 — into `(kind, seq, len)`.
fn parse_status(line: &str) -> ClientResult<(u8, Option<u64>, usize)> {
    let bad = || invalid(format!("bad status line '{line}'"));
    let kind = *line.as_bytes().first().ok_or_else(bad)?;
    if !matches!(kind, b'+' | b'-' | b'*') {
        return Err(bad());
    }
    let (seq, len) = match line[1..].split_once(' ') {
        Some((seq, len)) => (Some(seq.parse().map_err(|_| bad())?), len),
        None => (None, &line[1..]),
    };
    Ok((kind, seq, len.parse().map_err(|_| bad())?))
}

/// Read the next response in wire order, in either envelope: the sequence
/// id it carries (`None` on v1) and the body or the server's structured
/// error. Stream chunks are reassembled into one body (and checked against
/// the trailer) before returning.
fn read_response(
    reader: &mut impl BufRead,
) -> ClientResult<(Option<u64>, Result<String, ServerError>)> {
    let utf8 = |bytes: Vec<u8>| {
        String::from_utf8(bytes).map_err(|_| invalid("response body is not UTF-8".into()))
    };
    let mut streamed: Vec<u8> = Vec::new();
    loop {
        let mut status = String::new();
        loop {
            match reader.read_line(&mut status) {
                Ok(0) => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    )))
                }
                Ok(_) if status.ends_with('\n') => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ClientError::Io(e)),
            }
        }
        let (kind, seq, len) = parse_status(status.trim_end())?;
        let mut body = vec![0u8; len + 1];
        reader.read_exact(&mut body)?;
        body.pop(); // trailing newline
        match kind {
            b'*' => streamed.extend_from_slice(&body),
            b'+' if streamed.is_empty() => return Ok((seq, Ok(utf8(body)?))),
            b'+' => {
                // Trailer after a chunked stream: verify the byte count,
                // then hand back the reassembled body.
                let trailer = utf8(body)?;
                let declared = trailer
                    .strip_prefix("stream bytes=")
                    .and_then(|r| r.split_whitespace().next())
                    .and_then(|n| n.parse::<usize>().ok());
                if declared != Some(streamed.len()) {
                    return Err(invalid(format!(
                        "stream trailer '{trailer}' does not match {} received bytes",
                        streamed.len()
                    )));
                }
                return Ok((seq, Ok(utf8(streamed)?)));
            }
            _ => {
                let body = String::from_utf8_lossy(&body);
                let (code, message) = body.split_once(' ').unwrap_or((body.as_ref(), ""));
                let error = ServerError {
                    code: code.to_string(),
                    message: message.to_string(),
                };
                return Ok((seq, Err(error)));
            }
        }
    }
}

/// A topology-aware client: writes go to the leader, reads round-robin
/// across follower replicas, and a follower that refuses a statement with
/// `ERR_READ_ONLY` (or is simply unreachable) gets transparently redirected
/// to the leader — the caller never sees replica plumbing.
///
/// Replication is asynchronous, so a follower read may trail the leader.
/// [`read_at_lsn`](ReplicatedClient::read_at_lsn) bounds that staleness:
/// it polls the follower's `LAG` watermark until the follower has applied
/// at least a target LSN (usually the leader's `committed_lsn` right after
/// a write), falling back to the leader if the follower cannot catch up in
/// time.
pub struct ReplicatedClient {
    leader: ElephantClient,
    followers: Vec<ElephantClient>,
    next_follower: usize,
}

impl ReplicatedClient {
    /// Connect to the leader and every follower, each within
    /// `connect_timeout`. A follower that cannot be reached at connect time
    /// is an error — topology should be explicit, not silently thinner.
    pub fn connect(
        leader_addr: &str,
        follower_addrs: &[String],
        connect_timeout: Duration,
    ) -> io::Result<ReplicatedClient> {
        let leader = ElephantClient::connect_with_timeout(leader_addr, connect_timeout)?;
        let followers = follower_addrs
            .iter()
            .map(|a| ElephantClient::connect_with_timeout(a.as_str(), connect_timeout))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(ReplicatedClient {
            leader,
            followers,
            next_follower: 0,
        })
    }

    /// Number of follower connections reads are spread over.
    pub fn follower_count(&self) -> usize {
        self.followers.len()
    }

    /// The leader connection, for commands that must not be routed
    /// (CHECKPOINT, SHUTDOWN, leader STATS).
    pub fn leader(&mut self) -> &mut ElephantClient {
        &mut self.leader
    }

    /// Run a write statement on the leader; returns `ok <n>`.
    pub fn write(&mut self, sql: &str) -> ClientResult<String> {
        self.leader.query_raw(sql)
    }

    /// Run a read statement on the next follower (round-robin), falling
    /// back through the remaining followers and finally the leader when a
    /// follower is unreachable or refuses with `ERR_READ_ONLY` (a write
    /// routed here by mistake).
    pub fn read(&mut self, sql: &str) -> ClientResult<String> {
        self.route_read(&format!("QUERY {sql}"))
    }

    /// `EXPLAIN` on a follower — plans are part of the replicated surface.
    pub fn explain(&mut self, sql: &str) -> ClientResult<String> {
        self.route_read(&format!("EXPLAIN {sql}"))
    }

    /// The leader's committed-LSN watermark: the replication target a
    /// bounded-staleness read should wait for.
    pub fn leader_committed_lsn(&mut self) -> ClientResult<u64> {
        let body = self.leader.lag()?;
        ElephantClient::parse_watermark(&body, "committed_lsn").ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("no committed_lsn in LAG body: {body}"),
            ))
        })
    }

    /// Bounded-staleness read: wait (up to `wait`) for a follower to apply
    /// at least `target_lsn`, then read from it. If no follower catches up
    /// in time the read runs on the leader, which is never stale.
    pub fn read_at_lsn(
        &mut self,
        sql: &str,
        target_lsn: u64,
        wait: Duration,
    ) -> ClientResult<String> {
        let deadline = std::time::Instant::now() + wait;
        if !self.followers.is_empty() {
            let idx = self.next_follower % self.followers.len();
            self.next_follower = self.next_follower.wrapping_add(1);
            loop {
                let applied = self.followers[idx]
                    .lag()
                    .ok()
                    .and_then(|body| ElephantClient::parse_watermark(&body, "applied_lsn"));
                match applied {
                    Some(applied) if applied >= target_lsn => {
                        return match self.followers[idx].query_raw(sql) {
                            Err(ClientError::Server(e)) if e.code == codes::READ_ONLY => {
                                self.leader.query_raw(sql)
                            }
                            other => other,
                        };
                    }
                    // Unreachable follower: stop polling a dead socket.
                    None => break,
                    Some(_) if std::time::Instant::now() >= deadline => break,
                    Some(_) => thread::sleep(Duration::from_millis(2)),
                }
            }
        }
        self.leader.query_raw(sql)
    }

    fn route_read(&mut self, command: &str) -> ClientResult<String> {
        for _ in 0..self.followers.len() {
            let idx = self.next_follower % self.followers.len();
            self.next_follower = self.next_follower.wrapping_add(1);
            match self.followers[idx].send(command) {
                Ok(body) => return Ok(body),
                // A write mis-routed to a replica: the leader owns it.
                Err(ClientError::Server(e)) if e.code == codes::READ_ONLY => {
                    return self.leader.send(command)
                }
                Err(ClientError::Server(e)) => return Err(ClientError::Server(e)),
                // Transport trouble: try the next follower.
                Err(ClientError::Io(_)) => continue,
            }
        }
        self.leader.send(command)
    }
}

pub mod wire {
    //! Client side of the pipelined v2 wire protocol.
    //!
    //! [`PipelineClient`] upgrades a fresh connection with `HELLO v2` and
    //! then speaks sequence-tagged frames (`@seq len` requests, `+`/`-`
    //! responses, `*` stream chunks — see [`crate::protocol`]). Unlike
    //! [`ElephantClient`](super::ElephantClient), which is strictly
    //! request/response, this client separates *writing* commands from
    //! *reading* their results: [`pipeline`](PipelineClient::pipeline)
    //! writes a whole batch of frames before reading the first response,
    //! so one round trip covers the entire batch instead of one command.
    //!
    //! Responses are matched back to commands by sequence id, and the
    //! server guarantees response order equals request order, so a
    //! pipeline's results come back positionally. Streamed responses
    //! (`*` chunks ending in a `stream bytes=.. chunks=..` trailer) are
    //! reassembled transparently — callers always see the full body.

    use super::{busy_shard_salt, invalid, ClientError, ClientResult, ServerError};
    use crate::protocol::{codes, encode_request, BATCH_SEP};
    use crate::RetryPolicy;
    use std::io::{self, BufReader, BufWriter, Write};
    use std::net::{TcpStream, ToSocketAddrs};
    use std::thread;
    use std::time::Duration;

    /// Default response timeout, matching [`super::ElephantClient`].
    const DEFAULT_RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

    /// A v2 connection with pipelining: queue many commands, then read
    /// their responses in order.
    pub struct PipelineClient {
        writer: BufWriter<TcpStream>,
        reader: BufReader<TcpStream>,
        next_seq: u64,
    }

    impl PipelineClient {
        /// Connect to `addr` and negotiate v2 with the default 30 s
        /// response timeout. Fails with `InvalidData` if the server does
        /// not acknowledge `HELLO v2`.
        pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelineClient> {
            PipelineClient::with_timeout(addr, Some(DEFAULT_RESPONSE_TIMEOUT))
        }

        /// Connect with an explicit response timeout (`None` waits
        /// indefinitely) and negotiate v2.
        pub fn with_timeout(
            addr: impl ToSocketAddrs,
            timeout: Option<Duration>,
        ) -> io::Result<PipelineClient> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(timeout)?;
            let mut reader = BufReader::new(stream.try_clone()?);
            let mut writer = BufWriter::new(stream);

            // The handshake rides on v1 framing: request `HELLO v2`,
            // expect `+2\nv2\n`.
            writer.write_all(encode_request("HELLO v2").as_bytes())?;
            writer.flush()?;
            let answer = match super::read_response(&mut reader) {
                Ok((_, answer)) => answer,
                Err(ClientError::Io(e)) => return Err(e),
                Err(ClientError::Server(e)) => Err(e),
            };
            if answer.as_deref() != Ok("v2") {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server refused v2 handshake: {answer:?}"),
                ));
            }
            Ok(PipelineClient {
                writer,
                reader,
                next_seq: 0,
            })
        }

        /// Queue one command frame without flushing or reading; returns the
        /// sequence id the response will carry. Pair with
        /// [`flush`](PipelineClient::flush) and
        /// [`read_response`](PipelineClient::read_response).
        pub fn enqueue(&mut self, command: &str) -> io::Result<u64> {
            self.next_seq += 1;
            let seq = self.next_seq;
            write!(self.writer, "@{seq} {}\n{command}\n", command.len())?;
            Ok(seq)
        }

        /// Flush every queued frame to the socket.
        pub fn flush(&mut self) -> io::Result<()> {
            self.writer.flush()
        }

        /// Read the next response in wire order: `(seq, result)`. Stream
        /// chunks are reassembled into one body before returning.
        pub fn read_response(&mut self) -> ClientResult<(u64, Result<String, ServerError>)> {
            match super::read_response(&mut self.reader)? {
                (Some(seq), result) => Ok((seq, result)),
                (None, _) => Err(invalid("v1 response on a v2 connection".into())),
            }
        }

        /// Send one command and wait for its response — v2's equivalent of
        /// [`ElephantClient::send`](super::ElephantClient::send).
        pub fn send(&mut self, command: &str) -> ClientResult<String> {
            let seq = self.enqueue(command)?;
            self.flush()?;
            let (got, result) = self.read_response()?;
            if got != seq {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response seq {got} does not match request seq {seq}"),
                )));
            }
            result.map_err(ClientError::Server)
        }

        /// Write every command, flush once, then read every response. The
        /// returned vector is positional: `results[i]` answers
        /// `commands[i]`. Transport failures abort the whole pipeline;
        /// per-command server errors land in their slot.
        pub fn pipeline<S: AsRef<str>>(
            &mut self,
            commands: &[S],
        ) -> ClientResult<Vec<Result<String, ServerError>>> {
            let mut seqs = Vec::with_capacity(commands.len());
            for command in commands {
                seqs.push(self.enqueue(command.as_ref())?);
            }
            self.flush()?;
            let mut results = Vec::with_capacity(commands.len());
            for &seq in &seqs {
                let (got, result) = self.read_response()?;
                if got != seq {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response seq {got} does not match request seq {seq}"),
                    )));
                }
                results.push(result);
            }
            Ok(results)
        }

        /// [`pipeline`](PipelineClient::pipeline) with
        /// [`RetryPolicy`] semantics preserved: commands answered with a
        /// retryable error (`ERR_BUSY`, `ERR_TIMEOUT`) are re-pipelined —
        /// and *only* those commands; everything already acknowledged
        /// keeps its first result. Jitter is salted with the shard id a
        /// busy server names, exactly like
        /// [`ElephantClient::send_with_retry`](super::ElephantClient::send_with_retry).
        pub fn pipeline_with_retry<S: AsRef<str>>(
            &mut self,
            commands: &[S],
            policy: &mut RetryPolicy,
        ) -> ClientResult<Vec<Result<String, ServerError>>> {
            let mut results: Vec<Option<Result<String, ServerError>>> =
                (0..commands.len()).map(|_| None).collect();
            let mut pending: Vec<usize> = (0..commands.len()).collect();
            let mut attempt = 0u32;
            loop {
                let round: Vec<&str> = pending.iter().map(|&i| commands[i].as_ref()).collect();
                let answers = self.pipeline(&round)?;
                let mut still = Vec::new();
                let mut salt = 0u64;
                for (&idx, answer) in pending.iter().zip(answers) {
                    match answer {
                        Err(e) if e.is_retryable() && attempt + 1 < policy.attempts => {
                            if e.code == codes::BUSY {
                                salt = busy_shard_salt(&e.message);
                            }
                            results[idx] = Some(Err(e));
                            still.push(idx);
                        }
                        other => results[idx] = Some(other),
                    }
                }
                if still.is_empty() {
                    break;
                }
                let sleep = policy.backoff_salted(attempt, salt);
                attempt += 1;
                if !sleep.is_zero() {
                    thread::sleep(sleep);
                }
                pending = still;
            }
            Ok(results
                .into_iter()
                .map(|r| r.expect("slot filled"))
                .collect())
        }

        /// Run many SQL statements as one `BATCH` frame; returns the
        /// per-statement bodies in order. A mid-batch failure surfaces as
        /// the server's `batch statement i/k: ...` error.
        pub fn batch<S: AsRef<str>>(&mut self, statements: &[S]) -> ClientResult<Vec<String>> {
            let sep = BATCH_SEP.to_string();
            let joined = statements
                .iter()
                .map(|s| s.as_ref())
                .collect::<Vec<_>>()
                .join(&sep);
            let body = self.send(&format!("BATCH {joined}"))?;
            Ok(body.split(BATCH_SEP).map(str::to_string).collect())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse() {
        let ok = |line| parse_status(line).unwrap();
        assert_eq!(ok("+12"), (b'+', None, 12));
        assert_eq!(ok("-0"), (b'-', None, 0));
        assert_eq!(ok("+7 12"), (b'+', Some(7), 12));
        assert_eq!(ok("-3 0"), (b'-', Some(3), 0));
        assert_eq!(ok("*19 65536"), (b'*', Some(19), 65536));
        for bad in ["", "+", "+x", "+x 3", "+3 x", "?3 4", "+3  4 5x"] {
            assert!(parse_status(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn backoff_salt_zero_is_identity() {
        let mut plain = RetryPolicy::new(5, Duration::from_millis(10), 42);
        let mut salted = RetryPolicy::new(5, Duration::from_millis(10), 42);
        for attempt in 0..4 {
            assert_eq!(plain.backoff(attempt), salted.backoff_salted(attempt, 0));
        }
    }

    #[test]
    fn backoff_salts_diverge_but_stay_deterministic() {
        // Same seed, different shard salts: the schedules must differ
        // (that is the point of salting) yet each schedule must be
        // reproducible from (seed, salt).
        let schedule = |salt: u64| -> Vec<Duration> {
            let mut p = RetryPolicy::new(8, Duration::from_millis(10), 7);
            (0..6).map(|a| p.backoff_salted(a, salt)).collect()
        };
        assert_eq!(schedule(1), schedule(1), "salted schedule must be stable");
        assert_ne!(schedule(1), schedule(2), "different salts must decorrelate");
        assert_ne!(schedule(0), schedule(3));
    }

    #[test]
    fn busy_shard_salt_parses_router_message() {
        assert_eq!(
            busy_shard_salt("executor queue full after 250 ms (shard=3); retry with backoff"),
            3
        );
        assert_eq!(
            busy_shard_salt("executor queue full; retry with backoff"),
            0
        );
        assert_eq!(busy_shard_salt("shard=17"), 17);
        assert_eq!(busy_shard_salt("shard=x"), 0);
    }
}
