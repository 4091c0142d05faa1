//! Per-connection session threads: the one serving loop, for both wire
//! envelopes.
//!
//! A session owns one TCP connection: it reads frames
//! ([`crate::protocol::FrameReader`]), parses commands, and hands them to
//! the [`ShardRouter`], which owns admission control and table-affine
//! routing — sessions are shard-agnostic. Protocol-level failures (unknown
//! verb, malformed or oversized frame) are answered with a structured error
//! and the connection stays open; only transport errors, a desynchronized
//! v2 stream and a dead executor end the session.
//!
//! The loop **overlaps** executor work with its own socket I/O: every
//! command is planned once ([`ShardRouter::plan`]), and one whose route has
//! no cross-command effects is queued on its shard without waiting
//! ([`ShardRouter::begin`]) while the session keeps a FIFO of
//! owed replies, answered strictly in request order — so while the executor
//! runs command *n*, the session is already parsing and submitting *n+1*.
//! Commands that do have cross-command effects (DDL, PREPARE, broadcasts,
//! cross-shard plans) first settle the FIFO and then run synchronously
//! ([`ShardRouter::submit`]), which keeps the observable ordering that of a
//! one-command-at-a-time client. At most [`V2_MAX_INFLIGHT`] replies are
//! held per connection.
//!
//! **Prepared statements are session state**, as in PostgreSQL: the
//! session maps each name to the shard that prepared it and its text, and
//! nothing below it knows the name. `PREPARE` runs synchronously on the
//! shard owning what its text reads, which validates and plans the text;
//! the name is bound only when that shard answers `Ok`, and a second
//! `PREPARE` of a name replaces the first. `EXECUTE` is resolved here and
//! queued as a lane command carrying its shard, text and raw arguments.
//! `DEALLOCATE`, and an `EXECUTE` of a name this session never prepared,
//! are answered here without a job. The statements end with the session.
//!
//! Replies are flushed **lazily**: owed replies are settled and the write
//! buffer flushed only when the read buffer is empty and the next read
//! would block, so a burst of pipelined commands is answered with a handful
//! of `write` syscalls. A v1 client sends one command and waits — its read
//! buffer is empty after every frame, so it gets one reply per flush from
//! the same code. What differs per envelope is the header syntax and reply
//! prefix (reader and writer), the strictly-increasing sequence check,
//! chunked streaming with the result-buffer cap (v2 only), and what a bad
//! header costs (answered on v1, fatal on v2).
//!
//! Reads use a short socket timeout so an idle session notices the
//! shutdown flag: once the server is draining, idle connections are closed
//! instead of holding the drain hostage, while a command already submitted
//! still gets its response.

use crate::executor::Reply;
use crate::metrics::Metrics;
use crate::protocol::{
    codes, error_body, parse_command, write_reply, Command, Envelope, FrameError, FrameReader,
    V2_CHUNK,
};
use crate::shard::{Begun, InFlight, ShardRouter};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Poll interval for noticing the shutdown flag while blocked on a read.
const READ_POLL: Duration = Duration::from_millis(100);

/// Most replies a session holds in flight before it stops reading and
/// settles the oldest — bounds per-connection reply memory no matter how
/// far ahead a client pipelines.
const V2_MAX_INFLIGHT: usize = 128;

/// Run one connection to completion. Consumes the stream; returns when the
/// client disconnects, a transport error occurs, or the server drains.
pub(crate) fn run_session(
    stream: TcpStream,
    router: &ShardRouter,
    metrics: &Metrics,
    shutdown: &AtomicBool,
    max_result_buffer: usize,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let halves = stream.try_clone().map(|writer| (stream, writer));
    serve(halves, router, metrics, shutdown, max_result_buffer);
}

/// Serve one connection given its read and write halves, or the error that
/// kept it from being split. The single exit closes the session however
/// serving ended — including when it never began — so `sessions_opened -
/// sessions_closed` is exactly the live sessions.
fn serve<R: Read, W: Write>(
    halves: io::Result<(R, W)>,
    router: &ShardRouter,
    metrics: &Metrics,
    shutdown: &AtomicBool,
    max_result_buffer: usize,
) {
    if let Ok((reader, writer)) = halves {
        let mut session = Session {
            router,
            metrics,
            max_result_buffer,
            writer: BufWriter::new(writer),
            pending: VecDeque::new(),
            prepared: HashMap::new(),
        };
        session.run(&mut BufReader::new(reader), shutdown);
        // Settle whatever is still owed: queued jobs have already executed
        // (or will momentarily), so their replies must reach the client if
        // the socket still works — and their trace roots must close either
        // way.
        let _ = session.drain();
        let _ = session.writer.flush();
        let held = session.prepared.len() as u64;
        metrics
            .prepared_statements
            .fetch_sub(held, Ordering::Relaxed);
    }
    metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
}

/// One reply owed to the client.
enum Slot {
    /// Still running in an executor (overlapped submission).
    InFlight(InFlight),
    /// Already known: protocol errors, admission refusals, and replies
    /// from the synchronous path.
    Ready(Reply),
}

/// The state of one connection's serving loop.
struct Session<'a, W: Write> {
    router: &'a ShardRouter,
    metrics: &'a Metrics,
    max_result_buffer: usize,
    writer: BufWriter<W>,
    /// Replies owed to the client, in request order, each with the sequence
    /// id it answers on (`None`: the v1 envelope). Nothing is written out
    /// of turn.
    pending: VecDeque<(Option<u64>, Slot)>,
    /// This session's prepared statements: name → the shard that prepared
    /// the text, and the text.
    prepared: HashMap<String, (usize, Arc<str>)>,
}

impl<W: Write> Session<'_, W> {
    /// The serving loop. Returns when the connection is done; replies still
    /// owed then are left in `pending`.
    fn run<R: Read>(&mut self, reader: &mut BufReader<R>, shutdown: &AtomicBool) {
        let mut frames = FrameReader::new();
        let mut last_seq: u64 = 0;
        'conn: loop {
            // Lazy flush: while the read buffer still holds request bytes
            // the client has sent ahead, keep submitting and accumulating
            // replies. Only when the next read would actually block does
            // the session settle every owed reply and flush.
            if !reader.buffer().is_empty() {
                self.metrics
                    .pipelined_frames
                    .fetch_add(1, Ordering::Relaxed);
            } else if !self.drain() || self.writer.flush().is_err() {
                break;
            }
            let frame = match frames.read_frame(reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => break, // clean disconnect
                Err(FrameError::Timeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        break; // draining: drop idle connections
                    }
                    continue;
                }
                Err(FrameError::Oversized { seq, declared }) => {
                    let msg = format!("frame of {declared} bytes exceeds limit");
                    self.refuse(seq, codes::OVERSIZED, msg);
                    continue;
                }
                Err(FrameError::BadPayload { seq }) => {
                    self.refuse(seq, codes::PARSE, "payload is not UTF-8".into());
                    continue;
                }
                Err(FrameError::BadHeader(what)) => match frames.envelope() {
                    Envelope::V1 => {
                        self.refuse(None, codes::PARSE, format!("bad length header '{what}'"));
                        continue;
                    }
                    Envelope::V2 => {
                        // The framing is gone; there is no way to find the
                        // next frame boundary reliably. Settle what is
                        // owed, answer once on sequence 0, and hang up.
                        let msg = format!("bad v2 frame header: {what}");
                        self.refuse(Some(0), codes::PARSE, msg);
                        break;
                    }
                },
                Err(FrameError::Io(_)) => break, // mid-frame disconnect etc.
            };

            if let Some(outcome) = frames.negotiate(&frame) {
                match outcome {
                    Ok(ack) => self
                        .pending
                        .push_back((frame.seq, Slot::Ready(Ok(ack.into())))),
                    Err(msg) => self.refuse(frame.seq, codes::PARSE, msg),
                }
                continue;
            }

            if let Some(seq) = frame.seq {
                if seq <= last_seq {
                    let msg = format!(
                        "sequence id {seq} is not greater than the last accepted ({last_seq})"
                    );
                    self.refuse(frame.seq, codes::PARSE, msg);
                    continue;
                }
                last_seq = seq;
            }

            let command = match parse_command(&frame.text) {
                Ok(c) => c,
                Err((code, msg)) => {
                    self.refuse(frame.seq, code, msg);
                    continue;
                }
            };

            // Refuse new work while draining (SHUTDOWN and STATS stay
            // allowed so clients can observe the drain).
            if shutdown.load(Ordering::SeqCst)
                && !matches!(command, Command::Shutdown | Command::Stats)
            {
                self.refuse(frame.seq, codes::DRAINING, "server is draining".into());
                continue;
            }

            // Rolling in-flight window: settle the oldest reply before
            // submitting past the cap, so a client pipelining arbitrarily
            // far ahead costs bounded reply memory without ever stalling
            // flat.
            if self.pending.len() >= V2_MAX_INFLIGHT && !self.settle_front() {
                break;
            }
            // The verbs that name a prepared statement are resolved here.
            // Planned once: a retry after backpressure, and the synchronous
            // path, reuse the route. Settling owed replies cannot stale it —
            // an in-flight command changes no routing state.
            let mut planned = match command {
                Command::Execute { name, args } => match self.prepared.get(&name) {
                    Some((shard, text)) => {
                        let text = Arc::clone(text);
                        let command = Command::Execute { name, args };
                        self.router.plan_execute(*shard, text, command)
                    }
                    None => {
                        self.answer(frame.seq, "EXECUTE", Err(unknown(&name)));
                        continue;
                    }
                },
                Command::Deallocate(name) => {
                    let reply = self.deallocate(name);
                    self.answer(frame.seq, "DEALLOCATE", reply);
                    continue;
                }
                Command::Prepare { name, sql } => {
                    // Synchronous: an EXECUTE behind it in the same window
                    // resolves against its outcome.
                    if !self.drain() {
                        break;
                    }
                    let reply = self.prepare(name, sql);
                    self.pending.push_back((frame.seq, Slot::Ready(reply)));
                    continue;
                }
                command => self.router.plan(command),
            };
            let slot = loop {
                // The one backpressure rule: a full shard queue is answered
                // by settling the oldest owed reply — once it is answered
                // the executor has freed a slot — and retrying; with
                // nothing left to settle the router waits out its bounded
                // admission wait and then refuses with ERR_BUSY.
                let patient = self.pending.is_empty();
                match self.router.begin(planned, patient) {
                    Ok(Begun::InFlight(in_flight)) => break Slot::InFlight(in_flight),
                    Ok(Begun::Backpressure(p)) => {
                        if !self.settle_front() {
                            break 'conn;
                        }
                        planned = p;
                    }
                    Ok(Begun::Sync(p)) => {
                        // Cross-command effects: everything queued so far
                        // must finish (and be answered) before this runs.
                        if !self.drain() {
                            break 'conn;
                        }
                        break Slot::Ready(self.router.submit(p));
                    }
                    Err(e) => break Slot::Ready(Err(e)),
                }
            };
            self.pending.push_back((frame.seq, slot));
        }
    }

    /// Run a `PREPARE` on the shard its router places it on, and bind
    /// `name` to that shard and the text once the shard has prepared it. A
    /// failed `PREPARE` leaves an earlier binding of the name as it was.
    fn prepare(&mut self, name: String, sql: String) -> Reply {
        let text: Arc<str> = Arc::from(sql.as_str());
        let planned = self.router.plan(Command::Prepare {
            name: name.clone(),
            sql,
        });
        let shard = planned.shard();
        let reply = self.router.submit(planned);
        if let (Ok(_), Some(shard)) = (&reply, shard) {
            if self.prepared.insert(name, (shard, text)).is_none() {
                let held = &self.metrics.prepared_statements;
                held.fetch_add(1, Ordering::Relaxed);
            }
        }
        reply
    }

    /// Drop one of this session's prepared statements.
    fn deallocate(&mut self, name: String) -> Reply {
        self.prepared.remove(&name).ok_or_else(|| unknown(&name))?;
        let held = &self.metrics.prepared_statements;
        held.fetch_sub(1, Ordering::Relaxed);
        Ok(format!("deallocated {name}"))
    }

    /// Owe the client a reply the session answered itself, without a job:
    /// counted like any executed command's, with no executor latency.
    fn answer(&mut self, seq: Option<u64>, verb: &str, reply: Reply) {
        self.metrics
            .count_reply(verb, Duration::ZERO, reply.is_ok());
        self.pending.push_back((seq, Slot::Ready(reply)));
    }

    /// Owe the client a protocol-level error on `seq`.
    fn refuse(&mut self, seq: Option<u64>, code: &'static str, msg: String) {
        self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
        self.pending.push_back((seq, Slot::Ready(Err((code, msg)))));
    }

    /// Settle the oldest owed reply, if any: collect it (closing its trace
    /// root if it was in flight) and write it. `true` when the connection
    /// stays usable.
    fn settle_front(&mut self) -> bool {
        self.pending
            .pop_front()
            .is_none_or(|(seq, slot)| self.settle(seq, slot, true))
    }

    /// Settle every owed reply in request order. After a write failure (or
    /// a fatal `ERR_INTERNAL` reply) the remaining in-flight replies are
    /// still collected — their root spans must close — but nothing more is
    /// written and the connection is reported dead (`false`).
    fn drain(&mut self) -> bool {
        let mut alive = true;
        while let Some((seq, slot)) = self.pending.pop_front() {
            alive = self.settle(seq, slot, alive);
        }
        alive
    }

    /// Collect one owed reply and, while the connection is `alive`, write
    /// it; returns whether the connection is still alive afterwards.
    fn settle(&mut self, seq: Option<u64>, slot: Slot, alive: bool) -> bool {
        let reply = match slot {
            Slot::InFlight(in_flight) => self.router.finish(in_flight),
            Slot::Ready(reply) => reply,
        };
        alive && self.write(seq, reply)
    }

    /// Write one reply (success, stream, cap refusal, or error). `false`
    /// when the connection is done — the transport failed or the reply was
    /// a fatal `ERR_INTERNAL` (an executor is gone, only possible deep into
    /// shutdown).
    fn write(&mut self, seq: Option<u64>, reply: Reply) -> bool {
        let fatal = matches!(&reply, Err((code, _)) if *code == codes::INTERNAL);
        let written = match reply {
            // Chunks are tagged with the sequence id, so streaming — and
            // with it the result-buffer cap — exists on v2 only; a v1 reply
            // is always one `+<n>` body.
            Ok(body) if seq.is_some() && body.len() > V2_CHUNK => self.stream_body(seq, &body),
            Ok(body) => write_reply(&mut self.writer, seq, '+', body.as_bytes()),
            Err((code, msg)) => write_reply(
                &mut self.writer,
                seq,
                '-',
                error_body(code, &msg).as_bytes(),
            ),
        };
        written.is_ok() && !fatal
    }

    /// Stream one large body as `*<seq>` chunks plus the `+<seq>` trailer,
    /// accounting the bytes in the result-buffer gauges while they are in
    /// flight. A body over the result-buffer cap is refused instead.
    fn stream_body(&mut self, seq: Option<u64>, body: &str) -> io::Result<()> {
        if body.len() > self.max_result_buffer {
            self.metrics.exec_errors.fetch_add(1, Ordering::Relaxed);
            let msg = format!(
                "result of {} bytes exceeds the {} byte result-buffer cap \
                 (--max-result-buffer-bytes)",
                body.len(),
                self.max_result_buffer
            );
            let refusal = error_body(codes::OVERSIZED, &msg);
            return write_reply(&mut self.writer, seq, '-', refusal.as_bytes());
        }
        let total = body.len() as u64;
        self.metrics.result_buffer_grow(total);
        let (mut chunks, mut sent) = (0u64, 0u64);
        let mut result = Ok(());
        for chunk in body.as_bytes().chunks(V2_CHUNK) {
            result = write_reply(&mut self.writer, seq, '*', chunk);
            if result.is_err() {
                break;
            }
            chunks += 1;
            sent += chunk.len() as u64;
            self.metrics.chunks_streamed.fetch_add(1, Ordering::Relaxed);
            // Chunks reach the socket incrementally; the gauge tracks what
            // is still waiting to be written.
            self.metrics.result_buffer_shrink(chunk.len() as u64);
        }
        // Unstreamed remainder (after a failed write): release it from the
        // gauge.
        self.metrics.result_buffer_shrink(total - sent);
        result?;
        let trailer = format!("stream bytes={total} chunks={chunks}");
        write_reply(&mut self.writer, seq, '+', trailer.as_bytes())
    }
}

/// The reply to a prepared-statement name this session does not hold.
fn unknown(name: &str) -> (&'static str, String) {
    let msg = format!("bind error: unknown prepared statement '{name}'");
    (codes::EXEC, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::testing::router_on;
    use std::io::Cursor;

    /// Serve `input` as one connection's whole request stream against a
    /// fresh volatile router; returns everything the session wrote and the
    /// server counters.
    fn serve_bytes(shards: usize, input: &[u8]) -> (String, std::sync::Arc<Metrics>) {
        let (router, metrics, joins) = router_on(None, shards);
        let mut out = Vec::new();
        let halves = Ok((Cursor::new(input.to_vec()), &mut out));
        serve(halves, &router, &metrics, &AtomicBool::new(false), 1 << 20);
        drop(router);
        joins.into_iter().for_each(|j| j.join().unwrap());
        (String::from_utf8(out).unwrap(), metrics)
    }

    #[test]
    fn session_closes_even_when_the_connection_never_split() {
        let (router, metrics, joins) = router_on(None, 1);
        let halves: io::Result<(&[u8], Vec<u8>)> = Err(io::Error::other("dup failed"));
        serve(halves, &router, &metrics, &AtomicBool::new(false), 1 << 20);
        assert_eq!(metrics.sessions_closed.load(Ordering::Relaxed), 1);
        drop(router);
        joins.into_iter().for_each(|j| j.join().unwrap());
    }

    /// One response frame: `prefix` is the kind plus, on v2, `<seq> `.
    fn reply(prefix: &str, body: &str) -> String {
        format!("{prefix}{}\n{body}\n", body.len())
    }

    #[test]
    fn v1_protocol_errors_are_answered_and_the_connection_kept() {
        let mut input = b"!4\n".to_vec();
        input.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc, b'\n']);
        input.extend_from_slice(b"!abc\nHELLO v9\nNOPE\nQUERY SELECT 1 AS x\n");
        let (out, metrics) = serve_bytes(1, &input);
        let want = [
            reply("-", "ERR_PARSE payload is not UTF-8"),
            reply("-", "ERR_PARSE bad length header 'abc'"),
            reply("-", "ERR_PARSE unsupported protocol 'v9' (supported: v2)"),
            reply("-", "ERR_UNKNOWN_VERB unknown verb 'NOPE'"),
            reply("+", "x\n1\n"),
        ];
        assert_eq!(out, want.concat());
        assert_eq!(metrics.protocol_errors.load(Ordering::Relaxed), 4);
        assert_eq!(metrics.sessions_closed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn one_loop_serves_both_envelopes_across_the_handshake() {
        // The whole conversation is in the read buffer at once: the v1
        // command before the handshake, the handshake, and v2 frames behind
        // it (one not UTF-8, one replaying a sequence id) are answered in
        // order, each in the envelope it arrived in.
        let mut input =
            b"QUERY SELECT 1 AS x\nHELLO v2\n@1 19\nQUERY SELECT 2 AS y\n@2 2\n".to_vec();
        input.extend_from_slice(&[0xff, 0xfe, b'\n']);
        input.extend_from_slice(b"@1 5\nSTATS\n@3 8\nHELLO v2\n");
        let want = [
            reply("+", "x\n1\n"),
            reply("+", "v2"),
            reply("+1 ", "y\n2\n"),
            reply("-2 ", "ERR_PARSE payload is not UTF-8"),
            reply(
                "-1 ",
                "ERR_PARSE sequence id 1 is not greater than the last accepted (1)",
            ),
            reply("-3 ", "ERR_UNKNOWN_VERB unknown verb 'HELLO'"),
        ];
        for shards in [1, 2] {
            let (out, metrics) = serve_bytes(shards, &input);
            assert_eq!(out, want.concat(), "shards={shards}");
            assert!(metrics.pipelined_frames.load(Ordering::Relaxed) >= 4);
        }
    }

    /// Feed one burst of requests to a live session; what it answered.
    fn feed(session: &mut Session<'_, Vec<u8>>, input: &str) -> String {
        session.run(
            &mut BufReader::new(input.as_bytes()),
            &AtomicBool::new(false),
        );
        assert!(session.drain());
        session.writer.flush().unwrap();
        String::from_utf8(std::mem::take(session.writer.get_mut())).unwrap()
    }

    #[test]
    fn prepared_names_belong_to_their_session() {
        for shards in [1, 2] {
            let (router, metrics, joins) = router_on(None, shards);
            let open = || Session {
                router: &router,
                metrics: &metrics,
                max_result_buffer: 1 << 20,
                writer: BufWriter::new(Vec::new()),
                pending: VecDeque::new(),
                prepared: HashMap::new(),
            };
            let (mut one, mut two, mut three) = (open(), open(), open());
            let setup = "QUERY CREATE TABLE t (a int)\nQUERY INSERT INTO t VALUES (1), (2)\n\
                         PREPARE q AS SELECT a FROM t ORDER BY a\n";
            let want = [
                reply("+", "ok 0"),
                reply("+", "ok 2"),
                reply("+", "prepared q"),
            ];
            assert_eq!(feed(&mut one, setup), want.concat());
            // Same name in another session: an independent statement.
            let prepare = "PREPARE q AS SELECT count(*) AS n FROM t\n";
            assert_eq!(feed(&mut two, prepare), reply("+", "prepared q"));
            let held = || metrics.prepared_statements.load(Ordering::Relaxed);
            assert_eq!(held(), 2);
            assert_eq!(feed(&mut one, "EXECUTE q\n"), reply("+", "a\n1\n2\n"));
            assert_eq!(feed(&mut two, "EXECUTE q\n"), reply("+", "n\n2\n"));
            // A session that never prepared `q` can neither run nor drop it.
            let unknown = reply("-", "ERR_EXEC bind error: unknown prepared statement 'q'");
            let out = feed(&mut three, "EXECUTE q\nDEALLOCATE q\n");
            assert_eq!(out, unknown.repeat(2), "shards={shards}");
            // DEALLOCATE drops this session's `q` only, and only once.
            let out = feed(&mut one, "DEALLOCATE q\nEXECUTE q\nDEALLOCATE q\n");
            let want = [reply("+", "deallocated q"), unknown.clone(), unknown];
            assert_eq!(out, want.concat(), "shards={shards}");
            assert_eq!(feed(&mut two, "EXECUTE q\n"), reply("+", "n\n2\n"));
            assert_eq!(held(), 1);
            assert_eq!(metrics.exec_errors.load(Ordering::Relaxed), 4);
            drop((one, two, three));
            drop(router);
            joins.into_iter().for_each(|j| j.join().unwrap());
        }
    }

    #[test]
    fn a_bad_v2_header_is_answered_on_sequence_zero_and_closes() {
        let input = b"HELLO v2\n@1 19\nQUERY SELECT 2 AS y\nQUERY SELECT 3\n@2 5\nSTATS\n";
        let (out, _) = serve_bytes(1, input);
        let want = [
            reply("+", "v2"),
            reply("+1 ", "y\n2\n"),
            reply(
                "-0 ",
                "ERR_PARSE bad v2 frame header: expected '@<seq> <len>', got 'QUERY SELECT 3'",
            ),
        ];
        assert_eq!(out, want.concat());
    }
}
