//! Wire protocol: framing, command parsing, and response encoding — one
//! reader and one writer for both envelopes.
//!
//! | | v1 (every connection starts here) | v2 (after `HELLO v2`) |
//! |---|---|---|
//! | request | `VERB rest\n` (one line) or `!<n>\n<payload>\n` | `@<seq> <n>\n<payload>\n` |
//! | success | `+<n>\n<body>\n` | `+<seq> <n>\n<body>\n` |
//! | error | `-<n>\n<CODE> <message>\n` | `-<seq> <n>\n<CODE> <message>\n` |
//! | stream chunk | — | `*<seq> <n>\n<bytes>\n` |
//!
//! `<n>` counts payload/body bytes, excluding the trailing newline. The
//! payload is the same command text in both envelopes ([`parse_command`]);
//! a v1 bare line is usable for any command without embedded newlines, a
//! length-prefixed payload may span lines (required for `INSPECT`, whose
//! pipeline source is multi-line Python). Error bodies start with a
//! machine-readable code from [`codes`], a space, then a human-readable
//! message.
//!
//! **Negotiation**: a v1 frame `HELLO v2` is answered `+2\nv2\n` and flips
//! the connection's [`FrameReader`] to the v2 envelope in place. Clients
//! that never send it stay on v1 byte-for-byte.
//!
//! **v2** tags every request with a client-chosen, strictly increasing
//! sequence id that the response echoes, so a client may write many frames
//! before reading any response — *pipelining* — and match responses by id.
//! The server executes strictly in arrival order and responds in that
//! order; the ids make the ordering *checkable* and let a retrying client
//! resend exactly the commands that failed. Result bodies larger than
//! [`V2_CHUNK`] are *streamed*: consecutive `*<seq>` chunks (each at most
//! `V2_CHUNK` bytes) followed by a `+<seq>` trailer whose body is
//! `stream bytes=<total> chunks=<n>`, which lets the client verify nothing
//! was lost. Bodies larger than the server's `--max-result-buffer-bytes`
//! cap are refused with `ERR_OVERSIZED` instead of being buffered. v1
//! replies are always one `+<n>` body.
//!
//! The serving loop over these frames is `session.rs`; grammar and
//! failure modes are tabulated in `docs/PROTOCOL.md`.

use std::io::{self, BufRead, Read, Write};

/// Hard ceiling on a single frame's payload (1 MiB). Oversized frames are
/// drained and refused with [`codes::OVERSIZED`]; the session stays up.
pub const MAX_FRAME: usize = 1 << 20;

/// Fixed chunk size for streamed v2 result bodies (64 KiB). Bodies at or
/// under this travel as one ordinary `+<seq>` response.
pub const V2_CHUNK: usize = 64 * 1024;

/// Separator between the statements of a `BATCH` frame and between the
/// per-statement bodies of its response: ASCII Record Separator (0x1E),
/// which cannot appear in SQL text or CSV output.
pub const BATCH_SEP: char = '\x1e';

/// Most statements accepted in one `BATCH` frame.
pub const MAX_BATCH: usize = 1024;

/// Spans returned by a bare `TRACE` (no explicit count).
pub const DEFAULT_TRACE_SPANS: usize = 20;

/// Machine-readable error codes carried in the first token of an error body.
pub mod codes {
    /// Malformed frame or unparsable command line.
    pub const PARSE: &str = "ERR_PARSE";
    /// Unknown verb.
    pub const UNKNOWN: &str = "ERR_UNKNOWN_VERB";
    /// Frame payload exceeded [`super::MAX_FRAME`].
    pub const OVERSIZED: &str = "ERR_OVERSIZED";
    /// SQL planning/execution failure.
    pub const EXEC: &str = "ERR_EXEC";
    /// Pipeline inspection failure.
    pub const INSPECT: &str = "ERR_INSPECT";
    /// Server is draining after SHUTDOWN; no new work accepted.
    pub const DRAINING: &str = "ERR_DRAINING";
    /// Internal server error (executor gone, poisoned state, ...).
    pub const INTERNAL: &str = "ERR_INTERNAL";
    /// Executor queue full past the admission wait; **retryable** — back
    /// off and resend the same command.
    pub const BUSY: &str = "ERR_BUSY";
    /// Writes are refused: either durable storage failed and the engine
    /// degraded to read-only (a `CHECKPOINT` re-arms it), or the server is
    /// a replication follower (permanent — send the write to the leader).
    /// **Not** retryable on the same server.
    pub const READ_ONLY: &str = "ERR_READ_ONLY";
    /// Statement exceeded the server's statement timeout and was cancelled
    /// cooperatively; **retryable** (though likely to time out again
    /// unchanged).
    pub const TIMEOUT: &str = "ERR_TIMEOUT";
    /// The statement writes (or prepares against) tables owned by more than
    /// one shard. **Not** retryable: split the statement per shard or keep
    /// co-written tables on one shard (same `shard_of` bucket).
    pub const CROSS_SHARD: &str = "ERR_CROSS_SHARD";
}

/// What a `TRACE` command asks for (the TRACE v2 grammar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceRequest {
    /// `TRACE [n]` — the most recent `n` root spans across all shard rings.
    Recent(usize),
    /// `TRACE q<id>` — the full span tree of one query, reassembled from
    /// every shard's ring and rendered hierarchically with per-shard time
    /// attribution.
    Tree(u64),
}

/// A parsed client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Execute one SQL statement; SELECTs return CSV, DDL/DML return a
    /// one-line acknowledgement.
    Query(String),
    /// Plan + cache a SELECT under a session-scoped name.
    Prepare {
        /// Statement name, unique per session.
        name: String,
        /// The SELECT text.
        sql: String,
    },
    /// Run a previously prepared statement, optionally binding `$n`
    /// placeholders: `EXECUTE name` or `EXECUTE name (v1, v2, ...)`.
    Execute {
        /// Statement name.
        name: String,
        /// Raw text between the argument parentheses, unparsed (the engine
        /// lexes it); `None` when no argument list was given.
        args: Option<String>,
    },
    /// Execute several statements from one frame in order, amortizing
    /// framing and group commit; statements and response bodies are joined
    /// by [`BATCH_SEP`].
    Batch(Vec<String>),
    /// Drop a prepared statement.
    Deallocate(String),
    /// Render the optimized plan; with `analyze`, execute the query and
    /// annotate each operator with its runtime rows/time.
    Explain {
        /// The SELECT text.
        sql: String,
        /// True for `EXPLAIN ANALYZE`.
        analyze: bool,
    },
    /// Inspect recorded spans: recent roots, or one query's span tree.
    Trace(TraceRequest),
    /// Run an ML pipeline through the SQL backend with bias checks.
    Inspect {
        /// Sensitive columns to histogram after every operator.
        columns: Vec<String>,
        /// Max tolerated absolute ratio change per group.
        threshold: f64,
        /// The Python pipeline source.
        source: String,
    },
    /// Server + engine counters.
    Stats,
    /// Snapshot all tables to durable storage and truncate the WAL.
    Checkpoint,
    /// Replication topology: role, followers, shipped bytes, watermarks.
    Replica,
    /// Replication lag watermarks (committed vs. applied LSNs), the
    /// smallest surface a read-routing client needs to poll.
    Lag,
    /// Begin graceful drain: stop accepting, finish in-flight work.
    Shutdown,
}

impl Command {
    /// Verb label used for metrics.
    pub fn verb(&self) -> &'static str {
        match self {
            Command::Query(_) => "QUERY",
            Command::Batch(_) => "BATCH",
            Command::Prepare { .. } => "PREPARE",
            Command::Execute { .. } => "EXECUTE",
            Command::Deallocate(_) => "DEALLOCATE",
            Command::Explain { .. } => "EXPLAIN",
            Command::Trace(_) => "TRACE",
            Command::Inspect { .. } => "INSPECT",
            Command::Stats => "STATS",
            Command::Checkpoint => "CHECKPOINT",
            Command::Replica => "REPLICA",
            Command::Lag => "LAG",
            Command::Shutdown => "SHUTDOWN",
        }
    }

    /// One-line human summary used as span detail and in the slow-query
    /// log. Never includes pipeline source (it can be large and multiline).
    pub fn summary(&self) -> String {
        match self {
            Command::Query(sql) => sql.clone(),
            Command::Batch(stmts) => format!("{} statements", stmts.len()),
            Command::Prepare { name, sql } => format!("{name}: {sql}"),
            Command::Execute { name, args: None } => name.clone(),
            Command::Execute {
                name,
                args: Some(a),
            } => format!("{name} ({a})"),
            Command::Deallocate(name) => name.clone(),
            Command::Explain { sql, analyze } => {
                if *analyze {
                    format!("ANALYZE {sql}")
                } else {
                    sql.clone()
                }
            }
            Command::Trace(TraceRequest::Recent(n)) => format!("last {n}"),
            Command::Trace(TraceRequest::Tree(id)) => format!("q{id}"),
            Command::Inspect {
                columns, threshold, ..
            } => format!("columns={} threshold={threshold}", columns.join(",")),
            Command::Stats
            | Command::Checkpoint
            | Command::Replica
            | Command::Lag
            | Command::Shutdown => String::new(),
        }
    }
}

/// Which envelope a connection's frames travel in. Every connection starts
/// on `V1`; a `HELLO v2` frame flips it in place
/// ([`FrameReader::negotiate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Envelope {
    /// One-shot framing: bare lines and `!<n>` payloads in, `+<n>` / `-<n>`
    /// out.
    #[default]
    V1,
    /// Sequence-tagged framing: `@<seq> <n>` payloads in, `+<seq> <n>` /
    /// `-<seq> <n>` / `*<seq> <n>` out.
    V2,
}

/// One request frame: the command text and, on v2, the sequence id its
/// response must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The client-chosen sequence id (`None` on the v1 envelope).
    pub seq: Option<u64>,
    /// The command text, exactly as [`parse_command`] takes it.
    pub text: String,
}

/// What a request header line announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Header {
    /// A v1 bare line: the line itself is the whole frame.
    Line,
    /// A payload of `len` bytes plus a trailing newline follows (`!<len>`
    /// on v1, `@<seq> <len>` on v2).
    Payload {
        /// Sequence id from the header (`None` on the v1 envelope).
        seq: Option<u64>,
        /// Declared payload length in bytes.
        len: usize,
    },
}

/// Parse one request header line (without its trailing newline). Pure — the
/// fuzz harness drives it directly. The `Err` text is what the session
/// reports: the offending length text on v1, a full description on v2.
pub fn parse_header(envelope: Envelope, line: &str) -> Result<Header, String> {
    match envelope {
        Envelope::V1 => match line.strip_prefix('!') {
            Some(len_text) => match len_text.trim().parse() {
                Ok(len) => Ok(Header::Payload { seq: None, len }),
                Err(_) => Err(len_text.to_string()),
            },
            None => Ok(Header::Line),
        },
        Envelope::V2 => {
            let (seq_text, len_text) = line
                .strip_prefix('@')
                .and_then(|rest| rest.split_once(' '))
                .ok_or_else(|| format!("expected '@<seq> <len>', got '{}'", printable(line)))?;
            let seq: u64 = seq_text
                .parse()
                .map_err(|_| format!("bad sequence id '{}'", printable(seq_text)))?;
            let len: usize = len_text
                .trim()
                .parse()
                .map_err(|_| format!("bad length '{}'", printable(len_text)))?;
            Ok(Header::Payload {
                seq: Some(seq),
                len,
            })
        }
    }
}

/// Render untrusted header bytes safely for an error message.
fn printable(s: &str) -> String {
    s.chars()
        .take(64)
        .map(|c| {
            if c.is_ascii_graphic() || c == ' ' {
                c
            } else {
                '.'
            }
        })
        .collect()
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport error (includes mid-frame disconnects).
    Io(io::Error),
    /// Read timed out with no (complete) frame; caller may retry with the
    /// same reader — partial data is preserved in the reader state.
    Timeout,
    /// The header declared a payload larger than [`MAX_FRAME`]. The payload
    /// has already been drained; answer on `seq` and keep the connection.
    Oversized {
        /// Sequence id from the offending header (`None` on v1).
        seq: Option<u64>,
        /// Declared payload length.
        declared: usize,
    },
    /// The payload arrived whole but is not valid UTF-8. The stream is
    /// still in sync; answer on `seq` and keep the connection.
    BadPayload {
        /// Sequence id from the offending header (`None` on v1).
        seq: Option<u64>,
    },
    /// The header line did not parse ([`parse_header`]'s message). On v1
    /// only a `!<n>` length can be bad and the line is already consumed, so
    /// the connection stays usable; on v2 the stream cannot be
    /// resynchronized — answer once on sequence 0 and close.
    BadHeader(String),
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            FrameError::Timeout
        } else {
            FrameError::Io(e)
        }
    }
}

fn closed(what: &str) -> FrameError {
    FrameError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, what))
}

/// The per-connection frame reader, for both envelopes. All partial state
/// (header line, payload, oversized drain) lives here, so a read resumes
/// cleanly after a socket timeout (needed for the shutdown-drain poll in
/// sessions).
#[derive(Debug, Default)]
pub struct FrameReader {
    envelope: Envelope,
    line: String,
    /// The payload being filled (`len + 1` bytes: trailing newline included);
    /// empty between frames.
    payload: Vec<u8>,
    payload_filled: usize,
    /// Header fields of the payload being read or drained.
    seq: Option<u64>,
    declared: usize,
    /// Bytes still to discard of an oversized payload.
    draining: Option<usize>,
}

impl FrameReader {
    /// Create an empty reader on the v1 envelope.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// The envelope the next frame is read in.
    pub fn envelope(&self) -> Envelope {
        self.envelope
    }

    /// Protocol negotiation: a v1 frame `HELLO <version>` is a handshake,
    /// not a command. `HELLO v2` flips this reader to the v2 envelope —
    /// request bytes already buffered behind the handshake are read as v2
    /// frames — and yields the acknowledgement body (answered on the v1
    /// envelope the client is still speaking); any other version yields a
    /// refusal naming what the server supports. `None` when `frame` is not
    /// a handshake, which is always the case once on v2 (there `HELLO` is
    /// an unknown verb).
    pub fn negotiate(&mut self, frame: &Frame) -> Option<Result<&'static str, String>> {
        if self.envelope != Envelope::V1 {
            return None;
        }
        let version = frame
            .text
            .strip_prefix("HELLO ")
            .or_else(|| frame.text.strip_prefix("hello "))?
            .trim();
        Some(if version == "v2" {
            self.envelope = Envelope::V2;
            Ok("v2")
        } else {
            Err(format!("unsupported protocol '{version}' (supported: v2)"))
        })
    }

    /// Read one frame. Returns `Ok(None)` on clean EOF at a frame boundary.
    /// [`FrameError::Timeout`] means "no complete frame yet, call again".
    pub fn read_frame(&mut self, r: &mut impl BufRead) -> Result<Option<Frame>, FrameError> {
        if let Some(remaining) = self.draining.take() {
            return self.drain_oversized(r, remaining);
        }
        if !self.payload.is_empty() {
            return self.read_payload(r);
        }
        loop {
            match r.read_line(&mut self.line) {
                Ok(0) => {
                    // EOF. Mid-line EOF is a dropped connection.
                    return if self.line.is_empty() {
                        Ok(None)
                    } else {
                        self.line.clear();
                        Err(closed("connection closed mid-frame"))
                    };
                }
                Ok(_) if !self.line.ends_with('\n') => continue,
                Ok(_) => break,
                Err(e) => return Err(FrameError::from(e)),
            }
        }
        let line = std::mem::take(&mut self.line);
        let line = line.trim_end_matches(['\n', '\r']);
        match parse_header(self.envelope, line).map_err(FrameError::BadHeader)? {
            Header::Line => Ok(Some(Frame {
                seq: None,
                text: line.to_string(),
            })),
            Header::Payload { seq, len } => {
                self.seq = seq;
                self.declared = len;
                if len > MAX_FRAME {
                    // +1 for the trailing newline after the payload.
                    return self.drain_oversized(r, len + 1);
                }
                self.payload = vec![0u8; len + 1];
                self.payload_filled = 0;
                self.read_payload(r)
            }
        }
    }

    fn read_payload(&mut self, r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
        while self.payload_filled < self.payload.len() {
            match r.read(&mut self.payload[self.payload_filled..]) {
                Ok(0) => return Err(closed("connection closed mid-payload")),
                Ok(k) => self.payload_filled += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::from(e)),
            }
        }
        let mut payload = std::mem::take(&mut self.payload);
        payload.pop(); // trailing newline
        match String::from_utf8(payload) {
            Ok(text) => Ok(Some(Frame {
                seq: self.seq,
                text,
            })),
            Err(_) => Err(FrameError::BadPayload { seq: self.seq }),
        }
    }

    fn drain_oversized(
        &mut self,
        r: &mut impl Read,
        mut remaining: usize,
    ) -> Result<Option<Frame>, FrameError> {
        let mut chunk = [0u8; 8192];
        while remaining > 0 {
            let want = remaining.min(chunk.len());
            match r.read(&mut chunk[..want]) {
                Ok(0) => return Err(closed("connection closed mid-payload")),
                Ok(k) => remaining -= k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    let fe = FrameError::from(e);
                    if matches!(fe, FrameError::Timeout) {
                        self.draining = Some(remaining);
                    }
                    return Err(fe);
                }
            }
        }
        Err(FrameError::Oversized {
            seq: self.seq,
            declared: self.declared,
        })
    }
}

/// Parse a complete frame payload into a [`Command`].
pub fn parse_command(frame: &str) -> Result<Command, (&'static str, String)> {
    let frame = frame.trim_start_matches(['\n', '\r', ' ']);
    let (first_line, rest) = match frame.split_once('\n') {
        Some((l, r)) => (l.trim_end_matches('\r'), r),
        None => (frame, ""),
    };
    let (verb, args) = match first_line.split_once(char::is_whitespace) {
        Some((v, a)) => (v, a.trim()),
        None => (first_line, ""),
    };
    let full_args = || -> String {
        if rest.is_empty() {
            args.to_string()
        } else {
            format!("{args}\n{rest}")
        }
    };
    match verb.to_ascii_uppercase().as_str() {
        "QUERY" => {
            let sql = full_args();
            if sql.trim().is_empty() {
                return Err((codes::PARSE, "QUERY requires SQL text".into()));
            }
            Ok(Command::Query(sql))
        }
        "BATCH" => {
            let text = full_args();
            if text.trim().is_empty() {
                return Err((codes::PARSE, "BATCH requires at least one statement".into()));
            }
            let stmts: Vec<String> = text
                .split(BATCH_SEP)
                .map(|s| s.trim().to_string())
                .collect();
            if stmts.iter().any(|s| s.is_empty()) {
                return Err((codes::PARSE, "BATCH contains an empty statement".into()));
            }
            if stmts.len() > MAX_BATCH {
                return Err((
                    codes::PARSE,
                    format!(
                        "BATCH of {} statements exceeds the {MAX_BATCH} cap",
                        stmts.len()
                    ),
                ));
            }
            Ok(Command::Batch(stmts))
        }
        "PREPARE" => {
            let text = full_args();
            let (name, sql) = text
                .split_once(char::is_whitespace)
                .ok_or_else(|| (codes::PARSE, "usage: PREPARE <name> [AS] <sql>".to_string()))?;
            // Accept the PostgreSQL form `PREPARE name AS SELECT ...`.
            let sql = sql.trim_start();
            let sql = match sql.split_once(char::is_whitespace) {
                Some((first, rest)) if first.eq_ignore_ascii_case("AS") => rest,
                _ => sql,
            };
            if name.is_empty() || sql.trim().is_empty() {
                return Err((codes::PARSE, "usage: PREPARE <name> [AS] <sql>".into()));
            }
            Ok(Command::Prepare {
                name: name.to_string(),
                sql: sql.trim().to_string(),
            })
        }
        "EXECUTE" => {
            // `EXECUTE name` or `EXECUTE name (v1, v2, ...)`.
            let (name, tail) = match args.split_once(char::is_whitespace) {
                Some((n, t)) => (n, t.trim()),
                None => (args, ""),
            };
            if name.is_empty() || name.contains('(') {
                return Err((codes::PARSE, "usage: EXECUTE <name> [(v1, v2, ...)]".into()));
            }
            if tail.is_empty() {
                return Ok(Command::Execute {
                    name: name.to_string(),
                    args: None,
                });
            }
            let inner = tail
                .strip_prefix('(')
                .and_then(|t| t.strip_suffix(')'))
                .ok_or_else(|| {
                    (
                        codes::PARSE,
                        "usage: EXECUTE <name> [(v1, v2, ...)]".to_string(),
                    )
                })?;
            Ok(Command::Execute {
                name: name.to_string(),
                args: Some(inner.trim().to_string()),
            })
        }
        "DEALLOCATE" => {
            if args.is_empty() || args.contains(char::is_whitespace) {
                return Err((codes::PARSE, "usage: DEALLOCATE <name>".into()));
            }
            Ok(Command::Deallocate(args.to_string()))
        }
        "EXPLAIN" => {
            let mut sql = full_args();
            let analyze = {
                let trimmed = sql.trim_start();
                let is_analyze = trimmed
                    .split_whitespace()
                    .next()
                    .is_some_and(|w| w.eq_ignore_ascii_case("ANALYZE"));
                if is_analyze {
                    let pos = sql
                        .to_ascii_uppercase()
                        .find("ANALYZE")
                        .expect("word found");
                    sql = sql[pos + "ANALYZE".len()..].trim_start().to_string();
                }
                is_analyze
            };
            if sql.trim().is_empty() {
                return Err((codes::PARSE, "EXPLAIN requires SQL text".into()));
            }
            Ok(Command::Explain { sql, analyze })
        }
        "TRACE" => {
            if args.is_empty() {
                return Ok(Command::Trace(TraceRequest::Recent(DEFAULT_TRACE_SPANS)));
            }
            if let Some(id_text) = args.strip_prefix('q').or_else(|| args.strip_prefix('Q')) {
                let id: u64 = id_text
                    .parse()
                    .map_err(|_| (codes::PARSE, "usage: TRACE [n | q<query_id>]".to_string()))?;
                return Ok(Command::Trace(TraceRequest::Tree(id)));
            }
            let n: usize = args
                .parse()
                .map_err(|_| (codes::PARSE, "usage: TRACE [n | q<query_id>]".to_string()))?;
            Ok(Command::Trace(TraceRequest::Recent(n.max(1))))
        }
        "INSPECT" => {
            let mut head = args.split_whitespace();
            let cols = head.next().ok_or_else(|| {
                (
                    codes::PARSE,
                    "usage: INSPECT <cols> <threshold>\\n<source>".to_string(),
                )
            })?;
            let threshold: f64 = head.next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                (
                    codes::PARSE,
                    "INSPECT threshold must be a number".to_string(),
                )
            })?;
            if head.next().is_some() {
                return Err((codes::PARSE, "INSPECT header has trailing tokens".into()));
            }
            if rest.trim().is_empty() {
                return Err((
                    codes::PARSE,
                    "INSPECT requires a pipeline source body".into(),
                ));
            }
            Ok(Command::Inspect {
                columns: cols.split(',').map(|c| c.trim().to_string()).collect(),
                threshold,
                source: rest.to_string(),
            })
        }
        "STATS" => Ok(Command::Stats),
        "CHECKPOINT" => Ok(Command::Checkpoint),
        "REPLICA" => Ok(Command::Replica),
        "LAG" => Ok(Command::Lag),
        "SHUTDOWN" => Ok(Command::Shutdown),
        other => Err((codes::UNKNOWN, format!("unknown verb '{other}'"))),
    }
}

/// Write one response frame in the envelope `seq` selects:
/// `<kind><n>\n<body>\n` on v1 (`None`), `<kind><seq> <n>\n<body>\n` on v2.
/// `kind` is `+` (success), `-` (error, body from [`error_body`]) or `*`
/// (stream chunk, v2 only); `<n>` counts the body bytes, excluding the
/// trailing newline. No flush — the session loop flushes lazily.
pub fn write_reply(
    w: &mut impl Write,
    seq: Option<u64>,
    kind: char,
    body: &[u8],
) -> io::Result<()> {
    match seq {
        Some(seq) => writeln!(w, "{kind}{seq} {}", body.len())?,
        None => writeln!(w, "{kind}{}", body.len())?,
    }
    w.write_all(body)?;
    w.write_all(b"\n")
}

/// The body of an error response: `<CODE> <message>`, newlines in the
/// message flattened so the body stays one line.
pub fn error_body(code: &str, msg: &str) -> String {
    format!("{code} {}", msg.replace('\n', " "))
}

/// Encode a request frame, choosing length-prefixed framing whenever the
/// command text contains a newline (used by the client).
pub fn encode_request(command: &str) -> String {
    if command.contains('\n') {
        format!("!{}\n{}\n", command.len(), command)
    } else {
        format!("{command}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// A reader already flipped to `envelope`, the way a session gets one.
    fn reader(envelope: Envelope) -> FrameReader {
        let mut fr = FrameReader::new();
        if envelope == Envelope::V2 {
            let hello = Frame {
                seq: None,
                text: "HELLO v2".into(),
            };
            assert_eq!(fr.negotiate(&hello), Some(Ok("v2")));
        }
        assert_eq!(fr.envelope(), envelope);
        fr
    }

    /// One payload frame in `envelope`'s header syntax, and the seq it
    /// carries.
    fn payload_frame(envelope: Envelope, seq: u64, payload: &[u8]) -> (Vec<u8>, Option<u64>) {
        let (header, seq) = match envelope {
            Envelope::V1 => (format!("!{}\n", payload.len()), None),
            Envelope::V2 => (format!("@{seq} {}\n", payload.len()), Some(seq)),
        };
        let mut wire = header.into_bytes();
        wire.extend_from_slice(payload);
        wire.push(b'\n');
        (wire, seq)
    }

    fn frame(seq: Option<u64>, text: &str) -> Option<Frame> {
        Some(Frame {
            seq,
            text: text.into(),
        })
    }

    const ENVELOPES: [Envelope; 2] = [Envelope::V1, Envelope::V2];

    #[test]
    fn headers_parse_and_reject() {
        use Envelope::{V1, V2};
        let payload = |seq, len| Ok(Header::Payload { seq, len });
        assert_eq!(parse_header(V1, "QUERY SELECT 1"), Ok(Header::Line));
        assert_eq!(parse_header(V1, "@1 5"), Ok(Header::Line));
        assert_eq!(parse_header(V1, "!12"), payload(None, 12));
        assert_eq!(parse_header(V1, "! 12 "), payload(None, 12));
        assert_eq!(parse_header(V1, "!abc"), Err("abc".into()));
        assert_eq!(parse_header(V1, "!-1"), Err("-1".into()));
        assert_eq!(parse_header(V2, "@1 5"), payload(Some(1), 5));
        assert_eq!(parse_header(V2, "@42 0"), payload(Some(42), 0));
        assert_eq!(
            parse_header(V2, &format!("@{} {}", u64::MAX, MAX_FRAME)),
            payload(Some(u64::MAX), MAX_FRAME)
        );
        for bad in [
            "",
            "@",
            "@1",
            "@ 5",
            "@x 5",
            "@1 x",
            "@-1 5",
            "@1 -5",
            "!5",
            "QUERY SELECT 1",
        ] {
            assert!(parse_header(V2, bad).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn frames_round_trip_in_every_envelope() {
        let mut r = Cursor::new(b"STATS\r\nQUERY SELECT 1\n".to_vec());
        let mut fr = reader(Envelope::V1);
        assert_eq!(fr.read_frame(&mut r).unwrap(), frame(None, "STATS"));
        assert_eq!(
            fr.read_frame(&mut r).unwrap(),
            frame(None, "QUERY SELECT 1")
        );
        assert_eq!(fr.read_frame(&mut r).unwrap(), None);

        // Length-prefixed payloads may span lines; the client picks that
        // framing by itself.
        let body = "INSPECT race 0.3\nline1\nline2";
        let wire = encode_request(body);
        assert!(wire.starts_with('!'));
        let mut r = Cursor::new(wire.into_bytes());
        assert_eq!(fr.read_frame(&mut r).unwrap(), frame(None, body));

        let mut r = Cursor::new(b"@7 14\nQUERY SELECT 1\n@9 3\nLAG\n".to_vec());
        let mut fr = reader(Envelope::V2);
        assert_eq!(
            fr.read_frame(&mut r).unwrap(),
            frame(Some(7), "QUERY SELECT 1")
        );
        assert_eq!(fr.read_frame(&mut r).unwrap(), frame(Some(9), "LAG"));
        assert_eq!(fr.read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_drained_and_typed() {
        for envelope in ENVELOPES {
            let n = MAX_FRAME + 3;
            let (mut wire, seq) = payload_frame(envelope, 5, &vec![b'x'; n]);
            let (next, next_seq) = payload_frame(envelope, 6, b"LAG");
            wire.extend(next);
            let mut r = Cursor::new(wire);
            let mut fr = reader(envelope);
            match fr.read_frame(&mut r) {
                Err(FrameError::Oversized { seq: s, declared }) => {
                    assert_eq!((s, declared), (seq, n));
                }
                other => panic!("{envelope:?}: expected Oversized, got {other:?}"),
            }
            // The connection is still usable: the next frame parses.
            assert_eq!(fr.read_frame(&mut r).unwrap(), frame(next_seq, "LAG"));
        }
    }

    #[test]
    fn bad_payload_utf8_keeps_sync() {
        for envelope in ENVELOPES {
            let (mut wire, seq) = payload_frame(envelope, 3, &[0xff, 0xfe, 0xfd, 0xfc]);
            let (next, next_seq) = payload_frame(envelope, 4, b"LAG");
            wire.extend(next);
            let mut r = Cursor::new(wire);
            let mut fr = reader(envelope);
            match fr.read_frame(&mut r) {
                Err(FrameError::BadPayload { seq: s }) => assert_eq!(s, seq),
                other => panic!("{envelope:?}: expected BadPayload, got {other:?}"),
            }
            assert_eq!(fr.read_frame(&mut r).unwrap(), frame(next_seq, "LAG"));
        }
    }

    #[test]
    fn bad_header_is_typed_and_v1_stays_in_sync() {
        let mut r = Cursor::new(b"!abc\nSTATS\n".to_vec());
        let mut fr = reader(Envelope::V1);
        match fr.read_frame(&mut r) {
            Err(FrameError::BadHeader(what)) => assert_eq!(what, "abc"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
        assert_eq!(fr.read_frame(&mut r).unwrap(), frame(None, "STATS"));

        let mut r = Cursor::new(b"QUERY SELECT 1\n".to_vec());
        match reader(Envelope::V2).read_frame(&mut r) {
            Err(FrameError::BadHeader(what)) => assert!(what.contains("@<seq> <len>"), "{what}"),
            other => panic!("expected BadHeader, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        for envelope in ENVELOPES {
            let (wire, _) = payload_frame(envelope, 1, &[b'x'; 100]);
            // Mid-header and mid-payload.
            for cut in [3, wire.len() - 40] {
                let mut r = Cursor::new(wire[..cut].to_vec());
                match reader(envelope).read_frame(&mut r) {
                    Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                    other => panic!("{envelope:?} cut {cut}: expected Io, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn negotiation_flips_the_reader_under_buffered_v2_frames() {
        // Handshake and the first v2 frames in one segment: the bytes
        // behind `HELLO v2` are already in the BufRead when the flip
        // happens.
        let mut r = Cursor::new(b"HELLO v9\nhello v2\n@1 3\nLAG\n".to_vec());
        let mut fr = FrameReader::new();
        let hello = fr.read_frame(&mut r).unwrap().unwrap();
        assert_eq!(
            fr.negotiate(&hello),
            Some(Err("unsupported protocol 'v9' (supported: v2)".into()))
        );
        assert_eq!(fr.envelope(), Envelope::V1);
        let hello = fr.read_frame(&mut r).unwrap().unwrap();
        assert_eq!(fr.negotiate(&hello), Some(Ok("v2")));
        let first = fr.read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Some(first.clone()), frame(Some(1), "LAG"));
        // Not a handshake: commands, and everything once on v2.
        assert_eq!(fr.negotiate(&first), None);
        assert_eq!(fr.negotiate(&hello), None);
        assert_eq!(fr.envelope(), Envelope::V2);
    }

    #[test]
    fn parse_all_verbs() {
        assert_eq!(
            parse_command("QUERY SELECT 1").unwrap(),
            Command::Query("SELECT 1".into())
        );
        assert_eq!(
            parse_command("prepare q1 SELECT a FROM t").unwrap(),
            Command::Prepare {
                name: "q1".into(),
                sql: "SELECT a FROM t".into()
            }
        );
        assert_eq!(
            parse_command("EXECUTE q1").unwrap(),
            Command::Execute {
                name: "q1".into(),
                args: None
            }
        );
        assert_eq!(
            parse_command("EXECUTE q1 (1, 'x', null)").unwrap(),
            Command::Execute {
                name: "q1".into(),
                args: Some("1, 'x', null".into())
            }
        );
        assert_eq!(
            parse_command("prepare q2 AS SELECT a FROM t WHERE a = $1").unwrap(),
            Command::Prepare {
                name: "q2".into(),
                sql: "SELECT a FROM t WHERE a = $1".into()
            }
        );
        assert_eq!(
            parse_command("BATCH INSERT INTO t VALUES (1)\u{1e}INSERT INTO t VALUES (2)").unwrap(),
            Command::Batch(vec![
                "INSERT INTO t VALUES (1)".into(),
                "INSERT INTO t VALUES (2)".into()
            ])
        );
        assert_eq!(
            parse_command("BATCH SELECT 1").unwrap(),
            Command::Batch(vec!["SELECT 1".into()])
        );
        assert_eq!(
            parse_command("DEALLOCATE q1").unwrap(),
            Command::Deallocate("q1".into())
        );
        assert_eq!(
            parse_command("EXPLAIN SELECT 1").unwrap(),
            Command::Explain {
                sql: "SELECT 1".into(),
                analyze: false
            }
        );
        assert_eq!(
            parse_command("EXPLAIN ANALYZE SELECT 1").unwrap(),
            Command::Explain {
                sql: "SELECT 1".into(),
                analyze: true
            }
        );
        assert_eq!(
            parse_command("explain analyze SELECT 1").unwrap(),
            Command::Explain {
                sql: "SELECT 1".into(),
                analyze: true
            }
        );
        assert_eq!(
            parse_command("TRACE").unwrap(),
            Command::Trace(TraceRequest::Recent(DEFAULT_TRACE_SPANS))
        );
        assert_eq!(
            parse_command("TRACE 5").unwrap(),
            Command::Trace(TraceRequest::Recent(5))
        );
        assert_eq!(
            parse_command("TRACE 0").unwrap(),
            Command::Trace(TraceRequest::Recent(1))
        );
        assert_eq!(
            parse_command("TRACE q17").unwrap(),
            Command::Trace(TraceRequest::Tree(17))
        );
        assert_eq!(
            parse_command("TRACE Q3").unwrap(),
            Command::Trace(TraceRequest::Tree(3))
        );
        assert_eq!(parse_command("TRACE five").unwrap_err().0, codes::PARSE);
        assert_eq!(parse_command("TRACE qx").unwrap_err().0, codes::PARSE);
        assert_eq!(
            parse_command("EXPLAIN ANALYZE").unwrap_err().0,
            codes::PARSE
        );
        assert_eq!(parse_command("STATS").unwrap(), Command::Stats);
        assert_eq!(parse_command("CHECKPOINT").unwrap(), Command::Checkpoint);
        assert_eq!(parse_command("REPLICA").unwrap(), Command::Replica);
        assert_eq!(parse_command("lag").unwrap(), Command::Lag);
        assert_eq!(parse_command("SHUTDOWN").unwrap(), Command::Shutdown);
        match parse_command("INSPECT race,sex 0.25\ndf = pd.read_csv(\"x.csv\")").unwrap() {
            Command::Inspect {
                columns,
                threshold,
                source,
            } => {
                assert_eq!(columns, vec!["race".to_string(), "sex".to_string()]);
                assert!((threshold - 0.25).abs() < 1e-12);
                assert!(source.contains("read_csv"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parse_errors_carry_codes() {
        assert_eq!(parse_command("FROBNICATE").unwrap_err().0, codes::UNKNOWN);
        assert_eq!(parse_command("QUERY").unwrap_err().0, codes::PARSE);
        assert_eq!(parse_command("PREPARE q1").unwrap_err().0, codes::PARSE);
        assert_eq!(
            parse_command("INSPECT race notanumber\nx").unwrap_err().0,
            codes::PARSE
        );
        assert_eq!(
            parse_command("INSPECT race 0.3").unwrap_err().0,
            codes::PARSE
        );
        assert_eq!(parse_command("BATCH").unwrap_err().0, codes::PARSE);
        assert_eq!(
            parse_command("BATCH SELECT 1\u{1e}\u{1e}SELECT 2")
                .unwrap_err()
                .0,
            codes::PARSE
        );
        assert_eq!(
            parse_command("EXECUTE q1 (1, 2").unwrap_err().0,
            codes::PARSE
        );
    }

    #[test]
    fn writer_emits_the_documented_shapes() {
        let mut buf = Vec::new();
        write_reply(&mut buf, None, '+', b"a,b\n1,2").unwrap();
        let err = error_body(codes::EXEC, "no such\ntable");
        write_reply(&mut buf, None, '-', err.as_bytes()).unwrap();
        write_reply(&mut buf, Some(3), '+', b"ok 1").unwrap();
        let err = error_body(codes::BUSY, "queue full\nretry");
        write_reply(&mut buf, Some(4), '-', err.as_bytes()).unwrap();
        write_reply(&mut buf, Some(5), '*', b"abc").unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "+7\na,b\n1,2\n-22\nERR_EXEC no such table\n\
             +3 4\nok 1\n-4 25\nERR_BUSY queue full retry\n*5 3\nabc\n"
        );
    }
}
