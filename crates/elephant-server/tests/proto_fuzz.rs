//! Seeded fuzz for the one frame reader, in every envelope (v1 bare
//! lines, v1 `!<n>` payloads, v2 `@<seq> <n>` payloads): truncated,
//! bit-flipped, oversized, and interleaved frames must always produce clean
//! typed errors — never a panic, never a hang, never an out-of-sync frame
//! silently accepted — and a read interrupted by a socket timeout must
//! resume where it stopped. Mirrors the WAL corruption fuzz
//! (`elephant-store/tests/wal_fuzz.rs`): the schedule is seeded through
//! `ELEPHANT_FAULT_SEED` so a failure reproduces exactly.

use elephant_server::protocol::{
    parse_header, Envelope, Frame, FrameError, FrameReader, Header, MAX_FRAME,
};
use elephant_server::{start, ElephantClient, PipelineClient, ServerConfig};
use etypes::Prng;
use std::io::{self, BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn seed() -> u64 {
    std::env::var("ELEPHANT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE1EFA)
}

/// The three request syntaxes the reader accepts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// v1 envelope, `payload\n`.
    V1Line,
    /// v1 envelope, `!<n>\n<payload>\n`.
    V1Len,
    /// v2 envelope, `@<seq> <n>\n<payload>\n`.
    V2,
}

const MODES: [Mode; 3] = [Mode::V1Line, Mode::V1Len, Mode::V2];

impl Mode {
    /// A reader in this mode's envelope, flipped the way a session flips it.
    fn reader(self) -> FrameReader {
        let mut reader = FrameReader::new();
        if self == Mode::V2 {
            let hello = Frame {
                seq: None,
                text: "HELLO v2".into(),
            };
            assert_eq!(reader.negotiate(&hello), Some(Ok("v2")));
        }
        reader
    }

    /// One frame's bytes and the frame the reader must hand back.
    fn encode(self, seq: u64, payload: &str) -> (Vec<u8>, Frame) {
        let (wire, seq) = match self {
            Mode::V1Line => (format!("{payload}\n"), None),
            Mode::V1Len => (format!("!{}\n{payload}\n", payload.len()), None),
            Mode::V2 => (format!("@{seq} {}\n{payload}\n", payload.len()), Some(seq)),
        };
        let text = payload.into();
        (wire.into_bytes(), Frame { seq, text })
    }
}

/// A well-formed stream of `n` request frames with increasing seqs and
/// seeded printable payloads. Returns the bytes and the expected frames.
/// The draws do not depend on the mode, so every mode sees the same corpus.
fn valid_stream(rng: &mut Prng, n: usize, mode: Mode) -> (Vec<u8>, Vec<Frame>) {
    let mut bytes = Vec::new();
    let mut frames = Vec::new();
    let mut seq = 0u64;
    for _ in 0..n {
        seq += 1 + rng.below(3) as u64;
        let len = rng.below(40);
        let payload: String = (0..len)
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        let (wire, frame) = mode.encode(seq, &payload);
        bytes.extend(wire);
        frames.push(frame);
    }
    (bytes, frames)
}

/// Drive a `FrameReader` over `r` until EOF or a hard error, collecting
/// what it yields. The parser contract under any input: terminate (no hang
/// on finite input), never panic, and classify every failure as a typed
/// `FrameError`. A `Timeout` means "call again" and is counted.
fn drain_from(r: &mut impl BufRead, mode: Mode) -> (Vec<Frame>, Option<FrameError>, usize) {
    let mut reader = mode.reader();
    let mut got = Vec::new();
    let mut timeouts = 0;
    // An upper bound far above any frame count the input could hold: the
    // loop finishing is itself an assertion against livelock.
    for _ in 0..10_000 {
        match reader.read_frame(r) {
            Ok(Some(frame)) => got.push(frame),
            Ok(None) => return (got, None, timeouts),
            Err(FrameError::Timeout) => timeouts += 1,
            // Recoverable protocol errors: the reader stays in sync and
            // the stream continues.
            Err(FrameError::Oversized { .. } | FrameError::BadPayload { .. }) => {
                got.clear(); // sync point changed; only later frames matter
            }
            // A bad `!<n>` length costs a v1 connection one line, nothing
            // more; a bad v2 header is the end of the stream.
            Err(FrameError::BadHeader(_)) if reader.envelope() == Envelope::V1 => got.clear(),
            Err(e) => return (got, Some(e), timeouts),
        }
    }
    panic!("frame reader failed to terminate");
}

fn drain(bytes: &[u8], mode: Mode) -> (Vec<Frame>, Option<FrameError>) {
    let (got, err, _) = drain_from(&mut Cursor::new(bytes), mode);
    (got, err)
}

#[test]
fn clean_streams_round_trip() {
    for mode in MODES {
        let mut rng = Prng::from_stream(seed(), 21);
        for iter in 0..50 {
            let n = 1 + rng.below(8);
            let (bytes, want) = valid_stream(&mut rng, n, mode);
            let (got, err) = drain(&bytes, mode);
            assert!(
                err.is_none(),
                "{mode:?} iter {iter}: clean stream errored: {err:?}"
            );
            assert_eq!(got, want, "{mode:?} iter {iter}: clean stream mangled");
        }
    }
}

#[test]
fn truncated_streams_yield_a_prefix_then_a_typed_error() {
    for mode in MODES {
        let mut rng = Prng::from_stream(seed(), 22);
        for iter in 0..80 {
            let n = 1 + rng.below(8);
            let (bytes, want) = valid_stream(&mut rng, n, mode);
            let cut = rng.below(bytes.len());
            let (got, err) = drain(&bytes[..cut], mode);
            assert!(
                got.len() <= want.len() && got == want[..got.len()],
                "{mode:?} iter {iter}: truncation fabricated frames: {got:?}"
            );
            // A cut can land exactly on a frame boundary (clean EOF) or
            // mid-frame (UnexpectedEof) — both are typed, neither panics.
            if let Some(e) = err {
                match e {
                    FrameError::Io(io) => {
                        assert_eq!(
                            io.kind(),
                            std::io::ErrorKind::UnexpectedEof,
                            "{mode:?} iter {iter}: wrong error kind"
                        );
                    }
                    FrameError::BadHeader(_) => {} // cut produced a short header line
                    other => panic!("{mode:?} iter {iter}: unexpected error {other:?}"),
                }
            }
        }
    }
}

#[test]
fn bit_flipped_streams_never_panic_and_errors_stay_typed() {
    for mode in MODES {
        let mut rng = Prng::from_stream(seed(), 23);
        for _ in 0..150 {
            let n = 1 + rng.below(8);
            let (mut bytes, _) = valid_stream(&mut rng, n, mode);
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(8);
            }
            // Whatever the flips hit — header sigil, seq digits, declared
            // length, payload, framing newlines — drain() must terminate
            // with frames and/or one typed error. The assertions live
            // inside drain(); a panic or hang here is the failure.
            let _ = drain(&bytes, mode);
        }
    }
}

#[test]
fn oversized_declared_lengths_are_drained_and_the_stream_resyncs() {
    // Bare v1 lines declare no length; the two payload syntaxes do.
    for mode in [Mode::V1Len, Mode::V2] {
        let mut rng = Prng::from_stream(seed(), 24);
        for iter in 0..30 {
            // An oversized frame (declared just over MAX_FRAME, body
            // present) interleaved between two valid frames: the reader
            // must refuse it as Oversized, swallow its body, and then hand
            // back the trailing valid frame.
            let huge = 1024 * 1024 + 1 + rng.below(512);
            let (mut bytes, first) = mode.encode(1, "ok");
            let (big, refused) = mode.encode(2, &"x".repeat(huge));
            let (tail, last) = mode.encode(3, "tail");
            bytes.extend(big);
            bytes.extend(tail);

            let mut cursor = Cursor::new(bytes);
            let mut reader = mode.reader();
            assert_eq!(reader.read_frame(&mut cursor).unwrap(), Some(first));
            match reader.read_frame(&mut cursor) {
                Err(FrameError::Oversized { seq, declared }) => {
                    assert_eq!((seq, declared), (refused.seq, huge));
                }
                other => panic!("{mode:?} iter {iter}: expected Oversized, got {other:?}"),
            }
            assert_eq!(
                reader.read_frame(&mut cursor).unwrap(),
                Some(last),
                "{mode:?} iter {iter}: reader lost sync after draining the oversized body"
            );
            assert_eq!(reader.read_frame(&mut cursor).unwrap(), None);
        }
    }
}

#[test]
fn header_parser_rejects_garbage_without_panicking() {
    let mut rng = Prng::from_stream(seed(), 25);
    let payload = |seq, len| Ok(Header::Payload { seq, len });
    // Valid headers parse; every seeded mutation either still parses (the
    // flip hit a digit and made another digit) or fails with a message —
    // never a panic.
    assert_eq!(parse_header(Envelope::V2, "@7 12"), payload(Some(7), 12));
    assert_eq!(parse_header(Envelope::V2, "@0 0"), payload(Some(0), 0));
    for kind in [
        "", "@", "@ ", "@x 3", "@3", "@3 x", "#3 4", "@3 4 5", "@-1 4",
    ] {
        assert!(
            parse_header(Envelope::V2, kind).is_err(),
            "{kind:?} should not parse"
        );
    }
    assert_eq!(parse_header(Envelope::V1, "!345"), payload(None, 345));
    assert_eq!(parse_header(Envelope::V1, "@7 12"), Ok(Header::Line));
    for kind in ["!", "!x", "!-1", "!3 4"] {
        assert!(
            parse_header(Envelope::V1, kind).is_err(),
            "{kind:?} should not parse"
        );
    }
    for _ in 0..500 {
        for (envelope, valid) in [(Envelope::V2, "@12 345"), (Envelope::V1, "!345")] {
            let mut header = valid.as_bytes().to_vec();
            for _ in 0..1 + rng.below(3) {
                let i = rng.below(header.len());
                header[i] ^= 1 << rng.below(8);
            }
            let _ = parse_header(envelope, &String::from_utf8_lossy(&header));
        }
    }
}

/// A transport that times out: it serves `data` but stops short at every
/// position in `stalls` (ascending), answering one `WouldBlock` there before
/// going on — what a socket read timeout looks like to the reader.
struct Stalling<'a> {
    data: &'a [u8],
    pos: usize,
    stalls: &'a [usize],
    stalled_at: Option<usize>,
}

impl Read for Stalling<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.stalls.contains(&self.pos) && self.stalled_at != Some(self.pos) {
            self.stalled_at = Some(self.pos);
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let next_stall = self.stalls.iter().copied().find(|&s| s > self.pos);
        let end = next_stall.unwrap_or(self.data.len());
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn reads_resume_after_a_timeout_anywhere_in_a_frame() {
    for mode in MODES {
        let mut rng = Prng::from_stream(seed(), 27);
        // A valid frame, an oversized one (payload syntaxes only), a valid
        // tail: timeouts can land mid-header, mid-payload and mid-drain.
        let (mut bytes, first) = mode.encode(1, "first payload");
        let header_stall = 2; // inside the first header (or bare line)
        let payload_stall = bytes.len() - 4; // inside the first payload
        let mut stalls = vec![header_stall, payload_stall];
        let mut want = vec![first];
        if mode != Mode::V1Line {
            let (big, _) = mode.encode(2, &"x".repeat(MAX_FRAME + 100));
            stalls.push(bytes.len() + 3); // inside the oversized header
            stalls.push(bytes.len() + MAX_FRAME / 2); // mid-drain
            bytes.extend(big);
            want.clear(); // drain_from() restarts its list at an Oversized
        }
        let (tail, last) = mode.encode(3, "tail");
        bytes.extend(tail);
        want.push(last);
        // Plus seeded stalls anywhere, boundaries included.
        for _ in 0..40 {
            stalls.push(rng.below(bytes.len()));
        }
        stalls.sort_unstable();
        stalls.dedup();

        let transport = Stalling {
            data: &bytes,
            pos: 0,
            stalls: &stalls,
            stalled_at: None,
        };
        let (got, err, timeouts) = drain_from(&mut BufReader::new(transport), mode);
        assert!(err.is_none(), "{mode:?}: stalled stream errored: {err:?}");
        assert_eq!(got, want, "{mode:?}: a timeout lost or mangled a frame");
        assert_eq!(timeouts, stalls.len(), "{mode:?}: every stall surfaces");
    }
}

/// Read one response status line and its body off a raw socket.
fn read_raw_reply(reader: &mut BufReader<TcpStream>) -> (String, String) {
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let status = status.trim_end().to_string();
    let len: usize = status[1..].rsplit(' ').next().unwrap().parse().unwrap();
    let mut body = vec![0u8; len + 1];
    reader.read_exact(&mut body).unwrap();
    body.pop();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn handshake_and_first_v2_frames_in_one_segment() {
    let handle = start(ServerConfig::default()).unwrap();
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    // One write: the v2 frames are already in the server's read buffer when
    // `HELLO v2` flips the envelope.
    let mut segment = b"HELLO v2\n".to_vec();
    for (seq, command) in [(1, "QUERY SELECT 1 AS x"), (2, "NOPE"), (3, "SHUTDOWN")] {
        segment.extend(Mode::V2.encode(seq, command).0);
    }
    writer.write_all(&segment).unwrap();
    assert_eq!(read_raw_reply(&mut reader), ("+2".into(), "v2".into()));
    assert_eq!(
        read_raw_reply(&mut reader),
        ("+1 4".into(), "x\n1\n".into())
    );
    let (status, body) = read_raw_reply(&mut reader);
    assert!(status.starts_with("-2 "), "{status}");
    assert_eq!(body, "ERR_UNKNOWN_VERB unknown verb 'NOPE'");
    assert_eq!(
        read_raw_reply(&mut reader),
        ("+3 8".into(), "draining".into())
    );
    drop((writer, reader));
    handle.join();
}

#[test]
fn live_server_survives_a_seeded_frame_storm() {
    let handle = start(ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    for mode in MODES {
        let mut rng = Prng::from_stream(seed(), 26);
        for iter in 0..25 {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            if mode == Mode::V2 {
                stream.write_all(b"HELLO v2\n").unwrap();
                let mut ack = [0u8; 6]; // "+2\nv2\n"
                stream.read_exact(&mut ack).unwrap();
                assert_eq!(&ack, b"+2\nv2\n", "iter {iter}: handshake broke");
            }

            // A burst of valid frames with seeded mutations sprinkled in.
            let n = 2 + rng.below(5);
            let (mut bytes, _) = valid_stream(&mut rng, n, mode);
            match rng.below(3) {
                0 => {
                    let cut = rng.below(bytes.len());
                    bytes.truncate(cut);
                }
                1 => {
                    for _ in 0..1 + rng.below(5) {
                        let i = rng.below(bytes.len());
                        bytes[i] ^= 1 << rng.below(8);
                    }
                }
                _ => {
                    let at = rng.below(bytes.len());
                    let splice: &[u8] = match mode {
                        Mode::V2 => b"@999999 999999999999\n",
                        _ => b"!999999999999\n",
                    };
                    bytes.splice(at..at, splice.iter().copied());
                }
            }
            let _ = stream.write_all(&bytes);
            let _ = stream.flush();
            // Drain whatever the server answers (typed errors and/or
            // results) until it closes or goes quiet; a read timeout here
            // would mean the session hung, which fails the test via the 5 s
            // deadline never being hit on a healthy server.
            drop(stream);
        }
    }

    // The storm left the server healthy: fresh v1 and v2 connections work.
    let mut v1 = ElephantClient::connect(addr).unwrap();
    v1.query_raw("CREATE TABLE alive (a int)").unwrap();
    v1.query_raw("INSERT INTO alive VALUES (1)").unwrap();
    let mut v2 = PipelineClient::connect(addr).unwrap();
    assert_eq!(
        v2.send("QUERY SELECT count(*) AS n FROM alive").unwrap(),
        "n\n1\n"
    );
    v1.shutdown().unwrap();
    drop((v1, v2));
    handle.join();
}
