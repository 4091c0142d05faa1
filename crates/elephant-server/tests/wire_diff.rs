//! v1 ≡ v2 differential: one seeded command script, sent over a v1
//! connection, a v2 connection at depth 1 and a v2 connection at depth 64,
//! each against its own fresh server, must produce the same reply bodies
//! and the same error bodies position by position, and leave the same
//! counters behind. The envelopes share one frame reader, one session loop
//! and one admission function; this is the test that they also share one
//! behaviour. (`proto_v2.rs` stays the guard on v1's frozen bytes.)

use elephant_server::protocol::{encode_request, BATCH_SEP, MAX_FRAME};
use elephant_server::{start, PipelineClient, ServerConfig};
use etypes::Prng;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

fn seed() -> u64 {
    std::env::var("ELEPHANT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD1FF)
}

/// A reply body, or the whole error body (`<CODE> <message>`).
type Reply = Result<String, String>;

/// One connection in one of the three shapes under test.
enum Wire {
    /// Raw v1: bare lines and `!<n>` payloads, one command per round trip.
    V1 {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
    /// v2 through the pipelining client, `depth` commands per round trip.
    V2 {
        client: PipelineClient,
        depth: usize,
    },
}

impl Wire {
    fn v1(addr: SocketAddr) -> Wire {
        let writer = TcpStream::connect(addr).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Wire::V1 { reader, writer }
    }

    fn v2(addr: SocketAddr, depth: usize) -> Wire {
        let client = PipelineClient::connect(addr).unwrap();
        Wire::V2 { client, depth }
    }

    /// Write every command, then read every reply.
    fn burst(&mut self, commands: &[String]) -> Vec<Reply> {
        match self {
            Wire::V1 { reader, writer } => {
                let wire: String = commands.iter().map(|c| encode_request(c)).collect();
                writer.write_all(wire.as_bytes()).unwrap();
                let mut replies = Vec::new();
                for _ in commands {
                    let mut status = String::new();
                    reader.read_line(&mut status).unwrap();
                    let len: usize = status[1..].trim_end().parse().unwrap();
                    let mut body = vec![0u8; len + 1];
                    reader.read_exact(&mut body).unwrap();
                    body.pop();
                    let body = String::from_utf8(body).unwrap();
                    replies.push(match &status[..1] {
                        "+" => Ok(body),
                        _ => Err(body),
                    });
                }
                replies
            }
            Wire::V2 { client, .. } => client
                .pipeline(commands)
                .unwrap()
                .into_iter()
                .map(|reply| reply.map_err(|e| e.to_string()))
                .collect(),
        }
    }

    /// Run the script at this connection's depth.
    fn run(&mut self, commands: &[String]) -> Vec<Reply> {
        let depth = match self {
            Wire::V1 { .. } => 1,
            Wire::V2 { depth, .. } => *depth,
        };
        commands
            .chunks(depth)
            .flat_map(|window| self.burst(window))
            .collect()
    }
}

/// The seeded script. Two tables (`wd` and `big` hash to different shards
/// at two shards, so the join scatter-gathers and the `;`-script runs
/// two-phase commit there), a prepared point lookup, and one of each way a
/// command can fail.
fn script(rng: &mut Prng) -> Vec<String> {
    let mut commands = vec![
        "QUERY CREATE TABLE wd (a int, b text)".to_string(),
        "QUERY CREATE TABLE big (a int)".to_string(),
    ];
    let mut keys = Vec::new();
    for _ in 0..24 {
        let key = rng.below(10_000);
        keys.push(key);
        commands.push(format!("QUERY INSERT INTO wd VALUES ({key}, 'v{key}')"));
    }
    // 24 000 six-digit rows: the full scan is well over two 64 KiB chunks.
    for block in 0..3 {
        let values: Vec<String> = (0..8000)
            .map(|i| format!("({})", 100_000 + block * 8000 + i))
            .collect();
        commands.push(format!("QUERY INSERT INTO big VALUES {}", values.join(",")));
    }
    commands.push("PREPARE byid AS SELECT b FROM wd WHERE a = $1".into());
    for _ in 0..40 {
        commands.push(match rng.below(4) {
            0 => {
                let key = rng.below(10_000);
                format!("QUERY INSERT INTO wd VALUES ({key}, 'late{key}')")
            }
            1 => "QUERY SELECT count(*) AS n FROM wd".into(),
            // Point EXECUTEs: known keys and, now and then, a miss.
            _ if rng.below(8) == 0 => "EXECUTE byid (-1)".into(),
            _ => format!("EXECUTE byid ({})", keys[rng.below(keys.len())]),
        });
    }
    let sep = BATCH_SEP.to_string();
    commands.extend([
        "QUERY SELECT a FROM big ORDER BY a".to_string(),
        "QUERY SELECT a FROM nowhere".into(),
        "EXECUTE byid (1, 2)".into(),
        [
            "BATCH INSERT INTO wd VALUES (10001, 'batched')",
            "SELECT a FROM nowhere",
            "INSERT INTO wd VALUES (10002, 'never')",
        ]
        .join(&sep),
        "FROBNICATE the server".into(),
        // The newline makes the v1 side length-prefix it, like v2 always does.
        format!("QUERY SELECT 1\n{}", "x".repeat(MAX_FRAME + 1)),
        "QUERY SELECT count(*) AS n FROM wd INNER JOIN big ON wd.a = big.a".into(),
        "QUERY INSERT INTO wd VALUES (10003, 'txn'); INSERT INTO big VALUES (10003)".into(),
        "EXPLAIN SELECT b FROM wd WHERE a = 1".into(),
        "SET exec_mode columnar".into(),
        "QUERY SELECT count(*) AS n, sum(a) AS s FROM big".into(),
        "SET exec_mode sideways".into(),
        "CHECKPOINT".into(),
        "DEALLOCATE byid".into(),
        "EXECUTE byid (1)".into(),
        "QUERY SELECT a, b FROM wd ORDER BY a, b".into(),
    ]);
    commands
}

/// The counters the three connections must leave identical: everything
/// `STATS` prints except wall-clock values, and except `pipelined_frames`,
/// `chunks_streamed` and the streaming path's `result_buffer_peak_bytes`
/// gauge, which are exactly what pipelining and chunking add. (Depth 64
/// never exceeds the default queue capacity of 64, so no admission attempt
/// is refused and even the span counts agree.)
fn comparable(stats: &str) -> BTreeMap<String, String> {
    stats
        .lines()
        .filter_map(|line| line.split_once(' '))
        .filter(|(key, _)| {
            let key = key.rsplit('.').next().unwrap_or(key);
            !(key.ends_with("_us")
                || [
                    "uptime_s",
                    "started_at_unix",
                    "pipelined_frames",
                    "chunks_streamed",
                    "result_buffer_peak_bytes",
                ]
                .contains(&key))
        })
        .map(|(key, value)| (key.to_string(), value.to_string()))
        .collect()
}

/// Numeric counters as `after - before`; everything else as it stands.
fn deltas(
    before: &BTreeMap<String, String>,
    after: &BTreeMap<String, String>,
) -> BTreeMap<String, String> {
    after
        .iter()
        .map(|(key, value)| {
            let then = before.get(key).and_then(|v| v.parse::<i64>().ok());
            let delta = match (value.parse::<i64>(), then) {
                (Ok(now), Some(then)) => (now - then).to_string(),
                _ => value.clone(),
            };
            (key.clone(), delta)
        })
        .collect()
}

/// What one connection observed: every reply, and the counter deltas over
/// the script.
struct Observed {
    replies: Vec<Reply>,
    stats: BTreeMap<String, String>,
}

fn observe(shards: usize, commands: &[String], open: impl Fn(SocketAddr) -> Wire) -> Observed {
    let config = ServerConfig {
        shards,
        ..ServerConfig::default()
    };
    let handle = start(config).unwrap();
    let mut wire = open(handle.local_addr());
    let stats = |wire: &mut Wire| {
        let body = wire.burst(&["STATS".to_string()]).remove(0).unwrap();
        comparable(&body)
    };
    let before = stats(&mut wire);
    let mut replies = wire.run(commands);
    let after = stats(&mut wire);
    // A command during the drain. Both frames go out in one write on every
    // connection, so the session reads the second one as soon as SHUTDOWN
    // is acknowledged — before its idle poll could close the connection.
    replies.extend(wire.burst(&["SHUTDOWN".into(), "QUERY SELECT 1 AS x".into()]));
    drop(wire);
    handle.join();
    Observed {
        replies,
        stats: deltas(&before, &after),
    }
}

#[test]
fn one_script_three_wires_same_replies_and_counters() {
    for shards in [1, 2] {
        let commands = script(&mut Prng::from_stream(seed(), 31));
        let v1 = observe(shards, &commands, Wire::v1);

        // The script did what it says: streamed-size result, each failure
        // mode with its code, the drain refusal last.
        let position = |needle: &str| commands.iter().position(|c| c.starts_with(needle));
        let reply_to = |needle: &str| &v1.replies[position(needle).unwrap()];
        assert!(reply_to("QUERY SELECT a FROM big").as_ref().unwrap().len() > 2 * 64 * 1024);
        for (needle, code) in [
            ("QUERY SELECT a FROM nowhere", "ERR_EXEC"),
            ("EXECUTE byid (1, 2)", "ERR_EXEC"),
            ("BATCH", "ERR_EXEC batch statement 2/3:"),
            ("FROBNICATE", "ERR_UNKNOWN_VERB"),
            ("QUERY SELECT 1\n", "ERR_OVERSIZED"),
            ("SET exec_mode sideways", "ERR_PARSE"),
        ] {
            let error = reply_to(needle).as_ref().unwrap_err();
            assert!(error.starts_with(code), "shards={shards} {needle}: {error}");
        }
        assert_eq!(v1.replies.len(), commands.len() + 2);
        assert_eq!(
            v1.replies.last().unwrap().as_ref().unwrap_err(),
            "ERR_DRAINING server is draining"
        );
        if shards == 2 {
            assert_eq!(v1.stats["shard_scatter_gather"], "1");
            assert_eq!(v1.stats["txn_commits"], "1");
        }

        for depth in [1, 64] {
            let v2 = observe(shards, &commands, |addr| Wire::v2(addr, depth));
            for (i, (a, b)) in v1.replies.iter().zip(&v2.replies).enumerate() {
                let command = commands.get(i).map_or("(drain tail)", |c| c.as_str());
                let shown = &command[..command.len().min(60)];
                assert_eq!(a, b, "shards={shards} depth={depth} reply {i} to `{shown}`");
            }
            assert_eq!(v1.replies.len(), v2.replies.len());
            assert_eq!(v1.stats, v2.stats, "shards={shards} depth={depth}");
        }
    }
}
