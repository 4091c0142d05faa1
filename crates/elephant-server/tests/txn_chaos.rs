//! Two-phase-commit crash chaos: four writers stream cross-shard
//! transactions (one row into each of two tables on different shards) on a
//! 4-shard `--fsync always` server while a `kill -9` lands inside an armed
//! 2PC phase — before the prepare append, before the prepare fsync, before
//! the decision write, and after the decision but before the commit marker.
//! A `delay_us` failpoint widens each phase so the kill reliably interrupts
//! it.
//!
//! Invariants after restart, per writer pair `(a, b)`:
//!
//! * every **acknowledged** transaction is fully present on BOTH shards
//!   (the ack happens only after the commit decision is durable);
//! * no transaction is half-applied: `a` and `b` hold byte-identical value
//!   sets (at most the one in-flight transaction beyond the acked prefix,
//!   committed on both or on neither — presumed abort);
//! * the recovered tables are byte-identical to a single-shard oracle
//!   server fed the same committed prefix.
//!
//! The CI `txn-chaos` job runs this once per phase (`TXN_CHAOS_PHASE`)
//! under seeds 1/2/3; without the variable every phase runs in sequence.

mod support;

use elephant_server::{shard_of, ElephantClient};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::ServerChild;

const SHARDS: usize = 4;
const WRITERS: usize = 4;
/// Every writer needs at least this many acknowledged transactions before
/// the kill, so recovery replays real prepare/commit frames on every shard.
const MIN_ACKS: u64 = 2;

/// The armed 2PC phase windows, in protocol order.
const PHASES: [&str; 4] = [
    "txn.prepare_append",
    "txn.prepare_fsync",
    "txn.decision_write",
    "txn.commit_append",
];

fn serve(dir: &Path, shards: usize, faults: Option<&str>) -> ServerChild {
    let shards = shards.to_string();
    let args = ["--no-data", "--fsync", "always", "--shards", &shards];
    ServerChild::spawn(dir, &args, faults)
}

/// Writer `i`'s table pair, provably split across two shards.
fn pair(i: usize) -> (String, String) {
    let a = (0..64)
        .map(|j| format!("w{i}t{j}"))
        .next()
        .expect("name pool");
    let b = (1..64)
        .map(|j| format!("w{i}t{j}"))
        .find(|n| shard_of(n, SHARDS) != shard_of(&a, SHARDS))
        .expect("64 names must hit at least two of four shards");
    (a, b)
}

fn select_all(c: &mut ElephantClient, table: &str) -> String {
    c.query_raw(&format!("SELECT x FROM {table} ORDER BY x"))
        .unwrap()
}

fn run_phase(phase: &str) {
    let dir = std::env::temp_dir().join(format!(
        "elephant-txn-chaos-{}-{}",
        phase.replace('.', "_"),
        std::process::id()
    ));
    let oracle_dir = dir.join("oracle");
    let _ = std::fs::remove_dir_all(&dir);

    // Arm the phase window: every hit of the site sleeps, so a randomly
    // timed kill lands inside this phase with high probability (the armed
    // site dominates transaction latency).
    let spec = format!("{phase}=delay_us:250000");
    let server = serve(&dir, SHARDS, Some(&spec));
    let addr = server.addr();

    let mut admin = ElephantClient::connect(addr).unwrap();
    let pairs: Vec<(String, String)> = (0..WRITERS).map(pair).collect();
    for (a, b) in &pairs {
        admin
            .query_raw(&format!("CREATE TABLE {a} (x int)"))
            .unwrap();
        admin
            .query_raw(&format!("CREATE TABLE {b} (x int)"))
            .unwrap();
    }

    // Writer i streams transaction k: one row into each half of its pair.
    // The ack counter moves only after the server acknowledged, so the
    // acked set is always the contiguous prefix 1..=count.
    let acks: Vec<Arc<AtomicU64>> = (0..WRITERS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut writers = Vec::new();
    for (i, (a, b)) in pairs.iter().enumerate() {
        let (a, b) = (a.clone(), b.clone());
        let acked = Arc::clone(&acks[i]);
        writers.push(std::thread::spawn(move || {
            let mut c = match ElephantClient::connect(addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            for k in 1u64..=100_000 {
                let sql = format!("INSERT INTO {a} VALUES ({k}); INSERT INTO {b} VALUES ({k})");
                match c.query_raw(&sql) {
                    Ok(reply) => {
                        assert_eq!(reply, "ok 1", "{sql}");
                        acked.store(k, Ordering::SeqCst);
                    }
                    Err(_) => return, // the kill landed
                }
            }
        }));
    }

    let deadline = Instant::now() + Duration::from_secs(120);
    while acks.iter().any(|a| a.load(Ordering::SeqCst) < MIN_ACKS) {
        assert!(
            Instant::now() < deadline,
            "phase {phase}: writers too slow to reach MIN_ACKS"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // All writers are mid-stream; the armed delay makes it overwhelmingly
    // likely at least one transaction sits inside the phase window now.
    server.kill_keep_data();
    for w in writers {
        w.join().unwrap();
    }
    let acked: Vec<u64> = acks.iter().map(|a| a.load(Ordering::SeqCst)).collect();

    // Restart with the failpoint disarmed: recovery replays per-shard WALs
    // and resolves prepared groups against the coordinator decision log.
    let server = serve(&dir, SHARDS, None);
    let mut c = ElephantClient::connect(server.addr()).unwrap();
    for (i, (a, b)) in pairs.iter().enumerate() {
        let want = acked[i];
        assert!(want >= MIN_ACKS);
        let body_a = select_all(&mut c, a);
        let body_b = select_all(&mut c, b);
        assert_eq!(
            body_a, body_b,
            "phase {phase}: transaction half-applied between {a} and {b}"
        );
        let rows: Vec<u64> = body_a.lines().skip(1).map(|l| l.parse().unwrap()).collect();
        let total = rows.len() as u64;
        assert!(
            (want..=want + 1).contains(&total),
            "phase {phase}: {a} holds {total} rows for {want} acks"
        );
        assert_eq!(
            rows,
            (1..=total).collect::<Vec<u64>>(),
            "phase {phase}: {a} recovered a non-contiguous prefix"
        );

        // Byte-identical against a single-shard oracle fed the same
        // committed prefix.
        let oracle = serve(&oracle_dir, 1, None);
        let mut o = ElephantClient::connect(oracle.addr()).unwrap();
        o.query_raw(&format!("CREATE TABLE {a} (x int)")).unwrap();
        for k in 1..=total {
            o.query_raw(&format!("INSERT INTO {a} VALUES ({k})"))
                .unwrap();
        }
        let oracle_body = select_all(&mut o, a);
        assert_eq!(
            body_a, oracle_body,
            "phase {phase}: {a} diverged from the 1-shard oracle"
        );
    }

    // The decision log survived and the server still serves transactions.
    let (a, b) = &pairs[0];
    let next = select_all(&mut c, a).lines().count() as u64; // rows + header
    assert_eq!(
        c.query_raw(&format!(
            "INSERT INTO {a} VALUES ({next}); INSERT INTO {b} VALUES ({next})"
        ))
        .unwrap(),
        "ok 1",
        "phase {phase}: post-recovery transaction failed"
    );
}

#[test]
fn acked_transactions_survive_kill_nine_in_every_2pc_phase() {
    match std::env::var("TXN_CHAOS_PHASE") {
        Ok(phase) => {
            assert!(
                PHASES.contains(&phase.as_str()),
                "unknown TXN_CHAOS_PHASE '{phase}' (expected one of {PHASES:?})"
            );
            run_phase(&phase);
        }
        Err(_) => {
            for phase in PHASES {
                run_phase(phase);
            }
        }
    }
}
