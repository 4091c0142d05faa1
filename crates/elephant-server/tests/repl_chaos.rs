//! Seeded replication chaos: kill followers and leaders mid-stream and
//! hold the topology to the replication invariants:
//!
//! 1. no write acknowledged by the leader is ever missing from a follower
//!    once it reports caught-up — across follower restarts, leader
//!    restarts, and checkpoint-forced snapshot re-bootstraps,
//! 2. a follower that fell behind a WAL truncation converges via a fresh
//!    snapshot instead of diverging,
//! 3. every process drains cleanly through `SHUTDOWN` — no deadlocks.
//!
//! The workload schedule is seeded through `ELEPHANT_FAULT_SEED` (CI runs
//! a fixed seed matrix), so a failure reproduces exactly.

use elephant_server::{start, ElephantClient, ServerConfig};
use etypes::Prng;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serialize tests: each one spins up multiple servers and threads, and
/// the leader-restart test rebinds a fixed port.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn seed() -> u64 {
    std::env::var("ELEPHANT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE1EFA)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "elephant-repl-chaos-{}-{name}-{}",
        std::process::id(),
        seed()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn leader_config(dir: &Path, repl_addr: &str) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        repl_addr: Some(repl_addr.to_string()),
        ..ServerConfig::default()
    }
}

fn follower_config(leader_repl: &str) -> ServerConfig {
    ServerConfig {
        replicate_from: Some(leader_repl.to_string()),
        ..ServerConfig::default()
    }
}

fn wait_until(what: &str, mut ok: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !ok() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn wait_caught_up(leader: &mut ElephantClient, follower: &mut ElephantClient) {
    let committed = ElephantClient::parse_watermark(&leader.lag().unwrap(), "committed_lsn")
        .expect("leader LAG carries committed_lsn");
    wait_until("follower catch-up", || {
        ElephantClient::parse_watermark(&follower.lag().unwrap(), "applied_lsn")
            .is_some_and(|applied| applied >= committed)
    });
}

/// Every acked value, as the follower serves it, in insertion order.
fn values_on(c: &mut ElephantClient) -> Vec<i64> {
    c.query_raw("SELECT v FROM acked ORDER BY v")
        .unwrap()
        .lines()
        .skip(1)
        .map(|l| l.parse().unwrap())
        .collect()
}

#[test]
fn follower_restart_across_checkpoint_resyncs_from_snapshot() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Prng::from_stream(seed(), 1);
    let dir = tmp_dir("follower-restart");

    let leader_handle = start(leader_config(&dir, "127.0.0.1:0")).unwrap();
    let repl_addr = leader_handle.repl_addr().unwrap().to_string();
    let mut leader = ElephantClient::connect(leader_handle.local_addr()).unwrap();
    leader.query_raw("CREATE TABLE acked (v int)").unwrap();

    let mut acked: Vec<i64> = Vec::new();
    let mut next_v = 0i64;
    let mut write_batch = |leader: &mut ElephantClient, acked: &mut Vec<i64>, n: usize| {
        for _ in 0..n {
            leader
                .query_raw(&format!("INSERT INTO acked VALUES ({next_v})"))
                .unwrap();
            acked.push(next_v);
            next_v += 1;
        }
    };

    // First follower life: sees the steady-state stream.
    let f_handle = start(follower_config(&repl_addr)).unwrap();
    let mut f = ElephantClient::connect(f_handle.local_addr()).unwrap();
    write_batch(&mut leader, &mut acked, 3 + rng.below(6));
    wait_caught_up(&mut leader, &mut f);
    assert_eq!(values_on(&mut f), acked);
    f.shutdown().unwrap();
    drop(f);
    f_handle.join();

    // While the follower is down: more writes, then a checkpoint truncates
    // the WAL out from under the follower's resume LSN, then more writes.
    write_batch(&mut leader, &mut acked, 3 + rng.below(6));
    leader.checkpoint().unwrap();
    write_batch(&mut leader, &mut acked, 3 + rng.below(6));

    // Second follower life: the leader cannot replay from the follower's
    // LSN (truncated), so convergence must come from a fresh snapshot.
    let f_handle = start(follower_config(&repl_addr)).unwrap();
    let mut f = ElephantClient::connect(f_handle.local_addr()).unwrap();
    wait_caught_up(&mut leader, &mut f);
    assert_eq!(values_on(&mut f), acked, "acked write lost across resync");
    let stats = f.stats().unwrap();
    assert!(
        ElephantClient::parse_watermark(&stats, "repl_snapshots_loaded").unwrap() >= 1,
        "follower converged without a snapshot?\n{stats}"
    );

    f.shutdown().unwrap();
    drop(f);
    f_handle.join();
    leader.shutdown().unwrap();
    drop(leader);
    leader_handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn leader_restart_mid_stream_loses_no_acked_write() {
    let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = Prng::from_stream(seed(), 2);
    let dir = tmp_dir("leader-restart");

    // The follower must find the reborn leader at the same address, so pin
    // a concrete port up front (bind :0, note the port, release it).
    let repl_addr = {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };

    let leader_handle = start(leader_config(&dir, &repl_addr)).unwrap();
    let mut leader = ElephantClient::connect(leader_handle.local_addr()).unwrap();
    leader.query_raw("CREATE TABLE acked (v int)").unwrap();

    let f_handle = start(follower_config(&repl_addr)).unwrap();
    let mut f = ElephantClient::connect(f_handle.local_addr()).unwrap();

    // A writer hammers the leader while the main thread pulls the plug
    // after a seed-chosen number of acknowledged inserts — a condition, not
    // a head start on the clock; only acknowledged inserts count.
    let writer_addr = leader_handle.local_addr();
    let acks_before_shutdown = 1 + rng.below(50);
    let (acked_tx, acked_rx) = std::sync::mpsc::channel();
    let writer = std::thread::spawn(move || {
        let mut acked = Vec::new();
        let mut c = ElephantClient::connect(writer_addr).expect("writer connects");
        for v in 0..500i64 {
            match c.query_raw(&format!("INSERT INTO acked VALUES ({v})")) {
                Ok(_) => acked.push(v),
                // Draining or hung up: nothing after this was acked.
                Err(_) => break,
            }
            if acked.len() == acks_before_shutdown {
                let _ = acked_tx.send(());
            }
        }
        acked
    });
    acked_rx
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|e| {
            panic!("writer never reached {acks_before_shutdown} acked inserts: {e}")
        });
    leader.shutdown().unwrap();
    drop(leader);
    leader_handle.join();
    let acked = writer.join().unwrap();
    assert!(acked.len() >= acks_before_shutdown);

    // Reborn leader on the same ports; the follower's retry loop finds it.
    let leader_handle = start(leader_config(&dir, &repl_addr)).unwrap();
    let mut leader = ElephantClient::connect(leader_handle.local_addr()).unwrap();
    assert_eq!(values_on(&mut leader), acked, "leader lost an acked write");

    // Post-restart writes prove the stream is live again end to end.
    let tail_writes = 2 + rng.below(4) as i64;
    for v in 0..tail_writes {
        leader
            .query_raw(&format!("INSERT INTO acked VALUES ({})", 1000 + v))
            .unwrap();
    }
    let mut want = acked;
    want.extend((0..tail_writes).map(|v| 1000 + v));
    wait_caught_up(&mut leader, &mut f);
    assert_eq!(values_on(&mut f), want, "follower missing an acked write");
    let stats = f.stats().unwrap();
    assert!(
        ElephantClient::parse_watermark(&stats, "repl_reconnects").unwrap() >= 1,
        "follower never noticed the leader died?\n{stats}"
    );

    f.shutdown().unwrap();
    drop(f);
    f_handle.join();
    leader.shutdown().unwrap();
    drop(leader);
    leader_handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
