//! Sharded crash-recovery: four writers hammer four disjoint tables on a
//! four-shard `--fsync always` server, the server is `kill -9`ed mid-storm,
//! and after restart every acknowledged insert must be back — on every
//! shard. This is the sharded analogue of `recovery_smoke`: per-shard WALs
//! and group commit must not weaken the durability contract (an fsync that
//! covers a whole batch still happens *before* any ack in the batch).

mod support;

use elephant_server::{shard_of, ElephantClient};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use support::ServerChild;

const SHARDS: usize = 4;
const WRITERS: usize = 4;
/// Each writer must have at least this many acknowledged inserts before
/// the kill lands, so recovery has real per-shard WAL tails to replay.
const MIN_ACKS: u64 = 20;

fn serve(dir: &Path) -> ServerChild {
    let args = ["--no-data", "--shards", "4", "--fsync", "always"];
    let server = ServerChild::spawn(dir, &args, None);
    let line = server.startup_line();
    assert!(line.contains("durable storage"), "{line}");
    assert!(line.contains("4 shards"), "{line}");
    server
}

#[test]
fn concurrent_writers_survive_kill_nine_on_every_shard() {
    let dir = std::env::temp_dir().join(format!("elephant-shard-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let server = serve(&dir);
    let addr = server.addr();

    // Disjoint tables, greedily spread over distinct shards so the storm
    // (and the recovery) exercises more than one WAL.
    let mut tables: Vec<String> = Vec::new();
    let mut shards_hit: Vec<usize> = Vec::new();
    for i in 0..64 {
        let name = format!("wt{i}");
        let s = shard_of(&name, SHARDS);
        if tables.len() < WRITERS && (!shards_hit.contains(&s) || tables.len() + 1 == WRITERS) {
            shards_hit.push(s);
            tables.push(name);
        }
    }
    assert_eq!(tables.len(), WRITERS);
    shards_hit.sort_unstable();
    shards_hit.dedup();
    assert!(
        shards_hit.len() >= 2,
        "tables landed on one shard: {tables:?}"
    );

    let mut admin = ElephantClient::connect(addr).unwrap();
    for t in &tables {
        admin
            .query_raw(&format!("CREATE TABLE {t} (x int)"))
            .unwrap();
    }

    // Writer i inserts 1, 2, 3, ... into its own table and bumps its ack
    // counter only after the server acknowledged — so the acked set is
    // always the contiguous prefix 1..=count.
    let acks: Vec<Arc<AtomicU64>> = (0..WRITERS).map(|_| Arc::new(AtomicU64::new(0))).collect();
    let mut writers = Vec::new();
    for (i, table) in tables.iter().enumerate() {
        let table = table.clone();
        let acked = Arc::clone(&acks[i]);
        writers.push(std::thread::spawn(move || {
            let mut c = match ElephantClient::connect(addr) {
                Ok(c) => c,
                Err(_) => return,
            };
            for seq in 1u64..=100_000 {
                match c.query_raw(&format!("INSERT INTO {table} VALUES ({seq})")) {
                    Ok(_) => acked.store(seq, Ordering::SeqCst),
                    Err(_) => return, // the kill landed
                }
            }
        }));
    }

    // Let the storm build, then kill -9 while all writers are in flight.
    let deadline = Instant::now() + Duration::from_secs(30);
    while acks.iter().any(|a| a.load(Ordering::SeqCst) < MIN_ACKS) {
        assert!(
            Instant::now() < deadline,
            "writers too slow to reach MIN_ACKS"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.kill_keep_data();
    for w in writers {
        w.join().unwrap();
    }
    let acked: Vec<u64> = acks.iter().map(|a| a.load(Ordering::SeqCst)).collect();

    // Restart on the same directory: every shard recovers its snapshot +
    // WAL; every acknowledged row must be present.
    let server = serve(&dir);
    let mut c = ElephantClient::connect(server.addr()).unwrap();
    for (i, table) in tables.iter().enumerate() {
        let want = acked[i];
        assert!(want >= MIN_ACKS);
        let got: u64 = c
            .query_raw(&format!(
                "SELECT count(*) AS n FROM {table} WHERE x <= {want}"
            ))
            .unwrap()
            .lines()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(
            got,
            want,
            "table {table} (shard {}) lost acknowledged writes: {got} of {want} recovered",
            shard_of(table, SHARDS)
        );
        // At most one in-flight (unacknowledged) insert can additionally
        // have reached the WAL per writer — never fewer rows than acks.
        let total: u64 = c
            .query_raw(&format!("SELECT count(*) AS n FROM {table}"))
            .unwrap()
            .lines()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            (want..=want + 1).contains(&total),
            "table {table}: {total} rows for {want} acks"
        );
    }
    let stats = c.stats().unwrap();
    assert!(stats.contains("\nshards 4"), "{stats}");
}
