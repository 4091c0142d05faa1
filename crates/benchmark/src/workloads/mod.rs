//! The four workloads. Each is a closed loop of rounds over one or two
//! connections; a round is the workload's operation classes once, in fixed
//! order, with inputs that depend only on the seed, the connection and the
//! round index.

use crate::driver::{Probes, Worker};
use crate::report::Values;
use crate::stats::Stats;
use elephant_server::ElephantClient;

pub mod analytics;
pub mod ingest;
pub mod inspect;
pub mod serve;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["inspect", "analytics", "serve", "ingest"];

/// Input sizes. `FULL` is what every reported number is measured at;
/// `SMOKE` only has to reach every oracle quickly, in a debug build too.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub inspect_rows: usize,
    pub facts_rows: usize,
    pub wide_rows: usize,
    pub lookup_window: usize,
    pub dimr_rows: usize,
    pub bulk_rows: usize,
    /// Warm-up rounds before the first timed round.
    pub inspect_warmup: u64,
    pub analytics_warmup: u64,
    pub serve_warmup: u64,
    pub ingest_warmup: u64,
    /// An `ingest` connection recreates its table every this many rounds.
    pub rotate_every: u64,
    /// Cap on the measured rounds of a phase; only the smoke pass has one.
    pub round_cap: Option<u64>,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        inspect_rows: 2_500,
        facts_rows: 200_000,
        wide_rows: 20_000,
        lookup_window: 512,
        dimr_rows: 20_000,
        bulk_rows: 1_000,
        inspect_warmup: 2,
        analytics_warmup: 10,
        serve_warmup: 100,
        ingest_warmup: 100,
        rotate_every: 20,
        round_cap: None,
    };

    pub const SMOKE: Sizes = Sizes {
        inspect_rows: 120,
        facts_rows: 2_000,
        wide_rows: 3_000,
        lookup_window: 64,
        dimr_rows: 500,
        bulk_rows: 100,
        inspect_warmup: 1,
        analytics_warmup: 1,
        serve_warmup: 1,
        ingest_warmup: 1,
        rotate_every: 2,
        round_cap: Some(2),
    };
}

/// One workload: how to start its server, load it, and drive it.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// What one row of `rows_per_s` is, for the printed record.
    fn row_unit(&self) -> &'static str;

    /// Arguments for `elephant-serve` beyond the pinned ones.
    fn server_args(&self) -> Vec<String>;

    fn warmup_rounds(&self) -> u64;

    /// The traced run fetches the span tree of every this-many-th command.
    fn trace_every(&self) -> u64;

    /// Whether the measured phase writes; where it does not, zero WAL
    /// traffic is asserted.
    fn writes(&self) -> bool {
        false
    }

    /// Load the tables over `admin` and open the measured connections.
    fn prepare(
        &self,
        addr: &str,
        admin: &mut ElephantClient,
    ) -> Result<Vec<Box<dyn Worker>>, String>;

    /// `(class, per-layer metric)` for each operation class's median.
    fn class_metrics(&self) -> &'static [(&'static str, &'static str)];

    /// Workload-specific conditions on the `STATS` before and after the
    /// measured phase; each returned string is one failed check.
    fn check_stats(&self, _before: &Stats, _after: &Stats, _shards: usize) -> Vec<String> {
        Vec::new()
    }

    /// In-process probes of single layers on this workload's own inputs
    /// (traced run only); each writes per-layer metrics into `out`.
    fn probes(&self, _probes: &mut Probes, _out: &mut Values) -> Result<(), String> {
        Ok(())
    }
}

pub fn by_name(name: &str, sizes: Sizes, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "inspect" => Box::new(inspect::Inspect::new(sizes, seed)),
        "analytics" => Box::new(analytics::Analytics::new(sizes, seed)),
        "serve" => Box::new(serve::Serve::new(sizes, seed)),
        "ingest" => Box::new(ingest::Ingest::new(sizes, seed)),
        _ => return None,
    })
}

/// splitmix64: the benchmark's own generator, so inputs never change with
/// the product's.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Rows per `INSERT` frame while loading.
const LOAD_CHUNK: usize = 5_000;

/// Create `table` and load `tuples` (each already rendered as `(v, …)`)
/// with multi-row INSERTs.
pub fn load_table(
    admin: &mut ElephantClient,
    table: &str,
    columns: &str,
    tuples: &[String],
) -> Result<(), String> {
    let run = |admin: &mut ElephantClient, sql: String| {
        admin
            .query_raw(&sql)
            .map_err(|e| format!("loading {table}: {e}"))
    };
    run(admin, format!("CREATE TABLE {table} ({columns})"))?;
    for chunk in tuples.chunks(LOAD_CHUNK) {
        let reply = run(
            admin,
            format!("INSERT INTO {table} VALUES {}", chunk.join(",")),
        )?;
        if reply != format!("ok {}", chunk.len()) {
            return Err(format!("loading {table}: unexpected reply {reply:?}"));
        }
    }
    Ok(())
}

/// `Ok` when a reply body is byte for byte the expected one; the message is
/// only built on a mismatch, so the check costs the load generator nothing.
pub fn expect_body(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:.120?}, want {want:.120?}"))
    }
}

/// Order-independent checksum of a CSV body's data lines (FNV-1a per line,
/// summed), with the line count — the `serve` fetch oracle.
pub fn body_checksum(body: &str) -> (u64, u64) {
    let mut lines = body.lines();
    lines.next(); // header
    let mut count = 0u64;
    let mut sum = 0u64;
    for line in lines {
        count += 1;
        sum = sum.wrapping_add(fnv1a(line.as_bytes()));
    }
    (count, sum)
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_repeats_and_streams_differ() {
        let a: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 1);
            move || r.next()
        })
        .take(4)
        .collect();
        let b: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 1);
            move || r.next()
        })
        .take(4)
        .collect();
        let c: Vec<u64> = std::iter::repeat_with({
            let mut r = Rng::new(7, 2);
            move || r.next()
        })
        .take(4)
        .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(Rng::new(1, 1).below(10) < 10);
    }

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = body_checksum("a,b\n1,x\n2,y\n");
        let b = body_checksum("a,b\n2,y\n1,x\n");
        let c = body_checksum("a,b\n2,y\n1,z\n");
        assert_eq!(a, b);
        assert_eq!(a.0, 2);
        assert_ne!(a.1, c.1);
    }
}
