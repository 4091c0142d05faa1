//! The two ways a workload is measured: `run` (tracing off, two shards,
//! end-to-end metrics) and `trace` (one shard, per-layer metrics from
//! `STATS` deltas, sampled `TRACE` trees, client spans and in-process
//! probes).

use crate::driver::{run_phase, ClientSpan, Probes, Recorder, Stop, Worker};
use crate::report::{json_number, json_string, machine_facts, CpuTimes, Outcome, Values};
use crate::server::{fresh_data_dir, scratch_root, Server};
use crate::stats::{median, percentile, ServerSpan, Stats};
use crate::workloads::{by_name, Sizes, Workload};
use elephant_server::ElephantClient;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Shards of the end-to-end configuration; explicit, never the core count.
const RUN_SHARDS: usize = 2;

/// Engine-scoped `STATS` keys report shard 0 only, so one shard is the
/// only configuration in which the counters tell the whole story.
const TRACE_SHARDS: usize = 1;

/// Servers set up per `run`; each is measured for a third of the time.
const SETUPS: usize = 3;

/// What the command line fixes for one measurement.
#[derive(Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub sizes: Sizes,
}

/// A loaded, warmed-up server with its measured connections.
struct Live {
    // Dropped first: connections close before the server is killed.
    workers: Vec<Box<dyn Worker>>,
    admin: ElephantClient,
    server: Server,
    shards: usize,
    /// When set-up began: the zero of every span timestamp of this server.
    epoch: Instant,
    setup_s: f64,
    checkpoint_ms: f64,
    next_round: u64,
}

/// Spawn, load, `CHECKPOINT`, warm up: everything before the first timed
/// round.
fn set_up(workload: &dyn Workload, shards: usize) -> Result<Live, String> {
    let started = Instant::now();
    let server = Server::spawn(fresh_data_dir()?, shards, &workload.server_args())?;
    let mut admin =
        ElephantClient::connect(server.addr()).map_err(|e| format!("admin connect: {e}"))?;
    let mut workers = workload.prepare(server.addr(), &mut admin)?;
    let checkpoint_started = Instant::now();
    admin
        .checkpoint()
        .map_err(|e| format!("setup checkpoint: {e}"))?;
    let checkpoint_ms = checkpoint_started.elapsed().as_secs_f64() * 1e3;
    let warmup = workload.warmup_rounds();
    let (recorders, _) = run_phase(&mut workers, 0, Stop::AfterRounds(warmup), |i| {
        Ok(Recorder::new(i, started))
    })?;
    if let Some(why) = recorders.iter().find_map(|r| r.ops.failures().first()) {
        return Err(format!("warm-up failed: {why}"));
    }
    Ok(Live {
        workers,
        admin,
        server,
        shards,
        epoch: started,
        setup_s: started.elapsed().as_secs_f64(),
        checkpoint_ms,
        next_round: warmup,
    })
}

impl Live {
    fn stats(&mut self) -> Result<Stats, String> {
        let body = self.admin.stats().map_err(|e| format!("STATS: {e}"))?;
        Ok(Stats::parse(&body))
    }

    /// One measured phase of `seconds` (the smoke pass caps its rounds).
    fn phase(
        &mut self,
        seconds: f64,
        round_cap: Option<u64>,
        trace_every: Option<u64>,
    ) -> Result<Phase, String> {
        let addr = self.server.addr().to_string();
        let before = self.stats()?;
        let write_before: f64 = self.workers.iter().map(|w| w.write_s()).sum();
        let stop = Stop::AfterTime {
            limit: Duration::from_secs_f64(seconds),
            round_cap,
        };
        let epoch = self.epoch;
        let (recorders, wall_s) = run_phase(&mut self.workers, self.next_round, stop, |i| {
            let rec = Recorder::new(i, epoch);
            match trace_every {
                Some(every) => rec.traced(&addr, every),
                None => Ok(rec),
            }
        })?;
        let after = self.stats()?;
        self.next_round += recorders
            .iter()
            .map(|r| r.rounds_ms.len() as u64)
            .max()
            .unwrap_or(0);
        let write_s = self.workers.iter().map(|w| w.write_s()).sum::<f64>() - write_before;
        Ok(Phase {
            recorders,
            wall_s,
            write_s,
            before,
            after,
        })
    }

    /// Kill -9 the server, restart it on the same directory and compare
    /// every ledgered table with what recovery brought back. Returns the
    /// restart's start-up time (recovery included), if there was a ledger.
    fn crash_check(
        self,
        workload: &dyn Workload,
        tally: &mut Tally,
    ) -> Result<(Server, Option<f64>), String> {
        let ledger: Vec<(String, u64)> = self.workers.iter().flat_map(|w| w.ledger()).collect();
        let Live {
            workers,
            admin,
            server,
            shards,
            ..
        } = self;
        if ledger.is_empty() {
            return Ok((server, None));
        }
        drop((workers, admin));
        // Recovery must find its tables; the pipeline CSVs are irrelevant.
        let server = server.kill_and_restart(shards, &workload.server_args())?;
        let mut admin = ElephantClient::connect(server.addr())
            .map_err(|e| format!("connect after restart: {e}"))?;
        for (table, acked) in ledger {
            tally.attempted += 1;
            let want = format!("n\n{acked}\n");
            match admin.query_raw(&format!("SELECT count(*) AS n FROM {table}")) {
                Ok(body) if body == want => {}
                Ok(body) => tally.fail(format!(
                    "after kill -9 {table} holds {body:?}, acknowledged {want:?}"
                )),
                Err(e) => tally.fail(format!("after kill -9 count of {table}: {e}")),
            }
        }
        let recovery_ms = server.startup_ms;
        Ok((server, Some(recovery_ms)))
    }
}

/// What one measured phase produced.
struct Phase {
    recorders: Vec<Recorder>,
    wall_s: f64,
    /// Seconds the connections spent writing requests during the phase.
    write_s: f64,
    before: Stats,
    after: Stats,
}

impl Phase {
    fn rounds_ms(&self) -> Vec<f64> {
        self.recorders
            .iter()
            .flat_map(|r| r.rounds_ms.iter().copied())
            .collect()
    }

    fn class_ms(&self, class: &str) -> Vec<f64> {
        self.recorders
            .iter()
            .filter_map(|r| r.classes.get(class))
            .flatten()
            .copied()
            .collect()
    }

    fn rows(&self) -> u64 {
        self.recorders.iter().map(|r| r.ops.rows).sum()
    }

    fn sum(&self, key: &str) -> f64 {
        self.recorders.iter().map(|r| r.ops.sum(key)).sum()
    }

    /// Throughput: every row unit completed over the phase's wall time, so
    /// every round is charged — rotations, stalls and the tail included.
    fn rows_per_s(&self) -> f64 {
        self.rows() as f64 / self.wall_s
    }

    fn delta(&self, key: &str) -> f64 {
        self.before.delta(&self.after, key)
    }
}

/// Operation counts across phases and checks, with the first failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.messages.push(why);
    }

    /// Count a phase's operations, plus one operation per `STATS`
    /// condition the workload states.
    fn absorb(&mut self, workload: &dyn Workload, phase: &Phase, shards: usize) {
        for rec in &phase.recorders {
            self.attempted += rec.ops.attempted;
            self.failed += rec.ops.failed;
            self.messages.extend(rec.ops.failures().iter().cloned());
        }
        self.attempted += 1;
        let mut broken = workload.check_stats(&phase.before, &phase.after, shards);
        if !workload.writes() {
            // Group commits are counted by the router for every shard;
            // appended records are engine-scoped (shard 0 at two shards).
            let commits = phase.delta("wal_group_commits");
            let records = phase.delta("wal_records_appended");
            if commits != 0.0 || records != 0.0 {
                broken.push(format!(
                    "a read-only phase wrote: {commits} WAL group commits, {records} records"
                ));
            }
        }
        if phase.delta("busy_rejections") != 0.0 {
            broken.push("the server refused commands with ERR_BUSY".into());
        }
        for why in broken {
            self.fail(why);
        }
    }

    fn report(&self) {
        for why in self.messages.iter().take(10) {
            eprintln!("FAILED: {why}");
        }
    }
}

fn workload_for(name: &str, opts: &Options) -> Result<Box<dyn Workload>, String> {
    by_name(name, opts.sizes, opts.seed).ok_or_else(|| format!("unknown workload '{name}'"))
}

fn common_facts(live: &Live, opts: &Options, workload: &dyn Workload) -> Vec<(String, String)> {
    let mut facts = machine_facts(live.server.data_dir());
    facts.push(("shards".into(), live.shards.to_string()));
    facts.push(("seed".into(), opts.seed.to_string()));
    facts.push(("seconds".into(), json_number(opts.seconds)));
    facts.push(("warmup_rounds".into(), workload.warmup_rounds().to_string()));
    facts.push(("row_unit".into(), workload.row_unit().into()));
    facts
}

/// Tracing off, two shards: the end-to-end metrics.
///
/// The measuring time is split evenly over `SETUPS` servers, each freshly
/// set up: `setup_s` needs the set-ups anyway, and measuring every server
/// samples three processes (their rates differ by up to a tenth) where one
/// long phase on the last would sample one. The time metrics are taken over
/// all phases together, `peak_rss_mb` and `setup_s` as medians.
pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    let workload = workload_for(name, opts)?;
    let workload = workload.as_ref();
    let mut tally = Tally::default();
    let mut facts = Vec::new();
    let (mut setups, mut peaks, mut phases) = (Vec::new(), Vec::new(), Vec::new());
    let mut recovery_ms = None;
    let cpu_before = CpuTimes::now();
    for _ in 0..SETUPS {
        let mut live = set_up(workload, RUN_SHARDS)?;
        if facts.is_empty() {
            facts = common_facts(&live, opts, workload);
        }
        setups.push(live.setup_s);
        let phase = live.phase(opts.seconds / SETUPS as f64, opts.sizes.round_cap, None)?;
        peaks.push(live.server.peak_rss_mb()?);
        tally.absorb(workload, &phase, RUN_SHARDS);
        let (server, recovered_ms) = live.crash_check(workload, &mut tally)?;
        drop(server);
        recovery_ms = recovered_ms.or(recovery_ms);
        phases.push(phase);
    }
    tally.report();

    let rounds: Vec<f64> = phases.iter().flat_map(Phase::rounds_ms).collect();
    let rows: u64 = phases.iter().map(Phase::rows).sum();
    let measured_s: f64 = phases.iter().map(|p| p.wall_s).sum();
    let mut values = Values::new();
    // Every row unit completed over the wall time of the measured phases,
    // so every round is charged: rotations, stalls and the tail included.
    values.insert("rows_per_s", rows as f64 / measured_s);
    values.insert("round_p50_ms", median(&rounds));
    values.insert("peak_rss_mb", median(&peaks));
    values.insert("setup_s", median(&setups));
    facts.push(("rounds".into(), rounds.len().to_string()));
    facts.push(("measured_s".into(), json_number(measured_s)));
    let per_server: Vec<f64> = phases.iter().map(Phase::rows_per_s).collect();
    facts.push(("rows_per_s_per_server".into(), format!("{per_server:?}")));
    for p in [90.0, 99.0] {
        facts.push((
            format!("round_p{p}_ms"),
            json_number(percentile(&rounds, p)),
        ));
    }
    for (class, _) in workload.class_metrics() {
        let ms: Vec<f64> = phases.iter().flat_map(|p| p.class_ms(class)).collect();
        facts.push((format!("class_{class}_p50_ms"), json_number(median(&ms))));
    }
    facts.push(("setups_s".into(), format!("{setups:?}")));
    facts.push(("peaks_rss_mb".into(), format!("{peaks:?}")));
    for shard in 0..RUN_SHARDS {
        let key = format!("shard{shard}.commands");
        let commands: f64 = phases.iter().map(|p| p.delta(&key)).sum();
        facts.push((key, json_number(commands)));
    }
    if let (Some(before), Some(after)) = (cpu_before, CpuTimes::now()) {
        let share = before.stolen_share(after);
        facts.push(("cpu_stolen_share".into(), json_number(share)));
    }
    if let Some(ms) = recovery_ms {
        facts.push(("recovery_ms".into(), json_number(ms)));
    }
    Ok(Outcome {
        workload: workload.name(),
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        facts,
    })
}

/// One shard, half the measuring time split between a plain reference
/// phase and a traced phase, then the in-process probes.
pub fn trace(name: &str, opts: &Options) -> Result<Outcome, String> {
    let workload = workload_for(name, opts)?;
    let workload = workload.as_ref();
    let mut live = set_up(workload, TRACE_SHARDS)?;
    let epoch = live.epoch;
    let mut facts = common_facts(&live, opts, workload);
    let checkpoint_ms = live.checkpoint_ms;
    let plain = live.phase(opts.seconds / 4.0, opts.sizes.round_cap, None)?;
    let traced = live.phase(
        opts.seconds / 4.0,
        opts.sizes.round_cap,
        Some(workload.trace_every()),
    )?;
    let mut tally = Tally::default();
    tally.absorb(workload, &plain, TRACE_SHARDS);
    tally.absorb(workload, &traced, TRACE_SHARDS);
    let (server, recovery_ms) = live.crash_check(workload, &mut tally)?;
    drop(server);

    let mut values = Values::new();
    let mut probes = Probes::new(epoch);
    tally.attempted += 1;
    if let Err(why) = workload.probes(&mut probes, &mut values) {
        tally.fail(why);
    }
    tally.report();

    let rounds = traced.rounds_ms();
    for (class, metric) in workload.class_metrics() {
        values.insert(metric, median(&traced.class_ms(class)));
    }
    values.insert("client.round_p90_ms", percentile(&rounds, 90.0));
    values.insert("client.round_p99_ms", percentile(&rounds, 99.0));
    values.insert("client.samples", rounds.len() as f64);
    values.insert(
        "client.trace_overhead_frac",
        1.0 - traced.rows_per_s() / plain.rows_per_s(),
    );
    let fetch_ms: f64 = traced.class_ms("fetch").iter().sum();
    if fetch_ms > 0.0 {
        let mb_per_s = traced.sum("fetch_bytes") / 1e6 / (fetch_ms / 1e3);
        values.insert("client.serve.fetch_mb_per_s", mb_per_s);
    }

    let mut engine_ms = 0.0;
    for (metric, key) in [
        ("sqlengine.lex_ms", "phase_lex_total_us"),
        ("sqlengine.parse_ms", "phase_parse_total_us"),
        ("sqlengine.bind_ms", "phase_bind_total_us"),
        ("sqlengine.optimize_ms", "phase_optimize_total_us"),
        ("sqlengine.execute_ms", "phase_execute_total_us"),
        ("sqlengine.wal_append_ms", "phase_wal_append_total_us"),
    ] {
        let ms = traced.delta(key) / 1e3;
        engine_ms += ms;
        values.insert(metric, ms);
    }
    let (hits, misses) = (
        traced.delta("plan_cache_hits"),
        traced.delta("plan_cache_misses"),
    );
    if hits + misses > 0.0 {
        values.insert("sqlengine.plan_cache_hit_rate", hits / (hits + misses));
    }
    values.insert(
        "sqlengine.batches_executed",
        traced.delta("batches_executed"),
    );
    values.insert(
        "sqlengine.colexec_fallbacks",
        traced.delta("colexec_fallbacks"),
    );

    let trees: BTreeMap<u64, &Vec<ServerSpan>> = traced
        .recorders
        .iter()
        .flat_map(|r| r.trees())
        .map(|(qid, tree)| (*qid, tree))
        .collect();
    let kind_us = |kind: &str| -> Vec<f64> {
        trees
            .values()
            .flat_map(|tree| tree.iter())
            .filter(|s| s.kind == kind)
            .map(|s| s.us as f64)
            .collect()
    };
    let (queue, exec, fsync) = (
        kind_us("queue-wait"),
        kind_us("shard-exec"),
        kind_us("wal-group-fsync"),
    );
    values.insert("elephant-server.queue_wait_us_p50", median(&queue));
    values.insert("elephant-server.shard_exec_us_p50", median(&exec));
    values.insert("elephant-server.group_fsync_us_p50", median(&fsync));
    for (metric, key) in [
        ("elephant-server.pipelined_frames", "pipelined_frames"),
        ("elephant-server.chunks_streamed", "chunks_streamed"),
        ("elephant-server.busy_rejections", "busy_rejections"),
        ("elephant-server.shard0_commands", "shard0.commands"),
        ("elephant-server.shard1_commands", "shard1.commands"),
        ("elephant-server.scatter_gather", "shard_scatter_gather"),
        ("elephant-store.wal_fsyncs", "wal_fsyncs"),
        ("elephant-store.checkpoints", "storage_checkpoints"),
    ] {
        values.insert(metric, traced.delta(key));
    }
    values.insert(
        "elephant-server.result_buffer_peak_mb",
        traced.after.get("result_buffer_peak_bytes") / 1e6,
    );

    // What the outside view can explain of the connections' wall time, as
    // busy time only: the engine's phase totals (exact), the group fsyncs
    // (their count times the sampled median) and the time the client spent
    // writing requests. Queue wait is waiting, not work — under pipelining
    // it overlaps the work it waits for — so it is reported, not summed.
    // The remainder is reply encoding outside the engine phases, frame
    // parsing and reply writing in the session thread, the socket, and the
    // client reading and checking replies.
    let fsync_ms = traced.delta("wal_fsyncs") * median(&fsync) / 1e3;
    let conn_wall_ms: f64 = traced.recorders.iter().map(|r| r.wall_s * 1e3).sum();
    let accounted_ms = engine_ms + fsync_ms + traced.write_s * 1e3;
    values.insert("client.unaccounted_frac", 1.0 - accounted_ms / conn_wall_ms);

    let acked = traced.rows() as f64;
    let wal_bytes = traced.sum("checkpoint_wal_truncated") + traced.after.get("wal_bytes")
        - traced.before.get("wal_bytes");
    if workload.writes() && acked > 0.0 {
        values.insert("elephant-store.wal_bytes_per_row", wal_bytes / acked);
    }
    let snapshot_rows = traced.sum("checkpoint_rows");
    if snapshot_rows > 0.0 {
        values.insert(
            "elephant-store.snapshot_bytes_per_row",
            traced.sum("checkpoint_snapshot_bytes") / snapshot_rows,
        );
    }
    let group_commits = traced.delta("wal_group_commits");
    if group_commits > 0.0 {
        values.insert(
            "elephant-store.commits_per_fsync",
            traced.delta("wal_group_committed_records") / group_commits,
        );
    }
    values.insert("elephant-store.checkpoint_ms", checkpoint_ms);
    values.insert("elephant-store.recovery_ms", recovery_ms.unwrap_or(0.0));

    facts.push(("rounds_plain".into(), plain.rounds_ms().len().to_string()));
    facts.push(("rounds_traced".into(), rounds.len().to_string()));
    facts.push(("trace_every".into(), workload.trace_every().to_string()));
    facts.push(("trees_sampled".into(), trees.len().to_string()));
    facts.push((
        "note".into(),
        "one shard: engine-scoped STATS keys report shard 0 only".into(),
    ));
    let spans: Vec<&ClientSpan> = traced
        .recorders
        .iter()
        .flat_map(|r| r.spans.iter())
        .chain(probes.spans.iter())
        .collect();
    let path = scratch_root()?.join(format!("trace-{}.json", workload.name()));
    std::fs::write(&path, trace_json(&facts, &spans, &trees))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    facts.push(("trace_file".into(), path.display().to_string()));

    Ok(Outcome {
        workload: workload.name(),
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        facts,
    })
}

/// The spans kept in memory during the traced run, written out at its end.
fn trace_json(
    facts: &[(String, String)],
    spans: &[&ClientSpan],
    trees: &BTreeMap<u64, &Vec<ServerSpan>>,
) -> String {
    let mut out = String::from("{\"facts\": {");
    for (i, (key, value)) in facts.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(out, "{sep}{}: {}", json_string(key), json_string(value));
    }
    out.push_str("},\n\"client_spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\n{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_us\": {}, \
             \"end_us\": {}, \"round\": {}, \"worker\": {}}}",
            s.id,
            s.parent,
            json_string(s.name),
            s.start_us,
            s.end_us,
            s.round,
            s.worker
        );
    }
    out.push_str("],\n\"server_trees\": [");
    for (i, (qid, tree)) in trees.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\n{{\"qid\": {qid}, \"spans\": [");
        for (j, s) in tree.iter().enumerate() {
            let sep = if j > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}{{\"id\": {}, \"parent\": {}, \"kind\": {}, \"name\": {}, \
                 \"shard\": {}, \"us\": {}, \"ok\": {}}}",
                s.id,
                s.parent,
                json_string(&s.kind),
                json_string(&s.name),
                s.shard,
                s.us,
                s.ok
            );
        }
        out.push_str("]}");
    }
    out.push_str("]}\n");
    out
}
