//! Metric declarations (the same names `BENCHMARK.json` lists), the result
//! line the contract asks for, and the machine facts every output records.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// A declared metric: name, unit, and whether larger is better.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the median by which it may worsen; 0 for ungated metrics.
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    gated(name, unit, higher, 0.0)
}

/// What a user of the server sees; the same four on every workload.
pub const END_TO_END: &[MetricDef] = &[
    gated("rows_per_s", "1/s", true, 0.25),
    gated("round_p50_ms", "ms", false, 0.25),
    gated("peak_rss_mb", "MB", false, 0.10),
    gated("setup_s", "s", false, 0.25),
];

/// Single-layer numbers from the traced run; the prefix is the module the
/// number belongs to. A metric that does not apply to a workload reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("client.inspect.healthcare_p50_ms", "ms", false),
    layer("client.inspect.compas_p50_ms", "ms", false),
    layer("client.inspect.adult_simple_p50_ms", "ms", false),
    layer("client.inspect.adult_complex_p50_ms", "ms", false),
    layer("client.analytics.filter_p50_ms", "ms", false),
    layer("client.analytics.agg_p50_ms", "ms", false),
    layer("client.analytics.join_p50_ms", "ms", false),
    layer("client.serve.lookup_window_p50_ms", "ms", false),
    layer("client.serve.fetch_p50_ms", "ms", false),
    layer("client.serve.fetch_mb_per_s", "MB/s", true),
    layer("client.ingest.batch_p50_ms", "ms", false),
    layer("client.ingest.bulk_p50_ms", "ms", false),
    layer("client.ingest.singles_p50_ms", "ms", false),
    layer("client.ingest.read_p50_ms", "ms", false),
    layer("client.ingest.rotate_p50_ms", "ms", false),
    layer("client.round_p90_ms", "ms", false),
    layer("client.round_p99_ms", "ms", false),
    layer("client.samples", "count", true),
    layer("client.trace_overhead_frac", "frac", false),
    layer("client.unaccounted_frac", "frac", false),
    layer("sqlengine.lex_ms", "ms", false),
    layer("sqlengine.parse_ms", "ms", false),
    layer("sqlengine.bind_ms", "ms", false),
    layer("sqlengine.optimize_ms", "ms", false),
    layer("sqlengine.execute_ms", "ms", false),
    layer("sqlengine.wal_append_ms", "ms", false),
    layer("sqlengine.plan_cache_hit_rate", "frac", true),
    layer("sqlengine.batches_executed", "count", true),
    layer("sqlengine.colexec_fallbacks", "count", false),
    layer("sqlengine.script_lex_parse_ms", "ms", false),
    layer("sqlengine.copy_rows_per_s", "1/s", true),
    layer("sqlengine.embedded_query_ms", "ms", false),
    layer("mlinspect.capture_ms", "ms", false),
    layer("mlinspect.transpile_ms", "ms", false),
    layer("mlinspect.inspect_embedded_ms", "ms", false),
    layer("elephant-types.csv_parse_ms", "ms", false),
    layer("datagen.csv_mb_per_s", "MB/s", true),
    layer("elephant-server.queue_wait_us_p50", "us", false),
    layer("elephant-server.shard_exec_us_p50", "us", false),
    layer("elephant-server.group_fsync_us_p50", "us", false),
    layer("elephant-server.pipelined_frames", "count", true),
    layer("elephant-server.chunks_streamed", "count", true),
    layer("elephant-server.result_buffer_peak_mb", "MB", false),
    layer("elephant-server.busy_rejections", "count", false),
    layer("elephant-server.shard0_commands", "count", true),
    layer("elephant-server.shard1_commands", "count", true),
    layer("elephant-server.scatter_gather", "count", false),
    layer("elephant-store.wal_bytes_per_row", "B/row", false),
    layer("elephant-store.wal_fsyncs", "count", false),
    layer("elephant-store.commits_per_fsync", "ratio", true),
    layer("elephant-store.checkpoints", "count", false),
    layer("elephant-store.checkpoint_ms", "ms", false),
    layer("elephant-store.recovery_ms", "ms", false),
    layer("elephant-store.snapshot_bytes_per_row", "B/row", false),
    layer("elephant-store.durable_insert_us", "us", false),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one invocation on one workload found.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Context recorded next to the numbers (rounds, sizes, shards, …).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed`, `metrics`, the metrics being every one of `defs`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, def) in defs.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = self.values.get(def.name).copied().unwrap_or(0.0);
            let _ = write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(def.name),
                json_number(value),
                json_string(def.unit)
            );
        }
        out.push_str("}}");
        out
    }

    /// Every metric by name with its unit and the direction that is better,
    /// then the facts, for a reader.
    pub fn print_human(&self, defs: &[MetricDef]) {
        println!("== {} ==", self.workload);
        for def in defs {
            let value = self.values.get(def.name).copied().unwrap_or(0.0);
            let better = if def.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            println!(
                "{:<44} {:>20} {:<6} ({better} is better)",
                def.name,
                json_number(value),
                def.unit
            );
        }
        println!(
            "operations attempted={} failed={}",
            self.attempted, self.failed
        );
        for (key, value) in &self.facts {
            println!("# {key} = {value}");
        }
    }
}

/// A finite number with all its digits; non-finite values become 0 because
/// JSON has no spelling for them.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Facts about the machine and the build that every output records.
pub fn machine_facts(data_dir: &Path) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("nproc".into(), nproc.to_string()),
        ("build_profile".into(), profile.into()),
        ("git_rev".into(), git_rev()),
        ("fsync_policy".into(), "always".into()),
        ("data_dir_filesystem".into(), filesystem_of(data_dir)),
    ]
}

/// The guest's CPU time so far, from the first line of `/proc/stat`, in
/// clock ticks: what it ran, and what it asked for while the host ran
/// someone else (steal).
#[derive(Clone, Copy)]
pub struct CpuTimes {
    ran: u64,
    stolen: u64,
}

impl CpuTimes {
    pub fn now() -> Option<CpuTimes> {
        parse_cpu_times(&std::fs::read_to_string("/proc/stat").ok()?)
    }

    /// Of the CPU time the guest asked for between two readings, the share
    /// the host gave to someone else. Nothing the measured program does
    /// changes it.
    pub fn stolen_share(self, later: CpuTimes) -> f64 {
        let stolen = later.stolen.saturating_sub(self.stolen) as f64;
        let ran = later.ran.saturating_sub(self.ran) as f64;
        if stolen + ran > 0.0 {
            stolen / (stolen + ran)
        } else {
            0.0
        }
    }
}

/// `cpu  user nice system idle iowait irq softirq steal guest guest_nice`.
fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map_while(|f| f.parse().ok())
        .collect();
    let field = |i: usize| ticks.get(i).copied().unwrap_or(0);
    // user + nice + system + irq + softirq; idle and iowait asked for nothing.
    let ran = field(0) + field(1) + field(2) + field(5) + field(6);
    (ticks.len() >= 8).then(|| CpuTimes {
        ran,
        stolen: field(7),
    })
}

/// `git rev-parse --short HEAD`; the driver's checkout is not a repository,
/// and there the answer is `unknown`.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    longest_mount(&mounts, &path).unwrap_or_else(|| "unknown".into())
}

fn longest_mount(mounts: &str, path: &Path) -> Option<String> {
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point).then_some((point.len(), fstype))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fstype)| fstype.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declared_names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name), "bad metric name {:?}", def.name);
            assert!(unit_ok(def.unit), "bad unit {:?}", def.unit);
            assert!(seen.insert(def.name), "duplicate metric {:?}", def.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for def in END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is written by hand; it must list exactly the
    /// metrics declared here, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_lists_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section closes")];
            assert_eq!(
                body.matches("\"name\"").count(),
                defs.len(),
                "{section} length"
            );
            for def in defs {
                let better = if def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    def.name, def.unit
                );
                if def.bound > 0.0 {
                    entry.push_str(&format!(", \"bound\": {}", def.bound));
                }
                entry.push('}');
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut values = Values::new();
        values.insert("rows_per_s", 1234.5);
        values.insert("round_p50_ms", 7.25);
        values.insert("peak_rss_mb", f64::NAN);
        let outcome = Outcome {
            workload: "serve",
            attempted: 10,
            failed: 0,
            values,
            facts: Vec::new(),
        };
        assert_eq!(
            outcome.result_line(END_TO_END),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"rows_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}, \
             \"round_p50_ms\": {\"value\": 7.25, \"unit\": \"ms\"}, \
             \"peak_rss_mb\": {\"value\": 0, \"unit\": \"MB\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_escape() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn stolen_share_is_steal_over_what_was_asked_for() {
        let a = parse_cpu_times("cpu  100 0 50 1000 5 0 10 8 0 0\ncpu0 1 2 3\n").unwrap();
        let b = parse_cpu_times("cpu  160 0 70 1900 5 0 10 28 0 0\n").unwrap();
        // 80 ticks ran, 20 stolen.
        assert_eq!(a.stolen_share(b), 0.2);
        assert_eq!(a.stolen_share(a), 0.0);
        assert!(parse_cpu_times("cpu  1 2 3\n").is_none());
        assert!(parse_cpu_times("intr 5\n").is_none());
    }

    #[test]
    fn longest_mount_wins() {
        let mounts = "overlay / overlay rw 0 0\n/dev/vdb /root/scratch ext4 rw 0 0\n\
                      tmpfs /root/scratch/deep tmpfs rw 0 0\n";
        let fs = |p: &str| longest_mount(mounts, Path::new(p));
        assert_eq!(fs("/root/scratch/x").as_deref(), Some("ext4"));
        assert_eq!(fs("/root/scratch/deep/y").as_deref(), Some("tmpfs"));
        assert_eq!(fs("/etc").as_deref(), Some("overlay"));
    }
}
