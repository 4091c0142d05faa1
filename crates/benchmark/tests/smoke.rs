//! The smoke pass: every workload for two rounds at tiny sizes, untraced and
//! traced, through a real `elephant-serve` child. It reaches every oracle
//! (the kill -9 ledger check included) and then looks for what a run must
//! never leave behind: a live server, or a data directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const BENCHMARK: &str = env!("CARGO_BIN_EXE_benchmark");

/// The server binary is another package's; build it into the same profile
/// directory the benchmark binary is in.
fn build_server() {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut build = Command::new(cargo);
    build.args(["build", "--offline", "--quiet", "-p", "elephant-server"]);
    build.args(["--bin", "elephant-serve"]);
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    let status = build.status().expect("cargo runs");
    assert!(status.success(), "building elephant-serve failed");
}

fn scratch_root() -> PathBuf {
    // <target>/<profile>/benchmark -> <target>/benchmark
    Path::new(BENCHMARK)
        .parent()
        .and_then(Path::parent)
        .expect("binary sits in <target>/<profile>")
        .join("benchmark")
}

/// Live `elephant-serve` processes serving one of this target directory's
/// benchmark data directories.
fn leaked_servers() -> Vec<String> {
    let marker = scratch_root().join("data-");
    let marker = marker.to_string_lossy().into_owned();
    let mut leaked = Vec::new();
    for entry in std::fs::read_dir("/proc").expect("/proc").flatten() {
        let cmdline = std::fs::read(entry.path().join("cmdline")).unwrap_or_default();
        let cmdline = String::from_utf8_lossy(&cmdline).replace('\0', " ");
        if cmdline.contains("elephant-serve") && cmdline.contains(&marker) {
            leaked.push(cmdline);
        }
    }
    leaked
}

fn result_lines(stdout: &str) -> Vec<&str> {
    stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .collect()
}

#[test]
fn smoke_pass_reaches_every_oracle_and_leaves_nothing_behind() {
    build_server();
    let started = Instant::now();

    let run = Command::new(BENCHMARK)
        .args(["run", "--smoke", "--seed", "7"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        run.status.success(),
        "run --smoke failed:\n{stdout}\n{stderr}"
    );
    let lines = result_lines(&stdout);
    assert_eq!(lines.len(), 4, "one result line per workload:\n{stdout}");
    for line in &lines {
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
        assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
        for metric in ["rows_per_s", "round_p50_ms", "peak_rss_mb", "setup_s"] {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{line}"
            );
        }
    }
    // The ingest run restarted its server after kill -9 and said so.
    assert!(
        stdout.contains("# recovery_ms = "),
        "no kill -9 check:\n{stdout}"
    );

    let trace = Command::new(BENCHMARK)
        .args(["trace", "--smoke", "--seed", "7"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&trace.stdout);
    let stderr = String::from_utf8_lossy(&trace.stderr);
    assert!(
        trace.status.success(),
        "trace --smoke failed:\n{stdout}\n{stderr}"
    );
    let lines = result_lines(&stdout);
    assert_eq!(lines.len(), 4, "one result line per workload:\n{stdout}");
    for line in &lines {
        assert!(line.contains("\"failed\": 0"), "{line}");
        for metric in [
            "client.unaccounted_frac",
            "client.trace_overhead_frac",
            "sqlengine.execute_ms",
            "elephant-server.queue_wait_us_p50",
            "elephant-store.recovery_ms",
        ] {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{line}"
            );
        }
    }
    for workload in ["inspect", "analytics", "serve", "ingest"] {
        let path = scratch_root().join(format!("trace-{workload}.json"));
        let text = std::fs::read_to_string(&path).expect("trace file written");
        assert!(text.contains("\"client_spans\": ["), "{}", path.display());
        assert!(text.contains("\"name\": \"round\""), "{}", path.display());
    }

    // A workload that does not exist is refused with a non-zero exit.
    let bad = Command::new(BENCHMARK)
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark runs");
    assert!(!bad.status.success());

    assert_eq!(leaked_servers(), Vec::<String>::new(), "servers left alive");
    let stale: Vec<_> = std::fs::read_dir(scratch_root())
        .expect("scratch root exists")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("data-"))
        .collect();
    assert!(stale.is_empty(), "data directories left behind: {stale:?}");
    eprintln!("smoke pass took {:.1} s", started.elapsed().as_secs_f64());
}
