//! The `elephant-serve` child the workloads run against.
//!
//! A [`Server`] owns its process and its data directory: dropping it — on
//! the normal path, on an oracle failure or while a panic unwinds — sends
//! `SIGKILL`, reaps the child and removes the directory, so no run leaves a
//! server behind holding the inherited stdout pipe open.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Name of the server binary, looked up beside the benchmark's own.
const SERVER_BIN: &str = "elephant-serve";

/// `<target>/<profile>/elephant-serve`, a sibling of this executable.
pub fn server_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // Integration tests run from `<profile>/deps/`; the bins live one up.
    let candidates = exe.ancestors().skip(1).take(2).map(|d| d.join(SERVER_BIN));
    for path in candidates {
        if path.is_file() {
            return Ok(path);
        }
    }
    Err(format!(
        "{SERVER_BIN} not found beside {} — run `cargo build --release` \
         (or `cargo build -p elephant-server` for a debug build) first",
        exe.display()
    ))
}

/// Where data directories and trace files go: `<target>/benchmark/`, which
/// is inside the checkout and covered by `.gitignore`.
pub fn scratch_root() -> Result<PathBuf, String> {
    let bin = server_binary()?;
    let target = bin
        .parent()
        .and_then(Path::parent)
        .ok_or("server binary has no target directory")?;
    let root = target.join("benchmark");
    fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    Ok(root)
}

/// A fresh, empty data directory unique to this process and call.
pub fn fresh_data_dir() -> Result<PathBuf, String> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch_root()?.join(format!("data-{}-{n}", std::process::id()));
    // A previous process with the same pid may have died without cleaning up.
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A running server child.
pub struct Server {
    child: Child,
    // Held so the child never writes into a closed pipe; it prints two lines.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    data_dir: PathBuf,
    /// Spawn to `listening on`: start-up including recovery.
    pub startup_ms: f64,
}

impl Server {
    /// Spawn on `data_dir` with the pinned configuration (`--fsync always`,
    /// an explicit `--shards`, an OS-assigned loopback port) plus `extra`.
    pub fn spawn(data_dir: PathBuf, shards: usize, extra: &[String]) -> Result<Server, String> {
        let bin = server_binary()?;
        let started = Instant::now();
        let mut child = Command::new(&bin)
            .args(["--addr", "127.0.0.1:0", "--fsync", "always"])
            .args(["--shards", &shards.to_string()])
            .arg("--data-dir")
            .arg(&data_dir)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => parse_listening(&line),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = fs::remove_dir_all(&data_dir);
            return Err(format!(
                "{SERVER_BIN} did not report its address; first line: {line:?}"
            ));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            data_dir,
            startup_ms: started.elapsed().as_secs_f64() * 1e3,
        })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    pub fn data_dir(&self) -> &Path {
        &self.data_dir
    }

    /// Peak resident set size of the child so far (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        parse_vm_hwm_kb(&status)
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// `SIGKILL` the child, reap it, and start a new server on the same
    /// data directory — the crash half of the durability check.
    pub fn kill_and_restart(mut self, shards: usize, extra: &[String]) -> Result<Server, String> {
        self.stop();
        // The restarted server inherits the directory; leave a harmless
        // placeholder so this value's drop has nothing to remove.
        let dir = std::mem::take(&mut self.data_dir);
        Server::spawn(dir, shards, extra)
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        if !self.data_dir.as_os_str().is_empty() {
            let _ = fs::remove_dir_all(&self.data_dir);
        }
    }
}

/// `elephant-serve listening on 127.0.0.1:40123 (in-memory profile, …`.
fn parse_listening(line: &str) -> Option<String> {
    let rest = line.split("listening on ").nth(1)?;
    let addr = rest.split_whitespace().next()?;
    addr.contains(':').then(|| addr.to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Pids of every live `elephant-serve` whose parent is this process.
pub fn live_children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids = Vec::new();
    for entry in entries.flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|n| n.parse::<u32>().ok())
        else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // `pid (comm) state ppid …`; comm is truncated to 15 bytes.
        let Some((head, tail)) = stat.rsplit_once(") ") else {
            continue;
        };
        let comm = head.split_once('(').map_or("", |(_, c)| c);
        let mut fields = tail.split(' ');
        let state = fields.next().unwrap_or("");
        let ppid = fields.next().unwrap_or("");
        if SERVER_BIN.starts_with(comm) && !comm.is_empty() && ppid == me && state != "Z" {
            pids.push(pid);
        }
    }
    pids
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_parses() {
        let line = "elephant-serve listening on 127.0.0.1:5601 (in-memory profile, row \
                    execution, durable storage, 2 shards, standalone); send SHUTDOWN to stop\n";
        assert_eq!(parse_listening(line).as_deref(), Some("127.0.0.1:5601"));
        assert_eq!(parse_listening("startup failed: boom\n"), None);
        assert_eq!(parse_listening(""), None);
    }

    #[test]
    fn vm_hwm_parses() {
        let status =
            "Name:\telephant-serve\nVmPeak:\t  200000 kB\nVmHWM:\t  117932 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(117_932));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }
}
