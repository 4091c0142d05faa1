//! A kill-on-drop `elephant-serve` child for the tests that need a real
//! process (`kill -9`, restart on the same directory).
//!
//! A [`ServerChild`] owns its process and its data directory: dropping it —
//! at the end of a test, or while a failed assertion unwinds — sends
//! `SIGKILL`, reaps the child and removes the directory, so a red test
//! never leaves a server behind.

// Each test binary includes this module and uses its own subset.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running `elephant-serve` child.
pub struct ServerChild {
    child: Child,
    // Held so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    startup_line: String,
    data_dir: PathBuf,
}

impl ServerChild {
    /// Spawn `elephant-serve --addr 127.0.0.1:0 --data-dir <data_dir>
    /// <args>` with `ELEPHANT_FAULTS` set to `faults` (unset for `None`),
    /// and wait for its `... listening on <addr> (...` line.
    pub fn spawn(data_dir: &Path, args: &[&str], faults: Option<&str>) -> ServerChild {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_elephant-serve"));
        cmd.args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        match faults {
            Some(spec) => cmd.env("ELEPHANT_FAULTS", spec),
            None => cmd.env_remove("ELEPHANT_FAULTS"),
        };
        let mut child = cmd.spawn().expect("spawn elephant-serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut startup_line = String::new();
        let _ = stdout.read_line(&mut startup_line);
        let addr = startup_line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("elephant-serve did not report its address; first line: {startup_line:?}");
        };
        ServerChild {
            child,
            _stdout: stdout,
            addr,
            startup_line,
            data_dir: data_dir.to_path_buf(),
        }
    }

    /// The address the server bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's first stdout line (profile, storage, shard count).
    pub fn startup_line(&self) -> &str {
        &self.startup_line
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9` and reap the child but keep its data directory, for the
    /// next incarnation to recover from.
    pub fn kill_keep_data(mut self) {
        self.stop();
        self.data_dir = PathBuf::new();
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.stop();
        if !self.data_dir.as_os_str().is_empty() {
            let _ = std::fs::remove_dir_all(&self.data_dir);
        }
    }
}
