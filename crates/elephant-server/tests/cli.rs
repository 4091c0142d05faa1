//! `elephant-serve` refuses the settings it no longer has: each removed
//! flag exits with code 2 and a parse message before a port is bound.

use std::process::{Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Run `elephant-serve --addr 127.0.0.1:0 --no-data <args>` to its exit;
/// returns the exit code, stdout and stderr. A server still running after
/// ten seconds accepted the flags: it is killed and the test fails.
fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_elephant-serve"))
        .args(["--addr", "127.0.0.1:0", "--no-data"])
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn elephant-serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll elephant-serve").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("elephant-serve {args:?} is still running: it accepted the flags");
        }
        sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collect elephant-serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn removed_settings_are_refused_before_binding() {
    let cases: [(&[&str], &str); 4] = [
        (&["--disk"], "unknown flag '--disk'"),
        (&["--slow-query-us", "1"], "unknown flag '--slow-query-us'"),
        (
            &["--auto-checkpoint-wal-bytes", "1"],
            "unknown flag '--auto-checkpoint-wal-bytes'",
        ),
        (
            &["--fsync", "every_n:3"],
            "--fsync: cannot parse 'every_n:3'",
        ),
    ];
    for (args, message) in cases {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr:?}");
        assert!(stderr.contains(message), "{args:?}: stderr {stderr:?}");
        assert!(
            !stdout.contains("listening on"),
            "{args:?}: stdout {stdout:?}"
        );
    }
}
