//! The `varbench worker` stdin protocol a supervisor drives: every byte
//! is a ring, and stdin closing after a byte means the supervisor is
//! gone, so the worker exits instead of polling on.

use std::io::Write;
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn a_worker_exits_once_its_supervisor_closes_stdin() {
    let dir = std::env::temp_dir().join(format!("varbench-stdin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp cache dir");
    let mut child = Command::new(env!("CARGO_BIN_EXE_varbench"))
        .arg("worker")
        .arg("--cache-dir")
        .arg(&dir)
        // Neither idleness nor a poll may end the worker within the test.
        .args(["--poll-ms", "3600000", "--idle-rounds", "1000000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn worker");
    // The ring a supervisor writes at spawn; dropping the pipe's write
    // end then stands in for the supervisor dying.
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(b"\n").expect("ring the worker");
    drop(stdin);

    // Bounded: a worker that polls on is killed, then reported.
    let tick = Duration::from_millis(10);
    let mut waited = Duration::ZERO;
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the worker") {
            break Some(status);
        }
        if waited >= Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(tick);
        waited += tick;
    };
    let _ = std::fs::remove_dir_all(&dir);
    let status = status.expect("the worker must exit once its stdin closes");
    assert!(status.success(), "a clean exit, not a crash: {status}");
}
