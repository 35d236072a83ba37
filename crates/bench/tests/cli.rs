//! The `varbench` command line end to end: usage errors, `study
//! --workers 0`, retry and respawn counts at the top of their range,
//! transport failures (exit 1, with the no-server hint only when no
//! response arrived), and the `lint --json` document.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn varbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_varbench"))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("varbench-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Polls `probe` every 10 ms until it yields a value, for up to 60 s.
fn poll<T>(mut probe: impl FnMut() -> Option<T>) -> Option<T> {
    for _ in 0..6_000 {
        if let Some(value) = probe() {
            return Some(value);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

#[test]
fn usage_errors_exit_2_and_name_the_flag_or_value() {
    for (args, message) in [
        ("run fig1 --ful", "unknown run flag '--ful'"),
        ("run fig1 --threads", "--threads needs a number"),
        ("run fig1 --threads x", "invalid --threads value 'x'"),
        (
            "study synthetic-ridge --sedes 3",
            "unknown study flag '--sedes'",
        ),
        (
            "study synthetic-ridge --seeds",
            "--seeds needs a count >= 2",
        ),
        ("serve --addr", "--addr needs HOST:PORT"),
        ("serve extra", "unexpected argument 'extra' after serve"),
        ("worker --bogus", "unknown worker flag '--bogus'"),
        ("query /health --retries", "--retries needs a count"),
        ("bench --max-regress x", "invalid --max-regress value 'x'"),
        ("lint --bogus", "unknown lint flag '--bogus'"),
        ("workloads --ful", "unknown workloads flag '--ful'"),
    ] {
        let out = varbench()
            .args(args.split(' '))
            .output()
            .expect("run varbench");
        assert_eq!(out.status.code(), Some(2), "{args}: {}", stderr(&out));
        assert!(stderr(&out).contains(message), "{args}: {}", stderr(&out));
        assert!(out.stdout.is_empty(), "{args} printed to stdout");
    }
}

#[test]
fn study_with_zero_workers_computes_in_process_at_once() {
    let study = |tag: &str, extra: &str| {
        let dir = fresh_dir(tag);
        let out = varbench()
            .args("study synthetic-ridge --test --seeds 4 --budget 3 --json".split(' '))
            .args(extra.split_whitespace())
            .env("VARBENCH_CACHE_DIR", &dir)
            .output()
            .expect("run the study");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(out.status.success(), "{extra}: {}", stderr(&out));
        out
    };
    let in_process = study("in-process", "");
    let zero = study("zero-workers", "--workers 0");
    assert_eq!(zero.stdout, in_process.stdout, "same bytes");
    // No dispatch, so no wait for a fleet that is never started.
    assert!(!stderr(&zero).contains("dispatch:"), "{}", stderr(&zero));
}

#[test]
fn query_with_the_largest_retry_count_reports_the_transport_error() {
    let out = varbench()
        .args("query --addr 127.0.0.1:1 --retries 4294967295 --timeout-ms 50 /health".split(' '))
        .output()
        .expect("run query");
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("request to 127.0.0.1:1 failed"), "{err}");
}

#[test]
fn a_remote_study_nobody_answers_is_a_runtime_failure() {
    let out = varbench()
        .args("study synthetic-ridge --test --addr 127.0.0.1:1".split(' '))
        .output()
        .expect("run study");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("request to 127.0.0.1:1 failed"), "{err}");
    assert!(err.contains("is `varbench serve` running there?"), "{err}");
    assert!(!err.contains("for usage"), "not a usage error: {err}");
    assert!(out.stdout.is_empty());
}

#[test]
fn a_refused_response_exits_1_without_the_no_server_hint() {
    // A peer that answers, but announces a body past the client's cap.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let peer = std::thread::spawn(move || {
        use std::io::{Read, Write};
        let (mut stream, _) = listener.accept().expect("accept");
        let mut request = Vec::new();
        let mut chunk = [0u8; 1024];
        while !request.windows(4).any(|w| w == b"\r\n\r\n") {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => request.extend_from_slice(&chunk[..n]),
            }
        }
        let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000\r\n\r\n{");
    });
    let out = varbench()
        .args(["query", "--addr", &addr, "/health"])
        .output()
        .expect("run query");
    peer.join().expect("peer thread");
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("response body too large"), "{err}");
    assert!(
        !err.contains("running there"),
        "a response did arrive: {err}"
    );
    assert!(!err.contains("for usage"), "not a usage error: {err}");
}

#[test]
fn serve_with_the_largest_respawn_count_binds_and_shuts_down() {
    let dir = fresh_dir("serve-respawns");
    let ready = dir.join("ready");
    let mut child = varbench()
        .args(["serve", "--addr", "127.0.0.1:0", "--ready-file"])
        .arg(&ready)
        .args(["--workers", "1", "--max-respawns", "4294967295"])
        .env("VARBENCH_CACHE_DIR", dir.join("cache"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    // The bound address, or `None` once serve has exited without one.
    let addr = poll(|| match std::fs::read_to_string(&ready) {
        Ok(text) if text.ends_with('\n') => Some(Some(text.trim().to_string())),
        _ => child.try_wait().expect("poll serve").map(|_| None),
    })
    .flatten();
    let shutdown = addr.as_deref().map(|addr| {
        let addr = addr.parse().expect("bound address");
        varbench_bench::serve::http_request(addr, "POST", "/v1/shutdown", None)
    });
    let status = poll(|| child.try_wait().expect("poll serve"));
    if status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
    let (code, body) = shutdown
        .expect("serve never wrote its ready file")
        .expect("shutdown request");
    assert_eq!(code, 200, "{body}");
    let status = status.expect("serve must exit after its shutdown request");
    assert!(status.success(), "a clean exit, not a crash: {status}");
}

#[test]
fn lint_json_prints_one_document_and_one_newline() {
    let out = varbench()
        .args(["lint", "--json", "crates/core/src/json.rs"])
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("run lint");
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert_eq!(
        stdout,
        "{\"schema\":\"varbench-lint/1\",\"diagnostics\":[]}\n"
    );
    assert!(varbench_core::json::Json::parse(&stdout).is_ok());
}
