//! Integration tests of the study server against real sockets: the
//! ISSUE-level acceptance properties — a warm-cache request answers
//! byte-identically without computing, a cold request computes only the
//! missing matrix delta, and concurrent identical requests compute the
//! matrix exactly once (request coalescing through the shared
//! `MeasureCache`).

use std::sync::Barrier;
use varbench::core::ctx::RunContext;
use varbench::core::json::Json;
use varbench_bench::serve::{http_request, ServeState, Server};

fn start_server() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let state = ServeState::new(RunContext::serial_cached());
    let server = Server::bind("127.0.0.1:0", state).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    (addr, std::thread::spawn(move || server.run()))
}

fn shutdown(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let (status, _) = http_request(addr, "POST", "/v1/shutdown", None).expect("shutdown request");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("server thread exits")
        .expect("accept loop exits cleanly");
}

fn cache_stat(addr: std::net::SocketAddr, field: &str) -> u64 {
    let (status, body) = http_request(addr, "GET", "/v1/cache/stats", None).expect("stats");
    assert_eq!(status, 200, "{body}");
    Json::parse(&body)
        .expect("stats body parses")
        .get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats field {field} in {body}"))
}

#[test]
fn cold_then_warm_requests_compute_only_the_missing_delta() {
    let (addr, handle) = start_server();
    let study = |seeds: usize| {
        format!(r#"{{"workload":"synthetic-ridge","effort":"test","seeds":{seeds}}}"#)
    };

    // Cold: the 3-row matrix is computed outright.
    let (status, cold) = http_request(addr, "POST", "/v1/study", Some(&study(3))).unwrap();
    assert_eq!(status, 200, "{cold}");
    assert_eq!(cache_stat(addr, "misses"), 1);
    assert_eq!(cache_stat(addr, "rows_computed"), 3);

    // Warm replay: byte-identical, nothing computed, answered from the
    // response memo before the cache is consulted.
    let (status, warm) = http_request(addr, "POST", "/v1/study", Some(&study(3))).unwrap();
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "warm response is byte-identical");
    assert_eq!(cache_stat(addr, "rows_computed"), 3, "no new rows");
    assert_eq!(cache_stat(addr, "full_hits"), 0);
    assert_eq!(cache_stat(addr, "replayed"), 1);

    // A longer request extends the cached prefix: only the 2 missing
    // rows are computed, not a fresh 5-row matrix.
    let (status, _) = http_request(addr, "POST", "/v1/study", Some(&study(5))).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        cache_stat(addr, "misses"),
        1,
        "prefix extension, not a miss"
    );
    assert_eq!(cache_stat(addr, "extensions"), 1);
    assert_eq!(cache_stat(addr, "rows_computed"), 5, "only the delta");
    shutdown(addr, handle);
}

#[test]
fn concurrent_identical_requests_compute_the_matrix_exactly_once() {
    let (addr, handle) = start_server();
    let body = r#"{"workload":"synthetic-ridge","effort":"test","seeds":4}"#;

    const CLIENTS: usize = 4;
    let barrier = Barrier::new(CLIENTS);
    let responses: Vec<(u16, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    http_request(addr, "POST", "/v1/study", Some(body)).expect("study request")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (status, resp) in &responses {
        assert_eq!(*status, 200, "{resp}");
        assert_eq!(resp, &responses[0].1, "all clients get identical bytes");
    }
    // However the four requests interleaved — coalesced onto one
    // in-flight computation or served after it finished — the matrix was
    // measured exactly once.
    assert_eq!(cache_stat(addr, "misses"), 1, "one leader computed");
    assert_eq!(cache_stat(addr, "rows_computed"), 4, "4 rows, once");
    // Every non-leader was *served*: by the cache (a full hit after
    // waiting out the leader's flight, or after it already finished) or
    // by the response memo (after the leader's answer was stored).
    // Which one, and how many actually overlapped the computation
    // (`coalesced`), depends on scheduling and may be 0..=3.
    assert_eq!(
        cache_stat(addr, "full_hits") + cache_stat(addr, "replayed"),
        (CLIENTS - 1) as u64
    );
    assert!(cache_stat(addr, "coalesced") <= (CLIENTS - 1) as u64);
    shutdown(addr, handle);
}
