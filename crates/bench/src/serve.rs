//! `varbench serve` — a std-only HTTP/1.1 + JSON study server over the
//! shared measurement cache.
//!
//! The paper's score matrices are community infrastructure: queried far
//! more often than they are computed. This module turns the one-shot CLI
//! into a long-running service — a bounded pool of handler threads fed
//! by a fixed-capacity accept queue, where every request runs against
//! **one** [`RunContext`], so the `MeasureCache` answers a first request
//! for already-measured matrices from memory or disk, schedules only the
//! missing matrix delta for cold ones, and coalesces concurrent
//! identical requests into a single computation.
//!
//! A *repeated* request does not get that far: the `200` answers of the
//! routes whose body is a pure function of the request (`/v1/study`,
//! `/v1/run` and the two listings) are kept in a response memo bounded
//! by 64 KiB of key plus body bytes, keyed by the method, path and body
//! bytes as received, and replayed without parsing, key building, cache
//! lookup or rendering. Replay is exact by the bit-identity rule below;
//! `GET /v1/cache/stats` counts it as `replayed`.
//!
//! When every handler is busy and the queue is full, new connections
//! are **shed** with `503 Service Unavailable` instead of being read:
//! the listener stays responsive under overload, and clients retry
//! with backoff ([`http_request_retry`] is the matching transport).
//!
//! # Endpoints
//!
//! | method & path | body | answers |
//! |---|---|---|
//! | `GET /health` | — | liveness probe (the process answers) |
//! | `GET /v1/ready` | — | readiness: fleet health, 503 when all quarantined |
//! | `GET /v1/workloads` | — | registered workload names + sources |
//! | `GET /v1/artifacts` | — | registry artifact names |
//! | `GET /v1/cache/stats` | — | cache hit/miss/coalescing counters, memo replays |
//! | `POST /v1/run` | [`RunRequest`] | `varbench-report/1` envelope |
//! | `POST /v1/study` | [`StudyRequest`] | `varbench-report/1` envelope |
//! | `POST /v1/shutdown` | — | acks, then drains and stops |
//!
//! # Connections and the fleet
//!
//! Connections are HTTP/1.1 **keep-alive** by default: a handler serves
//! up to [`MAX_KEEPALIVE_REQUESTS`] requests per connection, waiting
//! [`KEEPALIVE_IDLE`] between them and giving each request
//! [`REQUEST_READ`] per read to arrive (`Connection: close`, HTTP/1.0,
//! or either limit ends the session). Every `503` carries a
//! `Retry-After` hint that [`http_request_retry`] honors.
//!
//! A [`StudyRequest`] with `"dispatch": true` routes the study's plan
//! through the PR-9 worker-fleet machinery: rows are enqueued into the
//! cache-dir lease queue, a supervised fleet (see [`crate::supervisor`])
//! is rung and computes them, the driver's stall-detection reclaims dead
//! owners' leases and rings the fleet to take them over, and the
//! response is then assembled **in-process from the warm cache** — so
//! served bytes stay identical to offline runs no matter which process
//! computed which row. Shutdown drains gracefully: stop
//! accepting, finish in-flight requests, stop the fleet via its stop
//! file, release any lease the fleet still holds, then exit.
//!
//! Report responses are **byte-identical** to the equivalent offline CLI
//! invocation (`varbench run ... --json` / `varbench study ... --json`):
//! the protocol layer shares the CLI's envelope and builders, and the
//! cache guarantees cached == uncached bytes, so where a value is
//! computed — this process, an earlier process, a fleet worker — never
//! shows in the response.
//!
//! The server reads no wall clock (socket timeouts are plain
//! `Duration`s); it is deterministic in its inputs like everything else
//! in the workspace.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::protocol::{RunRequest, StudyRequest};
use crate::registry;
use crate::supervisor::Supervisor;
use crate::worker::{self, DispatchConfig};
use crate::workloads;
use varbench_core::ctx::RunContext;
use varbench_core::json::Json;
use varbench_pipeline::faultpoint::faultpoint;
use varbench_pipeline::Scale;

/// Per-connection write timeout (and the client-side socket timeout).
/// Generous: a cold `--full` study computes for a while before the
/// response starts.
const IO_TIMEOUT: Duration = Duration::from_secs(600);

/// Per-read deadline while a request is arriving. Bounded reads
/// (`MAX_HEAD`/`MAX_BODY`) make this an effective per-request
/// deadline: a half-sent request cannot hold a handler forever.
pub const REQUEST_READ: Duration = Duration::from_secs(30);

/// How long a keep-alive connection may sit idle between requests
/// before the server closes it and returns the handler to the pool.
pub const KEEPALIVE_IDLE: Duration = Duration::from_secs(5);

/// Requests served per connection before the server closes it (bounds
/// how long one chatty client can monopolize a handler).
pub const MAX_KEEPALIVE_REQUESTS: usize = 1024;

/// Maximum accepted request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;

/// Maximum accepted request body.
const MAX_BODY: usize = 1024 * 1024;

/// Default handler-pool size.
pub const DEFAULT_HANDLERS: usize = 8;

/// Default accept-queue capacity (connections waiting for a handler
/// beyond the ones being served; past this, connections are shed).
pub const DEFAULT_QUEUE: usize = 32;

/// Bound on the response memo: key plus body bytes of every stored
/// answer. A warm benchmark pool of seven test studies, the workload
/// listing and a test run (≈8.3 KB with keys) fits seven times over.
const MEMO_BYTES: usize = 64 * 1024;

/// Shared server state: the one execution context every request runs
/// against (sharing the context is the entire point — it is what makes
/// request N answerable from the matrices requests 1..N-1 computed),
/// the response memo that replays repeated requests, plus the optional
/// supervised worker fleet behind `"dispatch": true` studies.
pub struct ServeState {
    ctx: RunContext,
    fleet: Option<Supervisor>,
    dispatch: DispatchConfig,
    memo: Mutex<ResponseMemo>,
}

/// The `200` answers of the replayable routes, keyed by the request as
/// received (see [`memo_key`]). Holds at most [`MEMO_BYTES`] of key plus
/// body bytes and evicts the oldest insert first; a hit does not reorder
/// entries. An answer whose key plus body alone exceeds the bound is
/// never stored.
#[derive(Default)]
struct ResponseMemo {
    entries: BTreeMap<Arc<str>, Arc<str>>,
    /// The keys of `entries`, oldest insert first: the eviction order.
    order: VecDeque<Arc<str>>,
    /// Key plus body bytes held in `entries`.
    bytes: usize,
    /// Requests answered from `entries`.
    replayed: u64,
}

impl ResponseMemo {
    /// The stored answer for `key`, counted as replayed.
    fn replay(&mut self, key: &str) -> Option<Arc<str>> {
        let hit = Arc::clone(self.entries.get(key)?);
        self.replayed += 1;
        Some(hit)
    }

    /// Stores `body` under `key`, evicting the oldest entries until it
    /// fits. Two concurrent identical misses both get here: the first
    /// insert wins.
    fn insert(&mut self, key: String, body: &str) {
        let size = key.len() + body.len();
        if size > MEMO_BYTES || self.entries.contains_key(key.as_str()) {
            return;
        }
        while self.bytes + size > MEMO_BYTES {
            let oldest = self.order.pop_front().expect("stored bytes have an entry");
            let evicted = self
                .entries
                .remove(&oldest)
                .expect("order lists stored keys");
            self.bytes -= oldest.len() + evicted.len();
        }
        let key: Arc<str> = key.into();
        self.entries.insert(Arc::clone(&key), body.into());
        self.order.push_back(key);
        self.bytes += size;
    }
}

/// The memo key of a request: method, path and body bytes as received,
/// never re-rendered, so a hit parses nothing. Only fixed method and
/// path pairs reach the memo, so the first newline ends the prefix.
fn memo_key(method: &str, path: &str, body: &str) -> String {
    [method, " ", path, "\n", body].concat()
}

impl ServeState {
    /// Wraps an execution context for serving (no fleet; dispatch
    /// requests still work — they degrade to the in-process fallback
    /// after the dispatch wait, exactly like an offline driver whose
    /// fleet never showed up).
    pub fn new(ctx: RunContext) -> ServeState {
        ServeState {
            ctx,
            fleet: None,
            dispatch: DispatchConfig::default(),
            memo: Mutex::default(),
        }
    }

    /// Attaches a supervised worker fleet: dispatched studies are
    /// computed by its workers, and `GET /v1/ready` reflects its health.
    pub fn with_fleet(mut self, fleet: Supervisor) -> ServeState {
        self.fleet = Some(fleet);
        self
    }

    /// Overrides the dispatch pacing: total wait budget before the
    /// in-process fallback, and the per-row stall timeout after which a
    /// held lease is reclaimed.
    pub fn with_dispatch(mut self, dispatch: DispatchConfig) -> ServeState {
        self.dispatch = dispatch;
        self
    }

    /// The shared execution context.
    pub fn ctx(&self) -> &RunContext {
        &self.ctx
    }

    /// The supervised fleet, if one is attached.
    pub fn fleet(&self) -> Option<&Supervisor> {
        self.fleet.as_ref()
    }

    fn memo(&self) -> MutexGuard<'_, ResponseMemo> {
        self.memo.lock().expect("response memo poisoned")
    }
}

/// Dispatches one parsed request to its handler — the pure core of the
/// server (no sockets), so tests and benches drive it directly.
/// Returns `(status, body)`; bodies are JSON and newline-terminated.
///
/// A request to `POST /v1/study`, `POST /v1/run`, `GET /v1/workloads`
/// or `GET /v1/artifacts` whose method, path and body bytes match an
/// earlier `200` answer still in the memo gets those bytes back without
/// being parsed; a repeated `"dispatch": true` study enqueues nothing.
/// Every other request, and every answer that is not a `200`, runs
/// fresh.
pub fn route(state: &ServeState, method: &str, path: &str, body: &str) -> (u16, String) {
    let replayable = matches!(
        (method, path),
        ("POST", "/v1/study" | "/v1/run") | ("GET", "/v1/workloads" | "/v1/artifacts")
    );
    if !replayable {
        return route_fresh(state, method, path, body);
    }
    let key = memo_key(method, path, body);
    // The lock is held to clone the entry's `Arc`, not to copy its bytes.
    let hit = state.memo().replay(&key);
    if let Some(hit) = hit {
        return (200, hit.to_string());
    }
    let (status, answer) = route_fresh(state, method, path, body);
    if status == 200 {
        state.memo().insert(key, &answer);
    }
    (status, answer)
}

/// [`route`] without the memo.
fn route_fresh(state: &ServeState, method: &str, path: &str, body: &str) -> (u16, String) {
    match (method, path) {
        ("GET", "/health") => (200, "{\"ok\":true}\n".into()),
        ("GET", "/v1/ready") => ready_body(state),
        ("GET", "/v1/workloads") => (200, workloads_body()),
        ("GET", "/v1/artifacts") => (200, artifacts_body()),
        ("GET", "/v1/cache/stats") => (200, cache_stats_body(state)),
        ("POST", "/v1/run") => match parse_body(body).and_then(|doc| RunRequest::from_json(&doc)) {
            Ok(req) => (200, req.run(state.ctx())),
            Err(e) => (400, error_body(&e)),
        },
        ("POST", "/v1/study") => {
            match parse_body(body).and_then(|doc| StudyRequest::from_json(&doc)) {
                Ok(req) if req.dispatch => match run_study_dispatched(state, &req) {
                    Ok(body) => (200, body),
                    Err(e) => (400, error_body(&e)),
                },
                Ok(req) => match req.run_json(state.ctx()) {
                    Ok(body) => (200, body),
                    Err(e) => (400, error_body(&e)),
                },
                Err(e) => (400, error_body(&e)),
            }
        }
        ("POST", "/v1/shutdown") => (200, "{\"ok\":true,\"shutting_down\":true}\n".into()),
        // Known path, wrong method → 405; anything else → 404.
        (_, "/health" | "/v1/ready" | "/v1/workloads" | "/v1/artifacts" | "/v1/cache/stats") => {
            (405, error_body("use GET for this endpoint"))
        }
        (_, "/v1/run" | "/v1/study" | "/v1/shutdown") => {
            (405, error_body("use POST for this endpoint"))
        }
        _ => (404, error_body(&format!("no such endpoint: {path}"))),
    }
}

fn parse_body(body: &str) -> Result<Json, String> {
    if body.trim().is_empty() {
        return Err("request body must be a JSON object".into());
    }
    Json::parse(body).map_err(|e| format!("invalid JSON: {e}"))
}

fn error_body(message: &str) -> String {
    body(Json::object(vec![("error", message.into())]))
}

/// A response body: the document plus the newline every body ends in.
fn body(doc: Json) -> String {
    format!("{doc}\n")
}

/// `GET /v1/workloads`. Name, metric and sources do not depend on
/// scale, so the listing renders from the cheap test-scale instances
/// and never synthesizes a quick- or full-scale dataset.
fn workloads_body() -> String {
    let items = workloads::all(Scale::Test).into_iter().map(|w| {
        Json::object(vec![
            ("name", w.name().into()),
            ("metric", w.metric_name().into()),
            (
                "sources",
                w.active_sources().iter().map(|s| s.label()).collect(),
            ),
        ])
    });
    body(Json::object(vec![("workloads", items.collect())]))
}

fn artifacts_body() -> String {
    let items = registry::all().iter().map(|s| {
        Json::object(vec![
            ("name", s.name.into()),
            ("title", s.title.into()),
            ("description", s.description.into()),
        ])
    });
    body(Json::object(vec![("artifacts", items.collect())]))
}

/// `GET /v1/cache/stats`: the `MeasureCache` counters, then `replayed`,
/// the requests the response memo answered (those never reach the
/// cache, so they move no other counter).
fn cache_stats_body(state: &ServeState) -> String {
    let s = state.ctx().cache().stats();
    body(Json::object(vec![
        ("full_hits", s.full_hits.into()),
        ("extensions", s.extensions.into()),
        ("misses", s.misses.into()),
        ("rows_computed", s.rows_computed.into()),
        ("rows_served", s.rows_served.into()),
        ("records_computed", s.records_computed.into()),
        ("records_served", s.records_served.into()),
        ("record_fits_computed", s.record_fits_computed.into()),
        ("disk_loads", s.disk_loads.into()),
        ("coalesced", s.coalesced.into()),
        ("replayed", state.memo().replayed.into()),
        ("persistent", state.ctx().cache().is_persistent().into()),
    ]))
}

/// `GET /v1/ready`: readiness as distinct from `/health` liveness. A
/// fleetless server is ready (every request computes in-process); a
/// fleet-backed one is ready while at least one worker slot is live —
/// when the whole fleet is quarantined, dispatched studies would all
/// burn the dispatch wait before falling back, so the server says 503
/// and lets the load balancer route elsewhere.
fn ready_body(state: &ServeState) -> (u16, String) {
    match state.fleet() {
        None => (200, "{\"ready\":true,\"fleet\":null}\n".into()),
        Some(fleet) => {
            let s = fleet.status();
            let ready = s.slots.is_empty() || s.running() > 0;
            let fleet = Json::object(vec![
                ("workers", s.slots.len().into()),
                ("running", s.running().into()),
                ("quarantined", s.quarantined().into()),
                ("respawns", s.respawns().into()),
            ]);
            let doc = Json::object(vec![("ready", ready.into()), ("fleet", fleet)]);
            (if ready { 200 } else { 503 }, body(doc))
        }
    }
}

/// The fleet-backed study path (`"dispatch": true`): enqueue the plan
/// into the lease queue, wait on the fleet with the offline driver's
/// stall-detection/reclaim loop, then assemble the response in-process
/// from the warm cache. The assembly step is what pins the bytes: it is
/// the same single-process code path as a non-dispatched request, so
/// fleet or no fleet, crashes or none, equal requests answer equal
/// bytes.
fn run_study_dispatched(state: &ServeState, req: &StudyRequest) -> Result<String, String> {
    let ctx = state.ctx();
    if !ctx.cache().is_persistent() {
        return Err(
            "dispatch needs a disk-backed cache: restart serve with VARBENCH_CACHE_DIR set".into(),
        );
    }
    let workload = req.find_workload()?;
    let plan = req.configure(workload.as_ref())?.plan();
    let jobs = worker::study_jobs(&req.workload, req.effort, workload.as_ref(), plan, ctx);
    faultpoint("serve:mid-dispatch");
    let outcome = worker::dispatch(&state.dispatch, jobs, ctx, state.fleet());
    eprintln!("serve dispatch: {outcome}");
    req.run_json(ctx)
}

struct Request {
    method: String,
    path: String,
    body: String,
    /// The client asked for (or its HTTP version defaults to) connection
    /// close after this response.
    close: bool,
}

/// What one attempt to read a request produced.
enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Clean EOF or idle timeout *before any request bytes*: the normal
    /// end of a keep-alive session — close silently, nothing to answer.
    Quiet,
    /// A broken or oversized request, as a ready-to-send `(status,
    /// body)`; the connection closes after the error response.
    Failed(u16, String),
}

/// Reads and parses one HTTP/1.x request. `buf` is the connection's
/// read buffer: it starts with whatever the client sent past the
/// previous request (a pipelining client's next request), and keeps
/// what arrives past this one's body for the next call. The caller sets
/// the read timeout for the *first* byte (the keep-alive idle window);
/// once request bytes start arriving this switches to the per-read
/// [`REQUEST_READ`] deadline.
fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>) -> ReadOutcome {
    use ReadOutcome::Failed;
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_head_end(buf) {
            break i;
        }
        // No terminator yet, so the head is at least `buf.len() - 3`
        // bytes: the terminator may start in the last three.
        if buf.len() > MAX_HEAD + 3 {
            return Failed(413, error_body("request head too large"));
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return ReadOutcome::Quiet,
            Ok(0) => return Failed(400, error_body("connection closed mid-request")),
            Ok(n) => {
                if buf.is_empty() {
                    // First bytes of a request: idle window over, the
                    // per-request read deadline applies from here.
                    let _ = stream.set_read_timeout(Some(REQUEST_READ));
                }
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if is_timeout(&e) && buf.is_empty() => return ReadOutcome::Quiet,
            Err(e) => return Failed(408, error_body(&format!("read failed: {e}"))),
        }
    };
    // A read can bring the terminator in up to a chunk past the limit.
    if head_end > MAX_HEAD {
        return Failed(413, error_body("request head too large"));
    }
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(head) => head,
        Err(_) => return Failed(400, error_body("request head is not UTF-8")),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let (method, path, http11) = match parse_request_line(request_line) {
        Ok(parsed) => parsed,
        Err(e) => return Failed(400, error_body(&format!("malformed request line: {e}"))),
    };
    let mut content_length = 0usize;
    let mut connection: Option<String> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => return Failed(400, error_body("bad Content-Length")),
                };
            } else if name.eq_ignore_ascii_case("connection") {
                connection = Some(value.trim().to_ascii_lowercase());
            }
        }
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
    // Connection header overrides either way.
    let close = match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => !http11,
    };
    if content_length > MAX_BODY {
        return Failed(413, error_body("request body too large"));
    }
    let end = head_end + 4 + content_length;
    while buf.len() < end {
        match stream.read(&mut chunk) {
            Ok(0) => return Failed(400, error_body("connection closed mid-body")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Failed(408, error_body(&format!("read failed: {e}"))),
        }
    }
    let body_bytes = buf[head_end + 4..end].to_vec();
    buf.drain(..end);
    let body = match String::from_utf8(body_bytes) {
        Ok(body) => body,
        Err(_) => return Failed(400, error_body("request body is not UTF-8")),
    };
    ReadOutcome::Request(Request {
        method,
        path,
        body,
        close,
    })
}

/// Whether `e` is a read-timeout (both kinds a blocking socket with
/// `SO_RCVTIMEO` reports, platform-dependent).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// Parses an HTTP/1.x request line into `(method, path, is_http11)`.
/// Pure, so the error taxonomy — empty line, too few tokens, wrong
/// protocol — is unit-testable without a socket. Every failure maps to
/// a 400.
fn parse_request_line(line: &str) -> Result<(String, String, bool), String> {
    let mut parts = line.split_whitespace();
    let Some(method) = parts.next() else {
        return Err("empty request line".into());
    };
    let (Some(path), Some(version)) = (parts.next(), parts.next()) else {
        return Err(format!("expected `METHOD PATH VERSION`, got {line:?}"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol version {version:?}"));
    }
    Ok((method.to_string(), path.to_string(), version == "HTTP/1.1"))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn render_response(status: u16, body: &str, close: bool) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    // Every 503 — shed, unready, whatever — carries the pacing hint
    // `varbench query` honors.
    let retry_after = if status == 503 {
        "Retry-After: 1\r\n"
    } else {
        ""
    };
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n{retry_after}Connection: {connection}\r\n\r\n{body}",
        body.len()
    )
}

/// Serves one connection — up to [`MAX_KEEPALIVE_REQUESTS`] requests,
/// keep-alive between them — and returns whether a shutdown request was
/// acknowledged on it.
fn handle_connection(mut stream: TcpStream, state: &ServeState) -> bool {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut shutdown = false;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    for served in 0..MAX_KEEPALIVE_REQUESTS {
        // First request, or one already arriving (pipelined bytes left
        // in `buf`): a whole request-read window. Otherwise the shorter
        // keep-alive idle window, so a silent client returns this
        // handler to the pool quickly.
        let idle = if served == 0 || !buf.is_empty() {
            REQUEST_READ
        } else {
            KEEPALIVE_IDLE
        };
        let _ = stream.set_read_timeout(Some(idle));
        match read_request(&mut stream, &mut buf) {
            ReadOutcome::Request(req) => {
                // A panicking handler (a bug, or a workload assert) must
                // kill one response, not the server.
                let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    route(state, &req.method, &req.path, &req.body)
                }));
                let (status, body) = routed.unwrap_or_else(|_| {
                    (500, error_body("internal error: request handler panicked"))
                });
                let is_shutdown =
                    status == 200 && req.method == "POST" && req.path == "/v1/shutdown";
                shutdown |= is_shutdown;
                let close = req.close || is_shutdown || served + 1 == MAX_KEEPALIVE_REQUESTS;
                let _ = stream.write_all(render_response(status, &body, close).as_bytes());
                let _ = stream.flush();
                if close {
                    break;
                }
            }
            ReadOutcome::Quiet => break,
            ReadOutcome::Failed(status, body) => {
                let _ = stream.write_all(render_response(status, &body, true).as_bytes());
                let _ = stream.flush();
                drain_and_close(&mut stream);
                break;
            }
        }
    }
    shutdown
}

/// Finishes a connection whose request was answered without being read
/// to the end: shut down writes, then drain what the client sent.
/// Dropping a socket with unread bytes in its receive buffer turns the
/// close into an RST, which can destroy the response on its way out.
/// The drain stops at EOF, after a read idle for one second, or after
/// `MAX_BODY` bytes.
fn drain_and_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let mut sink = [0u8; 4096];
    let mut drained = 0;
    while drained < MAX_BODY {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => drained += n,
            _ => break,
        }
    }
}

/// Rejects a connection at the accept gate without reading it: the
/// queue is full, so the client gets an immediate `503` and the
/// listener moves on. Shedding is what keeps the server answering
/// health checks while a burst drains.
fn shed(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let body = error_body("server at capacity; retry with backoff");
    let _ = stream.write_all(render_response(503, &body, true).as_bytes());
    let _ = stream.flush();
    drain_and_close(&mut stream);
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    handlers: usize,
    queue: usize,
    drain: Duration,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` for an
    /// OS-assigned one) with the default pool shape (8 handlers, a
    /// queue of 32 waiting connections) and a 2 s fleet-drain budget.
    pub fn bind(addr: &str, state: ServeState) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            state: Arc::new(state),
            handlers: DEFAULT_HANDLERS,
            queue: DEFAULT_QUEUE,
            drain: Duration::from_secs(2),
        })
    }

    /// Overrides the drain budget: how long shutdown waits for fleet
    /// workers to finish their in-flight row before killing them.
    pub fn with_drain(mut self, drain: Duration) -> Server {
        self.drain = drain;
        self
    }

    /// Overrides the pool shape: `handlers` concurrent request threads
    /// (clamped to at least 1) fed by a queue holding up to `queue`
    /// waiting connections. `queue = 0` is a rendezvous: a connection
    /// is either handed to an idle handler immediately or shed.
    pub fn with_pool(mut self, handlers: usize, queue: usize) -> Server {
        self.handlers = handlers.max(1);
        self.queue = queue;
        self
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts connections until a `POST /v1/shutdown` is acknowledged,
    /// dispatching each to the handler pool — or shedding it with a
    /// `503` when the pool and queue are both full — then drains
    /// queued and in-flight requests and returns.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(self.queue);
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::with_capacity(self.handlers);
        for _ in 0..self.handlers {
            let rx = Arc::clone(&rx);
            let state = Arc::clone(&self.state);
            let shutdown_flag = Arc::clone(&shutdown);
            workers.push(std::thread::spawn(move || loop {
                // Hold the lock only to dequeue, never while handling,
                // so the other handlers keep draining the queue.
                let next = { rx.lock().expect("accept queue lock").recv() };
                let Ok(stream) = next else { break };
                if handle_connection(stream, &state) {
                    shutdown_flag.store(true, Ordering::SeqCst);
                    // Poke the accept loop so it observes the flag; the
                    // poke connection is accepted and dropped unserved.
                    let _ = TcpStream::connect(addr);
                }
            }));
        }
        for conn in self.listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            match tx.try_send(stream) {
                Ok(()) => {}
                Err(std::sync::mpsc::TrySendError::Full(stream)) => shed(stream),
                Err(std::sync::mpsc::TrySendError::Disconnected(_)) => break,
            }
        }
        // Closing the sender lets each handler finish its queue drain
        // and fall out of `recv()`.
        drop(tx);
        for w in workers {
            let _ = w.join();
        }
        // In-flight requests are done; now drain the fleet — stop file,
        // bounded wait, kill stragglers, release held leases.
        if let Some(fleet) = self.state.fleet() {
            let d = fleet.shutdown(self.drain);
            eprintln!(
                "serve: fleet drained ({} exited, {} killed, {} lease(s) released)",
                d.exited, d.killed, d.leases_released
            );
        }
        Ok(())
    }
}

/// A response as the client transport sees it: status, body, and the
/// two headers the clients act on.
struct RawResponse {
    status: u16,
    /// `Retry-After` seconds, when the server sent one (503s do).
    retry_after: Option<u64>,
    /// The server announced it will close the connection.
    close: bool,
    body: String,
}

fn write_request(
    stream: &mut TcpStream,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    close: bool,
) -> std::io::Result<()> {
    let body = body.unwrap_or("");
    let connection = if close { "close" } else { "keep-alive" };
    stream.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
             Connection: {connection}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    stream.flush()
}

/// Reads one Content-Length-framed response. EOF before a complete
/// response maps to `ConnectionAborted` — the server died mid-exchange,
/// which is a *transient* transport failure for the retrying clients
/// (the restarted server answers the retry from its warm cache). A head
/// longer than [`MAX_HEAD`] is `InvalidData`, so a peer that never ends
/// its head cannot grow the buffer without bound.
fn read_response(stream: &mut TcpStream) -> std::io::Result<RawResponse> {
    let aborted = || {
        std::io::Error::new(
            std::io::ErrorKind::ConnectionAborted,
            "connection closed before a complete response",
        )
    };
    let too_large =
        || std::io::Error::new(std::io::ErrorKind::InvalidData, "response head too large");
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        // The server's own head bound, counted as in `read_request`.
        if buf.len() > MAX_HEAD + 3 {
            return Err(too_large());
        }
        match stream.read(&mut chunk)? {
            0 => return Err(aborted()),
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    if head_end > MAX_HEAD {
        return Err(too_large());
    }
    let invalid =
        || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response head");
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid())?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(invalid)?;
    let mut content_length: Option<usize> = None;
    let mut retry_after = None;
    let mut close = false;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.parse().map_err(|_| invalid())?);
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.parse().ok();
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let content_length = content_length.ok_or_else(invalid)?;
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        match stream.read(&mut chunk)? {
            0 => return Err(aborted()),
            n => body.extend_from_slice(&chunk[..n]),
        }
    }
    body.truncate(content_length);
    let body = String::from_utf8(body).map_err(|_| invalid())?;
    Ok(RawResponse {
        status,
        retry_after,
        close,
        body,
    })
}

/// A minimal std-only HTTP/1.1 client for one request/response exchange
/// (`Connection: close`) — the `varbench query` transport, the CI smoke
/// test's curl replacement, and the serve bench driver.
///
/// `body = None` sends a bare request (GET-style); `Some` posts it.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let resp = http_request_raw(addr, method, path, body)?;
    Ok((resp.status, resp.body))
}

fn http_request_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<RawResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    write_request(&mut stream, addr, method, path, body, true)?;
    read_response(&mut stream)
}

/// A keep-alive HTTP/1.1 client: one connection reused across
/// requests, reconnecting transparently when the server closes it (idle
/// timeout, per-connection request cap, or restart). The serve bench
/// uses this to measure reused-connection throughput; anything issuing
/// many requests against one server should prefer it over per-request
/// [`http_request`].
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl HttpClient {
    /// Connects to `addr` (eagerly, so a dead server fails here, not on
    /// the first request).
    pub fn connect(addr: SocketAddr) -> std::io::Result<HttpClient> {
        Ok(HttpClient {
            addr,
            stream: Some(Self::open(addr)?),
        })
    }

    fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(stream)
    }

    /// One request/response exchange over the held connection. A failed
    /// exchange on a *reused* connection (the server idle-closed it
    /// under us) is retried once on a fresh connection before the error
    /// surfaces.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        for fresh in [false, true] {
            if fresh || self.stream.is_none() {
                self.stream = Some(Self::open(self.addr)?);
            }
            let stream = self.stream.as_mut().expect("connection just ensured");
            let exchange = write_request(stream, self.addr, method, path, body, false)
                .and_then(|()| read_response(stream));
            match exchange {
                Ok(resp) => {
                    if resp.close {
                        self.stream = None;
                    }
                    return Ok((resp.status, resp.body));
                }
                Err(e) if fresh => return Err(e),
                Err(_) => self.stream = None,
            }
        }
        unreachable!("second iteration returns either way")
    }
}

/// [`http_request`] with bounded retry under `policy`'s backoff
/// schedule — the `varbench query --retries` transport. Retried:
/// *transport* failures (connection refused/reset/aborted and timeouts:
/// the server is starting up, restarting, or died mid-exchange) and
/// `503` responses (load shedding or an unready fleet), pausing at
/// least the server's `Retry-After` hint — clamped to the policy's
/// per-pause cap, schedule-paced, no wall clock. Any other HTTP
/// response is an answer and is returned as-is; exhaustion surfaces the
/// last transport error or the last `503`.
pub fn http_request_retry(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    policy: &varbench_core::retry::RetryPolicy,
) -> std::io::Result<(u16, String)> {
    let mut attempt = 0u32;
    loop {
        match http_request_raw(addr, method, path, body) {
            Ok(resp) if resp.status == 503 => match policy.backoff_after(attempt) {
                Some(pause) => {
                    let hinted =
                        Duration::from_secs(resp.retry_after.unwrap_or(0)).min(policy.max_pause());
                    std::thread::sleep(pause.max(hinted));
                    attempt += 1;
                }
                None => return Ok((resp.status, resp.body)),
            },
            Ok(resp) => return Ok((resp.status, resp.body)),
            Err(e) => {
                let transient = matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::Interrupted
                );
                match policy.backoff_after(attempt) {
                    Some(pause) if transient => std::thread::sleep(pause),
                    _ => return Err(e),
                }
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
fn parse_response(raw: &[u8]) -> Option<(u16, String)> {
    let head_end = find_head_end(raw)?;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let body = String::from_utf8(raw[head_end + 4..].to_vec()).ok()?;
    Some((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Effort;
    use crate::protocol::json_envelope;

    fn state() -> ServeState {
        ServeState::new(RunContext::serial_cached())
    }

    const WORKLOADS_BODY: &str = concat!(
        r#"{"workloads":["#,
        r#"{"name":"glue-rte-bert","metric":"accuracy","#,
        r#""sources":["data_split","weights_init","data_order","dropout","hyperopt"]},"#,
        r#"{"name":"glue-sst2-bert","metric":"accuracy","#,
        r#""sources":["data_split","weights_init","data_order","dropout","hyperopt"]},"#,
        r#"{"name":"mhc-mlp","metric":"AUC","#,
        r#""sources":["data_split","weights_init","data_order","hyperopt"]},"#,
        r#"{"name":"pascalvoc-resnet","metric":"mean IoU","#,
        r#""sources":["data_split","weights_init","data_order","numerical_noise","hyperopt"]},"#,
        r#"{"name":"cifar10-vgg11","metric":"accuracy","#,
        r#""sources":["data_split","data_augment","weights_init","data_order","hyperopt"]},"#,
        r#"{"name":"linear-logreg","metric":"accuracy","#,
        r#""sources":["data_split","weights_init","data_order","hyperopt"]},"#,
        r#"{"name":"synthetic-ridge","metric":"AUC","sources":["data_split","hyperopt"]}"#,
        "]}\n"
    );

    #[test]
    fn route_serves_discovery_endpoints() {
        let s = state();
        let (status, body) = route(&s, "GET", "/health", "");
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}\n"));

        // Pinned byte for byte: the listing renders from test-scale
        // instances, and clients must not see the difference.
        let (status, body) = route(&s, "GET", "/v1/workloads", "");
        assert_eq!(status, 200);
        assert_eq!(body, WORKLOADS_BODY);

        let (status, body) = route(&s, "GET", "/v1/artifacts", "");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("artifacts body is valid JSON");
        let items = doc.get("artifacts").and_then(Json::as_array).unwrap();
        assert_eq!(items.len(), registry::all().len());

        let (status, body) = route(&s, "GET", "/v1/cache/stats", "");
        assert_eq!(status, 200);
        let doc = Json::parse(&body).expect("stats body is valid JSON");
        assert_eq!(doc.get("full_hits").and_then(Json::as_u64), Some(0));
        assert_eq!(doc.get("coalesced").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn route_maps_errors_to_statuses() {
        let s = state();
        assert_eq!(route(&s, "GET", "/nope", "").0, 404);
        assert_eq!(route(&s, "POST", "/health", "").0, 405);
        assert_eq!(route(&s, "GET", "/v1/run", "").0, 405);
        let (status, body) = route(&s, "POST", "/v1/run", "{not json");
        assert_eq!(status, 400);
        assert!(body.contains("invalid JSON"), "{body}");
        let (status, body) = route(&s, "POST", "/v1/run", "");
        assert_eq!(status, 400);
        assert!(body.contains("JSON object"), "{body}");
        let (status, body) = route(&s, "POST", "/v1/study", r#"{"workload":"nope"}"#);
        assert_eq!(status, 400);
        assert!(body.contains("unknown workload"), "{body}");
    }

    const ARTIFACTS_BODY: &str = concat!(
        r#"{"artifacts":["#,
        r#"{"name":"fig1","title":"Figure 1","description":"variance of each source of variation vs bootstrap"},"#,
        r#"{"name":"fig2","title":"Figure 2","description":"binomial model of test-set sampling noise"},"#,
        r#"{"name":"fig3","title":"Figure 3","description":"published SOTA increments vs benchmark sigma"},"#,
        r#"{"name":"fig5","title":"Figure 5 / H.4","description":"standard error of estimators vs number of samples k"},"#,
        r#"{"name":"fig6","title":"Figure 6","description":"detection rates of comparison criteria (calibrated simulation)"},"#,
        r#"{"name":"figc1","title":"Figure C.1","description":"Noether minimal sample sizes vs gamma"},"#,
        r#"{"name":"figf2","title":"Figure F.2","description":"HPO best-so-far optimization curves"},"#,
        r#"{"name":"figg3","title":"Figure G.3","description":"Shapiro-Wilk normality of per-source performance"},"#,
        r#"{"name":"figh5","title":"Figure H.5","description":"bias/variance/rho/MSE decomposition of estimators"},"#,
        r#"{"name":"figi6","title":"Figure I.6","description":"robustness of comparison methods vs N and gamma"},"#,
        r#"{"name":"tables","title":"Tables","description":"configuration tables and the Table 8 model comparison"},"#,
        r#"{"name":"interactions","title":"Extension: interactions","description":"interaction of variance sources (joint vs sum of marginals)"},"#,
        r#"{"name":"ablations","title":"Extension: ablations","description":"HPO-budget sweep and bootstrap-vs-CV ablations"},"#,
        r#"{"name":"workload-linear","title":"Workload: linear","description":"variance profile of the logistic-regression workload"},"#,
        r#"{"name":"workload-synth","title":"Workload: synthetic","description":"variance profile of the closed-form ridge workload"}"#,
        "]}\n"
    );

    #[test]
    fn listing_stats_and_error_bodies_keep_their_bytes() {
        let s = state();
        assert_eq!(
            route(&s, "GET", "/v1/artifacts", ""),
            (200, ARTIFACTS_BODY.into())
        );
        assert_eq!(
            route(&s, "GET", "/v1/cache/stats", "").1,
            concat!(
                r#"{"full_hits":0,"extensions":0,"misses":0,"rows_computed":0,"#,
                r#""rows_served":0,"records_computed":0,"records_served":0,"#,
                r#""record_fits_computed":0,"disk_loads":0,"coalesced":0,"#,
                r#""replayed":0,"persistent":false}"#,
                "\n"
            )
        );
        assert_eq!(
            route(&s, "GET", "/v1/no\"pe\n", ""),
            (
                404,
                "{\"error\":\"no such endpoint: /v1/no\\\"pe\\n\"}\n".into()
            )
        );
        assert_eq!(
            error_body("a\\b\u{1}\tξ"),
            "{\"error\":\"a\\\\b\\u0001\\tξ\"}\n"
        );
    }

    #[test]
    fn route_run_matches_cli_bytes_and_reuses_the_cache() {
        let s = state();
        let (status, body) = route(
            &s,
            "POST",
            "/v1/run",
            r#"{"artifacts":["workload-synth"],"effort":"test"}"#,
        );
        assert_eq!(status, 200);
        let spec = registry::find("workload-synth").unwrap();
        let report = spec.run(Effort::Test, &RunContext::serial());
        let expect = json_envelope(Effort::Test, &[report.to_json()]) + "\n";
        assert_eq!(body, expect, "serve response == CLI --json stdout");

        let computed = s.ctx().cache().stats().rows_computed;
        assert!(computed > 0, "cold request computed the matrices");
        // Same request again: answered entirely from the shared cache.
        let (status, warm) = route(
            &s,
            "POST",
            "/v1/run",
            r#"{"artifacts":["workload-synth"],"effort":"test"}"#,
        );
        assert_eq!(status, 200);
        assert_eq!(warm, body, "warm response is bit-identical");
        assert_eq!(
            s.ctx().cache().stats().rows_computed,
            computed,
            "warm request computed nothing new"
        );
    }

    #[test]
    fn server_round_trips_over_a_real_socket() {
        let server = Server::bind("127.0.0.1:0", state()).expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        let (status, body) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"ok\":true}\n"));

        let study = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3}"#;
        let (status, body) = http_request(addr, "POST", "/v1/study", Some(study)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(
            body.starts_with("{\"schema\":\"varbench-report/1\""),
            "{body}"
        );
        assert!(body.ends_with('\n'));

        let (status, _) = http_request(addr, "GET", "/bogus", None).unwrap();
        assert_eq!(status, 404);

        let (status, body) = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("shutting_down"), "{body}");
        handle
            .join()
            .expect("server thread exits cleanly")
            .expect("accept loop exits without io error");
    }

    #[test]
    fn request_line_parser_names_each_failure() {
        let err = parse_request_line("").unwrap_err();
        assert!(err.contains("empty request line"), "{err}");

        let err = parse_request_line("GET").unwrap_err();
        assert!(err.contains("expected `METHOD PATH VERSION`"), "{err}");

        let err = parse_request_line("GET /health").unwrap_err();
        assert!(err.contains("expected `METHOD PATH VERSION`"), "{err}");

        let err = parse_request_line("BLARGH blargh blargh").unwrap_err();
        assert!(err.contains("unsupported protocol version"), "{err}");

        let err = parse_request_line("GET /health HTTP/2").unwrap_err();
        assert!(err.contains("unsupported protocol version"), "{err}");

        let ok = parse_request_line("POST /v1/study HTTP/1.1").unwrap();
        assert_eq!(ok, ("POST".to_string(), "/v1/study".to_string(), true));
        let ok = parse_request_line("GET /health HTTP/1.0").unwrap();
        assert!(!ok.2, "HTTP/1.0 is accepted but not 1.1");
    }

    #[test]
    fn full_queue_sheds_connections_with_503() {
        // One handler, rendezvous queue: a connection is either handed
        // to the idle handler immediately or shed.
        let server = Server::bind("127.0.0.1:0", state())
            .expect("bind loopback")
            .with_pool(1, 0);
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        // Prove the pipeline works (retrying: right after startup the
        // handler may not have reached the queue yet, shedding the
        // probe), then give the handler time to return to the queue.
        loop {
            let (status, _) = http_request(addr, "GET", "/health", None).unwrap();
            if status == 200 {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        std::thread::sleep(Duration::from_millis(200));

        // Occupy the single handler with a half-sent request: it
        // blocks reading the head, holding the only handler slot.
        let mut hog = TcpStream::connect(addr).unwrap();
        hog.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(200));

        // The next connection finds no idle handler and no queue room.
        let (status, body) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("at capacity"), "{body}");

        // Releasing the hog frees the handler; service resumes.
        drop(hog);
        std::thread::sleep(Duration::from_millis(200));
        let (status, _) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        // A rendezvous queue can shed even the shutdown request (the
        // handler may not be back on the queue yet): retry until acked.
        loop {
            let (status, _) = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
            if status == 200 {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn retry_transport_exhausts_on_dead_addr_and_passes_responses_through() {
        use varbench_core::retry::RetryPolicy;

        // Dead address: retries, exhausts the budget, surfaces the
        // last transport error.
        let dead = {
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
            // listener dropped: nothing is bound here any more
        };
        let policy = RetryPolicy::new(3).initial_backoff(Duration::from_millis(1));
        let err = http_request_retry(dead, "GET", "/health", None, &policy).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

        // A live server's responses — including error statuses — pass
        // through without burning retry attempts on them.
        let server = Server::bind("127.0.0.1:0", state()).expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());
        let policy = RetryPolicy::new(5).initial_backoff(Duration::from_millis(1));
        let (status, _) = http_request_retry(addr, "GET", "/health", None, &policy).unwrap();
        assert_eq!(status, 200);
        let (status, _) = http_request_retry(addr, "GET", "/bogus", None, &policy).unwrap();
        assert_eq!(status, 404, "HTTP errors are answers, not outages");
        let _ = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = Server::bind("127.0.0.1:0", state()).expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        let mut client = HttpClient::connect(addr).expect("connect");
        let baseline = http_request(addr, "GET", "/health", None).unwrap();
        for _ in 0..5 {
            let (status, body) = client.request("GET", "/health", None).unwrap();
            assert_eq!((status, body), baseline, "keep-alive bytes == one-shot");
        }
        // Mixed methods and bodies frame correctly back to back.
        let study = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3}"#;
        let (status, first) = client.request("POST", "/v1/study", Some(study)).unwrap();
        assert_eq!(status, 200, "{first}");
        let (_, second) = client.request("POST", "/v1/study", Some(study)).unwrap();
        assert_eq!(second, first, "warm keep-alive replay is byte-identical");
        drop(client);

        let _ = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn ready_reflects_fleet_health() {
        // No fleet: always ready.
        let s = state();
        let (status, body) = route(&s, "GET", "/v1/ready", "");
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"fleet\":null"), "{body}");

        // A fleet whose only worker dies on arrival quarantines; ready
        // flips to 503 once no slot is live.
        #[cfg(unix)]
        {
            use crate::supervisor::SupervisorConfig;
            use varbench_core::retry::RetryPolicy;
            let dir = std::env::temp_dir().join(format!("varbench-ready-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = SupervisorConfig::new(&dir, 1);
            cfg.argv = Some(vec!["/bin/sh".into(), "-c".into(), "exit 1".into()]);
            cfg.respawn = RetryPolicy::new(1);
            cfg.poll = Duration::from_millis(5);
            let s = state().with_fleet(Supervisor::start(cfg).unwrap());
            let mut last = (0, String::new());
            for _ in 0..500 {
                last = route(&s, "GET", "/v1/ready", "");
                if last.0 == 503 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            assert_eq!(last.0, 503, "{}", last.1);
            assert!(last.1.contains("\"ready\":false"), "{}", last.1);
            assert!(last.1.contains("\"quarantined\":1"), "{}", last.1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn dispatched_study_without_a_fleet_falls_back_and_matches_plain_bytes() {
        use varbench_core::exec::Runner;
        use varbench_pipeline::MeasureCache;
        let dir = std::env::temp_dir().join(format!("varbench-dispatch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = RunContext::new(Runner::serial(), MeasureCache::with_dir(&dir));
        let s = ServeState::new(ctx).with_dispatch(DispatchConfig {
            wait: Duration::from_millis(100),
            row_timeout: Duration::from_millis(50),
            ..Default::default()
        });
        let req = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3,"dispatch":true}"#;
        let (status, served) = route(&s, "POST", "/v1/study", req);
        assert_eq!(status, 200, "{served}");
        // Same study, no dispatch, fresh in-memory state: identical bytes.
        let plain_req = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3}"#;
        let (_, plain) = route(&state(), "POST", "/v1/study", plain_req);
        assert_eq!(served, plain, "dispatch fallback == in-process bytes");
        assert!(
            varbench_pipeline::lease::scan_queue(&dir).is_empty(),
            "leftover jobs cancelled"
        );
        let _ = std::fs::remove_dir_all(&dir);

        // Dispatch against a memory-only cache is a client error, not a
        // hang: there is no queue directory a fleet could watch.
        let (status, body) = route(&state(), "POST", "/v1/study", req);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("disk-backed cache"), "{body}");
    }

    /// The memo's `replayed` counter, as `GET /v1/cache/stats` reports it.
    fn replayed(s: &ServeState) -> u64 {
        let (_, body) = route(s, "GET", "/v1/cache/stats", "");
        Json::parse(&body)
            .expect("stats body is valid JSON")
            .get("replayed")
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no replayed counter in {body}"))
    }

    #[test]
    fn repeated_requests_replay_identical_bytes_without_touching_the_cache() {
        let s = state();
        let requests = [
            (
                "POST",
                "/v1/study",
                r#"{"workload":"synthetic-ridge","effort":"test","seeds":3}"#,
            ),
            (
                "POST",
                "/v1/run",
                r#"{"artifacts":["workload-synth"],"effort":"test"}"#,
            ),
            ("GET", "/v1/workloads", ""),
            ("GET", "/v1/artifacts", ""),
        ];
        for (method, path, body) in requests {
            let (status, first) = route(&s, method, path, body);
            assert_eq!(status, 200, "{method} {path}: {first}");
            let stats = s.ctx().cache().stats();
            let before = replayed(&s);
            let (status, again) = route(&s, method, path, body);
            assert_eq!(status, 200);
            assert_eq!(again, first, "{method} {path}: replay is byte-identical");
            assert_eq!(replayed(&s), before + 1, "{method} {path}: one replay");
            assert_eq!(
                s.ctx().cache().stats(),
                stats,
                "{method} {path}: a replay never reaches the cache"
            );
        }
    }

    #[test]
    fn the_memo_stays_within_its_bound_and_evicts_the_oldest_first() {
        let s = state();
        let study = |seed: u64| {
            format!(
                r#"{{"workload":"synthetic-ridge","effort":"test","seeds":2,"base_seed":{seed}}}"#
            )
        };
        let key = |seed: u64| memo_key("POST", "/v1/study", &study(seed));
        let (status, first) = route(&s, "POST", "/v1/study", &study(0));
        assert_eq!(status, 200, "{first}");
        // Distinct studies until the first one is evicted.
        let mut next = 1;
        while s.memo().entries.contains_key(key(0).as_str()) {
            assert!(next < 1000, "1000 studies never filled {MEMO_BYTES} bytes");
            let (status, body) = route(&s, "POST", "/v1/study", &study(next));
            assert_eq!(status, 200, "{body}");
            next += 1;
            let memo = s.memo();
            let held: usize = memo.entries.iter().map(|(k, v)| k.len() + v.len()).sum();
            assert_eq!(memo.bytes, held, "the byte count matches the entries");
            assert!(memo.bytes <= MEMO_BYTES, "{} bytes held", memo.bytes);
        }
        // What is left is the newest run of inserts, in insertion order.
        {
            let memo = s.memo();
            let kept = memo.order.len();
            assert!(kept >= 2 && kept < next as usize, "{kept} of {next} kept");
            let newest: Vec<String> = (next - kept as u64..next).map(key).collect();
            let order: Vec<&str> = memo.order.iter().map(|k| &**k).collect();
            assert_eq!(order, newest, "oldest inserts evicted first");
            assert_eq!(memo.entries.len(), kept);
        }
        // The evicted request is answered afresh, with the same bytes.
        let before = replayed(&s);
        let (status, again) = route(&s, "POST", "/v1/study", &study(0));
        assert_eq!((status, &again), (200, &first));
        assert_eq!(replayed(&s), before, "an evicted request is not replayed");

        // A request whose key alone exceeds the bound is answered, never
        // stored, and evicts nothing.
        let padded = format!(
            r#"{{"workload":"synthetic-ridge","effort":"test","seeds":2,"base_seed":0{}}}"#,
            " ".repeat(MEMO_BYTES)
        );
        let stored = s.memo().order.clone();
        for _ in 0..2 {
            let (status, body) = route(&s, "POST", "/v1/study", &padded);
            assert_eq!((status, &body), (200, &first), "padding changes no byte");
            assert_eq!(replayed(&s), before, "an oversized answer is not replayed");
            assert_eq!(s.memo().order, stored, "nothing stored or evicted");
        }
    }

    #[test]
    fn error_answers_are_never_replayed() {
        let s = state();
        let unknown = r#"{"workload":"nope"}"#;
        for _ in 0..3 {
            let (status, body) = route(&s, "POST", "/v1/study", unknown);
            assert_eq!(status, 400, "{body}");
            assert!(body.contains("unknown workload"), "{body}");
            let (status, _) = route(&s, "POST", "/v1/run", "{not json");
            assert_eq!(status, 400);
        }
        assert_eq!(replayed(&s), 0);
        assert!(s.memo().entries.is_empty(), "no error answer is stored");
    }

    #[test]
    fn a_replayed_dispatched_study_enqueues_nothing() {
        use varbench_core::exec::Runner;
        use varbench_pipeline::MeasureCache;
        let dir = std::env::temp_dir().join(format!("varbench-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = RunContext::new(Runner::serial(), MeasureCache::with_dir(&dir));
        let s = ServeState::new(ctx).with_dispatch(DispatchConfig {
            wait: Duration::from_millis(100),
            row_timeout: Duration::from_millis(50),
            ..Default::default()
        });
        let req = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3,"dispatch":true}"#;
        let (status, served) = route(&s, "POST", "/v1/study", req);
        assert_eq!(status, 200, "{served}");
        let stats = s.ctx().cache().stats();
        let (status, again) = route(&s, "POST", "/v1/study", req);
        assert_eq!((status, &again), (200, &served));
        assert_eq!(replayed(&s), 1);
        assert_eq!(
            s.ctx().cache().stats(),
            stats,
            "the replay looked nothing up"
        );
        assert!(
            varbench_pipeline::lease::scan_queue(&dir).is_empty(),
            "the replay enqueued nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Splits `raw` into its Content-Length-framed responses.
    fn framed_responses(mut raw: &[u8]) -> Vec<(u16, String)> {
        let mut out = Vec::new();
        while let Some(head_end) = find_head_end(raw) {
            let head = std::str::from_utf8(&raw[..head_end]).expect("UTF-8 head");
            let status = head.split_whitespace().nth(1).unwrap().parse().unwrap();
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("Content-Length header")
                .parse()
                .unwrap();
            let body = &raw[head_end + 4..head_end + 4 + len];
            out.push((status, String::from_utf8(body.to_vec()).unwrap()));
            raw = &raw[head_end + 4 + len..];
        }
        out
    }

    #[test]
    fn pipelined_requests_in_one_write_are_all_answered_in_order() {
        let study = r#"{"workload":"synthetic-ridge","effort":"test","seeds":3}"#;
        let s = state();
        // Warm, so neither answer waits on a computation.
        let (status, want) = route(&s, "POST", "/v1/study", study);
        assert_eq!(status, 200, "{want}");
        let server = Server::bind("127.0.0.1:0", s).expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        let wire = format!(
            "POST /v1/study HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{study}\
             GET /health HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n",
            study.len()
        );
        let mut conn = TcpStream::connect(addr).unwrap();
        // Shorter than the keep-alive idle window: the second answer
        // must not wait for the server to give up on the connection.
        conn.set_read_timeout(Some(KEEPALIVE_IDLE / 2)).unwrap();
        conn.write_all(wire.as_bytes()).unwrap();
        let mut raw = Vec::new();
        conn.read_to_end(&mut raw)
            .expect("both answers, then the close the second request asked for");
        assert_eq!(
            framed_responses(&raw),
            vec![(200, want), (200, "{\"ok\":true}\n".to_string())]
        );

        let _ = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_requests_get_4xx_not_hangs() {
        let server = Server::bind("127.0.0.1:0", state()).expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        // Garbage request line.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"BLARGH\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        let (status, _) = parse_response(&raw).expect("well-formed error response");
        assert_eq!(status, 400);

        // Connection dropped before the head completes.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /health HTTP/1.1\r\n").unwrap();
        drop(s);

        // A head at the limit is served; one byte over is refused, also
        // when the read that crosses the limit completes the head, and
        // the refusal reaches the client instead of a reset.
        for (head_len, want) in [
            (MAX_HEAD, 200),
            (MAX_HEAD + 1, 413),
            (18_048, 413),
            (20_648, 413),
        ] {
            let mut head = b"GET /health HTTP/1.1\r\nConnection: close\r\nX-Pad: ".to_vec();
            head.resize(head_len, b'a');
            head.extend_from_slice(b"\r\n\r\n");
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&head).unwrap();
            let mut raw = Vec::new();
            s.read_to_end(&mut raw)
                .unwrap_or_else(|e| panic!("{head_len}-byte head: {e}"));
            let (status, body) = parse_response(&raw).expect("well-formed response");
            assert_eq!(status, want, "{head_len}-byte head: {body}");
        }

        // Server still answers afterwards.
        let (status, _) = http_request(addr, "GET", "/health", None).unwrap();
        assert_eq!(status, 200);
        let _ = http_request(addr, "POST", "/v1/shutdown", None).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn the_client_refuses_a_response_head_past_the_limit() {
        use std::sync::mpsc;

        // A peer that sends 17 KiB of header lines, never the blank line
        // that ends a head, and holds the connection open until the
        // client has answered.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, client_done) = mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut head = b"HTTP/1.1 200 OK\r\n".to_vec();
            while head.len() < 17 * 1024 {
                head.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaa\r\n");
            }
            s.write_all(&head).unwrap();
            let _ = client_done.recv_timeout(Duration::from_secs(60));
        });
        let (tx, answer) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let _ = tx.send(http_request(addr, "GET", "/health", None));
        });
        let result = answer
            .recv_timeout(Duration::from_secs(20))
            .expect("the client still reads an unterminated head past MAX_HEAD");
        let err = result.expect_err("an oversized head is not a response");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        drop(done);
        peer.join().unwrap();
        client.join().unwrap();
    }
}
