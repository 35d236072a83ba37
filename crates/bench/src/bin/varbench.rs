//! The `varbench` CLI — the single entry point to every paper artifact
//! and registered workload.
//!
//! ```text
//! varbench list
//! varbench workloads [--test|--quick|--full]
//! varbench run <name ...|all> [--test|--quick|--full] [--filter SUBSTR]
//!              [--json|--csv] [--out DIR] [--serial] [--no-cache]
//!              [--threads N]
//! varbench study <workload> [--seeds N] [--budget N] [--gamma G] ...
//! varbench serve [--addr HOST:PORT] [--ready-file FILE] [--workers N] ...
//! varbench query PATH [BODY] [--addr HOST:PORT] ...
//! varbench worker [--cache-dir DIR] [--drain] [--stop-file FILE] ...
//! varbench bench [SUITE ...] [--quick] [--json] ...
//! varbench cache stats|gc|clear
//! varbench lint [--json|--list] [PATHS ...]
//! ```
//!
//! Each subcommand declares the flags it accepts as a table and parses
//! them with one `Args::parse` call; `varbench --help` prints them all.
//!
//! Artifacts share one measurement cache (persisted across runs when
//! `VARBENCH_CACHE_DIR` is set) and are scheduled in parallel on the
//! work-stealing executor; per-artifact output is byte-identical to
//! running each artifact alone, serially, without a cache — and
//! byte-identical again when served over HTTP by `varbench serve`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::time::Duration;

use varbench_bench::args::{Args, Effort, Flag, EFFORT, EXEC};
use varbench_bench::protocol::{json_envelope, parse_algo, parse_source, StudyRequest};
use varbench_bench::registry::{self, RunContext, Spec};
use varbench_bench::serve::{self, http_request, http_request_retry, ServeState, Server};
use varbench_bench::supervisor::{Supervisor, SupervisorConfig};
use varbench_bench::timing::{parse_snapshot, BenchResult, Harness, Output};
use varbench_bench::worker::{dispatch, run_worker, study_jobs, DispatchConfig, WorkerConfig};
use varbench_bench::{suites, workloads};
use varbench_core::json::Json;
use varbench_core::report::Report;
use varbench_core::retry::RetryPolicy;
use varbench_lint::Diagnostic;
use varbench_pipeline::cache::{gc_dir, CACHE_DIR_ENV, CACHE_FORMAT_VERSION};
use varbench_pipeline::MeasureCache;

const USAGE: &str = "varbench — variance-aware benchmark reproduction harness

USAGE:
    varbench list
    varbench workloads [--test|--quick|--full]
    varbench run <name ...|all> [OPTIONS]
    varbench study <workload> [OPTIONS]
    varbench serve [OPTIONS]
    varbench query PATH [BODY] [--addr HOST:PORT] [--retries N] [--timeout-ms T]
    varbench worker [OPTIONS]
    varbench bench [SUITE ...] [--quick] [--json]
                   [--baseline FILE] [--max-regress PCT]
    varbench cache stats|gc|clear
    varbench lint [--json|--list] [PATHS ...]

OPTIONS (study):
    --test | --quick | --full   effort preset / workload scale (default: --quick)
    --seeds N                   measurements per source (default 10, min 2)
    --budget N                  HPO trials; > 0 adds the xi_H row (default 0)
    --gamma G                   add the Noether comparison-planning block for
                                detecting P(A > B) > G (G in (0,1), != 0.5)
    --sources a,b,...           restrict to these source labels (see workloads)
    --algo NAME                 HPO algorithm display name (e.g. 'Grid Search')
    --base-seed N               base seed every measurement derives from
    --name NAME                 report name override
    --json                      emit the varbench-report/1 envelope
    --addr HOST:PORT            run the study on a `varbench serve` instance
                                instead of in-process (response is identical)
    --serial / --threads N      local execution knobs (as for run)
    --workers N                 shard the study across a supervised fleet of
                                N `varbench worker` subprocesses over the
                                shared cache dir (respawn, quarantine and
                                drain as for serve; started only if the cache
                                misses a row; worker output is discarded;
                                needs VARBENCH_CACHE_DIR; output is
                                byte-identical to an unsharded run);
                                0 computes in process
    --dispatch                  enqueue + wait for an external worker fleet
                                (no subprocesses spawned); degrades to
                                in-process computation if none shows up.
                                With --addr, the request carries
                                \"dispatch\": true and the *server's*
                                supervised fleet computes the rows
    --wait-ms T                 total fleet wait budget (default 20000)
    --row-timeout-ms T          reclaim a claimed row after T ms without
                                progress (default 2000)

OPTIONS (worker):
    --cache-dir DIR             shared cache directory (default: the
                                VARBENCH_CACHE_DIR environment variable)
    --id NAME                   lease owner label (default worker-<pid>)
    --drain                     exit once the queue is empty, after finding
                                work (before that, --idle-rounds bounds
                                the wait for a first job)
    --stop-file FILE            exit before the next claim once FILE exists
                                (how a supervisor drains its fleet)
    --poll-ms T                 longest pause between idle queue scans
                                (default 100); a byte on stdin ends it early,
                                and stdin closing after a byte (its
                                supervisor is gone) ends the worker at its
                                next empty-handed scan
    --idle-rounds N             empty-handed scans before exiting (default 20)
    --serial / --threads N      executor knobs (as for run)

OPTIONS (serve):
    --addr HOST:PORT            listen address (default 127.0.0.1:7878; port 0
                                picks a free port)
    --ready-file FILE           write the bound address to FILE once listening
                                (lets scripts wait without polling)
    --handlers N                concurrent request handlers (default 8)
    --queue N                   accepted connections waiting for a handler;
                                beyond this, requests are shed with 503
                                (default 32; 0 = hand off or shed immediately)
    --workers N                 supervise N `varbench worker` children over
                                the shared cache dir; studies posted with
                                \"dispatch\": true compute in the fleet
                                (needs VARBENCH_CACHE_DIR)
    --max-respawns M            respawns per worker slot before quarantine
                                (default 4; backoff doubles from 100 ms)
    --drain-ms T                graceful-drain budget on shutdown: stop
                                accepting, finish in-flight requests, let
                                workers exit, release fleet leases
                                (default 2000)
    --wait-ms T                 dispatched-study fleet wait budget
                                (default 20000)
    --row-timeout-ms T          reclaim a dispatched row after T ms without
                                progress (default 2000)
    --serial / --threads N      executor knobs shared by all requests
    endpoints: GET /health /v1/ready /v1/workloads /v1/artifacts
    /v1/cache/stats; POST /v1/run /v1/study /v1/shutdown
    (JSON; see README 'Serving')

OPTIONS (query):
    PATH                        endpoint path (e.g. /v1/workloads)
    BODY                        JSON request body (implies POST)
    --addr HOST:PORT            server address (default 127.0.0.1:7878)
    --post                      force POST without a body (e.g. /v1/shutdown)
    --retries N                 retry transport failures (connection refused,
                                reset, timeouts) and 503 responses (honoring
                                Retry-After, clamped to the backoff cap) up
                                to N times with doubling backoff; other HTTP
                                statuses are final
    --timeout-ms T              total backoff budget across retries
                                (default 60000)

OPTIONS (lint):
    PATHS ...                   files or directories to check, relative to the
                                workspace root (default: the whole repo)
    --json                      emit the varbench-lint/1 JSON document
    --list                      print the lint catalogue and exit
    exits 1 when any diagnostic fires; suppress a finding with an inline
    `// lint:allow(L00N): <reason>` marker on or above the offending line

OPTIONS (bench):
    SUITE ...                   suites to run (default: all; see `varbench bench --list`)
    --quick                     5 reps at 2 ms targets instead of 11 at 5 ms
    --json                      emit the BENCH_*.json snapshot on stdout
                                (bench lines go to stderr)
    --baseline FILE             compare medians against a committed snapshot
    --max-regress PCT           fail if any shared bench is slower by more
                                than PCT percent (default 25; needs --baseline)

OPTIONS (run):
    --test | --quick | --full   effort preset (default: --quick)
    --filter SUBSTR             keep only artifacts whose name contains SUBSTR
    --json                      emit one JSON document instead of text
    --csv                       emit the tables as CSV instead of text
    --out DIR                   write per-artifact files to DIR instead of stdout
    --serial                    run artifacts one at a time on one thread
    --no-cache                  give every artifact a private measurement cache
    --threads N                 worker threads (default: VARBENCH_THREADS or all cores)

ENVIRONMENT:
    VARBENCH_THREADS            default worker thread count (0 = all cores)
    VARBENCH_CACHE_DIR          persist the measurement cache to this directory

Run `varbench list` for artifact names and `varbench workloads` for the
registered workloads (measure one with `varbench run workload-linear`).";

/// The fleet pacing `study` and `serve` share (see [`dispatch_config`]).
const DISPATCH: &[Flag] = &[
    ("--wait-ms", Some("milliseconds")),
    ("--row-timeout-ms", Some("milliseconds")),
];

// The flags each subcommand accepts, as `Args::parse` takes them.
const RUN: &[&[Flag]] = &[
    EFFORT,
    EXEC,
    &[
        ("--filter", Some("a value")),
        ("--json", None),
        ("--csv", None),
        ("--out", Some("a directory")),
        ("--no-cache", None),
    ],
];
const STUDY: &[&[Flag]] = &[
    EFFORT,
    EXEC,
    DISPATCH,
    &[
        ("--seeds", Some("a count >= 2")),
        ("--budget", Some("a trial count")),
        ("--gamma", Some("a probability")),
        ("--sources", Some("a comma-separated label list")),
        ("--algo", Some("an algorithm name")),
        ("--base-seed", Some("a seed")),
        ("--name", Some("a report name")),
        ("--json", None),
        ("--addr", Some("HOST:PORT")),
        ("--workers", Some("a worker count")),
        ("--dispatch", None),
    ],
];
const SERVE: &[&[Flag]] = &[
    EXEC,
    DISPATCH,
    &[
        ("--addr", Some("HOST:PORT")),
        ("--ready-file", Some("a path")),
        ("--handlers", Some("a count")),
        ("--queue", Some("a depth")),
        ("--workers", Some("a count")),
        ("--max-respawns", Some("a count")),
        ("--drain-ms", Some("milliseconds")),
    ],
];
const WORKER: &[&[Flag]] = &[
    EXEC,
    &[
        ("--cache-dir", Some("a directory")),
        ("--id", Some("a name")),
        ("--drain", None),
        ("--stop-file", Some("a path")),
        ("--poll-ms", Some("milliseconds")),
        ("--idle-rounds", Some("a count")),
    ],
];
const QUERY: &[&[Flag]] = &[&[
    ("--addr", Some("HOST:PORT")),
    ("--post", None),
    ("--retries", Some("a count")),
    ("--timeout-ms", Some("milliseconds")),
]];
const BENCH: &[&[Flag]] = &[&[
    ("--quick", None),
    ("--json", None),
    ("--list", None),
    ("--baseline", Some("a file")),
    ("--max-regress", Some("a percentage")),
]];
const LINT: &[&[Flag]] = &[&[("--json", None), ("--list", None)]];
const WORKLOADS: &[&[Flag]] = &[EFFORT];

/// Where `serve` listens and `query` connects by default.
const DEFAULT_ADDR: &str = "127.0.0.1:7878";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
    Csv,
}

impl Format {
    fn extension(self) -> &'static str {
        match self {
            Format::Text => "txt",
            Format::Json => "json",
            Format::Csv => "csv",
        }
    }

    /// Renders one report for a per-artifact output file. JSON files get
    /// the same `varbench-report/1` envelope as the stdout document (with
    /// a one-element `artifacts` array), so consumers parse both shapes
    /// identically.
    fn render(self, report: &Report, effort: Effort) -> String {
        match self {
            Format::Text => report.render_text(),
            Format::Json => json_envelope(effort, &[report.to_json()]),
            Format::Csv => report.to_csv(),
        }
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `varbench --help` for usage");
    std::process::exit(2);
}

/// A runtime failure of a well-formed command: exit 1 and no usage line,
/// so scripts can tell it from a usage error (exit 2).
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// [`die`] for a request that failed in transport. Only a
/// connection-level error hints that no server may be listening there;
/// `InvalidData` means a response arrived and was refused. A socket
/// read timeout surfaces as `WouldBlock` on Unix.
fn transport_failed(what: &str, e: &std::io::Error) -> ! {
    use std::io::ErrorKind;
    let hint = match e.kind() {
        ErrorKind::ConnectionRefused
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::NotConnected
        | ErrorKind::TimedOut
        | ErrorKind::WouldBlock => " (is `varbench serve` running there?)",
        _ => "",
    };
    die(&format!("{what}: {e}{hint}"))
}

/// Parses a subcommand's arguments, or exits with a usage error.
fn parse(cmd: &str, tables: &[&[Flag]], args: &[String]) -> Args {
    Args::parse(cmd, tables, args).unwrap_or_else(|e| fail(&e))
}

/// [`parse`] for a subcommand that takes no positional arguments.
fn parse_flags(cmd: &str, tables: &[&[Flag]], args: &[String]) -> Args {
    let a = parse(cmd, tables, args);
    if let Some(extra) = a.positional.first() {
        fail(&format!("unexpected argument '{extra}' after {cmd}"));
    }
    a
}

/// A flag's parsed value, or a usage-error exit.
fn ok<T>(value: Result<T, String>) -> T {
    value.unwrap_or_else(|e| fail(&e))
}

/// The duration a milliseconds flag was given.
fn millis(a: &Args, flag: &str) -> Option<Duration> {
    ok(a.get(flag)).map(Duration::from_millis)
}

/// The dispatch pacing [`DISPATCH`] sets, over the defaults.
fn dispatch_config(a: &Args) -> DispatchConfig {
    let d = DispatchConfig::default();
    DispatchConfig {
        wait: millis(a, "--wait-ms").unwrap_or(d.wait),
        row_timeout: millis(a, "--row-timeout-ms").unwrap_or(d.row_timeout),
        ..d
    }
}

/// The cache directory `VARBENCH_CACHE_DIR` names, if it is set.
fn env_cache_dir() -> Option<PathBuf> {
    std::env::var(CACHE_DIR_ENV)
        .ok()
        .filter(|d| !d.is_empty())
        .map(PathBuf::from)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Some("--help") | Some("-h") | Some("help") => println!("{USAGE}"),
        Some("list") => {
            if args.len() > 1 {
                fail(&format!("unexpected argument '{}' after list", args[1]));
            }
            list();
        }
        Some("workloads") => list_workloads(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("study") => study_command(&args[1..]),
        Some("serve") => serve_command(&args[1..]),
        Some("query") => query_command(&args[1..]),
        Some("worker") => worker_command(&args[1..]),
        Some("bench") => bench_command(&args[1..]),
        Some("cache") => cache_command(&args[1..]),
        Some("lint") => lint_command(&args[1..]),
        Some(other) => fail(&format!(
            "unknown command '{other}' (expected list, workloads, run, study, serve, \
             query, worker, bench, cache, or lint)"
        )),
    }
}

fn list() {
    let mut t = varbench_core::report::Table::new(vec![
        "name".into(),
        "title".into(),
        "description".into(),
    ]);
    for spec in registry::all() {
        t.add_row(vec![
            spec.name.to_string(),
            spec.title.to_string(),
            spec.description.to_string(),
        ]);
    }
    print!("{t}");
}

fn list_workloads(args: &[String]) {
    let effort = parse_flags("workloads", WORKLOADS, args).effort();
    let mut t = varbench_core::report::Table::new(vec![
        "name".into(),
        "metric".into(),
        "search dims".into(),
        "active sources".into(),
        "cache id".into(),
        "run via".into(),
    ]);
    for w in workloads::all(effort.scale()) {
        let sources: Vec<&str> = w.active_sources().iter().map(|s| s.label()).collect();
        let run_via = workloads::artifact_for(w.name())
            .map(|a| format!("run {a}"))
            .unwrap_or_else(|| "paper figures (fig1 ...)".into());
        t.add_row(vec![
            w.name().to_string(),
            w.metric_name().to_string(),
            w.search_space().len().to_string(),
            sources.join("+"),
            w.cache_id(),
            run_via,
        ]);
    }
    print!("{t}");
}

/// The cache-owned `v<N>` record subdirectories under `dir` — the only
/// paths `cache clear` is allowed to touch (the user may point
/// `VARBENCH_CACHE_DIR` at a directory holding unrelated files).
fn cache_version_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_version = name
                .strip_prefix('v')
                .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()));
            if is_version && entry.path().is_dir() {
                out.push(entry.path());
            }
        }
    }
    out.sort();
    out
}

/// `varbench lint [--json|--list] [PATHS ...]` — run the repo-invariant
/// checker (see `varbench_lint` for the catalogue). Exits 0 when clean,
/// 1 when any diagnostic fires, 2 on usage errors.
fn lint_command(args: &[String]) {
    let a = parse("lint", LINT, args);
    let json = a.has("--json");
    if a.has("--list") {
        if json || !a.positional.is_empty() {
            fail("--list takes no other arguments");
        }
        for info in varbench_lint::CATALOGUE {
            println!("{} {:<20} {}", info.id, info.name, info.summary);
        }
        return;
    }
    let cwd = std::env::current_dir().unwrap_or_else(|e| fail(&format!("cannot read cwd: {e}")));
    let Some(root) = varbench_lint::find_workspace_root(&cwd) else {
        fail("not inside a varbench workspace (no root Cargo.toml with [workspace] found)");
    };
    // Relative PATHS are workspace-root-relative so diagnostics always
    // print repo-relative locations regardless of the caller's cwd
    // (joining an absolute path yields that path).
    let paths: Vec<PathBuf> = a.positional.iter().map(|p| root.join(p)).collect();
    let diags = match varbench_lint::check_paths(&root, &paths) {
        Ok(d) => d,
        Err(e) => fail(&format!("lint failed: {e}")),
    };
    if json {
        println!("{}", render_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if !diags.is_empty() {
            let n = diags.len();
            eprintln!(
                "lint: {n} finding{} (suppress with `// lint:allow(<id>): <reason>`)",
                if n == 1 { "" } else { "s" }
            );
        }
    }
    if !diags.is_empty() {
        std::process::exit(1);
    }
}

/// The `varbench-lint/1` document for `diags`, without a trailing
/// newline.
fn render_json(diags: &[Diagnostic]) -> String {
    let items = diags.iter().map(|d| {
        Json::object(vec![
            ("path", d.path.as_str().into()),
            ("line", d.line.into()),
            ("lint", d.lint.into()),
            ("message", d.message.as_str().into()),
        ])
    });
    Json::object(vec![
        ("schema", "varbench-lint/1".into()),
        ("diagnostics", items.collect()),
    ])
    .to_string()
}

fn cache_command(args: &[String]) {
    if args.len() > 1 {
        fail(&format!(
            "unexpected argument '{}' after cache {}",
            args[1], args[0]
        ));
    }
    let dir = env_cache_dir();
    match args.first().map(String::as_str) {
        Some("stats") => {
            let Some(dir) = dir else {
                println!("cache: in-memory only ({CACHE_DIR_ENV} not set); nothing persisted");
                return;
            };
            println!(
                "cache dir: {} (format v{CACHE_FORMAT_VERSION})",
                dir.display()
            );
            let versions = cache_version_dirs(&dir);
            if versions.is_empty() {
                println!("no records on disk yet");
                return;
            }
            for vdir in versions {
                let (mut files, mut bytes) = (0u64, 0u64);
                if let Ok(records) = std::fs::read_dir(&vdir) {
                    for rec in records.flatten() {
                        if let Ok(meta) = rec.metadata() {
                            files += 1;
                            bytes += meta.len();
                        }
                    }
                }
                let version = vdir.file_name().unwrap_or_default().to_string_lossy();
                let current = if version == format!("v{CACHE_FORMAT_VERSION}") {
                    " (current)"
                } else {
                    " (stale format, never read)"
                };
                println!("  {version}{current}: {files} records, {bytes} bytes");
            }
            let t = varbench_pipeline::lease::tally(&dir);
            if t != varbench_pipeline::lease::LeaseTally::default() {
                println!(
                    "fleet: {} active lease(s), {} reclaimed awaiting takeover, \
                     {} takeover(s) recorded, {} queued job(s)",
                    t.active, t.reclaimed, t.takeovers, t.queued
                );
            }
        }
        Some("gc") => {
            let Some(dir) = dir else {
                fail(&format!("{CACHE_DIR_ENV} not set; nothing to collect"));
            };
            let report = gc_dir(&dir)
                .unwrap_or_else(|e| fail(&format!("cache gc failed in {}: {e}", dir.display())));
            println!(
                "cache gc: kept {} records ({} bytes) under {}",
                report.kept_records,
                report.kept_bytes,
                dir.display()
            );
            println!(
                "removed {} files (stale-format {}, torn {}, orphan-tmp {}, \
                 stale-lease {}); reclaimed {} bytes",
                report.files_removed(),
                report.stale_version_files,
                report.torn_files,
                report.tmp_files,
                report.stale_leases,
                report.bytes_reclaimed
            );
        }
        Some("clear") => {
            let Some(dir) = dir else {
                fail(&format!("{CACHE_DIR_ENV} not set; nothing to clear"));
            };
            // Delete only the versioned record subdirectories the cache
            // wrote — never the directory itself or anything else in it.
            let versions = cache_version_dirs(&dir);
            if versions.is_empty() {
                println!("no cache records under {}; nothing to clear", dir.display());
                return;
            }
            for vdir in versions {
                match std::fs::remove_dir_all(&vdir) {
                    Ok(()) => println!("cleared {}", vdir.display()),
                    Err(e) => fail(&format!("cannot clear {}: {e}", vdir.display())),
                }
            }
        }
        Some(other) => fail(&format!(
            "unknown cache subcommand '{other}' (expected stats, gc, or clear)"
        )),
        None => fail("cache needs a subcommand: stats, gc, or clear"),
    }
}

/// How long a `study --workers` fleet may take to exit once the study's
/// rows are in (the default `serve --drain-ms`).
const FLEET_DRAIN: Duration = Duration::from_secs(2);

/// Starts a supervised worker fleet, or exits with a usage error.
fn start_fleet(cfg: SupervisorConfig) -> Supervisor {
    Supervisor::start(cfg).unwrap_or_else(|e| fail(&format!("cannot start the worker fleet: {e}")))
}

/// Returns the shared cache directory a dispatching driver and its
/// fleet coordinate through: both sides need a disk cache they can
/// actually share.
fn dispatch_cache_dir(ctx: &RunContext) -> &Path {
    ctx.cache().dir().unwrap_or_else(|| {
        fail(&format!(
            "sharded dispatch needs a shared disk cache; set {CACHE_DIR_ENV} to a directory"
        ))
    })
}

fn resolve_addr(addr: &str) -> std::net::SocketAddr {
    use std::net::ToSocketAddrs;
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| fail(&format!("cannot resolve address '{addr}'")))
}

/// `varbench serve`: the long-running study server. All requests share
/// one executor and one measurement cache, so repeated and overlapping
/// studies answer from warm matrices (see `varbench_bench::serve`).
fn serve_command(args: &[String]) {
    let a = parse_flags("serve", SERVE, args);
    let addr = a.str("--addr").unwrap_or(DEFAULT_ADDR);
    let fleet_workers: usize = ok(a.get("--workers")).unwrap_or(0);
    let max_respawns: u32 = ok(a.get("--max-respawns")).unwrap_or(4);
    let handlers = ok(a.get("--handlers")).unwrap_or(serve::DEFAULT_HANDLERS);
    let queue = ok(a.get("--queue")).unwrap_or(serve::DEFAULT_QUEUE);
    let drain = millis(&a, "--drain-ms");
    let dispatch = dispatch_config(&a);
    let ctx = RunContext::new(ok(a.runner()), MeasureCache::from_env());
    let persistent = ctx.cache().is_persistent();
    // Fleet mode: supervise `--workers` child processes over the shared
    // disk cache so dispatched studies (`"dispatch": true`) compute in
    // the fleet. Same precondition as local sharding: a disk cache the
    // children can see. Started only once every flag has parsed: `fail`
    // exits without running destructors.
    let fleet = (fleet_workers > 0).then(|| {
        let mut cfg = SupervisorConfig::new(dispatch_cache_dir(&ctx), fleet_workers);
        // `--max-respawns M` = M respawns after the initial spawn.
        cfg.respawn = RetryPolicy::new(max_respawns.saturating_add(1))
            .initial_backoff(Duration::from_millis(100))
            .max_backoff(Duration::from_secs(2));
        start_fleet(cfg)
    });
    let mut state = ServeState::new(ctx).with_dispatch(dispatch);
    if let Some(sup) = fleet {
        state = state.with_fleet(sup);
    }
    let mut server = Server::bind(addr, state)
        .unwrap_or_else(|e| fail(&format!("cannot bind {addr}: {e}")))
        .with_pool(handlers, queue);
    if let Some(drain) = drain {
        server = server.with_drain(drain);
    }
    let local = server
        .local_addr()
        .unwrap_or_else(|e| fail(&format!("cannot read bound address: {e}")));
    eprintln!(
        "varbench serve: listening on {local} (measurement cache: {})",
        if persistent {
            "disk-backed"
        } else {
            "in-memory"
        }
    );
    if fleet_workers > 0 {
        eprintln!(
            "varbench serve: supervising {fleet_workers} worker(s), \
             {max_respawns} respawn(s) each before quarantine"
        );
    }
    if let Some(path) = a.str("--ready-file") {
        // Written only once the listener is live: a script that waits for
        // this file never races the bind.
        if let Err(e) = std::fs::write(path, format!("{local}\n")) {
            fail(&format!("cannot write {path}: {e}"));
        }
    }
    if let Err(e) = server.run() {
        fail(&format!("serve failed: {e}"));
    }
    eprintln!("varbench serve: shut down");
}

/// `varbench query`: one HTTP exchange with a running server, body to
/// stdout — the std-only curl stand-in used by scripts/ci.sh.
fn query_command(args: &[String]) {
    let a = parse("query", QUERY, args);
    let addr = a.str("--addr").unwrap_or(DEFAULT_ADDR);
    let retries: u32 = ok(a.get("--retries")).unwrap_or(0);
    let budget = millis(&a, "--timeout-ms").unwrap_or(Duration::from_secs(60));
    let (path, body) = match a.positional.as_slice() {
        [] => fail("query needs an endpoint PATH (e.g. /v1/workloads)"),
        [path] => (path, None),
        [path, body] => (path, Some(body.as_str())),
        _ => fail("query takes at most PATH and BODY"),
    };
    let method = if a.has("--post") || body.is_some() {
        "POST"
    } else {
        "GET"
    };
    // One attempt plus `retries` more, doubling the pause between them
    // and never sleeping past the --timeout-ms budget in total. Transport
    // failures and 503 (server shedding or draining; Retry-After honored
    // up to the backoff cap) retry; any other HTTP status is final.
    let policy = RetryPolicy::new(retries.saturating_add(1)).budget(budget);
    let (status, response) = http_request_retry(resolve_addr(addr), method, path, body, &policy)
        .unwrap_or_else(|e| {
            let what = format!(
                "request to {addr} failed after {} attempt(s)",
                policy.attempts()
            );
            transport_failed(&what, &e)
        });
    print!("{response}");
    if status != 200 {
        eprintln!("HTTP {status}");
        std::process::exit(1);
    }
}

/// Rings for [`run_worker`]: one per byte on stdin, where a supervisor
/// writes a byte at spawn and whenever it enqueues or reclaims work.
/// EOF after a byte drops the sender, which tells the worker its
/// supervisor is gone. A closed stdin (a worker run by hand or by an
/// external fleet) or a terminal, which a background job cannot read
/// without being stopped by SIGTTIN, never rings, and the worker waits
/// out its plain poll.
fn stdin_rings() -> std::sync::mpsc::Receiver<()> {
    use std::io::{IsTerminal, Read};
    let (ring, rings) = std::sync::mpsc::channel();
    let stdin = std::io::stdin();
    if !stdin.is_terminal() {
        // Detached, not joined: it blocks in `read` for the life of the
        // process, and nothing in std can interrupt that read.
        std::thread::spawn(move || {
            for byte in stdin.lock().bytes() {
                if byte.is_err() || ring.send(()).is_err() {
                    break;
                }
            }
        });
    }
    rings
}

/// `varbench worker`: one member of a sharded-study fleet. Scans the
/// shared cache directory's job queue, claims rows through crash-safe
/// leases, computes them, and publishes the measurement records the
/// dispatching driver assembles into the final report (see
/// `varbench_bench::worker` for the fault model).
fn worker_command(args: &[String]) {
    let a = parse_flags("worker", WORKER, args);
    let Some(cache_dir) = a
        .str("--cache-dir")
        .map(PathBuf::from)
        .or_else(env_cache_dir)
    else {
        fail(&format!(
            "worker needs the fleet's shared cache directory (--cache-dir or {CACHE_DIR_ENV})"
        ));
    };
    let mut cfg = WorkerConfig::new(cache_dir);
    cfg.drain = a.has("--drain");
    cfg.runner = ok(a.runner());
    if let Some(poll) = millis(&a, "--poll-ms") {
        cfg.poll = poll;
    }
    if let Some(n) = ok(a.get("--idle-rounds")) {
        cfg.idle_rounds = n;
    }
    if let Some(name) = a.str("--id") {
        cfg.owner = name.to_string();
    }
    cfg.stop_file = a.str("--stop-file").map(PathBuf::from);
    let summary = run_worker(&cfg, &stdin_rings());
    // stderr only: a worker's stdout must never pollute a driver's
    // report stream.
    eprintln!(
        "varbench worker ({}): {} job(s) computed, {} already satisfied, {} skipped",
        cfg.owner, summary.completed, summary.satisfied, summary.skipped
    );
}

/// `varbench study`: the Study builder as a first-class subcommand —
/// locally in-process, or (with --addr) on a running `varbench serve`,
/// with byte-identical JSON either way.
fn study_command(args: &[String]) {
    let a = parse("study", STUDY, args);
    let workload = match a.positional.as_slice() {
        [workload] => workload.clone(),
        [] => fail("study needs a workload name (run `varbench workloads` for the registry)"),
        [_, extra, ..] => fail(&format!("study takes one workload, got extra '{extra}'")),
    };
    let seeds: Option<usize> = ok(a.get("--seeds"));
    if seeds.is_some_and(|n| n < 2) {
        fail("a variance study needs at least 2 seeds");
    }
    let gamma: Option<f64> = ok(a.get("--gamma"));
    if gamma.is_some_and(|g| !(g > 0.0 && g < 1.0) || (g - 0.5).abs() <= 1e-9) {
        fail("--gamma must be in (0, 1) and differ from 0.5");
    }
    let sources = a.str("--sources").map(|labels| {
        labels
            .split(',')
            .map(|label| {
                parse_source(label.trim()).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown variance source '{label}' (see `varbench workloads`)"
                    ))
                })
            })
            .collect()
    });
    let algo = a.str("--algo").map(|name| {
        parse_algo(name).unwrap_or_else(|| {
            fail(&format!(
                "unknown algorithm '{name}' (expected 'Random Search', 'Grid Search', \
                 'Noisy Grid Search', or 'Bayes Opt')"
            ))
        })
    });
    // `--workers 0` starts no fleet and computes in process, as for serve.
    let workers = ok(a.get("--workers")).filter(|&n: &usize| n > 0);
    let dcfg = dispatch_config(&a);
    let runner = ok(a.runner());
    let req = StudyRequest {
        workload,
        effort: a.effort(),
        sources,
        seeds,
        base_seed: ok(a.get("--base-seed")),
        budget: ok(a.get("--budget")),
        algo,
        gamma,
        name: a.str("--name").map(String::from),
        // Locally, --dispatch routes through the lease queue below; with
        // --addr it rides in the request body and the *server's* fleet
        // computes the rows (the response bytes are identical either way).
        dispatch: a.has("--dispatch"),
    };

    if let Some(addr) = a.str("--addr") {
        if a.has("--serial") || a.has("--threads") {
            fail("--serial/--threads are local knobs; the server owns remote execution");
        }
        if a.has("--workers") {
            fail("--workers spawns subprocesses locally over the cache dir; drop --addr");
        }
        if a.has("--wait-ms") || a.has("--row-timeout-ms") {
            fail("--wait-ms/--row-timeout-ms tune local dispatch; the server owns its own");
        }
        let (status, response) = http_request(
            resolve_addr(addr),
            "POST",
            "/v1/study",
            Some(&req.to_json()),
        )
        .unwrap_or_else(|e| transport_failed(&format!("request to {addr} failed"), &e));
        if status != 200 {
            eprint!("{response}");
            die(&format!("server rejected the study (HTTP {status})"));
        }
        // The server's envelope is byte-identical to local --json output.
        print!("{response}");
        return;
    }

    let ctx = RunContext::new(runner, MeasureCache::from_env());

    // Sharded path: enqueue the study's measurement plan for a worker
    // fleet, wait (with reclaim of stalled rows), then fall through to
    // the normal in-process run below — which assembles the report from
    // the now-warm shared cache, computing only what the fleet did not
    // deliver. The report bytes are identical either way.
    if workers.is_some() || req.dispatch {
        let dir = dispatch_cache_dir(&ctx);
        let w = req.find_workload().unwrap_or_else(|e| fail(&e));
        let study = req.configure(w.as_ref()).unwrap_or_else(|e| fail(&e));
        let jobs = study_jobs(&req.workload, req.effort, w.as_ref(), study.plan(), &ctx);
        // Started only once the request is valid: `fail` exits without
        // running destructors, so no exit path may find the fleet alive.
        // `--dispatch` relies on an external fleet, and a warm cache
        // needs none: neither starts one.
        let cold = jobs
            .iter()
            .any(|dj| ctx.cache().probe_rows(&dj.probe.0) < dj.probe.1);
        let fleet = workers
            .filter(|_| !req.dispatch && cold)
            .map(|n| start_fleet(SupervisorConfig::new(dir, n)));
        eprintln!("dispatch: {}", dispatch(&dcfg, jobs, &ctx, fleet.as_ref()));
        if let Some(sup) = fleet {
            sup.shutdown(FLEET_DRAIN);
        }
    }

    if a.has("--json") {
        match req.run_json(&ctx) {
            Ok(body) => print!("{body}"),
            Err(e) => fail(&e),
        }
    } else {
        match req.run(&ctx) {
            Ok(report) => print!("{}", report.render_text()),
            Err(e) => fail(&e),
        }
    }
}

/// `varbench bench`: run the timing suites in-process — the one runner
/// for them — and optionally gate the medians against a committed
/// `BENCH_*.json` snapshot.
fn bench_command(args: &[String]) {
    let a = parse("bench", BENCH, args);
    if a.has("--list") {
        for (name, _) in suites::SUITES {
            println!("{name}");
        }
        return;
    }
    let selected = &a.positional;
    for name in selected {
        if suites::find(name).is_none() {
            fail(&format!(
                "unknown suite '{name}' (run `varbench bench --list`)"
            ));
        }
    }
    let max_regress = ok(a.get("--max-regress")).unwrap_or(25.0_f64);
    if max_regress <= 0.0 || max_regress.is_nan() {
        fail("--max-regress must be > 0");
    }
    let baseline = a.str("--baseline").map(Path::new);
    if a.has("--max-regress") && baseline.is_none() {
        fail("--max-regress needs --baseline (no gate would run otherwise)");
    }
    let (quick, json) = (a.has("--quick"), a.has("--json"));
    let output = if json { Output::Stderr } else { Output::Stdout };
    let mut results: Vec<BenchResult> = Vec::new();
    for &(name, body) in suites::SUITES {
        if !selected.is_empty() && !selected.iter().any(|s| s == name) {
            continue;
        }
        let (reps, target_ms) = if quick { (5, 2) } else { (11, 5) };
        let mut h = Harness::with_config(name, reps, target_ms).with_output(output);
        body(&mut h);
        results.extend(h.into_results());
    }

    if json {
        print!("{}", varbench_bench::timing::render_snapshot(&results));
    }

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
        let base = parse_snapshot(&text)
            .unwrap_or_else(|e| fail(&format!("cannot parse {}: {e}", path.display())));
        let mut regressions = 0usize;
        let mut compared = 0usize;
        eprintln!(
            "perf gate vs {} (max regression {max_regress:.0}%):",
            path.display()
        );
        // Aligned columns: benchmark, current median, baseline median,
        // speedup (baseline/current — >1x is faster than the snapshot),
        // signed delta, verdict.
        let name_w = results
            .iter()
            .map(|r| r.suite.len() + r.name.len() + 1)
            .max()
            .unwrap_or(0)
            .max("benchmark".len());
        eprintln!(
            "  {:<name_w$}  {:>12}  {:>12}  {:>8}  {:>8}  verdict",
            "benchmark", "median_ns", "base_ns", "speedup", "delta"
        );
        for r in &results {
            let label = format!("{}/{}", r.suite, r.name);
            let Some(b) = base.iter().find(|b| b.suite == r.suite && b.name == r.name) else {
                eprintln!("  {label:<name_w$}  (not in baseline; skipped)");
                continue;
            };
            compared += 1;
            let base_ns = b.median_ns.max(1) as f64;
            let delta = r.median_ns as f64 / base_ns - 1.0;
            let speedup = base_ns / (r.median_ns.max(1) as f64);
            let verdict = if delta * 100.0 > max_regress {
                regressions += 1;
                "REGRESSED"
            } else {
                "ok"
            };
            eprintln!(
                "  {label:<name_w$}  {:>12}  {:>12}  {:>7.2}x  {:>+7.1}%  {verdict}",
                r.median_ns,
                b.median_ns,
                speedup,
                delta * 100.0,
            );
        }
        eprintln!("{compared} benches compared, {regressions} regression(s)");
        if compared == 0 {
            fail("baseline shares no benches with this run");
        }
        if regressions > 0 {
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) {
    let a = parse("run", RUN, args);
    let effort = a.effort();
    let format = match a.last(&["--json", "--csv"]) {
        Some("--json") => Format::Json,
        Some("--csv") => Format::Csv,
        _ => Format::Text,
    };
    let runner = ok(a.runner());

    // Resolve the artifact selection.
    let names = &a.positional;
    if names.is_empty() {
        fail("run needs at least one artifact name (or 'all')");
    }
    let mut specs: Vec<&'static Spec> = if *names == ["all"] {
        registry::all().iter().collect()
    } else {
        names
            .iter()
            .map(|n| {
                registry::find(n).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown artifact '{n}' (run `varbench list` for names)"
                    ))
                })
            })
            .collect()
    };
    if let Some(f) = a.str("--filter") {
        specs.retain(|s| s.name.contains(f));
        if specs.is_empty() {
            fail(&format!("--filter {f} matched no artifacts"));
        }
    }

    let no_cache = a.has("--no-cache");
    // --no-cache: each artifact gets its own throwaway in-memory cache,
    // so nothing is shared across artifacts or persisted — but the batch
    // is still scheduled in parallel, intra-artifact memoization (e.g.
    // the HPO record shared by the FixHOpt variants) is preserved, and
    // per-artifact output is bit-identical either way.
    let reports = if no_cache {
        runner.map_indexed(specs.len(), |i| {
            let ctx = RunContext::new(runner, MeasureCache::new());
            registry::run_specs(&[specs[i]], effort, &ctx)
                .pop()
                .expect("one report per spec")
        })
    } else {
        let ctx = RunContext::new(runner, MeasureCache::from_env());
        let reports = registry::run_specs(&specs, effort, &ctx);
        let s = ctx.cache().stats();
        let f = ctx.cache().fit_stats();
        eprintln!(
            "cache: {} full hits, {} extensions, {} misses; {} rows computed, {} served; {} hopt records computed ({} fits), {} served; {} fits trained, {} reused{}",
            s.full_hits,
            s.extensions,
            s.misses,
            s.rows_computed,
            s.rows_served,
            s.records_computed,
            s.record_fits_computed,
            s.records_served,
            f.trained,
            f.reused,
            if ctx.cache().is_persistent() { " [disk]" } else { "" },
        );
        reports
    };
    if no_cache {
        eprintln!("cache: per-artifact private caches (--no-cache)");
    }

    // Emit.
    if let Some(dir) = a.str("--out").map(Path::new) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(&format!("cannot create {}: {e}", dir.display()));
        }
        for report in &reports {
            let path = dir.join(format!("{}.{}", report.name(), format.extension()));
            if let Err(e) = std::fs::write(&path, format.render(report, effort)) {
                fail(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
        return;
    }
    match format {
        Format::Text => {
            if reports.len() == 1 {
                print!("{}", reports[0].render_text());
            } else {
                for report in &reports {
                    println!("\n================ {} ================\n", report.title());
                    print!("{}", report.render_text());
                }
            }
        }
        Format::Json => {
            let docs: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
            println!("{}", json_envelope(effort, &docs));
        }
        Format::Csv => {
            for (i, report) in reports.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                print!("{}", report.to_csv());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every subcommand's flag tables, with how many flags it accepts.
    const COMMANDS: &[(&str, &[&[Flag]], usize)] = &[
        ("run", RUN, 10),
        ("study", STUDY, 18),
        ("serve", SERVE, 11),
        ("worker", WORKER, 8),
        ("query", QUERY, 4),
        ("bench", BENCH, 5),
        ("lint", LINT, 2),
        ("workloads", WORKLOADS, 3),
    ];

    fn names(tables: &[&[Flag]]) -> Vec<&'static str> {
        tables.iter().flat_map(|t| t.iter()).map(|f| f.0).collect()
    }

    /// Every `--flag` USAGE mentions.
    fn usage_flags() -> Vec<&'static str> {
        USAGE
            .match_indices("--")
            .map(|(i, _)| {
                let rest = &USAGE[i + 2..];
                let end = rest
                    .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .unwrap_or(rest.len());
                &USAGE[i..i + 2 + end]
            })
            .collect()
    }

    #[test]
    fn usage_and_the_flag_tables_agree() {
        let usage = usage_flags();
        let accepted: Vec<&str> = COMMANDS.iter().flat_map(|c| names(c.1)).collect();
        for flag in &accepted {
            assert!(usage.contains(flag), "{flag} is accepted but not in USAGE");
        }
        for flag in &usage {
            assert!(
                accepted.contains(flag),
                "USAGE lists {flag}, which nothing accepts"
            );
        }
    }

    #[test]
    fn json_escapes_quotes_and_newlines() {
        let d = Diagnostic {
            path: "a\"b".into(),
            line: 1,
            lint: "L001",
            message: "x\ny".into(),
        };
        let doc = render_json(&[d]);
        assert!(doc.contains("a\\\"b"));
        assert!(doc.contains("x\\ny"));
    }

    #[test]
    fn json_rendering_round_trips_the_finding() {
        let diags = varbench_lint::check_file(
            "crates/fake/src/maps.rs",
            "use std::collections::HashMap;\n",
        );
        assert_eq!(diags.len(), 1);
        let doc = render_json(&diags);
        assert!(doc.starts_with("{\"schema\":\"varbench-lint/1\""));
        assert!(doc.contains("\"lint\":\"L001\""));
        assert!(doc.contains("\"line\":1"));
        assert!(doc.contains("crates/fake/src/maps.rs"));
    }

    #[test]
    fn each_subcommand_accepts_its_flags_once() {
        for &(cmd, tables, count) in COMMANDS {
            let mut flags = names(tables);
            flags.sort_unstable();
            flags.dedup();
            assert_eq!(flags.len(), names(tables).len(), "{cmd} repeats a flag");
            assert_eq!(flags.len(), count, "{cmd} accepts {flags:?}");
        }
    }
}
