//! End-to-end and per-layer benchmark of varbench.
//!
//! Three workloads drive the shipped code paths — [`reproduce`] (the
//! artifact registry, in process), [`serve_warm`] (a `varbench serve`
//! child answering from a prefilled memory cache) and
//! [`serve_dispatch`] (a `varbench serve --workers 2` child computing
//! every row in its fleet) — each a closed loop whose every output is
//! checked byte for byte against a reference computed in process. A
//! traced run adds spans around the calls into each layer and the
//! [`layers`] probes. Timing goes through [`clock::now_ns`] only.
//!
//! Run `bash perfbench/run.sh --workload NAME --seed N --seconds S
//! --trace 0|1` from the repository root; the last stdout line is the
//! JSON result.

#![forbid(unsafe_code)]

pub mod child;
pub mod clock;
pub mod layers;
pub mod reproduce;
pub mod serve_dispatch;
pub mod serve_warm;
pub mod summary;

use std::net::SocketAddr;
use std::path::PathBuf;

use clock::{now_ns, Tracer};
use summary::{hd_quantile, median, quantile, Metric};
use varbench_bench::serve::HttpClient;
use varbench_core::json::Json;
use varbench_pipeline::CacheStats;

/// Where a run finds the `varbench` binary and keeps its scratch files.
pub struct Env {
    /// The `varbench` executable the serve workloads spawn.
    pub exe: PathBuf,
    /// A scratch directory private to this run.
    pub work: PathBuf,
}

/// Latencies and failures of one closed-loop timed phase.
#[derive(Debug, Default, Clone)]
pub struct Ops {
    /// Latencies of ops that recorded no spans.
    pub plain_ns: Vec<u64>,
    /// Latencies of ops that recorded spans (traced runs only).
    pub traced_ns: Vec<u64>,
    /// Ops that failed.
    pub failed: u64,
    /// Wall time of the whole phase.
    pub elapsed_ns: u64,
}

impl Ops {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        (self.plain_ns.len() + self.traced_ns.len()) as u64
    }
}

/// Milliseconds of each latency.
pub fn to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Whether op `i` records spans: every other pair of ops of a traced
/// run, so one run yields both traced and untraced latencies, and a
/// workload that alternates two request kinds traces both.
pub fn traced_op(tracer: &Tracer, i: u64) -> bool {
    tracer.enabled() && i % 4 >= 2
}

/// Runs `op(i, traced)` back to back — each op starts when the previous
/// one answered — until `seconds` have passed or `limit` ops ran, and at
/// least once. `op` returns its latency and whether it succeeded.
pub fn closed_loop(
    seconds: f64,
    limit: u64,
    tracer: &Tracer,
    mut op: impl FnMut(u64, bool) -> (u64, bool),
) -> Ops {
    let start = now_ns();
    let deadline = start + (seconds * 1e9) as u64;
    let mut ops = Ops::default();
    let mut i = 0;
    loop {
        let traced = traced_op(tracer, i);
        let (ns, ok) = op(i, traced);
        if traced {
            ops.traced_ns.push(ns);
        } else {
            ops.plain_ns.push(ns);
        }
        ops.failed += u64::from(!ok);
        i += 1;
        if now_ns() >= deadline || i >= limit {
            break;
        }
    }
    ops.elapsed_ns = now_ns() - start;
    ops
}

/// Measurement-cache counters per op.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheCounts {
    /// Matrix rows computed.
    pub rows_computed: f64,
    /// Matrix rows served from the store.
    pub rows_served: f64,
    /// Model fits inside computed records.
    pub record_fits_computed: f64,
    /// Lookups that waited on an identical in-flight computation.
    pub coalesced: f64,
    /// Entries loaded from disk.
    pub disk_loads: f64,
}

impl CacheCounts {
    /// `total` (accumulated over `ops` ops) per op.
    pub fn per_op(total: CacheStats, ops: u64) -> CacheCounts {
        let n = ops.max(1) as f64;
        CacheCounts {
            rows_computed: total.rows_computed as f64 / n,
            rows_served: total.rows_served as f64 / n,
            record_fits_computed: total.record_fits_computed as f64 / n,
            coalesced: total.coalesced as f64 / n,
            disk_loads: total.disk_loads as f64 / n,
        }
    }

    /// Rows served over rows looked up (0 when no row was looked up).
    pub fn row_hit_ratio(&self) -> f64 {
        let rows = self.rows_served + self.rows_computed;
        if rows > 0.0 {
            self.rows_served / rows
        } else {
            0.0
        }
    }
}

/// `after - before`, counter by counter.
pub fn stats_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        full_hits: after.full_hits.saturating_sub(before.full_hits),
        extensions: after.extensions.saturating_sub(before.extensions),
        misses: after.misses.saturating_sub(before.misses),
        rows_computed: after.rows_computed.saturating_sub(before.rows_computed),
        rows_served: after.rows_served.saturating_sub(before.rows_served),
        records_served: after.records_served.saturating_sub(before.records_served),
        records_computed: after
            .records_computed
            .saturating_sub(before.records_computed),
        record_fits_computed: after
            .record_fits_computed
            .saturating_sub(before.record_fits_computed),
        disk_loads: after.disk_loads.saturating_sub(before.disk_loads),
        coalesced: after.coalesced.saturating_sub(before.coalesced),
    }
}

/// `a + b`, counter by counter.
pub fn stats_add(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        full_hits: a.full_hits + b.full_hits,
        extensions: a.extensions + b.extensions,
        misses: a.misses + b.misses,
        rows_computed: a.rows_computed + b.rows_computed,
        rows_served: a.rows_served + b.rows_served,
        records_served: a.records_served + b.records_served,
        records_computed: a.records_computed + b.records_computed,
        record_fits_computed: a.record_fits_computed + b.record_fits_computed,
        disk_loads: a.disk_loads + b.disk_loads,
        coalesced: a.coalesced + b.coalesced,
    }
}

/// The server's counters, from a `GET /v1/cache/stats` body.
pub fn parse_cache_stats(body: &str) -> Option<CacheStats> {
    let doc = Json::parse(body).ok()?;
    let n = |key: &str| doc.get(key).and_then(Json::as_u64);
    Some(CacheStats {
        full_hits: n("full_hits")?,
        extensions: n("extensions")?,
        misses: n("misses")?,
        rows_computed: n("rows_computed")?,
        rows_served: n("rows_served")?,
        records_served: n("records_served")?,
        records_computed: n("records_computed")?,
        record_fits_computed: n("record_fits_computed")?,
        disk_loads: n("disk_loads")?,
        coalesced: n("coalesced")?,
    })
}

/// Fetches the server's cache counters.
pub fn server_cache_stats(client: &mut HttpClient) -> Option<CacheStats> {
    match client.request("GET", "/v1/cache/stats", None) {
        Ok((200, body)) => parse_cache_stats(&body),
        _ => None,
    }
}

/// Median keep-alive round trip of `GET /health`, in µs (`NaN` when a
/// ping fails).
pub fn http_rtt_us(addr: SocketAddr) -> f64 {
    const PINGS: usize = 200;
    let Ok(mut client) = HttpClient::connect(addr) else {
        return f64::NAN;
    };
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let (resp, ns) = clock::timed(|| client.request("GET", "/health", None));
        if !matches!(resp, Ok((200, _))) {
            return f64::NAN;
        }
        rtts.push(ns as f64 / 1e3);
    }
    median(&rtts)
}

/// What the serve-dispatch session shows about the worker fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetStats {
    /// Median dispatched latency minus the same study's in-process
    /// latency on a fresh cache, ms.
    pub wait_ms: f64,
    /// Lease reclaims the server reported.
    pub reclaims: f64,
    /// Worker respawns the server reported (`GET /v1/ready`).
    pub respawns: f64,
}

/// Everything one workload session measured.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRun {
    /// The timed phase.
    pub ops: Ops,
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Peak resident memory of the process doing the work, MB.
    pub peak_rss_mb: f64,
    /// Cache counters per op.
    pub cache: CacheCounts,
    /// Keep-alive `GET /health` round trip, µs (serve workloads).
    pub rtt_us: Option<f64>,
    /// Fleet behaviour (serve-dispatch).
    pub fleet: Option<FleetStats>,
    /// Failed checks other than op outputs; any makes the run incorrect.
    pub problems: Vec<String>,
    /// The generated inputs: their count and digest.
    pub inputs: String,
    /// Extra `key=value` lines for stdout (e.g. fleet hygiene).
    pub notes: Vec<String>,
}

impl WorkloadRun {
    /// The end-to-end metrics, from untraced ops only. The latency tail
    /// is p75: the highest percentile with ten samples beyond it in a
    /// `reproduce` run, whose ops take half a second each.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let lat = to_ms(&self.ops.plain_ns);
        let secs = self.ops.elapsed_ns as f64 / 1e9;
        vec![
            Metric::new("ops_per_s", self.ops.attempted() as f64 / secs, "1/s"),
            Metric::new("latency_p50_ms", hd_quantile(&lat, 0.5), "ms"),
            Metric::new("latency_p75_ms", hd_quantile(&lat, 0.75), "ms"),
            Metric::new("setup_s", self.setup_s, "s"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }

    /// The untraced latency distribution as `key=value` text, with p90
    /// only where ten samples lie beyond it.
    pub fn latency_line(&self) -> String {
        let lat = to_ms(&self.ops.plain_ns);
        let mut line = format!("latency_ms n={}", lat.len());
        for (label, q) in [
            ("p10", 0.1),
            ("p25", 0.25),
            ("p50", 0.5),
            ("p75", 0.75),
            ("p90", 0.9),
        ] {
            if (lat.len() as f64) * (1.0 - q) >= 10.0 {
                line += &format!(" {label}={:.3}", hd_quantile(&lat, q));
            }
        }
        line + &format!(" max={:.3}", quantile(&lat, 1.0))
    }
}

/// The median of `samples_ns`, in seconds.
pub fn median_s(samples_ns: &[u64]) -> f64 {
    median(
        &samples_ns
            .iter()
            .map(|&n| n as f64 / 1e9)
            .collect::<Vec<_>>(),
    )
}

/// Input digest line: `inputs=<count> digest=fnv1a:<hex>`.
pub fn inputs_line(count: usize, digest: u64) -> String {
    format!("inputs={count} digest=fnv1a:{digest:016x}")
}
