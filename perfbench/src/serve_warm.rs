//! `serve-warm`: the long-running server's steady state.
//!
//! A `varbench serve` child on an in-memory cache is prefilled at set-up
//! with every request of a fixed pool — `POST /v1/study` for each of the
//! 7 workloads, `GET /v1/workloads`, and a test-effort `POST /v1/run` —
//! then one keep-alive connection drives it in a closed loop, one request
//! per op, in rounds that hold every pool request once in an order drawn
//! by the seed. No row is computed in the timed phase; every body is
//! compared with an in-process reference.
//!
//! Studies run at test effort and over one connection. At quick effort a
//! warm request spends 12–20 ms synthesizing datasets, and how fast that
//! runs swings with host load: per-run medians moved by a quarter on the
//! 2-core reference box. A second connection made it worse, since a
//! request that overlaps the other caller's is the slow kind. Test effort
//! takes the same path — every request rebuilds all seven workloads —
//! at ~1 ms.

use varbench_bench::protocol::{RunRequest, StudyRequest};
use varbench_bench::serve::{route, HttpClient, ServeState};
use varbench_core::ctx::RunContext;
use varbench_core::exec::Runner;
use varbench_core::json::Json;
use varbench_pipeline::MeasureCache;
use varbench_rng::Rng;

use crate::child::ServeChild;
use crate::clock::{now_ns, Tracer, OFF};
use crate::summary::{digest, median};
use crate::{
    closed_loop, http_rtt_us, inputs_line, median_s, server_cache_stats, stats_delta, CacheCounts,
    Env, WorkloadRun,
};

/// Rounds drawn per run; a run that uses them all starts over.
const ROUNDS: usize = 4096;

/// Effort of the pool's study requests.
const STUDY_EFFORT: &str = "test";

/// Set-ups (spawn + prefill) per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The registered workloads a study request may name.
pub const STUDY_WORKLOADS: [&str; 7] = [
    "glue-rte-bert",
    "glue-sst2-bert",
    "mhc-mlp",
    "pascalvoc-resnet",
    "cifar10-vgg11",
    "linear-logreg",
    "synthetic-ridge",
];

/// One request of the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method.
    pub method: &'static str,
    /// Request path.
    pub path: &'static str,
    /// JSON body, for POSTs.
    pub body: Option<String>,
}

impl Request {
    /// A short name for spans: `study:<workload>` or the path.
    pub fn label(&self) -> String {
        let workload = self.body.as_deref().and_then(|b| {
            let doc = Json::parse(b).ok()?;
            Some(doc.get("workload")?.as_str()?.to_string())
        });
        match workload {
            Some(w) => format!("study:{w}"),
            None => self.path.to_string(),
        }
    }

    /// Sends the request over `client`.
    pub fn send(&self, client: &mut HttpClient) -> std::io::Result<(u16, String)> {
        client.request(self.method, self.path, self.body.as_deref())
    }
}

/// Seed of the fixed request pool (the run seed draws the sequence).
const POOL_SEED: u64 = 0x9001;

/// The fixed request pool: one study per workload (seeds, budget and
/// gamma drawn once per entry), the workload listing, and a test-effort
/// artifact run.
pub fn pool() -> Vec<Request> {
    let mut rng = Rng::seed_from_u64(POOL_SEED);
    let mut out: Vec<Request> = STUDY_WORKLOADS
        .iter()
        .map(|w| {
            let seeds = 2 + rng.range_usize(3);
            let budget = rng.range_usize(3);
            let gamma = match rng.range_usize(4) {
                0 => String::new(),
                k => format!(",\"gamma\":{}", [0.6, 0.75, 0.9][k - 1]),
            };
            Request {
                method: "POST",
                path: "/v1/study",
                body: Some(format!(
                    "{{\"workload\":\"{w}\",\"effort\":\"{STUDY_EFFORT}\",\"seeds\":{seeds},\
                     \"budget\":{budget}{gamma}}}"
                )),
            }
        })
        .collect();
    out.push(Request {
        method: "GET",
        path: "/v1/workloads",
        body: None,
    });
    out.push(Request {
        method: "POST",
        path: "/v1/run",
        body: Some(r#"{"artifacts":["workload-synth"],"effort":"test"}"#.to_string()),
    });
    out
}

/// The rounds of a run: each every pool index once, in an order drawn
/// from `seed`.
pub fn rounds(seed: u64, pool_len: usize) -> Vec<Vec<usize>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..ROUNDS).map(|_| rng.permutation(pool_len)).collect()
}

/// The body the server must answer `req` with, computed in process on
/// a fresh cache through the same protocol types the server uses.
pub fn reference(req: &Request) -> String {
    let ctx = RunContext::new(Runner::new(0), MeasureCache::new());
    let doc = || Json::parse(req.body.as_deref().unwrap_or("")).expect("pool bodies are JSON");
    match req.path {
        "/v1/study" => StudyRequest::from_json(&doc())
            .and_then(|r| r.run_json(&ctx))
            .expect("pool studies are valid"),
        "/v1/run" => RunRequest::from_json(&doc())
            .expect("pool runs are valid")
            .run(&ctx),
        _ => route(&ServeState::new(ctx), req.method, req.path, "").1,
    }
}

/// The reference body of every pool request, in pool order.
pub fn references() -> Vec<String> {
    pool().iter().map(reference).collect()
}

/// Runs the workload for `seconds` against `refs` (see [`references`]):
/// `SETUP_REPS` set-ups, then the closed loop against the last server.
pub fn run(env: &Env, seed: u64, seconds: f64, refs: &[String], tracer: &Tracer) -> WorkloadRun {
    let pool = pool();
    let rounds = rounds(seed, pool.len());
    let order: Vec<u8> = rounds.iter().flatten().map(|&i| i as u8).collect();
    let inputs = inputs_line(
        order.len(),
        digest(
            pool.iter()
                .flat_map(|r| {
                    [
                        r.path.as_bytes(),
                        r.body.as_deref().unwrap_or("").as_bytes(),
                    ]
                })
                .chain([order.as_slice()]),
        ),
    );
    let mut run = WorkloadRun {
        inputs,
        ..WorkloadRun::default()
    };

    let mut setup = Vec::with_capacity(SETUP_REPS);
    // Peak memory of each server this run starts; their median is
    // reported, since a single server's peak depends on how its threads
    // happened to share allocator arenas.
    let mut rss = Vec::with_capacity(SETUP_REPS);
    let mut server: Option<ServeChild> = None;
    for rep in 0..SETUP_REPS {
        if let Some(mut old) = server.take() {
            rss.push(old.peak_rss_mb());
            run.problems.extend(old.shutdown());
        }
        let start = now_ns();
        let child = match ServeChild::spawn(&env.exe, &env.work, &format!("warm-{rep}"), None, &[])
        {
            Ok(child) => child,
            Err(e) => {
                run.problems.push(e.to_string());
                return run;
            }
        };
        match HttpClient::connect(child.addr) {
            Ok(mut client) => {
                for (req, want) in pool.iter().zip(refs) {
                    match req.send(&mut client) {
                        Ok((200, body)) if body == *want => {}
                        Ok((status, _)) => run.problems.push(format!(
                            "prefill {} {} answered {status} or wrong bytes",
                            req.method, req.path
                        )),
                        Err(e) => run.problems.push(format!("prefill failed: {e}")),
                    }
                }
            }
            Err(e) => run.problems.push(format!("cannot connect: {e}")),
        }
        setup.push(now_ns() - start);
        server = Some(child);
    }
    let mut server = server.expect("at least one set-up");
    run.setup_s = median_s(&setup);

    let Ok(mut probe) = HttpClient::connect(server.addr) else {
        run.problems.push("cannot connect for cache stats".into());
        return run;
    };
    let before = server_cache_stats(&mut probe);
    let Ok(mut client) = HttpClient::connect(server.addr) else {
        run.problems.push("cannot connect".into());
        return run;
    };
    let labels: Vec<String> = pool.iter().map(|r| format!("http {}", r.label())).collect();
    run.ops = closed_loop(seconds, u64::MAX, tracer, |i, traced| {
        let t = if traced { tracer } else { &OFF };
        let idx = order[i as usize % order.len()] as usize;
        let start = now_ns();
        let resp = t.span(&labels[idx], i, None, |_| pool[idx].send(&mut client));
        let ns = now_ns() - start;
        let ok = t.span(
            "check",
            i,
            None,
            |_| matches!(&resp, Ok((200, body)) if *body == refs[idx]),
        );
        (ns, ok)
    });
    drop(client);
    match (before, server_cache_stats(&mut probe)) {
        (Some(b), Some(a)) => {
            run.cache = CacheCounts::per_op(stats_delta(b, a), run.ops.attempted())
        }
        _ => run.problems.push("cache stats unavailable".into()),
    }
    drop(probe);
    run.rtt_us = Some(http_rtt_us(server.addr));
    rss.push(server.peak_rss_mb());
    run.peak_rss_mb = median(&rss);
    run.problems.extend(server.shutdown());
    run
}
