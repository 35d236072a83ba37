//! `serve-dispatch`: studies computed by the server's worker fleet.
//!
//! A `varbench serve --workers 2` child over a fresh disk cache answers
//! one connection in a closed loop. Each op posts a cold
//! `"dispatch": true` study with a never-repeated `base_seed` drawn from
//! the seed, alternating `linear-logreg` and `synthetic-ridge` at quick
//! scale: every row is computed in a worker process, published to disk
//! and read back by the server. After the timed phase each body is
//! compared with the same study run in process, non-dispatched, on a
//! fresh cache, and the cache directory must hold no lease, queued job
//! or torn record.

use std::collections::BTreeSet;
use std::path::Path;

use varbench_bench::protocol::StudyRequest;
use varbench_bench::serve::HttpClient;
use varbench_core::ctx::RunContext;
use varbench_core::exec::Runner;
use varbench_core::json::Json;
use varbench_pipeline::{gc_dir, lease, MeasureCache};
use varbench_rng::Rng;

use crate::child::ServeChild;
use crate::clock::{now_ns, timed, Tracer, OFF};
use crate::summary::{digest, median};
use crate::{
    closed_loop, http_rtt_us, inputs_line, median_s, server_cache_stats, CacheCounts, Env,
    FleetStats, WorkloadRun,
};

/// Requests generated per run (more than any run can send).
pub const MAX_REQUESTS: usize = 4096;

/// Fleet size: worker processes the server supervises.
const WORKERS: &str = "2";

/// Set-ups (spawn + fleet start) per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// Longest pause the caller takes before an op, µs. The server and its
/// workers poll on fixed 50 ms timers; a seeded pause in `[0, 50 ms)`
/// keeps the closed loop from phase-locking onto them, which otherwise
/// lands whole runs in the slow or the fast half of a poll period.
const MAX_PAUSE_US: u64 = 50_000;

/// One generated op: the study body, without the dispatch flag, and the
/// pause before sending it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// `POST /v1/study` body.
    pub body: String,
    /// Think time before the op, µs (not part of its latency).
    pub pause_us: u64,
}

/// The ops of a run: alternating workloads, distinct base seeds and
/// pauses drawn from `seed`.
pub fn requests(seed: u64) -> Vec<Op> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut used = BTreeSet::new();
    (0..MAX_REQUESTS)
        .map(|i| {
            let workload = ["linear-logreg", "synthetic-ridge"][i % 2];
            let base_seed = loop {
                let s = rng.range_u64(1 << 32);
                if used.insert(s) {
                    break s;
                }
            };
            Op {
                body: format!(
                    "{{\"workload\":\"{workload}\",\"effort\":\"quick\",\"base_seed\":{base_seed}}}"
                ),
                pause_us: rng.range_u64(MAX_PAUSE_US),
            }
        })
        .collect()
}

/// `body` with `"dispatch": true` added.
pub fn dispatched(body: &str) -> String {
    format!("{},\"dispatch\":true}}", &body[..body.len() - 1])
}

/// The in-process answer to `body` on a fresh cache, and how long the
/// study took.
pub fn reference(body: &str) -> (String, u64) {
    let req = Json::parse(body)
        .map_err(|e| e.to_string())
        .and_then(|doc| StudyRequest::from_json(&doc))
        .expect("generated studies are valid");
    let ctx = RunContext::new(Runner::new(0), MeasureCache::new());
    let (out, ns) = timed(|| req.run_json(&ctx));
    (out.expect("generated studies run"), ns)
}

/// Lease reclaims summed over the server's `serve dispatch:` lines.
pub fn reclaims(stderr: &str) -> u64 {
    stderr
        .lines()
        .filter(|l| l.starts_with("serve dispatch:"))
        .flat_map(|l| l.split([',', ';']))
        .filter(|part| part.contains("lease reclaim"))
        .filter_map(|part| part.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Spawns a fleet-backed server over `cache` and waits for its fleet.
fn start(env: &Env, tag: &str, cache: &Path) -> Result<ServeChild, String> {
    let child = ServeChild::spawn(
        &env.exe,
        &env.work,
        tag,
        Some(cache),
        &["--workers", WORKERS],
    )
    .map_err(|e| e.to_string())?;
    let want = format!("\"running\":{WORKERS}");
    let deadline = now_ns() + 30_000_000_000;
    while now_ns() < deadline {
        if let Ok((200, body)) =
            varbench_bench::serve::http_request(child.addr, "GET", "/v1/ready", None)
        {
            if body.contains(&want) {
                return Ok(child);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Err("worker fleet never became ready".into())
}

/// Runs the workload for `seconds` (at most `limit` ops).
pub fn run(env: &Env, seed: u64, seconds: f64, limit: u64, tracer: &Tracer) -> WorkloadRun {
    let reqs = requests(seed);
    let rendered: Vec<String> = reqs
        .iter()
        .map(|op| format!("{} {}", op.pause_us, op.body))
        .collect();
    let mut run = WorkloadRun {
        inputs: inputs_line(reqs.len(), digest(rendered.iter().map(String::as_bytes))),
        ..WorkloadRun::default()
    };
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server: Option<ServeChild> = None;
    let mut cache = env.work.clone();
    for rep in 0..SETUP_REPS {
        if let Some(mut old) = server.take() {
            run.problems.extend(old.shutdown());
            let _ = std::fs::remove_dir_all(&cache);
        }
        cache = env.work.join(format!("dispatch-cache-{rep}"));
        let start_ns = now_ns();
        match start(env, &format!("dispatch-{rep}"), &cache) {
            Ok(child) => server = Some(child),
            Err(e) => {
                run.problems.push(e);
                return run;
            }
        }
        setup.push(now_ns() - start_ns);
    }
    let mut server = server.expect("at least one set-up");
    run.setup_s = median_s(&setup);

    let (Ok(mut client), Ok(mut probe)) = (
        HttpClient::connect(server.addr),
        HttpClient::connect(server.addr),
    ) else {
        run.problems.push("cannot connect".into());
        return run;
    };
    let before = server_cache_stats(&mut probe);
    let mut answers: Vec<(u64, Option<String>)> = Vec::new();
    run.ops = closed_loop(
        seconds,
        limit.min(MAX_REQUESTS as u64),
        tracer,
        |i, traced| {
            let t = if traced { tracer } else { &OFF };
            let op = &reqs[i as usize];
            let body = dispatched(&op.body);
            std::thread::sleep(std::time::Duration::from_micros(op.pause_us));
            let start = now_ns();
            let resp = t.span("serve-dispatch.op", i, None, |id| {
                t.span("http.request", i, id, |_| {
                    client.request("POST", "/v1/study", Some(&body))
                })
            });
            let ns = now_ns() - start;
            let answer = match resp {
                Ok((200, body)) => Some(body),
                _ => None,
            };
            let ok = answer.is_some();
            answers.push((ns, answer));
            (ns, ok)
        },
    );
    drop(client);
    if let (Some(b), Some(a)) = (before, server_cache_stats(&mut probe)) {
        run.cache = CacheCounts::per_op(crate::stats_delta(b, a), run.ops.attempted());
    } else {
        run.problems.push("cache stats unavailable".into());
    }
    let respawns = match probe.request("GET", "/v1/ready", None) {
        Ok((_, body)) => Json::parse(&body)
            .ok()
            .and_then(|d| d.get("fleet")?.get("respawns")?.as_u64()),
        Err(_) => None,
    };
    drop(probe);
    run.rtt_us = Some(http_rtt_us(server.addr));
    run.peak_rss_mb = server.peak_rss_mb();
    let leaks = server.shutdown();
    let reclaimed = reclaims(&server.stderr_text());

    // Fleet hygiene: nothing may be left held, queued or torn.
    let tally = lease::tally(&cache);
    let torn = gc_dir(&cache).map_or(u64::MAX, |g| g.torn_files);
    run.notes.push(format!(
        "hygiene: leases_active={} jobs_queued={} torn_records={torn} leaked_processes={}",
        tally.active,
        tally.queued,
        leaks.len()
    ));
    if tally.active + tally.queued > 0 || torn > 0 {
        run.problems
            .push("fleet left leases, jobs or torn records behind".into());
    }
    run.problems.extend(leaks);
    let _ = std::fs::remove_dir_all(&cache);

    // Output check, outside the timed phase.
    let mut waits = Vec::new();
    for (i, (ns, answer)) in answers.iter().enumerate() {
        let Some(answer) = answer else { continue };
        let t = if crate::traced_op(tracer, i as u64) {
            tracer
        } else {
            &OFF
        };
        let (want, in_process_ns) = reference(&reqs[i].body);
        if !t.span("check", i as u64, None, |_| *answer == want) {
            run.ops.failed += 1;
        }
        waits.push((*ns as f64 - in_process_ns as f64) / 1e6);
    }
    run.fleet = Some(FleetStats {
        wait_ms: median(&waits),
        reclaims: reclaimed as f64,
        respawns: respawns.map_or(f64::NAN, |r| r as f64),
    });
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_never_repeat_a_seed() {
        let reqs = requests(3);
        let distinct: BTreeSet<&String> = reqs.iter().map(|op| &op.body).collect();
        assert_eq!(distinct.len(), reqs.len());
        assert!(reqs.iter().all(|op| op.pause_us < MAX_PAUSE_US));
        assert_eq!(reqs, requests(3), "same seed, same inputs");
        assert_ne!(reqs, requests(4));
        assert!(dispatched(&reqs[0].body).ends_with(",\"dispatch\":true}"));
    }

    #[test]
    fn reclaims_are_summed_from_dispatch_lines() {
        let log = "varbench serve: listening\n\
                   serve dispatch: 4 unit(s), 0 already cached, 4 fleet-completed, 0 lease reclaim(s)\n\
                   serve dispatch: 4 unit(s), 0 already cached, 3 fleet-completed, 2 lease reclaim(s); wait budget expired\n";
        assert_eq!(reclaims(log), 2);
    }
}
