//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one benchmark workload (`reproduce`, `serve-warm`,
//! `serve-dispatch`) for `S` seconds on inputs generated from seed `N`
//! and prints, as its last stdout line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Must run from the repository root; the `varbench`
//! binary is expected next to this executable (`perfbench/run.sh` builds
//! both). Scratch files go to `.bench_work/`; traces are kept in
//! `.bench_work/traces/`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use varbench_perfbench::clock::{self, Tracer};
use varbench_perfbench::summary::{median, Metric, Outcome};
use varbench_perfbench::{
    layers, reproduce, serve_dispatch, serve_warm, to_ms, Env, FleetStats, WorkloadRun,
};

const WORKLOADS: [&str; 3] = ["reproduce", "serve-warm", "serve-dispatch"];

/// Length of the fleet probe a traced run makes when its own workload
/// has no fleet.
const FLEET_PROBE_SECONDS: f64 = 2.0;
const FLEET_PROBE_OPS: u64 = 8;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--workload" => return Err(format!("unknown workload '{value}'")),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn run_workload(name: &str, env: &Env, seed: u64, seconds: f64, tracer: &Tracer) -> WorkloadRun {
    match name {
        "reproduce" => reproduce::run(seed, seconds, &reproduce::reference(), tracer),
        "serve-warm" => serve_warm::run(env, seed, seconds, &serve_warm::references(), tracer),
        _ => serve_dispatch::run(env, seed, seconds, u64::MAX, tracer),
    }
}

/// The traced run: the workload with every other pair of ops traced,
/// the fleet probe where the workload has no fleet, and every layer
/// probe.
fn traced(args: &Args, env: &Env, tracer: &Tracer) -> (WorkloadRun, Vec<Metric>) {
    let mut run = run_workload(&args.workload, env, args.seed, args.seconds, tracer);
    let probe = run.fleet.is_none().then(|| {
        serve_dispatch::run(
            env,
            args.seed,
            FLEET_PROBE_SECONDS,
            FLEET_PROBE_OPS,
            &Tracer::new(false),
        )
    });
    let probe_problems = layers::probe_all(tracer, args.seed, &env.work);
    run.problems.extend(probe_problems);
    let spans = tracer.spans();
    let mut metrics = layers::metrics(&spans);

    let c = run.cache;
    metrics.extend([
        Metric::new("cache.rows_computed", c.rows_computed, "count"),
        Metric::new("cache.rows_served", c.rows_served, "count"),
        Metric::new("cache.row_hit_ratio", c.row_hit_ratio(), "ratio"),
        Metric::new(
            "cache.record_fits_computed",
            c.record_fits_computed,
            "count",
        ),
        Metric::new("cache.coalesced", c.coalesced, "count"),
        Metric::new("cache.disk_loads", c.disk_loads, "count"),
    ]);
    let (fleet, rtt) = match &probe {
        Some(p) => {
            run.problems.extend(p.problems.iter().cloned());
            if p.ops.failed > 0 {
                run.problems
                    .push(format!("fleet probe: {} failed op(s)", p.ops.failed));
            }
            (p.fleet, run.rtt_us.or(p.rtt_us))
        }
        None => (run.fleet, run.rtt_us),
    };
    let fleet = fleet.unwrap_or(FleetStats {
        wait_ms: f64::NAN,
        reclaims: f64::NAN,
        respawns: f64::NAN,
    });
    let overhead = median(&to_ms(&run.ops.traced_ns)) - median(&to_ms(&run.ops.plain_ns));
    metrics.extend([
        Metric::new("serve.http_rtt_us", rtt.unwrap_or(f64::NAN), "us"),
        Metric::new("fleet.wait_ms", fleet.wait_ms, "ms"),
        Metric::new("fleet.reclaims", fleet.reclaims, "count"),
        Metric::new("fleet.respawns", fleet.respawns, "count"),
        Metric::new("trace.overhead_ms", overhead, "ms"),
    ]);

    let dir = PathBuf::from(".bench_work").join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, clock::spans_jsonl(&spans)))
    {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    eprintln!(
        "perfbench: {} spans written to {}",
        spans.len(),
        path.display()
    );
    eprintln!(
        "{:<32} {:>7} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, n, total, own) in clock::self_times(&spans) {
        eprintln!("{name:<32} {n:>7} {total:>12.3} {own:>12.3}");
    }
    (run, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.parent()?.join("varbench")))
        .filter(|p| p.is_file());
    let Some(exe) = exe else {
        eprintln!("perfbench: no varbench binary next to this executable; run perfbench/run.sh");
        return ExitCode::from(2);
    };
    let work = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let env = Env { exe, work };

    let tracer = Tracer::new(args.trace);
    let (run, metrics) = if args.trace {
        traced(&args, &env, &tracer)
    } else {
        let run = run_workload(&args.workload, &env, args.seed, args.seconds, &tracer);
        let metrics = run.end_to_end();
        (run, metrics)
    };
    let _ = std::fs::remove_dir_all(&env.work);

    println!(
        "perfbench: workload={} seed={} trace={} ops={} {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        run.ops.attempted(),
        run.inputs
    );
    for note in &run.notes {
        println!("perfbench: {note}");
    }
    println!("perfbench: {}", run.latency_line());
    for problem in &run.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let outcome = Outcome {
        correct: run.ops.failed == 0 && run.problems.is_empty(),
        attempted: run.ops.attempted(),
        failed: run.ops.failed,
        metrics,
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
