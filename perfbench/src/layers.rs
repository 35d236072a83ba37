//! Per-layer probes of a traced run: each calls one layer's public
//! functions from here, inside a span named after the metric it feeds,
//! and the metric is the median span duration.

use std::hint::black_box;
use std::path::Path;

use varbench_bench::args::Effort;
use varbench_bench::protocol::{json_envelope, StudyRequest};
use varbench_bench::registry::{self, RunContext};
use varbench_bench::serve::{route, ServeState};
use varbench_bench::{worker, workloads};
use varbench_core::compare::compare_paired;
use varbench_core::exec::Runner;
use varbench_core::json::Json;
use varbench_core::study::Study;
use varbench_pipeline::{
    lease, CaseStudy, HpoAlgorithm, LinearWorkload, MeasureCache, Scale, SeedAssignment,
};
use varbench_rng::Rng;
use varbench_stats::bootstrap::percentile_ci_prob_outperform;

use crate::clock::{durations_ms, Span, Tracer};
use crate::serve_warm;
use crate::summary::{median, Metric};

/// Trials per `hopt.trial_ms` probe.
const HOPT_BUDGET: usize = 6;

/// Paired measures and resamples of the bootstrap probes: the sizes the
/// `fig6` test preset uses.
const BOOTSTRAP_K: usize = 20;
const BOOTSTRAP_RESAMPLES: usize = 100;

/// The workloads whose single rows are probed at quick scale: the ones
/// `serve-dispatch` computes in its fleet.
const QUICK_ROWS: [&str; 2] = ["linear-logreg", "synthetic-ridge"];

/// Runs `f` `reps` times, each inside a span named `name`.
fn probe<T>(tracer: &Tracer, name: &str, reps: usize, mut f: impl FnMut() -> T) {
    for rep in 0..reps {
        tracer.span(name, rep as u64, None, |_| black_box(f()));
    }
}

/// Runs every layer probe, recording spans into `tracer`. `work` is a
/// scratch directory for the disk-cache and lease probes. Returns the
/// probes' own failed checks.
pub fn probe_all(tracer: &Tracer, seed: u64, work: &Path) -> Vec<String> {
    let mut problems = Vec::new();
    // bench::workloads, pipeline::case_study + data.
    for name in serve_warm::STUDY_WORKLOADS {
        probe(tracer, "workloads.find", 3, || {
            workloads::find(name, Scale::Quick)
        });
    }
    probe(tracer, "workloads.all", 5, || workloads::all(Scale::Quick));
    probe(tracer, "case_study.new", 5, || CaseStudy::all(Scale::Quick));

    // core::study + pipeline::cache (memory), core::report, core::json.
    let w = workloads::find("glue-rte-bert", Scale::Quick).expect("registered workload");
    let ctx = RunContext::new(Runner::new(0), MeasureCache::new());
    let study = Study::new(w.as_ref()).seeds(3);
    let report = study.run(&ctx);
    probe(tracer, "study.warm_run", 20, || study.run(&ctx));
    probe(tracer, "report.render", 50, || {
        json_envelope(Effort::Quick, &[report.to_json()])
    });
    let pool = serve_warm::pool();
    let body = pool[0].body.as_deref().expect("study requests have bodies");
    probe(tracer, "json.parse", 200, || {
        StudyRequest::from_json(&Json::parse(body).expect("pool bodies are JSON"))
    });

    // bench::serve: route() on a warm in-process state, same request mix.
    let state = ServeState::new(RunContext::new(Runner::new(0), MeasureCache::new()));
    let route_req =
        |r: &serve_warm::Request| route(&state, r.method, r.path, r.body.as_deref().unwrap_or(""));
    pool.iter().for_each(|r| drop(route_req(r)));
    for r in &pool {
        probe(tracer, "serve.route", 3, || route_req(r));
    }

    // bench::registry + figures: each artifact alone, fresh cache, serial.
    for spec in registry::all() {
        probe(tracer, &format!("artifact.{}", spec.name), 3, || {
            spec.run(
                Effort::Test,
                &RunContext::new(Runner::serial(), MeasureCache::new()),
            )
        });
    }

    // core::exec: one reproduce op serially and on every core.
    let order: Vec<usize> = (0..registry::all().len()).collect();
    for _ in 0..3 {
        tracer.span("exec.serial_op", 0, None, |_| {
            black_box(crate::reproduce::op(
                &order,
                Runner::serial(),
                &crate::clock::OFF,
                0,
                None,
            ))
        });
        tracer.span("exec.parallel_op", 0, None, |_| {
            black_box(crate::reproduce::op(
                &order,
                Runner::new(0),
                &crate::clock::OFF,
                0,
                None,
            ))
        });
    }

    // pipeline workloads + models + linalg: one row at default params.
    let seeds = SeedAssignment::all_fixed(seed);
    for w in workloads::all(Scale::Test) {
        probe(tracer, &format!("row.{}", w.name()), 5, || {
            w.run_valid_test(w.default_params(), &seeds)
        });
    }
    for name in QUICK_ROWS {
        let w = workloads::find(name, Scale::Quick).expect("registered workload");
        probe(tracer, &format!("row.{name}.quick"), 5, || {
            w.run_valid_test(w.default_params(), &seeds)
        });
    }

    // pipeline::hopt + hpo.
    let cs = CaseStudy::glue_rte_bert(Scale::Test);
    probe(tracer, "hopt.run", 3, || {
        cs.hopt(&seeds, HpoAlgorithm::RandomSearch, HOPT_BUDGET)
    });

    // stats::bootstrap + core::compare.
    let mut rng = Rng::seed_from_u64(seed);
    let a: Vec<f64> = (0..BOOTSTRAP_K).map(|_| rng.normal(0.80, 0.02)).collect();
    let b: Vec<f64> = (0..BOOTSTRAP_K).map(|_| rng.normal(0.78, 0.02)).collect();
    probe(tracer, "bootstrap.ci", 200, || {
        percentile_ci_prob_outperform(&a, &b, BOOTSTRAP_RESAMPLES, 0.05, &mut rng)
    });
    probe(tracer, "compare.paired", 200, || {
        compare_paired(&a, &b, 0.75, 0.05, BOOTSTRAP_RESAMPLES, &mut rng)
    });

    // pipeline::cache (disk): replay a published study from a fresh cache.
    let replay_dir = work.join("replay-cache");
    let linear = LinearWorkload::new(Scale::Quick);
    let replay = Study::new(&linear).seeds(3).base_seed(seed);
    let disk_ctx = || RunContext::new(Runner::new(0), MeasureCache::with_dir(&replay_dir));
    replay.run(&disk_ctx());
    let check = disk_ctx();
    replay.run(&check);
    let stats = check.cache().stats();
    if stats.disk_loads == 0 || stats.rows_computed > 0 {
        problems.push("disk replay computed rows instead of loading them".to_string());
    }
    probe(tracer, "cache.disk_replay", 10, || replay.run(&disk_ctx()));
    let _ = std::fs::remove_dir_all(&replay_dir);

    // pipeline::lease: one claim cycle, and a scan with a study queued.
    let lease_dir = work.join("lease-probe");
    probe(tracer, "lease.cycle", 200, || {
        let _ = lease::enqueue(&lease_dir, "perfbench-probe", "payload\n");
        let _ = lease::claim(&lease_dir, "perfbench-probe", "perfbench");
        lease::release(&lease_dir, "perfbench-probe", "perfbench");
        lease::dequeue(&lease_dir, "perfbench-probe")
    });
    let probe_ctx = RunContext::new(Runner::serial(), MeasureCache::new());
    let plan = Study::new(&linear).plan();
    let jobs = worker::study_jobs("linear-logreg", Effort::Quick, &linear, plan, &probe_ctx);
    for job in &jobs {
        let _ = lease::enqueue(&lease_dir, &job.id, &job.job.render());
    }
    if lease::scan_queue(&lease_dir).len() != jobs.len() {
        problems.push("lease probe: queued jobs not all visible".to_string());
    }
    probe(tracer, "lease.scan_queue", 100, || {
        lease::scan_queue(&lease_dir)
    });
    let _ = std::fs::remove_dir_all(&lease_dir);
    problems
}

/// The per-layer timing metrics, from the probe spans.
pub fn metrics(spans: &[Span]) -> Vec<Metric> {
    let ms = |name: &str| median(&durations_ms(spans, name));
    let mut out = vec![
        Metric::new("workloads.find_ms", ms("workloads.find"), "ms"),
        Metric::new("workloads.all_ms", ms("workloads.all"), "ms"),
        Metric::new("case_study.new_ms", ms("case_study.new"), "ms"),
        Metric::new("study.warm_run_ms", ms("study.warm_run"), "ms"),
        Metric::new("report.render_ms", ms("report.render"), "ms"),
        Metric::new("json.parse_us", ms("json.parse") * 1e3, "us"),
        Metric::new("serve.route_ms", ms("serve.route"), "ms"),
    ];
    for spec in registry::all() {
        let name = format!("artifact.{}", spec.name);
        out.push(Metric::new(format!("{name}_ms"), ms(&name), "ms"));
    }
    out.push(Metric::new(
        "exec.speedup",
        ms("exec.serial_op") / ms("exec.parallel_op"),
        "x",
    ));
    for w in workloads::all(Scale::Test) {
        let name = format!("row.{}", w.name());
        out.push(Metric::new(format!("{name}_ms"), ms(&name), "ms"));
    }
    for name in QUICK_ROWS {
        let name = format!("row.{name}.quick");
        out.push(Metric::new(format!("{name}_ms"), ms(&name), "ms"));
    }
    out.extend([
        Metric::new("hopt.trial_ms", ms("hopt.run") / HOPT_BUDGET as f64, "ms"),
        Metric::new("bootstrap.ci_ms", ms("bootstrap.ci"), "ms"),
        Metric::new("compare.paired_ms", ms("compare.paired"), "ms"),
        Metric::new("cache.disk_replay_ms", ms("cache.disk_replay"), "ms"),
        Metric::new("lease.cycle_us", ms("lease.cycle") * 1e3, "us"),
        Metric::new("lease.scan_queue_us", ms("lease.scan_queue") * 1e3, "us"),
    ]);
    out
}
