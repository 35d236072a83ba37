//! `reproduce`: the paper-reproduction path, in process, one caller.
//!
//! Each op runs all 15 registry artifacts at `--test` through
//! `registry::run_specs` on a fresh in-memory `MeasureCache` with an
//! nproc-thread `Runner`, rendered as the `run all --test --json`
//! envelope, and compares it with a reference rendered once, serially
//! and uncached. Artifact seeds are fixed by the byte-identity contract,
//! so the workload seed only orders artifact submission.

use varbench_bench::args::Effort;
use varbench_bench::protocol::json_envelope;
use varbench_bench::registry::{self, RunContext, Spec};
use varbench_core::exec::Runner;
use varbench_pipeline::{CacheStats, MeasureCache};
use varbench_rng::Rng;

use crate::child::peak_rss_mb;
use crate::clock::{now_ns, timed, Tracer};
use crate::summary::digest;
use crate::{closed_loop, inputs_line, median_s, stats_add, CacheCounts, WorkloadRun};

/// Submission orders drawn per run; op `i` uses order `i % ORDERS`.
const ORDERS: usize = 64;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 101;

/// Submission orders of all registry artifacts drawn from `seed`.
pub fn orders(seed: u64) -> Vec<Vec<usize>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..ORDERS)
        .map(|_| rng.permutation(registry::all().len()))
        .collect()
}

/// The `run all --test --json` bytes, rendered serially and uncached.
pub fn reference() -> String {
    let ctx = RunContext::serial();
    let docs: Vec<String> = registry::all()
        .iter()
        .map(|s| s.run(Effort::Test, &ctx).to_json())
        .collect();
    json_envelope(Effort::Test, &docs) + "\n"
}

/// The context an op runs in: a fresh memory cache and `runner`.
fn fresh_ctx(runner: Runner) -> RunContext {
    RunContext::new(runner, MeasureCache::new())
}

/// One op: submits the artifacts in `order` (canonical registry indices)
/// on a fresh context, and renders the envelope in canonical order.
pub fn op(
    order: &[usize],
    runner: Runner,
    tracer: &Tracer,
    op_id: u64,
    parent: Option<usize>,
) -> (String, CacheStats) {
    let all = registry::all();
    let ctx = fresh_ctx(runner);
    let submitted: Vec<&'static Spec> = order.iter().map(|&i| &all[i]).collect();
    let reports = tracer.span("registry.run_specs", op_id, parent, |_| {
        registry::run_specs(&submitted, Effort::Test, &ctx)
    });
    let body = tracer.span("report.render", op_id, parent, |_| {
        let mut docs = vec![String::new(); all.len()];
        for (report, &i) in reports.iter().zip(order) {
            docs[i] = report.to_json();
        }
        json_envelope(Effort::Test, &docs) + "\n"
    });
    (body, ctx.cache().stats())
}

/// Runs the workload for `seconds` against `reference` bytes.
pub fn run(seed: u64, seconds: f64, reference: &str, tracer: &Tracer) -> WorkloadRun {
    let orders = orders(seed);
    let order_bytes: Vec<Vec<u8>> = orders
        .iter()
        .map(|o| o.iter().map(|&i| i as u8).collect())
        .collect();
    let inputs = inputs_line(orders.len(), digest(order_bytes.iter().map(Vec::as_slice)));
    // Set-up is what a caller builds before the first artifact runs: the
    // executor, the cache and the submission list.
    let setup: Vec<u64> = (0..SETUP_REPS)
        .map(|r| {
            let (built, ns) = timed(|| {
                let ctx = fresh_ctx(Runner::new(0));
                let all = registry::all();
                let list: Vec<&'static Spec> =
                    orders[r % ORDERS].iter().map(|&i| &all[i]).collect();
                (ctx, list)
            });
            drop(std::hint::black_box(built));
            ns
        })
        .collect();
    let mut total = CacheStats::default();
    let ops = closed_loop(seconds, u64::MAX, tracer, |i, traced| {
        let t = if traced { tracer } else { &crate::clock::OFF };
        let start = now_ns();
        let (body, stats) = t.span("reproduce.op", i, None, |id| {
            op(&orders[i as usize % ORDERS], Runner::new(0), t, i, id)
        });
        let ns = now_ns() - start;
        total = stats_add(total, stats);
        let ok = t.span("check", i, None, |_| body == reference);
        (ns, ok)
    });
    WorkloadRun {
        cache: CacheCounts::per_op(total, ops.attempted()),
        ops,
        setup_s: median_s(&setup),
        peak_rss_mb: peak_rss_mb("/proc/self/status"),
        inputs,
        ..WorkloadRun::default()
    }
}
