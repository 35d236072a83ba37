//! Smoke tests: every figure/table harness runs end-to-end at test preset
//! and produces the expected report structure — and the registry (with
//! its shared measurement cache and artifact-level parallel scheduling)
//! reproduces the standalone serial reports byte for byte.

use varbench::core::ctx::RunContext;
use varbench::core::exec::Runner;
use varbench::pipeline::MeasureCache;
use varbench_bench::args::Effort;
use varbench_bench::figures::*;
use varbench_bench::protocol::json_envelope;
use varbench_bench::{registry, workloads};

/// A standalone render: the module entry point, serially, with a private
/// in-memory cache — what the pre-registry one-shot binaries printed.
fn render<F>(report_with: F) -> String
where
    F: Fn(&RunContext) -> varbench::core::report::Report,
{
    report_with(&RunContext::serial_cached()).render_text()
}

#[test]
fn fig1_smoke() {
    let r = render(|ctx| fig1::report_with(&fig1::Config::test(), ctx));
    assert!(r.contains("Figure 1"));
    assert!(r.contains("Data (bootstrap)"));
}

#[test]
fn fig2_smoke() {
    let r = render(|ctx| fig2::report_with(&fig2::Config::test(), ctx));
    assert!(r.contains("Figure 2"));
    assert!(r.contains("tau"));
}

#[test]
fn fig3_smoke() {
    let r = render(|ctx| fig3::report_with(&fig3::Config::default(), ctx));
    assert!(r.contains("Figure 3"));
    assert!(r.contains("AutoAugment"));
}

#[test]
fn fig5_smoke() {
    let r = render(|ctx| fig5::report_with(&fig5::Config::test(), ctx));
    assert!(r.contains("Figure 5"));
    assert!(r.contains("IdealEst"));
}

#[test]
fn fig6_smoke() {
    let r = render(|ctx| fig6::report_with(&fig6::Config::test(), ctx));
    assert!(r.contains("Figure 6"));
    assert!(r.contains("oracle"));
}

#[test]
fn figc1_smoke() {
    let r = render(|ctx| figc1::report_with(&figc1::Config::test(), ctx));
    assert!(r.contains("N = 29"));
}

#[test]
fn figf2_smoke() {
    let r = render(|ctx| figf2::report_with(&figf2::Config::test(), ctx));
    assert!(r.contains("Figure F.2"));
    assert!(r.contains("Bayes Opt"));
}

#[test]
fn figg3_smoke() {
    let r = render(|ctx| figg3::report_with(&figg3::Config::test(), ctx));
    assert!(r.contains("Shapiro-Wilk"));
}

#[test]
fn figh5_smoke() {
    let r = render(|ctx| figh5::report_with(&figh5::Config::test(), ctx));
    assert!(r.contains("MSE decomposition"));
}

#[test]
fn figi6_smoke() {
    let cfg = figi6::Config {
        n_simulations: 4,
        resamples: 40,
        sigma: 0.02,
    };
    let r = render(|ctx| figi6::report_with(&cfg, ctx));
    assert!(r.contains("robustness"));
}

#[test]
fn tables_smoke() {
    let r = render(|ctx| tables::report_with(&tables::Config::test(), ctx));
    assert!(r.contains("Table 8"));
    assert!(r.contains("search spaces"));
}

#[test]
fn interactions_smoke() {
    let r = render(|ctx| interactions::report_with(&interactions::Config::test(), ctx));
    assert!(r.contains("joint / sum"));
}

#[test]
fn ablations_smoke() {
    let r = render(|ctx| ablations::report_with(&ablations::Config::test(), ctx));
    assert!(r.contains("HPO budget"));
    assert!(r.contains("out-of-bootstrap"));
}

#[test]
fn workload_artifacts_smoke() {
    // The acceptance check for the two non-MLP workloads: `varbench run
    // workload-linear workload-synth --test` produces variance reports.
    let linear = render(|ctx| workloads::linear_report(Effort::Test, ctx));
    assert!(linear.contains("linear-logreg"));
    assert!(linear.contains("Weights init"));
    assert!(linear.contains("Altogether (joint)"));
    let synth = render(|ctx| workloads::synth_report(Effort::Test, ctx));
    assert!(synth.contains("synthetic-ridge"));
    assert!(synth.contains("Data (bootstrap)"));
    assert!(synth.contains("HyperOpt"));
}

#[test]
fn parallel_reports_byte_identical_to_serial() {
    // The executor guarantee, end to end: every Runner-threaded figure
    // renders the exact same report text at 1 thread and at 4 threads.
    let serial = RunContext::serial();
    let parallel = || RunContext::new(Runner::new(4), MeasureCache::disabled());

    assert_eq!(
        fig1::report_with(&fig1::Config::test(), &serial).render_text(),
        fig1::report_with(&fig1::Config::test(), &parallel()).render_text(),
        "fig1 report differs"
    );
    assert_eq!(
        fig5::report_with(&fig5::Config::test(), &serial).render_text(),
        fig5::report_with(&fig5::Config::test(), &parallel()).render_text(),
        "fig5 report differs"
    );
    assert_eq!(
        fig6::report_with(&fig6::Config::test(), &serial).render_text(),
        fig6::report_with(&fig6::Config::test(), &parallel()).render_text(),
        "fig6 report differs"
    );
    assert_eq!(
        figh5::report_with(&figh5::Config::test(), &serial).render_text(),
        figh5::report_with(&figh5::Config::test(), &parallel()).render_text(),
        "figh5 report differs"
    );
    let i6 = figi6::Config {
        n_simulations: 4,
        resamples: 40,
        sigma: 0.02,
    };
    assert_eq!(
        figi6::report_with(&i6, &serial).render_text(),
        figi6::report_with(&i6, &parallel()).render_text(),
        "figi6 report differs"
    );
    assert_eq!(
        interactions::report_with(&interactions::Config::test(), &serial).render_text(),
        interactions::report_with(&interactions::Config::test(), &parallel()).render_text(),
        "interactions report differs"
    );
}

/// The standalone path: each artifact through its own module entry point,
/// serially, with a private cache — exactly what the pre-registry
/// one-shot binaries printed.
fn standalone_reports(effort: Effort) -> Vec<(&'static str, String)> {
    vec![
        (
            "fig1",
            render(|c| fig1::report_with(&fig1::Config::for_effort(effort), c)),
        ),
        (
            "fig2",
            render(|c| fig2::report_with(&fig2::Config::for_effort(effort), c)),
        ),
        (
            "fig3",
            render(|c| fig3::report_with(&fig3::Config::for_effort(effort), c)),
        ),
        (
            "fig5",
            render(|c| fig5::report_with(&fig5::Config::for_effort(effort), c)),
        ),
        (
            "fig6",
            render(|c| fig6::report_with(&fig6::Config::for_effort(effort), c)),
        ),
        (
            "figc1",
            render(|c| figc1::report_with(&figc1::Config::for_effort(effort), c)),
        ),
        (
            "figf2",
            render(|c| figf2::report_with(&figf2::Config::for_effort(effort), c)),
        ),
        (
            "figg3",
            render(|c| figg3::report_with(&figg3::Config::for_effort(effort), c)),
        ),
        (
            "figh5",
            render(|c| figh5::report_with(&figh5::Config::for_effort(effort), c)),
        ),
        (
            "figi6",
            render(|c| figi6::report_with(&figi6::Config::for_effort(effort), c)),
        ),
        (
            "tables",
            render(|c| tables::report_with(&tables::Config::for_effort(effort), c)),
        ),
        (
            "interactions",
            render(|c| interactions::report_with(&interactions::Config::for_effort(effort), c)),
        ),
        (
            "ablations",
            render(|c| ablations::report_with(&ablations::Config::for_effort(effort), c)),
        ),
        (
            "workload-linear",
            render(|c| workloads::linear_report(effort, c)),
        ),
        (
            "workload-synth",
            render(|c| workloads::synth_report(effort, c)),
        ),
    ]
}

#[test]
fn registry_run_all_byte_identical_to_standalone_artifacts() {
    // The `varbench run all --test` path: every artifact through the
    // registry, scheduled in parallel, sharing one measurement cache.
    // Each report must match the standalone serial output byte for byte —
    // the cache and the scheduler may change who computes a measurement,
    // never its value.
    let ctx = RunContext::new(Runner::new(4), MeasureCache::new());
    let specs: Vec<_> = registry::all().iter().collect();
    let reports = registry::run_specs(&specs, Effort::Test, &ctx);
    let expected = standalone_reports(Effort::Test);
    assert_eq!(reports.len(), expected.len());
    assert!(
        ctx.cache().stats().rows_served > 0,
        "the shared cache must actually serve cross-artifact measurements"
    );
    for (report, (name, text)) in reports.iter().zip(&expected) {
        assert_eq!(report.name(), *name, "registry order");
        assert_eq!(
            report.render_text(),
            *text,
            "{name} report differs from its standalone output"
        );
    }
    // The checks above compare two paths of one build. The committed
    // `varbench run all --test --json` output also pins what every path
    // computes, so a change to, e.g., the bootstrap's random stream fails.
    let docs: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    let envelope = format!("{}\n", json_envelope(Effort::Test, &docs));
    let golden = include_str!("golden/run_all_test.json");
    assert!(
        envelope == golden,
        "run all --test --json differs from tests/golden/run_all_test.json from byte {}",
        envelope
            .bytes()
            .zip(golden.bytes())
            .take_while(|(a, b)| a == b)
            .count()
    );
}

#[test]
#[ignore = "wall-clock benchmark; run explicitly: cargo test --release -- --ignored fig5_quick"]
// A speedup acceptance test is the other legitimate clock reader
// besides the timing module (lint L002 exempts test paths; the clippy
// mirror needs an explicit carve-out).
#[allow(clippy::disallowed_methods)]
fn fig5_quick_parallel_speedup() {
    // Acceptance check: fig5's quick config through the Runner on >= 4
    // threads must be >= 2x faster than the serial path, with the exact
    // same report text. Wall-clock sensitive, so opt-in (scripts/ci.sh
    // runs it in release mode when the host has enough cores).
    let config = fig5::Config::quick();
    let t0 = std::time::Instant::now();
    let serial_report = render(|c| fig5::report_with(&config, c));
    let serial_time = t0.elapsed();

    let threads = std::thread::available_parallelism()
        .map_or(4, |n| n.get().min(8))
        .max(4);
    let t1 = std::time::Instant::now();
    let parallel_ctx = RunContext::new(Runner::new(threads), MeasureCache::new());
    let parallel_report = fig5::report_with(&config, &parallel_ctx).render_text();
    let parallel_time = t1.elapsed();

    assert_eq!(
        serial_report, parallel_report,
        "reports must be byte-identical"
    );
    let speedup = serial_time.as_secs_f64() / parallel_time.as_secs_f64();
    println!(
        "fig5 quick: serial {serial_time:?}, parallel({threads}) {parallel_time:?}, speedup {speedup:.2}x"
    );
    assert!(
        speedup >= 2.0,
        "expected >= 2x speedup on {threads} threads, got {speedup:.2}x \
         (serial {serial_time:?}, parallel {parallel_time:?})"
    );
}
