//! Reproducibility integration tests — the paper's Appendix A discipline:
//! identical seeds must give identical results, varied seeds must vary
//! them, and execution order across experiments must not matter — and the
//! parallel executor must not change a single bit of any of it.

use varbench::core::ctx::RunContext;
use varbench::core::estimator::{
    fix_hopt_estimator, ideal_estimator, source_variance_study, Randomize,
};
use varbench::core::exec::Runner;
use varbench::core::simulation::{detection_study_with, DetectionConfig, SimulatedTask};
use varbench::pipeline::MeasureCache;
use varbench::pipeline::{CaseStudy, HpoAlgorithm, Scale, SeedAssignment, VarianceSource};

#[test]
fn identical_seeds_identical_results_every_task() {
    for cs in CaseStudy::all(Scale::Test) {
        let seeds = SeedAssignment::all_fixed(42);
        let params = cs.default_params().to_vec();
        let a = cs.run_with_params(&params, &seeds);
        let b = cs.run_with_params(&params, &seeds);
        assert_eq!(a, b, "{} not reproducible", cs.name());
    }
}

#[test]
fn full_pipeline_reproducible_with_hpo() {
    let cs = CaseStudy::glue_rte_bert(Scale::Test);
    let seeds = SeedAssignment::all_fixed(1);
    for algo in [
        HpoAlgorithm::RandomSearch,
        HpoAlgorithm::NoisyGridSearch,
        HpoAlgorithm::BayesOpt,
    ] {
        let a = cs.run_pipeline(&seeds, algo, 4);
        let b = cs.run_pipeline(&seeds, algo, 4);
        assert_eq!(a, b, "{algo} pipeline not reproducible");
    }
}

#[test]
fn interleaved_execution_equals_sequential() {
    // The paper's resumption test analog: running experiments interleaved
    // must give the same results as running each to completion, because no
    // global state is shared between pipeline invocations.
    let cs1 = CaseStudy::glue_rte_bert(Scale::Test);
    let cs2 = CaseStudy::mhc_mlp(Scale::Test);
    let p1 = cs1.default_params().to_vec();
    let p2 = cs2.default_params().to_vec();

    // Sequential: all of cs1's runs, then all of cs2's.
    let seq1: Vec<f64> = (0..3)
        .map(|i| cs1.run_with_params(&p1, &SeedAssignment::all_random(9, i)))
        .collect();
    let seq2: Vec<f64> = (0..3)
        .map(|i| cs2.run_with_params(&p2, &SeedAssignment::all_random(9, i)))
        .collect();

    // Interleaved.
    let mut inter1 = Vec::new();
    let mut inter2 = Vec::new();
    for i in 0..3 {
        inter2.push(cs2.run_with_params(&p2, &SeedAssignment::all_random(9, i)));
        inter1.push(cs1.run_with_params(&p1, &SeedAssignment::all_random(9, i)));
    }
    assert_eq!(seq1, inter1);
    assert_eq!(seq2, inter2);
}

#[test]
fn seed_variation_isolates_sources() {
    // Varying one source's seed changes the outcome only through that
    // source: re-fixing it restores the original result exactly.
    let cs = CaseStudy::glue_rte_bert(Scale::Test);
    let params = cs.default_params().to_vec();
    let base = SeedAssignment::all_fixed(11);
    let reference = cs.run_with_params(&params, &base);
    let varied = base.with_varied(VarianceSource::WeightsInit, 999);
    let _ = cs.run_with_params(&params, &varied);
    let restored = cs.run_with_params(&params, &base);
    assert_eq!(reference, restored, "fixed seeds must replay bit-exactly");
}

#[test]
fn runner_map_seeds_thread_count_invariant() {
    // The executor contract: Runner::map_seeds with 1 thread vs N threads
    // yields bit-identical, seed-ordered outputs, because every unit draws
    // from its own seed branch and results are collected by index.
    let seeds: Vec<SeedAssignment> = (0..37).map(|i| SeedAssignment::all_random(3, i)).collect();
    let cs = CaseStudy::glue_rte_bert(Scale::Test);
    let params = cs.default_params().to_vec();
    let work = |_: usize, s: &SeedAssignment| cs.run_with_params(&params, s);

    let one_thread = Runner::new(1).map_seeds(&seeds, work);
    for threads in [2, 4, 8] {
        let n_threads = Runner::new(threads).map_seeds(&seeds, work);
        assert_eq!(
            one_thread, n_threads,
            "map_seeds output differs at {threads} threads"
        );
    }
}

#[test]
fn estimators_thread_count_invariant() {
    // The paper's estimators through the executor: 1 thread vs N threads
    // must produce bit-identical EstimatorRun contents.
    let cs = CaseStudy::glue_rte_bert(Scale::Test);
    let algo = HpoAlgorithm::RandomSearch;
    let serial = RunContext::serial();
    for threads in [4, 7] {
        let parallel = RunContext::new(Runner::new(threads), MeasureCache::disabled());
        assert_eq!(
            ideal_estimator(&cs, 6, algo, 3, 21, &serial),
            ideal_estimator(&cs, 6, algo, 3, 21, &parallel),
            "ideal estimator differs at {threads} threads"
        );
        assert_eq!(
            fix_hopt_estimator(&cs, 6, algo, 3, 21, 1, Randomize::All, &serial),
            fix_hopt_estimator(&cs, 6, algo, 3, 21, 1, Randomize::All, &parallel),
            "biased estimator differs at {threads} threads"
        );
        assert_eq!(
            source_variance_study(&cs, VarianceSource::DataSplit, 6, algo, 2, 5, &serial),
            source_variance_study(&cs, VarianceSource::DataSplit, 6, algo, 2, 5, &parallel),
            "source study differs at {threads} threads"
        );
    }
}

#[test]
fn simulation_grid_thread_count_invariant() {
    let task = SimulatedTask::new(0.02, 0.012, 0.016);
    let config = DetectionConfig {
        k: 20,
        n_simulations: 30,
        gamma: 0.75,
        delta: 0.04,
        alpha: 0.05,
        resamples: 50,
    };
    let ctx_n = |threads| RunContext::new(Runner::new(threads), MeasureCache::disabled());
    let one = detection_study_with(&task, &[0.5, 0.8], &config, 9, &ctx_n(1));
    for threads in [2, 4, 8] {
        let many = detection_study_with(&task, &[0.5, 0.8], &config, 9, &ctx_n(threads));
        assert_eq!(one, many, "detection study differs at {threads} threads");
    }
}

#[test]
fn numerical_noise_only_in_pascal_analog() {
    // Our substrate is bit-deterministic: the "numerical noise" source is
    // inert everywhere except the PascalVOC analog where the paper also
    // could not control it (we model it with seeded gradient noise).
    for cs in CaseStudy::all(Scale::Test) {
        let has_noise = cs
            .active_sources()
            .contains(&VarianceSource::NumericalNoise);
        assert_eq!(
            has_noise,
            cs.name() == "pascalvoc-resnet",
            "{}: unexpected numerical-noise activation",
            cs.name()
        );
    }
}

#[test]
fn artifact_output_cached_uncached_thread_count_invariant() {
    // The acceptance guarantee of the measurement cache, end to end on a
    // real artifact: cached == uncached == 1-thread == N-thread output.
    use varbench_bench::figures::fig5;

    let config = fig5::Config::test();

    // Uncached baseline: the default no-op cache never serves a row.
    let no_cache = RunContext::serial();
    let uncached = fig5::report_with(&config, &no_cache).render_text();
    assert_eq!(
        no_cache.cache().stats().rows_served,
        0,
        "baseline must be uncached"
    );

    // Cached: replaying against the warm cache computes nothing new.
    let warm = RunContext::serial_cached();
    let cached_cold = fig5::report_with(&config, &warm).render_text();
    let cold_stats = warm.cache().stats();
    let cached_warm = fig5::report_with(&config, &warm).render_text();
    let stats = warm.cache().stats();
    assert_eq!(
        stats.rows_computed, cold_stats.rows_computed,
        "replay must compute nothing new"
    );
    assert_eq!(cached_cold, uncached, "cached output differs from uncached");
    assert_eq!(cached_warm, uncached, "warm replay differs from uncached");

    // Thread-count invariance, cold and warm.
    let par = RunContext::new(Runner::new(4), MeasureCache::new());
    let par_cold = fig5::report_with(&config, &par).render_text();
    let par_warm = fig5::report_with(&config, &par).render_text();
    assert_eq!(par_cold, uncached, "N-thread cold differs from 1-thread");
    assert_eq!(par_warm, uncached, "N-thread warm differs from 1-thread");
}
