//! Estimators of expected pipeline performance: the paper's Algorithms 1
//! and 2, and the per-source variance study of Fig. 1 — generic over any
//! [`Workload`].
//!
//! Every estimator is a single function taking a [`RunContext`]: the
//! context's runner fans the independent seed branches across cores and
//! its cache memoizes the resulting score matrices. With the default
//! serial context ([`RunContext::serial`]) each function computes exactly
//! what the old plain serial path computed; scheduling and caching are
//! bit-invisible.

use crate::ctx::RunContext;
use varbench_pipeline::{
    hopt, run_pipeline, HpoAlgorithm, MeasureKey, MeasureKind, SeedAssignment, VarianceSource,
    Workload,
};

/// Which subset of ξ_O a [`fix_hopt_estimator`] run randomizes between
/// samples (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Randomize {
    /// Only the weight initialization — "the predominant approach used in
    /// the literature today".
    Init,
    /// Only the data split (bootstrap).
    Data,
    /// Every ξ_O source (split, order, augmentation, init, dropout,
    /// numerical noise) — everything except HOpt.
    All,
}

impl Randomize {
    /// The sources this subset varies.
    pub fn sources(&self) -> &'static [VarianceSource] {
        match self {
            Randomize::Init => &[VarianceSource::WeightsInit],
            Randomize::Data => &[VarianceSource::DataSplit],
            Randomize::All => &VarianceSource::XI_O,
        }
    }

    /// Display name matching the paper's Fig. 5 legend.
    pub fn display_name(&self) -> &'static str {
        match self {
            Randomize::Init => "FixHOptEst(k, Init)",
            Randomize::Data => "FixHOptEst(k, Data)",
            Randomize::All => "FixHOptEst(k, All)",
        }
    }
}

/// The output of one estimator run: `k` performance measures and the
/// training cost it took to produce them.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorRun {
    /// The k performance measures `R̂_e` (metric scale, higher better).
    pub measures: Vec<f64>,
    /// Total number of model fits consumed — `O(kT)` for the ideal
    /// estimator, `O(k+T)` for the biased one (the paper's 51× cost gap).
    pub fits: usize,
}

impl EstimatorRun {
    /// Mean of the measures — µ̂(k) or µ̃(k).
    ///
    /// # Panics
    ///
    /// Panics if the run is empty.
    pub fn mean(&self) -> f64 {
        varbench_stats::describe::mean(&self.measures)
    }

    /// Sample standard deviation of the measures.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 measures.
    pub fn std(&self) -> f64 {
        varbench_stats::describe::std_dev(&self.measures)
    }
}

/// Algorithm 1, `IdealEst`: every sample randomizes *all* sources (ξ_O and
/// ξ_H) and pays for an independent hyperparameter optimization.
///
/// Cost: `k × (budget + 1)` fits. The `k` samples are independent seed
/// branches (`SeedAssignment::all_random(base_seed, i)`), fanned out on
/// the context's runner; the cached matrix holds two columns per sample —
/// `(test metric, fits)` — so both the measures and the cost accounting
/// replay exactly.
///
/// # Panics
///
/// Panics if `k == 0` or `budget == 0`.
pub fn ideal_estimator(
    w: &dyn Workload,
    k: usize,
    algo: HpoAlgorithm,
    budget: usize,
    base_seed: u64,
    ctx: &RunContext,
) -> EstimatorRun {
    assert!(k > 0, "k must be > 0");
    let key = MeasureKey::new(
        w,
        MeasureKind::IdealEstimator {
            algo: algo.display_name(),
            budget,
        },
        base_seed,
    );
    let flat = ctx.cache().matrix(&key, k, 2, |range| {
        let seeds: Vec<SeedAssignment> = range
            .map(|i| SeedAssignment::all_random(base_seed, i as u64))
            .collect();
        let results = ctx.runner().map_seeds(&seeds, |_, s| {
            let result = run_pipeline(w, s, algo, budget, ctx.cache());
            (result.test_metric, result.fits)
        });
        results
            .into_iter()
            .flat_map(|(m, f)| [m, f as f64])
            .collect()
    });
    let measures = flat.iter().step_by(2).copied().collect();
    let fits = flat.iter().skip(1).step_by(2).map(|&f| f as usize).sum();
    EstimatorRun { measures, fits }
}

/// Algorithm 2, `FixHOptEst`: run hyperparameter optimization *once*, then
/// reuse λ̂* while randomizing the chosen ξ_O subset for each of the `k`
/// measures.
///
/// Cost: `budget + k` fits. Biased for `k > 1` (Eq. 8), but the paper shows
/// `FixHOptEst(k, All)` approaches the ideal estimator at a fraction of the
/// cost.
///
/// `repetition` selects the arbitrary fixed ξ (the paper runs 20
/// repetitions to measure `Var(µ̃(k) | ξ)`).
///
/// Two cache entries cooperate: the single HPO procedure is a *record*
/// addressed by the exact seed assignment it tunes under (see
/// [`hopt_record`]), and the `k` conditioned measures are a
/// prefix-extendable matrix keyed by `(algo, budget, repetition,
/// randomized subset)`.
///
/// # Panics
///
/// Panics if `k == 0` or `budget == 0`.
#[allow(clippy::too_many_arguments)]
pub fn fix_hopt_estimator(
    w: &dyn Workload,
    k: usize,
    algo: HpoAlgorithm,
    budget: usize,
    base_seed: u64,
    repetition: u64,
    randomize: Randomize,
    ctx: &RunContext,
) -> EstimatorRun {
    assert!(k > 0, "k must be > 0");
    let fixed = SeedAssignment::all_random(base_seed ^ 0xF1F0, repetition);
    let (best_params, hopt_fits) = hopt_record(w, &fixed, algo, budget, ctx);
    let key = MeasureKey::new(
        w,
        MeasureKind::FixHOptMeasures {
            algo: algo.display_name(),
            budget,
            repetition,
            randomize: randomize.display_name(),
        },
        base_seed,
    );
    let measures = ctx.cache().matrix(&key, k, 1, |range| {
        let seeds: Vec<SeedAssignment> = range
            .map(|i| {
                let variation = splitmix_like(base_seed, repetition, i as u64);
                fixed.with_varied_set(randomize.sources(), variation)
            })
            .collect();
        ctx.runner()
            .map_seeds(&seeds, |_, s| w.run_with_params(&best_params, s))
    });
    EstimatorRun {
        measures,
        fits: hopt_fits + k,
    }
}

/// One hyperparameter-optimization outcome through the context's cache:
/// returns `(best parameters, fits consumed)`, content-addressed by the
/// full seed assignment so any artifact tuning under the same seeds —
/// a biased-estimator repetition, the Table 8 tuned model — shares it.
///
/// # Panics
///
/// Panics if `budget == 0`.
pub fn hopt_record(
    w: &dyn Workload,
    fixed: &SeedAssignment,
    algo: HpoAlgorithm,
    budget: usize,
    ctx: &RunContext,
) -> (Vec<f64>, usize) {
    // Array map keeps the length tied to VarianceSource::ALL: adding an
    // 8th source fails to compile here instead of silently truncating
    // the key (which would alias distinct seed assignments).
    let seeds: [u64; 7] = VarianceSource::ALL.map(|source| fixed.seed_of(source));
    let key = MeasureKey::new(
        w,
        MeasureKind::HoptResult {
            algo: algo.display_name(),
            budget,
            seeds,
        },
        0,
    );
    ctx.cache().record(&key, || {
        let (best, history) = hopt(w, fixed, algo, budget, ctx.cache());
        (best, history.len())
    })
}

/// Derives a per-(repetition, sample) variation value.
fn splitmix_like(base: u64, rep: u64, i: u64) -> u64 {
    let mut z = base
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rep.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Measures the variance contributed by a single source (the Fig. 1
/// protocol): all other seeds held fixed, `n` trainings with `source`
/// re-seeded each time.
///
/// For ξ_O sources each training reuses the workload's default
/// hyperparameters; for [`VarianceSource::HyperOpt`] each sample runs an
/// independent HPO procedure with `algo`/`budget` and measures the test
/// performance of the tuned pipeline.
///
/// Cache key: `(workload, source, base_seed)` for ξ_O sources — the HPO
/// algorithm and budget cannot affect default-hyperparameter trainings
/// and are excluded so e.g. Fig. 1 and Fig. 2 share entries — plus
/// `(algo, budget)` for [`VarianceSource::HyperOpt`] studies.
///
/// # Panics
///
/// Panics if `n == 0`, or `budget == 0` when `source` is `HyperOpt`.
pub fn source_variance_study(
    w: &dyn Workload,
    source: VarianceSource,
    n: usize,
    algo: HpoAlgorithm,
    budget: usize,
    base_seed: u64,
    ctx: &RunContext,
) -> Vec<f64> {
    assert!(n > 0, "n must be > 0");
    let kind = if source.is_hyperopt() {
        MeasureKind::HyperOptStudy {
            algo: algo.display_name(),
            budget,
        }
    } else {
        MeasureKind::SourceStudy { source }
    };
    let key = MeasureKey::new(w, kind, base_seed);
    let fixed = SeedAssignment::all_fixed(base_seed);
    let params = w.default_params().to_vec();
    ctx.cache().matrix(&key, n, 1, |range| {
        let seeds: Vec<SeedAssignment> = range
            .map(|i| fixed.with_varied(source, splitmix_like(base_seed, 0xA11, i as u64)))
            .collect();
        ctx.runner().map_seeds(&seeds, |_, s| {
            if source.is_hyperopt() {
                run_pipeline(w, s, algo, budget, ctx.cache()).test_metric
            } else {
                w.run_with_params(&params, s)
            }
        })
    })
}

/// Measures the variance when a *set* of sources is randomized jointly
/// (all other seeds fixed), with default hyperparameters.
///
/// The paper cautions that "these different contributions to the variance
/// are not independent, the total variance cannot be obtained by simply
/// adding them up"; comparing [`source_variance_study`] sums against this
/// joint measurement quantifies the interaction (see the `interactions`
/// artifact).
///
/// The cache key's source set is normalized to the workload's active
/// sources, so studies over `ξ_O` and over the active subset share one
/// entry (their measures are bit-identical — inactive seeds never
/// matter).
///
/// # Panics
///
/// Panics if `n == 0`, `sources` is empty, or `sources` contains
/// [`VarianceSource::HyperOpt`].
pub fn joint_variance_study(
    w: &dyn Workload,
    sources: &[VarianceSource],
    n: usize,
    base_seed: u64,
    ctx: &RunContext,
) -> Vec<f64> {
    assert!(n > 0, "n must be > 0");
    assert!(!sources.is_empty(), "need at least one source");
    assert!(
        sources.iter().all(|s| !s.is_hyperopt()),
        "joint study covers xi_O sources; HyperOpt requires budget accounting"
    );
    let key = MeasureKey::new(
        w,
        MeasureKind::JointStudy {
            sources: sources.to_vec(),
        },
        base_seed,
    );
    let fixed = SeedAssignment::all_fixed(base_seed);
    let params = w.default_params().to_vec();
    let sources = sources.to_vec();
    ctx.cache().matrix(&key, n, 1, |range| {
        let seeds: Vec<SeedAssignment> = range
            .map(|i| fixed.with_varied_set(&sources, splitmix_like(base_seed, 0x70F, i as u64)))
            .collect();
        ctx.runner()
            .map_seeds(&seeds, |_, s| w.run_with_params(&params, s))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Runner;
    use varbench_pipeline::{CaseStudy, MeasureCache, Scale};
    use varbench_stats::describe::std_dev;

    fn cs() -> CaseStudy {
        CaseStudy::glue_rte_bert(Scale::Test)
    }

    fn ctx() -> RunContext {
        RunContext::serial()
    }

    #[test]
    fn ideal_estimator_cost_accounting() {
        let run = ideal_estimator(&cs(), 3, HpoAlgorithm::RandomSearch, 4, 1, &ctx());
        assert_eq!(run.measures.len(), 3);
        assert_eq!(run.fits, 3 * 5, "k(T+1) fits");
        assert!(run.measures.iter().all(|&m| m > 0.0 && m <= 1.0));
    }

    #[test]
    fn biased_estimator_cost_accounting() {
        let run = fix_hopt_estimator(
            &cs(),
            6,
            HpoAlgorithm::RandomSearch,
            4,
            1,
            0,
            Randomize::All,
            &ctx(),
        );
        assert_eq!(run.measures.len(), 6);
        assert_eq!(run.fits, 4 + 6, "T+k fits");
    }

    #[test]
    fn cost_ratio_matches_paper_claim_shape() {
        // With k = 100, T = 200 the paper reports 1070 h vs 21 h ≈ 51×.
        // Our accounting: ideal = k(T+1), biased = T+k → 20100/300 = 67x
        // in fit counts (the paper's 51× also amortizes evaluation time).
        let k = 100;
        let t = 200;
        let ideal = k * (t + 1);
        let biased = t + k;
        let ratio = ideal as f64 / biased as f64;
        assert!(ratio > 50.0, "cost ratio {ratio}");
    }

    #[test]
    fn ideal_measures_fluctuate() {
        let run = ideal_estimator(&cs(), 4, HpoAlgorithm::RandomSearch, 3, 2, &ctx());
        assert!(std_dev(&run.measures) > 0.0, "ideal estimator must vary");
    }

    #[test]
    fn fix_hopt_variants_randomize_expected_sources() {
        // Init-only randomization keeps the split fixed → all measures
        // share the same test set; Data randomization changes it.
        let run_init = fix_hopt_estimator(
            &cs(),
            4,
            HpoAlgorithm::RandomSearch,
            3,
            3,
            0,
            Randomize::Init,
            &ctx(),
        );
        let run_data = fix_hopt_estimator(
            &cs(),
            4,
            HpoAlgorithm::RandomSearch,
            3,
            3,
            0,
            Randomize::Data,
            &ctx(),
        );
        // Both yield valid measures; Data variant should fluctuate at least
        // as much (bootstrap is the dominant source, paper Fig. 1).
        let s_init = std_dev(&run_init.measures);
        let s_data = std_dev(&run_data.measures);
        assert!(s_init >= 0.0 && s_data >= 0.0);
        assert!(run_init.measures.len() == 4 && run_data.measures.len() == 4);
    }

    #[test]
    fn estimators_deterministic_given_seed() {
        let a = fix_hopt_estimator(
            &cs(),
            3,
            HpoAlgorithm::RandomSearch,
            3,
            7,
            1,
            Randomize::All,
            &ctx(),
        );
        let b = fix_hopt_estimator(
            &cs(),
            3,
            HpoAlgorithm::RandomSearch,
            3,
            7,
            1,
            Randomize::All,
            &ctx(),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn repetitions_differ() {
        let a = fix_hopt_estimator(
            &cs(),
            3,
            HpoAlgorithm::RandomSearch,
            3,
            7,
            0,
            Randomize::All,
            &ctx(),
        );
        let b = fix_hopt_estimator(
            &cs(),
            3,
            HpoAlgorithm::RandomSearch,
            3,
            7,
            1,
            Randomize::All,
            &ctx(),
        );
        assert_ne!(a.measures, b.measures);
    }

    #[test]
    fn source_study_inactive_source_zero_variance() {
        // RTE has no augmentation: varying it must produce zero variance.
        let measures = source_variance_study(
            &cs(),
            VarianceSource::DataAugment,
            4,
            HpoAlgorithm::RandomSearch,
            2,
            5,
            &ctx(),
        );
        assert_eq!(std_dev(&measures), 0.0);
    }

    #[test]
    fn source_study_active_source_nonzero_variance() {
        let measures = source_variance_study(
            &cs(),
            VarianceSource::DataSplit,
            5,
            HpoAlgorithm::RandomSearch,
            2,
            5,
            &ctx(),
        );
        assert!(std_dev(&measures) > 0.0);
    }

    #[test]
    fn source_study_hyperopt_runs_hpo() {
        let measures = source_variance_study(
            &cs(),
            VarianceSource::HyperOpt,
            3,
            HpoAlgorithm::RandomSearch,
            3,
            6,
            &ctx(),
        );
        assert_eq!(measures.len(), 3);
        assert!(measures.iter().all(|&m| m > 0.0 && m <= 1.0));
    }

    #[test]
    fn joint_study_produces_valid_measures() {
        let measures = joint_variance_study(
            &cs(),
            &[VarianceSource::WeightsInit, VarianceSource::DataOrder],
            5,
            9,
            &ctx(),
        );
        assert_eq!(measures.len(), 5);
        assert!(measures.iter().all(|&m| (0.0..=1.0).contains(&m)));
        assert!(std_dev(&measures) > 0.0);
    }

    #[test]
    #[should_panic(expected = "joint study covers xi_O sources")]
    fn joint_study_rejects_hyperopt() {
        joint_variance_study(&cs(), &[VarianceSource::HyperOpt], 2, 1, &ctx());
    }

    #[test]
    fn parallel_estimators_bit_identical_to_serial() {
        let cs = cs();
        let serial = ctx();
        let parallel = RunContext::new(Runner::new(4), MeasureCache::disabled());
        assert_eq!(
            ideal_estimator(&cs, 4, HpoAlgorithm::RandomSearch, 3, 11, &serial),
            ideal_estimator(&cs, 4, HpoAlgorithm::RandomSearch, 3, 11, &parallel),
        );
        assert_eq!(
            fix_hopt_estimator(
                &cs,
                5,
                HpoAlgorithm::RandomSearch,
                3,
                11,
                2,
                Randomize::All,
                &serial
            ),
            fix_hopt_estimator(
                &cs,
                5,
                HpoAlgorithm::RandomSearch,
                3,
                11,
                2,
                Randomize::All,
                &parallel
            ),
        );
        assert_eq!(
            source_variance_study(
                &cs,
                VarianceSource::DataSplit,
                6,
                HpoAlgorithm::RandomSearch,
                2,
                5,
                &serial
            ),
            source_variance_study(
                &cs,
                VarianceSource::DataSplit,
                6,
                HpoAlgorithm::RandomSearch,
                2,
                5,
                &parallel
            ),
        );
    }

    #[test]
    fn cached_context_bit_identical_to_uncached() {
        let cs = cs();
        let uncached = ctx();
        let cached = RunContext::serial_cached();
        let algo = HpoAlgorithm::RandomSearch;

        let a = source_variance_study(&cs, VarianceSource::DataSplit, 5, algo, 2, 3, &uncached);
        let b = source_variance_study(&cs, VarianceSource::DataSplit, 5, algo, 2, 3, &cached);
        assert_eq!(a, b);

        let a = joint_variance_study(&cs, &VarianceSource::XI_O, 4, 3, &uncached);
        let b = joint_variance_study(&cs, &VarianceSource::XI_O, 4, 3, &cached);
        assert_eq!(a, b);

        let a = ideal_estimator(&cs, 3, algo, 3, 5, &uncached);
        let b = ideal_estimator(&cs, 3, algo, 3, 5, &cached);
        assert_eq!(a, b, "measures and fits must replay exactly");

        let a = fix_hopt_estimator(&cs, 4, algo, 3, 5, 1, Randomize::All, &uncached);
        let b = fix_hopt_estimator(&cs, 4, algo, 3, 5, 1, Randomize::All, &cached);
        assert_eq!(a, b);
    }

    #[test]
    fn cached_prefix_extension_matches_direct_computation() {
        // Ask for 3, then 6: the second call computes only rows 3..6 but
        // must return exactly what a direct 6-measure study returns.
        let cs = cs();
        let cached = RunContext::serial_cached();
        let algo = HpoAlgorithm::RandomSearch;
        let short = source_variance_study(&cs, VarianceSource::WeightsInit, 3, algo, 1, 7, &cached);
        let long = source_variance_study(&cs, VarianceSource::WeightsInit, 6, algo, 1, 7, &cached);
        assert_eq!(short, long[..3].to_vec());
        let direct = source_variance_study(&cs, VarianceSource::WeightsInit, 6, algo, 1, 7, &ctx());
        assert_eq!(long, direct);
        let stats = cached.cache().stats();
        assert_eq!(stats.rows_computed, 6, "no row computed twice");
        assert_eq!(stats.extensions, 1);
    }

    #[test]
    fn hopt_record_shared_across_callers() {
        let cs = cs();
        let cached = RunContext::serial_cached();
        // A biased-estimator run tunes under repetition 0's fixed seeds...
        let _ = fix_hopt_estimator(
            &cs,
            3,
            HpoAlgorithm::RandomSearch,
            3,
            9,
            0,
            Randomize::All,
            &cached,
        );
        let fits_after_first = cached.cache().stats().record_fits_computed;
        assert_eq!(fits_after_first, 3, "one HPO procedure of 3 trials");
        // ...and a direct hopt_record under the same seeds is free.
        let fixed = SeedAssignment::all_random(9 ^ 0xF1F0, 0);
        let (best, fits) = hopt_record(&cs, &fixed, HpoAlgorithm::RandomSearch, 3, &cached);
        assert_eq!(fits, 3);
        assert_eq!(best.len(), cs.search_space().len());
        assert_eq!(
            cached.cache().stats().record_fits_computed,
            fits_after_first
        );
        assert_eq!(cached.cache().stats().records_served, 1);
    }

    #[test]
    fn estimators_accept_non_mlp_workloads() {
        // The point of the trait: the same estimator stack runs a
        // closed-form workload end to end.
        let w = varbench_pipeline::SyntheticWorkload::new(Scale::Test);
        let run = ideal_estimator(&w, 3, HpoAlgorithm::RandomSearch, 2, 4, &ctx());
        assert_eq!(run.measures.len(), 3);
        assert!(run.measures.iter().all(|&m| m > 0.0 && m <= 1.0));
        let study = source_variance_study(
            &w,
            VarianceSource::DataSplit,
            5,
            HpoAlgorithm::RandomSearch,
            1,
            4,
            &ctx(),
        );
        assert!(std_dev(&study) > 0.0, "split variance must be live");
        let inert = source_variance_study(
            &w,
            VarianceSource::WeightsInit,
            4,
            HpoAlgorithm::RandomSearch,
            1,
            4,
            &ctx(),
        );
        assert_eq!(std_dev(&inert), 0.0, "closed-form fit has no init noise");
    }

    #[test]
    fn randomize_sources_mapping() {
        assert_eq!(Randomize::Init.sources(), &[VarianceSource::WeightsInit]);
        assert_eq!(Randomize::All.sources().len(), 6);
        assert_eq!(Randomize::Data.display_name(), "FixHOptEst(k, Data)");
    }
}
