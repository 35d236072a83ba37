//! Hyperparameter optimization of a workload — `HOpt(S_tv; ξ_O, ξ_H)`
//! (paper Eq. 2) — and the complete pipeline `P(S_tv)` (Eq. 3), generic
//! over any [`Workload`].

use crate::cache::{FitMemo, FitScore, MeasureCache};
use crate::case_study::CaseStudy;
use crate::variance::{SeedAssignment, VarianceSource};
use crate::workload::Workload;
use varbench_hpo::{
    minimize, BayesOpt, BayesOptConfig, GridSearch, History, NoisyGridSearch, Optimizer,
    RandomSearch, SearchSpace,
};

/// The hyperparameter-optimization algorithms studied by the paper
/// (Section 2.2: random search, grid search, Bayesian optimization, plus
/// the noisy grid of Appendix E.2 that models grid-design arbitrariness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HpoAlgorithm {
    /// Independent sampling from the search space.
    RandomSearch,
    /// Deterministic grid (no ξ_H variance beyond visit order).
    GridSearch,
    /// Grid with ±Δ/2 perturbed bounds — the paper's variance model for
    /// grid design choices.
    NoisyGridSearch,
    /// Gaussian-process Bayesian optimization with Expected Improvement.
    BayesOpt,
}

impl HpoAlgorithm {
    /// The three stochastic algorithms whose ξ_H variance Fig. 1 reports.
    pub const STUDIED: [HpoAlgorithm; 3] = [
        HpoAlgorithm::NoisyGridSearch,
        HpoAlgorithm::RandomSearch,
        HpoAlgorithm::BayesOpt,
    ];

    /// Display name matching the paper's Fig. 1 rows.
    pub fn display_name(&self) -> &'static str {
        match self {
            HpoAlgorithm::RandomSearch => "Random Search",
            HpoAlgorithm::GridSearch => "Grid Search",
            HpoAlgorithm::NoisyGridSearch => "Noisy Grid Search",
            HpoAlgorithm::BayesOpt => "Bayes Opt",
        }
    }

    fn build(&self, space: &SearchSpace, budget: usize, seed: u64) -> Box<dyn Optimizer> {
        let space = space.clone();
        match self {
            HpoAlgorithm::RandomSearch => Box::new(RandomSearch::new(space, seed)),
            HpoAlgorithm::GridSearch => {
                let points = grid_points_per_dim(space.len(), budget);
                Box::new(GridSearch::new(space, points, seed))
            }
            HpoAlgorithm::NoisyGridSearch => {
                let points = grid_points_per_dim(space.len(), budget);
                Box::new(NoisyGridSearch::new(space, points, seed))
            }
            HpoAlgorithm::BayesOpt => {
                Box::new(BayesOpt::new(space, BayesOptConfig::default(), seed))
            }
        }
    }
}

impl std::fmt::Display for HpoAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// Points per grid dimension so the full grid roughly matches `budget`.
fn grid_points_per_dim(dims: usize, budget: usize) -> usize {
    let d = dims as f64;
    ((budget as f64).powf(1.0 / d).floor() as usize).max(2)
}

/// Result of running the complete pipeline `P(S_tv)` once.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineResult {
    /// The hyperparameters selected by HOpt.
    pub best_params: Vec<f64>,
    /// The full HPO trial history (for Fig. F.2 curves).
    pub history: History,
    /// Test metric of the final model retrained on train+valid.
    pub test_metric: f64,
    /// Number of model fits consumed (HPO trials + final retrain) — the
    /// cost accounting behind the paper's 51× claim.
    pub fits: usize,
}

/// Runs `HOpt(S_tv; ξ_O, ξ_H)` (paper Eq. 2) on any workload: optimizes
/// the validation objective `1 − metric` via [`Workload::run_valid`],
/// holding all ξ_O seeds fixed, with the ξ_H stream driving the
/// optimizer. Returns the best parameters and the trial history.
///
/// Each trial's fit goes through `cache`'s fit memo, so a trial input
/// the cache has trained before (another procedure's identical trial)
/// is not trained again; the history is bit-identical either way. A
/// disabled cache trains every trial.
///
/// # Panics
///
/// Panics if `budget == 0`.
pub fn hopt(
    workload: &dyn Workload,
    seeds: &SeedAssignment,
    algo: HpoAlgorithm,
    budget: usize,
    cache: &MeasureCache,
) -> (Vec<f64>, History) {
    tune(workload, &cache.fit_memo(workload), seeds, algo, budget)
}

/// [`hopt`] over a fit memo already bound to `workload`.
fn tune(
    workload: &dyn Workload,
    fits: &FitMemo<'_>,
    seeds: &SeedAssignment,
    algo: HpoAlgorithm,
    budget: usize,
) -> (Vec<f64>, History) {
    assert!(budget > 0, "HPO budget must be > 0");
    let mut optimizer = algo.build(
        workload.search_space(),
        budget,
        seeds.seed_of(VarianceSource::HyperOpt),
    );
    let history = minimize(optimizer.as_mut(), budget, |params| {
        1.0 - fits.score(FitScore::Valid, params, seeds, || {
            workload.run_valid(params, seeds)
        })
    });
    let best = history.best().expect("non-empty history").params.clone();
    (best, history)
}

/// Runs the complete pipeline `P(S_tv)` (paper Eq. 3 / Algorithm 1 body)
/// on any workload: HOpt, retrain on train+valid with the selected λ̂*,
/// measure on the held-out test set.
///
/// The trials and the final retrain go through `cache`'s fit memo (see
/// [`hopt`]). [`PipelineResult::fits`] is the paper's cost model,
/// `budget + 1`, whichever fits the memo answered.
///
/// # Panics
///
/// Panics if `budget == 0`.
pub fn run_pipeline(
    workload: &dyn Workload,
    seeds: &SeedAssignment,
    algo: HpoAlgorithm,
    budget: usize,
    cache: &MeasureCache,
) -> PipelineResult {
    let fits = cache.fit_memo(workload);
    let (best_params, history) = tune(workload, &fits, seeds, algo, budget);
    let test_metric = fits.score(FitScore::Test, &best_params, seeds, || {
        workload.run_with_params(&best_params, seeds)
    });
    PipelineResult {
        best_params,
        history,
        test_metric,
        fits: budget + 1,
    }
}

impl CaseStudy {
    /// [`hopt`] on this case study (convenience inherent form), with no
    /// fit memo: every trial trains.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn hopt(
        &self,
        seeds: &SeedAssignment,
        algo: HpoAlgorithm,
        budget: usize,
    ) -> (Vec<f64>, History) {
        hopt(self, seeds, algo, budget, &MeasureCache::disabled())
    }

    /// [`run_pipeline`] on this case study (convenience inherent form),
    /// with no fit memo: every fit trains.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn run_pipeline(
        &self,
        seeds: &SeedAssignment,
        algo: HpoAlgorithm,
        budget: usize,
    ) -> PipelineResult {
        run_pipeline(self, seeds, algo, budget, &MeasureCache::disabled())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::Scale;

    #[test]
    fn hopt_improves_over_worst_trial() {
        let cs = CaseStudy::mhc_mlp(Scale::Test);
        let seeds = SeedAssignment::all_fixed(1);
        let (best, history) = cs.hopt(&seeds, HpoAlgorithm::RandomSearch, 6);
        assert_eq!(best.len(), cs.search_space().len());
        let objectives: Vec<f64> = history.trials().iter().map(|t| t.objective).collect();
        let best_obj = history.best().unwrap().objective;
        assert!(objectives.iter().all(|&o| o >= best_obj));
    }

    #[test]
    fn pipeline_produces_sensible_metric() {
        let cs = CaseStudy::glue_sst2_bert(Scale::Test);
        let seeds = SeedAssignment::all_fixed(2);
        let result = cs.run_pipeline(&seeds, HpoAlgorithm::RandomSearch, 4);
        assert!(result.test_metric > 0.5 && result.test_metric <= 1.0);
        assert_eq!(result.fits, 5);
        assert_eq!(result.history.len(), 4);
    }

    #[test]
    fn hyperopt_seed_changes_selected_params() {
        let cs = CaseStudy::mhc_mlp(Scale::Test);
        let a_seeds = SeedAssignment::all_fixed(3);
        let b_seeds = a_seeds.with_varied(VarianceSource::HyperOpt, 99);
        let (a, _) = cs.hopt(&a_seeds, HpoAlgorithm::RandomSearch, 5);
        let (b, _) = cs.hopt(&b_seeds, HpoAlgorithm::RandomSearch, 5);
        assert_ne!(a, b, "different ξ_H must explore differently");
    }

    #[test]
    fn hopt_is_deterministic() {
        let cs = CaseStudy::mhc_mlp(Scale::Test);
        let seeds = SeedAssignment::all_fixed(4);
        let (a, ha) = cs.hopt(&seeds, HpoAlgorithm::NoisyGridSearch, 4);
        let (b, hb) = cs.hopt(&seeds, HpoAlgorithm::NoisyGridSearch, 4);
        assert_eq!(a, b);
        assert_eq!(ha, hb);
    }

    #[test]
    fn run_pipeline_matches_hand_inlined_sequence() {
        // The generic pipeline must equal hopt + a retrain-on-train+valid
        // measurement, spelled out by hand (guards the delegation chain
        // against drift).
        let cs = CaseStudy::mhc_mlp(Scale::Test);
        let seeds = SeedAssignment::all_fixed(6);
        let cache = MeasureCache::disabled();
        let result = run_pipeline(&cs, &seeds, HpoAlgorithm::RandomSearch, 3, &cache);
        let (best, history) = hopt(&cs, &seeds, HpoAlgorithm::RandomSearch, 3, &cache);
        assert_eq!(result.best_params, best);
        assert_eq!(result.history, history);
        assert_eq!(result.test_metric, cs.run_with_params(&best, &seeds));
        assert_eq!(result.fits, 4);
    }

    #[test]
    fn all_algorithms_run() {
        let cs = CaseStudy::glue_rte_bert(Scale::Test);
        let seeds = SeedAssignment::all_fixed(5);
        for algo in [
            HpoAlgorithm::RandomSearch,
            HpoAlgorithm::GridSearch,
            HpoAlgorithm::NoisyGridSearch,
            HpoAlgorithm::BayesOpt,
        ] {
            let (best, history) = cs.hopt(&seeds, algo, 6);
            assert_eq!(history.len(), 6, "{algo}");
            assert_eq!(best.len(), 3, "{algo}");
        }
    }

    #[test]
    fn grid_points_scale_with_budget_and_dims() {
        assert_eq!(grid_points_per_dim(4, 16), 2);
        assert_eq!(grid_points_per_dim(4, 81), 3);
        assert_eq!(grid_points_per_dim(2, 25), 5);
    }

    #[test]
    fn display_names() {
        assert_eq!(HpoAlgorithm::BayesOpt.to_string(), "Bayes Opt");
        assert_eq!(HpoAlgorithm::STUDIED.len(), 3);
    }
}
