//! **Fig. F.2** — hyperparameter-optimization curves: best-so-far
//! validation objective (and final test performance) for Bayesian
//! optimization, noisy grid search, and random search, across independent
//! ξ_H seeds.
//!
//! The paper's two observations: (1) typical search spaces are well
//! optimized by all three algorithms; (2) the across-seed standard
//! deviation stabilizes early, so larger HPO budgets would not shrink ξ_H
//! variance.

use crate::args::Effort;
use crate::registry::RunContext;
use varbench_core::report::{num, Report, Table};
use varbench_pipeline::{run_pipeline, CaseStudy, HpoAlgorithm, SeedAssignment, VarianceSource};
use varbench_stats::describe::{mean, std_dev};

/// Configuration of the Fig. F.2 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Case-study effort preset.
    pub effort: Effort,
    /// Independent HPO executions per algorithm (paper: 20).
    pub reps: usize,
    /// Trials per execution (paper: 200).
    pub budget: usize,
}

impl Config {
    /// Smoke-test preset.
    pub fn test() -> Self {
        Self {
            effort: Effort::Test,
            reps: 2,
            budget: 5,
        }
    }

    /// Default preset.
    pub fn quick() -> Self {
        Self {
            effort: Effort::Quick,
            reps: 6,
            budget: 25,
        }
    }

    /// Paper-faithful preset.
    pub fn full() -> Self {
        Self {
            effort: Effort::Full,
            reps: 20,
            budget: 200,
        }
    }

    /// Preset for an effort level.
    pub fn for_effort(effort: Effort) -> Self {
        match effort {
            Effort::Test => Self::test(),
            Effort::Quick => Self::quick(),
            Effort::Full => Self::full(),
        }
    }
}

/// Mean ± std of the best-so-far curves of one algorithm on one task.
#[derive(Debug, Clone, PartialEq)]
pub struct CurveSummary {
    /// The HPO algorithm.
    pub algo: HpoAlgorithm,
    /// `(trial index, mean best-so-far objective, std)` at checkpoints.
    pub checkpoints: Vec<(usize, f64, f64)>,
    /// Mean and std of the final test metric across repetitions.
    pub test: (f64, f64),
}

/// Runs the study for one case study. Its fits go through the context
/// cache's fit memo: each Bayes Opt run at a budget within its initial
/// design repeats the Random Search run on the same ξ_H seed.
pub fn study_case(
    cs: &CaseStudy,
    config: &Config,
    seed: u64,
    ctx: &RunContext,
) -> Vec<CurveSummary> {
    let marks: Vec<usize> = [1usize, 2, 5, 10, 25, 50, 100, 200]
        .iter()
        .copied()
        .filter(|&m| m <= config.budget)
        .collect();
    HpoAlgorithm::STUDIED
        .iter()
        .map(|&algo| {
            let mut curves: Vec<Vec<f64>> = Vec::new();
            let mut tests = Vec::new();
            for r in 0..config.reps {
                let seeds = SeedAssignment::all_fixed(seed)
                    .with_varied(VarianceSource::HyperOpt, r as u64 + 1);
                let result = run_pipeline(cs, &seeds, algo, config.budget, ctx.cache());
                curves.push(result.history.best_so_far());
                tests.push(result.test_metric);
            }
            let checkpoints = marks
                .iter()
                .map(|&m| {
                    let at: Vec<f64> = curves.iter().map(|c| c[m - 1]).collect();
                    let sd = if at.len() >= 2 { std_dev(&at) } else { 0.0 };
                    (m, mean(&at), sd)
                })
                .collect();
            let test_sd = if tests.len() >= 2 {
                std_dev(&tests)
            } else {
                0.0
            };
            CurveSummary {
                algo,
                checkpoints,
                test: (mean(&tests), test_sd),
            }
        })
        .collect()
}

/// Builds the full Fig. F.2 report.
///
/// The optimization *curves* need whole `History` objects, not score
/// matrices, so this artifact caches no matrix or record; it uses only
/// the cache's fit memo.
pub fn report_with(config: &Config, ctx: &RunContext) -> Report {
    let mut r = Report::new("figf2", "Figure F.2");
    r.text("Figure F.2: HPO best-so-far validation objective (mean +/- std)\n");
    r.text(format!(
        "({} seeds, budget {})\n\n",
        config.reps, config.budget
    ));
    for cs in CaseStudy::all(config.effort.scale()) {
        r.text(format!("== {} ==\n", cs.name()));
        let summaries = study_case(&cs, config, 0xF16F, ctx);
        let marks: Vec<usize> = summaries[0]
            .checkpoints
            .iter()
            .map(|(m, _, _)| *m)
            .collect();
        let mut t = Table::new(
            std::iter::once("algorithm".to_string())
                .chain(marks.iter().map(|m| format!("t={m}")))
                .chain(["test metric".to_string()])
                .collect(),
        );
        for s in &summaries {
            let mut row = vec![s.algo.display_name().to_string()];
            for (_, m, sd) in &s.checkpoints {
                row.push(format!("{}+/-{}", num(*m, 4), num(*sd, 4)));
            }
            row.push(format!("{}+/-{}", num(s.test.0, 4), num(s.test.1, 4)));
            t.add_row(row);
        }
        r.table(t);
        r.text("\n");
    }
    r.text(
        "Expected shape (paper): all algorithms converge on these spaces; the\n\
         across-seed std stabilizes well before the full budget.\n",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbench_pipeline::Scale;

    #[test]
    fn curves_are_monotone_nonincreasing() {
        let cs = CaseStudy::mhc_mlp(Scale::Test);
        let summaries = study_case(&cs, &Config::test(), 1, &RunContext::serial());
        assert_eq!(summaries.len(), 3);
        for s in &summaries {
            let means: Vec<f64> = s.checkpoints.iter().map(|(_, m, _)| *m).collect();
            for w in means.windows(2) {
                assert!(w[1] <= w[0] + 1e-12, "{:?} not monotone: {means:?}", s.algo);
            }
            assert!(s.test.0 > 0.0 && s.test.0 <= 1.0);
        }
    }

    #[test]
    fn report_lists_algorithms() {
        let r = report_with(&Config::test(), &RunContext::serial()).render_text();
        assert!(r.contains("Random Search"));
        assert!(r.contains("Noisy Grid Search"));
        assert!(r.contains("Bayes Opt"));
    }
}
