//! The complete recommended testing procedure of the paper's Appendix C,
//! as a single high-level API.
//!
//! [`ComparisonProcedure`] walks a user through the whole workflow:
//!
//! 1. **plan** the sample size with Noether's formula (C.3);
//! 2. **randomize** every variance source and **pair** the runs (C.1–C.2);
//! 3. **estimate** `P(A > B)` (C.4) with a percentile-bootstrap CI (C.5);
//! 4. **decide** with the three-zone criterion (C.6).

use crate::compare::{compare_paired, Decision, ProbOutperformTest};
use crate::ctx::RunContext;
use crate::sample_size::{
    noether_sample_size, RECOMMENDED_ALPHA, RECOMMENDED_BETA, RECOMMENDED_GAMMA,
};
use varbench_pipeline::{SeedAssignment, Workload};
use varbench_rng::Rng;
use varbench_stats::describe::Summary;

/// Builder for a paired, variance-accounting comparison of two
/// hyperparameter configurations of any [`Workload`].
///
/// # Example
///
/// ```
/// use varbench_core::procedure::ComparisonProcedure;
/// use varbench_pipeline::{CaseStudy, Scale};
///
/// let cs = CaseStudy::mhc_mlp(Scale::Test);
/// let a = vec![24.0, 1e-3];
/// let b = vec![4.0, 0.5]; // small net, crushing L2
/// let report = ComparisonProcedure::new(&cs)
///     .sample_size(8) // default: Noether-planned 29
///     .seed(7)
///     .run(&a, &b);
/// println!("{report}");
/// assert_eq!(report.a_measures.len(), 8);
/// ```
#[derive(Clone)]
pub struct ComparisonProcedure<'a> {
    workload: &'a dyn Workload,
    gamma: f64,
    alpha: f64,
    resamples: usize,
    sample_size: usize,
    seed: u64,
}

impl std::fmt::Debug for ComparisonProcedure<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComparisonProcedure")
            .field("workload", &self.workload.name())
            .field("gamma", &self.gamma)
            .field("alpha", &self.alpha)
            .field("resamples", &self.resamples)
            .field("sample_size", &self.sample_size)
            .field("seed", &self.seed)
            .finish()
    }
}

impl<'a> ComparisonProcedure<'a> {
    /// Starts a procedure on `workload` with the paper's recommended
    /// settings: γ = 0.75, α = 0.05, Noether-planned sample size (29).
    pub fn new(workload: &'a dyn Workload) -> Self {
        Self {
            workload,
            gamma: RECOMMENDED_GAMMA,
            alpha: RECOMMENDED_ALPHA,
            resamples: 1000,
            sample_size: noether_sample_size(
                RECOMMENDED_GAMMA,
                RECOMMENDED_ALPHA,
                RECOMMENDED_BETA,
            ),
            seed: 0,
        }
    }

    /// Sets the meaningfulness threshold γ and re-plans the sample size.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not in `(0.5, 1)`.
    pub fn gamma(mut self, gamma: f64) -> Self {
        assert!(gamma > 0.5 && gamma < 1.0, "gamma must be in (0.5, 1)");
        self.gamma = gamma;
        self.sample_size = noether_sample_size(gamma, self.alpha, RECOMMENDED_BETA);
        self
    }

    /// Overrides the number of paired runs (e.g. to reuse a smaller
    /// compute budget; the decision quality degrades accordingly).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "need at least 2 paired runs");
        self.sample_size = n;
        self
    }

    /// Sets the bootstrap resample count.
    ///
    /// # Panics
    ///
    /// Panics if `resamples == 0`.
    pub fn resamples(mut self, resamples: usize) -> Self {
        assert!(resamples > 0, "resamples must be > 0");
        self.resamples = resamples;
        self
    }

    /// Sets the experiment seed (everything downstream derives from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the procedure: `sample_size` paired trainings of each
    /// configuration with every variance source randomized, then the
    /// `P(A>B)` test.
    ///
    /// # Panics
    ///
    /// Panics if parameter vectors do not match the workload's search
    /// space.
    pub fn run(&self, params_a: &[f64], params_b: &[f64]) -> ProcedureReport {
        self.run_with(params_a, params_b, &RunContext::serial())
    }

    /// [`ComparisonProcedure::run`] under an execution context: the
    /// `sample_size` paired trainings fan out across the context's cores
    /// (each pair is its own seed branch, so results are bit-identical
    /// to the serial loop for any thread count).
    ///
    /// # Panics
    ///
    /// As [`ComparisonProcedure::run`].
    pub fn run_with(
        &self,
        params_a: &[f64],
        params_b: &[f64],
        ctx: &RunContext,
    ) -> ProcedureReport {
        // Pairing: identical seed assignment for both configurations
        // (Appendix C.2).
        let seeds: Vec<SeedAssignment> = (0..self.sample_size)
            .map(|i| SeedAssignment::all_random(self.seed, i as u64))
            .collect();
        let pairs = ctx.runner().map_seeds(&seeds, |_, s| {
            (
                self.workload.run_with_params(params_a, s),
                self.workload.run_with_params(params_b, s),
            )
        });
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let mut rng = Rng::seed_from_u64(self.seed ^ 0xB007);
        let test = compare_paired(&a, &b, self.gamma, self.alpha, self.resamples, &mut rng);
        ProcedureReport {
            task: self.workload.name().to_string(),
            metric: self.workload.metric_name().to_string(),
            a_summary: Summary::from_slice(&a),
            b_summary: Summary::from_slice(&b),
            test,
            a_measures: a,
            b_measures: b,
        }
    }
}

/// The output of a [`ComparisonProcedure`].
#[derive(Debug, Clone)]
pub struct ProcedureReport {
    /// Case-study name.
    pub task: String,
    /// Metric name.
    pub metric: String,
    /// Summary of A's measures.
    pub a_summary: Summary,
    /// Summary of B's measures.
    pub b_summary: Summary,
    /// The statistical test and decision.
    pub test: ProbOutperformTest,
    /// Raw paired measures of A.
    pub a_measures: Vec<f64>,
    /// Raw paired measures of B.
    pub b_measures: Vec<f64>,
}

impl ProcedureReport {
    /// Whether A should be adopted over B.
    pub fn adopt_a(&self) -> bool {
        self.test.decision == Decision::SignificantAndMeaningful
    }
}

impl std::fmt::Display for ProcedureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "comparison on {} ({} runs, metric: {})",
            self.task,
            self.a_measures.len(),
            self.metric
        )?;
        writeln!(f, "  A: {}", self.a_summary)?;
        writeln!(f, "  B: {}", self.b_summary)?;
        writeln!(f, "  {}", self.test)?;
        write!(
            f,
            "  conclusion: {}",
            if self.adopt_a() {
                "adopt A"
            } else {
                "insufficient evidence for A"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbench_pipeline::{CaseStudy, Scale};

    #[test]
    fn detects_crippled_baseline() {
        let cs = CaseStudy::glue_rte_bert(Scale::Test);
        let a = cs.default_params().to_vec();
        let mut b = a.clone();
        b[0] = 0.001; // tiny learning rate
        let report = ComparisonProcedure::new(&cs)
            .sample_size(12)
            .resamples(300)
            .seed(3)
            .run(&a, &b);
        assert!(report.a_summary.mean > report.b_summary.mean);
        assert!(report.test.p_a_gt_b > 0.6, "{report}");
    }

    #[test]
    fn self_comparison_is_not_adopted() {
        let cs = CaseStudy::mhc_mlp(Scale::Test);
        let a = cs.default_params().to_vec();
        let report = ComparisonProcedure::new(&cs)
            .sample_size(8)
            .resamples(300)
            .seed(4)
            .run(&a, &a);
        // Identical configs with identical paired seeds → identical
        // measures → P(A>B) = 0 (ties are not wins) → not significant.
        assert!(!report.adopt_a(), "{report}");
        assert_eq!(report.test.decision, Decision::NotSignificant);
    }

    #[test]
    fn default_plan_is_noether_29() {
        let cs = CaseStudy::mhc_mlp(Scale::Test);
        let proc = ComparisonProcedure::new(&cs);
        assert_eq!(proc.sample_size, 29);
        let strict = ComparisonProcedure::new(&cs).gamma(0.9);
        assert!(strict.sample_size < 29, "larger effects need fewer runs");
    }

    #[test]
    fn display_is_informative() {
        let cs = CaseStudy::mhc_mlp(Scale::Test);
        let a = cs.default_params().to_vec();
        let report = ComparisonProcedure::new(&cs)
            .sample_size(4)
            .resamples(100)
            .seed(5)
            .run(&a, &a);
        let s = format!("{report}");
        assert!(s.contains("mhc-mlp"));
        assert!(s.contains("conclusion"));
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0.5, 1)")]
    fn invalid_gamma_rejected() {
        let cs = CaseStudy::mhc_mlp(Scale::Test);
        let _ = ComparisonProcedure::new(&cs).gamma(0.5);
    }
}
