//! The three benchmark conclusion criteria of the paper's Section 4, and
//! the recommended decision procedure of Appendix C.6.

use varbench_rng::Rng;
use varbench_stats::bootstrap::{percentile_ci_prob_outperform, prob_outperform};
use varbench_stats::describe::mean;
use varbench_stats::ConfidenceInterval;

/// Outcome of the paper's recommended statistical test (Appendix C.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// `CI_min ≤ 0.5`: the result could be noise alone; no conclusion.
    NotSignificant,
    /// Significant but `CI_max ≤ γ`: real but too small to be meaningful.
    SignificantNotMeaningful,
    /// `CI_min > 0.5 ∧ CI_max > γ`: A reliably outperforms B.
    SignificantAndMeaningful,
}

impl std::fmt::Display for Decision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Decision::NotSignificant => "not significant",
            Decision::SignificantNotMeaningful => "significant but not meaningful",
            Decision::SignificantAndMeaningful => "significant and meaningful",
        };
        f.write_str(s)
    }
}

/// Result of the probability-of-outperforming test.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbOutperformTest {
    /// Point estimate of `P(A > B)` (paper Eq. 9).
    pub p_a_gt_b: f64,
    /// Percentile-bootstrap confidence interval around it.
    pub ci: ConfidenceInterval,
    /// The meaningfulness threshold γ used.
    pub gamma: f64,
    /// The three-zone decision.
    pub decision: Decision,
}

impl ProbOutperformTest {
    /// `true` iff the decision is significant *and* meaningful.
    pub fn is_improvement(&self) -> bool {
        self.decision == Decision::SignificantAndMeaningful
    }
}

impl std::fmt::Display for ProbOutperformTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "P(A>B) = {} (gamma = {:.2}): {}",
            self.ci, self.gamma, self.decision
        )
    }
}

/// Why a comparison request was rejected before any verdict was
/// computed. Returned by [`try_compare_paired`]; a silent verdict on
/// degenerate input (empty samples, NaN scores, a γ at the coin-flip
/// boundary) would be worse than no verdict at all.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompareError {
    /// One or both score vectors are empty.
    EmptySamples,
    /// The paired vectors have different lengths.
    MismatchedLengths(usize, usize),
    /// A score is NaN or infinite.
    NonFiniteMeasure,
    /// `gamma` outside `(0.5, 1)` — at exactly 0.5 "meaningful" would
    /// degenerate to "significant".
    InvalidGamma(f64),
    /// `alpha` outside `(0, 1)`.
    InvalidAlpha(f64),
    /// `resamples == 0`: no bootstrap distribution to build a CI from.
    ZeroResamples,
}

impl std::fmt::Display for CompareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompareError::EmptySamples => f.write_str("score vectors must be non-empty"),
            CompareError::MismatchedLengths(a, b) => {
                write!(f, "paired score vectors differ in length ({a} vs {b})")
            }
            CompareError::NonFiniteMeasure => {
                f.write_str("score vectors must contain only finite values")
            }
            CompareError::InvalidGamma(g) => write!(f, "gamma must be in (0.5, 1), got {g}"),
            CompareError::InvalidAlpha(a) => write!(f, "alpha must be in (0, 1), got {a}"),
            CompareError::ZeroResamples => f.write_str("resamples must be > 0"),
        }
    }
}

impl std::error::Error for CompareError {}

/// The paper's recommended comparison: estimate `P(A > B)` from *paired*
/// performance measures, bound it with a percentile bootstrap, and apply
/// the three-zone decision of Appendix C.6.
///
/// * significant: `CI_min > 0.5`
/// * meaningful: `CI_max > γ` (γ = 0.75 recommended)
///
/// Returns an error (never a silent verdict) on empty or mismatched
/// samples, non-finite scores, γ outside `(0.5, 1)` — including the 0.5
/// boundary — `alpha` outside `(0, 1)`, or zero resamples. Ties are
/// valid input: a tie is not a win, so identical vectors yield
/// `P(A > B) = 0` and [`Decision::NotSignificant`].
pub fn try_compare_paired(
    a: &[f64],
    b: &[f64],
    gamma: f64,
    alpha: f64,
    resamples: usize,
    rng: &mut Rng,
) -> Result<ProbOutperformTest, CompareError> {
    validate_comparison(a, b, gamma, alpha, resamples)?;
    let ci = percentile_ci_prob_outperform(a, b, resamples, alpha, rng);
    Ok(verdict(a, b, ci, gamma))
}

fn validate_comparison(
    a: &[f64],
    b: &[f64],
    gamma: f64,
    alpha: f64,
    resamples: usize,
) -> Result<(), CompareError> {
    if a.is_empty() || b.is_empty() {
        return Err(CompareError::EmptySamples);
    }
    if a.len() != b.len() {
        return Err(CompareError::MismatchedLengths(a.len(), b.len()));
    }
    if a.iter().chain(b).any(|v| !v.is_finite()) {
        return Err(CompareError::NonFiniteMeasure);
    }
    if !(gamma > 0.5 && gamma < 1.0) {
        return Err(CompareError::InvalidGamma(gamma));
    }
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(CompareError::InvalidAlpha(alpha));
    }
    if resamples == 0 {
        return Err(CompareError::ZeroResamples);
    }
    Ok(())
}

fn verdict(a: &[f64], b: &[f64], ci: ConfidenceInterval, gamma: f64) -> ProbOutperformTest {
    let significant = ci.lo > 0.5;
    let meaningful = ci.hi > gamma;
    let decision = match (significant, meaningful) {
        (false, _) => Decision::NotSignificant,
        (true, false) => Decision::SignificantNotMeaningful,
        (true, true) => Decision::SignificantAndMeaningful,
    };
    ProbOutperformTest {
        p_a_gt_b: prob_outperform(a, b),
        ci,
        gamma,
        decision,
    }
}

/// [`try_compare_paired`] for callers that treat invalid input as a bug.
///
/// # Panics
///
/// Panics on every [`CompareError`] condition: empty/mismatched samples,
/// non-finite scores, `gamma` not in `(0.5, 1)`, `alpha` not in `(0, 1)`,
/// or `resamples == 0`.
///
/// # Example
///
/// ```
/// use varbench_core::compare::{compare_paired, Decision};
/// use varbench_rng::Rng;
///
/// // A clearly better than B on 29 paired seeds.
/// let a: Vec<f64> = (0..29).map(|i| 0.80 + 0.002 * (i % 5) as f64).collect();
/// let b: Vec<f64> = (0..29).map(|i| 0.72 + 0.002 * (i % 7) as f64).collect();
/// let mut rng = Rng::seed_from_u64(1);
/// let t = compare_paired(&a, &b, 0.75, 0.05, 1000, &mut rng);
/// assert_eq!(t.decision, Decision::SignificantAndMeaningful);
/// ```
pub fn compare_paired(
    a: &[f64],
    b: &[f64],
    gamma: f64,
    alpha: f64,
    resamples: usize,
    rng: &mut Rng,
) -> ProbOutperformTest {
    match try_compare_paired(a, b, gamma, alpha, resamples, rng) {
        Ok(test) => test,
        Err(CompareError::InvalidGamma(_)) => panic!("gamma must be in (0.5, 1)"),
        Err(e) => panic!("compare_paired: {e}"),
    }
}

/// The naive single-point criterion: one run of each pipeline, `A` wins if
/// its single measure is higher. The paper shows this has both ~10% false
/// positives and ~75% false negatives (Fig. 6).
pub fn single_point_comparison(a: f64, b: f64) -> bool {
    a > b
}

/// The prevalent average criterion: `A` wins if its mean performance
/// exceeds `B`'s by more than `delta` (the paper calibrates
/// `δ = 1.9952 σ` to match published improvements).
///
/// # Panics
///
/// Panics if samples are empty or `delta < 0`.
pub fn average_comparison(a: &[f64], b: &[f64], delta: f64) -> bool {
    assert!(delta >= 0.0, "delta must be >= 0");
    mean(a) - mean(b) > delta
}

/// The δ multiplier calibrated by the paper against paperswithcode.com
/// (Section 4.2: "we set δ = 1.9952 σ ... set by linear regression so that
/// δ matches the average improvements").
pub const PAPER_DELTA_MULTIPLIER: f64 = 1.9952;

/// Adjusts the meaningfulness threshold γ for `m` simultaneous comparisons
/// with a Bonferroni-style correction on the significance level of the
/// accompanying test (Section 6: competitions with many contestants).
///
/// Returns the corrected per-comparison `alpha`.
///
/// # Panics
///
/// Panics if `m == 0` or `alpha` not in `(0, 1)`.
pub fn bonferroni_alpha(alpha: f64, m: usize) -> f64 {
    assert!(m > 0, "m must be > 0");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    alpha / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn clear_improvement_detected() {
        let a: Vec<f64> = (0..30).map(|i| 0.9 + 0.001 * (i % 3) as f64).collect();
        let b: Vec<f64> = (0..30).map(|i| 0.7 + 0.001 * (i % 4) as f64).collect();
        let t = compare_paired(&a, &b, 0.75, 0.05, 1000, &mut rng());
        assert_eq!(t.decision, Decision::SignificantAndMeaningful);
        assert!(t.is_improvement());
        assert_eq!(t.p_a_gt_b, 1.0);
    }

    #[test]
    fn identical_distributions_not_significant() {
        let mut g = Rng::seed_from_u64(7);
        let a: Vec<f64> = (0..40).map(|_| g.normal(0.5, 0.02)).collect();
        let b: Vec<f64> = (0..40).map(|_| g.normal(0.5, 0.02)).collect();
        let t = compare_paired(&a, &b, 0.75, 0.05, 2000, &mut rng());
        assert_eq!(t.decision, Decision::NotSignificant);
        assert!(!t.is_improvement());
    }

    #[test]
    fn small_consistent_edge_is_significant_not_meaningful() {
        // A beats B slightly more often than not — reliably detectable but
        // below the γ = 0.75 bar with a tight CI (needs many pairs).
        let mut g = Rng::seed_from_u64(8);
        let n = 2000;
        let a: Vec<f64> = (0..n).map(|_| g.normal(0.503, 0.02)).collect();
        let b: Vec<f64> = (0..n).map(|_| g.normal(0.500, 0.02)).collect();
        let t = compare_paired(&a, &b, 0.75, 0.05, 1000, &mut rng());
        assert_eq!(t.decision, Decision::SignificantNotMeaningful, "{t}");
    }

    #[test]
    fn false_positive_rate_controlled_under_null() {
        // Repeated null comparisons: significant-and-meaningful conclusions
        // must be rare.
        let mut wrong = 0;
        let trials = 100;
        for s in 0..trials {
            let mut g = Rng::seed_from_u64(100 + s);
            let a: Vec<f64> = (0..30).map(|_| g.normal(0.8, 0.01)).collect();
            let b: Vec<f64> = (0..30).map(|_| g.normal(0.8, 0.01)).collect();
            let mut r = Rng::seed_from_u64(5000 + s);
            if compare_paired(&a, &b, 0.75, 0.05, 500, &mut r).is_improvement() {
                wrong += 1;
            }
        }
        let rate = wrong as f64 / trials as f64;
        assert!(rate <= 0.08, "false positive rate {rate}");
    }

    #[test]
    fn single_point_is_a_coin_flip_under_null() {
        let mut g = Rng::seed_from_u64(9);
        let mut wins = 0;
        let n = 2000;
        for _ in 0..n {
            if single_point_comparison(g.normal(0.0, 1.0), g.normal(0.0, 1.0)) {
                wins += 1;
            }
        }
        let rate = wins as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn average_comparison_threshold() {
        let a = [0.85, 0.86, 0.84];
        let b = [0.80, 0.81, 0.79];
        assert!(average_comparison(&a, &b, 0.02));
        assert!(!average_comparison(&a, &b, 0.10));
    }

    #[test]
    fn bonferroni_divides() {
        assert!((bonferroni_alpha(0.05, 5) - 0.01).abs() < 1e-15);
        assert_eq!(bonferroni_alpha(0.05, 1), 0.05);
    }

    #[test]
    fn display_impls() {
        assert_eq!(
            Decision::SignificantAndMeaningful.to_string(),
            "significant and meaningful"
        );
        let a: Vec<f64> = (0..10).map(|i| 0.9 + 0.001 * i as f64).collect();
        let b: Vec<f64> = (0..10).map(|i| 0.7 + 0.001 * i as f64).collect();
        let t = compare_paired(&a, &b, 0.75, 0.05, 100, &mut rng());
        assert!(format!("{t}").contains("P(A>B)"));
    }

    #[test]
    #[should_panic(expected = "gamma must be in (0.5, 1)")]
    fn bad_gamma_rejected() {
        compare_paired(&[1.0, 2.0], &[0.0, 1.0], 0.4, 0.05, 10, &mut rng());
    }

    #[test]
    fn gamma_at_half_boundary_is_an_error() {
        // γ = 0.5 exactly: "meaningful" would collapse into "significant";
        // the boundary must be rejected, not silently accepted.
        let a = [0.8, 0.9, 0.85];
        let b = [0.7, 0.75, 0.72];
        let err = try_compare_paired(&a, &b, 0.5, 0.05, 100, &mut rng()).unwrap_err();
        assert_eq!(err, CompareError::InvalidGamma(0.5));
        let err = try_compare_paired(&a, &b, 1.0, 0.05, 100, &mut rng()).unwrap_err();
        assert_eq!(err, CompareError::InvalidGamma(1.0));
        // Just inside the interval is fine.
        assert!(try_compare_paired(&a, &b, 0.5001, 0.05, 100, &mut rng()).is_ok());
    }

    #[test]
    fn ties_are_not_wins() {
        // Identical paired vectors: every comparison is a tie, so
        // P(A > B) = 0 and the verdict is NotSignificant — never an error,
        // never an improvement.
        let a = [0.8, 0.82, 0.84, 0.86];
        let t = try_compare_paired(&a, &a, 0.75, 0.05, 500, &mut rng()).unwrap();
        assert_eq!(t.p_a_gt_b, 0.0);
        assert_eq!(t.decision, Decision::NotSignificant);
    }

    #[test]
    fn nan_and_empty_inputs_are_errors_not_verdicts() {
        let good = [0.8, 0.9];
        let with_nan = [0.8, f64::NAN];
        let with_inf = [0.8, f64::INFINITY];
        assert_eq!(
            try_compare_paired(&good, &with_nan, 0.75, 0.05, 100, &mut rng()).unwrap_err(),
            CompareError::NonFiniteMeasure
        );
        assert_eq!(
            try_compare_paired(&with_inf, &good, 0.75, 0.05, 100, &mut rng()).unwrap_err(),
            CompareError::NonFiniteMeasure
        );
        assert_eq!(
            try_compare_paired(&[], &[], 0.75, 0.05, 100, &mut rng()).unwrap_err(),
            CompareError::EmptySamples
        );
        assert_eq!(
            try_compare_paired(&good, &[0.7], 0.75, 0.05, 100, &mut rng()).unwrap_err(),
            CompareError::MismatchedLengths(2, 1)
        );
        assert_eq!(
            try_compare_paired(&good, &good, 0.75, 0.0, 100, &mut rng()).unwrap_err(),
            CompareError::InvalidAlpha(0.0)
        );
        assert_eq!(
            try_compare_paired(&good, &good, 0.75, 0.05, 0, &mut rng()).unwrap_err(),
            CompareError::ZeroResamples
        );
        // Errors render a reason a caller can surface.
        let msg = CompareError::NonFiniteMeasure.to_string();
        assert!(msg.contains("finite"), "{msg}");
    }
}
