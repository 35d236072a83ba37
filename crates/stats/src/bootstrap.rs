//! Percentile-bootstrap confidence intervals (paper Appendix C.5).
//!
//! The paper's recommended test computes `P(A > B)` from paired performance
//! measures and quantifies its reliability with a non-parametric percentile
//! bootstrap: resample the pairs with replacement K times, recompute the
//! statistic on each resample, and take the α/2 and 1−α/2 percentiles as
//! the confidence bounds.

use crate::describe::quantile_sorted;
use varbench_rng::Rng;

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// The point estimate on the original sample.
    pub estimate: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// The confidence level `1 − α`.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval contains `v`.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} [{:.4}, {:.4}] @ {:.0}%",
            self.estimate,
            self.lo,
            self.hi,
            self.confidence * 100.0
        )
    }
}

/// Percentile-bootstrap confidence interval for an arbitrary statistic of a
/// single sample.
///
/// Draws `resamples` bootstrap replicates of `data`, evaluates `stat` on
/// each, and returns the `alpha/2` and `1 − alpha/2` empirical percentiles.
///
/// # Panics
///
/// Panics if `data` is empty, `resamples == 0`, or `alpha` outside `(0, 1)`.
///
/// # Example
///
/// ```
/// use varbench_rng::Rng;
/// use varbench_stats::bootstrap::percentile_ci;
/// use varbench_stats::describe::mean;
///
/// let data: Vec<f64> = (0..50).map(|i| (i % 10) as f64).collect();
/// let mut rng = Rng::seed_from_u64(7);
/// let ci = percentile_ci(&data, |xs| mean(xs), 2000, 0.05, &mut rng);
/// assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
/// ```
pub fn percentile_ci(
    data: &[f64],
    stat: impl Fn(&[f64]) -> f64,
    resamples: usize,
    alpha: f64,
    rng: &mut Rng,
) -> ConfidenceInterval {
    assert!(!data.is_empty(), "bootstrap of empty sample");
    assert!(resamples > 0, "resamples must be > 0");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    let estimate = stat(data);
    let n = data.len();
    let mut stats = Vec::with_capacity(resamples);
    let mut buf = vec![0.0; n];
    for _ in 0..resamples {
        for slot in buf.iter_mut() {
            *slot = data[rng.range_usize(n)];
        }
        stats.push(stat(&buf));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("NaN bootstrap statistic"));
    ConfidenceInterval {
        estimate,
        lo: quantile_sorted(&stats, alpha / 2.0),
        hi: quantile_sorted(&stats, 1.0 - alpha / 2.0),
        confidence: 1.0 - alpha,
    }
}

/// Percentile-bootstrap confidence interval for a statistic of *paired*
/// samples: resampling preserves the pairing `(a_i, b_i)`, as required by
/// the paper's paired-comparison procedure (Appendix C.2/C.5).
///
/// # Panics
///
/// Panics if the samples are empty or lengths differ, `resamples == 0`, or
/// `alpha` outside `(0, 1)`.
pub fn percentile_ci_paired(
    a: &[f64],
    b: &[f64],
    stat: impl Fn(&[f64], &[f64]) -> f64,
    resamples: usize,
    alpha: f64,
    rng: &mut Rng,
) -> ConfidenceInterval {
    assert_eq!(a.len(), b.len(), "paired bootstrap requires equal lengths");
    assert!(!a.is_empty(), "bootstrap of empty sample");
    assert!(resamples > 0, "resamples must be > 0");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    let estimate = stat(a, b);
    let n = a.len();
    let mut stats = Vec::with_capacity(resamples);
    let mut ra = vec![0.0; n];
    let mut rb = vec![0.0; n];
    for _ in 0..resamples {
        for i in 0..n {
            let j = rng.range_usize(n);
            ra[i] = a[j];
            rb[i] = b[j];
        }
        stats.push(stat(&ra, &rb));
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("NaN bootstrap statistic"));
    ConfidenceInterval {
        estimate,
        lo: quantile_sorted(&stats, alpha / 2.0),
        hi: quantile_sorted(&stats, 1.0 - alpha / 2.0),
        confidence: 1.0 - alpha,
    }
}

/// The paper's estimator of the probability of outperforming,
/// `P(A > B) = (1/k) Σ 1{a_i > b_i}` over paired measures (Eq. 9).
///
/// # Panics
///
/// Panics if samples are empty or lengths differ.
pub fn prob_outperform(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "prob_outperform requires pairs");
    assert!(!a.is_empty(), "prob_outperform of empty sample");
    let wins = a.iter().zip(b).filter(|(x, y)| x > y).count();
    wins as f64 / a.len() as f64
}

/// Percentile-bootstrap confidence interval for `P(A > B)` on paired
/// measures — the exact procedure of the paper's Appendix C.4–C.5.
///
/// Specialized fast path: whether pair `j` is a win (`a_j > b_j`) does not
/// depend on the resample it lands in, so the win indicators are computed
/// once up front and each bootstrap replicate reduces to an integer count
/// over resampled indices — no floating-point compares or pair-buffer
/// writes inside the resample loop. The RNG draw sequence and every
/// replicate's statistic are identical to routing
/// [`prob_outperform`] through [`percentile_ci_paired`], so the interval
/// is bit-for-bit unchanged.
///
/// # Panics
///
/// As [`percentile_ci_paired`].
pub fn percentile_ci_prob_outperform(
    a: &[f64],
    b: &[f64],
    resamples: usize,
    alpha: f64,
    rng: &mut Rng,
) -> ConfidenceInterval {
    assert_eq!(a.len(), b.len(), "paired bootstrap requires equal lengths");
    assert!(!a.is_empty(), "bootstrap of empty sample");
    assert!(resamples > 0, "resamples must be > 0");
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    let estimate = prob_outperform(a, b);
    let n = a.len();
    let wins: Vec<u32> = a.iter().zip(b).map(|(x, y)| u32::from(x > y)).collect();
    let mut stats = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut count = 0u32;
        for _ in 0..n {
            count += wins[rng.range_usize(n)];
        }
        stats.push(count as f64 / n as f64);
    }
    // Win fractions are finite and never negative zero, so an unstable
    // sort cannot perturb the quantiles.
    stats.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN bootstrap statistic"));
    ConfidenceInterval {
        estimate,
        lo: quantile_sorted(&stats, alpha / 2.0),
        hi: quantile_sorted(&stats, 1.0 - alpha / 2.0),
        confidence: 1.0 - alpha,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::mean;

    #[test]
    fn ci_brackets_estimate() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut rng = Rng::seed_from_u64(1);
        let ci = percentile_ci(&data, mean, 1000, 0.05, &mut rng);
        assert!(ci.lo <= ci.estimate);
        assert!(ci.estimate <= ci.hi);
        assert!(ci.width() > 0.0);
        assert_eq!(ci.confidence, 0.95);
    }

    #[test]
    fn ci_narrows_with_sample_size() {
        let small: Vec<f64> = (0..20).map(|i| (i % 5) as f64).collect();
        let large: Vec<f64> = (0..2000).map(|i| (i % 5) as f64).collect();
        let mut rng = Rng::seed_from_u64(2);
        let ci_small = percentile_ci(&small, mean, 1000, 0.05, &mut rng);
        let ci_large = percentile_ci(&large, mean, 1000, 0.05, &mut rng);
        assert!(ci_large.width() < ci_small.width());
    }

    #[test]
    fn ci_coverage_of_true_mean() {
        // ~95% of CIs over repeated experiments should contain the truth.
        let mut hits = 0;
        let trials = 200;
        for t in 0..trials {
            let mut data_rng = Rng::seed_from_u64(1000 + t);
            let data: Vec<f64> = (0..60).map(|_| data_rng.normal(5.0, 2.0)).collect();
            let mut boot_rng = Rng::seed_from_u64(2000 + t);
            let ci = percentile_ci(&data, mean, 500, 0.05, &mut boot_rng);
            if ci.contains(5.0) {
                hits += 1;
            }
        }
        let coverage = hits as f64 / trials as f64;
        assert!(coverage > 0.85, "coverage {coverage}");
    }

    #[test]
    fn prob_outperform_extremes() {
        assert_eq!(prob_outperform(&[2.0, 3.0], &[1.0, 1.0]), 1.0);
        assert_eq!(prob_outperform(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        // Ties count as not outperforming.
        assert_eq!(prob_outperform(&[1.0, 2.0], &[1.0, 1.0]), 0.5);
    }

    #[test]
    fn prob_outperform_symmetry() {
        let a = [0.3, 0.9, 0.7, 0.1];
        let b = [0.4, 0.5, 0.2, 0.8];
        // No ties → P(A>B) + P(B>A) = 1.
        assert!((prob_outperform(&a, &b) + prob_outperform(&b, &a) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn paired_ci_detects_clear_winner() {
        let a: Vec<f64> = (0..30).map(|i| 1.0 + (i % 3) as f64 * 0.01).collect();
        let b: Vec<f64> = (0..30).map(|i| 0.5 + (i % 4) as f64 * 0.01).collect();
        let mut rng = Rng::seed_from_u64(3);
        let ci = percentile_ci_prob_outperform(&a, &b, 1000, 0.05, &mut rng);
        assert_eq!(ci.estimate, 1.0);
        assert!(ci.lo > 0.5, "lower bound {}", ci.lo);
    }

    #[test]
    fn paired_ci_indifferent_under_null() {
        // a and b from the same distribution: CI should include 0.5.
        let mut gen = Rng::seed_from_u64(4);
        let a: Vec<f64> = (0..50).map(|_| gen.normal(0.0, 1.0)).collect();
        let b: Vec<f64> = (0..50).map(|_| gen.normal(0.0, 1.0)).collect();
        let mut rng = Rng::seed_from_u64(5);
        let ci = percentile_ci_prob_outperform(&a, &b, 2000, 0.05, &mut rng);
        assert!(ci.contains(0.5), "{ci}");
    }

    #[test]
    fn fast_prob_outperform_ci_matches_generic_path() {
        // The win-indicator fast path must be bit-identical to routing the
        // statistic through the generic paired bootstrap (same RNG draws,
        // same replicate values, same quantiles).
        let mut gen = Rng::seed_from_u64(40);
        let a: Vec<f64> = (0..37).map(|_| gen.normal(0.0, 1.0)).collect();
        let b: Vec<f64> = (0..37).map(|_| gen.normal(0.1, 1.0)).collect();
        let mut r1 = Rng::seed_from_u64(41);
        let mut r2 = Rng::seed_from_u64(41);
        let fast = percentile_ci_prob_outperform(&a, &b, 700, 0.1, &mut r1);
        let generic = percentile_ci_paired(&a, &b, prob_outperform, 700, 0.1, &mut r2);
        assert_eq!(fast, generic);
        // Both must leave the RNG in the same state.
        assert_eq!(r1.next_u64(), r2.next_u64());
    }

    #[test]
    fn display_format() {
        let ci = ConfidenceInterval {
            estimate: 0.75,
            lo: 0.6,
            hi: 0.9,
            confidence: 0.95,
        };
        let s = format!("{ci}");
        assert!(s.contains("0.7500"));
        assert!(s.contains("95%"));
    }

    #[test]
    #[should_panic(expected = "paired bootstrap requires equal lengths")]
    fn paired_mismatch_panics() {
        let mut rng = Rng::seed_from_u64(6);
        percentile_ci_prob_outperform(&[1.0], &[1.0, 2.0], 10, 0.05, &mut rng);
    }
}
