//! The calibrated simulation study of the paper's Section 4.2: simulate
//! algorithm performances from variance parameters measured on the real
//! case studies, then characterize each conclusion criterion's detection
//! rates as the true `P(A > B)` sweeps from "no difference" to "large
//! difference" (Figs. 6 and I.6).

use crate::compare::{average_comparison, compare_paired, single_point_comparison};
use crate::ctx::RunContext;
use varbench_rng::{Rng, SeedTree};
use varbench_stats::standard_normal_quantile;
use varbench_stats::Normal;

/// Variance parameters of one simulated task, measured from estimator runs
/// on a case study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedTask {
    /// Std of a single ideal-estimator measure, `σ = sqrt(Var(R̂_e))`.
    pub sigma: f64,
    /// Std of the biased estimator's per-ξ offset,
    /// `sqrt(Var(µ̃(k)|ξ))` (the "bias" sampling stage of §4.2).
    pub bias_std: f64,
    /// Std of a conditioned measure, `sqrt(Var(R̂_e|ξ))`.
    pub measure_std: f64,
}

impl SimulatedTask {
    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if any std is negative or `sigma == 0`.
    pub fn new(sigma: f64, bias_std: f64, measure_std: f64) -> Self {
        assert!(sigma > 0.0, "sigma must be > 0");
        assert!(bias_std >= 0.0 && measure_std >= 0.0, "stds must be >= 0");
        Self {
            sigma,
            bias_std,
            measure_std,
        }
    }

    /// The mean-performance gap that makes the true probability of
    /// outperforming equal `p` for ideal measures:
    /// `d = √2 σ Φ⁻¹(p)`.
    ///
    /// `p` is clamped to `[1e-9, 1 − 1e-9]` so the boundary values 0 and 1
    /// map to very large finite gaps (the paper's sweep includes
    /// `P(A>B) = 1`).
    pub fn gap_for_probability(&self, p: f64) -> f64 {
        let p = p.clamp(1e-9, 1.0 - 1e-9);
        std::f64::consts::SQRT_2 * self.sigma * standard_normal_quantile(p)
    }
}

/// Which estimator's sampling process the simulation mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimEstimator {
    /// Ideal: every measure i.i.d. `N(µ, σ²)`.
    Ideal,
    /// Biased: one shared offset `N(0, Var(µ̃|ξ))` per run, measures
    /// `N(µ + offset, Var(R̂|ξ))` — the two-stage process of §4.2.
    Biased,
}

/// Draws `k` simulated performance measures for one algorithm.
pub fn simulate_measures(
    task: &SimulatedTask,
    estimator: SimEstimator,
    mu: f64,
    k: usize,
    rng: &mut Rng,
) -> Vec<f64> {
    match estimator {
        SimEstimator::Ideal => (0..k).map(|_| rng.normal(mu, task.sigma)).collect(),
        SimEstimator::Biased => {
            let offset = rng.normal(0.0, task.bias_std);
            (0..k)
                .map(|_| rng.normal(mu + offset, task.measure_std))
                .collect()
        }
    }
}

/// Configuration of a detection-rate study.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionConfig {
    /// Number of paired measures per simulated comparison (paper: 50).
    pub k: usize,
    /// Simulated comparisons per point.
    pub n_simulations: usize,
    /// Meaningfulness threshold γ (paper recommendation: 0.75).
    pub gamma: f64,
    /// Threshold δ of the average criterion (paper: 1.9952 σ).
    pub delta: f64,
    /// Significance level.
    pub alpha: f64,
    /// Bootstrap resamples per test.
    pub resamples: usize,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        Self {
            k: 50,
            n_simulations: 200,
            gamma: 0.75,
            delta: 0.0, // callers set 1.9952·σ
            alpha: 0.05,
            resamples: 200,
        }
    }
}

/// Detection rates of every criterion at one true `P(A > B)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionRow {
    /// The true probability of outperforming.
    pub p_true: f64,
    /// Analytic power of the optimal oracle (known variances).
    pub oracle: f64,
    /// Single-point comparison detection rate.
    pub single_point: f64,
    /// Average-threshold criterion, ideal-estimator measures.
    pub average_ideal: f64,
    /// Average-threshold criterion, biased-estimator measures.
    pub average_biased: f64,
    /// `P(A>B)` test, ideal-estimator measures.
    pub prob_out_ideal: f64,
    /// `P(A>B)` test, biased-estimator measures.
    pub prob_out_biased: f64,
}

/// Outcome of one simulated comparison: did each criterion conclude that
/// A improves on B?
#[derive(Debug, Clone, Copy)]
struct SimOutcome {
    single: bool,
    avg_ideal: bool,
    avg_biased: bool,
    po_ideal: bool,
    po_biased: bool,
}

/// Runs one simulated comparison from its own RNG branch.
fn simulate_one(
    task: &SimulatedTask,
    config: &DetectionConfig,
    mu_a: f64,
    mu_b: f64,
    rng: &mut Rng,
) -> SimOutcome {
    let cmp = |a: &[f64], b: &[f64], rng: &mut Rng| {
        compare_paired(a, b, config.gamma, config.alpha, config.resamples, rng).is_improvement()
    };
    // Ideal measures.
    let a = simulate_measures(task, SimEstimator::Ideal, mu_a, config.k, rng);
    let b = simulate_measures(task, SimEstimator::Ideal, mu_b, config.k, rng);
    let single = single_point_comparison(a[0], b[0]);
    let avg_ideal = average_comparison(&a, &b, config.delta);
    let po_ideal = cmp(&a, &b, rng);
    // Biased measures.
    let a = simulate_measures(task, SimEstimator::Biased, mu_a, config.k, rng);
    let b = simulate_measures(task, SimEstimator::Biased, mu_b, config.k, rng);
    let avg_biased = average_comparison(&a, &b, config.delta);
    let po_biased = cmp(&a, &b, rng);
    SimOutcome {
        single,
        avg_ideal,
        avg_biased,
        po_ideal,
        po_biased,
    }
}

/// Runs the detection-rate study across a sweep of true `P(A > B)` values.
///
/// Each simulated comparison draws from its own seed-tree branch
/// (`seed → point index → simulation index`), so the grid is a pure map
/// over independent units — see [`detection_study_with`] for the parallel
/// version, which produces bit-identical rows.
///
/// # Panics
///
/// Panics if `p_values` is empty or config fields are degenerate.
pub fn detection_study(
    task: &SimulatedTask,
    p_values: &[f64],
    config: &DetectionConfig,
    seed: u64,
) -> Vec<DetectionRow> {
    detection_study_with(task, p_values, config, seed, &RunContext::serial())
}

/// [`detection_study`] under an execution context: the
/// `p_values × n_simulations` grid fans out across the context's cores,
/// one unit per simulated comparison, with bit-identical results for any
/// thread count (each unit runs its bootstraps serially on its own
/// thread — the grid is already the parallel axis).
///
/// # Panics
///
/// Panics if `p_values` is empty or config fields are degenerate.
pub fn detection_study_with(
    task: &SimulatedTask,
    p_values: &[f64],
    config: &DetectionConfig,
    seed: u64,
    ctx: &RunContext,
) -> Vec<DetectionRow> {
    assert!(!p_values.is_empty(), "need probability points");
    assert!(config.k >= 2, "k must be >= 2");
    assert!(config.n_simulations > 0, "need simulations");
    let tree = SeedTree::new(seed);
    let units: Vec<(usize, usize)> = (0..p_values.len())
        .flat_map(|pi| (0..config.n_simulations).map(move |si| (pi, si)))
        .collect();
    let outcomes = ctx.runner().map_seeds(&units, |_, &(pi, si)| {
        let gap = task.gap_for_probability(p_values[pi]);
        let mu_b = 0.5; // arbitrary base performance
        let mu_a = mu_b + gap;
        let mut rng = tree
            .subtree_indexed("point", pi as u64)
            .rng_indexed("sim", si as u64);
        simulate_one(task, config, mu_a, mu_b, &mut rng)
    });
    let n = config.n_simulations as f64;
    p_values
        .iter()
        .enumerate()
        .map(|(pi, &p)| {
            let rows = &outcomes[pi * config.n_simulations..(pi + 1) * config.n_simulations];
            let count = |f: fn(&SimOutcome) -> bool| rows.iter().filter(|o| f(o)).count() as f64;
            DetectionRow {
                p_true: p,
                oracle: oracle_power(p, config.k, config.alpha),
                single_point: count(|o| o.single) / n,
                average_ideal: count(|o| o.avg_ideal) / n,
                average_biased: count(|o| o.avg_biased) / n,
                prob_out_ideal: count(|o| o.po_ideal) / n,
                prob_out_biased: count(|o| o.po_biased) / n,
            }
        })
        .collect()
}

/// Analytic power of the optimal test with perfect variance knowledge: a
/// z-test on the mean difference with known σ has non-centrality
/// `√k Φ⁻¹(p)`, so power `Φ(√k Φ⁻¹(p) − z_{1−α})`.
pub fn oracle_power(p_true: f64, k: usize, alpha: f64) -> f64 {
    let p_true = p_true.clamp(1e-9, 1.0 - 1e-9);
    let z_crit = standard_normal_quantile(1.0 - alpha);
    let effect = (k as f64).sqrt() * standard_normal_quantile(p_true);
    Normal::standard().cdf(effect - z_crit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task() -> SimulatedTask {
        // Calibrated like a typical case study: bias and measure variance
        // splitting the total roughly evenly.
        SimulatedTask::new(0.02, 0.012, 0.016)
    }

    fn config() -> DetectionConfig {
        DetectionConfig {
            k: 50,
            n_simulations: 60,
            gamma: 0.75,
            delta: 1.9952 * 0.02,
            alpha: 0.05,
            resamples: 100,
        }
    }

    #[test]
    fn gap_mapping_is_monotone_and_signed() {
        let t = task();
        assert!(t.gap_for_probability(0.5).abs() < 1e-12);
        assert!(t.gap_for_probability(0.8) > 0.0);
        assert!(t.gap_for_probability(0.4) < 0.0);
        assert!(t.gap_for_probability(0.9) > t.gap_for_probability(0.8));
    }

    #[test]
    fn gap_recovers_probability() {
        // P(A>B) for N(d, σ²) vs N(0, σ²) = Φ(d/(√2σ)); invert and check.
        let t = task();
        let d = t.gap_for_probability(0.77);
        let p = Normal::standard().cdf(d / (std::f64::consts::SQRT_2 * t.sigma));
        assert!((p - 0.77).abs() < 1e-12);
    }

    #[test]
    fn oracle_power_boundaries() {
        assert!((oracle_power(0.5, 50, 0.05) - 0.05).abs() < 1e-10);
        assert!(oracle_power(0.9, 50, 0.05) > 0.99);
        assert!(oracle_power(0.4, 50, 0.05) < 0.01);
    }

    #[test]
    fn simulated_measures_have_requested_moments() {
        let t = task();
        let mut rng = Rng::seed_from_u64(1);
        let xs = simulate_measures(&t, SimEstimator::Ideal, 0.8, 20_000, &mut rng);
        let mean = varbench_stats::describe::mean(&xs);
        let std = varbench_stats::describe::std_dev(&xs);
        assert!((mean - 0.8).abs() < 0.001, "mean {mean}");
        assert!((std - 0.02).abs() < 0.001, "std {std}");
    }

    #[test]
    fn biased_measures_share_offset_within_run() {
        let t = SimulatedTask::new(0.02, 0.05, 0.001);
        let mut rng = Rng::seed_from_u64(2);
        let xs = simulate_measures(&t, SimEstimator::Biased, 0.0, 50, &mut rng);
        // Within one run, the large shared offset dominates: measures
        // cluster tightly around a common value that is itself far from 0.
        let m = varbench_stats::describe::mean(&xs);
        let s = varbench_stats::describe::std_dev(&xs);
        assert!(s < 0.01, "within-run spread {s}");
        // Across runs the offsets differ.
        let ys = simulate_measures(&t, SimEstimator::Biased, 0.0, 50, &mut rng);
        let m2 = varbench_stats::describe::mean(&ys);
        assert!((m - m2).abs() > 1e-4);
    }

    #[test]
    fn detection_rates_ordered_sensibly() {
        let rows = detection_study(&task(), &[0.5, 0.95], &config(), 3);
        assert_eq!(rows.len(), 2);
        let null = &rows[0];
        let strong = &rows[1];
        // Under H0 every criterion should rarely conclude improvement
        // (single-point is a coin flip by construction, ~50%).
        assert!(null.prob_out_ideal <= 0.10, "po {}", null.prob_out_ideal);
        assert!(null.average_ideal <= 0.10, "avg {}", null.average_ideal);
        assert!((null.single_point - 0.5).abs() < 0.2);
        // With a big effect the P(A>B) test detects much more often.
        assert!(strong.prob_out_ideal > 0.8, "po {}", strong.prob_out_ideal);
        assert!(strong.oracle > 0.99);
        // And detection grows with the effect.
        assert!(strong.prob_out_ideal > null.prob_out_ideal);
    }

    #[test]
    fn average_criterion_is_conservative() {
        // The paper's headline: the average criterion has very high false
        // negatives even for meaningful effects.
        let rows = detection_study(&task(), &[0.85], &config(), 4);
        let row = &rows[0];
        assert!(
            row.average_ideal <= row.prob_out_ideal + 0.15,
            "average {} vs P(A>B) {}",
            row.average_ideal,
            row.prob_out_ideal
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = detection_study(&task(), &[0.7], &config(), 5);
        let b = detection_study(&task(), &[0.7], &config(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_study_bit_identical_to_serial() {
        use crate::exec::Runner;
        use varbench_pipeline::MeasureCache;

        let serial = detection_study(&task(), &[0.6, 0.8], &config(), 6);
        for threads in [2, 4, 8] {
            let ctx = RunContext::new(Runner::new(threads), MeasureCache::disabled());
            let par = detection_study_with(&task(), &[0.6, 0.8], &config(), 6, &ctx);
            assert_eq!(serial, par, "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "sigma must be > 0")]
    fn zero_sigma_rejected() {
        SimulatedTask::new(0.0, 0.1, 0.1);
    }
}
