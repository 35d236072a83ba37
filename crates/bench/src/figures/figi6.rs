//! **Fig. I.6** — robustness of the comparison methods to the sample size
//! and to the threshold γ.
//!
//! Two sweeps, each at four true `P(A > B)` levels (0.5, 0.6, 0.7, 0.8):
//! detection rate vs sample size N (top row of the paper's figure) and vs
//! γ (bottom row). Criteria: average comparison with δ = Φ⁻¹(γ)·σ·√2
//! (the paper's conversion), the `P(A>B)` test, and a Welch t-test.

use crate::args::Effort;
use crate::registry::RunContext;
use varbench_core::compare::{average_comparison, compare_paired};
use varbench_core::report::{num, pct, Report, Table};
use varbench_core::simulation::{simulate_measures, SimEstimator, SimulatedTask};
use varbench_rng::SeedTree;
use varbench_stats::standard_normal_quantile;
use varbench_stats::tests::{parametric::t_test_welch, Alternative};

/// Configuration of the Fig. I.6 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// Simulations per grid point.
    pub n_simulations: usize,
    /// Bootstrap resamples inside each `P(A>B)` test.
    pub resamples: usize,
    /// σ of the simulated ideal measures.
    pub sigma: f64,
}

impl Config {
    /// Smoke-test preset.
    pub fn test() -> Self {
        Self {
            n_simulations: 20,
            resamples: 80,
            sigma: 0.02,
        }
    }

    /// Default preset.
    pub fn quick() -> Self {
        Self {
            n_simulations: 200,
            resamples: 200,
            sigma: 0.02,
        }
    }

    /// Paper-faithful preset.
    pub fn full() -> Self {
        Self {
            n_simulations: 1000,
            resamples: 1000,
            sigma: 0.02,
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

/// Detection rates of the three criteria at one grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Average-comparison detection rate.
    pub average: f64,
    /// `P(A>B)`-test detection rate.
    pub prob_outperform: f64,
    /// Welch t-test detection rate.
    pub t_test: f64,
}

/// Measures detection rates at sample size `n`, threshold `gamma`, true
/// probability `p_true`: each simulated comparison draws from its own
/// seed-tree branch, so the `n_simulations` units fan out across the
/// context's cores with bit-identical rates for any thread count.
pub fn rates_at(
    config: &Config,
    n: usize,
    gamma: f64,
    p_true: f64,
    seed: u64,
    ctx: &RunContext,
) -> RatePoint {
    let task = SimulatedTask::new(config.sigma, config.sigma / 2.0, config.sigma);
    let gap = task.gap_for_probability(p_true);
    // The paper converts gamma to an average threshold via
    // delta = Phi^-1(gamma) * sigma (Appendix I).
    let delta = standard_normal_quantile(gamma) * config.sigma;
    let tree = SeedTree::new(seed);
    let outcomes = ctx.runner().map_indexed(config.n_simulations, |si| {
        let mut rng = tree.rng_indexed("sim", si as u64);
        let a = simulate_measures(&task, SimEstimator::Ideal, 0.5 + gap, n, &mut rng);
        let b = simulate_measures(&task, SimEstimator::Ideal, 0.5, n, &mut rng);
        let avg = average_comparison(&a, &b, delta);
        let po = compare_paired(&a, &b, gamma, 0.05, config.resamples, &mut rng).is_improvement();
        let tt = t_test_welch(&a, &b, Alternative::Greater).p_value < 0.05;
        (avg, po, tt)
    });
    let nf = config.n_simulations as f64;
    RatePoint {
        average: outcomes.iter().filter(|o| o.0).count() as f64 / nf,
        prob_outperform: outcomes.iter().filter(|o| o.1).count() as f64 / nf,
        t_test: outcomes.iter().filter(|o| o.2).count() as f64 / nf,
    }
}

/// The four true-probability panels of the paper's figure.
pub const P_LEVELS: [f64; 4] = [0.5, 0.6, 0.7, 0.8];

/// Builds the full Fig. I.6 report (pure simulation — the context's
/// runner drives the grid; no case-study measurements to cache).
pub fn report_with(config: &Config, ctx: &RunContext) -> Report {
    let mut report = Report::new("figi6", "Figure I.6");
    report.text("Figure I.6: robustness of comparison methods\n\n");

    report.text("-- detection rate vs sample size (gamma = 0.75) --\n");
    let sizes = [5usize, 10, 20, 50, 100];
    for &p in &P_LEVELS {
        report.text(format!("true P(A>B) = {p}\n"));
        let mut t = Table::new(vec![
            "N".into(),
            "average".into(),
            "P(A>B) test".into(),
            "t-test".into(),
        ]);
        for &n in &sizes {
            let r = rates_at(config, n, 0.75, p, 0xF1166 + n as u64, ctx);
            t.add_row(vec![
                n.to_string(),
                pct(r.average),
                pct(r.prob_outperform),
                pct(r.t_test),
            ]);
        }
        report.table(t);
        report.text("\n");
    }

    report.text("-- detection rate vs gamma (N = 50) --\n");
    let gammas = [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9];
    for &p in &P_LEVELS {
        report.text(format!("true P(A>B) = {p}\n"));
        let mut t = Table::new(vec![
            "gamma".into(),
            "average".into(),
            "P(A>B) test".into(),
            "t-test".into(),
        ]);
        for &g in &gammas {
            let r = rates_at(config, 50, g, p, 0xF1266 + (g * 100.0) as u64, ctx);
            t.add_row(vec![
                num(g, 2),
                pct(r.average),
                pct(r.prob_outperform),
                pct(r.t_test),
            ]);
        }
        report.table(t);
        report.text("\n");
    }
    report.text(
        "Expected shape (paper): at P=0.5 all criteria hold low false positives\n\
         (t-test nominal 5%); detection of true effects grows with N; raising\n\
         gamma makes the P(A>B) test more conservative.\n",
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_rates_controlled() {
        let r = rates_at(&Config::test(), 50, 0.75, 0.5, 1, &RunContext::serial());
        assert!(r.prob_outperform <= 0.15, "po {}", r.prob_outperform);
        assert!(r.t_test <= 0.2, "tt {}", r.t_test);
    }

    #[test]
    fn detection_grows_with_n() {
        let ctx = RunContext::serial();
        let small = rates_at(&Config::test(), 5, 0.75, 0.8, 2, &ctx);
        let large = rates_at(&Config::test(), 100, 0.75, 0.8, 2, &ctx);
        assert!(large.t_test >= small.t_test);
    }

    #[test]
    fn report_renders_grids() {
        let cfg = Config {
            n_simulations: 5,
            resamples: 50,
            sigma: 0.02,
        };
        let r = report_with(&cfg, &RunContext::serial()).render_text();
        assert!(r.contains("vs sample size"));
        assert!(r.contains("vs gamma"));
        assert!(r.contains("true P(A>B) = 0.8"));
    }
}
