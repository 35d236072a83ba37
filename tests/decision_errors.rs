//! Integration tests of the decision criteria's error rates, reproducing
//! the paper's Section 4 claims at reduced simulation scale.

use varbench::core::compare::{average_comparison, compare_paired, single_point_comparison};
use varbench::core::simulation::{
    detection_study, oracle_power, simulate_measures, DetectionConfig, SimEstimator, SimulatedTask,
};
use varbench::rng::{Rng, SeedTree};
use varbench::stats::bootstrap::percentile_ci_prob_outperform;
use varbench::stats::power::noether_sample_size;
use varbench::stats::standard_normal_quantile;
use varbench::stats::tests::mann_whitney::mann_whitney_u;
use varbench::stats::tests::Alternative;

fn task() -> SimulatedTask {
    // Calibration-realistic ratio: the per-ξ offset of FixHOptEst(All) is
    // roughly a third of the conditioned measure std (paper Fig. H.5).
    // Larger offsets degrade the biased test's false-positive control —
    // that degradation is itself a paper finding, tested in
    // `biased_estimator_degrades_but_preserves_control`.
    SimulatedTask::new(0.02, 0.006, 0.019)
}

fn config() -> DetectionConfig {
    DetectionConfig {
        k: 50,
        n_simulations: 120,
        gamma: 0.75,
        delta: 1.9952 * 0.02,
        alpha: 0.05,
        resamples: 150,
    }
}

#[test]
fn false_positives_controlled_at_null() {
    let rows = detection_study(&task(), &[0.5], &config(), 1);
    let r = &rows[0];
    // Paper: single point ~10% FP (we measure "A declared better", a coin
    // flip ~50%, of which the false-positive *error* concerns the
    // conclusion; here we check the variance-aware tests).
    assert!(
        r.prob_out_ideal <= 0.08,
        "P(A>B) test FP {}",
        r.prob_out_ideal
    );
    // The biased estimator loses nominal control ("we cannot guarantee a
    // nominal control") but stays in a usable regime. With 120 simulations
    // the FP estimate has std ~0.04, so allow a generous band above the
    // ~0.2 typical rate while still rejecting a collapse to coin-flipping.
    assert!(
        r.prob_out_biased <= 0.32,
        "biased P(A>B) FP {}",
        r.prob_out_biased
    );
    assert!(r.average_ideal <= 0.08, "average FP {}", r.average_ideal);
}

#[test]
fn false_negatives_much_lower_for_prob_test_than_average() {
    // Paper Fig. 6, right region (H1 true, P(A>B) = 0.95): average has
    // ~90% FN, the P(A>B) test ~30%.
    let rows = detection_study(&task(), &[0.95], &config(), 2);
    let r = &rows[0];
    assert!(
        r.prob_out_ideal > r.average_ideal,
        "P(A>B) detection {} must exceed average's {}",
        r.prob_out_ideal,
        r.average_ideal
    );
    assert!(
        r.prob_out_ideal > 0.5,
        "P(A>B) detection too low: {}",
        r.prob_out_ideal
    );
    assert!(r.oracle > 0.99);
}

#[test]
fn single_point_has_high_false_negatives_under_h1() {
    // One pair of runs misses true improvements often (paper: ~75% FN at
    // moderate effects).
    let t = task();
    let gap = t.gap_for_probability(0.75);
    let mut rng = Rng::seed_from_u64(3);
    let mut misses = 0;
    let sims = 2000;
    for _ in 0..sims {
        let a = simulate_measures(&t, SimEstimator::Ideal, 0.5 + gap, 1, &mut rng);
        let b = simulate_measures(&t, SimEstimator::Ideal, 0.5, 1, &mut rng);
        if !single_point_comparison(a[0], b[0]) {
            misses += 1;
        }
    }
    let fn_rate = misses as f64 / sims as f64;
    // At P(A>B)=0.75 the single-point FN rate is exactly 25% by
    // construction; the paper's ~75% figure applies to its delta-thresholded
    // variant. Verify the coin-flip structure.
    assert!((fn_rate - 0.25).abs() < 0.05, "single-point FN {fn_rate}");
}

#[test]
fn average_with_paper_delta_is_conservative() {
    let t = task();
    let gap = t.gap_for_probability(0.85);
    let mut rng = Rng::seed_from_u64(4);
    let mut detections = 0;
    let sims = 400;
    for _ in 0..sims {
        let a = simulate_measures(&t, SimEstimator::Ideal, 0.5 + gap, 50, &mut rng);
        let b = simulate_measures(&t, SimEstimator::Ideal, 0.5, 50, &mut rng);
        if average_comparison(&a, &b, 1.9952 * t.sigma) {
            detections += 1;
        }
    }
    let rate = detections as f64 / sims as f64;
    // Meaningful effect (P=0.85) but the delta threshold swallows most of
    // it: detection should stay low (paper: ~10%).
    assert!(
        rate < 0.5,
        "average criterion detection {rate} not conservative"
    );
}

#[test]
fn biased_estimator_degrades_but_preserves_control() {
    // Paper: "the test of probability of outperforming controls well the
    // error rates even when used with a biased estimator".
    let rows = detection_study(&task(), &[0.5, 0.9], &config(), 5);
    let null = &rows[0];
    let effect = &rows[1];
    // Same statistical band as `false_positives_controlled_at_null`.
    assert!(
        null.prob_out_biased <= 0.32,
        "biased FP {}",
        null.prob_out_biased
    );
    assert!(
        effect.prob_out_biased >= effect.prob_out_ideal * 0.4,
        "biased power {} collapsed vs ideal {}",
        effect.prob_out_biased,
        effect.prob_out_ideal
    );
}

#[test]
fn oracle_power_is_an_upper_envelope() {
    let rows = detection_study(&task(), &[0.6, 0.7, 0.8], &config(), 6);
    for r in &rows {
        assert!(
            r.prob_out_ideal <= oracle_power(r.p_true, 50, 0.05) + 0.10,
            "test at p={} beats the oracle: {} vs {}",
            r.p_true,
            r.prob_out_ideal,
            r.oracle
        );
    }
}

#[test]
fn gamma_tuning_trades_detection_for_stringency() {
    let t = task();
    let gap = t.gap_for_probability(0.8);
    let mut loose_hits = 0;
    let mut strict_hits = 0;
    let sims = 150;
    let mut rng = Rng::seed_from_u64(7);
    for _ in 0..sims {
        let a = simulate_measures(&t, SimEstimator::Ideal, 0.5 + gap, 50, &mut rng);
        let b = simulate_measures(&t, SimEstimator::Ideal, 0.5, 50, &mut rng);
        if compare_paired(&a, &b, 0.65, 0.05, 150, &mut rng).is_improvement() {
            loose_hits += 1;
        }
        if compare_paired(&a, &b, 0.9, 0.05, 150, &mut rng).is_improvement() {
            strict_hits += 1;
        }
    }
    assert!(
        loose_hits >= strict_hits,
        "looser gamma should detect at least as often: {loose_hits} vs {strict_hits}"
    );
}

#[test]
fn prob_outperform_ci_covers_the_true_probability() {
    // Coverage of the percentile-bootstrap CI for P(A > B) (paper App.
    // C.5) against known truth: with ideal measures and the mean gap
    // `gap_for_probability(p)`, each pair is an independent win with
    // probability p, so the true P(A > B) is p.
    //
    // p = 0.5 is the `CI_min > 0.5` significance boundary, where coverage
    // is the test's false-positive control; there the 600-trial estimate
    // must sit within 3 Monte-Carlo standard errors of nominal. Elsewhere
    // only a floor of 0.88 is asserted. The estimate is a proportion over
    // k pairs, so the bootstrap distribution lives on the lattice
    // {0, 1/k, ..., 1} and its percentiles move across p in steps: true
    // coverage misses nominal by about a point either way. A 10,000-trial
    // run over this grid read 0.929-0.961, lowest at k = 29, p = 0.9 and
    // k = 50, p = 0.75. These seeds read 0.945 / 0.928 / 0.942 / 0.937 at
    // k = 29 and 0.943 / 0.953 / 0.925 / 0.948 at k = 50
    // (p = 0.5 / 0.6 / 0.75 / 0.9).
    let t = task();
    let trials = 600;
    let nominal = 0.95;
    let se = (nominal * (1.0 - nominal) / trials as f64).sqrt();
    let tree = SeedTree::new(13);
    for k in [29usize, 50] {
        for (pi, p) in [0.5, 0.6, 0.75, 0.9].into_iter().enumerate() {
            let gap = t.gap_for_probability(p);
            let point = tree
                .subtree_indexed("k", k as u64)
                .subtree_indexed("p", pi as u64);
            let hits = (0..trials)
                .filter(|&trial| {
                    let mut rng = point.rng_indexed("trial", trial as u64);
                    let a = simulate_measures(&t, SimEstimator::Ideal, 0.5 + gap, k, &mut rng);
                    let b = simulate_measures(&t, SimEstimator::Ideal, 0.5, k, &mut rng);
                    percentile_ci_prob_outperform(&a, &b, 500, 0.05, &mut rng).contains(p)
                })
                .count();
            let coverage = hits as f64 / trials as f64;
            if p == 0.5 {
                assert!(
                    (coverage - nominal).abs() <= 3.0 * se,
                    "k={k}, p={p}: coverage {coverage} is more than 3 SE ({se:.4}) from {nominal}"
                );
            }
            assert!(coverage >= 0.88, "k={k}, p={p}: coverage {coverage} < 0.88");
        }
    }
}

#[test]
fn noether_sample_sizes_reach_their_planned_power() {
    // Noether's N (paper App. C.3) plans the one-sided Mann-Whitney test
    // of P(A > B) = 0.5 at level alpha so that it rejects with
    // probability 1 - beta when the true P(A > B) is gamma. With
    // A ~ N(sqrt(2) * PhiInv(P), 1) and B ~ N(0, 1), A - B ~
    // N(sqrt(2) * PhiInv(P), 2), so P(A > B) is exactly P. Each cell
    // draws N of each 2,000 times. At P = gamma the rejection rate must
    // reach 1 - beta, and at P = 0.5 stay at alpha, each within 3
    // Monte-Carlo standard errors: the normal approximation's size
    // reads just above alpha in some cells. These seeds read power
    // 0.971 / 0.834 / 0.965 / 0.981 / 0.975 and size 0.054 / 0.043 /
    // 0.050 / 0.045 / 0.010 over the five cells, in order.
    let draws = 2_000;
    let se = |rate: f64| (rate * (1.0 - rate) / draws as f64).sqrt();
    let tree = SeedTree::new(29);
    let cells = [
        (0.75, 0.05, 0.05),
        (0.75, 0.05, 0.2),
        (0.7, 0.05, 0.05),
        (0.8, 0.05, 0.05),
        (0.75, 0.01, 0.05),
    ];
    for (cell, (gamma, alpha, beta)) in cells.into_iter().enumerate() {
        let n = noether_sample_size(gamma, alpha, beta);
        let rejection_rate = |p: f64, label: &str| {
            let shift = std::f64::consts::SQRT_2 * standard_normal_quantile(p);
            let point = tree.subtree_indexed(label, cell as u64);
            let rejections = (0..draws)
                .filter(|&draw| {
                    let mut rng = point.rng_indexed("draw", draw as u64);
                    let a: Vec<f64> = (0..n).map(|_| rng.normal(shift, 1.0)).collect();
                    let b: Vec<f64> = (0..n).map(|_| rng.normal(0.0, 1.0)).collect();
                    mann_whitney_u(&a, &b, Alternative::Greater).p_value < alpha
                })
                .count();
            rejections as f64 / draws as f64
        };
        let power = rejection_rate(gamma, "power");
        assert!(
            power >= 1.0 - beta - 3.0 * se(1.0 - beta),
            "gamma={gamma}, alpha={alpha}, beta={beta}, N={n}: power {power} < {}",
            1.0 - beta
        );
        let size = rejection_rate(0.5, "size");
        assert!(
            size <= alpha + 3.0 * se(alpha),
            "gamma={gamma}, alpha={alpha}, beta={beta}, N={n}: size {size} > {alpha}"
        );
    }
}
