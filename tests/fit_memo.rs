//! Integration tests of the measurement cache's fit memo: HPO trials and
//! final retrains that repeat an earlier fit's exact input are answered
//! from the memo, so each distinct fit trains once per run, with every
//! report byte and every cost-model count unchanged.

use std::collections::BTreeMap;
use std::sync::Mutex;

use varbench::core::ctx::RunContext;
use varbench::core::estimator::source_variance_study;
use varbench::hpo::SearchSpace;
use varbench::pipeline::{
    HpoAlgorithm, Scale, SeedAssignment, SyntheticWorkload, VarianceSource, Workload,
};
use varbench_bench::args::Effort;
use varbench_bench::registry;

/// One fit's exact input: test score or not, parameter bits, seeds.
type FitInput = (bool, Vec<u64>, [u64; 7]);

/// A workload that delegates every fit to `inner` and counts the fits
/// by exact input.
struct CountingFits<'w> {
    inner: &'w dyn Workload,
    fits: Mutex<BTreeMap<FitInput, u64>>,
}

impl<'w> CountingFits<'w> {
    fn new(inner: &'w dyn Workload) -> Self {
        CountingFits {
            inner,
            fits: Mutex::default(),
        }
    }

    fn count(&self, test: bool, params: &[f64], seeds: &SeedAssignment) {
        let key = (
            test,
            params.iter().map(|p| p.to_bits()).collect(),
            VarianceSource::ALL.map(|s| seeds.seed_of(s)),
        );
        *self.fits.lock().unwrap().entry(key).or_insert(0) += 1;
    }

    /// `(fits trained, distinct inputs, most trainings of one input)`.
    fn tally(&self) -> (u64, u64, u64) {
        let fits = self.fits.lock().unwrap();
        let most = fits.values().copied().max().unwrap_or(0);
        (fits.values().sum(), fits.len() as u64, most)
    }
}

impl Workload for CountingFits<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn scale_label(&self) -> &'static str {
        self.inner.scale_label()
    }
    fn metric_name(&self) -> &'static str {
        self.inner.metric_name()
    }
    fn search_space(&self) -> &SearchSpace {
        self.inner.search_space()
    }
    fn default_params(&self) -> &[f64] {
        self.inner.default_params()
    }
    fn active_sources(&self) -> &[VarianceSource] {
        self.inner.active_sources()
    }
    fn run_with_params(&self, params: &[f64], seeds: &SeedAssignment) -> f64 {
        self.count(true, params, seeds);
        self.inner.run_with_params(params, seeds)
    }
    fn run_valid_test(&self, params: &[f64], seeds: &SeedAssignment) -> (f64, f64) {
        self.inner.run_valid_test(params, seeds)
    }
    fn run_valid(&self, params: &[f64], seeds: &SeedAssignment) -> f64 {
        self.count(false, params, seeds);
        self.inner.run_valid(params, seeds)
    }
}

#[test]
fn hpo_rows_train_each_distinct_fit_once() {
    use HpoAlgorithm::{BayesOpt, RandomSearch};
    let inner = SyntheticWorkload::new(Scale::Test);
    let (memo, plain) = (CountingFits::new(&inner), CountingFits::new(&inner));
    let (cached, serial) = (RunContext::serial_cached(), RunContext::serial());
    // Fig. 1's ξ_H rows: Random Search, then Bayes Opt at a budget
    // within its 5-trial initial design, on one base seed; then the
    // ablations' random-search budget sweep.
    let rows = [
        (RandomSearch, 5, 7),
        (BayesOpt, 5, 7),
        (RandomSearch, 2, 8),
        (RandomSearch, 4, 8),
        (RandomSearch, 6, 8),
        (RandomSearch, 8, 8),
    ];
    let mut requested = 0;
    for (i, (algo, budget, seed)) in rows.into_iter().enumerate() {
        let h = VarianceSource::HyperOpt;
        let got = source_variance_study(&memo, h, 3, algo, budget, seed, &cached);
        let want = source_variance_study(&plain, h, 3, algo, budget, seed, &serial);
        assert_eq!(got, want, "row {i}: the memo changes no bit");
        requested += 3 * (budget as u64 + 1);
        if algo == BayesOpt {
            assert_eq!(
                cached.cache().fit_stats().reused,
                18,
                "Bayes Opt repeats every Random Search fit"
            );
        }
    }
    let (total, distinct, most) = memo.tally();
    assert_eq!(most, 1, "each distinct input trains once");
    assert_eq!(total, distinct);
    let s = cached.cache().fit_stats();
    assert_eq!((s.trained, s.reused), (distinct, requested - distinct));
    assert!(s.reused > 18, "the budget sweep repeats fits too");
    // A disabled cache reuses nothing: every requested fit trains.
    let (plain_total, plain_distinct, _) = plain.tally();
    assert_eq!((plain_total, plain_distinct), (requested, distinct));
    let s = serial.cache().fit_stats();
    assert_eq!((s.trained, s.reused), (requested, 0));
}

#[test]
fn artifacts_reuse_their_repeated_fits() {
    // Run alone on a serial cached context at --test, exactly these
    // three artifacts repeat fits: fig1 and figf2 through Bayes Opt's
    // initial design, ablations through its budget sweep.
    for (name, trained, reused) in [("fig1", 80, 40), ("figf2", 118, 62), ("ablations", 59, 85)] {
        let ctx = RunContext::serial_cached();
        let spec = registry::find(name).expect("registered artifact");
        let _ = spec.run(Effort::Test, &ctx);
        let s = ctx.cache().fit_stats();
        assert_eq!((s.trained, s.reused), (trained, reused), "{name}");
        assert_eq!(s.held as u64, trained, "{name}: nothing evicted");
    }
}
