//! Built-in non-MLP workloads proving the [`Workload`] abstraction.
//!
//! The five [`CaseStudy`](crate::CaseStudy) pipelines are MLP-backed; the
//! two workloads here exercise the same estimator stack over entirely
//! different model families from the existing crates:
//!
//! * [`LinearWorkload`] — multinomial logistic regression
//!   (`varbench_models::linear::LogisticRegression`) on a binary
//!   synthetic task: SGD-trained, so data split, weight init and data
//!   order are all live variance sources;
//! * [`SyntheticWorkload`] — **closed-form** ridge regression
//!   (`varbench_models::linear::RidgeRegression`) on the synthetic
//!   binding task: the fit is deterministic given the data, so the *only*
//!   ξ_O source is the data split — a useful extreme for sanity-checking
//!   variance decompositions (every other source must measure exactly
//!   zero).
//!
//! Both are registered in the `varbench` CLI (`varbench workloads`,
//! `varbench run workload-linear workload-synth`).

#![deny(missing_docs)]

use crate::case_study::Scale;
use crate::variance::{SeedAssignment, VarianceSource};
use crate::workload::Workload;
use varbench_data::split::{oob_split, Split};
use varbench_data::synth::{
    binary_overlap, binding_regression, BinaryOverlapConfig, BindingConfig,
};
use varbench_data::Dataset;
use varbench_hpo::{Dim, SearchSpace};
use varbench_models::linear::{LogisticRegression, RidgeRegression};
use varbench_models::metrics::roc_auc;
use varbench_models::{EvalWorkspace, TrainConfig};
use varbench_rng::Rng;

/// Logistic-regression workload on a binary Gaussian-overlap task.
///
/// Search space: learning rate and L2 weight decay (both log-uniform).
/// Active sources: data split, weight init, data order, and ξ_H.
#[derive(Debug, Clone)]
pub struct LinearWorkload {
    scale: Scale,
    pool: Dataset,
    sizes: (usize, usize, usize),
    epochs: usize,
    space: SearchSpace,
    defaults: Vec<f64>,
}

impl LinearWorkload {
    /// Builds the workload at `scale` (pool generated from a fixed seed).
    pub fn new(scale: Scale) -> LinearWorkload {
        let (n_pool, n_train, n_valid, n_test, epochs) = match scale {
            Scale::Test => (300, 160, 60, 60, 3),
            Scale::Quick => (3000, 2000, 400, 400, 8),
            Scale::Full => (10_000, 7000, 1200, 1200, 15),
        };
        let mut pool_rng = Rng::seed_from_u64(0x11EA2);
        let pool = binary_overlap(
            &BinaryOverlapConfig {
                n: n_pool,
                dim: 12,
                separation: 2.2,
                label_noise: 0.08,
                p_positive: 0.5,
            },
            &mut pool_rng,
        );
        LinearWorkload {
            scale,
            pool,
            sizes: (n_train, n_valid, n_test),
            epochs,
            space: SearchSpace::new(vec![
                ("learning_rate".into(), Dim::log_uniform(1e-3, 0.5)),
                ("weight_decay".into(), Dim::log_uniform(1e-6, 0.1)),
            ]),
            defaults: vec![0.1, 1e-4],
        }
    }

    fn split(&self, split_seed: u64) -> Split {
        let (n_train, n_valid, n_test) = self.sizes;
        let mut rng = Rng::seed_from_u64(split_seed);
        oob_split(self.pool.len(), n_train, n_valid, n_test, &mut rng)
    }

    fn train(
        &self,
        params: &[f64],
        train_idx: &[usize],
        seeds: &SeedAssignment,
    ) -> LogisticRegression {
        assert_eq!(params.len(), self.space.len(), "parameter arity mismatch");
        let train = TrainConfig {
            epochs: self.epochs,
            batch_size: 32,
            learning_rate: self.space.dims()[0].1.clamp(params[0]),
            momentum: 0.9,
            weight_decay: self.space.dims()[1].1.clamp(params[1]),
            lr_gamma: 0.99,
            dropout: 0.0,
            grad_noise: 0.0,
        };
        let ds = self.pool.subset(train_idx);
        let mut ts = seeds.train_seeds();
        LogisticRegression::train(&train, &ds, &mut ts)
    }

    fn accuracy(&self, model: &LogisticRegression, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "cannot evaluate on an empty set");
        // One batched forward over the whole index set (bitwise identical
        // to the per-example loop); hit counting is exact integers.
        let mut ws = EvalWorkspace::new();
        let mut classes = Vec::new();
        model.predict_classes_batch_into(
            indices.len(),
            |si, row| row.copy_from_slice(self.pool.x(indices[si])),
            &mut ws,
            &mut classes,
        );
        let correct = classes
            .iter()
            .zip(indices)
            .filter(|&(&c, &i)| c == self.pool.label(i))
            .count();
        correct as f64 / indices.len() as f64
    }
}

impl Workload for LinearWorkload {
    fn name(&self) -> &str {
        "linear-logreg"
    }

    fn scale_label(&self) -> &'static str {
        self.scale.label()
    }

    fn metric_name(&self) -> &'static str {
        "accuracy"
    }

    fn search_space(&self) -> &SearchSpace {
        &self.space
    }

    fn default_params(&self) -> &[f64] {
        &self.defaults
    }

    fn active_sources(&self) -> &[VarianceSource] {
        &[
            VarianceSource::DataSplit,
            VarianceSource::WeightsInit,
            VarianceSource::DataOrder,
            VarianceSource::HyperOpt,
        ]
    }

    fn run_with_params(&self, params: &[f64], seeds: &SeedAssignment) -> f64 {
        let split = self.split(seeds.seed_of(VarianceSource::DataSplit));
        let model = self.train(params, &split.train_valid(), seeds);
        self.accuracy(&model, split.test())
    }

    fn run_valid_test(&self, params: &[f64], seeds: &SeedAssignment) -> (f64, f64) {
        let split = self.split(seeds.seed_of(VarianceSource::DataSplit));
        let model = self.train(params, split.train(), seeds);
        (
            self.accuracy(&model, split.valid()),
            self.accuracy(&model, split.test()),
        )
    }

    fn run_valid(&self, params: &[f64], seeds: &SeedAssignment) -> f64 {
        let split = self.split(seeds.seed_of(VarianceSource::DataSplit));
        let model = self.train(params, split.train(), seeds);
        self.accuracy(&model, split.valid())
    }
}

/// Closed-form ridge-regression workload on the synthetic binding task,
/// scored by ROC-AUC against the binarized affinities.
///
/// The fit has no training stochasticity at all: given a split, the model
/// is a deterministic function of the data. Data split is therefore the
/// single active ξ_O source, making this workload a clean null case for
/// every other source.
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    scale: Scale,
    pool: Dataset,
    sizes: (usize, usize, usize),
    space: SearchSpace,
    defaults: Vec<f64>,
}

impl SyntheticWorkload {
    /// Builds the workload at `scale` (pool generated from a fixed seed).
    pub fn new(scale: Scale) -> SyntheticWorkload {
        let (n_pool, n_train, n_valid, n_test) = match scale {
            Scale::Test => (300, 160, 60, 60),
            Scale::Quick => (4000, 2500, 600, 600),
            Scale::Full => (12_000, 8000, 1500, 1500),
        };
        let mut pool_rng = Rng::seed_from_u64(0x51D6E);
        let pool = binding_regression(
            &BindingConfig {
                n: n_pool,
                dim: 16,
                noise: 0.15,
                shift: 0.0,
            },
            &mut pool_rng,
        );
        SyntheticWorkload {
            scale,
            pool,
            sizes: (n_train, n_valid, n_test),
            space: SearchSpace::new(vec![("ridge_lambda".into(), Dim::log_uniform(1e-8, 10.0))]),
            defaults: vec![1e-2],
        }
    }

    fn split(&self, split_seed: u64) -> Split {
        let (n_train, n_valid, n_test) = self.sizes;
        let mut rng = Rng::seed_from_u64(split_seed);
        oob_split(self.pool.len(), n_train, n_valid, n_test, &mut rng)
    }

    fn fit(&self, params: &[f64], train_idx: &[usize]) -> RidgeRegression {
        assert_eq!(params.len(), self.space.len(), "parameter arity mismatch");
        let lambda = self.space.dims()[0].1.clamp(params[0]);
        RidgeRegression::fit(&self.pool.subset(train_idx), lambda)
    }

    fn auc(&self, model: &RidgeRegression, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "cannot evaluate on an empty set");
        // Stage the index set example-major and score it through the
        // batch GEMM kernel (bitwise identical to per-example `predict`).
        let d = self.pool.dim();
        let mut xs = vec![0.0; indices.len() * d];
        for (si, &i) in indices.iter().enumerate() {
            xs[si * d..(si + 1) * d].copy_from_slice(self.pool.x(i));
        }
        let mut scores = vec![0.0; indices.len()];
        model.predict_batch_into(&xs, &mut scores);
        let labels: Vec<bool> = indices.iter().map(|&i| self.pool.value(i) > 0.5).collect();
        roc_auc(&scores, &labels)
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        "synthetic-ridge"
    }

    fn scale_label(&self) -> &'static str {
        self.scale.label()
    }

    fn metric_name(&self) -> &'static str {
        "AUC"
    }

    fn search_space(&self) -> &SearchSpace {
        &self.space
    }

    fn default_params(&self) -> &[f64] {
        &self.defaults
    }

    fn active_sources(&self) -> &[VarianceSource] {
        &[VarianceSource::DataSplit, VarianceSource::HyperOpt]
    }

    fn run_with_params(&self, params: &[f64], seeds: &SeedAssignment) -> f64 {
        let split = self.split(seeds.seed_of(VarianceSource::DataSplit));
        let model = self.fit(params, &split.train_valid());
        self.auc(&model, split.test())
    }

    fn run_valid_test(&self, params: &[f64], seeds: &SeedAssignment) -> (f64, f64) {
        let split = self.split(seeds.seed_of(VarianceSource::DataSplit));
        let model = self.fit(params, split.train());
        (
            self.auc(&model, split.valid()),
            self.auc(&model, split.test()),
        )
    }

    fn run_valid(&self, params: &[f64], seeds: &SeedAssignment) -> f64 {
        let split = self.split(seeds.seed_of(VarianceSource::DataSplit));
        let model = self.fit(params, split.train());
        self.auc(&model, split.valid())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_workload_beats_chance_and_reproduces() {
        let w = LinearWorkload::new(Scale::Test);
        let seeds = SeedAssignment::all_fixed(3);
        let params = w.default_params().to_vec();
        let a = w.run_with_params(&params, &seeds);
        assert!(a > 0.55 && a <= 1.0, "accuracy {a}");
        assert_eq!(a, w.run_with_params(&params, &seeds), "not reproducible");
        let (valid, test) = w.run_valid_test(&params, &seeds);
        assert!(valid > 0.5 && test > 0.5);
    }

    #[test]
    fn linear_active_sources_perturb_and_inactive_do_not() {
        let w = LinearWorkload::new(Scale::Test);
        let base = SeedAssignment::all_fixed(7);
        let params = w.default_params().to_vec();
        let reference = w.run_with_params(&params, &base);
        for src in [VarianceSource::DataSplit, VarianceSource::WeightsInit] {
            let changed = (0..5)
                .any(|v| w.run_with_params(&params, &base.with_varied(src, 100 + v)) != reference);
            assert!(changed, "active source {src} never changed the outcome");
        }
        for src in [
            VarianceSource::Dropout,
            VarianceSource::DataAugment,
            VarianceSource::NumericalNoise,
        ] {
            for v in 0..3 {
                assert_eq!(
                    w.run_with_params(&params, &base.with_varied(src, 200 + v)),
                    reference,
                    "inactive source {src} changed the outcome"
                );
            }
        }
    }

    #[test]
    fn synthetic_workload_is_splitonly_stochastic() {
        let w = SyntheticWorkload::new(Scale::Test);
        let base = SeedAssignment::all_fixed(5);
        let params = w.default_params().to_vec();
        let reference = w.run_with_params(&params, &base);
        assert!(reference > 0.6 && reference <= 1.0, "AUC {reference}");
        // The split moves the measure...
        let moved = (0..5).any(|v| {
            w.run_with_params(
                &params,
                &base.with_varied(VarianceSource::DataSplit, 50 + v),
            ) != reference
        });
        assert!(moved, "data split must perturb the closed-form fit");
        // ...and nothing else does.
        for src in [
            VarianceSource::WeightsInit,
            VarianceSource::DataOrder,
            VarianceSource::Dropout,
            VarianceSource::DataAugment,
            VarianceSource::NumericalNoise,
        ] {
            assert_eq!(
                w.run_with_params(&params, &base.with_varied(src, 900)),
                reference,
                "source {src} must be inert for a closed-form fit"
            );
        }
    }

    #[test]
    fn workloads_tune_end_to_end() {
        for w in [
            &LinearWorkload::new(Scale::Test) as &dyn Workload,
            &SyntheticWorkload::new(Scale::Test),
        ] {
            let seeds = SeedAssignment::all_fixed(9);
            let result = crate::hopt::run_pipeline(
                w,
                &seeds,
                crate::HpoAlgorithm::RandomSearch,
                3,
                &crate::MeasureCache::disabled(),
            );
            assert!(
                result.test_metric > 0.5 && result.test_metric <= 1.0,
                "{}: {}",
                w.name(),
                result.test_metric
            );
            assert_eq!(result.best_params.len(), w.search_space().len());
            assert_eq!(result.fits, 4);
        }
    }
}
