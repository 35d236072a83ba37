//! Golden bitwise tests for the batched inference path: every batched
//! kernel must reproduce its per-example reference loop bit for bit, for
//! every head, across architecture thresholds (hidden widths below and
//! above the 8-output kernel dispatch cut) and batch-size tails (the
//! GEMM kernels block examples four at a time, so sizes straddling the
//! 4-row blocks exercise both the blocked pass and the remainder).
//!
//! This is the eval-path analog of the train-path guarantee in
//! `crates/linalg/tests/kernel_identity.rs`: batching may interleave
//! independent example chains, never reorder the accumulation of a
//! single output element.

use varbench_data::augment::{Augment, FlipJitter, GaussianJitter, Identity};
use varbench_data::synth::{
    binary_overlap, binding_regression, mask_task, BinaryOverlapConfig, BindingConfig,
    MaskTaskConfig,
};
use varbench_data::{Dataset, Targets};
use varbench_models::ensemble::{EnsembleBuffer, MlpEnsemble};
use varbench_models::linear::{LogisticRegression, RidgeRegression};
use varbench_models::Init;
use varbench_models::{EvalWorkspace, Mlp, MlpConfig, PredictBuffer, TrainConfig, TrainSeeds};
use varbench_rng::{Rng, SeedTree};

/// Batch sizes straddling the 4-example GEMM blocks and the 64-example
/// evaluation chunk: singletons, a partial block, exact blocks, and
/// block + tail.
const BATCH_SIZES: &[usize] = &[1, 2, 3, 4, 5, 7, 8, 63, 64, 65];

fn small_train() -> TrainConfig {
    TrainConfig {
        epochs: 3,
        ..Default::default()
    }
}

/// Draws `n` random pool indices (with replacement, so tails repeat
/// examples — irrelevant for identity, convenient for size control).
fn draw_indices(rng: &mut Rng, pool_len: usize, n: usize) -> Vec<usize> {
    (0..n).map(|_| rng.range_usize(pool_len)).collect()
}

#[test]
fn softmax_batched_classes_and_probas_match_per_example_bitwise() {
    let mut data_rng = Rng::seed_from_u64(11);
    let ds = binary_overlap(
        &BinaryOverlapConfig {
            n: 120,
            dim: 11,
            separation: 1.5,
            ..Default::default()
        },
        &mut data_rng,
    );
    // Hidden widths straddle the 8-output kernel-dispatch threshold:
    // no hidden layer (2-logit head only), narrow (5 < 8), wide (16 ≥ 8),
    // and a mixed stack with both regimes plus odd widths.
    for hidden in [vec![], vec![5], vec![16], vec![9, 3]] {
        let cfg = MlpConfig {
            hidden: hidden.clone(),
            ..Default::default()
        };
        let mut seeds = TrainSeeds::from_tree(&SeedTree::new(21));
        let mlp = Mlp::train(&cfg, &small_train(), &ds, &Identity, &mut seeds);
        let mut idx_rng = Rng::seed_from_u64(31);
        let mut ws = EvalWorkspace::new();
        let mut buf = PredictBuffer::new();
        let mut classes = Vec::new();
        let mut proba = Vec::new();
        for &n in BATCH_SIZES {
            let idx = draw_indices(&mut idx_rng, ds.len(), n);
            mlp.predict_classes_batch_into(
                n,
                |si, row| row.copy_from_slice(ds.x(idx[si])),
                &mut ws,
                &mut classes,
            );
            let probas = mlp.predict_proba_batch_into(
                n,
                |si, row| row.copy_from_slice(ds.x(idx[si])),
                &mut ws,
            );
            let m = mlp.out_dim();
            for (si, &i) in idx.iter().enumerate() {
                assert_eq!(
                    classes[si],
                    mlp.predict_class_with(ds.x(i), &mut buf),
                    "class hidden={hidden:?} n={n} si={si}"
                );
                mlp.predict_proba_into(ds.x(i), &mut buf, &mut proba);
                for (j, want) in proba.iter().enumerate() {
                    assert_eq!(
                        probas[si * m + j].to_bits(),
                        want.to_bits(),
                        "proba hidden={hidden:?} n={n} si={si} j={j}"
                    );
                }
            }
        }
    }
}

#[test]
fn mse_batched_values_match_per_example_bitwise() {
    let mut data_rng = Rng::seed_from_u64(12);
    let ds = binding_regression(
        &BindingConfig {
            n: 110,
            dim: 10,
            ..Default::default()
        },
        &mut data_rng,
    );
    for hidden in [vec![6], vec![12], vec![10, 7]] {
        let cfg = MlpConfig {
            hidden: hidden.clone(),
            ..Default::default()
        };
        let mut seeds = TrainSeeds::from_tree(&SeedTree::new(22));
        let mlp = Mlp::train(&cfg, &small_train(), &ds, &Identity, &mut seeds);
        let mut idx_rng = Rng::seed_from_u64(32);
        let mut ws = EvalWorkspace::new();
        let mut buf = PredictBuffer::new();
        let mut vals = Vec::new();
        for &n in BATCH_SIZES {
            let idx = draw_indices(&mut idx_rng, ds.len(), n);
            mlp.predict_values_batch_into(
                n,
                |si, row| row.copy_from_slice(ds.x(idx[si])),
                &mut ws,
                &mut vals,
            );
            for (si, &i) in idx.iter().enumerate() {
                assert_eq!(
                    vals[si].to_bits(),
                    mlp.predict_value_with(ds.x(i), &mut buf).to_bits(),
                    "value hidden={hidden:?} n={n} si={si}"
                );
            }
        }
    }
}

#[test]
fn sigmoid_batched_masks_match_per_example_bitwise() {
    let mut data_rng = Rng::seed_from_u64(13);
    let ds = mask_task(
        &MaskTaskConfig {
            n: 90,
            dim: 9,
            mask_len: 12,
            ..Default::default()
        },
        &mut data_rng,
    );
    for hidden in [vec![7], vec![14]] {
        let cfg = MlpConfig {
            hidden: hidden.clone(),
            ..Default::default()
        };
        let mut seeds = TrainSeeds::from_tree(&SeedTree::new(23));
        let mlp = Mlp::train(&cfg, &small_train(), &ds, &Identity, &mut seeds);
        let mut idx_rng = Rng::seed_from_u64(33);
        let mut ws = EvalWorkspace::new();
        let mut buf = PredictBuffer::new();
        let mut mask = Vec::new();
        let m = mlp.out_dim();
        for &n in BATCH_SIZES {
            let idx = draw_indices(&mut idx_rng, ds.len(), n);
            let masks = mlp.predict_masks_batch_into(
                n,
                |si, row| row.copy_from_slice(ds.x(idx[si])),
                &mut ws,
            );
            for (si, &i) in idx.iter().enumerate() {
                mlp.predict_mask_into(ds.x(i), &mut buf, &mut mask);
                for (j, want) in mask.iter().enumerate() {
                    assert_eq!(
                        masks[si * m + j].to_bits(),
                        want.to_bits(),
                        "mask hidden={hidden:?} n={n} si={si} j={j}"
                    );
                }
            }
        }
    }
}

#[test]
fn ensemble_buffered_and_batched_paths_match_allocating_wrappers_bitwise() {
    let mut data_rng = Rng::seed_from_u64(14);
    let cls = binary_overlap(
        &BinaryOverlapConfig {
            n: 100,
            dim: 8,
            separation: 2.0,
            ..Default::default()
        },
        &mut data_rng,
    );
    let reg = binding_regression(
        &BindingConfig {
            n: 100,
            dim: 8,
            ..Default::default()
        },
        &mut data_rng,
    );
    let cfg = MlpConfig {
        hidden: vec![6],
        ..Default::default()
    };
    let cls_ens = MlpEnsemble::train(3, &cfg, &small_train(), &cls, &Identity, &SeedTree::new(24));
    let reg_ens = MlpEnsemble::train(3, &cfg, &small_train(), &reg, &Identity, &SeedTree::new(25));
    let mut eb = EnsembleBuffer::new();
    let mut vals = Vec::new();
    let mut idx_rng = Rng::seed_from_u64(34);
    for &n in BATCH_SIZES {
        let idx = draw_indices(&mut idx_rng, reg.len(), n);
        reg_ens.predict_values_batch_into(
            n,
            |si, row| row.copy_from_slice(reg.x(idx[si])),
            &mut eb,
            &mut vals,
        );
        for (si, &i) in idx.iter().enumerate() {
            let want = reg_ens.predict_value(reg.x(i));
            assert_eq!(
                vals[si].to_bits(),
                want.to_bits(),
                "ens value n={n} si={si}"
            );
            let with = reg_ens.predict_value_with(reg.x(i), &mut eb);
            assert_eq!(
                with.to_bits(),
                want.to_bits(),
                "ens value_with n={n} si={si}"
            );
        }
    }
    for i in 0..cls.len() {
        let want_p = cls_ens.predict_proba(cls.x(i));
        let got_p = cls_ens.predict_proba_with(cls.x(i), &mut eb).to_vec();
        for (j, (g, w)) in got_p.iter().zip(&want_p).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "ens proba i={i} j={j}");
        }
        assert_eq!(
            cls_ens.predict_class_with(cls.x(i), &mut eb),
            cls_ens.predict_class(cls.x(i)),
            "ens class i={i}"
        );
    }
}

#[test]
fn linear_batched_paths_match_per_example_bitwise() {
    let mut data_rng = Rng::seed_from_u64(15);
    let cls = binary_overlap(
        &BinaryOverlapConfig {
            n: 100,
            dim: 7,
            separation: 2.0,
            ..Default::default()
        },
        &mut data_rng,
    );
    let mut seeds = TrainSeeds::from_tree(&SeedTree::new(26));
    let logreg = LogisticRegression::train(&small_train(), &cls, &mut seeds);
    // Ridge on awkward dimensions (d = 7 exercises the k-fusion tail of
    // the transposed GEMM kernel; values from a fitted model, not toy
    // integers).
    let xs: Vec<f64> = (0..200 * 7).map(|i| (i as f64 * 0.13).sin()).collect();
    let ys: Vec<f64> = (0..200)
        .map(|r| {
            (0..7)
                .map(|k| (k as f64 + 1.0) * xs[r * 7 + k])
                .sum::<f64>()
                + 0.25
        })
        .collect();
    let ridge_ds = Dataset::new(xs, 7, Targets::Values(ys));
    let ridge = RidgeRegression::fit(&ridge_ds, 1e-6);
    let mut ws = EvalWorkspace::new();
    let mut classes = Vec::new();
    let mut idx_rng = Rng::seed_from_u64(35);
    for &n in BATCH_SIZES {
        let idx = draw_indices(&mut idx_rng, cls.len(), n);
        logreg.predict_classes_batch_into(
            n,
            |si, row| row.copy_from_slice(cls.x(idx[si])),
            &mut ws,
            &mut classes,
        );
        for (si, &i) in idx.iter().enumerate() {
            assert_eq!(
                classes[si],
                logreg.predict_class(cls.x(i)),
                "logreg n={n} si={si}"
            );
        }
        let ridx = draw_indices(&mut idx_rng, ridge_ds.len(), n);
        let mut staged = vec![0.0; n * 7];
        for (si, &i) in ridx.iter().enumerate() {
            staged[si * 7..(si + 1) * 7].copy_from_slice(ridge_ds.x(i));
        }
        let mut scores = vec![0.0; n];
        ridge.predict_batch_into(&staged, &mut scores);
        for (si, &i) in ridx.iter().enumerate() {
            assert_eq!(
                scores[si].to_bits(),
                ridge.predict(ridge_ds.x(i)).to_bits(),
                "ridge n={n} si={si}"
            );
        }
    }
}

/// FNV-1a over the bits of every training-set logit.
fn logit_digest(mlp: &Mlp, ds: &Dataset) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..ds.len() {
        for z in mlp.logits(ds.x(i)) {
            for byte in z.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn noisy_training_with_jitter_reproduces_its_pinned_logits() {
    // The stochastic training path end to end: gradient noise on every
    // weight and bias of both hidden layers and the head (pascalvoc's
    // 3e-4), per-feature input jitter (cifar's 0.3; 70 features cross a
    // 64-draw chunk) and a 10-example tail batch (90 % 16). The digests
    // pin one `normal` draw per element in stream order: any change to a
    // deviate's bits or to the order of the draws fails here.
    let mut data_rng = Rng::seed_from_u64(16);
    let ds = binary_overlap(
        &BinaryOverlapConfig {
            n: 90,
            dim: 70,
            separation: 1.5,
            ..Default::default()
        },
        &mut data_rng,
    );
    let cfg = MlpConfig {
        hidden: vec![24, 9],
        ..Default::default()
    };
    let train = TrainConfig {
        epochs: 3,
        batch_size: 16,
        grad_noise: 3e-4,
        ..Default::default()
    };
    let cases: [(&dyn Augment, u64); 2] = [
        (&GaussianJitter::new(0.3), 0xffb9_aad9_e485_4dc2),
        (&FlipJitter::new(0.5, -0.2, 0.3), 0x2da0_f11f_81a7_93c8),
    ];
    for (augment, want) in cases {
        let mut seeds = TrainSeeds::from_tree(&SeedTree::new(27));
        let mlp = Mlp::train(&cfg, &train, &ds, augment, &mut seeds);
        let got = logit_digest(&mlp, &ds);
        assert_eq!(got, want, "{augment:?}: digest {got:#018x}");
    }
}

/// FNV-1a over the bits of every training-set class probability.
fn proba_digest(predict_proba: impl Fn(&[f64]) -> Vec<f64>, ds: &Dataset) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..ds.len() {
        for p in predict_proba(ds.x(i)) {
            for byte in p.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn binary_softmax_heads_reproduce_their_pinned_training() {
    // The two-class softmax row feeds every output delta in training and
    // every probability in inference. Pinned for the two shapes that run
    // it: logistic regression (no hidden layer) and the BERT heads (one
    // 16-wide hidden layer, N(0, 0.2²) init, dropout 0.1). Overlapping
    // classes with label noise keep both logits of a row in play, and
    // 150 examples in batches of 32 end on a 22-example tail.
    let mut data_rng = Rng::seed_from_u64(17);
    let ds = binary_overlap(
        &BinaryOverlapConfig {
            n: 150,
            dim: 16,
            separation: 1.35,
            label_noise: 0.12,
            p_positive: 0.5,
        },
        &mut data_rng,
    );
    let train = TrainConfig {
        epochs: 4,
        batch_size: 32,
        learning_rate: 0.03,
        lr_gamma: 0.99,
        ..Default::default()
    };
    // `LogisticRegression` keeps its `Mlp` private: its logits come from
    // the same fit, and its probabilities must match that fit's bitwise.
    let linear = MlpConfig {
        hidden: vec![],
        init: Init::GlorotUniform,
    };
    let logreg =
        LogisticRegression::train(&train, &ds, &mut TrainSeeds::from_tree(&SeedTree::new(28)));
    let twin = Mlp::train(
        &linear,
        &train,
        &ds,
        &Identity,
        &mut TrainSeeds::from_tree(&SeedTree::new(28)),
    );
    for i in 0..ds.len() {
        let (got, want) = (logreg.predict_proba(ds.x(i)), twin.predict_proba(ds.x(i)));
        let bits = |ps: &[f64]| ps.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "logreg example {i}");
    }
    let bert = MlpConfig {
        hidden: vec![16],
        init: Init::Normal { std: 0.2 },
    };
    let bert_train = TrainConfig {
        dropout: 0.1,
        ..train.clone()
    };
    let head = Mlp::train(
        &bert,
        &bert_train,
        &ds,
        &Identity,
        &mut TrainSeeds::from_tree(&SeedTree::new(29)),
    );
    let got = [
        logit_digest(&twin, &ds),
        proba_digest(|x| logreg.predict_proba(x), &ds),
        logit_digest(&head, &ds),
        proba_digest(|x| head.predict_proba(x), &ds),
    ];
    let want = [
        0x14e9_f39a_fe42_2299,
        0xb088_81a5_5691_593f,
        0x69de_da28_ef48_c79e,
        0x2474_40f8_f29c_1c21,
    ];
    assert_eq!(got, want, "digests {got:#018x?}");
}
