//! The benchmark suites, shared by the `cargo bench` targets (each
//! `benches/*.rs` is a thin wrapper) and the `varbench bench` CLI
//! subcommand — so the perf trajectory in `BENCH_*.json` is reproducible
//! from the shipped binary without cargo.

use crate::timing::{black_box, Harness};
use varbench_core::compare::compare_paired;
use varbench_core::ctx::RunContext;
use varbench_core::estimator::{fix_hopt_estimator, ideal_estimator, Randomize};
use varbench_core::simulation::{detection_study, DetectionConfig, SimulatedTask};
use varbench_data::augment::Identity;
use varbench_data::synth::{binary_overlap, BinaryOverlapConfig};
use varbench_hpo::{
    minimize, BayesOpt, BayesOptConfig, Dim, NoisyGridSearch, RandomSearch, SearchSpace,
};
use varbench_linalg::{Cholesky, Matrix};
use varbench_models::linear::RidgeRegression;
use varbench_models::{Mlp, MlpConfig, PredictBuffer, TrainConfig, TrainSeeds};
use varbench_pipeline::{CaseStudy, HpoAlgorithm, Scale, SeedAssignment};
use varbench_rng::{Rng, SeedTree};
use varbench_stats::bootstrap::percentile_ci_prob_outperform;
use varbench_stats::describe::mean;
use varbench_stats::power::noether_sample_size;
use varbench_stats::tests::mann_whitney::mann_whitney_u;
use varbench_stats::tests::shapiro_wilk::shapiro_wilk;
use varbench_stats::tests::Alternative;
use varbench_stats::{standard_normal_quantile, Normal};

/// A suite body: fills a [`Harness`] with its benchmarks.
pub type SuiteFn = fn(&mut Harness);

/// Every suite, in the order `varbench bench` runs them.
pub const SUITES: &[(&str, SuiteFn)] = &[
    ("linalg", linalg),
    ("gemm", gemm),
    ("stats", stats),
    ("bootstrap_par", bootstrap_par),
    ("models", models),
    ("eval", eval),
    ("estimators", estimators),
    ("compare", compare),
    ("hpo", hpo),
    ("serve", serve),
];

/// Looks up a suite body by name.
pub fn find(name: &str) -> Option<SuiteFn> {
    SUITES.iter().find(|(n, _)| *n == name).map(|&(_, f)| f)
}

fn sample(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.normal(0.0, 1.0)).collect()
}

/// Dense kernels: matmul (plain and transpose-aware), matvec, Cholesky.
pub fn linalg(c: &mut Harness) {
    let n = 64;
    let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 17) as f64 * 0.01).sin());
    let b = Matrix::from_fn(n, n, |i, j| ((i * 13 + j * 7) as f64 * 0.02).cos());

    c.bench_function("matmul_n64", |bch| {
        bch.iter(|| black_box(&a).matmul(black_box(&b)))
    });

    c.bench_function("matmul_transb_n64", |bch| {
        bch.iter(|| black_box(&a).matmul_transb(black_box(&b)))
    });

    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
    let mut out = vec![0.0; n];
    c.bench_function("matvec_into_n64", |bch| {
        bch.iter(|| {
            black_box(&a).matvec_into(black_box(&x), &mut out);
            out[0]
        })
    });

    // SPD matrix for factorization/solve.
    let mut spd = a.matmul_transb(&a);
    spd.add_diagonal(1.0);
    c.bench_function("cholesky_factor_n64", |bch| {
        bch.iter(|| Cholesky::new(black_box(&spd)).expect("SPD"))
    });

    let chol = Cholesky::new(&spd).expect("SPD");
    c.bench_function("cholesky_solve_n64", |bch| {
        bch.iter(|| chol.solve(black_box(&x)))
    });
}

/// The batch-GEMM training kernels, at the shapes `Mlp::train` drives
/// them with on the default architecture (batch 32, 16 → 32 → 2 net).
pub fn gemm(c: &mut Harness) {
    use varbench_linalg::{compact_nonzero, gemm_col_nz_into, gemm_rows_into, gemm_transb_into};

    let (b, d, m) = (32usize, 16usize, 32usize);
    let x: Vec<f64> = (0..b * d).map(|i| (i as f64 * 0.23).sin()).collect();
    let w: Vec<f64> = (0..m * d).map(|i| (i as f64 * 0.71).cos()).collect();
    let mut wt = vec![0.0; m * d];
    for o in 0..m {
        for k in 0..d {
            wt[k * m + o] = w[o * d + k];
        }
    }
    let bias: Vec<f64> = (0..m).map(|i| i as f64 * 0.01).collect();
    let mut out = vec![0.0; b * m];
    // The hidden-layer forward: 32 example rows through 16 → 32.
    c.bench_function("gemm_rows_fwd_b32_16x32", |bch| {
        bch.iter(|| {
            gemm_rows_into(black_box(&x), black_box(&wt), &bias, m, &mut out);
            out[0]
        })
    });

    // The 2-logit output head: 32 example rows through 32 → 2.
    let act: Vec<f64> = (0..b * m)
        .map(|i| ((i as f64 * 0.11).sin()).max(0.0))
        .collect();
    let w2: Vec<f64> = (0..2 * m).map(|i| (i as f64 * 0.31).cos()).collect();
    let bias2 = [0.05, -0.05];
    let mut out2 = vec![0.0; b * 2];
    c.bench_function("gemm_transb_head_b32_32x2", |bch| {
        bch.iter(|| {
            gemm_transb_into(black_box(&act), black_box(&w2), &bias2, 2, &mut out2);
            out2[0]
        })
    });

    // The gradient pass: 32 output rows of Δᵀ·X with ReLU-sparse deltas
    // (~half zero), deltas read strided from the example-major slab.
    let deltas: Vec<f64> = (0..b * m)
        .map(|i| {
            if (i * 7) % 13 < 6 {
                0.0
            } else {
                (i as f64 * 0.17).sin()
            }
        })
        .collect();
    let mut idx = vec![0usize; b];
    let mut col = vec![0.0; b];
    let mut grow = vec![0.0; d];
    c.bench_function("gemm_col_nz_grad_b32_32x16", |bch| {
        bch.iter(|| {
            let mut acc = 0.0;
            for o in 0..m {
                for (si, cv) in col.iter_mut().enumerate() {
                    *cv = deltas[si * m + o];
                }
                let nnz = compact_nonzero(&col, &mut idx);
                acc += gemm_col_nz_into(
                    black_box(&deltas),
                    m,
                    o,
                    &idx[..nnz],
                    black_box(&x),
                    d,
                    &mut grow,
                );
            }
            acc
        })
    });
}

/// Statistical primitives.
pub fn stats(c: &mut Harness) {
    c.bench_function("normal_quantile", |b| {
        b.iter(|| standard_normal_quantile(black_box(0.975)))
    });

    c.bench_function("normal_cdf", |b| {
        let n = Normal::standard();
        b.iter(|| n.cdf(black_box(1.3)))
    });

    let a = sample(50, 1);
    let bb = sample(50, 2);
    c.bench_function("mann_whitney_n50", |b| {
        b.iter(|| mann_whitney_u(black_box(&a), black_box(&bb), Alternative::TwoSided))
    });

    let xs = sample(100, 3);
    c.bench_function("shapiro_wilk_n100", |b| {
        b.iter(|| shapiro_wilk(black_box(&xs)).unwrap())
    });

    let pa = sample(29, 4);
    let pb = sample(29, 5);
    c.bench_function("bootstrap_ci_prob_outperform_k29_r500", |b| {
        b.iter(|| {
            let mut rng = Rng::seed_from_u64(6);
            percentile_ci_prob_outperform(black_box(&pa), black_box(&pb), 500, 0.05, &mut rng)
        })
    });

    c.bench_function("noether_sample_size", |b| {
        b.iter(|| noether_sample_size(black_box(0.75), 0.05, 0.05))
    });

    let big = sample(10_000, 7);
    c.bench_function("mean_n10000", |b| b.iter(|| mean(black_box(&big))));
}

/// The percentile bootstrap behind every `P(A > B)` comparison (k = 50
/// pairs, 1000 resamples). The suite keeps its old name so the committed
/// `BENCH_*.json` snapshots still line up with it.
pub fn bootstrap_par(c: &mut Harness) {
    let mut gen = Rng::seed_from_u64(9);
    let a: Vec<f64> = (0..50).map(|_| gen.normal(0.76, 0.02)).collect();
    let b: Vec<f64> = (0..50).map(|_| gen.normal(0.75, 0.02)).collect();

    c.bench_function("bootstrap_serial_k50_r1000", |bch| {
        bch.iter(|| {
            let mut rng = Rng::seed_from_u64(10);
            percentile_ci_prob_outperform(black_box(&a), black_box(&b), 1000, 0.05, &mut rng)
        })
    });
}

/// Model training and inference.
pub fn models(c: &mut Harness) {
    let mut rng = Rng::seed_from_u64(1);
    let ds = binary_overlap(
        &BinaryOverlapConfig {
            n: 500,
            dim: 16,
            separation: 2.0,
            ..Default::default()
        },
        &mut rng,
    );

    c.bench_function("mlp_train_1epoch_n500", |b| {
        b.iter(|| {
            let mut seeds = TrainSeeds::from_tree(&SeedTree::new(2));
            Mlp::train(
                &MlpConfig::default(),
                &TrainConfig {
                    epochs: 1,
                    ..Default::default()
                },
                black_box(&ds),
                &Identity,
                &mut seeds,
            )
        })
    });

    let mut seeds = TrainSeeds::from_tree(&SeedTree::new(3));
    let mlp = Mlp::train(
        &MlpConfig::default(),
        &TrainConfig {
            epochs: 2,
            ..Default::default()
        },
        &ds,
        &Identity,
        &mut seeds,
    );
    let x = ds.x(0).to_vec();
    c.bench_function("mlp_predict", |b| {
        b.iter(|| mlp.predict_class(black_box(&x)))
    });

    // The allocation-free evaluation hot path.
    let mut buf = PredictBuffer::new();
    c.bench_function("mlp_predict_buffered", |b| {
        b.iter(|| mlp.predict_class_with(black_box(&x), &mut buf))
    });

    // Regression data for ridge.
    let mut rng = Rng::seed_from_u64(4);
    let n = 400;
    let d = 16;
    let mut features = Vec::with_capacity(n * d);
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        let mut s = 0.0;
        for j in 0..d {
            let v = rng.normal(0.0, 1.0);
            s += v * (j as f64 * 0.1);
            features.push(v);
        }
        values.push(s);
    }
    let reg = varbench_data::Dataset::new(features, d, varbench_data::Targets::Values(values));
    c.bench_function("ridge_fit_n400_d16", |b| {
        b.iter(|| RidgeRegression::fit(black_box(&reg), 1e-3))
    });
}

/// The batched inference path: the same 64-example scoring work driven
/// per example (warm buffers, the pre-batching hot path) and through the
/// batch-GEMM kernels — the pair is the honest A/B for the eval rewrite,
/// since both sides do identical arithmetic and produce bit-identical
/// outputs. Plus the metric evaluator that sits on top of it.
pub fn eval(c: &mut Harness) {
    use varbench_models::ensemble::{EnsembleBuffer, MlpEnsemble};
    use varbench_models::EvalWorkspace;
    use varbench_pipeline::MetricKind;

    const BATCH: usize = 64;
    let mut rng = Rng::seed_from_u64(1);
    let ds = binary_overlap(
        &BinaryOverlapConfig {
            n: 500,
            dim: 16,
            separation: 2.0,
            ..Default::default()
        },
        &mut rng,
    );
    let mut seeds = TrainSeeds::from_tree(&SeedTree::new(3));
    let mlp = Mlp::train(
        &MlpConfig::default(),
        &TrainConfig {
            epochs: 2,
            ..Default::default()
        },
        &ds,
        &Identity,
        &mut seeds,
    );

    // A side: one warm-buffer forward pass per example, 64 examples.
    let mut buf = PredictBuffer::new();
    c.bench_function("mlp_predict_loop64", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..BATCH {
                acc += mlp.predict_class_with(black_box(ds.x(i)), &mut buf);
            }
            acc
        })
    });

    // B side: the same 64 examples through one batched forward pass.
    let mut ws = EvalWorkspace::new();
    let mut classes: Vec<usize> = Vec::new();
    c.bench_function("mlp_predict_batch64", |b| {
        b.iter(|| {
            mlp.predict_classes_batch_into(
                BATCH,
                |si, row| row.copy_from_slice(black_box(ds.x(si))),
                &mut ws,
                &mut classes,
            );
            classes[0]
        })
    });

    // The metric evaluator over the full pool (chunked batched forward).
    let indices: Vec<usize> = (0..ds.len()).collect();
    c.bench_function("eval_accuracy_n500", |b| {
        b.iter(|| MetricKind::Accuracy.evaluate(black_box(&mlp), black_box(&ds), &indices))
    });

    // Ensemble scoring: per-example warm-buffer loop vs one batched pass.
    let reg = {
        let mut r = Rng::seed_from_u64(5);
        varbench_data::synth::binding_regression(
            &varbench_data::synth::BindingConfig {
                n: 500,
                dim: 16,
                ..Default::default()
            },
            &mut r,
        )
    };
    let ens = MlpEnsemble::train(
        3,
        &MlpConfig::default(),
        &TrainConfig {
            epochs: 2,
            ..Default::default()
        },
        &reg,
        &Identity,
        &SeedTree::new(6),
    );
    let mut eb = EnsembleBuffer::new();
    c.bench_function("ensemble_value_loop64", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..BATCH {
                acc += ens.predict_value_with(black_box(reg.x(i)), &mut eb);
            }
            acc
        })
    });
    let mut vals: Vec<f64> = Vec::new();
    c.bench_function("ensemble_value_batch64", |b| {
        b.iter(|| {
            ens.predict_values_batch_into(
                BATCH,
                |si, row| row.copy_from_slice(black_box(reg.x(si))),
                &mut eb,
                &mut vals,
            );
            vals[0]
        })
    });

    // Ridge scoring: per-example dot products vs one transposed GEMM.
    let ridge = {
        let mut r = Rng::seed_from_u64(7);
        let (n, d) = (400usize, 16usize);
        let mut features = Vec::with_capacity(n * d);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let mut s = 0.0;
            for j in 0..d {
                let v = r.normal(0.0, 1.0);
                s += v * (j as f64 * 0.1);
                features.push(v);
            }
            values.push(s);
        }
        let reg_ds =
            varbench_data::Dataset::new(features, d, varbench_data::Targets::Values(values));
        RidgeRegression::fit(&reg_ds, 1e-3)
    };
    let staged: Vec<f64> = (0..BATCH * 16).map(|i| (i as f64 * 0.17).sin()).collect();
    c.bench_function("ridge_predict_loop64", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for row in staged.chunks_exact(16) {
                acc += ridge.predict(black_box(row));
            }
            acc
        })
    });
    let mut scores = vec![0.0; BATCH];
    c.bench_function("ridge_predict_batch64", |b| {
        b.iter(|| {
            ridge.predict_batch_into(black_box(&staged), &mut scores);
            scores[0]
        })
    });
}

/// Performance estimators on Test-scale pipelines (the end-to-end cost the
/// library's users pay).
pub fn estimators(c: &mut Harness) {
    let cs = CaseStudy::glue_rte_bert(Scale::Test);

    c.bench_function("pipeline_single_training", |b| {
        let seeds = SeedAssignment::all_fixed(1);
        let params = cs.default_params().to_vec();
        b.iter(|| cs.run_with_params(&params, &seeds))
    });

    c.bench_function("ideal_estimator_k2_t3", |b| {
        let ctx = RunContext::serial();
        b.iter(|| ideal_estimator(&cs, 2, HpoAlgorithm::RandomSearch, 3, 1, &ctx))
    });

    c.bench_function("fix_hopt_estimator_k4_t3_all", |b| {
        let ctx = RunContext::serial();
        b.iter(|| {
            fix_hopt_estimator(
                &cs,
                4,
                HpoAlgorithm::RandomSearch,
                3,
                1,
                0,
                Randomize::All,
                &ctx,
            )
        })
    });

    c.bench_function("hopt_bayes_budget6", |b| {
        let seeds = SeedAssignment::all_fixed(2);
        b.iter(|| cs.hopt(&seeds, HpoAlgorithm::BayesOpt, 6))
    });
}

/// Comparison/decision machinery.
pub fn compare(c: &mut Harness) {
    let mut rng = Rng::seed_from_u64(1);
    let a: Vec<f64> = (0..29).map(|_| rng.normal(0.76, 0.02)).collect();
    let b: Vec<f64> = (0..29).map(|_| rng.normal(0.75, 0.02)).collect();

    c.bench_function("compare_paired_k29_r1000", |bch| {
        bch.iter(|| {
            let mut r = Rng::seed_from_u64(2);
            compare_paired(black_box(&a), black_box(&b), 0.75, 0.05, 1000, &mut r)
        })
    });

    c.bench_function("detection_point_20sims", |bch| {
        let task = SimulatedTask::new(0.02, 0.01, 0.015);
        let config = DetectionConfig {
            k: 50,
            n_simulations: 20,
            gamma: 0.75,
            delta: 0.04,
            alpha: 0.05,
            resamples: 100,
        };
        bch.iter(|| detection_study(black_box(&task), &[0.75], &config, 3))
    });
}

/// The serve subsystem's request path: `route()` driven directly (no
/// sockets), so the numbers isolate dispatch + protocol + cache lookup
/// from kernel networking. The warm request benches are the headline:
/// after the warm-up request, `route_study_warm_cache`,
/// `route_run_warm_cache` and (after its first iteration)
/// `route_workloads` time response-memo replays, which neither parse
/// nor look anything up in the cache.
pub fn serve(c: &mut Harness) {
    use crate::protocol::StudyRequest;
    use crate::serve::{route, ServeState};
    use varbench_core::json::Json;

    let state = ServeState::new(RunContext::serial_cached());

    c.bench_function("route_health", |b| {
        b.iter(|| route(black_box(&state), "GET", "/health", ""))
    });

    c.bench_function("route_workloads", |b| {
        b.iter(|| route(black_box(&state), "GET", "/v1/workloads", ""))
    });

    let study = r#"{"workload":"synthetic-ridge","effort":"test","seeds":4,"gamma":0.75}"#;
    c.bench_function("study_request_parse", |b| {
        b.iter(|| StudyRequest::from_json(&Json::parse(black_box(study)).unwrap()))
    });

    // Warm the shared cache and the response memo once, then measure
    // replays — the steady state of a long-running server.
    let (status, _) = route(&state, "POST", "/v1/study", study);
    assert_eq!(status, 200, "warmup request succeeds");
    c.bench_function("route_study_warm_cache", |b| {
        b.iter(|| route(black_box(&state), "POST", "/v1/study", black_box(study)))
    });

    let run = r#"{"artifacts":["workload-synth"],"effort":"test"}"#;
    let (status, _) = route(&state, "POST", "/v1/run", run);
    assert_eq!(status, 200, "warmup request succeeds");
    c.bench_function("route_run_warm_cache", |b| {
        b.iter(|| route(black_box(&state), "POST", "/v1/run", black_box(run)))
    });

    // Full socket round-trips against a live server on loopback: one
    // reused keep-alive connection vs a fresh connection per request —
    // the handshake + teardown cost the keep-alive path amortizes away.
    // (HttpClient transparently reconnects when the server's per-
    // connection request cap closes the session mid-bench.)
    {
        use crate::serve::{http_request, HttpClient, Server};

        let server = Server::bind("127.0.0.1:0", ServeState::new(RunContext::serial_cached()))
            .expect("bind loopback");
        let addr = server.local_addr().expect("bound addr");
        let handle = std::thread::spawn(move || server.run());

        let mut client = HttpClient::connect(addr).expect("connect to own server");
        c.bench_function("http_keepalive_request", |b| {
            b.iter(|| {
                client
                    .request("GET", "/health", None)
                    .expect("keep-alive health")
            })
        });
        drop(client);

        c.bench_function("http_oneshot_request", |b| {
            b.iter(|| http_request(addr, "GET", "/health", None).expect("one-shot health"))
        });

        let _ = http_request(addr, "POST", "/v1/shutdown", None);
        let _ = handle.join();
    }
}

/// Hyperparameter optimizers.
pub fn hpo(c: &mut Harness) {
    fn space() -> SearchSpace {
        SearchSpace::new(vec![
            ("lr".into(), Dim::log_uniform(1e-4, 1e0)),
            ("wd".into(), Dim::log_uniform(1e-6, 1e-2)),
            ("mom".into(), Dim::uniform(0.5, 0.99)),
        ])
    }

    fn quadratic(p: &[f64]) -> f64 {
        (p[0].ln() - (1e-2f64).ln()).powi(2) + (p[2] - 0.9).powi(2)
    }

    c.bench_function("random_search_30_trials", |b| {
        b.iter(|| {
            let mut opt = RandomSearch::new(space(), 1);
            minimize(&mut opt, 30, |p| quadratic(black_box(p)))
        })
    });

    c.bench_function("noisy_grid_construction_27pts", |b| {
        b.iter(|| NoisyGridSearch::new(black_box(space()), 3, 2))
    });

    c.bench_function("bayesopt_30_trials", |b| {
        b.iter(|| {
            let mut opt = BayesOpt::new(space(), BayesOptConfig::default(), 3);
            minimize(&mut opt, 30, |p| quadratic(black_box(p)))
        })
    });
}
