//! Variance-aware benchmark estimators and decision criteria — the primary
//! contribution of *Accounting for Variance in Machine Learning Benchmarks*
//! (Bouthillier et al., MLSys 2021), as a reusable library.
//!
//! # What this crate provides
//!
//! * [`estimator`] — Algorithm 1 (`IdealEst`: re-run hyperparameter
//!   optimization for every sample, O(kT) fits) and Algorithm 2
//!   (`FixHOptEst`: tune once, then randomize a ξ_O subset, O(k+T) fits),
//!   with the `Init` / `Data` / `All` randomization variants compared in
//!   the paper's Fig. 5, plus the per-source variance study of Fig. 1;
//! * [`decompose`] — the bias / variance / correlation-ρ / MSE
//!   decomposition of Eqs. 6–8 (Fig. H.5);
//! * [`compare`] — the three decision criteria of Section 4: single-point
//!   comparison, average comparison with threshold δ, and the recommended
//!   *probability of outperforming* `P(A > B) ≥ γ` tested with
//!   percentile-bootstrap confidence intervals (Appendix C);
//! * [`simulation`] — the calibrated two-stage normal simulation of §4.2
//!   used to characterize the error rates of those criteria (Figs. 6 and
//!   I.6);
//! * [`ctx`] — [`RunContext`], the one execution environment every
//!   estimator takes (executor + measurement cache; serial + no-op cache
//!   by default);
//! * [`study`] — the fluent [`Study`] builder: from any
//!   `varbench_pipeline::Workload` to a finished variance report;
//! * [`sample_size`] — Noether planning for `P(A > B)` tests (Fig. C.1);
//! * [`retry`] — the bounded exponential-backoff [`retry::RetryPolicy`]
//!   shared by the worker-fleet supervisor and the `query` client
//!   (pure `Duration` schedule; no wallclock reads);
//! * [`json`] — the dependency-free JSON value model, parser and
//!   writer behind every JSON document the workspace reads or writes
//!   (numbers kept exact);
//! * [`report`] — structured experiment reports (text/JSON/CSV) and the
//!   aligned-table formatter behind them;
//! * [`exec`] — a deterministic scoped-thread work-stealing runner
//!   ([`exec::Runner::map_seeds`]) that fans estimator sampling, the
//!   simulation grid and the figure configs out across cores with
//!   bit-identical, seed-ordered results.
//!
//! # The paper's recommended workflow
//!
//! ```
//! use varbench_core::compare::{compare_paired, Decision};
//! use varbench_pipeline::{CaseStudy, Scale, SeedAssignment};
//! use varbench_rng::Rng;
//!
//! let cs = CaseStudy::glue_rte_bert(Scale::Test);
//! // Candidate A: default hyperparameters; candidate B: smaller init std.
//! let a_params = cs.default_params().to_vec();
//! let mut b_params = a_params.clone();
//! b_params[2] = 0.05;
//!
//! // Paired runs over k seeds (every variation source randomized — the
//! // paper's recommendation 1).
//! let k = 5; // use sample_size::recommended() in real studies
//! let (mut a, mut b) = (Vec::new(), Vec::new());
//! for i in 0..k {
//!     let seeds = SeedAssignment::all_random(42, i);
//!     a.push(cs.run_with_params(&a_params, &seeds));
//!     b.push(cs.run_with_params(&b_params, &seeds));
//! }
//! let mut rng = Rng::seed_from_u64(7);
//! let test = compare_paired(&a, &b, 0.75, 0.05, 200, &mut rng);
//! assert!(matches!(
//!     test.decision,
//!     Decision::NotSignificant | Decision::SignificantNotMeaningful | Decision::SignificantAndMeaningful
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checklist;
pub mod compare;
pub mod ctx;
pub mod decompose;
pub mod estimator;
pub mod exec;
pub mod json;
pub mod multiple_datasets;
pub mod procedure;
pub mod report;
pub mod retry;
pub mod sample_size;
pub mod simulation;
pub mod study;

pub use ctx::RunContext;
pub use study::Study;
