//! An executable model of the complete ML benchmarking process.
//!
//! This crate turns Section 2.1 of *Accounting for Variance in Machine
//! Learning Benchmarks* into running code:
//!
//! * [`VarianceSource`] enumerates the paper's ξ = ξ_O ∪ ξ_H sources
//!   (data split, data order, augmentation, weight init, dropout, numerical
//!   noise, hyperparameter optimization), and [`SeedAssignment`] gives each
//!   one an independent seed that can be held fixed or randomized — the
//!   paper's §2.2 experimental design;
//! * [`CaseStudy`] packages a complete learning pipeline — data pool,
//!   out-of-bootstrap splitting, model architecture, training procedure
//!   `Opt(S_t, λ; ξ_O)`, search space, and metric — for each of the five
//!   paper tasks (see `DESIGN.md` for the substitution table);
//! * [`Workload`] is the object-safe abstraction every estimator works
//!   through: any pipeline exposing a name, metric, search space, active
//!   sources and the two measurement entry points plugs into the whole
//!   stack ([`CaseStudy`] is one implementation;
//!   [`workloads::LinearWorkload`] and [`workloads::SyntheticWorkload`]
//!   prove the trait over non-MLP model families);
//! * [`HpoAlgorithm`] + [`hopt`] implement `HOpt(S_tv; ξ_O, ξ_H)`
//!   (Eq. 2) with random search, noisy grid search, or Bayesian
//!   optimization, generically over any workload;
//! * [`run_pipeline`] is the complete pipeline `P(S_tv)` of Eq. 3: tune,
//!   retrain on train+valid, measure on the held-out test set;
//! * [`cache::MeasureCache`] memoizes case-study score matrices
//!   content-addressed by (case study, scale, randomization set, budget,
//!   seed tree), so the figure artifacts share measurements instead of
//!   recomputing them (optionally persisted via `VARBENCH_CACHE_DIR`),
//!   and keeps a bounded, memory-only memo of single fits that [`hopt`]
//!   and [`run_pipeline`] route their trials and retrains through;
//! * [`lease`] implements crash-safe work leases *beside* those records
//!   (atomic create-claim, generation stamps, driver reclaim) — the
//!   coordination substrate of the `varbench worker` fleet — and
//!   [`faultpoint`] provides the deterministic fault-injection points
//!   its crash tests are built on (no-ops in release builds unless the
//!   `chaos` feature is enabled).
//!
//! # Example
//!
//! ```
//! use varbench_pipeline::{CaseStudy, Scale, SeedAssignment, VarianceSource};
//!
//! let cs = CaseStudy::glue_rte_bert(Scale::Test);
//! let seeds = SeedAssignment::all_fixed(1);
//! // Train with default hyperparameters and measure test accuracy.
//! let perf = cs.run_with_params(&cs.default_params().to_vec(), &seeds);
//! assert!(perf > 0.4 && perf <= 1.0);
//!
//! // Vary ONLY the weight-initialization seed: performance fluctuates.
//! let varied = seeds.with_varied(VarianceSource::WeightsInit, 999);
//! let perf2 = cs.run_with_params(&cs.default_params().to_vec(), &varied);
//! assert_ne!(perf, perf2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod case_study;
pub mod faultpoint;
mod hopt;
pub mod lease;
pub mod measure;
mod variance;
pub mod workload;
pub mod workloads;

pub use cache::{gc_dir, CacheStats, FitStats, GcReport, MeasureCache, MeasureKey, MeasureKind};
pub use case_study::{CaseStudy, Scale, SplitSpec};
pub use hopt::{hopt, run_pipeline, HpoAlgorithm, PipelineResult};
pub use measure::MetricKind;
pub use variance::{SeedAssignment, VarianceSource};
pub use workload::Workload;
pub use workloads::{LinearWorkload, SyntheticWorkload};
