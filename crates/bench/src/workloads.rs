//! The workload registry behind `varbench workloads`, `varbench serve`,
//! the worker fleet and the `workload-*` artifacts: every built-in
//! [`Workload`] the CLI can measure, resolved by name at a given scale.
//!
//! The five MLP-backed case studies and the two non-MLP workloads
//! ([`varbench_pipeline::LinearWorkload`],
//! [`varbench_pipeline::SyntheticWorkload`]) all go through the same
//! [`Study`] builder, so `varbench run workload-linear --test` produces a
//! variance profile with the exact machinery the paper figures use.
//!
//! Each built-in is constructed at most once per (workload, scale) per
//! process and then shared read-only: constructing one synthesizes its
//! dataset, which costs far more than answering a warm request from the
//! cache. Sharing is sound because a workload is immutable,
//! `Send + Sync`, and a pure function of `(params, seeds)` (the
//! [`Workload`] determinism contract), so a shared instance measures
//! exactly what a fresh one would. The memo retains at most 7 × 3
//! instances.

use std::sync::{Arc, OnceLock};

use crate::args::Effort;
use varbench_core::ctx::RunContext;
use varbench_core::report::Report;
use varbench_core::study::Study;
use varbench_pipeline::{CaseStudy, LinearWorkload, Scale, SyntheticWorkload, Workload};

/// One built-in workload: its registered name, its constructor, the
/// registry artifact that measures its variance profile (`varbench run
/// <artifact>`; the five case studies are measured by the paper-figure
/// artifacts instead), and its memoized instance per scale.
struct Registered {
    name: &'static str,
    build: fn(Scale) -> Arc<dyn Workload>,
    artifact: Option<&'static str>,
    built: [OnceLock<Arc<dyn Workload>>; 3],
}

/// A table row with empty memo slots.
const fn row(
    name: &'static str,
    build: fn(Scale) -> Arc<dyn Workload>,
    artifact: Option<&'static str>,
) -> Registered {
    Registered {
        name,
        build,
        artifact,
        built: [const { OnceLock::new() }; 3],
    }
}

/// Every built-in workload, case studies first in the paper's Fig. 1
/// column order — the order every listing shows.
static REGISTERED: [Registered; 7] = [
    row(
        "glue-rte-bert",
        |s| Arc::new(CaseStudy::glue_rte_bert(s)),
        None,
    ),
    row(
        "glue-sst2-bert",
        |s| Arc::new(CaseStudy::glue_sst2_bert(s)),
        None,
    ),
    row("mhc-mlp", |s| Arc::new(CaseStudy::mhc_mlp(s)), None),
    row(
        "pascalvoc-resnet",
        |s| Arc::new(CaseStudy::pascal_voc_resnet(s)),
        None,
    ),
    row(
        "cifar10-vgg11",
        |s| Arc::new(CaseStudy::cifar10_vgg11(s)),
        None,
    ),
    row(
        "linear-logreg",
        |s| Arc::new(LinearWorkload::new(s)),
        Some("workload-linear"),
    ),
    row(
        "synthetic-ridge",
        |s| Arc::new(SyntheticWorkload::new(s)),
        Some("workload-synth"),
    ),
];

impl Registered {
    /// The shared instance at `scale`, constructed on first use.
    /// Concurrent first lookups construct it once.
    fn at(&self, scale: Scale) -> Arc<dyn Workload> {
        let slot = match scale {
            Scale::Test => 0,
            Scale::Quick => 1,
            Scale::Full => 2,
        };
        Arc::clone(self.built[slot].get_or_init(|| (self.build)(scale)))
    }
}

/// Every built-in workload at `scale`, case studies first.
pub fn all(scale: Scale) -> Vec<Arc<dyn Workload>> {
    REGISTERED.iter().map(|r| r.at(scale)).collect()
}

/// Looks a workload up by registered name at `scale` (the serve
/// protocol's and the worker's workload resolution). An unknown name
/// constructs nothing.
pub fn find(name: &str, scale: Scale) -> Option<Arc<dyn Workload>> {
    REGISTERED
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.at(scale))
}

/// The registry artifact that measures `workload_name`'s variance
/// profile (`varbench run <artifact>`), if one exists. The five case
/// studies are measured by the paper-figure artifacts instead.
pub fn artifact_for(workload_name: &str) -> Option<&'static str> {
    REGISTERED
        .iter()
        .find(|r| r.name == workload_name)?
        .artifact
}

/// Study sizing per effort: `(seeds per source, HPO budget)`.
fn study_preset(effort: Effort) -> (usize, usize) {
    match effort {
        Effort::Test => (4, 3),
        Effort::Quick => (20, 15),
        Effort::Full => (100, 50),
    }
}

/// Runs the shared-seed study of the workload `artifact` measures (the
/// body of the `workload-*` artifacts).
fn study_report(artifact: &'static str, effort: Effort, ctx: &RunContext) -> Report {
    let workload = REGISTERED
        .iter()
        .find(|r| r.artifact == Some(artifact))
        .expect("every workload-* artifact names a registered workload")
        .at(effort.scale());
    let (seeds, budget) = study_preset(effort);
    // One shared study seed so repeated runs can share cached matrices.
    Study::new(workload.as_ref())
        .named(artifact)
        .seeds(seeds)
        .budget(budget)
        .base_seed(crate::figures::SOURCE_STUDY_SEED)
        .run(ctx)
}

/// The `workload-linear` artifact: variance profile of the
/// logistic-regression workload.
pub fn linear_report(effort: Effort, ctx: &RunContext) -> Report {
    study_report("workload-linear", effort, ctx)
}

/// The `workload-synth` artifact: variance profile of the closed-form
/// ridge workload.
pub fn synth_report(effort: Effort, ctx: &RunContext) -> Report {
    study_report("workload-synth", effort, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_seven_unique_workloads() {
        let ws = all(Scale::Test);
        assert_eq!(ws.len(), 7);
        let mut names: Vec<String> = ws.iter().map(|w| w.name().to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 7, "workload names must be unique");
        assert!(names.iter().any(|n| n == "linear-logreg"));
        assert!(names.iter().any(|n| n == "synthetic-ridge"));
        for w in &ws {
            assert_eq!(w.default_params().len(), w.search_space().len());
            assert!(!w.active_sources().is_empty());
        }
    }

    #[test]
    fn rows_name_the_workload_they_build() {
        for r in &REGISTERED {
            assert_eq!(r.at(Scale::Test).name(), r.name);
        }
        assert_eq!(artifact_for("linear-logreg"), Some("workload-linear"));
        assert_eq!(artifact_for("synthetic-ridge"), Some("workload-synth"));
        assert_eq!(artifact_for("cifar10-vgg11"), None);
        assert_eq!(artifact_for("nope"), None);
    }

    #[test]
    fn find_returns_the_memoized_instance() {
        let a = find("synthetic-ridge", Scale::Test).expect("registered");
        let b = find("synthetic-ridge", Scale::Test).expect("registered");
        assert!(Arc::ptr_eq(&a, &b), "repeated lookups share one instance");
        let listed = all(Scale::Test);
        assert!(
            listed.iter().any(|w| Arc::ptr_eq(w, &a)),
            "all() shares it too"
        );
        let quick = find("synthetic-ridge", Scale::Quick).expect("registered");
        assert!(!Arc::ptr_eq(&a, &quick), "each scale has its own instance");
        assert!(find("nope", Scale::Test).is_none());
        assert!(find("", Scale::Full).is_none());
    }

    #[test]
    fn racing_first_lookups_share_one_instance() {
        // No other test in this crate resolves this (name, scale), so
        // the threads race its first construction.
        const THREADS: usize = 8;
        let barrier = std::sync::Barrier::new(THREADS);
        let found: Vec<Arc<dyn Workload>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        find("pascalvoc-resnet", Scale::Quick).expect("registered")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("lookup thread panicked"))
                .collect()
        });
        for w in &found {
            assert!(
                Arc::ptr_eq(w, &found[0]),
                "every racer got the same instance"
            );
        }
    }

    #[test]
    fn listing_metadata_does_not_depend_on_scale() {
        // What `GET /v1/workloads` renders from the test-scale instances.
        // Fresh instances, so the race test above keeps its first lookup.
        let meta = |scale| -> Vec<(String, &'static str, Vec<&'static str>)> {
            REGISTERED
                .iter()
                .map(|r| {
                    let w = (r.build)(scale);
                    let sources = w.active_sources().iter().map(|s| s.label()).collect();
                    (w.name().to_string(), w.metric_name(), sources)
                })
                .collect()
        };
        let test = meta(Scale::Test);
        assert_eq!(meta(Scale::Quick), test);
        assert_eq!(meta(Scale::Full), test);
    }

    #[test]
    fn memoized_studies_match_fresh_workloads() {
        // The shared instance has already served another study; its
        // answers must still equal a fresh instance's.
        let study = |w: &dyn Workload, base_seed| {
            Study::new(w)
                .seeds(2)
                .budget(1)
                .base_seed(base_seed)
                .run(&RunContext::serial())
                .to_json()
        };
        for r in &REGISTERED {
            let shared = r.at(Scale::Test);
            study(shared.as_ref(), 7);
            let fresh = (r.build)(Scale::Test);
            assert_eq!(
                study(shared.as_ref(), 11),
                study(fresh.as_ref(), 11),
                "{}",
                r.name
            );
        }
    }

    #[test]
    fn reports_render_variance_profiles() {
        let ctx = RunContext::serial_cached();
        let linear = linear_report(Effort::Test, &ctx);
        assert_eq!(linear.name(), "workload-linear");
        assert!(linear.render_text().contains("Weights init"));
        let synth = synth_report(Effort::Test, &ctx);
        assert_eq!(synth.name(), "workload-synth");
        assert!(synth.render_text().contains("HyperOpt"));
    }
}
