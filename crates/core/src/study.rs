//! The fluent study builder: one entry point from *any* workload to a
//! finished variance report.
//!
//! ```
//! use varbench_core::ctx::RunContext;
//! use varbench_core::study::Study;
//! use varbench_pipeline::{Scale, SyntheticWorkload};
//!
//! let w = SyntheticWorkload::new(Scale::Test);
//! let report = Study::new(&w).seeds(4).budget(2).run(&RunContext::serial());
//! assert!(report.render_text().contains("synthetic-ridge"));
//! ```

#![deny(missing_docs)]

use crate::ctx::RunContext;
use crate::estimator::{joint_variance_study, source_variance_study};
use crate::report::{bar, num, Report, Table};
use varbench_pipeline::{HpoAlgorithm, MeasureKind, VarianceSource, Workload};
use varbench_stats::describe::{mean, std_dev};
use varbench_stats::power::noether_sample_size;

/// One row-group of a study's measurement matrix — which randomization
/// a [`PlannedMeasurement`] re-seeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StudyUnit {
    /// One ξ_O source re-seeded per row, default hyperparameters.
    Source(VarianceSource),
    /// The chosen ξ_O set re-seeded jointly, default hyperparameters.
    Joint(Vec<VarianceSource>),
    /// Per-row independent HPO procedures (the ξ_H row).
    HyperOpt,
}

/// One independently computable measurement of a study: exactly one call
/// to [`source_variance_study`] or [`joint_variance_study`].
///
/// [`Study::plan`] enumerates these and [`Study::run`] *consumes* the
/// plan — so anything that executes every planned unit against a shared
/// cache (the `varbench worker` fleet) pre-computes precisely the
/// records `run` will then read. Byte-identity of sharded and
/// single-process studies holds by construction, not by parallel
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedMeasurement {
    /// What is randomized.
    pub unit: StudyUnit,
    /// Rows (re-seeded measurements) in this unit's matrix.
    pub seeds: usize,
    /// HPO algorithm (only exercised by the [`StudyUnit::HyperOpt`] row;
    /// carried uniformly so a unit serializes without special cases).
    pub algo: HpoAlgorithm,
    /// Effective HPO budget passed to the measurement call.
    pub budget: usize,
    /// Effective base seed (the ξ_H row's `^ 0xB0B0` already applied).
    pub base_seed: u64,
}

impl PlannedMeasurement {
    /// Runs this unit through `ctx`, returning its measurement column
    /// (and publishing it to `ctx`'s cache like any other measurement).
    pub fn execute(&self, w: &dyn Workload, ctx: &RunContext) -> Vec<f64> {
        match &self.unit {
            StudyUnit::Source(src) => source_variance_study(
                w,
                *src,
                self.seeds,
                self.algo,
                self.budget,
                self.base_seed,
                ctx,
            ),
            StudyUnit::Joint(sources) => {
                joint_variance_study(w, sources, self.seeds, self.base_seed, ctx)
            }
            StudyUnit::HyperOpt => source_variance_study(
                w,
                VarianceSource::HyperOpt,
                self.seeds,
                self.algo,
                self.budget,
                self.base_seed,
                ctx,
            ),
        }
    }

    /// The [`MeasureKind`] the execution addresses its cache entry with —
    /// what a dispatch driver combines with
    /// [`MeasureKey::new`](varbench_pipeline::MeasureKey::new)
    /// and [`PlannedMeasurement::base_seed`] to watch for the published
    /// record.
    pub fn measure_kind(&self) -> MeasureKind {
        match &self.unit {
            StudyUnit::Source(src) => MeasureKind::SourceStudy { source: *src },
            StudyUnit::Joint(sources) => MeasureKind::JointStudy {
                sources: sources.clone(),
            },
            StudyUnit::HyperOpt => MeasureKind::HyperOptStudy {
                algo: self.algo.display_name(),
                budget: self.budget,
            },
        }
    }

    /// The report row label for this unit.
    pub fn label(&self) -> String {
        match &self.unit {
            StudyUnit::Source(src) => src.display_name().to_string(),
            StudyUnit::Joint(_) => "Altogether (joint)".to_string(),
            StudyUnit::HyperOpt => {
                format!("HyperOpt ({}, T={})", self.algo.display_name(), self.budget)
            }
        }
    }
}

/// Builds and runs a per-source variance study of one [`Workload`] —
/// the paper's Fig. 1 protocol as a reusable, fluent API.
///
/// Defaults: randomize every active ξ_O source, 10 seeds per source,
/// random search, no ξ_H row (enable it with [`Study::budget`]).
pub struct Study<'w> {
    workload: &'w dyn Workload,
    sources: Option<Vec<VarianceSource>>,
    n_seeds: usize,
    base_seed: u64,
    algo: HpoAlgorithm,
    budget: usize,
    gamma: Option<f64>,
    report_name: Option<String>,
}

impl<'w> Study<'w> {
    /// Starts a study of `workload` with the defaults above.
    pub fn new(workload: &'w dyn Workload) -> Study<'w> {
        Study {
            workload,
            sources: None,
            n_seeds: 10,
            base_seed: 0xA11D,
            algo: HpoAlgorithm::RandomSearch,
            budget: 0,
            gamma: None,
            report_name: None,
        }
    }

    /// Restricts the study to `sources` (intersected with the workload's
    /// active ξ_O sources; [`VarianceSource::HyperOpt`] is controlled by
    /// [`Study::budget`] instead).
    pub fn randomize(mut self, sources: &[VarianceSource]) -> Study<'w> {
        self.sources = Some(sources.to_vec());
        self
    }

    /// Sets the number of re-seeded measurements per source.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (a variance needs at least two measures).
    pub fn seeds(mut self, n: usize) -> Study<'w> {
        assert!(n >= 2, "a variance study needs at least 2 seeds");
        self.n_seeds = n;
        self
    }

    /// Sets the base seed every measurement derives from.
    pub fn base_seed(mut self, seed: u64) -> Study<'w> {
        self.base_seed = seed;
        self
    }

    /// Enables the ξ_H (hyperparameter-optimization) row: `budget` trials
    /// per independent tuning procedure. `0` (the default) skips it.
    pub fn budget(mut self, budget: usize) -> Study<'w> {
        self.budget = budget;
        self
    }

    /// Selects the HPO algorithm for the ξ_H row.
    pub fn algorithm(mut self, algo: HpoAlgorithm) -> Study<'w> {
        self.algo = algo;
        self
    }

    /// Adds a comparison-planning block: the Noether sample size needed
    /// to reliably detect `P(A > B) > gamma` at α = β = 0.05 (paper
    /// Appendix C.3), so the report says how many paired runs a
    /// conclusion drawn *from* this study's variance would need.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is outside `(0, 1)` or equal to `0.5` (the
    /// sample-size formula diverges: no effect to detect).
    pub fn gamma(mut self, gamma: f64) -> Study<'w> {
        // Validate eagerly: a bad gamma should fail at the builder, not
        // after the measurements have been paid for.
        let _ = noether_sample_size(gamma, 0.05, 0.05);
        self.gamma = Some(gamma);
        self
    }

    /// Overrides the report's registry name (default `study-<workload>`).
    pub fn named(mut self, name: impl Into<String>) -> Study<'w> {
        self.report_name = Some(name.into());
        self
    }

    /// The ξ_O sources this study will randomize: the workload's active
    /// sources intersected with any [`Study::randomize`] restriction.
    ///
    /// # Panics
    ///
    /// Panics if the selection leaves nothing to randomize.
    pub fn chosen_sources(&self) -> Vec<VarianceSource> {
        let w = self.workload;
        let active_xi_o: Vec<VarianceSource> = w
            .active_sources()
            .iter()
            .copied()
            .filter(|s| !s.is_hyperopt())
            .collect();
        let chosen: Vec<VarianceSource> = match &self.sources {
            Some(requested) => active_xi_o
                .iter()
                .copied()
                .filter(|s| requested.contains(s))
                .collect(),
            None => active_xi_o,
        };
        assert!(
            !chosen.is_empty(),
            "study of {} has no active source to randomize",
            w.name()
        );
        chosen
    }

    /// Enumerates the study's measurement plan: one
    /// [`PlannedMeasurement`] per per-source row (in active-source
    /// order), then the joint row when more than one source is chosen
    /// (a single-source joint study IS that source's marginal study),
    /// then the ξ_H row when a budget is set. [`Study::run`] executes
    /// exactly this plan, in this order.
    ///
    /// # Panics
    ///
    /// Panics if the source selection leaves nothing to randomize.
    pub fn plan(&self) -> Vec<PlannedMeasurement> {
        let chosen = self.chosen_sources();
        let unit = |u: StudyUnit, budget: usize, base_seed: u64| PlannedMeasurement {
            unit: u,
            seeds: self.n_seeds,
            algo: self.algo,
            budget,
            base_seed,
        };
        let mut plan: Vec<PlannedMeasurement> = chosen
            .iter()
            .map(|&src| {
                // budget.max(1): irrelevant to a default-hyperparameter
                // row but must satisfy the study function's budget > 0
                // assertion uniformly.
                unit(StudyUnit::Source(src), self.budget.max(1), self.base_seed)
            })
            .collect();
        if chosen.len() > 1 {
            plan.push(unit(
                StudyUnit::Joint(chosen.clone()),
                self.budget.max(1),
                self.base_seed,
            ));
        }
        if self.budget > 0 {
            plan.push(unit(
                StudyUnit::HyperOpt,
                self.budget,
                self.base_seed ^ 0xB0B0,
            ));
        }
        plan
    }

    /// Runs every measurement through `ctx` and renders the variance
    /// profile.
    ///
    /// # Panics
    ///
    /// Panics if the source selection leaves nothing to randomize.
    pub fn run(&self, ctx: &RunContext) -> Report {
        let w = self.workload;
        let chosen = self.chosen_sources();

        let name = self
            .report_name
            .clone()
            .unwrap_or_else(|| format!("study-{}", w.name()));
        let mut r = Report::new(name, format!("Study: {}", w.name()));
        r.text(format!(
            "variance profile of {} ({}, metric: {}, {} search dims)\n",
            w.name(),
            w.cache_id(),
            w.metric_name(),
            w.search_space().len()
        ));
        r.text(format!(
            "(n = {} seeds per source, base seed = {:#x})\n\n",
            self.n_seeds, self.base_seed
        ));

        // Execute the plan: per-source rows in active-source order, the
        // joint row (absent for a single source — its joint study IS the
        // marginal study, so the marginal matrix is reused instead of
        // paying n more measurements), then the optional ξ_H row.
        let mut rows: Vec<(String, f64)> = Vec::new();
        let mut first_marginal: Option<Vec<f64>> = None;
        let mut joint_measures: Option<Vec<f64>> = None;
        for pm in self.plan() {
            let measures = pm.execute(w, ctx);
            rows.push((pm.label(), std_dev(&measures)));
            match pm.unit {
                StudyUnit::Source(_) => {
                    first_marginal.get_or_insert(measures);
                }
                StudyUnit::Joint(_) => joint_measures = Some(measures),
                StudyUnit::HyperOpt => {}
            }
        }
        let joint = joint_measures
            .or(first_marginal)
            .expect("chosen is non-empty");

        // The ratio column is relative to the bootstrap row when the
        // study includes it, otherwise to the first chosen source — and
        // the header says which.
        let (ref_header, reference) = rows
            .iter()
            .find(|(l, _)| l == VarianceSource::DataSplit.display_name())
            .map(|(_, s)| ("ratio/bootstrap".to_string(), *s))
            .or_else(|| {
                rows.first()
                    .map(|(l, s)| (format!("ratio/{}", l.to_lowercase()), *s))
            })
            .unwrap_or(("ratio".to_string(), f64::NAN));
        let mut t = Table::new(vec!["source".into(), "std".into(), ref_header, "".into()]);
        for (label, sd) in &rows {
            let ratio = if reference > 0.0 {
                sd / reference
            } else {
                f64::NAN
            };
            t.add_row(vec![
                label.clone(),
                num(*sd, 5),
                num(ratio, 2),
                bar(ratio, 2.0, 24),
            ]);
        }
        r.table(t);
        let summary_label = if chosen.len() > 1 {
            "joint randomization"
        } else {
            "randomized source"
        };
        r.text(format!(
            "\n{summary_label}: mean {} = {}, std = {}\n",
            w.metric_name(),
            num(mean(&joint), 5),
            num(std_dev(&joint), 5)
        ));
        if let Some(gamma) = self.gamma {
            let n = noether_sample_size(gamma, 0.05, 0.05);
            r.text(format!(
                "comparison planning: detecting P(A > B) > {} (alpha = beta = 0.05) \
                 needs >= {n} paired runs (Noether)\n",
                num(gamma, 2)
            ));
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbench_pipeline::{CaseStudy, LinearWorkload, MeasureKey, Scale, SyntheticWorkload};

    #[test]
    fn study_profiles_a_case_study() {
        let cs = CaseStudy::glue_rte_bert(Scale::Test);
        let report = Study::new(&cs).seeds(4).run(&RunContext::serial());
        let text = report.render_text();
        assert!(text.contains("glue-rte-bert"));
        assert!(text.contains("Data (bootstrap)"));
        assert!(text.contains("Altogether (joint)"));
        assert!(!text.contains("HyperOpt"), "no budget, no xi_H row");
    }

    #[test]
    fn study_budget_adds_hopt_row() {
        let w = SyntheticWorkload::new(Scale::Test);
        let report = Study::new(&w).seeds(3).budget(2).run(&RunContext::serial());
        assert!(report
            .render_text()
            .contains("HyperOpt (Random Search, T=2)"));
    }

    #[test]
    fn study_randomize_restricts_sources() {
        let w = LinearWorkload::new(Scale::Test);
        let report = Study::new(&w)
            .randomize(&[VarianceSource::WeightsInit])
            .seeds(3)
            .run(&RunContext::serial());
        let text = report.render_text();
        assert!(text.contains("Weights init"));
        assert!(!text.contains("Data (bootstrap)"));
        // No bootstrap row: the ratio column must say what it is relative
        // to, and a single-source study has no separate joint row.
        assert!(text.contains("ratio/weights init"), "{text}");
        assert!(!text.contains("ratio/bootstrap"));
        assert!(!text.contains("Altogether (joint)"));
        assert!(text.contains("randomized source: mean"));
    }

    #[test]
    fn single_source_study_reuses_the_marginal_matrix() {
        // SyntheticWorkload's only xi_O source is the data split: the
        // summary must come from the marginal matrix, not a second
        // (redundant) joint measurement.
        let w = SyntheticWorkload::new(Scale::Test);
        let ctx = RunContext::serial_cached();
        let _ = Study::new(&w).seeds(4).run(&ctx);
        assert_eq!(
            ctx.cache().stats().rows_computed,
            4,
            "exactly one 4-row matrix measured"
        );
    }

    #[test]
    fn study_is_deterministic_and_cache_invariant() {
        let w = LinearWorkload::new(Scale::Test);
        let a = Study::new(&w).seeds(3).run(&RunContext::serial());
        let b = Study::new(&w).seeds(3).run(&RunContext::serial_cached());
        assert_eq!(a.render_text(), b.render_text());
    }

    #[test]
    fn plan_enumerates_sources_joint_and_hopt_rows() {
        let cs = CaseStudy::glue_rte_bert(Scale::Test);
        let study = Study::new(&cs).seeds(3).budget(2);
        let plan = study.plan();
        let chosen = study.chosen_sources();
        assert!(chosen.len() > 1);
        assert_eq!(plan.len(), chosen.len() + 2, "sources + joint + xi_H");
        for (pm, src) in plan.iter().zip(&chosen) {
            assert_eq!(pm.unit, StudyUnit::Source(*src));
            assert_eq!(pm.base_seed, 0xA11D);
        }
        assert_eq!(plan[chosen.len()].unit, StudyUnit::Joint(chosen.clone()));
        let hopt = plan.last().unwrap();
        assert_eq!(hopt.unit, StudyUnit::HyperOpt);
        assert_eq!(hopt.base_seed, 0xA11D ^ 0xB0B0);
        assert_eq!(hopt.budget, 2);
        // Single source, no budget: the plan is exactly one marginal.
        let w = SyntheticWorkload::new(Scale::Test);
        let single = Study::new(&w).seeds(3).plan();
        assert_eq!(single.len(), 1);
        assert!(matches!(single[0].unit, StudyUnit::Source(_)));
    }

    #[test]
    fn executing_the_plan_precomputes_everything_run_reads() {
        // The worker-fleet invariant: a fleet that executes every
        // planned unit against a shared cache leaves `run` nothing to
        // compute, and the assembled report matches a cold run
        // byte-for-byte.
        let cs = CaseStudy::glue_rte_bert(Scale::Test);
        let build = |w| Study::new(w).seeds(3).budget(2);
        let warm = RunContext::serial_cached();
        for pm in build(&cs).plan() {
            let measures = pm.execute(&cs, &warm);
            assert_eq!(measures.len(), 3);
            // The advertised key addresses the record just published.
            let key = MeasureKey::new(&cs, pm.measure_kind(), pm.base_seed);
            assert_eq!(warm.cache().probe_rows(&key), 3, "{}", pm.label());
        }
        let computed = warm.cache().stats().rows_computed;
        let report = build(&cs).run(&warm);
        assert_eq!(
            warm.cache().stats().rows_computed,
            computed,
            "run computes nothing after the plan executed"
        );
        let cold = build(&cs).run(&RunContext::serial_cached());
        assert_eq!(report.render_text(), cold.render_text());
    }

    #[test]
    fn gamma_adds_planning_row() {
        let w = SyntheticWorkload::new(Scale::Test);
        let report = Study::new(&w)
            .seeds(2)
            .gamma(0.75)
            .run(&RunContext::serial());
        let text = report.render_text();
        assert!(
            text.contains("P(A > B) > 0.75") && text.contains(">= 29 paired runs"),
            "{text}"
        );
        // Without gamma the block is absent.
        let plain = Study::new(&w).seeds(2).run(&RunContext::serial());
        assert!(!plain.render_text().contains("comparison planning"));
    }

    #[test]
    #[should_panic(expected = "gamma must differ from 0.5")]
    fn gamma_half_rejected_at_builder() {
        let w = SyntheticWorkload::new(Scale::Test);
        let _ = Study::new(&w).gamma(0.5);
    }

    #[test]
    fn named_overrides_report_name() {
        let w = SyntheticWorkload::new(Scale::Test);
        let report = Study::new(&w)
            .named("workload-synth")
            .seeds(2)
            .run(&RunContext::serial());
        assert_eq!(report.name(), "workload-synth");
    }

    #[test]
    #[should_panic(expected = "no active source")]
    fn empty_selection_rejected() {
        let w = SyntheticWorkload::new(Scale::Test);
        // Weight init is inert for the closed-form workload.
        let _ = Study::new(&w)
            .randomize(&[VarianceSource::WeightsInit])
            .run(&RunContext::serial());
    }
}
