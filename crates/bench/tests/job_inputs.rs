//! `worker::parse_job` against torn and hostile queue payloads.
//!
//! A worker reads each job from a queue file that another process may
//! have torn mid-write, or that an older or alien writer left behind.
//! Seeded truncations, byte mutations and splices of the payloads
//! `Job::render` writes for real `study_jobs` plans, and of well-formed
//! units no planner emits (a ξ_H unit at budget 0, ξ_H in a joint unit,
//! zero seeds), must each give `Ok` or `Err`, never a panic. Whatever
//! parses must render to a payload that parses to an equal job. Every
//! case comes from `varbench_rng::sweep`, so a failure names the case
//! that reproduces it.

use varbench_bench::args::Effort;
use varbench_bench::registry::RunContext;
use varbench_bench::worker::{parse_job, study_jobs, Job};
use varbench_bench::workloads;
use varbench_core::study::{Study, StudyUnit};
use varbench_pipeline::VarianceSource;
use varbench_rng::sweep::sweep;

/// Bytes that steer the payload reader: line and field separators, the
/// list separator, digits and signs, letters of keys and labels, and
/// control and non-UTF-8 bytes.
const STEER: &[u8] = b" \n\r,-+0179abdeknorstuwy_\x00\x7f\xc3\xff";

/// The jobs of three real study plans (source units, a joint unit where
/// the plan has one, and the ξ_H unit) on an MLP, a linear and a ridge
/// workload.
fn planned_jobs() -> Vec<Job> {
    let ctx = RunContext::serial_cached();
    let mut jobs = Vec::new();
    for name in ["glue-rte-bert", "linear-logreg", "synthetic-ridge"] {
        let w = workloads::find(name, Effort::Test.scale()).expect("a registered workload");
        let plan = Study::new(w.as_ref()).seeds(4).budget(2).plan();
        let planned = study_jobs(name, Effort::Test, w.as_ref(), plan, &ctx);
        jobs.extend(planned.into_iter().map(|dj| dj.job));
    }
    jobs
}

/// Jobs that render and read back well formed, but that `parse_job`
/// refuses because executing one would panic the worker.
fn refused_jobs(template: &Job) -> Vec<Job> {
    let with = |unit: StudyUnit, seeds: usize, budget: usize| {
        let mut job = template.clone();
        job.pm.unit = unit;
        job.pm.seeds = seeds;
        job.pm.budget = budget;
        job
    };
    vec![
        with(StudyUnit::HyperOpt, 4, 0),
        with(StudyUnit::Source(VarianceSource::HyperOpt), 4, 0),
        with(
            StudyUnit::Joint(vec![VarianceSource::DataSplit, VarianceSource::HyperOpt]),
            4,
            2,
        ),
        with(StudyUnit::Source(VarianceSource::DataSplit), 0, 2),
    ]
}

/// The payloads of the planned and refused jobs: the planned ones read
/// back equal, the refused ones are errors.
fn inputs() -> Vec<Vec<u8>> {
    let planned = planned_jobs();
    let refused = refused_jobs(&planned[0]);
    for job in &planned {
        assert_eq!(parse_job(&job.render()).as_ref(), Ok(job));
    }
    for job in &refused {
        assert!(parse_job(&job.render()).is_err(), "{}", job.render());
    }
    planned
        .iter()
        .chain(&refused)
        .map(|job| job.render().into_bytes())
        .collect()
}

/// Feeds `bytes` to `parse_job`: it must answer rather than panic, and
/// whatever it accepts must render to a payload that reads back equal.
fn read(bytes: &[u8]) {
    let text = String::from_utf8_lossy(bytes);
    if let Ok(job) = parse_job(&text) {
        assert_eq!(parse_job(&job.render()), Ok(job), "{text:?}");
    }
}

#[test]
fn truncated_payloads_never_panic() {
    let inputs = inputs();
    sweep("job_inputs_truncated", 300, |case| {
        let input = case.pick(&inputs);
        read(case.truncated(input));
    });
}

#[test]
fn mutated_payloads_never_panic() {
    let inputs = inputs();
    sweep("job_inputs_mutated", 300, |case| {
        let input = case.pick(&inputs);
        read(&case.mutated(input, STEER));
    });
}

#[test]
fn spliced_payloads_never_panic() {
    let inputs = inputs();
    sweep("job_inputs_spliced", 300, |case| {
        let (a, b) = (case.pick(&inputs), case.pick(&inputs));
        read(&case.spliced(a, b));
    });
}
