//! The `varbench worker` fleet: fault-tolerant sharded studies over the
//! shared measurement cache.
//!
//! A study's matrix is a set of independently computable units
//! ([`PlannedMeasurement`], enumerated by `Study::plan`). This module
//! shards those units across worker *processes* that coordinate through
//! nothing but the cache directory:
//!
//! * the **driver** ([`dispatch`]) enqueues one job file per unsatisfied
//!   unit (`varbench_pipeline::lease::enqueue`), rings the supervised
//!   fleet ([`crate::supervisor`]) if it has one, then probes the cache
//!   for the published records — reclaiming the lease of any row that
//!   stops making progress. The caller finally runs the study
//!   **in-process** against the now-warm cache. That last step is both
//!   the fallback (fleet never showed up, died, or timed out) and the
//!   assembly: the report is always produced by the same single-process
//!   code path, so a sharded study is byte-identical to an unsharded one
//!   *by construction*;
//! * each **worker** ([`run_worker`]) scans the queue in deterministic
//!   stem order, claims a unit through an atomic lease
//!   (`varbench_pipeline::lease::claim`), computes it through the exact
//!   estimator path the in-process study uses, publishes the record via
//!   the cache's atomic tmp + rename, then releases the lease and
//!   dequeues the job. An idle worker waits for a ring or its poll
//!   interval, whichever comes first.
//!
//! # Fault model
//!
//! A worker can die at any instruction (the torture tests kill -9 real
//! subprocesses at injected fault points). Whatever survives is either
//! a whole published record (content-addressed, atomically renamed) or
//! garbage that never matches a read (torn tmp files, stale leases) —
//! reaped by `cache gc`, routed around by the driver's reclaim. Every
//! race degrades to duplicate computation of identical bytes, never to
//! corruption.
//!
//! Job ids for study units are the measurement's canonical cache key,
//! so the lease namespace is keyed by *what* is computed — two drivers
//! dispatching overlapping studies share workers' results for free. The
//! key canon itself is never touched (the L004 firewall): leases
//! and queue files live beside the records, not inside their keys.

use std::path::PathBuf;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::Duration;

use crate::args::Effort;
use crate::protocol::{parse_algo, parse_source};
use crate::registry::RunContext;
use crate::supervisor::Supervisor;
use crate::workloads;
use varbench_core::exec::Runner;
use varbench_core::study::{PlannedMeasurement, StudyUnit};
use varbench_pipeline::faultpoint::faultpoint;
use varbench_pipeline::lease::{
    self, claim, dequeue, enqueue, job_path, read_lease, release, scan_queue, ClaimOutcome,
};
use varbench_pipeline::{MeasureCache, MeasureKey, VarianceSource, Workload};

/// One unit of fleet work: one `Study::plan` unit of `workload` at
/// `effort`.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Registered workload name.
    pub workload: String,
    /// Effort preset (fixes the workload scale).
    pub effort: Effort,
    /// The planned measurement to execute.
    pub pm: PlannedMeasurement,
}

impl Job {
    /// Serializes the job payload (the text after the queue-file
    /// headers). Line-oriented `key value` pairs; everything round-trips
    /// through [`parse_job`].
    pub fn render(&self) -> String {
        let pm = &self.pm;
        let unit = match &pm.unit {
            StudyUnit::Source(src) => format!("source {}", src.label()),
            StudyUnit::Joint(sources) => {
                let labels: Vec<&str> = sources.iter().map(|s| s.label()).collect();
                format!("joint {}", labels.join(","))
            }
            StudyUnit::HyperOpt => "hyperopt".to_string(),
        };
        format!(
            "kind study\nworkload {}\neffort {}\nunit {unit}\n\
             seeds {}\nalgo {}\nbudget {}\nbase-seed {}\n",
            self.workload,
            self.effort.label(),
            pm.seeds,
            pm.algo.display_name(),
            pm.budget,
            pm.base_seed
        )
    }
}

/// Parses a job payload rendered by [`Job::render`]. Returns `Err` for
/// torn or alien payloads and for units the planner never emits and
/// the worker could not execute (the worker skips those; `cache gc`
/// reaps them).
pub fn parse_job(payload: &str) -> Result<Job, String> {
    let mut kind = None;
    let mut fields: Vec<(&str, &str)> = Vec::new();
    for line in payload.lines() {
        let Some((key, value)) = line.split_once(' ') else {
            continue;
        };
        if key == "kind" {
            kind = Some(value);
        } else {
            fields.push((key, value));
        }
    }
    let get = |key: &str| -> Result<&str, String> {
        fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("job payload missing `{key}`"))
    };
    let effort = |label: &str| -> Result<Effort, String> {
        Effort::from_label(label).ok_or_else(|| format!("unknown effort `{label}`"))
    };
    match kind {
        Some("study") => {
            let unit_text = get("unit")?;
            let unit = match unit_text.split_once(' ') {
                Some(("source", label)) => StudyUnit::Source(
                    parse_source(label).ok_or_else(|| format!("unknown source `{label}`"))?,
                ),
                Some(("joint", labels)) => {
                    let sources: Result<Vec<VarianceSource>, String> = labels
                        .split(',')
                        .map(|l| parse_source(l).ok_or_else(|| format!("unknown source `{l}`")))
                        .collect();
                    StudyUnit::Joint(sources?)
                }
                None if unit_text == "hyperopt" => StudyUnit::HyperOpt,
                _ => return Err(format!("unknown study unit `{unit_text}`")),
            };
            let algo_name = get("algo")?;
            let pm = PlannedMeasurement {
                unit,
                seeds: get("seeds")?.parse().map_err(|_| "bad seeds".to_string())?,
                algo: parse_algo(algo_name)
                    .ok_or_else(|| format!("unknown algorithm `{algo_name}`"))?,
                budget: get("budget")?
                    .parse()
                    .map_err(|_| "bad budget".to_string())?,
                base_seed: get("base-seed")?
                    .parse()
                    .map_err(|_| "bad base-seed".to_string())?,
            };
            // `Study::plan` never emits these, and executing one would
            // panic the worker: no rows, a ξ_H unit at budget 0 (ξ_H
            // exists only for budget > 0), or ξ_H inside a joint unit.
            let unexecutable = pm.seeds == 0
                || match &pm.unit {
                    StudyUnit::HyperOpt => pm.budget == 0,
                    StudyUnit::Source(src) => src.is_hyperopt() && pm.budget == 0,
                    StudyUnit::Joint(sources) => sources.iter().any(|s| s.is_hyperopt()),
                };
            if unexecutable {
                return Err(format!(
                    "unit `{}` cannot run with {} seeds at budget {}",
                    pm.label(),
                    pm.seeds,
                    pm.budget
                ));
            }
            Ok(Job {
                workload: get("workload")?.to_string(),
                effort: effort(get("effort")?)?,
                pm,
            })
        }
        Some(other) => Err(format!("unknown job kind `{other}`")),
        None => Err("job payload has no kind".to_string()),
    }
}

/// How a worker process runs: where the shared cache lives, who it
/// claims leases as, and when it gives up waiting for work.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The shared cache directory (records, queue, and leases).
    pub cache_dir: PathBuf,
    /// Lease owner label (default `worker-<pid>`).
    pub owner: String,
    /// Longest pause between queue scans that found nothing claimable
    /// (a ring ends it early; see [`run_worker`]).
    pub poll: Duration,
    /// Consecutive empty-handed scans before exiting (ignored rows
    /// someone else holds count as empty-handed).
    pub idle_rounds: u32,
    /// Exit as soon as the queue is empty instead of waiting
    /// `idle_rounds` polls for more work to appear — once the worker has
    /// seen a queued job. Before that, `idle_rounds` bounds the wait, so
    /// a fleet started before its driver enqueues still finds the work.
    pub drain: bool,
    /// The executor measurements run on.
    pub runner: Runner,
    /// Cooperative-drain sentinel: the worker exits (between jobs, never
    /// mid-row) as soon as this path exists. How a supervisor stops a
    /// long-lived fleet without signals.
    pub stop_file: Option<PathBuf>,
}

impl WorkerConfig {
    /// A drain-mode worker over `cache_dir` with fleet defaults.
    pub fn new(cache_dir: impl Into<PathBuf>) -> WorkerConfig {
        WorkerConfig {
            cache_dir: cache_dir.into(),
            owner: format!("worker-{}", std::process::id()),
            poll: Duration::from_millis(100),
            idle_rounds: 20,
            drain: true,
            runner: Runner::from_env(),
            stop_file: None,
        }
    }
}

/// What one worker run accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Jobs claimed, computed, and released.
    pub completed: u64,
    /// Jobs found already satisfied in the cache (dequeued unclaimed).
    pub satisfied: u64,
    /// Jobs with unreadable or unexecutable payloads (left queued).
    pub skipped: u64,
}

/// Whether `job`'s output is already in the cache (the fast path that
/// lets a replacement worker dequeue a row whose first owner died
/// *after* publishing but before dequeueing).
fn satisfied(job: &Job, ctx: &RunContext) -> bool {
    match workloads::find(&job.workload, job.effort.scale()) {
        Some(w) => {
            let key = MeasureKey::new(w.as_ref(), job.pm.measure_kind(), job.pm.base_seed);
            ctx.cache().probe_rows(&key) >= job.pm.seeds
        }
        None => false,
    }
}

/// Executes one claimed job through the same estimator path the
/// in-process study uses.
fn execute(job: &Job, ctx: &RunContext) -> Result<(), String> {
    faultpoint("worker:mid-row");
    let w = workloads::find(&job.workload, job.effort.scale())
        .ok_or_else(|| format!("unknown workload `{}`", job.workload))?;
    let _ = job.pm.execute(w.as_ref(), ctx);
    Ok(())
}

/// Owner-checked release of a held lease on every exit path. The worker
/// arms this right after claiming; a panic during `execute` (or any
/// early return) unwinds through the guard and releases the lease
/// immediately instead of leaving it for timeout-based reclaim — the
/// shutdown-lease-leak fix. The success path disarms after its explicit
/// release + dequeue. A hard kill skips destructors by design; that
/// shape stays covered by reclaim.
struct LeaseGuard<'a> {
    dir: &'a std::path::Path,
    id: &'a str,
    owner: &'a str,
    armed: bool,
}

impl Drop for LeaseGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            release(self.dir, self.id, self.owner);
        }
    }
}

/// Whether a stop file has asked this worker to exit.
fn stop_requested(cfg: &WorkerConfig) -> bool {
    cfg.stop_file.as_deref().is_some_and(|p| p.exists())
}

/// The worker loop: scan the queue in deterministic stem order, claim
/// what is claimable, compute, release, repeat — until the queue drains
/// after a scan found work in it (`cfg.drain`), `cfg.idle_rounds` scans
/// come up empty-handed, or the configured stop file appears (checked
/// between jobs, so an in-flight row always finishes and releases its
/// lease before the exit).
///
/// Between empty-handed scans the worker waits up to `cfg.poll`; each
/// message on `wake` ends one such wait early, including one sent while
/// the worker was scanning or computing. `varbench worker` feeds `wake`
/// from stdin, where a [`Supervisor`] writes a byte at spawn and
/// whenever there is new work or a stop to see. A `wake` that never
/// rang and has no sender left (stdin closed or a terminal) makes each
/// wait a plain `cfg.poll` sleep, never a spin. One that rang and then
/// lost its sender means the supervisor is gone: the worker exits at
/// its next empty-handed scan instead of polling for an owner that
/// will never stop it.
///
/// Returns what was accomplished; errors are per-job and non-fatal (a
/// torn payload is skipped, not a crash — robustness means the fleet
/// outlives any single bad job).
pub fn run_worker(cfg: &WorkerConfig, wake: &Receiver<()>) -> WorkerSummary {
    let ctx = RunContext::new(cfg.runner, MeasureCache::with_dir(&cfg.cache_dir));
    let dir = cfg.cache_dir.as_path();
    let mut summary = WorkerSummary::default();
    let mut idle = 0u32;
    let mut rung = false;
    let mut found_work = false;
    loop {
        let mut progressed = false;
        let queue = scan_queue(dir);
        found_work |= !queue.is_empty();
        for id in queue {
            if stop_requested(cfg) {
                return summary;
            }
            let Ok(text) = std::fs::read_to_string(job_path(dir, &id)) else {
                continue; // dequeued between scan and read
            };
            let payload: String = text.lines().skip(2).fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
            let job = match parse_job(&payload) {
                Ok(job) => job,
                Err(e) => {
                    eprintln!("worker {}: skipping job {id}: {e}", cfg.owner);
                    summary.skipped += 1;
                    continue;
                }
            };
            if satisfied(&job, &ctx) {
                // Published by someone who died before dequeueing (or by
                // an overlapping study): finish the bookkeeping.
                dequeue(dir, &id);
                summary.satisfied += 1;
                progressed = true;
                continue;
            }
            match claim(dir, &id, &cfg.owner) {
                Ok(ClaimOutcome::Acquired(_generation)) => {
                    let mut guard = LeaseGuard {
                        dir,
                        id: &id,
                        owner: &cfg.owner,
                        armed: true,
                    };
                    faultpoint("worker:after-claim");
                    match execute(&job, &ctx) {
                        Ok(()) => {
                            faultpoint("worker:before-release");
                            guard.armed = false;
                            if release(dir, &id, &cfg.owner) {
                                dequeue(dir, &id);
                            }
                            summary.completed += 1;
                            progressed = true;
                        }
                        Err(e) => {
                            // Unexecutable (unknown workload — likely an
                            // alien job): release so others may try, but
                            // leave it queued for the driver to cancel.
                            eprintln!("worker {}: cannot execute {id}: {e}", cfg.owner);
                            guard.armed = false;
                            release(dir, &id, &cfg.owner);
                            summary.skipped += 1;
                        }
                    }
                }
                Ok(ClaimOutcome::Busy(_)) | Err(_) => {}
            }
        }
        if stop_requested(cfg) || (cfg.drain && found_work && scan_queue(dir).is_empty()) {
            break;
        }
        if progressed {
            idle = 0;
        } else {
            idle += 1;
            if idle >= cfg.idle_rounds {
                break;
            }
            match wake.recv_timeout(cfg.poll) {
                Ok(()) => rung = true,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) if rung => break,
                Err(RecvTimeoutError::Disconnected) => std::thread::sleep(cfg.poll),
            }
        }
    }
    summary
}

/// How long a dispatch driver waits on its fleet before degrading to
/// in-process computation.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Total wall budget to wait on the fleet before computing whatever
    /// is missing in-process. Tracked by summing the pauses actually
    /// slept (no wall clock is read).
    pub wait: Duration,
    /// How long a claimed row may go without progress (no new record,
    /// no ownership change) before its lease is reclaimed.
    pub row_timeout: Duration,
    /// Pause between passes over the missing rows (cache probes, stall
    /// detection and reclaim).
    pub poll: Duration,
}

impl Default for DispatchConfig {
    /// Pacing sized for CI-scale studies.
    fn default() -> DispatchConfig {
        DispatchConfig {
            wait: Duration::from_millis(20_000),
            row_timeout: Duration::from_millis(2_000),
            // A pass is a stat, a cache probe and a lease read per
            // missing row, and a plan has a handful of units: cheap
            // enough to look every millisecond.
            poll: Duration::from_millis(1),
        }
    }
}

/// What a dispatch accomplished (the report itself is produced by the
/// caller's in-process run afterwards).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchOutcome {
    /// Units in the plan.
    pub jobs: usize,
    /// Units already satisfied before anything was enqueued.
    pub satisfied_upfront: usize,
    /// Units whose record the fleet published within the wait budget.
    /// A unit whose job file vanished without a record (its enqueue
    /// failed, or another driver cancelled it) is not counted; the
    /// in-process run computes it.
    pub completed: usize,
    /// Leases reclaimed after stalling `row_timeout` without progress.
    pub reclaims: u64,
    /// Whether the wait budget expired with units still missing (the
    /// in-process fallback computes them).
    pub timed_out: bool,
}

impl std::fmt::Display for DispatchOutcome {
    /// The one-line accounting a driver prints on stderr (stdout stays
    /// reserved for the report, byte-identical to an unsharded run).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} unit(s), {} already cached, {} fleet-completed, {} lease reclaim(s)",
            self.jobs, self.satisfied_upfront, self.completed, self.reclaims
        )?;
        if self.timed_out {
            f.write_str("; wait budget expired — computing the rest in-process")?;
        }
        Ok(())
    }
}

/// One dispatchable unit: its lease id, payload, and the cache probe
/// that signals completion.
pub struct DispatchJob {
    /// Lease/queue id: the measurement key canon.
    pub id: String,
    /// The work itself.
    pub job: Job,
    /// `(key, rows)`: done when the cache holds `rows` rows under `key`
    /// (the wait also ends when the job file is gone without them; the
    /// in-process run then computes the row).
    pub probe: (MeasureKey, usize),
}

struct Tracked {
    id: String,
    probe: (MeasureKey, usize),
    done: bool,
    last_generation: u64,
    stalled: Duration,
}

/// Dispatches `jobs` to a worker fleet over the disk cache of
/// `probe_ctx` and waits — with reclaim on stalled leases — until every
/// unit is satisfied or the wait budget expires. With a supervised `fleet`, its workers are rung
/// after the enqueue and after each reclaim, so they start at once;
/// without one, an external fleet picks the jobs up on its own polls.
/// On return (either way), leftover queue files for missing units are
/// cancelled; the caller then runs its study in-process against the
/// warm cache, which computes only what the fleet did not deliver.
///
/// `probe_ctx` is only used to find the cache directory and probe it
/// for published records. Without a disk cache there is no queue a
/// fleet could see, so nothing is dispatched.
pub fn dispatch(
    cfg: &DispatchConfig,
    jobs: Vec<DispatchJob>,
    probe_ctx: &RunContext,
    fleet: Option<&Supervisor>,
) -> DispatchOutcome {
    let mut outcome = DispatchOutcome {
        jobs: jobs.len(),
        ..DispatchOutcome::default()
    };
    let Some(dir) = probe_ctx.cache().dir() else {
        return outcome;
    };
    let ring = || {
        if let Some(sup) = fleet {
            sup.wake();
        }
    };
    let mut tracked: Vec<Tracked> = Vec::new();
    for dj in jobs {
        let (key, rows) = &dj.probe;
        if probe_ctx.cache().probe_rows(key) >= *rows {
            outcome.satisfied_upfront += 1;
            continue;
        }
        if let Err(e) = enqueue(dir, &dj.id, &dj.job.render()) {
            eprintln!("dispatch: cannot enqueue {}: {e}", dj.id);
        }
        tracked.push(Tracked {
            id: dj.id,
            probe: dj.probe,
            done: false,
            last_generation: 0,
            stalled: Duration::ZERO,
        });
    }
    if !tracked.is_empty() {
        ring();
    }

    // Wait on the fleet. Elapsed time is the sum of pauses actually
    // slept — no wall clock is read.
    let mut waited = Duration::ZERO;
    loop {
        let mut missing = 0usize;
        for t in tracked.iter_mut().filter(|t| !t.done) {
            // A worker publishes, then releases, then dequeues: once the
            // job file is gone, the record is there — or the row was
            // never enqueued or another driver cancelled it, and the
            // in-process run computes it. Stat before probing, so a
            // record published just before the dequeue is seen.
            let queued = job_path(dir, &t.id).exists();
            let (key, rows) = &t.probe;
            if probe_ctx.cache().probe_rows(key) >= *rows {
                t.done = true;
                outcome.completed += 1;
                continue;
            }
            if !queued {
                t.done = true;
                continue;
            }
            missing += 1;
            // Stall detection: a held lease whose generation has not
            // moved while the record stays unpublished is a dead owner.
            match read_lease(dir, &t.id) {
                Some(l) if !l.open => {
                    if l.generation == t.last_generation {
                        t.stalled += cfg.poll;
                        if t.stalled >= cfg.row_timeout {
                            match lease::reclaim(dir, &t.id, l.generation) {
                                Ok(true) => {
                                    outcome.reclaims += 1;
                                    t.stalled = Duration::ZERO;
                                    ring();
                                }
                                Ok(false) => {}
                                Err(e) => eprintln!("dispatch: reclaim {} failed: {e}", t.id),
                            }
                        }
                    } else {
                        t.last_generation = l.generation;
                        t.stalled = Duration::ZERO;
                    }
                }
                _ => {}
            }
        }
        if missing == 0 {
            break;
        }
        if waited >= cfg.wait {
            outcome.timed_out = true;
            break;
        }
        std::thread::sleep(cfg.poll);
        waited += cfg.poll;
    }

    // Cancel what the fleet did not deliver: the in-process fallback
    // computes it, and a straggler worker must not burn time on it.
    for t in tracked.iter().filter(|t| !t.done) {
        dequeue(dir, &t.id);
    }
    outcome
}

/// Builds the [`DispatchJob`] list for a study plan: one job per
/// planned unit, leased under the unit's canonical cache key.
///
/// The key depends only on the workload and the plan, so `_ctx` is
/// unused; the parameter stays because the end-to-end benchmark in
/// `perfbench/` calls this signature.
pub fn study_jobs(
    workload_name: &str,
    effort: Effort,
    w: &dyn Workload,
    plan: Vec<PlannedMeasurement>,
    _ctx: &RunContext,
) -> Vec<DispatchJob> {
    plan.into_iter()
        .map(|pm| {
            let key = MeasureKey::new(w, pm.measure_kind(), pm.base_seed);
            DispatchJob {
                id: key.canon().to_string(),
                probe: (key, pm.seeds),
                job: Job {
                    workload: workload_name.to_string(),
                    effort,
                    pm,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use varbench_core::study::Study;

    /// A wake source that never rings: every idle wait is a plain poll.
    fn no_rings() -> Receiver<()> {
        mpsc::channel().1
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "varbench-worker-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn plan_for(workload: &str, effort: Effort, seeds: usize) -> Vec<PlannedMeasurement> {
        let w = workloads::find(workload, effort.scale()).unwrap();
        Study::new(w.as_ref()).seeds(seeds).budget(1).plan()
    }

    #[test]
    fn job_payloads_round_trip() {
        for pm in plan_for("glue-rte-bert", Effort::Test, 3) {
            let job = Job {
                workload: "glue-rte-bert".into(),
                effort: Effort::Test,
                pm,
            };
            assert_eq!(parse_job(&job.render()).unwrap(), job);
        }

        assert!(parse_job("garbage\n").is_err());
        assert!(parse_job("kind study\n").is_err(), "missing fields");
        assert!(parse_job("kind nope\n").is_err());
        assert_eq!(
            parse_job("kind artifact\nartifact workload-synth\neffort quick\n"),
            Err("unknown job kind `artifact`".to_string())
        );
        // Well-formed, but no planner emits them and executing one
        // panics: a ξ_H unit at budget 0, ξ_H in a joint unit, no rows.
        let unit = |unit: &str, seeds: usize, budget: usize| {
            format!(
                "kind study\nworkload synthetic-ridge\neffort test\nunit {unit}\n\
                 seeds {seeds}\nalgo Random Search\nbudget {budget}\nbase-seed 7\n"
            )
        };
        for (payload, parses) in [
            (unit("hyperopt", 3, 0), false),
            (unit("source hyperopt", 3, 0), false),
            (unit("joint data_split,hyperopt", 3, 1), false),
            (unit("source data_split", 0, 1), false),
            (unit("hyperopt", 3, 1), true),
            (unit("source hyperopt", 3, 1), true),
            (unit("source data_split", 3, 0), true),
        ] {
            assert_eq!(parse_job(&payload).is_ok(), parses, "{payload}");
        }
    }

    #[test]
    fn a_drain_worker_started_before_the_driver_enqueues_takes_the_job() {
        let dir = scratch("early-drain");
        let effort = Effort::Test;
        let pm = plan_for("synthetic-ridge", effort, 2).remove(0);
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        let key = MeasureKey::new(w.as_ref(), pm.measure_kind(), pm.base_seed);
        let job = Job {
            workload: "synthetic-ridge".into(),
            effort,
            pm,
        };
        let mut cfg = WorkerConfig::new(&dir);
        cfg.runner = Runner::serial();
        cfg.poll = Duration::from_millis(5);
        cfg.idle_rounds = 2_000;
        // A rendezvous channel: the send returns only once the worker
        // waits after an empty-handed scan (or has exited), so the job
        // is enqueued after the worker started.
        let (ring, rings) = mpsc::sync_channel(0);
        let worker = std::thread::spawn(move || run_worker(&cfg, &rings));
        let _ = ring.send(());
        enqueue(&dir, key.canon(), &job.render()).unwrap();
        let summary = worker.join().expect("worker thread");
        assert_eq!(summary.completed, 1, "the drain worker left before the job");
        assert!(scan_queue(&dir).is_empty(), "queue drained");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_drains_a_study_queue_and_publishes_the_records() {
        let dir = scratch("drain");
        let effort = Effort::Test;
        let plan = plan_for("synthetic-ridge", effort, 3);
        assert!(!plan.is_empty());
        let probe = RunContext::new(Runner::serial(), MeasureCache::with_dir(&dir));
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        for pm in &plan {
            let job = Job {
                workload: "synthetic-ridge".into(),
                effort,
                pm: pm.clone(),
            };
            let key = MeasureKey::new(w.as_ref(), pm.measure_kind(), pm.base_seed);
            enqueue(&dir, key.canon(), &job.render()).unwrap();
        }
        let mut cfg = WorkerConfig::new(&dir);
        cfg.runner = Runner::serial();
        let summary = run_worker(&cfg, &no_rings());
        assert_eq!(summary.completed as usize, plan.len());
        assert_eq!(summary.skipped, 0);
        assert!(scan_queue(&dir).is_empty(), "queue drained");
        assert!(lease::scan_leases(&dir).is_empty(), "leases released");
        for pm in &plan {
            let key = MeasureKey::new(w.as_ref(), pm.measure_kind(), pm.base_seed);
            assert_eq!(probe.cache().probe_rows(&key), 3, "{}", pm.label());
        }
        // A second worker over the same queue finds nothing.
        assert_eq!(run_worker(&cfg, &no_rings()), WorkerSummary::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_dequeues_already_satisfied_jobs_without_claiming() {
        let dir = scratch("satisfied");
        let effort = Effort::Test;
        let plan = plan_for("synthetic-ridge", effort, 2);
        let ctx = RunContext::new(Runner::serial(), MeasureCache::with_dir(&dir));
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        // Publish the records first, then enqueue: the death-after-
        // publish-before-dequeue shape.
        for pm in &plan {
            let _ = pm.execute(w.as_ref(), &ctx);
            let key = MeasureKey::new(w.as_ref(), pm.measure_kind(), pm.base_seed);
            let job = Job {
                workload: "synthetic-ridge".into(),
                effort,
                pm: pm.clone(),
            };
            enqueue(&dir, key.canon(), &job.render()).unwrap();
        }
        let mut cfg = WorkerConfig::new(&dir);
        cfg.runner = Runner::serial();
        let summary = run_worker(&cfg, &no_rings());
        assert_eq!(summary.satisfied as usize, plan.len());
        assert_eq!(summary.completed, 0, "nothing recomputed");
        assert!(scan_queue(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_without_a_fleet_degrades_to_in_process() {
        let dir = scratch("nofleet");
        let effort = Effort::Test;
        let ctx = RunContext::new(Runner::serial(), MeasureCache::with_dir(&dir));
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        let plan = plan_for("synthetic-ridge", effort, 2);
        let jobs = study_jobs("synthetic-ridge", effort, w.as_ref(), plan.clone(), &ctx);
        assert_eq!(jobs.len(), plan.len());
        let cfg = DispatchConfig {
            wait: Duration::from_millis(100),
            row_timeout: Duration::from_millis(50),
            poll: Duration::from_millis(10),
        };
        let outcome = dispatch(&cfg, jobs, &ctx, None);
        assert!(outcome.timed_out, "no fleet ever showed up");
        assert_eq!(outcome.completed, 0);
        assert!(
            scan_queue(&dir).is_empty(),
            "leftover jobs cancelled on the way out"
        );
        // The caller's in-process run now computes everything.
        let study = Study::new(w.as_ref()).seeds(2).budget(1);
        let report = study.run(&ctx);
        let baseline = Study::new(w.as_ref())
            .seeds(2)
            .budget(1)
            .run(&RunContext::serial());
        assert_eq!(report.render_text(), baseline.render_text());
        // Re-dispatching afterwards finds everything satisfied upfront.
        let jobs = study_jobs("synthetic-ridge", effort, w.as_ref(), plan, &ctx);
        let outcome = dispatch(&cfg, jobs, &ctx, None);
        assert_eq!(outcome.satisfied_upfront, outcome.jobs);
        assert!(!outcome.timed_out);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_without_a_disk_cache_dispatches_nothing() {
        let effort = Effort::Test;
        let ctx = RunContext::serial();
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        let plan = plan_for("synthetic-ridge", effort, 2);
        let jobs = study_jobs("synthetic-ridge", effort, w.as_ref(), plan, &ctx);
        // The default 20 s budget: any wait would expire it.
        let outcome = dispatch(&DispatchConfig::default(), jobs, &ctx, None);
        assert_eq!((outcome.satisfied_upfront, outcome.completed), (0, 0));
        assert!(!outcome.timed_out);
    }

    #[test]
    fn the_outcome_line_keeps_the_shape_scripts_parse() {
        let mut outcome = DispatchOutcome {
            jobs: 4,
            satisfied_upfront: 1,
            completed: 2,
            reclaims: 3,
            timed_out: false,
        };
        let line = "4 unit(s), 1 already cached, 2 fleet-completed, 3 lease reclaim(s)";
        assert_eq!(outcome.to_string(), line);
        outcome.timed_out = true;
        assert_eq!(
            outcome.to_string(),
            format!("{line}; wait budget expired — computing the rest in-process")
        );
    }

    #[test]
    fn a_rung_worker_takes_new_work_at_once_and_exits_on_stop_file_and_ring() {
        let dir = scratch("rung");
        let effort = Effort::Test;
        let plan = plan_for("synthetic-ridge", effort, 2);
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        let pm = plan[0].clone();
        let key = MeasureKey::new(w.as_ref(), pm.measure_kind(), pm.base_seed);
        let job = Job {
            workload: "synthetic-ridge".into(),
            effort,
            pm,
        };
        let stop = dir.join("stop");
        let mut cfg = WorkerConfig::new(&dir);
        cfg.runner = Runner::serial();
        cfg.drain = false;
        cfg.idle_rounds = u32::MAX;
        // No idle wait may end on its own within the test.
        cfg.poll = Duration::from_secs(3600);
        cfg.stop_file = Some(stop.clone());
        // A rendezvous channel: each ring returns only once an idle wait
        // has taken it, which orders the steps below without sleeps.
        let (ring, wake) = mpsc::sync_channel(0);
        // Held to the end: the worker must exit on the stop file, not
        // because its ring source hung up.
        let _held = ring.clone();
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(run_worker(&cfg, &wake));
        });
        let (id, queue_dir) = (key.canon().to_string(), dir.clone());
        std::thread::spawn(move || {
            ring.send(()).unwrap(); // the worker scanned an empty queue
            enqueue(&queue_dir, &id, &job.render()).unwrap();
            ring.send(()).unwrap(); // the next scan finds the job
            ring.send(()).unwrap(); // an empty scan followed it: done
            std::fs::write(&stop, b"drain\n").unwrap();
            ring.send(()).unwrap();
        });
        let summary = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("rings must end the hour-long idle waits");
        assert_eq!(summary.completed, 1);
        assert!(scan_queue(&dir).is_empty());
        let probe = MeasureCache::with_dir(&dir);
        assert_eq!(probe.probe_rows(&key), 2, "record published");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_worker_whose_ring_source_hangs_up_finishes_the_queue_and_exits() {
        let dir = scratch("hangup");
        let effort = Effort::Test;
        let plan = plan_for("synthetic-ridge", effort, 2);
        let job = Job {
            workload: "synthetic-ridge".into(),
            effort,
            pm: plan[0].clone(),
        };
        enqueue(&dir, "queued-before-the-hangup", &job.render()).unwrap();
        let mut cfg = WorkerConfig::new(&dir);
        cfg.runner = Runner::serial();
        cfg.drain = false;
        cfg.idle_rounds = u32::MAX;
        // Neither idleness nor a poll may end the run within the test.
        cfg.poll = Duration::from_secs(3600);
        let (ring, wake) = mpsc::channel();
        ring.send(()).unwrap(); // the ring a supervisor writes at spawn
        drop(ring); // ... and then the supervisor is gone
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(run_worker(&cfg, &wake));
        });
        let summary = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a worker whose supervisor is gone must not poll on");
        assert_eq!(summary.completed, 1, "queued work is finished first");
        assert!(scan_queue(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_worker_without_a_ring_source_polls_until_idle() {
        let dir = scratch("no-ring-source");
        // Skipped again on every scan: the count of skips is the count
        // of scans.
        enqueue(&dir, "torn", "not a job\n").unwrap();
        let mut cfg = WorkerConfig::new(&dir);
        cfg.drain = false;
        cfg.idle_rounds = 3;
        cfg.poll = Duration::from_millis(1);
        // Never rang and no sender: stdin closed, or a terminal.
        let summary = run_worker(&cfg, &no_rings());
        assert_eq!(summary.skipped, 3, "one scan per idle round, no early exit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_row_whose_enqueue_failed_is_not_counted_as_fleet_completed() {
        let dir = scratch("enqueue-fails");
        // A plain file where the queue directory belongs: enqueue fails.
        let queue = lease::queue_dir(&dir);
        std::fs::create_dir_all(queue.parent().unwrap()).unwrap();
        std::fs::write(&queue, b"not a directory\n").unwrap();
        let effort = Effort::Test;
        let ctx = RunContext::new(Runner::serial(), MeasureCache::with_dir(&dir));
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        let plan = plan_for("synthetic-ridge", effort, 2);
        let jobs = study_jobs("synthetic-ridge", effort, w.as_ref(), plan, &ctx);
        // The default 20 s budget: a row kept in the wait would expire it.
        let outcome = dispatch(&DispatchConfig::default(), jobs, &ctx, None);
        assert_eq!(outcome.completed, 0, "no record was published");
        assert!(!outcome.timed_out, "unqueued rows leave the wait at once");
        let report = Study::new(w.as_ref()).seeds(2).budget(1).run(&ctx);
        let serial = Study::new(w.as_ref())
            .seeds(2)
            .budget(1)
            .run(&RunContext::serial());
        assert_eq!(report.render_text(), serial.render_text());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // `arm_local` exists only where fault points are compiled in.
    #[cfg(any(debug_assertions, feature = "chaos"))]
    #[test]
    fn a_panicking_row_releases_its_lease_on_the_way_out() {
        let dir = scratch("panic-release");
        let effort = Effort::Test;
        let plan = plan_for("synthetic-ridge", effort, 2);
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        let pm = plan[0].clone();
        let key = MeasureKey::new(w.as_ref(), pm.measure_kind(), pm.base_seed);
        let job = Job {
            workload: "synthetic-ridge".into(),
            effort,
            pm,
        };
        enqueue(&dir, key.canon(), &job.render()).unwrap();
        let mut cfg = WorkerConfig::new(&dir);
        cfg.runner = Runner::serial();
        // An unwinding crash mid-row (drain's SIGTERM shape): the worker
        // must not leave its lease for timeout-based reclaim.
        let _arm = varbench_pipeline::faultpoint::arm_local("worker:mid-row:panic");
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_worker(&cfg, &no_rings())
        }))
        .is_err();
        assert!(crashed, "armed panic fired");
        assert!(
            lease::scan_leases(&dir).is_empty(),
            "lease released on unwind, not leaked"
        );
        assert_eq!(
            scan_queue(&dir),
            vec![key.canon().to_string()],
            "job stays queued"
        );
        // A healthy successor claims the released lease and finishes.
        let summary = run_worker(&cfg, &no_rings());
        assert_eq!(summary.completed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stop_file_halts_the_worker_before_it_claims_anything() {
        let dir = scratch("stopfile");
        let effort = Effort::Test;
        let plan = plan_for("synthetic-ridge", effort, 2);
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        let pm = plan[0].clone();
        let key = MeasureKey::new(w.as_ref(), pm.measure_kind(), pm.base_seed);
        let job = Job {
            workload: "synthetic-ridge".into(),
            effort,
            pm,
        };
        enqueue(&dir, key.canon(), &job.render()).unwrap();
        let stop = dir.join("stop");
        std::fs::write(&stop, b"drain\n").unwrap();
        let mut cfg = WorkerConfig::new(&dir);
        cfg.runner = Runner::serial();
        cfg.stop_file = Some(stop);
        let summary = run_worker(&cfg, &no_rings());
        assert_eq!(summary, WorkerSummary::default(), "exited without working");
        assert_eq!(scan_queue(&dir).len(), 1, "queue untouched");
        assert!(lease::scan_leases(&dir).is_empty(), "nothing claimed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_reclaims_a_stalled_lease() {
        let dir = scratch("reclaim");
        let effort = Effort::Test;
        let ctx = RunContext::new(Runner::serial(), MeasureCache::with_dir(&dir));
        let w = workloads::find("synthetic-ridge", effort.scale()).unwrap();
        let plan = plan_for("synthetic-ridge", effort, 2);
        let jobs = study_jobs("synthetic-ridge", effort, w.as_ref(), plan, &ctx);
        let id = jobs[0].id.clone();
        // A "worker" claims the row and dies (never computes).
        enqueue(&dir, &id, &jobs[0].job.render()).unwrap();
        claim(&dir, &id, "dead-worker").unwrap();
        let cfg = DispatchConfig {
            wait: Duration::from_millis(300),
            row_timeout: Duration::from_millis(50),
            poll: Duration::from_millis(10),
        };
        let outcome = dispatch(&cfg, jobs, &ctx, None);
        assert!(outcome.reclaims >= 1, "dead owner's lease reclaimed");
        assert!(outcome.timed_out, "nobody took the reclaimed lease over");
        let l = read_lease(&dir, &id).expect("lease survives for takeover");
        assert!(l.open, "left open for the next worker");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
