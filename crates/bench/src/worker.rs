//! The `varbench worker` fleet: fault-tolerant sharded studies over the
//! shared measurement cache.
//!
//! A study's matrix is a set of independently computable units
//! ([`PlannedMeasurement`], enumerated by `Study::plan`). This module
//! shards those units across worker *processes* that coordinate through
//! nothing but the cache directory:
//!
//! * the **driver** ([`dispatch`]) enqueues one job file per unsatisfied
//!   unit (`varbench_pipeline::lease::enqueue`), optionally spawns a
//!   fleet of `varbench worker` subprocesses, then polls the cache for
//!   the published records — reclaiming the lease of any row that stops
//!   making progress, and finally running the study **in-process**
//!   against the now-warm cache. That last step is both the fallback
//!   (fleet never showed up, died, or timed out) and the assembly: the
//!   report is always produced by the same single-process code path, so
//!   a sharded study is byte-identical to an unsharded one *by
//!   construction*;
//! * each **worker** ([`run_worker`]) scans the queue in deterministic
//!   stem order, claims a unit through an atomic lease
//!   (`varbench_pipeline::lease::claim`), computes it through the exact
//!   estimator path the in-process study uses, publishes the record via
//!   the cache's atomic tmp + rename, then releases the lease and
//!   dequeues the job.
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
use std::time::Duration;

use crate::args::Effort;
use crate::protocol::{parse_algo, parse_source};
use crate::registry::RunContext;
use crate::workloads;
use varbench_core::exec::Runner;
use varbench_core::retry::RetryPolicy;
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
/// torn or alien payloads (the worker skips those; `cache gc` reaps
/// them).
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
    /// Pause between queue scans that found nothing claimable.
    pub poll: Duration,
    /// Consecutive empty-handed scans before exiting (ignored rows
    /// someone else holds count as empty-handed).
    pub idle_rounds: u32,
    /// Exit as soon as the queue is empty instead of waiting
    /// `idle_rounds` polls for more work to appear.
    pub drain: bool,
    /// Run measurements single-threaded.
    pub serial: bool,
    /// Worker thread count (`None`: `VARBENCH_THREADS` or all cores).
    pub threads: Option<usize>,
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
            serial: false,
            threads: None,
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

/// Builds the execution context a worker computes in.
fn worker_ctx(cfg: &WorkerConfig) -> RunContext {
    let runner = match (cfg.serial, cfg.threads) {
        (true, _) => Runner::serial(),
        (false, Some(n)) => Runner::new(n),
        (false, None) => Runner::from_env(),
    };
    RunContext::new(runner, MeasureCache::with_dir(&cfg.cache_dir))
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
/// (`cfg.drain`), `cfg.idle_rounds` scans come up empty-handed, or the
/// configured stop file appears (checked between jobs, so an in-flight
/// row always finishes and releases its lease before the exit).
///
/// Returns what was accomplished; errors are per-job and non-fatal (a
/// torn payload is skipped, not a crash — robustness means the fleet
/// outlives any single bad job).
pub fn run_worker(cfg: &WorkerConfig) -> WorkerSummary {
    let ctx = worker_ctx(cfg);
    let dir = cfg.cache_dir.as_path();
    let mut summary = WorkerSummary::default();
    let mut idle = 0u32;
    loop {
        let mut progressed = false;
        for id in scan_queue(dir) {
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
        if stop_requested(cfg) || (cfg.drain && scan_queue(dir).is_empty()) {
            break;
        }
        if progressed {
            idle = 0;
        } else {
            idle += 1;
            if idle >= cfg.idle_rounds {
                break;
            }
            std::thread::sleep(cfg.poll);
        }
    }
    summary
}

/// How a dispatch driver runs its fleet and how long it waits before
/// degrading to in-process computation.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// The shared cache directory.
    pub cache_dir: PathBuf,
    /// Worker subprocesses to spawn (0: rely on an external fleet).
    pub workers: usize,
    /// The `varbench` binary to spawn workers from (`None` disables
    /// spawning even when `workers > 0` — unit tests use this).
    pub exe: Option<PathBuf>,
    /// Total wall budget to wait on the fleet before computing whatever
    /// is missing in-process. Tracked by summing the pauses actually
    /// slept (no wall clock is read).
    pub wait: Duration,
    /// How long a claimed row may go without progress (no new record,
    /// no ownership change) before its lease is reclaimed.
    pub row_timeout: Duration,
    /// Pause between cache probes.
    pub poll: Duration,
}

impl DispatchConfig {
    /// A driver over `cache_dir` spawning `workers` subprocesses of the
    /// current executable, with defaults sized for CI-scale studies.
    pub fn new(cache_dir: impl Into<PathBuf>, workers: usize) -> DispatchConfig {
        DispatchConfig {
            cache_dir: cache_dir.into(),
            workers,
            exe: std::env::current_exe().ok(),
            wait: Duration::from_millis(20_000),
            row_timeout: Duration::from_millis(2_000),
            poll: Duration::from_millis(50),
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
    /// Units observed completed by the fleet within the wait budget.
    pub completed: usize,
    /// Leases reclaimed after stalling `row_timeout` without progress.
    pub reclaims: u64,
    /// Whether the wait budget expired with units still missing (the
    /// in-process fallback computes them).
    pub timed_out: bool,
}

/// One dispatchable unit: its lease id, payload, and the cache probe
/// that signals completion.
pub struct DispatchJob {
    /// Lease/queue id: the measurement key canon.
    pub id: String,
    /// The work itself.
    pub job: Job,
    /// `(key, rows)`: done when the cache holds `rows` rows under `key`
    /// (or when the job file is dequeued).
    pub probe: (MeasureKey, usize),
}

struct Tracked {
    id: String,
    probe: (MeasureKey, usize),
    done: bool,
    last_generation: u64,
    stalled: Duration,
}

/// Dispatches `jobs` to a worker fleet over `cfg.cache_dir` and waits —
/// with reclaim on stalled leases and bounded retry pacing from
/// [`RetryPolicy`] — until every unit is satisfied or the wait budget
/// expires. On return (either way), leftover queue files for missing
/// units are cancelled and spawned workers are reaped; the caller then
/// runs its study in-process against the warm cache, which
/// computes only what the fleet did not deliver.
///
/// `probe_ctx` is only used to probe the cache for published records.
pub fn dispatch(
    cfg: &DispatchConfig,
    jobs: Vec<DispatchJob>,
    probe_ctx: &RunContext,
) -> DispatchOutcome {
    let dir = cfg.cache_dir.as_path();
    let mut outcome = DispatchOutcome {
        jobs: jobs.len(),
        ..DispatchOutcome::default()
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

    let mut fleet: Vec<std::process::Child> = Vec::new();
    if !tracked.is_empty() {
        if let (Some(exe), true) = (&cfg.exe, cfg.workers > 0) {
            for i in 0..cfg.workers {
                let spawned = std::process::Command::new(exe)
                    .arg("worker")
                    .arg("--cache-dir")
                    .arg(dir)
                    .arg("--drain")
                    .arg("--id")
                    .arg(format!("fleet-{i}-{}", std::process::id()))
                    .stdin(std::process::Stdio::null())
                    .stdout(std::process::Stdio::null())
                    .spawn();
                match spawned {
                    Ok(child) => fleet.push(child),
                    Err(e) => eprintln!("dispatch: cannot spawn worker {i}: {e}"),
                }
            }
        }
    }

    // Wait on the fleet. Elapsed time is the sum of pauses actually
    // slept — the same discipline as RetryPolicy, no wall clock.
    let mut waited = Duration::ZERO;
    loop {
        let mut missing = 0usize;
        for t in tracked.iter_mut().filter(|t| !t.done) {
            let (key, rows) = &t.probe;
            let published = probe_ctx.cache().probe_rows(key) >= *rows;
            if published || !job_path(dir, &t.id).exists() {
                t.done = true;
                outcome.completed += 1;
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
    reap(&mut fleet);
    outcome
}

/// Reaps spawned workers: waits briefly for the drain-mode exit (the
/// queue is empty or cancelled by now), then kills stragglers — records
/// they were mid-publishing are either whole or invisible, so killing
/// is always safe.
fn reap(fleet: &mut Vec<std::process::Child>) {
    let grace = RetryPolicy::new(8).initial_backoff(Duration::from_millis(50));
    for mut child in fleet.drain(..) {
        let mut attempt = 0u32;
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) => match grace.backoff_after(attempt) {
                    Some(pause) => {
                        std::thread::sleep(pause);
                        attempt += 1;
                    }
                    None => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                },
                Err(_) => break,
            }
        }
    }
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
    use varbench_core::study::Study;

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
        cfg.serial = true;
        let summary = run_worker(&cfg);
        assert_eq!(summary.completed as usize, plan.len());
        assert_eq!(summary.skipped, 0);
        assert!(scan_queue(&dir).is_empty(), "queue drained");
        assert!(lease::scan_leases(&dir).is_empty(), "leases released");
        for pm in &plan {
            let key = MeasureKey::new(w.as_ref(), pm.measure_kind(), pm.base_seed);
            assert_eq!(probe.cache().probe_rows(&key), 3, "{}", pm.label());
        }
        // A second worker over the same queue finds nothing.
        assert_eq!(run_worker(&cfg), WorkerSummary::default());
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
        cfg.serial = true;
        let summary = run_worker(&cfg);
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
            cache_dir: dir.clone(),
            workers: 0,
            exe: None,
            wait: Duration::from_millis(100),
            row_timeout: Duration::from_millis(50),
            poll: Duration::from_millis(10),
        };
        let outcome = dispatch(&cfg, jobs, &ctx);
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
        let outcome = dispatch(&cfg, jobs, &ctx);
        assert_eq!(outcome.satisfied_upfront, outcome.jobs);
        assert!(!outcome.timed_out);
        let _ = std::fs::remove_dir_all(&dir);
    }

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
        cfg.serial = true;
        // An unwinding crash mid-row (drain's SIGTERM shape): the worker
        // must not leave its lease for timeout-based reclaim.
        let _arm = varbench_pipeline::faultpoint::arm_local("worker:mid-row:panic");
        let crashed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_worker(&cfg))).is_err();
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
        let summary = run_worker(&cfg);
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
        cfg.serial = true;
        cfg.stop_file = Some(stop);
        let summary = run_worker(&cfg);
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
            cache_dir: dir.clone(),
            workers: 0,
            exe: None,
            wait: Duration::from_millis(300),
            row_timeout: Duration::from_millis(50),
            poll: Duration::from_millis(10),
        };
        let outcome = dispatch(&cfg, jobs, &ctx);
        assert!(outcome.reclaims >= 1, "dead owner's lease reclaimed");
        assert!(outcome.timed_out, "nobody took the reclaimed lease over");
        let l = read_lease(&dir, &id).expect("lease survives for takeover");
        assert!(l.open, "left open for the next worker");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
