//! Kill-9 torture tests for the sharded-study worker fleet.
//!
//! Real `varbench worker` subprocesses are killed at armed faultpoints
//! (`VARBENCH_FAULT`, see `varbench_pipeline::faultpoint`) — once
//! mid-publish, after the record's temp file is written but before the
//! rename, and once mid-row, holding a fresh lease — and the dispatch
//! driver must then reclaim the dead leases, re-dispatch the rows, and
//! produce a report byte-identical to an unsharded single-process run.
//! The faultpoints are compiled in because integration tests build the
//! binary in debug mode (`debug_assertions` on).

use std::path::{Path, PathBuf};
use std::process::Command;

use varbench_bench::args::Effort;
use varbench_bench::protocol::StudyRequest;
use varbench_bench::registry::RunContext;
use varbench_bench::worker::study_jobs;
use varbench_core::exec::Runner;
use varbench_pipeline::{gc_dir, lease, MeasureCache};

fn varbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_varbench"))
}

/// The study every test shards: small enough to finish in seconds, big
/// enough to produce two independent plan units (a variance row and an
/// HPO row) so two workers can die on two different rows.
const STUDY_ARGS: &[&str] = &[
    "study",
    "synthetic-ridge",
    "--test",
    "--seeds",
    "4",
    "--budget",
    "3",
    "--json",
];

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("varbench-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp cache dir");
    dir
}

/// The unsharded ground truth: one process, its own cache dir.
fn baseline_bytes(tag: &str) -> Vec<u8> {
    let dir = fresh_dir(tag);
    let out = varbench()
        .args(STUDY_ARGS)
        .env("VARBENCH_CACHE_DIR", &dir)
        .output()
        .expect("baseline study");
    assert!(
        out.status.success(),
        "baseline study failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
    out.stdout
}

fn request() -> StudyRequest {
    StudyRequest {
        workload: "synthetic-ridge".into(),
        effort: Effort::Test,
        sources: None,
        seeds: Some(4),
        base_seed: None,
        budget: Some(3),
        algo: None,
        gamma: None,
        name: None,
        dispatch: false,
    }
}

/// Enqueues the study's plan into `cache` exactly as the dispatch
/// driver would, returning the probe context and the per-unit jobs.
fn enqueue_plan(cache: &Path) -> (RunContext, Vec<varbench_bench::worker::DispatchJob>) {
    let ctx = RunContext::new(Runner::serial(), MeasureCache::with_dir(cache));
    let req = request();
    let w = req.find_workload().expect("workload registered");
    let study = req.configure(w.as_ref()).expect("valid request");
    let jobs = study_jobs(&req.workload, req.effort, w.as_ref(), study.plan(), &ctx);
    assert_eq!(jobs.len(), 2, "expected a variance row and an HPO row");
    for dj in &jobs {
        lease::enqueue(cache, &dj.id, &dj.job.render()).expect("enqueue");
    }
    (ctx, jobs)
}

#[test]
fn killed_workers_never_corrupt_the_study() {
    let baseline = baseline_bytes("torture-base");
    let cache = fresh_dir("torture");
    let (_ctx, jobs) = enqueue_plan(&cache);

    // Victim 1 dies mid-publish: the record's bytes are fully written
    // to the temp file, the rename never happens. The torn state a
    // naive worker would leave behind.
    let status = varbench()
        .arg("worker")
        .arg("--cache-dir")
        .arg(&cache)
        .args(["--drain", "--serial", "--id", "doomed-publish"])
        .env("VARBENCH_FAULT", "publish:after-tmp:kill")
        .status()
        .expect("spawn victim 1");
    assert!(!status.success(), "victim 1 must abort at the faultpoint");

    // The half-published record must be invisible: a tmp file is not a
    // record until the atomic rename lands.
    let probe = MeasureCache::with_dir(&cache);
    let visible: usize = jobs.iter().map(|dj| probe.probe_rows(&dj.probe.0)).sum();
    assert_eq!(visible, 0, "an aborted publish must not expose a record");

    // Victim 2 dies mid-row on the other unit, lease freshly claimed,
    // nothing computed.
    let status = varbench()
        .arg("worker")
        .arg("--cache-dir")
        .arg(&cache)
        .args(["--drain", "--serial", "--id", "doomed-midrow"])
        .env("VARBENCH_FAULT", "worker:mid-row:kill")
        .status()
        .expect("spawn victim 2");
    assert!(!status.success(), "victim 2 must abort at the faultpoint");

    let leases = lease::scan_leases(&cache);
    assert_eq!(leases.len(), 2, "both rows are leased by dead workers");
    assert!(
        leases.iter().all(|l| !l.open),
        "nobody has reclaimed anything yet: {leases:?}"
    );

    // The driver dispatches over the wreckage: it must reclaim both
    // dead leases, hand the rows to the one clean worker it spawns,
    // and emit the exact baseline bytes.
    let out = varbench()
        .args(STUDY_ARGS)
        .args([
            "--workers",
            "1",
            "--wait-ms",
            "60000",
            "--row-timeout-ms",
            "400",
        ])
        .env("VARBENCH_CACHE_DIR", &cache)
        .output()
        .expect("driver study");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "driver failed: {stderr}");
    assert_eq!(
        out.stdout, baseline,
        "sharded report must be byte-identical to the single-process run"
    );
    assert!(
        stderr.contains("lease reclaim"),
        "driver must report its reclaim accounting: {stderr}"
    );
    assert!(
        !stderr.contains(" 0 lease reclaim(s)"),
        "both dead leases stalled and must have been reclaimed: {stderr}"
    );

    // gc after the carnage: the aborted publish left an orphan temp
    // file, but no torn record — the atomic-rename discipline held
    // under kill -9.
    let report = gc_dir(&cache).expect("gc");
    assert_eq!(report.torn_files, 0, "no torn records: {report:?}");
    assert!(
        report.tmp_files >= 1,
        "victim 1's orphan temp file should be reaped: {report:?}"
    );
    assert!(
        report.kept_records >= 2,
        "real records survive gc: {report:?}"
    );
    assert!(
        lease::scan_leases(&cache).is_empty(),
        "completed rows leave no leases behind"
    );

    // And the gc'd cache still replays the same bytes from warm
    // records (no recompute, same report).
    let warm = varbench()
        .args(STUDY_ARGS)
        .env("VARBENCH_CACHE_DIR", &cache)
        .output()
        .expect("warm study");
    assert!(warm.status.success());
    assert_eq!(warm.stdout, baseline, "gc must not eat live records");

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn concurrent_reclaims_converge_on_one_takeover() {
    let cache = fresh_dir("reclaim-race");
    lease::enqueue(&cache, "race-row", "payload").expect("enqueue");

    // A worker claims the row, then dies without releasing: the lease is
    // held at generation 1 with nobody left to finish it.
    match lease::claim(&cache, "race-row", "dead-worker").expect("claim") {
        lease::ClaimOutcome::Acquired(generation) => assert_eq!(generation, 1),
        other => panic!("first claim must acquire: {other:?}"),
    }

    // Two drivers notice the stall at the same moment and both reclaim
    // against the generation they observed. Reclaim is idempotent for a
    // given generation, so whatever interleaving the scheduler picks,
    // the race degrades to duplicate marking — never to two owners.
    let (dir_a, dir_b) = (cache.clone(), cache.clone());
    let a = std::thread::spawn(move || lease::reclaim(&dir_a, "race-row", 1).expect("reclaim a"));
    let b = std::thread::spawn(move || lease::reclaim(&dir_b, "race-row", 1).expect("reclaim b"));
    let (a, b) = (a.join().expect("thread a"), b.join().expect("thread b"));
    assert!(a || b, "at least one reclaim must land");

    let leases = lease::scan_leases(&cache);
    assert_eq!(
        leases.len(),
        1,
        "one lease file, however the race fell: {leases:?}"
    );
    assert!(leases[0].open, "a reclaimed lease awaits takeover");
    assert_eq!(
        leases[0].generation, 1,
        "reclaim keeps the dead owner's generation"
    );

    // Exactly one successor takes over, at generation 2; anyone arriving
    // after that sees a held lease.
    match lease::claim(&cache, "race-row", "successor").expect("takeover") {
        lease::ClaimOutcome::Acquired(generation) => assert_eq!(generation, 2),
        other => panic!("takeover must acquire: {other:?}"),
    }
    match lease::claim(&cache, "race-row", "late-arrival").expect("second takeover") {
        lease::ClaimOutcome::Busy(l) => {
            assert_eq!(l.owner, "successor");
            assert_eq!(l.generation, 2);
        }
        other => panic!("the row has an owner again: {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn double_release_is_a_no_op() {
    let cache = fresh_dir("double-release");
    lease::enqueue(&cache, "row", "payload").expect("enqueue");
    assert!(matches!(
        lease::claim(&cache, "row", "w1").expect("claim"),
        lease::ClaimOutcome::Acquired(1)
    ));

    assert!(
        lease::release(&cache, "row", "w1"),
        "first release removes the lease"
    );
    assert!(
        !lease::release(&cache, "row", "w1"),
        "releasing an already-released lease is a no-op"
    );
    assert!(lease::scan_leases(&cache).is_empty());

    // A stale finisher must not release a lease that changed hands: w2
    // claims the row fresh, and w1's late release bounces off.
    assert!(matches!(
        lease::claim(&cache, "row", "w2").expect("reclaim"),
        lease::ClaimOutcome::Acquired(1)
    ));
    assert!(
        !lease::release(&cache, "row", "w1"),
        "only the current owner may release"
    );
    let leases = lease::scan_leases(&cache);
    assert_eq!(leases.len(), 1, "w2's lease is intact: {leases:?}");
    assert_eq!(leases[0].owner, "w2");

    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn dispatch_without_workers_degrades_to_in_process() {
    let baseline = baseline_bytes("fallback-base");
    let cache = fresh_dir("fallback");

    // --dispatch with no external fleet and a tiny wait budget: the
    // driver enqueues, waits, gives up, cancels its queue entries, and
    // computes everything in-process — same bytes, exit 0.
    let out = varbench()
        .args(STUDY_ARGS)
        .args(["--dispatch", "--wait-ms", "250", "--row-timeout-ms", "100"])
        .env("VARBENCH_CACHE_DIR", &cache)
        .output()
        .expect("dispatch study");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "fallback must succeed: {stderr}");
    assert_eq!(
        out.stdout, baseline,
        "in-process fallback must match the single-process bytes"
    );
    assert!(
        stderr.contains("wait budget expired"),
        "the degradation must be reported: {stderr}"
    );
    assert!(
        lease::scan_queue(&cache).is_empty(),
        "abandoned queue entries are cancelled on fallback"
    );

    let _ = std::fs::remove_dir_all(&cache);
}
