//! Crash-safe work leases over the shared cache directory.
//!
//! The worker fleet (`varbench worker`) coordinates through the same
//! directory the [`crate::cache::MeasureCache`] persists to — the
//! ROADMAP's "cache directory as a coordination substrate". Two small
//! namespaces live *beside* the records, under the current format
//! version directory:
//!
//! * `v<N>/queue/<stem>.job` — one pending unit of work, published
//!   atomically (tmp + rename) by the dispatch driver. The payload
//!   belongs to the bench layer; this module only fixes the location,
//!   the `varbench-job 1` header line, and the `job <id>` line that
//!   ties a file to its lease;
//! * `v<N>/leases/<stem>.lease` — who is computing that unit right now.
//!
//! `<stem>` is the FNV-1a hash of the job id (for study units the job id
//! IS the measurement's canonical cache key), so a job and its lease
//! share a filename stem, and neither ever appears inside a cache key —
//! the key canon is untouched by construction (the L004
//! firewall).
//!
//! # Protocol
//!
//! * **Claim** is an atomic `create_new` of the lease file: exactly one
//!   process can create it, however many race. The lease records the
//!   owner, a generation stamp (1 on first claim) and state `held`.
//! * **Reclaim** (driver-only): when a row times out with no progress,
//!   the driver rewrites the lease `state` to `open` (atomic tmp +
//!   rename), keeping the generation it observed — but only if the
//!   lease still shows that generation, so a lease that changed hands
//!   in the meantime is never yanked.
//! * **Takeover**: a worker that finds an `open` lease may rewrite it to
//!   `held` with generation + 1 (atomic rename). Two racing takeovers
//!   both "win" the rename; both compute; the cache's atomic publish
//!   and content addressing make the duplicate harmless.
//! * **Release**: the finishing worker deletes its lease and job file.
//!
//! Every race in this protocol degrades to *duplicate computation*,
//! never to corruption: leases only decide **who** computes a row, while
//! the content-addressed record decides **what** is stored — and
//! identical keys compute identical bytes. That is the whole
//! crash-safety argument, and `crates/bench/tests/worker_fleet.rs`
//! enforces it with real killed processes.

#![deny(missing_docs)]

use std::io;
use std::path::{Path, PathBuf};

use crate::cache::{fnv1a64, CACHE_FORMAT_VERSION};
use crate::faultpoint::faultpoint;

/// First line of every lease file; a file without it is torn or alien.
pub const LEASE_HEADER: &str = "varbench-lease 1";

/// First line of every queued job file. The rest of the payload belongs
/// to the enqueuing layer, except a `job <id>` second line (see
/// [`job_id_of`]).
pub const JOB_HEADER: &str = "varbench-job 1";

/// The lease namespace under `dir` (the cache root).
pub fn leases_dir(dir: &Path) -> PathBuf {
    dir.join(format!("v{CACHE_FORMAT_VERSION}")).join("leases")
}

/// The pending-work namespace under `dir` (the cache root).
pub fn queue_dir(dir: &Path) -> PathBuf {
    dir.join(format!("v{CACHE_FORMAT_VERSION}")).join("queue")
}

/// The filename stem shared by a job id's queue file and lease file.
pub fn stem(job_id: &str) -> String {
    format!("{:016x}", fnv1a64(job_id.as_bytes()))
}

/// Path of the lease file for `job_id`.
pub fn lease_path(dir: &Path, job_id: &str) -> PathBuf {
    leases_dir(dir).join(format!("{}.lease", stem(job_id)))
}

/// Path of the queue file for `job_id`.
pub fn job_path(dir: &Path, job_id: &str) -> PathBuf {
    queue_dir(dir).join(format!("{}.job", stem(job_id)))
}

/// A parsed lease file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// The job id this lease covers (for study units: the measurement's
    /// canonical cache key).
    pub job: String,
    /// Who holds (or last held) the lease, e.g. `worker-<pid>`.
    pub owner: String,
    /// Ownership generation: 1 on first claim, +1 per takeover.
    pub generation: u64,
    /// `true` when the driver reclaimed the lease and it awaits takeover.
    pub open: bool,
}

/// Outcome of [`claim`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// The caller now holds the lease at this generation and must
    /// compute the job, then [`release`] it.
    Acquired(u64),
    /// Someone else holds the lease (an unparseable — mid-write — lease
    /// reads as held by an unknown owner at generation 0: claiming must
    /// fail safe, toward duplicate *waiting*, not duplicate ownership).
    Busy(Lease),
}

fn render(lease: &Lease) -> String {
    format!(
        "{LEASE_HEADER}\njob {}\nowner {}\ngeneration {}\nstate {}\n",
        lease.job,
        lease.owner,
        lease.generation,
        if lease.open { "open" } else { "held" }
    )
}

fn parse(text: &str) -> Option<Lease> {
    let mut lines = text.lines();
    if lines.next()? != LEASE_HEADER {
        return None;
    }
    let job = lines.next()?.strip_prefix("job ")?.to_string();
    let owner = lines.next()?.strip_prefix("owner ")?.to_string();
    let generation = lines.next()?.strip_prefix("generation ")?.parse().ok()?;
    let open = match lines.next()?.strip_prefix("state ")? {
        "open" => true,
        "held" => false,
        _ => return None,
    };
    Some(Lease {
        job,
        owner,
        generation,
        open,
    })
}

/// Reads and parses the lease for `job_id`, if one exists and is whole.
pub fn read_lease(dir: &Path, job_id: &str) -> Option<Lease> {
    let text = std::fs::read_to_string(lease_path(dir, job_id)).ok()?;
    parse(&text)
}

/// Atomically replaces the lease file with `lease` (tmp + rename, the
/// cache's publish discipline).
fn replace(path: &Path, lease: &Lease) -> io::Result<()> {
    let tmp = path.with_extension(format!("lease.tmp.{}", std::process::id()));
    std::fs::write(&tmp, render(lease))?;
    faultpoint("claim:before-rename");
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Tries to claim the lease for `job_id` on behalf of `owner`.
///
/// First claim is an atomic `create_new`; an `open` (reclaimed) lease is
/// taken over at generation + 1. A held lease returns
/// [`ClaimOutcome::Busy`].
pub fn claim(dir: &Path, job_id: &str, owner: &str) -> io::Result<ClaimOutcome> {
    let ldir = leases_dir(dir);
    std::fs::create_dir_all(&ldir)?;
    let path = lease_path(dir, job_id);
    faultpoint("claim:before-create");
    match std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(&path)
    {
        Ok(mut f) => {
            faultpoint("claim:after-create");
            let lease = Lease {
                job: job_id.to_string(),
                owner: owner.to_string(),
                generation: 1,
                open: false,
            };
            io::Write::write_all(&mut f, render(&lease).as_bytes())?;
            Ok(ClaimOutcome::Acquired(1))
        }
        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
            let current = read_lease(dir, job_id).unwrap_or(Lease {
                job: job_id.to_string(),
                owner: "?".to_string(),
                generation: 0,
                open: false,
            });
            if current.open {
                let next = Lease {
                    job: job_id.to_string(),
                    owner: owner.to_string(),
                    generation: current.generation + 1,
                    open: false,
                };
                replace(&path, &next)?;
                Ok(ClaimOutcome::Acquired(next.generation))
            } else {
                Ok(ClaimOutcome::Busy(current))
            }
        }
        Err(e) => Err(e),
    }
}

/// Driver-side reclaim: marks the lease `open` for takeover, but only if
/// it still shows `expect_generation` and is still held — a lease that
/// completed (file gone) or changed hands is left alone. Returns whether
/// the lease was reclaimed.
pub fn reclaim(dir: &Path, job_id: &str, expect_generation: u64) -> io::Result<bool> {
    let Some(current) = read_lease(dir, job_id) else {
        return Ok(false);
    };
    if current.open || current.generation != expect_generation {
        return Ok(false);
    }
    let opened = Lease {
        open: true,
        ..current
    };
    replace(&lease_path(dir, job_id), &opened)?;
    Ok(true)
}

/// Deletes the lease for `job_id` if `owner` still holds it (a finisher
/// whose lease was reclaimed and re-claimed leaves the new owner's lease
/// alone). Returns whether a lease file was removed.
pub fn release(dir: &Path, job_id: &str, owner: &str) -> bool {
    match read_lease(dir, job_id) {
        Some(l) if l.owner == owner && !l.open => {
            faultpoint("release:before-remove");
            std::fs::remove_file(lease_path(dir, job_id)).is_ok()
        }
        _ => false,
    }
}

/// All whole lease files under `dir`, sorted by filename stem (the scan
/// order is deterministic for stats and tests).
pub fn scan_leases(dir: &Path) -> Vec<Lease> {
    let mut found: Vec<(String, Lease)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(leases_dir(dir)) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".lease") {
                continue;
            }
            if let Some(lease) = std::fs::read_to_string(entry.path())
                .ok()
                .and_then(|t| parse(&t))
            {
                found.push((name, lease));
            }
        }
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found.into_iter().map(|(_, l)| l).collect()
}

/// The job ids of the queued job files under `dir`, sorted by filename
/// stem — the worker's deterministic scan order. Torn or alien files
/// (bad header, no `job ` line) are skipped; [`gc`] reaps them.
pub fn scan_queue(dir: &Path) -> Vec<String> {
    let mut found: Vec<(String, String)> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(queue_dir(dir)) {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".job") {
                continue;
            }
            if let Some(id) = std::fs::read_to_string(entry.path())
                .ok()
                .as_deref()
                .and_then(job_id_of)
            {
                found.push((name, id.to_string()));
            }
        }
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found.into_iter().map(|(_, id)| id).collect()
}

/// Extracts the job id from a queue file's text: header line, then a
/// `job <id>` line. Returns `None` for torn or alien files.
pub fn job_id_of(text: &str) -> Option<&str> {
    let mut lines = text.lines();
    if lines.next()? != JOB_HEADER {
        return None;
    }
    lines.next()?.strip_prefix("job ")
}

/// Atomically publishes a queue file for `job_id` with `payload` (the
/// enqueuing layer's serialized job; [`JOB_HEADER`] and the `job <id>`
/// line are prepended here so [`scan_queue`] and [`gc`] can read any
/// queue file without knowing the payload format). Overwrites an
/// existing file for the same id — the id is content-derived, so the
/// payload is identical by construction.
pub fn enqueue(dir: &Path, job_id: &str, payload: &str) -> io::Result<()> {
    let qdir = queue_dir(dir);
    std::fs::create_dir_all(&qdir)?;
    let path = job_path(dir, job_id);
    let tmp = path.with_extension(format!("job.tmp.{}", std::process::id()));
    std::fs::write(&tmp, format!("{JOB_HEADER}\njob {job_id}\n{payload}"))?;
    faultpoint("enqueue:before-rename");
    std::fs::rename(&tmp, &path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Removes the queue file for `job_id` (idempotent; used by the worker
/// on completion and by the driver when cancelling leftovers). Returns
/// whether a file was removed.
pub fn dequeue(dir: &Path, job_id: &str) -> bool {
    std::fs::remove_file(job_path(dir, job_id)).is_ok()
}

/// Live lease accounting for `varbench cache stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseTally {
    /// Leases currently held by a worker.
    pub active: u64,
    /// Leases reclaimed by a driver and awaiting takeover.
    pub reclaimed: u64,
    /// Total ownership handoffs observed (sum of generation − 1): how
    /// often a row's first owner did not finish it.
    pub takeovers: u64,
    /// Pending job files in the queue.
    pub queued: u64,
}

/// Tallies the lease and queue namespaces under `dir`.
pub fn tally(dir: &Path) -> LeaseTally {
    let mut t = LeaseTally::default();
    for lease in scan_leases(dir) {
        if lease.open {
            t.reclaimed += 1;
        } else {
            t.active += 1;
        }
        t.takeovers += lease.generation.saturating_sub(1);
    }
    t.queued = scan_queue(dir).len() as u64;
    t
}

/// What one lease/queue gc sweep removed (folded into the cache's
/// [`crate::cache::GcReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseGc {
    /// Stale lease files removed: torn/alien files, and leases whose job
    /// is no longer queued (completed, cancelled, or superseded — a
    /// lease without pending work can never be exercised again).
    pub stale_leases: u64,
    /// Torn or alien queue files removed.
    pub torn_jobs: u64,
    /// Orphaned temporaries removed from both namespaces.
    pub tmp_files: u64,
    /// Bytes reclaimed by this sweep.
    pub bytes_reclaimed: u64,
}

/// Sweeps the lease and queue namespaces under `dir`.
///
/// A lease is *stale* — and reaped — when it is torn, or when no queue
/// file exists for its stem (its work finished or was cancelled; a
/// crashed worker's lease on still-queued work is deliberately kept:
/// liveness is the driver's judgement via [`reclaim`], not gc's).
pub fn gc(dir: &Path) -> LeaseGc {
    let mut report = LeaseGc::default();
    let qdir = queue_dir(dir);
    let sweep = |subdir: &Path, keep_suffix: &str, report: &mut LeaseGc, is_lease: bool| {
        let Ok(entries) = std::fs::read_dir(subdir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = entry.path();
            let bytes = entry.metadata().map_or(0, |m| m.len());
            if name.contains(".tmp.") {
                if std::fs::remove_file(&path).is_ok() {
                    report.tmp_files += 1;
                    report.bytes_reclaimed += bytes;
                }
                continue;
            }
            let Some(file_stem) = name.strip_suffix(keep_suffix) else {
                continue; // not ours; leave it alone
            };
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            let stale = if is_lease {
                parse(&text).is_none() || !qdir.join(format!("{file_stem}.job")).exists()
            } else {
                job_id_of(&text).is_none()
            };
            if stale && std::fs::remove_file(&path).is_ok() {
                if is_lease {
                    report.stale_leases += 1;
                } else {
                    report.torn_jobs += 1;
                }
                report.bytes_reclaimed += bytes;
            }
        }
    };
    // Queue first: a torn job file removed here makes its lease stale in
    // the same pass.
    sweep(&qdir, ".job", &mut report, false);
    sweep(&leases_dir(dir), ".lease", &mut report, true);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "varbench-lease-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const JOB: &str = "v2|w=demo@1:test|fp=0000000000000000|source:init|seed=0000000000000007";

    #[test]
    fn claim_is_exclusive_then_released() {
        let dir = scratch("claim");
        assert_eq!(claim(&dir, JOB, "w1").unwrap(), ClaimOutcome::Acquired(1));
        match claim(&dir, JOB, "w2").unwrap() {
            ClaimOutcome::Busy(l) => {
                assert_eq!(l.owner, "w1");
                assert_eq!(l.generation, 1);
                assert!(!l.open);
            }
            other => panic!("second claim must be busy, got {other:?}"),
        }
        assert!(release(&dir, JOB, "w1"));
        assert_eq!(claim(&dir, JOB, "w2").unwrap(), ClaimOutcome::Acquired(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reclaim_then_takeover_bumps_generation() {
        let dir = scratch("reclaim");
        assert_eq!(claim(&dir, JOB, "w1").unwrap(), ClaimOutcome::Acquired(1));
        // Wrong expected generation: left alone.
        assert!(!reclaim(&dir, JOB, 2).unwrap());
        assert!(reclaim(&dir, JOB, 1).unwrap());
        let l = read_lease(&dir, JOB).unwrap();
        assert!(l.open);
        assert_eq!(l.generation, 1, "reclaim keeps the generation");
        // Reclaiming an already-open lease is a no-op.
        assert!(!reclaim(&dir, JOB, 1).unwrap());
        // Takeover claims at generation + 1.
        assert_eq!(claim(&dir, JOB, "w2").unwrap(), ClaimOutcome::Acquired(2));
        let l = read_lease(&dir, JOB).unwrap();
        assert_eq!((l.owner.as_str(), l.generation, l.open), ("w2", 2, false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn release_is_owner_checked() {
        let dir = scratch("owner");
        claim(&dir, JOB, "w1").unwrap();
        assert!(!release(&dir, JOB, "w2"), "not the owner");
        assert!(read_lease(&dir, JOB).is_some());
        // The original owner finishing after a reclaim + takeover must
        // not delete the new owner's lease.
        reclaim(&dir, JOB, 1).unwrap();
        claim(&dir, JOB, "w2").unwrap();
        assert!(!release(&dir, JOB, "w1"));
        assert_eq!(read_lease(&dir, JOB).unwrap().owner, "w2");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_lease_reads_as_busy_unknown() {
        let dir = scratch("torn");
        std::fs::create_dir_all(leases_dir(&dir)).unwrap();
        std::fs::write(lease_path(&dir, JOB), "half a lea").unwrap();
        match claim(&dir, JOB, "w1").unwrap() {
            ClaimOutcome::Busy(l) => assert_eq!((l.owner.as_str(), l.generation), ("?", 0)),
            other => panic!("torn lease must read busy, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_round_trips_and_scans_deterministically() {
        let dir = scratch("queue");
        enqueue(&dir, "job-b", "payload b\n").unwrap();
        enqueue(&dir, "job-a", "payload a\n").unwrap();
        let mut expect = [("job-a", stem("job-a")), ("job-b", stem("job-b"))];
        expect.sort_by(|a, b| a.1.cmp(&b.1));
        assert_eq!(
            scan_queue(&dir),
            expect
                .iter()
                .map(|(id, _)| id.to_string())
                .collect::<Vec<_>>()
        );
        let text = std::fs::read_to_string(job_path(&dir, "job-a")).unwrap();
        assert_eq!(job_id_of(&text), Some("job-a"));
        assert!(text.ends_with("payload a\n"));
        assert!(dequeue(&dir, "job-a"));
        assert!(!dequeue(&dir, "job-a"), "idempotent");
        assert_eq!(scan_queue(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tally_counts_lease_states_and_queue_depth() {
        let dir = scratch("tally");
        enqueue(&dir, "a", "p\n").unwrap();
        enqueue(&dir, "b", "p\n").unwrap();
        claim(&dir, "a", "w1").unwrap();
        claim(&dir, "b", "w1").unwrap();
        reclaim(&dir, "b", 1).unwrap();
        claim(&dir, "b", "w2").unwrap(); // takeover: generation 2
        reclaim(&dir, "b", 2).unwrap();
        let t = tally(&dir);
        assert_eq!(t.active, 1);
        assert_eq!(t.reclaimed, 1);
        assert_eq!(t.takeovers, 1);
        assert_eq!(t.queued, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_reaps_orphans_but_keeps_live_work() {
        let dir = scratch("gc");
        // Live: queued job with a held lease.
        enqueue(&dir, "live", "p\n").unwrap();
        claim(&dir, "live", "w1").unwrap();
        // Stale: lease whose job finished (file dequeued).
        enqueue(&dir, "done", "p\n").unwrap();
        claim(&dir, "done", "w1").unwrap();
        dequeue(&dir, "done");
        // Torn lease, torn job, and orphan temporaries.
        std::fs::write(leases_dir(&dir).join("feedbeef.lease"), "garbage").unwrap();
        std::fs::write(queue_dir(&dir).join("feedbeef.job"), "garbage").unwrap();
        std::fs::write(leases_dir(&dir).join("x.lease.tmp.7"), "t").unwrap();
        std::fs::write(queue_dir(&dir).join("y.job.tmp.7"), "t").unwrap();

        let report = gc(&dir);
        assert_eq!(report.stale_leases, 2, "done + torn lease");
        assert_eq!(report.torn_jobs, 1);
        assert_eq!(report.tmp_files, 2);
        assert!(report.bytes_reclaimed > 0);
        assert!(read_lease(&dir, "live").is_some(), "live lease kept");
        assert_eq!(scan_queue(&dir), vec!["live".to_string()]);
        // Idempotent.
        assert_eq!(gc(&dir), LeaseGc::default());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
