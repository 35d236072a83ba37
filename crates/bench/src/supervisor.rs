//! Supervision of a `varbench worker` fleet: the one owner of every
//! fleet, for the study server and for `varbench study --workers N`.
//!
//! [`Supervisor::start`] spawns N long-lived `varbench worker` child
//! processes against a shared cache directory and watches them from a
//! monitor thread. A worker that exits while the fleet is supposed to be
//! running is respawned under the shared [`RetryPolicy`] schedule —
//! bounded restarts with exponential backoff — and a slot whose worker
//! keeps dying faster than [`SupervisorConfig::healthy_after`] is
//! eventually **quarantined**: the supervisor stops respawning it and
//! reports it in [`FleetStatus`], which `GET /v1/ready` surfaces to
//! clients. A slot's rapid-death count resets once its worker survives
//! `healthy_after` of accumulated monitor polls, so a fleet that crashes
//! once a day never exhausts its restart budget.
//!
//! Each worker's stdin is a pipe from the supervisor. [`Supervisor::wake`]
//! writes one byte to every live worker, which ends the worker's idle
//! wait at once (see [`crate::worker::run_worker`]): the dispatch driver
//! rings the fleet whenever it enqueues or reclaims a row, so a worker
//! starts on new work without waiting out its poll interval.
//!
//! Shutdown is a cooperative drain, not a `SIGKILL` volley:
//! [`Supervisor::shutdown`] writes a stop file that every worker checks
//! (`varbench worker --stop-file`), rings the fleet so idle workers see
//! it at once, waits up to a bounded drain budget for the children to
//! finish their in-flight row and exit, kills any stragglers, and
//! finally releases any lease still owned by this fleet's workers so a
//! later study never waits out a stall timeout on a lease whose owner is
//! gone.
//!
//! All waiting is paced by summing the `Duration`s actually slept — the
//! supervisor never reads a wall clock (lint L002).

#![deny(missing_docs)]

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use varbench_core::retry::RetryPolicy;
use varbench_pipeline::faultpoint::faultpoint;
use varbench_pipeline::lease;

/// Configuration for a supervised worker fleet.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Cache directory the workers share (queue + leases + records).
    pub cache_dir: PathBuf,
    /// Number of worker slots to keep populated.
    pub workers: usize,
    /// Path to the `varbench` binary to spawn workers from; `None` falls
    /// back to [`std::env::current_exe`] at start.
    pub exe: Option<PathBuf>,
    /// Restart schedule per slot: `attempts() - 1` respawns, paced by the
    /// policy's backoff; exhaustion quarantines the slot.
    pub respawn: RetryPolicy,
    /// Accumulated survival after which a slot's respawn count resets to
    /// zero — distinguishes a worker that dies occasionally from one
    /// that dies on arrival.
    pub healthy_after: Duration,
    /// Monitor poll interval.
    pub poll: Duration,
    /// Test hook: replaces the *entire* worker command line (program +
    /// args). The stop file and owner id are appended semantics-free, so
    /// `["/bin/sh", "-c", "exit 1"]` makes an instantly-dying fleet.
    pub argv: Option<Vec<String>>,
}

impl SupervisorConfig {
    /// A fleet of `workers` slots over `cache_dir` with default pacing:
    /// 3 respawns per slot at 100 ms initial backoff, a slot is healthy
    /// after surviving 5 s, monitor polls every 100 ms.
    pub fn new(cache_dir: impl Into<PathBuf>, workers: usize) -> SupervisorConfig {
        SupervisorConfig {
            cache_dir: cache_dir.into(),
            workers,
            exe: None,
            respawn: RetryPolicy::new(4)
                .initial_backoff(Duration::from_millis(100))
                .max_backoff(Duration::from_secs(2)),
            healthy_after: Duration::from_secs(5),
            poll: Duration::from_millis(100),
            argv: None,
        }
    }
}

/// One worker slot's state as reported by [`Supervisor::status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotStatus {
    /// Lease owner id of the slot's current (or last) worker.
    pub owner: String,
    /// Whether a worker process currently occupies the slot.
    pub running: bool,
    /// Respawns consumed since the slot last proved healthy.
    pub respawns: u32,
    /// The slot died too often and is no longer respawned.
    pub quarantined: bool,
}

/// Snapshot of fleet health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetStatus {
    /// Per-slot states, in slot order.
    pub slots: Vec<SlotStatus>,
}

impl FleetStatus {
    /// Number of slots with a live worker process.
    pub fn running(&self) -> usize {
        self.slots.iter().filter(|s| s.running).count()
    }

    /// Number of quarantined slots.
    pub fn quarantined(&self) -> usize {
        self.slots.iter().filter(|s| s.quarantined).count()
    }

    /// Total respawns currently charged across all slots.
    pub fn respawns(&self) -> u32 {
        self.slots.iter().map(|s| s.respawns).sum()
    }
}

/// What [`Supervisor::shutdown`] did on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrainSummary {
    /// Workers that exited on their own within the drain budget.
    pub exited: usize,
    /// Stragglers killed after the budget ran out.
    pub killed: usize,
    /// Held leases released on behalf of the fleet's owners.
    pub leases_released: usize,
}

struct Slot {
    owner: String,
    child: Option<Child>,
    respawns: u32,
    healthy: Duration,
    cooldown: Option<Duration>,
    quarantined: bool,
}

/// How often [`Supervisor::shutdown`] checks whether the drained
/// workers have exited.
const EXIT_CHECK: Duration = Duration::from_millis(1);

/// The monitor thread and the sender whose drop ends its sleep.
type Monitor = (Sender<()>, JoinHandle<()>);

/// A running supervised fleet. Dropping without [`Supervisor::shutdown`]
/// still stops the monitor and kills the children (no orphan processes),
/// but skips the cooperative drain.
pub struct Supervisor {
    slots: Arc<Mutex<Vec<Slot>>>,
    monitor: Mutex<Option<Monitor>>,
    cfg: SupervisorConfig,
    stop_file: PathBuf,
    owner_prefix: String,
}

impl Supervisor {
    /// Spawns the fleet and the monitor thread.
    pub fn start(mut cfg: SupervisorConfig) -> io::Result<Supervisor> {
        std::fs::create_dir_all(&cfg.cache_dir)?;
        if cfg.exe.is_none() && cfg.argv.is_none() {
            cfg.exe = Some(std::env::current_exe()?);
        }
        let owner_prefix = format!("fleet-{}-", std::process::id());
        let stop_file = cfg
            .cache_dir
            .join(format!("fleet-{}.stop", std::process::id()));
        let _ = std::fs::remove_file(&stop_file);

        // Built before the first spawn: if a later spawn fails, dropping
        // `sup` on the way out kills the workers already running.
        let sup = Supervisor {
            slots: Arc::new(Mutex::new(Vec::with_capacity(cfg.workers))),
            monitor: Mutex::new(None),
            cfg,
            stop_file,
            owner_prefix,
        };
        for i in 0..sup.cfg.workers {
            let owner = format!("{}s{i}", sup.owner_prefix);
            let child = spawn_worker(&sup.cfg, &sup.stop_file, &owner)?;
            sup.slots.lock().expect("fleet slots poisoned").push(Slot {
                owner,
                child: Some(child),
                respawns: 0,
                healthy: Duration::ZERO,
                cooldown: None,
                quarantined: false,
            });
        }
        let (stop, stopped) = mpsc::channel();
        let handle = {
            let slots = Arc::clone(&sup.slots);
            let cfg = sup.cfg.clone();
            let stop_file = sup.stop_file.clone();
            std::thread::spawn(move || monitor_loop(&slots, &cfg, &stop_file, &stopped))
        };
        *sup.monitor.lock().expect("monitor poisoned") = Some((stop, handle));
        Ok(sup)
    }

    /// Current fleet health.
    pub fn status(&self) -> FleetStatus {
        let slots = self.slots.lock().expect("fleet slots poisoned");
        FleetStatus {
            slots: slots
                .iter()
                .map(|s| SlotStatus {
                    owner: s.owner.clone(),
                    running: s.child.is_some(),
                    respawns: s.respawns,
                    quarantined: s.quarantined,
                })
                .collect(),
        }
    }

    /// The lease-owner prefix every worker in this fleet claims under.
    pub fn owner_prefix(&self) -> &str {
        &self.owner_prefix
    }

    /// Rings every live worker: one byte on its stdin ends its idle wait
    /// at once, so it scans the queue now instead of after its poll.
    /// Write errors are ignored: a dead worker is the monitor's to
    /// respawn, and a ring that never arrives only costs that poll.
    pub fn wake(&self) {
        let mut slots = self.slots.lock().expect("fleet slots poisoned");
        for child in slots.iter_mut().filter_map(|s| s.child.as_mut()) {
            if let Some(stdin) = child.stdin.as_mut() {
                let _ = stdin.write_all(b"\n");
            }
        }
    }

    /// Stops the monitor: dropping its sender ends its sleep at once.
    fn stop_monitor(&self) {
        // The guarded `Option` is valid in every state, so a poisoned
        // lock is safe to recover (and `Drop` must not panic).
        let monitor = self
            .monitor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some((stop, handle)) = monitor {
            drop(stop);
            let _ = handle.join();
        }
    }

    /// Drains the fleet: stop respawning, ask the workers to exit via
    /// the stop file and a ring, wait up to `drain` for them to finish
    /// their in-flight row, kill stragglers, and release any lease still
    /// owned by this fleet.
    pub fn shutdown(&self, drain: Duration) -> DrainSummary {
        self.stop_monitor();
        let _ = std::fs::write(&self.stop_file, b"drain\n");
        // After the stop file exists: a worker this ring wakes sees it.
        self.wake();

        let mut summary = DrainSummary::default();
        let mut slots = self.slots.lock().expect("fleet slots poisoned");
        let mut waited = Duration::ZERO;
        while waited < drain {
            let mut alive = 0;
            for slot in slots.iter_mut() {
                if let Some(child) = slot.child.as_mut() {
                    match child.try_wait() {
                        Ok(Some(_)) => {
                            slot.child = None;
                            summary.exited += 1;
                        }
                        Ok(None) => alive += 1,
                        Err(_) => alive += 1,
                    }
                }
            }
            if alive == 0 {
                break;
            }
            std::thread::sleep(EXIT_CHECK);
            waited += EXIT_CHECK;
        }
        for slot in slots.iter_mut() {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
                summary.killed += 1;
            }
        }
        drop(slots);

        // Leases a killed straggler (or an earlier crash the monitor had
        // already given up on) still holds: release them owner-checked so
        // the next study never waits out a stall timeout for a dead owner.
        for l in lease::scan_leases(&self.cfg.cache_dir) {
            if !l.open
                && l.owner.starts_with(&self.owner_prefix)
                && lease::release(&self.cfg.cache_dir, &l.job, &l.owner)
            {
                summary.leases_released += 1;
            }
        }
        let _ = std::fs::remove_file(&self.stop_file);
        summary
    }
}

impl Drop for Supervisor {
    fn drop(&mut self) {
        self.stop_monitor();
        let mut slots = self.slots.lock().expect("fleet slots poisoned");
        for slot in slots.iter_mut() {
            if let Some(mut child) = slot.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

fn spawn_worker(cfg: &SupervisorConfig, stop_file: &Path, owner: &str) -> io::Result<Child> {
    let mut cmd = match &cfg.argv {
        Some(argv) => {
            let mut cmd = Command::new(argv.first().map(String::as_str).unwrap_or("true"));
            cmd.args(&argv[1..]);
            cmd
        }
        None => {
            let exe = cfg.exe.as_deref().expect("exe resolved in start");
            let mut cmd = Command::new(exe);
            cmd.arg("worker")
                .arg("--cache-dir")
                .arg(&cfg.cache_dir)
                .arg("--id")
                .arg(owner)
                // Long-lived: the stop file (or the supervisor's death,
                // see below) ends the worker, not idleness.
                .arg("--idle-rounds")
                .arg("1000000")
                .arg("--poll-ms")
                .arg("50")
                .arg("--stop-file")
                .arg(stop_file);
            cmd
        }
    };
    // stdin carries the rings of `Supervisor::wake`. The first, written
    // at spawn, tells the worker a supervisor owns it: once this end
    // closes (the supervisor died), the worker stops instead of polling
    // on for an owner that is gone.
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let mut child = cmd.spawn()?;
    if let Some(stdin) = child.stdin.as_mut() {
        // A child that already exited is the monitor's to respawn.
        let _ = stdin.write_all(b"\n");
    }
    Ok(child)
}

/// Watches the slots once per `cfg.poll` until `stopped`'s sender is
/// dropped.
fn monitor_loop(
    slots: &Mutex<Vec<Slot>>,
    cfg: &SupervisorConfig,
    stop_file: &Path,
    stopped: &Receiver<()>,
) {
    loop {
        {
            let mut slots = slots.lock().expect("fleet slots poisoned");
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.quarantined {
                    continue;
                }
                match slot.child.as_mut().map(Child::try_wait) {
                    Some(Ok(None)) => {
                        // Alive: accumulate survival; a slot that lasts
                        // `healthy_after` earns its respawn budget back.
                        slot.healthy = slot.healthy.saturating_add(cfg.poll);
                        if slot.healthy >= cfg.healthy_after {
                            slot.respawns = 0;
                        }
                    }
                    Some(Ok(Some(_))) | Some(Err(_)) => {
                        if let Some(mut child) = slot.child.take() {
                            let _ = child.kill();
                            let _ = child.wait();
                        }
                        slot.healthy = Duration::ZERO;
                        match cfg.respawn.backoff_after(slot.respawns) {
                            Some(pause) => slot.cooldown = Some(pause),
                            None => {
                                slot.quarantined = true;
                                eprintln!(
                                    "supervisor: slot {i} quarantined after {} rapid death(s)",
                                    slot.respawns + 1
                                );
                            }
                        }
                    }
                    None => {
                        // Dead and cooling down towards a respawn.
                        let left = slot.cooldown.unwrap_or(Duration::ZERO);
                        if left > cfg.poll {
                            slot.cooldown = Some(left - cfg.poll);
                        } else {
                            slot.cooldown = None;
                            slot.respawns += 1;
                            faultpoint("supervisor:before-respawn");
                            let owner = format!("{}r{}", slot.owner, slot.respawns);
                            match spawn_worker(cfg, stop_file, &owner) {
                                Ok(child) => slot.child = Some(child),
                                Err(e) => {
                                    eprintln!("supervisor: respawn of slot {i} failed: {e}");
                                    slot.quarantined = true;
                                }
                            }
                        }
                    }
                }
            }
        }
        // A full poll unless the sender is dropped, which ends the wait
        // at once: the sums of `cfg.poll` above stay exact.
        if stopped.recv_timeout(cfg.poll) != Err(RecvTimeoutError::Timeout) {
            break;
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("varbench-sup-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sh(script: &str) -> Option<Vec<String>> {
        Some(vec!["/bin/sh".into(), "-c".into(), script.into()])
    }

    fn wait_until(mut done: impl FnMut() -> bool) {
        for _ in 0..500 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("condition not reached within 5s");
    }

    #[test]
    fn instantly_dying_workers_exhaust_their_respawns_and_quarantine() {
        let dir = fresh_dir("quarantine");
        let mut cfg = SupervisorConfig::new(&dir, 2);
        cfg.argv = sh("exit 1");
        cfg.respawn = RetryPolicy::new(3)
            .initial_backoff(Duration::from_millis(1))
            .max_backoff(Duration::from_millis(1));
        cfg.poll = Duration::from_millis(5);
        cfg.healthy_after = Duration::from_secs(3600);
        let sup = Supervisor::start(cfg).unwrap();
        wait_until(|| sup.status().quarantined() == 2);
        let status = sup.status();
        assert_eq!(status.running(), 0);
        assert_eq!(status.respawns(), 4, "2 respawns per slot before giving up");
        let summary = sup.shutdown(Duration::from_millis(50));
        assert_eq!(summary.killed, 0, "nothing left to kill");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn long_lived_workers_stay_running_and_drain_kills_stragglers() {
        let dir = fresh_dir("drain");
        let mut cfg = SupervisorConfig::new(&dir, 2);
        // Ignores the stop file: drain must fall back to kill.
        cfg.argv = sh("sleep 60");
        cfg.poll = Duration::from_millis(5);
        let sup = Supervisor::start(cfg).unwrap();
        wait_until(|| sup.status().running() == 2);
        assert_eq!(sup.status().quarantined(), 0);
        let summary = sup.shutdown(Duration::from_millis(30));
        assert_eq!(summary.killed, 2, "sleepers ignore the stop file");
        assert_eq!(summary.leases_released, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crashed_worker_is_respawned() {
        let dir = fresh_dir("respawn");
        let marker = dir.join("spawned");
        let mut cfg = SupervisorConfig::new(&dir, 1);
        // First run dies instantly; the respawn (marker exists) sleeps.
        cfg.argv = sh(&format!(
            "if [ -e {m} ]; then sleep 60; else : > {m}; exit 7; fi",
            m = marker.display()
        ));
        cfg.respawn = RetryPolicy::new(4)
            .initial_backoff(Duration::from_millis(1))
            .max_backoff(Duration::from_millis(1));
        cfg.poll = Duration::from_millis(5);
        let sup = Supervisor::start(cfg).unwrap();
        wait_until(|| {
            let s = sup.status();
            s.running() == 1 && s.respawns() >= 1
        });
        assert_eq!(sup.status().quarantined(), 0);
        sup.shutdown(Duration::from_millis(20));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wake_reaches_a_live_workers_stdin_and_shutdown_skips_the_monitor_poll() {
        let dir = fresh_dir("wake");
        let marker = dir.join("rung");
        let mut cfg = SupervisorConfig::new(&dir, 1);
        // The first line is the ring written at spawn; the second is ours.
        cfg.argv = sh(&format!(
            "read spawned && read x && : > {}; sleep 60",
            marker.display()
        ));
        // The monitor sleeps an hour after its first pass: only a stop
        // that ends that sleep at once lets shutdown return in time.
        cfg.poll = Duration::from_secs(3600);
        let sup = Supervisor::start(cfg).unwrap();
        assert_eq!(sup.status().running(), 1);
        assert!(!marker.exists(), "nothing has rung yet");
        sup.wake();
        wait_until(|| marker.exists());
        let (done, drained) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(sup.shutdown(Duration::from_millis(20)));
        });
        let summary = drained
            .recv_timeout(Duration::from_secs(30))
            .expect("shutdown must not wait out the monitor's poll");
        assert_eq!(summary.killed, 1, "the rung script sleeps on");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_releases_leases_left_by_fleet_owners() {
        let dir = fresh_dir("sweep");
        let mut cfg = SupervisorConfig::new(&dir, 1);
        cfg.argv = sh("sleep 60");
        cfg.poll = Duration::from_millis(5);
        let sup = Supervisor::start(cfg).unwrap();
        // Simulate a fleet worker dying between claim and release.
        let owner = format!("{}s0", sup.owner_prefix());
        lease::enqueue(&dir, "job-held", "").unwrap();
        lease::claim(&dir, "job-held", &owner).unwrap();
        // A foreign owner's lease must survive the sweep untouched.
        lease::enqueue(&dir, "job-foreign", "").unwrap();
        lease::claim(&dir, "job-foreign", "someone-else").unwrap();
        let summary = sup.shutdown(Duration::from_millis(20));
        assert_eq!(summary.leases_released, 1);
        let leases = lease::scan_leases(&dir);
        assert_eq!(leases.len(), 1, "foreign lease intact: {leases:?}");
        assert_eq!(leases[0].owner, "someone-else");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
