//! A `varbench serve` child process owned by the benchmark: spawn and
//! wait for the bind, read its peak memory, and shut it down — with its
//! worker fleet — on every exit path, including a panic.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use varbench_bench::serve::http_request;

use crate::clock::now_ns;

/// How long a child may take to bind, and to exit after a shutdown.
const CHILD_DEADLINE_NS: u64 = 30_000_000_000;

/// A running `varbench serve` child. Dropping it shuts it down.
pub struct ServeChild {
    child: Option<Child>,
    /// The child's process id.
    pub pid: u32,
    /// The bound address.
    pub addr: SocketAddr,
    /// Worker-fleet processes seen under the child.
    workers: Vec<u32>,
    stderr_path: PathBuf,
}

impl ServeChild {
    /// Spawns `exe serve --addr 127.0.0.1:0 <extra>` with the measurement
    /// cache in memory, or on disk under `cache_dir`, and waits until it
    /// has bound its listener. `tag` names the child's files in `work`.
    pub fn spawn(
        exe: &Path,
        work: &Path,
        tag: &str,
        cache_dir: Option<&Path>,
        extra: &[&str],
    ) -> io::Result<ServeChild> {
        let ready = work.join(format!("{tag}.ready"));
        let stderr_path = work.join(format!("{tag}.stderr"));
        let _ = std::fs::remove_file(&ready);
        let mut cmd = Command::new(exe);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--ready-file"])
            .arg(&ready)
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&stderr_path)?);
        for var in [
            "VARBENCH_CACHE_DIR",
            "VARBENCH_THREADS",
            "VARBENCH_PAR_BOOTSTRAP",
            "VARBENCH_FAULT",
        ] {
            cmd.env_remove(var);
        }
        if let Some(dir) = cache_dir {
            cmd.env("VARBENCH_CACHE_DIR", dir);
        }
        let child = cmd.spawn()?;
        let mut me = ServeChild {
            pid: child.id(),
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: Vec::new(),
            stderr_path,
        };
        let deadline = now_ns() + CHILD_DEADLINE_NS;
        loop {
            let text = std::fs::read_to_string(&ready).unwrap_or_default();
            if let Some(addr) = text.strip_suffix('\n').and_then(|a| a.parse().ok()) {
                me.addr = addr;
                me.workers = children_of(me.pid);
                return Ok(me);
            }
            let exited = me.child.as_mut().and_then(|c| c.try_wait().ok().flatten());
            if exited.is_some() || now_ns() > deadline {
                return Err(io::Error::other(format!(
                    "varbench serve did not bind: {}",
                    me.stderr_text().trim()
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident memory (VmHWM) of the child so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.pid))
    }

    /// Everything the child wrote to stderr so far.
    pub fn stderr_text(&self) -> String {
        std::fs::read_to_string(&self.stderr_path).unwrap_or_default()
    }

    /// Asks the child to drain and exit (`POST /v1/shutdown`), waits for
    /// it, and kills it when it does not exit in time. Then checks that
    /// no fleet worker outlived it, killing any that did. Every problem
    /// found is returned; an already stopped child returns none.
    pub fn shutdown(&mut self) -> Vec<String> {
        let Some(mut child) = self.child.take() else {
            return Vec::new();
        };
        let mut problems = Vec::new();
        // Workers spawned by a respawn since start-up count too.
        for pid in children_of(self.pid) {
            if !self.workers.contains(&pid) {
                self.workers.push(pid);
            }
        }
        if let Err(e) = http_request(self.addr, "POST", "/v1/shutdown", None) {
            problems.push(format!("shutdown request failed: {e}"));
        }
        let deadline = now_ns() + CHILD_DEADLINE_NS;
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if now_ns() < deadline => std::thread::sleep(Duration::from_millis(2)),
                _ => {
                    problems.push(format!(
                        "varbench serve (pid {}) had to be killed",
                        self.pid
                    ));
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
        for &pid in &self.workers {
            if alive(pid) {
                problems.push(format!("fleet worker pid {pid} outlived its server"));
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
        problems
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        for problem in self.shutdown() {
            eprintln!("perfbench: {problem}");
        }
    }
}

/// VmHWM from a `/proc/<pid>/status` file, in MB; `NaN` when unreadable.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(state, parent pid)` of a process, from `/proc/<pid>/stat`.
fn stat(pid: u32) -> Option<(char, u32)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name is parenthesised and may hold spaces: the fields
    // that follow start after the last ')'.
    let mut rest = text[text.rfind(')')? + 1..].split_whitespace();
    let state = rest.next()?.chars().next()?;
    let ppid = rest.next()?.parse().ok()?;
    Some((state, ppid))
}

/// Whether `pid` is a live (non-zombie) process.
fn alive(pid: u32) -> bool {
    matches!(stat(pid), Some((state, _)) if state != 'Z')
}

/// The live direct children of `pid`.
fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut out: Vec<u32> = entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&p| matches!(stat(p), Some((state, ppid)) if ppid == pid && state != 'Z'))
        .collect();
    out.sort_unstable();
    out
}
