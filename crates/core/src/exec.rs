//! Deterministic parallel execution of embarrassingly parallel seed maps.
//!
//! The paper's core loop — k × T pipeline fits per estimator sample
//! (Algorithms 1 and 2), repeated over 5 case studies, 20 repetitions and
//! a grid of simulated comparisons — is embarrassingly parallel across
//! *paired seeds*: every unit of work draws from its own
//! `SeedAssignment`/seed-tree branch, so no unit ever observes another's
//! RNG state. [`Runner`] exploits that: a std-only, scoped-thread
//! work-stealing executor whose [`Runner::map_seeds`] fans units out
//! across cores while guaranteeing **bit-identical, seed-ordered
//! results** for any thread count (results are collected by index, and
//! each unit's inputs are a pure function of its index).
//!
//! Scheduling: the index range is split into one contiguous block per
//! worker; each worker pops from the front of its own block and, when
//! empty, steals from the *back* of the other workers' blocks (a classic
//! work-stealing range deque, packed into one `AtomicU64` per worker so
//! the whole scheduler is lock-free and `#![forbid(unsafe_code)]`-clean).
//! Stealing only changes *which thread* computes a unit, never the unit's
//! seeds, so determinism is structural rather than incidental.
//!
//! ```
//! use varbench_core::exec::Runner;
//!
//! let serial = Runner::serial().map_seeds(&[1u64, 2, 3], |_, &s| s * 10);
//! let parallel = Runner::new(4).map_seeds(&[1u64, 2, 3], |_, &s| s * 10);
//! assert_eq!(serial, parallel); // bit-identical, seed-ordered
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable read by [`Runner::from_env`] to pick the thread
/// count (`0` or unset = all available cores, `1` = serial).
pub const THREADS_ENV: &str = "VARBENCH_THREADS";

/// One worker's remaining index range `[head, tail)`, packed into a single
/// atomic word: head in the high 32 bits, tail in the low 32 bits. The
/// owner pops from the front, thieves pop from the back; both sides go
/// through compare-exchange so a range is never handed out twice.
struct RangeDeque(AtomicU64);

fn pack(head: u32, tail: u32) -> u64 {
    (u64::from(head) << 32) | u64::from(tail)
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

impl RangeDeque {
    fn new(head: u32, tail: u32) -> Self {
        RangeDeque(AtomicU64::new(pack(head, tail)))
    }

    /// Claims the front index, or `None` if the range is empty.
    fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(cur);
            if head >= tail {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(head + 1, tail),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head as usize),
                Err(observed) => cur = observed,
            }
        }
    }

    /// Steals the back index, or `None` if the range is empty.
    fn pop_back(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (head, tail) = unpack(cur);
            if head >= tail {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(head, tail - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((tail - 1) as usize),
                Err(observed) => cur = observed,
            }
        }
    }
}

/// A deterministic scoped-thread work-stealing executor.
///
/// `Runner` carries only a thread count; every map call spawns a fresh
/// scope of workers and joins them before returning, so there is no
/// global pool, no shutdown protocol, and panics in units propagate to
/// the caller like in serial code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    threads: usize,
}

impl Default for Runner {
    /// Same as [`Runner::from_env`].
    fn default() -> Self {
        Runner::from_env()
    }
}

impl Runner {
    /// A runner with an explicit thread count (`0` = all available cores).
    ///
    /// Explicit counts are clamped to 8× the available cores: the units
    /// are CPU-bound and work-stealing keeps every core busy, so extra
    /// workers are pure overhead — and an accidental
    /// `VARBENCH_THREADS=100000` must not exhaust OS thread limits.
    /// Results never depend on the thread count, so clamping is
    /// observable only in wall-clock time.
    ///
    /// The core count is read once, at the process's first runner, and
    /// reused after: `available_parallelism` queries the affinity mask
    /// and cgroup files, which costs microseconds per call. Every CLI
    /// entry point builds its runner at start anyway.
    pub fn new(threads: usize) -> Self {
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        let threads = if threads == 0 {
            cores
        } else {
            threads.min(cores.saturating_mul(8))
        };
        Runner { threads }
    }

    /// A single-threaded runner: maps run as a plain loop on the calling
    /// thread, with no scheduling machinery at all.
    pub fn serial() -> Self {
        Runner { threads: 1 }
    }

    /// Reads the thread count from [`THREADS_ENV`] (`VARBENCH_THREADS`);
    /// unset, unparsable, or `0` means all available cores.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        Runner::new(threads)
    }

    /// The number of worker threads map calls will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..n` in parallel, returning results in index order.
    ///
    /// `f` must be a pure function of its index (draw randomness from a
    /// seed derived from the index, not from shared state); under that
    /// contract the output is bit-identical for every thread count.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised by any unit.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        assert!(
            u32::try_from(n).is_ok(),
            "map_indexed supports at most u32::MAX units"
        );

        // One contiguous block per worker; block w covers
        // [w*n/workers, (w+1)*n/workers).
        let deques: Vec<RangeDeque> = (0..workers)
            .map(|w| RangeDeque::new((w * n / workers) as u32, ((w + 1) * n / workers) as u32))
            .collect();
        let f = &f;
        let deques = &deques;

        let mut chunks: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::with_capacity(n / workers + 1);
                        // Drain our own block front-to-back.
                        while let Some(i) = deques[w].pop_front() {
                            local.push((i, f(i)));
                        }
                        // Then steal from the back of the others' blocks.
                        for victim in 1..workers {
                            let v = (w + victim) % workers;
                            while let Some(i) = deques[v].pop_back() {
                                local.push((i, f(i)));
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });

        // Reassemble in index order: scheduling decided *who* computed each
        // unit, the output must not reflect that.
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        for chunk in &mut chunks {
            for (i, value) in chunk.drain(..) {
                debug_assert!(slots[i].is_none(), "unit {i} computed twice");
                slots[i] = Some(value);
            }
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, v)| v.unwrap_or_else(|| panic!("unit {i} never computed")))
            .collect()
    }

    /// Maps `f` over seed units in parallel, preserving input order: the
    /// workhorse of estimator sampling (one unit per `SeedAssignment`),
    /// the §4.2 simulation grid (one unit per simulated comparison) and
    /// the figure configs (one unit per estimator run).
    ///
    /// `f` receives `(index, &seed)`; results come back in input order
    /// and are bit-identical for any thread count.
    pub fn map_seeds<S, T, F>(&self, seeds: &[S], f: F) -> Vec<T>
    where
        S: Sync,
        T: Send,
        F: Fn(usize, &S) -> T + Sync,
    {
        self.map_indexed(seeds.len(), |i| f(i, &seeds[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize| {
            // Deterministic per-index pseudo-work.
            let mut rng = varbench_rng::Rng::seed_from_u64(i as u64);
            (0..100).map(|_| rng.next_f64()).sum::<f64>()
        };
        let serial = Runner::serial().map_indexed(257, work);
        for threads in [2, 3, 4, 8] {
            let parallel = Runner::new(threads).map_indexed(257, work);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn map_seeds_preserves_input_order() {
        let seeds: Vec<u64> = (0..100).map(|i| i * 7 + 1).collect();
        let out = Runner::new(4).map_seeds(&seeds, |i, &s| (i, s));
        for (i, &(idx, s)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(s, seeds[i]);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let r = Runner::new(8);
        assert_eq!(r.map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(r.map_indexed(1, |i| i * 2), vec![0]);
        assert_eq!(
            r.map_seeds::<u64, u64, _>(&[], |_, &s| s),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn more_threads_than_units() {
        let out = Runner::new(64).map_indexed(5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn zero_thread_request_means_available_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Runner::new(0).threads(), cores);
        // The second runner reads the remembered count.
        assert_eq!(Runner::new(0).threads(), cores);
        assert_eq!(Runner::new(usize::MAX).threads(), cores * 8);
    }

    #[test]
    fn range_deque_hands_out_each_index_once() {
        let dq = RangeDeque::new(0, 10);
        let mut got = Vec::new();
        // Alternate owner pops and steals.
        while let Some(i) = if got.len() % 2 == 0 {
            dq.pop_front()
        } else {
            dq.pop_back()
        } {
            got.push(i);
        }
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Runner::new(4).map_indexed(16, |i| {
                if i == 11 {
                    panic!("unit 11 exploded");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
