//! The execution context every measurement function runs in.
//!
//! PR 2 left the measurement API as a combinatorial surface: every
//! estimator had a plain serial form, a `*_with(runner)` form and a
//! `*_cached(runner, cache)` form. [`RunContext`] collapses that to one
//! form — *function(workload, parameters, `&RunContext`)* — by bundling
//! the two pieces of environment a measurement needs:
//!
//! * an [`exec::Runner`](crate::exec::Runner) that fans independent seed
//!   branches across cores (bit-identical results for any thread count);
//! * a [`MeasureCache`] that memoizes workload score matrices
//!   (bit-identical results whether it hits or misses).
//!
//! [`RunContext::serial`] is the zero-configuration default — a serial
//! runner plus a no-op cache — and reproduces exactly what the old plain
//! serial functions computed. Scheduling and caching never change a
//! value, only who computes it and when.

#![deny(missing_docs)]

use crate::exec::Runner;
use varbench_pipeline::MeasureCache;

/// Everything a measurement needs from its environment: an executor
/// and a measurement cache. Pure configuration stays in the per-call
/// parameters and per-artifact `Config` types.
pub struct RunContext {
    runner: Runner,
    cache: MeasureCache,
}

impl RunContext {
    /// Bundles an executor and a cache.
    pub fn new(runner: Runner, cache: MeasureCache) -> RunContext {
        RunContext { runner, cache }
    }

    /// The default context: serial execution, no caching — the behaviour
    /// of the old plain serial measurement functions.
    pub fn serial() -> RunContext {
        RunContext::new(Runner::serial(), MeasureCache::disabled())
    }

    /// A serial context with a fresh in-memory cache (useful in tests
    /// that assert on cache accounting).
    pub fn serial_cached() -> RunContext {
        RunContext::new(Runner::serial(), MeasureCache::new())
    }

    /// The environment-driven context: thread count from
    /// `VARBENCH_THREADS` (all cores if unset) and a cache persisted
    /// under `VARBENCH_CACHE_DIR` when that is set.
    pub fn from_env() -> RunContext {
        RunContext::new(Runner::from_env(), MeasureCache::from_env())
    }

    /// The executor.
    pub fn runner(&self) -> &Runner {
        &self.runner
    }

    /// The measurement cache.
    pub fn cache(&self) -> &MeasureCache {
        &self.cache
    }
}

impl Default for RunContext {
    /// Same as [`RunContext::serial`].
    fn default() -> Self {
        RunContext::serial()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_default_is_uncached_single_thread() {
        let ctx = RunContext::default();
        assert_eq!(ctx.runner().threads(), 1);
        assert!(ctx.cache().is_disabled());
        let cached = RunContext::serial_cached();
        assert!(!cached.cache().is_disabled());
    }
}
