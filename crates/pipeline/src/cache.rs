//! Content-addressed measurement cache for workload score matrices.
//!
//! The paper's artifacts keep re-measuring the same quantities: Fig. 1,
//! Fig. 2, Fig. G.3 and the interaction study all need per-source score
//! matrices; Fig. 5, Fig. 6 and Fig. H.5 all need ideal- and
//! biased-estimator runs; the Table 8 experiment needs the same tuned
//! hyperparameters as the biased estimator's first repetition. Every one
//! of those measurements is a *pure function of its key* — workload
//! identity (name, version, scale and content fingerprint),
//! randomization set, budget and seed tree — so a run of several
//! artifacts can share them instead of recomputing.
//!
//! [`MeasureCache`] memoizes three entry shapes:
//!
//! * **matrices** ([`MeasureCache::matrix`]) — score matrices whose rows
//!   are derived from per-row seeds independent of the total row count.
//!   Because row `i`'s seeds never depend on `n`, a matrix of `n` rows is
//!   a strict *prefix* of the same key's matrix at any larger `n`: the
//!   cache stores the longest matrix seen and serves prefixes, extending
//!   on demand by computing only the missing tail rows;
//! * **records** ([`MeasureCache::record`]) — fixed-shape results such as
//!   a hyperparameter-optimization outcome (best parameters + fit count);
//! * **fits** — the score of one model fit (an HPO trial's validation
//!   metric or a final retrain's test metric), keyed by the fit's exact
//!   input: workload identity, which score, parameter bits and the full
//!   seed assignment. [`crate::hopt()`] and [`crate::run_pipeline`] route
//!   every fit through it, so an input that several HPO procedures share
//!   (Bayesian optimization's initial design is random search's first
//!   trials; a budget sweep re-runs its shorter budgets' trials) trains
//!   once per run. The fit memo is **memory-only** — nothing is written
//!   to disk, so the record format is untouched — and **bounded**: at
//!   [`FIT_MEMO_CAPACITY`] entries it is dropped whole, and an evicted
//!   fit simply trains again to the same bits. Its counts are read with
//!   [`MeasureCache::fit_stats`].
//!
//! Values are memoized bit-exactly: a cached value is the `f64` bits the
//! compute closure produced, so cached and uncached paths are
//! indistinguishable (`tests/measure_cache.rs` asserts this end to end).
//!
//! The store is in-memory by default; setting [`CACHE_DIR_ENV`]
//! (`VARBENCH_CACHE_DIR`) — or constructing with
//! [`MeasureCache::with_dir`] — adds a write-through on-disk store of
//! versioned, hashed matrix and record entries so measurements survive
//! across processes.
//!
//! # Concurrency model
//!
//! The cache is safe to share between threads *and* between processes
//! pointed at one directory:
//!
//! * **In-process coalescing** — concurrent lookups of the same key
//!   rendezvous on an in-flight table: the first caller computes, the
//!   rest block until it publishes and are then served from the store,
//!   so N identical requests cost one computation (the serving hot
//!   path's headline property). Lookups of *different* keys never wait
//!   on each other.
//! * **Atomic disk publishes** — records are written to a unique
//!   `.tmp.<pid>.<seq>` sibling and `rename`d into place, so a
//!   concurrent reader (another process sharing the directory) observes
//!   either the old complete record or the new complete record, never a
//!   torn prefix. Before publishing, the writer re-reads the record on
//!   disk and keeps whichever holds more rows — a racing process that
//!   extended further wins, and a shorter prefix never replaces a
//!   longer record.
//! * **Collision checks on read** — a record is only served if its
//!   stored key matches the requested canonical key byte-for-byte, so a
//!   filename-hash collision degrades to a miss, never a wrong value.
//!
//! Cross-process publishes of the same key may still both compute (the
//! coalescing table is per-process); the compute contract makes the
//! values identical, so either publish is correct. [`gc_dir`] compacts a
//! shared directory: stale format versions, torn/alien records and
//! orphaned temporaries from crashed writers are dropped.
//!
//! # Compute contract
//!
//! The closure handed to [`MeasureCache::matrix`] must be a pure per-row
//! function: `compute(a..b)` must return exactly the rows `a..b` that
//! `compute(0..n)` would return for any `n >= b`. All measurement
//! functions in `varbench_core::estimator` derive row seeds from
//! `(base_seed, row_index)` only, which guarantees this.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::faultpoint::faultpoint;
use crate::variance::{SeedAssignment, VarianceSource};
use crate::workload::Workload;

/// Environment variable naming the optional on-disk store directory.
pub const CACHE_DIR_ENV: &str = "VARBENCH_CACHE_DIR";

/// On-disk record format version; bumping it invalidates old records
/// (they live under a `v<N>` subdirectory and are simply never read).
/// v2: keys address workloads by `name@version:scale` plus a content
/// fingerprint instead of the bare case-study name.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// What a cache entry measures — the "randomization set" part of the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MeasureKind {
    /// Fig. 1-style per-source variance study with default
    /// hyperparameters (one ξ_O source re-seeded per row). The HPO
    /// algorithm and budget are irrelevant to these rows and are
    /// deliberately absent from the key.
    SourceStudy {
        /// The re-seeded source.
        source: VarianceSource,
    },
    /// Joint randomization of a ξ_O source *set* with default
    /// hyperparameters. The set is normalized at key construction.
    JointStudy {
        /// Normalized (active ∩ requested, sorted) source set.
        sources: Vec<VarianceSource>,
    },
    /// Per-sample independent HPO procedures (the ξ_H rows of Fig. 1 and
    /// the ablation budget sweep).
    HyperOptStudy {
        /// HPO algorithm label.
        algo: &'static str,
        /// Trials per procedure.
        budget: usize,
    },
    /// Ideal-estimator samples (Algorithm 1): each row is one full
    /// tune-retrain-measure pipeline; columns are `(test metric, fits)`.
    IdealEstimator {
        /// HPO algorithm label.
        algo: &'static str,
        /// Trials per procedure.
        budget: usize,
    },
    /// Biased-estimator measures (Algorithm 2): `k` re-measures of one
    /// tuned pipeline with a ξ_O subset re-seeded per row.
    FixHOptMeasures {
        /// HPO algorithm label.
        algo: &'static str,
        /// Trials of the single tuning procedure.
        budget: usize,
        /// Which arbitrary fixed ξ this repetition uses.
        repetition: u64,
        /// Label of the randomized ξ_O subset (e.g. `"All"`).
        randomize: &'static str,
    },
    /// One hyperparameter-optimization outcome, addressed by the full
    /// seed assignment it ran under.
    HoptResult {
        /// HPO algorithm label.
        algo: &'static str,
        /// Trials of the procedure.
        budget: usize,
        /// The seven per-source seeds of the fixed assignment.
        seeds: [u64; 7],
    },
}

/// Content address of one cached measurement: the workload identity
/// (`name@version:scale` plus its content fingerprint), the
/// randomization set (the [`MeasureKind`]) and the base seed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MeasureKey {
    workload: String,
    fingerprint: u64,
    kind: MeasureKind,
    base_seed: u64,
    canon: String,
}

impl MeasureKey {
    /// Builds the key for a measurement of `workload`.
    ///
    /// The key embeds [`Workload::cache_id`] (name, version and scale)
    /// **and** [`Workload::fingerprint`], so two workloads that merely
    /// share a name can never alias each other's measurements.
    ///
    /// `JointStudy` source sets are normalized to the intersection with
    /// the workload's active sources, sorted: re-seeding an *inactive*
    /// source never changes a measure, so `{active ∪ inactive}` and
    /// `{active}` joint studies produce bit-identical matrices and must
    /// share one entry.
    pub fn new(workload: &dyn Workload, kind: MeasureKind, base_seed: u64) -> MeasureKey {
        let kind = match kind {
            MeasureKind::JointStudy { sources } => {
                let mut s: Vec<VarianceSource> = sources
                    .into_iter()
                    .filter(|s| workload.active_sources().contains(s))
                    .collect();
                s.sort_unstable();
                s.dedup();
                MeasureKind::JointStudy { sources: s }
            }
            other => other,
        };
        let id = workload.cache_id();
        let fingerprint = workload.fingerprint();
        let canon = canonical(&id, fingerprint, &kind, base_seed);
        MeasureKey {
            workload: id,
            fingerprint,
            kind,
            base_seed,
            canon,
        }
    }

    /// The canonical serialized form — the content address used for
    /// in-memory lookup and on-disk record naming.
    pub fn canon(&self) -> &str {
        &self.canon
    }
}

fn canonical(workload_id: &str, fingerprint: u64, kind: &MeasureKind, base_seed: u64) -> String {
    let kind_s = match kind {
        MeasureKind::SourceStudy { source } => format!("source:{}", source.label()),
        MeasureKind::JointStudy { sources } => {
            let labels: Vec<&str> = sources.iter().map(|s| s.label()).collect();
            format!("joint:{}", labels.join("+"))
        }
        MeasureKind::HyperOptStudy { algo, budget } => format!("hopt-study:{algo}:T{budget}"),
        MeasureKind::IdealEstimator { algo, budget } => format!("ideal:{algo}:T{budget}"),
        MeasureKind::FixHOptMeasures {
            algo,
            budget,
            repetition,
            randomize,
        } => format!("fixhopt:{algo}:T{budget}:rep{repetition}:{randomize}"),
        MeasureKind::HoptResult {
            algo,
            budget,
            seeds,
        } => {
            let hex: Vec<String> = seeds.iter().map(|s| format!("{s:016x}")).collect();
            format!("hopt-result:{algo}:T{budget}:{}", hex.join("."))
        }
    };
    format!(
        "v{CACHE_FORMAT_VERSION}|w={workload_id}|fp={fingerprint:016x}|{kind_s}|seed={base_seed:016x}"
    )
}

/// Hit/miss and work accounting, readable via [`MeasureCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Matrix lookups answered entirely from the store.
    pub full_hits: u64,
    /// Matrix lookups that extended an existing shorter entry.
    pub extensions: u64,
    /// Matrix lookups with no usable entry at all.
    pub misses: u64,
    /// Matrix rows computed fresh.
    pub rows_computed: u64,
    /// Matrix rows served from the store.
    pub rows_served: u64,
    /// Record lookups served from the store.
    pub records_served: u64,
    /// Record lookups that had to compute.
    pub records_computed: u64,
    /// Model fits performed inside computed records (HPO trials).
    pub record_fits_computed: u64,
    /// Entries loaded from the on-disk store.
    pub disk_loads: u64,
    /// Lookups that waited for an identical in-flight computation on
    /// another thread instead of computing it again (request
    /// coalescing). Each wait resolves into one of the outcomes above
    /// once the leader publishes.
    pub coalesced: u64,
}

impl CacheStats {
    /// Total matrix lookups.
    pub fn lookups(&self) -> u64 {
        self.full_hits + self.extensions + self.misses
    }

    /// A single scalar for "how much pipeline work actually ran":
    /// matrix rows computed plus model fits inside computed records.
    /// The cache-effectiveness tests compare this across runs.
    pub fn work(&self) -> u64 {
        self.rows_computed + self.record_fits_computed
    }
}

#[derive(Debug, Clone)]
struct Entry {
    /// Columns per row (1 for plain score matrices, 2 for (metric, fits)).
    cols: usize,
    /// Row-major values, `rows * cols` long.
    values: Vec<f64>,
    /// Prefix-extendable (matrix) vs fixed-shape (record).
    extendable: bool,
}

impl Entry {
    fn rows(&self) -> usize {
        self.values.len() / self.cols
    }
}

#[derive(Default)]
struct CacheState {
    /// Keyed by canonical form. A `BTreeMap` rather than a hash map so
    /// any future iteration (compaction, `cache stats` dumps) is
    /// deterministic by construction — varbench lint L001 enforces this
    /// choice workspace-wide.
    entries: BTreeMap<String, Entry>,
    stats: CacheStats,
}

/// Entries the fit memo holds before it is dropped whole. `run all
/// --quick` makes 6,573 entries, so it never evicts there; at roughly
/// 200 B an entry, a full memo is under 2 MB. Repeated fits sit close
/// together in time (the HPO procedures of one study row), so dropping
/// everything at the bound loses little, and a long-lived `serve` or
/// `worker` process, which rarely repeats a fit, cannot grow it further.
pub const FIT_MEMO_CAPACITY: usize = 8192;

/// Which score a memoized fit produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FitScore {
    /// The validation metric after training on the train portion
    /// ([`Workload::run_valid`]): one HPO trial.
    Valid,
    /// The test metric after retraining on train+valid
    /// ([`Workload::run_with_params`]): a pipeline's final retrain.
    Test,
}

/// The exact input of one fit: a fit is a pure function of it (the
/// [`Workload`] determinism contract), so equal keys score equal bits.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct FitKey {
    /// [`Workload::cache_id`], shared by every key of one workload.
    workload: Arc<str>,
    fingerprint: u64,
    score: FitScore,
    params: Vec<u64>,
    seeds: [u64; 7],
}

/// The fit memo's store and counters.
#[derive(Default)]
struct FitTable {
    /// Metric bits by fit input.
    scores: BTreeMap<FitKey, u64>,
    trained: u64,
    reused: u64,
}

/// Fit-memo accounting, readable via [`MeasureCache::fit_stats`]. Kept
/// apart from [`CacheStats`]: these count trainings, while
/// `record_fits_computed` is the paper's cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitStats {
    /// Fits trained through the memo (every such fit on a disabled
    /// cache, which memoizes nothing).
    pub trained: u64,
    /// Fits answered from the memo instead of training again.
    pub reused: u64,
    /// Entries the memo holds now (at most [`FIT_MEMO_CAPACITY`]).
    pub held: usize,
}

/// One cache's fit memo bound to one workload, whose identity it
/// computes once: [`MeasureCache::fit_memo`] builds one per HPO
/// procedure or pipeline.
pub(crate) struct FitMemo<'c> {
    cache: &'c MeasureCache,
    /// `cache_id` and fingerprint; `None` on a disabled cache.
    workload: Option<(Arc<str>, u64)>,
}

impl FitMemo<'_> {
    /// The `score` of the fit of `params` under `seeds`: the memoized
    /// bits when this cache has trained the same input before,
    /// otherwise `train()`'s, remembered.
    ///
    /// The memo's lock is held only to look up and to insert, never
    /// while training, so fits train in parallel; two threads racing on
    /// one key may both train, and both get the same bits.
    pub(crate) fn score(
        &self,
        score: FitScore,
        params: &[f64],
        seeds: &SeedAssignment,
        train: impl FnOnce() -> f64,
    ) -> f64 {
        let table = &self.cache.fits;
        let Some((workload, fingerprint)) = &self.workload else {
            let value = train();
            table.lock().expect("fit memo lock").trained += 1;
            return value;
        };
        let key = FitKey {
            workload: Arc::clone(workload),
            fingerprint: *fingerprint,
            score,
            params: params.iter().map(|p| p.to_bits()).collect(),
            seeds: VarianceSource::ALL.map(|source| seeds.seed_of(source)),
        };
        {
            let mut t = table.lock().expect("fit memo lock");
            if let Some(&bits) = t.scores.get(&key) {
                t.reused += 1;
                return f64::from_bits(bits);
            }
        }
        let value = train();
        let mut t = table.lock().expect("fit memo lock");
        t.trained += 1;
        if t.scores.len() >= FIT_MEMO_CAPACITY {
            t.scores.clear();
        }
        t.scores.insert(key, value.to_bits());
        value
    }
}

/// One in-flight computation that concurrent same-key lookups can wait
/// on instead of recomputing.
#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

/// Leadership of one key's in-flight computation. Dropping the lease —
/// on success *or* unwind — retires the flight and wakes every waiter,
/// so a panicking compute can never strand them: they re-check the
/// store and one of them takes over.
struct FlightLease<'c> {
    cache: &'c MeasureCache,
    canon: String,
}

impl Drop for FlightLease<'_> {
    fn drop(&mut self) {
        let flight = self
            .cache
            .inflight
            .lock()
            .expect("inflight lock")
            .remove(&self.canon);
        if let Some(flight) = flight {
            *flight.done.lock().expect("flight lock") = true;
            flight.cv.notify_all();
        }
    }
}

/// Outcome of trying to claim a key's in-flight slot.
enum Claim<'c> {
    /// This caller computes; the lease retires the flight when dropped.
    Lead(FlightLease<'c>),
    /// Another caller is already computing this key; wait on its flight.
    Join(Arc<Flight>),
}

/// A thread-safe, content-addressed store of workload measurements.
///
/// Cheap to create; share one per experiment run (the registry hands the
/// same cache to every artifact). All methods take `&self`.
#[derive(Default)]
pub struct MeasureCache {
    state: Mutex<CacheState>,
    /// In-flight computations by canonical key (request coalescing).
    inflight: Mutex<BTreeMap<String, Arc<Flight>>>,
    /// The memory-only fit memo, behind its own lock so fit lookups
    /// never queue behind matrix and record accounting.
    fits: Mutex<FitTable>,
    dir: Option<PathBuf>,
    off: bool,
}

impl MeasureCache {
    /// A fresh in-memory cache.
    pub fn new() -> MeasureCache {
        MeasureCache::default()
    }

    /// A no-op cache: every lookup misses and nothing is ever stored —
    /// the behaviour of the pre-cache serial measurement path, used by
    /// the default serial `RunContext`. It keeps no fit memo either, so
    /// every fit trains. (The CLI's `--no-cache` flag instead gives each
    /// artifact a private in-memory cache, preserving intra-artifact
    /// memoization.) Work accounting still counts what was computed.
    pub fn disabled() -> MeasureCache {
        MeasureCache {
            off: true,
            ..MeasureCache::default()
        }
    }

    /// A cache backed by a write-through on-disk store under `dir`
    /// (created on first write).
    pub fn with_dir(dir: impl Into<PathBuf>) -> MeasureCache {
        MeasureCache {
            dir: Some(dir.into()),
            ..MeasureCache::default()
        }
    }

    /// Reads [`CACHE_DIR_ENV`]: set and non-empty means disk-backed,
    /// otherwise in-memory only.
    pub fn from_env() -> MeasureCache {
        match std::env::var(CACHE_DIR_ENV) {
            Ok(dir) if !dir.is_empty() => MeasureCache::with_dir(dir),
            _ => MeasureCache::new(),
        }
    }

    /// Whether this cache persists to disk.
    pub fn is_persistent(&self) -> bool {
        self.dir.is_some()
    }

    /// Whether this is a no-op ([`MeasureCache::disabled`]) cache.
    pub fn is_disabled(&self) -> bool {
        self.off
    }

    /// The on-disk store directory, if persistent.
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    /// A snapshot of the accounting counters.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().expect("cache lock").stats
    }

    /// A snapshot of the fit memo's counts.
    pub fn fit_stats(&self) -> FitStats {
        let t = self.fits.lock().expect("fit memo lock");
        FitStats {
            trained: t.trained,
            reused: t.reused,
            held: t.scores.len(),
        }
    }

    /// The fit memo bound to `workload`. Its identity — `cache_id` and
    /// the fingerprint, which formats the search space — is computed
    /// here, once, and not at all on a disabled cache.
    pub(crate) fn fit_memo(&self, workload: &dyn Workload) -> FitMemo<'_> {
        FitMemo {
            cache: self,
            workload: (!self.off).then(|| (Arc::from(workload.cache_id()), workload.fingerprint())),
        }
    }

    /// Number of distinct matrix and record entries currently held in
    /// memory (the fit memo is counted by [`MeasureCache::fit_stats`]).
    pub fn len(&self) -> usize {
        self.state.lock().expect("cache lock").entries.len()
    }

    /// Whether the in-memory store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tries to claim the in-flight slot for `canon`; joins the existing
    /// flight instead when another thread already computes this key.
    fn claim(&self, canon: &str) -> Claim<'_> {
        let mut inflight = self.inflight.lock().expect("inflight lock");
        match inflight.get(canon) {
            Some(flight) => Claim::Join(Arc::clone(flight)),
            None => {
                inflight.insert(canon.to_string(), Arc::new(Flight::default()));
                Claim::Lead(FlightLease {
                    cache: self,
                    canon: canon.to_string(),
                })
            }
        }
    }

    /// Blocks until `flight` retires, then bumps the coalescing counter.
    fn wait_for(&self, flight: &Flight) {
        let mut done = flight.done.lock().expect("flight lock");
        while !*done {
            done = flight.cv.wait(done).expect("flight lock");
        }
        drop(done);
        self.state.lock().expect("cache lock").stats.coalesced += 1;
    }

    /// Returns the first `rows` rows of the matrix at `key`, computing
    /// only the rows the store does not already hold.
    ///
    /// `compute(a..b)` must return the rows `a..b` (row-major,
    /// `(b - a) * cols` values) and obey the module-level compute
    /// contract. Concurrent calls for the same key coalesce: one caller
    /// computes while the rest wait and are then served from the store
    /// (so `compute` must never recursively request its own key — that
    /// would wait on itself). Callers wanting *more* rows than a
    /// concurrent leader computes wait, then extend.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`, if a cached entry exists
    /// with a different `cols`, or if `compute` returns the wrong number
    /// of values.
    pub fn matrix(
        &self,
        key: &MeasureKey,
        rows: usize,
        cols: usize,
        compute: impl FnOnce(Range<usize>) -> Vec<f64>,
    ) -> Vec<f64> {
        assert!(rows > 0 && cols > 0, "matrix needs rows > 0 and cols > 0");
        if self.off {
            let values = compute(0..rows);
            assert_eq!(
                values.len(),
                rows * cols,
                "compute returned the wrong number of values for {}",
                key.canon()
            );
            let mut st = self.state.lock().expect("cache lock");
            st.stats.misses += 1;
            st.stats.rows_computed += rows as u64;
            return values;
        }
        // Lookup copies only what this request needs: the requested
        // prefix on a full hit, the whole (shorter) matrix as the
        // extension base otherwise.
        let bounded = |e: &Entry| {
            assert_eq!(e.cols, cols, "column-shape mismatch for {}", key.canon());
            assert!(
                e.extendable,
                "matrix/record kind mismatch for {}",
                key.canon()
            );
            e.values[..e.values.len().min(rows * cols)].to_vec()
        };
        let lookup = |cache: &MeasureCache| -> Option<Vec<f64>> {
            {
                let st = cache.state.lock().expect("cache lock");
                st.entries.get(key.canon()).map(bounded)
            }
            .or_else(|| cache.promote_from_disk(key).map(|e| bounded(&e)))
        };
        // Coalescing loop: only the flight leader computes; everyone
        // else waits for the leader's publish and re-checks the store.
        let (_lease, cached) = loop {
            let cached = lookup(self);
            if let Some(prefix) = &cached {
                if prefix.len() == rows * cols {
                    let mut st = self.state.lock().expect("cache lock");
                    st.stats.full_hits += 1;
                    st.stats.rows_served += rows as u64;
                    return cached.expect("checked above");
                }
            }
            match self.claim(key.canon()) {
                // Re-check under leadership: the previous leader may
                // have published between our lookup and our claim.
                Claim::Lead(lease) => break (lease, lookup(self)),
                Claim::Join(flight) => self.wait_for(&flight),
            }
        };
        let have: Vec<f64> = {
            let mut st = self.state.lock().expect("cache lock");
            match cached {
                Some(prefix) if prefix.len() == rows * cols => {
                    st.stats.full_hits += 1;
                    st.stats.rows_served += rows as u64;
                    return prefix;
                }
                Some(prefix) => {
                    st.stats.extensions += 1;
                    prefix
                }
                None => {
                    st.stats.misses += 1;
                    Vec::new()
                }
            }
        };
        let have_rows = have.len() / cols;
        // Compute the missing tail outside the lock so different keys
        // (and artifacts) can measure concurrently.
        let tail = compute(have_rows..rows);
        assert_eq!(
            tail.len(),
            (rows - have_rows) * cols,
            "compute returned the wrong number of values for {}",
            key.canon()
        );
        let mut full = have;
        full.extend_from_slice(&tail);
        let to_persist = {
            let mut st = self.state.lock().expect("cache lock");
            st.stats.rows_computed += (rows - have_rows) as u64;
            st.stats.rows_served += have_rows as u64;
            let keep = match st.entries.get(key.canon()) {
                // Another thread extended further while we computed; keep
                // the longer entry (identical values by the compute
                // contract).
                Some(e) if e.rows() >= rows => false,
                _ => true,
            };
            if keep {
                let entry = Entry {
                    cols,
                    values: full.clone(),
                    extendable: true,
                };
                st.entries.insert(key.canon().to_string(), entry.clone());
                Some(entry)
            } else {
                None
            }
        };
        // Disk write-through happens outside the lock: other artifacts'
        // lookups must not serialize behind IO.
        if let Some(entry) = to_persist {
            self.persist(&entry, key);
        }
        full
    }

    /// Returns the fixed-shape record at `key`, computing it on a miss.
    ///
    /// The record is a value vector plus a fit count (the model fits the
    /// computation consumed — counted into the stats so cache
    /// effectiveness can be measured in units of pipeline work).
    pub fn record(
        &self,
        key: &MeasureKey,
        compute: impl FnOnce() -> (Vec<f64>, usize),
    ) -> (Vec<f64>, usize) {
        if self.off {
            let (values, fits) = compute();
            let mut st = self.state.lock().expect("cache lock");
            st.stats.records_computed += 1;
            st.stats.record_fits_computed += fits as u64;
            return (values, fits);
        }
        let unpack = |e: &Entry| {
            assert!(
                !e.extendable,
                "matrix/record kind mismatch for {}",
                key.canon()
            );
            (e.values[1..].to_vec(), e.values[0] as usize)
        };
        let lookup = |cache: &MeasureCache| -> Option<(Vec<f64>, usize)> {
            {
                let st = cache.state.lock().expect("cache lock");
                st.entries.get(key.canon()).map(unpack)
            }
            .or_else(|| cache.promote_from_disk(key).map(|e| unpack(&e)))
        };
        let _lease = loop {
            if let Some(hit) = lookup(self) {
                let mut st = self.state.lock().expect("cache lock");
                st.stats.records_served += 1;
                return hit;
            }
            match self.claim(key.canon()) {
                Claim::Lead(lease) => {
                    // Re-check under leadership (a previous leader may
                    // have published between our lookup and our claim).
                    if let Some(hit) = lookup(self) {
                        let mut st = self.state.lock().expect("cache lock");
                        st.stats.records_served += 1;
                        return hit;
                    }
                    break lease;
                }
                Claim::Join(flight) => self.wait_for(&flight),
            }
        };
        let (values, fits) = compute();
        let mut stored = Vec::with_capacity(values.len() + 1);
        stored.push(fits as f64);
        stored.extend_from_slice(&values);
        let to_persist = {
            let mut st = self.state.lock().expect("cache lock");
            if !st.entries.contains_key(key.canon()) {
                st.stats.records_computed += 1;
                st.stats.record_fits_computed += fits as u64;
                let entry = Entry {
                    cols: 1,
                    values: stored,
                    extendable: false,
                };
                st.entries.insert(key.canon().to_string(), entry.clone());
                Some(entry)
            } else {
                // Lost a race: the stored entry is identical by
                // determinism, but this thread really did the work — the
                // accounting must say so (matrix() counts discarded race
                // computations the same way).
                st.stats.records_computed += 1;
                st.stats.record_fits_computed += fits as u64;
                None
            }
        };
        if let Some(entry) = to_persist {
            self.persist(&entry, key);
        }
        (values, fits)
    }

    // ------------------------------------------------------------------
    // On-disk store
    // ------------------------------------------------------------------

    fn record_path(&self, key: &MeasureKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| {
            d.join(format!("v{CACHE_FORMAT_VERSION}"))
                .join(format!("{:016x}.rec", fnv1a64(key.canon().as_bytes())))
        })
    }

    /// Best-effort disk read on an in-memory miss; the file IO and
    /// parsing run with the lock **released** so concurrent lookups of
    /// other keys never queue behind disk reads. IO failures and
    /// malformed or mismatched (hash-collided) records are treated as
    /// misses — the cache is an accelerator, never a source of truth.
    ///
    /// Returns the entry now in memory for this key (loaded from disk,
    /// or inserted by a racing thread in the meantime).
    fn promote_from_disk(&self, key: &MeasureKey) -> Option<Entry> {
        let path = self.record_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let entry = parse_record(&text, key.canon())?;
        let mut st = self.state.lock().expect("cache lock");
        if let Some(existing) = st.entries.get(key.canon()) {
            // A racing thread populated the key while we read the file;
            // its entry may be longer (a fresh extension) — prefer it.
            return Some(existing.clone());
        }
        st.stats.disk_loads += 1;
        st.entries.insert(key.canon().to_string(), entry.clone());
        Some(entry)
    }

    /// Best-effort write-through; IO errors are ignored. Called with the
    /// cache lock released — serialization and IO must not block other
    /// threads' lookups.
    ///
    /// The publish is **atomic**: the record is rendered into a unique
    /// `.tmp.<pid>.<seq>` sibling and `rename`d into place, so a
    /// concurrent reader — in this process or another one sharing the
    /// directory — sees either the previous complete record or the new
    /// complete record, never a torn write. Before publishing, the
    /// current on-disk record is re-read: if a racing process already
    /// holds at least as many rows (or the identical fixed-shape
    /// record), this publish is skipped — a shorter prefix must never
    /// replace a longer record.
    fn persist(&self, entry: &Entry, key: &MeasureKey) {
        let Some(path) = self.record_path(key) else {
            return;
        };
        if let Some(parent) = path.parent() {
            if std::fs::create_dir_all(parent).is_err() {
                return;
            }
        }
        if let Ok(text) = std::fs::read_to_string(&path) {
            if let Some(existing) = parse_record(&text, key.canon()) {
                if !existing.extendable || existing.rows() >= entry.rows() {
                    return; // already current (or longer) on disk
                }
            }
        }
        // Unique per (process, publish) so two writers of the same key
        // can never interleave bytes in one temp file.
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_file_name(format!(
            "{}.tmp.{}.{seq}",
            path.file_name().unwrap_or_default().to_string_lossy(),
            std::process::id()
        ));
        if std::fs::write(&tmp, render_record(entry, key.canon())).is_ok() {
            // The fault window every crash-safety test cares about: a
            // writer dying here leaves a temp file but no (or the old)
            // record — gc reaps the orphan, readers never see a tear.
            faultpoint("publish:after-tmp");
            if std::fs::rename(&tmp, &path).is_err() {
                let _ = std::fs::remove_file(&tmp);
            }
            faultpoint("publish:after-rename");
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Rows already available for `key` — the longest prefix held in
    /// memory or on disk — without computing anything. `0` means no
    /// usable record. The fleet dispatch driver polls this to observe
    /// workers' publishes; a successful disk probe promotes the record
    /// into memory (counted as a disk load), so the eventual real
    /// lookup is a full hit.
    pub fn probe_rows(&self, key: &MeasureKey) -> usize {
        if self.off {
            return 0;
        }
        {
            let st = self.state.lock().expect("cache lock");
            if let Some(e) = st.entries.get(key.canon()) {
                return e.rows();
            }
        }
        self.promote_from_disk(key).map_or(0, |e| e.rows())
    }
}

/// Serializes an entry: header lines then one hex-encoded `f64` per line
/// (bit-exact round trip; no decimal formatting is involved).
fn render_record(entry: &Entry, canon: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("varbench-cache {CACHE_FORMAT_VERSION}\n"));
    out.push_str(&format!("key {canon}\n"));
    out.push_str(&format!(
        "entry rows={} cols={} extendable={}\n",
        entry.rows(),
        entry.cols,
        u8::from(entry.extendable)
    ));
    for v in &entry.values {
        out.push_str(&format!("{:016x}\n", v.to_bits()));
    }
    out
}

fn parse_record(text: &str, canon: &str) -> Option<Entry> {
    let (key, entry) = parse_record_any(text)?;
    if key != canon {
        return None; // hash collision or stale record
    }
    Some(entry)
}

/// Parses any well-formed current-version record, returning its stored
/// canonical key alongside the entry — the key check against an expected
/// canon is the caller's job ([`parse_record`] for lookups, [`gc_dir`]
/// for the filename-consistency check).
fn parse_record_any(text: &str) -> Option<(&str, Entry)> {
    let mut lines = text.lines();
    if lines.next()? != format!("varbench-cache {CACHE_FORMAT_VERSION}") {
        return None;
    }
    let key = lines.next()?.strip_prefix("key ")?;
    let shape = lines.next()?.strip_prefix("entry ")?;
    let mut rows = None;
    let mut cols = None;
    let mut extendable = None;
    for part in shape.split_whitespace() {
        let (k, v) = part.split_once('=')?;
        match k {
            "rows" => rows = v.parse::<usize>().ok(),
            "cols" => cols = v.parse::<usize>().ok(),
            "extendable" => extendable = v.parse::<u8>().ok(),
            _ => return None,
        }
    }
    let (rows, cols, extendable) = (rows?, cols?, extendable? != 0);
    let values: Vec<f64> = lines
        .map(|l| u64::from_str_radix(l.trim(), 16).ok().map(f64::from_bits))
        .collect::<Option<Vec<f64>>>()?;
    // No legitimate entry is empty: matrices persist only after >= 1 row,
    // records always carry a leading fit count. An `entries rows=0` file
    // (truncated or hand-edited) must be a miss, not a later panic.
    if rows == 0 || cols == 0 || values.len() != rows * cols {
        return None;
    }
    Some((
        key,
        Entry {
            cols,
            values,
            extendable,
        },
    ))
}

/// Summary of one [`gc_dir`] compaction pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Valid current-format records left in place.
    pub kept_records: u64,
    /// Bytes held by the kept records.
    pub kept_bytes: u64,
    /// Files removed from stale (non-current) format version
    /// directories — superseded wholesale by the format bump.
    pub stale_version_files: u64,
    /// Unparseable, truncated, or misfiled current-format records
    /// removed (a record whose stored key does not hash to its filename
    /// is a duplicate or an alien file and can never be served).
    pub torn_files: u64,
    /// Orphaned `.tmp.<pid>.<seq>` temporaries removed (left behind by
    /// crashed or interrupted writers; a live writer whose temp file is
    /// swept simply fails its best-effort publish and recomputes later).
    /// Includes orphan temporaries from the lease and queue namespaces.
    pub tmp_files: u64,
    /// Stale worker-lease files removed (see [`crate::lease::gc`]): torn
    /// leases, and leases whose job is no longer queued. A crashed
    /// worker's lease on still-pending work is kept — reclaiming live
    /// work is the dispatch driver's call, not gc's.
    pub stale_leases: u64,
    /// Total bytes reclaimed by the pass.
    pub bytes_reclaimed: u64,
}

impl GcReport {
    /// Files removed, over all categories.
    pub fn files_removed(&self) -> u64 {
        self.stale_version_files + self.torn_files + self.tmp_files + self.stale_leases
    }
}

/// Compacts an on-disk cache directory shared between processes.
///
/// Drops, and accounts for in the returned [`GcReport`]:
///
/// * whole **stale format-version subdirectories** (`v<N>` with
///   `N != `[`CACHE_FORMAT_VERSION`]) — their records are superseded by
///   the format bump and are never read again;
/// * **torn or alien records** in the current version directory:
///   unparseable files, truncated files, and records whose stored key
///   does not hash to their filename (shorter-prefix records are
///   superseded *in place* by the atomic rename publish, so a readable
///   record that fails the filename check is a stray copy);
/// * **orphaned temporaries** (`*.tmp.<pid>.<seq>`) left by crashed
///   writers;
/// * **stale worker leases and torn queue files** in the fleet's
///   `leases/` and `queue/` namespaces (see [`crate::lease::gc`]).
///
/// Only cache-owned paths are touched: the `v<N>` subdirectories and
/// the `.rec`/temp files inside the current one. Anything else under
/// `dir` — the user may point `VARBENCH_CACHE_DIR` at a directory with
/// unrelated contents — is left alone. A missing `dir` is an empty
/// report, not an error.
pub fn gc_dir(dir: &Path) -> std::io::Result<GcReport> {
    let mut report = GcReport::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(report),
        Err(e) => return Err(e),
    };
    let current = format!("v{CACHE_FORMAT_VERSION}");
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_version = name
            .strip_prefix('v')
            .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()));
        let path = entry.path();
        if !is_version || !path.is_dir() {
            continue;
        }
        if name == current {
            gc_version_dir(&path, &mut report);
            let leases = crate::lease::gc(dir);
            report.stale_leases += leases.stale_leases;
            report.torn_files += leases.torn_jobs;
            report.tmp_files += leases.tmp_files;
            report.bytes_reclaimed += leases.bytes_reclaimed;
        } else {
            let (files, bytes) = dir_usage(&path);
            std::fs::remove_dir_all(&path)?;
            report.stale_version_files += files;
            report.bytes_reclaimed += bytes;
        }
    }
    Ok(report)
}

/// Sweeps the current-format record directory (best-effort per file).
fn gc_version_dir(vdir: &Path, report: &mut GcReport) {
    let Ok(entries) = std::fs::read_dir(vdir) else {
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
        let Some(stem) = name.strip_suffix(".rec") else {
            continue; // not a cache file; leave it alone
        };
        let valid = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| {
                parse_record_any(&text).map(|(key, _)| format!("{:016x}", fnv1a64(key.as_bytes())))
            })
            .is_some_and(|expected| expected == stem);
        if valid {
            report.kept_records += 1;
            report.kept_bytes += bytes;
        } else if std::fs::remove_file(&path).is_ok() {
            report.torn_files += 1;
            report.bytes_reclaimed += bytes;
        }
    }
}

/// `(file count, byte total)` of the files directly under `dir`.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let (mut files, mut bytes) = (0u64, 0u64);
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    files += 1;
                    bytes += meta.len();
                }
            }
        }
    }
    (files, bytes)
}

/// FNV-1a 64-bit hash — the content-address hash for on-disk records and
/// the default [`Workload::fingerprint`].
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study::{CaseStudy, Scale};

    fn test_cs() -> CaseStudy {
        CaseStudy::glue_rte_bert(Scale::Test)
    }

    fn key(seed: u64) -> MeasureKey {
        MeasureKey::new(
            &test_cs(),
            MeasureKind::SourceStudy {
                source: VarianceSource::DataSplit,
            },
            seed,
        )
    }

    /// A deterministic per-row compute obeying the prefix contract.
    fn rowfn(range: Range<usize>) -> Vec<f64> {
        range.map(|i| (i as f64) * 1.5 + 0.25).collect()
    }

    #[test]
    fn miss_then_hit_then_extension() {
        let cache = MeasureCache::new();
        let k = key(1);
        let a = cache.matrix(&k, 4, 1, rowfn);
        assert_eq!(a, rowfn(0..4));
        let s = cache.stats();
        assert_eq!((s.misses, s.full_hits, s.extensions), (1, 0, 0));
        assert_eq!((s.rows_computed, s.rows_served), (4, 0));

        // Same length and a shorter prefix are both full hits.
        assert_eq!(cache.matrix(&k, 4, 1, |_| unreachable!()), rowfn(0..4));
        assert_eq!(cache.matrix(&k, 2, 1, |_| unreachable!()), rowfn(0..2));
        let s = cache.stats();
        assert_eq!((s.misses, s.full_hits, s.extensions), (1, 2, 0));
        assert_eq!((s.rows_computed, s.rows_served), (4, 6));

        // A longer request computes only the tail.
        let b = cache.matrix(&k, 7, 1, |r| {
            assert_eq!(r, 4..7, "only the tail is computed");
            rowfn(r)
        });
        assert_eq!(b, rowfn(0..7));
        let s = cache.stats();
        assert_eq!((s.misses, s.full_hits, s.extensions), (1, 2, 1));
        assert_eq!((s.rows_computed, s.rows_served), (7, 10));
        assert_eq!(s.lookups(), 4);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_seed_is_a_different_entry() {
        let cache = MeasureCache::new();
        cache.matrix(&key(1), 3, 1, rowfn);
        cache.matrix(&key(2), 3, 1, rowfn);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn key_distinguishes_case_scale_kind_seed() {
        let cs_a = CaseStudy::glue_rte_bert(Scale::Test);
        let cs_b = CaseStudy::glue_rte_bert(Scale::Quick);
        let cs_c = CaseStudy::mhc_mlp(Scale::Test);
        let mk = |cs: &CaseStudy, kind, seed| MeasureKey::new(cs, kind, seed);
        let src = || MeasureKind::SourceStudy {
            source: VarianceSource::DataSplit,
        };
        let base = mk(&cs_a, src(), 7);
        assert_ne!(base.canon(), mk(&cs_b, src(), 7).canon(), "scale");
        assert_ne!(base.canon(), mk(&cs_c, src(), 7).canon(), "case study");
        assert_ne!(base.canon(), mk(&cs_a, src(), 8).canon(), "seed");
        assert_ne!(
            base.canon(),
            mk(
                &cs_a,
                MeasureKind::SourceStudy {
                    source: VarianceSource::WeightsInit
                },
                7
            )
            .canon(),
            "source"
        );
        let budget = |b| MeasureKind::IdealEstimator {
            algo: "Random Search",
            budget: b,
        };
        assert_ne!(
            mk(&cs_a, budget(3), 7).canon(),
            mk(&cs_a, budget(4), 7).canon(),
            "budget"
        );
    }

    /// A minimal fake workload for key-collision tests.
    struct Fake {
        version: u32,
        defaults: Vec<f64>,
        space: varbench_hpo::SearchSpace,
    }

    impl Fake {
        fn new(version: u32, default: f64) -> Fake {
            Fake {
                version,
                defaults: vec![default],
                space: varbench_hpo::SearchSpace::new(vec![(
                    "x".into(),
                    varbench_hpo::Dim::uniform(0.0, 1.0),
                )]),
            }
        }
    }

    impl Workload for Fake {
        fn name(&self) -> &str {
            "collider" // deliberately shared across instances
        }
        fn version(&self) -> u32 {
            self.version
        }
        fn metric_name(&self) -> &'static str {
            "accuracy"
        }
        fn search_space(&self) -> &varbench_hpo::SearchSpace {
            &self.space
        }
        fn default_params(&self) -> &[f64] {
            &self.defaults
        }
        fn active_sources(&self) -> &[VarianceSource] {
            &[VarianceSource::DataSplit]
        }
        fn run_with_params(&self, _params: &[f64], _seeds: &crate::SeedAssignment) -> f64 {
            0.5
        }
        fn run_valid_test(&self, _params: &[f64], _seeds: &crate::SeedAssignment) -> (f64, f64) {
            (0.5, 0.5)
        }
    }

    #[test]
    fn workloads_sharing_a_name_never_alias_cache_entries() {
        // Two distinct workloads named "collider": same name, different
        // version or different configuration. Their keys — and therefore
        // their cached matrices — must stay separate.
        let v1 = Fake::new(1, 0.5);
        let v2 = Fake::new(2, 0.5); // same config, bumped version
        let other = Fake::new(1, 0.75); // same version, different defaults
        let kind = || MeasureKind::SourceStudy {
            source: VarianceSource::DataSplit,
        };
        let k1 = MeasureKey::new(&v1, kind(), 7);
        let k2 = MeasureKey::new(&v2, kind(), 7);
        let k3 = MeasureKey::new(&other, kind(), 7);
        assert_ne!(k1.canon(), k2.canon(), "version must separate keys");
        assert_ne!(k1.canon(), k3.canon(), "fingerprint must separate keys");

        // End to end: the second workload must not be served the first
        // workload's rows.
        let cache = MeasureCache::new();
        let a = cache.matrix(&k1, 3, 1, |r| r.map(|i| i as f64).collect());
        let b = cache.matrix(&k3, 3, 1, |r| r.map(|i| i as f64 + 100.0).collect());
        assert_ne!(a, b, "same-name workloads must compute independently");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn disabled_cache_always_computes_and_stores_nothing() {
        let cache = MeasureCache::disabled();
        assert!(cache.is_disabled());
        let k = key(1);
        let a = cache.matrix(&k, 3, 1, rowfn);
        let b = cache.matrix(&k, 3, 1, rowfn);
        assert_eq!(a, b, "values still deterministic");
        assert!(cache.is_empty(), "nothing stored");
        let s = cache.stats();
        assert_eq!((s.misses, s.rows_computed, s.rows_served), (2, 6, 0));
        let (v, fits) = cache.record(&k, || (vec![1.0], 2));
        let (v2, _) = cache.record(&k, || (vec![1.0], 2));
        assert_eq!(v, v2);
        assert_eq!(fits, 2);
        assert_eq!(cache.stats().records_computed, 2, "recomputed every time");
    }

    #[test]
    fn fit_memo_trains_each_exact_input_once() {
        let cache = MeasureCache::new();
        let w = Fake::new(1, 0.5);
        let memo = cache.fit_memo(&w);
        let seeds = crate::SeedAssignment::all_fixed(3);
        let trained = std::cell::Cell::new(0);
        let fit = |score, params: &[f64], seeds: &crate::SeedAssignment| {
            memo.score(score, params, seeds, || {
                trained.set(trained.get() + 1);
                params[0] * 0.5 + seeds.seed_of(VarianceSource::DataSplit) as f64
            })
        };
        let a = fit(FitScore::Valid, &[0.25], &seeds);
        assert_eq!(fit(FitScore::Valid, &[0.25], &seeds).to_bits(), a.to_bits());
        assert_eq!(trained.get(), 1, "an identical input is answered");
        // Every part of the input separates entries: which score, the
        // parameter bits, any one seed, and the workload identity.
        fit(FitScore::Test, &[0.25], &seeds);
        fit(FitScore::Valid, &[-0.0], &seeds);
        fit(FitScore::Valid, &[0.0], &seeds);
        fit(
            FitScore::Valid,
            &[0.25],
            &seeds.with_varied(VarianceSource::Dropout, 9),
        );
        assert_eq!(trained.get(), 5);
        let other = Fake::new(2, 0.5);
        let other_memo = cache.fit_memo(&other);
        other_memo.score(FitScore::Valid, &[0.25], &seeds, || 1.0);
        assert_eq!(
            cache.fit_stats(),
            FitStats {
                trained: 6,
                reused: 1,
                held: 6
            }
        );
        assert_eq!(
            cache.stats(),
            CacheStats::default(),
            "no CacheStats counter moves"
        );
        assert!(cache.is_empty(), "fits are not matrix or record entries");
    }

    #[test]
    fn fit_memo_is_bounded_and_an_evicted_fit_returns_the_same_bits() {
        let cache = MeasureCache::new();
        let w = Fake::new(1, 0.5);
        let memo = cache.fit_memo(&w);
        let seeds = crate::SeedAssignment::all_fixed(4);
        let value = |i: usize| (i as f64).sqrt() * 0.1;
        for i in 0..FIT_MEMO_CAPACITY + 10 {
            memo.score(FitScore::Valid, &[i as f64], &seeds, || value(i));
            assert!(cache.fit_stats().held <= FIT_MEMO_CAPACITY, "fit {i}");
        }
        let s = cache.fit_stats();
        assert_eq!(s.held, 10, "dropped whole at the bound");
        assert_eq!(s.trained, (FIT_MEMO_CAPACITY + 10) as u64);
        // An evicted fit trains again, to the same bits; a held one does not.
        let again = memo.score(FitScore::Valid, &[0.0], &seeds, || value(0));
        assert_eq!(again.to_bits(), value(0).to_bits());
        let last = FIT_MEMO_CAPACITY + 9;
        let held = memo.score(FitScore::Valid, &[last as f64], &seeds, || unreachable!());
        assert_eq!(held.to_bits(), value(last).to_bits());
        let s = cache.fit_stats();
        assert_eq!((s.trained, s.reused), ((FIT_MEMO_CAPACITY + 11) as u64, 1));
    }

    #[test]
    fn a_disabled_cache_keeps_no_fit_memo() {
        let cache = MeasureCache::disabled();
        let w = Fake::new(1, 0.5);
        let memo = cache.fit_memo(&w);
        let seeds = crate::SeedAssignment::all_fixed(5);
        let a = memo.score(FitScore::Valid, &[0.5], &seeds, || 0.75);
        let b = memo.score(FitScore::Valid, &[0.5], &seeds, || 0.75);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(
            cache.fit_stats(),
            FitStats {
                trained: 2,
                reused: 0,
                held: 0
            }
        );
    }

    #[test]
    fn joint_key_normalizes_to_active_sources() {
        // RTE has no augmentation / numerical noise: a joint study over
        // all of ξ_O addresses the same entry as one over the active
        // subset (the measures are bit-identical either way).
        let cs = test_cs();
        let all = MeasureKey::new(
            &cs,
            MeasureKind::JointStudy {
                sources: VarianceSource::XI_O.to_vec(),
            },
            5,
        );
        let active: Vec<VarianceSource> = cs
            .active_sources()
            .iter()
            .copied()
            .filter(|s| !s.is_hyperopt())
            .collect();
        let act = MeasureKey::new(&cs, MeasureKind::JointStudy { sources: active }, 5);
        assert_eq!(all.canon(), act.canon());
    }

    #[test]
    fn records_round_trip_with_fit_accounting() {
        let cache = MeasureCache::new();
        let k = MeasureKey::new(
            &test_cs(),
            MeasureKind::HoptResult {
                algo: "Random Search",
                budget: 5,
                seeds: [1, 2, 3, 4, 5, 6, 7],
            },
            0,
        );
        let (v, fits) = cache.record(&k, || (vec![0.1, 0.2, 0.3], 5));
        assert_eq!(v, vec![0.1, 0.2, 0.3]);
        assert_eq!(fits, 5);
        let (v2, fits2) = cache.record(&k, || unreachable!());
        assert_eq!((v2, fits2), (v, fits));
        let s = cache.stats();
        assert_eq!((s.records_computed, s.records_served), (1, 1));
        assert_eq!(s.record_fits_computed, 5);
        assert_eq!(s.work(), 5);
    }

    #[test]
    fn disk_store_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!(
            "varbench-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Awkward values: negative zero, subnormal, extreme exponents.
        let vals = [-0.0, f64::MIN_POSITIVE / 2.0, 1e308, -1e-308, 0.1 + 0.2];
        let weird =
            move |r: Range<usize>| -> Vec<f64> { r.map(|i| vals[i % vals.len()]).collect() };
        let a = {
            let cache = MeasureCache::with_dir(&dir);
            cache.matrix(&key(9), 5, 1, weird)
        };
        let b = {
            let fresh = MeasureCache::with_dir(&dir);
            let b = fresh.matrix(&key(9), 5, 1, |_| unreachable!("must load from disk"));
            assert_eq!(fresh.stats().disk_loads, 1);
            assert_eq!(fresh.stats().full_hits, 1);
            b
        };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "disk round trip must be bit-exact");
        // Records persist too.
        let rk = MeasureKey::new(
            &test_cs(),
            MeasureKind::HoptResult {
                algo: "Random Search",
                budget: 2,
                seeds: [0; 7],
            },
            0,
        );
        {
            let cache = MeasureCache::with_dir(&dir);
            cache.record(&rk, || (vec![1.25], 2));
        }
        {
            let fresh = MeasureCache::with_dir(&dir);
            let (v, fits) = fresh.record(&rk, || unreachable!("must load from disk"));
            assert_eq!((v, fits), (vec![1.25], 2));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_disk_records_are_ignored() {
        let dir = std::env::temp_dir().join(format!(
            "varbench-cache-bad-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasureCache::with_dir(&dir);
        let k = key(11);
        // Plant garbage where the record would live.
        let path = cache.record_path(&k).expect("persistent cache");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, "not a cache record").unwrap();
        let v = cache.matrix(&k, 3, 1, rowfn);
        assert_eq!(v, rowfn(0..3));
        assert_eq!(cache.stats().disk_loads, 0);

        // An empty-but-well-formed record (e.g. a truncation artifact)
        // must also read as a miss, never panic on values[0].
        let rk = MeasureKey::new(
            &test_cs(),
            MeasureKind::HoptResult {
                algo: "Random Search",
                budget: 1,
                seeds: [9; 7],
            },
            0,
        );
        let rpath = cache.record_path(&rk).expect("persistent cache");
        std::fs::write(
            &rpath,
            format!(
                "varbench-cache {CACHE_FORMAT_VERSION}\nkey {}\nentry rows=0 cols=1 extendable=0\n",
                rk.canon()
            ),
        )
        .unwrap();
        let (v, fits) = cache.record(&rk, || (vec![0.5], 1));
        assert_eq!((v, fits), (vec![0.5], 1), "rows=0 file treated as miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "column-shape mismatch")]
    fn column_shape_is_checked() {
        let cache = MeasureCache::new();
        let k = key(1);
        cache.matrix(&k, 2, 1, rowfn);
        cache.matrix(&k, 2, 2, |r| r.flat_map(|i| [i as f64, 0.0]).collect());
    }

    #[test]
    fn concurrent_same_key_lookups_coalesce_to_one_compute() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;

        let cache = MeasureCache::new();
        let k = key(77);
        let calls = AtomicUsize::new(0);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (cache, k, calls) = (&cache, &k, &calls);
        std::thread::scope(|scope| {
            let leader = scope.spawn(move || {
                cache.matrix(k, 4, 1, |r| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).expect("main alive");
                    go_rx.recv().expect("release signal");
                    rowfn(r)
                })
            });
            started_rx.recv().expect("leader started");
            let waiters: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(move || {
                        cache.matrix(k, 4, 1, |r| {
                            calls.fetch_add(1, Ordering::SeqCst);
                            rowfn(r)
                        })
                    })
                })
                .collect();
            // Deterministic rendezvous: release the leader only once all
            // three waiters hold the flight (leader's map slot = 1 ref,
            // plus one clone per waiting thread).
            loop {
                let joined = {
                    let inflight = cache.inflight.lock().expect("inflight lock");
                    inflight
                        .get(k.canon())
                        .map(Arc::strong_count)
                        .unwrap_or(usize::MAX)
                };
                if joined >= 4 {
                    break;
                }
                std::thread::yield_now();
            }
            go_tx.send(()).expect("leader alive");
            assert_eq!(leader.join().expect("leader"), rowfn(0..4));
            for w in waiters {
                assert_eq!(w.join().expect("waiter"), rowfn(0..4));
            }
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "identical concurrent requests must compute exactly once"
        );
        let s = cache.stats();
        assert_eq!(s.misses, 1, "only the leader misses");
        assert_eq!(s.full_hits, 3, "waiters are served after the publish");
        assert_eq!(s.coalesced, 3, "each waiter waited on the flight");
        assert_eq!(s.rows_computed, 4);
        assert!(
            cache.inflight.lock().expect("inflight lock").is_empty(),
            "flight retired"
        );
    }

    #[test]
    fn record_lookups_coalesce_too() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;

        let cache = MeasureCache::new();
        let k = key(78);
        let calls = AtomicUsize::new(0);
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (go_tx, go_rx) = mpsc::channel::<()>();
        let (cache, k, calls) = (&cache, &k, &calls);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                cache.record(k, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).expect("main alive");
                    go_rx.recv().expect("release signal");
                    (vec![1.5], 3)
                })
            });
            started_rx.recv().expect("leader started");
            let waiter = scope.spawn(move || {
                cache.record(k, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    (vec![1.5], 3)
                })
            });
            loop {
                let joined = {
                    let inflight = cache.inflight.lock().expect("inflight lock");
                    inflight
                        .get(k.canon())
                        .map(Arc::strong_count)
                        .unwrap_or(usize::MAX)
                };
                if joined >= 2 {
                    break;
                }
                std::thread::yield_now();
            }
            go_tx.send(()).expect("leader alive");
            assert_eq!(waiter.join().expect("waiter"), (vec![1.5], 3));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.records_computed, s.records_served), (1, 1));
        assert_eq!(s.coalesced, 1);
    }

    #[test]
    fn panicking_leader_releases_waiters() {
        // A leader whose compute panics must retire the flight so a
        // waiter can take over and compute — never deadlock.
        let cache = MeasureCache::new();
        let k = key(79);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.matrix(&k, 2, 1, |_| panic!("compute exploded"));
        }));
        assert!(res.is_err());
        assert!(
            cache.inflight.lock().expect("inflight lock").is_empty(),
            "flight retired on unwind"
        );
        // The key is still computable afterwards.
        assert_eq!(cache.matrix(&k, 2, 1, rowfn), rowfn(0..2));
    }

    #[test]
    fn publish_uses_tmp_rename_and_keeps_longer_records() {
        let dir = std::env::temp_dir().join(format!(
            "varbench-cache-atomic-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let k = key(21);
        let cache = MeasureCache::with_dir(&dir);
        let path = cache.record_path(&k).expect("persistent");
        cache.matrix(&k, 5, 1, rowfn);
        // No temporary is left visible next to the published record.
        let names: Vec<String> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "exactly the published record: {names:?}");
        assert!(!names[0].contains(".tmp."), "no temp residue: {names:?}");

        // A second instance over the same directory must not shrink the
        // 5-row record when it publishes a 3-row prefix... which it never
        // does: the prefix is a full hit served from disk.
        let other = MeasureCache::with_dir(&dir);
        assert_eq!(other.matrix(&k, 3, 1, |_| unreachable!()), rowfn(0..3));
        // Even a forced re-persist of a shorter entry is skipped.
        other.persist(
            &Entry {
                cols: 1,
                values: rowfn(0..3),
                extendable: true,
            },
            &k,
        );
        let fresh = MeasureCache::with_dir(&dir);
        assert_eq!(
            fresh.matrix(&k, 5, 1, |_| unreachable!("5 rows still on disk")),
            rowfn(0..5)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_drops_stale_versions_torn_records_and_orphan_tmps() {
        let dir = std::env::temp_dir().join(format!(
            "varbench-cache-gc-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = MeasureCache::with_dir(&dir);
        let k = key(31);
        cache.matrix(&k, 4, 1, rowfn);
        let vdir = dir.join(format!("v{CACHE_FORMAT_VERSION}"));

        // Plant: a stale-format version dir, a torn record, a misfiled
        // (filename/key mismatch) record, an orphan temp, and a file the
        // gc must NOT touch (unrelated user data next to the store).
        let stale = dir.join("v1");
        std::fs::create_dir_all(&stale).unwrap();
        std::fs::write(stale.join("aaaa.rec"), "varbench-cache 1\n...").unwrap();
        std::fs::write(vdir.join("0123456789abcdef.rec"), "torn garbage").unwrap();
        let real = cache.record_path(&k).unwrap();
        let misfiled = vdir.join("ffffffffffffffff.rec");
        std::fs::copy(&real, &misfiled).unwrap();
        std::fs::write(vdir.join("dead.rec.tmp.1234.0"), "half a publi").unwrap();
        std::fs::write(dir.join("README"), "user data, not a record").unwrap();

        let report = gc_dir(&dir).expect("gc");
        assert_eq!(report.kept_records, 1);
        assert_eq!(report.stale_version_files, 1);
        assert_eq!(report.torn_files, 2, "torn + misfiled");
        assert_eq!(report.tmp_files, 1);
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(report.files_removed(), 4);
        assert!(!stale.exists(), "stale version dir dropped");
        assert!(!misfiled.exists());
        assert!(dir.join("README").exists(), "unrelated files untouched");

        // The surviving record still replays bit-exactly.
        let fresh = MeasureCache::with_dir(&dir);
        assert_eq!(
            fresh.matrix(&k, 4, 1, |_| unreachable!("record survived gc")),
            rowfn(0..4)
        );
        // Idempotent: a second pass reclaims nothing.
        let again = gc_dir(&dir).expect("gc");
        assert_eq!(again.files_removed(), 0);
        assert_eq!(again.kept_records, 1);
        // A missing directory is an empty report, not an error.
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(gc_dir(&dir).expect("missing dir ok"), GcReport::default());
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = MeasureCache::new();
        let k = key(42);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                let k = &k;
                scope.spawn(move || {
                    for n in 1..=8 {
                        let got = cache.matrix(k, n + t % 2, 1, rowfn);
                        assert_eq!(got, rowfn(0..n + t % 2));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1);
    }
}
