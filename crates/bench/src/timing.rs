//! Dependency-free micro-benchmark harness (`harness = false` bench
//! targets), replacing `criterion` so the workspace builds with an empty
//! cargo registry.
//!
//! Protocol: each benchmark is auto-calibrated to a per-rep target wall
//! time, then timed over `reps` repetitions; the reported figure is the
//! **median** per-iteration nanoseconds (robust to scheduler noise, like
//! criterion's default estimator). Results are printed as one
//! machine-readable line per benchmark:
//!
//! ```text
//! bench suite=stats name=mean_n10000 iters=4096 reps=11 median_ns=182 min_ns=180 max_ns=190
//! ```
//!
//! Environment knobs:
//!
//! * `VARBENCH_BENCH_REPS` — repetitions per benchmark (default 11);
//! * `VARBENCH_BENCH_TARGET_MS` — calibrated wall time per rep in
//!   milliseconds (default 5; lower it for smoke runs in CI).

use std::time::Instant;

pub use std::hint::black_box;
use varbench_core::json::Json;

/// Reads a positive integer knob from the environment, with a default.
fn env_knob(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Times one rep: `iters` back-to-back calls of `f`, total nanoseconds.
// This module is the one registered wall-clock site (lint L002); the
// clippy disallowed-methods mirror needs the same carve-out.
#[allow(clippy::disallowed_methods)]
fn time_rep<T>(f: &mut impl FnMut() -> T, iters: u64) -> u128 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos()
}

/// Per-benchmark timing state handed to the closure, mirroring
/// `criterion::Bencher`.
pub struct Bencher {
    reps: u64,
    target_ns: u128,
    /// Filled by [`Bencher::iter`]: (iters, per-rep total nanoseconds).
    result: Option<(u64, Vec<u128>)>,
}

impl Bencher {
    /// Measures `f`, auto-calibrating the iteration count so one rep
    /// takes roughly the configured target wall time.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        // Calibration: double iters until one rep crosses 1/8 of the
        // target, then scale linearly to the target.
        let mut iters: u64 = 1;
        let mut elapsed = time_rep(&mut f, iters);
        while elapsed * 8 < self.target_ns && iters < u64::MAX / 4 {
            iters *= 2;
            elapsed = time_rep(&mut f, iters);
        }
        if let Some(scaled) = (iters as u128 * self.target_ns).checked_div(elapsed) {
            iters = u64::try_from(scaled.max(1)).unwrap_or(u64::MAX);
        }
        let samples = (0..self.reps).map(|_| time_rep(&mut f, iters)).collect();
        self.result = Some((iters, samples));
    }
}

/// One benchmark's measured result, as printed on its machine-readable
/// line (and serialized into `BENCH_*.json` snapshots).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchResult {
    /// Suite the benchmark belongs to (e.g. `models`).
    pub suite: String,
    /// Benchmark name (e.g. `mlp_train_1epoch_n500`).
    pub name: String,
    /// Calibrated iterations per repetition.
    pub iters: u64,
    /// Repetitions timed.
    pub reps: u64,
    /// Median per-iteration nanoseconds (the headline figure).
    pub median_ns: u128,
    /// Fastest repetition's per-iteration nanoseconds.
    pub min_ns: u128,
    /// Slowest repetition's per-iteration nanoseconds.
    pub max_ns: u128,
}

impl BenchResult {
    /// The machine-readable `bench …` line for this result.
    pub fn line(&self) -> String {
        format!(
            "bench suite={} name={} iters={} reps={} median_ns={} min_ns={} max_ns={}",
            self.suite, self.name, self.iters, self.reps, self.median_ns, self.min_ns, self.max_ns
        )
    }

    /// This result as a flat JSON object (the element shape of
    /// `BENCH_*.json`).
    pub fn to_json(&self) -> String {
        Json::object(vec![
            ("suite", self.suite.as_str().into()),
            ("name", self.name.as_str().into()),
            ("iters", self.iters.into()),
            ("reps", self.reps.into()),
            ("median_ns", self.median_ns.into()),
            ("min_ns", self.min_ns.into()),
            ("max_ns", self.max_ns.into()),
        ])
        .to_string()
    }
}

/// Renders results as a `BENCH_*.json` snapshot document — the exact
/// bytes `varbench bench --json` writes to stdout: a JSON array with one
/// [`BenchResult::to_json`] object per line and a trailing newline.
/// [`parse_snapshot`] inverts it bit-exactly:
/// `render_snapshot(&parse_snapshot(s)?) == s` for any snapshot this
/// function produced, which is what keeps the committed `BENCH_*.json`
/// files machine-readable as fields evolve (pinned by
/// `crates/bench/tests/snapshot_roundtrip.rs`).
pub fn render_snapshot(results: &[BenchResult]) -> String {
    let mut out = String::from("[");
    for (i, r) in results.iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        out.push_str(&r.to_json());
    }
    out.push_str(if results.is_empty() { "]\n" } else { "\n]\n" });
    out
}

/// Parses a `BENCH_*.json` snapshot through [`Json::parse`]: an array of
/// objects with non-empty string `suite`/`name` fields and exact
/// non-negative integer timing fields, the shape `varbench bench
/// --json` (and historically `scripts/bench.sh`) emits. Unknown keys are
/// ignored; a missing timing field reads as 0.
///
/// # Errors
///
/// Returns a message describing the first malformed construct.
pub fn parse_snapshot(s: &str) -> Result<Vec<BenchResult>, String> {
    let doc = Json::parse(s).map_err(|e| format!("snapshot is not JSON: {e}"))?;
    let entries = doc.as_array().ok_or("snapshot is not a JSON array")?;
    entries
        .iter()
        .map(|e| {
            let text = |key| {
                e.get(key)
                    .and_then(Json::as_str)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .ok_or("snapshot entry missing suite/name")
            };
            let int = |key| match e.get(key) {
                None => Ok(0),
                Some(v) => v
                    .as_u64()
                    .ok_or_else(|| format!("non-integer value for '{key}': {v}")),
            };
            Ok(BenchResult {
                suite: text("suite")?,
                name: text("name")?,
                iters: int("iters")?,
                reps: int("reps")?,
                median_ns: int("median_ns")?.into(),
                min_ns: int("min_ns")?.into(),
                max_ns: int("max_ns")?.into(),
            })
        })
        .collect()
}

/// Where a [`Harness`] prints its per-benchmark result lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Output {
    /// Print to stdout (the `cargo bench` contract `scripts/bench.sh`
    /// greps).
    Stdout,
    /// Print to stderr — used by `varbench bench --json`, whose stdout
    /// must stay a single valid JSON document.
    Stderr,
    /// Print nothing; results are only collected.
    Quiet,
}

/// Benchmark registry + reporter, mirroring the slice of
/// `criterion::Criterion` the benches use. Results are printed as they
/// complete *and* collected for programmatic use ([`Harness::results`]).
pub struct Harness {
    suite: &'static str,
    reps: u64,
    target_ns: u128,
    output: Output,
    results: Vec<BenchResult>,
}

impl Harness {
    /// Creates a harness for the named suite, reading the environment
    /// knobs documented at module level.
    pub fn new(suite: &'static str) -> Self {
        Harness::with_config(
            suite,
            env_knob("VARBENCH_BENCH_REPS", 11),
            env_knob("VARBENCH_BENCH_TARGET_MS", 5),
        )
    }

    /// Creates a harness with explicit knobs (no environment reads):
    /// `reps` repetitions per benchmark, `target_ms` calibrated wall time
    /// per rep.
    pub fn with_config(suite: &'static str, reps: u64, target_ms: u64) -> Self {
        Harness {
            suite,
            reps,
            target_ns: target_ms as u128 * 1_000_000,
            output: Output::Stdout,
            results: Vec::new(),
        }
    }

    /// Redirects (or silences) the per-benchmark result lines.
    pub fn with_output(mut self, output: Output) -> Self {
        self.output = output;
        self
    }

    /// The results collected so far, in execution order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Consumes the harness, returning the collected results.
    pub fn into_results(self) -> Vec<BenchResult> {
        self.results
    }

    /// Runs one benchmark, prints its machine-readable result line (per
    /// the configured [`Output`]), and records the result.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            reps: self.reps,
            target_ns: self.target_ns,
            result: None,
        };
        f(&mut b);
        let (iters, mut samples) = b
            .result
            .unwrap_or_else(|| panic!("benchmark '{name}' never called Bencher::iter"));
        samples.sort_unstable();
        let per_iter = |total: u128| total / iters as u128;
        let result = BenchResult {
            suite: self.suite.to_string(),
            name: name.to_string(),
            iters,
            reps: self.reps,
            median_ns: per_iter(samples[samples.len() / 2]),
            min_ns: per_iter(samples[0]),
            max_ns: per_iter(samples[samples.len() - 1]),
        };
        match self.output {
            Output::Stdout => println!("{}", result.line()),
            Output::Stderr => eprintln!("{}", result.line()),
            Output::Quiet => {}
        }
        self.results.push(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_requested_reps() {
        let mut b = Bencher {
            reps: 5,
            target_ns: 10_000,
            result: None,
        };
        b.iter(|| black_box(3u64).wrapping_mul(7));
        let (iters, samples) = b.result.expect("iter stored a result");
        assert!(iters >= 1);
        assert_eq!(samples.len(), 5);
    }

    #[test]
    fn harness_runs_registered_benchmarks() {
        // Explicit knobs: tests must not mutate process environment (other
        // tests in this binary read it concurrently).
        let mut h = Harness::with_config("selftest", 3, 1);
        let mut ran = false;
        h.bench_function("noop", |b| {
            ran = true;
            b.iter(|| 1 + 1);
        });
        assert!(ran);
    }

    #[test]
    #[should_panic(expected = "never called Bencher::iter")]
    fn missing_iter_is_an_error() {
        let mut h = Harness::with_config("selftest", 3, 1);
        h.bench_function("forgot", |_b| {});
    }

    #[test]
    fn results_are_collected_and_roundtrip_through_json() {
        let mut h = Harness::with_config("selftest", 3, 1).with_output(Output::Quiet);
        h.bench_function("alpha", |b| b.iter(|| black_box(2u64) * 3));
        h.bench_function("beta", |b| b.iter(|| black_box(5u64) + 7));
        let results = h.into_results();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].name, "alpha");
        let json = format!(
            "[\n  {},\n  {}\n]",
            results[0].to_json(),
            results[1].to_json()
        );
        let parsed = parse_snapshot(&json).expect("roundtrip");
        assert_eq!(parsed, results);
    }

    #[test]
    fn parse_snapshot_rejects_junk() {
        assert!(parse_snapshot("not json").is_err());
        assert!(
            parse_snapshot("[{\"suite\":\"s\"}]").is_err(),
            "missing name"
        );
        assert!(parse_snapshot("[{\"suite\":\"s\",\"name\":\"n\",\"median_ns\":x}]").is_err());
    }

    #[test]
    fn parse_snapshot_accepts_empty_array() {
        assert_eq!(parse_snapshot("[]").unwrap(), vec![]);
        assert_eq!(parse_snapshot("[\n]").unwrap(), vec![]);
    }
}
