//! A minimal, dependency-free property-test harness: deterministic seed
//! sweeps instead of `proptest`.
//!
//! This workspace must build with an empty cargo registry (no crates.io),
//! so the property tests cannot depend on an external shrinking framework.
//! [`sweep`] recovers the important part — *many generated inputs per
//! invariant* — with the machinery this crate already provides: each case
//! gets an independent [`Rng`] derived from `(harness root, property label,
//! case index)` through the [`SeedTree`], so failures are perfectly
//! reproducible from the message alone and never flake.
//!
//! ```
//! use varbench_rng::sweep::sweep;
//!
//! sweep("addition_commutes", 64, |case| {
//!     let a = case.f64_in(-1e3, 1e3);
//!     let b = case.f64_in(-1e3, 1e3);
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use crate::rng::Rng;
use crate::seed_tree::SeedTree;

/// Root seed of the whole harness; changing it re-rolls every sweep.
const HARNESS_ROOT: u64 = 0x5EED_0CA5_E5EE_D0CA;

/// One generated test case: a deterministic [`Rng`] plus drawing helpers
/// mirroring the generators the old `proptest` strategies used, and the
/// truncate, mutate and splice steps of the torn-input sweeps.
pub struct Case {
    rng: Rng,
    index: usize,
}

impl Case {
    /// Case number within the sweep (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The case's raw RNG, for draws the helpers below do not cover.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Uniform `f64` in the half-open interval `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.uniform(lo, hi)
    }

    /// Uniform `usize` in the half-open interval `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.rng.range_usize(hi - lo)
    }

    /// Uniform `u64` in the half-open interval `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.rng.range_u64(hi - lo)
    }

    /// Vector of uniform `f64` draws from `[lo, hi)` with a length drawn
    /// from `[min_len, max_len)`.
    pub fn vec_f64(&mut self, lo: f64, hi: f64, min_len: usize, max_len: usize) -> Vec<f64> {
        let n = self.usize_in(min_len, max_len);
        self.f64s(lo, hi, n)
    }

    /// Vector of exactly `len` uniform `f64` draws from `[lo, hi)`.
    pub fn f64s(&mut self, lo: f64, hi: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.rng.uniform(lo, hi)).collect()
    }

    /// One of `items`, uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0, items.len())]
    }

    /// A prefix of `bytes` of uniform length in `0..=bytes.len()`: a
    /// write torn at a random point.
    pub fn truncated<'a>(&mut self, bytes: &'a [u8]) -> &'a [u8] {
        &bytes[..self.usize_in(0, bytes.len() + 1)]
    }

    /// `bytes` with 1 to 5 bytes overwritten at uniform positions, each
    /// by a byte of `steer` (the syntax of the reader under test) or by
    /// a uniform byte, at even odds.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` or `steer` is empty.
    pub fn mutated(&mut self, bytes: &[u8], steer: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        for _ in 0..self.usize_in(1, 6) {
            let at = self.usize_in(0, out.len());
            out[at] = if self.usize_in(0, 2) == 0 {
                *self.pick(steer)
            } else {
                self.rng.next_u64() as u8
            };
        }
        out
    }

    /// The head of `a` up to a uniform cut, a uniform slice of `b`, then
    /// the rest of `a` from a uniform point at or after the cut: two
    /// writers interleaved, or one document spliced into another.
    pub fn spliced(&mut self, a: &[u8], b: &[u8]) -> Vec<u8> {
        let cut = self.usize_in(0, a.len() + 1);
        let resume = self.usize_in(cut, a.len() + 1);
        let start = self.usize_in(0, b.len() + 1);
        let end = self.usize_in(start, b.len() + 1);
        let mut out = a[..cut].to_vec();
        out.extend_from_slice(&b[start..end]);
        out.extend_from_slice(&a[resume..]);
        out
    }
}

/// Runs `property` once per case with independently seeded inputs.
///
/// `label` keys the seed stream (two sweeps with different labels see
/// different inputs) and names the property in failure output. A panic
/// inside `property` is annotated with the failing case index and seed,
/// then propagated so the enclosing `#[test]` still fails normally.
pub fn sweep<F>(label: &str, cases: usize, mut property: F)
where
    F: FnMut(&mut Case),
{
    let tree = SeedTree::new(HARNESS_ROOT);
    for index in 0..cases {
        let seed = tree.seed_indexed(label, index as u64);
        let mut case = Case {
            rng: seed.rng(),
            index,
        };
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| property(&mut case)));
        if let Err(payload) = outcome {
            eprintln!("property '{label}' failed at case {index}/{cases} ({seed})");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_across_runs() {
        let mut first = Vec::new();
        sweep("determinism", 8, |case| first.push(case.f64_in(0.0, 1.0)));
        let mut second = Vec::new();
        sweep("determinism", 8, |case| second.push(case.f64_in(0.0, 1.0)));
        assert_eq!(first, second);
    }

    #[test]
    fn labels_key_distinct_streams() {
        let mut a = Vec::new();
        sweep("label_a", 4, |case| a.push(case.rng().next_u64()));
        let mut b = Vec::new();
        sweep("label_b", 4, |case| b.push(case.rng().next_u64()));
        assert_ne!(a, b);
    }

    #[test]
    fn helpers_respect_bounds() {
        sweep("bounds", 64, |case| {
            let x = case.f64_in(-2.5, 7.5);
            assert!((-2.5..7.5).contains(&x));
            let n = case.usize_in(3, 9);
            assert!((3..9).contains(&n));
            let u = case.u64_in(10, 20);
            assert!((10..20).contains(&u));
            let v = case.vec_f64(0.0, 1.0, 1, 5);
            assert!((1..5).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        });
    }

    #[test]
    fn byte_helpers_stay_in_bounds() {
        let (a, b) = (b"abcdef".as_slice(), b"XYZ".as_slice());
        sweep("byte_helpers", 64, |case| {
            let t = case.truncated(a);
            assert_eq!(t, &a[..t.len()]);
            let m = case.mutated(a, b"#");
            assert_eq!(m.len(), a.len());
            let changed = m.iter().zip(a).filter(|(x, y)| x != y).count();
            assert!(changed <= 5, "{m:?}");
            let s = case.spliced(a, b);
            assert!(s.len() <= a.len() + b.len(), "{s:?}");
            assert!(s.iter().all(|c| a.contains(c) || b.contains(c)), "{s:?}");
            assert!([a, b].contains(case.pick(&[a, b])));
        });
    }

    #[test]
    #[should_panic(expected = "forced failure")]
    fn failures_propagate() {
        sweep("failing", 4, |case| {
            if case.index() == 2 {
                panic!("forced failure");
            }
        });
    }
}
