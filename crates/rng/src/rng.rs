//! The user-facing random number generator with benchmark-oriented sampling
//! routines.

use crate::xoshiro::Xoshiro256PlusPlus;

/// A deterministic random number generator for benchmarking experiments.
///
/// Wraps [xoshiro256++](crate::Xoshiro256PlusPlus) and adds the sampling
/// routines the rest of the workspace needs. Every method is deterministic
/// given the seed; there is no global or thread-local state anywhere in this
/// crate.
///
/// # Example
///
/// ```
/// use varbench_rng::Rng;
///
/// let mut rng = Rng::seed_from_u64(0xC0FFEE);
/// let lr = rng.log_uniform(1e-3, 0.3);     // hyperparameter sampling
/// let w = rng.normal(0.0, 0.02);           // weight initialization
/// let keep = rng.bernoulli(0.9);           // dropout mask
/// assert!((1e-3..=0.3).contains(&lr));
/// assert!(w.is_finite());
/// let _ = keep;
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rng {
    core: Xoshiro256PlusPlus,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self {
            core: Xoshiro256PlusPlus::from_seed(seed),
        }
    }

    /// Returns the next raw `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.core.next_u64()
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        self.core.next_f64()
    }

    /// Splits off an independent generator.
    ///
    /// The child is seeded from this generator's stream; both may be used
    /// afterwards without correlation.
    pub fn split(&mut self) -> Rng {
        Rng::seed_from_u64(self.next_u64())
    }

    // ------------------------------------------------------------------
    // Integer sampling
    // ------------------------------------------------------------------

    /// Returns a uniform integer in `[0, n)`.
    ///
    /// Uses rejection sampling (Lemire's method) so the result is exactly
    /// uniform, not merely approximately.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn range_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "range_usize requires n > 0");
        let n = n as u64;
        // Lemire's nearly-divisionless unbiased bounded sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Returns a uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_inclusive(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "range_inclusive requires lo <= hi");
        let span = (hi - lo) as u64 + 1;
        lo + self.range_u64(span) as i64
    }

    /// Returns a uniform `u64` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn range_u64(&mut self, n: u64) -> u64 {
        assert!(n > 0, "range_u64 requires n > 0");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    // ------------------------------------------------------------------
    // Continuous distributions
    // ------------------------------------------------------------------

    /// Returns a uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite(), "bounds must be finite");
        assert!(lo <= hi, "uniform requires lo <= hi");
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns a log-uniform `f64` in `[lo, hi)`: uniform in log-space.
    ///
    /// This is the standard prior for scale hyperparameters such as the
    /// learning rate or weight decay (paper Tables 2, 3, 5, 6).
    ///
    /// # Panics
    ///
    /// Panics if bounds are not strictly positive or `lo > hi`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo > 0.0 && hi > 0.0, "log_uniform requires positive bounds");
        assert!(lo <= hi, "log_uniform requires lo <= hi");
        (self.uniform(lo.ln(), hi.ln())).exp()
    }

    /// Returns a standard normal deviate (mean 0, variance 1).
    ///
    /// Uses the Marsaglia polar method; exact to `f64` precision.
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let (u, s) = self.polar_candidate();
            if polar_accepts(s) {
                return polar_deviate(u, s);
            }
        }
    }

    /// Returns a normal deviate with the given `mean` and `std`.
    ///
    /// # Panics
    ///
    /// Panics if `std < 0`.
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        assert!(std >= 0.0, "normal requires std >= 0");
        mean + std * self.standard_normal()
    }

    /// Fills `out` with normal deviates of the given `mean` and `std`.
    ///
    /// Writes bit for bit what `out.len()` calls to [`Rng::normal`] would
    /// return, and leaves the generator in the same state. It works in
    /// chunks of 64 and two passes. The first draws polar candidates in
    /// stream order and keeps the accepted ones with a branch-free
    /// cursor. The second transforms them with no branch, so the
    /// independent `ln`, divide and sqrt calls overlap instead of each
    /// waiting behind a rejection test.
    ///
    /// # Panics
    ///
    /// Panics if `std < 0`.
    // lint: no-alloc
    pub fn fill_normal(&mut self, mean: f64, std: f64, out: &mut [f64]) {
        assert!(std >= 0.0, "normal requires std >= 0");
        let mut s_buf = [0.0; 64];
        for chunk in out.chunks_mut(s_buf.len()) {
            let s = &mut s_buf[..chunk.len()];
            // A rejected candidate is overwritten by the next one, exactly
            // as `standard_normal`'s loop discards it.
            let mut k = 0;
            while k < chunk.len() {
                let (u, sk) = self.polar_candidate();
                chunk[k] = u;
                s[k] = sk;
                k += usize::from(polar_accepts(sk));
            }
            for (x, &sk) in chunk.iter_mut().zip(s.iter()) {
                *x = mean + std * polar_deviate(*x, sk);
            }
        }
    }

    /// Draws one polar-method candidate: `u` and `s = u² + v²` for `u`, `v`
    /// uniform in `[-1, 1)`.
    fn polar_candidate(&mut self) -> (f64, f64) {
        let u = 2.0 * self.next_f64() - 1.0;
        let v = 2.0 * self.next_f64() - 1.0;
        (u, u * u + v * v)
    }

    /// Returns an exponential deviate with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda <= 0`.
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential requires lambda > 0");
        // Inverse CDF; 1 - U avoids ln(0).
        -(1.0 - self.next_f64()).ln() / lambda
    }

    // ------------------------------------------------------------------
    // Discrete distributions
    // ------------------------------------------------------------------

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "bernoulli requires p in [0,1]");
        self.next_f64() < p
    }

    /// Returns a Binomial(n, p) deviate: the number of successes in `n`
    /// independent trials with success probability `p`.
    ///
    /// Exact (sum of Bernoullis) for `n <= 128`; for larger `n` uses the
    /// BTRS-free normal approximation with continuity correction, clamped to
    /// `[0, n]`, which is accurate to well under the sampling noise for the
    /// test-set sizes this workspace models (Fig. 2 uses n up to 10^6).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn binomial(&mut self, n: u64, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&p), "binomial requires p in [0,1]");
        if p == 0.0 || n == 0 {
            return 0;
        }
        if p == 1.0 {
            return n;
        }
        if n <= 128 {
            let mut k = 0;
            for _ in 0..n {
                if self.bernoulli(p) {
                    k += 1;
                }
            }
            k
        } else {
            let mean = n as f64 * p;
            let std = (n as f64 * p * (1.0 - p)).sqrt();
            let x = (self.normal(mean, std) + 0.5).floor();
            x.clamp(0.0, n as f64) as u64
        }
    }

    /// Samples an index according to non-negative `weights`.
    ///
    /// Weights need not be normalized.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative or non-finite
    /// value, or sums to zero.
    pub fn categorical(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "categorical requires weights");
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w >= 0.0 && w.is_finite(), "weights must be finite and >= 0");
                w
            })
            .sum();
        assert!(total > 0.0, "categorical requires a positive total weight");
        let mut u = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        weights.len() - 1
    }

    // ------------------------------------------------------------------
    // Sequence operations
    // ------------------------------------------------------------------

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.range_usize(i + 1);
            slice.swap(i, j);
        }
    }

    /// Returns a random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx
    }

    /// Returns a reference to a uniformly chosen element, or `None` if the
    /// slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.range_usize(slice.len())])
        }
    }

    /// Samples `k` distinct indices from `0..n`, in random order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        // Partial Fisher-Yates over an index vector; O(n) allocation but the
        // populations in this workspace are small (<= 1e6).
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.range_usize(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// The polar method keeps a candidate inside the open unit disc, minus
/// its centre.
fn polar_accepts(s: f64) -> bool {
    s > 0.0 && s < 1.0
}

/// The polar method's standard normal deviate for an accepted candidate.
fn polar_deviate(u: f64, s: f64) -> f64 {
    u * (-2.0 * s.ln() / s).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = rng(1);
        for _ in 0..10_000 {
            let x = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn log_uniform_respects_bounds_and_shape() {
        let mut r = rng(2);
        let mut below_geo_mean = 0;
        let n = 20_000;
        let (lo, hi) = (1e-4f64, 1e0f64);
        let geo_mean = (lo * hi).sqrt(); // 1e-2
        for _ in 0..n {
            let x = r.log_uniform(lo, hi);
            assert!((lo..hi).contains(&x));
            if x < geo_mean {
                below_geo_mean += 1;
            }
        }
        // Log-uniform => half the mass below the geometric mean.
        let frac = below_geo_mean as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng(3);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn bernoulli_rate() {
        let mut r = rng(4);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.bernoulli(0.3)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng(5);
        assert!(!r.bernoulli(0.0));
        assert!(r.bernoulli(1.0));
    }

    #[test]
    fn binomial_small_n_moments() {
        let mut r = rng(6);
        let reps = 20_000;
        let (n, p) = (20u64, 0.4);
        let xs: Vec<f64> = (0..reps).map(|_| r.binomial(n, p) as f64).collect();
        let mean = xs.iter().sum::<f64>() / reps as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / reps as f64;
        assert!((mean - 8.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.8).abs() < 0.25, "var {var}");
    }

    #[test]
    fn binomial_large_n_moments() {
        let mut r = rng(7);
        let reps = 5_000;
        let (n, p) = (10_000u64, 0.91);
        let xs: Vec<f64> = (0..reps).map(|_| r.binomial(n, p) as f64).collect();
        let mean = xs.iter().sum::<f64>() / reps as f64;
        let expected_std = (n as f64 * p * (1.0 - p)).sqrt();
        let std = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / reps as f64).sqrt();
        assert!((mean / (n as f64 * p) - 1.0).abs() < 0.001, "mean {mean}");
        assert!((std / expected_std - 1.0).abs() < 0.1, "std {std}");
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng(8);
        assert_eq!(r.binomial(0, 0.5), 0);
        assert_eq!(r.binomial(100, 0.0), 0);
        assert_eq!(r.binomial(100, 1.0), 100);
    }

    #[test]
    fn categorical_distribution() {
        let mut r = rng(9);
        let w = [1.0, 2.0, 7.0];
        let n = 50_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[r.categorical(&w)] += 1;
        }
        assert!((counts[0] as f64 / n as f64 - 0.1).abs() < 0.01);
        assert!((counts[1] as f64 / n as f64 - 0.2).abs() < 0.01);
        assert!((counts[2] as f64 / n as f64 - 0.7).abs() < 0.01);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = rng(10);
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_is_uniformish() {
        // Position of element 0 after shuffling should be uniform.
        let n = 10_000;
        let mut at_zero = 0;
        for seed in 0..n {
            let mut r = rng(seed);
            let mut v: Vec<usize> = (0..10).collect();
            r.shuffle(&mut v);
            if v[0] == 0 {
                at_zero += 1;
            }
        }
        let frac = at_zero as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = rng(11);
        let s = r.sample_indices(50, 20);
        assert_eq!(s.len(), 20);
        let mut u = s.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 20);
        assert!(s.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_full_population() {
        let mut r = rng(12);
        let mut s = r.sample_indices(10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn range_usize_unbiased_small() {
        let mut r = rng(13);
        let n = 300_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[r.range_usize(3)] += 1;
        }
        for c in counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.005, "frac {frac}");
        }
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut r = rng(14);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1000 {
            let x = r.range_inclusive(-2, 2);
            assert!((-2..=2).contains(&x));
            saw_lo |= x == -2;
            saw_hi |= x == 2;
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn split_streams_are_uncorrelated_prefixes() {
        let mut a = rng(15);
        let mut b = a.split();
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn exponential_mean() {
        let mut r = rng(16);
        let n = 100_000;
        let mean = (0..n).map(|_| r.exponential(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn choose_empty_is_none() {
        let mut r = rng(17);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
    }

    #[test]
    #[should_panic(expected = "range_usize requires n > 0")]
    fn range_zero_panics() {
        rng(18).range_usize(0);
    }

    #[test]
    #[should_panic(expected = "bernoulli requires p in [0,1]")]
    fn bernoulli_bad_p_panics() {
        rng(19).bernoulli(1.5);
    }
}
