//! Seeded stochastic data augmentation.
//!
//! Data augmentation is one of the ξ_O variance sources the paper measures
//! (Fig. 1, CIFAR10 column): the augmentation RNG changes what the model
//! sees each epoch, which perturbs the final performance. Augmenters here
//! transform *feature vectors* — the tabular analog of the paper's random
//! crops and flips.

use varbench_rng::Rng;

/// A stochastic feature-space augmentation.
///
/// Implementations must be deterministic given the `rng` stream so the
/// augmentation variance source can be held fixed or randomized at will.
pub trait Augment: std::fmt::Debug {
    /// Perturbs the feature vector `x` in place.
    fn augment(&self, x: &mut [f64], rng: &mut Rng);

    /// `true` if this augmentation never changes `x` and never draws from
    /// the RNG, letting hot loops skip the virtual call (and the input
    /// copy it would require) entirely. Default `false`; only override
    /// for genuine no-ops.
    fn is_noop(&self) -> bool {
        false
    }
}

/// The identity augmentation (no-op). Used when a pipeline has no
/// augmentation source (e.g. the BERT analogs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Identity;

impl Augment for Identity {
    fn augment(&self, _x: &mut [f64], _rng: &mut Rng) {}

    fn is_noop(&self) -> bool {
        true
    }
}

/// Additive Gaussian jitter: `x ← x + ε`, `ε ∼ N(0, σ²)` per coordinate.
///
/// The tabular analog of random cropping: a small random displacement of
/// the input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianJitter {
    /// Noise standard deviation.
    pub sigma: f64,
}

impl GaussianJitter {
    /// Creates a jitter augmentation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be >= 0");
        Self { sigma }
    }
}

impl Augment for GaussianJitter {
    fn augment(&self, x: &mut [f64], rng: &mut Rng) {
        if self.sigma == 0.0 {
            return;
        }
        jitter(x, self.sigma, rng);
    }
}

/// Adds an `N(0, sigma²)` deviate to every coordinate of `x`, in order.
///
/// The deviates are drawn a stack chunk at a time with
/// [`Rng::fill_normal`], so they are the bits one `normal` call per
/// coordinate would add, and the augmentation stays heap-free.
fn jitter(x: &mut [f64], sigma: f64, rng: &mut Rng) {
    let mut eps = [0.0; 64];
    for chunk in x.chunks_mut(eps.len()) {
        let eps = &mut eps[..chunk.len()];
        rng.fill_normal(0.0, sigma, eps);
        for (xi, e) in chunk.iter_mut().zip(eps.iter()) {
            *xi += e;
        }
    }
}

/// Random sign flip of the whole feature vector with probability `p`,
/// optionally combined with Gaussian jitter.
///
/// The tabular analog of a random horizontal flip: a global, structured
/// transformation applied with probability 1/2 plus local noise. Only
/// meaningful for tasks whose generating distribution is symmetric under
/// negation (the Gaussian-mixture analog is, up to class relabeling, which
/// is why `flip_scale` defaults below 1: partial reflection keeps the class
/// structure while still perturbing training).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlipJitter {
    /// Probability of applying the flip.
    pub p_flip: f64,
    /// Multiplier applied when flipping (e.g. −0.2 for a partial
    /// reflection).
    pub flip_scale: f64,
    /// Additive jitter applied after the flip decision.
    pub sigma: f64,
}

impl FlipJitter {
    /// Creates a flip-and-jitter augmentation.
    ///
    /// # Panics
    ///
    /// Panics if `p_flip` outside `[0, 1]` or `sigma < 0`.
    pub fn new(p_flip: f64, flip_scale: f64, sigma: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_flip), "p_flip must be in [0,1]");
        assert!(sigma >= 0.0, "sigma must be >= 0");
        Self {
            p_flip,
            flip_scale,
            sigma,
        }
    }
}

impl Augment for FlipJitter {
    fn augment(&self, x: &mut [f64], rng: &mut Rng) {
        if self.p_flip > 0.0 && rng.bernoulli(self.p_flip) {
            for xi in x.iter_mut() {
                *xi *= self.flip_scale;
            }
        }
        if self.sigma > 0.0 {
            jitter(x, self.sigma, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let mut rng = Rng::seed_from_u64(1);
        let mut x = vec![1.0, -2.0, 3.0];
        Identity.augment(&mut x, &mut rng);
        assert_eq!(x, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn jitter_perturbs_but_stays_close() {
        let mut rng = Rng::seed_from_u64(2);
        let orig = vec![1.0; 100];
        let mut x = orig.clone();
        GaussianJitter::new(0.1).augment(&mut x, &mut rng);
        assert_ne!(x, orig);
        let max_shift = x
            .iter()
            .zip(&orig)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_shift < 1.0, "5-sigma bound: {max_shift}");
    }

    #[test]
    fn jitter_zero_sigma_is_noop() {
        let mut rng = Rng::seed_from_u64(3);
        let mut x = vec![1.0, 2.0];
        GaussianJitter::new(0.0).augment(&mut x, &mut rng);
        assert_eq!(x, vec![1.0, 2.0]);
    }

    #[test]
    fn jitter_deterministic_given_seed() {
        let mut a = vec![0.5; 8];
        let mut b = vec![0.5; 8];
        GaussianJitter::new(0.2).augment(&mut a, &mut Rng::seed_from_u64(4));
        GaussianJitter::new(0.2).augment(&mut b, &mut Rng::seed_from_u64(4));
        assert_eq!(a, b);
    }

    #[test]
    fn flip_applies_at_expected_rate() {
        let aug = FlipJitter::new(0.5, -1.0, 0.0);
        let mut rng = Rng::seed_from_u64(5);
        let mut flips = 0;
        let n = 10_000;
        for _ in 0..n {
            let mut x = vec![1.0];
            aug.augment(&mut x, &mut rng);
            if x[0] < 0.0 {
                flips += 1;
            }
        }
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "flip rate {rate}");
    }

    #[test]
    fn flip_scale_respected() {
        let aug = FlipJitter::new(1.0, -0.25, 0.0);
        let mut rng = Rng::seed_from_u64(6);
        let mut x = vec![4.0, -8.0];
        aug.augment(&mut x, &mut rng);
        assert_eq!(x, vec![-1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "p_flip must be in [0,1]")]
    fn bad_p_flip_rejected() {
        FlipJitter::new(1.5, 1.0, 0.0);
    }
}
