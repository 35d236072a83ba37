//! Property-based tests of the RNG substrate, driven by the in-repo
//! deterministic seed-sweep harness ([`varbench_rng::sweep`]).

use varbench_rng::sweep::sweep;
use varbench_rng::{bootstrap_indices, oob_complement, Rng, SeedTree};

#[test]
fn range_usize_always_in_bounds() {
    sweep("range_usize_always_in_bounds", 64, |case| {
        let seed = case.u64_in(0, 10_000);
        let n = case.usize_in(1, 10_000);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..50 {
            assert!(rng.range_usize(n) < n);
        }
    });
}

#[test]
fn uniform_in_half_open_interval() {
    sweep("uniform_in_half_open_interval", 64, |case| {
        let seed = case.u64_in(0, 10_000);
        let lo = case.f64_in(-100.0, 100.0);
        let span = case.f64_in(0.001, 100.0);
        let mut rng = Rng::seed_from_u64(seed);
        let hi = lo + span;
        for _ in 0..20 {
            let x = rng.uniform(lo, hi);
            assert!((lo..hi).contains(&x));
        }
    });
}

#[test]
fn binomial_never_exceeds_n() {
    sweep("binomial_never_exceeds_n", 64, |case| {
        let seed = case.u64_in(0, 1000);
        let n = case.u64_in(0, 500);
        let p = case.f64_in(0.0, 1.0);
        let mut rng = Rng::seed_from_u64(seed);
        assert!(rng.binomial(n, p) <= n);
    });
}

#[test]
fn permutation_is_bijection() {
    sweep("permutation_is_bijection", 64, |case| {
        let seed = case.u64_in(0, 10_000);
        let n = case.usize_in(1, 200);
        let mut rng = Rng::seed_from_u64(seed);
        let mut p = rng.permutation(n);
        p.sort_unstable();
        assert_eq!(p, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn sample_indices_distinct() {
    sweep("sample_indices_distinct", 64, |case| {
        let seed = case.u64_in(0, 10_000);
        let n = case.usize_in(1, 300);
        let mut rng = Rng::seed_from_u64(seed);
        let k = n / 2 + 1;
        let mut s = rng.sample_indices(n, k.min(n));
        let len = s.len();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), len, "duplicates in sample");
    });
}

#[test]
fn oob_partition_is_exact() {
    sweep("oob_partition_is_exact", 64, |case| {
        let seed = case.u64_in(0, 10_000);
        let n = case.usize_in(1, 500);
        let mut rng = Rng::seed_from_u64(seed);
        let bag = bootstrap_indices(&mut rng, n, n);
        let oob = oob_complement(n, &bag);
        // Union of unique(bag) and oob is 0..n, and they are disjoint.
        let mut uniq: Vec<usize> = bag.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let mut all = uniq.clone();
        all.extend_from_slice(&oob);
        all.sort_unstable();
        assert_eq!(all, (0..n).collect::<Vec<_>>());
    });
}

#[test]
fn seed_tree_deterministic_and_label_sensitive() {
    sweep("seed_tree_deterministic_and_label_sensitive", 64, |case| {
        let root = case.u64_in(0, 100_000);
        let t1 = SeedTree::new(root);
        let t2 = SeedTree::new(root);
        assert_eq!(t1.seed("a"), t2.seed("a"));
        assert_ne!(t1.seed("a"), t1.seed("b"));
    });
}

#[test]
fn split_streams_diverge() {
    sweep("split_streams_diverge", 64, |case| {
        let seed = case.u64_in(0, 100_000);
        let mut a = Rng::seed_from_u64(seed);
        let mut b = a.split();
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    });
}

#[test]
fn fill_normal_is_normal_in_a_loop_bit_for_bit() {
    // The chunk edges (63, 64, 65, 129) first, then random lengths; every
    // fourth case has std = 0.
    const EDGES: [usize; 6] = [0, 1, 63, 64, 65, 129];
    sweep("fill_normal_is_normal_in_a_loop_bit_for_bit", 96, |case| {
        let seed = case.u64_in(0, u64::MAX);
        let mean = case.f64_in(-10.0, 10.0);
        let std = if case.index() % 4 == 3 {
            0.0
        } else {
            case.f64_in(0.0, 5.0)
        };
        let len = match EDGES.get(case.index()) {
            Some(&len) => len,
            None => case.usize_in(0, 301),
        };
        let mut batched = Rng::seed_from_u64(seed);
        let mut looped = batched.clone();
        let mut out = vec![f64::NAN; len];
        batched.fill_normal(mean, std, &mut out);
        for (i, &x) in out.iter().enumerate() {
            let want = looped.normal(mean, std);
            assert_eq!(x.to_bits(), want.to_bits(), "len {len}, deviate {i}");
        }
        assert_eq!(batched.next_u64(), looped.next_u64(), "len {len}: stream");
    });
}

#[test]
#[should_panic(expected = "normal requires std >= 0")]
fn fill_normal_rejects_a_negative_std() {
    Rng::seed_from_u64(1).fill_normal(0.0, -1.0, &mut [0.0; 3]);
}
