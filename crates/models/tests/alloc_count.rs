//! Allocation-count smoke test: the MLP epoch loop must be heap-silent.
//!
//! `Mlp::train` preallocates every training buffer (`TrainWorkspace`)
//! before the epoch loop, so two trainings that differ **only** in epoch
//! count must perform exactly the same number of heap allocations — the
//! extra epochs add zero. This pins the zero-allocation property without
//! needing heap instrumentation inside the library itself.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one `#[test]` (a second test would race the counters).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use varbench_data::augment::{Augment, GaussianJitter, Identity};
use varbench_data::synth::{binary_overlap, BinaryOverlapConfig};
use varbench_models::{Mlp, MlpConfig, TrainConfig, TrainSeeds};
use varbench_rng::{Rng, SeedTree};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts every allocation (and counts
/// reallocations, which matter here: a growing `Vec` inside the epoch
/// loop would show up as extra reallocs).
struct CountingAllocator;

// SAFETY: delegates every operation unchanged to the `System` allocator;
// the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as the caller's, forwarded as-is.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: ptr/layout come from the paired alloc above, unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: ptr/layout/new_size are forwarded to System unchanged.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn train_alloc_count(
    cfg: &MlpConfig,
    tc: &TrainConfig,
    ds: &varbench_data::Dataset,
    augment: &dyn Augment,
    seed: u64,
) -> u64 {
    let mut seeds = TrainSeeds::from_tree(&SeedTree::new(seed));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let model = Mlp::train(cfg, tc, ds, augment, &mut seeds);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    // Keep the model alive through the second read so its drop (which
    // only frees) cannot reorder into the window.
    drop(model);
    after - before
}

/// Asserts that adding 10 epochs adds zero heap allocations for the
/// given architecture/optimizer/augmentation combination.
fn assert_epoch_loop_heap_silent(
    cfg: &MlpConfig,
    base: &TrainConfig,
    ds: &varbench_data::Dataset,
    augment: &dyn Augment,
) {
    let short = TrainConfig {
        epochs: 2,
        ..base.clone()
    };
    let long = TrainConfig {
        epochs: 12,
        ..base.clone()
    };
    let short_allocs = train_alloc_count(cfg, &short, ds, augment, 7);
    let long_allocs = train_alloc_count(cfg, &long, ds, augment, 7);
    assert!(short_allocs > 0, "setup must allocate the workspace");
    assert_eq!(
        short_allocs, long_allocs,
        "10 extra epochs must add zero heap allocations for {:?} \
         with {augment:?} (epoch loop is not allocation-free)",
        cfg.hidden
    );
}

#[test]
fn epoch_loop_allocates_nothing_after_warmup() {
    let mut rng = Rng::seed_from_u64(1);
    let ds = binary_overlap(
        &BinaryOverlapConfig {
            n: 300,
            dim: 16,
            separation: 2.0,
            ..Default::default()
        },
        &mut rng,
    );
    // Warm up once (lazy runtime init — e.g. the first RNG or fmt path —
    // must not pollute the measured windows).
    let warm = TrainConfig {
        epochs: 2,
        dropout: 0.2,
        ..Default::default()
    };
    train_alloc_count(&MlpConfig::default(), &warm, &ds, &Identity, 7);

    // Dropout on: the mask path must be allocation-free too.
    assert_epoch_loop_heap_silent(
        &MlpConfig::default(),
        &TrainConfig {
            dropout: 0.2,
            ..Default::default()
        },
        &ds,
        &Identity,
    );

    // Dropout off: the batched GEMM phases alone — forward through
    // `gemm_rows_into`/`gemm_transb_into`, the strided `gemm_col_nz_into`
    // gradient pass, and the dense below-delta fast path all run inside
    // this window and must stay heap-silent.
    assert_epoch_loop_heap_silent(
        &MlpConfig::default(),
        &TrainConfig::default(),
        &ds,
        &Identity,
    );

    // Deeper and wider: two hidden layers exercise the hidden-to-hidden
    // sparse backward path (ReLU-gated deltas) plus every example-block
    // and k-fusion tail (widths 24/12 are not multiples of the 4-row
    // blocks; batch 300 % 32 leaves a 12-example tail batch).
    assert_epoch_loop_heap_silent(
        &MlpConfig {
            hidden: vec![24, 12],
            ..Default::default()
        },
        &TrainConfig {
            dropout: 0.1,
            momentum: 0.8,
            ..Default::default()
        },
        &ds,
        &Identity,
    );

    // The noisy path: pascalvoc-resnet's gradient noise (batched draws
    // into the workspace's noise buffer, for every weight and bias) and
    // cifar10-vgg11's input jitter (stack-chunked draws per staged row).
    assert_epoch_loop_heap_silent(
        &MlpConfig {
            hidden: vec![24, 12],
            ..Default::default()
        },
        &TrainConfig {
            grad_noise: 3e-4,
            ..Default::default()
        },
        &ds,
        &GaussianJitter::new(0.3),
    );
}
