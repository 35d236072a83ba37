//! Multilayer perceptron with explicitly seeded training stochasticity.

use crate::init::Init;
use varbench_data::augment::Augment;
use varbench_data::{Dataset, Targets};
use varbench_linalg::{
    compact_nonzero, gemm_col_nz_into, gemm_rows_into, gemm_transb_into, matvec_cols_init,
    matvec_rows_init, vecmat_nz_into,
};
use varbench_rng::{Rng, SeedTree};

/// Output head of an [`Mlp`], selected from the dataset's target kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Head {
    /// Softmax + cross-entropy over `num_classes` logits (classification).
    Softmax,
    /// Independent sigmoid + binary cross-entropy per output (dense masks).
    SigmoidBce,
    /// Linear output + squared error (regression).
    Mse,
}

/// Architecture of an [`Mlp`].
#[derive(Debug, Clone, PartialEq)]
pub struct MlpConfig {
    /// Hidden layer widths (empty = linear model).
    pub hidden: Vec<usize>,
    /// Weight initialization scheme.
    pub init: Init,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self {
            hidden: vec![32],
            init: Init::GlorotUniform,
        }
    }
}

/// Optimization hyperparameters — the λ of the paper's Eq. 1, mirroring the
/// search dimensions of its Tables 2/3/5/6 (learning rate, weight decay,
/// momentum, exponential LR-decay γ, dropout, init std via [`MlpConfig`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient (0 disables).
    pub momentum: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// Per-epoch exponential learning-rate decay factor (the γ of the
    /// paper's Table 2 LR schedule).
    pub lr_gamma: f64,
    /// Dropout probability on hidden activations (0 disables).
    pub dropout: f64,
    /// Standard deviation of synthetic gradient noise, relative to the
    /// learning-rate-scaled update. Models the paper's "numerical noise"
    /// source (GPU nondeterminism) which a pure-Rust pipeline does not
    /// otherwise have; 0 disables (bit-deterministic training).
    pub grad_noise: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 20,
            batch_size: 32,
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_gamma: 0.99,
            dropout: 0.0,
            grad_noise: 0.0,
        }
    }
}

/// One independent RNG stream per training variance source (ξ_O).
///
/// This is the paper's Appendix A seeding discipline made structural: each
/// source can be fixed or randomized independently of the others.
#[derive(Debug, Clone)]
pub struct TrainSeeds {
    /// Weight initialization stream.
    pub init: Rng,
    /// Data visit-order (shuffling) stream.
    pub order: Rng,
    /// Dropout mask stream.
    pub dropout: Rng,
    /// Data augmentation stream.
    pub augment: Rng,
    /// Synthetic numerical-noise stream.
    pub noise: Rng,
}

impl TrainSeeds {
    /// Standard labels used when deriving the five streams from a
    /// [`SeedTree`].
    pub const LABELS: [&'static str; 5] = [
        "weights_init",
        "data_order",
        "dropout",
        "data_augment",
        "numerical_noise",
    ];

    /// Derives all five streams from a seed tree using the standard labels.
    pub fn from_tree(tree: &SeedTree) -> Self {
        Self {
            init: tree.rng("weights_init"),
            order: tree.rng("data_order"),
            dropout: tree.rng("dropout"),
            augment: tree.rng("data_augment"),
            noise: tree.rng("numerical_noise"),
        }
    }
}

/// Output-row count at which the transposed forward kernel wins over the
/// row-major one. The choice depends only on the layer shape (never on
/// data), and both kernels accumulate each output element in the same
/// ascending-k order, so it cannot affect results — only speed.
const COLS_KERNEL_MIN_OUT: usize = 8;

#[derive(Debug, Clone, PartialEq)]
struct Dense {
    /// Canonical weights, out_dim × in_dim row-major — the layout backprop
    /// streams (one contiguous row per output's gradient/delta axpy).
    w: Vec<f64>,
    /// Transposed copy (in_dim × out_dim) for the forward pass: the inner
    /// loop runs contiguously over outputs and autovectorizes. Kept in
    /// sync with `w` by [`Dense::sync_wt`] after every optimizer step.
    wt: Vec<f64>,
    b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, init: Init, rng: &mut Rng) -> Self {
        // Draw order is positional in the row-major layout (weight (o, k)
        // is draw number o·in_dim + k) — the transposed copy is derived
        // afterwards so seeded initialization is unchanged.
        let w: Vec<f64> = (0..in_dim * out_dim)
            .map(|_| init.sample(in_dim, out_dim, rng))
            .collect();
        let mut layer = Self {
            w,
            wt: vec![0.0; in_dim * out_dim],
            b: vec![0.0; out_dim],
            in_dim,
            out_dim,
        };
        layer.sync_wt();
        layer
    }

    /// Rebuilds the transposed weight copy from the canonical row-major
    /// weights (called once per optimizer step; O(weights), trivially
    /// cheap next to the per-example work of a batch).
    fn sync_wt(&mut self) {
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            for (k, &v) in row.iter().enumerate() {
                self.wt[k * self.out_dim + o] = v;
            }
        }
    }

    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        // Both kernels overwrite every output element, so a correctly
        // sized buffer (the steady state in inference loops) needs no
        // refill.
        if out.len() != self.out_dim {
            out.clear();
            out.resize(self.out_dim, 0.0);
        }
        self.forward_into(x, out);
    }

    /// The single kernel-dispatch point for this layer's forward pass —
    /// training and inference both route here, so the row/column kernel
    /// choice can never drift between the two (a bit-identity hazard,
    /// not just duplication).
    fn forward_into(&self, x: &[f64], out: &mut [f64]) {
        if self.out_dim >= COLS_KERNEL_MIN_OUT {
            matvec_cols_init(&self.wt, &self.b, x, out);
        } else {
            matvec_rows_init(&self.w, &self.b, x, out);
        }
    }

    /// Batched forward over example-major slabs (`x` is `n × in_dim`,
    /// `out` is `n × out_dim`): the training hot path. Dispatches on the
    /// same shape threshold as [`Dense::forward_into`], and the batch
    /// GEMM kernels are golden-tested bit-identical per element to the
    /// per-example kernels, so training and inference cannot drift.
    fn forward_batch_into(&self, x: &[f64], out: &mut [f64]) {
        if self.out_dim >= COLS_KERNEL_MIN_OUT {
            gemm_rows_into(x, &self.wt, &self.b, self.out_dim, out);
        } else {
            gemm_transb_into(x, &self.w, &self.b, self.out_dim, out);
        }
    }
}

/// A trained multilayer perceptron.
///
/// Construct with [`Mlp::train`]; prediction methods run the network
/// without dropout. See the crate-level example.
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Dense>,
    head: Head,
    in_dim: usize,
    out_dim: usize,
}

/// Preallocated training scratch: every buffer `train_batch` touches.
///
/// Built once per [`Mlp::train`] call, before the epoch loop; after that
/// warm-up the epoch loop performs **zero heap allocations** — every
/// staged input, forward activation, dropout mask, backprop delta,
/// gradient accumulator, gradient-noise deviate and momentum buffer lives
/// here and is reused in place (verified by the allocation-count test in
/// `tests/alloc_count.rs`, with and without dropout, noise and jitter).
struct TrainWorkspace {
    /// Staged (augmented) inputs, `batch × in_dim` example-major.
    xb: Vec<f64>,
    /// Post-activation outputs per layer, each `batch × width`
    /// example-major (`ab[l]` is what layer `l` produced for every example
    /// of the current batch, after ReLU/dropout for hidden layers).
    ab: Vec<Vec<f64>>,
    /// Backpropagated deltas at each layer's output, `batch × width`.
    /// The gradient pass reads them strided, straight from this
    /// example-major layout — no transposed copy exists.
    db: Vec<Vec<f64>>,
    /// Dropout keep-masks per hidden layer, `batch × width` example-major
    /// — drawn for the whole batch in one tight pass (see `train_batch`)
    /// because interleaving RNG draws with the forward kernels spills the
    /// generator state on every burst.
    masks: Vec<Vec<f64>>,
    /// Gradient-noise deviates, drawn in one batch for a layer's weights
    /// and then for its biases just before their update loops read them
    /// (see `train_batch`). Sized to the largest weight matrix.
    noise: Vec<f64>,
    /// Gradient accumulators (same shapes as weights/biases).
    gw: Vec<Vec<f64>>,
    gb: Vec<Vec<f64>>,
    /// Momentum buffers.
    vw: Vec<Vec<f64>>,
    vb: Vec<Vec<f64>>,
    /// Scratch for the branch-free non-zero compactions in backprop
    /// (sized to `max(batch, widest layer)`).
    nz: Vec<usize>,
    /// Per-output non-zero example lists for the gradient pass, filled
    /// while the delta transpose already touches every element (row `o`
    /// occupies `nzs[o·batch..]`, `nnzs[o]` entries) — compacting in a
    /// separate pass would re-walk the whole `batch × width` slab.
    nzs: Vec<usize>,
    /// Lengths of the `nzs` rows.
    nnzs: Vec<usize>,
}

impl Mlp {
    /// Trains an MLP on `dataset` with the given architecture, optimizer
    /// settings, augmentation, and per-source seed streams.
    ///
    /// The output head is selected from the dataset's target kind:
    /// labels → softmax, masks → per-cell sigmoid BCE, values → MSE.
    ///
    /// Fully deterministic given `seeds` (when `grad_noise == 0`).
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or a config value is out of range
    /// (e.g. dropout outside `[0, 1)`, non-positive batch size / epochs /
    /// learning rate).
    pub fn train(
        config: &MlpConfig,
        train: &TrainConfig,
        dataset: &Dataset,
        augment: &dyn Augment,
        seeds: &mut TrainSeeds,
    ) -> Mlp {
        assert!(!dataset.is_empty(), "cannot train on an empty dataset");
        assert!(train.epochs > 0, "epochs must be > 0");
        assert!(train.batch_size > 0, "batch_size must be > 0");
        assert!(train.learning_rate > 0.0, "learning_rate must be > 0");
        assert!(
            (0.0..1.0).contains(&train.dropout),
            "dropout must be in [0,1)"
        );
        assert!(
            (0.0..=1.0).contains(&train.momentum),
            "momentum must be in [0,1]"
        );
        assert!(train.weight_decay >= 0.0, "weight_decay must be >= 0");
        assert!(
            train.lr_gamma > 0.0 && train.lr_gamma <= 1.0,
            "lr_gamma in (0,1]"
        );
        assert!(train.grad_noise >= 0.0, "grad_noise must be >= 0");

        let (head, out_dim) = match dataset.targets() {
            Targets::Labels { num_classes, .. } => (Head::Softmax, *num_classes),
            Targets::Masks { mask_len, .. } => (Head::SigmoidBce, *mask_len),
            Targets::Values(_) => (Head::Mse, 1),
        };

        // Build layers.
        let mut dims = vec![dataset.dim()];
        dims.extend_from_slice(&config.hidden);
        dims.push(out_dim);
        let layers: Vec<Dense> = dims
            .windows(2)
            .map(|d| Dense::new(d[0], d[1], config.init, &mut seeds.init))
            .collect();

        let mut model = Mlp {
            layers,
            head,
            in_dim: dataset.dim(),
            out_dim,
        };

        let b = train.batch_size.min(dataset.len());
        let widest = dims[1..].iter().copied().max().unwrap_or(0);
        let mut ws = TrainWorkspace {
            xb: vec![0.0; b * dataset.dim()],
            ab: dims[1..].iter().map(|&d| vec![0.0; d * b]).collect(),
            db: dims[1..].iter().map(|&d| vec![0.0; d * b]).collect(),
            // Without dropout the masks are never read — skip the
            // allocation entirely (one of the larger setup buffers).
            masks: if train.dropout > 0.0 {
                dims[1..dims.len() - 1]
                    .iter()
                    .map(|&d| vec![1.0; d * b])
                    .collect()
            } else {
                Vec::new()
            },
            // Likewise, without gradient noise the deviate buffer is never read.
            noise: if train.grad_noise > 0.0 {
                vec![0.0; model.layers.iter().map(|l| l.w.len()).max().unwrap_or(0)]
            } else {
                Vec::new()
            },
            gw: model.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            gb: model.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            vw: model.layers.iter().map(|l| vec![0.0; l.w.len()]).collect(),
            vb: model.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            nz: vec![0; widest.max(b)],
            nzs: vec![0; widest * b],
            nnzs: vec![0; widest],
        };

        let n = dataset.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut lr = train.learning_rate;

        for _epoch in 0..train.epochs {
            seeds.order.shuffle(&mut order);
            for batch in order.chunks(train.batch_size) {
                model.train_batch(batch, dataset, augment, train, lr, &mut ws, seeds);
            }
            lr *= train.lr_gamma;
        }
        model
    }

    // lint: no-alloc
    #[allow(clippy::too_many_arguments)]
    fn train_batch(
        &mut self,
        batch: &[usize],
        dataset: &Dataset,
        augment: &dyn Augment,
        train: &TrainConfig,
        lr: f64,
        ws: &mut TrainWorkspace,
        seeds: &mut TrainSeeds,
    ) {
        // (No gradient zeroing pass: the batched gradient kernel below
        // overwrites every gw row and gb entry each batch.)
        // A no-op augmentation (the common case) draws nothing from the
        // RNG, so skipping the virtual call per example is stream-exact.
        let aug_noop = augment.is_noop();

        // Draw every dropout mask for the batch in one tight pass. The
        // draw order (per example, then per hidden layer, then per unit)
        // is exactly the order the per-example loop consumed the stream
        // in, so the masks are draw-for-draw identical — but the RNG
        // state stays in registers here instead of spilling on every
        // 16-draw burst between forward kernels (~5x faster per draw).
        if train.dropout > 0.0 {
            let keep = 1.0 - train.dropout;
            let inv_keep = 1.0 / keep;
            let n_hidden = self.layers.len() - 1;
            for s in 0..batch.len() {
                for l in 0..n_hidden {
                    let d = self.layers[l].out_dim;
                    for m in ws.masks[l][s * d..(s + 1) * d].iter_mut() {
                        *m = if seeds.dropout.next_f64() < keep {
                            inv_keep
                        } else {
                            0.0
                        };
                    }
                }
            }
        }

        let b = batch.len();
        let nl = self.layers.len();

        // Stage (and augment) every input row for the batch — the augment
        // stream is consumed in example order, exactly as the per-example
        // loop consumed it.
        let in_dim = self.in_dim;
        for (si, &i) in batch.iter().enumerate() {
            let row = &mut ws.xb[si * in_dim..(si + 1) * in_dim];
            row.copy_from_slice(dataset.x(i));
            if !aug_noop {
                augment.augment(row, &mut seeds.augment);
            }
        }

        // Forward, layer-major over the whole batch through the true
        // batch-GEMM kernels: four example rows advance together, sharing
        // every weight load. Each example's chain of per-element
        // operations is untouched — batching only reorders work across
        // *independent* examples — so every activation is bit-identical
        // to the example-at-a-time loop (pinned by the golden tests in
        // `crates/linalg/tests/kernel_identity.rs`).
        for l in 0..nl {
            let layer = &self.layers[l];
            let (d_in, d_out) = (layer.in_dim, layer.out_dim);
            let (ab_lo, ab_hi) = ws.ab.split_at_mut(l);
            let input: &[f64] = if l == 0 {
                &ws.xb[..b * d_in]
            } else {
                &ab_lo[l - 1][..b * d_in]
            };
            let out_all = &mut ab_hi[0];
            layer.forward_batch_into(input, &mut out_all[..b * d_out]);
            if l < nl - 1 {
                // ReLU in select form over the whole batch slab: one
                // branch-free vector pass (ReLU sign patterns are
                // data-dependent and would mispredict as branches).
                // `-0.0` inputs keep their bits, like the seed's `< 0.0`
                // branch.
                let slab = &mut out_all[..b * d_out];
                for a in slab.iter_mut() {
                    *a = if *a < 0.0 { 0.0 } else { *a };
                }
                // Inverted dropout: the batch-drawn masks share the slab's
                // example-major layout, so this is one contiguous pass.
                if train.dropout > 0.0 {
                    for (a, &m) in slab.iter_mut().zip(&ws.masks[l][..b * d_out]) {
                        *a *= m;
                    }
                }
            }
        }

        // Output deltas dLoss/dLogits, one row per example.
        let last = nl - 1;
        let d_last = self.out_dim;
        for (si, &i) in batch.iter().enumerate() {
            let out = &ws.ab[last][si * d_last..(si + 1) * d_last];
            let delta = &mut ws.db[last][si * d_last..(si + 1) * d_last];
            match self.head {
                Head::Softmax => {
                    softmax_row(out, delta);
                    delta[dataset.label(i)] -= 1.0;
                }
                Head::SigmoidBce => {
                    for ((dst, z), y) in delta.iter_mut().zip(out).zip(dataset.mask(i)) {
                        *dst = 1.0 / (1.0 + (-z).exp()) - y;
                    }
                }
                Head::Mse => delta[0] = out[0] - dataset.value(i),
            }
        }

        // Backward, layer-major. ReLU gating makes the zero patterns of
        // the deltas irregular, so `if d != 0.0` branches inside row loops
        // mispredict badly; every skip below is driven by a branch-free
        // index compaction instead (`nnz` advances by a bool cast, never
        // a jump). The skips themselves are load-bearing for bit-identity:
        // a diverged training can hold ∞ activations, and 0·∞ would poison
        // the gradient with NaN where the seed code skipped the term.
        for l in (0..nl).rev() {
            let layer = &self.layers[l];
            let (d_in, d_out) = (layer.in_dim, layer.out_dim);
            // Compact each output column's non-zero example list in one
            // branch-free sweep (the cursor advances by a bool cast,
            // never a jump). Walking output-major keeps the cursor in a
            // register; the strided reads hit the L1-resident slab.
            let db_l = &ws.db[l];
            for o in 0..d_out {
                let nzrow = &mut ws.nzs[o * b..(o + 1) * b];
                let mut c = 0;
                for si in 0..b {
                    nzrow[c] = si;
                    c += usize::from(db_l[si * d_out + o] != 0.0);
                }
                ws.nnzs[o] = c;
            }
            // Gradients for layer l: gw[o] = Σ_examples delta[o] ⊗ act,
            // one `gemm_col_nz_into` call per output row, reading the
            // deltas strided straight from the example-major slab (no
            // transposed copy) with the gradient row held in registers
            // across the whole batch — instead of paying a gw load/store
            // per contributing example (the axpy formulation's cost).
            // Per element the accumulation is still ascending-example
            // with zero deltas skipped — exactly the order (and the
            // adds) of the example-at-a-time loop.
            let act: &[f64] = if l == 0 { &ws.xb } else { &ws.ab[l - 1] };
            let gw = &mut ws.gw[l];
            let gb = &mut ws.gb[l];
            for o in 0..d_out {
                let idx = &ws.nzs[o * b..o * b + ws.nnzs[o]];
                gb[o] = gemm_col_nz_into(
                    db_l,
                    d_out,
                    o,
                    idx,
                    act,
                    d_in,
                    &mut gw[o * d_in..(o + 1) * d_in],
                );
            }
            // Delta for the layer below (if any): Wᵀ delta per example,
            // gated by ReLU' and the dropout mask.
            if l > 0 {
                let (db_lo, db_hi) = ws.db.split_at_mut(l);
                let below_all = &mut db_lo[l - 1];
                let delta_all = &db_hi[0][..b * d_out];
                let act_below = &ws.ab[l - 1];
                // Wᵀ·delta without materializing the transpose. The
                // zero-delta skip exists because 0·∞ would poison a
                // diverged gradient with NaN (and an explicit +0.0 term
                // can flip a -0.0 partial sum) — but when the slab holds
                // no exact zero there is nothing to skip, and the dense
                // batch GEMM produces the same ascending-delta adds.
                // Top-layer deltas (softmax/sigmoid/MSE residuals) are
                // zero-free outside saturation, so the batched kernel is
                // the common case; ReLU-gated hidden deltas take the
                // per-example sparse path. The dispatch reads only data
                // whose zero pattern already decides which terms exist,
                // so it can never change a value.
                let any_zero = delta_all.iter().fold(false, |z, &d| z | (d == 0.0));
                if !any_zero {
                    // layer.w is `d_out × d_in` row-major, which is
                    // exactly the input-major layout gemm_rows_into
                    // streams: below = Δ · W.
                    gemm_rows_into(delta_all, &layer.w, &[], d_in, &mut below_all[..b * d_in]);
                }
                for si in 0..b {
                    let delta = &delta_all[si * d_out..(si + 1) * d_out];
                    let below = &mut below_all[si * d_in..(si + 1) * d_in];
                    if any_zero {
                        let nnz = compact_nonzero(delta, &mut ws.nz);
                        vecmat_nz_into(delta, &ws.nz[..nnz], &layer.w, d_in, below);
                    }
                    let arow = &act_below[si * d_in..(si + 1) * d_in];
                    // ReLU'/dropout gate in select form (branch-free; the
                    // selected values are exactly what the branchy version
                    // produced). `arow` already includes the dropout mask,
                    // so a dropped unit has activation 0 and passes no
                    // gradient.
                    if train.dropout > 0.0 {
                        let mrow = &ws.masks[l - 1][si * d_in..(si + 1) * d_in];
                        for ((bv, &a), &m) in below.iter_mut().zip(arow).zip(mrow) {
                            *bv = if a <= 0.0 { 0.0 } else { *bv * m };
                        }
                    } else {
                        for (bv, &a) in below.iter_mut().zip(arow) {
                            *bv = if a <= 0.0 { 0.0 } else { *bv };
                        }
                    }
                }
            }
        }

        // SGD update with momentum, weight decay, and optional noise. The
        // noise branch is hoisted out of the elementwise loops so the
        // (common) noiseless path autovectorizes. With noise, each update
        // loop first draws its deviates in one `fill_normal` call, one per
        // weight and then one per bias: the stream order, and the bits, of
        // one `normal` draw per element inside the loops.
        let scale = 1.0 / batch.len() as f64;
        for (l, layer) in self.layers.iter_mut().enumerate() {
            let (gw, vw) = (&ws.gw[l], &mut ws.vw[l]);
            if train.grad_noise > 0.0 {
                let noise = &mut ws.noise[..layer.w.len()];
                seeds.noise.fill_normal(0.0, train.grad_noise, noise);
                for (((w, &g0), v), &e) in
                    layer.w.iter_mut().zip(gw).zip(vw.iter_mut()).zip(&*noise)
                {
                    let g = g0 * scale + train.weight_decay * *w + e;
                    let vn = train.momentum * *v - lr * g;
                    *v = vn;
                    *w += vn;
                }
            } else {
                for ((w, &g0), v) in layer.w.iter_mut().zip(gw).zip(vw.iter_mut()) {
                    let g = g0 * scale + train.weight_decay * *w;
                    let vn = train.momentum * *v - lr * g;
                    *v = vn;
                    *w += vn;
                }
            }
            let (gb, vb) = (&ws.gb[l], &mut ws.vb[l]);
            if train.grad_noise > 0.0 {
                let noise = &mut ws.noise[..layer.b.len()];
                seeds.noise.fill_normal(0.0, train.grad_noise, noise);
                for (((b, &g0), v), &e) in
                    layer.b.iter_mut().zip(gb).zip(vb.iter_mut()).zip(&*noise)
                {
                    let g = g0 * scale + e;
                    let vn = train.momentum * *v - lr * g;
                    *v = vn;
                    *b += vn;
                }
            } else {
                for ((b, &g0), v) in layer.b.iter_mut().zip(gb).zip(vb.iter_mut()) {
                    let g = g0 * scale;
                    let vn = train.momentum * *v - lr * g;
                    *v = vn;
                    *b += vn;
                }
            }
            layer.sync_wt();
        }
    }

    /// The output head.
    pub fn head(&self) -> Head {
        self.head
    }

    /// L2 norm of all connection weights (biases excluded) — a diagnostic
    /// for regularization studies.
    pub fn weight_norm(&self) -> f64 {
        self.layers
            .iter()
            .flat_map(|l| l.w.iter())
            .map(|w| w * w)
            .sum::<f64>()
            .sqrt()
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Raw output logits for input `x` (no dropout).
    ///
    /// Allocates fresh buffers per call; evaluation loops should prefer
    /// [`Mlp::logits_into`] with a reused [`PredictBuffer`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn logits(&self, x: &[f64]) -> Vec<f64> {
        let mut buf = PredictBuffer::new();
        self.logits_into(x, &mut buf);
        buf.cur
    }

    /// Raw output logits for input `x` (no dropout), computed into a
    /// caller-provided scratch buffer — zero heap allocations once the
    /// buffer is warm. Returns the logits slice borrowed from the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn logits_into<'a>(&self, x: &[f64], buf: &'a mut PredictBuffer) -> &'a [f64] {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        buf.cur.clear();
        buf.cur.extend_from_slice(x);
        for (l, layer) in self.layers.iter().enumerate() {
            layer.forward(&buf.cur, &mut buf.next);
            if l < self.layers.len() - 1 {
                for a in buf.next.iter_mut() {
                    if *a < 0.0 {
                        *a = 0.0;
                    }
                }
            }
            std::mem::swap(&mut buf.cur, &mut buf.next);
        }
        &buf.cur
    }

    /// Predicted class (argmax of logits).
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::Softmax`].
    pub fn predict_class(&self, x: &[f64]) -> usize {
        self.predict_class_with(x, &mut PredictBuffer::new())
    }

    /// [`Mlp::predict_class`] with a reused scratch buffer (no
    /// allocation once warm) — the evaluation hot path.
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::Softmax`].
    pub fn predict_class_with(&self, x: &[f64], buf: &mut PredictBuffer) -> usize {
        assert_eq!(
            self.head,
            Head::Softmax,
            "predict_class requires a softmax head"
        );
        argmax(self.logits_into(x, buf))
    }

    /// Class probabilities (softmax of logits).
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::Softmax`].
    pub fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            self.head,
            Head::Softmax,
            "predict_proba requires a softmax head"
        );
        let logits = self.logits(x);
        let mut out = Vec::with_capacity(logits.len());
        softmax_into(&logits, &mut out);
        out
    }

    /// Per-cell mask probabilities (sigmoid of logits).
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::SigmoidBce`].
    pub fn predict_mask(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.predict_mask_into(x, &mut PredictBuffer::new(), &mut out);
        out
    }

    /// [`Mlp::predict_mask`] into reused scratch and output buffers (no
    /// allocation once warm).
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::SigmoidBce`].
    pub fn predict_mask_into(&self, x: &[f64], buf: &mut PredictBuffer, out: &mut Vec<f64>) {
        assert_eq!(
            self.head,
            Head::SigmoidBce,
            "predict_mask requires a sigmoid head"
        );
        let logits = self.logits_into(x, buf);
        out.clear();
        out.extend(logits.iter().map(|z| 1.0 / (1.0 + (-z).exp())));
    }

    /// Regression prediction.
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::Mse`].
    pub fn predict_value(&self, x: &[f64]) -> f64 {
        self.predict_value_with(x, &mut PredictBuffer::new())
    }

    /// [`Mlp::predict_value`] with a reused scratch buffer (no allocation
    /// once warm).
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::Mse`].
    pub fn predict_value_with(&self, x: &[f64], buf: &mut PredictBuffer) -> f64 {
        assert_eq!(self.head, Head::Mse, "predict_value requires an MSE head");
        self.logits_into(x, buf)[0]
    }

    /// [`Mlp::predict_proba`] into reused scratch and output buffers (no
    /// allocation once warm).
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::Softmax`].
    pub fn predict_proba_into(&self, x: &[f64], buf: &mut PredictBuffer, out: &mut Vec<f64>) {
        assert_eq!(
            self.head,
            Head::Softmax,
            "predict_proba requires a softmax head"
        );
        let logits = self.logits_into(x, buf);
        softmax_into(logits, out);
    }

    /// Batched forward pass over `n` input rows: the inference analog of
    /// the training slab loop. `stage(si, row)` fills input row `si`
    /// (length `in_dim`); rows then advance through the network layer by
    /// layer via the same batch-GEMM kernels training uses
    /// ([`gemm_rows_into`] / [`gemm_transb_into`] above the
    /// `COLS_KERNEL_MIN_OUT` shape threshold, per-example matvec tails
    /// below it). Returns the `n × out_dim` logit slab borrowed from the
    /// workspace.
    ///
    /// Per output element the accumulation order is exactly that of
    /// [`Mlp::logits_into`] — batching only interleaves *independent*
    /// example chains — so every logit is bit-identical to the
    /// example-at-a-time path (pinned by `tests/batch_identity.rs`).
    /// Allocation-free once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    // lint: no-alloc
    pub fn logits_batch_into<'a>(
        &self,
        n: usize,
        mut stage: impl FnMut(usize, &mut [f64]),
        ws: &'a mut EvalWorkspace,
    ) -> &'a [f64] {
        assert!(n > 0, "cannot run a batched forward over zero examples");
        let in_dim = self.in_dim;
        ws.xb.resize(n * in_dim, 0.0);
        for si in 0..n {
            stage(si, &mut ws.xb[si * in_dim..(si + 1) * in_dim]);
        }
        let nl = self.layers.len();
        for (l, layer) in self.layers.iter().enumerate() {
            let (d_in, d_out) = (layer.in_dim, layer.out_dim);
            ws.next.resize(n * d_out, 0.0);
            let input: &[f64] = if l == 0 {
                &ws.xb[..n * d_in]
            } else {
                &ws.cur[..n * d_in]
            };
            layer.forward_batch_into(input, &mut ws.next[..n * d_out]);
            if l < nl - 1 {
                // ReLU in select form over the whole slab — bit-identical
                // to the per-example branch form (see `train_batch`).
                for a in ws.next[..n * d_out].iter_mut() {
                    *a = if *a < 0.0 { 0.0 } else { *a };
                }
            }
            std::mem::swap(&mut ws.cur, &mut ws.next);
        }
        &ws.cur[..n * self.out_dim]
    }

    /// Batched [`Mlp::predict_class_with`]: argmax per logit row of a
    /// [`Mlp::logits_batch_into`] pass, written into `out` (resized to
    /// `n`). Allocation-free once buffers are warm.
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::Softmax`] or `n == 0`.
    // lint: no-alloc
    pub fn predict_classes_batch_into(
        &self,
        n: usize,
        stage: impl FnMut(usize, &mut [f64]),
        ws: &mut EvalWorkspace,
        out: &mut Vec<usize>,
    ) {
        assert_eq!(
            self.head,
            Head::Softmax,
            "predict_class requires a softmax head"
        );
        out.clear();
        out.resize(n, 0);
        let m = self.out_dim;
        let logits = self.logits_batch_into(n, stage, ws);
        for (si, slot) in out.iter_mut().enumerate() {
            *slot = argmax(&logits[si * m..(si + 1) * m]);
        }
    }

    /// Batched [`Mlp::predict_value_with`]: one regression output per
    /// row, written into `out` (resized to `n`). Allocation-free once
    /// buffers are warm.
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::Mse`] or `n == 0`.
    // lint: no-alloc
    pub fn predict_values_batch_into(
        &self,
        n: usize,
        stage: impl FnMut(usize, &mut [f64]),
        ws: &mut EvalWorkspace,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(self.head, Head::Mse, "predict_value requires an MSE head");
        out.clear();
        out.resize(n, 0.0);
        let m = self.out_dim;
        let logits = self.logits_batch_into(n, stage, ws);
        for (si, slot) in out.iter_mut().enumerate() {
            *slot = logits[si * m];
        }
    }

    /// Batched [`Mlp::predict_mask_into`]: sigmoid over every logit of a
    /// batched forward pass. Returns the `n × out_dim` probability slab
    /// borrowed from the workspace (row `si` is example `si`'s mask).
    /// Allocation-free once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::SigmoidBce`] or `n == 0`.
    // lint: no-alloc
    pub fn predict_masks_batch_into<'a>(
        &self,
        n: usize,
        stage: impl FnMut(usize, &mut [f64]),
        ws: &'a mut EvalWorkspace,
    ) -> &'a [f64] {
        assert_eq!(
            self.head,
            Head::SigmoidBce,
            "predict_mask requires a sigmoid head"
        );
        self.logits_batch_into(n, stage, ws);
        let len = n * self.out_dim;
        ws.out.resize(len, 0.0);
        // Same per-element expression as `predict_mask_into`, in the same
        // ascending order.
        for (p, z) in ws.out[..len].iter_mut().zip(&ws.cur[..len]) {
            *p = 1.0 / (1.0 + (-z).exp());
        }
        &ws.out[..len]
    }

    /// Batched [`Mlp::predict_proba`]: softmax per logit row of a batched
    /// forward pass. Returns the `n × out_dim` probability slab borrowed
    /// from the workspace. Allocation-free once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Panics if the head is not [`Head::Softmax`] or `n == 0`.
    // lint: no-alloc
    pub fn predict_proba_batch_into<'a>(
        &self,
        n: usize,
        stage: impl FnMut(usize, &mut [f64]),
        ws: &'a mut EvalWorkspace,
    ) -> &'a [f64] {
        assert_eq!(
            self.head,
            Head::Softmax,
            "predict_proba requires a softmax head"
        );
        self.logits_batch_into(n, stage, ws);
        let m = self.out_dim;
        ws.out.resize(n * m, 0.0);
        softmax_rows(&ws.cur[..n * m], m, &mut ws.out[..n * m]);
        &ws.out[..n * m]
    }
}

/// Reusable inference scratch for the `Mlp::*_with` prediction methods.
///
/// Holds the two ping-pong activation buffers a forward pass needs; after
/// the first prediction both have reached the network's maximum layer
/// width and every further call is allocation-free. Create one per
/// evaluation loop (or per worker thread) and pass it to
/// [`Mlp::predict_class_with`] / [`Mlp::predict_mask_into`] /
/// [`Mlp::predict_value_with`] / [`Mlp::logits_into`].
#[derive(Debug, Clone, Default)]
pub struct PredictBuffer {
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl PredictBuffer {
    /// Creates an empty buffer (it warms up on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable batched-inference scratch for the `Mlp::*_batch_into`
/// prediction methods: staged input rows plus the ping-pong activation
/// slabs and head-output slab a batched forward pass needs.
///
/// Buffers grow to the largest `n × width` seen and are then reused in
/// place, so after the first batch every further call is allocation-free
/// (verified by the allocation-count test in
/// `tests/alloc_count_eval.rs`). Create one per evaluation loop (or per
/// worker thread) and pass it to [`Mlp::logits_batch_into`] /
/// [`Mlp::predict_classes_batch_into`] / [`Mlp::predict_masks_batch_into`]
/// / [`Mlp::predict_values_batch_into`] / [`Mlp::predict_proba_batch_into`].
#[derive(Debug, Clone, Default)]
pub struct EvalWorkspace {
    /// Staged input rows, `n × in_dim` example-major.
    xb: Vec<f64>,
    /// Ping-pong activation slabs (`n × width` each).
    cur: Vec<f64>,
    next: Vec<f64>,
    /// Head outputs (softmax / sigmoid probabilities), `n × out_dim`.
    out: Vec<f64>,
}

impl EvalWorkspace {
    /// Creates an empty workspace (it warms up on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

fn softmax_into(logits: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.resize(logits.len(), 0.0);
    softmax_row(logits, out);
}

/// Softmax into an equal-length slice: max-shift, exponentiate, normalize
/// — each pass in ascending index order (the op sequence of the seed
/// implementation, so results are bit-identical).
///
/// A row of two finite logits takes one `exp`: the larger logit's shift
/// `z - max` is exactly ±0.0 and `exp(±0.0)` is exactly 1, so only the
/// smaller one's is evaluated. The sum and the divides are the loop's
/// own (its `sum` starts from a zero that adds exactly), so every bit is
/// the same.
fn softmax_row(logits: &[f64], out: &mut [f64]) {
    if let ([z0, z1], [p0, p1]) = (logits, &mut *out) {
        if z0.is_finite() && z1.is_finite() {
            let (e0, e1) = if z0 >= z1 {
                (1.0, (z1 - z0).exp())
            } else {
                ((z0 - z1).exp(), 1.0)
            };
            let total = e0 + e1;
            *p0 = e0 / total;
            *p1 = e1 / total;
            return;
        }
    }
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (p, z) in out.iter_mut().zip(logits) {
        *p = (z - max).exp();
    }
    let total: f64 = out.iter().sum();
    for p in out.iter_mut() {
        *p /= total;
    }
}

/// Softmax over `m`-wide rows: [`softmax_row`] applied per row, so each
/// row's max-shift / exponentiate / normalize passes run in exactly the
/// per-example order (bit-identical to calling [`softmax_row`] yourself).
// lint: no-alloc
fn softmax_rows(logits: &[f64], m: usize, out: &mut [f64]) {
    for (lrow, orow) in logits.chunks_exact(m).zip(out.chunks_exact_mut(m)) {
        softmax_row(lrow, orow);
    }
}

pub(crate) fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbench_data::augment::{GaussianJitter, Identity};
    use varbench_data::synth::{self, BinaryOverlapConfig, GaussianMixtureConfig};

    fn seeds(root: u64) -> TrainSeeds {
        TrainSeeds::from_tree(&SeedTree::new(root))
    }

    fn accuracy_of(mlp: &Mlp, ds: &Dataset) -> f64 {
        let correct = (0..ds.len())
            .filter(|&i| mlp.predict_class(ds.x(i)) == ds.label(i))
            .count();
        correct as f64 / ds.len() as f64
    }

    #[test]
    fn learns_linearly_separable_task() {
        let mut rng = Rng::seed_from_u64(1);
        let ds = synth::binary_overlap(
            &BinaryOverlapConfig {
                separation: 5.0,
                n: 400,
                ..Default::default()
            },
            &mut rng,
        );
        let mlp = Mlp::train(
            &MlpConfig::default(),
            &TrainConfig {
                epochs: 15,
                ..Default::default()
            },
            &ds,
            &Identity,
            &mut seeds(1),
        );
        let acc = accuracy_of(&mlp, &ds);
        assert!(acc > 0.95, "train accuracy {acc}");
    }

    #[test]
    fn learns_xor_with_hidden_layer() {
        // XOR is not linearly separable; a hidden layer must solve it.
        let mut features = Vec::new();
        let mut labels = Vec::new();
        let mut rng = Rng::seed_from_u64(2);
        for _ in 0..400 {
            let a = rng.bernoulli(0.5);
            let b = rng.bernoulli(0.5);
            features.push(if a { 1.0 } else { -1.0 } + rng.normal(0.0, 0.1));
            features.push(if b { 1.0 } else { -1.0 } + rng.normal(0.0, 0.1));
            labels.push(usize::from(a != b));
        }
        let ds = Dataset::new(
            features,
            2,
            Targets::Labels {
                labels,
                num_classes: 2,
            },
        );
        let mlp = Mlp::train(
            &MlpConfig {
                hidden: vec![16],
                ..Default::default()
            },
            &TrainConfig {
                epochs: 60,
                learning_rate: 0.1,
                ..Default::default()
            },
            &ds,
            &Identity,
            &mut seeds(2),
        );
        let acc = accuracy_of(&mlp, &ds);
        assert!(acc > 0.95, "XOR accuracy {acc}");
    }

    #[test]
    fn multiclass_mixture_learnable() {
        let mut rng = Rng::seed_from_u64(3);
        let ds = synth::gaussian_mixture(
            &GaussianMixtureConfig {
                num_classes: 5,
                n_per_class: 80,
                class_sep: 5.0,
                ..Default::default()
            },
            &mut rng,
        );
        let mlp = Mlp::train(
            &MlpConfig::default(),
            &TrainConfig {
                epochs: 25,
                ..Default::default()
            },
            &ds,
            &Identity,
            &mut seeds(3),
        );
        let acc = accuracy_of(&mlp, &ds);
        assert!(acc > 0.9, "5-class accuracy {acc}");
    }

    #[test]
    fn regression_fits_values() {
        let mut rng = Rng::seed_from_u64(4);
        // y = sigmoid(2 x0): smooth monotone target.
        let mut features = Vec::new();
        let mut values = Vec::new();
        for _ in 0..500 {
            let x = rng.normal(0.0, 1.0);
            features.push(x);
            values.push(1.0 / (1.0 + (-2.0 * x).exp()));
        }
        let ds = Dataset::new(features, 1, Targets::Values(values));
        let mlp = Mlp::train(
            &MlpConfig {
                hidden: vec![16],
                ..Default::default()
            },
            &TrainConfig {
                epochs: 60,
                learning_rate: 0.1,
                weight_decay: 0.0,
                ..Default::default()
            },
            &ds,
            &Identity,
            &mut seeds(4),
        );
        let mse: f64 = (0..ds.len())
            .map(|i| (mlp.predict_value(ds.x(i)) - ds.value(i)).powi(2))
            .sum::<f64>()
            / ds.len() as f64;
        assert!(mse < 0.01, "regression MSE {mse}");
    }

    #[test]
    fn mask_head_learns_latent_structure() {
        let mut rng = Rng::seed_from_u64(5);
        let ds = synth::mask_task(
            &synth::MaskTaskConfig {
                n: 400,
                feature_noise: 0.2,
                ..Default::default()
            },
            &mut rng,
        );
        let mlp = Mlp::train(
            &MlpConfig {
                hidden: vec![48],
                ..Default::default()
            },
            &TrainConfig {
                epochs: 60,
                learning_rate: 0.02,
                weight_decay: 1e-5,
                ..Default::default()
            },
            &ds,
            &Identity,
            &mut seeds(5),
        );
        // Per-cell accuracy must clearly beat chance.
        let mut correct = 0usize;
        let mut total = 0usize;
        for i in 0..ds.len() {
            let pred = mlp.predict_mask(ds.x(i));
            for (p, y) in pred.iter().zip(ds.mask(i)) {
                if (*p > 0.5) == (*y > 0.5) {
                    correct += 1;
                }
                total += 1;
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.75, "mask cell accuracy {acc}");
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let mut rng = Rng::seed_from_u64(6);
        let ds = synth::binary_overlap(&BinaryOverlapConfig::default(), &mut rng);
        let cfg = MlpConfig::default();
        let tc = TrainConfig {
            epochs: 3,
            dropout: 0.2,
            ..Default::default()
        };
        let a = Mlp::train(&cfg, &tc, &ds, &GaussianJitter::new(0.05), &mut seeds(7));
        let b = Mlp::train(&cfg, &tc, &ds, &GaussianJitter::new(0.05), &mut seeds(7));
        assert_eq!(a, b, "same seeds must give bit-identical models");
    }

    #[test]
    fn each_seed_stream_changes_the_outcome() {
        let mut rng = Rng::seed_from_u64(8);
        let ds = synth::binary_overlap(&BinaryOverlapConfig::default(), &mut rng);
        let cfg = MlpConfig::default();
        let tc = TrainConfig {
            epochs: 3,
            dropout: 0.2,
            ..Default::default()
        };
        let base = Mlp::train(&cfg, &tc, &ds, &GaussianJitter::new(0.05), &mut seeds(9));
        // Vary exactly one stream at a time.
        for (label, which) in [("init", 0), ("order", 1), ("dropout", 2), ("augment", 3)] {
            let tree = SeedTree::new(9);
            let other = SeedTree::new(10_000);
            let mut s = TrainSeeds::from_tree(&tree);
            match which {
                0 => s.init = other.rng("weights_init"),
                1 => s.order = other.rng("data_order"),
                2 => s.dropout = other.rng("dropout"),
                3 => s.augment = other.rng("data_augment"),
                _ => unreachable!(),
            }
            let variant = Mlp::train(&cfg, &tc, &ds, &GaussianJitter::new(0.05), &mut s);
            assert_ne!(
                base, variant,
                "varying the {label} seed must change the model"
            );
        }
    }

    #[test]
    fn grad_noise_breaks_determinism_across_noise_seeds() {
        let mut rng = Rng::seed_from_u64(11);
        let ds = synth::binary_overlap(&BinaryOverlapConfig::default(), &mut rng);
        let tc = TrainConfig {
            epochs: 2,
            grad_noise: 1e-4,
            ..Default::default()
        };
        let base = Mlp::train(&MlpConfig::default(), &tc, &ds, &Identity, &mut seeds(12));
        let mut s = seeds(12);
        s.noise = SeedTree::new(999).rng("numerical_noise");
        let variant = Mlp::train(&MlpConfig::default(), &tc, &ds, &Identity, &mut s);
        assert_ne!(base, variant);
    }

    #[test]
    fn linear_model_with_empty_hidden() {
        let mut rng = Rng::seed_from_u64(13);
        let ds = synth::binary_overlap(
            &BinaryOverlapConfig {
                separation: 4.0,
                ..Default::default()
            },
            &mut rng,
        );
        let mlp = Mlp::train(
            &MlpConfig {
                hidden: vec![],
                ..Default::default()
            },
            &TrainConfig {
                epochs: 10,
                ..Default::default()
            },
            &ds,
            &Identity,
            &mut seeds(14),
        );
        assert!(accuracy_of(&mlp, &ds) > 0.9);
    }

    #[test]
    fn proba_sums_to_one() {
        let mut rng = Rng::seed_from_u64(15);
        let ds = synth::gaussian_mixture(&GaussianMixtureConfig::default(), &mut rng);
        let mlp = Mlp::train(
            &MlpConfig::default(),
            &TrainConfig {
                epochs: 1,
                ..Default::default()
            },
            &ds,
            &Identity,
            &mut seeds(16),
        );
        let p = mlp.predict_proba(ds.x(0));
        assert_eq!(p.len(), 10);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "dropout must be in [0,1)")]
    fn invalid_dropout_rejected() {
        let mut rng = Rng::seed_from_u64(17);
        let ds = synth::binary_overlap(&BinaryOverlapConfig::default(), &mut rng);
        Mlp::train(
            &MlpConfig::default(),
            &TrainConfig {
                dropout: 1.0,
                ..Default::default()
            },
            &ds,
            &Identity,
            &mut seeds(18),
        );
    }

    /// The softmax row as first written: fold the max, `exp` each shift,
    /// sum in index order, divide.
    fn seed_softmax(logits: &[f64]) -> Vec<f64> {
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|z| (z - max).exp()).collect();
        let total: f64 = exps.iter().sum();
        exps.iter().map(|e| e / total).collect()
    }

    #[test]
    fn softmax_row_matches_the_seed_formula_bit_for_bit() {
        // Ties, signed zeros, shifts past exp's underflow (< -745),
        // differences that overflow to -inf, infinities and NaN.
        const SPECIAL: [f64; 14] = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            745.5,
            -745.5,
            800.0,
            -800.0,
            1e308,
            -1e308,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let check = |logits: &[f64]| {
            let mut out = vec![0.0; logits.len()];
            softmax_row(logits, &mut out);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&seed_softmax(logits)), "{logits:?}");
        };
        for a in SPECIAL {
            for b in SPECIAL {
                check(&[a, b]);
            }
        }
        check(&[3.5; 10]);
        check(&[-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0]);
        check(&[1e308, -1e308, 0.0, -800.0, 2.0, 2.0, -0.0, 1.0, -1.0, 5.0]);
        check(&[f64::NAN, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        check(&[f64::INFINITY, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        check(&[
            f64::NEG_INFINITY,
            0.0,
            1.0,
            2.0,
            3.0,
            4.0,
            5.0,
            6.0,
            7.0,
            8.0,
        ]);
        varbench_rng::sweep::sweep("softmax_row_seed_formula", 2_000, |case| {
            let width = if case.usize_in(0, 2) == 0 { 2 } else { 10 };
            let scale = [1.0, 40.0, 1_000.0][case.usize_in(0, 3)];
            let mut row = case.f64s(-scale, scale, width);
            // Now and then a special value, or a copy of a neighbour for
            // a tie.
            for j in 0..width {
                match case.usize_in(0, 8) {
                    0 => row[j] = SPECIAL[case.usize_in(0, SPECIAL.len())],
                    1 => row[j] = row[case.usize_in(0, width)],
                    _ => {}
                }
            }
            check(&row);
        });
    }
}
