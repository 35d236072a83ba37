//! Performance metrics used by the case studies.

use varbench_data::Dataset;
use varbench_models::{metrics, EvalWorkspace, Mlp};

/// Examples per evaluation work unit.
///
/// Each chunk stages its examples into one [`EvalWorkspace`] and scores
/// them with a single batched forward pass through the batch-GEMM kernels
/// (allocation-free once the workspace slabs are warm). The batched
/// kernels preserve each example's per-element accumulation order, so
/// they are bit-identical to the per-example forward path.
const EVAL_CHUNK: usize = 64;

thread_local! {
    /// Per-thread batched-eval scratch, reused across chunks and across
    /// [`MetricKind::evaluate`] calls. Every slab is fully overwritten by
    /// the batched pass that uses it, so reuse cannot change a result —
    /// it only removes the per-chunk allocate-and-zero round trip from
    /// the measurement hot loop (fields: forward workspace, class
    /// buffer, value buffer).
    static EVAL_SCRATCH: std::cell::RefCell<(EvalWorkspace, Vec<usize>, Vec<f64>)> =
        std::cell::RefCell::new((EvalWorkspace::new(), Vec::new(), Vec::new()));
}

/// Which metric a case study reports — the `e` of the paper's
/// `R̂_e(h, S)`. All metrics here are oriented *higher is better*; HPO
/// minimizes `1 − metric`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Classification accuracy (CIFAR10, GLUE tasks).
    Accuracy,
    /// Mean intersection-over-union of predicted masks (PascalVOC analog).
    MeanIou,
    /// ROC-AUC of a regression score against binarized targets (MHC
    /// analog; binding threshold 0.5 as in normalized-affinity convention).
    Auc,
}

impl MetricKind {
    /// Display name of the metric.
    pub fn name(&self) -> &'static str {
        match self {
            MetricKind::Accuracy => "accuracy",
            MetricKind::MeanIou => "mean IoU",
            MetricKind::Auc => "AUC",
        }
    }

    /// Evaluates a trained model on the pool examples given by `indices`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or the model head does not match the
    /// dataset's targets.
    pub fn evaluate(&self, model: &Mlp, pool: &Dataset, indices: &[usize]) -> f64 {
        assert!(!indices.is_empty(), "cannot evaluate on an empty set");
        let n = indices.len();
        let chunks = n.div_ceil(EVAL_CHUNK);
        let chunk_of = |c: usize| &indices[c * EVAL_CHUNK..((c + 1) * EVAL_CHUNK).min(n)];
        match self {
            MetricKind::Accuracy => {
                // Exact integer hit counts sum associatively, so per-chunk
                // counting gives the same accuracy as per-example mapping.
                let hits: usize = (0..chunks)
                    .map(|c| {
                        let idx = chunk_of(c);
                        EVAL_SCRATCH.with(|s| {
                            let (ws, classes, _) = &mut *s.borrow_mut();
                            model.predict_classes_batch_into(
                                idx.len(),
                                |si, row| row.copy_from_slice(pool.x(idx[si])),
                                ws,
                                classes,
                            );
                            classes
                                .iter()
                                .zip(idx)
                                .filter(|&(&c, &i)| c == pool.label(i))
                                .count()
                        })
                    })
                    .sum();
                hits as f64 / n as f64
            }
            MetricKind::MeanIou => {
                // Per-example IoUs are summed in index order — the same
                // reduction order as `mean_iou`.
                let iou_sum: f64 = (0..chunks)
                    .flat_map(|c| {
                        let idx = chunk_of(c);
                        EVAL_SCRATCH.with(|s| {
                            let (ws, _, _) = &mut *s.borrow_mut();
                            let masks = model.predict_masks_batch_into(
                                idx.len(),
                                |si, row| row.copy_from_slice(pool.x(idx[si])),
                                ws,
                            );
                            let m = masks.len() / idx.len();
                            idx.iter()
                                .enumerate()
                                .map(|(si, &i)| {
                                    metrics::mask_iou(&masks[si * m..(si + 1) * m], pool.mask(i))
                                })
                                .collect::<Vec<f64>>()
                        })
                    })
                    .sum();
                iou_sum / n as f64
            }
            MetricKind::Auc => {
                let scores: Vec<f64> = (0..chunks)
                    .flat_map(|c| {
                        let idx = chunk_of(c);
                        EVAL_SCRATCH.with(|s| {
                            let (ws, _, vals) = &mut *s.borrow_mut();
                            model.predict_values_batch_into(
                                idx.len(),
                                |si, row| row.copy_from_slice(pool.x(idx[si])),
                                ws,
                                vals,
                            );
                            vals.clone()
                        })
                    })
                    .collect();
                let labels: Vec<bool> = indices.iter().map(|&i| pool.value(i) > 0.5).collect();
                metrics::roc_auc(&scores, &labels)
            }
        }
    }
}

impl std::fmt::Display for MetricKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(MetricKind::Accuracy.name(), "accuracy");
        assert_eq!(MetricKind::MeanIou.to_string(), "mean IoU");
        assert_eq!(MetricKind::Auc.name(), "AUC");
    }
    // Model-based evaluation is exercised through the case-study tests.
}
