//! Softmax cross-entropy loss.

use cc_tensor::{pool, Tensor};

/// Computes mean softmax cross-entropy over a batch of logits
/// `(B, K, 1, 1)` and returns `(loss, dL/dlogits)`.
///
/// The gradient is already divided by the batch size, so it can be fed
/// directly to [`crate::Network::backward`]. It is drawn from
/// [`cc_tensor::pool`].
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or a label is out
/// of range.
///
/// # Examples
///
/// ```
/// use cc_tensor::{Shape, Tensor};
/// use cc_nn::loss::softmax_cross_entropy;
///
/// let logits = Tensor::from_vec(Shape::d4(1, 2, 1, 1), vec![2.0, 0.0]);
/// let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
/// assert!(loss < 0.2); // confident and correct
/// assert!(grad.get4(0, 0, 0, 0) < 0.0); // push the true logit up
/// ```
pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let s = logits.shape();
    assert_eq!(s.rank(), 4, "expected (B, K, 1, 1) logits");
    let (b, k) = (s.dim(0), s.dim(1));
    assert_eq!(s.len(), b * k, "expected (B, K, 1, 1) logits");
    assert_eq!(labels.len(), b, "labels/batch mismatch");

    let mut grad = pool::zeros(s);
    let mut total_loss = 0.0f32;
    let mut exps = Vec::with_capacity(k);
    let rows = logits.as_slice().chunks(k.max(1)).zip(grad.as_mut_slice().chunks_mut(k.max(1)));
    for ((row, grad_row), &label) in rows.zip(labels) {
        assert!(label < k, "label {label} out of range for {k} classes");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        exps.clear();
        exps.extend(row.iter().map(|v| (v - max).exp()));
        let z: f32 = exps.iter().sum();
        let log_z = z.ln() + max;
        total_loss += log_z - row[label];
        for (c, (g, e)) in grad_row.iter_mut().zip(&exps).enumerate() {
            let p = e / z;
            let target = if c == label { 1.0 } else { 0.0 };
            *g = (p - target) / b as f32;
        }
    }
    (total_loss / b as f32, grad)
}

/// Returns the predicted class (arg-max logit) per sample. NaN compares
/// lowest, so a diverged network still yields a class; among equal maxima
/// the last wins.
pub fn predictions(logits: &Tensor) -> Vec<usize> {
    let k = logits.shape().dim(1);
    assert_eq!(logits.len(), logits.shape().dim(0) * k, "expected (B, K, 1, 1) logits");
    logits
        .as_slice()
        .chunks(k.max(1))
        .map(|row| {
            (0..k)
                .max_by(|&a, &c| {
                    let (x, y) = (row[a], row[c]);
                    x.partial_cmp(&y).unwrap_or_else(|| y.is_nan().cmp(&x.is_nan()))
                })
                .expect("logits have at least one class")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::Shape;

    #[test]
    fn uniform_logits_give_log_k() {
        let logits = Tensor::zeros(Shape::d4(1, 4, 1, 1));
        let (loss, _) = softmax_cross_entropy(&logits, &[2]);
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero_per_sample() {
        let logits = Tensor::from_vec(Shape::d4(2, 3, 1, 1), vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let (_, grad) = softmax_cross_entropy(&logits, &[0, 2]);
        for bi in 0..2 {
            let s: f32 = (0..3).map(|c| grad.get4(bi, c, 0, 0)).sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits =
            Tensor::from_vec(Shape::d4(2, 3, 1, 1), vec![0.5, -0.2, 0.1, 1.0, 0.3, -0.7]);
        let labels = [1usize, 0];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp[i] += eps;
            let mut lm = logits.clone();
            lm[i] -= eps;
            let (loss_p, _) = softmax_cross_entropy(&lp, &labels);
            let (loss_m, _) = softmax_cross_entropy(&lm, &labels);
            let num = (loss_p - loss_m) / (2.0 * eps);
            assert!((grad[i] - num).abs() < 1e-3, "grad mismatch at {i}");
        }
    }

    #[test]
    fn predictions_argmax() {
        let logits = Tensor::from_vec(Shape::d4(2, 3, 1, 1), vec![0.1, 0.9, 0.0, 2.0, 1.0, 1.5]);
        assert_eq!(predictions(&logits), vec![1, 0]);
    }

    #[test]
    fn predictions_rank_nan_lowest() {
        let nan = f32::NAN;
        let logits = Tensor::from_vec(
            Shape::d4(4, 3, 1, 1),
            vec![nan, 0.5, -1.0, 2.0, nan, 2.0, nan, nan, nan, -0.0, 0.0, nan],
        );
        // a NaN never wins over a number; ties (and an all-NaN row) go to
        // the last maximum, as they do without NaN
        assert_eq!(predictions(&logits), vec![1, 2, 2, 1]);
    }

    #[test]
    fn loss_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(Shape::d4(1, 2, 1, 1), vec![1000.0, -1000.0]);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }
}
