//! Fully-connected layer on flattened activations.

use crate::layers::pointwise::{cache_copy, transpose_into};
use crate::param::Param;
use cc_tensor::{init, matmul_acc, matmul_acc_terms, pool, RowTerms, Shape, Tensor};

/// Fully-connected layer: flattens `(B, C, H, W)` to `(B, C·H·W)` and
/// applies `y = W·x + b` per sample.
///
/// In the paper's deployments the classifier head is also a matrix
/// multiplication on the systolic array, so its weight participates in
/// model-size accounting (ρ in Algorithm 1) alongside the pointwise layers.
#[derive(Clone, Debug)]
pub struct Linear {
    weight: Param,
    bias: Param,
    in_features: usize,
    out_features: usize,
    cache_x: Option<Tensor>,
    /// The nonzero terms of `W` (forward) or `Wᵀ` (backward).
    terms: RowTerms,
}

impl Linear {
    /// Creates a Kaiming-initialized fully-connected layer.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        Linear {
            weight: Param::new(init::kaiming_matrix(out_features, in_features, seed).into_tensor()),
            bias: Param::new(Tensor::zeros(Shape::d1(out_features))),
            in_features,
            out_features,
            cache_x: None,
            terms: RowTerms::default(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Permutes input features (weight columns) to match a channel
    /// permutation of the producing layer. Valid when each input feature
    /// corresponds to one channel (e.g. after global average pooling).
    pub fn permute_in_features(&mut self, perm: &[usize]) {
        self.weight.permute_cols(perm);
    }

    /// Forward pass; accepts any rank-4 input and flattens per sample.
    /// Returns `(B, out, 1, 1)`.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let b = x.shape().dim(0);
        let (feat, out_f) = (x.len() / b, self.out_features);
        assert_eq!(feat, self.in_features, "linear input features mismatch");
        // Y (out × B) = W · Xᵀ, with X the input as it lies: B × in_features.
        let mut xt = pool::zeros(Shape::d2(feat, b));
        transpose_into(x.as_slice(), b, feat, xt.as_mut_slice());
        let mut y = pool::zeros(Shape::d2(out_f, b));
        self.terms.compact(self.weight.value.as_slice(), out_f, feat);
        matmul_acc_terms(&self.terms, xt.as_slice(), y.as_mut_slice(), b);
        if training {
            cache_copy(&mut self.cache_x, x);
        }
        let mut out = pool::zeros(Shape::d4(b, out_f, 1, 1));
        for (bi, row) in out.as_mut_slice().chunks_mut(out_f.max(1)).enumerate() {
            for (o, v) in row.iter_mut().enumerate() {
                *v = y[o * b + bi] + self.bias.value[o];
            }
        }
        pool::recycle(xt);
        pool::recycle(y);
        out
    }

    /// Backward pass, returning `dL/dx` in the caller's original rank-4
    /// input shape `(B, C, H, W)`.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("backward before forward");
        let b = x.shape().dim(0);
        let (feat, out_f) = (self.in_features, self.out_features);
        assert_eq!(grad_out.len(), b * out_f, "output gradient shape mismatch");
        for row in grad_out.as_slice().chunks(out_f.max(1)) {
            for (bg, g) in self.bias.grad.as_mut_slice().iter_mut().zip(row) {
                *bg += g;
            }
        }
        // G (out × B) is the transposed output gradient.
        let mut g = pool::zeros(Shape::d2(out_f, b));
        transpose_into(grad_out.as_slice(), b, out_f, g.as_mut_slice());
        // dW = G · X  (out × in)
        let mut dw = pool::zeros(Shape::d2(out_f, feat));
        matmul_acc(g.as_slice(), x.as_slice(), dw.as_mut_slice(), out_f, b, feat);
        self.weight.accumulate_grad(&dw);
        // dXᵀ = Wᵀ · G  (in × B)
        self.terms.compact_transposed(self.weight.value.as_slice(), out_f, feat);
        let mut dxt = pool::zeros(Shape::d2(feat, b));
        matmul_acc_terms(&self.terms, g.as_slice(), dxt.as_mut_slice(), b);
        let mut dx = pool::zeros(x.shape());
        transpose_into(dxt.as_slice(), feat, b, dx.as_mut_slice());
        for scratch in [x, g, dw, dxt] {
            pool::recycle(scratch);
        }
        dx
    }

    /// Visits weight and bias.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::Matrix;

    #[test]
    fn forward_is_affine() {
        let mut l = Linear::new(3, 2, 1);
        let w = Matrix::from_rows(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 1.0]]);
        l.weight.value = w.into_tensor();
        l.bias.value[1] = 0.5;
        let x = Tensor::from_vec(Shape::d4(1, 3, 1, 1), vec![2.0, 3.0, 4.0]);
        let y = l.forward(&x, false);
        assert_eq!(y.get4(0, 0, 0, 0), 2.0);
        assert_eq!(y.get4(0, 1, 0, 0), 7.5);
    }

    #[test]
    fn backward_grads_match_finite_difference() {
        let mut l = Linear::new(4, 3, 2);
        let x = init::kaiming_tensor(Shape::d4(2, 4, 1, 1), 4, 3);
        let y = l.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let dx = l.backward(&ones);
        let analytic_w = l.weight.grad.clone();

        let eps = 1e-3;
        // input gradient
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let yp = l.forward(&xp, false).sum();
            let ym = l.forward(&xm, false).sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!((dx[i] - num).abs() < 1e-2, "dx mismatch at {i}");
        }
        // weight gradient
        for i in 0..l.weight.value.len() {
            let orig = l.weight.value[i];
            l.weight.value[i] = orig + eps;
            let yp = l.forward(&x, false).sum();
            l.weight.value[i] = orig - eps;
            let ym = l.forward(&x, false).sum();
            l.weight.value[i] = orig;
            let num = (yp - ym) / (2.0 * eps);
            assert!((analytic_w[i] - num).abs() < 1e-2, "dw mismatch at {i}");
        }
    }

    #[test]
    fn flattens_spatial_input() {
        let mut l = Linear::new(8, 2, 5);
        let x = init::kaiming_tensor(Shape::d4(3, 2, 2, 2), 8, 6);
        let y = l.forward(&x, false);
        assert_eq!(y.shape().dims(), &[3, 2, 1, 1]);
    }
}
