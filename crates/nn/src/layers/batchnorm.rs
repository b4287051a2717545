//! Per-channel batch normalization with a hand-written backward pass.

use crate::layers::pointwise::{block, block_mut, dims4};
use crate::param::Param;
use cc_tensor::{pool, Shape, Tensor};

/// Batch normalization over the `(B, H, W)` axes of an NCHW tensor.
///
/// Keeps running statistics for evaluation mode; learns a per-channel
/// scale `γ` and bias `β`. Needed because the paper's deep shift networks
/// (ResNet-20-Shift, VGG-16-Shift) do not train stably without it.
#[derive(Clone, Debug)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    channels: usize,
    eps: f32,
    momentum: f32,
    cache: Option<BnCache>,
}

#[derive(Clone, Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm {
    /// Creates a batch-norm layer for `channels` channels
    /// (γ = 1, β = 0, ε = 1e-5, running-stat momentum 0.1).
    pub fn new(channels: usize) -> Self {
        BatchNorm {
            gamma: Param::new(Tensor::full(Shape::d1(channels), 1.0)),
            beta: Param::new(Tensor::zeros(Shape::d1(channels))),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            channels,
            eps: 1e-5,
            momentum: 0.1,
            cache: None,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Learned per-channel scale γ.
    pub fn gamma(&self) -> &[f32] {
        self.gamma.value.as_slice()
    }

    /// Learned per-channel bias β.
    pub fn beta(&self) -> &[f32] {
        self.beta.value.as_slice()
    }

    /// Running per-channel mean (eval-mode statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running per-channel variance (eval-mode statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }

    /// The ε added to variances for numerical stability.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// Permutes the channel dimension of γ, β and the running statistics
    /// (used when the producing convolution's output channels are
    /// permuted, §3.5).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of the channels.
    pub fn permute_channels(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.channels, "permutation length mismatch");
        self.gamma.permute_leading(perm);
        self.beta.permute_leading(perm);
        let mean = self.running_mean.clone();
        let var = self.running_var.clone();
        for (i, &p) in perm.iter().enumerate() {
            self.running_mean[i] = mean[p];
            self.running_var[i] = var[p];
        }
    }

    /// Forward pass. In training mode uses batch statistics and updates the
    /// running estimates; in eval mode uses the running estimates.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let (b, c, h, w) = dims4(x);
        assert_eq!(c, self.channels, "batchnorm channel mismatch");
        let hw = h * w;
        let count = (b * hw) as f32;
        let xs = x.as_slice();

        let (mean, var) = if training {
            // Each channel's sums run in (image, pixel) order.
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for ci in 0..c {
                let mut s = 0.0;
                for bi in 0..b {
                    for v in block(xs, bi * c + ci, hw) {
                        s += v;
                    }
                }
                let mu = s / count;
                let mut v = 0.0;
                for bi in 0..b {
                    for xv in block(xs, bi * c + ci, hw) {
                        let d = xv - mu;
                        v += d * d;
                    }
                }
                mean[ci] = mu;
                var[ci] = v / count;
            }
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut out = pool::zeros(x.shape());
        // Only a training pass keeps x̂; an eval pass forms each
        // `(x − μ)·σ⁻¹` (the same f32) on the way to its output.
        let mut x_hat = training.then(|| pool::zeros(x.shape()));
        let hw = hw.max(1);
        let planes = xs.chunks(hw).zip(out.as_mut_slice().chunks_mut(hw));
        for (plane, (src, out_plane)) in planes.enumerate() {
            let ci = plane % c;
            let (mu, istd) = (mean[ci], inv_std[ci]);
            let (g, bt) = (self.gamma.value[ci], self.beta.value[ci]);
            match &mut x_hat {
                Some(x_hat) => {
                    let xh_plane = block_mut(x_hat.as_mut_slice(), plane, hw);
                    for ((xv, xh), o) in src.iter().zip(xh_plane).zip(out_plane) {
                        *xh = (xv - mu) * istd;
                        *o = g * *xh + bt;
                    }
                }
                None => {
                    for (xv, o) in src.iter().zip(out_plane) {
                        *o = g * ((xv - mu) * istd) + bt;
                    }
                }
            }
        }

        if let Some(x_hat) = x_hat {
            if let Some(stale) = self.cache.replace(BnCache { x_hat, inv_std }) {
                pool::recycle(stale.x_hat);
            }
        }
        out
    }

    /// Backward pass (training statistics), returning `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("backward before forward");
        let (b, c, h, w) = dims4(grad_out);
        let hw = h * w;
        let count = (b * hw) as f32;
        let (dys, xhs) = (grad_out.as_slice(), cache.x_hat.as_slice());
        let mut dx = pool::zeros(grad_out.shape());

        for ci in 0..c {
            // Per-channel reductions, in (image, pixel) order.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for bi in 0..b {
                let p = bi * c + ci;
                for (dy, xh) in block(dys, p, hw).iter().zip(block(xhs, p, hw)) {
                    sum_dy += dy;
                    sum_dy_xhat += dy * xh;
                }
            }
            self.beta.grad[ci] += sum_dy;
            self.gamma.grad[ci] += sum_dy_xhat;

            let scale = self.gamma.value[ci] * cache.inv_std[ci];
            for bi in 0..b {
                let p = bi * c + ci;
                let terms = block(dys, p, hw).iter().zip(block(xhs, p, hw));
                for (o, (dy, xh)) in block_mut(dx.as_mut_slice(), p, hw).iter_mut().zip(terms) {
                    *o = scale * (dy - sum_dy / count - xh * sum_dy_xhat / count);
                }
            }
        }
        pool::recycle(cache.x_hat);
        dx
    }

    /// Visits γ and β.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::init;

    #[test]
    fn training_output_is_normalized() {
        let mut bn = BatchNorm::new(3);
        let x = init::kaiming_tensor(Shape::d4(4, 3, 5, 5), 3, 1);
        let y = bn.forward(&x, true);
        let (b, c, h, w) = (4, 3, 5, 5);
        let hw = h * w;
        for ci in 0..c {
            let mut mean = 0.0;
            let mut var = 0.0;
            for bi in 0..b {
                for i in 0..hw {
                    mean += y.as_slice()[(bi * c + ci) * hw + i];
                }
            }
            mean /= (b * hw) as f32;
            for bi in 0..b {
                for i in 0..hw {
                    let d = y.as_slice()[(bi * c + ci) * hw + i] - mean;
                    var += d * d;
                }
            }
            var /= (b * hw) as f32;
            assert!(mean.abs() < 1e-4, "channel {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {ci} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(2);
        let x = init::kaiming_tensor(Shape::d4(8, 2, 4, 4), 2, 2);
        for _ in 0..50 {
            let _ = bn.forward(&x, true);
        }
        let y_eval = bn.forward(&x, false);
        let y_train = bn.forward(&x, true);
        // after many updates running stats converge to batch stats
        for (a, b) in y_eval.as_slice().iter().zip(y_train.as_slice()) {
            assert!((a - b).abs() < 0.15, "{a} vs {b}");
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut bn = BatchNorm::new(2);
        let x = init::kaiming_tensor(Shape::d4(2, 2, 3, 3), 2, 3);
        // Loss: weighted sum so gradient is non-uniform.
        let wgt = init::kaiming_tensor(Shape::d4(2, 2, 3, 3), 2, 4);
        let y = bn.forward(&x, true);
        let _ = y;
        let dx = bn.backward(&wgt);

        let eps = 1e-2;
        for i in (0..x.len()).step_by(7) {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let mut bn2 = BatchNorm::new(2);
            let yp: f32 = bn2
                .forward(&xp, true)
                .as_slice()
                .iter()
                .zip(wgt.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let ym: f32 = bn2
                .forward(&xm, true)
                .as_slice()
                .iter()
                .zip(wgt.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (dx[i] - num).abs() < 2e-2,
                "bn dx mismatch at {i}: analytic {} numeric {num}",
                dx[i]
            );
        }
    }

    #[test]
    fn gamma_beta_gradients_accumulate() {
        let mut bn = BatchNorm::new(1);
        let x = init::kaiming_tensor(Shape::d4(1, 1, 2, 2), 1, 5);
        let y = bn.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let _ = bn.backward(&ones);
        // dβ = Σ dy = 4
        assert!((bn.beta.grad[0] - 4.0).abs() < 1e-5);
    }
}
