//! Pointwise (1×1) convolution — the layer whose filter matrix column
//! combining packs.

use crate::param::Param;
use cc_tensor::{init, matmul_acc, matmul_acc_terms, pool, Matrix, RowTerms, Shape, Tensor};

/// Pointwise convolution: `y[b,n,h,w] = Σ_m W[n,m]·x[b,m,h,w] (+ bias[n])`.
///
/// Its weight is exactly the paper's *filter matrix* `F ∈ R^{N×M}` (Fig. 1b
/// with `W = H = 1` kernels): rows are filters (output channels), columns
/// are input channels. Column combining (cc-packing) groups and prunes these
/// columns.
///
/// Forward/backward are GEMMs against the *data matrix* `D ∈ R^{M×(B·H·W)}`
/// (the layout a weight-stationary systolic array streams bottom-to-top,
/// Fig. 1c), run one image at a time: image `b`'s NCHW planes are columns
/// `b·HW..(b+1)·HW` of `D` as they lie in memory, and one image's block is
/// the cache blocking. The weight is compacted to its nonzero terms
/// ([`RowTerms`]) once per call — `W` in `forward`, `Wᵀ` in `backward` —
/// and every image's product reuses them, so pruned weights cost neither
/// time nor a scan per image. Outputs, the cached input and all scratch
/// are drawn from [`cc_tensor::pool`] and handed back to it once consumed.
#[derive(Clone, Debug)]
pub struct PointwiseConv {
    weight: Param,
    bias: Option<Param>,
    in_channels: usize,
    out_channels: usize,
    cache_x: Option<Tensor>,
    /// The nonzero terms of `W` (forward) or `Wᵀ` (backward), rebuilt each
    /// call into the same buffers.
    terms: RowTerms,
}

impl PointwiseConv {
    /// Creates a Kaiming-initialized pointwise convolution.
    pub fn new(in_channels: usize, out_channels: usize, bias: bool, seed: u64) -> Self {
        let w = init::kaiming_matrix(out_channels, in_channels, seed);
        PointwiseConv {
            weight: Param::new(w.into_tensor()),
            bias: bias.then(|| Param::new(Tensor::zeros(Shape::d1(out_channels)))),
            in_channels,
            out_channels,
            cache_x: None,
            terms: RowTerms::default(),
        }
    }

    /// Number of input channels (`M`, filter-matrix columns).
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels (`N`, filter-matrix rows).
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The filter matrix as an `N × M` [`Matrix`] copy.
    pub fn filter_matrix(&self) -> Matrix {
        Matrix::from_tensor(self.weight.value.clone())
    }

    /// Replaces the filter matrix (used by pruning / packing / permutation).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from `N × M`.
    pub fn set_filter_matrix(&mut self, m: Matrix) {
        assert_eq!(m.rows(), self.out_channels, "filter matrix rows != N");
        assert_eq!(m.cols(), self.in_channels, "filter matrix cols != M");
        self.weight.value = m.into_tensor();
    }

    /// Access to the weight parameter (for the optimizer and pruning).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// The optional bias parameter (the paper's deployments fold any bias
    /// into the quantization stage; model builders use `bias = false`).
    pub fn bias(&self) -> Option<&Param> {
        self.bias.as_ref()
    }

    /// Permutes output channels (filter-matrix rows): output channel `i`
    /// becomes original channel `perm[i]` (§3.5 row permutation).
    pub fn permute_out_channels(&mut self, perm: &[usize]) {
        self.weight.permute_leading(perm);
        if let Some(bias) = &mut self.bias {
            bias.permute_leading(perm);
        }
    }

    /// Permutes input channels (filter-matrix columns) to match a row
    /// permutation of the producing layer.
    pub fn permute_in_channels(&mut self, perm: &[usize]) {
        self.weight.permute_cols(perm);
    }

    /// Runs the forward pass, caching activations when `training`.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let (b, m, h, w) = dims4(x);
        assert_eq!(m, self.in_channels, "input channels mismatch");
        let (n, hw) = (self.out_channels, h * w);
        let mut out = pool::zeros(Shape::d4(b, n, h, w));
        self.terms.compact(self.weight.value.as_slice(), n, m);
        // Image `bi`'s planes are already the `M × HW` data matrix.
        for bi in 0..b {
            matmul_acc_terms(
                &self.terms,
                block(x.as_slice(), bi, m * hw),
                block_mut(out.as_mut_slice(), bi, n * hw),
                hw,
            );
        }
        if let Some(bias) = &self.bias {
            add_channel_bias(&mut out, bias.value.as_slice());
        }
        if training {
            cache_copy(&mut self.cache_x, x);
        }
        out
    }

    /// Backward pass: accumulates weight/bias gradients, returns `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("backward before forward");
        let (b, m, h, w) = dims4(&x);
        let (n, hw) = (self.out_channels, h * w);
        assert_eq!(grad_out.shape(), Shape::d4(b, n, h, w), "output gradient shape mismatch");
        let g = grad_out.as_slice();

        // dW = Σ_b G_b · X_bᵀ  (N × M), columns summed image by image.
        let mut dw = pool::zeros(Shape::d2(n, m));
        let mut xt = pool::zeros(Shape::d2(hw, m));
        for bi in 0..b {
            transpose_into(block(x.as_slice(), bi, m * hw), m, hw, xt.as_mut_slice());
            matmul_acc(block(g, bi, n * hw), xt.as_slice(), dw.as_mut_slice(), n, hw, m);
        }
        self.weight.accumulate_grad(&dw);
        pool::recycle(dw);
        pool::recycle(xt);

        if let Some(bias) = &mut self.bias {
            for ni in 0..n {
                let mut s = 0.0;
                for bi in 0..b {
                    for v in block(g, bi * n + ni, hw) {
                        s += v;
                    }
                }
                bias.grad[ni] += s;
            }
        }

        // dX_b = Wᵀ · G_b  (M × HW)
        self.terms.compact_transposed(self.weight.value.as_slice(), n, m);
        let mut dx = pool::zeros(x.shape());
        for bi in 0..b {
            matmul_acc_terms(
                &self.terms,
                block(g, bi, n * hw),
                block_mut(dx.as_mut_slice(), bi, m * hw),
                hw,
            );
        }
        pool::recycle(x);
        dx
    }

    /// Visits the layer's parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

/// Caches a pooled copy of `x` in `slot`, recycling what it held (a
/// training forward that no backward consumed).
pub(crate) fn cache_copy(slot: &mut Option<Tensor>, x: &Tensor) {
    if let Some(stale) = slot.replace(pool::copy_of(x)) {
        pool::recycle(stale);
    }
}

/// Extracts `(B, C, H, W)` from a rank-4 tensor.
pub(crate) fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    assert_eq!(s.rank(), 4, "expected NCHW tensor, got {s}");
    (s.dim(0), s.dim(1), s.dim(2), s.dim(3))
}

/// The `i`-th block of `len` values: one image's planes, or one plane.
pub(crate) fn block(data: &[f32], i: usize, len: usize) -> &[f32] {
    &data[i * len..(i + 1) * len]
}

/// Mutable [`block`].
pub(crate) fn block_mut(data: &mut [f32], i: usize, len: usize) -> &mut [f32] {
    &mut data[i * len..(i + 1) * len]
}

/// Writes the transpose of the row-major `rows × cols` matrix `src` to
/// `dst` (`cols × rows`).
pub(crate) fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "source is not {rows}×{cols}");
    assert_eq!(dst.len(), src.len(), "transpose size mismatch");
    for (r, src_row) in src.chunks(cols.max(1)).enumerate() {
        for (c, &v) in src_row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

/// Rearranges `(B, M, H, W)` into the paper's data matrix `M × (B·H·W)`,
/// on a [`cc_tensor::pool`] buffer.
pub fn to_data_matrix(x: &Tensor) -> Matrix {
    let (b, m, h, w) = dims4(x);
    let hw = h * w;
    let cols = b * hw;
    let mut d = Matrix::from_tensor(pool::zeros(Shape::d2(m, cols)));
    let src = x.as_slice();
    for bi in 0..b {
        for mi in 0..m {
            let plane = &src[(bi * m + mi) * hw..(bi * m + mi + 1) * hw];
            d.row_mut(mi)[bi * hw..(bi + 1) * hw].copy_from_slice(plane);
        }
    }
    d
}

/// Inverse of [`to_data_matrix`] for an `N × (B·H·W)` result matrix, on a
/// [`cc_tensor::pool`] buffer.
pub fn from_result_matrix(y: &Matrix, b: usize, n: usize, h: usize, w: usize) -> Tensor {
    assert_eq!(y.rows(), n);
    assert_eq!(y.cols(), b * h * w);
    let hw = h * w;
    let mut out = pool::zeros(Shape::d4(b, n, h, w));
    let dst = out.as_mut_slice();
    for bi in 0..b {
        for ni in 0..n {
            dst[(bi * n + ni) * hw..(bi * n + ni + 1) * hw]
                .copy_from_slice(&y.row(ni)[bi * hw..(bi + 1) * hw]);
        }
    }
    out
}

fn add_channel_bias(x: &mut Tensor, bias: &[f32]) {
    let (b, c, h, w) = dims4(x);
    let hw = h * w;
    let data = x.as_mut_slice();
    for bi in 0..b {
        for ci in 0..c {
            let beta = bias[ci];
            for v in &mut data[(bi * c + ci) * hw..(bi * c + ci + 1) * hw] {
                *v += beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff_input(layer: &mut PointwiseConv, x: &Tensor, eps: f32) -> Tensor {
        // numerical dL/dx for L = sum(y)
        let mut grad = Tensor::zeros(x.shape());
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let yp = layer.forward(&xp, false).sum();
            let ym = layer.forward(&xm, false).sum();
            grad[i] = (yp - ym) / (2.0 * eps);
        }
        grad
    }

    #[test]
    fn forward_matches_direct_convolution() {
        let mut layer = PointwiseConv::new(3, 2, false, 7);
        let x = init::kaiming_tensor(Shape::d4(2, 3, 4, 4), 3, 9);
        let y = layer.forward(&x, false);
        let w = layer.filter_matrix();
        for b in 0..2 {
            for n in 0..2 {
                for h in 0..4 {
                    for ww in 0..4 {
                        let mut s = 0.0;
                        for m in 0..3 {
                            s += w.get(n, m) * x.get4(b, m, h, ww);
                        }
                        assert!((y.get4(b, n, h, ww) - s).abs() < 1e-5);
                    }
                }
            }
        }
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let mut layer = PointwiseConv::new(2, 3, true, 11);
        let x = init::kaiming_tensor(Shape::d4(1, 2, 3, 3), 2, 5);
        let y = layer.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let dx = layer.backward(&ones);
        let num = finite_diff_input(&mut layer, &x, 1e-3);
        for i in 0..x.len() {
            assert!(
                (dx[i] - num[i]).abs() < 1e-2,
                "analytic {} vs numeric {} at {i}",
                dx[i],
                num[i]
            );
        }
    }

    #[test]
    fn backward_weight_grad_matches_finite_difference() {
        let mut layer = PointwiseConv::new(2, 2, false, 3);
        let x = init::kaiming_tensor(Shape::d4(2, 2, 2, 2), 2, 4);
        let y = layer.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let _ = layer.backward(&ones);
        let analytic = layer.weight.grad.clone();

        let eps = 1e-3;
        for i in 0..layer.weight.value.len() {
            let orig = layer.weight.value[i];
            layer.weight.value[i] = orig + eps;
            let yp = layer.forward(&x, false).sum();
            layer.weight.value[i] = orig - eps;
            let ym = layer.forward(&x, false).sum();
            layer.weight.value[i] = orig;
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (analytic[i] - num).abs() < 1e-2,
                "weight grad mismatch at {i}: {} vs {num}",
                analytic[i]
            );
        }
    }

    #[test]
    fn masked_weights_get_no_gradient() {
        let mut layer = PointwiseConv::new(2, 2, false, 3);
        let mut mask = Tensor::full(Shape::d2(2, 2), 1.0);
        mask.set2(0, 1, 0.0);
        layer.weight_mut().set_mask(mask);
        let x = init::kaiming_tensor(Shape::d4(1, 2, 2, 2), 2, 4);
        let y = layer.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let _ = layer.backward(&ones);
        assert_eq!(layer.weight.grad.get2(0, 1), 0.0);
        assert_ne!(layer.weight.grad.get2(0, 0), 0.0);
    }

    #[test]
    fn data_matrix_roundtrip() {
        let x = init::kaiming_tensor(Shape::d4(2, 3, 2, 2), 3, 8);
        let d = to_data_matrix(&x);
        assert_eq!(d.rows(), 3);
        assert_eq!(d.cols(), 8);
        let back = from_result_matrix(&d, 2, 3, 2, 2);
        assert_eq!(back, x);
    }

    #[test]
    fn set_filter_matrix_roundtrip() {
        let mut layer = PointwiseConv::new(3, 2, false, 1);
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        layer.set_filter_matrix(m.clone());
        assert_eq!(layer.filter_matrix(), m);
    }

    #[test]
    #[should_panic(expected = "rows != N")]
    fn set_filter_matrix_bad_shape_panics() {
        let mut layer = PointwiseConv::new(3, 2, false, 1);
        layer.set_filter_matrix(Matrix::zeros(3, 3));
    }
}
