//! Standard 3×3 convolution — the Fig. 2 baseline that shift convolution
//! replaces.
//!
//! The paper's general formulation (§2.1) views any convolutional layer as
//! a matrix product between an `N × (M·K·K)` filter matrix and an im2col
//! data matrix. This layer provides that baseline so the cost/accuracy
//! trade-off of moving to shift + pointwise layers (§2.3) can be measured
//! within the same framework.

use crate::layers::pointwise::{
    cache_copy, dims4, from_result_matrix, to_data_matrix, transpose_into,
};
use crate::layers::shift::shifted_span;
use crate::param::Param;
use cc_tensor::{init, matmul_acc, matmul_acc_terms, pool, Matrix, RowTerms, Shape, Tensor};

/// 3×3 convolution with stride 1 and zero padding 1 (spatial size
/// preserved), implemented as im2col + GEMM, its buffers drawn from and
/// handed back to [`cc_tensor::pool`] as `PointwiseConv`'s are.
#[derive(Clone, Debug)]
pub struct Conv3x3 {
    weight: Param, // (N, M*9) flattened filter matrix
    in_channels: usize,
    out_channels: usize,
    cache_x: Option<Tensor>,
    /// The nonzero terms of `W` (forward) or `Wᵀ` (backward).
    terms: RowTerms,
}

const K: usize = 3;
const PAD: i8 = 1;

impl Conv3x3 {
    /// Creates a Kaiming-initialized 3×3 convolution.
    pub fn new(in_channels: usize, out_channels: usize, seed: u64) -> Self {
        let fan_in = in_channels * K * K;
        Conv3x3 {
            weight: Param::new(init::kaiming_matrix(out_channels, fan_in, seed).into_tensor()),
            in_channels,
            out_channels,
            cache_x: None,
            terms: RowTerms::default(),
        }
    }

    /// Input channels `M`.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channels `N`.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The flattened `N × (M·9)` filter matrix (the paper's Fig. 1b form).
    pub fn filter_matrix(&self) -> Matrix {
        Matrix::from_tensor(self.weight.value.clone())
    }

    /// Weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable weight parameter.
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let (b, m, h, w) = dims4(x);
        assert_eq!(m, self.in_channels, "conv3x3 input channels mismatch");
        let (n, rows, cols) = (self.out_channels, m * K * K, b * h * w);
        let col = im2col(x); // (M*9) × (B·H·W)
        let mut y = Matrix::from_tensor(pool::zeros(Shape::d2(n, cols)));
        self.terms.compact(self.weight.value.as_slice(), n, rows);
        matmul_acc_terms(&self.terms, col.as_slice(), y.as_mut_slice(), cols);
        if training {
            cache_copy(&mut self.cache_x, x);
        }
        let out = from_result_matrix(&y, b, n, h, w);
        pool::recycle(col.into_tensor());
        pool::recycle(y.into_tensor());
        out
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("backward before forward");
        let col = im2col(&x);
        let (n, rows, cols) = (self.out_channels, col.rows(), col.cols());
        let g = to_data_matrix(grad_out); // N × BHW

        // dW = G · colᵀ
        let mut col_t = pool::zeros(Shape::d2(cols, rows));
        transpose_into(col.as_slice(), rows, cols, col_t.as_mut_slice());
        let mut dw = pool::zeros(Shape::d2(n, rows));
        matmul_acc(g.as_slice(), col_t.as_slice(), dw.as_mut_slice(), n, cols, rows);
        self.weight.accumulate_grad(&dw);

        // dcol = Wᵀ · G  ((M*9) × BHW)
        self.terms.compact_transposed(self.weight.value.as_slice(), n, rows);
        let mut dcol = Matrix::from_tensor(pool::zeros(Shape::d2(rows, cols)));
        matmul_acc_terms(&self.terms, g.as_slice(), dcol.as_mut_slice(), cols);
        let dx = col2im(&dcol, x.shape());
        for scratch in [x, col.into_tensor(), g.into_tensor(), col_t, dw, dcol.into_tensor()] {
            pool::recycle(scratch);
        }
        dx
    }

    /// Visits the weight parameter.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
    }
}

/// Calls `f(row, col_at, img_at, len)` for every in-frame row segment of
/// every tap, in im2col row order: the `len` values from column `col_at` of
/// im2col row `row` (`m·9 + ky·3 + kx`) are the `len` tensor elements from
/// `img_at`. Tap `(ky, kx)` is the image shifted by `(PAD − ky, PAD − kx)`.
fn for_each_tap_segment(
    (b, m, h, w): (usize, usize, usize, usize),
    mut f: impl FnMut(usize, usize, usize, usize),
) {
    for bi in 0..b {
        for mi in 0..m {
            for ky in 0..K {
                for kx in 0..K {
                    let row = mi * K * K + ky * K + kx;
                    let xs = shifted_span(PAD - kx as i8, w);
                    if xs.is_empty() {
                        continue;
                    }
                    let sx = xs.start + kx - PAD as usize;
                    for y in shifted_span(PAD - ky as i8, h) {
                        let sy = y + ky - PAD as usize;
                        let (col_at, img_at) = ((bi * h + y) * w, ((bi * m + mi) * h + sy) * w);
                        f(row, col_at + xs.start, img_at + sx, xs.len());
                    }
                }
            }
        }
    }
}

/// im2col for 3×3 / stride 1 / pad 1: row `(m·9 + ky·3 + kx)`, column
/// `(b·H·W + y·W + x)` holds `x[b, m, y+ky−1, x+kx−1]` (zero outside).
pub fn im2col(x: &Tensor) -> Matrix {
    let (b, m, h, w) = dims4(x);
    let mut col = Matrix::from_tensor(pool::zeros(Shape::d2(m * K * K, b * h * w)));
    for_each_tap_segment((b, m, h, w), |row, col_at, img_at, len| {
        col.row_mut(row)[col_at..col_at + len].copy_from_slice(&x.as_slice()[img_at..img_at + len]);
    });
    col
}

/// Adjoint of [`im2col`]: scatters column gradients back to image space.
fn col2im(dcol: &Matrix, shape: Shape) -> Tensor {
    let mut out = pool::zeros(shape);
    let dims = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
    for_each_tap_segment(dims, |row, col_at, img_at, len| {
        let grads = &dcol.row(row)[col_at..col_at + len];
        for (o, g) in out.as_mut_slice()[img_at..img_at + len].iter_mut().zip(grads) {
            *o += g;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_matches_direct_convolution() {
        let mut conv = Conv3x3::new(2, 3, 1);
        let x = init::kaiming_tensor(Shape::d4(1, 2, 4, 4), 2, 2);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape().dims(), &[1, 3, 4, 4]);
        let f = conv.filter_matrix();
        // direct sliding-window reference
        for n in 0..3 {
            for oy in 0..4i64 {
                for ox in 0..4i64 {
                    let mut s = 0.0;
                    for m in 0..2 {
                        for ky in 0..3i64 {
                            for kx in 0..3i64 {
                                let sy = oy + ky - 1;
                                let sx = ox + kx - 1;
                                if !(0..4).contains(&sy) || !(0..4).contains(&sx) {
                                    continue;
                                }
                                s += f.get(n, m * 9 + (ky * 3 + kx) as usize)
                                    * x.get4(0, m, sy as usize, sx as usize);
                            }
                        }
                    }
                    let got = y.get4(0, n, oy as usize, ox as usize);
                    assert!((got - s).abs() < 1e-4, "mismatch at ({n},{oy},{ox})");
                }
            }
        }
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let mut conv = Conv3x3::new(2, 2, 3);
        let x = init::kaiming_tensor(Shape::d4(1, 2, 3, 3), 2, 4);
        let y = conv.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let dx = conv.backward(&ones);
        let eps = 1e-3;
        for i in (0..x.len()).step_by(2) {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let yp = conv.forward(&xp, false).sum();
            let ym = conv.forward(&xm, false).sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!((dx[i] - num).abs() < 1e-2, "dx mismatch at {i}");
        }
    }

    #[test]
    fn backward_weight_grad_matches_finite_difference() {
        let mut conv = Conv3x3::new(1, 2, 5);
        let x = init::kaiming_tensor(Shape::d4(2, 1, 3, 3), 1, 6);
        let y = conv.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let _ = conv.backward(&ones);
        let analytic = conv.weight.grad.clone();
        let eps = 1e-3;
        for i in (0..conv.weight.value.len()).step_by(3) {
            let orig = conv.weight.value[i];
            conv.weight.value[i] = orig + eps;
            let yp = conv.forward(&x, false).sum();
            conv.weight.value[i] = orig - eps;
            let ym = conv.forward(&x, false).sum();
            conv.weight.value[i] = orig;
            let num = (yp - ym) / (2.0 * eps);
            assert!((analytic[i] - num).abs() < 1e-2, "dw mismatch at {i}");
        }
    }

    #[test]
    fn im2col_center_tap_is_identity() {
        // The (ky=1, kx=1) row of im2col is the unshifted image.
        let x = init::kaiming_tensor(Shape::d4(1, 1, 3, 3), 1, 7);
        let col = im2col(&x);
        let center = col.row(4); // 1*3+1
        assert_eq!(center, x.as_slice());
    }

    #[test]
    fn nine_times_pointwise_parameters() {
        let conv = Conv3x3::new(8, 16, 1);
        assert_eq!(conv.weight().len(), 16 * 8 * 9);
    }
}
