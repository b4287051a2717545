//! Per-element reference forms of every layer's forward and backward pass.
//!
//! This is the code the row-slice layers replaced: one `get4`/`set4` per
//! element, one branch per ReLU, one bounds test per shifted pixel. It is
//! the specification of *which float operations run on which operands in
//! which order*; the tests below hold every layer to it bit for bit, and
//! check that the suite can tell a reordered sum or a fused multiply-add
//! from the real thing.

use cc_tensor::{Matrix, Shape, Tensor};

fn dims4(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    (s.dim(0), s.dim(1), s.dim(2), s.dim(3))
}

/// `a · b`, each element summed from `0.0` in ascending `k`, terms whose
/// `a` factor is `0.0` skipped.
pub fn gemm(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0;
            for k in 0..a.cols() {
                if a.get(i, k) != 0.0 {
                    s += a.get(i, k) * b.get(k, j);
                }
            }
            c.set(i, j, s);
        }
    }
    c
}

pub fn transpose(m: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(m.cols(), m.rows());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            out.set(c, r, m.get(r, c));
        }
    }
    out
}

/// `(B, M, H, W)` as the paper's `M × (B·H·W)` data matrix.
fn data_matrix(x: &Tensor) -> Matrix {
    let (b, m, h, w) = dims4(x);
    let mut d = Matrix::zeros(m, b * h * w);
    for bi in 0..b {
        for mi in 0..m {
            for y in 0..h {
                for xx in 0..w {
                    d.set(mi, (bi * h + y) * w + xx, x.get4(bi, mi, y, xx));
                }
            }
        }
    }
    d
}

/// Inverse of [`data_matrix`].
fn from_data_matrix(d: &Matrix, (b, h, w): (usize, usize, usize)) -> Tensor {
    let mut x = Tensor::zeros(Shape::d4(b, d.rows(), h, w));
    for bi in 0..b {
        for ci in 0..d.rows() {
            for y in 0..h {
                for xx in 0..w {
                    x.set4(bi, ci, y, xx, d.get(ci, (bi * h + y) * w + xx));
                }
            }
        }
    }
    x
}

/// What a GEMM layer's backward pass yields: the weight gradient *before*
/// it is added to the gradient buffer and masked, the bias gradient, and
/// `dL/dx`.
pub struct GemmGrads {
    pub dw: Matrix,
    pub dbias: Vec<f32>,
    pub dx: Tensor,
}

pub fn pointwise_forward(w: &Matrix, bias: Option<&[f32]>, x: &Tensor) -> Tensor {
    let (b, _, h, wd) = dims4(x);
    let mut y = from_data_matrix(&gemm(w, &data_matrix(x)), (b, h, wd));
    if let Some(bias) = bias {
        for bi in 0..b {
            for (n, beta) in bias.iter().enumerate() {
                for yy in 0..h {
                    for xx in 0..wd {
                        y.set4(bi, n, yy, xx, y.get4(bi, n, yy, xx) + beta);
                    }
                }
            }
        }
    }
    y
}

pub fn pointwise_backward(w: &Matrix, x: &Tensor, grad_out: &Tensor) -> GemmGrads {
    let (b, _, h, wd) = dims4(x);
    let (d, g) = (data_matrix(x), data_matrix(grad_out));
    let dbias = (0..g.rows())
        .map(|n| {
            let mut s = 0.0;
            for j in 0..g.cols() {
                s += g.get(n, j);
            }
            s
        })
        .collect();
    GemmGrads {
        dw: gemm(&g, &transpose(&d)),
        dbias,
        dx: from_data_matrix(&gemm(&transpose(w), &g), (b, h, wd)),
    }
}

/// `x` flattened per sample, as the `(features × B)` matrix.
fn feature_matrix(x: &Tensor) -> Matrix {
    let b = x.shape().dim(0);
    let feat = x.len() / b;
    let mut xm = Matrix::zeros(feat, b);
    for bi in 0..b {
        for f in 0..feat {
            xm.set(f, bi, x.as_slice()[bi * feat + f]);
        }
    }
    xm
}

pub fn linear_forward(w: &Matrix, bias: &[f32], x: &Tensor) -> Tensor {
    let b = x.shape().dim(0);
    let y = gemm(w, &feature_matrix(x));
    let mut out = Tensor::zeros(Shape::d4(b, w.rows(), 1, 1));
    for bi in 0..b {
        for o in 0..w.rows() {
            out.set4(bi, o, 0, 0, y.get(o, bi) + bias[o]);
        }
    }
    out
}

/// Unlike the convolutions, the classifier adds each sample's output
/// gradient straight onto the bias gradient buffer, so `dbias` continues
/// from `bias_grad`, the buffer's content before the pass.
pub fn linear_backward(w: &Matrix, x: &Tensor, grad_out: &Tensor, bias_grad: &[f32]) -> GemmGrads {
    let b = x.shape().dim(0);
    let g = feature_matrix(grad_out);
    let mut dbias = bias_grad.to_vec();
    for bi in 0..b {
        for (o, db) in dbias.iter_mut().enumerate() {
            *db += grad_out.get4(bi, o, 0, 0);
        }
    }
    let dxm = gemm(&transpose(w), &g);
    let mut dx = Tensor::zeros(x.shape());
    for bi in 0..b {
        for f in 0..w.cols() {
            dx.as_mut_slice()[bi * w.cols() + f] = dxm.get(f, bi);
        }
    }
    GemmGrads { dw: gemm(&g, &transpose(&feature_matrix(x))), dbias, dx }
}

/// im2col row `(m·9 + ky·3 + kx)`, column `(b·H·W + y·W + x)` holds
/// `x[b, m, y+ky−1, x+kx−1]`, zero outside the frame.
pub fn im2col(x: &Tensor) -> Matrix {
    let (b, m, h, w) = dims4(x);
    let mut col = Matrix::zeros(m * 9, b * h * w);
    for_each_tap(x.shape(), |row, j, (bi, mi, sy, sx)| col.set(row, j, x.get4(bi, mi, sy, sx)));
    col
}

fn for_each_tap(shape: Shape, mut f: impl FnMut(usize, usize, (usize, usize, usize, usize))) {
    let (b, m, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
    for bi in 0..b {
        for mi in 0..m {
            for ky in 0..3 {
                for kx in 0..3 {
                    for y in 0..h as i64 {
                        let sy = y + ky - 1;
                        if sy < 0 || sy >= h as i64 {
                            continue;
                        }
                        for xx in 0..w as i64 {
                            let sx = xx + kx - 1;
                            if sx < 0 || sx >= w as i64 {
                                continue;
                            }
                            let row = mi * 9 + (ky * 3 + kx) as usize;
                            let j = (bi * h + y as usize) * w + xx as usize;
                            f(row, j, (bi, mi, sy as usize, sx as usize));
                        }
                    }
                }
            }
        }
    }
}

pub fn conv3x3_forward(w: &Matrix, x: &Tensor) -> Tensor {
    let (b, _, h, wd) = dims4(x);
    from_data_matrix(&gemm(w, &im2col(x)), (b, h, wd))
}

pub fn conv3x3_backward(w: &Matrix, x: &Tensor, grad_out: &Tensor) -> GemmGrads {
    let g = data_matrix(grad_out);
    let dcol = gemm(&transpose(w), &g);
    let mut dx = Tensor::zeros(x.shape());
    for_each_tap(x.shape(), |row, j, (bi, mi, sy, sx)| {
        dx.set4(bi, mi, sy, sx, dx.get4(bi, mi, sy, sx) + dcol.get(row, j));
    });
    GemmGrads { dw: gemm(&g, &transpose(&im2col(x))), dbias: Vec::new(), dx }
}

pub fn relu_forward(x: &Tensor) -> (Tensor, Vec<bool>) {
    let mut out = x.clone();
    let mut mask = vec![false; x.len()];
    for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
        if *v > 0.0 {
            mask[i] = true;
        } else {
            *v = 0.0;
        }
    }
    (out, mask)
}

pub fn relu_backward(grad_out: &Tensor, mask: &[bool]) -> Tensor {
    let mut dx = grad_out.clone();
    for (v, keep) in dx.as_mut_slice().iter_mut().zip(mask) {
        if !keep {
            *v = 0.0;
        }
    }
    dx
}

pub fn avgpool_forward(x: &Tensor) -> Tensor {
    let (b, c, h, w) = dims4(x);
    let mut out = Tensor::zeros(Shape::d4(b, c, h / 2, w / 2));
    for bi in 0..b {
        for ci in 0..c {
            for y in 0..h / 2 {
                for xp in 0..w / 2 {
                    let s = x.get4(bi, ci, 2 * y, 2 * xp)
                        + x.get4(bi, ci, 2 * y, 2 * xp + 1)
                        + x.get4(bi, ci, 2 * y + 1, 2 * xp)
                        + x.get4(bi, ci, 2 * y + 1, 2 * xp + 1);
                    out.set4(bi, ci, y, xp, s / 4.0);
                }
            }
        }
    }
    out
}

pub fn avgpool_backward(grad_out: &Tensor, in_shape: Shape) -> Tensor {
    let (b, c, oh, ow) = dims4(grad_out);
    let mut dx = Tensor::zeros(in_shape);
    for bi in 0..b {
        for ci in 0..c {
            for y in 0..oh {
                for xp in 0..ow {
                    let g = grad_out.get4(bi, ci, y, xp) / 4.0;
                    for (dy, dx_) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let prev = dx.get4(bi, ci, 2 * y + dy, 2 * xp + dx_);
                        dx.set4(bi, ci, 2 * y + dy, 2 * xp + dx_, prev + g);
                    }
                }
            }
        }
    }
    dx
}

pub fn gap_forward(x: &Tensor) -> Tensor {
    let (b, c, h, w) = dims4(x);
    let mut out = Tensor::zeros(Shape::d4(b, c, 1, 1));
    for bi in 0..b {
        for ci in 0..c {
            let mut s = 0.0;
            for y in 0..h {
                for xp in 0..w {
                    s += x.get4(bi, ci, y, xp);
                }
            }
            out.set4(bi, ci, 0, 0, s / (h * w) as f32);
        }
    }
    out
}

pub fn gap_backward(grad_out: &Tensor, in_shape: Shape) -> Tensor {
    let mut dx = Tensor::zeros(in_shape);
    let (b, c, h, w) = dims4(&dx);
    for bi in 0..b {
        for ci in 0..c {
            let g = grad_out.get4(bi, ci, 0, 0) / (h * w) as f32;
            for y in 0..h {
                for xp in 0..w {
                    dx.set4(bi, ci, y, xp, g);
                }
            }
        }
    }
    dx
}

/// Forward shift by `shifts[c]`; `invert` shifts back (the backward pass).
pub fn shift(x: &Tensor, shifts: &[(i8, i8)], invert: bool) -> Tensor {
    let (b, c, h, w) = dims4(x);
    let mut out = Tensor::zeros(x.shape());
    for bi in 0..b {
        for ci in 0..c {
            let (mut dy, mut dx) = (shifts[ci].0 as i64, shifts[ci].1 as i64);
            if invert {
                (dy, dx) = (-dy, -dx);
            }
            for y in 0..h as i64 {
                let sy = y - dy;
                if sy < 0 || sy >= h as i64 {
                    continue;
                }
                for xp in 0..w as i64 {
                    let sx = xp - dx;
                    if sx < 0 || sx >= w as i64 {
                        continue;
                    }
                    out.set4(
                        bi,
                        ci,
                        y as usize,
                        xp as usize,
                        x.get4(bi, ci, sy as usize, sx as usize),
                    );
                }
            }
        }
    }
    out
}

/// Batch mean and (biased) variance per channel.
pub fn batchnorm_stats(x: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let (b, c, h, w) = dims4(x);
    let count = (b * h * w) as f32;
    let (mut mean, mut var) = (vec![0.0f32; c], vec![0.0f32; c]);
    for ci in 0..c {
        let mut s = 0.0;
        for bi in 0..b {
            for y in 0..h {
                for xx in 0..w {
                    s += x.get4(bi, ci, y, xx);
                }
            }
        }
        mean[ci] = s / count;
        let mut v = 0.0;
        for bi in 0..b {
            for y in 0..h {
                for xx in 0..w {
                    let d = x.get4(bi, ci, y, xx) - mean[ci];
                    v += d * d;
                }
            }
        }
        var[ci] = v / count;
    }
    (mean, var)
}

/// Normalizes with the given statistics: `(out, x_hat, inv_std)`.
pub fn batchnorm_apply(
    x: &Tensor,
    (mean, var): (&[f32], &[f32]),
    (gamma, beta): (&[f32], &[f32]),
    eps: f32,
) -> (Tensor, Tensor, Vec<f32>) {
    let (b, c, h, w) = dims4(x);
    let inv_std: Vec<f32> = var.iter().map(|v| 1.0 / (v + eps).sqrt()).collect();
    let (mut out, mut x_hat) = (Tensor::zeros(x.shape()), Tensor::zeros(x.shape()));
    for bi in 0..b {
        for ci in 0..c {
            for y in 0..h {
                for xx in 0..w {
                    let xh = (x.get4(bi, ci, y, xx) - mean[ci]) * inv_std[ci];
                    x_hat.set4(bi, ci, y, xx, xh);
                    out.set4(bi, ci, y, xx, gamma[ci] * xh + beta[ci]);
                }
            }
        }
    }
    (out, x_hat, inv_std)
}

/// `(dx, dγ, dβ)` of a training-mode batch norm.
pub fn batchnorm_backward(
    grad_out: &Tensor,
    x_hat: &Tensor,
    inv_std: &[f32],
    gamma: &[f32],
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (b, c, h, w) = dims4(grad_out);
    let count = (b * h * w) as f32;
    let mut dx = Tensor::zeros(grad_out.shape());
    let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
    for ci in 0..c {
        let (mut sum_dy, mut sum_dy_xhat) = (0.0f32, 0.0f32);
        for bi in 0..b {
            for y in 0..h {
                for xx in 0..w {
                    let dy = grad_out.get4(bi, ci, y, xx);
                    sum_dy += dy;
                    sum_dy_xhat += dy * x_hat.get4(bi, ci, y, xx);
                }
            }
        }
        (dbeta[ci], dgamma[ci]) = (sum_dy, sum_dy_xhat);
        for bi in 0..b {
            for y in 0..h {
                for xx in 0..w {
                    let (dy, xh) = (grad_out.get4(bi, ci, y, xx), x_hat.get4(bi, ci, y, xx));
                    let v =
                        gamma[ci] * inv_std[ci] * (dy - sum_dy / count - xh * sum_dy_xhat / count);
                    dx.set4(bi, ci, y, xx, v);
                }
            }
        }
    }
    (dx, dgamma, dbeta)
}

pub fn softmax_cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (b, k) = (logits.shape().dim(0), logits.shape().dim(1));
    let mut grad = Tensor::zeros(logits.shape());
    let mut total_loss = 0.0f32;
    for bi in 0..b {
        let row: Vec<f32> = (0..k).map(|c| logits.get4(bi, c, 0, 0)).collect();
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|v| (v - max).exp()).collect();
        let z: f32 = exps.iter().sum();
        total_loss += z.ln() + max - row[labels[bi]];
        for c in 0..k {
            let target = if c == labels[bi] { 1.0 } else { 0.0 };
            grad.set4(bi, c, 0, 0, (exps[c] / z - target) / b as f32);
        }
    }
    (total_loss / b as f32, grad)
}

/// Arg-max per sample; the last of equal maxima. NaN-free logits only.
pub fn predictions(logits: &Tensor) -> Vec<usize> {
    let (b, k) = (logits.shape().dim(0), logits.shape().dim(1));
    (0..b)
        .map(|bi| {
            (0..k)
                .max_by(|&a, &c| {
                    logits.get4(bi, a, 0, 0).partial_cmp(&logits.get4(bi, c, 0, 0)).unwrap()
                })
                .unwrap()
        })
        .collect()
}

/// Channel zero-padding (`out_channels > C`) or truncation of an NCHW
/// tensor: the residual shortcut's pad and its adjoint.
pub fn resize_channels(x: &Tensor, out_channels: usize) -> Tensor {
    let (b, c, h, w) = dims4(x);
    let mut out = Tensor::zeros(Shape::d4(b, out_channels, h, w));
    for bi in 0..b {
        for ci in 0..c.min(out_channels) {
            for y in 0..h {
                for xx in 0..w {
                    out.set4(bi, ci, y, xx, x.get4(bi, ci, y, xx));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests;
