//! Every layer against its per-element reference, bit for bit, forward and
//! backward.

use super::*;
use crate::layer::{LayerKind, ResidualBlock};
use crate::layers::{
    AvgPool2, BatchNorm, Conv3x3, GlobalAvgPool, Linear, PointwiseConv, Relu, Shift,
};
use crate::loss;
use crate::param::Param;
use cc_tensor::init;

/// `(batch, channels, height, width)`: planes 1×1, 1×7, 7×7, 28×28 and
/// 5×9, batches 1, 3 and 32, channel counts 1, 6 and 120, each at least
/// once and the large ones never all together.
const CASES: [(usize, usize, usize, usize); 8] = [
    (1, 1, 1, 1),
    (3, 6, 1, 7),
    (32, 6, 7, 7),
    (1, 6, 28, 28),
    (3, 1, 28, 28),
    (3, 120, 5, 9),
    (32, 120, 1, 1),
    (32, 1, 5, 9),
];

/// Output channel counts paired with [`CASES`] in turn.
const OUT_CHANNELS: [usize; 3] = [6, 120, 1];

/// Uniform values with one in eight replaced by an exact zero, `-0.0` or a
/// subnormal: the inputs on which a select, a skipped term or a zero-seeded
/// accumulation could differ from the branchy originals.
fn sprinkled(shape: Shape, seed: u64) -> Tensor {
    const SPECIAL: [f32; 5] = [0.0, -0.0, 1e-40, -3e-42, f32::MIN_POSITIVE];
    let mut t = init::kaiming_tensor(shape, 3, seed);
    let mut state = seed | 1;
    for v in t.as_mut_slice() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        if state >> 61 == 0 {
            *v = SPECIAL[(state >> 33) as usize % SPECIAL.len()];
        }
    }
    t
}

fn sprinkled_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_tensor(sprinkled(Shape::d2(rows, cols), seed))
}

/// A binary mask keeping about a quarter of an `rows × cols` weight.
fn quarter_mask(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut m = init::sparse_matrix(rows, cols, 0.25, seed).into_tensor();
    for v in m.as_mut_slice() {
        *v = if *v != 0.0 { 1.0 } else { 0.0 };
    }
    m
}

#[track_caller]
fn assert_bits(fast: &[f32], slow: &[f32], what: &str) {
    assert_eq!(fast.len(), slow.len(), "{what}: length");
    for (i, (f, s)) in fast.iter().zip(slow).enumerate() {
        assert_eq!(f.to_bits(), s.to_bits(), "{what}: element {i} is {f:e}, reference {s:e}");
    }
}

fn differs(a: &[f32], b: &[f32]) -> bool {
    a.iter().zip(b).any(|(x, y)| x.to_bits() != y.to_bits())
}

/// What the gradient buffer must hold after a backward pass: the previous
/// content plus the fresh gradient, then the mask.
fn accumulated(prev: &[f32], fresh: &[f32], mask: Option<&Tensor>) -> Vec<f32> {
    let mut out: Vec<f32> = prev.iter().zip(fresh).map(|(p, f)| p + 1.0 * f).collect();
    if let Some(mask) = mask {
        for (o, m) in out.iter_mut().zip(mask.as_slice()) {
            *o *= m;
        }
    }
    out
}

fn params(visit: impl FnOnce(&mut dyn FnMut(&mut Param))) -> Vec<Param> {
    let mut out = Vec::new();
    visit(&mut |p| out.push(p.clone()));
    out
}

#[test]
fn pointwise_matches_oracle() {
    for (i, &(b, c, h, w)) in CASES.iter().enumerate() {
        let n = OUT_CHANNELS[i % OUT_CHANNELS.len()];
        for (biased, masked) in [(false, false), (true, true), (false, true)] {
            let seed = 100 + i as u64;
            let mut layer = PointwiseConv::new(c, n, biased, seed);
            layer.set_filter_matrix(sprinkled_matrix(n, c, seed));
            let mask = masked.then(|| quarter_mask(n, c, seed));
            if let Some(mask) = &mask {
                layer.weight_mut().set_mask(mask.clone());
            }
            let bias = biased.then(|| sprinkled(Shape::d1(n), seed + 1));
            if let Some(bias) = &bias {
                layer.visit_params(&mut |p| {
                    if p.value.shape().rank() == 1 {
                        p.value = bias.clone();
                    }
                });
            }
            let weights = layer.filter_matrix();

            let (mut dw, mut dbias) = (vec![0.0; n * c], vec![0.0; n]);
            // two rounds, so the second accumulates into a nonzero gradient
            for round in 0..2 {
                let x = sprinkled(Shape::d4(b, c, h, w), seed + 10 + round);
                let g = sprinkled(Shape::d4(b, n, h, w), seed + 20 + round);
                let what = format!("pointwise {b}×{c}×{h}×{w} → {n}, bias {biased}, mask {masked}");

                let y = layer.forward(&x, true);
                let y_ref = pointwise_forward(&weights, bias.as_ref().map(|t| t.as_slice()), &x);
                assert_bits(y.as_slice(), y_ref.as_slice(), &format!("{what}: y"));
                assert_bits(layer.forward(&x, false).as_slice(), y_ref.as_slice(), &what);

                let dx = layer.backward(&g);
                let grads = pointwise_backward(&weights, &x, &g);
                assert_bits(dx.as_slice(), grads.dx.as_slice(), &format!("{what}: dx"));
                dw = accumulated(&dw, grads.dw.as_slice(), mask.as_ref());
                assert_bits(layer.weight().grad.as_slice(), &dw, &format!("{what}: dW"));
                if let Some(p) = layer.bias() {
                    dbias.iter_mut().zip(&grads.dbias).for_each(|(d, s)| *d += s);
                    assert_bits(p.grad.as_slice(), &dbias, &format!("{what}: dbias"));
                }
            }
        }
    }
}

#[test]
fn linear_matches_oracle() {
    for (i, &(b, c, h, w)) in CASES.iter().enumerate() {
        let (feat, out) = (c * h * w, [10, 1, 6][i % 3]);
        let seed = 200 + i as u64;
        let mut layer = Linear::new(feat, out, seed);
        let mask = (i % 2 == 1).then(|| quarter_mask(out, feat, seed));
        layer.weight_mut().value = sprinkled(Shape::d2(out, feat), seed);
        if let Some(mask) = &mask {
            layer.weight_mut().set_mask(mask.clone());
        }
        let bias = sprinkled(Shape::d1(out), seed + 1);
        layer.visit_params(&mut |p| {
            if p.value.shape().rank() == 1 {
                p.value = bias.clone();
            }
        });
        let weights = Matrix::from_tensor(layer.weight().value.clone());

        let (mut dw, mut dbias) = (vec![0.0; out * feat], vec![0.0; out]);
        for round in 0..2 {
            let x = sprinkled(Shape::d4(b, c, h, w), seed + 10 + round);
            let g = sprinkled(Shape::d4(b, out, 1, 1), seed + 20 + round);
            let what = format!("linear {b}×{feat} → {out}");

            let y = layer.forward(&x, true);
            let y_ref = linear_forward(&weights, bias.as_slice(), &x);
            assert_eq!(y.shape(), y_ref.shape());
            assert_bits(y.as_slice(), y_ref.as_slice(), &format!("{what}: y"));

            let dx = layer.backward(&g);
            let grads = linear_backward(&weights, &x, &g, &dbias);
            assert_eq!(dx.shape(), x.shape());
            assert_bits(dx.as_slice(), grads.dx.as_slice(), &format!("{what}: dx"));
            dw = accumulated(&dw, grads.dw.as_slice(), mask.as_ref());
            assert_bits(layer.weight().grad.as_slice(), &dw, &format!("{what}: dW"));
            dbias = grads.dbias;
            assert_bits(layer.bias().grad.as_slice(), &dbias, &format!("{what}: dbias"));
        }
    }
}

#[test]
fn conv3x3_matches_oracle() {
    let cases =
        [(1, 1, 1, 1), (3, 6, 1, 7), (3, 6, 7, 7), (1, 1, 28, 28), (32, 1, 5, 9), (1, 120, 2, 1)];
    for (i, &(b, c, h, w)) in cases.iter().enumerate() {
        let n = OUT_CHANNELS[i % OUT_CHANNELS.len()].min(12);
        let seed = 300 + i as u64;
        let mut layer = Conv3x3::new(c, n, seed);
        layer.weight_mut().value = sprinkled(Shape::d2(n, c * 9), seed);
        let mask = (i % 2 == 0).then(|| quarter_mask(n, c * 9, seed));
        if let Some(mask) = &mask {
            layer.weight_mut().set_mask(mask.clone());
        }
        let weights = layer.filter_matrix();
        let x = sprinkled(Shape::d4(b, c, h, w), seed + 1);
        let g = sprinkled(Shape::d4(b, n, h, w), seed + 2);
        let what = format!("conv3x3 {b}×{c}×{h}×{w} → {n}");

        assert_eq!(crate::layers::conv3x3::im2col(&x), im2col(&x), "{what}: im2col");
        let y = layer.forward(&x, true);
        assert_bits(y.as_slice(), conv3x3_forward(&weights, &x).as_slice(), &format!("{what}: y"));
        let dx = layer.backward(&g);
        let grads = conv3x3_backward(&weights, &x, &g);
        assert_bits(dx.as_slice(), grads.dx.as_slice(), &format!("{what}: dx"));
        let dw = accumulated(&vec![0.0; n * c * 9], grads.dw.as_slice(), mask.as_ref());
        assert_bits(layer.weight().grad.as_slice(), &dw, &format!("{what}: dW"));
    }
}

#[test]
fn relu_matches_oracle() {
    for (i, &(b, c, h, w)) in CASES.iter().enumerate() {
        let mut x = sprinkled(Shape::d4(b, c, h, w), 400 + i as u64);
        x[0] = f32::NAN;
        let g = sprinkled(x.shape(), 450 + i as u64);
        let mut layer = Relu::new();
        let (y_ref, mask) = relu_forward(&x);
        assert_bits(layer.forward(&x, true).as_slice(), y_ref.as_slice(), "relu y");
        assert_bits(layer.backward(&g).as_slice(), relu_backward(&g, &mask).as_slice(), "relu dx");
        assert_bits(layer.forward(&x, false).as_slice(), y_ref.as_slice(), "relu eval y");
    }
}

#[test]
fn pools_match_oracle() {
    for (i, &(b, c, h, w)) in CASES.iter().enumerate() {
        let x = sprinkled(Shape::d4(b, c, h, w), 500 + i as u64);
        let what = format!("{b}×{c}×{h}×{w}");

        let mut pool = AvgPool2::new();
        let y = pool.forward(&x, true);
        let y_ref = avgpool_forward(&x);
        assert_eq!(y.shape(), y_ref.shape(), "avgpool {what}");
        assert_bits(y.as_slice(), y_ref.as_slice(), &format!("avgpool {what}: y"));
        let g = sprinkled(y.shape(), 550 + i as u64);
        let dx = pool.backward(&g);
        assert_bits(
            dx.as_slice(),
            avgpool_backward(&g, x.shape()).as_slice(),
            &format!("avgpool {what}: dx"),
        );

        let mut gap = GlobalAvgPool::new();
        let y = gap.forward(&x, true);
        assert_bits(y.as_slice(), gap_forward(&x).as_slice(), &format!("gap {what}: y"));
        let g = sprinkled(y.shape(), 560 + i as u64);
        let dx = gap.backward(&g);
        assert_bits(
            dx.as_slice(),
            gap_backward(&g, x.shape()).as_slice(),
            &format!("gap {what}: dx"),
        );
    }
}

#[test]
fn shift_matches_oracle() {
    // all nine offsets of the 3×3 neighbourhood, then offsets at and past
    // the plane edge on either axis (every plane here is at most 28 wide)
    let mut shifts: Vec<(i8, i8)> = Shift::new(9).shifts().to_vec();
    shifts.extend([(5, 0), (0, -9), (-7, 7), (28, -28), (1, 100), (-100, -1), (27, 27)]);
    for (i, &(b, _, h, w)) in CASES.iter().enumerate() {
        let x = sprinkled(Shape::d4(b, shifts.len(), h, w), 600 + i as u64);
        let layer = Shift::with_shifts(shifts.clone());
        let what = format!("shift {b}×{h}×{w}");
        assert_bits(layer.forward(&x).as_slice(), shift(&x, &shifts, false).as_slice(), &what);
        assert_bits(layer.backward(&x).as_slice(), shift(&x, &shifts, true).as_slice(), &what);
    }
}

#[test]
fn batchnorm_matches_oracle() {
    for (i, &(b, c, h, w)) in CASES.iter().enumerate() {
        let seed = 700 + i as u64;
        let mut layer = BatchNorm::new(c);
        let (gamma, beta) = (sprinkled(Shape::d1(c), seed), sprinkled(Shape::d1(c), seed + 1));
        let mut values = [gamma.clone(), beta.clone()].into_iter();
        layer.visit_params(&mut |p| p.value = values.next().expect("γ then β"));
        let affine = (gamma.as_slice(), beta.as_slice());

        let (mut run_mean, mut run_var) = (vec![0.0f32; c], vec![1.0f32; c]);
        let (mut dgamma, mut dbeta) = (vec![0.0f32; c], vec![0.0f32; c]);
        for round in 0..2 {
            let x = sprinkled(Shape::d4(b, c, h, w), seed + 10 + round);
            let g = sprinkled(x.shape(), seed + 20 + round);
            let what = format!("batchnorm {b}×{c}×{h}×{w} round {round}");

            let y = layer.forward(&x, true);
            let (mean, var) = batchnorm_stats(&x);
            let (y_ref, x_hat, inv_std) = batchnorm_apply(&x, (&mean, &var), affine, layer.eps());
            assert_bits(y.as_slice(), y_ref.as_slice(), &format!("{what}: y"));
            for ci in 0..c {
                run_mean[ci] = (1.0 - 0.1) * run_mean[ci] + 0.1 * mean[ci];
                run_var[ci] = (1.0 - 0.1) * run_var[ci] + 0.1 * var[ci];
            }
            assert_bits(layer.running_mean(), &run_mean, &format!("{what}: running mean"));
            assert_bits(layer.running_var(), &run_var, &format!("{what}: running var"));

            let dx = layer.backward(&g);
            let (dx_ref, dg, db) = batchnorm_backward(&g, &x_hat, &inv_std, gamma.as_slice());
            assert_bits(dx.as_slice(), dx_ref.as_slice(), &format!("{what}: dx"));
            dgamma.iter_mut().zip(&dg).for_each(|(d, s)| *d += s);
            dbeta.iter_mut().zip(&db).for_each(|(d, s)| *d += s);
            let p = params(|f| layer.visit_params(f));
            assert_bits(p[0].grad.as_slice(), &dgamma, &format!("{what}: dγ"));
            assert_bits(p[1].grad.as_slice(), &dbeta, &format!("{what}: dβ"));

            let y_eval = layer.forward(&x, false);
            let (y_ref, _, _) = batchnorm_apply(&x, (&run_mean, &run_var), affine, layer.eps());
            assert_bits(y_eval.as_slice(), y_ref.as_slice(), &format!("{what}: eval y"));
        }
    }
}

#[test]
fn loss_matches_oracle() {
    for (i, b) in [1usize, 3, 32].into_iter().enumerate() {
        let mut logits = sprinkled(Shape::d4(b, 10, 1, 1), 800 + i as u64);
        logits.scale(6.0);
        logits[3] = logits[7]; // a tie within sample 0
        let labels: Vec<usize> = (0..b).map(|bi| (bi * 7 + i) % 10).collect();
        let (loss, grad) = loss::softmax_cross_entropy(&logits, &labels);
        let (loss_ref, grad_ref) = softmax_cross_entropy(&logits, &labels);
        assert_eq!(loss.to_bits(), loss_ref.to_bits(), "loss at batch {b}");
        assert_bits(grad.as_slice(), grad_ref.as_slice(), "dlogits");
        assert_eq!(loss::predictions(&logits), predictions(&logits), "predictions at batch {b}");
    }
}

/// One residual body: pool (when downsampling), shift, pointwise, batch
/// norm, ReLU.
fn residual_body(in_ch: usize, out_ch: usize, seed: u64) -> Vec<LayerKind> {
    let mut body = Vec::new();
    if in_ch != out_ch {
        body.push(LayerKind::AvgPool(AvgPool2::new()));
    }
    body.push(LayerKind::Shift(Shift::new(in_ch)));
    let mut pw = PointwiseConv::new(in_ch, out_ch, false, seed);
    pw.set_filter_matrix(sprinkled_matrix(out_ch, in_ch, seed));
    body.push(LayerKind::Pointwise(pw));
    body.push(LayerKind::BatchNorm(BatchNorm::new(out_ch)));
    body.push(LayerKind::Relu(Relu::new()));
    body
}

/// The block must be its body run layer by layer (each layer is held to
/// its own reference above) plus the per-element shortcut.
#[test]
fn residual_block_matches_composition() {
    // 7 → 3: the shortcut pool drops the odd row and column
    for (in_ch, out_ch, b, hw) in [(6, 6, 3, 7), (6, 12, 3, 7), (1, 4, 32, 2), (4, 4, 1, 1)] {
        let seed = 900 + (in_ch * out_ch) as u64;
        let mut body = residual_body(in_ch, out_ch, seed);
        let mut block = if in_ch == out_ch {
            ResidualBlock::identity(body.clone(), out_ch)
        } else {
            ResidualBlock::downsampling(body.clone(), in_ch, out_ch)
        };
        let x = sprinkled(Shape::d4(b, in_ch, hw, hw), seed + 1);
        let what = format!("residual {in_ch} → {out_ch} at {b}×{hw}×{hw}");

        let y = block.forward(&x, true);
        let mut h = x.clone();
        for layer in &mut body {
            h = layer.forward(&h, true);
        }
        let shortcut =
            if in_ch == out_ch { x.clone() } else { resize_channels(&avgpool_forward(&x), out_ch) };
        assert_eq!(y.shape(), h.shape(), "{what}");
        let y_ref: Vec<f32> =
            h.as_slice().iter().zip(shortcut.as_slice()).map(|(h, s)| h + 1.0 * s).collect();
        assert_bits(y.as_slice(), &y_ref, &format!("{what}: y"));

        let g = sprinkled(y.shape(), seed + 2);
        let dx = block.backward(&g);
        let mut g_body = g.clone();
        for layer in body.iter_mut().rev() {
            g_body = layer.backward(&g_body);
        }
        let g_short = if in_ch == out_ch {
            g.clone()
        } else {
            avgpool_backward(&resize_channels(&g, in_ch), x.shape())
        };
        let dx_ref: Vec<f32> =
            g_short.as_slice().iter().zip(g_body.as_slice()).map(|(s, b)| s + 1.0 * b).collect();
        assert_eq!(dx.shape(), x.shape(), "{what}");
        assert_bits(dx.as_slice(), &dx_ref, &format!("{what}: dx"));
    }
}

/// The references above are only worth their bits if a plausible "faster"
/// rewrite fails them: a weight gradient summed in four interleaved lanes
/// (what a reduction-vectorised dot product does) and a forward pass with a
/// fused multiply-add must each differ from the reference somewhere.
#[test]
fn suite_tells_summation_orders_apart() {
    let (b, c, n, hw) = (3, 6, 6, 7);
    let w = init::kaiming_matrix(n, c, 1);
    let x = init::kaiming_tensor(Shape::d4(b, c, hw, hw), c, 2);
    let g = init::kaiming_tensor(Shape::d4(b, n, hw, hw), n, 3);
    let reference = pointwise_backward(&w, &x, &g);

    let mut lanes_dw = Matrix::zeros(n, c);
    for ni in 0..n {
        for mi in 0..c {
            let mut lane = [0.0f32; 4];
            for j in 0..b * hw * hw {
                let (bi, p) = (j / (hw * hw), j % (hw * hw));
                lane[j % 4] += g.get4(bi, ni, p / hw, p % hw) * x.get4(bi, mi, p / hw, p % hw);
            }
            lanes_dw.set(ni, mi, (lane[0] + lane[1]) + (lane[2] + lane[3]));
        }
    }
    assert!(
        differs(lanes_dw.as_slice(), reference.dw.as_slice()),
        "a lane-split dW went unnoticed"
    );
    let close =
        lanes_dw.as_slice().iter().zip(reference.dw.as_slice()).all(|(a, b)| (a - b).abs() < 1e-3);
    assert!(close, "the lane-split dW is a reordering, not a different sum");

    let mut fused = Tensor::zeros(Shape::d4(b, n, hw, hw));
    for bi in 0..b {
        for ni in 0..n {
            for p in 0..hw * hw {
                let mut s = 0.0f32;
                for mi in 0..c {
                    s = w.get(ni, mi).mul_add(x.get4(bi, mi, p / hw, p % hw), s);
                }
                fused.set4(bi, ni, p / hw, p % hw, s);
            }
        }
    }
    assert!(
        differs(fused.as_slice(), pointwise_forward(&w, None, &x).as_slice()),
        "a fused multiply-add went unnoticed"
    );
}
