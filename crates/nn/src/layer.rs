//! Layer dispatch: a closed enum over every layer type, plus residual
//! blocks.

use crate::layers::batchnorm::BatchNorm;
use crate::layers::conv3x3::Conv3x3;
use crate::layers::linear::Linear;
use crate::layers::pointwise::{dims4, PointwiseConv};
use crate::layers::pool::{AvgPool2, GlobalAvgPool};
use crate::layers::relu::Relu;
use crate::layers::shift::Shift;
use crate::param::Param;
use cc_tensor::{pool, Shape, Tensor};

/// One layer of a [`crate::Network`].
///
/// A closed enum keeps dispatch static and lets the packing code walk every
/// pointwise convolution — including those nested in residual blocks — in a
/// deterministic topological order.
#[derive(Clone, Debug)]
pub enum LayerKind {
    /// Pointwise (1×1) convolution — the packable layer.
    Pointwise(PointwiseConv),
    /// Standard 3×3 convolution (the Fig. 2 baseline; not packed here).
    Conv3x3(Conv3x3),
    /// Zero-FLOP per-channel spatial shift.
    Shift(Shift),
    /// Per-channel batch normalization.
    BatchNorm(BatchNorm),
    /// ReLU activation.
    Relu(Relu),
    /// 2×2 stride-2 average pooling.
    AvgPool(AvgPool2),
    /// Global average pooling.
    GlobalAvgPool(GlobalAvgPool),
    /// Fully-connected classifier head.
    Linear(Linear),
    /// Residual block with identity (or downsampling) shortcut.
    Residual(ResidualBlock),
}

impl LayerKind {
    /// Forward pass; caches activations when `training`.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        match self {
            LayerKind::Pointwise(l) => l.forward(x, training),
            LayerKind::Conv3x3(l) => l.forward(x, training),
            LayerKind::Shift(l) => l.forward(x),
            LayerKind::BatchNorm(l) => l.forward(x, training),
            LayerKind::Relu(l) => l.forward(x, training),
            LayerKind::AvgPool(l) => l.forward(x, training),
            LayerKind::GlobalAvgPool(l) => l.forward(x, training),
            LayerKind::Linear(l) => l.forward(x, training),
            LayerKind::Residual(l) => l.forward(x, training),
        }
    }

    /// Backward pass; consumes cached activations.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self {
            LayerKind::Pointwise(l) => l.backward(grad_out),
            LayerKind::Conv3x3(l) => l.backward(grad_out),
            LayerKind::Shift(l) => l.backward(grad_out),
            LayerKind::BatchNorm(l) => l.backward(grad_out),
            LayerKind::Relu(l) => l.backward(grad_out),
            LayerKind::AvgPool(l) => l.backward(grad_out),
            LayerKind::GlobalAvgPool(l) => l.backward(grad_out),
            LayerKind::Linear(l) => l.backward(grad_out),
            LayerKind::Residual(l) => l.backward(grad_out),
        }
    }

    /// Visits every trainable parameter in this layer (depth-first).
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        match self {
            LayerKind::Pointwise(l) => l.visit_params(f),
            LayerKind::Conv3x3(l) => l.visit_params(f),
            LayerKind::BatchNorm(l) => l.visit_params(f),
            LayerKind::Linear(l) => l.visit_params(f),
            LayerKind::Residual(l) => l.visit_params(f),
            LayerKind::Shift(_)
            | LayerKind::Relu(_)
            | LayerKind::AvgPool(_)
            | LayerKind::GlobalAvgPool(_) => {}
        }
    }

    /// Visits every pointwise convolution (depth-first, in execution order).
    pub fn visit_pointwise(&mut self, f: &mut dyn FnMut(&mut PointwiseConv)) {
        match self {
            LayerKind::Pointwise(l) => f(l),
            LayerKind::Residual(l) => l.visit_pointwise(f),
            _ => {}
        }
    }

    /// Immutable variant of [`LayerKind::visit_pointwise`].
    pub fn visit_pointwise_ref(&self, f: &mut dyn FnMut(&PointwiseConv)) {
        match self {
            LayerKind::Pointwise(l) => f(l),
            LayerKind::Residual(l) => l.visit_pointwise_ref(f),
            _ => {}
        }
    }
}

/// A pre-activation-style residual block: `y = body(x) + shortcut(x)`.
///
/// When `in_channels != out_channels` (stage transition in ResNet-20) the
/// shortcut average-pools spatially by 2× and zero-pads the extra channels,
/// the standard parameter-free option for CIFAR ResNets.
#[derive(Clone, Debug)]
pub struct ResidualBlock {
    body: Vec<LayerKind>,
    downsample: bool,
    in_channels: usize,
    out_channels: usize,
    cache_in_shape: Option<Shape>,
    shortcut_pool: AvgPool2,
}

impl ResidualBlock {
    /// Wraps `body` layers with an identity shortcut.
    pub fn identity(body: Vec<LayerKind>, channels: usize) -> Self {
        ResidualBlock {
            body,
            downsample: false,
            in_channels: channels,
            out_channels: channels,
            cache_in_shape: None,
            shortcut_pool: AvgPool2::new(),
        }
    }

    /// Wraps `body` layers with a downsampling (pool + zero-pad) shortcut.
    ///
    /// # Panics
    ///
    /// Panics if `out_channels < in_channels`.
    pub fn downsampling(body: Vec<LayerKind>, in_channels: usize, out_channels: usize) -> Self {
        assert!(out_channels >= in_channels, "cannot shrink channels in shortcut");
        ResidualBlock {
            body,
            downsample: true,
            in_channels,
            out_channels,
            cache_in_shape: None,
            shortcut_pool: AvgPool2::new(),
        }
    }

    /// The block's body layers.
    pub fn body(&self) -> &[LayerKind] {
        &self.body
    }

    /// Mutable access to the body layers.
    pub fn body_mut(&mut self) -> &mut [LayerKind] {
        &mut self.body
    }

    /// `true` when the shortcut pools spatially and zero-pads channels.
    pub fn is_downsampling(&self) -> bool {
        self.downsample
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        if training {
            self.cache_in_shape = Some(x.shape());
        }
        let mut h = forward_chain(&mut self.body, x, training);
        if self.downsample {
            let pooled = self.shortcut_pool.forward(x, training);
            let padded = pad_channels(&pooled, self.out_channels);
            add_shortcut(&mut h, &padded);
            pool::recycle(pooled);
            pool::recycle(padded);
        } else {
            add_shortcut(&mut h, x);
        }
        h
    }

    /// Backward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self.cache_in_shape.take().expect("backward before forward");
        let mut g = backward_chain(&mut self.body, grad_out);
        assert_eq!(g.shape(), in_shape, "body gradient shape mismatch");
        let pooled_grad = self.downsample.then(|| {
            let unpadded = unpad_channels(grad_out, self.in_channels);
            let pooled_grad = self.shortcut_pool.backward(&unpadded);
            pool::recycle(unpadded);
            pooled_grad
        });
        let g_short = pooled_grad.as_ref().unwrap_or(grad_out);
        // shortcut gradient + body gradient, in that operand order
        for (gv, s) in g.as_mut_slice().iter_mut().zip(g_short.as_slice()) {
            *gv = s + 1.0 * *gv;
        }
        if let Some(pooled_grad) = pooled_grad {
            pool::recycle(pooled_grad);
        }
        g
    }

    /// Visits trainable parameters in the body.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.body {
            layer.visit_params(f);
        }
    }

    /// Visits pointwise convolutions in the body.
    pub fn visit_pointwise(&mut self, f: &mut dyn FnMut(&mut PointwiseConv)) {
        for layer in &mut self.body {
            layer.visit_pointwise(f);
        }
    }

    /// Immutable variant of [`ResidualBlock::visit_pointwise`].
    pub fn visit_pointwise_ref(&self, f: &mut dyn FnMut(&PointwiseConv)) {
        for layer in &self.body {
            layer.visit_pointwise_ref(f);
        }
    }
}

/// Runs `layers` front to back on `x`. Each intermediate activation goes
/// back to [`cc_tensor::pool`] once the next layer has read it.
pub(crate) fn forward_chain(layers: &mut [LayerKind], x: &Tensor, training: bool) -> Tensor {
    let Some((first, rest)) = layers.split_first_mut() else {
        return pool::copy_of(x);
    };
    let mut h = first.forward(x, training);
    for layer in rest {
        let next = layer.forward(&h, training);
        pool::recycle(std::mem::replace(&mut h, next));
    }
    h
}

/// Runs `layers` back to front on the gradient of their output, recycling
/// each intermediate gradient as [`forward_chain`] does activations.
pub(crate) fn backward_chain(layers: &mut [LayerKind], grad_out: &Tensor) -> Tensor {
    let Some((last, rest)) = layers.split_last_mut() else {
        return pool::copy_of(grad_out);
    };
    let mut g = last.backward(grad_out);
    for layer in rest.iter_mut().rev() {
        let next = layer.backward(&g);
        pool::recycle(std::mem::replace(&mut g, next));
    }
    g
}

/// `h += shortcut`, the residual add.
fn add_shortcut(h: &mut Tensor, shortcut: &Tensor) {
    assert_eq!(h.shape(), shortcut.shape(), "residual add shape mismatch");
    h.axpy(1.0, shortcut);
}

/// Zero-pads channels of an NCHW tensor up to `out_channels`.
fn pad_channels(x: &Tensor, out_channels: usize) -> Tensor {
    let (b, c, h, w) = dims4(x);
    if c == out_channels {
        return pool::copy_of(x);
    }
    let mut out = pool::zeros(Shape::d4(b, out_channels, h, w));
    let hw = h * w;
    for bi in 0..b {
        for ci in 0..c {
            let src = &x.as_slice()[(bi * c + ci) * hw..(bi * c + ci + 1) * hw];
            out.as_mut_slice()[(bi * out_channels + ci) * hw..(bi * out_channels + ci) * hw + hw]
                .copy_from_slice(src);
        }
    }
    out
}

/// Drops padded channels, keeping the first `in_channels`.
fn unpad_channels(x: &Tensor, in_channels: usize) -> Tensor {
    let (b, c, h, w) = dims4(x);
    if c == in_channels {
        return pool::copy_of(x);
    }
    let mut out = pool::zeros(Shape::d4(b, in_channels, h, w));
    let hw = h * w;
    for bi in 0..b {
        for ci in 0..in_channels {
            let src = &x.as_slice()[(bi * c + ci) * hw..(bi * c + ci + 1) * hw];
            out.as_mut_slice()[(bi * in_channels + ci) * hw..(bi * in_channels + ci) * hw + hw]
                .copy_from_slice(src);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::init;

    fn body(channels: usize, seed: u64) -> Vec<LayerKind> {
        vec![
            LayerKind::Shift(Shift::new(channels)),
            LayerKind::Pointwise(PointwiseConv::new(channels, channels, false, seed)),
            LayerKind::Relu(Relu::new()),
        ]
    }

    #[test]
    fn identity_block_adds_input() {
        let mut block = ResidualBlock::identity(body(2, 1), 2);
        let x = init::kaiming_tensor(Shape::d4(1, 2, 4, 4), 2, 2);
        let y = block.forward(&x, false);
        assert_eq!(y.shape(), x.shape());
        // zero body weights → output equals input
        let mut zero_block = ResidualBlock::identity(
            vec![LayerKind::Pointwise(PointwiseConv::new(2, 2, false, 1))],
            2,
        );
        zero_block.body[0].visit_pointwise(&mut |pw| {
            pw.weight_mut().value.as_mut_slice().fill(0.0);
        });
        let y0 = zero_block.forward(&x, false);
        assert_eq!(y0, x);
    }

    #[test]
    fn downsampling_block_halves_and_pads() {
        let mut conv_body = vec![
            LayerKind::AvgPool(AvgPool2::new()),
            LayerKind::Pointwise(PointwiseConv::new(2, 4, false, 3)),
        ];
        conv_body[1].visit_pointwise(&mut |pw| {
            pw.weight_mut().value.as_mut_slice().fill(0.0);
        });
        let mut block = ResidualBlock::downsampling(conv_body, 2, 4);
        let x = Tensor::full(Shape::d4(1, 2, 4, 4), 2.0);
        let y = block.forward(&x, false);
        assert_eq!(y.shape().dims(), &[1, 4, 2, 2]);
        // body is zero → output is pooled, padded identity
        assert_eq!(y.get4(0, 0, 0, 0), 2.0);
        assert_eq!(y.get4(0, 3, 0, 0), 0.0);
    }

    #[test]
    fn residual_backward_matches_finite_difference() {
        let mut block = ResidualBlock::identity(body(2, 5), 2);
        let x = init::kaiming_tensor(Shape::d4(1, 2, 3, 3), 2, 7);
        let y = block.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let dx = block.backward(&ones);
        let eps = 1e-3;
        for i in (0..x.len()).step_by(3) {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let yp = block.forward(&xp, false).sum();
            let ym = block.forward(&xm, false).sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!((dx[i] - num).abs() < 1e-2, "residual dx mismatch at {i}");
        }
    }

    #[test]
    fn pad_unpad_roundtrip() {
        let x = init::kaiming_tensor(Shape::d4(2, 3, 2, 2), 3, 4);
        let padded = pad_channels(&x, 5);
        assert_eq!(padded.shape().dims(), &[2, 5, 2, 2]);
        let back = unpad_channels(&padded, 3);
        assert_eq!(back, x);
    }

    #[test]
    fn visit_pointwise_reaches_nested() {
        let mut block = LayerKind::Residual(ResidualBlock::identity(body(2, 9), 2));
        let mut count = 0;
        block.visit_pointwise(&mut |_| count += 1);
        assert_eq!(count, 1);
    }
}
