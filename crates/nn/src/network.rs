//! Sequential network container.

use crate::layer::{backward_chain, forward_chain, LayerKind};
use crate::layers::pointwise::PointwiseConv;
use crate::param::Param;
use cc_tensor::Tensor;

/// A feed-forward network: a sequence of [`LayerKind`]s ending in a
/// classifier head that outputs `(B, num_classes, 1, 1)` logits.
///
/// The packing pipeline addresses the network's pointwise convolutions by
/// *pointwise index*: their order in a depth-first, execution-order walk
/// (residual-block bodies are walked inline). That order is stable, which is
/// what lets `cc-packing` associate column groups with layers across the
/// iterations of Algorithm 1.
#[derive(Clone, Debug)]
pub struct Network {
    layers: Vec<LayerKind>,
    num_classes: usize,
    name: String,
}

impl Network {
    /// Builds a network from layers.
    pub fn new(name: impl Into<String>, layers: Vec<LayerKind>, num_classes: usize) -> Self {
        Network { layers, num_classes, name: name.into() }
    }

    /// A descriptive model name (e.g. `"lenet5-shift"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The network's layers.
    pub fn layers(&self) -> &[LayerKind] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [LayerKind] {
        &mut self.layers
    }

    /// Forward pass producing logits. `training` controls batch-norm
    /// statistics and activation caching.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        forward_chain(&mut self.layers, x, training)
    }

    /// Backward pass from the loss gradient on the logits.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        cc_tensor::pool::recycle(backward_chain(&mut self.layers, grad_logits));
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Visits every trainable parameter depth-first.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    /// Visits every pointwise convolution in execution order, passing its
    /// pointwise index.
    pub fn visit_pointwise(&mut self, f: &mut dyn FnMut(usize, &mut PointwiseConv)) {
        let mut idx = 0;
        for layer in &mut self.layers {
            layer.visit_pointwise(&mut |pw| {
                f(idx, pw);
                idx += 1;
            });
        }
    }

    /// Immutable walk over pointwise convolutions in execution order.
    pub fn visit_pointwise_ref(&self, f: &mut dyn FnMut(usize, &PointwiseConv)) {
        let mut idx = 0;
        for layer in &self.layers {
            layer.visit_pointwise_ref(&mut |pw| {
                f(idx, pw);
                idx += 1;
            });
        }
    }

    /// Number of pointwise convolution layers.
    pub fn num_pointwise(&self) -> usize {
        let mut n = 0;
        self.visit_pointwise_ref(&mut |_, _| n += 1);
        n
    }

    /// Applies `f` to the pointwise convolution with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn with_pointwise<R>(
        &mut self,
        index: usize,
        f: impl FnOnce(&mut PointwiseConv) -> R,
    ) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.visit_pointwise(&mut |i, pw| {
            if i == index {
                let f = f.take().expect("pointwise index visited twice");
                out = Some(f(pw));
            }
        });
        out.expect("pointwise index out of range")
    }

    /// Total number of scalar parameters.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }

    /// Number of nonzero weights in the *prunable* layers (pointwise convs),
    /// the quantity `‖Ĉ‖₀` that Algorithm 1 drives below the target ρ.
    pub fn nonzero_conv_weights(&self) -> usize {
        let mut n = 0;
        self.visit_pointwise_ref(&mut |_, pw| n += pw.weight().count_nonzero());
        n
    }

    /// Re-applies every pruning mask (used after optimizer steps).
    pub fn apply_masks(&mut self) {
        self.visit_params(&mut |p| p.apply_mask());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, PointwiseConv, Relu, Shift};
    use cc_tensor::{init, Shape};

    fn tiny_net() -> Network {
        Network::new(
            "tiny",
            vec![
                LayerKind::Shift(Shift::new(2)),
                LayerKind::Pointwise(PointwiseConv::new(2, 4, false, 1)),
                LayerKind::Relu(Relu::new()),
                LayerKind::Pointwise(PointwiseConv::new(4, 3, false, 2)),
                LayerKind::Linear(Linear::new(3 * 4 * 4, 2, 3)),
            ],
            2,
        )
    }

    #[test]
    fn forward_shapes() {
        let mut net = tiny_net();
        let x = init::kaiming_tensor(Shape::d4(2, 2, 4, 4), 2, 4);
        let y = net.forward(&x, false);
        assert_eq!(y.shape().dims(), &[2, 2, 1, 1]);
    }

    #[test]
    fn pointwise_enumeration_is_stable() {
        let mut net = tiny_net();
        let mut dims = Vec::new();
        net.visit_pointwise(&mut |i, pw| dims.push((i, pw.in_channels(), pw.out_channels())));
        assert_eq!(dims, vec![(0, 2, 4), (1, 4, 3)]);
        assert_eq!(net.num_pointwise(), 2);
    }

    #[test]
    fn with_pointwise_targets_layer() {
        let mut net = tiny_net();
        let out = net.with_pointwise(1, |pw| pw.out_channels());
        assert_eq!(out, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn with_pointwise_bad_index_panics() {
        let mut net = tiny_net();
        net.with_pointwise(5, |_| ());
    }

    #[test]
    fn nonzero_counts_track_masks() {
        let mut net = tiny_net();
        let before = net.nonzero_conv_weights();
        assert_eq!(before, 2 * 4 + 4 * 3);
        net.with_pointwise(0, |pw| {
            let mut mask = Tensor::full(Shape::d2(4, 2), 1.0);
            mask.set2(0, 0, 0.0);
            pw.weight_mut().set_mask(mask);
        });
        assert_eq!(net.nonzero_conv_weights(), before - 1);
    }

    #[test]
    fn backward_runs_end_to_end() {
        let mut net = tiny_net();
        let x = init::kaiming_tensor(Shape::d4(1, 2, 4, 4), 2, 5);
        let y = net.forward(&x, true);
        net.zero_grad();
        net.backward(&Tensor::full(y.shape(), 1.0));
        let mut total_grad = 0.0f32;
        net.visit_params(&mut |p| total_grad += p.grad.as_slice().iter().map(|g| g.abs()).sum::<f32>());
        assert!(total_grad > 0.0);
    }
}
