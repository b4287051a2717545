//! ReLU activation.

use cc_tensor::Tensor;

/// Element-wise `max(0, x)`, matching the systolic system's ReLU block
/// (paper §4.4).
#[derive(Clone, Debug, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: None }
    }

    /// Forward pass; caches the activation mask when `training`.
    ///
    /// A select, not a branch: everything that is not `> 0.0` — negatives,
    /// `-0.0`, NaN — becomes `+0.0`.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        if training {
            self.mask = Some(x.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        let out = x.as_slice().iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
        Tensor::from_vec(x.shape(), out)
    }

    /// Backward pass: zeroes gradients where the input was non-positive.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mask = self.mask.take().expect("backward before forward");
        let dx = grad_out
            .as_slice()
            .iter()
            .zip(mask)
            .map(|(&g, keep)| if keep { g } else { 0.0 })
            .collect();
        Tensor::from_vec(grad_out.shape(), dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::Shape;

    #[test]
    fn clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(Shape::d1(4), vec![-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward(&x, false);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn gradient_gated_by_activation() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(Shape::d1(3), vec![-1.0, 1.0, 2.0]);
        let _ = r.forward(&x, true);
        let g = Tensor::from_vec(Shape::d1(3), vec![5.0, 5.0, 5.0]);
        let dx = r.backward(&g);
        assert_eq!(dx.as_slice(), &[0.0, 5.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut r = Relu::new();
        let _ = r.backward(&Tensor::zeros(Shape::d1(1)));
    }
}
