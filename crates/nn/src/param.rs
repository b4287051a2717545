//! Trainable parameters with pruning masks.

use cc_tensor::Tensor;

/// A trainable tensor bundled with its gradient, momentum buffer and an
/// optional binary pruning mask.
///
/// The mask implements the paper's weight pruning (§2.4, §3): a zero mask
/// entry pins the corresponding weight at zero through both the forward pass
/// (weights are multiplied by the mask when pruned) and the update step (the
/// optimizer re-applies the mask after every step), so pruned weights never
/// regrow during the retraining phases of Algorithm 1.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient accumulated by the most recent backward pass.
    pub grad: Tensor,
    /// Momentum (velocity) buffer for SGD with Nesterov momentum.
    pub velocity: Tensor,
    /// Optional binary pruning mask (1 = keep, 0 = pruned).
    pub mask: Option<Tensor>,
}

impl Param {
    /// Wraps an initial value with zeroed gradient/velocity and no mask.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        let velocity = Tensor::zeros(value.shape());
        Param { value, grad, velocity, mask: None }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` when the parameter tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Zeroes the gradient buffer.
    pub fn zero_grad(&mut self) {
        self.grad.as_mut_slice().fill(0.0);
    }

    /// Adds a freshly computed gradient `dw` to the gradient buffer, then
    /// zeroes the pruned positions so masked weights collect no gradient.
    pub(crate) fn accumulate_grad(&mut self, dw: &Tensor) {
        self.grad.axpy(1.0, dw);
        if let Some(mask) = &self.mask {
            for (gv, mv) in self.grad.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                *gv *= mv;
            }
        }
    }

    /// Installs (or replaces) a pruning mask and immediately applies it to
    /// the values so pruned weights become exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if the mask shape differs from the value shape, or if the mask
    /// contains entries other than 0.0 and 1.0.
    pub fn set_mask(&mut self, mask: Tensor) {
        assert_eq!(mask.shape(), self.value.shape(), "mask shape mismatch");
        assert!(
            mask.as_slice().iter().all(|&v| v == 0.0 || v == 1.0),
            "mask must be binary"
        );
        self.mask = Some(mask);
        self.apply_mask();
    }

    /// Removes the pruning mask (weights may regrow afterwards).
    pub fn clear_mask(&mut self) {
        self.mask = None;
    }

    /// Multiplies values (and velocity) by the mask, if any.
    pub fn apply_mask(&mut self) {
        if let Some(mask) = &self.mask {
            for (v, m) in self.value.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                *v *= m;
            }
            for (v, m) in self.velocity.as_mut_slice().iter_mut().zip(mask.as_slice()) {
                *v *= m;
            }
        }
    }

    /// Number of weights that are currently nonzero.
    pub fn count_nonzero(&self) -> usize {
        self.value.count_nonzero()
    }

    /// Reorders the leading dimension of value/grad/velocity/mask so that
    /// entry `i` of the result is entry `perm[i]` of the original. For a
    /// rank-2 parameter this permutes rows; for rank-1, elements.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of the leading dimension.
    pub fn permute_leading(&mut self, perm: &[usize]) {
        let dim0 = self.value.shape().dim(0);
        assert_eq!(perm.len(), dim0, "permutation length mismatch");
        let stride = self.value.len() / dim0.max(1);
        let reorder = |t: &mut cc_tensor::Tensor| {
            let src = t.as_slice().to_vec();
            let dst = t.as_mut_slice();
            for (i, &p) in perm.iter().enumerate() {
                dst[i * stride..(i + 1) * stride]
                    .copy_from_slice(&src[p * stride..(p + 1) * stride]);
            }
        };
        reorder(&mut self.value);
        reorder(&mut self.grad);
        reorder(&mut self.velocity);
        if let Some(mask) = &mut self.mask {
            reorder(mask);
        }
    }

    /// Reorders the columns of a rank-2 parameter: column `i` of the result
    /// is column `perm[i]` of the original.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not rank 2 or `perm` is inconsistent.
    pub fn permute_cols(&mut self, perm: &[usize]) {
        assert_eq!(self.value.shape().rank(), 2, "permute_cols requires a matrix");
        let rows = self.value.shape().dim(0);
        let cols = self.value.shape().dim(1);
        assert_eq!(perm.len(), cols, "permutation length mismatch");
        let reorder = |t: &mut cc_tensor::Tensor| {
            let src = t.as_slice().to_vec();
            let dst = t.as_mut_slice();
            for r in 0..rows {
                for (i, &p) in perm.iter().enumerate() {
                    dst[r * cols + i] = src[r * cols + p];
                }
            }
        };
        reorder(&mut self.value);
        reorder(&mut self.grad);
        reorder(&mut self.velocity);
        if let Some(mask) = &mut self.mask {
            reorder(mask);
        }
    }

    /// Number of weights the mask keeps (all weights when unmasked).
    pub fn count_unmasked(&self) -> usize {
        match &self.mask {
            Some(m) => m.as_slice().iter().filter(|&&v| v != 0.0).count(),
            None => self.value.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::Shape;

    #[test]
    fn mask_zeroes_values() {
        let mut p = Param::new(Tensor::from_vec(Shape::d1(4), vec![1.0, 2.0, 3.0, 4.0]));
        p.set_mask(Tensor::from_vec(Shape::d1(4), vec![1.0, 0.0, 1.0, 0.0]));
        assert_eq!(p.value.as_slice(), &[1.0, 0.0, 3.0, 0.0]);
        assert_eq!(p.count_unmasked(), 2);
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_mask_panics() {
        let mut p = Param::new(Tensor::zeros(Shape::d1(2)));
        p.set_mask(Tensor::from_vec(Shape::d1(2), vec![0.5, 1.0]));
    }

    #[test]
    fn clear_mask_allows_regrowth() {
        let mut p = Param::new(Tensor::from_vec(Shape::d1(2), vec![1.0, 1.0]));
        p.set_mask(Tensor::from_vec(Shape::d1(2), vec![0.0, 1.0]));
        p.clear_mask();
        assert_eq!(p.count_unmasked(), 2);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::zeros(Shape::d1(3)));
        p.grad.as_mut_slice().fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
