//! Average pooling layers.

use crate::layers::pointwise::dims4;
use cc_tensor::{pool, Shape, Tensor};

/// 2×2 average pooling with stride 2 (odd trailing rows/columns dropped,
/// as in the standard LeNet/VGG reductions).
#[derive(Clone, Debug, Default)]
pub struct AvgPool2 {
    in_shape: Option<Shape>,
}

impl AvgPool2 {
    /// Creates a 2×2 stride-2 average-pooling layer.
    pub fn new() -> Self {
        AvgPool2 { in_shape: None }
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let (b, c, h, w) = dims4(x);
        let (oh, ow) = (h / 2, w / 2);
        if training {
            self.in_shape = Some(x.shape());
        }
        let mut out = pool::zeros(Shape::d4(b, c, oh, ow));
        // Output row `r` (counted over all planes) pools two input rows.
        for (r, out_row) in out.as_mut_slice().chunks_mut(ow.max(1)).enumerate() {
            let top = (r / oh * h + r % oh * 2) * w;
            let (upper, lower) = (&x.as_slice()[top..top + w], &x.as_slice()[top + w..top + 2 * w]);
            let windows = upper.chunks_exact(2).zip(lower.chunks_exact(2));
            for (o, (u, l)) in out_row.iter_mut().zip(windows) {
                *o = (u[0] + u[1] + l[0] + l[1]) / 4.0;
            }
        }
        out
    }

    /// Backward pass: spreads each output gradient equally over its window.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self.in_shape.take().expect("backward before forward");
        let (_, _, oh, ow) = dims4(grad_out);
        let (h, w) = (in_shape.dim(2), in_shape.dim(3));
        let mut dx = pool::zeros(in_shape);
        for (r, g_row) in grad_out.as_slice().chunks(ow.max(1)).enumerate() {
            let top = (r / oh * h + r % oh * 2) * w;
            let (upper, lower) = dx.as_mut_slice()[top..top + 2 * w].split_at_mut(w);
            let windows = upper.chunks_exact_mut(2).zip(lower.chunks_exact_mut(2));
            for (&g, (u, l)) in g_row.iter().zip(windows) {
                // `0.0 +` keeps a `-0.0` share `+0.0`, as accumulating into
                // the zeroed window does.
                let share = 0.0 + g / 4.0;
                (u[0], u[1], l[0], l[1]) = (share, share, share, share);
            }
        }
        dx
    }
}

/// Global average pooling: collapses each channel's spatial plane to one
/// value, producing `(B, C, 1, 1)`.
#[derive(Clone, Debug, Default)]
pub struct GlobalAvgPool {
    in_shape: Option<Shape>,
}

impl GlobalAvgPool {
    /// Creates a global average-pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool { in_shape: None }
    }

    /// Forward pass.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        let (b, c, h, w) = dims4(x);
        if training {
            self.in_shape = Some(x.shape());
        }
        let hw = h * w;
        let mut out = pool::zeros(Shape::d4(b, c, 1, 1));
        for (o, plane) in out.as_mut_slice().iter_mut().zip(x.as_slice().chunks(hw.max(1))) {
            let mut s = 0.0;
            for v in plane {
                s += v;
            }
            *o = s / hw as f32;
        }
        out
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let in_shape = self.in_shape.take().expect("backward before forward");
        let hw = in_shape.dim(2) * in_shape.dim(3);
        let mut dx = pool::zeros(in_shape);
        for (plane, g) in dx.as_mut_slice().chunks_mut(hw.max(1)).zip(grad_out.as_slice()) {
            plane.fill(g / hw as f32);
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avgpool_halves_resolution() {
        let mut p = AvgPool2::new();
        let x = Tensor::from_vec(
            Shape::d4(1, 1, 2, 2),
            vec![1.0, 2.0, 3.0, 4.0],
        );
        let y = p.forward(&x, false);
        assert_eq!(y.shape().dims(), &[1, 1, 1, 1]);
        assert_eq!(y.get4(0, 0, 0, 0), 2.5);
    }

    #[test]
    fn avgpool_backward_distributes() {
        let mut p = AvgPool2::new();
        let x = Tensor::zeros(Shape::d4(1, 1, 4, 4));
        let _ = p.forward(&x, true);
        let mut g = Tensor::zeros(Shape::d4(1, 1, 2, 2));
        g.set4(0, 0, 0, 0, 4.0);
        let dx = p.backward(&g);
        assert_eq!(dx.get4(0, 0, 0, 0), 1.0);
        assert_eq!(dx.get4(0, 0, 1, 1), 1.0);
        assert_eq!(dx.get4(0, 0, 2, 2), 0.0);
    }

    #[test]
    fn global_pool_averages_plane() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(Shape::d4(1, 2, 2, 2), vec![1.0; 8]);
        let y = p.forward(&x, false);
        assert_eq!(y.shape().dims(), &[1, 2, 1, 1]);
        assert_eq!(y.get4(0, 1, 0, 0), 1.0);
    }

    #[test]
    fn global_pool_adjoint() {
        let mut p = GlobalAvgPool::new();
        let x = cc_tensor::init::kaiming_tensor(Shape::d4(1, 1, 3, 3), 1, 7);
        let _ = p.forward(&x, true);
        let mut g = Tensor::zeros(Shape::d4(1, 1, 1, 1));
        g.set4(0, 0, 0, 0, 9.0);
        let dx = p.backward(&g);
        assert!(dx.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn odd_size_drops_trailing() {
        let mut p = AvgPool2::new();
        let x = Tensor::zeros(Shape::d4(1, 1, 5, 5));
        let y = p.forward(&x, false);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
    }
}
