//! Shift convolution: a zero-FLOP, zero-parameter spatial shift per channel.

use crate::layers::pointwise::dims4;
use cc_tensor::{pool, Tensor};
use std::ops::Range;

/// Per-channel spatial shift (paper §2.3, after Wu et al.'s shift
/// convolution). Each channel is translated by a fixed `(dy, dx)` offset
/// drawn round-robin from the 3×3 neighbourhood, replacing the depthwise
/// convolution of separable layers. Out-of-frame pixels are zero-filled.
///
/// The layer has no learned weights; its backward pass is the inverse shift.
#[derive(Clone, Debug)]
pub struct Shift {
    shifts: Vec<(i8, i8)>,
}

/// The 3×3 offsets assigned round-robin, center first so that channel 0 of
/// every group passes through unshifted.
const OFFSETS: [(i8, i8); 9] =
    [(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (1, 1), (1, -1), (-1, 1), (-1, -1)];

impl Shift {
    /// Creates a shift layer for `channels` input channels with the
    /// canonical round-robin offset assignment.
    pub fn new(channels: usize) -> Self {
        Shift { shifts: (0..channels).map(|c| OFFSETS[c % OFFSETS.len()]).collect() }
    }

    /// Creates a shift layer from explicit offsets.
    pub fn with_shifts(shifts: Vec<(i8, i8)>) -> Self {
        Shift { shifts }
    }

    /// The per-channel offsets.
    pub fn shifts(&self) -> &[(i8, i8)] {
        &self.shifts
    }

    /// Number of channels this layer expects.
    pub fn channels(&self) -> usize {
        self.shifts.len()
    }

    /// Permutes the per-channel offsets to match a channel permutation of
    /// the producing layer (§3.5).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of the channels.
    pub fn permute_channels(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.shifts.len(), "permutation length mismatch");
        let old = self.shifts.clone();
        for (i, &p) in perm.iter().enumerate() {
            self.shifts[i] = old[p];
        }
    }

    /// Applies the per-channel shifts.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from [`Shift::channels`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.apply(x, false)
    }

    /// Backward pass: shifts gradients by the inverse offsets.
    pub fn backward(&self, grad_out: &Tensor) -> Tensor {
        self.apply(grad_out, true)
    }

    fn apply(&self, x: &Tensor, invert: bool) -> Tensor {
        let (_, c, h, w) = dims4(x);
        assert_eq!(c, self.channels(), "shift channel count mismatch");
        let mut out = pool::zeros(x.shape());
        let hw = (h * w).max(1);
        let planes = x.as_slice().chunks(hw).zip(out.as_mut_slice().chunks_mut(hw));
        for (plane, (src, dst)) in planes.enumerate() {
            let (mut dy, mut dx) = self.shifts[plane % c];
            if invert {
                (dy, dx) = (-dy, -dx);
            }
            // One copy per in-range row: the span of columns whose source
            // column exists, from the source row `dy` above.
            let xs = shifted_span(dx, w);
            if xs.is_empty() {
                continue;
            }
            let src_x = (xs.start as i64 - i64::from(dx)) as usize;
            for y in shifted_span(dy, h) {
                let sy = (y as i64 - i64::from(dy)) as usize;
                dst[y * w..][xs.clone()].copy_from_slice(&src[sy * w + src_x..][..xs.len()]);
            }
        }
        out
    }
}

/// Destination positions `p` of an `n`-long axis whose source `p - d` is
/// in range — empty once `|d| ≥ n`.
pub(crate) fn shifted_span(d: i8, n: usize) -> Range<usize> {
    let (d, n) = (i64::from(d), n as i64);
    let lo = d.clamp(0, n);
    let hi = (n + d).clamp(lo, n);
    lo as usize..hi as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::Shape;

    #[test]
    fn channel_zero_is_identity() {
        let s = Shift::new(1);
        let x = cc_tensor::init::kaiming_tensor(Shape::d4(1, 1, 4, 4), 4, 1);
        assert_eq!(s.forward(&x), x);
    }

    #[test]
    fn shift_moves_pixels() {
        let s = Shift::with_shifts(vec![(1, 0)]); // down by one row
        let mut x = Tensor::zeros(Shape::d4(1, 1, 3, 3));
        x.set4(0, 0, 0, 1, 5.0);
        let y = s.forward(&x);
        assert_eq!(y.get4(0, 0, 1, 1), 5.0);
        assert_eq!(y.get4(0, 0, 0, 1), 0.0);
    }

    #[test]
    fn out_of_frame_is_zero_filled() {
        let s = Shift::with_shifts(vec![(1, 1)]);
        let x = Tensor::full(Shape::d4(1, 1, 2, 2), 1.0);
        let y = s.forward(&x);
        // top row and left column become zero
        assert_eq!(y.get4(0, 0, 0, 0), 0.0);
        assert_eq!(y.get4(0, 0, 0, 1), 0.0);
        assert_eq!(y.get4(0, 0, 1, 0), 0.0);
        assert_eq!(y.get4(0, 0, 1, 1), 1.0);
    }

    #[test]
    fn backward_is_adjoint_of_forward() {
        // <Sx, g> must equal <x, Sᵀg> for the linear shift operator.
        let s = Shift::new(4);
        let x = cc_tensor::init::kaiming_tensor(Shape::d4(2, 4, 5, 5), 4, 2);
        let g = cc_tensor::init::kaiming_tensor(Shape::d4(2, 4, 5, 5), 4, 3);
        let sx = s.forward(&x);
        let stg = s.backward(&g);
        let lhs: f32 = sx.as_slice().iter().zip(g.as_slice()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.as_slice().iter().zip(stg.as_slice()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn round_robin_covers_neighbourhood() {
        let s = Shift::new(18);
        // offsets repeat with period 9
        assert_eq!(s.shifts()[0], s.shifts()[9]);
        let distinct: std::collections::HashSet<_> = s.shifts()[..9].iter().collect();
        assert_eq!(distinct.len(), 9);
    }
}
