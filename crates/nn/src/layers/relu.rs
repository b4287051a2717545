//! ReLU activation.

use cc_tensor::{pool, Tensor};

/// Element-wise `max(0, x)`, matching the systolic system's ReLU block
/// (paper §4.4).
#[derive(Clone, Debug, Default)]
pub struct Relu {
    /// One bit per element of the last training input, set where it was
    /// `> 0.0`: bit `i % 64` of word `i / 64`. Refilled in place by each
    /// training forward.
    mask: Vec<u64>,
    /// Elements `mask` covers, until the backward pass consumes it.
    masked: Option<usize>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu::default()
    }

    /// Forward pass; caches the activation mask when `training`.
    ///
    /// A select, not a branch: everything that is not `> 0.0` — negatives,
    /// `-0.0`, NaN — becomes `+0.0`.
    pub fn forward(&mut self, x: &Tensor, training: bool) -> Tensor {
        if training {
            self.mask.clear();
            self.mask.extend(x.as_slice().chunks(64).map(positive_bits));
            self.masked = Some(x.len());
        }
        let mut out = pool::zeros(x.shape());
        for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = if v > 0.0 { v } else { 0.0 };
        }
        out
    }

    /// Backward pass: zeroes gradients where the input was non-positive.
    ///
    /// # Panics
    ///
    /// Panics if called before a training-mode forward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let len = self.masked.take().expect("backward before forward");
        assert_eq!(len, grad_out.len(), "output gradient shape mismatch");
        let mut dx = pool::zeros(grad_out.shape());
        let chunks = dx.as_mut_slice().chunks_mut(64).zip(grad_out.as_slice().chunks(64));
        for ((d_chunk, g_chunk), &word) in chunks.zip(&self.mask) {
            for ((d, &g), keep) in d_chunk.iter_mut().zip(g_chunk).zip(bit_bytes(word)) {
                *d = if keep != 0 { g } else { 0.0 };
            }
        }
        dx
    }
}

/// Bit `j` set where `chunk[j] > 0.0`, for a chunk of at most 64. The
/// compares fill one byte each, which vectorises; one multiply per eight
/// of those 0/1 bytes then gathers them into the top byte as bits.
fn positive_bits(chunk: &[f32]) -> u64 {
    let mut bytes = [0u8; 64];
    for (b, &v) in bytes.iter_mut().zip(chunk) {
        *b = u8::from(v > 0.0);
    }
    bytes.chunks_exact(8).enumerate().fold(0, |word, (i, eight)| {
        let eight = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
        word | (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
    })
}

/// Byte `j` nonzero where bit `j` of `word` is set: each byte of `word`
/// copied into eight lanes, lane `j` keeping only bit `j`.
fn bit_bytes(word: u64) -> [u8; 64] {
    let mut bytes = [0u8; 64];
    for (i, eight) in bytes.chunks_exact_mut(8).enumerate() {
        let byte = word >> (8 * i) & 0xff;
        let lanes = byte.wrapping_mul(0x0101_0101_0101_0101) & 0x8040_2010_0804_0201;
        eight.copy_from_slice(&lanes.to_le_bytes());
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::Shape;

    #[test]
    fn mask_bits_round_trip_every_byte_pattern() {
        for pattern in 0..=u8::MAX {
            let chunk: Vec<f32> =
                (0..64).map(|j| if pattern >> (j % 8) & 1 == 1 { 1.0 } else { -0.0 }).collect();
            let word = positive_bits(&chunk);
            let want = (0..64).fold(0u64, |w, j| w | u64::from(chunk[j] > 0.0) << j);
            assert_eq!(word, want, "{pattern:08b}");
            let bytes = bit_bytes(word);
            assert!((0..64).all(|j| (bytes[j] != 0) == (chunk[j] > 0.0)), "{pattern:08b}");
        }
        assert_eq!(positive_bits(&[f32::NAN, 0.0, 2.0]), 0b100, "a short chunk");
    }

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
