//! Quantized feature maps: the 8-bit activations that move between the
//! accelerator's blocks.

use cc_tensor::isa::{self, Kernel};
use cc_tensor::quant::QuantParams;
use cc_tensor::Tensor;

/// An 8-bit quantized feature map `(C, H, W)` with its scale:
/// `real = scale · q`.
#[derive(Clone, Debug, PartialEq)]
pub struct QMap {
    data: Vec<i8>,
    channels: usize,
    height: usize,
    width: usize,
    scale: f32,
}

/// Raw storage, channel-major, for a block that fills a pre-sized map in
/// place (what [`QMap::into_raw`] → [`QMap::from_raw`] allows anyway); the
/// length, and so the shape, cannot change through it.
impl AsMut<[i8]> for QMap {
    fn as_mut(&mut self) -> &mut [i8] {
        &mut self.data
    }
}

/// The input quantizer: every float of `src` to its 8-bit code in `out`
/// (as long as `src`), as the one body compiled per vector level.
struct Quantize<'a> {
    src: &'a [f32],
    params: QuantParams,
    out: &'a mut [i8],
}

impl Kernel for Quantize<'_> {
    type Out = ();

    #[inline(always)]
    fn run(self) {
        for (q, &v) in self.out.iter_mut().zip(self.src) {
            *q = self.params.quantize(v);
        }
    }
}

impl QMap {
    /// Quantizes a float `(C, H, W)` tensor at the given scale.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 3 or the scale is not positive.
    pub fn quantize(x: &Tensor, scale: f32) -> Self {
        Self::quantize_into(x, scale, Vec::new())
    }

    /// [`QMap::quantize`] into caller-provided storage (recycled from an
    /// [`crate::ActivationScratch`]); the buffer is cleared and refilled,
    /// reusing its capacity.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 3 or the scale is not positive.
    pub fn quantize_into(x: &Tensor, scale: f32, mut storage: Vec<i8>) -> Self {
        assert_eq!(x.shape().rank(), 3, "QMap expects a (C,H,W) tensor");
        assert!(scale > 0.0, "scale must be positive");
        let params = QuantParams::from_max_abs(scale * 127.0);
        storage.clear();
        storage.resize(x.as_slice().len(), 0);
        isa::run(Quantize { src: x.as_slice(), params, out: &mut storage });
        QMap {
            data: storage,
            channels: x.shape().dim(0),
            height: x.shape().dim(1),
            width: x.shape().dim(2),
            scale,
        }
    }

    /// Consumes the map, returning its storage for reuse.
    pub fn into_raw(self) -> Vec<i8> {
        self.data
    }

    /// Builds a map from raw quantized storage.
    ///
    /// # Panics
    ///
    /// Panics if the storage length is inconsistent.
    pub fn from_raw(data: Vec<i8>, channels: usize, height: usize, width: usize, scale: f32) -> Self {
        assert_eq!(data.len(), channels * height * width, "QMap storage mismatch");
        assert!(scale > 0.0, "scale must be positive");
        QMap { data, channels, height, width, scale }
    }

    /// Channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Spatial positions per channel.
    pub fn plane(&self) -> usize {
        self.height * self.width
    }

    /// The scale of one quantization step.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Raw storage, channel-major.
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Quantized value at `(c, y, x)`.
    pub fn get(&self, c: usize, y: usize, x: usize) -> i8 {
        self.data[(c * self.height + y) * self.width + x]
    }

    /// Real (dequantized) value at `(c, y, x)`.
    pub fn real(&self, c: usize, y: usize, x: usize) -> f32 {
        self.get(c, y, x) as f32 * self.scale
    }

    /// A stable 64-bit digest of the *quantized* map: FNV-1a over the
    /// shape, the scale bits, and every quantized byte. Two maps share a
    /// digest exactly when they would feed the integer pipeline the same
    /// bits (up to hash collision — callers that need certainty compare
    /// [`QMap::as_slice`] as well). Serving uses `(network identity,
    /// digest)` as its response-cache key: the digest is taken *after*
    /// quantization, so float inputs that land on the same 8-bit code are
    /// one cache line, and a hit is bit-identical by construction.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        };
        for dim in [self.channels, self.height, self.width] {
            for b in (dim as u64).to_le_bytes() {
                eat(b);
            }
        }
        for b in self.scale.to_bits().to_le_bytes() {
            eat(b);
        }
        for &q in &self.data {
            eat(q as u8);
        }
        h
    }

    /// Dequantizes the whole map.
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            cc_tensor::Shape::d3(self.channels, self.height, self.width),
            self.data.iter().map(|&q| q as f32 * self.scale).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_tensor::Shape;

    #[test]
    fn quantize_roundtrip_error_bounded() {
        let x = cc_tensor::init::kaiming_tensor(Shape::d3(2, 3, 3), 9, 1);
        let scale = x.max_abs() / 127.0;
        let q = QMap::quantize(&x, scale);
        let back = q.dequantize();
        for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= scale / 2.0 + 1e-6);
        }
    }

    /// The input quantizer at every vector level this CPU has against the
    /// formula `requantize` replaced, on lengths either side of the vector
    /// widths: ties, both saturation ends, zeros, NaN and infinities.
    #[test]
    fn quantizer_matches_round_clamp_cast_at_every_level() {
        let params = QuantParams::from_max_abs(0.37 * 127.0);
        let edge = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30, -1e30];
        for len in [0usize, 1, 3, 7, 8, 9, 31, 32, 33, 257] {
            let src: Vec<f32> = (0..len)
                .map(|i| match i % 4 {
                    0 => (i as f32 - 128.0 + 0.5) * params.scale(), // a tie, or next to one
                    1 => edge[i / 4 % edge.len()],
                    _ => ((i * 2_654_435_761) % 1000) as f32 * 0.1 - 50.0,
                })
                .collect();
            let want: Vec<i8> = src
                .iter()
                .map(|&v| (v / params.scale()).round().clamp(-127.0, 127.0) as i8)
                .collect();
            for level in isa::Level::available() {
                let mut out = vec![1i8; len];
                isa::run_at(level, Quantize { src: &src, params, out: &mut out });
                assert_eq!(out, want, "{} len {len}", level.name());
            }
        }
    }

    #[test]
    fn indexing_is_channel_major() {
        let x = Tensor::from_vec(Shape::d3(2, 1, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let q = QMap::quantize(&x, 1.0);
        assert_eq!(q.get(0, 0, 1), 2);
        assert_eq!(q.get(1, 0, 0), 3);
        assert_eq!(q.real(1, 0, 1), 4.0);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        QMap::quantize(&Tensor::zeros(Shape::d3(1, 1, 1)), 0.0);
    }

    #[test]
    fn digest_tracks_quantized_bits_not_float_noise() {
        let x = Tensor::from_vec(Shape::d3(1, 2, 2), vec![0.1, -0.4, 0.9, 0.0]);
        let a = QMap::quantize(&x, 0.01);
        // Stable across calls and across clones of the same quantized bits.
        assert_eq!(a.digest(), a.digest());
        assert_eq!(a.digest(), a.clone().digest());
        // Sub-quantum float jitter lands on the same 8-bit code → same key.
        let y = Tensor::from_vec(Shape::d3(1, 2, 2), vec![0.1001, -0.4001, 0.9001, 0.0]);
        assert_eq!(QMap::quantize(&y, 0.01).digest(), a.digest());
        // A one-step change in any element changes the digest.
        let z = Tensor::from_vec(Shape::d3(1, 2, 2), vec![0.11, -0.4, 0.9, 0.0]);
        assert_ne!(QMap::quantize(&z, 0.01).digest(), a.digest());
        // Same bytes, different scale or shape, must not alias.
        assert_ne!(QMap::quantize(&x, 0.02).digest(), a.digest());
        let flat = Tensor::from_vec(Shape::d3(1, 1, 4), vec![0.1, -0.4, 0.9, 0.0]);
        assert_ne!(QMap::quantize(&flat, 0.01).digest(), a.digest());
    }
}
