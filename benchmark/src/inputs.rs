//! Seeded input generation: the random stream, the Zipf draw over the
//! catalog, and inputs whose quantized bytes no other input shares.

use cc_tensor::Tensor;

/// splitmix64: every input the benchmark draws comes from one of these,
/// seeded from `--seed`, so a seed fixes the request mix exactly.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Zipf distribution over ranks `0..n`: rank `k` is drawn with weight
/// `1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty catalog");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Pixels of a unique input that carry its index, and the base each one
/// counts in. Codes stay within the int8 range the quantizer keeps.
const INDEX_PIXELS: usize = 4;
const INDEX_BASE: u64 = 100;

/// How many distinct indices [`unique_image`] can encode.
pub const UNIQUE_INDICES: u64 = INDEX_BASE.pow(INDEX_PIXELS as u32);

/// A copy of `base` whose first pixels are set to exact multiples of the
/// network's input `scale`, spelling `index` in base 100. The quantizer
/// maps `k * scale` to code `k`, so two indices under [`UNIQUE_INDICES`]
/// give different quantized bytes whatever the base image holds, and the
/// response cache can never have seen the input before. Digits are
/// stored as codes 1..=100; set-up still checks a sample of digests
/// against the catalog, whose own corner pixels are arbitrary.
pub fn unique_image(base: &Tensor, index: u64, scale: f32) -> Tensor {
    let mut image = base.clone();
    let pixels = image.as_mut_slice();
    let mut rest = index % UNIQUE_INDICES;
    for pixel in pixels.iter_mut().take(INDEX_PIXELS) {
        let digit = rest % INDEX_BASE;
        rest /= INDEX_BASE;
        *pixel = (digit + 1) as f32 * scale;
    }
    image
}
