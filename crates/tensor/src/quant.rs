//! Linear fixed-point quantization (paper §2.5).
//!
//! The paper quantizes both inputs and weights to 8-bit fixed point from the
//! 32-bit float representation used during training, and accumulates in
//! 16- or 32-bit integers inside the bit-serial systolic cells. This module
//! implements that scheme exactly so the cycle-level simulator in
//! `cc-systolic` can be validated bit-for-bit against integer reference
//! arithmetic.
//!
//! Every float → 8-bit conversion in the workspace goes through one
//! function, [`requantize`]: round half away from zero, saturate at ±127.
//! It is written without `f32::round` (a `roundf` libcall per word on
//! baseline x86-64, which has no SSE4.1 `roundps`) and without branches, so
//! a slice loop over it autovectorises (the deployed engine's residual add
//! is one) — and it is *exactly* the libcall formula on all 2³² bit
//! patterns, which the tests below check (sampled by default, exhaustively
//! under `--ignored`). It is `#[inline(always)]` because those loops are
//! [`crate::isa::Kernel`]s: the rounding must be compiled inside the
//! caller, at the caller's vector level.
//!
//! Its AVX2 twin, [`requantize_x8`], rounds eight words per instruction
//! with `vcvtps2dq` instead, and [`requantize_slice`] writes a slice of
//! them — whatever [`Quotients`] a block computes — 32, then 8 words per
//! step, narrowing to bytes with `vpackssdw` / `vpacksswb`: the ReLU +
//! quantizer block's and the residual add's AVX2 bodies in `cc-deploy`.
//! Their AVX-512 bodies use the sixteen-lane twin, [`requantize_x16`]
//! (the tie fix-up as `requantize`'s own two masks), through
//! [`requantize_slice_x16`]: 16 words per step, narrowed by `vpmovsdb`.
//! Both twins are the same function as `requantize` on every `f32` —
//! sampled here by default, every float in `[-130, 130]` under
//! `--ignored`.

#[cfg(target_arch = "x86_64")]
use crate::isa::avx2::{self, __m256, __m256i};
#[cfg(target_arch = "x86_64")]
use crate::isa::avx512::{self, __m512, __m512i};
#[cfg(target_arch = "x86_64")]
use crate::isa::{Avx2, Avx512Vnni};
use crate::matrix::Matrix;

/// Accumulator width used by the systolic array's bit-serial MACs.
///
/// The paper uses 32-bit accumulation everywhere except §7.1.2, where 16-bit
/// accumulation halves MAC latency for the small LeNet-5 layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccumWidth {
    /// 16-bit two's-complement accumulation (§7.1.2).
    Bits16,
    /// 32-bit two's-complement accumulation (default).
    Bits32,
}

impl AccumWidth {
    /// Number of bits in the accumulator word.
    pub fn bits(self) -> u32 {
        match self {
            AccumWidth::Bits16 => 16,
            AccumWidth::Bits32 => 32,
        }
    }

    /// Wraps `v` to this width's two's-complement range, mirroring what a
    /// fixed-width bit-serial adder chain computes.
    ///
    /// Truncate-and-sign-extend is exactly `v mod 2^bits` recentred to
    /// `[-2^(bits-1), 2^(bits-1))`, and compiles to a single register move —
    /// this sits in the per-MAC path of the systolic kernels.
    #[inline]
    pub fn wrap(self, v: i64) -> i64 {
        match self {
            AccumWidth::Bits16 => v as i16 as i64,
            AccumWidth::Bits32 => v as i32 as i64,
        }
    }

    /// `true` if `v` is representable without wrapping.
    pub fn fits(self, v: i64) -> bool {
        self.wrap(v) == v
    }
}

/// Symmetric linear quantization parameters for an 8-bit tensor.
///
/// `real = scale * quantized`, with `quantized ∈ [-127, 127]`.
///
/// # Examples
///
/// ```
/// use cc_tensor::quant::QuantParams;
/// let p = QuantParams::from_max_abs(2.54);
/// let q = p.quantize(1.27);
/// assert_eq!(q, 64); // 1.27 / (2.54/127) = 63.5 → round half away = 64
/// assert!((p.dequantize(q) - 1.28).abs() < 0.02);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QuantParams {
    scale: f32,
}

impl QuantParams {
    /// Builds parameters so `max_abs` maps to ±127. A zero or non-finite
    /// `max_abs` falls back to a unit scale.
    pub fn from_max_abs(max_abs: f32) -> Self {
        let scale = if max_abs > 0.0 && max_abs.is_finite() { max_abs / 127.0 } else { 1.0 };
        QuantParams { scale }
    }

    /// Calibrates from data: scale chosen from the maximum absolute value.
    pub fn calibrate(data: &[f32]) -> Self {
        let max_abs = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        Self::from_max_abs(max_abs)
    }

    /// The real-valued step size per integer level.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes a real value to `i8`, saturating at ±127.
    #[inline(always)] // as [`requantize`]
    pub fn quantize(&self, v: f32) -> i8 {
        requantize(v / self.scale)
    }

    /// Dequantizes an `i8` back to a real value.
    pub fn dequantize(&self, q: i8) -> f32 {
        q as f32 * self.scale
    }

    /// Quantizes a slice.
    pub fn quantize_slice(&self, data: &[f32]) -> Vec<i8> {
        data.iter().map(|&v| self.quantize(v)).collect()
    }
}

/// The quantizer block's rounding: `x` (already divided by the output
/// scale) to the nearest integer, halves away from zero, saturated to
/// `[-127, 127]`; NaN maps to 0. Bit-for-bit the `f32::round` →
/// `clamp(-127.0, 127.0)` → `as i8` chain for every `f32`, but branch-free
/// and libcall-free so a loop over it vectorises.
///
/// Clamping first is safe because the bounds are integers (round and clamp
/// commute there). Adding 1.5·2²³ then leaves the clamped value rounded to
/// an integer — ties to *even* — in the low mantissa bits; the exact
/// residual tells a tie that went toward zero from everything else, and
/// those ties take one step away from zero.
///
/// # Examples
///
/// ```
/// use cc_tensor::quant::requantize;
/// assert_eq!(requantize(2.5), 3);
/// assert_eq!(requantize(-2.5), -3);
/// assert_eq!(requantize(0.49999997), 0);
/// assert_eq!(requantize(1e9), 127);
/// assert_eq!(requantize(f32::NAN), 0);
/// ```
#[inline(always)] // a `cc_tensor::isa::Kernel` body: compiled at its caller's level
pub fn requantize(x: f32) -> i8 {
    const MAGIC: f32 = 12_582_912.0; // 1.5 · 2²³: one ulp is 1.0
    let x = if x.is_nan() { 0.0 } else { x };
    let c = x.clamp(-127.0, 127.0);
    let m = c + MAGIC;
    let even = (m.to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32);
    let diff = c - (m - MAGIC); // exact, in [-0.5, 0.5]
    let up = ((diff == 0.5) & (c > 0.0)) as i32;
    let down = ((diff == -0.5) & (c < 0.0)) as i32;
    (even + up - down) as i8
}

/// [`requantize`] on eight lanes at once, bit for bit on every `f32`, as
/// eight `i32` in `[-127, 127]`.
///
/// NaN becomes 0 and the clamp to ±127 comes first, as in `requantize`.
/// Then `vcvtps2dq` rounds to nearest, ties to *even*, and the residual
/// `diff = c - r` is exact (`|diff| ≤ 0.5`, and `c` and `r` are within
/// one of each other). A tie rounded toward zero is exactly `diff ==
/// copysign(0.5, c)`; there `vpsignd` turns the all-ones compare mask
/// into `+1` (for `c < 0`) or `-1` (for `c > 0`), and subtracting it steps
/// the word one away from zero: round half away.
#[cfg(target_arch = "x86_64")]
#[inline(always)] // as `requantize`
pub fn requantize_x8(t: Avx2, x: __m256) -> __m256i {
    let x = avx2::and_f32(t, avx2::ordered_f32(t, x, x), x);
    let c = avx2::max_f32(t, x, avx2::splat_f32(t, -127.0));
    let c = avx2::min_f32(t, c, avx2::splat_f32(t, 127.0));
    let even = avx2::f32_to_i32_nearest(t, c);
    let diff = avx2::sub_f32(t, c, avx2::i32_to_f32(t, even));
    let sign = avx2::and_f32(t, c, avx2::splat_f32(t, -0.0));
    let toward_zero = avx2::eq_f32(t, diff, avx2::or_f32(t, sign, avx2::splat_f32(t, 0.5)));
    avx2::sub_i32(t, even, avx2::sign_i32(t, toward_zero, avx2::f32_bits(t, c)))
}

/// [`requantize`] on sixteen lanes at once, bit for bit on every `f32`,
/// as sixteen `i32` in `[-127, 127]`: [`requantize_x8`]'s steps in
/// AVX-512, with the tie fix-up written as `requantize`'s own two masks.
///
/// NaN becomes 0 (a zero-masked move under the ordered compare) and the
/// clamp to ±127 comes first. `vcvtps2dq` rounds to nearest, ties to even,
/// and the residual `diff = c - r` is exact. A tie rounded toward zero is
/// `diff == 0.5` where `c > 0` or `diff == -0.5` where `c < 0`; the first
/// mask adds one to its lanes, the second subtracts one: round half away.
#[cfg(target_arch = "x86_64")]
#[inline(always)] // as `requantize`
pub fn requantize_x16(t: Avx512Vnni, x: __m512) -> __m512i {
    let x = avx512::keep_f32(t, avx512::ordered_f32(t, x, x), x);
    let c = avx512::max_f32(t, x, avx512::splat_f32(t, -127.0));
    let c = avx512::min_f32(t, c, avx512::splat_f32(t, 127.0));
    let even = avx512::f32_to_i32_nearest(t, c);
    let diff = avx512::sub_f32(t, c, avx512::i32_to_f32(t, even));
    let zero = avx512::splat_f32(t, 0.0);
    let up = avx512::eq_f32(t, diff, avx512::splat_f32(t, 0.5)) & avx512::gt_f32(t, c, zero);
    let down = avx512::eq_f32(t, diff, avx512::splat_f32(t, -0.5)) & avx512::lt_f32(t, c, zero);
    let one = avx512::splat_i32(t, 1);
    avx512::sub_i32_where(t, down, avx512::add_i32_where(t, up, even, one), one)
}

/// A run of words for [`requantize_slice`] (and [`requantize_slice_x16`])
/// to finish: a block's per-word float expression, up to and including
/// the division by the output step. Mark every method `#[inline(always)]`:
/// the body is compiled inside the caller's vector kernel only by being
/// inlined (a closure is not, and runs its intrinsics as calls).
#[cfg(target_arch = "x86_64")]
pub trait Quotients {
    /// The quotients of words `i..i + 8`, each what the scalar `word`
    /// hands `requantize`.
    fn x8(&self, t: Avx2, i: usize) -> __m256;
    /// The quotients of words `i..i + 16`, the same expression as `x8`
    /// in AVX-512.
    fn x16(&self, t: Avx512Vnni, i: usize) -> __m512;
    /// Word `i`, finished by the scalar [`requantize`].
    fn word(&self, i: usize) -> i8;
}

/// Writes `out[i] = requantize(x)` for every word of `out`, where
/// `run.x8(t, i)` is the eight quotients `x` of words `i..i + 8` and
/// `run.word(i)` is word `i` whole, through the scalar `requantize`: 32
/// words per step (four [`requantize_x8`], two `vpackssdw`, one
/// `vpacksswb`, one `vpermd` to undo the packs' per-half interleave, one
/// store), then 8 words per step, then `word` for the fewer than 8 left.
/// The narrowing never saturates: every lane is already in `[-127, 127]`.
#[cfg(target_arch = "x86_64")]
#[inline(always)] // a kernel body: compiled at its caller's level
pub fn requantize_slice(t: Avx2, out: &mut [i8], run: &impl Quotients) {
    // After the packs, 32-bit lane `j < 4` holds words 0..4 of the `j`-th
    // vector and lane `j + 4` its words 4..8: `order` interleaves them.
    let order = avx2::load_i32x8(t, &[0, 4, 1, 5, 2, 6, 3, 7]);
    let n = out.len();
    let mut i = 0;
    while i + 32 <= n {
        let low = avx2::pack_i32_i16(
            t,
            requantize_x8(t, run.x8(t, i)),
            requantize_x8(t, run.x8(t, i + 8)),
        );
        let high = avx2::pack_i32_i16(
            t,
            requantize_x8(t, run.x8(t, i + 16)),
            requantize_x8(t, run.x8(t, i + 24)),
        );
        let bytes = avx2::pack_i16_i8(t, low, high);
        avx2::store_i8x32(t, &mut out[i..], avx2::permute_i32(t, bytes, order));
        i += 32;
    }
    requantize_rest(t, out, run, i);
}

/// [`requantize_slice`] at AVX-512: 16 words per step
/// ([`requantize_x16`], one `vpmovsdb`, one store), then the AVX2 body's
/// 8-word steps and scalar words for the fewer than 16 left (so LeNet's
/// 49-word rows run 48 words in three steps and one scalar word).
#[cfg(target_arch = "x86_64")]
#[inline(always)] // a kernel body: compiled at its caller's level
pub fn requantize_slice_x16(t: Avx512Vnni, out: &mut [i8], run: &impl Quotients) {
    let n = out.len();
    let mut i = 0;
    while i + 16 <= n {
        let q = requantize_x16(t, run.x16(t, i));
        avx512::store_i8x16(t, &mut out[i..], avx512::narrow_i32_i8(t, q));
        i += 16;
    }
    requantize_rest(t.avx2(), out, run, i);
}

/// Words `i..` of a [`requantize_slice`]: 8 per step, then `word` for the
/// fewer than 8 left.
#[cfg(target_arch = "x86_64")]
#[inline(always)] // a kernel body: compiled at its caller's level
fn requantize_rest(t: Avx2, out: &mut [i8], run: &impl Quotients, mut i: usize) {
    let order = avx2::load_i32x8(t, &[0, 4, 1, 5, 2, 6, 3, 7]);
    let n = out.len();
    while i + 8 <= n {
        let q = requantize_x8(t, run.x8(t, i));
        let words = avx2::pack_i32_i16(t, q, q);
        let bytes = avx2::pack_i16_i8(t, words, words);
        avx2::store_i8x8(t, &mut out[i..], avx2::permute_i32(t, bytes, order));
        i += 8;
    }
    for (k, q) in out[i..].iter_mut().enumerate() {
        *q = run.word(i + k);
    }
}

/// An 8-bit quantized matrix plus its scale, as loaded into a systolic array.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    params: QuantParams,
}

impl QuantMatrix {
    /// Quantizes a float matrix with per-matrix calibration.
    pub fn quantize(m: &Matrix) -> Self {
        let params = QuantParams::calibrate(m.as_slice());
        Self::quantize_with(m, params)
    }

    /// Quantizes with caller-supplied parameters (e.g. shared activations
    /// scale across layers).
    pub fn quantize_with(m: &Matrix, params: QuantParams) -> Self {
        QuantMatrix {
            rows: m.rows(),
            cols: m.cols(),
            data: params.quantize_slice(m.as_slice()),
            params,
        }
    }

    /// Builds a quantized matrix from already-quantized storage (used by
    /// tile slicing in the systolic scheduler).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_raw(rows: usize, cols: usize, data: Vec<i8>, params: QuantParams) -> Self {
        assert_eq!(data.len(), rows * cols, "raw data length mismatch");
        QuantMatrix { rows, cols, data, params }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Quantized element `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> i8 {
        self.data[r * self.cols + c]
    }

    /// Quantization parameters.
    pub fn params(&self) -> QuantParams {
        self.params
    }

    /// Raw quantized storage (row-major).
    pub fn as_slice(&self) -> &[i8] {
        &self.data
    }

    /// Consumes the matrix, returning its row-major storage. Lets callers
    /// that staged data through a [`QuantMatrix`] (e.g. the deployed
    /// engine's batched data matrices) recycle the buffer instead of
    /// dropping it.
    pub fn into_raw(self) -> Vec<i8> {
        self.data
    }

    /// Dequantizes back to a float matrix.
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|&q| self.params.dequantize(q)).collect(),
        )
    }
}

/// Integer reference GEMM: multiplies quantized `a (m×k)` and `b (k×n)`
/// accumulating at `width`, wrapping exactly as a fixed-width accumulator
/// would. Used to validate the bit-serial systolic simulator.
///
/// # Panics
///
/// Panics if inner dimensions differ.
pub fn quant_matmul(a: &QuantMatrix, b: &QuantMatrix, width: AccumWidth) -> Vec<i64> {
    assert_eq!(a.cols(), b.rows(), "quant_matmul inner dimension mismatch");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = vec![0i64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0i64;
            for kk in 0..k {
                acc = width.wrap(acc + (a.get(i, kk) as i64) * (b.get(kk, j) as i64));
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Applies ReLU then re-quantizes a 32-bit accumulated value to 8 bits, as
/// the paper's ReLU + quantization block does (§4.4): negative values clamp
/// to zero, positives are right-shifted back into 8-bit range by the scale
/// ratio.
pub fn relu_requantize(acc: i64, acc_scale: f32, out_params: QuantParams) -> i8 {
    if acc <= 0 {
        0
    } else {
        out_params.quantize(acc as f32 * acc_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{self, Kernel, Level};

    #[test]
    fn wrap_matches_twos_complement() {
        assert_eq!(AccumWidth::Bits16.wrap(32767), 32767);
        assert_eq!(AccumWidth::Bits16.wrap(32768), -32768);
        assert_eq!(AccumWidth::Bits16.wrap(-32769), 32767);
        assert_eq!(AccumWidth::Bits32.wrap(1 << 31), -(1i64 << 31));
        assert!(AccumWidth::Bits32.fits(i32::MAX as i64));
        assert!(!AccumWidth::Bits16.fits(40000));
    }

    /// The cast-based `wrap` must equal the definitional centred-modulus
    /// form on values well past both accumulator ranges.
    #[test]
    fn wrap_matches_centred_modulus_reference() {
        let reference = |width: AccumWidth, v: i64| {
            let m = 1i64 << width.bits();
            let r = v.rem_euclid(m);
            if r >= m / 2 {
                r - m
            } else {
                r
            }
        };
        for width in [AccumWidth::Bits16, AccumWidth::Bits32] {
            let half = 1i64 << (width.bits() - 1);
            for &base in &[0i64, half - 2, half, -half, 3 * half, i64::MAX / 2, i64::MIN / 2] {
                for d in -3..=3 {
                    let v = base.wrapping_add(d);
                    assert_eq!(width.wrap(v), reference(width, v), "width {width:?} v {v}");
                }
            }
        }
    }

    /// The formula [`requantize`] replaced, kept literally as its oracle.
    fn round_clamp_cast(x: f32) -> i8 {
        x.round().clamp(-127.0, 127.0) as i8
    }

    fn assert_requantize_matches(bits: u32) {
        let x = f32::from_bits(bits);
        assert_eq!(requantize(x), round_clamp_cast(x), "x = {x:e} (bits {bits:#010x})");
    }

    /// Every 251st bit pattern (251 is prime, so the stride visits every
    /// exponent and both signs, NaN payloads included), plus the places a
    /// rounding rewrite goes wrong: each half-integer across the saturation
    /// bounds with the floats on either side of it, zeros, infinities,
    /// subnormals and NaNs of both signs.
    #[test]
    fn requantize_matches_round_clamp_cast_on_sampled_and_edge_patterns() {
        for bits in (0..=u32::MAX).step_by(251) {
            assert_requantize_matches(bits);
        }
        for k in -130i32..=130 {
            for half in [k as f32 - 0.5, k as f32, k as f32 + 0.5] {
                for bits in [half.to_bits().wrapping_sub(1), half.to_bits(), half.to_bits() + 1] {
                    assert_requantize_matches(bits);
                }
            }
        }
        let specials = [
            0.0f32,
            f32::INFINITY,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x007f_ffff), // largest subnormal
            f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0x7fff_ffff),
            0.49999997,
            0.5,
            8388608.5,
            12582912.0,
        ];
        for x in specials {
            assert_requantize_matches(x.to_bits());
            assert_requantize_matches((-x).to_bits());
        }
    }

    /// All 2³² bit patterns; ≈ 20 s in release, so CI runs it as its own
    /// step: `cargo test --release -p cc-tensor -- --ignored requantize`.
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run in release"]
    fn requantize_matches_round_clamp_cast_on_every_bit_pattern() {
        let mismatches = (0..=u32::MAX)
            .filter(|&bits| {
                let x = f32::from_bits(bits);
                requantize(x) != round_clamp_cast(x)
            })
            .count();
        assert_eq!(mismatches, 0);
    }

    /// [`requantize_slice`] as a kernel over `xs`: the scalar
    /// `requantize` at baseline, the eight-lane twin at every AVX2 level —
    /// and, with `X16`, the sixteen-lane twin ([`requantize_slice_x16`])
    /// at the AVX-512 one.
    struct Twin<'a, const X16: bool> {
        xs: &'a [f32],
        out: &'a mut [i8],
    }

    impl<const X16: bool> Kernel for Twin<'_, X16> {
        type Out = ();
        const AVX512: bool = X16;

        #[inline(always)]
        fn run(self) {
            for (q, &x) in self.out.iter_mut().zip(self.xs) {
                *q = requantize(x);
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        fn run_avx2(self, t: Avx2) {
            requantize_slice(t, self.out, &Floats(self.xs));
        }

        #[cfg(target_arch = "x86_64")]
        #[inline(always)]
        fn run_avx512_vnni(self, t: Avx512Vnni) {
            requantize_slice_x16(t, self.out, &Floats(self.xs));
        }
    }

    /// Quotients given as they are.
    #[cfg(target_arch = "x86_64")]
    struct Floats<'a>(&'a [f32]);

    #[cfg(target_arch = "x86_64")]
    impl Quotients for Floats<'_> {
        #[inline(always)]
        fn x8(&self, t: Avx2, i: usize) -> __m256 {
            avx2::load_f32x8(t, &self.0[i..])
        }

        #[inline(always)]
        fn x16(&self, t: Avx512Vnni, i: usize) -> __m512 {
            avx512::load_f32x16(t, &self.0[i..])
        }

        #[inline(always)]
        fn word(&self, i: usize) -> i8 {
            requantize(self.0[i])
        }
    }

    /// `xs` through the twin at each of `levels` against the scalar
    /// `requantize`, word by word. `xs` is a whole number of 32-word
    /// steps, so every word goes through the vector body, never the tail.
    fn assert_twin_matches<const X16: bool>(xs: &[f32], levels: &[Level]) {
        assert_eq!(xs.len() % 32, 0, "pad to whole 32-word steps");
        let want: Vec<i8> = xs.iter().map(|&x| requantize(x)).collect();
        let mut out = vec![0i8; xs.len()];
        for &level in levels {
            isa::run_at(level, Twin::<X16> { xs, out: &mut out });
            if let Some(i) = (0..xs.len()).find(|&i| out[i] != want[i]) {
                let x = xs[i];
                let (got, want, bits) = (out[i], want[i], x.to_bits());
                panic!("{}: x = {x:e} ({bits:#010x}) gave {got}, want {want}", level.name());
            }
        }
    }

    /// Pads `xs` with zeros to whole 32-word steps.
    fn padded(mut xs: Vec<f32>) -> Vec<f32> {
        xs.resize(xs.len().next_multiple_of(32), 0.0);
        xs
    }

    /// Where a rounding rewrite goes wrong: every `k + 0.5` and `k` across
    /// the saturation bounds with the eight floats either side of each,
    /// zeros, NaNs and infinities of both signs, subnormals, huge values,
    /// and a seeded million bit patterns (every exponent, both signs).
    fn ties_specials_and_a_seeded_sample() -> Vec<f32> {
        let mut xs = Vec::new();
        for k in -130i32..=130 {
            for centre in [k as f32 + 0.5, k as f32] {
                let bits = centre.to_bits();
                let near = (0..=8).flat_map(|d| [bits.wrapping_sub(d), bits.wrapping_add(d)]);
                xs.extend(near.map(f32::from_bits));
            }
        }
        let specials = [
            0.0f32,
            f32::INFINITY,
            f32::NAN,
            f32::from_bits(0x7f80_0001), // signalling NaN
            f32::from_bits(0x7fff_ffff),
            f32::from_bits(1), // smallest subnormal
            f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            f32::MAX,
            1e30,
            0.49999997,
            8388608.5,
            12582912.0,
            2147483648.0,
        ];
        xs.extend(specials.iter().flat_map(|&x| [x, -x]));
        let mut state = 0x2545_f491_4f6c_dd1du64;
        xs.extend((0..1 << 20).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            f32::from_bits(state as u32)
        }));
        padded(xs)
    }

    /// The eight-lane twin on the sample, at every level the CPU has.
    #[test]
    fn x8_twin_matches_requantize_on_ties_specials_and_a_seeded_sample() {
        assert_twin_matches::<false>(&ties_specials_and_a_seeded_sample(), &Level::available());
    }

    /// The sixteen-lane twin on the same sample, at the detected level
    /// (the only one where it differs from the eight-lane one; on a CPU
    /// without AVX-512 VNNI this checks that one again).
    #[test]
    fn x16_twin_matches_requantize_on_ties_specials_and_a_seeded_sample() {
        assert_twin_matches::<true>(&ties_specials_and_a_seeded_sample(), &[Level::detect()]);
    }

    /// Every `f32` in `[-130, 130]` — 2.25 · 10⁹ of them, past both
    /// saturation bounds — through the twin at each of `levels`.
    fn assert_twin_matches_within_130<const X16: bool>(levels: &[Level]) {
        let top = 130.0f32.to_bits();
        let chunk = 1 << 20;
        let mut xs = Vec::with_capacity(chunk);
        for sign in [0, 1u32 << 31] {
            for start in (0..=top).step_by(chunk) {
                xs.clear();
                let end = top.min(start + chunk as u32 - 1);
                xs.extend((start..=end).map(|b| f32::from_bits(b | sign)));
                assert_twin_matches::<X16>(&padded(std::mem::take(&mut xs)), levels);
            }
        }
    }

    /// The eight-lane twin on every `f32` in `[-130, 130]` against
    /// `requantize` (which the sweep above holds to the libcall formula).
    /// A few seconds in release, so CI runs it as its own step:
    /// `cargo test --release -p cc-tensor -- --ignored _twin_matches_on_every_float`.
    #[test]
    #[ignore = "2.25e9 floats; run in release"]
    fn x8_twin_matches_on_every_float_within_130() {
        assert_twin_matches_within_130::<false>(&Level::available());
    }

    /// The sixteen-lane twin on the same floats, at the detected level; in
    /// the same CI step.
    #[test]
    #[ignore = "2.25e9 floats; run in release"]
    fn x16_twin_matches_on_every_float_within_130() {
        assert_twin_matches_within_130::<true>(&[Level::detect()]);
    }

    #[test]
    fn quantize_roundtrip_error_bounded() {
        let p = QuantParams::from_max_abs(1.0);
        for i in -100..=100 {
            let v = i as f32 / 100.0;
            let err = (p.dequantize(p.quantize(v)) - v).abs();
            assert!(err <= p.scale() / 2.0 + 1e-6, "error {err} too large at {v}");
        }
    }

    #[test]
    fn quantize_saturates() {
        let p = QuantParams::from_max_abs(1.0);
        assert_eq!(p.quantize(10.0), 127);
        assert_eq!(p.quantize(-10.0), -127);
    }

    #[test]
    fn degenerate_scale_falls_back() {
        let p = QuantParams::from_max_abs(0.0);
        assert_eq!(p.scale(), 1.0);
        let p = QuantParams::calibrate(&[]);
        assert_eq!(p.scale(), 1.0);
    }

    #[test]
    fn quant_matmul_matches_float_small_values() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let qa = QuantMatrix::quantize(&a);
        let qb = QuantMatrix::quantize(&b);
        let out = quant_matmul(&qa, &qb, AccumWidth::Bits32);
        // identity data matrix: result should be the quantized a
        assert_eq!(out[0], qa.get(0, 0) as i64 * qb.get(0, 0) as i64);
    }

    #[test]
    fn sixteen_bit_accumulation_wraps() {
        // 127*127*3 = 48387 overflows 16-bit and must wrap deterministically.
        let a = QuantMatrix {
            rows: 1,
            cols: 3,
            data: vec![127, 127, 127],
            params: QuantParams::from_max_abs(127.0),
        };
        let b = QuantMatrix {
            rows: 3,
            cols: 1,
            data: vec![127, 127, 127],
            params: QuantParams::from_max_abs(127.0),
        };
        let out = quant_matmul(&a, &b, AccumWidth::Bits16);
        assert_eq!(out[0], AccumWidth::Bits16.wrap(48387));
        let out32 = quant_matmul(&a, &b, AccumWidth::Bits32);
        assert_eq!(out32[0], 48387);
    }

    #[test]
    fn relu_requantize_clamps_negative() {
        let p = QuantParams::from_max_abs(1.0);
        assert_eq!(relu_requantize(-5, 0.01, p), 0);
        assert!(relu_requantize(100, 0.01, p) > 0);
    }

    #[test]
    fn quant_matrix_roundtrip() {
        let m = Matrix::from_rows(&[&[0.5, -1.0], &[0.0, 1.0]]);
        let q = QuantMatrix::quantize(&m);
        let back = q.to_matrix();
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() < 0.01);
        }
    }
}
