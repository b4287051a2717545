//! The workspace's one ISA dispatch: run a block at the widest vector level
//! the CPU has.
//!
//! The deployed engine's peripheral blocks — the ReLU + quantizer epilogue
//! behind the systolic lane kernel, the residual add, the pools, the input
//! quantizer — and the lane kernel's baseline arm are intrinsic-free loops
//! over slices. What vector instructions such a loop becomes is decided by
//! the *function it is compiled into*: the build's baseline (x86-64 means
//! SSE2, four `f32` or `i32` to the instruction), or a function that
//! carries `#[target_feature(enable = "avx2")]` (eight). So a block is
//! written once, as a [`Kernel`] whose `run` is `#[inline(always)]`, and
//! [`run_at`] compiles it twice by inlining it into two callers: itself,
//! and a private `run_avx2` whose whole body is one call of
//! [`Kernel::run_avx2`] — by default `run` again. [`run`] picks between
//! them from the CPU, once per call of a block (a cached atomic load);
//! there is no knob, build flag or `RUSTFLAGS`. A CPU without AVX2, or a
//! target that is not x86-64, runs the baseline instantiation.
//!
//! A block that needs an instruction the optimiser will not pick from safe
//! Rust — the 32-bit lane kernel wants `vpmaddwd` — overrides
//! [`Kernel::run_avx2`] with a body written in the [`avx2`] wrappers. Each
//! takes the [`Avx2`] token the dispatch hands to `run_avx2`, so no
//! intrinsic can be reached on a CPU that lacks it.
//!
//! Only `avx2` is ever enabled — never `fma`. Rust does not contract
//! `a * b + c`, and without the feature the backend has no fused
//! instruction to contract it into, so an elementwise IEEE expression
//! gives the same bits at every level: wider registers reorder nothing.
//! Integer lanes wrap the same at any width. That is what lets the
//! bit-identity suites hold a level-dispatched engine to constants taken
//! before it existed.
//!
//! ## Soundness
//!
//! This module holds the workspace's two audited exceptions to
//! `unsafe_code = "deny"`.
//!
//! The first is the call from [`run_at`] into `run_avx2`. Calling a
//! `#[target_feature]` function is undefined behaviour on a CPU without the
//! feature and has no other requirement, so the call is sound exactly when
//! the CPU has AVX2 — and it is reached only through a [`Level::Avx2`],
//! which carries a [`Detected`]. `Detected`'s field is private, so nothing
//! outside this module can construct one, and inside it only
//! [`Level::detect`] does, after `is_x86_feature_detected!("avx2")` said
//! yes. Kernels are safe code on both sides of the call; nothing they do
//! can make it unsound.
//!
//! The second is the [`avx2`] module. An AVX2 intrinsic is a
//! `#[target_feature]` function, so calling one from a function without
//! the feature is `unsafe` for the same one reason. Every wrapper takes an
//! [`Avx2`] by value, and an `Avx2` is made only by `run_at`, from the
//! `Detected` of a [`Level::Avx2`] (its field is private too): holding one
//! proves the CPU has AVX2. The wrappers that touch memory take slices and
//! check the length before the unaligned load or store, so every pointer
//! they hand an intrinsic covers the bytes it reads or writes. The Rust
//! ABI passes a vector the same way whatever target features caller and
//! callee have, so a wrapper that is *not* inlined is slow, never unsound.
//!
//! A kernel that *fails to inline* (a missing `#[inline(always)]` on `run`,
//! `run_avx2` or something they call, or a call into another crate the
//! optimiser declines) is compiled for the baseline and merely called from
//! `run_avx2`: slower than intended, never unsound, and invisible to every
//! test. The `objdump` checks in CI and in the verify skill (`vdivps` and
//! `vpmaddwd` on `ymm` registers in the shipped binary) are what make that
//! failure loud.
//!
//! ```compile_fail
//! // The proof token cannot be forged outside the module.
//! let forged = cc_tensor::isa::Level::Avx2(cc_tensor::isa::Detected(()));
//! ```
//!
//! ```compile_fail
//! // Nor can the token the intrinsic wrappers take.
//! let forged: cc_tensor::isa::Avx2 = cc_tensor::isa::Avx2(unreachable!());
//! ```

/// Proof that the CPU reported AVX2. Only [`Level::detect`] makes one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detected(());

/// Proof, handed to [`Kernel::run_avx2`], that the CPU has AVX2: the key
/// every [`avx2`] wrapper takes. Only the dispatch makes one, from the
/// [`Detected`] of a [`Level::Avx2`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx2(Detected);

/// A vector level this CPU can run a [`Kernel`] at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Whatever the build targets (SSE2 on x86-64).
    Baseline,
    /// 256-bit integer and float vectors.
    #[cfg(target_arch = "x86_64")]
    Avx2(Detected),
}

impl Level {
    /// The widest level the CPU has. `is_x86_feature_detected!` caches its
    /// CPUID probe, so this is an atomic load.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Level::Avx2(Detected(()));
        }
        Level::Baseline
    }

    /// Every level the CPU has, baseline first, so tests and demos can
    /// cover each compilation they can run — not only the detected one.
    pub fn available() -> Vec<Self> {
        let mut levels = vec![Level::Baseline, Self::detect()];
        levels.dedup();
        levels
    }

    /// `"baseline"` or `"avx2"`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2(_) => "avx2",
        }
    }
}

/// A block of work compiled once per [`Level`]. Mark `run`
/// `#[inline(always)]`, and everything it calls per element too: the body
/// takes the target features of the function it is inlined into, and one
/// that is not inlined runs at baseline (see the module docs).
pub trait Kernel {
    /// What the block returns.
    type Out;
    /// The block itself: safe Rust, no intrinsics.
    fn run(self) -> Self::Out;
    /// The block's AVX2 compilation, which the dispatch runs in place of
    /// `run` when the CPU has AVX2: by default `run` itself. Override it
    /// (`#[inline(always)]`, returning what `run` returns, bit for bit)
    /// where a body in the [`avx2`] wrappers beats what the optimiser makes
    /// of `run`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx2(self, _avx2: Avx2) -> Self::Out
    where
        Self: Sized,
    {
        self.run()
    }
}

/// Runs `kernel` at `level`. Results do not depend on the level.
#[inline]
pub fn run_at<K: Kernel>(level: Level, kernel: K) -> K::Out {
    match level {
        Level::Baseline => kernel.run(),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Level::Avx2(detected) => {
            // SAFETY: `run_avx2` is safe Rust whose one requirement is a
            // CPU with AVX2, and a `Level::Avx2` exists only because
            // `Level::detect` saw `is_x86_feature_detected!("avx2")`
            // (nothing outside this module can construct its `Detected`).
            unsafe { run_avx2(kernel, Avx2(detected)) }
        }
    }
}

/// Runs `kernel` at the widest level the CPU has.
#[inline]
pub fn run<K: Kernel>(kernel: K) -> K::Out {
    run_at(Level::detect(), kernel)
}

/// A kernel's AVX2 compilation: all of it is the inlined callee.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(kernel: K, avx2: Avx2) -> K::Out {
    kernel.run_avx2(avx2)
}

/// AVX2 intrinsics behind the [`Avx2`] token, for a [`Kernel::run_avx2`]
/// body. Each is `#[inline(always)]` and is one instruction once inlined
/// into the dispatch's AVX2 compilation (named beside it); the loads and
/// the store check their slice's length first (see the module docs for
/// why these are sound). Vectors are [`__m256i`](avx2::__m256i): eight
/// `i32` or sixteen `i16`, as the wrapper says.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod avx2 {
    use super::Avx2;
    pub use core::arch::x86_64::__m256i;
    use core::arch::x86_64::{
        _mm256_add_epi32, _mm256_cvtepi8_epi16, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_permute2x128_si256, _mm256_set1_epi32, _mm256_setzero_si256, _mm256_slli_epi32,
        _mm256_storeu_si256, _mm256_unpackhi_epi32, _mm256_unpacklo_epi32, _mm_loadu_si128,
    };

    /// The first 16 bytes of `src`, sign-extended to sixteen `i16`
    /// (`vpmovsxbw`).
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than 16.
    #[inline(always)]
    pub fn widen_i8x16(_: Avx2, src: &[i8]) -> __m256i {
        let src = &src[..16];
        // SAFETY: the token proves AVX2; `src` holds the 16 bytes read,
        // and `loadu` takes any alignment.
        unsafe { _mm256_cvtepi8_epi16(_mm_loadu_si128(src.as_ptr().cast())) }
    }

    /// The first eight `i32` of `src` (`vmovdqu`).
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than 8.
    #[inline(always)]
    pub fn load_i32x8(_: Avx2, src: &[i32]) -> __m256i {
        let src = &src[..8];
        // SAFETY: the token proves AVX2; `src` holds the 32 bytes read,
        // and `loadu` takes any alignment.
        unsafe { _mm256_loadu_si256(src.as_ptr().cast()) }
    }

    /// Stores `v` over the first eight `i32` of `dst` (`vmovdqu`).
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than 8.
    #[inline(always)]
    pub fn store_i32x8(_: Avx2, dst: &mut [i32], v: __m256i) {
        let dst = &mut dst[..8];
        // SAFETY: the token proves AVX2; `dst` is 32 writable bytes, and
        // `storeu` takes any alignment.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }

    /// `*w` in all eight `i32` lanes (`vpbroadcastd`, from memory).
    #[inline(always)]
    pub fn broadcast_i32(_: Avx2, w: &i32) -> __m256i {
        // SAFETY: the token proves AVX2.
        unsafe { _mm256_set1_epi32(*w) }
    }

    /// All lanes zero (`vpxor`).
    #[inline(always)]
    pub fn zero(_: Avx2) -> __m256i {
        // SAFETY: the token proves AVX2.
        unsafe { _mm256_setzero_si256() }
    }

    /// Multiplies the sixteen `i16` of `a` and `b` lane by lane and adds
    /// each adjacent pair of products into one `i32` (`vpmaddwd`).
    #[inline(always)]
    pub fn madd_i16(_: Avx2, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: the token proves AVX2.
        unsafe { _mm256_madd_epi16(a, b) }
    }

    /// Wrapping `i32` add, lane by lane (`vpaddd`).
    #[inline(always)]
    pub fn add_i32(_: Avx2, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: the token proves AVX2.
        unsafe { _mm256_add_epi32(a, b) }
    }

    /// Each `i32` lane shifted left by `N` bits (`vpslld`).
    #[inline(always)]
    pub fn shl_i32<const N: i32>(_: Avx2, a: __m256i) -> __m256i {
        // SAFETY: the token proves AVX2.
        unsafe { _mm256_slli_epi32::<N>(a) }
    }

    /// Per 128-bit half, the low two `i32` of `a` and `b` interleaved:
    /// `[a0, b0, a1, b1 | a4, b4, a5, b5]` (`vpunpckldq`).
    #[inline(always)]
    pub fn unpack_lo_i32(_: Avx2, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: the token proves AVX2.
        unsafe { _mm256_unpacklo_epi32(a, b) }
    }

    /// Per 128-bit half, the high two `i32` of `a` and `b` interleaved:
    /// `[a2, b2, a3, b3 | a6, b6, a7, b7]` (`vpunpckhdq`).
    #[inline(always)]
    pub fn unpack_hi_i32(_: Avx2, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: the token proves AVX2.
        unsafe { _mm256_unpackhi_epi32(a, b) }
    }

    /// Two 128-bit halves picked from `a` and `b` by `IMM`
    /// (`vperm2i128`): `0x20` is both low halves, `0x31` both high ones.
    #[inline(always)]
    pub fn permute2x128<const IMM: i32>(_: Avx2, a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: the token proves AVX2.
        unsafe { _mm256_permute2x128_si256::<IMM>(a, b) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum<'a>(&'a [i32]);

    impl Kernel for Sum<'_> {
        type Out = i32;
        #[inline(always)]
        fn run(self) -> i32 {
            self.0.iter().fold(0, |s, &v| s.wrapping_add(v))
        }
    }

    #[test]
    fn detected_level_is_available_and_baseline_always_is() {
        let levels = Level::available();
        assert_eq!(levels[0], Level::Baseline);
        assert!(levels.contains(&Level::detect()));
        let names: Vec<_> = levels.iter().map(|level| level.name()).collect();
        assert!(names == ["baseline"] || names == ["baseline", "avx2"], "{names:?}");
    }

    /// The slice check runs before the load, so a short slice panics
    /// instead of reading past its end.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[should_panic(expected = "out of range for slice of length 15")]
    fn the_widening_load_panics_on_a_short_slice() {
        let short: &[i8] = std::hint::black_box(&[0; 15]);
        match Level::detect() {
            Level::Avx2(detected) => {
                avx2::widen_i8x16(Avx2(detected), short);
            }
            // No token without AVX2: index as the load does.
            Level::Baseline => {
                let _ = &short[..16];
            }
        }
    }

    #[test]
    fn a_kernel_returns_the_same_at_every_level() {
        let words: Vec<i32> = (0..1000i32).map(|i| i.wrapping_mul(0x0101_0101)).collect();
        let want = Sum(&words).run();
        for level in Level::available() {
            assert_eq!(run_at(level, Sum(&words)), want, "{}", level.name());
        }
        assert_eq!(run(Sum(&words)), want);
    }
}
