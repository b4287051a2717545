//! The workspace's one ISA dispatch: run a block at the widest vector level
//! the CPU has.
//!
//! The deployed engine's peripheral blocks — the ReLU + quantizer epilogue
//! behind the systolic lane kernel, the residual add, the pools, the input
//! quantizer — the lane kernel's baseline arm, and the float training
//! path's register-tiled GEMM ([`crate::matmul_acc`], whose strips of `c`
//! sit in 4 (8) AVX2 (SSE2) registers across a row's terms) are
//! intrinsic-free loops over slices. What vector instructions such a loop becomes is decided by
//! the *function it is compiled into*: the build's baseline (x86-64 means
//! SSE2, four `f32` or `i32` to the instruction), or a function that
//! carries `#[target_feature(enable = "avx2")]` (eight). So a block is
//! written once, as a [`Kernel`] whose `run` is `#[inline(always)]`, and
//! [`run_at`] compiles it by inlining it into one caller per level:
//! itself, a private `run_avx2` whose whole body is one call of
//! [`Kernel::run_avx2`] — by default `run` again — a private
//! `run_avx2_vnni`, compiled for AVX2 plus AVX-VNNI, whose body is one
//! call of [`Kernel::run_avx2_vnni`] — by default `run_avx2` — and, for a
//! block that sets [`Kernel::AVX512`], a private `run_avx512_vnni`,
//! compiled for AVX-512, whose body is one call of
//! [`Kernel::run_avx512_vnni`]. [`run`] picks between them from the CPU,
//! once per call of a block (a cached atomic load); there is no knob,
//! build flag or `RUSTFLAGS`. A CPU without AVX2, or a target that is not
//! x86-64, runs the baseline instantiation.
//!
//! The four levels are [`Level::Baseline`], [`Level::Avx2`],
//! [`Level::Avx2Vnni`] and [`Level::Avx512Vnni`] (`"baseline"`, `"avx2"`,
//! `"avx2+vnni"`, `"avx512+vnni"`). AVX-VNNI is the VEX-encoded, 256-bit
//! form of the multiply-accumulate instructions, so it runs at AVX2's
//! clock; only the 32-bit lane kernel has a body of its own there
//! (`vpdpwssd` for each `vpmaddwd` + `vpaddd` pair), and every other block
//! runs its AVX2 body. The AVX-512 level needs AVX-512 F, BW, VL and VNNI
//! on top of AVX2 and AVX-VNNI (a CPU with AVX-512 VNNI but no AVX-VNNI
//! stays at `"avx2"`). Only the blocks that set [`Kernel::AVX512`] — the
//! lane kernel's 64-wide blocks and the requantizer behind the epilogue
//! and the residual add, integer-output blocks whose 512-bit bodies were
//! measured to pay — run a body of their own there; every other block,
//! the float training GEMM, the pools and the input quantizer among them,
//! runs its `run_avx2_vnni` compilation, unchanged.
//!
//! A block that needs an instruction the optimiser will not pick from safe
//! Rust — the 32-bit lane kernel wants `vpmaddwd` (or `vpdpwssd`), the
//! ReLU + quantizer block and the residual add want `vcvtps2dq` and a
//! `vpackssdw` / `vpacksswb` (or `vpmovsdb`) narrowing — overrides
//! [`Kernel::run_avx2`] (and [`Kernel::run_avx2_vnni`], or
//! [`Kernel::run_avx512_vnni`]) with a body written in the [`avx2`] (or
//! [`avx512`]) wrappers. Each takes the [`Avx2`] (or [`Avx2Vnni`], or
//! [`Avx512Vnni`]) token the dispatch hands to the override, so no
//! intrinsic can be reached on a CPU that lacks it.
//!
//! `fma` is never enabled by name, and at the AVX2 levels it is not on at
//! all: only `avx2` and `avxvnni` are. The compiler's `avx512f` implies
//! `fma`, so inside `run_avx512_vnni` the backend does have a fused
//! instruction; what keeps `a * b + c` two roundings there is Rust's rule
//! that it never contracts, which the `objdump` check below (`vfmadd`
//! absent) confirms. That is also why a block without a 512-bit body is
//! not compiled a fourth time: its float expressions never pass through
//! an `fma`-enabled function. An elementwise IEEE expression therefore
//! gives the same bits at every level: wider registers reorder nothing.
//! Integer lanes wrap the same at any width, and `vpdpwssd` wraps (its
//! saturating twin `vpdpwssds` is never used). That is what lets the
//! bit-identity suites hold a level-dispatched engine to constants taken
//! before it existed.
//!
//! ## Soundness
//!
//! This module holds the workspace's two audited exceptions to
//! `unsafe_code = "deny"`.
//!
//! The first is [`run_at`]'s calls into `run_avx2`, `run_avx2_vnni` and
//! `run_avx512_vnni`. Calling a `#[target_feature]` function is undefined
//! behaviour on a CPU without the feature and has no other requirement,
//! so each call is sound exactly when the CPU has its features — and it is
//! reached only through a [`Level::Avx2`], which carries a [`Detected`], a
//! [`Level::Avx2Vnni`], which carries a [`DetectedVnni`], or a
//! [`Level::Avx512Vnni`], which carries a [`DetectedAvx512`] (and calls
//! `run_avx2_vnni` for a block without a 512-bit body: the CPU it was
//! detected on has AVX-VNNI too). Their fields are private, so nothing
//! outside this module can construct one, and inside it only
//! [`Level::detect`] and [`Level::available`] do, after
//! `is_x86_feature_detected!("avx2")` (and, for `DetectedVnni`,
//! `is_x86_feature_detected!("avxvnni")` too; for `DetectedAvx512`, also
//! `"avx512f"`, `"avx512bw"`, `"avx512vl"` and `"avx512vnni"`) said yes.
//! Kernels are safe code on both sides of the call; nothing they do can
//! make it unsound.
//!
//! The second is the intrinsic wrappers, the [`avx2`] and [`avx512`]
//! modules, which share one allow. An AVX2, AVX-VNNI or AVX-512 intrinsic
//! is a `#[target_feature]` function, so calling one from a function
//! without the feature is `unsafe` for the same one reason. Every AVX2
//! wrapper takes an [`Avx2`] by value, and an `Avx2` is made only by
//! `run_at`, from the `Detected` of a [`Level::Avx2`], or by
//! [`Avx2Vnni::avx2`] and [`Avx512Vnni::avx2`] (those levels prove AVX2
//! too): holding one proves the CPU has AVX2. The one AVX-VNNI wrapper,
//! [`avx2::dpwssd`], takes an [`Avx2Vnni`], made only by `run_at` from the
//! `DetectedVnni` of a [`Level::Avx2Vnni`], or by
//! [`Avx512Vnni::avx2_vnni`]. Every [`avx512`] wrapper takes an
//! [`Avx512Vnni`], made only by `run_at` from the `DetectedAvx512` of a
//! [`Level::Avx512Vnni`]. The wrappers that touch memory take slices and
//! check the length before the unaligned load or store, so every pointer
//! they hand an intrinsic covers the bytes it reads or writes. The Rust
//! ABI passes a vector the same way whatever target features caller and
//! callee have, so a wrapper that is *not* inlined is slow, never unsound.
//!
//! A kernel that *fails to inline* (a missing `#[inline(always)]` on `run`,
//! `run_avx2` or something they call, or a call into another crate the
//! optimiser declines) is compiled for the baseline and merely called from
//! `run_avx2`: slower than intended, never unsound, and invisible to every
//! test. The `objdump` checks in CI and in the verify skill (`vdivps`,
//! `vcvtps2dq`, `vpmaddwd` and `vpdpwssd` on `ymm` registers in a binary
//! that serves, `vpdpwssd`, `vcvtps2dq` and `vdivps` on `zmm` ones, no
//! `vfmadd` anywhere, `vmulps` on `ymm` in one that trains) are what make
//! that failure loud.
//!
//! ```compile_fail
//! // The proof token cannot be forged outside the module.
//! let forged = cc_tensor::isa::Level::Avx2(cc_tensor::isa::Detected(()));
//! ```
//!
//! ```compile_fail
//! // Nor can the VNNI one.
//! let forged = cc_tensor::isa::Level::Avx2Vnni(cc_tensor::isa::DetectedVnni(()));
//! ```
//!
//! ```compile_fail
//! // Nor the tokens the intrinsic wrappers take.
//! let forged: cc_tensor::isa::Avx2 = cc_tensor::isa::Avx2(unreachable!());
//! ```
//!
//! ```compile_fail
//! let forged: cc_tensor::isa::Avx2Vnni = cc_tensor::isa::Avx2Vnni(unreachable!());
//! ```
//!
//! ```compile_fail
//! // Nor the AVX-512 ones.
//! let forged = cc_tensor::isa::Level::Avx512Vnni(cc_tensor::isa::DetectedAvx512(()));
//! ```
//!
//! ```compile_fail
//! let forged: cc_tensor::isa::Avx512Vnni = cc_tensor::isa::Avx512Vnni(unreachable!());
//! ```

/// Proof that the CPU reported AVX2. Only [`Level::detect`] and
/// [`Level::available`] make one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detected(());

/// Proof that the CPU reported AVX2 and AVX-VNNI. Only [`Level::detect`]
/// and [`Level::available`] make one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectedVnni(());

/// Proof, handed to [`Kernel::run_avx2`], that the CPU has AVX2: the key
/// every [`avx2`] wrapper but [`avx2::dpwssd`] takes. Only the dispatch
/// makes one, from the [`Detected`] of a [`Level::Avx2`], and
/// [`Avx2Vnni::avx2`] and [`Avx512Vnni::avx2`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx2(Detected);

/// Proof, handed to [`Kernel::run_avx2_vnni`], that the CPU has AVX2 and
/// AVX-VNNI: the key [`avx2::dpwssd`] takes. Only the dispatch makes one,
/// from the [`DetectedVnni`] of a [`Level::Avx2Vnni`], and
/// [`Avx512Vnni::avx2_vnni`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx2Vnni(DetectedVnni);

#[cfg(target_arch = "x86_64")]
impl Avx2Vnni {
    /// The AVX2 token: a CPU with AVX-VNNI was also seen to have AVX2.
    #[inline(always)]
    pub fn avx2(self) -> Avx2 {
        Avx2(Detected(()))
    }
}

/// Proof that the CPU reported AVX2, AVX-VNNI and AVX-512 F, BW, VL and
/// VNNI. Only [`Level::detect`] makes one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectedAvx512(());

/// Proof, handed to [`Kernel::run_avx512_vnni`], that the CPU has
/// AVX-512 F, BW, VL and VNNI, and AVX2 and AVX-VNNI below them: the key
/// every [`avx512`] wrapper takes. Only the dispatch makes one, from the
/// [`DetectedAvx512`] of a [`Level::Avx512Vnni`].
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx512Vnni(DetectedAvx512);

#[cfg(target_arch = "x86_64")]
impl Avx512Vnni {
    /// The AVX2 + AVX-VNNI token: the level was detected only on a CPU
    /// that has both.
    #[inline(always)]
    pub fn avx2_vnni(self) -> Avx2Vnni {
        Avx2Vnni(DetectedVnni(()))
    }

    /// The AVX2 token.
    #[inline(always)]
    pub fn avx2(self) -> Avx2 {
        Avx2(Detected(()))
    }
}

/// A vector level this CPU can run a [`Kernel`] at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Whatever the build targets (SSE2 on x86-64).
    Baseline,
    /// 256-bit integer and float vectors.
    #[cfg(target_arch = "x86_64")]
    Avx2(Detected),
    /// AVX2 plus the 256-bit AVX-VNNI multiply-accumulate (`vpdpwssd`).
    #[cfg(target_arch = "x86_64")]
    Avx2Vnni(DetectedVnni),
    /// AVX2 + AVX-VNNI, plus AVX-512 F, BW, VL and VNNI for the blocks that
    /// have a 512-bit body ([`Kernel::AVX512`]).
    #[cfg(target_arch = "x86_64")]
    Avx512Vnni(DetectedAvx512),
}

impl Level {
    /// The widest level the CPU has. `is_x86_feature_detected!` caches its
    /// CPUID probe, so this is an atomic load or two.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            if std::arch::is_x86_feature_detected!("avxvnni") {
                if std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vl")
                    && std::arch::is_x86_feature_detected!("avx512vnni")
                {
                    return Level::Avx512Vnni(DetectedAvx512(()));
                }
                return Level::Avx2Vnni(DetectedVnni(()));
            }
            return Level::Avx2(Detected(()));
        }
        Level::Baseline
    }

    /// Every level the CPU has, baseline first, so tests and demos can
    /// cover each compilation they can run — not only the detected one. An
    /// AVX-512 VNNI host lists all four, so the AVX2 and AVX-VNNI bodies
    /// stay covered there too.
    pub fn available() -> Vec<Self> {
        match Self::detect() {
            Level::Baseline => vec![Level::Baseline],
            #[cfg(target_arch = "x86_64")]
            avx2 @ Level::Avx2(_) => vec![Level::Baseline, avx2],
            #[cfg(target_arch = "x86_64")]
            vnni @ Level::Avx2Vnni(_) => {
                vec![Level::Baseline, Level::Avx2(Detected(())), vnni]
            }
            #[cfg(target_arch = "x86_64")]
            avx512 @ Level::Avx512Vnni(_) => vec![
                Level::Baseline,
                Level::Avx2(Detected(())),
                Level::Avx2Vnni(DetectedVnni(())),
                avx512,
            ],
        }
    }

    /// `"baseline"`, `"avx2"`, `"avx2+vnni"` or `"avx512+vnni"`.
    pub fn name(self) -> &'static str {
        match self {
            Level::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2(_) => "avx2",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2Vnni(_) => "avx2+vnni",
            #[cfg(target_arch = "x86_64")]
            Level::Avx512Vnni(_) => "avx512+vnni",
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
    /// The block's AVX2 + AVX-VNNI compilation, which the dispatch runs in
    /// place of `run` when the CPU has both: by default `run_avx2`. Override
    /// it as `run_avx2` is overridden, where a body with
    /// [`avx2::dpwssd`] beats the AVX2 one.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx2_vnni(self, vnni: Avx2Vnni) -> Self::Out
    where
        Self: Sized,
    {
        self.run_avx2(vnni.avx2())
    }
    /// Whether the block has a 512-bit body, [`Kernel::run_avx512_vnni`].
    /// A block without one (the default) runs its `run_avx2_vnni`
    /// compilation at [`Level::Avx512Vnni`]: it is not compiled a fourth
    /// time with AVX-512 on, which would also turn on `fma`.
    const AVX512: bool = false;
    /// The block's AVX-512 compilation, which the dispatch runs in place
    /// of `run` at [`Level::Avx512Vnni`] when [`Kernel::AVX512`] is set.
    /// Override both together, as `run_avx2` is overridden, where a body in
    /// the [`avx512`] wrappers beats the AVX-VNNI one. The default is
    /// `run_avx2_vnni`, compiled there.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn run_avx512_vnni(self, avx512: Avx512Vnni) -> Self::Out
    where
        Self: Sized,
    {
        self.run_avx2_vnni(avx512.avx2_vnni())
    }
}

/// Runs `kernel` at `level`. Results do not depend on the level.
#[inline]
#[allow(unsafe_code)]
pub fn run_at<K: Kernel>(level: Level, kernel: K) -> K::Out {
    match level {
        Level::Baseline => kernel.run(),
        // SAFETY: `run_avx2` is safe Rust whose one requirement is a CPU
        // with AVX2, and a `Level::Avx2` exists only because
        // `is_x86_feature_detected!("avx2")` said yes (nothing outside this
        // module can construct its `Detected`).
        #[cfg(target_arch = "x86_64")]
        Level::Avx2(detected) => unsafe { run_avx2(kernel, Avx2(detected)) },
        // SAFETY: as above, for a CPU with AVX2 and AVX-VNNI, which is what
        // a `DetectedVnni` was made after.
        #[cfg(target_arch = "x86_64")]
        Level::Avx2Vnni(detected) => unsafe { run_avx2_vnni(kernel, Avx2Vnni(detected)) },
        // SAFETY: as above, for a CPU with AVX2, AVX-VNNI and AVX-512 F,
        // BW, VL and VNNI, which is what a `DetectedAvx512` was made after.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512Vnni(detected) if K::AVX512 => unsafe {
            run_avx512_vnni(kernel, Avx512Vnni(detected))
        },
        // SAFETY: the same CPU has AVX2 and AVX-VNNI.
        #[cfg(target_arch = "x86_64")]
        Level::Avx512Vnni(detected) => unsafe {
            run_avx2_vnni(kernel, Avx512Vnni(detected).avx2_vnni())
        },
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

/// A kernel's AVX2 + AVX-VNNI compilation. `avxvnni` adds integer
/// multiply-accumulates only: no float instruction, and no fused one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avxvnni")]
fn run_avx2_vnni<K: Kernel>(kernel: K, vnni: Avx2Vnni) -> K::Out {
    kernel.run_avx2_vnni(vnni)
}

/// A kernel's AVX-512 compilation, reached only by a kernel with
/// [`Kernel::AVX512`] set. `avx512f` implies `fma` in the compiler, so a
/// float expression in here is kept unfused only by Rust's no-contraction
/// rule (see the module docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avxvnni,avx512f,avx512bw,avx512vl,avx512vnni")]
fn run_avx512_vnni<K: Kernel>(kernel: K, avx512: Avx512Vnni) -> K::Out {
    kernel.run_avx512_vnni(avx512)
}

#[cfg(target_arch = "x86_64")]
pub use wrappers::{avx2, avx512};

/// The intrinsic wrappers, in one module so that they share one audited
/// `unsafe` exception (see the module docs).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod wrappers {
    /// AVX2 (and one AVX-VNNI) intrinsics behind the
    /// [`Avx2`](crate::isa::Avx2) (and [`Avx2Vnni`](crate::isa::Avx2Vnni))
    /// token, for a [`Kernel::run_avx2`](crate::isa::Kernel::run_avx2) body. Each is
    /// `#[inline(always)]` and is one instruction once inlined into the
    /// dispatch's AVX2 compilation (named beside it; the bit casts are none);
    /// the loads and the stores check their slice's length first (see the
    /// module docs for why these are sound). Integer vectors are
    /// [`__m256i`](avx2::__m256i) — eight `i32`, sixteen `i16` or thirty-two
    /// `i8`, as the wrapper says — and float ones [`__m256`](avx2::__m256),
    /// eight `f32`.
    pub mod avx2 {
        use crate::isa::{Avx2, Avx2Vnni};
        pub use core::arch::x86_64::{__m256, __m256i};
        use core::arch::x86_64::{
            _mm256_add_epi32, _mm256_add_ps, _mm256_and_ps, _mm256_castps_si256,
            _mm256_castsi256_si128, _mm256_cmp_ps, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi16,
            _mm256_cvtepi8_epi32, _mm256_cvtps_epi32, _mm256_div_ps, _mm256_dpwssd_avx_epi32,
            _mm256_loadu_ps, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_max_ps, _mm256_min_ps,
            _mm256_mul_ps, _mm256_or_ps, _mm256_packs_epi16, _mm256_packs_epi32,
            _mm256_permute2x128_si256, _mm256_permutevar8x32_epi32, _mm256_set1_epi32,
            _mm256_set1_ps, _mm256_setzero_si256, _mm256_sign_epi32, _mm256_slli_epi32, _mm256_storeu_si256,
            _mm256_sub_epi32, _mm256_sub_ps, _mm256_unpackhi_epi32, _mm256_unpacklo_epi32,
            _mm_loadl_epi64, _mm_loadu_si128, _mm_storel_epi64, _CMP_EQ_OQ, _CMP_ORD_Q,
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

        /// `acc + madd_i16(a, b)` in one instruction (`vpdpwssd`): each
        /// adjacent pair of `i16` products summed into the `i32` lane, the add
        /// wrapping as `vpaddd` does. Never the saturating `vpdpwssds`.
        #[inline(always)]
        pub fn dpwssd(_: Avx2Vnni, acc: __m256i, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2 and AVX-VNNI.
            unsafe { _mm256_dpwssd_avx_epi32(acc, a, b) }
        }

        /// The first eight bytes of `src`, sign-extended to eight `i32`
        /// (`vpmovsxbd`, from memory).
        ///
        /// # Panics
        ///
        /// Panics if `src` is shorter than 8.
        #[inline(always)]
        pub fn widen_i8x8(_: Avx2, src: &[i8]) -> __m256i {
            let src = &src[..8];
            // SAFETY: the token proves AVX2; `src` holds the 8 bytes read, and
            // `loadl` takes any alignment.
            unsafe { _mm256_cvtepi8_epi32(_mm_loadl_epi64(src.as_ptr().cast())) }
        }

        /// The first eight `f32` of `src` (`vmovups`).
        ///
        /// # Panics
        ///
        /// Panics if `src` is shorter than 8.
        #[inline(always)]
        pub fn load_f32x8(_: Avx2, src: &[f32]) -> __m256 {
            let src = &src[..8];
            // SAFETY: the token proves AVX2; `src` holds the 32 bytes read,
            // and `loadu` takes any alignment.
            unsafe { _mm256_loadu_ps(src.as_ptr()) }
        }

        /// Stores the 32 bytes of `v` over the first 32 of `dst` (`vmovdqu`).
        ///
        /// # Panics
        ///
        /// Panics if `dst` is shorter than 32.
        #[inline(always)]
        pub fn store_i8x32(_: Avx2, dst: &mut [i8], v: __m256i) {
            let dst = &mut dst[..32];
            // SAFETY: the token proves AVX2; `dst` is 32 writable bytes, and
            // `storeu` takes any alignment.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
        }

        /// Stores the low eight bytes of `v` over the first eight of `dst`
        /// (`vmovq`).
        ///
        /// # Panics
        ///
        /// Panics if `dst` is shorter than 8.
        #[inline(always)]
        pub fn store_i8x8(_: Avx2, dst: &mut [i8], v: __m256i) {
            let dst = &mut dst[..8];
            // SAFETY: the token proves AVX2; `dst` is 8 writable bytes, and
            // `storel` takes any alignment.
            unsafe { _mm_storel_epi64(dst.as_mut_ptr().cast(), _mm256_castsi256_si128(v)) }
        }

        /// Each `i32` lane of `a` negated where that lane of `b` is negative,
        /// zeroed where it is zero, kept where it is positive (`vpsignd`).
        #[inline(always)]
        pub fn sign_i32(_: Avx2, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_sign_epi32(a, b) }
        }

        /// Wrapping `i32` subtract, lane by lane (`vpsubd`).
        #[inline(always)]
        pub fn sub_i32(_: Avx2, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_sub_epi32(a, b) }
        }

        /// The eight `i32` of `a` and of `b` narrowed to `i16` with signed
        /// saturation, per 128-bit half: `[a0..4, b0..4 | a4..8, b4..8]`
        /// (`vpackssdw`).
        #[inline(always)]
        pub fn pack_i32_i16(_: Avx2, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_packs_epi32(a, b) }
        }

        /// The sixteen `i16` of `a` and of `b` narrowed to `i8` with signed
        /// saturation, per 128-bit half: `[a0..8, b0..8 | a8..16, b8..16]`
        /// (`vpacksswb`).
        #[inline(always)]
        pub fn pack_i16_i8(_: Avx2, a: __m256i, b: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_packs_epi16(a, b) }
        }

        /// The `i32` lanes of `a` picked by the low three bits of each lane of
        /// `index`, across the whole register (`vpermd`).
        #[inline(always)]
        pub fn permute_i32(_: Avx2, a: __m256i, index: __m256i) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_permutevar8x32_epi32(a, index) }
        }

        /// `v` in all eight `f32` lanes (`vbroadcastss`).
        #[inline(always)]
        pub fn splat_f32(_: Avx2, v: f32) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_set1_ps(v) }
        }

        /// Each `i32` lane converted to the nearest `f32`, as `as f32` does
        /// (`vcvtdq2ps`).
        #[inline(always)]
        pub fn i32_to_f32(_: Avx2, a: __m256i) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_cvtepi32_ps(a) }
        }

        /// Each `f32` lane rounded to the nearest `i32`, ties to even (the
        /// default rounding mode, which Rust code never changes); out of range
        /// or NaN gives `i32::MIN` (`vcvtps2dq`).
        #[inline(always)]
        pub fn f32_to_i32_nearest(_: Avx2, a: __m256) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_cvtps_epi32(a) }
        }

        /// The bits of `a`'s `f32` lanes as `i32` lanes (no instruction).
        #[inline(always)]
        pub fn f32_bits(_: Avx2, a: __m256) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_castps_si256(a) }
        }

        /// IEEE `a + b`, lane by lane (`vaddps`).
        #[inline(always)]
        pub fn add_f32(_: Avx2, a: __m256, b: __m256) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_add_ps(a, b) }
        }

        /// IEEE `a - b`, lane by lane (`vsubps`).
        #[inline(always)]
        pub fn sub_f32(_: Avx2, a: __m256, b: __m256) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_sub_ps(a, b) }
        }

        /// IEEE `a * b`, lane by lane (`vmulps`).
        #[inline(always)]
        pub fn mul_f32(_: Avx2, a: __m256, b: __m256) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_mul_ps(a, b) }
        }

        /// IEEE `a / b`, lane by lane (`vdivps`).
        #[inline(always)]
        pub fn div_f32(_: Avx2, a: __m256, b: __m256) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_div_ps(a, b) }
        }

        /// `if a > b { a } else { b }`, lane by lane (`vmaxps`): on a NaN in
        /// either, and on two zeros of either sign, it is `b`, so the operand
        /// order is part of the result.
        #[inline(always)]
        pub fn max_f32(_: Avx2, a: __m256, b: __m256) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_max_ps(a, b) }
        }

        /// `if a < b { a } else { b }`, lane by lane (`vminps`): `b` on a NaN
        /// and on two zeros, as [`max_f32`].
        #[inline(always)]
        pub fn min_f32(_: Avx2, a: __m256, b: __m256) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_min_ps(a, b) }
        }

        /// Bitwise `a & b` of two float vectors (`vandps`).
        #[inline(always)]
        pub fn and_f32(_: Avx2, a: __m256, b: __m256) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_and_ps(a, b) }
        }

        /// Bitwise `a | b` of two float vectors (`vorps`).
        #[inline(always)]
        pub fn or_f32(_: Avx2, a: __m256, b: __m256) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_or_ps(a, b) }
        }

        /// All ones where `a == b` (IEEE: NaN equals nothing, `-0.0 == 0.0`),
        /// zero elsewhere, lane by lane (`vcmpeqps`).
        #[inline(always)]
        pub fn eq_f32(_: Avx2, a: __m256, b: __m256) -> __m256i {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_castps_si256(_mm256_cmp_ps::<_CMP_EQ_OQ>(a, b)) }
        }

        /// All ones where neither `a` nor `b` is NaN, zero elsewhere, lane by
        /// lane (`vcmpordps`).
        #[inline(always)]
        pub fn ordered_f32(_: Avx2, a: __m256, b: __m256) -> __m256 {
            // SAFETY: the token proves AVX2.
            unsafe { _mm256_cmp_ps::<_CMP_ORD_Q>(a, b) }
        }
    }

    /// AVX-512 intrinsics behind the [`Avx512Vnni`](crate::isa::Avx512Vnni)
    /// token, for a
    /// [`Kernel::run_avx512_vnni`](crate::isa::Kernel::run_avx512_vnni)
    /// body: the `zmm` forms of the [`avx2`](super::avx2) wrappers a 512-bit
    /// body needs, under the same rules — one instruction each once
    /// inlined, loads and stores check their slice's length first. Integer
    /// vectors are [`__m512i`](avx512::__m512i) — sixteen `i32` or
    /// thirty-two `i16`, as the wrapper says — float ones
    /// [`__m512`](avx512::__m512), sixteen `f32`, and a
    /// [`__mmask16`](avx512::__mmask16) holds one bit per lane (bit `k` for
    /// lane `k`), as a compare leaves it. Narrowed bytes come back as
    /// [`__m128i`](avx512::__m128i).
    pub mod avx512 {
        use crate::isa::Avx512Vnni;
        pub use core::arch::x86_64::{__m128i, __m512, __m512i, __mmask16};
        use core::arch::x86_64::{
            _mm256_loadu_si256, _mm512_add_epi32, _mm512_add_ps, _mm512_cmp_ps_mask,
            _mm512_cvtepi32_ps, _mm512_cvtepi8_epi16, _mm512_cvtepi8_epi32, _mm512_cvtps_epi32,
            _mm512_cvtsepi32_epi8, _mm512_div_ps, _mm512_dpwssd_epi32, _mm512_loadu_ps,
            _mm512_loadu_si512, _mm512_mask_add_epi32, _mm512_mask_sub_epi32,
            _mm512_maskz_mov_ps, _mm512_max_ps, _mm512_min_ps, _mm512_mul_ps,
            _mm512_permutex2var_epi32, _mm512_set1_epi32, _mm512_set1_ps, _mm512_setzero_si512,
            _mm512_slli_epi32, _mm512_storeu_si512, _mm512_sub_ps, _mm_loadu_si128,
            _mm_storeu_si128, _CMP_EQ_OQ, _CMP_GT_OQ, _CMP_LT_OQ, _CMP_ORD_Q,
        };

        /// The first 32 bytes of `src`, sign-extended to thirty-two `i16`
        /// (`vpmovsxbw`).
        ///
        /// # Panics
        ///
        /// Panics if `src` is shorter than 32.
        #[inline(always)]
        pub fn widen_i8x32(_: Avx512Vnni, src: &[i8]) -> __m512i {
            let src = &src[..32];
            // SAFETY: the token proves AVX-512 F and BW; `src` holds the 32
            // bytes read, and `loadu` takes any alignment.
            unsafe { _mm512_cvtepi8_epi16(_mm256_loadu_si256(src.as_ptr().cast())) }
        }

        /// The first 16 bytes of `src`, sign-extended to sixteen `i32`
        /// (`vpmovsxbd`, from memory).
        ///
        /// # Panics
        ///
        /// Panics if `src` is shorter than 16.
        #[inline(always)]
        pub fn widen_i8x16(_: Avx512Vnni, src: &[i8]) -> __m512i {
            let src = &src[..16];
            // SAFETY: the token proves AVX-512 F; `src` holds the 16 bytes
            // read, and `loadu` takes any alignment.
            unsafe { _mm512_cvtepi8_epi32(_mm_loadu_si128(src.as_ptr().cast())) }
        }

        /// The first sixteen `i32` of `src` (`vmovdqu32`).
        ///
        /// # Panics
        ///
        /// Panics if `src` is shorter than 16.
        #[inline(always)]
        pub fn load_i32x16(_: Avx512Vnni, src: &[i32]) -> __m512i {
            let src = &src[..16];
            // SAFETY: the token proves AVX-512 F; `src` holds the 64 bytes
            // read, and `loadu` takes any alignment.
            unsafe { _mm512_loadu_si512(src.as_ptr().cast()) }
        }

        /// The first sixteen `f32` of `src` (`vmovups`).
        ///
        /// # Panics
        ///
        /// Panics if `src` is shorter than 16.
        #[inline(always)]
        pub fn load_f32x16(_: Avx512Vnni, src: &[f32]) -> __m512 {
            let src = &src[..16];
            // SAFETY: the token proves AVX-512 F; `src` holds the 64 bytes
            // read, and `loadu` takes any alignment.
            unsafe { _mm512_loadu_ps(src.as_ptr()) }
        }

        /// Stores `v` over the first sixteen `i32` of `dst` (`vmovdqu32`).
        ///
        /// # Panics
        ///
        /// Panics if `dst` is shorter than 16.
        #[inline(always)]
        pub fn store_i32x16(_: Avx512Vnni, dst: &mut [i32], v: __m512i) {
            let dst = &mut dst[..16];
            // SAFETY: the token proves AVX-512 F; `dst` is 64 writable
            // bytes, and `storeu` takes any alignment.
            unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
        }

        /// Stores the 16 bytes of `v` over the first 16 of `dst`
        /// (`vmovdqu`).
        ///
        /// # Panics
        ///
        /// Panics if `dst` is shorter than 16.
        #[inline(always)]
        pub fn store_i8x16(_: Avx512Vnni, dst: &mut [i8], v: __m128i) {
            let dst = &mut dst[..16];
            // SAFETY: the token proves AVX-512 F, and so SSE2; `dst` is 16
            // writable bytes, and `storeu` takes any alignment.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), v) }
        }

        /// `*w` in all sixteen `i32` lanes (`vpbroadcastd`, from memory).
        #[inline(always)]
        pub fn broadcast_i32(_: Avx512Vnni, w: &i32) -> __m512i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_set1_epi32(*w) }
        }

        /// All lanes zero (`vpxord`).
        #[inline(always)]
        pub fn zero(_: Avx512Vnni) -> __m512i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_setzero_si512() }
        }

        /// Each `i32` lane shifted left by `N` bits (`vpslld`).
        #[inline(always)]
        pub fn shl_i32<const N: u32>(_: Avx512Vnni, a: __m512i) -> __m512i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_slli_epi32::<N>(a) }
        }

        /// Wrapping `i32` add, lane by lane (`vpaddd`).
        #[inline(always)]
        pub fn add_i32(_: Avx512Vnni, a: __m512i, b: __m512i) -> __m512i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_add_epi32(a, b) }
        }

        /// `a + b` on the `i32` lanes whose bit of `k` is set, `a` on the
        /// others (`vpaddd` under a merge mask).
        #[inline(always)]
        pub fn add_i32_where(_: Avx512Vnni, k: __mmask16, a: __m512i, b: __m512i) -> __m512i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_mask_add_epi32(a, k, a, b) }
        }

        /// `a - b` on the `i32` lanes whose bit of `k` is set, `a` on the
        /// others (`vpsubd` under a merge mask).
        #[inline(always)]
        pub fn sub_i32_where(_: Avx512Vnni, k: __mmask16, a: __m512i, b: __m512i) -> __m512i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_mask_sub_epi32(a, k, a, b) }
        }

        /// `acc + ` the sum of each adjacent pair of `i16` products of `a`
        /// and `b`, in each `i32` lane, the add wrapping as `vpaddd` does
        /// (`vpdpwssd`). Never the saturating `vpdpwssds`.
        #[inline(always)]
        pub fn dpwssd(_: Avx512Vnni, acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
            // SAFETY: the token proves AVX-512 F and VNNI.
            unsafe { _mm512_dpwssd_epi32(acc, a, b) }
        }

        /// Lane `k` of the result is lane `index[k] & 15` of `a` when bit 4
        /// of `index[k]` is clear, and of `b` when it is set: any sixteen
        /// of the two registers' thirty-two `i32` (`vpermt2d`).
        #[inline(always)]
        pub fn permute2_i32(_: Avx512Vnni, a: __m512i, index: __m512i, b: __m512i) -> __m512i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_permutex2var_epi32(a, index, b) }
        }

        /// Each `i32` lane narrowed to `i8` with signed saturation, in
        /// order (`vpmovsdb`).
        #[inline(always)]
        pub fn narrow_i32_i8(_: Avx512Vnni, a: __m512i) -> __m128i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_cvtsepi32_epi8(a) }
        }

        /// `v` in all sixteen `f32` lanes (`vbroadcastss`).
        #[inline(always)]
        pub fn splat_f32(_: Avx512Vnni, v: f32) -> __m512 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_set1_ps(v) }
        }

        /// `v` in all sixteen `i32` lanes (`vpbroadcastd`).
        #[inline(always)]
        pub fn splat_i32(_: Avx512Vnni, v: i32) -> __m512i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_set1_epi32(v) }
        }

        /// Each `i32` lane converted to the nearest `f32`, as `as f32` does
        /// (`vcvtdq2ps`).
        #[inline(always)]
        pub fn i32_to_f32(_: Avx512Vnni, a: __m512i) -> __m512 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_cvtepi32_ps(a) }
        }

        /// Each `f32` lane rounded to the nearest `i32`, ties to even (the
        /// default rounding mode, which Rust code never changes); out of
        /// range or NaN gives `i32::MIN` (`vcvtps2dq`).
        #[inline(always)]
        pub fn f32_to_i32_nearest(_: Avx512Vnni, a: __m512) -> __m512i {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_cvtps_epi32(a) }
        }

        /// IEEE `a + b`, lane by lane (`vaddps`).
        #[inline(always)]
        pub fn add_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __m512 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_add_ps(a, b) }
        }

        /// IEEE `a - b`, lane by lane (`vsubps`).
        #[inline(always)]
        pub fn sub_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __m512 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_sub_ps(a, b) }
        }

        /// IEEE `a * b`, lane by lane (`vmulps`).
        #[inline(always)]
        pub fn mul_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __m512 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_mul_ps(a, b) }
        }

        /// IEEE `a / b`, lane by lane (`vdivps`).
        #[inline(always)]
        pub fn div_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __m512 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_div_ps(a, b) }
        }

        /// `if a > b { a } else { b }`, lane by lane (`vmaxps`): on a NaN
        /// in either, and on two zeros of either sign, it is `b`, so the
        /// operand order is part of the result.
        #[inline(always)]
        pub fn max_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __m512 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_max_ps(a, b) }
        }

        /// `if a < b { a } else { b }`, lane by lane (`vminps`): `b` on a
        /// NaN and on two zeros, as [`max_f32`].
        #[inline(always)]
        pub fn min_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __m512 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_min_ps(a, b) }
        }

        /// The lanes of `a` whose bit of `k` is set, `+0.0` in the others
        /// (`vmovaps` under a zero mask).
        #[inline(always)]
        pub fn keep_f32(_: Avx512Vnni, k: __mmask16, a: __m512) -> __m512 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_maskz_mov_ps(k, a) }
        }

        /// A bit per lane where `a == b` (IEEE: NaN equals nothing,
        /// `-0.0 == 0.0`) (`vcmpeqps`).
        #[inline(always)]
        pub fn eq_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __mmask16 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(a, b) }
        }

        /// A bit per lane where `a > b`, never on a NaN (`vcmpgtps`).
        #[inline(always)]
        pub fn gt_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __mmask16 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_cmp_ps_mask::<_CMP_GT_OQ>(a, b) }
        }

        /// A bit per lane where `a < b`, never on a NaN (`vcmpltps`).
        #[inline(always)]
        pub fn lt_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __mmask16 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b) }
        }

        /// A bit per lane where neither `a` nor `b` is NaN (`vcmpordps`).
        #[inline(always)]
        pub fn ordered_f32(_: Avx512Vnni, a: __m512, b: __m512) -> __mmask16 {
            // SAFETY: the token proves AVX-512 F.
            unsafe { _mm512_cmp_ps_mask::<_CMP_ORD_Q>(a, b) }
        }
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
        let known: [&[&str]; 4] = [
            &["baseline"],
            &["baseline", "avx2"],
            &["baseline", "avx2", "avx2+vnni"],
            &["baseline", "avx2", "avx2+vnni", "avx512+vnni"],
        ];
        assert!(known.contains(&&names[..]), "{names:?}");
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
            Level::Avx2Vnni(detected) => {
                avx2::widen_i8x16(Avx2Vnni(detected).avx2(), short);
            }
            Level::Avx512Vnni(detected) => {
                avx2::widen_i8x16(Avx512Vnni(detected).avx2(), short);
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
