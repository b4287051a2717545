//! The workspace's one ISA dispatch: run a block of safe Rust at the widest
//! vector level the CPU has.
//!
//! The deployed engine's hot blocks — the systolic lane kernel, the ReLU +
//! quantizer epilogue behind it, the residual add, the pools, the input
//! quantizer — are intrinsic-free loops over slices. What vector
//! instructions such a loop becomes is decided by the *function it is
//! compiled into*: the build's baseline (x86-64 means SSE2, four `f32` or
//! `i32` to the instruction), or a function that carries
//! `#[target_feature(enable = "avx2")]` (eight). So a block is written
//! once, as a [`Kernel`] whose `run` is `#[inline(always)]`, and
//! [`run_at`] compiles it twice by inlining it into two callers: itself,
//! and a private `run_avx2` whose whole body is that one call. [`run`]
//! picks between them from the CPU, once per call of a block (a cached
//! atomic load); there is no knob, build flag or `RUSTFLAGS`. A CPU
//! without AVX2, or a target that is not x86-64, runs the baseline
//! instantiation of the same source.
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
//! This module holds the workspace's single `unsafe`: the call from
//! [`run_at`] into `run_avx2`. Calling a `#[target_feature]` function is
//! undefined behaviour on a CPU without the feature and has no other
//! requirement, so the call is sound exactly when the CPU has AVX2 — and
//! it is reached only through a [`Level::Avx2`], which carries a
//! [`Detected`]. `Detected`'s field is private, so nothing outside this
//! module can construct one, and inside it only [`Level::detect`] does,
//! after `is_x86_feature_detected!("avx2")` said yes. Kernels are safe
//! code on both sides of the call; nothing they do can make it unsound.
//!
//! A kernel that *fails to inline* (a missing `#[inline(always)]` on `run`
//! or on something it calls, or a call into another crate the optimiser
//! declines) is compiled for the baseline and merely called from
//! `run_avx2`: slower than intended, never unsound, and invisible to every
//! test. The `objdump` check in CI and in the verify skill (`vdivps` on
//! `ymm` registers in the shipped binary) is what makes that failure loud.
//!
//! ```compile_fail
//! // The proof token cannot be forged outside the module.
//! let forged = cc_tensor::isa::Level::Avx2(cc_tensor::isa::Detected(()));
//! ```

/// Proof that the CPU reported AVX2. Only [`Level::detect`] makes one.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Detected(());

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
}

/// Runs `kernel` at `level`. Results do not depend on the level.
#[inline]
pub fn run_at<K: Kernel>(level: Level, kernel: K) -> K::Out {
    match level {
        Level::Baseline => kernel.run(),
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        Level::Avx2(_) => {
            // SAFETY: `run_avx2` is safe Rust whose one requirement is a
            // CPU with AVX2, and an `Avx2` value exists only because
            // `Level::detect` saw `is_x86_feature_detected!("avx2")`
            // (nothing outside this module can construct its `Detected`).
            unsafe { run_avx2(kernel) }
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
fn run_avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run()
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
