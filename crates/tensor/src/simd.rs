//! Hot loops compiled twice and chosen at run time.
//!
//! The workspace builds for baseline x86-64 (SSE2), so a loop compiled
//! normally cannot use 256-bit vectors or `vroundps` (baseline `floor` is a
//! call to `floorf`). A [`Kernel`] holds one hot loop, written once in an
//! `#[inline(always)]` [`Kernel::run`]. [`run`] executes it through an AVX2
//! instance of that same body when the CPU has AVX2, and through the
//! baseline instance otherwise.
//!
//! Both instances compute the same bits. Only `avx2` is enabled, never
//! `fma`, and Rust never contracts `a * b + c` on its own, so each element
//! keeps its exact operation chain; the vectorizer only spreads independent
//! elements across lanes, and floating-point reductions inside a kernel stay
//! sequential. The bit-identity tests of each kernel compare `run(k)` with
//! `k.run()`, which the test body compiles without AVX2.
//!
//! Callees inside a kernel's loop must be `#[inline(always)]` (or at least
//! `#[inline]`): a callee that is not inlined runs its baseline copy. State
//! that the loop reads, such as a converter, is best copied into a local
//! before the loop, because fields reached through the kernel struct carry
//! no aliasing guarantee and can block vectorization.

#![allow(unsafe_code)]

/// One hot loop, instantiated by [`run`] for every supported instruction
/// set.
///
/// Implementations mark `run` `#[inline(always)]`, so the body is compiled
/// inside each instance rather than called from it.
pub trait Kernel {
    /// What the loop returns (a count, or `()`).
    type Output;

    /// Runs the loop. Called directly, this is the baseline instance.
    fn run(self) -> Self::Output;
}

/// Whether [`run`] takes the AVX2 instance on this CPU.
///
/// The standard library caches the CPUID probe, so this is one load.
#[inline]
pub fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Runs `k` through the AVX2 instance when the CPU supports it, and
/// through the baseline instance otherwise. Both give the same bits.
#[inline]
pub fn run<K: Kernel>(k: K) -> K::Output {
    #[cfg(target_arch = "x86_64")]
    if avx2_detected() {
        // SAFETY: `run_avx2` only requires AVX2, which the CPU reported on
        // the line above.
        return unsafe { run_avx2(k) };
    }
    k.run()
}

/// The AVX2 instance: `k.run()` is inlined here and compiled with AVX2.
///
/// Calling it from code compiled without AVX2 is `unsafe`: the caller must
/// have checked that the CPU supports AVX2, as [`run`] does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<K: Kernel>(k: K) -> K::Output {
    k.run()
}
