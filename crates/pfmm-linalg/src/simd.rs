//! Runtime SIMD tier dispatch shared by the hot loops of the workspace
//! (the GEMM microkernel here, the near-field tiles in `pfmm-kernels`,
//! the V-list Hadamard in `pfmm-core`).

/// Define `fn $entry(args)` that runs the `#[inline(always)]` body
/// `$body(args)` on the widest instruction tier the host supports:
/// AVX-512 → AVX2+FMA → the portable baseline. The same body is
/// instantiated once per `#[target_feature]` set, so LLVM vectorizes
/// it at full register width; the tier is detected at runtime and is
/// fixed per process.
///
/// Every body dispatched this way uses plain `*`/`+`, which rustc never
/// contracts into an FMA, or an explicit `f64::mul_add`, which is
/// correctly rounded on every tier (hardware FMA under the AVX2 and
/// AVX-512 tiers, libm `fma` on the portable one). So the wider tiers
/// only change how many lanes run at once, never a per-element
/// rounding: every tier produces bitwise-identical results.
///
/// ```ignore
/// pfmm_linalg::simd_dispatch!(fn axpy(a: f64, x: &[f64], y: &mut [f64]) => axpy_body);
/// ```
#[macro_export]
macro_rules! simd_dispatch {
    ($(#[$attr:meta])* $vis:vis fn $entry:ident($($p:ident: $t:ty),* $(,)?) => $body:path) => {
        $(#[$attr])*
        $vis fn $entry($($p: $t),*) {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2($($p: $t),*) {
                    $body($($p),*)
                }

                #[target_feature(enable = "avx512f,avx2,fma")]
                unsafe fn avx512($($p: $t),*) {
                    $body($($p),*)
                }

                let fma = ::std::arch::is_x86_feature_detected!("avx2")
                    && ::std::arch::is_x86_feature_detected!("fma");
                if fma && ::std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: feature presence checked at runtime.
                    return unsafe { avx512($($p),*) };
                }
                if fma {
                    // SAFETY: feature presence checked at runtime.
                    return unsafe { avx2($($p),*) };
                }
            }
            $body($($p),*)
        }
    };
}
