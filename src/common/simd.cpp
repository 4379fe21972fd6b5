#include "common/simd.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace crowdmap::common::simd {

namespace {

bool probe_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

namespace detail {
const bool g_cpu_avx2 = probe_avx2();
}  // namespace detail

std::string capability_report() {
  std::string out = "active=";
  out += active_backend() == Backend::kAvx2 ? "avx2" : "scalar";
  out += " cpu: avx2=";
  out += detail::g_cpu_avx2 ? "yes" : "no";
  return out;
}

}  // namespace crowdmap::common::simd

// ---------------------------------------------------------------------------
// The AVX2 instantiation. Everything between the push and the pop compiles
// for AVX2 (no FMA) whatever the build flags, so no header may be included
// inside it: an inline function from a header would get an AVX2 body here
// that the linker could hand to scalar callers elsewhere. Only the lane
// types below and simd_kernels.inc, which includes nothing, live in the
// region; no lane type crosses into code outside it.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) || defined(__i386__)

#if defined(__clang__)
#pragma clang attribute push(__attribute__((target("avx2"))), \
                             apply_to = function)
#else
#pragma GCC push_options
#pragma GCC target("avx2")
#endif

namespace crowdmap::common::simd::detail::avx2 {

struct F32x8 {
  __m256 v;
  static F32x8 load(const float* p) noexcept { return {_mm256_loadu_ps(p)}; }
  void store(float* p) const noexcept { _mm256_storeu_ps(p, v); }
  static F32x8 broadcast(float x) noexcept { return {_mm256_set1_ps(x)}; }
  static F32x8 zero() noexcept { return {_mm256_setzero_ps()}; }
};

inline F32x8 operator+(F32x8 a, F32x8 b) noexcept {
  return {_mm256_add_ps(a.v, b.v)};
}
inline F32x8 operator-(F32x8 a, F32x8 b) noexcept {
  return {_mm256_sub_ps(a.v, b.v)};
}
inline F32x8 operator*(F32x8 a, F32x8 b) noexcept {
  return {_mm256_mul_ps(a.v, b.v)};
}
inline F32x8 operator/(F32x8 a, F32x8 b) noexcept {
  return {_mm256_div_ps(a.v, b.v)};
}
// MINPS/MAXPS return the second operand on ties (including ±0); the scalar
// vmin/vmax mirror that operand order.
inline F32x8 vmin(F32x8 a, F32x8 b) noexcept {
  return {_mm256_min_ps(b.v, a.v)};
}
inline F32x8 vmax(F32x8 a, F32x8 b) noexcept {
  return {_mm256_max_ps(a.v, b.v)};
}
inline F32x8 vsqrt(F32x8 a) noexcept { return {_mm256_sqrt_ps(a.v)}; }
inline F32x8 vabs(F32x8 a) noexcept {
  const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  return {_mm256_and_ps(a.v, mask)};
}
inline F32x8 cmp_gt(F32x8 a, F32x8 b) noexcept {
  return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
}
inline F32x8 cmp_lt(F32x8 a, F32x8 b) noexcept { return cmp_gt(b, a); }
inline F32x8 vselect(F32x8 mask, F32x8 a, F32x8 b) noexcept {
  return {_mm256_blendv_ps(b.v, a.v, mask.v)};
}
inline F32x8 vxor(F32x8 a, F32x8 b) noexcept {
  return {_mm256_xor_ps(a.v, b.v)};
}

struct F64x4 {
  __m256d v;  // logical lanes (l0, l1, l2, l3)
  static F64x4 zero() noexcept { return {_mm256_setzero_pd()}; }
  static F64x4 broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  static F64x4 load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
  /// Loads 4 floats and widens them (exact).
  static F64x4 from_f32(const float* p) noexcept {
    return {_mm256_cvtps_pd(_mm_loadu_ps(p))};
  }
  /// Pinned combine order: (l0 + l2, l1 + l3), then low + high.
  [[nodiscard]] double reduce() const noexcept {
    const __m128d s =
        _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(s) + _mm_cvtsd_f64(_mm_unpackhi_pd(s, s));
  }
};

inline F64x4 operator+(F64x4 a, F64x4 b) noexcept {
  return {_mm256_add_pd(a.v, b.v)};
}
inline F64x4 operator-(F64x4 a, F64x4 b) noexcept {
  return {_mm256_sub_pd(a.v, b.v)};
}
inline F64x4 operator*(F64x4 a, F64x4 b) noexcept {
  return {_mm256_mul_pd(a.v, b.v)};
}
inline F64x4 operator/(F64x4 a, F64x4 b) noexcept {
  return {_mm256_div_pd(a.v, b.v)};
}
inline F64x4 vmin(F64x4 a, F64x4 b) noexcept {
  return {_mm256_min_pd(b.v, a.v)};
}

#define CM_SIMD_KERNEL
#include "common/simd_kernels.inc"
#undef CM_SIMD_KERNEL

}  // namespace crowdmap::common::simd::detail::avx2

#if defined(__clang__)
#pragma clang attribute pop
#else
#pragma GCC pop_options
#endif

#else  // no AVX2 on this architecture: g_cpu_avx2 is false, so these
       // definitions, over the scalar lanes, exist only for the linker.

namespace crowdmap::common::simd::detail::avx2 {
using F32x8 = F32x8S;
using F64x4 = F64x4S;
#define CM_SIMD_KERNEL
#include "common/simd_kernels.inc"
#undef CM_SIMD_KERNEL
}  // namespace crowdmap::common::simd::detail::avx2

#endif
