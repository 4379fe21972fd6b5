// Portable SIMD wrapper. Every vectorized hot path in the codebase goes
// through this header instead of raw intrinsics — the `raw-intrinsics`
// analyzer rule rejects <immintrin.h> anywhere but src/common/simd.*.
//
// Design contract:
//
//  * One build, two paths, chosen at run time. The kernels are written once,
//    in simd_kernels.inc, over a lane type, and compiled twice: inline below
//    over the scalar lane types (F32x8S / F64x4S, the reference semantics),
//    and in simd.cpp over AVX2 lane types inside a target("avx2") region, so
//    every x86-64 build carries both with no ISA build flag. Each public
//    kernel makes one branch and then a direct call: AVX2 when cpuid
//    reported it at load time and set_force_scalar() is off, the scalar
//    path otherwise (and on every CPU without AVX2, aarch64 included).
//    capability_report() names the path that runs; set_force_scalar()
//    (config key simd.force_scalar) lets one process run and cross-check
//    both — tests/test_simd.cpp and the roofline bench in
//    bench/micro_vision.cpp rely on it.
//
//  * Bit-exact determinism, scalar vs AVX2. Reductions pin their
//    floating-point evaluation order to a fixed LOGICAL lane layout that is
//    independent of the physical register width:
//      - f64 reductions over float input run kF64Lanes = 4 logical lanes;
//        lane l accumulates elements l, l+4, l+8, ... in index order; lanes
//        combine as ((l0 + l2) + (l1 + l3)); the n % 4 tail is summed
//        sequentially into a separate accumulator and added last.
//      - elementwise kernels evaluate the same expression tree per element
//        on both paths, using only IEEE-exact operations (+ - * / min max
//        sqrt) — never hardware FMA, rcp or rsqrt approximations. The AVX2
//        target names no `fma`, and CMake pins -ffp-contract=off so a scalar
//        `a * b + c` cannot silently contract into an FMA.
//    Both paths execute the same kernel bodies, so they run the same op
//    sequence; tests/test_simd.cpp additionally checks every kernel
//    lane-by-lane against independent plain-loop references.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace crowdmap::common::simd {

inline constexpr std::size_t kF32Lanes = 8;  // logical f32 lane count
inline constexpr std::size_t kF64Lanes = 4;  // logical f64 lane count

/// Largest candidate tile nearest2_soa_f32 accepts.
inline constexpr std::size_t kMaxMatchTile = 256;

enum class Backend { kScalar, kAvx2 };

/// One line, "active=<backend> cpu: avx2=<yes|no>", for logs, the CLI and
/// bench metadata (no quotes or backslashes, so it embeds in JSON as is).
[[nodiscard]] std::string capability_report();

namespace detail {
inline std::atomic<bool> g_force_scalar{false};
/// True when the CPU executes AVX2. simd.cpp probes cpuid once while the
/// program loads; until then it reads false, which selects the scalar path
/// and so is always a correct answer.
extern const bool g_cpu_avx2;
}  // namespace detail

/// Route every kernel through the scalar reference path. Process wide;
/// results are bit-identical either way — this exists so one binary can
/// measure and cross-check both paths (config key `simd.force_scalar`).
inline void set_force_scalar(bool on) noexcept {
  detail::g_force_scalar.store(on, std::memory_order_relaxed);
}
[[nodiscard]] inline bool force_scalar() noexcept {
  return detail::g_force_scalar.load(std::memory_order_relaxed);
}

namespace detail {
/// The branch every kernel takes: AVX2 unless the CPU lacks it or
/// force_scalar() is set.
[[nodiscard]] inline bool use_avx2() noexcept {
  return g_cpu_avx2 && !force_scalar();
}
}  // namespace detail

/// Backend the kernels will actually run.
[[nodiscard]] inline Backend active_backend() noexcept {
  return detail::use_avx2() ? Backend::kAvx2 : Backend::kScalar;
}

/// Three simultaneous reductions for cosine similarity: Σab, Σa², Σb².
struct Dot3 {
  double ab = 0.0;
  double aa = 0.0;
  double bb = 0.0;
};

/// The three NCC sums over mean-subtracted values:
///   num = Σ (a-ma)(b-mb), da = Σ (a-ma)², db = Σ (b-mb)².
struct NccSums {
  double num = 0.0;
  double da = 0.0;
  double db = 0.0;
};

/// An extreme value and the first index attaining it.
struct IndexValue {
  std::size_t index = 0;
  float value = 0.0f;
};

/// Nearest and second-nearest squared distances over an SoA block.
/// best == count means "no candidate" (count == 0).
struct NearestTwo {
  std::size_t best = 0;
  float best_d2 = std::numeric_limits<float>::max();
  float second_d2 = std::numeric_limits<float>::max();
};

// ---------------------------------------------------------------------------
// Scalar lane types: the reference semantics. simd.cpp's AVX2 pair
// implements the identical logical layout. Comparisons produce all-ones /
// all-zero bit masks in the value type; vselect() is a pure bit blend.
// ---------------------------------------------------------------------------

struct F32x8S {
  std::array<float, 8> v;
  static F32x8S load(const float* p) noexcept {
    F32x8S r;
    for (int i = 0; i < 8; ++i) r.v[i] = p[i];
    return r;
  }
  void store(float* p) const noexcept {
    for (int i = 0; i < 8; ++i) p[i] = v[i];
  }
  static F32x8S broadcast(float x) noexcept {
    F32x8S r;
    for (int i = 0; i < 8; ++i) r.v[i] = x;
    return r;
  }
  static F32x8S zero() noexcept { return broadcast(0.0f); }
};

inline F32x8S operator+(F32x8S a, F32x8S b) noexcept {
  for (int i = 0; i < 8; ++i) a.v[i] = a.v[i] + b.v[i];
  return a;
}
inline F32x8S operator-(F32x8S a, F32x8S b) noexcept {
  for (int i = 0; i < 8; ++i) a.v[i] = a.v[i] - b.v[i];
  return a;
}
inline F32x8S operator*(F32x8S a, F32x8S b) noexcept {
  for (int i = 0; i < 8; ++i) a.v[i] = a.v[i] * b.v[i];
  return a;
}
inline F32x8S operator/(F32x8S a, F32x8S b) noexcept {
  for (int i = 0; i < 8; ++i) a.v[i] = a.v[i] / b.v[i];
  return a;
}
inline F32x8S vmin(F32x8S a, F32x8S b) noexcept {
  for (int i = 0; i < 8; ++i) a.v[i] = b.v[i] < a.v[i] ? b.v[i] : a.v[i];
  return a;
}
inline F32x8S vmax(F32x8S a, F32x8S b) noexcept {
  // Ternary forms mirror the x86 MINPS/MAXPS operand semantics exactly
  // (ties — including ±0 — resolve to the second operand).
  for (int i = 0; i < 8; ++i) a.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
  return a;
}
inline F32x8S vsqrt(F32x8S a) noexcept {
  for (int i = 0; i < 8; ++i) a.v[i] = std::sqrt(a.v[i]);
  return a;
}
inline F32x8S vabs(F32x8S a) noexcept {
  for (int i = 0; i < 8; ++i) {
    a.v[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(a.v[i]) &
                                  0x7fffffffu);
  }
  return a;
}
inline F32x8S cmp_gt(F32x8S a, F32x8S b) noexcept {
  F32x8S r;
  for (int i = 0; i < 8; ++i) {
    r.v[i] = std::bit_cast<float>(a.v[i] > b.v[i] ? 0xffffffffu : 0u);
  }
  return r;
}
inline F32x8S cmp_lt(F32x8S a, F32x8S b) noexcept { return cmp_gt(b, a); }
inline F32x8S vselect(F32x8S mask, F32x8S a, F32x8S b) noexcept {
  F32x8S r;
  for (int i = 0; i < 8; ++i) {
    const std::uint32_t m = std::bit_cast<std::uint32_t>(mask.v[i]);
    r.v[i] = std::bit_cast<float>((std::bit_cast<std::uint32_t>(a.v[i]) & m) |
                                  (std::bit_cast<std::uint32_t>(b.v[i]) & ~m));
  }
  return r;
}
inline F32x8S vxor(F32x8S a, F32x8S b) noexcept {
  F32x8S r;
  for (int i = 0; i < 8; ++i) {
    r.v[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(a.v[i]) ^
                                  std::bit_cast<std::uint32_t>(b.v[i]));
  }
  return r;
}

struct F64x4S {
  std::array<double, 4> v;
  static F64x4S zero() noexcept { return broadcast(0.0); }
  static F64x4S broadcast(double x) noexcept {
    F64x4S r;
    for (int i = 0; i < 4; ++i) r.v[i] = x;
    return r;
  }
  static F64x4S load(const double* p) noexcept {
    F64x4S r;
    for (int i = 0; i < 4; ++i) r.v[i] = p[i];
    return r;
  }
  void store(double* p) const noexcept {
    for (int i = 0; i < 4; ++i) p[i] = v[i];
  }
  /// Loads 4 floats and widens them (exact).
  static F64x4S from_f32(const float* p) noexcept {
    F64x4S r;
    for (int i = 0; i < 4; ++i) r.v[i] = static_cast<double>(p[i]);
    return r;
  }
  /// Pinned combine order: ((l0 + l2) + (l1 + l3)).
  [[nodiscard]] double reduce() const noexcept {
    return (v[0] + v[2]) + (v[1] + v[3]);
  }
};

inline F64x4S operator+(F64x4S a, F64x4S b) noexcept {
  for (int i = 0; i < 4; ++i) a.v[i] = a.v[i] + b.v[i];
  return a;
}
inline F64x4S operator-(F64x4S a, F64x4S b) noexcept {
  for (int i = 0; i < 4; ++i) a.v[i] = a.v[i] - b.v[i];
  return a;
}
inline F64x4S operator*(F64x4S a, F64x4S b) noexcept {
  for (int i = 0; i < 4; ++i) a.v[i] = a.v[i] * b.v[i];
  return a;
}
inline F64x4S operator/(F64x4S a, F64x4S b) noexcept {
  for (int i = 0; i < 4; ++i) a.v[i] = a.v[i] / b.v[i];
  return a;
}
inline F64x4S vmin(F64x4S a, F64x4S b) noexcept {
  for (int i = 0; i < 4; ++i) a.v[i] = b.v[i] < a.v[i] ? b.v[i] : a.v[i];
  return a;
}


namespace detail {

// Degree-9 odd minimax polynomial for atan on [0, 1] (Abramowitz & Stegun
// 4.4.49 coefficients; max error ~1e-5 rad). mag_angle_f32 evaluates it with
// explicit mul-then-add steps, so both paths — and the tail — run the same
// rounding sequence.
inline constexpr float kAtanC0 = 0.9998660f;
inline constexpr float kAtanC1 = -0.3302995f;
inline constexpr float kAtanC2 = 0.1801410f;
inline constexpr float kAtanC3 = -0.0851330f;
inline constexpr float kAtanC4 = 0.0208351f;
inline constexpr float kHalfPi = 1.57079632679489662f;
inline constexpr float kPi = 3.14159265358979324f;

/// The scalar reference instantiation of the kernels, inline.
namespace scalar {
using F32x8 = F32x8S;
using F64x4 = F64x4S;
#define CM_SIMD_KERNEL inline
#include "common/simd_kernels.inc"
#undef CM_SIMD_KERNEL
}  // namespace scalar

/// The AVX2 instantiation of the same kernels, compiled in simd.cpp.
namespace avx2 {
double sum_f32(const float* a, std::size_t n);
double dot_f32(const float* a, const float* b, std::size_t n);
double l2sq_f32(const float* a, const float* b, std::size_t n);
double sum_min_f32(const float* a, const float* b, std::size_t n);
Dot3 dot3_f32(const float* a, const float* b, std::size_t n);
NccSums ncc_accum_f32(const float* a, const float* b, double mean_a,
                      double mean_b, std::size_t n);
void weighted_accumulate_f32(float* acc_out, const float* w, const float* x,
                             std::size_t n);
void normalize_by_weight_f32(float* out, const float* num, const float* den,
                             std::size_t n);
void magnitude_f32(const float* gx, const float* gy, float* out,
                   std::size_t n);
void mag_angle_f32(const float* gx, const float* gy, float* mag, float* ang,
                   std::size_t n);
void sobel_row_f32(const float* top, const float* mid, const float* bot,
                   float* gx, float* gy, std::size_t n);
void l2sq_soa_accum_f32(const float* soa, std::size_t stride,
                        const float* query, std::size_t d0, std::size_t d1,
                        std::size_t j0, std::size_t len, float* dist2);
NearestTwo nearest2_soa_f32(const float* soa, std::size_t stride,
                            std::size_t dims, std::size_t count,
                            const float* query, std::size_t tile);
void hessian_row_f64(const double* table, std::size_t stride, int y, int x0,
                     int n, int size, double* det_out, std::uint8_t* lap_out);
}  // namespace avx2

}  // namespace detail

// ---------------------------------------------------------------------------
// Reductions (pinned 4-lane f64 layout; see the header comment).
// ---------------------------------------------------------------------------

/// Σ a[i] — 4-lane pinned order.
inline double sum_f32(const float* a, std::size_t n) {
  return detail::use_avx2() ? detail::avx2::sum_f32(a, n)
                            : detail::scalar::sum_f32(a, n);
}

/// Σ a[i]·b[i] — 4-lane pinned order, products formed in double.
inline double dot_f32(const float* a, const float* b, std::size_t n) {
  return detail::use_avx2() ? detail::avx2::dot_f32(a, b, n)
                            : detail::scalar::dot_f32(a, b, n);
}

/// Σ (a[i]-b[i])² — 4-lane pinned order, differences formed in double.
inline double l2sq_f32(const float* a, const float* b, std::size_t n) {
  return detail::use_avx2() ? detail::avx2::l2sq_f32(a, b, n)
                            : detail::scalar::l2sq_f32(a, b, n);
}

/// Σ min(a[i], b[i]) — histogram intersection; 4-lane pinned order.
inline double sum_min_f32(const float* a, const float* b, std::size_t n) {
  return detail::use_avx2() ? detail::avx2::sum_min_f32(a, b, n)
                            : detail::scalar::sum_min_f32(a, b, n);
}

/// Σab, Σa², Σb² in one pass, each in the pinned order of dot_f32.
inline Dot3 dot3_f32(const float* a, const float* b, std::size_t n) {
  return detail::use_avx2() ? detail::avx2::dot3_f32(a, b, n)
                            : detail::scalar::dot3_f32(a, b, n);
}

/// The NCC sums over mean-subtracted values, each in the pinned order.
inline NccSums ncc_accum_f32(const float* a, const float* b, double mean_a,
                             double mean_b, std::size_t n) {
  return detail::use_avx2()
             ? detail::avx2::ncc_accum_f32(a, b, mean_a, mean_b, n)
             : detail::scalar::ncc_accum_f32(a, b, mean_a, mean_b, n);
}

// ---------------------------------------------------------------------------
// Min / argmin: one scalar scan on both paths. Only their test calls them,
// so no workload could show an AVX2 variant paying. The result is the
// extreme value and the FIRST index attaining it. Inputs must be NaN-free.
// n must be > 0.
// ---------------------------------------------------------------------------

/// Smallest value and the first index attaining it.
inline IndexValue argmin_f32(const float* a, std::size_t n) {
  assert(n > 0);
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (a[i] < a[best]) best = i;
  }
  return {best, a[best]};
}

/// Largest value and the first index attaining it.
inline IndexValue argmax_f32(const float* a, std::size_t n) {
  assert(n > 0);
  std::size_t best = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (a[best] < a[i]) best = i;
  }
  return {best, a[best]};
}

// ---------------------------------------------------------------------------
// Elementwise kernels. Per-element expression trees are identical on both
// paths, so outputs are bit-exact at any lane width by construction.
// ---------------------------------------------------------------------------

/// acc[i] += w[i] * x[i] (mul then add; no FMA).
inline void weighted_accumulate_f32(float* acc_out, const float* w,
                                    const float* x, std::size_t n) {
  if (detail::use_avx2()) {
    detail::avx2::weighted_accumulate_f32(acc_out, w, x, n);
  } else {
    detail::scalar::weighted_accumulate_f32(acc_out, w, x, n);
  }
}

/// out[i] = den[i] > 0 ? num[i] / den[i] : 0 — the feather-blend resolve.
/// Guarded so the masked-out lanes never divide by zero (sanitizer-clean).
inline void normalize_by_weight_f32(float* out, const float* num,
                                    const float* den, std::size_t n) {
  if (detail::use_avx2()) {
    detail::avx2::normalize_by_weight_f32(out, num, den, n);
  } else {
    detail::scalar::normalize_by_weight_f32(out, num, den, n);
  }
}

/// out[i] = sqrt(gx[i]² + gy[i]²).
inline void magnitude_f32(const float* gx, const float* gy, float* out,
                          std::size_t n) {
  if (detail::use_avx2()) {
    detail::avx2::magnitude_f32(gx, gy, out, n);
  } else {
    detail::scalar::magnitude_f32(gx, gy, out, n);
  }
}

/// mag[i] = sqrt(gx²+gy²); ang[i] = polynomial atan2(gy, gx) in (-pi, pi].
/// The angle uses the wrapper's own minimax polynomial (~1e-5 rad), NOT
/// libm atan2 — deterministic across paths and platforms by construction.
inline void mag_angle_f32(const float* gx, const float* gy, float* mag,
                          float* ang, std::size_t n) {
  if (detail::use_avx2()) {
    detail::avx2::mag_angle_f32(gx, gy, mag, ang, n);
  } else {
    detail::scalar::mag_angle_f32(gx, gy, mag, ang, n);
  }
}

/// Sobel responses for `n` interior pixels: reads [i-1, i+1] from each of the
/// three input rows, so callers must pass pointers with one valid element of
/// margin on both sides.
inline void sobel_row_f32(const float* top, const float* mid, const float* bot,
                          float* gx, float* gy, std::size_t n) {
  if (detail::use_avx2()) {
    detail::avx2::sobel_row_f32(top, mid, bot, gx, gy, n);
  } else {
    detail::scalar::sobel_row_f32(top, mid, bot, gx, gy, n);
  }
}

// ---------------------------------------------------------------------------
// Blocked SoA nearest-neighbor scan (the S2 matcher inner loop).
// ---------------------------------------------------------------------------

/// dist2[j] += Σ_{d in [d0,d1)} (soa[d*stride + j0 + j] - query[d])² for
/// j in [0, len). `len` must be a multiple of kF32Lanes. Per candidate the
/// accumulation order over d is sequential (outer loop), and each element
/// runs the same sub/mul/add tree in float — bit-exact at any lane width,
/// and bit-equal to vision::descriptor_distance_sq on the same data.
inline void l2sq_soa_accum_f32(const float* soa, std::size_t stride,
                               const float* query, std::size_t d0,
                               std::size_t d1, std::size_t j0, std::size_t len,
                               float* dist2) {
  assert(len % kF32Lanes == 0);
  if (detail::use_avx2()) {
    detail::avx2::l2sq_soa_accum_f32(soa, stride, query, d0, d1, j0, len,
                                     dist2);
  } else {
    detail::scalar::l2sq_soa_accum_f32(soa, stride, query, d0, d1, j0, len,
                                       dist2);
  }
}

/// Blocked scan over a dim-major SoA block: `soa` holds `dims` rows of
/// `stride` floats; candidates j in [0, count) are real, [count, stride)
/// are large-valued padding lanes. Candidates are processed in tiles of
/// `tile` (a multiple of kF32Lanes, at most kMaxMatchTile); each tile
/// accumulates distances dim-chunk by dim-chunk with a partial-distance
/// early exit:
///
///   Distances only grow as dims accumulate, so once every candidate in the
///   tile has partial >= second_d2, no candidate in it can improve best or
///   second — the tile is abandoned. A candidate whose FINAL distance is
///   below the running second always survives every check (partial <= final
///   < bound), so the (best, second, first-index tie-break) triple is
///   exactly the full-scan result for ANY tile/chunk size: the early exit
///   is a pure optimization, invariant in the output.
inline NearestTwo nearest2_soa_f32(const float* soa, std::size_t stride,
                                   std::size_t dims, std::size_t count,
                                   const float* query, std::size_t tile = 64) {
  assert(tile % kF32Lanes == 0 && tile > 0 && tile <= kMaxMatchTile);
  return detail::use_avx2()
             ? detail::avx2::nearest2_soa_f32(soa, stride, dims, count, query,
                                              tile)
             : detail::scalar::nearest2_soa_f32(soa, stride, dims, count,
                                                query, tile);
}

// ---------------------------------------------------------------------------
// SURF box-filter Hessian (vision/surf.cpp).
// ---------------------------------------------------------------------------

/// The SURF Hessian response of the `size` x `size` box filters (size odd:
/// 9, 15, 21, ...) at positions (x0 + k, y), k in [0, n), over an integral
/// table whose row r starts at table + r * stride. `n` must be a multiple of
/// kF64Lanes, and every box must lie inside the table. Writes
/// det_out[k] = nxx * nyy - 0.81 * nxy * nxy and lap_out[k] = trace > 0,
/// bit-equal to vision's scalar hessian_at: the same box corners combine in
/// the same order per position.
inline void hessian_row_f64(const double* table, std::size_t stride, int y,
                            int x0, int n, int size, double* det_out,
                            std::uint8_t* lap_out) {
  assert(n % static_cast<int>(kF64Lanes) == 0);
  if (detail::use_avx2()) {
    detail::avx2::hessian_row_f64(table, stride, y, x0, n, size, det_out,
                                  lap_out);
  } else {
    detail::scalar::hessian_row_f64(table, stride, y, x0, n, size, det_out,
                                    lap_out);
  }
}

}  // namespace crowdmap::common::simd
