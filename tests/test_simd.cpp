// The SIMD wrapper's determinism contract (docs/PERFORMANCE.md): every
// kernel produces BIT-IDENTICAL results on the scalar reference path and the
// AVX2 path of the same binary, the reduction kernels follow the pinned
// 4-lane order re-implemented independently here, and the blocked SoA
// matcher is output-invariant in its tile size. The final test pins the
// end-to-end consequence: serialized floor plans do not depend on
// simd.force_scalar or the thread count. On a CPU without AVX2 both
// settings run the scalar path, so the comparisons skip their AVX2 half and
// say so in the test log.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/incremental.hpp"
#include "floorplan/serialize.hpp"
#include "sim/buildings.hpp"
#include "sim/campaign.hpp"
#include "trajectory/trajectory.hpp"
#include "vision/matcher.hpp"
#include "vision/surf.hpp"

namespace cc = crowdmap::common;
namespace co = crowdmap::core;
namespace cs = crowdmap::sim;
namespace cv = crowdmap::vision;
namespace simd = crowdmap::common::simd;

namespace {

/// Restores the process-wide dispatch switch on scope exit so a failing
/// assertion cannot leak force-scalar mode into later tests.
struct DispatchGuard {
  bool scalar = simd::force_scalar();
  ~DispatchGuard() { simd::set_force_scalar(scalar); }
};

/// True when force_scalar off selects the AVX2 path on this CPU.
bool avx2_active() {
  DispatchGuard guard;
  simd::set_force_scalar(false);
  return simd::active_backend() == simd::Backend::kAvx2;
}

/// The force_scalar settings a comparison runs: the AVX2 path and the
/// scalar reference, or the reference alone on a CPU without AVX2 (noted
/// once in the test log).
std::vector<bool> paths() {
  static const bool avx2 = [] {
    const bool on = avx2_active();
    if (!on) {
      std::cout << "[   NOTE   ] this CPU has no AVX2: every scalar-vs-AVX2 "
                   "comparison runs its scalar half only\n";
    }
    return on;
  }();
  return avx2 ? std::vector<bool>{false, true} : std::vector<bool>{true};
}

std::vector<float> random_floats(cc::Rng& rng, std::size_t n, double lo,
                                 double hi) {
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(rng.uniform(lo, hi));
  return out;
}

/// Sizes that exercise the empty case, sub-lane tails, exact lane multiples,
/// and spans longer than one cache line.
const std::size_t kSizes[] = {0, 1, 3, 4, 7, 8, 13, 31, 64, 257};

// --- Independent pinned-order references (plain loops, no wrapper types). ---

double ref_reduce4(const double lane[4]) {
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

double ref_sum(const float* a, std::size_t n) {
  double lane[4] = {0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) lane[l] += static_cast<double>(a[i + l]);
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += static_cast<double>(a[i]);
  return ref_reduce4(lane) + tail;
}

double ref_dot(const float* a, const float* b, std::size_t n) {
  double lane[4] = {0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      lane[l] += static_cast<double>(a[i + l]) * static_cast<double>(b[i + l]);
    }
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    tail += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return ref_reduce4(lane) + tail;
}

double ref_l2sq(const float* a, const float* b, std::size_t n) {
  double lane[4] = {0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      const double d =
          static_cast<double>(a[i + l]) - static_cast<double>(b[i + l]);
      lane[l] += d * d;
    }
  }
  double tail = 0.0;
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    tail += d * d;
  }
  return ref_reduce4(lane) + tail;
}

double ref_sum_min(const float* a, const float* b, std::size_t n) {
  double lane[4] = {0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (int l = 0; l < 4; ++l) {
      lane[l] += static_cast<double>(a[i + l] < b[i + l] ? a[i + l] : b[i + l]);
    }
  }
  double tail = 0.0;
  for (; i < n; ++i) tail += static_cast<double>(a[i] < b[i] ? a[i] : b[i]);
  return ref_reduce4(lane) + tail;
}

/// Runs `fn` on every path of paths(), asserting the results compare
/// equal; returns the scalar reference's result.
template <typename Fn>
auto both_paths(Fn&& fn) {
  DispatchGuard guard;
  simd::set_force_scalar(true);
  const auto ref = fn();
  for (const bool scalar : paths()) {
    simd::set_force_scalar(scalar);
    EXPECT_EQ(fn(), ref) << "scalar and AVX2 paths disagree";
  }
  return ref;
}

}  // namespace

TEST(SimdBackend, CapabilityReportNamesCompiledBackend) {
  // The report names the path that runs and whether the CPU has AVX2; the
  // e2e benchmark embeds it in JSON, so it holds no quote or backslash.
  DispatchGuard guard;
  simd::set_force_scalar(false);
  const bool avx2 = simd::active_backend() == simd::Backend::kAvx2;
  const std::string report = simd::capability_report();
  EXPECT_EQ(report, avx2 ? "active=avx2 cpu: avx2=yes"
                         : "active=scalar cpu: avx2=no");
  EXPECT_EQ(report.find_first_of("\"\\"), std::string::npos) << report;
  simd::set_force_scalar(true);
  EXPECT_EQ(simd::active_backend(), simd::Backend::kScalar);
  EXPECT_EQ(simd::capability_report(), avx2 ? "active=scalar cpu: avx2=yes"
                                            : "active=scalar cpu: avx2=no");
}

TEST(SimdReductions, SumDotL2SumMinMatchPinnedReference) {
  cc::Rng rng(0x51D1);
  for (const std::size_t n : kSizes) {
    const auto a = random_floats(rng, n, -3.0, 3.0);
    const auto b = random_floats(rng, n, -3.0, 3.0);
    const double s = both_paths([&] { return simd::sum_f32(a.data(), n); });
    EXPECT_EQ(s, ref_sum(a.data(), n)) << "sum n=" << n;
    const double d =
        both_paths([&] { return simd::dot_f32(a.data(), b.data(), n); });
    EXPECT_EQ(d, ref_dot(a.data(), b.data(), n)) << "dot n=" << n;
    const double l =
        both_paths([&] { return simd::l2sq_f32(a.data(), b.data(), n); });
    EXPECT_EQ(l, ref_l2sq(a.data(), b.data(), n)) << "l2sq n=" << n;
    const double m =
        both_paths([&] { return simd::sum_min_f32(a.data(), b.data(), n); });
    EXPECT_EQ(m, ref_sum_min(a.data(), b.data(), n)) << "sum_min n=" << n;
  }
}

TEST(SimdReductions, Dot3AgreesWithSeparateDots) {
  cc::Rng rng(0x51D2);
  for (const std::size_t n : kSizes) {
    const auto a = random_floats(rng, n, -2.0, 2.0);
    const auto b = random_floats(rng, n, -2.0, 2.0);
    DispatchGuard guard;
    for (const bool scalar : paths()) {
      simd::set_force_scalar(scalar);
      const auto got = simd::dot3_f32(a.data(), b.data(), n);
      // The fused kernel runs the same per-lane arithmetic as three
      // separate pinned dots, so the components match those exactly.
      EXPECT_EQ(got.ab, ref_dot(a.data(), b.data(), n))
          << "n=" << n << " scalar=" << scalar;
      EXPECT_EQ(got.aa, ref_dot(a.data(), a.data(), n))
          << "n=" << n << " scalar=" << scalar;
      EXPECT_EQ(got.bb, ref_dot(b.data(), b.data(), n))
          << "n=" << n << " scalar=" << scalar;
    }
  }
}

TEST(SimdReductions, NccAccumBitExactAcrossPaths) {
  cc::Rng rng(0x51D3);
  for (const std::size_t n : kSizes) {
    const auto a = random_floats(rng, n, 0.0, 1.0);
    const auto b = random_floats(rng, n, 0.0, 1.0);
    const double ma = n ? ref_sum(a.data(), n) / static_cast<double>(n) : 0.0;
    const double mb = n ? ref_sum(b.data(), n) / static_cast<double>(n) : 0.0;
    DispatchGuard guard;
    simd::set_force_scalar(true);
    const auto ref = simd::ncc_accum_f32(a.data(), b.data(), ma, mb, n);
    for (const bool scalar : paths()) {
      simd::set_force_scalar(scalar);
      const auto got = simd::ncc_accum_f32(a.data(), b.data(), ma, mb, n);
      EXPECT_EQ(got.num, ref.num) << "n=" << n << " scalar=" << scalar;
      EXPECT_EQ(got.da, ref.da) << "n=" << n << " scalar=" << scalar;
      EXPECT_EQ(got.db, ref.db) << "n=" << n << " scalar=" << scalar;
    }
  }
}

TEST(SimdArgExtrema, MatchOnePassScanIncludingTies) {
  cc::Rng rng(0x51D4);
  for (const std::size_t n : kSizes) {
    if (n == 0) continue;  // argmin/argmax require n > 0
    auto a = random_floats(rng, n, -5.0, 5.0);
    // Plant duplicated extremes so the FIRST-index tie-break is exercised:
    // copy the element at the front third into the back third.
    if (n >= 3) a[n - 1] = a[n / 3];
    const auto one_pass_min = [&] {
      std::size_t idx = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (a[i] < a[idx]) idx = i;
      }
      return idx;
    }();
    const auto one_pass_max = [&] {
      std::size_t idx = 0;
      for (std::size_t i = 1; i < n; ++i) {
        if (a[idx] < a[i]) idx = i;
      }
      return idx;
    }();
    DispatchGuard guard;
    for (const bool scalar : paths()) {
      simd::set_force_scalar(scalar);
      const auto mn = simd::argmin_f32(a.data(), n);
      const auto mx = simd::argmax_f32(a.data(), n);
      EXPECT_EQ(mn.index, one_pass_min) << "n=" << n << " scalar=" << scalar;
      EXPECT_EQ(mn.value, a[one_pass_min]);
      EXPECT_EQ(mx.index, one_pass_max) << "n=" << n << " scalar=" << scalar;
      EXPECT_EQ(mx.value, a[one_pass_max]);
    }
  }
}

TEST(SimdElementwise, WeightedAccumulateAndNormalize) {
  cc::Rng rng(0x51D5);
  for (const std::size_t n : kSizes) {
    const auto w = random_floats(rng, n, 0.0, 1.0);
    const auto x = random_floats(rng, n, -4.0, 4.0);
    const auto seed = random_floats(rng, n, -1.0, 1.0);
    std::vector<float> expect(seed);
    for (std::size_t i = 0; i < n; ++i) {
      const float wx = w[i] * x[i];  // mul then add — no fused contraction
      expect[i] = expect[i] + wx;
    }
    DispatchGuard guard;
    for (const bool scalar : paths()) {
      simd::set_force_scalar(scalar);
      std::vector<float> acc(seed);
      simd::weighted_accumulate_f32(acc.data(), w.data(), x.data(), n);
      EXPECT_EQ(acc, expect) << "n=" << n << " scalar=" << scalar;
    }
    // normalize: zero out part of the weights to hit the masked branch.
    std::vector<float> den(w);
    for (std::size_t i = 0; i < n; i += 3) den[i] = 0.0f;
    std::vector<float> norm_expect(n);
    for (std::size_t i = 0; i < n; ++i) {
      norm_expect[i] = den[i] > 0.0f ? expect[i] / den[i] : 0.0f;
    }
    for (const bool scalar : paths()) {
      simd::set_force_scalar(scalar);
      std::vector<float> out(n, -99.0f);
      simd::normalize_by_weight_f32(out.data(), expect.data(), den.data(), n);
      EXPECT_EQ(out, norm_expect) << "n=" << n << " scalar=" << scalar;
    }
  }
}

TEST(SimdElementwise, MagnitudeAndMagAngle) {
  cc::Rng rng(0x51D6);
  for (const std::size_t n : kSizes) {
    auto gx = random_floats(rng, n, -10.0, 10.0);
    auto gy = random_floats(rng, n, -10.0, 10.0);
    // Axis and origin cases for the quadrant reconstruction.
    if (n >= 8) {
      gx[0] = 0.0f;            // +y axis
      gy[1] = 0.0f;            // +x axis
      gx[2] = -gx[2];          // force a negative-x quadrant somewhere
      gx[3] = 0.0f;
      gy[3] = 0.0f;            // origin: angle defined as 0
      gy[4] = -std::abs(gy[4]);  // -y half-plane
    }
    DispatchGuard guard;
    simd::set_force_scalar(true);
    std::vector<float> mag_s(n), ang_s(n), mag2_s(n);
    simd::magnitude_f32(gx.data(), gy.data(), mag2_s.data(), n);
    simd::mag_angle_f32(gx.data(), gy.data(), mag_s.data(), ang_s.data(), n);
    for (const bool scalar : paths()) {
      simd::set_force_scalar(scalar);
      // Sentinel-filled outputs, so a path that leaves any element (say the
      // tail) unwritten cannot pass on the reference's values.
      std::vector<float> mag_v(n, -99.0f), ang_v(n, -99.0f), mag2_v(n, -99.0f);
      simd::magnitude_f32(gx.data(), gy.data(), mag2_v.data(), n);
      simd::mag_angle_f32(gx.data(), gy.data(), mag_v.data(), ang_v.data(),
                          n);
      EXPECT_EQ(mag_v, mag_s) << "mag_angle magnitudes, n=" << n
                              << " scalar=" << scalar;
      EXPECT_EQ(ang_v, ang_s) << "angles, n=" << n << " scalar=" << scalar;
      EXPECT_EQ(mag2_v, mag2_s) << "magnitude_f32, n=" << n
                                << " scalar=" << scalar;
    }
    // Accuracy: the polynomial atan2 tracks libm to ~1e-5 rad, and the float
    // magnitude tracks hypot to float rounding.
    for (std::size_t i = 0; i < n; ++i) {
      const double want_mag = std::hypot(static_cast<double>(gx[i]),
                                         static_cast<double>(gy[i]));
      EXPECT_NEAR(mag_s[i], want_mag, 1e-3 * (1.0 + want_mag)) << i;
      EXPECT_NEAR(mag2_s[i], want_mag, 1e-3 * (1.0 + want_mag)) << i;
      if (gx[i] == 0.0f && gy[i] == 0.0f) {
        EXPECT_EQ(ang_s[i], 0.0f) << i;
      } else {
        const double want_ang = std::atan2(static_cast<double>(gy[i]),
                                           static_cast<double>(gx[i]));
        EXPECT_NEAR(ang_s[i], want_ang, 1e-3) << "gx=" << gx[i]
                                              << " gy=" << gy[i];
      }
    }
  }
}

TEST(SimdElementwise, SobelRowMatchesStencilExpression) {
  cc::Rng rng(0x51D7);
  for (const std::size_t n : kSizes) {
    // Rows carry one margin pixel on each side, as the kernel contract asks.
    const auto top = random_floats(rng, n + 2, 0.0, 1.0);
    const auto mid = random_floats(rng, n + 2, 0.0, 1.0);
    const auto bot = random_floats(rng, n + 2, 0.0, 1.0);
    std::vector<float> gx_ref(n), gy_ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float tl = top[i], tc = top[i + 1], tr = top[i + 2];
      const float ml = mid[i], mr = mid[i + 2];
      const float bl = bot[i], bc = bot[i + 1], br = bot[i + 2];
      gx_ref[i] = ((tr + 2.0f * mr) + br) - ((tl + 2.0f * ml) + bl);
      gy_ref[i] = ((bl + 2.0f * bc) + br) - ((tl + 2.0f * tc) + tr);
    }
    DispatchGuard guard;
    for (const bool scalar : paths()) {
      simd::set_force_scalar(scalar);
      std::vector<float> gx(n), gy(n);
      simd::sobel_row_f32(top.data() + 1, mid.data() + 1, bot.data() + 1,
                          gx.data(), gy.data(), n);
      EXPECT_EQ(gx, gx_ref) << "n=" << n << " scalar=" << scalar;
      EXPECT_EQ(gy, gy_ref) << "n=" << n << " scalar=" << scalar;
    }
  }
}

namespace {

/// Synthetic feature set with pseudo-random unit-ish descriptors and mixed
/// Laplacian signs. Descriptor magnitudes mimic real SURF output (unit L2).
std::vector<cv::SurfFeature> synthetic_features(cc::Rng& rng, std::size_t n) {
  std::vector<cv::SurfFeature> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].keypoint.laplacian_positive = rng.chance(0.5);
    double norm_sq = 0.0;
    for (auto& v : out[i].descriptor) {
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
      norm_sq += static_cast<double>(v) * v;
    }
    const float inv = static_cast<float>(1.0 / std::sqrt(norm_sq + 1e-12));
    for (auto& v : out[i].descriptor) v *= inv;
  }
  return out;
}

}  // namespace

TEST(SimdSoa, BlockAccumEqualsDescriptorDistanceSq) {
  cc::Rng rng(0x50A1);
  const auto feats = synthetic_features(rng, 37);
  const auto queries = synthetic_features(rng, 5);
  for (const bool sign : {false, true}) {
    const auto block = cv::build_descriptor_block(feats, sign);
    ASSERT_EQ(block.stride % simd::kF32Lanes, 0u);
    for (const auto& q : queries) {
      DispatchGuard guard;
      for (const bool scalar : paths()) {
        simd::set_force_scalar(scalar);
        std::vector<float> d2(block.stride, 0.0f);
        simd::l2sq_soa_accum_f32(block.data.data(), block.stride,
                                 q.descriptor.data(), 0, cv::kSurfDescriptorDims,
                                 0, block.stride, d2.data());
        for (std::size_t j = 0; j < block.count; ++j) {
          const auto& original = feats[block.index[j]].descriptor;
          EXPECT_EQ(d2[j], cv::descriptor_distance_sq(q.descriptor, original))
              << "lane " << j << " scalar=" << scalar;
        }
      }
    }
  }
}

TEST(SimdSoa, NearestTwoInvariantAcrossTilesAndPaths) {
  cc::Rng rng(0x50A2);
  const auto feats = synthetic_features(rng, 83);
  const auto queries = synthetic_features(rng, 9);
  const auto block = cv::build_descriptor_block(feats, true);
  ASSERT_GT(block.count, 2u);
  for (const auto& q : queries) {
    // Reference full scan: first-index tie-break, exact float metric.
    std::size_t best = block.count;
    float best_d2 = std::numeric_limits<float>::max();
    float second_d2 = std::numeric_limits<float>::max();
    for (std::size_t j = 0; j < block.count; ++j) {
      const float d2 = cv::descriptor_distance_sq(
          q.descriptor, feats[block.index[j]].descriptor);
      if (d2 < best_d2) {
        second_d2 = best_d2;
        best_d2 = d2;
        best = j;
      } else if (d2 < second_d2) {
        second_d2 = d2;
      }
    }
    DispatchGuard guard;
    for (const std::size_t tile : {std::size_t{8}, std::size_t{24},
                                   std::size_t{64}, simd::kMaxMatchTile}) {
      for (const bool scalar : paths()) {
        simd::set_force_scalar(scalar);
        const auto got = simd::nearest2_soa_f32(
            block.data.data(), block.stride, cv::kSurfDescriptorDims,
            block.count, q.descriptor.data(), tile);
        EXPECT_EQ(got.best, best) << "tile=" << tile << " scalar=" << scalar;
        EXPECT_EQ(got.best_d2, best_d2) << "tile=" << tile;
        EXPECT_EQ(got.second_d2, second_d2) << "tile=" << tile;
      }
    }
  }
}

TEST(SimdSoa, EmptyBlockReportsNoCandidate) {
  const std::vector<cv::SurfFeature> none;
  const auto block = cv::build_descriptor_block(none, true);
  EXPECT_EQ(block.count, 0u);
  std::array<float, cv::kSurfDescriptorDims> q{};
  const auto got = simd::nearest2_soa_f32(block.data.data(), block.stride,
                                          cv::kSurfDescriptorDims, block.count,
                                          q.data());
  EXPECT_EQ(got.best, 0u);  // == count, the "no candidate" sentinel
}

TEST(SimdMatcher, MutualNnIdenticalAcrossDispatchAndTile) {
  cc::Rng rng(0x50A3);
  const auto f1 = synthetic_features(rng, 60);
  // f2 = noisy copies of a subset of f1 plus distractors, so real mutual
  // matches exist alongside near-ties.
  auto f2 = synthetic_features(rng, 20);
  for (std::size_t i = 0; i < 30; ++i) {
    cv::SurfFeature f = f1[i * 2];
    for (auto& v : f.descriptor) {
      v += static_cast<float>(rng.uniform(-0.02, 0.02));
    }
    f2.push_back(f);
  }
  // The matcher scans with the default tile; SimdSoa.* sweeps the tile.
  DispatchGuard guard;
  simd::set_force_scalar(true);
  const auto baseline = cv::mutual_nn_matches(f1, f2, 0.35, 0.9);
  EXPECT_FALSE(baseline.empty());
  for (const bool scalar : paths()) {
    simd::set_force_scalar(scalar);
    const auto got = cv::mutual_nn_matches(f1, f2, 0.35, 0.9);
    ASSERT_EQ(got.size(), baseline.size()) << "scalar=" << scalar;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].index1, baseline[k].index1);
      EXPECT_EQ(got[k].index2, baseline[k].index2);
      EXPECT_EQ(got[k].distance, baseline[k].distance);
    }
  }
}

TEST(SimdMatcher, DirectAndBlockedPathsMatchBruteForceReference) {
  // mutual_nn_matches takes a direct O(N^2) scan when both sides have <= 32
  // features and the SoA-blocked scan otherwise. Both must equal this
  // brute-force restatement of the algorithm (same metric, same strict-<
  // first-index tie-break, same ratio/threshold/mutual gates) — so the size
  // cutoff can never change the output.
  const auto reference = [](const std::vector<cv::SurfFeature>& f1,
                            const std::vector<cv::SurfFeature>& f2,
                            double threshold, double ratio) {
    const auto nearest2 = [](const std::vector<cv::SurfFeature>& cands,
                             const cv::SurfFeature& q) {
      std::size_t best = cands.size();
      float best_d2 = std::numeric_limits<float>::max();
      float second_d2 = std::numeric_limits<float>::max();
      for (std::size_t j = 0; j < cands.size(); ++j) {
        if (cands[j].keypoint.laplacian_positive !=
            q.keypoint.laplacian_positive) {
          continue;
        }
        const float d2 =
            cv::descriptor_distance_sq(q.descriptor, cands[j].descriptor);
        if (d2 < best_d2) {
          second_d2 = best_d2;
          best_d2 = d2;
          best = j;
        } else if (d2 < second_d2) {
          second_d2 = d2;
        }
      }
      return std::tuple{best, best_d2, second_d2};
    };
    std::vector<cv::FeatureMatch> out;
    for (std::size_t i = 0; i < f1.size(); ++i) {
      const auto [j, best_d2, second_d2] = nearest2(f2, f1[i]);
      if (j >= f2.size()) continue;
      const double best_dist = std::sqrt(static_cast<double>(best_d2));
      if (best_dist >= threshold) continue;
      if (ratio < 1.0 && second_d2 < std::numeric_limits<float>::max()) {
        const double second_dist = std::sqrt(static_cast<double>(second_d2));
        if (second_dist > 0 && best_dist / second_dist >= ratio) continue;
      }
      const auto [back, b1, b2] = nearest2(f1, f2[j]);
      if (back != i) continue;
      out.push_back({i, j, best_dist});
    }
    return out;
  };

  cc::Rng rng(0x50A4);
  // (12, 12): both sides under the cutoff — direct scan. (12, 48) and
  // (48, 48): blocked scan. Same generator, so only the path differs.
  for (const auto& [n1, n2] : std::initializer_list<
           std::pair<std::size_t, std::size_t>>{{12, 12}, {12, 48}, {48, 48}}) {
    const auto f1 = synthetic_features(rng, n1);
    auto f2 = synthetic_features(rng, n2 / 2);
    for (std::size_t i = 0; i < n2 - n2 / 2; ++i) {
      cv::SurfFeature f = f1[i % n1];
      for (auto& v : f.descriptor) {
        v += static_cast<float>(rng.uniform(-0.02, 0.02));
      }
      f2.push_back(f);
    }
    const auto want = reference(f1, f2, 0.35, 0.9);
    DispatchGuard guard;
    for (const bool scalar : paths()) {
      simd::set_force_scalar(scalar);
      const auto got = cv::mutual_nn_matches(f1, f2, 0.35, 0.9);
      ASSERT_EQ(got.size(), want.size())
          << "n1=" << n1 << " n2=" << n2 << " scalar=" << scalar;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].index1, want[k].index1);
        EXPECT_EQ(got[k].index2, want[k].index2);
        EXPECT_EQ(got[k].distance, want[k].distance);
      }
    }
  }
}

TEST(SimdPipeline, FloorPlanBytesInvariantToDispatchAndThreads) {
  // End-to-end determinism: serialized plans are byte-identical on the AVX2
  // path and the forced-scalar path of this one binary, at 1 and at 4
  // threads. Every kernel falls back to the inline scalar path, so no build
  // needs a vector backend; this test checks the two paths agree.
  const auto run = [](bool force_scalar, std::size_t threads) {
    DispatchGuard guard;
    cc::Rng rng(0x51D8);
    const auto spec = cs::random_building(2, rng);
    cs::CampaignOptions options;
    options.users = 2;
    options.room_videos_per_room = 1;
    options.hallway_walks = 4;
    options.junk_fraction = 0.0;
    options.sim.fps = 3.0;
    co::PipelineConfig config = co::PipelineConfig::fast_profile();
    config.parallel.threads = threads;
    config.simd.force_scalar = force_scalar;
    // The planner without the service around it is the unit under test.
    co::IncrementalPlanner planner(config);
    cs::generate_campaign_streaming(
        spec, options, 0x51D8, [&planner](cs::SensorRichVideo&& video) {
          (void)planner.ingest(crowdmap::trajectory::extract_trajectory(
              video, planner.config().extraction));
        });
    return crowdmap::floorplan::encode_floorplan(planner.refresh().plan);
  };
  const auto baseline = run(true, 1);
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(run(true, 4), baseline) << "thread count changed the plan bytes";
  if (!avx2_active()) {
    GTEST_SKIP() << "this CPU has no AVX2: the AVX2 half is skipped";
  }
  EXPECT_EQ(run(false, 1), baseline) << "AVX2 path changed the plan bytes";
  EXPECT_EQ(run(false, 4), baseline) << "AVX2 x threads changed the bytes";
}
