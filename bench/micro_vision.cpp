// Micro-benchmarks of the vision/matching hot paths (google-benchmark):
// SURF detection, descriptor matching, HOG, the cheap S1 descriptors, NCC,
// LCSS and panorama stitching — plus a per-kernel roofline suite over the
// common::simd wrapper that times every wrapped kernel on the dispatched
// backend AND on the forced-scalar reference path, emitting elements/s,
// bytes/s and the speedup ratio (docs/PERFORMANCE.md carries the table).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_gbench_main.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "imaging/descriptors.hpp"
#include "imaging/hog.hpp"
#include "imaging/ncc.hpp"
#include "sim/buildings.hpp"
#include "sim/scene.hpp"
#include "trajectory/lcss.hpp"
#include "vision/matcher.hpp"
#include "vision/panorama.hpp"
#include "vision/similarity.hpp"
#include "vision/surf.hpp"

namespace {

using namespace crowdmap;

/// A rendered frame from the Lab1 world (realistic texture statistics).
imaging::ColorImage rendered_frame() {
  static const auto spec = sim::lab1();
  static const auto scene = sim::Scene::from_spec(spec, 0xBE9C);
  sim::CameraIntrinsics intr;
  common::Rng rng(1);
  return scene.render({{10.0, 0.0}, 0.0}, intr, sim::Lighting::day(), rng);
}

void BM_RenderFrame(benchmark::State& state) {
  const auto spec = sim::lab1();
  const auto scene = sim::Scene::from_spec(spec, 0xBE9C);
  sim::CameraIntrinsics intr;
  common::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scene.render({{10.0, 0.0}, 0.0}, intr, sim::Lighting::day(), rng));
  }
}
BENCHMARK(BM_RenderFrame);

void BM_SurfDetect(benchmark::State& state) {
  const auto gray = rendered_frame().to_gray();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::detect_and_describe(gray));
  }
}
BENCHMARK(BM_SurfDetect);

void BM_SurfMatch(benchmark::State& state) {
  const auto gray = rendered_frame().to_gray();
  const auto f1 = vision::detect_and_describe(gray);
  const auto f2 = vision::detect_and_describe(gray.box_blurred(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::mutual_nn_matches(f1, f2, 0.35, 0.8));
  }
}
BENCHMARK(BM_SurfMatch);

void BM_Hog(benchmark::State& state) {
  const auto gray = rendered_frame().to_gray();
  for (auto _ : state) {
    benchmark::DoNotOptimize(imaging::hog_descriptor(gray));
  }
}
BENCHMARK(BM_Hog);

void BM_CheapDescriptors(benchmark::State& state) {
  const auto frame = rendered_frame();
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::compute_cheap_descriptors(frame));
  }
}
BENCHMARK(BM_CheapDescriptors);

void BM_SimilarityS1(benchmark::State& state) {
  const auto frame = rendered_frame();
  const auto d1 = vision::compute_cheap_descriptors(frame);
  const auto d2 = vision::compute_cheap_descriptors(frame);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::similarity_s1(d1, d2));
  }
}
BENCHMARK(BM_SimilarityS1);

void BM_Ncc(benchmark::State& state) {
  const auto gray = rendered_frame().to_gray();
  const auto other = gray.box_blurred(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(imaging::normalized_cross_correlation(gray, other));
  }
}
BENCHMARK(BM_Ncc);

void BM_Lcss(benchmark::State& state) {
  common::Rng rng(7);
  std::vector<geometry::Vec2> a;
  std::vector<geometry::Vec2> b;
  for (int i = 0; i < 64; ++i) {
    a.push_back({i * 0.5, rng.normal(0.0, 0.2)});
    b.push_back({i * 0.5 + 0.3, rng.normal(0.0, 0.2)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(trajectory::lcss_length(a, b, {}));
  }
}
BENCHMARK(BM_Lcss);

void BM_StitchPanorama(benchmark::State& state) {
  const auto spec = sim::lab1();
  const auto scene = sim::Scene::from_spec(spec, 0xBE9C);
  sim::CameraIntrinsics intr;
  common::Rng rng(1);
  std::vector<vision::PanoFrame> frames;
  for (int i = 0; i < 12; ++i) {
    const double heading = i * 2.0 * 3.14159265358979 / 12;
    frames.push_back({scene.render({spec.rooms[0].center, heading}, intr,
                                   sim::Lighting::day(), rng)
                          .to_gray(),
                      heading});
  }
  vision::StitchParams params;
  params.output_width = 512;
  params.output_height = 128;
  for (auto _ : state) {
    auto copy = frames;
    benchmark::DoNotOptimize(vision::stitch_panorama(std::move(copy), params));
  }
}
BENCHMARK(BM_StitchPanorama);

// ------------------------------------------------------------- roofline ---
// Per-kernel scalar-vs-SIMD timings over the common::simd wrapper. One
// binary measures both paths via set_force_scalar(), so the emitted
// speedup_vs_scalar ratios are apples-to-apples on the same host and the
// bench gate can pin conservative minimums on them (TOLERANCES.conf;
// host-independent because both numerator and denominator move together).

namespace simd = crowdmap::common::simd;

/// Median of `reps` timings of `iters` calls to `fn`, in seconds per call.
double time_kernel(const std::function<void()>& fn, int iters, int reps,
                   std::vector<double>* samples) {
  samples->clear();
  fn();  // warm caches and page in the buffers
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto stop = std::chrono::steady_clock::now();
    samples->push_back(std::chrono::duration<double>(stop - start).count() /
                       iters);
  }
  std::vector<double> sorted(*samples);
  std::sort(sorted.begin(), sorted.end());
  return sorted[sorted.size() / 2];
}

/// Times `fn` on the dispatched backend and the forced-scalar path, then
/// emits <name>.simd_elems_per_s, <name>.scalar_elems_per_s,
/// <name>.simd_gbytes_per_s and <name>.speedup_vs_scalar. `elems` is the
/// element count one call processes; `bytes` the memory it touches.
void roofline_case(const std::string& name, std::size_t elems,
                   std::size_t bytes, int iters,
                   const std::function<void()>& fn) {
  constexpr int kReps = 5;
  std::vector<double> samples;
  simd::set_force_scalar(false);
  const double simd_s = time_kernel(fn, iters, kReps, &samples);
  std::vector<double> simd_rate;
  for (const double s : samples) {
    simd_rate.push_back(static_cast<double>(elems) / s);
  }
  simd::set_force_scalar(true);
  const double scalar_s = time_kernel(fn, iters, kReps, &samples);
  std::vector<double> scalar_rate;
  for (const double s : samples) {
    scalar_rate.push_back(static_cast<double>(elems) / s);
  }
  simd::set_force_scalar(false);
  crowdmap::bench::emit_bench_json("vision", "kernel." + name +
                                                ".simd_elems_per_s",
                                   simd_rate);
  crowdmap::bench::emit_bench_json("vision", "kernel." + name +
                                                ".scalar_elems_per_s",
                                   scalar_rate);
  crowdmap::bench::emit_bench_scalar(
      "vision", "kernel." + name + ".simd_gbytes_per_s",
      static_cast<double>(bytes) / simd_s * 1e-9);
  crowdmap::bench::emit_bench_scalar("vision",
                                     "kernel." + name + ".speedup_vs_scalar",
                                     scalar_s / simd_s);
}

void run_roofline() {
  constexpr std::size_t kN = 1 << 16;  // 64k floats ~ 256 KiB per buffer
  common::Rng rng(0xF00F);
  std::vector<float> a(kN), b(kN), c(kN), d(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    b[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    c[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  double sink = 0.0;

  roofline_case("sum_f32", kN, kN * 4, 200, [&] {
    sink = simd::sum_f32(a.data(), kN);
    benchmark::DoNotOptimize(sink);
  });
  roofline_case("dot_f32", kN, kN * 8, 200, [&] {
    sink = simd::dot_f32(a.data(), b.data(), kN);
    benchmark::DoNotOptimize(sink);
  });
  roofline_case("l2sq_f32", kN, kN * 8, 200, [&] {
    sink = simd::l2sq_f32(a.data(), b.data(), kN);
    benchmark::DoNotOptimize(sink);
  });
  roofline_case("sum_min_f32", kN, kN * 8, 200, [&] {
    sink = simd::sum_min_f32(a.data(), b.data(), kN);
    benchmark::DoNotOptimize(sink);
  });
  roofline_case("ncc_accum_f32", kN, kN * 8, 200, [&] {
    const auto s = simd::ncc_accum_f32(a.data(), b.data(), 0.1, 0.2, kN);
    benchmark::DoNotOptimize(s.num + s.da + s.db);
  });
  roofline_case("mag_angle_f32", kN, kN * 16, 100, [&] {
    simd::mag_angle_f32(a.data(), b.data(), c.data(), d.data(), kN);
    benchmark::DoNotOptimize(d.data());
  });
  roofline_case("magnitude_f32", kN, kN * 12, 200, [&] {
    simd::magnitude_f32(a.data(), b.data(), d.data(), kN);
    benchmark::DoNotOptimize(d.data());
  });
  roofline_case("sobel_row_f32", kN - 2, kN * 20, 100, [&] {
    simd::sobel_row_f32(a.data() + 1, b.data() + 1, c.data() + 1, d.data(),
                        d.data(), kN - 2);
    benchmark::DoNotOptimize(d.data());
  });
  roofline_case("weighted_accumulate_f32", kN, kN * 16, 200, [&] {
    simd::weighted_accumulate_f32(d.data(), c.data(), a.data(), kN);
    benchmark::DoNotOptimize(d.data());
  });
  roofline_case("dot3_f32", kN, kN * 8, 200, [&] {
    const auto s = simd::dot3_f32(a.data(), b.data(), kN);
    benchmark::DoNotOptimize(s.ab + s.aa + s.bb);
  });
  roofline_case("normalize_by_weight_f32", kN, kN * 12, 200, [&] {
    simd::normalize_by_weight_f32(d.data(), a.data(), c.data(), kN);
    benchmark::DoNotOptimize(d.data());
  });

  // SURF's 9x9 Hessian over one 1024-position row of an integral table; the
  // filter reads 10 table rows around y.
  constexpr int kRow = 1024;
  constexpr std::size_t kStride = kRow + 16;
  std::vector<double> table(kStride * 24);
  for (double& v : table) v = rng.uniform(0.0, 1.0);
  std::vector<double> det(kRow);
  std::vector<std::uint8_t> lap(kRow);
  roofline_case("hessian_row_f64", kRow, kStride * 10 * 8, 2000, [&] {
    simd::hessian_row_f64(table.data(), kStride, 8, 8, kRow, 9, det.data(),
                          lap.data());
    benchmark::DoNotOptimize(det.data());
  });

  // The matcher inner loop: one query against a 512-descriptor SoA block.
  common::Rng frng(0x50A5);
  std::vector<vision::SurfFeature> feats(512);
  for (auto& f : feats) {
    f.keypoint.laplacian_positive = true;
    for (auto& v : f.descriptor) {
      v = static_cast<float>(frng.uniform(-0.2, 0.2));
    }
  }
  const auto block = vision::build_descriptor_block(feats, true);
  const auto& query = feats[257].descriptor;
  const std::size_t pair_elems = block.count * vision::kSurfDescriptorDims;
  roofline_case("nearest2_soa_f32", pair_elems, pair_elems * 4, 50, [&] {
    const auto nn = simd::nearest2_soa_f32(block.data.data(), block.stride,
                                           vision::kSurfDescriptorDims,
                                           block.count, query.data());
    benchmark::DoNotOptimize(nn.best);
  });
}

}  // namespace

int main(int argc, char** argv) {
  const int rc = crowdmap::bench::run_benchmarks_with_json("vision", argc, argv);
  if (rc != 0) return rc;
  std::printf("active SIMD backend: %s\n",
              crowdmap::common::simd::capability_report().c_str());
  run_roofline();
  return 0;
}
