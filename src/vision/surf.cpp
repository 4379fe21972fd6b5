#include "vision/surf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>

#include "common/simd.hpp"

namespace crowdmap::vision {

namespace {

namespace simd = common::simd;
using imaging::IntegralImage;

/// Box-filter approximations of second-order Gaussian derivatives, as in the
/// original SURF paper. `size` is the odd filter side (9, 15, 21, ...).
struct HessianResponse {
  double det = 0.0;
  double trace = 0.0;
};

/// All box accesses below are provably inside the image for the positions
/// the detector visits (x, y at least `margin` = filter/2 + 1 from every
/// edge), so they use IntegralImage::box_sum_fast — same value and FP order
/// as box_sum, minus 8 clamp branches per box.
[[nodiscard]] HessianResponse hessian_at(const IntegralImage& ii, int x, int y,
                                         int size) {
  const int lobe = size / 3;            // e.g. 3 for the 9x9 filter
  const int half = size / 2;
  const double area = static_cast<double>(size) * size;

  // The outer size x size box is shared by Dyy and Dxx (it appears in both
  // three-lobe stacks); box_sum is pure, so computing it once is exact.
  const double big = ii.box_sum_fast(x - half, y - half, x + half, y + half);
  // Dyy: three stacked horizontal lobes (middle weighted -2).
  const double dyy =
      big -
      3.0 * ii.box_sum_fast(x - half, y - lobe / 2 - (lobe - 1) / 2, x + half,
                            y + lobe / 2 + (lobe - 1) / 2);
  // Dxx: transpose.
  const double dxx =
      big -
      3.0 * ii.box_sum_fast(x - lobe / 2 - (lobe - 1) / 2, y - half,
                            x + lobe / 2 + (lobe - 1) / 2, y + half);
  // Dxy: four diagonal lobes.
  const double dxy = ii.box_sum_fast(x - lobe, y - lobe, x - 1, y - 1) +
                     ii.box_sum_fast(x + 1, y + 1, x + lobe, y + lobe) -
                     ii.box_sum_fast(x + 1, y - lobe, x + lobe, y - 1) -
                     ii.box_sum_fast(x - lobe, y + 1, x - 1, y + lobe);

  const double nxx = dxx / area;
  const double nyy = dyy / area;
  const double nxy = dxy / area;
  HessianResponse r;
  // 0.81 = (0.9)^2 weight balancing the box-filter approximation (SURF paper).
  r.det = nxx * nyy - 0.81 * nxy * nxy;
  r.trace = nxx + nyy;
  return r;
}

/// Fills one response-map row at vertical position y, horizontal positions
/// x0 + k for k in [0, n), step 1 (the full-resolution octave). The 4-wide
/// body (common::simd::hessian_row_f64) evaluates the identical
/// floating-point tree as hessian_at — the same box corners combined in the
/// same order, per position — so its output is bit-for-bit equal to the
/// scalar path; the n % 4 tail simply calls hessian_at.
void hessian_row(const IntegralImage& ii, int y, int x0, int n, int size,
                 double* det_out, std::uint8_t* lap_out) {
  const int main_n = n - n % static_cast<int>(simd::kF64Lanes);
  simd::hessian_row_f64(ii.row(0), static_cast<std::size_t>(ii.width()) + 1,
                        y, x0, main_n, size, det_out, lap_out);
  for (int k = main_n; k < n; ++k) {
    const auto h = hessian_at(ii, x0 + k, y, size);
    det_out[k] = h.det;
    lap_out[k] = h.trace > 0.0 ? 1 : 0;
  }
}

/// Haar wavelet responses (dx, dy) of side `s` at integer position. Callers
/// bounds-check (x, y) against a margin of at least s/2 first, so the
/// unclamped box path applies.
[[nodiscard]] std::pair<double, double> haar_xy(const IntegralImage& ii, int x,
                                                int y, int s) {
  const int half = s / 2;
  const double dx = ii.box_sum_fast(x, y - half, x + half - 1, y + half - 1) -
                    ii.box_sum_fast(x - half, y - half, x - 1, y + half - 1);
  const double dy = ii.box_sum_fast(x - half, y, x + half - 1, y + half - 1) -
                    ii.box_sum_fast(x - half, y - half, x + half - 1, y - 1);
  const double norm = static_cast<double>(s) * s / 2.0;
  return {dx / norm, dy / norm};
}

/// exp(-r2 / (2 * 2.5^2)) for r2 = i^2 + j^2 <= 36 — the orientation
/// window's Gaussian weight, tabulated once. Same std::exp inputs as the
/// inline formula it replaces, so the values are bit-identical.
[[nodiscard]] const std::array<double, 37>& orientation_gauss() {
  static const std::array<double, 37> table = [] {
    std::array<double, 37> t{};
    for (int r2 = 0; r2 <= 36; ++r2) {
      t[static_cast<std::size_t>(r2)] = std::exp(-r2 / (2.0 * 2.5 * 2.5));
    }
    return t;
  }();
  return table;
}

/// exp(-(u^2 + v^2) / (2 * 3.3^2)) over the descriptor's fixed 20x20 sample
/// grid, u = (ku - 10 + 0.5) * 0.8 — tabulated once, bit-identical to the
/// inline formula.
[[nodiscard]] const std::array<std::array<double, 20>, 20>&
descriptor_gauss() {
  static const std::array<std::array<double, 20>, 20> table = [] {
    std::array<std::array<double, 20>, 20> t{};
    for (int ku = 0; ku < 20; ++ku) {
      for (int kv = 0; kv < 20; ++kv) {
        const double u = (ku - 10 + 0.5) * 0.8;
        const double v = (kv - 10 + 0.5) * 0.8;
        t[static_cast<std::size_t>(ku)][static_cast<std::size_t>(kv)] =
            std::exp(-(u * u + v * v) / (2.0 * 3.3 * 3.3));
      }
    }
    return t;
  }();
  return table;
}

/// Dominant orientation from Haar responses in a circular neighborhood,
/// using the sliding-window (pi/3) scheme of the SURF paper.
[[nodiscard]] double assign_orientation(const IntegralImage& ii,
                                        const SurfKeypoint& kp) {
  const int s = std::max(2, static_cast<int>(std::lround(kp.scale)));
  struct Sample {
    double angle;
    double dx;
    double dy;
  };
  std::vector<Sample> samples;
  for (int j = -6; j <= 6; ++j) {
    for (int i = -6; i <= 6; ++i) {
      if (i * i + j * j > 36) continue;
      const int px = static_cast<int>(std::lround(kp.x)) + i * s;
      const int py = static_cast<int>(std::lround(kp.y)) + j * s;
      if (px < 2 * s || py < 2 * s || px >= ii.width() - 2 * s ||
          py >= ii.height() - 2 * s) {
        continue;
      }
      auto [dx, dy] = haar_xy(ii, px, py, 4 * s);
      // Gaussian weighting by distance from the keypoint.
      const double g = orientation_gauss()[static_cast<std::size_t>(i * i + j * j)];
      dx *= g;
      dy *= g;
      if (std::abs(dx) + std::abs(dy) > 1e-12) {
        samples.push_back({std::atan2(dy, dx), dx, dy});
      }
    }
  }
  if (samples.empty()) return 0.0;
  double best_mag = -1.0;
  double best_angle = 0.0;
  constexpr double kWindow = std::numbers::pi / 3.0;
  for (int step = 0; step < 42; ++step) {
    const double window_start = -std::numbers::pi + step * (2.0 * std::numbers::pi / 42.0);
    double sum_dx = 0.0;
    double sum_dy = 0.0;
    for (const auto& smp : samples) {
      double delta = smp.angle - window_start;
      while (delta < 0) delta += 2.0 * std::numbers::pi;
      if (delta < kWindow) {
        sum_dx += smp.dx;
        sum_dy += smp.dy;
      }
    }
    const double mag = sum_dx * sum_dx + sum_dy * sum_dy;
    if (mag > best_mag) {
      best_mag = mag;
      best_angle = std::atan2(sum_dy, sum_dx);
    }
  }
  return best_angle;
}

/// 64-d descriptor: 4x4 subregions of 5x5 samples; each subregion stores
/// (Σdx, Σdy, Σ|dx|, Σ|dy|) in the keypoint-oriented frame; L2 normalized.
[[nodiscard]] SurfDescriptor compute_descriptor(const IntegralImage& ii,
                                                const SurfKeypoint& kp) {
  SurfDescriptor desc{};
  const double s = std::max(1.0, kp.scale);
  const double co = std::cos(kp.orientation);
  const double si = std::sin(kp.orientation);
  int idx = 0;
  for (int sub_y = -2; sub_y < 2; ++sub_y) {
    for (int sub_x = -2; sub_x < 2; ++sub_x) {
      double sum_dx = 0.0;
      double sum_dy = 0.0;
      double sum_adx = 0.0;
      double sum_ady = 0.0;
      for (int jy = 0; jy < 5; ++jy) {
        for (int jx = 0; jx < 5; ++jx) {
          // Sample position in the keypoint frame (units of scale).
          const double u = (sub_x * 5 + jx + 0.5) * 0.8;
          const double v = (sub_y * 5 + jy + 0.5) * 0.8;
          // Rotate into image frame.
          const double px = kp.x + (co * u - si * v) * s;
          const double py = kp.y + (si * u + co * v) * s;
          const int ipx = static_cast<int>(std::lround(px));
          const int ipy = static_cast<int>(std::lround(py));
          const int hs = std::max(2, static_cast<int>(std::lround(2 * s)));
          if (ipx < hs || ipy < hs || ipx >= ii.width() - hs ||
              ipy >= ii.height() - hs) {
            continue;
          }
          auto [rdx, rdy] = haar_xy(ii, ipx, ipy, hs);
          // Rotate the response into the keypoint frame.
          const double dx = co * rdx + si * rdy;
          const double dy = -si * rdx + co * rdy;
          const double g =
              descriptor_gauss()[static_cast<std::size_t>(sub_x * 5 + jx + 10)]
                                [static_cast<std::size_t>(sub_y * 5 + jy + 10)];
          sum_dx += dx * g;
          sum_dy += dy * g;
          sum_adx += std::abs(dx) * g;
          sum_ady += std::abs(dy) * g;
        }
      }
      desc[idx++] = static_cast<float>(sum_dx);
      desc[idx++] = static_cast<float>(sum_dy);
      desc[idx++] = static_cast<float>(sum_adx);
      desc[idx++] = static_cast<float>(sum_ady);
    }
  }
  double norm_sq = 0.0;
  for (const float v : desc) norm_sq += static_cast<double>(v) * v;
  const double norm = std::sqrt(norm_sq) + 1e-9;
  for (float& v : desc) v = static_cast<float>(v / norm);
  return desc;
}

}  // namespace

std::vector<SurfFeature> detect_and_describe(const imaging::Image& img,
                                             const SurfParams& params) {
  if (img.width() < 32 || img.height() < 32) return {};
  const IntegralImage ii(img);

  // Filter-size ladder per octave: SURF uses 9,15,21,27 then 15,27,39,51.
  std::vector<std::vector<int>> octave_sizes;
  octave_sizes.push_back({9, 15, 21, 27});
  if (params.octaves >= 2) octave_sizes.push_back({15, 27, 39, 51});
  if (params.octaves >= 3) octave_sizes.push_back({27, 51, 75, 99});

  struct Candidate {
    SurfKeypoint kp;
  };
  std::vector<Candidate> candidates;

  for (const auto& sizes : octave_sizes) {
    const int step = sizes[0] >= 15 ? 2 : 1;  // coarser sampling at big scales
    // Response maps for the 4 filter sizes of this octave.
    const int margin = sizes.back() / 2 + 1;
    if (img.width() <= 2 * margin || img.height() <= 2 * margin) continue;
    const int rw = (img.width() - 2 * margin) / step + 1;
    const int rh = (img.height() - 2 * margin) / step + 1;
    std::vector<std::vector<double>> det(
        sizes.size(), std::vector<double>(static_cast<std::size_t>(rw) * rh, 0.0));
    std::vector<std::vector<std::uint8_t>> lap(
        sizes.size(),
        std::vector<std::uint8_t>(static_cast<std::size_t>(rw) * rh, 0));
    for (std::size_t layer = 0; layer < sizes.size(); ++layer) {
      if (step == 1) {
        // Full-resolution octave: contiguous x positions — the vectorized
        // row kernel applies (bit-identical to hessian_at per position).
        for (int ry = 0; ry < rh; ++ry) {
          hessian_row(ii, margin + ry, margin, rw, sizes[layer],
                      det[layer].data() + static_cast<std::size_t>(ry) * rw,
                      lap[layer].data() + static_cast<std::size_t>(ry) * rw);
        }
        continue;
      }
      for (int ry = 0; ry < rh; ++ry) {
        for (int rx = 0; rx < rw; ++rx) {
          const int x = margin + rx * step;
          const int y = margin + ry * step;
          const auto h = hessian_at(ii, x, y, sizes[layer]);
          det[layer][static_cast<std::size_t>(ry) * rw + rx] = h.det;
          lap[layer][static_cast<std::size_t>(ry) * rw + rx] =
              h.trace > 0 ? 1 : 0;
        }
      }
    }
    // Non-maximum suppression in the middle layers across 3x3x3 blocks.
    for (std::size_t layer = 1; layer + 1 < sizes.size(); ++layer) {
      for (int ry = 1; ry + 1 < rh; ++ry) {
        for (int rx = 1; rx + 1 < rw; ++rx) {
          const double v = det[layer][static_cast<std::size_t>(ry) * rw + rx];
          if (v < params.hessian_threshold) continue;
          bool is_max = true;
          for (std::size_t l = layer - 1; l <= layer + 1 && is_max; ++l) {
            for (int dy = -1; dy <= 1 && is_max; ++dy) {
              for (int dx = -1; dx <= 1; ++dx) {
                if (l == layer && dx == 0 && dy == 0) continue;
                if (det[l][static_cast<std::size_t>(ry + dy) * rw + (rx + dx)] >= v) {
                  is_max = false;
                  break;
                }
              }
            }
          }
          if (!is_max) continue;
          SurfKeypoint kp;
          kp.x = margin + rx * step;
          kp.y = margin + ry * step;
          kp.scale = 1.2 * sizes[layer] / 9.0;  // SURF scale convention
          kp.response = v;
          kp.laplacian_positive =
              lap[layer][static_cast<std::size_t>(ry) * rw + rx] != 0;
          candidates.push_back({kp});
        }
      }
    }
  }

  // Keep the strongest N.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.kp.response > b.kp.response;
            });
  if (static_cast<int>(candidates.size()) > params.max_features) {
    candidates.resize(static_cast<std::size_t>(params.max_features));
  }

  std::vector<SurfFeature> features;
  features.reserve(candidates.size());
  for (auto& cand : candidates) {
    if (!params.upright) {
      cand.kp.orientation = assign_orientation(ii, cand.kp);
    }
    SurfFeature f;
    f.keypoint = cand.kp;
    f.descriptor = compute_descriptor(ii, cand.kp);
    features.push_back(f);
  }
  return features;
}

DescriptorBlock build_descriptor_block(const std::vector<SurfFeature>& features,
                                       bool laplacian_positive) {
  DescriptorBlock block;
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (features[i].keypoint.laplacian_positive == laplacian_positive) {
      block.index.push_back(static_cast<std::uint32_t>(i));
    }
  }
  block.count = block.index.size();
  if (block.count == 0) return block;
  const std::size_t rem = block.count % simd::kF32Lanes;
  block.stride = block.count + (rem == 0 ? 0 : simd::kF32Lanes - rem);
  block.data.assign(kSurfDescriptorDims * block.stride, DescriptorBlock::kPad);
  for (std::size_t j = 0; j < block.count; ++j) {
    const SurfDescriptor& d = features[block.index[j]].descriptor;
    for (std::size_t dim = 0; dim < kSurfDescriptorDims; ++dim) {
      block.data[dim * block.stride + j] = d[dim];
    }
  }
  return block;
}

float descriptor_distance_sq(const SurfDescriptor& a,
                             const SurfDescriptor& b) noexcept {
  // Sequential float accumulation with explicit sub/mul/add steps — the
  // exact op sequence the SoA matcher kernel runs per candidate.
  float d2 = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float diff = a[i] - b[i];
    const float sq = diff * diff;
    d2 = d2 + sq;
  }
  return d2;
}

double descriptor_distance(const SurfDescriptor& a,
                           const SurfDescriptor& b) noexcept {
  return std::sqrt(static_cast<double>(descriptor_distance_sq(a, b)));
}

}  // namespace crowdmap::vision
