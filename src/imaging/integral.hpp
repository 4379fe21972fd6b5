// Integral image (summed-area table) — the backbone of the SURF-style
// detector's constant-time box filters.
#pragma once

#include "imaging/image.hpp"

namespace crowdmap::imaging {

/// Summed-area table: S(x, y) = sum of pixels in [0,x) x [0,y).
/// Stored with one extra row/column of zeros so box sums need no branches.
class IntegralImage {
 public:
  explicit IntegralImage(const Image& img);

  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int height() const noexcept { return height_; }

  /// Sum of the inclusive pixel rectangle [x0, x1] x [y0, y1].
  /// Coordinates are clamped to the image bounds.
  [[nodiscard]] double box_sum(int x0, int y0, int x1, int y1) const noexcept;

  /// box_sum without the clamps, for callers that guarantee
  /// 0 <= x0 <= x1 < width and 0 <= y0 <= y1 < height (the SURF detector
  /// proves this from its margins). Same value AND same floating-point
  /// evaluation order as box_sum on in-bounds rectangles — the SURF hot
  /// loops depend on that bit-for-bit.
  [[nodiscard]] double box_sum_fast(int x0, int y0, int x1,
                                    int y1) const noexcept {
    return s(x1 + 1, y1 + 1) - s(x0, y1 + 1) - s(x1 + 1, y0) + s(x0, y0);
  }

  /// Raw pointer to table row y (row length width() + 1; y in
  /// [0, height()]). Row y holds prefix sums over pixel rows [0, y) —
  /// row(y)[x] == S(x, y). Exists for the vectorized Hessian row kernel
  /// (common::simd::hessian_row_f64), which needs contiguous loads.
  [[nodiscard]] const double* row(int y) const noexcept {
    return table_.data() + static_cast<std::size_t>(y) * (width_ + 1);
  }

  /// Mean over the same rectangle.
  [[nodiscard]] double box_mean(int x0, int y0, int x1, int y1) const noexcept;

 private:
  [[nodiscard]] double s(int x, int y) const noexcept {
    return table_[static_cast<std::size_t>(y) * (width_ + 1) + x];
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<double> table_;
};

}  // namespace crowdmap::imaging
